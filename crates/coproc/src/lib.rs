//! Timing models of the EdgeMM coprocessors.
//!
//! Each EdgeMM core attaches one of two coprocessors to its RISC-V host core
//! through a direct-linked interface:
//!
//! * the **systolic array** ([`SystolicArray`]) of compute-centric cores — a
//!   weight-stationary R x C PE array whose GEMM latency follows the paper's
//!   Eq. 2, `L_SA = 2R + C + M - 3`;
//! * the **digital CIM macro** ([`CimMacro`]) of memory-centric cores — an
//!   SRAM macro with per-column adder trees performing bit-serial GEMV in
//!   `L_CIM = M*W + 1` cycles (Eq. 3).
//!
//! Both report [`Cycles`](edgemm_core::units::Cycles), and the `edgemm-sim`
//! mapping explorer prices every GEMM and GEMV through them. The
//! coprocessors' BF16/INT8 numerics and the MC cores' hardware pruner block
//! (Fig. 8b) are described, not modeled: Fig. 12's accuracy metrics run on
//! `edgemm-mllm`'s f32 kernels, `edgemm-pruning`'s Top-k selects the kept
//! channels, and `edgemm-sim` charges the pruner's pass as a fixed overhead
//! per pruned operator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cim;
mod systolic;

pub use cim::CimMacro;
pub use systolic::SystolicArray;

#[cfg(test)]
mod tests {
    //! The coprocessor models report the shared `units::Cycles`; these pin
    //! the arithmetic, conversion and formatting the models rely on.

    use super::*;
    use edgemm_arch::SystolicGeometry;
    use edgemm_core::units::Cycles;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(10) + Cycles::new(5);
        assert_eq!(a, Cycles::new(15));
        let mut b = Cycles::new(1);
        b += Cycles::new(2);
        assert_eq!(b, Cycles::new(3));
        assert_eq!(
            [1, 2, 3].into_iter().map(Cycles::new).sum::<Cycles>(),
            Cycles::new(6)
        );
        // A tiled GEMM costs its Eq. 2 tile latency once per weight tile.
        let sa = SystolicArray::new(SystolicGeometry::paper_default());
        let per_tile: Cycles = (0..sa.tile_count(256, 256))
            .map(|_| sa.tile_cycles(8))
            .sum();
        assert_eq!(sa.gemm_cycles(8, 256, 256), per_tile);
    }

    #[test]
    fn cycles_to_seconds() {
        // 1000 cycles at 1 GHz is 1 microsecond.
        let t = Cycles::new(1000).seconds(1000);
        assert!((t - 1.0e-6).abs() < 1e-15);
    }

    #[test]
    fn cycles_display() {
        // The shared type prints the bare count; callers name the unit.
        assert_eq!(Cycles::new(42).to_string(), "42");
    }

    #[test]
    fn cycles_saturating() {
        assert_eq!(Cycles::MAX.saturating_add(Cycles::new(1)), Cycles::MAX);
    }
}
