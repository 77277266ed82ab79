//! Functional and timing models of the EdgeMM coprocessors.
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
//! The MC cores also embed the hardware [`ActAwarePruner`] of Fig. 8, which
//! performs the local Top-k channel selection that backs the
//! activation-aware weight pruning.
//!
//! The models here are *functional* (they compute real numbers so accuracy
//! experiments are meaningful) and *timed* (they report
//! [`Cycles`](edgemm_core::units::Cycles); the `edgemm-sim` mapping explorer
//! prices every GEMM and GEMV through the Eq. 2/3 formulas). They are
//! deliberately not bit-exact RTL models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cim;
mod pruner;
mod quant;
mod systolic;

pub use cim::{CimMacro, GemvResult};
pub use pruner::{ActAwarePruner, PruneOutcome};
pub use quant::{bf16_round, quantize_int8, QuantizedVector};
pub use systolic::{GemmResult, SystolicArray};

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
