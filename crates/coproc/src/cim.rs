//! Digital compute-in-memory macro timing model (memory-centric
//! coprocessor).
//!
//! A CIM macro fuses the data memory and the compute array: weights live in
//! 6T SRAM subarrays and never move to a register file. During GEMV the
//! activation vector is broadcast bit-serially into all columns; every cycle
//! each subarray reads one stored weight, multiplies it with one activation
//! bit, the per-column adder tree reduces the partial products and a
//! shift-and-accumulate unit assembles the full-precision result. A GEMV
//! over `M` sequential weight rows with `W`-bit activations takes
//!
//! ```text
//! L_CIM = M * W + 1                                   (paper Eq. 3)
//! ```
//!
//! cycles. The broadcast dataflow keeps every compute cell busy for GEMV
//! (where the systolic array would idle), but for GEMM the bit-serial factor
//! `W` makes it less efficient than the systolic array — exactly the
//! asymmetry that motivates the heterogeneous design.

use edgemm_arch::CimGeometry;
use edgemm_core::units::Cycles;

/// Timing model of one digital CIM macro.
#[derive(Debug, Clone, PartialEq)]
pub struct CimMacro {
    geometry: CimGeometry,
}

impl CimMacro {
    /// Create a macro with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has a zero dimension.
    pub fn new(geometry: CimGeometry) -> Self {
        assert!(
            geometry.cols > 0 && geometry.subarrays > 0 && geometry.subarray_rows > 0,
            "CIM geometry must be non-zero"
        );
        CimMacro { geometry }
    }

    /// Cycle count of a GEMV against a `k x n` weight matrix (paper Eq. 3).
    /// `M` in the formula is the number of weight rows each column processes
    /// sequentially, i.e. the reduction length divided by the per-column
    /// subarray parallelism; the result is multiplied by the number of
    /// column passes needed to cover all `n` output channels. A pruned GEMV
    /// is priced at its kept `k`.
    pub fn gemv_cycles(&self, k: usize, n: usize) -> Cycles {
        if k == 0 || n == 0 {
            return Cycles::ZERO;
        }
        let w = self.geometry.activation_bits as u64;
        let col_passes = n.div_ceil(self.geometry.cols) as u64;
        let m_seq = k.div_ceil(self.geometry.subarrays) as u64;
        Cycles::new(col_passes * (m_seq * w + 1))
    }

    /// Cycle count of running an `m`-row GEMM on the CIM macro (each row is a
    /// separate bit-serial GEMV — the `W` factor that makes CIM a poor fit
    /// for compute-bound GEMM).
    pub fn gemm_cycles(&self, m: usize, k: usize, n: usize) -> Cycles {
        self.gemv_cycles(k, n) * m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systolic::SystolicArray;
    use edgemm_arch::SystolicGeometry;
    use proptest::prelude::*;

    fn paper() -> CimMacro {
        CimMacro::new(CimGeometry::paper_default())
    }

    #[test]
    fn eq3_matches_paper_formula() {
        let cim = CimMacro::new(CimGeometry {
            cols: 32,
            subarrays: 16,
            subarray_rows: 64,
            weight_bits: 8,
            activation_bits: 8,
        });
        // Single column pass, k = 16 -> M = 1 sequential row, W = 8 -> 9 cycles.
        assert_eq!(cim.gemv_cycles(16, 32), 9);
        // k = 160 -> M = 10, W = 8 -> 81 cycles.
        assert_eq!(cim.gemv_cycles(160, 32), 81);
        // n = 64 needs two column passes.
        assert_eq!(cim.gemv_cycles(160, 64), 162);
    }

    #[test]
    fn pruning_reduces_cycles_proportionally() {
        let cim = paper();
        let dense = cim.gemv_cycles(1024, 256);
        let half = cim.gemv_cycles(512, 256);
        let ratio = dense.ratio(half);
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn cim_beats_systolic_on_gemv_cycles() {
        // The headline motivation: for GEMV the CIM macro needs fewer cycles
        // than the systolic array of a comparable core.
        let cim = paper();
        let sa = SystolicArray::new(SystolicGeometry::paper_default());
        let k = 2048;
        let n = 2048;
        assert!(cim.gemv_cycles(k, n) < sa.gemv_cycles(k, n));
    }

    #[test]
    fn systolic_beats_cim_on_gemm_cycles() {
        // ... and the reverse for GEMM, because of the bit-serial factor W.
        let cim = paper();
        let sa = SystolicArray::new(SystolicGeometry::paper_default());
        let m = 256;
        let k = 768;
        let n = 768;
        assert!(sa.gemm_cycles(m, k, n) < cim.gemm_cycles(m, k, n));
    }

    #[test]
    fn zero_dims_are_free() {
        let cim = paper();
        assert_eq!(cim.gemv_cycles(0, 128), Cycles::ZERO);
        assert_eq!(cim.gemv_cycles(128, 0), Cycles::ZERO);
    }

    proptest! {
        /// GEMV cycle counts are monotonic in both dimensions.
        #[test]
        fn gemv_cycles_monotonic(k in 1usize..4096, n in 1usize..4096) {
            let cim = paper();
            prop_assert!(cim.gemv_cycles(k + 1, n) >= cim.gemv_cycles(k, n));
            prop_assert!(cim.gemv_cycles(k, n + 1) >= cim.gemv_cycles(k, n));
        }

        /// Pruned GEMV never takes more cycles than the dense one.
        #[test]
        fn pruned_never_slower(k in 2usize..512, keep in 1usize..512, n in 1usize..256) {
            let keep = keep.min(k);
            let cim = paper();
            prop_assert!(cim.gemv_cycles(keep, n) <= cim.gemv_cycles(k, n));
        }
    }
}
