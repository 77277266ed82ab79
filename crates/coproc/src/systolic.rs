//! Weight-stationary systolic array timing model (compute-centric
//! coprocessor).
//!
//! The array holds `R x C` BF16 multiply-accumulate PEs. Weights stay
//! stationary in the PEs while activations are streamed in a systolic
//! fashion, so data only moves between neighbouring PEs. Loading a weight
//! tile and streaming an `M`-row activation block through it takes
//!
//! ```text
//! L_SA = R + (R - 1) + (C + M - 1) - 1 = 2R + C + M - 3      (paper Eq. 2)
//! ```
//!
//! cycles. For GEMV (`M = 1`) only a single activation column flows through
//! the array, leaving most PEs idle — the inefficiency that motivates the
//! memory-centric CIM coprocessor.

use edgemm_arch::SystolicGeometry;
use edgemm_core::units::Cycles;

/// Timing model of the systolic-array coprocessor.
#[derive(Debug, Clone, PartialEq)]
pub struct SystolicArray {
    geometry: SystolicGeometry,
}

impl SystolicArray {
    /// Create an array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has a zero dimension.
    pub fn new(geometry: SystolicGeometry) -> Self {
        assert!(
            geometry.rows > 0 && geometry.cols > 0,
            "systolic array dimensions must be non-zero"
        );
        SystolicArray { geometry }
    }

    /// The array geometry.
    pub fn geometry(&self) -> &SystolicGeometry {
        &self.geometry
    }

    /// Cycle count of streaming one `m`-row activation block through one
    /// resident weight tile (paper Eq. 2).
    pub fn tile_cycles(&self, m: usize) -> Cycles {
        let r = self.geometry.rows as u64;
        let c = self.geometry.cols as u64;
        Cycles::new(2 * r + c + m as u64 - 3)
    }

    /// Number of `R x C` weight tiles needed to cover a `k x n` weight matrix.
    pub fn tile_count(&self, k: usize, n: usize) -> usize {
        k.div_ceil(self.geometry.rows) * n.div_ceil(self.geometry.cols)
    }

    /// Cycle count of a full `m x k` by `k x n` GEMM with tiling: the Eq. 2
    /// tile latency once per weight tile.
    pub fn gemm_cycles(&self, m: usize, k: usize, n: usize) -> Cycles {
        if m == 0 || k == 0 || n == 0 {
            return Cycles::ZERO;
        }
        self.tile_cycles(m) * self.tile_count(k, n)
    }

    /// Cycle count of a GEMV (`m = 1`), exposing the PE under-utilisation.
    pub fn gemv_cycles(&self, k: usize, n: usize) -> Cycles {
        self.gemm_cycles(1, k, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper() -> SystolicArray {
        SystolicArray::new(SystolicGeometry::paper_default())
    }

    #[test]
    fn eq2_matches_paper_formula() {
        let sa = SystolicArray::new(SystolicGeometry {
            rows: 16,
            cols: 16,
            matrix_registers: 4,
        });
        // 2R + C + M - 3 with R = C = 16, M = 8 -> 32 + 16 + 8 - 3 = 53.
        assert_eq!(sa.tile_cycles(8), 53);
        // GEMV: M = 1 -> 2R + C - 2 = 46.
        assert_eq!(sa.tile_cycles(1), 46);
    }

    #[test]
    fn gemm_tiles_larger_matrices() {
        let sa = SystolicArray::new(SystolicGeometry {
            rows: 4,
            cols: 4,
            matrix_registers: 4,
        });
        // k = 10 and n = 6 need ceil(10/4) * ceil(6/4) = 3 * 2 = 6 tiles,
        // each paying the Eq. 2 latency of a 2-row block.
        assert_eq!(sa.tile_count(10, 6), 6);
        assert_eq!(sa.gemm_cycles(2, 10, 6), sa.tile_cycles(2) * 6u64);
        // A shape that fits one tile pays one tile latency.
        assert_eq!(sa.gemm_cycles(2, 3, 4), sa.tile_cycles(2));
    }

    #[test]
    fn gemv_underutilises_the_array() {
        let sa = paper();
        let k = 256;
        let n = 256;
        let gemm = sa.gemm_cycles(64, k, n);
        let gemv = sa.gemv_cycles(k, n);
        // Per streamed row, GEMV pays the full pipeline fill for one row of
        // work: 64-row GEMM must be far more efficient per row.
        let gemm_per_row = gemm.as_f64() / 64.0;
        assert!(
            gemm_per_row < gemv.as_f64() / 4.0,
            "GEMM/row {gemm_per_row}, GEMV {gemv}"
        );
    }

    #[test]
    fn zero_sized_gemm_is_free() {
        let sa = paper();
        assert_eq!(sa.gemm_cycles(0, 128, 128), Cycles::ZERO);
        assert_eq!(sa.gemm_cycles(8, 0, 128), Cycles::ZERO);
    }

    #[test]
    fn macs_per_cycle_bounded_by_array_size() {
        let sa = paper();
        let (m, k, n) = (128, 256, 256);
        let macs_per_cycle = (m * k * n) as f64 / sa.gemm_cycles(m, k, n).as_f64();
        let peak = sa.geometry().macs_per_cycle() as f64;
        assert!(macs_per_cycle <= peak + 1e-9);
        // Large GEMMs should reach decent utilisation (> 50% of peak).
        assert!(
            macs_per_cycle > 0.5 * peak,
            "util = {}",
            macs_per_cycle / peak
        );
    }

    proptest! {
        /// Cycle counts are monotonic in every dimension.
        #[test]
        fn cycles_monotonic(m in 1usize..64, k in 1usize..512, n in 1usize..512) {
            let sa = paper();
            prop_assert!(sa.gemm_cycles(m + 1, k, n) >= sa.gemm_cycles(m, k, n));
            prop_assert!(sa.gemm_cycles(m, k + 1, n) >= sa.gemm_cycles(m, k, n));
            prop_assert!(sa.gemm_cycles(m, k, n + 1) >= sa.gemm_cycles(m, k, n));
        }
    }
}
