//! Weight-stationary systolic array model (compute-centric coprocessor).
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

use crate::quant::bf16_round;
use edgemm_arch::SystolicGeometry;
use edgemm_core::units::Cycles;

/// Result of running a GEMM on the systolic array model.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmResult {
    /// Row-major `m x n` output matrix.
    pub output: Vec<f32>,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Total coprocessor cycles, including weight (re)loads per tile.
    pub cycles: Cycles,
    /// Number of weight tiles streamed through the array.
    pub tiles: usize,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
}

impl GemmResult {
    /// Achieved MACs per cycle (hardware utilisation proxy).
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles.is_zero() {
            0.0
        } else {
            self.macs as f64 / self.cycles.as_f64()
        }
    }
}

/// Functional + timing model of the systolic-array coprocessor.
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

    /// Cycle count of a full `m x k` by `k x n` GEMM with tiling, without
    /// computing the numeric result. This is the model used by the
    /// performance simulator for large layers.
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

    /// Functional GEMM: `output = activations (m x k) * weights (k x n)`,
    /// computed tile by tile in BF16, returning both the numeric result and
    /// the cycle count.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the given dimensions.
    pub fn gemm(
        &self,
        activations: &[f32],
        weights: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> GemmResult {
        assert_eq!(activations.len(), m * k, "activation shape mismatch");
        assert_eq!(weights.len(), k * n, "weight shape mismatch");
        // BF16 ingress rounding is a pure per-element function, so both
        // operands are rounded once up front instead of once per use inside
        // the tile loops — same values, a factor of the tile footprint fewer
        // rounds.
        let act: Vec<f32> = activations.iter().map(|&v| bf16_round(v)).collect();
        let wts: Vec<f32> = weights.iter().map(|&v| bf16_round(v)).collect();
        let mut output = vec![0.0f32; m * n];
        let r = self.geometry.rows;
        let c = self.geometry.cols;
        let mut tiles = 0usize;
        // Weight-stationary tiling: iterate over k (rows of the weight tile)
        // and n (columns of the weight tile); stream all m activations per
        // tile. The column loop runs 4 independent accumulator chains at a
        // time; each output element still sees the exact serial
        // round(acc + round(a*w)) chain over ascending k, so the result is
        // bit-identical to the straight scalar loop.
        const LANES: usize = 4;
        for k0 in (0..k).step_by(r) {
            let k1 = (k0 + r).min(k);
            for n0 in (0..n).step_by(c) {
                let n1 = (n0 + c).min(n);
                tiles += 1;
                for i in 0..m {
                    let arow = &act[i * k..(i + 1) * k];
                    let mut j = n0;
                    while j + LANES <= n1 {
                        let mut acc = [
                            output[i * n + j],
                            output[i * n + j + 1],
                            output[i * n + j + 2],
                            output[i * n + j + 3],
                        ];
                        for kk in k0..k1 {
                            let a = arow[kk];
                            let wrow = &wts[kk * n + j..kk * n + j + LANES];
                            acc[0] = bf16_round(acc[0] + bf16_round(a * wrow[0]));
                            acc[1] = bf16_round(acc[1] + bf16_round(a * wrow[1]));
                            acc[2] = bf16_round(acc[2] + bf16_round(a * wrow[2]));
                            acc[3] = bf16_round(acc[3] + bf16_round(a * wrow[3]));
                        }
                        output[i * n + j..i * n + j + LANES].copy_from_slice(&acc);
                        j += LANES;
                    }
                    while j < n1 {
                        let mut acc = output[i * n + j];
                        for kk in k0..k1 {
                            acc = bf16_round(acc + bf16_round(arow[kk] * wts[kk * n + j]));
                        }
                        output[i * n + j] = acc;
                        j += 1;
                    }
                }
            }
        }
        let cycles = self.tile_cycles(m) * tiles;
        GemmResult {
            output,
            m,
            n,
            cycles,
            tiles,
            macs: (m * k * n) as u64,
        }
    }

    /// Functional GEMV (`m = 1`): `output = x (1 x k) * weights (k x n)`.
    pub fn gemv(&self, x: &[f32], weights: &[f32], k: usize, n: usize) -> GemmResult {
        self.gemm(x, weights, 1, k, n)
    }
}

impl Default for SystolicArray {
    fn default() -> Self {
        Self::new(SystolicGeometry::paper_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The straight (pre-unrolling) tile loop with per-use BF16 rounding —
    /// the bit-exact oracle for the blocked kernel.
    fn scalar_tiled_gemm(
        sa: &SystolicArray,
        activations: &[f32],
        weights: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut output = vec![0.0f32; m * n];
        let r = sa.geometry().rows;
        let c = sa.geometry().cols;
        for k0 in (0..k).step_by(r) {
            let k1 = (k0 + r).min(k);
            for n0 in (0..n).step_by(c) {
                let n1 = (n0 + c).min(n);
                for i in 0..m {
                    for j in n0..n1 {
                        let mut acc = output[i * n + j];
                        for kk in k0..k1 {
                            let a = bf16_round(activations[i * k + kk]);
                            let w = bf16_round(weights[kk * n + j]);
                            acc = bf16_round(acc + bf16_round(a * w));
                        }
                        output[i * n + j] = acc;
                    }
                }
            }
        }
        output
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = (i as u64).wrapping_mul(seed.wrapping_add(0x9e3779b9));
                (v % 31) as f32 * 0.0625 - 0.9375
            })
            .collect()
    }

    #[test]
    fn unrolled_gemm_is_bit_identical_on_awkward_shapes() {
        let sa = SystolicArray::new(SystolicGeometry {
            rows: 4,
            cols: 4,
            matrix_registers: 4,
        });
        // Odd dims, 1xN, Nx1, sub-lane tiles, empty operands.
        for &(m, k, n) in &[
            (3usize, 5usize, 7usize),
            (1, 9, 13),
            (7, 5, 1),
            (1, 1, 1),
            (2, 10, 6),
            (5, 4, 3),
            (0, 4, 4),
            (4, 0, 4),
            (4, 4, 0),
        ] {
            let a = pseudo(m * k, 3);
            let b = pseudo(k * n, 11);
            assert_eq!(
                sa.gemm(&a, &b, m, k, n).output,
                scalar_tiled_gemm(&sa, &a, &b, m, k, n),
                "shape {m}x{k}x{n}"
            );
        }
    }

    fn reference_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    out[i * n + j] += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                }
            }
        }
        out.into_iter().map(|v| v as f32).collect()
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
    fn gemm_matches_reference_small() {
        let sa = SystolicArray::new(SystolicGeometry {
            rows: 4,
            cols: 4,
            matrix_registers: 4,
        });
        let a: Vec<f32> = (0..6).map(|x| x as f32 * 0.5).collect(); // 2 x 3
        let b: Vec<f32> = (0..12).map(|x| (x as f32 - 6.0) * 0.25).collect(); // 3 x 4
        let got = sa.gemm(&a, &b, 2, 3, 4);
        let want = reference_gemm(&a, &b, 2, 3, 4);
        for (g, w) in got.output.iter().zip(&want) {
            assert!((g - w).abs() < 1e-2, "got {g}, want {w}");
        }
        assert_eq!(got.m, 2);
        assert_eq!(got.n, 4);
        assert_eq!(got.tiles, 1);
    }

    #[test]
    fn gemm_tiles_larger_matrices() {
        let sa = SystolicArray::new(SystolicGeometry {
            rows: 4,
            cols: 4,
            matrix_registers: 4,
        });
        // k = 10 and n = 6 need ceil(10/4) * ceil(6/4) = 3 * 2 = 6 tiles.
        assert_eq!(sa.tile_count(10, 6), 6);
        let a = vec![1.0f32; 2 * 10];
        let b = vec![1.0f32; 10 * 6];
        let got = sa.gemm(&a, &b, 2, 10, 6);
        assert_eq!(got.tiles, 6);
        // Every output element is the sum of 10 ones.
        for v in &got.output {
            assert!((v - 10.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gemv_underutilises_the_array() {
        let sa = SystolicArray::default();
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
        let sa = SystolicArray::default();
        assert_eq!(sa.gemm_cycles(0, 128, 128), Cycles::ZERO);
        assert_eq!(sa.gemm_cycles(8, 0, 128), Cycles::ZERO);
    }

    #[test]
    fn macs_per_cycle_bounded_by_array_size() {
        let sa = SystolicArray::default();
        let m = 128;
        let k = 256;
        let n = 256;
        let a = vec![0.5f32; m * k];
        let b = vec![0.25f32; k * n];
        let res = sa.gemm(&a, &b, m, k, n);
        let peak = sa.geometry().macs_per_cycle() as f64;
        assert!(res.macs_per_cycle() <= peak + 1e-9);
        // Large GEMMs should reach decent utilisation (> 50% of peak).
        assert!(
            res.macs_per_cycle() > 0.5 * peak,
            "util = {}",
            res.macs_per_cycle() / peak
        );
    }

    #[test]
    #[should_panic(expected = "activation shape mismatch")]
    fn shape_mismatch_panics() {
        SystolicArray::default().gemm(&[1.0], &[1.0], 2, 2, 1);
    }

    proptest! {
        /// The blocked kernel equals the scalar tile loop exactly on random
        /// shapes and geometries.
        #[test]
        fn unrolled_gemm_bit_identical_random(
            m in 0usize..6,
            k in 0usize..10,
            n in 0usize..10,
            rows in 1usize..5,
            cols in 1usize..5,
            seed in 0u64..1000,
        ) {
            let sa = SystolicArray::new(SystolicGeometry { rows, cols, matrix_registers: 4 });
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i as u64).wrapping_mul(seed + 7) % 19) as f32 * 0.125 - 1.0)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i as u64).wrapping_mul(seed + 13) % 19) as f32 * 0.125 - 1.0)
                .collect();
            prop_assert_eq!(
                sa.gemm(&a, &b, m, k, n).output,
                scalar_tiled_gemm(&sa, &a, &b, m, k, n)
            );
        }

        /// The tiled BF16 GEMM stays close to an f64 reference for modest values.
        #[test]
        fn gemm_close_to_reference(
            m in 1usize..5,
            k in 1usize..9,
            n in 1usize..7,
            seed in 0u64..1000,
        ) {
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            };
            let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            let sa = SystolicArray::new(SystolicGeometry { rows: 4, cols: 4, matrix_registers: 4 });
            let got = sa.gemm(&a, &b, m, k, n);
            let want = reference_gemm(&a, &b, m, k, n);
            for (g, w) in got.output.iter().zip(&want) {
                // BF16 accumulation error grows with k; allow a loose bound.
                prop_assert!((g - w).abs() < 0.05 * (k as f32).max(1.0));
            }
        }

        /// Cycle counts are monotonic in every dimension.
        #[test]
        fn cycles_monotonic(m in 1usize..64, k in 1usize..512, n in 1usize..512) {
            let sa = SystolicArray::default();
            prop_assert!(sa.gemm_cycles(m + 1, k, n) >= sa.gemm_cycles(m, k, n));
            prop_assert!(sa.gemm_cycles(m, k + 1, n) >= sa.gemm_cycles(m, k, n));
            prop_assert!(sa.gemm_cycles(m, k, n + 1) >= sa.gemm_cycles(m, k, n));
        }
    }
}
