//! Digital compute-in-memory macro model (memory-centric coprocessor).
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

use crate::quant::{quantize_int8, QuantizedVector};
use edgemm_arch::CimGeometry;
use edgemm_core::units::Cycles;

/// Result of a GEMV on the CIM model.
#[derive(Debug, Clone, PartialEq)]
pub struct GemvResult {
    /// Output vector of length `n` (one element per weight column).
    pub output: Vec<f32>,
    /// Total coprocessor cycles.
    pub cycles: Cycles,
    /// Number of macro passes (reloads of the weight SRAM) required.
    pub passes: usize,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
}

impl GemvResult {
    /// Achieved effective MACs per cycle.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles.is_zero() {
            0.0
        } else {
            self.macs as f64 / self.cycles.as_f64()
        }
    }
}

/// Functional + timing model of one digital CIM macro.
#[derive(Debug, Clone, PartialEq)]
pub struct CimMacro {
    geometry: CimGeometry,
    /// Resident quantized weights, row-major `k x n`, plus their shape.
    weights: Option<(QuantizedVector, usize, usize)>,
}

impl CimMacro {
    /// Create a macro with the given geometry and no resident weights.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has a zero dimension.
    pub fn new(geometry: CimGeometry) -> Self {
        assert!(
            geometry.cols > 0 && geometry.subarrays > 0 && geometry.subarray_rows > 0,
            "CIM geometry must be non-zero"
        );
        CimMacro {
            geometry,
            weights: None,
        }
    }

    /// The macro geometry.
    pub fn geometry(&self) -> &CimGeometry {
        &self.geometry
    }

    /// Number of weights (INT-`weight_bits` values) the macro can hold.
    pub fn capacity(&self) -> usize {
        self.geometry.weight_capacity()
    }

    /// Load a `k x n` weight matrix (row-major) into the macro, quantizing it
    /// to the macro's weight precision. Returns the number of *passes* the
    /// matrix needs if it exceeds the macro capacity (the simulator charges a
    /// DMA refill per pass).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != k * n`.
    pub fn load_weights(&mut self, weights: &[f32], k: usize, n: usize) -> usize {
        assert_eq!(weights.len(), k * n, "weight shape mismatch");
        self.weights = Some((quantize_int8(weights), k, n));
        self.passes_for(k, n)
    }

    /// Whether a weight matrix is resident.
    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// Number of macro passes needed for a `k x n` matrix.
    pub fn passes_for(&self, k: usize, n: usize) -> usize {
        (k * n).div_ceil(self.capacity().max(1)).max(1)
    }

    /// Cycle count of a GEMV against a `k x n` weight matrix (paper Eq. 3),
    /// independent of the functional computation. `M` in the formula is the
    /// number of weight rows each column processes sequentially, i.e. the
    /// reduction length divided by the per-column subarray parallelism; the
    /// result is multiplied by the number of column passes needed to cover
    /// all `n` output channels.
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

    /// Functional GEMV: `output = x (1 x k) * W (k x n)` using the resident
    /// quantized weights.
    ///
    /// # Panics
    ///
    /// Panics if no weights are resident or if `x.len()` does not match the
    /// resident reduction dimension.
    pub fn gemv(&self, x: &[f32]) -> GemvResult {
        let (q, k, n) = self
            .weights
            .as_ref()
            // lint:allow(no-unwrap): documented panic contract (see # Panics)
            .expect("no weights resident in CIM macro");
        assert_eq!(x.len(), *k, "activation length mismatch");
        // Activations are quantized to the broadcast bit-width as well.
        let xq = quantize_int8(x);
        let (k, n) = (*k, *n);
        let mut output = vec![0.0f32; n];
        // Four columns accumulate in separate i32 registers per block;
        // integer addition is exact, so this matches the scalar column loop
        // bit for bit while reading each activation once per block.
        const LANES: usize = 4;
        let mut j = 0;
        while j + LANES <= n {
            let mut acc = [0i32; LANES];
            for i in 0..k {
                let xv = xq.values[i] as i32;
                let wrow = &q.values[i * n + j..i * n + j + LANES];
                acc[0] += xv * wrow[0] as i32;
                acc[1] += xv * wrow[1] as i32;
                acc[2] += xv * wrow[2] as i32;
                acc[3] += xv * wrow[3] as i32;
            }
            for (lane, &a) in acc.iter().enumerate() {
                output[j + lane] = a as f32 * xq.scale * q.scale;
            }
            j += LANES;
        }
        while j < n {
            let mut acc: i32 = 0;
            for i in 0..k {
                acc += xq.values[i] as i32 * q.values[i * n + j] as i32;
            }
            output[j] = acc as f32 * xq.scale * q.scale;
            j += 1;
        }
        GemvResult {
            output,
            cycles: self.gemv_cycles(k, n),
            passes: self.passes_for(k, n),
            macs: (k * n) as u64,
        }
    }

    /// Functional GEMV against a subset of weight rows (used after pruning:
    /// only the non-pruned rows are read from DRAM and computed).
    ///
    /// `row_indices` selects which reduction indices participate; `x_packed`
    /// must contain the activation values for exactly those indices, in the
    /// same order.
    ///
    /// # Panics
    ///
    /// Panics if no weights are resident, if the two slices differ in length,
    /// or if an index is out of range.
    pub fn gemv_pruned(&self, x_packed: &[f32], row_indices: &[usize]) -> GemvResult {
        let (q, k, n) = self
            .weights
            .as_ref()
            // lint:allow(no-unwrap): documented panic contract (see # Panics)
            .expect("no weights resident in CIM macro");
        assert_eq!(
            x_packed.len(),
            row_indices.len(),
            "packed activations and indices must align"
        );
        assert!(
            row_indices.iter().all(|&i| i < *k),
            "row index out of range"
        );
        let xq = quantize_int8(x_packed);
        let n = *n;
        let mut output = vec![0.0f32; n];
        // Same 4-column register blocking as the dense path, walking only
        // the selected rows.
        const LANES: usize = 4;
        let mut j = 0;
        while j + LANES <= n {
            let mut acc = [0i32; LANES];
            for (p, &i) in row_indices.iter().enumerate() {
                let xv = xq.values[p] as i32;
                let wrow = &q.values[i * n + j..i * n + j + LANES];
                acc[0] += xv * wrow[0] as i32;
                acc[1] += xv * wrow[1] as i32;
                acc[2] += xv * wrow[2] as i32;
                acc[3] += xv * wrow[3] as i32;
            }
            for (lane, &a) in acc.iter().enumerate() {
                output[j + lane] = a as f32 * xq.scale * q.scale;
            }
            j += LANES;
        }
        while j < n {
            let mut acc: i32 = 0;
            for (p, &i) in row_indices.iter().enumerate() {
                acc += xq.values[p] as i32 * q.values[i * n + j] as i32;
            }
            output[j] = acc as f32 * xq.scale * q.scale;
            j += 1;
        }
        GemvResult {
            output,
            cycles: self.gemv_cycles(row_indices.len(), n),
            passes: self.passes_for(row_indices.len().max(1), n),
            macs: (row_indices.len() * n) as u64,
        }
    }
}

impl Default for CimMacro {
    fn default() -> Self {
        Self::new(CimGeometry::paper_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systolic::SystolicArray;
    use edgemm_arch::SystolicGeometry;
    use proptest::prelude::*;

    fn reference_gemv(x: &[f32], w: &[f32], k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f64; n];
        for j in 0..n {
            for i in 0..k {
                out[j] += x[i] as f64 * w[i * n + j] as f64;
            }
        }
        out.into_iter().map(|v| v as f32).collect()
    }

    /// The straight (pre-unrolling) column loop over the resident quantized
    /// weights — the bit-exact oracle for the blocked kernel.
    fn scalar_quantized_gemv(cim: &CimMacro, x: &[f32]) -> Vec<f32> {
        let (q, k, n) = cim.weights.as_ref().expect("weights resident");
        let xq = quantize_int8(x);
        let mut output = vec![0.0f32; *n];
        for (j, out) in output.iter_mut().enumerate() {
            let mut acc: i32 = 0;
            for i in 0..*k {
                acc += xq.values[i] as i32 * q.values[i * *n + j] as i32;
            }
            *out = acc as f32 * xq.scale * q.scale;
        }
        output
    }

    #[test]
    fn unrolled_gemv_is_bit_identical_on_awkward_shapes() {
        // Odd columns, sub-lane widths, single column, single row.
        for &(k, n) in &[(5usize, 7usize), (1, 13), (9, 1), (1, 1), (3, 4), (16, 6)] {
            let x: Vec<f32> = (0..k).map(|i| (i as f32 * 0.7).sin()).collect();
            let w: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.3).cos()).collect();
            let mut cim = CimMacro::default();
            cim.load_weights(&w, k, n);
            assert_eq!(
                cim.gemv(&x).output,
                scalar_quantized_gemv(&cim, &x),
                "shape {k}x{n}"
            );
        }
    }

    /// Scalar replica of the pruned column loop (same resident
    /// quantization, only the selected rows participate).
    fn scalar_pruned_gemv(cim: &CimMacro, x_packed: &[f32], rows: &[usize]) -> Vec<f32> {
        let (q, _, n) = cim.weights.as_ref().expect("weights resident");
        let xq = quantize_int8(x_packed);
        let mut output = vec![0.0f32; *n];
        for (j, out) in output.iter_mut().enumerate() {
            let mut acc: i32 = 0;
            for (p, &i) in rows.iter().enumerate() {
                acc += xq.values[p] as i32 * q.values[i * *n + j] as i32;
            }
            *out = acc as f32 * xq.scale * q.scale;
        }
        output
    }

    #[test]
    fn unrolled_pruned_gemv_is_bit_identical() {
        for &(k, n) in &[(12usize, 7usize), (9, 3), (5, 1), (8, 8)] {
            let x: Vec<f32> = (0..k).map(|i| (i as f32 * 0.7).sin()).collect();
            let w: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.3).cos()).collect();
            let mut cim = CimMacro::default();
            cim.load_weights(&w, k, n);
            let rows: Vec<usize> = (0..k).step_by(3).collect();
            let packed: Vec<f32> = rows.iter().map(|&i| x[i]).collect();
            assert_eq!(
                cim.gemv_pruned(&packed, &rows).output,
                scalar_pruned_gemv(&cim, &packed, &rows),
                "shape {k}x{n}"
            );
        }
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
    fn gemv_matches_reference_within_quantization_error() {
        let k = 48;
        let n = 20;
        let x: Vec<f32> = (0..k).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect();
        let w: Vec<f32> = (0..k * n)
            .map(|i| ((i * 11 % 17) as f32 - 8.0) * 0.05)
            .collect();
        let mut cim = CimMacro::default();
        cim.load_weights(&w, k, n);
        let got = cim.gemv(&x);
        let want = reference_gemv(&x, &w, k, n);
        let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
        for (g, r) in got.output.iter().zip(&want) {
            assert!((g - r).abs() / scale < 0.05, "got {g}, want {r}");
        }
    }

    #[test]
    fn pruned_gemv_with_all_rows_equals_dense() {
        let k = 32;
        let n = 8;
        let x: Vec<f32> = (0..k).map(|i| (i as f32 * 0.37).sin()).collect();
        let w: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut cim = CimMacro::default();
        cim.load_weights(&w, k, n);
        let dense = cim.gemv(&x);
        let all_rows: Vec<usize> = (0..k).collect();
        let pruned = cim.gemv_pruned(&x, &all_rows);
        for (a, b) in dense.output.iter().zip(&pruned.output) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(dense.cycles, pruned.cycles);
    }

    #[test]
    fn pruning_reduces_cycles_proportionally() {
        let cim = CimMacro::default();
        let dense = cim.gemv_cycles(1024, 256);
        let half = cim.gemv_cycles(512, 256);
        let ratio = dense.ratio(half);
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn cim_beats_systolic_on_gemv_cycles() {
        // The headline motivation: for GEMV the CIM macro needs fewer cycles
        // than the systolic array of a comparable core.
        let cim = CimMacro::default();
        let sa = SystolicArray::new(SystolicGeometry::paper_default());
        let k = 2048;
        let n = 2048;
        assert!(cim.gemv_cycles(k, n) < sa.gemv_cycles(k, n));
    }

    #[test]
    fn systolic_beats_cim_on_gemm_cycles() {
        // ... and the reverse for GEMM, because of the bit-serial factor W.
        let cim = CimMacro::default();
        let sa = SystolicArray::new(SystolicGeometry::paper_default());
        let m = 256;
        let k = 768;
        let n = 768;
        assert!(sa.gemm_cycles(m, k, n) < cim.gemm_cycles(m, k, n));
    }

    #[test]
    fn capacity_and_passes() {
        let cim = CimMacro::default();
        let cap = cim.capacity();
        assert_eq!(cim.passes_for(1, 1), 1);
        assert_eq!(cim.passes_for(cap, 1), 1);
        assert_eq!(cim.passes_for(cap + 1, 1), 2);
    }

    #[test]
    #[should_panic(expected = "no weights resident")]
    fn gemv_without_weights_panics() {
        CimMacro::default().gemv(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "activation length mismatch")]
    fn gemv_wrong_length_panics() {
        let mut cim = CimMacro::default();
        cim.load_weights(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        cim.gemv(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn zero_dims_are_free() {
        let cim = CimMacro::default();
        assert_eq!(cim.gemv_cycles(0, 128), Cycles::ZERO);
        assert_eq!(cim.gemv_cycles(128, 0), Cycles::ZERO);
    }

    proptest! {
        /// The blocked kernel equals the scalar column loop exactly on
        /// random shapes.
        #[test]
        fn unrolled_gemv_bit_identical_random(
            k in 1usize..24,
            n in 1usize..24,
            seed in 0u64..1000,
        ) {
            let f = |i: usize, s: u64| {
                ((i as u64).wrapping_mul(s + 3) % 29) as f32 * 0.0625 - 0.875
            };
            let x: Vec<f32> = (0..k).map(|i| f(i, seed)).collect();
            let w: Vec<f32> = (0..k * n).map(|i| f(i, seed + 17)).collect();
            let mut cim = CimMacro::default();
            cim.load_weights(&w, k, n);
            prop_assert_eq!(cim.gemv(&x).output, scalar_quantized_gemv(&cim, &x));
        }

        /// GEMV cycle counts are monotonic in both dimensions.
        #[test]
        fn gemv_cycles_monotonic(k in 1usize..4096, n in 1usize..4096) {
            let cim = CimMacro::default();
            prop_assert!(cim.gemv_cycles(k + 1, n) >= cim.gemv_cycles(k, n));
            prop_assert!(cim.gemv_cycles(k, n + 1) >= cim.gemv_cycles(k, n));
        }

        /// Pruned GEMV never takes more cycles than the dense one.
        #[test]
        fn pruned_never_slower(k in 2usize..512, keep in 1usize..512, n in 1usize..256) {
            let keep = keep.min(k);
            let cim = CimMacro::default();
            prop_assert!(cim.gemv_cycles(keep, n) <= cim.gemv_cycles(k, n));
        }
    }
}
