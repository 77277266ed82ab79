//! Minimal dense tensor helpers used by the functional experiments.
//!
//! The accuracy-side experiments (cosine similarity of pruned vs unpruned
//! FFN outputs, Fig. 12b) need real arithmetic, not just operator shapes.
//! A tiny row-major [`Matrix`] plus free [`gemm`]/[`gemv`] functions keep
//! those experiments dependency-free; the cycle-accurate numerics live in
//! `edgemm-coproc`.
//!
//! Both kernels stream the weight matrix row by row, as EdgeMM's hardware
//! does: a pruned (zero) input's weight row is never read, and a kept row
//! is read contiguously. The result is bit-identical to the scalar loop.

use edgemm_core::float::is_zero_f32;

/// A dense row-major `rows x cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Create a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row out of range");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }
}

/// Kept weight rows folded into the outputs per pass of [`accumulate_rows`].
const GROUP: usize = 4;

/// The row-streaming core of [`gemm`] and [`gemv`]: `out += x · W`, where
/// `w` is a row-major `x.len() x out.len()` matrix.
///
/// Rows are read in ascending `k`; a row whose input is exactly zero is
/// never read. Kept rows are folded in groups of [`GROUP`] as
/// `o = o + x0*w0 + x1*w1 + …`, evaluated left to right (so each output is
/// loaded and stored once per group), then the leftover rows one at a time.
/// Each output element thus adds its nonzero products in ascending `k` with
/// the scalar loop's roundings — no fused multiply-add, no reassociation —
/// and the result is bit-identical to it. Skipping zero rows whole is part
/// of that: `0 · ∞` and `0 · NaN` are NaN, and adding a `+0` product would
/// turn a `-0.0` in `out` into `+0.0`.
fn accumulate_rows(x: &[f32], w: &[f32], out: &mut [f32]) {
    let n = out.len();
    let row = |k: usize| &w[k * n..][..n];
    let mut kept = [0usize; GROUP];
    let mut held = 0;
    for (k, &xk) in x.iter().enumerate() {
        if is_zero_f32(xk) {
            continue;
        }
        kept[held] = k;
        held += 1;
        if held == GROUP {
            held = 0;
            let [k0, k1, k2, k3] = kept;
            let (x0, x1, x2, x3) = (x[k0], x[k1], x[k2], x[k3]);
            let (w0, w1, w2, w3) = (row(k0), row(k1), row(k2), row(k3));
            for (j, o) in out.iter_mut().enumerate() {
                *o = *o + x0 * w0[j] + x1 * w1[j] + x2 * w2[j] + x3 * w3[j];
            }
        }
    }
    for &k in &kept[..held] {
        let xk = x[k];
        for (o, &wv) in out.iter_mut().zip(row(k)) {
            *o += xk * wv;
        }
    }
}

/// Dense GEMM: `A (m x k) * B (k x n) -> (m x n)`, streaming the rows of
/// `B` once per row of `A` and skipping those whose `A` entry is zero.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (k, n) = (a.cols(), b.cols());
    let mut out = Matrix::zeros(a.rows(), n);
    for (arow, orow) in a.data.chunks_exact(k).zip(out.data.chunks_exact_mut(n)) {
        accumulate_rows(arow, &b.data, orow);
    }
    out
}

/// Dense GEMV: `x (len k) * B (k x n) -> (len n)`, streaming the rows of
/// `B` whose input is nonzero.
///
/// # Panics
///
/// Panics if `x.len() != b.rows()`.
pub fn gemv(x: &[f32], b: &Matrix) -> Vec<f32> {
    assert_eq!(x.len(), b.rows(), "vector length must match matrix rows");
    let mut out = vec![0.0f32; b.cols()];
    accumulate_rows(x, &b.data, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The straight scalar loops: the bit-exact oracles of the kernels.
    fn gemm_scalar(a: &Matrix, b: &Matrix) -> Matrix {
        let rows = a.data.chunks_exact(a.cols).flat_map(|x| gemv_scalar(x, b));
        Matrix::from_vec(a.rows, b.cols, rows.collect())
    }

    fn gemv_scalar(x: &[f32], b: &Matrix) -> Vec<f32> {
        let n = b.cols();
        let mut out = vec![0.0f32; n];
        for (row, &xv) in b.data.chunks_exact(n).zip(x) {
            if is_zero_f32(xv) {
                continue;
            }
            for (o, &w) in out.iter_mut().zip(row) {
                *o += xv * w;
            }
        }
        out
    }

    /// Pseudo-random fill with exact zeros sprinkled in and in columns
    /// `zeros`. Values are not dyadic, so reordered or fused adds round
    /// differently and the equality tests catch them.
    fn fill(rows: usize, cols: usize, seed: u64, zeros: std::ops::Range<usize>) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let v = (r * cols + c) as u64 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
            if v % 5 == 0 || zeros.contains(&c) {
                0.0
            } else {
                (v % 23) as f32 * 0.1 - 1.15
            }
        })
    }

    /// Bit patterns: equality then tells `-0.0` from `0.0`.
    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn unrolled_gemm_is_bit_identical_on_awkward_shapes() {
        // Odd sizes, single row or column, fewer kept rows than one group.
        for (m, k, n) in [
            (3, 5, 7),
            (1, 9, 13),
            (7, 3, 1),
            (1, 1, 1),
            (2, 4, 3),
            (5, 7, 4),
            (4, 4, 8),
        ] {
            let (a, b) = (fill(m, k, 17, 0..0), fill(k, n, 91, 0..0));
            let (streamed, scalar) = (gemm(&a, &b), gemm_scalar(&a, &b));
            assert_eq!(bits(&streamed.data), bits(&scalar.data), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn unrolled_gemv_is_bit_identical_on_awkward_shapes() {
        for (k, n) in [(5, 7), (1, 13), (9, 1), (1, 1), (3, 4), (8, 6), (40, 6)] {
            let x = fill(1, k, 29, 0..0).data;
            let b = fill(k, n, 57, 0..0);
            assert_eq!(bits(&gemv(&x, &b)), bits(&gemv_scalar(&x, &b)), "{k}x{n}");
        }
    }

    #[test]
    fn zero_inputs_never_touch_their_weight_rows() {
        // 0 * inf and 0 * NaN are NaN, so multiplying through a zero input
        // would poison the outputs. Ten kept rows: two groups and two left
        // over, between zeros of both signs.
        let x = [
            0.0, 0.7, -1.3, -0.0, 2.1, 0.4, 0.0, -0.9, 1.1, -0.0, 0.6, -1.7, 0.0, 0.8, 1.9, -0.0,
        ];
        let b = Matrix::from_fn(16, 6, |r, c| match is_zero_f32(x[r]) {
            true => [f32::INFINITY, f32::NAN][c % 2],
            false => 0.1 * (r * 6 + c) as f32 - 4.0,
        });
        let out = gemv(&x, &b);
        assert!(out.iter().all(|v| v.is_finite()), "{out:?}");
        assert_eq!(bits(&out), bits(&gemv_scalar(&x, &b)));
        let a = Matrix::from_vec(1, 16, x.to_vec());
        assert_eq!(bits(&gemm(&a, &b).data), bits(&out));
        let zeros = [0.0; 16];
        assert_eq!(bits(&gemv(&zeros, &b)), bits(&[0.0; 6]), "all-zero input");
    }

    #[test]
    fn identity_gemm() {
        let a = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let out = gemm(&a, &b);
        assert_eq!(out, b);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let out = gemm(&a, &b);
        assert_eq!(out.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemv_matches_gemm_row() {
        let x = vec![1.0, -2.0, 0.5];
        let b = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let v = gemv(&x, &b);
        let a = Matrix::from_vec(1, 3, x.clone());
        let m = gemm(&a, &b);
        assert_eq!(v.as_slice(), m.as_slice());
    }

    #[test]
    fn accessors() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn mismatched_gemm_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        gemm(&a, &b);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn bad_from_vec_panics() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    proptest! {
        /// The row-streaming GEMM equals the scalar loop bit for bit on
        /// random shapes: up to ten full row groups, any remainder, and a
        /// run of zero inputs in every row of `A` (at times all of them).
        #[test]
        fn unrolled_gemm_bit_identical_random(
            m in 1usize..12,
            k in 1usize..41,
            n in 1usize..12,
            zero_from in 0usize..41,
            zero_len in 0usize..41,
            seed in 0u64..1000,
        ) {
            let a = fill(m, k, seed, zero_from..zero_from + zero_len);
            let b = fill(k, n, seed.wrapping_add(1), 0..0);
            prop_assert_eq!(bits(&gemm(&a, &b).data), bits(&gemm_scalar(&a, &b).data));
        }

        /// The row-streaming GEMV equals the scalar loop bit for bit on
        /// the same kind of input.
        #[test]
        fn unrolled_gemv_bit_identical_random(
            k in 1usize..41,
            n in 1usize..24,
            zero_from in 0usize..41,
            zero_len in 0usize..41,
            seed in 0u64..1000,
        ) {
            let x = fill(1, k, seed, zero_from..zero_from + zero_len).data;
            let b = fill(k, n, seed.wrapping_add(2), 0..0);
            prop_assert_eq!(bits(&gemv(&x, &b)), bits(&gemv_scalar(&x, &b)));
        }

        /// GEMV is linear: gemv(a*x + b*y) == a*gemv(x) + b*gemv(y).
        #[test]
        fn gemv_is_linear(
            k in 1usize..8,
            n in 1usize..8,
            scale_a in -2.0f32..2.0,
            scale_b in -2.0f32..2.0,
            seed in 0u64..100,
        ) {
            let f = |i: usize| ((i as u64).wrapping_mul(seed + 1) % 17) as f32 * 0.25 - 2.0;
            let x: Vec<f32> = (0..k).map(f).collect();
            let y: Vec<f32> = (0..k).map(|i| f(i + 100)).collect();
            let b = Matrix::from_fn(k, n, |r, c| f(r * n + c + 500));
            let combined: Vec<f32> = x.iter().zip(&y).map(|(a, b2)| scale_a * a + scale_b * b2).collect();
            let lhs = gemv(&combined, &b);
            let gx = gemv(&x, &b);
            let gy = gemv(&y, &b);
            for j in 0..n {
                let rhs = scale_a * gx[j] + scale_b * gy[j];
                prop_assert!((lhs[j] - rhs).abs() < 1e-3 * (1.0 + rhs.abs()));
            }
        }
    }
}
