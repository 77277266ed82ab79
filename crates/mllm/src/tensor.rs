//! Minimal dense tensor helpers used by the functional experiments.
//!
//! The accuracy-side experiments (cosine similarity of pruned vs unpruned
//! FFN outputs, Fig. 12b) need real arithmetic, not just operator shapes.
//! A tiny row-major [`Matrix`] plus free [`gemm_from_fn`]/[`gemv`]
//! functions keep those experiments dependency-free.
//!
//! The kernels stream the weight matrix row by row, as EdgeMM's hardware
//! does: a pruned (zero) input's weight row is never read, and a kept row
//! is read contiguously. The one GEMM, [`gemm_from_fn`], generates the
//! weights a block of rows at a time and folds each block into every input
//! row before moving on, so the weights stream once per call whatever the
//! number of inputs, as a stream batch shares one weight fetch (Fig. 9c),
//! and the whole matrix is never held. The result is bit-identical to the
//! scalar loop.

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
    /// Panics if either dimension is zero or `rows * cols` overflows
    /// `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; element_count(rows, cols)],
        }
    }

    /// Create a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero, `rows * cols` overflows `usize`, or
    /// `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            element_count(rows, cols),
            "data length mismatch"
        );
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

/// `rows * cols` of a matrix with no zero dimension, checked: an unchecked
/// product wraps in release builds and would let a matrix claim more
/// elements than its buffer holds.
fn element_count(rows: usize, cols: usize) -> usize {
    assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
    rows.checked_mul(cols)
        .unwrap_or_else(|| panic!("a {rows} x {cols} matrix has more elements than usize holds"))
}

/// Kept weight rows folded into the outputs per pass of [`accumulate_rows`].
const GROUP: usize = 4;

/// Weight rows [`gemm_from_fn`] generates and folds into every input row
/// per pass. A block of Fig. 12's 5,632-column matrix is 704 KiB, so
/// it stays in a 2 MiB L2 cache while every input row reads it. On a 2-core
/// x86-64 VM, Fig. 12 ran as fast with 16 rows and ~7% slower with 64.
const K_BLOCK: usize = 32;

/// The row-streaming core of every kernel: `out += x · W`, where
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

/// GEMM `A (m x k) * B (k x cols) -> (m x cols)` with `B[r][c] =
/// weight(r, c)`, for a `B` that is never held whole: `B` is generated 32
/// rows at a time into one reused buffer, and each block is folded into
/// every row of `A` before the next is generated, skipping the rows whose
/// `A` entry is zero. `weight` is called exactly once per element, in
/// row-major order, and the result is bit-identical to the scalar loop
/// over a materialised `B`.
///
/// # Panics
///
/// Panics if `cols` is zero.
pub fn gemm_from_fn(
    a: &Matrix,
    cols: usize,
    mut weight: impl FnMut(usize, usize) -> f32,
) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), cols);
    let mut block = Vec::with_capacity(K_BLOCK.min(a.cols) * cols);
    for k0 in (0..a.cols).step_by(K_BLOCK) {
        let k1 = (k0 + K_BLOCK).min(a.cols);
        block.clear();
        for r in k0..k1 {
            block.extend((0..cols).map(|c| weight(r, c)));
        }
        // Output rows persist across blocks and blocks ascend, so each
        // element still adds its nonzero products in ascending `k`. A group
        // of `GROUP` cut short at a block edge is added one row at a time,
        // and `((((o + p0) + p1) + p2) + p3)` is exactly the grouped
        // expression, so the block edges do not move a bit.
        let rows = a
            .data
            .chunks_exact(a.cols)
            .zip(out.data.chunks_exact_mut(cols));
        for (arow, orow) in rows {
            accumulate_rows(&arow[k0..k1], &block, orow);
        }
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

    /// [`gemm_from_fn`] over the weights of a materialised `b`.
    fn gemm_over(a: &Matrix, b: &Matrix) -> Matrix {
        gemm_from_fn(a, b.cols, |r, c| b.get(r, c))
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
            let (streamed, scalar) = (gemm_over(&a, &b), gemm_scalar(&a, &b));
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
        assert_eq!(bits(&gemm_over(&a, &b).data), bits(&out));
        let zeros = [0.0; 16];
        assert_eq!(bits(&gemv(&zeros, &b)), bits(&[0.0; 6]), "all-zero input");
    }

    #[test]
    fn blocked_gemms_are_bit_identical_across_block_edges() {
        // `k` below, at and past one block, and several blocks plus a
        // remainder, with zero runs at the start and across the first edge.
        // The sprinkled zeros leave a group of 4 cut short at block edges;
        // `cut` counts the rows of A where that happens at the first one.
        let held = |row: &[f32]| row.iter().filter(|v| !is_zero_f32(**v)).count() % GROUP;
        let mut cut = 0;
        for k in [
            K_BLOCK - 1,
            K_BLOCK,
            K_BLOCK + 1,
            2 * K_BLOCK + 2,
            3 * K_BLOCK + 5,
        ] {
            for (zeros, seed) in [
                (0..0, 3),
                (0..1, 5),
                (2..5, 11),
                (K_BLOCK - 2..K_BLOCK + 1, 13),
            ] {
                let a = fill(5, k, seed, zeros.clone());
                let b = fill(k, 7, seed + 1, 0..0);
                assert_eq!(
                    bits(&gemm_over(&a, &b).data),
                    bits(&gemm_scalar(&a, &b).data),
                    "k={k} zeros={zeros:?}"
                );
                cut += a
                    .data
                    .chunks_exact(k)
                    .filter(|row| k > K_BLOCK && held(&row[..K_BLOCK]) > 0)
                    .count();
            }
        }
        assert!(
            cut > 20,
            "only {cut} rows cut a group at the first block edge"
        );
    }

    #[test]
    fn blocked_gemms_never_read_rows_that_every_input_skips() {
        // Columns K_BLOCK-3 to K_BLOCK+4 of every row of A are zero, so their
        // weight rows, ∞ and NaN here, straddle the first block edge and
        // must never be read.
        let (k, zeros) = (2 * K_BLOCK + 3, K_BLOCK - 3..K_BLOCK + 5);
        let a = fill(6, k, 41, zeros.clone());
        let b = Matrix::from_fn(k, 9, |r, c| match zeros.contains(&r) {
            true => [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][c % 3],
            false => 0.1 * ((r * 9 + c) % 31) as f32 - 1.45,
        });
        let out = gemm_over(&a, &b);
        assert!(out.data.iter().all(|v| v.is_finite()));
        assert_eq!(bits(&out.data), bits(&gemm_scalar(&a, &b).data));
    }

    #[test]
    fn gemm_from_fn_generates_each_weight_once_in_row_major_order() {
        let (k, n) = (3 * K_BLOCK + 5, 6);
        let a = fill(4, k, 19, 0..0);
        let mut calls = Vec::new();
        gemm_from_fn(&a, n, |r, c| {
            calls.push((r, c));
            1.0
        });
        let row_major: Vec<_> = (0..k).flat_map(|r| (0..n).map(move |c| (r, c))).collect();
        assert_eq!(calls, row_major);
    }

    #[test]
    fn identity_gemm() {
        let a = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let out = gemm_over(&a, &b);
        assert_eq!(out, b);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let out = gemm_over(&a, &b);
        assert_eq!(out.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemv_matches_gemm_row() {
        let x = vec![1.0, -2.0, 0.5];
        let b = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let v = gemv(&x, &b);
        let a = Matrix::from_vec(1, 3, x.clone());
        let m = gemm_over(&a, &b);
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
    #[should_panic(expected = "data length mismatch")]
    fn bad_from_vec_panics() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "more elements than usize holds")]
    fn overflowing_zeros_panics() {
        // 2^(w-1) * 2 wraps to 0 in an unchecked product.
        Matrix::zeros(usize::MAX / 2 + 1, 2);
    }

    #[test]
    #[should_panic(expected = "more elements than usize holds")]
    fn overflowing_from_vec_panics() {
        // A wrapped product would accept the empty buffer.
        Matrix::from_vec(usize::MAX / 2 + 1, 2, Vec::new());
    }

    proptest! {
        /// The blocked GEMM equals the scalar loop bit for bit on random
        /// shapes: up to three full blocks plus a remainder, groups cut at
        /// any block edge, and a run of zero inputs in every row of `A` (at
        /// times all of them).
        #[test]
        fn unrolled_gemm_bit_identical_random(
            m in 1usize..13,
            k in 1usize..3 * K_BLOCK + 6,
            n in 1usize..12,
            zero_from in 0usize..3 * K_BLOCK + 6,
            zero_len in 0usize..3 * K_BLOCK + 6,
            seed in 0u64..1000,
        ) {
            let a = fill(m, k, seed, zero_from..zero_from + zero_len);
            let b = fill(k, n, seed.wrapping_add(1), 0..0);
            prop_assert_eq!(bits(&gemm_over(&a, &b).data), bits(&gemm_scalar(&a, &b).data));
        }

        /// The row-streaming GEMV equals the scalar loop bit for bit on
        /// the same kind of input.
        #[test]
        fn unrolled_gemv_bit_identical_random(
            k in 1usize..3 * K_BLOCK + 6,
            n in 1usize..24,
            zero_from in 0usize..3 * K_BLOCK + 6,
            zero_len in 0usize..3 * K_BLOCK + 6,
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
