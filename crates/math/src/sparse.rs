//! Compressed-row view of a dense matrix.

use crate::{Matrix, Vector};

/// The nonzero entries of a [`Matrix`], row by row (compressed sparse
/// row: row offsets, column indices, values).
///
/// Built once from a dense matrix whose rows are then multiplied many
/// times — the QP constraint matrix `G` (a few percent nonzero: every
/// rate-bound row has one or two entries) and the least-squares matrix
/// `C`.  [`dot`](SparseRows::dot) accumulates with a single accumulator in
/// ascending column order, exactly like [`kernel::dot`](crate::kernel::dot)
/// on the dense row, and only leaves out the terms whose matrix entry is
/// an exact zero.  For finite `x` that is bit-identical to the dense dot
/// (see the [`kernel`](crate::kernel) module docs), so the view replaces
/// the dense row products without moving a single rounding.
///
/// # Example
///
/// ```
/// use eucon_math::{Matrix, SparseRows};
///
/// let g = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, -2.0, 0.5]]);
/// let rows = SparseRows::from_matrix(&g);
/// assert_eq!(rows.nnz(), 3);
/// assert_eq!(rows.dot(1, &[4.0, 1.0, 2.0]), -1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    cols: usize,
    /// Row `i` owns entries `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseRows {
    /// Collects the entries of `m` that are not exactly zero (`±0.0`).
    pub fn from_matrix(m: &Matrix) -> Self {
        let nnz = m.as_slice().iter().filter(|&&v| v != 0.0).count();
        let mut offsets = Vec::with_capacity(m.rows() + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        offsets.push(0);
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            offsets.push(values.len());
        }
        SparseRows {
            cols: m.cols(),
            offsets,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of columns of the matrix the view was built from.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `i`: their columns, ascending, and
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.offsets[i]..self.offsets[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// The view of the transpose: the same stored entries, each row's in
    /// ascending column order — what [`from_matrix`](SparseRows::from_matrix)
    /// builds from the dense transpose, without forming it.
    pub fn transpose(&self) -> SparseRows {
        let mut offsets = vec![0; self.cols + 1];
        for &j in &self.col_idx {
            offsets[j + 1] += 1;
        }
        for j in 0..self.cols {
            offsets[j + 1] += offsets[j];
        }
        let mut next = offsets[..self.cols].to_vec();
        let mut col_idx = vec![0; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for i in 0..self.rows() {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                col_idx[next[j]] = i;
                values[next[j]] = v;
                next[j] += 1;
            }
        }
        SparseRows {
            cols: self.rows(),
            offsets,
            col_idx,
            values,
        }
    }

    /// The Gram matrix `AᵀA` of the viewed `A`, accumulated row by row.
    ///
    /// Each entry sums its products `a_li·a_lj` in ascending `l`, as the
    /// dense `&a.transpose() * &a` does; the terms it leaves out have an
    /// exact zero factor, and a sum that starts at `+0.0` and only adds
    /// finite products is never `−0.0`, so adding `±0.0` to it changes no
    /// bit.  For finite `A` the result is bit-identical to the dense
    /// product, at `Σ_l nnz(row l)²` multiplications instead of `cols²·rows`.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for l in 0..self.rows() {
            let (cols, vals) = self.row(l);
            for (&i, &a) in cols.iter().zip(vals) {
                for (&j, &b) in cols.iter().zip(vals) {
                    out[(i, j)] += a * b;
                }
            }
        }
        out
    }

    /// `row_i · x`, accumulated left to right over the stored entries.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()` or `x.len() != self.cols()`.
    #[inline]
    pub fn dot(&self, i: usize, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.cols, "dot requires one entry per column");
        self.span_dot(self.offsets[i], self.offsets[i + 1], x)
    }

    /// The first row `i` with `!skip[i]` whose violation `row_i · x − h[i]`
    /// is the largest and exceeds `tol`, or `None` when no row's does.
    /// Only the first `h.len()` rows are scanned: a prefix of the rows is
    /// a problem of its own.  Each violation has the bits of
    /// `self.dot(i, x) − h[i]`; the lengths are checked once per call
    /// rather than once per row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`, `h` is longer than the row
    /// count, or `skip` is not as long as `h`.
    pub fn most_violated(&self, x: &[f64], h: &[f64], skip: &[bool], tol: f64) -> Option<usize> {
        assert_eq!(
            x.len(),
            self.cols,
            "most_violated requires one entry per column"
        );
        assert!(
            h.len() <= self.rows() && skip.len() == h.len(),
            "most_violated requires h and skip with one entry per scanned row"
        );
        let mut worst = tol;
        let mut at = None;
        let rows = self.offsets.windows(2).zip(h).zip(skip);
        for (i, ((span, &hi), &skip)) in rows.enumerate() {
            if skip {
                continue;
            }
            let viol = self.span_dot(span[0], span[1], x) - hi;
            if viol > worst {
                worst = viol;
                at = Some(i);
            }
        }
        at
    }

    /// The stored entries `start..end` dotted with `x`, left to right.
    #[inline]
    fn span_dot(&self, start: usize, end: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&j, &v) in self.col_idx[start..end]
            .iter()
            .zip(&self.values[start..end])
        {
            acc += v * x[j];
        }
        acc
    }

    /// The dense matrix the view was built from (every left-out entry
    /// reads `+0.0`), for analyses that want the whole matrix.
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.cols);
        for i in 0..self.rows() {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Writes `self · x` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &Vector, out: &mut Vector) {
        assert_eq!(
            out.len(),
            self.rows(),
            "mul_vec_into: output length {} does not match {} rows",
            out.len(),
            self.rows()
        );
        let xs = x.as_slice();
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            *o = self.dot(i, xs);
        }
    }

    /// Accumulates `self · x` onto `out` (`out[i] += row_i · x`, a row
    /// without stored entries adding `+0.0`) without allocating — the
    /// bits of [`Matrix::mul_vec_acc`] on the dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_acc(&self, x: &Vector, out: &mut Vector) {
        assert_eq!(
            out.len(),
            self.rows(),
            "mul_vec_acc: output length {} does not match {} rows",
            out.len(),
            self.rows()
        );
        let xs = x.as_slice();
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            *o += self.dot(i, xs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel;

    #[test]
    fn stores_only_nonzeros_and_keeps_the_shape() {
        let m = Matrix::from_rows(&[&[0.0, 2.0, -0.0], &[0.0, 0.0, 0.0], &[1.0, 0.0, 3.0]]);
        let rows = SparseRows::from_matrix(&m);
        assert_eq!((rows.rows(), rows.cols(), rows.nnz()), (3, 3, 3));
        let x = [1.0, 10.0, 100.0];
        assert_eq!(rows.dot(0, &x), 20.0);
        assert_eq!(rows.dot(1, &x).to_bits(), 0.0f64.to_bits());
        assert_eq!(rows.dot(2, &x), 301.0);
    }

    #[test]
    fn empty_matrices_are_fine() {
        let rows = SparseRows::from_matrix(&Matrix::zeros(0, 4));
        assert_eq!((rows.rows(), rows.cols(), rows.nnz()), (0, 4, 0));
        rows.mul_vec_into(&Vector::zeros(4), &mut Vector::zeros(0));
    }

    #[test]
    #[should_panic(expected = "one entry per column")]
    fn dot_checks_the_operand_length() {
        let rows = SparseRows::from_matrix(&Matrix::identity(2));
        let _ = rows.dot(0, &[1.0]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Finite operands that stress the zero-skip identity: signed
        /// zeros, subnormals, magnitudes whose products underflow to
        /// `±0.0`, cancelling pairs, and ordinary values.
        fn entry() -> impl Strategy<Value = f64> {
            (0..12u64, -4.0..4.0f64).prop_map(|(kind, v)| match kind {
                0..=3 => 0.0,
                4 => -0.0,
                5 => f64::from_bits(1 + (v.abs() * 1e3) as u64).copysign(v),
                6 => v * 1e-200,
                7 => v * 1e-300,
                8 => v.signum() * 1e16,
                _ => v,
            })
        }

        const MAX_ROWS: usize = 5;
        const MAX_COLS: usize = 13;

        /// The leading `r × c` block of `data`; `fill` makes a row all
        /// zero (0), fully dense (1), a copy of the row above (3) or
        /// leaves it mixed.
        fn matrix(r: usize, c: usize, data: &[f64], fill: &[u64]) -> Matrix {
            let mut m = Matrix::from_fn(r, c, |i, j| {
                let v = data[i * MAX_COLS + j];
                match fill[i] {
                    0 => 0.0,
                    1 if v == 0.0 => 1.5,
                    _ => v,
                }
            });
            for i in (1..r).filter(|&i| fill[i] == 3) {
                for j in 0..c {
                    m[(i, j)] = m[(i - 1, j)];
                }
            }
            m
        }

        proptest! {
            #[test]
            fn dot_and_most_violated_are_bit_identical_to_the_dense_kernel(
                r in 1..MAX_ROWS + 1,
                c in 1..MAX_COLS + 1,
                data in proptest::collection::vec(entry(), MAX_ROWS * MAX_COLS),
                fill in proptest::collection::vec(0..4u64, MAX_ROWS),
                x in proptest::collection::vec(entry(), MAX_COLS),
                h in proptest::collection::vec(-2.0..2.0f64, MAX_ROWS),
                skip in proptest::collection::vec(0..4u64, MAX_ROWS),
                tol in -1.0..1.0f64,
            ) {
                let m = matrix(r, c, &data, &fill);
                let rows = SparseRows::from_matrix(&m);
                // A copied row copies its bound too: an exact tie, which
                // the first copy must win (the controller's utilization
                // rows rely on it, see `eucon-control`'s prediction.rs).
                let mut h = h;
                for i in (1..r).filter(|&i| fill[i] == 3) {
                    h[i] = h[i - 1];
                }
                // The scan `most_violated` replaced, over the dense rows:
                // strict `>`, so the first of equal violations wins.
                let skip: Vec<bool> = skip[..r].iter().map(|&s| s == 0).collect();
                let (mut worst, mut expect) = (tol, None);
                for i in 0..r {
                    let dense = kernel::dot(m.row(i), &x[..c]);
                    prop_assert_eq!(rows.dot(i, &x[..c]).to_bits(), dense.to_bits(), "row {}", i);
                    if !skip[i] && dense - h[i] > worst {
                        worst = dense - h[i];
                        expect = Some(i);
                    }
                }
                prop_assert_eq!(rows.most_violated(&x[..c], &h[..r], &skip, tol), expect);
            }

            #[test]
            fn mul_vec_into_and_acc_are_bit_identical_to_the_dense_product(
                r in 1..MAX_ROWS + 1,
                c in 1..MAX_COLS + 1,
                data in proptest::collection::vec(entry(), MAX_ROWS * MAX_COLS),
                fill in proptest::collection::vec(0..3u64, MAX_ROWS),
                x in proptest::collection::vec(entry(), MAX_COLS),
            ) {
                let m = matrix(r, c, &data, &fill);
                let rows = SparseRows::from_matrix(&m);
                let x = Vector::from_slice(&x[..c]);
                let mut dense = Vector::zeros(r);
                let mut sparse = Vector::zeros(r);
                m.mul_vec_into(&x, &mut dense);
                rows.mul_vec_into(&x, &mut sparse);
                for i in 0..r {
                    prop_assert_eq!(sparse[i].to_bits(), dense[i].to_bits(), "row {}", i);
                }
                // Accumulating onto signed zeros and values: an empty row
                // still adds its `+0.0`, as the dense row does.
                let start = Vector::from_iter(x.iter().cycle().take(r).copied());
                let (mut dense, mut sparse) = (start.clone(), start);
                m.mul_vec_acc(&x, &mut dense);
                rows.mul_vec_acc(&x, &mut sparse);
                for i in 0..r {
                    prop_assert_eq!(sparse[i].to_bits(), dense[i].to_bits(), "row {}", i);
                }
                // The dense copy holds every stored entry where it was.
                let back = rows.to_matrix();
                for (p, q) in back.as_slice().iter().zip(m.as_slice()) {
                    prop_assert_eq!(*p, *q);
                }
            }

            #[test]
            fn gram_from_sparse_rows_is_bit_identical_to_the_dense_product(
                r in 1..MAX_ROWS + 1,
                c in 1..MAX_COLS + 1,
                data in proptest::collection::vec(entry(), MAX_ROWS * MAX_COLS),
                fill in proptest::collection::vec(0..4u64, MAX_ROWS),
                empty in proptest::collection::vec(0..3u64, MAX_COLS),
            ) {
                // Signed zeros, underflowing products and cancelling
                // pairs come from `entry`; a third of the columns are
                // emptied (signed zeros only), so whole rows and columns
                // of the Gram matrix are sums of nothing.
                let mut m = matrix(r, c, &data, &fill);
                for j in (0..c).filter(|&j| empty[j] == 0) {
                    for i in 0..r {
                        m[(i, j)] = if (i + j) % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                let rows = SparseRows::from_matrix(&m);
                let dense = &m.transpose() * &m;
                let sparse = rows.gram();
                prop_assert_eq!((sparse.rows(), sparse.cols()), (c, c));
                for (k, (p, q)) in sparse.as_slice().iter().zip(dense.as_slice()).enumerate() {
                    prop_assert_eq!(p.to_bits(), q.to_bits(), "entry ({}, {})", k / c, k % c);
                }
                // The transpose's view, without the dense transpose.
                prop_assert_eq!(rows.transpose(), SparseRows::from_matrix(&m.transpose()));
            }
        }
    }
}
