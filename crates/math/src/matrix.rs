//! Dense row-major matrix type.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::{Lu, MathError, Qr, Vector};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse container of the EUCON reproduction: the
/// subtask-allocation matrix `F`, the MPC prediction matrices, the QP
/// constraint matrices and the closed-loop system matrix are all `Matrix`
/// values.  The type favours clarity over raw speed — every problem in this
/// repository is tiny by linear-algebra standards.
///
/// # Example
///
/// ```
/// use eucon_math::Matrix;
///
/// let f = Matrix::from_rows(&[&[35.0, 35.0, 0.0], &[0.0, 35.0, 45.0]]);
/// assert_eq!(f.rows(), 2);
/// assert_eq!(f.cols(), 3);
/// assert_eq!(f[(0, 1)], 35.0);
/// ```
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

// Not derived, for the same reason as `Vector`'s: `clone_from` must reuse
// the destination's allocation, so a long-lived scratch matrix refilled
// by it does not allocate.
impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Example
    ///
    /// ```
    /// let z = eucon_math::Matrix::zeros(2, 3);
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reserves room for a `rows × cols` shape without changing the
    /// matrix, so later [`reset_zeros`](Matrix::reset_zeros) /
    /// [`clone_from`](Clone::clone_from) calls up to that size do not
    /// allocate.  Reserved memory is not touched until used.
    pub fn reserve(&mut self, rows: usize, cols: usize) {
        self.data
            .reserve((rows * cols).saturating_sub(self.data.len()));
    }

    /// Makes `self` a `rows × cols` matrix of zeros, reusing its
    /// allocation when the new shape fits.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Example
    ///
    /// ```
    /// let i = eucon_math::Matrix::identity(3);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    ///
    /// # Example
    ///
    /// ```
    /// let m = eucon_math::Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// assert_eq!(m[(1, 0)], 3.0);
    /// ```
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(
            rows.iter().all(|row| row.len() == c),
            "all rows must have the same length"
        );
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    ///
    /// # Example
    ///
    /// ```
    /// let m = eucon_math::Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
    /// assert_eq!(m[(1, 1)], 2.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    ///
    /// # Example
    ///
    /// ```
    /// let g = eucon_math::Matrix::from_diag(&[2.0, 0.5]);
    /// assert_eq!(g[(0, 0)], 2.0);
    /// assert_eq!(g[(0, 1)], 0.0);
    /// ```
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
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

    /// Returns `true` when the matrix has the same number of rows and columns.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row index {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vector {
        assert!(
            j < self.cols,
            "column index {j} out of bounds for {} cols",
            self.cols
        );
        Vector::from_iter((0..self.rows).map(|i| self[(i, j)]))
    }

    /// Returns the main diagonal as a [`Vector`].
    pub fn diag(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_iter((0..n).map(|i| self[(i, i)]))
    }

    /// Returns the transpose.
    ///
    /// # Example
    ///
    /// ```
    /// let m = eucon_math::Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
    /// let t = m.transpose();
    /// assert_eq!(t.rows(), 3);
    /// assert_eq!(t[(2, 0)], 3.0);
    /// ```
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Sum of the diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Returns a new matrix with `f` applied to every entry.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use eucon_math::{Matrix, Vector};
    /// let a = Matrix::identity(2);
    /// let x = Vector::from_slice(&[3.0, 4.0]);
    /// assert_eq!(a.mul_vec(&x).as_slice(), &[3.0, 4.0]);
    /// ```
    pub fn mul_vec(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.len(),
            self.cols,
            "mul_vec: vector length {} does not match {} columns",
            x.len(),
            self.cols
        );
        let x = x.as_slice();
        Vector::from_iter(
            (0..self.rows).map(|i| crate::kernel::dot(&self.data[i * self.cols..][..self.cols], x)),
        )
    }

    /// Writes `self · x` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &Vector, out: &mut Vector) {
        assert_eq!(
            x.len(),
            self.cols,
            "mul_vec_into: vector length {} does not match {} columns",
            x.len(),
            self.cols
        );
        assert_eq!(
            out.len(),
            self.rows,
            "mul_vec_into: output length {} does not match {} rows",
            out.len(),
            self.rows
        );
        let xs = x.as_slice();
        let out = out.as_mut_slice();
        for (i, o) in out.iter_mut().enumerate() {
            *o = crate::kernel::dot(&self.data[i * self.cols..][..self.cols], xs);
        }
    }

    /// Accumulates `self · x` onto `out` (i.e. `out += self · x`) without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_acc(&self, x: &Vector, out: &mut Vector) {
        assert_eq!(
            x.len(),
            self.cols,
            "mul_vec_acc: vector length {} does not match {} columns",
            x.len(),
            self.cols
        );
        assert_eq!(
            out.len(),
            self.rows,
            "mul_vec_acc: output length {} does not match {} rows",
            out.len(),
            self.rows
        );
        let xs = x.as_slice();
        let out = out.as_mut_slice();
        for (i, o) in out.iter_mut().enumerate() {
            *o += crate::kernel::dot(&self.data[i * self.cols..][..self.cols], xs);
        }
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`
    /// (half-open ranges).
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "invalid row range {r0}..{r1}");
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "invalid column range {c0}..{c1}"
        );
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Copies `block` into `self` with its upper-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block of size {}x{} does not fit at ({r0}, {c0}) in {}x{} matrix",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack requires equal column counts");
        let mut out = Matrix::zeros(self.rows + other.rows, self.cols);
        out.set_block(0, 0, self);
        out.set_block(self.rows, 0, other);
        out
    }

    /// Places `self` to the left of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack requires equal row counts");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        out.set_block(0, 0, self);
        out.set_block(0, self.cols, other);
        out
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Entry-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| crate::approx_eq(*a, *b, tol))
    }

    /// Solves `self * x = b` for square `self` via LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotSquare`] for non-square matrices,
    /// [`MathError::Singular`] for singular ones, and
    /// [`MathError::DimensionMismatch`] when `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector, MathError> {
        Lu::decompose(self)?.solve(b)
    }

    /// Computes the inverse of a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotSquare`] or [`MathError::Singular`].
    pub fn inverse(&self) -> Result<Matrix, MathError> {
        Lu::decompose(self)?.inverse()
    }

    /// Solves the (possibly overdetermined) least-squares problem
    /// `min ‖self·x − b‖₂` via Householder QR.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `b` has the wrong
    /// length, or [`MathError::Singular`] when the matrix is rank deficient.
    pub fn least_squares(&self, b: &Vector) -> Result<Vector, MathError> {
        Qr::decompose(self).solve_least_squares(b)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>10.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition requires equal shapes"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix subtraction requires equal shapes"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product requires inner dimensions to match ({}x{} * {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        // Cache-blocked i–l–j loop over column tiles of `rhs`.  For every
        // output entry the l terms still accumulate in increasing order and
        // exactly-zero lhs entries are still skipped, so the result is
        // bit-identical to the untiled triple loop (the property tests and
        // the golden closed-loop hashes both pin this).
        const TILE: usize = 64;
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let rc = rhs.cols;
        for jb in (0..rc).step_by(TILE) {
            let je = (jb + TILE).min(rc);
            for i in 0..self.rows {
                let lhs_row = &self.data[i * self.cols..][..self.cols];
                let out_row = &mut out.data[i * rc..][..rc];
                for (l, &a) in lhs_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let rhs_row = &rhs.data[l * rc..][..rc];
                    for (o, &r) in out_row[jb..je].iter_mut().zip(&rhs_row[jb..je]) {
                        *o += a * r;
                    }
                }
            }
        }
        out
    }
}

impl Mul<&Vector> for &Matrix {
    type Output = Vector;

    fn mul(self, rhs: &Vector) -> Vector {
        self.mul_vec(rhs)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 1)], 4.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.5, 3.0], &[0.0, 4.0, 5.5]]);
        let i = Matrix::identity(3);
        assert!((&a * &i).approx_eq(&a, 0.0));
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = Vector::from_slice(&[5.0, 6.0]);
        let y = a.mul_vec(&x);
        assert_eq!(y.as_slice(), &[17.0, 39.0]);
    }

    #[test]
    fn mul_vec_into_and_acc_match_mul_vec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[-1.0, 0.5]]);
        let x = Vector::from_slice(&[5.0, 6.0]);
        let expected = a.mul_vec(&x);

        let mut out = Vector::filled(3, 7.0); // stale contents must be overwritten
        a.mul_vec_into(&x, &mut out);
        assert_eq!(out.as_slice(), expected.as_slice());

        a.mul_vec_acc(&x, &mut out);
        let doubled = expected.scale(2.0);
        assert_eq!(out.as_slice(), doubled.as_slice());
    }

    #[test]
    #[should_panic(expected = "mul_vec_into")]
    fn mul_vec_into_checks_output_length() {
        let a = Matrix::identity(2);
        let x = Vector::zeros(2);
        let mut out = Vector::zeros(3);
        a.mul_vec_into(&x, &mut out);
    }

    #[test]
    fn add_sub_neg() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        let v = a.vstack(&b);
        assert_eq!(v.rows(), 2);
        assert_eq!(v[(1, 1)], 4.0);
        let h = a.hstack(&b);
        assert_eq!(h.cols(), 4);
        assert_eq!(h[(0, 3)], 4.0);
    }

    #[test]
    fn submatrix_and_set_block() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s, Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));

        let mut z = Matrix::zeros(3, 3);
        z.set_block(1, 1, &Matrix::identity(2));
        assert_eq!(z[(1, 1)], 1.0);
        assert_eq!(z[(2, 2)], 1.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-12);
        assert_eq!(m.norm_inf(), 7.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn diag_helpers() {
        let g = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(g.diag().as_slice(), &[2.0, 3.0]);
        assert_eq!(g[(0, 1)], 0.0);
        assert_eq!(g.trace(), 5.0);
    }

    #[test]
    fn debug_output_is_nonempty() {
        let repr = format!("{:?}", Matrix::zeros(1, 1));
        assert!(repr.contains("Matrix 1x1"));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }

    /// The untiled i–l–j triple loop the blocked `Mul` impl replaced.
    fn reference_mul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for l in 0..a.cols {
                let v = a[(i, l)];
                if v == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += v * b[(l, j)];
                }
            }
        }
        out
    }

    #[test]
    fn mul_vec_tail_lengths_match_naive() {
        // Columns 1..=9 cover every tail size of the unrolled row kernel.
        for cols in 1..=9usize {
            let a = Matrix::from_fn(3, cols, |i, j| 0.7 * i as f64 - 0.3 * j as f64 + 0.1);
            let x = Vector::from_iter((0..cols).map(|j| 1.0 - 0.25 * j as f64));
            let naive = Vector::from_iter((0..3).map(|i| {
                a.row(i)
                    .iter()
                    .zip(x.iter())
                    .map(|(p, q)| p * q)
                    .sum::<f64>()
            }));
            assert_eq!(a.mul_vec(&x).as_slice(), naive.as_slice(), "cols {cols}");

            let mut out = Vector::filled(3, 9.0);
            a.mul_vec_into(&x, &mut out);
            assert_eq!(out.as_slice(), naive.as_slice(), "into, cols {cols}");

            a.mul_vec_acc(&x, &mut out);
            assert_eq!(
                out.as_slice(),
                naive.scale(2.0).as_slice(),
                "acc, cols {cols}"
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Shapes up to and across the 64-column tile boundary.
        fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
            (1usize..8, 1usize..8, 1usize..70)
        }

        proptest! {
            #[test]
            fn tiled_mul_is_bit_identical_to_triple_loop(
                dims in dims(),
                seed in 0u64..1024,
            ) {
                let (m, k, n) = dims;
                // Deterministic pseudo-random entries with some exact zeros
                // so the zero-skip path is exercised.
                let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let mut next = move || {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let v = ((state >> 33) as f64) / ((1u64 << 31) as f64) - 1.0;
                    if v.abs() < 0.1 { 0.0 } else { v }
                };
                let a = Matrix::from_fn(m, k, |_, _| next());
                let b = Matrix::from_fn(k, n, |_, _| next());
                let tiled = &a * &b;
                let reference = reference_mul(&a, &b);
                for (x, y) in tiled.as_slice().iter().zip(reference.as_slice()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}
