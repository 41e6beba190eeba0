//! Cholesky decomposition for symmetric positive-definite matrices.

use crate::{MathError, Matrix, Vector};

/// Cholesky decomposition `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The MPC cost Hessian `ΦᵀQΦ + ΔᵀRΔ` is symmetric positive definite by
/// construction, so the QP solver uses Cholesky both to solve its equality-
/// constrained subproblems and to certify convexity.
///
/// # Example
///
/// ```
/// use eucon_math::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), eucon_math::MathError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = Cholesky::decompose(&a)?;
/// let x = chol.solve(&Vector::from_slice(&[2.0, 1.0]))?;
/// assert!((&a.mul_vec(&x) - &Vector::from_slice(&[2.0, 1.0])).max_abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor.
    l: Matrix,
    /// The band of `Lᵀ`, row by row: row `i` holds `L[(i + k, i)]` at
    /// `lt[i·(band + 1) + k]` for `k ≤ band` (zero past the last row), so
    /// the back substitution reads each row contiguously instead of
    /// walking down a column of `l`.
    lt: Vec<f64>,
    /// Detected lower bandwidth of the input (and hence of `L`).
    band: usize,
}

/// Largest `i - j` with `a[(i, j)] != 0` in the lower triangle.
///
/// A matrix with lower bandwidth `b` has a Cholesky factor with the same
/// bandwidth, so the factorization below can skip all out-of-band terms.
fn lower_bandwidth(a: &Matrix) -> usize {
    let n = a.rows();
    let mut band = 0;
    for i in 0..n {
        let row = a.row(i);
        // The first nonzero gives this row's widest reach below the diagonal.
        for (j, &v) in row.iter().enumerate().take(i) {
            if v != 0.0 {
                band = band.max(i - j);
                break;
            }
        }
    }
    band
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (as with LAPACK's `dpotrf`).
    ///
    /// The lower bandwidth of `a` is detected up front and the factorization
    /// loops are restricted to the band, taking the cost from `O(n³)` to
    /// `O(n·b²)`.  Because the factor of a banded matrix is banded, the
    /// skipped terms are all exactly zero: the banded path returns the same
    /// values as the dense one (a full-bandwidth input simply falls back to
    /// the classic dense loop).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotSquare`] for non-square input,
    /// [`MathError::NonFinite`] for NaN/infinite entries, and
    /// [`MathError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn decompose(a: &Matrix) -> Result<Cholesky, MathError> {
        Cholesky::factor(a, lower_bandwidth(a))
    }

    /// Factors `a` assuming lower bandwidth `band` (the dense path is
    /// `band = n - 1`; the public entry point detects the true band).
    fn factor(a: &Matrix, band: usize) -> Result<Cholesky, MathError> {
        if !a.is_square() {
            return Err(MathError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(MathError::NonFinite);
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let lo = i.saturating_sub(band);
            for j in lo..=i {
                let mut sum = a[(i, j)];
                {
                    let row_i = l.row(i);
                    let row_j = l.row(j);
                    // k < lo would multiply an out-of-band (exactly zero)
                    // entry of row i.
                    for k in lo..j {
                        sum -= row_i[k] * row_j[k];
                    }
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(MathError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        let width = band + 1;
        let mut lt = vec![0.0; n * width];
        for (i, row) in lt.chunks_exact_mut(width).enumerate() {
            for (k, v) in row.iter_mut().enumerate().take(n - i) {
                *v = l[(i + k, i)];
            }
        }
        Ok(Cholesky { l, lt, band })
    }

    /// Factors `a` assuming the given lower bandwidth instead of detecting
    /// it — the forced-bandwidth probe used by regression tests and
    /// benchmarks to pin the banded path against the dense reference
    /// (`band >= n - 1` runs the full dense loops).
    ///
    /// `band` must be an upper bound on the true lower bandwidth of `a`:
    /// entries below the assumed band are treated as exactly zero, so an
    /// understated bound silently factors a different matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotPositiveDefinite`] as [`Cholesky::decompose`]
    /// does.
    pub fn decompose_with_bandwidth(a: &Matrix, band: usize) -> Result<Cholesky, MathError> {
        Cholesky::factor(a, band.min(a.rows().saturating_sub(1)))
    }

    /// Returns the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Detected lower bandwidth of the factored matrix.
    ///
    /// `n - 1` means the dense fallback; anything smaller means the banded
    /// `O(n·b²)` factor/solve loops were in effect.
    pub fn bandwidth(&self) -> usize {
        self.band
    }

    /// Solves `A·x = b` via forward/back substitution on the factor.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `b` has the wrong
    /// length.
    pub fn solve(&self, b: &Vector) -> Result<Vector, MathError> {
        let mut x = Vector::zeros(0);
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`Cholesky::solve`] into a caller-owned vector: `x` is resized to
    /// the system order and overwritten, reusing its allocation.
    ///
    /// # Errors
    ///
    /// Same condition as [`Cholesky::solve`]; `x` is untouched on error.
    pub fn solve_into(&self, b: &Vector, x: &mut Vector) -> Result<(), MathError> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(MathError::DimensionMismatch(format!(
                "rhs has length {}, expected {n}",
                b.len()
            )));
        }
        // Both sweeps only visit the band of `L`; out-of-band entries are
        // exactly zero, so the skipped terms contribute nothing.  Each
        // entry is one accumulator, subtracting its terms in ascending
        // column order (the kernel module's bit-exactness contract), and
        // each sweep reads contiguous rows: of `L` forward, of the stored
        // band of `Lᵀ` back.
        x.clone_from(b);
        let y = x.as_mut_slice();
        // L·y = b
        for i in 0..n {
            let lo = i.saturating_sub(self.band);
            let row = self.l.row(i);
            let mut acc = y[i];
            for (&v, &yj) in row[lo..i].iter().zip(&y[lo..i]) {
                acc -= v * yj;
            }
            y[i] = acc / row[i];
        }
        // Lᵀ·x = y
        let width = self.band + 1;
        for i in (0..n).rev() {
            let row = &self.lt[i * width..][..width.min(n - i)];
            let mut acc = y[i];
            for (&v, &yj) in row[1..].iter().zip(&y[i + 1..]) {
                acc -= v * yj;
            }
            y[i] = acc / row[0];
        }
        Ok(())
    }

    /// Determinant of the original matrix (product of squared diagonals).
    pub fn det(&self) -> f64 {
        let d: f64 = self.l.diag().iter().product();
        d * d
    }
}

#[cfg(test)]
impl Cholesky {
    /// The sweeps `solve_into` replaced, kept as the bit-exactness
    /// reference: indexed loops, the back sweep walking down the columns
    /// of `L`.
    fn solve_reference(&self, b: &Vector) -> Vector {
        let n = self.l.rows();
        let mut y = b.clone();
        for i in 0..n {
            let row = self.l.row(i);
            let mut acc = y[i];
            for j in i.saturating_sub(self.band)..i {
                acc -= row[j] * y[j];
            }
            y[i] = acc / row[i];
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            let hi = (i + self.band).min(n - 1);
            for j in (i + 1)..=hi {
                acc -= self.l[(j, i)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]);
        let l = Cholesky::decompose(&a).unwrap().l().clone();
        assert!((&l * &l.transpose()).approx_eq(&a, 1e-12));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(MathError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_non_square_and_non_finite() {
        assert!(matches!(
            Cholesky::decompose(&Matrix::zeros(2, 3)),
            Err(MathError::NotSquare { .. })
        ));
        let mut a = Matrix::identity(2);
        a[(1, 1)] = f64::INFINITY;
        assert!(matches!(Cholesky::decompose(&a), Err(MathError::NonFinite)));
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[6.0, 2.0], &[2.0, 5.0]]);
        let b = Vector::from_slice(&[1.0, -3.0]);
        let x_chol = Cholesky::decompose(&a).unwrap().solve(&b).unwrap();
        let x_lu = a.solve(&b).unwrap();
        assert!(x_chol.approx_eq(&x_lu, 1e-12));
    }

    #[test]
    fn det_positive() {
        let a = Matrix::from_diag(&[4.0, 9.0]);
        let chol = Cholesky::decompose(&a).unwrap();
        assert!((chol.det() - 36.0).abs() < 1e-12);
    }

    #[test]
    fn rhs_length_checked() {
        let chol = Cholesky::decompose(&Matrix::identity(2)).unwrap();
        assert!(matches!(
            chol.solve(&Vector::zeros(1)),
            Err(MathError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn solve_into_overwrites_whatever_the_output_held() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 0.0], &[2.0, 5.0, 1.0], &[0.0, 1.0, 4.0]]);
        let chol = Cholesky::decompose(&a).unwrap();
        let mut x = Vector::from_slice(&[9.0; 7]);
        for b in [[1.0, -3.0, 0.5], [0.0, 2.0, -1.0]] {
            let b = Vector::from_slice(&b);
            chol.solve_into(&b, &mut x).unwrap();
            assert_eq!(x.as_slice(), chol.solve(&b).unwrap().as_slice());
        }
        assert!(matches!(
            chol.solve_into(&Vector::zeros(2), &mut x),
            Err(MathError::DimensionMismatch(_))
        ));
        assert_eq!(x.len(), 3, "untouched on error");
    }

    #[test]
    fn bandwidth_detection() {
        // Tridiagonal: band 1.
        let tri = Matrix::from_rows(&[
            &[4.0, 1.0, 0.0, 0.0],
            &[1.0, 4.0, 1.0, 0.0],
            &[0.0, 1.0, 4.0, 1.0],
            &[0.0, 0.0, 1.0, 4.0],
        ]);
        assert_eq!(Cholesky::decompose(&tri).unwrap().bandwidth(), 1);
        // Diagonal: band 0.
        assert_eq!(
            Cholesky::decompose(&Matrix::identity(3))
                .unwrap()
                .bandwidth(),
            0
        );
        // A corner entry forces the dense fallback.
        let mut dense = tri.clone();
        dense[(3, 0)] = 0.5;
        dense[(0, 3)] = 0.5;
        assert_eq!(Cholesky::decompose(&dense).unwrap().bandwidth(), 3);
    }

    #[test]
    fn banded_factor_matches_dense_fallback_exactly() {
        let tri = Matrix::from_rows(&[
            &[4.0, 1.2, 0.0, 0.0],
            &[1.2, 5.0, -0.7, 0.0],
            &[0.0, -0.7, 4.5, 0.3],
            &[0.0, 0.0, 0.3, 6.0],
        ]);
        let banded = Cholesky::decompose(&tri).unwrap();
        let dense = Cholesky::factor(&tri, 3).unwrap();
        assert_eq!(banded.l().as_slice(), dense.l().as_slice());
        let b = Vector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
        assert_eq!(
            banded.solve(&b).unwrap().as_slice(),
            dense.solve(&b).unwrap().as_slice()
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// SPD matrices built as MᵀM + n·I.
        fn spd(n: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-3.0..3.0f64, n * n).prop_map(move |data| {
                let m = Matrix::from_vec(n, n, data);
                &(&m.transpose() * &m) + &Matrix::identity(n).scale(n as f64)
            })
        }

        proptest! {
            #[test]
            fn solve_residual_small(a in spd(4), b in proptest::collection::vec(-5.0..5.0f64, 4)) {
                let b = Vector::from_slice(&b);
                let x = Cholesky::decompose(&a).unwrap().solve(&b).unwrap();
                let scale = a.max_abs().max(1.0);
                prop_assert!((&a.mul_vec(&x) - &b).max_abs() / scale < 1e-8);
            }

            #[test]
            fn factor_is_lower_triangular(a in spd(3)) {
                let l = Cholesky::decompose(&a).unwrap().l().clone();
                for i in 0..3 {
                    for j in (i + 1)..3 {
                        prop_assert_eq!(l[(i, j)], 0.0);
                    }
                }
            }
        }

        /// Random SPD matrices with lower bandwidth `<= band`: a banded
        /// random symmetric matrix made diagonally dominant.
        fn spd_banded(n: usize, band: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-2.0..2.0f64, n * n).prop_map(move |data| {
                let mut a = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..=i {
                        if i - j <= band {
                            let v = data[i * n + j];
                            a[(i, j)] = v;
                            a[(j, i)] = v;
                        }
                    }
                }
                // Diagonal dominance makes the matrix positive definite.
                for i in 0..n {
                    let row_sum: f64 = (0..n).map(|j| a[(i, j)].abs()).sum();
                    a[(i, i)] = row_sum + 1.0;
                }
                a
            })
        }

        /// Small orders and ones that are not a multiple of the kernels'
        /// unroll width of four.
        const ORDERS: [usize; 9] = [1, 2, 3, 5, 6, 7, 9, 11, 14];
        const MAX_N: usize = 14;

        /// Right-hand-side entries with signed zeros, tiny and huge
        /// magnitudes among ordinary values.
        fn rhs_entry() -> impl Strategy<Value = f64> {
            (0..8u64, -5.0..5.0f64).prop_map(|(kind, v)| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => v * 1e-300,
                3 => v * 1e12,
                _ => v,
            })
        }

        proptest! {
            #[test]
            fn solve_into_is_bit_identical_to_the_indexed_sweeps(
                order in 0..ORDERS.len(),
                band_kind in 0..3usize,
                small_band in 1..4usize,
                data in proptest::collection::vec(-2.0..2.0f64, MAX_N * MAX_N),
                b in proptest::collection::vec(rhs_entry(), MAX_N),
            ) {
                let n = ORDERS[order];
                let band = match band_kind {
                    0 => 0,
                    1 => small_band.min(n - 1),
                    _ => n - 1,
                };
                // A random symmetric matrix of lower bandwidth `band`,
                // made positive definite by diagonal dominance.
                let mut a = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in i.saturating_sub(band)..i {
                        a[(i, j)] = data[i * MAX_N + j];
                        a[(j, i)] = a[(i, j)];
                    }
                }
                for i in 0..n {
                    a[(i, i)] = (0..n).map(|j| a[(i, j)].abs()).sum::<f64>() + 1.0 + data[i].abs();
                }
                let chol = Cholesky::decompose(&a).unwrap();
                prop_assert!(chol.bandwidth() <= band);
                let b = Vector::from_slice(&b[..n]);
                let mut x = Vector::zeros(0);
                chol.solve_into(&b, &mut x).unwrap();
                let expect = chol.solve_reference(&b);
                for i in 0..n {
                    prop_assert_eq!(x[i].to_bits(), expect[i].to_bits(), "n {} band {} entry {}", n, band, i);
                }
            }

            #[test]
            fn banded_solve_matches_dense_cholesky(
                a in spd_banded(8, 2),
                b in proptest::collection::vec(-5.0..5.0f64, 8),
            ) {
                let b = Vector::from_slice(&b);
                let banded = Cholesky::decompose(&a).unwrap();
                prop_assert!(banded.bandwidth() <= 2);
                // Dense reference: same input factored with the full-band
                // (classic O(n³)) loops.
                let dense = Cholesky::factor(&a, 7).unwrap();
                let xb = banded.solve(&b).unwrap();
                let xd = dense.solve(&b).unwrap();
                for i in 0..8 {
                    prop_assert!((xb[i] - xd[i]).abs() <= 1e-12);
                    prop_assert_eq!(xb[i], xd[i]); // in fact identical
                }
                for (p, q) in banded.l().as_slice().iter().zip(dense.l().as_slice()) {
                    prop_assert_eq!(p, q);
                }
            }
        }
    }
}
