//! LU decomposition with partial pivoting.

use crate::{MathError, Matrix, Vector};

/// LU decomposition of a square matrix with partial (row) pivoting.
///
/// Factors `P·A = L·U` where `P` is a permutation, `L` is unit lower
/// triangular and `U` is upper triangular.  This is the solver behind
/// [`Matrix::solve`] and [`Matrix::inverse`], and the KKT-system solver of
/// the `eucon-qp` active-set method.
///
/// # Example
///
/// ```
/// use eucon_math::{Lu, Matrix, Vector};
///
/// # fn main() -> Result<(), eucon_math::MathError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]); // needs pivoting
/// let lu = Lu::decompose(&a)?;
/// let x = lu.solve(&Vector::from_slice(&[2.0, 2.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors: strictly-lower part stores L (unit diagonal
    /// implicit), upper part stores U.
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix came from row
    /// `perm[i]` of the input.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), used for the determinant.
    perm_sign: f64,
    /// True when a pivot fell below the singularity threshold.
    singular: bool,
}

impl Default for Lu {
    /// The factorization of the empty (0×0) matrix, which counts as
    /// singular; a placeholder to [`refactor`](Lu::refactor) into.
    fn default() -> Self {
        Lu {
            lu: Matrix::zeros(0, 0),
            perm: Vec::new(),
            perm_sign: 1.0,
            singular: true,
        }
    }
}

/// Relative threshold below which a pivot is considered zero.
const PIVOT_RTOL: f64 = 1e-13;

impl Lu {
    /// Factors a square matrix.
    ///
    /// Singularity is detected lazily: `decompose` succeeds even for
    /// singular inputs so callers can still read [`Lu::det`] (which will be
    /// ~0), but [`Lu::solve`] and [`Lu::inverse`] will return
    /// [`MathError::Singular`].
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotSquare`] for non-square input and
    /// [`MathError::NonFinite`] when the input contains NaN or infinities.
    pub fn decompose(a: &Matrix) -> Result<Lu, MathError> {
        let mut lu = Lu::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Reserves room for factors of order `n` without changing the stored
    /// factorization, so later [`refactor`](Lu::refactor) calls up to that
    /// order do not allocate.
    pub fn reserve(&mut self, n: usize) {
        self.lu.reserve(n, n);
        self.perm.reserve(n.saturating_sub(self.perm.len()));
    }

    /// Replaces the stored factorization with that of `a`, reusing the
    /// factor's allocations — [`Lu::decompose`] without the fresh `Lu`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Lu::decompose`]; on error the stored factor
    /// is left unchanged.
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), MathError> {
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
        self.lu.clone_from(a);
        self.perm.clear();
        self.perm.extend(0..n);
        let Lu { lu, perm, .. } = self;
        let mut perm_sign = 1.0;
        let mut singular = n == 0;
        let scale = a.max_abs().max(1.0);

        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let mag = lu[(i, k)].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag <= PIVOT_RTOL * scale {
                singular = true;
                continue;
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        self.perm_sign = perm_sign;
        self.singular = singular;
        Ok(())
    }

    /// Returns `true` when the factored matrix is (numerically) singular.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        if self.singular {
            return 0.0;
        }
        self.perm_sign * self.lu.diag().iter().product::<f64>()
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Singular`] when the matrix was singular and
    /// [`MathError::DimensionMismatch`] when `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector, MathError> {
        let mut x = Vector::zeros(0);
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`Lu::solve`] into a caller-owned vector: `x` is resized to the
    /// system order and overwritten, reusing its allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Lu::solve`]; `x` is untouched on error.
    pub fn solve_into(&self, b: &Vector, x: &mut Vector) -> Result<(), MathError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(MathError::DimensionMismatch(format!(
                "rhs has length {}, expected {n}",
                b.len()
            )));
        }
        if self.singular {
            return Err(MathError::Singular);
        }
        // Forward substitution with permuted rhs: L·y = P·b.
        x.resize(n);
        for (xi, &p) in x.as_mut_slice().iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution: U·x = y.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Computes the inverse of the original matrix column by column.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Singular`] when the matrix was singular.
    pub fn inverse(&self) -> Result<Matrix, MathError> {
        let n = self.lu.rows();
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = Vector::zeros(n);
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &Vector, b: &Vector) -> f64 {
        (&a.mul_vec(x) - b).max_abs()
    }

    #[test]
    fn solves_well_conditioned_system() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = Lu::decompose(&a).unwrap().solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Vector::from_slice(&[2.0, 3.0]);
        let x = a.solve(&b).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let lu = Lu::decompose(&a).unwrap();
        assert!(lu.is_singular());
        assert_eq!(lu.det(), 0.0);
        assert!(matches!(
            lu.solve(&Vector::zeros(2)),
            Err(MathError::Singular)
        ));
        assert!(matches!(lu.inverse(), Err(MathError::Singular)));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::decompose(&a),
            Err(MathError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(Lu::decompose(&a), Err(MathError::NonFinite)));
    }

    #[test]
    fn rhs_length_mismatch() {
        let lu = Lu::decompose(&Matrix::identity(2)).unwrap();
        assert!(matches!(
            lu.solve(&Vector::zeros(3)),
            Err(MathError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn refactor_and_solve_into_reuse_one_factor_across_orders() {
        // Grow, shrink, grow: every refactor must equal a fresh
        // decomposition bit for bit, whatever the factor held before.
        let systems = [
            Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]),
            Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]),
            Matrix::from_rows(&[
                &[2.0, -1.0, 0.5, 0.0],
                &[1.0, 0.0, 3.0, 1.0],
                &[0.0, 4.0, 1.0, -2.0],
                &[1.5, 1.0, 0.0, 1.0],
            ]),
        ];
        let mut lu = Lu::default();
        assert!(lu.is_singular(), "the placeholder factors nothing");
        let mut x = Vector::zeros(0);
        for a in &systems {
            let b = Vector::from_iter((0..a.rows()).map(|i| 1.0 + i as f64));
            lu.refactor(a).unwrap();
            lu.solve_into(&b, &mut x).unwrap();
            let fresh = Lu::decompose(a).unwrap();
            assert_eq!(x.as_slice(), fresh.solve(&b).unwrap().as_slice());
            assert_eq!(lu.det().to_bits(), fresh.det().to_bits());
        }
        // A rejected input leaves the stored factor usable.
        let mut nan = Matrix::identity(2);
        nan[(0, 1)] = f64::NAN;
        assert!(matches!(lu.refactor(&nan), Err(MathError::NonFinite)));
        let b = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        lu.solve_into(&b, &mut x).unwrap();
        assert!(residual(&systems[2], &x, &b) < 1e-12);
    }

    #[test]
    fn determinant_signs() {
        // det of [[0,1],[1,0]] = -1 (one row swap).
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((Lu::decompose(&a).unwrap().det() + 1.0).abs() < 1e-12);
        // det of diag(2,3) = 6.
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert!((Lu::decompose(&d).unwrap().det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]);
        let inv = a.inverse().unwrap();
        assert!((&a * &inv).approx_eq(&Matrix::identity(3), 1e-12));
        assert!((&inv * &a).approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn empty_matrix_is_singular() {
        let lu = Lu::decompose(&Matrix::zeros(0, 0)).unwrap();
        assert!(lu.is_singular());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Strategy for small well-scaled square matrices.
        fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-10.0..10.0f64, n * n)
                .prop_map(move |data| Matrix::from_vec(n, n, data))
        }

        proptest! {
            #[test]
            fn solve_residual_is_small(a in square_matrix(4),
                                       b in proptest::collection::vec(-10.0..10.0f64, 4)) {
                let b = Vector::from_slice(&b);
                if let Ok(x) = a.solve(&b) {
                    // Residual scaled by the matrix magnitude stays tiny.
                    let scale = a.max_abs().max(1.0);
                    prop_assert!(residual(&a, &x, &b) / scale < 1e-6);
                }
            }

            #[test]
            fn det_of_product_is_product_of_dets(a in square_matrix(3), b in square_matrix(3)) {
                let da = Lu::decompose(&a).unwrap().det();
                let db = Lu::decompose(&b).unwrap().det();
                let dab = Lu::decompose(&(&a * &b)).unwrap().det();
                let scale = da.abs().max(db.abs()).max(1.0);
                prop_assert!((dab - da * db).abs() < 1e-6 * scale * scale);
            }
        }
    }
}
