//! LU decomposition with partial pivoting.

use crate::{MathError, Matrix, Vector};

/// LU decomposition of a square matrix with partial (row) pivoting.
///
/// Factors `P·A = L·U` where `P` is a permutation, `L` is unit lower
/// triangular and `U` is upper triangular.  This is the solver behind
/// [`Matrix::solve`] and [`Matrix::inverse`].
///
/// The factors live packed in one row-major buffer, and the kernels work
/// on its rows as slices: elimination updates a row as
/// `row_i[k+1..] −= l_ik · row_k[k+1..]`, the substitutions are zipped
/// slice loops.  Every entry sees the textbook operations in the textbook
/// order (no reassociation, no fused multiply-add), so the bits are those
/// of the plain index loops.
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
    /// Order of the factored matrix.
    n: usize,
    /// Packed row-major `n × n` factors: the strictly-lower part stores L
    /// (unit diagonal implicit), the upper part stores U.
    lu: Vec<f64>,
    /// Row permutation: row `i` of the factored matrix came from row
    /// `perm[i]` of the input.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), used for the determinant.
    perm_sign: f64,
    /// True when a pivot fell below the singularity threshold.
    singular: bool,
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
        let scale = a.max_abs().max(1.0);
        let mut lu = a.as_slice().to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let mut singular = n == 0;

        for k in 0..n {
            // Partial pivoting: the largest magnitude in column k, the
            // first of equals.
            let mut pivot_row = k;
            let mut pivot_mag = lu[k * n + k].abs();
            for (i, v) in (k + 1..).zip(lu[k * n + k..].iter().step_by(n).skip(1)) {
                let mag = v.abs();
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
                let (upper, lower) = lu.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n..];
            let pivot = row_k[k];
            for row_i in lower.chunks_exact_mut(n) {
                let factor = row_i[k] / pivot;
                row_i[k] = factor;
                for (a, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    *a -= factor * u;
                }
            }
        }
        Ok(Lu {
            n,
            lu,
            perm,
            perm_sign,
            singular,
        })
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
        let n = self.n;
        self.perm_sign * (0..n).map(|i| self.lu[i * n + i]).product::<f64>()
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Singular`] when the matrix was singular and
    /// [`MathError::DimensionMismatch`] when `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector, MathError> {
        let n = self.n;
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
        let mut solution = Vector::from_iter(self.perm.iter().map(|&p| b[p]));
        let x = solution.as_mut_slice();
        for i in 1..n {
            let (done, rest) = x.split_at_mut(i);
            let mut acc = rest[0];
            for (&l, &y) in self.lu[i * n..i * n + i].iter().zip(done.iter()) {
                acc -= l * y;
            }
            rest[0] = acc;
        }
        // Back substitution: U·x = y.
        for i in (0..n).rev() {
            let row_i = &self.lu[i * n..(i + 1) * n];
            let (head, done) = x.split_at_mut(i + 1);
            let mut acc = head[i];
            for (&u, &xj) in row_i[i + 1..].iter().zip(done.iter()) {
                acc -= u * xj;
            }
            head[i] = acc / row_i[i];
        }
        Ok(solution)
    }

    /// Computes the inverse of the original matrix column by column.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Singular`] when the matrix was singular.
    pub fn inverse(&self) -> Result<Matrix, MathError> {
        let n = self.n;
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

    /// The index-loop kernels the slice kernels replaced, kept as the
    /// reference they are pinned to bit for bit.
    mod reference {
        use super::*;

        /// Packed factors, permutation, its sign and the singular flag.
        pub(super) fn refactor(a: &Matrix) -> (Matrix, Vec<usize>, f64, bool) {
            let n = a.rows();
            let mut lu = a.clone();
            let mut perm: Vec<usize> = (0..n).collect();
            let mut perm_sign = 1.0;
            let mut singular = n == 0;
            let scale = a.max_abs().max(1.0);
            for k in 0..n {
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
            (lu, perm, perm_sign, singular)
        }

        /// Forward then back substitution over `refactor`'s output.
        pub(super) fn solve(lu: &Matrix, perm: &[usize], b: &Vector) -> Vector {
            let n = lu.rows();
            let mut x = Vector::zeros(n);
            for (i, &p) in perm.iter().enumerate() {
                x[i] = b[p];
            }
            for i in 1..n {
                let mut acc = x[i];
                for j in 0..i {
                    acc -= lu[(i, j)] * x[j];
                }
                x[i] = acc;
            }
            for i in (0..n).rev() {
                let mut acc = x[i];
                for j in (i + 1)..n {
                    acc -= lu[(i, j)] * x[j];
                }
                x[i] = acc / lu[(i, i)];
            }
            x
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|e| e.to_bits()).collect()
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Strategy for small well-scaled square matrices.
        fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-10.0..10.0f64, n * n)
                .prop_map(move |data| Matrix::from_vec(n, n, data))
        }

        /// Square matrices of order 0–12 in the shapes pivoting cares
        /// about: plain, diagonally dominant (no row swaps), with two
        /// equal rows (singular), with a zero column, and with entries
        /// spread over 24 orders of magnitude.
        fn shaped_matrix() -> impl Strategy<Value = Matrix> {
            (
                0usize..13,
                0u8..5,
                proptest::collection::vec(-10.0..10.0f64, 144),
                proptest::collection::vec(-12i32..12, 144),
            )
                .prop_map(|(n, shape, data, exps)| {
                    let mut a = Matrix::from_vec(n, n, data[..n * n].to_vec());
                    match shape {
                        1 => (0..n).for_each(|i| a[(i, i)] += 100.0),
                        2 if n >= 2 => (0..n).for_each(|j| a[(n - 1, j)] = a[(0, j)]),
                        3 if n >= 1 => (0..n).for_each(|i| a[(i, n / 2)] = 0.0),
                        4 => (0..n * n).for_each(|e| a[(e / n, e % n)] *= 10f64.powi(exps[e])),
                        _ => {}
                    }
                    a
                })
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

            #[test]
            fn slice_kernels_equal_the_index_loops_bit_for_bit(a in shaped_matrix(),
                                                               b in proptest::collection::vec(-10.0..10.0f64, 13)) {
                let n = a.rows();
                let lu = Lu::decompose(&a).unwrap();
                let (packed, perm, sign, singular) = reference::refactor(&a);
                prop_assert_eq!(bits(&lu.lu), bits(packed.as_slice()));
                prop_assert_eq!(&lu.perm, &perm);
                prop_assert_eq!(lu.perm_sign.to_bits(), sign.to_bits());
                prop_assert_eq!(lu.singular, singular);
                if !singular {
                    let b = Vector::from_slice(&b[..n]);
                    let x = lu.solve(&b).unwrap();
                    prop_assert_eq!(bits(x.as_slice()), bits(reference::solve(&packed, &perm, &b).as_slice()));
                }
            }
        }
    }
}
