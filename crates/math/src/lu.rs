//! LU decomposition with partial pivoting.

use crate::{MathError, Matrix, Vector};

/// LU decomposition of a square matrix with partial (row) pivoting.
///
/// Factors `P·A = L·U` where `P` is a permutation, `L` is unit lower
/// triangular and `U` is upper triangular.  This is the solver behind
/// [`Matrix::solve`] and [`Matrix::inverse`], and the subproblem solver of
/// the `eucon-qp` active-set method.
///
/// The factors live packed in one row-major buffer, and the kernels work
/// on its rows as slices: elimination updates a row as
/// `row_i[k+1..] −= l_ik · row_k[k+1..]`, the substitutions are zipped
/// slice loops.  Every entry sees the textbook operations in the textbook
/// order (no reassociation, no fused multiply-add), so the bits are those
/// of the plain index loops.
///
/// A held factor of `A` can be [`extend`](Lu::extend)ed to the factor of
/// the bordered matrix `[A c; rᵀ d]` in `O(n²)`, bit for bit what
/// [`refactor`](Lu::refactor) would give, or declines when pivoting would
/// order the bordered matrix differently.
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
    /// `max(|a_ij|, 1)` over the factored matrix; a pivot is zero at or
    /// below `PIVOT_RTOL · scale`.
    scale: f64,
    /// Smallest magnitude of a pivot that passed that test (∞ when none
    /// did), so [`extend`](Lu::extend) can re-run it in O(1).
    min_pivot: f64,
}

impl Default for Lu {
    /// The factorization of the empty (0×0) matrix, which counts as
    /// singular; a placeholder to [`refactor`](Lu::refactor) into.
    fn default() -> Self {
        Lu {
            n: 0,
            lu: Vec::new(),
            perm: Vec::new(),
            perm_sign: 1.0,
            singular: true,
            scale: 1.0,
            min_pivot: f64::INFINITY,
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

    /// Reserves room for factors of order up to `n` without changing the
    /// stored factorization, so later [`refactor`](Lu::refactor) and
    /// [`extend`](Lu::extend) calls that stay within that order do not
    /// allocate.
    pub fn reserve(&mut self, n: usize) {
        self.lu.reserve((n * n).saturating_sub(self.lu.len()));
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
        let scale = a.max_abs().max(1.0);
        let Lu { lu, perm, .. } = self;
        lu.clear();
        lu.extend_from_slice(a.as_slice());
        perm.clear();
        perm.extend(0..n);
        let mut perm_sign = 1.0;
        let mut singular = n == 0;
        let mut min_pivot = f64::INFINITY;

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
            min_pivot = min_pivot.min(pivot_mag);
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
        self.n = n;
        self.perm_sign = perm_sign;
        self.singular = singular;
        self.scale = scale;
        self.min_pivot = min_pivot;
        Ok(())
    }

    /// Turns the held factor of `A` (order `n`) into the factor of the
    /// bordered matrix `[A c; rᵀ d]`, where `col = c` (`n` entries) and
    /// `row = [rᵀ d]` (`n + 1` entries), in `O(n²)` — bit for bit what
    /// [`refactor`](Lu::refactor) of the bordered matrix would store.
    ///
    /// The new column of U is `L⁻¹Pc` by forward substitution, and the new
    /// row is eliminated against each pivot row in turn: each entry gets
    /// the operations, in the order, that right-looking elimination gives
    /// it.  That holds while pivoting picks the same rows, so the call
    /// returns `Ok(false)` and leaves the factor untouched when
    ///
    /// * the new row would win a pivot (`|r_k| > |U_kk|` after the
    ///   eliminations before `k`; it sits last, so it loses ties, as in
    ///   `refactor`),
    /// * the border raises `scale = max(|a_ij|, 1)` so far that an old
    ///   pivot falls under the singularity threshold, or
    /// * the held factor is singular (the empty 0×0 factor included).
    ///
    /// A new pivot under the threshold is not a refusal: the bordered
    /// matrix is singular, and the factor says so, as `refactor`'s would.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `col` or `row` has
    /// the wrong length and [`MathError::NonFinite`] when they hold NaN or
    /// infinities; the factor is unchanged on error.
    pub fn extend(&mut self, col: &[f64], row: &[f64]) -> Result<bool, MathError> {
        let n = self.n;
        if col.len() != n || row.len() != n + 1 {
            return Err(MathError::DimensionMismatch(format!(
                "border of lengths {} and {}, expected {n} and {}",
                col.len(),
                row.len(),
                n + 1
            )));
        }
        if !col.iter().chain(row).all(|v| v.is_finite()) {
            return Err(MathError::NonFinite);
        }
        if self.singular {
            return Ok(false);
        }
        let scale = col
            .iter()
            .chain(row)
            .fold(self.scale, |acc, v| acc.max(v.abs()));
        if self.min_pivot <= PIVOT_RTOL * scale {
            return Ok(false);
        }
        let m = n + 1;
        let Lu { lu, perm, .. } = self;
        // The new row starts where it ends up, past the old rows, and is
        // eliminated against each pivot row in turn; its last entry
        // waits for the new column.
        lu.resize(m * m, 0.0);
        let declined = 'eliminate: {
            let (old, new_row) = lu.split_at_mut(n * m);
            new_row.copy_from_slice(row);
            for k in 0..n {
                let row_k = &old[k * n..(k + 1) * n];
                let pivot = row_k[k];
                if new_row[k].abs() > pivot.abs() {
                    break 'eliminate true;
                }
                let factor = new_row[k] / pivot;
                new_row[k] = factor;
                for (a, &u) in new_row[k + 1..n].iter_mut().zip(&row_k[k + 1..]) {
                    *a -= factor * u;
                }
            }
            false
        };
        if declined {
            lu.truncate(n * n);
            return Ok(false);
        }
        // Re-lay the old rows out at stride n + 1, last first so none is
        // overwritten before it moves.
        for i in (1..n).rev() {
            lu.copy_within(i * n..(i + 1) * n, i * m);
        }
        // The new column is `L⁻¹Pc` by forward substitution down column
        // n; its last step, through the new row's multipliers, is the
        // corner.
        for (i, &p) in perm.iter().enumerate() {
            lu[i * m + n] = col[p];
        }
        for i in 1..m {
            let (above, row_i) = lu.split_at_mut(i * m);
            let mut acc = row_i[n];
            for (&l, &y) in row_i[..i].iter().zip(above[n..].iter().step_by(m)) {
                acc -= l * y;
            }
            row_i[n] = acc;
        }
        perm.push(n);
        let corner = lu[m * m - 1].abs();
        self.n = m;
        self.scale = scale;
        if corner <= PIVOT_RTOL * scale {
            self.singular = true;
        } else {
            self.min_pivot = self.min_pivot.min(corner);
        }
        Ok(true)
    }

    /// Returns `true` when the factored matrix is (numerically) singular.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// `true` when `other` holds the same factorization, bit for bit: the
    /// packed factors, the permutation and its sign, the singularity
    /// verdict and the threshold state.
    pub fn same_bits(&self, other: &Lu) -> bool {
        self.n == other.n
            && self.perm == other.perm
            && self.singular == other.singular
            && self.perm_sign.to_bits() == other.perm_sign.to_bits()
            && self.scale.to_bits() == other.scale.to_bits()
            && self.min_pivot.to_bits() == other.min_pivot.to_bits()
            && self.lu.len() == other.lu.len()
            && self
                .lu
                .iter()
                .zip(&other.lu)
                .all(|(a, b)| a.to_bits() == b.to_bits())
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
        x.resize(n);
        let x = x.as_mut_slice();
        let b = b.as_slice();
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
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
        Ok(())
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

    /// The leading `k × k` block of `a`.
    fn leading(a: &Matrix, k: usize) -> Matrix {
        a.submatrix(0, k, 0, k)
    }

    /// Column `k` of `a` above row `k`, and row `k` through the diagonal:
    /// the border that grows `leading(a, k)` into `leading(a, k + 1)`.
    fn border(a: &Matrix, k: usize) -> (Vec<f64>, Vec<f64>) {
        let col = (0..k).map(|i| a[(i, k)]).collect();
        let row = a.row(k)[..=k].to_vec();
        (col, row)
    }

    /// `extend` succeeds exactly when `refactor` of the bordered matrix
    /// pivots the old rows as before and keeps every old pivot: the held
    /// factor is not singular, no old pivot falls under the bordered
    /// matrix's threshold, and the new row stays last.
    fn extend_should_succeed(held: &Lu, bordered: &Matrix) -> bool {
        let n = held.n;
        let scale = bordered.max_abs().max(1.0);
        let min_pivot = (0..n)
            .map(|i| held.lu[i * n + i].abs())
            .fold(f64::INFINITY, f64::min);
        let (_, fresh_perm, _, _) = reference::refactor(bordered);
        !held.singular && min_pivot > PIVOT_RTOL * scale && fresh_perm.last() == Some(&n)
    }

    /// Extends `leading(a, k)`'s factor by one border and checks the
    /// outcome against `refactor` of `leading(a, k + 1)`: on success the
    /// same bits (factor, solve, determinant), on a refusal an unchanged
    /// factor.  Returns whether it extended.
    fn check_extend(a: &Matrix, k: usize, lu: &mut Lu) -> bool {
        let bordered = leading(a, k + 1);
        let before = lu.clone();
        let (col, row) = border(a, k);
        let expect = extend_should_succeed(lu, &bordered);
        let extended = lu.extend(&col, &row).unwrap();
        assert_eq!(extended, expect, "k = {k}, a = {a:?}");
        if !extended {
            assert!(lu.same_bits(&before), "a refusal left the factor changed");
            return false;
        }
        let fresh = Lu::decompose(&bordered).unwrap();
        assert!(lu.same_bits(&fresh), "k = {k}: {lu:?} vs {fresh:?}");
        assert_eq!(lu.det().to_bits(), fresh.det().to_bits());
        let b = Vector::from_iter((0..=k).map(|i| 1.0 - 0.37 * i as f64));
        match (lu.solve(&b), fresh.solve(&b)) {
            (Ok(x), Ok(y)) => assert_eq!(bits(x.as_slice()), bits(y.as_slice())),
            (Err(MathError::Singular), Err(MathError::Singular)) => {}
            other => panic!("solves disagree: {other:?}"),
        }
        true
    }

    #[test]
    fn extend_refuses_a_border_that_would_reorder_the_pivots() {
        let base = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[1.0, 3.0, 0.0], &[4.0, 0.0, 1.0]]);
        let mut lu = Lu::decompose(&leading(&base, 2)).unwrap();
        assert!(!check_extend(&base, 2, &mut lu), "|4| > |2| wins pivot 0");
        // A tie loses: the new row sits last.
        let tie = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[1.0, 3.0, 0.0], &[2.0, 0.0, 1.0]]);
        let mut lu = Lu::decompose(&leading(&tie, 2)).unwrap();
        assert!(check_extend(&tie, 2, &mut lu));
    }

    #[test]
    fn extend_refuses_a_border_that_sinks_an_old_pivot() {
        let mut a = Matrix::from_rows(&[&[1e-3, 0.0], &[0.0, 1.0]]);
        let mut lu = Lu::decompose(&leading(&a, 1)).unwrap();
        // scale 2e10 puts the threshold at 2e-3: pivot 1e-3 is now zero.
        a[(1, 1)] = 2e10;
        assert!(!check_extend(&a, 1, &mut lu));
        a[(1, 1)] = 0.5e10;
        assert!(check_extend(&a, 1, &mut lu));
    }

    #[test]
    fn extend_refuses_a_singular_factor_and_flags_a_singular_border() {
        let mut lu = Lu::default();
        let one = Matrix::from_rows(&[&[5.0]]);
        assert!(
            !check_extend(&one, 0, &mut lu),
            "the empty factor is singular"
        );
        let dup = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 4.0, 1.0], &[0.0, 1.0, 1.0]]);
        let mut lu = Lu::decompose(&leading(&dup, 2)).unwrap();
        assert!(lu.is_singular());
        assert!(!check_extend(&dup, 2, &mut lu));
        // A dependent new row is not a refusal: the factor turns singular.
        let dep = Matrix::from_rows(&[&[4.0, 1.0], &[4.0, 1.0]]);
        let mut lu = Lu::decompose(&leading(&dep, 1)).unwrap();
        assert!(check_extend(&dep, 1, &mut lu));
        assert!(lu.is_singular());
    }

    #[test]
    fn extend_rejects_bad_borders_without_touching_the_factor() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let mut lu = Lu::decompose(&a).unwrap();
        let before = lu.clone();
        for (col, row) in [
            (vec![f64::NAN, 0.0], vec![0.0, 0.0, 1.0]),
            (vec![0.0, 0.0], vec![0.0, f64::INFINITY, 1.0]),
            (vec![0.0, 0.0], vec![0.0, 0.0, f64::NEG_INFINITY]),
        ] {
            assert!(matches!(lu.extend(&col, &row), Err(MathError::NonFinite)));
            assert!(lu.same_bits(&before));
        }
        assert!(matches!(
            lu.extend(&[0.0], &[0.0, 0.0, 1.0]),
            Err(MathError::DimensionMismatch(_))
        ));
        assert!(matches!(
            lu.extend(&[0.0, 0.0], &[0.0, 1.0]),
            Err(MathError::DimensionMismatch(_))
        ));
        assert!(lu.same_bits(&before));
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

        /// A matrix of order 1–13 and the order (≤ it) of the leading
        /// block to start extending from, in the cases `extend` must tell
        /// apart: a plain draw; a diagonally dominant block the border
        /// cannot out-pivot; the same with a new row ×1000 (it wins a
        /// pivot); with a corner of 1e12–1e17 (the threshold crosses the
        /// old pivots); with a singular leading block (the 0×0 one too);
        /// and with a last row equal to an earlier one (a singular
        /// bordered matrix).
        fn bordered_case() -> impl Strategy<Value = (Matrix, usize)> {
            (
                (1usize..14, 0u8..6),
                proptest::collection::vec(-10.0..10.0f64, 169),
                (0usize..13, 12.0..17.0f64),
                0usize..14,
            )
                .prop_map(|((m, case), data, (pick, exp), from)| {
                    let n = m - 1;
                    let mut a = Matrix::from_vec(m, m, data[..m * m].to_vec());
                    if case >= 1 {
                        (0..n).for_each(|i| a[(i, i)] += 100.0);
                    }
                    match case {
                        2 => (0..m).for_each(|j| a[(n, j)] *= 1e3),
                        3 => a[(n, n)] = 10f64.powf(exp),
                        4 if n >= 2 => {
                            let dup = 1 + pick % (n - 1);
                            (0..m).for_each(|j| a[(dup, j)] = a[(0, j)]);
                        }
                        4 if n == 1 => a[(0, 0)] = 0.0,
                        5 if n >= 1 => {
                            let src = pick % n;
                            (0..m).for_each(|j| a[(n, j)] = a[(src, j)]);
                        }
                        _ => {}
                    }
                    // Cases 2–5 are about the last border; case 4 about
                    // a singular held factor, so it starts at `n`.
                    let from = if case >= 2 { n } else { from.min(n) };
                    (a, from)
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
                    let mut x = Vector::from_slice(&[7.0; 3]);
                    lu.solve_into(&b, &mut x).unwrap();
                    prop_assert_eq!(bits(x.as_slice()), bits(reference::solve(&packed, &perm, &b).as_slice()));
                }
            }

            #[test]
            fn extend_equals_refactor_of_the_bordered_matrix(case in bordered_case()) {
                // Factor the leading block of order `from`, then grow it
                // one border at a time to the whole matrix, refactoring
                // only where `extend` declines.
                let (a, from) = case;
                let n = a.rows();
                let mut lu = Lu::decompose(&leading(&a, from)).unwrap();
                for k in from..n {
                    if !check_extend(&a, k, &mut lu) {
                        lu.refactor(&leading(&a, k + 1)).unwrap();
                    }
                }
            }

            #[test]
            fn extend_rejects_a_non_finite_border_unchanged(a in shaped_matrix(),
                                                            at in 0usize..25,
                                                            bad in 0usize..3) {
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad];
                let n = a.rows();
                let mut lu = Lu::decompose(&a).unwrap();
                let before = lu.clone();
                let mut col = vec![0.5; n];
                let mut row = vec![1.0; n + 1];
                let at = at % (2 * n + 1);
                if at < n { col[at] = bad } else { row[at - n] = bad }
                prop_assert!(matches!(lu.extend(&col, &row), Err(MathError::NonFinite)));
                prop_assert!(lu.same_bits(&before));
            }
        }
    }
}
