//! The Cholesky factor of the dual method's equality subproblem, kept in
//! step with the active set.

use eucon_math::kernel;

/// A new row whose squared pivot is at most this fraction of the largest
/// diagonal entry lies in the span of the rows before it, to rounding: the
/// append declines.  The rounding of `d − w·w` scales with the whole
/// matrix, not with the new row's own `d`.
const DEPENDENT_RTOL: f64 = 1e-13;

/// `L` with `L·Lᵀ = M` for the subproblem `M = NᵀH⁻¹N` over an ordered
/// set of constraint rows, stored as packed row-major lower-triangular
/// rows: row `i` holds `L[i][0..=i]` at `i(i+1)/2`.
///
/// The factor follows the set both ways without refactoring:
///
/// * [`append`](GramFactor::append) adds a row (one forward substitution
///   and a `sqrt`, `O(q²)`), or declines and leaves the factor unchanged
///   when the row is dependent on the rows before it;
/// * [`delete`](GramFactor::delete) removes row `j` by a rank-one update
///   of the trailing block, `O((q−j)²)` (Gill, Golub, Murray and Saunders
///   1974): the column `L[j+1..][j]` the deletion leaves behind is rotated
///   into the rows below `j` by Givens rotations, row by row;
/// * [`forward`](GramFactor::forward) and [`back`](GramFactor::back) are
///   the two triangular sweeps of a solve, both walking rows.
///
/// A factor is built by appending its rows in order, so a build is a pure
/// function of the rows and their order.  After a delete the bits differ
/// from a build of the surviving rows at rounding level.
#[derive(Debug, Clone, Default)]
pub(crate) struct GramFactor {
    order: usize,
    l: Vec<f64>,
    /// The largest diagonal entry appended since the factor was cleared.
    scale: f64,
    /// `(cos, sin)` of each rotation of a delete.
    rot: Vec<(f64, f64)>,
}

impl GramFactor {
    /// Room for factors of order up to `n`, so that appends, deletes and
    /// copies that stay within that order allocate nothing.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.l
            .reserve((n * (n + 1) / 2).saturating_sub(self.l.len()));
        self.rot.reserve(n.saturating_sub(self.rot.len()));
    }

    /// Number of rows.
    pub(crate) fn order(&self) -> usize {
        self.order
    }

    /// The factor of the empty set.
    pub(crate) fn clear(&mut self) {
        self.order = 0;
        self.l.clear();
        self.scale = 0.0;
    }

    /// Makes `self` a copy of `other`, reusing `self`'s allocation.
    pub(crate) fn copy_from(&mut self, other: &GramFactor) {
        self.order = other.order;
        self.scale = other.scale;
        self.l.clear();
        self.l.extend_from_slice(&other.l);
    }

    fn row(&self, i: usize) -> &[f64] {
        let start = i * (i + 1) / 2;
        &self.l[start..=start + i]
    }

    /// Appends the row `[m, d]` of `M` — `m` its entries against the
    /// current rows, `d` its diagonal — and returns `true`, or returns
    /// `false` with the factor unchanged when the row is (numerically)
    /// dependent on the current rows.
    pub(crate) fn append(&mut self, m: &[f64], d: f64) -> bool {
        let q = self.order;
        assert_eq!(m.len(), q, "append needs one entry per current row");
        // The new row `w = L⁻¹m` is substituted in the slot it ends up
        // in; its pivot is `√(d − w·w)`.
        let start = self.l.len();
        self.l.extend_from_slice(m);
        let (l, w) = self.l.split_at_mut(start);
        forward_in(l, w);
        let pivot2 = d - kernel::dot(w, w);
        let scale = self.scale.max(d);
        if pivot2.is_nan() || pivot2 <= DEPENDENT_RTOL * scale {
            self.l.truncate(start);
            return false;
        }
        self.l.push(pivot2.sqrt());
        self.order += 1;
        self.scale = scale;
        true
    }

    /// Removes row (and column) `j` of `M` from the factor.  Rows above
    /// `j` are untouched; deleting the last row is a truncation.
    pub(crate) fn delete(&mut self, j: usize) {
        let q = self.order;
        assert!(j < q, "delete of row {j} from a factor of order {q}");
        self.rot.clear();
        // Old row `i > j` becomes row `i − 1`: its entries before column
        // `j` move as they are; `x = L[i][j]` is folded into the rest by
        // the rotations of the rows above it, then the row's own rotation
        // takes its diagonal and `x` to `(ρ, 0)`.  The new row ends where
        // the old row starts, so the moves read nothing already written.
        for i in j + 1..q {
            let src = i * (i + 1) / 2;
            let dst = src - i;
            let mut x = self.l[src + j];
            self.l.copy_within(src..src + j, dst);
            for (k, &(c, s)) in (j..i - 1).zip(&self.rot) {
                let a = self.l[src + k + 1];
                self.l[dst + k] = c * a + s * x;
                x = c * x - s * a;
            }
            let a = self.l[src + i];
            let rho = (a * a + x * x).sqrt();
            self.l[dst + i - 1] = rho;
            self.rot.push((a / rho, x / rho));
        }
        self.order = q - 1;
        self.l.truncate(self.order * q / 2);
    }

    /// `x ← L⁻¹x`.
    pub(crate) fn forward(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.order, "forward needs one entry per row");
        forward_in(&self.l, x);
    }

    /// `x ← L⁻ᵀx`, walking the rows of `L` from the last: once `x_i` is
    /// final, row `i` below the diagonal is subtracted from `x[..i]`.
    pub(crate) fn back(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.order, "back needs one entry per row");
        for i in (0..self.order).rev() {
            let row = self.row(i);
            let (head, xi) = x.split_at_mut(i);
            xi[0] /= row[i];
            kernel::axpy(head, -xi[0], &row[..i]);
        }
    }

    /// `(M⁻¹)_jj = ‖L⁻¹e_j‖²`, by forward substitution from row `j` on
    /// (the entries before `j` are zero), in `scratch`.
    pub(crate) fn inverse_diagonal(&self, j: usize, scratch: &mut Vec<f64>) -> f64 {
        assert!(
            j < self.order,
            "row {j} of a factor of order {}",
            self.order
        );
        scratch.clear();
        for i in j..self.order {
            let row = &self.row(i)[j..];
            let rhs = if i == j { 1.0 } else { 0.0 };
            let yi = (rhs - kernel::dot(&row[..i - j], scratch)) / row[i - j];
            scratch.push(yi);
        }
        kernel::dot(scratch, scratch)
    }
}

/// Forward substitution `x ← L⁻¹x` against the packed rows `l`, which
/// hold at least `x.len()` rows.
fn forward_in(l: &[f64], x: &mut [f64]) {
    let mut start = 0;
    for i in 0..x.len() {
        let row = &l[start..=start + i];
        let (done, xi) = x.split_at_mut(i);
        xi[0] = (xi[0] - kernel::dot(&row[..i], done)) / row[i];
        start += i + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_math::{Matrix, Vector};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `L·Lᵀ` of a factor.
    fn product(f: &GramFactor) -> Matrix {
        let q = f.order();
        Matrix::from_fn(q, q, |a, b| {
            let k = a.min(b) + 1;
            kernel::dot(&f.row(a)[..k], &f.row(b)[..k])
        })
    }

    fn bits(f: &GramFactor) -> Vec<u64> {
        f.l.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn appends_and_deletes_factor_the_gram_matrix_of_the_surviving_rows(
            n in 1usize..13,
            deletes in proptest::collection::vec(0usize..64, 12),
            k in 0usize..13,
            seed in 0u64..1 << 32,
        ) {
            // `2n` random normals (any `n` of them independent) and a
            // random SPD `H⁻¹`: `n` rows are appended, then `k` deletes at
            // random positions, each followed half of the time by the
            // append of a spare row.
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::from_fn(n, n, |_, _| rng.gen_range_f64(-1.0..1.0));
            let hinv = &(&a.transpose() * &a) + &Matrix::identity(n);
            let normals = Matrix::from_fn(2 * n, n, |_, _| rng.gen_range_f64(-2.0..2.0));
            let gram = |a: &[f64], b: &[f64]| {
                kernel::dot(a, hinv.mul_vec(&Vector::from_slice(b)).as_slice())
            };
            let entry = |a: usize, b: usize| gram(normals.row(a), normals.row(b));
            let mut rows: Vec<usize> = Vec::new();
            let mut f = GramFactor::default();
            f.reserve(n);
            let capacity = f.l.capacity();
            for (step, &at) in std::iter::repeat_n(&0, n).chain(&deletes[..k]).enumerate() {
                if step >= n && !rows.is_empty() {
                    let j = at % rows.len();
                    let mut cut = f.l.clone();
                    cut.truncate(j * (j + 1) / 2);
                    f.delete(j);
                    rows.remove(j);
                    if j == rows.len() {
                        prop_assert_eq!(bits(&f), cut.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                    }
                }
                // Row `step` joins: the first `n` steps, then half of the
                // deletes, from the spare rows.
                if (step < n || at % 2 == 0) && step < 2 * n {
                    let m: Vec<f64> = rows.iter().map(|&b| entry(step, b)).collect();
                    if f.append(&m, entry(step, step)) {
                        rows.push(step);
                    }
                }
                let gathered = Matrix::from_fn(rows.len(), rows.len(), |a, b| entry(rows[a], rows[b]));
                let scale = gathered.max_abs().max(1.0);
                let err = (&product(&f) - &gathered).max_abs();
                prop_assert!(err <= 1e-12 * scale, "|LLᵀ − M| = {:e} at scale {:e}", err, scale);
            }
            prop_assert_eq!(f.l.capacity(), capacity, "reserved room is enough");
            let q = rows.len();
            if q == 0 {
                return Ok(());
            }
            // The two sweeps solve M x = e_j, whose j-th entry is the
            // diagonal entry of M⁻¹ that `inverse_diagonal` reads off.
            let j = deletes[0] % q;
            let mut x = vec![0.0; q];
            x[j] = 1.0;
            f.forward(&mut x);
            f.back(&mut x);
            let gathered = Matrix::from_fn(q, q, |a, b| entry(rows[a], rows[b]));
            let residual = gathered.mul_vec(&Vector::from_slice(&x));
            let bound = 1e-12 * gathered.max_abs().max(1.0) * x.iter().fold(1.0, |m, v| v.abs().max(m));
            for (i, r) in residual.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                prop_assert!((r - want).abs() <= bound, "(M x − e_j)_{} = {:e}", i, r - want);
            }
            let diag = f.inverse_diagonal(j, &mut Vec::new());
            prop_assert!((diag - x[j]).abs() <= 1e-9 * x[j], "{:e} vs {:e}", diag, x[j]);
            // A row dependent on the survivors declines and leaves the
            // factor unchanged: the sum of two rows, or a row again.
            let dep: Vec<f64> = (0..n).map(|c| normals[(rows[0], c)] + normals[(rows[q - 1], c)]).collect();
            let m: Vec<f64> = rows.iter().map(|&b| gram(&dep, normals.row(b))).collect();
            let before = bits(&f);
            prop_assert!(!f.append(&m, gram(&dep, &dep)));
            prop_assert_eq!(bits(&f), before);
        }
    }
}
