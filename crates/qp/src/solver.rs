//! Dual active-set quadratic-program solver (Goldfarb–Idnani).

use std::cell::{RefCell, RefMut};
use std::sync::Arc;

use eucon_math::{kernel, Cholesky, MathError, Matrix, SparseRows, Vector};

use crate::factor::GramFactor;
use crate::QpError;

/// Absolute tolerance for constraint violation and multiplier tests,
/// applied relative to the problem scale.
const TOL: f64 = 1e-10;

/// Solution of a [`PreparedQp`] solve.
#[derive(Debug, Clone, Default)]
pub struct QpSolution {
    /// The minimizer.
    pub x: Vector,
    /// Lagrange multipliers, one per inequality row (zero for inactive
    /// constraints).  All multipliers are non-negative at the optimum.
    pub multipliers: Vector,
    /// Indices of the constraints active at the solution.
    pub active: Vec<usize>,
    /// Number of active-set changes the solver performed.  A warm start
    /// that already identifies the optimal active set reports zero.
    pub iterations: usize,
    /// Rows of the warm-start guess the solver kept as its starting
    /// active set (dual feasible, and not within tolerance of inactive);
    /// zero for a cold start or a rejected guess.
    pub warm_retained: usize,
    /// What the solve did to its subproblem factor.
    pub factor_work: FactorWork,
}

/// The back-solves and Gram entries of the constraint rows a workspace's
/// solves have touched, each computed the first time a solve needs it.
///
/// With the constraint normals `n_i = −g_iᵀ` (the `≥` orientation used by
/// the dual method), a ready row `i` has its back-solve `H⁻¹n_i` and, for
/// every ready row `j`, both Gram entries `n_i·H⁻¹n_j` and `n_j·H⁻¹n_i`.
/// The dual iteration's subproblem matrix `M = NᵀH⁻¹N` and right-hand side
/// are then lookups, once [`ensure`](BackSolves::ensure) has run for the
/// rows they read.  Every entry is a pure function of `H` and `G`,
/// computed by one expression whatever order the rows become ready in, so
/// two memos that hold an entry hold the same bits.
#[derive(Debug, Default)]
struct BackSolves {
    /// Columns of `hinv` (the variable count).
    n: usize,
    /// Row-major `m × n`: row `i` is `H⁻¹n_i` once `ready[i]`.
    hinv: Vec<f64>,
    /// `gram[(a, b)] = n_a · H⁻¹n_b` for every pair of ready rows.
    gram: Matrix,
    ready: Vec<bool>,
    /// The ready rows, in the order they became ready.
    order: Vec<usize>,
    /// `n_i` and `H⁻¹n_i` of the row being made ready.
    ni: Vector,
    sol: Vector,
}

impl BackSolves {
    /// Sizes the memo for an `m × n` constraint matrix — at
    /// [`PreparedQp::new`], or at the first solve of a clone — so a later
    /// first touch allocates nothing.  The tables are written
    /// out in full with NaN rather than zeroed: zeroed pages would become
    /// resident as rows are touched or as the allocator recycles memory,
    /// so the peak resident set would depend on the allocator's history,
    /// and an entry read before its row is ready would pass for 0 where
    /// NaN poisons the solve.  Sizing at construction places the tables
    /// with the rest of the model rather than among whatever a caller
    /// allocated between build and first solve, so a process that builds
    /// and drops models over and over settles at one peak.
    fn fit(&mut self, m: usize, n: usize) {
        if self.ready.len() == m && self.n == n {
            return;
        }
        *self = BackSolves {
            n,
            hinv: vec![f64::NAN; m * n],
            gram: Matrix::from_vec(m, m, vec![f64::NAN; m * m]),
            ready: vec![false; m],
            order: Vec::with_capacity(m),
            ni: Vector::zeros(n),
            sol: Vector::zeros(n),
        };
    }

    /// Makes row `i` ready: its back-solve, then its Gram entries against
    /// itself and every ready row.  The two orientations of a pair are
    /// computed on their own — `gram[(a, b)]` and `gram[(b, a)]` round
    /// separately, and the subproblem factor reads both (a joining row's
    /// entries are `gram[(p, b)]`, a solve's right-hand side `gram[(b, p)]`).
    fn ensure(&mut self, model: &QpCore, i: usize) -> Result<(), MathError> {
        if self.ready[i] {
            return Ok(());
        }
        let n = self.n;
        // `−g_i` scattered from the stored entries; an entry left out
        // reads as `+0.0`, whose negation is the `−0.0` written first.
        self.ni.as_mut_slice().fill(-0.0);
        let (cols, vals) = model.g_rows.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            self.ni[j] = -v;
        }
        model.chol.solve_into(&self.ni, &mut self.sol)?;
        self.hinv[i * n..(i + 1) * n].copy_from_slice(self.sol.as_slice());
        self.ready[i] = true;
        self.order.push(i);
        let hinv_i = self.sol.as_slice();
        for &j in &self.order {
            // n_a · H⁻¹n_b = −g_a · H⁻¹n_b.
            self.gram[(i, j)] = -model.g_rows.dot(i, &self.hinv[j * n..(j + 1) * n]);
            self.gram[(j, i)] = -model.g_rows.dot(j, hinv_i);
        }
        Ok(())
    }

    /// `H⁻¹n_i` of a ready row `i`.
    fn hinv(&self, i: usize) -> &[f64] {
        &self.hinv[i * self.n..(i + 1) * self.n]
    }

    /// Builds `factor` over the ready rows `rows`, appending them in
    /// order: row `i`'s entries are `gram[(rows[i], b)]` for the rows `b`
    /// before it, as a row that joins the active set is appended.  `false`
    /// when a row is dependent on the rows before it.
    fn build(
        &self,
        rows: &[usize],
        factor: &mut GramFactor,
        border: &mut Vec<f64>,
        work: &mut FactorWork,
    ) -> bool {
        let q = rows.len();
        work.builds += 1;
        work.build_q3 += (q * q * q) as u64;
        work.max_order = work.max_order.max(q);
        factor.clear();
        rows.iter().enumerate().all(|(i, &r)| {
            border.clear();
            border.extend(rows[..i].iter().map(|&b| self.gram[(r, b)]));
            factor.append(border, self.gram[(r, r)])
        })
    }
}

/// The subproblem-factor work of one solve: plain counters, filled in as
/// the solve goes, so reading them allocates nothing.
///
/// A factor is *built* from scratch (`O(q³)`) only for a warm-start guess
/// the instance has not seen before and after a declined append; every
/// other change to the active set is an `O(q²)` append or delete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorWork {
    /// Factors built row by row: the warm start's, for a guess the
    /// instance has not factored before, and the main loop's rebuild after
    /// a declined append.
    pub builds: usize,
    /// `Σ q³` over those builds, `q` the order built.
    pub build_q3: u64,
    /// Rows appended to the factor as they joined the active set.
    pub appends: usize,
    /// Appends declined because the joining row was dependent on the
    /// active rows to rounding; the next iteration rebuilds.
    pub declined: usize,
    /// Rows deleted from the factor: the warm start's drops from its guess
    /// and the main loop's drops.
    pub deletes: usize,
    /// The largest order the factor reached.
    pub max_order: usize,
}

/// The memoized factor of the warm start's subproblem.
///
/// `M = NᵀH⁻¹N` over the de-duplicated guess is a pure function of the
/// guess (`H` and `G` are fixed for a [`PreparedQp`]), and on the
/// controller hot path a guess often comes back period after period.  Its
/// factor is built the first time the guess is seen and kept until the
/// next new guess; a build is deterministic, so a hit has the bits a fresh
/// instance would compute.  Solves read it in place: the first row the
/// warm start drops, or the main loop adds or drops, turns it into a
/// working copy in the workspace, so the memo only ever holds a build of
/// its guess.
#[derive(Debug, Clone, Default)]
struct WarmFactors {
    /// The guess (de-duplicated, in guess order) the factor belongs to.
    cand: Vec<usize>,
    factor: GramFactor,
    /// Whether every row of `cand` went in; `false` when one is dependent
    /// on the rows before it, and the guess falls back to a cold start.
    built: bool,
}

/// Where the factor of the subproblem over the current active set is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// The warm start's memo, read in place: nothing dropped or added yet.
    Memo,
    /// The workspace's working factor.
    Work,
    /// Nowhere: an append declined, and the next solve rebuilds.
    Stale,
}

/// The working factor, with room for order `n`, made a copy of the memo's
/// first when the memo is where `held` says the current factor is.  The
/// room is reserved here, when a solve first writes the factor, so a
/// problem whose active set stays empty never sizes it.
fn working<'a>(
    held: &mut Held,
    factors: &WarmFactors,
    chol: &'a mut GramFactor,
    n: usize,
) -> &'a mut GramFactor {
    chol.reserve(n);
    if *held == Held::Memo {
        chol.copy_from(&factors.factor);
        *held = Held::Work;
    }
    chol
}

/// Every temporary of one solve and the back-solve memo, owned per
/// [`PreparedQp`] instance so a steady-state solve allocates nothing.
///
/// Buffers start empty.  Each is given room for the problem's bound the
/// first time a solve needs it — `n` entries for whatever follows the
/// active set, `n(n+1)/2` for the subproblem factor, the memo's `m × n`
/// and `m × m` tables at construction (a clone's at its first solve) —
/// and is never shrunk, so which solve first reaches a given active-set
/// size or touches a given row does not matter: after the first solve
/// that takes a code path, that path allocates nothing.
/// (Reserved room is untouched memory until a solve actually fills it;
/// the memo's tables are written out, with NaN, when they are sized.)
/// The memo is the one thing kept from solve to solve, and it holds only
/// entries that are pure functions of `H` and `G`, computed by the same
/// expression whichever solve first needs them — so a fresh workspace and
/// a used one give the same bits, and [`PreparedQp::clone`] hands the
/// clone an empty one instead of copying.  A workspace belongs to one
/// model: its memo is that model's.  After a successful solve `x`,
/// `active` and `u` hold the solution.
#[derive(Debug, Default)]
pub(crate) struct QpWorkspace {
    /// Linear term of the least-squares front end (`−Cᵀd`), staged here
    /// by [`PreparedLsq`](crate::PreparedLsq).
    pub(crate) f: Vector,
    /// The iterate; the minimizer on return.
    pub(crate) x: Vector,
    /// Active constraints and their multipliers, parallel.
    pub(crate) active: Vec<usize>,
    pub(crate) u: Vec<f64>,
    /// Unconstrained minimum `−H⁻¹f`.
    x0: Vector,
    /// Membership mirror of `active` for O(1) tests.
    in_active: Vec<bool>,
    /// Primal step direction and dual step of the current iteration.
    z: Vector,
    r: Vector,
    /// The working factor of the subproblem over the active set, and the
    /// row `Gram(p, A)` a joining row `p` appends (also a build's rows,
    /// and the forward substitution behind a diagonal entry of `M⁻¹`).
    chol: GramFactor,
    border: Vec<f64>,
    /// Scratch of the debug build's KKT check of every solve.
    #[cfg(debug_assertions)]
    kkt: KktScratch,
    /// Warm start: dedup marks, candidate set and its multipliers.
    seen: Vec<bool>,
    cand: Vec<usize>,
    wu: Vector,
    /// `H⁻¹n_i` and the Gram entries of the rows touched so far.
    memo: BackSolves,
}

impl QpWorkspace {
    /// Empties the active set and gives every buffer that follows it room
    /// for `n` entries (at most `n` constraints are linearly independent).
    fn begin(&mut self, n: usize) {
        for v in [&mut self.active, &mut self.cand] {
            v.clear();
            v.reserve(n);
        }
        for v in [&mut self.u, &mut self.border] {
            v.clear();
            v.reserve(n);
        }
        for v in [&mut self.r, &mut self.wu] {
            v.reserve(n);
        }
    }

    /// Copies the solution of the solve that just returned `stats` into
    /// `out`, reusing `out`'s buffers.
    fn write_solution(&self, m: usize, stats: SolveStats, out: &mut QpSolution) {
        out.x.clone_from(&self.x);
        out.multipliers.resize(m);
        out.multipliers.as_mut_slice().fill(0.0);
        for (&c, &uc) in self.active.iter().zip(&self.u) {
            out.multipliers[c] = uc;
        }
        copy_active_set(&self.active, self.x.len(), &mut out.active);
        out.iterations = stats.iterations;
        out.warm_retained = stats.warm_retained;
        out.factor_work = stats.factor_work;
    }
}

/// Copies an active set into `dst`, first giving `dst` room for the
/// `n` rows an active set can hold — so a destination reused across
/// solves allocates once, not each time the set outgrows its past sizes.
pub(crate) fn copy_active_set(active: &[usize], n: usize, dst: &mut Vec<usize>) {
    dst.clear();
    dst.reserve(n);
    dst.extend_from_slice(active);
}

/// What a solve reports besides the solution left in its workspace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveStats {
    pub(crate) iterations: usize,
    pub(crate) warm_retained: usize,
    pub(crate) factor_work: FactorWork,
}

/// Rejects non-finite entries of an input (`G` row-major, or a per-solve
/// vector).
pub(crate) fn check_finite(what: &'static str, v: &[f64]) -> Result<(), QpError> {
    match v.iter().position(|e| !e.is_finite()) {
        Some(index) => Err(QpError::NonFiniteInput { what, index }),
        None => Ok(()),
    }
}

/// The Goldfarb–Idnani solve behind [`PreparedQp`] and
/// [`PreparedLsq`](crate::PreparedLsq) over the first `hvec.len()`
/// constraint rows; the solution is left in `ws`.
///
/// The subproblem's Cholesky factor follows the active set both ways: a
/// row that joins is appended, a row that drops is deleted, and only
/// where an append declines is the factor built again.  It starts as
/// the warm start's (`factors`, read in place until the first change) or
/// empty.
fn solve_with_chol(
    model: &QpCore,
    f: &Vector,
    hvec: &Vector,
    warm: &[usize],
    factors: &mut WarmFactors,
    ws: &mut QpWorkspace,
) -> Result<SolveStats, QpError> {
    // `0 · ±inf` is the one product a skipped zero would have changed,
    // and a NaN or infinite entry silently disables constraints (an
    // infinite `tol`) or poisons `x`: finite inputs only.
    check_finite("f", f.as_slice())?;
    check_finite("h", hvec.as_slice())?;
    let n = f.len();
    let rows = &model.g_rows;
    let m = hvec.len();
    ws.begin(n);
    let mut work = FactorWork::default();
    if n == 0 {
        // No variables: the empty minimizer, whatever the constraints say.
        ws.x.resize(0);
        return Ok(SolveStats {
            iterations: 0,
            warm_retained: 0,
            factor_work: work,
        });
    }
    // Unconstrained minimum `−H⁻¹f`, with `x` as the staging buffer for
    // `−f`.
    ws.x.clone_from(f);
    for v in ws.x.as_mut_slice() {
        *v = -*v;
    }
    model.chol.solve_into(&ws.x, &mut ws.x0)?;
    let tol = tolerance(model.scale[m], hvec);
    let max_iter = 50 * (m + 1);

    ws.x.clone_from(&ws.x0);
    // `active` and `u` stay parallel throughout; `in_active` mirrors
    // membership for O(1) tests.  Every active row is ready in the memo:
    // it was made ready before it could join.  The memo covers every row
    // of the model, whichever prefix this solve reads.
    ws.in_active.clear();
    ws.in_active.resize(m, false);
    ws.memo.fit(rows.rows(), n);

    let warm_held = if warm.is_empty() {
        None
    } else {
        try_warm_start(model, hvec, warm, tol, n, factors, ws, &mut work)
    };
    let mut held = match warm_held {
        Some(held) => {
            for &a in &ws.active {
                ws.in_active[a] = true;
            }
            held
        }
        None => {
            ws.chol.clear();
            Held::Work
        }
    };
    let warm_retained = ws.active.len();
    let QpWorkspace {
        x,
        active,
        u,
        in_active,
        z,
        r,
        chol,
        border,
        memo,
        ..
    } = ws;

    let mut iterations = 0;
    'outer: loop {
        // Most violated inactive constraint (g_p·x − h_p > tol).
        let Some(p) = rows.most_violated(x.as_slice(), hvec.as_slice(), in_active, tol) else {
            return Ok(SolveStats {
                iterations,
                warm_retained,
                factor_work: work,
            });
        };

        // H⁻¹n_p for the normal n_p = −g_pᵀ of constraint p in `≥`
        // orientation, and its Gram entries against the active rows.
        memo.ensure(model, p)?;
        let mut u_p = 0.0;

        loop {
            iterations += 1;
            if iterations > max_iter {
                return Err(QpError::IterationLimit { iterations });
            }

            // z: primal step direction; r: dual step for active set, from
            // M r = Nᵀ H⁻¹ n_p, both read from the memo.
            let q = active.len();
            z.resize(n);
            z.copy_from_slice(memo.hinv(p));
            r.resize(q);
            for a in 0..q {
                r[a] = memo.gram[(active[a], p)];
            }
            if q > 0 {
                if held == Held::Stale {
                    chol.reserve(n);
                    if !memo.build(active, chol, border, &mut work) {
                        return Err(QpError::Math(MathError::Singular));
                    }
                    held = Held::Work;
                }
                let factor = if held == Held::Memo {
                    &factors.factor
                } else {
                    &*chol
                };
                factor.forward(r.as_mut_slice());
                factor.back(r.as_mut_slice());
                for b in 0..q {
                    kernel::axpy(z.as_mut_slice(), -r[b], memo.hinv(active[b]));
                }
            }

            // Maximum step preserving non-negative multipliers.
            let mut t1 = f64::INFINITY;
            let mut drop_idx = None;
            for (j, &rj) in r.iter().enumerate() {
                if rj > tol {
                    let ratio = u[j] / rj;
                    if ratio < t1 {
                        t1 = ratio;
                        drop_idx = Some(j);
                    }
                }
            }

            // z·n_p = −g_p·z.  The full step t2 drives p's violation to
            // zero; where p cannot be satisfied by a primal move there is
            // none, and only the dual step that relaxes a blocking
            // constraint remains.  With n rows active every normal lies in
            // their span: z is zero but for rounding, which must not pass
            // for a direction.
            let ztnp = if q == n {
                0.0
            } else {
                -rows.dot(p, z.as_slice())
            };
            let full = if ztnp <= tol {
                if t1.is_infinite() {
                    return Err(QpError::Infeasible);
                }
                None
            } else {
                Some((rows.dot(p, x.as_slice()) - hvec[p]) / ztnp)
            };
            let t = full.map_or(t1, |t2| t1.min(t2));
            if full.is_some() {
                x.axpy(t, z);
            }
            for (j, rj) in r.iter().enumerate() {
                u[j] -= t * rj;
            }
            u_p += t;

            if full.is_some_and(|t2| t2 <= t1) {
                if held != Held::Stale {
                    let factor = working(&mut held, factors, chol, n);
                    border.clear();
                    border.extend(active.iter().map(|&b| memo.gram[(p, b)]));
                    if factor.append(border, memo.gram[(p, p)]) {
                        work.appends += 1;
                        work.max_order = work.max_order.max(factor.order());
                    } else {
                        work.declined += 1;
                        held = Held::Stale;
                    }
                }
                active.push(p);
                u.push(u_p);
                in_active[p] = true;
                continue 'outer;
            }
            let j = drop_idx.expect("a step short of the full one has a blocking index");
            in_active[active[j]] = false;
            active.remove(j);
            u.remove(j);
            if held != Held::Stale {
                working(&mut held, factors, chol, n).delete(j);
                work.deletes += 1;
            }
        }
    }
}

/// Attempts to start the dual iteration from a guessed active set.
///
/// Solves the equality-constrained subproblem for the guess, dropping the
/// most negative multiplier until the remaining set is dual feasible
/// (`u ≥ 0`).  The resulting `(x, active, u)` — written into `ws` —
/// satisfies the dual method's invariant — `x` minimizes the objective
/// over the span of the active constraints with non-negative multipliers —
/// so the main loop can resume from it as if it had built that set itself.
/// Returns where the factor over that set is, or `None` (cold start,
/// `ws.x`/`active`/`u` untouched) when a row of the guess is dependent on
/// the rows before it.
///
/// The factor of the whole guess comes from `factors` (built on a miss);
/// every drop is a delete on the workspace's working copy.
#[allow(clippy::too_many_arguments)]
fn try_warm_start(
    model: &QpCore,
    hvec: &Vector,
    warm: &[usize],
    tol: f64,
    n: usize,
    factors: &mut WarmFactors,
    ws: &mut QpWorkspace,
    work: &mut FactorWork,
) -> Option<Held> {
    let rows = &model.g_rows;
    let m = hvec.len();
    let QpWorkspace {
        x,
        active,
        u: u_out,
        x0,
        chol,
        border,
        seen,
        cand,
        wu: u,
        memo,
        ..
    } = ws;
    seen.clear();
    seen.resize(m, false);
    // (`cand` was emptied by `QpWorkspace::begin`.)
    for &a in warm {
        if a < m && !seen[a] {
            seen[a] = true;
            cand.push(a);
        }
    }
    // More than n active constraints cannot be linearly independent.
    cand.truncate(n);
    if cand.is_empty() {
        return None;
    }
    // The loop below only shrinks `cand`: every row it reads is ready.
    for &a in cand.iter() {
        memo.ensure(model, a).ok()?;
    }
    if factors.cand != *cand {
        copy_active_set(cand, n, &mut factors.cand);
        factors.factor.reserve(n);
        factors.built = memo.build(cand, &mut factors.factor, border, work);
    }
    if !factors.built {
        return None;
    }
    work.max_order = work.max_order.max(cand.len());
    let mut held = Held::Memo;

    loop {
        if cand.is_empty() {
            return None;
        }
        let q = cand.len();
        let factor = if held == Held::Memo {
            &factors.factor
        } else {
            &*chol
        };

        // M u = b_A − Nᵀx0, with b_a = −hvec[a] and n_a = −g_aᵀ, i.e.
        // the right-hand side g_a·x0 − hvec[a].
        u.resize(q);
        for a in 0..q {
            u[a] = rows.dot(cand[a], x0.as_slice()) - hvec[cand[a]];
        }
        factor.forward(u.as_mut_slice());
        factor.back(u.as_mut_slice());

        // Drop the most negative multiplier and re-solve, until the guess
        // is dual feasible.
        let mut worst_j = None;
        let mut worst_u = -tol;
        for j in 0..q {
            if u[j] < worst_u {
                worst_u = u[j];
                worst_j = Some(j);
            }
        }

        // Dual feasibility alone is not enough to match the cold start on
        // degenerate problems: a guess row whose hyperplane passes within
        // tolerance of the true optimum is retained here with a small
        // positive multiplier, while a cold start never adds it (its
        // violation stays under `tol`) — two answers that differ at
        // tolerance level.  Align the two by applying the cold start's own
        // criterion: drop the weakest constraint whenever the main loop
        // would not re-add the row (violation at the reduced optimum ≤
        // `tol`).  That violation is `u_w / (M⁻¹)_ww` (the optimum without
        // row w moves along M⁻¹e_w until u_w is spent), read off the
        // factor by one partial forward substitution.
        let drop = worst_j.or_else(|| {
            let mut weakest = 0;
            for j in 1..q {
                if u[j] < u[weakest] {
                    weakest = j;
                }
            }
            let viol_without = u[weakest] / factor.inverse_diagonal(weakest, border);
            (viol_without <= tol).then_some(weakest)
        });
        if let Some(j) = drop {
            working(&mut held, factors, chol, n).delete(j);
            work.deletes += 1;
            cand.remove(j);
            continue;
        }

        x.clone_from(x0);
        for b in 0..q {
            kernel::axpy(x.as_mut_slice(), u[b], memo.hinv(cand[b]));
        }
        active.extend_from_slice(cand);
        u_out.extend_from_slice(u.as_slice());
        return Some(held);
    }
}

/// The tolerance of a solve: `TOL` relative to the larger of the model's
/// scale and `|h|∞`.
fn tolerance(base_scale: f64, hvec: &Vector) -> f64 {
    TOL * base_scale.max(hvec.max_abs())
}

/// The immutable heart of a [`PreparedQp`]: everything fixed at
/// preparation time (the nonzeros of `G`, the Cholesky factor of `H`, the
/// tolerance scales).  Neither `H` nor the dense `G` is kept: after
/// construction every use of them goes through the factor and the sparse
/// rows.
///
/// Held behind an [`Arc`] so cloning a prepared problem — e.g. fanning a
/// homogeneous fleet's shared model out to thousands of loops — shares
/// one copy of the factorization instead of deep-copying it.  Nothing in
/// here ever mutates after construction; all per-solve mutable state (the
/// warm-start factors, the workspace with its back-solve memo) lives
/// outside the `Arc`, per clone.
#[derive(Debug)]
struct QpCore {
    /// The nonzeros of `G`: every `g_i · v` of a solve reads these.
    g_rows: SparseRows,
    chol: Cholesky,
    /// `scale[k] = max(|G[..k]|, |H|, 1)`, the scale of the problem over
    /// the first `k` rows; the per-solve tolerance also folds in `|h|`.
    scale: Vec<f64>,
}

/// Scratch of the debug build's KKT check of a solve: `Lᵀx`, the
/// stationarity residual, and the multipliers spread over every row.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct KktScratch {
    ltx: Vector,
    grad: Vector,
    lambda: Vector,
}

impl QpCore {
    /// Largest violation of the KKT conditions of `min ½xᵀHx + fᵀx` s.t.
    /// `Gx ≤ hvec` at `x` with multipliers `lambda` (one per row):
    /// stationarity `Hx + f + Gᵀλ = 0`, primal and dual feasibility, and
    /// complementary slackness as `|min(λ_i, s_i)|` for the slack
    /// `s_i = h_i − g_i·x`.  The product `|λ_i·s_i|` would grow with the
    /// multipliers: where the feasible region lies far from the
    /// unconstrained minimum they reach 1e5, and an exact answer's
    /// rounding-level slacks read thousands of tolerances.  `Hx` is formed
    /// as `L(Lᵀx)` from the Cholesky factor, inside its band.
    fn kkt_residual(
        &self,
        f: &Vector,
        hvec: &Vector,
        x: &Vector,
        lambda: &Vector,
        ltx: &mut Vector,
        grad: &mut Vector,
    ) -> f64 {
        let (l, band) = (self.chol.l(), self.chol.bandwidth());
        let n = x.len();
        ltx.resize(n);
        ltx.as_mut_slice().fill(0.0);
        for i in 0..n {
            let lo = i.saturating_sub(band);
            kernel::axpy(&mut ltx.as_mut_slice()[lo..=i], x[i], &l.row(i)[lo..=i]);
        }
        grad.clone_from(f);
        for i in 0..n {
            let lo = i.saturating_sub(band);
            grad[i] += kernel::dot(&l.row(i)[lo..=i], &ltx.as_slice()[lo..=i]);
        }
        for (i, &lam) in lambda.iter().enumerate() {
            let (cols, vals) = self.g_rows.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                grad[j] += lam * v;
            }
        }
        let mut worst = grad.max_abs();
        for (i, &lam) in lambda.iter().enumerate() {
            let slack = hvec[i] - self.g_rows.dot(i, x.as_slice());
            worst = worst.max(-slack).max(-lam).max(lam.min(slack).abs());
        }
        worst
    }
}

/// A strictly convex quadratic program `min ½xᵀHx + fᵀx` subject to
/// `Gx ≤ h`, with `H` and `G` fixed and prepared for repeated solves with
/// varying `f` and `h`.
///
/// Solved by the dual active-set method of Goldfarb & Idnani (1983) — the
/// algorithm family used by production QP codes (`quadprog`, MATLAB's
/// medium-scale `lsqlin`).  The dual method starts from the unconstrained
/// minimum `x = −H⁻¹f` and adds violated constraints one at a time, so it
/// never needs a feasible starting point and certifies infeasibility.
///
/// Construction performs the only Cholesky factorization of `H`.  A
/// constraint row's back-solve `H⁻¹n_i` and its Gram entries against the
/// other touched rows are computed the first time a solve needs the row
/// and kept for every later solve, so rows no solve touches cost nothing;
/// once the rows a run uses are in, each [`solve`](PreparedQp::solve) is a
/// pair of triangular back-substitutions plus active-set bookkeeping.
/// This matches the controller hot path, where the plant model (hence `H`
/// and the constraint matrix) never changes between sampling periods while
/// the set-point error (`f`) and constraint slacks (`h`) do.  A single
/// solve is a fresh instance solved once.  The problem over the leading
/// rows of `G` alone needs no second preparation
/// ([`solve_prefix_into`](PreparedQp::solve_prefix_into)).
///
/// Cloning is cheap: the immutable model (`QpCore`) is shared through an
/// `Arc`, only the per-instance warm-start factor memos are copied, and the
/// clone starts with an empty workspace, back-solves included — so N
/// homogeneous controllers hold one factorization, not N, and each
/// derives only the rows its own solves touch.  A clone's solves are
/// bit-identical to the original's regardless of sharing (the shared
/// state never mutates; the factors are deterministic; a back-solve has
/// the same bits whichever solve first computes it).
///
/// # Example
///
/// ```
/// use eucon_math::{Matrix, Vector};
/// use eucon_qp::PreparedQp;
///
/// # fn main() -> Result<(), eucon_qp::QpError> {
/// // min ½‖x‖² s.t. x0 ≥ 1 (written as −x0 ≤ −1)
/// let qp = PreparedQp::new(Matrix::identity(2), Matrix::from_rows(&[&[-1.0, 0.0]]))?;
/// let (f, h) = (Vector::zeros(2), Vector::from_slice(&[-1.0]));
/// let sol = qp.solve(&f, &h, &[])?;
/// assert!((sol.x[0] - 1.0).abs() < 1e-9);
/// assert!(sol.x[1].abs() < 1e-9);
/// assert!(qp.kkt_residual(&f, &h, &sol) < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PreparedQp {
    core: Arc<QpCore>,
    /// The warm-start subproblem factor memoized across solves (see
    /// [`WarmFactors`]): the full solves' and the prefix solves', so the
    /// two alternating do not evict each other's factor.  Interior
    /// mutability keeps [`PreparedQp::solve`] callable through a shared
    /// reference.  Per clone, outside the shared core.
    warm_factors: [RefCell<WarmFactors>; 2],
    /// Every temporary of a solve and the back-solve memo (see
    /// [`QpWorkspace`]).  Per clone like the factors, and for the same
    /// reason: two loops sharing one model must not share mutable state.
    workspace: RefCell<QpWorkspace>,
}

impl Clone for PreparedQp {
    /// Shares the immutable model; copies the warm-start factor memos as
    /// they are (a pristine instance clones to a pristine instance).  The
    /// workspace is not copied: its back-solves are recomputed bit for bit
    /// on first touch, and a fleet of clones should each grow only the
    /// scratch and the rows their own solves reach.
    fn clone(&self) -> Self {
        PreparedQp {
            core: Arc::clone(&self.core),
            warm_factors: self.warm_factors.clone(),
            workspace: RefCell::default(),
        }
    }
}

impl PreparedQp {
    /// Factorizes `H` and sizes the back-solve memo; the per-constraint
    /// back-solves wait for the first solve that touches each row.
    ///
    /// # Errors
    ///
    /// * [`QpError::NotStrictlyConvex`] — `h` is not square or not positive
    ///   definite.
    /// * [`QpError::DimensionMismatch`] — `g.cols() != h.rows()`.
    /// * [`QpError::NonFiniteInput`] — `g` has a NaN or infinite entry
    ///   (`what` is `"g"`, `index` its row-major position).  Such an entry
    ///   would make every solve's tolerance infinite or drop its row.
    pub fn new(h: Matrix, g: Matrix) -> Result<Self, QpError> {
        if !h.is_square() {
            return Err(QpError::NotStrictlyConvex);
        }
        if g.cols() != h.rows() {
            return Err(QpError::DimensionMismatch(format!(
                "constraint row width {} does not match hessian order {}",
                g.cols(),
                h.rows()
            )));
        }
        check_finite("g", g.as_slice())?;
        let chol = Cholesky::decompose(&h).map_err(|e| match e {
            MathError::NotPositiveDefinite => QpError::NotStrictlyConvex,
            other => QpError::Math(other),
        })?;
        let g_rows = SparseRows::from_matrix(&g);
        // `max` is exact: the bits of `G[..k].max_abs().max(h.max_abs()).max(1.0)`.
        let mut scale = vec![h.max_abs().max(1.0)];
        for i in 0..g_rows.rows() {
            scale.push(g_rows.row(i).1.iter().fold(scale[i], |s, v| s.max(v.abs())));
        }
        drop((h, g)); // before the memo's tables are written out

        let mut workspace = QpWorkspace::default();
        workspace.memo.fit(g_rows.rows(), g_rows.cols());
        Ok(PreparedQp {
            core: Arc::new(QpCore {
                g_rows,
                chol,
                scale,
            }),
            warm_factors: Default::default(),
            workspace: RefCell::new(workspace),
        })
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.core.g_rows.cols()
    }

    /// Number of inequality constraints.
    pub fn num_constraints(&self) -> usize {
        self.core.g_rows.rows()
    }

    /// Whether `self` and `other` share one immutable model (the nonzeros
    /// of `G`, the Cholesky factor of `H`; back-solves are per
    /// instance) — true exactly for clones of a common ancestor.  Probe
    /// for the fleet's shared-model cache tests; sharing never changes
    /// results, only memory.
    pub fn shares_model(&self, other: &PreparedQp) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// Lower bandwidth the Cholesky factorization detected in `H`.
    ///
    /// The MPC Hessian `CᵀC + εI` is block banded when the subtask
    /// allocation couples only nearby tasks; anything below
    /// `num_vars() - 1` means the banded `O(n·b²)` factor/solve paths are
    /// in effect for this problem.
    pub fn hessian_bandwidth(&self) -> usize {
        self.core.chol.bandwidth()
    }

    /// Solves `min ½xᵀHx + fᵀx` s.t. `Gx ≤ hvec` for the prepared `H`, `G`.
    ///
    /// `warm` seeds the active set, typically with the active set of the
    /// previous solve of a slowly varying problem; pass an empty slice for
    /// a cold start.  The guess only affects the starting point of the
    /// dual iteration, not the solution: indices that are out of range or
    /// not actually active at the optimum are discarded along the way, and
    /// a guess whose equality subproblem is singular falls back to a cold
    /// start.  When the guess is exact the solver performs zero active-set
    /// iterations.  Allocates the returned solution;
    /// [`solve_into`](PreparedQp::solve_into) is the same solve into a
    /// caller-owned one.
    ///
    /// # Errors
    ///
    /// * [`QpError::NonFiniteInput`] — `f` or `hvec` has a NaN or infinite
    ///   entry.
    /// * [`QpError::Infeasible`] — no point satisfies all constraints.
    /// * [`QpError::IterationLimit`] — active-set cycling (should not occur
    ///   for well-scaled inputs).
    ///
    /// # Panics
    ///
    /// Panics if `f` or `hvec` have lengths inconsistent with the prepared
    /// problem.
    pub fn solve(&self, f: &Vector, hvec: &Vector, warm: &[usize]) -> Result<QpSolution, QpError> {
        let mut sol = QpSolution::default();
        self.solve_into(f, hvec, warm, &mut sol)?;
        Ok(sol)
    }

    /// [`solve`](PreparedQp::solve) into a caller-owned solution whose
    /// buffers are reused: once they and this instance's workspace have
    /// grown to the sizes the problem reaches, a solve performs no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedQp::solve`]; `out` is untouched on
    /// error.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PreparedQp::solve`].
    pub fn solve_into(
        &self,
        f: &Vector,
        hvec: &Vector,
        warm: &[usize],
        out: &mut QpSolution,
    ) -> Result<(), QpError> {
        let ws = &mut *self.workspace();
        let stats = self.solve_in(ws, f, hvec, warm, false)?;
        ws.write_solution(hvec.len(), stats, out);
        Ok(())
    }

    /// [`solve_into`](PreparedQp::solve_into) over the first `k =
    /// hvec.len()` rows of `G` alone (`k` at most the constraint count),
    /// with the tolerance scale, iteration cap and warm-start factor memo
    /// of that problem, sharing the factor and the back-solve memo: the
    /// answer of `PreparedQp::new(h, G[..k])`, factor work and errors
    /// included, bit for bit.
    pub fn solve_prefix_into(
        &self,
        f: &Vector,
        hvec: &Vector,
        warm: &[usize],
        out: &mut QpSolution,
    ) -> Result<(), QpError> {
        let ws = &mut *self.workspace();
        let stats = self.solve_in(ws, f, hvec, warm, true)?;
        ws.write_solution(hvec.len(), stats, out);
        Ok(())
    }

    /// Maximum KKT residual of a candidate solution of `min ½xᵀHx + fᵀx`
    /// s.t. `Gx ≤ hvec`: stationarity, primal and dual feasibility and
    /// complementary slackness (as `|min(λ_i, h_i − g_i·x)|`, which does
    /// not grow with the multipliers), read from `sol.x` and
    /// `sol.multipliers`.
    /// The prepared `H` enters through its Cholesky factor.  A debug build
    /// checks every successful solve against this residual (at most ten
    /// times the solve's tolerance).
    ///
    /// # Panics
    ///
    /// Panics if the lengths of `f`, `hvec`, `sol.x` or `sol.multipliers`
    /// are inconsistent with the prepared problem.
    pub fn kkt_residual(&self, f: &Vector, hvec: &Vector, sol: &QpSolution) -> f64 {
        let (n, m) = (self.num_vars(), self.num_constraints());
        assert_eq!(
            (f.len(), sol.x.len(), hvec.len(), sol.multipliers.len()),
            (n, n, m, m),
            "f and x need one entry per variable, hvec and the multipliers one per constraint"
        );
        let (mut ltx, mut grad) = (Vector::zeros(0), Vector::zeros(0));
        self.core
            .kkt_residual(f, hvec, &sol.x, &sol.multipliers, &mut ltx, &mut grad)
    }

    /// This instance's workspace (the least-squares front end stages its
    /// linear term there and reads the solution from it).
    pub(crate) fn workspace(&self) -> RefMut<'_, QpWorkspace> {
        self.workspace.borrow_mut()
    }

    /// The solve itself, leaving the solution in `ws` (which must be this
    /// instance's workspace or a fresh one), over every row or, with
    /// `prefix`, the first `hvec.len()`.  In a debug build the solution's
    /// KKT residual must be within ten times the solve's tolerance.
    pub(crate) fn solve_in(
        &self,
        ws: &mut QpWorkspace,
        f: &Vector,
        hvec: &Vector,
        warm: &[usize],
        prefix: bool,
    ) -> Result<SolveStats, QpError> {
        assert_eq!(
            f.len(),
            self.num_vars(),
            "objective length must match variable count"
        );
        let m = self.num_constraints();
        assert!(
            hvec.len() == m || prefix && hvec.len() < m,
            "rhs length must match constraint count (a prefix's, at most it)"
        );
        let factors = &mut self.warm_factors[usize::from(prefix)].borrow_mut();
        let stats = solve_with_chol(&self.core, f, hvec, warm, factors, ws)?;
        #[cfg(debug_assertions)]
        self.assert_certified(ws, f, hvec);
        Ok(stats)
    }

    /// The debug build's postcondition of a successful solve: the KKT
    /// residual of the solution left in `ws` is at most `10·tol`.  With no
    /// variables the solver answers the empty minimizer whatever `hvec`
    /// says, so there is nothing to certify.  Works in the workspace's
    /// own scratch: the check allocates nothing once it has run.
    #[cfg(debug_assertions)]
    fn assert_certified(&self, ws: &mut QpWorkspace, f: &Vector, hvec: &Vector) {
        if f.is_empty() {
            return;
        }
        let QpWorkspace {
            x,
            active,
            u,
            kkt: KktScratch { ltx, grad, lambda },
            ..
        } = ws;
        lambda.resize(hvec.len());
        lambda.as_mut_slice().fill(0.0);
        for (&a, &ua) in active.iter().zip(u.iter()) {
            lambda[a] = ua;
        }
        let residual = self.core.kkt_residual(f, hvec, x, lambda, ltx, grad);
        let tol = tolerance(self.core.scale[hvec.len()], hvec);
        assert!(
            residual <= 10.0 * tol,
            "KKT residual {residual:e} exceeds 10·tol = {:e} (active set {active:?})",
            10.0 * tol
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A prepared `H` with the constraint rows `rows` (none when empty).
    fn prepared(h: Matrix, rows: &[&[f64]]) -> PreparedQp {
        let g = if rows.is_empty() {
            Matrix::zeros(0, h.rows())
        } else {
            Matrix::from_rows(rows)
        };
        PreparedQp::new(h, g).unwrap()
    }

    #[test]
    fn unconstrained_minimum() {
        // min ½‖x‖² − [1,2]·x → x = [1,2].
        let qp = prepared(Matrix::identity(2), &[]);
        let f = Vector::from_slice(&[-1.0, -2.0]);
        let sol = qp.solve(&f, &Vector::zeros(0), &[]).unwrap();
        assert!(sol.x.approx_eq(&Vector::from_slice(&[1.0, 2.0]), 1e-10));
        assert!(sol.active.is_empty());
    }

    #[test]
    fn single_active_constraint() {
        // min ½‖x‖² s.t. x0 ≥ 1.
        let qp = prepared(Matrix::identity(2), &[&[-1.0, 0.0]]);
        let (f, h) = (Vector::zeros(2), Vector::from_slice(&[-1.0]));
        let sol = qp.solve(&f, &h, &[]).unwrap();
        assert!(sol.x.approx_eq(&Vector::from_slice(&[1.0, 0.0]), 1e-10));
        assert_eq!(sol.active, vec![0]);
        assert!((sol.multipliers[0] - 1.0).abs() < 1e-9);
        assert!(qp.kkt_residual(&f, &h, &sol) < 1e-9);
    }

    #[test]
    fn inactive_constraints_are_ignored() {
        // Same objective; constraint x0 ≤ 5 is never binding.
        let qp = prepared(Matrix::identity(2), &[&[1.0, 0.0]]);
        let sol = qp
            .solve(&Vector::zeros(2), &Vector::from_slice(&[5.0]), &[])
            .unwrap();
        assert!(sol.x.max_abs() < 1e-10);
        assert!(sol.active.is_empty());
        assert_eq!(sol.multipliers[0], 0.0);
    }

    #[test]
    fn two_constraints_corner() {
        // min ½‖x − [2,2]‖² s.t. x0 ≤ 1, x1 ≤ 1 → corner [1,1].
        let qp = prepared(Matrix::identity(2), &[&[1.0, 0.0], &[0.0, 1.0]]);
        let (f, h) = (
            Vector::from_slice(&[-2.0, -2.0]),
            Vector::from_slice(&[1.0, 1.0]),
        );
        let sol = qp.solve(&f, &h, &[]).unwrap();
        assert!(sol.x.approx_eq(&Vector::from_slice(&[1.0, 1.0]), 1e-10));
        assert_eq!(sol.active.len(), 2);
        assert!(qp.kkt_residual(&f, &h, &sol) < 1e-9);
    }

    #[test]
    fn constraint_drop_is_exercised() {
        // The unconstrained optimum violates both constraints, but only one
        // is active at the optimum, forcing an add-then-drop sequence for
        // some processing orders.
        // min ½‖x − [3,0]‖² s.t. x0 + x1 ≤ 1, x0 − x1 ≤ 1.
        let qp = prepared(Matrix::identity(2), &[&[1.0, 1.0], &[1.0, -1.0]]);
        let (f, h) = (
            Vector::from_slice(&[-3.0, 0.0]),
            Vector::from_slice(&[1.0, 1.0]),
        );
        let sol = qp.solve(&f, &h, &[]).unwrap();
        // Optimum is x = [1, 0] with both constraints active.
        assert!(sol.x.approx_eq(&Vector::from_slice(&[1.0, 0.0]), 1e-9));
        assert!(qp.kkt_residual(&f, &h, &sol) < 1e-9);
    }

    #[test]
    fn detects_infeasible() {
        // x0 ≤ 0 and x0 ≥ 1 cannot both hold.
        let qp = prepared(Matrix::identity(2), &[&[1.0, 0.0], &[-1.0, 0.0]]);
        let h = Vector::from_slice(&[0.0, -1.0]);
        assert_eq!(
            qp.solve(&Vector::zeros(2), &h, &[]).unwrap_err(),
            QpError::Infeasible
        );
    }

    #[test]
    fn rejects_indefinite_hessian() {
        let h = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]);
        let r = PreparedQp::new(h, Matrix::zeros(0, 2));
        assert_eq!(r.unwrap_err(), QpError::NotStrictlyConvex);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        assert!(matches!(
            PreparedQp::new(Matrix::identity(2), Matrix::zeros(1, 3)),
            Err(QpError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn empty_problem() {
        let qp = PreparedQp::new(Matrix::zeros(0, 0), Matrix::zeros(0, 0)).unwrap();
        let sol = qp.solve(&Vector::zeros(0), &Vector::zeros(0), &[]).unwrap();
        assert!(sol.x.is_empty());
        // No variables in a least-squares problem: the residual is `‖d‖`.
        let lsq = crate::PreparedLsq::new(Matrix::zeros(2, 0), Matrix::zeros(0, 0), 0.0).unwrap();
        let sol = lsq
            .solve_with(&Vector::from_slice(&[3.0, 4.0]), &Vector::zeros(0), &[])
            .unwrap();
        assert!(sol.x.is_empty());
        assert_eq!(sol.residual, 5.0);
    }

    #[test]
    fn redundant_duplicate_constraints() {
        // The same constraint twice must not confuse the active set.
        let qp = prepared(Matrix::identity(1), &[&[1.0], &[1.0]]);
        let h = Vector::from_slice(&[1.0, 1.0]);
        let sol = qp.solve(&Vector::from_slice(&[-2.0]), &h, &[]).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn equality_like_tight_box() {
        // 0.5 ≤ x0 ≤ 0.5 pins the variable.
        let qp = prepared(Matrix::identity(1), &[&[1.0], &[-1.0]]);
        let h = Vector::from_slice(&[0.5, -0.5]);
        let sol = qp.solve(&Vector::zeros(1), &h, &[]).unwrap();
        assert!((sol.x[0] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn coupled_hessian() {
        // Non-diagonal H exercises the Cholesky path.
        let h = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 2.0]]);
        let qp = prepared(h, &[&[-1.0, 0.0]]);
        let (f, hvec) = (
            Vector::from_slice(&[-1.0, -1.0]),
            Vector::from_slice(&[-0.5]),
        );
        let sol = qp.solve(&f, &hvec, &[]).unwrap();
        assert!(qp.kkt_residual(&f, &hvec, &sol) < 1e-9);
        assert!(sol.x[0] >= 0.5 - 1e-10);
    }

    /// `min ½‖x − t‖²` s.t. `x ≤ 1` per coordinate, with `f = −t`.
    fn unit_box() -> (PreparedQp, Vector) {
        let qp = prepared(Matrix::identity(2), &[&[1.0, 0.0], &[0.0, 1.0]]);
        (qp, Vector::from_slice(&[1.0, 1.0]))
    }

    #[test]
    fn warm_start_with_exact_active_set_takes_zero_iterations() {
        // Target [2, 2]: both rows active.
        let (qp, h) = unit_box();
        let f = Vector::from_slice(&[-2.0, -2.0]);
        let cold = qp.solve(&f, &h, &[]).unwrap();
        assert!(cold.iterations > 0);
        let warm = qp.solve(&f, &h, &cold.active).unwrap();
        assert_eq!(warm.iterations, 0);
        assert!(warm.x.approx_eq(&cold.x, 1e-12));
        assert!(qp.kkt_residual(&f, &h, &warm) < 1e-9);
    }

    #[test]
    fn warm_start_with_wrong_guess_still_finds_optimum() {
        // Optimum activates row 0 only; seed with the other row.
        let (qp, h) = unit_box();
        let f = Vector::from_slice(&[-2.0, 0.0]);
        let cold = qp.solve(&f, &h, &[]).unwrap();
        let warm = qp.solve(&f, &h, &[1]).unwrap();
        assert!(warm.x.approx_eq(&cold.x, 1e-10));
        assert_eq!(warm.active, cold.active);
        assert!(qp.kkt_residual(&f, &h, &warm) < 1e-9);
    }

    #[test]
    fn warm_start_tolerates_garbage_indices() {
        let qp = prepared(Matrix::identity(2), &[&[-1.0, 0.0]]);
        let (f, h) = (Vector::zeros(2), Vector::from_slice(&[-1.0]));
        let cold = qp.solve(&f, &h, &[]).unwrap();
        // Out-of-range and duplicate indices must be ignored, not panic.
        let warm = qp.solve(&f, &h, &[7, 0, 0, 99]).unwrap();
        assert!(warm.x.approx_eq(&cold.x, 1e-10));
    }

    #[test]
    fn warm_start_with_dependent_rows_falls_back_to_cold() {
        // Duplicate rows make the warm subproblem singular.
        let qp = prepared(Matrix::identity(1), &[&[1.0], &[1.0]]);
        let h = Vector::from_slice(&[1.0, 1.0]);
        let warm = qp.solve(&Vector::from_slice(&[-2.0]), &h, &[0, 1]).unwrap();
        assert!((warm.x[0] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn prepared_warm_start_across_rhs_changes() {
        // Track a drifting target under fixed bounds: the active set is
        // stable between consecutive solves, so warm restarts are free.
        let prepared = PreparedQp::new(
            Matrix::identity(2),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
        )
        .unwrap();
        let hvec = Vector::from_slice(&[1.0, 1.0]);
        let mut warm: Vec<usize> = Vec::new();
        for k in 0..5 {
            let target = 2.0 + 0.1 * k as f64;
            let f = Vector::from_slice(&[-target, -target]);
            let sol = prepared.solve(&f, &hvec, &warm).unwrap();
            assert!(sol.x.approx_eq(&Vector::from_slice(&[1.0, 1.0]), 1e-10));
            if k > 0 {
                assert_eq!(
                    sol.iterations, 0,
                    "stable active set must be free at step {k}"
                );
            }
            warm = sol.active;
        }
    }

    #[test]
    fn clones_share_the_model_and_solve_bit_identically() {
        let (_, _, qp) = coupled_prepared();
        let f = Vector::from_slice(&[-3.0, 2.0, -1.5]);
        let hvec = Vector::from_slice(&[0.4, 0.8, 0.3, 0.9, 0.9, 2.0]);

        // Populate the original's warm memo before cloning: the clone
        // copies that state but then evolves it independently.
        let seeded = qp.solve(&f, &hvec, &[]).unwrap();
        let clone = qp.clone();
        assert!(qp.shares_model(&clone), "clone must share the Arc'd core");

        let (h2, g2, fresh) = coupled_prepared();
        let _ = (h2, g2);
        assert!(
            !qp.shares_model(&fresh),
            "independent builds must not alias"
        );

        // Same inputs through clone, original and fresh build: one
        // trajectory, bit for bit — sharing is memory-only.
        let a = qp.solve(&f, &hvec, &seeded.active).unwrap();
        let b = clone.solve(&f, &hvec, &seeded.active).unwrap();
        let c = fresh.solve(&f, &hvec, &seeded.active).unwrap();
        assert_bit_identical(&a, &b);
        assert_bit_identical(&a, &c);
    }

    /// Exact bit-pattern equality of two solutions, including the
    /// active-set trajectory.
    fn assert_bit_identical(a: &QpSolution, b: &QpSolution) {
        assert_eq!(a.active, b.active);
        assert_eq!(a.iterations, b.iterations);
        let bits = |v: &Vector| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&a.x), bits(&b.x));
        assert_eq!(bits(&a.multipliers), bits(&b.multipliers));
    }

    fn coupled_prepared() -> (Matrix, Matrix, PreparedQp) {
        let h = Matrix::from_rows(&[&[4.0, 1.0, 0.2], &[1.0, 2.0, 0.1], &[0.2, 0.1, 3.0]]);
        let g = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[-1.0, 0.0, 0.0],
            &[0.0, -1.0, 0.0],
            &[1.0, 1.0, 1.0],
        ]);
        let qp = PreparedQp::new(h.clone(), g.clone()).unwrap();
        (h, g, qp)
    }

    #[test]
    fn non_finite_inputs_are_rejected_on_every_front_end() {
        let (_, _, qp) = coupled_prepared();
        let f = Vector::from_slice(&[-3.0, 2.0, -1.5]);
        let hvec = Vector::from_slice(&[0.4, 0.8, 0.3, 0.9, 0.9, 2.0]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad_f = f.clone();
            bad_f[1] = bad;
            let mut bad_h = hvec.clone();
            bad_h[4] = bad;
            let in_f = QpError::NonFiniteInput {
                what: "f",
                index: 1,
            };
            let in_h = QpError::NonFiniteInput {
                what: "h",
                index: 4,
            };
            assert_eq!(qp.solve(&bad_f, &hvec, &[]).unwrap_err(), in_f);
            assert_eq!(qp.solve(&f, &bad_h, &[0, 5]).unwrap_err(), in_h);
        }
        // A rejected call leaves the instance as it was: the next solve
        // matches a fresh build bit for bit.
        let (_, _, fresh) = coupled_prepared();
        assert_bit_identical(
            &qp.solve(&f, &hvec, &[]).unwrap(),
            &fresh.solve(&f, &hvec, &[]).unwrap(),
        );
    }

    #[test]
    fn non_finite_constraint_matrix_is_rejected_at_construction() {
        // x0 ≤ 1 beside an infinite entry: the infinity would make every
        // solve's tolerance infinite and return x = [2, 0] past x0 ≤ 1; a
        // NaN would drop its row.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let g = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, bad]]);
            assert_eq!(
                PreparedQp::new(Matrix::identity(2), g.clone()).unwrap_err(),
                QpError::NonFiniteInput {
                    what: "g",
                    index: 3
                }
            );
            let lsq = crate::PreparedLsq::new(Matrix::identity(2), g, 0.0);
            assert!(matches!(
                lsq.unwrap_err(),
                QpError::NonFiniteInput { what: "g", .. }
            ));
        }
        // The same problem with the row finite solves to the constrained
        // optimum.
        let qp = prepared(Matrix::identity(2), &[&[1.0, 0.0], &[0.0, 1.0]]);
        let (f, h) = (
            Vector::from_slice(&[-2.0, 0.0]),
            Vector::from_slice(&[1.0, 1.0]),
        );
        let sol = qp.solve(&f, &h, &[]).unwrap();
        assert!(sol.x.approx_eq(&Vector::from_slice(&[1.0, 0.0]), 1e-12));
    }

    #[test]
    fn solve_into_matches_solve_through_one_reused_output() {
        // One output and one workspace across a drifting problem (the
        // active set grows, shrinks and changes), against a fresh instance
        // and an allocating `solve` per step.
        let (_, _, qp) = coupled_prepared();
        let hvec = Vector::from_slice(&[0.4, 0.8, 0.3, 0.9, 0.9, 2.0]);
        let mut out = QpSolution::default();
        let mut warm: Vec<usize> = Vec::new();
        for k in 0..12 {
            let s = k as f64;
            let f = Vector::from_slice(&[-3.0 + 0.7 * s, 2.0 - 0.5 * s, -1.5 + 0.3 * s]);
            qp.solve_into(&f, &hvec, &warm, &mut out).unwrap();
            let (_, _, fresh) = coupled_prepared();
            assert_bit_identical(&out, &fresh.solve(&f, &hvec, &warm).unwrap());
            assert!(out.warm_retained <= warm.len());
            warm.clone_from(&out.active);
        }
        // An error leaves the output untouched.
        let before = out.clone();
        let nan = Vector::from_slice(&[f64::NAN, 0.0, 0.0]);
        assert!(qp.solve_into(&nan, &hvec, &warm, &mut out).is_err());
        assert_bit_identical(&before, &out);
    }

    #[test]
    fn warm_retained_counts_the_rows_the_guess_contributed() {
        // Target [2, 2] in the unit box: both rows active.
        let (qp, h) = unit_box();
        let f = Vector::from_slice(&[-2.0, -2.0]);
        let cold = qp.solve(&f, &h, &[]).unwrap();
        assert_eq!(cold.warm_retained, 0);
        let exact = qp.solve(&f, &h, &cold.active).unwrap();
        assert_eq!((exact.warm_retained, exact.iterations), (2, 0));
        // Row 1 alone is a correct partial guess: kept, one row to add.
        let partial = qp.solve(&f, &h, &[1]).unwrap();
        assert_eq!((partial.warm_retained, partial.iterations), (1, 1));
        // With the target inside the box no row binds: the guess is
        // offered, nothing of it survives.
        let inside = Vector::from_slice(&[-0.5, -0.5]);
        assert_eq!(qp.solve(&inside, &h, &[0, 1]).unwrap().warm_retained, 0);
    }

    #[test]
    fn factor_work_counts_builds_appends_and_deletes() {
        let (qp, h) = unit_box();
        let f = Vector::from_slice(&[-2.0, -2.0]);
        // (builds, Σq³, appends, declined, deletes, largest order)
        let work = |s: QpSolution| {
            let w = s.factor_work;
            (
                w.builds,
                w.build_q3,
                w.appends,
                w.declined,
                w.deletes,
                w.max_order,
            )
        };
        // Cold: both rows join by appends.
        let cold = qp.solve(&f, &h, &[]).unwrap();
        assert_eq!(work(cold.clone()), (0, 0, 2, 0, 0, 2));
        // The exact guess builds its factor once; the same guess again
        // reads the memo and builds nothing.
        assert_eq!(
            work(qp.solve(&f, &h, &cold.active).unwrap()),
            (1, 8, 0, 0, 0, 2)
        );
        assert_eq!(
            work(qp.solve(&f, &h, &cold.active).unwrap()),
            (0, 0, 0, 0, 0, 2)
        );
        // A partial guess: a build of order 1, then row 0 is appended.
        assert_eq!(work(qp.solve(&f, &h, &[1]).unwrap()), (1, 1, 1, 0, 0, 2));
        // A guess with the target inside the box: its factor is built,
        // then both rows are deleted, and the solve runs cold.
        let inside = Vector::from_slice(&[-0.5, -0.5]);
        assert_eq!(
            work(qp.solve(&inside, &h, &[0, 1]).unwrap()),
            (1, 8, 0, 0, 2, 2)
        );
    }

    /// `H = AᵀA + I` over `n` variables and a `G` of `m` rows whose
    /// entries are half-integers in `[−2, 2]`, about half of them exact
    /// zeros.
    fn random_problem(rng: &mut StdRng, n: usize, m: usize) -> (Matrix, Matrix) {
        let a = Matrix::from_fn(n, n, |_, _| rng.gen_range_f64(-1.0..1.0));
        let h = &(&a.transpose() * &a) + &Matrix::identity(n);
        let g = Matrix::from_fn(m, n, |_, _| {
            if rng.gen_bool(0.5) {
                0.0
            } else {
                rng.gen_range_u64(0..9) as f64 * 0.5 - 2.0
            }
        });
        (h, g)
    }

    /// A MEDIUM-shaped problem: 24 variables, an upper and a lower bound
    /// on each (slack 0.6), and 16 sparse coupling rows (slack 1.5).
    fn medium_shaped() -> (PreparedQp, Vector) {
        let (n, m) = (24, 64);
        let (h, coupling) = random_problem(&mut StdRng::seed_from_u64(24), n, 16);
        let g = Matrix::from_fn(m, n, |i, j| match i {
            _ if i == j => 1.0,
            _ if i == n + j => -1.0,
            _ if i < 2 * n => 0.0,
            _ => coupling[(i - 2 * n, j)].abs(),
        });
        let hvec = Vector::from_iter((0..m).map(|i| if i < 2 * n { 0.6 } else { 1.5 }));
        (PreparedQp::new(h, g).unwrap(), hvec)
    }

    #[test]
    fn back_solves_equal_the_eager_formula_in_any_touch_order() {
        let mut rng = StdRng::seed_from_u64(64);
        let coupled = coupled_prepared().2;
        let coupled_h = Vector::from_slice(&[0.4, 0.8, 0.3, 0.9, 0.9, 2.0]);
        for (qp, hvec) in [(coupled, coupled_h), medium_shaped()] {
            let (n, m) = (qp.num_vars(), qp.num_constraints());
            let target = |k: usize, i: usize| 2.5 * (0.7 * i as f64 + 0.9 * k as f64).sin();
            // One instance walks the targets forwards warm-starting from
            // its last active set, a clone walks them backwards from
            // random guesses: the same rows, made ready in other orders.
            let other = qp.clone();
            assert_eq!(qp.workspace().memo.ready.len(), m, "sized at construction");
            assert!(
                other.workspace().memo.ready.is_empty(),
                "a clone sizes at its first solve"
            );
            let mut warm = Vec::new();
            for k in 0..10 {
                let f = Vector::from_iter((0..n).map(|i| -target(k, i)));
                warm = qp.solve(&f, &hvec, &warm).unwrap().active;
                let f = Vector::from_iter((0..n).map(|i| -target(9 - k, i)));
                let guess: Vec<usize> = (0..4)
                    .map(|_| rng.gen_range_u64(0..m as u64 + 2) as usize)
                    .collect();
                other.solve(&f, &hvec, &guess).unwrap();
            }
            let order = |p: &PreparedQp| p.workspace().memo.order.clone();
            assert_ne!(order(&qp), order(&other), "the touch orders must differ");
            let core = &*qp.core;
            // The dense rows' negation, `−0.0` in every zero entry.
            let g = core.g_rows.to_matrix();
            let eager = |i: usize| {
                let ni = Vector::from_iter(g.row(i).iter().map(|v| -v));
                core.chol.solve(&ni).unwrap()
            };
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            for p in [&qp, &other] {
                let ready = order(p);
                let memo = &p.workspace().memo;
                for &a in &ready {
                    assert_eq!(bits(memo.hinv(a)), bits(eager(a).as_slice()), "row {a}");
                    for &b in &ready {
                        let d = -core.g_rows.dot(a, eager(b).as_slice());
                        assert_eq!(memo.gram[(a, b)].to_bits(), d.to_bits(), "({a}, {b})");
                    }
                }
                // Rows no solve touched hold the NaN written at sizing.
                for i in (0..m).filter(|&i| !memo.ready[i]) {
                    assert!(memo.hinv(i).iter().all(|v| v.is_nan()), "row {i}");
                }
            }
            // A memo in any state answers the next solve like an empty one.
            let f = Vector::from_iter((0..n).map(|i| -target(11, i)));
            for p in [&qp, &other] {
                let fresh = p.clone();
                assert_bit_identical(
                    &p.solve(&f, &hvec, &warm).unwrap(),
                    &fresh.solve(&f, &hvec, &warm).unwrap(),
                );
            }
        }
    }

    /// The independent reference: for every set of at most `n` rows of
    /// `G`, smallest first, the KKT system of that active set
    /// `[H G_Aᵀ; G_A 0]·[x; λ] = [−f; h_A]` solved by dense LU, and the
    /// first `x` whose stationarity, primal and dual feasibility all hold
    /// within `1e-9` of the data's scale (checked, not trusted to the
    /// solve).  A strictly convex QP has one KKT point, its minimizer, so
    /// `None` means the constraints are infeasible.  Shares nothing with
    /// the solver but `Matrix`; `n ≤ 6` and `m ≤ 10` keep it to at most
    /// 848 systems.
    fn oracle(h: &Matrix, g: &Matrix, f: &Vector, hvec: &Vector) -> Option<Vector> {
        let (n, m) = (h.rows(), g.rows());
        assert!(n <= 6 && m <= 10, "the oracle enumerates the active sets");
        let eps = 1e-9 * (1.0 + f.max_abs() + hvec.max_abs());
        let mut sets: Vec<u32> = (0..1u32 << m)
            .filter(|s| s.count_ones() as usize <= n)
            .collect();
        sets.sort_by_key(|s| s.count_ones());
        sets.into_iter().find_map(|set| {
            let rows: Vec<usize> = (0..m).filter(|&i| set >> i & 1 == 1).collect();
            let k = rows.len();
            let kkt = Matrix::from_fn(n + k, n + k, |i, j| match (i < n, j < n) {
                (true, true) => h[(i, j)],
                (true, false) => g[(rows[j - n], i)],
                (false, true) => g[(rows[i - n], j)],
                (false, false) => 0.0,
            });
            let rhs = Vector::from_iter((0..n).map(|i| -f[i]).chain(rows.iter().map(|&r| hvec[r])));
            let sol = kkt.solve(&rhs).ok()?;
            let x = Vector::from_iter((0..n).map(|i| sol[i]));
            let lambda = &sol.as_slice()[n..];
            let mut grad = &h.mul_vec(&x) + f;
            for (&r, &l) in rows.iter().zip(lambda) {
                for j in 0..n {
                    grad[j] += l * g[(r, j)];
                }
            }
            let viol = |i: usize| {
                g.row(i)
                    .iter()
                    .zip(x.iter())
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
                    - hvec[i]
            };
            let kkt_point = grad.max_abs() <= eps
                && lambda.iter().all(|&l| l >= -eps)
                && (0..m).all(|i| viol(i) <= eps)
                && rows.iter().all(|&r| viol(r).abs() <= eps);
            kkt_point.then_some(x)
        })
    }

    #[test]
    fn oracle_finds_the_minimizer_or_reports_infeasibility() {
        // The corner of `two_constraints_corner`, the single row of
        // `coupled_hessian` (x0 = 0.5 binds), and `detects_infeasible`.
        let corner = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = oracle(
            &Matrix::identity(2),
            &corner,
            &Vector::from_slice(&[-2.0, -2.0]),
            &Vector::from_slice(&[1.0, 1.0]),
        );
        assert!(x
            .unwrap()
            .approx_eq(&Vector::from_slice(&[1.0, 1.0]), 1e-12));
        let h = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 2.0]]);
        let f = Vector::from_slice(&[-1.0, -1.0]);
        let hvec = Vector::from_slice(&[-0.5]);
        let qp = prepared(h.clone(), &[&[-1.0, 0.0]]);
        let x = oracle(&h, &Matrix::from_rows(&[&[-1.0, 0.0]]), &f, &hvec).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!(x.approx_eq(&qp.solve(&f, &hvec, &[]).unwrap().x, 1e-12));
        let clash = Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.0]]);
        let none = oracle(
            &Matrix::identity(2),
            &clash,
            &Vector::zeros(2),
            &Vector::from_slice(&[0.0, -1.0]),
        );
        assert!(none.is_none());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn spd(n: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-2.0..2.0f64, n * n).prop_map(move |data| {
                let m = Matrix::from_vec(n, n, data);
                &(&m.transpose() * &m) + &Matrix::identity(n)
            })
        }

        /// The box `lb ≤ x ≤ ub` over three variables: for each `i` the
        /// rows `x_i ≤ ub_i`, `−x_i ≤ −lb_i`.
        fn box3(ub: &[f64], lb: &[f64]) -> (Matrix, Vector) {
            let g = Matrix::from_fn(6, 3, |r, j| match (r / 2 == j, r % 2) {
                (false, _) => 0.0,
                (true, 0) => 1.0,
                (true, _) => -1.0,
            });
            let h =
                Vector::from_iter((0..6).map(|r| if r % 2 == 0 { ub[r / 2] } else { -lb[r / 2] }));
            (g, h)
        }

        proptest! {
            #[test]
            fn kkt_conditions_hold(
                h in spd(3),
                f in proptest::collection::vec(-5.0..5.0f64, 3),
                // Box bounds always feasible: lb ≤ 0 ≤ ub.
                ub in proptest::collection::vec(0.1..4.0f64, 3),
                lb in proptest::collection::vec(-4.0..-0.1f64, 3),
            ) {
                let (g, hvec) = box3(&ub, &lb);
                let qp = PreparedQp::new(h, g).unwrap();
                let f = Vector::from_slice(&f);
                let sol = qp.solve(&f, &hvec, &[]).unwrap();
                prop_assert!(qp.kkt_residual(&f, &hvec, &sol) < 1e-7);
                for i in 0..3 {
                    prop_assert!(sol.x[i] <= ub[i] + 1e-8);
                    prop_assert!(sol.x[i] >= lb[i] - 1e-8);
                }
            }

            #[test]
            fn matches_projection_for_identity_hessian(
                target in proptest::collection::vec(-5.0..5.0f64, 2),
                cap in 0.1..3.0f64,
            ) {
                // min ½‖x − target‖² s.t. x ≤ cap (per coordinate) has the
                // closed-form solution min(target, cap).
                let f = Vector::from_iter(target.iter().map(|v| -v));
                let qp = prepared(Matrix::identity(2), &[&[1.0, 0.0], &[0.0, 1.0]]);
                let sol = qp.solve(&f, &Vector::from_slice(&[cap, cap]), &[]).unwrap();
                for (i, &ti) in target.iter().enumerate() {
                    prop_assert!((sol.x[i] - ti.min(cap)).abs() < 1e-8);
                }
            }

            #[test]
            fn warm_start_agrees_with_cold_start(
                h in spd(3),
                f in proptest::collection::vec(-5.0..5.0f64, 3),
                ub in proptest::collection::vec(0.1..4.0f64, 3),
                lb in proptest::collection::vec(-4.0..-0.1f64, 3),
                // An arbitrary (possibly wrong) active-set guess.
                guess in proptest::collection::vec(0..8u64, 3),
            ) {
                let (g, hvec) = box3(&ub, &lb);
                let qp = PreparedQp::new(h, g).unwrap();
                let f = Vector::from_slice(&f);
                let cold = qp.solve(&f, &hvec, &[]).unwrap();

                // Both an arbitrary guess and the true active set must
                // reproduce the unique minimizer of the strictly convex QP.
                let guess: Vec<usize> = guess.iter().map(|&v| v as usize).collect();
                for warm_set in [guess.as_slice(), cold.active.as_slice()] {
                    let warm = qp.solve(&f, &hvec, warm_set).unwrap();
                    prop_assert!(warm.x.approx_eq(&cold.x, 1e-9));
                    prop_assert!(qp.kkt_residual(&f, &hvec, &warm) < 1e-7);
                    let mut wa = warm.active.clone();
                    let mut ca = cold.active.clone();
                    wa.sort_unstable();
                    ca.sort_unstable();
                    prop_assert_eq!(wa, ca);
                }
                let exact = qp.solve(&f, &hvec, &cold.active).unwrap();
                prop_assert_eq!(exact.iterations, 0);
            }

            #[test]
            fn persistent_solves_equal_fresh_solves_and_the_oracle(
                n in 1usize..9,
                m in 0usize..17,
                steps in 1usize..13,
                seed in 0u64..1 << 32,
            ) {
                // One persistent instance, its memo filling in whatever
                // order the steps touch rows, against a fresh instance per
                // step, bit for bit; and, where n ≤ 6 and m ≤ 10, against
                // the oracle.  Most steps keep `h ≥ 0`, so `x = 0` is
                // feasible; one in five draws `h` from [−1, 2), which makes
                // some problems infeasible.
                let mut rng = StdRng::seed_from_u64(seed);
                let (h, g) = random_problem(&mut rng, n, m);
                let prepared = PreparedQp::new(h.clone(), g.clone()).unwrap();
                let bits = |v: &Vector| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
                let mut last = Vec::new();
                for step in 0..steps {
                    let f = Vector::from_iter((0..n).map(|_| rng.gen_range_f64(-5.0..5.0)));
                    let lo = if rng.gen_bool(0.2) { -1.0 } else { 0.0 };
                    let hvec = Vector::from_iter((0..m).map(|_| {
                        if rng.gen_bool(0.1) { 0.0 } else { rng.gen_range_f64(lo..2.0) }
                    }));
                    let warm: Vec<usize> = if rng.gen_bool(0.3) {
                        last.clone()
                    } else {
                        (0..rng.gen_range_u64(0..5))
                            .map(|_| rng.gen_range_u64(0..m as u64 + 2) as usize)
                            .collect()
                    };
                    let fresh = PreparedQp::new(h.clone(), g.clone()).unwrap();
                    let got = prepared.solve(&f, &hvec, &warm);
                    match (&got, fresh.solve(&f, &hvec, &warm)) {
                        (Ok(a), Ok(b)) => {
                            prop_assert_eq!(bits(&a.x), bits(&b.x), "x at step {}", step);
                            prop_assert_eq!(bits(&a.multipliers), bits(&b.multipliers), "step {}", step);
                            prop_assert_eq!(&a.active, &b.active, "active set at step {}", step);
                            prop_assert_eq!(a.iterations, b.iterations, "step {}", step);
                            prop_assert_eq!(a.warm_retained, b.warm_retained, "step {}", step);
                            // The debug build's postcondition, in release too.
                            let kkt = prepared.kkt_residual(&f, &hvec, a);
                            let tol = tolerance(prepared.core.scale[m], &hvec);
                            prop_assert!(kkt <= 10.0 * tol, "step {}: KKT residual {:e}", step, kkt);
                            last.clone_from(&a.active);
                        }
                        (a, b) => prop_assert_eq!(a.clone().err(), b.err(), "step {}", step),
                    }
                    if n <= 6 && m <= 10 {
                        match (oracle(&h, &g, &f, &hvec), &got) {
                            (Some(x), Ok(a)) => {
                                let gap = (&a.x - &x).max_abs();
                                prop_assert!(
                                    gap <= 1e-7 * x.max_abs().max(1.0),
                                    "step {}: |x − x*| = {:e}", step, gap
                                );
                            }
                            (None, Err(QpError::Infeasible)) => {}
                            (x, a) => prop_assert!(
                                false,
                                "step {}: oracle {:?}, solver {:?}", step, x, a
                            ),
                        }
                    }
                }
            }

            #[test]
            fn prefix_solves_are_bit_identical_to_a_separately_prepared_problem(
                n in 1usize..9,
                m in 0usize..17,
                k_draw in 0usize..17,
                steps in 1usize..13,
                seed in 0u64..1 << 32,
            ) {
                // One instance solves the whole problem and its first `k`
                // rows in turn, sharing one back-solve memo while each
                // keeps its own warm-start factor memo; each answer must
                // be that of an instance prepared for its rows alone.
                // Guesses repeat the last active set (memo hits), or name
                // random rows, past `k` and past `m` included, with
                // duplicates; one `h` in five may make a problem
                // infeasible.  In half the cases the rows past the prefix
                // (and their bounds) are scaled by 1e4, so the two
                // problems' tolerance scales differ.
                let mut rng = StdRng::seed_from_u64(seed);
                let (h, g) = random_problem(&mut rng, n, m);
                let k = k_draw % (m + 1);
                let big = if rng.gen_bool(0.5) { 1e4 } else { 1.0 };
                let row_scale = |i: usize| if i < k { 1.0 } else { big };
                let g = Matrix::from_fn(m, n, |i, j| row_scale(i) * g[(i, j)]);
                let shared = PreparedQp::new(h.clone(), g.clone()).unwrap();
                let whole = PreparedQp::new(h.clone(), g.clone()).unwrap();
                let head = PreparedQp::new(h.clone(), Matrix::from_fn(k, n, |i, j| g[(i, j)])).unwrap();
                let bits = |v: &Vector| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
                let mut last = [Vec::new(), Vec::new()];
                for step in 0..steps {
                    let first = usize::from(rng.gen_bool(0.5));
                    for prefix in [first == 1, first == 0] {
                        let rows = if prefix { k } else { m };
                        let f = Vector::from_iter((0..n).map(|_| rng.gen_range_f64(-5.0..5.0)));
                        let lo = if rng.gen_bool(0.2) { -1.0 } else { 0.0 };
                        let mut hvec = Vector::from_iter(
                            (0..rows).map(|i| row_scale(i) * rng.gen_range_f64(lo..2.0)),
                        );
                        // One solve in four moves a prefix row's bound to
                        // 1e-7 inside the unconstrained minimum: a violation
                        // the prefix problem's tolerance sees and the
                        // scaled whole problem's does not.
                        if k > 0 && rng.gen_bool(0.25) {
                            let x0 = h.solve(&Vector::from_iter(f.iter().map(|v| -v))).unwrap();
                            let i = rng.gen_range_u64(0..k as u64) as usize;
                            hvec[i] = kernel::dot(g.row(i), x0.as_slice()) - 1e-7;
                        }
                        let mut warm: Vec<usize> = if rng.gen_bool(0.4) {
                            last[usize::from(prefix)].clone()
                        } else {
                            (0..rng.gen_range_u64(0..5))
                                .map(|_| rng.gen_range_u64(0..m as u64 + 2) as usize)
                                .collect()
                        };
                        if rng.gen_bool(0.2) {
                            if let Some(&a) = warm.first() {
                                warm.push(a);
                            }
                        }
                        let (mut got, mut want) = (QpSolution::default(), QpSolution::default());
                        let (got_r, want_r) = if prefix {
                            (
                                shared.solve_prefix_into(&f, &hvec, &warm, &mut got),
                                head.solve_into(&f, &hvec, &warm, &mut want),
                            )
                        } else {
                            (
                                shared.solve_into(&f, &hvec, &warm, &mut got),
                                whole.solve_into(&f, &hvec, &warm, &mut want),
                            )
                        };
                        prop_assert_eq!(&got_r, &want_r, "step {} prefix {}", step, prefix);
                        if got_r.is_ok() {
                            prop_assert_eq!(bits(&got.x), bits(&want.x), "step {} prefix {}", step, prefix);
                            prop_assert_eq!(bits(&got.multipliers), bits(&want.multipliers));
                            prop_assert_eq!(&got.active, &want.active);
                            prop_assert_eq!(got.iterations, want.iterations);
                            prop_assert_eq!(got.warm_retained, want.warm_retained);
                            prop_assert_eq!(got.factor_work, want.factor_work, "step {} prefix {}", step, prefix);
                            last[usize::from(prefix)].clone_from(&got.active);
                        }
                    }
                }
            }
        }
    }
}
