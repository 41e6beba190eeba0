//! Decentralized utilization control — the paper's stated future work
//! ("we will develop decentralized control architecture to handle
//! large-scale distributed systems"), along the lines of the authors'
//! follow-on DEUCON work, at any partition granularity.
//!
//! Instead of one centralized MIMO controller, the processor set is
//! partitioned into *shards* — groups of processors solved by one
//! warm-started local MPC each.  Every task is **owned** by the shard
//! hosting its head subtask, so every rate is actuated by exactly one
//! controller; a local controller models only the processors its owned
//! tasks touch (its *neighborhood*), and coupling to the rest of the
//! system is folded into its measurements as a predicted disturbance
//! from its peers' most recent moves.  Each local problem has `m_i ≪ m`
//! variables and no node needs global state; the price is optimality —
//! peers are predicted by their previous move rather than coordinated
//! exactly, so convergence is slightly slower than the centralized
//! controller (quantified in the ablations of `eucon_bench::reproduce`).
//!
//! One local MPC per *processor* (shard size 1,
//! [`ShardPlan::singletons`]) is the finest partition, the DEUCON team.
//! At cluster scale that granularity is wasteful in the other direction:
//! tightly coupled processor groups (tasks chaining back and forth
//! between them) pay the coordination lag of last-move prediction for
//! couplings that a single slightly larger local controller would handle
//! exactly.  Hence:
//!
//! * [`ShardPlanner`] partitions the processor set by the sparsity
//!   pattern of the allocation matrix `F`: processors sharing many tasks
//!   are merged greedily (largest coupling first, Kruskal-style with a
//!   size cap), so task chains mostly stay *inside* a shard and the cut
//!   (tasks crossing shard boundaries) is small.
//! * [`ShardedController`] runs the per-shard MPCs in a fixed
//!   Gauss–Seidel sweep (a Jacobi-style simultaneous exchange double
//!   counts corrections and oscillates), exchanging **boundary state** —
//!   the measured utilization of each shard's home processors and the
//!   move vector of its owned tasks — and folding peer moves into each
//!   shard's prediction as a disturbance.
//! * [`BoundaryBus`] abstracts *how* that boundary state travels.  There
//!   is one sweep, [`ShardedController::update_with_bus`]; the team's
//!   own [`RateController::update`] runs it over a private in-memory
//!   board, and `eucon-core` provides a lane-backed bus (one `eucon-net`
//!   lane per shard) whose ideal-lane traces are bit-identical to the
//!   board's and which degrades to stale-state reuse (eventual
//!   consistency) on loss.  A shard's coupling and views are sized by
//!   its boundary, never by the global task count.
//!
//! With shard size 1 the plan is the singleton partition and the sweep
//! is the per-processor scheme (its closed-loop trace is pinned in
//! `eucon-core`'s `shard_equivalence` suite).  Larger shards trade a
//! bigger local solve for exact intra-shard coordination; the `ablation`
//! binary quantifies the trade.
//!
//! Because a shard's local model covers only its neighborhood and tasks
//! are grouped by home processor, the local Hessians are block banded —
//! the structure the banded Cholesky path in `eucon-math` exploits.

use eucon_math::{Matrix, Vector};
use eucon_tasks::TaskSet;

use crate::{ControlError, ControllerTelemetry, MpcConfig, MpcController, RateController};

/// A partition of the processor set into shards.
///
/// Shards are non-empty, disjoint, cover every processor, are internally
/// sorted, and are ordered by their smallest member — so the singleton
/// plan enumerates processors in index order and the sharded sweep
/// reduces exactly to the per-processor one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Vec<usize>>,
    /// `shard_of[p]` = index of the shard containing processor `p`.
    shard_of: Vec<usize>,
}

impl ShardPlan {
    /// Builds a plan from explicit processor groups.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] unless the groups form
    /// an exact partition of `0..num_processors`.
    pub fn from_groups(
        groups: Vec<Vec<usize>>,
        num_processors: usize,
    ) -> Result<Self, ControlError> {
        let mut shard_of = vec![usize::MAX; num_processors];
        let mut covered = 0usize;
        let mut shards: Vec<Vec<usize>> = groups
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|mut g| {
                g.sort_unstable();
                g
            })
            .collect();
        shards.sort_by_key(|g| g[0]);
        for (s, group) in shards.iter().enumerate() {
            for &p in group {
                if p >= num_processors || shard_of[p] != usize::MAX {
                    return Err(ControlError::DimensionMismatch(format!(
                        "processor {p} out of range or assigned twice in shard plan"
                    )));
                }
                shard_of[p] = s;
                covered += 1;
            }
        }
        if covered != num_processors {
            return Err(ControlError::DimensionMismatch(format!(
                "shard plan covers {covered} of {num_processors} processors"
            )));
        }
        Ok(ShardPlan { shards, shard_of })
    }

    /// The singleton plan: one shard per processor (the decentralized
    /// granularity).
    pub fn singletons(num_processors: usize) -> Self {
        ShardPlan {
            shards: (0..num_processors).map(|p| vec![p]).collect(),
            shard_of: (0..num_processors).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The processor groups, ordered by smallest member.
    pub fn shards(&self) -> &[Vec<usize>] {
        &self.shards
    }

    /// The shard containing processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn shard_of(&self, p: usize) -> usize {
        self.shard_of[p]
    }

    /// Largest shard size (processors).
    pub fn max_shard_size(&self) -> usize {
        self.shards.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of tasks whose chain crosses a shard boundary (the cut the
    /// planner minimizes).
    pub fn cut_tasks(&self, set: &TaskSet) -> usize {
        set.tasks()
            .iter()
            .filter(|t| {
                let s0 = self.shard_of[t.subtasks()[0].processor.0];
                t.subtasks()
                    .iter()
                    .any(|s| self.shard_of[s.processor.0] != s0)
            })
            .count()
    }
}

/// Plans a processor partition from the allocation-matrix sparsity.
///
/// Coupling weight between two processors = number of tasks whose
/// subtask chain touches both.  Merging proceeds greedily from the
/// heaviest coupling (Kruskal-style over a union-find), refusing merges
/// that would exceed the target shard size — a cut-minimizing greedy
/// agglomeration.  Ties break deterministically by processor index, so a
/// plan is a pure function of the task set and the target size.
///
/// # Example
///
/// ```
/// use eucon_control::ShardPlanner;
/// use eucon_tasks::workloads;
///
/// let set = workloads::medium();
/// let plan = ShardPlanner::new(&set).target_size(2).plan();
/// assert_eq!(plan.num_shards(), 2);
/// assert_eq!(plan.max_shard_size(), 2);
/// ```
#[derive(Debug)]
pub struct ShardPlanner<'a> {
    set: &'a TaskSet,
    target_size: usize,
}

impl<'a> ShardPlanner<'a> {
    /// Starts a planner for a task set (default target size 16).
    pub fn new(set: &'a TaskSet) -> Self {
        ShardPlanner {
            set,
            target_size: 16,
        }
    }

    /// Sets the maximum processors per shard.  `1` yields the singleton
    /// plan (per-processor decentralized granularity).
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn target_size(mut self, size: usize) -> Self {
        assert!(size > 0, "shards must hold at least one processor");
        self.target_size = size;
        self
    }

    /// Computes the plan.
    pub fn plan(&self) -> ShardPlan {
        let n = self.set.num_processors();
        if self.target_size == 1 || n <= 1 {
            return ShardPlan::singletons(n);
        }
        // Coupling weights from the F-matrix sparsity: one count per task
        // per touched processor pair.  Chains are short, so this is
        // O(tasks · chain²) with small constants.
        let mut weights: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for task in self.set.tasks() {
            let mut procs: Vec<usize> = task.subtasks().iter().map(|s| s.processor.0).collect();
            procs.sort_unstable();
            procs.dedup();
            for (i, &p) in procs.iter().enumerate() {
                for &q in &procs[i + 1..] {
                    *weights.entry((p, q)).or_insert(0) += 1;
                }
            }
        }
        let mut edges: Vec<(usize, usize, usize)> =
            weights.into_iter().map(|((p, q), w)| (w, p, q)).collect();
        // Heaviest coupling first; deterministic tie-break by indices.
        edges.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

        // Union-find with a size cap.
        let mut parent: Vec<usize> = (0..n).collect();
        let mut size = vec![1usize; n];
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (_w, p, q) in edges {
            let (a, b) = (find(&mut parent, p), find(&mut parent, q));
            if a != b && size[a] + size[b] <= self.target_size {
                // Deterministic root choice: smaller index wins.
                let (keep, fold) = if a < b { (a, b) } else { (b, a) };
                parent[fold] = keep;
                size[keep] += size[fold];
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for p in 0..n {
            let root = find(&mut parent, p);
            groups.entry(root).or_default().push(p);
        }
        ShardPlan::from_groups(groups.into_values().collect(), n)
            .expect("union-find components form a partition")
    }
}

/// How a sharded team exchanges boundary state between control domains.
///
/// Per period the sweep makes three kinds of calls, in order:
///
/// 1. [`publish_utilization`](BoundaryBus::publish_utilization) — every
///    shard (including ones owning no tasks) publishes the measured
///    utilization of its home processors.
/// 2. For each solving shard, in sweep order:
///    [`fetch`](BoundaryBus::fetch) — pull the freshest peer state for
///    the shard's boundary (moves of foreign tasks it is coupled to,
///    utilization of neighborhood processors outside its home set);
///    then, after its local solve,
///    [`publish_moves`](BoundaryBus::publish_moves) — push the moves it
///    just committed.
///
/// Implementations fill `fetch` outputs **only for state they actually
/// have fresh or retained data for**, leaving other entries untouched —
/// the caller keeps per-shard view buffers, so a lossy bus degrades to
/// stale-state reuse (eventual consistency), never to garbage.
pub trait BoundaryBus {
    /// Shard `shard` publishes its home processors' measured utilization
    /// (`procs[i]` sampled as `u[i]`).
    fn publish_utilization(&mut self, shard: usize, procs: &[usize], u: &[f64]);

    /// Fills shard `shard`'s boundary view: `moves[i]` for global task
    /// `move_tasks[i]`, `u[i]` for processor `procs[i]`.  Entries without
    /// fresher data are left untouched.
    fn fetch(
        &mut self,
        shard: usize,
        move_tasks: &[usize],
        moves: &mut [f64],
        procs: &[usize],
        u: &mut [f64],
    );

    /// Shard `shard` publishes the moves it committed this period
    /// (`moves[i]` for global task `tasks[i]`).
    fn publish_moves(&mut self, shard: usize, tasks: &[usize], moves: &[f64]);

    /// Advances per-period machinery (lane clocks).  Called once per
    /// period, before any publish.
    fn begin_period(&mut self) {}
}

/// One shard's local controller and bookkeeping.
#[derive(Debug, Clone)]
struct ShardController {
    /// Index into the plan's shard list.
    shard: usize,
    /// Tasks whose head subtask lives in this shard (owned: this
    /// controller actuates their rates).
    owned: Vec<usize>,
    /// Processors touched by the owned tasks (global indices, sorted).
    neighborhood: Vec<usize>,
    /// Local MPC over the `neighborhood × owned` sub-block of `F`.
    mpc: MpcController,
    /// Coupling from the boundary tasks into the neighborhood:
    /// `neighborhood × boundary_tasks`.
    foreign: Matrix,
    /// Global indices of the non-owned tasks that touch the
    /// neighborhood, ascending — the moves this shard needs from its
    /// peers.
    boundary_tasks: Vec<usize>,
    /// Neighborhood processors outside the shard's home set — the
    /// utilizations this shard needs from its peers.
    boundary_procs: Vec<usize>,
    /// Per neighborhood row: `Some(i)` reads the utilization from
    /// `view_u[i]`, `None` from the shard's own (home) sample.
    view_slot: Vec<Option<usize>>,
    /// Per-shard view of peer moves, indexed like `boundary_tasks`; a
    /// fetch overwrites only what it has fresher data for.
    view_moves: Vector,
    /// Per-shard view of boundary utilizations, indexed like
    /// `boundary_procs`.
    view_u: Vec<f64>,
    /// Per-period scratch, indexed like `neighborhood`: the coupling
    /// `foreign · moves` and the local utilization sample built from it.
    disturbance: Vector,
    u_local: Vector,
}

/// Cluster-scale sharded EUCON: per-shard local MPCs coordinating by
/// boundary-state exchange.
///
/// Drop-in [`RateController`] for the centralized [`MpcController`];
/// at shard size 1 ([`ShardedController::with_shard_size`]) it is the
/// per-processor DEUCON team.
///
/// # Example
///
/// ```
/// use eucon_control::{MpcConfig, RateController, ShardPlanner, ShardedController};
/// use eucon_math::Vector;
/// use eucon_tasks::{rms_set_points, workloads};
///
/// # fn main() -> Result<(), eucon_control::ControlError> {
/// let set = workloads::medium();
/// let plan = ShardPlanner::new(&set).target_size(2).plan();
/// let b = rms_set_points(&set);
/// let mut ctrl = ShardedController::new(&set, b, MpcConfig::medium(), plan)?;
/// ctrl.update(&Vector::from_slice(&[0.4, 0.4, 0.4, 0.4]))?;
/// assert_eq!(ctrl.rates().len(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedController {
    plan: ShardPlan,
    controllers: Vec<ShardController>,
    rates: Vector,
    num_processors: usize,
    /// Per processor: number of shard controllers with it in their
    /// neighborhood (min 1) — tracking errors are split by this count so
    /// the team's collective correction sums to the needed one.
    actuator_count: Vec<usize>,
    /// Per-period staging, so an update allocates nothing: the team's
    /// rates are assembled here and swapped in only after every local
    /// solve succeeded.
    staged_rates: Vector,
    /// One shard's publish payload at a time.
    bus_scratch: Vec<f64>,
    /// The bus [`RateController::update`] sweeps over.
    board: BoardBus,
}

/// The in-memory [`BoundaryBus`] behind [`RateController::update`]: every
/// task's last published move and every processor's utilization this
/// period.  Phase A publishes every processor before any fetch, so the
/// utilization board is always fresh; the move board holds this
/// period's move for the shards already swept and the previous period's
/// for the rest — the Gauss–Seidel prediction of the peers yet to act.
#[derive(Debug, Clone, Default)]
struct BoardBus {
    moves: Vec<f64>,
    u: Vec<f64>,
}

impl BoundaryBus for BoardBus {
    fn publish_utilization(&mut self, _shard: usize, procs: &[usize], u: &[f64]) {
        for (&p, &v) in procs.iter().zip(u) {
            self.u[p] = v;
        }
    }

    fn fetch(
        &mut self,
        _shard: usize,
        move_tasks: &[usize],
        moves: &mut [f64],
        procs: &[usize],
        u: &mut [f64],
    ) {
        for (dst, &j) in moves.iter_mut().zip(move_tasks) {
            *dst = self.moves[j];
        }
        for (dst, &p) in u.iter_mut().zip(procs) {
            *dst = self.u[p];
        }
    }

    fn publish_moves(&mut self, _shard: usize, tasks: &[usize], moves: &[f64]) {
        for (&j, &mv) in tasks.iter().zip(moves) {
            self.moves[j] = mv;
        }
    }
}

impl ShardedController {
    /// Builds the sharded team for a task set under a shard plan.
    ///
    /// Task ownership follows the head-subtask rule at shard granularity:
    /// a shard owns every task whose head subtask runs on one of its home
    /// processors.  Shards owning no tasks run no controller (their
    /// utilization is regulated by the owners of tasks crossing them,
    /// and they still publish boundary utilization on a bus).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] when `set_points` or
    /// the plan do not match the set, [`ControlError::Config`] when `cfg`
    /// fails [`MpcConfig::validate`] for the set (a shard's controller
    /// weighs its neighborhood's processors), and propagates
    /// local-controller construction failures.
    pub fn new(
        set: &TaskSet,
        set_points: Vector,
        cfg: MpcConfig,
        plan: ShardPlan,
    ) -> Result<Self, ControlError> {
        let n = set.num_processors();
        let m = set.num_tasks();
        if set_points.len() != n {
            return Err(ControlError::DimensionMismatch(format!(
                "{} set points for {n} processors",
                set_points.len()
            )));
        }
        if plan.shard_of.len() != n {
            return Err(ControlError::DimensionMismatch(format!(
                "shard plan for {} processors applied to {n}",
                plan.shard_of.len()
            )));
        }
        cfg.validate(n)?;
        let f = set.allocation_matrix();
        let (rmin, rmax) = set.rate_bounds();
        let r0 = set.initial_rates();

        // Local controllers run with *soft* utilization constraints: a
        // hard local `u ≤ B` deadlocks cross-shard rebalancing (a task
        // crossing a saturated processor can never be raised, and the
        // saturated processor's owner sees zero error so never makes
        // room).  The tracking objective still drives every processor to
        // its set point; constraint satisfaction emerges at the team
        // level.  Measured on 16×48 systems at shard size 1: worst
        // steady-state error 0.29 with hard local constraints vs 0.0004
        // with soft ones.
        let local_cfg = cfg.clone().utilization_constraints(false);

        let mut controllers = Vec::new();
        for (s, home) in plan.shards().iter().enumerate() {
            let owned: Vec<usize> = (0..m)
                .filter(|&j| home.contains(&set.tasks()[j].subtasks()[0].processor.0))
                .collect();
            if owned.is_empty() {
                continue;
            }
            let mut neighborhood: Vec<usize> = Vec::new();
            for &j in &owned {
                for st in set.tasks()[j].subtasks() {
                    if !neighborhood.contains(&st.processor.0) {
                        neighborhood.push(st.processor.0);
                    }
                }
            }
            neighborhood.sort_unstable();

            let f_local = Matrix::from_fn(neighborhood.len(), owned.len(), |r, c| {
                f[(neighborhood[r], owned[c])]
            });
            let b_local = Vector::from_iter(neighborhood.iter().map(|&q| set_points[q]));
            let mut shard_cfg = local_cfg.clone();
            shard_cfg.tracking_weights = (cfg.tracking_weights.as_ref())
                .map(|w| Vector::from_iter(neighborhood.iter().map(|&q| w[q])));
            let mpc = MpcController::from_model(
                f_local,
                b_local,
                Vector::from_iter(owned.iter().map(|&j| rmin[j])),
                Vector::from_iter(owned.iter().map(|&j| rmax[j])),
                Vector::from_iter(owned.iter().map(|&j| r0[j])),
                shard_cfg,
            )?;

            let boundary_tasks: Vec<usize> = (0..m)
                .filter(|&c| !owned.contains(&c) && neighborhood.iter().any(|&q| f[(q, c)] != 0.0))
                .collect();
            let foreign = Matrix::from_fn(neighborhood.len(), boundary_tasks.len(), |r, c| {
                f[(neighborhood[r], boundary_tasks[c])]
            });
            let boundary_procs: Vec<usize> = neighborhood
                .iter()
                .copied()
                .filter(|&q| !home.contains(&q))
                .collect();
            let view_slot = neighborhood
                .iter()
                .map(|q| boundary_procs.iter().position(|bp| bp == q))
                .collect();
            // Boundary-utilization view defaults to the set point: an
            // undelivered boundary sample contributes zero error rather
            // than a phantom disturbance.
            let view_u: Vec<f64> = boundary_procs.iter().map(|&q| set_points[q]).collect();

            let neighborhood_len = neighborhood.len();
            controllers.push(ShardController {
                shard: s,
                owned,
                neighborhood,
                mpc,
                foreign,
                view_moves: Vector::zeros(boundary_tasks.len()),
                boundary_tasks,
                boundary_procs,
                view_slot,
                view_u,
                disturbance: Vector::zeros(neighborhood_len),
                u_local: Vector::zeros(neighborhood_len),
            });
        }

        let mut actuator_count = vec![0usize; n];
        for ctrl in &controllers {
            for &q in &ctrl.neighborhood {
                actuator_count[q] += 1;
            }
        }
        for c in &mut actuator_count {
            *c = (*c).max(1);
        }

        Ok(ShardedController {
            plan,
            controllers,
            staged_rates: r0.clone(),
            rates: r0,
            num_processors: n,
            actuator_count,
            bus_scratch: Vec::new(),
            board: BoardBus {
                moves: vec![0.0; m],
                u: vec![0.0; n],
            },
        })
    }

    /// Convenience constructor: plans the partition with
    /// [`ShardPlanner`] at the given target shard size, then builds the
    /// team.  Shard size 1 is the singleton plan, one local MPC per
    /// processor: the DEUCON team.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardedController::new`].
    pub fn with_shard_size(
        set: &TaskSet,
        set_points: Vector,
        cfg: MpcConfig,
        shard_size: usize,
    ) -> Result<Self, ControlError> {
        let plan = ShardPlanner::new(set).target_size(shard_size).plan();
        Self::new(set, set_points, cfg, plan)
    }

    /// The processor partition this team runs under.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shard controllers in the team (shards owning at least
    /// one task).
    pub fn num_controllers(&self) -> usize {
        self.controllers.len()
    }

    /// Largest local problem size (owned tasks), a proxy for per-shard
    /// cost.
    pub fn max_shard_tasks(&self) -> usize {
        self.controllers
            .iter()
            .map(|c| c.owned.len())
            .max()
            .unwrap_or(0)
    }

    /// Largest boundary size (foreign tasks a shard needs moves for) —
    /// the per-period exchange volume per shard.
    pub fn max_boundary_tasks(&self) -> usize {
        self.controllers
            .iter()
            .map(|c| c.boundary_tasks.len())
            .max()
            .unwrap_or(0)
    }

    /// Lower bandwidth of each shard's prepared rate-solver Hessian, in
    /// sweep order (see `MpcController::hessian_bandwidth`).
    pub fn hessian_bandwidths(&self) -> Vec<usize> {
        self.controllers
            .iter()
            .map(|c| c.mpc.hessian_bandwidth())
            .collect()
    }

    /// Per-shard local problem sizes `(owned tasks, neighborhood
    /// processors)`, in sweep order.
    pub fn shard_problem_sizes(&self) -> Vec<(usize, usize)> {
        self.controllers
            .iter()
            .map(|c| (c.owned.len(), c.neighborhood.len()))
            .collect()
    }

    /// The team's one Gauss–Seidel sweep, with boundary state routed
    /// through `bus`: shards act in a fixed order, each seeing the moves
    /// its earlier peers committed this period and predicting the rest
    /// by their previous move.
    ///
    /// [`RateController::update`] is this sweep over the team's private
    /// in-memory board, and an ideal (lossless, same-period) bus is
    /// bit-identical to it; over a lossy bus each shard reuses its last
    /// delivered boundary view (stale-state hold), so the team converges
    /// to the same fixed point once the bus delivers again — eventual
    /// consistency between control domains.
    ///
    /// # Errors
    ///
    /// Propagates local-solve failures; rates stay unchanged on error.
    pub fn update_with_bus(
        &mut self,
        u: &Vector,
        bus: &mut dyn BoundaryBus,
    ) -> Result<(), ControlError> {
        if u.len() != self.num_processors {
            return Err(ControlError::DimensionMismatch(format!(
                "{} utilization samples for {} processors",
                u.len(),
                self.num_processors
            )));
        }
        bus.begin_period();
        let ShardedController {
            plan,
            controllers,
            rates,
            actuator_count,
            staged_rates: new_rates,
            bus_scratch: scratch,
            ..
        } = self;
        // Phase A: every shard publishes its home utilizations —
        // including shards that own no tasks, whose processors may still
        // sit on a peer's boundary.
        for (s, home) in plan.shards().iter().enumerate() {
            scratch.clear();
            scratch.extend(home.iter().map(|&p| u[p]));
            bus.publish_utilization(s, home, scratch);
        }

        // Phase B: the Gauss–Seidel sweep, with each shard's boundary
        // view refreshed from the bus immediately before its solve and
        // its committed moves published immediately after.
        new_rates.copy_from(rates);
        for ctrl in controllers.iter_mut() {
            bus.fetch(
                ctrl.shard,
                &ctrl.boundary_tasks,
                ctrl.view_moves.as_mut_slice(),
                &ctrl.boundary_procs,
                &mut ctrl.view_u,
            );
            ctrl.foreign
                .mul_vec_into(&ctrl.view_moves, &mut ctrl.disturbance);
            for (r, &q) in ctrl.neighborhood.iter().enumerate() {
                let b = ctrl.mpc.set_points()[r];
                let uq = ctrl.view_slot[r].map_or(u[q], |i| ctrl.view_u[i]);
                let err = uq + ctrl.disturbance[r] - b;
                ctrl.u_local[r] = (b + err / actuator_count[q] as f64).clamp(0.0, 1.0);
            }
            ctrl.mpc.step_in_place(&ctrl.u_local)?;
            let r_local = ctrl.mpc.rates();
            scratch.clear();
            for (c, &j) in ctrl.owned.iter().enumerate() {
                scratch.push(r_local[c] - rates[j]);
                new_rates[j] = r_local[c];
            }
            bus.publish_moves(ctrl.shard, &ctrl.owned, scratch);
        }
        std::mem::swap(rates, new_rates);
        Ok(())
    }
}

impl RateController for ShardedController {
    fn update(&mut self, u: &Vector) -> Result<(), ControlError> {
        let mut board = std::mem::take(&mut self.board);
        let result = self.update_with_bus(u, &mut board);
        self.board = board;
        result
    }

    fn rates(&self) -> &Vector {
        &self.rates
    }

    fn name(&self) -> &'static str {
        "SHARD-EUCON"
    }

    fn telemetry(&self) -> ControllerTelemetry {
        // Aggregate across the per-shard MPCs: counts add up, flags
        // report "any shard did this" — the period is only as clean as
        // its worst local solve.
        let mut t = ControllerTelemetry::default();
        for ctrl in &self.controllers {
            let lt = ctrl.mpc.telemetry();
            t.qp_iterations += lt.qp_iterations;
            t.warm_retained += lt.warm_retained;
            t.active_set_size += lt.active_set_size;
            t.active_churn += lt.active_churn;
            t.warm_start |= lt.warm_start;
            t.cold_retry |= lt.cold_retry;
            t.relaxed_utilization |= lt.relaxed_utilization;
        }
        t
    }

    fn reset(&mut self, rates: &Vector) {
        assert_eq!(rates.len(), self.rates.len(), "one rate per task required");
        for ctrl in &mut self.controllers {
            let sub = Vector::from_iter(ctrl.owned.iter().map(|&j| rates[j]));
            ctrl.mpc.reset(&sub);
            for (c, &j) in ctrl.owned.iter().enumerate() {
                self.rates[j] = ctrl.mpc.rates()[c];
            }
            ctrl.view_moves.as_mut_slice().fill(0.0);
        }
        self.board.moves.fill(0.0);
    }

    /// A clone: each shard's prepared QP core is behind an `Arc`.
    fn shared_clone(&self) -> Option<Box<dyn RateController + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::{rms_set_points, workloads, workloads::RandomWorkload};

    fn medium_team(size: usize) -> ShardedController {
        let set = workloads::medium();
        let b = rms_set_points(&set);
        ShardedController::with_shard_size(&set, b, MpcConfig::medium(), size).unwrap()
    }

    #[test]
    fn singleton_plan_is_identity() {
        let plan = ShardPlan::singletons(5);
        assert_eq!(plan.num_shards(), 5);
        for p in 0..5 {
            assert_eq!(plan.shard_of(p), p);
            assert_eq!(plan.shards()[p], vec![p]);
        }
    }

    #[test]
    fn planner_respects_size_cap_and_partitions() {
        for size in [1, 2, 3, 4] {
            let set = workloads::medium();
            let plan = ShardPlanner::new(&set).target_size(size).plan();
            assert!(plan.max_shard_size() <= size);
            let mut seen = vec![false; set.num_processors()];
            for group in plan.shards() {
                for &p in group {
                    assert!(!seen[p], "processor {p} in two shards");
                    seen[p] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "plan must cover every processor");
        }
    }

    #[test]
    fn planner_is_deterministic() {
        let set = RandomWorkload::new(16, 48).seed(3).generate();
        let a = ShardPlanner::new(&set).target_size(4).plan();
        let b = ShardPlanner::new(&set).target_size(4).plan();
        assert_eq!(a, b);
    }

    #[test]
    fn planner_merges_reduce_the_cut() {
        let set = RandomWorkload::new(16, 48).seed(5).generate();
        let singles = ShardPlan::singletons(16);
        let merged = ShardPlanner::new(&set).target_size(4).plan();
        assert!(merged.num_shards() < 16);
        assert!(
            merged.cut_tasks(&set) <= singles.cut_tasks(&set),
            "merging coupled processors must not grow the cut"
        );
    }

    #[test]
    fn from_groups_rejects_bad_partitions() {
        assert!(ShardPlan::from_groups(vec![vec![0, 1], vec![1]], 2).is_err());
        assert!(ShardPlan::from_groups(vec![vec![0]], 2).is_err());
        assert!(ShardPlan::from_groups(vec![vec![0, 5]], 2).is_err());
        assert!(ShardPlan::from_groups(vec![vec![1, 0], vec![2]], 3).is_ok());
    }

    #[test]
    fn singleton_team_on_simple_has_single_and_multi_owner_nodes() {
        // SIMPLE: T1 and T2 head on P1, T3 heads on P2 → two controllers.
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let team = ShardedController::with_shard_size(&set, b, MpcConfig::simple(), 1).unwrap();
        assert_eq!(team.num_controllers(), 2);
        assert_eq!(team.max_shard_tasks(), 2);
    }

    #[test]
    fn singleton_local_problems_are_smaller_than_global() {
        let set = workloads::medium();
        let b = rms_set_points(&set);
        let team = ShardedController::with_shard_size(&set, b, MpcConfig::medium(), 1).unwrap();
        assert!(team.num_controllers() >= 2);
        assert!(
            team.max_shard_tasks() < set.num_tasks(),
            "decentralization must shrink the per-node problem"
        );
    }

    #[test]
    fn ownership_partitions_tasks_at_any_shard_size() {
        for size in [1, 2, 4] {
            let set = workloads::medium();
            let team = medium_team(size);
            let mut seen = vec![false; set.num_tasks()];
            for ctrl in &team.controllers {
                for &j in &ctrl.owned {
                    assert!(!seen[j], "task {j} owned twice at size {size}");
                    seen[j] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "every task owned at size {size}");
        }
    }

    #[test]
    fn neighborhoods_cover_owned_chains() {
        let set = workloads::medium();
        for size in [1, 2] {
            for ctrl in &medium_team(size).controllers {
                for &j in &ctrl.owned {
                    for st in set.tasks()[j].subtasks() {
                        assert!(ctrl.neighborhood.contains(&st.processor.0));
                    }
                }
            }
        }
    }

    #[test]
    fn whole_system_shard_has_no_boundary() {
        // One shard covering everything = centralized (soft-constraint)
        // control: nothing to exchange.
        let team = medium_team(4);
        assert_eq!(team.num_controllers(), 1);
        assert_eq!(team.max_boundary_tasks(), 0);
    }

    #[test]
    fn converges_on_the_model_at_each_shard_size() {
        let set = RandomWorkload::new(8, 24).seed(2).generate();
        let b = rms_set_points(&set);
        let f = set.allocation_matrix();
        for size in [1, 2, 4, 8] {
            let mut team =
                ShardedController::with_shard_size(&set, b.clone(), MpcConfig::medium(), size)
                    .unwrap();
            let mut u = set.estimated_utilization(&set.initial_rates()).scale(0.5);
            let mut prev = team.rates().clone();
            for _ in 0..200 {
                team.update(&u).unwrap();
                let r = team.rates().clone();
                u = &u + &f.mul_vec(&(&r - &prev)).scale(0.5);
                prev = r;
            }
            assert!(
                (&u - &b).max_abs() < 0.03,
                "shard size {size} failed to converge: err {}",
                (&u - &b).max_abs()
            );
        }
    }

    #[test]
    fn rates_respect_bounds() {
        let set = workloads::medium();
        for size in [1, 2] {
            let mut team = medium_team(size);
            for _ in 0..30 {
                team.update(&Vector::filled(4, 1.0)).unwrap();
                for (j, task) in set.tasks().iter().enumerate() {
                    assert!(team.rates()[j] >= task.rate_min() - 1e-12);
                    assert!(team.rates()[j] <= task.rate_max() + 1e-12);
                }
            }
        }
    }

    #[test]
    fn dimension_mismatches_detected() {
        let set = workloads::medium();
        let b = rms_set_points(&set);
        assert!(matches!(
            ShardedController::with_shard_size(&set, Vector::zeros(2), MpcConfig::medium(), 2),
            Err(ControlError::DimensionMismatch(_))
        ));
        let wrong_plan = ShardPlan::singletons(7);
        assert!(matches!(
            ShardedController::new(&set, b.clone(), MpcConfig::medium(), wrong_plan),
            Err(ControlError::DimensionMismatch(_))
        ));
        let mut team = medium_team(2);
        assert!(matches!(
            team.update(&Vector::zeros(9)),
            Err(ControlError::DimensionMismatch(_))
        ));
    }

    /// A bus that delivers nothing: every shard must fall back to its
    /// retained view and the team must still converge (the couplings
    /// are simply handled as unpredicted disturbances).
    struct DeafBus;

    impl BoundaryBus for DeafBus {
        fn publish_utilization(&mut self, _: usize, _: &[usize], _: &[f64]) {}
        fn fetch(&mut self, _: usize, _: &[usize], _: &mut [f64], _: &[usize], _: &mut [f64]) {}
        fn publish_moves(&mut self, _: usize, _: &[usize], _: &[f64]) {}
    }

    #[test]
    fn deaf_bus_still_converges_near_the_set_points() {
        let set = RandomWorkload::new(8, 24).seed(4).generate();
        let b = rms_set_points(&set);
        let f = set.allocation_matrix();
        let mut team =
            ShardedController::with_shard_size(&set, b.clone(), MpcConfig::medium(), 3).unwrap();
        let mut u = set.estimated_utilization(&set.initial_rates()).scale(0.5);
        let mut prev = team.rates().clone();
        for _ in 0..300 {
            team.update_with_bus(&u, &mut DeafBus).unwrap();
            let r = team.rates().clone();
            u = &u + &f.mul_vec(&(&r - &prev)).scale(0.5);
            prev = r;
        }
        assert!(
            (&u - &b).max_abs() < 0.05,
            "deaf-bus team must still track: err {}",
            (&u - &b).max_abs()
        );
    }

    #[test]
    fn reset_clears_views_and_momentum() {
        let set = workloads::medium();
        let mut team = medium_team(2);
        team.update(&Vector::filled(4, 0.9)).unwrap();
        let r0 = set.initial_rates();
        team.reset(&r0);
        assert!(team.board.moves.iter().all(|&mv| mv == 0.0));
        for ctrl in &team.controllers {
            assert_eq!(ctrl.view_moves.max_abs(), 0.0);
        }
    }

    #[test]
    fn shard_state_is_sized_by_the_boundary_not_the_task_count() {
        let set = RandomWorkload::new(256, 768)
            .seed(21)
            .locality(2)
            .max_chain_len(3)
            .generate();
        let b = rms_set_points(&set);
        let team = ShardedController::with_shard_size(&set, b, MpcConfig::medium(), 1).unwrap();
        for ctrl in &team.controllers {
            let boundary = ctrl.boundary_tasks.len();
            assert_eq!(ctrl.foreign.cols(), boundary, "shard {}", ctrl.shard);
            assert_eq!(ctrl.view_moves.len(), boundary, "shard {}", ctrl.shard);
        }
    }

    #[test]
    fn name_distinguishes_shard_team() {
        assert_eq!(medium_team(2).name(), "SHARD-EUCON");
    }
}
