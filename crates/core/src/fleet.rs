//! Fleet runtime: thousands of independent closed loops on one
//! work-stealing thread pool.
//!
//! The paper's experiments run one loop at a time; capacity studies and
//! parameter sweeps want the opposite — *N* independent EUCON loops (one
//! per simulated system) packed onto the machine and measured as a fleet.
//! This module provides that:
//!
//! * [`FleetLoopSpec`] — a `Send + Clone` description of one loop (task
//!   set, simulator configuration, controller, fault plan).  Workers
//!   build the actual [`ClosedLoop`](crate::ClosedLoop) locally (through
//!   [`LoopBuilder::local`]), so the non-`Send` solver
//!   state (amortized factorizations behind a `RefCell`) never crosses a
//!   thread boundary.
//! * [`FleetRunner`] — runs every spec to completion on a work-stealing
//!   pool ([`rayon::par_map_init`]), stealing loop-sized work items so an
//!   expensive loop (faults, supervisor churn) does not stall the pool.
//! * [`FleetReport`] — aggregate throughput (periods/s, simulator
//!   events/s) plus one order-independent digest per loop.
//!
//! # Determinism
//!
//! Each loop is self-contained — its own simulator, RNG streams and
//! controller scratch — and specs are handed to workers whole, so the
//! per-loop trace digest is a pure function of the spec.  The digest
//! vector is therefore **bit-identical across thread counts** (pinned by
//! the `fleet_determinism` integration test), which makes fleet results
//! reproducible on any machine regardless of parallelism.
//!
//! # Steady-state cost
//!
//! Loops run with trace recording off and (optionally) batched telemetry
//! export, so the per-period step stays allocation-free: scratch lives in
//! per-loop arenas allocated at build time, and sink traffic is one drain
//! per [`FleetConfig::telemetry_batch`] periods instead of one per period.
//!
//! # Shared prepared models
//!
//! A homogeneous fleet would otherwise prepare the same controller model
//! — the `C` prediction matrix, constraint rows `G` and the Cholesky
//! factor of the Hessian — once per loop.  With
//! [`FleetConfig::share_models`] (the default), the runner builds **one
//! pristine prototype controller per distinct `(task set, controller,
//! set points)` group** on the calling thread and ships a clone to each
//! worker.  Clones share the immutable prepared core behind an `Arc`
//! (inside [`eucon_qp::PreparedQp`]), while warm-start state (active sets, LU
//! memos) stays per-loop, so a 10k-loop replicated fleet holds one copy
//! of the model instead of 10k.  Sharing is memory-only: the
//! `shared_prototypes_leave_digests_unchanged` test pins that digests are
//! bit-identical with sharing on and off.  Specs with churn plans or
//! admission policies always build their own controller (membership
//! edits rebuild the model per loop anyway).
//!
//! # Example
//!
//! ```
//! use eucon_core::{FleetConfig, FleetLoopSpec, FleetRunner};
//! use eucon_sim::SimConfig;
//! use eucon_tasks::workloads;
//!
//! # fn main() -> Result<(), eucon_core::CoreError> {
//! let spec = FleetLoopSpec::new(workloads::simple())
//!     .sim_config(SimConfig::constant_etf(0.5));
//! let fleet = FleetRunner::replicated(spec, 8, FleetConfig::new(25));
//! let report = fleet.run()?;
//! assert_eq!(report.loops, 8);
//! assert_eq!(report.total_periods, 8 * 25);
//! // Identical specs produce identical digests.
//! assert!(report.digests.iter().all(|&d| d == report.digests[0]));
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::Instant;

use eucon_control::{MpcController, RateController, ShardedController};
use eucon_math::Vector;
use eucon_sim::{FaultPlan, SimConfig};
use eucon_tasks::{rms_set_points, TaskSet};

use crate::admission::{AdmissionPolicy, ChurnPlan, ChurnSummary};
use crate::plant::PlantFactory;
use crate::telemetry::RingBufferSink;
use crate::{ControllerSpec, CoreError, LoopBuilder};

/// A `Send + Clone` description of one closed loop in a fleet.
///
/// Everything here is plain configuration data; the loop itself (with its
/// non-`Send` solver caches and its plant) is built inside the worker
/// that runs it.
#[derive(Clone)]
pub struct FleetLoopSpec {
    set: TaskSet,
    sim: SimConfig,
    controller: ControllerSpec,
    set_points: Option<Vector>,
    faults: FaultPlan,
    churn: ChurnPlan,
    admission: Option<AdmissionPolicy>,
    plant: Option<Arc<dyn PlantFactory>>,
}

impl std::fmt::Debug for FleetLoopSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetLoopSpec")
            .field("controller", &self.controller)
            .field("plant", &self.plant.as_ref().map_or("sim", |p| p.label()))
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl FleetLoopSpec {
    /// A spec for `set` with the defaults of [`LoopBuilder::new`]:
    /// EUCON with SIMPLE's parameters, ideal lanes, no faults.
    pub fn new(set: TaskSet) -> Self {
        FleetLoopSpec {
            set,
            sim: SimConfig::default(),
            controller: ControllerSpec::Eucon(eucon_control::MpcConfig::simple()),
            set_points: None,
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            admission: None,
            plant: None,
        }
    }

    /// Chooses the plant backend every replica drives (default: the
    /// `eucon-sim` simulator).  The factory is shared by reference
    /// across workers; each builds its own plant.
    pub fn plant(mut self, factory: impl PlantFactory + 'static) -> Self {
        self.plant = Some(Arc::new(factory));
        self
    }

    /// Chooses the simulator configuration.
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim = cfg;
        self
    }

    /// Chooses the controller.
    pub fn controller(mut self, spec: ControllerSpec) -> Self {
        self.controller = spec;
        self
    }

    /// Overrides the utilization set points (default: the RMS bounds).
    pub fn set_points(mut self, b: Vector) -> Self {
        self.set_points = Some(b);
        self
    }

    /// Installs a fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Installs a runtime-membership (churn) plan.
    pub fn churn(mut self, plan: ChurnPlan) -> Self {
        self.churn = plan;
        self
    }

    /// Overrides the admission policy (a non-empty churn plan engages
    /// admission control with [`AdmissionPolicy::default`] already).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }
}

/// Fleet-wide execution parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    periods: usize,
    threads: Option<usize>,
    telemetry_batch: usize,
    share_models: bool,
}

impl FleetConfig {
    /// Runs every loop for `periods` sampling periods on the default
    /// thread pool ([`rayon::current_num_threads`], i.e. the machine's
    /// parallelism unless `EUCON_THREADS` / `RAYON_NUM_THREADS` pins it),
    /// telemetry unbatched.
    pub fn new(periods: usize) -> Self {
        FleetConfig {
            periods,
            threads: None,
            telemetry_batch: 0,
            share_models: true,
        }
    }

    /// Pins the worker-pool size explicitly instead of reading the
    /// process environment — determinism tests sweep this over
    /// {1, 2, 8} without racing on `std::env::set_var`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Batches each loop's telemetry export: a bounded ring sink is
    /// attached and drained once per `rows` periods (plus one final
    /// partial drain, counted in [`FleetReport::partial_flushes`])
    /// instead of being written once per period.  `0` (the default)
    /// leaves loops sink-free — the cheapest configuration.
    pub fn telemetry_batch(mut self, rows: usize) -> Self {
        self.telemetry_batch = rows;
        self
    }

    /// Toggles the shared prepared-model prototype cache (see
    /// DESIGN.md §14; default on).  Turning it off makes every
    /// worker prepare its own model — useful only for isolating the
    /// sharing machinery in benchmarks and tests.
    pub fn share_models(mut self, on: bool) -> Self {
        self.share_models = on;
        self
    }
}

/// Aggregate outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Number of loops run.
    pub loops: usize,
    /// Total sampling periods executed across the fleet.
    pub total_periods: u64,
    /// Total simulator events processed across the fleet.
    pub engine_events: u64,
    /// Controller-error periods summed across the fleet (0 in a healthy
    /// fleet).
    pub control_errors: u64,
    /// Partial telemetry batches delivered at end-of-run flushes (0 when
    /// batching is off or every batch filled exactly).
    pub partial_flushes: u64,
    /// Runtime-membership activity summed across the fleet (all zero in a
    /// churn-free fleet).
    pub churn: ChurnSummary,
    /// Loops that were seeded from a shared prototype clone (0 when
    /// [`FleetConfig::share_models`] is off or no two specs matched).
    pub shared_models: usize,
    /// Wall-clock seconds for the whole fleet.
    pub elapsed_secs: f64,
    /// One FNV-1a digest per loop, in spec order, over every step's time,
    /// true utilizations and applied rates.  A pure function of the spec:
    /// independent of thread count and scheduling order.
    pub digests: Vec<u64>,
}

impl FleetReport {
    /// Aggregate control throughput: sampling periods per wall-clock
    /// second across the whole fleet.
    pub fn periods_per_sec(&self) -> f64 {
        self.total_periods as f64 / self.elapsed_secs
    }

    /// Aggregate simulator throughput in millions of events per second.
    pub fn mevents_per_sec(&self) -> f64 {
        self.engine_events as f64 / self.elapsed_secs / 1e6
    }
}

/// Runs a set of [`FleetLoopSpec`]s to completion on a work-stealing
/// thread pool.  See DESIGN.md §14 for the execution model.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    specs: Vec<FleetLoopSpec>,
    config: FleetConfig,
}

impl FleetRunner {
    /// An empty fleet; add loops with [`FleetRunner::push`].
    pub fn new(config: FleetConfig) -> Self {
        FleetRunner {
            specs: Vec::new(),
            config,
        }
    }

    /// A homogeneous fleet: `n` copies of one spec (each still runs its
    /// own independent simulator and controller).
    pub fn replicated(spec: FleetLoopSpec, n: usize, config: FleetConfig) -> Self {
        FleetRunner {
            specs: vec![spec; n],
            config,
        }
    }

    /// Adds one loop to the fleet.
    pub fn push(&mut self, spec: FleetLoopSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Number of loops queued.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Runs every loop to completion and aggregates the fleet report.
    ///
    /// Loops are the work items: workers steal whole loops from a shared
    /// queue, so heterogeneous fleets balance automatically.  Digests in
    /// the report follow spec order regardless of which worker ran what.
    ///
    /// # Errors
    ///
    /// Returns the first loop-construction failure ([`CoreError::Config`]
    /// or [`CoreError::Control`]); loops that already ran are discarded.
    pub fn run(&self) -> Result<FleetReport, CoreError> {
        let periods = self.config.periods;
        let batch = self.config.telemetry_batch;
        let t0 = Instant::now();
        let prototypes = if self.config.share_models {
            share_prototypes(&self.specs)?
        } else {
            vec![None; self.specs.len()]
        };
        let shared_models = prototypes.iter().filter(|p| p.is_some()).count();
        let items: Vec<(FleetLoopSpec, Option<Prototype>)> =
            self.specs.iter().cloned().zip(prototypes).collect();
        let outcomes: Result<Vec<LoopOutcome>, CoreError> = rayon::par_map_init(
            items,
            self.config.threads,
            || (),
            |(), (spec, proto)| run_one(&spec, proto, periods, batch),
        )
        .into_iter()
        .collect();
        let elapsed_secs = t0.elapsed().as_secs_f64();
        let outcomes = outcomes?;
        let mut report = FleetReport {
            loops: outcomes.len(),
            total_periods: 0,
            engine_events: 0,
            control_errors: 0,
            partial_flushes: 0,
            churn: ChurnSummary::default(),
            shared_models,
            elapsed_secs,
            digests: Vec::with_capacity(outcomes.len()),
        };
        for o in outcomes {
            report.total_periods += o.periods;
            report.engine_events += o.engine_events;
            report.control_errors += o.control_errors;
            report.partial_flushes += o.partial_flushes;
            report.churn.add(&o.churn);
            report.digests.push(o.digest);
        }
        Ok(report)
    }
}

/// A pristine, cloneable controller prepared once per homogeneous group.
/// Clones share the immutable prepared QP core (`Arc`-backed) and carry
/// their own warm-start scratch, so handing one to each loop costs a
/// reference-count bump instead of a Cholesky factorization.
#[derive(Debug, Clone)]
enum Prototype {
    Mpc(Box<MpcController>),
    Sharded(Box<ShardedController>),
}

impl Prototype {
    /// Whether the cache covers this spec: a prepared-MPC controller
    /// (centralized, decentralized or in-process sharded — not open
    /// loop, PID, networked shards or supervised stacks) with a static
    /// task set.  Specs with membership churn rebuild the model online,
    /// so they always prepare their own.
    fn eligible(spec: &FleetLoopSpec) -> bool {
        spec.churn.is_empty()
            && spec.admission.is_none()
            && matches!(
                spec.controller,
                ControllerSpec::Eucon(_)
                    | ControllerSpec::Decentralized(_)
                    | ControllerSpec::Sharded {
                        boundary: crate::BoundaryMode::InProcess,
                        ..
                    }
            )
    }

    /// Builds the prototype for a sharing-eligible spec (`None` when
    /// [`Prototype::eligible`] is false).
    fn build(spec: &FleetLoopSpec) -> Result<Option<Prototype>, CoreError> {
        if !Prototype::eligible(spec) {
            return Ok(None);
        }
        let b = spec
            .set_points
            .clone()
            .unwrap_or_else(|| rms_set_points(&spec.set));
        if b.len() != spec.set.num_processors() {
            // Arity errors surface through the loop builder with its
            // usual diagnostics; don't preempt them here.
            return Ok(None);
        }
        Ok(match &spec.controller {
            ControllerSpec::Eucon(cfg) => Some(Prototype::Mpc(Box::new(
                MpcController::new(&spec.set, b, cfg.clone()).map_err(CoreError::Control)?,
            ))),
            ControllerSpec::Decentralized(cfg) => Some(Prototype::Sharded(Box::new(
                ShardedController::singleton(&spec.set, b, cfg.clone())
                    .map_err(CoreError::Control)?,
            ))),
            ControllerSpec::Sharded {
                mpc,
                shard_size,
                boundary: crate::BoundaryMode::InProcess,
            } => Some(Prototype::Sharded(Box::new(
                ShardedController::with_shard_size(&spec.set, b, mpc.clone(), *shard_size)
                    .map_err(CoreError::Control)?,
            ))),
            _ => None,
        })
    }

    fn into_controller(self) -> Box<dyn RateController> {
        match self {
            Prototype::Mpc(c) => c,
            Prototype::Sharded(c) => c,
        }
    }
}

/// Groups sharing-eligible specs by `(task set, controller, set points)`
/// and prepares one prototype per group with at least two members.
/// Returns one `Option<Prototype>` clone slot per spec, in spec order.
fn share_prototypes(specs: &[FleetLoopSpec]) -> Result<Vec<Option<Prototype>>, CoreError> {
    let mut out: Vec<Option<Prototype>> = vec![None; specs.len()];
    // (representative index, member indices); linear-scan grouping is
    // O(groups × specs) — fine even at 10k loops, where `groups` is tiny.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if !Prototype::eligible(spec) {
            continue;
        }
        let key = (&spec.set, &spec.controller, &spec.set_points);
        match groups.iter_mut().find(|(rep, _)| {
            let r = &specs[*rep];
            (&r.set, &r.controller, &r.set_points) == key
        }) {
            Some((_, members)) => members.push(i),
            None => groups.push((i, vec![i])),
        }
    }
    for (rep, members) in groups {
        if members.len() < 2 {
            continue; // a singleton gains nothing from a main-thread build
        }
        if let Some(proto) = Prototype::build(&specs[rep])? {
            for i in members {
                out[i] = Some(proto.clone());
            }
        }
    }
    Ok(out)
}

/// What one worker hands back per loop — small plain data, so the result
/// collection stays cheap even at 10k+ loops.
struct LoopOutcome {
    digest: u64,
    periods: u64,
    engine_events: u64,
    control_errors: u64,
    partial_flushes: u64,
    churn: ChurnSummary,
}

/// Builds and runs one loop inside a worker thread.
fn run_one(
    spec: &FleetLoopSpec,
    proto: Option<Prototype>,
    periods: usize,
    batch: usize,
) -> Result<LoopOutcome, CoreError> {
    let mut builder = LoopBuilder::new(spec.set.clone())
        .sim_config(spec.sim.clone())
        .faults(spec.faults.clone())
        .churn(spec.churn.clone())
        .record_trace(false);
    builder = match proto {
        // A prototype clone already carries the prepared model; the
        // builder consumes it through the prebuilt-controller factory.
        Some(p) => builder.controller(p.into_controller()),
        None => builder.controller(spec.controller.clone()),
    };
    if let Some(b) = &spec.set_points {
        builder = builder.set_points(b.clone());
    }
    if let Some(policy) = &spec.admission {
        builder = builder.admission(policy.clone());
    }
    if let Some(factory) = &spec.plant {
        builder = builder.plant(factory.clone());
    }
    if batch > 0 {
        builder = builder
            .telemetry_sink(RingBufferSink::new(batch))
            .telemetry_batch(batch);
    }
    let mut cl = builder.local()?;
    let mut digest = Fnv::new();
    for _ in 0..periods {
        let step = cl.step();
        digest.f64(step.time);
        for &x in step.utilization.iter() {
            digest.f64(x);
        }
        for &x in step.rates.iter() {
            digest.f64(x);
        }
    }
    // `run(0)` steps nothing further: it flushes the telemetry (delivering
    // any partial batch exactly once) and snapshots the counters.
    let result = cl.run(0);
    Ok(LoopOutcome {
        digest: digest.0,
        periods: periods as u64,
        engine_events: result.engine.events,
        control_errors: result.control_errors as u64,
        partial_flushes: result.telemetry.counter("partial_flushes").unwrap_or(0),
        churn: result.churn,
    })
}

/// FNV-1a 64 over bit patterns — the same digest the golden-trace suites
/// pin, applied per loop.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f64(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_control::MpcConfig;
    use eucon_tasks::workloads;

    fn mixed_specs() -> Vec<FleetLoopSpec> {
        let mut specs = Vec::new();
        for i in 0..12 {
            let spec = match i % 3 {
                0 => {
                    FleetLoopSpec::new(workloads::simple()).sim_config(SimConfig::constant_etf(0.5))
                }
                1 => FleetLoopSpec::new(workloads::medium())
                    .sim_config(SimConfig::constant_etf(0.9).seed(i as u64))
                    .controller(ControllerSpec::Eucon(MpcConfig::medium())),
                _ => FleetLoopSpec::new(workloads::simple())
                    .sim_config(SimConfig::constant_etf(0.5))
                    .controller(ControllerSpec::SupervisedEucon {
                        mpc: MpcConfig::simple(),
                        supervisor: Default::default(),
                    })
                    .faults(FaultPlan::none().crash(1, 5, 9).seed(7)),
            };
            specs.push(spec);
        }
        specs
    }

    #[test]
    fn digests_are_thread_count_invariant() {
        let run_at = |threads: usize| {
            let mut fleet = FleetRunner::new(FleetConfig::new(15).threads(threads));
            for spec in mixed_specs() {
                fleet.push(spec);
            }
            fleet.run().expect("fleet runs")
        };
        let one = run_at(1);
        let four = run_at(4);
        assert_eq!(one.digests, four.digests);
        assert_eq!(one.total_periods, 12 * 15);
        assert_eq!(one.control_errors, four.control_errors);
        assert_eq!(one.engine_events, four.engine_events);
    }

    #[test]
    fn fleet_loop_matches_standalone_loop() {
        // A fleet member and a hand-built loop over the same spec observe
        // the same trace, bit for bit.
        let report = FleetRunner::replicated(
            FleetLoopSpec::new(workloads::simple()).sim_config(SimConfig::constant_etf(0.5)),
            1,
            FleetConfig::new(20).threads(1),
        )
        .run()
        .expect("fleet runs");
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .record_trace(false)
            .local()
            .expect("loop");
        let mut digest = Fnv::new();
        for _ in 0..20 {
            let s = cl.step();
            digest.f64(s.time);
            for &x in s.utilization.iter() {
                digest.f64(x);
            }
            for &x in s.rates.iter() {
                digest.f64(x);
            }
        }
        assert_eq!(report.digests, vec![digest.0]);
    }

    #[test]
    fn batched_fleet_counts_partial_flushes() {
        // 25 periods with batch = 10: two full drains + one 5-row partial
        // per loop.
        let report = FleetRunner::replicated(
            FleetLoopSpec::new(workloads::simple()).sim_config(SimConfig::constant_etf(0.5)),
            3,
            FleetConfig::new(25).threads(2).telemetry_batch(10),
        )
        .run()
        .expect("fleet runs");
        assert_eq!(report.partial_flushes, 3);
        assert_eq!(report.control_errors, 0);
        // Batching must not perturb the loops themselves.
        let unbatched = FleetRunner::replicated(
            FleetLoopSpec::new(workloads::simple()).sim_config(SimConfig::constant_etf(0.5)),
            3,
            FleetConfig::new(25).threads(2),
        )
        .run()
        .expect("fleet runs");
        assert_eq!(report.digests, unbatched.digests);
        assert_eq!(unbatched.partial_flushes, 0);
    }

    #[test]
    fn shared_prototypes_leave_digests_unchanged() {
        // The ISSUE's digest-equality gate: the prototype cache is a
        // memory optimization, so every per-loop trace digest must be
        // bit-identical with sharing on and off — across centralized,
        // decentralized and sharded controllers at once.
        let mut specs = Vec::new();
        for _ in 0..3 {
            specs.push(
                FleetLoopSpec::new(workloads::medium())
                    .sim_config(SimConfig::constant_etf(0.9).seed(11))
                    .controller(ControllerSpec::Eucon(MpcConfig::medium())),
            );
            specs.push(
                FleetLoopSpec::new(workloads::medium())
                    .sim_config(SimConfig::constant_etf(0.9).seed(12))
                    .controller(ControllerSpec::Decentralized(MpcConfig::medium())),
            );
            specs.push(
                FleetLoopSpec::new(workloads::medium())
                    .sim_config(SimConfig::constant_etf(0.9).seed(13))
                    .controller(ControllerSpec::Sharded {
                        mpc: MpcConfig::medium(),
                        shard_size: 2,
                        boundary: crate::BoundaryMode::InProcess,
                    }),
            );
        }
        // One ineligible spec rides along to prove mixed fleets work.
        specs.push(
            FleetLoopSpec::new(workloads::simple())
                .sim_config(SimConfig::constant_etf(0.5))
                .controller(ControllerSpec::Pid { kp: 1.0, ki: 0.1 }),
        );
        let run_with = |share: bool| {
            let mut fleet = FleetRunner::new(FleetConfig::new(20).threads(2).share_models(share));
            for s in &specs {
                fleet.push(s.clone());
            }
            fleet.run().expect("fleet runs")
        };
        let shared = run_with(true);
        let private = run_with(false);
        assert_eq!(shared.digests, private.digests);
        // Three groups of three share; the PID singleton does not.
        assert_eq!(shared.shared_models, 9);
        assert_eq!(private.shared_models, 0);
    }

    #[test]
    fn singletons_and_churned_specs_build_their_own_models() {
        let eucon = FleetLoopSpec::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()));
        // Two identical churn-carrying specs: grouped, but never shared.
        let churned = eucon
            .clone()
            .churn(ChurnPlan::none().departure(5, eucon_tasks::TaskId(0)));
        let mut fleet = FleetRunner::new(FleetConfig::new(10).threads(1));
        fleet.push(eucon); // singleton group
        fleet.push(churned.clone());
        fleet.push(churned);
        let report = fleet.run().expect("fleet runs");
        assert_eq!(report.shared_models, 0);
    }

    #[test]
    fn empty_fleet_reports_zeros() {
        let report = FleetRunner::new(FleetConfig::new(10)).run().expect("runs");
        assert_eq!(report.loops, 0);
        assert_eq!(report.total_periods, 0);
        assert!(report.digests.is_empty());
    }

    #[test]
    fn bad_spec_surfaces_the_config_error() {
        let spec = FleetLoopSpec::new(workloads::simple()).set_points(Vector::from_slice(&[0.8]));
        let err = FleetRunner::replicated(spec, 2, FleetConfig::new(5).threads(2))
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "got {err:?}");
    }
}
