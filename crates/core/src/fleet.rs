//! Fleet runtime: thousands of independent closed loops on one
//! work-stealing thread pool.
//!
//! The paper's experiments run one loop at a time; capacity studies and
//! parameter sweeps want the opposite — *N* independent EUCON loops (one
//! per simulated system) packed onto the machine and measured as a fleet.
//! This module provides that:
//!
//! * [`FleetRunner`] — runs a set of [`LoopBuilder`]s (the `Send + Clone`
//!   description of a loop) to completion on a work-stealing pool
//!   ([`rayon::par_map`]).  Each worker finishes its loops itself, as
//!   [`LoopBuilder::local`] does, and steals loop-sized work items so an
//!   expensive loop (faults, supervisor churn) does not stall the pool.
//! * [`FleetReport`] — aggregate throughput (periods/s, simulator
//!   events/s) plus one order-independent digest per loop.
//!
//! # Determinism
//!
//! Each loop is self-contained — its own simulator, RNG streams and
//! controller scratch — and builders are handed to workers whole, so the
//! per-loop trace digest is a pure function of the builder.  The digest
//! vector is therefore **bit-identical across thread counts** (pinned by
//! the `fleet_determinism` integration test), which makes fleet results
//! reproducible on any machine regardless of parallelism.
//!
//! # Steady-state cost
//!
//! Loops run with trace recording off and no telemetry sink, so the
//! per-period step stays allocation-free: scratch lives in per-loop
//! arenas allocated at build time.
//!
//! # Shared prepared models
//!
//! A homogeneous fleet would otherwise prepare the same controller model
//! — the `C` prediction matrix, constraint rows `G` and the Cholesky
//! factor of the Hessian — once per loop.  The runner builds **one
//! controller per distinct `(task set, controller, set points)` group**
//! of two or more loops, through [`ControllerSpec::build`] on the calling
//! thread, and hands each member its [`RateController::shared_clone`].
//! EUCON's MPC and the in-process sharded team return clones that share
//! the immutable prepared core behind an `Arc` (inside
//! [`eucon_qp::PreparedQp`]), while warm-start state (active sets, LU
//! memos) stays per-loop, so a 10k-loop replicated fleet holds one copy
//! of the model instead of 10k.  Every other controller returns `None`,
//! and its members build their own.  Sharing is memory-only: the
//! `shared_prototypes_leave_digests_unchanged` test pins every member's
//! digest to that of a standalone loop.  Loops with churn plans or
//! admission policies always build their own controller (membership
//! edits rebuild the model per loop anyway).
//!
//! [`ControllerSpec::build`]: crate::ControllerSpec::build
//!
//! # Example
//!
//! ```
//! use eucon_core::LoopBuilder;
//! use eucon_sim::SimConfig;
//! use eucon_tasks::workloads;
//!
//! # fn main() -> Result<(), eucon_core::CoreError> {
//! let report = LoopBuilder::new(workloads::simple())
//!     .sim_config(SimConfig::constant_etf(0.5))
//!     .fleet(8)
//!     .run(25)?;
//! assert_eq!(report.loops, 8);
//! assert_eq!(report.total_periods, 8 * 25);
//! // Identical loops produce identical digests.
//! assert!(report.digests.iter().all(|&d| d == report.digests[0]));
//! # Ok(())
//! # }
//! ```

use std::time::Instant;

use eucon_control::RateController;

use crate::admission::ChurnSummary;
use crate::{ClosedLoop, CoreError, LoopBuilder};

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
    /// Runtime-membership activity summed across the fleet (all zero in a
    /// churn-free fleet).
    pub churn: ChurnSummary,
    /// Loops closed by a shared clone of their group's controller (0 when
    /// no two loops matched, or no matched controller shares).
    pub shared_models: usize,
    /// Wall-clock seconds for the whole fleet.
    pub elapsed_secs: f64,
    /// One FNV-1a digest per loop, in push order, over every step's time,
    /// true utilizations and applied rates.  A pure function of the
    /// loop's builder: independent of thread count and scheduling order.
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

/// Runs a set of [`LoopBuilder`]s to completion on a work-stealing
/// thread pool.  See DESIGN.md §14 for the execution model.
#[derive(Debug, Clone, Default)]
pub struct FleetRunner {
    pub(crate) loops: Vec<LoopBuilder>,
    pub(crate) threads: Option<usize>,
}

impl FleetRunner {
    /// An empty fleet on the default thread pool
    /// ([`rayon::current_num_threads`], i.e. the machine's parallelism
    /// unless `EUCON_THREADS` / `RAYON_NUM_THREADS` pins it); add loops
    /// with [`FleetRunner::push`] or start from [`LoopBuilder::fleet`].
    pub fn new() -> Self {
        FleetRunner::default()
    }

    /// Pins the worker-pool size explicitly instead of reading the
    /// process environment — determinism tests sweep this over
    /// {1, 2, 8} without racing on `std::env::set_var`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Adds one loop to the fleet.
    pub fn push(&mut self, builder: LoopBuilder) -> &mut Self {
        self.loops.push(builder);
        self
    }

    /// Number of loops queued.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Runs every loop for `periods` sampling periods and aggregates the
    /// fleet report.
    ///
    /// Loops are the work items: workers steal whole loops from a shared
    /// queue, so heterogeneous fleets balance automatically.  Digests in
    /// the report follow push order regardless of which worker ran what.
    ///
    /// # Errors
    ///
    /// Returns the first loop-construction failure (everything
    /// [`LoopBuilder::local`] rejects); loops that already ran are
    /// discarded.
    pub fn run(self, periods: usize) -> Result<FleetReport, CoreError> {
        let t0 = Instant::now();
        let controllers = shared_controllers(&self.loops)?;
        let shared_models = controllers.iter().filter(|c| c.is_some()).count();
        let items: Vec<(LoopBuilder, Option<SharedController>)> =
            self.loops.into_iter().zip(controllers).collect();
        let outcomes: Result<Vec<LoopOutcome>, CoreError> =
            rayon::par_map(items, self.threads, |(builder, controller)| {
                run_one(builder, controller, periods)
            })
            .into_iter()
            .collect();
        let elapsed_secs = t0.elapsed().as_secs_f64();
        let outcomes = outcomes?;
        let mut report = FleetReport {
            loops: outcomes.len(),
            total_periods: 0,
            engine_events: 0,
            control_errors: 0,
            churn: ChurnSummary::default(),
            shared_models,
            elapsed_secs,
            digests: Vec::with_capacity(outcomes.len()),
        };
        for o in outcomes {
            report.total_periods += o.periods;
            report.engine_events += o.engine_events;
            report.control_errors += o.control_errors;
            report.churn.add(&o.churn);
            report.digests.push(o.digest);
        }
        Ok(report)
    }
}

/// A member's clone of its group's controller, movable to a worker.
type SharedController = Box<dyn RateController + Send>;

/// Groups the loops with static membership by `(task set, controller,
/// set points)`, builds the controller of each group with at least two
/// members once, and hands every member its
/// [`RateController::shared_clone`].  Returns one slot per loop, in push
/// order; `None` where the loop builds its own controller.
fn shared_controllers(
    builders: &[LoopBuilder],
) -> Result<Vec<Option<SharedController>>, CoreError> {
    let mut out: Vec<Option<SharedController>> = builders.iter().map(|_| None).collect();
    // (representative index, member indices); linear-scan grouping is
    // O(groups × builders) — fine even at 10k loops, where `groups` is tiny.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, builder) in builders.iter().enumerate() {
        // Membership edits rebuild the model per loop anyway.
        if !builder.churn.is_empty() || builder.admission.is_some() {
            continue;
        }
        let key = (&builder.set, &builder.controller, &builder.set_points);
        match groups.iter_mut().find(|(rep, _)| {
            let r = &builders[*rep];
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
        let builder = &builders[rep];
        // Set points and specs the finisher rejects fail there, with its
        // diagnostics.
        let Ok(set_points) = builder.resolved_set_points() else {
            continue;
        };
        if builder
            .controller
            .validate(builder.set.num_processors())
            .is_err()
        {
            continue;
        }
        let controller = builder.controller.build(&builder.set, &set_points)?;
        for i in members {
            match controller.shared_clone() {
                Some(clone) => out[i] = Some(clone),
                None => break,
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
    churn: ChurnSummary,
}

/// Builds and runs one loop inside a worker thread.
fn run_one(
    builder: LoopBuilder,
    controller: Option<SharedController>,
    periods: usize,
) -> Result<LoopOutcome, CoreError> {
    let mut cl = builder
        .record_trace(false)
        .finish(controller.map(|c| c as Box<dyn RateController>), None)?;
    let digest = digest_run(&mut cl, periods);
    // `run(0)` steps nothing further: it snapshots the counters.
    let result = cl.run(0);
    Ok(LoopOutcome {
        digest,
        periods: periods as u64,
        engine_events: result.engine.events,
        control_errors: result.control_errors as u64,
        churn: result.churn,
    })
}

/// Steps `cl` for `periods` sampling periods and returns the FNV-1a
/// digest of every step's time, true utilizations and applied rates —
/// the digest a fleet reports per loop.
pub(crate) fn digest_run(cl: &mut ClosedLoop, periods: usize) -> u64 {
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
    digest.0
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
    use crate::admission::ChurnPlan;
    use crate::ControllerSpec;
    use eucon_control::MpcConfig;
    use eucon_math::Vector;
    use eucon_sim::{FaultPlan, SimConfig};
    use eucon_tasks::workloads;

    fn mixed_loops() -> Vec<LoopBuilder> {
        (0..12)
            .map(|i| match i % 3 {
                0 => LoopBuilder::new(workloads::simple()).sim_config(SimConfig::constant_etf(0.5)),
                1 => LoopBuilder::new(workloads::medium())
                    .sim_config(SimConfig::constant_etf(0.9).seed(i as u64))
                    .controller(ControllerSpec::Eucon(MpcConfig::medium())),
                _ => LoopBuilder::new(workloads::simple())
                    .sim_config(SimConfig::constant_etf(0.5))
                    .controller(ControllerSpec::SupervisedEucon {
                        mpc: MpcConfig::simple(),
                        supervisor: Default::default(),
                    })
                    .faults(FaultPlan::none().crash(1, 5, 9).seed(7)),
            })
            .collect()
    }

    fn fleet_of(loops: &[LoopBuilder]) -> FleetRunner {
        let mut fleet = FleetRunner::new();
        for lp in loops {
            fleet.push(lp.clone());
        }
        fleet
    }

    /// The digest of an untraced loop built from `builder` by hand.
    fn standalone_digest(builder: &LoopBuilder, periods: usize) -> u64 {
        let mut cl = builder.clone().record_trace(false).local().expect("loop");
        digest_run(&mut cl, periods)
    }

    #[test]
    fn digests_are_thread_count_invariant() {
        let loops = mixed_loops();
        let one = fleet_of(&loops).threads(1).run(15).expect("fleet runs");
        let four = fleet_of(&loops).threads(4).run(15).expect("fleet runs");
        assert_eq!(one.digests, four.digests);
        assert_eq!(one.total_periods, 12 * 15);
        assert_eq!(one.control_errors, four.control_errors);
        assert_eq!(one.engine_events, four.engine_events);
    }

    #[test]
    fn fleet_loop_matches_standalone_loop() {
        // A fleet member and a hand-built loop over the same builder
        // observe the same trace, bit for bit.
        let builder =
            LoopBuilder::new(workloads::simple()).sim_config(SimConfig::constant_etf(0.5));
        let report = builder
            .clone()
            .fleet(1)
            .threads(1)
            .run(20)
            .expect("fleet runs");
        assert_eq!(report.digests, vec![standalone_digest(&builder, 20)]);
    }

    #[test]
    fn shared_prototypes_leave_digests_unchanged() {
        // Sharing is a memory optimization, so every member's
        // trace digest must be bit-identical to that of a standalone loop
        // built from the same builder — across centralized, decentralized
        // and sharded controllers at once.
        let mut loops = Vec::new();
        for _ in 0..3 {
            loops.push(
                LoopBuilder::new(workloads::medium())
                    .sim_config(SimConfig::constant_etf(0.9).seed(11))
                    .controller(ControllerSpec::Eucon(MpcConfig::medium())),
            );
            loops.push(
                LoopBuilder::new(workloads::medium())
                    .sim_config(SimConfig::constant_etf(0.9).seed(12))
                    .controller(ControllerSpec::Sharded {
                        mpc: MpcConfig::medium(),
                        shard_size: 1,
                        boundary: crate::BoundaryMode::InProcess,
                    }),
            );
            loops.push(
                LoopBuilder::new(workloads::medium())
                    .sim_config(SimConfig::constant_etf(0.9).seed(13))
                    .controller(ControllerSpec::Sharded {
                        mpc: MpcConfig::medium(),
                        shard_size: 2,
                        boundary: crate::BoundaryMode::InProcess,
                    }),
            );
        }
        // One ineligible loop rides along to prove mixed fleets work.
        loops.push(
            LoopBuilder::new(workloads::simple())
                .sim_config(SimConfig::constant_etf(0.5))
                .controller(ControllerSpec::Pid { kp: 1.0, ki: 0.1 }),
        );
        let shared = fleet_of(&loops).threads(2).run(20).expect("fleet runs");
        let standalone: Vec<u64> = loops.iter().map(|b| standalone_digest(b, 20)).collect();
        assert_eq!(shared.digests, standalone);
        // Three groups of three share; the PID singleton does not.
        assert_eq!(shared.shared_models, 9);
    }

    #[test]
    fn fleet_groups_whose_controller_does_not_share_build_their_own() {
        // Two-member groups of every controller without a shareable
        // model: each member builds its own, and observes exactly what a
        // standalone loop observes.
        let specs = [
            ControllerSpec::Open,
            ControllerSpec::Pid { kp: 0.5, ki: 0.05 },
            ControllerSpec::SupervisedEucon {
                mpc: MpcConfig::medium(),
                supervisor: Default::default(),
            },
            ControllerSpec::Sharded {
                mpc: MpcConfig::medium(),
                shard_size: 2,
                boundary: crate::BoundaryMode::IdealLanes,
            },
        ];
        let mut loops = Vec::new();
        for spec in specs {
            let builder = LoopBuilder::new(workloads::medium())
                .sim_config(SimConfig::constant_etf(0.9).seed(5))
                .controller(spec);
            loops.extend([builder.clone(), builder]);
        }
        let report = fleet_of(&loops).threads(2).run(20).expect("fleet runs");
        assert_eq!(report.shared_models, 0);
        let standalone: Vec<u64> = loops.iter().map(|b| standalone_digest(b, 20)).collect();
        assert_eq!(report.digests, standalone);
    }

    #[test]
    fn singletons_and_churned_loops_build_their_own_models() {
        let eucon = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()));
        // Two identical churn-carrying loops: grouped, but never shared.
        let churned = eucon
            .clone()
            .churn(ChurnPlan::none().departure(5, eucon_tasks::TaskId(0)));
        let report = fleet_of(&[eucon, churned.clone(), churned])
            .threads(1)
            .run(10)
            .expect("fleet runs");
        assert_eq!(report.shared_models, 0);
    }

    #[test]
    fn empty_fleet_reports_zeros() {
        let report = FleetRunner::new().run(10).expect("runs");
        assert_eq!(report.loops, 0);
        assert_eq!(report.total_periods, 0);
        assert!(report.digests.is_empty());
    }

    #[test]
    fn bad_builder_surfaces_the_config_error() {
        let err = LoopBuilder::new(workloads::simple())
            .set_points(Vector::from_slice(&[0.8]))
            .fleet(2)
            .threads(2)
            .run(5)
            .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "got {err:?}");
    }
}
