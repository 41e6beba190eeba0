//! Churn soak: thousands of closed-loop periods under sustained runtime
//! membership churn, with hard zero-error and bounded-memory gates.
//!
//! Three chaos scenarios, each run for `--periods` sampling periods
//! (default 2000) with the plan seeded by `--seed` (default 0):
//!
//! * **poisson churn** — MEDIUM under stochastic arrivals/departures
//!   (Bernoulli-thinned Poisson, ~2%/1.5% per period), permissive
//!   admission budget, raw EUCON;
//! * **churn during crash** — the same churn storm while P2 crashes and
//!   recovers and the command lanes drop 10% of commands, supervised
//!   EUCON (membership changes racing degraded mode; the recovered P2
//!   drains its backlog saturated with its tasks at `Rmin`, so the
//!   load-shedding supervisor suspends a few tasks here);
//! * **admission storm** — SIMPLE at the default (tight) budget with an
//!   arrival every 10 periods: every arrival must be deferred and then
//!   rejected, without perturbing regulation.
//!
//! Every scenario runs over in-memory feedback lanes (ideal ones, except
//! the lossy command lanes of the crash scenario).
//!
//! Gates, enforced per scenario:
//!
//! * zero controller errors;
//! * zero non-finite rates or utilization samples, every period;
//! * resident memory stays bounded (no per-period growth — RSS at the
//!   end may not exceed 2× the post-warm-up RSS plus 32 MiB).
//!
//! Stats land in `results/churn_soak.csv` (the whole-run deadline miss
//! ratio among them), with what a membership change
//! cost inside the loop: mean and maximum of the run's `model_update_ns`
//! histogram (one observation per controller column added or dropped —
//! the model is rebuilt each time; EXPERIMENTS.md, "What a membership
//! change costs").
//!
//! ```text
//! cargo run --release -p eucon-bench --bin churn_soak -- --periods 2000 --seed 0
//! ```

use std::time::Instant;

use eucon_control::{MpcConfig, SupervisorConfig};
use eucon_core::{
    render, AdmissionPolicy, ChurnPlan, ChurnSummary, ControllerSpec, LaneModel, LoopBuilder,
    NetConfig,
};
use eucon_sim::{FaultPlan, SimConfig};
use eucon_tasks::{workloads, ProcessorId, Task, TaskSet};

struct Args {
    periods: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        periods: 2000,
        seed: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} takes a value"));
        match flag.as_str() {
            "--periods" => args.periods = value.parse().expect("--periods takes an integer"),
            "--seed" => args.seed = value.parse().expect("--seed takes an integer"),
            other => panic!("unknown argument '{other}' (supported: --periods N, --seed S)"),
        }
    }
    args
}

/// Resident-set size in bytes, if the platform exposes `/proc/self/statm`
/// (Linux).  `None` elsewhere — the RSS gate is then skipped.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// An extra end-to-end task shaped like SIMPLE's own (used by the
/// admission storm — at the default budget it can never fit).
fn storm_task() -> Task {
    Task::builder(0.02, 0.12, 0.05)
        .subtask(ProcessorId(0), 4.0)
        .subtask(ProcessorId(1), 3.0)
        .build()
        .expect("valid task")
}

struct Scenario {
    name: &'static str,
    set: TaskSet,
    sim: SimConfig,
    controller: ControllerSpec,
    faults: FaultPlan,
    commands: LaneModel,
    churn: ChurnPlan,
    policy: AdmissionPolicy,
}

fn scenarios(periods: usize, seed: u64) -> Vec<Scenario> {
    let medium = workloads::medium();
    let permissive = AdmissionPolicy {
        admit_threshold: 1.25,
        ..AdmissionPolicy::default()
    };
    let poisson = ChurnPlan::poisson(&medium, periods, 0.02, 0.015, seed);
    let mut storm = ChurnPlan::none();
    for k in (10..periods).step_by(10) {
        storm = storm.arrival(k, storm_task());
    }
    vec![
        Scenario {
            name: "poisson churn",
            set: medium.clone(),
            sim: SimConfig::constant_etf(0.9).seed(seed),
            controller: ControllerSpec::Eucon(MpcConfig::medium()),
            faults: FaultPlan::none(),
            commands: LaneModel::ideal(),
            churn: poisson.clone(),
            policy: permissive.clone(),
        },
        Scenario {
            name: "churn during crash",
            set: medium,
            sim: SimConfig::constant_etf(0.9).seed(seed),
            controller: ControllerSpec::SupervisedEucon {
                mpc: MpcConfig::medium(),
                supervisor: SupervisorConfig::default(),
            },
            faults: FaultPlan::none().crash(1, 60, 100),
            commands: LaneModel::lossy(0.1, seed.wrapping_add(17)),
            churn: poisson,
            policy: permissive,
        },
        Scenario {
            name: "admission storm",
            set: workloads::simple(),
            sim: SimConfig::constant_etf(0.5).seed(seed),
            controller: ControllerSpec::Eucon(MpcConfig::simple()),
            faults: FaultPlan::none(),
            commands: LaneModel::ideal(),
            churn: storm,
            policy: AdmissionPolicy::default(),
        },
    ]
}

struct Outcome {
    churn: ChurnSummary,
    /// Whole-run end-to-end deadline miss ratio.
    miss_ratio: f64,
    control_errors: usize,
    /// Mean and maximum in-loop plant-model update latency, in µs;
    /// `None` when the run updated nothing.
    update_us: Option<(f64, f64)>,
    rss_growth: Option<f64>,
    secs: f64,
}

fn soak(sc: Scenario, periods: usize) -> Outcome {
    let mut cl = LoopBuilder::new(sc.set)
        .sim_config(sc.sim)
        .controller(sc.controller)
        .faults(sc.faults)
        .churn(sc.churn)
        .admission(sc.policy)
        .record_trace(false)
        .distributed(NetConfig::channel().command_lanes(sc.commands))
        .expect("loop builds");
    let warmup = periods / 10;
    let started = Instant::now();
    let mut rss_after_warmup = None;
    for k in 0..periods {
        let step = cl.step();
        // The non-finite gate, every period: a NaN rate or utilization
        // sample anywhere fails the soak immediately.
        assert!(
            step.rates.iter().all(|r| r.is_finite()),
            "[{}] non-finite rate at period {k}",
            sc.name
        );
        assert!(
            step.utilization.iter().all(|u| u.is_finite()),
            "[{}] non-finite utilization at period {k}",
            sc.name
        );
        if k + 1 == warmup {
            rss_after_warmup = rss_bytes();
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let result = cl.run(0);
    assert_eq!(
        result.control_errors, 0,
        "[{}] controller errors after {periods} periods",
        sc.name
    );
    let rss_growth = match (rss_after_warmup, rss_bytes()) {
        (Some(before), Some(after)) => {
            assert!(
                after <= before * 2 + 32 * 1024 * 1024,
                "[{}] resident memory grew from {before} to {after} bytes",
                sc.name
            );
            Some(after as f64 / before as f64)
        }
        _ => None,
    };
    let update_us = result
        .telemetry
        .histogram("model_update_ns")
        .filter(|h| h.count > 0)
        .map(|h| (h.mean() / 1e3, h.max / 1e3));
    Outcome {
        churn: result.churn,
        miss_ratio: result.deadlines.miss_ratio(),
        update_us,
        control_errors: result.control_errors,
        rss_growth,
        secs,
    }
}

fn main() {
    let args = parse_args();
    let periods = args.periods;
    println!(
        "== Churn soak: {periods} periods per scenario, plan seed {} ==\n",
        args.seed
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    for sc in scenarios(periods, args.seed) {
        let name = sc.name;
        let o = soak(sc, periods);
        let ch = o.churn;
        // The storm's arrivals can never fit the default budget: every
        // one must end rejected, none admitted.
        if name == "admission storm" {
            assert_eq!(ch.admitted, 0, "storm arrivals must all be rejected");
            assert_eq!(ch.rejected, ((periods - 1) / 10) as u64);
        } else {
            assert!(
                ch.admitted + ch.rejected + ch.departed > 0,
                "[{name}] the churn plan never fired"
            );
            // One update per controller column added or dropped.  A task
            // that departs while suspended lost its column when it was
            // shed, so it can only make the left side smaller.
            let columns = ch.admitted + ch.departed + ch.suspended + ch.readmitted;
            let updates = ch.model_updates;
            assert!(
                updates <= columns && columns - updates <= ch.suspended - ch.readmitted,
                "[{name}] every membership change updates the plant model: \
                 {updates} updates for {columns} changes"
            );
        }
        let (update_mean, update_max) = match o.update_us {
            Some((mean, max)) => (format!("{mean:.1}"), format!("{max:.1}")),
            None => ("n/a".to_string(), "n/a".to_string()),
        };
        println!(
            "  [{name}] ok: {} admitted, {} rejected, {} deferred, {} departed, \
             {} suspended, {} re-admitted, {} model updates \
             (mean {update_mean}, max {update_max} us) ({:.2}s)",
            ch.admitted,
            ch.rejected,
            ch.deferred,
            ch.departed,
            ch.suspended,
            ch.readmitted,
            ch.model_updates,
            o.secs
        );
        rows.push(vec![
            name.to_string(),
            ch.admitted.to_string(),
            ch.rejected.to_string(),
            ch.deferred.to_string(),
            ch.departed.to_string(),
            ch.mode_changes.to_string(),
            ch.suspended.to_string(),
            ch.readmitted.to_string(),
            format!("{:.4}", o.miss_ratio),
            ch.model_updates.to_string(),
            update_mean,
            update_max,
            o.control_errors.to_string(),
            o.rss_growth
                .map_or("n/a".to_string(), |g| format!("{g:.2}")),
            format!("{:.2}", o.secs),
        ]);
    }
    let headers = [
        "scenario",
        "admitted",
        "rejected",
        "deferred",
        "departed",
        "mode changes",
        "suspended",
        "re-admitted",
        "miss ratio",
        "model updates",
        "update mean us",
        "update max us",
        "ctrl errors",
        "rss growth",
        "secs",
    ];
    println!("\n{}", render::table(&headers, &rows));
    eucon_bench::write_result(
        "churn_soak.csv",
        &render::csv(
            &[
                "scenario",
                "admitted",
                "rejected",
                "deferred",
                "departed",
                "mode_changes",
                "suspended",
                "readmitted",
                "miss_ratio",
                "model_updates",
                "update_mean_us",
                "update_max_us",
                "control_errors",
                "rss_growth",
                "seconds",
            ],
            &rows,
        ),
    );
    println!(
        "all churn gates held: zero controller errors, zero non-finite samples, bounded memory"
    );
}
