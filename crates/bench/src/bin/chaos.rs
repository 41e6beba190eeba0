//! Chaos sweep: fault scenarios × controllers, with a survival table.
//!
//! Runs the SIMPLE workload (etf = 0.5, 250 periods) under scripted
//! processor crashes, sensor faults, execution-time bursts, lane
//! partitions and lossy command lanes, for each controller: the raw EUCON
//! MPC, the supervised EUCON (watchdog + graceful degradation), the
//! decoupled PID and OPEN.  The table answers the robustness question the
//! paper leaves open: which control laws *survive* (finite, in-bounds
//! rates, eventual re-convergence) when the idealized sensing/actuation
//! assumptions break.
//!
//! Partitions and command loss act on feedback lanes, so every cell runs
//! over lanes: in-memory ones by default, real loopback TCP with
//! `--lanes`, so the survival table can be reproduced under real
//! transport effects.
//!
//! ```text
//! cargo run --release -p eucon-bench --bin chaos -- --lanes
//! ```

use std::time::Duration;

use eucon_control::{MpcConfig, SupervisorConfig};
use eucon_core::telemetry::{CsvSink, JsonlSink, Snapshot};
use eucon_core::{metrics, render, ControllerSpec, LaneModel, LoopBuilder, NetConfig};
use eucon_sim::{FaultPlan, SensorFaultKind, SimConfig};
use eucon_tasks::{rms_set_points, workloads};
use rayon::prelude::*;

const PERIODS: usize = 250;

/// Receive window over TCP lanes (a frame written to a socket is
/// awaited at most this long; partitioned lanes are not waited for).
const RECV_WINDOW: Duration = Duration::from_millis(5);

/// Whether the loops run over loopback-TCP lanes (`--lanes`) rather
/// than in-memory ones (the default).
fn parse_lanes() -> bool {
    match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--lanes") => true,
        Some(other) => panic!("unknown argument '{other}' (supported: --lanes)"),
    }
}

/// The scenario whose SUP-EUCON run streams per-period telemetry to
/// `results/telemetry_chaos.{csv,jsonl}` — the combined crash +
/// command-loss case, where warm-start churn, supervisor transitions
/// and the engine counters are all exercised at once.
const TELEMETRY_SCENARIO: &str = "crash P2 + 20% cmd loss";
/// Tail window for convergence statistics (well after every fault
/// scenario has healed at period 150).
const TAIL: (usize, usize) = (200, 250);
/// Re-convergence criterion of the acceptance scenario: worst-processor
/// mean within ±0.03 of the set point.
const CONV_TOL: f64 = 0.03;

/// Each scenario: its fault plan and its command-lane model.
fn scenarios() -> Vec<(&'static str, FaultPlan, LaneModel)> {
    let ideal = LaneModel::ideal;
    vec![
        ("nominal", FaultPlan::none(), ideal()),
        (
            "crash P2 [60,100)",
            FaultPlan::none().crash(1, 60, 100),
            ideal(),
        ),
        (
            "sensor freeze P1 [50,150)",
            FaultPlan::none().sensor(0, 50, 150, SensorFaultKind::Frozen),
            ideal(),
        ),
        (
            "sensor NaN P1 [50,150)",
            FaultPlan::none().sensor(0, 50, 150, SensorFaultKind::NaN),
            ideal(),
        ),
        ("cmd loss 20%", FaultPlan::none(), LaneModel::lossy(0.2, 9)),
        (
            "burst x3 P1 [80,120)",
            FaultPlan::none().burst(0, 80, 120, 3.0),
            ideal(),
        ),
        (
            "lane partition P2 [60,100)",
            FaultPlan::none().partition(1, 60, 100),
            ideal(),
        ),
        (
            "crash P2 + 20% cmd loss",
            FaultPlan::none().crash(1, 60, 100),
            LaneModel::lossy(0.2, 42),
        ),
        (
            "random crashes (mtbf 40)",
            FaultPlan::none()
                .random_crashes(1.0 / 40.0, 1.0 / 10.0)
                .seed(5),
            ideal(),
        ),
    ]
}

fn controllers() -> Vec<ControllerSpec> {
    vec![
        ControllerSpec::Eucon(MpcConfig::simple()),
        ControllerSpec::SupervisedEucon {
            mpc: MpcConfig::simple(),
            supervisor: SupervisorConfig::default(),
        },
        ControllerSpec::Pid { kp: 0.5, ki: 0.05 },
        ControllerSpec::Open,
    ]
}

fn controller_label(spec: &ControllerSpec) -> &'static str {
    match spec {
        ControllerSpec::Eucon(_) => "EUCON",
        ControllerSpec::SupervisedEucon { .. } => "SUP-EUCON",
        ControllerSpec::Pid { .. } => "PID",
        ControllerSpec::Open => "OPEN",
        _ => "other",
    }
}

struct Outcome {
    scenario: &'static str,
    controller: &'static str,
    converged: bool,
    worst_err: f64,
    miss_ratio: f64,
    control_errors: usize,
    degraded: usize,
    non_finite: usize,
    transitions: u64,
    telemetry: Snapshot,
}

fn evaluate(
    scenario: &'static str,
    plan: FaultPlan,
    commands: LaneModel,
    spec: ControllerSpec,
    tcp: bool,
) -> Outcome {
    let set = workloads::simple();
    let b = rms_set_points(&set);
    let label = controller_label(&spec);
    // The acceptance scenario streams its full per-period telemetry —
    // one CSV and one JSONL row per sampling period.
    let stream_telemetry = scenario == TELEMETRY_SCENARIO && label == "SUP-EUCON";
    let net = if tcp {
        NetConfig::tcp().recv_timeout(RECV_WINDOW)
    } else {
        NetConfig::channel()
    };
    let mut lp = LoopBuilder::new(set)
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(spec)
        .faults(plan)
        .distributed(net.command_lanes(commands))
        .expect("controller builds");
    if stream_telemetry {
        lp.telemetry_sink(
            CsvSink::create(eucon_bench::results_dir().join("telemetry_chaos.csv"))
                .expect("create telemetry csv"),
        );
        lp.telemetry_sink(
            JsonlSink::create(eucon_bench::results_dir().join("telemetry_chaos.jsonl"))
                .expect("create telemetry jsonl"),
        );
    }
    let result = lp.run(PERIODS);
    let non_finite = result
        .trace
        .steps()
        .iter()
        .filter(|s| !s.rates.is_finite())
        .count();
    let mut worst_err: f64 = 0.0;
    for p in 0..b.len() {
        let series = result.trace.utilization_series(p);
        let tail = metrics::window(&series, TAIL.0, TAIL.1);
        worst_err = worst_err.max((tail.mean - b[p]).abs());
    }
    Outcome {
        scenario,
        controller: label,
        converged: worst_err < CONV_TOL && non_finite == 0,
        worst_err,
        miss_ratio: result.deadlines.miss_ratio(),
        control_errors: result.control_errors,
        degraded: result.faults.degraded_periods,
        non_finite,
        transitions: result.telemetry.counter("mode_transitions").unwrap_or(0),
        telemetry: result.telemetry,
    }
}

fn main() {
    let tcp = parse_lanes();
    let engine = if tcp { "tcp" } else { "channel" };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== Chaos sweep: SIMPLE, etf = 0.5, {PERIODS} periods, tail [{}, {}), engine {} ==\n",
        TAIL.0, TAIL.1, engine
    );
    let jobs: Vec<(&'static str, FaultPlan, LaneModel, ControllerSpec)> = scenarios()
        .into_iter()
        .flat_map(|(name, plan, commands)| {
            controllers()
                .into_iter()
                .map(move |c| (name, plan.clone(), commands.clone(), c))
        })
        .collect();
    // Independent closed-loop runs; fan out across the pool.
    let outcomes: Vec<Outcome> = jobs
        .into_par_iter()
        .map(|(name, plan, commands, spec)| evaluate(name, plan, commands, spec, tcp))
        .collect();

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.scenario.to_string(),
                o.controller.to_string(),
                if o.converged { "yes" } else { "NO" }.to_string(),
                render::f4(o.worst_err),
                render::f4(o.miss_ratio),
                o.control_errors.to_string(),
                o.degraded.to_string(),
                o.non_finite.to_string(),
                o.transitions.to_string(),
                engine.to_string(),
                cores.to_string(),
            ]
        })
        .collect();
    let headers = [
        "scenario",
        "controller",
        "survived",
        "max |mean-B|",
        "miss ratio",
        "ctrl errs",
        "degraded Ts",
        "non-finite",
        "transitions",
        "engine",
        "cores",
    ];
    println!("{}", render::table(&headers, &rows));
    println!(
        "(survived = tail mean within +/-{CONV_TOL} of the set points on every \
         processor and zero non-finite rate commands)"
    );
    eucon_bench::write_result(
        "chaos.csv",
        &render::csv(
            &[
                "scenario",
                "controller",
                "survived",
                "max_mean_err",
                "miss_ratio",
                "control_errors",
                "degraded_periods",
                "non_finite_rates",
                "mode_transitions",
                "engine",
                "cores",
            ],
            &rows,
        ),
    );
    // Per-run telemetry snapshots for every scenario × controller cell.
    let summary: String = outcomes
        .iter()
        .map(|o| {
            eucon_bench::telemetry_jsonl_line(
                &format!("{} / {}", o.scenario, o.controller),
                &o.telemetry,
            ) + "\n"
        })
        .collect();
    eucon_bench::write_result("chaos_telemetry.jsonl", &summary);

    // The headline robustness claims, enforced so regressions fail loudly
    // when this binary runs in CI or locally.
    for o in &outcomes {
        assert_eq!(
            o.non_finite, 0,
            "{} under '{}' emitted non-finite rates",
            o.controller, o.scenario
        );
        if o.controller == "SUP-EUCON" && o.scenario != "random crashes (mtbf 40)" {
            assert!(
                o.converged,
                "supervised EUCON failed to re-converge under '{}' (err {:.4})",
                o.scenario, o.worst_err
            );
        }
    }

    // The acceptance telemetry artifact: the streamed per-period files
    // exist, cover every period, and captured the QP warm-start stats,
    // the supervisor's mode transitions and the engine counters.
    let accept = outcomes
        .iter()
        .find(|o| o.scenario == TELEMETRY_SCENARIO && o.controller == "SUP-EUCON")
        .expect("acceptance cell present");
    assert!(
        accept.telemetry.counter("qp_warm_hits").is_some()
            && accept.telemetry.counter("qp_cold_retries").is_some(),
        "QP warm-start stats recorded"
    );
    assert!(
        accept.transitions >= 2,
        "supervisor tripped and re-engaged (got {} transitions)",
        accept.transitions
    );
    assert!(accept.telemetry.counter("engine_events").unwrap() > 0);
    assert_eq!(
        accept.telemetry.counter("crashed_periods"),
        Some(40),
        "crash [60,100) spans 40 periods"
    );
    for name in ["telemetry_chaos.csv", "telemetry_chaos.jsonl"] {
        let path = eucon_bench::results_dir().join(name);
        let text = std::fs::read_to_string(&path).expect("telemetry artifact readable");
        let expected = if name.ends_with(".csv") {
            PERIODS + 1 // header
        } else {
            PERIODS
        };
        assert_eq!(
            text.lines().count(),
            expected,
            "{name} has one row per sampling period"
        );
        assert!(
            text.contains("qp_warm_hits") || text.contains("\"qp_warm_hits\":"),
            "{name} carries the QP warm-start schema"
        );
        println!("  [verified results/{name}]");
    }
    println!("\nall survival assertions held");
}
