//! Quality ablations of the design choices called out in DESIGN.md:
//! control-penalty shape, hard utilization constraints, horizon lengths,
//! and EUCON vs the decoupled PID baseline.  Each variant runs the same
//! MEDIUM scenario; the table reports tracking quality (mean error, σ,
//! settling) so the contribution of each design element is visible.

use eucon_control::{ControlPenalty, MpcConfig};
use eucon_core::{metrics, render, ControllerSpec, SteadyRun};
use eucon_sim::ExecModel;
use eucon_tasks::{rms_set_points, workloads};
use rayon::prelude::*;

fn main() {
    let set = workloads::medium();
    let b = rms_set_points(&set);
    let variants: Vec<(String, ControllerSpec)> = vec![
        (
            "EUCON (paper, P=4 M=2)".into(),
            ControllerSpec::Eucon(MpcConfig::medium()),
        ),
        (
            "EUCON, Move penalty".into(),
            ControllerSpec::Eucon(MpcConfig::medium().control_penalty(ControlPenalty::Move)),
        ),
        (
            "EUCON, no util constraints".into(),
            ControllerSpec::Eucon(MpcConfig::medium().utilization_constraints(false)),
        ),
        (
            "EUCON, P=2 M=1".into(),
            ControllerSpec::Eucon(MpcConfig::medium().horizons(2, 1)),
        ),
        (
            "EUCON, P=8 M=4".into(),
            ControllerSpec::Eucon(MpcConfig::medium().horizons(8, 4)),
        ),
        (
            "DEUCON (decentralized)".into(),
            ControllerSpec::Decentralized(MpcConfig::medium()),
        ),
        (
            "PID (decoupled)".into(),
            ControllerSpec::Pid { kp: 0.5, ki: 0.05 },
        ),
        ("OPEN".into(), ControllerSpec::Open),
    ];

    println!("== Ablation: MEDIUM, etf = 0.5, 300 periods, stats over [100Ts, 300Ts] ==\n");
    // Each variant is an independent closed-loop run; fan them out.
    let rows: Vec<Vec<String>> = variants
        .into_par_iter()
        .map(|(name, spec)| {
            let run = SteadyRun::paper(set.clone(), spec, ExecModel::Uniform { half_width: 0.2 });
            let result = run.run(0.5).expect("run");
            // Worst-processor tracking statistics.
            let mut worst_err: f64 = 0.0;
            let mut worst_std: f64 = 0.0;
            let mut settle: Option<usize> = Some(0);
            for p in 0..set.num_processors() {
                let series = result.trace.utilization_series(p);
                let s = metrics::window(&series, 100, 300);
                worst_err = worst_err.max((s.mean - b[p]).abs());
                worst_std = worst_std.max(s.std_dev);
                let sp =
                    metrics::settling_hold(&series[..150.min(series.len())], b[p], 0.05, 0, 10);
                settle = match (settle, sp) {
                    (Some(a), Some(c)) => Some(a.max(c)),
                    _ => None,
                };
            }
            vec![
                name,
                render::f4(worst_err),
                render::f4(worst_std),
                settle.map_or("never".into(), |k| format!("{k} Ts")),
                render::f4(result.deadlines.miss_ratio()),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            &[
                "variant",
                "max |mean−B|",
                "max std",
                "settling (worst proc)",
                "miss ratio"
            ],
            &rows
        )
    );
    eucon_bench::write_result(
        "ablation_medium.csv",
        &render::csv(
            &[
                "variant",
                "max_mean_err",
                "max_std",
                "settling",
                "miss_ratio",
            ],
            &rows,
        ),
    );

    coupling_stress();
    shard_ablation();
}

/// Coordination-loss ablation (ISSUE 8): centralized vs decentralized vs
/// sharded control at shard sizes K ∈ {1, 4, 16} on a 64-processor
/// locality workload.  Sharding trades global coordination for local
/// solves — the table quantifies what that costs in settling time and
/// steady-state tracking error.
fn shard_ablation() {
    use eucon_core::{BoundaryMode, LoopBuilder};
    use eucon_sim::SimConfig;
    use eucon_tasks::workloads::RandomWorkload;

    let set = RandomWorkload::new(64, 192)
        .seed(17)
        .locality(2)
        .max_chain_len(3)
        .generate();
    let b = rms_set_points(&set);
    let procs = set.num_processors();
    let periods = 300;

    println!("\n== Shard ablation: 64x192 locality workload, etf = 0.9, 300 periods ==\n");
    let variants: Vec<(String, ControllerSpec)> = vec![
        (
            "EUCON (centralized)".into(),
            ControllerSpec::Eucon(MpcConfig::medium()),
        ),
        (
            "DEUCON (decentralized)".into(),
            ControllerSpec::Decentralized(MpcConfig::medium()),
        ),
        (
            "SHARD-EUCON K=1".into(),
            ControllerSpec::Sharded {
                mpc: MpcConfig::medium(),
                shard_size: 1,
                boundary: BoundaryMode::InProcess,
            },
        ),
        (
            "SHARD-EUCON K=4".into(),
            ControllerSpec::Sharded {
                mpc: MpcConfig::medium(),
                shard_size: 4,
                boundary: BoundaryMode::InProcess,
            },
        ),
        (
            "SHARD-EUCON K=16".into(),
            ControllerSpec::Sharded {
                mpc: MpcConfig::medium(),
                shard_size: 16,
                boundary: BoundaryMode::InProcess,
            },
        ),
    ];
    let rows: Vec<Vec<String>> = variants
        .into_par_iter()
        .map(|(name, spec)| {
            let mut cl = LoopBuilder::new(set.clone())
                .sim_config(
                    SimConfig::constant_etf(0.9)
                        .exec_model(ExecModel::Uniform { half_width: 0.2 })
                        .seed(7),
                )
                .controller(spec)
                .local()
                .expect("loop");
            let result = cl.run(periods);
            let mut worst_err: f64 = 0.0;
            let mut worst_std: f64 = 0.0;
            let mut settle: Option<usize> = Some(0);
            for p in 0..procs {
                let series = result.trace.utilization_series(p);
                let s = metrics::window(&series, 100, periods);
                worst_err = worst_err.max((s.mean - b[p]).abs());
                worst_std = worst_std.max(s.std_dev);
                let sp =
                    metrics::settling_hold(&series[..150.min(series.len())], b[p], 0.05, 0, 10);
                settle = match (settle, sp) {
                    (Some(a), Some(c)) => Some(a.max(c)),
                    _ => None,
                };
            }
            vec![
                name,
                render::f4(worst_err),
                render::f4(worst_std),
                settle.map_or("never".into(), |k| format!("{k} Ts")),
                result.control_errors.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            &[
                "variant",
                "max |mean−B|",
                "max std",
                "settling (worst proc)",
                "ctrl errors"
            ],
            &rows
        )
    );
    eucon_bench::write_result(
        "shard_ablation.csv",
        &render::csv(
            &[
                "variant",
                "max_mean_err",
                "max_std",
                "settling",
                "ctrl_errors",
            ],
            &rows,
        ),
    );
    println!("\nExpected shape: K=1 reproduces DEUCON exactly; larger shards recover");
    println!("centralized-quality coordination while keeping local problems bounded.");
}

/// Scenario where the coupling between processors matters: P1's set point
/// is lowered to 0.4 while the other processors keep their RMS bounds.
/// Shared tasks must slow down for P1 without starving P2–P4 — the MIMO
/// controller redistributes load through the local tasks, while the
/// decoupled PID cannot.
fn coupling_stress() {
    use eucon_core::LoopBuilder;
    use eucon_sim::SimConfig;

    let set = workloads::medium();
    let mut b = rms_set_points(&set);
    b[0] = 0.4;

    println!("\n== Coupling stress: B1 lowered to 0.4, others at RMS bound (etf = 0.5) ==\n");
    let specs = vec![
        (
            "EUCON".to_string(),
            ControllerSpec::Eucon(MpcConfig::medium()),
        ),
        (
            "DEUCON (decentralized)".into(),
            ControllerSpec::Decentralized(MpcConfig::medium()),
        ),
        (
            "PID (decoupled)".into(),
            ControllerSpec::Pid { kp: 0.5, ki: 0.05 },
        ),
    ];
    let mut rows: Vec<Vec<String>> = specs
        .into_par_iter()
        .map(|spec| {
            let mut cl = LoopBuilder::new(set.clone())
                .sim_config(SimConfig::constant_etf(0.5).seed(1))
                .controller(spec.1)
                .set_points(b.clone())
                .local()
                .expect("loop");
            let result = cl.run(300);
            let mut row = vec![spec.0];
            let mut total_err = 0.0;
            for p in 0..4 {
                let s = metrics::window(&result.trace.utilization_series(p), 100, 300);
                total_err += (s.mean - b[p]).abs();
                row.push(render::f4(s.mean));
            }
            row.push(render::f4(total_err));
            row
        })
        .collect();
    let target_row = {
        let mut row = vec!["(set points)".to_string()];
        row.extend((0..4).map(|p| render::f4(b[p])));
        row.push("0".into());
        row
    };
    rows.push(target_row);
    println!(
        "{}",
        render::table(
            &[
                "controller",
                "mean u1",
                "mean u2",
                "mean u3",
                "mean u4",
                "Σ|err|"
            ],
            &rows
        )
    );
    eucon_bench::write_result(
        "ablation_coupling.csv",
        &render::csv(&["controller", "u1", "u2", "u3", "u4", "total_err"], &rows),
    );
}
