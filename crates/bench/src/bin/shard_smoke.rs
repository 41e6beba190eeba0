//! CI smoke for cluster-scale sharded control (ISSUE 8): a 256-processor
//! locality workload under the stochastic execution model, sharded at 16
//! processors per shard, boundary exchange over the team's in-memory
//! board and over `eucon-net` lanes.
//!
//! Gates (the process exits nonzero on violation):
//!
//! * every processor's tail-window mean utilization within ±0.03 of its
//!   set point by period 150,
//! * zero controller-error periods,
//! * the in-memory board and ideal lanes give every processor the same
//!   tail mean, bit for bit (one sweep, two buses),
//! * the same gates with the boundary lanes behind 1-period delay and 5%
//!   loss — eventual consistency must degrade gracefully, not diverge.
//!
//! `--seed S` (default `$EUCON_SHARD_SEED`, then 0) seeds the simulator,
//! so a CI seed matrix exercises distinct stochastic trajectories.
//!
//! ```text
//! cargo run --release -p eucon-bench --bin shard_smoke -- --seed 1
//! ```

use eucon_control::MpcConfig;
use eucon_core::{metrics, render, BoundaryMode, ControllerSpec, LaneModel, LoopBuilder};
use eucon_sim::{ExecModel, SimConfig};
use eucon_tasks::{rms_set_points, workloads::RandomWorkload};

const PROCS: usize = 256;
const SHARD_SIZE: usize = 16;
const PERIODS: usize = 150;
const TOLERANCE: f64 = 0.03;

fn seed_from_args() -> u64 {
    let mut seed: Option<u64> = std::env::var("EUCON_SHARD_SEED")
        .ok()
        .map(|v| v.parse().expect("EUCON_SHARD_SEED takes an integer"));
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let value = it.next().expect("--seed needs a value");
                seed = Some(value.parse().expect("--seed takes an integer"));
            }
            other => panic!("unknown argument '{other}' (supported: --seed S)"),
        }
    }
    seed.unwrap_or(0)
}

fn main() {
    let seed = seed_from_args();
    let set = RandomWorkload::new(PROCS, PROCS * 3)
        .seed(21)
        .locality(2)
        .max_chain_len(3)
        .generate();
    let b = rms_set_points(&set);
    println!(
        "== Shard smoke: {PROCS}x{} locality workload, shard size {SHARD_SIZE}, seed {seed} ==\n",
        set.num_tasks()
    );

    let mut rows = Vec::new();
    let mut means: Vec<Vec<u64>> = Vec::new();
    let scenarios: Vec<(&str, BoundaryMode)> = vec![
        ("in process", BoundaryMode::InProcess),
        ("ideal lanes", BoundaryMode::IdealLanes),
        (
            "lossy lanes (delay 1, loss 5%)",
            BoundaryMode::LossyLanes(LaneModel {
                delay: 1,
                loss_probability: 0.05,
                seed,
            }),
        ),
    ];
    for (name, boundary) in scenarios {
        let mut cl = LoopBuilder::new(set.clone())
            .sim_config(
                SimConfig::constant_etf(0.9)
                    .exec_model(ExecModel::Uniform { half_width: 0.2 })
                    .seed(seed),
            )
            .controller(ControllerSpec::Sharded {
                mpc: MpcConfig::medium(),
                shard_size: SHARD_SIZE,
                boundary,
            })
            .local()
            .expect("closed loop");
        let result = cl.run(PERIODS);
        let tail: Vec<f64> = (0..PROCS)
            .map(|p| {
                metrics::window(&result.trace.utilization_series(p), PERIODS - 30, PERIODS).mean
            })
            .collect();
        let worst = tail
            .iter()
            .zip(b.iter())
            .map(|(m, bp)| (m - bp).abs())
            .fold(0.0f64, f64::max);
        means.push(tail.iter().map(|m| m.to_bits()).collect());
        rows.push(vec![
            name.to_string(),
            render::f4(worst),
            result.control_errors.to_string(),
        ]);
        assert!(
            worst <= TOLERANCE,
            "GATE FAILED [{name}]: worst tail error {worst:.4} exceeds ±{TOLERANCE}"
        );
        assert_eq!(
            result.control_errors, 0,
            "GATE FAILED [{name}]: controller errors"
        );
    }
    assert!(
        means[0] == means[1],
        "GATE FAILED: ideal lanes and the in-memory board disagree on a tail mean"
    );
    println!(
        "{}",
        render::table(&["boundary", "worst |mean−B|", "ctrl errors"], &rows)
    );
    println!("\nAll gates passed: convergence ±{TOLERANCE} on every processor, zero");
    println!("controller errors, with and without boundary delay/loss; the in-memory");
    println!("board and ideal lanes agree on every tail mean bit for bit.");
}
