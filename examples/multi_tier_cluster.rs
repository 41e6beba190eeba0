//! A larger cluster scenario combining the repository's extensions: an
//! 8-processor, 24-task multi-tier server farm (the paper's on-line
//! trading motivation), controlled *decentrally* (one local MPC per
//! processor, the paper's future-work direction) over **real feedback
//! lanes** — controller node and tier nodes exchanging binary frames over
//! loopback TCP, with one period of report delay and 5% report loss on
//! every lane, and quantized actuation.
//!
//! Run with: `cargo run --release --example multi_tier_cluster`

use eucon::core::BoundaryMode;
use eucon::prelude::*;

fn main() -> Result<(), eucon::Error> {
    // Synthesize a cluster-scale workload: 24 request pipelines across 8
    // tiers/processors, chains up to 4 stages deep.
    let cluster = workloads::RandomWorkload::new(8, 24)
        .seed(2004)
        .max_chain_len(4)
        .period_range(80.0, 400.0)
        .rate_span(10.0, 10.0)
        .generate();
    let b = rms_set_points(&cluster);
    println!(
        "cluster: {} pipelines / {} stages on {} tiers",
        cluster.num_tasks(),
        cluster.num_subtasks(),
        cluster.num_processors()
    );

    // Decentralized control team over per-tier TCP feedback lanes with
    // realistic effects (1 period delay, 5% report loss); actuators
    // support 32 discrete rates per pipeline.
    let mut cl = LoopBuilder::new(cluster.clone())
        .sim_config(
            SimConfig::constant_etf(0.6)
                .exec_model(ExecModel::Uniform { half_width: 0.3 })
                .seed(8),
        )
        .controller(ControllerSpec::Sharded {
            mpc: MpcConfig::medium(),
            shard_size: 1,
            boundary: BoundaryMode::InProcess,
        })
        .quantized_rates(32)
        .distributed(NetConfig::tcp().report_lanes(LaneModel {
            delay: 1,
            loss_probability: 0.05,
            seed: 4,
        }))?;

    let result = cl.run(250);
    let net = cl.transport_stats();
    println!(
        "\nlanes ({}): {} frames sent, {} received, {} lost, {} decode errors",
        cl.backend_name(),
        net.sent,
        net.received,
        net.dropped,
        net.decode_errors
    );
    println!("\ntier utilization after 250 sampling periods (target = RMS bound):");
    let mut worst = 0.0f64;
    for p in 0..cluster.num_processors() {
        let s = metrics::window(&result.trace.utilization_series(p), 150, 250);
        worst = worst.max((s.mean - b[p]).abs());
        println!(
            "  tier {}: mean {:.3} / target {:.3}  (σ {:.3})",
            p + 1,
            s.mean,
            b[p],
            s.std_dev
        );
    }
    println!("\nworst tier error: {worst:.4}");
    println!(
        "end-to-end deadline miss ratio: {:.4}",
        result.deadlines.miss_ratio()
    );
    assert!(
        worst < 0.06,
        "decentralized control must hold every tier near its bound"
    );
    assert_eq!(net.decode_errors, 0, "every frame decodes");

    // The point of decentralization: per-node problems stay small.
    let team = ShardedController::with_shard_size(&cluster, b, MpcConfig::medium(), 1)
        .expect("controller team");
    println!(
        "\ncontrol team: {} local controllers, largest owns {} of {} pipelines",
        team.num_controllers(),
        team.max_shard_tasks(),
        cluster.num_tasks()
    );
    Ok(())
}
