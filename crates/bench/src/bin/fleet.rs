//! Fleet throughput study: N independent EUCON loops on the
//! work-stealing pool, swept over fleet sizes and thread counts.
//!
//! Reports aggregate control throughput (sampling periods per second)
//! and simulator event throughput (Mevents/s), the parallel speedup over
//! one thread, and cross-checks that every thread count produced the
//! same per-loop digests (the fleet determinism contract).
//!
//! `EUCON_FLEET_SMOKE=1` shrinks the sweep to a seconds-long CI smoke
//! run; the full sweep reaches the 10 000-loop tier.

use eucon_control::MpcConfig;
use eucon_core::{render, ControllerSpec, FleetRunner, LoopBuilder};
use eucon_sim::SimConfig;
use eucon_tasks::workloads;

/// A heterogeneous fleet: mostly SIMPLE loops (the cheap common case)
/// with every fourth member running MEDIUM, seeded per index so no two
/// loops follow identical trajectories.
fn loops(n: usize) -> Vec<LoopBuilder> {
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                LoopBuilder::new(workloads::medium())
                    .sim_config(SimConfig::constant_etf(0.9).seed(i as u64))
                    .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            } else {
                LoopBuilder::new(workloads::simple())
                    .sim_config(SimConfig::constant_etf(0.5).seed(i as u64))
            }
        })
        .collect()
}

fn main() {
    let smoke = std::env::var("EUCON_FLEET_SMOKE").is_ok_and(|v| v != "0");
    let (sizes, periods, thread_sweep): (Vec<usize>, usize, Vec<usize>) = if smoke {
        (vec![64], 10, vec![1, 2])
    } else {
        (vec![1_000, 10_000], 40, vec![1, 2, 4, 8])
    };
    println!(
        "== Fleet throughput: {} loops/period sweep ({}) ==\n",
        sizes
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("/"),
        if smoke { "smoke" } else { "full" }
    );
    let cores = eucon_bench::detected_cores();
    println!("  [detected cores: {cores}]");
    if let Some(&max_threads) = thread_sweep.iter().max() {
        eucon_bench::warn_if_oversubscribed(max_threads);
    }

    let mut rows = Vec::new();
    for &n in &sizes {
        let fleet_loops = loops(n);
        let mut baseline: Option<(f64, Vec<u64>)> = None;
        for &threads in &thread_sweep {
            let mut fleet = FleetRunner::new().threads(threads);
            for lp in fleet_loops.iter().cloned() {
                fleet.push(lp);
            }
            let report = fleet.run(periods).expect("fleet runs");
            assert_eq!(report.control_errors, 0, "healthy fleet");
            let speedup = match &baseline {
                None => {
                    baseline = Some((report.elapsed_secs, report.digests.clone()));
                    1.0
                }
                Some((t1, digests)) => {
                    assert_eq!(
                        digests, &report.digests,
                        "{threads}-thread digests must match the 1-thread run"
                    );
                    t1 / report.elapsed_secs
                }
            };
            rows.push(vec![
                n.to_string(),
                threads.to_string(),
                cores.to_string(),
                format!("{:.1}", report.elapsed_secs * 1e3),
                format!("{:.0}", report.periods_per_sec()),
                format!("{:.2}", report.mevents_per_sec()),
                format!("{speedup:.2}"),
                report.shared_models.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render::table(
            &[
                "loops",
                "threads",
                "cores",
                "wall ms",
                "periods/s",
                "Mevents/s",
                "speedup vs 1T",
                "shared models",
            ],
            &rows
        )
    );
    eucon_bench::write_result(
        "fleet_bench.csv",
        &render::csv(
            &[
                "loops",
                "threads",
                "cores",
                "wall_ms",
                "periods_per_s",
                "mevents_per_s",
                "speedup",
                "shared_models",
            ],
            &rows,
        ),
    );
    println!("\nExpected shape: throughput scales with threads until the memory");
    println!("bandwidth of the per-loop working sets saturates; digests are");
    println!("bit-identical at every thread count (asserted above).");
}
