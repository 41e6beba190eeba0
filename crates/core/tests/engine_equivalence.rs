//! Golden-trace determinism tests for the event engine.
//!
//! The indexed per-source event queue (PR 3) must be *observationally
//! identical* to the tombstone-heap engine it replaced: same seeds, same
//! workloads, same fault scripts → bit-identical [`TraceStep`] sequences.
//! These tests pin FNV-1a hashes of complete closed-loop traces (every
//! `f64` hashed by its bit pattern, so even 1-ulp drift fails) captured
//! from the reference engine, for the paper's SIMPLE and MEDIUM workloads,
//! fault-free.  The scenarios and hash live in `trace_hash/` and are
//! shared with `transport_equivalence`, which pins the distributed loop to
//! the same constants and also pins the two faulted scenarios (processor
//! crash + lossy command lanes), which need a loop with lanes.
//!
//! If an intentional semantic change to the engine breaks these, re-capture
//! with:
//!
//! ```text
//! cargo test -p eucon-core --test engine_equivalence -- --ignored --nocapture
//! ```

mod trace_hash;

use eucon_sim::{ExecModel, SimConfig, Simulator};
use eucon_tasks::{workloads, ProcessorId, TaskId};
use trace_hash::{hash_result, Fnv, Scenario};

/// A pure-simulator scenario with a scripted rate/suspend/crash sequence,
/// hashing the sampled utilizations and final statistics — this drives
/// every reschedule path in the engine without a controller in the loop.
fn scripted_sim(set: eucon_tasks::TaskSet, seed: u64) -> u64 {
    let m = set.num_tasks();
    let n = set.num_processors();
    let cfg = SimConfig::constant_etf(0.8)
        .exec_model(ExecModel::Uniform { half_width: 0.3 })
        .seed(seed);
    let mut sim = Simulator::new(set, cfg);
    let mut h = Fnv::new();
    for k in 1..=30u64 {
        sim.run_until(k as f64 * 500.0);
        h.vector(&sim.sample_utilizations());
        // Deterministic rate churn touching every task.
        for t in 0..m {
            let r = sim.rates_slice()[t];
            let factor = 0.7 + 0.6 * (((k as usize + t) % 5) as f64) / 4.0;
            sim.set_rate(TaskId(t), r * factor);
        }
        if k % 7 == 0 {
            sim.suspend_task(TaskId((k as usize) % m));
        }
        if k % 7 == 3 {
            sim.resume_task(TaskId(((k - 3) as usize) % m));
        }
        if k == 10 {
            sim.crash_processor(ProcessorId(n - 1));
        }
        if k == 14 {
            sim.recover_processor(ProcessorId(n - 1));
        }
    }
    let d = sim.deadline_stats();
    h.u64(d.met);
    h.u64(d.missed);
    for stats in sim.task_stats() {
        h.u64(stats.completed);
        h.u64(stats.missed);
        h.f64(stats.response_time_sum);
        h.f64(stats.response_time_max);
    }
    h.0
}

// ---- golden hashes of the sim-only scripted scenarios ----

const GOLDEN_SCRIPTED_SIMPLE: u64 = 0x6dd9_3a7f_b2fc_9bd4;
const GOLDEN_SCRIPTED_MEDIUM: u64 = 0x80be_e3a9_2814_cc36;

#[test]
fn golden_simple_fault_free() {
    let s = Scenario::SimpleFaultFree;
    assert_eq!(hash_result(&s.run_single()), s.golden());
}

#[test]
fn golden_medium_fault_free() {
    let s = Scenario::MediumFaultFree;
    assert_eq!(hash_result(&s.run_single()), s.golden());
}

#[test]
fn golden_scripted_sim_simple() {
    assert_eq!(
        scripted_sim(workloads::simple(), 11),
        GOLDEN_SCRIPTED_SIMPLE
    );
}

#[test]
fn golden_scripted_sim_medium() {
    assert_eq!(
        scripted_sim(workloads::medium(), 12),
        GOLDEN_SCRIPTED_MEDIUM
    );
}

/// Capture mode: prints the constants blocks (the closed-loop ones belong
/// in `trace_hash/mod.rs`).  Run with `-- --ignored --nocapture` and paste
/// the output.
#[test]
#[ignore = "recapture tool, not a test"]
fn print_golden_hashes() {
    for s in Scenario::ALL {
        println!(
            "pub const GOLDEN_{}: u64 = {:#018x};",
            s.name().to_uppercase(),
            hash_result(&s.run_distributed_channel())
        );
    }
    println!(
        "const GOLDEN_SCRIPTED_SIMPLE: u64 = {:#018x};",
        scripted_sim(workloads::simple(), 11)
    );
    println!(
        "const GOLDEN_SCRIPTED_MEDIUM: u64 = {:#018x};",
        scripted_sim(workloads::medium(), 12)
    );
}
