//! Simulator throughput benchmarks: wall-clock cost of simulating the
//! paper's workloads (events are job releases, completions and guard
//! wake-ups), open loop and closed loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eucon_control::MpcConfig;
use eucon_core::{ControllerSpec, LoopBuilder};
use eucon_sim::{ExecModel, SimConfig, Simulator};
use eucon_tasks::workloads;

fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_10_periods");
    group.sample_size(20);

    group.bench_function("simple", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(workloads::simple(), SimConfig::constant_etf(1.0));
            sim.run_until(10_000.0);
            black_box(sim.sample_utilizations())
        })
    });

    group.bench_function("medium", |b| {
        b.iter(|| {
            let cfg = SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1);
            let mut sim = Simulator::new(workloads::medium(), cfg);
            sim.run_until(10_000.0);
            black_box(sim.sample_utilizations())
        })
    });

    group.finish();
}

/// The acceptance workload of the event-engine overhaul: the full EUCON
/// feedback loop on MEDIUM (sim + monitors + MPC + rate modulators),
/// where per-event engine overhead dominates the wall clock.
fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("closed_loop");
    group.sample_size(10);

    group.bench_function("medium_30_periods", |b| {
        b.iter(|| {
            let cfg = SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1);
            let mut cl = LoopBuilder::new(workloads::medium())
                .sim_config(cfg)
                .controller(ControllerSpec::Eucon(MpcConfig::medium()))
                .local()
                .expect("closed loop");
            black_box(cl.run(30))
        })
    });

    // Same plant and loop with the paper's cheap baseline controllers:
    // per-period cost is dominated by the event engine and the loop
    // plumbing, so these two isolate exactly what PR 3 rewrites (the
    // EUCON variant above additionally pays the fixed MPC solve cost,
    // which PR 3 leaves bit-for-bit untouched).
    group.bench_function("medium_pid_60_periods", |b| {
        b.iter(|| {
            let cfg = SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1);
            let mut cl = LoopBuilder::new(workloads::medium())
                .sim_config(cfg)
                .controller(ControllerSpec::Pid { kp: 0.5, ki: 0.05 })
                .local()
                .expect("closed loop");
            black_box(cl.run(60))
        })
    });

    group.bench_function("medium_open_60_periods", |b| {
        b.iter(|| {
            let cfg = SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1);
            let mut cl = LoopBuilder::new(workloads::medium())
                .sim_config(cfg)
                .controller(ControllerSpec::Open)
                .local()
                .expect("closed loop");
            black_box(cl.run(60))
        })
    });

    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_scaling");
    group.sample_size(10);
    for (procs, tasks) in [(4usize, 12usize), (8, 24), (16, 48)] {
        let set = workloads::RandomWorkload::new(procs, tasks)
            .seed(3)
            .generate();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{procs}procs_{tasks}tasks")),
            &set,
            |b, set| {
                b.iter(|| {
                    let mut sim = Simulator::new(set.clone(), SimConfig::constant_etf(1.0));
                    sim.run_until(10_000.0);
                    black_box(sim.sample_utilizations())
                })
            },
        );
    }
    group.finish();
}

/// Raw event throughput at increasing platform sizes, including the
/// 64-processor configuration the tombstone-heap engine made impractical.
fn bench_sim_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_events");
    group.sample_size(10);
    for procs in [4usize, 16, 64] {
        let tasks = procs * 3;
        let set = workloads::RandomWorkload::new(procs, tasks)
            .seed(3)
            .generate();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{procs}procs")),
            &set,
            |b, set| {
                b.iter(|| {
                    let mut sim = Simulator::new(set.clone(), SimConfig::constant_etf(1.0));
                    sim.run_until(10_000.0);
                    black_box(sim.sample_utilizations())
                })
            },
        );
        // One instrumented run outside the timing loop: events/sec from
        // the engine counters at this size (median time is reported by
        // the harness above).
        report_events_per_sec(procs, set.clone());
    }
    group.finish();
}

/// Prints events/sec for one configuration using the engine counters.
fn report_events_per_sec(procs: usize, set: eucon_tasks::TaskSet) {
    let t0 = std::time::Instant::now();
    let mut sim = Simulator::new(set, SimConfig::constant_etf(1.0));
    sim.run_until(10_000.0);
    let secs = t0.elapsed().as_secs_f64();
    let counters = sim.counters();
    println!(
        "sim_events/{procs}procs: {} events in {:.1} ms = {:.2} Mevents/s \
         (peak queue {}, {} reschedules)",
        counters.events,
        secs * 1e3,
        counters.events as f64 / secs / 1e6,
        counters.queue_peak,
        counters.reschedules,
    );
}

criterion_group!(
    benches,
    bench_workloads,
    bench_closed_loop,
    bench_scaling,
    bench_sim_events
);
criterion_main!(benches);
