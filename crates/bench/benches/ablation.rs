//! Ablation timing benchmarks: end-to-end cost of one closed-loop
//! sampling period for each controller and for EUCON design variants
//! (control penalty shape, utilization constraints on/off).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use eucon_control::{ControlPenalty, MpcConfig};
use eucon_core::{ControllerSpec, LoopBuilder};
use eucon_sim::SimConfig;
use eucon_tasks::workloads;

fn run_periods(spec: ControllerSpec, periods: usize) -> f64 {
    let mut cl = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig::constant_etf(0.5).seed(1))
        .controller(spec)
        .local()
        .expect("loop");
    let result = cl.run(periods);
    result
        .trace
        .utilization_series(0)
        .last()
        .copied()
        .unwrap_or(0.0)
}

fn bench_controllers(c: &mut Criterion) {
    let mut group = c.benchmark_group("closed_loop_20_periods");
    group.sample_size(10);
    group.bench_function("eucon", |b| {
        b.iter(|| black_box(run_periods(ControllerSpec::Eucon(MpcConfig::medium()), 20)))
    });
    group.bench_function("open", |b| {
        b.iter(|| black_box(run_periods(ControllerSpec::Open, 20)))
    });
    group.bench_function("pid", |b| {
        b.iter(|| black_box(run_periods(ControllerSpec::Pid { kp: 0.5, ki: 0.05 }, 20)))
    });
    group.finish();
}

fn bench_design_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("eucon_variants_20_periods");
    group.sample_size(10);
    let variants: Vec<(&str, MpcConfig)> = vec![
        ("paper", MpcConfig::medium()),
        (
            "move_penalty",
            MpcConfig::medium().control_penalty(ControlPenalty::Move),
        ),
        (
            "no_util_constraints",
            MpcConfig::medium().utilization_constraints(false),
        ),
        ("long_horizon", MpcConfig::medium().horizons(8, 4)),
    ];
    for (name, cfg) in variants {
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_periods(ControllerSpec::Eucon(cfg.clone()), 20)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_controllers, bench_design_variants);
criterion_main!(benches);
