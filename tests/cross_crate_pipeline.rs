//! Whole-pipeline integration tests on generated workloads: the QP
//! solver, controller, task model and simulator must compose for
//! arbitrary (feasible) systems, not just the paper's two configurations.

use eucon::prelude::*;

/// EUCON converges on randomly generated end-to-end workloads across a
/// range of shapes and seeds.
#[test]
fn eucon_converges_on_random_workloads() {
    for (seed, procs, tasks) in [(1u64, 3usize, 8usize), (2, 5, 14), (3, 6, 20)] {
        let set = workloads::RandomWorkload::new(procs, tasks)
            .seed(seed)
            .generate();
        let b = rms_set_points(&set);
        let mut cl = LoopBuilder::new(set)
            .sim_config(SimConfig::constant_etf(0.5).seed(seed))
            .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            .local()
            .expect("loop");
        let result = cl.run(150);
        for p in 0..procs {
            let s = metrics::window(&result.trace.utilization_series(p), 100, 150);
            assert!(
                (s.mean - b[p]).abs() < 0.05,
                "seed {seed}, P{}: mean {:.3} vs set point {:.3}",
                p + 1,
                s.mean,
                b[p]
            );
        }
        assert_eq!(cl.control_errors(), 0, "controller must never fail");
    }
}

/// Commanded rates always respect every task's acceptable range, at every
/// period, under violent disturbances.
#[test]
fn rates_always_within_bounds_under_disturbance() {
    let set = workloads::medium();
    let (rmin, rmax) = set.rate_bounds();
    let profile = EtfProfile::steps(&[(0.0, 0.2), (50_000.0, 5.0), (100_000.0, 0.1)]);
    let mut cl = LoopBuilder::new(set)
        .sim_config(SimConfig {
            exec_model: ExecModel::Constant,
            etf: profile,
            seed: 9,
            release_guard: Default::default(),
            processor_speeds: None,
        })
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
        .local()
        .expect("loop");
    let result = cl.run(150);
    for step in result.trace.steps() {
        for t in 0..rmin.len() {
            assert!(
                step.rates[t] >= rmin[t] - 1e-9 && step.rates[t] <= rmax[t] + 1e-9,
                "rate of T{} out of range at t = {}: {}",
                t + 1,
                step.time,
                step.rates[t]
            );
        }
    }
}

/// Utilization measurements are physical: within [0, 1] on every
/// processor at every sampling period, whatever the controller does.
#[test]
fn utilization_measurements_are_physical() {
    for spec in [
        ControllerSpec::Eucon(MpcConfig::medium()),
        ControllerSpec::Open,
        ControllerSpec::Pid { kp: 0.8, ki: 0.1 },
    ] {
        let mut cl = LoopBuilder::new(workloads::medium())
            .sim_config(
                SimConfig::constant_etf(2.0)
                    .exec_model(ExecModel::Uniform { half_width: 0.5 })
                    .seed(5),
            )
            .controller(spec)
            .local()
            .expect("loop");
        let result = cl.run(80);
        for step in result.trace.steps() {
            for p in 0..4 {
                let u = step.utilization[p];
                assert!((0.0..=1.0).contains(&u), "u = {u} out of [0,1]");
            }
        }
    }
}

/// The closed loop is fully deterministic for a fixed seed — a property
/// the experiment harness depends on.
#[test]
fn closed_loop_is_deterministic() {
    let run = || {
        let mut cl = LoopBuilder::new(workloads::medium())
            .sim_config(
                SimConfig::constant_etf(0.7)
                    .exec_model(ExecModel::Uniform { half_width: 0.3 })
                    .seed(77),
            )
            .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            .local()
            .expect("loop");
        cl.run(60)
    };
    let a = run();
    let b = run();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.deadlines, b.deadlines);
}

/// Enforcing the RMS set point actually yields the schedulability it
/// promises: with constant execution times and utilization at the
/// Liu–Layland bound, (sub)deadlines hold.
#[test]
fn rms_set_point_protects_deadlines() {
    let mut cl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(0.8))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .local()
        .expect("loop");
    let result = cl.run(200);
    assert!(
        result.deadlines.miss_ratio() < 0.01,
        "miss ratio {:.4} at the RMS bound",
        result.deadlines.miss_ratio()
    );
    assert!(
        result.deadlines.completed() > 3000,
        "enough instances to be meaningful"
    );
}

/// An infeasible demand (etf far above what the rate range can absorb)
/// must degrade gracefully: the loop keeps running, rates pin at Rmin,
/// utilization saturates, and no component panics or errors.
#[test]
fn graceful_saturation_when_infeasible() {
    let mut cl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(25.0))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .local()
        .expect("loop");
    let result = cl.run(80);
    assert_eq!(
        cl.control_errors(),
        0,
        "infeasibility is handled inside the controller"
    );
    let set = workloads::simple();
    let last = result.trace.steps().last().expect("steps");
    for (t, task) in set.tasks().iter().enumerate() {
        assert!(
            (last.rates[t] - task.rate_min()).abs() < 1e-9,
            "T{} should pin at Rmin under hopeless overload",
            t + 1
        );
    }
    let tail = metrics::window(&result.trace.utilization_series(0), 40, 80);
    assert!(tail.mean > 0.95, "P1 saturates: {:.3}", tail.mean);
}

/// Past simulated time 2²⁴ (period 16 778 at the default `Ts`) one ulp of
/// the clock exceeds the engine's time tolerance; a stale completion
/// wake-up must then complete the job instead of re-arming at the same
/// instant forever.  The loops run on their own threads so a regression
/// fails the test instead of hanging it.
#[test]
fn loops_run_past_the_clock_resolution_horizon() {
    const PERIODS: usize = 17_500;
    let (tx, rx) = std::sync::mpsc::channel();
    for (name, set, mpc) in [
        ("simple", workloads::simple(), MpcConfig::simple()),
        ("medium", workloads::medium(), MpcConfig::medium()),
    ] {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut cl = LoopBuilder::new(set)
                .sim_config(
                    SimConfig::constant_etf(0.5).exec_model(ExecModel::Uniform { half_width: 0.2 }),
                )
                .controller(ControllerSpec::Eucon(mpc))
                .record_trace(false)
                .local()
                .expect("loop");
            for _ in 0..PERIODS {
                cl.step();
            }
            let _ = tx.send((name, cl.control_errors()));
        });
    }
    for _ in 0..2 {
        let (name, errors) = rx
            .recv_timeout(std::time::Duration::from_secs(300))
            .expect("a loop stopped making progress (stale wake-up livelock)");
        assert_eq!(errors, 0, "{name}");
    }
}
