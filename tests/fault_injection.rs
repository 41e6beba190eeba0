//! Fault injection end to end: the supervised controller must keep the
//! loop alive — finite, in-bounds rates, graceful degradation, automatic
//! re-convergence — under processor crashes, sensor faults and lossy or
//! delayed command lanes that break the paper's idealized assumptions.
//!
//! The CI `chaos` job runs this suite across several seeds via
//! `EUCON_FAULT_SEED` (default 42), so the stochastic fault draws don't
//! ossify around one lucky RNG stream.

use eucon::core::FaultSummary;
use eucon::prelude::*;

/// Seed for stochastic fault draws; overridden by the CI seed matrix.
fn fault_seed() -> u64 {
    std::env::var("EUCON_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn supervised() -> ControllerSpec {
    ControllerSpec::SupervisedEucon {
        mpc: MpcConfig::simple(),
        supervisor: SupervisorConfig::default(),
    }
}

fn run_with_faults(spec: ControllerSpec, plan: FaultPlan, periods: usize) -> RunResult {
    let mut cl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(0.5).seed(1))
        .controller(spec)
        .faults(plan)
        .local()
        .expect("loop");
    cl.run(periods)
}

/// Every rate in the trace is finite and inside the task rate box.
fn assert_rates_sane(result: &RunResult) {
    let set = workloads::simple();
    for (k, step) in result.trace.steps().iter().enumerate() {
        assert!(
            step.rates.is_finite(),
            "non-finite rate at period {k}: {}",
            step.rates
        );
        for (t, task) in set.tasks().iter().enumerate() {
            assert!(
                step.rates[t] >= task.rate_min() - 1e-9 && step.rates[t] <= task.rate_max() + 1e-9,
                "rate {} of T{} out of box at period {k}",
                step.rates[t],
                t + 1
            );
        }
    }
}

/// The acceptance scenario: P2 crashes at period 60, recovers at 100,
/// and 20% of the rate commands are lost on the command lanes throughout.
/// The supervised EUCON must re-converge to within ±0.03 of the set
/// points by period 150 with zero panics and zero non-finite rates.
#[test]
fn acceptance_crash_plus_actuation_loss_reconverges() {
    let result = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(0.5).seed(1))
        .controller(supervised())
        .faults(FaultPlan::none().crash(1, 60, 100))
        .distributed(NetConfig::channel().command_lanes(LaneModel::lossy(0.2, fault_seed())))
        .expect("loop")
        .run(250);
    assert_rates_sane(&result);
    for p in 0..2 {
        let series = result.trace.utilization_series(p);
        let tail = metrics::window(&series, 150, 250);
        assert!(
            (tail.mean - result.set_points[p]).abs() < 0.03,
            "P{} mean {:.3} should re-converge to {:.3} by period 150 \
             (seed {})",
            p + 1,
            tail.mean,
            result.set_points[p],
            fault_seed()
        );
    }
    assert_eq!(result.control_errors, 0, "supervisor absorbs every fault");
    assert_eq!(result.faults.crashed_periods, 40);
    assert!(
        result.faults.degraded_periods >= 40,
        "the watchdog must actually degrade during the outage"
    );
    assert!(result.telemetry.counter("frames_lost").unwrap() > 0);
}

/// Regression pinned to the paper's number: after P2's crash window ends
/// at period 100, the loop is back at the 0.828 RMS bound within 50
/// periods of recovery.
#[test]
fn crash_recovery_reconverges_to_rms_bound_within_50_periods() {
    let plan = FaultPlan::none().crash(1, 60, 100);
    let result = run_with_faults(supervised(), plan, 170);
    assert_rates_sane(&result);
    for p in 0..2 {
        let series = result.trace.utilization_series(p);
        // Recovery at period 100 is followed by a backlog drain (P2 pinned
        // at u = 1 while the jobs queued during the outage execute), then
        // the re-engaged MPC climbs back: inside the ±0.05 settling band
        // within 50 periods of recovery…
        let settle = metrics::settling_hold(&series, 0.828, 0.05, 100, 10);
        assert!(
            settle.is_some_and(|k| k <= 150),
            "P{} settled at {settle:?}, want <= 150 (50 periods after recovery)",
            p + 1
        );
        // …and squarely back on the RMS bound right after.
        let tail = metrics::window(&series, 150, 170);
        assert!(
            (tail.mean - 0.828).abs() < 0.03,
            "P{} tail mean {:.3} not back at 0.828 after recovery",
            p + 1,
            tail.mean
        );
    }
    // The outage is visible in the trace annotations, then clears.
    let steps = result.trace.steps();
    assert!(steps[60..100].iter().all(|s| s.annotations.crashed == [1]));
    assert!(steps[100..]
        .iter()
        .all(|s| s.annotations.crashed.is_empty()));
}

/// Satellite (a) end to end: the *unsupervised* MPC rejects non-finite
/// samples with a typed error instead of poisoning its warm-started
/// optimizer — the loop coasts on previous rates and recovers.
#[test]
fn raw_mpc_survives_nan_sensors_via_sample_rejection() {
    let plan = FaultPlan::none().sensor(0, 40, 80, SensorFaultKind::NaN);
    let spec = ControllerSpec::Eucon(MpcConfig::simple());
    let result = run_with_faults(spec, plan, 150);
    assert_rates_sane(&result);
    assert_eq!(result.control_errors, 40, "one typed rejection per period");
    let tail = metrics::window(&result.trace.utilization_series(0), 120, 150);
    assert!(
        (tail.mean - 0.828).abs() < 0.03,
        "optimizer survived the NaN storm: mean {:.3}",
        tail.mean
    );
}

/// Stochastic crashes with the same seed reproduce the same run; a
/// different seed gives a different fault history.
#[test]
fn stochastic_faults_are_seed_deterministic() {
    let plan = |seed: u64| {
        FaultPlan::none()
            .random_crashes(1.0 / 30.0, 1.0 / 8.0)
            .seed(seed)
    };
    let a = run_with_faults(supervised(), plan(fault_seed()), 80);
    let b = run_with_faults(supervised(), plan(fault_seed()), 80);
    // Traces can contain NaN in the `received` reports of crashed
    // periods (NaN != NaN), so compare the physical histories.
    let crash_history = |r: &RunResult| -> Vec<Vec<usize>> {
        r.trace
            .steps()
            .iter()
            .map(|s| s.annotations.crashed.clone())
            .collect()
    };
    assert_eq!(crash_history(&a), crash_history(&b), "same crash schedule");
    for t in 0..3 {
        assert_eq!(
            a.trace.rate_series(t),
            b.trace.rate_series(t),
            "same seed, same rate history for T{}",
            t + 1
        );
    }
    for p in 0..2 {
        assert_eq!(a.trace.utilization_series(p), b.trace.utilization_series(p));
    }
    assert_eq!(a.faults, b.faults);
    assert_ne!(
        a.faults,
        FaultSummary::default(),
        "mtbf 30 over 80 periods crashes at least once"
    );
    let c = run_with_faults(supervised(), plan(fault_seed() + 1), 80);
    assert_ne!(
        crash_history(&a),
        crash_history(&c),
        "different seeds should explore different fault histories"
    );
    assert_rates_sane(&a);
    assert_rates_sane(&c);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Property (satellite d): whatever fault sequence the plan
        /// throws at the loop — crashes, bursts, frozen/NaN/stuck
        /// sensors, lossy and delayed command lanes — the supervised MPC
        /// never emits a rate outside [Rmin, Rmax] or a non-finite rate.
        #[test]
        fn supervised_rates_always_finite_and_bounded(
            crash_proc in 0usize..2,
            crash_from in 5usize..40,
            crash_len in 1usize..30,
            burst_factor in 0.5f64..4.0,
            sensor_kind in 0usize..3,
            loss in 0.0f64..0.6,
            act_delay in 0usize..3,
            seed in 0u64..1000,
        ) {
            let kind = match sensor_kind {
                0 => SensorFaultKind::Frozen,
                1 => SensorFaultKind::NaN,
                _ => SensorFaultKind::Stuck(2.5),
            };
            let plan = FaultPlan::none()
                .crash(crash_proc, crash_from, crash_from + crash_len)
                .burst(1 - crash_proc, 10, 35, burst_factor)
                .sensor(crash_proc, 20, 45, kind);
            // Lost and delayed commands are lane effects: the loop runs
            // over in-memory lanes whose command direction drops or holds
            // each frame.
            let commands = LaneModel { delay: act_delay, loss_probability: loss, seed };
            let result = LoopBuilder::new(workloads::simple())
                .sim_config(SimConfig::constant_etf(0.5).seed(1))
                .controller(supervised())
                .faults(plan)
                .distributed(NetConfig::channel().command_lanes(commands))
                .expect("loop")
                .run(60);
            assert_rates_sane(&result);
            prop_assert_eq!(result.control_errors, 0);
        }
    }
}
