//! Robustness of the feedback loop to non-ideal feedback lanes (the
//! paper idealizes them as delay- and loss-free TCP connections; here we
//! measure what those assumptions are worth).  The loop runs distributed
//! over in-memory lanes, each report lane drawing its own losses.

use eucon::prelude::*;

fn run_with_lanes(lanes: LaneModel, periods: usize) -> RunResult {
    let mut cl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(0.5).seed(1))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .distributed(NetConfig::channel().report_lanes(lanes))
        .expect("loop");
    cl.run(periods)
}

#[test]
fn one_period_report_delay_still_converges() {
    let result = run_with_lanes(LaneModel::delayed(1), 200);
    let s = metrics::window(&result.trace.utilization_series(0), 150, 200);
    assert!(
        metrics::acceptable(s, 0.8284),
        "one period of lane delay must be absorbed: mean {:.3}, σ {:.3}",
        s.mean,
        s.std_dev
    );
}

#[test]
fn moderate_report_loss_still_converges() {
    let result = run_with_lanes(LaneModel::lossy(0.3, 42), 200);
    let s = metrics::window(&result.trace.utilization_series(0), 150, 200);
    assert!(
        (s.mean - 0.8284).abs() < 0.03,
        "30% report loss must only slow the loop: mean {:.3}",
        s.mean
    );
}

#[test]
fn delay_degrades_gracefully_and_monotonically() {
    // More lane delay → more oscillation; the loop should not fall off a
    // cliff at small delays.
    let sigma_at = |d: usize| {
        let result = run_with_lanes(LaneModel::delayed(d), 250);
        metrics::window(&result.trace.utilization_series(0), 150, 250).std_dev
    };
    let s0 = sigma_at(0);
    let s2 = sigma_at(2);
    let s5 = sigma_at(5);
    assert!(s0 < 0.01, "ideal lanes are calm: {s0:.4}");
    assert!(
        s5 >= s2,
        "more delay must not reduce oscillation ({s2:.4} -> {s5:.4})"
    );
    assert!(s2 < 0.1, "two periods of delay remain usable: {s2:.4}");
}

#[test]
fn lossy_lanes_preserve_stability_margin() {
    // Losses make the loop act on stale data — effectively a slower
    // controller — but must not destabilize it at nominal gain.
    let result = run_with_lanes(
        LaneModel {
            delay: 1,
            loss_probability: 0.2,
            seed: 9,
        },
        300,
    );
    let s = metrics::window(&result.trace.utilization_series(0), 200, 300);
    assert!((s.mean - 0.8284).abs() < 0.05, "mean {:.3}", s.mean);
    assert!(s.std_dev < 0.1, "σ {:.3}", s.std_dev);
    assert!(result.deadlines.miss_ratio() < 0.05);
}
