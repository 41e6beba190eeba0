//! Heterogeneous platforms: per-processor speed factors realize the
//! asymmetric utilization gains `G = diag(g_i)` of the paper's stability
//! analysis — the controller never learns the speeds, yet must still
//! regulate every processor.

use eucon::control::stability;
use eucon::prelude::*;

#[test]
fn eucon_regulates_a_heterogeneous_cluster() {
    // P1 twice as slow as estimated, P2 30% faster.  (The widened rate
    // range keeps the set point reachable on the fast processor, whose
    // effective gain is only 0.35 at etf 0.5.)
    let speeds = vec![2.0, 0.7];
    let mut cl = LoopBuilder::new(workloads::simple_widened(3.0))
        .sim_config(SimConfig::constant_etf(0.5).processor_speeds(speeds))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .local()
        .expect("loop");
    let result = cl.run(200);
    for p in 0..2 {
        let s = metrics::window(&result.trace.utilization_series(p), 150, 200);
        assert!(
            (s.mean - 0.8284).abs() < 0.03,
            "P{}: mean {:.3} despite unknown speed factor",
            p + 1,
            s.mean
        );
    }
}

#[test]
fn asymmetric_gains_match_analysis_prediction() {
    // Effective gains are etf·speed per processor.  Pick a combination
    // the analysis certifies stable and one it rejects; the simulation
    // must agree (widened rates avoid actuator saturation masking).
    let f = workloads::simple().allocation_matrix();
    let cfg = MpcConfig::simple();

    let stable_gains = [1.0, 2.0];
    let unstable_gains = [10.0, 10.0];
    assert!(stability::is_stable(&f, &cfg, &stable_gains).unwrap());
    assert!(!stability::is_stable(&f, &cfg, &unstable_gains).unwrap());

    let sim_stats = |gains: [f64; 2]| {
        // etf = 1, speeds = gains → per-processor gain = gains.
        let mut cl = LoopBuilder::new(workloads::simple_widened(3.0))
            .sim_config(SimConfig::constant_etf(1.0).processor_speeds(gains.to_vec()))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
            .local()
            .expect("loop");
        let result = cl.run(250);
        metrics::window(&result.trace.utilization_series(0), 150, 250)
    };
    let calm = sim_stats(stable_gains);
    let wild = sim_stats(unstable_gains);
    assert!(
        metrics::acceptable(calm, 0.8284),
        "stable gain pair must be acceptable: mean {:.3}, σ {:.4}",
        calm.mean,
        calm.std_dev
    );
    // Divergence shows either as sustained oscillation or as saturation
    // pinned far above the set point.
    assert!(
        wild.std_dev > 0.10 || wild.mean > 0.95,
        "unstable gain pair must diverge: mean {:.3}, σ {:.4}",
        wild.mean,
        wild.std_dev
    );
}

#[test]
fn qos_portability_across_heterogeneous_tiers() {
    // MEDIUM on a cluster whose four tiers run at different speeds: the
    // same guarantees hold everywhere without retuning (§3.3 taken
    // further than the paper's homogeneous experiments).
    let speeds = vec![1.5, 0.8, 1.2, 0.6];
    let set = workloads::medium();
    let b = rms_set_points(&set);
    let mut cl = LoopBuilder::new(set)
        .sim_config(
            SimConfig::constant_etf(0.6)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .processor_speeds(speeds)
                .seed(3),
        )
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
        .local()
        .expect("loop");
    let result = cl.run(250);
    for p in 0..4 {
        let s = metrics::window(&result.trace.utilization_series(p), 150, 250);
        assert!(
            (s.mean - b[p]).abs() < 0.04,
            "tier {}: mean {:.3} vs set point {:.3}",
            p + 1,
            s.mean,
            b[p]
        );
    }
}
