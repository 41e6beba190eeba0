//! Integration tests of the decentralized controller (the paper's stated
//! future work) against the real simulator, mirroring the centralized
//! experiments.

use eucon::core::BoundaryMode;
use eucon::prelude::*;

/// The decentralized team: one local MPC per processor.
fn deucon(mpc: MpcConfig) -> ControllerSpec {
    ControllerSpec::Sharded {
        mpc,
        shard_size: 1,
        boundary: BoundaryMode::InProcess,
    }
}

#[test]
fn deucon_reproduces_fig3a_on_simple() {
    let mut cl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(deucon(MpcConfig::simple()))
        .local()
        .expect("loop");
    let result = cl.run(200);
    for p in 0..2 {
        let s = metrics::window(&result.trace.utilization_series(p), 150, 200);
        assert!(
            (s.mean - 0.8284).abs() < 0.03,
            "P{}: mean {:.3} under decentralized control",
            p + 1,
            s.mean
        );
    }
}

#[test]
fn deucon_handles_experiment_two_disturbance() {
    let result = VaryingRun::paper(
        workloads::medium(),
        deucon(MpcConfig::medium()),
        ExecModel::Uniform { half_width: 0.2 },
    )
    .run()
    .expect("run");
    for p in 0..4 {
        let b = result.set_points[p];
        for (lo, hi) in [(60, 100), (160, 200), (260, 300)] {
            let s = metrics::window(&result.trace.utilization_series(p), lo, hi);
            assert!(
                (s.mean - b).abs() < 0.04,
                "P{} window [{lo},{hi}): {:.3} vs {:.3}",
                p + 1,
                s.mean,
                b
            );
        }
    }
}

#[test]
fn deucon_matches_centralized_quality_on_medium() {
    let run = |spec: ControllerSpec| {
        let mut cl = LoopBuilder::new(workloads::medium())
            .sim_config(
                SimConfig::constant_etf(0.5)
                    .exec_model(ExecModel::Uniform { half_width: 0.2 })
                    .seed(5),
            )
            .controller(spec)
            .local()
            .expect("loop");
        let result = cl.run(300);
        let mut worst = 0.0f64;
        for p in 0..4 {
            let s = metrics::window(&result.trace.utilization_series(p), 100, 300);
            worst = worst.max((s.mean - result.set_points[p]).abs());
        }
        worst
    };
    let central = run(ControllerSpec::Eucon(MpcConfig::medium()));
    let team = run(deucon(MpcConfig::medium()));
    assert!(team < 0.03, "decentralized worst error {team:.4}");
    assert!(
        team < central + 0.02,
        "decentralization must cost little quality: team {team:.4} vs central {central:.4}"
    );
}

#[test]
fn deucon_scales_to_generated_clusters() {
    for (procs, tasks, seed) in [(6usize, 18usize, 1u64), (10, 30, 2)] {
        let set = workloads::RandomWorkload::new(procs, tasks)
            .seed(seed)
            .generate();
        let b = rms_set_points(&set);
        let mut cl = LoopBuilder::new(set)
            .sim_config(SimConfig::constant_etf(0.6).seed(seed))
            .controller(deucon(MpcConfig::medium()))
            .local()
            .expect("loop");
        let result = cl.run(150);
        for p in 0..procs {
            let s = metrics::window(&result.trace.utilization_series(p), 100, 150);
            assert!(
                (s.mean - b[p]).abs() < 0.05,
                "{procs}x{tasks} seed {seed}, P{}: {:.3} vs {:.3}",
                p + 1,
                s.mean,
                b[p]
            );
        }
    }
}
