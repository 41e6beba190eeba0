//! Distributed-mode acceptance over real loopback-TCP lanes.
//!
//! The paper's architecture (§4) runs the controller and the processors
//! as separate nodes joined by per-processor TCP feedback lanes.  These
//! tests run that topology for real — controller endpoint and processor
//! endpoints exchanging versioned binary frames over `127.0.0.1` — and
//! pin the three properties that make it trustworthy:
//!
//! * **smoke** — over ideal TCP lanes every frame arrives, decodes, and
//!   the loop finishes with zero controller errors (seed selectable via
//!   `EUCON_TCP_SEED` so CI can run a seed matrix);
//! * **acceptance** — with 20% report loss on every lane, the MEDIUM
//!   workload still converges to within ±0.03 of every processor's RMS
//!   set point by period 150, with zero controller errors;
//! * **window independence** — a period waits for the frames written to
//!   a socket, never for frames the lane model dropped or is holding, so
//!   neither the trace nor the run time depends on the receive window.

use std::time::Duration;

use eucon::prelude::*;

/// Generous per-period receive window: loopback frames land in
/// microseconds and a modelled loss is never waited for, so this costs
/// nothing — it only keeps delivery deterministic on loaded CI machines.
const RECV_WINDOW: Duration = Duration::from_millis(50);

fn tcp_seed() -> u64 {
    std::env::var("EUCON_TCP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

#[test]
fn tcp_smoke_every_frame_arrives_and_decodes() {
    let seed = tcp_seed();
    let mut dl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(0.5).seed(seed))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .distributed(NetConfig::tcp().recv_timeout(RECV_WINDOW))
        .expect("distributed loop over TCP");
    let periods = 60;
    let result = dl.run(periods);
    let stats = dl.transport_stats();
    assert_eq!(result.control_errors, 0, "seed {seed}");
    assert_eq!(stats.decode_errors, 0, "seed {seed}");
    assert_eq!(
        stats.dropped, 0,
        "ideal TCP lanes drop nothing (seed {seed})"
    );
    // Reports up + commands down, per processor, per period — all arrive.
    let expected = 2 * (workloads::simple().num_processors() * periods) as u64;
    assert_eq!(stats.sent, expected, "seed {seed}");
    assert_eq!(stats.received, expected, "seed {seed}");
    assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
}

#[test]
fn medium_over_lossy_tcp_converges_to_every_set_point() {
    let set = workloads::medium();
    let points = rms_set_points(&set);
    let mut dl = LoopBuilder::new(set)
        .sim_config(
            SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1),
        )
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
        .distributed(
            NetConfig::tcp()
                .report_lanes(LaneModel::lossy(0.2, 21))
                .recv_timeout(RECV_WINDOW),
        )
        .expect("distributed loop over lossy TCP");
    let result = dl.run(200);
    assert_eq!(
        result.control_errors, 0,
        "20% report loss must never error the controller"
    );
    let stats = dl.transport_stats();
    assert_eq!(stats.decode_errors, 0);
    assert!(
        stats.dropped > 0,
        "a 20% lossy lane over 200 periods drops something"
    );
    for (p, &b) in points.iter().enumerate() {
        let s = metrics::window(&result.trace.utilization_series(p), 150, 200);
        assert!(
            (s.mean - b).abs() < 0.03,
            "processor {p}: mean {:.3} vs set point {b:.3} under 20% report loss",
            s.mean
        );
    }
}

#[test]
fn trace_and_run_time_do_not_depend_on_the_receive_window() {
    let run = |window: Duration| {
        let started = std::time::Instant::now();
        let mut dl = LoopBuilder::new(workloads::medium())
            .sim_config(
                SimConfig::constant_etf(1.0)
                    .exec_model(ExecModel::Uniform { half_width: 0.2 })
                    .seed(1),
            )
            .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            .distributed(
                NetConfig::tcp()
                    .report_lanes(LaneModel::lossy(0.2, 21))
                    .command_lanes(LaneModel::delayed(1))
                    .recv_timeout(window),
            )
            .expect("distributed loop over lossy TCP");
        let result = dl.run(200);
        assert_eq!(result.control_errors, 0);
        assert!(dl.transport_stats().dropped > 0, "the lanes must be lossy");
        (result.trace, started.elapsed())
    };
    let (short, _) = run(Duration::from_millis(2));
    let (long, wall) = run(Duration::from_millis(200));
    assert_eq!(short, long, "the trace moved with the receive window");
    // Every period holds a lost report or a delayed command: waiting
    // those out would cost 2 × 200 ms × 200 periods.
    assert!(
        wall < Duration::from_secs(2),
        "200 periods took {wall:?} at a 200 ms window"
    );
}
