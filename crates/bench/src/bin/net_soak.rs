//! Transport soak: thousands of closed-loop periods over every lane
//! configuration, with a hard zero-decode-error gate.
//!
//! Runs the distributed loop (controller node + per-processor nodes
//! exchanging binary frames) for `--periods` sampling periods (default
//! 2000) over ideal in-memory lanes (the bit-exact reference lane),
//! ideal loopback TCP, and TCP with 10% report loss plus one period of
//! command delay; then a `--lanes`-wide (default 1000) raw
//! [`LaneFabric`] sweep soak with a resident-set gate (post-warm-up RSS
//! may at most double, plus 32 MiB of slack).
//!
//! Every configuration must finish with **zero frame-decode errors** and
//! zero controller errors — a single corrupted or torn frame fails the
//! run — and the lossy/delayed soak within 3× the wall time of its ideal
//! twin: a period waits for frames in flight, never for frames the lane
//! model dropped or is holding.  Stats land in `results/net_soak.csv`,
//! which records the core count alongside the counters.
//!
//! ```text
//! cargo run --release -p eucon-bench --bin net_soak -- --periods 2000
//! ```

use std::time::{Duration, Instant};

use eucon_control::MpcConfig;
use eucon_core::{render, ControllerSpec, LaneModel, LoopBuilder, NetConfig};
use eucon_net::{tcp_lane_fabric, FrameKind, LaneFabric, TcpConfig};
use eucon_sim::SimConfig;
use eucon_tasks::workloads;

struct Args {
    periods: usize,
    lanes: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        periods: 2000,
        lanes: 1000,
        seed: 3,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("{arg} takes a value"));
        match arg.as_str() {
            "--periods" => parsed.periods = value().parse().expect("--periods takes an integer"),
            "--lanes" => parsed.lanes = value().parse().expect("--lanes takes an integer"),
            "--seed" => parsed.seed = value().parse().expect("--seed takes an integer"),
            other => {
                panic!("unknown argument '{other}' (supported: --periods N, --lanes N, --seed S)")
            }
        }
    }
    parsed
}

struct Soak {
    name: &'static str,
    /// Carries modelled loss/delay; timed against the ideal TCP soak
    /// that ran before it.
    lossy: bool,
    net: NetConfig,
}

/// Receive window for the TCP soaks: long enough that delivery is
/// deterministic on loaded machines.  Modelled losses and delays are
/// never waited for, so its length does not show in the lossy soak.
const RECV_WINDOW: Duration = Duration::from_millis(5);

fn soaks() -> Vec<Soak> {
    let tcp = NetConfig::tcp().recv_timeout(RECV_WINDOW);
    vec![
        Soak {
            name: "channel ideal",
            lossy: false,
            net: NetConfig::channel(),
        },
        Soak {
            name: "tcp ideal",
            lossy: false,
            net: tcp.clone(),
        },
        Soak {
            name: "tcp 10% report loss + cmd delay 1",
            lossy: true,
            net: tcp
                .report_lanes(LaneModel::lossy(0.1, 77))
                .command_lanes(LaneModel::delayed(1)),
        },
    ]
}

/// Resident-set size in bytes, if the platform exposes
/// `/proc/self/statm` (Linux).  `None` elsewhere — the RSS gate is then
/// skipped.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// The many-lane sweep soak: `lanes` real loopback-TCP lanes on one
/// [`LaneFabric`], every lane carrying one report up and one command
/// down per period, with the RSS gate armed after a warm-up.
fn fabric_soak(lanes: usize, periods: usize, seed: u64) -> Vec<String> {
    println!("  [fabric {lanes} lanes] connecting ...");
    let mut fabric: LaneFabric =
        tcp_lane_fabric(&TcpConfig::default(), lanes).expect("lane fabric connects");
    let started = Instant::now();
    let mut delivered_up = 0u64;
    let mut delivered_down = 0u64;
    let mut rss_baseline: Option<u64> = None;
    let warmup = (periods / 10).clamp(1, 100);
    for k in 0..periods {
        let period = k as u64;
        for lane in 0..lanes {
            let u = 0.5 + 0.25 * ((lane as u64 ^ seed) as f64 / u64::MAX as f64);
            fabric
                .proc
                .send(
                    lane,
                    FrameKind::UtilizationReport,
                    period,
                    period,
                    0,
                    std::iter::once(u),
                )
                .expect("report send");
            fabric
                .ctrl
                .send(
                    lane,
                    FrameKind::RateCommand,
                    period,
                    period,
                    0,
                    [1.0, 2.0].into_iter(),
                )
                .expect("command send");
        }
        for lane in 0..lanes {
            delivered_up += fabric
                .ctrl
                .drain(lane, |view| {
                    assert_eq!(view.kind(), FrameKind::UtilizationReport);
                    assert_eq!(view.len(), 1);
                })
                .expect("report drain") as u64;
            delivered_down += fabric
                .proc
                .drain(lane, |view| {
                    assert_eq!(view.kind(), FrameKind::RateCommand);
                    assert_eq!(view.len(), 2);
                })
                .expect("command drain") as u64;
        }
        if k + 1 == warmup {
            rss_baseline = rss_bytes();
        }
    }
    // Settle: loopback TCP loses nothing, so sweep until every frame
    // sent has been drained (bounded by a generous deadline).
    let expected = (lanes * periods) as u64;
    let settle_deadline = Instant::now() + Duration::from_secs(10);
    while (delivered_up < expected || delivered_down < expected) && Instant::now() < settle_deadline
    {
        for lane in 0..lanes {
            delivered_up += fabric.ctrl.drain(lane, |_| {}).expect("report drain") as u64;
            delivered_down += fabric.proc.drain(lane, |_| {}).expect("command drain") as u64;
        }
    }
    let elapsed = started.elapsed();
    let stats = fabric.ctrl.stats().merge(&fabric.proc.stats());
    assert_eq!(stats.decode_errors, 0, "fabric soak: frame decode errors");
    assert_eq!(stats.sent, 2 * expected, "every send must succeed");
    assert_eq!(
        (delivered_up, delivered_down),
        (expected, expected),
        "fabric soak lost frames"
    );
    if let (Some(baseline), Some(now)) = (rss_baseline, rss_bytes()) {
        let limit = 2 * baseline + 32 * 1024 * 1024;
        assert!(
            now <= limit,
            "fabric soak RSS grew past the gate: {now} > {limit} (baseline {baseline})"
        );
        println!(
            "  [fabric {lanes} lanes] RSS {:.1} MiB (baseline {:.1} MiB) within gate",
            now as f64 / (1024.0 * 1024.0),
            baseline as f64 / (1024.0 * 1024.0)
        );
    }
    println!(
        "  [fabric {lanes} lanes] ok: {} frames sent, {} delivered, 0 decode errors ({:.2}s)",
        stats.sent,
        delivered_up + delivered_down,
        elapsed.as_secs_f64()
    );
    vec![
        format!("fabric {lanes} lanes"),
        stats.sent.to_string(),
        (delivered_up + delivered_down).to_string(),
        stats.dropped.to_string(),
        stats.reconnects.to_string(),
        "0".to_string(),
        stats.bytes_sent.to_string(),
        format!("{:.2}", elapsed.as_secs_f64()),
    ]
}

fn main() {
    let args = parse_args();
    let periods = args.periods;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== Transport soak: SIMPLE, etf = 0.5, {periods} periods per configuration ==\n");
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut ideal_elapsed = Duration::ZERO;
    for soak in soaks() {
        let mut dl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5).seed(args.seed))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
            .distributed(soak.net)
            .expect("loop builds");
        let started = Instant::now();
        let result = dl.run(periods);
        let elapsed = started.elapsed();
        let stats = dl.transport_stats();
        let stale = result.telemetry.counter("stale_report_reuse").unwrap_or(0);

        // The gate: a soak is only green if every frame that arrived
        // decoded, and the controller never errored.
        assert_eq!(
            stats.decode_errors, 0,
            "'{}': frame decode errors after {periods} periods",
            soak.name
        );
        assert_eq!(
            result.control_errors, 0,
            "'{}': controller errors after {periods} periods",
            soak.name
        );
        assert!(
            stats.received > 0,
            "'{}': no frames arrived — the lanes are dead",
            soak.name
        );
        if soak.lossy {
            // The slack absorbs one scheduler hiccup on a soak of a few
            // tens of milliseconds; waiting the window out on every
            // modelled loss would cost seconds.
            assert!(
                elapsed <= 3 * ideal_elapsed + Duration::from_millis(250),
                "'{}' took {elapsed:?}, over 3x the ideal soak's {ideal_elapsed:?}: \
                 periods are waiting on frames the lane model holds",
                soak.name
            );
        } else {
            ideal_elapsed = elapsed;
        }

        rows.push(vec![
            soak.name.to_string(),
            stats.sent.to_string(),
            stats.received.to_string(),
            stats.dropped.to_string(),
            stats.reconnects.to_string(),
            stale.to_string(),
            stats.bytes_sent.to_string(),
            format!("{:.2}", elapsed.as_secs_f64()),
        ]);
        println!(
            "  [{}] ok: {} frames sent, {} received, {} dropped, 0 decode errors ({:.2}s)",
            soak.name,
            stats.sent,
            stats.received,
            stats.dropped,
            elapsed.as_secs_f64()
        );
    }
    rows.push(fabric_soak(args.lanes, periods, args.seed));
    for row in &mut rows {
        row.push(cores.to_string());
    }
    let headers = [
        "backend",
        "sent",
        "received",
        "dropped",
        "reconnects",
        "stale reuse",
        "bytes sent",
        "secs",
        "cores",
    ];
    println!("\n{}", render::table(&headers, &rows));
    eucon_bench::write_result(
        "net_soak.csv",
        &render::csv(
            &[
                "backend",
                "frames_sent",
                "frames_received",
                "frames_dropped",
                "reconnects",
                "stale_reuse",
                "bytes_sent",
                "seconds",
                "cores",
            ],
            &rows,
        ),
    );
    println!("all soak gates held: zero decode errors, zero controller errors");
}
