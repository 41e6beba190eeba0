//! The metric tables: names, units, directions and regression bounds.
//!
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`perf manifest`) and a test keeps the two equal, so the
//! driver, the `aa` self-check and the README glossary read one source.

use crate::e2e::EndToEnd;
use crate::workloads::ALL;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of the loop sees.  Every one is defined, and never zero,
/// on every workload (the contract `BENCHMARK.json` is written to);
/// failures travel in the result's `attempted` / `failed` counts, and the
/// ratios that are zero on a healthy loop are reported as their
/// complements.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("period_p50_us", "us", "lower", 0.10),
    e2e("period_p99_us", "us", "lower", 0.25),
    e2e("periods_per_s", "1/s", "higher", 0.10),
    e2e("track_accuracy", "ratio", "higher", 0.02),
    e2e("deadline_met_ratio", "ratio", "higher", 0.001),
    e2e("rss_peak_mb", "MiB", "lower", 0.10),
];

pub fn end_to_end_values(r: &EndToEnd) -> [f64; 7] {
    let s = r.folded.steps.summary();
    [
        r.folded.best_setup_s(),
        s.p50_us,
        s.p99_us,
        r.periods_per_s(&s),
        1.0 - r.track_err_tail,
        1.0 - r.miss_ratio,
        r.rss_peak_mb,
    ]
}

/// The ledger of a traced run, in the order `layers::run` fills it.
/// Loop rows come first (measured on the workload's own plant and
/// controller), then what the workload's mode adds, then the fixed-size
/// rows that read the same in every traced run.
pub const PER_LAYER: [Metric; 67] = [
    layer("sim.advance_us", "us", "lower"),
    layer("sim.advance_p99_us", "us", "lower"),
    layer("sim.sample_us", "us", "lower"),
    layer("sim.apply_rates_us", "us", "lower"),
    layer("sim.events_per_period", "count", "lower"),
    layer("sim.ns_per_event", "ns", "lower"),
    layer("sim.queue_peak", "count", "lower"),
    layer("sim.stale_wakeups", "count", "lower"),
    layer("control.update_us", "us", "lower"),
    layer("control.update_p99_us", "us", "lower"),
    layer("control.update_max_us", "us", "lower"),
    layer("control.build_ms", "ms", "lower"),
    layer("qp.iters_p50", "count", "lower"),
    layer("qp.iters_max", "count", "lower"),
    layer("qp.warm_hit_ratio", "ratio", "higher"),
    layer("qp.cold_retry_ratio", "ratio", "lower"),
    layer("core.step_us", "us", "lower"),
    layer("core.step_p99_us", "us", "lower"),
    layer("core.step_p99_raw_us", "us", "lower"),
    layer("core.step_max_us", "us", "lower"),
    layer("core.loop_overhead_us", "us", "lower"),
    layer("core.layer_sum_ratio", "ratio", "higher"),
    layer("core.tracing_overhead_pct", "%", "lower"),
    layer("core.span_simulate_us", "us", "lower"),
    layer("core.span_sample_us", "us", "lower"),
    layer("core.span_control_us", "us", "lower"),
    layer("core.span_actuate_us", "us", "lower"),
    layer("core.track_err_tail", "ratio", "lower"),
    layer("core.miss_ratio", "ratio", "lower"),
    layer("core.allocs_per_period", "count", "lower"),
    layer("core.net_overhead_us", "us", "lower"),
    layer("core.recv_wait_share", "ratio", "lower"),
    layer("net.frames_per_period", "count", "lower"),
    layer("net.bytes_per_period", "bytes", "lower"),
    layer("net.decode_errors", "count", "lower"),
    layer("net.stale_ratio", "ratio", "lower"),
    layer("sim.direct_advance_medium_us", "us", "lower"),
    layer("core.dyn_plant_overhead_ns", "ns", "lower"),
    layer("control.mpc_step_simple_us", "us", "lower"),
    layer("control.mpc_step_medium_us", "us", "lower"),
    layer("control.mpc_step_sat_p50_us", "us", "lower"),
    layer("control.mpc_step_sat_max_us", "us", "lower"),
    layer("control.mpc_step_sat_iters_max", "count", "lower"),
    layer("control.shard_build_256p_ms", "ms", "lower"),
    layer("control.shard_step_256p_us", "us", "lower"),
    layer("qp.solve_cold_us", "us", "lower"),
    layer("qp.solve_warm_us", "us", "lower"),
    layer("qp.solve_memo_us", "us", "lower"),
    layer("math.cholesky_dense_us", "us", "lower"),
    layer("math.cholesky_banded_us", "us", "lower"),
    layer("math.lu_factor_us", "us", "lower"),
    layer("net.frame_encode_ns", "ns", "lower"),
    layer("net.frame_decode_ns", "ns", "lower"),
    layer("net.fabric_roundtrip_4l_us", "us", "lower"),
    layer("net.fabric_sweep_1000l_us", "us", "lower"),
    layer("net.frames_per_s_1000l", "1/s", "higher"),
    layer("core.period_channel_us", "us", "lower"),
    layer("core.period_tcp_pair_us", "us", "lower"),
    layer("core.period_tcp_poll_us", "us", "lower"),
    layer("core.service_step_per_tenant_us", "us", "lower"),
    layer("core.service_overhead_us", "us", "lower"),
    layer("core.fleet_periods_per_s_1t", "1/s", "higher"),
    layer("core.fleet_scaling", "ratio", "higher"),
    layer("tasks.random_workload_128p_ms", "ms", "lower"),
    layer("tasks.shard_plan_128p_ms", "ms", "lower"),
    layer("core.cores", "count", "higher"),
    layer("core.threads", "count", "higher"),
];

/// Seconds one driver run measures.  `shard_64p` and `central_20p_over`
/// need the twenty rounds this holds: at 10 s (ten rounds) their
/// ten-seed spreads were 5 % (p50) and 11-25 % (p99), at 20 s 1.4 % and
/// 3 %.  Six workloads leave room for no more inside the driver's limit.
pub const RUN_SECONDS: u64 = 20;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
          \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"perf\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let list = |rows: Vec<String>| rows.join(",\n");
    s += "  \"workloads\": [\n";
    s += &list(
        ALL.iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    s += "\n";
    s += "  ]\n}\n";
    s
}

/// The last line of a driver run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'a Metric, f64)>,
) -> String {
    let body: Vec<String> = metrics
        .into_iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with all the digits `f64` carries (JSON has no NaN or
/// infinity: those print as 0, and the run that produced them is already
/// marked incorrect).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Reads one metric's value back out of a [`result_line`].
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(m.name, "_.-", 64), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(ok(m.unit, "_/%.-", 16), "{}: unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name), "{} appears twice", m.name);
        }
        for w in ALL {
            assert!(ok(w.name, "_.-", 64));
            assert!(w.why.len() <= 200 && !w.why.contains(['"', '\n']));
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= END_TO_END[0].bound));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&ALL.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(committed, manifest(), "regenerate with `perf manifest`");
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_round_trips_every_digit() {
        let line = result_line(
            true,
            1000,
            0,
            [(&END_TO_END[1], 55.236_417_3), (&END_TO_END[0], 0.011_92)],
        );
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert_eq!(value_in(&line, "period_p50_us"), Some(55.236_417_3));
        assert_eq!(value_in(&line, "setup_s"), Some(0.011_92));
        assert_eq!(value_in(&line, "missing"), None);
        assert_eq!(number(f64::NAN), "0");
    }
}
