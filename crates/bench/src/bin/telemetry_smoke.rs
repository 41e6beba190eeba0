//! Telemetry schema smoke check (run by CI): drives the MEDIUM closed
//! loop with a JSONL sink attached, then parses the stream back and
//! asserts it is non-empty and schema-stable — every row carries exactly
//! the registry's columns, in a fixed order, with `period`/`time` keys
//! first.
//!
//! ```text
//! cargo run --release -p eucon-bench --bin telemetry_smoke
//! ```

use eucon_control::MpcConfig;
use eucon_core::telemetry::JsonlSink;
use eucon_core::{ControllerSpec, LoopBuilder};
use eucon_sim::SimConfig;
use eucon_tasks::workloads;

const PERIODS: usize = 60;

/// Extracts the object keys of one flat JSONL row, in order.
fn keys(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let end = tail.find('"').expect("closing quote");
        // A key is a quoted string immediately followed by a colon.
        if tail[end + 1..].starts_with(':') {
            out.push(tail[..end].to_string());
        }
        rest = &tail[end + 1..];
    }
    out
}

fn main() {
    println!("== Telemetry schema smoke: MEDIUM, {PERIODS} periods, JSONL ==\n");
    let path = eucon_bench::results_dir().join("telemetry_medium.jsonl");
    let mut cl = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Eucon(MpcConfig::medium()))
        .local()
        .expect("loop builds");
    cl.telemetry_sink(JsonlSink::create(&path).expect("create jsonl sink"));
    let result = cl.run(PERIODS);
    assert_eq!(result.telemetry.counter("sink_errors"), Some(0));

    let text = std::fs::read_to_string(&path).expect("telemetry stream readable");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), PERIODS, "one JSONL row per sampling period");

    // Schema stability: every row has exactly the first row's keys, and
    // that schema is `period`, `time`, then the registry columns.
    let schema = keys(lines[0]);
    assert_eq!(&schema[..2], &["period".to_string(), "time".to_string()]);
    let columns = cl.telemetry().columns();
    assert_eq!(
        &schema[2..],
        columns,
        "JSONL keys match the registry's column order"
    );
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "row {i} is an object"
        );
        assert_eq!(keys(line), schema, "row {i} drifted from the schema");
    }

    // The stream carries the signals the observability layer promises.
    for required in [
        "qp_warm_hits",
        "qp_cold_retries",
        "qp_iterations",
        "mode_transitions",
        "engine_events",
        "tracking_error_count",
        "span_control_ns_count",
        "u_p1",
        "u_p4",
    ] {
        assert!(
            schema.iter().any(|k| k == required),
            "schema misses `{required}`"
        );
    }
    println!(
        "  {} rows x {} keys, schema stable",
        lines.len(),
        schema.len()
    );
    println!("  [verified {}]", path.display());
    println!("\ntelemetry smoke passed");
}
