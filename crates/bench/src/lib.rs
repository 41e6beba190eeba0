//! Shared helpers for the figure-regeneration binaries and benches.
//!
//! Every figure and table of the EUCON paper's evaluation section has a
//! binary in `src/bin/` that regenerates it:
//!
//! | Artifact | Binary | Command |
//! |----------|--------|---------|
//! | Tables 1–2 | `tables` | `cargo run -p eucon-bench --bin tables` |
//! | §6.2 stability example | `stability` | `cargo run -p eucon-bench --bin stability` |
//! | Figure 3(a)/(b) | `fig3` | `cargo run -p eucon-bench --bin fig3` |
//! | Figure 4 | `fig4` | `cargo run -p eucon-bench --bin fig4` |
//! | Figure 5 | `fig5` | `cargo run -p eucon-bench --bin fig5` |
//! | Figures 6–8 | `fig6_7_8` | `cargo run -p eucon-bench --bin fig6_7_8` |
//! | §6.3 tuning tradeoff | `tuning` | `cargo run -p eucon-bench --bin tuning` |
//! | Design ablations (extra) | `ablation` | `cargo run -p eucon-bench --bin ablation` |
//! | Scaling: centralized vs DEUCON (extra) | `scaling` | `cargo run -p eucon-bench --bin scaling` |
//!
//! Each binary prints human-readable tables to stdout and writes CSV files
//! under `results/` for plotting.  Criterion benchmarks (`cargo bench`)
//! cover controller solve times, QP scaling, simulator throughput and the
//! design ablations called out in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

/// Directory (relative to the workspace root) where figure CSVs land.
pub const RESULTS_DIR: &str = "results";

/// Resolves the results directory, creating it if needed.
///
/// Uses the workspace root (two levels above this crate's manifest) so
/// the binaries can be run from any working directory.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    let dir = root.join(RESULTS_DIR);
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes `contents` to `results/<name>` and reports the path on stdout.
///
/// # Panics
///
/// Panics on I/O errors (acceptable in a report generator).
pub fn write_result(name: &str, contents: &str) {
    let path = results_dir().join(name);
    fs::write(&path, contents).expect("write result file");
    println!("  [wrote {}]", path.display());
}

/// Renders a telemetry [`Snapshot`] as one flat JSON-Lines object with a
/// `run` label — the per-run telemetry format the figure and scaling
/// binaries append into `results/*.jsonl`.
///
/// Counters export as integers, gauges as numbers, histograms as
/// `_count`/`_sum`/`_max` triples (the same flattening the per-period
/// sinks use), so one schema serves both granularities.
///
/// [`Snapshot`]: eucon_core::telemetry::Snapshot
pub fn telemetry_jsonl_line(run: &str, snap: &eucon_core::telemetry::Snapshot) -> String {
    use eucon_core::telemetry::MetricValue;
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
    let mut line = format!(
        "{{\"run\":\"{}\"",
        run.replace('\\', "\\\\").replace('"', "\\\"")
    );
    for (name, value) in snap.entries() {
        match value {
            MetricValue::Counter(c) => line.push_str(&format!(",\"{name}\":{c}")),
            MetricValue::Gauge(g) => line.push_str(&format!(",\"{name}\":{}", num(*g))),
            MetricValue::Histogram(h) => line.push_str(&format!(
                ",\"{name}_count\":{},\"{name}_sum\":{},\"{name}_max\":{}",
                h.count,
                num(h.sum),
                num(h.max)
            )),
        }
    }
    line.push('}');
    line
}

/// Detected core count (`std::thread::available_parallelism`), `0` when
/// the platform cannot report it.  Recorded in benchmark CSV/JSON output
/// so thread-scaling results carry the hardware context they were
/// measured on — a single-core container reporting flat scaling is a
/// hardware property, not a regression, and the output must say so.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Prints a warning when a benchmark requests more worker threads than
/// the machine exposes (the requested counts then serialize and scaling
/// numbers flatten).  Returns `true` when oversubscribed.
pub fn warn_if_oversubscribed(requested: usize) -> bool {
    let cores = detected_cores();
    if cores > 0 && requested > cores {
        println!(
            "  [warning: {requested} threads requested on {cores} detected core(s) — \
             thread-scaling figures will flatten]"
        );
        true
    } else {
        false
    }
}

/// Standard etf grid of the paper's Figure 4 (SIMPLE sweep).
pub fn fig4_etfs() -> Vec<f64> {
    let mut v = vec![0.2, 0.5];
    let mut x = 1.0;
    while x <= 10.0 + 1e-9 {
        v.push(x);
        x += 0.5;
    }
    v
}

/// Standard etf grid of the paper's Figure 5 (MEDIUM sweep).
pub fn fig5_etfs() -> Vec<f64> {
    let mut v = vec![0.1, 0.2, 0.5];
    let mut x = 1.0;
    while x <= 6.0 + 1e-9 {
        v.push(x);
        x += 0.5;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
        assert!(dir.exists());
    }

    #[test]
    fn telemetry_lines_are_flat_json_objects() {
        use eucon_core::{ControllerSpec, LoopBuilder};
        use eucon_sim::SimConfig;
        use eucon_tasks::workloads;
        let mut cl = LoopBuilder::new(workloads::simple())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Open)
            .local()
            .unwrap();
        let result = cl.run(5);
        let line = telemetry_jsonl_line("smoke \"run\"", &result.telemetry);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"run\":\"smoke \\\"run\\\"\""));
        assert!(line.contains("\"periods\":5"));
        assert!(line.contains("\"tracking_error_count\":"));
        // Flat: no nested objects.
        assert_eq!(line.matches('{').count(), 1);
    }

    #[test]
    fn grids_cover_paper_ranges() {
        let f4 = fig4_etfs();
        assert_eq!(*f4.first().unwrap(), 0.2);
        assert_eq!(*f4.last().unwrap(), 10.0);
        let f5 = fig5_etfs();
        assert_eq!(*f5.first().unwrap(), 0.1);
        assert_eq!(*f5.last().unwrap(), 6.0);
    }
}
