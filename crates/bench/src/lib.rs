//! The paper's evaluation as one report, plus shared helpers for the
//! benchmark binaries.
//!
//! [`reproduce()`] regenerates every figure and table of the EUCON paper's
//! evaluation section, and the design ablations, in one run:
//!
//! | Artifact | Section of the report | Files under `results/` |
//! |----------|-----------------------|------------------------|
//! | Tables 1–2, MEDIUM summary | `== Table 1` … | `table1_simple.csv`, `table_medium.csv` |
//! | §6.2 stability example | `== S1` | `stability_*.csv` |
//! | Figure 3(a)/(b) | `== Figure 3` | `fig3*.{csv,svg}` |
//! | Figure 4 | `== Figure 4` | `fig4_*.{csv,svg}` |
//! | Figure 5 | `== Figure 5` | `fig5_medium.{csv,svg}` |
//! | Figures 6–8 | `== Figure 6` … `== Figure 8` | `fig6_*`, `fig7_*`, `fig8_*`, `fig6_7_telemetry.jsonl` |
//! | §6.3 tuning tradeoff | `== §6.3 tuning` | `tuning_tref.csv` |
//! | Design ablations (extra) | `== Ablation` … | `ablation_*.csv`, `shard_ablation.csv` |
//!
//! `cargo run --release -p eucon-bench --bin reproduce` prints the report,
//! writes it to `results/reproduce.txt` and writes the files beside it;
//! the `reproduce` test fails when any of them, or a `reproduce` block of
//! EXPERIMENTS.md, drifts from what the code produces.  The other binaries
//! in `src/bin/` are gates with arguments (`scaling`, `chaos`, the soaks
//! and smokes).  Criterion benchmarks (`cargo bench`) cover controller
//! solve times, QP scaling, simulator throughput and the design ablations
//! called out in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

mod reproduce;

pub use reproduce::{reproduce, Reproduction};

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

/// Writes `contents` to `results/<name>` and reports it on stdout as
/// `[wrote results/<name>]`, a path relative to the workspace root.
///
/// # Panics
///
/// Panics on I/O errors (acceptable in a report generator).
pub fn write_result(name: &str, contents: &str) {
    fs::write(results_dir().join(name), contents).expect("write result file");
    println!("{}", wrote(name));
}

/// The line that reports a file written under `results/`.
fn wrote(name: &str) -> String {
    format!("  [wrote {RESULTS_DIR}/{name}]")
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
}
