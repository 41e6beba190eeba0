//! The committed `results/` and EXPERIMENTS.md's `reproduce` blocks are
//! what [`eucon_bench::reproduce`] produces, so neither can drift from the
//! code.  The test writes nothing; after a change that moves a figure,
//! regenerate with `cargo run --release -p eucon-bench --bin reproduce`
//! and copy the changed lines into EXPERIMENTS.md.

use std::collections::HashSet;
use std::sync::OnceLock;

use eucon_bench::Reproduction;

/// One report for every test of this binary (a debug run takes seconds).
fn report() -> &'static Reproduction {
    static REPORT: OnceLock<Reproduction> = OnceLock::new();
    REPORT.get_or_init(eucon_bench::reproduce)
}

fn committed(relative: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + relative;
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The eight wall-clock fields of `fig6_7_telemetry.jsonl`, the sum and
/// max of each phase span of a local period: they must be present but
/// may differ between runs.
fn wall_clock(key: &str) -> bool {
    let span = key.strip_prefix("span_");
    let phase = span.and_then(|k| {
        k.strip_suffix("_ns_sum")
            .or_else(|| k.strip_suffix("_ns_max"))
    });
    matches!(phase, Some("simulate" | "sample" | "control" | "actuate"))
}

/// The `key:value` fields of a flat JSON line, in order, with the eight
/// wall-clock values blanked out.
fn deterministic_fields(line: &str) -> Vec<(&str, &str)> {
    let fields: Vec<(&str, &str)> = line
        .trim_matches(|c| c == '{' || c == '}')
        .split(",\"")
        .map(|field| field.split_once(':').expect("a key:value field"))
        .map(|(key, value)| (key.trim_matches('"'), value))
        .map(|(key, value)| (key, if wall_clock(key) { "" } else { value }))
        .collect();
    assert_eq!(fields.iter().filter(|(k, _)| wall_clock(k)).count(), 8);
    fields
}

#[test]
fn committed_results_are_the_report_byte_for_byte() {
    let report = report();
    assert_eq!(report.files.len(), 25, "the report's data files");
    let text = ("reproduce.txt".to_string(), report.text.clone());
    let mut drifted = Vec::new();
    for (name, fresh) in report.files.iter().chain([&text]) {
        let old = committed(&format!("results/{name}"));
        let (fresh_lines, old_lines): (Vec<&str>, Vec<&str>) =
            (fresh.lines().collect(), old.lines().collect());
        let same = if name == "fig6_7_telemetry.jsonl" {
            fresh_lines.len() == old_lines.len()
                && (fresh_lines.iter().zip(&old_lines))
                    .all(|(a, b)| deterministic_fields(a) == deterministic_fields(b))
        } else {
            *fresh == old
        };
        if !same {
            let k = (0..fresh_lines.len().max(old_lines.len()))
                .find(|&k| fresh_lines.get(k) != old_lines.get(k))
                .unwrap_or(0);
            drifted.push(format!(
                "results/{name}:{}: now {:?}, committed {:?}",
                k + 1,
                fresh_lines.get(k),
                old_lines.get(k)
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "results/ drifted from eucon_bench::reproduce(); regenerate it with \
         `cargo run --release -p eucon-bench --bin reproduce`:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn experiments_md_reproduce_blocks_are_lines_of_the_report() {
    let report: HashSet<&str> = report().text.lines().map(str::trim_end).collect();
    let md = committed("EXPERIMENTS.md");
    let (mut blocks, mut inside, mut missing) = (0, false, Vec::new());
    for (k, line) in md.lines().enumerate() {
        match line.trim_end() {
            "```reproduce" => (blocks, inside) = (blocks + 1, true),
            "```" if inside => inside = false,
            line if inside && !report.contains(line) => {
                missing.push(format!("EXPERIMENTS.md:{}: {line}", k + 1));
            }
            _ => {}
        }
    }
    assert!(
        blocks >= 5 && !inside,
        "{blocks} reproduce blocks, last one open: {inside}"
    );
    assert!(
        missing.is_empty(),
        "lines of EXPERIMENTS.md's reproduce blocks that the report does not print \
         (`cargo run --release -p eucon-bench --bin reproduce`):\n{}",
        missing.join("\n")
    );
}
