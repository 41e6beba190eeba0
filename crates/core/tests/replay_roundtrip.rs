//! Record → replay round trip for the [`ReplayTrace`] plant backend.
//!
//! A simulator-backed loop records its telemetry to JSONL (the PR-4
//! schema); a second loop replays that file through
//! `LoopBuilder::plant(trace)`.  Because the controller is a pure
//! function of the utilization sequence, and the replay plant clamps
//! rate commands exactly like the simulator's modulators, the replayed
//! run must reproduce the recorded utilization *and* rate sequences
//! down to the f64 bit pattern — across workloads and seeds.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use eucon_core::{LoopBuilder, ReplayTrace};
use eucon_tasks::workloads::{self, RandomWorkload};
use eucon_tasks::TaskSet;
use eucon_telemetry::JsonlSink;

/// A scratch JSONL path unique to this test process and tag.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eucon-replay-{}-{tag}.jsonl", std::process::id()))
}

/// Runs a simulator-backed loop for `periods`, recording telemetry to
/// `path`, and returns its per-period (utilization, rates) sequences.
fn record(set: TaskSet, periods: usize, path: &PathBuf) -> Vec<(Vec<u64>, Vec<u64>)> {
    let sink = JsonlSink::create(path).expect("scratch file is creatable");
    let mut cl = LoopBuilder::new(set)
        .record_trace(true)
        .local()
        .expect("recording loop builds");
    cl.telemetry_sink(sink);
    let result = cl.run(periods);
    bit_sequences(&result.trace)
}

/// Replays `path` against the same task set and returns the same
/// per-period bit sequences.
fn replay(set: TaskSet, periods: usize, path: &PathBuf) -> Vec<(Vec<u64>, Vec<u64>)> {
    let trace = ReplayTrace::load(path).expect("recorded telemetry parses");
    assert_eq!(trace.len(), periods, "one telemetry row per period");
    let mut cl = LoopBuilder::new(set)
        .record_trace(true)
        .plant(trace)
        .local()
        .expect("replay loop builds");
    let result = cl.run(periods);
    bit_sequences(&result.trace)
}

/// Collapses a trace to f64 bit patterns so comparisons are exact
/// (NaN-safe, no epsilon).
fn bit_sequences(trace: &eucon_core::Trace) -> Vec<(Vec<u64>, Vec<u64>)> {
    trace
        .steps()
        .iter()
        .map(|s| {
            (
                s.utilization
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                s.rates.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

fn assert_roundtrip(set: TaskSet, periods: usize, tag: &str) {
    let path = scratch(tag);
    let recorded = record(set.clone(), periods, &path);
    let replayed = replay(set, periods, &path);
    let _ = fs::remove_file(&path);
    assert_eq!(recorded.len(), replayed.len(), "{tag}: same period count");
    for (k, (rec, rep)) in recorded.iter().zip(&replayed).enumerate() {
        assert_eq!(
            rec.0, rep.0,
            "{tag}: utilization bits diverge at period {k}"
        );
        assert_eq!(rec.1, rep.1, "{tag}: rate bits diverge at period {k}");
    }
}

#[test]
fn simple_workload_replays_bit_identically() {
    assert_roundtrip(workloads::simple(), 60, "simple");
}

#[test]
fn medium_workload_replays_bit_identically() {
    assert_roundtrip(workloads::medium(), 40, "medium");
}

#[test]
fn random_workloads_replay_bit_identically_across_seeds() {
    for seed in [7u64, 42, 1999] {
        let set = RandomWorkload::new(4, 12).seed(seed).generate();
        assert_roundtrip(set, 30, &format!("seed{seed}"));
    }
}

proptest! {
    /// Property form: any feasible random workload/seed/length replays
    /// bit-identically.
    #[test]
    fn replay_roundtrip_is_bit_identical(
        seed in 0u64..10_000,
        periods in 5usize..25,
    ) {
        let set = RandomWorkload::new(3, 6).seed(seed).generate();
        let path = scratch(&format!("prop{seed}-{periods}"));
        let recorded = record(set.clone(), periods, &path);
        let replayed = replay(set, periods, &path);
        let _ = fs::remove_file(&path);
        prop_assert_eq!(recorded, replayed);
    }
}

/// A recording chopped off mid-line (a crashed writer) surfaces as a
/// typed decode error naming the bad line — not a panic, not a generic
/// parse failure.
#[test]
fn truncated_recording_yields_typed_decode_error() {
    let path = scratch("truncated");
    record(workloads::simple(), 10, &path);
    let mut text = fs::read_to_string(&path).expect("recording readable");
    let _ = fs::remove_file(&path);
    // Chop the last line in half, mid-object.
    let cut = text.rfind("\"u_p1\"").expect("rows carry u_p1");
    text.truncate(cut + 4);
    let err = ReplayTrace::parse(&text).expect_err("truncated line must not parse");
    assert_eq!(err.line, 10, "error names the truncated line");
    assert_eq!(err.schema, eucon_core::REPLAY_SCHEMA_VERSION);
}

/// A corrupted cell (bitrot, hand editing) names the column and line.
#[test]
fn corrupt_value_yields_typed_decode_error() {
    let path = scratch("corrupt");
    record(workloads::simple(), 5, &path);
    let text = fs::read_to_string(&path).expect("recording readable");
    let _ = fs::remove_file(&path);
    let corrupted = text.replacen("\"u_p2\":0", "\"u_p2\":bogus-", 1);
    assert_ne!(text, corrupted, "fixture assumed a u_p2 value starting 0.x");
    let err = ReplayTrace::parse(&corrupted).expect_err("corrupt cell must not parse");
    assert!(
        err.reason.contains("u_p2"),
        "error names the corrupt column: {err}"
    );
}
