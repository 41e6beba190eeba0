//! Pluggable per-period telemetry exporters.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A consumer of per-period telemetry rows.
///
/// The producer (e.g. the closed loop) calls [`TelemetrySink::begin`]
/// once with the column schema, then [`TelemetrySink::record`] after
/// every sampling period with values matching that schema, and finally
/// [`TelemetrySink::finish`].  Sinks are deliberately push-based and
/// synchronous: the loop stays in control of when I/O happens, and a
/// sink that buffers (all of the ones here do) keeps the per-period cost
/// to a formatted write into memory.
pub trait TelemetrySink {
    /// Receives the ordered column names before the first record.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from writing the header.
    fn begin(&mut self, columns: &[String]) -> io::Result<()>;

    /// Receives one period's values (same order and length as the
    /// columns passed to [`TelemetrySink::begin`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn record(&mut self, period: u64, time: f64, values: &[f64]) -> io::Result<()>;

    /// Flushes and closes the sink (last call).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the final flush.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A bounded in-memory sink keeping the most recent `capacity` records.
///
/// Slots are preallocated and reused, so steady-state recording does not
/// allocate once the ring has filled.
///
/// # Example
///
/// ```
/// use eucon_telemetry::{RingBufferSink, TelemetrySink};
///
/// let mut ring = RingBufferSink::new(2);
/// ring.begin(&["a".into()]).unwrap();
/// for k in 0..5 {
///     ring.record(k, k as f64, &[k as f64]).unwrap();
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.latest().unwrap().period, 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RingBufferSink {
    capacity: usize,
    columns: Vec<String>,
    records: VecDeque<RingRecord>,
    /// Retired slots awaiting reuse (their value buffers keep their
    /// capacity, so recycling them is allocation-free).
    free: Vec<RingRecord>,
}

/// One record held by a [`RingBufferSink`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RingRecord {
    /// Sampling period index.
    pub period: u64,
    /// Simulation time at the end of the period.
    pub time: f64,
    /// Values in schema order.
    pub values: Vec<f64>,
}

impl RingBufferSink {
    /// Creates a ring holding the latest `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink {
            capacity,
            columns: Vec::new(),
            records: VecDeque::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// The schema received at [`TelemetrySink::begin`].
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Records currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RingRecord> {
        self.records.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The most recent record.
    pub fn latest(&self) -> Option<&RingRecord> {
        self.records.back()
    }

    /// The value of `column` in the most recent record.
    pub fn latest_value(&self, column: &str) -> Option<f64> {
        let idx = self.columns.iter().position(|c| c == column)?;
        self.latest().map(|r| r.values[idx])
    }
}

impl TelemetrySink for RingBufferSink {
    fn begin(&mut self, columns: &[String]) -> io::Result<()> {
        self.columns = columns.to_vec();
        Ok(())
    }

    fn record(&mut self, period: u64, time: f64, values: &[f64]) -> io::Result<()> {
        let mut slot = if self.records.len() == self.capacity {
            self.records.pop_front().expect("ring is non-empty")
        } else {
            self.free.pop().unwrap_or_default()
        };
        slot.period = period;
        slot.time = time;
        slot.values.clear();
        slot.values.extend_from_slice(values);
        self.records.push_back(slot);
        Ok(())
    }
}

/// Streams telemetry as CSV: a `period,time,<columns...>` header, one
/// row per sampling period.
pub struct CsvSink<W: Write> {
    out: W,
}

impl CsvSink<BufWriter<File>> {
    /// Creates a CSV sink writing to a freshly created file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(CsvSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> CsvSink<W> {
    /// Creates a CSV sink over any writer.
    pub fn new(out: W) -> Self {
        CsvSink { out }
    }

    /// Consumes the sink, returning the writer (for in-memory use).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TelemetrySink for CsvSink<W> {
    fn begin(&mut self, columns: &[String]) -> io::Result<()> {
        write!(self.out, "period,time")?;
        for c in columns {
            write!(self.out, ",{c}")?;
        }
        writeln!(self.out)
    }

    fn record(&mut self, period: u64, time: f64, values: &[f64]) -> io::Result<()> {
        write!(self.out, "{period},{time}")?;
        for v in values {
            write!(self.out, ",{v}")?;
        }
        writeln!(self.out)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Streams telemetry as JSON Lines: one flat object per sampling period
/// with `period`, `time` and every metric column as a key.
pub struct JsonlSink<W: Write> {
    out: W,
    /// Pre-escaped keys, built once at `begin`.
    keys: Vec<String>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates a JSONL sink writing to a freshly created file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Creates a JSONL sink over any writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            keys: Vec::new(),
        }
    }

    /// Consumes the sink, returning the writer (for in-memory use).
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// Escapes a string for use inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut e = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => e.push_str("\\\""),
            '\\' => e.push_str("\\\\"),
            c if (c as u32) < 0x20 => e.push_str(&format!("\\u{:04x}", c as u32)),
            c => e.push(c),
        }
    }
    e
}

/// Formats an `f64` as a JSON value (`null` for non-finite values,
/// which JSON cannot represent).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl<W: Write> TelemetrySink for JsonlSink<W> {
    fn begin(&mut self, columns: &[String]) -> io::Result<()> {
        self.keys = columns.iter().map(|c| json_escape(c)).collect();
        Ok(())
    }

    fn record(&mut self, period: u64, time: f64, values: &[f64]) -> io::Result<()> {
        write!(
            self.out,
            "{{\"period\":{period},\"time\":{}",
            json_num(time)
        )?;
        for (k, &v) in self.keys.iter().zip(values) {
            write!(self.out, ",\"{k}\":{}", json_num(v))?;
        }
        writeln!(self.out, "}}")
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ring_keeps_only_the_latest() {
        let mut ring = RingBufferSink::new(3);
        ring.begin(&cols(&["x", "y"])).unwrap();
        for k in 0..10u64 {
            ring.record(k, 1000.0 * k as f64, &[k as f64, -(k as f64)])
                .unwrap();
        }
        assert_eq!(ring.len(), 3);
        let periods: Vec<u64> = ring.iter().map(|r| r.period).collect();
        assert_eq!(periods, vec![7, 8, 9]);
        assert_eq!(ring.latest_value("y"), Some(-9.0));
        assert_eq!(ring.latest_value("missing"), None);
        assert_eq!(ring.columns(), &cols(&["x", "y"]));
    }

    #[test]
    fn ring_slots_are_recycled_without_growth() {
        let mut ring = RingBufferSink::new(2);
        ring.begin(&cols(&["x"])).unwrap();
        for k in 0..100u64 {
            ring.record(k, 0.0, &[k as f64]).unwrap();
        }
        // Each held record's buffer has exactly the schema width.
        for r in ring.iter() {
            assert_eq!(r.values.len(), 1);
        }
        assert_eq!(ring.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ring_rejects_zero_capacity() {
        let _ = RingBufferSink::new(0);
    }

    #[test]
    fn csv_round_trips() {
        let mut sink = CsvSink::new(Vec::new());
        sink.begin(&cols(&["u_p1", "events"])).unwrap();
        sink.record(0, 1000.0, &[0.828125, 42.0]).unwrap();
        sink.record(1, 2000.0, &[0.5, 43.0]).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("period,time,u_p1,events"));
        // Parse every data row back and compare exactly (Display output
        // of f64 round-trips).
        let rows: Vec<Vec<f64>> = lines
            .map(|l| l.split(',').map(|f| f.parse().unwrap()).collect())
            .collect();
        assert_eq!(
            rows,
            vec![
                vec![0.0, 1000.0, 0.828125, 42.0],
                vec![1.0, 2000.0, 0.5, 43.0]
            ]
        );
    }

    #[test]
    fn jsonl_round_trips() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.begin(&cols(&["u_p1", "qp_iterations"])).unwrap();
        sink.record(3, 4000.0, &[0.75, 2.0]).unwrap();
        sink.record(4, 5000.0, &[f64::NAN, 0.0]).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"period":3,"time":4000,"u_p1":0.75,"qp_iterations":2}"#
        );
        // Non-finite values must degrade to null, not invalid JSON.
        assert_eq!(
            lines[1],
            r#"{"period":4,"time":5000,"u_p1":null,"qp_iterations":0}"#
        );
        // Minimal structural check on every line: braces balanced, all
        // expected keys present exactly once.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            for key in [
                "\"period\":",
                "\"time\":",
                "\"u_p1\":",
                "\"qp_iterations\":",
            ] {
                assert_eq!(l.matches(key).count(), 1, "{key} once in {l}");
            }
        }
    }

    #[test]
    fn json_keys_are_escaped() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.begin(&cols(&["we\"ird\\name"])).unwrap();
        sink.record(0, 0.0, &[1.0]).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains(r#""we\"ird\\name":1"#));
    }
}
