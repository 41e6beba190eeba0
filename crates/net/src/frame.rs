//! The wire format of the feedback lanes: versioned, compact binary
//! frames.
//!
//! Three frame types cross a lane.  Two mirror the paper's §4
//! architecture: a processor's utilization monitor sends
//! [`Frame::UtilizationReport`]s to the controller, and the controller
//! sends [`Frame::RateCommand`]s back to the processor's rate modulator.
//! The third, [`Frame::BoundaryExchange`], carries the compact boundary
//! state (home utilizations, committed move vectors) that peer-coupled
//! shard controllers trade once per period over their shard lanes.
//!
//! ## Layout (little-endian)
//!
//! ```text
//! offset  size  field
//! 0       1     version byte (FRAME_VERSION)
//! 1       1     kind (1 = UtilizationReport, 2 = RateCommand,
//!               3 = BoundaryExchange)
//! 2       2     payload count n (u16)
//! 4       8     seq   — per-lane monotone sequence number (u64)
//! 12      8     period — sampling-period index the payload belongs to (u64)
//! 20      8·n   payload — f64 bit patterns (exact round-trip, NaN-safe)
//! ```
//!
//! Kind 3 inserts a 4-byte trailer between the header and the payload:
//! a `u16` shard id plus two reserved zero bytes.
//!
//! Values are serialized through [`f64::to_bits`], so a frame round-trips
//! every `f64` bit-for-bit — including the `NaN` a crashed monitor
//! reports.  [`FrameReader`] reassembles frames from an arbitrary byte
//! stream (TCP delivers partial frames at will).

use crate::error::FrameError;

/// Current wire-format version; bumped on any layout change so mixed
/// deployments fail loudly instead of mis-decoding.
pub const FRAME_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;

/// Maximum payload values per frame (defensive cap: a corrupt length
/// field must not make the reader buffer unbounded garbage).
pub const MAX_PAYLOAD: usize = 4096;

const KIND_REPORT: u8 = 1;
const KIND_COMMAND: u8 = 2;
const KIND_BOUNDARY: u8 = 3;

/// The kind of a frame, independent of its payload representation.
///
/// [`Frame`] owns its payload; [`FrameView`] borrows it from the read
/// buffer.  Both report their kind through this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Monitor → controller utilization sample(s).
    UtilizationReport,
    /// Controller → rate modulator task rates.
    RateCommand,
    /// Shard ↔ shard-hub boundary state.
    BoundaryExchange,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            KIND_REPORT => Some(FrameKind::UtilizationReport),
            KIND_COMMAND => Some(FrameKind::RateCommand),
            KIND_BOUNDARY => Some(FrameKind::BoundaryExchange),
            _ => None,
        }
    }

    fn byte(self) -> u8 {
        match self {
            FrameKind::UtilizationReport => KIND_REPORT,
            FrameKind::RateCommand => KIND_COMMAND,
            FrameKind::BoundaryExchange => KIND_BOUNDARY,
        }
    }

    fn trailer_len(self) -> usize {
        match self {
            FrameKind::BoundaryExchange => BOUNDARY_TRAILER_LEN,
            _ => 0,
        }
    }
}

/// Appends one wire frame built from a value iterator to `out` — the
/// allocation-free encode path of the poll engine: no intermediate
/// `Vec<f64>` payload, no owned [`Frame`], just header bytes plus the
/// iterator's values serialized through [`f64::to_bits`].
///
/// `shard` is only encoded for [`FrameKind::BoundaryExchange`] and is
/// ignored for the other kinds.
///
/// # Panics
///
/// Panics if the iterator reports more than [`MAX_PAYLOAD`] values.
pub fn encode_frame<I>(
    out: &mut Vec<u8>,
    kind: FrameKind,
    seq: u64,
    period: u64,
    shard: u16,
    values: I,
) where
    I: ExactSizeIterator<Item = f64>,
{
    let n = values.len();
    assert!(n <= MAX_PAYLOAD, "frame payload too large");
    out.reserve(HEADER_LEN + kind.trailer_len() + 8 * n);
    out.push(FRAME_VERSION);
    out.push(kind.byte());
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&period.to_le_bytes());
    if kind == FrameKind::BoundaryExchange {
        out.extend_from_slice(&shard.to_le_bytes());
        out.extend_from_slice(&[0u8; 2]);
    }
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// A decoded frame borrowing its payload straight from the read buffer.
///
/// This is the zero-copy decode path: the header fields are parsed into
/// plain integers and the payload stays where the socket wrote it — no
/// intermediate `Vec<f64>`.  Values are read on demand through
/// [`FrameView::value`] / [`FrameView::values`], each a direct
/// [`f64::from_bits`] over eight payload bytes (bit-exact, NaN-safe).
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    kind: FrameKind,
    seq: u64,
    period: u64,
    shard: u16,
    payload: &'a [u8],
}

/// Validates the header at the start of `bytes` and returns the total
/// encoded length of the frame it declares, or `Ok(None)` when `bytes`
/// does not yet hold a complete frame.
fn frame_len(bytes: &[u8]) -> Result<Option<usize>, FrameError> {
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    if bytes[0] != FRAME_VERSION {
        return Err(FrameError::BadVersion(bytes[0]));
    }
    let Some(kind) = FrameKind::from_byte(bytes[1]) else {
        return Err(FrameError::BadKind(bytes[1]));
    };
    let n = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
    if n > MAX_PAYLOAD {
        return Err(FrameError::Oversize(n));
    }
    let total = HEADER_LEN + kind.trailer_len() + 8 * n;
    if bytes.len() < total {
        return Ok(None);
    }
    Ok(Some(total))
}

impl<'a> FrameView<'a> {
    /// Parses one frame from the start of `bytes` without copying the
    /// payload.  Returns the view and the number of bytes consumed, or
    /// `Ok(None)` when `bytes` does not yet hold a complete frame.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] for an unsupported version byte, an unknown
    /// frame kind or an oversize payload declaration.
    pub fn parse(bytes: &'a [u8]) -> Result<Option<(FrameView<'a>, usize)>, FrameError> {
        let Some(total) = frame_len(bytes)? else {
            return Ok(None);
        };
        let kind = FrameKind::from_byte(bytes[1]).expect("validated by frame_len");
        let seq = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
        let period = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let shard = if kind == FrameKind::BoundaryExchange {
            u16::from_le_bytes([bytes[HEADER_LEN], bytes[HEADER_LEN + 1]])
        } else {
            0
        };
        let payload = &bytes[HEADER_LEN + kind.trailer_len()..total];
        Ok(Some((
            FrameView {
                kind,
                seq,
                period,
                shard,
                payload,
            },
            total,
        )))
    }

    /// The frame's kind.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// The frame's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The sampling-period index the frame belongs to.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The shard id (0 for non-boundary frames).
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Number of payload values.
    pub fn len(&self) -> usize {
        self.payload.len() / 8
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The `i`-th payload value, decoded in place.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn value(&self, i: usize) -> f64 {
        let bytes = &self.payload[8 * i..8 * i + 8];
        f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Iterates the payload values in order, decoding in place.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.payload
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
    }

    /// Copies the payload into `out` (up to `out.len()` values) and
    /// returns how many were written.
    pub fn copy_into(&self, out: &mut [f64]) -> usize {
        let n = self.len().min(out.len());
        for (i, slot) in out.iter_mut().enumerate().take(n) {
            *slot = self.value(i);
        }
        n
    }

    /// Materializes an owned [`Frame`] (allocates — the compatibility
    /// bridge for callers that need ownership).
    pub fn to_frame(&self) -> Frame {
        Frame::new(
            self.kind,
            self.seq,
            self.period,
            self.shard,
            self.values().collect(),
        )
    }
}

/// Extra bytes a [`Frame::BoundaryExchange`] carries between the header
/// and the payload: `u16` shard id + two reserved zero bytes.
pub const BOUNDARY_TRAILER_LEN: usize = 4;

/// One message crossing a feedback lane.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Frame {
    /// Monitor → controller: the utilization sample(s) for one sampling
    /// period.
    UtilizationReport {
        /// Per-lane monotone sequence number.
        seq: u64,
        /// Sampling-period index the sample belongs to.
        period: u64,
        /// Sampled utilizations (one per monitored processor on this
        /// lane; a dedicated per-processor lane carries exactly one).
        values: Vec<f64>,
    },
    /// Controller → rate modulator: new task rates.
    RateCommand {
        /// Per-lane monotone sequence number.
        seq: u64,
        /// Sampling-period index the command was computed for.
        period: u64,
        /// Commanded rates (in the receiving node's task order).
        rates: Vec<f64>,
    },
    /// Shard ↔ shard-hub: compact boundary state for peer-coupled shard
    /// control — home-processor utilizations (shard → hub), committed
    /// rate-change moves (shard → hub), or a neighbor's boundary view
    /// (hub → shard).  The payload semantics are fixed by the lane
    /// direction and the sharded-control protocol, not by the frame.
    BoundaryExchange {
        /// Per-lane monotone sequence number.
        seq: u64,
        /// Sampling-period index the boundary state belongs to.
        period: u64,
        /// Originating (or addressed) shard index.
        shard: u16,
        /// Boundary values in protocol order (utilizations or moves).
        values: Vec<f64>,
    },
}

impl Frame {
    /// A frame of `kind` owning `values` (`shard` is kept only by
    /// [`Frame::BoundaryExchange`]).
    pub fn new(kind: FrameKind, seq: u64, period: u64, shard: u16, values: Vec<f64>) -> Frame {
        match kind {
            FrameKind::UtilizationReport => Frame::UtilizationReport {
                seq,
                period,
                values,
            },
            FrameKind::RateCommand => Frame::RateCommand {
                seq,
                period,
                rates: values,
            },
            FrameKind::BoundaryExchange => Frame::BoundaryExchange {
                seq,
                period,
                shard,
                values,
            },
        }
    }

    /// The frame's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            Frame::UtilizationReport { seq, .. }
            | Frame::RateCommand { seq, .. }
            | Frame::BoundaryExchange { seq, .. } => *seq,
        }
    }

    /// The sampling-period index the frame belongs to.
    pub fn period(&self) -> u64 {
        match self {
            Frame::UtilizationReport { period, .. }
            | Frame::RateCommand { period, .. }
            | Frame::BoundaryExchange { period, .. } => *period,
        }
    }

    /// The payload values (utilizations, rates or boundary state).
    pub fn values(&self) -> &[f64] {
        match self {
            Frame::UtilizationReport { values, .. } => values,
            Frame::RateCommand { rates, .. } => rates,
            Frame::BoundaryExchange { values, .. } => values,
        }
    }

    /// The frame's kind.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::UtilizationReport { .. } => FrameKind::UtilizationReport,
            Frame::RateCommand { .. } => FrameKind::RateCommand,
            Frame::BoundaryExchange { .. } => FrameKind::BoundaryExchange,
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        let trailer = match self {
            Frame::BoundaryExchange { .. } => BOUNDARY_TRAILER_LEN,
            _ => 0,
        };
        HEADER_LEN + trailer + 8 * self.values().len()
    }

    /// Appends the wire encoding to `out` (no intermediate allocation).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] values — frames are
    /// built from task-set-sized vectors, so this is a programming error,
    /// not a runtime condition.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let shard = match self {
            Frame::BoundaryExchange { shard, .. } => *shard,
            _ => 0,
        };
        let values = self.values().iter().copied();
        encode_frame(out, self.kind(), self.seq(), self.period(), shard, values);
    }

    /// The wire encoding as a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame from the start of `bytes`.
    ///
    /// Returns the frame and the number of bytes consumed, or `Ok(None)`
    /// when `bytes` does not yet hold a complete frame (the caller should
    /// buffer more input).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] for an unsupported version byte, an unknown
    /// frame kind or an oversize payload declaration.
    pub fn decode(bytes: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
        Ok(FrameView::parse(bytes)?.map(|(view, used)| (view.to_frame(), used)))
    }
}

/// Reassembles [`Frame`]s from an arbitrarily-chunked byte stream.
///
/// TCP is a byte stream: a read may return half a frame, or three frames
/// and a half.  The reader buffers input and yields complete frames in
/// order.  A decode error poisons the buffered bytes (there is no way to
/// resynchronize an unframed stream), so the buffer is cleared and the
/// error returned; the transport layer treats that as a broken connection.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes received from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates the buffer.
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame as a zero-copy [`FrameView`]
    /// borrowing this reader's buffer — the poll engine's drain path
    /// (no payload copy, no allocation).
    ///
    /// The view is valid until the next call that mutates the reader
    /// (`extend`, `next_view`, `clear`).
    ///
    /// # Errors
    ///
    /// Propagates [`FrameError`] for malformed input; the internal buffer
    /// is cleared (the stream cannot be resynchronized past a bad frame).
    pub fn next_view(&mut self) -> Result<Option<FrameView<'_>>, FrameError> {
        let used = match frame_len(&self.buf[self.consumed..]) {
            Ok(Some(total)) => total,
            Ok(None) => return Ok(None),
            Err(e) => {
                self.clear();
                return Err(e);
            }
        };
        let start = self.consumed;
        self.consumed += used;
        let (view, _) = FrameView::parse(&self.buf[start..start + used])?
            .expect("frame_len validated a complete frame");
        Ok(Some(view))
    }

    /// Bytes currently buffered and not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Discards all buffered bytes (used when a connection is torn down —
    /// a partial frame from the old connection must not prefix the new
    /// stream).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.consumed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seq: u64, values: &[f64]) -> Frame {
        Frame::UtilizationReport {
            seq,
            period: seq,
            values: values.to_vec(),
        }
    }

    #[test]
    fn round_trips_bit_for_bit() {
        let f = report(7, &[0.5, f64::NAN, -0.0, 1e308, f64::INFINITY]);
        let bytes = f.encode();
        let (g, used) = Frame::decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        // NaN != NaN, so compare bit patterns.
        let a: Vec<u64> = f.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = g.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        assert_eq!(g.seq(), 7);
        assert_eq!(g.period(), 7);
    }

    #[test]
    fn command_round_trips() {
        let f = Frame::RateCommand {
            seq: 3,
            period: 9,
            rates: vec![1.25, 2.5],
        };
        let (g, _) = Frame::decode(&f.encode()).unwrap().unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn boundary_round_trips_bit_for_bit() {
        let f = Frame::BoundaryExchange {
            seq: 11,
            period: 42,
            shard: 513,
            values: vec![0.25, -0.0, f64::NAN, 7e-300],
        };
        let bytes = f.encode();
        assert_eq!(bytes.len(), HEADER_LEN + BOUNDARY_TRAILER_LEN + 8 * 4);
        assert_eq!(bytes.len(), f.encoded_len());
        let (g, used) = Frame::decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        let Frame::BoundaryExchange {
            seq,
            period,
            shard,
            values,
        } = &g
        else {
            panic!("decoded wrong kind: {g:?}");
        };
        assert_eq!((*seq, *period, *shard), (11, 42, 513));
        let a: Vec<u64> = f.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn boundary_incomplete_input_asks_for_more() {
        let bytes = Frame::BoundaryExchange {
            seq: 1,
            period: 1,
            shard: 3,
            values: vec![0.5, 0.6],
        }
        .encode();
        // Every truncation point, including mid-trailer, must buffer.
        for cut in 0..bytes.len() {
            assert_eq!(Frame::decode(&bytes[..cut]).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn reader_interleaves_boundary_with_reports() {
        let frames = [
            report(1, &[0.1]),
            Frame::BoundaryExchange {
                seq: 2,
                period: 2,
                shard: 0,
                values: vec![],
            },
            report(3, &[0.3]),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream);
        }
        let mut reader = FrameReader::new();
        reader.extend(&stream);
        let mut got = Vec::new();
        while let Some(view) = reader.next_view().unwrap() {
            got.push(view.to_frame());
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn incomplete_input_asks_for_more() {
        let bytes = report(1, &[0.1, 0.2]).encode();
        for cut in 0..bytes.len() {
            assert_eq!(Frame::decode(&bytes[..cut]).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn bad_version_and_kind_rejected() {
        let mut bytes = report(1, &[0.1]).encode();
        bytes[0] = 99;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadVersion(99)));
        let mut bytes = report(1, &[0.1]).encode();
        bytes[1] = 77;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadKind(77)));
    }

    #[test]
    fn oversize_payload_rejected() {
        let mut bytes = report(1, &[0.1]).encode();
        bytes[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::Oversize(u16::MAX as usize))
        );
    }

    #[test]
    fn view_decodes_in_place_bit_for_bit() {
        let f = Frame::BoundaryExchange {
            seq: 9,
            period: 77,
            shard: 1024,
            values: vec![0.5, f64::NAN, -0.0, f64::NEG_INFINITY],
        };
        let bytes = f.encode();
        let (view, used) = FrameView::parse(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(view.kind(), FrameKind::BoundaryExchange);
        assert_eq!((view.seq(), view.period(), view.shard()), (9, 77, 1024));
        assert_eq!(view.len(), 4);
        let a: Vec<u64> = f.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = view.values().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        assert_eq!(view.value(1).to_bits(), f64::NAN.to_bits());
        let mut out = [0.0f64; 4];
        assert_eq!(view.copy_into(&mut out), 4);
        assert_eq!(out[0], 0.5);
        // The owned bridge reproduces the original frame exactly.
        let g = view.to_frame();
        let c: Vec<u64> = g.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, c);
    }

    #[test]
    fn encode_frame_matches_owned_encoding() {
        let f = Frame::RateCommand {
            seq: 21,
            period: 6,
            rates: vec![1.5, 0.25, 3.0],
        };
        let mut streamed = Vec::new();
        encode_frame(
            &mut streamed,
            FrameKind::RateCommand,
            21,
            6,
            0,
            [1.5, 0.25, 3.0].into_iter(),
        );
        assert_eq!(streamed, f.encode(), "iterator path is byte-identical");
        let mut boundary = Vec::new();
        encode_frame(
            &mut boundary,
            FrameKind::BoundaryExchange,
            1,
            2,
            513,
            [0.5].into_iter(),
        );
        let g = Frame::BoundaryExchange {
            seq: 1,
            period: 2,
            shard: 513,
            values: vec![0.5],
        };
        assert_eq!(boundary, g.encode());
    }

    #[test]
    fn reader_views_drain_dribbled_bytes() {
        let frames = [report(1, &[0.1]), report(2, &[0.2, 0.3]), report(3, &[])];
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream);
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for &b in &stream {
            reader.extend(&[b]);
            while let Some(view) = reader.next_view().unwrap() {
                got.push(view.to_frame());
            }
        }
        assert_eq!(got, frames);
        assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn reader_view_poisoned_buffer_clears_on_error() {
        let mut reader = FrameReader::new();
        reader.extend(&[0xFF; 64]);
        assert!(reader.next_view().is_err());
        assert_eq!(reader.pending(), 0);
        reader.extend(&report(5, &[0.9]).encode());
        assert_eq!(reader.next_view().unwrap().unwrap().seq(), 5);
    }
}
