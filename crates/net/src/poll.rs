//! A single-threaded readiness engine multiplexing many TCP lanes.
//!
//! [`PollEngine`] owns an arbitrary number of nonblocking loopback-TCP
//! lanes and drives them all from one sweep loop — no thread per lane,
//! no I/O threads at all.  Each sweep visits a lane's socket at most
//! once per drain: readable bytes are pulled into the lane's
//! [`FrameReader`] until the socket would block, then complete frames
//! are handed to the caller as zero-copy [`FrameView`]s decoded straight
//! from the read buffer.
//!
//! Sends go through [`crate::frame::encode_frame`], so the steady-state
//! hot path allocates nothing: header bytes and `f64` bit patterns are
//! appended to one reused scratch buffer and written out with a bounded
//! `WouldBlock` retry.
//!
//! Unlike [`crate::TcpTransport`], the poll engine does not reconnect: a
//! lane that breaks stays broken and is reported through
//! [`PollEngine::lane_connected`].  The layers above decide what a dead
//! lane means — the distributed runtime falls back to stale-hold, and
//! the control service escalates quarantine → eviction.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::error::TransportError;
use crate::frame::{encode_frame, Frame, FrameKind, FrameReader, FrameView};
use crate::tcp::TcpConfig;
use crate::transport::TransportStats;

/// Identifies one registered lane inside a [`PollEngine`].
///
/// Tokens are dense indices assigned in registration order and stay
/// valid for the engine's lifetime (deregistering a lane retires the
/// slot without renumbering the others).
pub type LaneToken = usize;

/// Per-lane state: the socket, its reassembly buffer and counters.
#[derive(Debug)]
struct Slot {
    stream: Option<TcpStream>,
    reader: FrameReader,
    stats: TransportStats,
}

impl Slot {
    /// Tears the lane down; a partial frame from the dead connection
    /// must not prefix anything that may arrive on a future stream.
    fn mark_broken(&mut self) {
        self.stream = None;
        self.reader.clear();
    }
}

/// One poll-based event loop over any number of TCP lanes.
#[derive(Debug)]
pub struct PollEngine {
    cfg: TcpConfig,
    slots: Vec<Slot>,
    /// Shared encode scratch, reused across every send on every lane.
    out: Vec<u8>,
}

impl PollEngine {
    /// An engine with no lanes yet.
    pub fn new(cfg: &TcpConfig) -> Self {
        PollEngine {
            cfg: cfg.clone(),
            slots: Vec::new(),
            out: Vec::with_capacity(256),
        }
    }

    /// Registers a connected stream and returns its lane token.
    ///
    /// The stream is switched to nonblocking mode and `TCP_NODELAY` is
    /// applied per the engine's config.
    ///
    /// # Errors
    ///
    /// Propagates `std::io::Error` from the socket options.
    pub fn register(&mut self, stream: TcpStream) -> std::io::Result<LaneToken> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(self.cfg.nodelay)?;
        self.slots.push(Slot {
            stream: Some(stream),
            reader: FrameReader::new(),
            stats: TransportStats::default(),
        });
        Ok(self.slots.len() - 1)
    }

    /// Retires a lane: closes its socket and drops buffered bytes.  The
    /// token stays allocated (counters remain readable) but the lane is
    /// disconnected from then on.
    pub fn deregister(&mut self, token: LaneToken) {
        if let Some(slot) = self.slots.get_mut(token) {
            slot.mark_broken();
        }
    }

    /// Number of registered lanes (including retired ones).
    pub fn lanes(&self) -> usize {
        self.slots.len()
    }

    /// Whether the engine has no lanes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether a lane's socket is currently up.
    pub fn lane_connected(&self, token: LaneToken) -> bool {
        self.slots
            .get(token)
            .is_some_and(|slot| slot.stream.is_some())
    }

    /// Encodes one frame from a value iterator and writes it to a lane —
    /// the allocation-free send path (no owned [`Frame`], no payload
    /// `Vec`).
    ///
    /// `shard` is only meaningful for [`FrameKind::BoundaryExchange`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] if the lane is down (the frame is
    /// counted as dropped), [`TransportError::Timeout`] if the socket
    /// stayed write-blocked past the configured send timeout.
    pub fn send<I>(
        &mut self,
        token: LaneToken,
        kind: FrameKind,
        seq: u64,
        period: u64,
        shard: u16,
        values: I,
    ) -> Result<(), TransportError>
    where
        I: ExactSizeIterator<Item = f64>,
    {
        self.out.clear();
        encode_frame(&mut self.out, kind, seq, period, shard, values);
        write_encoded(&mut self.slots[token], &self.out, &self.cfg)
    }

    /// Writes an owned, pre-built frame to a lane (the bridge for frames
    /// that crossed a delay/loss gate and therefore already exist).
    ///
    /// # Errors
    ///
    /// Same contract as [`PollEngine::send`].
    pub fn send_frame(&mut self, token: LaneToken, frame: &Frame) -> Result<(), TransportError> {
        self.out.clear();
        frame.encode_into(&mut self.out);
        write_encoded(&mut self.slots[token], &self.out, &self.cfg)
    }

    /// Sweeps one lane: pulls all readable bytes off the socket, then
    /// hands every complete frame to `f` as a zero-copy [`FrameView`].
    /// Returns the number of frames delivered.
    ///
    /// A peer disconnect is not an error here — buffered frames are
    /// still delivered, the lane is marked down, and the caller observes
    /// it through [`PollEngine::lane_connected`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Frame`] when the stream carries a malformed
    /// frame; the lane is torn down (an unframed stream cannot be
    /// resynchronized) and the decode-error counter advances.
    pub fn drain(
        &mut self,
        token: LaneToken,
        mut f: impl FnMut(FrameView<'_>),
    ) -> Result<usize, TransportError> {
        let slot = &mut self.slots[token];
        fill_slot(slot);
        let mut delivered = 0;
        loop {
            match slot.reader.next_view() {
                Ok(Some(view)) => {
                    slot.stats.received += 1;
                    delivered += 1;
                    f(view);
                }
                Ok(None) => return Ok(delivered),
                Err(e) => {
                    slot.stats.decode_errors += 1;
                    slot.mark_broken();
                    return Err(e.into());
                }
            }
        }
    }

    /// A lane's own counters.
    pub fn lane_stats(&self, token: LaneToken) -> TransportStats {
        self.slots
            .get(token)
            .map(|slot| slot.stats)
            .unwrap_or_default()
    }

    /// Counters aggregated over every lane.
    pub fn stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for slot in &self.slots {
            total = total.merge(&slot.stats);
        }
        total
    }
}

/// Writes `out` to the slot's socket with a bounded `WouldBlock` retry.
fn write_encoded(slot: &mut Slot, out: &[u8], cfg: &TcpConfig) -> Result<(), TransportError> {
    let Some(stream) = slot.stream.as_mut() else {
        slot.stats.dropped += 1;
        return Err(TransportError::Disconnected);
    };
    let deadline = Instant::now() + cfg.send_timeout;
    let mut written = 0;
    while written < out.len() {
        match stream.write(&out[written..]) {
            Ok(0) => {
                slot.mark_broken();
                slot.stats.dropped += 1;
                return Err(TransportError::Disconnected);
            }
            Ok(n) => {
                written += n;
                slot.stats.bytes_sent += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    // Never stall the sampling period on a clogged lane;
                    // stale-hold above covers the gap.
                    slot.stats.dropped += 1;
                    return Err(TransportError::Timeout);
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                slot.mark_broken();
                slot.stats.dropped += 1;
                return Err(e.into());
            }
        }
    }
    slot.stats.sent += 1;
    Ok(())
}

/// Pulls every readable byte off the slot's socket into its reader.  A
/// short read means the socket is drained: no second `read` is spent on
/// learning `WouldBlock` (callers that wait re-drain anyway).
fn fill_slot(slot: &mut Slot) {
    let Some(stream) = slot.stream.as_mut() else {
        return;
    };
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Orderly shutdown; buffered frames still drain below.
                slot.stream = None;
                return;
            }
            Ok(n) => {
                slot.stats.bytes_received += n as u64;
                slot.reader.extend(&chunk[..n]);
                if n < chunk.len() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                slot.mark_broken();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::tcp_lane_fabric;

    #[test]
    fn frames_sweep_across_many_lanes() {
        let mut fabric = tcp_lane_fabric(&TcpConfig::default(), 16).unwrap();
        for lane in 0..16 {
            fabric
                .proc
                .send(
                    lane,
                    FrameKind::UtilizationReport,
                    1,
                    7,
                    0,
                    [lane as f64 / 16.0].into_iter(),
                )
                .unwrap();
        }
        let mut got = [f64::NAN; 16];
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut remaining = 16;
        while remaining > 0 && Instant::now() < deadline {
            for (lane, slot) in got.iter_mut().enumerate() {
                remaining -= fabric
                    .ctrl
                    .drain(lane, |view| {
                        assert_eq!(view.kind(), FrameKind::UtilizationReport);
                        assert_eq!(view.period(), 7);
                        *slot = view.value(0);
                    })
                    .unwrap();
            }
        }
        for (lane, v) in got.iter().enumerate() {
            assert_eq!(v.to_bits(), (lane as f64 / 16.0).to_bits());
        }
        let stats = fabric.ctrl.stats();
        assert_eq!(stats.received, 16);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(fabric.proc.stats().sent, 16);
    }

    #[test]
    fn commands_flow_the_other_way() {
        let mut fabric = tcp_lane_fabric(&TcpConfig::default(), 2).unwrap();
        fabric
            .ctrl
            .send(1, FrameKind::RateCommand, 5, 3, 0, [1.5, 2.5].into_iter())
            .unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut rates = Vec::new();
        while rates.is_empty() && Instant::now() < deadline {
            fabric
                .proc
                .drain(1, |view| {
                    assert_eq!(view.seq(), 5);
                    rates.extend(view.values());
                })
                .unwrap();
        }
        assert_eq!(rates, vec![1.5, 2.5]);
        // The untouched lane saw nothing.
        assert_eq!(fabric.proc.lane_stats(0).received, 0);
    }

    #[test]
    fn dead_lane_counts_drops_and_reports_down() {
        let mut fabric = tcp_lane_fabric(&TcpConfig::default(), 2).unwrap();
        fabric.proc.deregister(0);
        assert!(!fabric.proc.lane_connected(0));
        assert!(fabric.proc.lane_connected(1));
        let err = fabric
            .proc
            .send(0, FrameKind::UtilizationReport, 1, 1, 0, [0.5].into_iter())
            .unwrap_err();
        assert_eq!(err, TransportError::Disconnected);
        assert_eq!(fabric.proc.lane_stats(0).dropped, 1);
        // The controller side eventually observes the hangup on drain.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while fabric.ctrl.lane_connected(0) && Instant::now() < deadline {
            fabric.ctrl.drain(0, |_| {}).unwrap();
        }
        assert!(!fabric.ctrl.lane_connected(0));
    }

    #[test]
    fn garbage_on_the_wire_is_a_decode_error() {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut engine = PollEngine::new(&TcpConfig::default());
        let token = engine.register(accepted).unwrap();
        raw.write_all(&[0xAB; 40]).unwrap();
        raw.flush().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut saw_error = false;
        while !saw_error && Instant::now() < deadline {
            if engine.drain(token, |_| {}).is_err() {
                saw_error = true;
            }
        }
        assert!(saw_error);
        assert_eq!(engine.stats().decode_errors, 1);
        assert!(!engine.lane_connected(token));
    }
}
