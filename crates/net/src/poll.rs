//! The lane engine: one single-threaded readiness loop over any number
//! of lanes.
//!
//! [`PollEngine`] owns one end of every lane of a node and drives them
//! all from one sweep loop — no thread per lane, no I/O threads at all.
//! A lane's bytes travel over a link, either a nonblocking loopback-TCP
//! stream or a bounded in-process pipe; the engine does not care which.
//! Each sweep visits a lane's link at most once per drain: readable
//! bytes are pulled into the lane's [`FrameReader`] until the link would
//! block, then complete frames are handed to the caller as zero-copy
//! [`FrameView`]s decoded straight from the read buffer.
//!
//! Sends go through [`crate::frame::encode_frame`], so the steady-state
//! hot path allocates nothing: header bytes and `f64` bit patterns are
//! appended to one reused scratch buffer and written out with a bounded
//! `WouldBlock` retry.
//!
//! A hangup, an I/O error or a malformed frame tears a lane down: it
//! reads as disconnected through [`PollEngine::lane_connected`] until the
//! [`LaneFabric`](crate::LaneFabric) holding both ends re-dials it; a
//! lane retired with [`PollEngine::deregister`] never is.  Meanwhile the
//! layers above decide what a dead lane means — the distributed runtime
//! falls back to stale-hold, and the control service escalates
//! quarantine → eviction.

use std::io::ErrorKind;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::error::TransportError;
use crate::frame::{encode_frame, Frame, FrameKind, FrameReader, FrameView};
use crate::link::Link;
use crate::transport::TransportStats;

/// Tuning knobs of a lane engine and of the fabric that re-dials its
/// lanes.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Longest a single `send` may spend retrying `WouldBlock` before the
    /// frame is counted as dropped (also bounds a re-dial's connect).
    pub send_timeout: Duration,
    /// First re-dial delay after a lane is torn.
    pub base_backoff: Duration,
    /// Backoff ceiling (doubling stops here).
    pub max_backoff: Duration,
    /// Seed of the jitter applied to each backoff delay (deterministic
    /// runs stay deterministic).
    pub jitter_seed: u64,
    /// Sets `TCP_NODELAY` on every connection (on by default: feedback
    /// frames are tiny and latency-critical).
    pub nodelay: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            send_timeout: Duration::from_millis(5),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(250),
            jitter_seed: 0x7cb0_94d1,
            nodelay: true,
        }
    }
}

impl TcpConfig {
    /// The delay before the next re-dial after `failures` consecutive
    /// failed attempts: exponential from `base_backoff`, capped at
    /// `max_backoff`, with multiplicative jitter in `[0.5, 1.5)`.
    pub(crate) fn backoff(&self, failures: u32, rng: &mut StdRng) -> Duration {
        let base = self
            .base_backoff
            .saturating_mul(1u32 << failures.min(16))
            .min(self.max_backoff);
        base.mul_f64(0.5 + rng.gen::<f64>())
    }
}

/// Identifies one registered lane inside a [`PollEngine`].
///
/// Tokens are dense indices assigned in registration order and stay
/// valid for the engine's lifetime (deregistering a lane retires the
/// slot without renumbering the others).
pub type LaneToken = usize;

/// Per-lane state: the link, its reassembly buffer and counters.
#[derive(Debug)]
struct Slot {
    link: Option<Link>,
    reader: FrameReader,
    stats: TransportStats,
    /// Retired by [`PollEngine::deregister`]: down for good.
    retired: bool,
}

impl Slot {
    /// Drops the link; `torn` counts the lanes waiting for a re-dial.
    fn hang_up(&mut self, torn: &mut usize) {
        if self.link.take().is_some() && !self.retired {
            *torn += 1;
        }
    }

    /// Tears the lane down; a partial frame from the dead connection
    /// must not prefix anything that arrives on a future link.
    fn mark_broken(&mut self, torn: &mut usize) {
        self.hang_up(torn);
        self.reader.clear();
    }
}

/// One poll-based event loop over any number of lanes.
#[derive(Debug)]
pub struct PollEngine {
    pub(crate) cfg: TcpConfig,
    slots: Vec<Slot>,
    /// Shared encode scratch, reused across every send on every lane.
    out: Vec<u8>,
    /// Lanes that are down and not retired.
    torn: usize,
}

impl PollEngine {
    /// An engine with no lanes yet.
    pub fn new(cfg: &TcpConfig) -> Self {
        PollEngine {
            cfg: cfg.clone(),
            slots: Vec::new(),
            out: Vec::with_capacity(256),
            torn: 0,
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
        let link = Link::tcp(stream, &self.cfg)?;
        Ok(self.register_link(link))
    }

    pub(crate) fn register_link(&mut self, link: Link) -> LaneToken {
        self.slots.push(Slot {
            link: Some(link),
            reader: FrameReader::new(),
            stats: TransportStats::default(),
            retired: false,
        });
        self.slots.len() - 1
    }

    /// Retires a lane for good: closes its link and drops buffered
    /// bytes.  The token stays allocated (counters remain readable) but
    /// the lane is disconnected from then on and is never re-dialed.
    pub fn deregister(&mut self, token: LaneToken) {
        if let Some(slot) = self.slots.get_mut(token) {
            if !slot.retired && slot.link.is_none() {
                self.torn -= 1;
            }
            slot.retired = true;
            slot.mark_broken(&mut self.torn);
        }
    }

    /// Fault injection: shuts a lane's link down underneath the engine,
    /// as a peer crash or a pulled cable would.  The engine is not told;
    /// it tears the lane down when its next read or write fails.
    pub fn sever(&self, token: LaneToken) {
        if let Some(link) = self.slots.get(token).and_then(|slot| slot.link.as_ref()) {
            link.sever();
        }
    }

    /// Installs a freshly dialed link on a torn (or about to be torn)
    /// lane.  The reader is cleared: whatever partial frame the dead
    /// link left behind must not prefix the new stream.
    pub(crate) fn install(&mut self, token: LaneToken, link: Link) {
        let slot = &mut self.slots[token];
        debug_assert!(!slot.retired, "a retired lane is never re-dialed");
        if slot.link.replace(link).is_none() {
            self.torn -= 1;
        }
        slot.reader.clear();
        slot.stats.reconnects += 1;
    }

    /// Number of registered lanes (including retired ones).
    pub fn lanes(&self) -> usize {
        self.slots.len()
    }

    /// Whether the engine has no lanes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether a lane's link is currently up.
    pub fn lane_connected(&self, token: LaneToken) -> bool {
        self.slots
            .get(token)
            .is_some_and(|slot| slot.link.is_some())
    }

    /// Lanes that are down and waiting for a re-dial — what a fabric's
    /// heal pass checks before it looks at any lane.
    pub(crate) fn torn(&self) -> usize {
        self.torn
    }

    pub(crate) fn retired(&self, token: LaneToken) -> bool {
        self.slots[token].retired
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
    /// counted as dropped) or the token names no lane,
    /// [`TransportError::Timeout`] if the link stayed write-blocked past
    /// the configured send timeout (a frame cut short by it tears the
    /// lane).
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
        self.write_out(token)
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
        self.write_out(token)
    }

    /// Writes the encode scratch to a lane's link with a bounded
    /// `WouldBlock` retry.
    fn write_out(&mut self, token: LaneToken) -> Result<(), TransportError> {
        let slot = self
            .slots
            .get_mut(token)
            .ok_or(TransportError::Disconnected)?;
        let Some(link) = slot.link.as_mut() else {
            slot.stats.dropped += 1;
            return Err(TransportError::Disconnected);
        };
        let deadline = Instant::now() + self.cfg.send_timeout;
        let mut written = 0;
        while written < self.out.len() {
            let failure = match link.write(&self.out[written..]) {
                Ok(0) => TransportError::Disconnected,
                Ok(n) => {
                    written += n;
                    slot.stats.bytes_sent += n as u64;
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        // Never stall the sampling period on a clogged lane;
                        // stale-hold above covers the gap.  A frame cut
                        // short cannot be resumed, and the next one must
                        // not be framed behind its stump.
                        if written > 0 {
                            slot.mark_broken(&mut self.torn);
                        }
                        slot.stats.dropped += 1;
                        return Err(TransportError::Timeout);
                    }
                    std::thread::yield_now();
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => e.into(),
            };
            slot.mark_broken(&mut self.torn);
            slot.stats.dropped += 1;
            return Err(failure);
        }
        slot.stats.sent += 1;
        Ok(())
    }

    /// Sweeps one lane: pulls all readable bytes off the link, then
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
    /// [`TransportError::Disconnected`] when the token names no lane.
    pub fn drain(
        &mut self,
        token: LaneToken,
        mut f: impl FnMut(FrameView<'_>),
    ) -> Result<usize, TransportError> {
        let slot = self
            .slots
            .get_mut(token)
            .ok_or(TransportError::Disconnected)?;
        fill_slot(slot, &mut self.torn);
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
                    slot.mark_broken(&mut self.torn);
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

/// Pulls every readable byte off the slot's link into its reader.  A
/// short read means the link is drained: no second `read` is spent on
/// learning `WouldBlock` (callers that wait re-drain anyway).
fn fill_slot(slot: &mut Slot, torn: &mut usize) {
    let Some(link) = slot.link.as_mut() else {
        return;
    };
    let mut chunk = [0u8; 4096];
    loop {
        match link.read(&mut chunk) {
            Ok(0) => {
                // Orderly shutdown.  Complete frames already buffered
                // still drain; the partial remainder goes when a
                // re-dialed link is installed.
                slot.hang_up(torn);
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
                slot.mark_broken(torn);
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
        let deadline = Instant::now() + Duration::from_secs(5);
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
        let deadline = Instant::now() + Duration::from_secs(5);
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
        let deadline = Instant::now() + Duration::from_secs(5);
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
        let deadline = Instant::now() + Duration::from_secs(5);
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

    #[test]
    fn an_unknown_token_is_disconnected_not_a_panic() {
        let mut fabric = tcp_lane_fabric(&TcpConfig::default(), 1).unwrap();
        let engine = &mut fabric.proc;
        let report = || [0.5].into_iter();
        assert_eq!(
            engine.send(7, FrameKind::UtilizationReport, 1, 1, 0, report()),
            Err(TransportError::Disconnected)
        );
        let frame = Frame::new(FrameKind::UtilizationReport, 1, 1, 0, vec![0.5]);
        assert_eq!(
            engine.send_frame(7, &frame),
            Err(TransportError::Disconnected)
        );
        assert_eq!(engine.drain(7, |_| {}), Err(TransportError::Disconnected));
        engine.deregister(7);
        engine.sever(7);
        assert!(!engine.lane_connected(7));
        assert_eq!(engine.lane_stats(7), TransportStats::default());
    }

    #[test]
    fn many_frames_survive_fragmentation() {
        let mut fabric = tcp_lane_fabric(&TcpConfig::default(), 1).unwrap();
        let n = 200u64;
        for seq in 0..n {
            let value = [seq as f64 / n as f64].into_iter();
            fabric
                .proc
                .send(0, FrameKind::UtilizationReport, seq, seq, 0, value)
                .unwrap();
        }
        let mut got = 0u64;
        let deadline = Instant::now() + Duration::from_secs(5);
        while got < n && Instant::now() < deadline {
            fabric
                .ctrl
                .drain(0, |view| {
                    assert_eq!(view.seq(), got, "in-order delivery");
                    got += 1;
                })
                .unwrap();
        }
        assert_eq!(got, n);
    }

    #[test]
    fn backoff_grows_and_caps() {
        use rand::SeedableRng;
        let cfg = TcpConfig {
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(16),
            ..TcpConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(cfg.jitter_seed);
        for failures in 0..40 {
            let d = cfg.backoff(failures, &mut rng);
            // Jitter is in [0.5, 1.5): the doubled base bounds the draw
            // from both sides until the cap takes over.
            let base = Duration::from_millis(4 << failures.min(2));
            assert!(d >= base.mul_f64(0.5) && d < base.mul_f64(1.5), "{d:?}");
        }
    }

    #[test]
    fn a_lane_torn_mid_frame_starts_clean_on_its_new_link() {
        use std::io::Write as _;
        let cfg = TcpConfig::default();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut engine = PollEngine::new(&cfg);
        let token = engine.register(listener.accept().unwrap().0).unwrap();
        let report = |seq| Frame::new(FrameKind::UtilizationReport, seq, seq, 0, vec![0.25]);
        // One whole frame, half of the next, then the peer dies.
        let mut bytes = report(1).encode();
        let half = report(2).encode();
        bytes.extend_from_slice(&half[..half.len() / 2]);
        raw.write_all(&bytes).unwrap();
        drop(raw);
        let mut seen = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.lane_connected(token) && Instant::now() < deadline {
            engine.drain(token, |view| seen.push(view.seq())).unwrap();
        }
        assert_eq!(seen, [1], "the complete frame drains, the half does not");
        assert!(!engine.lane_connected(token));
        assert_eq!(engine.torn(), 1);

        let mut raw = TcpStream::connect(addr).unwrap();
        let link = Link::tcp(listener.accept().unwrap().0, &cfg).unwrap();
        engine.install(token, link);
        assert_eq!(engine.torn(), 0);
        raw.write_all(&report(3).encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.len() < 2 && Instant::now() < deadline {
            engine.drain(token, |view| seen.push(view.seq())).unwrap();
        }
        assert_eq!(seen, [1, 3], "the dead link's half frame prefixes nothing");
        let stats = engine.lane_stats(token);
        assert_eq!((stats.decode_errors, stats.reconnects), (0, 1));
    }
}
