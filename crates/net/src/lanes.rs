//! Lane fabrics: both ends of a set of connected lanes, and the one
//! place a torn lane is re-dialed.
//!
//! A control deployment needs one lane per processor, a sharded
//! controller one per shard, and a service hosting many tenants
//! thousands.  [`tcp_lane_fabric`] builds them off a single ephemeral
//! listener, [`memory_lane_fabric`] out of in-process pipes: lane `i` is
//! one link whose controller-side end is token `i` in
//! [`LaneFabric::ctrl`] and whose processor-side end is token `i` in
//! [`LaneFabric::proc`] — the two engines index identically, so the
//! distributed runtime addresses a lane by processor index on both
//! sides.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::link::{memory_pair, Link};
use crate::poll::{PollEngine, TcpConfig};

/// How a fabric makes a connected link pair — at construction and again
/// for every lane it re-dials.
#[derive(Debug)]
enum Dialer {
    /// Dials the fabric's own loopback listener and accepts.
    Tcp(TcpListener),
    Memory,
}

impl Dialer {
    /// One connected `(ctrl, proc)` link pair.
    fn pair(&self, cfg: &TcpConfig) -> io::Result<(Link, Link)> {
        let Dialer::Tcp(listener) = self else {
            let (ctrl, proc) = memory_pair();
            return Ok((Link::Memory(ctrl), Link::Memory(proc)));
        };
        let timeout = cfg.send_timeout.max(Duration::from_millis(1));
        let dialed = TcpStream::connect_timeout(&listener.local_addr()?, timeout)?;
        let local = dialed.local_addr()?;
        loop {
            // A dial whose accept would have blocked left its connection
            // in the backlog; that one is not this dial's peer.
            let (accepted, peer) = listener.accept()?;
            if peer == local {
                return Ok((Link::tcp(accepted, cfg)?, Link::tcp(dialed, cfg)?));
            }
        }
    }
}

/// Both sides of a set of connected lanes, each side one [`PollEngine`].
///
/// Every deployment in this workspace (the simulation harness, the
/// control service, the shard boundary bus) holds both engines in one
/// process, so the fabric is also what re-dials a torn lane
/// ([`LaneFabric::heal`]).
#[derive(Debug)]
pub struct LaneFabric {
    /// Controller-side endpoints: commands out, reports in.
    pub ctrl: PollEngine,
    /// Processor-side endpoints: reports out, commands in.
    pub proc: PollEngine,
    dialer: Dialer,
    /// Jitter stream of the re-dial backoff.
    rng: StdRng,
    /// Consecutive heal passes in which a dial failed (drives the
    /// backoff curve).
    failures: u32,
    /// Earliest instant of the next heal pass; `None` while no lane is
    /// waiting for one.
    retry_at: Option<Instant>,
}

impl LaneFabric {
    fn build(cfg: &TcpConfig, lanes: usize, dialer: Dialer) -> io::Result<LaneFabric> {
        let mut ctrl = PollEngine::new(cfg);
        let mut proc = PollEngine::new(cfg);
        for _ in 0..lanes {
            let (ctrl_link, proc_link) = dialer.pair(cfg)?;
            ctrl.register_link(ctrl_link);
            proc.register_link(proc_link);
        }
        if let Dialer::Tcp(listener) = &dialer {
            // From here on an accept is part of a sampling period.
            listener.set_nonblocking(true)?;
        }
        Ok(LaneFabric {
            ctrl,
            proc,
            dialer,
            rng: StdRng::seed_from_u64(cfg.jitter_seed),
            failures: 0,
            retry_at: None,
        })
    }

    /// Number of lanes in the fabric.
    pub fn lanes(&self) -> usize {
        self.ctrl.lanes()
    }

    /// Re-dials torn lanes; call it once per sampling period.
    ///
    /// A lane is torn when either engine dropped its end — on a hangup,
    /// an I/O error or a malformed frame.  The first pass that finds one
    /// starts the backoff clock ([`TcpConfig`]: `base_backoff`, doubling
    /// per failed pass up to `max_backoff`, jittered from `jitter_seed`);
    /// the first pass after it runs out gives both ends of every torn
    /// lane a fresh link pair, in lane order.  A lane either end of which
    /// was retired with [`PollEngine::deregister`] is not re-dialed: its
    /// other end is retired with it.  While no lane is down this is one
    /// comparison; a dial is bounded by `send_timeout` and an accept
    /// never blocks.
    pub fn heal(&mut self) {
        if self.ctrl.torn() + self.proc.torn() == 0 {
            return;
        }
        let now = Instant::now();
        match self.retry_at {
            Some(at) if now < at => return,
            Some(_) => {
                self.failures = match self.redial() {
                    Ok(()) => 0,
                    Err(_) => self.failures.saturating_add(1),
                }
            }
            // First sight of a tear: this pass only starts the clock.
            None => {}
        }
        self.retry_at = (self.ctrl.torn() + self.proc.torn() > 0)
            .then(|| now + self.ctrl.cfg.backoff(self.failures, &mut self.rng));
    }

    /// One pass over the lanes that are down, stopping at the first dial
    /// that fails.
    fn redial(&mut self) -> io::Result<()> {
        for lane in 0..self.lanes() {
            if self.ctrl.lane_connected(lane) && self.proc.lane_connected(lane) {
                continue;
            }
            if self.ctrl.retired(lane) || self.proc.retired(lane) {
                self.ctrl.deregister(lane);
                self.proc.deregister(lane);
                continue;
            }
            let (ctrl_link, proc_link) = self.dialer.pair(&self.ctrl.cfg)?;
            self.ctrl.install(lane, ctrl_link);
            self.proc.install(lane, proc_link);
        }
        Ok(())
    }
}

/// Builds `lanes` connected loopback-TCP lanes multiplexed over two
/// poll engines.
///
/// One ephemeral listener serves every accept — the fabric keeps it to
/// re-dial torn lanes — and connections are established sequentially,
/// so token `i` on the controller engine is wired to token `i` on the
/// processor engine.
///
/// # Errors
///
/// Propagates any `std::io::Error` from binding, connecting, accepting
/// or configuring the sockets.
pub fn tcp_lane_fabric(cfg: &TcpConfig, lanes: usize) -> io::Result<LaneFabric> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    LaneFabric::build(cfg, lanes, Dialer::Tcp(listener))
}

/// Builds `lanes` connected in-memory lanes on the same two engines: the
/// ideal lane.  Frames are encoded, written, read and decoded exactly as
/// on TCP, only the bytes never leave the process and delivery is
/// synchronous.  A loop drains in the period it writes, so the pipes
/// never fill and the default [`TcpConfig`] is all the tuning they need.
pub fn memory_lane_fabric(lanes: usize) -> LaneFabric {
    LaneFabric::build(&TcpConfig::default(), lanes, Dialer::Memory)
        .expect("pairing in-memory links cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    /// Drains `lane` on `engine` until a frame arrives; its first value.
    fn recv(engine: &mut PollEngine, lane: usize) -> Option<f64> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = None;
        while got.is_none() && Instant::now() < deadline {
            let _ = engine.drain(lane, |view| got = Some(view.value(0)));
        }
        got
    }

    fn report(engine: &mut PollEngine, lane: usize, value: f64) -> bool {
        let values = [value].into_iter();
        engine
            .send(lane, FrameKind::UtilizationReport, 1, 1, 0, values)
            .is_ok()
    }

    #[test]
    fn fabric_tokens_pair_up_by_lane() {
        let mut fabric = tcp_lane_fabric(&TcpConfig::default(), 8).unwrap();
        assert_eq!(fabric.lanes(), 8);
        // Each proc lane sends its own index; the paired ctrl lane must
        // be the only one that receives it.
        for lane in 0..8 {
            assert!(report(&mut fabric.proc, lane, lane as f64));
        }
        for lane in 0..8 {
            let got = recv(&mut fabric.ctrl, lane);
            assert_eq!(got, Some(lane as f64), "lane {lane} crosswired");
        }
    }

    #[test]
    fn memory_lanes_deliver_synchronously() {
        let mut fabric = memory_lane_fabric(3);
        for lane in 0..3 {
            assert!(report(&mut fabric.proc, lane, lane as f64));
        }
        for lane in 0..3 {
            // No waiting: one drain sees the frame.
            let mut got = None;
            fabric
                .ctrl
                .drain(lane, |view| got = Some(view.value(0)))
                .unwrap();
            assert_eq!(got, Some(lane as f64));
        }
        assert!(fabric.ctrl.stats().bytes_received > 0);
    }

    #[test]
    fn a_clogged_lane_times_the_send_out_and_counts_a_drop() {
        use crate::error::TransportError;
        let mut fabric = memory_lane_fabric(1);
        let send = |engine: &mut PollEngine, n: usize| {
            let values = (0..n).map(|_| 0.5);
            engine.send(0, FrameKind::BoundaryExchange, 1, 1, 0, values)
        };
        // Nobody drains: 16 frames of 24 + 8 · 509 bytes fill the 64 KiB
        // pipe to the byte, and the next send waits its timeout out with
        // nothing written.
        let full = (0..16).try_for_each(|_| send(&mut fabric.ctrl, 509));
        assert_eq!(full, Ok(()));
        assert_eq!(send(&mut fabric.ctrl, 1), Err(TransportError::Timeout));
        assert!(fabric.ctrl.lane_connected(0), "clogged is not torn");
        // A frame the timeout cuts short is: its stump would misframe
        // everything behind it.
        let _ = fabric.proc.drain(0, |_| {});
        let cut = (0..4).find_map(|_| send(&mut fabric.ctrl, 4096).err());
        assert_eq!(cut, Some(TransportError::Timeout));
        assert!(!fabric.ctrl.lane_connected(0));
        assert_eq!(fabric.ctrl.lane_stats(0).dropped, 2);
    }

    #[test]
    fn a_severed_lane_is_re_dialed_and_a_retired_one_is_not() {
        for memory in [false, true] {
            let mut fabric = if memory {
                memory_lane_fabric(3)
            } else {
                tcp_lane_fabric(&TcpConfig::default(), 3).unwrap()
            };
            fabric.heal();
            assert!(fabric.retry_at.is_none(), "nothing to heal yet");
            fabric.proc.sever(1);
            fabric.ctrl.deregister(2);
            // Both ends of both lanes find out by using them.
            let deadline = Instant::now() + Duration::from_secs(5);
            while [1, 2].iter().any(|&l| fabric.proc.lane_connected(l))
                || fabric.ctrl.lane_connected(1)
            {
                assert!(Instant::now() < deadline, "the tear went unnoticed");
                for lane in [1, 2] {
                    report(&mut fabric.proc, lane, 0.5);
                    let _ = fabric.ctrl.drain(lane, |_| {});
                    let _ = fabric.proc.drain(lane, |_| {});
                }
            }
            // Heal passes, as a loop would make them, until lane 1 is back.
            let started = Instant::now();
            while !(fabric.ctrl.lane_connected(1) && fabric.proc.lane_connected(1)) {
                assert!(
                    started.elapsed() < Duration::from_secs(5),
                    "never re-dialed"
                );
                fabric.heal();
            }
            assert!(report(&mut fabric.proc, 1, 0.75));
            assert_eq!(recv(&mut fabric.ctrl, 1), Some(0.75));
            assert_eq!(fabric.ctrl.lane_stats(1).reconnects, 1);
            assert_eq!(fabric.proc.lane_stats(1).reconnects, 1);
            // The untouched lane kept its link; the retired one took its
            // peer with it and nothing is left to heal.
            assert_eq!(fabric.ctrl.lane_stats(0).reconnects, 0);
            assert!(!fabric.ctrl.lane_connected(2) && !fabric.proc.lane_connected(2));
            assert_eq!(fabric.ctrl.torn() + fabric.proc.torn(), 0);
            fabric.heal();
            assert!(fabric.retry_at.is_none());
            assert_eq!(fabric.proc.lane_stats(2).reconnects, 0);
        }
    }
}
