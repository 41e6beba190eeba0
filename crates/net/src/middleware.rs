//! Lane middleware: network effects composed over any backend.
//!
//! [`DelayLossGate`] is the workspace's one delay/loss queue: a FIFO
//! that holds each item for a fixed number of ticks and consults the
//! loss probability once per item, only at the moment the item actually
//! crosses the lane (after its delay elapses).  It never looks inside
//! what it carries, so the same gate holds wire [`Frame`]s in front of a
//! transport and bare utilization vectors inside the single-process
//! loop's `LaneModel` — with the same seed both see the same sequence of
//! loss decisions, because there is only one draw site.
//!
//! [`DelayLoss`] layers a gate over any [`Transport`], so delayed and
//! lossy lanes are a property of the *lane*: the same middleware wraps
//! an in-process channel in tests and a real TCP lane in a deployment.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::TransportError;
use crate::frame::Frame;
use crate::transport::{Transport, TransportStats};

/// The delay/loss decision core: a FIFO of in-flight items released by
/// [`DelayLossGate::tick`], each crossing item drawing the loss
/// probability exactly once at release time.
///
/// Knows nothing about transports or payloads — the caller supplies the
/// delivery action.  [`DelayLoss`] layers a `DelayLossGate<Frame>` over
/// a [`Transport`]; the distributed runtime puts one in front of each
/// lane direction; the single-process loop's lane model runs one over
/// whole utilization vectors.
#[derive(Debug)]
pub struct DelayLossGate<T = Frame> {
    /// Whole ticks each frame spends in flight.
    delay: usize,
    /// Per-frame drop probability in `[0, 1)`.
    loss_probability: f64,
    rng: StdRng,
    /// Frames not yet released (oldest first); length ≤ delay + 1.
    in_flight: VecDeque<T>,
    /// Frames dropped on a loss draw.
    lost: u64,
    /// Frames accepted for sending.
    accepted: u64,
}

impl<T> DelayLossGate<T> {
    /// A gate with `delay` ticks of latency and per-frame loss
    /// probability `loss_probability` drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ loss_probability < 1` (loop builders validate
    /// their lane models first, so no builder input reaches this).
    pub fn new(delay: usize, loss_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss_probability),
            "loss probability must be in [0, 1)"
        );
        DelayLossGate {
            delay,
            loss_probability,
            rng: StdRng::seed_from_u64(seed),
            in_flight: VecDeque::new(),
            lost: 0,
            accepted: 0,
        }
    }

    /// Whether the gate is a no-op (zero delay, zero loss): offered
    /// frames should cross immediately without queuing.
    pub fn is_transparent(&self) -> bool {
        self.delay == 0 && self.loss_probability == 0.0
    }

    /// Whole ticks each frame spends in flight.
    pub fn delay(&self) -> usize {
        self.delay
    }

    /// Accepts a frame.  Returns `Some(frame)` when it should cross the
    /// lane immediately (the transparent configuration); otherwise the
    /// frame is queued until its delay elapses.
    pub fn offer(&mut self, frame: T) -> Option<T> {
        self.accepted += 1;
        if self.is_transparent() {
            return Some(frame);
        }
        self.in_flight.push_back(frame);
        None
    }

    /// Advances the gate's clock by one tick: every frame whose delay has
    /// elapsed either crosses (via `deliver`) or is dropped on its loss
    /// draw.
    pub fn tick(&mut self, mut deliver: impl FnMut(T)) {
        while self.in_flight.len() > self.delay {
            let frame = self.in_flight.pop_front().expect("len checked");
            let dropped =
                self.loss_probability > 0.0 && self.rng.gen::<f64>() < self.loss_probability;
            if dropped {
                self.lost += 1;
            } else {
                deliver(frame);
            }
        }
    }

    /// Frames accepted for sending so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Frames dropped on a loss draw so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

/// A lane that delays every frame by a fixed number of ticks and drops
/// each crossing frame independently with a configured probability.
///
/// [`Transport::tick`] is the middleware's clock: the loop runtime calls
/// it once per sampling period, which releases frames whose delay has
/// elapsed into the underlying backend (or drops them on a loss draw).
#[derive(Debug)]
pub struct DelayLoss<T> {
    inner: T,
    gate: DelayLossGate<Frame>,
}

impl<T: Transport> DelayLoss<T> {
    /// Wraps `inner` with `delay` ticks of latency and per-frame loss
    /// probability `loss_probability` drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ loss_probability < 1`.
    pub fn new(inner: T, delay: usize, loss_probability: f64, seed: u64) -> Self {
        DelayLoss {
            inner,
            gate: DelayLossGate::new(delay, loss_probability, seed),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for DelayLoss<T> {
    fn send(&mut self, frame: Frame) -> Result<(), TransportError> {
        if let Some(frame) = self.gate.offer(frame) {
            // Transparent configuration: straight through.
            return self.inner.send(frame);
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Frame>, TransportError> {
        self.inner.try_recv()
    }

    fn tick(&mut self) {
        let inner = &mut self.inner;
        self.gate.tick(|frame| {
            // A full inner queue applies its own backpressure policy;
            // that is not a loss-model drop, so the error is ignored
            // here and shows up in the inner stats instead.
            let _ = inner.send(frame);
        });
        self.inner.tick();
    }

    fn stats(&self) -> TransportStats {
        let mut stats = self.inner.stats();
        // The inner backend never saw lost or still-delayed frames, so
        // report sends as what this layer accepted and fold the losses in.
        stats.sent = self.gate.accepted();
        stats.dropped += self.gate.lost();
        stats
    }

    fn name(&self) -> &'static str {
        "delay-loss"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_pair;

    fn report(seq: u64) -> Frame {
        Frame::UtilizationReport {
            seq,
            period: seq,
            values: vec![seq as f64],
        }
    }

    #[test]
    fn zero_config_is_transparent() {
        let (tx, mut rx) = channel_pair(8);
        let mut lane = DelayLoss::new(tx, 0, 0.0, 0);
        lane.send(report(1)).unwrap();
        // No tick needed: passthrough.
        assert_eq!(rx.try_recv().unwrap().unwrap().seq(), 1);
    }

    #[test]
    fn delay_holds_frames_for_d_ticks() {
        let (tx, mut rx) = channel_pair(8);
        let mut lane = DelayLoss::new(tx, 2, 0.0, 0);
        for seq in 1..=4 {
            lane.send(report(seq)).unwrap();
            lane.tick();
        }
        // After 4 send+tick rounds with delay 2, frames 1 and 2 crossed.
        assert_eq!(rx.try_recv().unwrap().unwrap().seq(), 1);
        assert_eq!(rx.try_recv().unwrap().unwrap().seq(), 2);
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn loss_draws_follow_the_seed() {
        // Oracle: replicate the draw sequence with the same RNG.
        let p = 0.4;
        let seed = 42;
        let mut oracle = StdRng::seed_from_u64(seed);
        let (tx, mut rx) = channel_pair(1024);
        let mut lane = DelayLoss::new(tx, 0, p, seed);
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for seq in 0..500u64 {
            let delivered = oracle.gen::<f64>() >= p;
            if delivered {
                expected.push(seq);
            }
            lane.send(report(seq)).unwrap();
            lane.tick();
            if let Some(f) = rx.try_recv().unwrap() {
                got.push(f.seq());
            }
        }
        assert_eq!(got, expected);
        assert_eq!(lane.stats().dropped, 500 - expected.len() as u64);
        assert_eq!(lane.stats().sent, 500);
    }

    #[test]
    fn no_draws_before_frames_cross() {
        // With delay 3, the first 3 ticks must not consume RNG draws.
        let p = 0.5;
        let seed = 9;
        let (tx, _rx) = channel_pair(64);
        let mut lane = DelayLoss::new(tx, 3, p, seed);
        for seq in 0..3 {
            lane.send(report(seq)).unwrap();
            lane.tick();
        }
        // The lane's RNG must still be at its initial state: the fourth
        // send+tick releases frame 0 with the seed's *first* draw.
        let mut oracle = StdRng::seed_from_u64(seed);
        let first_draw_drops = oracle.gen::<f64>() < p;
        lane.send(report(3)).unwrap();
        lane.tick();
        assert_eq!(lane.stats().dropped, u64::from(first_draw_drops));
    }

    #[test]
    fn bare_gate_matches_the_wrapped_middleware_draw_for_draw() {
        // The same seed must produce the same delivery sequence whether
        // the gate runs inside DelayLoss or standalone (the poll path).
        let (p, seed, delay) = (0.35, 123, 1);
        let (tx, mut rx) = channel_pair(1024);
        let mut wrapped = DelayLoss::new(tx, delay, p, seed);
        let mut bare = DelayLossGate::new(delay, p, seed);
        let mut bare_got = Vec::new();
        let mut wrapped_got = Vec::new();
        for seq in 0..200u64 {
            wrapped.send(report(seq)).unwrap();
            wrapped.tick();
            while let Ok(Some(f)) = rx.try_recv() {
                wrapped_got.push(f.seq());
            }
            if let Some(f) = bare.offer(report(seq)) {
                bare_got.push(f.seq());
            }
            bare.tick(|f| bare_got.push(f.seq()));
        }
        assert_eq!(bare_got, wrapped_got);
        assert_eq!(bare.lost(), wrapped.stats().dropped);
        assert_eq!(bare.accepted(), 200);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_probability_rejected() {
        let (tx, _rx) = channel_pair(1);
        let _ = DelayLoss::new(tx, 0, 1.0, 0);
    }
}
