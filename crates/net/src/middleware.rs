//! Lane effects: the one delay/loss queue of the workspace.
//!
//! [`DelayLossGate`] is a FIFO that holds each item for a fixed number
//! of ticks and consults the loss probability once per item, only at the
//! moment the item actually crosses the lane (after its delay elapses).
//! It never looks inside what it carries and knows nothing about links:
//! one gate holds the wire [`Frame`]s of one direction of one lane in
//! front of a lane engine's sending end, and every lane model in the
//! workspace — report and command lanes, shard boundary lanes — draws its
//! losses here, at the one draw site.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::Frame;

/// The delay/loss decision core: a FIFO of in-flight items released by
/// [`DelayLossGate::tick`], each crossing item drawing the loss
/// probability exactly once at release time.
///
/// The caller supplies the delivery action: the distributed runtime and
/// the shard boundary bus put a `DelayLossGate<Frame>` in front of each
/// direction of each lane and deliver into
/// [`PollEngine::send_frame`](crate::PollEngine::send_frame).
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One offer and one tick per item of `seqs`; what crossed, in order.
    fn run(gate: &mut DelayLossGate<u64>, seqs: std::ops::Range<u64>) -> Vec<u64> {
        let mut got = Vec::new();
        for seq in seqs {
            got.extend(gate.offer(seq));
            gate.tick(|seq| got.push(seq));
        }
        got
    }

    #[test]
    fn zero_config_is_transparent() {
        let mut gate = DelayLossGate::new(0, 0.0, 0);
        // No tick needed: passthrough.
        assert_eq!(gate.offer(1u64), Some(1));
        gate.tick(|_| panic!("a transparent gate queues nothing"));
    }

    #[test]
    fn delay_holds_frames_for_d_ticks() {
        let mut gate = DelayLossGate::new(2, 0.0, 0);
        // After 4 offer+tick rounds with delay 2, items 1 and 2 crossed.
        assert_eq!(run(&mut gate, 1..5), [1, 2]);
    }

    #[test]
    fn loss_draws_follow_the_seed() {
        // Oracle: replicate the draw sequence with the same RNG.
        let (p, seed) = (0.4, 42);
        let mut oracle = StdRng::seed_from_u64(seed);
        let expected: Vec<u64> = (0..500).filter(|_| oracle.gen::<f64>() >= p).collect();
        let mut gate = DelayLossGate::new(0, p, seed);
        assert_eq!(run(&mut gate, 0..500), expected);
        assert_eq!(gate.lost(), 500 - expected.len() as u64);
        assert_eq!(gate.accepted(), 500);
    }

    #[test]
    fn no_draws_before_frames_cross() {
        // With delay 3, the first 3 ticks must not consume RNG draws.
        let (p, seed) = (0.5, 9);
        let mut gate = DelayLossGate::new(3, p, seed);
        assert!(run(&mut gate, 0..3).is_empty());
        // The gate's RNG must still be at its initial state: the fourth
        // offer+tick releases item 0 with the seed's *first* draw.
        let first_draw_drops = StdRng::seed_from_u64(seed).gen::<f64>() < p;
        run(&mut gate, 3..4);
        assert_eq!(gate.lost(), u64::from(first_draw_drops));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_probability_rejected() {
        let _ = DelayLossGate::<u64>::new(0, 1.0, 0);
    }
}
