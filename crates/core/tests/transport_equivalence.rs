//! Transport-equivalence tests: the distributed loop is the single-process
//! loop, observationally.
//!
//! Two pins:
//!
//! 1. **Golden hashes** — a distributed [`ClosedLoop`] over ideal lanes,
//!    in-memory and loopback TCP, must reproduce the *same* FNV-1a trace
//!    hashes the single-process engine pins in `engine_equivalence`
//!    (shared via `trace_hash/`): splitting the loop into controller and
//!    processor nodes exchanging binary frames may not perturb a single
//!    bit.
//!
//! 2. **Draw-for-draw lane model** — a [`DelayLossGate`] of wire frames
//!    in front of an in-memory lane must agree with the in-loop
//!    [`LaneState`] reference semantics on every period: same seed →
//!    same loss draws, same delivered values, bit-for-bit, for arbitrary
//!    delay/loss configurations (property-tested).
//!
//! [`ClosedLoop`]: eucon_core::ClosedLoop

mod trace_hash;

use eucon_core::net::{memory_lane_fabric, DelayLossGate, Frame, FrameKind};
use eucon_core::{LaneModel, LaneState};
use eucon_math::Vector;
use proptest::prelude::*;
use trace_hash::{hash_result, Scenario};

#[test]
fn distributed_golden_simple_fault_free() {
    let s = Scenario::SimpleFaultFree;
    assert_eq!(hash_result(&s.run_distributed_channel()), s.golden());
}

#[test]
fn distributed_golden_medium_fault_free() {
    let s = Scenario::MediumFaultFree;
    assert_eq!(hash_result(&s.run_distributed_channel()), s.golden());
}

#[test]
fn distributed_golden_simple_faulted() {
    let s = Scenario::SimpleFaulted;
    assert_eq!(hash_result(&s.run_distributed_channel()), s.golden());
}

#[test]
fn distributed_golden_medium_faulted() {
    let s = Scenario::MediumFaulted;
    assert_eq!(hash_result(&s.run_distributed_channel()), s.golden());
}

#[test]
fn poll_engine_golden_simple_fault_free() {
    let s = Scenario::SimpleFaultFree;
    assert_eq!(hash_result(&s.run_distributed_poll()), s.golden());
}

#[test]
fn poll_engine_golden_medium_fault_free() {
    let s = Scenario::MediumFaultFree;
    assert_eq!(hash_result(&s.run_distributed_poll()), s.golden());
}

#[test]
fn poll_engine_golden_simple_faulted() {
    let s = Scenario::SimpleFaulted;
    assert_eq!(hash_result(&s.run_distributed_poll()), s.golden());
}

#[test]
fn poll_engine_golden_medium_faulted() {
    let s = Scenario::MediumFaulted;
    assert_eq!(hash_result(&s.run_distributed_poll()), s.golden());
}

proptest! {
    #[test]
    fn delay_loss_middleware_matches_lane_state_draw_for_draw(
        delay in 0usize..4,
        p in 0.0f64..0.9,
        seed in 0u64..1_000_000,
        samples in proptest::collection::vec(0.0f64..1.0, 48),
    ) {
        let mut lane = LaneState::new(LaneModel {
            report_delay: delay,
            loss_probability: p,
            seed,
        });
        let mut fabric = memory_lane_fabric(1);
        let mut gate = DelayLossGate::new(delay, p, seed);
        // Before anything crosses either lane, the controller sees zeros.
        let mut hold = 0.0f64;
        for (k, &x) in samples.iter().enumerate() {
            let fresh = Vector::from_slice(&[x]);
            // Reference: `None` means the lane delivered `fresh` unchanged.
            let reference = lane.transmit(&fresh).map_or(x, |v| v[0]);
            let kind = FrameKind::UtilizationReport;
            let frame = Frame::new(kind, k as u64 + 1, k as u64, 0, vec![x]);
            // Offer, tick, drain: the distributed runtime's period, and
            // its stale-reuse semantics on a single scalar lane.
            let proc = &mut fabric.proc;
            if let Some(frame) = gate.offer(frame) {
                proc.send_frame(0, &frame).unwrap();
            }
            gate.tick(|frame| proc.send_frame(0, &frame).unwrap());
            fabric.ctrl.drain(0, |view| hold = view.value(0)).unwrap();
            prop_assert_eq!(
                hold.to_bits(),
                reference.to_bits(),
                "period {}: middleware delivered {} but LaneState delivered {}",
                k,
                hold,
                reference
            );
        }
        // Both models drew from the same seed the same number of times:
        // loss counts agree exactly.
        prop_assert_eq!(gate.accepted(), samples.len() as u64);
        prop_assert_eq!(gate.lost() + fabric.ctrl.stats().received, (samples.len() - delay) as u64);
    }
}
