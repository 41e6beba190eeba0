//! Transport-equivalence tests: the distributed loop is the single-process
//! loop, observationally.
//!
//! Two pins:
//!
//! 1. **Golden hashes** — a distributed [`ClosedLoop`] over ideal in-process channel
//!    lanes must reproduce the *same* FNV-1a trace hashes the
//!    single-process engine pins in `engine_equivalence` (shared via
//!    `trace_hash/`): splitting the loop into controller and processor
//!    nodes exchanging binary frames may not perturb a single bit.
//!
//! 2. **Draw-for-draw lane model** — the transport-level [`DelayLoss`]
//!    middleware over a channel must agree with the in-loop [`LaneState`]
//!    reference semantics on every period: same seed → same loss draws,
//!    same delivered values, bit-for-bit, for arbitrary delay/loss
//!    configurations (property-tested).
//!
//! [`ClosedLoop`]: eucon_core::ClosedLoop

mod trace_hash;

use eucon_core::net::{channel_pair, DelayLoss, Frame, Transport};
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

/// What a controller holding the last delivery sees after this period's
/// frames (if any) are drained from a lane — the distributed runtime's
/// stale-reuse semantics on a single scalar lane.
fn drain_into_hold<T: Transport>(rx: &mut T, hold: &mut f64) {
    while let Ok(Some(frame)) = rx.try_recv() {
        if let Frame::UtilizationReport { values, .. } = frame {
            *hold = values[0];
        }
    }
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
        let (tx, mut rx) = channel_pair(64);
        let mut middleware = DelayLoss::new(tx, delay, p, seed);
        // Before anything crosses either lane, the controller sees zeros.
        let mut hold = 0.0f64;
        for (k, &x) in samples.iter().enumerate() {
            let fresh = Vector::from_slice(&[x]);
            // Reference: `None` means the lane delivered `fresh` unchanged.
            let reference = lane.transmit(&fresh).map_or(x, |v| v[0]);
            middleware
                .send(Frame::UtilizationReport {
                    seq: k as u64 + 1,
                    period: k as u64,
                    values: vec![x],
                })
                .unwrap();
            middleware.tick();
            drain_into_hold(&mut rx, &mut hold);
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
        prop_assert_eq!(middleware.stats().sent, samples.len() as u64);
    }
}
