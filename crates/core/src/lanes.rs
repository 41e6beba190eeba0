//! Feedback-lane network model.
//!
//! The paper's architecture (§4) connects the controller to each
//! processor's utilization monitor and rate modulator through a dedicated
//! TCP connection (a *feedback lane*) and ignores network effects in its
//! evaluation.  This module models what the paper abstracts away, so the
//! robustness of the loop to realistic lanes can be measured:
//!
//! * **report delay** — utilization samples arrive `d` sampling periods
//!   late (the controller acts on `u(k − d)`);
//! * **report loss** — with probability `p` a period's report is dropped,
//!   in which case the controller re-uses the last delivered sample
//!   (TCP-style: the stale value persists rather than vanishing).
//!
//! The closed loop applies the model symmetrically cheaply: delayed
//! reports are the dominant effect, and actuation delay composes into the
//! same loop delay, so a single `report_delay` knob captures both.
//!
//! The queue and the loss draws are `eucon-net`'s [`DelayLossGate`] — the
//! same gate that sits in front of the real transport lanes in
//! distributed mode — so a single-process loop over a [`LaneModel`] and a
//! distributed loop over the same model see the same network, draw for
//! draw.  [`LaneState`] adds only what a controller-side receiver adds:
//! the hold value a lost or late report falls back to.

use eucon_math::Vector;
use eucon_net::DelayLossGate;

use crate::CoreError;

/// Configuration of the feedback lanes between monitors and controller.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneModel {
    /// Whole sampling periods of delay on utilization reports (0 = the
    /// paper's idealized lanes).
    pub report_delay: usize,
    /// Probability that a period's report is lost, in `[0, 1)`.
    pub loss_probability: f64,
    /// RNG seed for loss draws.
    pub seed: u64,
}

impl LaneModel {
    /// The paper's idealization: zero delay, zero loss.
    pub fn ideal() -> Self {
        LaneModel {
            report_delay: 0,
            loss_probability: 0.0,
            seed: 0,
        }
    }

    /// Lanes with a fixed report delay (in sampling periods).
    pub fn delayed(periods: usize) -> Self {
        LaneModel {
            report_delay: periods,
            ..LaneModel::ideal()
        }
    }

    /// Lanes dropping each report independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn lossy(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1)"
        );
        LaneModel {
            report_delay: 0,
            loss_probability: p,
            seed,
        }
    }
}

impl LaneModel {
    /// Checks the model's domain — the one validation every loop builder
    /// option carrying a lane model goes through (`what` names the
    /// option in the error).
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] unless the loss probability lies in
    /// `[0, 1)` (`NaN` is rejected).
    pub fn validate(&self, what: &str) -> Result<(), CoreError> {
        if (0.0..1.0).contains(&self.loss_probability) {
            Ok(())
        } else {
            Err(CoreError::Config(format!(
                "{what}: loss probability must be in [0, 1), got {}",
                self.loss_probability
            )))
        }
    }
}

impl Default for LaneModel {
    fn default() -> Self {
        LaneModel::ideal()
    }
}

/// Run-time state of the lane model inside a closed loop: the whole
/// report vector crossing one [`DelayLossGate`], plus the receiver's hold
/// value.
#[derive(Debug)]
pub struct LaneState {
    gate: DelayLossGate<Vector>,
    /// Last report actually delivered to the controller.
    last_delivered: Option<Vector>,
}

impl LaneState {
    /// Fresh lane state for a model (seeds the loss RNG).
    ///
    /// # Panics
    ///
    /// Panics on a model [`LaneModel::validate`] rejects; the loop
    /// builder validates first.
    pub fn new(model: LaneModel) -> Self {
        LaneState {
            gate: DelayLossGate::new(model.report_delay, model.loss_probability, model.seed),
            last_delivered: None,
        }
    }

    /// Pushes this period's measurement and returns what the controller
    /// receives.
    ///
    /// Borrows the fresh measurement: `None` means the lane delivered it
    /// unchanged this period (the caller keeps using its own vector — the
    /// ideal-lane hot path never clones), `Some(v)` carries a mutated
    /// delivery (delayed or stale report).
    ///
    /// Call exactly once per sampling period — the loss draws are
    /// consumed in period order.
    pub fn transmit(&mut self, fresh: &Vector) -> Option<Vector> {
        if self.gate.is_transparent() {
            // Ideal lanes: transparent, allocation-free.
            return None;
        }
        // Queued: only a transparent gate passes an offer straight through.
        let _ = self.gate.offer(fresh.clone());
        let mut crossed = None;
        self.gate.tick(|report| crossed = Some(report));
        match crossed {
            Some(report) => {
                let unchanged = self.gate.delay() == 0;
                self.last_delivered = Some(report.clone());
                if unchanged {
                    None
                } else {
                    Some(report)
                }
            }
            // Dropped on its loss draw, or nothing has crossed the lane
            // yet: the controller keeps the previous value.
            None => Some(
                self.last_delivered
                    .clone()
                    .unwrap_or_else(|| Vector::zeros(fresh.len())),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64) -> Vector {
        Vector::from_slice(&[x])
    }

    /// What the controller ends up seeing for a transmission.
    fn seen(lane: &mut LaneState, x: f64) -> f64 {
        let fresh = v(x);
        lane.transmit(&fresh).unwrap_or(fresh)[0]
    }

    #[test]
    fn ideal_lane_is_transparent_without_cloning() {
        let mut lane = LaneState::new(LaneModel::ideal());
        // `None` = delivered unchanged; the caller's vector is the delivery.
        assert!(lane.transmit(&v(0.5)).is_none());
        assert!(lane.transmit(&v(0.7)).is_none());
    }

    #[test]
    fn delay_shifts_reports() {
        let mut lane = LaneState::new(LaneModel::delayed(2));
        // Until the pipe fills, the controller sees zeros.
        assert_eq!(seen(&mut lane, 0.1), 0.0);
        assert_eq!(seen(&mut lane, 0.2), 0.0);
        // Then reports arrive in order, two periods late.
        assert_eq!(seen(&mut lane, 0.3), 0.1);
        assert_eq!(seen(&mut lane, 0.4), 0.2);
    }

    #[test]
    fn total_loss_freezes_the_last_delivery() {
        // p ≈ 1 is rejected, but a high p with a seed that always drops
        // after the first delivery shows the stale-value behaviour.
        let mut lane = LaneState::new(LaneModel {
            report_delay: 0,
            loss_probability: 0.99,
            seed: 3,
        });
        let first = seen(&mut lane, 0.5);
        // All subsequent values are frozen at whatever got through (0.5 or
        // 0.0 if even the first was dropped).
        for _ in 0..20 {
            let got = seen(&mut lane, 0.9);
            assert!(got == first || got == 0.5 || got == 0.0);
            assert_ne!(
                got, 0.9,
                "a 99% lossy lane should effectively never deliver"
            );
        }
    }

    #[test]
    fn moderate_loss_delivers_most_reports() {
        let mut lane = LaneState::new(LaneModel::lossy(0.2, 7));
        let mut delivered_fresh = 0;
        for k in 0..1000 {
            let x = k as f64;
            if seen(&mut lane, x) == x {
                delivered_fresh += 1;
            }
        }
        assert!(
            (700..=900).contains(&delivered_fresh),
            "got {delivered_fresh}"
        );
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_probability_rejected() {
        let _ = LaneModel::lossy(1.0, 0);
    }
}
