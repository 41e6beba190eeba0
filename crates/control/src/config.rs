//! Controller configuration.

use eucon_math::Vector;

use crate::ControlError;

/// What the prediction model assumes about control moves beyond the
/// control horizon `M`.
///
/// The paper's prose describes standard MPC (inputs held constant after
/// the control horizon), while its eq. 12 literally shows the *move*
/// `Δr(k)` being re-applied at every prediction step
/// (`u(k+2|k) = u(k) + 2FΔr(k)` for M = 1).  Both conventions are
/// implemented; [`MoveHold::Rate`] (hold the rate, moves vanish after M)
/// is the default because it reproduces the paper's measured behaviour —
/// Figure 4's divergence threshold of ≈ 6.5 matches its analytic critical
/// gain of 6.51, where the eq.-12 reading gives 9.92.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MoveHold {
    /// Hold the *rate* constant beyond the control horizon
    /// (`Δr(k+i|k) = 0` for `i ≥ M`) — standard MPC.
    Rate,
    /// Hold the *move* constant beyond the control horizon
    /// (`Δr(k+i|k) = Δr(k+M−1|k)` for `i ≥ M`) — the literal reading of
    /// the paper's eq. 12.
    Delta,
}

/// How the control-penalty term of the MPC cost is formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ControlPenalty {
    /// Penalize changes of the control input between consecutive horizon
    /// steps, `‖Δr(k+i|k) − Δr(k+i−1|k)‖²` — the paper's eq. 7/11.
    MoveDelta,
    /// Penalize the control input itself, `‖Δr(k+i|k)‖²` — a common MPC
    /// variant used here for ablation studies.
    Move,
}

/// Configuration of the EUCON model-predictive controller (paper §6.1,
/// Table 2).
///
/// # Example
///
/// ```
/// let cfg = eucon_control::MpcConfig::simple();
/// assert_eq!(cfg.prediction_horizon, 2);
/// assert_eq!(cfg.control_horizon, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MpcConfig {
    /// Prediction horizon `P`.
    pub prediction_horizon: usize,
    /// Control horizon `M` (`1 ≤ M ≤ P`).
    pub control_horizon: usize,
    /// Reference-trajectory time constant relative to the sampling period,
    /// `Tref / Ts` (paper uses 4).
    pub tref_over_ts: f64,
    /// Tracking-error weights, one per processor (`Q`); `None` means all 1.
    pub tracking_weights: Option<Vector>,
    /// Control-penalty weight (`R`); the paper uses 1.
    pub control_penalty_weight: f64,
    /// Shape of the control-penalty term.
    pub control_penalty: ControlPenalty,
    /// Prediction convention beyond the control horizon.
    pub move_hold: MoveHold,
    /// Whether to enforce the hard utilization constraints
    /// `u_i(k+j|k) ≤ B_i` in the optimization (paper eq. 1).
    pub utilization_constraints: bool,
}

impl MpcConfig {
    /// The paper's controller for the SIMPLE configuration (Table 2):
    /// `P = 2`, `M = 1`, `Tref/Ts = 4`.
    pub fn simple() -> Self {
        MpcConfig {
            prediction_horizon: 2,
            control_horizon: 1,
            tref_over_ts: 4.0,
            tracking_weights: None,
            control_penalty_weight: 1.0,
            control_penalty: ControlPenalty::MoveDelta,
            move_hold: MoveHold::Rate,
            utilization_constraints: true,
        }
    }

    /// The paper's controller for the MEDIUM configuration (Table 2):
    /// `P = 4`, `M = 2`, `Tref/Ts = 4`.
    pub fn medium() -> Self {
        MpcConfig {
            prediction_horizon: 4,
            control_horizon: 2,
            ..MpcConfig::simple()
        }
    }

    /// Sets the horizons (`1 ≤ control ≤ prediction`, checked by
    /// [`validate`](MpcConfig::validate)).
    pub fn horizons(mut self, prediction: usize, control: usize) -> Self {
        self.prediction_horizon = prediction;
        self.control_horizon = control;
        self
    }

    /// Sets per-processor tracking weights.
    pub fn tracking_weights(mut self, weights: Vector) -> Self {
        self.tracking_weights = Some(weights);
        self
    }

    /// Sets the control-penalty weight (non-negative, checked by
    /// [`validate`](MpcConfig::validate)).
    pub fn control_penalty_weight(mut self, weight: f64) -> Self {
        self.control_penalty_weight = weight;
        self
    }

    /// Sets the control-penalty shape.
    pub fn control_penalty(mut self, penalty: ControlPenalty) -> Self {
        self.control_penalty = penalty;
        self
    }

    /// Sets the beyond-horizon prediction convention.
    pub fn move_hold(mut self, hold: MoveHold) -> Self {
        self.move_hold = hold;
        self
    }

    /// Enables or disables the hard utilization constraints.
    pub fn utilization_constraints(mut self, enabled: bool) -> Self {
        self.utilization_constraints = enabled;
        self
    }

    /// The per-step decay of the exponential reference trajectory,
    /// `λ = e^{−Ts/Tref}` (paper eq. 8).
    pub fn reference_decay(&self) -> f64 {
        (-1.0 / self.tref_over_ts).exp()
    }

    /// Checks every field for a controller of `num_processors`
    /// processors: `1 ≤ M ≤ P`, a positive finite `Tref/Ts`, a finite
    /// non-negative penalty weight, and tracking weights (when given) one
    /// per processor, each finite and non-negative.
    ///
    /// # Errors
    ///
    /// [`ControlError::Config`] naming the first field out of its domain.
    pub fn validate(&self, num_processors: usize) -> Result<(), ControlError> {
        let (p, m) = (self.prediction_horizon, self.control_horizon);
        let (tref, w) = (self.tref_over_ts, self.control_penalty_weight);
        let q = self.tracking_weights.as_ref();
        let non_negative = |v: f64| v >= 0.0 && v.is_finite();
        let bad_weight = q.and_then(|q| q.iter().position(|&v| !non_negative(v)));
        let msg = if p == 0 {
            "prediction_horizon must be at least 1, got 0".to_string()
        } else if m == 0 || m > p {
            format!("control_horizon must be in 1..=prediction_horizon ({p}), got {m}")
        } else if !(tref > 0.0 && tref.is_finite()) {
            format!("tref_over_ts must be positive and finite, got {tref}")
        } else if !non_negative(w) {
            format!("control_penalty_weight must be non-negative and finite, got {w}")
        } else if let Some(q) = q.filter(|q| q.len() != num_processors) {
            format!(
                "tracking_weights needs one per processor, got {} for {num_processors}",
                q.len()
            )
        } else if let (Some(q), Some(i)) = (q, bad_weight) {
            format!(
                "tracking_weights[{i}] must be non-negative and finite, got {}",
                q[i]
            )
        } else {
            return Ok(());
        };
        Err(ControlError::Config(msg))
    }
}

impl Default for MpcConfig {
    fn default() -> Self {
        MpcConfig::simple()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_values() {
        let s = MpcConfig::simple();
        assert_eq!((s.prediction_horizon, s.control_horizon), (2, 1));
        assert_eq!(s.tref_over_ts, 4.0);
        let m = MpcConfig::medium();
        assert_eq!((m.prediction_horizon, m.control_horizon), (4, 2));
    }

    #[test]
    fn reference_decay_matches_formula() {
        let cfg = MpcConfig::simple();
        assert!((cfg.reference_decay() - (-0.25f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn horizons_validated() {
        let err = MpcConfig::simple().horizons(2, 3).validate(2).unwrap_err();
        assert!(err.to_string().contains("control_horizon"), "{err}");
    }

    #[test]
    fn validate_names_the_field_out_of_its_domain() {
        let cases: [(&str, MpcConfig); 9] = [
            (
                "prediction_horizon",
                MpcConfig {
                    prediction_horizon: 0,
                    ..MpcConfig::simple()
                },
            ),
            (
                "control_horizon",
                MpcConfig {
                    control_horizon: 0,
                    ..MpcConfig::simple()
                },
            ),
            (
                "control_horizon",
                MpcConfig {
                    control_horizon: 3,
                    ..MpcConfig::simple()
                },
            ),
            (
                "tref_over_ts",
                MpcConfig {
                    tref_over_ts: f64::NAN,
                    ..MpcConfig::simple()
                },
            ),
            (
                "tref_over_ts",
                MpcConfig {
                    tref_over_ts: 0.0,
                    ..MpcConfig::simple()
                },
            ),
            (
                "control_penalty_weight",
                MpcConfig {
                    control_penalty_weight: -1.0,
                    ..MpcConfig::simple()
                },
            ),
            (
                "control_penalty_weight",
                MpcConfig {
                    control_penalty_weight: f64::INFINITY,
                    ..MpcConfig::simple()
                },
            ),
            (
                "tracking_weights needs",
                MpcConfig::simple().tracking_weights(Vector::from_slice(&[1.0])),
            ),
            (
                "tracking_weights[1]",
                MpcConfig::simple().tracking_weights(Vector::from_slice(&[1.0, -1.0])),
            ),
        ];
        for (field, cfg) in cases {
            match cfg.validate(2) {
                Err(ControlError::Config(msg)) => assert!(msg.starts_with(field), "{msg}"),
                other => panic!("{cfg:?}: {other:?}"),
            }
        }
        let zero_weight = MpcConfig::simple().tracking_weights(Vector::from_slice(&[0.0, 1.0]));
        assert_eq!(zero_weight.validate(2), Ok(()));
    }

    #[test]
    fn builder_methods() {
        let cfg = MpcConfig::simple()
            .horizons(6, 3)
            .control_penalty_weight(0.5)
            .control_penalty(ControlPenalty::Move)
            .utilization_constraints(false)
            .tracking_weights(Vector::from_slice(&[2.0, 1.0]));
        cfg.validate(2).unwrap();
        assert_eq!(cfg.prediction_horizon, 6);
        assert_eq!(cfg.control_penalty, ControlPenalty::Move);
        assert!(!cfg.utilization_constraints);
        assert_eq!(cfg.tracking_weights.unwrap().as_slice(), &[2.0, 1.0]);
    }
}
