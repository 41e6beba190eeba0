//! Error type for controllers.

use std::error::Error;
use std::fmt;

use eucon_math::MathError;
use eucon_qp::QpError;

/// Errors produced by the controllers in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControlError {
    /// Inputs had inconsistent dimensions.
    DimensionMismatch(String),
    /// A configuration value is outside its domain; the message names
    /// the field ([`MpcConfig::validate`](crate::MpcConfig::validate),
    /// [`SupervisorConfig::validate`](crate::SupervisorConfig::validate)).
    Config(String),
    /// A utilization sample was rejected before reaching the optimizer
    /// (non-finite — a corrupted or dead monitor).  Feeding such a sample
    /// into the QP would poison the warm-started active set for every
    /// future period, so controllers refuse it up front.
    InvalidSample(String),
    /// The constrained optimization failed (including genuine
    /// infeasibility after all fallbacks).
    Optimization(QpError),
    /// A linear-algebra operation failed (stability analysis).
    Math(MathError),
    /// The controller cannot perform the requested operation — e.g. a
    /// runtime membership change on a controller without a plant model,
    /// or while a supervisory wrapper holds the loop in safe mode.
    Unsupported(String),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            ControlError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            ControlError::InvalidSample(msg) => write!(f, "invalid utilization sample: {msg}"),
            ControlError::Optimization(e) => write!(f, "optimization failed: {e}"),
            ControlError::Math(e) => write!(f, "linear algebra failure: {e}"),
            ControlError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
        }
    }
}

impl Error for ControlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ControlError::Optimization(e) => Some(e),
            ControlError::Math(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<QpError> for ControlError {
    fn from(e: QpError) -> Self {
        ControlError::Optimization(e)
    }
}

#[doc(hidden)]
impl From<MathError> for ControlError {
    fn from(e: MathError) -> Self {
        ControlError::Math(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ControlError::Optimization(QpError::Infeasible);
        assert!(e.to_string().contains("infeasible"));
        assert!(Error::source(&e).is_some());
        let e = ControlError::DimensionMismatch("x".into());
        assert!(Error::source(&e).is_none());
        let e = ControlError::InvalidSample("u[0] = NaN".into());
        assert!(e.to_string().contains("invalid utilization sample"));
        assert!(Error::source(&e).is_none());
        let e = ControlError::Config("slew must be in (0, 1], got 0".into());
        assert!(e.to_string().contains("invalid configuration: slew"));
        assert!(Error::source(&e).is_none());
        let e = ControlError::Unsupported("membership changes".into());
        assert!(e.to_string().contains("unsupported operation"));
        assert!(Error::source(&e).is_none());
    }
}
