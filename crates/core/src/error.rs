//! Error type for the orchestration crate.

use std::error::Error;
use std::fmt;

use eucon_control::ControlError;
use eucon_net::TransportError;
use eucon_sim::SimError;
use eucon_tasks::TaskError;

/// Errors produced while assembling or running closed-loop experiments.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Controller construction or update failed.
    Control(ControlError),
    /// The workload definition was invalid.
    Task(TaskError),
    /// A builder input failed validation (non-finite set point,
    /// non-positive sampling period, degenerate rate quantization, ...).
    Config(String),
    /// Setting up or operating the feedback-lane transport failed
    /// (binding the loopback sockets, a torn-down channel peer, ...).
    Transport(TransportError),
    /// A fault plan or the simulator configuration failed validation —
    /// out-of-range processor, empty/inverted window, ambiguous overlap,
    /// out-of-range probability, a speed list of the wrong length.
    Sim(SimError),
    /// A telemetry recording fed to the replay plant failed to decode
    /// against the supported schema version, or did not match the
    /// workload it was asked to drive.
    Replay(crate::replay::ReplayError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Control(e) => write!(f, "controller failure: {e}"),
            CoreError::Task(e) => write!(f, "invalid workload: {e}"),
            CoreError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Transport(e) => write!(f, "feedback-lane transport failure: {e}"),
            CoreError::Sim(e) => write!(f, "simulator configuration failed validation: {e}"),
            CoreError::Replay(e) => write!(f, "invalid replay recording: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Control(e) => Some(e),
            CoreError::Task(e) => Some(e),
            CoreError::Config(_) => None,
            CoreError::Transport(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Replay(e) => Some(e),
        }
    }
}

#[doc(hidden)]
impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

#[doc(hidden)]
impl From<TransportError> for CoreError {
    fn from(e: TransportError) -> Self {
        CoreError::Transport(e)
    }
}

#[doc(hidden)]
impl From<ControlError> for CoreError {
    fn from(e: ControlError) -> Self {
        CoreError::Control(e)
    }
}

#[doc(hidden)]
impl From<TaskError> for CoreError {
    fn from(e: TaskError) -> Self {
        CoreError::Task(e)
    }
}

#[doc(hidden)]
impl From<crate::replay::ReplayError> for CoreError {
    fn from(e: crate::replay::ReplayError) -> Self {
        CoreError::Replay(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::Task(TaskError::EmptyTaskSet);
        assert!(e.to_string().contains("no tasks"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn config_errors_carry_their_message() {
        let e = CoreError::Config("sampling period must be positive".into());
        assert!(e.to_string().contains("invalid configuration"));
        assert!(e.to_string().contains("sampling period"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn sim_errors_wrap_with_source() {
        let e = CoreError::Sim(SimError::InvalidProbability {
            what: "actuation loss",
            value: 2.0,
        });
        assert!(e
            .to_string()
            .contains("simulator configuration failed validation"));
        assert!(Error::source(&e).is_some());
    }
}
