//! Validation errors for simulator-side configuration.

use std::error::Error;
use std::fmt;

/// A [`FaultPlan`](crate::FaultPlan) (or other simulator-side
/// configuration) failed validation.
///
/// Fault plans are built fluently without panicking; the loop builder
/// validates the assembled plan against the deployed processor count via
/// [`FaultPlan::validate`](crate::FaultPlan::validate) and surfaces these
/// errors instead of crashing mid-experiment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A fault window names a processor outside the deployed set.
    ProcessorOutOfRange {
        /// Which kind of fault ("crash", "burst", "sensor", "partition").
        fault: &'static str,
        /// The offending processor id.
        processor: usize,
        /// Number of processors actually deployed.
        num_processors: usize,
    },
    /// A fault window is empty or inverted (`from ≥ until`).
    EmptyWindow {
        /// Which kind of fault the window belongs to.
        fault: &'static str,
        /// The processor the window targets.
        processor: usize,
        /// First period of the window.
        from: usize,
        /// One past the last period of the window.
        until: usize,
    },
    /// Two windows of the same fault kind overlap on one processor.
    ///
    /// Overlap is ambiguous for crashes, sensor faults and partitions
    /// (which window's semantics win?).  Execution-time bursts are exempt:
    /// overlapping bursts compound multiplicatively by design.
    OverlappingWindows {
        /// Which kind of fault overlaps.
        fault: &'static str,
        /// The processor both windows target.
        processor: usize,
        /// The `[from, until)` bounds of the earlier window.
        first: (usize, usize),
        /// The `[from, until)` bounds of the later, overlapping window.
        second: (usize, usize),
    },
    /// A per-processor list does not hold one entry per deployed
    /// processor.
    WrongArity {
        /// Which list ("processor_speeds").
        what: &'static str,
        /// Entries the list holds.
        got: usize,
        /// Number of processors actually deployed.
        num_processors: usize,
    },
    /// An execution-time factor (a burst's, or a processor's speed) is
    /// not positive and finite.
    InvalidFactor {
        /// The offending factor.
        value: f64,
    },
    /// A probability parameter is outside its documented range.
    InvalidProbability {
        /// Which parameter ("crash", "recovery").
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A parameter of the [`ExecModel`](crate::ExecModel) is outside its
    /// documented range: a `Uniform` half-width outside `(0, 1)`, a
    /// `Bimodal` mode that is not positive and finite, or a `p_high`
    /// outside `[0, 1]`.
    InvalidExecModel {
        /// Which parameter ("half_width", "low", "high", "p_high").
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ProcessorOutOfRange {
                fault,
                processor,
                num_processors,
            } => write!(
                f,
                "{fault} window targets processor {processor}, but only \
                 {num_processors} processors are deployed"
            ),
            SimError::EmptyWindow {
                fault,
                processor,
                from,
                until,
            } => write!(
                f,
                "{fault} window [{from}, {until}) on processor {processor} \
                 is empty or inverted"
            ),
            SimError::OverlappingWindows {
                fault,
                processor,
                first,
                second,
            } => write!(
                f,
                "{fault} windows [{}, {}) and [{}, {}) overlap on processor \
                 {processor}",
                first.0, first.1, second.0, second.1
            ),
            SimError::WrongArity {
                what,
                got,
                num_processors,
            } => write!(
                f,
                "{what} needs one entry per processor: got {got} for \
                 {num_processors} processors"
            ),
            SimError::InvalidFactor { value } => write!(
                f,
                "execution-time factor must be positive and finite, got {value}"
            ),
            SimError::InvalidProbability { what, value } => {
                write!(f, "{what} probability out of range: {value}")
            }
            SimError::InvalidExecModel { what, value } => {
                write!(f, "execution-time model {what} out of range: {value}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_offending_values() {
        let e = SimError::ProcessorOutOfRange {
            fault: "crash",
            processor: 7,
            num_processors: 3,
        };
        assert!(e.to_string().contains("processor 7"));
        assert!(e.to_string().contains("3 processors"));
        let e = SimError::EmptyWindow {
            fault: "sensor",
            processor: 0,
            from: 10,
            until: 10,
        };
        assert!(e.to_string().contains("[10, 10)"));
        let e = SimError::OverlappingWindows {
            fault: "partition",
            processor: 1,
            first: (0, 5),
            second: (3, 8),
        };
        assert!(e.to_string().contains("overlap"));
        let e = SimError::InvalidFactor { value: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e = SimError::InvalidProbability {
            what: "crash",
            value: 1.5,
        };
        assert!(e.to_string().contains("crash"));
        assert!(Error::source(&e).is_none());
        let e = SimError::InvalidExecModel {
            what: "half_width",
            value: 1.5,
        };
        assert!(e.to_string().contains("half_width"));
        assert!(e.to_string().contains("1.5"));
    }
}
