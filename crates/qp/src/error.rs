//! Error type for the QP solvers.

use std::error::Error;
use std::fmt;

use eucon_math::MathError;

/// Errors produced by the constrained optimization solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QpError {
    /// The constraint set is empty: no `x` satisfies every inequality.
    Infeasible,
    /// The Hessian `H` (or `CᵀC` for least squares) is not positive
    /// definite, so the problem is not strictly convex.
    NotStrictlyConvex,
    /// Inputs had inconsistent dimensions.
    DimensionMismatch(String),
    /// The solver exceeded its iteration budget without converging.
    IterationLimit {
        /// Number of active-set changes attempted.
        iterations: usize,
    },
    /// An input has a NaN or infinite entry: the constraint or objective
    /// matrix at construction, or a per-solve vector.  Such a value would not fail
    /// loudly on its own: a NaN in `G` or the right-hand side silently
    /// drops its constraint, one infinity makes the feasibility tolerance
    /// infinite and disables all of them, and a non-finite linear term
    /// comes back as a non-finite "minimizer".
    NonFiniteInput {
        /// Which input: `"g"` (constraint matrix), `"c"` (objective
        /// matrix), `"f"` (linear term), `"h"` (constraint right-hand side)
        /// or `"d"` (least-squares target).
        what: &'static str,
        /// Position of the first offending entry (row-major for a matrix).
        index: usize,
    },
    /// An underlying linear-algebra operation failed.
    Math(MathError),
}

impl fmt::Display for QpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QpError::Infeasible => write!(f, "constraints are infeasible"),
            QpError::NotStrictlyConvex => {
                write!(
                    f,
                    "objective is not strictly convex (hessian not positive definite)"
                )
            }
            QpError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            QpError::IterationLimit { iterations } => {
                write!(
                    f,
                    "active-set iteration limit reached after {iterations} steps"
                )
            }
            QpError::NonFiniteInput { what, index } => {
                write!(f, "input {what}[{index}] is not finite")
            }
            QpError::Math(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for QpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QpError::Math(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<MathError> for QpError {
    fn from(e: MathError) -> Self {
        QpError::Math(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            QpError::Infeasible.to_string(),
            "constraints are infeasible"
        );
        assert!(QpError::IterationLimit { iterations: 5 }
            .to_string()
            .contains("5"));
        assert!(QpError::Math(MathError::Singular)
            .to_string()
            .contains("singular"));
        assert_eq!(
            QpError::NonFiniteInput {
                what: "h",
                index: 3
            }
            .to_string(),
            "input h[3] is not finite"
        );
    }

    #[test]
    fn source_chains_math_errors() {
        let err = QpError::Math(MathError::Singular);
        assert!(Error::source(&err).is_some());
        assert!(Error::source(&QpError::Infeasible).is_none());
    }

    #[test]
    fn from_math_error() {
        let err: QpError = MathError::Singular.into();
        assert_eq!(err, QpError::Math(MathError::Singular));
    }
}
