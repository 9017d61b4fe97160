//! Unified error type for the fallible core placement APIs.

use std::fmt;

/// Error from the core placement pipeline: LP relaxation, randomized
/// rounding, and the high-level [`crate::place`] entry points.
///
/// Invalid *user-supplied* inputs (a non-stochastic fractional placement,
/// mismatched dimensions, a zero repetition count) are reported as values
/// rather than panics, so callers embedding the library can surface them;
/// internal invariant violations still panic.
#[derive(Debug, Clone, PartialEq)]
pub enum CcaError {
    /// The LP relaxation failed (infeasible capacities, iteration limit,
    /// numerical trouble).
    Lp(cca_lp::LpError),
    /// A fractional placement was not (approximately) row-stochastic; call
    /// [`crate::FractionalPlacement::normalise`] first.
    NotStochastic,
    /// Two inputs disagree on a dimension (object or node count).
    DimensionMismatch {
        /// Which dimension disagrees (e.g. `"object count"`).
        what: &'static str,
        /// The value the problem implies.
        expected: usize,
        /// The value the other input carries.
        actual: usize,
    },
    /// Best-of rounding was asked for zero repetitions.
    NoRepetitions,
    /// Randomized rounding exhausted its step cap — the fractional input
    /// passed the stochasticity check but still failed to place every
    /// object (astronomically unlikely for valid rows).
    RoundingDiverged {
        /// Steps performed before giving up.
        steps: usize,
    },
    /// The problem instance itself is invalid (zero-size object, all-zero
    /// capacities, bad pair weights, ...).
    Problem(crate::problem::ProblemError),
}

impl fmt::Display for CcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcaError::Lp(e) => write!(f, "LP relaxation failed: {e}"),
            CcaError::NotStochastic => {
                f.write_str("fractional placement must be row-stochastic; call normalise() first")
            }
            CcaError::DimensionMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} mismatch: expected {expected}, got {actual}"),
            CcaError::NoRepetitions => f.write_str("need at least one rounding repetition"),
            CcaError::RoundingDiverged { steps } => {
                write!(f, "rounding failed to converge after {steps} steps")
            }
            CcaError::Problem(e) => write!(f, "invalid problem: {e}"),
        }
    }
}

impl std::error::Error for CcaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CcaError::Lp(e) => Some(e),
            CcaError::Problem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cca_lp::LpError> for CcaError {
    fn from(e: cca_lp::LpError) -> Self {
        CcaError::Lp(e)
    }
}

impl From<crate::problem::ProblemError> for CcaError {
    fn from(e: crate::problem::ProblemError) -> Self {
        CcaError::Problem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CcaError::Lp(cca_lp::LpError::Infeasible)
            .to_string()
            .contains("infeasible"));
        assert!(CcaError::NotStochastic
            .to_string()
            .contains("row-stochastic"));
        let e = CcaError::DimensionMismatch {
            what: "object count",
            expected: 3,
            actual: 5,
        };
        assert_eq!(e.to_string(), "object count mismatch: expected 3, got 5");
        assert!(CcaError::NoRepetitions.to_string().contains("repetition"));
        assert!(CcaError::RoundingDiverged { steps: 9 }
            .to_string()
            .contains("9"));
    }

    #[test]
    fn lp_errors_convert_and_chain() {
        let e: CcaError = cca_lp::LpError::Unbounded.into();
        assert_eq!(e, CcaError::Lp(cca_lp::LpError::Unbounded));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&CcaError::NoRepetitions).is_none());
    }

    #[test]
    fn problem_errors_convert_and_chain() {
        let e: CcaError = crate::problem::ProblemError::ZeroCapacity.into();
        assert!(e.to_string().contains("zero capacity"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
