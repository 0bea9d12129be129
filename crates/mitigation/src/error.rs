//! Error type for the mitigation crate.

use std::fmt;

/// Errors from optimization problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MitigationError {
    /// No selection can block every scenario (an unmitigable fault exists).
    Infeasible,
}

impl fmt::Display for MitigationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MitigationError::Infeasible => {
                write!(f, "no mitigation selection blocks all scenarios")
            }
        }
    }
}

impl std::error::Error for MitigationError {}
