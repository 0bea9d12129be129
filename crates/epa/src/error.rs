//! Error type for the EPA crate.

use std::fmt;

/// Errors from problem construction, encoding and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum EpaError {
    /// A fault/mitigation/requirement references an unknown entity.
    UnknownReference(String),
    /// A fault id was declared twice.
    DuplicateFault(String),
    /// The underlying ASP engine failed.
    Asp(cpsrisk_asp::AspError),
    /// The model failed validation.
    Model(cpsrisk_model::ModelError),
    /// The temporal unrolling failed.
    Temporal(cpsrisk_temporal::TemporalError),
    /// The analysis found no models where at least one was expected.
    NoModel,
    /// Behavioural analysis needs a behaviour machine for a component.
    MissingBehavior(String),
    /// A margin query reached a session built without an attacker budget.
    NoMarginBudget {
        /// The query's starting scenario.
        scenario: crate::scenario::Scenario,
        /// The query's targeted requirement id.
        requirement: String,
    },
    /// A sweep query panicked; the sweep caught the panic in that query's
    /// slot and went on.
    QueryPanicked {
        /// The query's index in the sweep's input.
        index: usize,
        /// The panic's message.
        message: String,
    },
}

impl fmt::Display for EpaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpaError::UnknownReference(r) => write!(f, "unknown reference `{r}`"),
            EpaError::DuplicateFault(id) => write!(f, "duplicate fault id `{id}`"),
            EpaError::Asp(e) => write!(f, "asp error: {e}"),
            EpaError::Model(e) => write!(f, "model error: {e}"),
            EpaError::Temporal(e) => write!(f, "temporal error: {e}"),
            EpaError::NoModel => write!(f, "analysis produced no model"),
            EpaError::MissingBehavior(c) => {
                write!(
                    f,
                    "component `{c}` has no behaviour machine for detailed analysis"
                )
            }
            EpaError::NoMarginBudget {
                scenario,
                requirement,
            } => write!(
                f,
                "margin query on `{requirement}` from scenario {scenario}: \
                 the session was built without an attacker budget"
            ),
            EpaError::QueryPanicked { index, message } => {
                write!(f, "sweep query {index} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for EpaError {}

impl From<cpsrisk_asp::AspError> for EpaError {
    fn from(e: cpsrisk_asp::AspError) -> Self {
        EpaError::Asp(e)
    }
}

impl From<cpsrisk_model::ModelError> for EpaError {
    fn from(e: cpsrisk_model::ModelError) -> Self {
        EpaError::Model(e)
    }
}

impl From<cpsrisk_temporal::TemporalError> for EpaError {
    fn from(e: cpsrisk_temporal::TemporalError) -> Self {
        EpaError::Temporal(e)
    }
}
