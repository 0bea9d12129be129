#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Mitigation strategy design (Fig. 1, step 7; §IV-C/D).
//!
//! The attack scenario space is the input; incorporating the mitigation
//! catalog yields a *mitigation solution space* — all combinations of
//! mitigations — which the reasoning framework narrows to the most
//! cost-effective solutions. This crate provides:
//!
//! * [`space`] — the optimization problem: mitigation candidates with
//!   implementation/maintenance costs, attack scenarios with failure
//!   impact costs and attack costs, and the coverage semantics,
//! * [`optimize`] — one exact engine, a depth-first branch-and-bound over
//!   an indexed form of the problem, for the two canonical tasks: *best
//!   risk reduction under a budget constraint* ([`best_under_budget`]:
//!   least residual loss, then least cost, ties to the first selection in
//!   include-first candidate order) and *minimum-cost blocking* of every
//!   scenario ([`branch_and_bound`], the same search with no budget),
//! * [`plan`] — multi-phase security consolidation: ordering mitigation
//!   investments across budget periods by marginal risk reduction.

pub mod error;
pub mod optimize;
pub mod plan;
pub mod space;

pub use error::MitigationError;
pub use optimize::{best_under_budget, branch_and_bound};
pub use plan::{consolidation_plan, Phase};
pub use space::{AttackScenario, Coverage, MitigationCandidate, MitigationProblem, Selection};

// The unit tests share the integration tests' oracles, which name this
// crate from outside.
#[cfg(test)]
extern crate self as cpsrisk_mitigation;

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

#[cfg(test)]
mod tests {
    use crate::support::synthetic_mitigation_problem;

    #[test]
    fn synthetic_mitigation_problem_is_deterministic() {
        let a = synthetic_mitigation_problem(10, 5, 7);
        let b = synthetic_mitigation_problem(10, 5, 7);
        assert_eq!(a, b);
        assert_eq!(a.candidates.len(), 10);
        assert_eq!(a.scenarios.len(), 5);
    }
}
