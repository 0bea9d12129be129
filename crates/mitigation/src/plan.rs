//! Multi-phase security consolidation (§IV-D).
//!
//! SMEs consolidate gradually: *"if a company has a limited budget let's
//! first deal with the most potential and severe risk and later focus on
//! the other ones."* [`consolidation_plan`] orders mitigation investments
//! into budget periods, each phase greedily maximizing marginal blocked
//! loss per cost among what the phase budget still affords.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::optimize::{Bits, Compiled};
use crate::space::MitigationProblem;

/// One consolidation phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase number (1-based).
    pub number: usize,
    /// Mitigations acquired in this phase.
    pub acquired: Vec<String>,
    /// Phase spend.
    pub spent: u64,
    /// Residual loss after this phase completes.
    pub residual_loss: u64,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase {}: acquire [{}] spend {} residual {}",
            self.number,
            self.acquired.join(", "),
            self.spent,
            self.residual_loss
        )
    }
}

/// Build a multi-phase plan: each entry of `budgets` is one period's
/// budget. Acquisition is greedy by marginal blocked-loss / cost within
/// each phase (ties go to the first candidate); already-acquired
/// mitigations persist. Unspent budget does **not** roll over
/// (conservative: SME budgets are per fiscal period).
#[must_use]
pub fn consolidation_plan(problem: &MitigationProblem, budgets: &[u64]) -> Vec<Phase> {
    let compiled = Compiled::new(problem, 0);
    let (mut owned, mut blocked) = compiled.empty();
    let mut residual = compiled.residual(&blocked);
    let mut phases = Vec::with_capacity(budgets.len());
    for (i, &budget) in budgets.iter().enumerate() {
        let mut remaining = budget;
        let mut acquired = Vec::new();
        loop {
            let mut best: Option<(f64, usize, Bits, u128)> = None;
            for (j, &cost) in compiled.costs.iter().enumerate() {
                if owned.get(j) || cost > remaining {
                    continue;
                }
                owned.set(j);
                let mut trial = blocked.clone();
                compiled.block(&mut trial, &owned, j);
                owned.clear(j);
                let trial_residual = compiled.residual(&trial);
                let gain = residual - trial_residual;
                if gain == 0 {
                    continue;
                }
                let ratio = gain as f64 / cost.max(1) as f64;
                if best.as_ref().is_none_or(|&(r, ..)| ratio > r) {
                    best = Some((ratio, j, trial, trial_residual));
                }
            }
            let Some((_, j, trial, trial_residual)) = best else {
                break;
            };
            owned.set(j);
            (blocked, residual) = (trial, trial_residual);
            acquired.push(problem.candidates[j].id.clone());
            remaining -= compiled.costs[j];
        }
        phases.push(Phase {
            number: i + 1,
            acquired,
            spent: budget - remaining,
            residual_loss: u64::try_from(residual).unwrap_or(u64::MAX),
        });
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{AttackScenario, Coverage, MitigationCandidate};

    fn problem() -> MitigationProblem {
        MitigationProblem {
            candidates: vec![
                MitigationCandidate::new("cheap_big", "Training", 50, &["f_a"]),
                MitigationCandidate::new("pricey_mid", "Endpoint", 150, &["f_b"]),
                MitigationCandidate::new("pricey_small", "Niche", 150, &["f_c"]),
            ],
            scenarios: vec![
                AttackScenario::new("s_a", &["f_a"], 1000),
                AttackScenario::new("s_b", &["f_b"], 600),
                AttackScenario::new("s_c", &["f_c"], 100),
            ],
            coverage: Coverage::Any,
            periods: 0,
        }
    }

    #[test]
    fn phases_prioritize_severe_cheap_wins() {
        let phases = consolidation_plan(&problem(), &[60, 150, 150]);
        assert_eq!(phases.len(), 3);
        // Phase 1: only the cheap high-impact mitigation fits.
        assert_eq!(phases[0].acquired, vec!["cheap_big"]);
        assert_eq!(phases[0].residual_loss, 700);
        // Phase 2: next best ratio.
        assert_eq!(phases[1].acquired, vec!["pricey_mid"]);
        assert_eq!(phases[1].residual_loss, 100);
        // Phase 3: the rest.
        assert_eq!(phases[2].acquired, vec!["pricey_small"]);
        assert_eq!(phases[2].residual_loss, 0);
    }

    #[test]
    fn residual_loss_is_monotonically_nonincreasing() {
        let phases = consolidation_plan(&problem(), &[10, 500, 10, 500]);
        for w in phases.windows(2) {
            assert!(w[1].residual_loss <= w[0].residual_loss);
        }
    }

    #[test]
    fn tiny_budgets_acquire_nothing() {
        let phases = consolidation_plan(&problem(), &[10]);
        assert!(phases[0].acquired.is_empty());
        assert_eq!(phases[0].spent, 0);
        assert_eq!(phases[0].residual_loss, 1700);
    }

    #[test]
    fn one_big_budget_buys_everything_useful() {
        let phases = consolidation_plan(&problem(), &[1000]);
        assert_eq!(phases[0].residual_loss, 0);
        assert_eq!(phases[0].acquired.len(), 3);
        assert_eq!(phases[0].spent, 350);
    }

    #[test]
    fn useless_mitigations_are_never_bought() {
        let mut p = problem();
        p.candidates
            .push(MitigationCandidate::new("noop", "Noop", 1, &["f_nothing"]));
        let phases = consolidation_plan(&p, &[1000]);
        assert!(!phases[0].acquired.contains(&"noop".to_owned()));
    }

    #[test]
    fn display_formats_phase() {
        let phases = consolidation_plan(&problem(), &[60]);
        let s = phases[0].to_string();
        assert!(s.contains("phase 1"));
        assert!(s.contains("cheap_big"));
    }
}
