//! The mitigation optimization problem.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A deployable mitigation with its costs (§IV-D: the total cost of
/// ownership includes the maintenance of the protection).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MitigationCandidate {
    /// Id (ASP-safe).
    pub id: String,
    /// Human-readable name.
    pub name: String,
    /// One-off implementation cost.
    pub cost: u64,
    /// Recurring maintenance cost per period.
    pub maintenance_cost: u64,
    /// Fault ids this mitigation blocks.
    pub blocks: BTreeSet<String>,
}

impl MitigationCandidate {
    /// A candidate blocking the given faults.
    #[must_use]
    pub fn new(id: &str, name: &str, cost: u64, blocks: &[&str]) -> Self {
        MitigationCandidate {
            id: id.into(),
            name: name.into(),
            cost,
            maintenance_cost: 0,
            blocks: blocks.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// Total cost over `periods` maintenance periods, saturating at
    /// `u64::MAX` instead of overflowing.
    #[must_use]
    pub fn total_cost(&self, periods: u64) -> u64 {
        self.cost
            .saturating_add(self.maintenance_cost.saturating_mul(periods))
    }
}

/// An attack scenario to defend against: the fault combination it
/// activates, the loss it causes if successful (failure impact cost), and
/// the resources the attacker must spend (attack cost).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackScenario {
    /// Scenario id.
    pub id: String,
    /// The faults the attack activates; blocking **any one** of them
    /// breaks the attack chain.
    pub faults: BTreeSet<String>,
    /// Failure impact cost (loss) of the successful attack.
    pub loss: u64,
    /// Resources the attacker must expend.
    pub attack_cost: u64,
}

impl AttackScenario {
    /// A scenario over fault ids with a loss value.
    #[must_use]
    pub fn new(id: &str, faults: &[&str], loss: u64) -> Self {
        AttackScenario {
            id: id.into(),
            faults: faults.iter().map(|s| (*s).to_owned()).collect(),
            loss,
            attack_cost: 0,
        }
    }
}

/// Coverage semantics for *blocking a fault*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Coverage {
    /// A fault is blocked when **at least one** selected mitigation blocks
    /// it (standard attack-coverage semantics; default).
    #[default]
    Any,
    /// Listing-1 semantics: a fault is blocked only when **every**
    /// applicable mitigation is selected.
    All,
}

/// The optimization problem.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MitigationProblem {
    /// Available mitigations.
    pub candidates: Vec<MitigationCandidate>,
    /// Scenarios to defend against.
    pub scenarios: Vec<AttackScenario>,
    /// Fault-blocking semantics.
    pub coverage: Coverage,
    /// Maintenance periods included in cost comparisons.
    pub periods: u64,
}

/// A selected set of mitigations.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Selection {
    /// Selected mitigation ids.
    pub ids: BTreeSet<String>,
}

impl Selection {
    /// An empty selection.
    #[must_use]
    pub fn empty() -> Self {
        Selection::default()
    }

    /// A selection of ids.
    #[must_use]
    pub fn of(ids: &[&str]) -> Self {
        Selection {
            ids: ids.iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{}}}",
            self.ids.iter().cloned().collect::<Vec<_>>().join(",")
        )
    }
}

impl MitigationProblem {
    /// Total (implementation + maintenance) cost of a selection,
    /// saturating at `u64::MAX`.
    #[must_use]
    pub fn cost(&self, selection: &Selection) -> u64 {
        self.candidates
            .iter()
            .filter(|c| selection.ids.contains(&c.id))
            .fold(0, |sum, c| sum.saturating_add(c.total_cost(self.periods)))
    }

    /// Is `fault` blocked by the selection under the coverage semantics?
    #[must_use]
    pub fn fault_blocked(&self, selection: &Selection, fault: &str) -> bool {
        let applicable: Vec<&MitigationCandidate> = self
            .candidates
            .iter()
            .filter(|c| c.blocks.contains(fault))
            .collect();
        if applicable.is_empty() {
            return false;
        }
        match self.coverage {
            Coverage::Any => applicable.iter().any(|c| selection.ids.contains(&c.id)),
            Coverage::All => applicable.iter().all(|c| selection.ids.contains(&c.id)),
        }
    }

    /// Is the scenario blocked (some fault of its chain blocked)?
    #[must_use]
    pub fn scenario_blocked(&self, selection: &Selection, scenario: &AttackScenario) -> bool {
        scenario
            .faults
            .iter()
            .any(|f| self.fault_blocked(selection, f))
    }

    /// Residual loss: the summed losses of scenarios the selection fails to
    /// block, saturating at `u64::MAX`.
    #[must_use]
    pub fn residual_loss(&self, selection: &Selection) -> u64 {
        self.scenarios
            .iter()
            .filter(|s| !self.scenario_blocked(selection, s))
            .fold(0, |sum, s| sum.saturating_add(s.loss))
    }

    /// Does the selection block every scenario?
    #[must_use]
    pub fn blocks_all(&self, selection: &Selection) -> bool {
        self.scenarios
            .iter()
            .all(|s| self.scenario_blocked(selection, s))
    }

    /// Scenarios feasible for an attacker with the given resources
    /// (attack-cost filter, §IV-D).
    #[must_use]
    pub fn feasible_scenarios(&self, attacker_resources: u64) -> Vec<&AttackScenario> {
        self.scenarios
            .iter()
            .filter(|s| s.attack_cost <= attacker_resources)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> MitigationProblem {
        MitigationProblem {
            candidates: vec![
                MitigationCandidate::new("m1", "User Training", 40, &["f_phish"]),
                MitigationCandidate::new("m2", "Endpoint Security", 120, &["f_phish", "f_malware"]),
                MitigationCandidate::new("m3", "Segmentation", 200, &["f_lateral"]),
            ],
            scenarios: vec![
                AttackScenario::new("s_mail", &["f_phish", "f_malware"], 1000),
                AttackScenario::new("s_worm", &["f_lateral"], 500),
            ],
            coverage: Coverage::Any,
            periods: 0,
        }
    }

    #[test]
    fn any_coverage_blocks_with_one_mitigation() {
        let p = problem();
        let sel = Selection::of(&["m1"]);
        assert!(p.fault_blocked(&sel, "f_phish"));
        assert!(!p.fault_blocked(&sel, "f_malware"));
        assert!(
            p.scenario_blocked(&sel, &p.scenarios[0]),
            "chain broken at phishing"
        );
        assert!(!p.scenario_blocked(&sel, &p.scenarios[1]));
    }

    #[test]
    fn all_coverage_follows_listing_one() {
        let mut p = problem();
        p.coverage = Coverage::All;
        // f_phish has two applicable mitigations: both required.
        assert!(!p.fault_blocked(&Selection::of(&["m1"]), "f_phish"));
        assert!(p.fault_blocked(&Selection::of(&["m1", "m2"]), "f_phish"));
    }

    #[test]
    fn unmitigable_faults_are_never_blocked() {
        let p = problem();
        assert!(!p.fault_blocked(&Selection::of(&["m1", "m2", "m3"]), "f_unknown"));
    }

    #[test]
    fn costs_and_residuals() {
        let p = problem();
        assert_eq!(p.cost(&Selection::of(&["m1", "m3"])), 240);
        assert_eq!(p.residual_loss(&Selection::empty()), 1500);
        assert_eq!(p.residual_loss(&Selection::of(&["m1"])), 500);
        assert!(p.blocks_all(&Selection::of(&["m1", "m3"])));
    }

    #[test]
    fn maintenance_periods_enter_total_cost() {
        let mut p = problem();
        p.periods = 3;
        p.candidates[0].maintenance_cost = 10;
        assert_eq!(p.cost(&Selection::of(&["m1"])), 40 + 30);
    }

    #[test]
    fn attack_cost_filters_feasible_scenarios() {
        let mut p = problem();
        p.scenarios[0].attack_cost = 800;
        p.scenarios[1].attack_cost = 50;
        let feasible = p.feasible_scenarios(100);
        assert_eq!(feasible.len(), 1);
        assert_eq!(feasible[0].id, "s_worm");
    }
}
