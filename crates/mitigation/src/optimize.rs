//! The exact mitigation optimizer (§IV-D).
//!
//! One engine answers both canonical tasks:
//!
//! 1. **Budget-constrained risk reduction** ([`best_under_budget`]) —
//!    minimize residual loss with total mitigation cost ≤ budget.
//! 2. **Minimum-cost blocking** ([`branch_and_bound`]) — the same search
//!    with no budget, every scenario weighing at least 1, so that a zero
//!    residual means every scenario is blocked.
//!
//! Each call compiles the problem once into an indexed form (candidate
//! costs, one scenario bitset per candidate and, for [`Coverage::All`],
//! the candidate sets each scenario needs in full) and searches it depth
//! first. Costs and losses are summed exactly (in `u128`), so no selection
//! looks cheaper than it is when large costs would overflow a `u64`.

use std::collections::BTreeMap;

use crate::error::MitigationError;
use crate::space::{Coverage, MitigationProblem, Selection};

/// A fixed-width bitset over scenario or candidate indices.
#[derive(Clone)]
pub(crate) struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Self {
        Bits(vec![0; len.div_ceil(64)])
    }

    pub(crate) fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn is_subset(&self, of: &Bits) -> bool {
        self.0.iter().zip(&of.0).all(|(a, b)| a & !b == 0)
    }

    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.0.len() * 64).filter(|&i| self.get(i))
    }
}

/// A [`MitigationProblem`] compiled for search. Scenarios of zero weight
/// are dropped: no selection changes what they add to the residual.
pub(crate) struct Compiled {
    /// Total cost of each candidate over the problem's periods.
    pub(crate) costs: Vec<u64>,
    /// Weight of each kept scenario.
    weights: Vec<u64>,
    /// Per candidate: the kept scenarios it blocks a fault of.
    touches: Vec<Bits>,
    /// [`Coverage::All`] only: per kept scenario, one candidate set per
    /// blockable fault; the scenario is blocked once any set is selected.
    needs: Option<Vec<Vec<Bits>>>,
}

impl Compiled {
    /// Compiles `problem`, weighing each scenario `loss.max(min_weight)`.
    pub(crate) fn new(problem: &MitigationProblem, min_weight: u64) -> Self {
        let n = problem.candidates.len();
        let mut blockers: BTreeMap<&str, Bits> = BTreeMap::new();
        for (i, c) in problem.candidates.iter().enumerate() {
            for f in &c.blocks {
                blockers.entry(f).or_insert_with(|| Bits::new(n)).set(i);
            }
        }
        let kept: Vec<_> = (problem.scenarios.iter())
            .map(|s| (s, s.loss.max(min_weight)))
            .filter(|&(_, w)| w > 0)
            .collect();
        let mut touches = vec![Bits::new(kept.len()); n];
        let mut needs = Vec::with_capacity(kept.len());
        for (i, (s, _)) in kept.iter().enumerate() {
            let sets: Vec<Bits> = s
                .faults
                .iter()
                .filter_map(|f| blockers.get(f.as_str()))
                .cloned()
                .collect();
            for c in sets.iter().flat_map(Bits::ones) {
                touches[c].set(i);
            }
            needs.push(sets);
        }
        Compiled {
            costs: (problem.candidates.iter())
                .map(|c| c.total_cost(problem.periods))
                .collect(),
            weights: kept.iter().map(|&(_, w)| w).collect(),
            touches,
            needs: (problem.coverage == Coverage::All).then_some(needs),
        }
    }

    /// The empty candidate and scenario sets.
    pub(crate) fn empty(&self) -> (Bits, Bits) {
        (Bits::new(self.costs.len()), Bits::new(self.weights.len()))
    }

    /// Updates `blocked` after candidate `j` joined `selected`.
    pub(crate) fn block(&self, blocked: &mut Bits, selected: &Bits, j: usize) {
        match &self.needs {
            None => {
                for (b, t) in blocked.0.iter_mut().zip(&self.touches[j].0) {
                    *b |= t;
                }
            }
            Some(needs) => {
                for s in self.touches[j].ones() {
                    if needs[s].iter().any(|set| set.is_subset(selected)) {
                        blocked.set(s);
                    }
                }
            }
        }
    }

    /// Summed weight of the scenarios outside `blocked`.
    pub(crate) fn residual(&self, blocked: &Bits) -> u128 {
        (self.weights.iter().enumerate())
            .filter(|&(s, _)| !blocked.get(s))
            .map(|(_, &w)| u128::from(w))
            .sum()
    }

    /// The selection of least (residual, cost) within `budget`, and its
    /// residual.
    fn optimize(&self, problem: &MitigationProblem, budget: u128) -> (u128, Selection) {
        let (selected, blocked) = self.empty();
        let mut search = Search {
            compiled: self,
            budget,
            best: (u128::MAX, u128::MAX, selected.clone()),
            selected,
        };
        search.dfs(0, 0, &blocked);
        let (residual, _, best) = search.best;
        let ids = best.ones().map(|i| problem.candidates[i].id.clone());
        (residual, Selection { ids: ids.collect() })
    }
}

/// Depth-first branch-and-bound state: the current selection and the
/// incumbent (residual, cost, selection).
struct Search<'a> {
    compiled: &'a Compiled,
    budget: u128,
    selected: Bits,
    best: (u128, u128, Bits),
}

impl Search<'_> {
    /// Decides candidates `j..` given the current selection, its cost and
    /// the scenarios it blocks. Candidates are tried in order, include
    /// first, so leaves are met in the order of the exhaustive scan.
    fn dfs(&mut self, j: usize, cost: u128, blocked: &Bits) {
        let c = self.compiled;
        // Lower bound: the residual left by adding every later candidate
        // that still fits. Blocking only grows with the selection, so no
        // leaf below does better. A leaf below that ties the incumbent
        // comes later in scan order and loses the tie.
        let mut reach = blocked.clone();
        let mut with = self.selected.clone();
        for k in j..c.costs.len() {
            if cost + u128::from(c.costs[k]) <= self.budget {
                with.set(k);
                c.block(&mut reach, &with, k);
            }
        }
        let bound = c.residual(&reach);
        if (bound, cost) >= (self.best.0, self.best.1) {
            return;
        }
        if j == c.costs.len() {
            self.best = (bound, cost, self.selected.clone());
            return;
        }
        let cost_j = u128::from(c.costs[j]);
        let fits = cost + cost_j <= self.budget;
        // A candidate that blocks no scenario still open helps no leaf
        // below: paid for, it only adds cost, so it is skipped; free, it
        // ties every leaf without it, and the scan meets the leaf with it
        // first, so it is taken.
        let useful = !c.touches[j].is_subset(blocked);
        if fits && (useful || cost_j == 0) {
            self.selected.set(j);
            let mut next = blocked.clone();
            c.block(&mut next, &self.selected, j);
            self.dfs(j + 1, cost + cost_j, &next);
            self.selected.clear(j);
        }
        if !fits || useful || cost_j > 0 {
            self.dfs(j + 1, cost, blocked);
        }
    }
}

/// Minimum-cost selection blocking every scenario: [`best_under_budget`]'s
/// engine with no budget, every scenario weighing at least 1.
///
/// # Errors
///
/// [`MitigationError::Infeasible`] if no selection blocks everything.
pub fn branch_and_bound(problem: &MitigationProblem) -> Result<Selection, MitigationError> {
    match Compiled::new(problem, 1).optimize(problem, u128::MAX) {
        (0, selection) => Ok(selection),
        _ => Err(MitigationError::Infeasible),
    }
}

/// Exact best selection under a budget. Scenarios that cannot be blocked
/// at any price simply stay in the residual.
///
/// **Objective:** among the selections whose total cost is at most
/// `budget`, the least residual loss, then the least cost.
///
/// **Tie-break:** among equal optima, the first in include-first order over
/// the candidates: of two selections, the one that selects their first
/// differing candidate comes first. So every free candidate is selected.
///
/// Candidate ids are assumed unique.
#[must_use]
pub fn best_under_budget(problem: &MitigationProblem, budget: u64) -> Selection {
    (Compiled::new(problem, 0).optimize(problem, u128::from(budget))).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{AttackScenario, MitigationCandidate};
    use crate::support::{greedy_cover, min_cost_blocking_asp};

    fn problem() -> MitigationProblem {
        MitigationProblem {
            candidates: vec![
                MitigationCandidate::new("m1", "Training", 40, &["f_phish"]),
                MitigationCandidate::new("m2", "Endpoint", 120, &["f_phish", "f_malware"]),
                MitigationCandidate::new("m3", "Segmentation", 200, &["f_lateral"]),
                MitigationCandidate::new("m4", "AllInOne", 230, &["f_phish", "f_lateral"]),
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
    fn branch_and_bound_finds_the_optimum() {
        let sel = branch_and_bound(&problem()).unwrap();
        // Cheapest blocking: m4 (230) blocks both chains; m1+m3 = 240.
        assert_eq!(sel, Selection::of(&["m4"]));
        assert_eq!(problem().cost(&sel), 230);
    }

    #[test]
    fn asp_backend_agrees_with_exact() {
        let p = problem();
        let exact = branch_and_bound(&p).unwrap();
        let asp = min_cost_blocking_asp(&p).unwrap();
        assert_eq!(p.cost(&asp), p.cost(&exact), "same optimal cost");
        assert!(p.blocks_all(&asp));
    }

    #[test]
    fn asp_backend_handles_all_coverage() {
        let mut p = problem();
        p.coverage = Coverage::All;
        let exact = branch_and_bound(&p).unwrap();
        let asp = min_cost_blocking_asp(&p).unwrap();
        assert_eq!(p.cost(&asp), p.cost(&exact));
        assert!(p.blocks_all(&asp));
    }

    #[test]
    fn greedy_is_feasible_but_may_be_suboptimal() {
        let p = problem();
        let sel = greedy_cover(&p).unwrap();
        assert!(p.blocks_all(&sel));
        assert!(p.cost(&sel) >= 230, "never beats the optimum");
    }

    #[test]
    fn infeasible_problems_are_reported() {
        let mut p = problem();
        p.scenarios
            .push(AttackScenario::new("s_unstoppable", &["f_unknown"], 9999));
        assert!(matches!(
            branch_and_bound(&p),
            Err(MitigationError::Infeasible)
        ));
        assert!(matches!(greedy_cover(&p), Err(MitigationError::Infeasible)));
        assert!(matches!(
            min_cost_blocking_asp(&p),
            Err(MitigationError::Infeasible)
        ));
    }

    #[test]
    fn budget_constrained_selection_trades_off() {
        let p = problem();
        // Budget too small for everything: block the 1000-loss chain first.
        let sel = best_under_budget(&p, 100);
        assert_eq!(sel, Selection::of(&["m1"]));
        assert_eq!(p.residual_loss(&sel), 500);
        // Bigger budget: block everything with m4.
        let sel2 = best_under_budget(&p, 230);
        assert_eq!(p.residual_loss(&sel2), 0);
        // Zero budget: nothing selected.
        let sel3 = best_under_budget(&p, 0);
        assert!(sel3.ids.is_empty());
    }

    #[test]
    fn budget_ties_break_toward_lower_cost() {
        let p = problem();
        // Huge budget: residual 0 reachable by m4 (230) or m1+m3 (240) or
        // supersets; the cheapest must win.
        let sel = best_under_budget(&p, 10_000);
        assert_eq!(p.residual_loss(&sel), 0);
        assert_eq!(p.cost(&sel), 230);
    }

    #[test]
    fn blocking_ignores_zero_loss_only_under_a_budget() {
        let mut p = problem();
        p.scenarios
            .push(AttackScenario::new("s_free", &["f_malware"], 0));
        // The zero-loss scenario adds nothing to the residual...
        assert_eq!(best_under_budget(&p, 10_000), Selection::of(&["m4"]));
        // ...but blocking every scenario must cover it too.
        let sel = branch_and_bound(&p).unwrap();
        assert!(p.blocks_all(&sel));
        assert_eq!(sel, Selection::of(&["m2", "m3"]));
    }

    #[test]
    fn costs_past_u64_max_are_not_affordable_together() {
        let mut p = problem();
        for c in &mut p.candidates {
            c.cost = u64::MAX;
        }
        // Any one candidate fits a u64::MAX budget, no two do.
        let sel = best_under_budget(&p, u64::MAX);
        assert_eq!(sel, Selection::of(&["m4"]));
        assert_eq!(p.residual_loss(&sel), 0);
        assert_eq!(sel, branch_and_bound(&p).unwrap());
    }
}
