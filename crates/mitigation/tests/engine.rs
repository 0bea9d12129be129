//! The exact engine against its oracles at scale: consolidation plans on
//! the compiled form equal the string-based greedy, and full-budget
//! selection stays exact past the size the exhaustive scan can reach.

mod support;

use cpsrisk_mitigation::{
    best_under_budget, branch_and_bound, consolidation_plan, Coverage, MitigationProblem,
};
use support::{
    exhaustive_best_under_budget, greedy_consolidation_plan, greedy_cover, random_problem,
    synthetic_mitigation_problem,
};

fn full_budget(p: &MitigationProblem) -> u64 {
    p.candidates
        .iter()
        .fold(0, |sum, c| sum.saturating_add(c.total_cost(p.periods)))
}

/// Random problems in both coverage modes, planned over their four oracle
/// budgets as phases (0, partial, full, full + 1) and over the reverse.
/// A failure names its seed.
#[test]
fn consolidation_plan_equals_the_greedy_oracle() {
    for seed in 0..300 {
        let (mut p, mut budgets) = random_problem(seed);
        for coverage in [Coverage::Any, Coverage::All] {
            p.coverage = coverage;
            for _ in 0..2 {
                assert_eq!(
                    consolidation_plan(&p, &budgets),
                    greedy_consolidation_plan(&p, &budgets),
                    "seed {seed}, {coverage:?}, budgets {budgets:?}: {p:?}"
                );
                budgets.reverse();
            }
        }
    }
}

#[test]
fn full_budget_selection_equals_the_scan_on_synthetic_problems() {
    for seed in [7, 8, 9] {
        let p = synthetic_mitigation_problem(12, 40, seed);
        let budget = full_budget(&p);
        assert_eq!(
            best_under_budget(&p, budget),
            exhaustive_best_under_budget(&p, budget),
            "seed {seed}"
        );
    }
}

/// Thirty candidates are 2^30 leaves for the scan; the engine still finds
/// the least residual (everything blocked) at no more than greedy set
/// cover's cost, and minimum-cost blocking agrees with it.
#[test]
fn thirty_candidates_are_solved_at_full_budget() {
    let p = synthetic_mitigation_problem(30, 40, 7);
    let sel = best_under_budget(&p, full_budget(&p));
    assert!(p.blocks_all(&sel));
    assert!(p.cost(&sel) <= p.cost(&greedy_cover(&p).unwrap()));
    assert_eq!(branch_and_bound(&p).unwrap(), sel);
}
