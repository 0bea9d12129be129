//! Test support: workload generators and the oracles the exact engine is
//! checked against. The oracles are the optimizers the engine replaced:
//! the exhaustive include/exclude scan, greedy set cover, the ASP
//! `#minimize` encoding and the string-based greedy consolidation plan.
//! They work on the problem's strings, sharing no code with the engine's
//! compiled form.

#![allow(dead_code)]

use std::collections::BTreeSet;

use cpsrisk_asp::builder::pos;
use cpsrisk_asp::{Grounder, ProgramBuilder, SolveOptions, Solver, Term};
use cpsrisk_mitigation::{
    AttackScenario, Coverage, MitigationCandidate, MitigationError, MitigationProblem, Phase,
    Selection,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic mitigation problem with `n_mit` candidates and `n_scen`
/// scenarios over a small fault vocabulary, deterministic per seed.
#[must_use]
pub fn synthetic_mitigation_problem(n_mit: usize, n_scen: usize, seed: u64) -> MitigationProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let faults: Vec<String> = (0..12).map(|i| format!("f{i}")).collect();
    let candidates: Vec<MitigationCandidate> = (0..n_mit)
        .map(|i| {
            let k = rng.gen_range(1..4);
            let blocks: Vec<&str> = (0..k)
                .map(|_| faults[rng.gen_range(0..faults.len())].as_str())
                .collect();
            MitigationCandidate::new(
                &format!("m{i}"),
                &format!("Mitigation {i}"),
                10 + rng.gen_range(0..300),
                &blocks,
            )
        })
        .collect();
    // Scenarios draw their faults from the blockable set so min-cost
    // blocking instances are feasible by construction.
    let blockable: Vec<String> = {
        let mut v: Vec<String> = candidates
            .iter()
            .flat_map(|c| c.blocks.iter().cloned())
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let scenarios = (0..n_scen)
        .map(|i| {
            let k = rng.gen_range(1..4);
            let fs: Vec<&str> = (0..k)
                .map(|_| blockable[rng.gen_range(0..blockable.len())].as_str())
                .collect();
            AttackScenario::new(&format!("s{i}"), &fs, 100 + rng.gen_range(0..5000))
        })
        .collect();
    MitigationProblem {
        candidates,
        scenarios,
        coverage: Coverage::Any,
        periods: 0,
    }
}

/// A random [`Coverage::Any`] problem for the oracle tests, and the
/// budgets to try on it.
///
/// Up to 12 candidates over faults `f0`..`f5`; scenarios may also name
/// `f6`, which nothing blocks. 0–3 periods, some maintenance costs, free candidates, candidates that copy an earlier
/// one's faults (ties), now and then a `u64::MAX` cost, and zero losses.
/// Budgets: 0, a random partial one, the full cost and the full cost + 1.
#[must_use]
pub fn random_problem(seed: u64) -> (MitigationProblem, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..=12);
    let mut candidates: Vec<MitigationCandidate> = Vec::with_capacity(n);
    for i in 0..n {
        let blocks: BTreeSet<String> = if i > 0 && rng.gen_bool(0.25) {
            candidates[rng.gen_range(0..i)].blocks.clone()
        } else {
            (0..rng.gen_range(1..=3))
                .map(|_| format!("f{}", rng.gen_range(0..6)))
                .collect()
        };
        let cost = match rng.gen_range(0..20) {
            0..=2 => 0,
            3 => u64::MAX,
            _ => rng.gen_range(1..200),
        };
        let maintenance_cost = if rng.gen_bool(0.3) {
            rng.gen_range(1..50)
        } else {
            0
        };
        candidates.push(MitigationCandidate {
            id: format!("m{i}"),
            name: format!("M{i}"),
            cost,
            maintenance_cost,
            blocks,
        });
    }
    let scenarios = (0..rng.gen_range(0..=8))
        .map(|i| AttackScenario {
            id: format!("s{i}"),
            faults: (0..rng.gen_range(1..=3))
                .map(|_| format!("f{}", rng.gen_range(0..7)))
                .collect(),
            loss: if rng.gen_bool(0.1) {
                0
            } else {
                rng.gen_range(1..5000)
            },
            attack_cost: 0,
        })
        .collect();
    let periods = rng.gen_range(0..4);
    let full = candidates
        .iter()
        .fold(0u64, |sum, c| sum.saturating_add(c.total_cost(periods)));
    let budgets = vec![0, rng.gen_range(0..=full), full, full.saturating_add(1)];
    let problem = MitigationProblem {
        candidates,
        scenarios,
        coverage: Coverage::Any,
        periods,
    };
    (problem, budgets)
}

/// Residual loss and cost of a selection, summed exactly.
#[must_use]
pub fn exact_residual_and_cost(problem: &MitigationProblem, selection: &Selection) -> (u128, u128) {
    let residual = (problem.scenarios.iter())
        .filter(|s| !problem.scenario_blocked(selection, s))
        .map(|s| u128::from(s.loss))
        .sum();
    let cost = (problem.candidates.iter())
        .filter(|c| selection.ids.contains(&c.id))
        .map(|c| u128::from(c.total_cost(problem.periods)))
        .sum();
    (residual, cost)
}

/// The exhaustive scan `best_under_budget` replaced: every include/exclude
/// leaf that fits the budget, include first, keeping the first leaf of
/// least (residual, cost). Sums are exact.
#[must_use]
pub fn exhaustive_best_under_budget(problem: &MitigationProblem, budget: u64) -> Selection {
    fn scan(
        problem: &MitigationProblem,
        idx: usize,
        cost_so_far: u128,
        budget: u128,
        current: &mut Selection,
        best: &mut Option<(u128, u128, Selection)>,
    ) {
        if idx >= problem.candidates.len() {
            let (residual, _) = exact_residual_and_cost(problem, current);
            if best
                .as_ref()
                .is_none_or(|(br, bc, _)| (residual, cost_so_far) < (*br, *bc))
            {
                *best = Some((residual, cost_so_far, current.clone()));
            }
            return;
        }
        let cand = &problem.candidates[idx];
        let c = u128::from(cand.total_cost(problem.periods));
        if cost_so_far + c <= budget {
            current.ids.insert(cand.id.clone());
            scan(problem, idx + 1, cost_so_far + c, budget, current, best);
            current.ids.remove(&cand.id);
        }
        scan(problem, idx + 1, cost_so_far, budget, current, best);
    }
    let mut best = None;
    let mut current = Selection::empty();
    scan(problem, 0, 0, u128::from(budget), &mut current, &mut best);
    best.map(|(_, _, s)| s).unwrap_or_default()
}

/// Greedy weighted set cover: repeatedly pick the candidate with the best
/// newly-blocked-loss / cost ratio.
///
/// # Errors
///
/// [`MitigationError::Infeasible`] if no selection blocks everything.
pub fn greedy_cover(problem: &MitigationProblem) -> Result<Selection, MitigationError> {
    let mut selection = Selection::empty();
    loop {
        if problem.blocks_all(&selection) {
            return Ok(selection);
        }
        let mut best: Option<(f64, &str)> = None;
        for c in &problem.candidates {
            if selection.ids.contains(&c.id) {
                continue;
            }
            let mut trial = selection.clone();
            trial.ids.insert(c.id.clone());
            let newly_blocked: u64 = problem
                .scenarios
                .iter()
                .filter(|s| {
                    !problem.scenario_blocked(&selection, s) && problem.scenario_blocked(&trial, s)
                })
                .map(|s| s.loss.max(1))
                .sum();
            if newly_blocked == 0 {
                continue;
            }
            let ratio = newly_blocked as f64 / c.total_cost(problem.periods).max(1) as f64;
            if best.is_none_or(|(r, _)| ratio > r) {
                best = Some((ratio, &c.id));
            }
        }
        match best {
            Some((_, id)) => {
                selection.ids.insert(id.to_owned());
            }
            None => return Err(MitigationError::Infeasible),
        }
    }
}

/// Minimum-cost blocking through the ASP engine (`#minimize` over selected
/// mitigation costs, integrity constraints forcing every scenario blocked).
///
/// # Errors
///
/// [`MitigationError::Infeasible`] for unblockable problems.
///
/// # Panics
///
/// If the ASP engine fails to ground or solve the encoding.
pub fn min_cost_blocking_asp(problem: &MitigationProblem) -> Result<Selection, MitigationError> {
    let mut b = ProgramBuilder::new();
    for c in &problem.candidates {
        b.fact("mitigation", [Term::sym(&c.id)]);
        b.fact(
            "mit_cost",
            [
                Term::sym(&c.id),
                Term::Int(c.total_cost(problem.periods) as i64),
            ],
        );
        for f in &c.blocks {
            b.fact("blocks", [Term::sym(&c.id), Term::sym(f)]);
        }
    }
    for s in &problem.scenarios {
        b.fact("scenario", [Term::sym(&s.id)]);
        for f in &s.faults {
            b.fact("scenario_fault", [Term::sym(&s.id), Term::sym(f)]);
        }
    }
    b.choice(None, None)
        .element_if("select", ["M"], vec![pos("mitigation", ["M"])])
        .done();
    let coverage_rules = match problem.coverage {
        Coverage::Any => {
            "fault_blocked(F) :- blocks(M, F), select(M). \
             scenario_blocked(S) :- scenario_fault(S, F), fault_blocked(F). \
             :- scenario(S), not scenario_blocked(S)."
        }
        Coverage::All => {
            "applicable(F) :- blocks(M, F). \
             unblocked(F) :- blocks(M, F), not select(M). \
             fault_blocked(F) :- applicable(F), not unblocked(F). \
             scenario_blocked(S) :- scenario_fault(S, F), fault_blocked(F). \
             :- scenario(S), not scenario_blocked(S)."
        }
    };
    b.append(cpsrisk_asp::parse(coverage_rules).expect("static encoding parses"));
    b.minimize(
        0,
        Term::var("C"),
        [Term::var("M")],
        vec![pos("select", ["M"]), pos("mit_cost", ["M", "C"])],
    );

    let program = b.finish();
    let ground = Grounder::new().ground(&program).expect("encoding grounds");
    let best = Solver::new(&ground)
        .optimize(&SolveOptions::default())
        .expect("encoding solves");
    match best {
        Some(model) => Ok(Selection {
            ids: model
                .atoms_of("select")
                .iter()
                .filter_map(|a| a.args.first().map(ToString::to_string))
                .collect(),
        }),
        None => Err(MitigationError::Infeasible),
    }
}

/// The string-based greedy consolidation plan `consolidation_plan`
/// replaced: each step recomputes the residual loss with and without each
/// candidate.
#[must_use]
pub fn greedy_consolidation_plan(problem: &MitigationProblem, budgets: &[u64]) -> Vec<Phase> {
    let mut owned = Selection::empty();
    let mut phases = Vec::with_capacity(budgets.len());
    for (i, &budget) in budgets.iter().enumerate() {
        let mut remaining = budget;
        let mut acquired = Vec::new();
        loop {
            let mut best: Option<(f64, &str, u64)> = None;
            for c in &problem.candidates {
                if owned.ids.contains(&c.id) {
                    continue;
                }
                let cost = c.total_cost(problem.periods);
                if cost > remaining {
                    continue;
                }
                let mut trial = owned.clone();
                trial.ids.insert(c.id.clone());
                let gain = problem
                    .residual_loss(&owned)
                    .saturating_sub(problem.residual_loss(&trial));
                if gain == 0 {
                    continue;
                }
                let ratio = gain as f64 / cost.max(1) as f64;
                if best.is_none_or(|(r, _, _)| ratio > r) {
                    best = Some((ratio, &c.id, cost));
                }
            }
            match best {
                Some((_, id, cost)) => {
                    owned.ids.insert(id.to_owned());
                    acquired.push(id.to_owned());
                    remaining -= cost;
                }
                None => break,
            }
        }
        phases.push(Phase {
            number: i + 1,
            acquired,
            spent: budget - remaining,
            residual_loss: problem.residual_loss(&owned),
        });
    }
    phases
}
