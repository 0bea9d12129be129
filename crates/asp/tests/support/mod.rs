//! Guess-and-check answer-set oracle shared by the differential suites.
//!
//! The oracle enumerates every subset `S` of the program's *guess atoms*:
//! the choice heads plus every atom that occurs under `not` in some rule.
//! The reduct of a ground program with respect to an interpretation `X`
//! depends on `X` only through those atoms, so every stable model `M`
//! satisfies `M = LM(P^S)` for `S = M ∩ guess`. For each `S` the oracle
//! therefore takes the least model of the reduct
//! ([`check::least_model_of_reduct`]), keeps it when its guess atoms are
//! exactly `S` and [`check::is_stable_model`] accepts it, and filters the
//! survivors by the assumption literals. `#minimize` costs are recomputed
//! from [`GroundProgram::minimize`] directly.
//!
//! Only the independent `check` module is used: the oracle shares no code
//! with the CDCL engine it judges. Its cost is `2^|guess|` reduct
//! computations, so the suites keep their generators small; the
//! brute-force suite pins the oracle itself to full-subset enumeration.

// Each suite compiles its own copy of this module and uses a subset of it.
#![allow(dead_code)]

use std::collections::{BTreeSet, HashSet};

use cpsrisk_asp::check;
use cpsrisk_asp::program::GroundHead;
use cpsrisk_asp::{AtomId, GroundProgram, Lit};

/// One answer set as the oracle reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleModel {
    /// The true atoms.
    pub ids: HashSet<AtomId>,
    /// Objective value per `#minimize` priority, higher priority first —
    /// the layout of `Model::cost`.
    pub cost: Vec<(i64, i64)>,
}

impl OracleModel {
    /// Display forms of the true atoms, sorted.
    pub fn atoms(&self, g: &GroundProgram) -> BTreeSet<String> {
        self.ids.iter().map(|&id| g.atom(id).to_string()).collect()
    }

    /// The sorted true atoms joined by spaces: the rendering of a solver
    /// model's `atoms` list.
    pub fn render(&self, g: &GroundProgram) -> String {
        self.atoms(g).into_iter().collect::<Vec<_>>().join(" ")
    }

    /// The sorted `#show`n atoms joined by spaces.
    pub fn render_shown(&self, g: &GroundProgram) -> String {
        let shown: BTreeSet<String> = self
            .ids
            .iter()
            .filter(|&&id| g.shown(id))
            .map(|&id| g.atom(id).to_string())
            .collect();
        shown.into_iter().collect::<Vec<_>>().join(" ")
    }
}

/// The guess atoms: choice heads plus atoms under `not` in any rule,
/// deduplicated, in ascending id order.
fn guess_atoms(g: &GroundProgram) -> Vec<AtomId> {
    let mut guess: BTreeSet<AtomId> = BTreeSet::new();
    for r in &g.rules {
        if let GroundHead::Choice(h) = r.head {
            guess.insert(h);
        }
        guess.extend(r.neg.iter().copied());
    }
    guess.into_iter().collect()
}

/// Every answer set of `g` satisfying `assumptions` (each literal's atom
/// is in the model iff the literal is positive; contradictory literals
/// admit no model).
pub fn models(g: &GroundProgram, assumptions: &[Lit]) -> Vec<OracleModel> {
    let guess = guess_atoms(g);
    assert!(
        guess.len() < 32,
        "{} guess atoms: too many for the oracle",
        guess.len()
    );
    let mut out = Vec::new();
    for mask in 0u32..(1u32 << guess.len()) {
        let chosen: HashSet<AtomId> = guess
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &a)| a)
            .collect();
        let Some(lm) = check::least_model_of_reduct(g, &chosen) else {
            continue;
        };
        let consistent = guess.iter().all(|a| lm.contains(a) == chosen.contains(a));
        if !consistent || !check::is_stable_model(g, &lm) {
            continue;
        }
        if assumptions
            .iter()
            .all(|l| lm.contains(&l.atom) == l.positive)
        {
            let cost = cost(g, &lm);
            out.push(OracleModel { ids: lm, cost });
        }
    }
    out
}

/// The `#minimize` objective of a model: per priority, the sum of the
/// weights of the distinct `(weight, tuple)` elements whose condition
/// holds.
fn cost(g: &GroundProgram, m: &HashSet<AtomId>) -> Vec<(i64, i64)> {
    g.minimize
        .iter()
        .map(|(prio, lits)| {
            let holding: HashSet<_> = lits
                .iter()
                .filter(|l| {
                    l.pos.iter().all(|p| m.contains(p)) && !l.neg.iter().any(|n| m.contains(n))
                })
                .map(|l| (l.weight, l.tuple.clone()))
                .collect();
            (*prio, holding.iter().map(|(w, _)| w).sum())
        })
        .collect()
}

/// Sorted renderings of every answer set under `assumptions`.
pub fn rendered(g: &GroundProgram, assumptions: &[Lit]) -> Vec<String> {
    let mut out: Vec<String> = models(g, assumptions).iter().map(|m| m.render(g)).collect();
    out.sort();
    out
}

/// The optimal cost vector under `assumptions` (lexicographic, higher
/// priority first), or `None` when no answer set exists.
pub fn optimum(g: &GroundProgram, assumptions: &[Lit]) -> Option<Vec<(i64, i64)>> {
    models(g, assumptions)
        .into_iter()
        .map(|m| m.cost)
        .min_by(|a, b| {
            let values = |c: &[(i64, i64)]| c.iter().map(|&(_, v)| v).collect::<Vec<_>>();
            values(a).cmp(&values(b))
        })
}
