//! Guess-and-check answer-set oracle shared by the differential suites.
//!
//! The oracle enumerates every subset `S` of the program's *guess atoms*:
//! the choice heads plus every atom that occurs under `not` in some rule.
//! The reduct of a ground program with respect to an interpretation `X`
//! depends on `X` only through those atoms, so every stable model `M`
//! satisfies `M = LM(P^S)` for `S = M ∩ guess`. For each `S` the oracle
//! therefore takes the least model of the reduct
//! ([`check::StabilityAudit::least_model`]), keeps it when its guess atoms
//! are exactly `S` and [`check::StabilityAudit::is_stable`] accepts it,
//! and filters the survivors by the assumption literals. One audit,
//! indexed once, serves every subset. `#minimize` costs are recomputed
//! from [`GroundProgram::minimize`] directly.
//!
//! Only the independent `check` module is used: the oracle shares no code
//! with the CDCL engine it judges. Its cost is `2^|guess|` reduct
//! computations, so the suites keep their generators small; the
//! brute-force suite pins the oracle itself to full-subset enumeration.
//!
//! The module also holds the one copy of the search-heavy program
//! generator ([`arb_search_program`]) the CDCL and certification suites
//! both draw from.

// Each suite compiles its own copy of this module and uses a subset of it.
#![allow(dead_code)]

use std::collections::{BTreeSet, HashSet};

use cpsrisk_asp::check;
use cpsrisk_asp::program::GroundHead;
use cpsrisk_asp::{AtomId, GroundProgram, Lit};
use proptest::prelude::*;

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
    let mut audit = check::StabilityAudit::new(g);
    let mut chosen = vec![false; g.atom_count()];
    let mut out = Vec::new();
    for mask in 0u32..(1u32 << guess.len()) {
        for (i, a) in guess.iter().enumerate() {
            chosen[a.index()] = mask & (1 << i) != 0;
        }
        let Some(lm) = audit.least_model(&chosen).map(<[bool]>::to_vec) else {
            continue;
        };
        let consistent = guess.iter().all(|a| lm[a.index()] == chosen[a.index()]);
        if !consistent || !audit.is_stable(&lm) {
            continue;
        }
        let lm: HashSet<AtomId> = (0..lm.len() as u32)
            .filter(|&a| lm[a as usize])
            .map(AtomId)
            .collect();
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

/// A random *search-heavy* program over atoms a0..a{n-1}, the family the
/// CDCL and certification differential suites share: alongside facts,
/// rules, constraints and `#minimize` objectives it generates **bounded**
/// cardinality choices (`L { .. } U.`, some with conditional elements and
/// a body), which ground to `CardConstraint`s and force the
/// counter-propagation path the generic suite rarely reaches.
pub fn arb_search_program(n_atoms: usize) -> impl Strategy<Value = String> {
    let atom = move || (0..n_atoms).prop_map(|i| format!("a{i}"));
    let body = move |max: usize| {
        prop::collection::vec((atom(), any::<bool>()), 1..max).prop_map(|lits| {
            lits.into_iter()
                .map(|(a, neg)| if neg { format!("not {a}") } else { a })
                .collect::<Vec<_>>()
                .join(", ")
        })
    };
    let bounded_choice = (prop::collection::vec(atom(), 2..5), 0usize..3, 0usize..3).prop_map(
        |(mut atoms, lo, extra)| {
            atoms.sort();
            atoms.dedup();
            let lo = lo.min(atoms.len());
            let hi = (lo + extra).min(atoms.len());
            format!("{lo} {{ {} }} {hi}.", atoms.join("; "))
        },
    );
    // Conditional elements (`a : b`, `a : not b`) and rule bodies reach
    // the card's guard and body counters. A guarded element's guard and
    // atom are also free choices: guards are then decided during search,
    // and an element atom true outside its guard makes a tight bound's
    // explanation wrong unless it carries the guard.
    let element = move || {
        (atom(), 0u8..3, atom()).prop_map(|(a, guard, g)| match guard {
            0 => (a, None),
            1 => (format!("{a} : {g}"), Some(format!("{a}; {g}"))),
            _ => (format!("{a} : not {g}"), Some(format!("{a}; {g}"))),
        })
    };
    let guarded_choice = (
        prop::collection::vec(element(), 1..5),
        0usize..3,
        0usize..3,
        any::<bool>(),
        body(3),
    )
        .prop_map(|(elements, lo, extra, has_body, body)| {
            let (elements, guards): (Vec<String>, Vec<Option<String>>) =
                elements.into_iter().unzip();
            let guards: Vec<String> = guards.into_iter().flatten().collect();
            let rule = format!("{lo} {{ {} }} {}", elements.join("; "), lo + extra);
            let rule = if has_body {
                format!("{rule} :- {body}.")
            } else {
                format!("{rule}.")
            };
            if guards.is_empty() {
                rule
            } else {
                format!("{{ {} }}.\n{rule}", guards.join("; "))
            }
        });
    let rule = prop_oneof![
        atom().prop_map(|h| format!("{h}.")),
        (atom(), body(4)).prop_map(|(h, b)| format!("{h} :- {b}.")),
        body(3).prop_map(|b| format!(":- {b}.")),
        bounded_choice.clone(),
        bounded_choice,
        guarded_choice,
        prop::collection::vec(atom(), 1..4)
            .prop_map(|atoms| format!("{{ {} }}.", atoms.join("; "))),
    ];
    let minimize = prop::collection::vec((atom(), 1i64..5), 0..3).prop_map(|elems| {
        if elems.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = elems
                .into_iter()
                .map(|(a, w)| format!("{w},{a} : {a}"))
                .collect();
            format!("#minimize {{ {} }}.", parts.join("; "))
        }
    });
    (prop::collection::vec(rule, 2..10), minimize)
        .prop_map(|(rules, min)| format!("{}\n{min}", rules.join("\n")))
}
