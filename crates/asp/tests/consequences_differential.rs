//! Differential testing of the well-founded analysis stack.
//!
//! Three soundness contracts, each pinned against the guess-and-check
//! oracle in `support`:
//!
//! * the well-founded model **bounds** every stable model — WFM-true
//!   atoms appear in every answer set, WFM-false atoms in none, and a
//!   WFM-detected inconsistency means no answer set exists (so the chain
//!   WFM-true ⊆ cautious ⊆ brave ⊆ not-WFM-false holds);
//! * the backbone simplifier **preserves** the stable-model set exactly
//!   while never growing the program or destroying tightness;
//! * the conditional WFM keeps the same bounds under arbitrary assumption
//!   sets, including contradictory ones.
//!
//! A fourth suite pins [`Solver::brave`] / [`Solver::cautious`] (which
//! seed from the WFM and terminate early on its bounds) to the
//! union/intersection of the oracle's answer sets, over programs with
//! choices and assumable atoms.

mod support;

use std::collections::BTreeSet;

use proptest::prelude::*;

use cpsrisk_asp::ast::Atom;
use cpsrisk_asp::{
    simplify_with, well_founded, well_founded_with, GroundProgram, Grounder, Lit, Program,
    SolveOptions, Solver,
};

/// A random program over atoms a0..a{n-1}: facts, normal rules, choices,
/// and constraints — the shapes the WFM has to approximate soundly.
fn arb_program(n_atoms: usize) -> impl Strategy<Value = String> {
    let atom = move || (0..n_atoms).prop_map(|i| format!("a{i}"));
    let body = move |max: usize| {
        prop::collection::vec((atom(), any::<bool>()), 1..max).prop_map(|lits| {
            lits.into_iter()
                .map(|(a, neg)| if neg { format!("not {a}") } else { a })
                .collect::<Vec<_>>()
                .join(", ")
        })
    };
    let rule = prop_oneof![
        atom().prop_map(|h| format!("{h}.")),
        (atom(), body(4)).prop_map(|(h, b)| format!("{h} :- {b}.")),
        body(3).prop_map(|b| format!(":- {b}.")),
        prop::collection::vec(atom(), 1..4)
            .prop_map(|atoms| format!("{{ {} }}.", atoms.join("; "))),
    ];
    prop::collection::vec(rule, 1..10).prop_map(|rules| rules.join("\n"))
}

/// Ground with a random subset of the atom universe marked assumable, so
/// the WFM's "assumables stay undefined" rule is exercised.
fn ground_with_assumables(src: &str, assumable: &[usize]) -> GroundProgram {
    let program: Program = src.parse().expect("generated programs parse");
    let mut grounder = Grounder::new();
    for &i in assumable {
        grounder = grounder.assumable(&format!("a{i}"), 0);
    }
    grounder
        .ground(&program)
        .expect("generated programs ground")
}

fn ground(src: &str) -> GroundProgram {
    ground_with_assumables(src, &[])
}

/// Every answer set as a sorted set of atom strings, via the oracle
/// (itself pinned by the brute-force suite).
fn brute_models(g: &GroundProgram) -> Vec<BTreeSet<String>> {
    brute_models_under(g, &[])
}

/// Same, under an assumption set.
fn brute_models_under(g: &GroundProgram, lits: &[Lit]) -> Vec<BTreeSet<String>> {
    let mut models: Vec<BTreeSet<String>> = support::models(g, lits)
        .iter()
        .map(|m| m.atoms(g))
        .collect();
    models.sort();
    models
}

fn names(g: &GroundProgram, ids: impl Iterator<Item = cpsrisk_asp::AtomId>) -> BTreeSet<String> {
    ids.map(|id| g.atom(id).to_string()).collect()
}

/// Resolve `(index, polarity)` pairs against the interned atoms; atoms the
/// grounder dropped cannot be assumed and are skipped.
fn lits(g: &GroundProgram, set: &[(usize, bool)]) -> Vec<Lit> {
    set.iter()
        .filter_map(|&(i, positive)| {
            g.lookup(&Atom::prop(format!("a{i}")))
                .map(|atom| Lit { atom, positive })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// WFM-true ⊆ every model, WFM-false ∩ every model = ∅, and a WFM
    /// inconsistency verdict implies there are no models at all.
    #[test]
    fn wfm_bounds_every_stable_model(
        src in arb_program(7),
        assumable in prop::collection::btree_set(0usize..7, 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let wfm = well_founded(&g);
        let models = brute_models(&g);
        if wfm.inconsistent {
            prop_assert!(models.is_empty(), "WFM refuted a satisfiable program:\n{}", src);
            return Ok(());
        }
        let wfm_true = names(&g, wfm.true_atoms());
        let wfm_false = names(&g, wfm.false_atoms());
        for m in &models {
            prop_assert!(
                wfm_true.is_subset(m),
                "WFM-true {:?} not in model {:?}, program:\n{}", wfm_true, m, src
            );
            prop_assert!(
                wfm_false.is_disjoint(m),
                "WFM-false {:?} intersects model {:?}, program:\n{}", wfm_false, m, src
            );
        }
        // A total consistent WFM pins the unique answer set exactly.
        if wfm.total() && !models.is_empty() {
            prop_assert_eq!(models.len(), 1, "total WFM, program:\n{}", src);
            prop_assert_eq!(&models[0], &wfm_true, "total WFM, program:\n{}", src);
        }
    }

    /// Simplifying against the backbone is model-preserving, never grows
    /// the rule set, and never destroys the tightness certificate.
    #[test]
    fn simplification_preserves_the_model_set(
        src in arb_program(7),
        assumable in prop::collection::btree_set(0usize..7, 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let s = simplify_with(&g, &well_founded(&g));
        prop_assert_eq!(
            brute_models(&s.program), brute_models(&g),
            "model set changed, program:\n{}", src
        );
        prop_assert!(
            s.rules_after <= s.rules_before,
            "simplification grew the program ({} -> {}):\n{}",
            s.rules_before, s.rules_after, src
        );
        prop_assert!(
            s.tight_after || !s.tight_before,
            "simplification destroyed tightness:\n{}", src
        );
    }

    /// The conditional WFM keeps the same bounds under every assumption
    /// set — including contradictory sets, where it must not claim an
    /// inconsistency that solving disproves.
    #[test]
    fn conditional_wfm_bounds_models_under_assumptions(
        src in arb_program(6),
        sets in prop::collection::vec(
            prop::collection::vec((0usize..6, any::<bool>()), 0..4),
            1..5,
        ),
    ) {
        let g = ground(&src);
        for set in &sets {
            let assumptions = lits(&g, set);
            let wfm = well_founded_with(&g, &assumptions);
            let models = brute_models_under(&g, &assumptions);
            if wfm.inconsistent {
                prop_assert!(
                    models.is_empty(),
                    "conditional WFM refuted a satisfiable query {:?}:\n{}", set, src
                );
                continue;
            }
            let wfm_true = names(&g, wfm.true_atoms());
            let wfm_false = names(&g, wfm.false_atoms());
            for m in &models {
                prop_assert!(
                    wfm_true.is_subset(m),
                    "conditional WFM-true escaped a model, query {:?}:\n{}", set, src
                );
                prop_assert!(
                    wfm_false.is_disjoint(m),
                    "conditional WFM-false entered a model, query {:?}:\n{}", set, src
                );
            }
        }
    }

    /// `brave()` / `cautious()` — which seed from the WFM and cut the
    /// enumeration short on its bounds — equal the union / intersection
    /// of the brute-forced answer sets (both empty when no answer set
    /// exists).
    #[test]
    fn brave_and_cautious_match_brute_force(
        src in arb_program(6),
        assumable in prop::collection::btree_set(0usize..6, 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let models = brute_models(&g);
        let union: BTreeSet<String> = models.iter().flatten().cloned().collect();
        let intersection: BTreeSet<String> = models
            .first()
            .map(|first| {
                models[1..]
                    .iter()
                    .fold(first.clone(), |acc, m| acc.intersection(m).cloned().collect())
            })
            .unwrap_or_default();
        let opts = SolveOptions::default();
        let brave: BTreeSet<String> = Solver::new(&g)
            .brave(&opts)
            .expect("within budget")
            .iter()
            .map(ToString::to_string)
            .collect();
        let cautious: BTreeSet<String> = Solver::new(&g)
            .cautious(&opts)
            .expect("within budget")
            .iter()
            .map(ToString::to_string)
            .collect();
        prop_assert_eq!(&brave, &union, "brave vs union, program:\n{}", src);
        prop_assert_eq!(&cautious, &intersection, "cautious vs intersection, program:\n{}", src);
        // The approximation chain the module docs promise.
        let wfm = well_founded(&g);
        if !wfm.inconsistent && !models.is_empty() {
            prop_assert!(names(&g, wfm.true_atoms()).is_subset(&cautious), "program:\n{}", src);
            prop_assert!(names(&g, wfm.false_atoms()).is_disjoint(&brave), "program:\n{}", src);
        }
    }
}
