//! Brute-force cross-validation of the stable-model solver.
//!
//! For randomly generated ground-ish programs over a small atom vocabulary,
//! the solver's enumeration must equal the reference enumeration that tests
//! **every subset** of the Herbrand base with the independent
//! reduct-based checker. This closes the loop: the checker is validated by
//! inspection against the textbook definition, the solver is validated
//! against the checker on the full space.
//!
//! The same full-subset enumeration validates the guess-and-check oracle
//! (`support`) that the larger differential suites use: on these programs
//! it must return exactly the full enumeration, also under assumptions.

mod support;

use std::collections::HashSet;

use proptest::prelude::*;

use cpsrisk_asp::ast::Atom;
use cpsrisk_asp::check::is_stable_model;
use cpsrisk_asp::program::AtomId;
use cpsrisk_asp::{GroundProgram, Grounder, Lit, Program, SolveOptions, Solver};

/// A random program over atoms a0..a{n-1}: facts, normal rules with up to
/// two positive and two negative body literals, constraints, and choices.
fn arb_program(n_atoms: usize) -> impl Strategy<Value = String> {
    let atom = move || (0..n_atoms).prop_map(|i| format!("a{i}"));
    let rule = prop_oneof![
        // Fact.
        atom().prop_map(|h| format!("{h}.")),
        // Normal rule.
        (atom(), prop::collection::vec((atom(), any::<bool>()), 1..3)).prop_map(|(h, body)| {
            let lits: Vec<String> = body
                .into_iter()
                .map(|(a, neg)| if neg { format!("not {a}") } else { a })
                .collect();
            format!("{h} :- {}.", lits.join(", "))
        }),
        // Constraint.
        prop::collection::vec((atom(), any::<bool>()), 1..3).prop_map(|body| {
            let lits: Vec<String> = body
                .into_iter()
                .map(|(a, neg)| if neg { format!("not {a}") } else { a })
                .collect();
            format!(":- {}.", lits.join(", "))
        }),
        // Choice over a couple of atoms.
        prop::collection::vec(atom(), 1..3)
            .prop_map(|atoms| format!("{{ {} }}.", atoms.join("; "))),
    ];
    prop::collection::vec(rule, 1..8).prop_map(|rules| rules.join("\n"))
}

fn ground(src: &str) -> GroundProgram {
    let program: Program = src.parse().expect("generated programs parse");
    Grounder::new()
        .ground(&program)
        .expect("generated programs ground")
}

/// Every stable model among all `2^n` candidate sets, as sorted atom
/// strings, filtered by `assumptions`.
fn full_enumeration(ground: &GroundProgram, assumptions: &[Lit]) -> HashSet<Vec<String>> {
    let n = ground.atom_count();
    let mut out = HashSet::new();
    for mask in 0u32..(1 << n) {
        let candidate: HashSet<AtomId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| AtomId(i as u32))
            .collect();
        let assumed = assumptions
            .iter()
            .all(|l| candidate.contains(&l.atom) == l.positive);
        if assumed && is_stable_model(ground, &candidate) {
            let mut atoms: Vec<String> = candidate
                .iter()
                .map(|&id| ground.atom(id).to_string())
                .collect();
            atoms.sort();
            out.insert(atoms);
        }
    }
    out
}

fn reference_models(src: &str) -> HashSet<Vec<String>> {
    full_enumeration(&ground(src), &[])
}

fn oracle_models(ground: &GroundProgram, assumptions: &[Lit]) -> HashSet<Vec<String>> {
    support::models(ground, assumptions)
        .iter()
        .map(|m| m.atoms(ground).into_iter().collect())
        .collect()
}

fn solver_models(src: &str) -> HashSet<Vec<String>> {
    let program: Program = src.parse().expect("generated programs parse");
    let ground = Grounder::new()
        .ground(&program)
        .expect("generated programs ground");
    let mut solver = Solver::new(&ground);
    let result = solver.enumerate(&SolveOptions::default()).expect("solves");
    assert!(result.exhausted);
    result
        .models
        .into_iter()
        .map(|m| {
            let mut atoms: Vec<String> = m.atoms.iter().map(ToString::to_string).collect();
            atoms.sort();
            atoms
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_equals_brute_force_enumeration(src in arb_program(5)) {
        let expected = reference_models(&src);
        let got = solver_models(&src);
        prop_assert_eq!(got, expected, "program:\n{}", src);
    }

    /// The guess-and-check oracle equals the full-subset enumeration, with
    /// no assumptions and under a random (possibly contradictory) set of
    /// assumption literals.
    #[test]
    fn oracle_equals_brute_force_enumeration(
        src in arb_program(5),
        pins in prop::collection::vec((0usize..5, any::<bool>()), 0..4),
    ) {
        let g = ground(&src);
        prop_assert_eq!(oracle_models(&g, &[]), full_enumeration(&g, &[]), "program:\n{}", src);
        let assumptions: Vec<Lit> = pins
            .iter()
            .filter_map(|&(i, positive)| {
                g.lookup(&Atom::prop(format!("a{i}"))).map(|atom| Lit { atom, positive })
            })
            .collect();
        prop_assert_eq!(
            oracle_models(&g, &assumptions), full_enumeration(&g, &assumptions),
            "assumptions {:?}, program:\n{}", pins, src
        );
    }
}

#[test]
fn known_tricky_programs() {
    // Hand-picked regressions exercising loops through negation and
    // choice/constraint interaction.
    let cases = [
        "a :- not b. b :- not a. :- a.",
        "{ a }. b :- a. :- b, not a.",
        "a :- b. b :- a. { c }. a :- c.",
        "a :- not a.",
        "{ a; b }. :- a, b. c :- not a, not b.",
        "a. b :- a, not c. c :- a, not b.",
    ];
    for src in cases {
        assert_eq!(solver_models(src), reference_models(src), "program: {src}");
        let g = ground(src);
        assert_eq!(
            oracle_models(&g, &[]),
            full_enumeration(&g, &[]),
            "oracle, program: {src}"
        );
    }
}
