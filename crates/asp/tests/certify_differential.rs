//! Differential testing: certified solving vs plain solving.
//!
//! Proof logging must be observationally free — switching `certify` on
//! may not change a single verdict, model, or optimal cost — and every
//! certificate the engine emits must survive the independent checker
//! ([`check_proof`]), which shares no solver code. The program family is
//! `support::arb_search_program`, the search-heavy generator the CDCL
//! differential suite also uses: bounded cardinality choices (with
//! conditional elements and bodies, so certificates carry card steps over
//! guards and bodies), negation-heavy rules, constraints, and
//! `#minimize` objectives; the assumption-stream property additionally
//! exercises multi-shot certificates with learned-nogood retention
//! across calls (contradictory pins included).
//!
//! A second, guard-targeted family ([`arb_guarded_program`]) aims at the
//! rare conflict whose explanation runs through the guard of a
//! cardinality element: every atom is a free choice, the cards have tight
//! upper bounds over guarded elements, and rules and constraints read the
//! element atoms under `not`. Its certified enumeration is compared with
//! the guess-and-check oracle and checked, in the default build and at
//! release depth.

mod support;

use proptest::prelude::*;

use cpsrisk_asp::ast::Atom;
use cpsrisk_asp::{check_proof, GroundProgram, Grounder, Lit, Program, SolveOptions, Solver};

fn ground(src: &str) -> GroundProgram {
    let program: Program = src.parse().expect("generated programs parse");
    Grounder::new()
        .ground(&program)
        .expect("generated programs ground")
}

/// Canonical model set: sorted renderings plus the exhausted flag.
fn render(result: &cpsrisk_asp::SolveResult) -> (Vec<String>, bool) {
    let mut models: Vec<String> = result
        .models
        .iter()
        .map(|m| {
            m.atoms
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    models.sort();
    (models, result.exhausted)
}

fn certify_opts() -> SolveOptions {
    SolveOptions {
        certify: true,
        ..SolveOptions::default()
    }
}

/// A stream of assumption sets (contradictory pins included).
fn arb_assumption_sets(n_atoms: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(
        prop::collection::vec((0..n_atoms, any::<bool>()), 0..4),
        1..6,
    )
}

fn lits(g: &GroundProgram, set: &[(usize, bool)]) -> Vec<Lit> {
    set.iter()
        .filter_map(|&(i, positive)| {
            g.lookup(&Atom::prop(format!("a{i}")))
                .map(|atom| Lit { atom, positive })
        })
        .collect()
}

/// A random program over free atoms a0..a{n-1} aimed at guarded card
/// explanations: one to three bounded choices whose elements are mostly
/// guarded (`ai : aj`, `ai : not aj`) under tight upper bounds, atoms
/// `d0..d2` derived from element atoms under `not`, and constraints over
/// both. Deciding a guard and filling the bound falsifies the guarded
/// element; a conflict through that element must then keep the guard in
/// its learned nogood.
fn arb_guarded_program(n: usize) -> impl Strategy<Value = String> {
    let atom = move || (0..n).prop_map(|i| format!("a{i}"));
    let lit = move || {
        (
            prop_oneof![atom(), (0..3usize).prop_map(|k| format!("d{k}"))],
            any::<bool>(),
        )
            .prop_map(|(a, neg)| if neg { format!("not {a}") } else { a })
    };
    let element = move || {
        (atom(), 0u8..3, atom()).prop_map(|(a, guard, g)| match guard {
            0 => a,
            1 => format!("{a} : {g}"),
            _ => format!("{a} : not {g}"),
        })
    };
    let card = (prop::collection::vec(element(), 2..5), 0u32..2, 1u32..3).prop_map(
        |(elements, lo, hi)| format!("{lo} {{ {} }} {}.", elements.join("; "), lo.max(hi)),
    );
    let derived = (0..3usize, atom(), any::<bool>(), lit()).prop_map(|(k, a, alone, l)| {
        if alone {
            format!("d{k} :- not {a}.")
        } else {
            format!("d{k} :- not {a}, {l}.")
        }
    });
    let constraint =
        prop::collection::vec(lit(), 2..5).prop_map(|lits| format!(":- {}.", lits.join(", ")));
    (
        prop::collection::vec(card, 1..4),
        prop::collection::vec(derived, 1..5),
        prop::collection::vec(constraint, 1..4),
    )
        .prop_map(move |(cards, derived, constraints)| {
            let free: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
            format!(
                "{{ {} }}.\n{}\n{}\n{}",
                free.join("; "),
                cards.join("\n"),
                derived.join("\n"),
                constraints.join("\n")
            )
        })
}

/// Certified enumeration of a guarded program: the certificate passes the
/// checker, and the models are the oracle's.
fn guarded_program_certifies(src: &str) -> Result<(), TestCaseError> {
    let g = ground(src);
    let mut solver = Solver::new(&g);
    let certified = solver.enumerate(&certify_opts()).expect("within budget");
    let log = solver.take_proof().expect("certified run emits a proof");
    if let Err(e) = check_proof(&g, &log) {
        prop_assert!(false, "certificate rejected: {e}\nprogram:\n{src}");
    }
    prop_assert_eq!(
        render(&certified),
        (support::rendered(&g, &[]), true),
        "program:\n{}",
        src
    );
    Ok(())
}

proptest! {
    // The stream's first two programs whose conflicts run through a
    // guarded element's guard are cases 208 and 289: with the guard
    // literals dropped from such explanations, the checker rejects both
    // certificates.
    #![proptest_config(ProptestConfig::with_cases(320))]

    /// Guard-targeted programs: certified enumeration checks and matches
    /// the oracle.
    #[test]
    fn certified_guarded_cards_match_the_oracle_and_check(src in arb_guarded_program(6)) {
        guarded_program_certifies(&src)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Certified enumeration returns exactly the uncertified model set
    /// and exhausted flag, and the emitted certificate passes the
    /// independent checker.
    #[test]
    fn certified_enumeration_matches_uncertified_and_checks(
        src in support::arb_search_program(7),
    ) {
        let g = ground(&src);
        let plain = Solver::new(&g)
            .enumerate(&SolveOptions::default())
            .expect("within budget");
        let mut solver = Solver::new(&g);
        let certified = solver.enumerate(&certify_opts()).expect("within budget");
        prop_assert_eq!(render(&certified), render(&plain), "program:\n{}", src);
        let log = solver.take_proof().expect("certified run emits a proof");
        if let Err(e) = check_proof(&g, &log) {
            prop_assert!(false, "certificate rejected: {e}\nprogram:\n{src}");
        }
    }

    /// Certified branch-and-bound finds the uncertified optimum (or the
    /// same unsatisfiability), and the certificate — incumbent models
    /// with recomputed costs included — passes the checker.
    #[test]
    fn certified_optimizer_matches_uncertified_and_checks(
        src in support::arb_search_program(6),
    ) {
        let g = ground(&src);
        let plain = Solver::new(&g)
            .optimize(&SolveOptions::default())
            .expect("within budget");
        let mut solver = Solver::new(&g);
        let certified = solver.optimize(&certify_opts()).expect("within budget");
        match (&certified, &plain) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(&a.cost, &b.cost, "optimal cost, program:\n{}", src);
            }
            (None, None) => {}
            _ => prop_assert!(
                false,
                "certified and plain optimizer disagree on satisfiability:\n{src}"
            ),
        }
        let log = solver.take_proof().expect("certified run emits a proof");
        if let Err(e) = check_proof(&g, &log) {
            prop_assert!(false, "certificate rejected: {e}\nprogram:\n{src}");
        }
    }

    /// One certified solver answering a whole assumption stream — learned
    /// nogoods retained across calls, contradictory pins included — must
    /// match a fresh uncertified solver on every query, and the single
    /// accumulated multi-shot certificate must pass the checker with one
    /// `call` section per query.
    #[test]
    fn certified_assumption_streams_with_retention_check(
        src in support::arb_search_program(6),
        sets in arb_assumption_sets(6),
    ) {
        let g = ground(&src);
        let mut certified = Solver::new(&g);
        for (k, set) in sets.iter().enumerate() {
            let assumptions = lits(&g, set);
            let got = certified
                .solve_with_assumptions(&assumptions, &certify_opts())
                .expect("within budget");
            let want = Solver::new(&g)
                .solve_with_assumptions(&assumptions, &SolveOptions::default())
                .expect("within budget");
            prop_assert_eq!(
                render(&got), render(&want),
                "query {}, program:\n{}", k, src
            );
        }
        let log = certified.take_proof().expect("certified stream emits a proof");
        let report = match check_proof(&g, &log) {
            Ok(report) => report,
            Err(e) => return Err(TestCaseError::fail(
                format!("certificate rejected: {e}\nprogram:\n{src}"),
            )),
        };
        prop_assert_eq!(report.calls, sets.len(), "one call section per query");
    }
}

/// The guard-targeted stream at release depth: the test keeps the name of
/// the one above, so it draws the same programs and carries the stream on
/// to 20,000 (about 15 s in release). With the guard literals dropped from
/// guarded explanations, 139 of these programs fail, and the checker
/// rejects the certificate of every one of them.
mod depth {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        #[ignore = "release depth; run in release with --ignored"]
        fn certified_guarded_cards_match_the_oracle_and_check(src in arb_guarded_program(6)) {
            guarded_program_certifies(&src)?;
        }
    }
}
