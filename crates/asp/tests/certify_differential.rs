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
