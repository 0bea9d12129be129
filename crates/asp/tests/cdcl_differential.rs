//! Differential testing: the CDCL engine vs the guess-and-check oracle,
//! on search-heavy programs.
//!
//! The generic differential suite (`tests/differential.rs`) pins the
//! engine on broad random programs. This suite stresses the search
//! machinery: bounded cardinality choices (watched-literal and counter
//! propagation interact), a one-conflict restart interval (every conflict
//! triggers a Luby restart, so backjumping, phase saving, and
//! learned-nogood replay are exercised constantly), the unfounded-set
//! closure on programs made non-tight by a positive loop, and assumption
//! streams over a reused solver with retained learned nogoods. In every
//! configuration the CDCL engine must enumerate exactly the answer sets of
//! the oracle in `support`.

mod support;

use proptest::prelude::*;

use cpsrisk_asp::ast::Atom;
use cpsrisk_asp::{GroundProgram, Grounder, Lit, Program, SolveOptions, Solver};

fn ground(src: &str) -> GroundProgram {
    let program: Program = src.parse().expect("generated programs parse");
    Grounder::new()
        .ground(&program)
        .expect("generated programs ground")
}

/// Canonical enumeration: sorted model renderings + the exhausted flag.
fn canonical(solver: &mut Solver, opts: &SolveOptions) -> (Vec<String>, bool) {
    let result = solver.enumerate(opts).expect("within budget");
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

/// Bounded cardinality choices: the oracle's answer sets, space exhausted.
fn card_heavy_program_matches(src: &str) -> Result<(), TestCaseError> {
    let g = ground(src);
    let (cdcl, exhausted) = canonical(&mut Solver::new(&g), &SolveOptions::default());
    prop_assert_eq!(&cdcl, &support::rendered(&g, &[]), "program:\n{}", src);
    prop_assert!(exhausted, "exhausted flag, program:\n{}", src);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bounded cardinality choices: the oracle's answer sets, space
    /// exhausted.
    #[test]
    fn cdcl_enumerates_identical_answer_sets_on_card_heavy_programs(
        src in support::arb_search_program(7),
    ) {
        card_heavy_program_matches(&src)?;
    }

    /// A one-conflict Luby interval restarts on *every* conflict before
    /// the first model: maximal stress on backjumping to level 0, phase
    /// saving, and learned-unit replay. Enumeration must be unchanged.
    #[test]
    fn cdcl_with_restart_interval_one_matches_the_reference(
        src in support::arb_search_program(7),
    ) {
        let g = ground(&src);
        let opts = SolveOptions::default();
        let mut solver = Solver::new(&g);
        solver.set_restart_interval(1);
        let (cdcl, exhausted) = canonical(&mut solver, &opts);
        prop_assert_eq!(&cdcl, &support::rendered(&g, &[]), "program:\n{}", src);
        prop_assert!(exhausted, "exhausted flag, program:\n{}", src);
    }

    /// A positive loop `l0 :- l1. l1 :- l0.`, entered from a generated
    /// atom, makes every program non-tight, so the CDCL engine runs the
    /// unfounded-set backstop at each propagation fixpoint — same models
    /// as the oracle.
    #[test]
    fn cdcl_forced_closure_mode_matches_the_reference(
        src in support::arb_search_program(6),
        entry in 0usize..6,
    ) {
        let src = format!("{src}\nl0 :- a{entry}. l0 :- l1. l1 :- l0.");
        let g = ground(&src);
        let mut solver = Solver::new(&g);
        let (cdcl, exhausted) = canonical(&mut solver, &SolveOptions::default());
        if g.lookup(&Atom::prop("l1")).is_some() {
            prop_assert!(!solver.tight(), "the loop must void the certificate:\n{}", src);
        }
        prop_assert_eq!(&cdcl, &support::rendered(&g, &[]), "program:\n{}", src);
        prop_assert!(exhausted, "exhausted flag, program:\n{}", src);
    }

    /// Assumption streams on one reused CDCL solver, learned nogoods
    /// retained (and with a one-conflict restart interval), versus the
    /// oracle per query: identical answer sets and an exhausted space for
    /// every query in the stream.
    #[test]
    fn reused_cdcl_solver_with_retained_nogoods_matches_fresh_reference(
        src in support::arb_search_program(6),
        sets in arb_assumption_sets(6),
        restart_hard in any::<bool>(),
    ) {
        let g = ground(&src);
        let opts = SolveOptions::default();
        let mut reused = Solver::new(&g);
        if restart_hard {
            reused.set_restart_interval(1);
        }
        for (k, set) in sets.iter().enumerate() {
            let assumptions = lits(&g, set);
            let got = reused
                .solve_with_assumptions(&assumptions, &opts)
                .expect("within budget");
            let mut rendered: Vec<String> = got
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
            rendered.sort();
            prop_assert_eq!(
                rendered, support::rendered(&g, &assumptions),
                "query {} (restart_hard={}), program:\n{}", k, restart_hard, src
            );
            prop_assert!(got.exhausted, "exhausted flag, query {}, program:\n{}", k, src);
        }
    }

    /// The model-free existence query on one reused solver agrees with
    /// the oracle on every query of an assumption stream.
    #[test]
    fn existence_queries_on_a_reused_solver_match_the_reference(
        src in support::arb_search_program(6),
        sets in arb_assumption_sets(6),
    ) {
        let g = ground(&src);
        let opts = SolveOptions { max_models: 1, ..SolveOptions::default() };
        let mut reused = Solver::new(&g);
        for (k, set) in sets.iter().enumerate() {
            let assumptions = lits(&g, set);
            let got = reused
                .has_model_with_assumptions(&assumptions, &opts)
                .expect("within budget");
            prop_assert_eq!(
                got, !support::rendered(&g, &assumptions).is_empty(),
                "query {}, program:\n{}", k, src
            );
        }
    }

    /// Branch-and-bound under CDCL: the oracle's optimal costs (or
    /// unsatisfiability), including under a one-conflict restart interval.
    #[test]
    fn cdcl_optimizer_finds_the_reference_optimum(
        src in support::arb_search_program(6),
        restart_hard in any::<bool>(),
    ) {
        let g = ground(&src);
        let opts = SolveOptions::default();
        let mut solver = Solver::new(&g);
        if restart_hard {
            solver.set_restart_interval(1);
        }
        let best = solver.optimize(&opts).expect("within budget");
        prop_assert_eq!(
            best.map(|m| m.cost), support::optimum(&g, &[]),
            "optimal cost, program:\n{}", src
        );
    }
}

/// The card-heavy comparison at release depth. A conflict whose
/// explanation runs through the guard of a cardinality element is rare in
/// these programs: with the guard literals dropped from such explanations,
/// the 96 cases above all pass, and the first failing case of this stream
/// is case 1,206. The test keeps the name of the one above, so it draws the
/// same stream of programs and carries it on to 20,000 (about 4 s in
/// release).
mod depth {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        #[ignore = "release depth; run in release with --ignored"]
        fn cdcl_enumerates_identical_answer_sets_on_card_heavy_programs(
            src in support::arb_search_program(7),
        ) {
            card_heavy_program_matches(&src)?;
        }
    }
}
