//! Differential testing: the CDCL engine vs the guess-and-check oracle,
//! on search-heavy programs.
//!
//! The generic differential suite (`tests/differential.rs`) pins the
//! engine on broad random programs. This suite stresses the search
//! machinery: bounded cardinality choices (watched-literal and counter
//! propagation interact), a one-conflict restart interval (every conflict
//! triggers a Luby restart, so backjumping, phase saving, and
//! learned-nogood replay are exercised constantly), the unfounded-set
//! closure on programs made non-tight by positive loops (loops entered
//! from generated atoms, loops through them, loops feeding generated heads,
//! choices and constraints, and one loop feeding another), and assumption
//! streams over a reused solver with retained learned nogoods, also on a
//! solver holding a base of pins, whose level-0 closure is kept between
//! calls. In every configuration the CDCL engine must enumerate exactly
//! the answer sets of the oracle in `support`, or, for a based solver,
//! those of a fresh solver given the base and the call's pins together.

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

/// One to three positive-loop gadgets over and around the generated atoms
/// a0..a{n-1}, so the unfounded cone reaches past the loops:
/// - a fresh loop entered from a generated atom, feeding a generated head
///   and a choice;
/// - a loop through two generated atoms (one atom for a self-loop),
///   feeding a third;
/// - two fresh loops, the second fed by the first, feeding a generated
///   head and a constraint.
///
/// Some loop rules carry a negative literal, and only generated atoms are
/// negated or chosen, so the oracle's guess atoms stay among a0..a{n-1}.
fn arb_loops(n_atoms: usize) -> impl Strategy<Value = String> {
    let gadget = (0u8..3, prop::collection::vec(0..n_atoms, 5), any::<bool>());
    prop::collection::vec(gadget, 1..4).prop_map(|gadgets| {
        let mut out = Vec::new();
        for (g, (kind, at, negated)) in gadgets.into_iter().enumerate() {
            let [e, h, c, x, f] = [at[0], at[1], at[2], at[3], at[4]];
            let guard = if negated {
                format!(", not a{x}")
            } else {
                String::new()
            };
            out.push(match kind {
                0 => format!(
                    "l{g} :- a{e}. l{g} :- k{g}. k{g} :- l{g}{guard}.\n\
                     a{h} :- k{g}.\n{{ a{c} }} :- l{g}."
                ),
                1 => format!("a{e} :- a{h}{guard}. a{h} :- a{e}.\na{c} :- a{h}."),
                _ => format!(
                    "l{g} :- a{e}. l{g} :- k{g}. k{g} :- l{g}.\n\
                     m{g} :- n{g}. n{g} :- m{g}, l{g}. m{g} :- a{f}{guard}.\n\
                     a{h} :- n{g}.\n:- m{g}, not a{c}."
                ),
            });
        }
        out.join("\n")
    })
}

/// A program with loop gadgets appended: the same answer sets as the
/// oracle on full enumeration, and on a stream of existence queries and
/// enumerations under assumptions over one reused solver.
fn looped_program_matches(
    src: &str,
    loops: &str,
    sets: &[Vec<(usize, bool)>],
) -> Result<(), TestCaseError> {
    let src = format!("{src}\n{loops}");
    let g = ground(&src);
    let opts = SolveOptions::default();
    let (cdcl, exhausted) = canonical(&mut Solver::new(&g), &opts);
    prop_assert_eq!(&cdcl, &support::rendered(&g, &[]), "program:\n{}", src);
    prop_assert!(exhausted, "exhausted flag, program:\n{}", src);
    let mut reused = Solver::new(&g);
    for (k, set) in sets.iter().enumerate() {
        let assumptions = lits(&g, set);
        let want = support::rendered(&g, &assumptions);
        let exists = reused
            .has_model_with_assumptions(&assumptions, &opts)
            .expect("within budget");
        prop_assert_eq!(exists, !want.is_empty(), "query {}, program:\n{}", k, src);
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
        prop_assert_eq!(rendered, want, "query {}, program:\n{}", k, src);
    }
    Ok(())
}

/// A stream of call pins on one solver holding the pins `base` (its level-0
/// closure kept between calls): each call's existence verdict and model set
/// equal a fresh solver's given base and call pins as plain assumptions.
/// Random pins contradict the base or each other, and some bases are
/// refuted by the program; a one-conflict restart interval makes calls
/// learn units. Debug builds also check every restored call against a
/// closure from scratch.
fn based_stream_matches(
    src: &str,
    loops: &str,
    base: &[(usize, bool)],
    sets: &[Vec<(usize, bool)>],
    restart_hard: bool,
) -> Result<(), TestCaseError> {
    let src = format!("{src}\n{loops}");
    let g = ground(&src);
    let opts = SolveOptions::default();
    let base = lits(&g, base);
    let mut based = Solver::with_base(&g, &base);
    if restart_hard {
        based.set_restart_interval(1);
    }
    for (k, set) in sets.iter().enumerate() {
        let pins = lits(&g, set);
        let all: Vec<Lit> = base.iter().chain(&pins).copied().collect();
        let want = render(
            &Solver::new(&g)
                .solve_with_assumptions(&all, &opts)
                .expect("within budget"),
        );
        let exists = based
            .has_model_with_assumptions(&pins, &opts)
            .expect("within budget");
        prop_assert_eq!(exists, !want.0.is_empty(), "query {}, program:\n{}", k, src);
        let got = render(
            &based
                .solve_with_assumptions(&pins, &opts)
                .expect("within budget"),
        );
        prop_assert_eq!(got, want, "query {}, program:\n{}", k, src);
    }
    Ok(())
}

/// Sorted model renderings and the exhausted flag of a result.
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

    /// Loops that reach generated heads, choices and constraints, loops
    /// through generated atoms, and chained loops: the backstop's cone
    /// spans far more than the loops themselves, under full enumeration
    /// and under assumption streams on a reused solver.
    #[test]
    fn cdcl_matches_the_reference_when_loops_feed_the_program(
        src in support::arb_search_program(6),
        loops in arb_loops(6),
        sets in arb_assumption_sets(6),
    ) {
        looped_program_matches(&src, &loops, &sets)?;
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

    /// Streams of call pins on a solver holding a base of pins, on programs
    /// with loop gadgets: the same verdicts and models as fresh solvers
    /// given base and call pins together.
    #[test]
    fn based_solver_streams_match_fresh_solvers(
        src in support::arb_search_program(6),
        loops in arb_loops(6),
        base in prop::collection::vec((0..6usize, any::<bool>()), 0..4),
        sets in arb_assumption_sets(6),
        restart_hard in any::<bool>(),
    ) {
        based_stream_matches(&src, &loops, &base, &sets, restart_hard)?;
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

/// The card-heavy and loop comparisons at release depth. A conflict whose
/// explanation runs through the guard of a cardinality element is rare in
/// these programs: with the guard literals dropped from such explanations,
/// the 96 cases above all pass, and the first failing case of this stream
/// is case 1,206. Each test keeps the name of its counterpart above, so it
/// draws the same stream of programs and carries it on to 20,000.
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

        #[test]
        #[ignore = "release depth; run in release with --ignored"]
        fn cdcl_matches_the_reference_when_loops_feed_the_program(
            src in support::arb_search_program(6),
            loops in arb_loops(6),
            sets in arb_assumption_sets(6),
        ) {
            looped_program_matches(&src, &loops, &sets)?;
        }

        #[test]
        #[ignore = "release depth; run in release with --ignored"]
        fn based_solver_streams_match_fresh_solvers(
            src in support::arb_search_program(6),
            loops in arb_loops(6),
            base in prop::collection::vec((0..6usize, any::<bool>()), 0..4),
            sets in arb_assumption_sets(6),
            restart_hard in any::<bool>(),
        ) {
            based_stream_matches(&src, &loops, &base, &sets, restart_hard)?;
        }
    }
}
