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

/// A random *search-heavy* program over atoms a0..a{n-1}: alongside
/// facts, rules, and constraints it generates **bounded** cardinality
/// choices (`L { .. } U.`), which ground to `CardConstraint`s and force
/// the counter-propagation path the generic suite rarely reaches.
fn arb_search_program(n_atoms: usize) -> impl Strategy<Value = String> {
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
    let rule = prop_oneof![
        atom().prop_map(|h| format!("{h}.")),
        (atom(), body(4)).prop_map(|(h, b)| format!("{h} :- {b}.")),
        body(3).prop_map(|b| format!(":- {b}.")),
        bounded_choice.clone(),
        bounded_choice,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bounded cardinality choices: the oracle's answer sets, space
    /// exhausted.
    #[test]
    fn cdcl_enumerates_identical_answer_sets_on_card_heavy_programs(
        src in arb_search_program(7),
    ) {
        let g = ground(&src);
        let (cdcl, exhausted) = canonical(&mut Solver::new(&g), &SolveOptions::default());
        prop_assert_eq!(&cdcl, &support::rendered(&g, &[]), "program:\n{}", src);
        prop_assert!(exhausted, "exhausted flag, program:\n{}", src);
    }

    /// A one-conflict Luby interval restarts on *every* conflict before
    /// the first model: maximal stress on backjumping to level 0, phase
    /// saving, and learned-unit replay. Enumeration must be unchanged.
    #[test]
    fn cdcl_with_restart_interval_one_matches_the_reference(
        src in arb_search_program(7),
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
        src in arb_search_program(6),
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
        src in arb_search_program(6),
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

    /// Branch-and-bound under CDCL: the oracle's optimal costs (or
    /// unsatisfiability), including under a one-conflict restart interval.
    #[test]
    fn cdcl_optimizer_finds_the_reference_optimum(
        src in arb_search_program(6),
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
