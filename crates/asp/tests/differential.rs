//! Differential testing: the CDCL engine vs the guess-and-check oracle.
//!
//! On randomly generated programs [`Solver::new`] must enumerate exactly
//! the answer sets of the oracle in `support` (itself pinned to full-subset
//! enumeration by the brute-force suite), exhaust the search space, and
//! find the oracle's optimal costs; a reused solver must answer every
//! query of an assumption stream like a fresh one.

mod support;

use proptest::prelude::*;

use cpsrisk_asp::ast::Atom;
use cpsrisk_asp::{GroundProgram, Grounder, Lit, Program, SolveOptions, Solver};

/// A random program over atoms a0..a{n-1}: facts, normal rules, choices,
/// constraints, and an optional `#minimize` over a weighted atom subset —
/// slightly larger shapes than the brute-force suite can afford.
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
    (prop::collection::vec(rule, 1..10), minimize)
        .prop_map(|(rules, min)| format!("{}\n{min}", rules.join("\n")))
}

fn ground(src: &str) -> GroundProgram {
    let program: Program = src.parse().expect("generated programs parse");
    Grounder::new()
        .ground(&program)
        .expect("generated programs ground")
}

/// Canonical view of an enumeration: sorted model renderings plus the
/// exhausted flag. Model text renders every true atom in sorted display
/// order, so equal sets of strings mean equal sets of answer sets.
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

/// A stream of assumption sets over atoms `a0..a{n-1}`: each set pins a
/// few atoms to a polarity (contradictory pins included — both paths must
/// then agree the query is unsatisfiable).
fn arb_assumption_sets(n_atoms: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(
        prop::collection::vec((0..n_atoms, any::<bool>()), 0..4),
        1..6,
    )
}

/// Resolve an assumption set against a ground program; atoms the grounder
/// never interned are skipped (they cannot be assumed).
fn lits(g: &GroundProgram, set: &[(usize, bool)]) -> Vec<Lit> {
    set.iter()
        .filter_map(|&(i, positive)| {
            g.lookup(&Atom::prop(format!("a{i}")))
                .map(|atom| Lit { atom, positive })
        })
        .collect()
}

/// [`canonical`] under an assumption set.
fn canonical_assume(solver: &mut Solver, lits: &[Lit], opts: &SolveOptions) -> (Vec<String>, bool) {
    let result = solver
        .solve_with_assumptions(lits, opts)
        .expect("within budget");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_enumerate_identical_answer_sets(src in arb_program(7)) {
        let g = ground(&src);
        let (cdcl, exhausted) = canonical(&mut Solver::new(&g), &SolveOptions::default());
        prop_assert_eq!(&cdcl, &support::rendered(&g, &[]), "program:\n{}", src);
        prop_assert!(exhausted, "exhausted flag, program:\n{}", src);
    }

    #[test]
    fn engines_agree_under_model_limits(src in arb_program(6), max in 1usize..4) {
        // Under max_models the solver surfaces some *prefix* of the answer
        // sets (CDCL branches by activity and phase): it must deliver
        // min(max, total) genuine answer sets, and report the space
        // exhausted exactly when it stopped short of the limit.
        let g = ground(&src);
        let all = support::rendered(&g, &[]);
        let opts = SolveOptions { max_models: max, ..SolveOptions::default() };
        let (limited, exhausted) = canonical(&mut Solver::new(&g), &opts);
        prop_assert_eq!(limited.len(), all.len().min(max), "program:\n{}", src);
        for m in &limited {
            prop_assert!(all.contains(m), "not an answer set: {}\nprogram:\n{}", m, src);
        }
        prop_assert_eq!(exhausted, all.len() < max, "exhausted flag, program:\n{}", src);
    }

    /// One solver reused across a whole stream of randomized assumption
    /// sets (with and without learned-nogood retention) must enumerate
    /// exactly what a fresh `Solver::new` enumerates per call: identical
    /// answer sets and exhausted flags, query after query — and both must
    /// equal the oracle's answer sets under the same assumptions.
    #[test]
    fn reused_assumption_solver_matches_fresh_solver_per_call(
        src in arb_program(6),
        sets in arb_assumption_sets(6),
        retain in any::<bool>(),
    ) {
        let g = ground(&src);
        let opts = SolveOptions::default();
        let mut reused = Solver::new(&g);
        for (k, set) in sets.iter().enumerate() {
            if !retain {
                reused.clear_learned();
            }
            let assumptions = lits(&g, set);
            let (got, ex_g) = canonical_assume(&mut reused, &assumptions, &opts);
            let (want, ex_w) = canonical_assume(&mut Solver::new(&g), &assumptions, &opts);
            prop_assert_eq!(
                &got, &want,
                "query {} (retain={}), program:\n{}", k, retain, src
            );
            prop_assert_eq!(
                &want, &support::rendered(&g, &assumptions),
                "oracle, query {}, program:\n{}", k, src
            );
            prop_assert_eq!(
                ex_g, ex_w,
                "exhausted flag, query {} (retain={}), program:\n{}", k, retain, src
            );
        }
    }

    /// Same reuse property for the optimizer: equal optimal costs (or
    /// equal unsatisfiability) under every assumption set in the stream,
    /// and the oracle's optimum.
    #[test]
    fn reused_assumption_optimizer_matches_fresh_solver_per_call(
        src in arb_program(5),
        sets in arb_assumption_sets(5),
    ) {
        let g = ground(&src);
        let opts = SolveOptions::default();
        let mut reused = Solver::new(&g);
        for (k, set) in sets.iter().enumerate() {
            let assumptions = lits(&g, set);
            let got = reused
                .optimize_with_assumptions(&assumptions, &opts)
                .expect("within budget");
            let want = Solver::new(&g)
                .optimize_with_assumptions(&assumptions, &opts)
                .expect("within budget");
            let cost = |m: &Option<cpsrisk_asp::Model>| m.as_ref().map(|m| m.cost.clone());
            prop_assert_eq!(
                cost(&got), cost(&want),
                "reuse vs fresh optimum, query {}, program:\n{}", k, src
            );
            prop_assert_eq!(
                cost(&want), support::optimum(&g, &assumptions),
                "oracle optimum, query {}, program:\n{}", k, src
            );
        }
    }

    #[test]
    fn engines_find_equal_optimal_costs(src in arb_program(6)) {
        let g = ground(&src);
        let best = Solver::new(&g).optimize(&SolveOptions::default()).expect("within budget");
        prop_assert_eq!(
            best.map(|m| m.cost), support::optimum(&g, &[]),
            "optimal cost, program:\n{}", src
        );
    }
}
