use super::*;
use crate::ground::Grounder;
use crate::parse;

fn solve_all(src: &str) -> Vec<Model> {
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let mut s = Solver::new(&g);
    let r = s.enumerate(&SolveOptions::default()).unwrap();
    assert!(r.exhausted);
    r.models
}

fn model_strings(models: &[Model]) -> Vec<String> {
    let mut out: Vec<String> = models
        .iter()
        .map(|m| {
            m.atoms
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    out.sort();
    out
}

#[test]
fn definite_program_has_unique_model() {
    let models = solve_all("p. q :- p. r :- q, p.");
    assert_eq!(models.len(), 1);
    assert!(models[0].contains_str("r"));
}

#[test]
fn inconsistent_program_has_no_models() {
    let models = solve_all("p. :- p.");
    assert!(models.is_empty());
}

#[test]
fn even_loop_yields_two_models() {
    // Classic: a :- not b. b :- not a.
    let models = solve_all("a :- not b. b :- not a.");
    assert_eq!(model_strings(&models), vec!["a", "b"]);
}

#[test]
fn odd_loop_is_inconsistent() {
    let models = solve_all("a :- not a.");
    assert!(models.is_empty());
}

#[test]
fn positive_loop_is_unfounded() {
    let models = solve_all("a :- b. b :- a.");
    assert_eq!(models.len(), 1);
    assert!(models[0].atoms.is_empty());
}

#[test]
fn choice_rule_enumerates_subsets() {
    let models = solve_all("{ a; b }.");
    assert_eq!(models.len(), 4);
}

#[test]
fn tight_certificate_tracks_ground_positive_loops() {
    let tight_src = "{ fault(a) }. affected(X) :- fault(X). :- affected(a).";
    let g = Grounder::new().ground(&parse(tight_src).unwrap()).unwrap();
    assert!(Solver::new(&g).tight());
    // Choices keep the loop derivable through the semi-naive grounder.
    let loopy = "{ x }. a :- x. a :- b. b :- a.";
    let g = Grounder::new().ground(&parse(loopy).unwrap()).unwrap();
    assert!(!Solver::new(&g).tight());
}

#[test]
fn tight_fast_path_matches_closure_on_tight_programs() {
    // Choice + chain + constraint + even negation loop: tight, with
    // nondeterminism the completion nogoods must track across backjumps.
    let src = "{ c(1); c(2); c(3) }. r(X) :- c(X). s :- r(1), r(2). \
               :- r(3), not s. a :- not b. b :- not a.";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let mut fast = Solver::new(&g);
    assert!(fast.tight());
    let rf = fast.enumerate(&SolveOptions::default()).unwrap();
    assert!(rf.exhausted);
    // The fast path skips the unfounded-set closure; the independent
    // reduct check over every candidate set must still agree.
    let n = g.atom_count();
    let mut closure: Vec<String> = (0u32..1 << n)
        .map(|mask| -> HashSet<AtomId> {
            (0..n as u32)
                .filter(|i| mask & (1 << i) != 0)
                .map(AtomId)
                .collect()
        })
        .filter(|candidate| check::is_stable_model(&g, candidate))
        .map(|candidate| {
            let mut atoms: Vec<String> = candidate.iter().map(|&a| g.atom(a).to_string()).collect();
            atoms.sort();
            atoms.join(" ")
        })
        .collect();
    closure.sort();
    assert_eq!(model_strings(&rf.models), closure);
    assert_eq!(rf.models.len(), 10);
}

#[test]
fn tight_mode_falsifies_atoms_without_any_rule() {
    // b has no defining rule: the zero-support unit must falsify it
    // before the constraint can be judged.
    let models = solve_all("{ a }. :- not b.");
    assert!(models.is_empty());
}

#[test]
fn non_tight_programs_keep_the_unfounded_closure() {
    // Without the certificate the backstop must refute the `a`/`b` loop
    // once `x` is false.
    let g = Grounder::new()
        .ground(&parse("{ x }. a :- x. a :- b. b :- a. :- not a.").unwrap())
        .unwrap();
    let mut s = Solver::new(&g);
    assert!(!s.tight());
    let r = s.enumerate(&SolveOptions::default()).unwrap();
    assert_eq!(model_strings(&r.models), vec!["a b x"]);
}

#[test]
fn the_backstop_reads_false_entries_outside_the_cone() {
    // `x` lies outside the cone of the `a`/`b` loop, and `c` is derived
    // from it. With `x` false the loop's only entry is blocked, so the
    // backstop falsifies `a`, `b` and `c` before the first decision. A
    // closure that took `x` for possible would leave them to the search,
    // which the stability audit would still correct: only the decision
    // count tells the two apart.
    let g = Grounder::new()
        .ground(&parse("{ x }. { y }. a :- x. a :- b. b :- a. c :- b, y.").unwrap())
        .unwrap();
    let cone: Vec<String> = crate::analysis::unfounded_cone(&g)
        .into_iter()
        .map(|id| g.atom(id).to_string())
        .collect();
    assert_eq!(cone.len(), 3, "a, b and c: {cone:?}");
    let x = g.lookup(&crate::ast::Atom::prop("x")).unwrap();
    let y = g.lookup(&crate::ast::Atom::prop("y")).unwrap();
    let mut s = Solver::new(&g);
    let opts = SolveOptions::default();
    assert!(s
        .has_model_with_assumptions(&[Lit::neg(x), Lit::pos(y)], &opts)
        .unwrap());
    assert_eq!(s.decisions(), 0, "decided by the backstop alone");
    let r = s
        .solve_with_assumptions(&[Lit::neg(x), Lit::pos(y)], &opts)
        .unwrap();
    assert_eq!(model_strings(&r.models), vec!["y"]);
}

#[test]
fn bounded_choice_respects_bounds() {
    let models = solve_all("item(x). item(y). item(z). 1 { pick(I) : item(I) } 2.");
    // C(3,1) + C(3,2) = 6 models.
    assert_eq!(models.len(), 6);
    for m in &models {
        let picks = m.atoms_of("pick").len();
        assert!((1..=2).contains(&picks));
    }
}

#[test]
fn constraints_prune_models() {
    let models = solve_all("{ a; b }. :- a, b. :- not a, not b.");
    assert_eq!(models.len(), 2);
}

#[test]
fn listing_one_fault_activation_semantics() {
    // Without the mitigation active the fault is potential; with it, not.
    let src = "component(ew). fault(f4). mitigation(f4, m2). \
               { active_mitigation(ew, m2) }. \
               potential_fault(C, F) :- component(C), fault(F), \
                   mitigation(F, M), not active_mitigation(C, M).";
    let models = solve_all(src);
    assert_eq!(models.len(), 2);
    let with_mitigation = models
        .iter()
        .find(|m| m.contains_str("active_mitigation(ew,m2)"))
        .unwrap();
    assert!(!with_mitigation.contains_str("potential_fault(ew,f4)"));
    let without = models
        .iter()
        .find(|m| !m.contains_str("active_mitigation(ew,m2)"))
        .unwrap();
    assert!(without.contains_str("potential_fault(ew,f4)"));
}

#[test]
fn optimization_finds_minimum() {
    let src = "item(a). item(b). item(c). \
               cost(a, 7). cost(b, 3). cost(c, 5). \
               1 { pick(I) : item(I) } 1. \
               #minimize { C,I : pick(I), cost(I, C) }.";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let mut s = Solver::new(&g);
    let best = s.optimize(&SolveOptions::default()).unwrap().unwrap();
    assert!(best.contains_str("pick(b)"));
    assert_eq!(best.cost, vec![(0, 3)]);
}

#[test]
fn optimization_with_priorities_is_lexicographic() {
    // High priority: minimize number of picks; low: total cost.
    let src = "item(a). item(b). cost(a, 1). cost(b, 1). \
               1 { pick(I) : item(I) } 2. \
               #minimize { 1@2,I : pick(I) }. \
               #minimize { C@1,I : pick(I), cost(I, C) }.";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let mut s = Solver::new(&g);
    let best = s.optimize(&SolveOptions::default()).unwrap().unwrap();
    assert_eq!(best.atoms_of("pick").len(), 1);
    assert_eq!(best.cost[0], (2, 1));
}

#[test]
fn brave_and_cautious_consequences() {
    let src = "a :- not b. b :- not a. c.";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let brave: Vec<String> = Solver::new(&g)
        .brave(&SolveOptions::default())
        .unwrap()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(brave, vec!["a", "b", "c"]);
    let cautious: Vec<String> = Solver::new(&g)
        .cautious(&SolveOptions::default())
        .unwrap()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(cautious, vec!["c"]);
}

#[test]
fn total_wfm_solves_without_decisions() {
    // Stratified program: the WFM decides every atom, so the seeds
    // leave nothing to branch on.
    let src = "p. q :- p. r :- q, not s.";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let mut s = Solver::new(&g);
    assert!(s.wfm().total());
    let res = s.enumerate(&SolveOptions::default()).unwrap();
    assert_eq!(res.models.len(), 1);
    assert_eq!(res.decisions, 0, "the backbone is the model");
}

#[test]
fn assumptions_against_the_backbone_yield_no_models() {
    let src = "p. q :- not r.";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let p = g.lookup(&Atom::prop("p")).unwrap();
    let mut s = Solver::new(&g);
    let res = s
        .solve_with_assumptions(&[Lit::neg(p)], &SolveOptions::default())
        .unwrap();
    assert!(res.models.is_empty() && res.exhausted);
    // The same assumption still enumerates fine when compatible.
    let res = s
        .solve_with_assumptions(&[Lit::pos(p)], &SolveOptions::default())
        .unwrap();
    assert_eq!(res.models.len(), 1);
}

#[test]
fn max_models_stops_early() {
    let g = Grounder::new()
        .ground(&parse("{ a; b; c }.").unwrap())
        .unwrap();
    let mut s = Solver::new(&g);
    let r = s
        .enumerate(&SolveOptions {
            max_models: 3,
            ..SolveOptions::default()
        })
        .unwrap();
    assert_eq!(r.models.len(), 3);
    assert!(!r.exhausted);
}

#[test]
fn decision_budget_is_enforced() {
    let g = Grounder::new()
        .ground(&parse("{ a; b; c; d; e; f }.").unwrap())
        .unwrap();
    let mut s = Solver::new(&g);
    let err = s
        .enumerate(&SolveOptions {
            max_decisions: 2,
            ..SolveOptions::default()
        })
        .unwrap_err();
    assert!(matches!(err, AspError::SolveBudget { limit: 2, .. }));
}

#[test]
fn budget_abort_reports_partial_statistics() {
    let g = Grounder::new()
        .ground(&parse("{ a; b; c; d; e; f }.").unwrap())
        .unwrap();
    let mut s = Solver::new(&g);
    let err = s
        .enumerate(&SolveOptions {
            max_decisions: 2,
            ..SolveOptions::default()
        })
        .unwrap_err();
    match err {
        AspError::SolveBudget {
            limit,
            decisions,
            conflicts,
        } => {
            assert_eq!(limit, 2);
            assert!(decisions + conflicts > limit, "abort past the budget");
        }
        other => panic!("expected SolveBudget, got {other:?}"),
    }
}

#[test]
fn model_cost_reported_even_without_optimize() {
    let src = "{ a }. #minimize { 5 : a }.";
    let models = solve_all(src);
    let costs: Vec<i64> = models.iter().map(|m| m.cost[0].1).collect();
    assert!(costs.contains(&0) && costs.contains(&5));
}

#[test]
fn minimize_set_semantics_counts_tuples_once() {
    // Two conditions with the same (weight, tuple) key count once.
    let src = "a. b. #minimize { 1,k : a; 1,k : b }.";
    let models = solve_all(src);
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].cost[0].1, 1);
}

#[test]
fn stratified_negation_solves_without_branching() {
    let src = "p(1..3). q(X) :- p(X), not skip(X). skip(2).";
    let models = solve_all(src);
    assert_eq!(models.len(), 1);
    assert!(models[0].contains_str("q(1)"));
    assert!(!models[0].contains_str("q(2)"));
    assert!(models[0].contains_str("q(3)"));
}

#[test]
fn contains_str_keeps_spaces_inside_string_constants() {
    let models = solve_all(r#"name("tank a"). level(tank, 3)."#);
    let m = &models[0];
    assert!(m.contains_str(r#"name("tank a")"#));
    assert!(m.contains_str(r#" name ( "tank a" ) "#));
    assert!(!m.contains_str(r#"name("tanka")"#));
    assert!(m.contains_str("level(tank, 3)"));
}

#[test]
fn display_respects_show_projection() {
    let src = "p(1). q(2). #show q/1.";
    let models = solve_all(src);
    assert_eq!(models[0].to_string(), "q(2)");
}

#[test]
fn graph_coloring_sanity() {
    // 3-coloring of a triangle: 6 models.
    let src = "node(1..3). color(r). color(g). color(b). \
               edge(1,2). edge(2,3). edge(1,3). \
               1 { assign(N, C) : color(C) } 1 :- node(N). \
               :- edge(X, Y), assign(X, C), assign(Y, C).";
    let models = solve_all(src);
    assert_eq!(models.len(), 6);
}

#[test]
fn luby_sequence_matches_the_reference_values() {
    let got: Vec<u64> = (1..=15).map(super::cdcl::luby).collect();
    assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
}

#[test]
fn watches_stay_consistent_after_backjumping() {
    // UNSAT 2-coloring of an odd cycle: guaranteed conflicts, backjumps
    // and (with interval 1) restarts before exhaustion.
    let src = "node(1..5). color(r). color(g). \
               edge(1,2). edge(2,3). edge(3,4). edge(4,5). edge(5,1). \
               1 { assign(N, C) : color(C) } 1 :- node(N). \
               :- edge(X, Y), assign(X, C), assign(Y, C).";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let mut s = Solver::new(&g);
    s.set_restart_interval(1);
    let r = s.enumerate(&SolveOptions::default()).unwrap();
    assert!(r.models.is_empty() && r.exhausted);
    assert!(r.conflicts > 0, "odd cycle must conflict");
    assert!(
        s.debug_check_watches(),
        "every nogood watched exactly at lits[0]/lits[1]"
    );
    // And the same store still answers a satisfiable variant: 3 colors.
    let src3 = src.replace("color(r). color(g).", "color(r). color(g). color(b).");
    let g3 = Grounder::new().ground(&parse(&src3).unwrap()).unwrap();
    let mut s3 = Solver::new(&g3);
    s3.set_restart_interval(1);
    let r3 = s3.enumerate(&SolveOptions::default()).unwrap();
    assert_eq!(r3.models.len(), 30, "2-colorings of C5 with 3 colors");
    assert!(s3.debug_check_watches());
}

#[test]
fn the_nogood_store_stays_consistent_across_a_database_reduction() {
    // Pigeonhole, 8 into 7: UNSAT with thousands of conflicts, enough for
    // the learned database to pass its first reduction threshold, which
    // compacts the store and rebuilds every watch list.
    let src = "p(1..8). h(1..7). 1 { in(P, H) : h(H) } 1 :- p(P). \
               :- in(P1, H), in(P2, H), p(P1), p(P2), P1 < P2.";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let mut s = Solver::new(&g);
    let r = s.enumerate(&SolveOptions::default()).unwrap();
    assert!(r.models.is_empty() && r.exhausted);
    assert!(s.cdcl.reduce_count > 0, "the database was reduced");
    assert!(s.debug_check_watches(), "store and watches agree");
    // The compacted store answers the next call: the refutation now
    // takes fewer conflicts, and the store stays consistent.
    let again = s.enumerate(&SolveOptions::default()).unwrap();
    assert!(again.models.is_empty() && again.exhausted);
    assert!(again.conflicts < r.conflicts);
    assert!(s.debug_check_watches());
    // Both searches are pinned: a compaction that keeps the store well
    // formed but moves the wrong literals under the kept watches still
    // refutes, by another search.
    assert_eq!(
        (r.decisions, r.conflicts, again.decisions, again.conflicts),
        (6_508, 5_758, 0, 1)
    );
}

#[test]
fn restarts_fire_under_a_tight_interval() {
    // UNSAT pigeonhole-style core: conflicts pile up before the (absent)
    // first model, so a 1-conflict Luby interval must restart.
    let src = "node(1..7). color(r). color(g). \
               edge(X, Y) :- node(X), node(Y), X < Y. \
               1 { assign(N, C) : color(C) } 1 :- node(N). \
               :- edge(X, Y), assign(X, C), assign(Y, C).";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let mut s = Solver::new(&g);
    s.set_restart_interval(1);
    let r = s.enumerate(&SolveOptions::default()).unwrap();
    assert!(r.models.is_empty() && r.exhausted, "K7 is not 2-colorable");
    assert!(r.conflicts > 1);
    assert!(
        r.restarts > 0,
        "interval 1 must restart: {} conflicts",
        r.conflicts
    );
    assert_eq!(r.restarts, s.restarts());
}

#[test]
fn explanation_store_stays_within_the_trail_while_refuting_pigeonhole() {
    // Six pigeons, five holes: every pigeon takes exactly one hole and
    // every hole at most one pigeon, so the refutation resolves through
    // cardinality inferences throughout. Each witness in the store forces
    // a literal still on the trail, so the store never holds more
    // witnesses than there are variables, however many the search makes.
    let src = "pigeon(1..6). hole(1..5). \
               1 { in(P, H) : hole(H) } 1 :- pigeon(P). \
               { in(P, H) : pigeon(P) } 1 :- hole(H).";
    let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
    let mut s = Solver::new(&g);
    let r = s.enumerate(&SolveOptions::default()).unwrap();
    assert!(
        r.models.is_empty() && r.exhausted,
        "6 pigeons do not fit 5 holes"
    );
    let n_vars = s.cdcl.n_vars;
    assert!(
        s.cdcl.ante_peak <= n_vars,
        "store peaked at {} witnesses over {n_vars} variables",
        s.cdcl.ante_peak
    );
    assert!(
        s.cdcl.ante_created > n_vars,
        "the refutation makes more witnesses ({}) than the bound",
        s.cdcl.ante_created
    );
}

#[test]
fn a_guarded_explanation_keeps_the_guard() {
    // Deciding a, then b, fills the bound, which falsifies c through its
    // guard a; `not c` then derives g1 and g2 and the constraint fails.
    // The learned nogood must keep the guard, {a, b}: without it, {b}
    // would be learned and the model {b, c} (a false, so c does not
    // count) lost.
    let src = "{ a; b; c }. \
               0 { c : a; b } 1. \
               g1 :- not c. g2 :- not c. \
               :- b, not c, g1, g2.";
    let models = model_strings(&solve_all(src));
    assert_eq!(
        models,
        vec!["a c", "a g1 g2", "b c", "c", "g1 g2"],
        "every subset of a, b, c with b -> c and not all three"
    );
}

#[test]
fn phase_saving_records_the_last_unassigned_value() {
    // Full enumeration of { a; b } flips every decision at least once, so
    // the saved phases end on the values of the last unassignments — and
    // the next call's first model must follow exactly those phases.
    let g = Grounder::new()
        .ground(&parse("{ a; b }.").unwrap())
        .unwrap();
    let a = g.lookup(&Atom::prop("a")).unwrap();
    let b = g.lookup(&Atom::prop("b")).unwrap();
    let mut s = Solver::new(&g);
    let r = s.enumerate(&SolveOptions::default()).unwrap();
    assert_eq!(r.models.len(), 4);
    let saved_a = s.cdcl.saved[a.index()];
    let saved_b = s.cdcl.saved[b.index()];
    assert_ne!(saved_a, Val::Unknown);
    assert_ne!(saved_b, Val::Unknown);
    assert_ne!(
        (saved_a, saved_b),
        (Val::True, Val::True),
        "enumeration must have flipped away from the initial all-True phase"
    );
    let r = s
        .enumerate(&SolveOptions {
            max_models: 1,
            ..SolveOptions::default()
        })
        .unwrap();
    let m = &r.models[0];
    assert_eq!(m.contains_str("a"), saved_a == Val::True, "phase steers a");
    assert_eq!(m.contains_str("b"), saved_b == Val::True, "phase steers b");
}

#[cfg(test)]
mod assumption_tests {
    use crate::ast::Atom;
    use crate::ground::Grounder;
    use crate::parse;
    use crate::solve::{Lit, SolveOptions, SolveResult, Solver};

    fn ground_assumable(src: &str, preds: &[(&str, usize)]) -> crate::program::GroundProgram {
        let mut g = Grounder::new();
        for (p, n) in preds {
            g = g.assumable(p, *n);
        }
        g.ground(&parse(src).unwrap()).unwrap()
    }

    fn lit(g: &crate::program::GroundProgram, name: &str, positive: bool) -> Lit {
        Lit {
            atom: g.lookup(&Atom::prop(name)).expect("atom interned"),
            positive,
        }
    }

    #[test]
    fn assumable_facts_become_choice_atoms() {
        let g = ground_assumable("p. q :- p.", &[("p", 0)]);
        assert_eq!(g.assumable.len(), 1);
        let mut s = Solver::new(&g);
        // Unassumed, p is free: two models.
        assert_eq!(
            s.enumerate(&SolveOptions::default()).unwrap().models.len(),
            2
        );
        // Pinned true: q follows.
        let r = s
            .solve_with_assumptions(&[lit(&g, "p", true)], &SolveOptions::default())
            .unwrap();
        assert_eq!(r.models.len(), 1);
        assert!(r.models[0].contains_str("q"));
        assert!(r.exhausted);
        // Pinned false on the same reused solver: q gone.
        let r = s
            .solve_with_assumptions(&[lit(&g, "p", false)], &SolveOptions::default())
            .unwrap();
        assert_eq!(r.models.len(), 1);
        assert!(!r.models[0].contains_str("q"));
    }

    #[test]
    fn non_fact_rules_of_assumable_predicates_stay_normal() {
        let g = ground_assumable("{ a }. p :- a.", &[("p", 0)]);
        assert!(g.assumable.is_empty(), "only facts become assumable");
    }

    #[test]
    fn contradictory_assumptions_are_unsat() {
        let g = ground_assumable("p.", &[("p", 0)]);
        let mut s = Solver::new(&g);
        let r = s
            .solve_with_assumptions(
                &[lit(&g, "p", true), lit(&g, "p", false)],
                &SolveOptions::default(),
            )
            .unwrap();
        assert!(r.models.is_empty());
        assert!(r.exhausted);
    }

    #[test]
    fn program_refuted_assumption_is_unsat_and_learns() {
        // p pinned true while a constraint forbids it.
        let g = ground_assumable("p. :- p.", &[("p", 0)]);
        let mut s = Solver::new(&g);
        let r = s
            .solve_with_assumptions(&[lit(&g, "p", true)], &SolveOptions::default())
            .unwrap();
        assert!(r.models.is_empty() && r.exhausted);
        assert!(r.conflicts > 0);
        assert_eq!(s.learned_nogoods(), 1, "the level-0 refutation is learned");
        // The learned nogood must not leak into other assumption sets.
        let r = s
            .solve_with_assumptions(&[lit(&g, "p", false)], &SolveOptions::default())
            .unwrap();
        assert_eq!(r.models.len(), 1);
    }

    #[test]
    fn reused_solver_equals_fresh_solver_across_assumption_sets() {
        let src = "{ a; b }. p. q :- p, a. :- q, b.";
        let g = ground_assumable(src, &[("p", 0)]);
        let mut reused = Solver::new(&g);
        for positive in [true, false, true, false] {
            let assumptions = [lit(&g, "p", positive)];
            let got = reused
                .solve_with_assumptions(&assumptions, &SolveOptions::default())
                .unwrap();
            let fresh = Solver::new(&g)
                .solve_with_assumptions(&assumptions, &SolveOptions::default())
                .unwrap();
            let render = |r: &SolveResult| {
                let mut v: Vec<String> = r
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
                v.sort();
                v
            };
            assert_eq!(render(&got), render(&fresh), "p = {positive}");
            assert_eq!(got.exhausted, fresh.exhausted);
        }
    }

    #[test]
    fn optimize_with_assumptions_respects_the_pin() {
        let src = "item(a). item(b). cost(a, 7). cost(b, 3). \
                   1 { pick(I) : item(I) } 1. \
                   allow_b. :- pick(b), not allow_b. \
                   #minimize { C,I : pick(I), cost(I, C) }.";
        let g = ground_assumable(src, &[("allow_b", 0)]);
        let mut s = Solver::new(&g);
        let with_b = s
            .optimize_with_assumptions(
                &[Lit::pos(g.lookup(&Atom::prop("allow_b")).unwrap())],
                &SolveOptions::default(),
            )
            .unwrap()
            .unwrap();
        assert!(with_b.contains_str("pick(b)"));
        assert_eq!(with_b.cost, vec![(0, 3)]);
        let without_b = s
            .optimize_with_assumptions(
                &[Lit::neg(g.lookup(&Atom::prop("allow_b")).unwrap())],
                &SolveOptions::default(),
            )
            .unwrap()
            .unwrap();
        assert!(without_b.contains_str("pick(a)"));
        assert_eq!(without_b.cost, vec![(0, 7)]);
    }

    #[test]
    fn clear_learned_drops_the_store() {
        let g = ground_assumable("p. :- p.", &[("p", 0)]);
        let mut s = Solver::new(&g);
        s.solve_with_assumptions(&[lit(&g, "p", true)], &SolveOptions::default())
            .unwrap();
        assert!(s.learned_nogoods() > 0);
        s.clear_learned();
        assert_eq!(s.learned_nogoods(), 0);
    }
}

#[cfg(test)]
mod bb_tests {
    use crate::ground::Grounder;
    use crate::parse;
    use crate::solve::{SolveOptions, Solver};

    #[test]
    fn branch_and_bound_prunes_the_selection_grid() {
        // Pick exactly 2 of 16 items minimizing weight: optimum 1+2 = 3.
        let src = "item(1..16). weight(I, I) :- item(I). \
                   2 { pick(I) : item(I) } 2. \
                   #minimize { W,I : pick(I), weight(I, W) }.";
        let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();

        let mut opt_solver = Solver::new(&g);
        let best = opt_solver
            .optimize(&SolveOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(best.cost, vec![(0, 3)]);
        let optimize_decisions = opt_solver.decision_count;

        let mut enum_solver = Solver::new(&g);
        let all = enum_solver.enumerate(&SolveOptions::default()).unwrap();
        assert_eq!(all.models.len(), 120, "C(16,2)");
        assert!(
            optimize_decisions < enum_solver.decision_count,
            "pruning must beat full enumeration: {} vs {}",
            optimize_decisions,
            enum_solver.decision_count
        );
    }

    #[test]
    fn pruning_is_sound_with_negative_weights() {
        let src = "{ a; b; c }. \
                   #minimize { -5 : a; 3 : b; -1 : c }.";
        let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
        let mut solver = Solver::new(&g);
        let best = solver.optimize(&SolveOptions::default()).unwrap().unwrap();
        // Optimal: a and c true, b false => -6.
        assert_eq!(best.cost, vec![(0, -6)]);
        assert!(best.contains_str("a") && best.contains_str("c") && !best.contains_str("b"));
    }

    #[test]
    fn multi_priority_pruning_is_sound() {
        let src = "{ a; b }. \
                   #minimize { 1@2 : a }. \
                   #minimize { 1@1 : b; 2@1 : a }.";
        let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
        let mut solver = Solver::new(&g);
        let best = solver.optimize(&SolveOptions::default()).unwrap().unwrap();
        assert_eq!(best.cost, vec![(2, 0), (1, 0)]);
        assert!(best.atoms.is_empty());
    }
}
