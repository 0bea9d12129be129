//! Property-based test suites over the framework's core invariants.

use proptest::prelude::*;

use cpsrisk::asp::{Grounder, SolveOptions, Solver};
use cpsrisk::mitigation::{
    best_under_budget, branch_and_bound, AttackScenario, Coverage, MitigationCandidate,
    MitigationProblem,
};
use cpsrisk::plant::{Fault, FaultSet, SimConfig, WaterTank};
use cpsrisk::qr::Qual;
use cpsrisk::risk::ora;
use cpsrisk::temporal::{unroll, Ltl, Trace};

// ---------------------------------------------------------------------
// LTLf: ASP unrolling ≡ direct trace semantics, on random formulas/traces.
// ---------------------------------------------------------------------

fn arb_formula() -> impl Strategy<Value = Ltl> {
    let leaf = prop_oneof![
        Just(Ltl::True),
        Just(Ltl::False),
        Just(Ltl::prop("p")),
        Just(Ltl::prop("q")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            inner.clone().prop_map(|f| f.next()),
            inner.clone().prop_map(|f| Ltl::WeakNext(Box::new(f))),
            inner.clone().prop_map(|f| f.finally()),
            inner.clone().prop_map(|f| f.globally()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.until(b)),
            (inner.clone(), inner).prop_map(|(a, b)| Ltl::Release(Box::new(a), Box::new(b))),
        ]
    })
}

fn arb_trace() -> impl Strategy<Value = Vec<(bool, bool)>> {
    prop::collection::vec((any::<bool>(), any::<bool>()), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ltl_unrolling_agrees_with_trace_semantics(formula in arb_formula(), steps in arb_trace()) {
        // Direct evaluation.
        let mut trace = Trace::new();
        for (p, q) in &steps {
            let mut atoms = Vec::new();
            if *p { atoms.push("p"); }
            if *q { atoms.push("q"); }
            trace.push_step_strs(atoms);
        }
        let expected = formula.eval(&trace, 0);

        // ASP unrolling over the same trace encoded as facts.
        let mut b = cpsrisk::asp::ProgramBuilder::new();
        for (t, (p, q)) in steps.iter().enumerate() {
            if *p { b.fact("p", [cpsrisk::asp::Term::Int(t as i64)]); }
            if *q { b.fact("q", [cpsrisk::asp::Term::Int(t as i64)]); }
        }
        let req = unroll(&mut b, "r", &formula, steps.len()).expect("unrolls");
        let models = b.finish().solve().expect("solves");
        prop_assert_eq!(models.len(), 1);
        let got = models[0].contains_str(&req.sat_atom.to_string());
        prop_assert_eq!(got, expected, "formula {} on {:?}", formula, steps);
    }

    #[test]
    fn desugar_preserves_random_formulas(formula in arb_formula(), steps in arb_trace()) {
        let mut trace = Trace::new();
        for (p, q) in &steps {
            let mut atoms = Vec::new();
            if *p { atoms.push("p"); }
            if *q { atoms.push("q"); }
            trace.push_step_strs(atoms);
        }
        let desugared = formula.desugar();
        for pos in 0..steps.len() {
            prop_assert_eq!(formula.eval(&trace, pos), desugared.eval(&trace, pos));
        }
    }
}

// ---------------------------------------------------------------------
// ASP: every enumerated model passes the independent stability check, and
// choice programs produce exactly 2^n models.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn choice_program_model_count(n in 1usize..7) {
        let atoms: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let src = format!("{{ {} }}.", atoms.join("; "));
        let program: cpsrisk::asp::Program = src.parse().expect("parses");
        let models = program.solve().expect("solves");
        prop_assert_eq!(models.len(), 1 << n);
    }

    #[test]
    fn constraint_halves_the_space(n in 2usize..6) {
        // Forbid one designated atom: exactly half the subsets survive.
        let atoms: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let src = format!("{{ {} }}. :- a0.", atoms.join("; "));
        let program: cpsrisk::asp::Program = src.parse().expect("parses");
        let models = program.solve().expect("solves");
        prop_assert_eq!(models.len(), 1 << (n - 1));
        prop_assert!(models.iter().all(|m| !m.contains_str("a0")));
    }

    #[test]
    fn cardinality_bounds_hold_in_every_model(n in 2usize..6, lo in 0u32..2, width in 0u32..3) {
        let hi = lo + width;
        let atoms: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let src = format!("{lo} {{ {} }} {hi}.", atoms.join("; "));
        let program: cpsrisk::asp::Program = src.parse().expect("parses");
        let ground = Grounder::new().ground(&program).expect("grounds");
        let mut solver = Solver::new(&ground);
        let result = solver.enumerate(&SolveOptions::default()).expect("solves");
        for m in &result.models {
            let k = m.atoms.len() as u32;
            prop_assert!(k >= lo && k <= hi.min(n as u32), "model size {k} outside [{lo},{hi}]");
        }
        // Count matches the binomial sum.
        let expected: u64 = (lo..=hi.min(n as u32)).map(|k| binom(n as u64, k as u64)).sum();
        prop_assert_eq!(result.models.len() as u64, expected);
    }
}

fn binom(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let mut r = 1u64;
    for i in 0..k {
        r = r * (n - i) / (i + 1);
    }
    r
}

// ---------------------------------------------------------------------
// Mitigation optimizer against its oracles: exact ≤ greedy; ASP == exact;
// budgeted selection == the exhaustive scan.
// ---------------------------------------------------------------------

#[path = "../crates/mitigation/tests/support/mod.rs"]
mod mitigation_oracles;

use mitigation_oracles::{
    exact_residual_and_cost, exhaustive_best_under_budget, greedy_cover, min_cost_blocking_asp,
    random_problem,
};

fn arb_mitigation_problem() -> impl Strategy<Value = MitigationProblem> {
    let faults = ["fa", "fb", "fc", "fd"];
    let candidates = prop::collection::vec(
        (
            1u64..300,
            prop::collection::btree_set(0usize..faults.len(), 1..3),
        ),
        1..5,
    );
    let scenarios = prop::collection::vec(
        (
            prop::collection::btree_set(0usize..faults.len(), 1..3),
            1u64..5000,
        ),
        1..4,
    );
    (candidates, scenarios).prop_map(move |(cands, scens)| MitigationProblem {
        candidates: cands
            .into_iter()
            .enumerate()
            .map(|(i, (cost, blocks))| MitigationCandidate {
                id: format!("m{i}"),
                name: format!("M{i}"),
                cost,
                maintenance_cost: 0,
                blocks: blocks.into_iter().map(|f| faults[f].to_owned()).collect(),
            })
            .collect(),
        scenarios: scens
            .into_iter()
            .enumerate()
            .map(|(i, (fs, loss))| AttackScenario {
                id: format!("s{i}"),
                faults: fs.into_iter().map(|f| faults[f].to_owned()).collect(),
                loss,
                attack_cost: 0,
            })
            .collect(),
        coverage: Coverage::Any,
        periods: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimizers_are_consistent(p in arb_mitigation_problem()) {
        match branch_and_bound(&p) {
            Ok(exact) => {
                prop_assert!(p.blocks_all(&exact));
                let greedy = greedy_cover(&p).expect("feasible problems stay feasible");
                prop_assert!(p.blocks_all(&greedy));
                prop_assert!(p.cost(&greedy) >= p.cost(&exact), "greedy never beats exact");
                let asp = min_cost_blocking_asp(&p).expect("asp solves feasible problems");
                prop_assert!(p.blocks_all(&asp));
                prop_assert_eq!(p.cost(&asp), p.cost(&exact), "asp optimum equals exact");
            }
            Err(_) => {
                prop_assert!(greedy_cover(&p).is_err());
                prop_assert!(min_cost_blocking_asp(&p).is_err());
            }
        }
    }

}

/// Random problems (see [`random_problem`]) run through both coverage
/// modes and budgets 0, partial, full and full + 1; the engine must return
/// the exhaustive scan's selection, and so its residual and cost. The
/// vendored proptest does not shrink, so a failure names its seed: keep
/// such a seed as a fixed case in front of the range.
#[test]
fn budget_selection_respects_the_budget() {
    for seed in 0..250 {
        let (mut p, budgets) = random_problem(seed);
        for coverage in [Coverage::Any, Coverage::All] {
            p.coverage = coverage;
            for &budget in &budgets {
                let sel = best_under_budget(&p, budget);
                let oracle = exhaustive_best_under_budget(&p, budget);
                let case = format!("seed {seed}, {coverage:?}, budget {budget}: {p:?}");
                let (residual, cost) = exact_residual_and_cost(&p, &sel);
                assert!(cost <= u128::from(budget), "over budget, {case}");
                assert_eq!(
                    (residual, cost),
                    exact_residual_and_cost(&p, &oracle),
                    "(residual, cost) differs from the scan, {case}"
                );
                assert_eq!(sel, oracle, "tie broken differently, {case}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Plant + risk matrix invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn plant_verdicts_are_monotone_in_faults(bits_a in 0u8..16, extra in 0u8..4) {
        // Adding a fault never un-violates a requirement.
        let a: FaultSet = Fault::ALL.iter().enumerate()
            .filter(|(i, _)| bits_a & (1 << i) != 0)
            .map(|(_, f)| *f)
            .collect();
        let mut b = a;
        b.insert(Fault::ALL[extra as usize % 4]);
        let tank = WaterTank::new(SimConfig::default());
        let (ra1, _) = tank.ground_truth(&a);
        let (rb1, _) = tank.ground_truth(&b);
        prop_assert!(!ra1 || rb1, "adding faults cannot heal R1");
    }

    #[test]
    fn ora_matrix_is_total_and_monotone(lm in 0usize..5, lef in 0usize..5) {
        let r = ora::risk(Qual::from_index(lm).unwrap(), Qual::from_index(lef).unwrap());
        prop_assert!(r.index() <= 4);
        if lm > 0 {
            let lower = ora::risk(Qual::from_index(lm - 1).unwrap(), Qual::from_index(lef).unwrap());
            prop_assert!(lower <= r);
        }
    }
}
