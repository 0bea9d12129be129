//! Cross-engine consistency: the direct fixpoint engine, the ASP encoding,
//! the exhaustive choice-based enumeration, the behavioural analysis, the
//! plant simulation, and the FTA baseline all see the same world.

use std::collections::BTreeMap;

use cpsrisk::asp::{SolveOptions, Solver};
use cpsrisk::casestudy;
use cpsrisk::epa::behavioral::analyze_behavior;
use cpsrisk::epa::encode::{analyze_exhaustive, outcome_of_model};
use cpsrisk::epa::workload::chain_problem;
use cpsrisk::epa::{
    catalog_problem, minimal_hazards, ExhaustiveAnalysis, Scenario, ScenarioSpace, TopologyAnalysis,
};
use cpsrisk::fta::compare::compare_methods;
use cpsrisk::model::aspect::MergedModel;
use cpsrisk::model::{ElementKind, Relation, RelationKind, SystemModel};
use cpsrisk::qr::statemachine::Guard;
use cpsrisk::qr::QualMachine;
use cpsrisk::temporal::parse_ltl;

#[test]
fn exhaustive_asp_enumeration_equals_direct_sweep() {
    let problem = casestudy::water_tank_problem(&[]).expect("problem builds");
    let direct = TopologyAnalysis::new(&problem);

    let mut asp_outcomes = analyze_exhaustive(&problem, None).expect("asp enumerates");
    asp_outcomes.sort_by(|a, b| a.scenario.cmp(&b.scenario));
    let mut direct_outcomes: Vec<_> = ScenarioSpace::new(&problem, usize::MAX)
        .iter()
        .map(|s| direct.evaluate(&s))
        .collect();
    direct_outcomes.sort_by(|a, b| a.scenario.cmp(&b.scenario));

    assert_eq!(asp_outcomes.len(), direct_outcomes.len());
    for (a, d) in asp_outcomes.iter().zip(&direct_outcomes) {
        assert_eq!(a.scenario, d.scenario);
        assert_eq!(a.violated, d.violated, "scenario {}", a.scenario);
        assert_eq!(a.effective_modes, d.effective_modes);
    }
}

/// EXPERIMENTS.md Perf-1: on control chains of 2 and 4 devices the ASP
/// enumeration finds the same 2^(n+2) outcomes as the direct engine.
#[test]
fn exhaustive_asp_enumeration_equals_direct_sweep_on_chains() {
    for n in [2, 4] {
        let problem = chain_problem(n);
        let direct = TopologyAnalysis::new(&problem);
        let mut asp: Vec<_> = analyze_exhaustive(&problem, None).expect("asp enumerates");
        asp.sort_by(|a, b| a.scenario.cmp(&b.scenario));
        let mut expected: Vec<_> = direct.evaluate_all(usize::MAX);
        expected.sort_by(|a, b| a.scenario.cmp(&b.scenario));
        assert_eq!(asp.len(), 1 << (n + 2));
        assert_eq!(asp, expected, "chain of {n}");
    }
}

/// The production path no longer enumerates the choice-rule program:
/// its stable models, one per scenario, are the oracle for the
/// resident-session sweep of `analyze_exhaustive`.
#[test]
fn listing_1_models_equal_the_session_sweep() {
    let cases = [
        (
            casestudy::water_tank_problem(&[]).expect("problem builds"),
            None,
        ),
        (chain_problem(2), None),
        (chain_problem(4), None),
        (catalog_problem(34, 4, 0xC47A), Some(2)),
    ];
    for (problem, max_faults) in cases {
        let name = &problem.model.name;
        let analysis = ExhaustiveAnalysis::new(&problem, max_faults).expect("grounds");
        let models = Solver::new(analysis.ground())
            .enumerate(&SolveOptions::default())
            .expect("enumerates")
            .models;
        let mut listing_1: Vec<_> = models.iter().map(outcome_of_model).collect();
        listing_1.sort_by(|a, b| a.scenario.cmp(&b.scenario));
        let mut swept = analyze_exhaustive(&problem, max_faults).expect("sweeps");
        swept.sort_by(|a, b| a.scenario.cmp(&b.scenario));
        assert_eq!(listing_1, swept, "{name}");
    }
}

/// The shared minimal-hazard filter keeps its input's order and, on the
/// direct engine's outcomes, is `TopologyAnalysis::minimal_hazards`.
#[test]
fn minimal_hazard_filter_keeps_input_order() {
    let problem = casestudy::water_tank_problem(&[]).expect("problem builds");
    let direct = TopologyAnalysis::new(&problem);
    let mut outcomes = direct.evaluate_all(usize::MAX);
    let minimal = minimal_hazards(&outcomes);
    assert_eq!(minimal, direct.minimal_hazards(usize::MAX));
    let scenarios: Vec<_> = minimal.iter().map(|h| h.scenario.clone()).collect();
    let expected = [&["f2"][..], &["f4"], &["f2", "f3"]].map(Scenario::of);
    assert_eq!(scenarios, expected, "scenario-space order");
    outcomes.reverse();
    let reversed: Vec<_> = minimal.iter().rev().cloned().collect();
    assert_eq!(minimal_hazards(&outcomes), reversed);
}

#[test]
fn refined_model_agrees_across_engines() {
    let problem = casestudy::water_tank_problem_refined(&[]).expect("problem builds");
    let direct = TopologyAnalysis::new(&problem);
    for scenario in ScenarioSpace::new(&problem, 2).iter() {
        let d = direct.evaluate(&scenario);
        let a = cpsrisk::epa::encode::analyze_fixed(&problem, &scenario).expect("asp runs");
        assert_eq!(d.violated, a.violated, "refined scenario {scenario}");
    }
}

#[test]
fn fta_baseline_underreports_exactly_the_propagated_hazards() {
    let problem = casestudy::water_tank_problem(&[]).expect("problem builds");
    let report = compare_methods(&problem, "r1", usize::MAX).expect("r1 exists");
    // Every miss involves f4 (the interaction/propagation fault) and no
    // direct valve fault.
    assert!(!report.missed_by_fta.is_empty());
    for missed in &report.missed_by_fta {
        assert!(
            missed.contains("f4"),
            "FTA only misses workstation-induced hazards"
        );
        assert!(!missed.contains("f2"));
    }
    assert!(
        report.extra_in_fta.is_empty(),
        "FTA never over-reports vs EPA"
    );
    assert!(report.fta_coverage() < 1.0);
    // EXPERIMENTS.md Perf-4: FTA misses 4 of EPA's 12 R1 hazards.
    assert_eq!(report.missed_by_fta.len(), 4);
    assert_eq!(report.agreed + report.missed_by_fta.len(), 12);
}

/// Behavioural (Listing 2) analysis agrees with the qualitative trace of
/// the continuous plant for a valve→tank chain.
#[test]
fn behavioral_analysis_matches_plant_style_dynamics() {
    let mut system = SystemModel::new("chain");
    system
        .add_element("valve", "Valve", ElementKind::Equipment)
        .unwrap();
    system
        .add_element("tank", "Tank", ElementKind::Equipment)
        .unwrap();
    system
        .insert_relation(Relation::new("valve", "tank", RelationKind::Flow).with_label("water"))
        .unwrap();

    let mut valve = QualMachine::new("valve", "closed").unwrap();
    valve.add_state("closed", [("water", "off")]).unwrap();
    valve
        .add_fault_state("stuck_open", [("water", "on")])
        .unwrap();

    let mut tank = QualMachine::new("tank", "normal").unwrap();
    for s in ["normal", "high", "overflow"] {
        tank.add_state(s, [("level", s)]).unwrap();
    }
    tank.add_transition("normal", vec![Guard::new("water", "on")], "high")
        .unwrap();
    tank.add_transition("high", vec![Guard::new("water", "on")], "overflow")
        .unwrap();

    let mut behaviors = BTreeMap::new();
    behaviors.insert("valve".to_owned(), valve);
    behaviors.insert("tank".to_owned(), tank);
    let merged = MergedModel { system, behaviors };

    let r1 = (
        "r1".to_owned(),
        parse_ltl("G !state(tank, overflow)").unwrap(),
    );

    // Nominal: no fault, valve closed, tank stays normal.
    let ok = analyze_behavior(&merged, &BTreeMap::new(), std::slice::from_ref(&r1), 5).unwrap();
    assert!(ok.violated.is_empty());

    // Stuck-open valve: the tank overflows within the horizon, exactly as
    // the continuous plant does under F1+F2-style misactuation.
    let faulted: BTreeMap<String, String> = [("valve".to_owned(), "stuck_open".to_owned())].into();
    let bad = analyze_behavior(&merged, &faulted, &[r1], 5).unwrap();
    assert!(bad.violated.contains("r1"));
}

#[test]
fn scenario_monotonicity_adding_faults_never_heals() {
    // Worst-case qualitative semantics must be monotone: a superset of
    // faults violates at least as much.
    let problem = casestudy::water_tank_problem(&[]).expect("problem builds");
    let analysis = TopologyAnalysis::new(&problem);
    let all: Vec<Scenario> = ScenarioSpace::new(&problem, usize::MAX).iter().collect();
    for a in &all {
        for b in &all {
            if a.iter().all(|f| b.contains(f)) {
                let va = analysis.evaluate(a).violated;
                let vb = analysis.evaluate(b).violated;
                assert!(
                    va.is_subset(&vb),
                    "monotonicity violated: {a} ⊆ {b} but {va:?} ⊄ {vb:?}"
                );
            }
        }
    }
}

#[test]
fn mutation_injection_from_catalog_builds_a_solvable_problem() {
    use cpsrisk::epa::{inject_mutations, EpaProblem};
    use cpsrisk::model::TypeLibrary;
    use cpsrisk::threat::ThreatCatalog;

    let model = casestudy::water_tank_model().expect("model builds");
    let library = TypeLibrary::standard();
    let catalog = ThreatCatalog::curated();
    let mutations = inject_mutations(&model, &library, &catalog);
    assert!(
        mutations.len() >= 10,
        "library + catalog populate the fault universe"
    );

    let problem = EpaProblem::new(
        model,
        mutations,
        casestudy::water_tank_requirements(),
        vec![],
    )
    .expect("validates");
    // Bounded sweep stays tractable and finds the known hazards.
    let hazards = TopologyAnalysis::new(&problem).hazards(1);
    assert!(hazards.iter().any(|h| h
        .effective_modes
        .contains(&("output_valve".into(), "stuck_at_closed".into()))));
}
