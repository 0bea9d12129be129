//! `Session::decide_statically` and `Session::sweep`, which answer each
//! outcome query from a resident conditional well-founded model, against
//! the same model computed from scratch for every scenario. A query is
//! composed from the one-fault queries of its faults when their footprints
//! compose, and otherwise recomputes the forward cone of its faults (the
//! sweep in one reused workspace per worker).

#[path = "support/static_oracle.rs"]
mod static_oracle;
#[path = "../../asp/tests/support/wfm_oracle.rs"]
mod wfm_oracle;

use cpsrisk_epa::workload::catalog_problem;
use cpsrisk_epa::{Answer, EpaProblem, Query, ScenarioSpace, Session, SweepOptions};

/// Every scenario of at most `max_faults` faults is decided statically,
/// with the from-scratch outcome, and a two-thread sweep of them all
/// answers each with that outcome too.
fn assert_static_outcomes_match(problem: &EpaProblem, max_faults: usize, label: &str) {
    let session = Session::new(problem, None).expect("the problem grounds");
    let mut queries = Vec::new();
    let mut wants = Vec::new();
    for scenario in ScenarioSpace::new(problem, max_faults).iter() {
        let want = static_oracle::outcome(session.ground(), problem, &scenario);
        assert!(want.is_some(), "{label}: the oracle leaves {scenario} open");
        assert_eq!(
            session.decide_statically(&scenario),
            want,
            "{label}: scenario {scenario}"
        );
        queries.push(Query::Outcome(scenario));
        wants.extend(want);
    }
    assert!(queries.len() > 1, "{label}: the space has faulty scenarios");
    let (answers, _) = session
        .sweep(&queries, &SweepOptions::with_threads(2))
        .expect("the sweep succeeds");
    assert_eq!(answers.len(), queries.len(), "{label}");
    for ((query, answer), want) in queries.iter().zip(answers).zip(wants) {
        assert_eq!(answer, Answer::Outcome(want), "{label}: sweep of {query:?}");
    }
}

/// The last plant's scenarios of three faults compose from three
/// one-fault queries.
#[test]
fn static_outcomes_match_the_from_scratch_wfm_on_catalog_plants() {
    for (seed, max_faults) in [(0xC47A, 2), (1, 2), (2, 3)] {
        let problem = catalog_problem(34, 4, seed);
        let label = format!("catalog_problem(34, 4, {seed:#x}), {max_faults} faults");
        assert_static_outcomes_match(&problem, max_faults, &label);
    }
}

/// The first plant of the `sweep` benchmark (9,454 scenarios) and a plant
/// of seed 1 (9,592), decided one by one and swept on two threads. Slow in
/// a debug build; `ci.sh` runs it in release with `--ignored`.
#[test]
#[ignore = "catalog scale; run in release with --ignored"]
fn static_outcomes_match_the_from_scratch_wfm_on_the_sweep_plant() {
    for (seed, scenarios) in [(0x5dda_d83b_4e87_4069, 9454), (1, 9592)] {
        let problem = catalog_problem(120, 17, seed);
        assert_eq!(ScenarioSpace::new(&problem, 2).scenario_count(), scenarios);
        assert_static_outcomes_match(&problem, 2, &format!("catalog_problem(120, 17, {seed:#x})"));
    }
}
