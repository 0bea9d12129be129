//! `Session::decide_statically` on the paper's water-tank case study,
//! against the conditional well-founded model computed from scratch for
//! every scenario of at most two faults.

#[path = "../crates/epa/tests/support/static_oracle.rs"]
mod static_oracle;
#[path = "../crates/asp/tests/support/wfm_oracle.rs"]
mod wfm_oracle;

use cpsrisk::casestudy::{water_tank_problem, water_tank_problem_refined};
use cpsrisk::epa::{ScenarioSpace, Session};

#[test]
fn static_outcomes_match_the_from_scratch_wfm_on_the_case_study() {
    let problems = [
        ("water_tank_problem", water_tank_problem(&[]).unwrap()),
        (
            "water_tank_problem_refined",
            water_tank_problem_refined(&[]).unwrap(),
        ),
    ];
    for (label, problem) in &problems {
        let session = Session::new(problem, None).expect("the case study grounds");
        for scenario in ScenarioSpace::new(problem, 2).iter() {
            let want = static_oracle::outcome(session.ground(), problem, &scenario);
            assert!(want.is_some(), "{label}: the oracle leaves {scenario} open");
            assert_eq!(
                session.decide_statically(&scenario),
                want,
                "{label}: scenario {scenario}"
            );
        }
    }
}
