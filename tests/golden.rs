//! Byte-level golden output: the case study's assessment reports on both
//! back-ends, and a sample of catalog outcomes from both engines, against
//! text committed under `tests/golden/`. A change of representation of the
//! answer types must leave every JSON document, `Display` line and `Debug`
//! line exactly as it was.

use std::fmt::Write as _;
use std::rc::Rc;

use cpsrisk::casestudy::water_tank_problem;
use cpsrisk::epa::{catalog_problem, Query, ScenarioOutcome, ScenarioSpace, Session};
use cpsrisk::epa::{SweepOptions, TopologyAnalysis};
use cpsrisk::hierarchy::{coarse_water_tank_problem, PlantOracle};
use cpsrisk::{report, Assessment, AssessmentReport};

/// The report as pretty JSON, then one `Display` line per outcome, per
/// rated hazard (as `cpsrisk assess` prints it), per minimal hazard and per
/// spurious finding.
fn render(report: &AssessmentReport) -> String {
    let mut text = report::to_json(report).expect("the report serializes");
    text.push('\n');
    for o in &report.outcomes {
        writeln!(text, "outcome {o}").unwrap();
    }
    for h in &report.hazards {
        let violated: Vec<_> = h.outcome.violated.iter().collect();
        writeln!(
            text,
            "hazard {} -> {violated:?} risk {}",
            h.outcome.scenario, h.risk
        )
        .unwrap();
    }
    for h in &report.minimal_hazards {
        writeln!(text, "minimal {h}").unwrap();
    }
    for (o, refuted) in &report.spurious {
        writeln!(text, "spurious {o} refuted {refuted:?}").unwrap();
    }
    text
}

/// `assessment` on the direct engine and on the ASP back-end: both render
/// to the committed text.
fn assert_golden(assessment: Assessment, golden: &str, label: &str) {
    let direct = render(&assessment.clone().run().expect("direct run"));
    assert_eq!(direct, golden, "{label}: direct engine");
    let asp = render(&assessment.with_asp_backend().run().expect("ASP run"));
    assert_eq!(asp, golden, "{label}: ASP back-end");
}

#[test]
fn case_study_reports_are_byte_identical() {
    let problem = water_tank_problem(&[]).unwrap();
    assert_golden(
        Assessment::new(problem)
            .with_phase_budgets(&[60, 200])
            .with_sensitivity(),
        include_str!("golden/assess_case_study.txt"),
        "case study",
    );
    let mitigated = water_tank_problem(&["m1", "m2"]).unwrap();
    assert_golden(
        Assessment::new(mitigated).with_phase_budgets(&[60, 200]),
        include_str!("golden/assess_case_study_mitigated.txt"),
        "mitigated case study",
    );
    let coarse = coarse_water_tank_problem().unwrap();
    assert_golden(
        Assessment::new(coarse).with_oracle(Rc::new(PlantOracle::new())),
        include_str!("golden/assess_coarse_with_oracle.txt"),
        "coarse case study with the plant oracle",
    );
}

/// `Display`, compact JSON and `Debug` of each outcome, one line each.
fn render_outcomes(outcomes: &[ScenarioOutcome]) -> String {
    let mut text = String::new();
    for o in outcomes {
        writeln!(text, "{o}").unwrap();
        writeln!(text, "{}", serde_json::to_string(o).unwrap()).unwrap();
        writeln!(text, "{o:?}").unwrap();
    }
    text
}

#[test]
fn catalog_outcomes_are_byte_identical() {
    let problem = catalog_problem(34, 4, 0xC47A);
    // Every 25th scenario of at most two faults: 20 of 497.
    let scenarios: Vec<_> = ScenarioSpace::new(&problem, 2).iter().step_by(25).collect();
    assert_eq!(scenarios.len(), 20);

    let session = Session::new(&problem, None).unwrap();
    let queries: Vec<Query> = scenarios.iter().cloned().map(Query::Outcome).collect();
    let (answers, _) = session
        .sweep(&queries, &SweepOptions::with_threads(2))
        .unwrap();
    let asp: Vec<ScenarioOutcome> = answers
        .into_iter()
        .map(|a| match a {
            cpsrisk::epa::Answer::Outcome(o) => o,
            cpsrisk::epa::Answer::Margin(_) => unreachable!("outcome queries"),
        })
        .collect();
    assert_eq!(
        render_outcomes(&asp),
        include_str!("golden/catalog_outcomes_asp.txt")
    );

    let direct = TopologyAnalysis::new(&problem);
    let direct: Vec<ScenarioOutcome> = scenarios.iter().map(|s| direct.evaluate(s)).collect();
    assert_eq!(
        render_outcomes(&direct),
        include_str!("golden/catalog_outcomes_direct.txt")
    );
}
