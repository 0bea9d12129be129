//! Byte-level golden output: the case study's assessment reports on both
//! back-ends, a sample of catalog outcomes from both engines, and four
//! ground programs, against text committed under `tests/golden/`. A change
//! of representation of the answer types must leave every JSON document,
//! `Display` line and `Debug` line exactly as it was, and a change inside
//! the grounder must leave every atom id and every rule where it was: the
//! atom order fixes the CDCL search.

use std::fmt::Write as _;
use std::rc::Rc;

use cpsrisk::asp::program::{AtomId, GroundHead};
use cpsrisk::asp::{parse, GroundProgram, Grounder};
use cpsrisk::casestudy::water_tank_problem;
use cpsrisk::epa::workload::temporal_tank_problem;
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

/// A ground program in id order: every atom with its id, then rules,
/// cardinality constraints, minimize literals, shows and assumable atoms,
/// each naming atoms by id.
fn render_ground(g: &GroundProgram) -> String {
    fn ids(list: &[AtomId]) -> String {
        let ids: Vec<String> = list.iter().map(|a| a.0.to_string()).collect();
        ids.join(" ")
    }
    fn body(pos: &[AtomId], neg: &[AtomId]) -> String {
        match (pos.is_empty(), neg.is_empty()) {
            (true, true) => String::new(),
            (false, true) => format!(" :- {}", ids(pos)),
            (true, false) => format!(" :- not {}", ids(neg)),
            (false, false) => format!(" :- {}, not {}", ids(pos), ids(neg)),
        }
    }
    let mut text = String::new();
    for (id, atom) in g.atoms() {
        writeln!(text, "atom {} {atom}", id.0).unwrap();
    }
    for r in &g.rules {
        let head = match r.head {
            GroundHead::Atom(h) => h.0.to_string(),
            GroundHead::Choice(h) => format!("{{{}}}", h.0),
            GroundHead::None => "#false".to_owned(),
        };
        writeln!(text, "rule {head}{}", body(&r.pos, &r.neg)).unwrap();
    }
    for c in &g.cards {
        write!(
            text,
            "card {}..{}{}",
            c.lower,
            c.upper,
            body(&c.pos, &c.neg)
        )
        .unwrap();
        for e in &c.elements {
            write!(text, " ; {}{}", e.atom.0, body(&e.guard_pos, &e.guard_neg)).unwrap();
        }
        text.push('\n');
    }
    for (prio, lits) in &g.minimize {
        for l in lits {
            let tuple: Vec<String> = l.tuple.iter().map(ToString::to_string).collect();
            writeln!(
                text,
                "minimize {}@{prio},{}{}",
                l.weight,
                tuple.join(","),
                body(&l.pos, &l.neg)
            )
            .unwrap();
        }
    }
    for (pred, arity) in &g.shows {
        writeln!(text, "show {pred}/{arity}").unwrap();
    }
    writeln!(text, "assumable {}", ids(&g.assumable)).unwrap();
    text
}

fn ground_file(path: &str) -> GroundProgram {
    let src = std::fs::read_to_string(path).expect("the example program exists");
    Grounder::new()
        .ground(&parse(&src).expect("the example program parses"))
        .expect("the example program grounds")
}

/// Compound, string and negative-integer terms, a bounded choice with a
/// negated condition, two `#minimize` priorities and assumable facts.
const TERMS_PROGRAM: &str = r#"
item(a). item(b). item("two words"). cost(a, 3). cost(b, -2). cost("two words", 7).
pair(f(X, N)) :- cost(X, N).
nest(g(c, 1)). nest(g(c, -1)).
deep(h(P, G)) :- pair(P), nest(G).
banned(X) :- cost(X, N), N < 0.
1 { pick(X) : item(X), not banned(X) } 2.
flag(a). flag(b).
on(X) :- flag(X), pick(X).
:- on(a), on(b).
#minimize { N@1,X : pick(X), cost(X, N) }.
#minimize { 1@2,P : deep(P) }.
#show pick/1.
"#;

#[test]
fn ground_programs_are_byte_identical() {
    let root = env!("CARGO_MANIFEST_DIR");
    assert_eq!(
        render_ground(&ground_file(&format!("{root}/../../examples/listing1.lp"))),
        include_str!("golden/ground_listing1.txt"),
        "examples/listing1.lp"
    );
    assert_eq!(
        render_ground(&ground_file(&format!(
            "{root}/../../examples/water_tank.lp"
        ))),
        include_str!("golden/ground_water_tank.txt"),
        "examples/water_tank.lp"
    );
    let temporal = Grounder::new()
        .ground(&temporal_tank_problem(8))
        .expect("the temporal tank program grounds");
    assert_eq!(
        render_ground(&temporal),
        include_str!("golden/ground_temporal_tank_8.txt"),
        "temporal_tank_problem(8)"
    );
    let session = Session::new(&catalog_problem(34, 4, 0xC47A), None).unwrap();
    assert_eq!(
        render_ground(session.ground()),
        include_str!("golden/ground_catalog_outcome.txt"),
        "the outcome program of catalog_problem(34, 4, 0xC47A)"
    );
    let terms = Grounder::new()
        .assumable("flag", 1)
        .ground(&parse(TERMS_PROGRAM).unwrap())
        .unwrap();
    assert_eq!(
        render_ground(&terms),
        include_str!("golden/ground_terms.txt"),
        "compound, string and negative terms"
    );
}

/// The certificate `cpsrisk solve --certify <path>` writes, read back.
fn certificate_of(path: &str, label: &str) -> String {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "cpsrisk_golden_{label}_{}.proof",
        std::process::id()
    ));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_cpsrisk"))
        .args(["solve", path])
        .arg("--certify")
        .arg(&out)
        .output()
        .expect("cpsrisk runs");
    assert!(
        status.status.success(),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("the certificate was written");
    std::fs::remove_file(&out).ok();
    text
}

/// The certificate `cpsrisk solve --certify` writes for the water-tank
/// program. The program is non-tight (some of its atoms lie on positive
/// loops), and the certificate pins the whole search: every completion
/// axiom, well-founded fact, inference and model, in order.
#[test]
fn water_tank_certificate_is_byte_identical() {
    let root = env!("CARGO_MANIFEST_DIR");
    let text = certificate_of(
        &format!("{root}/../../examples/water_tank.lp"),
        "water_tank",
    );
    assert_eq!(text, include_str!("golden/certificate_water_tank.txt"));
}

/// The certificate of a small program whose search falsifies positive
/// loops through the unfounded-set backstop. The water-tank search never
/// takes that step, so this pin is what covers it.
#[test]
fn unfounded_loops_certificate_is_byte_identical() {
    let root = env!("CARGO_MANIFEST_DIR");
    let text = certificate_of(
        &format!("{root}/../../tests/golden/unfounded_loops.lp"),
        "unfounded_loops",
    );
    let golden = include_str!("golden/certificate_unfounded_loops.txt");
    assert!(
        golden.lines().any(|l| l.starts_with("unf ")),
        "the pinned certificate carries unfounded-set steps"
    );
    assert_eq!(text, golden);
}
