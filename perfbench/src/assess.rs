//! `assess`: the seven-step pipeline of Fig. 1 with the ASP back-end on
//! catalog-scale plants — exhaustive enumeration, rating and mitigation
//! selection together.

use std::ops::RangeInclusive;
use std::time::Instant;

use cpsrisk::asp::diag::has_errors;
use cpsrisk::asp::{SolveOptions, Solver};
use cpsrisk::epa::{
    catalog_problem, encode, EncodeMode, EpaProblem, ExhaustiveAnalysis, ScenarioOutcome,
    ScenarioSpace, TopologyAnalysis,
};
use cpsrisk::mitigation::{
    best_under_budget, AttackScenario, Coverage, MitigationCandidate, MitigationProblem, Selection,
};
use cpsrisk::qr::Qual;
use cpsrisk::risk::ora;
use cpsrisk::{Assessment, RatedHazard};

use crate::trace::Tracer;
use crate::Workload;

const COMPONENTS: usize = 34;
const CHAINS: usize = 4;
const MAX_FAULTS: usize = 2;
/// Plants assessed per iteration. Same-size plants still differ in cost by
/// about ten percent; the sum over several keeps the figure steady from
/// seed to seed.
const PLANTS: usize = 6;

/// Size class of the workload, that of the default seed's instance:
/// mitigation candidates (`best_under_budget` visits all 2^14 subsets),
/// scenarios of at most two faults, and minimal hazards.
const CANDIDATES: usize = 14;
const SCENARIOS: u128 = 497;
const MINIMAL_HAZARDS: RangeInclusive<usize> = 36..=38;

pub struct Assess {
    catalog_seeds: Vec<u64>,
}

impl Assess {
    pub fn new(seed: u64) -> Result<Self, String> {
        let catalog_seeds: Vec<u64> = crate::catalog_seeds(seed)
            .filter(|&s| {
                let p = catalog_problem(COMPONENTS, CHAINS, s);
                p.mitigations.len() == CANDIDATES
                    && ScenarioSpace::new(&p, MAX_FAULTS).scenario_count() == SCENARIOS
                    && MINIMAL_HAZARDS
                        .contains(&TopologyAnalysis::new(&p).minimal_hazards(MAX_FAULTS).len())
            })
            .take(PLANTS)
            .collect();
        if catalog_seeds.len() < PLANTS {
            return Err("too few catalog instances of the assess size class".to_owned());
        }
        let seeds: Vec<String> = catalog_seeds.iter().map(|s| format!("{s:#x}")).collect();
        eprintln!(
            "assess: {PLANTS} x catalog_problem({COMPONENTS}, {CHAINS}, seed), \
             {CANDIDATES} mitigation candidates and {SCENARIOS} scenarios each; \
             catalog seeds {}",
            seeds.join(", ")
        );
        Ok(Assess { catalog_seeds })
    }
}

/// The parts of an [`cpsrisk::AssessmentReport`] the replay reproduces.
#[derive(Debug, PartialEq)]
pub struct AssessOut {
    outcomes: Vec<ScenarioOutcome>,
    hazards: Vec<RatedHazard>,
    minimal_hazards: Vec<ScenarioOutcome>,
    recommendation: Option<(Selection, u64)>,
    residual_loss: u64,
}

impl Workload for Assess {
    type State = Vec<Assessment>;
    type Output = Vec<AssessOut>;

    fn setup(&self, tr: &mut Tracer) -> Result<Vec<Assessment>, String> {
        Ok(self
            .catalog_seeds
            .iter()
            .map(|&seed| {
                let problem = tr.span("input.generate", |_| {
                    catalog_problem(COMPONENTS, CHAINS, seed)
                });
                Assessment::new(problem)
                    .with_asp_backend()
                    .with_max_faults(MAX_FAULTS)
            })
            .collect())
    }

    fn run(&self, plants: &mut Vec<Assessment>, tr: &mut Tracer) -> Result<Vec<AssessOut>, String> {
        plants.iter().map(|a| tr.unit(|tr| assess(a, tr))).collect()
    }

    fn probe(
        &self,
        plants: &mut Vec<Assessment>,
        outs: &Vec<AssessOut>,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let (mut models, mut search_us) = (0usize, 0.0);
        for (a, out) in plants.iter().zip(outs) {
            let (m, us) = probe(a, out, tr)?;
            models += m;
            search_us += us;
        }
        tr.count("asp.solve_us_per_model", search_us / models.max(1) as f64);
        Ok(())
    }

    fn check(&self, plants: &Vec<Assessment>, outs: &Vec<AssessOut>) -> Result<(), String> {
        plants
            .iter()
            .zip(outs)
            .try_for_each(|(a, out)| check(a, out))
    }
}

/// One plant through `Assessment::run`, or, with an enabled tracer,
/// through its steps replayed as public calls.
fn assess(assessment: &Assessment, tr: &mut Tracer) -> Result<AssessOut, String> {
    if !tr.enabled() {
        let r = assessment.run().map_err(|e| e.to_string())?;
        return Ok(AssessOut {
            outcomes: r.outcomes,
            hazards: r.hazards,
            minimal_hazards: r.minimal_hazards,
            recommendation: r.recommendation,
            residual_loss: r.residual_loss,
        });
    }
    // The steps of `Assessment::run`, one public call each.
    let p = assessment.problem();
    tr.span("model.validate", |_| p.model.validate())
        .map_err(|e| e.to_string())?;
    let lint = tr.span("model.lint", |_| cpsrisk::model::lint_model(&p.model));
    if has_errors(&lint) {
        return Err("model lint errors".to_owned());
    }
    let analysis = tr
        .span("epa.exhaustive_ground", |_| {
            ExhaustiveAnalysis::new(p, Some(MAX_FAULTS as u32))
        })
        .map_err(|e| e.to_string())?;
    tr.count("asp.ground_rules", analysis.ground().rules.len() as f64);
    tr.count("asp.ground_atoms", analysis.ground().atom_count() as f64);
    let outcomes = tr
        .span("epa.exhaustive_enumerate", |_| analysis.outcomes())
        .map_err(|e| e.to_string())?;
    let minimal_hazards = tr.span("epa.topology", |_| {
        TopologyAnalysis::new(p).minimal_hazards(MAX_FAULTS)
    });
    let hazards = tr.span("risk.rate", |_| {
        let mut hazards: Vec<RatedHazard> = outcomes
            .iter()
            .filter(|o| o.is_hazard())
            .map(|o| rate(p, o))
            .collect();
        hazards.sort_by(|a, b| {
            b.risk
                .cmp(&a.risk)
                .then_with(|| a.outcome.scenario.len().cmp(&b.outcome.scenario.len()))
                .then_with(|| a.outcome.scenario.cmp(&b.outcome.scenario))
        });
        hazards
    });
    let problem = tr.span("mitigation.problem", |tr| {
        mitigation_problem(p, &minimal_hazards, tr)
    });
    tr.count("mitigation.candidates", problem.candidates.len() as f64);
    let budget = problem.candidates.iter().map(|c| c.total_cost(1)).sum();
    let selection = tr.span("mitigation.optimize", |_| {
        best_under_budget(&problem, budget)
    });
    let residual_loss = problem.residual_loss(&selection);
    let recommendation = if selection.ids.is_empty() {
        None
    } else {
        let cost = problem.cost(&selection);
        Some((selection, cost))
    };
    Ok(AssessOut {
        outcomes,
        hazards,
        minimal_hazards,
        recommendation,
        residual_loss,
    })
}

/// `Assessment::run` itself (the measurement loop has already compared
/// the replay's output with it), and the encoding and search layers on the
/// plant's exhaustive program. Returns the model count and the search time
/// in microseconds.
fn probe(
    assessment: &Assessment,
    out: &AssessOut,
    tr: &mut Tracer,
) -> Result<(usize, f64), String> {
    tr.span("core.assess", |_| assessment.run())
        .map_err(|e| e.to_string())?;
    let p = assessment.problem();
    let bound = Some(MAX_FAULTS as u32);
    tr.span("epa.encode", |_| {
        encode(p, &EncodeMode::Exhaustive { max_faults: bound })
    });
    // The search layer on the exhaustive ground program: one model per
    // scenario.
    let analysis = ExhaustiveAnalysis::new(p, bound).map_err(|e| e.to_string())?;
    let mut solver = tr.span("asp.solve_init", |_| Solver::new(analysis.ground()));
    let t = Instant::now();
    let res = tr
        .span("asp.solve_search", |_| {
            solver.enumerate(&SolveOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let search_us = t.elapsed().as_secs_f64() * 1e6;
    if res.models.len() != out.outcomes.len() {
        return Err(format!(
            "{} models for {} scenarios",
            res.models.len(),
            out.outcomes.len()
        ));
    }
    tr.count("asp.solve_decisions", res.decisions as f64);
    tr.count("asp.solve_conflicts", res.conflicts as f64);
    tr.count("asp.solve_propagations", res.propagations as f64);
    tr.count("asp.solve_restarts", res.restarts as f64);
    tr.count("asp.solve_learned", solver.learned_nogoods() as f64);
    tr.count("asp.solve_models", res.models.len() as f64);
    Ok((res.models.len(), search_us))
}

/// The ASP outcomes against the direct fixpoint engine, which shares no
/// code with the ASP path.
fn check(assessment: &Assessment, out: &AssessOut) -> Result<(), String> {
    let p = assessment.problem();
    let mut direct = TopologyAnalysis::new(p).evaluate_all(MAX_FAULTS);
    let mut asp = out.outcomes.clone();
    direct.sort_by(|a, b| a.scenario.cmp(&b.scenario));
    asp.sort_by(|a, b| a.scenario.cmp(&b.scenario));
    if asp.len() != direct.len() {
        return Err(format!(
            "{} ASP outcomes, {} direct",
            asp.len(),
            direct.len()
        ));
    }
    if let Some((a, d)) = asp.iter().zip(&direct).find(|(a, d)| a != d) {
        return Err(format!("ASP outcome {a} differs from direct {d}"));
    }
    let hazards = direct.iter().filter(|o| o.is_hazard()).count();
    if out.hazards.len() != hazards {
        return Err(format!(
            "{} rated hazards, {hazards} expected",
            out.hazards.len()
        ));
    }
    if out.minimal_hazards.iter().any(|m| !m.is_hazard()) {
        return Err("a minimal hazard violates nothing".to_owned());
    }
    Ok(())
}

/// Step 6: loss magnitude joins component criticality and fault severity;
/// loss event frequency is the meet of the faults' likelihoods.
fn rate(p: &EpaProblem, outcome: &ScenarioOutcome) -> RatedHazard {
    let mut lm = Qual::VeryLow;
    for (component, _) in &outcome.effective_modes {
        if let Some(ann) = p.model.annotation(component) {
            lm = lm.join(ann.criticality);
        }
    }
    let mut lef = Qual::VeryHigh;
    for fault in outcome.scenario.iter() {
        if let Some(m) = p.mutation(fault) {
            lm = lm.join(m.severity);
            lef = lef.meet(m.likelihood);
        }
    }
    if outcome.scenario.is_empty() {
        lef = Qual::VeryLow;
    }
    RatedHazard {
        outcome: outcome.clone(),
        loss_magnitude: lm,
        loss_event_frequency: lef,
        risk: ora::risk(lm, lef),
    }
}

/// Step 7's optimisation problem over the minimal hazards, loss one order
/// of magnitude per risk band.
fn mitigation_problem(
    p: &EpaProblem,
    minimal_hazards: &[ScenarioOutcome],
    tr: &mut Tracer,
) -> MitigationProblem {
    let candidates = p
        .mitigations
        .iter()
        .map(|m| MitigationCandidate {
            id: m.id.clone(),
            name: m.name.clone(),
            cost: m.cost,
            maintenance_cost: m.maintenance_cost,
            blocks: m.blocks.iter().cloned().collect(),
        })
        .collect();
    let scenarios = tr.span("risk.rate", |_| {
        minimal_hazards
            .iter()
            .enumerate()
            .map(|(i, h)| AttackScenario {
                id: format!("h{}", i + 1),
                faults: h.scenario.iter().map(str::to_owned).collect(),
                loss: 10u64.pow(rate(p, h).risk.index() as u32),
                attack_cost: 0,
            })
            .collect()
    });
    MitigationProblem {
        candidates,
        scenarios,
        coverage: Coverage::Any,
        periods: 1,
    }
}
