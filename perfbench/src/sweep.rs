//! `sweep`: a catalog-scale scenario sweep — multi-shot, assumption-based
//! solving of outcome and attack-margin queries on the work-stealing
//! scheduler.

use std::time::Instant;

use cpsrisk::asp::Grounder;
use cpsrisk::epa::{
    catalog_margin_budget, catalog_problem, catalog_queries, catalog_requirements_ranked, encode,
    CatalogAnalysis, CatalogAnswer, CatalogQuery, EncodeMode, EpaProblem, ScenarioSpace,
    SweepOptions, TopologyAnalysis,
};

use crate::trace::Tracer;
use crate::{quantile, Workload};

const COMPONENTS: usize = 120;
const CHAINS: usize = 17;
const MAX_FAULTS: usize = 2;
/// One margin query per this many scenarios.
const MARGIN_EVERY: usize = 64;
/// Worker threads, fixed rather than read from `CPSRISK_THREADS`.
const THREADS: usize = 2;
/// Size class of the workload, that of the default seed's instance:
/// scenarios of at most two faults (9,454 outcome queries, plus 148
/// margin queries).
const SCENARIOS: u128 = 9454;
/// Plants swept per iteration; the sum over two evens out the cost
/// differences between same-size plants.
const PLANTS: usize = 2;

pub struct Sweep {
    catalog_seeds: Vec<u64>,
}

impl Sweep {
    pub fn new(seed: u64) -> Result<Self, String> {
        let catalog_seeds: Vec<u64> = crate::catalog_seeds(seed)
            .filter(|&s| {
                let p = catalog_problem(COMPONENTS, CHAINS, s);
                ScenarioSpace::new(&p, MAX_FAULTS).scenario_count() == SCENARIOS
            })
            .take(PLANTS)
            .collect();
        if catalog_seeds.len() < PLANTS {
            return Err("too few catalog instances of the sweep size class".to_owned());
        }
        let seeds: Vec<String> = catalog_seeds.iter().map(|s| format!("{s:#x}")).collect();
        eprintln!(
            "sweep: {PLANTS} x catalog_problem({COMPONENTS}, {CHAINS}, seed), \
             {SCENARIOS} scenarios each, {THREADS} threads; catalog seeds {}",
            seeds.join(", ")
        );
        Ok(Sweep { catalog_seeds })
    }
}

/// One plant's resident analysis and query stream.
pub struct Plant {
    problem: EpaProblem,
    analysis: CatalogAnalysis,
    queries: Vec<CatalogQuery>,
}

impl Workload for Sweep {
    type State = Vec<Plant>;
    type Output = Vec<Vec<CatalogAnswer>>;
    const THREADS: usize = THREADS;

    fn setup(&self, tr: &mut Tracer) -> Result<Vec<Plant>, String> {
        self.catalog_seeds
            .iter()
            .map(|&seed| plant(seed, tr))
            .collect()
    }

    fn run(&self, plants: &mut Vec<Plant>, tr: &mut Tracer) -> Result<Self::Output, String> {
        let opts = SweepOptions::with_threads(THREADS);
        let (mut outs, mut steals, mut util_min, mut peak) = (Vec::new(), 0, 1.0, 0);
        for st in plants.iter() {
            let (answers, stats) = tr
                .unit(|tr| tr.span("epa.sweep", |_| st.analysis.sweep(&st.queries, &opts)))
                .map_err(|e| e.to_string())?;
            steals += stats.steals;
            util_min = stats.utilization().into_iter().fold(util_min, f64::min);
            peak = peak.max(stats.peak_in_flight);
            outs.push(answers);
        }
        tr.count("epa.sweep_steals", steals as f64);
        tr.count("epa.sweep_util_min", util_min);
        tr.count("epa.sweep_peak_in_flight", peak as f64);
        Ok(outs)
    }

    /// Layer probes on the first plant.
    fn probe(
        &self,
        plants: &mut Vec<Plant>,
        outs: &Self::Output,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        probe(&plants[0], &outs[0], tr)
    }

    fn check(&self, plants: &Vec<Plant>, outs: &Self::Output) -> Result<(), String> {
        plants
            .iter()
            .zip(outs)
            .try_for_each(|(st, out)| check(st, out))
    }
}

/// Generate one plant and build its resident analysis and query stream.
fn plant(seed: u64, tr: &mut Tracer) -> Result<Plant, String> {
    let problem = tr.span("input.generate", |_| {
        catalog_problem(COMPONENTS, CHAINS, seed)
    });
    let budget = catalog_margin_budget(CHAINS);
    let analysis = tr
        .span("epa.catalog_analysis", |_| {
            CatalogAnalysis::new(&problem, budget)
        })
        .map_err(|e| e.to_string())?;
    let queries = tr.span("epa.queries", |_| {
        let ranked = catalog_requirements_ranked(&problem, budget);
        let space = ScenarioSpace::new(&problem, MAX_FAULTS);
        catalog_queries(&space, &ranked, MARGIN_EVERY).collect()
    });
    Ok(Plant {
        problem,
        analysis,
        queries,
    })
}

/// Encoding and grounding, one timing per query, and the share of outcome
/// queries decided without search.
fn probe(st: &Plant, answers: &[CatalogAnswer], tr: &mut Tracer) -> Result<(), String> {
    // Encoding and grounding of the two programs `CatalogAnalysis::new`
    // builds, with the same grounder settings.
    let budget = catalog_margin_budget(CHAINS);
    let (assumable, contested) = tr.span("epa.encode", |_| {
        (
            encode(&st.problem, &EncodeMode::Assumable),
            encode(&st.problem, &EncodeMode::Contested { budget }),
        )
    });
    let (outcome_ground, margin_ground) = tr
        .span("asp.ground", |_| {
            let base = || {
                Grounder::new()
                    .assumable("scenario_fault", 1)
                    .assumable("fault_enabled", 1)
                    .assumable("active_mitigation", 2)
                    .with_slicing(true)
            };
            Ok::<_, cpsrisk::asp::AspError>((
                base().ground(&assumable)?,
                base().assumable("target", 1).ground(&contested)?,
            ))
        })
        .map_err(|e| e.to_string())?;
    let resident = (
        st.analysis.outcome_analysis().ground(),
        st.analysis.margin_analysis().ground(),
    );
    if outcome_ground.atom_count() != resident.0.atom_count()
        || margin_ground.atom_count() != resident.1.atom_count()
    {
        return Err("probe grounding differs from CatalogAnalysis::new".to_owned());
    }
    tr.count(
        "asp.ground_rules",
        (outcome_ground.rules.len() + margin_ground.rules.len()) as f64,
    );
    tr.count(
        "asp.ground_atoms",
        (outcome_ground.atom_count() + margin_ground.atom_count()) as f64,
    );

    // One timing per query, answered sequentially on one solver pair.
    let mut solvers = tr.span("asp.solve_init", |_| st.analysis.solvers());
    let (mut outcome_us, mut margin_us) = (Vec::new(), Vec::new());
    tr.span("asp.solve_search", |_| {
        for (q, expected) in st.queries.iter().zip(answers) {
            let t = Instant::now();
            let a = st
                .analysis
                .answer_with(&mut solvers, q)
                .map_err(|e| e.to_string())?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            match q {
                CatalogQuery::Outcome(_) => outcome_us.push(us),
                CatalogQuery::Margin { .. } => margin_us.push(us),
            }
            if a != *expected {
                return Err("sequential answer differs from the sweep".to_owned());
            }
        }
        Ok(())
    })?;
    tr.count("epa.query_outcome_p50_us", quantile(&outcome_us, 0.5));
    tr.count("epa.query_outcome_p99_us", quantile(&outcome_us, 0.99));
    tr.count("epa.query_margin_p50_us", quantile(&margin_us, 0.5));
    tr.count("epa.query_margin_p99_us", quantile(&margin_us, 0.99));
    let (outcome, margin) = &solvers;
    tr.count(
        "asp.solve_decisions",
        (outcome.decisions() + margin.decisions()) as f64,
    );
    tr.count(
        "asp.solve_conflicts",
        (outcome.total_conflicts() + margin.total_conflicts()) as f64,
    );
    tr.count(
        "asp.solve_propagations",
        (outcome.propagations() + margin.propagations()) as f64,
    );
    tr.count(
        "asp.solve_restarts",
        (outcome.restarts() + margin.restarts()) as f64,
    );
    tr.count(
        "asp.solve_learned",
        (outcome.learned_nogoods() + margin.learned_nogoods()) as f64,
    );

    // Outcome queries the conditional well-founded model decides
    // without search: useful over attempted.
    let incremental = st.analysis.outcome_analysis();
    let (mut decided, mut attempted) = (0usize, 0usize);
    tr.span("epa.decide_statically", |_| {
        for (q, expected) in st.queries.iter().zip(answers) {
            if let CatalogQuery::Outcome(s) = q {
                attempted += 1;
                if let Some(o) = incremental.decide_statically(s) {
                    decided += 1;
                    if *expected != CatalogAnswer::Outcome(o) {
                        return Err("static outcome differs from the sweep".to_owned());
                    }
                }
            }
        }
        Ok(())
    })?;
    tr.count(
        "epa.query_static_frac",
        decided as f64 / attempted.max(1) as f64,
    );
    Ok(())
}

/// Outcome verdicts against the direct fixpoint engine, every answer
/// against a one-thread sweep.
fn check(st: &Plant, answers: &[CatalogAnswer]) -> Result<(), String> {
    if answers.len() != st.queries.len() {
        return Err(format!(
            "{} answers for {} queries",
            answers.len(),
            st.queries.len()
        ));
    }
    let direct = TopologyAnalysis::new(&st.problem);
    for (q, a) in st.queries.iter().zip(answers) {
        match (q, a) {
            (CatalogQuery::Outcome(s), CatalogAnswer::Outcome(o)) => {
                let d = direct.evaluate(s);
                if o.violated != d.violated {
                    return Err(format!("scenario {s}: ASP {o}, direct {d}"));
                }
            }
            (CatalogQuery::Margin { .. }, CatalogAnswer::Margin(_)) => {}
            _ => return Err("answer kind differs from query kind".to_owned()),
        }
    }
    let (single, _) = st
        .analysis
        .sweep(&st.queries, &SweepOptions::with_threads(1))
        .map_err(|e| e.to_string())?;
    if single != *answers {
        return Err("answers differ from a one-thread sweep".to_owned());
    }
    Ok(())
}
