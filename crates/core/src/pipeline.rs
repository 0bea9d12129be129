//! The end-to-end assessment pipeline (all seven steps of Fig. 1).

use cpsrisk_epa::cegar::{refine_hazards, ConcreteOracle};
use cpsrisk_epa::encode::analyze_exhaustive;
use cpsrisk_epa::sensitivity::{sensitivity_sweep, SensitivityFinding};
use cpsrisk_epa::{
    minimal_hazards, EpaProblem, ModeSet, ScenarioOutcome, TopologyAnalysis, Vocabulary,
};
use cpsrisk_mitigation::{
    best_under_budget, consolidation_plan, AttackScenario, Coverage, MitigationCandidate,
    MitigationProblem, Phase, Selection,
};
use cpsrisk_model::SystemModel;
use cpsrisk_qr::Qual;
use cpsrisk_risk::ora;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use std::sync::Arc;

use crate::error::CoreError;

/// A hazard with its qualitative risk rating (step 6).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RatedHazard {
    /// The hazardous scenario and its verdicts.
    pub outcome: ScenarioOutcome,
    /// Loss Magnitude: the worst of the affected components' criticality
    /// and the active faults' severities.
    pub loss_magnitude: Qual,
    /// Loss Event Frequency: joint activation likelihood — the **least**
    /// likely fault bounds the combination (§VII: simultaneous occurrence
    /// of all faults is much less probable).
    pub loss_event_frequency: Qual,
    /// O-RA risk category (Table I lookup).
    pub risk: Qual,
}

/// The full assessment report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssessmentReport {
    /// Every evaluated scenario outcome, one per scenario in
    /// [`ScenarioSpace::iter`](cpsrisk_epa::ScenarioSpace::iter) order on
    /// both back-ends. The ASP back-end answers them on one resident
    /// [`Session`](cpsrisk_epa::Session) sweep
    /// ([`analyze_exhaustive`]).
    pub outcomes: Vec<ScenarioOutcome>,
    /// Hazards rated and sorted by risk (descending), then by fewer faults.
    pub hazards: Vec<RatedHazard>,
    /// Minimal hazardous scenarios (cut-set analogue), filtered from
    /// `outcomes` by [`minimal_hazards`] in
    /// the same order.
    pub minimal_hazards: Vec<ScenarioOutcome>,
    /// Recommended mitigation selection (step 7), with its cost.
    pub recommendation: Option<(Selection, u64)>,
    /// Residual loss under the recommendation.
    pub residual_loss: u64,
    /// Multi-phase consolidation plan, if phase budgets were configured.
    pub phases: Vec<Phase>,
    /// Modeling-decision sensitivity findings (most critical first).
    pub sensitivity: Vec<SensitivityFinding>,
    /// Findings the step-5 oracle refuted as spurious (empty without an
    /// oracle): `(outcome, refuted requirement ids)`.
    #[serde(skip)]
    pub spurious: Vec<(ScenarioOutcome, std::collections::BTreeSet<String>)>,
    /// Advisory static-analysis findings on the system model (codes
    /// `M004`…`M007`; error-severity findings abort [`Assessment::run`]
    /// instead of landing here).
    #[serde(default)]
    pub lint: Vec<cpsrisk_asp::Diagnostic>,
}

/// Pipeline driver.
#[derive(Clone)]
pub struct Assessment {
    problem: EpaProblem,
    max_faults: usize,
    use_asp: bool,
    budget: Option<u64>,
    phase_budgets: Vec<u64>,
    run_sensitivity: bool,
    oracle: Option<Rc<dyn ConcreteOracle>>,
}

impl std::fmt::Debug for Assessment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Assessment")
            .field("problem", &self.problem.model.name)
            .field("max_faults", &self.max_faults)
            .field("use_asp", &self.use_asp)
            .field("oracle", &self.oracle.is_some())
            .finish_non_exhaustive()
    }
}

impl Assessment {
    /// An assessment over a validated problem with default settings
    /// (direct engine, unbounded fault combinations, no budget cap).
    #[must_use]
    pub fn new(problem: EpaProblem) -> Self {
        Assessment {
            problem,
            max_faults: usize::MAX,
            use_asp: false,
            budget: None,
            phase_budgets: Vec::new(),
            run_sensitivity: false,
            oracle: None,
        }
    }

    /// Attach a concrete oracle for step 5 (CEGAR): hazards the oracle
    /// refutes are moved to [`AssessmentReport::spurious`] and excluded
    /// from rating and mitigation planning.
    #[must_use]
    pub fn with_oracle(mut self, oracle: Rc<dyn ConcreteOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Bound the number of simultaneous faults per scenario.
    #[must_use]
    pub fn with_max_faults(mut self, max: usize) -> Self {
        self.max_faults = max;
        self
    }

    /// Use the ASP back-end for hazard identification instead of the
    /// direct fixpoint engine: one resident
    /// [`Session`](cpsrisk_epa::Session) answers every scenario (the two
    /// back-ends produce the same report; the ASP path exercises the
    /// hidden formal method end to end).
    #[must_use]
    pub fn with_asp_backend(mut self) -> Self {
        self.use_asp = true;
        self
    }

    /// Cap the one-off mitigation budget for the recommendation.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Configure multi-phase consolidation budgets.
    #[must_use]
    pub fn with_phase_budgets(mut self, budgets: &[u64]) -> Self {
        self.phase_budgets = budgets.to_vec();
        self
    }

    /// Also run the modeling-decision sensitivity sweep (slower).
    #[must_use]
    pub fn with_sensitivity(mut self) -> Self {
        self.run_sensitivity = true;
        self
    }

    /// The wrapped problem.
    #[must_use]
    pub fn problem(&self) -> &EpaProblem {
        &self.problem
    }

    /// Execute the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates model validation and engine errors.
    pub fn run(&self) -> Result<AssessmentReport, CoreError> {
        // Steps 1–2 happened at problem construction; re-validate defensively.
        self.problem.model.validate()?;
        // Static-analysis gate: structural errors already aborted above;
        // advisory findings ride along in the report.
        let lint = cpsrisk_model::lint_model(&self.problem.model);
        if cpsrisk_asp::diag::has_errors(&lint) {
            return Err(CoreError::Lint(lint));
        }

        // Steps 3–4: exhaustive hazard identification, every scenario
        // evaluated once, in scenario-space order on either back-end.
        let outcomes = if self.use_asp {
            let bound = u32::try_from(self.max_faults).ok();
            analyze_exhaustive(&self.problem, bound)?
        } else {
            TopologyAnalysis::new(&self.problem).evaluate_all(self.max_faults)
        };
        let mut minimal_hazards = minimal_hazards(&outcomes);

        // Step 5: CEGAR refinement against the oracle, if configured.
        let mut hazard_outcomes: Vec<ScenarioOutcome> =
            outcomes.iter().filter(|o| o.is_hazard()).cloned().collect();
        let mut spurious = Vec::new();
        if let Some(oracle) = &self.oracle {
            let refinement = refine_hazards(&hazard_outcomes, oracle.as_ref());
            hazard_outcomes = refinement.confirmed;
            spurious = refinement.spurious;
            let minimal_refined = refine_hazards(&minimal_hazards, oracle.as_ref());
            minimal_hazards = minimal_refined.confirmed;
        }

        // Step 6: qualitative risk rating per hazard.
        let mut criticality = Criticality::new(&self.problem.model);
        let mut hazards: Vec<RatedHazard> = (hazard_outcomes.iter())
            .map(|o| self.rate(o, &mut criticality))
            .collect();
        hazards.sort_by(|a, b| {
            b.risk
                .cmp(&a.risk)
                .then_with(|| a.outcome.scenario.len().cmp(&b.outcome.scenario.len()))
                .then_with(|| a.outcome.scenario.cmp(&b.outcome.scenario))
        });

        // Step 7: mitigation strategy over the minimal hazards.
        let mitigation_problem = self.mitigation_problem(&minimal_hazards, &mut criticality);
        let budget = self.budget.unwrap_or_else(|| {
            let periods = mitigation_problem.periods;
            (mitigation_problem.candidates.iter())
                .fold(0, |sum, c| sum.saturating_add(c.total_cost(periods)))
        });
        let selection = best_under_budget(&mitigation_problem, budget);
        let residual_loss = mitigation_problem.residual_loss(&selection);
        let recommendation = if selection.ids.is_empty() {
            None
        } else {
            let cost = mitigation_problem.cost(&selection);
            Some((selection, cost))
        };
        let phases = if self.phase_budgets.is_empty() {
            Vec::new()
        } else {
            consolidation_plan(&mitigation_problem, &self.phase_budgets)
        };

        let sensitivity = if self.run_sensitivity {
            sensitivity_sweep(&self.problem, self.max_faults)
        } else {
            Vec::new()
        };

        Ok(AssessmentReport {
            outcomes,
            hazards,
            minimal_hazards,
            recommendation,
            residual_loss,
            phases,
            sensitivity,
            spurious,
            lint,
        })
    }

    /// Rate a hazard: LM joins component criticality with fault severity;
    /// LEF is the meet of the active faults' likelihoods.
    fn rate(&self, outcome: &ScenarioOutcome, criticality: &mut Criticality<'_>) -> RatedHazard {
        let mut lm = criticality.worst(&outcome.effective_modes);
        let mut lef = Qual::VeryHigh;
        for fault in outcome.scenario.iter() {
            if let Some(m) = self.problem.mutation(fault) {
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

    /// Build the step-7 optimization problem from the minimal hazards.
    /// Loss units scale exponentially with the risk band (one order of
    /// magnitude per category).
    fn mitigation_problem(
        &self,
        minimal_hazards: &[ScenarioOutcome],
        criticality: &mut Criticality<'_>,
    ) -> MitigationProblem {
        let candidates: Vec<MitigationCandidate> = self
            .problem
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
        let scenarios: Vec<AttackScenario> = minimal_hazards
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let rated = self.rate(h, criticality);
                AttackScenario {
                    id: format!("h{}", i + 1),
                    faults: h.scenario.iter().map(str::to_owned).collect(),
                    loss: 10u64.pow(rated.risk.index() as u32),
                    attack_cost: 0,
                }
            })
            .collect();
        MitigationProblem {
            candidates,
            scenarios,
            coverage: Coverage::Any,
            periods: 1,
        }
    }
}

/// The model's criticality annotations tabulated by the component ids of
/// the vocabulary the rated outcomes are over, so step 6 reads a hazard's
/// components by id. The table is rebuilt when an outcome comes with
/// another vocabulary.
struct Criticality<'m> {
    model: &'m SystemModel,
    table: Option<(Arc<Vocabulary>, Vec<Qual>)>,
}

impl<'m> Criticality<'m> {
    fn new(model: &'m SystemModel) -> Self {
        Criticality { model, table: None }
    }

    /// The worst criticality among the components of `modes`; an
    /// unannotated component counts as [`Qual::VeryLow`], the join's unit.
    fn worst(&mut self, modes: &ModeSet) -> Qual {
        let vocab = modes.vocabulary();
        if !(self.table.as_ref()).is_some_and(|(v, _)| Arc::ptr_eq(v, vocab)) {
            let by_id = (0..vocab.component_count() as u32)
                .map(|c| {
                    (self.model.annotation(vocab.component(c)))
                        .map_or(Qual::VeryLow, |a| a.criticality)
                })
                .collect();
            self.table = Some((Arc::clone(vocab), by_id));
        }
        let (_, by_id) = self.table.as_ref().expect("tabulated above");
        (modes.component_ids()).fold(Qual::VeryLow, |lm, c| lm.join(by_id[c as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy;

    #[test]
    fn pipeline_on_the_unmitigated_case_study() {
        let problem = casestudy::water_tank_problem(&[]).unwrap();
        let report = Assessment::new(problem).run().unwrap();
        assert_eq!(report.outcomes.len(), 16, "2^4 scenarios");
        assert_eq!(report.hazards.len(), 12, "everything containing f2 or f4");
        // f4 is the top-rated hazard: VH severity, M likelihood → VH risk
        // (Table I: row VH, column M).
        let top = &report.hazards[0];
        assert!(top.outcome.scenario.contains("f4"));
        assert_eq!(top.risk, Qual::VeryHigh);
        // Step 7 recommends blocking f4 with the cheaper of M1/M2.
        let (sel, cost) = report.recommendation.expect("a recommendation exists");
        assert!(sel.ids.contains("m1"));
        assert_eq!(cost, 50, "40 + one maintenance period of 10");
        // Residual: the purely physical faults (f2 chains) stay.
        assert!(report.residual_loss > 0);
    }

    #[test]
    fn costs_past_u64_max_end_in_a_recommendation() {
        // A loaded model may carry any u64 cost: the default budget and
        // every cost sum saturate instead of overflowing, and the two
        // mitigations together cost more than any budget can express.
        let mut problem = casestudy::water_tank_problem(&[]).unwrap();
        for m in &mut problem.mitigations {
            m.cost = u64::MAX;
            m.maintenance_cost = u64::MAX;
        }
        let report = Assessment::new(problem).run().unwrap();
        let (sel, cost) = report.recommendation.expect("a recommendation exists");
        assert_eq!(sel.ids.len(), 1, "one mitigation is affordable: {sel}");
        assert_eq!(cost, u64::MAX);
    }

    /// Both back-ends emit the outcomes in scenario-space order, so the
    /// whole report — outcomes, hazards, minimal hazards, recommendation,
    /// residual loss and phases — is identical.
    fn assert_backends_agree(problem: &EpaProblem, max_faults: usize) {
        let direct = Assessment::new(problem.clone())
            .with_max_faults(max_faults)
            .with_phase_budgets(&[60, 200]);
        let asp = direct.clone().with_asp_backend();
        assert_eq!(direct.run().unwrap(), asp.run().unwrap());
    }

    #[test]
    fn direct_and_asp_backends_agree_end_to_end() {
        for active in [&[][..], &["m1", "m2"]] {
            let problem = casestudy::water_tank_problem(active).unwrap();
            assert_backends_agree(&problem, usize::MAX);
        }
    }

    #[test]
    fn direct_and_asp_backends_agree_on_catalog_plants() {
        for seed in [0xC47A, 1, 2] {
            let problem = cpsrisk_epa::catalog_problem(34, 4, seed);
            assert_backends_agree(&problem, 2);
        }
    }

    #[test]
    fn mitigated_case_study_has_fewer_hazards() {
        let problem = casestudy::water_tank_problem(&["m1", "m2"]).unwrap();
        let report = Assessment::new(problem).run().unwrap();
        // f4 is blocked: only the f2-chains remain hazardous.
        assert!(report
            .hazards
            .iter()
            .all(|h| !h.outcome.scenario.contains("f4")));
        assert_eq!(report.outcomes.len(), 8, "2^3 — f4 is no longer potential");
    }

    #[test]
    fn paper_severity_ordering_s5_vs_s7() {
        // §VII: S5 and S7 violate the same requirements, but S7 (all three
        // physical faults) has lower joint probability → lower risk.
        let problem = casestudy::water_tank_problem(&["m1", "m2"]).unwrap();
        let report = Assessment::new(problem).run().unwrap();
        let find = |faults: &[&str]| {
            report
                .hazards
                .iter()
                .find(|h| {
                    let ids: Vec<&str> = h.outcome.scenario.iter().collect();
                    ids == faults
                })
                .unwrap_or_else(|| panic!("scenario {faults:?} missing"))
        };
        let s5 = find(&["f2", "f3"]);
        let s7 = find(&["f1", "f2", "f3"]);
        assert_eq!(s5.outcome.violated, s7.outcome.violated);
        assert!(s5.loss_event_frequency >= s7.loss_event_frequency);
    }

    #[test]
    fn phase_budgets_produce_a_plan() {
        let problem = casestudy::water_tank_problem(&[]).unwrap();
        let report = Assessment::new(problem)
            .with_phase_budgets(&[60, 200])
            .run()
            .unwrap();
        assert_eq!(report.phases.len(), 2);
        assert!(report.phases[0].acquired.contains(&"m1".to_owned()));
    }

    #[test]
    fn sensitivity_flags_the_workstation_fault() {
        let problem = casestudy::water_tank_problem(&[]).unwrap();
        let report = Assessment::new(problem).with_sensitivity().run().unwrap();
        assert!(!report.sensitivity.is_empty());
        // Dropping f2 or f4 must be among the most impactful decisions.
        let top_two: Vec<String> = report
            .sensitivity
            .iter()
            .take(2)
            .map(|f| f.decision.to_string())
            .collect();
        assert!(
            top_two.iter().any(|d| d.contains("f2") || d.contains("f4")),
            "top decisions: {top_two:?}"
        );
    }

    #[test]
    fn max_faults_bounds_the_space() {
        let problem = casestudy::water_tank_problem(&[]).unwrap();
        let report = Assessment::new(problem).with_max_faults(1).run().unwrap();
        assert_eq!(report.outcomes.len(), 5, "nominal + 4 singletons");
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::casestudy;
    use crate::hierarchy::{coarse_water_tank_problem, PlantOracle};

    #[test]
    fn pipeline_with_oracle_filters_spurious_hazards() {
        let coarse = coarse_water_tank_problem().unwrap();
        let without = Assessment::new(coarse.clone()).run().unwrap();
        let with = Assessment::new(coarse)
            .with_oracle(Rc::new(PlantOracle::new()))
            .run()
            .unwrap();
        assert!(with.hazards.len() < without.hazards.len());
        assert!(!with.spurious.is_empty());
        // Refuted findings all involve the over-abstracted input valve.
        assert!(with
            .spurious
            .iter()
            .all(|(o, _)| o.scenario.contains("f1") && !o.scenario.contains("f2")));
        // The confirmed hazard count equals the precise model's.
        let precise = Assessment::new(casestudy::water_tank_problem(&[]).unwrap())
            .run()
            .unwrap();
        assert_eq!(with.hazards.len(), precise.hazards.len());
    }

    #[test]
    fn oracle_is_a_noop_on_the_precise_model() {
        let problem = casestudy::water_tank_problem(&[]).unwrap();
        let plain = Assessment::new(problem.clone()).run().unwrap();
        let checked = Assessment::new(problem)
            .with_oracle(Rc::new(PlantOracle::new()))
            .run()
            .unwrap();
        assert_eq!(plain.hazards.len(), checked.hazards.len());
        assert!(checked.spurious.is_empty());
    }
}
