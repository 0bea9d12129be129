//! Assumption-based incremental analysis: one ground program, many
//! scenarios.
//!
//! Every fixed-scenario query against the same [`EpaProblem`] solves a
//! near-identical ASP program — only the handful of `scenario_fault/1`
//! facts differ. Instead of re-encoding and re-grounding per scenario, this
//! module grounds the [`EncodeMode::Assumable`] encoding **once** and pins
//! the scenario (and sensitivity-decision) toggles per query with
//! assumption literals, in the style of clingo's multi-shot interface. One
//! [`Solver`] instance is reused across the whole query stream, carrying
//! its learned conflict nogoods from call to call.

use cpsrisk_asp::ast::Term;
use cpsrisk_asp::{check_proof, AspError, GroundProgram, Grounder, Lit, SolveOptions, Solver};

use crate::encode::{encode, outcome_from_atoms, outcome_from_model, EncodeMode};
use crate::error::EpaError;
use crate::parallel::SweepStats;
use crate::parallel::{run_stealing_stream, run_stealing_with, SweepOptions};
use crate::problem::EpaProblem;
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::sensitivity::Decision;
use std::collections::BTreeSet;

/// What [`IncrementalAnalysis::sweep_certified`] verified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertifySummary {
    /// Scenarios re-solved under proof logging and audited.
    pub checked: usize,
    /// Steps in the accumulated multi-shot certificate.
    pub proof_steps: usize,
    /// Models the independent checker fully audited.
    pub models_audited: usize,
}

/// A fixed-scenario analysis with a **shared ground program** queried
/// through assumption literals.
///
/// Construction encodes and grounds once; [`analyze`](Self::analyze) and
/// [`sweep`](Self::sweep) then answer each scenario at the propositional
/// level by fixing the assumable atoms (`scenario_fault/1`,
/// `fault_enabled/1`, `active_mitigation/2`) at decision level 0.
pub struct IncrementalAnalysis {
    ground: GroundProgram,
    /// Mitigations active in the problem the analysis was built from —
    /// the baseline polarity of the `active_mitigation/2` assumptions.
    baseline_active: BTreeSet<String>,
}

impl IncrementalAnalysis {
    /// Encode and ground `problem` under [`EncodeMode::Assumable`].
    ///
    /// # Errors
    ///
    /// [`EpaError::Asp`] on grounding failure.
    pub fn new(problem: &EpaProblem) -> Result<Self, EpaError> {
        let program = encode(problem, &EncodeMode::Assumable);
        // Slice before grounding: the assumable signatures are slice roots,
        // so every atom an assumption can touch stays in the program.
        let ground = Grounder::new()
            .assumable("scenario_fault", 1)
            .assumable("fault_enabled", 1)
            .assumable("active_mitigation", 2)
            .with_slicing(true)
            .ground(&program)?;
        Ok(IncrementalAnalysis {
            ground,
            baseline_active: problem.active_mitigations.clone(),
        })
    }

    /// The shared ground program.
    #[must_use]
    pub fn ground(&self) -> &GroundProgram {
        &self.ground
    }

    /// A fresh solver over the shared ground program. The instance is
    /// reusable: every [`analyze_with`](Self::analyze_with) call resets it
    /// and keeps its learned conflict nogoods.
    #[must_use]
    pub fn solver(&self) -> Solver<'_> {
        Solver::new(&self.ground)
    }

    /// The assumption set selecting `scenario` under the baseline problem:
    /// every assumable atom is pinned, so the query is exactly as
    /// deterministic as the old fixed-scenario encoding. Scenario faults
    /// unknown to the problem have no atom and are silently ignored.
    #[must_use]
    pub fn assumptions(&self, scenario: &Scenario) -> Vec<Lit> {
        self.assumptions_for(scenario, None)
    }

    /// The assumption set selecting `scenario` under a flipped sensitivity
    /// [`Decision`]: a dropped mutation negates its `fault_enabled`
    /// assumption, a toggled mitigation inverts its `active_mitigation`
    /// assumptions — the same ground program answers every variant.
    #[must_use]
    pub fn assumptions_for(&self, scenario: &Scenario, decision: Option<&Decision>) -> Vec<Lit> {
        let (dropped, toggled) = match decision {
            None => (None, None),
            Some(Decision::DropMutation(f)) => (Some(f.as_str()), None),
            Some(Decision::ToggleMitigation(m)) => (None, Some(m.as_str())),
        };
        let mut lits = Vec::with_capacity(self.ground.assumable.len());
        for &id in &self.ground.assumable {
            let atom = self.ground.atom(id);
            let positive = match (atom.pred.as_str(), atom.args.as_slice()) {
                ("scenario_fault", [Term::Const(f)]) => scenario.contains(f),
                ("fault_enabled", [Term::Const(f)]) => dropped != Some(f.as_str()),
                ("active_mitigation", [_, Term::Const(m)]) => {
                    self.baseline_active.contains(m) != (toggled == Some(m.as_str()))
                }
                _ => false,
            };
            lits.push(Lit { atom: id, positive });
        }
        lits
    }

    /// Evaluate one scenario on a caller-provided solver (which must be
    /// over [`Self::ground`], e.g. from [`Self::solver`]) — the reuse form
    /// that amortizes solver setup and learned nogoods across a stream of
    /// queries.
    ///
    /// # Errors
    ///
    /// [`EpaError::Asp`] on solving failure, [`EpaError::NoModel`] if the
    /// assumptions are inconsistent with the program.
    pub fn analyze_with(
        &self,
        solver: &mut Solver<'_>,
        scenario: &Scenario,
    ) -> Result<ScenarioOutcome, EpaError> {
        let assumptions = self.assumptions(scenario);
        if let Some(out) = self.static_outcome(scenario, &assumptions) {
            return Ok(out);
        }
        self.outcome_under(solver, scenario, &assumptions)
    }

    /// Try to decide `scenario` without search: the conditional
    /// well-founded model under the scenario's assumptions. When that
    /// polynomial-time approximation is total and consistent it pins every
    /// atom of the unique stable model, so the outcome is read straight
    /// off the WFM-true atoms. Returns `None` when the WFM leaves atoms
    /// open (or refutes the assumptions) — callers fall back to search.
    #[must_use]
    pub fn decide_statically(&self, scenario: &Scenario) -> Option<ScenarioOutcome> {
        self.static_outcome(scenario, &self.assumptions(scenario))
    }

    /// [`decide_statically`](Self::decide_statically) under an explicit
    /// assumption set (e.g. from
    /// [`assumptions_for`](Self::assumptions_for)).
    #[must_use]
    pub fn static_outcome(
        &self,
        scenario: &Scenario,
        assumptions: &[Lit],
    ) -> Option<ScenarioOutcome> {
        let wfm = cpsrisk_asp::well_founded_with(&self.ground, assumptions);
        if wfm.inconsistent || !wfm.total() {
            return None;
        }
        Some(outcome_from_atoms(
            scenario.clone(),
            wfm.true_atoms().map(|id| self.ground.atom(id)),
        ))
    }

    /// [`analyze_with`](Self::analyze_with) under an explicit assumption
    /// set (e.g. from [`assumptions_for`](Self::assumptions_for)); the
    /// returned outcome is labeled with `scenario` verbatim.
    ///
    /// # Errors
    ///
    /// [`EpaError::Asp`] on solving failure, [`EpaError::NoModel`] if the
    /// assumptions are inconsistent with the program.
    pub fn outcome_under(
        &self,
        solver: &mut Solver<'_>,
        scenario: &Scenario,
        assumptions: &[Lit],
    ) -> Result<ScenarioOutcome, EpaError> {
        let result = solver.solve_with_assumptions(
            assumptions,
            &SolveOptions {
                max_models: 1,
                ..SolveOptions::default()
            },
        )?;
        let model = result.models.first().ok_or(EpaError::NoModel)?;
        Ok(outcome_from_model(scenario.clone(), model))
    }

    /// Evaluate one scenario on a throwaway solver.
    ///
    /// # Errors
    ///
    /// [`EpaError::Asp`] on solving failure, [`EpaError::NoModel`] if the
    /// assumptions are inconsistent with the program.
    pub fn analyze(&self, scenario: &Scenario) -> Result<ScenarioOutcome, EpaError> {
        self.analyze_with(&mut self.solver(), scenario)
    }

    /// Evaluate every scenario across work-stealing worker threads. Each
    /// worker owns one solver over the shared ground program and reuses it
    /// over every batch it processes or steals; `outcomes[i]` corresponds
    /// to `scenarios[i]` regardless of thread count or steal schedule.
    ///
    /// # Errors
    ///
    /// The first (in input order) [`EpaError`] any scenario produced.
    pub fn sweep(
        &self,
        scenarios: &[Scenario],
        opts: &SweepOptions,
    ) -> Result<Vec<ScenarioOutcome>, EpaError> {
        self.sweep_with_stats(scenarios, opts).map(|(out, _)| out)
    }

    /// [`sweep`](Self::sweep) returning the scheduler's observability
    /// counters (steals, per-worker utilization, peak in-flight) alongside
    /// the outcomes.
    ///
    /// # Errors
    ///
    /// The first (in input order) [`EpaError`] any scenario produced.
    pub fn sweep_with_stats(
        &self,
        scenarios: &[Scenario],
        opts: &SweepOptions,
    ) -> Result<(Vec<ScenarioOutcome>, SweepStats), EpaError> {
        let (results, stats) = run_stealing_with(
            scenarios,
            opts,
            || self.solver(),
            |solver, s| self.analyze_with(solver, s),
        );
        let outcomes = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok((outcomes, stats))
    }

    /// [`sweep`](Self::sweep) with certified spot checks: after the normal
    /// parallel sweep, a configurable fraction of the scenarios (an evenly
    /// spaced, deterministic sample; `fraction` is clamped to `(0, 1]`) is
    /// re-solved on a proof-logging solver and the emitted certificate is
    /// replayed through the independent checker
    /// ([`cpsrisk_asp::check_proof`]). The re-solved verdict
    /// must agree with the sweep's — this audits the work-stealing sweep,
    /// the learned-nogood reuse, *and* the static well-founded fast path
    /// with a certificate per sampled scenario.
    ///
    /// # Errors
    ///
    /// Any sweep error; [`EpaError::Asp`] with an internal error if a
    /// certificate fails to check or a certified verdict disagrees with
    /// the sweep.
    pub fn sweep_certified(
        &self,
        scenarios: &[Scenario],
        opts: &SweepOptions,
        fraction: f64,
    ) -> Result<(Vec<ScenarioOutcome>, CertifySummary), EpaError> {
        let outcomes = self.sweep(scenarios, opts)?;
        let fraction = fraction.clamp(f64::MIN_POSITIVE, 1.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let stride = (1.0 / fraction).ceil().max(1.0) as usize;
        let mut summary = CertifySummary::default();
        let certify_opts = SolveOptions {
            max_models: 1,
            certify: true,
            ..SolveOptions::default()
        };
        // One proof-logging solver answers every sampled scenario; the
        // accumulated multi-shot certificate (learned-nogood retention
        // included) is replayed once at the end.
        let mut solver = self.solver();
        for (i, scenario) in scenarios.iter().enumerate().step_by(stride) {
            let assumptions = self.assumptions(scenario);
            let result = solver.solve_with_assumptions(&assumptions, &certify_opts)?;
            let model = result.models.first().ok_or(EpaError::NoModel)?;
            let certified = outcome_from_model(scenario.clone(), model);
            if certified != outcomes[i] {
                return Err(EpaError::Asp(AspError::Internal(format!(
                    "certified verdict disagrees with sweep for scenario {scenario}"
                ))));
            }
            summary.checked += 1;
        }
        if summary.checked > 0 {
            let log = solver.take_proof().ok_or_else(|| {
                EpaError::Asp(AspError::Internal(
                    "certified calls emitted no proof".into(),
                ))
            })?;
            let report = check_proof(&self.ground, &log).map_err(|e| {
                EpaError::Asp(AspError::Internal(format!("certificate rejected: {e}")))
            })?;
            summary.proof_steps = report.steps;
            summary.models_audited = report.models;
        }
        Ok((outcomes, summary))
    }

    /// Memory-bounded streaming sweep: scenarios come from an iterator and
    /// at most [`SweepOptions::max_in_flight`] of them are materialized at
    /// any moment, so arbitrarily long scenario streams sweep in `O(window)`
    /// memory. `emit` receives every outcome in input order with its global
    /// stream index; per-worker solvers persist across windows. Returns the
    /// accumulated scheduler stats (`peak_in_flight` is the largest window
    /// actually held).
    ///
    /// # Errors
    ///
    /// The first (in input order) [`EpaError`] any scenario produced;
    /// outcomes past the failing window are not emitted.
    pub fn sweep_streaming<E>(
        &self,
        scenarios: impl Iterator<Item = Scenario>,
        opts: &SweepOptions,
        mut emit: E,
    ) -> Result<SweepStats, EpaError>
    where
        E: FnMut(usize, ScenarioOutcome),
    {
        let mut first_err: Option<(usize, EpaError)> = None;
        let stats = run_stealing_stream(
            scenarios,
            opts,
            || self.solver(),
            |solver, s| self.analyze_with(solver, s),
            |i, r| match r {
                Ok(out) => {
                    if first_err.is_none() {
                        emit(i, out);
                    }
                }
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            },
        );
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::analyze_fixed_fresh;
    use crate::parallel::sweep_fixed;
    use crate::scenario::ScenarioSpace;
    use crate::workload::chain_problem;

    #[test]
    fn every_assumable_atom_is_pinned_per_query() {
        let p = chain_problem(2);
        let analysis = IncrementalAnalysis::new(&p).unwrap();
        assert!(!analysis.ground().assumable.is_empty());
        let lits = analysis.assumptions(&Scenario::nominal());
        assert_eq!(lits.len(), analysis.ground().assumable.len());
        // Nominal scenario under the baseline problem: no scenario faults,
        // all faults enabled.
        for l in &lits {
            let atom = analysis.ground().atom(l.atom);
            match atom.pred.as_str() {
                "scenario_fault" => assert!(!l.positive, "{atom}"),
                "fault_enabled" => assert!(l.positive, "{atom}"),
                _ => {}
            }
        }
    }

    #[test]
    fn reused_solver_matches_fresh_path_over_the_whole_space() {
        let p = chain_problem(2);
        let analysis = IncrementalAnalysis::new(&p).unwrap();
        let mut solver = analysis.solver();
        for scenario in ScenarioSpace::new(&p, usize::MAX).iter() {
            let fresh = analyze_fixed_fresh(&p, &scenario).unwrap();
            let reused = analysis.analyze_with(&mut solver, &scenario).unwrap();
            assert_eq!(reused, fresh, "scenario {scenario}");
        }
    }

    #[test]
    fn static_verdicts_match_the_search_path() {
        let p = chain_problem(2);
        let analysis = IncrementalAnalysis::new(&p).unwrap();
        let mut solver = analysis.solver();
        let mut decided = 0usize;
        for scenario in ScenarioSpace::new(&p, usize::MAX).iter() {
            let assumptions = analysis.assumptions(&scenario);
            let Some(static_out) = analysis.static_outcome(&scenario, &assumptions) else {
                continue;
            };
            decided += 1;
            let searched = analysis
                .outcome_under(&mut solver, &scenario, &assumptions)
                .unwrap();
            assert_eq!(static_out, searched, "scenario {scenario}");
        }
        // The assumable encoding pins every toggle, so the conditional WFM
        // decides every scenario of this choice-free-after-assumption
        // workload without search.
        assert!(decided > 0, "no scenario was statically decided");
    }

    #[test]
    fn certified_sweep_audits_a_sample_and_matches() {
        let p = chain_problem(2);
        let analysis = IncrementalAnalysis::new(&p).unwrap();
        let scenarios: Vec<Scenario> = ScenarioSpace::new(&p, usize::MAX).iter().collect();
        let opts = SweepOptions::default();
        let plain = analysis.sweep(&scenarios, &opts).unwrap();
        // Full fraction: every scenario is certified.
        let (outcomes, summary) = analysis.sweep_certified(&scenarios, &opts, 1.0).unwrap();
        assert_eq!(outcomes, plain);
        assert_eq!(summary.checked, scenarios.len());
        assert_eq!(summary.models_audited, scenarios.len());
        assert!(summary.proof_steps > 0);
        // Quarter fraction: an evenly spaced sample.
        let (_, sparse) = analysis.sweep_certified(&scenarios, &opts, 0.25).unwrap();
        assert_eq!(sparse.checked, scenarios.len().div_ceil(4));
    }

    #[test]
    fn incremental_sweep_equals_fresh_per_scenario_path() {
        let p = chain_problem(3);
        let scenarios: Vec<Scenario> = ScenarioSpace::new(&p, usize::MAX).iter().collect();
        assert_eq!(scenarios.len(), 32, "2^(3+2) scenarios");
        // Encode + ground + solve from scratch per scenario.
        let fresh: Vec<ScenarioOutcome> = scenarios
            .iter()
            .map(|s| analyze_fixed_fresh(&p, s).expect("fresh solve succeeds"))
            .collect();
        // The incremental path, sequential and sharded.
        for threads in [1, 4] {
            let incremental = sweep_fixed(&p, &scenarios, &SweepOptions::with_threads(threads))
                .expect("incremental sweep succeeds");
            assert_eq!(incremental, fresh, "threads = {threads}");
        }
    }

    #[test]
    fn incremental_sweep_equals_fresh_path_under_active_mitigations() {
        let mut p = chain_problem(2);
        p.activate_mitigation("m_ew").unwrap();
        // Sweep the space of the *unmitigated* problem so blocked-fault
        // scenarios are exercised too.
        let scenarios: Vec<Scenario> = ScenarioSpace::new(&chain_problem(2), usize::MAX)
            .iter()
            .collect();
        let fresh: Vec<ScenarioOutcome> = scenarios
            .iter()
            .map(|s| analyze_fixed_fresh(&p, s).expect("fresh solve succeeds"))
            .collect();
        for threads in [1, 4] {
            let incremental = sweep_fixed(&p, &scenarios, &SweepOptions::with_threads(threads))
                .expect("incremental sweep succeeds");
            assert_eq!(incremental, fresh, "threads = {threads}");
        }
    }

    #[test]
    fn one_reused_solver_survives_a_long_query_stream() {
        let p = chain_problem(4);
        let analysis = IncrementalAnalysis::new(&p).expect("grounds");
        let mut solver = analysis.solver();
        for (i, scenario) in ScenarioSpace::new(&p, usize::MAX).iter().enumerate() {
            let reused = analysis
                .analyze_with(&mut solver, &scenario)
                .expect("assumption solve succeeds");
            let fresh = analyze_fixed_fresh(&p, &scenario).expect("fresh solve succeeds");
            assert_eq!(reused, fresh, "query {i}: scenario {scenario}");
        }
    }

    #[test]
    fn unknown_faults_are_ignored_like_the_fresh_path() {
        let p = chain_problem(1);
        let scenario = Scenario::of(&["no_such_fault"]);
        let out = IncrementalAnalysis::new(&p)
            .unwrap()
            .analyze(&scenario)
            .unwrap();
        assert_eq!(out, analyze_fixed_fresh(&p, &scenario).unwrap());
        assert_eq!(out.scenario, scenario, "label preserved verbatim");
        assert!(!out.is_hazard());
    }
}
