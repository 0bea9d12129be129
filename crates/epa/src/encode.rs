//! ASP encoding of the EPA problem — the hidden formal method.
//!
//! The encoding follows the paper's listings verbatim where they are given:
//! fault activation is Listing 1 (`potential_fault/2` guarded by
//! `active_mitigation/2` under negation-as-failure), and the propagation
//! rules implement the same worst-case semantics as the direct
//! [`TopologyAnalysis`](crate::topology::TopologyAnalysis) engine — the two
//! are cross-asserted in tests.

use cpsrisk_asp::builder::pos;
use cpsrisk_asp::{Grounder, Program, ProgramBuilder, SolveOptions, Solver, Term};
use cpsrisk_model::export::export_facts;

use crate::error::EpaError;
use crate::parallel::SweepOptions;
use crate::problem::EpaProblem;
use crate::scenario::{Scenario, ScenarioOutcome, ScenarioSpace};
use crate::session::{Query, Session};

/// How the scenario dimension is encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeMode {
    /// One fixed scenario: the listed faults are activated (if potential).
    Fixed(Scenario),
    /// Exhaustive scenario enumeration via a choice rule, optionally
    /// bounded in the number of simultaneous faults.
    Exhaustive {
        /// Maximum number of simultaneously active faults, if bounded.
        max_faults: Option<u32>,
    },
    /// Multi-shot form: every scenario/decision toggle becomes an
    /// *assumable* fact (`scenario_fault/1`, `fault_enabled/1`,
    /// `active_mitigation/2`) so one ground program answers every fixed
    /// scenario via [`Solver::solve_with_assumptions`]. Used by outcome
    /// queries of a [`Session`].
    Assumable,
    /// Multi-shot **attack-extension** form: the [`Assumable`] vocabulary
    /// plus an assumable `target/1` fact per requirement, a bounded choice
    /// `{ chosen(F) : fault(F), fault_enabled(F) } ≤ budget` giving the
    /// attacker up to `budget` extra faults on top of the pinned scenario,
    /// and the constraint `:- target(R), not violated(R)` — so a query is
    /// satisfiable iff some extension of at most `budget` faults violates
    /// the targeted requirement. Unlike the WFM-decided [`Assumable`]
    /// queries this leaves real choice atoms open: answering takes CDCL
    /// search. Used by margin queries of a
    /// [`Session`].
    ///
    /// [`Assumable`]: EncodeMode::Assumable
    Contested {
        /// Maximum number of attacker-chosen extension faults.
        budget: u32,
    },
}

/// Build the full ASP program for a problem under an encoding mode.
#[must_use]
pub fn encode(problem: &EpaProblem, mode: &EncodeMode) -> Program {
    let mut b = ProgramBuilder::new();
    export_facts(&problem.model, &mut b);

    // Fault universe.
    for m in &problem.mutations {
        b.fact("fault", [Term::sym(&m.id)]);
        b.fact(
            "fault_component",
            [Term::sym(&m.id), Term::sym(&m.component)],
        );
        b.fact("fault_mode_name", [Term::sym(&m.id), Term::sym(&m.mode)]);
        b.fact(
            "fault_severity",
            [Term::sym(&m.id), Term::Int(m.severity.index() as i64 + 1)],
        );
        b.fact(
            "fault_likelihood",
            [Term::sym(&m.id), Term::Int(m.likelihood.index() as i64 + 1)],
        );
    }

    // Mitigation universe + activation facts (per carrying component, as in
    // Listing 1's `active_mitigation(C, M)`). In assumable mode *every*
    // applicable `(component, mitigation)` pair is emitted — the fact
    // becomes an assumable atom pinned true or false per query, so one
    // ground program covers every activation state.
    let assumable = matches!(mode, EncodeMode::Assumable | EncodeMode::Contested { .. });
    for mit in &problem.mitigations {
        for f in &mit.blocks {
            b.fact("mitigation", [Term::sym(f), Term::sym(&mit.id)]);
        }
        b.fact(
            "mitigation_cost",
            [Term::sym(&mit.id), Term::Int(mit.cost as i64)],
        );
        if assumable || problem.active_mitigations.contains(&mit.id) {
            for f in &mit.blocks {
                if let Some(m) = problem.mutation(f) {
                    b.fact(
                        "active_mitigation",
                        [Term::sym(&m.component), Term::sym(&mit.id)],
                    );
                }
            }
        }
    }

    // Listing 1 (fault activation guard) plus the no-mitigation case. In
    // assumable mode every fault-dependent rule is additionally guarded by
    // `fault_enabled(F)` so a sensitivity variant can drop a mutation by
    // assuming the guard false — no re-encoding, no re-grounding.
    let guard = if assumable { "fault_enabled(F), " } else { "" };
    b.append(
        cpsrisk_asp::parse(&format!(
            "potential_fault(C, F) :- component(C), fault(F), {guard}fault_component(F, C), \
                 mitigation(F, M), not active_mitigation(C, M). \
             potential_fault(C, F) :- component(C), fault(F), {guard}fault_component(F, C), \
                 not has_mitigation(F). \
             has_mitigation(F) :- mitigation(F, M). \
             fault_mode(C, M) :- {guard}fault_component(F, C), fault_mode_name(F, M). \
             physical(C) :- element(C, K, physical)."
        ))
        .expect("static encoding parses"),
    );

    // Scenario dimension.
    match mode {
        EncodeMode::Fixed(scenario) => {
            for f in scenario.iter() {
                b.fact("scenario_fault", [Term::sym(f)]);
            }
            b.append(
                cpsrisk_asp::parse(
                    "active_fault(C, F) :- scenario_fault(F), potential_fault(C, F).",
                )
                .expect("static encoding parses"),
            );
        }
        EncodeMode::Exhaustive { max_faults } => {
            let mut choice = b.choice(None, *max_faults);
            choice = choice.element_if(
                "active_fault",
                ["C", "F"],
                vec![pos("potential_fault", ["C", "F"])],
            );
            choice.done();
        }
        EncodeMode::Assumable | EncodeMode::Contested { .. } => {
            for m in &problem.mutations {
                b.fact("scenario_fault", [Term::sym(&m.id)]);
                b.fact("fault_enabled", [Term::sym(&m.id)]);
            }
            b.append(
                cpsrisk_asp::parse(
                    "active_fault(C, F) :- scenario_fault(F), potential_fault(C, F).",
                )
                .expect("static encoding parses"),
            );
        }
    }
    if let EncodeMode::Contested { budget } = mode {
        for r in &problem.requirements {
            b.fact("target", [Term::sym(&r.id)]);
        }
        b.choice(None, Some(*budget))
            .element_if(
                "chosen",
                ["F"],
                vec![pos("fault", ["F"]), pos("fault_enabled", ["F"])],
            )
            .done();
        b.append(
            cpsrisk_asp::parse(
                "active_fault(C, F) :- chosen(F), potential_fault(C, F). \
                 :- target(R), not violated(R).",
            )
            .expect("static encoding parses"),
        );
    }

    // Worst-case propagation (same semantics as the direct engine).
    b.append(
        cpsrisk_asp::parse(
            "affected(C, M) :- active_fault(C, F), fault_mode_name(F, M). \
             affected(C2, compromised) :- affected(C1, compromised), propagates(C1, C2), \
                 component(C2), not physical(C2). \
             affected(C2, M2) :- affected(C1, compromised), propagates(C1, C2), \
                 fault_mode(C2, M2).",
        )
        .expect("static encoding parses"),
    );

    // Requirement violation rules (DNF groups).
    for r in &problem.requirements {
        for group in &r.violated_when {
            let mut rule = b.rule("violated", [Term::sym(&r.id)]);
            for (c, m) in group {
                rule = rule.pos("affected", [Term::sym(c), Term::sym(m)]);
            }
            rule.done();
        }
        b.fact("requirement", [Term::sym(&r.id)]);
    }

    b.show("active_fault", 2)
        .show("affected", 2)
        .show("violated", 1);
    b.finish()
}

/// Solve a fixed scenario through the ASP back-end.
///
/// Convenience wrapper around a one-shot
/// [`Session`]; callers evaluating several
/// scenarios against the same problem should build the session once and
/// query it repeatedly.
///
/// # Errors
///
/// [`EpaError::Asp`] on grounding/solving failure, [`EpaError::NoModel`]
/// if the (deterministic) program is inconsistent.
pub fn analyze_fixed(
    problem: &EpaProblem,
    scenario: &Scenario,
) -> Result<ScenarioOutcome, EpaError> {
    Ok(Session::new(problem, None)?
        .answer(&Query::Outcome(scenario.clone()))?
        .into_outcome())
}

/// Solve a fixed scenario by re-encoding, re-grounding, and solving from
/// scratch: the test oracle for the assumption-based incremental path,
/// sharing none of its grounding or solver state.
///
/// # Errors
///
/// [`EpaError::Asp`] on grounding/solving failure, [`EpaError::NoModel`]
/// if the (deterministic) program is inconsistent.
#[cfg(test)]
pub(crate) fn analyze_fixed_fresh(
    problem: &EpaProblem,
    scenario: &Scenario,
) -> Result<ScenarioOutcome, EpaError> {
    let program = encode(problem, &EncodeMode::Fixed(scenario.clone()));
    let ground = Grounder::new().ground(&program)?;
    let mut solver = Solver::new(&ground);
    let result = solver.enumerate(&SolveOptions {
        max_models: 1,
        ..SolveOptions::default()
    })?;
    let model = result.models.first().ok_or(EpaError::NoModel)?;
    Ok(outcome_from_model(scenario.clone(), model))
}

/// Evaluate every scenario of up to `max_faults` simultaneous faults
/// through the ASP back-end: one [`ScenarioOutcome`] per scenario, in
/// [`ScenarioSpace::iter`] order (the order of the direct engine's
/// [`evaluate_all`](crate::topology::TopologyAnalysis::evaluate_all)).
///
/// Builds one resident [`Session`] and sweeps the scenario space as
/// [`Query::Outcome`] queries on the worker pool
/// ([`SweepOptions::from_env`]); the conditional well-founded model
/// decides most of them without search. The answers are those of the
/// stable models of the choice-rule (Listing 1) program of
/// [`ExhaustiveAnalysis::ground`], one per scenario; the test suite
/// checks the two against each other.
///
/// # Errors
///
/// [`EpaError::Asp`] on grounding/solving failure.
pub fn analyze_exhaustive(
    problem: &EpaProblem,
    max_faults: Option<u32>,
) -> Result<Vec<ScenarioOutcome>, EpaError> {
    let bound = max_faults.map_or(usize::MAX, |k| usize::try_from(k).unwrap_or(usize::MAX));
    let space = ScenarioSpace::new(problem, bound);
    let queries = space.iter().map(Query::Outcome);
    let mut outcomes = Vec::new();
    Session::new(problem, None)?.sweep_streaming(queries, &SweepOptions::from_env(), |_, a| {
        outcomes.push(a.into_outcome());
    })?;
    Ok(outcomes)
}

/// An exhaustive-mode analysis with a **cached ground program**: the
/// choice-rule (Listing 1) program over every scenario of up to
/// `max_faults` faults.
///
/// Every `cheapest_attack` query (one per requirement) shares that ground
/// program: it is grounded once at construction, and each query then works
/// at the propositional level. [`outcomes`](Self::outcomes) does not
/// enumerate it; it is [`analyze_exhaustive`].
pub struct ExhaustiveAnalysis {
    ground: cpsrisk_asp::GroundProgram,
    /// Fault id → attacker cost derived from the likelihood band.
    attack_costs: std::collections::HashMap<String, i64>,
    /// The analysed problem and bound, for [`outcomes`](Self::outcomes).
    problem: EpaProblem,
    max_faults: Option<u32>,
}

impl ExhaustiveAnalysis {
    /// Encode and ground `problem` under exhaustive scenario enumeration.
    ///
    /// # Errors
    ///
    /// [`EpaError::Asp`] on grounding failure.
    pub fn new(problem: &EpaProblem, max_faults: Option<u32>) -> Result<Self, EpaError> {
        let program = encode(problem, &EncodeMode::Exhaustive { max_faults });
        // Sound backward slicing: every query reads only the shown
        // predicates, so unobservable helper rules can go before grounding.
        let ground = Grounder::new().with_slicing(true).ground(&program)?;
        let attack_costs = problem
            .mutations
            .iter()
            .map(|m| (m.id.clone(), (5 - m.likelihood.index() as i64) * 10))
            .collect();
        Ok(ExhaustiveAnalysis {
            ground,
            attack_costs,
            problem: problem.clone(),
            max_faults,
        })
    }

    /// The cached ground choice-rule program: one stable model per
    /// scenario ([`outcome_of_model`] reads its outcome).
    #[must_use]
    pub fn ground(&self) -> &cpsrisk_asp::GroundProgram {
        &self.ground
    }

    /// Every scenario outcome, in [`ScenarioSpace::iter`] order: exactly
    /// [`analyze_exhaustive`] on the analysed problem and bound (a
    /// resident-session sweep, not an enumeration of
    /// [`ground`](Self::ground)).
    ///
    /// # Errors
    ///
    /// [`EpaError::Asp`] on grounding/solving failure.
    pub fn outcomes(&self) -> Result<Vec<ScenarioOutcome>, EpaError> {
        analyze_exhaustive(&self.problem, self.max_faults)
    }

    /// §IV-D "most efficient attack" against one requirement: the
    /// cheapest fault combination (by attacker cost) that violates it. The
    /// attack cost of a fault derives from its likelihood band — easier
    /// faults (higher likelihood) are cheaper for the attacker:
    /// `cost = (5 − likelihood_index) × 10`.
    ///
    /// Answered from the cached ground program: the `#minimize` objective
    /// is attached at the propositional level (one weighted literal per
    /// ground `active_fault` atom), so no re-encoding or re-grounding
    /// happens per requirement.
    ///
    /// Returns `None` if no potential fault combination violates the
    /// requirement at all.
    ///
    /// # Errors
    ///
    /// [`EpaError::Asp`] on solving failure.
    pub fn cheapest_attack(
        &self,
        requirement_id: &str,
    ) -> Result<Option<(Scenario, i64)>, EpaError> {
        use cpsrisk_asp::ast::Atom;
        use cpsrisk_asp::program::{GroundHead, GroundRule, MinimizeLit};

        // If `violated(req)` was never derived by any rule it is not even
        // interned, and the constraint below would wipe out every model.
        let Some(viol) = self
            .ground
            .lookup(&Atom::new("violated", vec![Term::sym(requirement_id)]))
        else {
            return Ok(None);
        };

        let mut g = self.ground.clone();
        // The attack must succeed…
        g.rules.push(GroundRule {
            head: GroundHead::None,
            pos: vec![],
            neg: vec![viol],
        });
        // …at minimum total attacker cost. Tuples are keyed by fault id, so
        // a fault counts once no matter how many components carry it —
        // exactly the set semantics of the surface `#minimize` statement.
        let mut lits = Vec::new();
        for (id, atom) in self.ground.atoms() {
            if atom.pred != "active_fault" {
                continue;
            }
            let Some(fault @ Term::Const(name)) = atom.args.get(1) else {
                continue;
            };
            let Some(&weight) = self.attack_costs.get(name) else {
                continue;
            };
            lits.push(MinimizeLit {
                weight,
                tuple: vec![fault.clone()],
                pos: vec![id],
                neg: vec![],
            });
        }
        g.minimize = vec![(0, lits)];

        let mut solver = Solver::new(&g);
        let best = solver.optimize(&SolveOptions::default())?;
        Ok(best.map(|model| {
            let cost = model.cost.first().map_or(0, |(_, c)| *c);
            (scenario_of_model(&model), cost)
        }))
    }
}

/// The scenario outcome one stable model of the choice-rule program of
/// [`ExhaustiveAnalysis::ground`] encodes: its scenario is the fault ids
/// of the model's `active_fault/2` atoms.
#[must_use]
pub fn outcome_of_model(model: &cpsrisk_asp::Model) -> ScenarioOutcome {
    outcome_from_model(scenario_of_model(model), model)
}

/// The scenario an answer set encodes: the fault ids of its
/// `active_fault/2` atoms.
fn scenario_of_model(model: &cpsrisk_asp::Model) -> Scenario {
    model
        .atoms_of("active_fault")
        .iter()
        .filter_map(|a| a.args.get(1).map(ToString::to_string))
        .collect()
}

/// The scenario outcome a stable model of an encoding encodes for
/// `scenario`: its true `affected/2` and `violated/1` atoms, by name, over a
/// vocabulary of their own. A [`Session`] reads its models through its own
/// vocabulary instead.
pub(crate) fn outcome_from_model(
    scenario: Scenario,
    model: &cpsrisk_asp::Model,
) -> ScenarioOutcome {
    let mut effective_modes = Vec::new();
    let mut violated = Vec::new();
    for a in &model.atoms {
        match (a.pred.as_str(), a.args.as_slice()) {
            ("affected", [c, m, ..]) => effective_modes.push((c.to_string(), m.to_string())),
            ("violated", [r, ..]) => violated.push(r.to_string()),
            _ => {}
        }
    }
    ScenarioOutcome {
        scenario,
        effective_modes: effective_modes.into_iter().collect(),
        violated: violated.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::CandidateMutation;
    use crate::problem::{MitigationOption, Requirement};
    use crate::topology::TopologyAnalysis;
    use cpsrisk_model::{ElementKind, SystemModel};
    use cpsrisk_model::{FlowKind, Relation, RelationKind};

    fn problem() -> EpaProblem {
        let mut m = SystemModel::new("mini");
        m.add_element("ew", "Workstation", ElementKind::Node)
            .unwrap();
        m.add_element("net", "Control Net", ElementKind::CommunicationNetwork)
            .unwrap();
        m.add_element("ctrl", "Valve Controller", ElementKind::Device)
            .unwrap();
        m.add_element("hmi", "HMI", ElementKind::ApplicationComponent)
            .unwrap();
        m.add_element("valve", "Output Valve", ElementKind::Equipment)
            .unwrap();
        m.add_element("tank", "Tank", ElementKind::Equipment)
            .unwrap();
        m.add_relation("ew", "net", RelationKind::Flow).unwrap();
        m.add_relation("net", "ctrl", RelationKind::Flow).unwrap();
        m.add_relation("net", "hmi", RelationKind::Flow).unwrap();
        m.add_relation("ctrl", "valve", RelationKind::Flow).unwrap();
        m.insert_relation(
            Relation::new("valve", "tank", RelationKind::Flow).with_flow(FlowKind::Quantity),
        )
        .unwrap();
        let mutations = vec![
            CandidateMutation::spontaneous("f_valve_closed", "valve", "stuck_at_closed"),
            CandidateMutation::spontaneous("f_hmi_mute", "hmi", "no_signal"),
            CandidateMutation::spontaneous("f_ew_comp", "ew", "compromised"),
        ];
        let requirements = vec![
            Requirement::all_of("r1", "no overflow", &[("valve", "stuck_at_closed")]),
            Requirement::all_of(
                "r2",
                "alert on overflow",
                &[("valve", "stuck_at_closed"), ("hmi", "no_signal")],
            ),
        ];
        let mitigations = vec![
            MitigationOption::new("m1", "User Training", &["f_ew_comp"], 40),
            MitigationOption::new("m2", "Endpoint Security", &["f_ew_comp"], 120),
        ];
        EpaProblem::new(m, mutations, requirements, mitigations).unwrap()
    }

    #[test]
    fn fixed_scenario_matches_direct_engine() {
        let p = problem();
        let direct = TopologyAnalysis::new(&p);
        for scenario in ScenarioSpace::new(&p, usize::MAX).iter() {
            let expected = direct.evaluate(&scenario);
            let got = analyze_fixed(&p, &scenario).unwrap();
            assert_eq!(got.violated, expected.violated, "scenario {scenario}");
            assert_eq!(
                got.effective_modes, expected.effective_modes,
                "scenario {scenario}"
            );
        }
    }

    #[test]
    fn fixed_scenario_respects_mitigations() {
        let mut p = problem();
        p.activate_mitigation("m1").unwrap();
        p.activate_mitigation("m2").unwrap();
        let out = analyze_fixed(&p, &Scenario::of(&["f_ew_comp"])).unwrap();
        assert!(!out.is_hazard());
        let direct = TopologyAnalysis::new(&p).evaluate(&Scenario::of(&["f_ew_comp"]));
        assert_eq!(out.violated, direct.violated);
    }

    #[test]
    fn exhaustive_enumeration_covers_the_space() {
        let p = problem();
        let outcomes = analyze_exhaustive(&p, None).unwrap();
        assert_eq!(outcomes.len(), 8, "2^3 scenarios");
        let hazards = outcomes.iter().filter(|o| o.is_hazard()).count();
        assert_eq!(hazards, 6, "matches the direct engine");
        // Every ASP outcome agrees with the direct engine.
        let direct = TopologyAnalysis::new(&p);
        for o in &outcomes {
            let expected = direct.evaluate(&o.scenario);
            assert_eq!(o.violated, expected.violated, "scenario {}", o.scenario);
        }
    }

    #[test]
    fn bounded_exhaustive_limits_cardinality() {
        let p = problem();
        let outcomes = analyze_exhaustive(&p, Some(1)).unwrap();
        assert_eq!(outcomes.len(), 4, "nominal + 3 singletons");
        assert!(outcomes.iter().all(|o| o.scenario.len() <= 1));
    }

    #[test]
    fn cheapest_attack_picks_the_lowest_cost_violation() {
        let mut p = problem();
        // Make the workstation compromise cheap (high likelihood) and the
        // direct valve fault expensive (low likelihood).
        for m in &mut p.mutations {
            m.likelihood = match m.id.as_str() {
                "f_ew_comp" => cpsrisk_qr::Qual::VeryHigh, // cost 10
                _ => cpsrisk_qr::Qual::VeryLow,            // cost 50
            };
        }
        let analysis = ExhaustiveAnalysis::new(&p, None).unwrap();
        let (scenario, cost) = analysis
            .cheapest_attack("r1")
            .unwrap()
            .expect("r1 attackable");
        assert_eq!(scenario, Scenario::of(&["f_ew_comp"]));
        assert_eq!(cost, 10);
        // r2 likewise: the single compromise beats {valve, hmi} = 100.
        let (s2, c2) = analysis
            .cheapest_attack("r2")
            .unwrap()
            .expect("r2 attackable");
        assert_eq!(s2, Scenario::of(&["f_ew_comp"]));
        assert_eq!(c2, 10);
    }

    #[test]
    fn cheapest_attack_none_when_requirement_unreachable() {
        let mut p = problem();
        p.requirements.push(crate::problem::Requirement::all_of(
            "r_unreachable",
            "impossible",
            &[("tank", "melted")],
        ));
        let analysis = ExhaustiveAnalysis::new(&p, None).unwrap();
        assert_eq!(analysis.cheapest_attack("r_unreachable").unwrap(), None);
    }

    #[test]
    fn cheapest_attack_respects_mitigations() {
        let mut p = problem();
        p.activate_mitigation("m1").unwrap();
        p.activate_mitigation("m2").unwrap();
        // The workstation route is blocked; the attack must use the direct
        // valve fault.
        let (scenario, _) = ExhaustiveAnalysis::new(&p, None)
            .unwrap()
            .cheapest_attack("r1")
            .unwrap()
            .expect("still attackable");
        assert_eq!(scenario, Scenario::of(&["f_valve_closed"]));
    }

    #[test]
    fn cached_analysis_answers_every_query_like_the_one_shot_api() {
        let p = problem();
        let cached = ExhaustiveAnalysis::new(&p, None).unwrap();
        // Same enumeration, twice (the cache is reusable).
        let one_shot = analyze_exhaustive(&p, None).unwrap();
        assert_eq!(cached.outcomes().unwrap(), one_shot);
        assert_eq!(cached.outcomes().unwrap(), one_shot);
        // One cached analysis answers every requirement like a fresh one.
        for r in &p.requirements {
            let fresh = ExhaustiveAnalysis::new(&p, None).unwrap();
            assert_eq!(
                cached.cheapest_attack(&r.id).unwrap(),
                fresh.cheapest_attack(&r.id).unwrap(),
                "requirement {}",
                r.id
            );
        }
        assert_eq!(cached.cheapest_attack("no_such_requirement").unwrap(), None);
    }

    #[test]
    fn unknown_scenario_faults_are_ignored() {
        let p = problem();
        let out = analyze_fixed(&p, &Scenario::of(&["no_such_fault"])).unwrap();
        assert!(!out.is_hazard());
        assert!(out.effective_modes.is_empty());
    }
}
