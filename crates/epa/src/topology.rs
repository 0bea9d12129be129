//! Topology-based propagation: the direct (non-ASP) fixpoint engine.
//!
//! This is the *preliminary evaluation focus* of the hierarchical method
//! (Fig. 3, focus 1): only the interaction structure is used, no component
//! behaviour. The semantics are deliberately a **worst-case
//! over-approximation** — qualitative abstraction guarantees no hazardous
//! attack is overlooked; spurious hazards are filtered later by CEGAR
//! refinement:
//!
//! 1. active, unblocked faults make their `(component, mode)` effective;
//! 2. `compromised` spreads along propagation edges to non-physical
//!    components (lateral movement over signal paths);
//! 3. a compromised component can *induce* any declared candidate fault
//!    mode on each direct propagation successor (the attacker reconfigures
//!    what it controls — exactly how F4 causes F1, F2 and F3 in the case
//!    study);
//! 4. a requirement is violated when one of its DNF groups has all pairs
//!    effective.

use std::sync::Arc;

use cpsrisk_model::Layer;

use crate::problem::EpaProblem;
use crate::scenario::{Scenario, ScenarioOutcome, ScenarioSpace};
use crate::vocab::{ModeSet, RequirementSet, Vocabulary};

/// The fault-mode name treated as attacker control.
pub const COMPROMISED: &str = "compromised";

/// Direct topology-level analysis over an [`EpaProblem`].
///
/// [`new`](Self::new) interns every pair a scenario can make effective
/// (each mutation's `(component, mode)`, and `(c, compromised)` for each
/// active non-physical element) into one [`Vocabulary`], and compiles the
/// propagation rules to pair ids, so [`evaluate`](Self::evaluate) works on
/// bits.
#[derive(Debug, Clone)]
pub struct TopologyAnalysis<'a> {
    problem: &'a EpaProblem,
    vocab: Arc<Vocabulary>,
    /// Per mutation, in problem order: its fault id, its pair, and whether
    /// the active mitigations block it.
    direct: Vec<(&'a str, u32, bool)>,
    /// Per component id: the pairs a compromise of the component makes
    /// effective on its propagation successors.
    spread: Vec<Vec<u32>>,
    /// Per pair id: the pair's component id when its mode is
    /// [`COMPROMISED`].
    compromises: Vec<Option<u32>>,
    /// Per requirement: its id and its DNF groups as pair ids. A group
    /// naming a pair no scenario can make effective never holds and is left
    /// out.
    requirements: Vec<(u32, Vec<Vec<u32>>)>,
}

impl<'a> TopologyAnalysis<'a> {
    /// Create an analysis over a problem.
    #[must_use]
    pub fn new(problem: &'a EpaProblem) -> Self {
        let p = problem;
        // Lateral movement reaches active, non-physical elements.
        let enterable = |id: &str| {
            p.model
                .element(id)
                .is_some_and(|e| e.kind.is_active() && e.kind.layer() != Layer::Physical)
        };
        let lateral = p
            .model
            .elements()
            .filter(|e| enterable(&e.id))
            .map(|e| (e.id.as_str(), COMPROMISED));
        let vocab = Arc::new(Vocabulary::new(
            (p.mutations.iter())
                .map(|m| (m.component.as_str(), m.mode.as_str()))
                .chain(lateral),
            p.requirements.iter().map(|r| r.id.as_str()),
            p.mutations.iter().map(|m| m.id.as_str()),
        ));
        let pair = |c: &str, m: &str| vocab.pair_id(c, m);
        let interned = |c: &str, m: &str| pair(c, m).expect("every possible pair is interned");

        let direct = (p.mutations.iter())
            .map(|m| {
                let id = interned(&m.component, &m.mode);
                (m.id.as_str(), id, p.fault_blocked(&m.id))
            })
            .collect();
        let compromised = vocab.mode_id(COMPROMISED);
        let compromises: Vec<Option<u32>> = (0..vocab.pair_count() as u32)
            .map(|id| {
                let (c, m) = vocab.pair(id);
                (Some(m) == compromised).then_some(c)
            })
            .collect();
        let mut spread = vec![Vec::new(); vocab.component_count()];
        for c in compromises.iter().flatten() {
            let out: &mut Vec<u32> = &mut spread[*c as usize];
            for next in p.model.propagation_neighbors(vocab.component(*c)) {
                if enterable(next) {
                    out.push(interned(next, COMPROMISED));
                }
                // Induce any candidate fault mode on direct successors.
                out.extend(
                    (p.mutations.iter())
                        .filter(|m| m.component == next)
                        .map(|m| interned(&m.component, &m.mode)),
                );
            }
            out.sort_unstable();
            out.dedup();
        }
        let requirements = (p.requirements.iter())
            .map(|r| {
                let groups = (r.violated_when.iter())
                    .filter_map(|group| group.iter().map(|(c, m)| pair(c, m)).collect())
                    .collect();
                (vocab.requirement_id(&r.id).expect("interned"), groups)
            })
            .collect();
        TopologyAnalysis {
            problem,
            vocab,
            direct,
            spread,
            compromises,
            requirements,
        }
    }

    /// Evaluate one scenario: compute effective worst-case modes and the
    /// violated requirements. Blocked faults (Listing-1 semantics) are
    /// ignored even if listed in the scenario.
    #[must_use]
    pub fn evaluate(&self, scenario: &Scenario) -> ScenarioOutcome {
        let mut effective = vec![0u64; self.vocab.pair_count().div_ceil(64)];
        // Components whose compromise has not spread yet.
        let mut compromised = Vec::new();

        // 1. Directly activated, unblocked faults.
        for &(fault, id, blocked) in &self.direct {
            if !blocked && scenario.contains(fault) {
                self.add(&mut effective, &mut compromised, id);
            }
        }

        // 2+3. Fixpoint: compromise spread + mode induction, one visit per
        // compromised component.
        while let Some(c) = compromised.pop() {
            for &id in &self.spread[c as usize] {
                self.add(&mut effective, &mut compromised, id);
            }
        }

        // 4. DNF requirement check.
        let violated = (self.requirements.iter())
            .filter(|(_, groups)| {
                groups
                    .iter()
                    .any(|group| group.iter().all(|&id| has(&effective, id)))
            })
            .map(|&(id, _)| id);
        ScenarioOutcome {
            scenario: scenario.clone(),
            violated: RequirementSet::from_ids(&self.vocab, violated),
            effective_modes: ModeSet::from_bits(&self.vocab, effective.into_boxed_slice()),
        }
    }

    /// Make pair `id` effective; a newly compromised component joins
    /// `compromised`.
    fn add(&self, effective: &mut [u64], compromised: &mut Vec<u32>, id: u32) {
        if !has(effective, id) {
            effective[id as usize / 64] |= 1 << (id % 64);
            compromised.extend(self.compromises[id as usize]);
        }
    }

    /// Evaluate every scenario up to `max_faults` simultaneous faults.
    #[must_use]
    pub fn evaluate_all(&self, max_faults: usize) -> Vec<ScenarioOutcome> {
        ScenarioSpace::new(self.problem, max_faults)
            .iter()
            .map(|s| self.evaluate(&s))
            .collect()
    }

    /// The hazardous scenarios (those violating at least one requirement),
    /// up to `max_faults` simultaneous faults.
    #[must_use]
    pub fn hazards(&self, max_faults: usize) -> Vec<ScenarioOutcome> {
        self.evaluate_all(max_faults)
            .into_iter()
            .filter(ScenarioOutcome::is_hazard)
            .collect()
    }

    /// Minimal hazardous scenarios up to `max_faults` simultaneous faults:
    /// [`minimal_hazards`](crate::scenario::minimal_hazards) over
    /// [`evaluate_all`](Self::evaluate_all), in scenario-space order.
    #[must_use]
    pub fn minimal_hazards(&self, max_faults: usize) -> Vec<ScenarioOutcome> {
        crate::scenario::minimal_hazards(&self.evaluate_all(max_faults))
    }
}

/// Is bit `id` set?
fn has(bits: &[u64], id: u32) -> bool {
    bits[id as usize / 64] & (1 << (id % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::CandidateMutation;
    use crate::problem::{MitigationOption, Requirement};
    use cpsrisk_model::{ElementKind, FlowKind, Relation, RelationKind, SystemModel};

    /// A miniature of the case study: ew -> net -> {ctrl, hmi}, ctrl -> valve.
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
    fn nominal_scenario_is_safe() {
        let p = problem();
        let out = TopologyAnalysis::new(&p).evaluate(&Scenario::nominal());
        assert!(out.effective_modes.is_empty());
        assert!(!out.is_hazard());
    }

    #[test]
    fn direct_fault_violates_r1_only() {
        let p = problem();
        let out = TopologyAnalysis::new(&p).evaluate(&Scenario::of(&["f_valve_closed"]));
        assert!(out.violated.contains("r1"));
        assert!(!out.violated.contains("r2"), "alert path still works");
    }

    #[test]
    fn fault_combination_violates_both() {
        let p = problem();
        let out =
            TopologyAnalysis::new(&p).evaluate(&Scenario::of(&["f_valve_closed", "f_hmi_mute"]));
        assert_eq!(out.violated.iter().collect::<Vec<_>>(), vec!["r1", "r2"]);
    }

    #[test]
    fn compromise_propagates_and_induces_everything() {
        let p = problem();
        let out = TopologyAnalysis::new(&p).evaluate(&Scenario::of(&["f_ew_comp"]));
        // Lateral movement: net, ctrl, hmi compromised; valve (physical) not.
        assert!(out
            .effective_modes
            .contains(&("net".into(), "compromised".into())));
        assert!(out
            .effective_modes
            .contains(&("hmi".into(), "compromised".into())));
        assert!(!out
            .effective_modes
            .contains(&("valve".into(), "compromised".into())));
        // Induction: valve stuck and HMI silenced.
        assert!(out
            .effective_modes
            .contains(&("valve".into(), "stuck_at_closed".into())));
        assert!(out
            .effective_modes
            .contains(&("hmi".into(), "no_signal".into())));
        // Both requirements violated — the paper's S2 row.
        assert!(out.violated.contains("r1") && out.violated.contains("r2"));
    }

    #[test]
    fn mitigations_block_the_attack_path() {
        let mut p = problem();
        p.activate_mitigation("m1").unwrap();
        p.activate_mitigation("m2").unwrap();
        let out = TopologyAnalysis::new(&p).evaluate(&Scenario::of(&["f_ew_comp"]));
        assert!(!out.is_hazard(), "blocked fault has no effect");
        // One mitigation alone is not enough (Listing-1 semantics).
        p.deactivate_mitigation("m2");
        let out2 = TopologyAnalysis::new(&p).evaluate(&Scenario::of(&["f_ew_comp"]));
        assert!(out2.is_hazard());
    }

    #[test]
    fn exhaustive_enumeration_finds_all_hazards() {
        let p = problem();
        let all = TopologyAnalysis::new(&p).evaluate_all(usize::MAX);
        assert_eq!(all.len(), 8, "2^3 scenarios");
        let hazards = TopologyAnalysis::new(&p).hazards(usize::MAX);
        // Hazardous: every scenario containing f_valve_closed or f_ew_comp.
        assert_eq!(hazards.len(), 6);
    }

    #[test]
    fn minimal_hazards_are_cut_set_like() {
        let p = problem();
        let minimal = TopologyAnalysis::new(&p).minimal_hazards(usize::MAX);
        // {f_valve_closed} (r1), {f_ew_comp} (r1+r2), {f_valve_closed, f_hmi_mute} (r1+r2).
        assert!(minimal
            .iter()
            .any(|h| h.scenario == Scenario::of(&["f_valve_closed"])));
        assert!(minimal
            .iter()
            .any(|h| h.scenario == Scenario::of(&["f_ew_comp"])));
        assert!(minimal
            .iter()
            .any(|h| h.scenario == Scenario::of(&["f_valve_closed", "f_hmi_mute"])));
        // Non-minimal supersets excluded: {f_ew_comp, f_hmi_mute} adds nothing.
        assert!(!minimal
            .iter()
            .any(|h| h.scenario == Scenario::of(&["f_ew_comp", "f_hmi_mute"])));
    }
}
