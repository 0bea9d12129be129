//! Candidate system mutations (Fig. 1, step 2).
//!
//! A *candidate mutation* is one fault mode that could be activated on one
//! component, together with its provenance: a spontaneous dependability
//! fault (from the component-type library), an exploited vulnerability
//! (CVE-shaped record), or an attack technique (ATT&CK-shaped). The set of
//! candidate mutations spans the scenario space.

use cpsrisk_model::{SystemModel, TypeLibrary};
use cpsrisk_qr::Qual;
use cpsrisk_threat::ThreatCatalog;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a candidate mutation comes from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MutationSource {
    /// A spontaneous dependability fault from the type library.
    Spontaneous,
    /// Exploitation of a vulnerability (catalog id).
    Vulnerability(String),
    /// Execution of an attack technique (catalog id).
    Technique(String),
}

impl fmt::Display for MutationSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationSource::Spontaneous => write!(f, "spontaneous"),
            MutationSource::Vulnerability(id) => write!(f, "vuln:{id}"),
            MutationSource::Technique(id) => write!(f, "tech:{id}"),
        }
    }
}

/// One candidate mutation: a fault mode on a component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateMutation {
    /// Unique fault id (ASP-safe), e.g. `f1`, or generated.
    pub id: String,
    /// Component the fault activates on.
    pub component: String,
    /// Fault-mode name.
    pub mode: String,
    /// Provenance.
    pub source: MutationSource,
    /// Qualitative severity of the local effect.
    pub severity: Qual,
    /// Qualitative likelihood of activation (exploitability or fault rate).
    pub likelihood: Qual,
}

impl CandidateMutation {
    /// A spontaneous fault with medium severity/likelihood.
    #[must_use]
    pub fn spontaneous(id: &str, component: &str, mode: &str) -> Self {
        CandidateMutation {
            id: id.into(),
            component: component.into(),
            mode: mode.into(),
            source: MutationSource::Spontaneous,
            severity: Qual::Medium,
            likelihood: Qual::Low,
        }
    }
}

impl fmt::Display for CandidateMutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}@{} [{}] sev={} like={}",
            self.id, self.mode, self.component, self.source, self.severity, self.likelihood
        )
    }
}

/// Inject candidate mutations into a model from a type library (spontaneous
/// faults) and a threat catalog (vulnerability- and technique-induced
/// faults). Ids are generated as `f<n>` in deterministic order.
#[must_use]
pub fn inject_mutations(
    model: &SystemModel,
    library: &TypeLibrary,
    catalog: &ThreatCatalog,
) -> Vec<CandidateMutation> {
    let mut out = Vec::new();
    let mut n = 0usize;
    let mut push = |component: &str, mode: &str, source: MutationSource, severity, likelihood| {
        n += 1;
        out.push(CandidateMutation {
            id: format!("f{n}"),
            component: component.to_owned(),
            mode: mode.to_owned(),
            source,
            severity,
            likelihood,
        });
    };
    for e in model.elements() {
        let Some(type_name) = e.type_ref.as_deref() else {
            continue;
        };
        // Spontaneous faults from the library.
        for mode in library.fault_modes(type_name) {
            push(
                &e.id,
                mode,
                MutationSource::Spontaneous,
                Qual::Medium,
                Qual::Low,
            );
        }
        // Vulnerability-induced faults.
        for v in catalog.vulnerabilities_for_type(type_name) {
            push(
                &e.id,
                &v.induced_fault,
                MutationSource::Vulnerability(v.id.clone()),
                v.cvss.severity().to_qual(),
                // Exploitability maps onto likelihood bands.
                if v.cvss.exploitability() >= 3.0 {
                    Qual::High
                } else if v.cvss.exploitability() >= 1.5 {
                    Qual::Medium
                } else {
                    Qual::Low
                },
            );
        }
        // Technique-induced faults (typed techniques only — untyped
        // catch-alls would flood every component).
        for t in catalog.techniques_for_type(type_name) {
            if t.applicable_types.is_empty() {
                continue;
            }
            push(
                &e.id,
                &t.induced_fault,
                MutationSource::Technique(t.id.clone()),
                Qual::High,
                // Harder techniques are less likely to be exercised.
                match t.difficulty {
                    Qual::VeryLow | Qual::Low => Qual::High,
                    Qual::Medium => Qual::Medium,
                    Qual::High | Qual::VeryHigh => Qual::Low,
                },
            );
        }
    }
    dedup_mutations(out)
}

/// Screen every candidate mutation in isolation: evaluate the singleton
/// scenario `{m}` for each mutation of the problem and return the outcomes
/// in mutation order. The screen runs on **one** shared ground program
/// (a [`Session`](crate::session::Session)) —
/// each worker reuses a single solver across its chunk, so screening `n`
/// candidates costs one grounding plus `n` assumption solves instead of
/// `n` full encode–ground–solve rounds.
///
/// # Errors
///
/// The first [`crate::EpaError`] any evaluation produced.
pub fn screen_mutations(
    problem: &crate::problem::EpaProblem,
    opts: &crate::parallel::SweepOptions,
) -> Result<Vec<crate::scenario::ScenarioOutcome>, crate::error::EpaError> {
    let singletons: Vec<crate::session::Query> = problem
        .mutations
        .iter()
        .map(|m| crate::session::Query::Outcome(crate::scenario::Scenario::of(&[&m.id])))
        .collect();
    let (answers, _) = crate::session::Session::new(problem, None)?.sweep(&singletons, opts)?;
    Ok(answers
        .into_iter()
        .map(crate::session::Answer::into_outcome)
        .collect())
}

/// Collapse mutations that agree on (component, mode), keeping the highest
/// severity/likelihood and the most informative source.
fn dedup_mutations(mut muts: Vec<CandidateMutation>) -> Vec<CandidateMutation> {
    let mut out: Vec<CandidateMutation> = Vec::new();
    muts.sort_by_key(|m| (m.component.clone(), m.mode.clone()));
    for m in muts {
        match out
            .iter_mut()
            .find(|o| o.component == m.component && o.mode == m.mode)
        {
            Some(existing) => {
                existing.severity = existing.severity.max(m.severity);
                existing.likelihood = existing.likelihood.max(m.likelihood);
                if existing.source == MutationSource::Spontaneous
                    && m.source != MutationSource::Spontaneous
                {
                    existing.source = m.source;
                }
            }
            None => out.push(m),
        }
    }
    // Renumber ids deterministically after dedup.
    for (i, m) in out.iter_mut().enumerate() {
        m.id = format!("f{}", i + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsrisk_model::ElementKind;

    fn model_with_types() -> (SystemModel, TypeLibrary) {
        let lib = TypeLibrary::standard();
        let mut m = SystemModel::new("t");
        let mut ws = lib
            .instantiate("engineering_workstation", "ew", "Engineering Workstation")
            .unwrap();
        ws.properties.clear();
        m.insert_element(ws).unwrap();
        m.insert_element(
            lib.instantiate("valve_actuator", "out_valve", "Output Valve")
                .unwrap(),
        )
        .unwrap();
        m.add_element("untyped", "No Type", ElementKind::Node)
            .unwrap();
        (m, lib)
    }

    #[test]
    fn injection_covers_library_and_catalog() {
        let (m, lib) = model_with_types();
        let cat = ThreatCatalog::curated();
        let muts = inject_mutations(&m, &lib, &cat);
        // Workstation: compromised (spontaneous + techniques + vulns merge into one).
        assert!(muts
            .iter()
            .any(|x| x.component == "ew" && x.mode == "compromised"));
        // Valve: both stuck modes.
        assert!(muts
            .iter()
            .any(|x| x.component == "out_valve" && x.mode == "stuck_at_open"));
        assert!(muts
            .iter()
            .any(|x| x.component == "out_valve" && x.mode == "stuck_at_closed"));
        // Untyped elements yield nothing.
        assert!(!muts.iter().any(|x| x.component == "untyped"));
        // Ids are unique and sequential.
        let ids: Vec<&str> = muts.iter().map(|m| m.id.as_str()).collect();
        let mut unique = ids.clone();
        unique.dedup();
        assert_eq!(ids.len(), unique.len());
        assert_eq!(ids[0], "f1");
    }

    #[test]
    fn dedup_prefers_informative_sources_and_max_bands() {
        let muts = vec![
            CandidateMutation::spontaneous("a", "c", "m"),
            CandidateMutation {
                id: "b".into(),
                component: "c".into(),
                mode: "m".into(),
                source: MutationSource::Technique("t1".into()),
                severity: Qual::VeryHigh,
                likelihood: Qual::VeryLow,
            },
        ];
        let out = dedup_mutations(muts);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Qual::VeryHigh);
        assert_eq!(out[0].likelihood, Qual::Low, "max of Low and VeryLow");
        assert_eq!(out[0].source, MutationSource::Technique("t1".into()));
    }

    #[test]
    fn mutation_screen_matches_per_scenario_evaluation() {
        let p = crate::workload::chain_problem(3);
        let screened = screen_mutations(&p, &crate::parallel::SweepOptions::with_threads(2))
            .expect("screen succeeds");
        assert_eq!(screened.len(), p.mutations.len());
        let direct = crate::topology::TopologyAnalysis::new(&p);
        for (m, outcome) in p.mutations.iter().zip(&screened) {
            let scenario = crate::scenario::Scenario::of(&[&m.id]);
            assert_eq!(outcome.scenario, scenario);
            let expected = direct.evaluate(&scenario);
            assert_eq!(outcome.violated, expected.violated, "mutation {}", m.id);
        }
    }

    #[test]
    fn technique_induced_mutations_exist_for_valves() {
        let (m, lib) = model_with_types();
        let cat = ThreatCatalog::curated();
        let muts = inject_mutations(&m, &lib, &cat);
        // t0855 Unauthorized Command Message applies to valve_actuator
        // inducing wrong_command.
        assert!(muts
            .iter()
            .any(|x| x.component == "out_valve" && x.mode == "wrong_command"));
    }
}
