//! The outcome a [`Session`](cpsrisk_epa::Session) must decide without
//! search, computed from scratch: the outcome program's assumptions for a
//! scenario are rebuilt from the assumable vocabulary of the encoding, the
//! well-founded model under them comes from the from-scratch computation
//! in `wfm_oracle`, and the outcome is read off its true atoms.
//!
//! A suite that includes this file must also declare the `wfm_oracle`
//! module (`crates/asp/tests/support/wfm_oracle.rs`) at its root.

#![allow(dead_code)]

use std::collections::BTreeSet;

use cpsrisk_asp::analysis::wfm::Truth;
use cpsrisk_asp::ast::Term;
use cpsrisk_asp::{GroundProgram, Lit};
use cpsrisk_epa::{EpaProblem, Scenario, ScenarioOutcome};

/// One literal per assumable atom of the outcome program: a scenario
/// fault holds iff the scenario has it, every fault is enabled, and a
/// mitigation is active iff the problem activates it.
pub fn assumptions(g: &GroundProgram, problem: &EpaProblem, scenario: &Scenario) -> Vec<Lit> {
    g.assumable
        .iter()
        .map(|&atom| {
            let a = g.atom(atom);
            let positive = match (a.pred.as_str(), a.args.as_slice()) {
                ("scenario_fault", [Term::Const(f)]) => scenario.contains(f),
                ("fault_enabled", _) => true,
                ("active_mitigation", [_, Term::Const(m)]) => {
                    problem.active_mitigations.contains(m)
                }
                _ => false,
            };
            Lit { atom, positive }
        })
        .collect()
}

/// The scenario's outcome when the from-scratch conditional WFM of the
/// outcome program `g` is total and consistent; `None` otherwise.
pub fn outcome(
    g: &GroundProgram,
    problem: &EpaProblem,
    scenario: &Scenario,
) -> Option<ScenarioOutcome> {
    let wfm = crate::wfm_oracle::well_founded_with(g, &assumptions(g, problem, scenario));
    if wfm.inconsistent || wfm.truth.contains(&Truth::Undefined) {
        return None;
    }
    let mut effective_modes = BTreeSet::new();
    let mut violated = BTreeSet::new();
    for (id, a) in g.atoms() {
        if wfm.truth[id.index()] != Truth::True {
            continue;
        }
        match (a.pred.as_str(), a.args.as_slice()) {
            ("affected", [c, m, ..]) => {
                effective_modes.insert((c.to_string(), m.to_string()));
            }
            ("violated", [r, ..]) => {
                violated.insert(r.to_string());
            }
            _ => {}
        }
    }
    // Built from bare names: the sets get a vocabulary of their own, and
    // compare with the session's by name.
    Some(ScenarioOutcome {
        scenario: scenario.clone(),
        effective_modes: effective_modes.into_iter().collect(),
        violated: violated.into_iter().collect(),
    })
}
