//! CEGAR-style refinement of abstract hazard lists (Fig. 1, step 5).
//!
//! The topology-level analysis over-approximates: *"the shortlist of
//! potentially successful attacks may contain spurious solutions due to
//! over-abstraction (but the method guarantees that no actual hazardous
//! attack is overlooked)"*. The refinement loop consults a **concrete
//! oracle** (behavioural analysis, plant simulation, or an expert review
//! callback) for every abstract hazard and partitions the shortlist into
//! confirmed and spurious findings. It only ever *removes* findings, so
//! the no-overlooked-hazard guarantee is preserved by construction.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::scenario::ScenarioOutcome;
use crate::session::{Answer, Query, Session, Solvers};

/// A concrete oracle answering whether an abstract finding is real.
pub trait ConcreteOracle {
    /// Does `requirement` really get violated in the scenario of `outcome`?
    fn confirms(&self, outcome: &ScenarioOutcome, requirement: &str) -> bool;
}

/// A concrete oracle backed by the ASP [`Session`] of a (usually refined)
/// problem. The refinement loop consults the oracle once per
/// `(hazard, requirement)` pair — a family of near-identical solves that
/// the oracle answers from **one** shared ground program with one reused
/// solver, re-checking each abstract hazard's scenario as an outcome
/// query.
///
/// If a query fails to solve, the hazard is conservatively **confirmed**:
/// CEGAR only ever removes findings, and an oracle error must never drop a
/// potentially real hazard.
pub struct AspOracle<'a> {
    session: &'a Session,
    solvers: RefCell<Solvers<'a>>,
}

impl<'a> AspOracle<'a> {
    /// An oracle over an already-grounded session.
    #[must_use]
    pub fn new(session: &'a Session) -> Self {
        AspOracle {
            session,
            solvers: RefCell::new(session.solvers()),
        }
    }
}

impl ConcreteOracle for AspOracle<'_> {
    fn confirms(&self, outcome: &ScenarioOutcome, requirement: &str) -> bool {
        let query = Query::Outcome(outcome.scenario.clone());
        match self
            .session
            .answer_with(&mut self.solvers.borrow_mut(), &query)
        {
            Ok(Answer::Outcome(o)) => o.violated.contains(requirement),
            _ => true,
        }
    }
}

impl<F> ConcreteOracle for F
where
    F: Fn(&ScenarioOutcome, &str) -> bool,
{
    fn confirms(&self, outcome: &ScenarioOutcome, requirement: &str) -> bool {
        self(outcome, requirement)
    }
}

/// Result of a refinement pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CegarResult {
    /// Hazards whose every remaining violation was confirmed.
    pub confirmed: Vec<ScenarioOutcome>,
    /// `(outcome, spurious requirement ids)` — findings the oracle refuted.
    pub spurious: Vec<(ScenarioOutcome, BTreeSet<String>)>,
    /// Oracle consultations performed.
    pub oracle_calls: usize,
}

impl CegarResult {
    /// Components that appear most often in spurious findings — the model
    /// parts whose refinement would pay off first, ranked descending.
    #[must_use]
    pub fn refinement_candidates(&self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for (outcome, _) in &self.spurious {
            for (c, _) in &outcome.effective_modes {
                *counts.entry(c.clone()).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(String, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// Refine an abstract hazard shortlist against a concrete oracle.
///
/// Each violated requirement of each hazard is checked; refuted
/// requirements are moved to the spurious list. A hazard none of whose
/// violations survive is dropped from `confirmed` entirely (it was fully
/// spurious).
pub fn refine_hazards(hazards: &[ScenarioOutcome], oracle: &dyn ConcreteOracle) -> CegarResult {
    let mut confirmed = Vec::new();
    let mut spurious = Vec::new();
    let mut oracle_calls = 0usize;
    for h in hazards {
        let mut kept = BTreeSet::new();
        let mut refuted = BTreeSet::new();
        for r in &h.violated {
            oracle_calls += 1;
            if oracle.confirms(h, r) {
                kept.insert(r.clone());
            } else {
                refuted.insert(r.clone());
            }
        }
        if !refuted.is_empty() {
            spurious.push((h.clone(), refuted));
        }
        if !kept.is_empty() {
            let mut c = h.clone();
            c.violated = kept;
            confirmed.push(c);
        }
    }
    CegarResult {
        confirmed,
        spurious,
        oracle_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn outcome(faults: &[&str], violated: &[&str]) -> ScenarioOutcome {
        ScenarioOutcome {
            scenario: Scenario::of(faults),
            effective_modes: faults
                .iter()
                .map(|f| ((*f).to_owned(), "broken".to_owned()))
                .collect(),
            violated: violated.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    #[test]
    fn all_confirmed_when_oracle_agrees() {
        let hazards = vec![outcome(&["a"], &["r1"]), outcome(&["b"], &["r1", "r2"])];
        let result = refine_hazards(&hazards, &|_: &ScenarioOutcome, _: &str| true);
        assert_eq!(result.confirmed.len(), 2);
        assert!(result.spurious.is_empty());
        assert_eq!(result.oracle_calls, 3);
    }

    #[test]
    fn fully_spurious_hazards_are_dropped() {
        let hazards = vec![outcome(&["a"], &["r1"])];
        let result = refine_hazards(&hazards, &|_: &ScenarioOutcome, _: &str| false);
        assert!(result.confirmed.is_empty());
        assert_eq!(result.spurious.len(), 1);
    }

    #[test]
    fn partial_refutation_keeps_the_confirmed_part() {
        let hazards = vec![outcome(&["a"], &["r1", "r2"])];
        let oracle = |_: &ScenarioOutcome, r: &str| r == "r1";
        let result = refine_hazards(&hazards, &oracle);
        assert_eq!(result.confirmed.len(), 1);
        assert_eq!(
            result.confirmed[0]
                .violated
                .iter()
                .cloned()
                .collect::<Vec<_>>(),
            vec!["r1"]
        );
        assert_eq!(result.spurious.len(), 1);
        assert!(result.spurious[0].1.contains("r2"));
    }

    #[test]
    fn no_hazard_is_ever_added() {
        // Soundness direction of CEGAR: output ⊆ input.
        let hazards = vec![outcome(&["a"], &["r1"]), outcome(&["b"], &["r2"])];
        let result = refine_hazards(&hazards, &|o: &ScenarioOutcome, _: &str| {
            o.scenario.contains("a")
        });
        for c in &result.confirmed {
            assert!(hazards.iter().any(|h| h.scenario == c.scenario));
        }
        assert_eq!(result.confirmed.len(), 1);
    }

    #[test]
    fn asp_oracle_refines_against_the_mitigated_problem() {
        use crate::scenario::ScenarioSpace;
        use crate::topology::TopologyAnalysis;
        use crate::workload::chain_problem;

        // Abstract level: the unmitigated problem over-approximates.
        let abstract_p = chain_problem(2);
        let hazards: Vec<ScenarioOutcome> = {
            let direct = TopologyAnalysis::new(&abstract_p);
            ScenarioSpace::new(&abstract_p, usize::MAX)
                .iter()
                .map(|s| direct.evaluate(&s))
                .filter(ScenarioOutcome::is_hazard)
                .collect()
        };
        assert!(!hazards.is_empty());

        // Concrete level 1: the same problem — everything is confirmed.
        let same = Session::new(&abstract_p, None).unwrap();
        let result = refine_hazards(&hazards, &AspOracle::new(&same));
        assert_eq!(result.confirmed, hazards, "no hazard may be dropped");
        assert!(result.spurious.is_empty());

        // Concrete level 2: every mitigation active — hazards blocked at
        // the concrete level become spurious, and only those.
        let mut refined_p = abstract_p.clone();
        for id in refined_p
            .mitigations
            .iter()
            .map(|m| m.id.clone())
            .collect::<Vec<_>>()
        {
            refined_p.activate_mitigation(&id).unwrap();
        }
        let refined = Session::new(&refined_p, None).unwrap();
        let result = refine_hazards(&hazards, &AspOracle::new(&refined));
        let direct = TopologyAnalysis::new(&refined_p);
        for h in &hazards {
            let concrete = direct.evaluate(&h.scenario);
            let kept = result.confirmed.iter().find(|c| c.scenario == h.scenario);
            for r in &h.violated {
                let confirmed = kept.is_some_and(|c| c.violated.contains(r));
                assert_eq!(
                    confirmed,
                    concrete.violated.contains(r),
                    "scenario {} requirement {r}",
                    h.scenario
                );
            }
        }
    }

    #[test]
    fn refinement_candidates_rank_spurious_components() {
        let hazards = vec![
            outcome(&["noisy", "x"], &["r1"]),
            outcome(&["noisy"], &["r2"]),
            outcome(&["solid"], &["r1"]),
        ];
        // Everything involving `noisy` is spurious.
        let oracle = |o: &ScenarioOutcome, _: &str| !o.scenario.contains("noisy");
        let result = refine_hazards(&hazards, &oracle);
        let candidates = result.refinement_candidates();
        assert_eq!(candidates[0].0, "noisy");
        assert_eq!(candidates[0].1, 2);
    }
}
