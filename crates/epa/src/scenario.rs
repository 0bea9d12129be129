//! Scenario space: combinations of candidate mutations (§IV-A).

use serde::value::{Error, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

use crate::problem::EpaProblem;
use crate::vocab::{ModeSet, RequirementSet};

/// A scenario: the set of *directly* activated fault ids.
///
/// Stored as one sorted, deduplicated slice: a scenario of one or two
/// faults is a few small blocks, not a tree node.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Scenario {
    faults: Box<[Box<str>]>,
}

impl Scenario {
    /// The nominal (fault-free) scenario.
    #[must_use]
    pub fn nominal() -> Self {
        Scenario::default()
    }

    /// A scenario from fault ids.
    #[must_use]
    pub fn of(faults: &[&str]) -> Self {
        faults.iter().map(|s| (*s).to_owned()).collect()
    }

    /// Activate a fault.
    pub fn insert(&mut self, fault: impl Into<String>) {
        let fault = fault.into();
        if let Err(at) = self.faults.binary_search_by(|f| (**f).cmp(&fault)) {
            let mut faults = std::mem::take(&mut self.faults).into_vec();
            faults.insert(at, fault.into_boxed_str());
            self.faults = faults.into_boxed_slice();
        }
    }

    /// Is the fault directly active?
    #[must_use]
    pub fn contains(&self, fault: &str) -> bool {
        self.faults.binary_search_by(|f| (**f).cmp(fault)).is_ok()
    }

    /// Number of active faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Nominal scenario?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterate fault ids in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.faults.iter().map(|f| &**f)
    }
}

impl FromIterator<String> for Scenario {
    fn from_iter<T: IntoIterator<Item = String>>(iter: T) -> Self {
        let mut faults: Vec<Box<str>> = iter.into_iter().map(String::into_boxed_str).collect();
        faults.sort_unstable();
        faults.dedup();
        Scenario {
            faults: faults.into_boxed_slice(),
        }
    }
}

/// `Scenario { faults: {"f1", ...} }`, as when the faults were a `BTreeSet`.
impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Faults<'s>(&'s Scenario);
        impl fmt::Debug for Faults<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Scenario")
            .field("faults", &Faults(self))
            .finish()
    }
}

/// `{"faults": [...]}`, the faults in order.
impl Serialize for Scenario {
    fn to_value(&self) -> Value {
        Value::Object(vec![("faults".to_owned(), self.faults.to_value())])
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let faults = v
            .get("faults")
            .ok_or_else(|| Error::new(format!("expected a Scenario object, got {v:?}")))?;
        Ok(BTreeSet::<String>::from_value(faults)?
            .into_iter()
            .collect())
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

/// The outcome of evaluating one scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The evaluated scenario.
    pub scenario: Scenario,
    /// Worst-case effective `(component, mode)` pairs.
    pub effective_modes: ModeSet,
    /// Violated requirement ids.
    pub violated: RequirementSet,
}

impl ScenarioOutcome {
    /// Did the scenario violate anything?
    #[must_use]
    pub fn is_hazard(&self) -> bool {
        !self.violated.is_empty()
    }
}

/// The minimal hazards among `outcomes`: the hazardous outcomes for which
/// no hazardous outcome of a proper sub-scenario violates at least the
/// same requirements (the qualitative analogue of minimal cut sets).
///
/// The result keeps the input order. Both back-ends of the assessment
/// pipeline filter the outcomes they already have with this function.
/// Outcomes of one engine share a vocabulary, so the requirement test is a
/// word-wise bit test.
#[must_use]
pub fn minimal_hazards(outcomes: &[ScenarioOutcome]) -> Vec<ScenarioOutcome> {
    let hazards: Vec<&ScenarioOutcome> = outcomes.iter().filter(|o| o.is_hazard()).collect();
    hazards
        .iter()
        .filter(|h| {
            !hazards.iter().any(|other| {
                other.scenario.len() < h.scenario.len()
                    && other.scenario.iter().all(|f| h.scenario.contains(f))
                    && other.violated.is_superset(&h.violated)
            })
        })
        .map(|h| (*h).clone())
        .collect()
}

impl fmt::Display for ScenarioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> ", self.scenario)?;
        if self.violated.is_empty() {
            write!(f, "ok")
        } else {
            write!(f, "violates {}", self.violated)
        }
    }
}

/// Enumerator of the scenario space: all subsets of the *potential*
/// (unblocked) faults up to a cardinality bound. The paper's observation
/// that "most attacks are based on exploiting a combination of
/// vulnerabilities" makes multi-fault scenarios first-class.
#[derive(Debug, Clone)]
pub struct ScenarioSpace {
    potential: Vec<String>,
    max_faults: usize,
}

impl ScenarioSpace {
    /// The scenario space of a problem, bounded by `max_faults`
    /// simultaneous faults (use `usize::MAX` for the full power set).
    #[must_use]
    pub fn new(problem: &EpaProblem, max_faults: usize) -> Self {
        let potential: Vec<String> = problem
            .mutations
            .iter()
            .filter(|m| !problem.fault_blocked(&m.id))
            .map(|m| m.id.clone())
            .collect();
        ScenarioSpace {
            potential,
            max_faults,
        }
    }

    /// Number of potential faults.
    #[must_use]
    pub fn potential_count(&self) -> usize {
        self.potential.len()
    }

    /// Total number of scenarios (∑ C(n,k) for k ≤ bound), saturating.
    #[must_use]
    pub fn scenario_count(&self) -> u128 {
        let n = self.potential.len() as u128;
        let bound = self.max_faults.min(self.potential.len()) as u128;
        let mut total: u128 = 0;
        let mut choose: u128 = 1; // C(n, 0)
        for k in 0..=bound {
            total = total.saturating_add(choose);
            choose = choose.saturating_mul(n - k) / (k + 1);
        }
        total
    }

    /// Iterate all scenarios in cardinality-then-lexicographic order
    /// (lexicographic over the problem's mutation order), starting with
    /// the nominal scenario. Every exhaustive outcome list of this crate
    /// comes in this order.
    pub fn iter(&self) -> impl Iterator<Item = Scenario> + '_ {
        let n = self.potential.len();
        let bound = self.max_faults.min(n);
        (0..=bound).flat_map(move |k| {
            Combinations::new(n, k).map(move |idxs| {
                idxs.into_iter()
                    .map(|i| self.potential[i].clone())
                    .collect()
            })
        })
    }
}

/// Plain k-combinations of `0..n` in lexicographic order.
struct Combinations {
    n: usize,
    k: usize,
    current: Option<Vec<usize>>,
}

impl Combinations {
    fn new(n: usize, k: usize) -> Self {
        let current = if k <= n { Some((0..k).collect()) } else { None };
        Combinations { n, k, current }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.current.take()?;
        let result = current.clone();
        // Advance to the next combination.
        let mut next = current;
        let mut i = self.k;
        loop {
            if i == 0 {
                return Some(result); // exhausted after this one
            }
            i -= 1;
            if next[i] != i + self.n - self.k {
                next[i] += 1;
                for j in i + 1..self.k {
                    next[j] = next[j - 1] + 1;
                }
                self.current = Some(next);
                return Some(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::CandidateMutation;
    use crate::problem::MitigationOption;
    use cpsrisk_model::{ElementKind, SystemModel};

    fn problem(n_faults: usize) -> EpaProblem {
        let mut m = SystemModel::new("m");
        m.add_element("c", "C", ElementKind::Node).unwrap();
        let muts = (1..=n_faults)
            .map(|i| CandidateMutation::spontaneous(&format!("f{i}"), "c", &format!("mode{i}")))
            .collect();
        EpaProblem::new(m, muts, vec![], vec![]).unwrap()
    }

    #[test]
    fn scenario_basics() {
        let mut s = Scenario::nominal();
        assert!(s.is_empty());
        s.insert("f1");
        s.insert("f1");
        assert_eq!(s.len(), 1);
        assert!(s.contains("f1"));
        assert_eq!(s.to_string(), "{f1}");
    }

    #[test]
    fn space_counts_and_enumerates_power_set() {
        let p = problem(4);
        let space = ScenarioSpace::new(&p, usize::MAX);
        assert_eq!(space.potential_count(), 4);
        assert_eq!(space.scenario_count(), 16);
        let all: Vec<Scenario> = space.iter().collect();
        assert_eq!(all.len(), 16);
        assert!(all[0].is_empty());
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 16, "all distinct");
    }

    #[test]
    fn cardinality_bound_limits_enumeration() {
        let p = problem(5);
        let space = ScenarioSpace::new(&p, 2);
        // C(5,0)+C(5,1)+C(5,2) = 1+5+10 = 16.
        assert_eq!(space.scenario_count(), 16);
        assert_eq!(space.iter().count(), 16);
        assert!(space.iter().all(|s| s.len() <= 2));
    }

    #[test]
    fn blocked_faults_are_excluded() {
        let mut m = SystemModel::new("m");
        m.add_element("c", "C", ElementKind::Node).unwrap();
        let muts = vec![
            CandidateMutation::spontaneous("f1", "c", "a"),
            CandidateMutation::spontaneous("f2", "c", "b"),
        ];
        let mits = vec![MitigationOption::new("m1", "M", &["f1"], 5)];
        let mut p = EpaProblem::new(m, muts, vec![], mits).unwrap();
        p.activate_mitigation("m1").unwrap();
        let space = ScenarioSpace::new(&p, usize::MAX);
        assert_eq!(space.potential_count(), 1);
        assert!(space.iter().all(|s| !s.contains("f1")));
    }

    #[test]
    fn combinations_order_is_lexicographic() {
        let combos: Vec<Vec<usize>> = Combinations::new(4, 2).collect();
        assert_eq!(
            combos,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(Combinations::new(3, 0).count(), 1);
        assert_eq!(Combinations::new(2, 3).count(), 0);
    }
}
