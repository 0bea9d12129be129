//! Grounder: instantiates a non-ground [`Program`] into a [`GroundProgram`].
//!
//! The grounder first computes a superset of the derivable ground atoms (the
//! *possible set*) by a fixpoint over the rules with negation ignored, then
//! emits ground rule instances by joining positive body literals against the
//! possible set. Negative literals over atoms that can never be derived are
//! trivially true and dropped; builtin comparisons and arithmetic are
//! evaluated during instantiation.
//!
//! The engine is semi-naive (`crate::seminaive`): stratified delta
//! evaluation over the predicate dependency graph, hash-consed ground terms
//! with dense ids, multi-argument hash indexes and slot-based
//! substitutions, on one thread. The test build also carries a naive
//! global re-join fixpoint (`naive`), the grounding oracle the semi-naive
//! engine is differentially tested against.

use crate::ast::{Atom, Program};
use crate::error::AspError;
use crate::program::GroundProgram;

#[cfg(test)]
pub(crate) mod naive;

/// Grounder with a configurable instance budget.
#[derive(Debug, Clone)]
pub struct Grounder {
    /// Maximum number of ground rule instances before aborting.
    pub max_instances: usize,
    /// Predicate signatures whose *facts* become assumable atoms: instead
    /// of baking `p(c).` in as a fact, the grounder emits a choice-supported
    /// atom and records it in [`GroundProgram::assumable`], so a solver can
    /// pin it true or false per query via assumption literals.
    assumable: Vec<(String, usize)>,
    /// Apply the backward slice before grounding (see
    /// [`slice_program`](crate::analysis::slice_program)): statements that
    /// cannot influence a `#show`n predicate, a constraint, a `#minimize`
    /// statement, or an assumable signature are dropped up front.
    slicing: bool,
}

impl Default for Grounder {
    fn default() -> Self {
        Grounder {
            max_instances: 2_000_000,
            assumable: Vec::new(),
            slicing: false,
        }
    }
}

impl Grounder {
    /// A grounder with default limits.
    #[must_use]
    pub fn new() -> Self {
        Grounder::default()
    }

    /// A grounder with a custom instance budget.
    #[must_use]
    pub fn with_budget(max_instances: usize) -> Self {
        Grounder {
            max_instances,
            ..Grounder::default()
        }
    }

    /// Mark a predicate signature as *assumable*: every **fact** of that
    /// signature is emitted as a choice-supported ground atom (listed in
    /// [`GroundProgram::assumable`]) instead of an unconditional fact.
    /// Rules with non-empty bodies are unaffected. Left unassumed, such an
    /// atom is free (the solver branches on it); fixed via
    /// [`Lit`](crate::solve::Lit) assumptions it behaves exactly like the
    /// fact being present or absent — without re-grounding.
    #[must_use]
    pub fn assumable(mut self, pred: &str, arity: usize) -> Self {
        self.assumable.push((pred.to_owned(), arity));
        self
    }

    /// Enable (or disable) sound backward slicing: before grounding, drop
    /// every statement that cannot influence a `#show`n predicate, a
    /// constraint, a `#minimize` statement, or an assumable signature (the
    /// signatures registered via [`Grounder::assumable`] are the slice
    /// roots). Sliced grounding preserves the model count, the shown
    /// projection of every model, and all optimization costs — only
    /// unobservable atoms disappear from the models. Off by default;
    /// programs without a `#show` directive are never sliced (everything
    /// is observable).
    #[must_use]
    pub fn with_slicing(mut self, on: bool) -> Self {
        self.slicing = on;
        self
    }

    /// Ground a program.
    ///
    /// # Errors
    ///
    /// * [`AspError::UnsafeRule`] for rules whose variables cannot be bound,
    /// * [`AspError::BadArithmetic`] for invalid arithmetic,
    /// * [`AspError::GroundingBudget`] if the instance budget is exceeded.
    pub fn ground(&self, program: &Program) -> Result<GroundProgram, AspError> {
        let sliced;
        let program = if self.slicing {
            let roots: Vec<String> = self.assumable.iter().map(|(p, _)| p.clone()).collect();
            let slice = crate::analysis::slice_program(program, &roots);
            if slice.dropped.is_empty() {
                program
            } else {
                sliced = slice.apply(program);
                &sliced
            }
        } else {
            program
        };
        crate::seminaive::ground(
            program,
            &crate::seminaive::Config {
                max_instances: self.max_instances,
                assumable: &self.assumable,
                keep_unpossible_neg: false,
            },
        )
    }

    /// Ground a program into a resident [`GroundSession`] that can later be
    /// [`extend`](GroundSession::extend)ed with program deltas. Slicing is not
    /// applied, since a slice computed now could wrongly drop rules a later
    /// delta reaches.
    ///
    /// Unlike one-shot grounding, a session keeps negative body literals
    /// over not-yet-possible atoms (interned, left undefined — semantically
    /// identical for the solver), so already-emitted rules stay correct if
    /// an extension later makes such an atom derivable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Grounder::ground`].
    pub fn session(&self, program: &Program) -> Result<GroundSession, AspError> {
        crate::seminaive::Session::new(
            program,
            &crate::seminaive::Config {
                max_instances: self.max_instances,
                assumable: &self.assumable,
                keep_unpossible_neg: true,
            },
        )
        .map(|inner| GroundSession { inner })
    }
}

pub use crate::seminaive::ExtendStats;

/// A resident grounding session produced by [`Grounder::session`].
///
/// The session retains the compiled rules, symbol table, possible-atom
/// arena, and the [`GroundProgram`] itself across [`extend`] calls, so each
/// delta only grounds the genuinely new instances — the semi-naive windows
/// restrict old rules to joins that touch at least one new atom. Atom ids
/// are stable (the ground program is mutated in place, never rebuilt),
/// which is what lets solver state survive alongside.
///
/// [`extend`]: GroundSession::extend
pub struct GroundSession {
    inner: crate::seminaive::Session,
}

impl GroundSession {
    /// The ground program in its current state. Re-solve (or re-build a
    /// solver over) this after every extension.
    #[must_use]
    pub fn program(&self) -> &GroundProgram {
        self.inner.program()
    }

    /// Ground a program delta on top of the session.
    ///
    /// `revoke` names atoms whose *bare choice rules* (`{ a }.` with an
    /// empty body, emitted verbatim in an earlier delta) are retracted —
    /// the temporal frontier defers that this delta replaces with real
    /// definitions. Bare choice rules contribute no completion nogoods,
    /// so retracting one keeps the solver's nogood set monotone.
    ///
    /// # Errors
    ///
    /// * [`AspError::Internal`] if a revoked atom is unknown or has no bare
    ///   choice rule, or if the session (or delta) contains a
    ///   cardinality-bounded choice rule — an old `CardConstraint` gaining
    ///   elements cannot be patched soundly.
    /// * Otherwise the same conditions as [`Grounder::ground`].
    pub fn extend(&mut self, delta: &Program, revoke: &[Atom]) -> Result<ExtendStats, AspError> {
        self.inner.extend(delta, revoke)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::program::{GroundHead, GroundRule};

    fn ground_src(src: &str) -> GroundProgram {
        Grounder::new().ground(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn grounds_facts_and_rules() {
        let g = ground_src("p(a). p(b). q(X) :- p(X).");
        // Two facts + two rule instances.
        assert_eq!(g.rules.len(), 4);
        assert_eq!(g.atom_count(), 4);
    }

    #[test]
    fn transitive_closure_fixpoint() {
        let g = ground_src(
            "edge(a,b). edge(b,c). edge(c,d). \
             path(X,Y) :- edge(X,Y). \
             path(X,Z) :- edge(X,Y), path(Y,Z).",
        );
        let path_atoms: Vec<String> = g
            .atoms()
            .filter(|(_, a)| a.pred == "path")
            .map(|(_, a)| a.to_string())
            .collect();
        assert!(path_atoms.contains(&"path(a,d)".to_string()));
        assert_eq!(path_atoms.len(), 6); // ab bc cd ac bd ad
    }

    #[test]
    fn negative_literals_over_underivable_atoms_are_dropped() {
        let g = ground_src("p :- not q.");
        assert_eq!(g.rules.len(), 1);
        assert!(
            g.rules[0].neg.is_empty(),
            "`not q` with underivable q is dropped"
        );
    }

    #[test]
    fn negative_literals_over_derivable_atoms_are_kept() {
        let g = ground_src("{ q }. p :- not q.");
        let p_rule = g
            .rules
            .iter()
            .find(|r| matches!(r.head, GroundHead::Atom(h) if g.atom(h).pred == "p"))
            .unwrap();
        assert_eq!(p_rule.neg.len(), 1);
    }

    #[test]
    fn arithmetic_and_comparisons() {
        let g = ground_src("n(1..4). big(X) :- n(X), X > 2. double(Y) :- n(X), Y = X * 2.");
        let bigs: Vec<String> = g
            .atoms()
            .filter(|(_, a)| a.pred == "big")
            .map(|(_, a)| a.to_string())
            .collect();
        assert_eq!(bigs, vec!["big(3)", "big(4)"]);
        let doubles: Vec<String> = g
            .atoms()
            .filter(|(_, a)| a.pred == "double")
            .map(|(_, a)| a.to_string())
            .collect();
        assert_eq!(
            doubles,
            vec!["double(2)", "double(4)", "double(6)", "double(8)"]
        );
    }

    #[test]
    fn choice_rules_with_conditions_ground_per_instance() {
        let g = ground_src("item(a). item(b). { pick(X) : item(X) } 1.");
        let picks = g.atoms().filter(|(_, a)| a.pred == "pick").count();
        assert_eq!(picks, 2);
        assert_eq!(g.cards.len(), 1);
        assert_eq!(g.cards[0].elements.len(), 2);
        assert_eq!(g.cards[0].upper, 1);
        assert_eq!(g.cards[0].lower, 0);
    }

    #[test]
    fn unbounded_choice_has_no_card_constraint() {
        let g = ground_src("item(a). { pick(X) : item(X) }.");
        assert!(g.cards.is_empty());
    }

    #[test]
    fn minimize_statements_ground() {
        let g = ground_src(
            "item(a). item(b). cost(a, 3). cost(b, 5). \
             { pick(X) : item(X) }. \
             #minimize { C,X : pick(X), cost(X, C) }.",
        );
        assert_eq!(g.minimize.len(), 1);
        let (prio, lits) = &g.minimize[0];
        assert_eq!(*prio, 0);
        assert_eq!(lits.len(), 2);
        let weights: Vec<i64> = lits.iter().map(|l| l.weight).collect();
        assert!(weights.contains(&3) && weights.contains(&5));
    }

    #[test]
    fn minimize_priorities_sorted_high_first() {
        let g = ground_src("a. b. { x }. #minimize { 1@1 : x }. #minimize { 2@5 : x }.");
        let prios: Vec<i64> = g.minimize.iter().map(|(p, _)| *p).collect();
        assert_eq!(prios, vec![5, 1]);
    }

    #[test]
    fn eq_binds_on_either_side() {
        // `X = expr` and `expr = X` both bind the free variable, in the
        // semi-naive engine and in the naive oracle.
        for src in [
            "q(1). q(2). p(X) :- q(Y), X = Y + 1.",
            "q(1). q(2). p(X) :- q(Y), Y + 1 = X.",
        ] {
            let p = parse(src).unwrap();
            for g in [
                Grounder::new().ground(&p).unwrap(),
                naive::ground(&Grounder::new(), &p).unwrap(),
            ] {
                let ps: Vec<String> = g
                    .atoms()
                    .filter(|(_, a)| a.pred == "p")
                    .map(|(_, a)| a.to_string())
                    .collect();
                assert_eq!(ps, vec!["p(2)", "p(3)"], "source: {src}");
            }
        }
    }

    #[test]
    fn budget_is_enforced() {
        let g = Grounder::with_budget(10);
        let p = parse("n(1..100). p(X) :- n(X).").unwrap();
        assert!(matches!(
            g.ground(&p),
            Err(AspError::GroundingBudget { limit: 10 })
        ));
    }

    #[test]
    fn duplicate_instances_are_deduped() {
        let g = ground_src("p(a). q :- p(a). q :- p(a).");
        let q_rules = g
            .rules
            .iter()
            .filter(|r| matches!(r.head, GroundHead::Atom(h) if g.atom(h).pred == "q"))
            .count();
        assert_eq!(q_rules, 1);
    }

    #[test]
    fn dead_instances_with_underivable_positive_body_are_dropped() {
        let g = ground_src("p :- q. r.");
        // Rule `p :- q` never instantiates because q is underivable.
        assert_eq!(g.rules.len(), 1);
    }

    #[test]
    fn slicing_drops_unobservable_rules_but_keeps_models() {
        let src = "p(a). q(b). shadow(X) :- q(X). r(X) :- p(X). \
                   { c }. :- c, not r(a). #show r/1.";
        let program = parse(src).unwrap();
        let full = Grounder::new().ground(&program).unwrap();
        let sliced = Grounder::new().with_slicing(true).ground(&program).unwrap();
        assert!(sliced.rules.len() < full.rules.len());
        assert!(!sliced.atoms().any(|(_, a)| a.pred == "shadow"));
        let shown = |g: &GroundProgram| {
            let mut out: Vec<String> = crate::solve::Solver::new(g)
                .enumerate(&crate::solve::SolveOptions::default())
                .unwrap()
                .models
                .iter()
                .map(|m| {
                    let mut v: Vec<String> = m.shown.iter().map(ToString::to_string).collect();
                    v.sort();
                    v.join(" ")
                })
                .collect();
            out.sort();
            out
        };
        assert_eq!(shown(&full), shown(&sliced));
    }

    #[test]
    fn slicing_without_show_is_a_no_op() {
        let program = parse("p(a). q(b). r(X) :- p(X).").unwrap();
        let full = Grounder::new().ground(&program).unwrap();
        let sliced = Grounder::new().with_slicing(true).ground(&program).unwrap();
        assert_eq!(full.rules.len(), sliced.rules.len());
    }

    #[test]
    fn listing_one_grounds() {
        let g = ground_src(
            "component(ew). fault(f4). mitigation(f4, m1). mitigation(f4, m2). \
             { active_mitigation(ew, m1) }. \
             potential_fault(C, F) :- component(C), fault(F), \
                 mitigation(F, M), not active_mitigation(C, M).",
        );
        // Two instances: via m1 (kept `not` literal) and via m2 (dropped literal).
        let pf_rules: Vec<&GroundRule> = g
            .rules
            .iter()
            .filter(
                |r| matches!(r.head, GroundHead::Atom(h) if g.atom(h).pred == "potential_fault"),
            )
            .collect();
        assert_eq!(pf_rules.len(), 2);
        assert!(pf_rules.iter().any(|r| r.neg.len() == 1));
        assert!(pf_rules.iter().any(|r| r.neg.is_empty()));
    }
}
