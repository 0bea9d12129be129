//! Independent answer-set and proof verification.
//!
//! [`StabilityAudit`] implements the textbook definition directly: build
//! the Gelfond–Lifschitz reduct of the program w.r.t. a candidate
//! interpretation, compute its least model by worklist chaining (per rule,
//! count the positive body atoms not yet derived; a rule fires when the
//! count reaches zero), and compare. Choice-supported atoms are
//! self-justified when their support body holds. The audit indexes its
//! program once and then checks any number of candidates; the solver runs
//! it on every complete assignment, so the engine's correctness rests on
//! this small, obviously-correct audit rather than on the propagation
//! machinery. [`is_stable_model`] and [`least_model_of_reduct`] are its
//! one-shot forms over atom sets.
//!
//! [`check_proof`] extends the same philosophy to whole solver runs: it
//! replays a [`ProofLog`] emitted under
//! [`SolveOptions::certify`](crate::solve::SolveOptions) against the
//! ground program, sharing **no** solver code. Completion axioms are
//! validated against the checker's own translation of the program,
//! well-founded facts against its own naive alternating fixpoint, every
//! learned nogood by RUP replay (assert its literals, unit-propagate over
//! the live nogood set, demand a conflict), cardinality and unfounded-set
//! inferences against counting and closure arguments computed from
//! scratch, every claimed model by the full stability audit plus a
//! `#minimize` cost recomputation, and every unsat verdict by propagating
//! the call's assumptions into a conflict. A proof that passes certifies
//! the verdicts of every tagged call without trusting the CDCL engine.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::ast::Term;
use crate::program::{AtomId, CardConstraint, GroundHead, GroundProgram};
use crate::proof::{lit_code, lit_positive, lit_var, ProofLog, ProofStep};

/// Is `candidate` (the set of true atoms) a stable model of `program`?
///
/// A one-shot [`StabilityAudit::is_stable`]; a candidate naming an atom
/// outside the program is not a model.
#[must_use]
pub fn is_stable_model(program: &GroundProgram, candidate: &HashSet<AtomId>) -> bool {
    dense(program, candidate).is_some_and(|truth| StabilityAudit::new(program).is_stable(&truth))
}

/// Compute the least model of the reduct w.r.t. `candidate`.
///
/// Returns `None` if a candidate atom is not derived — a chosen atom with
/// no satisfied support, or an atom outside the program. A one-shot
/// [`StabilityAudit::least_model`].
#[must_use]
pub fn least_model_of_reduct(
    program: &GroundProgram,
    candidate: &HashSet<AtomId>,
) -> Option<HashSet<AtomId>> {
    let truth = dense(program, candidate)?;
    let mut audit = StabilityAudit::new(program);
    let model = audit.least_model(&truth)?;
    Some(
        (0..model.len() as u32)
            .filter(|&a| model[a as usize])
            .map(AtomId)
            .collect(),
    )
}

/// An atom set as a truth vector over the program's atoms; `None` when it
/// names an atom outside the program.
fn dense(program: &GroundProgram, set: &HashSet<AtomId>) -> Option<Vec<bool>> {
    let mut truth = vec![false; program.atom_count()];
    for a in set {
        *truth.get_mut(a.index())? = true;
    }
    Some(truth)
}

/// A rule body count that marks a rule the reduct drops.
const DROPPED: u32 = u32::MAX;

/// The stability audit of one ground program: its index is built once,
/// and each [`is_stable`](Self::is_stable) call checks one candidate, a
/// dense truth vector indexed by atom id, reusing the audit's buffers.
#[derive(Debug)]
pub struct StabilityAudit<'a> {
    program: &'a GroundProgram,
    /// Positive-occurrence lists in compressed (CSR) form: the rules
    /// reading atom `a` positively are `occ[off[a]..off[a + 1]]`, once per
    /// occurrence.
    off: Vec<u32>,
    occ: Vec<u32>,
    /// Per rule: positive body atoms not yet derived, or [`DROPPED`].
    missing: Vec<u32>,
    /// The least model of the last candidate's reduct.
    derived: Vec<bool>,
    /// Derived atoms whose occurrences are still to be visited.
    stack: Vec<u32>,
}

impl<'a> StabilityAudit<'a> {
    /// Index `program` for auditing.
    #[must_use]
    pub fn new(program: &'a GroundProgram) -> Self {
        let n_atoms = program.atom_count();
        let mut off = vec![0u32; n_atoms + 1];
        for r in &program.rules {
            for &p in &r.pos {
                off[p.index() + 1] += 1;
            }
        }
        for i in 0..n_atoms {
            off[i + 1] += off[i];
        }
        let mut occ = vec![0u32; off[n_atoms] as usize];
        let mut cursor = off.clone();
        for (ri, r) in program.rules.iter().enumerate() {
            for &p in &r.pos {
                occ[cursor[p.index()] as usize] = ri as u32;
                cursor[p.index()] += 1;
            }
        }
        StabilityAudit {
            program,
            off,
            occ,
            missing: vec![0; program.rules.len()],
            derived: vec![false; n_atoms],
            stack: Vec::new(),
        }
    }

    /// Is `truth` (one entry per atom, by id) a stable model?
    ///
    /// Checks, in order: integrity constraints, cardinality bounds, and the
    /// reduct least-model condition (including support for choice atoms).
    ///
    /// # Panics
    ///
    /// If `truth` does not have one entry per atom of the program.
    pub fn is_stable(&mut self, truth: &[bool]) -> bool {
        assert_eq!(truth.len(), self.derived.len(), "one truth value per atom");
        let holds = |a: AtomId| truth[a.index()];
        // 1. Integrity constraints: no satisfied constraint body.
        for r in &self.program.rules {
            if matches!(r.head, GroundHead::None) && body_holds(&r.pos, &r.neg, holds) {
                return false;
            }
        }
        // 2. Cardinality bounds.
        if !self.program.cards.iter().all(|c| card_holds(c, holds)) {
            return false;
        }
        // 3. Reduct least model == candidate.
        self.derive(truth);
        self.derived == truth
    }

    /// The least model of the reduct w.r.t. `truth` (one entry per atom,
    /// by id), or `None` if a true atom is not derived (a chosen atom
    /// with no satisfied support).
    ///
    /// # Panics
    ///
    /// If `truth` does not have one entry per atom of the program.
    pub fn least_model(&mut self, truth: &[bool]) -> Option<&[bool]> {
        assert_eq!(truth.len(), self.derived.len(), "one truth value per atom");
        self.derive(truth);
        let covered = truth.iter().zip(&self.derived).all(|(&t, &d)| d || !t);
        covered.then_some(self.derived.as_slice())
    }

    /// Compute the reduct's least model into `derived`.
    fn derive(&mut self, truth: &[bool]) {
        let rules = &self.program.rules;
        self.derived.fill(false);
        self.stack.clear();
        let StabilityAudit {
            off,
            occ,
            missing,
            derived,
            stack,
            ..
        } = self;
        // A rule fires once its positive body is derived. The reduct drops
        // a rule with a negative literal the candidate contradicts and
        // deletes the remaining negative literals.
        let fire = |ri: usize, derived: &mut [bool], stack: &mut Vec<u32>| {
            let h = match rules[ri].head {
                GroundHead::Atom(h) => h,
                // A chosen atom is self-justified iff it is in the
                // candidate and its support body holds in the reduct.
                GroundHead::Choice(h) if truth[h.index()] => h,
                _ => return,
            };
            if !derived[h.index()] {
                derived[h.index()] = true;
                stack.push(h.0);
            }
        };
        for (ri, r) in rules.iter().enumerate() {
            missing[ri] = if r.neg.iter().any(|n| truth[n.index()]) {
                DROPPED
            } else {
                r.pos.len() as u32
            };
            if missing[ri] == 0 {
                fire(ri, derived, stack);
            }
        }
        while let Some(a) = stack.pop() {
            for &ri in &occ[off[a as usize] as usize..off[a as usize + 1] as usize] {
                let ri = ri as usize;
                if missing[ri] == DROPPED {
                    continue;
                }
                missing[ri] -= 1;
                if missing[ri] == 0 {
                    fire(ri, derived, stack);
                }
            }
        }
    }
}

/// Does a body hold under `holds`?
fn body_holds(pos: &[AtomId], neg: &[AtomId], holds: impl Fn(AtomId) -> bool) -> bool {
    pos.iter().all(|&p| holds(p)) && neg.iter().all(|&n| !holds(n))
}

/// Is a cardinality constraint satisfied under `holds`?
fn card_holds(c: &CardConstraint, holds: impl Fn(AtomId) -> bool + Copy) -> bool {
    if !body_holds(&c.pos, &c.neg, holds) {
        return true; // bounds only apply when the body holds
    }
    let held = c
        .elements
        .iter()
        .filter(|e| holds(e.atom) && body_holds(&e.guard_pos, &e.guard_neg, holds))
        .count() as u32;
    c.lower <= held && held <= c.upper
}

/// Evaluate a cardinality constraint against a complete interpretation.
#[must_use]
pub fn card_satisfied(c: &CardConstraint, m: &HashSet<AtomId>) -> bool {
    card_holds(c, |a| m.contains(&a))
}

// ---------------------------------------------------------------------------
// Proof certificate checking
// ---------------------------------------------------------------------------

/// Why [`check_proof`] rejected a certificate.
///
/// Every variant names the zero-based index of the offending step (where
/// one exists) so a failing certificate can be diagnosed directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The log overflowed the in-memory step cap while being recorded;
    /// the suffix is missing, so nothing can be certified.
    Truncated,
    /// The proof header declares a different atom count than the program.
    AtomCountMismatch {
        /// Atom count declared by the proof.
        proof: u32,
        /// Atom count of the ground program.
        program: u32,
    },
    /// A declared body is malformed: atom lists must be strictly sorted
    /// and within the program's atom range.
    BadBodyDeclaration {
        /// Index of the offending body declaration.
        index: usize,
    },
    /// A rule body of the program has no matching body declaration, so
    /// the completion translation cannot be reconstructed.
    MissingBodyDeclaration,
    /// A step mentions a literal outside the declared variable range.
    LitOutOfRange {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// An axiom step is not part of the program's completion translation.
    UnknownAxiom {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A well-founded fact disagrees with the checker's own alternating
    /// fixpoint.
    WfmMismatch {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A cardinality inference is not entailed by bound counting under
    /// the literals it pins.
    CardNotEntailed {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// An unfounded-set inference survives the checker's closure argument:
    /// the target atom is still possibly derivable under the prefix.
    UnfoundedUnjustified {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A stability-failure nogood could not be reproduced: propagating its
    /// literals neither conflicts nor reaches a total unstable assignment.
    StabilityUnjustified {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A learned nogood failed reverse unit propagation: asserting its
    /// literals does not propagate to a conflict over the live nogoods.
    RupFailed {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A deletion names a nogood that is not live.
    DeleteUnknown {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A model or unsat verdict appears outside any certified call.
    StepOutsideCall {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A claimed model lists an atom outside the program, or an atom twice.
    BadModelAtoms {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A claimed model violates one of the call's assumptions.
    AssumptionViolated {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A claimed model failed the independent stability audit.
    ModelNotStable {
        /// Zero-based index of the offending step.
        step: usize,
    },
    /// A claimed `#minimize` cost differs from the recomputed one.
    CostMismatch {
        /// Zero-based index of the offending step.
        step: usize,
        /// The cost vector the proof claims.
        claimed: Vec<(i64, i64)>,
        /// The cost vector recomputed from the model.
        actual: Vec<(i64, i64)>,
    },
    /// An unsat verdict could not be reproduced: propagating the call's
    /// assumptions over the live nogoods does not conflict.
    UnsatNotDerivable {
        /// Zero-based index of the offending step.
        step: usize,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Truncated => write!(f, "proof log was truncated; suffix is missing"),
            CheckError::AtomCountMismatch { proof, program } => write!(
                f,
                "proof declares {proof} atoms but the program has {program}"
            ),
            CheckError::BadBodyDeclaration { index } => {
                write!(f, "body declaration {index} is malformed")
            }
            CheckError::MissingBodyDeclaration => {
                write!(f, "a rule body has no matching body declaration")
            }
            CheckError::LitOutOfRange { step } => {
                write!(
                    f,
                    "step {step}: literal outside the declared variable range"
                )
            }
            CheckError::UnknownAxiom { step } => {
                write!(
                    f,
                    "step {step}: axiom is not part of the program translation"
                )
            }
            CheckError::WfmMismatch { step } => write!(
                f,
                "step {step}: well-founded fact contradicts the checker's fixpoint"
            ),
            CheckError::CardNotEntailed { step } => write!(
                f,
                "step {step}: cardinality inference not entailed by bound counting"
            ),
            CheckError::UnfoundedUnjustified { step } => write!(
                f,
                "step {step}: unfounded-set target is still possibly derivable"
            ),
            CheckError::StabilityUnjustified { step } => write!(
                f,
                "step {step}: stability refutation could not be reproduced"
            ),
            CheckError::RupFailed { step } => write!(
                f,
                "step {step}: learned nogood failed reverse unit propagation"
            ),
            CheckError::DeleteUnknown { step } => {
                write!(f, "step {step}: deletion names a nogood that is not live")
            }
            CheckError::StepOutsideCall { step } => {
                write!(f, "step {step}: verdict appears outside any certified call")
            }
            CheckError::BadModelAtoms { step } => {
                write!(f, "step {step}: model lists an invalid or duplicate atom")
            }
            CheckError::AssumptionViolated { step } => {
                write!(f, "step {step}: model violates a call assumption")
            }
            CheckError::ModelNotStable { step } => {
                write!(f, "step {step}: claimed model is not a stable model")
            }
            CheckError::CostMismatch {
                step,
                claimed,
                actual,
            } => write!(
                f,
                "step {step}: claimed cost {claimed:?} differs from recomputed {actual:?}"
            ),
            CheckError::UnsatNotDerivable { step } => write!(
                f,
                "step {step}: unsat verdict not derivable from the live nogoods"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// Summary statistics of a successful [`check_proof`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Total proof steps verified.
    pub steps: usize,
    /// Axiom steps matched against the completion translation.
    pub axioms: usize,
    /// Well-founded facts confirmed against the checker's fixpoint.
    pub wfm_facts: usize,
    /// Cardinality, unfounded-set, and stability inferences re-derived.
    pub inferences: usize,
    /// Learned nogoods replayed by reverse unit propagation.
    pub learned: usize,
    /// Deletions applied.
    pub deleted: usize,
    /// Certified calls seen.
    pub calls: usize,
    /// Models fully audited (stability + assumptions + cost).
    pub models: usize,
    /// Unsat verdicts re-derived by propagation.
    pub unsats: usize,
}

/// Verify a proof certificate against the ground program it claims to
/// certify.
///
/// The checker shares no code with the CDCL engine: it rebuilds the
/// completion translation, the well-founded fixpoint, and every cardinality
/// or unfounded-set argument from the ground program alone, and replays
/// learned nogoods by reverse unit propagation over the nogoods the proof
/// itself established. See the [module docs](self) for the full contract.
///
/// # Errors
///
/// The first step that cannot be independently justified is reported as a
/// [`CheckError`] naming the step and the reason.
pub fn check_proof(program: &GroundProgram, log: &ProofLog) -> Result<CheckReport, CheckError> {
    if log.truncated {
        return Err(CheckError::Truncated);
    }
    let n_atoms = program.atom_count() as u32;
    if log.n_atoms != n_atoms {
        return Err(CheckError::AtomCountMismatch {
            proof: log.n_atoms,
            program: n_atoms,
        });
    }
    let n_vars = n_atoms as usize + log.bodies.len();
    let (expected, empty_allowed) = expected_axioms(program, &log.bodies)?;
    let wfm = naive_wfm(program);
    let mut audit = StabilityAudit::new(program);
    // The candidate of a model or stability step, one entry per atom.
    let mut truth: Vec<bool> = Vec::with_capacity(n_atoms as usize);

    let mut rep = CheckReport::default();
    let mut eng = Replay::new(n_vars);
    let mut call: Option<Vec<u32>> = None;
    // Consecutive unfounded-set steps from one backstop scan share their
    // prefix; the closure computed for the first is a sound
    // over-approximation for the rest (later additions only shrink it).
    let mut closure_cache: Option<(Vec<u32>, Vec<bool>)> = None;

    for (si, step) in log.steps.iter().enumerate() {
        match step {
            ProofStep::Axiom(lits) => {
                check_range(lits, n_vars, si)?;
                let c = canon(lits);
                let known = if c.is_empty() {
                    empty_allowed
                } else {
                    expected.contains(&c)
                };
                if !known {
                    return Err(CheckError::UnknownAxiom { step: si });
                }
                eng.add(&c);
                rep.axioms += 1;
            }
            ProofStep::Wfm(c) => {
                let a = lit_var(*c);
                if a >= n_atoms {
                    return Err(CheckError::LitOutOfRange { step: si });
                }
                // The forbidden literal `(a, v)` claims every stable model
                // assigns the complement: forbidding truth needs WFM-false
                // and vice versa.
                let ok = if lit_positive(*c) {
                    !wfm.possible[a as usize]
                } else {
                    wfm.certain[a as usize]
                };
                if !ok {
                    return Err(CheckError::WfmMismatch { step: si });
                }
                eng.add(&[*c]);
                rep.wfm_facts += 1;
            }
            ProofStep::Card { card, lits } => {
                check_range(lits, n_vars, si)?;
                if !card_step_entailed(program, *card as usize, lits) {
                    return Err(CheckError::CardNotEntailed { step: si });
                }
                eng.add(&canon(lits));
                rep.inferences += 1;
            }
            ProofStep::Unfounded(lits) => {
                check_range(lits, n_vars, si)?;
                let Some((&target, prefix)) = lits.split_last() else {
                    return Err(CheckError::UnfoundedUnjustified { step: si });
                };
                if !lit_positive(target) || lit_var(target) >= n_atoms {
                    return Err(CheckError::UnfoundedUnjustified { step: si });
                }
                eng.rebuild_if_dirty(&mut closure_cache);
                let tv = lit_var(target) as usize;
                let cached = matches!(
                    &closure_cache,
                    Some((p, inc)) if p == prefix && !inc[tv]
                );
                let ok = eng.root_conflict || cached || {
                    let mark = eng.checkpoint();
                    let mut conflict = prefix.iter().any(|&c| !eng.assert_sat(c));
                    if !conflict {
                        conflict = !eng.propagate();
                    }
                    let ok = conflict || eng.val[tv] == Some(false) || {
                        let inc = derivability_closure(program, &eng.val);
                        let excluded = !inc[tv];
                        closure_cache = Some((prefix.to_vec(), inc));
                        excluded
                    };
                    eng.rollback(mark);
                    ok
                };
                if !ok {
                    return Err(CheckError::UnfoundedUnjustified { step: si });
                }
                eng.add(&canon(lits));
                rep.inferences += 1;
            }
            ProofStep::Stability(lits) => {
                check_range(lits, n_vars, si)?;
                eng.rebuild_if_dirty(&mut closure_cache);
                let ok = eng.root_conflict || {
                    let mark = eng.checkpoint();
                    let mut conflict = lits.iter().any(|&c| !eng.assert_sat(c));
                    if !conflict {
                        conflict = !eng.propagate();
                    }
                    let ok = conflict || {
                        // The prefix must re-propagate to the very total
                        // assignment the solver rejected as unstable.
                        let total = (0..n_atoms as usize).all(|a| eng.val[a].is_some());
                        total && {
                            truth.clear();
                            truth.extend(
                                eng.val[..n_atoms as usize].iter().map(|&v| v == Some(true)),
                            );
                            !audit.is_stable(&truth)
                        }
                    };
                    eng.rollback(mark);
                    ok
                };
                if !ok {
                    return Err(CheckError::StabilityUnjustified { step: si });
                }
                eng.add(&canon(lits));
                rep.inferences += 1;
            }
            ProofStep::Call { assumptions, .. } => {
                for &c in assumptions {
                    if lit_var(c) >= n_atoms {
                        return Err(CheckError::LitOutOfRange { step: si });
                    }
                }
                call = Some(assumptions.clone());
                rep.calls += 1;
            }
            ProofStep::Learned(lits) => {
                check_range(lits, n_vars, si)?;
                eng.rebuild_if_dirty(&mut closure_cache);
                if !eng.refutes(lits) {
                    return Err(CheckError::RupFailed { step: si });
                }
                eng.add(&canon(lits));
                rep.learned += 1;
            }
            ProofStep::Delete(lits) => {
                if !eng.delete(&canon(lits)) {
                    return Err(CheckError::DeleteUnknown { step: si });
                }
                closure_cache = None;
                rep.deleted += 1;
            }
            ProofStep::Model { cost, atoms } => {
                let asm = call
                    .as_ref()
                    .ok_or(CheckError::StepOutsideCall { step: si })?;
                if atoms.iter().any(|&a| a >= n_atoms) {
                    return Err(CheckError::BadModelAtoms { step: si });
                }
                truth.clear();
                truth.resize(n_atoms as usize, false);
                for &a in atoms {
                    if std::mem::replace(&mut truth[a as usize], true) {
                        return Err(CheckError::BadModelAtoms { step: si });
                    }
                }
                for &c in asm {
                    if truth[lit_var(c) as usize] != lit_positive(c) {
                        return Err(CheckError::AssumptionViolated { step: si });
                    }
                }
                if !audit.is_stable(&truth) {
                    return Err(CheckError::ModelNotStable { step: si });
                }
                let actual = recompute_cost(program, &truth);
                if *cost != actual {
                    return Err(CheckError::CostMismatch {
                        step: si,
                        claimed: cost.clone(),
                        actual,
                    });
                }
                rep.models += 1;
            }
            ProofStep::Unsat => {
                let asm = call
                    .as_ref()
                    .ok_or(CheckError::StepOutsideCall { step: si })?
                    .clone();
                eng.rebuild_if_dirty(&mut closure_cache);
                if !eng.refutes(&asm) {
                    return Err(CheckError::UnsatNotDerivable { step: si });
                }
                rep.unsats += 1;
            }
        }
        rep.steps += 1;
    }
    Ok(rep)
}

/// Canonical (sorted, deduplicated) form of a nogood's literal codes.
fn canon(lits: &[u32]) -> Vec<u32> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

fn check_range(lits: &[u32], n_vars: usize, step: usize) -> Result<(), CheckError> {
    if lits.iter().any(|&c| lit_var(c) as usize >= n_vars) {
        return Err(CheckError::LitOutOfRange { step });
    }
    Ok(())
}

/// The completion translation, rebuilt from the ground program over the
/// proof's declared bodies. Returns the set of admissible axiom nogoods
/// (canonical form) and whether the empty axiom (an always-violated
/// constraint) is admissible.
fn expected_axioms(
    program: &GroundProgram,
    bodies: &[(Vec<u32>, Vec<u32>)],
) -> Result<(HashSet<Vec<u32>>, bool), CheckError> {
    let n_atoms = program.atom_count() as u32;
    let strictly_sorted =
        |v: &[u32]| v.windows(2).all(|w| w[0] < w[1]) && v.iter().all(|&a| a < n_atoms);
    let mut body_var: HashMap<(&[u32], &[u32]), u32> = HashMap::new();
    for (i, (pos, neg)) in bodies.iter().enumerate() {
        if !strictly_sorted(pos) || !strictly_sorted(neg) {
            return Err(CheckError::BadBodyDeclaration { index: i });
        }
        body_var
            .entry((pos.as_slice(), neg.as_slice()))
            .or_insert(n_atoms + i as u32);
    }
    let t = |a: u32| lit_code(a, true);
    let f = |a: u32| lit_code(a, false);
    let n = n_atoms as usize;
    let mut expect: HashSet<Vec<u32>> = HashSet::new();
    let mut empty_allowed = false;
    let mut defined = vec![false; n];
    let mut unconditional = vec![false; n];
    let mut supports: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut forward: HashSet<(u32, u32)> = HashSet::new();
    for r in &program.rules {
        let mut pos: Vec<u32> = r.pos.iter().map(|p| p.0).collect();
        pos.sort_unstable();
        pos.dedup();
        let mut neg: Vec<u32> = r.neg.iter().map(|q| q.0).collect();
        neg.sort_unstable();
        neg.dedup();
        match r.head {
            GroundHead::None => {
                let lits: Vec<u32> = pos
                    .iter()
                    .map(|&a| t(a))
                    .chain(neg.iter().map(|&a| f(a)))
                    .collect();
                if lits.is_empty() {
                    empty_allowed = true;
                } else {
                    expect.insert(canon(&lits));
                }
            }
            GroundHead::Atom(h) | GroundHead::Choice(h) => {
                let h = h.0;
                defined[h as usize] = true;
                if pos.is_empty() && neg.is_empty() {
                    unconditional[h as usize] = true;
                    if matches!(r.head, GroundHead::Atom(_)) {
                        expect.insert(vec![f(h)]); // the head is a fact
                    }
                    continue;
                }
                let beta = *body_var
                    .get(&(pos.as_slice(), neg.as_slice()))
                    .ok_or(CheckError::MissingBodyDeclaration)?;
                if matches!(r.head, GroundHead::Atom(_)) {
                    forward.insert((h, beta));
                }
                supports[h as usize].push(f(beta));
            }
        }
    }
    // Body equivalence axioms are definitional for every declared body.
    for (i, (pos, neg)) in bodies.iter().enumerate() {
        let beta = n_atoms + i as u32;
        let mut omega: Vec<u32> = vec![f(beta)];
        omega.extend(pos.iter().map(|&a| t(a)));
        omega.extend(neg.iter().map(|&a| f(a)));
        expect.insert(canon(&omega));
        for &a in pos {
            expect.insert(canon(&[t(beta), f(a)]));
        }
        for &a in neg {
            expect.insert(canon(&[t(beta), t(a)]));
        }
    }
    for (h, beta) in forward {
        expect.insert(canon(&[f(h), t(beta)]));
    }
    for a in 0..n {
        if !defined[a] {
            expect.insert(vec![t(a as u32)]); // undefined atoms are false
        } else if !unconditional[a] && !supports[a].is_empty() {
            let mut s = vec![t(a as u32)];
            s.extend(supports[a].iter().copied());
            expect.insert(canon(&s));
        }
    }
    Ok((expect, empty_allowed))
}

/// The well-founded model by the textbook alternating fixpoint, computed
/// with naive iteration (no worklists, no sharing with `analysis::wfm`).
struct NaiveWfm {
    certain: Vec<bool>,
    possible: Vec<bool>,
}

fn naive_wfm(program: &GroundProgram) -> NaiveWfm {
    let n = program.atom_count();
    let gamma = |certain_mode: bool, opposite: &[bool]| -> Vec<bool> {
        let mut derived = vec![false; n];
        loop {
            let mut changed = false;
            for r in &program.rules {
                let h = match r.head {
                    GroundHead::Atom(h) => h,
                    GroundHead::Choice(h) if !certain_mode => h,
                    _ => continue,
                };
                if derived[h.index()]
                    || r.neg.iter().any(|q| opposite[q.index()])
                    || !r.pos.iter().all(|p| derived[p.index()])
                {
                    continue;
                }
                derived[h.index()] = true;
                changed = true;
            }
            if !changed {
                break;
            }
        }
        derived
    };
    let mut certain = vec![false; n];
    loop {
        let possible = gamma(false, &certain);
        let next = gamma(true, &possible);
        if next == certain {
            return NaiveWfm { certain, possible };
        }
        certain = next;
    }
}

/// Is the cardinality inference entailed by bound counting? Pinning the
/// step's literals must satisfy the constraint body outright and force the
/// held-count interval entirely outside `[lower, upper]`.
fn card_step_entailed(program: &GroundProgram, ci: usize, lits: &[u32]) -> bool {
    let Some(c) = program.cards.get(ci) else {
        return false;
    };
    let mut pin: HashMap<u32, bool> = HashMap::new();
    for &l in lits {
        if let Some(prev) = pin.insert(lit_var(l), lit_positive(l)) {
            if prev != lit_positive(l) {
                return true; // self-contradictory nogood: trivially valid
            }
        }
    }
    let is = |a: AtomId, want: bool| pin.get(&a.0) == Some(&want);
    if !(c.pos.iter().all(|&p| is(p, true)) && c.neg.iter().all(|&q| is(q, false))) {
        return false;
    }
    let mut held_min = 0u32;
    let mut held_max = 0u32;
    for e in &c.elements {
        let guard_true =
            e.guard_pos.iter().all(|&p| is(p, true)) && e.guard_neg.iter().all(|&q| is(q, false));
        let guard_false =
            e.guard_pos.iter().any(|&p| is(p, false)) || e.guard_neg.iter().any(|&q| is(q, true));
        if is(e.atom, true) && guard_true {
            held_min += 1;
        }
        if !is(e.atom, false) && !guard_false {
            held_max += 1;
        }
    }
    held_min > c.upper || held_max < c.lower
}

/// Atoms still possibly derivable under a partial assignment: the least
/// fixpoint over rules whose head is not assigned false, whose positive
/// body is inside the closure, and whose negative body is not assigned
/// true. An atom outside this closure is unfounded.
fn derivability_closure(program: &GroundProgram, val: &[Option<bool>]) -> Vec<bool> {
    let n = program.atom_count();
    let mut inc = vec![false; n];
    loop {
        let mut changed = false;
        for r in &program.rules {
            let h = match r.head {
                GroundHead::Atom(h) | GroundHead::Choice(h) => h,
                GroundHead::None => continue,
            };
            if inc[h.index()]
                || val[h.index()] == Some(false)
                || r.neg.iter().any(|q| val[q.index()] == Some(true))
                || !r.pos.iter().all(|p| inc[p.index()])
            {
                continue;
            }
            inc[h.index()] = true;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    inc
}

/// Recompute the `#minimize` cost vector of a model with the statement
/// semantics: identical `(weight, tuple)` keys count once per priority.
fn recompute_cost(program: &GroundProgram, truth: &[bool]) -> Vec<(i64, i64)> {
    program
        .minimize
        .iter()
        .map(|(prio, lits)| {
            let mut counted: HashSet<(i64, &[Term])> = HashSet::new();
            let mut total = 0i64;
            for l in lits {
                let holds = body_holds(&l.pos, &l.neg, |a| truth[a.index()]);
                if holds && counted.insert((l.weight, l.tuple.as_slice())) {
                    total += l.weight;
                }
            }
            (*prio, total)
        })
        .collect()
}

/// Counter-based unit propagation over the live nogood set.
///
/// A nogood *fires* when none of its literals is falsified and all but one
/// are satisfied (the last literal's complement is forced) and *conflicts*
/// when every literal is satisfied. Root consequences are kept on a
/// persistent trail; per-step verifications checkpoint and roll back.
struct Replay {
    /// Canonical literal codes per nogood (index = nogood id).
    lits: Vec<Vec<u32>>,
    live: Vec<bool>,
    sat: Vec<u32>,
    fal: Vec<u32>,
    /// Occurrence lists: literal code -> nogood ids containing it.
    occ: Vec<Vec<u32>>,
    val: Vec<Option<bool>>,
    trail: Vec<u32>,
    qhead: usize,
    /// The live set is already conflicting at the root: every further
    /// propagation claim holds vacuously (model audits stay strict).
    root_conflict: bool,
    by_canon: HashMap<Vec<u32>, Vec<u32>>,
    /// Deletions invalidate occurrence lists and counters; rebuilt lazily.
    dirty: bool,
}

impl Replay {
    fn new(n_vars: usize) -> Self {
        Replay {
            lits: Vec::new(),
            live: Vec::new(),
            sat: Vec::new(),
            fal: Vec::new(),
            occ: vec![Vec::new(); 2 * n_vars],
            val: vec![None; n_vars],
            trail: Vec::new(),
            qhead: 0,
            root_conflict: false,
            by_canon: HashMap::new(),
            dirty: false,
        }
    }

    fn checkpoint(&self) -> usize {
        self.trail.len()
    }

    /// Add a nogood (canonical lits) to the live set and propagate any
    /// immediate root consequence.
    fn add(&mut self, canon_lits: &[u32]) {
        let ni = self.lits.len();
        self.by_canon
            .entry(canon_lits.to_vec())
            .or_default()
            .push(ni as u32);
        self.live.push(true);
        self.sat.push(0);
        self.fal.push(0);
        self.lits.push(canon_lits.to_vec());
        if self.dirty {
            return; // structures are rebuilt before the next propagation
        }
        let mut s = 0u32;
        let mut f = 0u32;
        for k in 0..self.lits[ni].len() {
            let c = self.lits[ni][k];
            self.occ[c as usize].push(ni as u32);
            match self.val[lit_var(c) as usize] {
                Some(b) if b == lit_positive(c) => s += 1,
                Some(_) => f += 1,
                None => {}
            }
        }
        self.sat[ni] = s;
        self.fal[ni] = f;
        if self.root_conflict || f > 0 {
            return;
        }
        let len = self.lits[ni].len() as u32;
        if s == len {
            self.root_conflict = true; // includes the empty nogood
        } else if s + 1 == len {
            let c = self.lits[ni]
                .iter()
                .copied()
                .find(|&c| self.val[lit_var(c) as usize].is_none())
                .expect("exactly one literal is unassigned");
            self.val[lit_var(c) as usize] = Some(!lit_positive(c));
            self.trail.push(lit_var(c));
            if !self.propagate() {
                self.root_conflict = true;
            }
        }
    }

    /// Remove one live nogood with the given canonical form.
    fn delete(&mut self, canon_lits: &[u32]) -> bool {
        let Some(list) = self.by_canon.get_mut(canon_lits) else {
            return false;
        };
        let ni = list.pop().expect("by_canon lists are non-empty");
        if list.is_empty() {
            self.by_canon.remove(canon_lits);
        }
        self.live[ni as usize] = false;
        self.dirty = true;
        true
    }

    fn rebuild_if_dirty(&mut self, closure_cache: &mut Option<(Vec<u32>, Vec<bool>)>) {
        if self.dirty {
            // A weaker live set can enlarge the derivability closure, so a
            // cached closure is no longer an over-approximation.
            *closure_cache = None;
            self.rebuild();
        }
    }

    /// Recompute occurrence lists, counters, and the persistent root trail
    /// from the surviving live nogoods.
    fn rebuild(&mut self) {
        self.val.iter_mut().for_each(|v| *v = None);
        self.trail.clear();
        self.qhead = 0;
        self.root_conflict = false;
        let mut occ = vec![Vec::new(); self.occ.len()];
        for (ni, l) in self.lits.iter().enumerate() {
            self.sat[ni] = 0;
            self.fal[ni] = 0;
            if self.live[ni] {
                for &c in l {
                    occ[c as usize].push(ni as u32);
                }
            }
        }
        self.occ = occ;
        for ni in 0..self.lits.len() {
            if !self.live[ni] {
                continue;
            }
            match self.lits[ni].as_slice() {
                [] => self.root_conflict = true,
                [c] => {
                    let var = lit_var(*c) as usize;
                    let want = !lit_positive(*c);
                    match self.val[var] {
                        None => {
                            self.val[var] = Some(want);
                            self.trail.push(var as u32);
                        }
                        Some(b) if b == want => {}
                        Some(_) => self.root_conflict = true,
                    }
                }
                _ => {}
            }
        }
        if !self.root_conflict && !self.propagate() {
            self.root_conflict = true;
        }
        self.dirty = false;
    }

    /// Assert that literal `c` is satisfied; false if the assignment
    /// already falsifies it (an immediate conflict for the caller).
    fn assert_sat(&mut self, c: u32) -> bool {
        let var = lit_var(c) as usize;
        let want = lit_positive(c);
        match self.val[var] {
            None => {
                self.val[var] = Some(want);
                self.trail.push(var as u32);
                true
            }
            Some(b) => b == want,
        }
    }

    /// Does asserting every literal of `lits` as satisfied propagate to a
    /// conflict (reverse unit propagation)? State is restored afterwards.
    fn refutes(&mut self, lits: &[u32]) -> bool {
        if self.root_conflict {
            return true;
        }
        let mark = self.checkpoint();
        let mut conflict = lits.iter().any(|&c| !self.assert_sat(c));
        if !conflict {
            conflict = !self.propagate();
        }
        self.rollback(mark);
        conflict
    }

    /// Propagate pending trail entries to fixpoint; false on conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let v = self.trail[self.qhead];
            self.qhead += 1;
            let b = self.val[v as usize].expect("trail entries are assigned");
            let cs = lit_code(v, b) as usize;
            let cu = lit_code(v, !b) as usize;
            let mut conflict = false;
            let mut fired: Vec<u32> = Vec::new();
            let watchers = std::mem::take(&mut self.occ[cs]);
            for &ni in &watchers {
                let ni = ni as usize;
                self.sat[ni] += 1;
                if self.live[ni] && self.fal[ni] == 0 {
                    let len = self.lits[ni].len() as u32;
                    if self.sat[ni] == len {
                        conflict = true;
                    } else if self.sat[ni] + 1 == len {
                        fired.push(ni as u32);
                    }
                }
            }
            self.occ[cs] = watchers;
            let falsified = std::mem::take(&mut self.occ[cu]);
            for &ni in &falsified {
                self.fal[ni as usize] += 1;
            }
            self.occ[cu] = falsified;
            if conflict {
                return false;
            }
            for ni in fired {
                let ni = ni as usize;
                if !self.live[ni] || self.fal[ni] != 0 {
                    continue;
                }
                let len = self.lits[ni].len() as u32;
                if self.sat[ni] == len {
                    return false;
                }
                if self.sat[ni] + 1 != len {
                    continue;
                }
                let unassigned = self.lits[ni]
                    .iter()
                    .copied()
                    .find(|&c| self.val[lit_var(c) as usize].is_none());
                // `None` means a pending trail entry already covers this
                // nogood; its counters settle when that entry is processed.
                if let Some(c) = unassigned {
                    self.val[lit_var(c) as usize] = Some(!lit_positive(c));
                    self.trail.push(lit_var(c));
                }
            }
        }
        true
    }

    /// Undo trail entries (and their counter updates) down to `mark`.
    fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail is non-empty");
            let idx = self.trail.len();
            let b = self.val[v as usize].take().expect("entry was assigned");
            if idx < self.qhead {
                let cs = lit_code(v, b) as usize;
                let cu = lit_code(v, !b) as usize;
                let watchers = std::mem::take(&mut self.occ[cs]);
                for &ni in &watchers {
                    self.sat[ni as usize] -= 1;
                }
                self.occ[cs] = watchers;
                let falsified = std::mem::take(&mut self.occ[cu]);
                for &ni in &falsified {
                    self.fal[ni as usize] -= 1;
                }
                self.occ[cu] = falsified;
                self.qhead -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parse;

    fn ground(src: &str) -> GroundProgram {
        Grounder::new().ground(&parse(src).unwrap()).unwrap()
    }

    fn set(program: &GroundProgram, atoms: &[&str]) -> HashSet<AtomId> {
        atoms
            .iter()
            .map(|s| {
                program
                    .atoms()
                    .find(|(_, a)| a.to_string() == *s)
                    .unwrap_or_else(|| panic!("atom {s} not interned"))
                    .0
            })
            .collect()
    }

    #[test]
    fn definite_program_least_model() {
        let g = ground("p. q :- p. r :- q.");
        assert!(is_stable_model(&g, &set(&g, &["p", "q", "r"])));
        assert!(!is_stable_model(&g, &set(&g, &["p", "q"])), "r missing");
        assert!(!is_stable_model(&g, &set(&g, &["p"])), "not closed");
    }

    #[test]
    fn negation_as_failure() {
        let g = ground("{ q }. p :- not q.");
        assert!(
            is_stable_model(&g, &set(&g, &["p"])),
            "q unchosen, p derived"
        );
        assert!(is_stable_model(&g, &set(&g, &["q"])), "q chosen blocks p");
        assert!(!is_stable_model(&g, &set(&g, &["p", "q"])));
        assert!(!is_stable_model(&g, &set(&g, &[])), "p must be derived");
    }

    #[test]
    fn unsupported_atoms_are_rejected() {
        let g = ground("{ a }. b :- a.");
        assert!(is_stable_model(&g, &set(&g, &[])));
        assert!(is_stable_model(&g, &set(&g, &["a", "b"])));
        assert!(
            !is_stable_model(&g, &set(&g, &["b"])),
            "b unsupported without a"
        );
    }

    #[test]
    fn positive_loops_are_unfounded() {
        // Built manually: the grounder would simplify this program away
        // (neither atom is derivable), which is itself correct.
        use crate::ast::Atom;
        use crate::program::GroundRule;
        let mut g = GroundProgram::new();
        let a = g.intern(Atom::prop("a"));
        let b = g.intern(Atom::prop("b"));
        g.rules.push(GroundRule {
            head: GroundHead::Atom(a),
            pos: vec![b],
            neg: vec![],
        });
        g.rules.push(GroundRule {
            head: GroundHead::Atom(b),
            pos: vec![a],
            neg: vec![],
        });
        assert!(is_stable_model(&g, &HashSet::new()));
        assert!(
            !is_stable_model(&g, &[a, b].into_iter().collect()),
            "mutual support is unfounded"
        );
    }

    #[test]
    fn constraints_exclude_models() {
        let g = ground("{ a }. :- a.");
        assert!(is_stable_model(&g, &set(&g, &[])));
        assert!(!is_stable_model(&g, &set(&g, &["a"])));
    }

    #[test]
    fn cardinality_bounds_checked() {
        let g = ground("item(x). item(y). 1 { pick(I) : item(I) } 1.");
        assert!(is_stable_model(
            &g,
            &set(&g, &["item(x)", "item(y)", "pick(x)"])
        ));
        assert!(
            !is_stable_model(&g, &set(&g, &["item(x)", "item(y)"])),
            "lower bound"
        );
        assert!(
            !is_stable_model(&g, &set(&g, &["item(x)", "item(y)", "pick(x)", "pick(y)"])),
            "upper bound"
        );
    }

    #[test]
    fn choice_support_requires_body() {
        let g = ground("{ a } :- t. { t }.");
        assert!(is_stable_model(&g, &set(&g, &[])));
        assert!(is_stable_model(&g, &set(&g, &["t"])));
        assert!(is_stable_model(&g, &set(&g, &["t", "a"])));
        assert!(!is_stable_model(&g, &set(&g, &["a"])), "a needs t");
    }
}

#[cfg(test)]
mod proof_checks {
    use super::*;
    use crate::ground::Grounder;
    use crate::parse;
    use crate::solve::{Lit, SolveOptions, Solver};

    fn ground(src: &str) -> GroundProgram {
        Grounder::new().ground(&parse(src).unwrap()).unwrap()
    }

    fn certify() -> SolveOptions {
        SolveOptions {
            certify: true,
            ..SolveOptions::default()
        }
    }

    /// Run a certified enumeration and return the program with its proof.
    fn solve_proof(src: &str) -> (GroundProgram, ProofLog) {
        let g = ground(src);
        let mut s = Solver::new(&g);
        s.enumerate(&certify()).unwrap();
        let log = s.take_proof().expect("certified call emits a proof");
        drop(s);
        (g, log)
    }

    fn atom(g: &GroundProgram, name: &str) -> AtomId {
        g.atoms()
            .find(|(_, a)| a.to_string() == name)
            .unwrap_or_else(|| panic!("atom {name} not interned"))
            .0
    }

    /// An UNSAT program that needs real search (no contradictory units).
    const XOR_UNSAT: &str = "{ a }. { b }. :- a, b. :- not a, not b. :- a, not b. :- b, not a.";

    #[test]
    fn sat_enumeration_proof_checks() {
        // Tight program, three models.
        let (g, log) = solve_proof("{ a }. { b }. :- a, b.");
        let rep = check_proof(&g, &log).unwrap();
        assert_eq!(rep.models, 3);
        assert_eq!(rep.calls, 1);
        assert_eq!(rep.unsats, 0);
    }

    #[test]
    fn unsat_search_proof_checks() {
        let (g, log) = solve_proof(XOR_UNSAT);
        let rep = check_proof(&g, &log).unwrap();
        assert_eq!(rep.models, 0);
        assert_eq!(rep.unsats, 1);
        assert!(rep.learned > 0, "exhaustion requires learned nogoods");
    }

    #[test]
    fn nontight_proof_checks() {
        // Positive loop: a/b are founded only through c.
        let (g, log) = solve_proof("{ c }. a :- b. b :- a. a :- c.");
        let rep = check_proof(&g, &log).unwrap();
        assert_eq!(rep.models, 2);
    }

    #[test]
    fn cardinality_proof_checks() {
        let (g, log) = solve_proof("item(x). item(y). item(z). 1 { pick(I) : item(I) } 2.");
        let rep = check_proof(&g, &log).unwrap();
        assert_eq!(rep.models, 6);
    }

    #[test]
    fn optimize_proof_checks() {
        let g = ground("{ a }. { b }. :- not a, not b. #minimize { 2 : a; 1 : b }.");
        let mut s = Solver::new(&g);
        let best = s.optimize(&certify()).unwrap().expect("satisfiable");
        assert_eq!(best.cost, vec![(0, 1)]);
        let log = s.take_proof().unwrap();
        let rep = check_proof(&g, &log).unwrap();
        assert!(rep.models >= 1, "every incumbent is audited");
    }

    #[test]
    fn multishot_assumption_proof_checks() {
        let g = ground("{ a }. b :- a. :- a, not b.");
        let a = atom(&g, "a");
        let mut s = Solver::new(&g);
        let r1 = s
            .solve_with_assumptions(&[Lit::pos(a)], &certify())
            .unwrap();
        assert_eq!(r1.models.len(), 1);
        let r2 = s
            .solve_with_assumptions(&[Lit::pos(a), Lit::neg(a)], &certify())
            .unwrap();
        assert!(r2.models.is_empty() && r2.exhausted);
        let r3 = s
            .solve_with_assumptions(&[Lit::neg(a)], &certify())
            .unwrap();
        assert_eq!(r3.models.len(), 1);
        let log = s.take_proof().unwrap();
        let rep = check_proof(&g, &log).unwrap();
        assert_eq!(rep.calls, 3);
        assert_eq!(rep.models, 2);
        assert_eq!(rep.unsats, 1);
    }

    #[test]
    fn serialized_roundtrip_still_checks() {
        let (g, log) = solve_proof(XOR_UNSAT);
        let text = log
            .to_text(Some(XOR_UNSAT), crate::proof::DEFAULT_TEXT_CAP)
            .unwrap();
        let (src, reread) = ProofLog::from_text(&text).unwrap();
        assert_eq!(src.as_deref(), Some(XOR_UNSAT));
        assert_eq!(reread, log);
        check_proof(&g, &reread).unwrap();
    }

    // ----- mutation suite: every corruption class must be rejected -----

    /// Corruption class 1: flip a literal (axiom no longer matches the
    /// completion translation; a flipped well-founded fact contradicts the
    /// fixpoint).
    #[test]
    fn mutation_flipped_literal_is_rejected() {
        let (g, log) = solve_proof("{ a }. b :- a. :- a, not b.");
        let (idx, lits) = log
            .steps
            .iter()
            .enumerate()
            .find_map(|(i, s)| match s {
                ProofStep::Axiom(l) if l.len() >= 2 => Some((i, l.clone())),
                _ => None,
            })
            .expect("a multi-literal axiom exists");
        let mut bad = log.clone();
        let mut flipped = lits;
        flipped[0] ^= 1;
        bad.steps[idx] = ProofStep::Axiom(flipped);
        assert_eq!(
            check_proof(&g, &bad),
            Err(CheckError::UnknownAxiom { step: idx })
        );
    }

    #[test]
    fn mutation_flipped_wfm_fact_is_rejected() {
        let (g, log) = solve_proof("f. g :- f. { a }.");
        let (idx, c) = log
            .steps
            .iter()
            .enumerate()
            .find_map(|(i, s)| match s {
                ProofStep::Wfm(c) => Some((i, *c)),
                _ => None,
            })
            .expect("facts seed well-founded steps");
        let mut bad = log.clone();
        bad.steps[idx] = ProofStep::Wfm(c ^ 1);
        assert_eq!(
            check_proof(&g, &bad),
            Err(CheckError::WfmMismatch { step: idx })
        );
    }

    /// Corruption class 2: drop an antecedent — without the last learned
    /// nogood the unsat verdict is no longer derivable by propagation.
    #[test]
    fn mutation_dropped_antecedent_is_rejected() {
        let (g, log) = solve_proof(XOR_UNSAT);
        let last_learned = log
            .steps
            .iter()
            .rposition(|s| matches!(s, ProofStep::Learned(_)))
            .expect("search learns before exhausting");
        let mut bad = log.clone();
        bad.steps.remove(last_learned);
        assert!(matches!(
            check_proof(&g, &bad),
            Err(CheckError::UnsatNotDerivable { .. }) | Err(CheckError::RupFailed { .. })
        ));
    }

    /// Corruption class 3: delete a used nogood — removing a unit axiom
    /// the terminal conflict rests on must surface when the verdict is
    /// re-derived (and deleting something never added is itself an error).
    #[test]
    fn mutation_deleting_used_nogood_is_rejected() {
        let (g, log) = solve_proof("{ a }. :- a. :- not a.");
        check_proof(&g, &log).unwrap();
        let unsat_at = log
            .steps
            .iter()
            .position(|s| matches!(s, ProofStep::Unsat))
            .expect("contradictory units are unsat");
        let a = atom(&g, "a").0;
        let mut bad = log.clone();
        bad.steps
            .insert(unsat_at, ProofStep::Delete(vec![lit_code(a, false)]));
        assert!(matches!(
            check_proof(&g, &bad),
            Err(CheckError::UnsatNotDerivable { .. })
        ));
        let mut unknown = log.clone();
        unknown.steps.insert(
            unsat_at,
            ProofStep::Delete(vec![lit_code(a, true), lit_code(a, false)]),
        );
        assert_eq!(
            check_proof(&g, &unknown),
            Err(CheckError::DeleteUnknown { step: unsat_at })
        );
    }

    /// Corruption class 4: lower a `#minimize` cost claim.
    #[test]
    fn mutation_lowered_cost_is_rejected() {
        let g = ground("{ a }. :- not a. #minimize { 3 : a }.");
        let mut s = Solver::new(&g);
        let best = s.optimize(&certify()).unwrap().expect("satisfiable");
        assert_eq!(best.cost, vec![(0, 3)]);
        let log = s.take_proof().unwrap();
        check_proof(&g, &log).unwrap();
        let idx = log
            .steps
            .iter()
            .position(|s| matches!(s, ProofStep::Model { .. }))
            .unwrap();
        let mut bad = log.clone();
        if let ProofStep::Model { cost, .. } = &mut bad.steps[idx] {
            cost[0].1 -= 1;
        }
        assert!(matches!(
            check_proof(&g, &bad),
            Err(CheckError::CostMismatch { step, .. }) if step == idx
        ));
    }

    /// Corruption class 5: claim a model that is not stable.
    #[test]
    fn mutation_unstable_model_is_rejected() {
        let (g, log) = solve_proof("{ a }. b :- a.");
        let idx = log
            .steps
            .iter()
            .position(|s| matches!(s, ProofStep::Model { .. }))
            .unwrap();
        let b = atom(&g, "b").0;
        let mut bad = log.clone();
        if let ProofStep::Model { atoms, .. } = &mut bad.steps[idx] {
            // b without a is unsupported in every model.
            if atoms.contains(&b) {
                atoms.retain(|&x| x != b);
            } else {
                atoms.push(b);
            }
        }
        assert!(matches!(
            check_proof(&g, &bad),
            Err(CheckError::ModelNotStable { step }) if step == idx
        ));
    }

    /// Truncated logs certify nothing.
    #[test]
    fn truncated_proof_is_rejected() {
        let (g, log) = solve_proof("{ a }.");
        let mut bad = log;
        bad.truncated = true;
        assert_eq!(check_proof(&g, &bad), Err(CheckError::Truncated));
    }
}
