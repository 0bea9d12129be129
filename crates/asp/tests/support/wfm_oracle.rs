//! The conditional well-founded model computed from scratch: the
//! occurrence index is rebuilt and the alternating fixpoint runs over
//! every rule of the program on each call. This is the computation
//! `cpsrisk_asp::ConditionalWfm::under` restricts to the forward cone of
//! the assumptions that differ from its base; the differential suites pin
//! the two to the same truth vector, counts and inconsistency verdict
//! (compare with [`same`]).

#![allow(dead_code)]

use cpsrisk_asp::analysis::wfm::{Truth, WfmResult};
use cpsrisk_asp::program::{AtomId, CardConstraint, GroundHead, GroundProgram};
use cpsrisk_asp::Lit;

/// The oracle's well-founded model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleWfm {
    /// The 3-valued verdict per atom, in id order.
    pub truth: Vec<Truth>,
    /// Atoms certainly in every stable model.
    pub true_count: usize,
    /// Atoms certainly in no stable model.
    pub false_count: usize,
    /// No stable model satisfies the assumptions.
    pub inconsistent: bool,
}

/// `None` when `got` has the oracle's truth vector, counts and
/// inconsistency verdict; otherwise a description of the first difference.
pub fn same(got: &WfmResult, want: &OracleWfm) -> Option<String> {
    if got.len() != want.truth.len() {
        return Some(format!("{} atoms, want {}", got.len(), want.truth.len()));
    }
    for (i, &t) in want.truth.iter().enumerate() {
        let v = got.value(AtomId(i as u32));
        if v != t {
            return Some(format!("atom {i}: {v:?}, want {t:?}"));
        }
    }
    let got_tuple = (got.true_count, got.false_count, got.inconsistent);
    let want_tuple = (want.true_count, want.false_count, want.inconsistent);
    (got_tuple != want_tuple)
        .then(|| format!("(true, false, inconsistent) = {got_tuple:?}, want {want_tuple:?}"))
}

#[must_use]
pub fn well_founded_with(program: &GroundProgram, assumptions: &[Lit]) -> OracleWfm {
    let n_atoms = program.atom_count();
    let rules = &program.rules;

    // CSR positive-occurrence lists, shared by every half-step.
    let mut off = vec![0u32; n_atoms + 1];
    for r in rules {
        for &p in &r.pos {
            off[p.index() + 1] += 1;
        }
    }
    for i in 0..n_atoms {
        off[i + 1] += off[i];
    }
    let mut occ = vec![0u32; off[n_atoms] as usize];
    let mut cursor = off.clone();
    for (ri, r) in rules.iter().enumerate() {
        for &p in &r.pos {
            occ[cursor[p.index()] as usize] = ri as u32;
            cursor[p.index()] += 1;
        }
    }

    let mut assumed_true = vec![false; n_atoms];
    let mut assumed_false = vec![false; n_atoms];
    let mut contradictory = false;
    for l in assumptions {
        let i = l.atom.index();
        if l.positive {
            contradictory |= assumed_false[i];
            assumed_true[i] = true;
            assumed_false[i] = false;
        } else {
            contradictory |= assumed_true[i];
            assumed_false[i] = true;
            assumed_true[i] = false;
        }
    }

    // One monotone half-step: the least set closed under the rules, where
    // `certain` selects the underestimate (choice heads never fire; `not
    // n` holds iff n is outside `opposite`, the current possible set) or
    // the overestimate (choice heads fire; `not n` holds iff n is outside
    // `opposite`, the current certain set). Assumed-true atoms always
    // join; assumed-false atoms never fire as heads in the overestimate —
    // in the underestimate they still derive, so a forced assumed-false
    // atom is caught as an inconsistency afterwards.
    let gamma = |certain: bool, opposite: &[bool]| -> Vec<bool> {
        let mut derived = vec![false; n_atoms];
        let mut missing: Vec<u32> = rules.iter().map(|r| r.pos.len() as u32).collect();
        let mut stack: Vec<u32> = Vec::new();
        let push = |a: usize, derived: &mut Vec<bool>, stack: &mut Vec<u32>| {
            if !derived[a] {
                derived[a] = true;
                stack.push(a as u32);
            }
        };
        for (a, &t) in assumed_true.iter().enumerate() {
            if t {
                push(a, &mut derived, &mut stack);
            }
        }
        let fire = |ri: usize, derived: &mut Vec<bool>, stack: &mut Vec<u32>| {
            let r = &rules[ri];
            let h = match r.head {
                GroundHead::Atom(h) => h,
                GroundHead::Choice(h) if !certain => h,
                _ => return,
            };
            if !certain && assumed_false[h.index()] {
                return;
            }
            if r.neg.iter().any(|n| opposite[n.index()]) {
                return;
            }
            push(h.index(), derived, stack);
        };
        for ri in (0..rules.len()).filter(|&ri| missing[ri] == 0) {
            fire(ri, &mut derived, &mut stack);
        }
        while let Some(a) = stack.pop() {
            for i in off[a as usize]..off[a as usize + 1] {
                let ri = occ[i as usize] as usize;
                missing[ri] -= 1;
                if missing[ri] == 0 {
                    fire(ri, &mut derived, &mut stack);
                }
            }
        }
        derived
    };

    // Alternate: T_0 = assumed-true; P = Γ_over(T); T' = Γ_under(P); the
    // under-approximation grows monotonically, so the loop terminates in
    // at most `n_atoms + 1` rounds.
    let mut certain = assumed_true.clone();
    let mut possible;
    loop {
        possible = gamma(false, &certain);
        let next = gamma(true, &possible);
        if next == certain {
            break;
        }
        certain = next;
    }

    let mut truth = vec![Truth::Undefined; n_atoms];
    let mut true_count = 0;
    let mut false_count = 0;
    for i in 0..n_atoms {
        if certain[i] {
            truth[i] = Truth::True;
            true_count += 1;
        } else if !possible[i] {
            truth[i] = Truth::False;
            false_count += 1;
        }
    }

    // An assumed-false atom the certain derivation forces true means no
    // stable model satisfies the assumptions.
    let mut inconsistent = contradictory || (0..n_atoms).any(|i| assumed_false[i] && certain[i]);
    // A constraint whose body is certainly satisfied (positives certainly
    // true, negatives certainly false) rules out every stable model.
    let certainly = |pos: &[AtomId], neg: &[AtomId]| {
        pos.iter().all(|p| certain[p.index()]) && neg.iter().all(|n| !possible[n.index()])
    };
    inconsistent |= rules
        .iter()
        .any(|r| matches!(r.head, GroundHead::None) && certainly(&r.pos, &r.neg));
    inconsistent |= program.cards.iter().any(|c| {
        card_refuted(c, &certainly, |id| {
            (certain[id.index()], possible[id.index()])
        })
    });

    OracleWfm {
        truth,
        true_count,
        false_count,
        inconsistent,
    }
}

/// Conservative cardinality refutation: with the body certainly satisfied,
/// the certainly-held element count already exceeds the upper bound, or
/// even counting every possibly-held element cannot reach the lower bound.
fn card_refuted(
    c: &CardConstraint,
    certainly: &impl Fn(&[AtomId], &[AtomId]) -> bool,
    value: impl Fn(AtomId) -> (bool, bool),
) -> bool {
    if !certainly(&c.pos, &c.neg) {
        return false;
    }
    let mut held_certain = 0u32;
    let mut held_possible = 0u32;
    for e in &c.elements {
        let (atom_certain, atom_possible) = value(e.atom);
        let guard_certain = certainly(&e.guard_pos, &e.guard_neg);
        // The guard possibly holds unless a positive guard is certainly
        // false or a negative guard certainly true.
        let guard_possible =
            e.guard_pos.iter().all(|p| value(*p).1) && e.guard_neg.iter().all(|n| !value(*n).0);
        if atom_certain && guard_certain {
            held_certain += 1;
        }
        if atom_possible && guard_possible {
            held_possible += 1;
        }
    }
    held_certain > c.upper || held_possible < c.lower
}
