//! Well-founded model analysis — a polynomial-time static verdict engine.
//!
//! [`well_founded`] computes van Gelder's alternating fixpoint over a
//! [`GroundProgram`]: the certainly-true set `T` grows and the
//! possibly-true set `P` shrinks until both stabilize, yielding a sound
//! 3-valued approximation of **every** stable model — an atom reported
//! [`Truth::True`] is in every answer set, one reported [`Truth::False`]
//! is in none, and only [`Truth::Undefined`] atoms need search. Choice
//! atoms (and therefore assumables, which are choice-supported facts) are
//! never certainly derived, so nondeterminism surfaces as `Undefined`
//! rather than as unsoundness.
//!
//! [`well_founded_with`] is the assumption-aware conditional variant: the
//! assumed literals are pinned before the fixpoint, so the result
//! approximates the stable models *satisfying the assumptions*. When the
//! conditional WFM is total and consistent, its true set **is** the unique
//! answer set under those assumptions — the static fast path the EPA
//! scenario sweeps use to answer verdict queries without search.
//!
//! # One kernel, restricted to a region
//!
//! The fixpoint runs over a *region*: a set of atoms whose complement is
//! closed backward, so that every rule defining an atom outside the region
//! reads only atoms outside it. Only the rules that define region atoms
//! take part; atoms outside keep the 3-valued values they already have.
//! Each half-step is a least-model computation over a reduct, reusing the
//! semi-naive worklist scheme of
//! [`check::least_model_of_reduct`](crate::check::least_model_of_reduct):
//! CSR positive-occurrence lists, per-rule missing counters, and a
//! derivation stack — every body literal of a region rule is visited O(1)
//! times per half-step, and the alternation converges in at most
//! `region + 1` rounds. When no rule of the region reads a region atom
//! negatively, the first round is the fixpoint and the second, confirming
//! round is skipped: the overestimate then reads the underestimate only
//! outside the region, where it is settled, so a second round would repeat
//! the first. Every outcome query of the `sweep` benchmark takes this exit.
//!
//! [`well_founded_with`] is the case where every atom is in the region.
//! [`ConditionalWfm`] is the resident form for many queries against one
//! program: it builds the occurrence and reader indexes once, solves the
//! whole program under a *base* assumption set, and answers each query
//! from there:
//!
//! * the **roots** are the atoms whose assumption status differs from the
//!   base;
//! * the **region** is their forward closure through positive and negative
//!   body occurrences to rule heads;
//! * the kernel runs over the region, starting from the base model outside
//!   it;
//! * only the constraints and cardinality bounds that read a region atom
//!   are checked again; the others keep their base verdict.
//!
//! This is exact because the well-founded semantics is relevant. The
//! complement of a forward-closed set is closed backward, and the
//! assumptions agree with the base on it, so the alternating fixpoint
//! restricted to the complement is the base's, step for step. Starting the
//! region's iteration from the base values outside it then reaches the
//! same least fixpoint: the start lies below it, and the alternation is
//! monotone. The answer is the truth vector, counts and inconsistency
//! verdict of `well_founded_with(program, assumptions)`.
//!
//! A query runs in a [`WfmWorkspace`]: the base model's vectors, which the
//! query overwrites in its region only and the next query restores in that
//! region only. [`under_changes`](ConditionalWfm::under_changes) takes the
//! query as its changes to the base assumptions, so finding the roots costs
//! as much as the changes; with a reused workspace the query then costs the
//! rules that define the region and nothing in proportion to the program.
//! [`under`](ConditionalWfm::under) takes any assumption set and runs the
//! same query on a fresh workspace.
//!
//! # Composing queries from their footprints
//!
//! A query whose change set is the union of other queries' change sets
//! can often be answered from those queries' models without a fixpoint.
//! [`ConditionalWfm::footprint`] keeps what the rule below reads of one
//! query's model, and [`Footprint::composes_with`] decides it for a pair.
//! A query qualifies when it is *statically decided* (its model is total
//! and consistent) and *upward* (every literal of its change set is
//! positive, so each root goes from false or free to true). For such a
//! query `a`, let `C_a` be its region, `T_a` its true atoms, and `N_a`
//! the atoms of `T_a` that the base model does not hold true. The query is
//! *monotone* when no rule that defines an atom reads an atom of `C_a`
//! negatively: that is the one-round exit above. Its *joins* `J_a` are
//! the rules, integrity constraints and cardinality constraints that read
//! an atom of `N_a` positively but do not fire under `a` (some positive
//! body atom is outside `T_a`); every cardinality constraint that reads an
//! atom of `N_a` anywhere counts as a join.
//!
//! A set of qualifying queries composes when every pair `a`, `b` of it
//! satisfies one of:
//!
//! * **(i)** both are monotone and `J_a ∩ J_b = ∅`. The model of the union
//!   is then the base model with `N_a ∪ N_b` set true.
//! * **(ii)** neither is monotone, `C_a ∩ C_b = ∅`, and no integrity or
//!   cardinality constraint reads atoms of both regions. Each region then
//!   keeps the values of its own query, and the rest the base's.
//!
//! A monotone and a non-monotone query do not compose: only non-monotone
//! footprints keep their region. In both cases the union is total and
//! consistent, and the model outside the changed atoms is the base model.
//!
//! *Why (i) is exact.* Let `U = T_a ∪ T_b`, and `T_ab`, `P_ab` the certain
//! and possible sets of the union. A rule that defines an atom of
//! `C_a ∪ C_b` and reads `x ∈ C_b` negatively defines an atom of `C_b`,
//! since regions are forward closed, so it would make `b` non-monotone.
//! Hence the union's region takes the one-round exit too, and its rules
//! read negatively only atoms outside it, at their base values. Both half
//! steps are then least models of positive programs, monotone in the pins;
//! the union's pins lie above each query's, which lie above the base's, so
//! `T_base ⊆ T_a ⊆ T_ab` and likewise for `b`: `U ⊆ T_ab`. For the
//! converse, `U` is closed under the union's underestimate step. Its
//! assumed-true atoms are assumed true by the base, `a` or `b`. Take a
//! rule with head `h` and positive body in `U` whose negative body is
//! outside the base's possible set. If its positive body lies in `T_a`,
//! then `h ∈ T_a` (when `h ∈ C_a`, from `a`'s fixpoint; otherwise its body
//! lies outside `C_a`, where `T_a` is the base's, and the base fires it).
//! The same holds for `T_b`. Otherwise it reads an atom of `T_b \ T_a ⊆
//! N_b` and one of `T_a \ T_b ⊆ N_a` and fires under neither: it is in
//! `J_a ∩ J_b`. So `T_ab = U`. The overestimate takes the same argument
//! with choice heads firing and assumed-false heads blocked (an atom the
//! union unblocks is a root, true in `T_a` or `T_b`); since `a` and `b`
//! are total, `P_a = T_a` and `P_b = T_b`, so `P_ab = U` and the union is
//! total. An assumed-false atom of `U` lies in `T_a` or `T_b`, where it is
//! assumed false as well, so one of them would be inconsistent. An
//! integrity constraint certainly satisfied by `U` has its positive body
//! in `U` and its negative body outside it: if the positive body lay in
//! `T_a`, `a` would violate it; so, as for rules, it is a shared join. A
//! cardinality constraint that reads no atom of `N_b` sees in `U` exactly
//! what it sees in `T_a`, where it holds; one that reads atoms of both is a
//! shared join. Both change sets are positive, so the union pins no atom
//! both ways, and a contradictory pair of the base is overridden by `a`
//! already. For `k` queries the same argument holds with `U` the union
//! of all `T_i`: a rule with positive body in `U` but in no `T_i` reads an
//! atom of some `N_i`, so it is in `J_i`, and some atom of its body outside
//! `T_i`, which lies in some `N_j`, so it is in `J_j` too.
//!
//! *Why (ii) is exact.* A rule that defines an atom of `C_a` and reads an
//! atom of `C_b` would put its head in `C_b`, so the union's fixpoint
//! splits into the two regions' fixpoints, each reading only base values
//! outside itself: this is the relevance argument again. A constraint
//! reads atoms of at most one region, so its verdict is that region's
//! query's, or the base's; pins and assumed-false atoms split the same
//! way.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::program::{AtomId, CardConstraint, GroundHead, GroundProgram, GroundRule};
use crate::solve::Lit;

/// Three-valued truth under the well-founded semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// In every stable model.
    True,
    /// In no stable model.
    False,
    /// Not decided by the polynomial approximation.
    Undefined,
}

/// The well-founded model of a ground program (possibly conditioned on
/// assumptions), as produced by [`well_founded`] / [`well_founded_with`].
#[derive(Debug, Clone)]
pub struct WfmResult {
    truth: Vec<Truth>,
    /// Atoms certainly in every stable model.
    pub true_count: usize,
    /// Atoms certainly in no stable model.
    pub false_count: usize,
    /// The approximation proves there is no stable model at all: an
    /// integrity constraint (or cardinality bound, or an assumed-false
    /// atom) is violated by the certain part alone.
    pub inconsistent: bool,
}

impl WfmResult {
    /// The 3-valued verdict for one atom.
    #[must_use]
    pub fn value(&self, id: AtomId) -> Truth {
        self.truth[id.index()]
    }

    /// Is the atom certainly in every stable model?
    #[must_use]
    pub fn is_true(&self, id: AtomId) -> bool {
        self.truth[id.index()] == Truth::True
    }

    /// Is the atom certainly in no stable model?
    #[must_use]
    pub fn is_false(&self, id: AtomId) -> bool {
        self.truth[id.index()] == Truth::False
    }

    /// Number of atoms in the program.
    #[must_use]
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// True when the program has no atoms at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Atoms left undefined by the approximation.
    #[must_use]
    pub fn undefined_count(&self) -> usize {
        self.len() - self.true_count - self.false_count
    }

    /// Every atom is decided: the WFM is 2-valued. A total, consistent
    /// WFM's true set is the unique stable model.
    #[must_use]
    pub fn total(&self) -> bool {
        self.undefined_count() == 0
    }

    /// Fraction of atoms decided (`1.0` for the empty program).
    #[must_use]
    pub fn decided_fraction(&self) -> f64 {
        if self.truth.is_empty() {
            return 1.0;
        }
        (self.true_count + self.false_count) as f64 / self.truth.len() as f64
    }

    /// The certainly-true atoms, in id order.
    pub fn true_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.truth
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == Truth::True)
            .map(|(i, _)| AtomId(i as u32))
    }

    /// The certainly-false atoms, in id order.
    pub fn false_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.truth
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == Truth::False)
            .map(|(i, _)| AtomId(i as u32))
    }
}

/// Compressed adjacency lists: the entries of key `k` are
/// `items[off[k]..off[k + 1]]`.
#[derive(Debug)]
struct Csr {
    off: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Lists over `keys` keys from the `(key, item)` pairs that `pairs`
    /// yields (it is called twice: once to count, once to fill). Each key
    /// lists its items in the order they were yielded.
    fn new<I: Iterator<Item = (usize, u32)>>(keys: usize, pairs: impl Fn() -> I) -> Self {
        let mut off = vec![0u32; keys + 1];
        for (k, _) in pairs() {
            off[k + 1] += 1;
        }
        for k in 0..keys {
            off[k + 1] += off[k];
        }
        let mut items = vec![0u32; off[keys] as usize];
        let mut cursor = off.clone();
        for (k, item) in pairs() {
            items[cursor[k] as usize] = item;
            cursor[k] += 1;
        }
        Csr { off, items }
    }

    fn get(&self, key: usize) -> &[u32] {
        &self.items[self.off[key] as usize..self.off[key + 1] as usize]
    }
}

/// The head a rule derives; `None` for an integrity constraint.
fn head(r: &GroundRule) -> Option<AtomId> {
    match r.head {
        GroundHead::Atom(h) | GroundHead::Choice(h) => Some(h),
        GroundHead::None => None,
    }
}

/// Every atom a cardinality constraint reads: its body, its elements and
/// their guards.
fn card_atoms(c: &CardConstraint) -> impl Iterator<Item = AtomId> + '_ {
    c.pos
        .iter()
        .chain(&c.neg)
        .copied()
        .chain(c.elements.iter().flat_map(|e| {
            std::iter::once(e.atom).chain(e.guard_pos.iter().chain(&e.guard_neg).copied())
        }))
}

/// The positive body occurrences of every atom in the rules that derive a
/// head: the worklist index of each half-step.
fn positive_occurrences(program: &GroundProgram) -> Csr {
    Csr::new(program.atom_count(), || {
        program
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| head(r).is_some())
            .flat_map(|(ri, r)| r.pos.iter().map(move |p| (p.index(), ri as u32)))
    })
}

/// The assumption status of one atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pin {
    Free,
    True,
    False,
}

/// Pin the atom of `l` to its polarity, replacing its pin; returns whether
/// it was pinned to the opposite polarity before.
fn pin(pins: &mut [Pin], l: Lit) -> bool {
    let want = if l.positive { Pin::True } else { Pin::False };
    let old = std::mem::replace(&mut pins[l.atom.index()], want);
    old != Pin::Free && old != want
}

/// The pin of every atom under `assumptions`, where later assumptions on
/// the same atom win, and the atoms that a directly contradictory pair
/// names.
fn pins_of(n_atoms: usize, assumptions: &[Lit]) -> (Vec<Pin>, Vec<u32>) {
    let mut pins = vec![Pin::Free; n_atoms];
    let mut contradicted = Vec::new();
    for &l in assumptions {
        if pin(&mut pins, l) {
            contradicted.push(l.atom.0);
        }
    }
    (pins, contradicted)
}

/// The 3-valued verdict of an atom from its membership in the certain and
/// the possible set.
fn truth(certain: bool, possible: bool) -> Truth {
    if certain {
        Truth::True
    } else if possible {
        Truth::Undefined
    } else {
        Truth::False
    }
}

/// The vectors the kernel works in. Outside the region they hold settled
/// values, which the kernel reads and never writes.
#[derive(Debug, Clone)]
struct Buffers {
    /// The certain set (the underestimate).
    certain: Vec<bool>,
    /// The next certain set; equal to `certain` outside the region.
    next: Vec<bool>,
    /// The possible set (the overestimate).
    possible: Vec<bool>,
    /// Per rule, how many of its positive body atoms are not derived yet.
    missing: Vec<u32>,
    /// Derived atoms whose occurrences are not visited yet.
    stack: Vec<u32>,
}

/// The alternating fixpoint over `region`, a set of atoms whose complement
/// is closed under the rules that define it. `rules` are exactly the rules
/// whose heads lie in `region`. Atoms outside the region keep the values
/// the buffers already hold, which must be the fixpoint of the complement;
/// on return `certain` and `possible` hold the fixpoint on the region too.
///
/// T_0 = the assumed-true atoms; P = Γ_over(T); T' = Γ_under(P). The
/// under-approximation grows monotonically, so the loop terminates in at
/// most `region.len() + 1` rounds. `one_round` states that no rule of the
/// region reads a region atom negatively: the first round is then the
/// fixpoint (see below).
fn alternate(
    program: &GroundProgram,
    occ: &Csr,
    pins: &[Pin],
    region: &[u32],
    rules: &[u32],
    one_round: bool,
    buffers: &mut Buffers,
) {
    let Buffers {
        certain,
        next,
        possible,
        missing,
        stack,
    } = buffers;
    for &a in region {
        certain[a as usize] = pins[a as usize] == Pin::True;
    }
    // Positive body atoms outside the region hold their settled value in
    // each half-step's output; with no atom outside, all of them are
    // missing at the start.
    let whole = region.len() == certain.len();
    // One monotone half-step over the region: the least set closed under
    // its rules, where `certain_mode` selects the underestimate (choice
    // heads never fire; `not n` holds iff n is outside `opposite`, the
    // current possible set) or the overestimate (choice heads fire; `not
    // n` holds iff n is outside `opposite`, the current certain set).
    // Assumed-true atoms always join; assumed-false atoms never fire as
    // heads in the overestimate — in the underestimate they still derive,
    // so a forced assumed-false atom is caught as an inconsistency
    // afterwards. Atoms outside the region are read, never written. Returns
    // the number of region atoms derived.
    let mut half_step = |certain_mode: bool, opposite: &[bool], out: &mut [bool]| {
        for &a in region {
            out[a as usize] = false;
        }
        for &ri in rules {
            let pos = &program.rules[ri as usize].pos;
            missing[ri as usize] = if whole {
                pos.len() as u32
            } else {
                pos.iter().filter(|p| !out[p.index()]).count() as u32
            };
        }
        stack.clear();
        let mut derived = 0usize;
        for &a in region {
            if pins[a as usize] == Pin::True {
                out[a as usize] = true;
                stack.push(a);
            }
        }
        let fire = |ri: usize, out: &mut [bool], stack: &mut Vec<u32>| {
            let r = &program.rules[ri];
            let h = match r.head {
                GroundHead::Atom(h) => h,
                GroundHead::Choice(h) if !certain_mode => h,
                _ => return,
            };
            if !certain_mode && pins[h.index()] == Pin::False {
                return;
            }
            if r.neg.iter().any(|n| opposite[n.index()]) {
                return;
            }
            if !out[h.index()] {
                out[h.index()] = true;
                stack.push(h.0);
            }
        };
        for &ri in rules {
            if missing[ri as usize] == 0 {
                fire(ri as usize, out, stack);
            }
        }
        while let Some(a) = stack.pop() {
            derived += 1;
            for &ri in occ.get(a as usize) {
                let m = &mut missing[ri as usize];
                *m -= 1;
                if *m == 0 {
                    fire(ri as usize, out, stack);
                }
            }
        }
        derived
    };
    // The certain set only grows, so it is stable once a round derives no
    // more region atoms than the last. Under `one_round` the overestimate
    // reads the certain set only outside the region, where it is settled,
    // so a second round would compute the same possible set and from it the
    // same certain set: the first round's result is the fixpoint. Debug
    // builds run the second round anyway and check that it changes nothing.
    let mut held = region.iter().filter(|&&a| certain[a as usize]).count();
    let mut first_possible = 0usize;
    for round in 0.. {
        let possible_count = half_step(false, certain, possible);
        let derived = half_step(true, possible, next);
        if round == 0 {
            first_possible = possible_count;
        } else {
            debug_assert!(
                !one_round || (possible_count == first_possible && derived == held),
                "the round after a one-round exit changed the model"
            );
        }
        if derived == held {
            break;
        }
        held = derived;
        std::mem::swap(certain, next);
        if one_round && !cfg!(debug_assertions) {
            break;
        }
    }
}

/// None of `atoms` is marked in `region`.
fn outside(region: &[bool], mut atoms: impl Iterator<Item = AtomId>) -> bool {
    atoms.all(|x| !region[x.index()])
}

/// A body is certainly satisfied: its positives are certainly true and its
/// negatives certainly false.
fn certainly(pos: &[AtomId], neg: &[AtomId], certain: &[bool], possible: &[bool]) -> bool {
    pos.iter().all(|p| certain[p.index()]) && neg.iter().all(|n| !possible[n.index()])
}

/// A cardinality constraint the certain part alone already refutes.
fn card_violated(c: &CardConstraint, certain: &[bool], possible: &[bool]) -> bool {
    card_refuted(
        c,
        &|pos: &[AtomId], neg: &[AtomId]| certainly(pos, neg, certain, possible),
        |id| (certain[id.index()], possible[id.index()]),
    )
}

/// Everything that refutes the assumptions of a solved program, by index.
#[derive(Debug)]
struct Refutations {
    /// Assumed-false atoms the certain derivation forces true.
    forced: Vec<u32>,
    /// Integrity constraints whose body is certainly satisfied.
    constraints: Vec<u32>,
    /// Cardinality constraints the certain part refutes.
    cards: Vec<u32>,
}

impl Refutations {
    fn of(program: &GroundProgram, pins: &[Pin], certain: &[bool], possible: &[bool]) -> Self {
        Refutations {
            forced: (0..program.atom_count())
                .filter(|&a| pins[a] == Pin::False && certain[a])
                .map(|a| a as u32)
                .collect(),
            constraints: (0..program.rules.len())
                .filter(|&ri| {
                    let r = &program.rules[ri];
                    head(r).is_none() && certainly(&r.pos, &r.neg, certain, possible)
                })
                .map(|ri| ri as u32)
                .collect(),
            cards: (0..program.cards.len())
                .filter(|&ci| card_violated(&program.cards[ci], certain, possible))
                .map(|ci| ci as u32)
                .collect(),
        }
    }

    fn any(&self) -> bool {
        !(self.forced.is_empty() && self.constraints.is_empty() && self.cards.is_empty())
    }
}

/// The kernel with every atom in the region: the fixpoint vectors, the
/// model, and what refutes it. `contradictory` states that the assumptions
/// behind `pins` hold a directly contradictory pair.
fn solve_all(
    program: &GroundProgram,
    occ: &Csr,
    pins: &[Pin],
    contradictory: bool,
) -> (Buffers, WfmResult, Refutations) {
    let n_atoms = program.atom_count();
    let region: Vec<u32> = (0..n_atoms as u32).collect();
    let rules: Vec<u32> = (0..program.rules.len() as u32)
        .filter(|&ri| head(&program.rules[ri as usize]).is_some())
        .collect();
    let mut buffers = Buffers {
        certain: vec![false; n_atoms],
        next: vec![false; n_atoms],
        possible: vec![false; n_atoms],
        missing: vec![0; program.rules.len()],
        stack: Vec::new(),
    };
    alternate(program, occ, pins, &region, &rules, false, &mut buffers);
    let (certain, possible) = (&buffers.certain, &buffers.possible);
    let truth: Vec<Truth> = (0..n_atoms)
        .map(|a| truth(certain[a], possible[a]))
        .collect();
    let count = |t: Truth| truth.iter().filter(|&&x| x == t).count();
    let refuted = Refutations::of(program, pins, certain, possible);
    let wfm = WfmResult {
        true_count: count(Truth::True),
        false_count: count(Truth::False),
        inconsistent: contradictory || refuted.any(),
        truth,
    };
    (buffers, wfm, refuted)
}

/// The unconditional well-founded model: no atoms pinned, choice atoms and
/// assumables free.
#[must_use]
pub fn well_founded(program: &GroundProgram) -> WfmResult {
    well_founded_with(program, &[])
}

/// The conditional well-founded model under `assumptions`: assumed-true
/// atoms join the certain set as facts, assumed-false atoms are removed
/// from every derivation. Sound w.r.t. the stable models that satisfy the
/// assumptions; `inconsistent` is set when the certain part alone
/// contradicts a constraint, a cardinality bound, or an assumed-false atom
/// (no such model exists). Later assumptions on the same atom win, and a
/// directly contradictory pair marks the result inconsistent.
///
/// Each call indexes and solves the whole program; many queries against one
/// program are cheaper through [`ConditionalWfm`].
#[must_use]
pub fn well_founded_with(program: &GroundProgram, assumptions: &[Lit]) -> WfmResult {
    let (pins, contradicted) = pins_of(program.atom_count(), assumptions);
    let occ = positive_occurrences(program);
    solve_all(program, &occ, &pins, !contradicted.is_empty()).1
}

/// The conditional well-founded model of one program, resident for many
/// queries: the indexes are built and the model under a *base* assumption
/// set is solved once, and each query recomputes only the forward cone of
/// the atoms whose assumptions differ from the base (see the
/// [module docs](self)).
///
/// [`under`](Self::under) answers any assumption set with a
/// [`WfmResult`]. [`under_changes`](Self::under_changes) answers a set
/// given as its changes from the base, in a [`WfmWorkspace`] reused from
/// query to query, at the cost of the region alone.
///
/// `P` is how the program is held: a reference, or an owner such as an
/// `Arc<GroundProgram>` when the model lives next to the program.
#[derive(Debug)]
pub struct ConditionalWfm<P> {
    program: P,
    /// Tells this model's workspaces from those of other models.
    id: u64,
    /// Positive body occurrences in the rules that derive a head.
    occ: Csr,
    /// Per atom, the rules whose head it is.
    defs: Csr,
    /// Per atom, the heads of the rules that read it, positively or not.
    readers: Csr,
    /// Per atom, the integrity constraints that read it.
    constraints: Csr,
    /// Per atom, the cardinality constraints that read it.
    cards: Csr,
    /// Per atom, whether a rule that derives a head reads it negatively.
    read_negatively: Vec<bool>,
    /// The base assumptions: the pin of every atom, the atoms they name,
    /// and the atoms a directly contradictory pair of them names.
    pins: Vec<Pin>,
    assumed: Vec<u32>,
    contradicted: Vec<u32>,
    /// The base fixpoint.
    certain: Vec<bool>,
    possible: Vec<bool>,
    base: WfmResult,
    refuted: Refutations,
}

/// The buffers of [`ConditionalWfm`] queries, reused from query to query:
/// the base model's pins and fixpoint vectors, region marks and work lists.
/// A query writes only the entries of its region and of the atoms it pins,
/// and the next query restores just those, so a query neither allocates
/// nor clears anything in proportion to the program. Made by
/// [`ConditionalWfm::workspace`]; it serves only the model that made it.
#[derive(Debug, Clone)]
pub struct WfmWorkspace {
    /// The [`ConditionalWfm`] it serves.
    owner: u64,
    /// The pin of every atom: the base's, except at `pinned`.
    pins: Vec<Pin>,
    /// The atoms the last query pinned, each once, and their marks.
    pinned: Vec<u32>,
    touched: Vec<bool>,
    /// The last query's region, and its marks.
    region: Vec<u32>,
    in_region: Vec<bool>,
    /// The rules that define the region.
    rules: Vec<u32>,
    /// The fixpoint vectors: the base's outside the region.
    kernel: Buffers,
    true_count: usize,
    false_count: usize,
    inconsistent: bool,
}

impl WfmWorkspace {
    /// Pin `a` afresh for this query: free unless the query pins it.
    fn touch(&mut self, a: u32) {
        if !self.touched[a as usize] {
            self.touched[a as usize] = true;
            self.pinned.push(a);
            self.pins[a as usize] = Pin::Free;
        }
    }

    /// Mark `a` as a region atom.
    fn enter(&mut self, a: u32) {
        if !self.in_region[a as usize] {
            self.in_region[a as usize] = true;
            self.region.push(a);
        }
    }
}

/// The conditional well-founded model a [`WfmWorkspace`] holds after a
/// query of [`ConditionalWfm::under_changes`]: the base model outside the
/// query's region, the query's fixpoint inside it.
#[derive(Debug, Clone, Copy)]
pub struct RegionModel<'w> {
    ws: &'w WfmWorkspace,
}

impl RegionModel<'_> {
    /// The 3-valued verdict for one atom.
    #[must_use]
    pub fn value(&self, id: AtomId) -> Truth {
        let k = &self.ws.kernel;
        truth(k.certain[id.index()], k.possible[id.index()])
    }

    /// Is the atom certainly in every stable model?
    #[must_use]
    pub fn is_true(&self, id: AtomId) -> bool {
        self.ws.kernel.certain[id.index()]
    }

    /// The approximation proves that no stable model satisfies the query's
    /// assumptions (see [`WfmResult::inconsistent`]).
    #[must_use]
    pub fn inconsistent(&self) -> bool {
        self.ws.inconsistent
    }

    /// Every atom is decided.
    #[must_use]
    pub fn total(&self) -> bool {
        self.ws.true_count + self.ws.false_count == self.ws.pins.len()
    }

    /// The query's region: every atom whose value can differ from the base
    /// model's, each once. Outside it the model is the base model.
    pub fn region(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.ws.region.iter().map(|&a| AtomId(a))
    }

    /// The whole model, as [`ConditionalWfm::under`] returns it.
    #[must_use]
    pub fn to_result(&self) -> WfmResult {
        let k = &self.ws.kernel;
        WfmResult {
            truth: (k.certain.iter().zip(&k.possible))
                .map(|(&c, &p)| truth(c, p))
                .collect(),
            true_count: self.ws.true_count,
            false_count: self.ws.false_count,
            inconsistent: self.ws.inconsistent,
        }
    }
}

/// What composing one query with others reads of its model (see the
/// [module docs](self)): whether it is monotone and, if so, its joins, or
/// else its region and the constraints that read it. Made by
/// [`ConditionalWfm::footprint`].
#[derive(Debug, Clone)]
pub struct Footprint {
    /// The [`ConditionalWfm`] of the query.
    owner: u64,
    shape: Shape,
}

/// What a [`Footprint`] keeps. A rule or integrity constraint is named by
/// its index, a cardinality constraint by its index after the rules.
#[derive(Debug, Clone)]
enum Shape {
    /// No rule that defines an atom reads a region atom negatively: the
    /// joins, sorted.
    Monotone { joins: Box<[u32]> },
    /// Otherwise: the region, sorted, and the integrity and cardinality
    /// constraints that read one of its atoms, sorted.
    Cone {
        region: Box<[u32]>,
        checks: Box<[u32]>,
    },
}

/// Two sorted lists share no item.
fn disjoint(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// The items, sorted and each once.
fn sorted(mut items: Vec<u32>) -> Box<[u32]> {
    items.sort_unstable();
    items.dedup();
    items.into_boxed_slice()
}

impl Footprint {
    /// Do the two queries compose, by condition (i) or (ii) of the
    /// [module docs](self)? A set of queries composes when every pair of
    /// it does: the model under the union of their change sets is then the
    /// base model with each query's changed atoms set to their value in
    /// its own model, and it is total and consistent.
    ///
    /// # Panics
    ///
    /// If the footprints come from different models.
    #[must_use]
    pub fn composes_with(&self, other: &Footprint) -> bool {
        assert_eq!(
            self.owner, other.owner,
            "footprints of different models do not compose"
        );
        match (&self.shape, &other.shape) {
            (Shape::Monotone { joins: a }, Shape::Monotone { joins: b }) => disjoint(a, b),
            (
                Shape::Cone { region, checks },
                Shape::Cone {
                    region: other_region,
                    checks: other_checks,
                },
            ) => disjoint(region, other_region) && disjoint(checks, other_checks),
            _ => false,
        }
    }
}

impl<P: Borrow<GroundProgram>> ConditionalWfm<P> {
    /// Index `program` and solve it under the `base` assumptions.
    #[must_use]
    pub fn new(program: P, base: &[Lit]) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let g: &GroundProgram = program.borrow();
        let n_atoms = g.atom_count();
        let occ = positive_occurrences(g);
        let (pins, contradicted) = pins_of(n_atoms, base);
        let (kernel, base_wfm, refuted) = solve_all(g, &occ, &pins, !contradicted.is_empty());
        let defs = Csr::new(n_atoms, || {
            g.rules
                .iter()
                .enumerate()
                .filter_map(|(ri, r)| head(r).map(|h| (h.index(), ri as u32)))
        });
        let readers = Csr::new(n_atoms, || {
            g.rules
                .iter()
                .filter_map(|r| head(r).map(|h| (r, h)))
                .flat_map(|(r, h)| r.pos.iter().chain(&r.neg).map(move |x| (x.index(), h.0)))
        });
        let constraints = Csr::new(n_atoms, || {
            g.rules
                .iter()
                .enumerate()
                .filter(|(_, r)| head(r).is_none())
                .flat_map(|(ri, r)| {
                    r.pos
                        .iter()
                        .chain(&r.neg)
                        .map(move |x| (x.index(), ri as u32))
                })
        });
        let cards = Csr::new(n_atoms, || {
            g.cards
                .iter()
                .enumerate()
                .flat_map(|(ci, c)| card_atoms(c).map(move |x| (x.index(), ci as u32)))
        });
        let mut read_negatively = vec![false; n_atoms];
        for r in g.rules.iter().filter(|r| head(r).is_some()) {
            for n in &r.neg {
                read_negatively[n.index()] = true;
            }
        }
        ConditionalWfm {
            program,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            occ,
            defs,
            readers,
            constraints,
            cards,
            read_negatively,
            pins,
            assumed: base.iter().map(|l| l.atom.0).collect(),
            contradicted,
            certain: kernel.certain,
            possible: kernel.possible,
            base: base_wfm,
            refuted,
        }
    }

    /// The well-founded model under the base assumptions.
    #[must_use]
    pub fn base(&self) -> &WfmResult {
        &self.base
    }

    /// A workspace for [`under_changes`](Self::under_changes) queries,
    /// holding the base model. Building it costs O(atoms + rules); each
    /// sweep worker keeps one.
    #[must_use]
    pub fn workspace(&self) -> WfmWorkspace {
        let n_atoms = self.pins.len();
        WfmWorkspace {
            owner: self.id,
            pins: self.pins.clone(),
            pinned: Vec::new(),
            touched: vec![false; n_atoms],
            region: Vec::new(),
            in_region: vec![false; n_atoms],
            rules: Vec::new(),
            kernel: Buffers {
                certain: self.certain.clone(),
                next: self.certain.clone(),
                possible: self.possible.clone(),
                missing: vec![0; self.program.borrow().rules.len()],
                stack: Vec::new(),
            },
            true_count: self.base.true_count,
            false_count: self.base.false_count,
            inconsistent: self.base.inconsistent,
        }
    }

    /// The conditional well-founded model under `assumptions` — the same
    /// truth vector, counts and inconsistency verdict as
    /// [`well_founded_with`]`(program, assumptions)` for any assumption
    /// set. It runs the query on a fresh [`WfmWorkspace`], so on top of
    /// the rules defining the forward cone of the atoms whose status
    /// differs from the base, it costs O(atoms + rules) to build that
    /// workspace and to copy the model out.
    #[must_use]
    pub fn under(&self, assumptions: &[Lit]) -> WfmResult {
        let mut ws = self.workspace();
        self.query(&mut ws, assumptions, true).to_result()
    }

    /// The conditional well-founded model under the base assumptions with
    /// `changes` applied: the base's literals on the atoms `changes` names
    /// are dropped, and `changes` is added. It is the model
    /// [`under`](Self::under) gives for that assumption set, computed in
    /// `ws` at the cost of the rules that define the forward cone of the
    /// changed atoms: nothing is allocated, copied or cleared in proportion
    /// to the program once `ws` has grown its work lists.
    ///
    /// # Panics
    ///
    /// If `ws` was made by another model.
    pub fn under_changes<'w>(&self, ws: &'w mut WfmWorkspace, changes: &[Lit]) -> RegionModel<'w> {
        self.query(ws, changes, false)
    }

    /// The footprint of the query whose model `model` is, for
    /// [`Footprint::composes_with`]; `None` unless the model is total and
    /// consistent and the query pins every atom it names true. It is read
    /// off the model's region and the resident indexes, at the cost of the
    /// rules and constraints that read the region.
    ///
    /// # Panics
    ///
    /// If `model` was computed by another model.
    #[must_use]
    pub fn footprint(&self, model: RegionModel<'_>) -> Option<Footprint> {
        let ws = model.ws;
        assert_eq!(
            ws.owner, self.id,
            "a workspace serves only the model that made it"
        );
        let upward = ws.pinned.iter().all(|&a| ws.pins[a as usize] == Pin::True);
        if model.inconsistent() || !model.total() || !upward {
            return None;
        }
        let g: &GroundProgram = self.program.borrow();
        let certain = &ws.kernel.certain;
        let n_rules = g.rules.len() as u32;
        if ws.region.iter().any(|&a| self.read_negatively[a as usize]) {
            let checks = (ws.region.iter()).flat_map(|&a| {
                let cards = self.cards.get(a as usize).iter().map(|&ci| n_rules + ci);
                self.constraints
                    .get(a as usize)
                    .iter()
                    .copied()
                    .chain(cards)
            });
            return Some(Footprint {
                owner: self.id,
                shape: Shape::Cone {
                    region: sorted(ws.region.clone()),
                    checks: sorted(checks.collect()),
                },
            });
        }
        let fires = |ri: u32| (g.rules[ri as usize].pos.iter()).all(|p| certain[p.index()]);
        let mut joins = Vec::new();
        for &a in ws
            .region
            .iter()
            .filter(|&&a| certain[a as usize] && !self.certain[a as usize])
        {
            let reads = |ri: &&u32| g.rules[**ri as usize].pos.contains(&AtomId(a));
            let rules = self.occ.get(a as usize).iter();
            let constraints = self.constraints.get(a as usize).iter().filter(reads);
            joins.extend(rules.chain(constraints).filter(|&&ri| !fires(ri)));
            joins.extend(self.cards.get(a as usize).iter().map(|&ci| n_rules + ci));
        }
        Some(Footprint {
            owner: self.id,
            shape: Shape::Monotone {
                joins: sorted(joins),
            },
        })
    }

    /// Run one query in `ws`: the base pins, with every atom the base
    /// assumes set free first if `replace`, then `lits` applied.
    fn query<'w>(&self, ws: &'w mut WfmWorkspace, lits: &[Lit], replace: bool) -> RegionModel<'w> {
        assert_eq!(
            ws.owner, self.id,
            "a workspace serves only the model that made it"
        );
        let g: &GroundProgram = self.program.borrow();
        // Restore what the last query wrote: its pins and its region.
        for &a in &ws.pinned {
            ws.pins[a as usize] = self.pins[a as usize];
            ws.touched[a as usize] = false;
        }
        ws.pinned.clear();
        let k = &mut ws.kernel;
        for &a in &ws.region {
            let a = a as usize;
            k.certain[a] = self.certain[a];
            k.next[a] = self.certain[a];
            k.possible[a] = self.possible[a];
            ws.in_region[a] = false;
        }
        ws.region.clear();

        // Pins: the base's, with the atoms of this query pinned afresh.
        if replace {
            for &a in &self.assumed {
                ws.touch(a);
            }
        }
        let mut contradictory = false;
        for &l in lits {
            ws.touch(l.atom.0);
            contradictory |= pin(&mut ws.pins, l);
        }
        contradictory |= self.contradicted.iter().any(|&a| !ws.touched[a as usize]);
        // Roots: the atoms pinned otherwise than in the base; the region is
        // their forward closure through every body occurrence.
        for i in 0..ws.pinned.len() {
            let a = ws.pinned[i];
            if ws.pins[a as usize] != self.pins[a as usize] {
                ws.enter(a);
            }
        }
        let mut i = 0;
        while let Some(&a) = ws.region.get(i) {
            for &h in self.readers.get(a as usize) {
                ws.enter(h);
            }
            i += 1;
        }
        ws.rules.clear();
        for &a in &ws.region {
            ws.rules.extend_from_slice(self.defs.get(a as usize));
        }
        let one_round = !ws.region.iter().any(|&a| self.read_negatively[a as usize]);
        alternate(
            g,
            &self.occ,
            &ws.pins,
            &ws.region,
            &ws.rules,
            one_round,
            &mut ws.kernel,
        );

        // Counts: the base's, moved by the region's changes.
        let (certain, possible) = (&ws.kernel.certain[..], &ws.kernel.possible[..]);
        let (mut true_count, mut false_count) = (self.base.true_count, self.base.false_count);
        for &a in &ws.region {
            let a = a as usize;
            match self.base.truth[a] {
                Truth::True => true_count -= 1,
                Truth::False => false_count -= 1,
                Truth::Undefined => {}
            }
            match truth(certain[a], possible[a]) {
                Truth::True => true_count += 1,
                Truth::False => false_count += 1,
                Truth::Undefined => {}
            }
        }

        // Refutations: what reads no region atom keeps its base verdict;
        // the rest is checked again.
        let in_region = &ws.in_region;
        let forced = self.refuted.forced.iter().any(|&a| !in_region[a as usize])
            || (ws.region.iter())
                .any(|&a| ws.pins[a as usize] == Pin::False && certain[a as usize]);
        let constraint = self.refuted.constraints.iter().any(|&ri| {
            let r = &g.rules[ri as usize];
            outside(in_region, r.pos.iter().chain(&r.neg).copied())
        }) || ws.region.iter().any(|&a| {
            self.constraints.get(a as usize).iter().any(|&ri| {
                let r = &g.rules[ri as usize];
                certainly(&r.pos, &r.neg, certain, possible)
            })
        });
        let card = self
            .refuted
            .cards
            .iter()
            .any(|&ci| outside(in_region, card_atoms(&g.cards[ci as usize])))
            || ws.region.iter().any(|&a| {
                self.cards
                    .get(a as usize)
                    .iter()
                    .any(|&ci| card_violated(&g.cards[ci as usize], certain, possible))
            });
        ws.true_count = true_count;
        ws.false_count = false_count;
        ws.inconsistent = contradictory || forced || constraint || card;
        RegionModel { ws }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parse;

    fn ground(src: &str) -> GroundProgram {
        Grounder::new().ground(&parse(src).unwrap()).unwrap()
    }

    fn value(g: &GroundProgram, w: &WfmResult, name: &str) -> Truth {
        let id = g
            .atoms()
            .find(|(_, a)| a.to_string() == name)
            .unwrap_or_else(|| panic!("atom {name} not interned"))
            .0;
        w.value(id)
    }

    #[test]
    fn stratified_programs_are_total() {
        let g = ground("p. q :- p. r :- q, not s.");
        let w = well_founded(&g);
        assert!(w.total());
        assert!(!w.inconsistent);
        assert_eq!(value(&g, &w, "p"), Truth::True);
        assert_eq!(value(&g, &w, "q"), Truth::True);
        assert_eq!(value(&g, &w, "r"), Truth::True);
        assert!((w.decided_fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn positive_loops_are_unfounded() {
        // The loop's only support (`b :- not f`) is refuted by the fact
        // `f`, so the grounder keeps the rules but nothing founds them.
        let g = ground("f. a :- b. b :- a. b :- not f. { x }. p :- x, not a.");
        let w = well_founded(&g);
        assert_eq!(value(&g, &w, "f"), Truth::True);
        assert_eq!(value(&g, &w, "a"), Truth::False, "no external support");
        assert_eq!(value(&g, &w, "b"), Truth::False);
        assert_eq!(value(&g, &w, "x"), Truth::Undefined, "free choice");
        assert_eq!(value(&g, &w, "p"), Truth::Undefined, "follows the choice");
    }

    #[test]
    fn even_negation_loops_stay_undefined() {
        let g = ground("a :- not b. b :- not a. c.");
        let w = well_founded(&g);
        assert_eq!(value(&g, &w, "a"), Truth::Undefined);
        assert_eq!(value(&g, &w, "b"), Truth::Undefined);
        assert_eq!(value(&g, &w, "c"), Truth::True);
        assert_eq!(w.undefined_count(), 2);
    }

    #[test]
    fn choice_atoms_and_their_consequences_are_undefined() {
        let g = ground("{ m }. blocked :- m. alarm :- not blocked.");
        let w = well_founded(&g);
        assert_eq!(value(&g, &w, "m"), Truth::Undefined);
        assert_eq!(value(&g, &w, "blocked"), Truth::Undefined);
        assert_eq!(value(&g, &w, "alarm"), Truth::Undefined);
    }

    #[test]
    fn certainly_violated_constraint_is_inconsistent() {
        let w = well_founded(&ground("p. :- p."));
        assert!(w.inconsistent);
        // A constraint guarded by an undefined atom is not refuted.
        let w = well_founded(&ground("{ x }. p :- x. :- p."));
        assert!(!w.inconsistent);
    }

    #[test]
    fn unreachable_lower_bound_is_inconsistent() {
        // The only element can never hold, but the bound demands one.
        let g = ground("f. dead :- live. live :- dead. live :- not f. 1 { pick : dead } 1.");
        let w = well_founded(&g);
        assert!(w.inconsistent, "lower bound 1 over impossible elements");
    }

    #[test]
    fn conditional_wfm_pins_assumptions_and_detects_refutation() {
        let g = ground("{ m }. blocked :- m. alarm :- not blocked.");
        let m = g.atoms().find(|(_, a)| a.to_string() == "m").unwrap().0;
        let w_on = well_founded_with(&g, &[Lit::pos(m)]);
        assert_eq!(value(&g, &w_on, "blocked"), Truth::True);
        assert_eq!(value(&g, &w_on, "alarm"), Truth::False);
        assert!(w_on.total() && !w_on.inconsistent);
        let w_off = well_founded_with(&g, &[Lit::neg(m)]);
        assert_eq!(value(&g, &w_off, "blocked"), Truth::False);
        assert_eq!(value(&g, &w_off, "alarm"), Truth::True);
        assert!(w_off.total() && !w_off.inconsistent);

        // Assuming a forced atom false is inconsistent.
        let g = ground("p.");
        let p = g.atoms().next().unwrap().0;
        assert!(well_founded_with(&g, &[Lit::neg(p)]).inconsistent);
        // So is a directly contradictory assumption pair.
        assert!(well_founded_with(&g, &[Lit::pos(p), Lit::neg(p)]).inconsistent);
    }

    /// `under` against the all-atoms kernel: truth vector, counts and
    /// inconsistency verdict.
    fn assert_under_matches(g: &GroundProgram, base: &[Lit], query: &[Lit]) {
        let got = ConditionalWfm::new(g, base).under(query);
        let want = well_founded_with(g, query);
        assert_eq!(got.truth, want.truth, "base {base:?}, query {query:?}");
        assert_eq!(
            (got.true_count, got.false_count, got.inconsistent),
            (want.true_count, want.false_count, want.inconsistent),
            "base {base:?}, query {query:?}"
        );
    }

    #[test]
    fn resident_queries_equal_the_full_computation() {
        // Two independent cones, a constraint, a bounded choice and an
        // even loop: flipping `x` must leave `y`'s side at its base value.
        let g = ground(
            "{ x }. { y }. a :- x. b :- a, not c. c :- not b. \
             d :- y. e :- not d. :- a, e. 1 { p; q } 1 :- d.",
        );
        let id = |name: &str| g.atoms().find(|(_, a)| a.to_string() == name).unwrap().0;
        let (x, y, e) = (id("x"), id("y"), id("e"));
        let sets: Vec<Vec<Lit>> = vec![
            vec![],
            vec![Lit::pos(x)],
            vec![Lit::neg(x)],
            vec![Lit::pos(x), Lit::neg(y)],
            vec![Lit::pos(y), Lit::neg(x)],
            vec![Lit::pos(x), Lit::neg(x)],
            vec![Lit::neg(e)],
            vec![Lit::pos(x), Lit::pos(x)],
        ];
        for base in &sets {
            for query in &sets {
                assert_under_matches(&g, base, query);
            }
        }
    }

    #[test]
    fn resident_queries_recheck_refutations_in_the_region_only() {
        // The base violates `:- p.`; a query that pins `p` false repairs it,
        // one that only touches `r` keeps the base verdict.
        let g = ground("{ p }. { r }. s :- r. :- p. :- s, not p.");
        let id = |name: &str| g.atoms().find(|(_, a)| a.to_string() == name).unwrap().0;
        let (p, r) = (id("p"), id("r"));
        let base = [Lit::pos(p)];
        let cond = ConditionalWfm::new(&g, &base);
        assert!(cond.base().inconsistent);
        assert!(cond.under(&[Lit::pos(p), Lit::pos(r)]).inconsistent);
        assert!(!cond.under(&[Lit::neg(p)]).inconsistent);
        assert!(cond.under(&[Lit::neg(p), Lit::pos(r)]).inconsistent);
        for query in [
            vec![Lit::pos(p), Lit::pos(r)],
            vec![Lit::neg(p)],
            vec![Lit::neg(p), Lit::pos(r)],
            vec![Lit::neg(p), Lit::neg(r)],
        ] {
            assert_under_matches(&g, &base, &query);
        }
    }

    /// Does `query`'s region in `ws` take the one-round exit?
    fn one_round(cond: &ConditionalWfm<&GroundProgram>, ws: &WfmWorkspace) -> bool {
        !ws.region.iter().any(|&a| cond.read_negatively[a as usize])
    }

    #[test]
    fn one_round_exit_is_taken_when_no_region_atom_is_read_negatively() {
        // The root `a` reaches `b` and `c` through positive bodies only; the
        // negated `d` is read, but lies outside the region.
        let g = ground("{ a }. { d }. b :- a, not d. c :- b.");
        let id = |name: &str| g.atoms().find(|(_, x)| x.to_string() == name).unwrap().0;
        let (a, d) = (id("a"), id("d"));
        let cond = ConditionalWfm::new(&g, &[Lit::neg(a), Lit::neg(d)]);
        let mut ws = cond.workspace();
        for change in [Lit::pos(a), Lit::neg(a), Lit::pos(a)] {
            let model = cond.under_changes(&mut ws, &[change]);
            let got = model.to_result();
            assert!(model.total() && !model.inconsistent());
            let want = well_founded_with(&g, &[Lit::neg(d), change]);
            assert_eq!(got.truth, want.truth, "change {change:?}");
            if change.positive {
                assert_eq!(ws.region.len(), 3, "a, b and c");
                assert!(one_round(&cond, &ws), "change {change:?}");
            } else {
                assert!(ws.region.is_empty(), "the base's own literal");
            }
        }
        assert_eq!(
            cond.under_changes(&mut ws, &[Lit::pos(a)]).value(id("c")),
            Truth::True
        );
    }

    #[test]
    fn one_round_exit_is_not_taken_through_a_negated_region_atom() {
        // Flipping `a` reaches `b` and `c` through negation: the region's
        // rules read region atoms negatively, so the rounds run until the
        // certain set stops growing.
        let g = ground("{ a }. b :- not a. c :- not b.");
        let a = g.atoms().find(|(_, x)| x.to_string() == "a").unwrap().0;
        let cond = ConditionalWfm::new(&g, &[]);
        let mut ws = cond.workspace();
        for changes in [[Lit::pos(a)], [Lit::neg(a)]] {
            let model = cond.under_changes(&mut ws, &changes);
            let got = model.to_result();
            assert!(model.total() && !model.inconsistent());
            assert!(!one_round(&cond, &ws), "changes {changes:?}");
            assert_eq!(ws.region.len(), 3);
            assert_eq!(got.truth, well_founded_with(&g, &changes).truth);
        }
        let value = |changes: &[Lit], name: &str| {
            let id = g.atoms().find(|(_, x)| x.to_string() == name).unwrap().0;
            cond.under_changes(&mut cond.workspace(), changes).value(id)
        };
        assert_eq!(value(&[Lit::pos(a)], "c"), Truth::True);
        assert_eq!(value(&[Lit::neg(a)], "c"), Truth::False);
        assert_eq!(value(&[], "c"), Truth::Undefined, "the base leaves a open");
    }

    /// The footprints of one-root queries under `base`, one per root of
    /// `roots`, each switching its root on, and whether they compose. When
    /// they do, the base model with each root's changed atoms applied must
    /// be the model `under` gives for all the roots together.
    fn composes(g: &GroundProgram, base: &[Lit], roots: &[&str]) -> bool {
        let id = |name: &str| g.atoms().find(|(_, x)| x.to_string() == name).unwrap().0;
        let roots: Vec<Lit> = roots.iter().map(|r| Lit::pos(id(r))).collect();
        let cond = ConditionalWfm::new(g, base);
        let mut ws = cond.workspace();
        let mut composed = cond.base().truth.clone();
        let mut footprints = Vec::new();
        for &root in &roots {
            let model = cond.under_changes(&mut ws, &[root]);
            for a in model
                .region()
                .filter(|&a| model.value(a) != cond.base().value(a))
            {
                composed[a.index()] = model.value(a);
            }
            footprints.push(cond.footprint(model).expect("each root is decided alone"));
        }
        let pairs = (0..footprints.len())
            .flat_map(|i| (i + 1..footprints.len()).map(move |j| (i, j)))
            .collect::<Vec<_>>();
        let composes = (pairs.iter()).all(|&(i, j)| footprints[i].composes_with(&footprints[j]));
        if composes {
            let mut all: Vec<Lit> = (base.iter())
                .filter(|l| roots.iter().all(|r| r.atom != l.atom))
                .copied()
                .collect();
            all.extend_from_slice(&roots);
            let want = cond.under(&all);
            assert!(want.total() && !want.inconsistent, "roots {roots:?}");
            assert_eq!(composed, want.truth, "roots {roots:?}");
        }
        composes
    }

    /// The base of the composition tests: every choice atom false.
    fn all_off(g: &GroundProgram) -> Vec<Lit> {
        (g.rules.iter())
            .filter_map(|r| match r.head {
                GroundHead::Choice(h) => Some(Lit::neg(h)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cones_that_meet_in_a_constraint_do_not_compose() {
        let g = ground("{ a }. { b }. x :- a. y :- b. :- x, y.");
        let base = all_off(&g);
        assert!(!composes(&g, &base, &["a", "b"]));
        let id = |name: &str| g.atoms().find(|(_, x)| x.to_string() == name).unwrap().0;
        let (a, b) = (id("a"), id("b"));
        assert!(well_founded_with(&g, &[Lit::pos(a), Lit::pos(b)]).inconsistent);
        let cond = ConditionalWfm::new(&g, &base);
        assert!(cond.under(&[Lit::pos(a), Lit::pos(b)]).inconsistent);
    }

    #[test]
    fn a_join_rule_refuses_the_union() {
        // Neither root alone derives `h`; together they do, so the union
        // of their changes would miss it.
        let g = ground("{ a }. { b }. x :- a. y :- b. h :- x, y.");
        let base = all_off(&g);
        assert!(!composes(&g, &base, &["a", "b"]));
        let h = g.atoms().find(|(_, x)| x.to_string() == "h").unwrap().0;
        let cond = ConditionalWfm::new(&g, &base);
        let both: Vec<Lit> = base.iter().map(|l| Lit::pos(l.atom)).collect();
        assert!(cond.under(&both).is_true(h));
    }

    #[test]
    fn cones_read_negatively_compose_only_when_disjoint() {
        // Each root reaches its region through negation: condition (ii).
        let g = ground(
            "{ a }. { b }. { c }. { d }. \
             p :- not a. x :- not p. q :- not b. y :- not q. \
             r :- not c. z :- not r, x. :- y, w. w :- d. v :- d.",
        );
        let base = all_off(&g);
        let cond = ConditionalWfm::new(&g, &base);
        let mut ws = cond.workspace();
        let a = g.atoms().find(|(_, x)| x.to_string() == "a").unwrap().0;
        let model = cond.under_changes(&mut ws, &[Lit::pos(a)]);
        let footprint = cond.footprint(model).unwrap();
        assert!(matches!(footprint.shape, Shape::Cone { .. }));
        assert!(composes(&g, &base, &["a", "b"]), "disjoint regions");
        // `z` reads `x`, so the regions of `a` and `c` share it.
        assert!(!composes(&g, &base, &["a", "c"]));
        // `d` is monotone: its region keeps no atoms to compare.
        assert!(!composes(&g, &base, &["b", "d"]));
    }

    #[test]
    fn regions_that_meet_only_in_a_constraint_do_not_compose() {
        // Two non-monotone regions, disjoint but for the constraint.
        let g = ground("{ a }. { b }. p :- not a. x :- not p. q :- not b. y :- not q. :- x, y.");
        let base = all_off(&g);
        assert!(!composes(&g, &base, &["a", "b"]));
        let both: Vec<Lit> = base.iter().map(|l| Lit::pos(l.atom)).collect();
        assert!(ConditionalWfm::new(&g, &base).under(&both).inconsistent);
    }

    #[test]
    fn overlapping_monotone_cones_without_a_join_compose() {
        // `y` lies in the regions of `a`, `b` and `c`, `x` in those of `a`
        // and `b`. `z :- a, x` reads `x` from `b` but fires under `a`: a
        // join of `b` only.
        let g = ground(
            "{ a }. { b }. { c }. { e }. x :- a. x :- b. y :- x. w :- c. y :- w. \
             z :- a, x. h :- z, e. f :- e.",
        );
        let base = all_off(&g);
        assert!(composes(&g, &base, &["a", "b"]));
        assert!(composes(&g, &base, &["a", "b", "c"]));
        // `h :- z, e` joins `a` (through `z`) and `e`.
        assert!(composes(&g, &base, &["b", "e"]));
        assert!(!composes(&g, &base, &["a", "e"]));
        assert!(!composes(&g, &base, &["a", "b", "e"]));
    }

    #[test]
    fn undecided_or_downward_queries_have_no_footprint() {
        let g = ground("{ a }. { b }. x :- a. p :- not q, b. q :- not p, b.");
        let id = |name: &str| g.atoms().find(|(_, x)| x.to_string() == name).unwrap().0;
        let cond = ConditionalWfm::new(&g, &[Lit::neg(id("b")), Lit::pos(id("a"))]);
        let mut ws = cond.workspace();
        let model = cond.under_changes(&mut ws, &[Lit::pos(id("b"))]);
        assert!(!model.total());
        assert!(cond.footprint(model).is_none(), "an even loop stays open");
        let model = cond.under_changes(&mut ws, &[Lit::neg(id("a"))]);
        assert!(model.total() && !model.inconsistent());
        assert!(cond.footprint(model).is_none(), "a root switched off");
    }

    #[test]
    fn a_workspace_serves_only_its_model() {
        let g = ground("{ a }. b :- a.");
        let (one, other) = (ConditionalWfm::new(&g, &[]), ConditionalWfm::new(&g, &[]));
        let mut ws = one.workspace();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.under_changes(&mut ws, &[]);
        }));
        assert!(run.is_err());
    }

    #[test]
    fn conditional_total_wfm_is_the_unique_model() {
        // Pinning every choice atom makes the WFM total — the EPA sweep
        // fast path.
        let g = ground("{ f }. { m }. bad :- f, not m. ok :- not bad.");
        let f = g.atoms().find(|(_, a)| a.to_string() == "f").unwrap().0;
        let m = g.atoms().find(|(_, a)| a.to_string() == "m").unwrap().0;
        let w = well_founded_with(&g, &[Lit::pos(f), Lit::neg(m)]);
        assert!(w.total() && !w.inconsistent);
        assert_eq!(value(&g, &w, "bad"), Truth::True);
        assert_eq!(value(&g, &w, "ok"), Truth::False);
        let names: Vec<String> = w.true_atoms().map(|id| g.atom(id).to_string()).collect();
        assert_eq!(
            names,
            ["f", "bad"],
            "the unique stable model under f, not m"
        );
    }
}
