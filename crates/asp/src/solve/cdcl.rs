//! The CDCL engine: two-watched-literal propagation over completion
//! nogoods, 1UIP conflict analysis with computed backjump levels, EVSIDS
//! activity branching with phase saving, Luby restarts, and LBD-based
//! learned-database reduction.
//!
//! # Encoding
//!
//! Variables are the ground atoms (`0..n_atoms`) plus one *body variable*
//! per distinct rule body (`n_atoms..n_vars`), clasp-style. A **nogood** is
//! a set of `(var, value)` literals that no solution may satisfy
//! simultaneously; a literal is *satisfied* when the variable holds its
//! value and *falsified* when it holds the complement. Unit propagation is
//! therefore the dual of SAT clauses: a watch fires when its literal
//! becomes **satisfied**, and a nogood with every literal satisfied except
//! one unassigned forces that literal's complement.
//!
//! Literals are packed into a `u32` code `var << 1 | (value == False)`, so
//! `watches[code]` indexes the nogoods watching exactly that (var, value)
//! pair.
//!
//! The completion nogoods emitted by [`Cdcl::build`] are:
//! - per body β with literals `B`: `{(β,F)} ∪ B` (body true when all
//!   literals hold) and binaries `{(β,T),(l̄)}` per literal (body false
//!   when any literal fails),
//! - per normal rule `h :- β`: `{(h,F),(β,T)}` (forward inference),
//! - per defined non-choice atom `a` with bodies `β₁..βₖ`:
//!   `{(a,T),(β₁,F),..,(βₖ,F)}` (support: `a` needs a true body),
//! - integrity constraints become body nogoods with no head.
//!
//! Cardinality bounds and (for non-tight programs) the unfounded-set
//! backstop run as dedicated propagators at each watch fixpoint.
//! Cardinality bounds are counter-based: every assignment and backjump
//! updates per-card counts of held and out elements and of the body's
//! status through an atom-to-slot index, so a dequeued card whose counts
//! show no tight or violated bound costs O(1). A propagation event stores
//! one *witness* (the body literals plus the held or out literals) in the
//! trail-scoped explanation store, and every literal it forces points at
//! that witness; conflict analysis resolves through it like any other
//! reason, and a backjump truncates the store with the trail.
//!
//! The unfounded-set backstop works on the program's unfounded cone (the
//! atoms on positive loops and everything positively derived from them),
//! indexed once in [`Cone`]. A pass computes the can-be-true closure of
//! the cone with a counter-based worklist over the cone's rules, reading
//! every atom outside the cone as possible iff it is not false, and
//! falsifies the cone atoms outside the closure in ascending id order,
//! all under one prefix witness. Debug builds check every pass against
//! the naive closure over the whole program.
//!
//! # Two level-0 segments
//!
//! The level-0 trail of a call has two segments. The *resident* segment
//! is built at the first call and kept: the WFM seeds, the static units
//! and the learned units, closed under propagation, then the solver's
//! base pins (see [`Solver::with_base`]), closed again. The *call* segment
//! holds the call's own pins and their closure. The next call undoes only
//! that segment and the search above it, on the undo path of a backjump
//! (card counters included, no phases saved), and pins its own literals.
//!
//! The assumption-free literals are closed before the base pins go in, so
//! their `dep` flags are clear and unfounded-set inferences among them
//! cite an empty prefix. Learning treats base pins as assumptions like any
//! other, so every learned nogood holds whatever the pins. A nogood
//! learned during a call may still be unit or violated under the resident
//! segment alone, or watched at a satisfied literal beside an open one. A
//! restore therefore settles the nogoods learned since the last one: it
//! re-watches them, and builds the resident segment again from scratch
//! when one of them is unit or violated there (or a learned unit does not
//! hold there). Debug builds check every restored call against a closure
//! from scratch of the same pins.

use std::collections::{HashMap, HashSet};

use super::branch::Branching;
use super::{Lit, SolveOptions, Solver, Val};
use crate::error::AspError;
use crate::intern::IdSet;
use crate::program::{AtomId, CardConstraint, GroundHead, GroundProgram};
use crate::proof::{ProofLog, ProofStep};

/// Complement of a truth value (`Unknown` is not a valid input).
fn negate(v: Val) -> Val {
    match v {
        Val::True => Val::False,
        Val::False => Val::True,
        Val::Unknown => unreachable!("negating Unknown"),
    }
}

/// Fingerprint of a learned nogood given as literal codes, the key of the
/// dedup set: the hash of its `(var, value == True)` pairs, in order.
fn fingerprint(codes: &[u32]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &c in codes {
        (code_var(c), code_val(c) == Val::True).hash(&mut h);
    }
    h.finish()
}

/// An assumption literal as the `(atom, value)` pair it pins.
pub(super) fn pinned(l: Lit) -> (u32, Val) {
    (l.atom.0, if l.positive { Val::True } else { Val::False })
}

/// Pack a (variable, value) literal into its code.
fn code(var: u32, q: Val) -> u32 {
    (var << 1) | u32::from(q == Val::False)
}

/// The variable of a packed literal code.
fn code_var(c: u32) -> u32 {
    c >> 1
}

/// The value of a packed literal code.
fn code_val(c: u32) -> Val {
    if c & 1 == 0 {
        Val::True
    } else {
        Val::False
    }
}

/// Why a variable holds its current value (meaningless while unassigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Reason {
    /// A branching decision (also the reset default for unassigned vars).
    Decision,
    /// Static fact: program unit, WFM seed, or retained learned unit —
    /// holds under the bare assumptions, so 1UIP analysis drops it.
    Static,
    /// Pinned by a caller assumption (level 0, assumption-dependent).
    Assumption,
    /// Forced by the indexed nogood — resolution uses its literals.
    Nogood(u32),
    /// Forced by a shared witness in the explanation store (cardinality
    /// and unfounded-set inferences): the witness's literals explain it.
    Ante(u32),
    /// Forced false by a tight upper bound: the witness's literals plus
    /// the guard literals (none for an unguarded element) of the forced
    /// card element (global index).
    Guarded(u32, u32),
}

/// Where an atom occurs in a cardinality constraint. A literal slot
/// carries the atom value under which the literal holds.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A body literal.
    Body(Val),
    /// The atom of element `e` (global element index).
    Atom(u32),
    /// A guard literal of element `e`.
    Guard(u32, Val),
}

/// One occurrence of an atom in the cardinality constraint `card`.
#[derive(Debug, Clone, Copy)]
struct CardOcc {
    card: u32,
    slot: Slot,
}

/// The status of one card element under the current assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ElemStatus {
    /// Atom true and every guard literal holds.
    Held,
    /// Atom false, or some guard literal fails.
    Out,
    /// Atom unassigned and every guard literal holds: a tight bound
    /// decides it.
    Forcible,
    /// Anything else (a guard literal still unassigned).
    Open,
}

/// Per-element counters behind [`ElemStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ElemCount {
    /// The element atom's value.
    atom: Val,
    /// Guard literals that fail.
    guard_false: u32,
    /// Guard literals still unassigned.
    guard_unknown: u32,
}

impl ElemCount {
    fn status(self) -> ElemStatus {
        if self.atom == Val::False || self.guard_false > 0 {
            ElemStatus::Out
        } else if self.guard_unknown > 0 {
            ElemStatus::Open
        } else if self.atom == Val::True {
            ElemStatus::Held
        } else {
            ElemStatus::Forcible
        }
    }
}

/// Per-card counters, kept equal to what a full rescan would count.
/// Body literals and guard literals count per occurrence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CardCount {
    /// Body literals that fail.
    body_false: u32,
    /// Body literals still unassigned.
    body_unknown: u32,
    /// Elements held.
    held: u32,
    /// Elements out.
    out: u32,
    /// Elements forcible.
    forcible: u32,
}

impl CardCount {
    fn add(&mut self, s: ElemStatus, delta: i32) {
        let slot = match s {
            ElemStatus::Held => &mut self.held,
            ElemStatus::Out => &mut self.out,
            ElemStatus::Forcible => &mut self.forcible,
            ElemStatus::Open => return,
        };
        *slot = slot.wrapping_add_signed(delta);
    }

    /// Whether a rescan of `c` would infer or refute anything: the body
    /// can still hold with at most one literal open, and a bound is
    /// violated, or is tight with an element left to force.
    fn event(self, c: &CardConstraint) -> bool {
        if self.body_false > 0 || self.body_unknown > 1 {
            return false;
        }
        let max_possible = c.elements.len() as u32 - self.out;
        let violated = self.held > c.upper || max_possible < c.lower;
        violated
            || (self.body_unknown == 0
                && self.forcible > 0
                && (self.held == c.upper || max_possible == c.lower))
    }
}

/// One literal of an exported learned nogood. The `bool` is the stored
/// truth value (`true` = `Val::True`).
#[derive(Debug, Clone, Copy)]
enum LearnedLit {
    /// An atom variable, by (stable) atom id.
    Atom(u32, bool),
    /// A body variable, by index into [`LearnedState::bodies`].
    Body(u32, bool),
}

/// A portable snapshot of a solver's learned-nogood database, produced by
/// [`Solver::export_learned`] and replayed into a solver over an extended
/// ground program by [`Solver::import_learned`] — the mechanism that lets
/// search effort carry across incremental horizon extensions.
#[derive(Debug, Clone, Default)]
pub struct LearnedState {
    /// Deduplicated body keys referenced by `Body` literals.
    bodies: Vec<(Vec<u32>, Vec<u32>)>,
    /// Watched nogoods with their learn-time LBD.
    nogoods: Vec<(Vec<LearnedLit>, u32)>,
    /// Unit nogoods (replayed as level-0 forcings).
    units: Vec<LearnedLit>,
}

impl LearnedState {
    /// Number of nogoods in the snapshot (watched plus units).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nogoods.len() + self.units.len()
    }

    /// True when the snapshot holds no nogoods.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nogoods.is_empty() && self.units.is_empty()
    }
}

/// The nogood store. The literals of nogood `n`, in order, are `pair[n]`
/// followed by `rest[rest_start[n]..rest_start[n + 1]]`. Positions 0 and 1
/// are the watched ones: they sit in a dense array of their own and
/// nowhere else, so a watch visit that finds its nogood inert reads only
/// that array and the assignment, and every other literal of every nogood
/// shares one arena.
#[derive(Debug, Clone)]
struct Nogoods {
    pair: Vec<[u32; 2]>,
    rest_start: Vec<u32>,
    rest: Vec<u32>,
}

impl Nogoods {
    fn new() -> Self {
        Nogoods {
            pair: Vec::new(),
            rest_start: vec![0],
            rest: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.pair.len()
    }

    /// Append a nogood of at least two literals, watched at positions 0
    /// and 1.
    fn push(&mut self, lits: &[u32]) {
        debug_assert!(lits.len() >= 2);
        self.pair.push([lits[0], lits[1]]);
        self.rest.extend_from_slice(&lits[2..]);
        self.rest_start.push(self.rest.len() as u32);
    }

    /// The literals of nogood `n` after the watched pair.
    fn rest(&self, n: usize) -> &[u32] {
        &self.rest[self.rest_start[n] as usize..self.rest_start[n + 1] as usize]
    }

    /// The literals of nogood `n`, in order.
    fn lits(&self, n: usize) -> impl Iterator<Item = u32> + '_ {
        self.pair[n].iter().chain(self.rest(n)).copied()
    }

    /// Overwrite nogood `n` with `lits`, a reordering of its literals.
    fn reorder(&mut self, n: usize, lits: &[u32]) {
        let (from, to) = (self.rest_start[n] as usize, self.rest_start[n + 1] as usize);
        debug_assert_eq!(lits.len(), 2 + to - from);
        self.pair[n] = [lits[0], lits[1]];
        self.rest[from..to].copy_from_slice(&lits[2..]);
    }

    /// Keep the first `n` nogoods.
    fn truncate(&mut self, n: usize) {
        self.pair.truncate(n);
        self.rest_start.truncate(n + 1);
        self.rest.truncate(self.rest_start[n] as usize);
    }

    /// Drop every nogood `n >= first` with `dropped[n - first]` set,
    /// keeping the others in order.
    fn compact(&mut self, first: usize, dropped: &[bool]) {
        let mut kept = first;
        let mut end = self.rest_start[first] as usize;
        for n in first..self.len() {
            if dropped[n - first] {
                continue;
            }
            let (from, to) = (self.rest_start[n] as usize, self.rest_start[n + 1] as usize);
            self.rest.copy_within(from..to, end);
            end += to - from;
            self.pair[kept] = self.pair[n];
            kept += 1;
            // `kept <= n + 1`: this entry has been read already.
            self.rest_start[kept] = end as u32;
        }
        self.pair.truncate(kept);
        self.rest_start.truncate(kept + 1);
        self.rest.truncate(end);
    }
}

/// A conflict found by propagation, handed to analysis without copying a
/// stored nogood.
#[derive(Debug, Clone, Copy)]
enum Conflict {
    /// Every literal of the stored nogood is satisfied.
    Nogood(u32),
    /// Every literal of [`Cdcl::conflict`] is satisfied.
    Lits,
}

/// Scratch memory of conflict analysis, reused across conflicts.
#[derive(Debug, Clone, Default)]
struct Analysis {
    /// Per variable: marked in the current analysis.
    seen: Vec<bool>,
    /// The marked variables, to bump and unmark afterwards.
    marked: Vec<u32>,
    /// The learned nogood: the UIP first, then the literals below the
    /// conflict level.
    learnt: Vec<u32>,
    /// The explanation of the witness-backed reason being resolved.
    explain: Vec<u32>,
    /// Per decision level: the last analysis that counted it in an LBD.
    level_stamp: Vec<u32>,
    stamp: u32,
}

impl Analysis {
    /// Mark literal `c` of a nogood being resolved at conflict level `d`:
    /// a literal of level `d` raises `counter`, one below it joins the
    /// learned nogood.
    fn classify(&mut self, c: u32, level: &[u32], dep: &[bool], d: u32, counter: &mut usize) {
        let var = code_var(c);
        if self.seen[var as usize] {
            return;
        }
        let lvl = level[var as usize];
        if lvl == 0 {
            // Level-0 literals are globally sound unless they depend on
            // the current call's assumptions, in which case the
            // assumption literal itself must stay in the nogood.
            if dep[var as usize] {
                self.seen[var as usize] = true;
                self.marked.push(var);
                self.learnt.push(c);
            }
            return;
        }
        self.seen[var as usize] = true;
        self.marked.push(var);
        if lvl == d {
            *counter += 1;
        } else {
            self.learnt.push(c);
        }
    }

    /// The backjump level and the LBD of the learned nogood, whose
    /// literals after the UIP all lie below conflict level `d`.
    fn levels(&mut self, level: &[u32], d: u32) -> (usize, u32) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.level_stamp.fill(0);
            self.stamp = 1;
        }
        if self.level_stamp.len() <= d as usize {
            self.level_stamp.resize(d as usize + 1, 0);
        }
        let stamp = self.stamp;
        let fresh = |slot: &mut u32| std::mem::replace(slot, stamp) != stamp;
        let mut lbd = u32::from(fresh(&mut self.level_stamp[d as usize]));
        let mut backjump = 0u32;
        for &c in &self.learnt[1..] {
            let lvl = level[code_var(c) as usize];
            backjump = backjump.max(lvl);
            lbd += u32::from(fresh(&mut self.level_stamp[lvl as usize]));
        }
        (backjump as usize, lbd)
    }
}

/// Reused scratch of one cardinality event.
#[derive(Debug, Clone, Default)]
struct CardScratch {
    /// The satisfied body literals, then the event's witness.
    witness: Vec<u32>,
    /// The literals of the held elements (atom and guard).
    held: Vec<u32>,
    /// One failing literal per out element.
    out: Vec<u32>,
    /// The forcible elements (global index).
    forcible: Vec<u32>,
}

/// A cone rule body count that marks a rule blocked under the current
/// assignment.
const BLOCKED: u32 = u32::MAX;

/// The unfounded cone of the program (see
/// [`unfounded_cone`](crate::analysis::unfounded_cone)), indexed for the
/// unfounded-set backstop: the cone atoms, the rules whose heads are in
/// the cone, and which of those rules read each cone atom positively.
/// Empty on a tight program.
#[derive(Debug, Default)]
pub(super) struct Cone {
    /// The cone atoms, ascending. A cone atom is named by its position
    /// here.
    atoms: Vec<u32>,
    /// Per cone rule: the position of its head.
    head: Vec<u32>,
    /// Per cone rule: its positive body atoms inside the cone, counted
    /// per occurrence.
    need: Vec<u32>,
    /// Per cone rule `r`: the literals (satisfied form) that block it are
    /// `block[block_start[r]..block_start[r + 1]]` — a positive body atom
    /// outside the cone assigned false, a negative body atom assigned
    /// true.
    block_start: Vec<u32>,
    block: Vec<u32>,
    /// Per cone atom `k`: the cone rules reading it positively are
    /// `readers[read_start[k]..read_start[k + 1]]`, once per occurrence.
    read_start: Vec<u32>,
    readers: Vec<u32>,
    /// Scratch of one closure: per cone rule, cone body atoms not yet in
    /// the closure (or [`BLOCKED`]); per cone atom, whether it is in the
    /// closure; the atoms whose readers are still to be visited.
    missing: Vec<u32>,
    closed: Vec<bool>,
    stack: Vec<u32>,
    /// Per atom: [`close`](Self::close) reads its value (a cone atom, or
    /// the atom of a blocking literal).
    reads: Vec<bool>,
}

impl Cone {
    /// Compute and index the unfounded cone of `g`.
    pub(super) fn build(g: &GroundProgram) -> Self {
        let atoms: Vec<u32> = crate::analysis::unfounded_cone(g)
            .into_iter()
            .map(|a| a.0)
            .collect();
        if atoms.is_empty() {
            return Cone::default();
        }
        let mut position = vec![u32::MAX; g.atom_count()];
        for (k, &a) in atoms.iter().enumerate() {
            position[a as usize] = k as u32;
        }
        let (mut head, mut need, mut block_start, mut block) =
            (Vec::new(), Vec::new(), vec![0u32], Vec::new());
        // (cone atom, cone rule) per positive occurrence inside the cone.
        let mut reads: Vec<(u32, u32)> = Vec::new();
        for r in &g.rules {
            let (GroundHead::Atom(h) | GroundHead::Choice(h)) = r.head else {
                continue;
            };
            let k = position[h.index()];
            if k == u32::MAX {
                continue;
            }
            let ri = head.len() as u32;
            head.push(k);
            let mut inside = 0u32;
            for &p in &r.pos {
                match position[p.index()] {
                    u32::MAX => block.push(code(p.0, Val::False)),
                    kp => {
                        inside += 1;
                        reads.push((kp, ri));
                    }
                }
            }
            block.extend(r.neg.iter().map(|&q| code(q.0, Val::True)));
            need.push(inside);
            block_start.push(block.len() as u32);
        }
        let mut read_start = vec![0u32; atoms.len() + 1];
        for &(k, _) in &reads {
            read_start[k as usize + 1] += 1;
        }
        for k in 0..atoms.len() {
            read_start[k + 1] += read_start[k];
        }
        let mut fill = read_start.clone();
        let mut readers = vec![0u32; reads.len()];
        for (k, ri) in reads {
            readers[fill[k as usize] as usize] = ri;
            fill[k as usize] += 1;
        }
        let mut reads = vec![false; g.atom_count()];
        for a in atoms
            .iter()
            .copied()
            .chain(block.iter().map(|&c| code_var(c)))
        {
            reads[a as usize] = true;
        }
        Cone {
            reads,
            missing: Vec::with_capacity(head.len()),
            closed: vec![false; atoms.len()],
            atoms,
            head,
            need,
            block_start,
            block,
            read_start,
            readers,
            stack: Vec::new(),
        }
    }

    /// Whether the cone is empty: the program is tight.
    pub(super) fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The can-be-true closure of the cone under `val`, into `closed`: the
    /// least set of cone atoms not assigned false that head a rule whose
    /// negative body atoms are not assigned true and whose positive body
    /// atoms are either in the set or outside the cone and not assigned
    /// false.
    ///
    /// At a propagation fixpoint an atom outside the cone can be true iff
    /// it is not false. Its support nogood would have falsified it if
    /// every one of its bodies failed. A body that has not failed has no
    /// positive atom false and no negative atom true, and its positive
    /// atoms lie outside the cone too, so by induction along the acyclic
    /// positive dependencies outside the cone they can be true as well.
    fn close(&mut self, val: &[Val]) {
        let Cone {
            atoms,
            head,
            need,
            block_start,
            block,
            read_start,
            readers,
            missing,
            closed,
            stack,
            ..
        } = self;
        closed.fill(false);
        stack.clear();
        missing.clear();
        let add = |k: u32, closed: &mut [bool], stack: &mut Vec<u32>| {
            if !closed[k as usize] && val[atoms[k as usize] as usize] != Val::False {
                closed[k as usize] = true;
                stack.push(k);
            }
        };
        for r in 0..head.len() {
            let lits = &block[block_start[r] as usize..block_start[r + 1] as usize];
            let m = if lits
                .iter()
                .any(|&c| val[code_var(c) as usize] == code_val(c))
            {
                BLOCKED
            } else {
                need[r]
            };
            missing.push(m);
            if m == 0 {
                add(head[r], closed, stack);
            }
        }
        while let Some(k) = stack.pop() {
            for &r in &readers[read_start[k as usize] as usize..read_start[k as usize + 1] as usize]
            {
                let m = &mut missing[r as usize];
                if *m == BLOCKED {
                    continue;
                }
                *m -= 1;
                if *m == 0 {
                    add(head[r as usize], closed, stack);
                }
            }
        }
    }
}

/// The CDCL engine state.
#[derive(Debug, Clone)]
pub(super) struct Cdcl {
    /// Number of atom variables (`val[..n_atoms]` is the atom assignment).
    pub(super) n_atoms: usize,
    /// Atoms plus body variables.
    pub(super) n_vars: usize,
    /// Current assignment, indexed by variable.
    pub(super) val: Vec<Val>,
    /// Decision level of each assigned variable.
    level: Vec<u32>,
    /// Reason of each assigned variable.
    reason: Vec<Reason>,
    /// Whether the variable's (level-0) assignment depends on the current
    /// call's assumptions. Only meaningful at level 0: 1UIP analysis keeps
    /// dependent level-0 literals in learned nogoods and drops the rest.
    dep: Vec<bool>,
    /// Assignment order.
    trail: Vec<u32>,
    /// Atoms on the trail (body variables not counted).
    assigned_atoms: usize,
    /// Next trail position to propagate watches from.
    qhead: usize,
    /// Trail length at each decision level.
    lim: Vec<usize>,
    /// Per decision level: this level re-branches a flipped decision
    /// (model-enumeration mode — restarts are disabled once any flip
    /// exists, exhaustiveness relies on the flip trail).
    flipped: Vec<bool>,
    /// Number of `true` entries in `flipped`.
    flips: usize,
    /// All watched nogoods: statics first, learned from `first_learned`.
    ngs: Nogoods,
    /// Index of the first learned nogood in `ngs`.
    first_learned: usize,
    /// Per learned nogood `first_learned + k`, at `k`: its literal-block
    /// distance at learn time, and its activity, bumped when it takes
    /// part in conflict analysis.
    lbd: Vec<u32>,
    ng_activity: Vec<f64>,
    /// Learned unit nogoods (single literal codes) — too short to watch,
    /// replayed as level-0 forcings at each `prepare`.
    learned_units: Vec<u32>,
    /// Fingerprint dedup over learned nogoods and units (a fingerprint
    /// is already a hash).
    learned_fps: IdSet<u64>,
    /// Static unit assignments `(var, value)` from the translation.
    units: Vec<(u32, Val)>,
    /// The translation derived an empty nogood: no model, ever.
    root_unsat: bool,
    /// `watches[code]`: nogood indices watching that literal.
    watches: Vec<Vec<u32>>,
    /// Per atom `a`: its card occurrences are
    /// `card_occ[card_occ_start[a]..card_occ_start[a + 1]]`, by card.
    card_occ_start: Vec<u32>,
    card_occ: Vec<CardOcc>,
    /// Per card: counters under the current assignment.
    card_count: Vec<CardCount>,
    /// Per card element (all cards' elements, in order): counters.
    elem_count: Vec<ElemCount>,
    /// Both counter arrays under the empty assignment (per-call reset).
    card_count_init: Vec<CardCount>,
    elem_count_init: Vec<ElemCount>,
    /// Per card: index of its first element in `elem_count`.
    elem_start: Vec<u32>,
    /// Per element `e`: its guard literals (satisfied form, sorted) are
    /// `guard_lits[guard_start[e]..guard_start[e + 1]]`.
    guard_start: Vec<u32>,
    guard_lits: Vec<u32>,
    /// Per card: queued for rescan.
    card_dirty: Vec<bool>,
    /// Queue of dirty cards.
    card_queue: Vec<u32>,
    /// Trail-scoped explanation store: witness `w` is
    /// `ante_lits[antes[w].0..antes[w].1]`. Every witness forces at least
    /// one literal still on the trail, so the store never outgrows it.
    antes: Vec<(u32, u32)>,
    ante_lits: Vec<u32>,
    /// Number of witnesses at the start of each decision level.
    ante_lim: Vec<u32>,
    /// Reused scratch of conflict analysis and of cardinality events.
    an: Analysis,
    card_scratch: CardScratch,
    /// The literals of the last conflict that is not a stored nogood.
    conflict: Vec<u32>,
    /// Most witnesses the store has held at once, and witnesses created,
    /// over the solver's lifetime.
    #[cfg(test)]
    pub(super) ante_peak: usize,
    #[cfg(test)]
    pub(super) ante_created: usize,
    /// EVSIDS activities and the branching heap, built at the first
    /// decision of each call.
    branch: Branching,
    /// Current activity increment (grows by 1/0.95 per conflict).
    var_inc: f64,
    /// Saved phase per variable (initially `True`, matching the engine's
    /// try-true-first enumeration order).
    pub(super) saved: Vec<Val>,
    /// Conflicts since the last restart.
    conflicts_since_restart: u64,
    /// Index into the Luby sequence for the next restart.
    restart_seq: u64,
    /// Completed learned-DB reductions (raises the next threshold).
    pub(super) reduce_count: u64,
    /// Body variable keys, by body index (`var = n_atoms + index`): the
    /// sorted deduplicated `(pos, neg)` atom-id lists. Retained so learned
    /// nogoods can be exported/imported across program extensions — body
    /// *indices* are build-order dependent, body *keys* are the stable
    /// identity.
    bodies: Vec<(Vec<u32>, Vec<u32>)>,
    /// The resident level-0 segment.
    pub(super) resident: Resident,
    /// An atom the unfounded-set closure reads was assigned since the
    /// state of its last pass, which forced nothing.
    cone_dirty: bool,
    /// The learned store when the resident segment was last restored or
    /// built: watched nogoods, units, and completed reductions.
    learned_mark: (usize, usize, u64),
}

/// The state of the resident level-0 segment (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Resident {
    /// Not built, or out of date: the next call builds it from scratch.
    Stale,
    /// Built: the trail length and the witness count at its end.
    Built { trail: usize, antes: usize },
    /// The program refutes the base pins: every call is UNSAT.
    Refuted,
}

/// How closing a level-0 segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Closure {
    /// At a propagation fixpoint.
    Closed,
    /// Two pins contradict each other: nothing to learn.
    Contradiction,
    /// A seed or a pin clashes with a value already assigned.
    Clash,
    /// Propagation hit a conflict.
    Conflict,
}

impl Cdcl {
    /// Translate the ground program into completion nogoods.
    pub(super) fn build(g: &GroundProgram) -> Self {
        let n_atoms = g.atom_count();
        let mut root_unsat = false;
        let mut units: Vec<(u32, Val)> = Vec::new();

        // Distinct bodies get one body variable each, keyed by the sorted
        // deduplicated literal sets.
        let mut body_ids: HashMap<(Vec<u32>, Vec<u32>), u32> = HashMap::new();
        let mut bodies: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        let mut defined = vec![false; n_atoms];
        let mut unconditional = vec![false; n_atoms];
        let mut supports: Vec<Vec<u32>> = vec![Vec::new(); n_atoms];
        let mut head_forward: Vec<(u32, u32)> = Vec::new();
        let mut ngs = Nogoods::new();

        for r in &g.rules {
            let mut pos: Vec<u32> = r.pos.iter().map(|a| a.0).collect();
            let mut neg: Vec<u32> = r.neg.iter().map(|a| a.0).collect();
            pos.sort_unstable();
            pos.dedup();
            neg.sort_unstable();
            neg.dedup();
            match r.head {
                GroundHead::None => {
                    // Integrity constraint: the body literals form a nogood
                    // directly; no body variable needed.
                    let lits: Vec<u32> = pos
                        .iter()
                        .map(|&p| code(p, Val::True))
                        .chain(neg.iter().map(|&n| code(n, Val::False)))
                        .collect();
                    match lits.len() {
                        0 => root_unsat = true,
                        1 => {
                            let c = lits[0];
                            units.push((code_var(c), negate(code_val(c))));
                        }
                        _ => ngs.push(&lits),
                    }
                }
                GroundHead::Atom(h) | GroundHead::Choice(h) => {
                    let normal = matches!(r.head, GroundHead::Atom(_));
                    defined[h.index()] = true;
                    if pos.is_empty() && neg.is_empty() {
                        unconditional[h.index()] = true;
                        if normal {
                            units.push((h.0, Val::True));
                        }
                        continue;
                    }
                    let key = (pos.clone(), neg.clone());
                    let beta = *body_ids.entry(key).or_insert_with(|| {
                        bodies.push((pos.clone(), neg.clone()));
                        (n_atoms + bodies.len() - 1) as u32
                    });
                    if !supports[h.index()].contains(&beta) {
                        supports[h.index()].push(beta);
                    }
                    if normal {
                        head_forward.push((h.0, beta));
                    }
                }
            }
        }

        let n_vars = n_atoms + bodies.len();

        // Body equivalence nogoods.
        let mut lits: Vec<u32> = Vec::new();
        for (bi, (pos, neg)) in bodies.iter().enumerate() {
            let beta = (n_atoms + bi) as u32;
            // Body true when every literal holds: {(β,F)} ∪ B.
            lits.clear();
            lits.push(code(beta, Val::False));
            lits.extend(pos.iter().map(|&p| code(p, Val::True)));
            lits.extend(neg.iter().map(|&n| code(n, Val::False)));
            ngs.push(&lits);
            // Body false when any literal fails: {(β,T), l̄} per literal.
            for &p in pos {
                ngs.push(&[code(beta, Val::True), code(p, Val::False)]);
            }
            for &n in neg {
                ngs.push(&[code(beta, Val::True), code(n, Val::True)]);
            }
        }
        // Forward inference for normal heads: {(h,F),(β,T)}, in a fixed
        // order so the search is the same run to run.
        head_forward.sort_unstable();
        head_forward.dedup();
        for &(h, beta) in &head_forward {
            ngs.push(&[code(h, Val::False), code(beta, Val::True)]);
        }
        // Support nogoods: a defined non-unconditional atom needs a body.
        for a in 0..n_atoms as u32 {
            if !defined[a as usize] {
                units.push((a, Val::False));
            } else if !unconditional[a as usize] && !supports[a as usize].is_empty() {
                lits.clear();
                lits.push(code(a, Val::True));
                lits.extend(
                    supports[a as usize]
                        .iter()
                        .map(|&beta| code(beta, Val::False)),
                );
                ngs.push(&lits);
            }
        }

        let mut is_choice = vec![false; n_atoms];
        for r in &g.rules {
            if let GroundHead::Choice(h) = r.head {
                is_choice[h.index()] = true;
            }
        }

        let mut watches: Vec<Vec<u32>> = vec![Vec::new(); n_vars * 2];
        for (ni, [w0, w1]) in ngs.pair.iter().enumerate() {
            watches[*w0 as usize].push(ni as u32);
            watches[*w1 as usize].push(ni as u32);
        }

        // Cardinality occurrences of every atom a card can react to, and
        // the counters of the empty assignment.
        let mut occ_of: Vec<Vec<CardOcc>> = vec![Vec::new(); n_atoms];
        let mut card_count_init: Vec<CardCount> = Vec::with_capacity(g.cards.len());
        let mut elem_count_init: Vec<ElemCount> = Vec::new();
        let mut elem_start: Vec<u32> = Vec::with_capacity(g.cards.len());
        let mut guard_start: Vec<u32> = vec![0];
        let mut guard_lits: Vec<u32> = Vec::new();
        for (ci, c) in g.cards.iter().enumerate() {
            let card = ci as u32;
            let mut occ = |a: AtomId, slot: Slot| occ_of[a.index()].push(CardOcc { card, slot });
            for &p in &c.pos {
                occ(p, Slot::Body(Val::True));
            }
            for &n in &c.neg {
                occ(n, Slot::Body(Val::False));
            }
            elem_start.push(elem_count_init.len() as u32);
            let mut count = CardCount {
                body_unknown: (c.pos.len() + c.neg.len()) as u32,
                ..CardCount::default()
            };
            for e in &c.elements {
                let ei = elem_count_init.len() as u32;
                occ(e.atom, Slot::Atom(ei));
                for &p in &e.guard_pos {
                    occ(p, Slot::Guard(ei, Val::True));
                }
                for &n in &e.guard_neg {
                    occ(n, Slot::Guard(ei, Val::False));
                }
                let ec = ElemCount {
                    atom: Val::Unknown,
                    guard_false: 0,
                    guard_unknown: (e.guard_pos.len() + e.guard_neg.len()) as u32,
                };
                count.add(ec.status(), 1);
                elem_count_init.push(ec);
                let first = guard_lits.len();
                guard_lits.extend(e.guard_pos.iter().map(|&p| code(p.0, Val::True)));
                guard_lits.extend(e.guard_neg.iter().map(|&n| code(n.0, Val::False)));
                guard_lits[first..].sort_unstable();
                guard_start.push(guard_lits.len() as u32);
            }
            card_count_init.push(count);
        }
        let mut card_occ_start: Vec<u32> = Vec::with_capacity(n_atoms + 1);
        let mut card_occ: Vec<CardOcc> = Vec::new();
        for list in occ_of {
            card_occ_start.push(card_occ.len() as u32);
            card_occ.extend(list);
        }
        card_occ_start.push(card_occ.len() as u32);

        Cdcl {
            n_atoms,
            n_vars,
            val: vec![Val::Unknown; n_vars],
            level: vec![0; n_vars],
            reason: vec![Reason::Decision; n_vars],
            dep: vec![false; n_vars],
            trail: Vec::new(),
            assigned_atoms: 0,
            qhead: 0,
            lim: Vec::new(),
            flipped: Vec::new(),
            flips: 0,
            first_learned: ngs.len(),
            ngs,
            lbd: Vec::new(),
            ng_activity: Vec::new(),
            learned_units: Vec::new(),
            learned_fps: IdSet::default(),
            units,
            root_unsat,
            watches,
            card_occ_start,
            card_occ,
            card_count: card_count_init.clone(),
            elem_count: elem_count_init.clone(),
            card_count_init,
            elem_count_init,
            elem_start,
            guard_start,
            guard_lits,
            card_dirty: vec![false; g.cards.len()],
            card_queue: Vec::new(),
            antes: Vec::new(),
            ante_lits: Vec::new(),
            ante_lim: Vec::new(),
            an: Analysis {
                seen: vec![false; n_vars],
                ..Analysis::default()
            },
            card_scratch: CardScratch::default(),
            conflict: Vec::new(),
            #[cfg(test)]
            ante_peak: 0,
            #[cfg(test)]
            ante_created: 0,
            branch: Branching::new(n_vars, is_choice),
            var_inc: 1.0,
            saved: vec![Val::True; n_vars],
            conflicts_since_restart: 0,
            restart_seq: 1,
            reduce_count: 0,
            bodies,
            resident: Resident::Stale,
            cone_dirty: true,
            learned_mark: (0, 0, 0),
        }
    }

    /// Learned nogoods currently retained (watched plus units).
    pub(super) fn learned_count(&self) -> usize {
        (self.ngs.len() - self.first_learned) + self.learned_units.len()
    }

    /// Drop every learned nogood and rebuild the static watch lists. The
    /// resident segment may rest on the dropped nogoods, so the next call
    /// builds it again.
    pub(super) fn clear_learned(&mut self) {
        self.ngs.truncate(self.first_learned);
        self.lbd.clear();
        self.ng_activity.clear();
        self.learned_units.clear();
        self.learned_fps.clear();
        self.rebuild_watches();
        self.resident = Resident::Stale;
    }

    /// Rebuild every watch list from scratch, in store order. A learned
    /// nogood first moves its two best watch candidates to the front (see
    /// [`choose_watches`](Self::choose_watches)); statics keep theirs.
    fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        let mut lits: Vec<u32> = Vec::new();
        for ni in 0..self.ngs.len() {
            if ni >= self.first_learned {
                lits.clear();
                lits.extend(self.ngs.lits(ni));
                self.choose_watches(&mut lits);
                self.ngs.reorder(ni, &lits);
            }
            let [w0, w1] = self.ngs.pair[ni];
            self.watches[w0 as usize].push(ni as u32);
            self.watches[w1 as usize].push(ni as u32);
        }
    }

    /// Move the two best watch candidates into positions 0 and 1:
    /// unassigned literals first, then falsified, then satisfied — watching
    /// satisfied literals would fire immediately and could miss later
    /// state changes after backjumping.
    fn choose_watches(&self, lits: &mut [u32]) {
        let rank = |c: u32| -> u8 {
            let v = self.val[code_var(c) as usize];
            if v == Val::Unknown {
                0
            } else if v == negate(code_val(c)) {
                1
            } else {
                2
            }
        };
        for slot in 0..2usize.min(lits.len()) {
            let mut best = slot;
            for i in slot + 1..lits.len() {
                if rank(lits[i]) < rank(lits[best]) {
                    best = i;
                }
            }
            lits.swap(slot, best);
        }
    }

    /// Full reset, before the resident segment is built: clear the
    /// assignment and the propagation state; learned nogoods, activities
    /// and saved phases persist.
    fn reset(&mut self, n_cards: usize) {
        self.val.fill(Val::Unknown);
        self.level.fill(0);
        self.reason.fill(Reason::Decision);
        self.dep.fill(false);
        self.trail.clear();
        self.assigned_atoms = 0;
        self.qhead = 0;
        self.lim.clear();
        self.flipped.clear();
        self.flips = 0;
        self.antes.clear();
        self.ante_lits.clear();
        self.ante_lim.clear();
        self.card_count.clone_from(&self.card_count_init);
        self.elem_count.clone_from(&self.elem_count_init);
        self.card_dirty.clear();
        self.card_dirty.resize(n_cards, true);
        self.card_queue.clear();
        self.card_queue.extend(0..n_cards as u32);
        self.conflicts_since_restart = 0;
        self.restart_seq = 1;
        self.branch.invalidate();
        self.cone_dirty = true;
    }

    /// Per-call restore: undo everything above the resident segment, which
    /// ends at trail length `trail` with `antes` witnesses, without saving
    /// phases. The resident segment is propagation-closed, so no card is
    /// left queued and the unfounded-set closure has nothing to force. The
    /// branching heap is built again at the call's first decision.
    fn restore(&mut self, trail: usize, antes: usize) {
        self.branch.invalidate();
        self.undo_to(trail, false);
        self.antes.truncate(antes);
        self.ante_lits
            .truncate(self.antes.last().map_or(0, |&(_, end)| end as usize));
        self.ante_lim.clear();
        self.lim.clear();
        self.flipped.clear();
        self.flips = 0;
        for ci in self.card_queue.drain(..) {
            self.card_dirty[ci as usize] = false;
        }
        self.qhead = trail;
        self.cone_dirty = false;
        self.conflicts_since_restart = 0;
        self.restart_seq = 1;
    }

    /// Pop the trail down to `keep` entries, moving the card counters back,
    /// putting the atoms back into the branching heap and, with `save`,
    /// saving their phases.
    fn undo_to(&mut self, keep: usize, save: bool) {
        while self.trail.len() > keep {
            let v = self.trail.pop().expect("trail len checked") as usize;
            if v < self.n_atoms {
                self.card_update(v as u32, self.val[v], false);
                self.branch.insert(v as u32);
                self.assigned_atoms -= 1;
            }
            if save {
                self.saved[v] = self.val[v];
            }
            self.val[v] = Val::Unknown;
            self.reason[v] = Reason::Decision;
            self.dep[v] = false;
        }
    }

    /// Record the learned store as settled against the resident segment.
    fn mark_learned(&mut self) {
        self.learned_mark = (self.ngs.len(), self.learned_units.len(), self.reduce_count);
    }

    /// Whether a level-0 assignment of `var` for `reason` depends on the
    /// pins: it is a pin, or its reason holds a pin-dependent literal.
    fn reason_dep(&self, var: u32, reason: Reason) -> bool {
        let dep = |c: &u32| code_var(*c) != var && self.dep[code_var(*c) as usize];
        match reason {
            Reason::Assumption => true,
            Reason::Nogood(ni) => self.ngs.lits(ni as usize).any(|c| dep(&c)),
            Reason::Ante(w) => self.witness(w).iter().any(dep),
            Reason::Guarded(w, e) => self.witness(w).iter().chain(self.guard(e)).any(dep),
            Reason::Decision | Reason::Static => false,
        }
    }

    /// Whether nogood `ni` is unit or violated under the current (resident)
    /// assignment: the resident segment would then not be closed.
    fn extends_resident(&self, ni: usize) -> bool {
        let mut open = self
            .ngs
            .lits(ni)
            .filter(|&c| self.val[code_var(c) as usize] != code_val(c));
        match (open.next(), open.next()) {
            (None, _) => true,
            (Some(c), None) => self.val[code_var(c) as usize] == Val::Unknown,
            _ => false,
        }
    }

    /// Settle the nogoods learned since the resident segment was last
    /// restored or built against it, now that it is restored: true when
    /// none of them extends it (see [`extends_resident`](Self::extends_resident)),
    /// each then watched at a settled pair; false when it must be built
    /// again. A learned unit must already hold. After a database
    /// reduction, which re-chose every learned nogood's watches under the
    /// call's assignment, every learned nogood is checked.
    fn settle_learned(&mut self) -> bool {
        let (ngs, units, reductions) = self.learned_mark;
        for &c in &self.learned_units[units..] {
            if self.val[code_var(c) as usize] != negate(code_val(c)) {
                return false;
            }
        }
        let reduced = self.reduce_count != reductions;
        let first = if reduced { self.first_learned } else { ngs };
        if (first..self.ngs.len()).any(|ni| self.extends_resident(ni)) {
            return false;
        }
        if reduced {
            self.rebuild_watches();
        } else {
            for ni in first..self.ngs.len() {
                if self.unsettled(ni) {
                    self.rewatch(ni);
                }
            }
        }
        self.mark_learned();
        true
    }

    /// Whether nogood `ni` has a watch satisfied while the other is not
    /// falsified: a pair that propagation leaves only when it visits the
    /// satisfied watch, which a restored segment never does again.
    fn unsettled(&self, ni: usize) -> bool {
        let state = |c: u32| {
            let v = self.val[code_var(c) as usize];
            (v == code_val(c), v == negate(code_val(c)))
        };
        let [w0, w1] = self.ngs.pair[ni];
        let ((sat0, false0), (sat1, false1)) = (state(w0), state(w1));
        sat0 && !false1 || sat1 && !false0
    }

    /// Watch nogood `ni` at its two best candidates (see
    /// [`choose_watches`](Self::choose_watches)). On a nogood neither unit
    /// nor violated that is two open literals, or a falsified one: a
    /// settled pair.
    fn rewatch(&mut self, ni: usize) {
        let [w0, w1] = self.ngs.pair[ni];
        for w in [w0, w1] {
            let list = &mut self.watches[w as usize];
            let at = list.iter().position(|&x| x as usize == ni);
            list.remove(at.expect("a nogood is watched at its pair"));
        }
        let mut lits: Vec<u32> = self.ngs.lits(ni).collect();
        self.choose_watches(&mut lits);
        self.ngs.reorder(ni, &lits);
        self.watches[lits[0] as usize].push(ni as u32);
        self.watches[lits[1] as usize].push(ni as u32);
    }

    /// Move the counters of every card mentioning atom `var` across its
    /// assignment to `v` (`assign`) or its undoing from `v`; an
    /// assignment also queues each such card not yet queued, in card
    /// order.
    fn card_update(&mut self, var: u32, v: Val, assign: bool) {
        let step: i32 = if assign { 1 } else { -1 };
        let (from, to) = (
            self.card_occ_start[var as usize] as usize,
            self.card_occ_start[var as usize + 1] as usize,
        );
        for &CardOcc { card, slot } in &self.card_occ[from..to] {
            let cc = &mut self.card_count[card as usize];
            match slot {
                Slot::Body(holds) => {
                    cc.body_unknown = cc.body_unknown.wrapping_add_signed(-step);
                    if v != holds {
                        cc.body_false = cc.body_false.wrapping_add_signed(step);
                    }
                }
                Slot::Atom(e) | Slot::Guard(e, _) => {
                    let ec = &mut self.elem_count[e as usize];
                    let before = ec.status();
                    if let Slot::Guard(_, holds) = slot {
                        ec.guard_unknown = ec.guard_unknown.wrapping_add_signed(-step);
                        if v != holds {
                            ec.guard_false = ec.guard_false.wrapping_add_signed(step);
                        }
                    } else {
                        ec.atom = if assign { v } else { Val::Unknown };
                    }
                    let after = ec.status();
                    if before != after {
                        cc.add(before, -1);
                        cc.add(after, 1);
                    }
                }
            }
            if assign && !self.card_dirty[card as usize] {
                self.card_dirty[card as usize] = true;
                self.card_queue.push(card);
            }
        }
    }

    /// Store a witness at the current decision level; returns its index.
    fn push_witness(&mut self, lits: &[u32]) -> u32 {
        let start = self.ante_lits.len() as u32;
        self.ante_lits.extend_from_slice(lits);
        self.antes.push((start, self.ante_lits.len() as u32));
        #[cfg(test)]
        {
            self.ante_peak = self.ante_peak.max(self.antes.len());
            self.ante_created += 1;
        }
        (self.antes.len() - 1) as u32
    }

    /// The literals of witness `w`.
    fn witness(&self, w: u32) -> &[u32] {
        let (from, to) = self.antes[w as usize];
        &self.ante_lits[from as usize..to as usize]
    }

    /// The guard literals of card element `e`.
    fn guard(&self, e: u32) -> &[u32] {
        &self.guard_lits
            [self.guard_start[e as usize] as usize..self.guard_start[e as usize + 1] as usize]
    }

    /// Append the explanation of a witness-backed reason to `out`, in
    /// ascending code order (a guarded witness merges in the guard; a
    /// literal in both appears twice, which resolution ignores).
    fn explain_into(&self, reason: Reason, out: &mut Vec<u32>) {
        match reason {
            Reason::Ante(w) => out.extend_from_slice(self.witness(w)),
            Reason::Guarded(w, e) => {
                let (mut a, mut b) = (
                    self.witness(w).iter().peekable(),
                    self.guard(e).iter().peekable(),
                );
                while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
                    if x <= y {
                        out.push(x);
                        a.next();
                    } else {
                        out.push(y);
                        b.next();
                    }
                }
                out.extend(a);
                out.extend(b);
            }
            Reason::Decision | Reason::Static | Reason::Assumption | Reason::Nogood(_) => {
                unreachable!("not a witness-backed reason")
            }
        }
    }

    /// 1UIP conflict analysis, with EVSIDS bumps unless `frozen`. Leaves
    /// the learned nogood in `an.learnt` (UIP first) and returns the
    /// backjump level and the LBD.
    fn analyze(&mut self, confl: Conflict, frozen: bool) -> (usize, u32) {
        let d = self.lim.len() as u32;
        debug_assert!(d > 0, "analyze called at level 0");
        let mut an = std::mem::take(&mut self.an);
        an.learnt.clear();
        // The UIP's place, filled in at the end.
        an.learnt.push(u32::MAX);
        let mut counter = 0usize;
        match confl {
            Conflict::Nogood(ni) => {
                for c in self.ngs.lits(ni as usize) {
                    an.classify(c, &self.level, &self.dep, d, &mut counter);
                }
            }
            Conflict::Lits => {
                for &c in &self.conflict {
                    an.classify(c, &self.level, &self.dep, d, &mut counter);
                }
            }
        }

        // Walk the trail backwards, resolving current-level literals
        // through their reasons until one remains: the 1UIP.
        let mut idx = self.trail.len();
        let uip = loop {
            debug_assert!(counter >= 1, "conflict must involve current level");
            idx -= 1;
            let x = self.trail[idx];
            if !an.seen[x as usize] {
                continue;
            }
            if counter == 1 {
                break x;
            }
            an.seen[x as usize] = false;
            counter -= 1;
            match self.reason[x as usize] {
                Reason::Nogood(ni) => {
                    if let Some(k) = (ni as usize).checked_sub(self.first_learned) {
                        self.ng_activity[k] += 1.0;
                    }
                    for c in self.ngs.lits(ni as usize) {
                        if code_var(c) != x {
                            an.classify(c, &self.level, &self.dep, d, &mut counter);
                        }
                    }
                }
                reason @ (Reason::Ante(_) | Reason::Guarded(..)) => {
                    let mut ante = std::mem::take(&mut an.explain);
                    ante.clear();
                    self.explain_into(reason, &mut ante);
                    for &c in &ante {
                        if code_var(c) != x {
                            an.classify(c, &self.level, &self.dep, d, &mut counter);
                        }
                    }
                    an.explain = ante;
                }
                Reason::Decision | Reason::Static | Reason::Assumption => {
                    unreachable!("current-level non-UIP literal must have an antecedent")
                }
            }
        };

        // EVSIDS bumps: every variable that participated in the analysis.
        // Suppressed while enumerating — movement is chronological there,
        // so the branching heuristic is frozen anyway, and the per-conflict
        // decay (plus its periodic full-array rescale) is pure churn.
        if !frozen {
            for &v in &an.marked {
                self.branch.bump(v, self.var_inc);
            }
            self.var_inc /= 0.95;
            if self.var_inc > 1e100 {
                self.branch.rescale(1e-100);
                self.var_inc *= 1e-100;
            }
        }
        for &v in &an.marked {
            an.seen[v as usize] = false;
        }
        an.marked.clear();

        an.learnt[0] = code(uip, self.val[uip as usize]);
        let levels = an.levels(&self.level, d);
        self.an = an;
        levels
    }
}

/// The `i`-th element of the Luby restart sequence (1-indexed):
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
pub(super) fn luby(mut i: u64) -> u64 {
    loop {
        // Largest k with 2^k - 1 <= i.
        let mut k = 1u32;
        while (1u64 << (k + 1)) - 1 <= i {
            k += 1;
        }
        if i == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        // Strip the completed prefix of length 2^k - 1 and recurse.
        i -= (1u64 << k) - 1;
    }
}

/// Action decided for one watched nogood during propagation.
enum WatchAction {
    /// Some literal is falsified: the nogood can never fire here.
    Inert,
    /// The watch moved to a new literal code.
    Moved(u32),
    /// Every other literal satisfied, this one unassigned: force its
    /// complement.
    Force(u32),
    /// Every literal satisfied.
    Conflict,
}

impl Solver<'_> {
    /// CDCL per-call setup: restore the resident segment (or build it),
    /// then pin the call's literals at level 0 and close them under
    /// propagation. False means the search space is empty before the first
    /// decision.
    pub(super) fn prepare_cdcl(
        &mut self,
        pins: &[Lit],
        opts: &SolveOptions,
    ) -> Result<bool, AspError> {
        let mut restored = false;
        if let Resident::Built { trail, antes } = self.cdcl.resident {
            self.cdcl.restore(trail, antes);
            restored = self.cdcl.settle_learned();
        }
        let ready = restored
            || (!self.cdcl.root_unsat
                && self.cdcl.resident != Resident::Refuted
                && self.build_resident(opts)?);
        self.assumptions.clear();
        self.assumptions.extend_from_slice(&self.base);
        let n_base = self.assumptions.len();
        self.assumptions.extend(pins.iter().map(|&l| pinned(l)));
        if !ready {
            return Ok(false);
        }
        match self.close_pins(n_base) {
            Closure::Closed => {}
            end => return self.fail(end, opts),
        }
        #[cfg(debug_assertions)]
        if restored {
            self.assert_closure_from_scratch(n_base);
        }
        Ok(true)
    }

    /// Build the resident segment from scratch: a full reset, the
    /// assumption-free literals closed, then the base pins closed. False
    /// when the program refutes the base pins.
    fn build_resident(&mut self, opts: &SolveOptions) -> Result<bool, AspError> {
        self.cdcl.reset(self.g.cards.len());
        self.assumptions.clear();
        let mut end = self.close_statics();
        if end == Closure::Closed {
            self.assumptions.extend_from_slice(&self.base);
            end = self.close_pins(0);
        }
        if end != Closure::Closed {
            self.cdcl.resident = Resident::Refuted;
            return self.fail(end, opts);
        }
        self.cdcl.resident = Resident::Built {
            trail: self.cdcl.trail.len(),
            antes: self.cdcl.antes.len(),
        };
        self.cdcl.mark_learned();
        Ok(true)
    }

    /// Assign the WFM backbone, the program units and the retained learned
    /// units at level 0 — all sound consequences of the program alone —
    /// and close them under propagation.
    fn close_statics(&mut self) -> Closure {
        for i in 0..self.wfm_seeds.len() {
            let (a, v) = self.wfm_seeds[i];
            if !self.seed0(a, v) {
                return Closure::Clash;
            }
        }
        for i in 0..self.cdcl.units.len() {
            let (a, v) = self.cdcl.units[i];
            if !self.seed0(a, v) {
                return Closure::Clash;
            }
        }
        for i in 0..self.cdcl.learned_units.len() {
            let c = self.cdcl.learned_units[i];
            if !self.seed0(code_var(c), negate(code_val(c))) {
                return Closure::Clash;
            }
        }
        if self.cdcl_propagate().is_some() {
            return Closure::Conflict;
        }
        Closure::Closed
    }

    /// Pin `assumptions[from..]` at level 0 and close them under
    /// propagation. A pin that an earlier pin contradicts is a
    /// contradiction; one that a derived value contradicts is a clash.
    fn close_pins(&mut self, from: usize) -> Closure {
        let start = self.cdcl.trail.len();
        for i in from..self.assumptions.len() {
            let (a, v) = self.assumptions[i];
            match self.cdcl.val[a as usize] {
                Val::Unknown => self.cd_assign(a, v, Reason::Assumption),
                cur if cur == v => {}
                _ if self.cdcl.reason[a as usize] == Reason::Assumption => {
                    return Closure::Contradiction;
                }
                _ => return Closure::Clash,
            }
        }
        if self.cdcl.trail.len() > start && self.cdcl_propagate().is_some() {
            return Closure::Conflict;
        }
        Closure::Closed
    }

    /// Account for a level-0 segment that did not close: a clash or a
    /// conflict refutes the pins so far, and their nogood is learned so
    /// later calls refute the combination by propagation. Returns
    /// `Ok(false)`: the search space is empty.
    fn fail(&mut self, end: Closure, opts: &SolveOptions) -> Result<bool, AspError> {
        match end {
            Closure::Closed | Closure::Contradiction => {}
            Closure::Clash => {
                self.conflict_count += 1;
                self.lifetime_conflicts += 1;
                self.learn_assumptions();
            }
            Closure::Conflict => {
                // As a conflict with no decisions in the search loop.
                self.conflict_count += 1;
                self.lifetime_conflicts += 1;
                self.check_budget(opts)?;
                self.learn_assumptions();
            }
        }
        Ok(false)
    }

    /// Assign a sound level-0 consequence, detecting clashes.
    fn seed0(&mut self, var: u32, v: Val) -> bool {
        match self.cdcl.val[var as usize] {
            Val::Unknown => {
                self.cd_assign(var, v, Reason::Static);
                true
            }
            cur => cur == v,
        }
    }

    /// Debug builds, after a restored call closed its pins: the state
    /// equals a closure from scratch of the same base pins and the call's
    /// pins `assumptions[n_base..]` — values, levels and card counters —
    /// every `dep` flag is the one its reason gives, and the nogood store
    /// and its watches are consistent and settled. A `dep` flag may differ
    /// from the closure's: card propagation forces only elements whose
    /// guard holds, so the first reason found for a literal, and whether it
    /// cites a pin, depends on the order in which nogoods and cards fire.
    #[cfg(debug_assertions)]
    fn assert_closure_from_scratch(&mut self, n_base: usize) {
        assert!(self.debug_check_watches(), "store and watches disagree");
        assert!(
            (0..self.cdcl.ngs.len()).all(|ni| !self.cdcl.unsettled(ni)),
            "a nogood is watched at a satisfied literal beside an unfalsified one"
        );
        let kept = self.cdcl.clone();
        let proof = self.proof.take();
        let assumptions = self.assumptions.clone();
        let counts = (self.propagation_count, self.nogood_force_count);
        self.cdcl.reset(self.g.cards.len());
        self.assumptions.clear();
        let mut end = self.close_statics();
        self.assumptions.extend_from_slice(&assumptions[..n_base]);
        if end == Closure::Closed {
            end = self.close_pins(0);
        }
        self.assumptions.extend_from_slice(&assumptions[n_base..]);
        if end == Closure::Closed {
            end = self.close_pins(n_base);
        }
        let scratch = std::mem::replace(&mut self.cdcl, kept);
        self.proof = proof;
        self.assumptions = assumptions;
        (self.propagation_count, self.nogood_force_count) = counts;
        assert_eq!(end, Closure::Closed, "the closure from scratch fails");
        let cd = &self.cdcl;
        assert!(cd.lim.is_empty());
        assert_eq!(cd.trail.len(), scratch.trail.len(), "level-0 trail length");
        for &v in &cd.trail {
            let v = v as usize;
            assert_eq!(cd.val[v], scratch.val[v], "value of variable {v}");
            assert_eq!((cd.level[v], scratch.level[v]), (0, 0), "level of {v}");
            assert_eq!(
                cd.dep[v],
                cd.reason_dep(v as u32, cd.reason[v]),
                "dep flag of variable {v}"
            );
        }
        assert_eq!(cd.card_count, scratch.card_count, "card counters");
        assert_eq!(cd.elem_count, scratch.elem_count, "card element counters");
    }

    /// Learn the nogood of the current call's assumptions, refuted at
    /// level 0 (nothing without assumptions).
    fn learn_assumptions(&mut self) {
        if self.assumptions.is_empty() {
            return;
        }
        let mut lits = std::mem::take(&mut self.cdcl.an.learnt);
        lits.clear();
        lits.extend(self.assumptions.iter().map(|&(a, v)| code(a, v)));
        self.learn_stored(&mut lits, 1);
        self.cdcl.an.learnt = lits;
    }

    /// Store a learned nogood (deduplicated): units go to the replay list,
    /// longer nogoods into the watched database, watched at the two best
    /// candidates (see [`Cdcl::choose_watches`], which reorders `lits`).
    fn learn_stored(&mut self, lits: &mut [u32], lbd: u32) {
        if !self.cdcl.learned_fps.insert(fingerprint(lits)) {
            return;
        }
        if lits.len() == 1 {
            if self.proof.is_some() {
                self.plog(ProofStep::Learned(lits.to_vec()));
            }
            self.cdcl.learned_units.push(lits[0]);
            return;
        }
        self.cdcl.choose_watches(lits);
        self.add_learned_watched(lits, lbd);
    }

    /// Append a learned nogood to the watched store, watched at positions
    /// 0 and 1 as given.
    fn add_learned_watched(&mut self, lits: &[u32], lbd: u32) -> u32 {
        if self.proof.is_some() {
            self.plog(ProofStep::Learned(lits.to_vec()));
        }
        let cd = &mut self.cdcl;
        let ni = cd.ngs.len() as u32;
        cd.watches[lits[0] as usize].push(ni);
        cd.watches[lits[1] as usize].push(ni);
        cd.ngs.push(lits);
        cd.lbd.push(lbd);
        cd.ng_activity.push(0.0);
        ni
    }

    /// Export the learned-nogood database in a program-independent form,
    /// for transfer onto a solver over an *extension* of this ground
    /// program (same atom ids, a superset of the rules).
    ///
    /// Returns an empty state unless the program is tight: on non-tight
    /// programs the learned database may contain prefix nogoods from
    /// stability failures and unfounded-set antecedent resolvents, which
    /// are not consequences of the completion alone and do not survive a
    /// program change.
    ///
    /// Body variables are translated to their stable identity — the sorted
    /// deduplicated `(pos, neg)` atom-id key — since body *indices* depend
    /// on build order.
    #[must_use]
    pub fn export_learned(&self) -> LearnedState {
        let mut state = LearnedState::default();
        if !self.tight() {
            return state;
        }
        let n_atoms = self.cdcl.n_atoms as u32;
        let mut body_idx: HashMap<u32, u32> = HashMap::new();
        let mut convert = |state: &mut LearnedState, c: u32| -> LearnedLit {
            let var = code_var(c);
            let positive = code_val(c) == Val::True;
            if var < n_atoms {
                LearnedLit::Atom(var, positive)
            } else {
                let idx = *body_idx.entry(var).or_insert_with(|| {
                    state
                        .bodies
                        .push(self.cdcl.bodies[(var - n_atoms) as usize].clone());
                    (state.bodies.len() - 1) as u32
                });
                LearnedLit::Body(idx, positive)
            }
        };
        let cd = &self.cdcl;
        for (ni, &lbd) in (cd.first_learned..).zip(&cd.lbd) {
            let lits: Vec<LearnedLit> = cd.ngs.lits(ni).map(|c| convert(&mut state, c)).collect();
            state.nogoods.push((lits, lbd));
        }
        for &c in &self.cdcl.learned_units {
            let l = convert(&mut state, c);
            state.units.push(l);
        }
        state
    }

    /// Import a learned-nogood database exported from a solver over an
    /// earlier version of this program. Nogoods survive when every literal
    /// still refers to live structure: atom literals must be in range and
    /// not mention a `revoked` atom, body literals must resolve (by key)
    /// to a body of the current program whose atoms are likewise live.
    /// Everything else is dropped; duplicates are absorbed by the learned
    /// fingerprint set. Returns the number of nogoods retained.
    ///
    /// Refuses (returns 0) unless the current program is tight — the
    /// soundness argument for transfer rests on learned nogoods being
    /// resolvents of completion nogoods, which only holds there. Also
    /// refuses while a proof log is active: imported nogoods come from a
    /// *different* solver's derivation and are not RUP-justifiable here.
    pub fn import_learned(&mut self, state: &LearnedState, revoked: &[AtomId]) -> usize {
        if !self.tight() || state.is_empty() || self.proof.is_some() {
            return 0;
        }
        let n_atoms = self.cdcl.n_atoms as u32;
        let revoked: HashSet<u32> = revoked.iter().map(|a| a.0).collect();
        let key_to_var: HashMap<&(Vec<u32>, Vec<u32>), u32> = self
            .cdcl
            .bodies
            .iter()
            .enumerate()
            .map(|(i, key)| (key, n_atoms + i as u32))
            .collect();
        let resolved: Vec<Option<u32>> = state
            .bodies
            .iter()
            .map(|key| {
                if key
                    .0
                    .iter()
                    .chain(key.1.iter())
                    .any(|a| revoked.contains(a))
                {
                    return None;
                }
                key_to_var.get(key).copied()
            })
            .collect();
        let live_code = |l: &LearnedLit| -> Option<u32> {
            match *l {
                LearnedLit::Atom(a, positive) => {
                    if a >= n_atoms || revoked.contains(&a) {
                        return None;
                    }
                    Some(code(a, if positive { Val::True } else { Val::False }))
                }
                LearnedLit::Body(i, positive) => {
                    let var = resolved.get(i as usize).copied().flatten()?;
                    Some(code(var, if positive { Val::True } else { Val::False }))
                }
            }
        };
        // Debug-mode validity screen: the filtering above must already
        // guarantee these invariants for every translated candidate, so a
        // violation here is a translation bug, not bad input.
        #[cfg(debug_assertions)]
        let screen = |codes: &[u32], n_vars: usize| {
            for &c in codes {
                let var = code_var(c);
                assert!(
                    (var as usize) < n_vars,
                    "imported literal outside the session's variable range"
                );
                assert!(
                    var >= n_atoms || !revoked.contains(&var),
                    "imported literal mentions a revoked atom"
                );
            }
        };
        let mut kept = 0usize;
        for (lits, lbd) in &state.nogoods {
            let Some(mut codes) = lits.iter().map(&live_code).collect::<Option<Vec<u32>>>() else {
                continue;
            };
            if codes.len() < 2 {
                continue;
            }
            #[cfg(debug_assertions)]
            screen(&codes, self.cdcl.n_vars);
            #[cfg(debug_assertions)]
            let dup = self.cdcl.learned_fps.contains(&fingerprint(&codes));
            let before = self.cdcl.learned_count();
            self.learn_stored(&mut codes, *lbd);
            let grown = self.cdcl.learned_count() > before;
            #[cfg(debug_assertions)]
            assert!(!(dup && grown), "duplicate fingerprint re-imported");
            kept += usize::from(grown);
        }
        for l in &state.units {
            let Some(c) = live_code(l) else { continue };
            #[cfg(debug_assertions)]
            screen(&[c], self.cdcl.n_vars);
            #[cfg(debug_assertions)]
            let dup = self.cdcl.learned_fps.contains(&fingerprint(&[c]));
            let before = self.cdcl.learned_count();
            self.learn_stored(&mut [c], 1);
            let grown = self.cdcl.learned_count() > before;
            #[cfg(debug_assertions)]
            assert!(!(dup && grown), "duplicate fingerprint re-imported");
            kept += usize::from(grown);
        }
        if kept > 0 {
            // The imported nogoods may extend the resident closure.
            self.cdcl.resident = Resident::Stale;
        }
        kept
    }

    /// Assign a variable, recording level, reason and assumption
    /// dependency, and update and queue the cardinality constraints that
    /// mention it.
    fn cd_assign(&mut self, var: u32, v: Val, reason: Reason) {
        debug_assert_eq!(self.cdcl.val[var as usize], Val::Unknown);
        let dep = self.cdcl.lim.is_empty() && self.cdcl.reason_dep(var, reason);
        let cd = &mut self.cdcl;
        cd.val[var as usize] = v;
        cd.level[var as usize] = cd.lim.len() as u32;
        cd.reason[var as usize] = reason;
        cd.dep[var as usize] = dep;
        cd.trail.push(var);
        self.propagation_count += 1;
        if let Reason::Nogood(ni) = reason {
            if ni as usize >= self.cdcl.first_learned {
                self.nogood_force_count += 1;
            }
        }
        if (var as usize) < self.cdcl.n_atoms {
            self.cdcl.assigned_atoms += 1;
            self.cdcl.card_update(var, v, true);
            self.cdcl.cone_dirty |= self.cone.reads.get(var as usize) == Some(&true);
        }
    }

    /// Propagate to fixpoint: watched nogoods, then dirty cardinality
    /// constraints, then (non-tight only) the unfounded backstop over the
    /// cone. Returns the conflict, or `None` at fixpoint.
    fn cdcl_propagate(&mut self) -> Option<Conflict> {
        loop {
            while self.cdcl.qhead < self.cdcl.trail.len() {
                let var = self.cdcl.trail[self.cdcl.qhead];
                self.cdcl.qhead += 1;
                let c = code(var, self.cdcl.val[var as usize]);
                if let Some(confl) = self.propagate_watches(c) {
                    return Some(confl);
                }
            }
            if let Some(ci) = self.cdcl.card_queue.pop() {
                self.cdcl.card_dirty[ci as usize] = false;
                if let Some(confl) = self.propagate_card(ci as usize) {
                    return Some(confl);
                }
                continue;
            }
            if self.cone.is_empty() {
                return None;
            }
            if !self.cdcl.cone_dirty {
                // A pass over the values of a pass that forced nothing
                // would force nothing either; debug builds run it anyway.
                debug_assert!(
                    self.backstop_is_idle(),
                    "a skipped unfounded-set pass would force an atom"
                );
                return None;
            }
            self.cdcl.cone_dirty = false;
            let before = self.cdcl.trail.len();
            if let Some(confl) = self.unfounded_backstop() {
                return Some(confl);
            }
            if self.cdcl.trail.len() == before {
                return None;
            }
        }
    }

    /// Visit every nogood watching the just-satisfied literal `c`. Each
    /// visit swaps the pair so that `c` sits at position 1, inert visits
    /// included: the literal order is part of the search (it orders
    /// conflict analysis and the watch choices of later visits).
    fn propagate_watches(&mut self, c: u32) -> Option<Conflict> {
        let mut ws = std::mem::take(&mut self.cdcl.watches[c as usize]);
        let mut i = 0usize;
        while i < ws.len() {
            let ni = ws[i];
            let action = {
                let Cdcl { ngs, val, .. } = &mut self.cdcl;
                let pair = &mut ngs.pair[ni as usize];
                if pair[0] == c {
                    pair.swap(0, 1);
                }
                debug_assert_eq!(pair[1], c);
                let w0 = pair[0];
                let w0v = val[code_var(w0) as usize];
                if w0v == negate(code_val(w0)) {
                    WatchAction::Inert
                } else {
                    // Look for a non-satisfied replacement watch.
                    let (from, to) = (
                        ngs.rest_start[ni as usize] as usize,
                        ngs.rest_start[ni as usize + 1] as usize,
                    );
                    let rest = &mut ngs.rest[from..to];
                    match rest
                        .iter()
                        .position(|&lk| val[code_var(lk) as usize] != code_val(lk))
                    {
                        Some(k) => {
                            std::mem::swap(&mut pair[1], &mut rest[k]);
                            WatchAction::Moved(pair[1])
                        }
                        None if w0v == Val::Unknown => WatchAction::Force(w0),
                        None => WatchAction::Conflict,
                    }
                }
            };
            match action {
                WatchAction::Inert => i += 1,
                WatchAction::Moved(newc) => {
                    ws.swap_remove(i);
                    self.cdcl.watches[newc as usize].push(ni);
                }
                WatchAction::Force(w0) => {
                    self.cd_assign(code_var(w0), negate(code_val(w0)), Reason::Nogood(ni));
                    i += 1;
                }
                WatchAction::Conflict => {
                    self.cdcl.watches[c as usize] = ws;
                    return Some(Conflict::Nogood(ni));
                }
            }
        }
        self.cdcl.watches[c as usize] = ws;
        None
    }

    /// Propagate one dequeued cardinality constraint. Its counters decide
    /// in O(1) whether a bound is tight or violated; only then is the card
    /// scanned, once, for the event's witness, which every literal the
    /// event forces shares. A violation returns the conflict.
    fn propagate_card(&mut self, ci: usize) -> Option<Conflict> {
        if !self.cdcl.card_count[ci].event(&self.g.cards[ci]) {
            return None;
        }
        let mut scratch = std::mem::take(&mut self.cdcl.card_scratch);
        let confl = self.card_event(ci, &mut scratch);
        self.cdcl.card_scratch = scratch;
        confl
    }

    /// The event of card `ci`, whose counters show a tight or violated
    /// bound, computed in the reused buffers of `s`.
    fn card_event(&mut self, ci: usize, s: &mut CardScratch) -> Option<Conflict> {
        let g = self.g;
        let c = &g.cards[ci];
        let count = self.cdcl.card_count[ci];
        let first_elem = self.cdcl.elem_start[ci];
        let v = |s: &Self, a: AtomId| s.cdcl.val[a.index()];
        debug_assert_eq!(
            count.body_unknown as usize,
            c.pos
                .iter()
                .chain(&c.neg)
                .filter(|&&a| v(self, a) == Val::Unknown)
                .count()
        );
        let CardScratch {
            witness,
            held,
            out,
            forcible,
        } = s;
        witness.clear();
        held.clear();
        out.clear();
        forcible.clear();
        // The satisfied body literals and the open one, if any.
        let mut body_unknown: Option<u32> = None;
        for (&a, holds) in c
            .pos
            .iter()
            .map(|p| (p, Val::True))
            .chain(c.neg.iter().map(|n| (n, Val::False)))
        {
            match v(self, a) {
                Val::Unknown => body_unknown = Some(code(a.0, holds)),
                x => {
                    debug_assert_eq!(x, holds, "a failed body literal stops the event");
                    witness.push(code(a.0, holds));
                }
            }
        }
        for (k, e) in c.elements.iter().enumerate() {
            let ei = first_elem + k as u32;
            debug_assert_eq!(
                self.cdcl.elem_count[ei as usize].status(),
                self.scanned_status(e),
                "card element counters out of step with the assignment"
            );
            match self.cdcl.elem_count[ei as usize].status() {
                ElemStatus::Held => {
                    held.push(code(e.atom.0, Val::True));
                    held.extend_from_slice(self.cdcl.guard(ei));
                }
                ElemStatus::Out => {
                    // The atom's falsity, else the first failing guard
                    // literal.
                    let lit = if v(self, e.atom) == Val::False {
                        code(e.atom.0, Val::False)
                    } else if let Some(&p) = e.guard_pos.iter().find(|&&p| v(self, p) == Val::False)
                    {
                        code(p.0, Val::False)
                    } else {
                        let n = e.guard_neg.iter().find(|&&n| v(self, n) == Val::True);
                        code(
                            n.expect("an out element has a failing literal").0,
                            Val::True,
                        )
                    };
                    out.push(lit);
                }
                ElemStatus::Forcible => forcible.push(ei),
                ElemStatus::Open => {}
            }
        }
        let max_possible = c.elements.len() as u32 - count.out;
        let over = count.held > c.upper;
        let violated = over || max_possible < c.lower;
        if violated {
            // Body satisfied (but for `body_unknown`) and the bound
            // provably violated: the held literals explain an upper-bound
            // violation, the out literals a lower-bound one.
            witness.extend_from_slice(if over { held } else { out });
            witness.sort_unstable();
            witness.dedup();
            let Some(unk) = body_unknown else {
                self.log_card(ci, witness, &[]);
                self.cdcl.conflict.clear();
                self.cdcl.conflict.extend_from_slice(witness);
                return Some(Conflict::Lits);
            };
            // The body must be falsified.
            self.log_card(ci, witness, &[unk]);
            let w = self.cdcl.push_witness(witness);
            self.cd_assign(code_var(unk), negate(code_val(unk)), Reason::Ante(w));
            return None;
        }
        debug_assert!(body_unknown.is_none() && !forcible.is_empty());
        // A tight upper bound falsifies every forcible element; the forced
        // element's guard joins its explanation — "atom true" alone does
        // not make the element held. A tight lower bound makes every
        // forcible element true.
        let tight_upper = count.held == c.upper;
        witness.extend_from_slice(if tight_upper { held } else { out });
        witness.sort_unstable();
        witness.dedup();
        let mut shared: Option<u32> = None;
        for &ei in forcible.iter() {
            let a = c.elements[(ei - first_elem) as usize].atom;
            // An atom counted in two elements is forced once.
            if self.cdcl.val[a.index()] != Val::Unknown {
                continue;
            }
            let w = *shared.get_or_insert_with(|| self.cdcl.push_witness(witness));
            if tight_upper {
                if self.proof.is_some() {
                    let mut extra = self.cdcl.guard(ei).to_vec();
                    extra.push(code(a.0, Val::True));
                    self.log_card(ci, witness, &extra);
                }
                self.cd_assign(a.0, Val::False, Reason::Guarded(w, ei));
            } else {
                self.log_card(ci, witness, &[code(a.0, Val::False)]);
                self.cd_assign(a.0, Val::True, Reason::Ante(w));
            }
        }
        None
    }

    /// An element's status read off the assignment (the counters' oracle
    /// in debug builds).
    fn scanned_status(&self, e: &crate::program::CardElement) -> ElemStatus {
        let v = |a: &AtomId| self.cdcl.val[a.index()];
        let lits = e
            .guard_pos
            .iter()
            .map(|p| (v(p), Val::True))
            .chain(e.guard_neg.iter().map(|n| (v(n), Val::False)));
        let mut guard_true = true;
        for (x, holds) in lits {
            if x == negate(holds) {
                return ElemStatus::Out;
            }
            guard_true &= x == holds;
        }
        match v(&e.atom) {
            Val::False => ElemStatus::Out,
            _ if !guard_true => ElemStatus::Open,
            Val::True => ElemStatus::Held,
            Val::Unknown => ElemStatus::Forcible,
        }
    }

    /// Log one cardinality inference (`witness` plus `extra`, sorted and
    /// deduplicated) when a proof is being recorded.
    fn log_card(&mut self, ci: usize, witness: &[u32], extra: &[u32]) {
        if self.proof.is_none() {
            return;
        }
        let mut lits = witness.to_vec();
        lits.extend_from_slice(extra);
        lits.sort_unstable();
        lits.dedup();
        self.plog(ProofStep::Card {
            card: ci as u32,
            lits,
        });
    }

    /// The assumption and decision literals of the current state as codes,
    /// into `out` — the sound (if coarse) antecedent for unfounded-set
    /// inferences.
    fn prefix_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.assumptions.iter().map(|&(a, v)| code(a, v)));
        for &start in &self.cdcl.lim {
            let dvar = self.cdcl.trail[start];
            out.push(code(dvar, self.cdcl.val[dvar as usize]));
        }
    }

    /// Unfounded-set backstop for non-tight programs: falsify every atom
    /// outside the can-be-true closure, with the current prefix as the
    /// antecedent (every closure verdict is a sound consequence of it).
    /// Runs at a propagation fixpoint, where the closure is computed over
    /// the unfounded cone alone (see [`Cone::close`]); outside the cone
    /// only false atoms are outside the closure. The cone atoms are
    /// visited in ascending id order.
    fn unfounded_backstop(&mut self) -> Option<Conflict> {
        self.cone.close(&self.cdcl.val);
        debug_assert!(
            self.cone_closure_matches_program(),
            "the cone closure differs from the whole program's closure"
        );
        // The prefix, once needed, and its witness once an atom is forced.
        let mut prefix = std::mem::take(&mut self.cdcl.conflict);
        let mut have_prefix = false;
        let mut shared: Option<u32> = None;
        let mut confl = None;
        for k in 0..self.cone.atoms.len() {
            if self.cone.closed[k] {
                continue;
            }
            let i = self.cone.atoms[k];
            let val = self.cdcl.val[i as usize];
            if val == Val::False {
                continue;
            }
            if !have_prefix {
                self.prefix_into(&mut prefix);
                have_prefix = true;
            }
            if val == Val::True {
                prefix.push(code(i, Val::True));
                if self.proof.is_some() {
                    self.plog(ProofStep::Unfounded(prefix.clone()));
                }
                confl = Some(Conflict::Lits);
                break;
            }
            // As a nogood the inference carries the *satisfied* form of
            // its target — `(i, True)` is what no stable model under this
            // prefix can hold. The witness is the prefix alone: conflict
            // analysis skips the target's own variable.
            if self.proof.is_some() {
                let mut ng = prefix.clone();
                ng.push(code(i, Val::True));
                self.plog(ProofStep::Unfounded(ng));
            }
            let w = *shared.get_or_insert_with(|| self.cdcl.push_witness(&prefix));
            self.cd_assign(i, Val::False, Reason::Ante(w));
        }
        self.cdcl.conflict = prefix;
        confl
    }

    /// Whether an unfounded-set pass would force nothing: every cone atom
    /// outside the closure is false already.
    fn backstop_is_idle(&mut self) -> bool {
        self.cone.close(&self.cdcl.val);
        let cone = &self.cone;
        (cone.atoms.iter().zip(&cone.closed))
            .all(|(&a, &closed)| closed || self.cdcl.val[a as usize] == Val::False)
    }

    /// The closure over the whole program, by naive fixpoint iteration
    /// over every rule, equals the cone closure with every atom outside the
    /// cone in it iff not false (the backstop's oracle in debug builds).
    fn cone_closure_matches_program(&self) -> bool {
        let val = &self.cdcl.val;
        let mut in_closure = vec![false; self.cdcl.n_atoms];
        let mut changed = true;
        while changed {
            changed = false;
            for r in &self.g.rules {
                let h = match r.head {
                    GroundHead::Atom(h) | GroundHead::Choice(h) => h,
                    GroundHead::None => continue,
                };
                if in_closure[h.index()] || val[h.index()] == Val::False {
                    continue;
                }
                let body_possible = r
                    .pos
                    .iter()
                    .all(|&p| val[p.index()] != Val::False && in_closure[p.index()])
                    && r.neg.iter().all(|&q| val[q.index()] != Val::True);
                if body_possible {
                    in_closure[h.index()] = true;
                    changed = true;
                }
            }
        }
        let mut cone = self.cone.atoms.iter().zip(&self.cone.closed).peekable();
        (0..self.cdcl.n_atoms).all(|i| {
            let cone_verdict = match cone.peek() {
                Some(&(&a, &closed)) if a as usize == i => {
                    cone.next();
                    closed
                }
                _ => val[i] != Val::False,
            };
            cone_verdict == in_closure[i]
        })
    }

    /// Open a new decision level.
    fn new_level(&mut self, flip: bool) {
        self.cdcl.lim.push(self.cdcl.trail.len());
        self.cdcl.ante_lim.push(self.cdcl.antes.len() as u32);
        self.cdcl.flipped.push(flip);
        self.cdcl.flips += usize::from(flip);
    }

    /// Undo every assignment above decision level `to`, saving phases,
    /// putting the atoms back into the branching heap and dropping the
    /// witnesses of the undone levels.
    fn backjump(&mut self, to: usize) {
        let cd = &mut self.cdcl;
        if to < cd.lim.len() {
            // Back to the state at which level `to + 1` was opened: a
            // propagation fixpoint.
            cd.undo_to(cd.lim[to], true);
            cd.cone_dirty = false;
        }
        if let Some(&w) = cd.ante_lim.get(to) {
            cd.antes.truncate(w as usize);
            cd.ante_lits
                .truncate(cd.antes.last().map_or(0, |&(_, end)| end as usize));
        }
        cd.ante_lim.truncate(to);
        cd.lim.truncate(to);
        if cd.flips > 0 {
            cd.flips -= cd.flipped[to.min(cd.flipped.len())..]
                .iter()
                .filter(|&&f| f)
                .count();
        }
        cd.flipped.truncate(to);
        // A literal may have been asserted and not yet propagated; never
        // skip it by advancing qhead past the shortened trail.
        cd.qhead = cd.qhead.min(cd.trail.len());
    }

    /// Flip the deepest unflipped decision (chronological enumeration
    /// movement). Returns false when every decision is exhausted.
    fn flip_deepest(&mut self) -> bool {
        loop {
            let levels = self.cdcl.lim.len();
            if levels == 0 {
                return false;
            }
            let dvar = self.cdcl.trail[self.cdcl.lim[levels - 1]];
            let was = self.cdcl.val[dvar as usize];
            let was_flipped = self.cdcl.flipped[levels - 1];
            self.backjump(levels - 1);
            if !was_flipped {
                self.new_level(true);
                self.cd_assign(dvar, negate(was), Reason::Decision);
                return true;
            }
        }
    }

    /// EVSIDS branching: the unassigned atom with the highest activity,
    /// choice atoms then lowest index breaking ties. `None` when every atom
    /// is assigned (body variables follow by propagation, but sweep them
    /// too so the assignment is total).
    fn pick_branch(&mut self) -> Option<u32> {
        let cd = &mut self.cdcl;
        let n_atoms = cd.n_atoms as u32;
        let mut picked = None;
        // Once every atom is assigned the heap holds only assigned ones:
        // draining it would sort them all for nothing.
        if cd.assigned_atoms < cd.n_atoms {
            if !cd.branch.is_built() {
                let val = &cd.val;
                cd.branch
                    .build((0..n_atoms).filter(|&a| val[a as usize] == Val::Unknown));
            }
            // Every unassigned atom is in the heap, so this stops at one.
            while let Some(a) = cd.branch.pop() {
                if cd.val[a as usize] == Val::Unknown {
                    picked = Some(a);
                    break;
                }
            }
        }
        debug_assert_eq!(
            picked,
            cd.branch
                .scan((0..n_atoms).filter(|&a| cd.val[a as usize] == Val::Unknown)),
            "the branching heap disagrees with the linear scan"
        );
        if picked.is_some() {
            return picked;
        }
        // All atoms assigned; assign any straggler body variable (possible
        // when its rule bodies were never touched by propagation).
        (cd.n_atoms..cd.n_vars)
            .map(|v| v as u32)
            .find(|&v| cd.val[v as usize] == Val::Unknown)
    }

    /// Whether any decision level is a flip (enumeration mode: restarts off,
    /// movement is chronological).
    fn in_flip_mode(&self) -> bool {
        debug_assert_eq!(
            self.cdcl.flips,
            self.cdcl.flipped.iter().filter(|&&f| f).count()
        );
        self.cdcl.flips > 0
    }

    /// Handle a conflict: learn, backjump (or flip in enumeration mode),
    /// maybe restart. `Ok(false)` means the search space is exhausted.
    fn handle_conflict(&mut self, confl: Conflict, opts: &SolveOptions) -> Result<bool, AspError> {
        self.conflict_count += 1;
        self.lifetime_conflicts += 1;
        self.check_budget(opts)?;
        if self.cdcl.lim.is_empty() {
            // Conflict with no decisions: refuted under the assumptions
            // alone (or outright). Learn the assumption nogood so later
            // calls refute it by propagation.
            self.learn_assumptions();
            return Ok(false);
        }
        let flipping = self.in_flip_mode();
        let (bl, lbd) = self.cdcl.analyze(confl, flipping);
        let mut lits = std::mem::take(&mut self.cdcl.an.learnt);
        if flipping {
            // Enumeration mode: learn the 1UIP nogood for pruning but move
            // chronologically — exhaustiveness relies on the flip trail.
            // Restarts (and with them learned-DB reduction) stay off, and
            // `analyze` skips activity bumps/decay: dropping pruning
            // nogoods or reshuffling the heuristic mid-enumeration costs
            // more than either is worth when movement is chronological.
            let alive = self.flip_deepest();
            self.learn_stored(&mut lits, lbd);
            self.cdcl.an.learnt = lits;
            return Ok(alive);
        }
        self.backjump(bl);
        if lits.len() == 1 {
            let c = lits[0];
            if self.cdcl.learned_fps.insert(fingerprint(&lits)) {
                if self.proof.is_some() {
                    self.plog(ProofStep::Learned(vec![c]));
                }
                self.cdcl.learned_units.push(c);
            }
            if self.cdcl.val[code_var(c) as usize] == Val::Unknown {
                self.cd_assign(code_var(c), negate(code_val(c)), Reason::Static);
            }
        } else {
            // Watch the UIP (position 0) and a deepest-level learned
            // literal (position 1): the standard asserting setup — every
            // other literal stays satisfied until the backjump level is
            // undone.
            let mut deepest = 1usize;
            for i in 2..lits.len() {
                if self.cdcl.level[code_var(lits[i]) as usize]
                    > self.cdcl.level[code_var(lits[deepest]) as usize]
                {
                    deepest = i;
                }
            }
            lits.swap(1, deepest);
            let uip = lits[0];
            // Always stored (even when a fingerprint collision says a copy
            // may exist): the assertion needs a resolvable reason, and a
            // rare duplicate in the database is sound.
            self.cdcl.learned_fps.insert(fingerprint(&lits));
            let ni = self.add_learned_watched(&lits, lbd);
            if self.cdcl.val[code_var(uip) as usize] == Val::Unknown {
                self.cd_assign(code_var(uip), negate(code_val(uip)), Reason::Nogood(ni));
            }
        }
        self.cdcl.an.learnt = lits;
        self.cdcl.conflicts_since_restart += 1;
        if self.cdcl.conflicts_since_restart >= luby(self.cdcl.restart_seq) * self.restart_interval
        {
            self.cdcl.conflicts_since_restart = 0;
            self.cdcl.restart_seq += 1;
            self.restart_count += 1;
            self.backjump(0);
            self.maybe_reduce_db();
        }
        Ok(true)
    }

    /// LBD-based learned-database reduction, run at level 0 after restarts:
    /// keep locked nogoods (a trail reason), low-LBD nogoods, and the more
    /// active half of the rest. Replaces the former flat 4096-entry cap.
    fn maybe_reduce_db(&mut self) {
        debug_assert!(self.cdcl.lim.is_empty());
        let first = self.cdcl.first_learned;
        let learned = self.cdcl.ngs.len() - first;
        let threshold = 4000 + 2000 * self.cdcl.reduce_count as usize;
        if learned <= threshold {
            return;
        }
        // Learned nogoods by their position `k` after `first`.
        let learned_pos = |r: Reason| match r {
            Reason::Nogood(ni) => (ni as usize).checked_sub(first),
            _ => None,
        };
        let mut locked = vec![false; learned];
        for &v in &self.cdcl.trail {
            if let Some(k) = learned_pos(self.cdcl.reason[v as usize]) {
                locked[k] = true;
            }
        }
        // Rank the unlocked, high-LBD candidates; drop the worse half.
        let (lbd, activity) = (&self.cdcl.lbd, &self.cdcl.ng_activity);
        let mut candidates: Vec<usize> =
            (0..learned).filter(|&k| !locked[k] && lbd[k] > 3).collect();
        candidates.sort_by(|&a, &b| {
            lbd[a].cmp(&lbd[b]).then(
                activity[b]
                    .partial_cmp(&activity[a])
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let drop_from = candidates.len() / 2;
        if drop_from == candidates.len() {
            return;
        }
        let mut dropped = vec![false; learned];
        for &k in &candidates[drop_from..] {
            dropped[k] = true;
        }
        // Deletions are logged in store order, so the certificate text
        // is the same from run to run.
        if self.proof.is_some() {
            for k in (0..learned).filter(|&k| dropped[k]) {
                let lits = self.cdcl.ngs.lits(first + k).collect();
                self.plog(ProofStep::Delete(lits));
            }
        }
        // Compact the store and its metadata, remap reasons (statics keep
        // their indices: they all precede `first`) and rebuild every
        // watch list.
        let cd = &mut self.cdcl;
        let mut remap: Vec<u32> = Vec::with_capacity(learned);
        let mut next = first as u32;
        for &d in &dropped {
            remap.push(if d { u32::MAX } else { next });
            next += u32::from(!d);
        }
        for r in &mut cd.reason {
            if let Some(k) = learned_pos(*r) {
                debug_assert_ne!(remap[k], u32::MAX, "locked nogood dropped");
                *r = Reason::Nogood(remap[k]);
            }
        }
        cd.ngs.compact(first, &dropped);
        let mut kept = 0;
        for k in (0..learned).filter(|&k| !dropped[k]) {
            cd.lbd[kept] = cd.lbd[k];
            cd.ng_activity[kept] = cd.ng_activity[k];
            kept += 1;
        }
        cd.lbd.truncate(kept);
        cd.ng_activity.truncate(kept);
        cd.rebuild_watches();
        cd.reduce_count += 1;
    }

    /// The CDCL search loop: propagate, branch by EVSIDS with phase saving,
    /// analyze conflicts to 1UIP with Luby restarts; switch to
    /// chronological flips once enumeration needs to move past a model.
    /// `on_model` sees the solver at each stable model (its truth values
    /// in `truth`) and returns `false` to stop the search early; `prune` returning `true` abandons
    /// the current branch (branch-and-bound). Returns whether the search
    /// space was exhausted.
    pub(super) fn search(
        &mut self,
        opts: &SolveOptions,
        on_model: &mut dyn FnMut(&Self) -> bool,
        prune: &mut dyn FnMut(&Self) -> bool,
    ) -> Result<bool, AspError> {
        loop {
            if let Some(confl) = self.cdcl_propagate() {
                if !self.handle_conflict(confl, opts)? {
                    return Ok(true);
                }
                continue;
            }
            if prune(self) {
                // Incumbent-dependent: never learned, chronological move.
                self.bound_prune_count += 1;
                if !self.flip_deepest() {
                    return Ok(true);
                }
                continue;
            }
            match self.pick_branch() {
                Some(v) => {
                    self.decision_count += 1;
                    self.check_budget(opts)?;
                    let phase = self.cdcl.saved[v as usize];
                    let phase = if phase == Val::Unknown {
                        Val::True
                    } else {
                        phase
                    };
                    self.new_level(false);
                    self.cd_assign(v, phase, Reason::Decision);
                }
                None => {
                    if self.check_candidate() {
                        if self.certify_call && self.proof.is_some() {
                            let atoms: Vec<u32> = (0..self.cdcl.n_atoms as u32)
                                .filter(|&a| self.cdcl.val[a as usize] == Val::True)
                                .collect();
                            self.plog(ProofStep::Model {
                                cost: self.model_cost(),
                                atoms,
                            });
                        }
                        if !on_model(self) {
                            return Ok(false);
                        }
                        if !self.flip_deepest() {
                            return Ok(true);
                        }
                    } else {
                        // Sound prefix refutation (assignment is a fixpoint
                        // of sound propagation yet not stable): a conflict
                        // over the prefix literals.
                        let mut prefix = std::mem::take(&mut self.cdcl.conflict);
                        self.prefix_into(&mut prefix);
                        if self.proof.is_some() {
                            self.plog(ProofStep::Stability(prefix.clone()));
                        }
                        self.cdcl.conflict = prefix;
                        if !self.handle_conflict(Conflict::Lits, opts)? {
                            return Ok(true);
                        }
                    }
                }
            }
        }
    }

    /// Start the proof log: drop the (no longer justifiable) learned
    /// database and record the translation — body declarations, completion
    /// axioms, static units and the well-founded backbone — that every
    /// later derivation step builds on.
    fn init_proof(&mut self) {
        // Pre-existing learned nogoods were derived before logging began;
        // the checker could never justify them, so search restarts cold.
        self.clear_learned();
        let cd = &self.cdcl;
        let mut log = ProofLog {
            n_atoms: cd.n_atoms as u32,
            bodies: cd.bodies.clone(),
            steps: Vec::new(),
            truncated: false,
        };
        if cd.root_unsat {
            log.push(ProofStep::Axiom(Vec::new()));
        }
        for ni in 0..cd.ngs.len() {
            log.push(ProofStep::Axiom(cd.ngs.lits(ni).collect()));
        }
        for &(var, v) in &cd.units {
            log.push(ProofStep::Axiom(vec![code(var, negate(v))]));
        }
        for &(a, v) in &self.wfm_seeds {
            log.push(ProofStep::Wfm(code(a, negate(v))));
        }
        self.proof = Some(log);
        self.call_seq = 0;
    }

    /// Begin a certified solve call: lazily initialize the log and tag the
    /// call with the base pins and its own, so its terminal (model /
    /// unsat) steps are scoped to them.
    pub(super) fn begin_certified_call(&mut self, assumptions: &[Lit]) {
        if self.proof.is_none() {
            self.init_proof();
        }
        let lits: Vec<u32> = (self.base.iter().copied())
            .chain(assumptions.iter().map(|&l| pinned(l)))
            .map(|(a, v)| code(a, v))
            .collect();
        let seq = self.call_seq;
        self.call_seq += 1;
        self.plog(ProofStep::Call {
            seq,
            assumptions: lits,
        });
        self.certify_call = true;
    }

    /// Mirror a full learned-database clear into the proof log as `Delete`
    /// steps. No-op without an active log.
    pub(super) fn log_learned_clear(&mut self) {
        if self.proof.is_none() {
            return;
        }
        let cd = &self.cdcl;
        let dels: Vec<Vec<u32>> = (cd.first_learned..cd.ngs.len())
            .map(|ni| cd.ngs.lits(ni).collect())
            .chain(cd.learned_units.iter().map(|&c| vec![c]))
            .collect();
        for d in dels {
            self.plog(ProofStep::Delete(d));
        }
    }

    /// Invariant of the nogood store, checked by tests and by debug
    /// builds at each restored call: the arena is tiled by the nogoods'
    /// spans in store order, every learned nogood has its LBD and
    /// activity, and every nogood is watched exactly at its pair.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn debug_check_watches(&self) -> bool {
        let cd = &self.cdcl;
        let ngs = &cd.ngs;
        let tiled = ngs.rest_start.len() == ngs.len() + 1
            && ngs.rest_start[0] == 0
            && ngs.rest_start.windows(2).all(|w| w[0] <= w[1])
            && ngs.rest_start[ngs.len()] as usize == ngs.rest.len();
        let learned = ngs.len() - cd.first_learned;
        if !tiled || cd.lbd.len() != learned || cd.ng_activity.len() != learned {
            return false;
        }
        for (ni, [w0, w1]) in ngs.pair.iter().enumerate() {
            let ni = ni as u32;
            if !cd.watches[*w0 as usize].contains(&ni) || !cd.watches[*w1 as usize].contains(&ni) {
                return false;
            }
        }
        let total: usize = cd.watches.iter().map(Vec::len).sum();
        total == 2 * ngs.len()
    }
}
