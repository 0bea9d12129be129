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

use std::collections::{HashMap, HashSet};

use super::{Lit, SolveOptions, Solver, Val};
use crate::error::AspError;
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
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone, Copy, Default)]
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

/// One stored nogood. `lits[0]` and `lits[1]` are the watched positions.
#[derive(Debug)]
pub(super) struct Nogood {
    lits: Vec<u32>,
    /// Literal-block distance at learn time (static nogoods: 0).
    lbd: u32,
    /// Bumped when the nogood participates in conflict analysis.
    activity: f64,
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
        Cone {
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
#[derive(Debug)]
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
    ngs: Vec<Nogood>,
    /// Index of the first learned nogood in `ngs`.
    first_learned: usize,
    /// Learned unit nogoods (single literal codes) — too short to watch,
    /// replayed as level-0 forcings at each `prepare`.
    learned_units: Vec<u32>,
    /// Fingerprint dedup over learned nogoods and units.
    learned_fps: HashSet<u64>,
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
    /// Reusable buffer for the explanation conflict analysis resolves.
    explain_buf: Vec<u32>,
    /// Most witnesses the store has held at once, and witnesses created,
    /// over the solver's lifetime.
    #[cfg(test)]
    pub(super) ante_peak: usize,
    #[cfg(test)]
    pub(super) ante_created: usize,
    /// EVSIDS activity per variable.
    activity: Vec<f64>,
    /// Current activity increment (grows by 1/0.95 per conflict).
    var_inc: f64,
    /// Per atom: appears as a choice head (preferred branching tie-break).
    is_choice: Vec<bool>,
    /// Saved phase per variable (initially `True`, matching the engine's
    /// try-true-first enumeration order).
    pub(super) saved: Vec<Val>,
    /// Scratch marks for conflict analysis.
    seen: Vec<bool>,
    /// Conflicts since the last restart.
    conflicts_since_restart: u64,
    /// Index into the Luby sequence for the next restart.
    restart_seq: u64,
    /// Completed learned-DB reductions (raises the next threshold).
    reduce_count: u64,
    /// Body variable keys, by body index (`var = n_atoms + index`): the
    /// sorted deduplicated `(pos, neg)` atom-id lists. Retained so learned
    /// nogoods can be exported/imported across program extensions — body
    /// *indices* are build-order dependent, body *keys* are the stable
    /// identity.
    bodies: Vec<(Vec<u32>, Vec<u32>)>,
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
        let mut statics: Vec<Vec<u32>> = Vec::new();

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
                        _ => statics.push(lits),
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
        for (bi, (pos, neg)) in bodies.iter().enumerate() {
            let beta = (n_atoms + bi) as u32;
            // Body true when every literal holds: {(β,F)} ∪ B.
            let mut omega: Vec<u32> = Vec::with_capacity(1 + pos.len() + neg.len());
            omega.push(code(beta, Val::False));
            omega.extend(pos.iter().map(|&p| code(p, Val::True)));
            omega.extend(neg.iter().map(|&n| code(n, Val::False)));
            statics.push(omega);
            // Body false when any literal fails: {(β,T), l̄} per literal.
            for &p in pos {
                statics.push(vec![code(beta, Val::True), code(p, Val::False)]);
            }
            for &n in neg {
                statics.push(vec![code(beta, Val::True), code(n, Val::True)]);
            }
        }
        // Forward inference for normal heads: {(h,F),(β,T)}, in a fixed
        // order so the search is the same run to run.
        head_forward.sort_unstable();
        head_forward.dedup();
        for &(h, beta) in &head_forward {
            statics.push(vec![code(h, Val::False), code(beta, Val::True)]);
        }
        // Support nogoods: a defined non-unconditional atom needs a body.
        for a in 0..n_atoms as u32 {
            if !defined[a as usize] {
                units.push((a, Val::False));
            } else if !unconditional[a as usize] && !supports[a as usize].is_empty() {
                let mut lits = vec![code(a, Val::True)];
                lits.extend(
                    supports[a as usize]
                        .iter()
                        .map(|&beta| code(beta, Val::False)),
                );
                statics.push(lits);
            }
        }

        let mut is_choice = vec![false; n_atoms];
        for r in &g.rules {
            if let GroundHead::Choice(h) = r.head {
                is_choice[h.index()] = true;
            }
        }

        let mut watches: Vec<Vec<u32>> = vec![Vec::new(); n_vars * 2];
        let mut ngs: Vec<Nogood> = Vec::with_capacity(statics.len());
        for lits in statics {
            debug_assert!(lits.len() >= 2);
            let ni = ngs.len() as u32;
            watches[lits[0] as usize].push(ni);
            watches[lits[1] as usize].push(ni);
            ngs.push(Nogood {
                lits,
                lbd: 0,
                activity: 0.0,
            });
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
            qhead: 0,
            lim: Vec::new(),
            flipped: Vec::new(),
            flips: 0,
            first_learned: ngs.len(),
            ngs,
            learned_units: Vec::new(),
            learned_fps: HashSet::new(),
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
            explain_buf: Vec::new(),
            #[cfg(test)]
            ante_peak: 0,
            #[cfg(test)]
            ante_created: 0,
            activity: vec![0.0; n_vars],
            var_inc: 1.0,
            is_choice,
            saved: vec![Val::True; n_vars],
            seen: vec![false; n_vars],
            conflicts_since_restart: 0,
            restart_seq: 1,
            reduce_count: 0,
            bodies,
        }
    }

    /// Learned nogoods currently retained (watched plus units).
    pub(super) fn learned_count(&self) -> usize {
        (self.ngs.len() - self.first_learned) + self.learned_units.len()
    }

    /// Drop every learned nogood and rebuild the static watch lists.
    pub(super) fn clear_learned(&mut self) {
        self.ngs.truncate(self.first_learned);
        self.learned_units.clear();
        self.learned_fps.clear();
        for w in &mut self.watches {
            w.clear();
        }
        for (ni, ng) in self.ngs.iter().enumerate() {
            self.watches[ng.lits[0] as usize].push(ni as u32);
            self.watches[ng.lits[1] as usize].push(ni as u32);
        }
    }

    /// Per-call reset: clear the assignment and the propagation state;
    /// learned nogoods, activities and saved phases persist.
    fn reset(&mut self, n_cards: usize) {
        self.val.fill(Val::Unknown);
        self.level.fill(0);
        self.reason.fill(Reason::Decision);
        self.dep.fill(false);
        self.trail.clear();
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
    /// CDCL per-call setup: reset, pin assumptions at level 0, replay WFM
    /// seeds, static units and learned units. False means the search space
    /// is empty before the first decision.
    pub(super) fn prepare_cdcl(&mut self, assumptions: &[Lit]) -> bool {
        if self.cdcl.root_unsat {
            // Still record the assumptions for bookkeeping symmetry.
            for l in assumptions {
                let v = if l.positive { Val::True } else { Val::False };
                self.assumptions.push((l.atom.0, v));
            }
            return false;
        }
        self.cdcl.reset(self.g.cards.len());
        for l in assumptions {
            let v = if l.positive { Val::True } else { Val::False };
            self.assumptions.push((l.atom.0, v));
            match self.cdcl.val[l.atom.index()] {
                Val::Unknown => self.cd_assign(l.atom.0, v, Reason::Assumption),
                cur if cur == v => {}
                _ => return false, // self-contradictory assumptions
            }
        }
        // WFM backbone, program units, retained learned units — all sound
        // level-0 consequences; a clash with an assumption is a genuine
        // root conflict worth learning.
        let seeds: Vec<(u32, Val)> = self
            .wfm_seeds
            .iter()
            .copied()
            .chain(self.cdcl.units.iter().copied())
            .collect();
        for (a, v) in seeds {
            if !self.seed0(a, v) {
                return self.root_conflict();
            }
        }
        let units: Vec<u32> = self.cdcl.learned_units.clone();
        for c in units {
            if !self.seed0(code_var(c), negate(code_val(c))) {
                return self.root_conflict();
            }
        }
        true
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

    /// A conflict at decision level 0 during `prepare`: the assumptions are
    /// jointly refuted. Learn the assumption-set nogood so later calls
    /// refute the combination by propagation.
    fn root_conflict(&mut self) -> bool {
        self.conflict_count += 1;
        self.lifetime_conflicts += 1;
        if !self.assumptions.is_empty() {
            let lits: Vec<u32> = self.assumptions.iter().map(|&(a, v)| code(a, v)).collect();
            self.learn_stored(lits, 1);
        }
        false
    }

    /// Store a learned nogood (deduplicated): units go to the replay list,
    /// longer nogoods into the watched database.
    fn learn_stored(&mut self, lits: Vec<u32>, lbd: u32) {
        if !self.cdcl.learned_fps.insert(fingerprint(&lits)) {
            return;
        }
        if lits.len() == 1 {
            if self.proof.is_some() {
                self.plog(ProofStep::Learned(lits.clone()));
            }
            self.cdcl.learned_units.push(lits[0]);
            return;
        }
        self.add_learned_watched(lits, lbd, true);
    }

    /// Append a learned nogood to the watched store. When `choose` is set
    /// the watches are selected by quality (unassigned > falsified >
    /// satisfied); otherwise positions 0 and 1 are watched as given (the
    /// asserting-nogood path sets them up itself).
    fn add_learned_watched(&mut self, mut lits: Vec<u32>, lbd: u32, choose: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        if choose {
            self.choose_watches(&mut lits);
        }
        if self.proof.is_some() {
            self.plog(ProofStep::Learned(lits.clone()));
        }
        let ni = self.cdcl.ngs.len() as u32;
        self.cdcl.watches[lits[0] as usize].push(ni);
        self.cdcl.watches[lits[1] as usize].push(ni);
        self.cdcl.ngs.push(Nogood {
            lits,
            lbd,
            activity: 0.0,
        });
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
        for ng in &self.cdcl.ngs[self.cdcl.first_learned..] {
            let lits: Vec<LearnedLit> = ng.lits.iter().map(|&c| convert(&mut state, c)).collect();
            state.nogoods.push((lits, ng.lbd));
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
            let Some(codes) = lits.iter().map(&live_code).collect::<Option<Vec<u32>>>() else {
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
            self.learn_stored(codes, *lbd);
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
            self.learn_stored(vec![c], 1);
            let grown = self.cdcl.learned_count() > before;
            #[cfg(debug_assertions)]
            assert!(!(dup && grown), "duplicate fingerprint re-imported");
            kept += usize::from(grown);
        }
        kept
    }

    /// Move the two best watch candidates into positions 0 and 1:
    /// unassigned literals first, then falsified, then satisfied — watching
    /// satisfied literals would fire immediately and could miss later
    /// state changes after backjumping.
    fn choose_watches(&mut self, lits: &mut [u32]) {
        let rank = |solver: &Self, c: u32| -> u8 {
            let v = solver.cdcl.val[code_var(c) as usize];
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
                if rank(self, lits[i]) < rank(self, lits[best]) {
                    best = i;
                }
            }
            lits.swap(slot, best);
        }
    }

    /// Assign a variable, recording level, reason and assumption
    /// dependency, and update and queue the cardinality constraints that
    /// mention it.
    fn cd_assign(&mut self, var: u32, v: Val, reason: Reason) {
        debug_assert_eq!(self.cdcl.val[var as usize], Val::Unknown);
        let dep = if self.cdcl.lim.is_empty() {
            match reason {
                Reason::Assumption => true,
                Reason::Nogood(ni) => {
                    let cd = &self.cdcl;
                    cd.ngs[ni as usize]
                        .lits
                        .iter()
                        .any(|&c| code_var(c) != var && cd.dep[code_var(c) as usize])
                }
                Reason::Ante(w) => {
                    let cd = &self.cdcl;
                    cd.witness(w)
                        .iter()
                        .any(|&c| code_var(c) != var && cd.dep[code_var(c) as usize])
                }
                Reason::Guarded(w, e) => {
                    let cd = &self.cdcl;
                    cd.witness(w)
                        .iter()
                        .chain(cd.guard(e))
                        .any(|&c| code_var(c) != var && cd.dep[code_var(c) as usize])
                }
                Reason::Decision | Reason::Static => false,
            }
        } else {
            false
        };
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
            self.cdcl.card_update(var, v, true);
        }
    }

    /// Propagate to fixpoint: watched nogoods, then dirty cardinality
    /// constraints, then (non-tight only) the unfounded backstop over the
    /// cone. Returns
    /// the conflicting nogood's literal codes, or `None` at fixpoint.
    fn cdcl_propagate(&mut self) -> Option<Vec<u32>> {
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
            let before = self.cdcl.trail.len();
            if let Some(confl) = self.unfounded_backstop() {
                return Some(confl);
            }
            if self.cdcl.trail.len() == before {
                return None;
            }
        }
    }

    /// Visit every nogood watching the just-satisfied literal `c`.
    fn propagate_watches(&mut self, c: u32) -> Option<Vec<u32>> {
        let mut ws = std::mem::take(&mut self.cdcl.watches[c as usize]);
        let mut i = 0usize;
        while i < ws.len() {
            let ni = ws[i];
            let action = {
                let cd = &mut self.cdcl;
                let ng = &mut cd.ngs[ni as usize];
                if ng.lits[0] == c {
                    ng.lits.swap(0, 1);
                }
                debug_assert_eq!(ng.lits[1], c);
                let w0 = ng.lits[0];
                let w0v = cd.val[code_var(w0) as usize];
                if w0v == negate(code_val(w0)) {
                    WatchAction::Inert
                } else {
                    // Look for a non-satisfied replacement watch.
                    let mut moved = None;
                    for k in 2..ng.lits.len() {
                        let lk = ng.lits[k];
                        if cd.val[code_var(lk) as usize] != code_val(lk) {
                            moved = Some(k);
                            break;
                        }
                    }
                    match moved {
                        Some(k) => {
                            ng.lits.swap(1, k);
                            WatchAction::Moved(ng.lits[1])
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
                    let confl = self.cdcl.ngs[ni as usize].lits.clone();
                    self.cdcl.watches[c as usize] = ws;
                    return Some(confl);
                }
            }
        }
        self.cdcl.watches[c as usize] = ws;
        None
    }

    /// Propagate one dequeued cardinality constraint. Its counters decide
    /// in O(1) whether a bound is tight or violated; only then is the card
    /// scanned, once, for the event's witness, which every literal the
    /// event forces shares. A violation returns the conflict nogood.
    fn propagate_card(&mut self, ci: usize) -> Option<Vec<u32>> {
        let g = self.g;
        let c = &g.cards[ci];
        let count = self.cdcl.card_count[ci];
        if !count.event(c) {
            return None;
        }
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
        // The satisfied body literals and the open one, if any.
        let mut body_sat_lits: Vec<u32> = Vec::new();
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
                    body_sat_lits.push(code(a.0, holds));
                }
            }
        }
        let mut held_witness: Vec<u32> = Vec::new();
        let mut out_witness: Vec<u32> = Vec::new();
        let mut forcible: Vec<u32> = Vec::new();
        for (k, e) in c.elements.iter().enumerate() {
            let ei = first_elem + k as u32;
            debug_assert_eq!(
                self.cdcl.elem_count[ei as usize].status(),
                self.scanned_status(e),
                "card element counters out of step with the assignment"
            );
            match self.cdcl.elem_count[ei as usize].status() {
                ElemStatus::Held => {
                    held_witness.push(code(e.atom.0, Val::True));
                    held_witness.extend_from_slice(self.cdcl.guard(ei));
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
                    out_witness.push(lit);
                }
                ElemStatus::Forcible => forcible.push(ei),
                ElemStatus::Open => {}
            }
        }
        let max_possible = c.elements.len() as u32 - count.out;
        let over = count.held > c.upper;
        let violated = over || max_possible < c.lower;
        let mut witness = body_sat_lits;
        if violated {
            // Body satisfied (but for `body_unknown`) and the bound
            // provably violated: the held literals explain an upper-bound
            // violation, the out literals a lower-bound one.
            witness.extend(if over { held_witness } else { out_witness });
            witness.sort_unstable();
            witness.dedup();
            let Some(unk) = body_unknown else {
                self.log_card(ci, &witness, &[]);
                return Some(witness);
            };
            // The body must be falsified.
            self.log_card(ci, &witness, &[unk]);
            let w = self.cdcl.push_witness(&witness);
            self.cd_assign(code_var(unk), negate(code_val(unk)), Reason::Ante(w));
            return None;
        }
        debug_assert!(body_unknown.is_none() && !forcible.is_empty());
        // A tight upper bound falsifies every forcible element; the forced
        // element's guard joins its explanation — "atom true" alone does
        // not make the element held. A tight lower bound makes every
        // forcible element true.
        let tight_upper = count.held == c.upper;
        witness.extend(if tight_upper {
            held_witness
        } else {
            out_witness
        });
        witness.sort_unstable();
        witness.dedup();
        let mut shared: Option<u32> = None;
        for ei in forcible {
            let a = c.elements[(ei - first_elem) as usize].atom;
            // An atom counted in two elements is forced once.
            if self.cdcl.val[a.index()] != Val::Unknown {
                continue;
            }
            let w = *shared.get_or_insert_with(|| self.cdcl.push_witness(&witness));
            if tight_upper {
                if self.proof.is_some() {
                    let mut extra = self.cdcl.guard(ei).to_vec();
                    extra.push(code(a.0, Val::True));
                    self.log_card(ci, &witness, &extra);
                }
                self.cd_assign(a.0, Val::False, Reason::Guarded(w, ei));
            } else {
                self.log_card(ci, &witness, &[code(a.0, Val::False)]);
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

    /// The assumption and decision literals of the current state as codes —
    /// the sound (if coarse) antecedent for unfounded-set inferences.
    fn prefix_codes(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.assumptions.iter().map(|&(a, v)| code(a, v)).collect();
        for l in 0..self.cdcl.lim.len() {
            let dvar = self.cdcl.trail[self.cdcl.lim[l]];
            out.push(code(dvar, self.cdcl.val[dvar as usize]));
        }
        out
    }

    /// Unfounded-set backstop for non-tight programs: falsify every atom
    /// outside the can-be-true closure, with the current prefix as the
    /// antecedent (every closure verdict is a sound consequence of it).
    /// Runs at a propagation fixpoint, where the closure is computed over
    /// the unfounded cone alone (see [`Cone::close`]); outside the cone
    /// only false atoms are outside the closure. The cone atoms are
    /// visited in ascending id order.
    fn unfounded_backstop(&mut self) -> Option<Vec<u32>> {
        self.cone.close(&self.cdcl.val);
        debug_assert!(
            self.cone_closure_matches_program(),
            "the cone closure differs from the whole program's closure"
        );
        // The prefix, and its witness once an atom is forced.
        let mut prefix: Option<(Vec<u32>, Option<u32>)> = None;
        for k in 0..self.cone.atoms.len() {
            if self.cone.closed[k] {
                continue;
            }
            let i = self.cone.atoms[k];
            match self.cdcl.val[i as usize] {
                Val::True => {
                    let mut ng = prefix.map_or_else(|| self.prefix_codes(), |(p, _)| p);
                    ng.push(code(i, Val::True));
                    if self.proof.is_some() {
                        self.plog(ProofStep::Unfounded(ng.clone()));
                    }
                    return Some(ng);
                }
                Val::Unknown => {
                    let (p, shared) = prefix.get_or_insert_with(|| (self.prefix_codes(), None));
                    // As a nogood the inference carries the *satisfied*
                    // form of its target — `(i, True)` is what no stable
                    // model under this prefix can hold. The witness is the
                    // prefix alone: conflict analysis skips the target's
                    // own variable.
                    if self.proof.is_some() {
                        let mut ng = p.clone();
                        ng.push(code(i, Val::True));
                        self.plog(ProofStep::Unfounded(ng));
                    }
                    let w = *shared.get_or_insert_with(|| self.cdcl.push_witness(p));
                    self.cd_assign(i, Val::False, Reason::Ante(w));
                }
                Val::False => {}
            }
        }
        None
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

    /// Undo every assignment above decision level `to`, saving phases and
    /// dropping the witnesses of the undone levels.
    fn backjump(&mut self, to: usize) {
        let cd = &mut self.cdcl;
        let keep = if to == 0 && cd.lim.is_empty() {
            cd.trail.len()
        } else {
            cd.lim[to]
        };
        while cd.trail.len() > keep {
            let v = cd.trail.pop().expect("trail len checked") as usize;
            if v < cd.n_atoms {
                cd.card_update(v as u32, cd.val[v], false);
            }
            cd.saved[v] = cd.val[v];
            cd.val[v] = Val::Unknown;
            cd.reason[v] = Reason::Decision;
            cd.dep[v] = false;
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
        let cd = &self.cdcl;
        let mut best: Option<u32> = None;
        for a in 0..cd.n_atoms as u32 {
            if cd.val[a as usize] != Val::Unknown {
                continue;
            }
            match best {
                None => best = Some(a),
                Some(b) => {
                    let better = cd.activity[a as usize] > cd.activity[b as usize]
                        || (cd.activity[a as usize] == cd.activity[b as usize]
                            && cd.is_choice[a as usize]
                            && !cd.is_choice[b as usize]);
                    if better {
                        best = Some(a);
                    }
                }
            }
        }
        if best.is_some() {
            return best;
        }
        // All atoms assigned; assign any straggler body variable (possible
        // when its rule bodies were never touched by propagation).
        (cd.n_atoms..cd.n_vars)
            .map(|v| v as u32)
            .find(|&v| cd.val[v as usize] == Val::Unknown)
    }

    /// 1UIP conflict analysis. Returns the learned nogood's literal codes
    /// (UIP first), the backjump level, and the LBD.
    fn analyze(&mut self, confl: &[u32]) -> (Vec<u32>, usize, u32) {
        let d = self.cdcl.lim.len() as u32;
        debug_assert!(d > 0, "analyze called at level 0");
        let mut learned: Vec<u32> = Vec::new();
        let mut to_clear: Vec<u32> = Vec::new();
        let mut counter = 0usize;

        let classify = |solver: &mut Self,
                        c: u32,
                        learned: &mut Vec<u32>,
                        to_clear: &mut Vec<u32>,
                        counter: &mut usize| {
            let var = code_var(c);
            if solver.cdcl.seen[var as usize] {
                return;
            }
            let lvl = solver.cdcl.level[var as usize];
            if lvl == 0 {
                // Level-0 literals are globally sound unless they depend on
                // the current call's assumptions, in which case the
                // assumption literal itself must stay in the nogood.
                if solver.cdcl.dep[var as usize] {
                    solver.cdcl.seen[var as usize] = true;
                    to_clear.push(var);
                    learned.push(c);
                }
                return;
            }
            solver.cdcl.seen[var as usize] = true;
            to_clear.push(var);
            if lvl == d {
                *counter += 1;
            } else {
                learned.push(c);
            }
        };

        for &c in confl {
            classify(self, c, &mut learned, &mut to_clear, &mut counter);
        }

        // Walk the trail backwards, resolving current-level literals
        // through their reasons until one remains: the 1UIP.
        let mut idx = self.cdcl.trail.len();
        let uip = loop {
            debug_assert!(counter >= 1, "conflict must involve current level");
            idx -= 1;
            let x = self.cdcl.trail[idx];
            if !self.cdcl.seen[x as usize] {
                continue;
            }
            if counter == 1 {
                break x;
            }
            self.cdcl.seen[x as usize] = false;
            counter -= 1;
            let reason = self.cdcl.reason[x as usize];
            let mut ante = std::mem::take(&mut self.cdcl.explain_buf);
            ante.clear();
            match reason {
                Reason::Nogood(ni) => {
                    let ng = &mut self.cdcl.ngs[ni as usize];
                    ng.activity += 1.0;
                    ante.extend_from_slice(&ng.lits);
                }
                Reason::Ante(_) | Reason::Guarded(..) => self.cdcl.explain_into(reason, &mut ante),
                Reason::Decision | Reason::Static | Reason::Assumption => {
                    unreachable!("current-level non-UIP literal must have an antecedent")
                }
            }
            for &c in &ante {
                if code_var(c) != x {
                    classify(self, c, &mut learned, &mut to_clear, &mut counter);
                }
            }
            self.cdcl.explain_buf = ante;
        };

        // EVSIDS bumps: every variable that participated in the analysis.
        // Suppressed while enumerating — movement is chronological there,
        // so the branching heuristic is frozen anyway, and the per-conflict
        // decay (plus its periodic full-array rescale) is pure churn.
        if !self.in_flip_mode() {
            for &v in &to_clear {
                self.cdcl.activity[v as usize] += self.cdcl.var_inc;
            }
            self.cdcl.var_inc /= 0.95;
            if self.cdcl.var_inc > 1e100 {
                for a in &mut self.cdcl.activity {
                    *a *= 1e-100;
                }
                self.cdcl.var_inc *= 1e-100;
            }
        }
        for v in to_clear {
            self.cdcl.seen[v as usize] = false;
        }

        let uip_code = code(uip, self.cdcl.val[uip as usize]);
        let bl = learned
            .iter()
            .map(|&c| self.cdcl.level[code_var(c) as usize] as usize)
            .max()
            .unwrap_or(0);
        let mut lbd_levels: Vec<u32> = learned
            .iter()
            .map(|&c| self.cdcl.level[code_var(c) as usize])
            .collect();
        lbd_levels.push(d);
        lbd_levels.sort_unstable();
        lbd_levels.dedup();
        let lbd = lbd_levels.len() as u32;

        let mut lits = Vec::with_capacity(1 + learned.len());
        lits.push(uip_code);
        lits.extend(learned);
        (lits, bl, lbd)
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
    fn handle_conflict(&mut self, confl: &[u32], opts: &SolveOptions) -> Result<bool, AspError> {
        self.conflict_count += 1;
        self.lifetime_conflicts += 1;
        self.check_budget(opts)?;
        if self.cdcl.lim.is_empty() {
            // Conflict with no decisions: refuted under the assumptions
            // alone (or outright). Learn the assumption nogood so later
            // calls refute it by propagation.
            if !self.assumptions.is_empty() {
                let lits: Vec<u32> = self.assumptions.iter().map(|&(a, v)| code(a, v)).collect();
                self.learn_stored(lits, 1);
            }
            return Ok(false);
        }
        if self.in_flip_mode() {
            // Enumeration mode: learn the 1UIP nogood for pruning but move
            // chronologically — exhaustiveness relies on the flip trail.
            // Restarts (and with them learned-DB reduction) stay off, and
            // `analyze` skips activity bumps/decay: dropping pruning
            // nogoods or reshuffling the heuristic mid-enumeration costs
            // more than either is worth when movement is chronological.
            let (lits, _bl, lbd) = self.analyze(confl);
            let alive = self.flip_deepest();
            self.learn_stored(lits, lbd);
            return Ok(alive);
        }
        let (lits, bl, lbd) = self.analyze(confl);
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
            let mut lits = lits;
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
            let ni = self.add_learned_watched(lits, lbd, false);
            if self.cdcl.val[code_var(uip) as usize] == Val::Unknown {
                self.cd_assign(code_var(uip), negate(code_val(uip)), Reason::Nogood(ni));
            }
        }
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
        let learned = self.cdcl.ngs.len() - self.cdcl.first_learned;
        let threshold = 4000 + 2000 * self.cdcl.reduce_count as usize;
        if learned <= threshold {
            return;
        }
        let first = self.cdcl.first_learned;
        let mut locked = vec![false; self.cdcl.ngs.len()];
        for &v in &self.cdcl.trail {
            if let Reason::Nogood(ni) = self.cdcl.reason[v as usize] {
                locked[ni as usize] = true;
            }
        }
        // Rank the unlocked, high-LBD candidates; drop the worse half.
        let mut candidates: Vec<u32> = (first..self.cdcl.ngs.len())
            .map(|i| i as u32)
            .filter(|&i| !locked[i as usize] && self.cdcl.ngs[i as usize].lbd > 3)
            .collect();
        candidates.sort_by(|&a, &b| {
            let (na, nb) = (&self.cdcl.ngs[a as usize], &self.cdcl.ngs[b as usize]);
            na.lbd.cmp(&nb.lbd).then(
                nb.activity
                    .partial_cmp(&na.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let drop_from = candidates.len() / 2;
        let dropped: HashSet<u32> = candidates[drop_from..].iter().copied().collect();
        if dropped.is_empty() {
            return;
        }
        if self.proof.is_some() {
            let dels: Vec<Vec<u32>> = dropped
                .iter()
                .map(|&i| self.cdcl.ngs[i as usize].lits.clone())
                .collect();
            for d in dels {
                self.plog(ProofStep::Delete(d));
            }
        }
        // Compact the store, remapping reasons and rebuilding every watch
        // list (statics keep their indices: they all precede `first`).
        let mut remap: Vec<u32> = vec![u32::MAX; self.cdcl.ngs.len()];
        let mut kept: Vec<Nogood> = Vec::with_capacity(self.cdcl.ngs.len() - dropped.len());
        for (i, ng) in self.cdcl.ngs.drain(..).enumerate() {
            if dropped.contains(&(i as u32)) {
                continue;
            }
            remap[i] = kept.len() as u32;
            kept.push(ng);
        }
        self.cdcl.ngs = kept;
        for r in &mut self.cdcl.reason {
            if let Reason::Nogood(ni) = r {
                let new = remap[*ni as usize];
                debug_assert_ne!(new, u32::MAX, "locked nogood dropped");
                *ni = new;
            }
        }
        for w in &mut self.cdcl.watches {
            w.clear();
        }
        for ni in 0..self.cdcl.ngs.len() {
            let mut lits = std::mem::take(&mut self.cdcl.ngs[ni].lits);
            if ni >= self.cdcl.first_learned {
                self.choose_watches(&mut lits);
            }
            self.cdcl.watches[lits[0] as usize].push(ni as u32);
            self.cdcl.watches[lits[1] as usize].push(ni as u32);
            self.cdcl.ngs[ni].lits = lits;
        }
        self.cdcl.reduce_count += 1;
    }

    /// A complete assignment failed the independent stability check: the
    /// current prefix admits no stable model. Treat it as a conflict over
    /// the prefix literals.
    fn prefix_nogood(&self) -> Vec<u32> {
        self.prefix_codes()
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
                if !self.handle_conflict(&confl, opts)? {
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
                        // of sound propagation yet not stable).
                        let confl = self.prefix_nogood();
                        if self.proof.is_some() {
                            self.plog(ProofStep::Stability(confl.clone()));
                        }
                        if !self.handle_conflict(&confl, opts)? {
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
        for ng in &cd.ngs {
            log.push(ProofStep::Axiom(ng.lits.clone()));
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
    /// call's assumptions so its terminal (model / unsat) steps are scoped
    /// to them.
    pub(super) fn begin_certified_call(&mut self, assumptions: &[Lit]) {
        if self.proof.is_none() {
            self.init_proof();
        }
        let lits: Vec<u32> = assumptions
            .iter()
            .map(|l| code(l.atom.0, if l.positive { Val::True } else { Val::False }))
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
        let dels: Vec<Vec<u32>> = self.cdcl.ngs[self.cdcl.first_learned..]
            .iter()
            .map(|ng| ng.lits.clone())
            .chain(self.cdcl.learned_units.iter().map(|&c| vec![c]))
            .collect();
        for d in dels {
            self.plog(ProofStep::Delete(d));
        }
    }

    /// Test-only invariant: every stored nogood is watched exactly at its
    /// first two literal positions.
    #[cfg(test)]
    pub(super) fn debug_check_watches(&self) -> bool {
        let cd = &self.cdcl;
        let mut total = 0usize;
        for (ni, ng) in cd.ngs.iter().enumerate() {
            let ni = ni as u32;
            if !cd.watches[ng.lits[0] as usize].contains(&ni)
                || !cd.watches[ng.lits[1] as usize].contains(&ni)
            {
                return false;
            }
        }
        for w in &cd.watches {
            total += w.len();
        }
        total == 2 * cd.ngs.len()
    }
}
