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
//! backstop run as dedicated propagators at each watch fixpoint, producing
//! materialized *antecedent* nogoods so conflict analysis can resolve
//! through their inferences like any other reason.

use std::collections::{HashMap, HashSet};

use super::{Lit, Model, SolveOptions, Solver, Val};
use crate::error::AspError;
use crate::program::{AtomId, GroundHead, GroundProgram};
use crate::proof::{ProofLog, ProofStep};

/// Complement of a truth value (`Unknown` is not a valid input).
fn negate(v: Val) -> Val {
    match v {
        Val::True => Val::False,
        Val::False => Val::True,
        Val::Unknown => unreachable!("negating Unknown"),
    }
}

/// Fingerprint of a learned nogood, the key of the dedup set.
fn fingerprint(ng: &[(u32, Val)]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &(a, v) in ng {
        (a, v == Val::True).hash(&mut h);
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
    /// Forced by a materialized antecedent in the per-call arena
    /// (cardinality and unfounded-set inferences).
    Ante(u32),
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

/// The CDCL engine state.
#[derive(Debug)]
pub(super) struct Cdcl {
    /// Number of atom variables (`val[..n_atoms]` is the atom assignment).
    pub(super) n_atoms: usize,
    /// Atoms plus body variables.
    n_vars: usize,
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
    /// Per atom: cardinality constraints mentioning it.
    card_occ: Vec<Vec<u32>>,
    /// Per card: queued for rescan.
    card_dirty: Vec<bool>,
    /// Queue of dirty cards.
    card_queue: Vec<u32>,
    /// Per-call arena of materialized antecedent nogoods (codes).
    antes: Vec<Vec<u32>>,
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
        let mut head_forward: HashSet<(u32, u32)> = HashSet::new();
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
                        head_forward.insert((h.0, beta));
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
        // Forward inference for normal heads: {(h,F),(β,T)}.
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

        // Cardinality occurrence lists over every atom a card can react to.
        let mut card_occ: Vec<Vec<u32>> = vec![Vec::new(); n_atoms];
        for (ci, c) in g.cards.iter().enumerate() {
            let mut mentioned: HashSet<u32> = HashSet::new();
            for &p in c.pos.iter().chain(c.neg.iter()) {
                mentioned.insert(p.0);
            }
            for e in &c.elements {
                mentioned.insert(e.atom.0);
                for &gp in e.guard_pos.iter().chain(e.guard_neg.iter()) {
                    mentioned.insert(gp.0);
                }
            }
            for a in mentioned {
                card_occ[a as usize].push(ci as u32);
            }
        }

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
            first_learned: ngs.len(),
            ngs,
            learned_units: Vec::new(),
            learned_fps: HashSet::new(),
            units,
            root_unsat,
            watches,
            card_occ,
            card_dirty: vec![false; g.cards.len()],
            card_queue: Vec::new(),
            antes: Vec::new(),
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
        self.antes.clear();
        self.card_dirty.clear();
        self.card_dirty.resize(n_cards, true);
        self.card_queue.clear();
        self.card_queue.extend(0..n_cards as u32);
        self.conflicts_since_restart = 0;
        self.restart_seq = 1;
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
        let pairs: Vec<(u32, Val)> = lits.iter().map(|&c| (code_var(c), code_val(c))).collect();
        if !self.cdcl.learned_fps.insert(fingerprint(&pairs)) {
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
        #[cfg(debug_assertions)]
        let fp_of = |codes: &[u32]| {
            let pairs: Vec<(u32, Val)> =
                codes.iter().map(|&c| (code_var(c), code_val(c))).collect();
            fingerprint(&pairs)
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
            let dup = self.cdcl.learned_fps.contains(&fp_of(&codes));
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
            let dup = self.cdcl.learned_fps.contains(&fp_of(&[c]));
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
    /// dependency, and mark affected cardinality constraints dirty.
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
                Reason::Ante(ai) => {
                    let cd = &self.cdcl;
                    cd.antes[ai as usize]
                        .iter()
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
            let cards: Vec<u32> = self.cdcl.card_occ[var as usize].clone();
            for ci in cards {
                if !self.cdcl.card_dirty[ci as usize] {
                    self.cdcl.card_dirty[ci as usize] = true;
                    self.cdcl.card_queue.push(ci);
                }
            }
        }
    }

    /// Propagate to fixpoint: watched nogoods, then dirty cardinality
    /// constraints, then (non-tight only) the unfounded backstop. Returns
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
            if self.tight {
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

    /// Rescan one cardinality constraint, forcing or failing with
    /// materialized antecedent nogoods so 1UIP can resolve through them.
    #[allow(clippy::too_many_lines)]
    fn propagate_card(&mut self, ci: usize) -> Option<Vec<u32>> {
        let c = self.g.cards[ci].clone();
        let v = |s: &Self, a: AtomId| s.cdcl.val[a.index()];
        let mut body_false = false;
        let mut body_unknowns = 0usize;
        let mut body_unknown: Option<u32> = None; // satisfied-form code
        let mut body_sat_lits: Vec<u32> = Vec::new();
        for &p in &c.pos {
            match v(self, p) {
                Val::False => body_false = true,
                Val::Unknown => {
                    body_unknowns += 1;
                    body_unknown = Some(code(p.0, Val::True));
                }
                Val::True => body_sat_lits.push(code(p.0, Val::True)),
            }
        }
        for &n in &c.neg {
            match v(self, n) {
                Val::True => body_false = true,
                Val::Unknown => {
                    body_unknowns += 1;
                    body_unknown = Some(code(n.0, Val::False));
                }
                Val::False => body_sat_lits.push(code(n.0, Val::False)),
            }
        }
        if body_false {
            return None;
        }
        let mut held = 0u32;
        let mut held_witness: Vec<u32> = Vec::new();
        let mut out_witness: Vec<u32> = Vec::new();
        let mut open: Vec<&crate::program::CardElement> = Vec::new();
        for e in &c.elements {
            let guard_false_lit = e
                .guard_pos
                .iter()
                .find(|&&p| v(self, p) == Val::False)
                .map(|&p| code(p.0, Val::False))
                .or_else(|| {
                    e.guard_neg
                        .iter()
                        .find(|&&n| v(self, n) == Val::True)
                        .map(|&n| code(n.0, Val::True))
                });
            let guard_true = e.guard_pos.iter().all(|&p| v(self, p) == Val::True)
                && e.guard_neg.iter().all(|&n| v(self, n) == Val::False);
            match v(self, e.atom) {
                Val::True if guard_true => {
                    held += 1;
                    held_witness.push(code(e.atom.0, Val::True));
                    held_witness.extend(e.guard_pos.iter().map(|&p| code(p.0, Val::True)));
                    held_witness.extend(e.guard_neg.iter().map(|&n| code(n.0, Val::False)));
                }
                Val::False => out_witness.push(code(e.atom.0, Val::False)),
                _ => {
                    if let Some(l) = guard_false_lit {
                        out_witness.push(l);
                    } else {
                        open.push(e);
                    }
                }
            }
        }
        let max_possible = held + open.len() as u32;
        let violated_surely = held > c.upper || max_possible < c.lower;
        if body_unknowns == 0 {
            if violated_surely {
                // Conflict: body satisfied and the bound provably violated.
                let mut ng = body_sat_lits;
                if held > c.upper {
                    ng.extend(held_witness);
                } else {
                    ng.extend(out_witness);
                    // For a lower-bound violation every open element stayed
                    // open; no extra literals needed — the out-witness lits
                    // plus the body justify max_possible < lower.
                }
                ng.sort_unstable();
                ng.dedup();
                if self.proof.is_some() {
                    self.plog(ProofStep::Card {
                        card: ci as u32,
                        lits: ng.clone(),
                    });
                }
                return Some(ng);
            }
            if held == c.upper {
                // No further element may become held: falsify guard-true
                // open atoms. The forced element's guard literals join the
                // antecedent — "atom true" alone does not make the element
                // held, and without them the nogood would overreach.
                let forced: Vec<(AtomId, Vec<u32>)> = open
                    .iter()
                    .filter(|e| {
                        e.guard_pos.iter().all(|&p| v(self, p) == Val::True)
                            && e.guard_neg.iter().all(|&n| v(self, n) == Val::False)
                    })
                    .map(|e| {
                        let mut guard: Vec<u32> =
                            e.guard_pos.iter().map(|&p| code(p.0, Val::True)).collect();
                        guard.extend(e.guard_neg.iter().map(|&n| code(n.0, Val::False)));
                        (e.atom, guard)
                    })
                    .collect();
                for (a, guard) in forced {
                    if self.cdcl.val[a.index()] == Val::Unknown {
                        let mut ante = body_sat_lits.clone();
                        ante.extend(held_witness.iter().copied());
                        ante.extend(guard);
                        ante.push(code(a.0, Val::True));
                        ante.sort_unstable();
                        ante.dedup();
                        if self.proof.is_some() {
                            self.plog(ProofStep::Card {
                                card: ci as u32,
                                lits: ante.clone(),
                            });
                        }
                        let ai = self.cdcl.antes.len() as u32;
                        self.cdcl.antes.push(ante);
                        self.cd_assign(a.0, Val::False, Reason::Ante(ai));
                    }
                }
            } else if max_possible == c.lower {
                // Every open element must be held.
                let forced: Vec<AtomId> = open
                    .iter()
                    .filter(|e| {
                        e.guard_pos.iter().all(|&p| v(self, p) == Val::True)
                            && e.guard_neg.iter().all(|&n| v(self, n) == Val::False)
                    })
                    .map(|e| e.atom)
                    .collect();
                for a in forced {
                    if self.cdcl.val[a.index()] == Val::Unknown {
                        let mut ante = body_sat_lits.clone();
                        ante.extend(out_witness.iter().copied());
                        ante.push(code(a.0, Val::False));
                        ante.sort_unstable();
                        ante.dedup();
                        if self.proof.is_some() {
                            self.plog(ProofStep::Card {
                                card: ci as u32,
                                lits: ante.clone(),
                            });
                        }
                        let ai = self.cdcl.antes.len() as u32;
                        self.cdcl.antes.push(ante);
                        self.cd_assign(a.0, Val::True, Reason::Ante(ai));
                    }
                }
            }
        } else if body_unknowns == 1 && violated_surely {
            // Bound already violated: the body must be falsified.
            let unk = body_unknown.expect("one unknown");
            let uv = self.cdcl.val[code_var(unk) as usize];
            if uv == Val::Unknown {
                let mut ante = body_sat_lits;
                if held > c.upper {
                    ante.extend(held_witness);
                } else {
                    ante.extend(out_witness);
                }
                ante.push(unk);
                ante.sort_unstable();
                ante.dedup();
                if self.proof.is_some() {
                    self.plog(ProofStep::Card {
                        card: ci as u32,
                        lits: ante.clone(),
                    });
                }
                let ai = self.cdcl.antes.len() as u32;
                self.cdcl.antes.push(ante);
                self.cd_assign(code_var(unk), negate(code_val(unk)), Reason::Ante(ai));
            }
        }
        None
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
    fn unfounded_backstop(&mut self) -> Option<Vec<u32>> {
        let n = self.cdcl.n_atoms;
        let mut in_closure = vec![false; n];
        let mut changed = true;
        while changed {
            changed = false;
            for r in &self.g.rules {
                let h = match r.head {
                    GroundHead::Atom(h) | GroundHead::Choice(h) => h,
                    GroundHead::None => continue,
                };
                if in_closure[h.index()] || self.cdcl.val[h.index()] == Val::False {
                    continue;
                }
                let body_possible = r
                    .pos
                    .iter()
                    .all(|&p| self.cdcl.val[p.index()] != Val::False && in_closure[p.index()])
                    && r.neg.iter().all(|&q| self.cdcl.val[q.index()] != Val::True);
                if body_possible {
                    in_closure[h.index()] = true;
                    changed = true;
                }
            }
        }
        let mut prefix: Option<Vec<u32>> = None;
        for i in (0..n).filter(|&i| !in_closure[i]) {
            match self.cdcl.val[i] {
                Val::True => {
                    let mut ng = prefix.unwrap_or_else(|| self.prefix_codes());
                    ng.push(code(i as u32, Val::True));
                    if self.proof.is_some() {
                        self.plog(ProofStep::Unfounded(ng.clone()));
                    }
                    return Some(ng);
                }
                Val::Unknown => {
                    let p = prefix.get_or_insert_with(|| self.prefix_codes()).clone();
                    let mut ante = p;
                    // As a nogood the antecedent carries the *satisfied*
                    // form of the inference target — `(i, True)` is what no
                    // stable model under this prefix can hold (conflict
                    // analysis only filters by variable, so the polarity
                    // must be the semantically sound one).
                    ante.push(code(i as u32, Val::True));
                    if self.proof.is_some() {
                        self.plog(ProofStep::Unfounded(ante.clone()));
                    }
                    let ai = self.cdcl.antes.len() as u32;
                    self.cdcl.antes.push(ante);
                    self.cd_assign(i as u32, Val::False, Reason::Ante(ai));
                }
                Val::False => {}
            }
        }
        None
    }

    /// Open a new decision level.
    fn new_level(&mut self, flip: bool) {
        self.cdcl.lim.push(self.cdcl.trail.len());
        self.cdcl.flipped.push(flip);
    }

    /// Undo every assignment above decision level `to`, saving phases.
    fn backjump(&mut self, to: usize) {
        let cd = &mut self.cdcl;
        let keep = if to == 0 && cd.lim.is_empty() {
            cd.trail.len()
        } else {
            cd.lim[to]
        };
        while cd.trail.len() > keep {
            let v = cd.trail.pop().expect("trail len checked") as usize;
            cd.saved[v] = cd.val[v];
            cd.val[v] = Val::Unknown;
            cd.reason[v] = Reason::Decision;
            cd.dep[v] = false;
        }
        cd.lim.truncate(to);
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
            let ante: Vec<u32> = match reason {
                Reason::Nogood(ni) => {
                    self.cdcl.ngs[ni as usize].activity += 1.0;
                    self.cdcl.ngs[ni as usize].lits.clone()
                }
                Reason::Ante(ai) => self.cdcl.antes[ai as usize].clone(),
                Reason::Decision | Reason::Static | Reason::Assumption => {
                    unreachable!("current-level non-UIP literal must have an antecedent")
                }
            };
            for &c in &ante {
                if code_var(c) != x {
                    classify(self, c, &mut learned, &mut to_clear, &mut counter);
                }
            }
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
        self.cdcl.flipped.iter().any(|&f| f)
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
            let pairs = [(code_var(c), code_val(c))];
            if self.cdcl.learned_fps.insert(fingerprint(&pairs)) {
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
            let pairs: Vec<(u32, Val)> = lits.iter().map(|&c| (code_var(c), code_val(c))).collect();
            self.cdcl.learned_fps.insert(fingerprint(&pairs));
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
    /// `on_model` returns `false` to stop the search early; `prune`
    /// returning `true` abandons the current branch (branch-and-bound).
    /// Returns whether the search space was exhausted.
    pub(super) fn search(
        &mut self,
        opts: &SolveOptions,
        on_model: &mut dyn FnMut(Model) -> bool,
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
                    if let Some(model) = self.check_candidate() {
                        if self.certify_call && self.proof.is_some() {
                            let atoms: Vec<u32> = (0..self.cdcl.n_atoms as u32)
                                .filter(|&a| self.cdcl.val[a as usize] == Val::True)
                                .collect();
                            self.plog(ProofStep::Model {
                                cost: model.cost.clone(),
                                atoms,
                            });
                        }
                        if !on_model(model) {
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
