//! Semi-naive, index-joined grounding engine over interned ground terms.
//!
//! The one production grounding engine behind
//! [`Grounder`](crate::ground::Grounder). The test build pins it to the
//! naive oracle in `ground::naive`: observationally identical output, very
//! different evaluation strategy.
//!
//! * **Stratified semi-naive fixpoint.** The predicate dependency graph
//!   (edges from every positive body predicate to every head predicate) is
//!   condensed into strongly connected components, evaluated in topological
//!   order. Within a component, after one full evaluation pass, a rule is
//!   re-instantiated only through *delta* variants — one per recursive
//!   positive body literal, restricted to the atoms derived in the previous
//!   round. The possible-atom arena is append-only with ascending ids, so a
//!   delta is just an id window sliced out of a candidate list by binary
//!   search; duplicate derivations are absorbed by insert-time dedup.
//! * **Interned ground terms.** A hash-consing
//!   [`TermStore`](crate::intern::TermStore) gives every distinct ground
//!   term a dense `TermId`; a compound term is its functor with the ids of
//!   its arguments. A possible atom is a `[predicate, args…]` tuple of ids
//!   in one flat arena. Term equality is id equality, and binding a
//!   variable, undoing it or copying a substitution moves `u32`s.
//! * **Multi-argument hash indexes.** Join plans register the argument
//!   position they probe with per `(pred, arity, position)`; the
//!   [`PossibleSet`] maintains exactly those indexes, keyed by term id,
//!   incrementally on insert, so any bound argument — not just the first —
//!   narrows a scan. A literal whose atom is fully ground needs no index:
//!   it is one exact lookup in the arena.
//! * **Slot substitutions.** Rules are compiled once: variables become
//!   dense slots, substitutions become a `Vec<Option<TermId>>` with
//!   trail-based undo.
//! * **Emission.** Rules are emitted on one thread in source-rule order. A
//!   possible atom becomes an [`Atom`] and enters the [`GroundProgram`]
//!   once, on first use, through a table from possible-atom id to
//!   [`AtomId`].

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::ast::{ArithOp, Atom, CmpOp, Head, Literal, Program, Rule, Statement, Term};
use crate::error::AspError;
use crate::intern::{IdMap, IdSet, SymId, TermId, TermStore, Tuples};
use crate::program::{
    AtomId, CardConstraint, CardElement, GroundHead, GroundProgram, GroundRule, MinimizeLit,
};

/// Configuration handed over from [`Grounder`](crate::ground::Grounder).
pub(crate) struct Config<'a> {
    /// Maximum number of ground rule instances before aborting.
    pub max_instances: usize,
    /// Predicate signatures whose facts become assumable atoms.
    pub assumable: &'a [(String, usize)],
    /// Keep negative body literals over atoms that are not (yet) possible,
    /// interning the atom instead of dropping the literal. One-shot
    /// grounding drops them (they are trivially true); a [`Session`] must
    /// keep them so that already-emitted rule bodies stay correct when a
    /// later extension makes the atom derivable.
    pub keep_unpossible_neg: bool,
}

/// A predicate signature: interned name + arity.
type Sig = (SymId, u32);

/// The signature of a `[predicate, args…]` atom key.
fn sig_of(key: &[u32]) -> Sig {
    (SymId(key[0]), key.len() as u32 - 1)
}

// ---------------------------------------------------------------------------
// Compiled patterns: variables as dense slots, predicates as interned sigs.
// ---------------------------------------------------------------------------

/// A compiled term pattern.
#[derive(Debug, Clone)]
enum Pat {
    /// Fully ground, arithmetic-free subterm: compared by id.
    Ground(TermId),
    /// Variable slot.
    Var(u32),
    /// Compound with a variable or arithmetic inside.
    Func(SymId, Vec<Pat>),
    /// Arithmetic subterm: evaluated, never structurally unified.
    BinOp(ArithOp, Box<Pat>, Box<Pat>),
}

/// A compiled atom pattern.
#[derive(Debug, Clone)]
struct CAtom {
    /// Interned signature (for index lookups).
    sig: Sig,
    pats: Vec<Pat>,
    /// The exact atom key when every argument is ground and arithmetic-free.
    /// The delta-round [`Triggers`] fire a place reading it only when this
    /// atom enters the window — the common case in temporal unrollings and
    /// accumulated slice deltas, whose rules are all ground.
    ground: Option<Box<[u32]>>,
}

/// A compiled body literal.
#[derive(Debug, Clone)]
enum CLit {
    /// Positive atom; `probe` is the statically-bound argument position the
    /// plan decided to index on (None = full signature scan).
    Pos { atom: CAtom, probe: Option<u32> },
    /// Default-negated atom (ground-checked during joins, decided at emit).
    Neg(CAtom),
    /// Builtin comparison; `=` with an unbound variable side binds it.
    Cmp(CmpOp, Pat, Pat),
}

/// A compiled choice element.
#[derive(Debug, Clone)]
struct CElement {
    atom: CAtom,
    /// Condition in join order (planned with the rule body's bindings).
    cond_plan: Vec<CLit>,
    /// Condition in source order (emission mirrors the naive oracle).
    cond_src: Vec<CLit>,
}

/// A compiled rule head.
#[derive(Debug, Clone)]
enum CHead {
    Atom(CAtom),
    Choice {
        lower: Option<u32>,
        upper: Option<u32>,
        elements: Vec<CElement>,
    },
    None,
}

/// A rule compiled to slot patterns with a static join plan.
#[derive(Debug, Clone)]
struct CRule {
    head: CHead,
    /// Body in join order.
    body_plan: Vec<CLit>,
    /// Body in source order (emission order of `pos`/`neg` ids).
    body_src: Vec<CLit>,
    /// Variable names by slot (error messages only).
    names: Vec<String>,
    n_slots: usize,
    /// Every positive literal place and its signature, in plan order —
    /// cached at compile time so schedule construction and session
    /// extension never re-walk the plans.
    reads: Vec<(Place, Sig)>,
}

/// A compiled `#minimize` element (its own slot space).
#[derive(Debug, Clone)]
struct CMinElement {
    weight: Pat,
    terms: Vec<Pat>,
    cond_plan: Vec<CLit>,
    cond_src: Vec<CLit>,
    names: Vec<String>,
    n_slots: usize,
}

#[derive(Default)]
struct Vars {
    names: Vec<String>,
    map: HashMap<String, u32>,
}

impl Vars {
    fn slot(&mut self, v: &str) -> u32 {
        if let Some(&s) = self.map.get(v) {
            return s;
        }
        let s = self.names.len() as u32;
        self.map.insert(v.to_owned(), s);
        self.names.push(v.to_owned());
        s
    }
}

fn has_binop(t: &Term) -> bool {
    match t {
        Term::BinOp(..) => true,
        Term::Func(_, args) => args.iter().any(has_binop),
        _ => false,
    }
}

fn compile_term(t: &Term, vars: &mut Vars, store: &mut TermStore) -> Pat {
    if t.is_ground() && !has_binop(t) {
        return Pat::Ground(store.intern(t));
    }
    match t {
        Term::Var(v) => Pat::Var(vars.slot(v)),
        Term::Func(f, args) => Pat::Func(
            store.syms.intern(f),
            args.iter().map(|a| compile_term(a, vars, store)).collect(),
        ),
        Term::BinOp(op, a, b) => Pat::BinOp(
            *op,
            Box::new(compile_term(a, vars, store)),
            Box::new(compile_term(b, vars, store)),
        ),
        // Int/Const/Str are ground and arithmetic-free: handled above.
        Term::Int(_) | Term::Const(_) | Term::Str(_) => unreachable!("ground scalar"),
    }
}

fn compile_atom(a: &Atom, vars: &mut Vars, store: &mut TermStore) -> CAtom {
    let pats: Vec<Pat> = a
        .args
        .iter()
        .map(|t| compile_term(t, vars, store))
        .collect();
    let sig = (store.syms.intern(&a.pred), a.args.len() as u32);
    let ground = std::iter::once(Some(sig.0 .0))
        .chain(pats.iter().map(|p| match p {
            Pat::Ground(t) => Some(t.0),
            _ => None,
        }))
        .collect();
    CAtom { sig, pats, ground }
}

fn compile_lit(l: &Literal, vars: &mut Vars, store: &mut TermStore) -> CLit {
    match l {
        Literal::Pos(a) => CLit::Pos {
            atom: compile_atom(a, vars, store),
            probe: None,
        },
        Literal::Neg(a) => CLit::Neg(compile_atom(a, vars, store)),
        Literal::Cmp(op, lhs, rhs) => CLit::Cmp(
            *op,
            compile_term(lhs, vars, store),
            compile_term(rhs, vars, store),
        ),
    }
}

fn pat_slots(p: &Pat, out: &mut HashSet<u32>) {
    match p {
        Pat::Ground(_) => {}
        Pat::Var(s) => {
            out.insert(*s);
        }
        Pat::Func(_, args) => {
            for a in args {
                pat_slots(a, out);
            }
        }
        Pat::BinOp(_, a, b) => {
            pat_slots(a, out);
            pat_slots(b, out);
        }
    }
}

fn lit_slots(l: &CLit, out: &mut HashSet<u32>) {
    match l {
        CLit::Pos { atom, .. } | CLit::Neg(atom) => {
            for p in &atom.pats {
                pat_slots(p, out);
            }
        }
        CLit::Cmp(_, a, b) => {
            pat_slots(a, out);
            pat_slots(b, out);
        }
    }
}

/// True if every slot of the pattern is in `bound`.
fn pat_bound(p: &Pat, bound: &HashSet<u32>) -> bool {
    match p {
        Pat::Ground(_) => true,
        Pat::Var(s) => bound.contains(s),
        Pat::Func(_, args) => args.iter().all(|a| pat_bound(a, bound)),
        Pat::BinOp(_, a, b) => pat_bound(a, bound) && pat_bound(b, bound),
    }
}

fn lit_bound(l: &CLit, bound: &HashSet<u32>) -> bool {
    let mut s = HashSet::new();
    lit_slots(l, &mut s);
    s.iter().all(|v| bound.contains(v))
}

/// Order compiled literals for joining: evaluable comparisons first,
/// binding `=` next, ground negatives, then the positive literal with the
/// most statically-bound argument positions (selectivity proxy); probe
/// positions are fixed at placement time. `bound` carries bindings in
/// (e.g. a choice-element condition planned under the rule body) and
/// collects the slots bound by the planned literals.
fn plan(mut remaining: Vec<CLit>, bound: &mut HashSet<u32>) -> Vec<CLit> {
    let mut out = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // 1. Any evaluable comparison (all slots bound).
        if let Some(i) = remaining
            .iter()
            .position(|l| matches!(l, CLit::Cmp(..)) && lit_bound(l, bound))
        {
            out.push(remaining.remove(i));
            continue;
        }
        // 2. An `=` that binds one new slot from bound terms.
        if let Some(i) = remaining.iter().position(|l| {
            if let CLit::Cmp(CmpOp::Eq, a, b) = l {
                for (x, y) in [(a, b), (b, a)] {
                    if let Pat::Var(s) = x {
                        if !bound.contains(s) && pat_bound(y, bound) {
                            return true;
                        }
                    }
                }
            }
            false
        }) {
            let lit = remaining.remove(i);
            lit_slots(&lit, bound);
            out.push(lit);
            continue;
        }
        // 3. A grounded negative literal.
        if let Some(i) = remaining
            .iter()
            .position(|l| matches!(l, CLit::Neg(_)) && lit_bound(l, bound))
        {
            out.push(remaining.remove(i));
            continue;
        }
        // 4. The positive literal with the most bound argument positions.
        let mut best: Option<(usize, usize)> = None;
        for (i, l) in remaining.iter().enumerate() {
            if let CLit::Pos { atom, .. } = l {
                let score = atom.pats.iter().filter(|p| pat_bound(p, bound)).count();
                if best.is_none_or(|(bs, _)| score > bs) {
                    best = Some((score, i));
                }
            }
        }
        if let Some((_, i)) = best {
            let mut lit = remaining.remove(i);
            // A ground atom is looked up whole; it needs no probe.
            if let CLit::Pos { atom, probe } = &mut lit {
                *probe = (atom.pats.iter())
                    .position(|p| pat_bound(p, bound) && atom.ground.is_none())
                    .map(|p| p as u32);
            }
            lit_slots(&lit, bound);
            out.push(lit);
            continue;
        }
        // 5. Nothing else applies: flush (safety was already checked).
        out.append(&mut remaining);
    }
    out
}

fn compile_rule(r: &Rule, store: &mut TermStore) -> CRule {
    let mut vars = Vars::default();
    let body_src: Vec<CLit> = r
        .body
        .iter()
        .map(|l| compile_lit(l, &mut vars, store))
        .collect();
    let mut bound: HashSet<u32> = HashSet::new();
    let body_plan = plan(body_src.clone(), &mut bound);
    let head = match &r.head {
        Head::Atom(a) => CHead::Atom(compile_atom(a, &mut vars, store)),
        Head::None => CHead::None,
        Head::Choice {
            lower,
            upper,
            elements,
        } => CHead::Choice {
            lower: *lower,
            upper: *upper,
            elements: elements
                .iter()
                .map(|el| {
                    let cond_src: Vec<CLit> = el
                        .condition
                        .iter()
                        .map(|l| compile_lit(l, &mut vars, store))
                        .collect();
                    let mut eb = bound.clone();
                    let cond_plan = plan(cond_src.clone(), &mut eb);
                    CElement {
                        atom: compile_atom(&el.atom, &mut vars, store),
                        cond_plan,
                        cond_src,
                    }
                })
                .collect(),
        },
    };
    let mut rule = CRule {
        head,
        body_plan,
        body_src,
        n_slots: vars.names.len(),
        names: vars.names,
        reads: Vec::new(),
    };
    rule.reads = rule.read_places();
    rule
}

// ---------------------------------------------------------------------------
// Slot substitutions with trail-based undo.
// ---------------------------------------------------------------------------

struct Frame {
    slots: Vec<Option<TermId>>,
    trail: Vec<u32>,
}

impl Frame {
    fn new(n_slots: usize) -> Self {
        Frame {
            slots: vec![None; n_slots],
            trail: Vec::new(),
        }
    }

    fn mark(&self) -> usize {
        self.trail.len()
    }

    fn bind(&mut self, slot: u32, t: TermId) {
        self.slots[slot as usize] = Some(t);
        self.trail.push(slot);
    }

    fn undo_to(&mut self, mark: usize) {
        for &s in &self.trail[mark..] {
            self.slots[s as usize] = None;
        }
        self.trail.truncate(mark);
    }

    /// Load the `i`-th substitution of a [`frames`] snapshot.
    fn load(&mut self, snapshot: &[Option<TermId>], i: usize) {
        let n = self.slots.len();
        self.slots.copy_from_slice(&snapshot[i * n..(i + 1) * n]);
        self.trail.clear();
    }
}

/// Apply the frame to a pattern and evaluate arithmetic — the compiled
/// equivalent of `apply(t, θ).eval()`.
fn eval_pat(
    p: &Pat,
    frame: &Frame,
    names: &[String],
    store: &mut TermStore,
) -> Result<TermId, AspError> {
    match p {
        Pat::Ground(t) => Ok(*t),
        Pat::Var(s) => frame.slots[*s as usize].ok_or_else(|| {
            AspError::BadArithmetic(format!("unbound variable {}", names[*s as usize]))
        }),
        Pat::Func(f, args) => {
            let from = store.stack.len();
            for a in args {
                match eval_pat(a, frame, names, store) {
                    Ok(t) => store.stack.push(t.0),
                    Err(e) => {
                        store.stack.truncate(from);
                        return Err(e);
                    }
                }
            }
            Ok(store.func_from(*f, from))
        }
        Pat::BinOp(op, a, b) => {
            let a = eval_pat(a, frame, names, store)?;
            let b = eval_pat(b, frame, names, store)?;
            match (store.as_int(a), store.as_int(b)) {
                (Some(x), Some(y)) => Ok(store.int(op.apply(x, y)?)),
                _ => Err(AspError::BadArithmetic(format!(
                    "{} {op} {}",
                    store.term(a),
                    store.term(b)
                ))),
            }
        }
    }
}

/// Unify a pattern with a ground term, binding slots through the trail.
/// On mismatch the caller undoes to its mark.
fn unify_pat(
    p: &Pat,
    g: TermId,
    frame: &mut Frame,
    names: &[String],
    store: &mut TermStore,
) -> Result<bool, AspError> {
    match p {
        Pat::Ground(t) => Ok(*t == g),
        Pat::Var(s) => match frame.slots[*s as usize] {
            Some(b) => Ok(b == g),
            None => {
                frame.bind(*s, g);
                Ok(true)
            }
        },
        Pat::Func(f, args) => {
            match store.as_func(g) {
                Some((gf, gargs)) if gf == *f && gargs.len() == args.len() => {}
                _ => return Ok(false),
            }
            for (i, pa) in args.iter().enumerate() {
                if !unify_pat(pa, store.func_arg(g, i), frame, names, store)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Pat::BinOp(..) => Ok(eval_pat(p, frame, names, store)? == g),
    }
}

/// Fully ground an atom pattern under a frame, evaluating arithmetic, and
/// append its `[predicate, args…]` key to `key`.
fn atom_key(
    a: &CAtom,
    frame: &Frame,
    names: &[String],
    store: &mut TermStore,
    key: &mut Vec<u32>,
) -> Result<(), AspError> {
    key.push(a.sig.0 .0);
    for p in &a.pats {
        key.push(eval_pat(p, frame, names, store)?.0);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Possible-atom arena with demand-registered multi-argument indexes.
// ---------------------------------------------------------------------------

/// Append-only arena of possible ground atoms (`[predicate, args…]` keys of
/// term ids) with per-signature candidate lists and per-`(sig,
/// arg-position, term)` indexes. Candidate lists hold ascending arena ids,
/// so a semi-naive delta window is a binary-searched subslice. Index
/// positions are registered up front (from the join plans) and maintained
/// incrementally, keeping lookups allocation-free.
#[derive(Default)]
struct PossibleSet {
    atoms: Tuples,
    by_sig: IdMap<Sig, Vec<u32>>,
    by_arg: IdMap<(Sig, u32, TermId), Vec<u32>>,
    /// Which argument positions carry an index, per signature.
    registered: IdMap<Sig, Vec<u32>>,
}

impl PossibleSet {
    fn register(&mut self, sig: Sig, pos: u32) {
        let positions = self.registered.entry(sig).or_default();
        if positions.contains(&pos) {
            return;
        }
        positions.push(pos);
        // Backfill: a session extension can register a probe position after
        // atoms of the signature already exist. Arena ids in `by_sig` are
        // ascending, so the rebuilt `by_arg` lists stay window-sliceable.
        if let Some(ids) = self.by_sig.get(&sig) {
            for &id in ids {
                let arg = TermId(self.atoms.get(id)[1 + pos as usize]);
                self.by_arg.entry((sig, pos, arg)).or_default().push(id);
            }
        }
    }

    fn insert(&mut self, key: &[u32]) {
        let (id, fresh) = self.atoms.intern(key);
        if !fresh {
            return;
        }
        let sig = sig_of(key);
        if let Some(positions) = self.registered.get(&sig) {
            for &p in positions {
                let arg = TermId(key[1 + p as usize]);
                self.by_arg.entry((sig, p, arg)).or_default().push(id);
            }
        }
        self.by_sig.entry(sig).or_default().push(id);
    }

    /// The arena id of an atom key, if the atom is possible.
    fn find(&self, key: &[u32]) -> Option<u32> {
        self.atoms.find(key)
    }

    /// The `[predicate, args…]` key of an arena id.
    fn key(&self, id: u32) -> &[u32] {
        self.atoms.get(id)
    }

    fn len(&self) -> u32 {
        self.atoms.len()
    }

    fn candidates(&self, sig: Sig) -> &[u32] {
        self.by_sig.get(&sig).map_or(&[], Vec::as_slice)
    }

    /// Candidates narrowed by a ground value at an indexed position.
    fn candidates_at(&self, sig: Sig, pos: u32, val: TermId) -> &[u32] {
        self.by_arg.get(&(sig, pos, val)).map_or(&[], Vec::as_slice)
    }
}

/// The `[lo, hi)` arena-id window of an ascending candidate list.
fn window(list: &[u32], lo: u32, hi: u32) -> &[u32] {
    let a = list.partition_point(|&id| id < lo);
    let b = list.partition_point(|&id| id < hi);
    &list[a..b]
}

// ---------------------------------------------------------------------------
// The join: indexed nested loops over compiled plans.
// ---------------------------------------------------------------------------

/// What a join reads besides its literals: the possible set and the slot
/// names of the rule (for error messages).
#[derive(Clone, Copy)]
struct Scope<'a> {
    possible: &'a PossibleSet,
    names: &'a [String],
}

/// Called once per complete frame of a join.
type OnFrame<'a> = dyn FnMut(&mut Frame, &mut TermStore) -> Result<(), AspError> + 'a;

/// Join the planned literals from `at` onward against the possible set,
/// invoking `cb` once per complete frame. `delta` restricts one literal
/// (by plan index) to an arena-id window — the semi-naive rule variant.
fn join(
    scope: Scope<'_>,
    store: &mut TermStore,
    lits: &[CLit],
    at: usize,
    delta: Option<(usize, (u32, u32))>,
    frame: &mut Frame,
    cb: &mut OnFrame<'_>,
) -> Result<(), AspError> {
    let Some(lit) = lits.get(at) else {
        return cb(frame, store);
    };
    let Scope { possible, names } = scope;
    match lit {
        CLit::Pos { atom, probe } => {
            let found;
            let base: &[u32] = match (&atom.ground, probe) {
                (Some(key), _) => {
                    found = possible.find(key);
                    found.as_slice()
                }
                // A probe that fails to evaluate (e.g. arithmetic on a
                // symbol) falls back to the full scan: if no candidate
                // exists the naive oracle never errors either.
                (None, Some(p)) => match eval_pat(&atom.pats[*p as usize], frame, names, store) {
                    Ok(v) => possible.candidates_at(atom.sig, *p, v),
                    Err(_) => possible.candidates(atom.sig),
                },
                (None, None) => possible.candidates(atom.sig),
            };
            let cands = match delta {
                Some((i, (lo, hi))) if i == at => window(base, lo, hi),
                _ => base,
            };
            for &c in cands {
                let mark = frame.mark();
                let args = &possible.key(c)[1..];
                let mut ok = true;
                for (pa, &ga) in atom.pats.iter().zip(args) {
                    if !unify_pat(pa, TermId(ga), frame, names, store)? {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    join(scope, store, lits, at + 1, delta, frame, cb)?;
                }
                frame.undo_to(mark);
            }
            Ok(())
        }
        CLit::Neg(atom) => {
            // Negation is decided at emission; here the atom must merely be
            // ground (arithmetic errors propagate, as in the naive oracle).
            for p in &atom.pats {
                eval_pat(p, frame, names, store)?;
            }
            join(scope, store, lits, at + 1, delta, frame, cb)
        }
        CLit::Cmp(op, l, r) => {
            if *op == CmpOp::Eq {
                // Binding equality: X = expr (either side).
                for (var, expr) in [(l, r), (r, l)] {
                    if let Pat::Var(s) = var {
                        if frame.slots[*s as usize].is_none() {
                            let v = eval_pat(expr, frame, names, store)?;
                            let mark = frame.mark();
                            frame.bind(*s, v);
                            join(scope, store, lits, at + 1, delta, frame, cb)?;
                            frame.undo_to(mark);
                            return Ok(());
                        }
                    }
                }
            }
            let lv = eval_pat(l, frame, names, store)?;
            let rv = eval_pat(r, frame, names, store)?;
            if store.compare(*op, lv, rv) {
                join(scope, store, lits, at + 1, delta, frame, cb)?;
            }
            Ok(())
        }
    }
}

/// Every complete substitution of a join of `lits` from `frame`, as one
/// flat snapshot of `frame.slots.len()` slots per substitution, in join
/// order; and their number.
fn frames(
    scope: Scope<'_>,
    store: &mut TermStore,
    lits: &[CLit],
    frame: &mut Frame,
) -> Result<(usize, Vec<Option<TermId>>), AspError> {
    let mut n = 0;
    let mut snapshot = Vec::new();
    join(scope, store, lits, 0, None, frame, &mut |fr, _| {
        n += 1;
        snapshot.extend_from_slice(&fr.slots);
        Ok(())
    })?;
    Ok((n, snapshot))
}

// ---------------------------------------------------------------------------
// Predicate dependency graph, SCC condensation, component schedule.
// ---------------------------------------------------------------------------

/// Where a recursive positive literal sits in a rule: in the body plan or
/// in a choice element's condition plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    Body(usize),
    Elem(usize, usize),
}

impl CRule {
    fn head_sigs(&self) -> Vec<Sig> {
        match &self.head {
            CHead::Atom(a) => vec![a.sig],
            CHead::Choice { elements, .. } => elements.iter().map(|e| e.atom.sig).collect(),
            CHead::None => Vec::new(),
        }
    }

    /// The positive literal's compiled atom at a read place.
    fn read_atom(&self, place: Place) -> &CAtom {
        let lit = match place {
            Place::Body(i) => &self.body_plan[i],
            Place::Elem(e, i) => match &self.head {
                CHead::Choice { elements, .. } => &elements[e].cond_plan[i],
                CHead::Atom(_) | CHead::None => {
                    unreachable!("element place on a non-choice head")
                }
            },
        };
        match lit {
            CLit::Pos { atom, .. } => atom,
            CLit::Neg(_) | CLit::Cmp(..) => unreachable!("read place names a positive literal"),
        }
    }

    /// Every positive literal place and its signature, in plan order.
    fn read_places(&self) -> Vec<(Place, Sig)> {
        let mut out = Vec::new();
        for (i, l) in self.body_plan.iter().enumerate() {
            if let CLit::Pos { atom, .. } = l {
                out.push((Place::Body(i), atom.sig));
            }
        }
        if let CHead::Choice { elements, .. } = &self.head {
            for (e, el) in elements.iter().enumerate() {
                for (i, l) in el.cond_plan.iter().enumerate() {
                    if let CLit::Pos { atom, .. } = l {
                        out.push((Place::Elem(e, i), atom.sig));
                    }
                }
            }
        }
        out
    }
}

/// Strongly connected components of the signature dependency graph
/// (iterative Tarjan, so deep chains cannot overflow the stack). Returns
/// the component index of every node, with components numbered in
/// topological order (producers before consumers along body → head
/// edges), and the component count.
fn condense(adj: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let comp = crate::analysis::deps::tarjan_scc(adj);
    let n_comps = comp.iter().max().map_or(0, |&c| c + 1);
    // Tarjan numbers successors first; reverse for producers-first order.
    (comp.into_iter().map(|c| n_comps - 1 - c).collect(), n_comps)
}

// ---------------------------------------------------------------------------
// Phase 1: stratified semi-naive possible-atom fixpoint.
// ---------------------------------------------------------------------------

/// Ground an atom pattern under a frame and append it to a head buffer
/// (its key length, then the key).
fn push_head(
    a: &CAtom,
    frame: &Frame,
    names: &[String],
    store: &mut TermStore,
    buf: &mut Vec<u32>,
) -> Result<(), AspError> {
    let at = buf.len();
    buf.push(0);
    atom_key(a, frame, names, store, buf)?;
    buf[at] = (buf.len() - at - 1) as u32;
    Ok(())
}

/// Insert every head of a buffer filled by [`push_head`], then clear it.
fn insert_heads(possible: &mut PossibleSet, buf: &mut Vec<u32>) {
    let mut at = 0;
    while at < buf.len() {
        let len = buf[at] as usize;
        possible.insert(&buf[at + 1..at + 1 + len]);
        at += 1 + len;
    }
    buf.clear();
}

/// Evaluate one rule (optionally as the delta variant at `place`) and push
/// every derivable head atom into `buf`.
fn derive_heads(
    rule: &CRule,
    possible: &PossibleSet,
    store: &mut TermStore,
    delta: Option<(Place, (u32, u32))>,
    buf: &mut Vec<u32>,
) -> Result<(), AspError> {
    let body_delta = match delta {
        Some((Place::Body(i), w)) => Some((i, w)),
        _ => None,
    };
    let names = &rule.names;
    let scope = Scope { possible, names };
    let mut frame = Frame::new(rule.n_slots);
    join(
        scope,
        store,
        &rule.body_plan,
        0,
        body_delta,
        &mut frame,
        &mut |fr, store| {
            match &rule.head {
                CHead::Atom(a) => push_head(a, fr, names, store, buf)?,
                CHead::None => {}
                CHead::Choice { elements, .. } => {
                    for (e, el) in elements.iter().enumerate() {
                        let ed = match delta {
                            // A body delta re-derives every element; an
                            // element delta only concerns its own element.
                            Some((Place::Elem(de, i), w)) => {
                                if de != e {
                                    continue;
                                }
                                Some((i, w))
                            }
                            _ => None,
                        };
                        let mark = fr.mark();
                        join(scope, store, &el.cond_plan, 0, ed, fr, &mut |fr2, store| {
                            push_head(&el.atom, fr2, names, store, buf)
                        })?;
                        fr.undo_to(mark);
                    }
                }
            }
            Ok(())
        },
    )
}

/// Compute the possible-atom fixpoint component by component.
fn possible_fixpoint(
    crules: &[CRule],
    possible: &mut PossibleSet,
    store: &mut TermStore,
) -> Result<(), AspError> {
    // Dense node ids for every signature read or written by a rule.
    let mut node_of: IdMap<Sig, usize> = IdMap::default();
    let node = |map: &mut IdMap<Sig, usize>, sig: Sig| -> usize {
        let n = map.len();
        *map.entry(sig).or_insert(n)
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for r in crules {
        let heads: Vec<usize> = r
            .head_sigs()
            .into_iter()
            .map(|s| node(&mut node_of, s))
            .collect();
        for &(_, sig) in &r.reads {
            let from = node(&mut node_of, sig);
            for &to in &heads {
                edges.push((from, to));
            }
        }
    }
    let n = node_of.len();
    let mut adj = vec![Vec::new(); n];
    for (from, to) in edges {
        adj[from].push(to);
    }
    let (comp_of, n_comps) = condense(&adj);

    // A rule belongs to the earliest component among its head signatures:
    // every signature it reads lives in that component or earlier, and any
    // atom it writes into a later component is simply derived early.
    let mut comp_rules: Vec<Vec<usize>> = vec![Vec::new(); n_comps];
    for (ri, r) in crules.iter().enumerate() {
        if let Some(c) = r.head_sigs().iter().map(|s| comp_of[node_of[s]]).min() {
            comp_rules[c].push(ri);
        }
    }

    let mut buf: Vec<u32> = Vec::new();
    for (c, rules) in comp_rules.iter().enumerate() {
        if rules.is_empty() {
            continue;
        }
        let comp_start = possible.len();
        // One full evaluation pass seeds the component.
        for &ri in rules {
            derive_heads(&crules[ri], possible, store, None, &mut buf)?;
            insert_heads(possible, &mut buf);
        }
        // Delta variants: one per recursive positive literal place.
        let mut triggers = Triggers::default();
        for &ri in rules {
            for &(place, sig) in &crules[ri].reads {
                if comp_of[node_of[&sig]] == c {
                    triggers.push(ri, &crules[ri], place, sig);
                }
            }
        }
        if !triggers.places.is_empty() {
            delta_rounds(&[(crules, &triggers)], possible, store, comp_start)?;
        }
    }
    Ok(())
}

/// The delta places of a rule set, in firing order, indexed by what can
/// fire them. A place joins its read literal against a window of newly
/// interned atoms, so it can derive something only when the window holds
/// an atom of its signature — and, when the read literal is ground, only
/// when the window holds that exact atom.
#[derive(Default)]
struct Triggers {
    /// `(rule index, place)` in firing order.
    places: Vec<(usize, Place)>,
    /// Places whose read literal is not ground, by signature.
    by_sig: IdMap<Sig, Vec<u32>>,
    /// Places whose read literal is ground, by that atom's key.
    by_atom: IdMap<Box<[u32]>, Vec<u32>>,
    /// The signatures of the `by_atom` keys.
    ground_sigs: IdSet<Sig>,
    /// Rules `0..covered` of the indexed rule list have all their reads
    /// indexed (see [`Triggers::cover`]).
    covered: usize,
}

impl Triggers {
    /// Append the place `place` (reading `sig`) of rule `ri`.
    fn push(&mut self, ri: usize, rule: &CRule, place: Place, sig: Sig) {
        let id = self.places.len() as u32;
        self.places.push((ri, place));
        match &rule.read_atom(place).ground {
            Some(key) => {
                self.ground_sigs.insert(sig);
                self.by_atom.entry(key.clone()).or_default().push(id);
            }
            None => self.by_sig.entry(sig).or_default().push(id),
        }
    }

    /// Index every read place of `rules[self.covered..]`.
    fn cover(&mut self, rules: &[CRule]) {
        for (ri, rule) in rules.iter().enumerate().skip(self.covered) {
            for &(place, sig) in &rule.reads {
                self.push(ri, rule, place, sig);
            }
        }
        self.covered = rules.len();
    }

    /// The places the window `[lo, hi)` can fire, ascending (firing order).
    fn hits(&self, possible: &PossibleSet, lo: u32, hi: u32, out: &mut Vec<u32>) {
        out.clear();
        for (&sig, places) in &self.by_sig {
            if !window(possible.candidates(sig), lo, hi).is_empty() {
                out.extend_from_slice(places);
            }
        }
        for &sig in &self.ground_sigs {
            for &id in window(possible.candidates(sig), lo, hi) {
                if let Some(places) = self.by_atom.get(possible.key(id)) {
                    out.extend_from_slice(places);
                }
            }
        }
        out.sort_unstable();
    }
}

/// Semi-naive delta rounds over the atoms interned from arena id `lo` on.
/// Each round fixes the window of atoms the previous round added and fires
/// the places the trigger indexes report for it, group by group, in firing
/// order; atoms derived during a round land after the window and seed the
/// next one. The rounds end when one adds nothing. Places left out derive
/// nothing from the window, so the arena comes out exactly as if every
/// place had fired.
fn delta_rounds(
    groups: &[(&[CRule], &Triggers)],
    possible: &mut PossibleSet,
    store: &mut TermStore,
    mut lo: u32,
) -> Result<(), AspError> {
    let mut buf: Vec<u32> = Vec::new();
    let mut hits: Vec<u32> = Vec::new();
    loop {
        let hi = possible.len();
        if lo == hi {
            return Ok(());
        }
        for &(rules, triggers) in groups {
            triggers.hits(possible, lo, hi, &mut hits);
            for &p in &hits {
                let (ri, place) = triggers.places[p as usize];
                derive_heads(
                    &rules[ri],
                    possible,
                    store,
                    Some((place, (lo, hi))),
                    &mut buf,
                )?;
                insert_heads(possible, &mut buf);
            }
        }
        lo = hi;
    }
}

// ---------------------------------------------------------------------------
// Phase 2: instantiation and source-order emission.
// ---------------------------------------------------------------------------

/// What emission reads: the possible set and the session's settings.
#[derive(Clone, Copy)]
struct EmitCtx<'a> {
    possible: &'a PossibleSet,
    /// Signatures whose facts are emitted as assumable choices.
    assumable: &'a [Sig],
    keep_unpossible_neg: bool,
}

/// Possible atom not yet in the ground program.
const NO_ATOM: u32 = u32::MAX;

/// What emission writes: the ground program, its rule dedup set, and the
/// program id of every possible atom emitted so far.
#[derive(Default)]
struct Emit {
    out: GroundProgram,
    seen: IdSet<GroundRule>,
    /// `AtomId` of each possible atom, by arena id; [`NO_ATOM`] until the
    /// atom is first used.
    atom_ids: Vec<u32>,
    /// Key of the atom being grounded.
    key: Vec<u32>,
}

impl Emit {
    /// Ground `a` under `frame` into `self.key`; its arena id, if possible.
    fn ground_key(
        &mut self,
        cx: EmitCtx<'_>,
        a: &CAtom,
        frame: &Frame,
        names: &[String],
        store: &mut TermStore,
    ) -> Result<Option<u32>, AspError> {
        self.key.clear();
        atom_key(a, frame, names, store, &mut self.key)?;
        Ok(cx.possible.find(&self.key))
    }

    /// The program id of the atom in `self.key` (at arena id `pid`, if it
    /// is possible), interning it on first use.
    fn key_atom(&mut self, cx: EmitCtx<'_>, store: &TermStore, pid: Option<u32>) -> AtomId {
        let Some(pid) = pid else {
            return self.out.intern(store.atom(&self.key));
        };
        let i = pid as usize;
        if i >= self.atom_ids.len() {
            self.atom_ids.resize(cx.possible.len() as usize, NO_ATOM);
        }
        if self.atom_ids[i] == NO_ATOM {
            self.atom_ids[i] = self.out.intern(store.atom(&self.key)).0;
        }
        AtomId(self.atom_ids[i])
    }

    /// Ground the positive/negative atoms of a compiled literal list (in
    /// source order) under a complete frame. Mirrors the naive oracle's
    /// `ground_condition`: `alive` is false when a positive atom is
    /// underivable; negative literals over underivable atoms are trivially
    /// true and dropped.
    fn condition(
        &mut self,
        cx: EmitCtx<'_>,
        lits: &[CLit],
        frame: &Frame,
        names: &[String],
        store: &mut TermStore,
    ) -> Result<(Vec<AtomId>, Vec<AtomId>, bool), AspError> {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for lit in lits {
            match lit {
                CLit::Pos { atom, .. } => {
                    let pid = self.ground_key(cx, atom, frame, names, store)?;
                    if pid.is_none() {
                        return Ok((pos, neg, false));
                    }
                    pos.push(self.key_atom(cx, store, pid));
                }
                CLit::Neg(atom) => {
                    let pid = self.ground_key(cx, atom, frame, names, store)?;
                    if cx.keep_unpossible_neg || pid.is_some() {
                        neg.push(self.key_atom(cx, store, pid));
                    }
                }
                CLit::Cmp(op, l, r) => {
                    let lv = eval_pat(l, frame, names, store)?;
                    let rv = eval_pat(r, frame, names, store)?;
                    if !store.compare(*op, lv, rv) {
                        return Ok((pos, neg, false));
                    }
                }
            }
        }
        Ok((pos, neg, true))
    }

    fn push_rule(&mut self, rule: GroundRule) -> bool {
        if self.seen.insert(rule.clone()) {
            self.out.rules.push(rule);
            return true;
        }
        false
    }

    /// Emit the instance of `rule` under a complete body frame.
    fn rule(
        &mut self,
        cx: EmitCtx<'_>,
        rule: &CRule,
        frame: &mut Frame,
        store: &mut TermStore,
    ) -> Result<(), AspError> {
        let names = &rule.names;
        let (body_pos, body_neg, alive) =
            self.condition(cx, &rule.body_src, frame, names, store)?;
        if !alive {
            return Ok(());
        }
        match &rule.head {
            CHead::Atom(a) => {
                let pid = self.ground_key(cx, a, frame, names, store)?;
                let is_assumable =
                    body_pos.is_empty() && body_neg.is_empty() && cx.assumable.contains(&a.sig);
                let head = self.key_atom(cx, store, pid);
                let inserted = self.push_rule(GroundRule {
                    head: if is_assumable {
                        GroundHead::Choice(head)
                    } else {
                        GroundHead::Atom(head)
                    },
                    pos: body_pos,
                    neg: body_neg,
                });
                if inserted && is_assumable {
                    self.out.assumable.push(head);
                }
            }
            CHead::None => {
                self.push_rule(GroundRule {
                    head: GroundHead::None,
                    pos: body_pos,
                    neg: body_neg,
                });
            }
            CHead::Choice {
                lower,
                upper,
                elements,
            } => {
                let bounded = lower.is_some() || upper.is_some();
                let mut card_elems: Vec<CardElement> = Vec::new();
                let scope = Scope {
                    possible: cx.possible,
                    names,
                };
                let mut ext = Frame::new(frame.slots.len());
                for el in elements {
                    let (n, snapshot) = frames(scope, store, &el.cond_plan, frame)?;
                    for i in 0..n {
                        ext.load(&snapshot, i);
                        let pid = self.ground_key(cx, &el.atom, &ext, names, store)?;
                        let atom = self.key_atom(cx, store, pid);
                        let (gpos, gneg, galive) =
                            self.condition(cx, &el.cond_src, &ext, names, store)?;
                        if !galive {
                            continue;
                        }
                        let mut pos = body_pos.clone();
                        pos.extend(gpos.iter().copied());
                        let mut neg = body_neg.clone();
                        neg.extend(gneg.iter().copied());
                        self.push_rule(GroundRule {
                            head: GroundHead::Choice(atom),
                            pos,
                            neg,
                        });
                        if bounded {
                            card_elems.push(CardElement {
                                atom,
                                guard_pos: gpos,
                                guard_neg: gneg,
                            });
                        }
                    }
                }
                if bounded {
                    let n = card_elems.len() as u32;
                    self.out.cards.push(CardConstraint {
                        pos: body_pos,
                        neg: body_neg,
                        elements: card_elems,
                        lower: lower.unwrap_or(0),
                        upper: upper.unwrap_or(n),
                    });
                }
            }
        }
        Ok(())
    }

    /// Emit every instance of `rule`: all its body substitutions are
    /// joined first, then emitted in join order.
    fn all_instances(
        &mut self,
        cx: EmitCtx<'_>,
        rule: &CRule,
        store: &mut TermStore,
        max_instances: usize,
    ) -> Result<(), AspError> {
        let scope = Scope {
            possible: cx.possible,
            names: &rule.names,
        };
        let mut frame = Frame::new(rule.n_slots);
        let (n, snapshot) = frames(scope, store, &rule.body_plan, &mut frame)?;
        for i in 0..n {
            frame.load(&snapshot, i);
            self.rule(cx, rule, &mut frame, store)?;
            self.check_budget(max_instances)?;
        }
        Ok(())
    }

    fn check_budget(&self, max_instances: usize) -> Result<(), AspError> {
        if self.out.rules.len() > max_instances {
            return Err(AspError::GroundingBudget {
                limit: max_instances,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Entry point and resident sessions.
// ---------------------------------------------------------------------------

/// Ground a program with the semi-naive engine. Observationally identical
/// to the naive oracle grounder (same atoms, rules, cards, minimize literals,
/// shows, and assumables), pinned by differential proptests.
pub(crate) fn ground(program: &Program, cfg: &Config<'_>) -> Result<GroundProgram, AspError> {
    Ok(Session::new(program, cfg)?.emit.out)
}

/// Statistics of one [`GroundSession::extend`](crate::GroundSession::extend) call.
#[derive(Debug, Clone, Default)]
pub struct ExtendStats {
    /// Ground atoms interned by this extension (the per-slice growth a
    /// horizon sweep checks against).
    pub new_atoms: usize,
    /// Ground rule instances added by this extension.
    pub new_rules: usize,
    /// Ids of the revoked (previously deferred) atoms: they just received
    /// their real defining rules, so learned nogoods mentioning them must
    /// be dropped on transfer.
    pub revoked: Vec<AtomId>,
    /// A pre-existing atom *other than a revoked defer* gained a new
    /// defining rule. Its old completion nogood is stale, and stale
    /// resolvents need not mention the atom — the caller must discard all
    /// learned solver state instead of filtering it.
    pub dirty: bool,
}

fn compile_min_elements(
    elements: &[crate::ast::MinimizeElement],
    store: &mut TermStore,
) -> Vec<CMinElement> {
    elements
        .iter()
        .map(|el| {
            let mut vars = Vars::default();
            let cond_src: Vec<CLit> = el
                .condition
                .iter()
                .map(|l| compile_lit(l, &mut vars, store))
                .collect();
            let mut bound = HashSet::new();
            let cond_plan = plan(cond_src.clone(), &mut bound);
            CMinElement {
                weight: compile_term(&el.weight, &mut vars, store),
                terms: el
                    .terms
                    .iter()
                    .map(|t| compile_term(t, &mut vars, store))
                    .collect(),
                cond_plan,
                cond_src,
                n_slots: vars.names.len(),
                names: vars.names,
            }
        })
        .collect()
}

/// Register every probe position of the given rules and minimize groups.
fn register_probes<'a>(
    possible: &mut PossibleSet,
    crules: &[CRule],
    cmin_groups: impl Iterator<Item = &'a Vec<CMinElement>>,
) {
    let register_plan = |possible: &mut PossibleSet, plan: &[CLit]| {
        for l in plan {
            if let CLit::Pos {
                atom,
                probe: Some(p),
            } = l
            {
                possible.register(atom.sig, *p);
            }
        }
    };
    for r in crules {
        register_plan(possible, &r.body_plan);
        if let CHead::Choice { elements, .. } = &r.head {
            for el in elements {
                register_plan(possible, &el.cond_plan);
            }
        }
    }
    for group in cmin_groups {
        for el in group {
            register_plan(possible, &el.cond_plan);
        }
    }
}

fn has_bounded_choice(r: &Rule) -> bool {
    matches!(
        &r.head,
        Head::Choice { lower, upper, .. } if lower.is_some() || upper.is_some()
    )
}

/// A resident grounding session: the compiled rule set, term store,
/// possible-atom arena, dedup set, and ground program survive across
/// [`Session::extend`] calls, so a program delta (new time slices of a
/// temporal unrolling, say) is ground semi-naively against the existing
/// state instead of from scratch.
pub(crate) struct Session {
    max_instances: usize,
    keep_unpossible_neg: bool,
    /// Signatures whose facts are emitted as assumable choices.
    assumable: Vec<Sig>,
    store: TermStore,
    crules: Vec<CRule>,
    cmins: Vec<(i64, Vec<CMinElement>)>,
    possible: PossibleSet,
    /// Delta places of `crules`, indexed on the first extension (one-shot
    /// grounding never needs them).
    triggers: Triggers,
    emit: Emit,
    bounded_choice: bool,
}

impl Session {
    /// Ground `program` and retain all intermediate state. With
    /// `cfg.keep_unpossible_neg == false` this is exactly the one-shot
    /// [`ground`] pipeline (which delegates here).
    pub(crate) fn new(program: &Program, cfg: &Config<'_>) -> Result<Session, AspError> {
        let rules: Vec<&Rule> = program.rules().collect();
        for r in &rules {
            r.check_safety()?;
        }
        let mut store = TermStore::default();
        let crules: Vec<CRule> = rules.iter().map(|r| compile_rule(r, &mut store)).collect();
        let bounded_choice = rules.iter().any(|r| has_bounded_choice(r));

        // Compile #minimize elements up front so their probes register too.
        let mut cmins: Vec<(i64, Vec<CMinElement>)> = Vec::new();
        for stmt in &program.statements {
            if let Statement::Minimize { priority, elements } = stmt {
                cmins.push((*priority, compile_min_elements(elements, &mut store)));
            }
        }
        let assumable: Vec<Sig> = (cfg.assumable.iter())
            .map(|(pred, arity)| (store.syms.intern(pred), *arity as u32))
            .collect();

        // Register every probe position before the first insert, so the
        // argument indexes are maintained incrementally from the start.
        let mut possible = PossibleSet::default();
        register_probes(&mut possible, &crules, cmins.iter().map(|(_, g)| g));

        // Phase 1: stratified semi-naive possible-atom fixpoint.
        possible_fixpoint(&crules, &mut possible, &mut store)?;

        // Phase 2: instantiation and emission in source-rule order.
        let mut emit = Emit::default();
        let cx = EmitCtx {
            possible: &possible,
            assumable: &assumable,
            keep_unpossible_neg: cfg.keep_unpossible_neg,
        };
        for rule in &crules {
            emit.all_instances(cx, rule, &mut store, cfg.max_instances)?;
        }

        // Phase 3: projections, then optimization statements.
        for stmt in &program.statements {
            if let Statement::Show { pred, arity } = stmt {
                emit.out.shows.push((pred.clone(), *arity));
            }
        }
        let mut session = Session {
            max_instances: cfg.max_instances,
            keep_unpossible_neg: cfg.keep_unpossible_neg,
            assumable,
            store,
            crules,
            cmins,
            possible,
            triggers: Triggers::default(),
            emit,
            bounded_choice,
        };
        session.recompute_minimize()?;
        Ok(session)
    }

    /// The ground program in its current state.
    pub(crate) fn program(&self) -> &GroundProgram {
        &self.emit.out
    }

    /// Ground a program delta on top of the session: `revoke` lists atoms
    /// whose bare choice rules (`{ a }.`, empty body, single element) are
    /// retracted — the frontier defers now receiving real definitions —
    /// and `delta` holds the new statements. Atom ids are stable: the
    /// ground program is extended in place, never rebuilt.
    pub(crate) fn extend(
        &mut self,
        delta: &Program,
        revoke: &[Atom],
    ) -> Result<ExtendStats, AspError> {
        let new_rules: Vec<&Rule> = delta.rules().collect();
        for r in &new_rules {
            r.check_safety()?;
        }
        if self.bounded_choice || new_rules.iter().any(|r| has_bounded_choice(r)) {
            return Err(AspError::Internal(
                "session extension cannot patch cardinality-bounded choice rules".into(),
            ));
        }

        // Compile the delta against the session's term store and register
        // its probes (with backfill over already-present atoms).
        let new_crules: Vec<CRule> = new_rules
            .iter()
            .map(|r| compile_rule(r, &mut self.store))
            .collect();
        let mut new_cmins: Vec<(i64, Vec<CMinElement>)> = Vec::new();
        for stmt in &delta.statements {
            if let Statement::Minimize { priority, elements } = stmt {
                new_cmins.push((*priority, compile_min_elements(elements, &mut self.store)));
            }
        }
        register_probes(
            &mut self.possible,
            &new_crules,
            new_cmins.iter().map(|(_, g)| g),
        );

        // Retract the revoked defers before emitting anything new.
        let mut revoked_ids: Vec<AtomId> = Vec::with_capacity(revoke.len());
        for atom in revoke {
            let Some(id) = self.emit.out.lookup(atom) else {
                return Err(AspError::Internal(format!(
                    "revoked atom `{atom}` is not in the session program"
                )));
            };
            let target = GroundRule {
                head: GroundHead::Choice(id),
                pos: Vec::new(),
                neg: Vec::new(),
            };
            if !self.emit.seen.remove(&target) {
                return Err(AspError::Internal(format!(
                    "revoked atom `{atom}` has no bare choice rule to retract"
                )));
            }
            self.emit.out.rules.retain(|r| *r != target);
            self.emit.out.assumable.retain(|&a| a != id);
            revoked_ids.push(id);
        }

        let atom_watermark = self.emit.out.atom_count() as u32;
        let rules_low = self.emit.out.rules.len();
        let possible_low = self.possible.len();

        // Phase 1 (delta): seed with a full pass over the new rules, then
        // run an unstratified semi-naive loop over *all* rules, windowed to
        // the atoms added since `possible_low`. The possible fixpoint
        // ignores negation, so dropping the SCC schedule loses nothing but
        // scheduling quality — and the delta windows keep it cheap.
        let mut buf: Vec<u32> = Vec::new();
        for rule in &new_crules {
            derive_heads(rule, &self.possible, &mut self.store, None, &mut buf)?;
            insert_heads(&mut self.possible, &mut buf);
        }
        self.triggers.cover(&self.crules);
        let mut new_triggers = Triggers::default();
        new_triggers.cover(&new_crules);
        delta_rounds(
            &[(&self.crules, &self.triggers), (&new_crules, &new_triggers)],
            &mut self.possible,
            &mut self.store,
            possible_low,
        )?;

        // Phase 2 (delta): new rules instantiate fully; old rules re-join
        // only through windows over the atoms this extension added. The
        // `seen` set absorbs the overlap between delta anchors.
        let hi = self.possible.len();
        {
            let Session {
                ref assumable,
                ref crules,
                ref possible,
                ref triggers,
                ref mut store,
                ref mut emit,
                max_instances,
                keep_unpossible_neg,
                ..
            } = *self;
            let cx = EmitCtx {
                possible,
                assumable,
                keep_unpossible_neg,
            };
            for rule in &new_crules {
                emit.all_instances(cx, rule, store, max_instances)?;
            }
            if hi > possible_low {
                // Body-literal deltas re-join through one window each; an
                // element-condition delta falls back to a full
                // re-instantiation (deduped), since `Emit::rule` grounds
                // elements from the body frame. The hits come in firing
                // order, so each rule's places are contiguous.
                let mut hits = Vec::new();
                triggers.hits(possible, possible_low, hi, &mut hits);
                for group in hits.chunk_by(|&a, &b| {
                    triggers.places[a as usize].0 == triggers.places[b as usize].0
                }) {
                    let rule = &crules[triggers.places[group[0] as usize].0];
                    let places = group.iter().map(|&p| triggers.places[p as usize].1);
                    if places.clone().any(|place| matches!(place, Place::Elem(..))) {
                        emit.all_instances(cx, rule, store, max_instances)?;
                        continue;
                    }
                    let scope = Scope {
                        possible,
                        names: &rule.names,
                    };
                    for place in places {
                        let Place::Body(i) = place else { continue };
                        let mut frame = Frame::new(rule.n_slots);
                        join(
                            scope,
                            store,
                            &rule.body_plan,
                            0,
                            Some((i, (possible_low, hi))),
                            &mut frame,
                            &mut |fr, store| {
                                emit.rule(cx, rule, fr, store)?;
                                emit.check_budget(max_instances)
                            },
                        )?;
                    }
                }
            }
        }

        // Phase 3: append new projections, adopt the delta rules, and
        // recompute minimize literals wholesale (set semantics make the
        // rebuild order-insensitive; atom ids are already interned).
        for stmt in &delta.statements {
            if let Statement::Show { pred, arity } = stmt {
                if !self.emit.out.shows.contains(&(pred.clone(), *arity)) {
                    self.emit.out.shows.push((pred.clone(), *arity));
                }
            }
        }
        self.crules.extend(new_crules);
        self.cmins.extend(new_cmins);
        self.recompute_minimize()?;

        // A new rule whose head already existed (and is not a revoked
        // defer) invalidates that atom's completion nogood — and stale
        // resolvents need not mention the atom, so the caller must drop
        // all learned state, not filter it.
        let out = &self.emit.out;
        let dirty = out.rules[rules_low..].iter().any(|r| match r.head {
            GroundHead::Atom(h) | GroundHead::Choice(h) => {
                h.0 < atom_watermark && !revoked_ids.contains(&h)
            }
            GroundHead::None => false,
        });
        Ok(ExtendStats {
            new_atoms: out.atom_count() - atom_watermark as usize,
            new_rules: out.rules.len() - rules_low,
            revoked: revoked_ids,
            dirty,
        })
    }

    /// Rebuild the minimize literals from every compiled minimize statement.
    fn recompute_minimize(&mut self) -> Result<(), AspError> {
        let mut minimize: BTreeMap<i64, Vec<MinimizeLit>> = BTreeMap::new();
        let Session {
            ref assumable,
            ref cmins,
            ref possible,
            ref mut store,
            ref mut emit,
            keep_unpossible_neg,
            ..
        } = *self;
        let cx = EmitCtx {
            possible,
            assumable,
            keep_unpossible_neg,
        };
        for (priority, group) in cmins {
            for el in group {
                let scope = Scope {
                    possible,
                    names: &el.names,
                };
                let mut frame = Frame::new(el.n_slots);
                let (n, snapshot) = frames(scope, store, &el.cond_plan, &mut frame)?;
                for i in 0..n {
                    frame.load(&snapshot, i);
                    let w = eval_pat(&el.weight, &frame, &el.names, store)?;
                    let Some(weight) = store.as_int(w) else {
                        return Err(AspError::BadArithmetic(format!(
                            "minimize weight `{}` is not an integer",
                            store.term(w)
                        )));
                    };
                    let mut tuple = Vec::with_capacity(el.terms.len());
                    for t in &el.terms {
                        let t = eval_pat(t, &frame, &el.names, store)?;
                        tuple.push(store.term(t));
                    }
                    let (pos, neg, alive) =
                        emit.condition(cx, &el.cond_src, &frame, &el.names, store)?;
                    if alive {
                        minimize.entry(*priority).or_default().push(MinimizeLit {
                            weight,
                            tuple,
                            pos,
                            neg,
                        });
                    }
                }
            }
        }
        // Higher priorities first.
        emit.out.minimize = minimize.into_iter().rev().collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::{naive, Grounder};
    use crate::parse;

    fn both(src: &str) -> (GroundProgram, GroundProgram) {
        let p = parse(src).unwrap();
        let semi = Grounder::new().ground(&p).unwrap();
        let reference = naive::ground(&Grounder::new(), &p).unwrap();
        (semi, reference)
    }

    /// Canonical rendering: sorted atom strings and sorted rule renderings.
    fn canon(g: &GroundProgram) -> (Vec<String>, Vec<String>) {
        let mut atoms: Vec<String> = g.atoms().map(|(_, a)| a.to_string()).collect();
        atoms.sort();
        let mut rules: Vec<String> = g
            .rules
            .iter()
            .map(|r| {
                let head = match r.head {
                    GroundHead::Atom(h) => g.atom(h).to_string(),
                    GroundHead::Choice(h) => format!("{{{}}}", g.atom(h)),
                    GroundHead::None => String::new(),
                };
                let pos: Vec<String> = r.pos.iter().map(|&p| g.atom(p).to_string()).collect();
                let neg: Vec<String> = r.neg.iter().map(|&n| g.atom(n).to_string()).collect();
                format!("{head} :- {}; not {}", pos.join(","), neg.join(","))
            })
            .collect();
        rules.sort();
        (atoms, rules)
    }

    #[test]
    fn transitive_closure_matches_reference() {
        let (semi, reference) = both(
            "edge(a,b). edge(b,c). edge(c,d). edge(d,a). \
             path(X,Y) :- edge(X,Y). \
             path(X,Z) :- edge(X,Y), path(Y,Z).",
        );
        assert_eq!(canon(&semi), canon(&reference));
        assert_eq!(
            semi.atoms().filter(|(_, a)| a.pred == "path").count(),
            16,
            "full closure over the 4-cycle"
        );
    }

    #[test]
    fn non_first_argument_joins_match_reference() {
        // The join variable sits in the *second* argument position — the
        // reference can only scan, the indexed engine probes `by_arg`.
        let (semi, reference) = both(
            "obs(a, 1). obs(b, 2). obs(c, 2). lim(1). lim(2). \
             hit(X, T) :- lim(T), obs(X, T).",
        );
        assert_eq!(canon(&semi), canon(&reference));
        assert_eq!(semi.atoms().filter(|(_, a)| a.pred == "hit").count(), 3);
    }

    #[test]
    fn choice_negation_minimize_match_reference() {
        let (semi, reference) = both(
            "item(a). item(b). cost(a, 3). cost(b, 5). \
             1 { pick(X) : item(X) } 1. \
             blocked(X) :- item(X), not pick(X). \
             #minimize { C,X : pick(X), cost(X, C) }.",
        );
        assert_eq!(canon(&semi), canon(&reference));
        assert_eq!(semi.cards.len(), reference.cards.len());
        assert_eq!(semi.minimize.len(), reference.minimize.len());
        assert_eq!(semi.minimize[0].1.len(), 2);
    }

    #[test]
    fn mutual_recursion_across_one_component() {
        let (semi, reference) = both(
            "base(1). base(2). \
             even(0). \
             odd(Y) :- even(X), base(B), Y = X + B, Y < 6, B = 1. \
             even(Y) :- odd(X), Y = X + 1, Y < 6.",
        );
        assert_eq!(canon(&semi), canon(&reference));
    }

    #[test]
    fn assumable_facts_match_reference() {
        let p = parse("flag(a). flag(b). on(X) :- flag(X), not off(X). { off(a) }.").unwrap();
        let grounder = Grounder::new().assumable("flag", 1);
        let semi = grounder.ground(&p).unwrap();
        let reference = naive::ground(&grounder, &p).unwrap();
        assert_eq!(canon(&semi), canon(&reference));
        let mut sa: Vec<String> = semi
            .assumable
            .iter()
            .map(|&i| semi.atom(i).to_string())
            .collect();
        let mut ra: Vec<String> = reference
            .assumable
            .iter()
            .map(|&i| reference.atom(i).to_string())
            .collect();
        sa.sort();
        ra.sort();
        assert_eq!(sa, ra);
    }

    #[test]
    fn budget_is_enforced_like_the_reference() {
        let p = parse("n(1..100). p(X) :- n(X).").unwrap();
        assert!(matches!(
            Grounder::with_budget(10).ground(&p),
            Err(AspError::GroundingBudget { limit: 10 })
        ));
    }
}
