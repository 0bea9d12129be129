//! Semi-naive, index-joined, parallel grounding engine.
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
//! * **Multi-argument hash indexes.** Join plans register the argument
//!   position they probe with per `(pred, arity, position)`; the
//!   [`PossibleSet`] maintains exactly those indexes incrementally on
//!   insert, so any bound argument — not just the first — narrows a scan.
//! * **Slot substitutions.** Rules are compiled once: variables become
//!   dense slots, substitutions become a `Vec<Option<Term>>` with
//!   trail-based undo, and the `String`-keyed `BTreeMap` clones of a
//!   naive join disappear from the hot path.
//! * **Parallel instantiation.** Phase-2 top-level joins run across
//!   `std::thread::scope` worker shards (`CPSRISK_THREADS`-controlled);
//!   emission stays sequential in source-rule order, so the output is
//!   bit-identical for every thread count.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::ast::{ArithOp, Atom, CmpOp, Head, Literal, Program, Rule, Statement, Term};
use crate::error::AspError;
use crate::intern::{SymId, SymbolTable};
use crate::program::{
    AtomId, CardConstraint, CardElement, GroundHead, GroundProgram, GroundRule, MinimizeLit,
};

/// Configuration handed over from [`Grounder`](crate::ground::Grounder).
pub(crate) struct Config<'a> {
    /// Maximum number of ground rule instances before aborting.
    pub max_instances: usize,
    /// Predicate signatures whose facts become assumable atoms.
    pub assumable: &'a [(String, usize)],
    /// Worker threads for Phase-2 instantiation.
    pub threads: usize,
    /// Keep negative body literals over atoms that are not (yet) possible,
    /// interning the atom instead of dropping the literal. One-shot
    /// grounding drops them (they are trivially true); a [`Session`] must
    /// keep them so that already-emitted rule bodies stay correct when a
    /// later extension makes the atom derivable.
    pub keep_unpossible_neg: bool,
}

/// Phase-2 parallelism is only worth its spawn cost on real programs.
const PAR_MIN_RULES: usize = 4;
const PAR_MIN_ATOMS: u32 = 256;

/// A predicate signature: interned name + arity.
type Sig = (SymId, u32);

// ---------------------------------------------------------------------------
// Compiled patterns: variables as dense slots, predicates as interned sigs.
// ---------------------------------------------------------------------------

/// A compiled term pattern.
#[derive(Debug, Clone)]
enum Pat {
    /// Fully ground, arithmetic-free subterm: compared with `==`.
    Ground(Term),
    /// Variable slot.
    Var(u32),
    /// Compound with a variable or arithmetic inside.
    Func(String, Vec<Pat>),
    /// Arithmetic subterm: evaluated, never structurally unified.
    BinOp(ArithOp, Box<Pat>, Box<Pat>),
}

/// A compiled atom pattern.
#[derive(Debug, Clone)]
struct CAtom {
    /// Predicate name (for constructing ground atoms).
    pred: String,
    /// Interned signature (for index lookups).
    sig: Sig,
    pats: Vec<Pat>,
    /// The exact atom when every argument is ground and arithmetic-free.
    /// Session extension uses it to replace a windowed delta join with a
    /// single arena lookup — the common case once accumulated slice deltas
    /// are all ground rules.
    ground: Option<Atom>,
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

fn compile_term(t: &Term, vars: &mut Vars) -> Pat {
    if t.is_ground() && !has_binop(t) {
        return Pat::Ground(t.clone());
    }
    match t {
        Term::Var(v) => Pat::Var(vars.slot(v)),
        Term::Func(f, args) => Pat::Func(
            f.clone(),
            args.iter().map(|a| compile_term(a, vars)).collect(),
        ),
        Term::BinOp(op, a, b) => Pat::BinOp(
            *op,
            Box::new(compile_term(a, vars)),
            Box::new(compile_term(b, vars)),
        ),
        // Int/Const/Str are ground and arithmetic-free: handled above.
        Term::Int(_) | Term::Const(_) | Term::Str(_) => unreachable!("ground scalar"),
    }
}

fn compile_atom(a: &Atom, vars: &mut Vars, syms: &mut SymbolTable) -> CAtom {
    let pats: Vec<Pat> = a.args.iter().map(|t| compile_term(t, vars)).collect();
    CAtom {
        pred: a.pred.clone(),
        sig: (syms.intern(&a.pred), a.args.len() as u32),
        ground: pats
            .iter()
            .all(|p| matches!(p, Pat::Ground(_)))
            .then(|| a.clone()),
        pats,
    }
}

fn compile_lit(l: &Literal, vars: &mut Vars, syms: &mut SymbolTable) -> CLit {
    match l {
        Literal::Pos(a) => CLit::Pos {
            atom: compile_atom(a, vars, syms),
            probe: None,
        },
        Literal::Neg(a) => CLit::Neg(compile_atom(a, vars, syms)),
        Literal::Cmp(op, lhs, rhs) => {
            CLit::Cmp(*op, compile_term(lhs, vars), compile_term(rhs, vars))
        }
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
            if let CLit::Pos { atom, probe } = &mut lit {
                *probe = atom
                    .pats
                    .iter()
                    .position(|p| pat_bound(p, bound))
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

fn compile_rule(r: &Rule, syms: &mut SymbolTable) -> CRule {
    let mut vars = Vars::default();
    let body_src: Vec<CLit> = r
        .body
        .iter()
        .map(|l| compile_lit(l, &mut vars, syms))
        .collect();
    let mut bound: HashSet<u32> = HashSet::new();
    let body_plan = plan(body_src.clone(), &mut bound);
    let head = match &r.head {
        Head::Atom(a) => CHead::Atom(compile_atom(a, &mut vars, syms)),
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
                        .map(|l| compile_lit(l, &mut vars, syms))
                        .collect();
                    let mut eb = bound.clone();
                    let cond_plan = plan(cond_src.clone(), &mut eb);
                    CElement {
                        atom: compile_atom(&el.atom, &mut vars, syms),
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
    slots: Vec<Option<Term>>,
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

    fn bind(&mut self, slot: u32, t: Term) {
        self.slots[slot as usize] = Some(t);
        self.trail.push(slot);
    }

    fn undo_to(&mut self, mark: usize) {
        for &s in &self.trail[mark..] {
            self.slots[s as usize] = None;
        }
        self.trail.truncate(mark);
    }
}

/// Apply the frame to a pattern and evaluate arithmetic — the compiled
/// equivalent of `apply(t, θ).eval()`.
fn eval_pat(p: &Pat, frame: &Frame, names: &[String]) -> Result<Term, AspError> {
    match p {
        Pat::Ground(t) => Ok(t.clone()),
        Pat::Var(s) => frame.slots[*s as usize].clone().ok_or_else(|| {
            AspError::BadArithmetic(format!("unbound variable {}", names[*s as usize]))
        }),
        Pat::Func(f, args) => Ok(Term::Func(
            f.clone(),
            args.iter()
                .map(|a| eval_pat(a, frame, names))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Pat::BinOp(op, a, b) => {
            let a = eval_pat(a, frame, names)?;
            let b = eval_pat(b, frame, names)?;
            match (&a, &b) {
                (Term::Int(x), Term::Int(y)) => Ok(Term::Int(op.apply(*x, *y)?)),
                _ => Err(AspError::BadArithmetic(format!("{a} {op} {b}"))),
            }
        }
    }
}

/// Unify a pattern with a ground term, binding slots through the trail.
/// On mismatch the caller undoes to its mark.
fn unify_pat(p: &Pat, g: &Term, frame: &mut Frame, names: &[String]) -> Result<bool, AspError> {
    match p {
        Pat::Ground(t) => Ok(t == g),
        Pat::Var(s) => match &frame.slots[*s as usize] {
            Some(b) => Ok(b == g),
            None => {
                frame.bind(*s, g.clone());
                Ok(true)
            }
        },
        Pat::Func(f, args) => match g {
            Term::Func(gf, gargs) if gf == f && gargs.len() == args.len() => {
                for (pa, ga) in args.iter().zip(gargs) {
                    if !unify_pat(pa, ga, frame, names)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => Ok(false),
        },
        Pat::BinOp(..) => Ok(eval_pat(p, frame, names)? == *g),
    }
}

/// Fully ground an atom pattern under a frame, evaluating arithmetic.
fn ground_catom(a: &CAtom, frame: &Frame, names: &[String]) -> Result<Atom, AspError> {
    let args = a
        .pats
        .iter()
        .map(|p| eval_pat(p, frame, names))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Atom::new(a.pred.clone(), args))
}

// ---------------------------------------------------------------------------
// Possible-atom arena with demand-registered multi-argument indexes.
// ---------------------------------------------------------------------------

/// Append-only arena of possible ground atoms with per-signature candidate
/// lists and per-`(sig, arg-position)` hash indexes. Candidate lists hold
/// ascending arena ids, so a semi-naive delta window is a binary-searched
/// subslice. Index positions are registered up front (from the join plans)
/// and maintained incrementally, keeping lookups allocation-free and the
/// whole structure `Sync` for parallel Phase-2 joins.
#[derive(Default)]
struct PossibleSet {
    atoms: Vec<Atom>,
    index: HashMap<Atom, u32>,
    by_sig: HashMap<Sig, Vec<u32>>,
    by_arg: HashMap<(SymId, u32, u32), HashMap<Term, Vec<u32>>>,
    /// Which argument positions carry an index, per signature.
    registered: HashMap<Sig, Vec<u32>>,
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
            let index = self.by_arg.entry((sig.0, sig.1, pos)).or_default();
            for &id in ids {
                index
                    .entry(self.atoms[id as usize].args[pos as usize].clone())
                    .or_default()
                    .push(id);
            }
        }
    }

    fn insert(&mut self, sig: Sig, atom: Atom) -> bool {
        if self.index.contains_key(&atom) {
            return false;
        }
        let id = self.atoms.len() as u32;
        if let Some(positions) = self.registered.get(&sig) {
            for &p in positions {
                self.by_arg
                    .entry((sig.0, sig.1, p))
                    .or_default()
                    .entry(atom.args[p as usize].clone())
                    .or_default()
                    .push(id);
            }
        }
        self.by_sig.entry(sig).or_default().push(id);
        self.index.insert(atom.clone(), id);
        self.atoms.push(atom);
        true
    }

    fn contains(&self, atom: &Atom) -> bool {
        self.index.contains_key(atom)
    }

    /// The arena id of an exact atom, if it is possible.
    fn arena_id(&self, atom: &Atom) -> Option<u32> {
        self.index.get(atom).copied()
    }

    fn atom(&self, id: u32) -> &Atom {
        &self.atoms[id as usize]
    }

    fn len(&self) -> u32 {
        self.atoms.len() as u32
    }

    fn candidates(&self, sig: Sig) -> &[u32] {
        self.by_sig.get(&sig).map_or(&[], Vec::as_slice)
    }

    /// Candidates narrowed by a ground value at an indexed position.
    fn candidates_at(&self, sig: Sig, pos: u32, val: &Term) -> &[u32] {
        self.by_arg
            .get(&(sig.0, sig.1, pos))
            .and_then(|m| m.get(val))
            .map_or(&[], Vec::as_slice)
    }
}

/// Can a delta-windowed join at `place` produce anything? Empty windows
/// never can; a fully ground read literal only can when its exact atom was
/// interned inside the window — one arena lookup instead of a join over
/// every new atom of the predicate.
fn place_hits_window(
    possible: &PossibleSet,
    rule: &CRule,
    place: Place,
    sig: Sig,
    lo: u32,
    hi: u32,
) -> bool {
    if window(possible.candidates(sig), lo, hi).is_empty() {
        return false;
    }
    match &rule.read_atom(place).ground {
        Some(atom) => possible
            .arena_id(atom)
            .is_some_and(|id| (lo..hi).contains(&id)),
        None => true,
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

/// Join the planned literals from `at` onward against the possible set,
/// invoking `cb` once per complete frame. `delta` restricts one literal
/// (by plan index) to an arena-id window — the semi-naive rule variant.
fn join(
    possible: &PossibleSet,
    lits: &[CLit],
    at: usize,
    delta: Option<(usize, (u32, u32))>,
    frame: &mut Frame,
    names: &[String],
    cb: &mut dyn FnMut(&mut Frame) -> Result<(), AspError>,
) -> Result<(), AspError> {
    let Some(lit) = lits.get(at) else {
        return cb(frame);
    };
    match lit {
        CLit::Pos { atom, probe } => {
            let base: &[u32] = match probe {
                // A probe that fails to evaluate (e.g. arithmetic on a
                // symbol) falls back to the full scan: if no candidate
                // exists the naive oracle never errors either.
                Some(p) => match eval_pat(&atom.pats[*p as usize], frame, names) {
                    Ok(v) => possible.candidates_at(atom.sig, *p, &v),
                    Err(_) => possible.candidates(atom.sig),
                },
                None => possible.candidates(atom.sig),
            };
            let cands = match delta {
                Some((i, (lo, hi))) if i == at => window(base, lo, hi),
                _ => base,
            };
            for &c in cands {
                let mark = frame.mark();
                let g = possible.atom(c);
                let mut ok = true;
                for (pa, ga) in atom.pats.iter().zip(&g.args) {
                    if !unify_pat(pa, ga, frame, names)? {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    join(possible, lits, at + 1, delta, frame, names, cb)?;
                }
                frame.undo_to(mark);
            }
            Ok(())
        }
        CLit::Neg(atom) => {
            // Negation is decided at emission; here the atom must merely be
            // ground (arithmetic errors propagate, as in the naive oracle).
            let _ = ground_catom(atom, frame, names)?;
            join(possible, lits, at + 1, delta, frame, names, cb)
        }
        CLit::Cmp(op, l, r) => {
            if *op == CmpOp::Eq {
                // Binding equality: X = expr (either side).
                if let Pat::Var(s) = l {
                    if frame.slots[*s as usize].is_none() {
                        let v = eval_pat(r, frame, names)?;
                        let mark = frame.mark();
                        frame.bind(*s, v);
                        join(possible, lits, at + 1, delta, frame, names, cb)?;
                        frame.undo_to(mark);
                        return Ok(());
                    }
                }
                if let Pat::Var(s) = r {
                    if frame.slots[*s as usize].is_none() {
                        let v = eval_pat(l, frame, names)?;
                        let mark = frame.mark();
                        frame.bind(*s, v);
                        join(possible, lits, at + 1, delta, frame, names, cb)?;
                        frame.undo_to(mark);
                        return Ok(());
                    }
                }
            }
            let lv = eval_pat(l, frame, names)?;
            let rv = eval_pat(r, frame, names)?;
            if op.eval(&lv, &rv) {
                join(possible, lits, at + 1, delta, frame, names, cb)?;
            }
            Ok(())
        }
    }
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

/// Evaluate one rule (optionally as the delta variant at `place`) and push
/// every derivable head atom into `buf`.
fn derive_heads(
    rule: &CRule,
    possible: &PossibleSet,
    delta: Option<(Place, (u32, u32))>,
    buf: &mut Vec<(Sig, Atom)>,
) -> Result<(), AspError> {
    let body_delta = match delta {
        Some((Place::Body(i), w)) => Some((i, w)),
        _ => None,
    };
    let names = &rule.names;
    let mut frame = Frame::new(rule.n_slots);
    join(
        possible,
        &rule.body_plan,
        0,
        body_delta,
        &mut frame,
        names,
        &mut |fr| {
            match &rule.head {
                CHead::Atom(a) => buf.push((a.sig, ground_catom(a, fr, names)?)),
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
                        join(possible, &el.cond_plan, 0, ed, fr, names, &mut |fr2| {
                            buf.push((el.atom.sig, ground_catom(&el.atom, fr2, names)?));
                            Ok(())
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
fn possible_fixpoint(crules: &[CRule], possible: &mut PossibleSet) -> Result<(), AspError> {
    // Dense node ids for every signature read or written by a rule.
    let mut node_of: HashMap<Sig, usize> = HashMap::new();
    let node = |map: &mut HashMap<Sig, usize>, sig: Sig| -> usize {
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

    let mut buf: Vec<(Sig, Atom)> = Vec::new();
    for (c, rules) in comp_rules.iter().enumerate() {
        if rules.is_empty() {
            continue;
        }
        let comp_start = possible.len();
        // One full evaluation pass seeds the component.
        for &ri in rules {
            derive_heads(&crules[ri], possible, None, &mut buf)?;
            for (sig, a) in buf.drain(..) {
                possible.insert(sig, a);
            }
        }
        // Delta variants: one per recursive positive literal place.
        let places: Vec<(usize, Place)> = rules
            .iter()
            .flat_map(|&ri| {
                crules[ri]
                    .reads
                    .iter()
                    .copied()
                    .filter(|(_, sig)| comp_of[node_of[sig]] == c)
                    .map(move |(place, _)| (ri, place))
            })
            .collect();
        if places.is_empty() {
            continue;
        }
        let mut lo = comp_start;
        loop {
            let hi = possible.len();
            if lo == hi {
                break;
            }
            for &(ri, place) in &places {
                derive_heads(&crules[ri], possible, Some((place, (lo, hi))), &mut buf)?;
                for (sig, a) in buf.drain(..) {
                    possible.insert(sig, a);
                }
            }
            lo = hi;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Phase 2: parallel instantiation, sequential source-order emission.
// ---------------------------------------------------------------------------

type Snapshot = Vec<Option<Term>>;

/// All complete top-level substitutions of a rule, in candidate order.
fn instances(rule: &CRule, possible: &PossibleSet) -> Result<Vec<Snapshot>, AspError> {
    let mut out = Vec::new();
    let mut frame = Frame::new(rule.n_slots);
    join(
        possible,
        &rule.body_plan,
        0,
        None,
        &mut frame,
        &rule.names,
        &mut |fr| {
            out.push(fr.slots.clone());
            Ok(())
        },
    )?;
    Ok(out)
}

/// Per-rule instance lists, computed on worker threads when the program is
/// large enough. Contiguous rule shards keep results indexed by rule, so
/// the emitted program is identical for every thread count.
fn shard_instances(
    crules: &[CRule],
    possible: &PossibleSet,
    threads: usize,
) -> Vec<Result<Vec<Snapshot>, AspError>> {
    if threads <= 1 || crules.len() < PAR_MIN_RULES || possible.len() < PAR_MIN_ATOMS {
        return crules.iter().map(|r| instances(r, possible)).collect();
    }
    let chunk = crules.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = crules
            .chunks(chunk)
            .map(|shard| {
                s.spawn(move || {
                    shard
                        .iter()
                        .map(|r| instances(r, possible))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("grounder worker panicked"))
            .collect()
    })
}

/// Ground the positive/negative atoms of a compiled literal list (in source
/// order) under a complete frame. Mirrors the naive oracle's `ground_condition`:
/// `alive` is false when a positive atom is underivable; negative literals
/// over underivable atoms are trivially true and dropped.
fn ground_condition(
    lits: &[CLit],
    frame: &Frame,
    names: &[String],
    possible: &PossibleSet,
    keep_unpossible_neg: bool,
    out: &mut GroundProgram,
) -> Result<(Vec<AtomId>, Vec<AtomId>, bool), AspError> {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for lit in lits {
        match lit {
            CLit::Pos { atom, .. } => {
                let g = ground_catom(atom, frame, names)?;
                if !possible.contains(&g) {
                    return Ok((pos, neg, false));
                }
                pos.push(out.intern(g));
            }
            CLit::Neg(atom) => {
                let g = ground_catom(atom, frame, names)?;
                if keep_unpossible_neg || possible.contains(&g) {
                    neg.push(out.intern(g));
                }
            }
            CLit::Cmp(op, l, r) => {
                let lv = eval_pat(l, frame, names)?;
                let rv = eval_pat(r, frame, names)?;
                if !op.eval(&lv, &rv) {
                    return Ok((pos, neg, false));
                }
            }
        }
    }
    Ok((pos, neg, true))
}

fn push_rule(out: &mut GroundProgram, seen: &mut HashSet<GroundRule>, rule: GroundRule) -> bool {
    if seen.insert(rule.clone()) {
        out.rules.push(rule);
        return true;
    }
    false
}

fn emit_rule(
    cfg: &Config<'_>,
    rule: &CRule,
    frame: &mut Frame,
    possible: &PossibleSet,
    out: &mut GroundProgram,
    seen: &mut HashSet<GroundRule>,
) -> Result<(), AspError> {
    let names = &rule.names;
    let keep = cfg.keep_unpossible_neg;
    let (body_pos, body_neg, alive) =
        ground_condition(&rule.body_src, frame, names, possible, keep, out)?;
    if !alive {
        return Ok(());
    }
    match &rule.head {
        CHead::Atom(a) => {
            let ga = ground_catom(a, frame, names)?;
            let is_assumable = body_pos.is_empty()
                && body_neg.is_empty()
                && cfg
                    .assumable
                    .iter()
                    .any(|(p, n)| *p == ga.pred && *n == ga.args.len());
            let head = out.intern(ga);
            let inserted = push_rule(
                out,
                seen,
                GroundRule {
                    head: if is_assumable {
                        GroundHead::Choice(head)
                    } else {
                        GroundHead::Atom(head)
                    },
                    pos: body_pos,
                    neg: body_neg,
                },
            );
            if inserted && is_assumable {
                out.assumable.push(head);
            }
        }
        CHead::None => {
            push_rule(
                out,
                seen,
                GroundRule {
                    head: GroundHead::None,
                    pos: body_pos,
                    neg: body_neg,
                },
            );
        }
        CHead::Choice {
            lower,
            upper,
            elements,
        } => {
            let mut card_elems: Vec<CardElement> = Vec::new();
            for el in elements {
                let mut exts: Vec<Snapshot> = Vec::new();
                let mark = frame.mark();
                join(possible, &el.cond_plan, 0, None, frame, names, &mut |fr| {
                    exts.push(fr.slots.clone());
                    Ok(())
                })?;
                frame.undo_to(mark);
                for sigma in exts {
                    let f2 = Frame {
                        slots: sigma,
                        trail: Vec::new(),
                    };
                    let atom = out.intern(ground_catom(&el.atom, &f2, names)?);
                    let (gpos, gneg, galive) =
                        ground_condition(&el.cond_src, &f2, names, possible, keep, out)?;
                    if !galive {
                        continue;
                    }
                    let mut pos = body_pos.clone();
                    pos.extend(gpos.iter().copied());
                    let mut neg = body_neg.clone();
                    neg.extend(gneg.iter().copied());
                    push_rule(
                        out,
                        seen,
                        GroundRule {
                            head: GroundHead::Choice(atom),
                            pos,
                            neg,
                        },
                    );
                    if lower.is_some() || upper.is_some() {
                        card_elems.push(CardElement {
                            atom,
                            guard_pos: gpos,
                            guard_neg: gneg,
                        });
                    }
                }
            }
            if lower.is_some() || upper.is_some() {
                let n = card_elems.len() as u32;
                out.cards.push(CardConstraint {
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

// ---------------------------------------------------------------------------
// Entry point and resident sessions.
// ---------------------------------------------------------------------------

/// Ground a program with the semi-naive engine. Observationally identical
/// to the naive oracle grounder (same atoms, rules, cards, minimize literals,
/// shows, and assumables), pinned by differential proptests.
pub(crate) fn ground(program: &Program, cfg: &Config<'_>) -> Result<GroundProgram, AspError> {
    Ok(Session::new(program, cfg)?.out)
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
    syms: &mut SymbolTable,
) -> Vec<CMinElement> {
    elements
        .iter()
        .map(|el| {
            let mut vars = Vars::default();
            let cond_src: Vec<CLit> = el
                .condition
                .iter()
                .map(|l| compile_lit(l, &mut vars, syms))
                .collect();
            let mut bound = HashSet::new();
            let cond_plan = plan(cond_src.clone(), &mut bound);
            CMinElement {
                weight: compile_term(&el.weight, &mut vars),
                terms: el
                    .terms
                    .iter()
                    .map(|t| compile_term(t, &mut vars))
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

/// A resident grounding session: the compiled rule set, symbol table,
/// possible-atom arena, dedup set, and ground program survive across
/// [`Session::extend`] calls, so a program delta (new time slices of a
/// temporal unrolling, say) is ground semi-naively against the existing
/// state instead of from scratch.
pub(crate) struct Session {
    max_instances: usize,
    assumable: Vec<(String, usize)>,
    keep_unpossible_neg: bool,
    syms: SymbolTable,
    crules: Vec<CRule>,
    cmins: Vec<(i64, Vec<CMinElement>)>,
    possible: PossibleSet,
    seen: HashSet<GroundRule>,
    pub(crate) out: GroundProgram,
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
        let mut syms = SymbolTable::new();
        let crules: Vec<CRule> = rules.iter().map(|r| compile_rule(r, &mut syms)).collect();
        let bounded_choice = rules.iter().any(|r| has_bounded_choice(r));

        // Compile #minimize elements up front so their probes register too.
        let mut cmins: Vec<(i64, Vec<CMinElement>)> = Vec::new();
        for stmt in &program.statements {
            if let Statement::Minimize { priority, elements } = stmt {
                cmins.push((*priority, compile_min_elements(elements, &mut syms)));
            }
        }

        // Register every probe position before the first insert, so the
        // argument indexes are maintained incrementally from the start.
        let mut possible = PossibleSet::default();
        register_probes(&mut possible, &crules, cmins.iter().map(|(_, g)| g));

        // Phase 1: stratified semi-naive possible-atom fixpoint.
        possible_fixpoint(&crules, &mut possible)?;

        // Phase 2: parallel instantiation, sequential source-order emission.
        let snaps = shard_instances(&crules, &possible, cfg.threads);
        let mut out = GroundProgram::new();
        let mut seen: HashSet<GroundRule> = HashSet::new();
        for (rule, snap) in crules.iter().zip(snaps) {
            let mut frame = Frame::new(rule.n_slots);
            for slots in snap? {
                frame.slots = slots;
                frame.trail.clear();
                emit_rule(cfg, rule, &mut frame, &possible, &mut out, &mut seen)?;
                if out.rules.len() > cfg.max_instances {
                    return Err(AspError::GroundingBudget {
                        limit: cfg.max_instances,
                    });
                }
            }
        }

        // Phase 3: projections, then optimization statements.
        for stmt in &program.statements {
            if let Statement::Show { pred, arity } = stmt {
                out.shows.push((pred.clone(), *arity));
            }
        }
        let mut session = Session {
            max_instances: cfg.max_instances,
            assumable: cfg.assumable.to_vec(),
            keep_unpossible_neg: cfg.keep_unpossible_neg,
            syms,
            crules,
            cmins,
            possible,
            seen,
            out,
            bounded_choice,
        };
        session.recompute_minimize()?;
        Ok(session)
    }

    /// The ground program in its current state.
    pub(crate) fn program(&self) -> &GroundProgram {
        &self.out
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

        // Compile the delta against the session's symbol table and register
        // its probes (with backfill over already-present atoms).
        let new_crules: Vec<CRule> = new_rules
            .iter()
            .map(|r| compile_rule(r, &mut self.syms))
            .collect();
        let mut new_cmins: Vec<(i64, Vec<CMinElement>)> = Vec::new();
        for stmt in &delta.statements {
            if let Statement::Minimize { priority, elements } = stmt {
                new_cmins.push((*priority, compile_min_elements(elements, &mut self.syms)));
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
            let Some(id) = self.out.lookup(atom) else {
                return Err(AspError::Internal(format!(
                    "revoked atom `{atom}` is not in the session program"
                )));
            };
            let target = GroundRule {
                head: GroundHead::Choice(id),
                pos: Vec::new(),
                neg: Vec::new(),
            };
            if !self.seen.remove(&target) {
                return Err(AspError::Internal(format!(
                    "revoked atom `{atom}` has no bare choice rule to retract"
                )));
            }
            self.out.rules.retain(|r| *r != target);
            self.out.assumable.retain(|&a| a != id);
            revoked_ids.push(id);
        }

        let atom_watermark = self.out.atom_count() as u32;
        let rules_low = self.out.rules.len();
        let possible_low = self.possible.len();

        // Phase 1 (delta): seed with a full pass over the new rules, then
        // run an unstratified semi-naive loop over *all* rules, windowed to
        // the atoms added since `possible_low`. The possible fixpoint
        // ignores negation, so dropping the SCC schedule loses nothing but
        // scheduling quality — and the delta windows keep it cheap.
        let mut buf: Vec<(Sig, Atom)> = Vec::new();
        for rule in &new_crules {
            derive_heads(rule, &self.possible, None, &mut buf)?;
            for (sig, a) in buf.drain(..) {
                self.possible.insert(sig, a);
            }
        }
        let mut lo = possible_low;
        loop {
            let hi = self.possible.len();
            if lo == hi {
                break;
            }
            for rule in self.crules.iter().chain(new_crules.iter()) {
                for &(place, sig) in &rule.reads {
                    if !place_hits_window(&self.possible, rule, place, sig, lo, hi) {
                        continue;
                    }
                    derive_heads(rule, &self.possible, Some((place, (lo, hi))), &mut buf)?;
                    for (s, a) in buf.drain(..) {
                        self.possible.insert(s, a);
                    }
                }
            }
            lo = hi;
        }

        // Phase 2 (delta): new rules instantiate fully; old rules re-join
        // only through windows over the atoms this extension added. The
        // `seen` set absorbs the overlap between delta anchors.
        let hi = self.possible.len();
        {
            let Session {
                ref assumable,
                ref crules,
                ref possible,
                ref mut out,
                ref mut seen,
                max_instances,
                keep_unpossible_neg,
                ..
            } = *self;
            let cfg = Config {
                max_instances,
                assumable,
                threads: 1,
                keep_unpossible_neg,
            };
            let emit_all = |rule: &CRule,
                            out: &mut GroundProgram,
                            seen: &mut HashSet<GroundRule>|
             -> Result<(), AspError> {
                let mut frame = Frame::new(rule.n_slots);
                for slots in instances(rule, possible)? {
                    frame.slots = slots;
                    frame.trail.clear();
                    emit_rule(&cfg, rule, &mut frame, possible, out, seen)?;
                    if out.rules.len() > max_instances {
                        return Err(AspError::GroundingBudget {
                            limit: max_instances,
                        });
                    }
                }
                Ok(())
            };
            for rule in &new_crules {
                emit_all(rule, out, seen)?;
            }
            if hi > possible_low {
                for rule in crules {
                    // Body-literal deltas re-join through one window each;
                    // an element-condition delta falls back to a full
                    // re-instantiation (deduped), since `emit_rule` grounds
                    // elements from the body frame.
                    let mut body_deltas: Vec<usize> = Vec::new();
                    let mut elem_hit = false;
                    for &(place, sig) in &rule.reads {
                        if !place_hits_window(possible, rule, place, sig, possible_low, hi) {
                            continue;
                        }
                        match place {
                            Place::Body(i) => body_deltas.push(i),
                            Place::Elem(..) => elem_hit = true,
                        }
                    }
                    if elem_hit {
                        emit_all(rule, out, seen)?;
                        continue;
                    }
                    for i in body_deltas {
                        let mut frame = Frame::new(rule.n_slots);
                        join(
                            possible,
                            &rule.body_plan,
                            0,
                            Some((i, (possible_low, hi))),
                            &mut frame,
                            &rule.names,
                            &mut |fr| {
                                emit_rule(&cfg, rule, fr, possible, out, seen)?;
                                if out.rules.len() > max_instances {
                                    return Err(AspError::GroundingBudget {
                                        limit: max_instances,
                                    });
                                }
                                Ok(())
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
                if !self.out.shows.contains(&(pred.clone(), *arity)) {
                    self.out.shows.push((pred.clone(), *arity));
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
        let mut dirty = false;
        for r in &self.out.rules[rules_low..] {
            let head = match r.head {
                GroundHead::Atom(h) | GroundHead::Choice(h) => h,
                GroundHead::None => continue,
            };
            if head.0 < atom_watermark && !revoked_ids.contains(&head) {
                dirty = true;
                break;
            }
        }
        Ok(ExtendStats {
            new_atoms: self.out.atom_count() - atom_watermark as usize,
            new_rules: self.out.rules.len() - rules_low,
            revoked: revoked_ids,
            dirty,
        })
    }

    /// Rebuild `out.minimize` from every compiled minimize statement.
    fn recompute_minimize(&mut self) -> Result<(), AspError> {
        let mut minimize: BTreeMap<i64, Vec<MinimizeLit>> = BTreeMap::new();
        let Session {
            ref cmins,
            ref possible,
            ref mut out,
            keep_unpossible_neg,
            ..
        } = *self;
        for (priority, group) in cmins {
            for el in group {
                let mut found: Vec<Snapshot> = Vec::new();
                let mut frame = Frame::new(el.n_slots);
                join(
                    possible,
                    &el.cond_plan,
                    0,
                    None,
                    &mut frame,
                    &el.names,
                    &mut |fr| {
                        found.push(fr.slots.clone());
                        Ok(())
                    },
                )?;
                for slots in found {
                    let f = Frame {
                        slots,
                        trail: Vec::new(),
                    };
                    let w = eval_pat(&el.weight, &f, &el.names)?;
                    let Term::Int(weight) = w else {
                        return Err(AspError::BadArithmetic(format!(
                            "minimize weight `{w}` is not an integer"
                        )));
                    };
                    let tuple = el
                        .terms
                        .iter()
                        .map(|t| eval_pat(t, &f, &el.names))
                        .collect::<Result<Vec<_>, _>>()?;
                    let (pos, neg, alive) = ground_condition(
                        &el.cond_src,
                        &f,
                        &el.names,
                        possible,
                        keep_unpossible_neg,
                        out,
                    )?;
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
        out.minimize = minimize.into_iter().rev().collect();
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
    fn thread_counts_produce_identical_programs() {
        // Enough rules and atoms to clear the parallelism guard.
        let mut src = String::from("n(1..400).\n");
        for k in 0..6 {
            src.push_str(&format!("p{k}(X) :- n(X), X > {k}.\n"));
        }
        let p = parse(&src).unwrap();
        let single = Grounder::new().with_threads(1).ground(&p).unwrap();
        let multi = Grounder::new().with_threads(4).ground(&p).unwrap();
        assert_eq!(
            single.atoms().map(|(_, a)| a.clone()).collect::<Vec<_>>(),
            multi.atoms().map(|(_, a)| a.clone()).collect::<Vec<_>>(),
        );
        assert_eq!(single.rules, multi.rules);
        assert_eq!(single.cards, multi.cards);
        assert_eq!(single.minimize, multi.minimize);
        assert_eq!(single.assumable, multi.assumable);
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
