//! Grounding-size prediction by abstract interpretation.
//!
//! Every predicate argument position carries an upper bound on the number
//! of distinct values it can hold; every predicate carries a bound on its
//! distinct ground atoms. Fact predicates are counted exactly; derived
//! predicates get their bounds from a monotone fixpoint over the rules:
//! the domain of a variable is the minimum bound over the positive body
//! positions it occurs in (a shared variable joins, so it is counted
//! once), `V = expr` bindings inherit the bound of the expression's
//! variables, and a rule's instantiation estimate is the product of its
//! variable domains.
//!
//! On top of the domains sits a functional-dependency analysis: an
//! argument position is *functional* when its value is fixed by the
//! values of the remaining positions — `inflow(tank, rate)` with one
//! rate per tank, or a temporal state predicate whose level is a
//! function of (tank, step). Fact signatures are checked exactly by
//! projection counting; derived signatures are checked by a greatest
//! fixpoint over their (single) defining rule. Variables bound at a
//! functional position of a joined literal then stop multiplying the
//! instantiation estimate, which is what keeps recursive state
//! predicates from saturating to the universe.
//!
//! Bounds are heuristic upper estimates, not certificates — they back the
//! *advisory* lints `A009` (predicted grounding explosion) and `A010`
//! (predicate never derivable; a zero bound is only ever produced when no
//! rule can fire, so that one is sound) plus the predicted-vs-actual
//! report of `cpsrisk analyze`.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::ast::{CmpOp, Head, Literal, Program, Statement, Term};

/// Rules predicted to ground into more instances than this trigger `A009`.
pub const EXPLOSION_THRESHOLD: f64 = 1_000_000.0;

/// All bounds saturate here; a saturated bound means "could not converge,
/// assume huge".
const SIZE_CAP: f64 = 1e12;

/// Upper bounds for one predicate signature.
#[derive(Debug, Clone, PartialEq)]
pub struct PredBound {
    /// Predicate name.
    pub pred: String,
    /// Arity of this signature.
    pub arity: usize,
    /// Upper bound on distinct ground atoms of the predicate.
    pub atoms: f64,
    /// Per-argument-position upper bound on distinct values.
    pub args: Vec<f64>,
    /// The predicate appears in some rule head (facts included).
    pub defined: bool,
}

/// Predicted ground instances for one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleEstimate {
    /// Index into `Program::statements` (aligned with
    /// `SpannedProgram::statement_spans`).
    pub stmt: usize,
    /// Predicted number of ground instances of this statement.
    pub instances: f64,
}

/// The full prediction: per-predicate bounds and per-statement estimates.
#[derive(Debug, Clone)]
pub struct SizePrediction {
    /// Bounds per predicate signature, sorted by `(pred, arity)`.
    pub preds: Vec<PredBound>,
    /// Instantiation estimates for every rule and `#minimize` statement.
    pub rules: Vec<RuleEstimate>,
    /// Sum of all statement estimates (saturating).
    pub total: f64,
}

impl SizePrediction {
    /// Bound for a signature, if it appears in the program.
    #[must_use]
    pub fn bound(&self, pred: &str, arity: usize) -> Option<&PredBound> {
        self.preds
            .binary_search_by(|b| (b.pred.as_str(), b.arity).cmp(&(pred, arity)))
            .ok()
            .map(|i| &self.preds[i])
    }
}

/// Saturating product/sum helpers: everything is clamped to [`SIZE_CAP`].
fn sat(x: f64) -> f64 {
    if x.is_finite() && x < SIZE_CAP {
        x
    } else {
        SIZE_CAP
    }
}

#[derive(Clone)]
struct Bounds {
    atoms: Vec<f64>,
    args: Vec<Vec<f64>>,
}

struct Ctx<'p> {
    sigs: Vec<(&'p str, usize)>,
    index: HashMap<(&'p str, usize), usize>,
    defined: Vec<bool>,
    /// Distinct ground (sub)terms in the program: the Herbrand-universe
    /// estimate that caps any single argument position.
    universe: f64,
    facts: Bounds,
    /// Fact statements already counted exactly in `facts`.
    is_fact: Vec<bool>,
    /// `functional[s][j]`: position `j` of signature `s` holds at most
    /// one value for each combination of the other positions. Heuristic
    /// for derived signatures (distinct defining rules are assumed not to
    /// collide on the key), so it feeds estimates only, never `A010`.
    functional: Vec<Vec<bool>>,
}

impl Ctx<'_> {
    fn sig(&self, a: &crate::ast::Atom) -> usize {
        self.index[&(a.pred.as_str(), a.args.len())]
    }
}

/// Predict per-predicate domain sizes and per-rule instantiation counts.
#[must_use]
pub fn predict_sizes(program: &Program) -> SizePrediction {
    let ctx = build_ctx(program);
    let stmts: Vec<Compiled> = program
        .statements
        .iter()
        .enumerate()
        .map(|(si, stmt)| Compiled::new(&ctx, stmt, ctx.is_fact[si]))
        .collect();
    let mut fix = Fixpoint::new(&ctx, &stmts);
    let mut cur = ctx.facts.clone();
    // Enough headroom for temporal chains, whose argument bounds grow by
    // a constant per step until the time domain caps them.
    let max_iter = (2 * ctx.sigs.len() + 8).max(64);
    let mut converged = false;
    for _ in 0..max_iter {
        let changes = fix.step(&cur);
        if changes.is_empty() {
            converged = true;
            break;
        }
        fix.apply(&mut cur, changes);
    }
    if !converged {
        // Force-saturate whatever is still moving; one more monotone step
        // folds the saturated bounds into their dependents.
        let moving = fix.step(&cur);
        fix.saturate(&ctx, &mut cur, moving);
        let changes = fix.step(&cur);
        fix.apply(&mut cur, changes);
    }

    let mut rules = Vec::new();
    let mut total = 0.0f64;
    for (si, stmt) in stmts.iter().enumerate() {
        let instances = match stmt {
            Compiled::Fact => 1.0,
            Compiled::Rule(rule) => rule.estimate(&cur, ctx.universe),
            Compiled::Minimize(elements) => {
                let mut est = 0.0f64;
                for e in elements {
                    let doms = e.scope.domains(&cur, ctx.universe);
                    est = sat(est + product(&e.free, &doms, ctx.universe));
                }
                est
            }
            Compiled::Show => continue,
        };
        rules.push(RuleEstimate {
            stmt: si,
            instances,
        });
        total = sat(total + instances);
    }

    let preds = ctx
        .sigs
        .iter()
        .enumerate()
        .map(|(s, &(pred, arity))| PredBound {
            pred: pred.to_owned(),
            arity,
            atoms: cur.atoms[s],
            args: cur.args[s].clone(),
            defined: ctx.defined[s],
        })
        .collect();
    SizePrediction {
        preds,
        rules,
        total,
    }
}

fn build_ctx<'p>(program: &'p Program) -> Ctx<'p> {
    let mut sig_set: BTreeSet<(&str, usize)> = BTreeSet::new();
    let mut defined_set: BTreeSet<(&str, usize)> = BTreeSet::new();
    let mut ground_terms: HashSet<&Term> = HashSet::new();
    let mut each_atom = |atom: &'p crate::ast::Atom, is_head: bool| {
        let sig = (atom.pred.as_str(), atom.args.len());
        if is_head {
            defined_set.insert(sig);
        }
        sig_set.insert(sig);
    };
    fn body_atom(lit: &Literal) -> Option<&crate::ast::Atom> {
        match lit {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            Literal::Cmp(..) => None,
        }
    }
    for stmt in &program.statements {
        match stmt {
            Statement::Rule(rule) => {
                match &rule.head {
                    Head::Atom(a) => each_atom(a, true),
                    Head::Choice { elements, .. } => {
                        for e in elements {
                            each_atom(&e.atom, true);
                            for lit in &e.condition {
                                if let Some(a) = body_atom(lit) {
                                    each_atom(a, false);
                                }
                            }
                        }
                    }
                    Head::None => {}
                }
                for lit in &rule.body {
                    if let Some(a) = body_atom(lit) {
                        each_atom(a, false);
                    }
                }
            }
            Statement::Minimize { elements, .. } => {
                for e in elements {
                    for lit in &e.condition {
                        if let Some(a) = body_atom(lit) {
                            each_atom(a, false);
                        }
                    }
                }
            }
            Statement::Show { .. } => {}
        }
        collect_ground_subterms(stmt, &mut ground_terms);
    }
    let sigs: Vec<(&str, usize)> = sig_set.into_iter().collect();
    let index: HashMap<(&str, usize), usize> =
        sigs.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let defined: Vec<bool> = sigs.iter().map(|s| defined_set.contains(s)).collect();
    let universe = ground_terms.len().max(1) as f64;

    // Count fact predicates exactly: distinct tuples and per-position
    // distinct values.
    let mut tuples: Vec<HashSet<&[Term]>> = vec![HashSet::new(); sigs.len()];
    let mut rows: Vec<Vec<&[Term]>> = vec![Vec::new(); sigs.len()];
    let mut values: Vec<Vec<HashSet<&Term>>> = sigs
        .iter()
        .map(|(_, arity)| vec![HashSet::new(); *arity])
        .collect();
    let mut is_fact = vec![false; program.statements.len()];
    for (si, stmt) in program.statements.iter().enumerate() {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        let Head::Atom(a) = &rule.head else {
            continue;
        };
        if !rule.body.is_empty() || !a.is_ground() {
            continue;
        }
        is_fact[si] = true;
        let s = index[&(a.pred.as_str(), a.args.len())];
        if tuples[s].insert(&a.args) {
            rows[s].push(&a.args);
        }
        for (i, t) in a.args.iter().enumerate() {
            values[s][i].insert(t);
        }
    }
    let facts = Bounds {
        atoms: tuples.iter().map(|t| t.len() as f64).collect(),
        args: values
            .iter()
            .map(|v| v.iter().map(|s| s.len() as f64).collect())
            .collect(),
    };
    let functional = functional_positions(program, &sigs, &index, &is_fact, &rows);
    Ctx {
        sigs,
        index,
        defined,
        universe,
        facts,
        is_fact,
        functional,
    }
}

/// Compute the per-signature functional-position flags.
///
/// * Arity-0/1 signatures never carry a flag (a position "functional in
///   the other positions" of an arity-1 signature would claim a single
///   atom, which recursion routinely violates).
/// * Fact signatures are checked exactly: position `j` is functional iff
///   the tuples have as many distinct projections-without-`j` as tuples.
/// * Derived signatures keep a flag only when at most one non-fact rule
///   defines them (two rules could derive the same key with different
///   values) and that rule provably maps each key to one value, checked
///   by a greatest fixpoint: start optimistic, strike a position whose
///   head term is not functionally determined by the other head
///   positions under the current flags.
/// * Choice heads are nondeterministic, so they clear every flag.
fn functional_positions(
    program: &Program,
    sigs: &[(&str, usize)],
    index: &HashMap<(&str, usize), usize>,
    is_fact: &[bool],
    fact_rows: &[Vec<&[Term]>],
) -> Vec<Vec<bool>> {
    let mut fd: Vec<Vec<bool>> = sigs
        .iter()
        .map(|(_, arity)| vec![*arity >= 2; *arity])
        .collect();
    for (s, rows) in fact_rows.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        for (j, flag) in fd[s].iter_mut().enumerate() {
            if !*flag {
                continue;
            }
            let mut keys: HashSet<Vec<&Term>> = HashSet::new();
            for row in rows {
                keys.insert(
                    row.iter()
                        .enumerate()
                        .filter(|&(i, _)| i != j)
                        .map(|(_, v)| v)
                        .collect(),
                );
            }
            *flag = keys.len() == rows.len();
        }
    }
    // Count defining rules per signature; choice heads poison outright.
    let mut rule_heads: Vec<usize> = vec![0; sigs.len()];
    let mut rules: Vec<(usize, &crate::ast::Rule)> = Vec::new();
    for (si, stmt) in program.statements.iter().enumerate() {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        if is_fact[si] {
            continue;
        }
        match &rule.head {
            Head::Atom(a) => {
                let s = index[&(a.pred.as_str(), a.args.len())];
                rule_heads[s] += 1;
                rules.push((s, rule));
            }
            Head::Choice { elements, .. } => {
                for e in elements {
                    let s = index[&(e.atom.pred.as_str(), e.atom.args.len())];
                    fd[s].iter_mut().for_each(|f| *f = false);
                }
            }
            Head::None => {}
        }
    }
    for (s, &n) in rule_heads.iter().enumerate() {
        if n > 1 {
            fd[s].iter_mut().for_each(|f| *f = false);
        }
    }
    // Greatest fixpoint over the single defining rules.
    loop {
        let mut changed = false;
        for &(s, rule) in &rules {
            let Head::Atom(a) = &rule.head else {
                continue;
            };
            for j in 0..a.args.len() {
                if !fd[s][j] {
                    continue;
                }
                let mut seed = BTreeSet::new();
                for (i, t) in a.args.iter().enumerate() {
                    if i != j {
                        t.collect_vars(&mut seed);
                    }
                }
                let det = fd_closure(seed, &all_positive_literals(rule), &fd, index);
                let mut need = BTreeSet::new();
                a.args[j].collect_vars(&mut need);
                if !need.is_subset(&det) {
                    fd[s][j] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            return fd;
        }
    }
}

/// Closure of the variables functionally determined by `seed`, under the
/// rule's positive literals: `V = expr` binds `V` once `expr` is
/// determined (and inverts through `+`/`-` when only one variable is
/// left open), and a literal whose position `j` is functional binds the
/// variable there once the other positions are determined.
fn fd_closure(
    seed: BTreeSet<String>,
    lits: &[&Literal],
    fd: &[Vec<bool>],
    index: &HashMap<(&str, usize), usize>,
) -> BTreeSet<String> {
    let mut det = seed;
    loop {
        let mut changed = false;
        for lit in lits {
            match lit {
                Literal::Cmp(CmpOp::Eq, l, r) => {
                    for (a, b) in [(l, r), (r, l)] {
                        if let Term::Var(v) = a {
                            if !det.contains(v) {
                                let mut bv = BTreeSet::new();
                                b.collect_vars(&mut bv);
                                if bv.is_subset(&det) {
                                    det.insert(v.clone());
                                    changed = true;
                                }
                            }
                        }
                        let mut av = BTreeSet::new();
                        a.collect_vars(&mut av);
                        if av.is_subset(&det) {
                            let mut bv = BTreeSet::new();
                            b.collect_vars(&mut bv);
                            let open: Vec<&String> =
                                bv.iter().filter(|v| !det.contains(*v)).collect();
                            if let [v] = open[..] {
                                if solves_uniquely(b, v) {
                                    det.insert(v.clone());
                                    changed = true;
                                }
                            }
                        }
                    }
                }
                Literal::Pos(atom) => {
                    let Some(&s) = index.get(&(atom.pred.as_str(), atom.args.len())) else {
                        continue;
                    };
                    for (j, t) in atom.args.iter().enumerate() {
                        if !fd[s][j] {
                            continue;
                        }
                        let Term::Var(v) = t else { continue };
                        if det.contains(v) {
                            continue;
                        }
                        let mut others = BTreeSet::new();
                        for (i, ti) in atom.args.iter().enumerate() {
                            if i != j {
                                ti.collect_vars(&mut others);
                            }
                        }
                        if others.is_subset(&det) {
                            det.insert(v.clone());
                            changed = true;
                        }
                    }
                }
                Literal::Neg(_) | Literal::Cmp(..) => {}
            }
        }
        if !changed {
            return det;
        }
    }
}

/// `expr = c` has at most one solution for `v`: `v` occurs exactly once
/// and only under `+`/`-` (affine with coefficient ±1).
fn solves_uniquely(t: &Term, v: &str) -> bool {
    fn occurs(t: &Term, v: &str) -> bool {
        let mut vars = BTreeSet::new();
        t.collect_vars(&mut vars);
        vars.contains(v)
    }
    match t {
        Term::Var(name) => name == v,
        Term::BinOp(op, l, r) => {
            if !matches!(op, crate::ast::ArithOp::Add | crate::ast::ArithOp::Sub) {
                return false;
            }
            match (occurs(l, v), occurs(r, v)) {
                (true, false) => solves_uniquely(l, v),
                (false, true) => solves_uniquely(r, v),
                _ => false,
            }
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Statements compiled once for the fixpoint.
// ---------------------------------------------------------------------------

/// Dense ids for the variables of one scope, numbered in name order: an
/// ascending id list walks the variables in the order of the
/// `BTreeSet<String>` they came from, so products over it multiply in the
/// same order, and every `f64` comes out bit-identical to a name-keyed
/// evaluation.
struct VarIds(Vec<String>);

impl VarIds {
    fn id(&self, name: &str) -> usize {
        self.0
            .binary_search_by(|v| v.as_str().cmp(name))
            .expect("every variable of the scope is numbered")
    }

    /// The ids of `names`, ascending.
    fn ids<'a>(&self, names: impl IntoIterator<Item = &'a String>) -> Vec<usize> {
        names.into_iter().map(|n| self.id(n)).collect()
    }

    fn term(&self, t: &Term) -> Vec<usize> {
        let mut vars = BTreeSet::new();
        t.collect_vars(&mut vars);
        self.ids(&vars)
    }
}

/// The variable domains of one literal scope — a rule's positive literals
/// and `V = expr` bindings, or one `#minimize` element's condition.
struct Scope {
    /// Positive literals: the signature, and the variable at each argument
    /// position that holds a bare variable.
    pos: Vec<(usize, Vec<Option<usize>>)>,
    /// `V = expr` bindings in literal order, one per side that is a bare
    /// variable: that variable and the variables of the other side.
    binds: Vec<(usize, Vec<usize>)>,
    nvars: usize,
}

impl Scope {
    fn new(ctx: &Ctx<'_>, literals: &[&Literal], ids: &VarIds) -> Self {
        let mut pos = Vec::new();
        let mut binds = Vec::new();
        for lit in literals {
            match lit {
                Literal::Pos(a) => {
                    let slots = a
                        .args
                        .iter()
                        .map(|t| match t {
                            Term::Var(v) => Some(ids.id(v)),
                            _ => None,
                        })
                        .collect();
                    pos.push((ctx.sig(a), slots));
                }
                Literal::Cmp(CmpOp::Eq, l, r) => {
                    for (v, other) in [(l, r), (r, l)] {
                        if let Term::Var(name) = v {
                            binds.push((ids.id(name), ids.term(other)));
                        }
                    }
                }
                Literal::Neg(_) | Literal::Cmp(..) => {}
            }
        }
        Scope {
            pos,
            binds,
            nvars: ids.0.len(),
        }
    }

    /// Domain bound per variable: the minimum bound over the positive
    /// positions it occurs in, refined by `V = expr` bindings (the bound
    /// of `V` is at most the number of distinct values of `expr`; a
    /// couple of passes settle chains). Unbound variables stay infinite.
    fn domains(&self, cur: &Bounds, universe: f64) -> Vec<f64> {
        let mut doms = vec![f64::INFINITY; self.nvars];
        for (s, slots) in &self.pos {
            for (i, v) in slots.iter().enumerate() {
                if let Some(v) = *v {
                    doms[v] = doms[v].min(cur.args[*s][i]);
                }
            }
        }
        for _ in 0..2 {
            for (v, other) in &self.binds {
                let b = product(other, &doms, universe);
                doms[*v] = doms[*v].min(b);
            }
        }
        doms
    }

    /// The signatures this scope reads.
    fn reads(&self) -> impl Iterator<Item = usize> + '_ {
        self.pos.iter().map(|(s, _)| *s)
    }
}

/// Product of the domains of `vars` (ascending ids), an unbounded domain
/// counting as the universe. Over the variables of a term this is the
/// term's distinct-value bound: a ground term (no variables) is one value.
fn product(vars: &[usize], doms: &[f64], universe: f64) -> f64 {
    let mut p = 1.0f64;
    for &v in vars {
        let d = doms[v];
        let d = if d.is_finite() { d } else { universe };
        p = sat(p * d);
    }
    p
}

/// One head of a compiled rule: its atom, or one choice element.
struct HeadPart {
    sig: usize,
    /// Variables of each head argument.
    args: Vec<Vec<usize>>,
    /// Signatures of the positive literals that gate the head: a literal
    /// over a zero-bound predicate can never hold, so the head derives
    /// nothing. The body's literals, plus the element's condition.
    gate: Vec<usize>,
    /// The counted (undetermined) instantiation variables.
    free: Vec<usize>,
}

/// A non-fact rule, compiled once: signature ids, positive literals,
/// variable sets and [`determined_vars`] (which depends only on the fixed
/// functional flags) never change between fixpoint steps.
struct CompiledRule {
    scope: Scope,
    /// Signatures of the body's positive literals.
    body_gate: Vec<usize>,
    /// The counted variables of the body alone.
    body_free: Vec<usize>,
    heads: Vec<HeadPart>,
    choice: bool,
}

/// One `#minimize` element, compiled.
struct CompiledElement {
    scope: Scope,
    free: Vec<usize>,
}

/// A statement as the prediction sees it.
enum Compiled {
    /// A ground fact, counted exactly in `Ctx::facts`.
    Fact,
    Rule(CompiledRule),
    Minimize(Vec<CompiledElement>),
    Show,
}

impl Compiled {
    fn new(ctx: &Ctx<'_>, stmt: &Statement, is_fact: bool) -> Self {
        match stmt {
            Statement::Rule(_) if is_fact => Compiled::Fact,
            Statement::Rule(rule) => Compiled::Rule(CompiledRule::new(ctx, rule)),
            Statement::Minimize { elements, .. } => Compiled::Minimize(
                elements
                    .iter()
                    .map(|e| {
                        let cond: Vec<&Literal> = e.condition.iter().collect();
                        let mut vars = BTreeSet::new();
                        for lit in &e.condition {
                            literal_vars(lit, &mut vars);
                        }
                        e.weight.collect_vars(&mut vars);
                        for t in &e.terms {
                            t.collect_vars(&mut vars);
                        }
                        let ids = VarIds(vars.iter().cloned().collect());
                        let det = determined_vars(ctx, &cond);
                        CompiledElement {
                            scope: Scope::new(ctx, &cond, &ids),
                            free: ids.ids(vars.difference(&det)),
                        }
                    })
                    .collect(),
            ),
            Statement::Show { .. } => Compiled::Show,
        }
    }
}

impl CompiledRule {
    fn new(ctx: &Ctx<'_>, rule: &crate::ast::Rule) -> Self {
        let lits = all_positive_literals(rule);
        let mut all = BTreeSet::new();
        match &rule.head {
            Head::Atom(a) => a.collect_vars(&mut all),
            Head::Choice { elements, .. } => {
                for e in elements {
                    e.atom.collect_vars(&mut all);
                }
            }
            Head::None => {}
        }
        for lit in &lits {
            literal_vars(lit, &mut all);
        }
        let ids = VarIds(all.into_iter().collect());
        let det = determined_vars(ctx, &lits);
        let gate = |lits: &[&Literal]| -> Vec<usize> {
            lits.iter()
                .filter_map(|lit| match lit {
                    Literal::Pos(a) => Some(ctx.sig(a)),
                    Literal::Neg(_) | Literal::Cmp(..) => None,
                })
                .collect()
        };
        let body_lits: Vec<&Literal> = rule.body.iter().collect();
        let mut body_vars = BTreeSet::new();
        for lit in &rule.body {
            literal_vars(lit, &mut body_vars);
        }
        let part = |atom: &crate::ast::Atom, vars: BTreeSet<String>, gate: Vec<usize>| HeadPart {
            sig: ctx.sig(atom),
            args: atom.args.iter().map(|t| ids.term(t)).collect(),
            gate,
            free: ids.ids(vars.difference(&det)),
        };
        let heads = match &rule.head {
            Head::Atom(a) => {
                let mut vars = body_vars.clone();
                a.collect_vars(&mut vars);
                vec![part(a, vars, gate(&body_lits))]
            }
            Head::Choice { elements, .. } => elements
                .iter()
                .map(|e| {
                    let mut vars = body_vars.clone();
                    e.atom.collect_vars(&mut vars);
                    let mut lits = body_lits.clone();
                    for lit in &e.condition {
                        literal_vars(lit, &mut vars);
                        lits.push(lit);
                    }
                    part(&e.atom, vars, gate(&lits))
                })
                .collect(),
            Head::None => Vec::new(),
        };
        CompiledRule {
            scope: Scope::new(ctx, &lits, &ids),
            body_gate: gate(&body_lits),
            body_free: ids.ids(body_vars.difference(&det)),
            heads,
            choice: matches!(rule.head, Head::Choice { .. }),
        }
    }

    /// Each head's contribution to the next bounds under `cur`.
    fn contributions(&self, cur: &Bounds, universe: f64) -> Vec<Contribution> {
        let doms = self.scope.domains(cur, universe);
        self.heads
            .iter()
            .map(|h| {
                let inst = if derivable(cur, &h.gate) {
                    product(&h.free, &doms, universe)
                } else {
                    0.0
                };
                let mut tuple_bound = 1.0f64;
                let arg_bounds: Vec<f64> = h
                    .args
                    .iter()
                    .map(|vars| {
                        let b = product(vars, &doms, universe);
                        tuple_bound = sat(tuple_bound * b);
                        b
                    })
                    .collect();
                let atoms = inst.min(tuple_bound);
                Contribution {
                    sig: h.sig,
                    atoms,
                    args: arg_bounds.into_iter().map(|b| b.min(atoms)).collect(),
                }
            })
            .collect()
    }

    /// The predicted ground instances of this rule under `cur`.
    fn estimate(&self, cur: &Bounds, universe: f64) -> f64 {
        if !derivable(cur, &self.body_gate) {
            return 0.0;
        }
        let doms = self.scope.domains(cur, universe);
        if self.choice {
            // The grounder instantiates each element per solution of
            // body × condition: sum the per-element estimates.
            let body_inst = product(&self.body_free, &doms, universe);
            let mut est = 0.0f64;
            for h in &self.heads {
                est = sat(est + product(&h.free, &doms, universe));
            }
            return est.max(body_inst);
        }
        match self.heads.first() {
            Some(h) => product(&h.free, &doms, universe),
            None => product(&self.body_free, &doms, universe),
        }
    }
}

/// A positive literal over a zero-bound predicate can never hold.
fn derivable(cur: &Bounds, gate: &[usize]) -> bool {
    gate.iter().all(|&s| cur.atoms[s] > 0.0)
}

/// One head's share of the next bounds: instances (capped by the head's
/// tuple bound) and the per-position value bounds.
struct Contribution {
    sig: usize,
    atoms: f64,
    args: Vec<f64>,
}

/// A signature whose bounds moved in one step, with its new bounds.
struct Change {
    sig: usize,
    atoms: f64,
    args: Vec<f64>,
}

/// The monotone fixpoint over compiled statements, evaluated
/// incrementally. Each rule's head contributions are cached, and a rule is
/// recomputed only when a signature it reads changed in the previous step;
/// a signature's bounds are re-summed only when one of its contributions
/// was recomputed. A re-sum adds the signature's contributions in
/// statement order, exactly as a full step would, so every `f64` — and the
/// prediction — equals a full recompute bit for bit.
struct Fixpoint<'c> {
    stmts: &'c [Compiled],
    facts: &'c Bounds,
    universe: f64,
    /// Statements reading each signature.
    readers: Vec<Vec<usize>>,
    /// `(statement, head)` contributing to each signature, in statement
    /// order.
    writers: Vec<Vec<(usize, usize)>>,
    cache: Vec<Vec<Contribution>>,
    /// Statements to recompute in the next step.
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
    /// Signatures to re-sum in the next step.
    stale: Vec<usize>,
    is_stale: Vec<bool>,
}

impl<'c> Fixpoint<'c> {
    /// A fixpoint whose first step evaluates everything.
    fn new(ctx: &'c Ctx<'_>, stmts: &'c [Compiled]) -> Self {
        let nsigs = ctx.sigs.len();
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); nsigs];
        let mut writers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nsigs];
        let mut dirty = Vec::new();
        for (si, stmt) in stmts.iter().enumerate() {
            if let Compiled::Rule(rule) = stmt {
                dirty.push(si);
                for s in rule.scope.reads() {
                    if readers[s].last() != Some(&si) {
                        readers[s].push(si);
                    }
                }
                for (h, part) in rule.heads.iter().enumerate() {
                    writers[part.sig].push((si, h));
                }
            }
        }
        Fixpoint {
            stmts,
            facts: &ctx.facts,
            universe: ctx.universe,
            readers,
            writers,
            cache: stmts.iter().map(|_| Vec::new()).collect(),
            is_dirty: stmts
                .iter()
                .map(|s| matches!(s, Compiled::Rule(_)))
                .collect(),
            dirty,
            stale: (0..nsigs).collect(),
            is_stale: vec![true; nsigs],
        }
    }

    fn mark_stale(&mut self, s: usize) {
        if !std::mem::replace(&mut self.is_stale[s], true) {
            self.stale.push(s);
        }
    }

    /// Signature `s` changed: its readers recompute in the next step.
    fn mark_changed(&mut self, s: usize) {
        for &si in &self.readers[s] {
            if !std::mem::replace(&mut self.is_dirty[si], true) {
                self.dirty.push(si);
            }
        }
    }

    /// One monotone step: every bound becomes its facts plus the sum of
    /// the rule head contributions under `cur`. Returns the signatures
    /// whose bounds differ from `cur`, with their new bounds.
    fn step(&mut self, cur: &Bounds) -> Vec<Change> {
        for si in std::mem::take(&mut self.dirty) {
            self.is_dirty[si] = false;
            let Compiled::Rule(rule) = &self.stmts[si] else {
                unreachable!("only rules are scheduled");
            };
            self.cache[si] = rule.contributions(cur, self.universe);
            for h in 0..self.cache[si].len() {
                self.mark_stale(self.cache[si][h].sig);
            }
        }
        let mut changes = Vec::new();
        for s in std::mem::take(&mut self.stale) {
            self.is_stale[s] = false;
            let mut atoms = self.facts.atoms[s];
            let mut args = self.facts.args[s].clone();
            for &(si, h) in &self.writers[s] {
                let c = &self.cache[si][h];
                atoms = sat(atoms + c.atoms);
                for (a, b) in args.iter_mut().zip(&c.args) {
                    *a = sat(*a + b);
                }
            }
            // Clamp: a position never holds more distinct values than the
            // universe, and a predicate never more tuples than the product
            // of its position bounds.
            for a in &mut args {
                *a = a.min(self.universe);
            }
            let prod = args.iter().fold(1.0f64, |acc, &a| sat(acc * a));
            if !args.is_empty() {
                atoms = atoms.min(prod);
            }
            atoms = sat(atoms);
            if atoms != cur.atoms[s] || args != cur.args[s] {
                changes.push(Change {
                    sig: s,
                    atoms,
                    args,
                });
            }
        }
        changes
    }

    /// Move `cur` to the bounds of a step.
    fn apply(&mut self, cur: &mut Bounds, changes: Vec<Change>) {
        for c in changes {
            cur.atoms[c.sig] = c.atoms;
            cur.args[c.sig] = c.args;
            self.mark_changed(c.sig);
        }
    }

    /// Saturate every signature a step was still moving, at `arity`
    /// positions' worth of universe, instead of taking its step.
    fn saturate(&mut self, ctx: &Ctx<'_>, cur: &mut Bounds, moving: Vec<Change>) {
        for c in moving {
            let s = c.sig;
            let arity = ctx.sigs[s].1;
            cur.atoms[s] = sat(ctx.universe.powi(arity.max(1) as i32));
            for a in &mut cur.args[s] {
                *a = ctx.universe;
            }
            self.mark_changed(s);
            // Its next sum is not its saturated value: re-sum it.
            self.mark_stale(s);
        }
    }
}

/// Variables that do not multiply the instantiation count because each
/// assignment of the remaining (counted) variables fixes them: `V = expr`
/// bindings, plus variables sitting at a functional position of a joined
/// positive literal.
///
/// Determinations must be well-founded: each determined variable tracks
/// the *counted* variables it transitively rests on, and a variable is
/// never allowed to rest on itself — so of a mutually-determined pair
/// (`X = Y + 1` next to `Y = X - 1`) exactly one side stays counted.
fn determined_vars(ctx: &Ctx<'_>, literals: &[&Literal]) -> BTreeSet<String> {
    let mut det: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let expand = |det: &BTreeMap<String, BTreeSet<String>>, supp: &BTreeSet<String>| {
        let mut anc = BTreeSet::new();
        for s in supp {
            match det.get(s) {
                Some(a) => anc.extend(a.iter().cloned()),
                None => {
                    anc.insert(s.clone());
                }
            }
        }
        anc
    };
    // Keeps every stored ancestor set free of determined variables, so
    // the self-support check stays exact as determinations chain up.
    let admit =
        |det: &mut BTreeMap<String, BTreeSet<String>>, name: &String, anc: BTreeSet<String>| {
            if anc.contains(name) {
                return false;
            }
            for a in det.values_mut() {
                if a.remove(name) {
                    a.extend(anc.iter().cloned());
                }
            }
            det.insert(name.clone(), anc);
            true
        };
    loop {
        let mut changed = false;
        for lit in literals {
            match lit {
                Literal::Cmp(CmpOp::Eq, l, r) => {
                    for (v, other) in [(l, r), (r, l)] {
                        let Term::Var(name) = v else { continue };
                        if det.contains_key(name) {
                            continue;
                        }
                        let mut supp = BTreeSet::new();
                        other.collect_vars(&mut supp);
                        if supp.contains(name) {
                            continue;
                        }
                        let anc = expand(&det, &supp);
                        changed |= admit(&mut det, name, anc);
                    }
                }
                Literal::Pos(a) => {
                    let s = ctx.sig(a);
                    for (j, t) in a.args.iter().enumerate() {
                        if !ctx.functional[s][j] {
                            continue;
                        }
                        let Term::Var(name) = t else { continue };
                        if det.contains_key(name) {
                            continue;
                        }
                        let mut supp = BTreeSet::new();
                        for (i, ti) in a.args.iter().enumerate() {
                            if i != j {
                                ti.collect_vars(&mut supp);
                            }
                        }
                        let anc = expand(&det, &supp);
                        changed |= admit(&mut det, name, anc);
                    }
                }
                Literal::Neg(_) | Literal::Cmp(..) => {}
            }
        }
        if !changed {
            return det.into_keys().collect();
        }
    }
}

fn literal_vars(lit: &Literal, out: &mut BTreeSet<String>) {
    match lit {
        Literal::Pos(a) | Literal::Neg(a) => a.collect_vars(out),
        Literal::Cmp(_, l, r) => {
            l.collect_vars(out);
            r.collect_vars(out);
        }
    }
}

/// Positive body literals plus every choice-element condition literal —
/// all the places a variable can be bound.
fn all_positive_literals(rule: &crate::ast::Rule) -> Vec<&Literal> {
    let mut lits: Vec<&Literal> = rule.body.iter().collect();
    if let Head::Choice { elements, .. } = &rule.head {
        for e in elements {
            lits.extend(e.condition.iter());
        }
    }
    lits
}

fn collect_ground_subterms<'p>(stmt: &'p Statement, out: &mut HashSet<&'p Term>) {
    fn term<'p>(t: &'p Term, out: &mut HashSet<&'p Term>) {
        if t.is_ground() {
            out.insert(t);
        }
        match t {
            Term::Func(_, args) => {
                for a in args {
                    term(a, out);
                }
            }
            Term::BinOp(_, l, r) => {
                term(l, out);
                term(r, out);
            }
            _ => {}
        }
    }
    fn atom<'p>(a: &'p crate::ast::Atom, out: &mut HashSet<&'p Term>) {
        for t in &a.args {
            term(t, out);
        }
    }
    fn lit<'p>(l: &'p Literal, out: &mut HashSet<&'p Term>) {
        match l {
            Literal::Pos(a) | Literal::Neg(a) => atom(a, out),
            Literal::Cmp(_, x, y) => {
                term(x, out);
                term(y, out);
            }
        }
    }
    match stmt {
        Statement::Rule(rule) => {
            match &rule.head {
                Head::Atom(a) => atom(a, out),
                Head::Choice { elements, .. } => {
                    for e in elements {
                        atom(&e.atom, out);
                        for l in &e.condition {
                            lit(l, out);
                        }
                    }
                }
                Head::None => {}
            }
            for l in &rule.body {
                lit(l, out);
            }
        }
        Statement::Minimize { elements, .. } => {
            for e in elements {
                term(&e.weight, out);
                for t in &e.terms {
                    term(t, out);
                }
                for l in &e.condition {
                    lit(l, out);
                }
            }
        }
        Statement::Show { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parse;

    fn predict(src: &str) -> SizePrediction {
        predict_sizes(&parse(src).unwrap())
    }

    #[test]
    fn fact_predicates_are_counted_exactly() {
        let p = predict("p(a). p(b). p(a). q(a, 1). q(a, 2).");
        let pb = p.bound("p", 1).unwrap();
        assert_eq!(pb.atoms, 2.0, "duplicate fact is one atom");
        assert_eq!(pb.args, vec![2.0]);
        let qb = p.bound("q", 2).unwrap();
        assert_eq!(qb.atoms, 2.0);
        assert_eq!(qb.args, vec![1.0, 2.0]);
    }

    #[test]
    fn shared_variables_join_instead_of_multiplying() {
        let p = predict("p(a). p(b). p(c). q(1). q(2). j(X, Y) :- p(X), q(Y). s(X) :- p(X), p(X).");
        let join = p.bound("j", 2).unwrap();
        assert_eq!(join.atoms, 6.0, "cross product of p and q");
        let shared = p.bound("s", 1).unwrap();
        assert_eq!(shared.atoms, 3.0, "X counted once across both literals");
    }

    #[test]
    fn eq_bindings_tighten_the_domain() {
        let p = predict("n(1). n(2). n(3). next(X, Y) :- n(X), Y = X + 1.");
        let nb = p.bound("next", 2).unwrap();
        assert_eq!(nb.atoms, 3.0, "Y is a function of X");
    }

    #[test]
    fn underivable_predicates_bound_to_zero() {
        let p = predict("a(X) :- b(X). b(X) :- a(X). c(1). d(X) :- c(X).");
        assert_eq!(p.bound("a", 1).unwrap().atoms, 0.0);
        assert_eq!(p.bound("b", 1).unwrap().atoms, 0.0);
        assert_eq!(p.bound("d", 1).unwrap().atoms, 1.0);
    }

    #[test]
    fn recursion_saturates_at_the_universe_instead_of_diverging() {
        let p = predict("e(a, b). e(b, c). e(X, Z) :- e(X, Y), e(Y, Z).");
        let eb = p.bound("e", 2).unwrap();
        // Universe = {a, b, c}: at most 9 edges, never SIZE_CAP.
        assert!(eb.atoms <= 9.0 + 2.0, "bounded by universe^2: {}", eb.atoms);
        assert!(p.total < EXPLOSION_THRESHOLD);
    }

    #[test]
    fn cross_join_over_large_domains_predicts_explosion() {
        let p = predict("num(1..120). big(X, Y, Z) :- num(X), num(Y), num(Z).");
        let big = p.rules.iter().map(|r| r.instances).fold(0.0, f64::max);
        assert!(big >= 120.0 * 120.0 * 120.0, "{big}");
        assert!(big > EXPLOSION_THRESHOLD);
    }

    #[test]
    fn prediction_tracks_actual_grounding_on_a_temporal_chain() {
        let src = "time(0..9). holds(0). holds(T) :- holds(S), time(S), time(T), T = S + 1. \
                   :- holds(T), time(T), T > 5.";
        let p = predict(src);
        let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
        let actual = g.rules.len() as f64;
        assert!(
            p.total >= actual / 10.0 && p.total <= actual * 10.0,
            "predicted {} vs actual {actual}",
            p.total
        );
    }

    #[test]
    fn keyed_facts_determine_joined_variables() {
        // owner/2 is a bijection, so both positions are keys: joining
        // owner(X, Y), owner(Z, Y) fixes Y from X and Z from Y.
        let p = predict(
            "owner(a, 1). owner(b, 2). owner(c, 3). p(X, Y, Z) :- owner(X, Y), owner(Z, Y).",
        );
        assert_eq!(p.bound("p", 3).unwrap().atoms, 3.0);
    }

    #[test]
    fn functional_recursion_converges_instead_of_saturating() {
        // The temporal-tank shape: the level is a function of (tank,
        // step), which the fixpoint must discover to keep reading/3 from
        // saturating toward universe^3.
        let src = "time(0..20). tank(a). tank(b). inflow(a, 1). inflow(b, 2). \
                   reading(a, 0, 0). reading(b, 0, 0). \
                   reading(C, L2, U) :- reading(C, L, T), inflow(C, R), L2 = L + R, U = T + 1, time(U). \
                   ahead(C, D, T) :- reading(C, L, T), reading(D, K, T), L > K.";
        let p = predict(src);
        let rb = p.bound("reading", 3).unwrap();
        assert!(
            rb.atoms <= 100.0,
            "reading stays near 2 tanks x 21 steps: {}",
            rb.atoms
        );
        let g = Grounder::new().ground(&parse(src).unwrap()).unwrap();
        let actual = g.rules.len() as f64;
        assert!(
            p.total >= actual / 10.0 && p.total <= actual * 10.0,
            "predicted {} vs actual {actual}",
            p.total
        );
    }

    #[test]
    fn choice_rules_estimate_per_element_expansion() {
        let p = predict("c(1). c(2). c(3). { pick(X) : c(X) }.");
        let pb = p.bound("pick", 1).unwrap();
        assert_eq!(pb.atoms, 3.0);
    }
}
