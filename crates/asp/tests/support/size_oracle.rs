//! The grounding-size prediction as a full recompute: every fixpoint step
//! re-evaluates every rule, over `String`-keyed variable domains, with
//! fact tuples and the ground universe counted through their `Debug`
//! text. This is the analysis `cpsrisk_asp::predict_sizes` computes
//! incrementally over compiled statements; the differential suites pin
//! the two to bit-identical predictions (compare with [`same`]).

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cpsrisk_asp::analysis::{PredBound, RuleEstimate, SizePrediction};
use cpsrisk_asp::ast::{CmpOp, Head, Literal, Program, Statement, Term};

/// All bounds saturate here.
const SIZE_CAP: f64 = 1e12;

/// Are two predictions identical, every `f64` bit for bit? (`Debug`
/// prints the shortest round-tripping form, so it tells all bit
/// patterns — `-0.0` included — apart.)
pub fn same(a: &SizePrediction, b: &SizePrediction) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Saturating product/sum helpers: everything is clamped to [`SIZE_CAP`].
fn sat(x: f64) -> f64 {
    if x.is_finite() && x < SIZE_CAP {
        x
    } else {
        SIZE_CAP
    }
}

#[derive(Clone, PartialEq)]
struct Bounds {
    atoms: Vec<f64>,
    args: Vec<Vec<f64>>,
}

struct Ctx<'p> {
    program: &'p Program,
    sigs: Vec<(String, usize)>,
    index: HashMap<(String, usize), usize>,
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

/// Predict per-predicate domain sizes and per-rule instantiation counts.
#[must_use]
pub fn predict_sizes(program: &Program) -> SizePrediction {
    let ctx = build_ctx(program);
    let nsigs = ctx.sigs.len();
    let mut cur = ctx.facts.clone();
    // Enough headroom for temporal chains, whose argument bounds grow by
    // a constant per step until the time domain caps them.
    let max_iter = (2 * nsigs + 8).max(64);
    let mut converged = false;
    for _ in 0..max_iter {
        let next = step(&ctx, &cur);
        if next == cur {
            converged = true;
            break;
        }
        cur = next;
    }
    if !converged {
        // Force-saturate whatever is still moving; one more monotone step
        // folds the saturated bounds into their dependents.
        let next = step(&ctx, &cur);
        for s in 0..nsigs {
            if next.atoms[s] != cur.atoms[s] || next.args[s] != cur.args[s] {
                let arity = ctx.sigs[s].1;
                cur.atoms[s] = sat(ctx.universe.powi(arity.max(1) as i32));
                for a in &mut cur.args[s] {
                    *a = ctx.universe;
                }
            } else {
                cur.atoms[s] = next.atoms[s];
                cur.args[s] = next.args[s].clone();
            }
        }
        cur = step(&ctx, &cur);
    }

    let mut rules = Vec::new();
    let mut total = 0.0f64;
    for (si, stmt) in program.statements.iter().enumerate() {
        let instances = match stmt {
            Statement::Rule(_) if ctx.is_fact[si] => 1.0,
            Statement::Rule(rule) => estimate_rule(&ctx, &cur, rule),
            Statement::Minimize { elements, .. } => {
                let mut est = 0.0f64;
                for e in elements {
                    let doms = domains(&ctx, &cur, &e.condition);
                    let cond: Vec<&Literal> = e.condition.iter().collect();
                    let det = determined_vars(&ctx, &cond);
                    let mut vars = BTreeSet::new();
                    for lit in &e.condition {
                        literal_vars(lit, &mut vars);
                    }
                    e.weight.collect_vars(&mut vars);
                    for t in &e.terms {
                        t.collect_vars(&mut vars);
                    }
                    est = sat(est + free_product(&vars, &det, &doms, ctx.universe));
                }
                est
            }
            Statement::Show { .. } => continue,
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
        .map(|(s, (pred, arity))| PredBound {
            pred: pred.clone(),
            arity: *arity,
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

fn build_ctx(program: &Program) -> Ctx<'_> {
    let mut sig_set: BTreeSet<(String, usize)> = BTreeSet::new();
    let mut defined_set: BTreeSet<(String, usize)> = BTreeSet::new();
    let mut ground_terms: BTreeSet<String> = BTreeSet::new();
    let mut each_atom = |atom: &cpsrisk_asp::ast::Atom, is_head: bool| {
        let sig = (atom.pred.clone(), atom.args.len());
        if is_head {
            defined_set.insert(sig.clone());
        }
        sig_set.insert(sig);
    };
    let body_atom = |lit: &Literal| match lit {
        Literal::Pos(a) | Literal::Neg(a) => Some(a.clone()),
        Literal::Cmp(..) => None,
    };
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
                                    each_atom(&a, false);
                                }
                            }
                        }
                    }
                    Head::None => {}
                }
                for lit in &rule.body {
                    if let Some(a) = body_atom(lit) {
                        each_atom(&a, false);
                    }
                }
            }
            Statement::Minimize { elements, .. } => {
                for e in elements {
                    for lit in &e.condition {
                        if let Some(a) = body_atom(lit) {
                            each_atom(&a, false);
                        }
                    }
                }
            }
            Statement::Show { .. } => {}
        }
        collect_ground_subterms(stmt, &mut ground_terms);
    }
    let sigs: Vec<(String, usize)> = sig_set.into_iter().collect();
    let index: HashMap<(String, usize), usize> = sigs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), i))
        .collect();
    let defined: Vec<bool> = sigs.iter().map(|s| defined_set.contains(s)).collect();
    let universe = ground_terms.len().max(1) as f64;

    // Count fact predicates exactly: distinct tuples and per-position
    // distinct values.
    let mut tuples: Vec<BTreeSet<String>> = vec![BTreeSet::new(); sigs.len()];
    let mut rows: Vec<Vec<Vec<String>>> = vec![Vec::new(); sigs.len()];
    let mut values: Vec<Vec<BTreeSet<String>>> = sigs
        .iter()
        .map(|(_, arity)| vec![BTreeSet::new(); *arity])
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
        let s = index[&(a.pred.clone(), a.args.len())];
        if tuples[s].insert(format!("{:?}", a.args)) {
            rows[s].push(a.args.iter().map(|t| format!("{t:?}")).collect());
        }
        for (i, t) in a.args.iter().enumerate() {
            values[s][i].insert(format!("{t:?}"));
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
        program,
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
    sigs: &[(String, usize)],
    index: &HashMap<(String, usize), usize>,
    is_fact: &[bool],
    fact_rows: &[Vec<Vec<String>>],
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
            let mut keys: BTreeSet<Vec<&String>> = BTreeSet::new();
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
    let mut rules: Vec<(usize, &cpsrisk_asp::ast::Rule)> = Vec::new();
    for (si, stmt) in program.statements.iter().enumerate() {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        if is_fact[si] {
            continue;
        }
        match &rule.head {
            Head::Atom(a) => {
                let s = index[&(a.pred.clone(), a.args.len())];
                rule_heads[s] += 1;
                rules.push((s, rule));
            }
            Head::Choice { elements, .. } => {
                for e in elements {
                    let s = index[&(e.atom.pred.clone(), e.atom.args.len())];
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
    index: &HashMap<(String, usize), usize>,
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
                    let Some(&s) = index.get(&(atom.pred.clone(), atom.args.len())) else {
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
            if !matches!(
                op,
                cpsrisk_asp::ast::ArithOp::Add | cpsrisk_asp::ast::ArithOp::Sub
            ) {
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

/// One monotone step: recompute every bound as facts plus the sum of rule
/// head contributions under the current bounds.
fn step(ctx: &Ctx<'_>, cur: &Bounds) -> Bounds {
    let mut next = ctx.facts.clone();
    for (si, stmt) in ctx.program.statements.iter().enumerate() {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        if ctx.is_fact[si] {
            continue;
        }
        let lits = all_positive_literals(rule);
        let doms = domains(ctx, cur, lits.clone());
        let det = determined_vars(ctx, &lits);
        let mut body_vars = BTreeSet::new();
        for lit in &rule.body {
            literal_vars(lit, &mut body_vars);
        }
        let body_lits: Vec<&Literal> = rule.body.iter().collect();
        match &rule.head {
            Head::Atom(a) => {
                let mut vars = body_vars.clone();
                a.collect_vars(&mut vars);
                let inst = if body_derivable(ctx, cur, &body_lits) {
                    free_product(&vars, &det, &doms, ctx.universe)
                } else {
                    0.0
                };
                contribute(ctx, &mut next, a, inst, &doms);
            }
            Head::Choice { elements, .. } => {
                for e in elements {
                    let mut vars = body_vars.clone();
                    e.atom.collect_vars(&mut vars);
                    let mut lits = body_lits.clone();
                    for lit in &e.condition {
                        literal_vars(lit, &mut vars);
                        lits.push(lit);
                    }
                    let inst = if body_derivable(ctx, cur, &lits) {
                        free_product(&vars, &det, &doms, ctx.universe)
                    } else {
                        0.0
                    };
                    contribute(ctx, &mut next, &e.atom, inst, &doms);
                }
            }
            Head::None => {}
        }
    }
    // Clamp: a position never holds more distinct values than the
    // universe, and a predicate never more tuples than the product of its
    // position bounds.
    for s in 0..ctx.sigs.len() {
        for a in &mut next.args[s] {
            *a = a.min(ctx.universe);
        }
        let prod = next.args[s].iter().fold(1.0f64, |acc, &a| sat(acc * a));
        if !next.args[s].is_empty() {
            next.atoms[s] = next.atoms[s].min(prod);
        }
        next.atoms[s] = sat(next.atoms[s]);
    }
    next
}

/// Add one rule head's contribution to the accumulating bounds.
fn contribute(
    ctx: &Ctx<'_>,
    next: &mut Bounds,
    head: &cpsrisk_asp::ast::Atom,
    instances: f64,
    doms: &BTreeMap<String, f64>,
) {
    let Some(&s) = ctx.index.get(&(head.pred.clone(), head.args.len())) else {
        return;
    };
    let mut tuple_bound = 1.0f64;
    let mut arg_bounds = Vec::with_capacity(head.args.len());
    for t in &head.args {
        let b = term_bound(t, doms, ctx.universe);
        arg_bounds.push(b);
        tuple_bound = sat(tuple_bound * b);
    }
    let contrib = instances.min(tuple_bound);
    next.atoms[s] = sat(next.atoms[s] + contrib);
    for (i, b) in arg_bounds.into_iter().enumerate() {
        next.args[s][i] = sat(next.args[s][i] + b.min(contrib));
    }
}

/// Estimate the ground instances of one (non-fact) rule.
fn estimate_rule(ctx: &Ctx<'_>, cur: &Bounds, rule: &cpsrisk_asp::ast::Rule) -> f64 {
    let lits = all_positive_literals(rule);
    let doms = domains(ctx, cur, lits.clone());
    let det = determined_vars(ctx, &lits);
    let body_lits: Vec<&Literal> = rule.body.iter().collect();
    if !body_derivable(ctx, cur, &body_lits) {
        return 0.0;
    }
    let mut vars = BTreeSet::new();
    for lit in &rule.body {
        literal_vars(lit, &mut vars);
    }
    match &rule.head {
        Head::Atom(a) => a.collect_vars(&mut vars),
        Head::None => {}
        Head::Choice { elements, .. } => {
            // The grounder instantiates each element per solution of
            // body × condition: sum the per-element estimates.
            let body_inst = free_product(&vars, &det, &doms, ctx.universe);
            let mut est = 0.0f64;
            for e in elements {
                let mut ev = vars.clone();
                e.atom.collect_vars(&mut ev);
                for lit in &e.condition {
                    literal_vars(lit, &mut ev);
                }
                est = sat(est + free_product(&ev, &det, &doms, ctx.universe));
            }
            return est.max(body_inst);
        }
    }
    free_product(&vars, &det, &doms, ctx.universe)
}

/// A positive literal over a zero-bound predicate can never hold, so any
/// body containing one grounds to nothing.
fn body_derivable(ctx: &Ctx<'_>, cur: &Bounds, lits: &[&Literal]) -> bool {
    lits.iter().all(|lit| match lit {
        Literal::Pos(a) => ctx
            .index
            .get(&(a.pred.clone(), a.args.len()))
            .is_none_or(|&s| cur.atoms[s] > 0.0),
        Literal::Neg(_) | Literal::Cmp(..) => true,
    })
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
                    let Some(&s) = ctx.index.get(&(a.pred.clone(), a.args.len())) else {
                        continue;
                    };
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

/// [`product_over`] restricted to the non-determined variables.
fn free_product(
    vars: &BTreeSet<String>,
    det: &BTreeSet<String>,
    doms: &BTreeMap<String, f64>,
    universe: f64,
) -> f64 {
    let free: BTreeSet<String> = vars.difference(det).cloned().collect();
    product_over(&free, doms, universe)
}

/// Domain bound per variable from the positive literals: the minimum
/// bound over the positions a variable occurs in, refined by `V = expr`
/// bindings.
fn domains<'l>(
    ctx: &Ctx<'_>,
    cur: &Bounds,
    literals: impl IntoIterator<Item = &'l Literal> + Clone,
) -> BTreeMap<String, f64> {
    let mut doms: BTreeMap<String, f64> = BTreeMap::new();
    for lit in literals.clone() {
        if let Literal::Pos(a) = lit {
            let Some(&s) = ctx.index.get(&(a.pred.clone(), a.args.len())) else {
                continue;
            };
            for (i, t) in a.args.iter().enumerate() {
                if let Term::Var(v) = t {
                    let b = cur.args[s][i];
                    let e = doms.entry(v.clone()).or_insert(f64::INFINITY);
                    *e = e.min(b);
                }
            }
        }
    }
    // `V = expr` bindings: the bound of `V` is at most the number of
    // distinct values of `expr`. A couple of passes settle chains.
    for _ in 0..2 {
        for lit in literals.clone() {
            let Literal::Cmp(CmpOp::Eq, l, r) = lit else {
                continue;
            };
            for (v, other) in [(l, r), (r, l)] {
                if let Term::Var(name) = v {
                    let b = term_bound(other, &doms, ctx.universe);
                    let e = doms.entry(name.clone()).or_insert(f64::INFINITY);
                    *e = e.min(b);
                }
            }
        }
    }
    doms
}

/// Distinct-value bound for a term under the variable domains: ground
/// terms are single values, a composite term has at most the product of
/// its variables' domains.
fn term_bound(t: &Term, doms: &BTreeMap<String, f64>, universe: f64) -> f64 {
    if t.is_ground() {
        return 1.0;
    }
    let mut vars = BTreeSet::new();
    t.collect_vars(&mut vars);
    product_over(&vars, doms, universe)
}

fn product_over(vars: &BTreeSet<String>, doms: &BTreeMap<String, f64>, universe: f64) -> f64 {
    let mut p = 1.0f64;
    for v in vars {
        let d = doms.get(v).copied().unwrap_or(f64::INFINITY);
        let d = if d.is_finite() { d } else { universe };
        p = sat(p * d);
    }
    p
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
fn all_positive_literals(rule: &cpsrisk_asp::ast::Rule) -> Vec<&Literal> {
    let mut lits: Vec<&Literal> = rule.body.iter().collect();
    if let Head::Choice { elements, .. } = &rule.head {
        for e in elements {
            lits.extend(e.condition.iter());
        }
    }
    lits
}

fn collect_ground_subterms(stmt: &Statement, out: &mut BTreeSet<String>) {
    fn term(t: &Term, out: &mut BTreeSet<String>) {
        if t.is_ground() {
            out.insert(format!("{t:?}"));
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
    fn atom(a: &cpsrisk_asp::ast::Atom, out: &mut BTreeSet<String>) {
        for t in &a.args {
            term(t, out);
        }
    }
    fn lit(l: &Literal, out: &mut BTreeSet<String>) {
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
