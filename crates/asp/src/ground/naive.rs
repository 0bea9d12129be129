//! The naive grounding oracle: a global re-join fixpoint with
//! first-argument narrowing and `String`-keyed substitutions.
//!
//! Test-only. It shares no code with the semi-naive engine, and the unit
//! tests here (and in `seminaive`) require both to produce the same ground
//! program.

use std::collections::{BTreeMap, HashMap, HashSet};

use super::Grounder;
use crate::ast::{Atom, ChoiceElement, CmpOp, Head, Literal, Program, Rule, Statement, Term};
use crate::error::AspError;
use crate::intern::{SymId, SymbolTable};
use crate::program::{
    AtomId, CardConstraint, CardElement, GroundHead, GroundProgram, GroundRule, MinimizeLit,
};

type Subst = BTreeMap<String, Term>;

/// Index of possible ground atoms by predicate signature, with a secondary
/// index on the first argument (a big win for the `state(c, S, T)`-style
/// patterns the behavioural encodings produce).
///
/// Atoms are stored once in an arena and referenced by dense index;
/// signatures are keyed by interned `(SymId, arity)` pairs so lookups on
/// the join hot path hash two machine words instead of allocating a
/// `String` (and a cloned `Term`) per probe.
#[derive(Default)]
struct PossibleSet {
    syms: SymbolTable,
    /// Arena of all possible atoms, in insertion order.
    atoms: Vec<Atom>,
    /// Membership / dedup index over the arena.
    index: HashMap<Atom, u32>,
    by_sig: HashMap<(SymId, u32), Vec<u32>>,
    by_first: HashMap<(SymId, u32), HashMap<Term, Vec<u32>>>,
}

impl PossibleSet {
    fn insert(&mut self, atom: Atom) -> bool {
        if self.index.contains_key(&atom) {
            return false;
        }
        let id = self.atoms.len() as u32;
        let sig = (self.syms.intern(&atom.pred), atom.args.len() as u32);
        if let Some(first) = atom.args.first() {
            self.by_first
                .entry(sig)
                .or_default()
                .entry(first.clone())
                .or_default()
                .push(id);
        }
        self.by_sig.entry(sig).or_default().push(id);
        self.index.insert(atom.clone(), id);
        self.atoms.push(atom);
        true
    }

    fn contains(&self, atom: &Atom) -> bool {
        self.index.contains_key(atom)
    }

    fn atom(&self, id: u32) -> &Atom {
        &self.atoms[id as usize]
    }

    fn candidates(&self, pred: &str, arity: usize) -> &[u32] {
        self.syms
            .get(pred)
            .and_then(|s| self.by_sig.get(&(s, arity as u32)))
            .map_or(&[], Vec::as_slice)
    }

    /// Candidates narrowed by a ground first argument.
    fn candidates_first(&self, pred: &str, arity: usize, first: &Term) -> &[u32] {
        self.syms
            .get(pred)
            .and_then(|s| self.by_first.get(&(s, arity as u32)))
            .and_then(|m| m.get(first))
            .map_or(&[], Vec::as_slice)
    }
}

/// Ground `program` with the naive engine under `grounder`'s instance
/// budget and assumable signatures (threads and slicing do not apply).
pub(crate) fn ground(grounder: &Grounder, program: &Program) -> Result<GroundProgram, AspError> {
    let rules: Vec<&Rule> = program.rules().collect();
    for r in &rules {
        r.check_safety()?;
    }

    // Body plans are instantiation-order invariant: compute once per
    // rule, not once per fixpoint iteration.
    let plans: Vec<Vec<Literal>> = rules.iter().map(|r| plan_body(&r.body)).collect();

    // Phase 1: possible-atom fixpoint (negation ignored).
    let mut possible = PossibleSet::default();
    let mut changed = true;
    while changed {
        changed = false;
        for (rule, plan) in rules.iter().zip(&plans) {
            let mut new_atoms: Vec<Atom> = Vec::new();
            join(&possible, plan, Subst::new(), &mut |theta| {
                match &rule.head {
                    Head::Atom(a) => {
                        new_atoms.push(ground_atom(a, theta)?);
                    }
                    Head::Choice { elements, .. } => {
                        for el in elements {
                            collect_choice_atoms(&possible, el, theta, &mut new_atoms)?;
                        }
                    }
                    Head::None => {}
                }
                Ok(())
            })?;
            for a in new_atoms {
                changed |= possible.insert(a);
            }
        }
    }

    // Phase 2: emit ground instances.
    let mut out = GroundProgram::new();
    let mut seen_rules: HashSet<GroundRule> = HashSet::new();
    for (rule, plan) in rules.iter().zip(&plans) {
        let mut instances: Vec<Subst> = Vec::new();
        join(&possible, plan, Subst::new(), &mut |theta| {
            instances.push(theta.clone());
            Ok(())
        })?;
        for theta in instances {
            emit_rule(grounder, rule, &theta, &possible, &mut out, &mut seen_rules)?;
            if out.rules.len() > grounder.max_instances {
                return Err(AspError::GroundingBudget {
                    limit: grounder.max_instances,
                });
            }
        }
    }

    // Phase 3: optimization statements and projections.
    let mut minimize: BTreeMap<i64, Vec<MinimizeLit>> = BTreeMap::new();
    for stmt in &program.statements {
        match stmt {
            Statement::Minimize { priority, elements } => {
                for el in elements {
                    let plan = plan_body(&el.condition);
                    let mut found: Vec<Subst> = Vec::new();
                    join(&possible, &plan, Subst::new(), &mut |theta| {
                        found.push(theta.clone());
                        Ok(())
                    })?;
                    for theta in found {
                        let w = apply(&el.weight, &theta).eval()?;
                        let Term::Int(weight) = w else {
                            return Err(AspError::BadArithmetic(format!(
                                "minimize weight `{w}` is not an integer"
                            )));
                        };
                        let tuple = el
                            .terms
                            .iter()
                            .map(|t| apply(t, &theta).eval())
                            .collect::<Result<Vec<_>, _>>()?;
                        let (pos, neg, alive) =
                            ground_condition(&el.condition, &theta, &possible, &mut out)?;
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
            Statement::Show { pred, arity } => out.shows.push((pred.clone(), *arity)),
            Statement::Rule(_) => {}
        }
    }
    // Higher priorities first.
    out.minimize = minimize.into_iter().rev().collect();
    Ok(out)
}

fn emit_rule(
    grounder: &Grounder,
    rule: &Rule,
    theta: &Subst,
    possible: &PossibleSet,
    out: &mut GroundProgram,
    seen: &mut HashSet<GroundRule>,
) -> Result<(), AspError> {
    let (body_pos, body_neg, alive) = ground_condition(&rule.body, theta, possible, out)?;
    if !alive {
        return Ok(());
    }
    match &rule.head {
        Head::Atom(a) => {
            let ga = ground_atom(a, theta)?;
            let is_assumable = body_pos.is_empty()
                && body_neg.is_empty()
                && grounder
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
        Head::None => {
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
        Head::Choice {
            lower,
            upper,
            elements,
        } => {
            let mut card_elems: Vec<CardElement> = Vec::new();
            for el in elements {
                let plan = plan_body(&el.condition);
                let mut exts: Vec<Subst> = Vec::new();
                join(possible, &plan, theta.clone(), &mut |sigma| {
                    exts.push(sigma.clone());
                    Ok(())
                })?;
                for sigma in exts {
                    let atom = out.intern(ground_atom(&el.atom, &sigma)?);
                    let (gpos, gneg, galive) =
                        ground_condition(&el.condition, &sigma, possible, out)?;
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

fn push_rule(out: &mut GroundProgram, seen: &mut HashSet<GroundRule>, rule: GroundRule) -> bool {
    if seen.insert(rule.clone()) {
        out.rules.push(rule);
        return true;
    }
    false
}

/// Ground the positive/negative atoms of a literal list under a complete
/// substitution. Returns `(pos, neg, alive)`; `alive` is false when the
/// instance can never fire (a positive atom is underivable) — negative
/// literals over underivable atoms are trivially true and dropped.
fn ground_condition(
    body: &[Literal],
    theta: &Subst,
    possible: &PossibleSet,
    out: &mut GroundProgram,
) -> Result<(Vec<AtomId>, Vec<AtomId>, bool), AspError> {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for lit in body {
        match lit {
            Literal::Pos(a) => {
                let g = ground_atom(a, theta)?;
                if !possible.contains(&g) {
                    return Ok((pos, neg, false));
                }
                pos.push(out.intern(g));
            }
            Literal::Neg(a) => {
                let g = ground_atom(a, theta)?;
                if possible.contains(&g) {
                    neg.push(out.intern(g));
                }
            }
            Literal::Cmp(op, l, r) => {
                let l = apply(l, theta).eval()?;
                let r = apply(r, theta).eval()?;
                if !op.eval(&l, &r) {
                    return Ok((pos, neg, false));
                }
            }
        }
    }
    Ok((pos, neg, true))
}

fn collect_choice_atoms(
    possible: &PossibleSet,
    el: &ChoiceElement,
    theta: &Subst,
    new_atoms: &mut Vec<Atom>,
) -> Result<(), AspError> {
    let plan = plan_body(&el.condition);
    let mut exts: Vec<Subst> = Vec::new();
    join(possible, &plan, theta.clone(), &mut |sigma| {
        exts.push(sigma.clone());
        Ok(())
    })?;
    for sigma in exts {
        new_atoms.push(ground_atom(&el.atom, &sigma)?);
    }
    Ok(())
}

/// Apply a substitution to a term (no evaluation).
fn apply(t: &Term, theta: &Subst) -> Term {
    match t {
        Term::Var(v) => theta.get(v).cloned().unwrap_or_else(|| t.clone()),
        Term::Func(f, args) => {
            Term::Func(f.clone(), args.iter().map(|a| apply(a, theta)).collect())
        }
        Term::BinOp(op, a, b) => {
            Term::BinOp(*op, Box::new(apply(a, theta)), Box::new(apply(b, theta)))
        }
        _ => t.clone(),
    }
}

/// Fully ground an atom under a substitution, evaluating arithmetic.
fn ground_atom(a: &Atom, theta: &Subst) -> Result<Atom, AspError> {
    let args = a
        .args
        .iter()
        .map(|t| apply(t, theta).eval())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Atom::new(a.pred.clone(), args))
}

/// Order body literals so that every builtin is evaluable when reached and
/// `X = expr` assignments bind before use.
fn plan_body(body: &[Literal]) -> Vec<Literal> {
    let mut remaining: Vec<Literal> = body.to_vec();
    let mut bound: HashSet<String> = HashSet::new();
    let mut out = Vec::with_capacity(body.len());
    while !remaining.is_empty() {
        // 1. Any evaluable comparison (all vars bound).
        if let Some(i) = remaining
            .iter()
            .position(|l| matches!(l, Literal::Cmp(..)) && lit_vars_bound(l, &bound))
        {
            out.push(remaining.remove(i));
            continue;
        }
        // 2. An `=` that binds one new variable from bound terms.
        if let Some(i) = remaining.iter().position(|l| {
            if let Literal::Cmp(CmpOp::Eq, a, b) = l {
                for (x, y) in [(a, b), (b, a)] {
                    if let Term::Var(v) = x {
                        if !bound.contains(v) && term_vars_bound(y, &bound) {
                            return true;
                        }
                    }
                }
            }
            false
        }) {
            let lit = remaining.remove(i);
            add_lit_vars(&lit, &mut bound);
            out.push(lit);
            continue;
        }
        // 3. A grounded negative literal.
        if let Some(i) = remaining
            .iter()
            .position(|l| matches!(l, Literal::Neg(_)) && lit_vars_bound(l, &bound))
        {
            out.push(remaining.remove(i));
            continue;
        }
        // 4. The first positive literal.
        if let Some(i) = remaining.iter().position(|l| matches!(l, Literal::Pos(_))) {
            let lit = remaining.remove(i);
            add_lit_vars(&lit, &mut bound);
            out.push(lit);
            continue;
        }
        // 5. Nothing else applies: flush (safety was already checked).
        out.append(&mut remaining);
    }
    out
}

/// True if every variable of `t` is in `bound` — the allocation-free
/// replacement for collecting a `BTreeSet` per check.
fn term_vars_bound(t: &Term, bound: &HashSet<String>) -> bool {
    match t {
        Term::Var(v) => bound.contains(v),
        Term::Func(_, args) => args.iter().all(|a| term_vars_bound(a, bound)),
        Term::BinOp(_, a, b) => term_vars_bound(a, bound) && term_vars_bound(b, bound),
        Term::Int(_) | Term::Const(_) | Term::Str(_) => true,
    }
}

fn lit_vars_bound(l: &Literal, bound: &HashSet<String>) -> bool {
    match l {
        Literal::Pos(a) | Literal::Neg(a) => a.args.iter().all(|t| term_vars_bound(t, bound)),
        Literal::Cmp(_, x, y) => term_vars_bound(x, bound) && term_vars_bound(y, bound),
    }
}

fn add_term_vars(t: &Term, bound: &mut HashSet<String>) {
    match t {
        Term::Var(v) => {
            bound.insert(v.clone());
        }
        Term::Func(_, args) => {
            for a in args {
                add_term_vars(a, bound);
            }
        }
        Term::BinOp(_, a, b) => {
            add_term_vars(a, bound);
            add_term_vars(b, bound);
        }
        Term::Int(_) | Term::Const(_) | Term::Str(_) => {}
    }
}

fn add_lit_vars(l: &Literal, bound: &mut HashSet<String>) {
    match l {
        Literal::Pos(a) | Literal::Neg(a) => {
            for t in &a.args {
                add_term_vars(t, bound);
            }
        }
        Literal::Cmp(_, x, y) => {
            add_term_vars(x, bound);
            add_term_vars(y, bound);
        }
    }
}

/// Nested-loop join of the planned literals against the possible set,
/// invoking `cb` once per complete substitution.
fn join(
    possible: &PossibleSet,
    plan: &[Literal],
    theta: Subst,
    cb: &mut dyn FnMut(&Subst) -> Result<(), AspError>,
) -> Result<(), AspError> {
    let Some((first, rest)) = plan.split_first() else {
        return cb(&theta);
    };
    match first {
        Literal::Pos(a) => {
            // Narrow by the first argument when it is ground under θ.
            let first_arg = a.args.first().map(|t| apply(t, &theta));
            let cands = match &first_arg {
                Some(t) if t.is_ground() && !matches!(t, Term::BinOp(..)) => {
                    possible.candidates_first(&a.pred, a.args.len(), t)
                }
                _ => possible.candidates(&a.pred, a.args.len()),
            };
            for &cand in cands {
                if let Some(theta2) = unify_atom(a, possible.atom(cand), &theta)? {
                    join(possible, rest, theta2, cb)?;
                }
            }
            Ok(())
        }
        Literal::Neg(a) => {
            // During instantiation the negative literal never *fails* an
            // instance (its truth is decided at solve time), except when the
            // atom is certainly underivable — handled at emission. It must
            // however be ground here.
            let _ = ground_atom(a, &theta)?;
            join(possible, rest, theta, cb)
        }
        Literal::Cmp(op, l, r) => {
            let la = apply(l, &theta);
            let ra = apply(r, &theta);
            if *op == CmpOp::Eq {
                // Binding equality: X = expr (either side). `theta` is
                // owned, so the binding extends it in place — no clone.
                if let Term::Var(v) = &la {
                    if !theta.contains_key(v) {
                        let val = ra.eval()?;
                        let mut theta = theta;
                        theta.insert(v.clone(), val);
                        return join(possible, rest, theta, cb);
                    }
                }
                if let Term::Var(v) = &ra {
                    if !theta.contains_key(v) {
                        let val = la.eval()?;
                        let mut theta = theta;
                        theta.insert(v.clone(), val);
                        return join(possible, rest, theta, cb);
                    }
                }
            }
            let lv = la.eval()?;
            let rv = ra.eval()?;
            if op.eval(&lv, &rv) {
                join(possible, rest, theta, cb)?;
            }
            Ok(())
        }
    }
}

/// Unify a (possibly non-ground) atom pattern with a ground atom, extending
/// the substitution. Returns the extended substitution on success.
fn unify_atom(pattern: &Atom, ground: &Atom, theta: &Subst) -> Result<Option<Subst>, AspError> {
    if pattern.pred != ground.pred || pattern.args.len() != ground.args.len() {
        return Ok(None);
    }
    let mut theta = theta.clone();
    for (p, g) in pattern.args.iter().zip(&ground.args) {
        if !unify_term(p, g, &mut theta)? {
            return Ok(None);
        }
    }
    Ok(Some(theta))
}

fn unify_term(p: &Term, g: &Term, theta: &mut Subst) -> Result<bool, AspError> {
    match p {
        Term::Var(v) => {
            if let Some(bound) = theta.get(v) {
                Ok(bound == g)
            } else {
                theta.insert(v.clone(), g.clone());
                Ok(true)
            }
        }
        Term::Int(_) | Term::Const(_) | Term::Str(_) => Ok(p == g),
        Term::Func(f, args) => match g {
            Term::Func(gf, gargs) if gf == f && gargs.len() == args.len() => {
                for (pa, ga) in args.iter().zip(gargs) {
                    if !unify_term(pa, ga, theta)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => Ok(false),
        },
        Term::BinOp(..) => {
            // Arithmetic patterns must be ground after substitution.
            let inst = apply(p, theta);
            if inst.is_ground() {
                Ok(inst.eval()? == *g)
            } else {
                Err(AspError::BadArithmetic(format!(
                    "arithmetic pattern `{inst}` with unbound variables"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The semi-naive engine ([`Grounder::new`]: stratified delta
    //! evaluation, multi-argument indexes, slot substitutions, parallel
    //! instantiation) against this oracle: identical ground programs —
    //! the same atoms, rules (modulo order), cardinality constraints,
    //! minimize literals, shows, and assumables — on randomly generated
    //! non-ground programs covering joins, recursion, negation, arithmetic
    //! `=` binding, choice heads with conditions, and `#minimize`.

    use proptest::prelude::*;

    use super::*;
    use crate::parse;

    /// One random statement drawn from safe templates over a small universe:
    /// unary facts `u{i}`, binary facts `b{i}` (constant × integer), derived
    /// predicates `d{i}`, an integer-valued `v`, a recursive `e/2`, and a
    /// choosable `pick`.
    fn arb_statement() -> impl Strategy<Value = String> {
        let con = || (0..4usize).prop_map(|i| format!("c{i}"));
        let num = || 1..=4i64;
        let u = || (0..2usize).prop_map(|i| format!("u{i}"));
        let b = || (0..2usize).prop_map(|i| format!("b{i}"));
        let d = || (0..2usize).prop_map(|i| format!("d{i}"));
        prop_oneof![
            // Facts.
            (u(), con()).prop_map(|(p, c)| format!("{p}({c}).")),
            (b(), con(), num()).prop_map(|(p, c, n)| format!("{p}({c},{n}).")),
            // Copy and join rules; the join variable sits in argument 2 of the
            // binary predicate, exercising the non-first-argument indexes.
            (d(), u()).prop_map(|(h, p)| format!("{h}(X) :- {p}(X).")),
            (d(), u(), b(), num())
                .prop_map(|(h, p, q, n)| format!("{h}(X) :- {p}(X), {q}(X,N), N >= {n}.")),
            // Negation over derived and base predicates.
            (d(), u(), d()).prop_map(|(h, p, n)| format!("{h}(X) :- {p}(X), not {n}(X).")),
            (d(), u(), b(), num())
                .prop_map(|(h, p, q, n)| format!("{h}(X) :- {p}(X), not {q}(X,{n}).")),
            // Arithmetic `=` binding on either side.
            (b(), num()).prop_map(|(q, m)| format!("v(Z) :- {q}(X,N), Z = N + {m}.")),
            (b(), num()).prop_map(|(q, m)| format!("v(Z) :- {q}(X,N), N * {m} = Z.")),
            // Recursion: a binary closure joined through the integer column.
            (b(), b()).prop_map(|(p, q)| format!(
                "e(X,Y) :- {p}(X,N), {q}(Y,N). e(X,Z) :- e(X,Y), e(Y,Z)."
            )),
            // Choice heads with conditions and optional bounds.
            (u(), 0..=2u32).prop_map(|(p, ub)| match ub {
                0 => format!("{{ pick(X) : {p}(X) }}."),
                ub => format!("{{ pick(X) : {p}(X) }} {ub}."),
            }),
            (b(), num()).prop_map(|(q, n)| format!("1 {{ pick(X) : {q}(X,N), N > {n} }}.")),
            // Constraints.
            (u(),).prop_map(|(p,)| format!(":- pick(X), not {p}(X).")),
            (d(), u()).prop_map(|(p, q)| format!(":- {p}(X), {q}(X).")),
            // Minimize, with weights and priorities.
            (b(),).prop_map(|(q,)| format!("#minimize {{ N,X : {q}(X,N), pick(X) }}.")),
            (d(), 1..=3i64).prop_map(|(p, w)| format!("#minimize {{ {w}@2,X : {p}(X) }}.")),
        ]
    }

    fn arb_program() -> impl Strategy<Value = String> {
        prop::collection::vec(arb_statement(), 2..12).prop_map(|stmts| stmts.join("\n"))
    }

    /// Canonical rendering of a ground program: every component becomes a
    /// tagged, sorted string, so two programs are observationally identical iff
    /// their canonical forms are equal — independent of atom-id assignment and
    /// of rule/card/minimize instance order.
    fn canon(g: &GroundProgram) -> Vec<String> {
        let atom = |id| g.atom(id).to_string();
        let atoms = |ids: &[AtomId]| ids.iter().map(|&i| atom(i)).collect::<Vec<_>>().join(",");
        let mut out: Vec<String> = Vec::new();
        for (_, a) in g.atoms() {
            out.push(format!("atom {a}"));
        }
        for r in &g.rules {
            let head = match r.head {
                GroundHead::Atom(h) => atom(h),
                GroundHead::Choice(h) => format!("{{{}}}", atom(h)),
                GroundHead::None => String::new(),
            };
            out.push(format!(
                "rule {head} :- {}; not {}",
                atoms(&r.pos),
                atoms(&r.neg)
            ));
        }
        for CardConstraint {
            pos,
            neg,
            elements,
            lower,
            upper,
        } in &g.cards
        {
            let mut elems: Vec<String> = elements
                .iter()
                .map(|e| {
                    format!(
                        "{} if {}; not {}",
                        atom(e.atom),
                        atoms(&e.guard_pos),
                        atoms(&e.guard_neg)
                    )
                })
                .collect();
            elems.sort();
            out.push(format!(
                "card {lower}..{upper} :- {}; not {} | {}",
                atoms(pos),
                atoms(neg),
                elems.join(" | ")
            ));
        }
        for (prio, lits) in &g.minimize {
            let mut rendered: Vec<String> = lits
                .iter()
                .map(
                    |MinimizeLit {
                         weight,
                         tuple,
                         pos,
                         neg,
                     }| {
                        let t: Vec<String> = tuple.iter().map(ToString::to_string).collect();
                        format!(
                            "min@{prio} {weight},{} : {}; not {}",
                            t.join(","),
                            atoms(pos),
                            atoms(neg)
                        )
                    },
                )
                .collect();
            rendered.sort();
            out.extend(rendered);
        }
        for (p, n) in &g.shows {
            out.push(format!("show {p}/{n}"));
        }
        for &a in &g.assumable {
            out.push(format!("assume {}", atom(a)));
        }
        out.sort();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn engines_ground_identical_programs(src in arb_program()) {
            let p = parse(&src).expect("generated programs parse");
            let semi = Grounder::new().ground(&p).expect("semi-naive grounds");
            let naive = ground(&Grounder::new(), &p).expect("naive grounds");
            prop_assert_eq!(canon(&semi), canon(&naive), "program:\n{}", src);
        }

        #[test]
        fn engines_agree_under_assumable_signatures(src in arb_program()) {
            // Assumable fact handling must be identical: `u0/1` and `b1/2`
            // facts become choice-supported assumable atoms on both engines.
            let p = parse(&src).expect("generated programs parse");
            let grounder = Grounder::new().assumable("u0", 1).assumable("b1", 2);
            let semi = grounder.ground(&p).expect("semi-naive grounds");
            let naive = ground(&grounder, &p).expect("naive grounds");
            prop_assert_eq!(canon(&semi), canon(&naive), "program:\n{}", src);
        }
    }
}
