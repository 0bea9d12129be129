//! Static analysis of ASP programs: span-carrying lints `A000`–`A014`.
//!
//! The pass runs over a [`SpannedProgram`] (parsed leniently, so unsafe
//! rules survive into the AST) plus the predicate dependency graph, and
//! reports [`Diagnostic`]s instead of aborting at the first problem:
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | A000 | error    | syntax error (the program does not parse) |
//! | A001 | warning  | predicate used positively (or `#show`n) but never defined — with a did-you-mean hint |
//! | A002 | warning  | predicate used with inconsistent arities |
//! | A003 | error    | unsafe variable (not bound by any positive body literal) |
//! | A004 | warning  | constraint body references an undefined predicate: it can never fire |
//! | A005 | warning  | derived predicate unreachable from every `#show` projection and constraint |
//! | A006 | warning  | cyclic negation (non-stratified loop through `not`) |
//! | A007 | info     | duplicate rule |
//! | A008 | info     | `not p` over a never-defined `p` is always true |
//! | A009 | warning  | predicted grounding explosion (estimated instances above [`EXPLOSION_THRESHOLD`]) |
//! | A010 | warning  | predicate defined by rules but never derivable (its size bound is zero) |
//! | A011 | info     | non-tight loop through negation: recursion and `not` in one SCC |
//! | A012 | warning  | constraint statically violated: the [well-founded model](crate::analysis::wfm) already satisfies its body, so no answer set exists |
//! | A013 | info     | choice predicate statically irrelevant: toggling it cannot change any shown atom, constraint, or objective |
//! | A014 | warning  | predicate constrained but never derivable: every ground instance is false in the well-founded model |
//!
//! A program is *lint-clean* when it produces no errors and no warnings;
//! info-level findings are advisory.

use crate::analysis::deps::{analyze_dependencies, dependency_edges, tarjan_scc};
use crate::analysis::simplify::simplify_with;
use crate::analysis::size::{predict_sizes, SizePrediction, EXPLOSION_THRESHOLD};
use crate::analysis::wfm::{well_founded, well_founded_with, WfmResult};
use crate::ast::{Head, Literal, Program, Rule, Statement};
use crate::diag::Diagnostic;
use crate::error::AspError;
use crate::ground::Grounder;
use crate::parser::{parse_program_spanned, OccRole, SpannedProgram};
use crate::program::{AtomId, GroundHead, GroundProgram};
use crate::solve::Lit;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Lint a program from source text.
///
/// Syntax errors become a single `A000` diagnostic; otherwise the full
/// pass of [`lint_program`] runs.
#[must_use]
pub fn lint_source(src: &str) -> Vec<Diagnostic> {
    match parse_program_spanned(src) {
        Ok(sp) => lint_program(&sp),
        Err(AspError::Parse(msg)) => vec![Diagnostic::error("A000", msg)],
        Err(other) => vec![Diagnostic::error("A000", other.to_string())],
    }
}

/// Run every lint over a parsed, span-annotated program.
#[must_use]
pub fn lint_program(sp: &SpannedProgram) -> Vec<Diagnostic> {
    let facts = PredFacts::collect(sp);
    let mut diags = Vec::new();
    undefined_predicates(sp, &facts, &mut diags); // A001, A004, A008
    arity_mismatches(sp, &facts, &mut diags); // A002
    unsafe_rules(sp, &mut diags); // A003
    unreachable_predicates(sp, &facts, &mut diags); // A005
    negation_cycles(sp, &mut diags); // A006
    duplicate_rules(sp, &mut diags); // A007
    let prediction = predict_sizes(&sp.program);
    let never_derivable = grounding_size_lints(sp, &facts, &prediction, &mut diags); // A009, A010
    non_tight_loops(sp, &mut diags); // A011
    wfm_lints(sp, &facts, &prediction, &never_derivable, &mut diags); // A012-A014
    diags.sort_by_key(|d| {
        (
            d.span
                .map_or((usize::MAX, usize::MAX), |s| (s.offset, s.len)),
            d.code.clone(),
        )
    });
    diags
}

/// Aggregated per-predicate information derived from the occurrence table.
struct PredFacts {
    /// Names with at least one defining (head / choice-element) occurrence.
    defined: BTreeSet<String>,
    /// Names defined *only* by facts (ground rules with empty bodies) —
    /// treated as model inputs and exempt from reachability lints.
    fact_only: BTreeSet<String>,
}

impl PredFacts {
    fn collect(sp: &SpannedProgram) -> Self {
        let mut defined = BTreeSet::new();
        let mut has_rule_def = BTreeSet::new();
        for (idx, stmt) in sp.program.statements.iter().enumerate() {
            let Statement::Rule(rule) = stmt else {
                continue;
            };
            match &rule.head {
                Head::Atom(a) => {
                    defined.insert(a.pred.clone());
                    if !rule.body.is_empty() {
                        has_rule_def.insert(a.pred.clone());
                    }
                }
                Head::Choice { elements, .. } => {
                    for e in elements {
                        defined.insert(e.atom.pred.clone());
                        // A choice head derives its atoms even from an
                        // empty body: never fact-only.
                        has_rule_def.insert(e.atom.pred.clone());
                    }
                }
                Head::None => {}
            }
            let _ = idx;
        }
        let fact_only = defined.difference(&has_rule_def).cloned().collect();
        PredFacts { defined, fact_only }
    }
}

/// A001 (positive use / `#show` of an undefined predicate), A004 (the same
/// inside a constraint body: the constraint can never fire), A008
/// (negation-only use of an undefined predicate is vacuously true).
fn undefined_predicates(sp: &SpannedProgram, facts: &PredFacts, diags: &mut Vec<Diagnostic>) {
    let positively_used: HashSet<&str> = sp
        .occurrences
        .iter()
        .filter(|o| matches!(o.role, OccRole::Pos | OccRole::Show))
        .map(|o| o.pred.as_str())
        .collect();
    let names = Suggester::new(&facts.defined);
    let mut suggestions: HashMap<&str, Option<String>> = HashMap::new();
    let mut neg_only_reported: BTreeSet<&str> = BTreeSet::new();
    for occ in &sp.occurrences {
        if occ.role == OccRole::Def || facts.defined.contains(&occ.pred) {
            continue;
        }
        let suggestion = suggestions
            .entry(&occ.pred)
            .or_insert_with(|| names.did_you_mean(&occ.pred))
            .clone();
        match occ.role {
            OccRole::Pos if in_constraint(&sp.program, occ.stmt) => {
                let mut d = Diagnostic::warning(
                    "A004",
                    format!(
                        "constraint can never fire: predicate `{}/{}` is never defined",
                        occ.pred, occ.arity
                    ),
                )
                .with_span(occ.span);
                if let Some(s) = suggestion {
                    d = d.with_suggestion(s);
                }
                diags.push(d);
            }
            OccRole::Pos | OccRole::Show => {
                let mut d = Diagnostic::warning(
                    "A001",
                    format!(
                        "predicate `{}/{}` is used but never defined",
                        occ.pred, occ.arity
                    ),
                )
                .with_span(occ.span);
                if let Some(s) = suggestion {
                    d = d.with_suggestion(s);
                }
                diags.push(d);
            }
            OccRole::Neg => {
                // Only when the predicate is used *exclusively* under
                // negation (otherwise the positive-use warning covers it),
                // and once per predicate.
                if positively_used.contains(occ.pred.as_str())
                    || !neg_only_reported.insert(&occ.pred)
                {
                    continue;
                }
                let mut d = Diagnostic::info(
                    "A008",
                    format!(
                        "`not {}` is always true: predicate `{}/{}` is never defined",
                        occ.pred, occ.pred, occ.arity
                    ),
                )
                .with_span(occ.span);
                if let Some(s) = suggestion {
                    d = d.with_suggestion(s);
                }
                diags.push(d);
            }
            OccRole::Def => unreachable!("filtered above"),
        }
    }
}

/// A002: the same predicate name used with different arities.
fn arity_mismatches(sp: &SpannedProgram, _facts: &PredFacts, diags: &mut Vec<Diagnostic>) {
    let mut arities: BTreeMap<&str, BTreeMap<usize, usize>> = BTreeMap::new();
    for occ in &sp.occurrences {
        *arities
            .entry(&occ.pred)
            .or_default()
            .entry(occ.arity)
            .or_insert(0) += 1;
    }
    for (pred, counts) in arities {
        if counts.len() < 2 {
            continue;
        }
        // Majority arity; ties go to whichever arity appears first in the
        // source (typically the definition).
        let first_use = |arity: usize| {
            sp.occurrences
                .iter()
                .position(|o| o.pred == pred && o.arity == arity)
                .unwrap_or(usize::MAX)
        };
        let majority = counts
            .iter()
            .max_by_key(|(arity, n)| (**n, usize::MAX - first_use(**arity)))
            .map(|(a, _)| *a)
            .unwrap_or(0);
        let listed: Vec<String> = counts.keys().map(ToString::to_string).collect();
        if let Some(occ) = sp
            .occurrences
            .iter()
            .find(|o| o.pred == pred && o.arity != majority)
        {
            diags.push(
                Diagnostic::warning(
                    "A002",
                    format!(
                        "predicate `{pred}` is used with inconsistent arities ({})",
                        listed.join(", ")
                    ),
                )
                .with_span(occ.span)
                .with_suggestion(format!("other occurrences use `{pred}/{majority}`")),
            );
        }
    }
}

/// A003: unsafe variables, reported per rule with the rule's span.
fn unsafe_rules(sp: &SpannedProgram, diags: &mut Vec<Diagnostic>) {
    for (idx, stmt) in sp.program.statements.iter().enumerate() {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        if let Err(AspError::UnsafeRule { var, .. }) = rule.check_safety() {
            let mut d = Diagnostic::error(
                "A003",
                format!("unsafe variable `{var}`: not bound by any positive body literal"),
            );
            if let Some(span) = sp.statement_spans.get(idx) {
                d = d.with_span(*span);
            }
            diags.push(d);
        }
    }
}

/// A005: derived predicates unreachable from every `#show` projection,
/// constraint, and `#minimize` objective. Skipped entirely for programs
/// without `#show` (nothing declares an output vocabulary to be reachable
/// from); fact-only predicates are model inputs and exempt.
fn unreachable_predicates(sp: &SpannedProgram, facts: &PredFacts, diags: &mut Vec<Diagnostic>) {
    let has_show = sp
        .program
        .statements
        .iter()
        .any(|s| matches!(s, Statement::Show { .. }));
    if !has_show {
        return;
    }
    // Roots: shown predicates, constraint bodies, minimize conditions.
    let mut relevant: BTreeSet<&str> = BTreeSet::new();
    for stmt in &sp.program.statements {
        match stmt {
            Statement::Show { pred, .. } => {
                relevant.insert(pred);
            }
            Statement::Rule(Rule {
                head: Head::None,
                body,
            }) => {
                for lit in body {
                    if let Some(a) = lit.as_pos() {
                        relevant.insert(&a.pred);
                    } else if let Literal::Neg(a) = lit {
                        relevant.insert(&a.pred);
                    }
                }
            }
            Statement::Minimize { elements, .. } => {
                for e in elements {
                    for lit in &e.condition {
                        match lit {
                            Literal::Pos(a) | Literal::Neg(a) => {
                                relevant.insert(&a.pred);
                            }
                            Literal::Cmp(..) => {}
                        }
                    }
                }
            }
            Statement::Rule(_) => {}
        }
    }
    // Closure: whatever feeds a relevant head is relevant too.
    let deps = dependency_edges(&sp.program);
    loop {
        let mut grew = false;
        for (head, body_pred, _) in &deps {
            if relevant.contains(head.as_str()) && relevant.insert(body_pred) {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    // Report each derived-but-irrelevant predicate at its first definition.
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for (idx, stmt) in sp.program.statements.iter().enumerate() {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        let heads: Vec<&str> = match &rule.head {
            Head::Atom(a) => vec![&a.pred],
            Head::Choice { elements, .. } => {
                elements.iter().map(|e| e.atom.pred.as_str()).collect()
            }
            Head::None => Vec::new(),
        };
        for pred in heads {
            if relevant.contains(pred) || facts.fact_only.contains(pred) || !reported.insert(pred) {
                continue;
            }
            let mut d = Diagnostic::warning(
                "A005",
                format!(
                    "predicate `{pred}` is derived but unreachable from every #show projection and constraint"
                ),
            );
            if let Some(span) = sp.statement_spans.get(idx) {
                d = d.with_span(*span);
            }
            diags.push(d);
        }
    }
}

/// A006: strongly connected components of the predicate dependency graph
/// that contain an internal negative edge — i.e. recursion through `not`,
/// which makes stable-model existence fragile (even loops) or impossible
/// (odd loops).
fn negation_cycles(sp: &SpannedProgram, diags: &mut Vec<Diagnostic>) {
    let deps = dependency_edges(&sp.program);
    // Index the predicate universe.
    let mut preds: BTreeSet<&str> = BTreeSet::new();
    for (h, b, _) in &deps {
        preds.insert(h);
        preds.insert(b);
    }
    let index: HashMap<&str, usize> = preds.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let names: Vec<&str> = preds.into_iter().collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for (h, b, _) in &deps {
        adj[index[h.as_str()]].push(index[b.as_str()]);
    }
    let comp = tarjan_scc(&adj);
    // A component is a cycle when it has >1 node, or one node with a
    // self-edge.
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    for (h, b, negated) in &deps {
        if !negated {
            continue;
        }
        let (hi, bi) = (index[h.as_str()], index[b.as_str()]);
        if comp[hi] != comp[bi] || !reported.insert(comp[hi]) {
            continue;
        }
        let cycle: Vec<&str> = (0..names.len())
            .filter(|i| comp[*i] == comp[hi])
            .map(|i| names[i])
            .collect();
        let mut d = Diagnostic::warning(
            "A006",
            format!(
                "cyclic negation through predicate(s) {}",
                quote_list(&cycle)
            ),
        );
        // Anchor at the rule introducing the negative edge.
        if let Some(span) = rule_span_with_neg_edge(sp, h, b) {
            d = d.with_span(span);
        }
        diags.push(d);
    }
}

/// A007: textually identical rules.
fn duplicate_rules(sp: &SpannedProgram, diags: &mut Vec<Diagnostic>) {
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (idx, stmt) in sp.program.statements.iter().enumerate() {
        if !matches!(stmt, Statement::Rule(_)) {
            continue;
        }
        let text = stmt.to_string();
        match seen.get(&text) {
            Some(first) => {
                let mut d = Diagnostic::info("A007", format!("duplicate rule `{text}`"));
                if let Some(span) = sp.statement_spans.get(idx) {
                    d = d.with_span(*span);
                }
                if let Some(first_span) = sp.statement_spans.get(*first) {
                    d = d.with_suggestion(format!("first defined at {first_span}"));
                }
                // Interval expansions of a single source statement share
                // one span; only distinct source statements are duplicates.
                if sp.statement_spans.get(idx) != sp.statement_spans.get(*first) {
                    diags.push(d);
                }
            }
            None => {
                seen.insert(text, idx);
            }
        }
    }
}

/// Find the span of a rule whose head derives `head` and whose body
/// contains `not body_pred(...)`.
fn rule_span_with_neg_edge(
    sp: &SpannedProgram,
    head: &str,
    body_pred: &str,
) -> Option<crate::diag::Span> {
    for (idx, stmt) in sp.program.statements.iter().enumerate() {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        let derives = match &rule.head {
            Head::Atom(a) => a.pred == head,
            Head::Choice { elements, .. } => elements.iter().any(|e| e.atom.pred == head),
            Head::None => false,
        };
        let negates = rule
            .body
            .iter()
            .any(|l| matches!(l, Literal::Neg(a) if a.pred == body_pred));
        if derives && negates {
            return sp.statement_spans.get(idx).copied();
        }
    }
    None
}

/// Grounding budget for the WFM-backed lints: programs whose predicted
/// grounding exceeds this many instances skip A012–A014 entirely (the
/// point of the prediction is to avoid materializing exactly those
/// programs).
const WFM_LINT_BUDGET: f64 = 200_000.0;

/// Cap on conditional-WFM probes across the whole A013 pass.
const WFM_LINT_MAX_PROBES: usize = 32;

/// Skip A013 entirely above this many distinct ground choice atoms.
const WFM_LINT_MAX_CHOICE_ATOMS: usize = 256;

/// A012 (constraint certainly violated under the WFM), A013 (choice
/// predicate statically irrelevant), A014 (constrained predicate with no
/// derivable instance).
///
/// These are the only lints that ground the program, so the size
/// prediction gates them; grounding failures skip the pass silently (an
/// unsafe rule is already reported as A003).
fn wfm_lints(
    sp: &SpannedProgram,
    facts: &PredFacts,
    prediction: &SizePrediction,
    never_derivable: &BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    if prediction.total > WFM_LINT_BUDGET {
        return;
    }
    let Ok(g) = Grounder::new().ground_predicted(&sp.program, Some(prediction)) else {
        return;
    };
    let wfm = well_founded(&g);
    statically_violated_constraints(sp, &g, &wfm, diags); // A012
    underivable_constrained_predicates(sp, facts, &g, &wfm, never_derivable, diags); // A014
    irrelevant_choice_predicates(sp, &g, &wfm, diags); // A013
}

/// A012: a ground integrity constraint whose body the well-founded model
/// already satisfies (positives all true, negatives all false). No answer
/// set can avoid it — the program is statically inconsistent. The span
/// points at the source constraint whose body signature matches the
/// violated ground instance.
fn statically_violated_constraints(
    sp: &SpannedProgram,
    g: &GroundProgram,
    wfm: &WfmResult,
    diags: &mut Vec<Diagnostic>,
) {
    type BodySig = BTreeMap<(String, usize, bool), usize>;
    let mut sources: Vec<(usize, BodySig)> = Vec::new();
    for (idx, stmt) in sp.program.statements.iter().enumerate() {
        let Statement::Rule(Rule {
            head: Head::None,
            body,
        }) = stmt
        else {
            continue;
        };
        let mut sig: BodySig = BTreeMap::new();
        for lit in body {
            let (atom, positive) = match lit {
                Literal::Pos(a) => (a, true),
                Literal::Neg(a) => (a, false),
                Literal::Cmp(..) => continue,
            };
            *sig.entry((atom.pred.clone(), atom.args.len(), positive))
                .or_insert(0) += 1;
        }
        sources.push((idx, sig));
    }
    let mut reported: BTreeSet<Option<usize>> = BTreeSet::new();
    for r in &g.rules {
        if !matches!(r.head, GroundHead::None)
            || !r.pos.iter().all(|p| wfm.is_true(*p))
            || !r.neg.iter().all(|n| wfm.is_false(*n))
        {
            continue;
        }
        let mut sig: BodySig = BTreeMap::new();
        for (ids, positive) in [(&r.pos, true), (&r.neg, false)] {
            for id in ids {
                let a = g.atom(*id);
                *sig.entry((a.pred.clone(), a.args.len(), positive))
                    .or_insert(0) += 1;
            }
        }
        let stmt = sources.iter().find(|(_, s)| *s == sig).map(|(idx, _)| *idx);
        if !reported.insert(stmt) {
            continue;
        }
        let mut d = Diagnostic::warning(
            "A012",
            "constraint statically violated: its body already holds in the \
             well-founded model, so no answer set exists",
        );
        if let Some(span) = stmt.and_then(|idx| sp.statement_spans.get(idx)) {
            d = d.with_span(*span);
        }
        diags.push(d);
    }
}

/// A014: a defined predicate occurs positively in a constraint body, but
/// every interned ground instance of it is false in the well-founded model
/// (or the grounder materialized none at all) — the constraint is dead
/// code. Predicates A010 already reported as never derivable are skipped.
fn underivable_constrained_predicates(
    sp: &SpannedProgram,
    facts: &PredFacts,
    g: &GroundProgram,
    wfm: &WfmResult,
    never_derivable: &BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut derivable: BTreeSet<(String, usize)> = BTreeSet::new();
    for (id, a) in g.atoms() {
        if !wfm.is_false(id) {
            derivable.insert((a.pred.clone(), a.args.len()));
        }
    }
    let mut reported: BTreeSet<(String, usize)> = BTreeSet::new();
    for occ in &sp.occurrences {
        if occ.role != OccRole::Pos
            || !in_constraint(&sp.program, occ.stmt)
            || !facts.defined.contains(&occ.pred)
            || never_derivable.contains(&occ.pred)
            || derivable.contains(&(occ.pred.clone(), occ.arity))
            || !reported.insert((occ.pred.clone(), occ.arity))
        {
            continue;
        }
        diags.push(
            Diagnostic::warning(
                "A014",
                format!(
                    "predicate `{}/{}` is constrained but never derivable: every \
                     ground instance is false in the well-founded model",
                    occ.pred, occ.arity
                ),
            )
            .with_span(occ.span),
        );
    }
}

/// The atoms whose values constitute the program's observable verdict:
/// the `#show` projection, every atom an integrity constraint or
/// cardinality constraint mentions, and every `#minimize` condition atom.
fn verdict_atoms(p: &GroundProgram) -> Vec<bool> {
    let mut v = vec![false; p.atom_count()];
    let mark = |v: &mut Vec<bool>, ids: &[AtomId]| {
        for id in ids {
            v[id.index()] = true;
        }
    };
    for r in &p.rules {
        if matches!(r.head, GroundHead::None) {
            mark(&mut v, &r.pos);
            mark(&mut v, &r.neg);
        }
    }
    for c in &p.cards {
        mark(&mut v, &c.pos);
        mark(&mut v, &c.neg);
        for e in &c.elements {
            v[e.atom.index()] = true;
            mark(&mut v, &e.guard_pos);
            mark(&mut v, &e.guard_neg);
        }
    }
    for (_, lits) in &p.minimize {
        for l in lits {
            mark(&mut v, &l.pos);
            mark(&mut v, &l.neg);
        }
    }
    for (id, _) in p.atoms() {
        if p.shown(id) {
            v[id.index()] = true;
        }
    }
    v
}

/// Route 1 of the A013 check: the forward dependency cone of `c` in the
/// simplified program touches no verdict atom and contains no internal
/// negative edge. By the splitting theorem the rest of the program is then
/// independent of how `c` is chosen, and the cone itself (verdict-free and
/// internally negation-free) can neither veto a model nor alter one —
/// toggling `c` cannot change any verdict.
fn cone_is_isolated(p: &GroundProgram, adj: &[Vec<u32>], c: AtomId, verdict: &[bool]) -> bool {
    let mut cone = vec![false; p.atom_count()];
    let mut stack = vec![c.0];
    cone[c.index()] = true;
    while let Some(a) = stack.pop() {
        if verdict[a as usize] {
            return false;
        }
        for &h in &adj[a as usize] {
            if !cone[h as usize] {
                cone[h as usize] = true;
                stack.push(h);
            }
        }
    }
    for r in &p.rules {
        let (GroundHead::Atom(h) | GroundHead::Choice(h)) = r.head else {
            continue;
        };
        if cone[h.index()] && r.neg.iter().any(|n| cone[n.index()]) {
            return false;
        }
    }
    true
}

/// Route 2 of the A013 check: pin `c` true and then false; if both
/// conditional well-founded models are consistent and decide every verdict
/// atom to the same value, every stable model — with or without `c` —
/// agrees on the whole verdict.
fn conditional_verdicts_fixed(g: &GroundProgram, c: AtomId, verdict: &[bool]) -> bool {
    use crate::analysis::wfm::Truth;
    let on = well_founded_with(g, &[Lit::pos(c)]);
    let off = well_founded_with(g, &[Lit::neg(c)]);
    if on.inconsistent || off.inconsistent {
        return false;
    }
    verdict.iter().enumerate().all(|(i, &is_verdict)| {
        let id = AtomId(i as u32);
        !is_verdict || (on.value(id) != Truth::Undefined && on.value(id) == off.value(id))
    })
}

/// A013: a choice predicate none of whose ground atoms can influence the
/// program's verdict — in the paper's encodings, a mitigation (or fault
/// toggle) whose activation provably changes nothing. Each surviving atom
/// must pass the structural cone check ([`cone_is_isolated`]) or the
/// conditional-WFM check ([`conditional_verdicts_fixed`]); atoms the WFM
/// already refutes are vacuously irrelevant.
fn irrelevant_choice_predicates(
    sp: &SpannedProgram,
    g: &GroundProgram,
    wfm: &WfmResult,
    diags: &mut Vec<Diagnostic>,
) {
    if g.shows.is_empty() {
        // No projection: every atom is observable and nothing can be
        // certified irrelevant (mirrors the A005 gate).
        return;
    }
    let mut groups: BTreeMap<(String, usize), Vec<AtomId>> = BTreeMap::new();
    let mut seen = vec![false; g.atom_count()];
    for r in &g.rules {
        if let GroundHead::Choice(h) = r.head {
            if !seen[h.index()] {
                seen[h.index()] = true;
                let a = g.atom(h);
                groups
                    .entry((a.pred.clone(), a.args.len()))
                    .or_default()
                    .push(h);
            }
        }
    }
    if groups.values().map(Vec::len).sum::<usize>() > WFM_LINT_MAX_CHOICE_ATOMS {
        return;
    }
    let s = simplify_with(g, wfm);
    let verdict_orig = verdict_atoms(g);
    let verdict_simpl = verdict_atoms(&s.program);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); s.program.atom_count()];
    for r in &s.program.rules {
        let (GroundHead::Atom(h) | GroundHead::Choice(h)) = r.head else {
            continue;
        };
        for x in r.pos.iter().chain(&r.neg) {
            adj[x.index()].push(h.0);
        }
    }
    let mut probes = 0usize;
    'groups: for ((pred, arity), atoms) in &groups {
        let surviving: Vec<AtomId> = atoms
            .iter()
            .filter(|a| s.map[a.index()].is_some())
            .copied()
            .collect();
        if surviving.is_empty() {
            continue;
        }
        for &c in &surviving {
            let c_new = s.map[c.index()].expect("surviving atoms are mapped");
            if cone_is_isolated(&s.program, &adj, c_new, &verdict_simpl) {
                continue;
            }
            if probes >= WFM_LINT_MAX_PROBES {
                continue 'groups; // out of budget: cannot certify the group
            }
            probes += 1;
            if !conditional_verdicts_fixed(g, c, &verdict_orig) {
                continue 'groups;
            }
        }
        let stmt = sp.program.statements.iter().position(|stmt| {
            matches!(stmt, Statement::Rule(Rule { head: Head::Choice { elements, .. }, .. })
                if elements
                    .iter()
                    .any(|e| e.atom.pred == *pred && e.atom.args.len() == *arity))
        });
        let mut d = Diagnostic::info(
            "A013",
            format!(
                "choice predicate `{pred}/{arity}` is statically irrelevant: \
                 toggling it cannot change any shown atom, constraint, or objective"
            ),
        );
        if let Some(span) = stmt.and_then(|idx| sp.statement_spans.get(idx)) {
            d = d.with_span(*span);
        }
        diags.push(d);
    }
}

fn in_constraint(program: &Program, stmt: usize) -> bool {
    matches!(
        program.statements.get(stmt),
        Some(Statement::Rule(Rule {
            head: Head::None,
            ..
        }))
    )
}

/// A009 (a rule's predicted instantiation count crosses
/// [`EXPLOSION_THRESHOLD`]) and A010 (a rule-defined predicate whose size
/// bound is zero: no chain of rules can ever derive an instance).
///
/// A010 stays quiet while any predicate is undefined — the bounds are
/// meaningless then, and A001/A004 already point at the real problem.
fn grounding_size_lints(
    sp: &SpannedProgram,
    facts: &PredFacts,
    prediction: &SizePrediction,
    diags: &mut Vec<Diagnostic>,
) -> BTreeSet<String> {
    for est in &prediction.rules {
        if est.instances > EXPLOSION_THRESHOLD {
            let mut d = Diagnostic::warning(
                "A009",
                format!(
                    "predicted grounding explosion: about {:.1e} ground instances of this rule (threshold {:.1e})",
                    est.instances, EXPLOSION_THRESHOLD
                ),
            );
            if let Some(span) = sp.statement_spans.get(est.stmt) {
                d = d.with_span(*span);
            }
            diags.push(d);
        }
    }

    let all_defined = sp
        .occurrences
        .iter()
        .all(|o| o.role == OccRole::Def || facts.defined.contains(&o.pred));
    if !all_defined {
        return BTreeSet::new();
    }
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for (idx, stmt) in sp.program.statements.iter().enumerate() {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        let heads: Vec<(&str, usize)> = match &rule.head {
            Head::Atom(a) => vec![(a.pred.as_str(), a.args.len())],
            Head::Choice { elements, .. } => elements
                .iter()
                .map(|e| (e.atom.pred.as_str(), e.atom.args.len()))
                .collect(),
            Head::None => Vec::new(),
        };
        for (pred, arity) in heads {
            let underivable = prediction
                .bound(pred, arity)
                .is_some_and(|b| b.defined && b.atoms == 0.0);
            if !underivable || !reported.insert(pred.to_owned()) {
                continue;
            }
            let mut d = Diagnostic::warning(
                "A010",
                format!("predicate `{pred}/{arity}` can never be derived: no chain of rules produces any instance"),
            );
            if let Some(span) = sp.statement_spans.get(idx) {
                d = d.with_span(*span);
            }
            diags.push(d);
        }
    }
    reported
}

/// A011: an SCC of the predicate dependency graph with both an internal
/// positive and an internal negative edge. Such a program is not tight at
/// the predicate level, so the solver may need the unfounded-set closure
/// (advisory — the ground program can still be tight).
fn non_tight_loops(sp: &SpannedProgram, diags: &mut Vec<Diagnostic>) {
    let dep = analyze_dependencies(&sp.program);
    for comp in &dep.neg_positive_loops {
        let names: Vec<&str> = comp.iter().map(String::as_str).collect();
        let mut d = Diagnostic::info(
            "A011",
            format!(
                "non-tight loop through negation involving {}: positive recursion and `not` share a cycle",
                quote_list(&names)
            ),
        );
        if let Some(span) = rule_span_with_pos_edge(sp, comp) {
            d = d.with_span(span);
        }
        diags.push(d);
    }
}

/// Find the span of a rule that contributes a positive internal edge to
/// the component `comp` — its head and some positive body literal both
/// name predicates of the component.
fn rule_span_with_pos_edge(sp: &SpannedProgram, comp: &[String]) -> Option<crate::diag::Span> {
    let members: BTreeSet<&str> = comp.iter().map(String::as_str).collect();
    for (idx, stmt) in sp.program.statements.iter().enumerate() {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        let derives = match &rule.head {
            Head::Atom(a) => members.contains(a.pred.as_str()),
            Head::Choice { elements, .. } => elements
                .iter()
                .any(|e| members.contains(e.atom.pred.as_str())),
            Head::None => false,
        };
        let positive = rule
            .body
            .iter()
            .any(|l| matches!(l, Literal::Pos(a) if members.contains(a.pred.as_str())));
        if derives && positive {
            return sp.statement_spans.get(idx).copied();
        }
    }
    None
}

/// Largest edit distance a did-you-mean suggestion may be away.
const SUGGEST_DISTANCE: usize = 2;

/// Band width of the edit-distance rows: the cells within
/// [`SUGGEST_DISTANCE`] of the diagonal.
const BAND: usize = 2 * SUGGEST_DISTANCE + 1;

/// Did-you-mean lookup over the defined predicate names.
///
/// The names sit in a trie that a query walks depth-first, carrying one
/// Levenshtein row per trie node. Only the cells within
/// [`SUGGEST_DISTANCE`] of the diagonal are kept (every other cell
/// exceeds the cutoff anyway), and a subtree is dropped once its whole row
/// does: a query visits the names within reach of it, not all of them.
struct Suggester<'a> {
    nodes: Vec<TrieNode<'a>>,
}

#[derive(Default)]
struct TrieNode<'a> {
    children: Vec<(char, usize)>,
    name: Option<&'a str>,
}

/// One banded row: `band[k]` is the distance between the trie prefix of
/// length `i` and the query prefix of length `i + k - SUGGEST_DISTANCE`,
/// capped at `SUGGEST_DISTANCE + 1`.
type Band = [usize; BAND];

impl<'a> Suggester<'a> {
    fn new(names: &'a BTreeSet<String>) -> Self {
        let mut nodes = vec![TrieNode::default()];
        for name in names {
            let mut at = 0;
            for c in name.chars() {
                at = match nodes[at].children.iter().find(|&&(k, _)| k == c) {
                    Some(&(_, child)) => child,
                    None => {
                        nodes.push(TrieNode::default());
                        let child = nodes.len() - 1;
                        nodes[at].children.push((c, child));
                        child
                    }
                };
            }
            nodes[at].name = Some(name);
        }
        Suggester { nodes }
    }

    /// The closest other defined name within [`SUGGEST_DISTANCE`] edits
    /// (ties go to the lexicographically smallest), as a suggestion.
    fn did_you_mean(&self, pred: &str) -> Option<String> {
        const FAR: usize = SUGGEST_DISTANCE + 1;
        let query: Vec<char> = pred.chars().collect();
        let m = query.len();
        // The query prefix length a band cell stands for at depth `i`.
        let col = |i: usize, k: usize| (i + k).checked_sub(SUGGEST_DISTANCE).filter(|&j| j <= m);
        let mut root: Band = [FAR; BAND];
        for (k, cell) in root.iter_mut().enumerate() {
            if let Some(j) = col(0, k) {
                *cell = j.min(FAR);
            }
        }
        let mut best: Option<(usize, &str)> = None;
        let mut stack = vec![(0usize, 0usize, root)];
        while let Some((node, i, band)) = stack.pop() {
            let node = &self.nodes[node];
            if let (Some(name), Some(k)) = (node.name, (m + SUGGEST_DISTANCE).checked_sub(i)) {
                let d = band.get(k).copied().unwrap_or(FAR);
                if d < FAR && name != pred && best.is_none_or(|b| (d, name) < b) {
                    best = Some((d, name));
                }
            }
            for &(c, child) in &node.children {
                let mut next: Band = [FAR; BAND];
                for k in 0..BAND {
                    let Some(j) = col(i + 1, k) else { continue };
                    next[k] = if j == 0 {
                        (i + 1).min(FAR)
                    } else {
                        let diag = band[k] + usize::from(c != query[j - 1]);
                        let up = band.get(k + 1).map_or(FAR, |d| d + 1);
                        let left = k.checked_sub(1).map_or(FAR, |l| next[l] + 1);
                        diag.min(up).min(left).min(FAR)
                    };
                }
                // Row minima never decrease with depth: once every cell is
                // past the cutoff, so is every name below.
                if next.iter().any(|&d| d < FAR) {
                    stack.push((child, i + 1, next));
                }
            }
        }
        best.map(|(_, cand)| format!("did you mean `{cand}`?"))
    }
}

fn quote_list(items: &[&str]) -> String {
    items
        .iter()
        .map(|i| format!("`{i}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn codes(src: &str) -> Vec<String> {
        lint_source(src).into_iter().map(|d| d.code).collect()
    }

    fn only(src: &str, code: &str) -> Diagnostic {
        let diags: Vec<Diagnostic> = lint_source(src)
            .into_iter()
            .filter(|d| d.code == code)
            .collect();
        assert_eq!(diags.len(), 1, "expected exactly one {code}, got {diags:?}");
        diags.into_iter().next().unwrap()
    }

    #[test]
    fn a000_reports_syntax_errors() {
        let d = only("p(a", "A000");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("expected"), "{}", d.message);
    }

    #[test]
    fn a001_undefined_predicate_with_did_you_mean() {
        let src = "mitigation(f4, m2).\nuses(M) :- mitigaton(F, M).";
        let d = only(src, "A001");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("`mitigaton/2`"), "{}", d.message);
        assert_eq!(d.suggestion.as_deref(), Some("did you mean `mitigation`?"));
        let span = d.span.expect("span");
        assert_eq!((span.line, span.column), (2, 12));
        assert_eq!(span.len, "mitigaton".len());
    }

    #[test]
    fn a002_arity_mismatch() {
        let src = "p(a, b).\nq :- p(a).";
        let d = only(src, "A002");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("inconsistent arities"), "{}", d.message);
        let span = d.span.expect("span");
        assert_eq!(
            (span.line, span.column),
            (2, 6),
            "points at the minority use"
        );
    }

    #[test]
    fn a003_unsafe_variable_is_an_error() {
        let src = "p(a).\nq(X, Y) :- p(X).";
        let d = only(src, "A003");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("`Y`"), "{}", d.message);
        let span = d.span.expect("span");
        assert_eq!(
            (span.line, span.column),
            (2, 1),
            "rule span starts the statement"
        );
    }

    #[test]
    fn a004_constraint_that_can_never_fire() {
        let src = "p(a).\n:- qq(X), p(X).";
        let d = only(src, "A004");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("never fire"), "{}", d.message);
        let span = d.span.expect("span");
        assert_eq!((span.line, span.column), (2, 4));
        // Constraint uses are not double-reported as A001.
        assert!(!codes(src).contains(&"A001".to_owned()));
    }

    #[test]
    fn a005_unreachable_derived_predicate() {
        let src = "p(a).\nq(X) :- p(X).\nr(X) :- p(X).\n#show q/1.";
        let d = only(src, "A005");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("`r`"), "{}", d.message);
        assert_eq!(d.span.expect("span").line, 3);
        // Without #show there is no output vocabulary: lint stays quiet.
        assert!(codes("p(a).\nq(X) :- p(X).").is_empty());
        // Fact-only predicates are inputs, never flagged.
        assert!(!codes("p(a).\n#show p/1.").contains(&"A005".to_owned()));
    }

    #[test]
    fn a006_negation_cycle() {
        let src = "a :- not b.\nb :- not a.";
        let d = only(src, "A006");
        assert_eq!(d.severity, Severity::Warning);
        assert!(
            d.message.contains("`a`") && d.message.contains("`b`"),
            "{}",
            d.message
        );
        assert_eq!(d.span.expect("span").line, 1);
        // Positive recursion is fine.
        assert!(codes("p(a). r(X, b) :- p(X). r(X, Y) :- r(X, Z), r(Z, Y).").is_empty());
    }

    #[test]
    fn a007_duplicate_rule() {
        let src = "p(a).\nq(X) :- p(X).\nq(X) :- p(X).";
        let d = only(src, "A007");
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.span.expect("span").line, 3);
        assert!(d.suggestion.expect("suggestion").contains("line 2"));
        // Interval expansion does not self-report.
        assert!(codes("n(1..3).").is_empty());
    }

    #[test]
    fn a008_negation_of_undefined_predicate() {
        let src = "p(a).\nq(X) :- p(X), not blocked(X).";
        let d = only(src, "A008");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("always true"), "{}", d.message);
        assert_eq!(
            (d.span.expect("span").line, d.span.expect("span").column),
            (2, 19)
        );
    }

    #[test]
    fn a009_predicted_grounding_explosion() {
        let src = "num(1..120).\nbig(X, Y, Z) :- num(X), num(Y), num(Z).";
        let d = only(src, "A009");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("explosion"), "{}", d.message);
        let span = d.span.expect("span");
        assert_eq!((span.line, span.column), (2, 1), "points at the big rule");
        // A bounded join stays quiet.
        assert!(!codes("num(1..120). pair(X, Y) :- num(X), num(Y).").contains(&"A009".to_owned()));
    }

    #[test]
    fn a010_underivable_predicate() {
        let src = "seed(1).\nok(X) :- seed(X).\nghost(X) :- phantom(X).\nphantom(X) :- ghost(X).";
        let diags: Vec<Diagnostic> = lint_source(src)
            .into_iter()
            .filter(|d| d.code == "A010")
            .collect();
        assert_eq!(diags.len(), 2, "ghost and phantom: {diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(
            diags[0].message.contains("`ghost/1`"),
            "{}",
            diags[0].message
        );
        assert_eq!(diags[0].span.expect("span").line, 3);
        assert_eq!(diags[1].span.expect("span").line, 4);
        // With an undefined predicate in the mix, A001 owns the report.
        assert!(!codes("p(X) :- undefined_thing(X).").contains(&"A010".to_owned()));
    }

    #[test]
    fn a011_non_tight_loop_through_negation() {
        let src = "b :- not a.\na :- a, not b.";
        let d = only(src, "A011");
        assert_eq!(d.severity, Severity::Info);
        assert!(
            d.message.contains("`a`") && d.message.contains("`b`"),
            "{}",
            d.message
        );
        assert_eq!(
            d.span.expect("span").line,
            2,
            "anchored at the rule with the positive edge"
        );
        // A pure even loop is tight: A006 only, no A011.
        assert!(!codes("a :- not b. b :- not a.").contains(&"A011".to_owned()));
    }

    #[test]
    fn a012_statically_violated_constraint() {
        let src = "p. q :- p. :- q.";
        let d = only(src, "A012");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("no answer set"), "{}", d.message);
        let span = d.span.expect("span points at the constraint");
        assert_eq!(span.offset, src.find(":- q").unwrap());
        // A constraint guarded by a free choice is not statically violated.
        assert!(!codes("{ x }. p :- x. :- p.").contains(&"A012".to_owned()));
    }

    #[test]
    fn a013_statically_irrelevant_choice() {
        // `junk` only feeds `spin`; neither is shown or constrained. `f`
        // drives the shown `alarm`, so it must not be flagged.
        let src = "{ junk }. spin :- junk. { f }. alarm :- f. #show alarm/0.";
        let d = only(src, "A013");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("`junk/0`"), "{}", d.message);
        assert_eq!(d.span.expect("span").offset, 0, "at the choice rule");
        // Without a #show projection every atom is observable: no A013.
        assert!(!codes("{ junk }. spin :- junk.").contains(&"A013".to_owned()));
    }

    #[test]
    fn a013_needs_the_conditional_route_for_shadowed_choices() {
        // `v` is derived whichever way `c` goes — reachability alone cannot
        // see that, but the conditional WFM decides `v` true under both
        // `c` and `not c`.
        let src = "{ c }. v :- c. v :- not c. #show v/0.";
        let d = only(src, "A013");
        assert!(d.message.contains("`c/0`"), "{}", d.message);
    }

    #[test]
    fn a014_constrained_but_never_derivable() {
        // `f` refutes `danger`'s only rule, so the constraint is dead code.
        let src = "f. danger :- not f. :- danger.";
        let d = only(src, "A014");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("`danger/0`"), "{}", d.message);
        assert_eq!(
            d.span.expect("span").offset,
            src.rfind("danger").unwrap(),
            "at the occurrence inside the constraint"
        );
        // A derivable constrained predicate stays silent.
        assert!(!codes("f. danger :- f. :- danger, f.").contains(&"A014".to_owned()));
    }

    #[test]
    fn wfm_lints_respect_the_grounding_budget() {
        // Statically violated, but the predicted grounding of the n^3
        // cross join is far past the budget: the pass must not ground it.
        let mut src = String::new();
        for i in 0..120 {
            src.push_str(&format!("n({i}). "));
        }
        src.push_str("big(X, Y, Z) :- n(X), n(Y), n(Z). p. :- p.");
        assert!(!codes(&src).contains(&"A012".to_owned()));
    }

    #[test]
    fn paper_listing_1_is_lint_clean() {
        // The verbatim Listing 1 of the paper: `active_mitigation` is used
        // only under negation (A008 info), everything else is defined.
        let src = "component(ew). fault(f4). mitigation(f4, m2). \
                   potential_fault(C, F) :- component(C), fault(F), \
                   mitigation(F, M), not active_mitigation(C, M).";
        let diags = lint_source(src);
        assert!(
            !diags.iter().any(|d| d.is_error() || d.is_warning()),
            "not lint-clean: {diags:?}"
        );
        assert_eq!(diags.len(), 1, "exactly the A008 info: {diags:?}");
        assert_eq!(diags[0].code, "A008");
    }

    #[test]
    fn misspelled_listing_1_points_at_the_typo() {
        let src = "component(ew). fault(f4). mitigation(f4, m2).\n\
                   potential_fault(C, F) :- component(C), fault(F),\n\
                   \x20   mitigaton(F, M), not active_mitigation(C, M).";
        let d = only(src, "A001");
        assert_eq!(d.suggestion.as_deref(), Some("did you mean `mitigation`?"));
        let span = d.span.expect("span");
        assert_eq!((span.line, span.column), (3, 5));
    }

    #[test]
    fn diagnostics_come_back_in_source_order() {
        let src = "q(X) :- p(X).\nr(Y, Z) :- q(Y).";
        let diags = lint_source(src);
        let offsets: Vec<usize> = diags
            .iter()
            .filter_map(|d| d.span.map(|s| s.offset))
            .collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(offsets, sorted);
    }

    /// Full-matrix Levenshtein distance: the oracle for the banded trie walk.
    fn levenshtein(a: &str, b: &str) -> usize {
        let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        for (i, ca) in a.iter().enumerate() {
            let mut cur = vec![i + 1; b.len() + 1];
            for (j, cb) in b.iter().enumerate() {
                cur[j + 1] = (prev[j] + usize::from(ca != cb))
                    .min(prev[j + 1] + 1)
                    .min(cur[j] + 1);
            }
            prev = cur;
        }
        prev[b.len()]
    }

    #[test]
    fn suggestions_match_a_full_scan_of_the_defined_names() {
        // Names over a three-letter alphabet collide often: ties,
        // prefixes of each other, and every distance up to the cutoff.
        let mut state = 0x2545_f491_u64;
        let mut name = |max_len: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let len = (state >> 33) % (max_len + 1);
            (0..len)
                .map(|i| ['a', 'b', 'é'][((state >> (8 + 2 * i)) % 3) as usize])
                .collect::<String>()
        };
        let defined: BTreeSet<String> = (0..300).map(|_| name(7)).collect();
        let names = Suggester::new(&defined);
        for _ in 0..2_000 {
            let pred = name(9);
            let want = defined
                .iter()
                .filter(|cand| cand.as_str() != pred)
                .map(|cand| (levenshtein(&pred, cand), cand))
                .filter(|(d, _)| *d <= SUGGEST_DISTANCE)
                .min()
                .map(|(_, cand)| format!("did you mean `{cand}`?"));
            assert_eq!(names.did_you_mean(&pred), want, "query `{pred}`");
        }
    }
}
