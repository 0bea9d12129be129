//! Dependency analysis: predicate dependency graph, SCC stratification,
//! positive-loop detection, and tightness classification.
//!
//! Two levels of precision:
//!
//! * **Predicate level** ([`analyze_dependencies`]): cheap, source-based.
//!   A program with no predicate-level positive loop is tight however it
//!   grounds, but the converse fails — `holds(F, T+1) :- holds(F, T)` is
//!   predicate-recursive yet every unrolling is acyclic.
//! * **Atom level** ([`unfounded_cone`], [`ground_tight`]): exact on the
//!   ground program. The cone is what [`Solver`](crate::solve::Solver)
//!   restricts its unfounded-set closure to; an empty cone is the
//!   tightness certificate that lets it skip the closure (Fages' theorem).

use std::collections::{BTreeSet, HashMap};

use crate::ast::{Head, Literal, Program, Statement};
use crate::program::{AtomId, GroundHead, GroundProgram};

/// Every `head -> body` predicate dependency, with negation marking.
/// Choice-element conditions count as body dependencies of the element.
#[must_use]
pub fn dependency_edges(program: &Program) -> Vec<(String, String, bool)> {
    let mut edges = Vec::new();
    for stmt in &program.statements {
        let Statement::Rule(rule) = stmt else {
            continue;
        };
        let mut heads: Vec<String> = Vec::new();
        match &rule.head {
            Head::Atom(a) => heads.push(a.pred.clone()),
            Head::Choice { elements, .. } => {
                for e in elements {
                    heads.push(e.atom.pred.clone());
                    for lit in &e.condition {
                        push_edge(&mut edges, &e.atom.pred, lit);
                    }
                }
            }
            Head::None => {}
        }
        for h in &heads {
            for lit in &rule.body {
                push_edge(&mut edges, h, lit);
            }
        }
    }
    edges
}

fn push_edge(edges: &mut Vec<(String, String, bool)>, head: &str, lit: &Literal) {
    match lit {
        Literal::Pos(a) => edges.push((head.to_owned(), a.pred.clone(), false)),
        Literal::Neg(a) => edges.push((head.to_owned(), a.pred.clone(), true)),
        Literal::Cmp(..) => {}
    }
}

/// Iterative Tarjan SCC; returns the component id of every node.
///
/// Component ids come out in **reverse topological order** of the
/// condensation: for an edge `u -> v` between different components,
/// `comp[v] < comp[u]` — ascending ids visit dependencies first.
#[must_use]
pub fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let (mut index, mut comp_count) = (0usize, 0usize);
    let mut idx = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut comp = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    // Explicit call stack: (node, next child position).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if idx[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child == 0 {
                idx[v] = index;
                low[v] = index;
                index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*child) {
                *child += 1;
                if idx[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(idx[w]);
                }
            } else {
                if low[v] == idx[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    comp
}

/// Predicate-level dependency structure of a non-ground program.
#[derive(Debug, Clone)]
pub struct DepAnalysis {
    /// Every predicate appearing in a rule head or body, sorted.
    pub preds: Vec<String>,
    /// Component id per predicate (parallel to `preds`); ascending ids
    /// visit dependencies before dependents.
    pub comp: Vec<usize>,
    /// Members of each strongly connected component, in component-id
    /// order; members sorted by name.
    pub components: Vec<Vec<String>>,
    /// Stratum per component (0 = bottom). Meaningful when `stratified`;
    /// negative edges inside a component make the labelling partial.
    pub strata: Vec<usize>,
    /// Number of strata (`max stratum + 1`; 0 for an empty program).
    pub stratum_count: usize,
    /// No component contains an internal negative edge.
    pub stratified: bool,
    /// Components with an internal positive edge — predicate-level
    /// recursion (includes self-loops).
    pub positive_loops: Vec<Vec<String>>,
    /// Components with both an internal positive **and** an internal
    /// negative edge: non-tight loops through negation (lint `A011`).
    pub neg_positive_loops: Vec<Vec<String>>,
    /// No positive loop at the predicate level. Sufficient (not
    /// necessary) for ground tightness — see [`ground_tight`] for the
    /// exact certificate.
    pub pred_tight: bool,
}

/// Compute the predicate dependency graph, its SCCs in dependency order,
/// the stratification, and the loop/tightness classification.
#[must_use]
pub fn analyze_dependencies(program: &Program) -> DepAnalysis {
    let edges = dependency_edges(program);
    let mut pred_set: BTreeSet<&str> = BTreeSet::new();
    for (h, b, _) in &edges {
        pred_set.insert(h);
        pred_set.insert(b);
    }
    // Predicates that only appear as facts still belong to the vertex set.
    for stmt in &program.statements {
        if let Statement::Rule(rule) = stmt {
            match &rule.head {
                Head::Atom(a) => {
                    pred_set.insert(&a.pred);
                }
                Head::Choice { elements, .. } => {
                    for e in elements {
                        pred_set.insert(&e.atom.pred);
                    }
                }
                Head::None => {}
            }
        }
    }
    let preds: Vec<String> = pred_set.iter().map(|s| (*s).to_owned()).collect();
    let index: HashMap<&str, usize> = preds
        .iter()
        .enumerate()
        .map(|(i, p)| (p.as_str(), i))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); preds.len()];
    for (h, b, _) in &edges {
        adj[index[h.as_str()]].push(index[b.as_str()]);
    }
    let comp = tarjan_scc(&adj);
    let comp_count = comp.iter().copied().max().map_or(0, |m| m + 1);
    let mut components: Vec<Vec<String>> = vec![Vec::new(); comp_count];
    for (i, &c) in comp.iter().enumerate() {
        components[c].push(preds[i].clone());
    }

    // Internal edge classification per component.
    let mut has_pos = vec![false; comp_count];
    let mut has_neg = vec![false; comp_count];
    let mut strata = vec![0usize; comp_count];
    let mut stratified = true;
    for (h, b, neg) in &edges {
        let (ch, cb) = (comp[index[h.as_str()]], comp[index[b.as_str()]]);
        if ch == cb {
            if *neg {
                has_neg[ch] = true;
                stratified = false;
            } else {
                has_pos[ch] = true;
            }
        }
    }
    // Strata over the condensation: dependencies carry lower component
    // ids, so one ascending sweep reaches the fixpoint.
    for (h, b, neg) in &edges {
        let (ch, cb) = (comp[index[h.as_str()]], comp[index[b.as_str()]]);
        if ch != cb {
            strata[ch] = strata[ch].max(strata[cb] + usize::from(*neg));
        }
    }
    let stratum_count = strata.iter().copied().max().map_or(0, |m| m + 1);

    let positive_loops: Vec<Vec<String>> = (0..comp_count)
        .filter(|&c| has_pos[c])
        .map(|c| components[c].clone())
        .collect();
    let neg_positive_loops: Vec<Vec<String>> = (0..comp_count)
        .filter(|&c| has_pos[c] && has_neg[c])
        .map(|c| components[c].clone())
        .collect();
    let pred_tight = positive_loops.is_empty();
    DepAnalysis {
        preds,
        comp,
        components,
        strata,
        stratum_count,
        stratified,
        positive_loops,
        neg_positive_loops,
        pred_tight,
    }
}

/// Is the ground program *tight* — is the atom-level positive dependency
/// graph (rule head to positive body atoms, over normal and choice rules)
/// acyclic? Exactly when its [`unfounded_cone`] is empty.
///
/// On a tight program every supported model is stable (Fages' theorem),
/// so the solver's incremental support accounting reaches exactly the
/// unfounded-set fixpoint and the closure can be skipped.
#[must_use]
pub fn ground_tight(g: &GroundProgram) -> bool {
    unfounded_cone(g).is_empty()
}

/// The *unfounded cone* of a ground program, in ascending id order: every
/// atom on a cycle of the positive dependency graph, and every atom
/// positively derived from one (over normal and choice rules).
///
/// Only these atoms can belong to an unfounded set that support alone does
/// not refute: an atom outside the cone rests, through its positive
/// bodies, on atoms outside the cone, down to bodies with no positive
/// atom. Kahn's algorithm on the body-to-head edges drains exactly the
/// atoms outside the cone.
#[must_use]
pub fn unfounded_cone(g: &GroundProgram) -> Vec<AtomId> {
    let n = g.atom_count();
    // CSR of the body-to-head edges, one per positive body occurrence.
    let mut start = vec![0u32; n + 1];
    let mut indeg = vec![0u32; n];
    let heads = || {
        g.rules.iter().filter_map(|r| match r.head {
            GroundHead::Atom(h) | GroundHead::Choice(h) => Some((h, &r.pos)),
            GroundHead::None => None,
        })
    };
    for (h, pos) in heads() {
        for &p in pos {
            start[p.index() + 1] += 1;
            indeg[h.index()] += 1;
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut succ = vec![0u32; start[n] as usize];
    for (h, pos) in heads() {
        for &p in pos {
            succ[fill[p.index()] as usize] = h.0;
            fill[p.index()] += 1;
        }
    }
    let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    while let Some(v) = queue.pop() {
        for &w in &succ[start[v as usize] as usize..start[v as usize + 1] as usize] {
            indeg[w as usize] -= 1;
            if indeg[w as usize] == 0 {
                queue.push(w);
            }
        }
    }
    (0..n as u32)
        .filter(|&i| indeg[i as usize] > 0)
        .map(AtomId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parse;

    fn analyze(src: &str) -> DepAnalysis {
        analyze_dependencies(&parse(src).unwrap())
    }

    #[test]
    fn stratified_program_gets_layered_strata() {
        let a = analyze("p(a). q(X) :- p(X). r(X) :- q(X), not s(X). s(b).");
        assert!(a.stratified);
        assert!(a.pred_tight);
        assert!(a.positive_loops.is_empty());
        // r sits strictly above s (negative edge) and above q.
        let comp_of = |name: &str| a.comp[a.preds.iter().position(|p| p == name).unwrap()];
        assert!(a.strata[comp_of("r")] > a.strata[comp_of("s")]);
        assert!(a.strata[comp_of("r")] > a.strata[comp_of("q")]);
        assert_eq!(a.strata[comp_of("p")], 0);
        assert!(a.stratum_count >= 2);
    }

    #[test]
    fn positive_recursion_is_a_loop_but_stratified() {
        let a = analyze("e(a,b). e(X,Z) :- e(X,Y), e(Y,Z).");
        assert!(a.stratified);
        assert!(!a.pred_tight);
        assert_eq!(a.positive_loops, vec![vec!["e".to_owned()]]);
        assert!(a.neg_positive_loops.is_empty(), "no negation in the loop");
    }

    #[test]
    fn negation_cycle_breaks_stratification() {
        let a = analyze("a :- not b. b :- not a.");
        assert!(!a.stratified);
        assert!(a.pred_tight, "even loops have no positive edge");
        assert!(a.neg_positive_loops.is_empty());
    }

    #[test]
    fn non_tight_loop_through_negation_is_classified() {
        let a = analyze("a :- a, not b. b :- not a.");
        assert!(!a.stratified);
        assert!(!a.pred_tight);
        assert_eq!(
            a.neg_positive_loops,
            vec![vec!["a".to_owned(), "b".to_owned()]]
        );
    }

    #[test]
    fn components_come_out_dependencies_first() {
        let a = analyze("p(a). q(X) :- p(X). r(X) :- q(X).");
        let comp_of = |name: &str| a.comp[a.preds.iter().position(|p| p == name).unwrap()];
        assert!(comp_of("p") < comp_of("q"));
        assert!(comp_of("q") < comp_of("r"));
    }

    #[test]
    fn ground_tightness_is_atom_level() {
        // Predicate-recursive but every ground instance steps forward in
        // time: ground-tight.
        let temporal = "time(0). time(1). time(2). holds(0). \
                        holds(T) :- holds(S), time(T), time(S), T = S + 1.";
        let g = Grounder::new().ground(&parse(temporal).unwrap()).unwrap();
        assert!(ground_tight(&g));
        let a = analyze(temporal);
        assert!(!a.pred_tight, "predicate level over-approximates");

        // A genuine ground positive loop (seeded through a choice so the
        // grounder cannot drop it as underivable).
        let loopy = Grounder::new()
            .ground(&parse("{ x }. a :- x. a :- b. b :- a.").unwrap())
            .unwrap();
        assert!(!ground_tight(&loopy));

        // Self-supporting choice counts too.
        let choice = Grounder::new()
            .ground(&parse("{ a }. { a } :- a.").unwrap())
            .unwrap();
        assert!(!ground_tight(&choice));
    }

    #[test]
    fn the_cone_is_the_loops_and_what_they_derive() {
        let g = Grounder::new()
            .ground(&parse("{ x }. a :- x. a :- b. b :- a. c :- b. d :- x. e :- d, c.").unwrap())
            .unwrap();
        let names: Vec<String> = unfounded_cone(&g)
            .into_iter()
            .map(|id| g.atom(id).to_string())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, ["a", "b", "c", "e"], "x and d rest on no loop");
        let ids: Vec<AtomId> = unfounded_cone(&g);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending ids");
    }
}
