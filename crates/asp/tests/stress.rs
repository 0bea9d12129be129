//! Stress tests: classic combinatorial encodings through the full
//! parse → ground → solve pipeline, with known solution counts.

use cpsrisk_asp::lint::lint_source;
use cpsrisk_asp::{
    Atom, Grounder, Head, Literal, Program, Rule, SolveOptions, Solver, Statement, Term,
};

fn count_models(src: &str) -> usize {
    let program: Program = src.parse().expect("parses");
    let ground = Grounder::new().ground(&program).expect("grounds");
    let mut solver = Solver::new(&ground);
    let result = solver.enumerate(&SolveOptions::default()).expect("solves");
    assert!(result.exhausted);
    result.models.len()
}

#[test]
fn n_queens_has_known_solution_counts() {
    // Classic encoding: one queen per row, no shared column/diagonal.
    let encode = |n: i64| {
        format!(
            "row(1..{n}). col(1..{n}). \
             1 {{ queen(R, C) : col(C) }} 1 :- row(R). \
             :- queen(R1, C), queen(R2, C), R1 < R2. \
             :- queen(R1, C1), queen(R2, C2), R1 < R2, C1 != C2, R2 - R1 = C2 - C1. \
             :- queen(R1, C1), queen(R2, C2), R1 < R2, C1 != C2, R2 - R1 = C1 - C2."
        )
    };
    assert_eq!(count_models(&encode(4)), 2);
    assert_eq!(count_models(&encode(5)), 10);
    assert_eq!(count_models(&encode(6)), 4);
}

#[test]
fn graph_three_coloring_counts() {
    // A 4-cycle has 3 * 2 * (3-2)... known: chromatic polynomial of C4 at
    // k=3 is (k-1)^4 + (k-1) = 16 + 2 = 18.
    let src = "node(1..4). edge(1,2). edge(2,3). edge(3,4). edge(4,1). \
               color(r). color(g). color(b). \
               1 { assign(N, C) : color(C) } 1 :- node(N). \
               :- edge(X, Y), assign(X, C), assign(Y, C).";
    assert_eq!(count_models(src), 18);
}

#[test]
fn hamiltonian_cycles_of_k4() {
    // K4 has 3 undirected Hamiltonian cycles = 6 directed ones; with a
    // fixed start the count is 6 (each directed cycle counted once).
    let src = "node(1..4). \
               edge(X, Y) :- node(X), node(Y), X != Y. \
               1 { next(X, Y) : edge(X, Y) } 1 :- node(X). \
               1 { next(X, Y) : edge(X, Y) } 1 :- node(Y). \
               reach(1). \
               reach(Y) :- reach(X), next(X, Y). \
               :- node(X), not reach(X).";
    assert_eq!(count_models(src), 6);
}

#[test]
fn transitive_closure_on_a_chain_is_deterministic_and_complete() {
    let n = 20;
    let mut src = String::new();
    for i in 1..n {
        src.push_str(&format!("edge({i},{}). ", i + 1));
    }
    src.push_str("path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).");
    let program: Program = src.parse().unwrap();
    let models = program.solve().unwrap();
    assert_eq!(models.len(), 1);
    let paths = models[0].atoms_of("path").len();
    assert_eq!(paths, (n - 1) * n / 2, "all ordered pairs on the chain");
}

#[test]
fn optimization_on_a_weighted_selection_grid() {
    // Pick exactly 3 of 8 items minimizing total weight; weights 1..8 →
    // optimal cost 1+2+3 = 6.
    let src = "item(1..8). weight(I, I) :- item(I). \
               3 { pick(I) : item(I) } 3. \
               #minimize { W,I : pick(I), weight(I, W) }.";
    let program: Program = src.parse().unwrap();
    let ground = Grounder::new().ground(&program).unwrap();
    let mut solver = Solver::new(&ground);
    let best = solver.optimize(&SolveOptions::default()).unwrap().unwrap();
    assert_eq!(best.cost, vec![(0, 6)]);
    for i in [1, 2, 3] {
        assert!(best.contains_str(&format!("pick({i})")));
    }
}

#[test]
fn deep_stratified_negation_chain() {
    // p1 :- not p0. p2 :- not p1. … alternating truth values.
    let mut src = String::from("p0.");
    for i in 1..30 {
        src.push_str(&format!(" p{i} :- not p{}.", i - 1));
    }
    let program: Program = src.parse().unwrap();
    let models = program.solve().unwrap();
    assert_eq!(models.len(), 1);
    let m = &models[0];
    for i in 0..30 {
        assert_eq!(m.contains_str(&format!("p{i}")), i % 2 == 0, "p{i}");
    }
}

#[test]
fn wide_choice_with_budgeted_enumeration_cap() {
    // 2^14 models exist; cap enumeration and confirm early stop.
    let atoms: Vec<String> = (0..14).map(|i| format!("a{i}")).collect();
    let src = format!("{{ {} }}.", atoms.join("; "));
    let program: Program = src.parse().unwrap();
    let ground = Grounder::new().ground(&program).unwrap();
    let mut solver = Solver::new(&ground);
    let result = solver
        .enumerate(&SolveOptions {
            max_models: 100,
            ..SolveOptions::default()
        })
        .unwrap();
    assert_eq!(result.models.len(), 100);
    assert!(!result.exhausted);
}

#[test]
fn long_predicate_chain_grounds_on_a_small_stack() {
    // p0(a). p{i}(X) :- p{i-1}(X). — 50,000 predicates, one SCC each, so
    // a recursive SCC pass nests 50,000 frames deep. Built from
    // statements.
    const N: usize = 50_000;
    let x = || vec![Term::var("X")];
    let fact = Rule::fact(Atom::new("p0", vec![Term::sym("a")]));
    let rules = (1..N).map(|i| Rule {
        head: Head::Atom(Atom::new(format!("p{i}"), x())),
        body: vec![Literal::Pos(Atom::new(format!("p{}", i - 1), x()))],
    });
    let program = Program {
        statements: std::iter::once(fact)
            .chain(rules)
            .map(Statement::Rule)
            .collect(),
    };
    // A 2 MiB stack, the default for spawned threads.
    let ground = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || Grounder::new().ground(&program))
        .expect("spawns")
        .join()
        .expect("grounding thread finishes")
        .expect("grounds");
    assert_eq!(ground.atom_count(), N);
    let last = Atom::new(format!("p{}", N - 1), vec![Term::sym("a")]);
    assert!(ground.lookup(&last).is_some(), "the chain reaches its end");
}

/// Lint one generated program of `n` lines and return the codes of its
/// diagnostics.
fn lint_codes(n: usize, line: impl Fn(usize) -> String) -> Vec<String> {
    let src: String = (0..n).map(|i| line(i) + "\n").collect();
    lint_source(&src).into_iter().map(|d| d.code).collect()
}

#[test]
fn hostile_programs_lint_in_linear_time() {
    const N: usize = 20_000;
    // One undefined predicate negated on every line: a single A008 with
    // its suggestion (`q` is two edits from `r0`).
    let neg = lint_source(
        &(0..N)
            .map(|i| format!("r{i} :- not q.\n"))
            .collect::<String>(),
    );
    assert_eq!(neg.len(), 1, "{:?}", &neg[..neg.len().min(3)]);
    assert_eq!(neg[0].code, "A008");
    assert_eq!(neg[0].suggestion.as_deref(), Some("did you mean `r0`?"));
    // A distinct undefined predicate on every line: one A001 each, every
    // one of them looked up against 20,000 defined names.
    let pos = lint_codes(N, |i| format!("r{i} :- q{i}."));
    assert_eq!(pos.len(), N);
    assert!(pos.iter().all(|c| c == "A001"));
}
