//! Differential testing: the analysis passes against the engines they feed.
//!
//! Three suites pin the semantic analyses to observable solver behavior on
//! randomly generated programs:
//!
//! * **slicing** — grounding with [`Grounder::with_slicing`] under a random
//!   `#show` footprint must preserve the model count, the multiset of shown
//!   projections, and optimal costs (both judged by the guess-and-check
//!   oracle in `support`);
//! * **tight fast path** — the solver, which skips the unfounded-set
//!   closure whenever the ground program is tight, must enumerate exactly
//!   the oracle's answer sets, whose stability check runs that closure;
//! * **tightness certificate** — predicate-level tightness must imply the
//!   ground certificate, and the certificate must match what the solver
//!   reports;
//! * **size prediction** — the incremental fixpoint of
//!   [`predict_sizes`](cpsrisk_asp::predict_sizes) must equal the full
//!   recompute in `support/size_oracle.rs`, every `f64` bit for bit.

#[path = "support/size_oracle.rs"]
mod size_oracle;
mod support;

use proptest::prelude::*;

use cpsrisk_asp::analysis::{analyze_dependencies, ground_tight};
use cpsrisk_asp::{GroundProgram, Grounder, Program, SolveOptions, Solver};

/// Random statements over a small universe mirroring the grounder's
/// differential suite: unary/binary facts, derived predicates, arithmetic
/// bindings, a recursive closure, choices, constraints, and `#minimize`.
fn arb_statement() -> impl Strategy<Value = String> {
    let con = || (0..4usize).prop_map(|i| format!("c{i}"));
    let num = || 1..=4i64;
    let u = || (0..2usize).prop_map(|i| format!("u{i}"));
    let b = || (0..2usize).prop_map(|i| format!("b{i}"));
    let d = || (0..2usize).prop_map(|i| format!("d{i}"));
    prop_oneof![
        (u(), con()).prop_map(|(p, c)| format!("{p}({c}).")),
        (b(), con(), num()).prop_map(|(p, c, n)| format!("{p}({c},{n}).")),
        (d(), u()).prop_map(|(h, p)| format!("{h}(X) :- {p}(X).")),
        (d(), u(), b(), num())
            .prop_map(|(h, p, q, n)| format!("{h}(X) :- {p}(X), {q}(X,N), N >= {n}.")),
        (d(), u(), d()).prop_map(|(h, p, n)| format!("{h}(X) :- {p}(X), not {n}(X).")),
        (b(), num()).prop_map(|(q, m)| format!("v(Z) :- {q}(X,N), Z = N + {m}.")),
        (b(), b())
            .prop_map(|(p, q)| format!("e(X,Y) :- {p}(X,N), {q}(Y,N). e(X,Z) :- e(X,Y), e(Y,Z).")),
        (u(), 0..=2u32).prop_map(|(p, ub)| match ub {
            0 => format!("{{ pick(X) : {p}(X) }}."),
            ub => format!("{{ pick(X) : {p}(X) }} {ub}."),
        }),
        (u(),).prop_map(|(p,)| format!(":- pick(X), not {p}(X).")),
        (b(),).prop_map(|(q,)| format!("#minimize {{ N,X : {q}(X,N), pick(X) }}.")),
    ]
}

/// A random `#show` footprint: any subset of the signatures the statement
/// templates can define. An empty subset leaves slicing a no-op, which the
/// slicing suite must also survive.
fn arb_shows() -> impl Strategy<Value = String> {
    let sigs = ["d0/1", "d1/1", "v/1", "pick/1", "e/2", "u0/1"];
    prop::collection::vec(0..sigs.len(), 0..4).prop_map(move |picked| {
        let mut out: Vec<&str> = picked.iter().map(|&i| sigs[i]).collect();
        out.sort_unstable();
        out.dedup();
        out.iter()
            .map(|s| format!("#show {s}."))
            .collect::<Vec<_>>()
            .join(" ")
    })
}

fn arb_program() -> impl Strategy<Value = String> {
    (prop::collection::vec(arb_statement(), 2..10), arb_shows())
        .prop_map(|(stmts, shows)| format!("{}\n{shows}", stmts.join("\n")))
}

fn parse(src: &str) -> Program {
    src.parse().expect("generated programs parse")
}

/// Sorted rendering of every model's full atom set plus the exhausted flag.
fn models(solver: &mut Solver, opts: &SolveOptions) -> (Vec<String>, bool) {
    let result = solver.enumerate(opts).expect("within budget");
    let mut out: Vec<String> = result
        .models
        .iter()
        .map(|m| {
            m.atoms
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    out.sort();
    (out, result.exhausted)
}

/// Sorted multiset of shown projections — the observable a slice must
/// preserve even while it drops atoms from the full models.
fn projections(g: &GroundProgram) -> Vec<String> {
    let mut out: Vec<String> = support::models(g, &[])
        .iter()
        .map(|m| m.render_shown(g))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sliced_grounding_preserves_the_observable_semantics(src in arb_program()) {
        let p = parse(&src);
        let full = Grounder::new().ground(&p).expect("grounds");
        let sliced = Grounder::new().with_slicing(true).ground(&p).expect("grounds sliced");
        prop_assert!(
            sliced.rules.len() <= full.rules.len(),
            "a slice never grows the grounding, program:\n{}", src
        );
        let want = projections(&full);
        let got = projections(&sliced);
        prop_assert_eq!(&got, &want, "shown projections, program:\n{}", src);
        prop_assert_eq!(got.len(), want.len(), "model count, program:\n{}", src);
        // Optimal costs survive too: slicing must never touch #minimize.
        prop_assert_eq!(
            support::optimum(&sliced, &[]), support::optimum(&full, &[]),
            "cost, program:\n{}", src
        );
        // The solver sees the sliced program exactly as the oracle does.
        let best = Solver::new(&sliced)
            .optimize(&SolveOptions::default())
            .expect("within budget");
        prop_assert_eq!(
            best.map(|m| m.cost), support::optimum(&sliced, &[]),
            "solver cost on the slice, program:\n{}", src
        );
    }

    #[test]
    fn tight_mode_matches_the_unfounded_closure_and_the_reference(src in arb_program()) {
        let p = parse(&src);
        let g = Grounder::new().ground(&p).expect("grounds");
        let (fast, exhausted) = models(&mut Solver::new(&g), &SolveOptions::default());
        prop_assert_eq!(&fast, &support::rendered(&g, &[]), "program:\n{}", src);
        prop_assert!(exhausted, "exhausted flag, program:\n{}", src);
    }

    #[test]
    fn tightness_certificates_are_consistent_across_layers(src in arb_program()) {
        let p = parse(&src);
        let deps = analyze_dependencies(&p);
        let g = Grounder::new().ground(&p).expect("grounds");
        let ground_cert = ground_tight(&g);
        // Predicate-level tightness over-approximates the ground positive
        // dependency graph: it may miss tight groundings of recursive
        // programs but never the converse.
        if deps.pred_tight {
            prop_assert!(ground_cert, "pred-tight program ground non-tight:\n{src}");
        }
        // The solver carries exactly the ground certificate.
        prop_assert_eq!(Solver::new(&g).tight(), ground_cert, "program:\n{}", src);
    }

    #[test]
    fn size_prediction_matches_the_full_recompute(src in arb_program()) {
        let p = parse(&src);
        let fast = cpsrisk_asp::predict_sizes(&p);
        let oracle = size_oracle::predict_sizes(&p);
        prop_assert!(
            size_oracle::same(&fast, &oracle),
            "incremental {:?}\nfull recompute {:?}\nprogram:\n{}", fast, oracle, src
        );
    }
}

/// A time-capped counter keeps growing past the fixpoint's step limit, so
/// the prediction force-saturates whatever still moves. Around a cap of 63
/// the counter itself settles on the last step while the predicates
/// reading it still move; the extra constants keep their saturated bound
/// (the universe) apart from the bound their next step would give.
#[test]
fn size_prediction_matches_the_full_recompute_when_cut_short() {
    for cap in 56..=70 {
        for readers in [
            "",
            "after(T) :- holds(T).",
            "after(T) :- holds(T). late(T) :- after(T).",
        ] {
            let src = format!(
                "c(a). c(b). c(d). time(0..{cap}). holds(0). \
                 holds(T) :- holds(S), time(T), T = S + 1. {readers}"
            );
            let p = parse(&src);
            let fast = cpsrisk_asp::predict_sizes(&p);
            let oracle = size_oracle::predict_sizes(&p);
            assert!(
                size_oracle::same(&fast, &oracle),
                "incremental {fast:?}\nfull recompute {oracle:?}\nprogram:\n{src}"
            );
        }
    }
}
