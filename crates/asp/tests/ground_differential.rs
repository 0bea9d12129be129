//! Determinism of the semi-naive grounder: single-thread and multi-thread
//! instantiation must produce *bit-identical* ground programs on randomly
//! generated non-ground programs covering joins, recursion, negation,
//! arithmetic `=` binding, choice heads with conditions, and `#minimize`.
//!
//! The semi-naive vs naive-oracle proptests over the same generator live
//! next to the oracle, in the crate's `ground::naive` unit tests. The same
//! generator also pins the incremental size prediction (which picks the
//! grounder's thread count) to its full-recompute oracle.

#[path = "support/size_oracle.rs"]
mod size_oracle;

use proptest::prelude::*;

use cpsrisk_asp::{GroundProgram, Grounder, Program};

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
        (b(), b())
            .prop_map(|(p, q)| format!("e(X,Y) :- {p}(X,N), {q}(Y,N). e(X,Z) :- e(X,Y), e(Y,Z).")),
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

fn parse(src: &str) -> Program {
    src.parse().expect("generated programs parse")
}

/// Exact structural equality (atom ids included) — the determinism bar for
/// thread-count variations of the same engine.
fn assert_identical(a: &GroundProgram, b: &GroundProgram, label: &str) {
    let atoms_a: Vec<_> = a.atoms().map(|(_, at)| at.clone()).collect();
    let atoms_b: Vec<_> = b.atoms().map(|(_, at)| at.clone()).collect();
    assert_eq!(atoms_a, atoms_b, "{label}: atom arena");
    assert_eq!(a.rules, b.rules, "{label}: rules");
    assert_eq!(a.cards, b.cards, "{label}: cards");
    assert_eq!(a.minimize, b.minimize, "{label}: minimize");
    assert_eq!(a.shows, b.shows, "{label}: shows");
    assert_eq!(a.assumable, b.assumable, "{label}: assumable");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn thread_counts_are_bit_identical(src in arb_program()) {
        let p = parse(&src);
        let single = Grounder::new().with_threads(1).ground(&p).expect("grounds");
        for threads in [2, 4] {
            let multi = Grounder::new()
                .with_threads(threads)
                .ground(&p)
                .expect("grounds");
            assert_identical(&single, &multi, &format!("threads=1 vs {threads}"));
        }
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
