//! Differential testing of the well-founded analysis stack.
//!
//! Three soundness contracts, each pinned against the guess-and-check
//! oracle in `support`:
//!
//! * the well-founded model **bounds** every stable model — WFM-true
//!   atoms appear in every answer set, WFM-false atoms in none, and a
//!   WFM-detected inconsistency means no answer set exists (so the chain
//!   WFM-true ⊆ cautious ⊆ brave ⊆ not-WFM-false holds);
//! * the backbone simplifier **preserves** the stable-model set exactly
//!   while never growing the program or destroying tightness;
//! * the conditional WFM keeps the same bounds under arbitrary assumption
//!   sets, including contradictory ones.
//!
//! A resident [`ConditionalWfm`], which recomputes only the forward cone
//! of the assumptions that differ from its base, must give exactly the
//! model the from-scratch computation in `support/wfm_oracle.rs` gives —
//! also when one workspace answers a whole stream of change queries.
//!
//! A fourth suite pins [`Solver::brave`] / [`Solver::cautious`] (which
//! seed from the WFM and terminate early on its bounds) to the
//! union/intersection of the oracle's answer sets, over programs with
//! choices and assumable atoms.

mod support;
#[path = "support/wfm_oracle.rs"]
mod wfm_oracle;

use std::collections::BTreeSet;

use proptest::prelude::*;

use cpsrisk_asp::analysis::wfm::Truth;
use cpsrisk_asp::ast::Atom;
use cpsrisk_asp::{
    simplify_with, well_founded, well_founded_with, ConditionalWfm, GroundProgram, Grounder, Lit,
    Program, SolveOptions, Solver,
};

/// A random program over atoms a0..a{n-1}: facts, normal rules, choices,
/// and constraints — the shapes the WFM has to approximate soundly.
fn arb_program(n_atoms: usize) -> impl Strategy<Value = String> {
    let atom = move || (0..n_atoms).prop_map(|i| format!("a{i}"));
    let body = move |max: usize| {
        prop::collection::vec((atom(), any::<bool>()), 1..max).prop_map(|lits| {
            lits.into_iter()
                .map(|(a, neg)| if neg { format!("not {a}") } else { a })
                .collect::<Vec<_>>()
                .join(", ")
        })
    };
    let rule = prop_oneof![
        atom().prop_map(|h| format!("{h}.")),
        (atom(), body(4)).prop_map(|(h, b)| format!("{h} :- {b}.")),
        body(3).prop_map(|b| format!(":- {b}.")),
        prop::collection::vec(atom(), 1..4)
            .prop_map(|atoms| format!("{{ {} }}.", atoms.join("; "))),
    ];
    prop::collection::vec(rule, 1..10).prop_map(|rules| rules.join("\n"))
}

/// A choice element over atoms a0..a{n-1}: bare, or with a positive or
/// negative guard.
fn arb_element(n_atoms: usize) -> impl Strategy<Value = String> {
    let atom = move || (0..n_atoms).prop_map(|i| format!("a{i}"));
    (atom(), 0u8..3, atom()).prop_map(|(a, guard, g)| match guard {
        0 => a,
        1 => format!("{a} : {g}"),
        _ => format!("{a} : not {g}"),
    })
}

/// [`arb_program`] plus bounded choice rules with conditional elements and
/// bodies, which ground to cardinality constraints.
fn arb_bounded_program(n_atoms: usize) -> impl Strategy<Value = String> {
    let atom = move || (0..n_atoms).prop_map(|i| format!("a{i}"));
    let bounded = (
        0u32..3,
        prop::collection::vec(arb_element(n_atoms), 1..4),
        0u32..3,
        any::<bool>(),
        atom(),
    )
        .prop_map(|(lower, elements, extra, has_body, body)| {
            let rule = format!("{lower} {{ {} }} {}", elements.join("; "), lower + extra);
            if has_body {
                format!("{rule} :- {body}.")
            } else {
                format!("{rule}.")
            }
        });
    (arb_program(n_atoms), prop::collection::vec(bounded, 0..3))
        .prop_map(|(program, bounded)| format!("{program}\n{}", bounded.join("\n")))
}

/// A program shaped like a propagation encoding: choices, and rules and
/// constraints whose bodies are mostly positive, so that many one-root
/// queries are decided and their regions overlap; plus bounded choices,
/// which ground to cardinality constraints.
fn arb_propagation_program(n_atoms: usize) -> impl Strategy<Value = String> {
    let atom = move || (0..n_atoms).prop_map(|i| format!("a{i}"));
    let body = move |max: usize| {
        prop::collection::vec((atom(), 0u8..4), 1..max).prop_map(|lits| {
            lits.into_iter()
                .map(|(a, neg)| if neg == 0 { format!("not {a}") } else { a })
                .collect::<Vec<_>>()
                .join(", ")
        })
    };
    let rule = (0u8..10, atom(), body(4)).prop_map(|(kind, h, b)| match kind {
        0..=5 => format!("{h} :- {b}."),
        6 => format!(":- {h}, {b}."),
        _ => format!("{{ {h} }}."),
    });
    // Upper bounds only: the base pins most choice atoms false, and a
    // lower bound would refute it.
    let bounded = (
        prop::collection::vec(arb_element(n_atoms), 1..4),
        0u32..3,
        atom(),
    )
        .prop_map(|(elements, upper, body)| {
            format!("{{ {} }} {upper} :- {body}.", elements.join("; "))
        });
    let rules = prop::collection::vec(rule, 1..16);
    (rules, prop::collection::vec(bounded, 0..3)).prop_map(|(mut rules, bounded)| {
        rules.extend(bounded);
        rules.join("\n")
    })
}

/// Ground with a random subset of the atom universe marked assumable, so
/// the WFM's "assumables stay undefined" rule is exercised.
fn ground_with_assumables(src: &str, assumable: &[usize]) -> GroundProgram {
    let program: Program = src.parse().expect("generated programs parse");
    let mut grounder = Grounder::new();
    for &i in assumable {
        grounder = grounder.assumable(&format!("a{i}"), 0);
    }
    grounder
        .ground(&program)
        .expect("generated programs ground")
}

fn ground(src: &str) -> GroundProgram {
    ground_with_assumables(src, &[])
}

/// Every answer set as a sorted set of atom strings, via the oracle
/// (itself pinned by the brute-force suite).
fn brute_models(g: &GroundProgram) -> Vec<BTreeSet<String>> {
    brute_models_under(g, &[])
}

/// Same, under an assumption set.
fn brute_models_under(g: &GroundProgram, lits: &[Lit]) -> Vec<BTreeSet<String>> {
    let mut models: Vec<BTreeSet<String>> = support::models(g, lits)
        .iter()
        .map(|m| m.atoms(g))
        .collect();
    models.sort();
    models
}

fn names(g: &GroundProgram, ids: impl Iterator<Item = cpsrisk_asp::AtomId>) -> BTreeSet<String> {
    ids.map(|id| g.atom(id).to_string()).collect()
}

/// Resolve `(index, polarity)` pairs against the interned atoms; atoms the
/// grounder dropped cannot be assumed and are skipped.
fn lits(g: &GroundProgram, set: &[(usize, bool)]) -> Vec<Lit> {
    set.iter()
        .filter_map(|&(i, positive)| {
            g.lookup(&Atom::prop(format!("a{i}")))
                .map(|atom| Lit { atom, positive })
        })
        .collect()
}

/// The assumption set a change query answers: `base` without its literals
/// on the atoms `changes` names, then `changes`.
fn with_changes(base: &[Lit], changes: &[Lit]) -> Vec<Lit> {
    let mut set: Vec<Lit> = (base.iter())
        .filter(|l| changes.iter().all(|c| c.atom != l.atom))
        .copied()
        .collect();
    set.extend_from_slice(changes);
    set
}

/// Change sets as the generators give them: `(atom, polarity)` pairs, and
/// whether to append a contradictory pair on the first atom.
type ChangeSets = [(Vec<(usize, bool)>, bool)];

/// One workspace answers every change query of a stream with the
/// from-scratch model. The queries the oracle refutes (contradictory pairs
/// among them) run first, so the consistent ones that follow see what they
/// left behind; the empty change set, whose region is empty, runs among
/// them.
fn check_reused_workspace(
    src: &str,
    assumable: &[usize],
    base: &[(usize, bool)],
    queries: &ChangeSets,
) -> Result<(), TestCaseError> {
    let g = ground_with_assumables(src, assumable);
    let base = lits(&g, base);
    let cond = ConditionalWfm::new(&g, &base);
    let mut stream: Vec<(Vec<Lit>, wfm_oracle::OracleWfm)> = queries
        .iter()
        .map(|(set, contradict)| {
            let mut changes = lits(&g, set);
            if *contradict {
                if let Some(&l) = changes.first() {
                    changes.push(Lit {
                        atom: l.atom,
                        positive: !l.positive,
                    });
                }
            }
            let want = wfm_oracle::well_founded_with(&g, &with_changes(&base, &changes));
            (changes, want)
        })
        .collect();
    stream.push((Vec::new(), wfm_oracle::well_founded_with(&g, &base)));
    stream.sort_by_key(|(_, want)| !want.inconsistent);
    let mut ws = cond.workspace();
    for (changes, want) in &stream {
        let model = cond.under_changes(&mut ws, changes);
        let diff = wfm_oracle::same(&model.to_result(), want);
        prop_assert!(
            diff.is_none(),
            "base {:?}, changes {:?}: {:?}, program:\n{}",
            base,
            changes,
            diff,
            src
        );
        for (i, &t) in want.truth.iter().enumerate() {
            let atom = cpsrisk_asp::AtomId(i as u32);
            prop_assert_eq!(model.value(atom), t);
            prop_assert_eq!(model.is_true(atom), t == Truth::True);
        }
        prop_assert_eq!(model.inconsistent(), want.inconsistent);
        prop_assert_eq!(model.total(), !want.truth.contains(&Truth::Undefined));
        // Outside the region the model is the base model.
        let region: BTreeSet<u32> = model.region().map(|a| a.0).collect();
        for i in (0..g.atom_count() as u32).filter(|i| !region.contains(i)) {
            let atom = cpsrisk_asp::AtomId(i);
            prop_assert_eq!(model.value(atom), cond.base().value(atom));
        }
        if changes.is_empty() {
            prop_assert!(
                region.is_empty(),
                "the base's own query has an empty region"
            );
        }
    }
    Ok(())
}

/// `(atom, polarity)` change sets, some with a contradictory pair.
fn arb_change_sets(
    n_atoms: usize,
    max: usize,
) -> impl Strategy<Value = Vec<(Vec<(usize, bool)>, bool)>> {
    prop::collection::vec(
        (
            prop::collection::vec((0..n_atoms, any::<bool>()), 0..4),
            any::<bool>(),
        ),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One reused workspace against the from-scratch oracle.
    #[test]
    fn a_reused_workspace_matches_the_from_scratch_oracle(
        src in arb_bounded_program(7),
        assumable in prop::collection::btree_set(0usize..7, 0..3),
        base in prop::collection::vec((0usize..7, any::<bool>()), 0..5),
        queries in arb_change_sets(7, 8),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        check_reused_workspace(&src, &assumable, &base, &queries)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Release depth of the reused-workspace differential: more cases,
    /// larger programs and longer streams.
    #[test]
    #[ignore = "release depth (about a second in release); run with --ignored"]
    fn a_reused_workspace_matches_the_from_scratch_oracle_at_depth(
        src in arb_bounded_program(9),
        assumable in prop::collection::btree_set(0usize..9, 0..4),
        base in prop::collection::vec((0usize..9, any::<bool>()), 0..7),
        queries in arb_change_sets(9, 16),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        check_reused_workspace(&src, &assumable, &base, &queries)?;
    }
}

/// Every root pair (and triple) whose one-root footprints compose is
/// answered by the composition exactly as `under` answers it. The base
/// pins each choice atom to the polarity `choices` gives it, then `extra`
/// pins more atoms. Every atom is a root: its query switches it on, or off
/// if the base pins it true.
fn check_composition(
    src: &str,
    assumable: &[usize],
    choices: &[u8],
    extra: &[(usize, bool)],
) -> Result<(), TestCaseError> {
    let g = ground_with_assumables(src, assumable);
    let mut base: Vec<Lit> = Vec::new();
    for r in &g.rules {
        if let cpsrisk_asp::program::GroundHead::Choice(h) = r.head {
            if base.iter().all(|l| l.atom != h) {
                let positive = choices[h.index() % choices.len()] == 0;
                base.push(Lit { atom: h, positive });
            }
        }
    }
    for l in lits(&g, extra) {
        if base.iter().all(|b| b.atom != l.atom) {
            base.push(l);
        }
    }
    let cond = ConditionalWfm::new(&g, &base);
    let mut ws = cond.workspace();
    let truth = |w: &cpsrisk_asp::WfmResult| -> Vec<Truth> {
        (0..w.len() as u32)
            .map(|i| w.value(cpsrisk_asp::AtomId(i)))
            .collect()
    };
    let base_truth = truth(cond.base());
    let mut roots = Vec::new();
    for i in 0..g.atom_count() as u32 {
        // An atom the base pins true is switched off instead: such a
        // query has no footprint.
        let mut root = Lit::pos(cpsrisk_asp::AtomId(i));
        if base.contains(&root) {
            root.positive = false;
        }
        let model = cond.under_changes(&mut ws, &[root]);
        let changed: Vec<(usize, Truth)> = (model.region())
            .filter(|&a| model.value(a) != base_truth[a.index()])
            .map(|a| (a.index(), model.value(a)))
            .collect();
        if let Some(footprint) = cond.footprint(model) {
            roots.push((root, footprint, changed));
        }
    }
    let mut sets: Vec<Vec<usize>> = Vec::new();
    for i in 0..roots.len() {
        for j in i + 1..roots.len() {
            sets.push(vec![i, j]);
            sets.extend((j + 1..roots.len()).map(|k| vec![i, j, k]));
        }
    }
    for set in sets {
        let composes = set.iter().enumerate().all(|(n, &i)| {
            set[n + 1..]
                .iter()
                .all(|&j| roots[i].1.composes_with(&roots[j].1))
        });
        if !composes {
            continue;
        }
        let changes: Vec<Lit> = set.iter().map(|&i| roots[i].0).collect();
        let mut composed = base_truth.clone();
        for &i in &set {
            for &(a, t) in &roots[i].2 {
                composed[a] = t;
            }
        }
        let want = cond.under(&with_changes(&base, &changes));
        prop_assert!(
            !want.inconsistent && want.total(),
            "base {:?}, roots {:?}: the union is not decided, program:\n{}",
            base,
            changes,
            src
        );
        prop_assert_eq!(
            &composed,
            &truth(&want),
            "base {:?}, roots {:?}, program:\n{}",
            base,
            changes,
            src
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Composed root sets against `under`.
    #[test]
    fn composed_footprints_match_the_resident_model(
        src in arb_propagation_program(7),
        assumable in prop::collection::btree_set(0usize..7, 0..3),
        choices in prop::collection::vec(0u8..4, 1..4),
        extra in prop::collection::vec((0usize..7, any::<bool>()), 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        check_composition(&src, &assumable, &choices, &extra)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Release depth of the composition differential: more cases and
    /// larger programs.
    #[test]
    #[ignore = "release depth (about a second in release); run with --ignored"]
    fn composed_footprints_match_the_resident_model_at_depth(
        src in arb_propagation_program(9),
        assumable in prop::collection::btree_set(0usize..9, 0..4),
        choices in prop::collection::vec(0u8..4, 1..5),
        extra in prop::collection::vec((0usize..9, any::<bool>()), 0..4),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        check_composition(&src, &assumable, &choices, &extra)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// WFM-true ⊆ every model, WFM-false ∩ every model = ∅, and a WFM
    /// inconsistency verdict implies there are no models at all.
    #[test]
    fn wfm_bounds_every_stable_model(
        src in arb_program(7),
        assumable in prop::collection::btree_set(0usize..7, 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let wfm = well_founded(&g);
        let models = brute_models(&g);
        if wfm.inconsistent {
            prop_assert!(models.is_empty(), "WFM refuted a satisfiable program:\n{}", src);
            return Ok(());
        }
        let wfm_true = names(&g, wfm.true_atoms());
        let wfm_false = names(&g, wfm.false_atoms());
        for m in &models {
            prop_assert!(
                wfm_true.is_subset(m),
                "WFM-true {:?} not in model {:?}, program:\n{}", wfm_true, m, src
            );
            prop_assert!(
                wfm_false.is_disjoint(m),
                "WFM-false {:?} intersects model {:?}, program:\n{}", wfm_false, m, src
            );
        }
        // A total consistent WFM pins the unique answer set exactly.
        if wfm.total() && !models.is_empty() {
            prop_assert_eq!(models.len(), 1, "total WFM, program:\n{}", src);
            prop_assert_eq!(&models[0], &wfm_true, "total WFM, program:\n{}", src);
        }
    }

    /// Simplifying against the backbone is model-preserving, never grows
    /// the rule set, and never destroys the tightness certificate.
    #[test]
    fn simplification_preserves_the_model_set(
        src in arb_program(7),
        assumable in prop::collection::btree_set(0usize..7, 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let s = simplify_with(&g, &well_founded(&g));
        prop_assert_eq!(
            brute_models(&s.program), brute_models(&g),
            "model set changed, program:\n{}", src
        );
        prop_assert!(
            s.rules_after <= s.rules_before,
            "simplification grew the program ({} -> {}):\n{}",
            s.rules_before, s.rules_after, src
        );
        prop_assert!(
            s.tight_after || !s.tight_before,
            "simplification destroyed tightness:\n{}", src
        );
    }

    /// The conditional WFM keeps the same bounds under every assumption
    /// set — including contradictory sets, where it must not claim an
    /// inconsistency that solving disproves.
    #[test]
    fn conditional_wfm_bounds_models_under_assumptions(
        src in arb_program(6),
        sets in prop::collection::vec(
            prop::collection::vec((0usize..6, any::<bool>()), 0..4),
            1..5,
        ),
    ) {
        let g = ground(&src);
        for set in &sets {
            let assumptions = lits(&g, set);
            let wfm = well_founded_with(&g, &assumptions);
            let models = brute_models_under(&g, &assumptions);
            if wfm.inconsistent {
                prop_assert!(
                    models.is_empty(),
                    "conditional WFM refuted a satisfiable query {:?}:\n{}", set, src
                );
                continue;
            }
            let wfm_true = names(&g, wfm.true_atoms());
            let wfm_false = names(&g, wfm.false_atoms());
            for m in &models {
                prop_assert!(
                    wfm_true.is_subset(m),
                    "conditional WFM-true escaped a model, query {:?}:\n{}", set, src
                );
                prop_assert!(
                    wfm_false.is_disjoint(m),
                    "conditional WFM-false entered a model, query {:?}:\n{}", set, src
                );
            }
        }
    }

    /// A resident conditional WFM answers every query set — near its base,
    /// far from it, with repeated atoms and contradictory pairs — with the
    /// from-scratch model: the same truth vector, counts and inconsistency
    /// verdict. So does `well_founded_with`, the kernel's all-atoms case.
    #[test]
    fn conditional_wfm_matches_the_from_scratch_oracle(
        src in arb_bounded_program(7),
        assumable in prop::collection::btree_set(0usize..7, 0..3),
        base in prop::collection::vec((0usize..7, any::<bool>()), 0..5),
        queries in prop::collection::vec(
            (prop::collection::vec((0usize..7, any::<bool>()), 0..5), any::<bool>(), any::<bool>()),
            1..6,
        ),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let base = lits(&g, &base);
        let cond = ConditionalWfm::new(&g, &base);
        let oracle = wfm_oracle::well_founded_with(&g, &base);
        let diff = wfm_oracle::same(cond.base(), &oracle);
        prop_assert!(diff.is_none(), "base {:?}: {:?}, program:\n{}", base, diff, src);
        for (set, from_base, contradict) in &queries {
            // Half the queries perturb the base, half replace it.
            let mut q = if *from_base { base.clone() } else { Vec::new() };
            q.extend(lits(&g, set));
            if *contradict {
                if let Some(&l) = q.first() {
                    q.push(Lit { atom: l.atom, positive: !l.positive });
                    q.push(l);
                }
            }
            let want = wfm_oracle::well_founded_with(&g, &q);
            let diff = wfm_oracle::same(&cond.under(&q), &want);
            prop_assert!(diff.is_none(), "base {:?}, query {:?}: {:?}, program:\n{}", base, q, diff, src);
            let diff = wfm_oracle::same(&well_founded_with(&g, &q), &want);
            prop_assert!(diff.is_none(), "query {:?}: {:?}, program:\n{}", q, diff, src);
        }
    }

    /// `brave()` / `cautious()` — which seed from the WFM and cut the
    /// enumeration short on its bounds — equal the union / intersection
    /// of the brute-forced answer sets (both empty when no answer set
    /// exists).
    #[test]
    fn brave_and_cautious_match_brute_force(
        src in arb_program(6),
        assumable in prop::collection::btree_set(0usize..6, 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let models = brute_models(&g);
        let union: BTreeSet<String> = models.iter().flatten().cloned().collect();
        let intersection: BTreeSet<String> = models
            .first()
            .map(|first| {
                models[1..]
                    .iter()
                    .fold(first.clone(), |acc, m| acc.intersection(m).cloned().collect())
            })
            .unwrap_or_default();
        let opts = SolveOptions::default();
        let brave: BTreeSet<String> = Solver::new(&g)
            .brave(&opts)
            .expect("within budget")
            .iter()
            .map(ToString::to_string)
            .collect();
        let cautious: BTreeSet<String> = Solver::new(&g)
            .cautious(&opts)
            .expect("within budget")
            .iter()
            .map(ToString::to_string)
            .collect();
        prop_assert_eq!(&brave, &union, "brave vs union, program:\n{}", src);
        prop_assert_eq!(&cautious, &intersection, "cautious vs intersection, program:\n{}", src);
        // The approximation chain the module docs promise.
        let wfm = well_founded(&g);
        if !wfm.inconsistent && !models.is_empty() {
            prop_assert!(names(&g, wfm.true_atoms()).is_subset(&cautious), "program:\n{}", src);
            prop_assert!(names(&g, wfm.false_atoms()).is_disjoint(&brave), "program:\n{}", src);
        }
    }
}
