//! The incremental grounding-size prediction against the full recompute
//! it replaced, on the EPA crate's own program families: the temporal
//! tank unrolling, the UNSAT adversarial file, and the catalog plants
//! under every encoding. Every `f64` of the prediction must be identical.

#[path = "../../asp/tests/support/size_oracle.rs"]
mod size_oracle;

use cpsrisk_asp::{predict_sizes, Program};
use cpsrisk_epa::workload::{adversarial_needed, adversarial_problem, catalog_problem};
use cpsrisk_epa::{encode, temporal_tank_problem, EncodeMode, Scenario};

fn assert_same(program: &Program, label: &str) {
    let fast = predict_sizes(program);
    let oracle = size_oracle::predict_sizes(program);
    assert!(
        size_oracle::same(&fast, &oracle),
        "{label}: incremental {fast:?}\nfull recompute {oracle:?}"
    );
}

#[test]
fn temporal_tank_predictions_match_the_full_recompute() {
    for horizon in [8, 64] {
        assert_same(
            &temporal_tank_problem(horizon),
            &format!("temporal_tank_problem({horizon})"),
        );
    }
}

#[test]
fn adversarial_prediction_matches_the_full_recompute() {
    let n = 33;
    assert_same(
        &adversarial_problem(n, adversarial_needed(n) - 1),
        "adversarial_problem(33)",
    );
}

#[test]
fn catalog_predictions_match_the_full_recompute_in_every_mode() {
    let modes = [
        EncodeMode::Fixed(Scenario::nominal()),
        EncodeMode::Exhaustive { max_faults: None },
        EncodeMode::Exhaustive {
            max_faults: Some(2),
        },
        EncodeMode::Assumable,
        EncodeMode::Contested { budget: 2 },
    ];
    for seed in [0xC47A, 1, 2] {
        let problem = catalog_problem(34, 4, seed);
        for mode in &modes {
            assert_same(
                &encode(&problem, mode),
                &format!("catalog_problem(34, 4, {seed:#x}) under {mode:?}"),
            );
        }
    }
}
