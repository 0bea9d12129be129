//! The resident horizon sweep must agree with from-scratch checking at
//! every horizon, and find the analytically known minimal violating
//! horizon of the tank workload.

use cpsrisk_epa::{
    check_horizon_scratch, check_horizon_sweep, temporal_tank_base, temporal_tank_min_violating,
    temporal_tank_requirements, temporal_tank_step, HorizonSession,
};

#[test]
fn sweep_matches_scratch_at_every_horizon() {
    let limit = 12;
    let base = temporal_tank_base(limit);
    let reqs = temporal_tank_requirements();
    let report = check_horizon_sweep(&base, temporal_tank_step, &reqs, 2..=12).expect("sweep");
    assert_eq!(report.rows.len(), 11);
    for row in &report.rows {
        let scratch =
            check_horizon_scratch(&base, temporal_tank_step, &reqs, row.horizon).expect("scratch");
        assert_eq!(
            row.verdicts, scratch,
            "incremental and from-scratch verdicts diverge at h={}",
            row.horizon
        );
    }
    assert_eq!(
        report.min_violating,
        Some(temporal_tank_min_violating(limit)),
        "minimal violating horizon"
    );
    assert_eq!(report.slice_atoms.len(), 10, "one slice per extension");
    // Per-slice growth must be bounded: no extension may ground more than
    // a small multiple of the smallest extension.
    let min = report
        .slice_atoms
        .iter()
        .copied()
        .min()
        .expect("extensions");
    let max = report
        .slice_atoms
        .iter()
        .copied()
        .max()
        .expect("extensions");
    assert!(
        max <= 2 * min + 8,
        "slice growth not bounded: min {min}, max {max} ({:?})",
        report.slice_atoms
    );
}

#[test]
fn later_horizons_recover_and_other_tanks_violate_later() {
    // Verdicts are not monotone: the reservoir (inflow 3) violates only at
    // exactly h = limit/3 + 2, the mixer (inflow 2) at h = limit/2 + 2.
    let limit = 12;
    let base = temporal_tank_base(limit);
    let reqs = temporal_tank_requirements();
    let report = check_horizon_sweep(&base, temporal_tank_step, &reqs, 2..=10).expect("sweep");
    let violated_at = |h: usize, name: &str| -> bool {
        report.rows[h - 2]
            .verdicts
            .iter()
            .find(|v| v.name == name)
            .expect("requirement present")
            .violated
    };
    assert!(violated_at(6, "r_reservoir"));
    assert!(!violated_at(5, "r_reservoir"));
    assert!(!violated_at(7, "r_reservoir"));
    assert!(violated_at(8, "r_mixer"));
    assert!(!violated_at(7, "r_mixer"));
    assert!(!violated_at(9, "r_mixer"));
}

#[test]
fn session_extends_across_many_steps() {
    let base = temporal_tank_base(30);
    let reqs = temporal_tank_requirements();
    let mut session = HorizonSession::new(&base, temporal_tank_step, &reqs, 4).expect("session");
    for h in 5..=20 {
        session.extend_to(h, temporal_tank_step).expect("extend");
        let verdicts = session.solve_verdicts(&[]).expect("solve");
        assert_eq!(verdicts.len(), 3);
        let scratch = check_horizon_scratch(&base, temporal_tank_step, &reqs, h).expect("scratch");
        assert_eq!(verdicts, scratch, "diverged at h={h}");
    }
    assert_eq!(session.horizon(), 20);
}
