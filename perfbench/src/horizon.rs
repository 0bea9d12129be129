//! `horizon`: find the minimal violating horizon of the tank requirements
//! by extending one resident session across a horizon range — incremental
//! grounding and learned-state carry-over, every horizon decided by the
//! well-founded model.

use cpsrisk::asp::Program;
use cpsrisk::epa::{
    check_horizon_scratch, check_horizon_sweep, temporal_tank_base, temporal_tank_min_violating,
    temporal_tank_requirements, temporal_tank_step, HorizonRow, HorizonSession,
};
use cpsrisk::temporal::Ltl;

use crate::trace::Tracer;
use crate::Workload;

/// Overflow limit of the tank plant; the first violation is at horizon 12.
const LIMIT: i64 = 30;
const H_MIN: usize = 8;
const H_MAX: usize = 96;

pub struct Horizon {
    /// Horizons whose verdicts the gate recomputes from scratch.
    sampled: Vec<usize>,
}

impl Horizon {
    /// The inputs do not depend on the seed; it picks two of the horizons
    /// the gate re-solves from scratch, next to the range ends and the
    /// ones around the first violation.
    pub fn new(seed: u64) -> Self {
        let first = temporal_tank_min_violating(LIMIT);
        let span = (H_MAX - H_MIN + 1) as u64;
        let mut sampled = vec![H_MIN, first - 1, first, first + 1, H_MAX];
        for k in 1..=2 {
            sampled.push(H_MIN + (crate::splitmix(seed ^ k) % span) as usize);
        }
        sampled.sort_unstable();
        sampled.dedup();
        Horizon { sampled }
    }
}

pub struct State {
    base: Program,
    requirements: Vec<(String, Ltl)>,
    session: HorizonSession,
}

/// The fields of a `HorizonReport`.
#[derive(Debug, PartialEq)]
pub struct Report {
    rows: Vec<HorizonRow>,
    min_violating: Option<usize>,
    slice_atoms: Vec<usize>,
    retained_nogoods: usize,
}

impl Workload for Horizon {
    type State = State;
    type Output = Report;

    fn setup(&self, tr: &mut Tracer) -> Result<State, String> {
        let (base, requirements) = tr.span("input.generate", |_| {
            (temporal_tank_base(LIMIT), temporal_tank_requirements())
        });
        let session = tr
            .span("epa.horizon_session", |_| {
                HorizonSession::new(&base, temporal_tank_step, &requirements, H_MIN)
            })
            .map_err(|e| e.to_string())?;
        Ok(State {
            base,
            requirements,
            session,
        })
    }

    /// The loop of `check_horizon_sweep` over `H_MIN..=H_MAX`, on the
    /// session built in set-up: one unit.
    fn run(&self, st: &mut State, tr: &mut Tracer) -> Result<Report, String> {
        tr.unit(|tr| horizon_loop(st, tr))
    }

    fn check(&self, st: &State, out: &Report) -> Result<(), String> {
        let expected = temporal_tank_min_violating(LIMIT);
        if out.min_violating != Some(expected) {
            return Err(format!(
                "minimal violating horizon {:?}, expected {expected}",
                out.min_violating
            ));
        }
        let library = check_horizon_sweep(
            &st.base,
            temporal_tank_step,
            &st.requirements,
            H_MIN..=H_MAX,
        )
        .map_err(|e| e.to_string())?;
        if library.rows != out.rows
            || library.min_violating != out.min_violating
            || library.slice_atoms != out.slice_atoms
            || library.retained_nogoods != out.retained_nogoods
        {
            return Err("session loop differs from check_horizon_sweep".to_owned());
        }
        // Ground and solve from scratch: no session, no carried state.
        for &h in &self.sampled {
            let scratch = check_horizon_scratch(&st.base, temporal_tank_step, &st.requirements, h)
                .map_err(|e| e.to_string())?;
            if scratch != out.rows[h - H_MIN].verdicts {
                return Err(format!("horizon {h}: verdicts differ from scratch"));
            }
        }
        Ok(())
    }
}

/// The `horizon` operation once, traced: set-up and the horizon loop with
/// their spans and counters, then its correctness gate. The `solve`
/// workload's traced run calls it, so that the `epa.horizon_*` layers are
/// measured where `horizon` is not run as a workload of its own.
pub fn probe_layers(tr: &mut Tracer) -> Result<(), String> {
    let w = Horizon::new(crate::DEFAULT_SEED);
    let mut st = w.setup(tr)?;
    let report = horizon_loop(&mut st, tr)?;
    w.check(&st, &report)
        .map_err(|e| format!("horizon probe: {e}"))
}

/// The loop of `check_horizon_sweep` over `H_MIN..=H_MAX`.
fn horizon_loop(st: &mut State, tr: &mut Tracer) -> Result<Report, String> {
    let mut report = Report {
        rows: Vec::with_capacity(H_MAX - H_MIN + 1),
        min_violating: None,
        slice_atoms: Vec::new(),
        retained_nogoods: 0,
    };
    for h in H_MIN..=H_MAX {
        if h > H_MIN {
            tr.span("epa.horizon_extend", |_| {
                st.session.extend_to(h, temporal_tank_step)
            })
            .map_err(|e| e.to_string())?;
            report.slice_atoms.push(st.session.last_new_atoms());
        }
        let verdicts = tr
            .span("epa.horizon_verdict", |_| st.session.solve_verdicts(&[]))
            .map_err(|e| e.to_string())?;
        if report.min_violating.is_none() && verdicts.iter().any(|v| v.violated) {
            report.min_violating = Some(h);
        }
        report.rows.push(HorizonRow {
            horizon: h,
            verdicts,
        });
    }
    report.retained_nogoods = st.session.retained_nogoods();
    let slice_max = report.slice_atoms.iter().copied().max().unwrap_or(0);
    tr.count("epa.horizon_slice_atoms_max", slice_max as f64);
    tr.count(
        "epa.horizon_retained_nogoods",
        report.retained_nogoods as f64,
    );
    Ok(report)
}
