//! Minimal-violating-horizon sweeps over one resident ground session.
//!
//! Bounded LTLf checking answers "is the requirement violated within `h`
//! steps?" — but the engineering question is usually "what is the
//! *smallest* horizon at which it breaks?". Answering that from scratch
//! re-encodes, re-grounds and re-solves the whole unrolling at every
//! candidate horizon, even though consecutive programs differ only in the
//! newest time slices. This module keeps **one** resident
//! [`GroundSession`]: each horizon step grounds only the slice delta
//! produced by [`IncrementalUnrolling::extend_to`], revokes the stale
//! frontier defers, carries the solver's learned nogoods across steps via
//! [`LearnedState`], and re-pins the new frontier with assumptions.
//!
//! The entry point is [`check_horizon_sweep`]; [`check_horizon_scratch`]
//! is the from-scratch path the tests and the benchmark's horizon gate
//! compare against (verdict equality at every horizon is a hard gate,
//! speed is the payoff).

use std::ops::RangeInclusive;

use cpsrisk_asp::ast::Program;
use cpsrisk_asp::{
    well_founded_with, AtomId, GroundSession, Grounder, LearnedState, Lit, ProgramBuilder,
    SolveOptions, Solver,
};
use cpsrisk_temporal::{unroll, IncrementalUnrolling, Ltl};

use crate::error::EpaError;

/// One requirement's verdict at one horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequirementVerdict {
    /// Requirement name (as passed to the sweep).
    pub name: String,
    /// True when the requirement is violated at this horizon.
    pub violated: bool,
}

/// Per-horizon result row of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HorizonRow {
    /// The horizon this row was solved at.
    pub horizon: usize,
    /// Verdicts for every requirement, in input order.
    pub verdicts: Vec<RequirementVerdict>,
}

/// The result of [`check_horizon_sweep`].
#[derive(Debug, Clone)]
pub struct HorizonReport {
    /// One row per horizon in the swept range, ascending.
    pub rows: Vec<HorizonRow>,
    /// The smallest horizon at which *some* requirement is violated, if
    /// any. Finite-trace verdicts are not monotone in the horizon, so
    /// later horizons may be clean again.
    pub min_violating: Option<usize>,
    /// Ground atoms added per extension step (one entry per horizon after
    /// the first). Bounded per-slice growth is the contract that makes
    /// the sweep incremental.
    pub slice_atoms: Vec<usize>,
    /// Learned nogoods successfully carried across extensions (cumulative
    /// over the whole sweep).
    pub retained_nogoods: usize,
}

/// A resident bounded-LTLf checking session whose horizon can grow.
///
/// Construction grounds the base program, the first `horizon` step
/// deltas and the initial unrolling of every requirement into one
/// [`GroundSession`]. [`extend_to`](Self::extend_to) then grounds only
/// the new slices, and [`solve_verdicts`](Self::solve_verdicts) answers
/// under the current frontier pins, transferring learned nogoods from
/// the previous horizon's solver when they survive the extension.
pub struct HorizonSession {
    session: GroundSession,
    unrollings: Vec<IncrementalUnrolling>,
    horizon: usize,
    carried: Option<LearnedState>,
    /// Frontier atoms revoked since `carried` was exported — possibly
    /// across several extensions, when intermediate horizons were decided
    /// on the static path without touching a solver.
    revoked_since_export: Vec<AtomId>,
    last_new_atoms: usize,
    retained: usize,
}

impl HorizonSession {
    /// Build a session at an initial horizon.
    ///
    /// `base` holds the horizon-independent rules and facts; `step(t)` is
    /// called once per time slice `t in 0..horizon` and must return the
    /// slice's facts (e.g. `time(t).`); `requirements` pairs a name with
    /// the LTLf formula to check.
    ///
    /// # Errors
    ///
    /// [`EpaError::Temporal`] for a zero horizon or non-ground
    /// propositions; [`EpaError::Asp`] on grounding failure (including
    /// cardinality-bounded choice rules in `base`, which a session cannot
    /// patch incrementally).
    pub fn new(
        base: &Program,
        mut step: impl FnMut(usize) -> Program,
        requirements: &[(String, Ltl)],
        horizon: usize,
    ) -> Result<Self, EpaError> {
        let mut program = base.clone();
        for t in 0..horizon {
            program.extend(step(t));
        }
        let mut unrollings = Vec::with_capacity(requirements.len());
        for (name, formula) in requirements {
            let (unrolling, delta) = IncrementalUnrolling::new(name, formula, horizon)?;
            debug_assert!(
                delta.revoked.is_empty(),
                "initial unrolling revokes nothing"
            );
            program.extend(delta.program);
            unrollings.push(unrolling);
        }
        let session = Grounder::new().session(&program)?;
        Ok(HorizonSession {
            session,
            unrollings,
            horizon,
            carried: None,
            revoked_since_export: Vec::new(),
            last_new_atoms: 0,
            retained: 0,
        })
    }

    /// The current horizon.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Ground atoms added by the most recent extension.
    #[must_use]
    pub fn last_new_atoms(&self) -> usize {
        self.last_new_atoms
    }

    /// Learned nogoods successfully transferred across extensions so far.
    #[must_use]
    pub fn retained_nogoods(&self) -> usize {
        self.retained
    }

    /// Extend the session to `new_horizon`, grounding only the new time
    /// slices and the frontier rewiring.
    ///
    /// # Errors
    ///
    /// [`EpaError::Temporal`] if `new_horizon` does not grow the current
    /// horizon; [`EpaError::Asp`] on grounding failure.
    pub fn extend_to(
        &mut self,
        new_horizon: usize,
        mut step: impl FnMut(usize) -> Program,
    ) -> Result<(), EpaError> {
        let mut delta = Program::new();
        for t in self.horizon..new_horizon {
            delta.extend(step(t));
        }
        let mut revoked = Vec::new();
        for u in &mut self.unrollings {
            let d = u.extend_to(new_horizon)?;
            delta.extend(d.program);
            revoked.extend(d.revoked);
        }
        let stats = self.session.extend(&delta, &revoked)?;
        if stats.dirty {
            // The delta redefined settled atoms; carried nogoods may no
            // longer be sound, so search restarts cold.
            self.carried = None;
            self.revoked_since_export.clear();
        }
        self.revoked_since_export.extend(stats.revoked);
        self.last_new_atoms = stats.new_atoms;
        self.horizon = new_horizon;
        Ok(())
    }

    /// Solve at the current horizon and report each requirement's verdict.
    ///
    /// The conditional well-founded model under the frontier pins is tried
    /// first: when it is total and consistent, its true set *is* the
    /// unique stable model, so the verdicts read straight off the fixpoint
    /// without constructing a solver — deterministic dynamics stay on this
    /// path at every horizon, which is what keeps the per-step cost at one
    /// fixpoint over the ground program instead of a full CDCL rebuild.
    /// Any undefined residue falls back to a fresh CDCL solver warmed with
    /// the learned nogoods of the previous search (minus those invalidated
    /// by frontier atoms revoked since that search) and queried under the
    /// frontier pins plus `extra` assumptions.
    ///
    /// # Errors
    ///
    /// [`EpaError::NoModel`] if the program is unsatisfiable under the
    /// pins; [`EpaError::Asp`] on solver failure.
    pub fn solve_verdicts(&mut self, extra: &[Lit]) -> Result<Vec<RequirementVerdict>, EpaError> {
        let ground = self.session.program();
        let mut assumptions: Vec<Lit> = extra.to_vec();
        for u in &self.unrollings {
            for pin in u.pins() {
                if let Some(id) = ground.lookup(&pin.atom) {
                    assumptions.push(if pin.value {
                        Lit::pos(id)
                    } else {
                        Lit::neg(id)
                    });
                }
            }
        }
        let wfm = well_founded_with(ground, &assumptions);
        if wfm.inconsistent {
            return Err(EpaError::NoModel);
        }
        if wfm.total() {
            return Ok(self
                .unrollings
                .iter()
                .map(|u| {
                    let req = u.requirement();
                    let violated = ground
                        .lookup(&req.violated_atom)
                        .is_some_and(|id| wfm.is_true(id));
                    RequirementVerdict {
                        name: req.name,
                        violated,
                    }
                })
                .collect());
        }
        let mut solver = Solver::new(ground);
        if let Some(state) = &self.carried {
            self.retained += solver.import_learned(state, &self.revoked_since_export);
        }
        let opts = SolveOptions {
            max_models: 1,
            ..SolveOptions::default()
        };
        let res = solver.solve_with_assumptions(&assumptions, &opts)?;
        let model = res.models.first().ok_or(EpaError::NoModel)?;
        let verdicts = self
            .unrollings
            .iter()
            .map(|u| {
                let req = u.requirement();
                RequirementVerdict {
                    name: req.name,
                    violated: model.contains(&req.violated_atom),
                }
            })
            .collect();
        self.carried = Some(solver.export_learned());
        self.revoked_since_export.clear();
        Ok(verdicts)
    }
}

/// Find the minimal violating horizon by extending one resident session
/// across `range`, solving at every horizon.
///
/// # Errors
///
/// Propagates [`HorizonSession`] errors; additionally
/// [`EpaError::Temporal`] when `range` is empty or starts at zero.
pub fn check_horizon_sweep(
    base: &Program,
    mut step: impl FnMut(usize) -> Program,
    requirements: &[(String, Ltl)],
    range: RangeInclusive<usize>,
) -> Result<HorizonReport, EpaError> {
    let (h_min, h_max) = (*range.start(), *range.end());
    if h_min == 0 || h_max < h_min {
        return Err(EpaError::Temporal(
            cpsrisk_temporal::TemporalError::EmptyHorizon,
        ));
    }
    let mut session = HorizonSession::new(base, &mut step, requirements, h_min)?;
    let mut report = HorizonReport {
        rows: Vec::with_capacity(h_max - h_min + 1),
        min_violating: None,
        slice_atoms: Vec::new(),
        retained_nogoods: 0,
    };
    for h in h_min..=h_max {
        if h > h_min {
            session.extend_to(h, &mut step)?;
            report.slice_atoms.push(session.last_new_atoms());
        }
        let verdicts = session.solve_verdicts(&[])?;
        if report.min_violating.is_none() && verdicts.iter().any(|v| v.violated) {
            report.min_violating = Some(h);
        }
        report.rows.push(HorizonRow {
            horizon: h,
            verdicts,
        });
    }
    report.retained_nogoods = session.retained_nogoods();
    Ok(report)
}

/// From-scratch reference: encode, ground and solve the full fixed-horizon
/// unrolling at `horizon`, with no session reuse. Used by the tests and
/// the benchmark to gate the incremental path on verdict equality.
///
/// # Errors
///
/// [`EpaError::Temporal`] on unrolling failure, [`EpaError::Asp`] on
/// grounding or solving failure, [`EpaError::NoModel`] if unsatisfiable.
pub fn check_horizon_scratch(
    base: &Program,
    mut step: impl FnMut(usize) -> Program,
    requirements: &[(String, Ltl)],
    horizon: usize,
) -> Result<Vec<RequirementVerdict>, EpaError> {
    let mut b = ProgramBuilder::new();
    let mut reqs = Vec::with_capacity(requirements.len());
    for (name, formula) in requirements {
        reqs.push(unroll(&mut b, name, formula, horizon)?);
    }
    let mut program = base.clone();
    for t in 0..horizon {
        program.extend(step(t));
    }
    program.extend(b.finish());
    let ground = Grounder::new().ground(&program)?;
    let mut solver = Solver::new(&ground);
    let opts = SolveOptions {
        max_models: 1,
        ..SolveOptions::default()
    };
    let res = solver.solve_with_assumptions(&[], &opts)?;
    let model = res.models.first().ok_or(EpaError::NoModel)?;
    Ok(reqs
        .iter()
        .map(|r| RequirementVerdict {
            name: r.name.clone(),
            violated: model.contains(&r.violated_atom),
        })
        .collect())
}
