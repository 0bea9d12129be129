//! `solve`: the `cpsrisk solve` path (lint, parse, ground, solver set-up,
//! enumeration) over two generated program texts — one front-end bound,
//! one search bound.

use std::time::Instant;

use cpsrisk::asp::diag::has_errors;
use cpsrisk::asp::lint::lint_source;
use cpsrisk::asp::{parse, simplify, well_founded, Grounder, SolveOptions, Solver};
use cpsrisk::epa::temporal_tank_problem;
use cpsrisk::epa::workload::{adversarial_needed, adversarial_problem};

use crate::trace::Tracer;
use crate::Workload;

/// Unrolling horizon of the temporal tank file (~110 KB of text).
const TEMPORAL_HORIZON: usize = 64;
/// Attack chains of the adversarial file, solved one below the covering
/// number so the file is UNSAT by construction.
const ADVERSARIAL_N: usize = 33;

pub struct Solve;

/// The program texts, in the order they are solved.
pub struct Files {
    temporal: String,
    adversarial: String,
}

/// What solving one file yields.
#[derive(Debug, PartialEq)]
pub struct FileResult {
    lint_errors: bool,
    models: Vec<String>,
    exhausted: bool,
}

impl Workload for Solve {
    type State = Files;
    type Output = [FileResult; 2];

    fn setup(&self, tr: &mut Tracer) -> Result<Files, String> {
        let temporal = tr.span("temporal.unroll", |_| {
            temporal_tank_problem(TEMPORAL_HORIZON)
        });
        let adversarial = tr.span("input.generate", |_| {
            adversarial_problem(ADVERSARIAL_N, adversarial_needed(ADVERSARIAL_N) - 1)
        });
        Ok(tr.span("input.render", |_| Files {
            temporal: temporal.to_string(),
            adversarial: adversarial.to_string(),
        }))
    }

    fn run(&self, files: &mut Files, tr: &mut Tracer) -> Result<[FileResult; 2], String> {
        Ok([
            tr.unit(|tr| solve_file(&files.temporal, tr))?,
            tr.unit(|tr| solve_file(&files.adversarial, tr))?,
        ])
    }

    fn probe(&self, files: &mut Files, _: &[FileResult; 2], tr: &mut Tracer) -> Result<(), String> {
        // Well-founded model and simplification of the same ground
        // programs (the solver seeds itself from the former).
        let (mut decided, mut atoms) = (0usize, 0usize);
        for src in [&files.temporal, &files.adversarial] {
            let program = parse(src).map_err(|e| e.to_string())?;
            let ground = Grounder::new()
                .ground(&program)
                .map_err(|e| e.to_string())?;
            let wfm = tr.span("asp.wfm", |_| well_founded(&ground));
            decided += wfm.true_count + wfm.false_count;
            atoms += ground.atom_count();
            let simplified = tr.span("asp.simplify", |_| simplify(&ground));
            tr.count("asp.simplify_rules_after", simplified.rules_after as f64);
        }
        tr.count("asp.wfm_decided_frac", decided as f64 / atoms.max(1) as f64);
        // The incremental path of the same temporal analysis, for the
        // `epa.horizon_*` layers.
        crate::horizon::probe_layers(tr)
    }

    fn check(&self, _: &Files, out: &[FileResult; 2]) -> Result<(), String> {
        let [temporal, adversarial] = out;
        if temporal.lint_errors || adversarial.lint_errors {
            return Err("lint errors in a generated file".to_owned());
        }
        if temporal.models.len() != 1 || !temporal.exhausted {
            return Err(format!(
                "temporal file: {} models, exhausted {}",
                temporal.models.len(),
                temporal.exhausted
            ));
        }
        if !adversarial.models.is_empty() || !adversarial.exhausted {
            return Err("adversarial file is not UNSAT below the covering number".to_owned());
        }
        // At the covering number the same chains are coverable: the UNSAT
        // verdict comes from the budget, not from a broken encoding.
        let coverable = adversarial_problem(ADVERSARIAL_N, adversarial_needed(ADVERSARIAL_N));
        let ground = Grounder::new()
            .ground(&coverable)
            .map_err(|e| e.to_string())?;
        let opts = SolveOptions {
            max_models: 1,
            ..SolveOptions::default()
        };
        let res = Solver::new(&ground)
            .enumerate(&opts)
            .map_err(|e| e.to_string())?;
        if res.models.len() != 1 {
            return Err("adversarial file has no model at the covering number".to_owned());
        }
        Ok(())
    }
}

/// `cpsrisk solve` on one program text.
fn solve_file(src: &str, tr: &mut Tracer) -> Result<FileResult, String> {
    let diags = tr.span("asp.lint", |_| lint_source(src));
    let lint_errors = has_errors(&diags);
    if lint_errors {
        return Ok(FileResult {
            lint_errors,
            models: Vec::new(),
            exhausted: false,
        });
    }
    let program = tr
        .span("asp.parser", |_| parse(src))
        .map_err(|e| e.to_string())?;
    let ground = tr
        .span("asp.ground", |_| Grounder::new().ground(&program))
        .map_err(|e| e.to_string())?;
    tr.count("asp.ground_rules", ground.rules.len() as f64);
    tr.count("asp.ground_atoms", ground.atom_count() as f64);
    let mut solver = tr.span("asp.solve_init", |_| Solver::new(&ground));
    let t = Instant::now();
    let res = tr
        .span("asp.solve_search", |_| {
            solver.enumerate(&SolveOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let search_us = t.elapsed().as_secs_f64() * 1e6;
    tr.count("asp.solve_decisions", res.decisions as f64);
    tr.count("asp.solve_conflicts", res.conflicts as f64);
    tr.count("asp.solve_propagations", res.propagations as f64);
    tr.count("asp.solve_restarts", res.restarts as f64);
    tr.count("asp.solve_learned", solver.learned_nogoods() as f64);
    tr.count("asp.solve_models", res.models.len() as f64);
    if !res.models.is_empty() {
        tr.count(
            "asp.solve_us_per_model",
            search_us / res.models.len() as f64,
        );
    }
    Ok(FileResult {
        lint_errors,
        models: res.models.iter().map(ToString::to_string).collect(),
        exhausted: res.exhausted,
    })
}
