//! `cpsrisk analyze` — the semantic program analysis report.
//!
//! One [`AnalyzeReport`] per analyzed ASP program, combining the three
//! passes of [`cpsrisk_asp::analysis`] with a grounding cross-check:
//!
//! * **dependency structure** — strata, stratification, positive loops,
//!   and the two tightness levels (predicate-level over-approximation vs
//!   the atom-level ground certificate the solver's fast path uses);
//! * **grounding-size prediction** — the abstract-interpretation estimate
//!   next to the *actual* ground rule count, with their divergence ratio
//!   (CI gates on it: a predictor drifting past 10× on the temporal
//!   workload fails the build);
//! * **slicing** — how many statements the backward slice drops and what
//!   that saves in ground rules;
//! * **consequences** — the well-founded model of the ground program (the
//!   polynomial-time backbone every stable model must respect) and what
//!   the WFM-based simplifier makes of it;
//! * **search** (schema v2) — the CDCL solver's counters from a bounded
//!   enumeration of the ground program: decisions, conflicts, restarts,
//!   propagations, and retained learned nogoods;
//! * **lint findings** — the full `A000`…`A014` pass over the source.
//!
//! Besides program files, `cpsrisk analyze --workload` analyzes one of the
//! parametric [`Workload`] programs.

use serde::{Deserialize, Serialize};

use cpsrisk_asp::analysis::{
    analyze_dependencies, ground_tight, predict_sizes, simplify_with, slice_program, well_founded,
};
use cpsrisk_asp::{lint, Grounder, Program, SolveOptions, Solver};
use cpsrisk_epa::encode::{encode, EncodeMode};
use cpsrisk_epa::workload::{
    adversarial_needed, adversarial_problem, catalog_problem, chain_problem, grid_problem,
    temporal_tank_problem,
};

use crate::error::CoreError;

/// Schema identifier stamped into every report so downstream tooling can
/// validate the shape it parses.
pub const ANALYZE_SCHEMA: &str = "cpsrisk-analyze/2";

/// Models the search section enumerates before stopping: enough to expose
/// real solver counters without letting analysis degenerate into a full
/// enumeration of a huge answer-set space.
const SEARCH_MODEL_CAP: usize = 64;

/// Decision+conflict budget for the search section's bounded enumeration.
const SEARCH_BUDGET: u64 = 1_000_000;

/// The seed every `catalog` workload generates its plant and threat
/// entries from, so analyses are comparable across machines.
pub const CATALOG_SEED: u64 = 0xC47A;

/// Chain count of the catalog plant at size `n` (components).
#[must_use]
pub fn catalog_chains(n: usize) -> usize {
    (n / 7).max(4)
}

/// The parametric workload programs `cpsrisk analyze --workload` builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `chain_problem(n)` under exhaustive scenario enumeration —
    /// enumeration-bound (`2^(n+2)` scenarios).
    Chain,
    /// `grid_problem(n, n)` — grounding-bound (constant scenario space,
    /// `n²` devices).
    Grid,
    /// `temporal_tank_problem(n)` — grounding-bound (deterministic
    /// dynamics unrolled over an `n`-step horizon).
    Temporal,
    /// `adversarial_problem(n, ⌈n/3⌉ - 1)` — search-bound: selecting
    /// mitigations under a cardinality budget one below the covering
    /// number of `n` circularly overlapping attack chains. UNSAT and
    /// pigeonhole-hard, so refutation cost is pure conflict-driven
    /// search.
    Adversarial,
    /// `catalog_problem(n, catalog_chains(n), CATALOG_SEED)` with
    /// singleton scenarios — a catalog-scale plant (its full choice space
    /// is astronomically large).
    Catalog,
}

impl Workload {
    /// Every workload, in presentation order. The single source of truth
    /// behind [`Workload::parse`]'s error message and the CLI help
    /// strings — adding a variant here is the whole registration.
    pub const ALL: [Workload; 5] = [
        Workload::Chain,
        Workload::Grid,
        Workload::Temporal,
        Workload::Adversarial,
        Workload::Catalog,
    ];

    /// The `a|b|c` rendering of [`Workload::ALL`] used by usage strings.
    #[must_use]
    pub fn names_usage() -> String {
        let names: Vec<&str> = Self::ALL.iter().map(|w| w.as_str()).collect();
        names.join("|")
    }

    /// The `a, b, or c` rendering of [`Workload::ALL`] used by error
    /// messages.
    #[must_use]
    pub fn names_prose() -> String {
        let names: Vec<&str> = Self::ALL.iter().map(|w| w.as_str()).collect();
        match names.split_last() {
            Some((last, rest)) if !rest.is_empty() => {
                format!("{}, or {last}", rest.join(", "))
            }
            _ => names.join(""),
        }
    }

    /// Parse a `--workload` value.
    ///
    /// # Errors
    ///
    /// A message listing every name in [`Workload::ALL`].
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .copied()
            .find(|w| w.as_str() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (expected {})", Self::names_prose()))
    }

    /// The workload's name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Workload::Chain => "chain",
            Workload::Grid => "grid",
            Workload::Temporal => "temporal",
            Workload::Adversarial => "adversarial",
            Workload::Catalog => "catalog",
        }
    }

    /// Default size parameter when `--n` is not given: chain length 8,
    /// grid side 12, temporal horizon 24, adversarial chain count 27
    /// (tens of milliseconds of CDCL refutation), catalog component count
    /// 160 (hundreds of elements).
    #[must_use]
    pub fn default_n(self) -> usize {
        match self {
            Workload::Chain => 8,
            Workload::Grid => 12,
            Workload::Temporal => 24,
            Workload::Adversarial => 27,
            Workload::Catalog => 160,
        }
    }

    /// The workload's ASP program at size `n`.
    #[must_use]
    pub fn program(self, n: usize) -> Program {
        let exhaustive = |max_faults| EncodeMode::Exhaustive { max_faults };
        match self {
            Workload::Chain => encode(&chain_problem(n), &exhaustive(None)),
            Workload::Grid => encode(&grid_problem(n, n), &exhaustive(None)),
            Workload::Temporal => temporal_tank_problem(n),
            Workload::Adversarial => adversarial_problem(n, adversarial_needed(n) - 1),
            Workload::Catalog => encode(
                &catalog_problem(n, catalog_chains(n), CATALOG_SEED),
                &exhaustive(Some(1)),
            ),
        }
    }
}

/// One lint finding, flattened for the JSON report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Finding {
    /// `"error"`, `"warning"`, or `"info"`.
    pub severity: String,
    /// Stable code (`A000`…`A014`).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// 1-based source line, when the finding maps to analyzed text.
    pub line: Option<usize>,
}

/// The dependency-structure section.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DepsSection {
    /// Distinct predicates in the dependency graph.
    pub predicates: usize,
    /// Strongly connected components.
    pub sccs: usize,
    /// Number of strata (1 when the program is negation-free).
    pub strata: usize,
    /// No cycle through negation.
    pub stratified: bool,
    /// SCCs with a positive cycle, each listed by its member predicates.
    pub positive_loops: Vec<Vec<String>>,
    /// Positive loops that also carry an internal negative edge (lint
    /// `A011`): the classically non-tight shape.
    pub non_tight_loops: Vec<Vec<String>>,
    /// Predicate-level tightness (no positive predicate recursion). An
    /// over-approximation: `false` here can still ground tight.
    pub pred_tight: bool,
    /// Atom-level tightness of the actual ground program — the solver's
    /// fast-path certificate.
    pub ground_tight: bool,
}

/// The grounding-size section: prediction vs reality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SizeSection {
    /// Predicted ground rule instances (saturating estimate).
    pub predicted_rules: f64,
    /// Ground rules the grounder actually produced.
    pub actual_rules: usize,
    /// `max(predicted/actual, actual/predicted)`, `>= 1.0`; `null` when a
    /// side is zero and the other is not.
    pub divergence: Option<f64>,
}

/// The slicing section.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceSection {
    /// Statements in the source program.
    pub statements: usize,
    /// Statements the backward slice keeps.
    pub kept: usize,
    /// Statements sliced away.
    pub dropped: usize,
    /// Ground rules after slicing (equals `actual_rules` when nothing
    /// drops).
    pub sliced_ground_rules: usize,
}

/// The well-founded-consequences section: what the polynomial-time
/// 3-valued approximation already decides about every stable model, and
/// what simplifying against that backbone buys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsequencesSection {
    /// Interned ground atoms.
    pub atoms: usize,
    /// Atoms true in every stable model (the backbone).
    pub wfm_true: usize,
    /// Atoms false in every stable model.
    pub wfm_false: usize,
    /// Atoms the WFM leaves open (choices and what depends on them).
    pub wfm_undefined: usize,
    /// The WFM decides every atom — solving needs no search at all.
    pub total: bool,
    /// The WFM refutes the program outright (no stable model exists).
    pub inconsistent: bool,
    /// `(wfm_true + wfm_false) / atoms` (1.0 for the empty program).
    pub decided_fraction: f64,
    /// Ground rules before simplification.
    pub rules_before: usize,
    /// Ground rules after fixing the backbone and dropping dead rules.
    pub rules_after: usize,
    /// Tightness certificate re-derived on the simplified program — can
    /// be `true` where the original certificate was `false`, unlocking
    /// the solver's tight fast path.
    pub tight_after_simplify: bool,
}

/// The search section (schema v2): what the CDCL solver actually did on a
/// bounded enumeration of the ground program (at most 64 models, at most
/// one million decisions+conflicts — `SEARCH_MODEL_CAP` /
/// `SEARCH_BUDGET`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SearchSection {
    /// Branching decisions.
    pub decisions: u64,
    /// Conflicts (each learns a 1UIP nogood).
    pub conflicts: u64,
    /// Luby restarts.
    pub restarts: u64,
    /// Propagated assignments (decisions included).
    pub propagations: u64,
    /// Learned nogoods retained by the solver after the run.
    pub learned_nogoods: usize,
    /// Models found within the caps.
    pub models: usize,
    /// The bounded enumeration exhausted the search space.
    pub exhausted: bool,
    /// The run stopped on the decision+conflict budget (counters above
    /// are the partial statistics at that point).
    pub budget_exhausted: bool,
}

impl Default for ConsequencesSection {
    fn default() -> Self {
        ConsequencesSection {
            atoms: 0,
            wfm_true: 0,
            wfm_false: 0,
            wfm_undefined: 0,
            total: true,
            inconsistent: false,
            decided_fraction: 1.0,
            rules_before: 0,
            rules_after: 0,
            tight_after_simplify: true,
        }
    }
}

/// The full per-program analysis report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzeReport {
    /// Report schema version ([`ANALYZE_SCHEMA`]).
    pub schema: String,
    /// Program name (file path or workload label).
    pub name: String,
    /// Dependency structure and tightness.
    pub deps: DepsSection,
    /// Predicted vs actual grounding size.
    pub size: SizeSection,
    /// Slice savings.
    pub slice: SliceSection,
    /// Well-founded consequences and simplification effect.
    pub consequences: ConsequencesSection,
    /// CDCL solver counters from a bounded enumeration (schema v2).
    pub search: SearchSection,
    /// Lint findings (`A000`…`A014`), ordered by span then code.
    pub findings: Vec<Finding>,
}

impl AnalyzeReport {
    /// Count of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == "error")
            .count()
    }
}

/// Analyze one ASP program given as source text.
///
/// # Errors
///
/// [`CoreError::Asp`] when the program parses but cannot be grounded
/// (unsafe rules, arithmetic errors, grounding budget). Parse errors do
/// **not** error out — they surface as `A000` findings in a report whose
/// analysis sections are empty.
pub fn analyze_source(name: &str, src: &str) -> Result<AnalyzeReport, CoreError> {
    let findings: Vec<Finding> = lint::lint_source(src)
        .iter()
        .map(|d| Finding {
            severity: format!("{:?}", d.severity).to_lowercase(),
            code: d.code.clone(),
            message: d.message.clone(),
            line: d.span.map(|s| s.line),
        })
        .collect();

    let Ok(program) = cpsrisk_asp::parse(src) else {
        // Unparseable: the A000 finding already says so; report what we can.
        return Ok(AnalyzeReport {
            schema: ANALYZE_SCHEMA.to_owned(),
            name: name.to_owned(),
            deps: DepsSection {
                predicates: 0,
                sccs: 0,
                strata: 0,
                stratified: true,
                positive_loops: Vec::new(),
                non_tight_loops: Vec::new(),
                pred_tight: true,
                ground_tight: true,
            },
            size: SizeSection {
                predicted_rules: 0.0,
                actual_rules: 0,
                divergence: None,
            },
            slice: SliceSection {
                statements: 0,
                kept: 0,
                dropped: 0,
                sliced_ground_rules: 0,
            },
            consequences: ConsequencesSection::default(),
            search: SearchSection::default(),
            findings,
        });
    };

    let deps = analyze_dependencies(&program);
    let prediction = predict_sizes(&program);
    let slice = slice_program(&program, &[]);

    let ground = Grounder::new().ground(&program).map_err(CoreError::Asp)?;
    let sliced_ground = if slice.dropped.is_empty() {
        ground.rules.len()
    } else {
        Grounder::new()
            .with_slicing(true)
            .ground(&program)
            .map_err(CoreError::Asp)?
            .rules
            .len()
    };

    let actual = ground.rules.len();
    let predicted = prediction.total;
    let divergence = if predicted > 0.0 && actual > 0 {
        let a = actual as f64;
        Some((predicted / a).max(a / predicted))
    } else if predicted == 0.0 && actual == 0 {
        Some(1.0)
    } else {
        None
    };

    let wfm = well_founded(&ground);
    let simplified = simplify_with(&ground, &wfm);

    let search = {
        let mut solver = Solver::new(&ground);
        let opts = SolveOptions {
            max_models: SEARCH_MODEL_CAP,
            max_decisions: SEARCH_BUDGET,
            ..SolveOptions::default()
        };
        match solver.enumerate(&opts) {
            Ok(r) => SearchSection {
                decisions: r.decisions,
                conflicts: r.conflicts,
                restarts: r.restarts,
                propagations: r.propagations,
                learned_nogoods: solver.learned_nogoods(),
                models: r.models.len(),
                exhausted: r.exhausted,
                budget_exhausted: false,
            },
            Err(cpsrisk_asp::AspError::SolveBudget {
                decisions,
                conflicts,
                ..
            }) => SearchSection {
                decisions,
                conflicts,
                restarts: 0,
                propagations: 0,
                learned_nogoods: solver.learned_nogoods(),
                models: 0,
                exhausted: false,
                budget_exhausted: true,
            },
            Err(e) => return Err(CoreError::Asp(e)),
        }
    };

    Ok(AnalyzeReport {
        schema: ANALYZE_SCHEMA.to_owned(),
        name: name.to_owned(),
        deps: DepsSection {
            predicates: deps.preds.len(),
            sccs: deps.components.len(),
            strata: deps.stratum_count,
            stratified: deps.stratified,
            positive_loops: deps.positive_loops.clone(),
            non_tight_loops: deps.neg_positive_loops.clone(),
            pred_tight: deps.pred_tight,
            ground_tight: ground_tight(&ground),
        },
        size: SizeSection {
            predicted_rules: predicted,
            actual_rules: actual,
            divergence,
        },
        slice: SliceSection {
            statements: program.statements.len(),
            kept: slice.kept.len(),
            dropped: slice.dropped.len(),
            sliced_ground_rules: sliced_ground,
        },
        consequences: ConsequencesSection {
            atoms: wfm.len(),
            wfm_true: wfm.true_count,
            wfm_false: wfm.false_count,
            wfm_undefined: wfm.undefined_count(),
            total: wfm.total(),
            inconsistent: wfm.inconsistent,
            decided_fraction: wfm.decided_fraction(),
            rules_before: simplified.rules_before,
            rules_after: simplified.rules_after,
            tight_after_simplify: simplified.tight_after,
        },
        search,
        findings,
    })
}

/// Human-readable rendering of a report (the non-`--json` CLI output).
#[must_use]
pub fn render(r: &AnalyzeReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", r.name);
    let loops = |ls: &[Vec<String>]| {
        ls.iter()
            .map(|c| c.join(" <-> "))
            .collect::<Vec<_>>()
            .join("; ")
    };
    let _ = writeln!(
        out,
        "  dependencies: {} predicate(s), {} SCC(s), {} stratum(s), {}",
        r.deps.predicates,
        r.deps.sccs,
        r.deps.strata,
        if r.deps.stratified {
            "stratified"
        } else {
            "NOT stratified"
        }
    );
    if !r.deps.positive_loops.is_empty() {
        let _ = writeln!(out, "  positive loops: {}", loops(&r.deps.positive_loops));
    }
    if !r.deps.non_tight_loops.is_empty() {
        let _ = writeln!(
            out,
            "  non-tight loops through negation: {}",
            loops(&r.deps.non_tight_loops)
        );
    }
    let _ = writeln!(
        out,
        "  tightness: predicate-level {}, ground {} ({})",
        if r.deps.pred_tight {
            "tight"
        } else {
            "recursive"
        },
        if r.deps.ground_tight {
            "tight"
        } else {
            "NOT tight"
        },
        if r.deps.ground_tight {
            "solver fast path active"
        } else {
            "unfounded-set closure required"
        }
    );
    let _ = writeln!(
        out,
        "  grounding: predicted {:.1} rule(s), actual {}, divergence {}",
        r.size.predicted_rules,
        r.size.actual_rules,
        r.size
            .divergence
            .map_or_else(|| "n/a".to_owned(), |d| format!("{d:.2}x"))
    );
    let _ = writeln!(
        out,
        "  slice: {} statement(s), {} kept, {} dropped ({} ground rule(s) after slicing)",
        r.slice.statements, r.slice.kept, r.slice.dropped, r.slice.sliced_ground_rules
    );
    let c = &r.consequences;
    let verdict = if c.inconsistent {
        "INCONSISTENT: no stable model exists"
    } else if c.total {
        "total: solving needs no search"
    } else {
        "partial"
    };
    let _ = writeln!(
        out,
        "  consequences: {} atom(s), {} true / {} false / {} open ({:.0}% decided, {verdict})",
        c.atoms,
        c.wfm_true,
        c.wfm_false,
        c.wfm_undefined,
        c.decided_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "  simplify: {} -> {} rule(s), simplified program {}",
        c.rules_before,
        c.rules_after,
        if c.tight_after_simplify {
            "tight"
        } else {
            "NOT tight"
        }
    );
    let s = &r.search;
    let _ = writeln!(
        out,
        "  search: {} decision(s), {} conflict(s), {} restart(s), \
         {} propagation(s), {} learned nogood(s), {} model(s){}",
        s.decisions,
        s.conflicts,
        s.restarts,
        s.propagations,
        s.learned_nogoods,
        s.models,
        if s.budget_exhausted {
            " [budget exhausted]"
        } else if s.exhausted {
            " [exhausted]"
        } else {
            " [model cap]"
        }
    );
    if r.findings.is_empty() {
        let _ = writeln!(out, "  findings: none");
    } else {
        let _ = writeln!(out, "  findings:");
        for f in &r.findings {
            let line = f.line.map_or_else(String::new, |l| format!(" (line {l})"));
            let _ = writeln!(out, "    {}[{}]{line}: {}", f.severity, f.code, f.message);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_structure_prediction_and_slice() {
        let r = analyze_source(
            "t",
            "p(a). q(b). shadow(X) :- q(X). r(X) :- p(X). #show r/1.",
        )
        .unwrap();
        assert!(r.deps.stratified);
        assert!(r.deps.pred_tight && r.deps.ground_tight);
        assert_eq!(r.slice.dropped, 2);
        assert!(r.slice.sliced_ground_rules < r.size.actual_rules);
        assert_eq!(r.errors(), 0);
        let d = r.size.divergence.expect("both sides positive");
        assert!(d < 10.0, "tiny program predicts accurately, got {d}");
        assert_eq!(r.schema, ANALYZE_SCHEMA);
        // A stratified choice-free program is fully decided by the WFM.
        assert!(r.consequences.total && !r.consequences.inconsistent);
        assert!((r.consequences.decided_fraction - 1.0).abs() < f64::EPSILON);
        assert_eq!(r.consequences.wfm_true, 4, "p(a) q(b) shadow(b) r(a)");
        // Deterministic program: one model, no branching needed.
        assert_eq!(r.search.models, 1);
        assert!(r.search.exhausted);
        assert!(!r.search.budget_exhausted);
        assert!(r.search.propagations > 0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"schema\":\"cpsrisk-analyze/2\""));
        let back: AnalyzeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.slice.dropped, 2);
        assert_eq!(back.consequences.wfm_true, 4);
        assert_eq!(back.search.models, 1);
    }

    #[test]
    fn search_section_reports_real_branching_on_choice_programs() {
        let r = analyze_source("t", "{ a; b; c }. :- a, b. :- b, c.").unwrap();
        assert!(r.search.decisions > 0, "choices force branching");
        assert!(r.search.exhausted, "5 models, well under the cap");
        assert_eq!(r.search.models, 5, "2^3 minus the two excluded pairs");
        assert!(!r.search.budget_exhausted);
    }

    #[test]
    fn non_tight_programs_are_reported_as_such() {
        let r = analyze_source("t", "{ x }. a :- x. a :- b. b :- a.").unwrap();
        assert!(!r.deps.pred_tight);
        assert!(!r.deps.ground_tight);
        assert_eq!(
            r.deps.positive_loops,
            vec![vec!["a".to_owned(), "b".to_owned()]]
        );
        // The a/b loop is supported only through the choice on x, so the
        // WFM leaves all three atoms open...
        assert!(!r.consequences.total);
        assert_eq!(r.consequences.wfm_undefined, 3);
        // ...but simplification cannot break the supported loop: still
        // non-tight afterwards.
        assert!(!r.consequences.tight_after_simplify);
    }

    #[test]
    fn parse_errors_surface_as_findings_not_failures() {
        let r = analyze_source("t", "p(a\n").unwrap();
        assert_eq!(r.errors(), 1);
        assert_eq!(r.findings[0].code, "A000");
        assert_eq!(r.size.actual_rules, 0);
        assert_eq!(r.schema, ANALYZE_SCHEMA);
        assert_eq!(r.consequences.atoms, 0);
    }

    #[test]
    fn unknown_workload_error_lists_the_valid_names() {
        let err = Workload::parse("catalogue").unwrap_err();
        for w in Workload::ALL {
            assert!(
                err.contains(w.as_str()),
                "error should list `{}`: {err}",
                w.as_str()
            );
        }
        // The same registry feeds the CLI help strings.
        for w in Workload::ALL {
            assert!(Workload::names_usage().contains(w.as_str()));
            assert!(Workload::names_prose().contains(w.as_str()));
            assert_eq!(Workload::parse(w.as_str()), Ok(w));
        }
    }

    #[test]
    fn workload_programs_analyze_cleanly() {
        for w in Workload::ALL {
            let src = w.program(w.default_n().min(6)).to_string();
            let r = analyze_source(w.as_str(), &src).unwrap();
            assert_eq!(r.errors(), 0, "{}", w.as_str());
            assert!(r.size.actual_rules > 0, "{}", w.as_str());
        }
    }

    #[test]
    fn rendering_mentions_the_fast_path() {
        let r = analyze_source("prog.lp", "p(a). q(X) :- p(X).").unwrap();
        let text = render(&r);
        assert!(text.contains("== prog.lp =="));
        assert!(text.contains("solver fast path active"));
        assert!(text.contains("total: solving needs no search"));
        assert!(text.contains("search: "));
        assert!(text.contains("[exhausted]"));
        assert!(text.contains("findings: none"));
    }
}
