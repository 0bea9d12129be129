#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Qualitative error-propagation analysis (EPA) — the core of the paper.
//!
//! EPA assesses the **system-level impact of local attacks and faults**: a
//! fault mode activated on one component propagates along the interaction
//! structure of the merged model and may end up violating system safety
//! requirements. This crate implements the full pipeline of Fig. 1,
//! steps 2–5:
//!
//! * [`mutation`] — *candidate system mutations* (step 2): inject fault
//!   modes from component-type libraries and attack-induced fault modes
//!   from the threat catalogs into a system model,
//! * [`problem`] — the merged analysis problem: model + mutations +
//!   requirements + mitigation options,
//! * [`topology`] — topology-based propagation: a direct fixpoint engine
//!   over the propagation edges (the *preliminary* evaluation focus of the
//!   hierarchical method),
//! * [`encode`](mod@encode) — the ASP encoding of the same problem (the hidden formal
//!   method), supporting fixed-scenario evaluation and exhaustive
//!   choice-based scenario enumeration with `#minimize`/`#maximize`
//!   objectives,
//! * [`behavioral`] — detailed propagation analysis: per-component
//!   qualitative state machines unrolled over time in ASP (Listing 2
//!   semantics for stuck-at faults),
//! * [`session`] — the resident multi-shot analysis: shared ground
//!   programs answer every outcome and attack-margin [`Query`] as an
//!   assumption set on reused solvers, one query at a time or in pooled
//!   sweeps,
//! * [`cegar`] — CEGAR-style refinement: eliminate spurious hazards found
//!   at the abstract level by consulting a concrete oracle, never dropping
//!   a real hazard,
//! * [`sensitivity`] — modeling-decision sensitivity analysis (§II-A),
//! * [`vocab`] — one per-problem vocabulary of interned names, and the
//!   compact id sets an outcome holds over it,
//! * [`parallel`] — the sweep scheduler: one memory-bounded worker pool
//!   with deterministic (input-order) results,
//! * [`workload`] — parametric benchmark problem generators.
//!
//! The direct engine and the ASP encoding are **cross-checked** in the
//! integration tests: both must report the same violated requirements for
//! every scenario of the case study.

pub mod attack_path;
pub mod behavioral;
pub mod cegar;
pub mod encode;
pub mod error;
pub mod horizon;
pub mod mutation;
pub mod parallel;
pub mod problem;
pub mod scenario;
pub mod sensitivity;
pub mod session;
pub mod topology;
pub mod vocab;
pub mod workload;

pub use attack_path::{shortest_attack_paths, AttackPath};
pub use cegar::{refine_hazards, AspOracle, CegarResult, ConcreteOracle};
pub use encode::{analyze_exhaustive, analyze_fixed, encode, EncodeMode, ExhaustiveAnalysis};
pub use error::EpaError;
pub use horizon::{
    check_horizon_scratch, check_horizon_sweep, HorizonReport, HorizonRow, HorizonSession,
    RequirementVerdict,
};
pub use mutation::{inject_mutations, screen_mutations, CandidateMutation, MutationSource};
pub use parallel::{SweepOptions, SweepStats};
pub use problem::{EpaProblem, MitigationOption, Requirement};
pub use scenario::{minimal_hazards, Scenario, ScenarioOutcome, ScenarioSpace};
pub use sensitivity::{sensitivity_sweep, Decision, SensitivityFinding};
pub use session::{Answer, CertifySummary, Query, Session, Solvers};
#[doc(hidden)]
pub use session::{CatalogAnalysis, CatalogAnswer, CatalogQuery};
pub use topology::TopologyAnalysis;
pub use vocab::{IdKind, IdSet, ModeIds, ModeSet, RequirementIds, RequirementSet, Vocabulary};
pub use workload::{
    catalog_margin_budget, catalog_problem, catalog_queries, catalog_requirements_ranked,
    catalog_zone_count, temporal_tank_base, temporal_tank_min_violating, temporal_tank_problem,
    temporal_tank_requirements, temporal_tank_step,
};
