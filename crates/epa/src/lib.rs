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
//! * [`incremental`] — assumption-based multi-shot analysis: one shared
//!   ground program answers every fixed scenario (and every sensitivity
//!   variant) as an assumption set on a reused solver,
//! * [`cegar`] — CEGAR-style refinement: eliminate spurious hazards found
//!   at the abstract level by consulting a concrete oracle, never dropping
//!   a real hazard,
//! * [`sensitivity`] — modeling-decision sensitivity analysis (§II-A),
//! * [`parallel`] — sharded multi-threaded scenario sweeps with
//!   deterministic (input-order) results,
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
pub mod incremental;
pub mod margin;
pub mod mutation;
pub mod parallel;
pub mod problem;
pub mod scenario;
pub mod sensitivity;
pub mod topology;
pub mod workload;

pub use attack_path::{shortest_attack_paths, AttackPath};
pub use cegar::{refine_hazards, refine_hazards_parallel, AspOracle, CegarResult, ConcreteOracle};
pub use encode::{
    analyze_exhaustive, analyze_fixed, cheapest_attack, encode, EncodeMode, ExhaustiveAnalysis,
};
pub use error::EpaError;
pub use horizon::{
    check_horizon_scratch, check_horizon_sweep, HorizonReport, HorizonRow, HorizonSession,
    RequirementVerdict,
};
pub use incremental::{CertifySummary, IncrementalAnalysis};
pub use margin::AttackMargin;
pub use mutation::{inject_mutations, screen_mutations, CandidateMutation, MutationSource};
pub use parallel::{sweep_fixed, SweepOptions, SweepStats};
pub use problem::{EpaProblem, MitigationOption, Requirement};
pub use scenario::{Scenario, ScenarioOutcome, ScenarioSpace};
pub use sensitivity::{
    sensitivity_sweep, sensitivity_sweep_incremental, sensitivity_sweep_parallel, Decision,
    SensitivityFinding,
};
pub use topology::TopologyAnalysis;
pub use workload::{
    catalog_margin_budget, catalog_problem, catalog_queries, catalog_requirements_ranked,
    catalog_zone_count, temporal_tank_base, temporal_tank_min_violating, temporal_tank_problem,
    temporal_tank_requirements, temporal_tank_step, CatalogAnalysis, CatalogAnswer, CatalogQuery,
};
