#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `cpsrisk` — preliminary risk and mitigation assessment in
//! cyber-physical systems.
//!
//! This crate is the facade over the full framework of the paper (Fig. 1):
//!
//! 1. **System model** — [`cpsrisk_model`]: ArchiMate-style layered models,
//!    aspect merging, component-type libraries, hierarchical refinement;
//! 2. **Candidate system mutations** — [`cpsrisk_epa::mutation`] +
//!    [`cpsrisk_threat`]: fault modes from type libraries and attack-induced
//!    faults from CVE/CWE/CAPEC/ATT&CK-shaped catalogs;
//! 3. **Reasoning** — [`cpsrisk_asp`] (a from-scratch ASP engine) and
//!    [`cpsrisk_temporal`] (LTLf requirements, Telingo-style unrolling);
//! 4. **Hazard identification** — [`cpsrisk_epa`]: exhaustive qualitative
//!    error-propagation analysis, topology-based and behavioural;
//! 5. **Model refinement** — [`cpsrisk_epa::cegar`]: CEGAR-style spurious
//!    hazard elimination;
//! 6. **Quantitative risk analysis** — [`cpsrisk_risk`]: O-RA matrix, FAIR
//!    factors, IEC 61508 classes, rough sets, sensitivity;
//! 7. **Mitigation strategy** — [`cpsrisk_mitigation`]: cost-benefit
//!    optimization and multi-phase consolidation.
//!
//! The [`pipeline::Assessment`] type drives all seven steps;
//! [`casestudy`] ships the paper's water-tank system (Table II regenerates
//! from [`casestudy::table_ii`]); [`hierarchy`] implements the Fig. 3
//! hierarchical evaluation focuses.
//!
//! # Quickstart
//!
//! ```
//! use cpsrisk::casestudy;
//! use cpsrisk::pipeline::Assessment;
//!
//! let problem = casestudy::water_tank_problem(&["m1", "m2"])?;
//! let report = Assessment::new(problem).run()?;
//! assert!(report.hazards.iter().all(|h| !h.outcome.scenario.contains("f4")),
//!         "with both mitigations active the workstation attack is blocked");
//! # Ok::<(), cpsrisk::CoreError>(())
//! ```

pub mod analyze;
pub mod behavioral_casestudy;
pub mod casestudy;
pub mod error;
pub mod hierarchy;
pub mod pipeline;
pub mod report;
pub mod uncertain;

pub use error::CoreError;
pub use pipeline::{Assessment, AssessmentReport, RatedHazard};

// Re-export the sub-crates under stable names.
pub use cpsrisk_asp as asp;
pub use cpsrisk_epa as epa;
pub use cpsrisk_fta as fta;
pub use cpsrisk_mitigation as mitigation;
pub use cpsrisk_model as model;
pub use cpsrisk_plant as plant;
pub use cpsrisk_qr as qr;
pub use cpsrisk_risk as risk;
pub use cpsrisk_temporal as temporal;
pub use cpsrisk_threat as threat;
