//! Semantic program analysis: dependency structure, grounding-size
//! prediction, and sound backward slicing.
//!
//! Three cooperating passes over a parsed (and optionally ground) program:
//!
//! * [`deps`] — the predicate dependency graph, SCC stratification,
//!   positive-loop detection, and tightness classification. The ground
//!   [`deps::unfounded_cone`] (the atoms on positive loops and everything
//!   positively derived from them) is the only part of the program
//!   [`Solver`](crate::solve::Solver) runs its unfounded-set closure over;
//!   an empty cone is the certificate [`deps::ground_tight`] that lets it
//!   skip the closure (Fages' theorem: on tight programs, supported models
//!   are stable models).
//! * [`size`] — grounding-size prediction by abstract interpretation:
//!   per-predicate domain-size bounds propagated through rule bodies
//!   (shared variables join, so each variable is counted once) down to a
//!   per-rule instantiation estimate. Backs lint codes `A009` (predicted
//!   grounding explosion) and `A010` (predicate never derivable).
//! * [`mod@slice`] — sound backward slicing: the rules relevant to
//!   constraints, `#minimize`, `#show`n predicates, and assumable
//!   signatures; [`Grounder`](crate::ground::Grounder) can drop the rest
//!   before grounding (see `Grounder::with_slicing`).
//! * [`wfm`] — the well-founded model: van Gelder's alternating fixpoint
//!   over the ground program, a polynomial-time 3-valued approximation
//!   that soundly bounds every stable model (and, in its conditional
//!   form, every stable model compatible with a set of assumptions).
//! * [`mod@simplify`] — ground-program simplification against the WFM
//!   backbone: true atoms become facts, refuted atoms and dead rules
//!   vanish, and the tightness certificate is re-derived on the result.

pub mod deps;
pub mod simplify;
pub mod size;
pub mod slice;
pub mod wfm;

pub use deps::{analyze_dependencies, ground_tight, unfounded_cone, DepAnalysis};
pub use simplify::{simplify, simplify_with, SimplifyResult};
pub use size::{predict_sizes, PredBound, RuleEstimate, SizePrediction, EXPLOSION_THRESHOLD};
pub use slice::{slice_program, Slice};
pub use wfm::{
    well_founded, well_founded_with, ConditionalWfm, Footprint, RegionModel, Truth, WfmResult,
    WfmWorkspace,
};
