//! Stable-model search: conflict-driven clause learning over the Clark
//! completion, model enumeration and branch-and-bound optimization.
//!
//! The default engine is a CDCL solver in the clasp tradition: the ground
//! program is translated once into *completion nogoods* (one body variable
//! per distinct rule body, support nogoods per atom), unit propagation runs
//! over two watched literals per nogood, conflicts are analyzed to the
//! first unique implication point (1UIP) producing asserting nogoods with
//! computed backjump levels, branching follows EVSIDS activity with phase
//! saving, and Luby-scheduled restarts with LBD-based learned-database
//! reduction keep the search and the clause store focused. Stability of
//! non-tight programs is enforced by an unfounded-set backstop at each
//! propagation fixpoint, run over the program's unfounded cone alone (the
//! atoms on positive loops and what they derive), and every complete
//! assignment is still verified with the independent [`check`] module's
//! resident [`StabilityAudit`](check::StabilityAudit) before it is
//! reported, so the engine's soundness rests on the textbook definition
//! rather than on the propagation code.

mod branch;
mod cdcl;

pub use cdcl::LearnedState;

use std::collections::HashSet;

use crate::ast::Atom;
use crate::check;
use crate::error::AspError;
use crate::program::{AtomId, GroundProgram, MinimizeLit};

/// Truth value during search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Val {
    Unknown,
    True,
    False,
}

/// An assumption literal: a ground atom fixed true or false for the
/// duration of one [`Solver::solve_with_assumptions`] call, or for the
/// solver's life as a base pin ([`Solver::with_base`]).
///
/// Assumptions are the multi-shot interface of the solver: a program is
/// grounded once with its scenario atoms left open (choice-supported, see
/// [`Grounder::assumable`](crate::ground::Grounder::assumable)), and each
/// query pins them at decision level 0 instead of re-grounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit {
    /// The assumed atom.
    pub atom: AtomId,
    /// `true` to assume the atom holds, `false` to assume it does not.
    pub positive: bool,
}

impl Lit {
    /// Assume the atom true.
    #[must_use]
    pub fn pos(atom: AtomId) -> Self {
        Lit {
            atom,
            positive: true,
        }
    }

    /// Assume the atom false.
    #[must_use]
    pub fn neg(atom: AtomId) -> Self {
        Lit {
            atom,
            positive: false,
        }
    }
}

/// Options controlling enumeration and optimization.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Maximum number of models to enumerate (0 = all).
    pub max_models: usize,
    /// Search budget: the sum of branching decisions **and conflicts** may
    /// not exceed this value; exceeding it aborts the call with
    /// [`AspError::SolveBudget`] carrying the partial statistics. Counting
    /// conflicts keeps the budget meaningful for CDCL, where a run can be
    /// conflict-bound with few decisions (restarts replay decisions
    /// cheaply, conflicts are the real work).
    pub max_decisions: u64,
    /// Emit a machine-checkable [`ProofLog`](crate::proof::ProofLog) for
    /// this call: every inference is appended to the solver's proof, and
    /// the call's verdict gets a terminal model / unsat step tagged with
    /// its assumptions. The first certified call drops any retained
    /// learned nogoods (they predate the log and could not be justified).
    /// Retrieve the log with [`Solver::proof`] or [`Solver::take_proof`]
    /// and validate it with [`check_proof`](crate::check::check_proof).
    pub certify: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_models: 0,
            max_decisions: 50_000_000,
            certify: false,
        }
    }
}

/// One answer set.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// All true atoms (sorted by display form).
    pub atoms: Vec<Atom>,
    /// Atoms under the `#show` projection (sorted by display form).
    pub shown: Vec<Atom>,
    /// Objective values per `#minimize` priority, higher priority first.
    pub cost: Vec<(i64, i64)>,
    ids: HashSet<AtomId>,
    /// Display forms of `atoms`, same (sorted) order — precomputed once so
    /// membership probes don't re-render every atom per comparison.
    keys: Vec<String>,
}

impl Model {
    /// True if the model contains the given atom.
    #[must_use]
    pub fn contains(&self, atom: &Atom) -> bool {
        let needle = atom.to_string();
        self.keys
            .binary_search_by(|k| k.as_str().cmp(&needle))
            .is_ok()
    }

    /// True if the model contains an atom whose display form equals `s`
    /// (whitespace-insensitive outside string constants, e.g. `"p(a, b)"`
    /// matches `p(a,b)` while `name("tank a")` keeps its inner space).
    #[must_use]
    pub fn contains_str(&self, s: &str) -> bool {
        // Display keys render string constants verbatim between quotes, so
        // toggling on every quote tracks exactly what the key holds.
        let mut needle = String::with_capacity(s.len());
        let mut quoted = false;
        for c in s.chars() {
            quoted ^= c == '"';
            if quoted || c == '"' || !c.is_whitespace() {
                needle.push(c);
            }
        }
        self.keys
            .binary_search_by(|k| k.as_str().cmp(&needle))
            .is_ok()
    }

    /// All true atoms of a predicate.
    #[must_use]
    pub fn atoms_of(&self, pred: &str) -> Vec<&Atom> {
        self.atoms.iter().filter(|a| a.pred == pred).collect()
    }

    /// The interned ids of the true atoms (solver-internal identities).
    #[must_use]
    pub fn ids(&self) -> &HashSet<AtomId> {
        &self.ids
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for a in &self.shown {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        Ok(())
    }
}

/// Result of an enumeration run.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The models found (all, up to `max_models`).
    pub models: Vec<Model>,
    /// True if the search space was exhausted (every model was found).
    pub exhausted: bool,
    /// Number of branching decisions made.
    pub decisions: u64,
    /// Number of propagated (non-decision and decision) assignments.
    pub propagations: u64,
    /// Conflicts hit during this call (propagation failures plus complete
    /// assignments that failed the stability check).
    pub conflicts: u64,
    /// Restarts performed during this call.
    pub restarts: u64,
}

/// A stable-model solver over one ground program.
///
/// [`Solver::new`] builds the CDCL engine: watched-literal propagation over
/// completion nogoods, 1UIP learning, EVSIDS branching with phase saving,
/// Luby restarts, LBD-managed learned database.
///
/// Level 0 is kept between calls in two segments. The *resident* one is
/// the closure of the WFM backbone, the static and learned units and the
/// solver's base pins, computed at the first call and then kept; the
/// *call* one holds a call's own pins and their closure, and is all the
/// next call undoes. So pins that every call of a stream shares belong in
/// the base, where they are paid for once.
#[derive(Debug)]
pub struct Solver<'a> {
    g: &'a GroundProgram,
    /// The unfounded cone of the ground program (see
    /// [`analysis::unfounded_cone`](crate::analysis::unfounded_cone)),
    /// indexed for the unfounded-set backstop, which runs over it alone.
    /// Empty when the program is tight; the backstop is then skipped.
    cone: cdcl::Cone,
    /// The independent stability audit of the ground program, built at
    /// the first complete assignment.
    audit: Option<check::StabilityAudit<'a>>,
    /// The complete assignment last audited, one truth value per atom.
    truth: Vec<bool>,
    /// The display tables of models, built at the first model or sorted
    /// atom list: existence queries never pay for them.
    tables: std::cell::OnceCell<ModelTables>,
    /// The base pins `(atom, assumed value)`: assumptions of every call,
    /// closed once in the resident level-0 segment.
    base: Vec<(u32, Val)>,
    /// The current call's assumption literals, the base pins first,
    /// assigned at decision level 0 and embedded in every learned nogood
    /// that depends on them, so the nogood stays valid under *different*
    /// assumptions later.
    assumptions: Vec<(u32, Val)>,
    decision_count: u64,
    propagation_count: u64,
    /// Conflicts hit during the current call.
    conflict_count: u64,
    /// Conflicts hit over the solver's whole lifetime — unlike
    /// `conflict_count` this survives the per-call reset, so a caller
    /// streaming many assumption queries can report aggregate statistics.
    lifetime_conflicts: u64,
    /// Assignments forced by learned nogoods during the current call.
    nogood_force_count: u64,
    /// Branches abandoned by the branch-and-bound prune hook (current call).
    bound_prune_count: u64,
    /// Restarts performed during the current call.
    restart_count: u64,
    /// Base restart interval in conflicts; the Luby sequence scales it.
    restart_interval: u64,
    /// The well-founded model of the ground program, computed once at
    /// construction. Sound for every solve call: its verdicts hold in
    /// every stable model regardless of assumptions.
    wfm: crate::analysis::wfm::WfmResult,
    /// The WFM verdicts as level-0 assignments, pre-flattened so each
    /// solve call replays them without re-walking the truth vector. When
    /// the WFM is total the seeds decide every atom and the search
    /// returns without a single decision.
    wfm_seeds: Vec<(u32, Val)>,
    /// The CDCL engine state.
    cdcl: cdcl::Cdcl,
    /// The active proof log (certified solving only).
    /// While present, every engine inference is appended — including those
    /// of interleaved uncertified calls, so learned-nogood retention
    /// across a multi-shot stream stays checkable.
    proof: Option<crate::proof::ProofLog>,
    /// The current call claims its verdicts in the proof (set by
    /// [`SolveOptions::certify`]; terminal steps are gated on it).
    certify_call: bool,
    /// Certified calls begun since the proof was (re)initialized.
    call_seq: u32,
}

/// What building models reads, per atom.
#[derive(Debug)]
struct ModelTables {
    /// Display form of every atom, rendered once; model building clones
    /// these instead of re-rendering per model.
    display: Vec<String>,
    /// All atom ids ordered by display form, so each model's sorted atom
    /// list is a filtered scan instead of a per-model sort.
    sorted_ids: Vec<u32>,
    /// Per atom: passes the `#show` projection.
    shown_flags: Vec<bool>,
}

impl ModelTables {
    fn new(program: &GroundProgram) -> Self {
        let n_atoms = program.atom_count() as u32;
        let display: Vec<String> = program.atoms().map(|(_, a)| a.to_string()).collect();
        let mut sorted_ids: Vec<u32> = (0..n_atoms).collect();
        sorted_ids.sort_by(|&a, &b| display[a as usize].cmp(&display[b as usize]));
        let shown_flags: Vec<bool> = (0..n_atoms).map(|i| program.shown(AtomId(i))).collect();
        ModelTables {
            display,
            sorted_ids,
            shown_flags,
        }
    }
}

impl<'a> Solver<'a> {
    /// Create a CDCL solver for a ground program.
    #[must_use]
    pub fn new(program: &'a GroundProgram) -> Self {
        Self::with_base(program, &[])
    }

    /// Create a CDCL solver whose every call assumes the `base` pins as
    /// well as its own. The base's level-0 closure is computed at the
    /// first call and kept, so a call pays only for its own pins. Base
    /// pins are assumptions like any other: learned nogoods that depend on
    /// them carry them, each certified call's proof step lists them, and a
    /// base that the program refutes makes every call UNSAT.
    #[must_use]
    pub fn with_base(program: &'a GroundProgram, base: &[Lit]) -> Self {
        let wfm = crate::analysis::well_founded(program);
        Solver {
            g: program,
            cone: cdcl::Cone::build(program),
            audit: None,
            truth: Vec::new(),
            tables: std::cell::OnceCell::new(),
            base: base.iter().map(|&l| cdcl::pinned(l)).collect(),
            assumptions: Vec::new(),
            decision_count: 0,
            propagation_count: 0,
            conflict_count: 0,
            lifetime_conflicts: 0,
            nogood_force_count: 0,
            bound_prune_count: 0,
            restart_count: 0,
            restart_interval: 100,
            wfm_seeds: wfm
                .true_atoms()
                .map(|id| (id.0, Val::True))
                .chain(wfm.false_atoms().map(|id| (id.0, Val::False)))
                .collect(),
            wfm,
            cdcl: cdcl::Cdcl::build(program),
            proof: None,
            certify_call: false,
            call_seq: 0,
        }
    }

    /// Append a step to the active proof log, if any.
    pub(crate) fn plog(&mut self, step: crate::proof::ProofStep) {
        if let Some(p) = self.proof.as_mut() {
            p.push(step);
        }
    }

    /// The proof log accumulated by certified calls, if any.
    #[must_use]
    pub fn proof(&self) -> Option<&crate::proof::ProofLog> {
        self.proof.as_ref()
    }

    /// Detach and return the accumulated proof log. The next certified
    /// call starts a fresh log (dropping retained learned nogoods again,
    /// since the new log could not justify them).
    pub fn take_proof(&mut self) -> Option<crate::proof::ProofLog> {
        self.certify_call = false;
        self.proof.take()
    }

    /// Number of branching decisions made during the last call.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decision_count
    }

    /// Number of assignments propagated during the last call (including
    /// decisions).
    #[must_use]
    pub fn propagations(&self) -> u64 {
        self.propagation_count
    }

    /// Number of learned conflict nogoods currently retained.
    #[must_use]
    pub fn learned_nogoods(&self) -> usize {
        self.cdcl.learned_count()
    }

    /// Conflicts hit over the solver's whole lifetime (across every
    /// assumption call since construction).
    #[must_use]
    pub fn total_conflicts(&self) -> u64 {
        self.lifetime_conflicts
    }

    /// Assignments forced by learned nogoods during the last call.
    #[must_use]
    pub fn nogood_propagations(&self) -> u64 {
        self.nogood_force_count
    }

    /// Branches abandoned by branch-and-bound pruning during the last call.
    #[must_use]
    pub fn bound_prunes(&self) -> u64 {
        self.bound_prune_count
    }

    /// Restarts performed during the last call.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restart_count
    }

    /// Set the base restart interval in conflicts (default 100). The k-th
    /// restart fires after `luby(k) * interval` conflicts since the last
    /// one. Restarts are disabled during model enumeration once the first
    /// model is found (exhaustiveness relies on the flip trail).
    pub fn set_restart_interval(&mut self, conflicts: u64) {
        self.restart_interval = conflicts.max(1);
    }

    /// Whether this solver holds a tightness certificate for its ground
    /// program: its unfounded cone is empty, that is, the atom-level
    /// positive dependency graph is acyclic, so supported models are
    /// stable models (Fages' theorem) and the unfounded-set backstop can
    /// be skipped — the completion nogoods already enforce supportedness.
    #[must_use]
    pub fn tight(&self) -> bool {
        self.cone.is_empty()
    }

    /// Drop every retained learned nogood (e.g. to measure their effect).
    pub fn clear_learned(&mut self) {
        self.log_learned_clear();
        self.cdcl.clear_learned();
    }

    /// The well-founded model computed at construction. Its true/false
    /// verdicts hold in every stable model, so callers can answer
    /// cautious/brave membership for decided atoms without searching.
    #[must_use]
    pub fn wfm(&self) -> &crate::analysis::wfm::WfmResult {
        &self.wfm
    }

    /// Per-call setup shared by every solve entry point: zero the call's
    /// counters, restore the resident level-0 segment (building it at the
    /// first call, where its work counts towards that call), then pin the
    /// call's assumptions at level 0 and close them. False means the search
    /// space is empty before the first decision.
    fn prepare(&mut self, assumptions: &[Lit], opts: &SolveOptions) -> Result<bool, AspError> {
        self.decision_count = 0;
        self.propagation_count = 0;
        self.conflict_count = 0;
        self.nogood_force_count = 0;
        self.bound_prune_count = 0;
        self.restart_count = 0;
        self.prepare_cdcl(assumptions, opts)
    }

    /// The current truth value of an atom.
    fn value(&self, atom: AtomId) -> Val {
        self.cdcl.val[atom.index()]
    }

    /// Enumerate answer sets (ignoring `#minimize`).
    ///
    /// # Errors
    ///
    /// [`AspError::SolveBudget`] if the search budget is exceeded.
    pub fn enumerate(&mut self, opts: &SolveOptions) -> Result<SolveResult, AspError> {
        self.solve_with_assumptions(&[], opts)
    }

    /// Enumerate answer sets with the given atoms fixed at decision level 0,
    /// on top of the solver's base pins.
    ///
    /// Each call undoes the last call's pins, search and counters, back to
    /// the resident level-0 segment, so one instance answers any number of
    /// assumption sets over the same ground program; learned conflict
    /// nogoods are **retained** across calls and keep pruning later
    /// queries. Contradictory assumptions (or assumptions the program
    /// refutes outright) yield zero models with `exhausted = true`.
    ///
    /// # Errors
    ///
    /// [`AspError::SolveBudget`] if the search budget is exceeded.
    pub fn solve_with_assumptions(
        &mut self,
        assumptions: &[Lit],
        opts: &SolveOptions,
    ) -> Result<SolveResult, AspError> {
        let mut models = Vec::new();
        let exhausted = self.solve_call(assumptions, opts, &mut |s| {
            models.push(s.build_model());
            opts.max_models == 0 || models.len() < opts.max_models
        })?;
        Ok(SolveResult {
            models,
            exhausted,
            decisions: self.decision_count,
            propagations: self.propagation_count,
            conflicts: self.conflict_count,
            restarts: self.restart_count,
        })
    }

    /// Whether a stable model exists under the assumptions: the search of
    /// [`Solver::solve_with_assumptions`] stopped at the first model, whose
    /// candidate passes the same independent stability check, but no
    /// [`Model`] is built. The per-call counters and the proof steps (with
    /// [`SolveOptions::certify`]) are those of that call with
    /// `max_models = 1`.
    ///
    /// # Errors
    ///
    /// [`AspError::SolveBudget`] if the search budget is exceeded.
    pub fn has_model_with_assumptions(
        &mut self,
        assumptions: &[Lit],
        opts: &SolveOptions,
    ) -> Result<bool, AspError> {
        let mut found = false;
        self.solve_call(assumptions, opts, &mut |_| {
            found = true;
            false
        })?;
        Ok(found)
    }

    /// One solve call: begin the proof scope, pin the assumptions, search
    /// with `on_model`, and log the unsat verdict of an exhausted search
    /// that found nothing. Returns whether the search was exhausted.
    fn solve_call(
        &mut self,
        assumptions: &[Lit],
        opts: &SolveOptions,
        on_model: &mut dyn FnMut(&Self) -> bool,
    ) -> Result<bool, AspError> {
        if opts.certify {
            self.begin_certified_call(assumptions);
        } else {
            self.certify_call = false;
        }
        let mut found = false;
        let exhausted = if self.prepare(assumptions, opts)? {
            self.search(
                opts,
                &mut |s| {
                    found = true;
                    on_model(s)
                },
                &mut |_| false,
            )?
        } else {
            true // assumptions contradict each other: empty search space
        };
        if self.certify_call && exhausted && !found {
            self.plog(crate::proof::ProofStep::Unsat);
        }
        Ok(exhausted)
    }

    /// Find one optimal model w.r.t. the program's `#minimize` statements
    /// by branch-and-bound: partial assignments whose highest-priority cost
    /// lower bound cannot beat the incumbent are pruned. Returns `None`
    /// for inconsistent programs. With no `#minimize` statements this
    /// returns the first model found.
    ///
    /// # Errors
    ///
    /// [`AspError::SolveBudget`] if the search budget is exceeded.
    pub fn optimize(&mut self, opts: &SolveOptions) -> Result<Option<Model>, AspError> {
        self.optimize_with_assumptions(&[], opts)
    }

    /// [`Solver::optimize`] with atoms fixed at decision level 0; see
    /// [`Solver::solve_with_assumptions`] for the reuse contract. Returns
    /// `None` when the assumptions are contradictory or the program has no
    /// stable model under them.
    ///
    /// # Errors
    ///
    /// [`AspError::SolveBudget`] if the search budget is exceeded.
    pub fn optimize_with_assumptions(
        &mut self,
        assumptions: &[Lit],
        opts: &SolveOptions,
    ) -> Result<Option<Model>, AspError> {
        if opts.certify {
            self.begin_certified_call(assumptions);
        } else {
            self.certify_call = false;
        }
        if !self.prepare(assumptions, opts)? {
            if self.certify_call {
                self.plog(crate::proof::ProofStep::Unsat);
            }
            return Ok(None);
        }
        if self.g.minimize.is_empty() {
            let mut found = None;
            self.search(
                opts,
                &mut |s| {
                    found = Some(s.build_model());
                    false
                },
                &mut |_| false,
            )?;
            if self.certify_call && found.is_none() {
                self.plog(crate::proof::ProofStep::Unsat);
            }
            return Ok(found);
        }
        // Lower bounds are only sound for pruning at the highest priority;
        // with several priorities we prune on strict first-component
        // dominance only.
        let single_priority = self.g.minimize.len() == 1;
        let first_lits: Vec<MinimizeLit> = self.g.minimize[0].1.clone();
        let mut best: Option<Model> = None;
        // Shared between the model callback (writer) and the prune hook
        // (reader) without aliasing conflicts.
        let incumbent = std::cell::Cell::new(None::<i64>);
        self.search(
            opts,
            &mut |s| {
                let m = s.build_model();
                let better = match &best {
                    None => true,
                    Some(b) => cost_vec(&m) < cost_vec(b),
                };
                if better {
                    incumbent.set(m.cost.first().map(|(_, c)| *c));
                    best = Some(m);
                }
                true
            },
            &mut |solver| {
                let Some(bound) = incumbent.get() else {
                    return false;
                };
                let lb = solver.first_priority_lower_bound(&first_lits);
                lb > bound || (single_priority && lb >= bound)
            },
        )?;
        if self.certify_call && best.is_none() {
            self.plog(crate::proof::ProofStep::Unsat);
        }
        Ok(best)
    }

    /// Lower bound of the highest-priority objective under the current
    /// partial assignment: definitely-satisfied elements count fully;
    /// still-open negative-weight elements are assumed to fire.
    fn first_priority_lower_bound(&self, lits: &[MinimizeLit]) -> i64 {
        use std::collections::HashMap;
        // Key -> (definite, open_with_negative_weight, weight)
        let mut per_key: HashMap<(i64, &[crate::ast::Term]), (bool, bool)> = HashMap::new();
        for l in lits {
            let impossible = l.pos.iter().any(|&p| self.value(p) == Val::False)
                || l.neg.iter().any(|&q| self.value(q) == Val::True);
            if impossible {
                continue;
            }
            let definite = l.pos.iter().all(|&p| self.value(p) == Val::True)
                && l.neg.iter().all(|&q| self.value(q) == Val::False);
            let entry = per_key
                .entry((l.weight, l.tuple.as_slice()))
                .or_insert((false, false));
            entry.0 |= definite;
            entry.1 |= !definite && l.weight < 0;
        }
        per_key
            .into_iter()
            .map(|((w, _), (definite, open_neg))| if definite || open_neg { w } else { 0 })
            .sum()
    }

    /// Brave consequences: atoms true in **some** answer set.
    ///
    /// Maintains a running union over the enumeration, marking membership
    /// by [`AtomId`] instead of materializing models and stringifying
    /// atoms. WFM-false atoms bound the union from above: once every atom
    /// the WFM does not refute has appeared, enumeration stops early.
    ///
    /// # Errors
    ///
    /// [`AspError::SolveBudget`] if the search budget is exceeded.
    pub fn brave(&mut self, opts: &SolveOptions) -> Result<Vec<Atom>, AspError> {
        self.certify_call = false; // brave reasoning is never certified
        if !self.prepare(&[], opts)? {
            return Ok(Vec::new());
        }
        let n = self.g.atom_count();
        let cap = n - self.wfm.false_count;
        let mut in_some = vec![false; n];
        let mut marked = 0usize;
        let mut models_seen = 0usize;
        self.search(
            opts,
            &mut |s| {
                models_seen += 1;
                for (i, &t) in s.truth.iter().enumerate() {
                    if t && !in_some[i] {
                        in_some[i] = true;
                        marked += 1;
                    }
                }
                marked < cap && (opts.max_models == 0 || models_seen < opts.max_models)
            },
            &mut |_| false,
        )?;
        Ok(self.collect_sorted(&in_some))
    }

    /// Cautious consequences: atoms true in **every** answer set
    /// (empty if the program is inconsistent).
    ///
    /// Maintains a running intersection over the enumeration (by
    /// [`AtomId`], no per-model materialization) and stops as soon as it
    /// can no longer shrink: the intersection never drops below the WFM
    /// backbone, so reaching it — the empty set on programs with no
    /// backbone — ends the search early.
    ///
    /// # Errors
    ///
    /// [`AspError::SolveBudget`] if the search budget is exceeded.
    pub fn cautious(&mut self, opts: &SolveOptions) -> Result<Vec<Atom>, AspError> {
        self.certify_call = false; // cautious reasoning is never certified
        if !self.prepare(&[], opts)? {
            return Ok(Vec::new());
        }
        let floor = self.wfm.true_count;
        let mut candidates: Option<Vec<AtomId>> = None;
        let mut models_seen = 0usize;
        self.search(
            opts,
            &mut |s| {
                models_seen += 1;
                match &mut candidates {
                    None => candidates = Some(s.true_atoms().collect()),
                    Some(c) => c.retain(|id| s.truth[id.index()]),
                }
                candidates.as_ref().expect("just set").len() > floor
                    && (opts.max_models == 0 || models_seen < opts.max_models)
            },
            &mut |_| false,
        )?;
        let mut in_all = vec![false; self.g.atom_count()];
        for id in candidates.unwrap_or_default() {
            in_all[id.index()] = true;
        }
        Ok(self.collect_sorted(&in_all))
    }

    /// The model-rendering tables, built at first use.
    fn tables(&self) -> &ModelTables {
        self.tables.get_or_init(|| ModelTables::new(self.g))
    }

    /// The marked atoms in display order (the order models print in).
    fn collect_sorted(&self, marked: &[bool]) -> Vec<Atom> {
        self.tables()
            .sorted_ids
            .iter()
            .filter(|&&i| marked[i as usize])
            .map(|&i| self.g.atom(AtomId(i)).clone())
            .collect()
    }

    /// Audit the complete current assignment with the independent
    /// stability check, leaving its truth values in `truth`.
    fn check_candidate(&mut self) -> bool {
        let n = self.g.atom_count();
        self.truth.clear();
        self.truth
            .extend(self.cdcl.val[..n].iter().map(|&v| v == Val::True));
        let g = self.g;
        self.audit
            .get_or_insert_with(|| check::StabilityAudit::new(g))
            .is_stable(&self.truth)
    }

    /// The true atoms of the last audited assignment, ascending.
    fn true_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        (0..self.truth.len() as u32)
            .filter(|&a| self.truth[a as usize])
            .map(AtomId)
    }

    /// The last audited assignment as a [`Model`].
    fn build_model(&self) -> Model {
        // Walk the precomputed display order, so the member atoms, their
        // display keys (the binary-search index of `Model::contains`) and
        // the shown projection all come out sorted with no per-model sort
        // or re-rendering.
        let tables = self.tables();
        let mut keys = Vec::new();
        let mut atoms = Vec::new();
        let mut shown = Vec::new();
        for &ai in &tables.sorted_ids {
            if !self.truth[ai as usize] {
                continue;
            }
            let id = AtomId(ai);
            keys.push(tables.display[ai as usize].clone());
            atoms.push(self.g.atom(id).clone());
            if tables.shown_flags[ai as usize] {
                shown.push(self.g.atom(id).clone());
            }
        }
        Model {
            atoms,
            shown,
            cost: self.model_cost(),
            ids: self.true_atoms().collect(),
            keys,
        }
    }

    /// Objective values of the last audited assignment per `#minimize`
    /// priority.
    fn model_cost(&self) -> Vec<(i64, i64)> {
        let holds = |a: &AtomId| self.truth[a.index()];
        self.g
            .minimize
            .iter()
            .map(|(prio, lits)| {
                // Set semantics: identical (weight, tuple) keys count once.
                let mut counted: HashSet<(i64, &[crate::ast::Term])> = HashSet::new();
                let mut total = 0i64;
                for l in lits {
                    let holds = l.pos.iter().all(holds) && !l.neg.iter().any(holds);
                    if holds && counted.insert((l.weight, l.tuple.as_slice())) {
                        total += l.weight;
                    }
                }
                (*prio, total)
            })
            .collect()
    }

    /// Budget check: decisions **plus conflicts**
    /// against `max_decisions`, reporting the partial statistics on abort.
    fn check_budget(&self, opts: &SolveOptions) -> Result<(), AspError> {
        if self.decision_count + self.conflict_count > opts.max_decisions {
            return Err(AspError::SolveBudget {
                limit: opts.max_decisions,
                decisions: self.decision_count,
                conflicts: self.conflict_count,
            });
        }
        Ok(())
    }
}

/// Lexicographic cost vector (higher priorities first) for comparisons.
fn cost_vec(m: &Model) -> Vec<i64> {
    m.cost.iter().map(|(_, c)| *c).collect()
}

#[cfg(test)]
mod tests;
