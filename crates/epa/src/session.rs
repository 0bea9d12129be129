//! One resident analysis session: shared ground programs answering every
//! outcome and attack-margin query as an assumption set.
//!
//! Every fixed-scenario query against the same [`EpaProblem`] solves a
//! near-identical ASP program — only the handful of `scenario_fault/1`
//! facts differ. A [`Session`] therefore encodes and grounds the problem
//! **once** and pins each query's toggles with assumption literals, in the
//! style of clingo's multi-shot interface. Reused [`Solver`]s carry their
//! learned conflict nogoods from call to call.
//!
//! Two query kinds share the session:
//!
//! * [`Query::Outcome`] — the propagation outcome of one scenario, over
//!   the [`EncodeMode::Assumable`] program. Every toggle is pinned, so the
//!   conditional well-founded model usually decides it without search.
//!   That model is resident too: a [`ConditionalWfm`] solved once under
//!   the nominal scenario. [`Session::new`] answers each fault's
//!   one-fault query on it once and keeps the query's [`Footprint`], with
//!   the outcome ids whose value it changes. A query whose faults'
//!   footprints compose (see the composition rule in
//!   [`cpsrisk_asp::analysis::wfm`]) is the nominal outcome with those
//!   changes applied, with no fixpoint. Any other query hands the model
//!   only the `scenario_fault/1` pins it switches on, in the
//!   [`WfmWorkspace`] each sweep worker keeps, and recomputes only the
//!   atoms downstream of its faults (on the `sweep` benchmark's plants,
//!   about 70 of 2,200 atoms); its outcome is the nominal outcome with the
//!   region's `affected/2` and `violated/1` atoms read again. Both read
//!   atoms as [`Vocabulary`] ids decoded once per session. On the first
//!   `sweep` plant 9,387 of its 9,454 outcome queries compose, and the
//!   9,454 take about 0.45 µs each on a worker's reused state, against
//!   about 4.7 µs each on the region path (one thread, 2-vCPU host; see
//!   `EXPERIMENTS.md`). Debug builds check every composed outcome against
//!   the region path. An answer copies no name: the scenario, and one
//!   bitset each of effective pairs and violated requirements over the
//!   session's vocabulary, about 160 bytes in 5 heap blocks (a tree of
//!   strings took about 4.2 KB in 104 blocks).
//! * [`Query::Margin`] — can an attacker with `budget` extra faults,
//!   on top of the pinned scenario, violate a requirement? Answered over
//!   the [`EncodeMode::Contested`] program, whose bounded `chosen/1`
//!   choice stays open: a SAT call, and UNSAT answers take conflict-driven
//!   search (the catalog workload makes them pigeonhole-hard). Margin
//!   queries give catalog sweeps their cheap-vs-expensive skew.
//!
//! This module is the only one besides [`encode`](mod@crate::encode) that
//! knows the assumable vocabulary (`scenario_fault/1`, `fault_enabled/1`,
//! `active_mitigation/2`, `target/1`).

use std::borrow::Borrow;
use std::sync::Arc;

use cpsrisk_asp::ast::Term;
use cpsrisk_asp::{
    check_proof, AspError, AtomId, ConditionalWfm, Footprint, GroundProgram, Grounder, Lit,
    SolveOptions, Solver, WfmWorkspace,
};

use crate::encode::{encode, EncodeMode};
use crate::error::EpaError;
use crate::parallel::{run_pool, SweepOptions, SweepStats};
use crate::problem::EpaProblem;
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::vocab::{ModeSet, RequirementSet, Vocabulary};

/// One unit of session work: a fixed-scenario outcome query (usually
/// WFM-decided, microseconds) or an attack-margin query (a SAT call,
/// potentially pigeonhole-hard).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Evaluate the scenario's propagation outcome.
    Outcome(Scenario),
    /// Can the attacker extend `scenario` within the session's budget to
    /// violate `requirement`?
    Margin {
        /// The pinned starting scenario.
        scenario: Scenario,
        /// The targeted requirement id.
        requirement: String,
    },
}

/// The answer to a [`Query`], same variant order.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Propagation outcome of a [`Query::Outcome`] query.
    Outcome(ScenarioOutcome),
    /// Attack existence for a [`Query::Margin`] query.
    Margin(bool),
}

impl Answer {
    /// The outcome of an outcome query's answer.
    pub(crate) fn into_outcome(self) -> ScenarioOutcome {
        match self {
            Answer::Outcome(o) => o,
            Answer::Margin(_) => unreachable!("an outcome query is answered with an outcome"),
        }
    }
}

/// What [`Session::sweep_certified`] verified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertifySummary {
    /// Queries re-solved under proof logging and audited.
    pub checked: usize,
    /// Steps in the accumulated multi-shot certificates.
    pub proof_steps: usize,
    /// Models the independent checker fully audited.
    pub models_audited: usize,
    /// Unsatisfiable verdicts (refuted margins) the checker re-derived.
    pub unsats: usize,
}

/// A resident ground program with its assumable atoms classified.
#[doc(hidden)]
pub struct Resident {
    ground: Arc<GroundProgram>,
    /// The nominal assumption set: one literal per atom of
    /// `ground.assumable`, in that order, for the fault-free scenario and
    /// no target. `fault_enabled/1` is pinned true, `active_mitigation/2`
    /// to the problem's baseline activation, everything else false.
    nominal: Vec<Lit>,
    /// Position in `nominal` of each fault's `scenario_fault/1` atom, by
    /// the fault's vocabulary id.
    faults: Vec<Option<u32>>,
    /// Position in `nominal` of each requirement's `target/1` atom, by the
    /// requirement's vocabulary id.
    targets: Vec<Option<u32>>,
}

impl Resident {
    /// Encode and ground `problem` under `mode`; [`index`](Self::index)
    /// then maps the session vocabulary onto the assumable atoms.
    fn new(problem: &EpaProblem, mode: &EncodeMode) -> Result<Self, EpaError> {
        let program = encode(problem, mode);
        // Slice before grounding: the assumable signatures are slice roots,
        // so every atom an assumption can touch stays in the program.
        let mut grounder = Grounder::new()
            .assumable("scenario_fault", 1)
            .assumable("fault_enabled", 1)
            .assumable("active_mitigation", 2);
        if matches!(mode, EncodeMode::Contested { .. }) {
            grounder = grounder.assumable("target", 1);
        }
        let ground = grounder.with_slicing(true).ground(&program)?;
        let nominal = (ground.assumable.iter())
            .map(|&id| {
                let atom = ground.atom(id);
                let positive = match (atom.pred.as_str(), atom.args.as_slice()) {
                    ("fault_enabled", _) => true,
                    ("active_mitigation", [_, Term::Const(m)]) => {
                        problem.active_mitigations.contains(m)
                    }
                    _ => false,
                };
                Lit { atom: id, positive }
            })
            .collect();
        Ok(Resident {
            ground: Arc::new(ground),
            nominal,
            faults: Vec::new(),
            targets: Vec::new(),
        })
    }

    /// Map each vocabulary fault and requirement to the position of its
    /// `scenario_fault/1` and `target/1` atom.
    fn index(&mut self, vocab: &Vocabulary) {
        let mut faults = vec![None; vocab.fault_count()];
        let mut targets = vec![None; vocab.requirement_count()];
        for (i, l) in self.nominal.iter().enumerate() {
            let atom = self.ground.atom(l.atom);
            let (table, id) = match (atom.pred.as_str(), atom.args.as_slice()) {
                ("scenario_fault", [Term::Const(f)]) => (&mut faults, vocab.fault_id(f)),
                ("target", [Term::Const(r)]) => (&mut targets, vocab.requirement_id(r)),
                _ => continue,
            };
            let id = id.expect("the encoding's faults and targets are the problem's");
            table[id as usize] = Some(i as u32);
        }
        self.faults = faults;
        self.targets = targets;
    }

    /// The ground program.
    #[must_use]
    pub fn ground(&self) -> &GroundProgram {
        &self.ground
    }

    /// The positions in `nominal` of the atoms `scenario` (and, on the
    /// contested program, targeting `requirement`) switches on: the
    /// scenario's faults and the target. Scenario faults unknown to the
    /// problem have no atom and are ignored.
    fn toggles<'s>(
        &'s self,
        vocab: &'s Vocabulary,
        scenario: &'s Scenario,
        requirement: Option<&str>,
    ) -> impl Iterator<Item = u32> + 's {
        let faults = scenario
            .iter()
            .filter_map(|f| self.faults[vocab.fault_id(f)? as usize]);
        let target = requirement
            .and_then(|r| vocab.requirement_id(r))
            .and_then(|r| self.targets[r as usize]);
        faults.chain(target)
    }

    /// Fill `lits` with the assumption set pinning every assumable atom for
    /// `scenario` (and `requirement`): the nominal set with the
    /// [`toggles`](Self::toggles) switched on.
    fn assumptions(
        &self,
        lits: &mut Vec<Lit>,
        vocab: &Vocabulary,
        scenario: &Scenario,
        requirement: Option<&str>,
    ) {
        lits.clear();
        lits.extend_from_slice(&self.nominal);
        for i in self.toggles(vocab, scenario, requirement) {
            lits[i as usize].positive = true;
        }
    }

    /// Fill `lits` with the changes the assumption set of `scenario` makes
    /// to the nominal set: the toggles, each switched on.
    fn changes(&self, lits: &mut Vec<Lit>, vocab: &Vocabulary, scenario: &Scenario) {
        lits.clear();
        let toggles = self.toggles(vocab, scenario, None);
        lits.extend(toggles.map(|i| Lit::pos(self.nominal[i as usize].atom)));
    }

    /// The change the one-fault scenario of the fault with vocabulary id
    /// `fault` makes to the nominal set: none if the fault has no atom.
    fn fault_change(&self, fault: u32) -> Option<Lit> {
        (self.faults[fault as usize]).map(|i| Lit::pos(self.nominal[i as usize].atom))
    }
}

/// What an atom of the outcome program tells about an outcome.
#[derive(Debug, Clone, Copy)]
enum Reads {
    Nothing,
    /// An `affected(C, M)` atom: the id of its `(C, M)`.
    Pair(u32),
    /// A `violated(R)` atom: the id of its `R`.
    Requirement(u32),
}

/// One fault's one-fault outcome query, kept for composing the outcomes
/// of the scenarios that hold it: its footprint, and the outcome ids whose
/// value differs from the nominal outcome, with their value under the
/// fault.
struct Single {
    footprint: Footprint,
    modes: Box<[(u32, bool)]>,
    violated: Box<[(u32, bool)]>,
}

/// How the session reads outcomes: its vocabulary, the atoms an outcome is
/// read from (decoded to vocabulary ids once), and the outcome program's
/// conditional well-founded model, resident under the nominal scenario, for
/// the search-free path, with each fault's one-fault query kept for
/// composition.
struct Statics {
    vocab: Arc<Vocabulary>,
    wfm: ConditionalWfm<Arc<GroundProgram>>,
    /// Every `affected(C, M)` atom with the id of its `(C, M)`.
    affected: Vec<(AtomId, u32)>,
    /// Every `violated(R)` atom with the id of its `R`.
    violated: Vec<(AtomId, u32)>,
    /// The same, per atom. No two atoms are read as the same id.
    reads: Vec<Reads>,
    /// The effective pairs and violated requirements of the nominal model:
    /// the outcome outside any query's region.
    base_modes: ModeSet,
    base_violated: RequirementSet,
    /// Per fault, by vocabulary id: its one-fault query, when that query
    /// is statically decided and has a footprint.
    singles: Vec<Option<Single>>,
}

impl Statics {
    /// Decode the outcome program's `affected/2` and `violated/1` atoms
    /// into the session vocabulary: those pairs, the problem's requirements
    /// with any other violated id, and the problem's faults.
    fn new(problem: &EpaProblem, outcome: &Resident) -> Self {
        let ground = &outcome.ground;
        let mut affected = Vec::new();
        let mut violated = Vec::new();
        for (id, a) in ground.atoms() {
            match (a.pred.as_str(), a.args.as_slice()) {
                ("affected", [c, m, ..]) => affected.push((id, (c.to_string(), m.to_string()))),
                ("violated", [r, ..]) => violated.push((id, r.to_string())),
                _ => {}
            }
        }
        let vocab = Arc::new(Vocabulary::new(
            affected.iter().map(|(_, (c, m))| (c.as_str(), m.as_str())),
            (problem.requirements.iter().map(|r| r.id.as_str()))
                .chain(violated.iter().map(|(_, r)| r.as_str())),
            problem.mutations.iter().map(|m| m.id.as_str()),
        ));
        let interned = "the vocabulary holds every decoded name";
        let affected: Vec<(AtomId, u32)> = (affected.iter())
            .map(|(atom, (c, m))| (*atom, vocab.pair_id(c, m).expect(interned)))
            .collect();
        let violated: Vec<(AtomId, u32)> = (violated.iter())
            .map(|(atom, r)| (*atom, vocab.requirement_id(r).expect(interned)))
            .collect();
        // A region read sets or clears an id from one atom's value, so no
        // two atoms may read as the same id.
        let ids = |atoms: &[(AtomId, u32)]| atoms.iter().map(|&(_, id)| id).collect::<Vec<_>>();
        assert!(
            ModeSet::from_ids(&vocab, ids(&affected)).len() == affected.len()
                && RequirementSet::from_ids(&vocab, ids(&violated)).len() == violated.len(),
            "two outcome atoms read as one id"
        );
        let mut reads = vec![Reads::Nothing; ground.atom_count()];
        for &(atom, id) in &affected {
            reads[atom.index()] = Reads::Pair(id);
        }
        for &(atom, id) in &violated {
            reads[atom.index()] = Reads::Requirement(id);
        }
        let wfm = ConditionalWfm::new(Arc::clone(ground), &outcome.nominal);
        let base = wfm.base();
        let held = |atoms: &[(AtomId, u32)]| {
            (atoms.iter())
                .filter(|&&(atom, _)| base.is_true(atom))
                .map(|&(_, id)| id)
                .collect::<Vec<_>>()
        };
        Statics {
            base_modes: ModeSet::from_ids(&vocab, held(&affected)),
            base_violated: RequirementSet::from_ids(&vocab, held(&violated)),
            wfm,
            affected,
            violated,
            reads,
            vocab,
            singles: Vec::new(),
        }
    }

    /// Answer each fault's one-fault query once, on one workspace, and keep
    /// what composing it needs: its footprint and its outcome changes.
    fn keep_singles(&mut self, outcome: &Resident) {
        let mut ws = self.wfm.workspace();
        let base = self.wfm.base();
        self.singles = (0..self.vocab.fault_count() as u32)
            .map(|fault| {
                let change = outcome.fault_change(fault);
                let model = self.wfm.under_changes(&mut ws, change.as_slice());
                let mut modes = Vec::new();
                let mut violated = Vec::new();
                for atom in model.region() {
                    let value = model.is_true(atom);
                    if value == base.is_true(atom) {
                        continue;
                    }
                    match self.reads[atom.index()] {
                        Reads::Pair(id) => modes.push((id, value)),
                        Reads::Requirement(id) => violated.push((id, value)),
                        Reads::Nothing => {}
                    }
                }
                Some(Single {
                    footprint: self.wfm.footprint(model)?,
                    modes: modes.into_boxed_slice(),
                    violated: violated.into_boxed_slice(),
                })
            })
            .collect();
    }

    /// The outcome of `scenario` composed from the one-fault queries of its
    /// faults, whose vocabulary ids are `faults`, or `None` unless each is
    /// kept and every pair of their footprints composes (see
    /// [`Footprint::composes_with`]). The outcome is then the nominal
    /// outcome with each fault's outcome changes applied.
    fn compose(&self, faults: &[u32], scenario: &Scenario) -> Option<ScenarioOutcome> {
        if faults.is_empty() {
            return None;
        }
        let single = |i: usize| self.singles[faults[i] as usize].as_ref();
        for i in 0..faults.len() {
            let a = single(i)?;
            for j in i + 1..faults.len() {
                if !a.footprint.composes_with(&single(j)?.footprint) {
                    return None;
                }
            }
        }
        let mut effective_modes = self.base_modes.clone();
        let mut violated = self.base_violated.clone();
        for i in 0..faults.len() {
            let single = single(i)?;
            for &(id, value) in &single.modes {
                effective_modes.set(id, value);
            }
            for &(id, value) in &single.violated {
                violated.set(id, value);
            }
        }
        Some(ScenarioOutcome {
            scenario: scenario.clone(),
            effective_modes,
            violated,
        })
    }

    /// The outcome of `scenario` in an interpretation whose true atoms
    /// `is_true` accepts.
    fn read(&self, scenario: &Scenario, is_true: impl Fn(AtomId) -> bool) -> ScenarioOutcome {
        let affected = self.affected.iter().filter(|(atom, _)| is_true(*atom));
        let violated = self.violated.iter().filter(|(atom, _)| is_true(*atom));
        ScenarioOutcome {
            scenario: scenario.clone(),
            effective_modes: ModeSet::from_ids(&self.vocab, affected.map(|&(_, id)| id)),
            violated: RequirementSet::from_ids(&self.vocab, violated.map(|&(_, id)| id)),
        }
    }

    /// The conditional well-founded model of `scenario`, computed in `ws`
    /// from the `changes` its assumption set makes to the nominal one: when
    /// it is total and consistent it pins every atom of the unique stable
    /// model, so the outcome is read without search. Outside the query's
    /// region that model is the nominal one, so the outcome is the nominal
    /// outcome with the region's `affected/2` and `violated/1` atoms read
    /// again.
    fn outcome(
        &self,
        ws: &mut WfmWorkspace,
        changes: &[Lit],
        scenario: &Scenario,
    ) -> Option<ScenarioOutcome> {
        let model = self.wfm.under_changes(ws, changes);
        if model.inconsistent() || !model.total() {
            return None;
        }
        let mut effective_modes = self.base_modes.clone();
        let mut violated = self.base_violated.clone();
        for atom in model.region() {
            match self.reads[atom.index()] {
                Reads::Pair(id) => effective_modes.set(id, model.is_true(atom)),
                Reads::Requirement(id) => violated.set(id, model.is_true(atom)),
                Reads::Nothing => {}
            }
        }
        Some(ScenarioOutcome {
            scenario: scenario.clone(),
            effective_modes,
            violated,
        })
    }
}

/// A solver over one program, built when it is first asked for.
struct LazySolver<'a> {
    program: &'a GroundProgram,
    solver: Option<Solver<'a>>,
}

impl<'a> LazySolver<'a> {
    fn new(program: &'a GroundProgram) -> Self {
        LazySolver {
            program,
            solver: None,
        }
    }

    fn get(&mut self) -> &mut Solver<'a> {
        let program = self.program;
        self.solver.get_or_insert_with(|| Solver::new(program))
    }
}

/// The reusable state of one sweep worker: the workspace of the outcome
/// program's conditional well-founded model, solvers over the outcome
/// program and, when the session has one, over the margin program, and the
/// buffers each query's assumption set and fault ids are built in. Each
/// solver is built by the first query that searches its program.
pub struct Solvers<'a> {
    workspace: WfmWorkspace,
    outcome: LazySolver<'a>,
    margin: Option<LazySolver<'a>>,
    assumptions: Vec<Lit>,
    faults: Vec<u32>,
}

/// The resident analysis of one [`EpaProblem`]: every [`Query`] is
/// answered on a shared ground program by fixing its assumable atoms at
/// decision level 0.
pub struct Session {
    outcome: Resident,
    statics: Statics,
    margin: Option<Resident>,
}

impl Session {
    /// Encode and ground `problem` under [`EncodeMode::Assumable`] and,
    /// when `margin_budget` is given, under [`EncodeMode::Contested`] with
    /// that attacker budget. Without a budget the second grounding is
    /// skipped and margin queries return an error. The session's
    /// [`Vocabulary`] is built here, once, from the outcome program.
    ///
    /// # Errors
    ///
    /// [`EpaError::Asp`] on grounding failure.
    pub fn new(problem: &EpaProblem, margin_budget: Option<u32>) -> Result<Self, EpaError> {
        let mut outcome = Resident::new(problem, &EncodeMode::Assumable)?;
        let mut statics = Statics::new(problem, &outcome);
        outcome.index(&statics.vocab);
        statics.keep_singles(&outcome);
        let margin = margin_budget
            .map(|budget| {
                let mut margin = Resident::new(problem, &EncodeMode::Contested { budget })?;
                margin.index(&statics.vocab);
                Ok::<_, EpaError>(margin)
            })
            .transpose()?;
        Ok(Session {
            statics,
            outcome,
            margin,
        })
    }

    /// The ground program answering outcome queries.
    #[must_use]
    pub fn ground(&self) -> &GroundProgram {
        &self.outcome.ground
    }

    /// Try to decide `scenario`'s outcome without search, from the
    /// conditional well-founded model under its assumptions. Returns
    /// `None` when the WFM leaves atoms open (or refutes the assumptions);
    /// [`answer_with`](Self::answer_with) then falls back to search. This
    /// is the path of a sweep's outcome queries: composed from the
    /// one-fault queries of the scenario's faults when they compose, else
    /// the region model, on a fresh workspace.
    #[must_use]
    pub fn decide_statically(&self, scenario: &Scenario) -> Option<ScenarioOutcome> {
        self.decide(&mut Vec::new(), &mut Vec::new(), None, scenario)
    }

    /// The search-free outcome of `scenario`, or `None` when its
    /// conditional well-founded model is not total and consistent. It is
    /// composed from the one-fault queries of its faults when they compose;
    /// otherwise it is read off the region model, computed in `ws` or,
    /// without one, in a fresh workspace. `faults` and `changes` are
    /// buffers. Debug builds compute the region model of every composed
    /// outcome too, and check that the two agree.
    fn decide(
        &self,
        faults: &mut Vec<u32>,
        changes: &mut Vec<Lit>,
        ws: Option<&mut WfmWorkspace>,
        scenario: &Scenario,
    ) -> Option<ScenarioOutcome> {
        let vocab = &self.statics.vocab;
        faults.clear();
        faults.extend(scenario.iter().filter_map(|f| vocab.fault_id(f)));
        let composed = self.statics.compose(faults, scenario);
        if composed.is_some() && !cfg!(debug_assertions) {
            return composed;
        }
        let mut fresh = None;
        let ws = match ws {
            Some(ws) => ws,
            None => fresh.insert(self.statics.wfm.workspace()),
        };
        let by_region = self.decide_by_region(ws, changes, scenario);
        if composed.is_some() {
            assert_eq!(
                composed, by_region,
                "the composed outcome of {scenario} is not its region model's"
            );
        }
        by_region
    }

    /// The outcome of `scenario` read off its region model, computed in
    /// `ws`, or `None` when that model is not total and consistent.
    /// `changes` is a buffer.
    fn decide_by_region(
        &self,
        ws: &mut WfmWorkspace,
        changes: &mut Vec<Lit>,
        scenario: &Scenario,
    ) -> Option<ScenarioOutcome> {
        (self.outcome).changes(changes, &self.statics.vocab, scenario);
        self.statics.outcome(ws, changes, scenario)
    }

    /// Fresh reusable state — one set per sweep worker. Only the
    /// well-founded workspace is built here; each solver waits for the
    /// first query that searches its program.
    #[must_use]
    pub fn solvers(&self) -> Solvers<'_> {
        Solvers {
            workspace: self.statics.wfm.workspace(),
            outcome: LazySolver::new(&self.outcome.ground),
            margin: self.margin.as_ref().map(|m| LazySolver::new(&m.ground)),
            assumptions: Vec::with_capacity(self.outcome.nominal.len()),
            faults: Vec::new(),
        }
    }

    /// Answer one query on caller-provided solvers (from
    /// [`Self::solvers`]) — the reuse form that amortizes solver set-up
    /// and learned nogoods across a query stream.
    ///
    /// A margin query whose requirement the problem does not know has no
    /// `target/1` atom; its constraint is then vacuous and the answer is
    /// `true` (conservative, like unknown scenario faults answering as
    /// absent).
    ///
    /// # Errors
    ///
    /// [`EpaError::Asp`] on solving failure, [`EpaError::NoModel`] if an
    /// outcome query's assumptions are inconsistent with the program, and
    /// [`EpaError::NoMarginBudget`] for a margin query on a session built
    /// without a budget.
    pub fn answer_with(
        &self,
        solvers: &mut Solvers<'_>,
        query: &Query,
    ) -> Result<Answer, EpaError> {
        self.answer_on(solvers, query, false)
    }

    /// [`answer_with`](Self::answer_with) on throwaway solvers.
    ///
    /// # Errors
    ///
    /// As [`answer_with`](Self::answer_with).
    pub fn answer(&self, query: &Query) -> Result<Answer, EpaError> {
        self.answer_with(&mut self.solvers(), query)
    }

    /// Answer `query` on `solvers`; under `certify` by proof-logged search
    /// alone (the static well-founded shortcut emits no certificate).
    fn answer_on(
        &self,
        solvers: &mut Solvers<'_>,
        query: &Query,
        certify: bool,
    ) -> Result<Answer, EpaError> {
        let Solvers {
            workspace,
            outcome,
            margin,
            assumptions,
            faults,
        } = solvers;
        match query {
            Query::Outcome(scenario) => {
                if !certify {
                    if let Some(out) = self.decide(faults, assumptions, Some(workspace), scenario) {
                        return Ok(Answer::Outcome(out));
                    }
                }
                self.search_outcome(outcome.get(), assumptions, scenario, certify)
            }
            Query::Margin {
                scenario,
                requirement,
            } => {
                let (Some(program), Some(solver)) = (&self.margin, margin) else {
                    return Err(EpaError::NoMarginBudget {
                        scenario: scenario.clone(),
                        requirement: requirement.clone(),
                    });
                };
                self.search_margin(
                    program,
                    solver.get(),
                    assumptions,
                    scenario,
                    requirement,
                    certify,
                )
            }
        }
    }

    /// The search options of one query.
    fn options(certify: bool) -> SolveOptions {
        SolveOptions {
            max_models: 1,
            certify,
            ..SolveOptions::default()
        }
    }

    /// Answer the outcome query of `scenario` by search on `solver`, over
    /// the outcome program, building its assumption set in `assumptions`.
    fn search_outcome(
        &self,
        solver: &mut Solver<'_>,
        assumptions: &mut Vec<Lit>,
        scenario: &Scenario,
        certify: bool,
    ) -> Result<Answer, EpaError> {
        (self.outcome).assumptions(assumptions, &self.statics.vocab, scenario, None);
        let result = solver.solve_with_assumptions(assumptions, &Self::options(certify))?;
        let model = result.models.first().ok_or(EpaError::NoModel)?;
        let holds = model.ids();
        let out = self.statics.read(scenario, |atom| holds.contains(&atom));
        Ok(Answer::Outcome(out))
    }

    /// Can an attacker extend `scenario` to violate `requirement`? Decided
    /// by search on `solver`, over the margin program `program`, building
    /// the assumption set in `assumptions`.
    fn search_margin(
        &self,
        program: &Resident,
        solver: &mut Solver<'_>,
        assumptions: &mut Vec<Lit>,
        scenario: &Scenario,
        requirement: &str,
        certify: bool,
    ) -> Result<Answer, EpaError> {
        program.assumptions(
            assumptions,
            &self.statics.vocab,
            scenario,
            Some(requirement),
        );
        let opts = Self::options(certify);
        Ok(Answer::Margin(
            solver.has_model_with_assumptions(assumptions, &opts)?,
        ))
    }

    /// Answer every query on the worker pool, each worker reusing one set
    /// of [`Solvers`] over every batch it runs. `answers[i]` corresponds
    /// to `queries[i]` regardless of thread count or batch size; the
    /// scheduler's counters come alongside. The whole input is one
    /// window, and at most one worker per query is spawned.
    ///
    /// # Errors
    ///
    /// The first (in input order) [`EpaError`] any query produced; a query
    /// that panicked produces [`EpaError::QueryPanicked`].
    pub fn sweep(
        &self,
        queries: &[Query],
        opts: &SweepOptions,
    ) -> Result<(Vec<Answer>, SweepStats), EpaError> {
        let opts = SweepOptions {
            threads: opts.threads.clamp(1, queries.len().max(1)),
            max_in_flight: queries.len().max(1),
            ..opts.clone()
        };
        let mut answers = Vec::with_capacity(queries.len());
        let stats = self.run(queries.iter(), &opts, |_, a| answers.push(a))?;
        Ok((answers, stats))
    }

    /// Memory-bounded streaming sweep over a lazy query stream: at most
    /// [`SweepOptions::max_in_flight`] queries are materialized at any
    /// moment, so arbitrarily long streams sweep in `O(window)` memory.
    /// `emit` receives answers in input order with their global stream
    /// index; per-worker solvers persist across the whole stream. Returns
    /// the scheduler's counters (`peak_in_flight` is the largest window
    /// actually held).
    ///
    /// # Errors
    ///
    /// If some query fails (a panicking query fails with
    /// [`EpaError::QueryPanicked`]), the error of the first failing one in
    /// input order, at index `j`: `emit` has then received exactly the answers
    /// at indices `0..j`, and nothing at or past `j`. The rest of the
    /// stream is still drained.
    pub fn sweep_streaming<E>(
        &self,
        queries: impl Iterator<Item = Query>,
        opts: &SweepOptions,
        emit: E,
    ) -> Result<SweepStats, EpaError>
    where
        E: FnMut(usize, Answer),
    {
        self.run(queries, opts, emit)
    }

    /// Both sweeps: answer `queries` on the pool and hand the answers
    /// before the first failing query to `emit`; return that query's
    /// error. Results arrive in input order, so the first error seen is
    /// the first in input order.
    fn run<Q, E>(
        &self,
        queries: impl Iterator<Item = Q>,
        opts: &SweepOptions,
        mut emit: E,
    ) -> Result<SweepStats, EpaError>
    where
        Q: Borrow<Query> + Send,
        E: FnMut(usize, Answer),
    {
        let mut first_err: Option<EpaError> = None;
        let stats = run_pool(
            queries,
            opts,
            || self.solvers(),
            |solvers, q| self.answer_with(solvers, q.borrow()),
            |i, r| match (&first_err, r) {
                (None, Ok(Ok(a))) => emit(i, a),
                (None, Ok(Err(e))) => first_err = Some(e),
                (None, Err(message)) => {
                    first_err = Some(EpaError::QueryPanicked { index: i, message });
                }
                (Some(_), _) => {}
            },
        );
        first_err.map_or(Ok(stats), Err)
    }

    /// [`sweep`](Self::sweep) with certified spot checks: after the normal
    /// sweep, an evenly spaced, deterministic sample of the queries
    /// (`fraction` is clamped to `(0, 1]`) is re-solved on proof-logging
    /// solvers, and each program's accumulated multi-shot certificate is
    /// replayed through the independent checker
    /// ([`cpsrisk_asp::check_proof`]). Each re-solved answer must agree
    /// with the sweep's. This audits the pooled sweep, the
    /// learned-nogood reuse and the static well-founded fast path of
    /// outcome queries, and the SAT and UNSAT verdicts of margin queries.
    ///
    /// # Errors
    ///
    /// Any sweep error; [`EpaError::Asp`] with an internal error if a
    /// certificate fails to check or a certified answer disagrees with
    /// the sweep.
    pub fn sweep_certified(
        &self,
        queries: &[Query],
        opts: &SweepOptions,
        fraction: f64,
    ) -> Result<(Vec<Answer>, CertifySummary), EpaError> {
        let (answers, _) = self.sweep(queries, opts)?;
        let fraction = fraction.clamp(f64::MIN_POSITIVE, 1.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let stride = (1.0 / fraction).ceil().max(1.0) as usize;
        let internal = |msg: String| EpaError::Asp(AspError::Internal(msg));
        let mut summary = CertifySummary::default();
        // One proof-logging solver per program answers every sampled query
        // of its kind; each accumulated certificate (learned-nogood
        // retention included) is replayed once at the end.
        let mut solvers = self.solvers();
        let (mut outcome_calls, mut margin_calls) = (0usize, 0usize);
        for (i, query) in queries.iter().enumerate().step_by(stride) {
            let certified = self.answer_on(&mut solvers, query, true)?;
            if certified != answers[i] {
                return Err(internal(format!(
                    "certified answer disagrees with the sweep for query {i}: {query:?}"
                )));
            }
            match query {
                Query::Outcome(_) => outcome_calls += 1,
                Query::Margin { .. } => margin_calls += 1,
            }
            summary.checked += 1;
        }
        let mut audit = |solver: &mut Solver<'_>, program: &Resident, calls: usize| {
            if calls == 0 {
                return Ok(());
            }
            let log = solver
                .take_proof()
                .ok_or_else(|| internal("certified calls emitted no proof".into()))?;
            let report = check_proof(&program.ground, &log)
                .map_err(|e| internal(format!("certificate rejected: {e}")))?;
            summary.proof_steps += report.steps;
            summary.models_audited += report.models;
            summary.unsats += report.unsats;
            Ok::<_, EpaError>(())
        };
        if let Some(solver) = solvers.outcome.solver.as_mut() {
            audit(solver, &self.outcome, outcome_calls)?;
        }
        let margin = solvers.margin.as_mut().and_then(|m| m.solver.as_mut());
        if let (Some(solver), Some(program)) = (margin, &self.margin) {
            audit(solver, program, margin_calls)?;
        }
        Ok((answers, summary))
    }
}

/// [`Query`] under its catalog-workload name.
#[doc(hidden)]
pub type CatalogQuery = Query;

/// [`Answer`] under its catalog-workload name.
#[doc(hidden)]
pub type CatalogAnswer = Answer;

/// The `perfbench` benchmark's shim: a [`Session`] with a margin budget,
/// under the name and signatures the benchmark calls. It only delegates.
/// Delete it, with `CatalogQuery` and `CatalogAnswer`, when the benchmark
/// moves onto [`Session`].
#[doc(hidden)]
pub struct CatalogAnalysis(Session);

#[allow(missing_docs)]
impl CatalogAnalysis {
    pub fn new(problem: &EpaProblem, budget: u32) -> Result<Self, EpaError> {
        Session::new(problem, Some(budget)).map(CatalogAnalysis)
    }

    #[must_use]
    pub fn outcome_analysis(&self) -> &Session {
        &self.0
    }

    #[must_use]
    pub fn margin_analysis(&self) -> &Resident {
        self.0.margin.as_ref().expect("built with a margin budget")
    }

    #[must_use]
    pub fn solvers(&self) -> (Solver<'_>, Solver<'_>) {
        (
            Solver::new(&self.0.outcome.ground),
            Solver::new(&self.margin_analysis().ground),
        )
    }

    pub fn answer_with(
        &self,
        solvers: &mut (Solver<'_>, Solver<'_>),
        query: &Query,
    ) -> Result<Answer, EpaError> {
        let (outcome, margin) = solvers;
        let session = &self.0;
        match query {
            Query::Outcome(scenario) => match session.decide_statically(scenario) {
                Some(out) => Ok(Answer::Outcome(out)),
                None => session.search_outcome(outcome, &mut Vec::new(), scenario, false),
            },
            Query::Margin {
                scenario,
                requirement,
            } => {
                let program = self.margin_analysis();
                session.search_margin(
                    program,
                    margin,
                    &mut Vec::new(),
                    scenario,
                    requirement,
                    false,
                )
            }
        }
    }

    pub fn sweep(
        &self,
        queries: &[Query],
        opts: &SweepOptions,
    ) -> Result<(Vec<Answer>, SweepStats), EpaError> {
        self.0.sweep(queries, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::analyze_fixed_fresh;
    use crate::mutation::CandidateMutation;
    use crate::problem::Requirement;
    use crate::scenario::ScenarioSpace;
    use crate::topology::TopologyAnalysis;
    use crate::workload::{
        catalog_margin_budget, catalog_problem, catalog_queries, catalog_requirements_ranked,
        chain_problem,
    };
    use cpsrisk_model::{ElementKind, SystemModel};

    fn outcome_of(session: &Session, solvers: &mut Solvers<'_>, s: &Scenario) -> ScenarioOutcome {
        session
            .answer_with(solvers, &Query::Outcome(s.clone()))
            .expect("outcome query succeeds")
            .into_outcome()
    }

    fn margin_query(scenario: &Scenario, requirement: &str) -> Query {
        Query::Margin {
            scenario: scenario.clone(),
            requirement: requirement.to_owned(),
        }
    }

    fn outcome_queries(p: &EpaProblem, max_faults: usize) -> Vec<Query> {
        ScenarioSpace::new(p, max_faults)
            .iter()
            .map(Query::Outcome)
            .collect()
    }

    /// Three zones in a ring, three spreaders each compromising two
    /// adjacent zones. Covering all three zones takes two spreaders.
    fn covering_problem() -> EpaProblem {
        let mut m = SystemModel::new("ring");
        for z in 0..3 {
            m.add_element(&format!("zn{z}"), &format!("Zone {z}"), ElementKind::Device)
                .unwrap();
            m.add_element(
                &format!("sp{z}"),
                &format!("Spreader {z}"),
                ElementKind::Device,
            )
            .unwrap();
        }
        for z in 0..3u32 {
            for off in 0..2u32 {
                m.add_relation(
                    &format!("sp{z}"),
                    &format!("zn{}", (z + off) % 3),
                    cpsrisk_model::RelationKind::Flow,
                )
                .unwrap();
            }
        }
        let mutations: Vec<CandidateMutation> = (0..3)
            .map(|z| {
                CandidateMutation::spontaneous(
                    &format!("f_sp{z}"),
                    &format!("sp{z}"),
                    "compromised",
                )
            })
            .collect();
        let requirements = vec![Requirement::all_of(
            "r_ring",
            "no full-ring compromise",
            &[
                ("zn0", "compromised"),
                ("zn1", "compromised"),
                ("zn2", "compromised"),
            ],
        )];
        EpaProblem::new(m, mutations, requirements, vec![]).unwrap()
    }

    /// Brute-force reference: does any extension of at most `budget`
    /// mutations on top of `scenario` make the topology engine violate
    /// `requirement`?
    fn attack_exists_brute(
        p: &EpaProblem,
        scenario: &Scenario,
        requirement: &str,
        budget: usize,
    ) -> bool {
        let direct = TopologyAnalysis::new(p);
        ScenarioSpace::new(p, budget).iter().any(|ext| {
            let mut combined = scenario.clone();
            for f in ext.iter() {
                combined.insert(f);
            }
            direct.evaluate(&combined).violated.contains(requirement)
        })
    }

    #[test]
    fn every_assumable_atom_is_pinned_per_query() {
        let p = chain_problem(2);
        let session = Session::new(&p, None).unwrap();
        assert!(!session.ground().assumable.is_empty());
        let mut lits = Vec::new();
        (session.outcome).assumptions(
            &mut lits,
            &session.statics.vocab,
            &Scenario::nominal(),
            None,
        );
        let order: Vec<AtomId> = lits.iter().map(|l| l.atom).collect();
        assert_eq!(order, session.ground().assumable, "ground.assumable order");
        // Nominal scenario under the baseline problem: no scenario faults,
        // all faults enabled.
        for l in &lits {
            let atom = session.ground().atom(l.atom);
            match atom.pred.as_str() {
                "scenario_fault" => assert!(!l.positive, "{atom}"),
                "fault_enabled" => assert!(l.positive, "{atom}"),
                _ => {}
            }
        }
    }

    #[test]
    fn reused_solver_matches_fresh_path_over_the_whole_space() {
        let p = chain_problem(2);
        let session = Session::new(&p, None).unwrap();
        let mut solvers = session.solvers();
        for scenario in ScenarioSpace::new(&p, usize::MAX).iter() {
            let fresh = analyze_fixed_fresh(&p, &scenario).unwrap();
            let reused = outcome_of(&session, &mut solvers, &scenario);
            assert_eq!(reused, fresh, "scenario {scenario}");
        }
    }

    #[test]
    fn static_verdicts_match_the_search_path() {
        let p = chain_problem(2);
        let session = Session::new(&p, None).unwrap();
        let mut solvers = session.solvers();
        let mut decided = 0usize;
        for scenario in ScenarioSpace::new(&p, usize::MAX).iter() {
            let Some(static_out) = session.decide_statically(&scenario) else {
                continue;
            };
            decided += 1;
            let query = Query::Outcome(scenario.clone());
            // The certified path always searches.
            let searched = session.answer_on(&mut solvers, &query, true).unwrap();
            assert_eq!(Answer::Outcome(static_out), searched, "scenario {scenario}");
        }
        // The assumable encoding pins every toggle, so the conditional WFM
        // decides every scenario of this choice-free-after-assumption
        // workload without search.
        assert!(decided > 0, "no scenario was statically decided");
    }

    #[test]
    fn composed_outcomes_equal_the_region_path() {
        let p = catalog_problem(34, 4, 1);
        let session = Session::new(&p, None).unwrap();
        let (mut ws, mut changes) = (session.statics.wfm.workspace(), Vec::new());
        let (mut composed, mut scenarios) = (0usize, 0usize);
        for scenario in ScenarioSpace::new(&p, 3).iter() {
            let faults: Vec<u32> = (scenario.iter())
                .filter_map(|f| session.statics.vocab.fault_id(f))
                .collect();
            let by_region = session.decide_by_region(&mut ws, &mut changes, &scenario);
            assert!(by_region.is_some(), "scenario {scenario}");
            if let Some(out) = session.statics.compose(&faults, &scenario) {
                assert_eq!(Some(out), by_region, "scenario {scenario}");
                composed += 1;
            }
            assert_eq!(session.decide_statically(&scenario), by_region);
            scenarios += 1;
        }
        // Most scenarios compose (5,310 of 5,489); the nominal one and those
        // whose faults' footprints share a join take the region path.
        assert!(composed * 10 > scenarios * 9, "{composed} of {scenarios}");
        assert!(composed < scenarios);
    }

    #[test]
    fn certified_sweep_audits_a_sample_and_matches() {
        let p = chain_problem(2);
        let session = Session::new(&p, None).unwrap();
        let queries = outcome_queries(&p, usize::MAX);
        let opts = SweepOptions::default();
        let (plain, _) = session.sweep(&queries, &opts).unwrap();
        // Full fraction: every query is certified.
        let (answers, summary) = session.sweep_certified(&queries, &opts, 1.0).unwrap();
        assert_eq!(answers, plain);
        assert_eq!(summary.checked, queries.len());
        assert_eq!(summary.models_audited, queries.len());
        assert!(summary.proof_steps > 0);
        // Quarter fraction: an evenly spaced sample.
        let (_, sparse) = session.sweep_certified(&queries, &opts, 0.25).unwrap();
        assert_eq!(sparse.checked, queries.len().div_ceil(4));
    }

    #[test]
    fn certified_sweep_audits_margin_refutations() {
        let p = catalog_problem(36, 4, 2);
        let budget = catalog_margin_budget(4);
        let ranked = catalog_requirements_ranked(&p, budget);
        let space = ScenarioSpace::new(&p, 1);
        let queries: Vec<Query> = catalog_queries(&space, &ranked, 6).collect();
        let margins = queries
            .iter()
            .filter(|q| matches!(q, Query::Margin { .. }))
            .count();
        assert!(margins > 0, "the stream samples margin queries");
        let session = Session::new(&p, Some(budget)).unwrap();
        let opts = SweepOptions::with_threads(2);
        let (plain, _) = session.sweep(&queries, &opts).unwrap();
        let (answers, summary) = session.sweep_certified(&queries, &opts, 1.0).unwrap();
        assert_eq!(answers, plain, "every certified answer equals the sweep's");
        assert_eq!(summary.checked, queries.len());
        // Below the covering number the r_zone margins are UNSAT: their
        // refutations are re-derived by the checker.
        assert!(answers.contains(&Answer::Margin(false)));
        assert!(summary.unsats > 0, "margin refutations are audited");
        assert_eq!(summary.models_audited + summary.unsats, queries.len());
    }

    #[test]
    #[ignore = "benchmark scale (about 1 s in release); run in release with --ignored"]
    fn benchmark_margin_stream_certificate_is_pinned() {
        // The first `sweep` benchmark plant's 148 margin queries, every one
        // certified on one proof-logging solver. The margin program is
        // non-tight, so the certificate carries unfounded-set inferences
        // and stability refutations: its size pins the search and the
        // backstop step for step.
        let p = catalog_problem(120, 17, 0xc47a);
        let budget = catalog_margin_budget(17);
        let ranked = catalog_requirements_ranked(&p, budget);
        let space = ScenarioSpace::new(&p, 2);
        let queries: Vec<Query> = catalog_queries(&space, &ranked, 64)
            .filter(|q| matches!(q, Query::Margin { .. }))
            .collect();
        assert_eq!(queries.len(), 148);
        let session = Session::new(&p, Some(budget)).unwrap();
        let (answers, summary) = session
            .sweep_certified(&queries, &SweepOptions::with_threads(1), 1.0)
            .unwrap();
        assert_eq!(answers.len(), 148);
        assert_eq!(
            summary,
            CertifySummary {
                checked: 148,
                proof_steps: 34_625,
                models_audited: 141,
                unsats: 7,
            }
        );
    }

    #[test]
    fn incremental_sweep_equals_fresh_per_scenario_path() {
        let p = chain_problem(3);
        let scenarios: Vec<Scenario> = ScenarioSpace::new(&p, usize::MAX).iter().collect();
        assert_eq!(scenarios.len(), 32, "2^(3+2) scenarios");
        // Encode + ground + solve from scratch per scenario.
        let fresh: Vec<Answer> = scenarios
            .iter()
            .map(|s| Answer::Outcome(analyze_fixed_fresh(&p, s).expect("fresh solve succeeds")))
            .collect();
        let queries: Vec<Query> = scenarios.into_iter().map(Query::Outcome).collect();
        let session = Session::new(&p, None).unwrap();
        for threads in [1, 4] {
            let (swept, _) = session
                .sweep(&queries, &SweepOptions::with_threads(threads))
                .expect("sweep succeeds");
            assert_eq!(swept, fresh, "threads = {threads}");
        }
    }

    #[test]
    fn incremental_sweep_equals_fresh_path_under_active_mitigations() {
        let mut p = chain_problem(2);
        p.activate_mitigation("m_ew").unwrap();
        // Sweep the space of the *unmitigated* problem so blocked-fault
        // scenarios are exercised too.
        let scenarios: Vec<Scenario> = ScenarioSpace::new(&chain_problem(2), usize::MAX)
            .iter()
            .collect();
        let fresh: Vec<Answer> = scenarios
            .iter()
            .map(|s| Answer::Outcome(analyze_fixed_fresh(&p, s).expect("fresh solve succeeds")))
            .collect();
        let queries: Vec<Query> = scenarios.into_iter().map(Query::Outcome).collect();
        let session = Session::new(&p, None).unwrap();
        for threads in [1, 4] {
            let (swept, _) = session
                .sweep(&queries, &SweepOptions::with_threads(threads))
                .expect("sweep succeeds");
            assert_eq!(swept, fresh, "threads = {threads}");
        }
    }

    #[test]
    fn one_reused_solver_survives_a_long_query_stream() {
        let p = chain_problem(4);
        let session = Session::new(&p, None).expect("grounds");
        let mut solvers = session.solvers();
        for (i, scenario) in ScenarioSpace::new(&p, usize::MAX).iter().enumerate() {
            let reused = outcome_of(&session, &mut solvers, &scenario);
            let fresh = analyze_fixed_fresh(&p, &scenario).expect("fresh solve succeeds");
            assert_eq!(reused, fresh, "query {i}: scenario {scenario}");
        }
    }

    #[test]
    fn unknown_faults_are_ignored_like_the_fresh_path() {
        let p = chain_problem(1);
        let scenario = Scenario::of(&["no_such_fault"]);
        let session = Session::new(&p, None).unwrap();
        let out = outcome_of(&session, &mut session.solvers(), &scenario);
        assert_eq!(out, analyze_fixed_fresh(&p, &scenario).unwrap());
        assert_eq!(out.scenario, scenario, "label preserved verbatim");
        assert!(!out.is_hazard());
    }

    #[test]
    fn margin_matches_brute_force_on_the_ring() {
        let p = covering_problem();
        for budget in 0..=3u32 {
            let session = Session::new(&p, Some(budget)).unwrap();
            let mut solvers = session.solvers();
            for scenario in ScenarioSpace::new(&p, usize::MAX).iter() {
                let expected = attack_exists_brute(&p, &scenario, "r_ring", budget as usize);
                let got = session
                    .answer_with(&mut solvers, &margin_query(&scenario, "r_ring"))
                    .unwrap();
                assert_eq!(
                    got,
                    Answer::Margin(expected),
                    "budget {budget} scenario {scenario}"
                );
            }
        }
    }

    #[test]
    fn covering_number_separates_sat_from_unsat() {
        let p = covering_problem();
        let attack_exists = |budget, scenario: &Scenario| {
            let session = Session::new(&p, Some(budget)).unwrap();
            session.answer(&margin_query(scenario, "r_ring")).unwrap() == Answer::Margin(true)
        };
        let nominal = Scenario::nominal();
        // One spreader misses a zone; two adjacent spreaders cover all
        // three.
        assert!(!attack_exists(1, &nominal));
        assert!(attack_exists(2, &nominal));
        // A head start changes the margin: with sp0 already compromised,
        // one extension fault finishes the ring.
        assert!(attack_exists(1, &Scenario::of(&["f_sp0"])));
    }

    #[test]
    fn margin_matches_brute_force_on_the_chain_workload() {
        let p = chain_problem(2);
        for budget in [0u32, 1] {
            let session = Session::new(&p, Some(budget)).unwrap();
            let mut solvers = session.solvers();
            for scenario in ScenarioSpace::new(&p, 1).iter() {
                for r in &p.requirements {
                    let expected = attack_exists_brute(&p, &scenario, &r.id, budget as usize);
                    let got = session
                        .answer_with(&mut solvers, &margin_query(&scenario, &r.id))
                        .unwrap();
                    assert_eq!(
                        got,
                        Answer::Margin(expected),
                        "budget {budget} scenario {scenario} req {}",
                        r.id
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_requirement_is_conservatively_attackable() {
        let p = covering_problem();
        let session = Session::new(&p, Some(0)).unwrap();
        let query = margin_query(&Scenario::nominal(), "no_such_requirement");
        assert_eq!(session.answer(&query), Ok(Answer::Margin(true)));
    }

    #[test]
    fn margin_query_without_a_budget_is_an_error() {
        let p = covering_problem();
        let session = Session::new(&p, None).unwrap();
        assert!(session.solvers().margin.is_none(), "no contested grounding");
        let scenario = Scenario::of(&["f_sp0"]);
        let err = session
            .answer(&margin_query(&scenario, "r_ring"))
            .unwrap_err();
        assert_eq!(
            err,
            EpaError::NoMarginBudget {
                scenario,
                requirement: "r_ring".to_owned(),
            }
        );
    }

    #[test]
    fn streaming_stops_at_the_first_failing_query() {
        // The only failing query is a margin query on a budget-less
        // session, at index j of the stream.
        let p = chain_problem(2);
        let session = Session::new(&p, None).unwrap();
        let mut queries = outcome_queries(&p, usize::MAX);
        let j = queries.len() / 2;
        let failing = margin_query(&Scenario::of(&["f_ew"]), "r1");
        queries.insert(j, failing.clone());
        let expected_err = session.answer(&failing).unwrap_err();
        for threads in [1, 2, 8] {
            let opts = SweepOptions::with_threads(threads)
                .batch(1)
                .max_in_flight(4);
            let mut emitted = Vec::new();
            let err = session
                .sweep_streaming(queries.iter().cloned(), &opts, |i, _| emitted.push(i))
                .unwrap_err();
            assert_eq!(emitted, (0..j).collect::<Vec<_>>(), "threads = {threads}");
            assert_eq!(err, expected_err, "threads = {threads}");
            // The materialized sweep applies the same first-error rule.
            let err = session.sweep(&queries, &opts).unwrap_err();
            assert_eq!(err, expected_err, "threads = {threads}");
        }
    }

    #[test]
    fn catalog_sweeps_agree_across_schedulers() {
        let p = catalog_problem(36, 4, 2);
        let budget = catalog_margin_budget(4);
        let ranked = catalog_requirements_ranked(&p, budget);
        let space = ScenarioSpace::new(&p, 1);
        let queries: Vec<Query> = catalog_queries(&space, &ranked, 6).collect();
        let session = Session::new(&p, Some(budget)).unwrap();

        let (sequential, _) = session
            .sweep(&queries, &SweepOptions::with_threads(1))
            .unwrap();
        let opts = SweepOptions::with_threads(4).batch(1);
        let (pooled, _) = session.sweep(&queries, &opts).unwrap();
        assert_eq!(pooled, sequential);

        let mut streamed: Vec<Option<Answer>> = vec![None; queries.len()];
        let stream_opts = SweepOptions::with_threads(4).batch(1).max_in_flight(16);
        let stats = session
            .sweep_streaming(catalog_queries(&space, &ranked, 6), &stream_opts, |i, a| {
                streamed[i] = Some(a)
            })
            .unwrap();
        assert!(stats.peak_in_flight <= 16);
        let streamed: Vec<Answer> = streamed.into_iter().map(Option::unwrap).collect();
        assert_eq!(streamed, sequential);
    }
}
