//! Propositional (ground) program representation.
//!
//! Ground atoms are interned to dense [`AtomId`]s; rules reference atoms by
//! id only. This is the interface between the [grounder](crate::ground) and
//! the [solver](crate::solve).

use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use crate::ast::{Atom, Term};
use crate::intern::IdTable;

/// Dense identifier of an interned ground atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The id as an index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The head of a ground rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroundHead {
    /// Normal atom head.
    Atom(AtomId),
    /// Choice support: the atom may be freely chosen when the body holds.
    /// Cardinality bounds are represented separately as [`CardConstraint`]s.
    Choice(AtomId),
    /// Integrity constraint (head ⊥).
    None,
}

/// A ground rule `head :- pos, not neg.`
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GroundRule {
    /// Head.
    pub head: GroundHead,
    /// Positive body atoms.
    pub pos: Vec<AtomId>,
    /// Negative body atoms (`not a`).
    pub neg: Vec<AtomId>,
}

/// One element of a ground cardinality constraint: the element counts as
/// *held* when `atom` is true and every guard literal holds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CardElement {
    /// The element atom.
    pub atom: AtomId,
    /// Positive guard atoms (the element's grounded condition).
    pub guard_pos: Vec<AtomId>,
    /// Negative guard atoms.
    pub guard_neg: Vec<AtomId>,
}

/// Cardinality bounds over the elements of a grounded choice rule:
/// when the (ground) body holds, the number of held elements must lie in
/// `[lower, upper]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CardConstraint {
    /// Positive body atoms of the owning choice rule instance.
    pub pos: Vec<AtomId>,
    /// Negative body atoms.
    pub neg: Vec<AtomId>,
    /// The countable elements.
    pub elements: Vec<CardElement>,
    /// Lower bound (0 if absent).
    pub lower: u32,
    /// Upper bound (`elements.len()` if absent).
    pub upper: u32,
}

/// A grounded `#minimize` element: `weight` accrues when the condition holds.
/// Elements with identical `(weight, tuple)` keys count **once** per model
/// (set semantics, as in clingo).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinimizeLit {
    /// Weight added to the objective when the condition holds.
    pub weight: i64,
    /// Distinguishing tuple.
    pub tuple: Vec<Term>,
    /// Positive condition atoms.
    pub pos: Vec<AtomId>,
    /// Negative condition atoms.
    pub neg: Vec<AtomId>,
}

/// The index of a program's atoms: ids only, compared against the atom
/// list, so each atom is stored once. Atoms carry the program's names, so
/// they hash with std's keyed hasher.
#[derive(Debug, Clone, Default)]
struct AtomIndex {
    hasher: RandomState,
    table: IdTable,
}

/// A complete ground program.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundProgram {
    atoms: Vec<Atom>,
    #[serde(skip)]
    index: AtomIndex,
    /// Ground rules.
    pub rules: Vec<GroundRule>,
    /// Cardinality constraints from bounded choice rules.
    pub cards: Vec<CardConstraint>,
    /// Minimize elements grouped by priority, **higher priority first**.
    pub minimize: Vec<(i64, Vec<MinimizeLit>)>,
    /// `#show` projections (predicate, arity); empty = show everything.
    pub shows: Vec<(String, usize)>,
    /// Atoms emitted as assumable (choice-supported facts of the
    /// predicates marked via `Grounder::assumable`) — the handles a caller
    /// pins per query with assumption literals.
    #[serde(default)]
    pub assumable: Vec<AtomId>,
}

impl GroundProgram {
    /// An empty ground program.
    #[must_use]
    pub fn new() -> Self {
        GroundProgram::default()
    }

    /// Intern a ground atom, returning its id.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the atom is ground.
    pub fn intern(&mut self, atom: Atom) -> AtomId {
        debug_assert!(atom.is_ground(), "interning non-ground atom {atom}");
        let hash = self.index.hasher.hash_one(&atom);
        if let Some(id) = self.find(&atom, hash) {
            return id;
        }
        self.atoms.push(atom);
        AtomId(self.index.table.push(hash))
    }

    /// Look up an already-interned atom.
    #[must_use]
    pub fn lookup(&self, atom: &Atom) -> Option<AtomId> {
        self.find(atom, self.index.hasher.hash_one(atom))
    }

    fn find(&self, atom: &Atom, hash: u64) -> Option<AtomId> {
        let id = (self.index.table).find(hash, |id| self.atoms[id as usize] == *atom)?;
        Some(AtomId(id))
    }

    /// The atom for an id.
    #[must_use]
    pub fn atom(&self, id: AtomId) -> &Atom {
        &self.atoms[id.index()]
    }

    /// Number of interned atoms.
    #[must_use]
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Iterate `(id, atom)` pairs.
    pub fn atoms(&self) -> impl Iterator<Item = (AtomId, &Atom)> {
        self.atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (AtomId(i as u32), a))
    }

    /// True if an atom should be displayed under the `#show` projection.
    #[must_use]
    pub fn shown(&self, id: AtomId) -> bool {
        if self.shows.is_empty() {
            return true;
        }
        let a = self.atom(id);
        self.shows
            .iter()
            .any(|(p, n)| *p == a.pred && *n == a.args.len())
    }

    /// Rebuild the internal index (needed after deserialization).
    pub fn rebuild_index(&mut self) {
        let hasher = &self.index.hasher;
        let hashes = self.atoms.iter().map(|a| hasher.hash_one(a)).collect();
        self.index.table = IdTable::from_hashes(hashes);
    }
}

impl fmt::Display for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            match r.head {
                GroundHead::Atom(h) => write!(f, "{}", self.atom(h))?,
                GroundHead::Choice(h) => write!(f, "{{ {} }}", self.atom(h))?,
                GroundHead::None => {}
            }
            if !r.pos.is_empty() || !r.neg.is_empty() {
                write!(f, " :- ")?;
                let mut first = true;
                for &p in &r.pos {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.atom(p))?;
                    first = false;
                }
                for &n in &r.neg {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "not {}", self.atom(n))?;
                    first = false;
                }
            }
            writeln!(f, ".")?;
        }
        for c in &self.cards {
            writeln!(
                f,
                "% card [{}..{}] over {} elements ({} body atoms)",
                c.lower,
                c.upper,
                c.elements.len(),
                c.pos.len() + c.neg.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut g = GroundProgram::new();
        let a = Atom::new("p", vec![Term::Int(1)]);
        let id1 = g.intern(a.clone());
        let id2 = g.intern(a.clone());
        assert_eq!(id1, id2);
        assert_eq!(g.atom_count(), 1);
        assert_eq!(g.lookup(&a), Some(id1));
        assert_eq!(g.atom(id1), &a);
    }

    #[test]
    fn interning_many_atoms_keeps_first_ids() {
        let mut g = GroundProgram::new();
        let atom = |i: i64| Atom::new("p", vec![Term::Int(i), Term::sym(format!("c{}", i % 7))]);
        for i in 0..1000 {
            assert_eq!(g.intern(atom(i)), AtomId(i as u32));
        }
        for i in 0..1000 {
            assert_eq!(g.intern(atom(i)), AtomId(i as u32));
            assert_eq!(g.lookup(&atom(i)), Some(AtomId(i as u32)));
        }
        assert_eq!(g.lookup(&atom(1000)), None);
        let mut copy: GroundProgram = g.clone();
        copy.rebuild_index();
        assert_eq!(copy.lookup(&atom(999)), Some(AtomId(999)));
        assert_eq!(g.atom_count(), 1000);
    }

    #[test]
    fn show_projection_filters() {
        let mut g = GroundProgram::new();
        let p = g.intern(Atom::new("p", vec![Term::Int(1)]));
        let q = g.intern(Atom::prop("q"));
        assert!(g.shown(p) && g.shown(q), "no projection shows everything");
        g.shows.push(("p".into(), 1));
        assert!(g.shown(p));
        assert!(!g.shown(q));
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut g = GroundProgram::new();
        let a = Atom::prop("x");
        let id = g.intern(a.clone());
        g.index = AtomIndex::default();
        assert_eq!(g.lookup(&a), None);
        g.rebuild_index();
        assert_eq!(g.lookup(&a), Some(id));
    }

    #[test]
    fn display_renders_rules() {
        let mut g = GroundProgram::new();
        let p = g.intern(Atom::prop("p"));
        let q = g.intern(Atom::prop("q"));
        g.rules.push(GroundRule {
            head: GroundHead::Atom(p),
            pos: vec![q],
            neg: vec![],
        });
        g.rules.push(GroundRule {
            head: GroundHead::None,
            pos: vec![],
            neg: vec![p],
        });
        let text = g.to_string();
        assert!(text.contains("p :- q."));
        assert!(text.contains(" :- not p."));
    }
}
