//! Ground-program simplification against the well-founded backbone.
//!
//! [`simplify`] fixes the [well-founded model](crate::analysis::wfm) of a
//! [`GroundProgram`] and rewrites the program around it, preserving the
//! stable-model set exactly (pinned by the differential proptests in
//! `tests/consequences_differential.rs`):
//!
//! * WFM-true atoms become facts; every other rule deriving them is
//!   satisfied and dropped.
//! * Rules whose body is certainly false (a WFM-false positive literal or
//!   a WFM-true negative literal) are deleted — this removes every rule
//!   deriving a WFM-false atom, so those atoms vanish from the program.
//! * Certainly-true body literals are deleted from the surviving rules; a
//!   constraint whose body empties out becomes the empty constraint (the
//!   program is inconsistent and the solver reports no models).
//! * Cardinality constraints lose never-holdable elements, certainly-held
//!   elements shift both bounds down, and bounds that become unmeetable
//!   turn into plain integrity constraints; vacuous cards are dropped.
//!
//! Deleting backbone literals removes positive dependency edges, so a
//! program that grounds non-tight can simplify to a tight one — the
//! re-derived certificate ([`SimplifyResult::tight_after`]) then enables
//! the solver's tight fast path where the original program could not.

use crate::program::{
    AtomId, CardConstraint, CardElement, GroundHead, GroundProgram, GroundRule, MinimizeLit,
};

use super::deps::ground_tight;
use super::wfm::{well_founded, WfmResult};

/// The outcome of [`simplify`]: the rewritten program plus the statistics
/// the analyze report surfaces.
#[derive(Debug, Clone)]
pub struct SimplifyResult {
    /// The simplified program (same stable models as the input).
    pub program: GroundProgram,
    /// Old-id → new-id mapping; `None` for atoms the simplification
    /// removed (the WFM-false ones).
    pub map: Vec<Option<AtomId>>,
    /// Rules in the input program.
    pub rules_before: usize,
    /// Rules in the simplified program (integrity constraints converted
    /// from cards included).
    pub rules_after: usize,
    /// Atoms fixed true by the backbone.
    pub fixed_true: usize,
    /// Atoms fixed false by the backbone.
    pub fixed_false: usize,
    /// Tightness certificate of the input program.
    pub tight_before: bool,
    /// Tightness certificate re-derived on the simplified program.
    pub tight_after: bool,
}

/// Simplify `program` against its (freshly computed) well-founded model.
#[must_use]
pub fn simplify(program: &GroundProgram) -> SimplifyResult {
    simplify_with(program, &well_founded(program))
}

/// Simplify `program` against an already-computed **unconditional** WFM of
/// the same program (conditional results would bake assumptions into the
/// rewrite and change the model set).
#[must_use]
pub fn simplify_with(program: &GroundProgram, wfm: &WfmResult) -> SimplifyResult {
    let mut out = GroundProgram::new();
    // Keep every atom the WFM does not refute, in id order, so the
    // simplified program's display output stays deterministic.
    let mut map: Vec<Option<AtomId>> = vec![None; program.atom_count()];
    for (id, atom) in program.atoms() {
        if !wfm.is_false(id) {
            map[id.index()] = Some(out.intern(atom.clone()));
        }
    }
    let remap = |ids: &[AtomId], drop_true: bool, map: &[Option<AtomId>]| -> Vec<AtomId> {
        ids.iter()
            .filter(|id| !(drop_true && wfm.is_true(**id)))
            .map(|id| map[id.index()].expect("kept atoms are mapped"))
            .collect()
    };
    // A body literal set is certainly dead when a positive atom is
    // WFM-false or a negative atom is WFM-true.
    let body_dead = |pos: &[AtomId], neg: &[AtomId]| {
        pos.iter().any(|p| wfm.is_false(*p)) || neg.iter().any(|n| wfm.is_true(*n))
    };

    // The backbone, as facts.
    for id in wfm.true_atoms() {
        out.rules.push(GroundRule {
            head: GroundHead::Atom(map[id.index()].expect("true atoms are kept")),
            pos: Vec::new(),
            neg: Vec::new(),
        });
    }

    for r in &program.rules {
        if body_dead(&r.pos, &r.neg) {
            continue;
        }
        let head = match r.head {
            // Satisfied by the backbone fact; WFM-false heads only occur
            // in rules with dead bodies, filtered above.
            GroundHead::Atom(h) | GroundHead::Choice(h) if wfm.is_true(h) => continue,
            GroundHead::Atom(h) => GroundHead::Atom(map[h.index()].expect("head atom kept")),
            GroundHead::Choice(h) => GroundHead::Choice(map[h.index()].expect("head atom kept")),
            GroundHead::None => GroundHead::None,
        };
        out.rules.push(GroundRule {
            head,
            // Certainly-true positives and certainly-false negatives are
            // satisfied in every stable model: delete the literals. (A
            // negative literal over a WFM-false atom refers to an atom the
            // output no longer interns, so the deletion also keeps the
            // remap total.)
            pos: remap(&r.pos, true, &map),
            neg: r
                .neg
                .iter()
                .filter(|n| !wfm.is_false(**n))
                .map(|n| map[n.index()].expect("kept atoms are mapped"))
                .collect(),
        });
    }

    for c in &program.cards {
        if body_dead(&c.pos, &c.neg) {
            continue;
        }
        let pos = remap(&c.pos, true, &map);
        let neg: Vec<AtomId> = c
            .neg
            .iter()
            .filter(|n| !wfm.is_false(**n))
            .map(|n| map[n.index()].expect("kept atoms are mapped"))
            .collect();
        let mut held_certain = 0u32;
        let mut elements = Vec::new();
        for e in &c.elements {
            if wfm.is_false(e.atom) || body_dead(&e.guard_pos, &e.guard_neg) {
                continue; // never held: contributes nothing to any model
            }
            let guard_certain = e.guard_pos.iter().all(|p| wfm.is_true(*p))
                && e.guard_neg.iter().all(|n| wfm.is_false(*n));
            if wfm.is_true(e.atom) && guard_certain {
                held_certain += 1; // held in every model: fold into bounds
                continue;
            }
            elements.push(CardElement {
                atom: map[e.atom.index()].expect("kept atoms are mapped"),
                guard_pos: remap(&e.guard_pos, true, &map),
                guard_neg: e
                    .guard_neg
                    .iter()
                    .filter(|n| !wfm.is_false(**n))
                    .map(|n| map[n.index()].expect("kept atoms are mapped"))
                    .collect(),
            });
        }
        let lower = c.lower.saturating_sub(held_certain);
        if held_certain > c.upper || (elements.len() as u32) < lower {
            // The bounds can no longer be met whenever the body holds:
            // the card degenerates to a plain integrity constraint.
            out.rules.push(GroundRule {
                head: GroundHead::None,
                pos,
                neg,
            });
            continue;
        }
        let upper = c.upper - held_certain;
        if lower == 0 && upper as usize >= elements.len() {
            continue; // vacuous: any held count is within bounds
        }
        out.cards.push(CardConstraint {
            pos,
            neg,
            elements,
            lower,
            upper,
        });
    }

    for (prio, lits) in &program.minimize {
        let kept: Vec<MinimizeLit> = lits
            .iter()
            .filter(|l| !body_dead(&l.pos, &l.neg))
            .map(|l| MinimizeLit {
                weight: l.weight,
                tuple: l.tuple.clone(),
                pos: remap(&l.pos, true, &map),
                neg: l
                    .neg
                    .iter()
                    .filter(|n| !wfm.is_false(**n))
                    .map(|n| map[n.index()].expect("kept atoms are mapped"))
                    .collect(),
            })
            .collect();
        // Kept even when empty so cost vectors keep their shape.
        out.minimize.push((*prio, kept));
    }

    out.shows = program.shows.clone();
    out.assumable = program
        .assumable
        .iter()
        .filter_map(|id| map[id.index()])
        .collect();

    let tight_after = ground_tight(&out);
    SimplifyResult {
        rules_before: program.rules.len(),
        rules_after: out.rules.len(),
        fixed_true: wfm.true_count,
        fixed_false: wfm.false_count,
        tight_before: ground_tight(program),
        tight_after,
        map,
        program: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parse;
    use crate::solve::{SolveOptions, Solver};

    fn ground(src: &str) -> GroundProgram {
        Grounder::new().ground(&parse(src).unwrap()).unwrap()
    }

    fn models(g: &GroundProgram) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = Solver::new(g)
            .enumerate(&SolveOptions::default())
            .expect("solves")
            .models
            .iter()
            .map(|m| m.atoms.iter().map(ToString::to_string).collect())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn backbone_becomes_facts_and_satisfied_rules_drop() {
        let g = ground("p. q :- p. q :- not m. m :- not q. { x }. r :- x, q.");
        let s = simplify(&g);
        assert!(s.rules_after < s.rules_before, "q's rules are satisfied");
        assert_eq!(s.fixed_true, 2, "p and q");
        assert_eq!(s.fixed_false, 1, "m");
        assert_eq!(models(&s.program), models(&g));
        // The backbone facts survive as facts.
        assert!(s.program.rules.iter().any(|r| r.pos.is_empty()
            && r.neg.is_empty()
            && matches!(r.head, GroundHead::Atom(_))));
    }

    #[test]
    fn false_atoms_vanish_and_tightness_is_rederived() {
        // The a/b loop's only support (`b :- not f`) is refuted by the
        // fact `f`; deleting the dead loop leaves a tight program.
        let g = ground("f. a :- b. b :- a. b :- not f. { x }. p :- x, not a.");
        assert!(!ground_tight(&g));
        let s = simplify(&g);
        assert_eq!(s.fixed_false, 2, "a and b");
        assert!(s.tight_after, "the unfounded loop is gone");
        assert!(!s.tight_before);
        assert!(s.program.atom_count() < g.atom_count());
        assert_eq!(models(&s.program), models(&g));
    }

    #[test]
    fn inconsistent_programs_keep_the_empty_constraint() {
        let g = ground("p. :- p.");
        let s = simplify(&g);
        assert!(s
            .program
            .rules
            .iter()
            .any(|r| matches!(r.head, GroundHead::None) && r.pos.is_empty() && r.neg.is_empty()));
        assert_eq!(models(&s.program), models(&g));
        assert!(models(&s.program).is_empty());
    }

    #[test]
    fn cards_fold_certain_elements_into_bounds() {
        // `a` is a fact with a certain guard: it always counts, so the
        // 1..1 bound over {a, pick} forbids pick.
        let g = ground("a. item(x). 1 { a; pick(I) : item(I) } 1.");
        let s = simplify(&g);
        assert_eq!(models(&s.program), models(&g));
        for c in &s.program.cards {
            assert_eq!((c.lower, c.upper), (0, 0), "bounds shifted by the fact");
        }
    }

    #[test]
    fn choice_programs_round_trip() {
        let g = ground("{ a; b } 1. c :- a. c :- b. d :- not c.");
        let s = simplify(&g);
        assert_eq!(models(&s.program), models(&g));
        assert_eq!(s.fixed_true, 0);
    }

    #[test]
    fn assumables_and_shows_survive() {
        let g = Grounder::new()
            .assumable("f", 0)
            .ground(&parse("f. alarm :- f. #show alarm/0.").unwrap())
            .unwrap();
        let s = simplify(&g);
        assert_eq!(s.program.assumable.len(), g.assumable.len());
        assert_eq!(s.program.shows, g.shows);
    }
}
