//! Interning: dense integer ids for names and ground terms.
//!
//! The grounder resolves every body literal against the possible-atom index
//! once per join step; keying that index by `(String, usize)` forces a
//! fresh `String` allocation per lookup. A [`SymbolTable`] maps each
//! predicate name to a dense [`SymId`] exactly once, so hot-path lookups
//! hash two machine words instead of cloning strings.
//!
//! The grounder goes one step further with a crate-internal term store: a
//! hash-consing table that gives every distinct ground term one dense
//! `TermId`, so binding a variable, comparing two terms for equality and
//! keying an index all work on `u32`s.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ast::{Atom, CmpOp, Term};

/// Dense identifier of an interned predicate symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

impl SymId {
    /// The id as an index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only map from symbol names to dense [`SymId`]s.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, SymId>,
}

impl SymbolTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Intern a name, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> SymId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = SymId(self.names.len() as u32);
        self.index.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }

    /// Look up an already-interned name without allocating.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<SymId> {
        self.index.get(name).copied()
    }

    /// The name behind an id.
    #[must_use]
    pub fn name(&self, id: SymId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no symbol has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A multiply-rotate hasher for keys made of dense ids (the `FxHash`
/// scheme). It is not keyed, so it is used only for maps whose keys the
/// grounder numbers itself; maps keyed by names or integer constants of the
/// program keep std's keyed hasher, so a hostile program cannot flood them.
#[derive(Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its best bits high; table indexes use the
        // low ones.
        self.0.rotate_left(26)
    }
}

/// A hash map keyed by dense ids.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A hash set of values made of dense ids.
pub(crate) type IdSet<T> = std::collections::HashSet<T, BuildHasherDefault<IdHasher>>;

/// Open-addressing index of the dense ids `0..len` of values the caller
/// stores: it keeps each id's hash, and the caller supplies equality.
/// Linear probing, at most half full.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdTable {
    /// 0 is an empty slot, anything else an id plus one.
    slots: Vec<u32>,
    /// Each id's hash.
    hashes: Vec<u64>,
}

impl IdTable {
    /// The table of ids `0..hashes.len()` under the given hashes.
    pub(crate) fn from_hashes(hashes: Vec<u64>) -> Self {
        let mut table = IdTable {
            slots: Vec::new(),
            hashes,
        };
        table.rebuild();
        table
    }

    /// The id of hash `hash` for which `eq` holds, if any.
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let id = self.slots[at].checked_sub(1)?;
            if self.hashes[id as usize] == hash && eq(id) {
                return Some(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Index the next id under `hash` (the caller has found no equal
    /// value) and return it.
    pub(crate) fn push(&mut self, hash: u64) -> u32 {
        let id = self.hashes.len() as u32;
        self.hashes.push(hash);
        if self.hashes.len() * 2 > self.slots.len() {
            self.rebuild();
        } else {
            self.place(id);
        }
        id
    }

    fn place(&mut self, id: u32) {
        let mask = self.slots.len() - 1;
        let mut at = self.hashes[id as usize] as usize & mask;
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = id + 1;
    }

    fn rebuild(&mut self) {
        self.slots = vec![0; (self.hashes.len() * 2).next_power_of_two().max(16)];
        for id in 0..self.hashes.len() as u32 {
            self.place(id);
        }
    }
}

/// Hash-consed `u32` tuples in one flat arena: interning a tuple returns
/// the id of the first equal tuple, or appends it under the next dense id.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tuples {
    words: Vec<u32>,
    /// End offset in `words` of each tuple; a tuple starts where the
    /// previous one ends.
    ends: Vec<u32>,
    table: IdTable,
}

fn hash_words(key: &[u32]) -> u64 {
    let mut h = IdHasher::default();
    h.write_usize(key.len());
    for &w in key {
        h.write_u32(w);
    }
    h.finish()
}

impl Tuples {
    /// Number of interned tuples.
    pub(crate) fn len(&self) -> u32 {
        self.ends.len() as u32
    }

    /// The tuple behind an id.
    pub(crate) fn get(&self, id: u32) -> &[u32] {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.words[start..self.ends[i] as usize]
    }

    /// The id of a tuple equal to `key`, if one was interned.
    pub(crate) fn find(&self, key: &[u32]) -> Option<u32> {
        self.table.find(hash_words(key), |id| self.get(id) == key)
    }

    /// Intern `key`: its id, and whether it is new.
    pub(crate) fn intern(&mut self, key: &[u32]) -> (u32, bool) {
        let hash = hash_words(key);
        if let Some(id) = self.table.find(hash, |id| self.get(id) == key) {
            return (id, false);
        }
        self.words.extend_from_slice(key);
        self.ends.push(self.words.len() as u32);
        (self.table.push(hash), true)
    }
}

/// Dense identifier of an interned ground term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct TermId(pub(crate) u32);

/// What a [`TermId`] stands for.
#[derive(Debug, Clone, Copy)]
enum Node {
    Int(i64),
    Const(SymId),
    Str(SymId),
    /// A compound term: the id of its `[FUNC, functor, args…]` shape.
    Func(u32),
}

/// Shape tags: the first word of a non-integer term's key.
const CONST: u32 = 0;
const STR: u32 = 1;
const FUNC: u32 = 2;

/// Hash-consing store of ground terms. Equal terms get equal ids, so term
/// equality is id equality. Names (predicates, constants, functors and
/// string contents) live in one [`SymbolTable`]; a compound term is its
/// functor's [`SymId`] with the ids of its arguments.
#[derive(Debug, Clone, Default)]
pub(crate) struct TermStore {
    /// Every name the grounder has seen.
    pub(crate) syms: SymbolTable,
    nodes: Vec<Node>,
    /// Integer constants come from the program: std's keyed hasher.
    ints: HashMap<i64, TermId>,
    /// `[CONST, sym]`, `[STR, sym]` and `[FUNC, functor, args…]` keys.
    shapes: Tuples,
    /// The term of each shape.
    shape_terms: Vec<TermId>,
    /// Key under construction.
    key: Vec<u32>,
    /// Evaluation stack for the arguments of compound terms under
    /// construction (see [`TermStore::func_from`]).
    pub(crate) stack: Vec<u32>,
}

impl TermStore {
    /// The term of an integer.
    pub(crate) fn int(&mut self, v: i64) -> TermId {
        if let Some(&t) = self.ints.get(&v) {
            return t;
        }
        let t = TermId(self.nodes.len() as u32);
        self.nodes.push(Node::Int(v));
        self.ints.insert(v, t);
        t
    }

    /// The term of the shape in `self.key`.
    fn shape(&mut self) -> TermId {
        let (id, fresh) = self.shapes.intern(&self.key);
        if !fresh {
            return self.shape_terms[id as usize];
        }
        let t = TermId(self.nodes.len() as u32);
        let sym = SymId(self.key[1]);
        self.nodes.push(match self.key[0] {
            CONST => Node::Const(sym),
            STR => Node::Str(sym),
            _ => Node::Func(id),
        });
        self.shape_terms.push(t);
        t
    }

    fn named(&mut self, tag: u32, name: &str) -> TermId {
        let sym = self.syms.intern(name);
        self.key.clear();
        self.key.extend([tag, sym.0]);
        self.shape()
    }

    /// The compound term `functor(args…)` whose argument ids are
    /// `self.stack[from..]`; pops them.
    pub(crate) fn func_from(&mut self, functor: SymId, from: usize) -> TermId {
        self.key.clear();
        self.key.extend([FUNC, functor.0]);
        self.key.extend_from_slice(&self.stack[from..]);
        self.stack.truncate(from);
        self.shape()
    }

    /// Intern a ground, arithmetic-free term.
    ///
    /// # Panics
    ///
    /// On a variable or an arithmetic expression.
    pub(crate) fn intern(&mut self, t: &Term) -> TermId {
        match t {
            Term::Int(v) => self.int(*v),
            Term::Const(c) => self.named(CONST, c),
            Term::Str(s) => self.named(STR, s),
            Term::Func(f, args) => {
                let from = self.stack.len();
                for a in args {
                    let id = self.intern(a);
                    self.stack.push(id.0);
                }
                let functor = self.syms.intern(f);
                self.func_from(functor, from)
            }
            Term::Var(_) | Term::BinOp(..) => unreachable!("interning a non-ground term {t}"),
        }
    }

    /// The integer behind a term, if it is one.
    pub(crate) fn as_int(&self, t: TermId) -> Option<i64> {
        match self.nodes[t.0 as usize] {
            Node::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The functor and argument ids of a compound term.
    pub(crate) fn as_func(&self, t: TermId) -> Option<(SymId, &[u32])> {
        match self.nodes[t.0 as usize] {
            Node::Func(shape) => {
                let key = self.shapes.get(shape);
                Some((SymId(key[1]), &key[2..]))
            }
            _ => None,
        }
    }

    /// Argument `i` of a compound term.
    pub(crate) fn func_arg(&self, t: TermId, i: usize) -> TermId {
        let (_, args) = self.as_func(t).expect("a compound term");
        TermId(args[i])
    }

    /// The term behind an id.
    pub(crate) fn term(&self, t: TermId) -> Term {
        match self.nodes[t.0 as usize] {
            Node::Int(v) => Term::Int(v),
            Node::Const(s) => Term::Const(self.syms.name(s).to_owned()),
            Node::Str(s) => Term::Str(self.syms.name(s).to_owned()),
            Node::Func(shape) => {
                let key = self.shapes.get(shape);
                Term::Func(
                    self.syms.name(SymId(key[1])).to_owned(),
                    key[2..].iter().map(|&a| self.term(TermId(a))).collect(),
                )
            }
        }
    }

    /// The atom behind a `[predicate, args…]` key.
    pub(crate) fn atom(&self, key: &[u32]) -> Atom {
        Atom::new(
            self.syms.name(SymId(key[0])),
            key[1..].iter().map(|&a| self.term(TermId(a))).collect(),
        )
    }

    /// [`Term::ground_cmp`] on ids.
    pub(crate) fn cmp(&self, a: TermId, b: TermId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let rank = |n: Node| match n {
            Node::Int(_) => 0,
            Node::Const(_) => 1,
            Node::Str(_) => 2,
            Node::Func(_) => 4,
        };
        let (na, nb) = (self.nodes[a.0 as usize], self.nodes[b.0 as usize]);
        match (na, nb) {
            (Node::Int(x), Node::Int(y)) => x.cmp(&y),
            (Node::Const(x), Node::Const(y)) | (Node::Str(x), Node::Str(y)) => {
                self.syms.name(x).cmp(self.syms.name(y))
            }
            (Node::Func(x), Node::Func(y)) => {
                let (kx, ky) = (self.shapes.get(x), self.shapes.get(y));
                let (fx, fy) = (SymId(kx[1]), SymId(ky[1]));
                (self.syms.name(fx).cmp(self.syms.name(fy)))
                    .then(kx.len().cmp(&ky.len()))
                    .then_with(|| {
                        (kx[2..].iter().zip(&ky[2..]))
                            .map(|(&p, &q)| self.cmp(TermId(p), TermId(q)))
                            .find(|o| o.is_ne())
                            .unwrap_or(Ordering::Equal)
                    })
            }
            _ => rank(na).cmp(&rank(nb)),
        }
    }

    /// [`CmpOp::eval`] on ids. Equal ground terms have equal ids.
    pub(crate) fn compare(&self, op: CmpOp, a: TermId, b: TermId) -> bool {
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => self.cmp(a, b).is_lt(),
            CmpOp::Le => self.cmp(a, b).is_le(),
            CmpOp::Gt => self.cmp(a, b).is_gt(),
            CmpOp::Ge => self.cmp(a, b).is_ge(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        assert_ne!(p, q);
        assert_eq!(t.intern("p"), p);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(p), "p");
        assert_eq!(t.name(q), "q");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get("p"), None);
        let p = t.intern("p");
        assert_eq!(t.get("p"), Some(p));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn tuples_hash_cons_and_keep_first_ids() {
        let mut t = Tuples::default();
        let keys: Vec<Vec<u32>> = (0..100u32).map(|i| vec![i % 7, i, i * 3]).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.intern(k), (i as u32, true));
        }
        assert_eq!(t.intern(&[]), (100, true));
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.intern(k), (i as u32, false));
            assert_eq!(t.find(k), Some(i as u32));
            assert_eq!(t.get(i as u32), k.as_slice());
        }
        assert_eq!(t.find(&[1, 2]), None);
        assert_eq!(t.get(100), &[] as &[u32]);
        assert_eq!(t.len(), 101);
    }

    #[test]
    fn term_store_round_trips_and_orders_like_ground_cmp() {
        let program = crate::parse(
            r#"t(-3, 0, 7, a, b, "a", "b c", f(a), f(a, 1), f(b), g(f(a), -1), f(a, "a"))."#,
        )
        .unwrap();
        let Some(crate::ast::Head::Atom(fact)) = program.rules().next().map(|r| &r.head) else {
            panic!("one fact");
        };
        let terms = fact.args.clone();
        let mut store = TermStore::default();
        let ids: Vec<TermId> = terms.iter().map(|t| store.intern(t)).collect();
        // Constant `a`, string "a" and compound f(a) stay distinct terms.
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), terms.len());
        for (t, &id) in terms.iter().zip(&ids) {
            assert_eq!(store.intern(t), id, "{t} interns once");
            assert_eq!(&store.term(id), t);
        }
        for (a, &ia) in terms.iter().zip(&ids) {
            for (b, &ib) in terms.iter().zip(&ids) {
                assert_eq!(store.cmp(ia, ib), a.ground_cmp(b), "{a} vs {b}");
            }
        }
    }
}
