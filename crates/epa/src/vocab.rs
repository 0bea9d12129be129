//! One per-problem vocabulary, and the compact answer sets over it.
//!
//! An exhaustive analysis answers thousands of scenarios, and every answer
//! names its effective `(component, mode)` pairs and its violated
//! requirements. Those names come from a small, fixed vocabulary: on the
//! `sweep` benchmark's plants, about 210 `affected/2` pairs and 18
//! requirements. A [`Vocabulary`] interns them once per engine to dense
//! `u32` ids, assigned in sorted name order, so id order is name order. An
//! answer then holds a bitset over the vocabulary's ids ([`ModeSet`],
//! [`RequirementSet`]) and an [`Arc`] to the vocabulary, instead of a tree
//! of owned strings: 32 bytes of bits for 210 pairs.
//!
//! The sets behave like the `BTreeSet<(String, String)>` and
//! `BTreeSet<String>` they replace: same iteration order, `==`, `Ord`,
//! `Debug` and JSON. Sets over the same vocabulary compare their bits;
//! sets over two vocabularies compare their names. A set built from bare
//! names ([`FromIterator`], `Deserialize`) gets a vocabulary of its own.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use serde::value::{Error, Value};
use serde::{Deserialize, Serialize};

/// Sorted, deduplicated names; a name's id is its index.
type Names = Box<[Box<str>]>;

fn names<'a>(items: impl IntoIterator<Item = &'a str>) -> Names {
    let set: BTreeSet<&str> = items.into_iter().collect();
    set.into_iter().map(Box::from).collect()
}

fn lookup(names: &[Box<str>], name: &str) -> Option<u32> {
    names
        .binary_search_by(|n| (**n).cmp(name))
        .ok()
        .map(|i| i as u32)
}

/// The names of one analysis problem's answers, interned to dense `u32`
/// ids in sorted name order: components, modes, the `(component, mode)`
/// pairs a [`ModeSet`] can hold, requirements and faults.
#[derive(Debug)]
pub struct Vocabulary {
    components: Names,
    modes: Names,
    /// `(component id, mode id)` by pair id, sorted: pair ids follow the
    /// pairs' name order.
    pairs: Box<[(u32, u32)]>,
    requirements: Names,
    faults: Names,
}

impl Vocabulary {
    /// The vocabulary of the given `(component, mode)` pairs, requirement
    /// ids and fault ids; duplicates are dropped. Components and modes are
    /// those of the pairs.
    #[must_use]
    pub fn new<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
        requirements: impl IntoIterator<Item = &'a str>,
        faults: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        let pair_names: BTreeSet<(&str, &str)> = pairs.into_iter().collect();
        let components = names(pair_names.iter().map(|&(c, _)| c));
        let modes = names(pair_names.iter().map(|&(_, m)| m));
        let pairs = pair_names
            .iter()
            .map(|&(c, m)| {
                let c = lookup(&components, c).expect("interned above");
                (c, lookup(&modes, m).expect("interned above"))
            })
            .collect();
        Vocabulary {
            components,
            modes,
            pairs,
            requirements: names(requirements),
            faults: names(faults),
        }
    }

    /// Number of components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// The component of id `id`.
    ///
    /// # Panics
    ///
    /// If `id` is not a component id of this vocabulary.
    #[must_use]
    pub fn component(&self, id: u32) -> &str {
        &self.components[id as usize]
    }

    /// The mode of id `id`.
    ///
    /// # Panics
    ///
    /// If `id` is not a mode id of this vocabulary.
    #[must_use]
    pub fn mode(&self, id: u32) -> &str {
        &self.modes[id as usize]
    }

    /// The id of mode `name`.
    #[must_use]
    pub fn mode_id(&self, name: &str) -> Option<u32> {
        lookup(&self.modes, name)
    }

    /// Number of `(component, mode)` pairs.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The `(component id, mode id)` of pair `id`.
    ///
    /// # Panics
    ///
    /// If `id` is not a pair id of this vocabulary.
    #[must_use]
    pub fn pair(&self, id: u32) -> (u32, u32) {
        self.pairs[id as usize]
    }

    /// The id of the pair `(component, mode)`.
    #[must_use]
    pub fn pair_id(&self, component: &str, mode: &str) -> Option<u32> {
        self.pairs
            .binary_search_by(|&(c, m)| (self.component(c), self.mode(m)).cmp(&(component, mode)))
            .ok()
            .map(|i| i as u32)
    }

    /// Number of requirements.
    #[must_use]
    pub fn requirement_count(&self) -> usize {
        self.requirements.len()
    }

    /// The requirement of id `id`.
    ///
    /// # Panics
    ///
    /// If `id` is not a requirement id of this vocabulary.
    #[must_use]
    pub fn requirement(&self, id: u32) -> &str {
        &self.requirements[id as usize]
    }

    /// The id of requirement `name`.
    #[must_use]
    pub fn requirement_id(&self, name: &str) -> Option<u32> {
        lookup(&self.requirements, name)
    }

    /// Number of faults.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// The id of fault `name`.
    #[must_use]
    pub fn fault_id(&self, name: &str) -> Option<u32> {
        lookup(&self.faults, name)
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::ModeIds {}
    impl Sealed for super::RequirementIds {}
}

/// What an [`IdSet`] holds: one id space of a [`Vocabulary`] and the name
/// each of its ids stands for. Implemented by [`ModeIds`] and
/// [`RequirementIds`] only.
pub trait IdKind: sealed::Sealed {
    /// An element, as names borrowed from the vocabulary.
    type Item<'a>: Copy + Ord + fmt::Debug + Serialize;
    /// An element, as owned names: what [`FromIterator`] and
    /// `Deserialize` read.
    type Owned: Ord + Deserialize;
    /// The argument of [`IdSet::contains`].
    type Key: ?Sized;

    /// Size of the id space.
    fn count(vocab: &Vocabulary) -> usize;
    /// The element of id `id`.
    fn item(vocab: &Vocabulary, id: u32) -> Self::Item<'_>;
    /// The id of an element, if the vocabulary has it.
    fn id(vocab: &Vocabulary, item: Self::Item<'_>) -> Option<u32>;
    /// A [`contains`](IdSet::contains) argument as an element.
    fn key(key: &Self::Key) -> Self::Item<'_>;
    /// An owned element as borrowed names.
    fn borrow(owned: &Self::Owned) -> Self::Item<'_>;
    /// A vocabulary of exactly these elements.
    fn vocabulary<'a>(items: impl Iterator<Item = Self::Item<'a>>) -> Vocabulary;
    /// Write an element for `Display`.
    fn write(item: Self::Item<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

/// The `(component, mode)` pairs of a vocabulary: elements of a
/// [`ModeSet`].
#[derive(Debug)]
pub enum ModeIds {}

impl IdKind for ModeIds {
    type Item<'a> = (&'a str, &'a str);
    type Owned = (String, String);
    type Key = (String, String);

    fn count(vocab: &Vocabulary) -> usize {
        vocab.pair_count()
    }

    fn item(vocab: &Vocabulary, id: u32) -> (&str, &str) {
        let (c, m) = vocab.pair(id);
        (vocab.component(c), vocab.mode(m))
    }

    fn id(vocab: &Vocabulary, (c, m): (&str, &str)) -> Option<u32> {
        vocab.pair_id(c, m)
    }

    fn key((c, m): &(String, String)) -> (&str, &str) {
        (c, m)
    }

    fn borrow((c, m): &(String, String)) -> (&str, &str) {
        (c, m)
    }

    fn vocabulary<'a>(items: impl Iterator<Item = (&'a str, &'a str)>) -> Vocabulary {
        Vocabulary::new(items, [], [])
    }

    fn write((c, m): (&str, &str), f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{c}:{m}")
    }
}

/// The requirement ids of a vocabulary: elements of a [`RequirementSet`].
#[derive(Debug)]
pub enum RequirementIds {}

impl IdKind for RequirementIds {
    type Item<'a> = &'a str;
    type Owned = String;
    type Key = str;

    fn count(vocab: &Vocabulary) -> usize {
        vocab.requirement_count()
    }

    fn item(vocab: &Vocabulary, id: u32) -> &str {
        vocab.requirement(id)
    }

    fn id(vocab: &Vocabulary, item: &str) -> Option<u32> {
        vocab.requirement_id(item)
    }

    fn key(key: &str) -> &str {
        key
    }

    fn borrow(owned: &String) -> &str {
        owned
    }

    fn vocabulary<'a>(items: impl Iterator<Item = &'a str>) -> Vocabulary {
        Vocabulary::new([], items, [])
    }

    fn write(item: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(item)
    }
}

/// Worst-case effective `(component, mode)` pairs of an outcome.
pub type ModeSet = IdSet<ModeIds>;

/// Violated requirement ids of an outcome.
pub type RequirementSet = IdSet<RequirementIds>;

/// A set of one id space of a [`Vocabulary`]: a bitset over the ids and the
/// vocabulary they index. Iteration, `==`, `Ord`, `Debug` and JSON are
/// those of the `BTreeSet` of its names.
pub struct IdSet<K: IdKind> {
    vocab: Arc<Vocabulary>,
    bits: Box<[u64]>,
    kind: PhantomData<fn() -> K>,
}

impl<K: IdKind> IdSet<K> {
    fn words(vocab: &Vocabulary) -> usize {
        K::count(vocab).div_ceil(64)
    }

    /// The set of the ids whose bits are set in `bits`, one `u64` word per
    /// 64 ids of `vocab`.
    pub(crate) fn from_bits(vocab: &Arc<Vocabulary>, bits: Box<[u64]>) -> Self {
        debug_assert_eq!(bits.len(), Self::words(vocab));
        IdSet {
            vocab: Arc::clone(vocab),
            bits,
            kind: PhantomData,
        }
    }

    /// The set of the given ids of `vocab`.
    ///
    /// # Panics
    ///
    /// If an id is out of the vocabulary's range.
    #[must_use]
    pub fn from_ids(vocab: &Arc<Vocabulary>, ids: impl IntoIterator<Item = u32>) -> Self {
        let count = K::count(vocab);
        let mut bits = vec![0u64; Self::words(vocab)].into_boxed_slice();
        for id in ids {
            assert!(
                (id as usize) < count,
                "id {id} out of a vocabulary of {count}"
            );
            bits[id as usize / 64] |= 1 << (id % 64);
        }
        Self::from_bits(vocab, bits)
    }

    /// The set of the given elements over `vocab`, or `None` if the
    /// vocabulary lacks one of them.
    pub fn from_names<'a>(
        vocab: &Arc<Vocabulary>,
        items: impl IntoIterator<Item = K::Item<'a>>,
    ) -> Option<Self> {
        let ids: Option<Vec<u32>> = items.into_iter().map(|i| K::id(vocab, i)).collect();
        Some(Self::from_ids(vocab, ids?))
    }

    /// The vocabulary the ids index.
    #[must_use]
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The ids, ascending (the names' order).
    #[must_use]
    pub fn ids(&self) -> Ids<'_> {
        Ids {
            bits: &self.bits,
            word: 0,
            current: self.bits.first().copied().unwrap_or(0),
        }
    }

    /// The elements in name order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_, K> {
        Iter {
            vocab: &self.vocab,
            ids: self.ids(),
            kind: PhantomData,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// No element?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Does the set hold id `id`?
    fn contains_id(&self, id: u32) -> bool {
        self.bits
            .get(id as usize / 64)
            .is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Does the set hold `key`?
    #[must_use]
    pub fn contains(&self, key: &K::Key) -> bool {
        self.contains_item(K::key(key))
    }

    fn contains_item(&self, item: K::Item<'_>) -> bool {
        K::id(&self.vocab, item).is_some_and(|id| self.contains_id(id))
    }

    /// Does the set hold every element of `other`? Over one vocabulary this
    /// is a word-wise bit test.
    #[must_use]
    pub fn is_superset(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.vocab, &other.vocab) {
            self.bits.iter().zip(&*other.bits).all(|(s, o)| o & !s == 0)
        } else {
            other.iter().all(|item| self.contains_item(item))
        }
    }

    /// Does `other` hold every element of this set?
    #[must_use]
    pub fn is_subset(&self, other: &Self) -> bool {
        other.is_superset(self)
    }

    /// Keep the elements `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(K::Item<'_>) -> bool) {
        let dropped: Vec<u32> = self
            .ids()
            .filter(|&id| !keep(K::item(&self.vocab, id)))
            .collect();
        for id in dropped {
            self.bits[id as usize / 64] &= !(1 << (id % 64));
        }
    }
}

impl ModeSet {
    /// The distinct component ids of the pairs, ascending.
    pub fn component_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let mut last = None;
        self.ids().filter_map(move |id| {
            let (c, _) = self.vocab.pair(id);
            (last != Some(c)).then(|| {
                last = Some(c);
                c
            })
        })
    }
}

impl<K: IdKind> Clone for IdSet<K> {
    fn clone(&self) -> Self {
        Self::from_bits(&self.vocab, self.bits.clone())
    }
}

impl<K: IdKind> PartialEq for IdSet<K> {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.vocab, &other.vocab) {
            self.bits == other.bits
        } else {
            self.iter().eq(other.iter())
        }
    }
}

impl<K: IdKind> Eq for IdSet<K> {}

impl<K: IdKind> PartialOrd for IdSet<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the elements in order, as for `BTreeSet`.
impl<K: IdKind> Ord for IdSet<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.vocab, &other.vocab) {
            self.ids().cmp(other.ids())
        } else {
            self.iter().cmp(other.iter())
        }
    }
}

/// The elements, comma-separated, in order.
impl<K: IdKind> fmt::Display for IdSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            K::write(item, f)?;
        }
        Ok(())
    }
}

/// As the `BTreeSet` of the names: `{("c", "m"), ...}` or `{"r1", ...}`.
impl<K: IdKind> fmt::Debug for IdSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A set of bare names, over a vocabulary of exactly those names.
impl<K: IdKind> FromIterator<K::Owned> for IdSet<K> {
    fn from_iter<T: IntoIterator<Item = K::Owned>>(iter: T) -> Self {
        let owned: BTreeSet<K::Owned> = iter.into_iter().collect();
        let vocab = Arc::new(K::vocabulary(owned.iter().map(K::borrow)));
        let count = K::count(&vocab) as u32;
        Self::from_ids(&vocab, 0..count)
    }
}

impl<'s, K: IdKind> IntoIterator for &'s IdSet<K> {
    type Item = K::Item<'s>;
    type IntoIter = Iter<'s, K>;

    fn into_iter(self) -> Iter<'s, K> {
        self.iter()
    }
}

/// The ids of an [`IdSet`], ascending.
#[derive(Debug, Clone)]
pub struct Ids<'s> {
    bits: &'s [u64],
    word: usize,
    /// The bits of `bits[word]` not yet returned.
    current: u64,
}

impl Iterator for Ids<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word += 1;
            self.current = *self.bits.get(self.word)?;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.word as u32 * 64 + bit)
    }
}

/// The elements of an [`IdSet`], in name order.
pub struct Iter<'s, K: IdKind> {
    vocab: &'s Vocabulary,
    ids: Ids<'s>,
    kind: PhantomData<fn() -> K>,
}

impl<'s, K: IdKind> Iterator for Iter<'s, K> {
    type Item = K::Item<'s>;

    fn next(&mut self) -> Option<K::Item<'s>> {
        self.ids.next().map(|id| K::item(self.vocab, id))
    }
}

/// A JSON array of the elements in order, as for `BTreeSet`.
impl<K: IdKind> Serialize for IdSet<K> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|item| item.to_value()).collect())
    }
}

impl<K: IdKind> Deserialize for IdSet<K> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(BTreeSet::<K::Owned>::from_value(v)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Arc<Vocabulary> {
        Arc::new(Vocabulary::new(
            [("valve", "stuck"), ("hmi", "mute"), ("hmi", "compromised")],
            ["r2", "r1"],
            ["f1"],
        ))
    }

    #[test]
    fn ids_follow_name_order() {
        let v = vocab();
        assert_eq!(v.component(0), "hmi");
        assert_eq!(v.pair_id("hmi", "compromised"), Some(0));
        assert_eq!(v.pair_id("valve", "stuck"), Some(2));
        assert_eq!(v.pair_id("valve", "mute"), None);
        assert_eq!(v.requirement_id("r1"), Some(0));
        assert_eq!(v.fault_id("f1"), Some(0));
    }

    #[test]
    fn sets_read_like_their_names() {
        let v = vocab();
        let modes = ModeSet::from_ids(&v, [2, 0]);
        assert_eq!(
            modes.iter().collect::<Vec<_>>(),
            [("hmi", "compromised"), ("valve", "stuck")]
        );
        assert!(modes.contains(&("valve".into(), "stuck".into())));
        assert!(!modes.contains(&("hmi".into(), "mute".into())));
        assert_eq!(modes.component_ids().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(modes.to_string(), "hmi:compromised,valve:stuck");
        assert_eq!(
            format!("{modes:?}"),
            r#"{("hmi", "compromised"), ("valve", "stuck")}"#
        );
        let bare: ModeSet = [("valve", "stuck"), ("hmi", "compromised")]
            .map(|(c, m)| (c.to_owned(), m.to_owned()))
            .into_iter()
            .collect();
        assert_eq!(bare, modes, "names compare across vocabularies");

        let mut reqs = RequirementSet::from_ids(&v, [0, 1]);
        assert_eq!(reqs.to_string(), "r1,r2");
        reqs.retain(|r| r != "r1");
        assert_eq!(reqs.iter().collect::<Vec<_>>(), ["r2"]);
        assert!(RequirementSet::from_ids(&v, [0, 1]).is_superset(&reqs));
        assert!(RequirementSet::from_names(&v, ["r3"]).is_none());
    }
}
