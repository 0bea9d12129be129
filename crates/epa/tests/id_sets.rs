//! `ModeSet` and `RequirementSet` against the `BTreeSet`s of names they
//! replace: on random name sets, every representation of a set — over one
//! vocabulary, over another vocabulary with other ids, from bare names, and
//! read back from JSON — agrees with its `BTreeSet` image on `==`, `Ord`,
//! `contains`, `is_superset`, iteration order, `Display`, `Debug` and JSON.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

use proptest::prelude::*;

use cpsrisk_epa::{IdKind, IdSet, ModeIds, ModeSet, RequirementIds, RequirementSet, Vocabulary};

/// Names with shared prefixes, so name order and id order could disagree
/// if ids were assigned any other way.
const COMPONENTS: [&str; 7] = ["a", "ab", "b", "ba", "hmi", "valve", "valve_2"];
const MODES: [&str; 4] = ["compromised", "m", "m1", "no_signal"];
const REQUIREMENTS: [&str; 6] = ["r1", "r10", "r2", "r_zone", "r_zone0", "x"];

fn pair(c: usize, m: usize) -> (String, String) {
    (COMPONENTS[c].to_owned(), MODES[m].to_owned())
}

fn arb_pairs() -> impl Strategy<Value = BTreeSet<(String, String)>> {
    prop::collection::btree_set(
        (0..COMPONENTS.len(), 0..MODES.len()).prop_map(|(c, m)| pair(c, m)),
        0..10,
    )
}

fn arb_requirements() -> impl Strategy<Value = BTreeSet<String>> {
    prop::collection::btree_set(
        (0..REQUIREMENTS.len()).prop_map(|r| REQUIREMENTS[r].to_owned()),
        0..6,
    )
}

/// `set` over `vocab`, over `other`, from bare names, and read back from
/// the JSON of its image.
fn representations<K: IdKind>(
    image: &BTreeSet<K::Owned>,
    vocab: &Arc<Vocabulary>,
    other: &Arc<Vocabulary>,
) -> Vec<IdSet<K>>
where
    K::Owned: Clone + serde::Serialize,
{
    let over = |v: &Arc<Vocabulary>| {
        IdSet::<K>::from_names(v, image.iter().map(K::borrow)).expect("the vocabulary has it")
    };
    let json = serde_json::to_string(image).unwrap();
    vec![
        over(vocab),
        over(other),
        image.iter().cloned().collect(),
        serde_json::from_str(&json).unwrap(),
    ]
}

/// Every representation of `a` against every representation of `b`, and
/// each against its image.
fn agree<K: IdKind>(
    a: &BTreeSet<K::Owned>,
    b: &BTreeSet<K::Owned>,
    universe: &[K::Owned],
    vocabs: [&Arc<Vocabulary>; 2],
    display: impl Fn(&BTreeSet<K::Owned>) -> String,
    contains: impl Fn(&IdSet<K>, &K::Owned) -> bool,
) -> Result<(), TestCaseError>
where
    K::Owned: Clone + Debug + serde::Serialize,
{
    let xs = representations::<K>(a, vocabs[0], vocabs[1]);
    let ys = representations::<K>(b, vocabs[0], vocabs[1]);
    for (x, image) in xs.iter().map(|x| (x, a)).chain(ys.iter().map(|y| (y, b))) {
        let names: Vec<K::Item<'_>> = image.iter().map(K::borrow).collect();
        prop_assert_eq!(x.iter().collect::<Vec<_>>(), names);
        prop_assert_eq!(x.len(), image.len());
        prop_assert_eq!(x.is_empty(), image.is_empty());
        prop_assert_eq!(x.to_string(), display(image));
        prop_assert_eq!(format!("{x:?}"), format!("{image:?}"));
        let json = serde_json::to_string(x).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(image).unwrap());
        let back: IdSet<K> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, x);
        for item in universe {
            prop_assert_eq!(contains(x, item), image.contains(item));
        }
    }
    for x in &xs {
        for y in &ys {
            prop_assert_eq!(x == y, a == b);
            prop_assert_eq!(x.cmp(y), a.cmp(b));
            prop_assert_eq!(y.cmp(x), b.cmp(a));
            prop_assert_eq!(x.is_superset(y), a.is_superset(b));
            prop_assert_eq!(y.is_superset(x), b.is_superset(a));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mode_sets_agree_with_btree_sets(
        a in arb_pairs(),
        b in arb_pairs(),
        extra in arb_pairs(),
        other_extra in arb_pairs(),
    ) {
        let vocab = |extra: &BTreeSet<(String, String)>| {
            let pairs = a.iter().chain(&b).chain(extra);
            Arc::new(Vocabulary::new(pairs.map(|(c, m)| (c.as_str(), m.as_str())), [], []))
        };
        let universe: Vec<(String, String)> = (0..COMPONENTS.len())
            .flat_map(|c| (0..MODES.len()).map(move |m| pair(c, m)))
            .collect();
        agree::<ModeIds>(
            &a,
            &b,
            &universe,
            [&vocab(&extra), &vocab(&other_extra)],
            |image| {
                let pairs: Vec<String> = image.iter().map(|(c, m)| format!("{c}:{m}")).collect();
                pairs.join(",")
            },
            ModeSet::contains,
        )?;
    }

    #[test]
    fn requirement_sets_agree_with_btree_sets(
        a in arb_requirements(),
        b in arb_requirements(),
        extra in arb_requirements(),
        other_extra in arb_requirements(),
    ) {
        let vocab = |extra: &BTreeSet<String>| {
            let names = a.iter().chain(&b).chain(extra).map(String::as_str);
            Arc::new(Vocabulary::new([], names, []))
        };
        let universe: Vec<String> = REQUIREMENTS.iter().map(|r| (*r).to_owned()).collect();
        agree::<RequirementIds>(
            &a,
            &b,
            &universe,
            [&vocab(&extra), &vocab(&other_extra)],
            |image| image.iter().cloned().collect::<Vec<_>>().join(","),
            |set: &RequirementSet, r: &String| set.contains(r),
        )?;
    }
}
