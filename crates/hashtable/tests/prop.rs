//! Property tests: the chained hash table against `HashMap` / `BTreeMap`
//! multiset models and the aggregate table against a folded model, for arbitrary
//! key/payload sequences and adversarial bucket counts.

use amac_hashtable::agg::AggValues;
use amac_hashtable::{AggTable, HashTable};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_contains_exactly_the_inserted_multiset(
        pairs in prop::collection::vec((0u64..500, 0u64..1_000_000), 0..400),
        buckets in 1usize..64,
    ) {
        let ht = HashTable::with_buckets(buckets);
        {
            let mut h = ht.build_handle();
            for &(k, p) in &pairs {
                h.insert(k, p);
            }
        }
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        for &(k, p) in &pairs {
            model.entry(k).or_default().push(p);
        }
        prop_assert_eq!(ht.len(), pairs.len());
        prop_assert_eq!(ht.tuple_count() as usize, pairs.len());
        for (k, want) in &model {
            let mut got = ht.lookup_all(*k);
            let mut want = want.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "key {}", k);
        }
        // Absent keys are really absent.
        for k in 500..510 {
            prop_assert!(ht.lookup_first(k).is_none());
            prop_assert!(ht.lookup_all(k).is_empty());
        }
    }

    #[test]
    fn stats_are_consistent_with_len(
        keys in prop::collection::vec(0u64..100, 0..300),
        buckets in 1usize..32,
    ) {
        let ht = HashTable::with_buckets(buckets);
        {
            let mut h = ht.build_handle();
            for &k in &keys {
                h.insert(k, k);
            }
        }
        let s = ht.stats();
        prop_assert_eq!(s.buckets, ht.bucket_count());
        prop_assert!(s.empty_buckets <= s.buckets);
        // Each node holds 1..=TUPLES_PER_NODE tuples: node count brackets
        // tuple count.
        prop_assert!(s.total_nodes * amac_hashtable::TUPLES_PER_NODE >= keys.len());
        prop_assert!(s.total_nodes <= keys.len().max(1));
        prop_assert!(s.max_chain <= s.total_nodes);
    }

    #[test]
    fn index_chains_match_pointer_chains(
        pairs in prop::collection::vec((0u64..300, 0u64..1_000_000), 1..500),
        buckets in 1usize..64,
    ) {
        // The u32-indexed arena chains hold exactly what a std multimap
        // fed the same insert sequence holds (and the tag filter never
        // hides a stored tuple).
        let ht = HashTable::with_buckets(buckets);
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        {
            let mut h = ht.build_handle();
            for &(k, p) in &pairs {
                h.insert(k, p);
                model.entry(k).or_default().push(p);
            }
        }
        prop_assert_eq!(ht.len(), pairs.len());
        for k in 0..300u64 {
            let mut got = ht.lookup_all(k);
            let mut want = model.remove(&k).unwrap_or_default();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "key {}", k);
        }
    }

    #[test]
    fn agg_table_matches_folded_model(
        pairs in prop::collection::vec((0u64..64, 0u64..10_000), 1..400),
        buckets in 1usize..16,
    ) {
        let t = AggTable::with_buckets(buckets);
        {
            let mut h = t.handle();
            for &(k, p) in &pairs {
                h.update(k, p);
            }
        }
        let mut model: HashMap<u64, AggValues> = HashMap::new();
        for &(k, p) in &pairs {
            model
                .entry(k)
                .and_modify(|a| a.update(p))
                .or_insert_with(|| AggValues::first(p));
        }
        prop_assert_eq!(t.group_count(), model.len());
        for (k, v) in &model {
            let got = t.get(*k);
            prop_assert_eq!(got.as_ref(), Some(v), "group {}", k);
        }
    }
}
