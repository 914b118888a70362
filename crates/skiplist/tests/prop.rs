//! Property tests: the skip list against a `BTreeMap` model, the
//! structural tower invariant, and the hot walk's predecessors against
//! the textbook search.

use amac_skiplist::{SkipCursor, SkipList, SkipNode, HOT_LEVELS};
use amac_workload::Relation;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `key`'s predecessor at each level up to the entry level (the last node
/// there below `key`), by the textbook top-down search.
fn preds(list: &SkipList, key: u64) -> Vec<*mut SkipNode> {
    let mut out = vec![core::ptr::null_mut(); list.level() + 1];
    let mut pred = list.head() as *mut SkipNode;
    for level in (0..=list.level()).rev() {
        // SAFETY: read-only traversal of a fully built list.
        unsafe {
            loop {
                let next = (*pred).next_ptr(level);
                if next.is_null() || (*next).key >= key {
                    break;
                }
                pred = next;
            }
        }
        out[level] = pred;
    }
    out
}

/// Each hot level's predecessor, which an insert splices after, is the
/// last node there below the key. Lists: hot levels hold all but level 0
/// (300 keys), most of them (4096 keys) and the top of a list with staged
/// levels above level 0 (2^15 keys), plus the empty list. Probes: every
/// key, each key's successor, 0 and `u64::MAX`.
#[test]
fn hot_walk_leaves_each_level_at_its_textbook_predecessor() {
    let (mut in_prefix, mut staged_levels) = (0, 0);
    for n in [0, 300, 4096, 1 << 15] {
        let list = SkipList::new();
        {
            let mut h = list.handle(n as u64);
            for t in &Relation::sparse_unique(n, 3).tuples {
                h.insert(t.key, t.payload);
            }
        }
        let stored = list.items().into_iter().map(|(k, _)| k);
        let keys: Vec<u64> = stored.flat_map(|k| [k, k + 1]).chain([0, u64::MAX]).collect();
        let (top, floor) = (list.level(), list.level().saturating_sub(HOT_LEVELS));
        staged_levels += floor;
        for &key in &keys {
            let mut left = Vec::new();
            SkipCursor::start(&list, key, |level, pred| left.push((level, pred)));
            let levels: Vec<usize> = left.iter().map(|&(level, _)| level).collect();
            assert_eq!(levels, (top - left.len() + 1..=top).rev().collect::<Vec<_>>(), "key {key}");
            let want = preds(&list, key);
            for (level, pred) in left {
                assert_eq!(pred, want[level], "key {key}, level {level}");
            }
            // The walk stopped above the floor: it matched the key there.
            in_prefix += (top - floor > levels.len()) as usize;
        }
    }
    assert!(in_prefix > 0 && staged_levels > 0, "hits inside the prefix {in_prefix}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_btreemap_model(
        pairs in prop::collection::vec((1u64..2000, 0u64..1000), 0..400),
        probes in prop::collection::vec(0u64..2500, 0..100),
    ) {
        let list = SkipList::new();
        let mut model = BTreeMap::new();
        {
            let mut h = list.handle(7);
            for &(k, p) in &pairs {
                let fresh = h.insert(k, p);
                let model_fresh = !model.contains_key(&k);
                if model_fresh {
                    model.insert(k, p);
                }
                prop_assert_eq!(fresh, model_fresh, "insert({}) freshness", k);
            }
        }
        prop_assert_eq!(list.len(), model.len());
        prop_assert_eq!(
            list.items(),
            model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
        for &k in &probes {
            prop_assert_eq!(list.get(k), model.get(&k).copied(), "get({})", k);
        }
    }

    #[test]
    fn every_level_is_an_ordered_subsequence_of_level0(
        keys in prop::collection::btree_set(1u64..100_000, 1..300),
        seed in 0u64..1000,
    ) {
        let list = SkipList::new();
        {
            let mut h = list.handle(seed);
            for &k in &keys {
                h.insert(k, k);
            }
        }
        let level0: std::collections::HashSet<u64> =
            list.items().into_iter().map(|(k, _)| k).collect();
        for lvl in 0..=list.level() {
            let mut prev = 0u64;
            for k in list.nodes_at(lvl).map(|n| n.key) {
                prop_assert!(k > prev || prev == 0, "level {} out of order", lvl);
                prop_assert!(level0.contains(&k), "level {} ghost key {}", lvl, k);
                prev = k;
            }
        }
    }
}
