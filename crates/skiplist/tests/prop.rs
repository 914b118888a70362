//! Property tests: the skip list against a `BTreeMap` model, the
//! structural tower invariant, and the hot-prefix cursor against `get`
//! under all four techniques.

use amac::engine::closure_api::{for_each_interleaved, Resume};
use amac::engine::Technique;
use amac_skiplist::{SkipCursor, SkipList, SkipMove, SkipNode, HOT_LEVELS};
use amac_workload::Relation;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Each key's answer from a [`SkipCursor`] (stage 0 walks the hot levels,
/// each later stage one move), run by `technique` with `m` in flight.
fn cursor_answers(
    list: &SkipList,
    keys: &[u64],
    technique: Technique,
    m: usize,
) -> Vec<Option<u64>> {
    let inputs: Vec<(usize, u64)> = keys.iter().copied().enumerate().collect();
    let mut out = vec![None; keys.len()];
    for_each_interleaved(
        technique,
        &inputs,
        m,
        |&(i, key)| (i, key, SkipCursor::start(list, key, |_, _| {})),
        |(i, key, cursor)| match cursor.step(*key) {
            SkipMove::Advanced | SkipMove::Descended(..) => Resume::Later,
            SkipMove::Found(payload) => {
                out[*i] = Some(payload);
                Resume::Finished
            }
            SkipMove::Bottom(_) => Resume::Finished,
        },
    );
    out
}

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

/// Lists whose hot levels hold all but level 0 (300 keys), most of them
/// (4096 keys) and the top of a list with staged levels above level 0
/// (2^15 keys), plus the empty list. Probes: every key, each key's
/// successor (mostly in-range misses), 0 (below the minimum) and
/// `u64::MAX` (above the maximum). Each hot level's predecessor, which an
/// insert splices after, is the last node there below the key.
#[test]
fn skip_hot_prefix_cursor_equals_get_under_every_technique() {
    let mut lists = vec![SkipList::new()];
    for n in [300, 4096, 1 << 15] {
        let list = SkipList::new();
        {
            let mut h = list.handle(n as u64);
            for t in &Relation::sparse_unique(n, 3).tuples {
                h.insert(t.key, t.payload);
            }
        }
        lists.push(list);
    }
    let (mut in_prefix, mut staged_levels) = (0, 0);
    for list in &lists {
        let stored: Vec<u64> = list.items().into_iter().map(|(k, _)| k).collect();
        let keys: Vec<u64> = stored.iter().flat_map(|&k| [k, k + 1]).chain([0, u64::MAX]).collect();
        let want: Vec<Option<u64>> = keys.iter().map(|&k| list.get(k)).collect();
        for t in Technique::ALL {
            for m in [1, 10] {
                assert_eq!(
                    cursor_answers(list, &keys, t, m),
                    want,
                    "{t}, M={m}, {} keys",
                    stored.len()
                );
            }
        }
        let (top, floor) = (list.level(), list.level().saturating_sub(HOT_LEVELS));
        staged_levels += floor;
        for &key in &keys {
            let mut left = Vec::new();
            SkipCursor::start(list, key, |level, pred| left.push((level, pred)));
            let levels: Vec<usize> = left.iter().map(|&(level, _)| level).collect();
            assert_eq!(levels, (top - left.len() + 1..=top).rev().collect::<Vec<_>>(), "key {key}");
            let want = preds(list, key);
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
            // SAFETY: read-only traversal of a fully built list.
            unsafe {
                let mut cur = (*list.head()).next_ptr(lvl);
                while !cur.is_null() {
                    let k = (*cur).key;
                    prop_assert!(k > prev || prev == 0, "level {} out of order", lvl);
                    prop_assert!(level0.contains(&k), "level {} ghost key {}", lvl, k);
                    prev = k;
                    cur = (*cur).next_ptr(lvl);
                }
            }
        }
    }
}
