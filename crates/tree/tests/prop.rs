//! Property tests: the BST against a `BTreeMap` model, and the
//! hot-prefix cursor against `get` under all four techniques.

use amac::engine::closure_api::{for_each_interleaved, Resume};
use amac::engine::Technique;
use amac_tree::{Bst, BstCursor, BstMove, HOT_DEPTH};
use amac_workload::Relation;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Each key's answer from a [`BstCursor`] (stage 0 walks the hot prefix,
/// each later stage one node), run by `technique` with `m` in flight.
fn cursor_answers(tree: &Bst, keys: &[u64], technique: Technique, m: usize) -> Vec<Option<u64>> {
    let inputs: Vec<(usize, u64)> = keys.iter().copied().enumerate().collect();
    let mut out = vec![None; keys.len()];
    for_each_interleaved(
        technique,
        &inputs,
        m,
        |&(i, key)| (i, key, BstCursor::start(tree, key)),
        |(i, key, cursor)| match cursor.step(*key) {
            BstMove::Descended => Resume::Later,
            BstMove::Found(payload) => {
                out[*i] = Some(payload);
                Resume::Finished
            }
            BstMove::Missed => Resume::Finished,
        },
    );
    out
}

/// Trees whose top `HOT_DEPTH` levels hold the whole tree (1000 keys),
/// part of it (4096 random keys: both sides of depth 12) and a small part
/// of it (2^15 keys; a 600-deep path), plus the empty tree. Probes: every
/// key, each key's successor (mostly in-range misses), 0 (below the
/// minimum) and `u64::MAX` (above the maximum).
#[test]
fn bst_hot_prefix_cursor_equals_get_under_every_technique() {
    let mut path = Bst::new();
    for k in 1..=600u64 {
        path.insert(k * 2, k);
    }
    let mut trees = vec![Bst::new(), path];
    trees.extend([1000, 4096, 1 << 15].map(|n| Bst::build(&Relation::sparse_unique(n, 7))));
    let (mut in_prefix, mut staged) = (0, 0);
    for tree in &trees {
        let stored = tree.keys_in_order();
        let keys: Vec<u64> = stored.iter().flat_map(|&k| [k, k + 1]).chain([0, u64::MAX]).collect();
        let want: Vec<Option<u64>> = keys.iter().map(|&k| tree.get(k)).collect();
        for t in Technique::ALL {
            for m in [1, 10] {
                assert_eq!(
                    cursor_answers(tree, &keys, t, m),
                    want,
                    "{t}, M={m}, {} keys",
                    tree.len()
                );
            }
        }
        // A hit at depth <= HOT_DEPTH (root = 1) stops the walk on its
        // node; one deeper than HOT_DEPTH + 1 is reached by a staged move.
        for depth in stored.iter().map(|&k| tree.depth_of(k).unwrap()) {
            in_prefix += (depth <= HOT_DEPTH) as usize;
            staged += (depth > HOT_DEPTH + 1) as usize;
        }
    }
    assert!(in_prefix > 0 && staged > 0, "hits inside the prefix {in_prefix}, below it {staged}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bst_matches_btreemap(
        pairs in prop::collection::vec((0u64..1000, 0u64..1000), 0..500),
        probes in prop::collection::vec(0u64..1200, 0..100),
    ) {
        let mut tree = Bst::new();
        let mut model = BTreeMap::new();
        for &(k, p) in &pairs {
            let fresh = tree.insert(k, p);
            let model_fresh = model.insert(k, p).is_none();
            prop_assert_eq!(fresh, model_fresh, "insert({}) freshness", k);
        }
        prop_assert_eq!(tree.len(), model.len());
        prop_assert_eq!(tree.keys_in_order(), model.keys().copied().collect::<Vec<_>>());
        for &k in &probes {
            prop_assert_eq!(tree.get(k), model.get(&k).copied(), "get({})", k);
        }
    }

    #[test]
    fn inorder_is_always_strictly_sorted(
        keys in prop::collection::vec(0u64..10_000, 0..500),
    ) {
        let mut tree = Bst::new();
        for &k in &keys {
            tree.insert(k, k);
        }
        let inorder = tree.keys_in_order();
        prop_assert!(inorder.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn height_bounds(keys in prop::collection::btree_set(0u64..100_000, 1..400)) {
        let mut tree = Bst::new();
        for &k in &keys {
            tree.insert(k, 0);
        }
        let h = tree.height();
        let n = keys.len();
        // Minimum possible height of an n-node binary tree: ceil(log2(n+1)).
        let floor_log = usize::BITS - n.leading_zeros();
        prop_assert!(h >= floor_log as usize, "height {} below log2({})", h, n);
        prop_assert!(h <= n, "height {} above node count {}", h, n);
        // depth_of is consistent with height.
        let max_depth = keys.iter().map(|&k| tree.depth_of(k).unwrap()).max().unwrap();
        prop_assert_eq!(max_depth, h);
    }
}
