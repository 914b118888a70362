//! Property tests: the BST against a `BTreeMap` model, and where the
//! hot-prefix cursor stops.

use amac_mem::{Cursor, Move};
use amac_tree::{Bst, BstCursor, HOT_DEPTH};
use amac_workload::Relation;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Steps a [`BstCursor`] takes to find `key`, the hit included.
fn steps_to_hit(tree: &Bst, key: u64) -> usize {
    let mut cursor = BstCursor::start(tree, key);
    let mut steps = 1;
    while cursor.step(key) == Move::Descended {
        steps += 1;
    }
    steps
}

/// Stage 0 walks depths 1..=`HOT_DEPTH` (root = 1) and stops on the node
/// below them: a hit at depth <= `HOT_DEPTH` + 1 takes one step, one
/// deeper takes a step per level below. The trees hold hits on both
/// sides (4096 random keys, 2^15 keys, a 600-deep path).
#[test]
fn bst_cursor_stages_only_the_levels_below_the_hot_prefix() {
    let mut path = Bst::new();
    for k in 1..=600u64 {
        path.insert(k * 2, k);
    }
    let mut trees = vec![path];
    trees.extend([4096, 1 << 15].map(|n| Bst::build(&Relation::sparse_unique(n, 7))));
    let (mut in_prefix, mut staged) = (0, 0);
    for tree in &trees {
        for key in tree.keys_in_order() {
            let depth = tree.depth_of(key).unwrap();
            assert_eq!(steps_to_hit(tree, key), depth.saturating_sub(HOT_DEPTH).max(1), "{key}");
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
