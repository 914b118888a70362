//! The hot-prefix cursors against `get`: each structure's search, run as
//! the one `SearchOp` by all four techniques at M = 1 and 10, answers
//! every probe as the structure's reference search does. Shapes cover
//! the empty structure, a hot prefix that holds all of it, one that it
//! straddles and one that holds a small part of it. Probes: every key (or
//! a stride of them), each key's successor (mostly in-range misses), 0
//! (below the minimum) and `u64::MAX` (above the maximum).

use amac::engine::{Technique, TuningParams};
use amac_btree::{BPlusTree, BTreeCursor};
use amac_mem::Cursor;
use amac_ops::search::search;
use amac_skiplist::{SkipCursor, SkipList};
use amac_tree::{Bst, BstCursor};
use amac_workload::{Relation, Tuple};

/// Search `index` for `stored`'s probes under every technique and `M`,
/// against `get`. GP and SPP get a stage budget of 4, short of most
/// lookups, so their bailouts are exercised too.
fn cursor_equals_get<'i, C: Cursor<'i>>(
    index: &'i C::Index,
    stored: &[u64],
    get: impl Fn(u64) -> Option<u64>,
) {
    let keys: Vec<u64> = stored.iter().flat_map(|&k| [k, k + 1]).chain([0, u64::MAX]).collect();
    let probe = Relation::from_tuples(keys.iter().map(|&k| Tuple::new(k, 0)).collect());
    let want: Vec<u64> = keys.iter().map(|&k| get(k).unwrap_or(u64::MAX)).collect();
    for t in Technique::ALL {
        for m in [1, 10] {
            let out = search::<C>(index, &probe, t, TuningParams::with_in_flight(m), 4, true);
            assert_eq!(out.out, want, "{t}, M={m}, {} stored", stored.len());
        }
    }
}

/// The top `HOT_DEPTH` levels hold the whole tree (1000 keys), part of
/// it (4096 random keys: both sides of depth 12) and a small part of it
/// (2^15 keys; a 600-deep path), plus the empty tree.
#[test]
fn bst_hot_prefix_cursor_equals_get_under_every_technique() {
    let mut path = Bst::new();
    for k in 1..=600u64 {
        path.insert(k * 2, k);
    }
    let mut trees = vec![Bst::new(), path];
    trees.extend([1000, 4096, 1 << 15].map(|n| Bst::build(&Relation::sparse_unique(n, 7))));
    for tree in &trees {
        cursor_equals_get::<BstCursor>(tree, &tree.keys_in_order(), |k| tree.get(k));
    }
}

/// The hot levels are every inner level (a single leaf has none; 449 and
/// 10,000 keys) or the top four of five (2^17 keys: every 16th key, and
/// the largest), plus the empty tree.
#[test]
fn btree_hot_prefix_cursor_equals_get_under_every_technique() {
    for n in [0, 5, 449, 10_000, 1 << 17] {
        let pairs: Vec<(u64, u64)> = (1..=n as u64).map(|k| (k * 2, k)).collect();
        let tree = BPlusTree::from_sorted(&pairs);
        let stride = if n > 20_000 { 16 } else { 1 };
        let stored: Vec<u64> =
            pairs.iter().step_by(stride).chain(pairs.last()).map(|p| p.0).collect();
        cursor_equals_get::<BTreeCursor>(&tree, &stored, |k| tree.get(k));
    }
}

/// The hot levels hold all but level 0 (300 keys), most of them (4096
/// keys) and the top of a list with staged levels above level 0 (2^15
/// keys), plus the empty list.
#[test]
fn skip_hot_prefix_cursor_equals_get_under_every_technique() {
    for n in [0, 300, 4096, 1 << 15] {
        let list = SkipList::new();
        {
            let mut h = list.handle(n as u64);
            for t in &Relation::sparse_unique(n, 3).tuples {
                h.insert(t.key, t.payload);
            }
        }
        let stored: Vec<u64> = list.items().into_iter().map(|(k, _)| k).collect();
        cursor_equals_get::<SkipCursor>(&list, &stored, |k| list.get(k));
    }
}
