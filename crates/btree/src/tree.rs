//! The bulk-loaded B+-tree.

use crate::node::{prefetch_node, InnerNode, LeafNode, FANOUT_CHILDREN, FANOUT_KEYS};
use amac_mem::arena::Arena;
use amac_mem::{Cursor, Move, HOT_BYTES};
use amac_workload::Relation;
use core::marker::PhantomData;

/// A static, bulk-loaded B+-tree over arena-allocated two-cache-line nodes.
///
/// Bulk loading packs leaves full and builds perfectly balanced upper
/// levels, so **every lookup dereferences exactly [`height`] nodes** — a
/// deliberately *regular* pointer chase. It is the counterpoint to the
/// random [`Bst`](https://docs.rs) of §5.3: on this structure the paper's
/// static schedules (GP/SPP) can provision their stage budget `N` exactly,
/// while the unbalanced BST makes lookup depth vary and favours AMAC.
///
/// The tree is **built single-threaded and probed read-only**; no latches,
/// safety by phase separation (same discipline as `amac-tree`).
///
/// [`height`]: BPlusTree::height
pub struct BPlusTree {
    inners: Arena<InnerNode>,
    leaves: Arena<LeafNode>,
    /// Null when empty; a [`LeafNode`] when `height == 1`, an
    /// [`InnerNode`] when `height > 1`.
    root: *const u8,
    height: usize,
    /// Top inner levels whose nodes together fit in [`HOT_BYTES`].
    hot_levels: usize,
    len: usize,
}

// SAFETY: mutation only during single-threaded build (`from_sorted` owns
// the arenas exclusively); afterwards all access is read-only and every
// pointer targets the owned arenas.
unsafe impl Send for BPlusTree {}
// SAFETY: as for `Send`.
unsafe impl Sync for BPlusTree {}

impl BPlusTree {
    /// An empty tree.
    pub fn new() -> Self {
        BPlusTree {
            inners: Arena::new(),
            leaves: Arena::new(),
            root: core::ptr::null(),
            height: 0,
            hot_levels: 0,
            len: 0,
        }
    }

    /// Bulk-load from key-ascending, **strictly unique** `(key, payload)`
    /// pairs.
    ///
    /// # Panics
    /// In debug builds, panics if `pairs` is unsorted or contains
    /// duplicates (release builds would silently build a tree whose lookup
    /// results for the duplicated keys are unspecified).
    pub fn from_sorted(pairs: &[(u64, u64)]) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk load requires strictly ascending keys"
        );
        if pairs.is_empty() {
            return Self::new();
        }
        let n_leaves = pairs.len().div_ceil(FANOUT_KEYS);
        let mut tree = BPlusTree {
            inners: Arena::with_capacity(n_leaves.div_ceil(FANOUT_CHILDREN) * 2),
            leaves: Arena::with_capacity(n_leaves),
            root: core::ptr::null(),
            height: 0,
            hot_levels: 0,
            len: pairs.len(),
        };

        // Leaf level: packed full, linked left to right. `level` collects
        // (subtree-first-key, node) pairs for the level above.
        let mut level: Vec<(u64, *const u8)> = Vec::with_capacity(n_leaves);
        let mut prev: *mut LeafNode = core::ptr::null_mut();
        for chunk in pairs.chunks(FANOUT_KEYS) {
            let leaf = tree.leaves.alloc();
            // SAFETY: alloc returns a valid, default-initialized node that
            // we exclusively own during build.
            unsafe {
                for (i, (k, p)) in chunk.iter().enumerate() {
                    (*leaf).keys[i] = *k;
                    (*leaf).payloads[i] = *p;
                }
                (*leaf).count = chunk.len() as u16;
                if !prev.is_null() {
                    (*prev).next = leaf;
                }
            }
            prev = leaf;
            level.push((chunk[0].0, leaf as *const u8));
        }

        // Upper levels: group up to FANOUT_CHILDREN children per inner
        // node; the separator for child i (i > 0) is the first key of its
        // subtree. `widths` collects each inner level's node count,
        // bottom-up.
        let mut widths = Vec::new();
        while level.len() > 1 {
            let mut next_level: Vec<(u64, *const u8)> =
                Vec::with_capacity(level.len().div_ceil(FANOUT_CHILDREN));
            for group in level.chunks(FANOUT_CHILDREN) {
                let inner = tree.inners.alloc();
                // SAFETY: as above — fresh node, exclusive during build.
                unsafe {
                    for (i, (first_key, child)) in group.iter().enumerate() {
                        (*inner).children[i] = *child;
                        if i > 0 {
                            (*inner).keys[i - 1] = *first_key;
                        }
                    }
                    (*inner).count = (group.len() - 1) as u16;
                }
                next_level.push((group[0].0, inner as *const u8));
            }
            widths.push(next_level.len());
            level = next_level;
            tree.height += 1;
        }

        tree.root = level[0].1;
        tree.height += 1; // count the leaf level
        let mut hot_nodes = 0usize;
        for w in widths.into_iter().rev() {
            hot_nodes += w;
            if hot_nodes * core::mem::size_of::<InnerNode>() > HOT_BYTES {
                break;
            }
            tree.hot_levels += 1;
        }
        tree
    }

    /// Bulk-load from a relation: tuples are sorted by key; on duplicate
    /// keys the **last** payload in storage order wins (matching
    /// `Bst::insert` replacement semantics).
    pub fn build(rel: &Relation) -> Self {
        let mut pairs: Vec<(u64, u64)> = rel.tuples.iter().map(|t| (t.key, t.payload)).collect();
        pairs.sort_by_key(|(k, _)| *k);
        // Keep the last occurrence of each key (stable sort preserves
        // storage order within equal keys).
        let mut dedup: Vec<(u64, u64)> = Vec::with_capacity(pairs.len());
        for p in pairs {
            match dedup.last_mut() {
                Some(last) if last.0 == p.0 => *last = p,
                _ => dedup.push(p),
            }
        }
        Self::from_sorted(&dedup)
    }

    /// Levels of nodes a lookup dereferences (0 for an empty tree; 1 when
    /// the root is a leaf).
    #[inline(always)]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Top inner levels whose nodes together fit in [`HOT_BYTES`]: the
    /// hot prefix [`BTreeCursor::start`] walks inline (4 for 2^20 keys;
    /// never the leaf level).
    #[inline(always)]
    pub fn hot_levels(&self) -> usize {
        self.hot_levels
    }

    /// Number of stored keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reference search: the walk a [`BTreeCursor`] stages, with no
    /// prefetch.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.leaf_for(key)?.lookup(key)
    }

    /// The leaf whose key range holds `key` (`None`: the tree is empty).
    fn leaf_for(&self, key: u64) -> Option<&LeafNode> {
        if self.root.is_null() {
            return None;
        }
        let mut ptr = self.root;
        // SAFETY: read-only phase; height tells us each level's node kind
        // and every pointer targets the owned arenas.
        unsafe {
            for _ in 1..self.height {
                ptr = (*ptr.cast::<InnerNode>()).select_child(key);
            }
            Some(&*ptr.cast::<LeafNode>())
        }
    }

    /// All `(key, payload)` pairs with `start <= key <= end`, in key order
    /// (leaf-link scan).
    pub fn range(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut leaf = if start <= end { self.leaf_for(start) } else { None };
        while let Some(l) = leaf {
            for i in 0..l.count as usize {
                if l.keys[i] > end {
                    return out;
                }
                if l.keys[i] >= start {
                    out.push((l.keys[i], l.payloads[i]));
                }
            }
            // SAFETY: read-only phase; a leaf's `next` is null or the next
            // leaf in the owned arena.
            leaf = unsafe { l.next.as_ref() };
        }
        out
    }

    /// Every `(key, payload)` pair in key order (full leaf-link scan).
    pub fn iter_all(&self) -> Vec<(u64, u64)> {
        self.range(u64::MIN, u64::MAX)
    }

    /// Node-count and fill statistics.
    pub fn stats(&self) -> BTreeStats {
        BTreeStats {
            height: self.height,
            inner_nodes: self.inners.len(),
            leaf_nodes: self.leaves.len(),
            keys: self.len,
            leaf_fill: if self.leaves.is_empty() {
                0.0
            } else {
                self.len as f64 / (self.leaves.len() * FANOUT_KEYS) as f64
            },
        }
    }
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

/// A resumable search position: the node the previous stage prefetched
/// and the node visits left, itself included (`1`: a leaf). The default
/// cursor is an exhausted search (`step` returns [`Move::Missed`]
/// without touching memory).
pub struct BTreeCursor<'t> {
    ptr: *const u8,
    level: usize,
    /// Nodes are arena-owned by the tree, which is read-only once built.
    tree: PhantomData<&'t BPlusTree>,
}

impl Default for BTreeCursor<'_> {
    fn default() -> Self {
        BTreeCursor { ptr: core::ptr::null(), level: 0, tree: PhantomData }
    }
}

impl<'t> Cursor<'t> for BTreeCursor<'t> {
    type Index = BPlusTree;

    /// Stage 0: walk the [`hot_levels`](BPlusTree::hot_levels) top inner
    /// levels for `key` inline and prefetch the node below them.
    #[inline(always)]
    fn start(tree: &'t BPlusTree, key: u64) -> Self {
        let mut ptr = tree.root;
        if !ptr.is_null() {
            for _ in 0..tree.hot_levels {
                // SAFETY: read-only phase; the hot levels are inner levels
                // (never the leaf), and every pointer targets the tree.
                ptr = unsafe { (*ptr.cast::<InnerNode>()).select_child(key) };
            }
            prefetch_node(ptr);
        }
        BTreeCursor { ptr, level: tree.height - tree.hot_levels, tree: PhantomData }
    }

    /// Consume the prefetched node: select and prefetch a child (inner),
    /// or resolve the lookup (leaf).
    #[inline(always)]
    fn step(&mut self, key: u64) -> Move {
        if self.ptr.is_null() {
            return Move::Missed; // empty tree
        }
        // SAFETY: read-only phase; ptr is a node of the arena-owned tree:
        // an inner one while `level > 1`, the leaf at `level == 1`.
        unsafe {
            if self.level > 1 {
                let child = (*self.ptr.cast::<InnerNode>()).select_child(key);
                prefetch_node(child);
                self.ptr = child;
                self.level -= 1;
                Move::Descended
            } else {
                match (*self.ptr.cast::<LeafNode>()).lookup(key) {
                    Some(payload) => Move::Found(payload),
                    None => Move::Missed,
                }
            }
        }
    }
}

/// Shape statistics for a bulk-loaded tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BTreeStats {
    /// Node levels (see [`BPlusTree::height`]).
    pub height: usize,
    /// Interior node count.
    pub inner_nodes: usize,
    /// Leaf node count.
    pub leaf_nodes: usize,
    /// Stored keys.
    pub keys: usize,
    /// Mean leaf occupancy in [0, 1].
    pub leaf_fill: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_workload::Tuple;

    #[test]
    fn empty_tree() {
        let t = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.get(0), None);
        assert!(t.iter_all().is_empty());
        assert!(t.range(0, u64::MAX).is_empty());
    }

    #[test]
    fn single_leaf_tree() {
        let pairs: Vec<(u64, u64)> = (0..5).map(|k| (k * 2, k)).collect();
        let t = BPlusTree::from_sorted(&pairs);
        assert_eq!(t.height(), 1, "≤7 keys fit in the root leaf");
        assert_eq!(t.len(), 5);
        for (k, p) in &pairs {
            assert_eq!(t.get(*k), Some(*p));
        }
        assert_eq!(t.get(1), None);
        assert_eq!(t.get(100), None);
    }

    #[test]
    fn two_level_tree_boundaries() {
        // 8 keys forces a split into two leaves plus a root.
        let pairs: Vec<(u64, u64)> = (1..=8).map(|k| (k, k * 10)).collect();
        let t = BPlusTree::from_sorted(&pairs);
        assert_eq!(t.height(), 2);
        for (k, p) in &pairs {
            assert_eq!(t.get(*k), Some(*p), "key {k}");
        }
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(9), None);
    }

    #[test]
    fn all_keys_found_across_heights() {
        // Sizes straddling each height transition for fanout 7/8:
        // 7 (h1), 8 (h2), 7*8=56 (h2), 57 (h3), 7*8*8=448 (h3), 449 (h4).
        for n in [1usize, 7, 8, 56, 57, 448, 449, 10_000] {
            let pairs: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 3, k)).collect();
            let t = BPlusTree::from_sorted(&pairs);
            assert_eq!(t.len(), n);
            for (k, p) in &pairs {
                assert_eq!(t.get(*k), Some(*p), "n={n} key={k}");
            }
            assert_eq!(t.get(1), None, "n={n}");
            // Height is ceil(log8(leaves)) + 1 and at least 1.
            let leaves = n.div_ceil(7);
            let mut h = 1usize;
            let mut width = leaves;
            while width > 1 {
                width = width.div_ceil(8);
                h += 1;
            }
            assert_eq!(t.height(), h, "n={n}");
        }
    }

    #[test]
    fn iter_all_returns_sorted_input() {
        let pairs: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 7 + 1, k)).collect();
        let t = BPlusTree::from_sorted(&pairs);
        assert_eq!(t.iter_all(), pairs);
    }

    #[test]
    fn range_scan_inclusive_bounds() {
        let pairs: Vec<(u64, u64)> = (0..100u64).map(|k| (k * 10, k)).collect();
        let t = BPlusTree::from_sorted(&pairs);
        let r = t.range(95, 250);
        assert_eq!(
            r,
            vec![
                (100, 10),
                (110, 11),
                (120, 12),
                (130, 13),
                (140, 14),
                (150, 15),
                (160, 16),
                (170, 17),
                (180, 18),
                (190, 19),
                (200, 20),
                (210, 21),
                (220, 22),
                (230, 23),
                (240, 24),
                (250, 25)
            ]
        );
        assert_eq!(t.range(0, 0), vec![(0, 0)], "point range");
        assert!(t.range(991, 999_999).is_empty(), "past the end");
        assert!(t.range(50, 20).is_empty(), "inverted range");
    }

    #[test]
    fn build_from_relation_dedups_last_wins() {
        let rel = Relation::from_tuples(vec![
            Tuple::new(5, 50),
            Tuple::new(3, 30),
            Tuple::new(5, 51), // later duplicate replaces
            Tuple::new(1, 10),
        ]);
        let t = BPlusTree::build(&rel);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(5), Some(51));
        assert_eq!(t.get(3), Some(30));
        assert_eq!(t.get(1), Some(10));
    }

    #[test]
    fn separator_equal_key_goes_right() {
        // Key 7 is the first key of leaf 2 and therefore a separator; an
        // equal search key must descend right and still find it.
        let pairs: Vec<(u64, u64)> = (0..14u64).map(|k| (k, k + 100)).collect();
        let t = BPlusTree::from_sorted(&pairs);
        assert_eq!(t.height(), 2);
        assert_eq!(t.get(7), Some(107));
        assert_eq!(t.get(6), Some(106));
    }

    #[test]
    fn stats_reflect_shape() {
        let pairs: Vec<(u64, u64)> = (0..448u64).map(|k| (k, k)).collect();
        let t = BPlusTree::from_sorted(&pairs);
        let s = t.stats();
        assert_eq!(s.keys, 448);
        assert_eq!(s.leaf_nodes, 64);
        assert_eq!(s.inner_nodes, 8 + 1);
        assert_eq!(s.height, 3);
        assert!((s.leaf_fill - 1.0).abs() < 1e-9, "bulk load packs leaves full");
    }

    #[test]
    fn hot_levels_are_the_top_inner_levels_that_fit() {
        // 2^20 keys: inner levels of 1, 5, 37, 293, 2341, ... nodes; the
        // first four take 336 × 128 B, the fifth would pass 256 KiB.
        // 2^17 keys: the top four of five inner levels.
        for (log2, height) in [(20, 7), (17, 6)] {
            let pairs: Vec<(u64, u64)> = (0..1u64 << log2).map(|k| (k, k)).collect();
            let t = BPlusTree::from_sorted(&pairs);
            assert_eq!((t.height(), t.hot_levels()), (height, 4), "2^{log2}");
        }
        for (n, hot) in [(0usize, 0usize), (7, 0), (8, 1), (449, 3), (10_000, 4)] {
            let pairs: Vec<(u64, u64)> = (0..n as u64).map(|k| (k, k)).collect();
            let t = BPlusTree::from_sorted(&pairs);
            assert_eq!(t.hot_levels(), hot, "n={n}");
            assert_eq!(t.hot_levels(), t.height().saturating_sub(1), "n={n}: all inner levels fit");
        }
    }

    #[test]
    fn matches_std_btreemap_model() {
        use std::collections::BTreeMap;
        let rel = Relation::sparse_unique(5000, 77);
        let t = BPlusTree::build(&rel);
        let model: BTreeMap<u64, u64> = rel.tuples.iter().map(|t| (t.key, t.payload)).collect();
        for (k, v) in &model {
            assert_eq!(t.get(*k), Some(*v));
            assert_eq!(t.get(k.wrapping_add(1)).is_some(), model.contains_key(&(k + 1)));
        }
        assert_eq!(t.iter_all(), model.into_iter().collect::<Vec<_>>());
    }
}
