//! Canonical binary search tree (§4, §5.3).
//!
//! "We use a canonical implementation of a binary search tree. … Each
//! binary tree node contains an 8-byte key, an 8-byte payload and two
//! 8-byte child pointers." Nodes are cache-line aligned like every other
//! structure in the paper. The tree is built by plain unbalanced insertion
//! of uniformly-random keys, so expected depth is ~1.39·log2 n with real
//! variance across lookups — exactly the irregularity that separates AMAC
//! from GP/SPP in Figure 10.
//!
//! The tree is **built single-threaded and probed read-only**, so no
//! latches are needed; `&self` traversal after build is safe by phase
//! separation.
//!
//! A search runs as a [`BstCursor`] (the crate's [`Cursor`]): stage 0 ([`BstCursor::start`])
//! walks the tree's *hot prefix* (depths below [`HOT_DEPTH`], the top
//! levels that fit in [`HOT_BYTES`] and that every lookup reads again)
//! inline, with no prefetch and no yield, and prefetches the node where
//! that walk stopped; each later stage ([`BstCursor::step`]) visits one
//! node. The per-node kernel is [`prefetch_node`] plus
//! [`TreeNode::child`]. Unlike the paper's `PREFETCHNTA` (§4), the
//! prefetch is `PREFETCHT0`: every lookup walks the same upper levels
//! again, and an NTA fill that leaves L1 is not kept in L2. The child is
//! selected by address, not by a branch on the key comparison, whose
//! outcome is random per level.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

use amac_mem::arena::Arena;
use amac_mem::prefetch::prefetch_read_t0;
use amac_mem::{Cursor, Move, HOT_BYTES};
use amac_workload::Relation;
use core::marker::PhantomData;

/// One cache-line-aligned tree node.
#[repr(C, align(64))]
#[derive(Debug)]
pub struct TreeNode {
    /// Search key.
    pub key: u64,
    /// Carried payload.
    pub payload: u64,
    /// Left child (keys < `key`), or null.
    pub left: *mut TreeNode,
    /// Right child (keys > `key`), or null.
    pub right: *mut TreeNode,
}

impl Default for TreeNode {
    fn default() -> Self {
        TreeNode { key: 0, payload: 0, left: core::ptr::null_mut(), right: core::ptr::null_mut() }
    }
}

impl TreeNode {
    /// `right` if `right`, else `left`: one load addressed by the
    /// comparison result, so the descent has no data-dependent branch.
    #[inline(always)]
    pub fn child(&self, right: bool) -> *mut TreeNode {
        let node: *const TreeNode = self;
        // SAFETY: `repr(C)` places `right` directly after `left` (two
        // pointers, no padding between), so `left`'s address plus 0 or 1
        // names one of the two fields of this live node.
        unsafe { *core::ptr::addr_of!((*node).left).add(right as usize) }
    }
}

/// Prefetch node `p` with `PREFETCHT0` (safe for any pointer: prefetch
/// never faults). Temporal, not the paper's NTA: every lookup walks the
/// tree's upper levels again, so they are worth keeping in L2.
#[inline(always)]
pub fn prefetch_node(p: *const TreeNode) {
    prefetch_read_t0(p);
}

/// Depths [`BstCursor::start`] walks inline: the top `HOT_DEPTH` levels
/// hold at most `2^HOT_DEPTH − 1` nodes, which fit in [`HOT_BYTES`] (12
/// for 64-byte nodes).
pub const HOT_DEPTH: usize = (HOT_BYTES / core::mem::size_of::<TreeNode>()).ilog2() as usize;

/// A resumable search position: the node the previous stage prefetched.
/// The default cursor is an exhausted search (`step` returns
/// [`Move::Missed`] without touching memory).
pub struct BstCursor<'t> {
    node: *const TreeNode,
    /// Nodes are arena-owned by the tree, which is read-only while probed.
    tree: PhantomData<&'t Bst>,
}

impl Default for BstCursor<'_> {
    fn default() -> Self {
        BstCursor { node: core::ptr::null(), tree: PhantomData }
    }
}

impl<'t> Cursor<'t> for BstCursor<'t> {
    type Index = Bst;

    /// Stage 0: walk the hot prefix for `key` inline and prefetch the
    /// node where the walk stopped. That is the key's path node at depth
    /// [`HOT_DEPTH`] (the root is depth 0), or an earlier one that holds
    /// the key or has no child toward it: `step` then resolves the lookup
    /// on a cached line.
    #[inline(always)]
    fn start(tree: &'t Bst, key: u64) -> Self {
        let mut node: *const TreeNode = tree.root;
        if !node.is_null() {
            // No path is longer than `len` nodes, so this bound changes no
            // walk; as a run-time trip count it keeps the loop rolled.
            // Unrolled, the 12-level walk made the sequential baseline's
            // BST lookups ~25 % slower than rolled (`index_walk`'s traced
            // `ops.bst.baseline` rung, 2-CPU x86-64 guest).
            for _ in 0..HOT_DEPTH.min(tree.len) {
                // SAFETY: read-only phase; `node` is non-null and
                // arena-owned by the tree.
                let n = unsafe { &*node };
                if key == n.key {
                    break;
                }
                let child = n.child(key > n.key);
                if child.is_null() {
                    break;
                }
                node = child;
            }
        }
        prefetch_node(node);
        BstCursor { node, tree: PhantomData }
    }

    /// Compare `key` with the prefetched node: a match, a miss, or a move
    /// to the child toward the key. The match test is predictable (one
    /// hit per lookup); the direction is not, so the child is selected by
    /// address ([`TreeNode::child`]) rather than by a branch.
    #[inline(always)]
    fn step(&mut self, key: u64) -> Move {
        if self.node.is_null() {
            return Move::Missed; // empty tree
        }
        // SAFETY: read-only phase; nodes are arena-owned by the tree.
        let node = unsafe { &*self.node };
        if key == node.key {
            return Move::Found(node.payload);
        }
        let child = node.child(key > node.key);
        if child.is_null() {
            return Move::Missed;
        }
        prefetch_node(child);
        self.node = child;
        Move::Descended
    }
}

/// An unbalanced binary search tree over arena-allocated nodes.
pub struct Bst {
    arena: Arena<TreeNode>,
    root: *mut TreeNode,
    len: usize,
}

// SAFETY: mutation only via &mut self; &self traversal is read-only and all
// node pointers target the owned arena.
unsafe impl Send for Bst {}
// SAFETY: as for `Send`.
unsafe impl Sync for Bst {}

impl Bst {
    /// An empty tree.
    pub fn new() -> Self {
        Bst { arena: Arena::new(), root: core::ptr::null_mut(), len: 0 }
    }

    /// Pre-size the node arena for `n` inserts.
    pub fn with_capacity(n: usize) -> Self {
        Bst { arena: Arena::with_capacity(n), root: core::ptr::null_mut(), len: 0 }
    }

    /// Build a tree from a relation (keys inserted in storage order).
    pub fn build(rel: &Relation) -> Self {
        let mut t = Self::with_capacity(rel.len());
        for tu in &rel.tuples {
            t.insert(tu.key, tu.payload);
        }
        t
    }

    /// Insert `(key, payload)`; replaces the payload if `key` exists.
    /// Returns `true` when a new node was created.
    pub fn insert(&mut self, key: u64, payload: u64) -> bool {
        let mut slot = &mut self.root;
        loop {
            if slot.is_null() {
                *slot = self.arena.alloc_with(TreeNode { key, payload, ..TreeNode::default() });
                self.len += 1;
                return true;
            }
            // SAFETY: a non-null slot points into our arena; we hold
            // &mut self.
            let node = unsafe { &mut **slot };
            if key == node.key {
                node.payload = payload;
                return false;
            }
            slot = if key < node.key { &mut node.left } else { &mut node.right };
        }
    }

    /// Reference search: the walk a [`BstCursor`] stages, with no
    /// prefetch.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.find(key).map(|(node, _)| node.payload)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Depth of the node holding `key` (root = 1), if present.
    pub fn depth_of(&self, key: u64) -> Option<usize> {
        self.find(key).map(|(_, depth)| depth)
    }

    /// The node holding `key`, and its depth (root = 1).
    fn find(&self, key: u64) -> Option<(&TreeNode, usize)> {
        let mut cur: *const TreeNode = self.root;
        let mut depth = 0;
        while !cur.is_null() {
            depth += 1;
            // SAFETY: read-only phase; nodes are arena-owned by the tree.
            let node = unsafe { &*cur };
            use core::cmp::Ordering::*;
            match key.cmp(&node.key) {
                Equal => return Some((node, depth)),
                Less => cur = node.left,
                Greater => cur = node.right,
            }
        }
        None
    }

    /// Tree height (max node depth; 0 for empty).
    pub fn height(&self) -> usize {
        let mut max = 0;
        self.in_order(|_, depth| max = max.max(depth));
        max
    }

    /// In-order key traversal (validation).
    pub fn keys_in_order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.in_order(|node, _| out.push(node.key));
        out
    }

    /// Visit every node in key order with its depth (root = 1).
    /// Iterative to survive adversarial (sorted-input) shapes without
    /// stack overflow.
    fn in_order(&self, mut visit: impl FnMut(&TreeNode, usize)) {
        let mut stack: Vec<(&TreeNode, usize)> = Vec::new();
        let (mut cur, mut depth): (*const TreeNode, usize) = (self.root, 1);
        loop {
            // SAFETY: read-only phase; `cur` is null or an arena-owned node.
            while let Some(node) = unsafe { cur.as_ref() } {
                stack.push((node, depth));
                (cur, depth) = (node.left, depth + 1);
            }
            let Some((node, d)) = stack.pop() else { return };
            visit(node, d);
            (cur, depth) = (node.right, d + 1);
        }
    }
}

impl Default for Bst {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_is_one_cache_line() {
        assert_eq!(core::mem::size_of::<TreeNode>(), 64);
        assert_eq!(core::mem::align_of::<TreeNode>(), 64);
    }

    #[test]
    fn right_sits_one_pointer_after_left() {
        // `child` selects by address; a field reorder must fail here.
        let n = TreeNode::default();
        let left = core::ptr::addr_of!(n.left) as usize;
        let right = core::ptr::addr_of!(n.right) as usize;
        assert_eq!(right - left, 8);
    }

    #[test]
    fn child_selects_left_or_right() {
        let (mut a, mut b) = (TreeNode::default(), TreeNode::default());
        let n = TreeNode { left: &mut a, right: &mut b, ..TreeNode::default() };
        assert_eq!(n.child(false), n.left);
        assert_eq!(n.child(true), n.right);
        let leaf = TreeNode::default();
        assert!(leaf.child(false).is_null());
        assert!(leaf.child(true).is_null());
        let half = TreeNode { right: &mut b, ..TreeNode::default() };
        assert!(half.child(false).is_null());
        assert_eq!(half.child(true), &mut b as *mut TreeNode);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = Bst::new();
        assert!(t.is_empty());
        for k in [50u64, 30, 70, 20, 40, 60, 80] {
            assert!(t.insert(k, k * 10));
        }
        assert_eq!(t.len(), 7);
        for k in [50u64, 30, 70, 20, 40, 60, 80] {
            assert_eq!(t.get(k), Some(k * 10));
        }
        assert_eq!(t.get(55), None);
    }

    #[test]
    fn duplicate_key_replaces_payload() {
        let mut t = Bst::new();
        assert!(t.insert(1, 10));
        assert!(!t.insert(1, 20));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1), Some(20));
    }

    #[test]
    fn inorder_is_sorted() {
        let rel = Relation::sparse_unique(5000, 7);
        let t = Bst::build(&rel);
        let keys = t.keys_in_order();
        assert_eq!(keys.len(), 5000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn random_build_height_is_logarithmic() {
        let n = 1 << 14;
        let rel = Relation::sparse_unique(n, 11);
        let t = Bst::build(&rel);
        let h = t.height();
        let log2n = (n as f64).log2();
        // Random BST expected height ≈ 2.99·log2 n; allow generous slack.
        assert!(h as f64 > log2n, "height {h} implausibly small");
        assert!(h as f64 <= 4.5 * log2n, "height {h} implausibly large for random keys");
    }

    #[test]
    fn sorted_insert_degenerates_and_survives() {
        let mut t = Bst::new();
        for k in 0..2000u64 {
            t.insert(k, k);
        }
        assert_eq!(t.height(), 2000, "sorted input must produce a path tree");
        assert_eq!(t.get(1999), Some(1999));
        assert_eq!(t.keys_in_order().len(), 2000);
    }

    #[test]
    fn depth_of_matches_walk() {
        let mut t = Bst::new();
        for k in [8u64, 4, 12, 2, 6] {
            t.insert(k, 0);
        }
        assert_eq!(t.depth_of(8), Some(1));
        assert_eq!(t.depth_of(4), Some(2));
        assert_eq!(t.depth_of(6), Some(3));
        assert_eq!(t.depth_of(99), None);
    }

    #[test]
    fn empty_tree_queries() {
        let t = Bst::new();
        assert_eq!(t.get(1), None);
        assert_eq!(t.height(), 0);
        assert!(t.keys_in_order().is_empty());
    }

    #[test]
    fn probe_relation_finds_every_build_key() {
        let rel = Relation::sparse_unique(3000, 21);
        let probe = rel.shuffled(22);
        let t = Bst::build(&rel);
        for p in &probe.tuples {
            assert!(t.get(p.key).is_some());
        }
    }
}
