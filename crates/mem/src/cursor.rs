//! The ordered indexes' search contract (Table 1's one shape for BST,
//! skip-list and B+-tree search): stage 0 walks the hot prefix inline
//! and prefetches the node below it, each later stage compares, moves and
//! prefetches. Each structure's crate implements [`Cursor`] once; one
//! `amac_ops` search op runs them all.

/// Bytes of an ordered index's top levels that every lookup walks inline,
/// with no prefetch and no yield (its *hot prefix*).
///
/// Every lookup reads the same top levels again, so they stay cached and
/// an AMAC stage there hides no miss: it only costs a rotation and holds
/// a window slot. 256 KiB is a typical L2. Each structure converts it
/// to levels by its own node size (`amac_tree::HOT_DEPTH`,
/// `amac_skiplist::HOT_LEVELS`, `amac_btree::BPlusTree::hot_levels`).
pub const HOT_BYTES: usize = 256 << 10;

/// What one [`Cursor::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Moved one node toward the key and prefetched it.
    Descended,
    /// The key is stored; its payload.
    Found(u64),
    /// The key is absent, or the index is empty.
    Missed,
}

/// A resumable point search in an ordered index. The default cursor is
/// an exhausted search: its `step` returns [`Move::Missed`] without
/// touching memory.
pub trait Cursor<'i>: Default {
    /// The index searched.
    type Index;

    /// Stage 0: walk `index`'s hot prefix for `key` inline and prefetch
    /// the node where the walk stopped.
    fn start(index: &'i Self::Index, key: u64) -> Self;

    /// One later stage: visit the prefetched node and move.
    fn step(&mut self, key: u64) -> Move;
}
