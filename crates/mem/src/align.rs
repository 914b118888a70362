//! The cache-line size, and the budget of an ordered index's hot prefix.
//!
//! The paper aligns every data-structure node to a 64-byte cache block
//! (§4, "the data structure nodes are aligned to 64-byte cache block
//! boundary with the aligned attribute"). A prefetch fetches exactly one
//! line, so a node that straddles two lines would need two prefetches and
//! would halve the effective MLP.

/// Cache line size assumed throughout the suite, in bytes.
///
/// 64 bytes on every x86 and most AArch64 parts; the paper's Xeon x5670 and
/// SPARC T4 both use 64-byte lines.
pub const CACHE_LINE: usize = 64;

/// Bytes of an ordered index's top levels that every lookup walks inline,
/// with no prefetch and no yield (its *hot prefix*).
///
/// Every lookup reads the same top levels again, so they stay cached and
/// an AMAC stage there hides no miss: it only costs a rotation and holds
/// a window slot. 256 KiB is a typical L2. Each structure converts it
/// to levels by its own node size (`amac_tree::HOT_DEPTH`,
/// `amac_skiplist::HOT_LEVELS`, `amac_btree::BPlusTree::hot_levels`).
pub const HOT_BYTES: usize = 256 << 10;
