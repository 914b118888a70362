//! The cache-line size.
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
