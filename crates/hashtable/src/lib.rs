//! Hash tables in the paper's (Balkesen et al.) layout.
//!
//! Two tables:
//!
//! * [`HashTable`] — the chained hash-join table (§4) in the **tag-probed
//!   fat layout**: each 64-byte, cache-line-aligned node holds a 1-byte
//!   latch, **three** 16-byte tuples, a packed word of per-slot
//!   fingerprints and a `u32` arena index to the next chain node (see
//!   [`bucket`] for the layout math and the `tag_slots` node kernel); overflow
//!   nodes reuse the bucket layout ("the first hash table node is
//!   clustered with the bucket header", Fig. 1).
//! * [`agg::AggTable`] — the group-by table: one group per node, carrying
//!   the paper's six aggregates (count, sum, min, max, sum of squares, and
//!   avg derived at read time), chain-linked by `u32` index.
//!
//! # Concurrency model
//!
//! Mutation goes through per-bucket latches with `UnsafeCell` payloads:
//! the *holder of a bucket's latch* may mutate that bucket's chain; readers
//! may traverse only during read-only phases (probe after build), which the
//! operator drivers enforce by taking `&mut`/ownership at phase boundaries.
//! Overflow nodes come from one table-owned
//! [`IndexedArena`](amac_mem::arena::IndexedArena) with lock-free
//! allocation, so the `u32` chain indices all build handles write resolve
//! through a single address space for the table's lifetime.

pub mod agg;
pub mod bucket;
pub mod table;
pub mod vector;

pub use agg::{AggBucket, AggTable};
pub use bucket::{
    probe_word, tag_slots, tags_may_match, Bucket, BucketData, Slots, TUPLES_PER_NODE,
};
pub use table::{BuildHandle, HashTable, TableSnapshot, TableStats};
