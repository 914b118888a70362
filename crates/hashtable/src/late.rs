//! Late-aggregation group-by table.
//!
//! §2.1.1 describes two group-by strategies: "either the payloads are
//! added to a separate list pointed to by the hash table node (i.e., late
//! aggregation) or the necessary aggregation function is applied
//! immediately". [`crate::agg::AggTable`] implements the immediate form;
//! this module implements the **late** form: each group node heads a
//! chunked payload list, and aggregates are computed at read time.
//!
//! Late aggregation adds one more dependent pointer class (group node →
//! payload chunk) and a higher write volume — a heavier irregular-access
//! workload for the executors.

use amac_mem::arena::IndexedArena;
use amac_mem::hash::{bucket_of, next_pow2};
use amac_mem::latch::Latch;
use amac_mem::NULL_INDEX;
use core::cell::UnsafeCell;

/// Payloads stored inline per list chunk. The `u32` chunk link (vs the
/// seed's 8-byte pointer) buys a seventh payload slot in the same cache
/// line: 7×8 B payloads + 4 B next + 1 B count = 61 B.
pub const PAYLOADS_PER_CHUNK: usize = 7;

/// A chunk of buffered payloads.
#[repr(C, align(64))]
pub struct PayloadChunk {
    /// Payload slots; `0..count` valid.
    pub payloads: [u64; PAYLOADS_PER_CHUNK],
    /// Arena index of the older chunk (chunks are prepended), or
    /// [`NULL_INDEX`].
    pub next: u32,
    /// Occupied slots.
    pub count: u8,
}

impl Default for PayloadChunk {
    fn default() -> Self {
        PayloadChunk { payloads: [0; PAYLOADS_PER_CHUNK], next: NULL_INDEX, count: 0 }
    }
}

/// Interior of a late-aggregation group node.
#[repr(C)]
pub struct LateData {
    /// Group key (valid when `tuples > 0`).
    pub key: u64,
    /// Total payloads buffered for this group.
    pub tuples: u64,
    /// Chunk-arena index of the chunk-list head, or [`NULL_INDEX`].
    pub head: u32,
    /// Node-arena index of the next group node in this bucket's chain, or
    /// [`NULL_INDEX`].
    pub next: u32,
}

impl Default for LateData {
    fn default() -> Self {
        LateData { key: 0, tuples: 0, head: NULL_INDEX, next: NULL_INDEX }
    }
}

/// One late-aggregation chain node (header layout as the other tables:
/// latch + data in a cache line).
#[repr(C, align(64))]
#[derive(Default)]
pub struct LateBucket {
    /// Chain latch (headers only).
    pub latch: Latch,
    data: UnsafeCell<LateData>,
}

// SAFETY: identical discipline to Bucket/AggBucket — latch-guarded
// mutation, read-only phases, arena-owned nodes.
unsafe impl Send for LateBucket {}
unsafe impl Sync for LateBucket {}

impl LateBucket {
    /// Read the node payload.
    ///
    /// # Safety
    /// No concurrent mutation (read-only phase or latch held).
    #[inline(always)]
    pub unsafe fn data(&self) -> &LateData {
        &*self.data.get()
    }

    /// Mutate the node payload.
    ///
    /// # Safety
    /// Caller holds the governing header latch (or exclusive access).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn data_mut(&self) -> &mut LateData {
        &mut *self.data.get()
    }
}

/// The late-aggregation group-by table.
pub struct LateAggTable {
    buckets: amac_mem::Region<LateBucket>,
    mask: u64,
    /// Overflow group nodes ([`LateData::next`] indices resolve here).
    nodes: IndexedArena<LateBucket>,
    /// Payload chunks ([`LateData::head`]/[`PayloadChunk::next`] indices
    /// resolve here).
    chunks: IndexedArena<PayloadChunk>,
}

// SAFETY: as for the other tables.
unsafe impl Send for LateAggTable {}
unsafe impl Sync for LateAggTable {}

impl LateAggTable {
    /// Create a table with at least `n_buckets` buckets.
    pub fn with_buckets(n_buckets: usize) -> Self {
        let n = next_pow2(n_buckets);
        LateAggTable {
            buckets: amac_mem::Region::new(n),
            mask: (n - 1) as u64,
            nodes: IndexedArena::new(),
            chunks: IndexedArena::new(),
        }
    }

    /// Size for `n_groups` distinct keys.
    pub fn for_groups(n_groups: usize) -> Self {
        Self::with_buckets(n_groups.max(1))
    }

    /// Header address for `key` (stage-0 prefetch target).
    #[inline(always)]
    pub fn bucket_addr(&self, key: u64) -> *const LateBucket {
        // SAFETY: masked index < len.
        unsafe { self.buckets.as_ptr().add(bucket_of(key, self.mask) as usize) }
    }

    /// Resolve a group-node chain index to its stable address.
    #[inline(always)]
    pub fn node_ptr(&self, idx: u32) -> *const LateBucket {
        self.nodes.get(idx)
    }

    /// Resolve a payload-chunk index to its stable address.
    #[inline(always)]
    pub fn chunk_ptr(&self, idx: u32) -> *const PayloadChunk {
        self.chunks.get(idx)
    }

    /// Open an update session.
    pub fn handle(&self) -> LateHandle<'_> {
        LateHandle { table: self }
    }

    /// Collect a group's buffered payloads (read-only phase).
    pub fn payloads(&self, key: u64) -> Option<Vec<u64>> {
        let mut node = self.bucket_addr(key);
        loop {
            // SAFETY: read-only phase.
            let d = unsafe { (*node).data() };
            if d.tuples > 0 && d.key == key {
                let mut out = Vec::with_capacity(d.tuples as usize);
                let mut chunk = d.head;
                while chunk != NULL_INDEX {
                    let c = self.chunk_ptr(chunk);
                    // SAFETY: chunk list owned by this table's arena.
                    unsafe {
                        for i in 0..(*c).count as usize {
                            out.push((*c).payloads[i]);
                        }
                        chunk = (*c).next;
                    }
                }
                debug_assert_eq!(out.len() as u64, d.tuples);
                return Some(out);
            }
            if d.next == NULL_INDEX {
                return None;
            }
            node = self.node_ptr(d.next);
        }
    }

    /// Compute the paper's aggregates from the buffered payloads (the
    /// "late" in late aggregation).
    pub fn finalize(&self, key: u64) -> Option<crate::agg::AggValues> {
        let payloads = self.payloads(key)?;
        let mut it = payloads.iter();
        let mut acc = crate::agg::AggValues::first(*it.next()?);
        for &p in it {
            acc.update(p);
        }
        Some(acc)
    }

    /// Number of distinct groups (walks the table; validation use).
    pub fn group_count(&self) -> usize {
        let mut n = 0usize;
        for b in self.buckets.iter() {
            let mut node: *const LateBucket = b;
            loop {
                // SAFETY: read-only phase.
                let d = unsafe { (*node).data() };
                if d.tuples > 0 {
                    n += 1;
                }
                if d.next == NULL_INDEX {
                    break;
                }
                node = self.node_ptr(d.next);
            }
        }
        n
    }
}

/// Update session for [`LateAggTable`].
pub struct LateHandle<'t> {
    table: &'t LateAggTable,
}

impl LateHandle<'_> {
    /// The table this handle updates.
    #[inline]
    pub fn table(&self) -> &LateAggTable {
        self.table
    }

    /// Allocate a fresh group node, returning its index and address.
    #[inline]
    pub fn alloc_node(&mut self) -> (u32, *mut LateBucket) {
        self.table.nodes.alloc()
    }

    /// Allocate a fresh payload chunk, returning its index and address.
    #[inline]
    pub fn alloc_chunk(&mut self) -> (u32, *mut PayloadChunk) {
        self.table.chunks.alloc()
    }

    /// Buffer `(key, payload)`, spinning on the header latch.
    pub fn append(&mut self, key: u64, payload: u64) {
        let header = self.table.bucket_addr(key);
        // SAFETY: valid header; mutation under latch.
        unsafe {
            (*header).latch.acquire();
            self.append_latched(header, key, payload);
            (*header).latch.release();
        }
    }

    /// Buffer under an already-held header latch (AMAC stage code).
    ///
    /// # Safety
    /// `header` must belong to this handle's table; caller holds its latch.
    pub unsafe fn append_latched(&mut self, header: *const LateBucket, key: u64, payload: u64) {
        let mut node = header;
        loop {
            let d = (*node).data_mut();
            if d.tuples == 0 {
                // Claim the empty header.
                d.key = key;
                self.push_payload(d, payload);
                return;
            }
            if d.key == key {
                self.push_payload(d, payload);
                return;
            }
            if d.next == NULL_INDEX {
                let (idx, fresh) = self.alloc_node();
                let fd = (*fresh).data_mut();
                fd.key = key;
                self.push_payload(fd, payload);
                d.next = idx;
                return;
            }
            node = self.table.node_ptr(d.next);
        }
    }

    /// Append one payload to a group's chunk list (prepending a fresh
    /// chunk when the head is full).
    ///
    /// # Safety
    /// Caller holds the chain latch covering `d`.
    unsafe fn push_payload(&mut self, d: &mut LateData, payload: u64) {
        let head = d.head;
        if head == NULL_INDEX || (*self.table.chunk_ptr(head)).count as usize == PAYLOADS_PER_CHUNK
        {
            let (idx, fresh) = self.alloc_chunk();
            (*fresh).next = head;
            d.head = idx;
        }
        let h = self.table.chunk_ptr(d.head) as *mut PayloadChunk;
        let c = (*h).count as usize;
        (*h).payloads[c] = payload;
        (*h).count += 1;
        d.tuples += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn layouts_are_one_line() {
        assert_eq!(core::mem::size_of::<PayloadChunk>(), 64);
        assert_eq!(core::mem::size_of::<LateBucket>(), 64);
    }

    #[test]
    fn buffers_every_payload_in_insertion_order_per_chunk() {
        let t = LateAggTable::for_groups(8);
        {
            let mut h = t.handle();
            for p in 0..20u64 {
                h.append(5, p);
            }
        }
        let mut got = t.payloads(5).unwrap();
        assert_eq!(got.len(), 20);
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(t.payloads(6), None);
    }

    #[test]
    fn finalize_matches_immediate_aggregation() {
        use crate::agg::AggValues;
        let t = LateAggTable::for_groups(16);
        let mut model: HashMap<u64, AggValues> = HashMap::new();
        {
            let mut h = t.handle();
            let mut x = 0x1234u64;
            for _ in 0..5000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let k = x % 40;
                let p = x >> 32;
                h.append(k, p);
                model.entry(k).and_modify(|a| a.update(p)).or_insert_with(|| AggValues::first(p));
            }
        }
        assert_eq!(t.group_count(), model.len());
        for (k, want) in &model {
            let got = t.finalize(*k).unwrap();
            assert_eq!(got.count, want.count, "group {k}");
            assert_eq!(got.sum, want.sum, "group {k}");
            assert_eq!(got.min, want.min, "group {k}");
            assert_eq!(got.max, want.max, "group {k}");
            assert_eq!(got.sumsq, want.sumsq, "group {k}");
        }
    }

    #[test]
    fn chained_groups_in_one_bucket() {
        let t = LateAggTable::with_buckets(1);
        {
            let mut h = t.handle();
            for k in 0..50u64 {
                for p in 0..3 {
                    h.append(k, k * 100 + p);
                }
            }
        }
        assert_eq!(t.group_count(), 50);
        for k in 0..50u64 {
            assert_eq!(t.payloads(k).unwrap().len(), 3, "group {k}");
        }
    }

    #[test]
    fn concurrent_appends_lose_nothing() {
        let t = LateAggTable::for_groups(4);
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..2500u64 {
                        h.append(i % 8, tid * 10_000 + i);
                    }
                });
            }
        });
        let total: usize = (0..8u64).map(|k| t.payloads(k).unwrap().len()).sum();
        assert_eq!(total, 10_000);
    }
}
