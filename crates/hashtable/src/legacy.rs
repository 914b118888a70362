//! The seed's pointer-linked 2-tuple node layout, kept alive for the
//! layout A/B.
//!
//! This module is a faithful copy of the pre-tag-probed design: a 64-byte
//! node holding a 1-byte count, **two** 16-byte tuples and an 8-byte
//! `next` pointer, with overflow nodes drawn from per-handle arenas that
//! are donated back to the table. It exists so `bench/bin/layout` and the
//! equivalence tests can run the *same* probe and group-by workloads over
//! both layouts and report the hop savings as a deterministic metric —
//! see [`crate::bucket`] for what the redesign changed and why.
//!
//! Nothing outside the A/B harness should depend on these types.

use amac_mem::arena::Arena;
use amac_mem::hash::{bucket_of, next_pow2};
use amac_mem::latch::Latch;
use amac_workload::{Relation, Tuple};
use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tuples per node in the legacy layout.
pub const LEGACY_TUPLES_PER_NODE: usize = 2;

/// Mutable interior of a legacy chain node: 1-byte count (padded), two
/// tuples, 8-byte next pointer — the paper's literal C struct.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct LegacyBucketData {
    /// Number of occupied tuple slots (0..=2).
    pub count: u8,
    /// Inline tuple storage; slots `0..count` are valid.
    pub tuples: [Tuple; LEGACY_TUPLES_PER_NODE],
    /// Next chain node, or null.
    pub next: *mut LegacyBucket,
}

impl Default for LegacyBucketData {
    fn default() -> Self {
        LegacyBucketData {
            count: 0,
            tuples: [Tuple::default(); LEGACY_TUPLES_PER_NODE],
            next: core::ptr::null_mut(),
        }
    }
}

/// One cache-line legacy chain node.
#[repr(C, align(64))]
#[derive(Debug, Default)]
pub struct LegacyBucket {
    /// Chain latch (meaningful on headers).
    pub latch: Latch,
    data: UnsafeCell<LegacyBucketData>,
}

// SAFETY: same discipline as `Bucket` — mutation under the header latch,
// read-only traversal otherwise, nodes owned by (donated to) the table.
unsafe impl Send for LegacyBucket {}
unsafe impl Sync for LegacyBucket {}

impl LegacyBucket {
    /// Read the node payload.
    ///
    /// # Safety
    /// No concurrent mutation (read-only phase or latch held).
    #[inline(always)]
    pub unsafe fn data(&self) -> &LegacyBucketData {
        &*self.data.get()
    }

    /// Mutate the node payload.
    ///
    /// # Safety
    /// Caller holds the governing header latch (or exclusive access).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn data_mut(&self) -> &mut LegacyBucketData {
        &mut *self.data.get()
    }
}

/// The legacy chained hash-join table (pointer links, 2 tuples/node).
pub struct LegacyHashTable {
    buckets: amac_mem::Region<LegacyBucket>,
    mask: u64,
    arenas: Mutex<Vec<Arena<LegacyBucket>>>,
    tuples: AtomicU64,
}

// SAFETY: as for `HashTable`.
unsafe impl Send for LegacyHashTable {}
unsafe impl Sync for LegacyHashTable {}

impl LegacyHashTable {
    /// Create an empty table with at least `n_buckets` buckets.
    pub fn with_buckets(n_buckets: usize) -> Self {
        let n = next_pow2(n_buckets);
        LegacyHashTable {
            buckets: amac_mem::Region::new(n),
            mask: (n - 1) as u64,
            arenas: Mutex::new(Vec::new()),
            tuples: AtomicU64::new(0),
        }
    }

    /// Size for `n_tuples` at the legacy default load (2 tuples/bucket).
    pub fn for_tuples(n_tuples: usize) -> Self {
        Self::with_buckets((n_tuples / LEGACY_TUPLES_PER_NODE).max(1))
    }

    /// Build from `rel` on the calling thread.
    pub fn build_serial(rel: &Relation) -> Self {
        let table = Self::for_tuples(rel.len());
        {
            let mut h = table.build_handle();
            for t in &rel.tuples {
                h.insert(t.key, t.payload);
            }
        }
        table
    }

    /// Number of buckets.
    #[inline(always)]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Header address for `key` (stage-0 prefetch target).
    #[inline(always)]
    pub fn bucket_addr(&self, key: u64) -> *const LegacyBucket {
        // SAFETY: masked index < len.
        unsafe { self.buckets.as_ptr().add(bucket_of(key, self.mask) as usize) }
    }

    /// Tuples inserted by completed handles.
    #[inline]
    pub fn tuple_count(&self) -> u64 {
        self.tuples.load(Ordering::Acquire)
    }

    /// Open an insertion handle (private overflow arena, donated on drop).
    pub fn build_handle(&self) -> LegacyBuildHandle<'_> {
        LegacyBuildHandle { table: self, arena: Some(Arena::new()), inserted: 0 }
    }

    /// Reference probe: every matching payload for `key`.
    pub fn lookup_all(&self, key: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut node = self.bucket_addr(key);
        while !node.is_null() {
            // SAFETY: read-only phase traversal.
            let d = unsafe { (*node).data() };
            for i in 0..d.count as usize {
                if d.tuples[i].key == key {
                    out.push(d.tuples[i].payload);
                }
            }
            node = d.next;
        }
        out
    }

    /// Total tuples stored (walks the table; for tests).
    pub fn len(&self) -> usize {
        let mut total = 0usize;
        for i in 0..self.buckets.len() {
            let mut node: *const LegacyBucket = &self.buckets[i];
            while !node.is_null() {
                // SAFETY: read-only phase traversal.
                let d = unsafe { (*node).data() };
                total += d.count as usize;
                node = d.next;
            }
        }
        total
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Insertion session against a [`LegacyHashTable`].
pub struct LegacyBuildHandle<'t> {
    table: &'t LegacyHashTable,
    arena: Option<Arena<LegacyBucket>>,
    inserted: u64,
}

impl LegacyBuildHandle<'_> {
    /// The table this handle inserts into.
    #[inline]
    pub fn table(&self) -> &LegacyHashTable {
        self.table
    }

    /// Insert `(key, payload)` under the bucket latch.
    pub fn insert(&mut self, key: u64, payload: u64) {
        let bucket = self.table.bucket_addr(key);
        // SAFETY: valid header; mutation under its latch.
        unsafe {
            (*bucket).latch.acquire();
            self.insert_latched(bucket, key, payload);
            (*bucket).latch.release();
        }
    }

    /// Insert under an already-held bucket latch (AMAC build stage).
    ///
    /// # Safety
    /// `bucket` must be a header of this handle's table; caller holds its
    /// latch.
    pub unsafe fn insert_latched(&mut self, bucket: *const LegacyBucket, key: u64, payload: u64) {
        self.inserted += 1;
        let d = (*bucket).data_mut();
        if (d.count as usize) < LEGACY_TUPLES_PER_NODE {
            d.tuples[d.count as usize] = Tuple::new(key, payload);
            d.count += 1;
            return;
        }
        let head = d.next;
        if !head.is_null() {
            let hd = (*head).data_mut();
            if (hd.count as usize) < LEGACY_TUPLES_PER_NODE {
                hd.tuples[hd.count as usize] = Tuple::new(key, payload);
                hd.count += 1;
                return;
            }
        }
        let node = self.arena.as_mut().expect("arena present until drop").alloc();
        let nd = (*node).data_mut();
        nd.tuples[0] = Tuple::new(key, payload);
        nd.count = 1;
        nd.next = head;
        d.next = node;
    }
}

impl Drop for LegacyBuildHandle<'_> {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            self.table.arenas.lock().expect("arena registry poisoned").push(arena);
        }
        self.table.tuples.fetch_add(self.inserted, Ordering::AcqRel);
    }
}

/// Interior of a legacy aggregate node (pointer-linked).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct LegacyAggData {
    /// The group key (valid when `aggs.count > 0`).
    pub key: u64,
    /// The running aggregates; `count == 0` marks an unoccupied header.
    pub aggs: crate::agg::AggValues,
    /// Next chain node, or null.
    pub next: *mut LegacyAggBucket,
}

impl Default for LegacyAggData {
    fn default() -> Self {
        LegacyAggData {
            key: 0,
            aggs: crate::agg::AggValues { count: 0, sum: 0, min: u64::MAX, max: 0, sumsq: 0 },
            next: core::ptr::null_mut(),
        }
    }
}

/// One legacy aggregate chain node.
#[repr(C, align(64))]
#[derive(Debug, Default)]
pub struct LegacyAggBucket {
    /// Chain latch (headers only).
    pub latch: Latch,
    data: UnsafeCell<LegacyAggData>,
}

// SAFETY: as for `AggBucket`.
unsafe impl Send for LegacyAggBucket {}
unsafe impl Sync for LegacyAggBucket {}

impl LegacyAggBucket {
    /// Read the node payload.
    ///
    /// # Safety
    /// No concurrent mutation (read-only phase or latch held).
    #[inline(always)]
    pub unsafe fn data(&self) -> &LegacyAggData {
        &*self.data.get()
    }

    /// Mutate the node payload.
    ///
    /// # Safety
    /// Caller holds the governing header latch (or exclusive access).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn data_mut(&self) -> &mut LegacyAggData {
        &mut *self.data.get()
    }
}

/// The legacy group-by table (pointer-linked aggregate chains).
pub struct LegacyAggTable {
    buckets: amac_mem::Region<LegacyAggBucket>,
    mask: u64,
    arenas: Mutex<Vec<Arena<LegacyAggBucket>>>,
}

// SAFETY: as for `AggTable`.
unsafe impl Send for LegacyAggTable {}
unsafe impl Sync for LegacyAggTable {}

impl LegacyAggTable {
    /// Create a table with at least `n_buckets` buckets.
    pub fn with_buckets(n_buckets: usize) -> Self {
        let n = next_pow2(n_buckets);
        LegacyAggTable {
            buckets: amac_mem::Region::new(n),
            mask: (n - 1) as u64,
            arenas: Mutex::new(Vec::new()),
        }
    }

    /// Size for `n_groups` distinct keys.
    pub fn for_groups(n_groups: usize) -> Self {
        Self::with_buckets(n_groups.max(1))
    }

    /// Header address for `key`.
    #[inline(always)]
    pub fn bucket_addr(&self, key: u64) -> *const LegacyAggBucket {
        // SAFETY: masked index < len.
        unsafe { self.buckets.as_ptr().add(bucket_of(key, self.mask) as usize) }
    }

    /// Open an update session.
    pub fn handle(&self) -> LegacyAggHandle<'_> {
        LegacyAggHandle { table: self, arena: Some(Arena::new()) }
    }

    /// Read a group's aggregates (read-only phase).
    pub fn get(&self, key: u64) -> Option<crate::agg::AggValues> {
        let mut node = self.bucket_addr(key);
        while !node.is_null() {
            // SAFETY: read-only phase.
            let d = unsafe { (*node).data() };
            if d.aggs.count > 0 && d.key == key {
                return Some(d.aggs);
            }
            node = d.next;
        }
        None
    }

    /// Snapshot every group (read-only phase).
    pub fn groups(&self) -> Vec<(u64, crate::agg::AggValues)> {
        let mut out = Vec::new();
        for b in self.buckets.iter() {
            let mut node: *const LegacyAggBucket = b;
            while !node.is_null() {
                // SAFETY: read-only phase.
                let d = unsafe { (*node).data() };
                if d.aggs.count > 0 {
                    out.push((d.key, d.aggs));
                }
                node = d.next;
            }
        }
        out
    }

    /// Number of distinct groups stored.
    pub fn group_count(&self) -> usize {
        self.groups().len()
    }
}

/// Update session against a [`LegacyAggTable`].
pub struct LegacyAggHandle<'t> {
    table: &'t LegacyAggTable,
    arena: Option<Arena<LegacyAggBucket>>,
}

impl LegacyAggHandle<'_> {
    /// The table this handle updates.
    #[inline]
    pub fn table(&self) -> &LegacyAggTable {
        self.table
    }

    /// Allocate a fresh chain node from the private arena.
    #[inline]
    pub fn alloc_node(&mut self) -> *mut LegacyAggBucket {
        self.arena.as_mut().expect("arena present until drop").alloc()
    }

    /// Aggregate `(key, payload)`, spinning on the header latch.
    pub fn update(&mut self, key: u64, payload: u64) {
        let header = self.table.bucket_addr(key);
        // SAFETY: valid header; mutation under its latch.
        unsafe {
            (*header).latch.acquire();
            self.update_latched(header, key, payload);
            (*header).latch.release();
        }
    }

    /// Aggregate under an already-held header latch (AMAC stage code).
    ///
    /// # Safety
    /// `header` must be a header of this handle's table; caller holds its
    /// latch.
    pub unsafe fn update_latched(
        &mut self,
        header: *const LegacyAggBucket,
        key: u64,
        payload: u64,
    ) {
        use crate::agg::AggValues;
        let mut node = header as *mut LegacyAggBucket;
        loop {
            let d = (*node).data_mut();
            if d.aggs.count == 0 {
                d.key = key;
                d.aggs = AggValues::first(payload);
                return;
            }
            if d.key == key {
                d.aggs.update(payload);
                return;
            }
            if d.next.is_null() {
                let fresh = self.alloc_node();
                let fd = (*fresh).data_mut();
                fd.key = key;
                fd.aggs = AggValues::first(payload);
                d.next = fresh;
                return;
            }
            node = d.next;
        }
    }
}

impl Drop for LegacyAggHandle<'_> {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            self.table.arenas.lock().expect("arena registry poisoned").push(arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_layout_is_the_seed_layout() {
        // 1B count (+7 pad) + 32B tuples + 8B next = 48; node = one line.
        assert_eq!(core::mem::size_of::<LegacyBucketData>(), 48);
        assert_eq!(core::mem::size_of::<LegacyBucket>(), 64);
        assert_eq!(core::mem::size_of::<LegacyAggBucket>(), 64);
        assert_eq!(LEGACY_TUPLES_PER_NODE, 2);
    }

    #[test]
    fn legacy_table_matches_new_table_contents() {
        let rel = Relation::zipf(10_000, 1_500, 0.8, 0x1E6);
        let legacy = LegacyHashTable::build_serial(&rel);
        let new = crate::HashTable::build_serial(&rel);
        assert_eq!(legacy.len(), new.len());
        let mut keys: Vec<u64> = rel.tuples.iter().map(|t| t.key).collect();
        keys.sort_unstable();
        keys.dedup();
        for k in keys {
            let mut a = legacy.lookup_all(k);
            let mut b = new.lookup_all(k);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "key {k}");
        }
    }

    #[test]
    fn legacy_agg_matches_new_agg() {
        let t_old = LegacyAggTable::for_groups(32);
        let t_new = crate::AggTable::for_groups(32);
        {
            let mut ho = t_old.handle();
            let mut hn = t_new.handle();
            for i in 0..5000u64 {
                ho.update(i % 57, i);
                hn.update(i % 57, i);
            }
        }
        let mut a = t_old.groups();
        let mut b = t_new.groups();
        a.sort_by_key(|(k, _)| *k);
        b.sort_by_key(|(k, _)| *k);
        assert_eq!(a, b, "legacy and tag-probed aggregates must be bit-identical");
    }

    #[test]
    fn legacy_concurrent_build() {
        let ht = LegacyHashTable::with_buckets(16);
        std::thread::scope(|scope| {
            for tid in 0..4u64 {
                let ht = &ht;
                scope.spawn(move || {
                    let mut h = ht.build_handle();
                    for i in 0..2500u64 {
                        h.insert(i % 8, tid * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(ht.len(), 10_000);
    }
}
