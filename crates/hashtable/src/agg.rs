//! The group-by aggregate table.
//!
//! "For the group-by workload, we extend the hash table used in hash join
//! with an additional aggregation field" (§4). We give each distinct key
//! one chain node carrying the paper's six aggregates — count, sum, min,
//! max, sum-of-squares stored, average derived from sum/count at read time
//! — which keeps a node (plus latch and next pointer) exactly one cache
//! line.
//!
//! All aggregates are order-independent (count/min/max, wrapping
//! sum/sumsq), so any interleaving of updates — across AMAC slots,
//! morsels, or threads — produces bit-identical tables; the fused
//! pipeline equivalence tests rely on this.

use amac_mem::arena::IndexedArena;
use amac_mem::hash::{bucket_of, next_pow2};
use amac_mem::latch::Latch;
use amac_mem::NULL_INDEX;
use core::cell::UnsafeCell;

/// Aggregates maintained per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggValues {
    /// Number of aggregated payloads.
    pub count: u64,
    /// Sum of payloads (wrapping).
    pub sum: u64,
    /// Minimum payload.
    pub min: u64,
    /// Maximum payload.
    pub max: u64,
    /// Sum of squared payloads (wrapping).
    pub sumsq: u64,
}

impl AggValues {
    /// Initial aggregates for a group's first payload.
    #[inline(always)]
    pub fn first(payload: u64) -> Self {
        AggValues {
            count: 1,
            sum: payload,
            min: payload,
            max: payload,
            sumsq: payload.wrapping_mul(payload),
        }
    }

    /// Fold one more payload in (the paper's per-match aggregate update).
    #[inline(always)]
    pub fn update(&mut self, payload: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(payload);
        self.min = self.min.min(payload);
        self.max = self.max.max(payload);
        self.sumsq = self.sumsq.wrapping_add(payload.wrapping_mul(payload));
    }

    /// The sixth aggregate: average, derived from sum and count.
    #[inline]
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Mutable interior of an aggregate node.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct AggData {
    /// The group key (valid when `count > 0`).
    pub key: u64,
    /// The running aggregates; `count == 0` marks an unoccupied header.
    pub aggs: AggValues,
    /// Arena index of the next chain node, or [`NULL_INDEX`]. The `u32`
    /// link (vs the seed's 8-byte pointer) keeps the node at 56 payload
    /// bytes — same one-line budget as the probe-table node.
    pub next: u32,
}

impl Default for AggData {
    fn default() -> Self {
        AggData {
            key: 0,
            aggs: AggValues { count: 0, sum: 0, min: u64::MAX, max: 0, sumsq: 0 },
            next: NULL_INDEX,
        }
    }
}

/// One cache-line aggregate chain node (header and overflow share the
/// layout; the header's latch guards its whole chain, and every write to
/// a node happens under it).
#[repr(C, align(64))]
#[derive(Debug, Default)]
pub struct AggBucket {
    /// Chain latch (meaningful on headers).
    pub latch: Latch,
    data: UnsafeCell<AggData>,
}

// SAFETY: same discipline as `Bucket` — mutation only under the header
// latch, traversal in read-only phases, nodes arena-owned by the table.
unsafe impl Send for AggBucket {}
unsafe impl Sync for AggBucket {}

impl AggBucket {
    /// Read the node payload.
    ///
    /// # Safety
    /// No concurrent mutation (read-only phase or latch held).
    #[inline(always)]
    pub unsafe fn data(&self) -> &AggData {
        &*self.data.get()
    }

    /// Mutate the node payload.
    ///
    /// # Safety
    /// Caller holds the governing header latch (or exclusive table access).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn data_mut(&self) -> &mut AggData {
        &mut *self.data.get()
    }
}

/// The group-by hash table: one aggregate node per distinct key.
///
/// The header latch is the table's one write protocol: every update goes
/// through an [`AggHandle`] (`update`, or `update_latched` /
/// `visit_latched` from a stage that holds the latch), and reads
/// ([`get`](AggTable::get), [`groups`](AggTable::groups)) run in
/// read-only phases.
pub struct AggTable {
    buckets: amac_mem::Region<AggBucket>,
    mask: u64,
    /// Overflow group nodes, shared by every handle and addressed by the
    /// `u32` chain indices stored in [`AggData::next`].
    nodes: IndexedArena<AggBucket>,
}

impl AggTable {
    /// Create a table with at least `n_buckets` buckets (power of two).
    pub fn with_buckets(n_buckets: usize) -> Self {
        let n = next_pow2(n_buckets);
        AggTable {
            buckets: amac_mem::Region::new(n),
            mask: (n - 1) as u64,
            nodes: IndexedArena::new(),
        }
    }

    /// Size for `n_groups` distinct keys (one header per expected group).
    pub fn for_groups(n_groups: usize) -> Self {
        Self::with_buckets(n_groups.max(1))
    }

    /// Bucket mask.
    #[inline(always)]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Number of bucket headers.
    #[inline(always)]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Address of `key`'s bucket header (for prefetching in stage 0).
    #[inline(always)]
    pub fn bucket_addr(&self, key: u64) -> *const AggBucket {
        // SAFETY: index < len by mask.
        unsafe { self.buckets.as_ptr().add(bucket_of(key, self.mask) as usize) }
    }

    /// Resolve a chain index to the overflow node's stable address (the
    /// per-hop address computation before the prefetch).
    #[inline(always)]
    pub fn node_ptr(&self, idx: u32) -> *const AggBucket {
        self.nodes.get(idx)
    }

    /// Open an update session (latched inserts/updates; nodes come from
    /// the table's shared indexed arena).
    pub fn handle(&self) -> AggHandle<'_> {
        AggHandle { table: self }
    }

    /// Read a group's aggregates (read-only phase).
    pub fn get(&self, key: u64) -> Option<AggValues> {
        let mut node = self.bucket_addr(key);
        loop {
            // SAFETY: read-only phase.
            let d = unsafe { (*node).data() };
            if d.aggs.count > 0 && d.key == key {
                return Some(d.aggs);
            }
            if d.next == NULL_INDEX {
                return None;
            }
            node = self.node_ptr(d.next);
        }
    }

    /// Snapshot every group (read-only phase; test/validation use).
    pub fn groups(&self) -> Vec<(u64, AggValues)> {
        let mut out = Vec::new();
        for b in self.buckets.iter() {
            let mut node: *const AggBucket = b;
            loop {
                // SAFETY: read-only phase.
                let d = unsafe { (*node).data() };
                if d.aggs.count > 0 {
                    out.push((d.key, d.aggs));
                }
                if d.next == NULL_INDEX {
                    break;
                }
                node = self.node_ptr(d.next);
            }
        }
        out
    }

    /// Number of distinct groups stored.
    pub fn group_count(&self) -> usize {
        self.groups().len()
    }
}

// SAFETY: as for HashTable.
unsafe impl Send for AggTable {}
unsafe impl Sync for AggTable {}

/// An update session against a shared [`AggTable`].
pub struct AggHandle<'t> {
    table: &'t AggTable,
}

impl AggHandle<'_> {
    /// The table this handle updates.
    #[inline]
    pub fn table(&self) -> &AggTable {
        self.table
    }

    /// Allocate a fresh chain node, returning its index and address.
    #[inline]
    pub fn alloc_node(&mut self) -> (u32, *mut AggBucket) {
        self.table.nodes.alloc()
    }

    /// Aggregate `(key, payload)`, spinning on the header latch (the
    /// baseline/GP/SPP discipline). Creates the group on first sight.
    pub fn update(&mut self, key: u64, payload: u64) {
        let header = self.table.bucket_addr(key);
        // SAFETY: valid header; mutation under its latch.
        unsafe {
            (*header).latch.acquire();
            self.update_latched(header, key, payload);
            (*header).latch.release();
        }
    }

    /// Aggregate under an **already-held** header latch: walk the chain
    /// with [`visit_latched`](AggHandle::visit_latched) until the tuple
    /// has been folded in.
    ///
    /// # Safety
    /// `header` must be a header of this handle's table; the calling
    /// thread must hold its latch.
    pub unsafe fn update_latched(&mut self, header: *const AggBucket, key: u64, payload: u64) {
        let mut node = header;
        loop {
            let next = self.visit_latched(node, key, payload);
            if next == NULL_INDEX {
                return;
            }
            node = self.table.node_ptr(next);
        }
    }

    /// The per-node action of a latched aggregation (one AMAC code
    /// stage): fold `(key, payload)` into `node` if it holds the key's
    /// group, claim it if it is an unoccupied header, append a fresh
    /// group node if it ends the chain — all three return
    /// [`NULL_INDEX`], the tuple is aggregated. Otherwise return the
    /// chain index of the node to visit next.
    ///
    /// # Safety
    /// `node` must be on a chain of this handle's table whose header
    /// latch the calling thread holds.
    #[inline(always)]
    pub unsafe fn visit_latched(&mut self, node: *const AggBucket, key: u64, payload: u64) -> u32 {
        let d = (*node).data_mut();
        if d.aggs.count == 0 {
            // Unoccupied header: claim it.
            d.key = key;
            d.aggs = AggValues::first(payload);
        } else if d.key == key {
            d.aggs.update(payload);
        } else if d.next == NULL_INDEX {
            let (idx, fresh) = self.alloc_node();
            let fd = (*fresh).data_mut();
            fd.key = key;
            fd.aggs = AggValues::first(payload);
            d.next = idx;
        } else {
            return d.next;
        }
        NULL_INDEX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_is_one_cache_line() {
        assert_eq!(core::mem::size_of::<AggBucket>(), 64);
        assert_eq!(core::mem::align_of::<AggBucket>(), 64);
    }

    #[test]
    fn aggregates_fold_correctly() {
        let mut a = AggValues::first(10);
        a.update(4);
        a.update(7);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 21);
        assert_eq!(a.min, 4);
        assert_eq!(a.max, 10);
        assert_eq!(a.sumsq, 100 + 16 + 49);
        assert!((a.avg() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn update_and_get_single_group() {
        let t = AggTable::for_groups(16);
        {
            let mut h = t.handle();
            h.update(5, 100);
            h.update(5, 50);
        }
        let a = t.get(5).expect("group exists");
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 150);
        assert_eq!(t.get(6), None);
    }

    #[test]
    fn matches_hashmap_model() {
        use std::collections::HashMap;
        // Zipf keys over few buckets: hot groups, claimed headers and
        // multi-node chains all occur. `looped` goes through `update`,
        // `stepped` through `visit_latched` one node at a time from a
        // held latch, as an AMAC stage does.
        let input = amac_workload::Relation::zipf(50_000, 500, 0.9, 0xA66);
        let (looped, stepped) = (AggTable::for_groups(64), AggTable::for_groups(64));
        let mut model: HashMap<u64, AggValues> = HashMap::new();
        {
            let (mut hl, mut hs) = (looped.handle(), stepped.handle());
            for t in &input.tuples {
                hl.update(t.key, t.payload);
                let header = stepped.bucket_addr(t.key);
                // SAFETY: header of `stepped`, latched for the whole walk.
                unsafe {
                    (*header).latch.acquire();
                    let mut next = hs.visit_latched(header, t.key, t.payload);
                    while next != NULL_INDEX {
                        next = hs.visit_latched(stepped.node_ptr(next), t.key, t.payload);
                    }
                    (*header).latch.release();
                }
                model
                    .entry(t.key)
                    .and_modify(|a| a.update(t.payload))
                    .or_insert_with(|| AggValues::first(t.payload));
            }
        }
        assert!(model.len() > 64, "the input must chain");
        for t in [&looped, &stepped] {
            assert_eq!(t.group_count(), model.len());
            for (k, v) in &model {
                assert_eq!(t.get(*k).as_ref(), Some(v), "group {k}");
            }
        }
    }

    #[test]
    fn forced_collisions_chain_distinct_groups() {
        let t = AggTable::with_buckets(1); // everything collides
        {
            let mut h = t.handle();
            for k in 0..100u64 {
                h.update(k, k * 2);
            }
        }
        assert_eq!(t.group_count(), 100);
        for k in 0..100u64 {
            assert_eq!(t.get(k).unwrap().sum, k * 2);
        }
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let t = AggTable::for_groups(8);
        const THREADS: u64 = 4;
        const PER: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..PER {
                        h.update(i % 10, 1);
                    }
                });
            }
        });
        for k in 0..10u64 {
            let a = t.get(k).unwrap();
            assert_eq!(a.count, THREADS * PER / 10, "group {k}");
            assert_eq!(a.sum, THREADS * PER / 10);
            assert_eq!(a.min, 1);
            assert_eq!(a.max, 1);
        }
    }

    #[test]
    fn groups_snapshot_is_complete() {
        let t = AggTable::for_groups(32);
        {
            let mut h = t.handle();
            for k in 1..=77u64 {
                h.update(k, k);
            }
        }
        let mut gs = t.groups();
        gs.sort_by_key(|(k, _)| *k);
        assert_eq!(gs.len(), 77);
        assert_eq!(gs[0].0, 1);
        assert_eq!(gs[76].0, 77);
    }
}
