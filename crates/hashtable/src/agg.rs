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
use core::ptr::addr_of_mut;
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

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
/// layout; the header's latch guards its whole chain).
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

    /// Atomic view of the chain link (the field latch-free merges CAS to
    /// publish fresh group nodes; see [`AggTable::merge_latchfree`]).
    #[inline(always)]
    pub fn next_atomic(&self) -> &AtomicU32 {
        // SAFETY: `next` is a 4-aligned u32 inside the UnsafeCell.
        unsafe { AtomicU32::from_ptr(addr_of_mut!((*self.data.get()).next)) }
    }

    /// Atomic view of the group key (immutable once its `count` is
    /// nonzero, but read concurrently with other fields' writes).
    #[inline(always)]
    pub fn key_atomic(&self) -> &AtomicU64 {
        // SAFETY: 8-aligned u64 inside the UnsafeCell.
        unsafe { AtomicU64::from_ptr(addr_of_mut!((*self.data.get()).key)) }
    }

    /// Atomic views of the five stored aggregates, in
    /// (count, sum, min, max, sumsq) order. count/sum/sumsq merge with
    /// `fetch_add`, min/max with `fetch_min`/`fetch_max` — all
    /// commutative, so any interleaving folds identically.
    #[inline(always)]
    pub fn aggs_atomic(&self) -> [&AtomicU64; 5] {
        // SAFETY: AggValues fields are 8-aligned u64s in the UnsafeCell.
        unsafe {
            let a = addr_of_mut!((*self.data.get()).aggs);
            [
                AtomicU64::from_ptr(addr_of_mut!((*a).count)),
                AtomicU64::from_ptr(addr_of_mut!((*a).sum)),
                AtomicU64::from_ptr(addr_of_mut!((*a).min)),
                AtomicU64::from_ptr(addr_of_mut!((*a).max)),
                AtomicU64::from_ptr(addr_of_mut!((*a).sumsq)),
            ]
        }
    }
}

/// The group-by hash table: one aggregate node per distinct key.
pub struct AggTable {
    buckets: amac_mem::Region<AggBucket>,
    mask: u64,
    /// Overflow group nodes, shared by every handle and addressed by the
    /// `u32` chain indices stored in [`AggData::next`].
    nodes: IndexedArena<AggBucket>,
    /// Frozen boundary for the latch-free merge epoch (same discipline as
    /// `HashTable::freeze`): nodes `< frozen` plus occupied headers are
    /// immutable structure; nodes `>= frozen` are epoch-created groups.
    frozen: AtomicU32,
}

impl AggTable {
    /// Create a table with at least `n_buckets` buckets (power of two).
    pub fn with_buckets(n_buckets: usize) -> Self {
        let n = next_pow2(n_buckets);
        AggTable {
            buckets: amac_mem::Region::new(n),
            mask: (n - 1) as u64,
            nodes: IndexedArena::new(),
            frozen: AtomicU32::new(u32::MAX),
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

    /// Enter (or re-observe) the latch-free merge epoch; see
    /// `HashTable::freeze` for the discipline. Returns the boundary.
    pub fn freeze(&self) -> u32 {
        let cur = self.frozen.load(Ordering::Acquire);
        if cur != u32::MAX {
            return cur;
        }
        let len = self.nodes.len() as u32;
        match self.frozen.compare_exchange(u32::MAX, len, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => len,
            Err(cur) => cur,
        }
    }

    /// The frozen boundary ([`u32::MAX`] before [`freeze`](AggTable::freeze)).
    #[inline(always)]
    pub fn frozen_bound(&self) -> u32 {
        self.frozen.load(Ordering::Acquire)
    }

    /// Latch-free aggregate merge: fold `payload` into `key`'s group,
    /// creating the group if absent. Returns true when a fresh group node
    /// was created.
    ///
    /// All five stored aggregates merge with commutative atomics
    /// (`fetch_add` for count/sum/sumsq, `fetch_min`/`fetch_max`), and a
    /// miss CAS-prepends a fully initialized node at the header's `next`
    /// with the same re-walk retry as `HashTable::fresh_upsert` — so any
    /// interleaving across threads or AMAC slots produces bit-identical
    /// group values. Unlike the latched path this never claims an empty
    /// header: epoch groups always live in fresh nodes (the read paths
    /// already follow `next` from empty headers).
    pub fn merge_latchfree(&self, key: u64, payload: u64) -> bool {
        let bound = self.freeze();
        let header = self.bucket_addr(key);
        // SAFETY: header/chain pointers resolve into this table; frozen
        // nodes' key/count/next are immutable during the epoch.
        unsafe {
            let hb = &*header;
            // Occupancy and key of a frozen header are immutable during
            // the epoch, but its count is concurrently folded — read it
            // through the atomic view.
            if hb.aggs_atomic()[0].load(Ordering::Acquire) > 0
                && hb.key_atomic().load(Ordering::Acquire) == key
            {
                Self::fold_atomic(hb, payload);
                return false;
            }
            // Walk the frozen chain tail (fresh prefix handled below).
            let head = hb.next_atomic().load(Ordering::Acquire);
            let mut idx = head;
            while idx != NULL_INDEX && idx >= bound {
                idx = (*self.node_ptr(idx)).next_atomic().load(Ordering::Acquire);
            }
            while idx != NULL_INDEX {
                let b = &*self.node_ptr(idx);
                if b.key_atomic().load(Ordering::Acquire) == key {
                    Self::fold_atomic(b, payload);
                    return false;
                }
                idx = b.next_atomic().load(Ordering::Acquire);
            }
        }
        // No frozen group: merge into (or create) the fresh prefix node.
        let mut fresh: Option<(u32, *mut AggBucket)> = None;
        loop {
            // SAFETY: as above; published fresh nodes are initialized.
            let head = unsafe { &*header }.next_atomic().load(Ordering::Acquire);
            let mut idx = head;
            while idx != NULL_INDEX && idx >= bound {
                let b = unsafe { &*self.node_ptr(idx) };
                if b.key_atomic().load(Ordering::Acquire) == key {
                    Self::fold_atomic(b, payload);
                    return false;
                }
                idx = b.next_atomic().load(Ordering::Acquire);
            }
            let (nidx, nptr) = *fresh.get_or_insert_with(|| self.nodes.alloc());
            // SAFETY: unpublished node owned by this thread.
            unsafe {
                let d = (*nptr).data_mut();
                d.key = key;
                d.aggs = AggValues::first(payload);
                d.next = head;
            }
            if unsafe { &*header }
                .next_atomic()
                .compare_exchange(head, nidx, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Fold `payload` into an existing group with commutative atomics.
    fn fold_atomic(node: &AggBucket, payload: u64) {
        let [count, sum, min, max, sumsq] = node.aggs_atomic();
        count.fetch_add(1, Ordering::AcqRel);
        sum.fetch_add(payload, Ordering::AcqRel);
        min.fetch_min(payload, Ordering::AcqRel);
        max.fetch_max(payload, Ordering::AcqRel);
        sumsq.fetch_add(payload.wrapping_mul(payload), Ordering::AcqRel);
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
    fn latchfree_merge_matches_latched_reference() {
        // Same updates through the latched handle and the latch-free
        // path: all six aggregates must agree bit-for-bit.
        let latched = AggTable::for_groups(16);
        let free = AggTable::for_groups(16);
        {
            // Pre-populate both with a latched build phase, then freeze.
            let mut h = latched.handle();
            let mut h2 = free.handle();
            for k in 0..20u64 {
                h.update(k, k * 7);
                h2.update(k, k * 7);
            }
        }
        free.freeze();
        for i in 0..5_000u64 {
            let (k, p) = (i % 40, i.wrapping_mul(31) % 1000);
            let mut h = latched.handle();
            h.update(k, p);
            let created = free.merge_latchfree(k, p);
            assert_eq!(created, latched.get(k).unwrap().count == 1 && k >= 20 && i % 40 == i);
        }
        assert_eq!(latched.group_count(), free.group_count());
        for (k, a) in latched.groups() {
            assert_eq!(free.get(k), Some(a), "group {k}");
        }
    }

    #[test]
    fn concurrent_latchfree_merges_are_exact() {
        // The order-independence claim under real parallelism: any
        // interleaving of commutative atomic folds produces the same
        // groups as a serial reference.
        let t = AggTable::for_groups(8);
        {
            let mut h = t.handle();
            for k in 0..5u64 {
                h.update(k, 500 + k);
            }
        }
        t.freeze();
        const THREADS: u64 = 4;
        const PER: u64 = 8_000;
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let t = &t;
                s.spawn(move || {
                    for i in 0..PER {
                        t.merge_latchfree(i % 10, tid * PER + i);
                    }
                });
            }
        });
        let mut reference = AggTable::for_groups(8);
        {
            let mut h = reference.handle();
            for k in 0..5u64 {
                h.update(k, 500 + k);
            }
            for tid in 0..THREADS {
                for i in 0..PER {
                    h.update(i % 10, tid * PER + i);
                }
            }
        }
        let _ = &mut reference;
        assert_eq!(t.group_count(), 10);
        for k in 0..10u64 {
            assert_eq!(t.get(k), reference.get(k), "group {k}");
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
