//! The hash-join table.

use crate::bucket::{probe_word, tag_slots, Bucket, BucketData, Slots, TUPLES_PER_NODE};
use amac_mem::arena::IndexedArena;
use amac_mem::hash::{bucket_of, next_pow2, tag_of};
use amac_mem::{prefetch_write, NULL_INDEX};
use amac_workload::{Relation, Tuple};
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The chained hash table used by the hash-join workloads.
///
/// Bucket count is a power of two; keys are spread with the splitmix64
/// finalizer and masked (see `amac_mem::hash`). Inserts go to the head of
/// the chain in O(1) — bucket inline slots first, then the newest overflow
/// node, then a freshly allocated node spliced right behind the header —
/// matching Balkesen's NPO build and the paper's observation that build
/// cost is insensitive to skew (§5.1).
///
/// Chain nodes live in one table-owned [`IndexedArena`] and are linked by
/// `u32` index (see [`crate::bucket`] for the layout math); probes resolve
/// an index to its stable address with [`node_ptr`](HashTable::node_ptr)
/// before prefetching the next hop.
pub struct HashTable {
    buckets: amac_mem::Region<Bucket>,
    mask: u64,
    /// Overflow chain nodes, shared by every build handle; `u32` chain
    /// indices resolve into this arena for the table's whole lifetime.
    nodes: IndexedArena<Bucket>,
    /// Tuples inserted so far (merged from build handles on drop).
    tuples: AtomicU64,
    /// The frozen boundary: arena nodes with index `< frozen` (plus every
    /// header's inline slots) were written by the latched build phase and
    /// are structurally immutable during a latch-free mutation epoch;
    /// nodes `>= frozen` are *fresh* — CAS-prepended at chain heads by
    /// the epoch itself. [`u32::MAX`] until [`freeze`](HashTable::freeze)
    /// runs.
    frozen: AtomicU32,
}

impl HashTable {
    /// Create an empty table with at least `n_buckets` buckets (rounded up
    /// to a power of two).
    pub fn with_buckets(n_buckets: usize) -> Self {
        let n = next_pow2(n_buckets);
        HashTable {
            buckets: amac_mem::Region::new(n),
            mask: (n - 1) as u64,
            nodes: IndexedArena::new(),
            tuples: AtomicU64::new(0),
            frozen: AtomicU32::new(u32::MAX),
        }
    }

    /// Create an empty table sized for `n_tuples` build tuples at the
    /// paper's default load: one inline node per bucket on average
    /// (`buckets = n / TUPLES_PER_NODE`).
    pub fn for_tuples(n_tuples: usize) -> Self {
        Self::with_buckets((n_tuples / TUPLES_PER_NODE).max(1))
    }

    /// How many tuples ahead [`build_serial`](HashTable::build_serial)
    /// prefetches bucket headers. A constant, as for GP/SPP's one-stage
    /// lookups: the distance only has to cover one header miss at the
    /// loop's fixed per-tuple cost. Building the 2^23-tuple `probe_dram`
    /// table on a 2-vCPU x86-64 guest (THP `madvise`, best of 5) took
    /// 0.301 / 0.282 / 0.314 s at 8 / 16 / 32, against 0.449 s latch-free
    /// with no prefetch and 0.658 s for the latched loop.
    pub const BUILD_AHEAD: usize = 16;

    /// Build a table from `rel` on the calling thread, inserting in `rel`'s
    /// order: the reference insertion *order* (bucket contents, arena
    /// indices and chain order equal those of one [`BuildHandle::insert`]
    /// loop over `rel`).
    ///
    /// The header of the tuple [`BUILD_AHEAD`](HashTable::BUILD_AHEAD)
    /// places on is prefetched before each insert, so that many header
    /// misses overlap. The table is private until this returns, so the
    /// inserts take no latch.
    pub fn build_serial(rel: &Relation) -> Self {
        let table = Self::for_tuples(rel.len());
        {
            let mut h = table.build_handle();
            let tuples = &rel.tuples;
            for (i, t) in tuples.iter().enumerate() {
                if let Some(ahead) = tuples.get(i + Self::BUILD_AHEAD) {
                    prefetch_write(table.bucket_addr(ahead.key));
                }
                // SAFETY: the bucket is this table's, and nothing else
                // can reach the table before it is returned.
                unsafe { h.insert_latched(table.bucket_addr(t.key), t.key, t.payload) };
            }
        }
        table
    }

    /// Bucket mask (`bucket_count - 1`).
    #[inline(always)]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Number of buckets.
    #[inline(always)]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Bucket index for `key`.
    #[inline(always)]
    pub fn bucket_index(&self, key: u64) -> usize {
        bucket_of(key, self.mask) as usize
    }

    /// Whether the bucket-header array is at least a huge page
    /// ([`Region::is_huge`](amac_mem::Region::is_huge)): large enough
    /// that stage-0 header loads miss, so the ops over this table look
    /// ahead of the AMAC window.
    #[inline]
    pub fn headers_huge(&self) -> bool {
        self.buckets.is_huge()
    }

    /// Address of `key`'s bucket header — computed without touching table
    /// memory, so it can be prefetched (the paper's code stage 0).
    #[inline(always)]
    pub fn bucket_addr(&self, key: u64) -> *const Bucket {
        // SAFETY: bucket_index is always < buckets.len() by the mask.
        unsafe { self.buckets.as_ptr().add(self.bucket_index(key)) }
    }

    /// The bucket-header array, as the base the vector probe's gathers
    /// index by bucket.
    #[inline(always)]
    pub(crate) fn headers(&self) -> *const Bucket {
        self.buckets.as_ptr()
    }

    /// Resolve a chain index (read from some node's `next`) to the
    /// overflow node's stable address — the per-hop address computation
    /// that precedes the prefetch. One `lzcnt` plus one L1-resident
    /// directory load; the DRAM access is still the node itself.
    #[inline(always)]
    pub fn node_ptr(&self, idx: u32) -> *const Bucket {
        self.nodes.get(idx)
    }

    /// Address of bucket header `idx` (diagnostics/tests; probes use
    /// [`bucket_addr`](HashTable::bucket_addr)).
    #[inline]
    pub fn header_addr(&self, idx: usize) -> *const Bucket {
        &self.buckets[idx]
    }

    /// The table's chain-node arena (for allocation by build handles and
    /// index diagnostics in tests).
    #[inline(always)]
    pub fn nodes(&self) -> &IndexedArena<Bucket> {
        &self.nodes
    }

    /// Open a build handle that inserts through latches, allocating
    /// overflow nodes from the table's shared indexed arena.
    pub fn build_handle(&self) -> BuildHandle<'_> {
        BuildHandle { table: self, inserted: 0 }
    }

    /// Tuples inserted so far, as reported by **completed** build handles
    /// (O(1); used for chain-length estimation when auto-tuning GP/SPP's
    /// stage budget).
    #[inline]
    pub fn tuple_count(&self) -> u64 {
        self.tuples.load(Ordering::Acquire)
    }

    /// Walk `key`'s chain, returning every matching payload
    /// (single-threaded reference probe used by tests and baselines).
    pub fn lookup_all(&self, key: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let probe = probe_word(tag_of(key));
        let mut node = self.bucket_addr(key);
        loop {
            // SAFETY: read-only phase traversal; nodes live in the arena
            // owned by self.
            let d = unsafe { (*node).data() };
            for i in tag_slots(d.meta, probe) {
                if d.tuples[i].key == key {
                    out.push(d.tuples[i].payload);
                }
            }
            if d.next == NULL_INDEX {
                return out;
            }
            node = self.node_ptr(d.next);
        }
    }

    /// First matching payload for `key`, if any.
    pub fn lookup_first(&self, key: u64) -> Option<u64> {
        let probe = probe_word(tag_of(key));
        let mut node = self.bucket_addr(key);
        loop {
            // SAFETY: as in lookup_all.
            let d = unsafe { (*node).data() };
            for i in tag_slots(d.meta, probe) {
                if d.tuples[i].key == key {
                    return Some(d.tuples[i].payload);
                }
            }
            if d.next == NULL_INDEX {
                return None;
            }
            node = self.node_ptr(d.next);
        }
    }

    /// Chain length (in nodes, counting the header) of bucket `idx`.
    pub fn chain_nodes(&self, idx: usize) -> usize {
        let mut node: *const Bucket = &self.buckets[idx];
        let mut n = 0usize;
        loop {
            // SAFETY: read-only phase traversal.
            let d = unsafe { (*node).data() };
            if n == 0 && d.count() == 0 {
                return 0; // empty bucket header
            }
            n += 1;
            if d.next == NULL_INDEX {
                return n;
            }
            node = self.node_ptr(d.next);
        }
    }

    /// Occupancy statistics over all chains.
    pub fn stats(&self) -> TableStats {
        let mut s = TableStats { buckets: self.buckets.len(), ..Default::default() };
        for i in 0..self.buckets.len() {
            let nodes = self.chain_nodes(i);
            if nodes == 0 {
                s.empty_buckets += 1;
            }
            s.total_nodes += nodes;
            s.max_chain = s.max_chain.max(nodes);
        }
        s
    }

    /// Total tuples stored (walks the table; for tests).
    pub fn len(&self) -> usize {
        let mut total = 0usize;
        for i in 0..self.buckets.len() {
            let mut node: *const Bucket = &self.buckets[i];
            loop {
                // SAFETY: read-only phase traversal.
                let d = unsafe { (*node).data() };
                total += d.count();
                if d.next == NULL_INDEX {
                    break;
                }
                node = self.node_ptr(d.next);
            }
        }
        total
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // --- Latch-free mutation epoch (frozen-boundary discipline) --------
    //
    // After `freeze()`, mutators never latch and never modify frozen
    // structure: an upsert that matches a frozen tuple `fetch_add`s its
    // payload (commutative — any interleaving sums identically), a
    // delete tombstones a key with one CAS, and a miss CAS-prepends a
    // fully initialized *fresh* single-tuple node at the header's `next`.
    // Because the chain head only ever moves by prepend, a failed CAS
    // simply re-walks the (grown) fresh prefix — no ABA, no locks, no
    // node is ever published half-written. The charged AMAC walk of
    // `amac_ops::mutate` covers exactly the frozen part of the chain,
    // which is immutable, so simulated counters are identical across
    // thread counts and schedulings.

    /// The reserved key value a latch-free delete tombstones a slot to.
    /// Workload keys never take this value ([`u64::MAX`]).
    pub const TOMBSTONE: u64 = u64::MAX;

    /// Enter (or re-observe) the latch-free mutation epoch: record the
    /// current arena length as the frozen boundary and return it. The
    /// first call wins; later calls (including concurrent ones racing
    /// before any mutation, when the length is still identical) return
    /// the recorded boundary. Mutation primitives call this themselves,
    /// so the epoch begins at the first latch-free mutation; once frozen,
    /// a call is one load, not a locked compare-exchange.
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

    /// The frozen boundary ([`u32::MAX`] before [`freeze`](HashTable::freeze)
    /// — no node is fresh). Arena index `idx` is fresh iff
    /// `idx >= frozen_bound()`.
    #[inline(always)]
    pub fn frozen_bound(&self) -> u32 {
        self.frozen.load(Ordering::Acquire)
    }

    /// Follow `next` links from `idx` past the fresh prefix (nodes
    /// `>= bound`), returning the first frozen index or [`NULL_INDEX`].
    /// Fresh nodes only ever exist between the header and the first
    /// frozen node, so one skip per walk suffices.
    #[inline]
    pub fn skip_fresh(&self, mut idx: u32, bound: u32) -> u32 {
        while idx != NULL_INDEX && idx >= bound {
            // SAFETY: chain indices resolve into the table-owned arena.
            idx = unsafe { &*self.node_ptr(idx) }.next_atomic().load(Ordering::Acquire);
        }
        idx
    }

    /// Merge `delta` into the **first** live slot of `node` holding
    /// `key`, atomically, comparing keys only at `slots` (the node's
    /// [`Bucket::slots`] for `key`'s probe word). Returns true on a merge.
    /// `node` must be frozen (header or `idx < bound`): its `meta` is
    /// immutable, so the candidate slots and the first-match position are
    /// schedule-independent.
    ///
    /// # Safety
    /// `node` must point at a header or arena node of this table.
    #[inline]
    pub unsafe fn frozen_merge(
        &self,
        node: *const Bucket,
        slots: Slots,
        key: u64,
        delta: u64,
    ) -> bool {
        let b = &*node;
        for i in slots {
            if b.key_atomic(i).load(Ordering::Acquire) == key {
                b.payload_atomic(i).fetch_add(delta, Ordering::AcqRel);
                return true;
            }
        }
        false
    }

    /// Tombstone every live slot of `node` holding `key` (frozen nodes
    /// only), one CAS per slot of `slots` (as in
    /// [`frozen_merge`](HashTable::frozen_merge)). Returns the number of
    /// slots this call won (the CAS arbitrates concurrent deletes of the
    /// same key, so the global sum is exact).
    ///
    /// # Safety
    /// `node` must point at a header or arena node of this table.
    #[inline]
    pub unsafe fn frozen_tombstone(&self, node: *const Bucket, slots: Slots, key: u64) -> u64 {
        let b = &*node;
        let mut won = 0;
        for i in slots {
            if b.key_atomic(i)
                .compare_exchange(key, Self::TOMBSTONE, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                won += 1;
            }
        }
        won
    }

    /// The terminal action of a latch-free upsert that matched no frozen
    /// tuple: merge into the fresh prefix if some epoch mutation already
    /// created `key`'s node, else CAS-prepend a new single-tuple node.
    /// Returns true if a node was created. The retry loop re-walks the
    /// grown prefix after every lost CAS, so exactly one fresh node per
    /// (bucket, key) exists however the epoch's upserts interleave; a
    /// loser's pre-allocated node is abandoned unpublished (it is never
    /// reachable, only arena length observes it).
    pub fn fresh_upsert(&self, key: u64, delta: u64) -> bool {
        let bound = self.freeze();
        let header = self.bucket_addr(key);
        let mut fresh: Option<(u32, *mut Bucket)> = None;
        loop {
            // SAFETY: header is a valid bucket of this table.
            let head = unsafe { &*header }.next_atomic().load(Ordering::Acquire);
            let mut idx = head;
            while idx != NULL_INDEX && idx >= bound {
                // SAFETY: published fresh nodes are fully initialized
                // single-tuple nodes in the table-owned arena.
                let b = unsafe { &*self.node_ptr(idx) };
                if b.key_atomic(0).load(Ordering::Acquire) == key {
                    b.payload_atomic(0).fetch_add(delta, Ordering::AcqRel);
                    return false;
                }
                idx = b.next_atomic().load(Ordering::Acquire);
            }
            let (nidx, nptr) = *fresh.get_or_insert_with(|| self.nodes.alloc());
            // SAFETY: the node is unpublished — this thread owns it.
            unsafe {
                let d = (*nptr).data_mut();
                *d = BucketData::default();
                d.push(Tuple::new(key, delta), tag_of(key));
                d.next = head;
            }
            // Release-publish: the initialized node becomes reachable
            // only if the head did not move under us.
            if unsafe { &*header }
                .next_atomic()
                .compare_exchange(head, nidx, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.tuples.fetch_add(1, Ordering::AcqRel);
                return true;
            }
        }
    }

    /// Unconditionally CAS-prepend a fresh `(key, payload)` node — the
    /// latch-free insert (no dedup; duplicate keys chain like the latched
    /// build's). O(1) beyond CAS retries.
    pub fn fresh_insert(&self, key: u64, payload: u64) {
        self.freeze();
        let header = self.bucket_addr(key);
        let (nidx, nptr) = self.nodes.alloc();
        loop {
            // SAFETY: header valid; node unpublished until the CAS.
            let head = unsafe { &*header }.next_atomic().load(Ordering::Acquire);
            unsafe {
                let d = (*nptr).data_mut();
                *d = BucketData::default();
                d.push(Tuple::new(key, payload), tag_of(key));
                d.next = head;
            }
            if unsafe { &*header }
                .next_atomic()
                .compare_exchange(head, nidx, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.tuples.fetch_add(1, Ordering::AcqRel);
                return;
            }
        }
    }

    /// Tombstone `key` in the fresh prefix — the terminal action of a
    /// latch-free delete after its charged frozen walk. Returns the slots
    /// won. (Deleting a key the same epoch also upserts is outside the
    /// determinism discipline — see the `amac_ops::mutate` docs.)
    pub fn fresh_delete(&self, key: u64) -> u64 {
        let bound = self.freeze();
        let header = self.bucket_addr(key);
        // SAFETY: header valid; fresh nodes are published initialized.
        let mut idx = unsafe { &*header }.next_atomic().load(Ordering::Acquire);
        let mut won = 0;
        while idx != NULL_INDEX && idx >= bound {
            let b = unsafe { &*self.node_ptr(idx) };
            if b.key_atomic(0)
                .compare_exchange(key, Self::TOMBSTONE, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                won += 1;
            }
            idx = b.next_atomic().load(Ordering::Acquire);
        }
        won
    }

    /// All live `(key, payload)` tuples, sorted — the canonical logical
    /// contents (tombstones skipped). Quiescent phases only; this is what
    /// recovery equivalence checks compare.
    pub fn contents_sorted(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for i in 0..self.buckets.len() {
            let mut node: *const Bucket = &self.buckets[i];
            loop {
                // SAFETY: read-only phase traversal.
                let d = unsafe { (*node).data() };
                for t in d.tuples.iter().take(d.count()) {
                    if t.key != Self::TOMBSTONE {
                        out.push((t.key, t.payload));
                    }
                }
                if d.next == NULL_INDEX {
                    break;
                }
                node = self.node_ptr(d.next);
            }
        }
        out.sort_unstable();
        out
    }

    // --- Checkpointing --------------------------------------------------

    /// Deep-copy the table's physical state — bucket headers, every arena
    /// node in index order, the frozen boundary and the tuple count.
    /// Quiescent phases only (a serving checkpoint runs between waves).
    pub fn snapshot(&self) -> TableSnapshot {
        let bucket_data = (0..self.buckets.len())
            // SAFETY: quiescent — no concurrent mutation.
            .map(|i| unsafe { *self.buckets[i].data() })
            .collect();
        let node_data = (0..self.nodes.len() as u32)
            // SAFETY: as above; indices < len resolve to live nodes.
            .map(|i| unsafe { *(*self.node_ptr(i)).data() })
            .collect();
        TableSnapshot {
            bucket_data,
            node_data,
            frozen: self.frozen.load(Ordering::Acquire),
            tuples: self.tuples.load(Ordering::Acquire),
        }
    }

    /// Rebuild a table bit-identical to the one `snap` was taken from:
    /// same bucket headers, same arena nodes at the **same indices**
    /// (serial allocation is dense and in order), same frozen boundary —
    /// so replaying a WAL tail on the restored table walks byte-identical
    /// chains and re-creates fresh nodes at the original indices.
    pub fn restore(snap: &TableSnapshot) -> Self {
        let ht = Self::with_buckets(snap.bucket_data.len());
        assert_eq!(ht.bucket_count(), snap.bucket_data.len(), "snapshot bucket count is pow2");
        for (i, d) in snap.bucket_data.iter().enumerate() {
            // SAFETY: exclusive access — the table was just created.
            unsafe { *ht.buckets[i].data_mut() = *d };
        }
        for (i, d) in snap.node_data.iter().enumerate() {
            let (idx, ptr) = ht.nodes.alloc();
            assert_eq!(idx as usize, i, "serial arena allocation is dense");
            // SAFETY: freshly allocated node owned by this thread.
            unsafe { *(*ptr).data_mut() = *d };
        }
        ht.frozen.store(snap.frozen, Ordering::Release);
        ht.tuples.store(snap.tuples, Ordering::Release);
        ht
    }
}

// SAFETY: see the bucket module — latches guard mutation; probe phases are
// read-only; the node arena is owned by the table.
unsafe impl Send for HashTable {}
unsafe impl Sync for HashTable {}

/// Chain occupancy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Total bucket headers.
    pub buckets: usize,
    /// Headers with no tuples.
    pub empty_buckets: usize,
    /// Total chain nodes (headers that hold tuples + overflow nodes).
    pub total_nodes: usize,
    /// Longest chain in nodes.
    pub max_chain: usize,
}

impl TableStats {
    /// Mean nodes per non-empty bucket.
    pub fn avg_chain(&self) -> f64 {
        let occupied = self.buckets - self.empty_buckets;
        if occupied == 0 {
            0.0
        } else {
            self.total_nodes as f64 / occupied as f64
        }
    }
}

/// A deep copy of a [`HashTable`]'s physical state, as taken by
/// [`HashTable::snapshot`] — the checkpoint unit of the durability layer.
/// `Clone` so a sweep can restore the same checkpoint repeatedly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSnapshot {
    bucket_data: Vec<BucketData>,
    node_data: Vec<BucketData>,
    frozen: u32,
    tuples: u64,
}

/// An insertion session against a shared [`HashTable`].
///
/// Each build thread owns one handle; overflow nodes come from the
/// table's shared [`IndexedArena`] (a lock-free atomic bump), so the `u32`
/// chain indices every thread writes resolve through one address space.
pub struct BuildHandle<'t> {
    table: &'t HashTable,
    inserted: u64,
}

impl BuildHandle<'_> {
    /// The table this handle inserts into.
    #[inline]
    pub fn table(&self) -> &HashTable {
        self.table
    }

    /// Allocate a fresh overflow node, returning its chain index and
    /// stable address.
    #[inline]
    pub fn alloc_node(&mut self) -> (u32, *mut Bucket) {
        self.table.nodes.alloc()
    }

    /// Insert `(key, payload)`, spinning on the bucket latch (the
    /// baseline/GP/SPP latch discipline).
    pub fn insert(&mut self, key: u64, payload: u64) {
        let bucket = self.table.bucket_addr(key);
        // SAFETY: bucket_addr yields a valid bucket; we latch before
        // mutating.
        unsafe {
            (*bucket).latch.acquire();
            self.insert_latched(bucket, key, payload);
            (*bucket).latch.release();
        }
    }

    /// Insert under an **already-held** bucket latch (the AMAC build stage
    /// calls this after a successful `try_acquire`).
    ///
    /// O(1): fills the header's inline slots, then the newest overflow
    /// node, then splices a new node directly behind the header. Each
    /// stored tuple records its fingerprint in the node's tag word.
    ///
    /// # Safety
    /// `bucket` must be a bucket header of this handle's table, and the
    /// calling thread must hold its latch or have exclusive access to the
    /// table (as [`HashTable::build_serial`] does).
    pub unsafe fn insert_latched(&mut self, bucket: *const Bucket, key: u64, payload: u64) {
        self.inserted += 1;
        let tag = tag_of(key);
        let d = (*bucket).data_mut();
        if d.count() < TUPLES_PER_NODE {
            d.push(Tuple::new(key, payload), tag);
            return;
        }
        let head = d.next;
        if head != NULL_INDEX {
            let hd = (*self.table.nodes.get(head)).data_mut();
            if hd.count() < TUPLES_PER_NODE {
                hd.push(Tuple::new(key, payload), tag);
                return;
            }
        }
        let (idx, node) = self.alloc_node();
        let nd = (*node).data_mut();
        nd.push(Tuple::new(key, payload), tag);
        nd.next = head;
        d.next = idx;
    }
}

impl Drop for BuildHandle<'_> {
    fn drop(&mut self) {
        self.table.tuples.fetch_add(self.inserted, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_count_rounds_to_pow2() {
        assert_eq!(HashTable::with_buckets(1000).bucket_count(), 1024);
        assert_eq!(HashTable::with_buckets(1).bucket_count(), 1);
        // 4096 tuples at 3/node → 1365 buckets → next pow2.
        assert_eq!(HashTable::for_tuples(4096).bucket_count(), 2048);
    }

    #[test]
    fn build_and_lookup_unique_keys() {
        let rel = Relation::dense_unique(10_000, 3);
        let ht = HashTable::build_serial(&rel);
        assert_eq!(ht.len(), 10_000);
        for t in &rel.tuples {
            assert_eq!(ht.lookup_first(t.key), Some(t.payload), "key {}", t.key);
            assert_eq!(ht.lookup_all(t.key), vec![t.payload]);
        }
        assert_eq!(ht.lookup_first(999_999), None);
        assert!(ht.lookup_all(0).is_empty());
    }

    #[test]
    fn duplicate_keys_chain_in_one_bucket() {
        let ht = HashTable::with_buckets(64);
        {
            let mut h = ht.build_handle();
            for p in 0..100u64 {
                h.insert(7, p);
            }
        }
        let all = ht.lookup_all(7);
        assert_eq!(all.len(), 100);
        let set: std::collections::HashSet<u64> = all.into_iter().collect();
        assert_eq!(set.len(), 100, "all payloads preserved");
        let idx = ht.bucket_index(7);
        assert!(ht.chain_nodes(idx) >= 33, "duplicates must share a chain");
    }

    #[test]
    fn matches_std_hashmap_model() {
        use std::collections::HashMap;
        let rel = Relation::zipf(20_000, 2_000, 0.9, 5);
        let ht = HashTable::build_serial(&rel);
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        for t in &rel.tuples {
            model.entry(t.key).or_default().push(t.payload);
        }
        for (k, v) in &model {
            let mut got = ht.lookup_all(*k);
            let mut want = v.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "key {k}");
        }
        assert_eq!(ht.len(), 20_000);
    }

    #[test]
    fn stats_reflect_occupancy() {
        let rel = Relation::dense_unique(8192, 9);
        let ht = HashTable::build_serial(&rel);
        let s = ht.stats();
        assert_eq!(s.buckets, 4096);
        assert!(s.total_nodes >= 4096 - s.empty_buckets);
        assert!(s.max_chain >= 1);
        assert!(s.avg_chain() >= 1.0);
    }

    #[test]
    fn chain_links_roundtrip_through_the_arena() {
        // Every reachable overflow node's index must resolve back to the
        // same address the chain walk sees (idx → ptr → idx).
        let ht = HashTable::with_buckets(4);
        {
            let mut h = ht.build_handle();
            for k in 0..200u64 {
                h.insert(k, k);
            }
        }
        let mut overflow_seen = 0usize;
        for b in 0..ht.bucket_count() {
            let mut d = unsafe { ht.buckets[b].data() };
            while d.next != NULL_INDEX {
                let ptr = ht.node_ptr(d.next);
                assert_eq!(ht.nodes().index_of(ptr), Some(d.next));
                overflow_seen += 1;
                d = unsafe { (*ptr).data() };
            }
        }
        assert_eq!(overflow_seen, ht.nodes().len(), "all allocated nodes reachable");
    }

    #[test]
    fn forced_collision_table_builds_deep_chains() {
        // Fig. 3's uniform experiment shape: n/8 buckets → 8 tuples per
        // bucket → ~8/3 ≈ 2.7 nodes per chain in the 3-tuple layout.
        let n = 1 << 12;
        let rel = Relation::dense_unique(n, 2);
        let ht = HashTable::with_buckets(n / 8);
        {
            let mut h = ht.build_handle();
            for t in &rel.tuples {
                h.insert(t.key, t.payload);
            }
        }
        let s = ht.stats();
        assert!(
            (2.4..=3.4).contains(&s.avg_chain()),
            "expected ~8/3 nodes/bucket, got {}",
            s.avg_chain()
        );
    }

    #[test]
    fn concurrent_build_preserves_all_tuples() {
        let n = 40_000;
        let rel = Relation::dense_unique(n, 13);
        let ht = HashTable::for_tuples(n);
        std::thread::scope(|scope| {
            for chunk in rel.tuples.chunks(n / 4) {
                let ht = &ht;
                scope.spawn(move || {
                    let mut h = ht.build_handle();
                    for t in chunk {
                        h.insert(t.key, t.payload);
                    }
                });
            }
        });
        assert_eq!(ht.len(), n);
        for t in rel.tuples.iter().step_by(97) {
            assert_eq!(ht.lookup_first(t.key), Some(t.payload));
        }
    }

    #[test]
    fn concurrent_build_with_duplicates() {
        let ht = HashTable::with_buckets(16);
        std::thread::scope(|scope| {
            for tid in 0..4u64 {
                let ht = &ht;
                scope.spawn(move || {
                    let mut h = ht.build_handle();
                    for i in 0..5000u64 {
                        h.insert(i % 8, tid * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(ht.len(), 20_000);
        for k in 0..8u64 {
            assert_eq!(ht.lookup_all(k).len(), 2500, "key {k}");
        }
    }

    #[test]
    fn empty_table() {
        let ht = HashTable::with_buckets(8);
        assert!(ht.is_empty());
        assert_eq!(ht.stats().total_nodes, 0);
        assert_eq!(ht.chain_nodes(0), 0);
    }

    #[test]
    fn freeze_is_idempotent_and_bounds_fresh_nodes() {
        let rel = Relation::dense_unique(1000, 3);
        let ht = HashTable::build_serial(&rel);
        let built = ht.nodes().len() as u32;
        assert_eq!(ht.frozen_bound(), u32::MAX, "unfrozen until first freeze");
        assert_eq!(ht.freeze(), built);
        assert!(ht.fresh_upsert(999_999, 5), "miss creates a fresh node");
        assert_eq!(ht.freeze(), built, "later freezes keep the original boundary");
        assert_eq!(ht.frozen_bound(), built);
    }

    #[test]
    fn latchfree_upsert_matches_model() {
        use std::collections::HashMap;
        let rel = Relation::zipf(4_000, 500, 0.8, 11);
        let ht = HashTable::build_serial(&rel);
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        for t in &rel.tuples {
            model.entry(t.key).or_default().push(t.payload);
        }
        // Keys the build never saw: the first upsert creates a fresh node,
        // the second merges into it. (Merges into built tuples are the
        // frozen walk's, checked against a model in `amac_ops::mutate`.)
        let fresh: Vec<u64> = (0..800u64).filter(|k| !model.contains_key(k)).collect();
        for round in 0..2 {
            for &k in &fresh {
                let delta = k.wrapping_mul(3) + 1;
                assert_eq!(ht.fresh_upsert(k, delta), round == 0, "key {k} round {round}");
                let payloads = model.entry(k).or_default();
                match payloads.first_mut() {
                    Some(first) => *first = first.wrapping_add(delta),
                    None => payloads.push(delta),
                }
            }
        }
        for (k, v) in &model {
            let got = ht.lookup_all(*k);
            assert_eq!(got.len(), v.len(), "key {k} tuple count");
            assert_eq!(
                got.iter().copied().sum::<u64>(),
                v.iter().copied().sum::<u64>(),
                "key {k} payload sum"
            );
        }
    }

    #[test]
    fn latchfree_insert_and_delete() {
        let ht = HashTable::with_buckets(16);
        for i in 0..50u64 {
            ht.fresh_insert(7, i);
        }
        assert_eq!(ht.lookup_all(7).len(), 50, "inserts never dedup");
        assert_eq!(ht.fresh_delete(7), 50);
        assert!(ht.lookup_all(7).is_empty(), "tombstoned keys never match");
        assert_eq!(ht.fresh_delete(7), 0, "second delete finds nothing");
        assert_eq!(ht.contents_sorted(), vec![]);
    }

    #[test]
    fn concurrent_latchfree_upserts_sum_exactly() {
        // 4 threads upsert the same fresh keys; commutative fetch_add plus
        // CAS-prepend-with-recheck must agree with a serial model.
        let rel = Relation::dense_unique(2_000, 9);
        let ht = HashTable::build_serial(&rel);
        ht.freeze();
        const THREADS: u64 = 4;
        const KEYS: u64 = 3_000; // all past the build's 1..=2000
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let ht = &ht;
                scope.spawn(move || {
                    for k in 0..KEYS {
                        ht.fresh_upsert(k + 2_001, t + 1);
                    }
                });
            }
        });
        let per_key: u64 = (1..=THREADS).sum();
        for k in 2_001..2_001 + KEYS {
            assert_eq!(ht.lookup_all(k), [per_key], "key {k}");
        }
        // Exactly one fresh node exists per fresh key.
        assert_eq!(ht.contents_sorted().len(), rel.len() + KEYS as usize);
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let rel = Relation::zipf(3_000, 400, 0.7, 21);
        let ht = HashTable::build_serial(&rel);
        ht.freeze();
        for k in 0..500u64 {
            ht.fresh_upsert(k * 3, k + 1);
        }
        ht.fresh_delete(0);
        let snap = ht.snapshot();
        let back = HashTable::restore(&snap);
        assert_eq!(back.bucket_count(), ht.bucket_count());
        assert_eq!(back.nodes().len(), ht.nodes().len(), "same arena shape");
        assert_eq!(back.frozen_bound(), ht.frozen_bound());
        assert_eq!(back.tuple_count(), ht.tuple_count());
        assert_eq!(back.contents_sorted(), ht.contents_sorted());
        // Physical layout identical: every bucket's chain walks the same
        // indices with the same bytes.
        for b in 0..ht.bucket_count() {
            let (mut a, mut r): (*const Bucket, *const Bucket) = (&ht.buckets[b], &back.buckets[b]);
            loop {
                let (da, dr) = unsafe { ((*a).data(), (*r).data()) };
                assert_eq!(da.meta, dr.meta);
                assert_eq!(da.next, dr.next);
                assert_eq!(
                    da.tuples.map(|t| (t.key, t.payload)),
                    dr.tuples.map(|t| (t.key, t.payload))
                );
                if da.next == NULL_INDEX {
                    break;
                }
                a = ht.node_ptr(da.next);
                r = back.node_ptr(dr.next);
            }
        }
        // Mutating the restored table diverges it, not the original.
        back.fresh_upsert(123_456, 1);
        assert_ne!(back.contents_sorted(), ht.contents_sorted());
        assert!(snap.node_data.len() <= ht.nodes().len());
    }
}
