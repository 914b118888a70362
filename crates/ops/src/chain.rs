//! The bucket-chain walk, written once.
//!
//! Every operator over a [`HashTable`] — the join probe, the fused
//! pipeline's probe stage, the latch-free mutations, the tiered probe
//! coroutine — visits the same chain of nodes and owes its execution
//! context the same protocol per node: one lane per lookup, one request
//! per hop keyed by the schedule-invariant [`fault_token`]`(key, hop)`,
//! one traced, tier-attributed wait before each dereference, one
//! retirement. [`ChainCursor`] is that walk and that protocol; what an
//! operator does with a node's tuples (count, emit, merge, tombstone)
//! stays in the operator. [`ChainCursor::node`] hands it the node's
//! candidate slots from the `amac_hashtable::tag_slots` kernel, so every
//! operator compares keys only where the tag word says the key can be.
//!
//! Every method is generic over the call's mode: an operator's plain
//! stages (an executor call whose context is plain, see
//! [`Hooks::plain`](amac::engine::Hooks::plain)) run `PLAIN = true`, the
//! walk alone — count the load into the call's [`Ledger`], prefetch,
//! dereference — with no lane, ticket or fault token kept and the context
//! untouched; its metered stages run `PLAIN = false`, the full protocol.
//! Nodes and tag rejections count into the ledger in both modes.

use amac::engine::Step;
use amac_hashtable::{probe_word, tag_slots, Bucket, BucketData, HashTable, Slots};
use amac_mem::hash::tag_of;
use amac_mem::{slab_of_index, NULL_INDEX};
use amac_tier::{fault_token, ExecCtx, Ledger};

/// Where one lookup stands on its bucket chain: the chain-walking part of
/// the paper's circular-buffer entry (Fig. 4). Every method takes the
/// operator's name for trace events (`"probe"`, `"mutate"`).
pub struct ChainCursor {
    pub(crate) key: u64,
    /// Node the pending load targets: the header, then arena nodes.
    pub(crate) ptr: *const Bucket,
    /// [`probe_word`] of the key's fingerprint, computed once in stage 0.
    pub(crate) probe: u32,
    /// Simulated tick the requested line arrives (metered stages only;
    /// plain stages leave it at the slot's 0 = always ready).
    pub(crate) ready_at: u64,
    /// Hops taken so far (0 = at the header). Kept in both modes: a
    /// tracer armed while the lookup is in flight reports it at
    /// retirement.
    pub(crate) hop: u32,
    /// Commit group the lookup's lane was born into (metered stages
    /// only).
    pub(crate) group: u32,
}

impl Default for ChainCursor {
    /// An idle window slot: executors `start` a slot before stepping it,
    /// so this null cursor is never walked.
    fn default() -> Self {
        ChainCursor { key: 0, ptr: core::ptr::null(), probe: 0, ready_at: 0, hop: 0, group: 0 }
    }
}

impl ChainCursor {
    /// Code stage 0 (Table 1): open a lane, compute `key`'s bucket
    /// address and SWAR probe word, request the header line. Written in
    /// place so the plain instantiation stores only what the walk reads.
    #[inline(always)]
    pub fn start<const PLAIN: bool>(
        &mut self,
        ht: &HashTable,
        key: u64,
        cx: &mut ExecCtx,
        led: &mut Ledger,
    ) {
        let ptr = ht.bucket_addr(key);
        self.key = key;
        self.ptr = ptr;
        self.probe = probe_word(tag_of(key));
        self.hop = 0;
        if !PLAIN {
            let group = cx.begin_lane();
            self.ready_at = cx.issue_header(ptr, group).ready_at;
            self.group = group;
        } else {
            led.issue(ptr);
        }
    }

    /// Whether lookups over `ht` in context `cx` look ahead of the AMAC
    /// window (`amac::engine`'s "Lookahead"): the context's hint is a
    /// real instruction and the header array is large enough to miss
    /// ([`HashTable::headers_huge`]).
    #[inline(always)]
    pub fn looks_ahead(ht: &HashTable, cx: &ExecCtx) -> bool {
        cx.hint().is_real() && ht.headers_huge()
    }

    /// [`start`](ChainCursor::start)'s header request for `key` as a bare
    /// hint: the same instruction, and no lane, ticket or ledger entry.
    #[inline(always)]
    pub fn lookahead(ht: &HashTable, key: u64, cx: &ExecCtx) {
        cx.hint().issue(ht.bucket_addr(key));
    }

    /// Wait for the requested node of `ht` (the table the cursor was
    /// started on) and dereference it. Also returns the slots whose tag
    /// admits `key` ([`tag_slots`] on the packed meta word), lowest
    /// first: a node with none is a tag reject, rejected without touching
    /// its tuple slots, and the caller compares keys only at the others.
    #[inline(always)]
    pub fn node<'t, const PLAIN: bool>(
        &self,
        op: &'static str,
        ht: &'t HashTable,
        cx: &mut ExecCtx,
        led: &mut Ledger,
    ) -> (&'t BucketData, Slots) {
        let _ = ht;
        if !PLAIN {
            cx.deref(op, self.key, self.hop, self.ready_at);
        }
        debug_assert!(!self.ptr.is_null(), "cursor stepped before start");
        // SAFETY: `ptr` is only ever written by `start` (a header of the
        // table) and `advance` (an arena-owned node of it), and walks run
        // in the table's read-only phase.
        let d = unsafe { (*self.ptr).data() };
        led.nodes_visited += 1;
        let slots = tag_slots(d.meta, self.probe);
        if slots.is_empty() {
            led.tag_rejects += 1;
        }
        (d, slots)
    }

    /// Chase the chain link `next` read from the current node:
    /// [`Step::Done`] at the end of the chain (the lane retires),
    /// [`Step::Continue`] once the next node is requested,
    /// [`Step::Failed`] when that load comes back poisoned. The fault
    /// token is `(key, hop)`, so the fault set is identical under every
    /// executor and schedule — and under coalescing, which re-runs the
    /// decision per request.
    #[inline(always)]
    pub fn advance<const PLAIN: bool>(
        &mut self,
        op: &'static str,
        ht: &HashTable,
        next: u32,
        cx: &mut ExecCtx,
        led: &mut Ledger,
    ) -> Step {
        if next == NULL_INDEX {
            self.retire::<PLAIN>(op, cx);
            return Step::Done;
        }
        let ptr = ht.node_ptr(next);
        self.ptr = ptr;
        if PLAIN {
            self.hop += 1;
            led.issue(ptr);
            return Step::Continue;
        }
        let token = fault_token(self.key, self.hop);
        self.hop += 1;
        let t = cx.issue_slab(slab_of_index(next), ptr, token, self.group);
        if t.failed {
            cx.fail(op, self.key, self.hop, self.group);
            return Step::Failed;
        }
        self.ready_at = t.ready_at;
        Step::Continue
    }

    /// The lookup ends at the current node: trace the retirement and free
    /// the lane.
    #[inline(always)]
    pub fn retire<const PLAIN: bool>(&self, op: &'static str, cx: &mut ExecCtx) {
        if !PLAIN {
            cx.retire(op, self.key, self.hop, self.group);
        }
    }
}
