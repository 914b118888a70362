//! Async lookup coroutines for the paper's read-only workloads, plus
//! drivers mirroring the `amac-ops` interface.
//!
//! Each function here is the *baseline* traversal code with a prefetch
//! and a yield dropped in at every pointer dereference — the "minimal
//! modifications to baseline code" benefit §6 predicts for a coroutine
//! framework. The prefetch is the structure's own: the hash chain's
//! [`prefetch_yield`](crate::prefetch_yield()) (NTA), the trees'
//! `prefetch_node` (T0). Compare with the hand-written
//! state machines in `amac-ops`: same algorithms, but those had to be
//! factored into explicit stage enums and resumable state structs.

use crate::executor::{run_interleaved, run_interleaved_with_idle, yield_now, InterleaveStats};
use crate::prefetch_yield;
use amac::engine::{EngineStats, Hooks, Step};
use amac_btree::{BPlusTree, InnerNode, LeafNode};
use amac_hashtable::{tag_slots, BucketData, HashTable, Slots};
use amac_metrics::timer::CycleTimer;
use amac_ops::chain::ChainCursor;
use amac_skiplist::{SkipCursor, SkipList, SkipMove};
use amac_tier::{ExecCtx, ExecSpec, Ledger, TierSpec};
use amac_trace::Tracer;
use amac_tree::Bst;
use amac_workload::Relation;
use core::cell::RefCell;

/// Per-lookup result of a chain probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainHit {
    /// Matches found on the chain.
    pub matches: u64,
    /// Wrapping sum of matched payloads.
    pub sum: u64,
    /// First matched payload, or `u64::MAX` on a miss.
    pub first: u64,
}

impl ChainHit {
    /// Count `key`'s matches among node `d`'s tag-matching `slots`
    /// (lowest first, so `first` is the lowest matching slot's payload);
    /// true if the node held one.
    #[inline(always)]
    fn visit(&mut self, d: &BucketData, slots: Slots, key: u64) -> bool {
        let mut node_hit = false;
        for i in slots {
            let t = d.tuples[i];
            if t.key == key {
                self.matches += 1;
                self.sum = self.sum.wrapping_add(t.payload);
                if self.first == u64::MAX {
                    self.first = t.payload;
                }
                node_hit = true;
            }
        }
        node_hit
    }
}

/// Probe one hash-table chain for `key` as a coroutine.
///
/// `scan_all = false` stops after the first node containing a match
/// (unique-key early exit); `true` walks the whole chain (join semantics
/// under duplicates). Semantics match `amac_ops::join::ProbeOp` exactly.
pub async fn probe_chain(ht: &HashTable, key: u64, scan_all: bool) -> ChainHit {
    let mut hit = ChainHit { matches: 0, sum: 0, first: u64::MAX };
    let probe = amac_hashtable::probe_word(amac_mem::hash::tag_of(key));
    let mut node = ht.bucket_addr(key);
    prefetch_yield(node).await;
    loop {
        // SAFETY: probe runs in the table's read-only phase; `node` points
        // at the header or an arena-owned chain node.
        let d = unsafe { (*node).data() };
        // The same node kernel as the state-machine op: only the slots
        // whose tag matches are compared.
        if (hit.visit(d, tag_slots(d.meta, probe), key) && !scan_all)
            || d.next == amac_mem::NULL_INDEX
        {
            return hit;
        }
        let next = ht.node_ptr(d.next);
        prefetch_yield(next).await;
        node = next;
    }
}

/// [`probe_chain`] under a memory-tier cost model: same traversal, same
/// results, but every resumption ticks the ring-shared [`ExecCtx`] and
/// every dereference waits until the simulated load lands. The walk and
/// its context protocol are the state-machine ops' own [`ChainCursor`];
/// this body only decides where to suspend, and it always speaks the
/// metered instantiation (the driver only takes this path with a clock;
/// the untiered ring runs [`probe_chain`]). The context is shared by
/// `RefCell` — the whole ring runs on one thread, and one shared clock is
/// exactly what the state-machine executors get from
/// `Hooks::{now, advance_to}`. Ring slots are lanes, so a coalescing
/// context dedups duplicate line requests across in-flight coroutines as
/// it does across window slots.
///
/// Deliberately a separate coroutine rather than an
/// `Option<&RefCell<...>>` parameter on [`probe_chain`]: the context
/// reference and the cursor's `ready_at`/hop/slab live across the yields,
/// so folding the paths together grows the *untiered* suspended frame
/// (`future_bytes`, the §6 state-overhead metric `bench coro` reports)
/// from ≤128 B past two cache lines. Result equivalence is asserted by
/// `tiered_probe_matches_untiered_and_hides_by_width`; `bench tier`
/// sweeps its stall share.
pub async fn probe_chain_tiered(
    ht: &HashTable,
    key: u64,
    scan_all: bool,
    cx: &RefCell<ExecCtx>,
) -> ChainHit {
    let mut hit = ChainHit { matches: 0, sum: 0, first: u64::MAX };
    // Stage 0: hash + first prefetch (one tick, async header load).
    // A metered walk requests through the context and counts nodes into
    // a ledger; each stage settles its own, so none lives across a yield.
    let mut cur = ChainCursor::default();
    cur.start::<true>(ht, key, &mut cx.borrow_mut(), &mut Ledger::default());
    loop {
        yield_now().await;
        let (d, slots) = {
            let (mut cx, mut led) = (cx.borrow_mut(), Ledger::default());
            let node = cur.node::<true>("probe", ht, &mut cx, &mut led);
            cx.settle(led);
            node
        };
        if hit.visit(d, slots, key) && !scan_all {
            cur.retire::<true>("probe", &mut cx.borrow_mut());
            return hit;
        }
        // A ring context carries no fault plan, so anything but
        // `Continue` is the end of the chain.
        let step =
            cur.advance::<true>("probe", ht, d.next, &mut cx.borrow_mut(), &mut Ledger::default());
        if step != Step::Continue {
            return hit;
        }
    }
}

/// Search the BST for `key` as a coroutine. Each node is fetched by the
/// tree's own kernel (`PREFETCHT0`, child selected by address), as in
/// `amac_ops::bst::BstOp`.
pub async fn bst_find(tree: &Bst, key: u64) -> Option<u64> {
    let mut cur = tree.root();
    if cur.is_null() {
        return None;
    }
    amac_tree::prefetch_node(cur);
    yield_now().await;
    loop {
        // SAFETY: read-only phase; nodes are arena-owned by the tree.
        let node = unsafe { &*cur };
        if key == node.key {
            return Some(node.payload);
        }
        cur = node.child(key > node.key);
        if cur.is_null() {
            return None;
        }
        amac_tree::prefetch_node(cur);
        yield_now().await;
    }
}

/// Search the B+-tree for `key` as a coroutine, fetching both lines of
/// each node with the tree's own kernel (`PREFETCHT0`).
pub async fn btree_find(tree: &BPlusTree, key: u64) -> Option<u64> {
    let mut ptr = tree.root_ptr();
    if ptr.is_null() {
        return None;
    }
    amac_btree::prefetch_node(ptr);
    yield_now().await;
    for _ in 1..tree.height() {
        // SAFETY: read-only phase; levels above the last are inner nodes.
        let inner = unsafe { &*ptr.cast::<InnerNode>() };
        ptr = inner.select_child(key);
        amac_btree::prefetch_node(ptr);
        yield_now().await;
    }
    // SAFETY: the last level is a leaf.
    unsafe { (*ptr.cast::<LeafNode>()).lookup(key) }
}

/// Search the skip list for `key` as a coroutine (Table 1's search
/// stages: advance on `<`, match on `==`, descend on `>` — here as plain
/// control flow rather than a stage enum).
pub async fn skip_find(list: &SkipList, key: u64) -> Option<u64> {
    let mut cur = SkipCursor::start(list);
    loop {
        yield_now().await;
        match cur.step(key) {
            SkipMove::Advanced | SkipMove::Descended(..) => {}
            SkipMove::Found(payload) => return Some(payload),
            SkipMove::Bottom(_) => return None,
        }
    }
}

/// Output of a coroutine-interleaved probe run.
#[derive(Debug, Clone, Default)]
pub struct CoroOutput {
    /// Total key matches found.
    pub matches: u64,
    /// Wrapping sum of matched payloads (order-independent checksum).
    pub checksum: u64,
    /// First-match payload per input tuple (`u64::MAX` = miss) when
    /// materializing.
    pub out: Vec<u64>,
    /// Executor counters, including the suspended-state size.
    pub stats: InterleaveStats,
    /// Simulated work ticks ([`CoroConfig::tier`] runs only).
    pub sim_cycles: u64,
    /// Simulated stall ticks ([`CoroConfig::tier`] runs only).
    pub sim_stalls: u64,
    /// Distinct load requests the AMU issued ([`CoroConfig::tier`] runs
    /// only; see `amac::engine::EngineStats::issued_loads`).
    pub issued_loads: u64,
    /// Requests absorbed by an already-issued line
    /// ([`CoroConfig::coalesce`] runs only).
    pub coalesced_loads: u64,
    /// Loop cycles.
    pub cycles: u64,
    /// Loop wall time.
    pub seconds: f64,
    /// Structured trace of the ring's loads/stalls/retirements (disabled
    /// and empty unless [`CoroConfig::trace`] was set on a tiered run).
    pub trace: Tracer,
}

/// Coroutine driver configuration.
#[derive(Debug, Clone)]
pub struct CoroConfig {
    /// In-flight coroutines (the paper's `M`).
    pub width: usize,
    /// Walk full chains (join semantics) instead of early exit.
    pub scan_all: bool,
    /// Materialize first-match payloads in input order.
    pub materialize: bool,
    /// Memory-tier cost model: `Some` probes through
    /// [`probe_chain_tiered`] and reports
    /// [`sim_cycles`](CoroOutput::sim_cycles)/[`sim_stalls`](CoroOutput::sim_stalls).
    /// Results are identical either way.
    pub tier: Option<TierSpec>,
    /// AMU issue coalescing across the ring's in-flight coroutines (see
    /// `amac_ops::join::ProbeConfig::coalesce`). Only meaningful with
    /// [`tier`](CoroConfig::tier); results are identical either way.
    pub coalesce: Option<usize>,
    /// Record a structured trace into [`CoroOutput::trace`]. Only
    /// meaningful with
    /// [`tier`](CoroConfig::tier) (an untiered ring has no clock to key
    /// events on); results are identical either way.
    pub trace: bool,
}

impl CoroConfig {
    /// The execution context a tiered ring shares (default hint: the
    /// same `PREFETCHNTA` the untiered ring's `prefetch_yield` issues).
    pub fn exec(&self) -> ExecSpec {
        ExecSpec { tier: self.tier, coalesce: self.coalesce, ..Default::default() }
    }
}

impl Default for CoroConfig {
    fn default() -> Self {
        CoroConfig {
            width: 10,
            scan_all: false,
            materialize: true,
            tier: None,
            coalesce: None,
            trace: false,
        }
    }
}

/// Hash-join probe of `s` against `ht`, coroutine-interleaved.
pub fn coro_probe(ht: &HashTable, s: &Relation, cfg: &CoroConfig) -> CoroOutput {
    let mut res = CoroOutput {
        out: if cfg.materialize { vec![u64::MAX; s.len()] } else { Vec::new() },
        ..Default::default()
    };
    let scan_all = cfg.scan_all;
    let timer = CycleTimer::start();
    let mut harvested = Tracer::off();
    {
        let (matches, checksum, materialize) =
            (&mut res.matches, &mut res.checksum, cfg.materialize);
        let out = &mut res.out;
        let sink = |idx: usize, hit: ChainHit| {
            *matches += hit.matches;
            *checksum = checksum.wrapping_add(hit.sum);
            if materialize {
                out[idx] = hit.first;
            }
        };
        if cfg.tier.is_none() {
            res.stats = run_interleaved(
                cfg.width,
                &s.tuples,
                |_, t| probe_chain(ht, t.key, scan_all),
                sink,
            );
        } else {
            let cx = RefCell::new(ExecCtx::new(&cfg.exec()));
            if cfg.trace {
                cx.borrow_mut().set_tracer(Tracer::on());
            }
            res.stats = run_interleaved_with_idle(
                cfg.width,
                &s.tuples,
                |_, t| probe_chain_tiered(ht, t.key, scan_all, &cx),
                sink,
                || cx.borrow_mut().idle(1),
            );
            let mut cx = cx.into_inner();
            let mut drained = EngineStats::default();
            cx.flush(&mut drained);
            res.sim_cycles = drained.sim_cycles;
            res.sim_stalls = drained.sim_stalls;
            res.issued_loads = drained.issued_loads;
            res.coalesced_loads = drained.coalesced_loads;
            harvested = cx.take_tracer();
        }
    }
    res.trace = harvested;
    res.cycles = timer.cycles();
    res.seconds = timer.seconds();
    res
}

/// The index-search driver scaffold: run `find(key)` coroutines over
/// `probe_rel`, counting hits and materializing found payloads.
fn coro_search<Fut>(probe_rel: &Relation, cfg: &CoroConfig, find: impl Fn(u64) -> Fut) -> CoroOutput
where
    Fut: core::future::Future<Output = Option<u64>>,
{
    let mut res = CoroOutput {
        out: if cfg.materialize { vec![u64::MAX; probe_rel.len()] } else { Vec::new() },
        ..Default::default()
    };
    let timer = CycleTimer::start();
    let (matches, checksum, materialize) = (&mut res.matches, &mut res.checksum, cfg.materialize);
    let out = &mut res.out;
    res.stats = run_interleaved(
        cfg.width,
        &probe_rel.tuples,
        |_, t| find(t.key),
        |idx, found: Option<u64>| {
            if let Some(p) = found {
                *matches += 1;
                *checksum = checksum.wrapping_add(p);
                if materialize {
                    out[idx] = p;
                }
            }
        },
    );
    res.cycles = timer.cycles();
    res.seconds = timer.seconds();
    res
}

/// BST search of `probe_rel` against `tree`, coroutine-interleaved.
pub fn coro_bst_search(tree: &Bst, probe_rel: &Relation, cfg: &CoroConfig) -> CoroOutput {
    coro_search(probe_rel, cfg, |key| bst_find(tree, key))
}

/// Skip-list search of `probe_rel` against `list`, coroutine-interleaved.
pub fn coro_skip_search(list: &SkipList, probe_rel: &Relation, cfg: &CoroConfig) -> CoroOutput {
    coro_search(probe_rel, cfg, |key| skip_find(list, key))
}

/// B+-tree search of `probe_rel` against `tree`, coroutine-interleaved.
pub fn coro_btree_search(tree: &BPlusTree, probe_rel: &Relation, cfg: &CoroConfig) -> CoroOutput {
    coro_search(probe_rel, cfg, |key| btree_find(tree, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_workload::Tuple;

    #[test]
    fn probe_finds_every_fk_match() {
        let r = Relation::dense_unique(1 << 12, 11);
        let s = Relation::fk_uniform(&r, 1 << 13, 12);
        let ht = HashTable::build_serial(&r);
        let out = coro_probe(&ht, &s, &CoroConfig::default());
        assert_eq!(out.matches, 1 << 13);
        assert!(out.out.iter().all(|&p| p != u64::MAX));
    }

    #[test]
    fn tiered_probe_matches_untiered_and_hides_by_width() {
        let domain = 256u64;
        let build = Relation::zipf(4096, domain, 0.5, 0xC0);
        let ht = HashTable::build_serial(&build);
        let s = Relation::zipf(4096, domain, 0.0, 0xC0);
        let cfg = CoroConfig { scan_all: true, ..Default::default() };
        let plain = coro_probe(&ht, &s, &cfg);
        assert_eq!((plain.sim_cycles, plain.sim_stalls), (0, 0), "untiered charges nothing");
        for mult in [1u64, 8] {
            let spec = Some(TierSpec::headers_near(mult));
            // Wide ring: every far load lands before its slot is re-polled.
            let far = 4 * mult as usize;
            let wide =
                coro_probe(&ht, &s, &CoroConfig { width: far + 2, tier: spec, ..cfg.clone() });
            assert_eq!(wide.matches, plain.matches, "mult {mult}: results diverged");
            assert_eq!(wide.checksum, plain.checksum, "mult {mult}");
            assert_eq!(wide.out, plain.out, "mult {mult}: materialization diverged");
            assert_eq!(wide.sim_stalls, 0, "mult {mult}: ring of {} must hide {far}", far + 2);
            assert!(wide.sim_cycles > 0, "mult {mult}: the clock must tick");
        }
        // A 1-wide ring is the serial baseline: every hop exposes latency.
        let serial = coro_probe(
            &ht,
            &s,
            &CoroConfig { width: 1, tier: Some(TierSpec::headers_near(8)), ..cfg.clone() },
        );
        assert_eq!(serial.matches, plain.matches);
        assert!(serial.sim_stalls > 0, "width 1 cannot hide the far tier");
    }

    #[test]
    fn probe_scan_all_counts_duplicates() {
        let tuples: Vec<Tuple> =
            (0..256u64).flat_map(|k| [Tuple::new(k, 1), Tuple::new(k, 2)]).collect();
        let ht = HashTable::build_serial(&Relation::from_tuples(tuples));
        let probe_rel = Relation::from_tuples((0..256u64).map(|k| Tuple::new(k, 0)).collect());
        let out = coro_probe(&ht, &probe_rel, &CoroConfig { scan_all: true, ..Default::default() });
        assert_eq!(out.matches, 512);
        assert_eq!(out.checksum, 256 * 3);
    }

    #[test]
    fn bst_search_hits_and_misses() {
        let rel = Relation::sparse_unique(4096, 21);
        let tree = Bst::build(&rel);
        let out = coro_bst_search(&tree, &rel.shuffled(22), &CoroConfig::default());
        assert_eq!(out.matches, 4096);
        let missing =
            Relation::from_tuples((0..64u64).map(|k| Tuple::new(k | (1 << 63), 0)).collect());
        let miss_keys = missing.tuples.iter().filter(|t| tree.get(t.key).is_none()).count();
        let out = coro_bst_search(&tree, &missing, &CoroConfig::default());
        assert_eq!(out.matches as usize, missing.len() - miss_keys);
    }

    #[test]
    fn btree_search_matches_reference() {
        let rel = Relation::sparse_unique(10_000, 31);
        let tree = BPlusTree::build(&rel);
        let probe_rel = rel.shuffled(32);
        let out = coro_btree_search(&tree, &probe_rel, &CoroConfig::default());
        assert_eq!(out.matches, 10_000);
        for (i, t) in probe_rel.tuples.iter().enumerate() {
            assert_eq!(out.out[i], tree.get(t.key).unwrap(), "key {}", t.key);
        }
    }

    #[test]
    fn skip_search_matches_reference() {
        let rel = Relation::sparse_unique(4096, 51);
        let list = SkipList::new();
        {
            let mut h = list.handle(7);
            for t in &rel.tuples {
                h.insert(t.key, t.payload);
            }
        }
        let probe_rel = rel.shuffled(52);
        let out = coro_skip_search(&list, &probe_rel, &CoroConfig::default());
        assert_eq!(out.matches, 4096);
        for (i, t) in probe_rel.tuples.iter().enumerate() {
            assert_eq!(out.out[i], list.get(t.key).unwrap(), "key {}", t.key);
        }
        // Misses stay misses.
        let missing = Relation::from_tuples(
            (0..100u64)
                .map(|i| Tuple::new(i | (1 << 61), 0))
                .filter(|t| list.get(t.key).is_none())
                .collect(),
        );
        let out = coro_skip_search(&list, &missing, &CoroConfig::default());
        assert_eq!(out.matches, 0);
    }

    #[test]
    fn empty_structures() {
        let ht = HashTable::with_buckets(4);
        let probe_rel = Relation::from_tuples(vec![Tuple::new(1, 0)]);
        assert_eq!(coro_probe(&ht, &probe_rel, &CoroConfig::default()).matches, 0);
        let tree = Bst::new();
        assert_eq!(coro_bst_search(&tree, &probe_rel, &CoroConfig::default()).matches, 0);
        let bt = BPlusTree::new();
        assert_eq!(coro_btree_search(&bt, &probe_rel, &CoroConfig::default()).matches, 0);
    }

    #[test]
    fn suspended_state_size_is_reported() {
        let rel = Relation::dense_unique(128, 1);
        let ht = HashTable::build_serial(&rel);
        let out = coro_probe(&ht, &rel, &CoroConfig::default());
        // The §6 overhead concern: a compiled coroutine frame carries the
        // chain pointer, key, flags and the yield-point state. It cannot
        // be empty and should stay within a couple of cache lines.
        assert!(out.stats.future_bytes > 0);
        assert!(
            out.stats.future_bytes <= 128,
            "probe coroutine frame unexpectedly large: {} B",
            out.stats.future_bytes
        );
    }
}
