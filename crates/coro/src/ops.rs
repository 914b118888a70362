//! The async hash-join probe coroutine and [`coro_probe`], which runs it
//! over a relation.
//!
//! [`probe_chain`] is the baseline chain walk with a prefetch and a yield
//! dropped in at every pointer dereference — the "minimal modifications
//! to baseline code" benefit §6 predicts for a coroutine framework.
//! Compare with the hand-written state machine `amac_ops::join::ProbeOp`:
//! same algorithm and node kernel, but factored there into an explicit
//! stage enum and resumable state struct.

use crate::executor::{run_interleaved, InterleaveStats};
use crate::prefetch_yield;
use amac_hashtable::{tag_slots, BucketData, HashTable, Slots};
use amac_metrics::timer::CycleTimer;
use amac_workload::Relation;

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
    /// Loop cycles.
    pub cycles: u64,
    /// Loop wall time.
    pub seconds: f64,
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
}

impl Default for CoroConfig {
    fn default() -> Self {
        CoroConfig { width: 10, scan_all: false, materialize: true }
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
    let (matches, checksum, materialize) = (&mut res.matches, &mut res.checksum, cfg.materialize);
    let out = &mut res.out;
    res.stats = run_interleaved(
        cfg.width,
        &s.tuples,
        |_, t| probe_chain(ht, t.key, scan_all),
        |idx, hit: ChainHit| {
            *matches += hit.matches;
            *checksum = checksum.wrapping_add(hit.sum);
            if materialize {
                out[idx] = hit.first;
            }
        },
    );
    res.cycles = timer.cycles();
    res.seconds = timer.seconds();
    res
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
    fn empty_structures() {
        let ht = HashTable::with_buckets(4);
        let probe_rel = Relation::from_tuples(vec![Tuple::new(1, 0)]);
        assert_eq!(coro_probe(&ht, &probe_rel, &CoroConfig::default()).matches, 0);
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
