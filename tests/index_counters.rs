//! The ordered-index kernels' prefetch hint and branch shape are free to
//! change; what they count is not. `bst_search`, `skip_search` and
//! `btree_search` must report the same results and every `EngineStats`
//! field under every technique as the literals below, captured on a fixed
//! input before the kernels took `PREFETCHT0` and their branch-free child
//! and leaf selects.

use amac_suite::btree::BPlusTree;
use amac_suite::engine::{EngineStats, Technique};
use amac_suite::ops::bst::{bst_search, BstConfig};
use amac_suite::ops::btree::{btree_search, BTreeConfig};
use amac_suite::ops::skiplist::{skip_search, SkipConfig};
use amac_suite::skiplist::SkipList;
use amac_suite::tree::Bst;
use amac_suite::workload::{Relation, Tuple};

/// 4096 keys; the probe interleaves every key (shuffled) with ~1024 absent
/// ones (a key's successor, plus `0` and `u64::MAX`), so hits, in-range
/// misses and out-of-range misses all occur.
fn input() -> (Relation, Relation) {
    let rel = Relation::sparse_unique(4096, 0x1D);
    let hits = rel.shuffled(0x1E);
    let present: std::collections::HashSet<u64> = rel.tuples.iter().map(|t| t.key).collect();
    let misses: Vec<Tuple> = rel.tuples[..1022]
        .iter()
        .map(|t| t.key.wrapping_add(1))
        .chain([0, u64::MAX])
        .filter(|k| !present.contains(k))
        .map(|k| Tuple::new(k, 0))
        .collect();
    let mut probe = Vec::with_capacity(hits.len() + misses.len());
    let mut misses = misses.into_iter();
    for (i, t) in hits.tuples.into_iter().enumerate() {
        probe.push(t);
        if i % 4 == 3 {
            probe.extend(misses.next());
        }
    }
    probe.extend(misses);
    (rel, Relation::from_tuples(probe))
}

/// (found, checksum, stats) per technique in `Technique::ALL` order.
type Pinned = [(u64, u64, EngineStats); 4];

fn bst_runs(rel: &Relation, probe: &Relation) -> Pinned {
    let tree = Bst::build(rel);
    Technique::ALL.map(|t| {
        let o = bst_search(&tree, probe, t, &BstConfig::default());
        (o.found, o.checksum, o.stats)
    })
}

fn skip_runs(rel: &Relation, probe: &Relation) -> Pinned {
    let list = SkipList::new();
    {
        let mut h = list.handle(0x20);
        for t in &rel.tuples {
            h.insert(t.key, t.payload);
        }
    }
    Technique::ALL.map(|t| {
        let o = skip_search(&list, probe, t, &SkipConfig::default());
        (o.found, o.checksum, o.stats)
    })
}

fn btree_runs(rel: &Relation, probe: &Relation) -> Pinned {
    let tree = BPlusTree::build(rel);
    Technique::ALL.map(|t| {
        let o = btree_search(&tree, probe, t, &BTreeConfig::default());
        (o.found, o.checksum, o.stats)
    })
}

/// The counters a read-only index search can move; every other field
/// stays zero.
fn stats(
    stages: u64,
    noops: u64,
    bailouts: u64,
    bailout_stages: u64,
    prefetches: u64,
) -> EngineStats {
    EngineStats {
        lookups: 5120,
        stages,
        noops,
        bailouts,
        bailout_stages,
        prefetches,
        ..Default::default()
    }
}

/// Every search finds the 4096 stored keys (payloads 1..=4096).
const FOUND: u64 = 4096;
const CHECKSUM: u64 = 4096 * 4097 / 2;

/// Baseline and AMAC run every stage once; GP and SPP share one static
/// schedule, with the same no-ops and bailouts.
fn pinned(sequential: EngineStats, static_schedule: EngineStats) -> Pinned {
    [sequential, static_schedule, static_schedule, sequential].map(|s| (FOUND, CHECKSUM, s))
}

#[test]
fn bst_search_counters_are_pinned() {
    let (rel, probe) = input();
    assert_eq!(
        bst_runs(&rel, &probe),
        pinned(stats(80403, 0, 0, 0, 75283), stats(77563, 14597, 1111, 2840, 73554))
    );
}

#[test]
fn skip_search_counters_are_pinned() {
    let (rel, probe) = input();
    assert_eq!(
        skip_runs(&rel, &probe),
        pinned(stats(124027, 0, 0, 0, 118907), stats(122185, 26295, 634, 1842, 117699))
    );
}

#[test]
fn btree_search_counters_are_pinned() {
    let (rel, probe) = input();
    let every_level = stats(30720, 0, 0, 0, 25600);
    assert_eq!(btree_runs(&rel, &probe), pinned(every_level, every_level));
}
