//! The ordered-index kernels' prefetch hint and branch shape are free to
//! change; what they count is not. `bst_search`, `skip_search` and
//! `btree_search` must report the same results and every `EngineStats`
//! field under every technique as the literals below, on two fixed inputs.
//! The results (`FOUND`, `CHECKSUM`) date from before the kernels took
//! `PREFETCHT0` and their branch-free child and leaf selects. The counters
//! were captured again when stage 0 began to walk each structure's hot
//! prefix (the top levels that fit in `amac_mem::HOT_BYTES`) inline: those
//! levels left `stages` and `prefetches`, and the GP/SPP budgets, which
//! subtract the prefix, moved `noops` and the bailouts. On 4096 keys the
//! prefix is almost the whole structure, so a 2^16-key input (2^17 for
//! the B+-tree) keeps the staged levels below it under test.

use amac_suite::btree::BPlusTree;
use amac_suite::engine::{EngineStats, Technique};
use amac_suite::ops::bst::{bst_search, BstConfig};
use amac_suite::ops::btree::{btree_search, BTreeConfig};
use amac_suite::ops::search::SearchOutput;
use amac_suite::ops::skiplist::{skip_search, SkipConfig};
use amac_suite::skiplist::SkipList;
use amac_suite::tree::Bst;
use amac_suite::workload::{Relation, Tuple};

/// `n` keys; the probe interleaves every key (shuffled) with ~`n / 4`
/// absent ones (a key's successor, plus `0` and `u64::MAX`), so hits,
/// in-range misses and out-of-range misses all occur.
fn input(n: usize) -> (Relation, Relation) {
    let rel = Relation::sparse_unique(n, 0x1D);
    let hits = rel.shuffled(0x1E);
    let present: std::collections::HashSet<u64> = rel.tuples.iter().map(|t| t.key).collect();
    let misses: Vec<Tuple> = rel.tuples[..n / 4 - 2]
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

/// `search` under every technique.
fn runs(search: impl Fn(Technique) -> SearchOutput) -> Pinned {
    Technique::ALL.map(|t| {
        let o = search(t);
        (o.found, o.checksum, o.stats)
    })
}

fn bst_runs(rel: &Relation, probe: &Relation) -> Pinned {
    let tree = Bst::build(rel);
    runs(|t| bst_search(&tree, probe, t, &BstConfig::default()))
}

fn skip_runs(rel: &Relation, probe: &Relation) -> Pinned {
    let list = SkipList::new();
    {
        let mut h = list.handle(0x20);
        for t in &rel.tuples {
            h.insert(t.key, t.payload);
        }
    }
    runs(|t| skip_search(&list, probe, t, &SkipConfig::default()))
}

fn btree_runs(rel: &Relation, probe: &Relation) -> Pinned {
    let tree = BPlusTree::build(rel);
    runs(|t| btree_search(&tree, probe, t, &BTreeConfig::default()))
}

/// The counters a read-only index search can move; every other field
/// stays zero.
fn stats(
    lookups: u64,
    stages: u64,
    noops: u64,
    bailouts: u64,
    bailout_stages: u64,
    prefetches: u64,
) -> EngineStats {
    EngineStats {
        lookups,
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

/// `(found, checksum)` on `n` keys: all found, payloads 1..=n.
const fn all_found(n: u64) -> (u64, u64) {
    (n, n * (n + 1) / 2)
}

/// Baseline and AMAC run every stage once; GP and SPP share one static
/// schedule, with the same no-ops and bailouts.
fn pinned(
    (found, checksum): (u64, u64),
    sequential: EngineStats,
    static_schedule: EngineStats,
) -> Pinned {
    [sequential, static_schedule, static_schedule, sequential].map(|s| (found, checksum, s))
}

#[test]
fn bst_search_counters_are_pinned() {
    let (rel, probe) = input(4096);
    assert_eq!(
        bst_runs(&rel, &probe),
        pinned(
            (FOUND, CHECKSUM),
            stats(5120, 22615, 0, 0, 0, 17495),
            stats(5120, 19775, 10945, 1111, 2840, 15766)
        )
    );
    let (rel, probe) = input(1 << 16);
    assert_eq!(
        bst_runs(&rel, &probe),
        pinned(
            all_found(1 << 16),
            stats(81920, 789274, 0, 0, 0, 707354),
            stats(81920, 715297, 267743, 21377, 73977, 654754)
        )
    );
}

#[test]
fn skip_search_counters_are_pinned() {
    let (rel, probe) = input(4096);
    assert_eq!(
        skip_runs(&rel, &probe),
        pinned(
            (FOUND, CHECKSUM),
            stats(5120, 28611, 0, 0, 0, 23491),
            stats(5120, 25676, 10164, 1125, 2935, 21681)
        )
    );
    let (rel, probe) = input(1 << 16);
    assert_eq!(
        skip_runs(&rel, &probe),
        pinned(
            all_found(1 << 16),
            stats(81920, 621532, 0, 0, 0, 539612),
            stats(81920, 559526, 177754, 20767, 62006, 498373)
        )
    );
}

/// On 2^16 keys every inner level of the B+-tree is hot; 2^17 is the
/// smallest power of two with a staged inner level above the leaves.
#[test]
fn btree_search_counters_are_pinned() {
    let (rel, probe) = input(4096);
    let leaf_only = stats(5120, 10240, 0, 0, 0, 5120);
    assert_eq!(btree_runs(&rel, &probe), pinned((FOUND, CHECKSUM), leaf_only, leaf_only));
    let (rel, probe) = input(1 << 17);
    let inner_and_leaf = stats(163840, 491520, 0, 0, 0, 327680);
    assert_eq!(
        btree_runs(&rel, &probe),
        pinned(all_found(1 << 17), inner_and_leaf, inner_and_leaf)
    );
}
