//! Duplicate keys inside one chain node: every walk that compares keys
//! only at the `tag_slots` candidates must find what a scan of every
//! occupied slot finds — the same matches, checksum and first match (the
//! lowest slot wins) — and a delete must tombstone every copy.

use amac_suite::coro::{coro_probe, CoroConfig};
use amac_suite::engine::engine::pipeline::Fused;
use amac_suite::engine::engine::run;
use amac_suite::engine::{Technique, TuningParams};
use amac_suite::hashtable::HashTable;
use amac_suite::mem::hash::tag_of;
use amac_suite::mem::NULL_INDEX;
use amac_suite::ops::join::{probe, ProbeConfig};
use amac_suite::ops::mutate::{mutate, replay, MutateConfig, MutateKind};
use amac_suite::ops::pipeline::{CountChecksum, ProbeStage};
use amac_suite::tier::TierSpec;
use amac_suite::workload::{Relation, Tuple};

/// The duplicated key, and a foreign key whose tag differs from it.
const KEY: u64 = 7;
const FOREIGN: u64 = 8;

/// A foreign key whose fingerprint collides with `KEY`'s, so the kernel
/// names its slot and only the key compare rejects it.
fn same_tag_foreign() -> u64 {
    (KEY + 1..).find(|&k| tag_of(k) == tag_of(KEY)).unwrap()
}

/// A one-bucket table built by inserting `keys` in order (payload =
/// 100 × insertion position + 1, so every copy is distinguishable).
/// Three keys fill the header; the next three fill one overflow node.
fn one_bucket(keys: &[u64]) -> HashTable {
    let ht = HashTable::with_buckets(1);
    let mut h = ht.build_handle();
    for (i, &k) in keys.iter().enumerate() {
        h.insert(k, 100 * i as u64 + 1);
    }
    drop(h);
    ht
}

/// The chain's nodes as `(key, payload)` slot lists, header first.
fn nodes(ht: &HashTable, key: u64) -> Vec<Vec<(u64, u64)>> {
    let mut out = Vec::new();
    let mut node = ht.bucket_addr(key);
    loop {
        // SAFETY: read-only phase; the chain lives in `ht`.
        let d = unsafe { (*node).data() };
        out.push((0..d.count()).map(|i| (d.tuples[i].key, d.tuples[i].payload)).collect());
        if d.next == NULL_INDEX {
            return out;
        }
        node = ht.node_ptr(d.next);
    }
}

/// Scalar model of one probe: scan every occupied slot of every node,
/// stop after the first node holding a match unless `scan_all`.
/// Returns (matches, payload sum, first payload or `u64::MAX`).
fn model(ht: &HashTable, key: u64, scan_all: bool) -> (u64, u64, u64) {
    let (mut matches, mut sum, mut first) = (0u64, 0u64, u64::MAX);
    for node in nodes(ht, key) {
        let hits: Vec<u64> = node.iter().filter(|t| t.0 == key).map(|t| t.1).collect();
        for &p in &hits {
            matches += 1;
            sum = sum.wrapping_add(p);
            if first == u64::MAX {
                first = p;
            }
        }
        if !hits.is_empty() && !scan_all {
            break;
        }
    }
    (matches, sum, first)
}

/// A labelled insertion order and the slots `KEY` must occupy per node.
type Layout = (&'static str, Vec<u64>, Vec<Vec<usize>>);

/// Every layout under test.
fn layouts() -> Vec<Layout> {
    let twin = same_tag_foreign();
    vec![
        ("header 0,2", vec![KEY, FOREIGN, KEY], vec![vec![0, 2]]),
        ("header 1,2", vec![FOREIGN, KEY, KEY], vec![vec![1, 2]]),
        ("header 0,2 same-tag foreign", vec![KEY, twin, KEY], vec![vec![0, 2]]),
        ("header 1,2 same-tag foreign", vec![twin, KEY, KEY], vec![vec![1, 2]]),
        ("overflow 0,2", vec![1, 2, 3, KEY, FOREIGN, KEY], vec![vec![], vec![0, 2]]),
        ("overflow 1,2", vec![1, 2, 3, twin, KEY, KEY], vec![vec![], vec![1, 2]]),
        // Copies in both nodes: scan_all decides how many count.
        (
            "header 2 + overflow 0,2",
            vec![FOREIGN, 2, KEY, KEY, twin, KEY],
            vec![vec![2], vec![0, 2]],
        ),
    ]
}

fn probes() -> Relation {
    let keys = [KEY, FOREIGN, same_tag_foreign(), 99_999, KEY];
    Relation::from_tuples(keys.iter().map(|&k| Tuple::new(k, 0)).collect())
}

/// (matches, checksum, first-match out) of the scalar model over `s`.
fn expected(ht: &HashTable, s: &Relation, scan_all: bool) -> (u64, u64, Vec<u64>) {
    let (mut m, mut c, mut out) = (0u64, 0u64, Vec::new());
    for t in &s.tuples {
        let (matches, sum, first) = model(ht, t.key, scan_all);
        m += matches;
        c = c.wrapping_add(sum);
        out.push(first);
    }
    (m, c, out)
}

#[test]
fn layouts_put_the_key_where_intended() {
    for (label, keys, slots) in layouts() {
        let ht = one_bucket(&keys);
        let got: Vec<Vec<usize>> = nodes(&ht, KEY)
            .iter()
            .map(|n| n.iter().enumerate().filter(|(_, t)| t.0 == KEY).map(|(i, _)| i).collect())
            .collect();
        assert_eq!(got, slots, "{label}");
    }
}

#[test]
fn probes_agree_with_a_full_slot_scan() {
    let s = probes();
    for (label, keys, _) in layouts() {
        let ht = one_bucket(&keys);
        for scan_all in [false, true] {
            let want = expected(&ht, &s, scan_all);
            for tier in [None, Some(TierSpec::headers_near(4))] {
                for t in Technique::ALL {
                    let cfg =
                        ProbeConfig { scan_all, materialize: true, tier, ..Default::default() };
                    let out = probe(&ht, &s, t, &cfg);
                    let ctx = format!("{label}: {t} scan_all={scan_all} tiered={}", tier.is_some());
                    assert_eq!((out.matches, out.checksum, out.out), want, "probe {ctx}");
                }
            }
            let coro = coro_probe(&ht, &s, &CoroConfig { scan_all, ..Default::default() });
            let ctx = format!("{label}: coro scan_all={scan_all}");
            assert_eq!((coro.matches, coro.checksum, coro.out), want, "{ctx}");
        }
        // The fused probe stage emits the first match per probe tuple.
        let (_, _, firsts) = expected(&ht, &s, false);
        let hits: Vec<u64> = firsts.into_iter().filter(|&p| p != u64::MAX).collect();
        let want = (hits.len() as u64, hits.iter().fold(0u64, |a, &p| a.wrapping_add(p)));
        for t in Technique::ALL {
            let stage = ProbeStage::new(&ht, &Default::default()).terminal();
            let mut op = Fused::new(stage, CountChecksum::default());
            run(t, &mut op, &s.tuples, TuningParams::with_in_flight(4), 1);
            assert_eq!((op.sink().matches, op.sink().checksum), want, "{label}: stage {t}");
        }
    }
}

#[test]
fn deletes_tombstone_every_copy_in_the_node() {
    let del = Relation::from_tuples(vec![Tuple::new(KEY, 0)]);
    let cfg = MutateConfig { kind: MutateKind::Delete, ..Default::default() };
    for (label, keys, slots) in layouts() {
        let copies: u64 = slots.iter().map(|s| s.len() as u64).sum();
        let snap = one_bucket(&keys).snapshot();
        for t in Technique::ALL {
            let ht = HashTable::restore(&snap);
            let out = mutate(&ht, &del, t, &cfg);
            assert_eq!(out.deleted, copies, "{label}: mutate {t}");
            assert!(ht.lookup_all(KEY).is_empty(), "{label}: {t}");
            let foreign = keys.iter().filter(|&&k| k == FOREIGN).count();
            assert_eq!(ht.lookup_all(FOREIGN).len(), foreign, "{label}: {t}");
            // Replaying the logged delete on the checkpoint does the same.
            let back = HashTable::restore(&snap);
            replay(&back, &out.wal);
            assert!(back.lookup_all(KEY).is_empty(), "{label}: replay {t}");
            assert_eq!(back.contents_sorted(), ht.contents_sorted(), "{label}: replay {t}");
        }
    }
}

#[test]
fn upserts_merge_into_the_lowest_copy() {
    let ups = Relation::from_tuples(vec![Tuple::new(KEY, 5)]);
    for (label, keys, _) in layouts() {
        let snap = one_bucket(&keys).snapshot();
        let mut want: Vec<u64> = nodes(&HashTable::restore(&snap), KEY)
            .concat()
            .into_iter()
            .filter(|t| t.0 == KEY)
            .map(|t| t.1)
            .collect();
        want[0] += 5;
        let ht = HashTable::restore(&snap);
        let out = mutate(&ht, &ups, Technique::Amac, &MutateConfig::default());
        assert_eq!((out.merged, out.created), (1, 0), "{label}");
        assert_eq!(ht.lookup_all(KEY), want, "{label}: mutate");
    }
}
