//! A plain AMAC `probe()` against the engine path it stands in for.
//!
//! On a host with AVX-512F/DQ, `probe()` runs a plain AMAC call through
//! the vector kernel (`amac_hashtable::vector`); everywhere else, and
//! under Miri, it runs the engine's AMAC window. Either way its matches,
//! checksum, materialized first matches and every `EngineStats` field must
//! equal one `amac::engine::run(Technique::Amac, ..)` over a `ProbeOp`, on
//! every table shape a probe meets: cache-resident and huge-header tables,
//! hits and misses, duplicates inside one node, skew, 3-node chains, and
//! a table after a latch-free mutation epoch. Each shape runs at every
//! input length that splits an 8-lane group differently and at windows
//! below, at and above the vector width.

use amac::engine::{run, Technique, TuningParams};
use amac_hashtable::{vector, HashTable};
use amac_ops::join::{probe, ProbeConfig, ProbeOp};
use amac_ops::mutate::{mutate, MutateConfig, MutateKind};
use amac_workload::{Relation, Tuple};

/// Windows below, at and above the 8-lane width, and the paper's 10.
const WINDOWS: [usize; 5] = [1, 8, 10, 16, 33];
/// An empty input, one lookup, partial groups, and a ragged 4097.
const LENGTHS: [usize; 5] = [0, 1, 7, 9, 4097];

/// Whether `probe()` takes the vector kernel on this host, said once.
fn kernel_runs() -> bool {
    let runs = vector::probe(&HashTable::with_buckets(1), &[], 1, false, None).is_some();
    if runs {
        println!("probe_vector: the AVX-512 kernel runs; checking it against the engine path");
    } else {
        println!("probe_vector: no AVX-512F/DQ here (or Miri); checking the engine fallback");
    }
    runs
}

/// `probe()` and the engine path agree on `s`'s prefixes of every length,
/// under every window, with and without materialization.
fn check(shape: &str, ht: &HashTable, s: &Relation, scan_all: bool) {
    for len in LENGTHS {
        let s = Relation::from_tuples(s.tuples[..len.min(s.len())].to_vec());
        for m in WINDOWS {
            for materialize in [true, false] {
                let cfg = ProbeConfig {
                    params: TuningParams { in_flight: m },
                    scan_all,
                    materialize,
                    ..Default::default()
                };
                let case = format!("{shape}: {} probes, M = {m}, scan_all {scan_all}", s.len());
                let got = probe(ht, &s, Technique::Amac, &cfg);
                let mut op = ProbeOp::new(ht, &cfg, s.len());
                let stats = run(Technique::Amac, &mut op, &s.tuples, cfg.params);
                assert_eq!((got.matches, got.checksum), (op.matches(), op.checksum()), "{case}");
                assert_eq!(got.out, op.take_out(), "{case}: first matches");
                assert_eq!(got.stats, stats, "{case}: engine stats");
            }
        }
    }
}

/// A table built from `r` by one handle, into `buckets` buckets.
fn table(r: &Relation, buckets: usize) -> HashTable {
    let ht = HashTable::with_buckets(buckets);
    let mut h = ht.build_handle();
    for t in &r.tuples {
        h.insert(t.key, t.payload);
    }
    drop(h);
    ht
}

#[test]
fn fk_uniform_probes_cached_and_huge_header_tables() {
    kernel_runs();
    // 2^12 tuples fit in L2; 2^17 have 4 MiB of headers, which look ahead.
    for log2 in [12, 17] {
        let r = Relation::dense_unique(1 << log2, 3);
        let ht = HashTable::build_serial(&r);
        assert_eq!(ht.headers_huge(), log2 == 17);
        let s = Relation::fk_uniform(&r, 5000, 4);
        for scan_all in [false, true] {
            check(&format!("fk 2^{log2}"), &ht, &s, scan_all);
        }
    }
}

#[test]
fn all_miss_probes() {
    kernel_runs();
    let r = Relation::dense_unique(1 << 12, 5);
    let ht = HashTable::build_serial(&r);
    let s = Relation::from_tuples((0..5000u64).map(|i| Tuple::new(1_000_000 + i, i)).collect());
    check("all miss", &ht, &s, false);
}

#[test]
fn duplicate_heavy_build_with_and_without_scan_all() {
    kernel_runs();
    // Key k is stored k % 13 times: duplicates share header slots (two or
    // more matching slots in one node) and spill into overflow nodes.
    let tuples = (1..=600u64).flat_map(|k| (0..k % 13).map(move |d| Tuple::new(k, k * 100 + d)));
    let r = Relation::from_tuples(tuples.collect());
    let ht = HashTable::build_serial(&r);
    let s = Relation::from_tuples(
        (0..5000u64).map(|i| Tuple::new(1 + i.wrapping_mul(7919) % 700, i)).collect(),
    );
    for scan_all in [false, true] {
        check("duplicates", &ht, &s, scan_all);
    }
}

#[test]
fn zipf_one_probes() {
    kernel_runs();
    let r = Relation::dense_unique(1 << 12, 7);
    let ht = HashTable::build_serial(&r);
    let s = Relation::zipf(5000, 1 << 12, 1.0, 8);
    check("zipf 1", &ht, &s, false);
}

#[test]
fn fig3_table_with_three_node_chains() {
    kernel_runs();
    // n tuples in n / 8 buckets: 8 per bucket, 3 nodes per chain.
    let n = 1 << 12;
    let r = Relation::dense_unique(n, 9);
    let ht = table(&r, n / 8);
    let s = Relation::fk_uniform(&r, 5000, 10);
    for scan_all in [false, true] {
        check("fig 3, 8x over-occupancy", &ht, &s, scan_all);
    }
}

#[test]
fn table_after_a_latch_free_mutation_epoch() {
    kernel_runs();
    let n = 1 << 12;
    let r = Relation::dense_unique(n, 11);
    let ht = HashTable::build_serial(&r);
    // Upserts of new keys and inserts prepend fresh nodes; deletes leave
    // tombstones in frozen slots (what `write_mix` probes).
    let batches = [
        (MutateKind::Upsert, (n as u64 / 2..n as u64 + 800).collect::<Vec<_>>()),
        (MutateKind::Insert, (1..400u64).map(|k| k * 5).collect()),
        (MutateKind::Delete, (1..600u64).map(|k| k * 3).collect()),
    ];
    for (kind, keys) in batches {
        let rel = Relation::from_tuples(keys.into_iter().map(|k| Tuple::new(k, k + 1)).collect());
        mutate(&ht, &rel, Technique::Amac, &MutateConfig { kind, ..Default::default() });
    }
    let s = Relation::from_tuples(
        (0..5000u64)
            .map(|i| Tuple::new(1 + i.wrapping_mul(104_729) % (n as u64 + 900), i))
            .collect(),
    );
    for scan_all in [false, true] {
        check("after mutate", &ht, &s, scan_all);
    }
}
