//! The hash-join probe's batch stage against the scalar window it stands
//! in for.
//!
//! On a host with AVX-512F/DQ a plain AMAC call over a `ProbeOp` with no
//! slot live (`probe()`, each feed of the morsel runtime into an empty
//! window) runs the op's batch stage, the vector kernel
//! (`amac_hashtable::vector`); everywhere else, and under Miri, it runs
//! the engine's AMAC window. Either way its matches, checksum,
//! materialized first matches and every `EngineStats` field must equal
//! the scalar stages': a traced twin (a metered call, which never takes
//! the batch stage) and the plain stages on the reference rotation loop
//! (`run_amac_modulo`, which never asks for it). That holds on every
//! table shape a probe meets: cache-resident and huge-header tables, hits
//! and misses, duplicates inside one node, skew, 3-node chains, and a
//! table after a latch-free mutation epoch. Each shape runs at every
//! input length that splits an 8-lane group differently and at windows
//! below, at and above the vector width, single-threaded and on the
//! morsel runtime at 1 and 2 threads.

use amac::engine::{run_amac_modulo, AmacSession, EngineStats, Hooks, Technique, TuningParams};
use amac_hashtable::{vector, HashTable};
use amac_ops::join::{probe, ProbeConfig, ProbeOp};
use amac_ops::mutate::{mutate, MutateConfig, MutateKind};
use amac_ops::parallel::probe_mt_rt;
use amac_runtime::MorselConfig;
use amac_trace::Tracer;
use amac_workload::{Relation, Tuple};

/// Windows below, at and above the 8-lane width, and the paper's 10.
const WINDOWS: [usize; 5] = [1, 8, 10, 16, 33];
/// An empty input, one lookup, partial groups, and a ragged 4097.
const LENGTHS: [usize; 5] = [0, 1, 7, 9, 4097];

/// Whether a plain AMAC probe takes the vector kernel on this host, said
/// once.
fn kernel_runs() -> bool {
    let runs = vector::probe(&HashTable::with_buckets(1), &[], 1, false, None).is_some();
    if runs {
        println!("probe_vector: the AVX-512 kernel runs; checking it against the scalar window");
    } else {
        println!("probe_vector: no AVX-512F/DQ here (or Miri); checking the window against itself");
    }
    runs
}

/// A plain `probe()` agrees with its traced twin and with the plain
/// stages on `s`'s prefixes of every length, under every window, with
/// and without materialization; the morsel runtime's plain probe agrees
/// with its traced twin at 1 and 2 threads.
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
                let traced =
                    probe(ht, &s, Technique::Amac, &ProbeConfig { trace: true, ..cfg.clone() });
                let mut op = ProbeOp::new(ht, &cfg, s.len());
                let stats = run_amac_modulo(&mut op, &s.tuples, m);
                assert_eq!((got.matches, got.checksum), (op.matches(), op.checksum()), "{case}");
                assert_eq!(got.out, op.take_out(), "{case}: first matches");
                assert_eq!(got.stats, stats, "{case}: engine stats");
                assert_eq!(
                    (got.matches, got.checksum),
                    (traced.matches, traced.checksum),
                    "{case}"
                );
                assert_eq!(got.out, traced.out, "{case}: first matches, traced");
                assert_eq!(got.stats, traced.stats, "{case}: engine stats, traced");
            }
            for threads in [1, 2] {
                let cfg = ProbeConfig {
                    params: TuningParams { in_flight: m },
                    scan_all,
                    ..Default::default()
                };
                let rt = MorselConfig { morsel_tuples: 500, ..MorselConfig::with_threads(threads) };
                let case = format!("{shape}: {} probes, M = {m}, {threads} threads", s.len());
                let got = probe_mt_rt(ht, &s, Technique::Amac, &cfg, &rt);
                let traced = ProbeConfig { trace: true, ..cfg.clone() };
                let want = probe_mt_rt(ht, &s, Technique::Amac, &traced, &rt);
                assert_eq!((got.matches, got.checksum), (want.matches, want.checksum), "{case}");
                assert_eq!(got.stats, want.stats, "{case}: engine stats");
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

#[test]
fn a_session_with_slots_live_runs_scalar_feeds() {
    let kernel = kernel_runs();
    let r = Relation::dense_unique(1 << 12, 13);
    let ht = HashTable::build_serial(&r);
    let s = Relation::fk_uniform(&r, 4000, 14);
    let cfg = ProbeConfig::default();
    let m = cfg.params.in_flight;
    // Five feeds into one window: two plain into the empty window (the
    // batch stage where the kernel runs), a short traced one (scalar,
    // leaving slots live), a plain one with those slots live, and a
    // traced one, armed while they are.
    let mut op = ProbeOp::new(&ht, &cfg, s.len());
    let mut session = AmacSession::new(m);
    let mut stats = EngineStats::default();
    let cuts = [0, 1000, 2000, 2005, 3000, 4000];
    let live = if kernel { [0, 0, 5, m, m] } else { [m; 5] };
    for (i, at) in cuts.windows(2).enumerate() {
        let traced = i % 2 == 0 && i > 0;
        if traced {
            op.cx.set_tracer(Tracer::on());
        }
        session.feed(&mut op, &s.tuples[at[0]..at[1]], &mut stats);
        assert_eq!(session.in_flight(), live[i], "feed {i}");
        if traced {
            // A feed no longer than the window only starts lookups, and
            // the tracer records a load where it is waited on.
            let trace = op.cx.take_tracer();
            assert!(at[1] - at[0] <= m || !trace.is_empty(), "feed {i}: the tracer records");
        }
    }
    session.drain(&mut op, &mut stats);
    let mut scalar = ProbeOp::new(&ht, &cfg, s.len());
    let want = run_amac_modulo(&mut scalar, &s.tuples, m);
    assert_eq!((op.matches(), op.checksum()), (scalar.matches(), scalar.checksum()));
    assert_eq!(op.take_out(), scalar.take_out(), "first matches");
    assert_eq!(stats, want, "engine stats");
}
