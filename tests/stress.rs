//! Failure-injection and adversarial-workload stress tests: the inputs
//! most likely to break an interleaved executor — latch storms, maximal
//! chain collisions, degenerate structures, mixed concurrent phases.

use amac_suite::engine::{Technique, TuningParams};
use amac_suite::hashtable::{AggTable, HashTable};
use amac_suite::ops::groupby::{groupby, GroupByConfig};
use amac_suite::ops::join::{build, probe, BuildConfig, BuildOp, ProbeConfig};
use amac_suite::ops::parallel::groupby_mt_rt;
use amac_suite::runtime::{execute, MorselConfig};
use amac_suite::workload::{Relation, Tuple};

/// Latch storm: every tuple targets ONE bucket, every technique, with
/// maximal in-flight pressure. The whole in-flight window conflicts on
/// one latch continuously.
#[test]
fn single_bucket_latch_storm() {
    let tuples: Vec<Tuple> = (0..20_000u64).map(|i| Tuple::new(7, i)).collect();
    let rel = Relation::from_tuples(tuples);
    for t in Technique::ALL {
        let table = AggTable::with_buckets(1);
        let cfg = GroupByConfig { params: TuningParams::with_in_flight(32), ..Default::default() };
        let out = groupby(&table, &rel, t, &cfg);
        assert_eq!(out.tuples, 20_000, "{t}");
        let a = table.get(7).unwrap();
        assert_eq!(a.count, 20_000, "{t}");
        assert_eq!(a.sum, (0..20_000u64).sum::<u64>(), "{t}");
    }
}

/// Concurrent latch storm: 4 threads × 4 techniques hammer two groups.
#[test]
fn multithreaded_two_group_storm() {
    for t in Technique::ALL {
        let table = AggTable::with_buckets(1);
        let tuples: Vec<Tuple> = (0..24_000u64).map(|i| Tuple::new(i % 2, 1)).collect();
        let rel = Relation::from_tuples(tuples);
        let out =
            groupby_mt_rt(&table, &rel, t, &Default::default(), &MorselConfig::with_threads(4));
        assert_eq!(out.stats.lookups, 24_000, "{t}");
        assert_eq!(table.get(0).unwrap().count, 12_000, "{t}");
        assert_eq!(table.get(1).unwrap().count, 12_000, "{t}");
    }
}

/// All keys collide into one hash chain of maximal length; probes must
/// walk ~n nodes (the most extreme over-length lookup possible).
#[test]
fn one_chain_table_probe() {
    let n = 4_000u64;
    let ht = HashTable::with_buckets(1);
    {
        let mut h = ht.build_handle();
        for k in 0..n {
            h.insert(k, k * 2);
        }
    }
    let probes = Relation::from_tuples(vec![
        Tuple::new(0, 0),
        Tuple::new(n - 1, 0),
        Tuple::new(n / 2, 0),
        Tuple::new(n + 100, 0), // miss walks the full chain
    ]);
    for t in Technique::ALL {
        let cfg = ProbeConfig { scan_all: true, materialize: false, ..Default::default() };
        let out = probe(&ht, &probes, t, &cfg);
        assert_eq!(out.matches, 3, "{t}");
        assert_eq!(out.checksum, (n - 1) * 2 + n, "{t}");
    }
}

/// Build under continuous contention: every thread inserts the same hot
/// key plus private keys; table contents must be exact for every
/// technique.
#[test]
fn contended_build_is_exact() {
    for t in Technique::ALL {
        let ht = HashTable::with_buckets(64);
        let mk = |tid: u64| -> Relation {
            Relation::from_tuples(
                (0..5000u64)
                    .map(|i| {
                        if i % 4 == 0 {
                            Tuple::new(42, tid * 100_000 + i) // hot key
                        } else {
                            // offset by (tid + 1) so thread 0's private keys
                            // cannot collide with the hot key 42
                            Tuple::new((tid + 1) * 1_000_000 + i, i)
                        }
                    })
                    .collect(),
            )
        };
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let ht = &ht;
                let rel = mk(tid);
                s.spawn(move || {
                    build(ht, &rel, t, &BuildConfig::default());
                });
            }
        });
        assert_eq!(ht.len(), 20_000, "{t}");
        assert_eq!(ht.lookup_all(42).len(), 5_000, "{t}: hot key count");
    }
}

/// Degenerate in-flight widths: M larger than input, M = input, M = 1,
/// across a latched operator.
#[test]
fn extreme_widths_on_latched_op() {
    let rel = Relation::from_tuples((0..100u64).map(|i| Tuple::new(i % 5, i)).collect());
    for m in [1usize, 99, 100, 101, 1000] {
        for t in Technique::ALL {
            let table = AggTable::with_buckets(2);
            let cfg =
                GroupByConfig { params: TuningParams::with_in_flight(m), ..Default::default() };
            let out = groupby(&table, &rel, t, &cfg);
            assert_eq!(out.tuples, 100, "{t} M={m}");
            assert_eq!(table.group_count(), 5, "{t} M={m}");
        }
    }
}

/// Mixed concurrent phases: builders and group-by writers run on
/// *different* structures simultaneously (checks nothing global is
/// assumed by the executors).
#[test]
fn independent_structures_in_parallel() {
    let r = Relation::dense_unique(20_000, 3);
    let g = Relation::from_tuples((0..20_000u64).map(|i| Tuple::new(i % 100, i)).collect());
    let ht = HashTable::for_tuples(r.len());
    let agg = AggTable::for_groups(100);
    std::thread::scope(|s| {
        let (ht, agg, r, g) = (&ht, &agg, &r, &g);
        s.spawn(move || {
            let (rt, cfg) = (MorselConfig::with_threads(2), BuildConfig::default());
            execute(&r.tuples, Technique::Amac, cfg.params, 1, &rt, |_| {
                BuildOp::new(ht, &cfg.exec())
            });
        });
        s.spawn(move || {
            let rt = MorselConfig::with_threads(2);
            groupby_mt_rt(agg, g, Technique::Amac, &Default::default(), &rt);
        });
    });
    assert_eq!(ht.len(), 20_000);
    assert_eq!(agg.group_count(), 100);
    for k in 0..100u64 {
        assert_eq!(agg.get(k).unwrap().count, 200, "group {k}");
    }
}

/// Zero-size and single-tuple boundaries across all drivers.
#[test]
fn boundary_sizes_all_ops() {
    let one = Relation::from_tuples(vec![Tuple::new(1, 10)]);
    for t in Technique::ALL {
        let ht = HashTable::with_buckets(4);
        build(&ht, &one, t, &BuildConfig::default());
        assert_eq!(ht.len(), 1, "{t}");
        let out = probe(&ht, &one, t, &ProbeConfig::default());
        assert_eq!(out.matches, 1, "{t}");
        let empty = Relation::default();
        let out = probe(&ht, &empty, t, &ProbeConfig::default());
        assert_eq!(out.matches, 0, "{t}");
    }
}
