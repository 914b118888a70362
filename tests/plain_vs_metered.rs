//! Plain and metered are one program.
//!
//! Every hash-table op writes each code stage once, generic over the
//! execution context's mode (`amac_tier::ExecCtx::metered`). `tier: None`
//! runs the plain instantiation (inlined into the executor loop),
//! `tier: Some(TierSpec::headers_near(1))` without faults runs the metered
//! one (the full lane protocol, out of line) with no observable effect
//! beyond the simulated clock. The two must agree on every output and on
//! every counter that is not simulated time.

use amac_suite::engine::{EngineStats, Technique};
use amac_suite::hashtable::agg::AggValues;
use amac_suite::hashtable::{AggTable, HashTable};
use amac_suite::mem::prefetch::PrefetchHint;
use amac_suite::ops::groupby::{groupby, GroupByConfig};
use amac_suite::ops::join::{build, probe, BuildConfig, ProbeConfig};
use amac_suite::ops::mutate::{mutate, MutateConfig, MutateKind};
use amac_suite::ops::pipeline::{probe_then_groupby, PipelineConfig};
use amac_suite::tier::TierSpec;
use amac_suite::workload::{Relation, Tuple};

const N: usize = 1 << 12;

/// The metered-but-unobservable context: a clock at 1x far latency.
fn metered() -> Option<TierSpec> {
    Some(TierSpec::headers_near(1))
}

/// `N` unique keys plus 64 copies of key 7.
fn build_side() -> Relation {
    let mut tuples = Relation::dense_unique(N, 11).tuples;
    tuples.extend((0..64).map(|i| Tuple::new(7, 10_000 + i)));
    Relation::from_tuples(tuples)
}

/// 8x over-occupied (multi-node chains), loaded serially.
fn chained_table(r: &Relation) -> HashTable {
    let ht = HashTable::with_buckets(N / 8);
    let mut h = ht.build_handle();
    for t in &r.tuples {
        h.insert(t.key, t.payload);
    }
    drop(h);
    ht
}

/// Hits (some on the duplicated key) interleaved with misses.
fn probe_side(r: &Relation) -> Relation {
    let mut tuples = Relation::fk_uniform(r, 3 * N, 12).tuples;
    for (i, t) in tuples.iter_mut().enumerate() {
        if i % 5 == 0 {
            t.key = 1_000_000 + i as u64; // not in the table
        }
    }
    Relation::from_tuples(tuples)
}

/// Every group of `agg`, by key.
fn sorted(agg: &AggTable) -> Vec<(u64, AggValues)> {
    let mut g = agg.groups();
    g.sort_unstable_by_key(|&(k, _)| k);
    g
}

/// `stats` with the simulated-time fields cleared: what is left must not
/// depend on the mode.
fn unsimulated(stats: EngineStats) -> EngineStats {
    EngineStats { sim_cycles: 0, sim_stalls: 0, ..stats }
}

#[test]
fn probe_agrees_under_every_technique() {
    let r = build_side();
    let ht = chained_table(&r);
    let s = probe_side(&r);
    for scan_all in [false, true] {
        for t in Technique::ALL {
            let plain = ProbeConfig { scan_all, ..Default::default() };
            let a = probe(&ht, &s, t, &plain);
            let b = probe(&ht, &s, t, &ProbeConfig { tier: metered(), ..plain });
            assert!(a.matches > 0 && a.matches < s.len() as u64 * 64, "{t}: hits and misses");
            assert_eq!((a.matches, a.checksum), (b.matches, b.checksum), "{t} scan_all={scan_all}");
            assert_eq!(a.out, b.out, "{t} scan_all={scan_all}: materialization");
            assert_eq!(a.stats.sim_cycles, 0, "{t}: the plain context has no clock");
            assert!(b.stats.sim_cycles > 0, "{t}: the metered one ticks");
            assert_eq!(a.stats, unsimulated(b.stats), "{t} scan_all={scan_all}: counters");
            assert!(a.stats.issued_loads > 0 && a.stats.tag_rejects > 0, "{t}: counted");
        }
    }
}

#[test]
fn hint_none_reports_no_prefetches_in_both_modes() {
    let r = build_side();
    let ht = chained_table(&r);
    let s = probe_side(&r);
    let reference = probe(&ht, &s, Technique::Amac, &ProbeConfig::default());
    assert!(reference.stats.prefetches > 0);
    for tier in [None, metered()] {
        let cfg = ProbeConfig { hint: PrefetchHint::None, tier, ..Default::default() };
        let out = probe(&ht, &s, Technique::Amac, &cfg);
        assert_eq!(out.stats.prefetches, 0, "tier {tier:?}");
        assert_eq!((out.matches, out.checksum), (reference.matches, reference.checksum));
        assert_eq!(out.stats.issued_loads, reference.stats.issued_loads, "requests still count");
    }
}

#[test]
fn mutate_agrees_for_every_kind() {
    let r = build_side();
    // Existing keys (merge / tombstone) and fresh ones (prepend / no-op).
    let mut tuples = Relation::fk_uniform(&r, N, 13).tuples;
    tuples.extend((0..N as u64 / 2).map(|i| Tuple::new(2_000_000 + i, i)));
    let input = Relation::from_tuples(tuples).shuffled(14);
    for kind in [MutateKind::Upsert, MutateKind::Insert, MutateKind::Delete] {
        for t in Technique::ALL {
            let (plain_ht, metered_ht) = (chained_table(&r), chained_table(&r));
            let plain = MutateConfig { kind, ..Default::default() };
            let a = mutate(&plain_ht, &input, t, &plain);
            let b = mutate(&metered_ht, &input, t, &MutateConfig { tier: metered(), ..plain });
            assert_eq!(
                (a.applied, a.created, a.merged, a.deleted),
                (b.applied, b.created, b.merged, b.deleted),
                "{kind:?} {t}"
            );
            assert_eq!(a.applied, input.len() as u64, "{kind:?} {t}: nothing fails");
            assert_eq!(a.wal, b.wal, "{kind:?} {t}: log");
            assert_eq!(a.stats, unsimulated(b.stats), "{kind:?} {t}: counters");
            assert_eq!(plain_ht.contents_sorted(), metered_ht.contents_sorted(), "{kind:?} {t}");
        }
    }
}

#[test]
fn groupby_agrees_under_every_technique() {
    // 512 groups in 64 buckets: chained group nodes, hot headers.
    let input = Relation::zipf(4 * N, 512, 0.75, 15);
    for t in Technique::ALL {
        let (plain_agg, metered_agg) = (AggTable::with_buckets(64), AggTable::with_buckets(64));
        let a = groupby(&plain_agg, &input, t, &GroupByConfig::default());
        let cfg = GroupByConfig { tier: metered(), ..Default::default() };
        let b = groupby(&metered_agg, &input, t, &cfg);
        assert_eq!((a.tuples, b.tuples), (input.len() as u64, input.len() as u64), "{t}");
        assert_eq!(sorted(&plain_agg), sorted(&metered_agg), "{t}: aggregates");
        assert_eq!(a.stats, unsimulated(b.stats), "{t}: counters");
        assert!(a.stats.nodes_visited > a.stats.lookups, "{t}: chains were walked");
    }
}

#[test]
fn build_agrees_under_every_technique() {
    let r = build_side();
    for t in Technique::ALL {
        let (plain_ht, metered_ht) =
            (HashTable::with_buckets(N / 8), HashTable::with_buckets(N / 8));
        let a = build(&plain_ht, &r, t, &BuildConfig::default());
        let b = build(&metered_ht, &r, t, &BuildConfig { tier: metered(), ..Default::default() });
        assert_eq!(plain_ht.contents_sorted(), metered_ht.contents_sorted(), "{t}");
        assert_eq!(plain_ht.len(), r.len(), "{t}");
        assert_eq!(a.stats, unsimulated(b.stats), "{t}: counters");
        assert_eq!(a.stats.issued_loads, r.len() as u64, "{t}: one header load per insert");
    }
}

#[test]
fn fused_pipeline_agrees_under_every_technique() {
    // Chained dimension table, fact with misses, 256 groups in 32 buckets.
    let dim = Relation::fk_dimension(N, 256, 16);
    let ht = chained_table(&dim);
    let fact = probe_side(&dim);
    for t in Technique::ALL {
        let (plain_agg, metered_agg) = (AggTable::with_buckets(32), AggTable::with_buckets(32));
        let a = probe_then_groupby(&ht, &plain_agg, &fact, t, &PipelineConfig::default());
        let cfg = PipelineConfig { tier: metered(), ..Default::default() };
        let b = probe_then_groupby(&ht, &metered_agg, &fact, t, &cfg);
        assert_eq!((a.matched, a.aggregated), (b.matched, b.aggregated), "{t}");
        assert!(a.matched > 0 && a.matched < fact.len() as u64, "{t}: hits and misses");
        assert_eq!(sorted(&plain_agg), sorted(&metered_agg), "{t}: aggregates");
        assert_eq!(a.stats, unsimulated(b.stats), "{t}: counters");
    }
}
