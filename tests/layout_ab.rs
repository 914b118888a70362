//! Layout acceptance for the tag-probed 3-tuple/u32-index node layout:
//! it must keep visiting >= 25% fewer chain nodes per scan-all probe than
//! the seed's 2-tuple/pointer layout did on the same inputs (that
//! layout's measurements are frozen below as constants), its tag filter
//! must keep rejecting most foreign nodes, and on multi-node chains join
//! and group-by results must stay bit-identical under all four executors
//! and the morsel runtime.

use amac_suite::engine::Technique;
use amac_suite::hashtable::{AggTable, HashTable};
use amac_suite::ops::groupby::groupby;
use amac_suite::ops::join::{probe, ProbeConfig};
use amac_suite::ops::parallel::{groupby_mt_rt, probe_mt_rt};
use amac_suite::runtime::MorselConfig;
use amac_suite::workload::{GroupByInput, Relation};

/// `rel` packed at `tuples_per_bucket` average occupancy.
fn table(rel: &Relation, tuples_per_bucket: usize) -> HashTable {
    let ht = HashTable::with_buckets((rel.len() / tuples_per_bucket).max(1));
    let mut h = ht.build_handle();
    for t in &rel.tuples {
        h.insert(t.key, t.payload);
    }
    drop(h);
    ht
}

fn scan_all() -> ProbeConfig {
    ProbeConfig { materialize: false, scan_all: true, ..Default::default() }
}

#[test]
fn join_results_bit_identical_all_executors_and_runtime() {
    // 8 tuples per bucket: every scan-all probe walks a 3-node chain.
    let n = 20_000;
    let rel = Relation::dense_unique(n, 0x1A01);
    let ht = table(&rel, 8);
    let probes = rel.shuffled(0x1A02);
    let want: u64 = rel.tuples.iter().fold(0, |acc, t| acc.wrapping_add(t.payload));

    for t in Technique::ALL {
        let out = probe(&ht, &probes, t, &scan_all());
        assert_eq!(out.matches, n as u64, "{t}: every key matches once");
        assert_eq!(out.checksum, want, "{t}: checksum is the payload sum");
    }
    for threads in [1usize, 2, 4] {
        let rt = MorselConfig { threads, morsel_tuples: 1024, ..Default::default() };
        let out = probe_mt_rt(&ht, &probes, Technique::Amac, &scan_all(), &rt);
        assert_eq!((out.matches, out.checksum), (n as u64, want), "{threads}t");
    }
}

#[test]
fn groupby_results_bit_identical_all_executors_and_runtime() {
    let input = GroupByInput::zipf(96, 30_000, 0.9, 0x1A03);
    let sorted = |agg: &AggTable| {
        let mut g = agg.groups();
        g.sort_by_key(|(k, _)| *k);
        g
    };
    let reference = {
        let agg = AggTable::for_groups(96);
        groupby(&agg, &input.relation, Technique::Baseline, &Default::default());
        sorted(&agg)
    };
    for t in Technique::ALL {
        let agg = AggTable::for_groups(96);
        let out = groupby(&agg, &input.relation, t, &Default::default());
        assert_eq!(out.tuples, input.len() as u64, "{t}");
        assert_eq!(sorted(&agg), reference, "{t}: diverges across techniques");
    }
    for threads in [1usize, 2, 4] {
        let rt = MorselConfig { threads, morsel_tuples: 1024, ..Default::default() };
        let agg = AggTable::for_groups(96);
        groupby_mt_rt(&agg, &input.relation, Technique::Amac, &Default::default(), &rt);
        assert_eq!(sorted(&agg), reference, "{threads}t: diverges from single-thread");
    }
}

/// Nodes visited per lookup by the seed layout (2 tuples + 8 B `next`
/// pointer per 64 B node), measured by `bin/layout --quick --scale 15`
/// at the last commit that carried it: 16,384 dense keys, `n / (2·ff)`
/// buckets, scan-all AMAC probes, `[uniform, zipf1]` per fill factor.
const LEGACY: [(usize, [f64; 2]); 3] =
    [(2, [2.7418, 2.7772]), (4, [4.7485, 4.7302]), (8, [8.7702, 8.9933])];

#[test]
fn fat_nodes_cut_hops_at_fill_ge_2() {
    // Same relation, probe inputs and bucket counts as the frozen run.
    let n = 16_384;
    let rel = Relation::dense_unique(n, 0x01D);
    let workloads =
        [("uniform", rel.shuffled(0x02D)), ("zipf1", Relation::zipf(n, n as u64, 1.0, 0x03D))];
    for (ff, legacy) in LEGACY {
        let ht = table(&rel, 2 * ff);
        for ((wname, probes), legacy) in workloads.iter().zip(legacy) {
            let out = probe(&ht, probes, Technique::Amac, &scan_all());
            let npl = out.stats.nodes_per_lookup();
            assert!(
                npl <= 0.75 * legacy,
                "ff={ff}/{wname}: nodes/lookup {legacy:.3} -> {npl:.3} \
                 ({:.1}% reduction, need >= 25%)",
                (1.0 - npl / legacy) * 100.0
            );
        }
    }
}

#[test]
fn tag_filter_rejects_most_foreign_nodes() {
    // On long scan-all chains, almost every visited node holds no match;
    // the SWAR filter should reject the vast majority without key compares.
    let n = 20_000;
    let rel = Relation::dense_unique(n, 0x1A07);
    let ht = table(&rel, 16);
    let out = probe(&ht, &rel.shuffled(0x1A08), Technique::Amac, &scan_all());
    assert_eq!(out.matches, n as u64);
    let visited = out.stats.nodes_visited as f64;
    let rejected = out.stats.tag_rejects as f64;
    // Each scan-all probe visits ~cap(16/3) = 6 nodes and matches in one:
    // at least half of all visits must be pure tag rejects.
    assert!(rejected / visited > 0.5, "tag filter rejected only {rejected}/{visited} visits");
}
