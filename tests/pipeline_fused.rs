//! Acceptance tests for the fused multi-operator pipelines: fused
//! probe→filter→group-by must produce **bit-identical** aggregates to the
//! two-phase materialized reference across uniform and Zipf(θ=1) inputs,
//! single- and multi-threaded, under every scheduling discipline.

use amac_suite::engine::{Technique, TuningParams};
use amac_suite::hashtable::agg::AggValues;
use amac_suite::hashtable::{AggTable, HashTable};
use amac_suite::ops::parallel::{
    probe_groupby_mt_rt, probe_groupby_two_phase_mt_rt, probe_probe_mt_rt,
};
use amac_suite::ops::pipeline::{
    probe_then_groupby, probe_then_groupby_two_phase, probe_then_probe, probe_then_probe_two_phase,
    PipelineConfig,
};
use amac_suite::runtime::{MorselConfig, Scheduling};
use amac_suite::workload::{FilterSpec, Relation};
use std::collections::HashMap;

const GROUPS: u64 = 128;

fn lab(n_dim: usize, seed: u64) -> (HashTable, Relation) {
    let dim = Relation::fk_dimension(n_dim, GROUPS, seed);
    let ht = HashTable::build_serial(&dim);
    (ht, dim)
}

fn uniform_fact(dim: &Relation, n: usize, seed: u64) -> Relation {
    Relation::fk_uniform(dim, n, seed)
}

fn zipf_fact(dim: &Relation, n: usize, seed: u64) -> Relation {
    // Zipf(θ=1) keys over the dimension's dense 1..=|dim| key domain.
    Relation::zipf(n, dim.len() as u64, 1.0, seed)
}

fn model(dim: &Relation, fact: &Relation, filter: Option<FilterSpec>) -> HashMap<u64, AggValues> {
    let by_key: HashMap<u64, u64> = dim.tuples.iter().map(|t| (t.key, t.payload)).collect();
    let mut m: HashMap<u64, AggValues> = HashMap::new();
    for t in &fact.tuples {
        let Some(&group) = by_key.get(&t.key) else { continue };
        if let Some(spec) = filter {
            if !spec.passes(t.payload) {
                continue;
            }
        }
        m.entry(group)
            .and_modify(|a| a.update(t.payload))
            .or_insert_with(|| AggValues::first(t.payload));
    }
    m
}

fn snapshot(table: &AggTable) -> Vec<(u64, AggValues)> {
    let mut g = table.groups();
    g.sort_by_key(|(k, _)| *k);
    g
}

#[test]
fn fused_equals_two_phase_uniform_and_zipf_all_techniques() {
    let (ht, dim) = lab(4096, 0xA1);
    let facts = [uniform_fact(&dim, 30_000, 0xA2), zipf_fact(&dim, 30_000, 0xA3)];
    for fact in &facts {
        for filter in [None, Some(FilterSpec::selectivity(0.35))] {
            let want = model(&dim, fact, filter);
            let cfg = PipelineConfig { filter, ..Default::default() };
            for technique in Technique::ALL {
                let t_fused = AggTable::for_groups(GROUPS as usize);
                let f = probe_then_groupby(&ht, &t_fused, fact, technique, &cfg);
                let t_two = AggTable::for_groups(GROUPS as usize);
                let t = probe_then_groupby_two_phase(&ht, &t_two, fact, technique, &cfg);
                assert_eq!(f.aggregated, t.aggregated, "{technique}");
                assert_eq!(
                    snapshot(&t_fused),
                    snapshot(&t_two),
                    "{technique}: fused vs two-phase aggregates diverge"
                );
                let snap = snapshot(&t_fused);
                assert_eq!(snap.len(), want.len(), "{technique}: group count");
                for (k, v) in &snap {
                    assert_eq!(want.get(k), Some(v), "{technique}: group {k}");
                }
            }
        }
    }
}

#[test]
fn fused_mt_is_deterministic_and_equals_reference() {
    let (ht, dim) = lab(2048, 0xB1);
    for (tag, fact) in
        [("uniform", uniform_fact(&dim, 40_000, 0xB2)), ("zipf1", zipf_fact(&dim, 40_000, 0xB3))]
    {
        let cfg =
            PipelineConfig { filter: Some(FilterSpec::selectivity(0.6)), ..Default::default() };
        // Single-threaded fused reference.
        let t_ref = AggTable::for_groups(GROUPS as usize);
        let st = probe_then_groupby(&ht, &t_ref, &fact, Technique::Amac, &cfg);
        let want = snapshot(&t_ref);
        for threads in [1, 2, 4] {
            for scheduling in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
                let rt = MorselConfig { threads, morsel_tuples: 1024, scheduling };
                let table = AggTable::for_groups(GROUPS as usize);
                let mt = probe_groupby_mt_rt(&ht, &table, &fact, Technique::Amac, &cfg, &rt);
                assert_eq!(mt.out.matches, st.aggregated, "{tag}/{threads}t/{scheduling:?}");
                assert_eq!(
                    snapshot(&table),
                    want,
                    "{tag}/{threads}t/{scheduling:?}: aggregates diverge"
                );
                let table2 = AggTable::for_groups(GROUPS as usize);
                let tp =
                    probe_groupby_two_phase_mt_rt(&ht, &table2, &fact, Technique::Amac, &cfg, &rt);
                assert_eq!(snapshot(&table2), want, "{tag}/{threads}t/{scheduling:?}: two-phase");
                assert_eq!(tp.passes, 2);
                assert_eq!(tp.intermediate_bytes, st.aggregated * 16);
            }
        }
    }
}

#[test]
fn join_chain_fused_equals_two_phase_st_and_mt() {
    let r2 = Relation::fk_dimension(GROUPS as usize, 1 << 18, 0xC1);
    let r1 = Relation::fk_dimension(2048, GROUPS, 0xC2);
    let s = Relation::fk_uniform(&r1, 25_000, 0xC3);
    let ht1 = HashTable::build_serial(&r1);
    let ht2 = HashTable::build_serial(&r2);
    let cfg = PipelineConfig { filter: Some(FilterSpec::selectivity(0.5)), ..Default::default() };
    let mut reference = None;
    for technique in Technique::ALL {
        let f = probe_then_probe(&ht1, &ht2, &s, technique, &cfg);
        let t = probe_then_probe_two_phase(&ht1, &ht2, &s, technique, &cfg);
        assert_eq!(f.aggregated, t.aggregated, "{technique}");
        assert_eq!(f.checksum, t.checksum, "{technique}");
        match reference {
            None => reference = Some((f.aggregated, f.checksum)),
            Some(r) => assert_eq!((f.aggregated, f.checksum), r, "{technique} diverges"),
        }
    }
    let (want_n, want_sum) = reference.unwrap();
    for threads in [1, 4] {
        let rt = MorselConfig { threads, morsel_tuples: 2048, ..Default::default() };
        let mt = probe_probe_mt_rt(&ht1, &ht2, &s, Technique::Amac, &cfg, &rt);
        assert_eq!(mt.out.matches, want_n, "{threads}t");
        assert_eq!(mt.out.checksum, want_sum, "{threads}t");
    }
}

#[test]
fn fused_window_edge_cases() {
    let (ht, dim) = lab(256, 0xD1);
    let fact = uniform_fact(&dim, 7, 0xD2);
    // M far larger than the input, single-threaded and multi-threaded.
    for m in [1, 10, 64] {
        let cfg = PipelineConfig { params: TuningParams::with_in_flight(m), ..Default::default() };
        let table = AggTable::for_groups(GROUPS as usize);
        let out = probe_then_groupby(&ht, &table, &fact, Technique::Amac, &cfg);
        assert_eq!(out.matched, 7, "M={m}");
        assert_eq!(out.aggregated, 7, "M={m}");
        let table_mt = AggTable::for_groups(GROUPS as usize);
        let mt = probe_groupby_mt_rt(
            &ht,
            &table_mt,
            &fact,
            Technique::Amac,
            &cfg,
            &MorselConfig::with_threads(4),
        );
        assert_eq!(mt.out.matches, 7, "M={m} mt");
        assert_eq!(snapshot(&table_mt), snapshot(&table), "M={m}: mt diverges");
    }
    // Empty input.
    let table = AggTable::for_groups(GROUPS as usize);
    let out = probe_then_groupby(
        &ht,
        &table,
        &Relation::default(),
        Technique::Amac,
        &PipelineConfig::default(),
    );
    assert_eq!(out.aggregated, 0);
    assert_eq!(table.group_count(), 0);
}
