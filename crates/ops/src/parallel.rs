//! Multi-threaded drivers for the scalability experiments (Figs. 7–8,
//! Table 4), built on the morsel-driven runtime.
//!
//! The paper assigns each thread one contiguous chunk of the input
//! ("we perform the experiment by assigning software threads first to
//! physical cores", §5.1). These drivers instead dispatch through
//! [`amac_runtime`]: per-thread ranges are consumed in small morsels, idle
//! threads steal from the fullest range, and each worker's AMAC window
//! survives morsel boundaries — so skewed inputs no longer serialize on
//! the unlucky chunk. Pass [`MorselConfig::static_chunks`] to get the
//! paper's static behaviour back (that is also the baseline every
//! morsel-vs-static bench compares against).
//!
//! Each driver is `*_mt_rt(.., &MorselConfig)`
//! ([`MorselConfig::with_threads`] for "just N threads"), returning
//! per-thread observability in [`MtOutput::report`] — including the
//! merged structured trace when the operator's config sets `trace`.
//! Throughput is `|S| / wall_time` over the whole fan-out, the paper's
//! `|S|/probeExecutionTime`. An operator without a driver here (build,
//! and the one ordered-index search op, [`SearchOp`](crate::search::SearchOp),
//! over any of the three structures) runs on the morsel runtime by handing
//! its op to [`amac_runtime::execute`] directly.

use crate::join::auto_chain_estimate;
use amac::engine::{EngineStats, Technique};
use amac_hashtable::{AggTable, HashTable};
use amac_runtime::{execute, MorselConfig, RunReport};
use amac_skiplist::SkipList;
use amac_workload::Relation;

pub use amac_runtime::Scheduling;

/// Result of a multi-threaded run.
#[derive(Debug, Clone, Default)]
pub struct MtOutput {
    /// Tuples processed (across threads).
    pub tuples: u64,
    /// Driver-dependent success count: matches found (probe/search), keys
    /// inserted (insert), tuples aggregated (group-by); 0 for build.
    pub matches: u64,
    /// Order-independent checksum (probe/search drivers).
    pub checksum: u64,
    /// Merged executor counters.
    pub stats: EngineStats,
    /// Wall time of the whole parallel section.
    pub seconds: f64,
    /// Tuples per second.
    pub throughput: f64,
    /// Per-thread observability: busy/finish times, morsels, steals and a
    /// morsel latency histogram.
    pub report: RunReport,
}

impl MtOutput {
    fn from_report(report: RunReport) -> MtOutput {
        MtOutput {
            tuples: report.tuples,
            stats: report.stats,
            seconds: report.seconds,
            throughput: report.throughput(),
            report,
            ..Default::default()
        }
    }
}

/// Multi-threaded hash-table probe (the paper's scalability workload).
///
/// Materialization is disabled (morsel order is not input order). Under
/// AMAC each worker's window looks ahead inside every morsel when the
/// table's headers span a huge page (see `amac::engine`'s "Lookahead"),
/// so a morsel's headers past its first `M` are requested before their
/// lookups start; GP, SPP and the baseline request none early. On a plain
/// context each morsel goes to [`ProbeOp`](crate::join::ProbeOp)'s batch
/// stage where it can run (see `amac::engine`'s "One mode per call").
pub fn probe_mt_rt(
    ht: &HashTable,
    s: &Relation,
    technique: Technique,
    cfg: &crate::join::ProbeConfig,
    rt: &MorselConfig,
) -> MtOutput {
    let cfg = crate::join::ProbeConfig { materialize: false, ..cfg.clone() };
    let run = execute(&s.tuples, technique, cfg.params, cfg.stages(ht), rt, |_tid| {
        crate::traced(crate::join::ProbeOp::new(ht, &cfg, 0), cfg.trace)
    });
    let mut out = MtOutput::from_report(run.report);
    for op in &run.ops {
        out.matches += op.matches();
        out.checksum = out.checksum.wrapping_add(op.checksum());
    }
    out
}

/// Multi-threaded group-by.
pub fn groupby_mt_rt(
    table: &AggTable,
    input: &Relation,
    technique: Technique,
    cfg: &crate::groupby::GroupByConfig,
    rt: &MorselConfig,
) -> MtOutput {
    let run = execute(&input.tuples, technique, cfg.params, crate::groupby::STAGES, rt, |_tid| {
        crate::traced(crate::groupby::GroupByOp::new(table, &cfg.exec()), cfg.trace)
    });
    let mut out = MtOutput::from_report(run.report);
    out.matches = run.ops.iter().map(|op| op.tuples()).sum();
    out
}

/// An [`MtOutput`] plus pipeline-shape evidence, returned by the fused
/// and two-phase multi-threaded pipeline drivers.
#[derive(Debug, Clone, Default)]
pub struct MtPipeline {
    /// The underlying parallel-run result; `matches` counts tuples that
    /// reached the terminal operator (aggregated tuples / final joins).
    pub out: MtOutput,
    /// First-stage join matches (before the filter), across threads.
    pub matched: u64,
    /// Bytes materialized between operators (0 for fused plans).
    pub intermediate_bytes: u64,
    /// Input passes over tuple data: 1 for fused, 2 for two-phase.
    pub passes: u32,
}

/// Multi-threaded **fused** probe→filter→group-by on the morsel runtime:
/// every worker owns one fused op whose single AMAC window spans both
/// operators and survives morsel boundaries ([`amac::engine::AmacSession`]).
pub fn probe_groupby_mt_rt(
    ht: &HashTable,
    table: &AggTable,
    s: &Relation,
    technique: Technique,
    cfg: &crate::pipeline::PipelineConfig,
    rt: &MorselConfig,
) -> MtPipeline {
    let n = auto_chain_estimate(ht) + crate::groupby::STAGES;
    let run = execute(&s.tuples, technique, cfg.params, n, rt, |_tid| {
        crate::traced(crate::pipeline::fused_probe_groupby_op(ht, table, cfg), cfg.trace)
    });
    let mut res = MtPipeline { passes: 1, ..Default::default() };
    let mut out = MtOutput::from_report(run.report);
    for op in &run.ops {
        res.matched += op.up().matches();
        out.matches += op.down().tuples();
    }
    res.out = out;
    res
}

/// Multi-threaded **two-phase** reference for [`probe_groupby_mt_rt`]:
/// phase 1 probes and materializes each worker's filtered join output,
/// phase 2 re-reads the concatenated intermediate into a parallel
/// group-by. Same semantics, one extra pass and `16 × |intermediate|`
/// bytes of traffic.
pub fn probe_groupby_two_phase_mt_rt(
    ht: &HashTable,
    table: &AggTable,
    s: &Relation,
    technique: Technique,
    cfg: &crate::pipeline::PipelineConfig,
    rt: &MorselConfig,
) -> MtPipeline {
    let run1 = execute(&s.tuples, technique, cfg.params, auto_chain_estimate(ht), rt, |_tid| {
        crate::traced(crate::pipeline::materializing_probe_op(ht, cfg), cfg.trace)
    });
    let mut matched = 0u64;
    let mut mid = Vec::new();
    for op in run1.ops {
        matched += op.pipe().matches();
        mid.extend(op.into_sink().out);
    }
    let mid = Relation::from_tuples(mid);
    let gb = groupby_mt_rt(table, &mid, technique, &cfg.groupby(), rt);
    let mut report = run1.report;
    report.absorb(&gb.report);
    let mut out = MtOutput::from_report(report);
    out.matches = gb.matches;
    // Throughput is input tuples over the total (both-phase) wall time:
    // the absorbed report counts the intermediate re-read in its tuple
    // total, but that re-read is the plan's overhead, not extra input —
    // leaving it in would overstate the two-phase plan exactly when the
    // intermediate is largest.
    out.tuples = s.len() as u64;
    out.throughput = if out.seconds > 0.0 { out.tuples as f64 / out.seconds } else { 0.0 };
    MtPipeline { out, matched, intermediate_bytes: mid.bytes() as u64, passes: 2 }
}

/// Multi-threaded skip-list insert.
pub fn skip_insert_mt_rt(
    list: &SkipList,
    input: &Relation,
    technique: Technique,
    cfg: &crate::skiplist::SkipConfig,
    rt: &MorselConfig,
) -> MtOutput {
    let n = crate::skiplist::insert_budget(cfg, input.len());
    let run = execute(&input.tuples, technique, cfg.params, n, rt, |tid| {
        crate::skiplist::SkipInsertOp::new(list, 0x51EE9 + tid as u64)
    });
    let mut out = MtOutput::from_report(run.report);
    out.matches = run.ops.iter().map(|op| op.inserted()).sum();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::ProbeConfig;
    use amac_workload::Tuple;

    #[test]
    fn probe_mt_matches_single_thread() {
        let r = Relation::dense_unique(8192, 81);
        let s = Relation::fk_uniform(&r, 30_000, 82);
        let ht = HashTable::build_serial(&r);
        let st = crate::join::probe(
            &ht,
            &s,
            Technique::Amac,
            &ProbeConfig { materialize: false, ..Default::default() },
        );
        for threads in [1, 2, 4] {
            for t in [Technique::Baseline, Technique::Amac] {
                let rt = MorselConfig::with_threads(threads);
                let mt = probe_mt_rt(&ht, &s, t, &ProbeConfig::default(), &rt);
                assert_eq!(mt.matches, st.matches, "{t}/{threads}t");
                assert_eq!(mt.checksum, st.checksum, "{t}/{threads}t");
                assert!(mt.throughput > 0.0);
                assert_eq!(mt.report.per_thread.len(), threads);
            }
        }
    }

    #[test]
    fn probe_mt_all_schedulings_agree() {
        let r = Relation::dense_unique(4096, 91);
        let s = Relation::fk_uniform(&r, 20_000, 92);
        let ht = HashTable::build_serial(&r);
        let mut reference = None;
        for scheduling in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
            let rt = MorselConfig { threads: 4, morsel_tuples: 1024, scheduling };
            let mt = probe_mt_rt(&ht, &s, Technique::Amac, &ProbeConfig::default(), &rt);
            assert_eq!(mt.matches, s.len() as u64, "{scheduling:?}");
            match reference {
                None => reference = Some(mt.checksum),
                Some(c) => assert_eq!(mt.checksum, c, "{scheduling:?}"),
            }
        }
    }

    #[test]
    fn build_mt_all_techniques_complete_table() {
        let r = Relation::zipf(30_000, 5_000, 0.7, 83);
        let cfg = crate::join::BuildConfig::default();
        for t in Technique::ALL {
            let ht = HashTable::for_tuples(r.len());
            let out =
                execute(&r.tuples, t, cfg.params, 1, &MorselConfig::with_threads(4), |_tid| {
                    crate::join::BuildOp::new(&ht, &cfg.exec())
                });
            assert_eq!(out.report.stats.lookups, r.len() as u64, "{t}");
            assert_eq!(ht.len(), r.len(), "{t}");
        }
    }

    #[test]
    fn groupby_mt_aggregates_exactly() {
        use amac_hashtable::agg::AggValues;
        use std::collections::HashMap;
        let input = amac_workload::GroupByInput::zipf(128, 40_000, 0.9, 85);
        let mut model: HashMap<u64, AggValues> = HashMap::new();
        for t in &input.relation.tuples {
            model
                .entry(t.key)
                .and_modify(|a| a.update(t.payload))
                .or_insert_with(|| AggValues::first(t.payload));
        }
        for tech in Technique::ALL {
            let table = AggTable::for_groups(input.groups);
            let rt = MorselConfig::with_threads(4);
            let out = groupby_mt_rt(&table, &input.relation, tech, &Default::default(), &rt);
            assert_eq!(out.stats.lookups, input.len() as u64, "{tech}");
            assert_eq!(out.matches, input.len() as u64, "{tech}");
            assert_eq!(table.group_count(), model.len(), "{tech}");
            for (k, v) in &model {
                assert_eq!(table.get(*k).as_ref(), Some(v), "{tech}: group {k}");
            }
        }
    }

    #[test]
    fn skip_insert_mt_no_lost_keys() {
        let rel = Relation::sparse_unique(20_000, 87);
        for t in [Technique::Baseline, Technique::Amac] {
            let list = SkipList::new();
            let rt = MorselConfig::with_threads(4);
            let out = skip_insert_mt_rt(&list, &rel, t, &Default::default(), &rt);
            assert_eq!(out.matches, 20_000, "{t}: every key inserted");
            assert_eq!(list.len(), 20_000, "{t}");
            let items = list.items();
            assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "{t}: order broken");
        }
    }

    /// The one search op at 4 threads on the morsel runtime finds what
    /// the one-thread run finds, with its checksum.
    fn search_mt_matches_single_thread<'i, C>(index: &'i C::Index, probes: &Relation) -> u64
    where
        C: amac_mem::Cursor<'i>,
        C::Index: Sync,
    {
        use crate::search::{search, SearchOp};
        let params = Default::default();
        let st = search::<C>(index, probes, Technique::Amac, params, 1, false);
        let rt = MorselConfig::with_threads(4);
        let mt = execute(&probes.tuples, Technique::Amac, params, 1, &rt, |_tid| {
            SearchOp::<C>::new(index, false, 0)
        });
        assert_eq!(mt.ops.iter().map(|op| op.found()).sum::<u64>(), st.found);
        let checksum = mt.ops.iter().fold(0u64, |c, op| c.wrapping_add(op.checksum()));
        assert_eq!(checksum, st.checksum);
        st.found
    }

    #[test]
    fn bst_search_mt_matches_single_thread() {
        let rel = Relation::sparse_unique(10_000, 91);
        let tree = amac_tree::Bst::build(&rel);
        let found =
            search_mt_matches_single_thread::<amac_tree::BstCursor>(&tree, &rel.shuffled(92));
        assert_eq!(found, 10_000);
    }

    #[test]
    fn skip_search_mt_finds_all_inserted() {
        let rel = Relation::sparse_unique(10_000, 93);
        let list = SkipList::new();
        crate::skiplist::skip_insert(&list, &rel, Technique::Amac, &Default::default(), 5);
        let found =
            search_mt_matches_single_thread::<amac_skiplist::SkipCursor>(&list, &rel.shuffled(94));
        assert_eq!(found, 10_000);
    }

    #[test]
    fn btree_search_mt_matches_single_thread() {
        let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k * 3, k)).collect();
        let tree = amac_btree::BPlusTree::from_sorted(&pairs);
        let probes = Relation::from_tuples((0..30_000u64).map(|i| Tuple::new(i, 0)).collect());
        let found = search_mt_matches_single_thread::<amac_btree::BTreeCursor>(&tree, &probes);
        assert_eq!(found, 10_000);
    }

    fn pipeline_lab(n_dim: usize, n_fact: usize, groups: u64, seed: u64) -> (HashTable, Relation) {
        let dim = Relation::fk_dimension(n_dim, groups, seed);
        let fact = Relation::fk_uniform(&dim, n_fact, seed ^ 0xFAC7);
        (HashTable::build_serial(&dim), fact)
    }

    #[test]
    fn fused_groupby_mt_matches_two_phase_and_single_thread() {
        use amac_hashtable::AggTable;
        let (ht, fact) = pipeline_lab(1024, 20_000, 32, 0x71);
        let cfg = crate::pipeline::PipelineConfig {
            filter: Some(amac_workload::FilterSpec::selectivity(0.5)),
            ..Default::default()
        };
        let st_table = AggTable::for_groups(32);
        let st = crate::pipeline::probe_then_groupby(&ht, &st_table, &fact, Technique::Amac, &cfg);
        let mut st_groups = st_table.groups();
        st_groups.sort_by_key(|(k, _)| *k);
        for threads in [1, 2, 4] {
            let table = AggTable::for_groups(32);
            let rt = MorselConfig { threads, morsel_tuples: 1024, ..Default::default() };
            let mt = probe_groupby_mt_rt(&ht, &table, &fact, Technique::Amac, &cfg, &rt);
            assert_eq!(mt.out.matches, st.aggregated, "{threads}t: aggregated count");
            assert_eq!(mt.matched, st.matched, "{threads}t: probe matches");
            assert_eq!(mt.passes, 1);
            assert_eq!(mt.intermediate_bytes, 0);
            let mut groups = table.groups();
            groups.sort_by_key(|(k, _)| *k);
            assert_eq!(groups, st_groups, "{threads}t: aggregates diverge");

            let table2 = AggTable::for_groups(32);
            let tp = probe_groupby_two_phase_mt_rt(&ht, &table2, &fact, Technique::Amac, &cfg, &rt);
            assert_eq!(tp.out.matches, st.aggregated, "{threads}t: two-phase count");
            assert_eq!(tp.passes, 2);
            assert_eq!(tp.intermediate_bytes, st.aggregated * 16);
            let mut groups2 = table2.groups();
            groups2.sort_by_key(|(k, _)| *k);
            assert_eq!(groups2, st_groups, "{threads}t: two-phase aggregates diverge");
        }
    }

    #[test]
    fn fused_drivers_empty_relation() {
        use amac_hashtable::AggTable;
        let (ht, _fact) = pipeline_lab(64, 1, 4, 0x91);
        let table = AggTable::for_groups(4);
        let cfg = crate::pipeline::PipelineConfig::default();
        let rt = MorselConfig::with_threads(4);
        let mt = probe_groupby_mt_rt(&ht, &table, &Relation::default(), Technique::Amac, &cfg, &rt);
        assert_eq!(mt.out.matches, 0);
        assert_eq!(mt.matched, 0);
        assert_eq!(table.group_count(), 0);
        let tp = probe_groupby_two_phase_mt_rt(
            &ht,
            &table,
            &Relation::default(),
            Technique::Amac,
            &cfg,
            &rt,
        );
        assert_eq!(tp.out.matches, 0);
        assert_eq!(tp.intermediate_bytes, 0);
    }

    #[test]
    fn fused_drivers_single_morsel_input() {
        use amac_hashtable::AggTable;
        // Input smaller than one morsel: the whole run is a single feed.
        let (ht, fact) = pipeline_lab(256, 500, 8, 0x92);
        let cfg = crate::pipeline::PipelineConfig::default();
        let st_table = AggTable::for_groups(8);
        let st = crate::pipeline::probe_then_groupby(&ht, &st_table, &fact, Technique::Amac, &cfg);
        let table = AggTable::for_groups(8);
        let rt = MorselConfig { threads: 4, morsel_tuples: 32 * 1024, ..Default::default() };
        let mt = probe_groupby_mt_rt(&ht, &table, &fact, Technique::Amac, &cfg, &rt);
        assert_eq!(mt.out.matches, st.aggregated);
        // The dispatcher still cuts one range per thread, but no range
        // spans more than one morsel.
        assert!(
            (1..=4).contains(&mt.out.report.morsels()),
            "got {} morsels for a sub-morsel input",
            mt.out.report.morsels()
        );
        let mut a = table.groups();
        let mut b = st_table.groups();
        a.sort_by_key(|(k, _)| *k);
        b.sort_by_key(|(k, _)| *k);
        assert_eq!(a, b);
    }

    #[test]
    fn fused_drivers_window_larger_than_input() {
        use amac::engine::TuningParams;
        use amac_hashtable::AggTable;
        // M = 64 with 5 input tuples: the window can never fill.
        let (ht, _) = pipeline_lab(64, 1, 4, 0x93);
        let fact = Relation::fk_uniform(&Relation::dense_unique(64, 0x94), 5, 0x95);
        let cfg = crate::pipeline::PipelineConfig {
            params: TuningParams::with_in_flight(64),
            ..Default::default()
        };
        let table = AggTable::for_groups(4);
        let rt = MorselConfig::with_threads(2);
        let mt = probe_groupby_mt_rt(&ht, &table, &fact, Technique::Amac, &cfg, &rt);
        assert_eq!(mt.matched, 5, "all 5 probes match despite M > |S|");
        assert_eq!(mt.out.matches, 5);
        assert_eq!(mt.out.report.in_flight, 64);
    }

    #[test]
    fn more_threads_than_tuples() {
        let r = Relation::dense_unique(8, 89);
        let s = Relation::fk_uniform(&r, 4, 90);
        let ht = HashTable::build_serial(&r);
        let rt = MorselConfig::with_threads(16);
        let mt = probe_mt_rt(&ht, &s, Technique::Amac, &ProbeConfig::default(), &rt);
        assert_eq!(mt.matches, 4);
    }
}
