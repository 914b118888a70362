//! GP and SPP size their static schedules by a stage budget `N` that each
//! driver derives from its data (a probe from its table's occupancy, a
//! fused chain as the sum of its members', a mutation by kind). A driver
//! that derives a different `N` moves the schedule's counters and nothing
//! else, so the counters the schedule owns are pinned here for every
//! driver that offers GP and SPP over a hash table or a skip-list insert:
//! `stages`, `noops`, `bailouts`, `bailout_stages` and `latch_retries`.
//! The searches are pinned in `index_counters.rs`.

use amac_suite::engine::{EngineStats, Technique};
use amac_suite::hashtable::{AggTable, HashTable};
use amac_suite::ops::groupby::{groupby, GroupByConfig};
use amac_suite::ops::join::{build, probe, BuildConfig, ProbeConfig};
use amac_suite::ops::mutate::{mutate, MutateConfig, MutateKind};
use amac_suite::ops::parallel::{probe_groupby_mt_rt, probe_mt_rt};
use amac_suite::ops::pipeline::{
    probe_then_groupby, probe_then_groupby_two_phase, probe_then_probe, probe_then_probe_two_phase,
    PipelineConfig, PipelineOutput,
};
use amac_suite::ops::skiplist::{skip_insert, SkipConfig};
use amac_suite::runtime::MorselConfig;
use amac_suite::skiplist::SkipList;
use amac_suite::workload::{FilterSpec, GroupByInput, Relation, Tuple};

/// `[stages, noops, bailouts, bailout_stages, latch_retries]`.
type Schedule = [u64; 5];

/// A driver's GP and SPP schedules, in that order.
fn runs(run: impl Fn(Technique) -> EngineStats) -> [Schedule; 2] {
    [Technique::Gp, Technique::Spp].map(|t| {
        let s = run(t);
        [s.stages, s.noops, s.bailouts, s.bailout_stages, s.latch_retries]
    })
}

/// GP and SPP counted alike.
fn both(s: Schedule) -> [Schedule; 2] {
    [s, s]
}

/// `r` in a table of one bucket per 8 tuples: 3-node chains, so the
/// derived probe budget is 3 and chain lengths vary around it.
fn chained(r: &Relation) -> HashTable {
    let ht = HashTable::with_buckets(r.len().div_ceil(8));
    let mut h = ht.build_handle();
    for t in &r.tuples {
        h.insert(t.key, t.payload);
    }
    drop(h);
    ht
}

/// 4096 build keys and 6000 probes, every fifth of them a miss.
fn join_lab() -> (HashTable, Relation) {
    let r = Relation::dense_unique(1 << 12, 0x51);
    let mut s = Relation::fk_uniform(&r, 6000, 0x52);
    for t in s.tuples.iter_mut().skip(4).step_by(5) {
        t.key += 1 << 20;
    }
    (chained(&r), s)
}

/// A dimension of 2048 keys over 64 groups in a chained table, 6000
/// facts referencing it, a second dimension keyed by the groups, and a
/// filter that keeps half the facts.
fn pipeline_lab() -> (HashTable, HashTable, Relation, PipelineConfig) {
    let dim = Relation::fk_dimension(2048, 64, 0x61);
    let facts = Relation::fk_uniform(&dim, 6000, 0x62);
    let dim2 = Relation::fk_dimension(64, 1 << 20, 0x63);
    let cfg = PipelineConfig { filter: Some(FilterSpec::selectivity(0.5)), ..Default::default() };
    (chained(&dim), chained(&dim2), facts, cfg)
}

#[test]
fn probe_schedules_are_pinned() {
    let (ht, s) = join_lab();
    let cfg = ProbeConfig { materialize: false, ..Default::default() };
    assert_eq!(runs(|t| probe(&ht, &s, t, &cfg).stats), both([18938, 5062, 1077, 1296, 0]));
    let cfg = ProbeConfig { scan_all: true, ..cfg };
    assert_eq!(runs(|t| probe(&ht, &s, t, &cfg).stats), both([22671, 1329, 2576, 3283, 0]));
}

#[test]
fn build_and_groupby_schedules_are_pinned() {
    let r = Relation::zipf(6000, 1 << 10, 0.8, 0x71);
    let built =
        runs(|t| build(&HashTable::for_tuples(r.len()), &r, t, &BuildConfig::default()).stats);
    assert_eq!(built, both([12000, 0, 0, 0, 0]));
    let input = GroupByInput::zipf(256, 6000, 1.0, 0x72);
    let grouped = runs(|t| {
        let table = AggTable::for_groups(input.groups);
        groupby(&table, &input.relation, t, &GroupByConfig::default()).stats
    });
    assert_eq!(grouped, both([13409, 3683, 841, 1122, 908]));
}

#[test]
fn pipeline_schedules_are_pinned() {
    let (ht, ht2, s, cfg) = pipeline_lab();
    type Driver =
        fn(&HashTable, &AggTable, &Relation, Technique, &PipelineConfig) -> PipelineOutput;
    let agg = |run: Driver| runs(|t| run(&ht, &AggTable::for_groups(64), &s, t, &cfg).stats);
    assert_eq!(
        agg(probe_then_groupby),
        [[23326, 12592, 383, 650, 91], [23292, 12626, 382, 684, 91]]
    );
    assert_eq!(agg(probe_then_groupby_two_phase), both([25272, 7545, 1159, 1738, 285]));
    let fused = runs(|t| probe_then_probe(&ht, &ht2, &s, t, &cfg).stats);
    assert_eq!(fused, both([25197, 16803, 233, 307, 0]));
    let two_phase = runs(|t| probe_then_probe_two_phase(&ht, &ht2, &s, t, &cfg).stats);
    assert_eq!(two_phase, both([27346, 8790, 972, 1192, 0]));
}

#[test]
fn mutate_schedules_are_pinned() {
    let r = Relation::dense_unique(1 << 12, 0x81);
    // Half the keys stored, half new; deletes hit stored keys only.
    let s = Relation::fk_uniform(&r, 3000, 0x82);
    let fresh =
        Relation::from_tuples(s.tuples.iter().map(|t| Tuple::new(t.key + (1 << 20), 1)).collect());
    let mixed = Relation::from_tuples(s.tuples.iter().chain(&fresh.tuples).copied().collect());
    let kinds = [
        (MutateKind::Upsert, &mixed, [20022, 3978, 1430, 1720, 0]),
        (MutateKind::Insert, &fresh, [6000, 0, 0, 0, 0]),
        (MutateKind::Delete, &s, [11387, 613, 1370, 1728, 0]),
    ];
    for (kind, rel, want) in kinds {
        let cfg = MutateConfig { kind, ..Default::default() };
        assert_eq!(runs(|t| mutate(&chained(&r), rel, t, &cfg).stats), both(want), "{kind:?}");
    }
}

#[test]
fn skip_insert_schedule_is_pinned() {
    let rel = Relation::sparse_unique(4096, 0x91).shuffled(0x92);
    let got = runs(|t| skip_insert(&SkipList::new(), &rel, t, &SkipConfig::default(), 0x93).stats);
    assert_eq!(got, [[24352, 4320, 1314, 3413, 0], [24286, 4386, 1308, 3351, 0]]);
}

/// One worker over morsels of 1000 tuples: a schedule per morsel.
#[test]
fn morsel_schedules_are_pinned() {
    let rt = MorselConfig { morsel_tuples: 1000, ..MorselConfig::with_threads(1) };
    let (ht, s) = join_lab();
    let got = runs(|t| probe_mt_rt(&ht, &s, t, &ProbeConfig::default(), &rt).stats);
    assert_eq!(got, both([18938, 5062, 1077, 1296, 0]));
    let (ht, _, s, cfg) = pipeline_lab();
    let got =
        runs(|t| probe_groupby_mt_rt(&ht, &AggTable::for_groups(64), &s, t, &cfg, &rt).out.stats);
    assert_eq!(got, [[23326, 12592, 383, 650, 91], [23292, 12626, 382, 684, 91]]);
}
