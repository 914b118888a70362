//! The sharded drivers against the unsharded single-table run: probe,
//! group-by, fused pipeline and upsert, under every executor, both
//! placements and 1/2/4 threads, must reproduce matches, checksums,
//! materialized outputs, merged groups and final table contents bit for
//! bit.

use amac::engine::Technique;
use amac_hashtable::agg::AggValues;
use amac_hashtable::{AggTable, HashTable};
use amac_ops::groupby::{groupby, GroupByConfig};
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::mutate::{mutate, MutateConfig, MutateKind};
use amac_ops::pipeline::{probe_then_groupby, PipelineConfig};
use amac_shard::{
    groupby_sharded, mutate_sharded, pipeline_sharded, probe_sharded, Placement, ShardConfig,
    ShardRouter, ShardedAgg, ShardedTable,
};
use amac_workload::Relation;

const SEED: u64 = 0x5A4D;
/// Radix partition bits (64 partitions rendezvous-dealt over shards).
const BITS: u32 = 6;
const SHARDS: usize = 4;
/// Group-by domain (also the dimension payload domain in the pipeline).
const GROUPS: usize = 64;
const FACT: usize = 1 << 11;
const PLACEMENTS: [Placement; 2] = [Placement::Routed, Placement::Interleaved];

fn sorted_groups(t: &AggTable) -> Vec<(u64, AggValues)> {
    let mut g = t.groups();
    g.sort_unstable_by_key(|&(k, _)| k);
    g
}

/// The dimension relation and a uniform fact stream over it.
fn lab() -> (Relation, Relation) {
    let dim = Relation::fk_dimension(FACT / 4, GROUPS as u64, SEED);
    let fact = Relation::fk_uniform(&dim, FACT, SEED ^ 0xFAC7);
    (dim, fact)
}

fn frozen(dim: &Relation) -> HashTable {
    let ht = HashTable::build_serial(dim);
    ht.freeze();
    ht
}

#[test]
fn sharded_probe_matches_unsharded_everywhere() {
    let (dim, fact) = lab();
    let solo = frozen(&dim);
    let st = ShardedTable::build(&dim, ShardRouter::new(BITS, SHARDS));
    for technique in Technique::ALL {
        let base = probe(&solo, &fact, technique, &ProbeConfig::default());
        for placement in PLACEMENTS {
            for threads in [1usize, 2, 4] {
                let cfg = ShardConfig { threads, ..Default::default() };
                let out = probe_sharded(&st, &fact, technique, &cfg, placement);
                let ctx = format!("{technique} {placement:?} {threads}T");
                assert_eq!((out.matches, out.checksum), (base.matches, base.checksum), "{ctx}");
                assert_eq!(out.out, base.out, "{ctx}: materialized outputs diverged");
            }
        }
    }
}

#[test]
fn sharded_groupby_matches_unsharded_everywhere() {
    let input = Relation::zipf(FACT, GROUPS as u64, 0.8, SEED ^ 0x61);
    for technique in Technique::ALL {
        let solo = AggTable::for_groups(GROUPS);
        let base = groupby(&solo, &input, technique, &GroupByConfig::default());
        for threads in [1usize, 2, 4] {
            let agg = ShardedAgg::for_groups(GROUPS, ShardRouter::new(BITS, SHARDS));
            let cfg = ShardConfig { threads, ..Default::default() };
            let out = groupby_sharded(&agg, &input, technique, &cfg);
            assert_eq!(out.tuples, base.tuples, "{technique} {threads}T");
            assert_eq!(agg.merged_groups(), sorted_groups(&solo), "{technique} {threads}T");
        }
    }
}

#[test]
fn sharded_pipeline_matches_unsharded_everywhere() {
    let (dim, fact) = lab();
    let solo = frozen(&dim);
    let st = ShardedTable::build(&dim, ShardRouter::new(BITS, SHARDS));
    for technique in Technique::ALL {
        let scratch = AggTable::for_groups(GROUPS);
        let base =
            probe_then_groupby(&solo, &scratch, &fact, technique, &PipelineConfig::default());
        for placement in PLACEMENTS {
            for threads in [1usize, 2, 4] {
                let cfg = ShardConfig { threads, ..Default::default() };
                let out = pipeline_sharded(&st, &fact, GROUPS, technique, &cfg, placement);
                let ctx = format!("{technique} {placement:?} {threads}T");
                assert_eq!((out.matched, out.aggregated), (base.matched, base.aggregated), "{ctx}");
                assert_eq!(out.groups, sorted_groups(&scratch), "{ctx}: merged groups diverged");
            }
        }
    }
}

#[test]
fn sharded_upsert_matches_unsharded_everywhere() {
    let (dim, _) = lab();
    let ups = Relation::zipf(FACT / 4, dim.len() as u64 * 2, 0.6, SEED ^ 0x73);
    for technique in Technique::ALL {
        let solo = frozen(&dim);
        let base = mutate(&solo, &ups, technique, &MutateConfig::default());
        for placement in PLACEMENTS {
            for threads in [1usize, 2, 4] {
                let st = ShardedTable::build(&dim, ShardRouter::new(BITS, SHARDS));
                let cfg = ShardConfig { threads, ..Default::default() };
                let out = mutate_sharded(&st, &ups, MutateKind::Upsert, technique, &cfg, placement);
                let ctx = format!("{technique} {placement:?} {threads}T");
                assert_eq!(
                    (out.applied, out.created, out.merged),
                    (base.applied, base.created, base.merged),
                    "{ctx}"
                );
                assert_eq!(
                    st.contents_sorted(),
                    solo.contents_sorted(),
                    "{ctx}: contents diverged"
                );
            }
        }
    }
}
