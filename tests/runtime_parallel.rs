//! Workspace-level tests of the morsel-driven runtime against the real
//! operators: determinism across scheduling disciplines and balance under
//! positional skew.

use amac_suite::engine::Technique;
use amac_suite::hashtable::HashTable;
use amac_suite::ops::join::{probe, ProbeConfig};
use amac_suite::ops::parallel::probe_mt_rt;
use amac_suite::runtime::{MorselConfig, Scheduling};
use amac_suite::workload::Relation;

/// The skewed-probe scenario from the runtime design (see
/// `amac_bench::skewed_probe_lab`, which this mirrors): a Zipf-duplicated
/// build relation gives hot keys long chains, and a θ=1.0 *clustered*
/// Zipf probe input — sharing the build's Feistel permutation, so probe
/// hotness aligns with chain length — packs the expensive probes into a
/// few contiguous runs of S. The case static chunking handles worst.
fn skewed_probe_inputs(n: usize, seed: u64) -> (HashTable, Relation) {
    let domain = (n as u64 / 64).max(64);
    let r = Relation::zipf(n / 2, domain, 0.5, seed);
    let ht = HashTable::build_serial(&r);
    let s = Relation::zipf_clustered(n, domain, 1.0, seed);
    (ht, s)
}

fn scan_all_cfg() -> ProbeConfig {
    ProbeConfig { scan_all: true, materialize: false, ..Default::default() }
}

#[test]
fn morsel_probe_checksum_equals_static_chunk_checksum() {
    let (ht, s) = skewed_probe_inputs(60_000, 0xA11);
    let single = probe(&ht, &s, Technique::Amac, &scan_all_cfg());
    for scheduling in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
        let rt = MorselConfig { threads: 4, morsel_tuples: 4096, scheduling };
        let mt = probe_mt_rt(&ht, &s, Technique::Amac, &scan_all_cfg(), &rt);
        assert_eq!(mt.matches, single.matches, "{scheduling:?}");
        assert_eq!(mt.checksum, single.checksum, "{scheduling:?}");
        assert_eq!(mt.stats.lookups, s.len() as u64, "{scheduling:?}");
    }
}

#[test]
fn work_stealing_flattens_the_skewed_tail() {
    // Zipf θ=1.0 clustered probes: under static chunking one thread owns
    // nearly all chain-walking work. With stealing, no thread may finish
    // more than 2x later than the median. The finish-time bound is wall
    // clock, so a descheduled worker on a loaded CI host can exceed it
    // spuriously — retry a few times and fail only if no attempt is flat;
    // the deterministic assertions (lookups, steals, work spread) hold on
    // every attempt.
    let (ht, s) = skewed_probe_inputs(1 << 17, 0xBEE);
    let rt = MorselConfig { threads: 4, morsel_tuples: 2048, ..Default::default() };
    let mut last_failure = String::new();
    for _attempt in 0..3 {
        let mt = probe_mt_rt(&ht, &s, Technique::Amac, &scan_all_cfg(), &rt);
        assert_eq!(mt.stats.lookups, s.len() as u64);
        let report = &mt.report;
        assert!(report.steals() > 0, "clustered skew must trigger steals");
        let med = report.median_finished_at();
        let max = report.max_finished_at();
        if max <= med * 2.0 {
            return;
        }
        last_failure = format!(
            "straggler: max finish {max:.6}s vs median {med:.6}s (imbalance {:.2})",
            report.imbalance()
        );
    }
    panic!("{last_failure}");
}
