//! Multi-tenant drivers: several queries' probe streams share the AMAC
//! windows of one parallel run.
//!
//! [`crate::parallel`] scales **one** query across threads; this module
//! scales **many** queries into the same engine. Each worker thread owns
//! one [`Mux`] whose lanes are per-query [`ProbeOp`]s, so a morsel can
//! carry tuples from any mix of queries and every worker's in-flight
//! window interleaves them — the cross-query generalization of the
//! paper's window (see `amac::engine::mux`). Inputs are pre-interleaved
//! deficit-round-robin with a configurable quantum, which is what the
//! single-threaded serving scheduler (`amac_server`) does incrementally.
//!
//! Because every lane is its own op and probes are read-only, a query's
//! results and per-tenant counters are **bit-identical** to its solo run
//! regardless of tenant mix, scheduling, or thread count — asserted by
//! this module's tests and by `crates/server/tests/fairness.rs`.

use amac::engine::mux::{Mux, Tagged};
use amac::engine::{EngineStats, Technique};
use amac_hashtable::HashTable;
use amac_runtime::{execute, MorselConfig, RunReport};
use amac_workload::{Relation, Tuple};

use crate::join::{ProbeConfig, ProbeOp};

/// One tenant's probe workload: a probe stream and its share weight.
pub struct TenantProbe<'a> {
    /// The tenant's probe relation (probed against the shared table).
    pub probes: &'a Relation,
    /// Deficit-round-robin weight (1 = equal share).
    pub weight: u32,
}

impl<'a> TenantProbe<'a> {
    /// An equal-share tenant.
    pub fn new(probes: &'a Relation) -> Self {
        TenantProbe { probes, weight: 1 }
    }
}

/// Per-tenant result of a multi-tenant run.
#[derive(Debug, Clone, Default)]
pub struct TenantOutput {
    /// Matches found for this tenant's probes.
    pub matches: u64,
    /// Order-independent checksum of this tenant's matched payloads.
    pub checksum: u64,
    /// Tuples this tenant submitted.
    pub tuples: u64,
    /// This tenant's exact counters (lookups, stages, nodes visited, tag
    /// rejects), merged over all workers' lane ledgers.
    pub stats: EngineStats,
}

/// Result of a multi-tenant parallel probe.
#[derive(Debug, Clone, Default)]
pub struct MultiOutput {
    /// Per-tenant results, in input order.
    pub tenants: Vec<TenantOutput>,
    /// Merged runtime observability (all tenants together).
    pub report: RunReport,
}

impl MultiOutput {
    /// Fairness ratio over this run's tenants ([`fairness_nodes_ratio`]).
    pub fn fairness_nodes_ratio(&self) -> f64 {
        fairness_nodes_ratio(self.tenants.iter().map(|t| t.stats.nodes_visited))
    }
}

/// Fairness ratio: max over tenants of per-tenant nodes visited, divided
/// by the mean (1.0 = perfectly even traversal work; empty or all-zero
/// inputs report 1.0). With per-query windows this would be trivially
/// 1-per-query; in a shared window it shows how unevenly tenants consume
/// the engine. The single definition behind `MultiOutput`,
/// `amac_server::ServeOutput` and `bench serve`.
pub fn fairness_nodes_ratio(nodes: impl IntoIterator<Item = u64>) -> f64 {
    let nodes: Vec<f64> = nodes.into_iter().map(|n| n as f64).collect();
    if nodes.is_empty() {
        return 1.0;
    }
    let mean = nodes.iter().sum::<f64>() / nodes.len() as f64;
    if mean > 0.0 {
        nodes.iter().fold(0.0f64, |a, &b| a.max(b)) / mean
    } else {
        1.0
    }
}

/// Interleave the tenants' probe streams deficit-round-robin with
/// `quantum` tuples per turn (scaled by each tenant's weight), tagging
/// every tuple with its lane. Deterministic: depends only on sizes,
/// weights and `quantum`.
pub fn interleave_drr(tenants: &[TenantProbe<'_>], quantum: usize) -> Vec<Tagged<Tuple>> {
    let quantum = quantum.max(1);
    let total: usize = tenants.iter().map(|t| t.probes.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors = vec![0usize; tenants.len()];
    let mut deficits = vec![0usize; tenants.len()];
    while out.len() < total {
        for (lane, t) in tenants.iter().enumerate() {
            let remaining = t.probes.len() - cursors[lane];
            if remaining == 0 {
                deficits[lane] = 0;
                continue;
            }
            deficits[lane] += quantum * t.weight.max(1) as usize;
            let take = deficits[lane].min(remaining);
            for tup in &t.probes.tuples[cursors[lane]..cursors[lane] + take] {
                out.push(Tagged::new(lane as u32, *tup));
            }
            cursors[lane] += take;
            deficits[lane] -= take;
        }
    }
    out
}

/// Probe `ht` with every tenant's stream through one multi-tenant
/// parallel run: morsel dispatch across threads, one shared-window
/// [`Mux`] per worker, lookups from all tenants interleaved in every
/// in-flight window. Materialization is disabled (morsel order is not
/// input order); per-tenant matches/checksums/counters come back exact.
pub fn probe_multi_mt_rt(
    ht: &HashTable,
    tenants: &[TenantProbe<'_>],
    technique: Technique,
    cfg: &ProbeConfig,
    quantum: usize,
    rt: &MorselConfig,
) -> MultiOutput {
    let cfg = ProbeConfig { materialize: false, ..cfg.clone() };
    let tagged = interleave_drr(tenants, quantum);
    let run = execute(&tagged, technique, cfg.params, rt, |_tid| {
        let mut mux = Mux::new();
        for t in tenants {
            // Lane ids are assignment-ordered, so lane i == tenant i.
            mux.add(ProbeOp::new(ht, &cfg, t.probes.len()));
        }
        mux
    });
    let mut tenants_out: Vec<TenantOutput> = tenants
        .iter()
        .map(|t| TenantOutput { tuples: t.probes.len() as u64, ..Default::default() })
        .collect();
    for mux in &run.ops {
        for (lane, op) in mux.iter_lanes() {
            let t = &mut tenants_out[lane as usize];
            t.matches += op.matches();
            t.checksum = t.checksum.wrapping_add(op.checksum());
            t.stats.merge(mux.observed(lane));
        }
    }
    MultiOutput { tenants: tenants_out, report: run.report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac::engine::TuningParams;
    use amac_runtime::Scheduling;

    fn lab() -> (HashTable, Relation, Relation) {
        let n = 8192;
        let r = Relation::dense_unique(n, 0xAB);
        let uniform = Relation::fk_uniform(&r, 20_000, 0xAC);
        let zipf = Relation::zipf(20_000, n as u64, 1.0, 0xAD);
        (HashTable::build_serial(&r), uniform, zipf)
    }

    #[test]
    fn interleave_preserves_per_tenant_order_and_counts() {
        let (_ht, uniform, zipf) = lab();
        let tenants = [TenantProbe::new(&uniform), TenantProbe::new(&zipf)];
        let tagged = interleave_drr(&tenants, 64);
        assert_eq!(tagged.len(), uniform.len() + zipf.len());
        for (lane, rel) in [(0u32, &uniform), (1u32, &zipf)] {
            let mine: Vec<Tuple> =
                tagged.iter().filter(|t| t.lane == lane).map(|t| t.input).collect();
            assert_eq!(mine, rel.tuples, "lane {lane} order broken");
        }
    }

    #[test]
    fn weighted_tenant_leads_the_interleave() {
        let (_ht, uniform, zipf) = lab();
        let tenants = [TenantProbe { probes: &uniform, weight: 3 }, TenantProbe::new(&zipf)];
        let tagged = interleave_drr(&tenants, 32);
        // In the first 4 quanta-rounds worth of tuples, lane 0 should have
        // roughly 3x lane 1's share.
        let head = &tagged[..512];
        let l0 = head.iter().filter(|t| t.lane == 0).count();
        assert!(l0 > 300, "weight-3 tenant got only {l0}/512 of the head");
    }

    #[test]
    fn shared_window_is_bit_identical_to_solo_at_all_thread_counts() {
        let (ht, uniform, zipf) = lab();
        let cfg = ProbeConfig { scan_all: true, materialize: false, ..Default::default() };
        // Solo references (single-tenant runs through the same driver).
        let solo: Vec<TenantOutput> = [&uniform, &zipf]
            .iter()
            .map(|rel| {
                let t = [TenantProbe::new(rel)];
                probe_multi_mt_rt(
                    &ht,
                    &t,
                    Technique::Amac,
                    &cfg,
                    256,
                    &MorselConfig::with_threads(1),
                )
                .tenants
                .remove(0)
            })
            .collect();
        // And the plain single-query driver must agree with lane 0 solo.
        let plain = crate::join::probe(&ht, &uniform, Technique::Amac, &cfg);
        assert_eq!(plain.matches, solo[0].matches);
        assert_eq!(plain.checksum, solo[0].checksum);
        assert_eq!(plain.stats.nodes_visited, solo[0].stats.nodes_visited);

        for threads in [1usize, 2, 4] {
            for scheduling in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
                let rt = MorselConfig { threads, morsel_tuples: 1024, scheduling };
                let tenants = [TenantProbe::new(&uniform), TenantProbe::new(&zipf)];
                let out = probe_multi_mt_rt(&ht, &tenants, Technique::Amac, &cfg, 256, &rt);
                for (i, (got, want)) in out.tenants.iter().zip(&solo).enumerate() {
                    let tag = format!("tenant {i}, {threads}t {scheduling:?}");
                    assert_eq!(got.matches, want.matches, "{tag}: matches");
                    assert_eq!(got.checksum, want.checksum, "{tag}: checksum");
                    assert_eq!(
                        got.stats.nodes_visited, want.stats.nodes_visited,
                        "{tag}: sharing inflated nodes_visited"
                    );
                    assert_eq!(got.stats.lookups, want.stats.lookups, "{tag}: lookups");
                    assert_eq!(got.stats.tag_rejects, want.stats.tag_rejects, "{tag}: rejects");
                }
                assert!(out.fairness_nodes_ratio() >= 1.0);
            }
        }
    }

    #[test]
    fn all_techniques_agree_on_multi_tenant_results() {
        let (ht, uniform, zipf) = lab();
        let cfg = ProbeConfig { scan_all: true, materialize: false, ..Default::default() };
        let rt = MorselConfig::with_threads(2);
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for technique in Technique::ALL {
            let tenants = [TenantProbe::new(&uniform), TenantProbe::new(&zipf)];
            let cfg = ProbeConfig { params: TuningParams::paper_best(technique), ..cfg.clone() };
            let out = probe_multi_mt_rt(&ht, &tenants, technique, &cfg, 128, &rt);
            let sig: Vec<(u64, u64)> =
                out.tenants.iter().map(|t| (t.matches, t.checksum)).collect();
            match &reference {
                None => reference = Some(sig),
                Some(want) => assert_eq!(&sig, want, "{technique} diverged"),
            }
        }
    }

    #[test]
    fn empty_tenant_completes_with_zero_counters() {
        let (ht, uniform, _) = lab();
        let empty = Relation::default();
        let tenants = [TenantProbe::new(&uniform), TenantProbe::new(&empty)];
        let cfg = ProbeConfig::default();
        let out = probe_multi_mt_rt(
            &ht,
            &tenants,
            Technique::Amac,
            &cfg,
            64,
            &MorselConfig::with_threads(2),
        );
        assert_eq!(out.tenants[1].matches, 0);
        assert_eq!(out.tenants[1].stats.lookups, 0);
        assert_eq!(out.tenants[0].matches, uniform.len() as u64);
    }
}
