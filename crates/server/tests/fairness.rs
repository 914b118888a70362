//! Multi-tenant fairness: a Zipf-skewed tenant sharing a window with a
//! uniform tenant must not inflate the uniform tenant's `nodes_visited`,
//! reorder its results, or change any of its counters — asserted
//! bit-identically against solo runs, in the serving scheduler.

use amac::engine::Technique;
use amac_hashtable::HashTable;
use amac_ops::join::{probe, ProbeConfig};
use amac_server::{Request, ServeConfig, ServeSession};
use amac_workload::Relation;

/// Build-side duplicates (Zipf build keys) so the skewed tenant's hot
/// probes walk long chains — the adversarial neighbour.
fn lab() -> (HashTable, Relation, Relation) {
    let n = 8192usize;
    let domain = (n / 16) as u64;
    // All three relations share one seed, hence one Feistel rank→key
    // permutation: the skewed tenant's hottest probe keys are exactly the
    // build side's longest chains (the `skewed_probe_lab` discipline).
    let build = Relation::zipf(n, domain, 0.5, 0x5EED);
    let ht = HashTable::build_serial(&build);
    let uniform = Relation::zipf(16_000, domain, 0.0, 0x5EED);
    let skewed = Relation::zipf(16_000, domain, 1.0, 0x5EED);
    (ht, uniform, skewed)
}

fn cfg() -> ProbeConfig {
    ProbeConfig { scan_all: true, materialize: false, ..Default::default() }
}

#[test]
fn uniform_tenant_unaffected_in_serving_scheduler() {
    let (ht, uniform, skewed) = lab();
    // Materializing config: output order is part of the contract here.
    let mcfg = ProbeConfig { scan_all: false, materialize: true, ..Default::default() };
    let solo = probe(&ht, &uniform, Technique::Amac, &mcfg);

    let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
    let u = srv.submit(Request::Probe { probes: &uniform, cfg: mcfg.clone() }).unwrap();
    srv.submit(Request::Probe { probes: &skewed, cfg: mcfg.clone() }).unwrap();
    let out = srv.finish();
    let ru = out.reports.iter().find(|r| r.qid == u).unwrap();
    assert_eq!(ru.matches, solo.matches);
    assert_eq!(ru.checksum, solo.checksum);
    assert_eq!(ru.out, solo.out, "sharing must not reorder the uniform tenant's output");
    assert_eq!(ru.stats.nodes_visited, solo.stats.nodes_visited);
    assert_eq!(ru.stats.lookups, solo.stats.lookups);
}

#[test]
fn far_tier_tenant_does_not_inflate_near_tier_tenant() {
    use amac_tier::{CostModel, TierPolicy, TierSpec};
    let (ht, uniform, skewed) = lab();
    // Near tenant: everything it touches is pinned in DRAM. Far-heavy
    // tenant: long Zipf chains at 8x latency. Materializing config —
    // output order is part of the no-interference contract.
    let near_cfg = ProbeConfig {
        scan_all: false,
        materialize: true,
        tier: Some(TierSpec { model: CostModel::default(), policy: TierPolicy::AllNear }),
        ..Default::default()
    };
    let far_cfg = ProbeConfig {
        scan_all: true,
        materialize: false,
        tier: Some(TierSpec::headers_near(8)),
        ..Default::default()
    };

    // Solo reference for the near tenant.
    let solo = probe(&ht, &uniform, Technique::Amac, &near_cfg);
    assert_eq!(solo.stats.sim_stalls, 0, "a near-only tenant at M = 10 must be stall-free");

    let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
    let u = srv.submit(Request::Probe { probes: &uniform, cfg: near_cfg.clone() }).unwrap();
    let z = srv.submit(Request::Probe { probes: &skewed, cfg: far_cfg.clone() }).unwrap();
    let out = srv.finish();
    let ru = out.reports.iter().find(|r| r.qid == u).unwrap();
    let rz = out.reports.iter().find(|r| r.qid == z).unwrap();

    // The far-heavy neighbour must not inflate the near tenant's stalls
    // (other tenants' stages advance the shared window clock, so sharing
    // only ever *adds* hiding distance), nor touch its results.
    assert_eq!(ru.stats.sim_stalls, solo.stats.sim_stalls, "sharing inflated near-tenant stalls");
    assert_eq!(ru.stats.sim_cycles, solo.stats.sim_cycles, "sharing changed near-tenant work");
    assert_eq!(ru.matches, solo.matches);
    assert_eq!(ru.checksum, solo.checksum);
    assert_eq!(ru.out, solo.out, "sharing must not reorder the near tenant's output");
    assert_eq!(ru.stats.nodes_visited, solo.stats.nodes_visited);
    // The far tenant pays its own latency, visibly.
    assert!(rz.stats.sim_stalls > 0 || rz.stats.sim_cycles > 0, "far tenant charged nothing");

    // Lane-ledger sums must still equal global totals with the new
    // counters.
    let sum_cycles: u64 = out.reports.iter().map(|r| r.stats.sim_cycles).sum();
    let sum_stalls: u64 = out.reports.iter().map(|r| r.stats.sim_stalls).sum();
    assert_eq!(sum_cycles, out.stats.sim_cycles, "per-query sim_cycles must sum to global");
    assert_eq!(sum_stalls, out.stats.sim_stalls, "per-query sim_stalls must sum to global");
}

#[test]
fn solo_vs_shared_serving_occupancy_and_report_consistency() {
    let (ht, uniform, skewed) = lab();
    let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 128, ..Default::default() });
    srv.submit(Request::Probe { probes: &uniform, cfg: cfg() }).unwrap();
    srv.submit(Request::Probe { probes: &skewed, cfg: cfg() }).unwrap();
    let out = srv.finish();
    // Global counters are exactly the per-query sum.
    let sum_lookups: u64 = out.reports.iter().map(|r| r.stats.lookups).sum();
    let sum_nodes: u64 = out.reports.iter().map(|r| r.stats.nodes_visited).sum();
    assert_eq!(sum_lookups, out.stats.lookups);
    assert_eq!(sum_nodes, out.stats.nodes_visited);
    assert!(out.occupancy > 0.0 && out.occupancy <= out.window as f64);
    assert!(out.fairness_nodes_ratio() > 1.0);
    assert_eq!(out.latency.count(), 2);
}
