//! Cross-executor conformance suite for the execution context's load
//! protocol (`amac_tier::ctx`).
//!
//! Every operator that routes loads through an `ExecCtx` must compute
//! **bit-identical results** with coalescing on or off, under every
//! executor and the morsel runtime at any thread count — coalescing
//! dedups *issue traffic*, never semantics. The suite also pins the
//! counter ledger (`issued + coalesced == requested`, with the
//! uncoalesced run as the requested-count oracle) and the determinism of
//! `coalesced_loads` across thread counts and scheduling disciplines.

use amac::engine::mux::Mux;
use amac::engine::{AmacSession, EngineStats, Technique, TuningParams};
use amac_hashtable::{AggTable, HashTable};
use amac_ops::groupby::{groupby, GroupByConfig};
use amac_ops::join::{probe, ProbeConfig, ProbeOp};
use amac_ops::parallel::probe_mt_rt;
use amac_ops::pipeline::{probe_then_groupby, PipelineConfig};
use amac_runtime::{MorselConfig, Scheduling};
use amac_tier::{FaultPlan, TierSpec};
use amac_workload::Relation;

/// Coalescing window used throughout: must divide the morsel size so
/// commit groups never straddle morsel boundaries.
const G: usize = 8;

/// A skewed lab: duplicate build keys give real chains, zipf probes put
/// the same hot lines in flight together so coalescing has work to do.
fn lab(n_build: usize, n_probe: usize, domain: u64, seed: u64) -> (HashTable, Relation) {
    let build = Relation::zipf(n_build, domain, 0.75, seed);
    let ht = HashTable::build_serial(&build);
    let probes = Relation::zipf(n_probe, domain, 1.0, seed ^ 0x5EED);
    (ht, probes)
}

fn probe_cfg(coalesce: Option<usize>) -> ProbeConfig {
    ProbeConfig {
        scan_all: true,
        tier: Some(TierSpec::headers_near(4)),
        coalesce,
        ..Default::default()
    }
}

#[test]
fn probe_is_bit_identical_with_coalescing_under_every_executor() {
    let (ht, probes) = lab(4096, 8192, 256, 0xA1);
    for technique in Technique::ALL {
        let off = probe(&ht, &probes, technique, &probe_cfg(None));
        let on = probe(&ht, &probes, technique, &probe_cfg(Some(G)));
        assert_eq!(on.matches, off.matches, "{technique}");
        assert_eq!(on.checksum, off.checksum, "{technique}");
        assert_eq!(on.out, off.out, "{technique}: materialization diverged");
        assert_eq!(on.stats.lookups, off.stats.lookups, "{technique}");
        // Work ticks count executed stages; dedup removes loads, not
        // stages.
        assert_eq!(on.stats.sim_cycles, off.stats.sim_cycles, "{technique}");
        // Ledger: the scalar run issues every request, so it is the
        // requested-count oracle for the coalescing run.
        assert_eq!(off.stats.coalesced_loads, 0, "{technique}: scalar must not dedup");
        assert_eq!(
            on.stats.issued_loads + on.stats.coalesced_loads,
            off.stats.issued_loads,
            "{technique}: issued + coalesced must equal requested"
        );
        // The AMU can only remove traffic relative to the pre-AMU
        // one-prefetch-per-stage plumbing (starts + chain hops, which is
        // exactly what `prefetches` counts for Baseline and AMAC). GP
        // and SPP are excluded: their sequential bailout passes
        // dereference without prefetching, so their pre-AMU prefetch
        // counts undercount the loads they perform on over-budget
        // chains.
        if matches!(technique, Technique::Baseline | Technique::Amac) {
            assert!(
                on.stats.issued_loads <= off.stats.prefetches,
                "{technique}: issued {} > prefetch count {}",
                on.stats.issued_loads,
                off.stats.prefetches
            );
        }
        // Hot zipf keys collide inside any multi-lane window; only the
        // baseline (one lane in flight, group-per-lookup) has nothing to
        // dedup against.
        if technique == Technique::Baseline {
            assert_eq!(on.stats.coalesced_loads, 0, "baseline has a single lane in flight");
        } else {
            assert!(on.stats.coalesced_loads > 0, "{technique}: zipf probes must coalesce");
        }
    }
}

#[test]
fn probe_fault_sets_are_identical_with_coalescing_on_or_off() {
    let (ht, probes) = lab(4096, 8192, 256, 0xB2);
    let plan = FaultPlan::fail_only(42, 60);
    for technique in Technique::ALL {
        let off =
            probe(&ht, &probes, technique, &ProbeConfig { fault: Some(plan), ..probe_cfg(None) });
        let on = probe(
            &ht,
            &probes,
            technique,
            &ProbeConfig { fault: Some(plan), ..probe_cfg(Some(G)) },
        );
        assert!(off.stats.failed_lookups > 0, "{technique}: plan must bite");
        assert_eq!(on.stats.failed_lookups, off.stats.failed_lookups, "{technique}");
        assert_eq!(on.stats.load_faults, off.stats.load_faults, "{technique}");
        assert_eq!(on.matches, off.matches, "{technique}");
        assert_eq!(on.checksum, off.checksum, "{technique}");
        assert_eq!(on.out, off.out, "{technique}");
    }
}

#[test]
fn groupby_is_bit_identical_with_coalescing_under_every_executor() {
    let input = Relation::zipf(8192, 64, 1.0, 0xC3);
    let cfg = |coalesce| GroupByConfig {
        tier: Some(TierSpec::headers_near(4)),
        coalesce,
        ..Default::default()
    };
    for technique in Technique::ALL {
        let agg_off = AggTable::for_groups(64);
        let off = groupby(&agg_off, &input, technique, &cfg(None));
        let agg_on = AggTable::for_groups(64);
        let on = groupby(&agg_on, &input, technique, &cfg(Some(G)));
        assert_eq!(on.tuples, off.tuples, "{technique}");
        let (mut snap_off, mut snap_on) = (agg_off.groups(), agg_on.groups());
        snap_off.sort_by_key(|(k, _)| *k);
        snap_on.sort_by_key(|(k, _)| *k);
        assert_eq!(snap_on, snap_off, "{technique}: aggregate state diverged");
        assert_eq!(off.stats.coalesced_loads, 0, "{technique}");
        assert_eq!(
            on.stats.issued_loads + on.stats.coalesced_loads,
            off.stats.issued_loads,
            "{technique}"
        );
        // 64 hot group headers across a multi-lane window: dedup must
        // fire everywhere but the single-lane baseline.
        if technique != Technique::Baseline {
            assert!(on.stats.coalesced_loads > 0, "{technique}");
        }
    }
}

#[test]
fn fused_pipeline_is_bit_identical_with_coalescing_under_every_executor() {
    let dim = Relation::fk_dimension(1 << 10, 32, 0xD4);
    let fact = Relation::fk_uniform(&dim, 8192, 0xD5);
    let ht = HashTable::build_serial(&dim);
    let cfg = |coalesce| PipelineConfig {
        tier: Some(TierSpec::headers_near(4)),
        coalesce,
        ..Default::default()
    };
    for technique in Technique::ALL {
        let agg_off = AggTable::for_groups(32);
        let off = probe_then_groupby(&ht, &agg_off, &fact, technique, &cfg(None));
        let agg_on = AggTable::for_groups(32);
        let on = probe_then_groupby(&ht, &agg_on, &fact, technique, &cfg(Some(G)));
        assert_eq!(on.matched, off.matched, "{technique}");
        assert_eq!(on.aggregated, off.aggregated, "{technique}");
        let (mut snap_off, mut snap_on) = (agg_off.groups(), agg_on.groups());
        snap_off.sort_by_key(|(k, _)| *k);
        snap_on.sort_by_key(|(k, _)| *k);
        assert_eq!(snap_on, snap_off, "{technique}: fused aggregate state diverged");
        assert_eq!(
            on.stats.issued_loads + on.stats.coalesced_loads,
            off.stats.issued_loads,
            "{technique}"
        );
        // The 32 aggregation headers guarantee in-window duplicates for
        // the group-by stage of any multi-lane window.
        if technique != Technique::Baseline {
            assert!(on.stats.coalesced_loads > 0, "{technique}");
        }
    }
}

#[test]
fn morsel_runtime_coalescing_is_deterministic_across_threads_and_schedulings() {
    // Aligned geometry: 48 morsels of 1024 tuples split 1/2/4 ways, with
    // G | morsel_tuples, so commit groups are a pure function of morsel
    // contents — identical for every thread count and every dispatch
    // discipline.
    let n = 48 * 1024;
    let (ht, probes) = lab(4096, n, 256, 0x91);
    let mt = |threads, scheduling, coalesce| {
        let rt = MorselConfig { threads, morsel_tuples: 1024, scheduling };
        probe_mt_rt(&ht, &probes, Technique::Amac, &probe_cfg(coalesce), &rt)
    };
    let reference = mt(1, Scheduling::StaticChunk, Some(G));
    assert!(reference.stats.coalesced_loads > 0, "zipf probes must coalesce");
    let scalar = mt(1, Scheduling::StaticChunk, None);
    assert_eq!(scalar.stats.coalesced_loads, 0);
    assert_eq!(
        reference.stats.issued_loads + reference.stats.coalesced_loads,
        scalar.stats.issued_loads,
        "morsel-runtime ledger must conserve requests"
    );
    for threads in [1usize, 2, 4] {
        for scheduling in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
            let out = mt(threads, scheduling, Some(G));
            let tag = format!("threads={threads} {scheduling:?}");
            assert_eq!(out.matches, reference.matches, "{tag}");
            assert_eq!(out.checksum, reference.checksum, "{tag}");
            assert_eq!(out.stats.lookups, reference.stats.lookups, "{tag}");
            assert_eq!(out.stats.sim_cycles, reference.stats.sim_cycles, "{tag}");
            assert_eq!(out.stats.issued_loads, reference.stats.issued_loads, "{tag}");
            assert_eq!(out.stats.coalesced_loads, reference.stats.coalesced_loads, "{tag}");
        }
    }
}

#[test]
fn single_threaded_morsel_run_matches_the_one_shot_executor_ledger() {
    // Same aligned geometry as above, one worker: feeding morsels through
    // a persistent session must produce the same AMU ledger as one
    // uninterrupted `run_amac` pass (groups of G births never straddle a
    // 1024-tuple morsel, so the feed-boundary commit points are no-ops).
    let (ht, probes) = lab(4096, 8 * 1024, 256, 0x92);
    let one_shot = probe(&ht, &probes, Technique::Amac, &probe_cfg(Some(G)));
    let rt = MorselConfig { threads: 1, morsel_tuples: 1024, scheduling: Scheduling::StaticChunk };
    let morsel = probe_mt_rt(&ht, &probes, Technique::Amac, &probe_cfg(Some(G)), &rt);
    assert_eq!(morsel.matches, one_shot.matches);
    assert_eq!(morsel.checksum, one_shot.checksum);
    assert_eq!(morsel.stats.issued_loads, one_shot.stats.issued_loads);
    assert_eq!(morsel.stats.coalesced_loads, one_shot.stats.coalesced_loads);
}

#[test]
fn untiered_runs_still_count_the_ledger() {
    // The AMU counts issue traffic even without a cost model: `tier:
    // None` runs report `issued_loads` (and dedup under coalescing) with
    // zero simulated time.
    let (ht, probes) = lab(2048, 4096, 128, 0x93);
    let cfg = |coalesce| ProbeConfig { scan_all: true, coalesce, ..Default::default() };
    let off = probe(&ht, &probes, Technique::Amac, &cfg(None));
    let on = probe(&ht, &probes, Technique::Amac, &cfg(Some(G)));
    assert_eq!((off.stats.sim_cycles, off.stats.sim_stalls), (0, 0));
    assert!(off.stats.issued_loads > 0);
    assert_eq!(on.matches, off.matches);
    assert_eq!(on.checksum, off.checksum);
    assert_eq!(on.out, off.out);
    assert_eq!(on.stats.issued_loads + on.stats.coalesced_loads, off.stats.issued_loads);
    assert!(on.stats.coalesced_loads > 0);
}

#[test]
fn coalesced_duplicates_skip_the_hardware_hint_but_results_agree_across_widths() {
    // Sweep the coalescing window: any G produces identical results; the
    // dedup rate grows with the window (more lanes to collide with) and
    // the request total is conserved at every width.
    let (ht, probes) = lab(4096, 8192, 256, 0x94);
    let scalar = probe(&ht, &probes, Technique::Amac, &probe_cfg(None));
    let mut last = 0u64;
    for g in [1usize, 2, 4, 8, 16] {
        let out = probe(&ht, &probes, Technique::Amac, &probe_cfg(Some(g)));
        assert_eq!(out.matches, scalar.matches, "G={g}");
        assert_eq!(out.checksum, scalar.checksum, "G={g}");
        assert_eq!(out.out, scalar.out, "G={g}");
        assert_eq!(
            out.stats.issued_loads + out.stats.coalesced_loads,
            scalar.stats.issued_loads,
            "G={g}"
        );
        assert!(
            out.stats.coalesced_loads >= last,
            "G={g}: dedup rate must not shrink as the window grows"
        );
        last = out.stats.coalesced_loads;
    }
    assert!(last > 0, "the widest window must dedup something");
}

#[derive(Default)]
struct StatsProbe;

impl StatsProbe {
    /// Shared sanity: a stats value that must embed the AMU ledger after
    /// any driver in this suite ran (guards against a driver forgetting
    /// to flush the context).
    fn assert_flushed(stats: &EngineStats) {
        assert!(stats.issued_loads > 0, "driver returned stats without an AMU ledger: {stats:?}");
    }
}

#[test]
fn every_driver_flushes_the_amu_ledger() {
    let (ht, probes) = lab(2048, 4096, 128, 0x95);
    for technique in Technique::ALL {
        StatsProbe::assert_flushed(&probe(&ht, &probes, technique, &probe_cfg(Some(G))).stats);
    }
    let agg = AggTable::for_groups(64);
    let gcfg = GroupByConfig {
        tier: Some(TierSpec::headers_near(4)),
        coalesce: Some(G),
        ..Default::default()
    };
    StatsProbe::assert_flushed(
        &groupby(&agg, &Relation::zipf(4096, 64, 1.0, 0x96), Technique::Amac, &gcfg).stats,
    );
}

#[test]
fn lane_ledgers_sum_to_global_totals() {
    // Two probe queries share one AMAC window, fed lane by lane, tiered
    // + coalesced + faulted so every op-side counter moves. A window has
    // no no-ops and no bailouts, so the lane ledgers must reproduce its
    // global stats in *every* field — a counter the mux forgot to copy
    // into the per-query ledgers would break the equality.
    let (ht, probes) = lab(4096, 6000, 256, 0x97);
    let cfg = ProbeConfig {
        materialize: false,
        fault: Some(FaultPlan::fail_only(0xFA17, 40)),
        ..probe_cfg(Some(G))
    };
    let (qa, qb) = probes.tuples.split_at(2000);
    let mut mux = Mux::new();
    let la = mux.add(ProbeOp::new(&ht, &cfg, 0));
    let lb = mux.add(ProbeOp::new(&ht, &cfg, 0));
    // Feed the two queries in alternating quanta of 7 tuples.
    let mut window = AmacSession::new(TuningParams::default().in_flight);
    let mut global = EngineStats::default();
    let (mut ia, mut ib) = (qa.chunks(7), qb.chunks(7));
    loop {
        let (a, b) = (ia.next(), ib.next());
        if a.is_none() && b.is_none() {
            break;
        }
        window.feed_lane(&mut mux, la, a.unwrap_or_default(), &mut global);
        window.feed_lane(&mut mux, lb, b.unwrap_or_default(), &mut global);
    }
    assert!(window.drain_lanes(&mut mux, &mut global, usize::MAX));
    let mut sum = *mux.observed(la);
    sum.merge(mux.observed(lb));
    assert_eq!(sum, global, "lane ledgers must sum to the global stats, field for field");
    for (name, v) in [
        ("sim_stalls", global.sim_stalls),
        ("coalesced_loads", global.coalesced_loads),
        ("load_faults", global.load_faults),
        ("failed_lookups", global.failed_lookups),
        ("tag_rejects", global.tag_rejects),
    ] {
        assert!(v > 0, "{name} must move for the comparison to mean anything");
    }
}
