//! Cross-executor conformance suite for structured tracing
//! (`amac_trace`).
//!
//! Two invariants hold for every driver that can record a trace:
//!
//! 1. **Conservation** — the stall-attribution profile sums to exactly
//!    [`EngineStats::sim_stalls`] and the retirement spans count exactly
//!    [`EngineStats::lookups`] ([`amac_trace::Tracer::conserves`]): the
//!    trace is an exact decomposition of the simulated clock, not a
//!    sample of it.
//! 2. **Bit-identity** — tracing never touches the clock, so results
//!    *and* the full [`EngineStats`] ledger are bit-identical with
//!    tracing on or off.
//!
//! Coverage: all four executors, and the morsel runtime at 1/2/4
//! threads under every scheduling discipline.

use amac::engine::{EngineStats, Technique};
use amac_hashtable::{AggTable, HashTable};
use amac_ops::groupby::{groupby, GroupByConfig};
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::mutate::{mutate_mt_rt, MutateConfig};
use amac_ops::parallel::{
    groupby_mt_rt, probe_groupby_mt_rt, probe_groupby_two_phase_mt_rt, probe_mt_rt,
    probe_probe_mt_rt,
};
use amac_ops::pipeline::PipelineConfig;
use amac_runtime::{MorselConfig, Scheduling};
use amac_tier::{FaultPlan, TierSpec};
use amac_trace::Tracer;
use amac_workload::Relation;

/// A skewed lab: duplicate build keys give real chains, zipf probes keep
/// several chain hops in flight so the far tier actually stalls.
fn lab(n_build: usize, n_probe: usize, domain: u64, seed: u64) -> (HashTable, Relation) {
    let build = Relation::zipf(n_build, domain, 0.75, seed);
    let ht = HashTable::build_serial(&build);
    let probes = Relation::zipf(n_probe, domain, 1.0, seed ^ 0x5EED);
    (ht, probes)
}

fn probe_cfg(trace: bool) -> ProbeConfig {
    ProbeConfig {
        scan_all: true,
        tier: Some(TierSpec::headers_near(4)),
        trace,
        ..Default::default()
    }
}

#[test]
fn probe_trace_conserves_and_is_bit_identical_under_every_executor() {
    let (ht, probes) = lab(4096, 8192, 256, 0xA1);
    for technique in Technique::ALL {
        let off = probe(&ht, &probes, technique, &probe_cfg(false));
        let on = probe(&ht, &probes, technique, &probe_cfg(true));
        // Bit-identity: tracing must not perturb results or any counter.
        assert_eq!(on.matches, off.matches, "{technique}");
        assert_eq!(on.checksum, off.checksum, "{technique}");
        assert_eq!(on.out, off.out, "{technique}: materialization diverged");
        assert_eq!(on.stats, off.stats, "{technique}: EngineStats diverged under tracing");
        assert!(!off.trace.enabled(), "{technique}: untraced run must return a disabled tracer");
        // Conservation: Σ(attributed stalls) == sim_stalls and
        // Σ(retirement spans) == lookups, exactly.
        assert!(on.stats.sim_stalls > 0, "{technique}: tiered lab must stall");
        assert!(
            on.trace.conserves(on.stats.sim_stalls, on.stats.lookups),
            "{technique}: profile {} != sim_stalls {} or retires {} != lookups {}",
            on.trace.stalls(),
            on.stats.sim_stalls,
            on.trace.retires(),
            on.stats.lookups
        );
        assert_eq!(on.trace.dropped(), 0, "{technique}: unbounded tracer must not drop");
    }
}

#[test]
fn probe_trace_is_deterministic_per_executor() {
    let (ht, probes) = lab(4096, 8192, 256, 0xB2);
    for technique in Technique::ALL {
        let a = probe(&ht, &probes, technique, &probe_cfg(true));
        let b = probe(&ht, &probes, technique, &probe_cfg(true));
        assert_eq!(
            a.trace.canonical_hash(),
            b.trace.canonical_hash(),
            "{technique}: trace must be a pure function of the run"
        );
        assert_eq!(a.trace.render(), b.trace.render(), "{technique}");
    }
}

#[test]
fn faulted_probe_trace_conserves_and_counts_every_fault() {
    let (ht, probes) = lab(4096, 8192, 256, 0xC3);
    let plan = FaultPlan::fail_only(42, 60);
    for technique in Technique::ALL {
        let cfg = ProbeConfig { fault: Some(plan), ..probe_cfg(true) };
        let out = probe(&ht, &probes, technique, &cfg);
        assert!(out.stats.failed_lookups > 0, "{technique}: plan must bite");
        // Failed lookups still retire (as failed spans), so conservation
        // holds through faults; every fault decision is in the trace.
        assert!(
            out.trace.conserves(out.stats.sim_stalls, out.stats.lookups),
            "{technique}: conservation must survive faults"
        );
        assert_eq!(
            out.trace.faults(),
            out.stats.load_faults,
            "{technique}: trace faults != ledger load_faults"
        );
    }
}

#[test]
fn groupby_trace_conserves_and_is_bit_identical_under_every_executor() {
    let input = Relation::zipf(8192, 64, 1.0, 0xD4);
    let cfg = |trace| GroupByConfig {
        tier: Some(TierSpec::headers_near(4)),
        trace,
        ..Default::default()
    };
    for technique in Technique::ALL {
        let agg_off = AggTable::for_groups(64);
        let off = groupby(&agg_off, &input, technique, &cfg(false));
        let agg_on = AggTable::for_groups(64);
        let on = groupby(&agg_on, &input, technique, &cfg(true));
        assert_eq!(on.tuples, off.tuples, "{technique}");
        assert_eq!(on.stats, off.stats, "{technique}: EngineStats diverged under tracing");
        let (mut snap_off, mut snap_on) = (agg_off.groups(), agg_on.groups());
        snap_off.sort_by_key(|(k, _)| *k);
        snap_on.sort_by_key(|(k, _)| *k);
        assert_eq!(snap_on, snap_off, "{technique}: aggregate state diverged");
        assert!(
            on.trace.conserves(on.stats.sim_stalls, on.stats.lookups),
            "{technique}: group-by conservation failed"
        );
    }
}

/// Morsel-runtime probe through the public driver: `cfg.trace` arms a
/// tracer on every worker op and the harvest folds the per-worker
/// tracers into `report.trace` in tid order.
fn morsel_run(
    ht: &HashTable,
    probes: &Relation,
    threads: usize,
    scheduling: Scheduling,
    trace: bool,
) -> (u64, u64, EngineStats, Tracer) {
    let rt = MorselConfig { threads, morsel_tuples: 1024, scheduling };
    let out = probe_mt_rt(ht, probes, Technique::Amac, &probe_cfg(trace), &rt);
    (out.matches, out.checksum, out.stats, out.report.trace)
}

#[test]
fn morsel_runtime_trace_conserves_across_threads_and_schedulings() {
    // Aligned geometry (48 morsels of 1024 tuples split 1/2/4 ways) keeps
    // the per-morsel work a pure function of morsel contents, so the
    // merged ledger is identical for every thread count and discipline.
    let n = 48 * 1024;
    let (ht, probes) = lab(4096, n, 256, 0x91);
    let (m_ref, c_ref, s_ref, _) = morsel_run(&ht, &probes, 1, Scheduling::StaticChunk, false);
    assert!(s_ref.sim_stalls > 0, "tiered lab must stall");
    for threads in [1usize, 2, 4] {
        for scheduling in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
            let tag = format!("threads={threads} {scheduling:?}");
            let (m_off, c_off, s_off, t_off) = morsel_run(&ht, &probes, threads, scheduling, false);
            let (m_on, c_on, s_on, t_on) = morsel_run(&ht, &probes, threads, scheduling, true);
            // Bit-identity: tracing must not perturb the run. Full
            // EngineStats equality is only re-runnable under StaticChunk
            // (WorkSteal races the morsel→worker assignment, which
            // legitimately moves sim_stalls between runs); the racy
            // discipline compares the schedule-invariant counters.
            assert_eq!((m_on, c_on), (m_off, c_off), "{tag}: results diverged under tracing");
            if scheduling == Scheduling::StaticChunk {
                assert_eq!(s_on, s_off, "{tag}: EngineStats diverged under tracing");
            } else {
                assert_eq!(s_on.lookups, s_off.lookups, "{tag}");
                assert_eq!(s_on.stages, s_off.stages, "{tag}");
                assert_eq!(s_on.prefetches, s_off.prefetches, "{tag}");
                assert_eq!(s_on.nodes_visited, s_off.nodes_visited, "{tag}");
                assert_eq!(s_on.issued_loads, s_off.issued_loads, "{tag}");
            }
            assert!(!t_off.enabled(), "{tag}: untraced report must carry a disabled tracer");
            // …and results match the single-thread reference. (The sim
            // clock itself is *not* thread-invariant here: each worker
            // drains its window at chunk boundaries, so per-thread clocks
            // partition differently. Conservation is asserted against the
            // run's own ledger, which is the invariant that matters.)
            assert_eq!((m_on, c_on), (m_ref, c_ref), "{tag}: results diverged across threads");
            assert_eq!(s_on.lookups, s_ref.lookups, "{tag}");
            // Conservation of the merged per-worker tracers.
            assert!(
                t_on.conserves(s_on.sim_stalls, s_on.lookups),
                "{tag}: profile {} != sim_stalls {} or retires {} != lookups {}",
                t_on.stalls(),
                s_on.sim_stalls,
                t_on.retires(),
                s_on.lookups
            );
        }
    }
}

/// What a traced multi-threaded run owes its untraced twin: a disabled
/// tracer when off; when on, a non-empty trace that conserves the run's
/// own ledger, and an unperturbed ledger. Full `EngineStats` equality is
/// asserted where two runs are re-runnable — one worker, or a read-only
/// op under static chunks; latched and CAS-ing ops at 2+ threads retry a
/// schedule-dependent number of times, so those compare `lookups`.
fn assert_traced_twin(
    tag: &str,
    exact: bool,
    on: (EngineStats, &Tracer),
    off: (EngineStats, &Tracer),
) {
    assert!(!off.1.enabled(), "{tag}: untraced run must return a disabled tracer");
    assert!(on.1.enabled() && !on.1.is_empty(), "{tag}: cfg.trace was ignored");
    if exact {
        assert_eq!(on.0, off.0, "{tag}: EngineStats diverged under tracing");
    } else {
        assert_eq!(on.0.lookups, off.0.lookups, "{tag}");
    }
    assert!(on.0.sim_stalls > 0, "{tag}: tiered lab must stall");
    assert!(
        on.1.conserves(on.0.sim_stalls, on.0.lookups),
        "{tag}: profile {} != sim_stalls {} or retires {} != lookups {}",
        on.1.stalls(),
        on.0.sim_stalls,
        on.1.retires(),
        on.0.lookups
    );
}

#[test]
fn every_mt_driver_honours_cfg_trace_at_1_2_4_threads() {
    let tier = Some(TierSpec::headers_near(4));
    let (ht, probes) = lab(4096, 8 * 1024, 256, 0xB1);
    let groups = Relation::zipf(8 * 1024, 64, 1.0, 0xB2);
    // Fused chains: dimension payload = group id / key into the 2nd join.
    let dim = Relation::fk_dimension(1024, 32, 0xB3);
    let dim2 = Relation::fk_dimension(32, 1 << 16, 0xB4);
    let fact = Relation::fk_uniform(&dim, 8 * 1024, 0xB5);
    let (ht1, ht2) = (HashTable::build_serial(&dim), HashTable::build_serial(&dim2));
    // Mutations walk the frozen part of a chain: one snapshot, restored per run.
    let frozen = HashTable::build_serial(&Relation::dense_unique(4096, 0xB6));
    frozen.freeze();
    let snap = frozen.snapshot();
    let upserts = Relation::zipf(8 * 1024, 4096, 1.0, 0xB7);

    for threads in [1usize, 2, 4] {
        let rt = MorselConfig { threads, morsel_tuples: 1024, scheduling: Scheduling::StaticChunk };
        let one = threads == 1;

        let run = |trace| probe_mt_rt(&ht, &probes, Technique::Amac, &probe_cfg(trace), &rt);
        let (on, off) = (run(true), run(false));
        assert_eq!((on.matches, on.checksum), (off.matches, off.checksum), "probe {threads}t");
        assert_traced_twin(
            &format!("probe_mt_rt {threads}t"),
            true,
            (on.stats, &on.report.trace),
            (off.stats, &off.report.trace),
        );

        let run = |trace| {
            let agg = AggTable::for_groups(64);
            let cfg = GroupByConfig { tier, trace, ..Default::default() };
            let out = groupby_mt_rt(&agg, &groups, Technique::Amac, &cfg, &rt);
            (out, sorted_groups(&agg))
        };
        let ((on, g_on), (off, g_off)) = (run(true), run(false));
        assert_eq!(g_on, g_off, "groupby {threads}t: aggregates diverged under tracing");
        assert_traced_twin(
            &format!("groupby_mt_rt {threads}t"),
            one,
            (on.stats, &on.report.trace),
            (off.stats, &off.report.trace),
        );

        let pipe = |trace| PipelineConfig { tier, trace, ..Default::default() };
        let run = |two_phase: bool, trace| {
            let agg = AggTable::for_groups(32);
            let drive = if two_phase { probe_groupby_two_phase_mt_rt } else { probe_groupby_mt_rt };
            let out = drive(&ht1, &agg, &fact, Technique::Amac, &pipe(trace), &rt);
            (out, sorted_groups(&agg))
        };
        for two_phase in [false, true] {
            let ((on, g_on), (off, g_off)) = (run(two_phase, true), run(two_phase, false));
            let tag = format!("probe_groupby(two_phase={two_phase}) {threads}t");
            assert_eq!(g_on, g_off, "{tag}: aggregates diverged under tracing");
            assert_eq!(on.matched, off.matched, "{tag}");
            assert_traced_twin(
                &tag,
                one,
                (on.out.stats, &on.out.report.trace),
                (off.out.stats, &off.out.report.trace),
            );
        }

        let run = |trace| probe_probe_mt_rt(&ht1, &ht2, &fact, Technique::Amac, &pipe(trace), &rt);
        let (on, off) = (run(true), run(false));
        assert_eq!(
            (on.out.matches, on.out.checksum),
            (off.out.matches, off.out.checksum),
            "probe_probe {threads}t"
        );
        assert_traced_twin(
            &format!("probe_probe_mt_rt {threads}t"),
            true,
            (on.out.stats, &on.out.report.trace),
            (off.out.stats, &off.out.report.trace),
        );

        let run = |trace| {
            let table = HashTable::restore(&snap);
            let cfg = MutateConfig { tier, trace, ..Default::default() };
            let out = mutate_mt_rt(&table, &upserts, Technique::Amac, &cfg, &rt);
            (out, table.contents_sorted())
        };
        let ((on, t_on), (off, t_off)) = (run(true), run(false));
        assert_eq!(t_on, t_off, "mutate {threads}t: table diverged under tracing");
        assert_eq!((on.applied, on.merged), (off.applied, off.merged), "mutate {threads}t");
        assert_traced_twin(
            &format!("mutate_mt_rt {threads}t"),
            one,
            (on.stats, &on.trace),
            (off.stats, &off.trace),
        );
    }
}

fn sorted_groups(agg: &AggTable) -> Vec<(u64, amac_hashtable::agg::AggValues)> {
    let mut g = agg.groups();
    g.sort_by_key(|(k, _)| *k);
    g
}

#[test]
fn single_threaded_morsel_trace_matches_the_one_shot_run() {
    // One worker, static chunks: the morsel feed is the input in order,
    // so the harvested trace must hash identically to the one-shot
    // executor's trace (morsel instants are excluded from the canonical
    // form — they are scheduling detail, not semantics).
    let (ht, probes) = lab(4096, 8 * 1024, 256, 0x92);
    let one_shot = probe(
        &ht,
        &probes,
        Technique::Amac,
        &ProbeConfig { materialize: false, ..probe_cfg(true) },
    );
    let (_, _, stats, trace) = morsel_run(&ht, &probes, 1, Scheduling::StaticChunk, true);
    assert_eq!(stats.lookups, one_shot.stats.lookups);
    assert_eq!(stats.sim_stalls, one_shot.stats.sim_stalls);
    assert_eq!(
        trace.canonical_hash(),
        one_shot.trace.canonical_hash(),
        "single-thread morsel trace must canonicalize to the one-shot trace"
    );
}

#[test]
fn disabled_tracer_never_claims_conservation() {
    // `conserves` on a disabled tracer is `false` even for the trivial
    // (0, 0) claim — an untraced run has no profile to vouch for.
    let t = Tracer::off();
    assert!(!t.conserves(0, 0));
}
