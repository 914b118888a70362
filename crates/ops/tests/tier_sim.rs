//! The far-memory cost model end-to-end over the real operators: results
//! must be bit-identical with tiering on vs off under every executor and
//! the morsel runtime, the simulated counters must reproduce the paper's
//! hiding argument (deep window ⇒ no stalls; serial execution ⇒ exposed
//! latency), and `sim_cycles` must be a pure work count — identical
//! across executors, thread counts and schedulings.

use amac::engine::{run_amac, AmacSession, EngineStats, Technique, TuningParams};
use amac_hashtable::{AggTable, HashTable};
use amac_ops::groupby::{groupby, GroupByConfig};
use amac_ops::join::{probe, ProbeConfig, ProbeOp};
use amac_ops::parallel::{probe_mt_rt, Scheduling};
use amac_ops::pipeline::{probe_then_groupby, PipelineConfig};
use amac_runtime::MorselConfig;
use amac_tier::{CostModel, FaultPlan, TierPolicy, TierSpec};
use amac_workload::Relation;

/// Executed op calls: productive stages + bailout-cleanup stages +
/// blocked latch attempts. Every one costs exactly one simulated work
/// tick, so `sim_cycles` must equal this sum for non-fused ops (fused
/// chains add one tick per operator handoff — the downstream `start`
/// that runs inside the upstream's terminal rotation).
fn work_calls(s: &amac::engine::EngineStats) -> u64 {
    s.stages + s.bailout_stages + s.latch_retries
}

/// Zipf(0.5) build over a narrow domain: chain lengths vary, so GP/SPP
/// see early exits and bailouts; uniform probes with `scan_all` walk the
/// full chains.
fn lab(n: usize) -> (HashTable, Relation) {
    let domain = (n as u64 / 16).max(64);
    let build = Relation::zipf(n, domain, 0.5, 0x7E1E);
    let ht = HashTable::build_serial(&build);
    let probes = Relation::zipf(n, domain, 0.0, 0x7E1E);
    (ht, probes)
}

fn tiered_cfg(mult: u64, m: usize) -> ProbeConfig {
    ProbeConfig {
        params: TuningParams::with_in_flight(m),
        scan_all: true,
        materialize: false,
        tier: Some(TierSpec::headers_near(mult)),
        ..Default::default()
    }
}

#[test]
fn tiering_never_changes_results_any_executor() {
    let (ht, probes) = lab(4096);
    for technique in Technique::ALL {
        let m = TuningParams::paper_best(technique).in_flight;
        let plain = probe(&ht, &probes, technique, &ProbeConfig { tier: None, ..tiered_cfg(8, m) });
        let tiered = probe(&ht, &probes, technique, &tiered_cfg(8, m));
        assert_eq!(plain.matches, tiered.matches, "{technique}: matches");
        assert_eq!(plain.checksum, tiered.checksum, "{technique}: checksum");
        assert_eq!(plain.stats.lookups, tiered.stats.lookups, "{technique}");
        assert_eq!(plain.stats.nodes_visited, tiered.stats.nodes_visited, "{technique}");
        assert_eq!(plain.stats.sim_cycles, 0, "{technique}: untiered runs charge nothing");
        assert_eq!(plain.stats.sim_stalls, 0, "{technique}");
        // Work ticks = executed op calls, exactly.
        assert_eq!(
            tiered.stats.sim_cycles,
            work_calls(&tiered.stats),
            "{technique}: ticks == op calls"
        );
    }
}

#[test]
fn deep_window_hides_what_serial_execution_exposes() {
    let (ht, probes) = lab(4096);
    for mult in [1u64, 2, 4, 8] {
        // AMAC with M > far latency: every load lands before its slot
        // rotates back — zero stalls at every multiplier.
        let far = CostModel::with_multiplier(mult).far_latency() as usize;
        let amac = probe(&ht, &probes, Technique::Amac, &tiered_cfg(mult, far + 2));
        assert_eq!(
            amac.stats.sim_stalls,
            0,
            "mult {mult}: M = {} must hide a {far}-tick far tier",
            far + 2
        );
        // The baseline dereferences in the very next op call after
        // issuing, with zero intervening work: every hop exposes the full
        // tier latency.
        let base = probe(&ht, &probes, Technique::Baseline, &tiered_cfg(mult, 1));
        let hops = base.stats.nodes_visited;
        let l = CostModel::with_multiplier(mult);
        let near = l.latency(amac_tier::Tier::Near);
        let farl = l.far_latency();
        // First hop touches the near header, later hops the far nodes.
        let want = base.stats.lookups * near + (hops - base.stats.lookups) * farl;
        assert_eq!(base.stats.sim_stalls, want, "mult {mult}: baseline exposes full latency/hop");
    }
}

#[test]
fn stall_share_grows_with_far_latency_for_shallow_windows() {
    let (ht, probes) = lab(4096);
    // AMAC at the paper's fixed M = 10 cannot hide a 32-tick far tier.
    let at = |mult: u64| probe(&ht, &probes, Technique::Amac, &tiered_cfg(mult, 10)).stats;
    assert_eq!(at(1).sim_stalls, 0, "M = 10 hides the 4-tick near latency");
    let s8 = at(8);
    assert!(s8.sim_stalls > 0, "M = 10 cannot hide 32 ticks");
    assert!(s8.stall_share() > 0.5, "exposed latency should dominate: {}", s8.stall_share());
}

#[test]
fn placement_policies_order_correctly() {
    let (ht, probes) = lab(4096);
    let share = |policy: TierPolicy| {
        let cfg = ProbeConfig {
            tier: Some(TierSpec { model: CostModel::with_multiplier(8), policy }),
            ..tiered_cfg(8, 10)
        };
        probe(&ht, &probes, Technique::Amac, &cfg).stats.stall_share()
    };
    let all_near = share(TierPolicy::AllNear);
    let headers_near = share(TierPolicy::HeadersNear);
    assert_eq!(all_near, 0.0, "all-near at M = 10 is fully hidden");
    assert!(headers_near > 0.0, "far chain nodes must expose stalls at M = 10");
}

#[test]
fn morsel_runtime_matches_one_shot_and_is_thread_invariant() {
    let (ht, probes) = lab(8192);
    let cfg = tiered_cfg(8, 10);
    let st = probe(&ht, &probes, Technique::Amac, &cfg);
    let mut cycles_ref = None;
    for threads in [1usize, 2, 4] {
        for scheduling in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
            let rt = MorselConfig { threads, morsel_tuples: 1024, scheduling };
            let mt = probe_mt_rt(&ht, &probes, Technique::Amac, &cfg, &rt);
            let tag = format!("{threads}t/{scheduling:?}");
            assert_eq!(mt.matches, st.matches, "{tag}: matches");
            assert_eq!(mt.checksum, st.checksum, "{tag}: checksum");
            // Work ticks are partition-independent: every lookup costs
            // 1 start + chain-length steps no matter who runs it.
            assert_eq!(mt.stats.sim_cycles, st.stats.sim_cycles, "{tag}: sim_cycles");
            match cycles_ref {
                None => cycles_ref = Some(mt.stats.sim_cycles),
                Some(c) => assert_eq!(mt.stats.sim_cycles, c, "{tag}: thread-count varied work"),
            }
        }
    }
}

#[test]
fn groupby_and_fused_pipeline_results_unchanged_by_tiering() {
    let dim = Relation::fk_dimension(1024, 32, 0x51);
    let fact = Relation::fk_uniform(&dim, 12_000, 0x52);
    let ht = HashTable::build_serial(&dim);
    let spec = TierSpec::headers_near(8);

    for technique in Technique::ALL {
        // Group-by: tiered vs untiered tables must agree exactly.
        let plain_t = AggTable::for_groups(32);
        groupby(&plain_t, &fact, technique, &GroupByConfig::default());
        let tiered_t = AggTable::for_groups(32);
        let out = groupby(
            &tiered_t,
            &fact,
            technique,
            &GroupByConfig { tier: Some(spec), ..Default::default() },
        );
        let snap = |t: &AggTable| {
            let mut g = t.groups();
            g.sort_by_key(|(k, _)| *k);
            g
        };
        assert_eq!(snap(&plain_t), snap(&tiered_t), "{technique}: groupby diverged");
        assert_eq!(out.stats.sim_cycles, work_calls(&out.stats), "{technique}: ticks == op calls");

        // Fused probe→group-by: one pipeline-wide clock, same results.
        let plain_p = AggTable::for_groups(1024);
        let a = probe_then_groupby(&ht, &plain_p, &fact, technique, &PipelineConfig::default());
        let tiered_p = AggTable::for_groups(1024);
        let b = probe_then_groupby(
            &ht,
            &tiered_p,
            &fact,
            technique,
            &PipelineConfig { tier: Some(spec), ..Default::default() },
        );
        assert_eq!(a.matched, b.matched, "{technique}");
        assert_eq!(a.aggregated, b.aggregated, "{technique}");
        assert_eq!(snap(&plain_p), snap(&tiered_p), "{technique}: fused aggregates diverged");
        assert!(b.stats.sim_cycles > 0, "{technique}: fused chain must charge its clock");
        // One extra tick per operator handoff: the downstream start runs
        // inside the upstream's terminal rotation (no filter ⇒ every
        // matched probe hands off).
        assert_eq!(
            b.stats.sim_cycles,
            work_calls(&b.stats) + b.aggregated,
            "{technique}: fused ticks == op calls + handoffs"
        );
    }
}

#[test]
fn auto_sim_picks_deeper_window_at_higher_far_latency() {
    use amac::engine::{AUTO_MAX_IN_FLIGHT, AUTO_MIN_IN_FLIGHT};
    let (ht, probes) = lab(8192);
    let pick = |mult: u64| {
        let cfg = tiered_cfg(mult, 10);
        TuningParams::auto_sim(|| ProbeOp::new(&ht, &cfg, 0), &probes.tuples).in_flight
    };
    let m1 = pick(1);
    let m8 = pick(8);
    for (mult, m) in [(1u64, m1), (8, m8)] {
        assert!(
            (AUTO_MIN_IN_FLIGHT..=AUTO_MAX_IN_FLIGHT).contains(&m),
            "mult {mult}: picked {m} outside the documented ladder bounds"
        );
    }
    // 1x: the default window already hides the 4-tick near latency, so
    // the climb must rest on the default rung.
    assert_eq!(m1, TuningParams::default().in_flight, "1x: no stalls to improve on");
    // 8x: windows shallower than the 32-tick far latency pay stalls
    // every hop; the climb must deepen until the window hides them.
    assert!(m8 > m1, "the tuner must deepen the window as far latency grows ({m1} -> {m8})");
    let tuned = probe(&ht, &probes, Technique::Amac, &tiered_cfg(8, m8));
    assert_eq!(tuned.stats.sim_stalls, 0, "8x: the tuned window M = {m8} must be stall-free");
    // Deterministic: same inputs, same pick.
    assert_eq!(pick(8), m8);
}

#[test]
fn mux_lane_ledgers_carry_sim_ticks_exactly() {
    use amac::engine::mux::Mux;
    let (ht, probes) = lab(4096);
    let cfg = tiered_cfg(8, 10);
    let half = probes.len() / 2;
    let (qa, qb) = probes.tuples.split_at(half);
    let mut mux = Mux::new();
    let la = mux.add(ProbeOp::new(&ht, &cfg, 0));
    let lb = mux.add(ProbeOp::new(&ht, &cfg, 0));
    let mut window = AmacSession::new(cfg.params.in_flight);
    let mut global = EngineStats::default();
    for (a, b) in qa.chunks(64).zip(qb.chunks(64)) {
        window.feed_lane(&mut mux, la, a, &mut global);
        window.feed_lane(&mut mux, lb, b, &mut global);
    }
    assert!(window.drain_lanes(&mut mux, &mut global, usize::MAX));
    let (a, b) = (*mux.observed(la), *mux.observed(lb));
    assert!(global.sim_cycles > 0);
    assert_eq!(a.sim_cycles + b.sim_cycles, global.sim_cycles, "lane work must sum to global");
    assert_eq!(a.sim_stalls + b.sim_stalls, global.sim_stalls, "lane stalls must sum to global");
}

/// Probe `cfg` through its window fed in `chunk`-sized feeds, then drain.
fn chunked(
    ht: &HashTable,
    probes: &Relation,
    cfg: &ProbeConfig,
    chunk: usize,
) -> (EngineStats, u64) {
    let mut op = ProbeOp::new(ht, cfg, 0);
    let mut stats = EngineStats::default();
    let mut window = AmacSession::new(cfg.params.in_flight);
    for c in probes.tuples.chunks(chunk) {
        window.feed(&mut op, c, &mut stats);
    }
    window.drain(&mut op, &mut stats);
    (stats, op.checksum())
}

#[test]
fn chunked_window_equals_the_one_shot_run_tiered_and_faulted() {
    const M: usize = 10;
    let (ht, probes) = lab(4096);
    let cfg = ProbeConfig { fault: Some(FaultPlan::fail_only(0xABCD, 100)), ..tiered_cfg(4, M) };
    let one_shot = |cfg: &ProbeConfig| {
        let mut op = ProbeOp::new(&ht, cfg, 0);
        (run_amac(&mut op, &probes.tuples, M), op.checksum())
    };
    let want = one_shot(&cfg);
    assert!(want.0.failed_lookups > 0 && want.0.sim_stalls > 0, "the lab must fault and stall");
    for chunk in [1, M - 1, M, 37, probes.len()] {
        assert_eq!(chunked(&ht, &probes, &cfg, chunk), want, "chunk {chunk}");
    }
    // A feed boundary seals the open commit group, so under coalescing only
    // feeds ending on a group boundary reproduce the one-shot grouping...
    let cfg = ProbeConfig { coalesce: Some(8), ..cfg };
    let want = one_shot(&cfg);
    assert!(want.0.coalesced_loads > 0, "Zipf-built chains must share lines");
    for chunk in [8, 16, 40, probes.len()] {
        assert_eq!(chunked(&ht, &probes, &cfg, chunk), want, "coalesced, chunk {chunk}");
    }
    // ...and any other chunking regroups the same requests: which of
    // them issue changes; their number, the faults and the matches do not.
    let invariant = |(s, checksum): &(EngineStats, u64)| {
        (s.issued_loads + s.coalesced_loads, s.load_faults, s.failed_lookups, *checksum)
    };
    for chunk in [1, M - 1, M, 37] {
        let got = chunked(&ht, &probes, &cfg, chunk);
        assert_eq!(invariant(&got), invariant(&want), "coalesced, chunk {chunk}");
    }
}

/// Fault decisions hash `(key, hop)`, never issue order: the same faulted
/// probe injects the same faults at 1, 2 and 4 threads.
#[test]
fn injected_faults_are_identical_at_one_two_and_four_threads() {
    const SEED: u64 = 0xC4A05;
    let dim = Relation::dense_unique(2048, SEED);
    let ht = HashTable::build_serial(&dim);
    let streams: Vec<Relation> =
        (0..2).map(|i| Relation::fk_uniform(&dim, 2048, SEED + 100 + i)).collect();
    let cfg = ProbeConfig {
        params: TuningParams::with_in_flight(10),
        scan_all: true,
        materialize: false,
        fault: Some(FaultPlan::fail_only(SEED ^ 0x7000, 5)),
        ..Default::default()
    };
    let sigs = [1usize, 2, 4].map(|threads| {
        let rt = MorselConfig { threads, morsel_tuples: 1024, ..Default::default() };
        streams
            .iter()
            .map(|s| {
                let o = probe_mt_rt(&ht, s, Technique::Amac, &cfg, &rt);
                (o.stats.load_faults, o.stats.failed_lookups, o.matches, o.checksum)
            })
            .collect::<Vec<_>>()
    });
    assert!(sigs[0].iter().any(|s| s.0 > 0), "the plan injected no fault");
    assert_eq!(sigs[0], sigs[1], "fault sets diverged between 1 and 2 threads");
    assert_eq!(sigs[0], sigs[2], "fault sets diverged between 1 and 4 threads");
}
