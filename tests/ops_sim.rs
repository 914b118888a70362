//! The operator layer's seeded differential suite: the first 64 seeds of
//! `ops_cases::gen`, each through `ops_cases::check` (its invariants are
//! listed there), what they cover between them, and the claims that are
//! shapes rather than differentials.

mod ops_cases;

use std::collections::BTreeSet;

use amac_suite::engine::engine::{run_amac_modulo, AmacSession};
use amac_suite::engine::engine::{AUTO_MAX_IN_FLIGHT, AUTO_MIN_IN_FLIGHT};
use amac_suite::engine::{EngineStats, Hooks, LookupOp, Technique, TuningParams};
use amac_suite::hashtable::HashTable;
use amac_suite::mem::prefetch::PrefetchHint;
use amac_suite::ops::join::{probe, ProbeConfig, ProbeOp};
use amac_suite::ops::mutate::{MutateConfig, MutateOp};
use amac_suite::server::{Request, ServeConfig, ServeSession};
use amac_suite::tier::{CostModel, Tier, TierPolicy, TierSpec, WalRecord};
use amac_suite::trace::{TraceEvent, Tracer};
use amac_suite::workload::{Relation, Tuple};
use ops_cases::{check, gen, kernel_host, loaded, recounts, Probe, COUNTERS, OPS};

// --- Generated cases -------------------------------------------------------

/// 64 seeds on two threads, which between them reach every (op × driver)
/// cell and every technique, long chains and two-match nodes, every
/// remainder of an 8-lane group, failed lookups, coalesced loads and
/// stalls, and — on a host with AVX-512F/DQ — the probe's batch stage.
#[test]
fn generated_cases_hold_every_invariant() {
    let seen = |seeds: std::ops::Range<u64>| {
        seeds.map(|seed| check(&gen(seed))).fold(BTreeSet::new(), |mut a, b| (a.extend(b), a).1)
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| seen(0..32));
        (seen(32..64), a.join().unwrap())
    });
    let seen: BTreeSet<String> = a.union(&b).cloned().collect();
    let kernel = kernel_host();
    let path = if seen.contains("batch stage") { "batch (the AVX-512 kernel)" } else { "scalar" };
    println!("ops_sim: the plain AMAC probe took the {path} stage; both matched the scalar ones");
    let drivers = ["OneShot", "Chunked", "Morsel", "Mux"];
    let mut want: BTreeSet<String> =
        OPS.iter().flat_map(|op| drivers.map(|d| format!("{op:?} × {d}"))).collect();
    want.extend(Technique::ALL.map(|t| t.label().to_string()));
    want.extend((0..8).map(|r| format!("remainder {r}")));
    want.extend(
        ["chain ≥ 3 nodes", "two-match node", "huge headers"]
            .iter()
            .chain(&COUNTERS)
            .map(|s| s.to_string()),
    );
    want.extend(COUNTERS.map(|name| format!("lanes, {name}")));
    want.extend(kernel.then(|| "batch stage".to_string()));
    let missing: Vec<_> = want.difference(&seen).collect();
    assert!(missing.is_empty(), "coverage: {missing:?}");
}

// --- Shapes ----------------------------------------------------------------

/// Zipf(0.5) build over a narrow domain (chains of varying length),
/// uniform probes with `scan_all`.
fn lab(n: usize) -> (HashTable, Relation) {
    let domain = (n as u64 / 16).max(64);
    let ht = HashTable::build_serial(&Relation::zipf(n, domain, 0.5, 0x7E1E));
    (ht, Relation::zipf(n, domain, 0.0, 0x7E1E))
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
fn deep_window_hides_what_serial_execution_exposes() {
    let (ht, probes) = lab(4096);
    for mult in [1u64, 2, 4, 8] {
        // AMAC with M > far latency: every load lands before its slot
        // rotates back.
        let l = CostModel::with_multiplier(mult);
        let far = l.far_latency();
        let amac = probe(&ht, &probes, Technique::Amac, &tiered_cfg(mult, far as usize + 2));
        assert_eq!(amac.stats.sim_stalls, 0, "mult {mult}: M = {} hides {far} ticks", far + 2);
        // The baseline dereferences right after issuing: the header's near
        // latency, then the far latency per chain hop, fully exposed.
        let base = probe(&ht, &probes, Technique::Baseline, &tiered_cfg(mult, 1)).stats;
        let want = base.lookups * l.latency(Tier::Near) + (base.nodes_visited - base.lookups) * far;
        assert_eq!(base.sim_stalls, want, "mult {mult}: baseline exposes full latency/hop");
    }
}

#[test]
fn stall_share_grows_with_far_latency_for_shallow_windows() {
    let (ht, probes) = lab(4096);
    let at = |mult: u64| probe(&ht, &probes, Technique::Amac, &tiered_cfg(mult, 10)).stats;
    assert_eq!(at(1).sim_stalls, 0, "M = 10 hides the 4-tick near latency");
    let s8 = at(8);
    assert!(s8.sim_stalls > 0 && s8.stall_share() > 0.5, "M = 10 exposes 32 ticks: {s8:?}");
}

#[test]
fn placement_policies_order_correctly() {
    let (ht, probes) = lab(4096);
    let share = |policy: TierPolicy| {
        let tier = Some(TierSpec { model: CostModel::with_multiplier(8), policy });
        let cfg = ProbeConfig { tier, ..tiered_cfg(8, 10) };
        probe(&ht, &probes, Technique::Amac, &cfg).stats.stall_share()
    };
    assert_eq!(share(TierPolicy::AllNear), 0.0, "all-near at M = 10 is fully hidden");
    assert!(share(TierPolicy::HeadersNear) > 0.0, "far chain nodes expose stalls at M = 10");
}

#[test]
fn auto_sim_picks_deeper_window_at_higher_far_latency() {
    let (ht, probes) = lab(8192);
    let pick = |mult: u64| {
        let cfg = tiered_cfg(mult, 10);
        TuningParams::auto_sim(|| ProbeOp::new(&ht, &cfg, 0), &probes.tuples).in_flight
    };
    let (m1, m8) = (pick(1), pick(8));
    for m in [m1, m8] {
        assert!((AUTO_MIN_IN_FLIGHT..=AUTO_MAX_IN_FLIGHT).contains(&m), "picked {m}");
    }
    assert_eq!(m1, TuningParams::default().in_flight, "1x: no stalls to improve on");
    assert!(m8 > m1, "the tuner deepens the window as far latency grows ({m1} -> {m8})");
    let tuned = probe(&ht, &probes, Technique::Amac, &tiered_cfg(8, m8));
    assert_eq!(tuned.stats.sim_stalls, 0, "8x: the tuned window M = {m8} is stall-free");
    assert_eq!(pick(8), m8, "the pick is deterministic");
}

/// Zipf(1) probes of a Zipf(0.75)-built table: hot lines in flight
/// together, so coalescing has work at every window.
fn skewed() -> (HashTable, Relation) {
    let ht = HashTable::build_serial(&Relation::zipf(4096, 256, 0.75, 0x94));
    (ht, Relation::zipf(8192, 256, 1.0, 0x94 ^ 0x5EED))
}

#[test]
fn coalesced_duplicates_skip_the_hint_and_results_agree_across_widths() {
    let (ht, probes) = skewed();
    let cfg = |coalesce| ProbeConfig { coalesce, materialize: true, ..tiered_cfg(4, 10) };
    let scalar = probe(&ht, &probes, Technique::Amac, &cfg(None));
    let mut last = 0u64;
    for g in [1usize, 2, 4, 8, 16] {
        let out = probe(&ht, &probes, Technique::Amac, &cfg(Some(g)));
        let (x, y) = (&out, &scalar);
        assert_eq!((x.matches, x.checksum, &x.out), (y.matches, y.checksum, &y.out), "G={g}");
        let s = out.stats;
        assert_eq!(s.issued_loads + s.coalesced_loads, scalar.stats.issued_loads, "G={g}");
        assert!(s.coalesced_loads >= last, "G={g}: dedup shrank as the window grew");
        last = s.coalesced_loads;
    }
    assert!(last > 0, "the widest window dedups something");
}

#[test]
fn hint_none_reports_no_prefetches_in_both_modes() {
    let (ht, probes) = skewed();
    let reference = probe(&ht, &probes, Technique::Amac, &ProbeConfig::default());
    assert!(reference.stats.prefetches > 0);
    for tier in [None, Some(TierSpec::headers_near(1))] {
        let cfg = ProbeConfig { hint: PrefetchHint::None, tier, ..Default::default() };
        let out = probe(&ht, &probes, Technique::Amac, &cfg);
        assert_eq!(out.stats.prefetches, 0, "tier {tier:?}");
        assert_eq!((out.matches, out.checksum), (reference.matches, reference.checksum));
        assert_eq!(out.stats.issued_loads, reference.stats.issued_loads, "requests still count");
    }
}

#[test]
fn a_query_without_prefetches_leaves_the_session_totals_exact() {
    // Two probe queries share a serving window, one with its prefetch gate
    // off: each lane counts prefetches with its own gate, and the session
    // counts what its queries' reports sum to.
    let (ht, r, _) = chained();
    let (a, b) = (Relation::fk_uniform(&r, 2_000, 21), Relation::fk_uniform(&r, 2_000, 22));
    let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
    let quiet = ProbeConfig { hint: PrefetchHint::None, ..Default::default() };
    let loud = srv.submit(Request::Probe { probes: &a, cfg: ProbeConfig::default() }).unwrap();
    srv.submit(Request::Probe { probes: &b, cfg: quiet }).unwrap();
    let out = srv.finish();
    let mut sum = EngineStats::default();
    for rep in &out.reports {
        assert_eq!(rep.stats.prefetches > 0, rep.qid == loud, "query {:?}", rep.qid);
        sum.merge(&rep.stats);
    }
    assert_eq!(sum, out.stats, "per-query reports vs session stats");
}

/// The session tests' build side, 4096 unique keys and 64 copies of key
/// 7, loaded 8 keys per bucket (multi-node chains); and their probes,
/// drawn from the build side (some on the duplicated key), every fifth a
/// miss.
fn chained() -> (HashTable, Relation, Relation) {
    let mut tuples = Relation::dense_unique(4096, 11).tuples;
    tuples.extend((0..64).map(|i| Tuple::new(7, 10_000 + i)));
    let r = Relation::from_tuples(tuples);
    let ht = loaded(HashTable::with_buckets(512), r.tuples.iter().copied());
    let mut probes = Relation::fk_uniform(&r, 3 * 4096, 12).tuples;
    probes.iter_mut().enumerate().step_by(5).for_each(|(i, t)| t.key = 1_000_000 + i as u64);
    (ht, r, Relation::from_tuples(probes))
}

/// Window width of the session tests.
const M: usize = 10;

#[test]
fn a_tracer_armed_between_feeds_sees_exactly_what_follows() {
    let (ht, _, s) = chained();
    // One session fed `s` in two halves on the scalar stages, a tracer
    // armed before feed `arm` (never for `None`); returns the results,
    // stats, trace, and loads issued and lookups in flight at the arm.
    let halves = |arm: Option<usize>| {
        let mut op = Probe::new(&ht, &ProbeConfig::default(), s.len(), false);
        assert!(op.ctx().plain(), "a default probe is plain");
        let (mut session, mut stats, mut at_arm) =
            (AmacSession::new(M), EngineStats::default(), (0, 0));
        for (i, half) in s.tuples.chunks(s.len().div_ceil(2)).enumerate() {
            if arm == Some(i) {
                op.ctx().set_tracer(Tracer::on());
                at_arm = (stats.issued_loads, session.in_flight());
            }
            session.feed(&mut op, half, &mut stats);
        }
        session.drain(&mut op, &mut stats);
        let trace = op.ctx().take_tracer();
        ((op.op.matches(), op.op.checksum(), op.op.take_out()), stats, trace, at_arm)
    };
    let (out, stats, off, _) = halves(None);
    assert!(!off.enabled() && off.is_empty());
    let (full_out, full_stats, full, _) = halves(Some(0));
    let (mid_out, mid_stats, mid, (issued, in_flight)) = halves(Some(1));
    // Tracing reads and never counts.
    assert_eq!((&full_out, &full_stats), (&out, &stats), "traced from the start");
    assert_eq!((&mid_out, &mid_stats), (&out, &stats), "traced from the second feed");
    assert!(in_flight == M && issued > 0, "armed mid-run, with a full window in flight");
    // The late trace is the tail of the full one.
    let tail: Vec<&TraceEvent> = full.events().skip(full.len() - mid.len()).collect();
    assert_eq!(mid.events().collect::<Vec<_>>(), tail);
    assert!(mid.len() < full.len() && mid.retires() < stats.lookups);
    // Loads are recorded at their wait: those issued after arming, plus
    // the one each lookup in flight at the arm was waiting on.
    assert_eq!(mid.loads(), stats.issued_loads - issued + in_flight as u64);
    assert_eq!(full.loads(), stats.issued_loads, "from the start: every load issued");
}

/// Feed `inputs` to a plain op and its metered twin in lockstep, then give
/// each drain up every 3 rotations; `check(plain, twin, plain stats, twin
/// stats, in flight, where)` after every feed and give-up.
fn give_up_in_lockstep<O: LookupOp<Input = Tuple>>(
    mut plain: O,
    mut twin: O,
    inputs: &[Tuple],
    mut check: impl FnMut(&mut O, &mut O, &EngineStats, &EngineStats, usize, &str),
) -> usize {
    assert!(plain.ctx().plain() && !twin.ctx().plain(), "one plain op, one metered");
    let (mut a, mut b) = (AmacSession::new(M), AmacSession::new(M));
    let (mut sa, mut sb) = (EngineStats::default(), EngineStats::default());
    for chunk in inputs.chunks(333) {
        a.feed(&mut plain, chunk, &mut sa);
        b.feed(&mut twin, chunk, &mut sb);
        check(&mut plain, &mut twin, &sa, &sb, a.in_flight(), "after a feed");
    }
    let mut give_ups = 0;
    while !a.drain_budgeted(&mut plain, &mut sa, 3) {
        assert!(!b.drain_budgeted(&mut twin, &mut sb, 3));
        assert!(a.in_flight() > 0 && a.in_flight() == b.in_flight());
        check(&mut plain, &mut twin, &sa, &sb, a.in_flight(), "after a give-up");
        give_ups += 1;
    }
    assert!(b.drain_budgeted(&mut twin, &mut sb, 3));
    check(&mut plain, &mut twin, &sa, &sb, 0, "drained");
    give_ups
}

fn unsimulated(stats: EngineStats) -> EngineStats {
    EngineStats { sim_cycles: 0, sim_stalls: 0, ..stats }
}

#[test]
fn a_budgeted_drain_settles_the_tally_at_every_give_up() {
    let (ht, _, s) = chained();
    let metered = Some(TierSpec::headers_near(1));
    // Probe (its scalar stages): the twin recounts every stage into the op.
    let cfg = ProbeConfig { materialize: false, ..Default::default() };
    let twin_cfg = ProbeConfig { tier: metered, ..cfg.clone() };
    let (plain, twin) = (Probe::new(&ht, &cfg, 0, false), Probe::new(&ht, &twin_cfg, 0, false));
    let give_ups = give_up_in_lockstep(plain, twin, &s.tuples, |a, b, sa, sb, in_flight, at| {
        assert_eq!((a.op.matches(), a.op.checksum()), (b.op.matches(), b.op.checksum()), "{at}");
        assert_eq!(*sa, unsimulated(*sb), "probe {at}: flushed ledger");
        recounts(sa, in_flight as u64, &format!("probe {at}"));
    });
    assert!(give_ups > 3, "the drain gave up mid-window");
    // Upsert: the WAL taken at each give-up recounts the accumulators.
    let (plain_ht, twin_ht) =
        (HashTable::restore(&ht.snapshot()), HashTable::restore(&ht.snapshot()));
    let cfg = MutateConfig::default();
    let twin_cfg = MutateConfig { tier: metered, ..cfg.clone() };
    let (plain, twin) = (MutateOp::new(&plain_ht, &cfg), MutateOp::new(&twin_ht, &twin_cfg));
    let mut logged: Vec<WalRecord> = Vec::new();
    give_up_in_lockstep(plain, twin, &s.tuples, |a, b, sa, sb, in_flight, at| {
        let counts = |op: &MutateOp| (op.applied(), op.created(), op.merged(), op.deleted());
        assert_eq!(counts(a), counts(b), "upsert {at}");
        assert_eq!(*sa, unsimulated(*sb), "upsert {at}: flushed ledger");
        recounts(sa, in_flight as u64, &format!("upsert {at}"));
        let records = a.drain_wal();
        assert_eq!(records, b.drain_wal(), "upsert {at}: log");
        logged.extend(records);
        assert_eq!((a.applied(), a.applied()), (logged.len() as u64, sa.lookups), "upsert {at}");
        assert_eq!(a.created() + a.merged(), a.applied(), "upsert {at}");
        let bytes: u64 = logged.iter().map(WalRecord::encoded_len).sum();
        assert_eq!(sa.log_bytes, bytes, "upsert {at}: log bytes");
    });
    assert_eq!(logged.len(), s.len());
    assert_eq!(plain_ht.contents_sorted(), twin_ht.contents_sorted());
}

#[test]
fn a_session_with_slots_live_runs_scalar_feeds() {
    let kernel = kernel_host();
    let r = Relation::dense_unique(1 << 12, 13);
    let ht = HashTable::build_serial(&r);
    let s = Relation::fk_uniform(&r, 4000, 14);
    let cfg = ProbeConfig::default();
    let m = cfg.params.in_flight;
    // Five feeds into one window: two plain into the empty window (the
    // batch stage where the kernel runs), a short traced one (scalar,
    // leaving slots live), a plain one with those slots live, and a traced
    // one, armed while they are.
    let mut op = ProbeOp::new(&ht, &cfg, s.len());
    let (mut session, mut stats) = (AmacSession::new(m), EngineStats::default());
    let cuts = [0, 1000, 2000, 2005, 3000, 4000];
    let live = if kernel { [0, 0, 5, m, m] } else { [m; 5] };
    for (i, at) in cuts.windows(2).enumerate() {
        let traced = i % 2 == 0 && i > 0;
        if traced {
            op.cx.set_tracer(Tracer::on());
        }
        session.feed(&mut op, &s.tuples[at[0]..at[1]], &mut stats);
        assert_eq!(session.in_flight(), live[i], "feed {i}");
        if traced {
            // A feed no longer than the window only starts lookups, and the
            // tracer records a load where it is waited on.
            let trace = op.cx.take_tracer();
            assert!(at[1] - at[0] <= m || !trace.is_empty(), "feed {i}: the tracer records");
        }
    }
    session.drain(&mut op, &mut stats);
    let mut scalar = ProbeOp::new(&ht, &cfg, s.len());
    let want = run_amac_modulo(&mut scalar, &s.tuples, m);
    assert_eq!((op.matches(), op.checksum()), (scalar.matches(), scalar.checksum()));
    assert_eq!(op.take_out(), scalar.take_out(), "first matches");
    assert_eq!(stats, want, "engine stats");
}
