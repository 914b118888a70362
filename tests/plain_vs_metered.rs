//! Plain and metered are one program.
//!
//! Every hash-table op writes each code stage once, over its tally and
//! generic over the execution context's mode (`Hooks::plain`), and every
//! executor call picks the mode once, at its start. `tier: None`
//! runs the plain instantiation (inlined into the executor loop, counting
//! into a tally the call keeps in its locals), `tier:
//! Some(TierSpec::headers_near(1))` without faults runs the metered one
//! (the full lane protocol, out of line) with no observable effect beyond
//! the simulated clock. The two must agree on every output and on every
//! counter that is not simulated time — including at every flush, which
//! a plain call's tally is settled before.

use amac_suite::engine::engine::mux::Mux;
use amac_suite::engine::engine::AmacSession;
use amac_suite::engine::{EngineStats, Hooks, LookupOp, Step, Technique};
use amac_suite::hashtable::agg::AggValues;
use amac_suite::hashtable::{AggTable, HashTable};
use amac_suite::mem::prefetch::PrefetchHint;
use amac_suite::ops::groupby::{groupby, GroupByConfig, GroupByOp};
use amac_suite::ops::join::{build, probe, BuildConfig, ProbeConfig, ProbeOp};
use amac_suite::ops::mutate::{mutate, MutateConfig, MutateKind, MutateOp};
use amac_suite::ops::pipeline::{
    fused_probe_groupby_op, probe_then_groupby, probe_then_probe, PipelineConfig,
};
use amac_suite::server::{Request, ServeConfig, ServeSession, TenantOp};
use amac_suite::tier::{TierSpec, WalRecord};
use amac_suite::trace::{TraceEvent, Tracer};
use amac_suite::workload::{FilterSpec, Relation, Tuple};

const N: usize = 1 << 12;

/// The metered-but-unobservable context: a clock at 1x far latency.
fn metered() -> Option<TierSpec> {
    Some(TierSpec::headers_near(1))
}

/// `N` unique keys plus 64 copies of key 7.
fn build_side() -> Relation {
    let mut tuples = Relation::dense_unique(N, 11).tuples;
    tuples.extend((0..64).map(|i| Tuple::new(7, 10_000 + i)));
    Relation::from_tuples(tuples)
}

/// 8x over-occupied (multi-node chains), loaded serially.
fn chained_table(r: &Relation) -> HashTable {
    let ht = HashTable::with_buckets(N / 8);
    let mut h = ht.build_handle();
    for t in &r.tuples {
        h.insert(t.key, t.payload);
    }
    drop(h);
    ht
}

/// Hits (some on the duplicated key) interleaved with misses.
fn probe_side(r: &Relation) -> Relation {
    let mut tuples = Relation::fk_uniform(r, 3 * N, 12).tuples;
    for (i, t) in tuples.iter_mut().enumerate() {
        if i % 5 == 0 {
            t.key = 1_000_000 + i as u64; // not in the table
        }
    }
    Relation::from_tuples(tuples)
}

/// Every group of `agg`, by key.
fn sorted(agg: &AggTable) -> Vec<(u64, AggValues)> {
    let mut g = agg.groups();
    g.sort_unstable_by_key(|&(k, _)| k);
    g
}

/// `stats` with the simulated-time fields cleared: what is left must not
/// depend on the mode.
fn unsimulated(stats: EngineStats) -> EngineStats {
    EngineStats { sim_cycles: 0, sim_stalls: 0, ..stats }
}

#[test]
fn probe_agrees_under_every_technique() {
    let r = build_side();
    let ht = chained_table(&r);
    let s = probe_side(&r);
    for scan_all in [false, true] {
        for t in Technique::ALL {
            let plain = ProbeConfig { scan_all, ..Default::default() };
            let a = probe(&ht, &s, t, &plain);
            let b = probe(&ht, &s, t, &ProbeConfig { tier: metered(), ..plain });
            assert!(a.matches > 0 && a.matches < s.len() as u64 * 64, "{t}: hits and misses");
            assert_eq!((a.matches, a.checksum), (b.matches, b.checksum), "{t} scan_all={scan_all}");
            assert_eq!(a.out, b.out, "{t} scan_all={scan_all}: materialization");
            assert_eq!(a.stats.sim_cycles, 0, "{t}: the plain context has no clock");
            assert!(b.stats.sim_cycles > 0, "{t}: the metered one ticks");
            assert_eq!(a.stats, unsimulated(b.stats), "{t} scan_all={scan_all}: counters");
            assert!(a.stats.issued_loads > 0 && a.stats.tag_rejects > 0, "{t}: counted");
        }
    }
}

#[test]
fn hint_none_reports_no_prefetches_in_both_modes() {
    let r = build_side();
    let ht = chained_table(&r);
    let s = probe_side(&r);
    let reference = probe(&ht, &s, Technique::Amac, &ProbeConfig::default());
    assert!(reference.stats.prefetches > 0);
    for tier in [None, metered()] {
        let cfg = ProbeConfig { hint: PrefetchHint::None, tier, ..Default::default() };
        let out = probe(&ht, &s, Technique::Amac, &cfg);
        assert_eq!(out.stats.prefetches, 0, "tier {tier:?}");
        assert_eq!((out.matches, out.checksum), (reference.matches, reference.checksum));
        assert_eq!(out.stats.issued_loads, reference.stats.issued_loads, "requests still count");
    }
}

#[test]
fn a_query_without_prefetches_leaves_the_session_totals_exact() {
    // Two probe queries share a serving window, one with its prefetch gate
    // off: each lane counts prefetches with its own gate, and the session
    // counts what its queries' reports sum to, field for field.
    let r = build_side();
    let ht = chained_table(&r);
    let (a, b) = (Relation::fk_uniform(&r, 2_000, 21), Relation::fk_uniform(&r, 2_000, 22));
    let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
    let cfg = ProbeConfig::default();
    let quiet = ProbeConfig { hint: PrefetchHint::None, ..cfg.clone() };
    let loud = srv.submit(Request::Probe { probes: &a, cfg }).unwrap();
    srv.submit(Request::Probe { probes: &b, cfg: quiet }).unwrap();
    let out = srv.finish();
    let mut sum = EngineStats::default();
    for rep in &out.reports {
        assert_eq!(rep.stats.prefetches > 0, rep.qid == loud, "query {:?}", rep.qid);
        sum.merge(&rep.stats);
    }
    assert_eq!(sum, out.stats, "per-query reports vs session stats");
}

#[test]
fn mutate_agrees_for_every_kind() {
    let r = build_side();
    // Existing keys (merge / tombstone) and fresh ones (prepend / no-op).
    let mut tuples = Relation::fk_uniform(&r, N, 13).tuples;
    tuples.extend((0..N as u64 / 2).map(|i| Tuple::new(2_000_000 + i, i)));
    let input = Relation::from_tuples(tuples).shuffled(14);
    for kind in [MutateKind::Upsert, MutateKind::Insert, MutateKind::Delete] {
        for t in Technique::ALL {
            let (plain_ht, metered_ht) = (chained_table(&r), chained_table(&r));
            let plain = MutateConfig { kind, ..Default::default() };
            let a = mutate(&plain_ht, &input, t, &plain);
            let b = mutate(&metered_ht, &input, t, &MutateConfig { tier: metered(), ..plain });
            assert_eq!(
                (a.applied, a.created, a.merged, a.deleted),
                (b.applied, b.created, b.merged, b.deleted),
                "{kind:?} {t}"
            );
            assert_eq!(a.applied, input.len() as u64, "{kind:?} {t}: nothing fails");
            assert_eq!(a.wal, b.wal, "{kind:?} {t}: log");
            assert_eq!(a.stats, unsimulated(b.stats), "{kind:?} {t}: counters");
            assert_eq!(plain_ht.contents_sorted(), metered_ht.contents_sorted(), "{kind:?} {t}");
        }
    }
}

#[test]
fn groupby_agrees_under_every_technique() {
    // 512 groups in 64 buckets: chained group nodes, hot headers.
    let input = Relation::zipf(4 * N, 512, 0.75, 15);
    for t in Technique::ALL {
        let (plain_agg, metered_agg) = (AggTable::with_buckets(64), AggTable::with_buckets(64));
        let a = groupby(&plain_agg, &input, t, &GroupByConfig::default());
        let cfg = GroupByConfig { tier: metered(), ..Default::default() };
        let b = groupby(&metered_agg, &input, t, &cfg);
        assert_eq!((a.tuples, b.tuples), (input.len() as u64, input.len() as u64), "{t}");
        assert_eq!(sorted(&plain_agg), sorted(&metered_agg), "{t}: aggregates");
        assert_eq!(a.stats, unsimulated(b.stats), "{t}: counters");
        assert!(a.stats.nodes_visited > a.stats.lookups, "{t}: chains were walked");
    }
}

#[test]
fn build_agrees_under_every_technique() {
    let r = build_side();
    for t in Technique::ALL {
        let (plain_ht, metered_ht) =
            (HashTable::with_buckets(N / 8), HashTable::with_buckets(N / 8));
        let a = build(&plain_ht, &r, t, &BuildConfig::default());
        let b = build(&metered_ht, &r, t, &BuildConfig { tier: metered(), ..Default::default() });
        assert_eq!(plain_ht.contents_sorted(), metered_ht.contents_sorted(), "{t}");
        assert_eq!(plain_ht.len(), r.len(), "{t}");
        assert_eq!(a.stats, unsimulated(b.stats), "{t}: counters");
        assert_eq!(a.stats.issued_loads, r.len() as u64, "{t}: one header load per insert");
    }
}

#[test]
fn fused_pipeline_agrees_under_every_technique() {
    // Chained dimension table, fact with misses, 256 groups in 32 buckets.
    let dim = Relation::fk_dimension(N, 256, 16);
    let ht = chained_table(&dim);
    let fact = probe_side(&dim);
    for t in Technique::ALL {
        let (plain_agg, metered_agg) = (AggTable::with_buckets(32), AggTable::with_buckets(32));
        let a = probe_then_groupby(&ht, &plain_agg, &fact, t, &PipelineConfig::default());
        let cfg = PipelineConfig { tier: metered(), ..Default::default() };
        let b = probe_then_groupby(&ht, &metered_agg, &fact, t, &cfg);
        assert_eq!((a.matched, a.aggregated), (b.matched, b.aggregated), "{t}");
        assert!(a.matched > 0 && a.matched < fact.len() as u64, "{t}: hits and misses");
        assert_eq!(sorted(&plain_agg), sorted(&metered_agg), "{t}: aggregates");
        assert_eq!(a.stats, unsimulated(b.stats), "{t}: counters");
    }
}

#[test]
fn probe_probe_pipeline_agrees_under_every_technique() {
    // S ⋈ R1 ⋈ R2, both tables chained: the one fused chain whose last
    // operator emits, into a sink. R1's payloads are R2's keys, and the
    // filter drops tuples between the two probes.
    let r2 = Relation::fk_dimension(N, 1 << 20, 17);
    let r1 = Relation::fk_dimension(N, N as u64, 18);
    let (ht1, ht2) = (chained_table(&r1), chained_table(&r2));
    let s = probe_side(&r1);
    for filter in [None, Some(FilterSpec::selectivity(0.5))] {
        for t in Technique::ALL {
            let plain = PipelineConfig { filter, ..Default::default() };
            let a = probe_then_probe(&ht1, &ht2, &s, t, &plain);
            let b =
                probe_then_probe(&ht1, &ht2, &s, t, &PipelineConfig { tier: metered(), ..plain });
            assert!(a.matched > 0 && a.matched < s.len() as u64, "{t}: hits and misses");
            assert!(a.aggregated > 0, "{t}: tuples reach the sink");
            assert_eq!(
                (a.matched, a.aggregated, a.checksum),
                (b.matched, b.aggregated, b.checksum),
                "{t} {filter:?}"
            );
            assert!(b.stats.sim_cycles > 0, "{t}: the metered one ticks");
            assert_eq!(a.stats, unsimulated(b.stats), "{t} {filter:?}: counters");
        }
    }
}

/// Window width of the session tests.
const M: usize = 10;

/// A `ProbeOp` that keeps the default batch stage: its scalar stages in
/// the engine's window, which a plain session keeps full across feeds and
/// drain give-ups (a plain `ProbeOp` hands a feed into an empty window to
/// its batch stage where the vector kernel runs, and leaves no slot live).
struct Scalar<'a>(ProbeOp<'a>);

impl<'a> LookupOp for Scalar<'a> {
    type Input = Tuple;
    type State = <ProbeOp<'a> as LookupOp>::State;
    type Tally = <ProbeOp<'a> as LookupOp>::Tally;
    type Output = <ProbeOp<'a> as LookupOp>::Output;

    fn budgeted_steps(&self) -> usize {
        self.0.budgeted_steps()
    }

    fn start<const PLAIN: bool>(&mut self, t: &mut Self::Tally, x: Tuple, s: &mut Self::State) {
        self.0.start::<PLAIN>(t, x, s);
    }

    fn step<const PLAIN: bool>(&mut self, t: &mut Self::Tally, s: &mut Self::State) -> Step {
        self.0.step::<PLAIN>(t, s)
    }

    fn tally(&self) -> Self::Tally {
        self.0.tally()
    }

    fn settle(&mut self, t: Self::Tally) {
        self.0.settle(t);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        self.0.ctx()
    }

    fn looks_ahead(&self) -> bool {
        self.0.looks_ahead()
    }

    fn lookahead(&self, x: Tuple) {
        self.0.lookahead(x);
    }
}

/// One session fed a probe side in two halves, then drained.
struct Halves {
    /// Matches, checksum and materialized output.
    out: (u64, u64, Vec<u64>),
    stats: EngineStats,
    trace: Tracer,
    /// Loads issued and lookups in flight when the tracer was armed.
    at_arm: (u64, usize),
}

/// Feed `s` to one session in two halves on a plain `ProbeOp` of `ht`
/// (its scalar stages), arming a tracer before feed `arm_before` (never
/// for `None`), then drain.
fn fed_in_halves(ht: &HashTable, s: &Relation, arm_before: Option<usize>) -> Halves {
    let mut op = Scalar(ProbeOp::new(ht, &ProbeConfig::default(), s.len()));
    assert!(op.ctx().plain(), "a default probe is plain");
    let mut session = AmacSession::new(M);
    let mut stats = EngineStats::default();
    let mut at_arm = (0, 0);
    for (i, half) in s.tuples.chunks(s.len().div_ceil(2)).enumerate() {
        if arm_before == Some(i) {
            op.ctx().set_tracer(Tracer::on());
            at_arm = (stats.issued_loads, session.in_flight());
        }
        session.feed(&mut op, half, &mut stats);
    }
    session.drain(&mut op, &mut stats);
    let trace = op.ctx().take_tracer();
    Halves { out: (op.0.matches(), op.0.checksum(), op.0.take_out()), stats, trace, at_arm }
}

#[test]
fn a_tracer_armed_between_feeds_sees_exactly_what_follows() {
    let r = build_side();
    let ht = chained_table(&r);
    let s = probe_side(&r);
    let off = fed_in_halves(&ht, &s, None);
    assert!(!off.trace.enabled() && off.trace.is_empty());
    let full = fed_in_halves(&ht, &s, Some(0));
    let mid = fed_in_halves(&ht, &s, Some(1));
    // Tracing reads and never counts: results and every counter agree.
    assert_eq!((&full.out, &full.stats), (&off.out, &off.stats), "traced from the start");
    assert_eq!((&mid.out, &mid.stats), (&off.out, &off.stats), "traced from the second feed");
    let (issued, in_flight) = mid.at_arm;
    assert!(in_flight == M && issued > 0, "armed mid-run, with a full window in flight");
    // What the late tracer holds is the tail of a from-the-start trace:
    // every load waited on and every lookup retired after it was armed.
    let (full, mid, stats) = (full.trace, mid.trace, off.stats);
    let tail: Vec<&TraceEvent> = full.events().skip(full.len() - mid.len()).collect();
    assert_eq!(mid.events().collect::<Vec<_>>(), tail);
    assert!(mid.len() < full.len() && mid.retires() < stats.lookups);
    // Loads are recorded at their wait: those issued after arming, plus
    // the one each lookup in flight at the arm point was waiting on.
    assert_eq!(mid.loads(), stats.issued_loads - issued + in_flight as u64);
    assert_eq!(full.loads(), stats.issued_loads, "from the start: every load issued");
}

/// `stats` as a recount must see it at a flush with `in_flight` lookups
/// still in the window: each of those issued one load it has not waited
/// on, every retired one waited on all of its own.
fn assert_ledger_recounts(stats: &EngineStats, in_flight: usize, at: &str) {
    assert_eq!(stats.issued_loads, stats.nodes_visited + in_flight as u64, "{at}: loads");
    assert!(stats.tag_rejects <= stats.nodes_visited, "{at}: rejects");
}

/// Feed `inputs` to a plain op and to its metered twin in lockstep, then
/// give each drain up every 3 rotations; call `check(plain, twin, plain
/// stats, twin stats, in flight, where)` after every feed and give-up.
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

#[test]
fn a_budgeted_drain_settles_the_tally_at_every_give_up() {
    let r = build_side();
    let s = probe_side(&r);

    // Probe (its scalar stages): the metered twin recounts every stage
    // into the op itself.
    let ht = chained_table(&r);
    let cfg = ProbeConfig { materialize: false, ..Default::default() };
    let twin_cfg = ProbeConfig { tier: metered(), ..cfg.clone() };
    let plain = Scalar(ProbeOp::new(&ht, &cfg, 0));
    let twin = Scalar(ProbeOp::new(&ht, &twin_cfg, 0));
    let give_ups = give_up_in_lockstep(plain, twin, &s.tuples, |a, b, sa, sb, in_flight, at| {
        let (a, b) = (&a.0, &b.0);
        assert_eq!((a.matches(), a.checksum()), (b.matches(), b.checksum()), "probe {at}");
        assert_eq!(*sa, unsimulated(*sb), "probe {at}: flushed ledger");
        assert_ledger_recounts(sa, in_flight, &format!("probe {at}"));
    });
    assert!(give_ups > 3, "the drain gave up mid-window");

    // Upsert: the WAL taken at each give-up recounts the accumulators.
    let (plain_ht, twin_ht) = (chained_table(&r), chained_table(&r));
    let cfg = MutateConfig::default();
    let twin_cfg = MutateConfig { tier: metered(), ..cfg.clone() };
    let (plain, twin) = (MutateOp::new(&plain_ht, &cfg), MutateOp::new(&twin_ht, &twin_cfg));
    let mut logged: Vec<WalRecord> = Vec::new();
    give_up_in_lockstep(plain, twin, &s.tuples, |a, b, sa, sb, in_flight, at| {
        let counts = |op: &MutateOp| (op.applied(), op.created(), op.merged(), op.deleted());
        assert_eq!(counts(a), counts(b), "upsert {at}");
        assert_eq!(*sa, unsimulated(*sb), "upsert {at}: flushed ledger");
        assert_ledger_recounts(sa, in_flight, &format!("upsert {at}"));
        let records = a.drain_wal();
        assert_eq!(records, b.drain_wal(), "upsert {at}: log");
        logged.extend(records);
        assert_eq!(a.applied(), logged.len() as u64, "upsert {at}: one record per mutation");
        assert_eq!(a.applied(), sa.lookups, "upsert {at}: every retired mutation applied");
        assert_eq!(a.created() + a.merged(), a.applied(), "upsert {at}");
        let bytes: u64 = logged.iter().map(WalRecord::encoded_len).sum();
        assert_eq!(sa.log_bytes, bytes, "upsert {at}: log bytes");
    });
    assert_eq!(logged.len(), s.len());
    assert_eq!(plain_ht.contents_sorted(), twin_ht.contents_sorted());
}

#[test]
fn mux_lane_ledgers_sum_to_the_global_stats_at_every_flush() {
    // Per-lane feeds in quanta (`AmacSession::feed_lane`): the plain lanes
    // run as the lane's own plain call, the traced one as its metered one.
    let r = build_side();
    let (ht, target) = (chained_table(&r), chained_table(&r));
    let s = probe_side(&r);
    let (agg, fused_agg) = (AggTable::with_buckets(64), AggTable::with_buckets(64));
    let probe_cfg = ProbeConfig::default();
    let mut mux: Mux<TenantOp> = Mux::new();
    let mut traced = ProbeOp::new(&ht, &probe_cfg, s.len());
    traced.ctx().set_tracer(Tracer::on());
    let mut ops = [
        TenantOp::Probe(ProbeOp::new(&ht, &probe_cfg, s.len())),
        TenantOp::GroupBy(GroupByOp::new(&agg, &GroupByConfig::default())),
        TenantOp::Pipeline(Box::new(fused_probe_groupby_op(
            &ht,
            &fused_agg,
            &PipelineConfig::default(),
        ))),
        TenantOp::Upsert(MutateOp::new(&target, &MutateConfig::default())),
        TenantOp::Probe(traced),
    ];
    let plain_lanes = ops.iter_mut().map(|op| op.ctx().plain() as usize).sum::<usize>();
    assert_eq!(plain_lanes, 4, "every lane but the traced one is plain");
    let lanes = ops.map(|op| mux.add(op));
    // Every fifth probe misses the table; those go to the group-by lane.
    let lane_of = |i: usize| (i + 1) % lanes.len();

    let mut session = AmacSession::new(M);
    let mut global = EngineStats::default();
    // Lookups fed per lane so far: what a lane has not retired is in flight.
    let mut fed = [0u64; 5];
    let sums_up = |mux: &Mux<TenantOp>, global: &EngineStats, fed: &[u64; 5], at: &str| {
        let mut sum = EngineStats::default();
        for (&l, &fed) in lanes.iter().zip(fed) {
            let (led, at) = (mux.observed(l), format!("{at}, lane {l}"));
            assert_ledger_recounts(led, (fed - led.lookups) as usize, &at);
            sum.merge(led);
        }
        assert_eq!(sum, *global, "{at}: lane ledgers vs global stats");
    };
    for (c, chunk) in s.tuples.chunks(500).enumerate() {
        for (i, &lane) in lanes.iter().enumerate() {
            let quantum: Vec<Tuple> =
                (0..chunk.len()).filter(|&j| lane_of(c * 500 + j) == i).map(|j| chunk[j]).collect();
            fed[i] += quantum.len() as u64;
            session.feed_lane(&mut mux, lane, &quantum, &mut global);
            sums_up(&mux, &global, &fed, "after a lane feed");
        }
    }
    while !session.drain_lanes(&mut mux, &mut global, 7) {
        sums_up(&mux, &global, &fed, "after a give-up");
    }
    sums_up(&mux, &global, &fed, "drained");
    assert_eq!(global.lookups, s.len() as u64);
    // Both probe lanes' settled accumulators are their solo runs'.
    for i in [0, 4] {
        let TenantOp::Probe(op) = mux.remove(lanes[i]).0 else { unreachable!() };
        let mine = s.tuples.iter().enumerate().filter(|&(j, _)| lane_of(j) == i);
        let solo = probe(
            &ht,
            &Relation::from_tuples(mine.map(|(_, &t)| t).collect()),
            Technique::Amac,
            &probe_cfg,
        );
        assert_eq!((op.matches(), op.checksum()), (solo.matches, solo.checksum), "lane {i}");
        assert!(solo.matches > 0, "lane {i} hits");
    }
}
