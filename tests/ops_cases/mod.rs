//! One seeded differential suite for the operator layer.
//!
//! The paper's techniques are four schedules of one program (Fig. 2), and
//! so are this workspace's contexts and drivers: a plain, metered, tiered,
//! faulted, coalesced, traced or hint-less run, fed in one shot, in
//! chunked session feeds, on the morsel runtime or as `Mux` lanes,
//! computes what a std model computes and counts what its plain twin
//! counts. A [`Case`] says everything a run does: the table shape, the
//! input, the op, the technique and `M`, the context and the driver.
//! [`gen`] draws one from a seed; [`check`] runs it, its twins and the
//! model, and asserts on every case:
//!
//! 1. results equal the std model (a `BTreeMap` join, a `BTreeMap`
//!    group-by, sorted table contents and WAL); a case whose lookups
//!    failed equals its faulted twin instead;
//! 2. every `EngineStats` field but `sim_cycles`/`sim_stalls` equals the
//!    plain twin's (one shot, plain context, the fault plan kept), and the
//!    twin with tracing flipped equals it on every field;
//! 3. `issued + coalesced ==` the twin's `issued`, with `coalesced == 0`
//!    without `G` or under the baseline;
//! 4. a trace conserves (stalls = `sim_stalls`, retires = `lookups`,
//!    faults = `load_faults`, nothing dropped), a rerun records it event
//!    for event (so its canonical hash repeats), and a 1-thread morsel
//!    run's canonical hash equals the one-shot run's;
//! 5. `sim_cycles` = stages + bailout stages + latch retries (+ one per
//!    handoff in a fused chain), so it does not vary with thread count;
//!    0 untiered;
//! 6. fault sets are equal across coalescing and thread counts (2, held
//!    against the faulted twin);
//! 7. `Mux` lane ledgers sum to the global stats at every flush;
//! 8. chunked feeds equal the one-shot run of the same context;
//! 9. the probe's batch stage equals the scalar stages
//!    (`run_amac_modulo`) on every field, on the table each case leaves.
//!
//! [`exempt`] is the one list of fields a run need not reproduce. Every
//! failure message names its case.
//!
//! `tests/ops_sim.rs` checks the first 64 seeds, asserts what they cover
//! and holds the claims that are shapes rather than differentials. The
//! suites named after one concern (`amu_conformance`, `trace_conformance`,
//! `tier_sim`, `tier_prop`, `probe_vector`, `plain_vs_metered`,
//! `pipeline_fused`, `join_pipeline`) each check further seeds with that
//! concern's axis pinned, through the same [`check`]: [`covering`] until
//! the cases moved the counters the concern is about, or [`sweep`] a
//! fixed number.

// Each test binary uses part of this module.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use amac_suite::engine::engine::mux::Mux;
use amac_suite::engine::engine::{run_amac, run_amac_modulo, AmacSession};
use amac_suite::engine::{EngineStats, Hooks, LookupOp, Step, Technique, TuningParams};
use amac_suite::hashtable::agg::AggValues;
use amac_suite::hashtable::{AggTable, HashTable};
use amac_suite::mem::prefetch::PrefetchHint;
use amac_suite::mem::rng::XorShift64;
use amac_suite::ops::groupby::{groupby, GroupByConfig, GroupByOp};
use amac_suite::ops::join::{build, probe, BuildConfig, BuildOp, ProbeConfig, ProbeOp};
use amac_suite::ops::mutate::{mutate, mutate_mt_rt, MutateConfig, MutateKind, MutateOp};
use amac_suite::ops::parallel::{
    groupby_mt_rt, probe_groupby_mt_rt, probe_groupby_two_phase_mt_rt, probe_mt_rt,
};
use amac_suite::ops::pipeline::{
    fused_probe_groupby_op, fused_probe_probe_op, materializing_probe_op, probe_then_groupby,
    probe_then_groupby_two_phase, probe_then_probe, probe_then_probe_two_phase, FusedProbeProbe,
    PipelineConfig,
};
use amac_suite::runtime::{execute, MorselConfig, Scheduling};
use amac_suite::tier::{FaultPlan, TierSpec, WalRecord};
use amac_suite::trace::Tracer;
use amac_suite::workload::{FilterSpec, Relation, Tuple};
use Scheduling::{StaticChunk, WorkSteal};

// --- Cases -----------------------------------------------------------------

/// The op a case runs. `ProbeGroupBy` and `ProbeProbe` are the fused
/// chains (probe → filter → group-by, probe → filter → probe), `TwoPhase`
/// the materialized probe → filter then group-by.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Probe,
    Build,
    GroupBy,
    Mutate(MutateKind),
    ProbeGroupBy,
    ProbeProbe,
    TwoPhase,
}

pub const OPS: [Op; 9] = [
    Op::Probe,
    Op::Build,
    Op::GroupBy,
    Op::Mutate(MutateKind::Upsert),
    Op::Mutate(MutateKind::Insert),
    Op::Mutate(MutateKind::Delete),
    Op::ProbeGroupBy,
    Op::ProbeProbe,
    Op::TwoPhase,
];

impl Op {
    /// Latched (build, group-by) or CAS-ing (mutate) somewhere in the op.
    pub fn writes(self) -> bool {
        !matches!(self, Op::Probe | Op::ProbeProbe)
    }
    pub fn fused(self) -> bool {
        matches!(self, Op::ProbeGroupBy | Op::ProbeProbe)
    }
}

/// How a case feeds its op: one production driver call, session feeds of
/// `chunk` tuples, the morsel runtime, or `lanes` `Mux` lanes of one
/// window fed contiguous quanta round-robin (so the window starts lookups
/// in input order, as the one-shot run does). A two-phase op runs one
/// lane: each lane collects its own intermediate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Driver {
    OneShot,
    Chunked(usize),
    Morsel { threads: usize, morsel: usize, scheduling: Scheduling },
    Mux { lanes: usize, quantum: usize },
}

impl Driver {
    pub fn kind(self) -> &'static str {
        match self {
            Driver::OneShot => "OneShot",
            Driver::Chunked(_) => "Chunked",
            Driver::Morsel { .. } => "Morsel",
            Driver::Mux { .. } => "Mux",
        }
    }
}

/// The execution context: far-latency multiplier of a `headers_near`
/// spec, fault per-mille, coalescing group `G`, tracing, prefetch hint.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cx {
    pub mult: Option<u64>,
    pub fault: Option<u16>,
    pub coalesce: Option<usize>,
    pub trace: bool,
    pub hint: PrefetchHint,
}

/// A case's input keys: uniform over the table's `1..=n`, all misses,
/// every fourth a miss, or Zipf(1) over `1..=n + n/4`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keys {
    Hits,
    Misses,
    Mixed,
    Zipf,
}

#[derive(Clone, Debug)]
pub struct Case {
    pub seed: u64,
    /// Table shape: `n` keys `1..=n`, `chain` keys per bucket (0:
    /// `for_tuples` sizing), extra copies of every tenth key, and an epoch
    /// of upserts, inserts and deletes (fresh nodes, tombstones) first.
    pub n: usize,
    pub chain: usize,
    pub dups: bool,
    pub epoch: bool,
    pub keys: Keys,
    pub len: usize,
    pub op: Op,
    pub scan_all: bool,
    pub materialize: bool,
    pub filter: bool,
    /// Group-by domain, and aggregation buckets.
    pub groups: u64,
    pub agg_buckets: usize,
    pub technique: Technique,
    pub m: usize,
    pub cx: Cx,
    pub driver: Driver,
}

/// Groups (dimension payloads) of the fused chains' build side.
const GROUPS: u64 = 64;

impl Case {
    /// The plain twin: one shot, plain context, only the fault plan (and
    /// the tier it needs) kept.
    fn twin(&self) -> Case {
        let cx =
            Cx { mult: self.cx.fault.and(self.cx.mult), fault: self.cx.fault, ..Cx::default() };
        Case { cx, driver: Driver::OneShot, ..self.clone() }
    }
    fn traced(&self, trace: bool) -> Case {
        Case { cx: Cx { trace, ..self.cx }, ..self.clone() }
    }
    fn tier(&self) -> Option<TierSpec> {
        self.cx.mult.map(TierSpec::headers_near)
    }
    fn fault(&self) -> Option<FaultPlan> {
        self.cx.fault.map(|pm| FaultPlan::fail_only(self.seed ^ 0xFA17, pm))
    }
    fn params(&self) -> TuningParams {
        TuningParams::with_in_flight(self.m)
    }
    fn probe_cfg(&self) -> ProbeConfig {
        ProbeConfig {
            params: self.params(),
            scan_all: self.scan_all,
            materialize: self.materialize,
            hint: self.cx.hint,
            tier: self.tier(),
            fault: self.fault(),
            coalesce: self.cx.coalesce,
            trace: self.cx.trace,
            ..Default::default()
        }
    }
    fn groupby_cfg(&self) -> GroupByConfig {
        let (tier, coalesce, trace) = (self.tier(), self.cx.coalesce, self.cx.trace);
        GroupByConfig { params: self.params(), tier, coalesce, trace }
    }
    fn mutate_cfg(&self, kind: MutateKind) -> MutateConfig {
        let (params, hint, tier, fault, trace) =
            (self.params(), self.cx.hint, self.tier(), self.fault(), self.cx.trace);
        MutateConfig { params, kind, hint, tier, fault, trace, ..Default::default() }
    }
    fn pipe_cfg(&self) -> PipelineConfig {
        PipelineConfig {
            params: self.params(),
            hint: self.cx.hint,
            filter: self.filter.then(|| FilterSpec::selectivity(0.5)),
            tier: self.tier(),
            fault: self.fault(),
            coalesce: self.cx.coalesce,
            trace: self.cx.trace,
        }
    }
    /// The morsel runtime's config (one thread for the other drivers).
    fn rt(&self) -> MorselConfig {
        let Driver::Morsel { threads, morsel, scheduling } = self.driver else {
            return MorselConfig::with_threads(1);
        };
        MorselConfig { threads, morsel_tuples: morsel, scheduling }
    }
    /// Fused chains with a filter drop tuples between stages without a
    /// retirement event (`PipelineConfig::trace`).
    fn retires_silently(&self) -> bool {
        self.filter && self.op.fused()
    }
}

/// The exemptions from the per-field equalities of invariants 2–4, the
/// one list: each was granted by a suite this one replaced.
/// - A latched or CAS-ing op on 2 or more threads retries a
///   schedule-dependent number of times: only `lookups` must agree.
/// - Work stealing races the morsel → worker assignment, which moves
///   `sim_stalls` between two runs.
fn exempt(c: &Case, want: EngineStats, got: &EngineStats) -> EngineStats {
    match c.driver {
        Driver::Morsel { threads: 2.., .. } if c.op.writes() => {
            EngineStats { lookups: want.lookups, ..*got }
        }
        Driver::Morsel { scheduling: WorkSteal, .. } => {
            EngineStats { sim_stalls: got.sim_stalls, ..want }
        }
        _ => want,
    }
}

// --- The generator ---------------------------------------------------------

fn pick<T: Copy>(r: &mut XorShift64, xs: &[T]) -> T {
    xs[r.next_below(xs.len() as u64) as usize]
}

fn coin(r: &mut XorShift64) -> bool {
    r.next_below(2) == 0
}

/// A random case. The first 36 seeds walk every (op × driver) cell;
/// drivers other than the one-shot run AMAC, the executor that keeps a
/// window across calls.
pub fn gen(seed: u64) -> Case {
    let r = &mut XorShift64::new(seed ^ 0x0A5E);
    let op = OPS[seed as usize % OPS.len()];
    let driver = match seed as usize / OPS.len() % 4 {
        0 => Driver::OneShot,
        1 => Driver::Chunked(pick(r, &[1, 7, 10, 16, 37, 333])),
        2 => Driver::Morsel {
            threads: pick(r, &[1, 2, 4]),
            morsel: pick(r, &[64, 256]),
            scheduling: pick(r, &[StaticChunk, WorkSteal]),
        },
        _ => Driver::Mux {
            lanes: if op == Op::TwoPhase { 1 } else { pick(r, &[2, 3]) },
            quantum: pick(r, &[7, 64, 256]),
        },
    };
    let technique =
        if driver == Driver::OneShot { pick(r, &Technique::ALL) } else { Technique::Amac };
    let huge = matches!(op, Op::Probe | Op::ProbeProbe) && r.next_below(8) == 0;
    let plain = Cx::default();
    let mut cx = match r.next_below(6) {
        0 => plain,
        1 => Cx { mult: Some(1), ..plain },
        2 => Cx { mult: Some(pick(r, &[2, 4, 8])), ..plain },
        3 => {
            Cx { mult: pick(r, &[None, Some(4)]), coalesce: Some(pick(r, &[1, 2, 4, 8])), ..plain }
        }
        4 => Cx { mult: Some(4), trace: true, ..plain },
        _ => Cx { mult: pick(r, &[None, Some(1)]), hint: PrefetchHint::None, ..plain },
    };
    if r.next_below(3) == 0 {
        cx = Cx { mult: cx.mult.or(Some(4)), fault: Some(pick(r, &[20, 100, 300])), ..cx };
    }
    // What each op's config can say. A standalone group-by takes no hint;
    // a fused one runs under the pipeline's. The two-phase plan's phase 2
    // is the standalone group-by, whose config has no hint, so it
    // prefetches under any pipeline hint and keeps `Nta` here.
    match op {
        Op::Build => cx = Cx { mult: cx.mult, ..plain },
        Op::GroupBy => cx = Cx { fault: None, hint: PrefetchHint::Nta, ..cx },
        Op::TwoPhase => cx.hint = PrefetchHint::Nta,
        Op::Mutate(_) => cx.coalesce = None,
        _ => {}
    }
    let mut len = 8 * pick(r, &[0, 1, 4, 40, 150]) + r.next_below(8) as usize;
    if let (Driver::Morsel { morsel, .. }, Some(_)) = (driver, cx.coalesce) {
        // Whole morsels for every thread count, so none splits a group.
        len = 4 * morsel * (1 + r.next_below(2) as usize);
    }
    let groups = pick(r, &[16, GROUPS, 512]);
    let agg_chain = pick(r, &[1, 8]);
    let morsel = matches!(driver, Driver::Morsel { .. });
    // A fault plan bites on far chain nodes only.
    let chains: &[usize] = if huge {
        &[0]
    } else if cx.fault.is_some() {
        &[2, 8]
    } else {
        &[0, 2, 8]
    };
    // First-match (FK) chains and upserts need unique build keys.
    let unique = op.fused() || matches!(op, Op::TwoPhase | Op::Mutate(MutateKind::Upsert));
    Case {
        seed,
        n: if huge { 1 << 17 } else { pick(r, &[64, 512, 2048]) },
        chain: pick(r, chains),
        dups: !unique && coin(r),
        epoch: !huge && r.next_below(3) == 0,
        keys: pick(r, &[Keys::Hits, Keys::Misses, Keys::Mixed, Keys::Zipf]),
        len,
        op,
        scan_all: coin(r),
        materialize: !morsel && coin(r),
        filter: coin(r),
        groups,
        agg_buckets: (if op == Op::GroupBy { groups } else { GROUPS }) as usize / agg_chain,
        technique,
        m: pick(r, &[1, 2, 5, 8, 10, 16, 33]),
        cx,
        driver,
    }
}

// --- The world and the model -----------------------------------------------

/// A table's contents: every key's payloads.
type Rows = BTreeMap<u64, Vec<u64>>;

/// A WAL record, sortable: the mutation's kind, key and payload (0 for a
/// delete).
pub type Rec = (u8, u64, u64);

fn sorted_wal(wal: &[WalRecord]) -> Vec<Rec> {
    let mut v: Vec<Rec> = wal
        .iter()
        .map(|r| match *r {
            WalRecord::Upsert { key, delta } => (MutateKind::Upsert as u8, key, delta),
            WalRecord::Insert { key, payload } => (MutateKind::Insert as u8, key, payload),
            WalRecord::Delete { key } => (MutateKind::Delete as u8, key, 0),
        })
        .collect();
    v.sort_unstable();
    v
}

fn flat(rows: &Rows) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> =
        rows.iter().flat_map(|(&k, ps)| ps.iter().map(move |&p| (k, p))).collect();
    v.sort_unstable();
    v
}

/// `tuples` by key. Table keys are below `12 n`, so a key-indexed bucket
/// pass replaces a sort.
fn rows_of(tuples: &[Tuple]) -> Rows {
    let top = tuples.iter().map(|t| t.key as usize).max().unwrap_or(0);
    let mut by_key = vec![Vec::new(); top + 1];
    tuples.iter().for_each(|t| by_key[t.key as usize].push(t.payload));
    by_key
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(k, v)| (k as u64, v))
        .collect()
}

fn contents(ht: &HashTable) -> Vec<Tuple> {
    ht.contents_sorted().into_iter().map(|(k, p)| Tuple::new(k, p)).collect()
}

fn groups_of(agg: &AggTable) -> Vec<(u64, AggValues)> {
    let mut g = agg.groups();
    g.sort_by_key(|(k, _)| *k);
    g
}

/// `kind` mutations from `input` applied to `rows`, in input order:
/// `[applied, created, merged, deleted]` and the log. Upserts merge into a
/// key's copy or create it, inserts add a copy, deletes drop every copy;
/// each logs one record.
fn apply(rows: &mut Rows, kind: MutateKind, input: &[Tuple]) -> ([u64; 4], Vec<Rec>) {
    let mut n = [input.len() as u64, 0, 0, 0];
    let mut log = Vec::new();
    for t in input {
        match kind {
            MutateKind::Upsert => match rows.get_mut(&t.key).and_then(|v| v.first_mut()) {
                Some(p) => {
                    *p = p.wrapping_add(t.payload);
                    n[2] += 1;
                }
                None => {
                    rows.insert(t.key, vec![t.payload]);
                    n[1] += 1;
                }
            },
            MutateKind::Insert => {
                rows.entry(t.key).or_default().push(t.payload);
                n[1] += 1;
            }
            MutateKind::Delete => n[3] += rows.remove(&t.key).map_or(0, |v| v.len() as u64),
        }
        log.push((kind as u8, t.key, if kind == MutateKind::Delete { 0 } else { t.payload }));
    }
    log.sort_unstable();
    (n, log)
}

/// Everything a case reads, built once: the table (after its epoch), its
/// contents, the build relation, probe→probe's second
/// table and the input.
struct World {
    ht: HashTable,
    rows: Rows,
    build: Relation,
    dim2: HashTable,
    input: Relation,
}

impl World {
    fn new(c: &Case) -> World {
        let fused = matches!(c.op, Op::ProbeGroupBy | Op::ProbeProbe | Op::TwoPhase);
        let dim = Relation::fk_dimension(c.n, if fused { GROUPS } else { 1 << 40 }, c.seed);
        let mut build = Vec::new();
        for t in dim.tuples {
            build.push(t);
            let copies = if c.dups && t.key % 10 == 0 { 1 + t.key % 3 } else { 0 };
            build.extend((1..=copies).map(|i| Tuple::new(t.key, t.payload + i)));
        }
        let build = Relation::from_tuples(build);
        let ht = loaded(empty_table(c), build.tuples.iter().copied());
        let mut rows = rows_of(&build.tuples);
        // The epoch: upserts merge into old keys and create new ones,
        // inserts add new keys, deletes tombstone old ones.
        let n = c.n as u64;
        let kinds = [MutateKind::Upsert, MutateKind::Insert, MutateKind::Delete];
        for kind in kinds.into_iter().filter(|_| c.epoch) {
            let keys: Vec<u64> = match kind {
                MutateKind::Upsert => (1..=n + n / 8).filter(|k| k % 10 == 1 || *k > n).collect(),
                MutateKind::Insert => (2 * n..2 * n + n / 8).collect(),
                MutateKind::Delete => (1..=n).filter(|k| k % 10 == 3).collect(),
            };
            let rel =
                Relation::from_tuples(keys.iter().map(|&k| Tuple::new(k, k % 7 + 1)).collect());
            mutate(&ht, &rel, Technique::Amac, &MutateConfig { kind, ..Default::default() });
            apply(&mut rows, kind, &rel.tuples);
        }
        let dim2 = loaded(HashTable::for_tuples(48), (1..=48).map(|k| Tuple::new(k, k * 7 + 1)));
        let (len, n, keys) = (c.len, c.n as u64, c.keys);
        let mut input = match keys {
            _ if c.op == Op::GroupBy => {
                Relation::zipf(len, c.groups, [0.0, 0.75, 1.0][c.seed as usize % 3], c.seed)
            }
            Keys::Zipf => Relation::zipf(len, n + n / 4, 1.0, c.seed),
            _ => Relation::zipf(len, n, 0.0, c.seed),
        };
        for (i, t) in input.tuples.iter_mut().enumerate() {
            let miss = keys == Keys::Misses || keys == Keys::Mixed && i % 4 == 0;
            // Payloads from 1, so every delta is visible.
            (t.key, t.payload) = (t.key + 10 * n * miss as u64, i as u64 * 0x9E37 + 1);
        }
        World { ht, rows, build, dim2, input }
    }
}

fn empty_table(c: &Case) -> HashTable {
    match c.chain {
        0 => HashTable::for_tuples(c.n),
        k => HashTable::with_buckets(c.n / k),
    }
}

/// `ht` loaded with `tuples` through one build handle.
pub fn loaded(ht: HashTable, tuples: impl IntoIterator<Item = Tuple>) -> HashTable {
    let mut h = ht.build_handle();
    tuples.into_iter().for_each(|t| h.insert(t.key, t.payload));
    drop(h);
    ht
}

/// What a run computed: counts (per op: probe `[matches, checksum]`,
/// group-by `[tuples]`, mutate `[applied, created, merged, deleted]`,
/// chains `[matched, aggregated, checksum]`), the materialized first
/// matches, table contents, groups and the sorted WAL.
#[derive(Debug, Default, PartialEq)]
struct Res {
    n: [u64; 4],
    out: Vec<u64>,
    rows: Vec<(u64, u64)>,
    groups: Vec<(u64, AggValues)>,
    wal: Vec<Rec>,
}

/// The std model of a probe of `input` against `rows`: exact where the
/// keys are unique or the walk scans the whole chain.
fn probe_model(rows: &Rows, input: &[Tuple], scan_all: bool, materialize: bool) -> Res {
    let mut res = Res::default();
    for t in input {
        let ps = rows.get(&t.key).map_or(&[][..], |v| &v[..]);
        let hit = if scan_all { ps } else { &ps[..ps.len().min(1)] };
        res.n[0] += hit.len() as u64;
        res.n[1] = hit.iter().fold(res.n[1], |c, &p| c.wrapping_add(p));
        if materialize {
            res.out.push(ps.first().copied().unwrap_or(u64::MAX));
        }
    }
    res
}

/// Invariant 1 for a probe: with duplicate keys a first match is any of
/// its key's payloads, and an early-exit walk counts between one match
/// and all of them per hit.
fn assert_probe(at: &str, rows: &Rows, input: &[Tuple], scan_all: bool, got: &Res) {
    let want = probe_model(rows, input, scan_all, !got.out.is_empty());
    if rows.values().all(|v| v.len() == 1) {
        return assert_eq!(*got, want, "{at}: probe results");
    }
    let all = probe_model(rows, input, true, false);
    if scan_all {
        assert_eq!(got.n[..2], all.n[..2], "{at}: matches and checksum");
    } else {
        let hits = input.iter().filter(|t| rows.contains_key(&t.key)).count() as u64;
        assert!((hits..=all.n[0]).contains(&got.n[0]), "{at}: {} matches", got.n[0]);
    }
    for (t, &p) in input.iter().zip(&got.out) {
        let ps = rows.get(&t.key).map_or(&[][..], |v| &v[..]);
        assert!(
            ps.contains(&p) || ps.is_empty() && p == u64::MAX,
            "{at}: first match {p} of {t:?}"
        );
    }
}

/// The model's results for `c`, and the handoffs its fused chain makes.
fn model(c: &Case, w: &World) -> (Res, u64) {
    let (s, mut res) = (&w.input.tuples, Res::default());
    let spec = c.filter.then(|| FilterSpec::selectivity(0.5));
    let passes = |t: &Tuple| spec.is_none_or(|f| f.passes(t.payload));
    let mut groups: BTreeMap<u64, AggValues> = BTreeMap::new();
    let mut agg = |g: u64, p: u64| {
        groups.entry(g).and_modify(|a| a.update(p)).or_insert_with(|| AggValues::first(p));
    };
    let mut handoffs = 0;
    match c.op {
        Op::Probe => res = probe_model(&w.rows, s, c.scan_all, c.materialize),
        Op::Build => res.rows = flat(&rows_of(&w.build.tuples)),
        Op::GroupBy => {
            s.iter().for_each(|t| agg(t.key, t.payload));
            res.n[0] = s.len() as u64;
        }
        Op::Mutate(kind) => {
            let mut rows = w.rows.clone();
            (res.n, res.wal) = apply(&mut rows, kind, s);
            res.rows = flat(&rows);
        }
        Op::ProbeGroupBy | Op::ProbeProbe | Op::TwoPhase => {
            for t in s {
                let Some(&g) = w.rows.get(&t.key).and_then(|v| v.first()) else { continue };
                res.n[0] += 1;
                if !passes(t) {
                    continue;
                }
                handoffs += 1;
                if c.op != Op::ProbeProbe {
                    res.n[1] += 1;
                    agg(g, t.payload);
                    res.n[2] += (c.op == Op::TwoPhase) as u64;
                } else if g <= 48 {
                    res.n[1] += 1;
                    res.n[2] = res.n[2].wrapping_add(g * 7 + 1);
                }
            }
        }
    }
    if matches!(c.op, Op::ProbeGroupBy | Op::TwoPhase) {
        res.n[3] = 1 + (c.op == Op::TwoPhase) as u64;
    }
    res.groups = groups.into_iter().collect();
    (res, handoffs)
}

// --- Drivers ---------------------------------------------------------------

/// A `ProbeOp` whose batch stage is switched by `batch`, counting the
/// calls that took it. Off, its scalar stages keep a plain session's
/// window full across feeds and drain give-ups.
pub struct Probe<'a> {
    pub op: ProbeOp<'a>,
    pub batch: bool,
    pub taken: usize,
}

impl<'a> Probe<'a> {
    pub fn new(ht: &'a HashTable, cfg: &ProbeConfig, n: usize, batch: bool) -> Self {
        Probe { op: ProbeOp::new(ht, cfg, n), batch, taken: 0 }
    }
}

impl<'a> LookupOp for Probe<'a> {
    type Input = Tuple;
    type State = <ProbeOp<'a> as LookupOp>::State;
    type Tally = <ProbeOp<'a> as LookupOp>::Tally;
    type Output = <ProbeOp<'a> as LookupOp>::Output;

    fn start<const PLAIN: bool>(&mut self, t: &mut Self::Tally, x: Tuple, s: &mut Self::State) {
        self.op.start::<PLAIN>(t, x, s);
    }
    fn step<const PLAIN: bool>(&mut self, t: &mut Self::Tally, s: &mut Self::State) -> Step {
        self.op.step::<PLAIN>(t, s)
    }
    fn tally(&self) -> Self::Tally {
        self.op.tally()
    }
    fn settle(&mut self, t: Self::Tally) {
        self.op.settle(t);
    }
    fn ctx(&mut self) -> impl Hooks + '_ {
        self.op.ctx()
    }
    fn batch(&mut self, t: &mut Self::Tally, inputs: &[Tuple], m: usize) -> Option<u64> {
        let nodes = if self.batch { self.op.batch(t, inputs, m) } else { None };
        self.taken += nodes.is_some() as usize;
        nodes
    }
    fn looks_ahead(&self) -> bool {
        self.op.looks_ahead()
    }
    fn lookahead(&self, x: Tuple) {
        self.op.lookahead(x);
    }
}

/// Everything [`Tracer::render`] prints, unformatted: equal traces hash
/// equal.
fn recorded(t: &Tracer) -> impl PartialEq + std::fmt::Debug + '_ {
    let counts = [t.dropped(), t.loads(), t.retires(), t.faults(), t.stalls()];
    (t.events().collect::<Vec<_>>(), t.stall_rows(), counts)
}

fn armed<O: LookupOp>(mut op: O, on: bool) -> O {
    if on {
        op.ctx().set_tracer(Tracer::on());
    }
    op
}

/// `stats` at a flush with `in_flight` lookups in the window: each of
/// those issued one load it has not waited on.
pub fn recounts(stats: &EngineStats, in_flight: u64, at: &str) {
    assert_eq!(stats.issued_loads, stats.nodes_visited + in_flight, "{at}: loads");
    assert!(stats.tag_rejects <= stats.nodes_visited, "{at}: rejects");
}

/// Invariant 7 at one flush: the lane ledgers sum to the global stats.
/// Uncoalesced and unfaulted, each lane's ledger also recounts: one load
/// per node visited, plus one per lookup still in flight.
fn sums_up<O: LookupOp>(
    c: &Case,
    mux: &Mux<O>,
    ids: &[u32],
    fed: &[u64],
    global: &EngineStats,
    at: &str,
) {
    let mut sum = EngineStats::default();
    for (&l, &fed) in ids.iter().zip(fed) {
        let led = mux.observed(l);
        if c.cx.coalesce.is_none() && c.cx.fault.is_none() {
            recounts(led, fed - led.lookups, &format!("{c:?} {at}, lane {l}"));
        }
        sum.merge(led);
    }
    assert_eq!(sum, *global, "{c:?} {at}: lane ledgers vs global stats");
}

/// Run `input` through ops from `make(lookups it will see)` under a
/// session driver; returns the ops (lane order), the stats and the
/// merged trace.
fn feed<O: LookupOp<Input = Tuple>>(
    c: &Case,
    input: &[Tuple],
    make: impl Fn(usize) -> O,
) -> (Vec<O>, EngineStats, Tracer) {
    let mut global = EngineStats::default();
    let mut ops = match c.driver {
        Driver::Chunked(chunk) => {
            let mut session = AmacSession::new(c.m);
            let mut op = armed(make(input.len()), c.cx.trace);
            input.chunks(chunk).for_each(|x| session.feed(&mut op, x, &mut global));
            session.drain(&mut op, &mut global);
            vec![op]
        }
        Driver::Mux { lanes, quantum } => {
            let mut session = AmacSession::new(c.m);
            let quanta: Vec<&[Tuple]> = input.chunks(quantum).collect();
            let mut mux = Mux::new();
            let ids: Vec<u32> = (0..lanes)
                .map(|l| {
                    let n = quanta.iter().skip(l).step_by(lanes).map(|q| q.len()).sum();
                    // The last lane always traces: a metered lane beside
                    // plain ones (its trace is dropped unless `c` traces).
                    mux.add(armed(make(n), c.cx.trace || l + 1 == lanes))
                })
                .collect();
            let mut fed = vec![0; lanes];
            for (i, q) in quanta.iter().enumerate() {
                session.feed_lane(&mut mux, ids[i % lanes], q, &mut global);
                fed[i % lanes] += q.len() as u64;
                sums_up(c, &mux, &ids, &fed, &global, "after a lane feed");
            }
            while !session.drain_lanes(&mut mux, &mut global, 7) {
                sums_up(c, &mux, &ids, &fed, &global, "after a give-up");
            }
            sums_up(c, &mux, &ids, &fed, &global, "drained");
            ids.iter().map(|&l| mux.remove(l).0).collect()
        }
        _ => unreachable!("not a session driver"),
    };
    let mut trace = Tracer::off();
    for op in &mut ops {
        let t = op.ctx().take_tracer();
        if c.cx.trace {
            trace.merge(t);
        }
    }
    (ops, global, trace)
}

/// A probe's first matches in input order, from ops that took the input
/// in `c`'s quanta round-robin.
fn interleave(c: &Case, outs: Vec<Vec<u64>>) -> Vec<u64> {
    let Driver::Mux { lanes, quantum } = c.driver else { return outs.concat() };
    let len = outs.iter().map(Vec::len).sum();
    let mut outs: Vec<_> = outs.into_iter().map(Vec::into_iter).collect();
    (0..len).map(|i| outs[i / quantum % lanes].next().unwrap()).collect()
}

/// One run of a case.
struct Run {
    res: Res,
    stats: EngineStats,
    trace: Tracer,
    /// The table a build or a mutation left.
    table: Option<HashTable>,
}

/// The wrapping sum of `f` over `ops`.
fn total<O>(ops: &[O], f: impl Fn(&O) -> u64) -> u64 {
    ops.iter().map(f).fold(0, u64::wrapping_add)
}

fn run(c: &Case, w: &World) -> Run {
    let (s, t, ht, rt) = (&w.input, c.technique, &w.ht, || c.rt());
    let agg = AggTable::with_buckets(c.agg_buckets.max(1));
    let table = match c.op {
        Op::Build => Some(empty_table(c)),
        Op::Mutate(_) => Some(HashTable::restore(&w.ht.snapshot())),
        _ => None,
    };
    let mut res = Res::default();
    let (one, morsel) = (c.driver == Driver::OneShot, matches!(c.driver, Driver::Morsel { .. }));
    let (stats, trace) = match c.op {
        Op::Probe => {
            let cfg = c.probe_cfg();
            let (n, out, st, tr) = if one {
                let o = probe(ht, s, t, &cfg);
                ([o.matches, o.checksum], o.out, o.stats, o.trace)
            } else if morsel {
                let o = probe_mt_rt(ht, s, t, &cfg, &rt());
                ([o.matches, o.checksum], vec![], o.stats, o.report.trace)
            } else {
                let (mut ops, st, tr) = feed(c, &s.tuples, |n| ProbeOp::new(ht, &cfg, n));
                let n = [total(&ops, ProbeOp::matches), total(&ops, ProbeOp::checksum)];
                (n, interleave(c, ops.iter_mut().map(ProbeOp::take_out).collect()), st, tr)
            };
            res.n[..2].copy_from_slice(&n);
            res.out = out;
            (st, tr)
        }
        Op::Build => {
            let (table, cfg) =
                (table.as_ref().unwrap(), BuildConfig { params: c.params(), tier: c.tier() });
            let (r, make) = (&w.build.tuples, |_| BuildOp::new(table, &cfg.exec()));
            let st = match c.driver {
                Driver::OneShot => build(table, &w.build, t, &cfg).stats,
                Driver::Morsel { .. } => execute(r, t, c.params(), 1, &rt(), make).report.stats,
                _ => feed(c, r, make).1,
            };
            res.rows = table.contents_sorted();
            (st, Tracer::off())
        }
        Op::GroupBy => {
            let cfg = c.groupby_cfg();
            let (n, st, tr) = if one {
                let o = groupby(&agg, s, t, &cfg);
                (o.tuples, o.stats, o.trace)
            } else if morsel {
                let o = groupby_mt_rt(&agg, s, t, &cfg, &rt());
                (o.matches, o.stats, o.report.trace)
            } else {
                let (ops, st, tr) = feed(c, &s.tuples, |_| GroupByOp::new(&agg, &cfg.exec()));
                (total(&ops, GroupByOp::tuples), st, tr)
            };
            (res.n[0], res.groups) = (n, groups_of(&agg));
            (st, tr)
        }
        Op::Mutate(kind) => {
            let (table, cfg) = (table.as_ref().unwrap(), c.mutate_cfg(kind));
            let (n, wal, st, tr) = if one || morsel {
                let o = if one {
                    mutate(table, s, t, &cfg)
                } else {
                    mutate_mt_rt(table, s, t, &cfg, &rt())
                };
                ([o.applied, o.created, o.merged, o.deleted], o.wal, o.stats, o.trace)
            } else {
                let (mut ops, st, tr) = feed(c, &s.tuples, |_| MutateOp::new(table, &cfg));
                let n = [MutateOp::applied, MutateOp::created, MutateOp::merged, MutateOp::deleted]
                    .map(|f| total(&ops, f));
                (n, ops.iter_mut().flat_map(MutateOp::drain_wal).collect(), st, tr)
            };
            (res.n, res.rows, res.wal) = (n, table.contents_sorted(), sorted_wal(&wal));
            (st, tr)
        }
        Op::ProbeGroupBy | Op::TwoPhase => {
            // `[matched, aggregated, intermediate tuples, passes]`.
            let (cfg, gcfg) = (c.pipe_cfg(), c.groupby_cfg());
            let (n, st, tr) = match (c.op, c.driver) {
                (_, Driver::OneShot) => {
                    let o = match c.op {
                        Op::ProbeGroupBy => probe_then_groupby(ht, &agg, s, t, &cfg),
                        _ => probe_then_groupby_two_phase(ht, &agg, s, t, &cfg),
                    };
                    let mid = o.intermediate_bytes / 16;
                    ([o.matched, o.aggregated, mid, o.passes.into()], o.stats, o.trace)
                }
                (_, Driver::Morsel { .. }) => {
                    let o = match c.op {
                        Op::ProbeGroupBy => probe_groupby_mt_rt(ht, &agg, s, t, &cfg, &rt()),
                        _ => probe_groupby_two_phase_mt_rt(ht, &agg, s, t, &cfg, &rt()),
                    };
                    let (mid, passes) = (o.intermediate_bytes / 16, o.passes.into());
                    ([o.matched, o.out.matches, mid, passes], o.out.stats, o.out.report.trace)
                }
                (Op::ProbeGroupBy, _) => {
                    let (ops, st, tr) =
                        feed(c, &s.tuples, |_| fused_probe_groupby_op(ht, &agg, &cfg));
                    let n = [total(&ops, |o| o.up().matches()), total(&ops, |o| o.down().tuples())];
                    ([n[0], n[1], 0, 1], st, tr)
                }
                _ => {
                    let (ops, mut st, mut tr) =
                        feed(c, &s.tuples, |_| materializing_probe_op(ht, &cfg));
                    let matched = total(&ops, |o| o.pipe().matches());
                    let mid: Vec<Tuple> = ops.into_iter().flat_map(|o| o.into_sink().out).collect();
                    let (ops, st2, tr2) = feed(c, &mid, |_| GroupByOp::new(&agg, &gcfg.exec()));
                    st.merge(&st2);
                    tr.merge(tr2);
                    ([matched, total(&ops, GroupByOp::tuples), mid.len() as u64, 2], st, tr)
                }
            };
            (res.n, res.groups) = (n, groups_of(&agg));
            (st, tr)
        }
        Op::ProbeProbe => {
            let cfg = c.pipe_cfg();
            let make = |_| armed(fused_probe_probe_op(ht, &w.dim2, &cfg), morsel && cfg.trace);
            let (n, st, tr) = if one {
                let o = probe_then_probe(ht, &w.dim2, s, t, &cfg);
                ([o.matched, o.aggregated, o.checksum], o.stats, o.trace)
            } else {
                let (ops, st, tr) = if morsel {
                    let o = execute(&s.tuples, t, c.params(), 1, &rt(), make);
                    (o.ops, o.report.stats, o.report.trace)
                } else {
                    feed(c, &s.tuples, make)
                };
                let up = total(&ops, |o| o.pipe().up().matches());
                let sink = |o: &FusedProbeProbe| [o.sink().matches, o.sink().checksum];
                ([up, total(&ops, |o| sink(o)[0]), total(&ops, |o| sink(o)[1])], st, tr)
            };
            res.n[..3].copy_from_slice(&n);
            (st, tr)
        }
    };
    Run { res, stats, trace, table }
}

// --- The invariants --------------------------------------------------------

/// Run `c`, its twins and the model, and assert invariants 1–9. Returns
/// what the case covered.
pub fn check(c: &Case) -> BTreeSet<String> {
    let (w, at) = (World::new(c), &format!("{c:?}"));
    let mut seen = BTreeSet::new();
    let got = run(c, &w);
    let twin = run(&c.twin(), &w);
    let (model, handoffs) = model(c, &w);
    let s = &got.stats;

    // 1 and 6: results, against the model or the faulted twin.
    assert_eq!(got.res, twin.res, "{at}: results vs the plain twin");
    if twin.stats.failed_lookups == 0 {
        match c.op {
            Op::Probe => assert_probe(at, &w.rows, &w.input.tuples, c.scan_all, &got.res),
            _ => assert_eq!(got.res, model, "{at}: results vs the model"),
        }
    }
    if c.op == Op::Build {
        assert_eq!(s.issued_loads, w.build.len() as u64, "{at}: one header load per insert");
    }
    if c.op == Op::ProbeProbe {
        let o = probe_then_probe_two_phase(&w.ht, &w.dim2, &w.input, c.technique, &c.pipe_cfg());
        assert_eq!([o.matched, o.aggregated, o.checksum], got.res.n[..3], "{at}: two-phase");
    }

    // 2 and 3: the ledger against the plain twin.
    let mut want = EngineStats { sim_cycles: s.sim_cycles, sim_stalls: s.sim_stalls, ..twin.stats };
    if c.cx.hint == PrefetchHint::None {
        want.prefetches = 0;
    }
    want.issued_loads = want.issued_loads.wrapping_sub(s.coalesced_loads);
    want.coalesced_loads = s.coalesced_loads;
    assert_eq!(*s, exempt(c, want, s), "{at}: stats vs the plain twin");
    if c.cx.coalesce.is_none() || c.technique == Technique::Baseline {
        assert_eq!(s.coalesced_loads, 0, "{at}: nothing to coalesce");
    }
    // Coalescing only removes traffic against one prefetch per stage; GP's
    // and SPP's bailout passes load without one, and so does a failed hop.
    if c.op == Op::Probe && matches!(c.technique, Technique::Baseline | Technique::Amac) {
        let exempt = c.cx.hint == PrefetchHint::None || c.cx.fault.is_some();
        assert!(exempt || s.issued_loads <= twin.stats.prefetches, "{at}: loads vs prefetches");
    }
    // The split depends on input order and `G` alone: at any thread count
    // it is the one-shot run's (the morsels hold whole commit groups). Not
    // so for a fused chain: its downstream births are its handoffs, which
    // a morsel's closing commit point splits wherever they fall.
    if matches!(c.driver, Driver::Morsel { .. }) && c.cx.coalesce.is_some() && !c.op.fused() {
        let one = exempt(c, run(&Case { driver: Driver::OneShot, ..c.clone() }, &w).stats, s);
        let split = |s: &EngineStats| (s.issued_loads, s.coalesced_loads);
        assert_eq!(split(s), split(&one), "{at}: the coalescing split vs one shot");
    }
    assert!(s.lookups == 0 || s.issued_loads > 0, "{at}: the driver flushed no ledger");

    // 2 and 4: the trace twin, conservation, determinism.
    if !matches!(c.op, Op::Build) {
        let flip = run(&c.traced(!c.cx.trace), &w);
        assert_eq!(flip.res, got.res, "{at}: results vs the trace twin");
        assert_eq!(flip.stats, exempt(c, *s, &flip.stats), "{at}: stats vs the trace twin");
        let (on, off) = if c.cx.trace { (&got, &flip) } else { (&flip, &got) };
        assert!(!off.trace.enabled() && !off.trace.conserves(0, 0), "{at}: untraced, vouched");
        let (t, st) = (&on.trace, &on.stats);
        assert!(t.enabled() && t.dropped() == 0, "{at}: trace");
        assert_eq!((t.stalls(), t.faults()), (st.sim_stalls, st.load_faults), "{at}: trace");
        if c.retires_silently() {
            assert!(t.retires() <= st.lookups, "{at}: retires");
        } else {
            assert!(t.conserves(st.sim_stalls, st.lookups), "{at}: {} retires", t.retires());
        }
        let traced = c.traced(true);
        // Two runs schedule alike unless `exempt` excuses something.
        let stall = EngineStats { sim_stalls: 1, ..EngineStats::default() };
        if exempt(c, EngineStats::default(), &stall) == EngineStats::default() {
            let again = run(&traced, &w).trace;
            assert_eq!(recorded(t), recorded(&again), "{at}: the trace vs a rerun");
        }
        if matches!(c.driver, Driver::Morsel { threads: 1, scheduling: StaticChunk, .. }) {
            let one = run(&Case { driver: Driver::OneShot, ..traced }, &w).trace.canonical_hash();
            assert_eq!(t.canonical_hash(), one, "{at}: the trace vs the one-shot run");
        }
    }

    // 5: work ticks.
    if c.cx.mult.is_some() {
        let work = s.stages + s.bailout_stages + s.latch_retries;
        // A fused chain's handoffs are the model's, so fault-free only.
        let fused = c.op.fused();
        if !(fused && c.cx.fault.is_some()) {
            let want = EngineStats { sim_cycles: work + if fused { handoffs } else { 0 }, ..*s };
            assert_eq!(*s, exempt(c, want, s), "{at}: ticks vs op calls");
        }
    } else {
        assert_eq!((s.sim_cycles, s.sim_stalls), (0, 0), "{at}: an untiered run keeps no clock");
    }

    // 8: chunked feeds equal the one-shot run of the same context.
    if let Driver::Chunked(chunk) = c.driver {
        let one = run(&Case { driver: Driver::OneShot, ..c.clone() }, &w);
        assert_eq!(got.res, one.res, "{at}: results vs one shot");
        if chunk % c.cx.coalesce.unwrap_or(1) == 0 {
            assert_eq!(*s, one.stats, "{at}: stats vs one shot");
        } else {
            let conserved = |s: &EngineStats| {
                (s.issued_loads + s.coalesced_loads, s.load_faults, s.failed_lookups)
            };
            assert_eq!(conserved(s), conserved(&one.stats), "{at}: requests vs one shot");
        }
    }

    // 9: the batch stage against the scalar stages, on the table the case left.
    let ht = got.table.as_ref().unwrap_or(&w.ht);
    let cfg = ProbeConfig { params: c.params(), scan_all: c.scan_all, ..Default::default() };
    let input = &w.input.tuples;
    let mut scalar = ProbeOp::new(ht, &cfg, input.len());
    let want = run_amac_modulo(&mut scalar, input, c.m);
    let mut batched = Probe::new(ht, &cfg, input.len(), true);
    let stats = run_amac(&mut batched, input, c.m);
    let res = |op: &mut ProbeOp| Res {
        n: [op.matches(), op.checksum(), 0, 0],
        out: op.take_out(),
        ..Res::default()
    };
    let (want_res, got_res) = (res(&mut scalar), res(&mut batched.op));
    assert_eq!((stats, &got_res), (want, &want_res), "{at}: batch vs scalar stages");
    // Session feeds into an emptied window: one batch each, at its cursor.
    let (mut fed, mut session) = (Probe::new(ht, &cfg, input.len(), true), AmacSession::new(c.m));
    let mut stats = EngineStats::default();
    input.chunks(37).for_each(|x| session.feed(&mut fed, x, &mut stats));
    session.drain(&mut fed, &mut stats);
    assert_eq!((stats, &res(&mut fed.op)), (want, &want_res), "{at}: batches fed vs scalar");
    let left = got.table.as_ref().map(|t| rows_of(&contents(t)));
    let rows = left.as_ref().unwrap_or(&w.rows);
    assert_probe(&format!("{at}, probed after"), rows, input, c.scan_all, &got_res);

    // Coverage.
    seen.insert(format!("{:?} × {}", c.op, c.driver.kind()));
    seen.insert(c.technique.label().to_string());
    seen.insert(format!("remainder {}", input.len() % 8));
    seen.extend((batched.taken > 0).then(|| "batch stage".to_string()));
    seen.extend((ht.stats().max_chain >= 3).then(|| "chain ≥ 3 nodes".to_string()));
    seen.extend(ht.headers_huge().then(|| "huge headers".to_string()));
    let hits = input.iter().filter(|t| rows.contains_key(&t.key)).count() as u64;
    seen.extend((!c.scan_all && got_res.n[0] > hits).then(|| "two-match node".to_string()));
    seen.extend((hits == 0 && !input.is_empty()).then(|| "no match".to_string()));
    let keys: BTreeSet<u64> = input.iter().map(|t| t.key).collect();
    seen.extend((keys.len() < input.len()).then(|| "repeated key".to_string()));
    let counters = [s.failed_lookups, s.coalesced_loads, s.sim_stalls];
    for (name, _) in COUNTERS.iter().zip(counters).filter(|c| c.1 > 0) {
        seen.insert(name.to_string());
        seen.extend(lanes(c).then(|| format!("lanes, {name}")));
    }
    seen
}

/// Counters some case must move.
pub const COUNTERS: [&str; 3] = ["failed lookups", "coalesced loads", "sim stalls"];

/// Whether this host has AVX-512F/DQ, where the probe's batch stage runs.
pub fn kernel_host() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    return is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    false
}

// --- Slices ----------------------------------------------------------------

/// `check` the first `n` cases past the first 64 seeds that `keep`
/// accepts; what they covered together.
pub fn sweep(n: usize, keep: impl Fn(&Case) -> bool) -> BTreeSet<String> {
    let cases: Vec<Case> = (64..1 << 20).map(gen).filter(|c| keep(c)).take(n).collect();
    assert_eq!(cases.len(), n, "the generator draws too few such cases");
    cases.iter().flat_map(check).collect()
}

/// The most cases [`covering`] checks.
const TRIES: usize = 12;

/// `check` cases past the first 64 seeds that `keep` accepts, in seed
/// order, until they have covered each of `want`: at least one case, at
/// most [`TRIES`]. What they covered.
pub fn covering(want: &[&str], keep: impl Fn(&Case) -> bool) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut last = None;
    for c in (64..1 << 20).map(gen).filter(|c| keep(c)).take(TRIES) {
        seen.extend(check(&c));
        if want.iter().all(|w| seen.contains(*w)) {
            return seen;
        }
        last = Some(c);
    }
    let missing: Vec<_> = want.iter().filter(|w| !seen.contains(**w)).collect();
    panic!("coverage: {missing:?} missing; the last case checked (None: none): {last:?}");
}

/// [`covering`] once per technique (every driver but the one-shot run is
/// AMAC's): the baseline never coalesces (invariant 3), so it need not
/// cover `coalesced loads`.
pub fn per_technique(keep: impl Fn(&Case) -> bool, want: &[&str]) {
    for t in Technique::ALL {
        let never = |w: &&str| t == Technique::Baseline && *w == COUNTERS[1];
        let want: Vec<&str> = want.iter().copied().filter(|w| !never(w)).collect();
        covering(&want, |c| c.technique == t && keep(c));
    }
}

/// Tiered with stalls to show: far latency above 1x, and some input.
pub fn stalling(c: &Case) -> bool {
    c.cx.mult.is_some_and(|m| m > 1) && c.len >= 8
}

/// Two or more `Mux` lanes.
pub fn lanes(c: &Case) -> bool {
    matches!(c.driver, Driver::Mux { lanes: 2.., .. })
}

/// The thread count of a morsel-runtime driver.
pub fn morsel_threads(c: &Case) -> Option<usize> {
    match c.driver {
        Driver::Morsel { threads, .. } => Some(threads),
        _ => None,
    }
}

/// A morsel-runtime driver at `threads` under `scheduling`.
pub fn morsel_at(c: &Case, threads: usize, scheduling: Scheduling) -> bool {
    matches!(c.driver, Driver::Morsel { threads: t, scheduling: s, .. } if (t, s) == (threads, scheduling))
}
