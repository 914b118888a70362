//! One seeded simulation of the serving stack.
//!
//! A [`Plan`] says everything a run does: the catalog, the tenants (tier,
//! fault plan), the [`ServeConfig`], the actions (submit, pump, cancel,
//! budgeted run) and the mode: one [`ServeSession`], or a [`ShardedServe`]
//! over 1, 2 or 4 shards; a single session may crash and recover. [`gen`]
//! draws a plan from a seed; [`drive`] runs it and checks, after every
//! pump and at the end:
//!
//! 1. per-query ledgers sum to the session stats (per shard, and the
//!    global stats sum the shards');
//! 2. each submitted query gets one report, rejections match the `Err`s
//!    returned, and outcome counts partition the reports;
//! 3. each report has one session event: a `Shed` instant if shed, else a
//!    `Query` span labelled with its outcome;
//! 4. a query that did not complete has no results, and `lookups >=
//!    cancelled_lookups`;
//! 5. a completed query's results equal its fault-free solo run on a
//!    pristine catalog; a healthy probe (untiered or `AllNear`, no fault,
//!    no deadline, no writes in the plan) also its `nodes_visited` and
//!    `lookups`, and an `AllNear` one its `sim_cycles` and `sim_stalls`;
//! 6. after each wave the catalog is its start plus the drained WAL, and
//!    the WAL holds each completed mutation's input once and at most the
//!    input of an aborted one;
//! 7. crash plus recovery equals the crash-free run: report fingerprints,
//!    table contents and WAL length;
//! 8. only `DeadlineExceeded` and `FailedAfterRetries` keep a flight ring,
//!    and a deadline victim's ends with its `Deadline` instant;
//! 9. sharded, a query runs on its tenant's home shard, and a shard's WAL
//!    holds only that shard's keys.
//!
//! The pinned cases are named plans, each with only its own asserts.
//! Every failure message names its plan or seed.

use std::collections::{BTreeMap, BTreeSet};

use amac::engine::{EngineStats, Technique};
use amac_hashtable::{AggTable, HashTable};
use amac_mem::rng::XorShift64;
use amac_ops::groupby::{groupby, GroupByConfig};
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::mutate::{mutate, MutateConfig, MutateKind};
use amac_ops::pipeline::{probe_then_groupby, PipelineConfig};
use amac_server::QueryOutcome::{self, *};
use amac_server::{
    Backpressure, BreakerMode, QueryId, QueryReport, Request, ServeConfig, ServeOutput,
    ServeSession, ShardedServe, Stalled, SubmitOpts,
};
use amac_shard::{ShardRouter, ShardedTable};
use amac_tier::{CostModel, CrashPlan, FaultPlan, TierPolicy, TierSpec, WalRecord};
use amac_trace::{EventKind, Tracer};
use amac_workload::{FilterSpec, Relation};

const OUTCOMES: [QueryOutcome; 6] =
    [Completed, DeadlineExceeded, FailedAfterRetries, Cancelled, Shed, Recovered];
/// Waves of a crash plan: each is one session over the persistent catalog.
const WAVES: usize = 3;
/// Pumps after which a run that has not finished counts as stalled.
const PUMPS: usize = 100_000;

// --- Plans -----------------------------------------------------------------

/// A tenant: where its lookups sit in the memory tiers, and the fault
/// plan its `i`-th query runs under with `i << 8` mixed into the seed.
#[derive(Clone, Copy, Debug)]
struct Tenant {
    tier: Option<TierSpec>,
    fault: Option<FaultPlan>,
}

const HEALTHY: Tenant = Tenant { tier: None, fault: None };

fn near() -> Option<TierSpec> {
    Some(TierSpec { model: CostModel::default(), policy: TierPolicy::AllNear })
}

/// A query's input: `Fk` draws `len` catalog keys (`Relation::fk_uniform`),
/// `Zipf` draws keys from `offset + 1..=offset + domain`.
#[derive(Clone, Copy, Debug)]
enum Src {
    Fk { len: usize, seed: u64 },
    Zipf { len: usize, domain: u64, theta: f64, seed: u64, offset: u64 },
}

/// A query's kind; a pipeline is fused probe → filter (selectivity 0.5 if
/// set) → group-by.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Probe { materialize: bool, scan_all: bool },
    GroupBy,
    Pipeline { filter: bool },
    Mutate(MutateKind),
}

const PROBE: Kind = Kind::Probe { materialize: false, scan_all: true };
const UPSERT: Kind = Kind::Mutate(MutateKind::Upsert);

/// One step of a plan: submit a query (`closed`: on backpressure, pump the
/// hinted rounds and resubmit), pump, pump until a retry waits out its
/// backoff (or nothing is left), cancel the `i`-th submission (past the
/// end: an id never issued), or `run_with_budget` on every shard.
#[derive(Clone, Debug)]
enum Act {
    Submit { kind: Kind, src: Src, opts: SubmitOpts, closed: bool },
    Pump(usize),
    UntilBackoff,
    Cancel(usize),
    Budget(usize),
}

impl Act {
    fn opts(mut self, f: impl FnOnce(&mut SubmitOpts)) -> Act {
        if let Act::Submit { opts, .. } = &mut self {
            f(opts);
        }
        self
    }
    fn tenant(self, t: u32) -> Act {
        self.opts(|o| o.tenant = t)
    }
    fn deadline(self, d: u64) -> Act {
        self.opts(|o| o.deadline_ticks = Some(d))
    }
    fn closed(mut self) -> Act {
        if let Act::Submit { closed, .. } = &mut self {
            *closed = true;
        }
        self
    }
}

fn sub(kind: Kind, src: Src) -> Act {
    Act::Submit { kind, src, opts: SubmitOpts::default(), closed: false }
}
fn fk(len: usize, seed: u64) -> Src {
    Src::Fk { len, seed }
}
fn zipf(len: usize, domain: u64, theta: f64, seed: u64) -> Src {
    Src::Zipf { len, domain, theta, seed, offset: 0 }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Mode {
    #[default]
    Single,
    Sharded(usize),
}

#[derive(Clone, Debug, Default)]
struct Plan {
    name: String,
    /// Catalog tuples (keys `1..=n`, payloads `1..=n/4`, drawn with
    /// `seed ^ 0xCA7`) and keys per bucket (0: `build_serial`'s sizing;
    /// sharded tables always use it).
    n: usize,
    chain: usize,
    seed: u64,
    tenants: Vec<Tenant>,
    cfg: ServeConfig,
    acts: Vec<Act>,
    mode: Mode,
    /// Single session only: crash seed and checkpoint interval in waves.
    crash: Option<(u64, usize)>,
}

impl Plan {
    fn new(name: &str, n: usize, chain: usize, acts: Vec<Act>) -> Plan {
        Plan { name: name.into(), n, chain, acts, ..Default::default() }
    }
    fn cfg(self, cfg: ServeConfig) -> Plan {
        Plan { cfg, ..self }
    }
    fn tenants(self, tenants: Vec<Tenant>) -> Plan {
        Plan { tenants, ..self }
    }
    fn sharded(self, shards: usize) -> Plan {
        Plan { mode: Mode::Sharded(shards), ..self }
    }
    /// Whether the plan writes at all, or (`fk`) draws a write from the
    /// whole catalog: then reads have no solo oracle. The generator's key
    /// classes keep its writes off the keys reads touch.
    fn writes(&self, fk: bool) -> bool {
        self.acts.iter().any(|a| match a {
            Act::Submit { kind: Kind::Mutate(_), src, .. } => !fk || matches!(src, Src::Fk { .. }),
            _ => false,
        })
    }
    /// Tenant `t`; tenants past the list are healthy.
    fn tenant(&self, t: u32) -> Tenant {
        self.tenants.get(t as usize).copied().unwrap_or(HEALTHY)
    }
}

// --- The generator ---------------------------------------------------------

fn pick<T: Copy>(r: &mut XorShift64, xs: &[T]) -> T {
    xs[r.next_below(xs.len() as u64) as usize]
}

/// A random plan. Key classes keep writes off the keys reads touch, so a
/// solo oracle stays valid: reads `1..=n/2`, deletes `n/2+1..=3n/4`,
/// upserts `3n/4+1..=5n/4` (merges, then fresh keys), inserts past `2n`.
/// No key is both deleted and upserted or inserted, and upserts and
/// inserts never share a key (the `amac_ops::mutate` discipline).
fn gen(seed: u64) -> Plan {
    let r = &mut XorShift64::new(seed);
    let n = pick(r, &[256usize, 512, 1024]);
    let mode = if r.next_below(4) == 0 { Mode::Sharded(pick(r, &[1, 2, 4])) } else { Mode::Single };
    let crash = (mode == Mode::Single && r.next_below(4) == 0)
        .then(|| (r.next_u64(), 1 + r.next_below(WAVES as u64 + 1) as usize));
    let tenants = (0..1 + r.next_below(4))
        .map(|_| Tenant {
            tier: pick(r, &[None, near(), Some(TierSpec::headers_near(8))]),
            fault: (r.next_below(2) == 0)
                .then(|| FaultPlan::fail_only(r.next_u64(), pick(r, &[2, 30, 1000]))),
        })
        .collect::<Vec<_>>();
    let cfg = ServeConfig {
        max_active: 1 + r.next_below(4) as usize,
        max_pending: 1 + r.next_below(4) as usize,
        quantum: pick(r, &[16, 64, 256]),
        max_retries: r.next_below(3) as u32,
        backoff_base: pick(r, &[8, 64, 4096]),
        breaker_threshold: 1 + r.next_below(3) as u32,
        breaker_probe_pumps: pick(r, &[2, 8, 1000]),
        breaker_mode: pick(r, &[BreakerMode::Shed, BreakerMode::Degrade]),
        flight_recorder: pick(r, &[0, 32]),
        ..Default::default()
    };
    let n64 = n as u64;
    let mut acts = Vec::new();
    for _ in 0..4 + r.next_below(12) {
        let what = r.next_below(13);
        acts.push(match what {
            0..=8 => {
                let tenant = r.next_below(tenants.len() as u64) as u32;
                let deadline = (r.next_below(4) == 0).then(|| pick(r, &[1, 100, 1000]));
                let kind = match what {
                    0..=2 => Kind::Probe { materialize: r.next_below(2) == 0, scan_all: true },
                    3 => Kind::GroupBy,
                    4 | 5 => Kind::Pipeline { filter: r.next_below(2) == 0 },
                    6 => Kind::Mutate(MutateKind::Insert),
                    7 => Kind::Mutate(MutateKind::Delete),
                    _ => UPSERT,
                };
                let (domain, offset) = match kind {
                    Kind::GroupBy => (64, 0),
                    Kind::Mutate(MutateKind::Insert) => (n64, 2 * n64),
                    Kind::Mutate(MutateKind::Delete) => (n64 / 4, n64 / 2),
                    Kind::Mutate(_) => (n64 / 2, 3 * n64 / 4),
                    _ => (n64 / 2, 0),
                };
                let len = pick(r, &[0, 16, 64, 200]);
                let theta = pick(r, &[0.0, 0.6, 1.0]);
                let src = Src::Zipf { len, domain, theta, seed: r.next_u64(), offset };
                let opts = SubmitOpts {
                    weight: 1 + r.next_below(3) as u32,
                    tenant,
                    deadline_ticks: deadline,
                    recovered: r.next_below(8) == 0,
                };
                Act::Submit { kind, src, opts, closed: r.next_below(2) == 0 }
            }
            9 => Act::Pump(1 + r.next_below(6) as usize),
            10 => Act::UntilBackoff,
            11 => {
                let subs = acts.iter().filter(|a| matches!(a, Act::Submit { .. })).count();
                Act::Cancel(r.next_below(subs as u64 + 1) as usize)
            }
            _ => Act::Budget(1 + r.next_below(8) as usize),
        });
    }
    if crash.is_some() {
        // A crash plan always writes, so recovery has records to replay.
        let offset = 3 * n64 / 4;
        acts.push(sub(UPSERT, Src::Zipf { len: 64, domain: n64 / 2, theta: 0.6, seed, offset }));
    }
    let plan = Plan::new(&format!("seed {seed}"), n, pick(r, &[0, 2, 8]), acts);
    Plan { seed, mode, crash, ..plan.cfg(cfg).tenants(tenants) }
}

// --- The driver ------------------------------------------------------------

fn catalog(plan: &Plan, rel: &Relation) -> HashTable {
    let ht = if let Some(buckets) = plan.n.checked_div(plan.chain) {
        let ht = HashTable::with_buckets(buckets);
        let mut h = ht.build_handle();
        rel.tuples.iter().for_each(|t| h.insert(t.key, t.payload));
        drop(h);
        ht
    } else {
        HashTable::build_serial(rel)
    };
    ht.freeze();
    ht
}

/// A plan's catalog: as a relation, the router of a sharded plan, and
/// built pristine (one table per shard) for the oracles.
struct Catalog {
    rel: Relation,
    router: Option<ShardRouter>,
    pristine: Vec<HashTable>,
}

impl Catalog {
    fn new(plan: &Plan) -> Self {
        let rel = Relation::fk_dimension(plan.n, (plan.n as u64 / 4).max(4), plan.seed ^ 0xCA7);
        let (router, pristine) = match plan.mode {
            Mode::Single => (None, vec![catalog(plan, &rel)]),
            Mode::Sharded(s) => {
                let (router, shards) =
                    ShardedTable::build(&rel, ShardRouter::new(6, s)).into_parts();
                (Some(router), shards)
            }
        };
        Catalog { rel, router, pristine }
    }
}

/// One wave's world: the plan, its catalog, each act's input, each
/// aggregating act's output table, and the WAL tail a recovery wave
/// replays first.
struct Ctx<'p> {
    plan: &'p Plan,
    cat: &'p Catalog,
    inputs: Vec<Relation>,
    tables: Vec<Option<AggTable>>,
    tail: Option<&'p [WalRecord]>,
}

impl<'p> Ctx<'p> {
    /// Wave `w`'s inputs draw their seeds `w << 16` further on; sharded,
    /// each holds only its tenant's home shard's keys.
    fn new(plan: &'p Plan, cat: &'p Catalog, w: u64, tail: Option<&'p [WalRecord]>) -> Self {
        let input = |act: &Act| {
            let Act::Submit { src, opts, .. } = *act else { return Relation::default() };
            let mut input = match src {
                Src::Fk { len, seed } => Relation::fk_uniform(&cat.rel, len, seed + (w << 16)),
                Src::Zipf { len, domain, theta, seed, offset } => {
                    let mut z = Relation::zipf(len, domain, theta, seed + (w << 16));
                    // Payloads from 1, so every logged delta is visible.
                    z.tuples
                        .iter_mut()
                        .for_each(|t| (t.key, t.payload) = (t.key + offset, t.payload + 1));
                    z
                }
            };
            if let Some(r) = &cat.router {
                input.tuples.retain(|t| r.shard_of_key(t.key) == r.shard_of_tenant(opts.tenant));
            }
            input
        };
        let inputs = plan.acts.iter().map(input).collect();
        let aggregates =
            |a: &Act| matches!(a, Act::Submit { kind: Kind::GroupBy | Kind::Pipeline { .. }, .. });
        let tables = plan.acts.iter().map(|a| aggregates(a).then(|| AggTable::for_groups(512)));
        let tables = tables.collect();
        Ctx { plan, cat, inputs, tables, tail }
    }

    /// The request act `i` submits as its tenant's `nth` query.
    fn request(&self, i: usize, nth: u64) -> Request<'_> {
        let Act::Submit { kind, opts, .. } = self.plan.acts[i] else { unreachable!("no query") };
        let input = &self.inputs[i];
        let table = || self.tables[i].as_ref().expect("an aggregating act");
        let t = self.plan.tenant(opts.tenant);
        let (tier, fault) = (t.tier, t.fault.map(|f| FaultPlan { seed: f.seed ^ nth << 8, ..f }));
        match kind {
            Kind::Probe { materialize, scan_all } => {
                let cfg = ProbeConfig { scan_all, materialize, tier, fault, ..Default::default() };
                Request::Probe { probes: input, cfg }
            }
            Kind::GroupBy => Request::GroupBy {
                input,
                table: table(),
                cfg: GroupByConfig { tier, ..Default::default() },
            },
            Kind::Pipeline { filter } => {
                let filter = filter.then(|| FilterSpec::selectivity(0.5));
                let cfg = PipelineConfig { filter, tier, fault, ..Default::default() };
                Request::Pipeline { fact: input, table: table(), cfg }
            }
            Kind::Mutate(kind) => Request::Upsert {
                input,
                cfg: MutateConfig { kind, tier, fault, ..Default::default() },
            },
        }
    }
}

enum Srv<'a> {
    One(Box<ServeSession<'a>>),
    Many(ShardedServe<'a>),
}

impl<'a> Srv<'a> {
    fn at(&mut self, s: usize) -> &mut ServeSession<'a> {
        match self {
            Srv::One(srv) => srv,
            Srv::Many(srv) => srv.session_mut(s),
        }
    }
}

/// What one submission did.
struct Sub {
    act: usize,
    shard: usize,
    qid: Option<QueryId>,
    /// Backpressure errors before admission (closed loop) or refusal.
    refused: u32,
    /// Some `cancel` of it returned true.
    cancelled: bool,
}

/// One wave, as the named plans inspect it.
#[derive(Default)]
struct Run {
    outs: Vec<ServeOutput>,
    subs: Vec<Sub>,
    /// Tuples fed by each explicit pump.
    fed: Vec<usize>,
    budgets: Vec<Result<(), Stalled>>,
    /// Per shard: sim time when all work finished, the drained WAL and
    /// the table's final contents.
    now: Vec<u64>,
    wal: Vec<Vec<WalRecord>>,
    contents: Vec<Vec<(u64, u64)>>,
}

impl Run {
    /// The report of the `i`-th submission.
    fn report(&self, i: usize) -> &QueryReport {
        let s = &self.subs[i];
        let qid = s.qid.expect("admitted");
        self.outs[s.shard].reports.iter().find(|r| r.qid == qid).expect("report filed")
    }
}

/// A wave in flight: the session(s) and what the checks have seen.
struct Driver<'a, 'p> {
    cx: &'a Ctx<'p>,
    srv: Srv<'a>,
    run: Run,
    /// Query ids issued and submissions refused, per shard.
    issued: Vec<u64>,
    errs: Vec<u64>,
}

impl<'a> Driver<'a, '_> {
    fn open(&mut self, s: usize) -> usize {
        let srv = self.srv.at(s);
        srv.active_queries() + srv.pending_queries() + srv.waiting_queries()
    }

    /// The mid-run invariants: no query lost (2), bounds kept, time
    /// monotone, WAL records on their own shard (9).
    fn check(&mut self) {
        let (at, cfg) = (&self.cx.plan.name, &self.cx.plan.cfg);
        for s in 0..self.issued.len() {
            let open = self.open(s);
            let srv = self.srv.at(s);
            let filed = (srv.completed_queries() + open) as u64;
            assert_eq!(filed, self.issued[s], "{at}: shard {s} lost a query");
            assert_eq!(srv.rejected(), self.errs[s], "{at}: shard {s} rejections");
            assert!(srv.active_queries() <= cfg.max_active.max(1), "{at}: admission bound");
            assert!(srv.pending_queries() <= cfg.max_pending, "{at}: pending bound");
            assert!(srv.in_flight() <= cfg.params.in_flight, "{at}: window bound");
            assert!(srv.sim_now() >= self.run.now[s], "{at}: time ran backwards");
            self.run.now[s] = srv.sim_now();
            let wal = srv.drain_wal();
            if let Some(router) = &self.cx.cat.router {
                let foreign = wal.iter().find(|r| router.shard_of_key(r.key()) != s);
                assert!(foreign.is_none(), "{at}: shard {s} logged {foreign:?}");
            }
            self.run.wal[s].extend(wal);
        }
    }

    fn pump(&mut self) -> usize {
        let fed = match &mut self.srv {
            Srv::One(srv) => srv.pump(),
            Srv::Many(srv) => srv.pump(),
        };
        self.check();
        fed
    }

    fn submit(&mut self, act: usize, req: Request<'a>, opts: SubmitOpts, closed: bool) {
        let plan = self.cx.plan;
        let (at, cfg) = (&plan.name, &plan.cfg);
        let s = self.cx.cat.router.as_ref().map_or(0, |r| r.shard_of_tenant(opts.tenant));
        let mut refused = 0;
        let qid = loop {
            let got = match &mut self.srv {
                Srv::One(srv) if opts == SubmitOpts::default() => srv.submit(req.clone()),
                Srv::One(srv) => srv.submit_opts(req.clone(), opts),
                Srv::Many(srv) => srv.submit(req.clone(), opts).map(|(shard, qid)| {
                    assert_eq!(shard, s, "{at}: routed off the tenant's home shard");
                    qid
                }),
            };
            let bp: Backpressure = match got {
                Ok(qid) => break Some(qid),
                Err(bp) => bp,
            };
            (self.errs[s], refused) = (self.errs[s] + 1, refused + 1);
            let full = (cfg.max_active.max(1), cfg.max_pending, cfg.max_pending);
            assert_eq!((bp.active, bp.pending, bp.max_pending), full, "{at}: backpressure");
            assert!(bp.retry_after_pumps >= 1, "{at}: the retry hint must be actionable");
            if !closed {
                break None;
            }
            assert!(refused < 1_000, "{at}: a closed-loop client was never admitted");
            for _ in 0..bp.retry_after_pumps {
                self.pump();
            }
        };
        if let Some(q) = qid {
            self.issued[s] += 1;
            let prev = self.run.subs.iter().rev().filter(|x| x.shard == s).find_map(|x| x.qid);
            assert!(prev < Some(q), "{at}: query ids must increase");
        }
        self.run.subs.push(Sub { act, shard: s, qid, refused, cancelled: false });
        self.check();
    }

    fn act(&mut self, act: &Act) {
        let at = &self.cx.plan.name;
        match *act {
            Act::Submit { .. } => unreachable!("submissions need their inputs"),
            Act::Pump(n) => {
                for _ in 0..n {
                    let fed = self.pump();
                    self.run.fed.push(fed);
                }
            }
            Act::UntilBackoff => {
                for _ in 0..PUMPS {
                    let waiting =
                        (0..self.issued.len()).any(|s| self.srv.at(s).waiting_queries() > 0);
                    if waiting || (0..self.issued.len()).all(|s| self.open(s) == 0) {
                        break;
                    }
                    self.pump();
                }
            }
            Act::Cancel(k) => match self.run.subs.get(k).and_then(|x| Some((x.shard, x.qid?))) {
                Some((s, qid)) => self.run.subs[k].cancelled |= self.srv.at(s).cancel(qid),
                None => assert!(!self.srv.at(0).cancel(QueryId(u64::MAX)), "{at}: unknown id"),
            },
            Act::Budget(k) => {
                for s in 0..self.issued.len() {
                    let srv = self.srv.at(s);
                    let res = srv.run_with_budget(k);
                    match res {
                        Err(st) => {
                            let want = (k, srv.active_queries(), srv.in_flight());
                            assert_eq!((st.pumps, st.active, st.in_flight), want, "{at}: stall");
                        }
                        Ok(()) => assert_eq!(self.open(s), 0, "{at}: budget left work"),
                    }
                    self.run.budgets.push(res);
                }
            }
        }
        self.check();
    }

    /// Drive everything to completion and close the session(s).
    fn finish(mut self) -> Run {
        let at = &self.cx.plan.name;
        for s in 0..self.issued.len() {
            assert!(self.srv.at(s).run_with_budget(PUMPS).is_ok(), "{at}: shard {s} stalled");
        }
        self.check();
        self.run.outs = match self.srv {
            Srv::One(srv) => vec![srv.finish()],
            Srv::Many(srv) => {
                let out = srv.finish();
                assert_eq!(out.ledger_violations(), 0, "{at}: Σ shard ledgers != global ledger");
                assert_eq!(out.rejected(), self.errs.iter().sum::<u64>(), "{at}: rejections");
                let counted: u64 = OUTCOMES.iter().map(|&o| out.count(o)).sum();
                assert_eq!(counted, out.reports().count() as u64, "{at}: outcome partition");
                out.shards
            }
        };
        self.run
    }
}

/// Run one wave on `srv`, which serves `tables`, and check it; given a
/// crash tick, the wave dies there instead and returns `None`.
fn wave<'a>(cx: &'a Ctx, srv: Srv<'a>, tables: Vec<&HashTable>, crash: Option<u64>) -> Option<Run> {
    let plan = cx.plan;
    let shards = tables.len();
    // A run that crashes checks nothing at its end.
    let starts: Vec<Vec<(u64, u64)>> =
        tables.iter().filter(|_| crash.is_none()).map(|t| t.contents_sorted()).collect();
    let run = Run { now: vec![0; shards], wal: vec![Vec::new(); shards], ..Default::default() };
    let mut d = Driver { cx, srv, run, issued: vec![0; shards], errs: vec![0; shards] };
    for s in 0..shards {
        d.srv.at(s).set_tracer(Tracer::on());
    }
    if let Some(tail) = cx.tail {
        d.srv.at(0).recover_replay(tail);
        d.issued[0] += 1;
    }
    let mut nth: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, act) in plan.acts.iter().enumerate() {
        if crash.is_some_and(|t| d.srv.at(0).sim_now() >= t) {
            return None;
        }
        let Act::Submit { opts, closed, .. } = *act else {
            d.act(act);
            continue;
        };
        let n = nth.entry(opts.tenant).or_default();
        let req = cx.request(i, *n);
        *n += 1;
        let opts = SubmitOpts { recovered: opts.recovered || cx.tail.is_some(), ..opts };
        d.submit(i, req, opts, closed);
    }
    if let Some(t) = crash {
        for _ in 0..PUMPS {
            if d.srv.at(0).sim_now() >= t {
                return None;
            }
            d.pump();
        }
        panic!("{}: crash tick {t} never came", plan.name);
    }
    let mut run = d.finish();
    cx.check(&run);
    // (6) The catalog is its start state plus the drained WAL.
    run.contents = tables.iter().map(|t| t.contents_sorted()).collect();
    for (s, start) in starts.iter().enumerate() {
        let log: Vec<WalRecord> =
            cx.tail.unwrap_or_default().iter().chain(&run.wal[s]).copied().collect();
        assert_eq!(run.contents[s], model(start, &log), "{}: shard {s}'s WAL", plan.name);
    }
    Some(run)
}

/// A WAL record, sortable: the mutation's kind, key and payload (0 for
/// a delete).
type Rec = (u8, u64, u64);

fn rec(r: &WalRecord) -> Rec {
    match *r {
        WalRecord::Upsert { key, delta } => (MutateKind::Upsert as u8, key, delta),
        WalRecord::Insert { key, payload } => (MutateKind::Insert as u8, key, payload),
        WalRecord::Delete { key } => (MutateKind::Delete as u8, key, 0),
    }
}

fn sorted(wal: &[WalRecord]) -> Vec<Rec> {
    let mut v: Vec<Rec> = wal.iter().map(rec).collect();
    v.sort_unstable();
    v
}

/// `start` with `log` applied: upserts merge into a key's first copy or
/// create it, inserts add a copy, deletes drop every copy.
fn model(start: &[(u64, u64)], log: &[WalRecord]) -> Vec<(u64, u64)> {
    let mut m: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(k, p) in start {
        m.entry(k).or_default().push(p);
    }
    for rec in log {
        match *rec {
            WalRecord::Upsert { key, delta } => {
                let v = m.entry(key).or_default();
                match v.first_mut() {
                    Some(p) => *p = p.wrapping_add(delta),
                    None => v.push(delta),
                }
            }
            WalRecord::Insert { key, payload } => m.entry(key).or_default().push(payload),
            WalRecord::Delete { key } => drop(m.remove(&key)),
        }
    }
    let mut out: Vec<(u64, u64)> =
        m.into_iter().flat_map(|(k, v)| v.into_iter().map(move |p| (k, p))).collect();
    out.sort_unstable();
    out
}

fn groups(t: &AggTable) -> Vec<(u64, amac_hashtable::agg::AggValues)> {
    let mut g = t.groups();
    g.sort_by_key(|(k, _)| *k);
    g
}

impl Ctx<'_> {
    /// The end-of-wave invariants 1–4 and 8 per shard, then 5 per query.
    fn check(&self, run: &Run) {
        let (at, ring) = (&self.plan.name, self.plan.cfg.flight_recorder);
        for (s, out) in run.outs.iter().enumerate() {
            let mut sum = EngineStats::default();
            out.reports.iter().for_each(|r| sum.merge(&r.stats));
            assert_eq!(sum, out.stats, "{at}: shard {s}: per-query ledgers != session stats");
            let subs = || run.subs.iter().filter(|x| x.shard == s);
            let mut want: BTreeSet<QueryId> = subs().filter_map(|x| x.qid).collect();
            want.extend(self.tail.map(|_| QueryId(0)));
            let got: BTreeSet<QueryId> = out.reports.iter().map(|r| r.qid).collect();
            assert_eq!(got.len(), out.reports.len(), "{at}: duplicate reports");
            assert_eq!(got, want, "{at}: shard {s}: one report per submitted query");
            let refused: u64 = subs().map(|x| u64::from(x.refused)).sum();
            assert_eq!(out.rejected, refused, "{at}: shard {s} rejections");
            let counted: u64 = OUTCOMES.iter().map(|&o| out.count(o)).sum();
            assert_eq!(counted, out.reports.len() as u64, "{at}: outcome counts partition reports");
            let done = |o: QueryOutcome| {
                out.reports.iter().filter(|r| r.outcome == o && r.kind != "replay").count() as u64
            };
            assert_eq!(out.latency.count(), done(Completed) + done(Recovered), "{at}: latencies");
            assert_eq!(out.stats.recovered_queries, done(Recovered), "{at}: recovered queries");
            assert!((0.0..=out.window as f64).contains(&out.occupancy), "{at}: occupancy");

            let mut events: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
            let mut deadlines = BTreeSet::new();
            for e in out.trace.events() {
                match e.kind {
                    EventKind::Query { qid, outcome, .. } => {
                        events.entry(qid).or_default().push(outcome)
                    }
                    EventKind::Shed { qid } => events.entry(qid).or_default().push("shed instant"),
                    EventKind::Deadline { qid } => drop(deadlines.insert(qid)),
                    _ => {}
                }
            }
            for r in &out.reports {
                let q = r.qid;
                let label = if r.outcome == Shed { "shed instant" } else { r.outcome.label() };
                assert_eq!(events.remove(&q.0).unwrap_or_default(), [label], "{at}: {q}: events");
                if !matches!(r.outcome, Completed | Recovered) {
                    let results = (r.matches, r.matched, r.checksum, r.out.len());
                    assert_eq!(results, (0, 0, 0, 0), "{at}: {q}: results of an abort");
                }
                assert!(r.stats.lookups >= r.stats.cancelled_lookups, "{at}: {q}: cancellations");
                let fired = deadlines.contains(&q.0);
                assert!(!fired || r.outcome == DeadlineExceeded, "{at}: {q}: deadline fired");
                if ring == 0 || !matches!(r.outcome, DeadlineExceeded | FailedAfterRetries) {
                    assert!(r.flight.is_empty(), "{at}: {q} kept a flight ring");
                } else if fired || r.outcome == FailedAfterRetries {
                    assert!((1..=ring).contains(&r.flight.len()), "{at}: {q}: ring length");
                    let last = r.flight.last().map(|e| e.kind);
                    let cut = last == Some(EventKind::Deadline { qid: q.0 });
                    assert!(!fired || cut, "{at}: {q}: the ring must end at the deadline");
                }
            }
            assert!(events.is_empty(), "{at}: events for unknown queries: {events:?}");
            // (6) Against the inputs: per record, how often a completed
            // mutation must log it, an admitted one may, and the WAL did.
            let mut logged: BTreeMap<Rec, [u64; 3]> = BTreeMap::new();
            run.wal[s].iter().for_each(|r| logged.entry(rec(r)).or_default()[2] += 1);
            for (i, x) in
                run.subs.iter().enumerate().filter(|(_, x)| x.shard == s && x.qid.is_some())
            {
                let Act::Submit { kind: Kind::Mutate(kind), .. } = self.plan.acts[x.act] else {
                    continue;
                };
                let done = matches!(run.report(i).outcome, Completed | Recovered);
                for t in &self.inputs[x.act].tuples {
                    let payload = if kind == MutateKind::Delete { 0 } else { t.payload };
                    let n = logged.entry((kind as u8, t.key, payload)).or_default();
                    (n[0], n[1]) = (n[0] + u64::from(done), n[1] + 1);
                }
            }
            let off = logged.iter().find(|(_, [must, may, got])| got < must || got > may);
            assert!(off.is_none(), "{at}: shard {s}: WAL against the inputs: {off:?}");
            if let Some(tail) = self.tail.filter(|_| s == 0) {
                let r = out.reports.iter().find(|r| r.kind == "replay").expect("replay report");
                let n = tail.len() as u64;
                let got = (r.qid, r.outcome, r.tuples, r.matches, r.attempts, r.tenant);
                assert_eq!(got, (QueryId(0), Recovered, n, n, 1, 0), "{at}: replay report");
                assert_eq!((r.stats.replayed_records, r.stats.lookups), (n, n), "{at}: replayed");
            }
        }
        for (i, x) in run.subs.iter().enumerate().filter(|(_, x)| x.qid.is_some()) {
            self.check_query(x, run.report(i));
        }
    }

    /// Invariant 5 and the per-outcome rules for one submitted query.
    fn check_query(&self, x: &Sub, r: &QueryReport) {
        let plan = self.plan;
        let at = format!("{}: {}", plan.name, r.qid);
        let Act::Submit { opts, .. } = plan.acts[x.act] else { unreachable!() };
        let (tenant, input, table) =
            (plan.tenant(opts.tenant), &self.inputs[x.act], &self.tables[x.act]);
        let table = || table.as_ref().expect("an aggregating act");
        let req = self.request(x.act, 0);
        let want = (req.kind(), opts.tenant, input.len() as u64);
        assert_eq!((r.kind, r.tenant, r.tuples), want, "{at}");
        match r.outcome {
            Shed => assert_eq!((r.attempts, r.stats), (0, EngineStats::default()), "{at}: shed"),
            FailedAfterRetries => {
                let budget = if r.kind == "probe" { 1 + plan.cfg.max_retries } else { 1 };
                assert_eq!(r.attempts, budget, "{at}: failed before its retry budget ran out");
            }
            _ => {}
        }
        if tenant.fault.is_none() {
            let failed = r.outcome == FailedAfterRetries || r.attempts > 1 || r.degraded;
            assert!(!failed, "{at}: a fault-free query failed, retried or degraded");
        }
        assert!(!x.cancelled || !matches!(r.outcome, Completed | Recovered | Shed), "{at}: cancel");
        if !matches!(r.outcome, Completed | Recovered) {
            return;
        }
        let recovered = opts.recovered || self.tail.is_some();
        assert_eq!(r.outcome == Recovered, recovered, "{at}: recovered");
        let once = r.kind == "probe" && r.attempts == 1;
        assert!(!once || r.stats.lookups == r.tuples, "{at}: every tuple looked up once");
        let pristine = &self.cat.pristine[x.shard];
        match req {
            Request::Probe { cfg, .. } if !plan.writes(true) => {
                let cfg = ProbeConfig { fault: None, ..cfg };
                let solo = probe(pristine, input, Technique::Amac, &cfg);
                let want = (solo.matches, solo.checksum, &solo.out);
                assert_eq!((r.matches, r.checksum, &r.out), want, "{at}: probe results");
                let near = tenant.tier == near();
                if (near || tenant.tier.is_none())
                    && tenant.fault.is_none()
                    && opts.deadline_ticks.is_none()
                    && !plan.writes(false)
                {
                    let (a, b) = (&r.stats, &solo.stats);
                    assert_eq!((a.nodes_visited, a.lookups), (b.nodes_visited, b.lookups), "{at}");
                    if near {
                        let want = (b.sim_cycles, b.sim_stalls);
                        assert_eq!((a.sim_cycles, a.sim_stalls), want, "{at}: near tenant's sim");
                    }
                }
            }
            Request::GroupBy { cfg, .. } => {
                let solo = AggTable::for_groups(512);
                groupby(&solo, input, Technique::Amac, &cfg);
                assert_eq!(r.matches, input.len() as u64, "{at}: group-by tuples");
                assert_eq!(groups(table()), groups(&solo), "{at}: group-by aggregates");
            }
            Request::Pipeline { cfg, .. } if !plan.writes(true) => {
                let solo_t = AggTable::for_groups(512);
                let cfg = PipelineConfig { fault: None, ..cfg };
                let solo = probe_then_groupby(pristine, &solo_t, input, Technique::Amac, &cfg);
                let want = (solo.matched, solo.aggregated);
                assert_eq!((r.matched, r.matches), want, "{at}: pipeline");
                assert_eq!(groups(table()), groups(&solo_t), "{at}: pipeline aggregates");
            }
            Request::Upsert { .. } => assert_eq!(r.matches, input.len() as u64, "{at}: applied"),
            _ => {}
        }
    }
}

/// A report's fingerprint across crash and recovery: everything except
/// its id, wall-clock latency and the two recovery marks (the `Recovered`
/// outcome, the `recovered_queries` counter).
type Sig = (&'static str, u64, u64, u64, u64, u32, u32, bool, QueryOutcome, EngineStats);

fn sigs(run: &Run) -> Vec<Sig> {
    let sig = |r: &QueryReport| {
        let stats = EngineStats { recovered_queries: 0, ..r.stats };
        let outcome = if r.outcome == Recovered { Completed } else { r.outcome };
        let (a, b, c) = (r.matches, r.matched, r.checksum);
        (r.kind, r.tuples, a, b, c, r.attempts, r.tenant, r.degraded, outcome, stats)
    };
    run.outs[0].reports.iter().filter(|r| r.kind != "replay").map(sig).collect()
}

/// Run `plan` and check every invariant. Returns the crash-free waves and,
/// for a crash plan, how many waves' sealed WAL segments (non-empty ones)
/// the recovery replayed.
fn drive(plan: &Plan) -> (Vec<Run>, usize) {
    let (cat, at) = (Catalog::new(plan), &plan.name);
    if let Some(router) = &cat.router {
        let st = ShardedTable::build(&cat.rel, router.clone());
        let srv = Srv::Many(ShardedServe::new(&st, plan.cfg.clone()));
        let cx = Ctx::new(plan, &cat, 0, None);
        return (vec![wave(&cx, srv, st.shards().iter().collect(), None).unwrap()], 0);
    }
    let reference = HashTable::restore(&cat.pristine[0].snapshot());
    let go = |w: usize, tail: Option<&[WalRecord]>, table: &HashTable, crash| {
        let srv = Srv::One(Box::new(ServeSession::new(table, plan.cfg.clone())));
        wave(&Ctx::new(plan, &cat, w as u64, tail), srv, vec![table], crash)
    };
    let waves = if plan.crash.is_some() { WAVES } else { 1 };
    // Each wave serves what the waves before it left; keep each start.
    let (mut runs, mut starts) = (Vec::new(), Vec::new());
    for w in 0..waves {
        starts.push(reference.snapshot());
        runs.push(go(w, None, &reference, None).unwrap());
    }
    let Some((seed, interval)) = plan.crash else { return (runs, 0) };
    let crash = CrashPlan::new(seed);
    let cw = crash.wave(WAVES);
    let tick = crash.tick(runs[cw].now[0]);
    assert!(go(cw, None, &HashTable::restore(&starts[cw]), Some(tick)).is_none());
    // The crash wave's unsealed records die with the process; the last
    // checkpoint (one per `interval` waves) and the segments sealed after
    // it survive.
    let ck = cw - cw % interval;
    let tail: Vec<WalRecord> = runs[ck..cw].iter().flat_map(|r| r.wal[0].clone()).collect();
    let segments = runs[ck..cw].iter().filter(|r| !r.wal[0].is_empty()).count();
    let table = HashTable::restore(&starts[ck]);
    for (w, want) in runs.iter().enumerate().skip(cw) {
        let run = go(w, (w == cw).then_some(&tail[..]), &table, None).unwrap();
        let why = format!("{at}: wave {w} after a crash in wave {cw} at tick {tick}");
        assert_eq!(sigs(&run), sigs(want), "{why}");
        assert_eq!(run.wal[0].len(), want.wal[0].len(), "{why}: WAL length");
    }
    assert_eq!(table.contents_sorted(), reference.contents_sorted(), "{at}: recovered catalog");
    (runs, segments)
}

// --- Generated plans -------------------------------------------------------

/// 64 seeds on two threads, which between them reach every outcome, both
/// breaker modes, both serving modes and a recovery whose WAL tail spans
/// several waves' segments.
#[test]
fn generated_plans_hold_every_invariant() {
    let seen = |seeds: std::ops::Range<u64>| {
        let mut seen = BTreeSet::new();
        for seed in seeds {
            let plan = gen(seed);
            let (runs, segments) = drive(&plan);
            for r in runs.iter().flat_map(|r| &r.outs).flat_map(|o| &o.reports) {
                seen.insert(r.outcome.label());
                if r.outcome == Shed && plan.cfg.breaker_mode == BreakerMode::Shed {
                    seen.insert("shed mode");
                }
                seen.extend(r.degraded.then_some("degrade mode"));
            }
            seen.insert(if plan.mode == Mode::Single { "single" } else { "sharded" });
            seen.extend((segments > 1).then_some("multi-segment tail"));
        }
        seen
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| seen(0..32));
        (seen(32..64), a.join().unwrap())
    });
    let mut want: BTreeSet<&str> = OUTCOMES.iter().map(|o| o.label()).collect();
    want.extend(["shed mode", "degrade mode", "single", "sharded", "multi-segment tail"]);
    assert_eq!(a.union(&b).copied().collect::<BTreeSet<_>>(), want, "coverage");
}

/// Generated single-session plans that interleave several tenants: the
/// per-tenant ledger sums are the session's stats.
#[test]
fn per_tenant_ledgers_sum_to_global_under_random_interleavings() {
    let plans = (64..).map(gen).filter(|p| p.mode == Mode::Single && p.tenants.len() > 1);
    for plan in plans.filter(|p| p.crash.is_none()).take(12) {
        for out in drive(&plan).0.iter().flat_map(|r| &r.outs) {
            let mut tenants: BTreeMap<u32, EngineStats> = BTreeMap::new();
            for r in &out.reports {
                tenants.entry(r.tenant).or_default().merge(&r.stats);
            }
            let mut sum = EngineStats::default();
            tenants.values().for_each(|t| sum.merge(t));
            assert_eq!(sum, out.stats, "{}: per-tenant sums", plan.name);
        }
    }
}

/// Generated crash plans past the coverage seeds: whatever the crash tick
/// and checkpoint interval, recovery is bit-identical (invariant 7).
#[test]
fn any_crash_point_recovers_bit_identically() {
    let plans = (64..).map(gen).filter(|p| p.crash.is_some());
    let segments: Vec<usize> = plans.take(6).map(|p| drive(&p).1).collect();
    assert!(segments.iter().any(|&n| n > 0), "no recovery replayed a tail: {segments:?}");
}

// --- Named plans -----------------------------------------------------------

const EARLY: Kind = Kind::Probe { materialize: false, scan_all: false };
const MATERIALIZE: Kind = Kind::Probe { materialize: true, scan_all: false };
const DONE: Act = Act::Budget(PUMPS);

fn quantum(quantum: usize) -> ServeConfig {
    ServeConfig { quantum, ..Default::default() }
}

/// A tenant whose every far load fails: no retry can save its queries.
fn doomed(seed: u64) -> Tenant {
    Tenant { tier: None, fault: Some(FaultPlan::fail_only(seed, 1000)) }
}

/// The only wave of a plan without a crash.
fn run(plan: &Plan) -> Run {
    drive(plan).0.remove(0)
}

fn outcomes(run: &Run) -> Vec<(QueryOutcome, u32)> {
    (0..run.subs.len()).map(|i| (run.report(i).outcome, run.report(i).attempts)).collect()
}

/// Generic asserts only: solo results and order beside a skewed neighbour.
#[test]
fn probe_queries_match_solo_results_including_order() {
    let acts =
        vec![sub(MATERIALIZE, fk(2_000, 0x11)), sub(MATERIALIZE, zipf(2_000, 4096, 1.0, 0x12))];
    run(&Plan::new("solo_order", 4096, 0, acts).cfg(quantum(64)));
}

/// Results and aggregates against solo runs are the generic oracle.
#[test]
fn groupby_and_pipeline_queries_share_one_window() {
    let (gb, pipe) = (Kind::GroupBy, Kind::Pipeline { filter: true });
    let acts = vec![sub(gb, zipf(2_000, 64, 0.9, 0x21)), sub(pipe, fk(2_000, 0x22))];
    let run = run(&Plan::new("groupby_and_pipeline", 2048, 0, acts).cfg(quantum(128)));
    assert_eq!(run.report(0).matches, 2_000, "every group-by tuple aggregated");
}

#[test]
fn empty_query_completes_immediately() {
    let run = run(&Plan::new("empty_query", 64, 0, vec![sub(PROBE, fk(0, 1))]));
    let r = run.report(0);
    assert_eq!((r.outcome, r.matches, r.stats.lookups), (Completed, 0, 0));
}

/// Each admitted id exceeds its shard's previous one (a generic check);
/// here every query reuses the one lane its predecessor left.
#[test]
fn query_ids_are_unique_and_monotone_across_reuse() {
    let acts = (0..6).flat_map(|_| [sub(EARLY, fk(64, 0x61)), DONE]).collect();
    let run = run(&Plan::new("query_ids", 128, 0, acts)
        .cfg(ServeConfig { max_active: 1, ..Default::default() }));
    assert_eq!(run.outs[0].reports.len(), 6);
}

/// Two lanes and a two-deep queue refuse a fifth query; a closed-loop
/// client honoring the hint is admitted on its first retry.
#[test]
fn admission_bounds_and_backpressure() {
    let mut acts: Vec<Act> = (0..5).map(|_| sub(PROBE, fk(512, 0x31))).collect();
    acts[4] = acts[4].clone().closed();
    let cfg = ServeConfig { max_active: 2, max_pending: 2, ..Default::default() };
    assert_eq!(run(&Plan::new("admission", 256, 0, acts).cfg(cfg)).subs[4].refused, 1);
}

#[test]
fn small_queries_keep_the_shared_window_fuller_than_private_windows() {
    let acts: Vec<Act> = (0..16).map(|i| sub(EARLY, fk(256, 0x40 + i))).collect();
    let occupancy =
        |acts, cfg| run(&Plan::new("small_queries", 1024, 0, acts).cfg(cfg)).outs[0].occupancy;
    let private: f64 =
        acts.iter().map(|a| occupancy(vec![a.clone()], ServeConfig::default())).sum();
    let shared = occupancy(acts, ServeConfig { max_active: 16, quantum: 64, ..Default::default() });
    assert!(shared > private / 16.0 && shared > 8.0, "shared {shared:.2} vs private {private:.2}");
}

#[test]
fn weighted_query_finishes_earlier_under_contention() {
    let acts =
        vec![sub(EARLY, fk(2_048, 0x51)).opts(|o| o.weight = 4), sub(EARLY, fk(2_048, 0x52))];
    let run = run(&Plan::new("weighted", 1024, 0, acts).cfg(quantum(64)));
    assert_eq!(Some(run.outs[0].reports[0].qid), run.subs[0].qid, "weight 4 completes first");
}

#[test]
fn faulted_probe_retries_and_recovers_bit_identically() {
    let t = Tenant { tier: None, fault: Some(FaultPlan::fail_only(0xFA11, 8)) };
    let cfg = ServeConfig { max_retries: 16, backoff_base: 16, ..Default::default() };
    let run = run(&Plan::new("faulted_probe", 1 << 12, 8, vec![sub(PROBE, fk(64, 0x71))])
        .cfg(cfg)
        .tenants(vec![t]));
    let r = run.report(0);
    assert_eq!(r.outcome, Completed, "the retry budget must recover");
    assert!(r.attempts > 1 && r.stats.failed_lookups > 0, "the first attempt must fault");
    assert_eq!(run.outs[0].retries(), u64::from(r.attempts - 1));
}

#[test]
fn cancel_reaps_active_and_pending_queries() {
    let big = || sub(EARLY, fk(4_000, 0x91));
    let acts = vec![
        big(),
        sub(EARLY, fk(1_000, 0x92)),
        big(),
        Act::Pump(1),
        Act::Cancel(0),
        Act::Cancel(2),
    ];
    let cfg = ServeConfig { max_active: 2, quantum: 64, ..Default::default() };
    let run = run(&Plan::new("cancel", 1024, 0, acts).cfg(cfg));
    assert_eq!(outcomes(&run), [(Cancelled, 1), (Completed, 1), (Cancelled, 0)]);
}

/// A missed deadline drains its lane without results (invariant 4) and
/// leaves the ledgers exact (invariant 1); its neighbour completes.
#[test]
fn deadline_exceeded_is_reported_and_the_lane_drains_clean() {
    let acts = vec![sub(EARLY, fk(5_000, 0x81)).deadline(1), sub(EARLY, fk(5_000, 0x81))];
    let run = run(&Plan::new("deadline", 1024, 0, acts).cfg(quantum(64)));
    assert_eq!(outcomes(&run), [(DeadlineExceeded, 1), (Completed, 1)]);
}

/// Two failures open the breaker; after its probe timer one health probe
/// runs, fails, and re-opens it.
#[test]
fn breaker_sheds_after_consecutive_failures_and_half_opens() {
    let q = || sub(PROBE, fk(500, 0xA1));
    let acts = vec![q(), DONE, q(), DONE, q(), Act::Pump(8), q(), DONE, q()];
    let cfg = ServeConfig { max_retries: 0, breaker_threshold: 2, ..Default::default() };
    let cfg = ServeConfig { breaker_mode: BreakerMode::Shed, breaker_probe_pumps: 4, ..cfg };
    let run = run(&Plan::new("shed", 1 << 12, 8, acts).cfg(cfg).tenants(vec![doomed(0xDEAD)]));
    let f = (FailedAfterRetries, 1);
    assert_eq!(outcomes(&run), [f, f, (Shed, 0), f, (Shed, 0)]);
}

/// An open breaker serves a faulted probe one tier rung down and a fused
/// pipeline as the fault-free two-phase plan; results stay exact.
#[test]
fn breaker_degrade_serves_probe_near_and_pipeline_two_phase() {
    let (q, pipe) =
        (sub(PROBE, fk(500, 0xB1)), sub(Kind::Pipeline { filter: true }, fk(800, 0xB2)));
    let acts = vec![q.clone(), DONE, q, DONE, pipe];
    let cfg = ServeConfig { max_retries: 0, breaker_threshold: 1, ..Default::default() };
    let cfg = ServeConfig { breaker_probe_pumps: 1 << 20, ..cfg };
    let run = run(&Plan::new("degrade", 1 << 12, 8, acts).cfg(cfg).tenants(vec![doomed(0xB00)]));
    assert_eq!(outcomes(&run), [(FailedAfterRetries, 1), (Completed, 1), (Completed, 1)]);
    assert_eq!((0..3).map(|i| run.report(i).degraded).collect::<Vec<_>>(), [false, true, true]);
}

/// A shedding breaker in a crash plan: the recovery session files the
/// replay report, the failure and the shed, each with its event (invariant
/// 3), beside an upsert whose WAL tail it replays.
#[test]
fn breaker_and_replay_reports_file_their_event_too() {
    let ups = Src::Zipf { len: 300, domain: 512, theta: 0.6, seed: 0x64, offset: 768 };
    let q = || sub(PROBE, zipf(500, 512, 0.0, 0x61)).tenant(1);
    let acts = vec![sub(UPSERT, ups), DONE, q(), DONE, q()];
    let cfg = ServeConfig { max_retries: 0, breaker_threshold: 1, ..Default::default() };
    let cfg = ServeConfig { breaker_mode: BreakerMode::Shed, breaker_probe_pumps: 1 << 20, ..cfg };
    let seed = (0u64..).find(|&s| CrashPlan::new(s).wave(WAVES) >= 1).unwrap();
    let plan = Plan::new("shed_replay", 1024, 8, acts).cfg(cfg).tenants(vec![HEALTHY, doomed(4)]);
    let (runs, replayed) = drive(&Plan { crash: Some((seed, WAVES + 1)), ..plan });
    assert!(replayed > 0, "recovery replayed nothing");
    let (c, f, s) = ((Completed, 1), (FailedAfterRetries, 1), (Shed, 0));
    assert!(runs.iter().all(|run| outcomes(run) == [c, f, s]), "breaker outcomes");
}

#[test]
fn run_with_budget_reports_stalled_and_can_resume() {
    let acts = vec![sub(EARLY, fk(10_000, 0xC1)), Act::Budget(3), DONE];
    let run = run(&Plan::new("budget", 1024, 0, acts).cfg(quantum(64)));
    assert_eq!(run.budgets, [Err(Stalled { pumps: 3, in_flight: 10, active: 1 }), Ok(())]);
}

#[test]
fn upsert_queries_mutate_the_catalog_and_log_durably() {
    let ups = Src::Zipf { len: 2_000, domain: 1536, theta: 0.6, seed: 0xE2, offset: 1024 };
    let acts = vec![sub(EARLY, zipf(2_000, 1024, 0.8, 0xE1)), sub(UPSERT, ups)];
    let plan = Plan::new("upserts", 2048, 0, acts).cfg(quantum(64));
    let run = run(&plan);
    let stats = run.report(1).stats;
    assert!(stats.log_bytes > 0 && stats.log_stalls > 0);
    // A solo twin on a pristine catalog: the same contents and WAL.
    let cat = Catalog::new(&plan);
    let (twin, input) = (&cat.pristine[0], &Ctx::new(&plan, &cat, 0, None).inputs[1]);
    let solo = mutate(twin, input, Technique::Amac, &Default::default());
    assert_eq!(run.contents[0], twin.contents_sorted(), "contents = the solo twin's");
    assert_eq!(sorted(&run.wal[0]), sorted(&solo.wal), "WAL = the solo twin's");
    assert_eq!(run.wal[0].len(), 2_000, "every applied mutation logged");
}

/// A crash past wave 1 with no checkpoint after the first: recovery
/// replays the sealed segments of two waves.
#[test]
fn recover_replay_rebuilds_the_catalog_and_keeps_books() {
    let ups = Src::Zipf { len: 300, domain: 512, theta: 0.6, seed: 0xF1, offset: 768 };
    let acts =
        vec![sub(UPSERT, ups), sub(PROBE, zipf(300, 512, 0.9, 0xF2)).opts(|o| o.recovered = true)];
    let seed = (0u64..).find(|&s| CrashPlan::new(s).wave(WAVES) >= 2).unwrap();
    let plan =
        Plan { crash: Some((seed, WAVES + 1)), ..Plan::new("recover_replay", 1024, 0, acts) };
    assert_eq!(drive(&plan).1, 2, "recovery replays two waves' segments");
}

/// Every lane of an untiered run keeps no time, so window time is one
/// tick per routed stage plus idle visits. The constants were read off
/// the commit before plain lanes stopped syncing their absent clocks.
#[test]
fn untiered_mixed_run_pins_window_time_and_ledger() {
    let kinds = [MATERIALIZE, Kind::GroupBy, Kind::Pipeline { filter: false }, UPSERT];
    let acts = (0..12).map(|i| sub(kinds[i % 4], fk(300, 0x300 + i as u64))).collect();
    let run = run(&Plan::new("untiered_mixed_run", 2048, 0, acts).cfg(quantum(64)));
    assert_eq!(run.now[0], 8_485, "8,478 stages + 7 idle visits");
    let want = EngineStats {
        lookups: 3_600,
        stages: 8_478,
        prefetches: 4_878,
        nodes_visited: 4_878,
        tag_rejects: 302,
        issued_loads: 4_878,
        log_bytes: 15_300,
        log_stalls: 1_800,
        ..Default::default()
    };
    assert_eq!(run.outs[0].stats, want);
}

fn deadline_ticks(out: &ServeOutput) -> Vec<u64> {
    let fired = out.trace.events().filter(|e| matches!(e.kind, EventKind::Deadline { .. }));
    fired.map(|e| e.at).collect()
}

/// When an untiered deadline fires is window time, and so pinned like the
/// run above.
#[test]
fn untiered_deadline_fires_at_a_pinned_tick() {
    let acts = vec![sub(EARLY, fk(5_000, 0x3D1)).deadline(2_000), sub(EARLY, fk(5_000, 0x3D1))];
    let run = run(&Plan::new("untiered_deadline", 1024, 0, acts).cfg(quantum(64)));
    assert_eq!(deadline_ticks(&run.outs[0]), [2_166]);
    assert_eq!((run.report(0).stats.lookups, run.now[0]), (512, 11_639));
}

/// The 1024-tick backoff cap outlasts a 1000-tick deadline: the query
/// misses it in backoff, with no deadline instant.
#[test]
fn backoff_is_charged_to_the_sim_clock() {
    let acts = vec![sub(PROBE, fk(64, 0xD1)).deadline(1_000)];
    let cfg = ServeConfig { max_retries: 8, backoff_base: 1 << 20, ..Default::default() };
    let run = run(&Plan::new("backoff", 1 << 12, 8, acts).cfg(cfg).tenants(vec![doomed(0xD0)]));
    assert_eq!(outcomes(&run), [(DeadlineExceeded, 1)]);
    assert!(deadline_ticks(&run.outs[0]).is_empty(), "the deadline passed in backoff");
}

/// Every end a query can reach in one session: cancelled while active,
/// pending or backing off, failed, deadlines in the window and in backoff.
#[test]
fn every_window_lifecycle_end_files_its_report_and_event() {
    let (small, big) = (fk(500, 0x51), fk(4_000, 0x52));
    let q = |src, tenant| sub(PROBE, src).tenant(tenant);
    let acts = [
        vec![q(small, 0), q(big, 0), q(small, 0), Act::Pump(1), Act::Cancel(1), Act::Cancel(2)],
        vec![DONE, q(small, 1), Act::UntilBackoff, Act::Cancel(3), q(small, 2)],
        vec![q(big, 0).deadline(1), q(small, 0).opts(|o| o.recovered = true), DONE],
        vec![q(small, 3).deadline(600)],
    ];
    let cfg = ServeConfig { max_active: 2, max_retries: 1, backoff_base: 1024, ..quantum(64) };
    let tenants = vec![HEALTHY, doomed(1), doomed(2), doomed(3)];
    let run = run(&Plan::new("lifecycle", 1 << 12, 8, acts.concat()).cfg(cfg).tenants(tenants));
    let (c, d, f) = (Cancelled, DeadlineExceeded, FailedAfterRetries);
    let want = [(Completed, 1), (c, 1), (c, 0), (c, 1), (f, 2), (d, 1), (Recovered, 1), (d, 1)];
    assert_eq!(outcomes(&run), want);
    assert_eq!(deadline_ticks(&run.outs[0]).len(), 1, "the last deadline passed in backoff");
}

/// Beside a faulted tenant, some of whose queries survive a retry and some
/// spend the whole budget, two impossible deadlines miss.
#[test]
fn faulted_tenant_survivors_and_healthy_neighbours_stay_exact() {
    const SEED: u64 = 0xC4A05;
    let faulty = Tenant { tier: None, fault: Some(FaultPlan::fail_only(SEED ^ 0xFA17, 2)) };
    let q = |seed, tenant| sub(PROBE, fk(2048, seed)).tenant(tenant).closed();
    let mut acts: Vec<Act> = (0..8).flat_map(|i| [q(SEED + i, 0), q(SEED + 100 + i, 1)]).collect();
    acts.extend((0..2).map(|i| q(SEED + i, 2).deadline(1)));
    let cfg = ServeConfig { max_active: 8, max_pending: 8, ..quantum(128) };
    let cfg = ServeConfig { max_retries: 4, backoff_base: 32, ..cfg };
    let run = run(&Plan::new("chaos", 2048, 0, acts).cfg(cfg).tenants(vec![HEALTHY, faulty]));
    let reports: Vec<&QueryReport> = (0..18).map(|i| run.report(i)).collect();
    let faulted = |o| reports.iter().any(|r| r.tenant == 1 && r.outcome == o && r.attempts > 1);
    assert!(faulted(Completed), "no faulted query survived a retry");
    assert!(faulted(FailedAfterRetries), "no faulted query exhausted its retry budget");
    assert!(reports.iter().filter(|r| r.tenant == 2).all(|r| r.outcome == DeadlineExceeded));
}

/// A uniform probe and, as tenant 1, a skewed one over a 4,096-key catalog.
fn neighbours(uniform: Kind, skewed: Kind) -> Vec<Act> {
    let (u, s) = (zipf(4_000, 2048, 0.0, 0x5EED), zipf(4_000, 2048, 1.0, 0x5EED));
    vec![sub(uniform, u), sub(skewed, s).tenant(1)]
}

/// A skewed neighbour leaves a tenant its solo results, order,
/// `nodes_visited` and lookups (the generic oracle).
#[test]
fn uniform_tenant_unaffected_in_serving_scheduler() {
    let acts = neighbours(MATERIALIZE, MATERIALIZE);
    let run = run(&Plan::new("skewed_neighbour", 4096, 8, acts).cfg(quantum(64)));
    assert!(run.outs[0].fairness_nodes_ratio() > 1.0, "the neighbour is skewed");
}

#[test]
fn solo_vs_shared_serving_occupancy_and_report_consistency() {
    let run = run(&Plan::new("shared", 4096, 8, neighbours(PROBE, PROBE)).cfg(quantum(128)));
    let out = &run.outs[0];
    assert!(out.occupancy > 0.0 && out.occupancy <= out.window as f64, "occupancy");
    assert!(out.fairness_nodes_ratio() > 1.0);
    assert_eq!(out.latency.count(), 2);
}

/// A far-heavy neighbour leaves an `AllNear` tenant its solo counters,
/// cycles and stalls (the generic oracle); the near tenant is stall-free.
#[test]
fn far_tier_tenant_does_not_inflate_near_tier_tenant() {
    let far = Tenant { tier: Some(TierSpec::headers_near(8)), fault: None };
    let tenants = vec![Tenant { tier: near(), fault: None }, far];
    let acts = neighbours(MATERIALIZE, PROBE);
    let run = run(&Plan::new("far_neighbour", 4096, 8, acts).cfg(quantum(64)).tenants(tenants));
    assert_eq!(run.report(0).stats.sim_stalls, 0, "a near-only tenant at M = 10 is stall-free");
    assert!(run.report(1).stats.sim_stalls > 0, "the far tenant pays its own latency");
}

/// A deadline victim (tenant 0), a doomed query (tenant 1) and two healthy
/// ones, with 32-event flight rings.
fn flight() -> Plan {
    let (big, small) = (fk(4_000, 0x81), fk(1_000, 0x82));
    let acts = (1..4).map(|t| sub(PROBE, small).tenant(t));
    let acts = [sub(PROBE, big).deadline(1)].into_iter().chain(acts).collect();
    let cfg = ServeConfig { max_retries: 0, flight_recorder: 32, ..quantum(64) };
    Plan::new("flight", 1 << 12, 8, acts).cfg(cfg).tenants(vec![HEALTHY, doomed(0xDEAD)])
}

fn flights(run: &Run) -> Vec<Vec<amac_trace::TraceEvent>> {
    (0..run.subs.len()).map(|i| run.report(i).flight.clone()).collect()
}

/// Rings carry their tenant's stamp and a failure's ring holds its fault;
/// which rings are kept is invariant 8.
#[test]
fn failing_queries_surface_their_ring_and_healthy_tenants_retain_nothing() {
    let on = run(&flight());
    let (c, d, f) = ((Completed, 1), (DeadlineExceeded, 1), (FailedAfterRetries, 1));
    assert_eq!(outcomes(&on), [d, f, c, c]);
    let stamped =
        |i| on.report(i).flight.iter().all(|e| u32::from(e.tenant) == on.report(i).tenant);
    assert!(stamped(0) && stamped(1), "ring events carry their tenant");
    assert!(on.report(1).flight.iter().any(|e| matches!(e.kind, EventKind::Fault { .. })));
}

#[test]
fn flight_rings_are_deterministic_and_off_by_default() {
    let plan = flight();
    let on = run(&plan);
    assert_eq!(flights(&on), flights(&run(&plan)), "rings must be deterministic");
    let default = ServeConfig::default().flight_recorder;
    let off =
        run(&Plan { cfg: ServeConfig { flight_recorder: default, ..plan.cfg.clone() }, ..plan });
    assert!(flights(&off).iter().all(Vec::is_empty), "a ring with the recorder off");
    assert_eq!(sigs(&on), sigs(&off), "the recorder must not perturb a query");
}

#[test]
fn tenants_route_stably_and_results_match_solo() {
    let acts =
        (0..8).map(|t| sub(MATERIALIZE, zipf(512, 512, 0.0, 2 * t + 3)).tenant(t as u32)).collect();
    let run = run(&Plan::new("sharded", 1024, 0, acts).sharded(4));
    let nodes = run.outs.iter().flat_map(|o| &o.reports).map(|r| r.stats.nodes_visited);
    let fairness = amac_server::fairness_nodes_ratio(nodes);
    assert!((1.0..2.0).contains(&fairness), "uniform tenants, fairness {fairness}");
}

/// With one shard fed four times the other's input, a sharded pump
/// returns the sum of both, and 0 only once both ran dry.
#[test]
fn pump_returns_the_tuples_fed_across_shards() {
    let router = &ShardRouter::new(6, 2);
    let home = |s| (0u32..64).filter(move |&t| router.shard_of_tenant(t) == s).take(2);
    let q = |t: u32, len| sub(EARLY, zipf(len, 512, 0.0, u64::from(t))).tenant(t);
    let mut acts: Vec<Act> =
        home(0).map(|t| q(t, 2_048)).chain(home(1).map(|t| q(t, 512))).collect();
    acts.push(Act::Pump(200));
    let run = run(&Plan::new("sharded_pump", 1024, 0, acts).cfg(quantum(64)).sharded(2));
    let tuples: Vec<u64> =
        run.outs.iter().map(|o| o.reports.iter().map(|r| r.tuples).sum()).collect();
    assert!(tuples[0] > 2 * tuples[1], "one shard runs dry first: {tuples:?}");
    let total = tuples[0] + tuples[1];
    let dry = run.fed.iter().position(|&f| f == 0).expect("the pumps ran dry");
    assert_eq!(run.fed[..dry].iter().sum::<usize>() as u64, total, "0 before every input was fed");
    assert!(run.fed[dry..].iter().all(|&f| f == 0));
}

#[test]
fn upserts_stay_on_their_home_shard_with_private_wals() {
    let ups = Src::Zipf { len: 512, domain: 512, theta: 0.0, seed: 13, offset: 768 };
    let acts = vec![sub(UPSERT, ups).tenant(5)];
    let run = run(&Plan::new("sharded_upserts", 1024, 0, acts).sharded(4));
    let home = ShardRouter::new(6, 4).shard_of_tenant(5);
    let logged: Vec<usize> = run.wal.iter().map(Vec::len).collect();
    let want = (0..4).map(|s| if s == home { run.report(0).matches as usize } else { 0 });
    assert_eq!(logged, want.collect::<Vec<_>>());
}
