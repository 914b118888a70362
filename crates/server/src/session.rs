//! The serving scheduler: admission, deficit-round-robin interleaving,
//! one shared in-flight window, and the sweep that retires, retries or
//! reports each query — plus the failure model: deadlines, bounded retry
//! with sim-clock backoff, per-tenant circuit breakers, and cooperative
//! cancellation. A query's record, its report and the breaker are
//! [`crate::query`]'s.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use amac::engine::mux::{Mux, MuxState};
use amac::engine::{AmacSession, EngineStats, Hooks, LookupOp, Technique, TuningParams};
use amac_hashtable::HashTable;
use amac_metrics::LatencyHistogram;
use amac_ops::groupby::GroupByOp;
use amac_ops::join::ProbeOp;
use amac_ops::mutate::{replay, MutateOp};
use amac_ops::pipeline::{fused_probe_groupby_op, probe_then_groupby_two_phase, PipelineConfig};
use amac_tier::{TierSpec, WalRecord};
use amac_trace::{TraceEvent, Tracer};

use crate::query::{Breaker, Query, Work};
use crate::request::{
    Backpressure, BreakerMode, QueryId, QueryOutcome, QueryReport, Request, Stalled, SubmitOpts,
};
use crate::tenant::{TenantOp, TenantState};

/// Slot-rotation budget for one pump's window drain. Bounds the cost of a
/// pump even if a lane is wedged (see [`AmacSession::drain_lanes`]);
/// combined with [`run_with_budget`](ServeSession::run_with_budget) it
/// turns livelock into a reportable [`Stalled`].
const DRAIN_BUDGET: usize = 1 << 20;

/// Ceiling on one retry backoff wait, in sim ticks.
const BACKOFF_CAP: u64 = 1024;

/// Serving-session policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shared-window tuning: `in_flight` is the window `M` that *all*
    /// active queries' lookups share.
    pub params: TuningParams,
    /// Admission bound: queries concurrently sharing the window. More
    /// active queries = finer interleaving but more cache working sets
    /// competing; the window itself stays `M` deep regardless.
    pub max_active: usize,
    /// Backpressure bound: queries waiting for admission before
    /// [`ServeSession::submit`] refuses outright.
    pub max_pending: usize,
    /// Deficit-round-robin quantum in tuples: how many of one query's
    /// lookups are fed before the next query's turn. A quantum is one
    /// call of the query's lane ([`AmacSession::feed_lane`]): its stages
    /// run as that query's own op, and its ledger settles once, so small
    /// quanta mix queries tightly in the window and large quanta run
    /// longer stretches of one query's code.
    pub quantum: usize,
    /// Retry budget for retryable queries (probes) beyond the first
    /// attempt. Fused pipelines are never retried — their group-by stage
    /// aggregates incrementally, so a re-run would double-count — they
    /// fail terminally (or the breaker degrades them to two-phase).
    pub max_retries: u32,
    /// Backoff before retry attempt `k` (1-based): `backoff_base << (k-1)`
    /// sim ticks, capped at a fixed 1024. Charged to the simulated clock,
    /// so backoff counts against deadlines deterministically.
    pub backoff_base: u64,
    /// Consecutive [`QueryOutcome::FailedAfterRetries`] outcomes from one
    /// tenant that open its circuit breaker.
    pub breaker_threshold: u32,
    /// Pumps an open breaker waits before letting one half-open health
    /// probe through at full service.
    pub breaker_probe_pumps: u64,
    /// What an open breaker does with the tripped tenant's new queries.
    pub breaker_mode: BreakerMode,
    /// Per-query flight recorder: `k > 0` installs a last-`k` ring tracer
    /// ([`amac_trace::Tracer::ring`]) on every attempt's lane op, stamped
    /// with the query's tenant. When the query ends in
    /// [`QueryOutcome::DeadlineExceeded`] or
    /// [`QueryOutcome::FailedAfterRetries`] the ring's tail is routed
    /// into [`QueryReport::flight`]; healthy completions drop theirs.
    /// `0` (the default) records nothing — tracing never touches the sim
    /// clock, so results and counters are bit-identical either way.
    pub flight_recorder: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            params: TuningParams::default(),
            max_active: 8,
            max_pending: 64,
            quantum: 256,
            max_retries: 2,
            backoff_base: 64,
            breaker_threshold: 3,
            breaker_probe_pumps: 8,
            breaker_mode: BreakerMode::Degrade,
            flight_recorder: 0,
        }
    }
}

/// Why an active query is being drained out of the window instead of fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aborting {
    /// A transient fault poisoned this attempt; requeue with backoff once
    /// the lane's in-flight lookups retire.
    Retry,
    /// No retry: report this outcome once the lane drains.
    Final(QueryOutcome),
    /// The deadline passed at this sim tick: report `DeadlineExceeded`
    /// once the lane drains.
    Deadline(u64),
}

/// A query with one attempt in the window.
struct Active<'a> {
    q: Query<Request<'a>>,
    lane: u32,
    /// Input tuples fed so far.
    cursor: usize,
    deficit: usize,
    aborting: Option<Aborting>,
    /// Sim tick at which this attempt entered the window (the start of
    /// the query span recorded into the session tracer).
    born_at: u64,
}

/// Aggregate outcome of a serving session.
#[derive(Debug, Clone, Default)]
pub struct ServeOutput {
    /// Per-query reports in completion order (exactly one per submitted
    /// query, whatever its [`QueryOutcome`]).
    pub reports: Vec<QueryReport>,
    /// Merged engine counters over all queries.
    pub stats: EngineStats,
    /// Mean shared-window occupancy over the whole session (out of the
    /// configured `M`) — deterministic, see
    /// [`AmacSession::mean_occupancy`].
    pub occupancy: f64,
    /// Window capacity the session ran with.
    pub window: usize,
    /// Query-latency histogram (submit → completion, nanoseconds;
    /// completed queries only).
    pub latency: LatencyHistogram,
    /// Queries refused at submission (pending queue full).
    pub rejected: u64,
    /// Wall time from session creation to [`ServeSession::finish`].
    pub seconds: f64,
    /// The session-level tracer (query spans, sheds, deadlines), taken at
    /// [`ServeSession::finish`]. Disabled unless the caller installed one
    /// via [`ServeSession::set_tracer`].
    pub trace: Tracer,
}

/// Fairness ratio: max over tenants of per-tenant nodes visited, divided
/// by the mean (1.0 = perfectly even traversal work; empty or all-zero
/// inputs report 1.0). With per-query windows this would be trivially
/// 1-per-query; in a shared window it shows how unevenly tenants consume
/// the engine. The single definition behind [`ServeOutput`],
/// [`ShardedServeOutput`](crate::ShardedServeOutput) and `bench serve`.
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

impl ServeOutput {
    /// Fairness ratio: max over queries of nodes visited divided by the
    /// mean (1.0 = every query paid the same traversal work; the single
    /// definition is [`fairness_nodes_ratio`]).
    pub fn fairness_nodes_ratio(&self) -> f64 {
        fairness_nodes_ratio(self.reports.iter().map(|r| r.stats.nodes_visited))
    }

    /// Reports with the given outcome.
    pub fn count(&self, outcome: QueryOutcome) -> u64 {
        self.reports.iter().filter(|r| r.outcome == outcome).count() as u64
    }

    /// Retries across all queries: attempts beyond each query's first.
    pub fn retries(&self) -> u64 {
        self.reports.iter().map(|r| (r.attempts.max(1) - 1) as u64).sum()
    }
}

/// A cross-query serving session: many concurrent client queries share
/// **one** AMAC in-flight window.
///
/// Mechanics per [`pump`](ServeSession::pump) round:
///
/// 1. deadline sweep: active queries past their sim-tick deadline are
///    cooperatively cancelled ([`Mux::cancel`]) and drain out;
/// 2. retry promotion: queries whose backoff expired re-enter the window
///    (when every query is backing off and the window is empty, the sim
///    clock jumps to the earliest retry time — backoff is *charged*, not
///    busy-waited);
/// 3. deficit-round-robin over active queries: each gets
///    `quantum × weight` tuples of credit, fed into the shared
///    [`AmacSession`] as one call of its lane
///    ([`AmacSession::feed_lane`]), which looks ahead like a solo feed;
/// 4. if no query had input left, the window is drained (under
///    a fixed budget of 2^20 slot rotations) so tails retire;
/// 5. fault sweep: a lane whose ledger shows a failed lookup has its
///    attempt cancelled; retryable queries requeue with exponential
///    backoff, others fail terminally;
/// 6. completed and fully-drained-aborted queries are removed, their
///    results routed into a [`QueryReport`], and pending queries admitted
///    into the freed lanes.
///
/// Results of surviving queries are **bit-identical to solo runs** by
/// construction: faults are a pure function of `(seed, key, hop)`, so
/// sharing the window — or degrading *other* tenants — changes only
/// *when* stages run, never what a completing query computes.
pub struct ServeSession<'a> {
    catalog: &'a HashTable,
    cfg: ServeConfig,
    mux: Mux<TenantOp<'a>>,
    window: AmacSession<MuxState<TenantState>>,
    stats: EngineStats,
    active: Vec<Active<'a>>,
    pending: VecDeque<Query<Request<'a>>>,
    /// Retries in backoff, each behind the earliest sim tick it may
    /// re-enter the window.
    waiting: Vec<(u64, Query<Request<'a>>)>,
    breakers: BTreeMap<u32, Breaker>,
    finished: Vec<QueryReport>,
    latency: LatencyHistogram,
    /// WAL records drained from completed (or aborted) mutation lanes,
    /// in lane-retirement order — the durability frontier the client
    /// seals/persists via [`ServeSession::drain_wal`].
    wal_buf: Vec<WalRecord>,
    /// Session-level tracer: query spans (activation → settle), sheds and
    /// deadline instants — the serving-layer events no single lane op can
    /// see. Disabled unless [`ServeSession::set_tracer`] installs one.
    trace: Tracer,
    rr: usize,
    next_qid: u64,
    rejected: u64,
    pumps: u64,
    born: Instant,
}

impl<'a> ServeSession<'a> {
    /// A session serving queries against the shared `catalog` table.
    pub fn new(catalog: &'a HashTable, cfg: ServeConfig) -> Self {
        let cfg = ServeConfig { max_active: cfg.max_active.max(1), ..cfg };
        let window = AmacSession::new(cfg.params.in_flight);
        ServeSession {
            catalog,
            cfg,
            mux: Mux::new(),
            window,
            stats: EngineStats::default(),
            active: Vec::new(),
            pending: VecDeque::new(),
            waiting: Vec::new(),
            breakers: BTreeMap::new(),
            finished: Vec::new(),
            latency: LatencyHistogram::new(),
            wal_buf: Vec::new(),
            trace: Tracer::off(),
            rr: 0,
            next_qid: 0,
            rejected: 0,
            pumps: 0,
            born: Instant::now(),
        }
    }

    /// Submit a query with default options (weight 1, tenant 0, no
    /// deadline).
    pub fn submit(&mut self, req: Request<'a>) -> Result<QueryId, Backpressure> {
        self.submit_opts(req, SubmitOpts::default())
    }

    /// Submit a query with full options. Admits immediately if a lane is
    /// free, queues if the pending bound allows, otherwise refuses — the
    /// backpressure signal carries a deterministic
    /// [`retry_after_pumps`](Backpressure::retry_after_pumps) hint for
    /// closed-loop clients. If the tenant's circuit breaker is open the
    /// query is shed or degraded per [`ServeConfig::breaker_mode`] (it
    /// still gets a report, under its [`QueryId`]).
    pub fn submit_opts(
        &mut self,
        req: Request<'a>,
        opts: SubmitOpts,
    ) -> Result<QueryId, Backpressure> {
        if self.active.len() >= self.cfg.max_active && self.pending.len() >= self.cfg.max_pending {
            self.rejected += 1;
            return Err(Backpressure {
                active: self.active.len(),
                pending: self.pending.len(),
                max_pending: self.cfg.max_pending,
                retry_after_pumps: self.retry_hint(),
            });
        }
        let qid = QueryId(self.next_qid);
        self.next_qid += 1;
        let mut q = Query::new(qid, req, opts);
        if !self.breakers.entry(q.opts.tenant).or_default().admits(self.pumps) {
            let mut shed = self.cfg.breaker_mode == BreakerMode::Shed;
            match &mut q.req {
                _ if shed => {}
                Request::Probe { cfg, .. } if cfg.fault.is_some() => {
                    // One rung down the tier ladder: fewer far loads, fewer
                    // fault opportunities (AllNear faults never — near
                    // loads are unchecked).
                    let spec = cfg.tier.unwrap_or_else(|| TierSpec::headers_near(1));
                    match spec.policy.degrade() {
                        Some(policy) => {
                            cfg.tier = Some(TierSpec { policy, ..spec });
                            q.degraded = true;
                        }
                        None => shed = true,
                    }
                }
                Request::Pipeline { fact, table, cfg } if cfg.fault.is_some() => {
                    // The fused plan cannot be retried (its group-by
                    // aggregates incrementally), so the breaker swaps the
                    // plan: fault-free two-phase, run synchronously, same
                    // results.
                    let safe = PipelineConfig { fault: None, ..cfg.clone() };
                    let out = probe_then_groupby_two_phase(
                        self.catalog,
                        table,
                        fact,
                        Technique::Amac,
                        &safe,
                    );
                    let mut led = out.stats;
                    self.stats.merge(&led);
                    (q.attempts, q.degraded) = (1, true);
                    let outcome = self.completion(q.opts.recovered, &mut led);
                    let rep = self.end(q, outcome, led, None);
                    (rep.matched, rep.matches) = (out.matched, out.aggregated);
                    let latency_ns = rep.latency_ns;
                    self.latency.record(latency_ns);
                    return Ok(qid);
                }
                // Unfaultable requests pass through unchanged.
                _ => {}
            }
            if shed {
                self.end(q, QueryOutcome::Shed, EngineStats::default(), None);
                return Ok(qid);
            }
        }
        if self.active.len() < self.cfg.max_active {
            self.activate(q);
        } else {
            self.pending.push_back(q);
        }
        Ok(qid)
    }

    /// Cooperatively cancel a query wherever it is: active (its in-flight
    /// lookups retire without executing further stages), backing off, or
    /// still pending. It completes with [`QueryOutcome::Cancelled`] and
    /// no results. Returns `false` if the id is unknown or already
    /// completed.
    pub fn cancel(&mut self, qid: QueryId) -> bool {
        if let Some(a) = self.active.iter_mut().find(|a| a.q.qid == qid) {
            if !matches!(a.aborting, Some(Aborting::Final(_) | Aborting::Deadline(_))) {
                self.mux.cancel(a.lane);
                a.aborting = Some(Aborting::Final(QueryOutcome::Cancelled));
            }
            return true;
        }
        let q = if let Some(i) = self.waiting.iter().position(|(_, q)| q.qid == qid) {
            self.waiting.remove(i).1
        } else if let Some(i) = self.pending.iter().position(|q| q.qid == qid) {
            self.pending.remove(i).expect("indexed pending entry")
        } else {
            return false;
        };
        self.end(q, QueryOutcome::Cancelled, EngineStats::default(), None);
        true
    }

    /// One scheduling round. Returns the number of tuples fed; `0` means
    /// every feedable query's input is exhausted (the round then drained
    /// the window — under the drain budget — so tail lookups retire and
    /// queries complete).
    pub fn pump(&mut self) -> usize {
        self.pumps += 1;
        // Everyone backing off + empty window: sim time cannot advance
        // through work, so charge the wait to the clock directly.
        if self.active.is_empty() {
            if let Some(t) = self.waiting.iter().map(|(t, _)| *t).min() {
                self.mux.advance_to(t);
            }
        }
        self.check_deadlines();
        self.promote_waiting();
        self.admit_from_pending();
        let mut fed = 0usize;
        let n = self.active.len();
        for i in 0..n {
            let idx = (self.rr + i) % n;
            let (lane, inputs, lo, hi) = {
                let a = &mut self.active[idx];
                let inputs = a.q.req.inputs();
                let remaining = inputs.len() - a.cursor;
                if a.aborting.is_some() || remaining == 0 {
                    a.deficit = 0;
                    continue;
                }
                a.deficit += self.cfg.quantum.max(1) * a.q.opts.weight as usize;
                let take = a.deficit.min(remaining);
                let lo = a.cursor;
                a.cursor += take;
                a.deficit -= take;
                (a.lane, inputs, lo, lo + take)
            };
            self.window.feed_lane(&mut self.mux, lane, &inputs[lo..hi], &mut self.stats);
            fed += hi - lo;
        }
        if n > 0 {
            self.rr = (self.rr + 1) % n;
        }
        if fed == 0 && self.window.in_flight() > 0 {
            self.window.drain_lanes(&mut self.mux, &mut self.stats, DRAIN_BUDGET);
        }
        self.detect_failures();
        self.sweep_completed();
        fed
    }

    /// Drive every submitted query (and everything admitted from the
    /// pending queue along the way) to completion.
    pub fn run_to_completion(&mut self) {
        let _ = self.run_with_budget(usize::MAX);
    }

    /// [`run_to_completion`](ServeSession::run_to_completion) with a pump
    /// budget: give up after `max_pumps` rounds and return [`Stalled`]
    /// with queries still unfinished. Together with each pump's fixed
    /// drain budget this bounds the work of a run even when a lane is
    /// wedged (a latch that never frees, an op that never progresses) —
    /// livelock becomes a value the caller can act on. The session stays
    /// valid: grant more budget or cancel the stragglers.
    pub fn run_with_budget(&mut self, max_pumps: usize) -> Result<(), Stalled> {
        let mut pumps = 0usize;
        while !self.active.is_empty() || !self.pending.is_empty() || !self.waiting.is_empty() {
            if pumps == max_pumps {
                return Err(Stalled {
                    pumps,
                    in_flight: self.window.in_flight(),
                    active: self.active.len(),
                });
            }
            pumps += 1;
            self.pump();
        }
        Ok(())
    }

    /// Closed-loop hint: pumps until the smallest active query should
    /// complete and free a lane.
    fn retry_hint(&self) -> usize {
        let q = self.cfg.quantum.max(1);
        self.active
            .iter()
            .map(|a| (a.q.req.input_len() - a.cursor) / (q * a.q.opts.weight as usize) + 2)
            .min()
            .unwrap_or(1)
    }

    /// End `q` with `outcome` and its last attempt's ledger `led` (or the
    /// work it did outside the window): file its one report, fold the
    /// outcome into its tenant's breaker, and record its session event —
    /// a `Shed` instant, or a `Query` span from `since` (the attempt's
    /// window entry; now if it is not in the window). Returns the report
    /// for the caller to route results into.
    fn end<W: Work>(
        &mut self,
        q: Query<W>,
        outcome: QueryOutcome,
        led: EngineStats,
        since: Option<u64>,
    ) -> &mut QueryReport {
        let (now, qid) = (self.mux.now(), q.qid.0);
        self.trace.record(match outcome {
            QueryOutcome::Shed => TraceEvent::shed(now, qid),
            _ => TraceEvent::query(since.unwrap_or(now), qid, now, outcome.label()),
        });
        let (threshold, probe_at) =
            (self.cfg.breaker_threshold, self.pumps + self.cfg.breaker_probe_pumps);
        let breaker = self.breakers.entry(q.opts.tenant).or_default();
        breaker.settle(outcome, q.degraded, threshold, probe_at);
        self.finished.push(q.report(outcome, led));
        self.finished.last_mut().expect("report just filed")
    }

    /// Install the query's next attempt on a fresh lane. The first
    /// attempt fixes the deadline. Retries re-run the original request
    /// with the fault plan reseeded by the attempt index, so a retry
    /// re-rolls every fault decision instead of deterministically hitting
    /// the identical failure forever.
    fn activate(&mut self, mut q: Query<Request<'a>>) {
        let now = self.mux.now();
        if q.attempts == 0 {
            q.deadline_at = q.opts.deadline_ticks.map(|d| now + d);
        }
        let mut op = match q.req.clone() {
            Request::Probe { probes, mut cfg } => {
                cfg.fault = cfg.fault.map(|plan| plan.reseeded(q.attempts));
                TenantOp::Probe(ProbeOp::new(self.catalog, &cfg, probes.len()))
            }
            Request::GroupBy { table, cfg, .. } => {
                TenantOp::GroupBy(GroupByOp::new(table, &cfg.exec()))
            }
            Request::Pipeline { table, cfg, .. } => {
                TenantOp::Pipeline(Box::new(fused_probe_groupby_op(self.catalog, table, &cfg)))
            }
            Request::Upsert { cfg, .. } => TenantOp::Upsert(MutateOp::new(self.catalog, &cfg)),
        };
        q.attempts += 1;
        if self.cfg.flight_recorder > 0 {
            let t = q.opts.tenant.min(u32::from(u16::MAX)) as u16;
            op.ctx().set_tracer(Tracer::ring(self.cfg.flight_recorder).with_tenant(t));
        }
        let lane = self.mux.add(op);
        self.active.push(Active { q, lane, cursor: 0, deficit: 0, aborting: None, born_at: now });
    }

    /// Cancel attempts whose sim-tick deadline has passed. The lane's
    /// in-flight lookups still retire cooperatively before the report is
    /// emitted, so the ledger stays exact.
    fn check_deadlines(&mut self) {
        let now = self.mux.now();
        for a in &mut self.active {
            if matches!(a.aborting, Some(Aborting::Final(_) | Aborting::Deadline(_)))
                || a.q.deadline_at.is_none_or(|d| now < d)
            {
                continue;
            }
            self.mux.cancel(a.lane);
            self.trace.record(TraceEvent::deadline(now, a.q.qid.0));
            a.aborting = Some(Aborting::Deadline(now));
        }
    }

    /// Re-admit retries whose backoff expired (retries take lanes before
    /// brand-new pending queries). A retry whose deadline was consumed by
    /// the backoff itself reports `DeadlineExceeded` without re-entering
    /// the window.
    fn promote_waiting(&mut self) {
        let now = self.mux.now();
        let mut i = 0;
        while i < self.waiting.len() && self.active.len() < self.cfg.max_active {
            if self.waiting[i].0 > now {
                i += 1;
                continue;
            }
            let (_, q) = self.waiting.remove(i);
            if q.deadline_at.is_some_and(|d| now >= d) {
                self.end(q, QueryOutcome::DeadlineExceeded, EngineStats::default(), None);
            } else {
                self.activate(q);
            }
        }
    }

    /// A lane whose ledger shows a failed lookup is poisoned: cancel the
    /// attempt and decide retry vs terminal failure. Detection reads the
    /// per-lane ledger — live for lifecycle counters — so no failed
    /// lookup is ever silently dropped.
    fn detect_failures(&mut self) {
        for a in &mut self.active {
            if a.aborting.is_some() || self.mux.observed(a.lane).failed_lookups == 0 {
                continue;
            }
            self.mux.cancel(a.lane);
            let retryable = matches!(a.q.req, Request::Probe { .. });
            a.aborting = Some(if retryable && a.q.attempts <= self.cfg.max_retries {
                Aborting::Retry
            } else {
                Aborting::Final(QueryOutcome::FailedAfterRetries)
            });
        }
    }

    fn sweep_completed(&mut self) {
        let mut i = 0;
        while i < self.active.len() {
            // Retired once every fed lookup did (completed, failed or
            // cancelled — all count into `lookups`, proven by the lane
            // ledger), and, completing normally, all input was fed.
            let a = &self.active[i];
            let done = a.aborting.is_some() || a.cursor == a.q.req.input_len();
            if !done || self.mux.observed(a.lane).lookups < a.cursor as u64 {
                i += 1;
                continue;
            }
            let Active { mut q, lane, aborting, born_at, .. } = self.active.remove(i);
            let (mut op, mut led) = self.mux.remove(lane);
            // Harvest the attempt's flight ring (disabled unless
            // `flight_recorder` is on); only failing outcomes keep it.
            let mut flight = op.ctx().take_tracer();
            // Mutation lanes surrender their WAL records whatever the
            // outcome: an aborted attempt's applied prefix is already in
            // the table, so it must be in the log too or replay diverges.
            if let TenantOp::Upsert(m) = &mut op {
                self.wal_buf.extend(m.drain_wal());
            }
            match aborting {
                Some(Aborting::Retry) => {
                    q.spent.merge(&led);
                    let shift = (q.attempts - 1).min(20);
                    let wait = (self.cfg.backoff_base << shift).clamp(1, BACKOFF_CAP);
                    self.waiting.push((self.mux.now() + wait, q));
                }
                Some(Aborting::Final(outcome)) => {
                    let rep = self.end(q, outcome, led, Some(born_at));
                    if outcome == QueryOutcome::FailedAfterRetries {
                        rep.flight = flight.into_events();
                    }
                }
                Some(Aborting::Deadline(at)) => {
                    // The instant ends the ring: recorded after a fused
                    // pipeline's stage rings merged, and the cancelled
                    // lane's steps recorded nothing since the deadline.
                    flight.record(TraceEvent::deadline(at, q.qid.0));
                    let rep = self.end(q, QueryOutcome::DeadlineExceeded, led, Some(born_at));
                    rep.flight = flight.into_events();
                }
                None => {
                    let outcome = self.completion(q.opts.recovered, &mut led);
                    let rep = self.end(q, outcome, led, Some(born_at));
                    match op {
                        TenantOp::Probe(mut p) => {
                            rep.matches = p.matches();
                            rep.checksum = p.checksum();
                            rep.out = p.take_out();
                        }
                        TenantOp::GroupBy(g) => rep.matches = g.tuples(),
                        TenantOp::Pipeline(f) => {
                            rep.matched = f.up().matches();
                            rep.matches = f.down().tuples();
                        }
                        TenantOp::Upsert(m) => rep.matches = m.applied(),
                    }
                    let latency_ns = rep.latency_ns;
                    self.latency.record(latency_ns);
                }
            }
            self.promote_waiting();
            self.admit_from_pending();
        }
        if self.active.is_empty() {
            self.rr = 0;
        } else {
            self.rr %= self.active.len();
        }
    }

    /// The outcome of a successful completion: a recovered re-run counts
    /// on both sides of the ledger invariant, its report and the
    /// session's global stats.
    fn completion(&mut self, recovered: bool, led: &mut EngineStats) -> QueryOutcome {
        if !recovered {
            return QueryOutcome::Completed;
        }
        led.recovered_queries += 1;
        self.stats.recovered_queries += 1;
        QueryOutcome::Recovered
    }

    fn admit_from_pending(&mut self) {
        while self.active.len() < self.cfg.max_active {
            let Some(q) = self.pending.pop_front() else { break };
            self.activate(q);
        }
    }

    /// Queries currently sharing the window.
    pub fn active_queries(&self) -> usize {
        self.active.len()
    }

    /// Queries waiting for admission.
    pub fn pending_queries(&self) -> usize {
        self.pending.len()
    }

    /// Queries in retry backoff.
    pub fn waiting_queries(&self) -> usize {
        self.waiting.len()
    }

    /// Queries completed so far (any outcome).
    pub fn completed_queries(&self) -> usize {
        self.finished.len()
    }

    /// Queries refused at submission so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Lookups currently in flight in the shared window.
    pub fn in_flight(&self) -> usize {
        self.window.in_flight()
    }

    /// Mean shared-window occupancy so far (deterministic).
    pub fn mean_occupancy(&self) -> f64 {
        self.window.mean_occupancy()
    }

    /// The session's simulated clock (the Mux's shared now) — what crash
    /// injection polls against a [`amac_tier::CrashPlan`] tick.
    pub fn sim_now(&self) -> u64 {
        self.mux.now()
    }

    /// Install a session-level tracer. It records the serving-layer
    /// events no single lane op can see — query spans (activation →
    /// settle, labelled with the outcome), shed instants, deadline
    /// instants — keyed by the session's shared sim clock. Per-lookup
    /// events stay on the lane ops (see
    /// [`ServeConfig::flight_recorder`]). Tracing never touches the sim
    /// clock: reports and counters are bit-identical with or without it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.trace = tracer;
    }

    /// Take the WAL records surrendered by completed/aborted mutation
    /// lanes so far, in lane-retirement order. The caller owns
    /// persistence: append them to an [`amac_tier::Wal`] and seal at
    /// whatever group-commit boundary its durability contract wants.
    pub fn drain_wal(&mut self) -> Vec<WalRecord> {
        core::mem::take(&mut self.wal_buf)
    }

    /// Crash-recovery replay: re-apply a sealed WAL segment to the shared
    /// catalog **in record order** (baseline executor — replay must not
    /// interleave across records). Runs outside the serving window but
    /// inside the session's books: the replay counters merge into the
    /// global stats *and* a synthetic `"replay"` report (outcome
    /// [`QueryOutcome::Recovered`]) carries the same counters, so
    /// per-report ledgers still sum exactly to the session totals.
    pub fn recover_replay(&mut self, records: &[WalRecord]) -> EngineStats {
        let mut q = Query::new(QueryId(self.next_qid), records, SubmitOpts::default());
        self.next_qid += 1;
        let stats = replay(self.catalog, records);
        self.stats.merge(&stats);
        q.attempts = 1;
        self.end(q, QueryOutcome::Recovered, stats, None).matches = stats.replayed_records;
        stats
    }

    /// Close the session: everything still active, backing off or pending
    /// is driven to completion, then the per-query reports and aggregate
    /// accounting are returned.
    pub fn finish(mut self) -> ServeOutput {
        self.run_to_completion();
        ServeOutput {
            occupancy: self.window.mean_occupancy(),
            window: self.window.capacity(),
            reports: self.finished,
            stats: self.stats,
            latency: self.latency,
            rejected: self.rejected,
            seconds: self.born.elapsed().as_secs_f64(),
            trace: self.trace,
        }
    }
}
