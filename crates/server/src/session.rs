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
    /// sim ticks, capped at [`backoff_cap`](ServeConfig::backoff_cap).
    /// Charged to the simulated clock, so backoff counts against
    /// deadlines deterministically.
    pub backoff_base: u64,
    /// Ceiling on one backoff wait, in sim ticks.
    pub backoff_cap: u64,
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
            backoff_cap: 1024,
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
                    self.stats.merge(&out.stats);
                    (q.attempts, q.degraded) = (1, true);
                    let rep = self.end(q, QueryOutcome::Completed, out.stats, None);
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
            if !matches!(a.aborting, Some(Aborting::Final(_))) {
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

    /// Is `tenant`'s breaker open or half-open (new queries shed or
    /// degraded, except the single health probe)?
    pub fn breaker_open(&self, tenant: u32) -> bool {
        self.breakers.get(&tenant).is_some_and(Breaker::is_open)
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
            Request::GroupBy { table, cfg, .. } => TenantOp::GroupBy(GroupByOp::new(table, &cfg)),
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
            if matches!(a.aborting, Some(Aborting::Final(_)))
                || a.q.deadline_at.map_or(true, |d| now < d)
            {
                continue;
            }
            self.mux.cancel(a.lane);
            // The deadline instant is the ring's final entry: the
            // cancelled lane's steps short-circuit inside the mux, so the
            // inner op records nothing after this.
            let mut cx = self.mux.lane_mut(a.lane).ctx();
            if cx.tracing() {
                cx.trace(TraceEvent::deadline(now, a.q.qid.0));
            }
            self.trace.record(TraceEvent::deadline(now, a.q.qid.0));
            a.aborting = Some(Aborting::Final(QueryOutcome::DeadlineExceeded));
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
            let flight = op.ctx().take_tracer();
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
                    let wait = (self.cfg.backoff_base << shift).min(self.cfg.backoff_cap).max(1);
                    self.waiting.push((self.mux.now() + wait, q));
                }
                Some(Aborting::Final(outcome)) => {
                    let rep = self.end(q, outcome, led, Some(born_at));
                    if matches!(
                        outcome,
                        QueryOutcome::DeadlineExceeded | QueryOutcome::FailedAfterRetries
                    ) {
                        rep.flight = flight.into_events();
                    }
                }
                None => {
                    let outcome = if q.opts.recovered {
                        // Both sides of the ledger invariant: the
                        // per-query report and the session's global stats.
                        led.recovered_queries += 1;
                        self.stats.recovered_queries += 1;
                        QueryOutcome::Recovered
                    } else {
                        QueryOutcome::Completed
                    };
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

#[cfg(test)]
mod tests {
    use super::*;
    use amac::engine::Technique;
    use amac_hashtable::AggTable;
    use amac_ops::groupby::GroupByConfig;
    use amac_ops::join::ProbeConfig;
    use amac_ops::pipeline::{probe_then_groupby, PipelineConfig};
    use amac_tier::FaultPlan;
    use amac_workload::{FilterSpec, Relation};

    fn catalog(n: usize) -> (Relation, HashTable) {
        let dim = Relation::fk_dimension(n, (n as u64 / 4).max(4), 0xCA7);
        let ht = HashTable::build_serial(&dim);
        (dim, ht)
    }

    /// 8x over-occupied chained table: multi-hop lookups, so a fault plan
    /// has plenty of far chain loads to poison.
    fn chained_catalog(n: usize) -> (Relation, HashTable) {
        let r = Relation::dense_unique(n, 0xC4A1);
        let ht = HashTable::with_buckets(n / 8);
        {
            let mut h = ht.build_handle();
            for t in &r.tuples {
                h.insert(t.key, t.payload);
            }
        }
        (r, ht)
    }

    #[test]
    fn probe_queries_match_solo_results_including_order() {
        let (dim, ht) = catalog(4096);
        let q1 = Relation::fk_uniform(&dim, 10_000, 0x11);
        let q2 = Relation::zipf(10_000, 4096, 1.0, 0x12);
        let cfg = ProbeConfig::default(); // materializing, early-exit
        let solo1 = amac_ops::join::probe(&ht, &q1, Technique::Amac, &cfg);
        let solo2 = amac_ops::join::probe(&ht, &q2, Technique::Amac, &cfg);

        let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
        let a = srv.submit(Request::Probe { probes: &q1, cfg: cfg.clone() }).unwrap();
        let b = srv.submit(Request::Probe { probes: &q2, cfg: cfg.clone() }).unwrap();
        srv.run_to_completion();
        let out = srv.finish();
        assert_eq!(out.reports.len(), 2);
        let ra = out.reports.iter().find(|r| r.qid == a).unwrap();
        let rb = out.reports.iter().find(|r| r.qid == b).unwrap();
        assert_eq!(ra.outcome, QueryOutcome::Completed);
        assert_eq!(ra.attempts, 1);
        assert_eq!(ra.matches, solo1.matches);
        assert_eq!(ra.checksum, solo1.checksum);
        assert_eq!(ra.out, solo1.out, "materialized output reordered by sharing");
        assert_eq!(rb.matches, solo2.matches);
        assert_eq!(rb.checksum, solo2.checksum);
        assert_eq!(rb.out, solo2.out);
        assert_eq!(ra.stats.nodes_visited, solo1.stats.nodes_visited);
        assert_eq!(rb.stats.nodes_visited, solo2.stats.nodes_visited);
        assert_eq!(out.stats.lookups, 20_000);
    }

    #[test]
    fn groupby_and_pipeline_queries_share_one_window() {
        let (dim, ht) = catalog(2048);
        let gb_in = amac_workload::GroupByInput::zipf(64, 8_000, 0.9, 0x21).relation;
        let gb_table = AggTable::for_groups(64);
        let fact = Relation::fk_uniform(&dim, 8_000, 0x22);
        let pipe_table = AggTable::for_groups(512);
        let pipe_cfg =
            PipelineConfig { filter: Some(FilterSpec::selectivity(0.5)), ..Default::default() };

        // Solo references.
        let gb_solo = AggTable::for_groups(64);
        amac_ops::groupby::groupby(&gb_solo, &gb_in, Technique::Amac, &GroupByConfig::default());
        let pipe_solo = AggTable::for_groups(512);
        let ps = probe_then_groupby(&ht, &pipe_solo, &fact, Technique::Amac, &pipe_cfg);

        let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 128, ..Default::default() });
        srv.submit(Request::GroupBy {
            input: &gb_in,
            table: &gb_table,
            cfg: GroupByConfig::default(),
        })
        .unwrap();
        srv.submit(Request::Pipeline { fact: &fact, table: &pipe_table, cfg: pipe_cfg }).unwrap();
        let out = srv.finish();
        assert_eq!(out.reports.len(), 2);
        let gb = out.reports.iter().find(|r| r.kind == "groupby").unwrap();
        let pipe = out.reports.iter().find(|r| r.kind == "pipeline").unwrap();
        assert_eq!(gb.matches, 8_000);
        assert_eq!(pipe.matched, ps.matched);
        assert_eq!(pipe.matches, ps.aggregated);

        let snap = |t: &AggTable| {
            let mut g = t.groups();
            g.sort_by_key(|(k, _)| *k);
            g
        };
        assert_eq!(snap(&gb_table), snap(&gb_solo), "group-by aggregates diverge");
        assert_eq!(snap(&pipe_table), snap(&pipe_solo), "pipeline aggregates diverge");
    }

    #[test]
    fn admission_bounds_and_backpressure() {
        let (dim, ht) = catalog(256);
        let q = Relation::fk_uniform(&dim, 512, 0x31);
        let cfg = ServeConfig { max_active: 2, max_pending: 2, ..Default::default() };
        let mut srv = ServeSession::new(&ht, cfg);
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        for _ in 0..4 {
            srv.submit(Request::Probe { probes: &q, cfg: pcfg.clone() }).unwrap();
        }
        assert_eq!(srv.active_queries(), 2);
        assert_eq!(srv.pending_queries(), 2);
        let err = srv
            .submit(Request::Probe { probes: &q, cfg: pcfg.clone() })
            .expect_err("5th query must hit backpressure");
        assert_eq!(err.max_pending, 2);
        assert!(err.retry_after_pumps >= 1, "hint must be actionable");
        assert_eq!(srv.rejected(), 1);
        // Closed-loop client: honoring the hint frees capacity.
        for _ in 0..err.retry_after_pumps {
            srv.pump();
        }
        srv.submit(Request::Probe { probes: &q, cfg: pcfg.clone() })
            .expect("capacity must free after the hinted number of pumps");
        let out = srv.finish();
        assert_eq!(out.reports.len(), 5);
        assert_eq!(out.rejected, 1);
        // Latency histogram has one observation per completed query.
        assert_eq!(out.latency.count(), 5);
        assert!(out.latency.quantile(0.99).is_some());
    }

    #[test]
    fn small_queries_keep_the_shared_window_fuller_than_private_windows() {
        let (dim, ht) = catalog(4096);
        // 16 small queries, each smaller than 4 windows' worth of input.
        let qs: Vec<Relation> =
            (0..16).map(|i| Relation::fk_uniform(&dim, 256, 0x40 + i)).collect();
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };

        // Private windows: one session per query (what per-query engines do).
        let mut private_occ = 0.0;
        for q in &qs {
            let mut srv = ServeSession::new(&ht, ServeConfig::default());
            srv.submit(Request::Probe { probes: q, cfg: pcfg.clone() }).unwrap();
            private_occ += srv.finish().occupancy;
        }
        private_occ /= qs.len() as f64;

        // Shared window: all 16 interleave.
        let mut srv = ServeSession::new(
            &ht,
            ServeConfig { max_active: 16, quantum: 64, ..Default::default() },
        );
        for q in &qs {
            srv.submit(Request::Probe { probes: q, cfg: pcfg.clone() }).unwrap();
        }
        let out = srv.finish();
        assert_eq!(out.reports.len(), 16);
        assert!(
            out.occupancy > private_occ,
            "shared window occupancy {:.2} should beat per-query windows {:.2}",
            out.occupancy,
            private_occ
        );
        // And it should be near the full window.
        assert!(out.occupancy > 0.8 * out.window as f64, "occupancy {:.2}", out.occupancy);
    }

    #[test]
    fn weighted_query_finishes_earlier_under_contention() {
        let (dim, ht) = catalog(1024);
        let heavy = Relation::fk_uniform(&dim, 8_192, 0x51);
        let light = Relation::fk_uniform(&dim, 8_192, 0x52);
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
        let req = Request::Probe { probes: &heavy, cfg: pcfg.clone() };
        let w = srv.submit_opts(req, SubmitOpts { weight: 4, ..Default::default() }).unwrap();
        let l = srv.submit(Request::Probe { probes: &light, cfg: pcfg }).unwrap();
        let out = srv.finish();
        // Completion order: the weight-4 query got 4x the feed share, so it
        // must complete first even though both arrived together.
        assert_eq!(out.reports[0].qid, w);
        assert_eq!(out.reports[1].qid, l);
    }

    #[test]
    fn empty_query_completes_immediately() {
        let (_dim, ht) = catalog(64);
        let empty = Relation::default();
        let mut srv = ServeSession::new(&ht, ServeConfig::default());
        let q = srv.submit(Request::Probe { probes: &empty, cfg: ProbeConfig::default() }).unwrap();
        let out = srv.finish();
        assert_eq!(out.reports.len(), 1);
        assert_eq!(out.reports[0].qid, q);
        assert_eq!(out.reports[0].matches, 0);
        assert_eq!(out.reports[0].stats.lookups, 0);
    }

    #[test]
    fn query_ids_are_unique_and_monotone_across_reuse() {
        let (dim, ht) = catalog(128);
        let q = Relation::fk_uniform(&dim, 64, 0x61);
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        let mut srv = ServeSession::new(&ht, ServeConfig { max_active: 1, ..Default::default() });
        let mut ids = Vec::new();
        for _ in 0..6 {
            ids.push(srv.submit(Request::Probe { probes: &q, cfg: pcfg.clone() }).unwrap());
            srv.run_to_completion();
        }
        let out = srv.finish();
        assert_eq!(out.reports.len(), 6);
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn faulted_probe_retries_and_recovers_bit_identically() {
        let (r, ht) = chained_catalog(1 << 12);
        // A small stream keeps the expected faults per attempt near 1:
        // the first attempt (very likely) hits one, and a reseeded retry
        // re-rolls every decision, so some attempt in the budget runs
        // clean. All of it is deterministic for this (seed, stream) pair.
        let s = Relation::fk_uniform(&r, 64, 0x71);
        let clean_cfg = ProbeConfig { scan_all: true, materialize: false, ..Default::default() };
        let clean = amac_ops::join::probe(&ht, &s, Technique::Amac, &clean_cfg);

        let fault_cfg =
            ProbeConfig { fault: Some(FaultPlan::fail_only(0xFA11, 8)), ..clean_cfg.clone() };
        let mut srv = ServeSession::new(
            &ht,
            ServeConfig { max_retries: 16, backoff_base: 16, ..Default::default() },
        );
        let q = srv.submit(Request::Probe { probes: &s, cfg: fault_cfg }).unwrap();
        let out = srv.finish();
        assert_eq!(out.reports.len(), 1);
        let rep = &out.reports[0];
        assert_eq!(rep.qid, q);
        assert_eq!(rep.outcome, QueryOutcome::Completed, "retry budget must recover");
        assert!(rep.attempts > 1, "first attempt must have faulted (got {})", rep.attempts);
        // Surviving results are bit-identical to the fault-free run.
        assert_eq!(rep.matches, clean.matches);
        assert_eq!(rep.checksum, clean.checksum);
        // The report charges the aborted attempts' work too, so per-query
        // stats still sum to the session's global counters.
        assert!(rep.stats.failed_lookups > 0);
        assert_eq!(rep.stats.lookups, out.stats.lookups);
        assert_eq!(rep.stats.load_faults, out.stats.load_faults);
        assert_eq!(out.retries(), (rep.attempts - 1) as u64);
    }

    #[test]
    fn deadline_exceeded_is_reported_and_the_lane_drains_clean() {
        let (dim, ht) = catalog(1024);
        let big = Relation::fk_uniform(&dim, 50_000, 0x81);
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
        let q = srv
            .submit_opts(
                Request::Probe { probes: &big, cfg: pcfg.clone() },
                SubmitOpts { deadline_ticks: Some(1), ..Default::default() },
            )
            .unwrap();
        let ok = srv.submit(Request::Probe { probes: &big, cfg: pcfg }).unwrap();
        let out = srv.finish();
        assert_eq!(out.reports.len(), 2);
        let missed = out.reports.iter().find(|r| r.qid == q).unwrap();
        let fine = out.reports.iter().find(|r| r.qid == ok).unwrap();
        assert_eq!(missed.outcome, QueryOutcome::DeadlineExceeded);
        assert!(missed.out.is_empty(), "no results for a missed deadline");
        assert_eq!(fine.outcome, QueryOutcome::Completed);
        // Ledger exactness: every fed lookup of the cancelled lane retired
        // (completed or cancelled — both inside `lookups`), and per-query
        // stats sum to the global counters.
        assert!(missed.stats.lookups >= missed.stats.cancelled_lookups);
        let mut sum = EngineStats::default();
        for r in &out.reports {
            sum.merge(&r.stats);
        }
        assert_eq!(sum, out.stats, "per-query ledgers must sum to global stats");
    }

    #[test]
    fn cancel_reaps_active_and_pending_queries() {
        let (dim, ht) = catalog(1024);
        let big = Relation::fk_uniform(&dim, 20_000, 0x91);
        let small = Relation::fk_uniform(&dim, 1_000, 0x92);
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        let solo = amac_ops::join::probe(&ht, &small, Technique::Amac, &pcfg);
        let mut srv = ServeSession::new(
            &ht,
            ServeConfig { max_active: 2, quantum: 64, ..Default::default() },
        );
        let doomed = srv.submit(Request::Probe { probes: &big, cfg: pcfg.clone() }).unwrap();
        let kept = srv.submit(Request::Probe { probes: &small, cfg: pcfg.clone() }).unwrap();
        let queued = srv.submit(Request::Probe { probes: &big, cfg: pcfg.clone() }).unwrap();
        srv.pump();
        assert!(srv.cancel(doomed), "active query");
        assert!(srv.cancel(queued), "pending query");
        assert!(!srv.cancel(QueryId(999)), "unknown id");
        let out = srv.finish();
        assert_eq!(out.reports.len(), 3, "one report per submitted query, none lost");
        let d = out.reports.iter().find(|r| r.qid == doomed).unwrap();
        let k = out.reports.iter().find(|r| r.qid == kept).unwrap();
        let p = out.reports.iter().find(|r| r.qid == queued).unwrap();
        assert_eq!(d.outcome, QueryOutcome::Cancelled);
        assert_eq!(p.outcome, QueryOutcome::Cancelled);
        assert_eq!(p.attempts, 0, "cancelled before any attempt ran");
        // The surviving query is untouched by its neighbor's cancellation.
        assert_eq!(k.outcome, QueryOutcome::Completed);
        assert_eq!(k.matches, solo.matches);
        assert_eq!(k.checksum, solo.checksum);
        assert_eq!(k.stats.nodes_visited, solo.stats.nodes_visited);
        let mut sum = EngineStats::default();
        for r in &out.reports {
            sum.merge(&r.stats);
        }
        assert_eq!(sum, out.stats);
    }

    #[test]
    fn breaker_sheds_after_consecutive_failures_and_half_opens() {
        let (r, ht) = chained_catalog(1 << 12);
        let s = Relation::fk_uniform(&r, 2_000, 0xA1);
        // Every chain hop fails: no retry budget can save these queries.
        let cfg = ProbeConfig {
            scan_all: true,
            materialize: false,
            fault: Some(FaultPlan::fail_only(0xDEAD, 1000)),
            ..Default::default()
        };
        let mut srv = ServeSession::new(
            &ht,
            ServeConfig {
                max_retries: 0,
                breaker_threshold: 2,
                breaker_mode: BreakerMode::Shed,
                breaker_probe_pumps: 4,
                ..Default::default()
            },
        );
        for _ in 0..2 {
            srv.submit(Request::Probe { probes: &s, cfg: cfg.clone() }).unwrap();
            srv.run_to_completion();
        }
        assert!(srv.breaker_open(0), "two consecutive failures must open the breaker");
        let shed_q = srv.submit(Request::Probe { probes: &s, cfg: cfg.clone() }).unwrap();
        srv.run_to_completion();
        // After the probe timer, one query is let through (and fails,
        // re-opening the breaker).
        for _ in 0..8 {
            srv.pump();
        }
        let probe_q = srv.submit(Request::Probe { probes: &s, cfg: cfg.clone() }).unwrap();
        srv.run_to_completion();
        assert!(srv.breaker_open(0), "failed health probe must re-open the breaker");
        let out = srv.finish();
        assert_eq!(out.count(QueryOutcome::FailedAfterRetries), 3);
        assert_eq!(out.count(QueryOutcome::Shed), 1);
        let shed = out.reports.iter().find(|r| r.qid == shed_q).unwrap();
        assert_eq!(shed.outcome, QueryOutcome::Shed);
        assert_eq!(shed.attempts, 0);
        assert_eq!(shed.stats, EngineStats::default(), "shed queries do no work");
        let probe = out.reports.iter().find(|r| r.qid == probe_q).unwrap();
        assert_eq!(probe.outcome, QueryOutcome::FailedAfterRetries);
    }

    #[test]
    fn breaker_degrade_serves_probe_near_and_pipeline_two_phase() {
        let (r, ht) = chained_catalog(1 << 12);
        let s = Relation::fk_uniform(&r, 2_000, 0xB1);
        let clean_cfg = ProbeConfig { scan_all: true, materialize: false, ..Default::default() };
        let clean = amac_ops::join::probe(&ht, &s, Technique::Amac, &clean_cfg);
        let all_fail = Some(FaultPlan::fail_only(0xB00, 1000));
        let cfg = ProbeConfig { fault: all_fail, ..clean_cfg.clone() };
        let mut srv = ServeSession::new(
            &ht,
            ServeConfig {
                max_retries: 0,
                breaker_threshold: 1,
                breaker_mode: BreakerMode::Degrade,
                breaker_probe_pumps: 1_000_000, // stay open for the test
                ..Default::default()
            },
        );
        srv.submit(Request::Probe { probes: &s, cfg: cfg.clone() }).unwrap();
        srv.run_to_completion();
        assert!(srv.breaker_open(0));

        // Degraded probe: one rung down (headers-near → all-near), which
        // sidesteps far faults entirely; results stay exact.
        let dq = srv.submit(Request::Probe { probes: &s, cfg: cfg.clone() }).unwrap();
        srv.run_to_completion();

        // Degraded pipeline: two-phase fault-free fallback, synchronous.
        let fact = Relation::fk_uniform(&r, 2_000, 0xB2);
        let table = AggTable::for_groups(512);
        let solo_table = AggTable::for_groups(512);
        let pcfg = PipelineConfig {
            filter: Some(FilterSpec::selectivity(0.5)),
            fault: Some(FaultPlan::fail_only(0xB01, 1000)),
            ..Default::default()
        };
        let solo_cfg = PipelineConfig { fault: None, ..pcfg.clone() };
        let solo = probe_then_groupby(&ht, &solo_table, &fact, Technique::Amac, &solo_cfg);
        let pq = srv.submit(Request::Pipeline { fact: &fact, table: &table, cfg: pcfg }).unwrap();
        let out = srv.finish();
        let d = out.reports.iter().find(|r| r.qid == dq).unwrap();
        assert_eq!(d.outcome, QueryOutcome::Completed);
        assert!(d.degraded, "served by the degraded plan");
        assert_eq!(d.attempts, 1, "the near plan cannot fault");
        assert_eq!(d.matches, clean.matches, "degraded results stay exact");
        assert_eq!(d.checksum, clean.checksum);
        let p = out.reports.iter().find(|r| r.qid == pq).unwrap();
        assert_eq!(p.outcome, QueryOutcome::Completed);
        assert!(p.degraded);
        assert_eq!(p.matched, solo.matched);
        assert_eq!(p.matches, solo.aggregated);
        let snap = |t: &AggTable| {
            let mut g = t.groups();
            g.sort_by_key(|(k, _)| *k);
            g
        };
        assert_eq!(snap(&table), snap(&solo_table), "two-phase fallback aggregates diverge");
        let mut sum = EngineStats::default();
        for rep in &out.reports {
            sum.merge(&rep.stats);
        }
        assert_eq!(sum, out.stats, "degraded paths still keep ledgers exact");
    }

    #[test]
    fn run_with_budget_reports_stalled_and_can_resume() {
        let (dim, ht) = catalog(1024);
        let big = Relation::fk_uniform(&dim, 100_000, 0xC1);
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
        srv.submit(Request::Probe { probes: &big, cfg: pcfg }).unwrap();
        let err = srv.run_with_budget(3).expect_err("3 pumps cannot finish 100k tuples");
        assert_eq!(err.pumps, 3);
        assert_eq!(err.active, 1);
        // The session survives a stall verdict: more budget finishes it.
        srv.run_with_budget(usize::MAX).expect("unbounded budget completes");
        let out = srv.finish();
        assert_eq!(out.reports.len(), 1);
        assert_eq!(out.reports[0].outcome, QueryOutcome::Completed);
    }

    #[test]
    fn upsert_queries_mutate_the_catalog_and_log_durably() {
        use amac_hashtable::HashTable;
        use amac_ops::mutate::MutateConfig;

        let (_r, ht) = catalog(2048);
        ht.freeze();
        let checkpoint = ht.snapshot();
        let probes = Relation::zipf(4_000, 2048, 0.8, 0xE1);
        let ups = Relation::zipf(3_000, 3_000, 0.6, 0xE2);

        // Solo reference: same mutations against a restored twin.
        let twin = HashTable::restore(&checkpoint);
        let solo = amac_ops::mutate::mutate(&twin, &ups, Technique::Amac, &MutateConfig::default());

        let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        srv.submit(Request::Probe { probes: &probes, cfg: pcfg }).unwrap();
        let uq = srv.submit(Request::Upsert { input: &ups, cfg: MutateConfig::default() }).unwrap();
        srv.run_to_completion();
        let wal = srv.drain_wal();
        let out = srv.finish();
        let u = out.reports.iter().find(|r| r.qid == uq).unwrap();
        assert_eq!(u.outcome, QueryOutcome::Completed);
        assert_eq!(u.kind, "upsert");
        assert_eq!(u.matches, ups.len() as u64, "every mutation applied");
        assert_eq!(wal.len(), ups.len(), "every applied mutation logged");
        assert!(u.stats.log_bytes > 0 && u.stats.log_stalls > 0);
        // Sharing the window changes nothing about the table contents.
        assert_eq!(ht.contents_sorted(), twin.contents_sorted());
        // WAL-record multiset matches the solo run's (same mutations).
        let sortkey = |r: &amac_tier::WalRecord| (r.key(), r.encode());
        let mut a = wal.clone();
        let mut b = solo.wal.clone();
        a.sort_by_key(sortkey);
        b.sort_by_key(sortkey);
        assert_eq!(a, b);
        let mut sum = EngineStats::default();
        for r in &out.reports {
            sum.merge(&r.stats);
        }
        assert_eq!(sum, out.stats, "mutation lanes keep ledgers exact");
    }

    #[test]
    fn recover_replay_rebuilds_the_catalog_and_keeps_books() {
        use amac_hashtable::HashTable;
        use amac_ops::mutate::MutateConfig;

        let (_r, ht) = catalog(1024);
        ht.freeze();
        let checkpoint = ht.snapshot();
        let ups = Relation::zipf(2_000, 1_500, 0.6, 0xF1);
        let mut srv = ServeSession::new(&ht, ServeConfig::default());
        srv.submit(Request::Upsert { input: &ups, cfg: MutateConfig::default() }).unwrap();
        srv.run_to_completion();
        let wal = srv.drain_wal();
        drop(srv.finish());

        // Crash: a fresh session over the restored checkpoint replays the
        // log, then serves a recovered re-run of a lost query.
        let back = HashTable::restore(&checkpoint);
        let mut srv2 = ServeSession::new(&back, ServeConfig::default());
        let stats = srv2.recover_replay(&wal);
        assert_eq!(stats.replayed_records, wal.len() as u64);
        assert_eq!(back.contents_sorted(), ht.contents_sorted(), "replay rebuilds the table");
        let probes = Relation::zipf(500, 1024, 0.9, 0xF2);
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        let rq = srv2
            .submit_opts(
                Request::Probe { probes: &probes, cfg: pcfg },
                SubmitOpts { recovered: true, ..Default::default() },
            )
            .unwrap();
        let out = srv2.finish();
        assert_eq!(out.count(QueryOutcome::Recovered), 2, "replay report + recovered re-run");
        let r = out.reports.iter().find(|rep| rep.qid == rq).unwrap();
        assert_eq!(r.outcome, QueryOutcome::Recovered);
        assert_eq!(r.stats.recovered_queries, 1);
        assert_eq!(out.stats.recovered_queries, 1);
        assert_eq!(out.stats.replayed_records, wal.len() as u64);
        let mut sum = EngineStats::default();
        for rep in &out.reports {
            sum.merge(&rep.stats);
        }
        assert_eq!(sum, out.stats, "replay + recovered lanes keep ledgers exact");
    }

    /// Every lane of an untiered run keeps no time, so window time is one
    /// tick per routed stage plus idle visits. The constants were read off
    /// the commit before plain lanes stopped syncing their absent clocks.
    #[test]
    fn untiered_mixed_run_pins_window_time_and_ledger() {
        use amac_ops::mutate::MutateConfig;

        let (dim, ht) = catalog(2048);
        ht.freeze();
        let inputs: Vec<Relation> =
            (0..12).map(|i| Relation::fk_uniform(&dim, 300, 0x300 + i)).collect();
        let tables: Vec<AggTable> = (0..6).map(|_| AggTable::for_groups(512)).collect();
        let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
        for (i, input) in inputs.iter().enumerate() {
            let table = &tables[i / 2];
            srv.submit(match i % 4 {
                0 => Request::Probe { probes: input, cfg: ProbeConfig::default() },
                1 => Request::GroupBy { input, table, cfg: GroupByConfig::default() },
                2 => Request::Pipeline { fact: input, table, cfg: PipelineConfig::default() },
                _ => Request::Upsert { input, cfg: MutateConfig::default() },
            })
            .unwrap();
        }
        srv.run_to_completion();
        let now = srv.sim_now();
        let out = srv.finish();
        assert_eq!(out.count(QueryOutcome::Completed), 12);
        assert_eq!(now, 8_485, "8,478 stages + 7 idle visits");
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
        assert_eq!(out.stats, want);
    }

    /// When an untiered deadline fires is window time, and so pinned like
    /// the run above: the deadline instant, the missed query's progress
    /// and the session's final time.
    #[test]
    fn untiered_deadline_fires_at_a_pinned_tick() {
        let (dim, ht) = catalog(1024);
        let big = Relation::fk_uniform(&dim, 5_000, 0x3D1);
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        let mut srv = ServeSession::new(&ht, ServeConfig { quantum: 64, ..Default::default() });
        srv.set_tracer(Tracer::on());
        let q = srv
            .submit_opts(
                Request::Probe { probes: &big, cfg: pcfg.clone() },
                SubmitOpts { deadline_ticks: Some(2_000), ..Default::default() },
            )
            .unwrap();
        srv.submit(Request::Probe { probes: &big, cfg: pcfg }).unwrap();
        srv.run_to_completion();
        let now = srv.sim_now();
        let out = srv.finish();
        let missed = out.reports.iter().find(|r| r.qid == q).unwrap();
        assert_eq!(missed.outcome, QueryOutcome::DeadlineExceeded);
        let fired: Vec<u64> = out
            .trace
            .events()
            .filter(|e| matches!(e.kind, amac_trace::EventKind::Deadline { .. }))
            .map(|e| e.at)
            .collect();
        assert_eq!(fired, [2_166]);
        assert_eq!(missed.stats.lookups, 512);
        assert_eq!(now, 11_639);
    }

    #[test]
    fn backoff_is_charged_to_the_sim_clock() {
        let (r, ht) = chained_catalog(1 << 12);
        let s = Relation::fk_uniform(&r, 1_000, 0xD1);
        let cfg = ProbeConfig {
            scan_all: true,
            materialize: false,
            fault: Some(FaultPlan::fail_only(0xD0, 2)),
            ..Default::default()
        };
        // A deadline shorter than one backoff: if the first attempt
        // faults, the backoff alone must burn the deadline.
        let mut srv = ServeSession::new(
            &ht,
            ServeConfig {
                max_retries: 8,
                backoff_base: 1 << 40,
                backoff_cap: 1 << 40,
                ..Default::default()
            },
        );
        let q = srv
            .submit_opts(
                Request::Probe { probes: &s, cfg },
                SubmitOpts { deadline_ticks: Some(1 << 30), ..Default::default() },
            )
            .unwrap();
        let out = srv.finish();
        let rep = out.reports.iter().find(|r| r.qid == q).unwrap();
        assert_eq!(
            rep.outcome,
            QueryOutcome::DeadlineExceeded,
            "a huge backoff must consume a smaller deadline deterministically"
        );
        assert_eq!(rep.attempts, 1, "the retry never re-entered the window");
    }
}
