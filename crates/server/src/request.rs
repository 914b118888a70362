//! The serving layer's client-facing vocabulary: requests, query ids,
//! per-query reports, and the backpressure error.

use amac::engine::EngineStats;
use amac_hashtable::AggTable;
use amac_ops::groupby::GroupByConfig;
use amac_ops::join::ProbeConfig;
use amac_ops::mutate::MutateConfig;
use amac_ops::pipeline::PipelineConfig;
use amac_workload::{Relation, Tuple};

/// Identifies one submitted query for the lifetime of a serving session
/// (monotonically increasing, never reused — unlike the window *lane*,
/// which is recycled as queries come and go).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl core::fmt::Display for QueryId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One client request. Probe-shaped requests run against the session's
/// shared catalog table; aggregate-producing requests bring their own
/// output [`AggTable`] (result routing: every query's aggregates land in
/// *its* table, bit-identical to a solo run).
///
/// `Clone` is cheap (the relation/table fields are borrows) and is what
/// lets the serving layer re-run a faulted attempt from scratch: a retry
/// clones the original request and reseeds its fault plan.
#[derive(Clone)]
pub enum Request<'a> {
    /// Probe the catalog table with `probes` (hash-join probe semantics
    /// per `cfg`: early-exit or scan-all, optional materialization).
    Probe {
        /// The query's probe stream.
        probes: &'a Relation,
        /// Probe semantics.
        cfg: ProbeConfig,
    },
    /// Aggregate `input` into the query's own `table`.
    GroupBy {
        /// Tuples to aggregate.
        input: &'a Relation,
        /// The query's private output table.
        table: &'a AggTable,
        /// Group-by tuning.
        cfg: GroupByConfig,
    },
    /// Fused probe → filter → group-by: probe the catalog table with
    /// `fact`, filter on the probe payload, aggregate survivors into the
    /// query's own `table` — the whole chain in the shared window.
    Pipeline {
        /// The query's fact stream.
        fact: &'a Relation,
        /// The query's private output table.
        table: &'a AggTable,
        /// Pipeline tuning (filter selectivity, hints).
        cfg: PipelineConfig,
    },
    /// Mutate the **shared** catalog table latch-free (upsert / insert /
    /// delete per `cfg.kind`), interleaved in the same window as reads.
    /// Applied mutations append [`amac_tier::WalRecord`]s which the
    /// session collects ([`crate::ServeSession::drain_wal`]) for
    /// durability. Never retried: mutations are not idempotent — a fault
    /// fails the query terminally, with the already-applied prefix
    /// logged.
    Upsert {
        /// The mutation stream (key + payload/delta).
        input: &'a Relation,
        /// Mutation tuning (kind, WAL on/off, tier, faults).
        cfg: MutateConfig,
    },
}

impl<'a> Request<'a> {
    /// The report's name for this request: `"probe"`, `"groupby"`,
    /// `"pipeline"` or `"upsert"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Probe { .. } => "probe",
            Request::GroupBy { .. } => "groupby",
            Request::Pipeline { .. } => "pipeline",
            Request::Upsert { .. } => "upsert",
        }
    }

    /// The tuples this request will feed through the window.
    pub fn inputs(&self) -> &'a [Tuple] {
        match self {
            Request::Probe { probes: r, .. }
            | Request::GroupBy { input: r, .. }
            | Request::Pipeline { fact: r, .. }
            | Request::Upsert { input: r, .. } => &r.tuples,
        }
    }

    /// How many tuples [`inputs`](Request::inputs) holds.
    pub fn input_len(&self) -> usize {
        self.inputs().len()
    }
}

/// Per-query submission options beyond the request itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOpts {
    /// Deficit-round-robin weight (2 = twice the per-round tuple share).
    /// Clamped to ≥ 1.
    pub weight: u32,
    /// Tenant id for circuit-breaker accounting: consecutive final
    /// failures are tracked per tenant, and an open breaker sheds or
    /// degrades that tenant's *new* queries only.
    pub tenant: u32,
    /// Deadline in simulated ticks, measured from the query's activation
    /// (admission into the window). `None` = no deadline. A query still
    /// running past its deadline is cooperatively cancelled and reported
    /// as [`QueryOutcome::DeadlineExceeded`]; retry backoff counts
    /// against the deadline because backoff is charged to the sim clock.
    pub deadline_ticks: Option<u64>,
    /// This submission re-runs a query lost in a crash (recovery path):
    /// a successful completion reports [`QueryOutcome::Recovered`] and
    /// counts into `EngineStats::recovered_queries`. Results are still
    /// bit-identical to the crash-free run — the flag changes accounting
    /// only.
    pub recovered: bool,
}

impl Default for SubmitOpts {
    fn default() -> Self {
        SubmitOpts { weight: 1, tenant: 0, deadline_ticks: None, recovered: false }
    }
}

/// Admission refused: both the active set and the pending queue are at
/// capacity. Open-loop clients shed the query (and count it); closed-loop
/// clients retry after draining some work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure {
    /// Queries currently sharing the window.
    pub active: usize,
    /// Queries queued for admission.
    pub pending: usize,
    /// The pending-queue bound that was hit.
    pub max_pending: usize,
    /// Closed-loop retry hint: after this many
    /// [`pump`](crate::ServeSession::pump) calls the smallest active
    /// query is expected to have completed, freeing a lane. Deterministic
    /// (derived from remaining input and quanta, not time); always ≥ 1.
    pub retry_after_pumps: usize,
}

impl core::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "serving session at capacity: {} active, {}/{} pending",
            self.active, self.pending, self.max_pending
        )
    }
}

impl std::error::Error for Backpressure {}

/// A budgeted run gave up: [`run_with_budget`](crate::ServeSession::run_with_budget)
/// exhausted its pump budget with queries still unfinished. The session
/// is left intact — the caller can inspect it, cancel the wedged query,
/// or grant more budget and resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stalled {
    /// Pumps executed before giving up.
    pub pumps: usize,
    /// Lookups still in flight in the shared window.
    pub in_flight: usize,
    /// Queries still active.
    pub active: usize,
}

impl core::fmt::Display for Stalled {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "serving session stalled after {} pumps: {} lookups in flight, {} queries active",
            self.pumps, self.in_flight, self.active
        )
    }
}

impl std::error::Error for Stalled {}

/// What an open circuit breaker does with a tripped tenant's new queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerMode {
    /// Refuse outright: the query completes immediately with
    /// [`QueryOutcome::Shed`] and does no work.
    Shed,
    /// Serve a cheaper plan: probes step one rung down the tier
    /// degradation ladder (`amac_tier::TierPolicy::degrade`), fused
    /// pipelines fall back to the fault-free two-phase plan. Queries
    /// that cannot degrade further are shed.
    #[default]
    Degrade,
}

/// How one query's service ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum QueryOutcome {
    /// All lookups retired normally; results are exact and bit-identical
    /// to a fault-free solo run.
    #[default]
    Completed,
    /// The deadline passed before the query finished; it was
    /// cooperatively cancelled and reports no results.
    DeadlineExceeded,
    /// Every attempt (1 + `max_retries` for retryable queries, the single
    /// attempt for non-retryable ones) hit a far-tier fault.
    FailedAfterRetries,
    /// The client cancelled it ([`crate::ServeSession::cancel`]).
    Cancelled,
    /// An open circuit breaker refused it before any work ran.
    Shed,
    /// Completed normally, but as a crash-recovery re-run
    /// ([`SubmitOpts::recovered`]) — results are exact and bit-identical
    /// to the run the crash interrupted.
    Recovered,
}

impl QueryOutcome {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            QueryOutcome::Completed => "completed",
            QueryOutcome::DeadlineExceeded => "deadline-exceeded",
            QueryOutcome::FailedAfterRetries => "failed-after-retries",
            QueryOutcome::Cancelled => "cancelled",
            QueryOutcome::Shed => "shed",
            QueryOutcome::Recovered => "recovered",
        }
    }
}

/// Everything routed back to one query when it completes.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    /// The query's id.
    pub qid: QueryId,
    /// `"probe"`, `"groupby"`, `"pipeline"`, `"upsert"`, or `"replay"`
    /// (the synthetic report of [`crate::ServeSession::recover_replay`]).
    pub kind: &'static str,
    /// Input tuples the query submitted.
    pub tuples: u64,
    /// Probe: key matches found. GroupBy/Pipeline: tuples aggregated
    /// into the query's table.
    pub matches: u64,
    /// Pipeline only: first-stage join matches before the filter.
    pub matched: u64,
    /// Probe only: order-independent checksum of matched payloads.
    pub checksum: u64,
    /// Probe with materialization: first-match payload per probe tuple,
    /// in the query's input order.
    pub out: Vec<u64>,
    /// The query's exact engine counters (its lane's ledger): lookups,
    /// stages, latch retries, prefetches, nodes visited, tag rejects.
    /// For retried queries this *includes* the work of aborted attempts,
    /// so per-query reports still sum to the session's global stats.
    pub stats: EngineStats,
    /// Submit-to-completion latency (includes admission queueing).
    pub latency_ns: u64,
    /// How service ended. Result fields (`matches`, `checksum`, `out`,
    /// ...) are populated only for [`QueryOutcome::Completed`].
    pub outcome: QueryOutcome,
    /// Attempts that ran in the window (0 for shed queries, 1 for the
    /// common fault-free case, up to `1 + max_retries` with retries).
    pub attempts: u32,
    /// Whether an open circuit breaker served this query a degraded plan
    /// (tier rung down, or pipeline two-phase fallback).
    pub degraded: bool,
    /// Tenant the query was submitted under (see [`SubmitOpts::tenant`]).
    pub tenant: u32,
    /// Flight-recorder tail: the last-K trace events of the query's final
    /// attempt, in recording order. Populated only when
    /// [`ServeConfig::flight_recorder`](crate::ServeConfig::flight_recorder)
    /// is non-zero **and** the query ended in
    /// [`QueryOutcome::DeadlineExceeded`] or
    /// [`QueryOutcome::FailedAfterRetries`] — healthy queries retain
    /// nothing, so steady-state serving pays only the ring's bounded
    /// buffer. A deadline victim's tail ends with the
    /// [`amac_trace::EventKind::Deadline`] instant (recorded into the
    /// ring when it is harvested, after a fused pipeline's stage rings
    /// merged).
    pub flight: Vec<amac_trace::TraceEvent>,
}
