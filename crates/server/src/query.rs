//! One query's record from submission to report, and the per-tenant
//! circuit breaker its outcome settles.
//!
//! [`ServeSession::submit_opts`](crate::ServeSession::submit_opts) builds
//! a [`Query`] once. The session then moves it, never rebuilds it:
//! pending → active (one attempt in the window) → backoff (a retry
//! waiting out its sim-clock delay) → active again, and at the end into
//! its one [`QueryReport`].

use std::time::Instant;

use amac::engine::EngineStats;
use amac_tier::WalRecord;

use crate::request::{QueryId, QueryOutcome, QueryReport, Request, SubmitOpts};

/// What a query runs, as its report names it: a client [`Request`], or
/// the WAL segment of a
/// [`recover_replay`](crate::ServeSession::recover_replay).
pub(crate) trait Work {
    /// The report's `kind`.
    fn kind(&self) -> &'static str;
    /// The report's `tuples`.
    fn tuples(&self) -> usize;
}

impl Work for Request<'_> {
    fn kind(&self) -> &'static str {
        Request::kind(self)
    }

    fn tuples(&self) -> usize {
        self.input_len()
    }
}

impl Work for &[WalRecord] {
    fn kind(&self) -> &'static str {
        "replay"
    }

    fn tuples(&self) -> usize {
        self.len()
    }
}

/// One submitted query: its identity and what it has spent so far.
pub(crate) struct Query<W> {
    pub qid: QueryId,
    pub req: W,
    /// Submission options, `weight` clamped to ≥ 1.
    pub opts: SubmitOpts,
    /// Absolute sim-tick deadline, fixed when the first attempt enters
    /// the window.
    pub deadline_at: Option<u64>,
    /// Attempts that have entered the window (or run outside it).
    pub attempts: u32,
    /// Whether an open breaker served it a degraded plan.
    pub degraded: bool,
    /// Engine counters spent by aborted attempts.
    pub spent: EngineStats,
    pub submitted: Instant,
}

impl<W: Work> Query<W> {
    /// A query submitted now.
    pub fn new(qid: QueryId, req: W, opts: SubmitOpts) -> Self {
        Query {
            qid,
            req,
            opts: SubmitOpts { weight: opts.weight.max(1), ..opts },
            deadline_at: None,
            attempts: 0,
            degraded: false,
            spent: EngineStats::default(),
            submitted: Instant::now(),
        }
    }

    /// The report this query ends with: `outcome`, and the ledger of
    /// every attempt (`led` is the last one's). Result fields are left
    /// for the caller to route in.
    pub fn report(self, outcome: QueryOutcome, led: EngineStats) -> QueryReport {
        let mut stats = self.spent;
        stats.merge(&led);
        QueryReport {
            qid: self.qid,
            kind: self.req.kind(),
            tuples: self.req.tuples() as u64,
            stats,
            latency_ns: self.submitted.elapsed().as_nanos() as u64,
            outcome,
            attempts: self.attempts,
            degraded: self.degraded,
            tenant: self.opts.tenant,
            ..Default::default()
        }
    }
}

/// A tenant's circuit breaker. Consecutive terminal failures open it, and
/// an open breaker refuses full service until its probe timer lets one
/// half-open health probe through.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Breaker {
    /// Consecutive terminally-failed queries.
    fails: u32,
    state: BreakerState,
}

#[derive(Debug, Clone, Copy, Default)]
enum BreakerState {
    #[default]
    Closed,
    /// Shedding/degrading; lets one probe through at `probe_at` pumps.
    Open { probe_at: u64 },
    /// One full-service health probe is in flight.
    HalfOpen,
}

impl Breaker {
    /// Whether a query submitted at pump `pumps` gets full service. An
    /// open breaker whose probe timer expired admits it as the health
    /// probe.
    pub fn admits(&mut self, pumps: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { probe_at } if pumps >= probe_at => {
                self.state = BreakerState::HalfOpen;
                true
            }
            // Open, or one probe already in flight.
            _ => false,
        }
    }

    /// Fold one terminal outcome in: `threshold` consecutive failures,
    /// or a failed health probe, open the breaker until pump `probe_at`.
    pub fn settle(&mut self, outcome: QueryOutcome, degraded: bool, threshold: u32, probe_at: u64) {
        match outcome {
            // Only an *undegraded* completion proves the far tier works.
            QueryOutcome::Completed | QueryOutcome::Recovered if !degraded => {
                *self = Breaker::default();
            }
            QueryOutcome::FailedAfterRetries => {
                self.fails += 1;
                if matches!(self.state, BreakerState::HalfOpen) || self.fails >= threshold.max(1) {
                    self.state = BreakerState::Open { probe_at };
                }
            }
            // Cancelled / deadline / shed / degraded completions carry no
            // evidence about tier health either way.
            _ => {}
        }
    }
}
