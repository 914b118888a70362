//! Sharded serving: one [`ServeSession`] — and therefore one `Mux` lane
//! group, one shared in-flight window — **per shard**, with
//! consistent-hash tenant→shard routing in front.
//!
//! A tenant's home shard is a pure function of the tenant id
//! ([`amac_shard::ShardRouter::shard_of_tenant`]), so any frontend
//! replica routes identically with no coordination. Every query a tenant
//! submits runs wholly on its home shard's session: admission, DRR
//! quanta, deadlines, retries and circuit breakers all stay per-shard,
//! which is what keeps one tenant's overload from spilling into another
//! shard's window.
//!
//! Accounting is conservative by construction and *asserted* in the gate
//! (`bench shard`): each shard session's ledger equals the sum of
//! its per-query reports (the existing `Mux` lane invariant), and the
//! global ledger equals the sum of the shard ledgers — no counter is
//! lost or double-counted crossing the shard boundary.

use amac::engine::EngineStats;
use amac_shard::{ShardRouter, ShardedTable};

use crate::request::{Backpressure, QueryId, QueryOutcome, QueryReport, Request, SubmitOpts};
use crate::session::{ServeConfig, ServeOutput, ServeSession};

/// A fleet of per-shard serving sessions behind one tenant router.
pub struct ShardedServe<'a> {
    router: ShardRouter,
    sessions: Vec<ServeSession<'a>>,
}

impl<'a> ShardedServe<'a> {
    /// One serving session per shard of `table`, all with the same
    /// config.
    pub fn new(table: &'a ShardedTable, cfg: ServeConfig) -> Self {
        let sessions = table.shards().iter().map(|s| ServeSession::new(s, cfg.clone())).collect();
        ShardedServe { router: table.router().clone(), sessions }
    }

    /// Number of shards (= sessions = lane groups).
    pub fn n_shards(&self) -> usize {
        self.sessions.len()
    }

    /// The tenant's home shard — where every query it submits runs.
    pub fn shard_of_tenant(&self, tenant: u32) -> usize {
        self.router.shard_of_tenant(tenant)
    }

    /// Submit a query; it routes to the home shard of `opts.tenant`.
    /// Returns `(shard, qid)` — query ids are unique per shard, not
    /// globally.
    pub fn submit(
        &mut self,
        req: Request<'a>,
        opts: SubmitOpts,
    ) -> Result<(usize, QueryId), Backpressure> {
        let s = self.shard_of_tenant(opts.tenant);
        self.sessions[s].submit_opts(req, opts).map(|qid| (s, qid))
    }

    /// One scheduling round on every shard session (lock-step progress,
    /// the moral equivalent of one tick on each core). Returns the tuples
    /// fed across all shards (the sum of [`ServeSession::pump`]); `0`
    /// means no shard had input left to feed this round.
    pub fn pump(&mut self) -> usize {
        self.sessions.iter_mut().map(|s| s.pump()).sum()
    }

    /// Borrow one shard's session (inspection, cancellation, replay).
    pub fn session(&self, s: usize) -> &ServeSession<'a> {
        &self.sessions[s]
    }

    /// Mutably borrow one shard's session.
    pub fn session_mut(&mut self, s: usize) -> &mut ServeSession<'a> {
        &mut self.sessions[s]
    }

    /// Drive every shard to completion and collect per-shard outputs
    /// plus the merged global ledger.
    pub fn finish(self) -> ShardedServeOutput {
        let shards: Vec<ServeOutput> = self.sessions.into_iter().map(|s| s.finish()).collect();
        let mut stats = EngineStats::default();
        for s in &shards {
            stats.merge(&s.stats);
        }
        ShardedServeOutput { shards, stats }
    }
}

/// Everything a sharded serve run produced: one [`ServeOutput`] per
/// shard plus the merged ledger.
#[derive(Debug, Default)]
pub struct ShardedServeOutput {
    /// Per-shard session outputs, index = shard.
    pub shards: Vec<ServeOutput>,
    /// Global ledger: the sum of every shard's `stats`.
    pub stats: EngineStats,
}

impl ShardedServeOutput {
    /// Every query report across every shard.
    pub fn reports(&self) -> impl Iterator<Item = &QueryReport> {
        self.shards.iter().flat_map(|s| s.reports.iter())
    }

    /// Reports with the given outcome, across shards.
    pub fn count(&self, outcome: QueryOutcome) -> u64 {
        self.shards.iter().map(|s| s.count(outcome)).sum()
    }

    /// Queries refused at submission, across shards.
    pub fn rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Fairness across **all** shards' queries (max/mean of
    /// `nodes_visited`, the single definition in
    /// [`crate::fairness_nodes_ratio`]): sharding must not let one
    /// shard's tenants pay more traversal work per query than another's.
    pub fn fairness_nodes_ratio(&self) -> f64 {
        crate::fairness_nodes_ratio(self.reports().map(|r| r.stats.nodes_visited))
    }

    /// Ledger conservation check: per shard, the session ledger must
    /// equal the sum of its per-query reports; globally, [`stats`](Self::stats)
    /// must equal the sum of the shard ledgers. Returns the number of
    /// shards violating either (0 = conserved, the gated invariant).
    pub fn ledger_violations(&self) -> u64 {
        let mut violations = 0u64;
        let mut total = EngineStats::default();
        for s in &self.shards {
            let mut from_reports = EngineStats::default();
            for r in &s.reports {
                from_reports.merge(&r.stats);
            }
            if from_reports != s.stats {
                violations += 1;
            }
            total.merge(&s.stats);
        }
        if total != self.stats {
            violations += 1;
        }
        violations
    }
}
