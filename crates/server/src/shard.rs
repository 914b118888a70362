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

#[cfg(test)]
mod tests {
    use super::*;
    use amac::engine::Technique;
    use amac_hashtable::HashTable;
    use amac_ops::join::{probe, ProbeConfig};
    use amac_shard::ShardRouter;
    use amac_workload::{Relation, Tuple};

    /// Per-tenant probe stream drawn from the tenant's home shard's keys
    /// (the tenant-sharded data model: a tenant's rows live on its home
    /// shard).
    fn tenant_probes(
        build: &Relation,
        router: &ShardRouter,
        shard: usize,
        n: usize,
        seed: u64,
    ) -> Relation {
        let local: Vec<Tuple> =
            build.tuples.iter().copied().filter(|t| router.shard_of_key(t.key) == shard).collect();
        assert!(!local.is_empty(), "shard {shard} owns no build keys");
        let tuples = (0..n).map(|i| local[(i as u64 * seed) as usize % local.len()]).collect();
        Relation::from_tuples(tuples)
    }

    #[test]
    fn tenants_route_stably_and_results_match_solo() {
        let build = Relation::dense_unique(1 << 10, 7);
        let solo = HashTable::build_serial(&build);
        let st = ShardedTable::build(&build, ShardRouter::new(6, 4));
        let router = st.router().clone();

        let tenants: Vec<u32> = (0..8).collect();
        let streams: Vec<(u32, Relation)> = tenants
            .iter()
            .map(|&t| {
                let s = router.shard_of_tenant(t);
                (t, tenant_probes(&build, &router, s, 512, 2 * u64::from(t) + 3))
            })
            .collect();

        let mut srv = ShardedServe::new(&st, ServeConfig::default());
        for (t, probes) in &streams {
            let opts = SubmitOpts { tenant: *t, ..Default::default() };
            let (s, _) =
                srv.submit(Request::Probe { probes, cfg: ProbeConfig::default() }, opts).unwrap();
            assert_eq!(s, srv.shard_of_tenant(*t), "router must agree with placement");
        }
        let out = srv.finish();

        assert_eq!(out.reports().count(), streams.len());
        assert_eq!(out.ledger_violations(), 0, "Σ shard ledgers must equal the global ledger");
        for (t, probes) in &streams {
            let expect = probe(&solo, probes, Technique::Amac, &ProbeConfig::default());
            let report =
                out.reports().find(|r| r.tenant == *t).expect("every tenant's query completed");
            assert_eq!(report.outcome, QueryOutcome::Completed);
            assert_eq!(report.matches, expect.matches, "tenant {t}");
            assert_eq!(report.checksum, expect.checksum, "tenant {t}");
            assert_eq!(report.out, expect.out, "tenant {t}");
        }
        let fairness = out.fairness_nodes_ratio();
        assert!((1.0..2.0).contains(&fairness), "uniform tenants, fairness {fairness}");
    }

    #[test]
    fn pump_returns_the_tuples_fed_across_shards() {
        let build = Relation::dense_unique(1 << 10, 7);
        let st = ShardedTable::build(&build, ShardRouter::new(6, 2));
        let router = st.router().clone();
        // Two tenants per shard, one shard with 4x the other's input, so
        // one shard runs dry rounds before the other.
        let tenants: Vec<u32> = (0..64).collect();
        let mut streams: Vec<(u32, Relation)> = Vec::new();
        for s in 0..2 {
            for &t in tenants.iter().filter(|&&t| router.shard_of_tenant(t) == s).take(2) {
                let n = if s == 0 { 2_048 } else { 512 };
                streams.push((t, tenant_probes(&build, &router, s, n, 2 * u64::from(t) + 3)));
            }
        }
        assert_eq!(streams.len(), 4, "both shards host two tenants");
        let total: usize = streams.iter().map(|(_, r)| r.len()).sum();
        let cfg = ServeConfig { quantum: 64, ..Default::default() };
        let pcfg = ProbeConfig { materialize: false, ..Default::default() };
        let (mut srv, mut twin) =
            (ShardedServe::new(&st, cfg.clone()), ShardedServe::new(&st, cfg));
        for (t, probes) in &streams {
            let opts = SubmitOpts { tenant: *t, ..Default::default() };
            srv.submit(Request::Probe { probes, cfg: pcfg.clone() }, opts).unwrap();
            twin.submit(Request::Probe { probes, cfg: pcfg.clone() }, opts).unwrap();
        }
        let (mut fed, mut one_shard_rounds) = (0usize, 0);
        loop {
            let per_shard: Vec<usize> = (0..2).map(|s| twin.session_mut(s).pump()).collect();
            let round = srv.pump();
            assert_eq!(round, per_shard.iter().sum::<usize>(), "the sum of per-shard feeds");
            if round == 0 {
                break;
            }
            one_shard_rounds += per_shard.contains(&0) as usize;
            fed += round;
        }
        assert_eq!(fed, total, "0 only once every shard's input is consumed");
        assert!(one_shard_rounds > 0, "one shard fed alone before the end");
        let out = srv.finish();
        assert_eq!(out.count(QueryOutcome::Completed), 4);
        assert_eq!(out.ledger_violations(), 0);
    }

    #[test]
    fn upserts_stay_on_their_home_shard_with_private_wals() {
        let build = Relation::dense_unique(1 << 9, 11);
        let st = ShardedTable::build(&build, ShardRouter::new(6, 4));
        let router = st.router().clone();

        let tenant = 5u32;
        let home = router.shard_of_tenant(tenant);
        let ups = tenant_probes(&build, &router, home, 256, 13);
        let mut srv = ShardedServe::new(&st, ServeConfig::default());
        let opts = SubmitOpts { tenant, ..Default::default() };
        srv.submit(Request::Upsert { input: &ups, cfg: Default::default() }, opts).unwrap();
        srv.session_mut(home).run_to_completion();
        // Each shard's durability is its own: a shard's records never mix
        // into another's log.
        for s in 0..srv.n_shards() {
            let wal = srv.session_mut(s).drain_wal();
            if s == home {
                assert_eq!(wal.len(), ups.len(), "home shard logs every applied upsert");
                assert!(wal.iter().all(|r| router.shard_of_key(r.key()) == home));
            } else {
                assert!(wal.is_empty(), "shard {s} must not log another shard's writes");
            }
        }
        assert_eq!(srv.finish().ledger_violations(), 0);
    }
}
