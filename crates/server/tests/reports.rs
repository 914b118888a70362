//! Every way a query can end files one report, and records one session
//! trace event.
//!
//! Sessions with a tracer installed are driven through each end a query
//! can reach: completed, recovered, cancelled (pending, backing off and
//! active), shed, deadline exceeded (in the window and in backoff),
//! failed after retries, served a degraded plan by an open breaker
//! (probe one tier rung down, pipeline two-phase), and the synthetic
//! report of a WAL replay. Each report must name its kind, input size,
//! tenant and attempts, and the session tracer must hold exactly one
//! event for it: a `Shed` instant for a shed query, otherwise a `Query`
//! span labelled with the report's outcome.

use std::collections::BTreeMap;

use amac_hashtable::{AggTable, HashTable};
use amac_ops::join::ProbeConfig;
use amac_ops::mutate::MutateConfig;
use amac_ops::pipeline::PipelineConfig;
use amac_server::QueryOutcome::{self, *};
use amac_server::{
    BreakerMode, QueryId, Request, ServeConfig, ServeOutput, ServeSession, SubmitOpts,
};
use amac_tier::FaultPlan;
use amac_trace::{EventKind, Tracer};
use amac_workload::{FilterSpec, Relation};

/// Over-occupied catalog (8 keys per bucket → multi-hop chains) so that
/// a fault plan has far chain loads to poison.
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

fn probe(probes: &Relation) -> Request<'_> {
    Request::Probe { probes, cfg: ProbeConfig { scan_all: true, ..Default::default() } }
}

/// A probe whose every chain hop fails: no retry can save it.
fn doomed(probes: &Relation, seed: u64) -> Request<'_> {
    let fault = Some(FaultPlan::fail_only(seed, 1000));
    Request::Probe { probes, cfg: ProbeConfig { scan_all: true, fault, ..Default::default() } }
}

fn opts(tenant: u32) -> SubmitOpts {
    SubmitOpts { tenant, ..Default::default() }
}

/// Check that `out` holds exactly the reports `want` describes, as
/// `(qid, outcome, kind, tuples, tenant, attempts)`, and one session
/// event for each.
fn check(out: &ServeOutput, want: &[(QueryId, QueryOutcome, &str, usize, u32, u32)]) {
    assert_eq!(out.reports.len(), want.len(), "one report per submitted query");
    let mut events: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for e in out.trace.events() {
        match e.kind {
            EventKind::Query { qid, outcome, .. } => events.entry(qid).or_default().push(outcome),
            EventKind::Shed { qid } => events.entry(qid).or_default().push("shed instant"),
            _ => {}
        }
    }
    for &(q, outcome, kind, tuples, tenant, attempts) in want {
        let r = out.reports.iter().find(|r| r.qid == q).expect("report filed");
        assert_eq!(r.outcome, outcome, "{q}: outcome");
        assert_eq!((r.kind, r.tuples), (kind, tuples as u64), "{q}: kind and tuples");
        assert_eq!((r.tenant, r.attempts), (tenant, attempts), "{q}: tenant and attempts");
        let label = if outcome == Shed { "shed instant" } else { outcome.label() };
        assert_eq!(events.remove(&q.0).unwrap_or_default(), [label], "{q}: session events");
    }
    assert!(events.is_empty(), "events for unknown queries: {events:?}");
}

#[test]
fn every_window_lifecycle_end_files_its_report_and_event() {
    let (dim, ht) = chained_catalog(1 << 12);
    let small = Relation::fk_uniform(&dim, 500, 0x51);
    let big = Relation::fk_uniform(&dim, 20_000, 0x52);
    let mut srv = ServeSession::new(
        &ht,
        ServeConfig {
            max_active: 2,
            quantum: 64,
            max_retries: 1,
            // A retry waits longer than any deadline below, and longer
            // than the rest of the session's work.
            backoff_base: 1 << 40,
            backoff_cap: 1 << 40,
            breaker_threshold: 100,
            ..Default::default()
        },
    );
    srv.set_tracer(Tracer::on());

    // Two active queries and one pending: cancel the big active one and
    // the pending one.
    let done = srv.submit_opts(probe(&small), opts(1)).unwrap();
    let active = srv.submit_opts(probe(&big), opts(2)).unwrap();
    let pending = srv.submit_opts(probe(&small), opts(3)).unwrap();
    srv.pump();
    assert!(srv.cancel(active) && srv.cancel(pending));
    srv.run_to_completion();

    // A doomed query lands in backoff after its first attempt; cancel it
    // there.
    let backing_off = srv.submit_opts(doomed(&small, 1), opts(4)).unwrap();
    while srv.waiting_queries() == 0 {
        srv.pump();
    }
    assert!(srv.cancel(backing_off));

    let failed = srv.submit_opts(doomed(&small, 2), opts(5)).unwrap();
    let missed = SubmitOpts { deadline_ticks: Some(1), ..opts(6) };
    let missed = srv.submit_opts(probe(&big), missed).unwrap();
    let recovered = SubmitOpts { recovered: true, ..opts(7) };
    let recovered = srv.submit_opts(probe(&small), recovered).unwrap();
    srv.run_to_completion();
    // The backoff alone outlasts this deadline.
    let in_backoff = SubmitOpts { deadline_ticks: Some(1 << 30), ..opts(8) };
    let in_backoff = srv.submit_opts(doomed(&small, 3), in_backoff).unwrap();
    check(
        &srv.finish(),
        &[
            (done, Completed, "probe", 500, 1, 1),
            (active, Cancelled, "probe", 20_000, 2, 1),
            (pending, Cancelled, "probe", 500, 3, 0),
            (backing_off, Cancelled, "probe", 500, 4, 1),
            (failed, FailedAfterRetries, "probe", 500, 5, 2),
            (missed, DeadlineExceeded, "probe", 20_000, 6, 1),
            (recovered, Recovered, "probe", 500, 7, 1),
            (in_backoff, DeadlineExceeded, "probe", 500, 8, 1),
        ],
    );
}

#[test]
fn breaker_and_replay_reports_file_their_event_too() {
    let (dim, ht) = chained_catalog(1 << 12);
    let small = Relation::fk_uniform(&dim, 500, 0x61);
    let fact = Relation::fk_uniform(&dim, 800, 0x62);
    let table = AggTable::for_groups(512);
    let breaker = |breaker_mode| ServeConfig {
        max_retries: 0,
        breaker_threshold: 1,
        breaker_probe_pumps: 1_000_000,
        breaker_mode,
        ..Default::default()
    };

    // Shed mode: one failure opens the breaker, the next query is shed.
    let mut srv = ServeSession::new(&ht, breaker(BreakerMode::Shed));
    srv.set_tracer(Tracer::on());
    let failed = srv.submit_opts(doomed(&small, 4), opts(9)).unwrap();
    srv.run_to_completion();
    let shed = srv.submit_opts(doomed(&small, 5), opts(9)).unwrap();
    check(
        &srv.finish(),
        &[(failed, FailedAfterRetries, "probe", 500, 9, 1), (shed, Shed, "probe", 500, 9, 0)],
    );

    // Degrade mode: the probe runs one tier rung down, the fused pipeline
    // as the fault-free two-phase plan outside the window.
    let mut srv = ServeSession::new(&ht, breaker(BreakerMode::Degrade));
    srv.set_tracer(Tracer::on());
    let failed = srv.submit_opts(doomed(&small, 6), opts(2)).unwrap();
    srv.run_to_completion();
    let near = srv.submit_opts(doomed(&small, 7), opts(2)).unwrap();
    srv.run_to_completion();
    let cfg = PipelineConfig {
        filter: Some(FilterSpec::selectivity(0.5)),
        fault: Some(FaultPlan::fail_only(0x63, 1000)),
        ..Default::default()
    };
    let pipe = srv.submit_opts(Request::Pipeline { fact: &fact, table: &table, cfg }, opts(2));
    let out = srv.finish();
    assert!(out.reports.iter().filter(|r| r.outcome == Completed).all(|r| r.degraded));
    check(
        &out,
        &[
            (failed, FailedAfterRetries, "probe", 500, 2, 1),
            (near, Completed, "probe", 500, 2, 1),
            (pipe.unwrap(), Completed, "pipeline", 800, 2, 1),
        ],
    );

    // Replay: a fresh session over the checkpoint re-applies a sealed WAL
    // segment outside the window and files a synthetic report for it.
    let (_, cat) = chained_catalog(1 << 10);
    cat.freeze();
    let checkpoint = cat.snapshot();
    let ups = Relation::zipf(300, 300, 0.6, 0x64);
    let mut srv = ServeSession::new(&cat, ServeConfig::default());
    srv.submit(Request::Upsert { input: &ups, cfg: MutateConfig::default() }).unwrap();
    srv.run_to_completion();
    let wal = srv.drain_wal();
    drop(srv.finish());
    let back = HashTable::restore(&checkpoint);
    let mut srv = ServeSession::new(&back, ServeConfig::default());
    srv.set_tracer(Tracer::on());
    srv.recover_replay(&wal);
    check(&srv.finish(), &[(QueryId(0), Recovered, "replay", wal.len(), 0, 1)]);
}
