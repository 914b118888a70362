//! Seeded far-tier faults against the serving stack's retry, deadline and
//! breaker machinery: which outcomes a shared window may produce, and
//! what each must compute.
//!
//! A healthy and a faulted tenant share one window, plus two queries with
//! an impossible deadline. The healthy tenant must match its solo run,
//! down to `nodes_visited`; every faulted survivor must match the
//! fault-free probe; a terminal failure must have spent the whole retry
//! budget; and the deadline queries must miss. The same faulted probe at
//! 1/2/4 threads must inject the same faults, because decisions hash
//! `(key, hop)`, never issue order. The `bench chaos` scenario reports
//! the counts of this run at bench scale; report and ledger conservation
//! under random interleavings is `chaos_ledger.rs`'s contract.

use amac::engine::{Technique, TuningParams};
use amac_hashtable::HashTable;
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::parallel::probe_mt_rt;
use amac_runtime::MorselConfig;
use amac_server::{QueryId, QueryOutcome, Request, ServeConfig, ServeSession, SubmitOpts};
use amac_tier::FaultPlan;
use amac_workload::Relation;

const SEED: u64 = 0xC4A05;
const QUERIES_PER_TENANT: usize = 8;
const TUPLES: usize = 2048;
/// Dense enough that some faulted queries exhaust their retry budget and
/// some survive a retry.
const FAIL_PER_MILLE: u16 = 2;

fn scan_all() -> ProbeConfig {
    ProbeConfig {
        params: TuningParams::with_in_flight(10),
        scan_all: true,
        materialize: false,
        ..Default::default()
    }
}

/// Closed-loop admission: on backpressure, pump for the hinted number of
/// rounds and resubmit, so no query is refused.
fn submit<'a>(srv: &mut ServeSession<'a>, req: Request<'a>, opts: SubmitOpts) -> QueryId {
    loop {
        match srv.submit_opts(req.clone(), opts) {
            Ok(qid) => return qid,
            Err(bp) => {
                for _ in 0..bp.retry_after_pumps {
                    srv.pump();
                }
            }
        }
    }
}

#[test]
fn faulted_tenant_survivors_and_healthy_neighbours_stay_exact() {
    let dim = Relation::dense_unique(TUPLES, SEED);
    let ht = HashTable::build_serial(&dim);
    let stream = |i: usize| Relation::fk_uniform(&dim, TUPLES, SEED + i as u64);
    let healthy: Vec<Relation> = (0..QUERIES_PER_TENANT).map(stream).collect();
    let faulty: Vec<Relation> = (0..QUERIES_PER_TENANT).map(|i| stream(100 + i)).collect();
    let cfg = ServeConfig {
        max_active: 8,
        max_pending: 8,
        quantum: 128,
        max_retries: 4,
        backoff_base: 32,
        ..Default::default()
    };
    // One plan per query: the streams share a key universe, so a shared
    // seed would fault every query on the same attempts.
    let plan = |i: usize| FaultPlan::fail_only(SEED ^ 0xFA17 ^ (i as u64) << 8, FAIL_PER_MILLE);

    // Fault-free references: the healthy tenant served solo, and each
    // faulted stream probed solo without its plan.
    let mut solo = ServeSession::new(&ht, cfg.clone());
    let solo_ids: Vec<QueryId> = healthy
        .iter()
        .map(|q| {
            submit(&mut solo, Request::Probe { probes: q, cfg: scan_all() }, SubmitOpts::default())
        })
        .collect();
    let solo = solo.finish();
    let clean: Vec<_> =
        faulty.iter().map(|s| probe(&ht, s, Technique::Amac, &scan_all())).collect();

    let mut srv = ServeSession::new(&ht, cfg.clone());
    let mut owner: Vec<(QueryId, u32, usize)> = Vec::new(); // (qid, tenant, stream)
    for i in 0..QUERIES_PER_TENANT {
        let req = Request::Probe { probes: &healthy[i], cfg: scan_all() };
        owner.push((submit(&mut srv, req, SubmitOpts::default()), 0, i));
        let fcfg = ProbeConfig { fault: Some(plan(i)), ..scan_all() };
        let req = Request::Probe { probes: &faulty[i], cfg: fcfg };
        owner.push((submit(&mut srv, req, SubmitOpts { tenant: 1, ..Default::default() }), 1, i));
    }
    for (i, probes) in healthy.iter().take(2).enumerate() {
        let opts = SubmitOpts { tenant: 2, deadline_ticks: Some(1), ..Default::default() };
        owner.push((submit(&mut srv, Request::Probe { probes, cfg: scan_all() }, opts), 2, i));
    }
    let out = srv.finish();

    let (mut retried_survivors, mut failed) = (0, 0);
    for &(qid, tenant, i) in &owner {
        let r = out.reports.iter().find(|r| r.qid == qid).expect("one report per query");
        match (tenant, r.outcome) {
            // The faulted tenant's retries cost the healthy one nothing,
            // down to traversal work.
            (0, QueryOutcome::Completed) => {
                let s = solo.reports.iter().find(|r| r.qid == solo_ids[i]).unwrap();
                assert_eq!(
                    (r.matches, r.checksum, r.stats.nodes_visited),
                    (s.matches, s.checksum, s.stats.nodes_visited),
                    "healthy stream {i} diverged from its solo run"
                );
            }
            // A retry reruns from scratch, so a survivor is exact.
            (1, QueryOutcome::Completed) => {
                let c = &clean[i];
                assert_eq!((r.matches, r.checksum), (c.matches, c.checksum), "faulted stream {i}");
                retried_survivors += u32::from(r.attempts > 1);
            }
            (1, QueryOutcome::FailedAfterRetries) => {
                assert_eq!(r.attempts, 1 + cfg.max_retries, "stream {i}: budget not exhausted");
                failed += 1;
            }
            (2, QueryOutcome::DeadlineExceeded) => {}
            (t, o) => panic!("tenant {t} stream {i}: unexpected outcome {o:?}"),
        }
    }
    assert!(retried_survivors > 0, "no faulted query survived a retry");
    assert!(failed > 0, "no faulted query exhausted its retry budget");
}

#[test]
fn injected_faults_are_identical_at_one_two_and_four_threads() {
    let dim = Relation::dense_unique(TUPLES, SEED);
    let ht = HashTable::build_serial(&dim);
    let streams: Vec<Relation> =
        (0..2).map(|i| Relation::fk_uniform(&dim, TUPLES, SEED + 100 + i)).collect();
    let cfg = ProbeConfig { fault: Some(FaultPlan::fail_only(SEED ^ 0x7000, 5)), ..scan_all() };
    let sigs = [1usize, 2, 4].map(|threads| {
        let rt = MorselConfig { threads, morsel_tuples: 1024, ..Default::default() };
        streams
            .iter()
            .map(|s| {
                let o = probe_mt_rt(&ht, s, Technique::Amac, &cfg, &rt);
                (o.stats.load_faults, o.stats.failed_lookups, o.matches, o.checksum)
            })
            .collect::<Vec<_>>()
    });
    assert!(sigs[0].iter().any(|s| s.0 > 0), "the plan injected no fault");
    assert_eq!(sigs[0], sigs[1], "fault sets diverged between 1 and 2 threads");
    assert_eq!(sigs[0], sigs[2], "fault sets diverged between 1 and 4 threads");
}
