//! **Chaos trajectory** (DESIGN.md "Failure model"): seeded far-tier
//! faults against the serving stack's retry / deadline / breaker
//! machinery, as deterministic `BENCH_CHAOS_*` counters. (1) A healthy
//! and a faulted tenant share one window, plus two queries with an
//! impossible deadline. (2) An always-failing tenant trips the circuit
//! breaker; later queries are shed. What each outcome must compute
//! (healthy tenant equal to its solo run, survivors to the fault-free
//! probe, the retry budget) is the serving simulation's contract
//! (`crates/server/tests/sim.rs`: invariant 5 and the plan
//! `faulted_tenant_survivors_and_healthy_neighbours_stay_exact`), and so
//! are report and ledger conservation under random interleavings
//! (invariants 1–4); the thread-count invariance of fault sets is
//! invariant 6 of `tests/ops_sim.rs`.

use super::submit_closed_loop;
use crate::{scan_all_cfg, Args, JsonOut, Outcome};
use amac_hashtable::HashTable;
use amac_ops::join::ProbeConfig;
use amac_server::{
    BreakerMode, QueryId, QueryOutcome, Request, ServeConfig, ServeSession, SubmitOpts,
};
use amac_tier::FaultPlan;
use amac_workload::Relation;

const SEED: u64 = 0xC4A05;
const QUERIES_PER_TENANT: usize = 8;

pub(super) fn run(args: &Args) -> Outcome {
    let n = args.s_size();
    let dim_n = (n / 16).max(1 << 10);
    let q_tuples = (n / 16).max(512);
    // Shared catalog all queries probe. The faulted tenant's chain loads
    // go through the fault-checked far tier (`headers_near(1)` implied by
    // `ProbeConfig::fault`); the healthy tenant's identical cfg minus the
    // plan is untouched by construction.
    let dim = Relation::dense_unique(dim_n, SEED);
    let ht = HashTable::build_serial(&dim);
    let stream = |i: usize| Relation::fk_uniform(&dim, q_tuples, SEED + i as u64);
    let healthy: Vec<Relation> = (0..QUERIES_PER_TENANT).map(stream).collect();
    let faulty: Vec<Relation> = (0..QUERIES_PER_TENANT).map(|i| stream(100 + i)).collect();
    println!("# Chaos trajectory ({q_tuples} tuples/query, {QUERIES_PER_TENANT} queries/tenant)\n");

    // --- 1. Fault sweep: healthy + faulted tenants, tight deadlines ------
    let cfg = ServeConfig {
        max_active: 8,
        max_pending: 8,
        quantum: 128,
        max_retries: 4,
        backoff_base: 32,
        ..Default::default()
    };
    // One plan per query: all streams draw from the same key universe, so
    // a shared seed would fault every query on the same attempts (fault
    // decisions hash (key, hop)); per-query seeds give independent fates
    // and a meaningful recovered fraction.
    const FAIL_PER_MILLE: u16 = 1;
    let plans: Vec<FaultPlan> = (0..QUERIES_PER_TENANT)
        .map(|i| FaultPlan::fail_only(SEED ^ 0xFA17 ^ (i as u64) << 8, FAIL_PER_MILLE))
        .collect();

    let mut srv = ServeSession::new(&ht, cfg.clone());
    let mut owner: Vec<(QueryId, u32, usize)> = Vec::new(); // (qid, tenant, stream idx)
    for i in 0..QUERIES_PER_TENANT {
        let req = Request::Probe { probes: &healthy[i], cfg: scan_all_cfg(10) };
        owner.push((submit_closed_loop(&mut srv, req, SubmitOpts::default()), 0, i));
        let fcfg = ProbeConfig { fault: Some(plans[i]), ..scan_all_cfg(10) };
        let req = Request::Probe { probes: &faulty[i], cfg: fcfg };
        owner.push((
            submit_closed_loop(&mut srv, req, SubmitOpts { tenant: 1, ..Default::default() }),
            1,
            i,
        ));
    }
    // Two queries with an impossible 1-tick deadline: cooperatively
    // cancelled, reported, their partial work still on the books.
    for (i, probes) in healthy.iter().take(2).enumerate() {
        let opts = SubmitOpts { tenant: 2, deadline_ticks: Some(1), ..Default::default() };
        owner.push((
            submit_closed_loop(&mut srv, Request::Probe { probes, cfg: scan_all_cfg(10) }, opts),
            2,
            i,
        ));
    }
    let out = srv.finish();

    let find =
        |qid: QueryId| out.reports.iter().find(|r| r.qid == qid).expect("one report per query");
    let (mut recovered, mut failed, mut retried_ok) = (0u64, 0u64, 0u64);
    for &(qid, tenant, _) in &owner {
        let r = find(qid);
        match (tenant, r.outcome) {
            (1, QueryOutcome::Completed) => {
                recovered += 1;
                retried_ok += u64::from(r.attempts > 1);
            }
            (1, QueryOutcome::FailedAfterRetries) => failed += 1,
            _ => {}
        }
    }
    let deadline_misses = out.count(QueryOutcome::DeadlineExceeded);
    let recovered_fraction = recovered as f64 / QUERIES_PER_TENANT as f64;
    println!(
        "fault sweep: {} retries; faulted tenant {recovered}/{QUERIES_PER_TENANT} recovered \
         ({retried_ok} after >1 attempt), {failed} failed after retries, {deadline_misses} \
         deadline misses\n",
        out.retries(),
    );

    // --- 2. Breaker demo: consecutive failures open the breaker ----------
    let bcfg = ServeConfig {
        max_retries: 0,
        breaker_threshold: 2,
        breaker_probe_pumps: u64::MAX >> 1, // stay open for the demo
        breaker_mode: BreakerMode::Shed,
        ..cfg.clone()
    };
    let doomed = FaultPlan::fail_only(SEED ^ 0xDEAD, 1000); // every far load fails
    let mut brk = ServeSession::new(&ht, bcfg.clone());
    for q in faulty.iter().take(6) {
        let req = Request::Probe {
            probes: q,
            cfg: ProbeConfig { fault: Some(doomed), ..scan_all_cfg(10) },
        };
        submit_closed_loop(&mut brk, req, SubmitOpts { tenant: 7, ..Default::default() });
        brk.run_to_completion();
    }
    let brk_out = brk.finish();
    let shed = brk_out.count(QueryOutcome::Shed);
    let brk_failed = brk_out.count(QueryOutcome::FailedAfterRetries);
    println!(
        "breaker demo: {brk_failed} consecutive failures opened the breaker, {shed} queries shed \
         with zero work\n"
    );

    let mut j = JsonOut::open("chaos_fault_injection");
    j.meta("tuples_per_query", q_tuples);
    j.meta("queries_per_tenant", QUERIES_PER_TENANT);
    j.meta("fail_per_mille", FAIL_PER_MILLE);
    j.meta("max_retries", cfg.max_retries);
    j.meta("breaker_threshold", bcfg.breaker_threshold);
    j.results(owner.iter().map(|&(qid, tenant, i)| {
        let r = find(qid);
        format!(
            "{{\"qid\": {}, \"tenant\": {tenant}, \"stream\": {i}, \"outcome\": \"{}\", \
             \"attempts\": {}, \"lookups\": {}, \"failed_lookups\": {}}}",
            qid.0,
            r.outcome.label(),
            r.attempts,
            r.stats.lookups,
            r.stats.failed_lookups
        )
    }));
    // Deterministic: seeded faults, sim-tick deadlines, closed-loop admission.
    let keys = [
        ("BENCH_CHAOS_RETRIES", format!("{}", out.retries())),
        ("BENCH_CHAOS_SHED", format!("{shed}")),
        ("BENCH_CHAOS_DEADLINE_MISSES", format!("{deadline_misses}")),
        ("BENCH_CHAOS_FAILED_AFTER_RETRIES", format!("{}", failed + brk_failed)),
        ("BENCH_CHAOS_RECOVERED_FRACTION", format!("{recovered_fraction:.3}")),
    ];
    j.finish_with_keys(&keys)
}
