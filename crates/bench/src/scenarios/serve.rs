//! **Serving trajectory** (DESIGN.md "Cross-query batching"): concurrent
//! client queries batched into shared AMAC windows (`amac_server`). (1) A
//! closed run of a uniform and a Zipf(1) tenant, 8 queries each, in one
//! window: per-tenant `nodes_per_lookup`, the max/mean nodes fairness
//! ratio and window occupancy are the gated keys. (2) An open loop of
//! Poisson arrivals at ~70% of the calibrated service rate from a Zipf
//! tenant mix, with admission shedding: latency, throughput and shed
//! count — wall clock, never gated. That sharing leaves each tenant
//! bit-identical to its solo run is invariant 5 of the serving simulation,
//! `crates/server/tests/sim.rs`.

use std::time::Instant;

use super::submit_closed_loop;
use crate::{scan_all_cfg, Args, JsonOut, Outcome};
use amac_hashtable::HashTable;
use amac_metrics::LatencyHistogram;
use amac_server::{QueryReport, Request, ServeConfig, ServeSession, SubmitOpts};
use amac_workload::{PoissonArrivals, Relation, TenantMix};

const SEED: u64 = 0x5E11;

/// Split a relation into `k` equal query-sized chunks (`k` clamped to at
/// least 1, so tiny `--scale` runs degrade to one big query per tenant
/// instead of dividing by zero).
fn split(rel: &Relation, k: usize) -> Vec<Relation> {
    let k = k.max(1);
    let q = (rel.len() / k).max(1);
    rel.tuples.chunks(q).take(k).map(|c| Relation::from_tuples(c.to_vec())).collect()
}

/// Sum (lookups, nodes) over reports.
fn totals<'r>(reports: impl Iterator<Item = &'r QueryReport>) -> (u64, u64) {
    reports.fold((0, 0), |acc, r| (acc.0 + r.stats.lookups, acc.1 + r.stats.nodes_visited))
}

pub(super) fn run(args: &Args) -> Outcome {
    let n = args.s_size();
    let domain = (n as u64 / 16).max(64);
    // Shared catalog: Zipf(0.5) build keys → hot keys own long chains.
    // All relations share one seed (one Feistel rank→key permutation), so
    // the skewed tenant's hot probes hit exactly those chains.
    let build = Relation::zipf(n / 2, domain, 0.5, SEED);
    let ht = HashTable::build_serial(&build);
    let uniform = Relation::zipf(n, domain, 0.0, SEED);
    let zipf = Relation::zipf(n, domain, 1.0, SEED);
    println!("# Serving trajectory ({n} probe tuples per tenant, domain {domain})\n");

    // --- Closed mixed run: fairness + occupancy -------------------------
    const QUERIES_PER_TENANT: usize = 8;
    let u_queries = split(&uniform, QUERIES_PER_TENANT);
    let z_queries = split(&zipf, QUERIES_PER_TENANT);
    let cfg = ServeConfig { max_active: 16, quantum: 256, ..Default::default() };
    let t0 = Instant::now();
    let mut srv = ServeSession::new(&ht, cfg.clone());
    for probes in u_queries.iter().chain(&z_queries) {
        let req = Request::Probe { probes, cfg: scan_all_cfg(10) };
        submit_closed_loop(&mut srv, req, SubmitOpts::default());
    }
    let mixed = srv.finish();
    let mixed_secs = t0.elapsed().as_secs_f64();
    let tenant = |first: bool| {
        totals(mixed.reports.iter().filter(|r| (r.qid.0 < QUERIES_PER_TENANT as u64) == first))
    };
    let (mixed_u, mixed_z) = (tenant(true), tenant(false));
    let npl = |t: (u64, u64)| t.1 as f64 / t.0.max(1) as f64;
    let fairness = amac_server::fairness_nodes_ratio([mixed_u.1, mixed_z.1]);
    println!("closed mixed run: occupancy {:.2}/{}", mixed.occupancy, mixed.window);
    println!(
        "nodes/lookup: uniform {:.3}, zipf {:.3}; fairness max/mean {:.3}\n",
        npl(mixed_u),
        npl(mixed_z),
        fairness
    );

    // --- Open-loop run: Poisson arrivals, Zipf tenant mix ---------------
    const TENANTS: usize = 4;
    let total_queries: usize = if args.quick { 48 } else { 96 };
    let q_tuples = (n / 16).max(512);
    // Per-tenant query pools: even tenants uniform, odd tenants skewed.
    let pools: Vec<Vec<Relation>> = (0..TENANTS)
        .map(|t| split(if t % 2 == 0 { &uniform } else { &zipf }, n / q_tuples.max(1)))
        .collect();
    // Calibrate offered load to ~70% of the closed run's service rate.
    let svc_ns_per_tuple = mixed_secs * 1e9 / mixed.stats.lookups.max(1) as f64;
    let mean_interarrival_ns = q_tuples as f64 * svc_ns_per_tuple / 0.7;

    let mut arrivals = PoissonArrivals::new(mean_interarrival_ns, SEED ^ 1);
    let mut mix = TenantMix::zipf(TENANTS, 1.0, SEED ^ 2);
    let open_cfg = ServeConfig { max_active: 8, max_pending: 8, quantum: 256, ..cfg };
    let mut srv = ServeSession::new(&ht, open_cfg);
    let mut owner: Vec<usize> = Vec::new(); // successful qid -> tenant
    let mut cursors = [0usize; TENANTS];
    let start = Instant::now();
    let mut next_arrival = arrivals.next().unwrap_or(0);
    let mut submitted = 0usize;
    while submitted < total_queries {
        if start.elapsed().as_nanos() as u64 >= next_arrival {
            let t = mix.sample();
            let pool = &pools[t];
            let rel = &pool[cursors[t] % pool.len()];
            cursors[t] += 1;
            if srv.submit(Request::Probe { probes: rel, cfg: scan_all_cfg(10) }).is_ok() {
                owner.push(t);
            }
            submitted += 1;
            next_arrival = arrivals.next().unwrap_or(next_arrival);
        } else {
            srv.pump();
        }
    }
    let open = srv.finish();
    let open_secs = start.elapsed().as_secs_f64();

    let qps = open.reports.len() as f64 / open_secs.max(1e-9);
    println!(
        "open loop: {} completed, {} shed, {:.0} q/s, occupancy {:.2}/{}",
        open.reports.len(),
        open.rejected,
        qps,
        open.occupancy,
        open.window
    );
    // Per-tenant rows (tenants 0,2 uniform; 1,3 zipf).
    let mut overall = LatencyHistogram::new();
    let mut tenant_rows = Vec::new();
    for t in 0..TENANTS {
        let mut hist = LatencyHistogram::new();
        let mine = || open.reports.iter().filter(|r| owner.get(r.qid.0 as usize) == Some(&t));
        for r in mine() {
            hist.record(r.latency_ns);
            overall.record(r.latency_ns);
        }
        // 0.0 for a tenant with no completed queries (all draws shed):
        // NaN would render as invalid JSON in the trajectory blob.
        let us = |q| hist.quantile(q).map_or(0.0, |v| v as f64 / 1e3);
        let (class, queries) = (if t % 2 == 0 { "uniform" } else { "zipf1" }, mine().count());
        println!(
            "  tenant {t} ({class}): {queries} queries, p50 {:.0} us, p99 {:.0} us",
            us(0.5),
            us(0.99)
        );
        tenant_rows.push(format!(
            "{{\"tenant\": {t}, \"class\": \"{class}\", \"queries\": {queries}, \"tuples\": {}, \
             \"nodes_per_lookup\": {:.3}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            mine().map(|r| r.tuples).sum::<u64>(),
            npl(totals(mine())),
            us(0.5),
            us(0.99)
        ));
    }

    let p_us = |q: f64| overall.quantile(q).map_or(0.0, |v| v as f64 / 1e3);
    let mut j = JsonOut::open("serve_multi_tenant");
    j.meta("tuples_per_tenant", n);
    j.meta("domain", domain);
    j.meta("queries_per_tenant_closed", QUERIES_PER_TENANT);
    j.meta("open_loop_queries", total_queries);
    j.meta("open_loop_query_tuples", q_tuples);
    j.meta("host_cpus", std::thread::available_parallelism().map_or(0, |n| n.get()));
    j.results(tenant_rows);
    let keys = [
        // Deterministic keys (regression-gated): traversal work,
        // fairness, window occupancy of the closed mixed run.
        ("BENCH_SERVE_NODES_PER_LOOKUP_UNIFORM", format!("{:.3}", npl(mixed_u))),
        ("BENCH_SERVE_NODES_PER_LOOKUP_ZIPF1", format!("{:.3}", npl(mixed_z))),
        ("BENCH_SERVE_FAIRNESS_NODES_RATIO", format!("{fairness:.3}")),
        ("BENCH_SERVE_WINDOW_OCCUPANCY", format!("{:.3}", mixed.occupancy)),
        // Wall-clock keys (reported, never gated on the 1-CPU host).
        ("BENCH_SERVE_P50_US", format!("{:.1}", p_us(0.50))),
        ("BENCH_SERVE_P99_US", format!("{:.1}", p_us(0.99))),
        ("BENCH_SERVE_QPS", format!("{qps:.1}")),
        ("BENCH_SERVE_SHED", format!("{}", open.rejected)),
    ];
    j.finish_with_keys(&keys)
}
