//! Fault injection quickstart: the deterministic fault plan by hand,
//! then a miniature chaos sweep through the serving stack.
//!
//! Run: `cargo run --release --example chaos`
//!
//! The first half mirrors the `amac_tier::fault` module doctest; the
//! second half is a miniature of `bench/bin/chaos.rs`.

use amac_suite::engine::{EngineStats, Technique};
use amac_suite::hashtable::HashTable;
use amac_suite::ops::join::{probe, ProbeConfig};
use amac_suite::server::{QueryOutcome, Request, ServeConfig, ServeSession, SubmitOpts};
use amac_suite::tier::{fault_token, AddrClass, FaultPlan, SimClock, TierSpec};
use amac_suite::workload::Relation;

fn main() {
    // --- Part 1: the plan itself (mirrors the tier::fault doctest) ----
    // 5% of far loads fail, 10% spike to 4x latency, slab 1 is degraded.
    let plan = FaultPlan {
        seed: 0xC0FFEE,
        fail_per_mille: 50,
        spike_per_mille: 100,
        spike_multiplier: 4,
        degraded_slab: Some(1),
    };

    // Attach the plan to a tiered clock; far slab loads now resolve to
    // (ready_at, failed) under it instead of always succeeding.
    let spec = TierSpec::headers_near(8);
    let mut clock = SimClock::new(spec, Some(plan));
    let node = AddrClass::Slab { slab: 0, line: 0 };
    let token = fault_token(0xDEADBEEF, 0); // (key, hop) — order-invariant
    let (ready_at, failed) = clock.resolve(node, token);
    assert!(ready_at >= 32); // on time or spiked; if `failed`, the lookup must abort

    // Determinism: the same (plan, token) always resolves the same way.
    assert_eq!(plan.fails(token), failed);

    // Near loads never fault: an AllNear clock is bit-identical to a
    // fault-free run.
    let near = TierSpec { policy: amac_suite::tier::TierPolicy::AllNear, ..spec };
    let mut c = SimClock::new(near, Some(plan));
    assert_eq!(c.resolve(node, token), (4, false));

    // Retries reseed, so a retried query dodges deterministic faults.
    assert_ne!(plan.reseeded(1).seed, plan.seed);
    println!("fault decisions: pure functions of (seed, key, hop) — OK\n");

    // --- Part 2: a miniature of bench/bin/chaos.rs --------------------
    // Faulted probes retry with sim-tick backoff until they recover; the
    // survivors are bit-identical to the fault-free reference.
    let dim = Relation::dense_unique(1 << 11, 0xD1);
    let ht = HashTable::build_serial(&dim);
    let streams: Vec<Relation> =
        (0..4).map(|i| Relation::fk_uniform(&dim, 1 << 10, 0xA0 + i)).collect();
    let clean_cfg = ProbeConfig { scan_all: true, materialize: false, ..Default::default() };

    let mut srv = ServeSession::new(
        &ht,
        ServeConfig { max_retries: 6, backoff_base: 16, ..Default::default() },
    );
    let qids: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let cfg = ProbeConfig {
                fault: Some(FaultPlan::fail_only(0xFA11 ^ ((i as u64) << 8), 2)),
                ..clean_cfg.clone()
            };
            srv.submit_opts(
                Request::Probe { probes: s, cfg },
                SubmitOpts { tenant: i as u32, ..Default::default() },
            )
            .unwrap()
        })
        .collect();
    let out = srv.finish();

    println!("query  outcome     attempts  failed-loads  matches");
    for (i, s) in streams.iter().enumerate() {
        // Reports arrive in completion order; route by query id.
        let r = out.reports.iter().find(|r| r.qid == qids[i]).unwrap();
        let reference = probe(&ht, s, Technique::Amac, &clean_cfg);
        if r.outcome == QueryOutcome::Completed {
            // Survivors are bit-identical to the fault-free run.
            assert_eq!(r.matches, reference.matches);
            assert_eq!(r.checksum, reference.checksum);
        }
        println!(
            "{i:>5}  {:<10}  {:>8}  {:>12}  {:>7}",
            r.outcome.label(),
            r.attempts,
            r.stats.failed_lookups,
            r.matches
        );
    }
    // Per-query ledgers (retries included) still sum to the global
    // counters — exact accounting survives chaos.
    let mut sum = EngineStats::default();
    for r in &out.reports {
        sum.merge(&r.stats);
    }
    assert_eq!(sum, out.stats);
    println!("\nper-query ledgers sum to global stats under faults: OK");
}
