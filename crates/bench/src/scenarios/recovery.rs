//! **Crash-recovery trajectory** (DESIGN.md "Durability & recovery"): a
//! serving workload runs in `WAVES` waves over a persistent catalog, each
//! wave an upsert query plus a clean and a faulted probe; the WAL is
//! sealed at every wave boundary and checkpointed every `interval` waves.
//! A seeded [`CrashPlan`] kills one wave at a sim tick; recovery restores
//! the last checkpoint, replays the sealed WAL tail, re-runs the lost wave
//! as recovered, and continues. The durability counters are the
//! `BENCH_RECOVERY_*` keys; that every recovered run is bit-identical to
//! the crash-free reference is invariant 7 of the serving simulation,
//! `crates/server/tests/sim.rs`.

use crate::{scan_all_cfg, Args, JsonOut, Outcome};
use amac::engine::EngineStats;
use amac_hashtable::HashTable;
use amac_ops::join::ProbeConfig;
use amac_ops::mutate::MutateConfig;
use amac_server::{Request, ServeConfig, ServeSession, SubmitOpts};
use amac_tier::{CrashPlan, FaultPlan, TierSpec, Wal, WalRecord};
use amac_workload::Relation;

const SEED: u64 = 0x8EC0;
const WAVES: usize = 6;

/// One wave's request streams (upserts grow the table; probes read it
/// concurrently in the same window; the faulted probe exercises
/// retry-under-recovery).
struct WaveStreams {
    ups: Relation,
    probes: Relation,
    fprobes: Relation,
    fault: FaultPlan,
}

fn serve_cfg() -> ServeConfig {
    ServeConfig { quantum: 128, max_retries: 6, backoff_base: 32, ..Default::default() }
}

fn probe_cfg() -> ProbeConfig {
    ProbeConfig { tier: Some(TierSpec::headers_near(8)), ..scan_all_cfg(10) }
}

/// Everything one wave leaves behind.
struct WaveRun {
    wal: Vec<WalRecord>,
    /// The wave's crash-free sim-clock duration (the crash-tick horizon).
    horizon: u64,
    stats: EngineStats,
    /// Records the wave replayed before serving (recovery waves only).
    replayed: u64,
}

fn submit_wave<'a>(srv: &mut ServeSession<'a>, w: &'a WaveStreams, recovered: bool) {
    let opts = |tenant| SubmitOpts { tenant, recovered, ..Default::default() };
    let mcfg = MutateConfig { tier: Some(TierSpec::headers_near(8)), ..Default::default() };
    srv.submit_opts(Request::Upsert { input: &w.ups, cfg: mcfg }, opts(1)).unwrap();
    srv.submit_opts(Request::Probe { probes: &w.probes, cfg: probe_cfg() }, opts(0)).unwrap();
    let fcfg = ProbeConfig { fault: Some(w.fault), ..probe_cfg() };
    srv.submit_opts(Request::Probe { probes: &w.fprobes, cfg: fcfg }, opts(2)).unwrap();
}

/// Run one wave to completion; a recovery wave first re-applies the
/// sealed WAL tail `replay_tail`.
fn run_wave<'a>(
    ht: &'a HashTable,
    w: &'a WaveStreams,
    recovered: bool,
    replay_tail: &[WalRecord],
) -> WaveRun {
    let mut srv = ServeSession::new(ht, serve_cfg());
    let replayed = if recovered { srv.recover_replay(replay_tail).replayed_records } else { 0 };
    submit_wave(&mut srv, w, recovered);
    srv.run_to_completion();
    let horizon = srv.sim_now();
    let wal = srv.drain_wal();
    WaveRun { wal, horizon, stats: srv.finish().stats, replayed }
}

/// Run the wave until the injected crash tick, then kill the session:
/// reports undelivered, WAL tail undrained, partial mutations abandoned
/// with the dying process's memory.
fn crash_wave<'a>(ht: &'a HashTable, w: &'a WaveStreams, tick: u64) {
    let mut srv = ServeSession::new(ht, serve_cfg());
    submit_wave(&mut srv, w, false);
    while srv.sim_now() < tick {
        if srv.active_queries() == 0 && srv.pending_queries() == 0 && srv.waiting_queries() == 0 {
            panic!("crash tick {tick} was never reached (wave finished first)");
        }
        srv.pump();
    }
}

pub(super) fn run(args: &Args) -> Outcome {
    let n = args.s_size();
    let dim_n = (n / 16).max(1 << 10);
    let q_tuples = (n / 32).max(256);

    // Persistent catalog, frozen once: every run (reference and each crash
    // scenario) starts from a restore of checkpoint 0.
    let dim = Relation::dense_unique(dim_n, SEED);
    let built = HashTable::build_serial(&dim);
    built.freeze();
    let checkpoint0 = built.snapshot();

    let streams: Vec<WaveStreams> = (0..WAVES as u64)
        .map(|w| WaveStreams {
            // Upsert keys straddle the build domain: merges into frozen
            // tuples plus fresh inserts beyond it.
            ups: Relation::zipf(q_tuples, (dim_n + dim_n / 2) as u64, 0.6, SEED + w),
            probes: Relation::fk_uniform(&dim, q_tuples, SEED + 50 + w),
            fprobes: Relation::fk_uniform(&dim, q_tuples, SEED + 80 + w),
            fault: FaultPlan::fail_only(SEED ^ (0xFA00 + w), 1),
        })
        .collect();
    println!("# Recovery trajectory ({q_tuples} tuples/stream, {WAVES} waves)\n");

    // --- Crash-free reference ---------------------------------------------
    let ref_table = HashTable::restore(&checkpoint0);
    let ref_waves: Vec<WaveRun> =
        streams.iter().map(|w| run_wave(&ref_table, w, false, &[])).collect();
    let (log_bytes, log_stalls) = ref_waves
        .iter()
        .fold((0u64, 0u64), |(b, s), w| (b + w.stats.log_bytes, s + w.stats.log_stalls));
    let wal_records: usize = ref_waves.iter().map(|w| w.wal.len()).sum();
    println!(
        "reference: {wal_records} WAL records over {WAVES} waves, {log_bytes} log bytes, \
         {log_stalls} amortized write-stall ticks"
    );

    // --- Crash scenarios: seeds × checkpoint intervals ---------------------
    let mut scenarios: Vec<(CrashPlan, usize, bool)> = (0..6u64)
        .map(|i| (CrashPlan::new(SEED ^ 0xC4A5 ^ (i << 16)), if i % 2 == 0 { 1 } else { 3 }, false))
        .collect();
    // Interval-1 scenarios checkpoint at every wave boundary, so the
    // sealed tail between the last checkpoint and the crash is empty and
    // recovery replays 0 records. Force the replay path: a scenario that
    // never checkpoints mid-run and (by deterministic seed search) crashes
    // past wave 0, so the sealed tail holds every earlier wave's records.
    let forced_plan = (0u64..)
        .map(|k| CrashPlan::new(SEED ^ 0xF02CE ^ (k << 24)))
        .find(|p| p.wave(WAVES) >= 1)
        .expect("some seed crashes past wave 0");
    scenarios.push((forced_plan, WAVES + 1, true));
    let (mut replayed_total, mut recovered_total) = (0u64, 0u64);
    let mut rows: Vec<String> = Vec::new();
    for (plan, interval, forced) in &scenarios {
        let cw = plan.wave(WAVES);
        let tick = plan.tick(ref_waves[cw].horizon);
        let mut table = HashTable::restore(&checkpoint0);
        let mut wal = Wal::new();
        // (checkpoint snapshot, WAL frontier at checkpoint time).
        let mut last = (table.snapshot(), 0usize);
        let (mut replayed, mut recovered) = (0u64, 0u64);
        for (w, stream) in streams.iter().enumerate() {
            let run = if w == cw {
                crash_wave(&table, stream, tick);
                // The unsealed tail dies with the process; sealed
                // segments and checkpoints are the durable state.
                wal.crash();
                let back = HashTable::restore(&last.0);
                let tail = wal.sealed()[last.1..].to_vec();
                let run = run_wave(&back, stream, true, &tail);
                table = back;
                run
            } else {
                run_wave(&table, stream, false, &[])
            };
            replayed += run.replayed;
            recovered += run.stats.recovered_queries;
            wal.extend(run.wal);
            wal.seal(); // group commit at the wave boundary
            if (w + 1) % interval == 0 {
                last = (table.snapshot(), wal.sealed().len());
            }
        }
        assert_eq!(wal.len(), wal_records, "recovered WAL length diverged from reference");
        assert!(
            !forced || replayed > 0,
            "forced scenario (no mid-run checkpoints, crash at wave {cw} >= 1) must replay a \
             non-empty sealed tail"
        );
        replayed_total += replayed;
        recovered_total += recovered;
        rows.push(format!(
            "{{\"crash_wave\": {cw}, \"crash_tick\": {tick}, \"interval\": {interval}, \
             \"replayed\": {replayed}, \"recovered_queries\": {recovered}}}"
        ));
        println!(
            "crash @ wave {cw} tick {tick:>6} (ckpt every {interval}): replayed {replayed:>5} \
             records, {recovered} recovered queries"
        );
    }
    println!();

    let mut j = JsonOut::open("crash_recovery");
    j.meta("tuples_per_stream", q_tuples);
    j.meta("waves", WAVES);
    j.meta("scenarios", scenarios.len());
    j.results(rows);
    // Deterministic: seeded crashes, sim-tick horizons, logical WAL sizes.
    let keys = [
        ("BENCH_RECOVERY_SCENARIOS", scenarios.len() as u64),
        ("BENCH_RECOVERY_REPLAYED_RECORDS", replayed_total),
        ("BENCH_RECOVERY_RECOVERED_QUERIES", recovered_total),
        ("BENCH_RECOVERY_LOG_BYTES", log_bytes),
        ("BENCH_RECOVERY_LOG_STALLS", log_stalls),
    ];
    j.finish_with_keys(&keys.map(|(k, v)| (k, v.to_string())))
}
