//! **Deterministic tracing trajectory** (DESIGN.md "Tracing &
//! attribution"): three zero invariants, counted over every executor —
//! the stall profile sums to `sim_stalls` and the
//! retirements to `lookups` (conservation), an untraced run's ledger
//! equals the traced run's (disabled overhead, in differing `EngineStats`
//! fields), and a rerun traces byte-identically (determinism). The shape
//! keys gate the attribution: the far tier's share of stalls under
//! headers-near(4), and events per lookup (a lost hook shrinks it, a
//! double count grows it). The AMAC run's trace is exported as
//! `trace.json` (Chrome `trace_event`) in the working directory.

use crate::{scan_all_cfg, Args, JsonOut, Outcome};
use amac::engine::{EngineStats, Technique};
use amac_hashtable::HashTable;
use amac_ops::join::{probe, ProbeConfig};
use amac_tier::TierSpec;
use amac_trace::TierKind;
use amac_workload::Relation;

const SEED: u64 = 0x7A5E;

fn cfg(trace: bool) -> ProbeConfig {
    ProbeConfig { tier: Some(TierSpec::headers_near(4)), trace, ..scan_all_cfg(10) }
}

/// Count differing fields between two ledgers by comparing their Debug
/// forms field by field — any divergence is disabled-mode overhead.
fn ledger_diff(a: &EngineStats, b: &EngineStats) -> u64 {
    let (da, db) = (format!("{a:?}"), format!("{b:?}"));
    da.split(',').zip(db.split(',')).filter(|(x, y)| x != y).count() as u64
}

pub(super) fn run(args: &Args) -> Outcome {
    let n = args.s_size();
    let domain = (n as u64 / 16).max(512);
    let ht = HashTable::build_serial(&Relation::zipf(n / 8, domain, 0.75, SEED));
    let probes = Relation::zipf(n, domain, 1.0, SEED ^ 0x33);
    println!("# Deterministic tracing ({n} probes, headers-near(4))\n");

    let mut conservation_violations = 0u64;
    let mut determinism_violations = 0u64;
    let mut disabled_overhead = 0u64;
    let mut amac_run = None;
    for technique in Technique::ALL {
        let off = probe(&ht, &probes, technique, &cfg(false));
        let on = probe(&ht, &probes, technique, &cfg(true));
        let rerun = probe(&ht, &probes, technique, &cfg(true));
        disabled_overhead += ledger_diff(&on.stats, &off.stats);
        conservation_violations +=
            u64::from(!on.trace.conserves(on.stats.sim_stalls, on.stats.lookups));
        determinism_violations += u64::from(
            on.trace.canonical_hash() != rerun.trace.canonical_hash()
                || on.trace.render() != rerun.trace.render(),
        );
        if technique == Technique::Amac {
            amac_run = Some(on);
        }
    }

    let amac = amac_run.expect("AMAC is in Technique::ALL");
    let lookups = amac.stats.lookups.max(1);
    let total_stalls = amac.trace.stalls().max(1);
    let far_stalls: u64 = amac
        .trace
        .stall_rows()
        .iter()
        .filter(|(k, _)| k.tier == TierKind::Far)
        .map(|(_, v)| *v)
        .sum();
    let stall_share_far = far_stalls as f64 / total_stalls as f64;
    let events_per_lookup = amac.trace.len() as f64 / lookups as f64;
    amac.trace.stall_table().print();
    println!();
    println!(
        "invariants: conservation violations {conservation_violations}, \
         determinism violations {determinism_violations}, disabled overhead {disabled_overhead}"
    );
    println!("shape: far stall share {stall_share_far:.3}, events/lookup {events_per_lookup:.3}\n");

    let chrome = amac.trace.chrome_json();
    std::fs::write("trace.json", &chrome).expect("write trace.json");
    println!("wrote trace.json ({} bytes, {} events)", chrome.len(), amac.trace.len());

    let mut j = JsonOut::open("trace_attribution");
    j.meta("tuples", n);
    j.results(amac.trace.stall_rows().into_iter().map(|(k, v)| {
        format!(
            "{{\"kind\": \"stall\", \"op\": \"{}\", \"class\": \"{}\", \"tier\": \"{}\", \
             \"hop\": {}, \"ticks\": {v}}}",
            k.op, k.class, k.tier, k.hop
        )
    }));
    let keys = [
        ("BENCH_TRACE_STALL_SHARE_FAR", format!("{stall_share_far:.4}")),
        ("BENCH_TRACE_EVENTS_PER_LOOKUP", format!("{events_per_lookup:.4}")),
        ("BENCH_TRACE_CONSERVATION_VIOLATIONS", format!("{conservation_violations}")),
        ("BENCH_TRACE_DETERMINISM_VIOLATIONS", format!("{determinism_violations}")),
        ("BENCH_TRACE_DISABLED_OVERHEAD", format!("{disabled_overhead}")),
    ];
    j.finish_with_keys(&keys)
}
