//! **Deterministic regression gate** over the `BENCH_*.json` trajectory
//! files.
//!
//! The 1-CPU CI host cannot gate on wall time — but the counters PRs 1–3
//! established as this repo's signal (`nodes_per_lookup`, tag-reject
//! share, fused passes / intermediate bytes, serving fairness and window
//! occupancy) are **deterministic**: they count work, not nanoseconds.
//! This binary compares the freshly produced trajectory files against
//! `crates/bench/baselines.json` and fails (exit 1) when any gated
//! counter regresses by more than its tolerance (default 5%).
//!
//! Baseline format — strict one-entry-per-line JSON, parsed with a
//! dependency-free field scanner:
//!
//! ```json
//! {
//!   "tolerance": 0.05,
//!   "entries": [
//!     {"file": "BENCH_SCALING.json", "key": "BENCH_SKEW_NODES_PER_LOOKUP_ZIPF1", "value": 3.069, "better": "lower"},
//!     ...
//!   ]
//! }
//! ```
//!
//! `better` is the direction of goodness: `"lower"` fails when the
//! current value exceeds `baseline × (1 + tol)`, `"higher"` fails when it
//! drops below `baseline × (1 − tol)`. A zero baseline is gated
//! absolutely (any change beyond `tol` in magnitude fails) — that is how
//! `BENCH_PIPELINE_FUSED_INTERMEDIATE_BYTES = 0` stays an invariant.
//!
//! **Intentional changes**: when a PR legitimately moves a counter
//! (layout rework, new workload), regenerate the trajectory files at the
//! CI scales and run `cargo run --bin regress -- --bless`, then commit
//! the updated `baselines.json` alongside the change with a justification
//! in the PR. The gate exists to make that step conscious, not to forbid
//! it (see DESIGN.md "Cross-query batching" → CI trajectory).
//!
//! Usage: `regress [--dir D] [--baselines F] [--bless]`

use amac_bench::gate::{lookup, parse_baselines, Direction, Entry};
use std::path::PathBuf;

fn render_baselines(tolerance: f64, entries: &[Entry]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"tolerance\": {tolerance},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let dir = match e.better {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
        };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"key\": \"{}\", \"value\": {:.4}, \"better\": \"{dir}\"}}{comma}\n",
            e.file, e.key, e.value
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut dir = PathBuf::from(".");
    let mut baselines = PathBuf::from("crates/bench/baselines.json");
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dir" => dir = PathBuf::from(it.next().expect("--dir needs a path")),
            "--baselines" => {
                baselines = PathBuf::from(it.next().expect("--baselines needs a path"))
            }
            "--bless" => bless = true,
            other => {
                eprintln!("usage: regress [--dir D] [--baselines F] [--bless]  (got '{other}')");
                std::process::exit(2);
            }
        }
    }

    let text = match std::fs::read_to_string(&baselines) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", baselines.display());
            std::process::exit(2);
        }
    };
    let (tolerance, entries) = parse_baselines(&text);
    if entries.is_empty() {
        eprintln!("error: no gate entries parsed from {}", baselines.display());
        std::process::exit(2);
    }

    let mut failures = 0usize;
    let mut missing = 0usize;
    let mut blessed = entries.clone();
    println!("regression gate: {} entries, tolerance {:.0}%", entries.len(), tolerance * 100.0);
    for (i, e) in entries.iter().enumerate() {
        let cur = match lookup(&dir, &e.file, &e.key) {
            Ok(v) => v,
            Err(msg) => {
                println!("  FAIL {:<48} {msg}", e.key);
                failures += 1;
                missing += 1;
                continue;
            }
        };
        blessed[i].value = cur;
        let (ok, bound) = if e.value == 0.0 {
            // Zero baselines are invariants: gate on absolute drift.
            (cur.abs() <= tolerance, tolerance)
        } else {
            match e.better {
                Direction::Lower => {
                    (cur <= e.value * (1.0 + tolerance), e.value * (1.0 + tolerance))
                }
                Direction::Higher => {
                    (cur >= e.value * (1.0 - tolerance), e.value * (1.0 - tolerance))
                }
            }
        };
        let verdict = if ok { "ok  " } else { "FAIL" };
        println!(
            "  {verdict} {:<48} current {cur:.4}  baseline {:.4}  bound {bound:.4}",
            e.key, e.value
        );
        if !ok {
            failures += 1;
        }
    }

    if bless {
        // Refuse to bless from incomplete evidence: an unreadable file or
        // a missing key would leave that entry's stale baseline in place
        // and silently mix fresh and stale values.
        if missing > 0 {
            eprintln!(
                "error: refusing to bless — {missing} entr{} could not be read; regenerate \
                 every trajectory file first",
                if missing == 1 { "y" } else { "ies" }
            );
            std::process::exit(2);
        }
        let body = render_baselines(tolerance, &blessed);
        if let Err(e) = std::fs::write(&baselines, body) {
            eprintln!("error: cannot write {}: {e}", baselines.display());
            std::process::exit(2);
        }
        println!("blessed: {} rewritten from current values", baselines.display());
        return;
    }
    if failures > 0 {
        eprintln!(
            "\n{failures} counter(s) regressed beyond {:.0}%. If intentional, regenerate the \
             trajectories at CI scales and run `cargo run --bin regress -- --bless`, then commit \
             crates/bench/baselines.json with a justification (see DESIGN.md).",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!("gate clean");
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_bench::gate::{field_num, field_str};

    const SAMPLE: &str = r#"{
  "tolerance": 0.05,
  "entries": [
    {"file": "A.json", "key": "K_LOW", "value": 2.0, "better": "lower"},
    {"file": "A.json", "key": "K_HIGH", "value": 0.30, "better": "higher"},
    {"file": "A.json", "key": "K_ZERO", "value": 0.0, "better": "lower"}
  ]
}"#;

    #[test]
    fn parses_entries_and_tolerance() {
        let (tol, entries) = parse_baselines(SAMPLE);
        assert_eq!(tol, 0.05);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].key, "K_LOW");
        assert_eq!(entries[0].better, Direction::Lower);
        assert_eq!(entries[1].better, Direction::Higher);
        assert_eq!(entries[2].value, 0.0);
    }

    #[test]
    fn field_scanners_handle_numbers_and_strings() {
        let line = r#"  {"file": "B.json", "key": "X", "value": -1.5e2, "better": "higher"}"#;
        assert_eq!(field_str(line, "file").as_deref(), Some("B.json"));
        assert_eq!(field_num(line, "value"), Some(-150.0));
        assert_eq!(field_num(line, "missing"), None);
    }

    /// A seeded >5% regression must trip the gate logic: this is the
    /// durable version of the "scratch commit" verification.
    #[test]
    fn seeded_regression_is_caught_and_tolerance_is_respected() {
        let (tol, entries) = parse_baselines(SAMPLE);
        let check = |e: &Entry, cur: f64| -> bool {
            if e.value == 0.0 {
                cur.abs() <= tol
            } else {
                match e.better {
                    Direction::Lower => cur <= e.value * (1.0 + tol),
                    Direction::Higher => cur >= e.value * (1.0 - tol),
                }
            }
        };
        let low = &entries[0]; // baseline 2.0, lower is better
        assert!(check(low, 2.0), "unchanged passes");
        assert!(check(low, 2.09), "within 5% passes");
        assert!(!check(low, 2.11), "a 5.5% nodes_per_lookup regression must fail");
        assert!(check(low, 1.5), "improvement passes");
        let high = &entries[1]; // baseline 0.30, higher is better
        assert!(check(high, 0.29), "within 5% passes");
        assert!(!check(high, 0.27), "a 10% reduction loss must fail");
        let zero = &entries[2]; // invariant
        assert!(check(zero, 0.0));
        assert!(!check(zero, 1.0), "zero invariants admit no drift");
    }

    /// The shipped baselines must gate the recovery bench: five keys,
    /// all pointing at BENCH_RECOVERY.json. Losing one silently un-gates
    /// a durability counter.
    #[test]
    fn shipped_baselines_cover_the_recovery_bench() {
        let shipped = include_str!("../../baselines.json");
        let (_, entries) = parse_baselines(shipped);
        for key in [
            "BENCH_RECOVERY_SCENARIOS",
            "BENCH_RECOVERY_REPLAYED_RECORDS",
            "BENCH_RECOVERY_RECOVERED_QUERIES",
            "BENCH_RECOVERY_LOG_BYTES",
            "BENCH_RECOVERY_LOG_STALLS",
        ] {
            let e = entries
                .iter()
                .find(|e| e.key == key)
                .unwrap_or_else(|| panic!("baselines.json lost {key}"));
            assert_eq!(e.file, "BENCH_RECOVERY.json");
        }
    }

    /// The shipped baselines must gate the shard scale-out bench: seven
    /// keys, all pointing at BENCH_SHARD.json, with the two conservation
    /// invariants (`*_ROUTED`, `*_LEDGER_VIOLATIONS`) pinned at zero —
    /// zero baselines gate absolutely, so any interconnect leak or
    /// ledger mismatch fails CI outright.
    #[test]
    fn shipped_baselines_cover_the_shard_bench() {
        let shipped = include_str!("../../baselines.json");
        let (_, entries) = parse_baselines(shipped);
        for key in [
            "BENCH_SHARD_SPEEDUP_8",
            "BENCH_SHARD_REMOTE_LOADS",
            "BENCH_SHARD_REMOTE_BYTES",
            "BENCH_SHARD_REMOTE_LOADS_ROUTED",
            "BENCH_SHARD_LEDGER_VIOLATIONS",
            "BENCH_SHARD_FAIRNESS_RATIO",
            "BENCH_SHARD_REPART_MOVED_TUPLES",
        ] {
            let e = entries
                .iter()
                .find(|e| e.key == key)
                .unwrap_or_else(|| panic!("baselines.json lost {key}"));
            assert_eq!(e.file, "BENCH_SHARD.json");
        }
        for invariant in ["BENCH_SHARD_REMOTE_LOADS_ROUTED", "BENCH_SHARD_LEDGER_VIOLATIONS"] {
            let e = entries.iter().find(|e| e.key == invariant).unwrap();
            assert_eq!(e.value, 0.0, "{invariant} must stay a zero invariant");
        }
        let speedup = entries.iter().find(|e| e.key == "BENCH_SHARD_SPEEDUP_8").unwrap();
        assert_eq!(speedup.better, Direction::Higher, "scaling must not silently invert");
    }

    /// The shipped baselines must gate the tracing bench: five keys, all
    /// pointing at BENCH_TRACE.json, with the three invariants
    /// (conservation, determinism, disabled overhead) pinned at zero —
    /// any hook that stops conserving, any nondeterministic event order,
    /// or any counter perturbation from tracing fails CI outright.
    #[test]
    fn shipped_baselines_cover_the_trace_bench() {
        let shipped = include_str!("../../baselines.json");
        let (_, entries) = parse_baselines(shipped);
        for key in [
            "BENCH_TRACE_STALL_SHARE_FAR",
            "BENCH_TRACE_EVENTS_PER_LOOKUP",
            "BENCH_TRACE_CONSERVATION_VIOLATIONS",
            "BENCH_TRACE_DETERMINISM_VIOLATIONS",
            "BENCH_TRACE_DISABLED_OVERHEAD",
        ] {
            let e = entries
                .iter()
                .find(|e| e.key == key)
                .unwrap_or_else(|| panic!("baselines.json lost {key}"));
            assert_eq!(e.file, "BENCH_TRACE.json");
        }
        for invariant in [
            "BENCH_TRACE_CONSERVATION_VIOLATIONS",
            "BENCH_TRACE_DETERMINISM_VIOLATIONS",
            "BENCH_TRACE_DISABLED_OVERHEAD",
        ] {
            let e = entries.iter().find(|e| e.key == invariant).unwrap();
            assert_eq!(e.value, 0.0, "{invariant} must stay a zero invariant");
        }
    }

    #[test]
    fn bless_roundtrips_through_the_parser() {
        let (tol, entries) = parse_baselines(SAMPLE);
        let body = render_baselines(tol, &entries);
        let (tol2, entries2) = parse_baselines(&body);
        assert_eq!(tol, tol2);
        assert_eq!(entries.len(), entries2.len());
        for (a, b) in entries.iter().zip(&entries2) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.better, b.better);
            assert!((a.value - b.value).abs() < 1e-9);
        }
    }
}
