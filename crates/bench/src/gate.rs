//! **Deterministic regression gate** and the CI trajectory
//! (`bench trajectory`).
//!
//! The 1-CPU CI host cannot gate on wall time, but the counters the gated
//! scenarios report (nodes per lookup, tag rejects, fused passes, serving
//! fairness, simulated stall shares, …) count work, not nanoseconds. The
//! trajectory runs every scenario with a blob at the pinned quick scale
//! in this one process, writes the ten `BENCH_*.json` blobs (CI uploads
//! them), and compares each key of `crates/bench/baselines.json` (one
//! `{"file", "key", "value", "better"}` entry per line), as rendered in
//! its blob, against its baseline. `"lower"` fails above `value × (1 +
//! tolerance)`, `"higher"` below `value × (1 − tolerance)`; a zero
//! baseline is an invariant gated absolutely. Intentional changes run
//! `bench trajectory --bless` and commit the rewritten file with a
//! justification. `--record F` appends one JSON line to `F` (the
//! committed history is `BENCH_HISTORY.jsonl`): UTC date, commit
//! (`-dirty` for an uncommitted tree), `nproc`, THP mode, scale and
//! every gated key's value.

use crate::{number, usage, Args, Outcome, SCENARIOS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One gated key: which trajectory blob holds it, its baseline value and
/// its direction of goodness.
#[derive(Debug, Clone)]
struct Entry {
    /// Trajectory blob the key lives in (`BENCH_*.json`).
    file: String,
    /// Top-level headline key.
    key: String,
    /// Baseline value.
    value: f64,
    /// Direction of goodness.
    better: Direction,
}

/// Which way a gated counter improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Lower is better.
    Lower,
    /// Higher is better.
    Higher,
}

impl Entry {
    /// Whether `current` passes against this baseline at `tolerance`,
    /// and the bound it was held to.
    fn check(&self, current: f64, tolerance: f64) -> (bool, f64) {
        if self.value == 0.0 {
            // Zero baselines are invariants: gate on absolute drift.
            return (current.abs() <= tolerance, tolerance);
        }
        match self.better {
            Direction::Lower => {
                let bound = self.value * (1.0 + tolerance);
                (current <= bound, bound)
            }
            Direction::Higher => {
                let bound = self.value * (1.0 - tolerance);
                (current >= bound, bound)
            }
        }
    }
}

/// Extract a `"name": "string"` field from a single JSON line.
fn field_str(line: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extract a `"name": <number>` field from a single JSON line.
fn field_num(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a baselines file into its tolerance (default 5%) and entries.
fn parse_baselines(text: &str) -> (f64, Vec<Entry>) {
    let mut tolerance = 0.05;
    let mut entries = Vec::new();
    for line in text.lines() {
        if let Some(t) = field_num(line, "tolerance") {
            if !line.contains("\"file\"") {
                tolerance = t;
                continue;
            }
        }
        let (Some(file), Some(key), Some(value)) =
            (field_str(line, "file"), field_str(line, "key"), field_num(line, "value"))
        else {
            continue;
        };
        let better = match field_str(line, "better").as_deref() {
            Some("higher") => Direction::Higher,
            _ => Direction::Lower,
        };
        entries.push(Entry { file, key, value, better });
    }
    (tolerance, entries)
}

/// Render entries in the baselines format (`--bless`).
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

/// The shipped baselines file. Resolved from this crate's manifest
/// directory, so the gate works from any working directory.
fn baselines_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines.json")
}

/// Read and parse the shipped baselines file.
fn load_baselines() -> Result<(f64, Vec<Entry>), String> {
    let path = baselines_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let parsed = parse_baselines(&text);
    if parsed.1.is_empty() {
        return Err(format!("no gate entries parsed from {}", path.display()));
    }
    Ok(parsed)
}

/// `bench trajectory [--scale N] [--bless] [--record F]`: run every gated
/// scenario at `--quick --scale N` (default 15, the scale the shipped
/// baselines were blessed at), write its blob, then gate — or, with
/// `--bless`, rewrite `baselines.json` from this run — and optionally
/// append the gated values to a history file.
pub fn trajectory(flags: impl IntoIterator<Item = String>) -> ! {
    let mut scale = 15u32;
    let mut bless = false;
    let mut history: Option<PathBuf> = None;
    let mut it = flags.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => scale = number(it.next(), "--scale needs a log2 size"),
            "--bless" => bless = true,
            "--record" => {
                history = Some(it.next().unwrap_or_else(|| usage("--record needs a file")).into());
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    let (tolerance, entries) = load_baselines().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    });

    // Once, for whoever reads the wall-time keys of the blobs (never
    // gated): which page size the tables of this run could get.
    let host = amac_metrics::platform::Platform::detect();
    eprintln!("page backing: THP mode {}, base page {} B", host.thp_mode, host.page_bytes);

    let mut blobs: Vec<(&str, Outcome)> = Vec::new();
    for s in SCENARIOS {
        let Some(blob) = s.blob else { continue };
        println!("==> bench {} --quick --scale {scale} --json {blob}", s.name);
        let flags = ["--quick", "--scale", &scale.to_string(), "--json", blob].map(String::from);
        let out = (s.run)(&Args::parse(flags));
        print!("{}", out.body);
        write_or_exit(Path::new(blob), &out.body);
        blobs.push((blob, out));
    }

    println!("==> regression gate: {} entries, tolerance {:.0}%", entries.len(), tolerance * 100.0);
    let (mut failures, mut missing) = (0usize, 0usize);
    let mut current = entries.clone();
    for (e, cur) in entries.iter().zip(&mut current) {
        let blob = blobs.iter().find(|(b, _)| *b == e.file).map(|(_, o)| &o.keys);
        let rendered = blob.and_then(|keys| keys.iter().find(|(k, _)| *k == e.key));
        let Some(v) = rendered.and_then(|(_, v)| v.parse().ok()) else {
            println!("  FAIL {:<48} {}: key not found", e.key, e.file);
            failures += 1;
            missing += 1;
            continue;
        };
        cur.value = v;
        let (ok, bound) = e.check(v, tolerance);
        let verdict = if ok { "ok  " } else { "FAIL" };
        println!(
            "  {verdict} {:<48} current {v:.4}  baseline {:.4}  bound {bound:.4}",
            e.key, e.value
        );
        failures += usize::from(!ok);
    }

    if bless {
        // Refuse to bless from incomplete evidence: a missing key would
        // leave that entry's stale baseline in place and silently mix
        // fresh and stale values.
        if missing > 0 {
            eprintln!("error: refusing to bless — {missing} gated key(s) were not produced");
            std::process::exit(2);
        }
        write_or_exit(&baselines_path(), &render_baselines(tolerance, &current));
        println!("blessed: {} rewritten from current values", baselines_path().display());
    } else if failures > 0 {
        eprintln!(
            "\n{failures} counter(s) regressed beyond {:.0}%. If intentional, run \
             `bench trajectory --bless`, then commit crates/bench/baselines.json with a \
             justification (see DESIGN.md).",
            tolerance * 100.0
        );
        std::process::exit(1);
    } else {
        println!("gate clean");
    }
    if let Some(path) = history {
        record(&path, scale, &host.thp_mode, &current);
    }
    println!("trajectory complete: {} scenarios + regression gate", blobs.len());
    std::process::exit(0)
}

fn write_or_exit(path: &Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// `secs` since the Unix epoch as an ISO-8601 UTC timestamp (the civil
/// calendar from a day count, Howard Hinnant's `civil_from_days`).
fn utc_date(secs: u64) -> String {
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    let z = days + 719_468;
    let (era, doe) = (z.div_euclid(146_097), z.rem_euclid(146_097));
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    let (h, m, s) = (rem / 3_600, rem / 60 % 60, rem % 60);
    format!("{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}Z")
}

/// The checked-out commit, suffixed `-dirty` when tracked files differ
/// from it (the run measured uncommitted code), or `"unknown"` outside a
/// git checkout.
fn head_commit() -> String {
    let Some(head) = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
    else {
        return "unknown".to_string();
    };
    let clean =
        Command::new("git").args(["diff", "--quiet", "HEAD"]).status().is_ok_and(|s| s.success());
    format!("{}{}", head.trim(), if clean { "" } else { "-dirty" })
}

/// Append one history line to `path`: this run's host, commit, scale and
/// every gated key's current value.
fn record(path: &Path, scale: u32, thp: &str, current: &[Entry]) {
    let gated: Vec<String> =
        current.iter().map(|e| format!("\"{}\": {}", e.key, e.value)).collect();
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let line = format!(
        "{{\"date\": \"{}\", \"commit\": \"{}\", \"source\": \"trajectory\", \"nproc\": {nproc}, \
         \"thp\": \"{thp}\", \"scale\": {scale}, \"gated\": {{{}}}}}\n",
        utc_date(secs),
        head_commit(),
        gated.join(", ")
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .unwrap_or_else(|e| panic!("cannot append to {}: {e}", path.display()));
    println!("recorded {} gated values in {}", gated.len(), path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let check = |e: &Entry, cur: f64| e.check(cur, tol).0;
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

    /// `cargo test` runs in `crates/bench`, not the repository root: the
    /// shipped file must load from there, and blessing it unchanged must
    /// reproduce it byte for byte.
    #[test]
    fn default_baselines_file_loads_from_the_crate_directory() {
        let (tol, entries) = load_baselines().expect("the shipped baselines load");
        let text = std::fs::read_to_string(baselines_path()).unwrap();
        assert_eq!(render_baselines(tol, &entries), text);
    }

    /// Every blob a gated scenario writes is gated by at least one entry,
    /// every entry names such a blob, and the zero invariants stay zero —
    /// zero baselines gate absolutely, so an interconnect leak, a ledger
    /// mismatch, a conservation break or traced-mode drift fails CI.
    #[test]
    fn shipped_baselines_cover_every_gated_scenario() {
        let (_, entries) = load_baselines().expect("the shipped baselines load");
        assert_eq!(entries.len(), 48, "a lost entry silently un-gates its counter");
        let blobs: Vec<&str> = SCENARIOS.iter().filter_map(|s| s.blob).collect();
        assert_eq!(blobs.len(), 10, "ten gated trajectory blobs");
        let speedup = entries.iter().find(|e| e.key == "BENCH_SHARD_SPEEDUP_8").unwrap();
        assert_eq!(speedup.better, Direction::Higher, "scaling must not silently invert");
        for e in &entries {
            assert!(blobs.contains(&e.file.as_str()), "{}: no scenario writes {}", e.key, e.file);
        }
        for blob in &blobs {
            assert!(
                entries.iter().any(|e| e.file == *blob),
                "baselines.json gates nothing in {blob}"
            );
        }
        let invariants = ["_ROUTED", "_VIOLATIONS", "_DISABLED_OVERHEAD", "_INTERMEDIATE_BYTES"];
        let zeros: Vec<&Entry> =
            entries.iter().filter(|e| invariants.iter().any(|s| e.key.ends_with(s))).collect();
        assert_eq!(zeros.len(), 6, "ROUTED, 3 x VIOLATIONS, DISABLED_OVERHEAD, INTERMEDIATE_BYTES");
        for e in zeros {
            assert_eq!(e.value, 0.0, "{} must stay a zero invariant", e.key);
        }
    }

    /// Every key in `keys` is gated and reads `blob`; every key in
    /// `invariants` is additionally pinned at zero.
    fn assert_gated(blob: &str, keys: &[&str], invariants: &[&str]) -> Vec<Entry> {
        let (_, entries) = load_baselines().expect("the shipped baselines load");
        for key in keys {
            let e = entries
                .iter()
                .find(|e| e.key == *key)
                .unwrap_or_else(|| panic!("baselines.json lost {key}"));
            assert_eq!(e.file, blob);
        }
        for invariant in invariants {
            let e = entries.iter().find(|e| e.key == *invariant).unwrap();
            assert_eq!(e.value, 0.0, "{invariant} must stay a zero invariant");
        }
        entries
    }

    /// The recovery bench's five keys all read BENCH_RECOVERY.json.
    #[test]
    fn shipped_baselines_cover_the_recovery_bench() {
        assert_gated(
            "BENCH_RECOVERY.json",
            &[
                "BENCH_RECOVERY_SCENARIOS",
                "BENCH_RECOVERY_REPLAYED_RECORDS",
                "BENCH_RECOVERY_RECOVERED_QUERIES",
                "BENCH_RECOVERY_LOG_BYTES",
                "BENCH_RECOVERY_LOG_STALLS",
            ],
            &[],
        );
    }

    /// The shard scale-out bench's seven keys read BENCH_SHARD.json, with
    /// the two conservation invariants (`*_ROUTED`, `*_LEDGER_VIOLATIONS`)
    /// pinned at zero and the speedup still higher-is-better.
    #[test]
    fn shipped_baselines_cover_the_shard_bench() {
        let entries = assert_gated(
            "BENCH_SHARD.json",
            &[
                "BENCH_SHARD_SPEEDUP_8",
                "BENCH_SHARD_REMOTE_LOADS",
                "BENCH_SHARD_REMOTE_BYTES",
                "BENCH_SHARD_REMOTE_LOADS_ROUTED",
                "BENCH_SHARD_LEDGER_VIOLATIONS",
                "BENCH_SHARD_FAIRNESS_RATIO",
                "BENCH_SHARD_REPART_MOVED_TUPLES",
            ],
            &["BENCH_SHARD_REMOTE_LOADS_ROUTED", "BENCH_SHARD_LEDGER_VIOLATIONS"],
        );
        let speedup = entries.iter().find(|e| e.key == "BENCH_SHARD_SPEEDUP_8").unwrap();
        assert_eq!(speedup.better, Direction::Higher, "scaling must not silently invert");
    }

    /// The tracing bench's five keys read BENCH_TRACE.json, with the
    /// conservation, determinism and disabled-overhead invariants at zero.
    #[test]
    fn shipped_baselines_cover_the_trace_bench() {
        assert_gated(
            "BENCH_TRACE.json",
            &[
                "BENCH_TRACE_STALL_SHARE_FAR",
                "BENCH_TRACE_EVENTS_PER_LOOKUP",
                "BENCH_TRACE_CONSERVATION_VIOLATIONS",
                "BENCH_TRACE_DETERMINISM_VIOLATIONS",
                "BENCH_TRACE_DISABLED_OVERHEAD",
            ],
            &[
                "BENCH_TRACE_CONSERVATION_VIOLATIONS",
                "BENCH_TRACE_DETERMINISM_VIOLATIONS",
                "BENCH_TRACE_DISABLED_OVERHEAD",
            ],
        );
    }

    #[test]
    fn utc_date_follows_the_civil_calendar() {
        assert_eq!(utc_date(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_date(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_date(1_709_251_199), "2024-02-29T23:59:59Z");
        assert_eq!(utc_date(4_102_444_800), "2100-01-01T00:00:00Z");
    }
}
