//! **Unified CI trajectory driver**: run every JSON-emitting experiment
//! binary at the pinned quick scale, then gate the deterministic
//! counters with `bin/regress` — one entry point instead of N
//! copy-pasted workflow steps.
//!
//! The driver is what CI executes (`.github/workflows/ci.yml`,
//! `bench-trajectory` job): each binary writes its `BENCH_*.json`
//! trajectory blob to the current directory, the job uploads them as an
//! artifact, and `regress` compares the deterministic keys against
//! `crates/bench/baselines.json`. Adding a bench to the trajectory is
//! now a one-line change here (plus baselines), not a workflow edit.
//!
//! Binary discovery: each bench is expected to sit next to this driver
//! (`target/release/`); if it does not (e.g. `cargo run --bin
//! trajectory` without a full `cargo build --release`), the driver falls
//! back to `cargo run --release --bin <name>` so local runs still work.
//!
//! Run: `cargo run --release --bin trajectory -- [--scale N] [--bless] [--record F]`
//!
//! * `--scale N`  log2 probe cardinality passed to every bench
//!   (default 15 — the scale the shipped baselines were blessed at);
//! * `--bless`    after a green run, rewrite `baselines.json` from the
//!   freshly produced blobs instead of gating against them;
//! * `--record F` after the gate, append one JSON line to `F` (the
//!   committed history is `BENCH_HISTORY.jsonl`): UTC date, the
//!   `git rev-parse HEAD` commit (`-dirty` when tracked files differ from
//!   it, `"unknown"` outside a checkout), `nproc`, the THP mode, the
//!   scale and every gated key's current value.

use amac_bench::gate::{lookup, parse_baselines};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every JSON-emitting bench in the trajectory, with the blob path the
/// regression gate and the CI artifact upload expect.
const BENCHES: [(&str, &str); 10] = [
    ("scaling", "BENCH_SCALING.json"),
    ("pipeline", "BENCH_PIPELINE.json"),
    ("layout", "BENCH_LAYOUT.json"),
    ("serve", "BENCH_SERVE.json"),
    ("tier", "BENCH_TIER.json"),
    ("chaos", "BENCH_CHAOS.json"),
    ("amu", "BENCH_AMU.json"),
    ("recovery", "BENCH_RECOVERY.json"),
    ("shard", "BENCH_SHARD.json"),
    ("trace", "BENCH_TRACE.json"),
];

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: trajectory [--scale N] [--bless] [--record F]\n\
         \x20  --scale N   log2 |S| passed to every bench (default 15)\n\
         \x20  --bless     rewrite baselines.json from this run instead of gating\n\
         \x20  --record F  append this run's gated values to F as one JSON line"
    );
    std::process::exit(2);
}

/// Resolve a sibling bench binary: same directory as this driver if it
/// exists there, else `cargo run --release --bin <name>`.
fn command_for(name: &str) -> Command {
    let sibling: Option<PathBuf> = std::env::current_exe().ok().and_then(|me| {
        let p = me.parent()?.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
        p.is_file().then_some(p)
    });
    match sibling {
        Some(p) => Command::new(p),
        None => {
            let mut c = Command::new("cargo");
            c.args(["run", "--release", "--bin", name, "--"]);
            c
        }
    }
}

fn run(mut cmd: Command, what: &str) {
    println!("==> {what}");
    let status = cmd.status().unwrap_or_else(|e| {
        eprintln!("error: cannot spawn {what}: {e}");
        std::process::exit(1);
    });
    if !status.success() {
        eprintln!("error: {what} failed ({status})");
        std::process::exit(status.code().unwrap_or(1));
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
/// every gated key's value, read back from the blobs in the current
/// directory.
fn record(path: &Path, scale: u32, thp: &str) {
    let baselines = std::fs::read_to_string("crates/bench/baselines.json")
        .unwrap_or_else(|e| panic!("cannot read crates/bench/baselines.json: {e}"));
    let gated: Vec<String> = parse_baselines(&baselines)
        .1
        .iter()
        .map(|e| {
            let v = lookup(Path::new("."), &e.file, &e.key).unwrap_or_else(|msg| panic!("{msg}"));
            format!("\"{}\": {v}", e.key)
        })
        .collect();
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

fn main() {
    let mut scale = 15u32;
    let mut bless = false;
    let mut history: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a log2 size"));
            }
            "--bless" => bless = true,
            "--record" => {
                history = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| usage("--record needs a file")),
                ));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }

    // Once, for whoever reads the wall-time keys of the blobs (never
    // gated): which page size the tables of this run could get.
    let host = amac_metrics::platform::Platform::detect();
    eprintln!("page backing: THP mode {}, base page {} B", host.thp_mode, host.page_bytes);

    let scale_s = scale.to_string();
    for (name, json) in BENCHES {
        let mut cmd = command_for(name);
        cmd.args(["--quick", "--scale", &scale_s, "--json", json]);
        run(cmd, &format!("{name} --quick --scale {scale_s} --json {json}"));
    }

    let mut gate = command_for("regress");
    if bless {
        gate.arg("--bless");
    }
    run(gate, if bless { "regress --bless" } else { "regress" });
    if let Some(path) = history {
        record(&path, scale, &host.thp_mode);
    }
    println!("trajectory complete: {} benches + regression gate", BENCHES.len());
}

#[cfg(test)]
mod tests {
    use super::utc_date;

    #[test]
    fn utc_date_follows_the_civil_calendar() {
        assert_eq!(utc_date(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_date(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_date(1_709_251_199), "2024-02-29T23:59:59Z");
        assert_eq!(utc_date(4_102_444_800), "2100-01-01T00:00:00Z");
    }
}
