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
//! Run: `cargo run --release --bin trajectory -- [--scale N] [--bless]`
//!
//! * `--scale N`  log2 probe cardinality passed to every bench
//!   (default 15 — the scale the shipped baselines were blessed at);
//! * `--bless`    after a green run, rewrite `baselines.json` from the
//!   freshly produced blobs instead of gating against them.

use std::path::PathBuf;
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
        "usage: trajectory [--scale N] [--bless]\n\
         \x20  --scale N  log2 |S| passed to every bench (default 15)\n\
         \x20  --bless    rewrite baselines.json from this run instead of gating"
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

fn main() {
    let mut scale = 15u32;
    let mut bless = false;
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
    println!("trajectory complete: {} benches + regression gate", BENCHES.len());
}
