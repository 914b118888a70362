//! The repository benchmark: five wall-clock workloads over the
//! `amac_suite` facade. See `README.md` next to this crate for why each
//! workload and metric exists; `BENCHMARK.json` at the repository root is
//! the contract this binary prints to.
//!
//! One run = one process = one workload:
//!
//! ```text
//! amac_benchmark --workload probe_dram --seed 7 --seconds 10 --trace 0
//! ```
//!
//! prints human-readable lines to stderr and, as the last line of stdout,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod json;
mod run;
mod selfcheck;
mod span;
mod spec;
mod stats;
mod sys;
mod workloads;

use std::process::ExitCode;

/// Large blocks are reused, not re-mapped (see `alloc`).
#[global_allocator]
static ALLOCATOR: alloc::Reusing = alloc::Reusing::new();

use run::Opts;
use workloads::Size;

const USAGE: &str = "\
usage: amac_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
       amac_benchmark --self-check | --derive-bounds [--runs <n>] [--quick]

  --workload  probe_dram | probe_cached | write_mix | index_walk | serve_closed
  --seed      every input is generated from it
  --seconds   how long the measured phase runs (repetition minimums still apply)
  --trace     0: end-to-end metrics; 1: per-layer metrics and out/<workload>.trace.json
  --quick     smoke mode on tiny inputs; never use its numbers
  --self-check     run two sets of --runs runs per workload and apply the bounds
  --derive-bounds  the same runs, printed as the table behind the bounds";

enum Command {
    Run(Opts),
    SelfCheck { derive: bool, runs: usize, quick: bool },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut quick, mut self_check, mut derive, mut runs) = (false, false, false, 10usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--runs" => {
                runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--quick" => quick = true,
            "--self-check" => self_check = true,
            "--derive-bounds" => derive = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if self_check || derive {
        return Ok(Command::SelfCheck { derive, runs, quick });
    }
    Ok(Command::Run(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: if quick { Size::Quick } else { Size::Full },
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Run(opts)) => run::run(&opts),
        Ok(Command::SelfCheck { derive, runs, quick }) => selfcheck::run(derive, runs, quick),
        Err(msg) => Err(format!("{msg}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
