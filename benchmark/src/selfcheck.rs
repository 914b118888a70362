//! `--self-check` and `--derive-bounds`: run the benchmark against itself.
//!
//! Two sets of runs of the same build, every run with another seed, the
//! way the merge pipeline measures. Per end-to-end metric and workload it
//! prints both medians, their gap, each set's quartile spread and the
//! bound, and `--self-check` fails on the pipeline's rule: a second median
//! worse than the first by more than the bound, or (except for `setup_s`)
//! a spread wider than the bound.

use std::process::Command;

use crate::json::{self, Value};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{iqr_share, median, within_bound, worsening};

/// One metric on one workload: its values in the first and second set.
struct Cell<'a> {
    workload: &'a str,
    metric: &'a MetricSpec,
    sets: [Vec<f64>; 2],
}

impl Cell<'_> {
    fn gap(&self) -> f64 {
        worsening(median(&self.sets[0]), median(&self.sets[1]), self.metric.better)
    }

    fn spread(&self) -> f64 {
        self.sets.iter().map(|s| iqr_share(s)).fold(0.0, f64::max)
    }

    fn bound(&self) -> f64 {
        self.metric.bound.expect("end-to-end metrics have a bound")
    }

    fn passes(&self) -> bool {
        let steady = self.metric.name == "setup_s" || self.spread() <= self.bound();
        let [first, second] = &self.sets;
        steady && within_bound(median(first), median(second), self.metric.better, self.bound())
    }
}

/// One untraced child run; returns its end-to-end values in `spec` order.
fn child_run(spec: &Spec, workload: &str, seed: u64, quick: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"]).args([
        "--seed",
        &seed.to_string(),
        "--seconds",
        &spec.run_seconds.to_string(),
    ]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fail = |why: &str| {
        format!("{workload} seed {seed}: {why}\n{}", String::from_utf8_lossy(&out.stderr))
    };
    if !out.status.success() {
        return Err(fail("the run failed"));
    }
    let line = stdout.lines().last().ok_or_else(|| fail("no result line"))?;
    let doc = json::parse(line).map_err(|e| fail(&e))?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(fail("outputs were not correct"));
    }
    spec.end_to_end
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| fail(&format!("no value for {}", m.name)))
        })
        .collect()
}

pub fn run(derive: bool, runs: usize, quick: bool) -> Result<(), String> {
    let spec = Spec::load();
    let mut cells: Vec<Cell> = Vec::new();
    for workload in &spec.workloads {
        let first = cells.len();
        cells.extend(spec.end_to_end.iter().map(|metric| Cell {
            workload,
            metric,
            sets: [Vec::new(), Vec::new()],
        }));
        for set in 0..2 {
            for run in 0..runs {
                let seed = (1 + set * runs + run) as u64;
                eprintln!("{workload}: set {} run {}/{runs} (seed {seed})", set + 1, run + 1);
                let values = child_run(&spec, workload, seed, quick)?;
                for (cell, v) in cells[first..].iter_mut().zip(values) {
                    cell.sets[set].push(v);
                }
            }
        }
    }

    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "gap", "spread", "bound"
    );
    for c in &cells {
        println!(
            "{:<14} {:<26} {:>12.4} {:>12.4} {:>+7.2}% {:>7.2}% {:>5.0}%  {}",
            c.workload,
            c.metric.name,
            median(&c.sets[0]),
            median(&c.sets[1]),
            c.gap() * 100.0,
            c.spread() * 100.0,
            c.bound() * 100.0,
            if c.passes() { "ok" } else { "FAIL" },
        );
    }
    if derive {
        // A bound is the recorded value or twice the worst gap seen,
        // whichever is larger; the spread must stay under a third of it.
        println!(
            "\n{:<26} {:>10} {:>12} {:>8} {:>10}",
            "metric", "worst gap", "worst spread", "bound", "suggested"
        );
        for m in &spec.end_to_end {
            let mine = || cells.iter().filter(|c| c.metric.name == m.name);
            let gap = mine().map(|c| c.gap().abs()).fold(0.0, f64::max);
            let spread = mine().map(Cell::spread).fold(0.0, f64::max);
            let bound = m.bound.expect("end-to-end metrics have a bound");
            println!(
                "{:<26} {:>9.2}% {:>11.2}% {:>7.0}% {:>9.1}%",
                m.name,
                gap * 100.0,
                spread * 100.0,
                bound * 100.0,
                bound.max(2.0 * gap).max(3.0 * spread) * 100.0,
            );
        }
        return Ok(());
    }
    match cells.iter().filter(|c| !c.passes()).count() {
        0 => Ok(()),
        n => Err(format!("{n} metric × workload pairs outside their bound")),
    }
}
