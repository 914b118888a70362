//! One benchmark run: set up, measure, check, print.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use amac_suite::engine::Technique;
use amac_suite::metrics::perf::{Counter, Event};

use crate::spec::{MetricSpec, Spec};
use crate::stats::{fastest, floor_per_position, median, percentile};
use crate::sys::{self, Pin};
use crate::workloads::index_walk::IndexWalk;
use crate::workloads::probe::{ProbeCached, ProbeDram};
use crate::workloads::serve_closed::ServeClosed;
use crate::workloads::write_mix::WriteMix;
use crate::workloads::{Ctx, Layers, Pass, Size, Workload};

/// What the command line asked one run to do.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Back-to-back full set-ups per untraced run: at least `MIN_SETUPS`, and
/// more, up to `MAX_SETUPS`, while they have taken less than
/// `SETUP_FLOOR` together. `setup_s` is the fastest of them: one
/// sub-second set-up moves by 8–9% from run to run, and the median of
/// three by more than that when a noisy phase of the host covers them.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_FLOOR: Duration = Duration::from_secs(3);
/// Share of `--seconds` a traced run spends measuring its own overhead
/// (the per-layer measurements take what they take).
const OVERHEAD_SHARE: f64 = 0.4;

impl Size {
    /// Timed AMAC/baseline pairs a run never goes below.
    fn min_pairs(self) -> usize {
        match self {
            Size::Full => 11,
            Size::Quick => 2,
        }
    }
}

/// Run the workload `opts` names and print its result.
pub fn run(opts: &Opts) -> Result<(), String> {
    let spec = Spec::load();
    let pin = Pin::to_one_cpu();
    match pin {
        Some(pin) => eprintln!("pinned to CPU {}", pin.cpu),
        None => eprintln!("not pinned: sched_setaffinity is not permitted here"),
    }
    let mut ctx = Ctx::new(opts.trace, pin);
    let values = measure_named(opts, &mut ctx)?;
    if !spec.workloads.contains(&opts.workload) {
        return Err(format!("workload {:?} is not in BENCHMARK.json", opts.workload));
    }
    let listed = if opts.trace { &spec.per_layer } else { &spec.end_to_end };
    println!("{}", result_line(listed, &values, &ctx, opts.trace)?);
    Ok(())
}

fn measure_named(opts: &Opts, ctx: &mut Ctx) -> Result<Layers, String> {
    match opts.workload.as_str() {
        "probe_dram" => measure::<ProbeDram>(opts, ctx),
        "probe_cached" => measure::<ProbeCached>(opts, ctx),
        "write_mix" => measure::<WriteMix>(opts, ctx),
        "index_walk" => measure::<IndexWalk>(opts, ctx),
        "serve_closed" => measure::<ServeClosed>(opts, ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Set `W` up, measure it, and return the named values of this run.
fn measure<W: Workload>(opts: &Opts, ctx: &mut Ctx) -> Result<Layers, String> {
    // Set-up: several full set-ups, each after dropping the previous
    // instance; the last one is measured.
    let mut setup_s = Vec::new();
    let mut workload: Option<W> = None;
    let first = Instant::now();
    while setup_s.is_empty()
        || !opts.trace
            && (setup_s.len() < MIN_SETUPS
                || setup_s.len() < MAX_SETUPS && first.elapsed() < SETUP_FLOOR)
    {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(W::setup(opts.seed, opts.size, ctx));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");
    w.build_oracle();
    eprintln!("inputs: seed {} digest {:016x}", opts.seed, w.input_digest());

    let budget = Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        return traced::<W>(opts, ctx, w, Instant::now() + budget.mul_f64(OVERHEAD_SHARE));
    }
    let until = Instant::now() + budget;

    // A,B,A,B so that machine drift hits both techniques alike; the first
    // pair warms caches and the allocator and is discarded.
    let (mut amac, mut baseline) = (Vec::new(), Vec::new());
    while amac.len() <= opts.size.min_pairs() || Instant::now() < until {
        ctx.sp.set_rep(amac.len() as u32);
        amac.push(w.pass(Technique::Amac, ctx));
        baseline.push(w.pass(Technique::Baseline, ctx));
    }
    w.finish(ctx);
    let tuples = w.tuples_per_pass();
    drop(w);
    let latencies = request_latency_floor(&amac[1..]);
    eprintln!("set-ups: {setup_s:.3?} s");
    eprintln!("{} timed pairs, {} requests per pass", amac.len() - 1, latencies.len());
    eprintln!("batch_latency_p99_us = {}", percentile(&latencies, 99.0));
    let peak = sys::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(vec![
        ("setup_s", fastest(setup_s)),
        ("amac_cycles_per_tuple", cycles_per_tuple(&amac[1..], tuples)),
        ("baseline_cycles_per_tuple", cycles_per_tuple(&baseline[1..], tuples)),
        ("batch_latency_p50_us", median(&latencies)),
        ("peak_rss_mib", peak),
    ])
}

/// Cycles per tuple of a pass put together from the fastest execution of
/// each of its blocks (see `stats::floor_per_position` for why).
fn cycles_per_tuple(passes: &[Pass], tuples: u64) -> f64 {
    let floor = floor_per_position(passes.iter().map(|p| p.blocks.as_slice()));
    floor.iter().sum::<u64>() as f64 / tuples as f64
}

/// Per request of a pass, its fastest latency over the passes.
fn request_latency_floor(passes: &[Pass]) -> Vec<f64> {
    floor_per_position(passes.iter().map(|p| p.latencies_us.as_slice()))
}

/// The traced run: the harness's own tracing overhead, then the per-layer
/// prices, then the trace file.
fn traced<W: Workload>(
    opts: &Opts,
    ctx: &mut Ctx,
    mut w: W,
    until: Instant,
) -> Result<Layers, String> {
    // Alternate passes with span recording off and on: the difference is
    // what recording costs the numbers below. (The first pair warms up.)
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    while plain.len() <= 3 || Instant::now() < until {
        ctx.sp.set_rep(plain.len() as u32);
        ctx.sp.set_recording(false);
        plain.push(w.pass(Technique::Amac, ctx));
        ctx.sp.set_recording(true);
        recorded.push(w.pass(Technique::Amac, ctx));
    }
    let tuples = w.tuples_per_pass();
    let (off, on) =
        (cycles_per_tuple(&plain[1..], tuples), cycles_per_tuple(&recorded[1..], tuples));
    let mut values = w.layers(opts.size, ctx);
    values.push(("harness.trace_overhead_pct", (on - off) / off * 100.0));
    hardware_counters(&mut w, ctx);
    w.finish(ctx);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}.trace.json", opts.workload));
    let meta = [
        ("workload", opts.workload.clone()),
        ("seed", opts.seed.to_string()),
        ("cycles_per_us", ctx.cycles_per_us().to_string()),
    ];
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, ctx.sp.chrome_json(ctx.cycles_per_us(), &meta)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", ctx.sp.spans().len(), path.display());
    Ok(values)
}

/// Instructions and last-level-cache misses per tuple of one AMAC
/// pass (the paper's Tables 3 and 4), where `perf_event_open` is
/// permitted. Reported on stderr only: the result line carries numbers,
/// and a sandbox that forbids the counters has none to give.
fn hardware_counters<W: Workload>(w: &mut W, ctx: &mut Ctx) {
    let (Ok(instructions), Ok(misses)) =
        (Counter::open(Event::Instructions), Counter::open(Event::LlcMisses))
    else {
        eprintln!("metrics.perf.*: unavailable, perf_event_open is not permitted here");
        return;
    };
    let started = instructions.start().and(misses.start());
    w.pass(Technique::Amac, ctx);
    let tuples = w.tuples_per_pass() as f64;
    match (started, instructions.stop(), misses.stop()) {
        (Ok(()), Ok(i), Ok(m)) => {
            eprintln!("metrics.perf.instructions_per_tuple = {}", i as f64 / tuples);
            eprintln!("metrics.perf.llc_misses_per_tuple = {}", m as f64 / tuples);
        }
        _ => eprintln!("metrics.perf.*: unavailable, the counters could not be read"),
    }
}

/// The last line of stdout: every metric `listed` for this kind of run,
/// by name. A traced run reports 0 for the layers its workload never
/// calls. A value nobody listed is a bug in this harness.
fn result_line(
    listed: &[MetricSpec],
    values: &Layers,
    ctx: &Ctx,
    trace: bool,
) -> Result<String, String> {
    if let Some((name, _)) = values.iter().find(|(n, _)| !listed.iter().any(|m| m.name == *n)) {
        return Err(format!("metric {name:?} is not in BENCHMARK.json"));
    }
    let mut metrics = String::new();
    for (i, m) in listed.iter().enumerate() {
        let value = match values.iter().find(|(n, _)| *n == m.name) {
            Some((_, v)) if v.is_finite() => *v,
            Some((_, v)) => return Err(format!("metric {:?} is {v}", m.name)),
            None if trace => 0.0,
            None => return Err(format!("metric {:?} was not measured", m.name)),
        };
        eprintln!("{:<46} {value:>16.4} {}", m.name, m.unit);
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        ctx.tally.failed == 0,
        ctx.tally.attempted,
        ctx.tally.failed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn quick(workload: &str, trace: bool) -> (Layers, Ctx) {
        let opts =
            Opts { workload: workload.into(), seed: 7, seconds: 0.01, trace, size: Size::Quick };
        let mut ctx = Ctx::new(trace, None);
        let values = measure_named(&opts, &mut ctx).expect("quick run");
        assert!(ctx.tally.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(ctx.tally.failed, 0, "{workload}: outputs differ from the reference");
        (values, ctx)
    }

    fn names(values: &Layers) -> BTreeSet<String> {
        values.iter().map(|(n, _)| n.to_string()).collect()
    }

    fn listed(metrics: &[MetricSpec]) -> BTreeSet<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    }

    /// Every name a run emits is in `BENCHMARK.json`, and every name in
    /// `BENCHMARK.json` is emitted by some run.
    #[test]
    fn emitted_names_and_benchmark_json_agree() {
        let spec = Spec::load();
        let valid = |n: &str| {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            !n.is_empty() && n.len() <= 64 && n.chars().all(ok)
        };
        let mut per_layer = BTreeSet::new();
        for workload in &spec.workloads {
            assert!(valid(workload), "workload name {workload:?}");
            let (values, _) = quick(workload, false);
            assert_eq!(names(&values), listed(&spec.end_to_end), "{workload}: end-to-end names");
            let (values, ctx) = quick(workload, true);
            assert!(!ctx.sp.spans().is_empty(), "{workload}: a traced run records spans");
            per_layer.extend(names(&values));
        }
        assert_eq!(per_layer, listed(&spec.per_layer), "per-layer names");
        assert!(per_layer.iter().chain(&listed(&spec.end_to_end)).all(|n| valid(n)));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let unknown = Opts {
            workload: "nope".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            size: Size::Quick,
        };
        assert!(measure_named(&unknown, &mut Ctx::new(false, None)).is_err());
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let spec = Spec::load();
        let (values, ctx) = quick("probe_cached", false);
        let line = result_line(&spec.end_to_end, &values, &ctx, false).unwrap();
        let doc = json::parse(&line).unwrap();
        let Value::Obj(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        for m in &spec.end_to_end {
            let v = doc.get("metrics").and_then(|ms| ms.get(&m.name)).expect("metric present");
            assert!(v.get("value").and_then(Value::as_f64).is_some_and(|x| x > 0.0), "{}", m.name);
            assert_eq!(v.get("unit").and_then(Value::as_str), Some(m.unit.as_str()));
        }
        // A value nobody listed is refused, and so is a missing one.
        assert!(result_line(&spec.per_layer, &values, &ctx, true).is_err());
        assert!(result_line(&spec.end_to_end, &values[1..].to_vec(), &ctx, false).is_err());
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        fn digest<W: Workload>(seed: u64) -> u64 {
            W::setup(seed, Size::Quick, &mut Ctx::new(false, None)).input_digest()
        }
        fn check<W: Workload>() {
            assert_eq!(digest::<W>(3), digest::<W>(3));
            assert_ne!(digest::<W>(3), digest::<W>(4));
        }
        check::<ProbeDram>();
        check::<ProbeCached>();
        check::<WriteMix>();
        check::<IndexWalk>();
        check::<ServeClosed>();
    }
}
