//! # amac_runtime — morsel-driven work-stealing parallelism for AMAC ops
//!
//! The paper's multi-thread experiments (§5.1) give each thread one
//! contiguous chunk of the input. That reproduces the figures, but a
//! skewed or latch-heavy chunk leaves every other core idle at the tail.
//! This crate replaces static chunking with **morsel-driven dispatch**
//! (HyPer-style): the input is cut into small morsels behind per-thread
//! atomic cursors, threads drain their own range first and then steal
//! from the fullest victim, and each worker keeps one persistent
//! [`LookupOp`] whose AMAC window survives morsel boundaries
//! ([`AmacSession`]) — so miss-level parallelism never drains between
//! morsels.
//!
//! ```
//! use amac_runtime::{execute, MorselConfig};
//! # use amac::engine::{LookupOp, Step, Technique, TuningParams};
//! # struct NopOp;
//! # #[derive(Default)] struct NopState(u64);
//! # impl LookupOp for NopOp {
//! #     type Input = u64;
//! #     type State = NopState;
//! #     type Tally = ();
//! #     type Output = core::convert::Infallible;
//! #     fn start<const PLAIN: bool>(&mut self, _: &mut (), i: u64, s: &mut NopState) { s.0 = i; }
//! #     fn step<const PLAIN: bool>(&mut self, _: &mut (), _s: &mut NopState) -> Step { Step::Done }
//! # }
//! let inputs: Vec<u64> = (0..100_000).collect();
//! let cfg = MorselConfig::with_threads(4);
//! let run = execute(
//!     &inputs,
//!     Technique::Amac,
//!     TuningParams::default(),
//!     1, // GP/SPP stage budget N; AMAC needs none
//!     &cfg,
//!     |_tid| NopOp, // one op (and one AMAC window) per worker thread
//! );
//! assert_eq!(run.report.stats.lookups, 100_000);
//! assert_eq!(run.ops.len(), 4);
//! ```
//!
//! Observability: [`RunReport`] carries merged [`EngineStats`], one
//! [`ThreadReport`] per worker (busy time, finish time, morsels, steals)
//! and a merged per-morsel latency histogram
//! ([`amac_metrics::LatencyHistogram`]), so tail stragglers and steal
//! traffic are visible to benches and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dispatch;
#[cfg(test)]
pub(crate) mod testop;

pub use dispatch::{Dispatcher, Scheduling};

use amac::engine::{run, AmacSession, EngineStats, Hooks, LookupOp, Technique, TuningParams};
use amac_metrics::LatencyHistogram;
use amac_trace::{TraceEvent, Tracer};
use std::time::Instant;

/// Default morsel size in tuples (the 16–64K band keeps a morsel a few
/// L2s big: small enough to balance, large enough to amortize dispatch).
pub const DEFAULT_MORSEL_TUPLES: usize = 32 * 1024;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct MorselConfig {
    /// Worker threads; `0` = all available cores.
    pub threads: usize,
    /// Tuples per morsel (clamped to at least 1).
    pub morsel_tuples: usize,
    /// Dispatch discipline.
    pub scheduling: Scheduling,
}

impl Default for MorselConfig {
    fn default() -> Self {
        MorselConfig {
            threads: 0,
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
            scheduling: Scheduling::WorkSteal,
        }
    }
}

impl MorselConfig {
    /// Work-stealing defaults with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        MorselConfig { threads, ..Default::default() }
    }

    /// The paper's static one-chunk-per-thread dispatch (the comparison
    /// baseline for every morsel-vs-static experiment).
    pub fn static_chunks(threads: usize) -> Self {
        MorselConfig { threads, scheduling: Scheduling::StaticChunk, ..Default::default() }
    }

    /// `threads`, resolving `0` to the host's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
        }
    }
}

/// Per-worker observations for one run.
#[derive(Debug, Clone, Default)]
pub struct ThreadReport {
    /// Worker index.
    pub tid: usize,
    /// Time spent executing morsels (excludes idling on the dispatcher).
    pub busy_seconds: f64,
    /// When this worker retired its last lookup, relative to the start of
    /// the parallel section — the straggler metric.
    pub finished_at: f64,
    /// Morsels executed.
    pub morsels: u64,
    /// Tuples executed.
    pub tuples: u64,
    /// Morsels taken from another thread's range.
    pub steals: u64,
    /// This worker's executor counters.
    pub stats: EngineStats,
}

/// Merged result of one parallel run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Executor counters merged over all workers.
    pub stats: EngineStats,
    /// Per-worker observations, indexed by `tid`.
    pub per_thread: Vec<ThreadReport>,
    /// Wall time of the parallel section.
    pub seconds: f64,
    /// Total tuples processed.
    pub tuples: u64,
    /// The in-flight window used (the caller's `TuningParams::in_flight`).
    pub in_flight: usize,
    /// Per-morsel service times (nanoseconds), merged over all workers.
    pub morsel_ns: LatencyHistogram,
    /// Merged structured trace: each worker's tracer is taken from its op
    /// at harvest and folded in `tid` order, so two runs with the same
    /// per-thread schedules render identically. Disabled (and empty)
    /// unless `make_op` installed an enabled [`amac_trace::Tracer`] on
    /// the per-worker ops.
    pub trace: Tracer,
}

impl RunReport {
    /// Tuples per second over the parallel section.
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.tuples as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Total stolen morsels.
    pub fn steals(&self) -> u64 {
        self.per_thread.iter().map(|t| t.steals).sum()
    }

    /// Total morsels.
    pub fn morsels(&self) -> u64 {
        self.per_thread.iter().map(|t| t.morsels).sum()
    }

    /// Latest per-thread finish time.
    pub fn max_finished_at(&self) -> f64 {
        self.per_thread.iter().map(|t| t.finished_at).fold(0.0, f64::max)
    }

    /// Median per-thread finish time.
    pub fn median_finished_at(&self) -> f64 {
        if self.per_thread.is_empty() {
            return 0.0;
        }
        let mut v: Vec<f64> = self.per_thread.iter().map(|t| t.finished_at).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN finish time"));
        v[v.len() / 2]
    }

    /// Straggler factor: latest finish over median finish (1.0 = flat).
    pub fn imbalance(&self) -> f64 {
        let med = self.median_finished_at();
        if med > 0.0 {
            self.max_finished_at() / med
        } else {
            1.0
        }
    }

    /// Fold a later phase's report into this one (multi-phase drivers such
    /// as level-synchronous BFS run one `execute` per phase). Counters and
    /// times add up; per-thread entries merge by `tid`. A thread's
    /// `finished_at` becomes the **sum of its per-phase finish offsets** —
    /// its cumulative time-to-idle — so [`imbalance`](RunReport::imbalance)
    /// on an absorbed report measures the straggler factor accumulated
    /// across phases, not within any single one.
    pub fn absorb(&mut self, other: &RunReport) {
        self.stats.merge(&other.stats);
        self.seconds += other.seconds;
        self.tuples += other.tuples;
        self.in_flight = self.in_flight.max(other.in_flight);
        self.morsel_ns.merge(&other.morsel_ns);
        if self.per_thread.len() < other.per_thread.len() {
            self.per_thread.resize_with(other.per_thread.len(), ThreadReport::default);
        }
        for (mine, theirs) in self.per_thread.iter_mut().zip(&other.per_thread) {
            mine.tid = theirs.tid;
            mine.busy_seconds += theirs.busy_seconds;
            mine.finished_at += theirs.finished_at;
            mine.morsels += theirs.morsels;
            mine.tuples += theirs.tuples;
            mine.steals += theirs.steals;
            mine.stats.merge(&theirs.stats);
        }
        self.trace.merge(other.trace.clone());
    }
}

/// A finished run: the per-thread ops (holding their materialized
/// outputs/accumulators, indexed by `tid`) plus the merged report.
pub struct RunOutput<O> {
    /// One op per worker, in `tid` order; callers fold their outputs.
    pub ops: Vec<O>,
    /// Merged counters and per-thread observations.
    pub report: RunReport,
}

/// Run `make_op(tid)` per worker over `inputs` with morsel dispatch.
/// `n_stages` is the GP/SPP stage budget `N` of every morsel's run (see
/// [`amac::engine::run`]).
pub fn execute<I, O, F>(
    inputs: &[I],
    technique: Technique,
    params: TuningParams,
    n_stages: usize,
    cfg: &MorselConfig,
    make_op: F,
) -> RunOutput<O>
where
    I: Copy + Sync,
    O: LookupOp<Input = I> + Send,
    F: Fn(usize) -> O + Sync,
{
    let threads = cfg.resolved_threads().max(1);
    let dispatcher = Dispatcher::new(inputs.len(), threads, cfg.morsel_tuples, cfg.scheduling);
    let section = Instant::now();

    let mut results: Vec<(O, ThreadReport, LatencyHistogram)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let dispatcher = &dispatcher;
                let make_op = &make_op;
                scope.spawn(move || {
                    let mut op = make_op(tid);
                    let mut session =
                        (technique == Technique::Amac).then(|| AmacSession::new(params.in_flight));
                    let mut rep = ThreadReport { tid, ..Default::default() };
                    let mut hist = LatencyHistogram::new();
                    while let Some((range, stolen)) = dispatcher.next_morsel(tid) {
                        let morsel = &inputs[range];
                        let t0 = Instant::now();
                        match session.as_mut() {
                            Some(s) => s.feed(&mut op, morsel, &mut rep.stats),
                            None => {
                                rep.stats.merge(&run(technique, &mut op, morsel, params, n_stages))
                            }
                        }
                        let dt = t0.elapsed();
                        hist.record(dt.as_nanos() as u64);
                        rep.busy_seconds += dt.as_secs_f64();
                        rep.morsels += 1;
                        rep.tuples += morsel.len() as u64;
                        rep.steals += stolen as u64;
                        let mut cx = op.ctx();
                        if cx.tracing() {
                            cx.trace(TraceEvent::morsel(cx.now(), tid as u16, morsel.len() as u64));
                        }
                    }
                    if let Some(s) = session.as_mut() {
                        let t0 = Instant::now();
                        s.drain(&mut op, &mut rep.stats);
                        rep.busy_seconds += t0.elapsed().as_secs_f64();
                    }
                    rep.finished_at = section.elapsed().as_secs_f64();
                    (op, rep, hist)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("runtime worker panicked")).collect()
    });
    let seconds = section.elapsed().as_secs_f64();

    let mut report = RunReport {
        seconds,
        tuples: inputs.len() as u64,
        in_flight: params.in_flight,
        ..Default::default()
    };
    let mut ops = Vec::with_capacity(results.len());
    for (mut op, rep, hist) in results.drain(..) {
        report.stats.merge(&rep.stats);
        report.morsel_ns.merge(&hist);
        report.trace.merge(op.ctx().take_tracer());
        report.per_thread.push(rep);
        ops.push(op);
    }
    RunOutput { ops, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testop::ChainOp;
    use amac::engine::run_amac;

    fn chains(n: usize) -> Vec<usize> {
        (0..n).map(|i| 1 + (i * 31) % 9).collect()
    }

    fn fold_outputs(out: &RunOutput<ChainOp>) -> (u64, Vec<u64>) {
        let mut merged = vec![0u64; out.ops[0].outputs.len()];
        let mut checksum = 0u64;
        for op in &out.ops {
            checksum = checksum.wrapping_add(op.checksum);
            for (m, &v) in merged.iter_mut().zip(&op.outputs) {
                *m += v; // each slot written by exactly one worker
            }
        }
        (checksum, merged)
    }

    #[test]
    fn all_schedulings_match_the_single_thread_executor() {
        let ch = chains(40_000);
        let inputs: Vec<usize> = (0..ch.len()).collect();
        let mut reference = ChainOp::new(&ch);
        run_amac(&mut reference, &inputs, 10);

        for scheduling in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
            let cfg = MorselConfig { threads: 4, morsel_tuples: 1024, scheduling };
            let out = execute(&inputs, Technique::Amac, TuningParams::default(), 1, &cfg, |_| {
                ChainOp::new(&ch)
            });
            let (checksum, merged) = fold_outputs(&out);
            assert_eq!(checksum, reference.checksum, "{scheduling:?}");
            assert_eq!(merged, reference.outputs, "{scheduling:?}");
            assert_eq!(out.report.stats.lookups, ch.len() as u64, "{scheduling:?}");
            assert_eq!(out.report.morsels(), out.report.morsel_ns.count(), "{scheduling:?}");
        }
    }

    #[test]
    fn every_technique_completes_all_lookups() {
        let ch = chains(10_000);
        let inputs: Vec<usize> = (0..ch.len()).collect();
        for technique in Technique::ALL {
            let cfg = MorselConfig { threads: 3, morsel_tuples: 512, ..Default::default() };
            let out =
                execute(&inputs, technique, TuningParams::paper_best(technique), 4, &cfg, |_| {
                    ChainOp::new(&ch)
                });
            assert_eq!(out.report.stats.lookups, ch.len() as u64, "{technique}");
            assert_eq!(out.ops.len(), 3, "{technique}");
        }
    }

    #[test]
    fn positional_skew_triggers_steals() {
        // All the work sits in the first quarter of the input: static
        // chunking would leave three threads idle while thread 0 grinds.
        let n = 8_000;
        let ch: Vec<usize> = (0..n).map(|i| if i < n / 4 { 64 } else { 1 }).collect();
        let inputs: Vec<usize> = (0..n).collect();
        let cfg = MorselConfig { threads: 4, morsel_tuples: 256, ..Default::default() };
        let out = execute(&inputs, Technique::Amac, TuningParams::default(), 1, &cfg, |_| {
            ChainOp::new(&ch)
        });
        assert_eq!(out.report.stats.lookups, n as u64);
        assert!(out.report.steals() > 0, "skewed run must redistribute morsels");
    }

    #[test]
    fn static_chunks_never_steal() {
        let ch = chains(4_000);
        let inputs: Vec<usize> = (0..ch.len()).collect();
        let out = execute(
            &inputs,
            Technique::Amac,
            TuningParams::default(),
            1,
            &MorselConfig::static_chunks(4),
            |_| ChainOp::new(&ch),
        );
        assert_eq!(out.report.steals(), 0);
        assert_eq!(out.report.morsels(), 4, "one chunk per thread");
        assert_eq!(out.report.stats.lookups, ch.len() as u64);
    }

    #[test]
    fn empty_input_and_oversubscription() {
        let ch: Vec<usize> = vec![];
        let inputs: Vec<usize> = vec![];
        let out = execute(
            &inputs,
            Technique::Amac,
            TuningParams::default(),
            1,
            &MorselConfig::with_threads(8),
            |_| ChainOp::new(&ch),
        );
        assert_eq!(out.report.stats, EngineStats::default());
        assert_eq!(out.report.tuples, 0);

        let ch = chains(5);
        let inputs: Vec<usize> = (0..5).collect();
        let out = execute(
            &inputs,
            Technique::Amac,
            TuningParams::default(),
            1,
            &MorselConfig::with_threads(16),
            |_| ChainOp::new(&ch),
        );
        assert_eq!(out.report.stats.lookups, 5);
    }

    #[test]
    fn report_aggregates_are_consistent() {
        let ch = chains(20_000);
        let inputs: Vec<usize> = (0..ch.len()).collect();
        let cfg = MorselConfig { threads: 4, morsel_tuples: 1000, ..Default::default() };
        let out = execute(&inputs, Technique::Amac, TuningParams::default(), 1, &cfg, |_| {
            ChainOp::new(&ch)
        });
        let r = &out.report;
        assert_eq!(r.per_thread.len(), 4);
        assert_eq!(r.per_thread.iter().map(|t| t.tuples).sum::<u64>(), 20_000);
        assert_eq!(r.tuples, 20_000);
        assert!(r.throughput() > 0.0);
        assert!(r.imbalance() >= 1.0 - 1e-9);
        assert!(r.max_finished_at() <= r.seconds + 1e-3);
        for t in &r.per_thread {
            assert!(t.busy_seconds <= t.finished_at + 1e-9);
        }
    }
}
