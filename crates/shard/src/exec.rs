//! Sharded execution drivers: run the existing operators per shard and
//! charge cross-shard traffic at interconnect cost.
//!
//! The model is **data shipping over a message interconnect**: every
//! input tuple is processed by exactly one *core* (core `c` owns shard
//! `c`), and each sub-run either touches the core's own shard (local
//! tiers) or another core's shard — in which case every load crosses the
//! interconnect as a request/response message pair, priced by
//! [`amac_tier::Tier::Remote`] and counted in
//! [`EngineStats::remote_loads`]/[`remote_bytes`](EngineStats::remote_bytes).
//! Remote loads flow through the same AMU protocol as local ones, so the
//! coalescing unit dedups hot remote lines — deduped messages are never
//! charged.
//!
//! Every driver is one call of the same fan-out: it deals the input into
//! `(core, target-shard)` sub-runs, runs the operator's one-thread driver
//! on each, keeps one [`CoreLedger`] entry per core and, when
//! [`ShardConfig::trace`] is set, one merged trace. A driver only says how
//! to run its operator on a sub-relation and how to fold a sub-run's
//! output into its own.
//!
//! Determinism: each `(core, target-shard)` sub-run is an ordinary
//! single-threaded operator run with its own simulated clock, so every
//! counter is a pure function of the input and the placement — thread
//! count only changes which OS thread executes which core, never what
//! any core computes. Latched aggregation state is single-writer per
//! shard (group keys route like any other key), which is what keeps the
//! multi-threaded legs deterministic.

use amac::engine::{EngineStats, Technique, TuningParams};
use amac_hashtable::agg::AggValues;
use amac_hashtable::AggTable;
use amac_ops::groupby::{groupby, GroupByConfig};
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::mutate::{mutate, MutateConfig, MutateKind};
use amac_ops::pipeline::{probe_then_groupby, PipelineConfig};
use amac_tier::{CostModel, TierPolicy, TierSpec, WalRecord};
use amac_trace::{TraceEvent, Tracer};
use amac_workload::{Relation, Tuple};

use crate::table::{ShardedAgg, ShardedTable};
use crate::ShardRouter;

/// Where input tuples execute, relative to the data they touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Each tuple executes on the core owning its key's shard: every
    /// lookup is local, zero interconnect traffic. This is the placement
    /// the scaling curve measures.
    Routed,
    /// Tuples are dealt round-robin over cores regardless of key: an
    /// `(N−1)/N` fraction of lookups cross the interconnect. This is the
    /// placement that exercises the message counters (and shows what
    /// coalescing saves on hot remote lines).
    Interleaved,
}

/// Knobs shared by every sharded driver. Every sub-run prices its loads
/// with the default [`CostModel`]: local sub-runs pay
/// [`TierPolicy::AllNear`], cross-shard sub-runs [`TierPolicy::Remote`]
/// (`near_latency × remote_multiplier` per load).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Executor tuning (the paper's `M`), applied to every sub-run.
    pub params: TuningParams,
    /// AMU issue coalescing group size (`None` = scalar issue). Remote
    /// lines dedup exactly like local ones. Mutations never coalesce.
    pub coalesce: Option<usize>,
    /// OS threads executing cores (cores deal round-robin onto threads).
    /// Results and counters are identical for any value ≥ 1.
    pub threads: usize,
    /// Trace every sub-run ([`amac_trace`]): each core's tracer is
    /// re-stamped with the executing core's shard id and merged in core
    /// order (so the merged trace is thread-invariant), and every
    /// cross-shard sub-run appends an [`amac_trace::EventKind::Remote`]
    /// batch event carrying its interconnect message counters. Tracing
    /// never touches the sim clocks — counters and results are
    /// bit-identical either way.
    pub trace: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { params: TuningParams::default(), coalesce: None, threads: 1, trace: false }
    }
}

/// Per-core makespan accounting shared by every sharded output.
#[derive(Debug, Clone, Default)]
pub struct CoreLedger {
    /// Merged executor counters, all cores (the *global* ledger; always
    /// equal to the sum of [`per_core`](CoreLedger::per_core)).
    pub stats: EngineStats,
    /// One [`EngineStats`] ledger per core, index = core = shard.
    pub per_core: Vec<EngineStats>,
    /// Simulated busy ticks per core: `sim_cycles + sim_stalls` over the
    /// core's sub-runs.
    pub busy: Vec<u64>,
}

impl CoreLedger {
    fn from_cores(per_core: Vec<EngineStats>) -> Self {
        let mut stats = EngineStats::default();
        for s in &per_core {
            stats.merge(s);
        }
        let busy = per_core.iter().map(|s| s.sim_cycles + s.sim_stalls).collect();
        CoreLedger { stats, per_core, busy }
    }

    /// The scale-out metric: the slowest core's simulated busy ticks.
    /// Perfect sharding divides the single-core total by N; skew and
    /// remote traffic eat into that.
    pub fn makespan(&self) -> u64 {
        self.busy.iter().copied().max().unwrap_or(0)
    }

    /// Total simulated busy ticks across cores (the single-core
    /// equivalent work, for computing scaling efficiency).
    pub fn total_busy(&self) -> u64 {
        self.busy.iter().sum()
    }
}

/// Result of a sharded probe run.
#[derive(Debug, Clone, Default)]
pub struct ShardProbeOutput {
    /// Total key matches, summed over sub-runs.
    pub matches: u64,
    /// Order-independent checksum, summed (wrapping) over sub-runs.
    pub checksum: u64,
    /// First-match payload per probe tuple, scattered back to *input*
    /// order — bit-comparable against an unsharded probe's `out`.
    pub out: Vec<u64>,
    /// Makespan accounting.
    pub ledger: CoreLedger,
    /// Merged structured trace (disabled unless [`ShardConfig::trace`]):
    /// per-core tracers stamped with their shard id, merged in core
    /// order, with one `Remote` event per cross-shard sub-run.
    pub trace: Tracer,
}

/// Result of a sharded group-by run.
#[derive(Debug, Clone, Default)]
pub struct ShardAggOutput {
    /// Tuples aggregated, summed over sub-runs.
    pub tuples: u64,
    /// Makespan accounting.
    pub ledger: CoreLedger,
    /// Merged structured trace (see [`ShardProbeOutput::trace`]).
    pub trace: Tracer,
}

/// Result of a sharded fused-pipeline run.
#[derive(Debug, Clone, Default)]
pub struct ShardPipelineOutput {
    /// First-stage join matches, summed.
    pub matched: u64,
    /// Tuples reaching the aggregation, summed.
    pub aggregated: u64,
    /// Final groups merged across every sub-run's scratch table
    /// (component-wise [`AggValues`] combine), sorted by key —
    /// bit-comparable against an unsharded fused run's sorted groups.
    pub groups: Vec<(u64, AggValues)>,
    /// Makespan accounting.
    pub ledger: CoreLedger,
    /// Merged structured trace (see [`ShardProbeOutput::trace`]).
    pub trace: Tracer,
}

/// Result of a sharded mutation run.
#[derive(Debug, Clone, Default)]
pub struct ShardMutOutput {
    /// Mutations applied, summed.
    pub applied: u64,
    /// Fresh nodes created, summed.
    pub created: u64,
    /// Upserts merged into existing tuples, summed.
    pub merged: u64,
    /// Tuples tombstoned, summed.
    pub deleted: u64,
    /// Per-**shard** WAL: every record that mutated shard `s`, in apply
    /// order (deterministic — cross-shard sub-runs execute in core
    /// order). The elastic repartition path replays these tails.
    pub wals: Vec<Vec<WalRecord>>,
    /// Makespan accounting.
    pub ledger: CoreLedger,
    /// Merged structured trace (see [`ShardProbeOutput::trace`]).
    pub trace: Tracer,
}

/// Deal input tuple indices into the `(core, target)` sub-run plan.
/// `plan[core][target]` = input indices, input order preserved.
fn plan_runs(router: &ShardRouter, input: &[Tuple], placement: Placement) -> Vec<Vec<Vec<usize>>> {
    let n = router.n_shards();
    let mut plan = vec![vec![Vec::new(); n]; n];
    for (i, t) in input.iter().enumerate() {
        let target = router.shard_of_key(t.key);
        let core = match placement {
            Placement::Routed => target,
            Placement::Interleaved => i % n,
        };
        plan[core][target].push(i);
    }
    plan
}

/// Run `job(core)` for every core on `threads` OS threads (cores dealt
/// round-robin), returning results in core order. With `threads <= 1`
/// runs inline.
fn run_cores<T, F>(n_cores: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n_cores.max(1));
    if threads <= 1 {
        return (0..n_cores).map(job).collect();
    }
    let mut out: Vec<Option<T>> = (0..n_cores).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let job = &job;
                s.spawn(move || {
                    (t..n_cores).step_by(threads).map(|c| (c, job(c))).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (c, v) in h.join().expect("core job panicked") {
                out[c] = Some(v);
            }
        }
    });
    out.into_iter().map(|o| o.expect("every core ran")).collect()
}

/// The fan-out every sharded driver is: deal `input` into the
/// `(core, target)` plan, run each core's sub-runs on `threads` OS
/// threads, then fold every sub-run's output in core order, then target
/// order. `run(target, tier, sub)` runs the operator on shard `target`'s
/// table under the sub-run's tier spec and returns its counters, trace
/// and output; `fold(target, idxs, output)` gets the sub-run's input
/// indices with it. Returns the per-core ledger and the merged trace.
fn fan_out<R: Send>(
    router: &ShardRouter,
    input: &[Tuple],
    placement: Placement,
    threads: usize,
    run: impl Fn(usize, TierSpec, &Relation) -> (EngineStats, Tracer, R) + Sync,
    mut fold: impl FnMut(usize, &[usize], R),
) -> (CoreLedger, Tracer) {
    let plan = plan_runs(router, input, placement);
    let cores = run_cores(router.n_shards(), threads, |core| {
        let mut stats = EngineStats::default();
        let mut trace = Tracer::off();
        let mut outs = Vec::new();
        for (target, idxs) in plan[core].iter().enumerate().filter(|(_, idxs)| !idxs.is_empty()) {
            let policy = if core == target { TierPolicy::AllNear } else { TierPolicy::Remote };
            let tier = TierSpec { model: CostModel::default(), policy };
            let sub = Relation::from_tuples(idxs.iter().map(|&i| input[i]).collect());
            let (s, mut t, out) = run(target, tier, &sub);
            if core != target {
                // One batch event per cross-shard sub-run, stamped at the
                // sub-run's own clock end (sub-runs start at 0).
                let end = s.sim_cycles + s.sim_stalls;
                let (from, to) = (core as u16, target as u16);
                t.record(TraceEvent::remote(end, from, to, s.remote_loads, s.remote_bytes));
            }
            stats.merge(&s);
            trace.merge(t);
            outs.push((target, out));
        }
        // Attribute everything this core executed — local or over the
        // interconnect — to the core's shard id.
        trace.retag_shard(core as u16);
        (stats, trace, outs)
    });
    let mut per_core = Vec::with_capacity(cores.len());
    let mut merged = Tracer::off();
    for (core, (stats, trace, outs)) in cores.into_iter().enumerate() {
        for (target, out) in outs {
            fold(target, &plan[core][target], out);
        }
        per_core.push(stats);
        merged.merge(trace);
    }
    (CoreLedger::from_cores(per_core), merged)
}

/// Sharded probe: each core probes its local shard directly and every
/// other shard over the interconnect, per `placement`. Results are
/// bit-identical to an unsharded [`probe`] of the same relation.
pub fn probe_sharded(
    st: &ShardedTable,
    probes: &Relation,
    technique: Technique,
    cfg: &ShardConfig,
    placement: Placement,
) -> ShardProbeOutput {
    // Every input index lands in exactly one sub-run, so the scatter
    // covers the whole vector; the fill value mirrors ProbeOp's
    // "unmatched" sentinel for bit-comparability anyway.
    let mut out = ShardProbeOutput { out: vec![u64::MAX; probes.len()], ..Default::default() };
    (out.ledger, out.trace) = fan_out(
        st.router(),
        &probes.tuples,
        placement,
        cfg.threads,
        |target, tier, sub| {
            let pcfg = ProbeConfig {
                params: cfg.params,
                tier: Some(tier),
                coalesce: cfg.coalesce,
                trace: cfg.trace,
                ..Default::default()
            };
            let sub = probe(st.shard(target), sub, technique, &pcfg);
            (sub.stats, sub.trace, (sub.matches, sub.checksum, sub.out))
        },
        |_, idxs, (matches, checksum, payloads)| {
            out.matches += matches;
            out.checksum = out.checksum.wrapping_add(checksum);
            for (&i, v) in idxs.iter().zip(payloads) {
                out.out[i] = v;
            }
        },
    );
    out
}

/// Sharded group-by. Aggregation state is **single-writer per shard**
/// (a group's key routes it to exactly one shard), so this driver is
/// routed-only: a cross-shard aggregate would be a remote *write*, which
/// this model ships via [`mutate_sharded`] instead.
pub fn groupby_sharded(
    agg: &ShardedAgg,
    input: &Relation,
    technique: Technique,
    cfg: &ShardConfig,
) -> ShardAggOutput {
    let mut out = ShardAggOutput::default();
    (out.ledger, out.trace) = fan_out(
        agg.router(),
        &input.tuples,
        Placement::Routed,
        cfg.threads,
        |target, tier, sub| {
            let gcfg = GroupByConfig {
                params: cfg.params,
                tier: Some(tier),
                coalesce: cfg.coalesce,
                trace: cfg.trace,
            };
            let sub = groupby(agg.shard(target), sub, technique, &gcfg);
            (sub.stats, sub.trace, sub.tuples)
        },
        |_, _, tuples| out.tuples += tuples,
    );
    out
}

/// Sharded fused probe→group-by pipeline. The fact relation routes (or
/// deals) by *probe key*; every sub-run aggregates into its own scratch
/// [`AggTable`] (group keys — build payloads — overlap across shards),
/// and the scratch tables merge component-wise at the end.
pub fn pipeline_sharded(
    st: &ShardedTable,
    fact: &Relation,
    total_groups: usize,
    technique: Technique,
    cfg: &ShardConfig,
    placement: Placement,
) -> ShardPipelineOutput {
    let mut out = ShardPipelineOutput::default();
    (out.ledger, out.trace) = fan_out(
        st.router(),
        &fact.tuples,
        placement,
        cfg.threads,
        |target, tier, sub| {
            let pcfg = PipelineConfig {
                params: cfg.params,
                tier: Some(tier),
                coalesce: cfg.coalesce,
                trace: cfg.trace,
                ..Default::default()
            };
            let scratch = AggTable::for_groups(total_groups.max(1));
            let sub = probe_then_groupby(st.shard(target), &scratch, sub, technique, &pcfg);
            (sub.stats, sub.trace, (sub.matched, sub.aggregated, scratch.groups()))
        },
        |_, _, (matched, aggregated, groups)| {
            out.matched += matched;
            out.aggregated += aggregated;
            out.groups.extend(groups);
        },
    );
    out.groups.sort_unstable_by_key(|&(k, _)| k);
    out.groups.dedup_by(|b, a| {
        if a.0 == b.0 {
            // Same group touched from several sub-runs: combine.
            a.1.count += b.1.count;
            a.1.sum = a.1.sum.wrapping_add(b.1.sum);
            a.1.min = a.1.min.min(b.1.min);
            a.1.max = a.1.max.max(b.1.max);
            a.1.sumsq = a.1.sumsq.wrapping_add(b.1.sumsq);
            true
        } else {
            false
        }
    });
    out
}

/// Sharded mutation: each tuple mutates the shard owning its key.
/// Routed placement runs cores in parallel (disjoint shard tables);
/// interleaved placement executes cores **sequentially** regardless of
/// `cfg.threads` — cross-core writes to one shard would make latch-retry
/// counters scheduling-dependent, and deterministic counters are the
/// whole point of the simulated interconnect.
pub fn mutate_sharded(
    st: &ShardedTable,
    rel: &Relation,
    kind: MutateKind,
    technique: Technique,
    cfg: &ShardConfig,
    placement: Placement,
) -> ShardMutOutput {
    let threads = match placement {
        Placement::Routed => cfg.threads,
        Placement::Interleaved => 1,
    };
    let mut out = ShardMutOutput { wals: vec![Vec::new(); st.n_shards()], ..Default::default() };
    (out.ledger, out.trace) = fan_out(
        st.router(),
        &rel.tuples,
        placement,
        threads,
        |target, tier, sub| {
            let mcfg = MutateConfig {
                params: cfg.params,
                kind,
                tier: Some(tier),
                trace: cfg.trace,
                ..Default::default()
            };
            let mut sub = mutate(st.shard(target), sub, technique, &mcfg);
            (sub.stats, sub.trace.take(), sub)
        },
        |target, _, sub| {
            out.applied += sub.applied;
            out.created += sub.created;
            out.merged += sub.merged;
            out.deleted += sub.deleted;
            out.wals[target].extend(sub.wal);
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_hashtable::HashTable;

    fn fixtures() -> (Relation, Relation) {
        let build = Relation::dense_unique(1 << 9, 7);
        let probes = Relation::fk_uniform(&build, 1 << 11, 9);
        (build, probes)
    }

    #[test]
    fn routed_probe_is_bit_identical_and_local() {
        let (build, probes) = fixtures();
        let solo = HashTable::build_serial(&build);
        let base = probe(&solo, &probes, Technique::Amac, &ProbeConfig::default());
        let st = ShardedTable::build(&build, ShardRouter::new(6, 4));
        for threads in [1usize, 2, 4] {
            let cfg = ShardConfig { threads, ..Default::default() };
            let out = probe_sharded(&st, &probes, Technique::Amac, &cfg, Placement::Routed);
            assert_eq!(out.matches, base.matches);
            assert_eq!(out.checksum, base.checksum);
            assert_eq!(out.out, base.out);
            assert_eq!(out.ledger.stats.remote_loads, 0, "routed placement is all-local");
            assert_eq!(out.ledger.stats.remote_bytes, 0);
            // Ledger conservation: global == Σ per-core.
            let mut sum = EngineStats::default();
            for s in &out.ledger.per_core {
                sum.merge(s);
            }
            assert_eq!(sum, out.ledger.stats);
        }
    }

    #[test]
    fn interleaved_probe_pays_messages_but_same_results() {
        let (build, probes) = fixtures();
        let solo = HashTable::build_serial(&build);
        let base = probe(&solo, &probes, Technique::Amac, &ProbeConfig::default());
        let st = ShardedTable::build(&build, ShardRouter::new(6, 4));
        let cfg = ShardConfig::default();
        let out = probe_sharded(&st, &probes, Technique::Amac, &cfg, Placement::Interleaved);
        assert_eq!(out.matches, base.matches);
        assert_eq!(out.checksum, base.checksum);
        assert_eq!(out.out, base.out);
        assert!(out.ledger.stats.remote_loads > 0, "dealt placement must cross shards");
        assert_eq!(
            out.ledger.stats.remote_bytes,
            out.ledger.stats.remote_loads * amac_tier::REMOTE_LINE_BYTES
        );
        // Counters are thread-invariant.
        let mt = probe_sharded(
            &st,
            &probes,
            Technique::Amac,
            &ShardConfig { threads: 4, ..Default::default() },
            Placement::Interleaved,
        );
        assert_eq!(mt.ledger.stats, out.ledger.stats);
        assert_eq!(mt.out, out.out);
    }

    /// One sharded run on fresh state: how many input tuples its fold
    /// accounted for, its results as text, its ledger and its trace.
    type Traced = (u64, String, CoreLedger, Tracer);
    type Run<'a> = &'a dyn Fn(&ShardConfig) -> Traced;

    #[test]
    fn traced_sharded_probe_conserves_and_records_remote_batches() {
        // Table-driven over every sharded operator (pipelines filterless,
        // so retirements conserve exactly).
        let dim = Relation::fk_dimension(1 << 9, 64, 7);
        let fact = Relation::fk_uniform(&dim, 1 << 11, 9);
        let ups = Relation::zipf(1 << 9, 1 << 10, 0.6, 23);
        let router = ShardRouter::new(6, 4);
        let st = ShardedTable::build(&dim, router.clone());
        let (amac, dealt) = (Technique::Amac, Placement::Interleaved);
        let probe_run = |cfg: &ShardConfig| -> Traced {
            let o = probe_sharded(&st, &fact, amac, cfg, dealt);
            (o.matches, format!("{} {:?}", o.checksum, o.out), o.ledger, o.trace)
        };
        let groupby_run = |cfg: &ShardConfig| -> Traced {
            let agg = ShardedAgg::for_groups(1 << 9, router.clone());
            let o = groupby_sharded(&agg, &fact, amac, cfg);
            (o.tuples, format!("{:?}", agg.merged_groups()), o.ledger, o.trace)
        };
        let pipeline_run = |cfg: &ShardConfig| -> Traced {
            let o = pipeline_sharded(&st, &fact, 64, amac, cfg, dealt);
            (o.matched, format!("{} {:?}", o.aggregated, o.groups), o.ledger, o.trace)
        };
        let upsert_run = |cfg: &ShardConfig| -> Traced {
            let st = ShardedTable::build(&dim, router.clone());
            let o = mutate_sharded(&st, &ups, MutateKind::Upsert, amac, cfg, dealt);
            let res = format!("{} {} {:?} {:?}", o.created, o.merged, o.wals, st.contents_sorted());
            (o.applied, res, o.ledger, o.trace)
        };
        let runs: [(&str, Run); 4] = [
            ("probe", &probe_run),
            ("groupby", &groupby_run),
            ("pipeline", &pipeline_run),
            ("upsert", &upsert_run),
        ];
        for (name, run) in runs {
            let (plain_n, plain, plain_ledger, _) = run(&ShardConfig::default());
            let traced = ShardConfig { trace: true, ..Default::default() };
            let (n, res, ledger, trace) = run(&traced);
            // Tracing must not move results or any counter.
            assert_eq!((n, res), (plain_n, plain), "{name}");
            assert_eq!(ledger.per_core, plain_ledger.per_core, "{name}");
            assert_eq!(ledger.stats, plain_ledger.stats, "{name}");
            // Every sub-run's output is folded, and global == Σ per-core.
            assert_eq!(n, ledger.stats.lookups, "{name}: a sub-run's output was not folded");
            let mut sum = EngineStats::default();
            for s in &ledger.per_core {
                sum.merge(s);
            }
            assert_eq!(sum, ledger.stats, "{name}");
            // Conservation across every core and interconnect hop:
            // attributed stalls sum to sim_stalls, retirements to lookups.
            assert!(trace.conserves(ledger.stats.sim_stalls, ledger.stats.lookups), "{name}");
            // The Remote batch events account for every interconnect message.
            let remote_loads: u64 = trace
                .events()
                .filter_map(|e| match e.kind {
                    amac_trace::EventKind::Remote { loads, .. } => Some(loads),
                    _ => None,
                })
                .sum();
            assert_eq!(remote_loads, ledger.stats.remote_loads, "{name}");
            // Events are stamped with the executing core's shard id.
            let shards: std::collections::BTreeSet<u16> = trace.events().map(|e| e.shard).collect();
            assert!(shards.len() > 1, "{name}: every placement exercises several cores");
            // Thread-invariance: the merged trace is byte-identical at 4
            // threads (sub-runs are deterministic, merge order is core order).
            let (.., mt) = run(&ShardConfig { threads: 4, ..traced });
            assert_eq!(mt.render(), trace.render(), "{name}");
        }
    }

    #[test]
    fn coalescing_dedups_hot_remote_lines() {
        let build = Relation::dense_unique(64, 5);
        // Heavy key skew: many in-flight probes share the same remote line.
        let probes = Relation::zipf(1 << 11, 64, 1.0, 13);
        let st = ShardedTable::build(&build, ShardRouter::new(5, 4));
        let scalar = probe_sharded(
            &st,
            &probes,
            Technique::Amac,
            &ShardConfig::default(),
            Placement::Interleaved,
        );
        let coalesced = probe_sharded(
            &st,
            &probes,
            Technique::Amac,
            &ShardConfig { coalesce: Some(8), ..Default::default() },
            Placement::Interleaved,
        );
        assert_eq!(coalesced.checksum, scalar.checksum, "coalescing never changes results");
        assert!(
            coalesced.ledger.stats.remote_loads < scalar.ledger.stats.remote_loads,
            "deduped remote lines must not be charged as messages"
        );
    }

    #[test]
    fn sharded_groupby_merges_to_unsharded_groups() {
        let input = Relation::zipf(1 << 11, 128, 0.8, 17);
        let solo = AggTable::for_groups(128);
        let base = groupby(&solo, &input, Technique::Amac, &GroupByConfig::default());
        let router = ShardRouter::new(6, 4);
        let agg = ShardedAgg::for_groups(128, router);
        let out = groupby_sharded(&agg, &input, Technique::Amac, &ShardConfig::default());
        assert_eq!(out.tuples, base.tuples);
        let mut expect = solo.groups();
        expect.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(agg.merged_groups(), expect);
    }

    #[test]
    fn sharded_mutate_converges_to_unsharded_contents() {
        let (build, _) = fixtures();
        let ups = Relation::zipf(1 << 10, 900, 0.6, 23);
        let solo = HashTable::build_serial(&build);
        solo.freeze();
        let base = mutate(&solo, &ups, Technique::Amac, &MutateConfig::default());
        for placement in [Placement::Routed, Placement::Interleaved] {
            let st = ShardedTable::build(&build, ShardRouter::new(6, 4));
            let out = mutate_sharded(
                &st,
                &ups,
                MutateKind::Upsert,
                Technique::Amac,
                &ShardConfig::default(),
                placement,
            );
            assert_eq!(out.applied, base.applied);
            assert_eq!(out.created, base.created);
            assert_eq!(out.merged, base.merged);
            assert_eq!(st.contents_sorted(), solo.contents_sorted());
            let wal_total: usize = out.wals.iter().map(|w| w.len()).sum();
            assert_eq!(wal_total as u64, out.applied, "one WAL record per applied mutation");
            // Every shard-s WAL record mutates a key shard s owns.
            for (s, wal) in out.wals.iter().enumerate() {
                assert!(wal.iter().all(|r| st.router().shard_of_key(r.key()) == s));
            }
        }
    }
}
