//! Hash join build and probe under all four techniques (§5.1).

use crate::chain::ChainCursor;
use amac::engine::{run, EngineStats, Hooks, LookupOp, Step, Technique, TuningParams};
use amac_hashtable::{Bucket, BuildHandle, HashTable};
use amac_mem::prefetch::PrefetchHint;
use amac_metrics::timer::CycleTimer;
use amac_tier::{AddrClass, ExecCtx, ExecSpec, FaultPlan, Ledger, TierSpec};
use amac_trace::Tracer;
use amac_workload::{Relation, Tuple};
use core::convert::Infallible;

/// Probe configuration.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Executor tuning (the paper's `M`).
    pub params: TuningParams,
    /// GP/SPP static stage budget (the paper's `N`); `0` = derive from
    /// the table's occupancy, as the paper tunes per experiment.
    ///
    /// The `0` derivation rule (see `auto_chain_estimate`): with `t`
    /// tuples in `b` buckets and `TUPLES_PER_NODE` tuples per chain node,
    /// `N = max(1, ceil(ceil(t / b) / TUPLES_PER_NODE))` — the expected
    /// nodes per occupied bucket under uniform spread. Examples: a table
    /// sized one-bucket-per-tuple derives `N = 1`; the Fig. 3 setup with
    /// `8×` over-occupancy (`n` tuples, `n/8` buckets, 3 tuples/node)
    /// derives `N = 3`. AMAC and the baseline ignore this value.
    pub n_stages: usize,
    /// `true`: walk the full chain and count every match (join semantics
    /// under duplicate build keys, and the Fig. 3 "uniform traversal"
    /// mode). `false`: stop after the first node holding a match
    /// (unique-key early exit — Fig. 3 "non-uniform"). Either way a node
    /// compares keys at each of its tag-matching slots
    /// (`amac_hashtable::tag_slots`), lowest first, so duplicates inside
    /// the stopping node all count and the materialized first match is
    /// the lowest such slot's payload.
    pub scan_all: bool,
    /// Materialize the first matching payload per probe tuple, in input
    /// order (the paper's `out[s[k].idx] = n->pload`). Disable at paper
    /// scale to avoid gigabyte outputs.
    pub materialize: bool,
    /// Prefetch instruction policy. The paper fixes `PREFETCHNTA` (§4);
    /// `T0` and `None` exist for the hint ablation (`bench ablation` —
    /// `None` turns every technique into pure interleaving, separating
    /// scheduling benefit from prefetch benefit). Any hint but `Nta` makes
    /// the context metered (see [`ProbeConfig::trace`]).
    pub hint: PrefetchHint,
    /// Memory-tier cost model: `Some` charges a deterministic simulated
    /// clock (stage 0 pays the header tier, every chain hop the tier of
    /// its arena slab) whose `sim_cycles`/`sim_stalls` land in
    /// [`EngineStats`]. `None` (default) = untiered, zero accounting.
    /// Tiering never changes results — only the counters.
    pub tier: Option<TierSpec>,
    /// Seeded far-tier fault plan: chain loads from far slabs may fail
    /// (the lookup retires as [`Step::Failed`]) or latency-spike, per
    /// [`FaultPlan`]. Requires a far placement to have any effect; with
    /// `tier: None` a default `headers_near(1)` spec is assumed so the
    /// chain loads are checkable. `None` (default) = every load succeeds.
    pub fault: Option<FaultPlan>,
    /// Issue coalescing (see [`amac_tier::ctx`]): `Some(G)` dedups
    /// duplicate cache-line requests across in-flight lookups within
    /// commit groups of `G` lane births, populating
    /// [`EngineStats::coalesced_loads`]. `None` (default) = every request
    /// issues. Coalescing never changes results or fault decisions —
    /// only which loads actually issue.
    pub coalesce: Option<usize>,
    /// Record a structured trace (`amac_trace`): every load the probe
    /// waits on (with its attributed stall), every fault, every
    /// retirement. The trace is returned in [`ProbeOutput::trace`];
    /// results and [`EngineStats`] are bit-identical with tracing on or
    /// off. `false` (default) = a disabled tracer: with `tier`, `fault`
    /// and `coalesce` also unset and the `Nta` hint the context is
    /// *plain* ([`Hooks::plain`]). Each executor call asks
    /// that once and runs the stages inlined in its loop, counting only
    /// `issued_loads`, `nodes_visited`, `tag_rejects` and the op's
    /// accumulators, into a tally held in the call's locals; with any of
    /// them set each stage is one out-of-line call into the full lane
    /// protocol, where the disabled tracer is one not-taken branch per
    /// wait and per retirement. A tracer armed between two calls (two
    /// feeds of a session, say) records from the next call on.
    pub trace: bool,
}

impl ProbeConfig {
    /// The execution context this config describes.
    pub fn exec(&self) -> ExecSpec {
        ExecSpec { tier: self.tier, fault: self.fault, coalesce: self.coalesce, hint: self.hint }
    }

    /// The GP/SPP stage budget of a probe of `ht`: [`n_stages`], or the
    /// occupancy estimate when that is `0`.
    ///
    /// [`n_stages`]: ProbeConfig::n_stages
    pub(crate) fn stages(&self, ht: &HashTable) -> usize {
        match self.n_stages {
            0 => auto_chain_estimate(ht),
            n => n,
        }
    }
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            params: TuningParams::default(),
            n_stages: 0,
            scan_all: false,
            materialize: true,
            hint: PrefetchHint::Nta,
            tier: None,
            fault: None,
            coalesce: None,
            trace: false,
        }
    }
}

/// Result of one probe run.
#[derive(Debug, Clone, Default)]
pub struct ProbeOutput {
    /// Total key matches found.
    pub matches: u64,
    /// Wrapping sum of every matched build payload — an order-independent
    /// checksum that must agree across techniques.
    pub checksum: u64,
    /// First-match payload per probe tuple (input order), when
    /// materialization is on.
    pub out: Vec<u64>,
    /// Executor event counters.
    pub stats: EngineStats,
    /// Probe-loop cycles (rdtsc).
    pub cycles: u64,
    /// Probe-loop wall time.
    pub seconds: f64,
    /// Structured trace harvested from the op (disabled and empty unless
    /// [`ProbeConfig::trace`] was set).
    pub trace: Tracer,
}

/// Per-lookup probe state: the paper's circular-buffer entry (Fig. 4) —
/// where the lookup stands on its chain, plus one word for the operator
/// walking it. [`ProbeOp`] keeps the tuple's input index there (the
/// paper's `rid`), [`crate::pipeline::ProbeStage`] the probe payload it
/// hands downstream.
#[derive(Default)]
pub struct ProbeState {
    pub(crate) cursor: ChainCursor,
    pub(crate) tag: u64,
}

/// The probe lookup as a state machine (Table 1, "Hash Join Probe").
pub struct ProbeOp<'a> {
    ht: &'a HashTable,
    /// The two config fields a code stage reads.
    materialize: bool,
    scan_all: bool,
    matches: u64,
    checksum: u64,
    out: Vec<u64>,
    cursor: usize,
    /// The op's execution context (also reachable, type-erased, through
    /// `ctx`).
    pub cx: ExecCtx,
}

impl<'a> ProbeOp<'a> {
    /// Build the op for one run over `n_probes` tuples.
    pub fn new(ht: &'a HashTable, cfg: &ProbeConfig, n_probes: usize) -> Self {
        ProbeOp {
            ht,
            cx: ExecCtx::new(&cfg.exec()),
            materialize: cfg.materialize,
            scan_all: cfg.scan_all,
            matches: 0,
            checksum: 0,
            out: if cfg.materialize { vec![u64::MAX; n_probes] } else { Vec::new() },
            cursor: 0,
        }
    }

    /// Matches found so far (for drivers that own the op, e.g. `parallel`).
    #[inline]
    pub fn matches(&self) -> u64 {
        self.matches
    }

    /// Order-independent payload checksum accumulated so far.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Take the materialized first-match payloads (input order; empty when
    /// `materialize` was off). For drivers that own the op — the serving
    /// layer routes these back to the query that submitted the probes.
    pub fn take_out(&mut self) -> Vec<u64> {
        core::mem::take(&mut self.out)
    }
}

/// Estimate the average chain length from table occupancy without
/// walking every chain: assuming tuples spread uniformly over all
/// buckets, `ceil(ceil(tuples / buckets) / TUPLES_PER_NODE)` nodes per
/// bucket (min 1) is close enough for the paper's N-tuning purpose.
/// This is the [`ProbeConfig::n_stages`]` = 0` derivation rule documented
/// there; the fused pipelines reuse it per probe stage.
pub(crate) fn auto_chain_estimate(ht: &HashTable) -> usize {
    let tuples = ht.tuple_count();
    if tuples == 0 {
        return 1;
    }
    let per_node = amac_hashtable::TUPLES_PER_NODE as u64;
    let buckets = ht.bucket_count() as u64;
    // Expected nodes per occupied bucket if tuples spread uniformly.
    let per_bucket = tuples.div_ceil(buckets);
    let nodes = per_bucket.div_ceil(per_node);
    nodes.max(1) as usize
}

/// [`ProbeOp`]'s loop-carried scalars: its ledger, its accumulators and
/// its input cursor.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeTally {
    led: Ledger,
    matches: u64,
    checksum: u64,
    cursor: usize,
}

/// Each stage is written once, over the tally: a plain call inlines the
/// `PLAIN = true` instantiation into the executor's loop, any other call
/// makes one out-of-line call per stage.
impl LookupOp for ProbeOp<'_> {
    type Input = Tuple;
    type State = ProbeState;
    type Tally = ProbeTally;
    type Output = Infallible;

    /// Code 0 (Table 1): get new tuple, compute bucket address **and the
    /// key's SWAR probe word**, prefetch.
    #[inline(always)]
    fn start<const PLAIN: bool>(
        &mut self,
        t: &mut ProbeTally,
        input: Tuple,
        state: &mut ProbeState,
    ) {
        state.cursor.start::<PLAIN>(self.ht, input.key, &mut self.cx, &mut t.led);
        state.tag = t.cursor as u64;
        t.cursor += 1;
    }

    /// Code 1 (Table 1): compare keys only at the node's tag-matching
    /// slots, output on match, chase the `u32` chain index.
    #[inline(always)]
    fn step<const PLAIN: bool>(&mut self, t: &mut ProbeTally, state: &mut ProbeState) -> Step {
        let (d, slots) = state.cursor.node::<PLAIN>("probe", self.ht, &mut self.cx, &mut t.led);
        let mut hit = false;
        for i in slots {
            let tuple = d.tuples[i];
            if tuple.key == state.cursor.key {
                t.matches += 1;
                t.checksum = t.checksum.wrapping_add(tuple.payload);
                let idx = state.tag as usize;
                if self.materialize && self.out[idx] == u64::MAX {
                    self.out[idx] = tuple.payload;
                }
                hit = true;
            }
        }
        if hit && !self.scan_all {
            state.cursor.retire::<PLAIN>("probe", &mut self.cx);
            return Step::Done; // early exit on unique-key match
        }
        state.cursor.advance::<PLAIN>("probe", self.ht, d.next, &mut self.cx, &mut t.led)
    }

    /// The whole input through the vector kernel
    /// [`amac_hashtable::vector::probe`] where the host has AVX-512F/DQ,
    /// with headers requested `m` lookups ahead: the matches, first
    /// matches and ledger the stages would have made. Out of line: one
    /// call per executor call.
    #[inline(never)]
    fn batch(&mut self, t: &mut ProbeTally, inputs: &[Tuple], m: usize) -> Option<u64> {
        let out = self.materialize.then(|| &mut self.out[t.cursor..t.cursor + inputs.len()]);
        let v = amac_hashtable::vector::probe(self.ht, inputs, m, self.scan_all, out)?;
        t.matches += v.matches;
        t.checksum = t.checksum.wrapping_add(v.checksum);
        t.cursor += inputs.len();
        t.led.issued_loads += v.nodes;
        t.led.nodes_visited += v.nodes;
        t.led.tag_rejects += v.tag_rejects;
        Some(v.nodes)
    }

    #[inline(always)]
    fn tally(&self) -> ProbeTally {
        ProbeTally {
            led: Ledger::default(),
            matches: self.matches,
            checksum: self.checksum,
            cursor: self.cursor,
        }
    }

    #[inline(always)]
    fn settle(&mut self, t: ProbeTally) {
        self.matches = t.matches;
        self.checksum = t.checksum;
        self.cursor = t.cursor;
        self.cx.settle(t.led);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.cx
    }

    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        ChainCursor::looks_ahead(self.ht, &self.cx)
    }

    #[inline(always)]
    fn lookahead(&self, input: Tuple) {
        ChainCursor::lookahead(self.ht, input.key, &self.cx);
    }
}

/// Run a probe of `s` against `ht` with `technique`.
pub fn probe(ht: &HashTable, s: &Relation, technique: Technique, cfg: &ProbeConfig) -> ProbeOutput {
    let mut op = crate::traced(ProbeOp::new(ht, cfg, s.len()), cfg.trace);
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &s.tuples, cfg.params, cfg.stages(ht));
    let (cycles, seconds, trace) = (timer.cycles(), timer.seconds(), op.cx.take_tracer());
    let (matches, checksum, out) = (op.matches, op.checksum, op.out);
    ProbeOutput { matches, checksum, out, stats, cycles, seconds, trace }
}

/// Build configuration.
#[derive(Debug, Clone, Default)]
pub struct BuildConfig {
    /// Executor tuning (the paper's `M`).
    pub params: TuningParams,
    /// Memory-tier cost model (builds touch only the header tier in
    /// their latched O(1) insert; see [`ProbeConfig::tier`]). Note the
    /// simulated counters of *multi-threaded* builds include real latch
    /// retries and are therefore only run-to-run deterministic
    /// single-threaded.
    pub tier: Option<TierSpec>,
}

impl BuildConfig {
    /// The execution context this config describes.
    pub fn exec(&self) -> ExecSpec {
        ExecSpec { tier: self.tier, ..Default::default() }
    }
}

/// Result of one build run.
#[derive(Debug, Clone, Default)]
pub struct BuildOutput {
    /// Executor event counters.
    pub stats: EngineStats,
    /// Build-loop cycles.
    pub cycles: u64,
    /// Build-loop wall time.
    pub seconds: f64,
}

/// Per-lookup build state.
pub struct BuildState {
    key: u64,
    payload: u64,
    bucket: *const Bucket,
    /// Simulated tick the prefetched header arrives (tiered runs only).
    ready_at: u64,
    /// AMU commit group this insert's lane was born into.
    group: u32,
}

impl Default for BuildState {
    fn default() -> Self {
        BuildState { key: 0, payload: 0, bucket: core::ptr::null(), ready_at: 0, group: 0 }
    }
}

/// The build lookup as a state machine (Table 1, "Hash Join Build",
/// simplified to the O(1) head insert the NPO build actually performs).
pub struct BuildOp<'a> {
    handle: BuildHandle<'a>,
    cx: ExecCtx,
}

impl<'a> BuildOp<'a> {
    /// Create a build op inserting into `ht` through a private arena.
    /// Builds issue one header load per insert, so there is nothing to
    /// coalesce within a lane ([`BuildConfig::exec`] never asks).
    pub fn new(ht: &'a HashTable, spec: &ExecSpec) -> Self {
        BuildOp { handle: ht.build_handle(), cx: ExecCtx::new(spec) }
    }
}

/// A build's tally is its ledger alone.
impl LookupOp for BuildOp<'_> {
    type Input = Tuple;
    type State = BuildState;
    type Tally = Ledger;
    type Output = Infallible;

    /// Code 0: get new tuple, compute bucket address, prefetch (for write).
    #[inline(always)]
    fn start<const PLAIN: bool>(&mut self, led: &mut Ledger, input: Tuple, state: &mut BuildState) {
        let bucket = self.handle.table().bucket_addr(input.key);
        amac_mem::prefetch::prefetch_write(bucket);
        state.key = input.key;
        state.payload = input.payload;
        state.bucket = bucket;
        if PLAIN {
            led.issued_loads += 1;
        } else {
            state.group = self.cx.begin_lane();
            state.ready_at =
                self.cx.request(AddrClass::header_ptr(bucket), 0, state.group).ready_at;
        }
    }

    /// Code 1: latch? retry later : insert at chain head, release.
    #[inline(always)]
    fn step<const PLAIN: bool>(&mut self, led: &mut Ledger, state: &mut BuildState) -> Step {
        // The latch word shares the header line the prefetch fetched; a
        // blocked attempt is real executed work (it read the line).
        if !PLAIN {
            self.cx.wait(state.ready_at);
            self.cx.stage();
        }
        // SAFETY: bucket is a valid header of the handle's table.
        unsafe {
            if !(*state.bucket).latch.try_acquire() {
                return Step::Blocked;
            }
            self.handle.insert_latched(state.bucket, state.key, state.payload);
            (*state.bucket).latch.release();
        }
        // The O(1) head insert dereferences the (prefetched) header; any
        // overflow-head touch shares the same latched stage.
        led.nodes_visited += 1;
        if !PLAIN {
            self.cx.retire_lane(state.group);
        }
        Step::Done
    }

    #[inline(always)]
    fn settle(&mut self, led: Ledger) {
        self.cx.settle(led);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.cx
    }
}

/// Build `ht` from `r` with `technique`. The table must be empty (or at
/// least sized for the extra tuples).
pub fn build(ht: &HashTable, r: &Relation, technique: Technique, cfg: &BuildConfig) -> BuildOutput {
    let mut op = BuildOp::new(ht, &cfg.exec());
    let timer = CycleTimer::start();
    // N = 1: an insert is one latched stage after stage 0.
    let stats = run(technique, &mut op, &r.tuples, cfg.params, 1);
    BuildOutput { stats, cycles: timer.cycles(), seconds: timer.seconds() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_join_setup(nr: usize, ns: usize) -> (HashTable, Relation, Relation) {
        let r = Relation::dense_unique(nr, 11);
        let s = Relation::fk_uniform(&r, ns, 12);
        let ht = HashTable::build_serial(&r);
        (ht, r, s)
    }

    #[test]
    fn probe_finds_every_fk_match_all_techniques() {
        // 2^17 build tuples: 4 MiB of bucket headers, so the hash-table
        // ops look ahead of the AMAC window; 2^12 stays below the gate.
        for nr in [4096, 1 << 17] {
            probe_all_techniques(nr);
        }
    }

    fn probe_all_techniques(nr: usize) {
        let (ht, r, s) = small_join_setup(nr, 10_000);
        let gate = |hint| ProbeOp::new(&ht, &ProbeConfig { hint, ..Default::default() }, 0);
        assert_eq!(gate(PrefetchHint::Nta).looks_ahead(), nr == 1 << 17, "{nr} build tuples");
        assert!(!gate(PrefetchHint::None).looks_ahead(), "no lookahead without a prefetch");
        let mut reference: Option<(u64, u64, Vec<u64>)> = None;
        for t in Technique::ALL {
            let out = probe(&ht, &s, t, &ProbeConfig::default());
            assert_eq!(out.matches, s.len() as u64, "{t}: FK probe must match once each");
            // Every materialized payload equals 2 * key (dense_unique).
            for (i, &p) in out.out.iter().enumerate() {
                assert_eq!(p, s.tuples[i].key.wrapping_mul(2), "{t}: tuple {i}");
            }
            match &reference {
                None => reference = Some((out.matches, out.checksum, out.out.clone())),
                Some((m, c, o)) => {
                    assert_eq!(out.matches, *m, "{t} matches diverge");
                    assert_eq!(out.checksum, *c, "{t} checksum diverges");
                    assert_eq!(&out.out, o, "{t} materialization diverges");
                }
            }
        }
        let _ = r;
    }

    #[test]
    fn probe_scan_all_counts_duplicates() {
        // Build with heavy duplicates: key 7 appears 50 times.
        let mut tuples: Vec<Tuple> = (0..50).map(|i| Tuple::new(7, 1000 + i)).collect();
        tuples.extend((1..=100u64).filter(|&k| k != 7).map(|k| Tuple::new(k, k)));
        let r = Relation::from_tuples(tuples);
        let ht = HashTable::build_serial(&r);
        let s = Relation::from_tuples(vec![Tuple::new(7, 0), Tuple::new(9, 0)]);
        let cfg = ProbeConfig { scan_all: true, ..Default::default() };
        for t in Technique::ALL {
            let out = probe(&ht, &s, t, &cfg);
            assert_eq!(out.matches, 51, "{t}: 50 dups of key 7 + 1 match of key 9");
        }
    }

    #[test]
    fn probe_misses_produce_no_matches() {
        let (ht, _r, _s) = small_join_setup(1024, 1);
        let s = Relation::from_tuples(vec![Tuple::new(999_999, 0), Tuple::new(888_888, 0)]);
        for t in Technique::ALL {
            let out = probe(&ht, &s, t, &ProbeConfig::default());
            assert_eq!(out.matches, 0, "{t}");
            assert!(out.out.iter().all(|&p| p == u64::MAX), "{t}: no materialization");
        }
    }

    #[test]
    fn build_all_techniques_produce_equal_tables() {
        let r = Relation::zipf(20_000, 4_000, 0.8, 17);
        let mut snapshots = Vec::new();
        for t in Technique::ALL {
            let ht = HashTable::for_tuples(r.len());
            let out = build(&ht, &r, t, &BuildConfig::default());
            assert_eq!(out.stats.lookups, r.len() as u64, "{t}");
            assert_eq!(ht.len(), r.len(), "{t}: all tuples inserted");
            // Canonical content snapshot: sorted (key, payload) multiset.
            let mut snap: Vec<(u64, u64)> = Vec::with_capacity(r.len());
            let mut keys: Vec<u64> = r.tuples.iter().map(|t| t.key).collect();
            keys.sort_unstable();
            keys.dedup();
            for k in keys {
                let mut pls = ht.lookup_all(k);
                pls.sort_unstable();
                for p in pls {
                    snap.push((k, p));
                }
            }
            snapshots.push(snap);
        }
        for s in &snapshots[1..] {
            assert_eq!(s, &snapshots[0], "table contents diverge across techniques");
        }
    }

    #[test]
    fn hash_join_end_to_end() {
        let r = Relation::dense_unique(2048, 21);
        let s = Relation::fk_uniform(&r, 8192, 22);
        let ht = HashTable::for_tuples(r.len());
        let b = build(&ht, &r, Technique::Amac, &BuildConfig::default());
        let p = probe(&ht, &s, Technique::Amac, &ProbeConfig::default());
        assert_eq!(b.stats.lookups, 2048);
        assert_eq!(p.matches, 8192);
        assert!(b.cycles > 0 && p.cycles > 0);
    }

    #[test]
    fn probe_empty_relation() {
        let (ht, _r, _s) = small_join_setup(64, 1);
        let empty = Relation::default();
        let out = probe(&ht, &empty, Technique::Amac, &ProbeConfig::default());
        assert_eq!(out.matches, 0);
        assert_eq!(out.stats.lookups, 0);
    }

    #[test]
    fn faulted_probe_is_deterministic_across_executors() {
        use crate::pipeline::{CountChecksum, ProbeStage};
        use amac::engine::pipeline::Fused;
        use amac_tier::FaultPlan;
        // Chained table (8x over-occupancy) so lookups take multiple far
        // hops — plenty of fault opportunities.
        let r = Relation::dense_unique(1 << 12, 11);
        let ht = HashTable::with_buckets((1 << 12) / 8);
        {
            let mut h = ht.build_handle();
            for t in &r.tuples {
                h.insert(t.key, t.payload);
            }
        }
        let s = Relation::fk_uniform(&r, 6_000, 12);
        let cfg = ProbeConfig {
            scan_all: true,
            materialize: false,
            fault: Some(FaultPlan::fail_only(0xABCD, 100)),
            ..Default::default()
        };
        let mut reference: Option<(u64, u64, u64, u64)> = None;
        for t in Technique::ALL {
            let out = probe(&ht, &s, t, &cfg);
            assert_eq!(out.stats.lookups, s.len() as u64, "{t}: every lookup retires");
            assert!(out.stats.failed_lookups > 0, "{t}: 10% fail rate must hit");
            assert_eq!(
                out.stats.failed_lookups, out.stats.load_faults,
                "{t}: one poisoned load aborts one lookup"
            );
            let key = (out.stats.failed_lookups, out.stats.load_faults, out.matches, out.checksum);
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(
                    &key, r,
                    "{t}: fault set and surviving results must be schedule-invariant"
                ),
            }
            // One walk, one protocol: the early-exit probe and a terminal
            // pipeline probe stage are the same chain walk, so under one
            // tier, fault plan and window they agree down to the trace.
            let cfg = ProbeConfig {
                scan_all: false,
                tier: Some(TierSpec::headers_near(4)),
                trace: true,
                ..cfg.clone()
            };
            let solo = probe(&ht, &s, t, &cfg);
            let stage = ProbeStage::new(&ht, &cfg.exec()).terminal();
            let mut op = crate::traced(Fused::new(stage, CountChecksum::default()), true);
            let st = run(t, &mut op, &s.tuples, cfg.params, cfg.stages(&ht));
            let staged = (op.sink().matches, op.sink().checksum, st.failed_lookups, st.load_faults);
            let staged_sim =
                (st.sim_cycles, st.sim_stalls, op.ctx().take_tracer().canonical_hash());
            let so = &solo.stats;
            assert!(so.failed_lookups > 0 && so.sim_stalls > 0, "{t}: must fault and stall");
            assert_eq!(staged, (solo.matches, solo.checksum, so.failed_lookups, so.load_faults));
            assert_eq!(
                staged_sim,
                (so.sim_cycles, so.sim_stalls, solo.trace.canonical_hash()),
                "{t}: clock and trace of the staged walk"
            );
        }
    }

    #[test]
    fn zero_rate_fault_plan_changes_nothing() {
        use amac_tier::FaultPlan;
        let (ht, _r, s) = small_join_setup(4096, 5_000);
        let clean = probe(&ht, &s, Technique::Amac, &ProbeConfig::default());
        let cfg = ProbeConfig { fault: Some(FaultPlan::fail_only(1, 0)), ..Default::default() };
        let faulted = probe(&ht, &s, Technique::Amac, &cfg);
        assert_eq!(faulted.matches, clean.matches);
        assert_eq!(faulted.checksum, clean.checksum);
        assert_eq!(faulted.out, clean.out);
        assert_eq!(faulted.stats.failed_lookups, 0);
        assert_eq!(faulted.stats.load_faults, 0);
    }

    #[test]
    fn auto_stage_estimate_tracks_load_factor() {
        let r = Relation::dense_unique(1 << 12, 5);
        // Default sizing: ~1 node per bucket.
        let ht = HashTable::build_serial(&r);
        assert_eq!(super::auto_chain_estimate(&ht), 1);
        // Fig. 3 style: n/8 buckets → 8 tuples/bucket → ceil(8/3) = 3
        // nodes per chain in the 3-tuple layout.
        let ht3 = HashTable::with_buckets((1 << 12) / 8);
        {
            let mut h = ht3.build_handle();
            for t in &r.tuples {
                h.insert(t.key, t.payload);
            }
        }
        assert_eq!(super::auto_chain_estimate(&ht3), 3);
    }
}
