//! Fused operator pipelines: probe → filter → group-by and probe → probe
//! in **one** AMAC window (the paper's §6 multi-operator integration).
//!
//! The standalone drivers in [`join`](crate::join) and
//! [`groupby`](crate::groupby) execute operator-at-a-time: the join
//! materializes its output, the group-by re-reads it. The fused drivers
//! here run the whole chain through
//! [`amac::engine::pipeline`] instead — each slot of a single circular
//! buffer carries a tuple from its bucket-header miss through its
//! aggregation-bucket miss with no intermediate relation in between.
//! Every fused driver has a `*_two_phase` reference of identical
//! semantics that *does* materialize, so equivalence is testable
//! tuple-for-tuple and the memory-traffic savings are measurable
//! ([`PipelineOutput::intermediate_bytes`], [`PipelineOutput::passes`]).
//!
//! The query shape (the introduction's motivating analytics pipeline):
//!
//! ```sql
//! SELECT r.payload AS category, COUNT/SUM/MIN/MAX/SUMSQ(s.payload)
//! FROM s JOIN r ON s.key = r.key          -- hash probe
//! WHERE filter_value(s.payload) < σ·2^32   -- selectivity-controlled
//! GROUP BY r.payload                       -- aggregate table
//! ```
//!
//! # Quickstart
//!
//! ```
//! use amac::engine::Technique;
//! use amac_hashtable::{AggTable, HashTable};
//! use amac_ops::pipeline::{probe_then_groupby, PipelineConfig};
//! use amac_workload::{FilterSpec, Relation};
//!
//! // Dimension: 1K products, payload = category id in 1..=32.
//! let products = Relation::fk_dimension(1 << 10, 32, 7);
//! // Fact: 8K sales, each referencing one product.
//! let sales = Relation::fk_uniform(&products, 1 << 13, 8);
//! let ht = HashTable::build_serial(&products);
//! let agg = AggTable::for_groups(32);
//!
//! // Join + 50%-selective filter + group-by, fused in one AMAC window.
//! let cfg = PipelineConfig {
//!     filter: Some(FilterSpec::selectivity(0.5)),
//!     ..Default::default()
//! };
//! let out = probe_then_groupby(&ht, &agg, &sales, Technique::Amac, &cfg);
//! assert_eq!(out.matched, sales.len() as u64); // every FK probe matches
//! assert!(out.aggregated < out.matched);       // ~half filtered out
//! assert_eq!(out.passes, 1);                   // no intermediate pass
//! assert_eq!(out.intermediate_bytes, 0);       // nothing materialized
//! ```

use crate::chain::ChainCursor;
use crate::groupby::GroupByOp;
use crate::join::{auto_chain_estimate, ProbeState};
use amac::engine::pipeline::{Chain, Consumer, Fused, Route};
use amac::engine::{run, EngineStats, Hooks, LookupOp, Step, Technique, TuningParams};
use amac_hashtable::{AggTable, HashTable};
use amac_mem::prefetch::PrefetchHint;
use amac_metrics::timer::CycleTimer;
use amac_tier::{ExecCtx, ExecSpec, FaultPlan, Ledger, TierSpec};
use amac_trace::Tracer;
use amac_workload::{FilterSpec, Relation, Tuple};

/// Configuration shared by the fused pipeline drivers.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Executor tuning (the paper's `M` — one window for the whole chain).
    pub params: TuningParams,
    /// Prefetch policy for probe chain nodes (the paper fixes NTA).
    pub hint: PrefetchHint,
    /// The fused WHERE clause, applied to the probe tuple's payload
    /// between the join and the aggregation; `None` keeps every match.
    pub filter: Option<FilterSpec>,
    /// Memory-tier cost model, applied to **every** stage of the fused
    /// chain (the `Chain` keeps the member clocks in lock-step, so the
    /// pipeline has one simulated timeline). See
    /// [`ProbeConfig::tier`](crate::join::ProbeConfig::tier).
    pub tier: Option<TierSpec>,
    /// Seeded far-tier fault plan, applied to the **probe** stages' chain
    /// loads (the latched group-by stage is unfaultable: its incremental
    /// table writes cannot be rolled back, so fault policy for it is
    /// degrade-to-two-phase, not retry). See
    /// [`ProbeConfig::fault`](crate::join::ProbeConfig::fault).
    pub fault: Option<FaultPlan>,
    /// Issue coalescing for **every** stage of the fused chain (see
    /// [`ProbeConfig::coalesce`](crate::join::ProbeConfig::coalesce)).
    pub coalesce: Option<usize>,
    /// Record a structured trace into [`PipelineOutput::trace`] (see
    /// [`ProbeConfig::trace`](crate::join::ProbeConfig::trace)). In a
    /// fused chain each member stage traces into its own fork and the
    /// forks merge at harvest. A probe stage that hands its tuple
    /// downstream records **no** retirement — the terminal operator
    /// does — so retirements sum to lookups exactly, except that a
    /// tuple dropped by the fused filter between stages retires
    /// silently (conservation is exact for filterless chains and all
    /// standalone runs).
    pub trace: bool,
}

impl PipelineConfig {
    /// The execution context this config describes (each stage of the
    /// chain builds its own from it).
    pub fn exec(&self) -> ExecSpec {
        ExecSpec { tier: self.tier, fault: self.fault, coalesce: self.coalesce, hint: self.hint }
    }

    /// The standalone group-by config of this pipeline's aggregation
    /// stage, for the two-phase references' phase 2 (the stage is
    /// unfaultable, and a standalone group-by takes no hint).
    pub(crate) fn groupby(&self) -> crate::groupby::GroupByConfig {
        crate::groupby::GroupByConfig {
            params: self.params,
            tier: self.tier,
            coalesce: self.coalesce,
            trace: self.trace,
        }
    }
}

/// A join match flowing between pipeline operators: the probe tuple's
/// key/payload plus the matched build payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Joined {
    /// The join key (probe key == matched build key).
    pub key: u64,
    /// The probe tuple's payload (the fact-side value, e.g. sale amount).
    pub probe_payload: u64,
    /// The matched build tuple's payload (the dimension attribute, e.g.
    /// category id — or the foreign key into the next join).
    pub build_payload: u64,
}

/// Hash-table probe as a pipeline operator: emits the **first** match as
/// a [`Joined`] tuple (FK join semantics); a miss leaves the pipeline.
pub struct ProbeStage<'a> {
    ht: &'a HashTable,
    matches: u64,
    /// This stage ends its chain: an emitted tuple leaves the window, so
    /// the stage records the retirement itself instead of deferring to a
    /// downstream operator.
    terminal: bool,
    /// The op's execution context (also reachable, type-erased, through
    /// `ctx`).
    pub cx: ExecCtx,
}

impl<'a> ProbeStage<'a> {
    /// Probe stage against `ht`. A driver running it under GP or SPP
    /// budgets it from the table's occupancy, as for
    /// [`ProbeConfig::n_stages`](crate::join::ProbeConfig::n_stages)` = 0`.
    pub fn new(ht: &'a HashTable, spec: &ExecSpec) -> Self {
        ProbeStage { ht, matches: 0, terminal: false, cx: ExecCtx::new(spec) }
    }

    /// Mark this stage as the chain's last operator: emitted tuples go
    /// straight to a sink, so the stage records its own retirements (see
    /// [`PipelineConfig::trace`]).
    pub fn terminal(mut self) -> Self {
        self.terminal = true;
        self
    }

    /// Join matches found so far.
    #[inline]
    pub fn matches(&self) -> u64 {
        self.matches
    }
}

/// [`ProbeStage`]'s loop-carried scalars: its ledger and match count.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTally {
    led: Ledger,
    matches: u64,
}

impl LookupOp for ProbeStage<'_> {
    type Input = Tuple;
    type State = ProbeState;
    type Tally = StageTally;
    type Output = Joined;

    #[inline(always)]
    fn start<const PLAIN: bool>(
        &mut self,
        t: &mut StageTally,
        input: Tuple,
        state: &mut ProbeState,
    ) {
        state.cursor.start::<PLAIN>(self.ht, input.key, &mut self.cx, &mut t.led);
        state.tag = input.payload;
    }

    #[inline(always)]
    fn step<const PLAIN: bool>(
        &mut self,
        t: &mut StageTally,
        state: &mut ProbeState,
    ) -> Step<Joined> {
        let (d, slots) = state.cursor.node::<PLAIN>("probe", self.ht, &mut self.cx, &mut t.led);
        for i in slots {
            let tuple = d.tuples[i];
            if tuple.key == state.cursor.key {
                t.matches += 1;
                // A non-terminal stage hands the tuple downstream — the
                // terminal operator records the retirement.
                if self.terminal {
                    state.cursor.retire::<PLAIN>("probe", &mut self.cx);
                } else if !PLAIN {
                    self.cx.retire_lane(state.cursor.group);
                }
                return Step::Emit(Joined {
                    key: tuple.key,
                    probe_payload: state.tag,
                    build_payload: tuple.payload,
                });
            }
        }
        match state.cursor.advance::<PLAIN>("probe", self.ht, d.next, &mut self.cx, &mut t.led) {
            Step::Continue => Step::Continue,
            Step::Failed => Step::Failed,
            _ => Step::Done, // chain exhausted: probe miss
        }
    }

    #[inline(always)]
    fn tally(&self) -> StageTally {
        StageTally { led: Ledger::default(), matches: self.matches }
    }

    #[inline(always)]
    fn settle(&mut self, t: StageTally) {
        self.matches = t.matches;
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

/// The fused filter + projection between the probe and its consumer:
/// keeps a [`Joined`] tuple when the filter passes on the probe payload,
/// projecting it to `Tuple { key: build_payload, payload: probe_payload }`
/// — the build payload is the group id (probe→group-by) or the foreign
/// key into the next dimension (probe→probe).
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterProject {
    /// The WHERE clause; `None` passes everything.
    pub filter: Option<FilterSpec>,
}

impl Route<Joined, Tuple> for FilterProject {
    #[inline(always)]
    fn route(&mut self, j: Joined) -> Option<Tuple> {
        match self.filter {
            Some(spec) if !spec.passes(j.probe_payload) => None,
            _ => Some(Tuple::new(j.build_payload, j.probe_payload)),
        }
    }
}

/// Sink counting matches and an order-independent checksum
/// of the matched build payloads (for probe→probe chains).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountChecksum {
    /// Tuples that survived the whole pipeline.
    pub matches: u64,
    /// Wrapping sum of final build payloads (order-independent).
    pub checksum: u64,
}

impl Consumer<Joined> for CountChecksum {
    #[inline(always)]
    fn consume(&mut self, j: Joined) {
        self.matches += 1;
        self.checksum = self.checksum.wrapping_add(j.build_payload);
    }
}

/// Materializing consumer for the two-phase references: routes each
/// [`Joined`] through [`FilterProject`] and appends survivors to an
/// intermediate relation.
#[derive(Debug, Default)]
pub struct RouteCollect {
    route: FilterProject,
    /// The materialized intermediate, in completion order.
    pub out: Vec<Tuple>,
}

impl RouteCollect {
    /// Collect through `route`.
    pub fn new(route: FilterProject) -> Self {
        RouteCollect { route, out: Vec::new() }
    }
}

impl Consumer<Joined> for RouteCollect {
    #[inline(always)]
    fn consume(&mut self, j: Joined) {
        if let Some(t) = self.route.route(j) {
            self.out.push(t);
        }
    }
}

/// The materializing phase-1 op of every `*_two_phase` reference: probe,
/// route through the fused filter/projection, and collect survivors into
/// an intermediate `Vec`. One constructor so all two-phase drivers (ST
/// and MT) share the exact phase-1 semantics of the fused plans.
pub fn materializing_probe_op<'a>(
    ht: &'a HashTable,
    cfg: &PipelineConfig,
) -> Fused<ProbeStage<'a>, RouteCollect> {
    Fused::new(
        ProbeStage::new(ht, &cfg.exec()).terminal(),
        RouteCollect::new(FilterProject { filter: cfg.filter }),
    )
}

/// The fused probe → filter → group-by executor op (nameable so
/// multi-threaded drivers can read per-worker accumulators back). The
/// group-by materializes into its table, so the chain needs no sink.
pub type FusedProbeGroupBy<'a> = Chain<ProbeStage<'a>, GroupByOp<'a>, FilterProject>;

/// The fused probe → filter → probe executor op for 2-join chains.
pub type FusedProbeProbe<'a> =
    Fused<Chain<ProbeStage<'a>, ProbeStage<'a>, FilterProject>, CountChecksum>;

/// Build the fused probe→filter→group-by op: probe `ht`, filter on the
/// probe payload, aggregate the survivors into `table` keyed by the
/// matched build payload. Both stages run in the pipeline's context,
/// except that the group-by stage is unfaultable.
pub fn fused_probe_groupby_op<'a>(
    ht: &'a HashTable,
    table: &'a AggTable,
    cfg: &PipelineConfig,
) -> FusedProbeGroupBy<'a> {
    Chain::new(
        ProbeStage::new(ht, &cfg.exec()),
        GroupByOp::new(table, &ExecSpec { fault: None, ..cfg.exec() }),
        FilterProject { filter: cfg.filter },
    )
}

/// Build the fused 2-join-chain op: probe `ht1`, filter, then probe `ht2`
/// with the matched build payload as the key (snowflake chain
/// `S ⋈ R1 ⋈ R2`). Final matches land in the op's [`CountChecksum`]-style
/// accumulators on the second stage.
pub fn fused_probe_probe_op<'a>(
    ht1: &'a HashTable,
    ht2: &'a HashTable,
    cfg: &PipelineConfig,
) -> FusedProbeProbe<'a> {
    Fused::new(
        Chain::new(
            ProbeStage::new(ht1, &cfg.exec()),
            ProbeStage::new(ht2, &cfg.exec()).terminal(),
            FilterProject { filter: cfg.filter },
        ),
        CountChecksum::default(),
    )
}

/// Result of one pipeline run (fused or two-phase reference).
#[derive(Debug, Clone, Default)]
pub struct PipelineOutput {
    /// First-stage join matches (before the filter).
    pub matched: u64,
    /// Tuples that reached the terminal operator (after the filter):
    /// aggregated tuples for group-by chains, final matches for join
    /// chains.
    pub aggregated: u64,
    /// Order-independent checksum of final outputs (join chains only).
    pub checksum: u64,
    /// Executor counters, merged over all passes.
    pub stats: EngineStats,
    /// Cycles over the whole pipeline (all passes).
    pub cycles: u64,
    /// Wall time over the whole pipeline (all passes).
    pub seconds: f64,
    /// Bytes materialized between operators (0 for fused plans; the
    /// two-phase plan writes *and re-reads* this many bytes).
    pub intermediate_bytes: u64,
    /// Input passes over tuple data: 1 for fused, 2 for two-phase.
    pub passes: u32,
    /// Structured trace merged over every stage (and every pass, for
    /// two-phase plans); disabled and empty unless
    /// [`PipelineConfig::trace`] was set.
    pub trace: Tracer,
}

/// Fused probe→filter→group-by over `s` in one AMAC window: no
/// intermediate relation, one pass.
pub fn probe_then_groupby(
    ht: &HashTable,
    table: &AggTable,
    s: &Relation,
    technique: Technique,
    cfg: &PipelineConfig,
) -> PipelineOutput {
    let mut op = crate::traced(fused_probe_groupby_op(ht, table, cfg), cfg.trace);
    let timer = CycleTimer::start();
    // A chain's N is the sum of its members'.
    let n = auto_chain_estimate(ht) + crate::groupby::STAGES;
    let stats = run(technique, &mut op, &s.tuples, cfg.params, n);
    let trace = op.ctx().take_tracer();
    PipelineOutput {
        matched: op.up().matches(),
        aggregated: op.down().tuples(),
        checksum: 0,
        stats,
        cycles: timer.cycles(),
        seconds: timer.seconds(),
        intermediate_bytes: 0,
        passes: 1,
        trace,
    }
}

/// Two-phase reference for [`probe_then_groupby`]: phase 1 probes and
/// **materializes** the filtered join output as an intermediate relation;
/// phase 2 re-reads it into the group-by. Identical semantics (same
/// stages, same filter), two passes and `16 × |intermediate|` bytes of
/// extra traffic — the operator-at-a-time plan the fusion removes.
pub fn probe_then_groupby_two_phase(
    ht: &HashTable,
    table: &AggTable,
    s: &Relation,
    technique: Technique,
    cfg: &PipelineConfig,
) -> PipelineOutput {
    let timer = CycleTimer::start();
    // Phase 1: probe, materializing the filtered+projected join output.
    let mut op = crate::traced(materializing_probe_op(ht, cfg), cfg.trace);
    let mut stats = run(technique, &mut op, &s.tuples, cfg.params, auto_chain_estimate(ht));
    let matched = op.pipe().matches();
    let mut trace = op.ctx().take_tracer();
    let mid = Relation::from_tuples(op.into_sink().out);
    // Phase 2: aggregate the intermediate.
    let gb = crate::groupby::groupby(table, &mid, technique, &cfg.groupby());
    stats.merge(&gb.stats);
    trace.merge(gb.trace);
    PipelineOutput {
        matched,
        aggregated: gb.tuples,
        checksum: 0,
        stats,
        cycles: timer.cycles(),
        seconds: timer.seconds(),
        intermediate_bytes: mid.bytes() as u64,
        passes: 2,
        trace,
    }
}

/// Fused 2-join chain `S ⋈ R1 ⋈ R2` (probe→filter→probe) in one AMAC
/// window: R1's matched payload is the key probed into R2.
pub fn probe_then_probe(
    ht1: &HashTable,
    ht2: &HashTable,
    s: &Relation,
    technique: Technique,
    cfg: &PipelineConfig,
) -> PipelineOutput {
    let mut op = crate::traced(fused_probe_probe_op(ht1, ht2, cfg), cfg.trace);
    let timer = CycleTimer::start();
    let n = auto_chain_estimate(ht1) + auto_chain_estimate(ht2);
    let stats = run(technique, &mut op, &s.tuples, cfg.params, n);
    let trace = op.ctx().take_tracer();
    PipelineOutput {
        matched: op.pipe().up().matches(),
        aggregated: op.sink().matches,
        checksum: op.sink().checksum,
        stats,
        cycles: timer.cycles(),
        seconds: timer.seconds(),
        intermediate_bytes: 0,
        passes: 1,
        trace,
    }
}

/// Two-phase reference for [`probe_then_probe`]: materialize the first
/// join's filtered output, then probe it against `ht2`.
pub fn probe_then_probe_two_phase(
    ht1: &HashTable,
    ht2: &HashTable,
    s: &Relation,
    technique: Technique,
    cfg: &PipelineConfig,
) -> PipelineOutput {
    let timer = CycleTimer::start();
    let mut op = crate::traced(materializing_probe_op(ht1, cfg), cfg.trace);
    let mut stats = run(technique, &mut op, &s.tuples, cfg.params, auto_chain_estimate(ht1));
    let matched = op.pipe().matches();
    let mut trace = op.ctx().take_tracer();
    let mid = Relation::from_tuples(op.into_sink().out);
    let mut op2 = crate::traced(
        Fused::new(ProbeStage::new(ht2, &cfg.exec()).terminal(), CountChecksum::default()),
        cfg.trace,
    );
    stats.merge(&run(technique, &mut op2, &mid.tuples, cfg.params, auto_chain_estimate(ht2)));
    trace.merge(op2.ctx().take_tracer());
    PipelineOutput {
        matched,
        aggregated: op2.sink().matches,
        checksum: op2.sink().checksum,
        stats,
        cycles: timer.cycles(),
        seconds: timer.seconds(),
        intermediate_bytes: mid.bytes() as u64,
        passes: 2,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_hashtable::agg::AggValues;
    use std::collections::HashMap;

    fn lab(n_dim: usize, n_fact: usize, groups: u64, seed: u64) -> (HashTable, Relation, Relation) {
        let dim = Relation::fk_dimension(n_dim, groups, seed);
        let fact = Relation::fk_uniform(&dim, n_fact, seed ^ 0xFAC7);
        let ht = HashTable::build_serial(&dim);
        (ht, dim, fact)
    }

    fn model(
        dim: &Relation,
        fact: &Relation,
        filter: Option<FilterSpec>,
    ) -> HashMap<u64, AggValues> {
        let by_key: HashMap<u64, u64> = dim.tuples.iter().map(|t| (t.key, t.payload)).collect();
        let mut m: HashMap<u64, AggValues> = HashMap::new();
        for t in &fact.tuples {
            let Some(&group) = by_key.get(&t.key) else { continue };
            if let Some(spec) = filter {
                if !spec.passes(t.payload) {
                    continue;
                }
            }
            m.entry(group)
                .and_modify(|a| a.update(t.payload))
                .or_insert_with(|| AggValues::first(t.payload));
        }
        m
    }

    fn snapshot(table: &AggTable) -> Vec<(u64, AggValues)> {
        let mut g = table.groups();
        g.sort_by_key(|(k, _)| *k);
        g
    }

    #[test]
    fn fused_matches_model_and_two_phase_all_techniques() {
        // A 2^17-tuple dimension puts the probe stage past the lookahead
        // gate.
        for n_dim in [2048, 1 << 17] {
            fused_matches_over(n_dim);
        }
    }

    fn fused_matches_over(n_dim: usize) {
        let (ht, dim, fact) = lab(n_dim, 10_000, 64, 0x11);
        for filter in [None, Some(FilterSpec::selectivity(0.4))] {
            let want = model(&dim, &fact, filter);
            let cfg = PipelineConfig { filter, ..Default::default() };
            let mut reference: Option<Vec<(u64, AggValues)>> = None;
            for technique in Technique::ALL {
                let agg_f = AggTable::for_groups(64);
                let f = probe_then_groupby(&ht, &agg_f, &fact, technique, &cfg);
                let agg_t = AggTable::for_groups(64);
                let t = probe_then_groupby_two_phase(&ht, &agg_t, &fact, technique, &cfg);
                assert_eq!(f.matched, fact.len() as u64, "{technique}: FK probe matches all");
                assert_eq!(f.matched, t.matched, "{technique}");
                assert_eq!(f.aggregated, t.aggregated, "{technique}");
                assert_eq!(f.passes, 1, "{technique}");
                assert_eq!(t.passes, 2, "{technique}");
                assert_eq!(t.intermediate_bytes, t.aggregated * 16, "{technique}");
                let snap = snapshot(&agg_f);
                assert_eq!(snap, snapshot(&agg_t), "{technique}: fused vs two-phase diverge");
                assert_eq!(snap.len(), want.len(), "{technique}");
                for (k, v) in &snap {
                    assert_eq!(want.get(k), Some(v), "{technique}: group {k}");
                }
                match &reference {
                    None => reference = Some(snap),
                    Some(r) => assert_eq!(&snap, r, "{technique} diverges across techniques"),
                }
            }
        }
    }

    #[test]
    fn probe_chain_matches_nested_lookup_model() {
        // S ⋈ R1 ⋈ R2: R1 payloads are keys of R2.
        let r2 = Relation::fk_dimension(64, 1 << 20, 0x22);
        let r1 = Relation::fk_dimension(2048, 64, 0x23);
        let s = Relation::fk_uniform(&r1, 8_000, 0x24);
        let ht1 = HashTable::build_serial(&r1);
        let ht2 = HashTable::build_serial(&r2);
        let k1: HashMap<u64, u64> = r1.tuples.iter().map(|t| (t.key, t.payload)).collect();
        let k2: HashMap<u64, u64> = r2.tuples.iter().map(|t| (t.key, t.payload)).collect();
        for filter in [None, Some(FilterSpec::selectivity(0.6))] {
            let cfg = PipelineConfig { filter, ..Default::default() };
            let (mut want_n, mut want_sum) = (0u64, 0u64);
            for t in &s.tuples {
                let Some(&fk) = k1.get(&t.key) else { continue };
                if let Some(spec) = filter {
                    if !spec.passes(t.payload) {
                        continue;
                    }
                }
                let Some(&p2) = k2.get(&fk) else { continue };
                want_n += 1;
                want_sum = want_sum.wrapping_add(p2);
            }
            for technique in Technique::ALL {
                let f = probe_then_probe(&ht1, &ht2, &s, technique, &cfg);
                let t = probe_then_probe_two_phase(&ht1, &ht2, &s, technique, &cfg);
                assert_eq!(f.aggregated, want_n, "{technique}");
                assert_eq!(f.checksum, want_sum, "{technique}");
                assert_eq!(t.aggregated, want_n, "{technique}: two-phase");
                assert_eq!(t.checksum, want_sum, "{technique}: two-phase");
                assert_eq!(f.intermediate_bytes, 0, "{technique}");
                assert!(t.intermediate_bytes > 0, "{technique}");
            }
        }
    }

    #[test]
    fn zero_selectivity_aggregates_nothing() {
        let (ht, _dim, fact) = lab(512, 2_000, 16, 0x33);
        let cfg =
            PipelineConfig { filter: Some(FilterSpec::selectivity(0.0)), ..Default::default() };
        let agg = AggTable::for_groups(16);
        let out = probe_then_groupby(&ht, &agg, &fact, Technique::Amac, &cfg);
        assert_eq!(out.matched, fact.len() as u64);
        assert_eq!(out.aggregated, 0);
        assert_eq!(agg.group_count(), 0);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let (ht, _dim, _fact) = lab(64, 1, 4, 0x44);
        let agg = AggTable::for_groups(4);
        let out = probe_then_groupby(
            &ht,
            &agg,
            &Relation::default(),
            Technique::Amac,
            &PipelineConfig::default(),
        );
        assert_eq!(out.matched, 0);
        assert_eq!(out.aggregated, 0);
        assert_eq!(out.stats, EngineStats::default());
    }

    #[test]
    fn probe_misses_leave_the_pipeline() {
        let (ht, _dim, _fact) = lab(64, 1, 4, 0x55);
        // Keys far outside the dimension's 1..=64 domain: all misses.
        let s = Relation::from_tuples((0..100u64).map(|i| Tuple::new(1_000_000 + i, i)).collect());
        let agg = AggTable::for_groups(4);
        let out = probe_then_groupby(&ht, &agg, &s, Technique::Amac, &PipelineConfig::default());
        assert_eq!(out.matched, 0);
        assert_eq!(out.aggregated, 0);
        assert_eq!(out.stats.lookups, 100, "every lookup completes as a miss");
    }
}
