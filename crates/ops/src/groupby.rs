//! The group-by operator (§5.2) under all four techniques.
//!
//! Stage decomposition (Table 1 "Group-by" plus the §3.1/§3.2 refinement):
//!
//! * **stage 0** — get tuple, compute bucket address, prefetch;
//! * **stage 1 (unlatched)** — try to latch the chain's header: on failure
//!   the stage makes no progress ([`amac::engine::Step::Blocked`]); on
//!   success fall through to the latched walk *in the same step* (the
//!   header node is already prefetched);
//! * **stage 1b (latched walk)** — the paper's "extra intermediate stage to
//!   avoid deadlocks": once the latch is held the state machine never
//!   re-executes the acquire, it walks the chain node by node (one step per
//!   node, prefetching `next`), then updates the matching group's six
//!   aggregates / claims the empty header / appends a fresh node, releases
//!   the latch and completes.
//!
//! Because an in-flight lookup can *hold* a latch across steps while
//! another in-flight lookup of the same thread *wants* it, skewed inputs
//! create intra-thread conflicts — the dynamics behind Figure 9's GP/SPP
//! collapse at z = 1.

use amac::engine::{run, EngineStats, Hooks, LookupOp, Step, Technique, TuningParams};
use amac_hashtable::agg::AggHandle;
use amac_hashtable::{AggBucket, AggTable};
use amac_mem::prefetch::{prefetch_read, prefetch_write};
use amac_mem::{slab_of_index, NULL_INDEX};
use amac_metrics::timer::CycleTimer;
use amac_tier::{AddrClass, ExecCtx, ExecSpec, Ledger, TierSpec};
use amac_trace::Tracer;
use amac_workload::{GroupByInput, Relation, Tuple};
use core::convert::Infallible;

/// Group-by configuration.
#[derive(Debug, Clone, Default)]
pub struct GroupByConfig {
    /// Executor tuning (the paper's `M`).
    pub params: TuningParams,
    /// Memory-tier cost model (headers pay the header tier, chained
    /// group nodes the slab tier; blocked latch attempts count
    /// as executed stages, so multi-threaded simulated counters are only
    /// run-to-run deterministic single-threaded). See
    /// [`ProbeConfig::tier`](crate::join::ProbeConfig::tier).
    pub tier: Option<TierSpec>,
    /// Issue coalescing (see
    /// [`ProbeConfig::coalesce`](crate::join::ProbeConfig::coalesce)):
    /// skewed inputs hit the same hot group headers, so in-flight lanes
    /// of one commit group collapse onto shared line requests. `None`
    /// (default) = scalar issue.
    pub coalesce: Option<usize>,
    /// Record a structured trace into [`GroupByOutput::trace`] (see
    /// [`ProbeConfig::trace`](crate::join::ProbeConfig::trace)). A
    /// blocked latch attempt re-waits the same ticket but records no new
    /// load: one load event per issued request.
    pub trace: bool,
}

impl GroupByConfig {
    /// The execution context this config describes.
    pub fn exec(&self) -> ExecSpec {
        ExecSpec { tier: self.tier, coalesce: self.coalesce, ..Default::default() }
    }
}

/// The group-by's GP/SPP stage budget `N`: one stage to acquire the
/// header latch plus one latched walk of a 1-node chain, the common case
/// when the table is sized one bucket per expected group
/// ([`AggTable::for_groups`]). Chained groups or latch conflicts need more
/// steps and fall into GP/SPP's sequential bailout, which is the measured
/// behaviour (Fig. 9), not a bug.
pub(crate) const STAGES: usize = 2;

/// Result of one group-by run.
#[derive(Debug, Clone, Default)]
pub struct GroupByOutput {
    /// Tuples aggregated.
    pub tuples: u64,
    /// Executor event counters.
    pub stats: EngineStats,
    /// Aggregation-loop cycles.
    pub cycles: u64,
    /// Aggregation-loop wall time.
    pub seconds: f64,
    /// Structured trace harvested from the op (disabled and empty unless
    /// [`GroupByConfig::trace`] was set).
    pub trace: Tracer,
}

/// Per-lookup state.
pub struct GroupByState {
    key: u64,
    payload: u64,
    header: *const AggBucket,
    cur: *const AggBucket,
    latched: bool,
    /// Simulated tick the prefetched line arrives (tiered runs only).
    ready_at: u64,
    /// Chain hop index of the pending load (0 = header), for traced
    /// stall attribution.
    hop: u32,
    /// A load was issued and its trace event not yet recorded. Cleared
    /// at the first wait; a blocked latch attempt re-enters `step` and
    /// re-waits the same ticket without recording a duplicate event.
    pending: bool,
    /// AMU commit group this lookup's lane was born into.
    group: u32,
}

impl Default for GroupByState {
    fn default() -> Self {
        GroupByState {
            key: 0,
            payload: 0,
            header: core::ptr::null(),
            cur: core::ptr::null(),
            latched: false,
            ready_at: 0,
            hop: 0,
            pending: false,
            group: 0,
        }
    }
}

/// The group-by lookup state machine.
pub struct GroupByOp<'a> {
    handle: AggHandle<'a>,
    tuples: u64,
    /// The op's execution context (also reachable, type-erased, through
    /// `ctx`).
    pub cx: ExecCtx,
}

impl<'a> GroupByOp<'a> {
    /// Create the op, aggregating into `table` in the context `spec`
    /// describes.
    pub fn new(table: &'a AggTable, spec: &ExecSpec) -> Self {
        GroupByOp { handle: table.handle(), tuples: 0, cx: ExecCtx::new(spec) }
    }

    /// Tuples aggregated so far (for drivers that own the op).
    #[inline]
    pub fn tuples(&self) -> u64 {
        self.tuples
    }
}

/// [`GroupByOp`]'s loop-carried scalars: its ledger and tuple count.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupByTally {
    led: Ledger,
    tuples: u64,
}

impl LookupOp for GroupByOp<'_> {
    type Input = Tuple;
    type State = GroupByState;
    type Tally = GroupByTally;
    type Output = Infallible;

    #[inline(always)]
    fn start<const PLAIN: bool>(
        &mut self,
        t: &mut GroupByTally,
        input: Tuple,
        state: &mut GroupByState,
    ) {
        let header = self.handle.table().bucket_addr(input.key);
        state.key = input.key;
        state.payload = input.payload;
        state.header = header;
        state.cur = core::ptr::null();
        state.latched = false;
        state.hop = 0;
        // Group-by writes the header, so a coalesced (non-fresh) ticket
        // still only suppresses the hardware hint — never the latch walk.
        // So does a context whose hint is `None` (the ablation); any other
        // hint keeps the op's own write/read prefetch instructions. A
        // plain stage (its context's hint is `Nta`) only counts the load:
        // no lane to open, no arrival tick to keep, no load event pending.
        let prefetch = if !PLAIN {
            state.pending = true;
            state.group = self.cx.begin_lane();
            let ticket = self.cx.request(AddrClass::header_ptr(header), 0, state.group);
            state.ready_at = ticket.ready_at;
            ticket.fresh && self.cx.hint().is_real()
        } else {
            t.led.issued_loads += 1;
            true
        };
        if prefetch {
            prefetch_write(header);
        }
    }

    #[inline(always)]
    fn step<const PLAIN: bool>(&mut self, t: &mut GroupByTally, state: &mut GroupByState) -> Step {
        // The latch word shares the (prefetched) header line; a blocked
        // attempt is executed work that read the line. Only the *first*
        // wait on a ticket records a load event (a blocked retry re-waits
        // at zero stall), keeping one event per issued request while the
        // attributed stall stays exactly what the wait charges.
        if !PLAIN {
            if state.pending {
                state.pending = false;
                self.cx.trace_load("groupby", state.key, state.hop, state.ready_at);
            }
            self.cx.wait(state.ready_at);
            self.cx.stage();
        }
        // SAFETY: header/cur point at the table's headers or arena-owned
        // chain nodes; mutation happens only while `latched`.
        unsafe {
            if !state.latched {
                if !(*state.header).latch.try_acquire() {
                    return Step::Blocked;
                }
                state.latched = true;
                state.cur = state.header;
                // Fall through: process the (prefetched) header now.
            }
            t.led.nodes_visited += 1;
            let idx = self.handle.visit_latched(state.cur, state.key, state.payload);
            if idx == NULL_INDEX {
                // Updated, claimed or appended: the tuple is aggregated.
                (*state.header).latch.release();
                t.tuples += 1;
                if !PLAIN {
                    self.cx.retire("groupby", state.key, state.hop, state.group);
                }
                return Step::Done;
            }
            let next = self.handle.table().node_ptr(idx);
            state.cur = next;
            state.hop += 1;
            let prefetch = if !PLAIN {
                state.pending = true;
                let class = AddrClass::slab_ptr(slab_of_index(idx), next);
                let ticket = self.cx.request(class, 0, state.group);
                state.ready_at = ticket.ready_at;
                ticket.fresh && self.cx.hint().is_real()
            } else {
                t.led.issued_loads += 1;
                true
            };
            if prefetch {
                prefetch_read(next);
            }
            Step::Continue
        }
    }

    #[inline(always)]
    fn tally(&self) -> GroupByTally {
        GroupByTally { led: Ledger::default(), tuples: self.tuples }
    }

    #[inline(always)]
    fn settle(&mut self, t: GroupByTally) {
        self.tuples = t.tuples;
        self.cx.settle(t.led);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.cx
    }
}

/// Run the group-by of `input` into `table` with `technique`.
pub fn groupby(
    table: &AggTable,
    input: &Relation,
    technique: Technique,
    cfg: &GroupByConfig,
) -> GroupByOutput {
    let mut op = crate::traced(GroupByOp::new(table, &cfg.exec()), cfg.trace);
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &input.tuples, cfg.params, STAGES);
    let trace = op.cx.take_tracer();
    GroupByOutput {
        tuples: op.tuples,
        stats,
        cycles: timer.cycles(),
        seconds: timer.seconds(),
        trace,
    }
}

/// Convenience: size a table for `input` and aggregate it.
pub fn groupby_fresh(
    input: &GroupByInput,
    technique: Technique,
    cfg: &GroupByConfig,
) -> (AggTable, GroupByOutput) {
    let table = AggTable::for_groups(input.groups);
    let out = groupby(&table, &input.relation, technique, cfg);
    (table, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_hashtable::agg::AggValues;
    use std::collections::HashMap;

    fn model_of(rel: &Relation) -> HashMap<u64, AggValues> {
        let mut m: HashMap<u64, AggValues> = HashMap::new();
        for t in &rel.tuples {
            m.entry(t.key)
                .and_modify(|a| a.update(t.payload))
                .or_insert_with(|| AggValues::first(t.payload));
        }
        m
    }

    fn assert_table_matches(table: &AggTable, model: &HashMap<u64, AggValues>, tag: &str) {
        assert_eq!(table.group_count(), model.len(), "{tag}: group count");
        for (k, v) in model {
            assert_eq!(table.get(*k).as_ref(), Some(v), "{tag}: group {k}");
        }
    }

    #[test]
    fn uniform_input_all_techniques_match_model() {
        let input = GroupByInput::uniform(2000, 3, 31);
        let model = model_of(&input.relation);
        for t in Technique::ALL {
            let (table, out) = groupby_fresh(&input, t, &GroupByConfig::default());
            assert_eq!(out.tuples, input.len() as u64, "{t}");
            assert_eq!(out.stats.lookups, input.len() as u64, "{t}");
            assert_table_matches(&table, &model, t.label());
        }
    }

    #[test]
    fn zipf_skew_conflicts_resolve_correctly() {
        // z = 1 over few groups: heavy intra-buffer latch conflicts.
        let input = GroupByInput::zipf(64, 20_000, 1.0, 33);
        let model = model_of(&input.relation);
        for t in Technique::ALL {
            let (table, out) = groupby_fresh(&input, t, &GroupByConfig::default());
            assert_eq!(out.tuples, input.len() as u64, "{t}");
            assert_table_matches(&table, &model, t.label());
            if t == Technique::Amac {
                assert!(
                    out.stats.latch_retries > 0,
                    "hot groups must produce deferred retries under AMAC"
                );
            }
        }
    }

    #[test]
    fn single_group_pathological_case() {
        // Every tuple hits one group: worst-case serialization.
        let tuples: Vec<Tuple> = (0..5000).map(|i| Tuple::new(42, i)).collect();
        let input = GroupByInput { relation: Relation::from_tuples(tuples), groups: 1 };
        for t in Technique::ALL {
            let (table, out) = groupby_fresh(&input, t, &GroupByConfig::default());
            assert_eq!(out.tuples, 5000, "{t}");
            let a = table.get(42).unwrap();
            assert_eq!(a.count, 5000, "{t}");
            assert_eq!(a.sum, (0..5000u64).sum::<u64>(), "{t}");
            assert_eq!(a.min, 0, "{t}");
            assert_eq!(a.max, 4999, "{t}");
        }
    }

    #[test]
    fn forced_chain_collisions() {
        // 1-bucket table: every distinct group chains behind one header,
        // exercising the latched multi-node walk stages.
        let tuples: Vec<Tuple> = (0..600u64).map(|i| Tuple::new(i % 20, i)).collect();
        let rel = Relation::from_tuples(tuples);
        let model = model_of(&rel);
        for t in Technique::ALL {
            let table = AggTable::with_buckets(1);
            let out = groupby(&table, &rel, t, &GroupByConfig::default());
            assert_eq!(out.tuples, 600, "{t}");
            assert_table_matches(&table, &model, t.label());
        }
    }

    #[test]
    fn empty_input() {
        let table = AggTable::for_groups(8);
        let out = groupby(&table, &Relation::default(), Technique::Amac, &GroupByConfig::default());
        assert_eq!(out.tuples, 0);
        assert_eq!(table.group_count(), 0);
    }
}
