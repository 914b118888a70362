//! A/B drivers over the **legacy** pointer-linked 2-tuple node layout
//! (`amac_hashtable::legacy`).
//!
//! These ops mirror [`crate::join::ProbeOp`] and
//! [`crate::groupby::GroupByOp`] stage for stage — same state machines,
//! same executor contract, same counters — but walk the seed's layout:
//! 2 inline tuples, no tag filter, 8-byte `next` pointers. Running both
//! layouts over identical inputs under all four executors and the morsel
//! runtime is what turns the node redesign into a deterministic metric:
//! equal matches/checksums/aggregates, fewer
//! [`nodes_visited`](amac::engine::EngineStats::nodes_visited) per lookup
//! (see `bench/bin/layout` and `tests/layout_ab.rs`).

use amac::engine::{run, EngineStats, Hooks, LookupOp, Step, Technique, TuningParams};
use amac_hashtable::legacy::{LegacyAggBucket, LegacyAggHandle, LegacyBucket};
use amac_hashtable::{LegacyAggTable, LegacyHashTable, LEGACY_TUPLES_PER_NODE};
use amac_mem::prefetch::{prefetch_read, prefetch_write};
use amac_metrics::timer::CycleTimer;
use amac_runtime::{execute, MorselConfig};
use amac_tier::{ExecCtx, ExecSpec};
use amac_workload::{Relation, Tuple};

/// Result of one legacy probe run (same shape as the layout-relevant
/// subset of [`crate::join::ProbeOutput`]).
#[derive(Debug, Clone, Default)]
pub struct LegacyProbeOutput {
    /// Total key matches found.
    pub matches: u64,
    /// Wrapping sum of matched build payloads.
    pub checksum: u64,
    /// Executor counters (including `nodes_visited`).
    pub stats: EngineStats,
    /// Probe-loop cycles.
    pub cycles: u64,
}

/// Per-lookup state of a [`LegacyProbeOp`].
pub struct LegacyProbeState {
    key: u64,
    ptr: *const LegacyBucket,
    /// Simulated tick the prefetched line arrives (tiered runs only).
    ready_at: u64,
    /// AMU commit group this lookup's lane was born into.
    group: u32,
}

impl Default for LegacyProbeState {
    fn default() -> Self {
        LegacyProbeState { key: 0, ptr: core::ptr::null(), ready_at: 0, group: 0 }
    }
}

/// The probe state machine over the legacy layout.
pub struct LegacyProbeOp<'a> {
    ht: &'a LegacyHashTable,
    scan_all: bool,
    n_stages: usize,
    matches: u64,
    checksum: u64,
    cx: ExecCtx,
}

impl<'a> LegacyProbeOp<'a> {
    /// Build the op; `scan_all` as for
    /// [`ProbeConfig`](crate::join::ProbeConfig). The legacy layout's
    /// pointer-linked chunks carry no slab indices, so under a tiered
    /// `spec` every chain node is charged as arena slab `0` — under the
    /// shipped policies that is the same near/far assignment as the
    /// tag-probed layout's nodes, keeping A/B comparisons honest.
    pub fn new(ht: &'a LegacyHashTable, scan_all: bool, spec: &ExecSpec) -> Self {
        let tuples = ht.tuple_count();
        let per_bucket = tuples.div_ceil(ht.bucket_count() as u64).max(1);
        LegacyProbeOp {
            ht,
            scan_all,
            n_stages: per_bucket.div_ceil(LEGACY_TUPLES_PER_NODE as u64).max(1) as usize,
            matches: 0,
            checksum: 0,
            cx: ExecCtx::new(spec),
        }
    }

    /// Matches found so far.
    #[inline]
    pub fn matches(&self) -> u64 {
        self.matches
    }

    /// Order-independent payload checksum accumulated so far.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

impl LookupOp for LegacyProbeOp<'_> {
    type Input = Tuple;
    type State = LegacyProbeState;

    fn budgeted_steps(&self) -> usize {
        self.n_stages
    }

    fn start(&mut self, input: Tuple, state: &mut LegacyProbeState) {
        let ptr = self.ht.bucket_addr(input.key);
        state.key = input.key;
        state.ptr = ptr;
        state.group = self.cx.begin_lane();
        state.ready_at = self.cx.issue_header(ptr, state.group).ready_at;
    }

    fn step(&mut self, state: &mut LegacyProbeState) -> Step {
        self.cx.wait(state.ready_at);
        self.cx.stage();
        // SAFETY: read-only probe phase; nodes owned by the table.
        let d = unsafe { (*state.ptr).data() };
        self.cx.obs.nodes_visited += 1;
        let mut hit = false;
        for i in 0..d.count as usize {
            let t = d.tuples[i];
            if t.key == state.key {
                self.matches += 1;
                self.checksum = self.checksum.wrapping_add(t.payload);
                hit = true;
            }
        }
        let next = d.next;
        if (hit && !self.scan_all) || next.is_null() {
            self.cx.retire_lane(state.group);
            return Step::Done;
        }
        state.ptr = next;
        // Legacy chunks have no slab indices; charged as slab 0.
        state.ready_at = self.cx.issue_slab(0, next, 0, state.group).ready_at;
        Step::Continue
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.cx
    }
}

/// Probe `s` against the legacy table with `technique`.
pub fn probe_legacy(
    ht: &LegacyHashTable,
    s: &Relation,
    technique: Technique,
    params: TuningParams,
    scan_all: bool,
) -> LegacyProbeOutput {
    let mut op = LegacyProbeOp::new(ht, scan_all, &ExecSpec::default());
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &s.tuples, params);
    LegacyProbeOutput { matches: op.matches, checksum: op.checksum, stats, cycles: timer.cycles() }
}

/// Probe on the morsel runtime (one legacy op + persistent AMAC window per
/// worker), mirroring [`crate::parallel::probe_mt_rt`].
pub fn probe_legacy_mt_rt(
    ht: &LegacyHashTable,
    s: &Relation,
    technique: Technique,
    params: TuningParams,
    scan_all: bool,
    rt: &MorselConfig,
) -> LegacyProbeOutput {
    let run = execute(&s.tuples, technique, params, rt, |_tid| {
        LegacyProbeOp::new(ht, scan_all, &ExecSpec::default())
    });
    let mut out = LegacyProbeOutput { stats: run.report.stats, ..Default::default() };
    for op in &run.ops {
        out.matches += op.matches();
        out.checksum = out.checksum.wrapping_add(op.checksum());
    }
    out
}

/// Per-lookup state of a [`LegacyGroupByOp`].
pub struct LegacyGroupByState {
    key: u64,
    payload: u64,
    header: *const LegacyAggBucket,
    cur: *const LegacyAggBucket,
    latched: bool,
}

impl Default for LegacyGroupByState {
    fn default() -> Self {
        LegacyGroupByState {
            key: 0,
            payload: 0,
            header: core::ptr::null(),
            cur: core::ptr::null(),
            latched: false,
        }
    }
}

/// The group-by state machine over the legacy aggregate layout
/// (acquire → latched walk → update/claim/append, as
/// [`crate::groupby::GroupByOp`]).
pub struct LegacyGroupByOp<'a> {
    handle: LegacyAggHandle<'a>,
    tuples: u64,
    cx: ExecCtx,
}

impl<'a> LegacyGroupByOp<'a> {
    /// Create the op, aggregating into `table`.
    pub fn new(table: &'a LegacyAggTable) -> Self {
        LegacyGroupByOp {
            handle: table.handle(),
            tuples: 0,
            cx: ExecCtx::new(&ExecSpec::default()),
        }
    }

    /// Tuples aggregated so far.
    #[inline]
    pub fn tuples(&self) -> u64 {
        self.tuples
    }
}

impl LookupOp for LegacyGroupByOp<'_> {
    type Input = Tuple;
    type State = LegacyGroupByState;

    fn budgeted_steps(&self) -> usize {
        2
    }

    fn start(&mut self, input: Tuple, state: &mut LegacyGroupByState) {
        let header = self.handle.table().bucket_addr(input.key);
        prefetch_write(header);
        state.key = input.key;
        state.payload = input.payload;
        state.header = header;
        state.cur = core::ptr::null();
        state.latched = false;
    }

    fn step(&mut self, state: &mut LegacyGroupByState) -> Step {
        use amac_hashtable::agg::AggValues;
        // SAFETY: header/cur point at the table's headers or arena-owned
        // chain nodes; mutation happens only while `latched`.
        unsafe {
            if !state.latched {
                if !(*state.header).latch.try_acquire() {
                    return Step::Blocked;
                }
                state.latched = true;
                state.cur = state.header;
            }
            let d = (*state.cur).data_mut();
            self.cx.obs.nodes_visited += 1;
            if d.aggs.count == 0 {
                d.key = state.key;
                d.aggs = AggValues::first(state.payload);
                (*state.header).latch.release();
                self.tuples += 1;
                return Step::Done;
            }
            if d.key == state.key {
                d.aggs.update(state.payload);
                (*state.header).latch.release();
                self.tuples += 1;
                return Step::Done;
            }
            if d.next.is_null() {
                let fresh = self.handle.alloc_node();
                let fd = (*fresh).data_mut();
                fd.key = state.key;
                fd.aggs = AggValues::first(state.payload);
                d.next = fresh;
                (*state.header).latch.release();
                self.tuples += 1;
                return Step::Done;
            }
            prefetch_read(d.next);
            state.cur = d.next;
            Step::Continue
        }
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.cx
    }
}

/// Result of one legacy group-by run.
#[derive(Debug, Clone, Default)]
pub struct LegacyGroupByOutput {
    /// Tuples aggregated.
    pub tuples: u64,
    /// Executor counters.
    pub stats: EngineStats,
}

/// Aggregate `input` into the legacy table with `technique`.
pub fn groupby_legacy(
    table: &LegacyAggTable,
    input: &Relation,
    technique: Technique,
    params: TuningParams,
) -> LegacyGroupByOutput {
    let mut op = LegacyGroupByOp::new(table);
    let stats = run(technique, &mut op, &input.tuples, params);
    LegacyGroupByOutput { tuples: op.tuples, stats }
}

/// Group-by on the morsel runtime, mirroring
/// [`crate::parallel::groupby_mt_rt`].
pub fn groupby_legacy_mt_rt(
    table: &LegacyAggTable,
    input: &Relation,
    technique: Technique,
    params: TuningParams,
    rt: &MorselConfig,
) -> LegacyGroupByOutput {
    let rt = MorselConfig { auto_tune: false, ..rt.clone() };
    let run = execute(&input.tuples, technique, params, &rt, |_tid| LegacyGroupByOp::new(table));
    LegacyGroupByOutput {
        tuples: run.ops.iter().map(|op| op.tuples()).sum(),
        stats: run.report.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_probe_matches_new_probe() {
        let r = Relation::dense_unique(4096, 0xAB);
        let s = Relation::fk_uniform(&r, 10_000, 0xAC);
        let old = LegacyHashTable::build_serial(&r);
        let new = amac_hashtable::HashTable::build_serial(&r);
        let new_out = crate::join::probe(
            &new,
            &s,
            Technique::Amac,
            &crate::join::ProbeConfig { materialize: false, ..Default::default() },
        );
        for t in Technique::ALL {
            let out = probe_legacy(&old, &s, t, TuningParams::default(), false);
            assert_eq!(out.matches, new_out.matches, "{t}");
            assert_eq!(out.checksum, new_out.checksum, "{t}");
            assert!(out.stats.nodes_visited > 0, "{t}: nodes must be counted");
        }
    }

    #[test]
    fn legacy_groupby_matches_new_groupby() {
        let input = amac_workload::GroupByInput::zipf(64, 20_000, 0.9, 0xAD);
        let new_table = amac_hashtable::AggTable::for_groups(64);
        crate::groupby::groupby(&new_table, &input.relation, Technique::Amac, &Default::default());
        let mut want = new_table.groups();
        want.sort_by_key(|(k, _)| *k);
        for t in Technique::ALL {
            let table = LegacyAggTable::for_groups(64);
            let out = groupby_legacy(&table, &input.relation, t, TuningParams::default());
            assert_eq!(out.tuples, input.len() as u64, "{t}");
            let mut got = table.groups();
            got.sort_by_key(|(k, _)| *k);
            assert_eq!(got, want, "{t}: legacy aggregates diverge from tag-probed");
        }
    }
}
