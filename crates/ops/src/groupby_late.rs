//! Late-aggregation group-by (§2.1.1's second strategy: "the payloads are
//! added to a separate list pointed to by the hash table node") under all
//! four techniques.
//!
//! Stage structure mirrors [`crate::groupby`] — prefetch header, try-latch,
//! latched chain walk — but the terminal action buffers the payload into
//! the group's chunk list instead of folding aggregates, and aggregates
//! are computed at read time via
//! [`amac_hashtable::late::LateAggTable::finalize`].

use amac::engine::{run, EngineStats, Hooks, LookupOp, Step, Technique, TuningParams};
use amac_hashtable::late::{LateAggTable, LateBucket, LateHandle};
use amac_mem::prefetch::{prefetch_read, prefetch_write};
use amac_mem::NULL_INDEX;
use amac_metrics::timer::CycleTimer;
use amac_tier::{ExecCtx, ExecSpec};
use amac_workload::{Relation, Tuple};

/// Configuration (same knobs as the immediate-aggregation operator).
#[derive(Debug, Clone, Default)]
pub struct LateGroupByConfig {
    /// Executor tuning (the paper's `M`).
    pub params: TuningParams,
    /// GP/SPP stage budget (`N`); `0` = 2.
    pub n_stages: usize,
}

/// Result of one late-aggregation run.
#[derive(Debug, Clone, Default)]
pub struct LateGroupByOutput {
    /// Tuples buffered.
    pub tuples: u64,
    /// Executor counters.
    pub stats: EngineStats,
    /// Loop cycles.
    pub cycles: u64,
    /// Loop wall time.
    pub seconds: f64,
}

/// Per-lookup state.
pub struct LateState {
    key: u64,
    payload: u64,
    header: *const LateBucket,
    cur: *const LateBucket,
    latched: bool,
}

impl Default for LateState {
    fn default() -> Self {
        LateState {
            key: 0,
            payload: 0,
            header: core::ptr::null(),
            cur: core::ptr::null(),
            latched: false,
        }
    }
}

/// The late-aggregation lookup state machine.
pub struct LateGroupByOp<'a> {
    handle: LateHandle<'a>,
    n_stages: usize,
    tuples: u64,
    cx: ExecCtx,
}

impl<'a> LateGroupByOp<'a> {
    /// Create the op, buffering into `table`.
    pub fn new(table: &'a LateAggTable, cfg: &LateGroupByConfig) -> Self {
        LateGroupByOp {
            handle: table.handle(),
            n_stages: if cfg.n_stages == 0 { 2 } else { cfg.n_stages },
            tuples: 0,
            cx: ExecCtx::new(&ExecSpec::default()),
        }
    }
}

impl LookupOp for LateGroupByOp<'_> {
    type Input = Tuple;
    type State = LateState;

    fn budgeted_steps(&self) -> usize {
        self.n_stages
    }

    fn start(&mut self, input: Tuple, state: &mut LateState) {
        let header = self.handle.table().bucket_addr(input.key);
        prefetch_write(header);
        state.key = input.key;
        state.payload = input.payload;
        state.header = header;
        state.cur = core::ptr::null();
        state.latched = false;
    }

    fn step(&mut self, state: &mut LateState) -> Step {
        // SAFETY: header/cur point into the table; mutation only while
        // `latched` (same discipline as the immediate-aggregation op).
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
            if d.tuples != 0 && d.key != state.key && d.next != NULL_INDEX {
                // Mid-chain, no match yet: one node per stage.
                let next = self.handle.table().node_ptr(d.next);
                prefetch_read(next);
                state.cur = next;
                return Step::Continue;
            }
            // Terminal cases (claim empty header / append to match /
            // chain a fresh node) are all handled by append_latched,
            // which resumes from the current node.
            self.handle.append_latched(state.cur, state.key, state.payload);
            (*state.header).latch.release();
            self.tuples += 1;
            Step::Done
        }
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.cx
    }
}

/// Run the late-aggregation group-by of `input` into `table`.
pub fn groupby_late(
    table: &LateAggTable,
    input: &Relation,
    technique: Technique,
    cfg: &LateGroupByConfig,
) -> LateGroupByOutput {
    let mut op = LateGroupByOp::new(table, cfg);
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &input.tuples, cfg.params);
    LateGroupByOutput { tuples: op.tuples, stats, cycles: timer.cycles(), seconds: timer.seconds() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_hashtable::agg::AggValues;
    use std::collections::HashMap;

    fn model_of(rel: &Relation) -> HashMap<u64, Vec<u64>> {
        let mut m: HashMap<u64, Vec<u64>> = HashMap::new();
        for t in &rel.tuples {
            m.entry(t.key).or_default().push(t.payload);
        }
        m
    }

    #[test]
    fn buffers_exact_multisets_all_techniques() {
        let rel = Relation::from_tuples((0..6000u64).map(|i| Tuple::new(i % 97, i)).collect());
        let model = model_of(&rel);
        for t in Technique::ALL {
            let table = LateAggTable::for_groups(97);
            let out = groupby_late(&table, &rel, t, &LateGroupByConfig::default());
            assert_eq!(out.tuples, 6000, "{t}");
            assert_eq!(table.group_count(), model.len(), "{t}");
            for (k, want) in &model {
                let mut got = table.payloads(*k).unwrap();
                let mut want = want.clone();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{t}: group {k}");
            }
        }
    }

    #[test]
    fn finalize_equals_immediate_aggregation_operator() {
        use crate::groupby::{groupby_fresh, GroupByConfig};
        let input = amac_workload::GroupByInput::zipf(64, 10_000, 0.8, 0x1A7E);
        // Immediate aggregation reference.
        let (imm_table, _) = groupby_fresh(&input, Technique::Baseline, &GroupByConfig::default());
        // Late aggregation with AMAC.
        let late_table = LateAggTable::for_groups(64);
        groupby_late(&late_table, &input.relation, Technique::Amac, &Default::default());
        for (k, want) in imm_table.groups() {
            let got: AggValues = late_table.finalize(k).unwrap();
            assert_eq!(got, want, "group {k}");
        }
    }

    #[test]
    fn single_hot_group_under_pressure() {
        let rel = Relation::from_tuples((0..3000u64).map(|i| Tuple::new(9, i)).collect());
        for t in Technique::ALL {
            let table = LateAggTable::with_buckets(1);
            let cfg = LateGroupByConfig {
                params: TuningParams::with_in_flight(16),
                ..Default::default()
            };
            let out = groupby_late(&table, &rel, t, &cfg);
            assert_eq!(out.tuples, 3000, "{t}");
            assert_eq!(table.payloads(9).unwrap().len(), 3000, "{t}");
        }
    }

    #[test]
    fn empty_input() {
        let table = LateAggTable::for_groups(4);
        let out = groupby_late(&table, &Relation::default(), Technique::Spp, &Default::default());
        assert_eq!(out.tuples, 0);
        assert_eq!(table.group_count(), 0);
    }
}
