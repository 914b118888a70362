//! Coroutine group-by: §3.2's read/write-dependency handling in the
//! coroutine model.
//!
//! The hand-written AMAC group-by needs an explicit *extra intermediate
//! stage* ("1b") so a lookup that already holds the latch never re-runs
//! the acquire — the paper's deadlock-avoidance refinement. In the
//! coroutine formulation that bookkeeping disappears: the latch state
//! lives in the coroutine's control flow (`loop { try_acquire ∥ yield }`
//! runs *before* the walk, so resumption after a yield continues exactly
//! where it left off). The cooperative retry is still the paper's
//! coarse-grained spin: a failed acquire suspends for one ring rotation
//! instead of burning cycles in place.
//!
//! Works single- and multi-threaded (the latch is an atomic test-and-set;
//! cross-thread conflicts yield exactly like intra-ring ones).

use crate::executor::{
    prefetch_yield, prefetch_yield_write, run_interleaved, yield_now, InterleaveStats,
};
use amac_hashtable::agg::AggHandle;
use amac_hashtable::AggTable;
use amac_metrics::timer::CycleTimer;
use amac_workload::Relation;
use core::cell::RefCell;

/// Aggregate one tuple into its group as a coroutine.
///
/// `handle` is shared by every coroutine in the ring via `RefCell`: node
/// allocation is the only mutation and is transient (never held across a
/// yield), so the ring cannot observe a conflicting borrow.
pub async fn groupby_one(handle: &RefCell<AggHandle<'_>>, key: u64, payload: u64) {
    let header = handle.borrow().table().bucket_addr(key);
    prefetch_yield_write(header).await;
    // Latch acquire with cooperative retry (the §3.2 discipline).
    // SAFETY: header points at a bucket header of the live table; latch
    // and chain access follow the same protocol as the state-machine op.
    unsafe {
        while !(*header).latch.try_acquire() {
            yield_now().await;
        }
        let mut cur = header;
        loop {
            let idx = handle.borrow_mut().visit_latched(cur, key, payload);
            if idx == amac_mem::NULL_INDEX {
                (*header).latch.release();
                return;
            }
            let next = handle.borrow().table().node_ptr(idx);
            prefetch_yield(next).await;
            cur = next;
        }
    }
}

/// Output of a coroutine group-by run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoroGroupByOutput {
    /// Tuples aggregated.
    pub tuples: u64,
    /// Ring counters.
    pub stats: InterleaveStats,
    /// Aggregation-loop cycles.
    pub cycles: u64,
    /// Aggregation-loop wall time.
    pub seconds: f64,
}

/// Aggregate `input` into `table` with `width` coroutines in flight.
pub fn coro_groupby(table: &AggTable, input: &Relation, width: usize) -> CoroGroupByOutput {
    let handle = RefCell::new(table.handle());
    let timer = CycleTimer::start();
    let stats = run_interleaved(
        width,
        &input.tuples,
        |_, t| groupby_one(&handle, t.key, t.payload),
        |_, ()| {},
    );
    CoroGroupByOutput {
        tuples: stats.completed,
        stats,
        cycles: timer.cycles(),
        seconds: timer.seconds(),
    }
}

/// Multi-threaded [`coro_groupby`]: the input is split into `threads`
/// chunks, each aggregated by its own coroutine ring into the shared
/// table (cross-thread latch conflicts yield cooperatively).
pub fn coro_groupby_mt(
    table: &AggTable,
    input: &Relation,
    width: usize,
    threads: usize,
) -> CoroGroupByOutput {
    let threads = threads.max(1);
    let chunk = input.len().div_ceil(threads).max(1);
    let timer = CycleTimer::start();
    let mut total = CoroGroupByOutput::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = input
            .tuples
            .chunks(chunk)
            .map(|tuples| {
                s.spawn(move || {
                    let handle = RefCell::new(table.handle());
                    run_interleaved(
                        width,
                        tuples,
                        |_, t| groupby_one(&handle, t.key, t.payload),
                        |_, ()| {},
                    )
                })
            })
            .collect();
        for h in handles {
            let stats = h.join().expect("group-by worker panicked");
            total.tuples += stats.completed;
            total.stats.completed += stats.completed;
            total.stats.polls += stats.polls;
            total.stats.future_bytes = stats.future_bytes;
            total.stats.width = stats.width;
        }
    });
    total.cycles = timer.cycles();
    total.seconds = timer.seconds();
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_hashtable::agg::AggValues;
    use amac_workload::{GroupByInput, Tuple};
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

    fn assert_matches(table: &AggTable, model: &HashMap<u64, AggValues>, tag: &str) {
        assert_eq!(table.group_count(), model.len(), "{tag}");
        for (k, v) in model {
            assert_eq!(table.get(*k).as_ref(), Some(v), "{tag}: group {k}");
        }
    }

    #[test]
    fn uniform_input_matches_model() {
        let input = GroupByInput::uniform(1500, 3, 71);
        let model = model_of(&input.relation);
        let table = AggTable::for_groups(input.groups);
        let out = coro_groupby(&table, &input.relation, 10);
        assert_eq!(out.tuples, input.len() as u64);
        assert_matches(&table, &model, "uniform");
    }

    #[test]
    fn skewed_input_with_intra_ring_conflicts() {
        // z = 1 over few groups: the same latch is wanted by many ring
        // slots at once; cooperative yields must resolve it.
        let input = GroupByInput::zipf(32, 10_000, 1.0, 73);
        let model = model_of(&input.relation);
        let table = AggTable::for_groups(32);
        let out = coro_groupby(&table, &input.relation, 16);
        assert_eq!(out.tuples, input.len() as u64);
        assert_matches(&table, &model, "zipf");
        // Conflicts show up as extra polls beyond the conflict-free
        // minimum of 2 per lookup (start + post-latch resume).
        assert!(out.stats.polls > 2 * out.tuples, "hot latches must force retries");
    }

    #[test]
    fn single_group_serialization() {
        let rel = Relation::from_tuples((0..4000).map(|i| Tuple::new(9, i)).collect());
        let table = AggTable::with_buckets(1);
        let out = coro_groupby(&table, &rel, 12);
        assert_eq!(out.tuples, 4000);
        let a = table.get(9).unwrap();
        assert_eq!(a.count, 4000);
        assert_eq!(a.sum, (0..4000u64).sum::<u64>());
    }

    #[test]
    fn multithreaded_matches_model() {
        let input = GroupByInput::zipf(64, 24_000, 0.9, 77);
        let model = model_of(&input.relation);
        let table = AggTable::for_groups(64);
        let out = coro_groupby_mt(&table, &input.relation, 8, 4);
        assert_eq!(out.tuples, input.len() as u64);
        assert_matches(&table, &model, "mt");
    }

    #[test]
    fn agrees_with_state_machine_groupby() {
        let input = GroupByInput::zipf(128, 8_000, 0.5, 79);
        let t1 = AggTable::for_groups(128);
        coro_groupby(&t1, &input.relation, 10);
        let t2 = AggTable::for_groups(128);
        amac_ops::groupby::groupby(
            &t2,
            &input.relation,
            amac::engine::Technique::Amac,
            &Default::default(),
        );
        let mut a = t1.groups();
        let mut b = t2.groups();
        a.sort_by_key(|(k, _)| *k);
        b.sort_by_key(|(k, _)| *k);
        assert_eq!(a.len(), b.len());
        for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(va, vb, "group {ka}");
        }
    }

    #[test]
    fn empty_input() {
        let table = AggTable::for_groups(8);
        let out = coro_groupby(&table, &Relation::default(), 10);
        assert_eq!(out.tuples, 0);
        assert_eq!(table.group_count(), 0);
    }
}
