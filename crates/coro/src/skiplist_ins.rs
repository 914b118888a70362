//! Coroutine skip-list insert — the paper's most state-heavy lookup
//! (§5.4) in the §6 coroutine model.
//!
//! The insert carries a predecessor vector ("This vector occupies 0.5KB
//! per lookup and is maintained in AMAC's circular buffer for each
//! in-flight lookup", §5.4). In the coroutine formulation that vector is
//! an ordinary local array; the compiler lays it into the suspended
//! frame, which makes the §6 space-overhead discussion *measurable*:
//! [`InterleaveStats::future_bytes`](crate::InterleaveStats) reports the
//! whole frame, preds included.
//!
//! Latched splices use the same cooperative retry as the coroutine
//! group-by: a busy predecessor latch suspends the lookup for one ring
//! rotation instead of spinning.

use crate::executor::{run_interleaved, yield_now, InterleaveStats};
use amac_metrics::timer::CycleTimer;
use amac_skiplist::{
    try_splice_level, InsertHandle, SkipCursor, SkipList, SkipMove, SkipNode, SpliceOutcome,
    MAX_LEVEL,
};
use amac_workload::Relation;
use core::cell::RefCell;

/// Insert `(key, payload)` as a coroutine. Returns `true` if inserted,
/// `false` on a duplicate key.
///
/// `handle` is shared by the ring via `RefCell`; borrows are transient
/// (never held across a yield).
pub async fn skip_insert_one(handle: &RefCell<InsertHandle<'_>>, key: u64, payload: u64) -> bool {
    let list = handle.borrow().list();
    // The §5.4 predecessor vector — a plain local, captured across yields
    // into the compiler-generated frame. Predecessors above the entry
    // level are the head itself.
    let mut preds: [*mut SkipNode; MAX_LEVEL + 1] = [list.head() as *mut SkipNode; MAX_LEVEL + 1];
    // Search phase: advance / record predecessor / descend.
    let mut cur = SkipCursor::start(list);
    loop {
        yield_now().await;
        match cur.step(key) {
            SkipMove::Advanced => {}
            SkipMove::Found(_) => return false, // duplicate
            SkipMove::Descended(left, pred) => preds[left] = pred,
            SkipMove::Bottom(pred) => {
                preds[0] = pred;
                break;
            }
        }
    }
    // Insert phase (Table 1 stage 2): random level + node allocation.
    let (top, node) = {
        let mut h = handle.borrow_mut();
        let top = h.random_level();
        (top, h.alloc_node(key, payload, top))
    };
    // Splice phase (stage 3): one latched level per turn, bottom-up.
    let mut lvl = 0usize;
    loop {
        // SAFETY: preds[lvl] is head or a node the search stood on at
        // `lvl` (tower tall enough); node is initialized and not yet
        // spliced at lvl — the state-machine op's splice protocol.
        match unsafe { try_splice_level(preds[lvl], node, lvl) } {
            SpliceOutcome::Spliced => {
                if lvl == top {
                    list.raise_level(top);
                    return true;
                }
                lvl += 1;
                yield_now().await;
            }
            SpliceOutcome::Blocked => {
                yield_now().await; // cooperative coarse-grained spin
            }
            SpliceOutcome::Moved(np) => {
                preds[lvl] = np;
                yield_now().await;
            }
            SpliceOutcome::AlreadyPresent => {
                debug_assert_eq!(lvl, 0, "duplicate surfaced above level 0");
                return false;
            }
        }
    }
}

/// Output of a coroutine insert run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoroInsertOutput {
    /// Keys newly inserted.
    pub inserted: u64,
    /// Keys rejected as duplicates.
    pub duplicates: u64,
    /// Ring counters (note `future_bytes`: the frame carries the §5.4
    /// predecessor vector).
    pub stats: InterleaveStats,
    /// Loop cycles.
    pub cycles: u64,
    /// Loop wall time.
    pub seconds: f64,
}

/// Insert every tuple of `input` into `list` with `width` coroutines in
/// flight (tower heights drawn from `seed`).
pub fn coro_skip_insert(
    list: &SkipList,
    input: &Relation,
    width: usize,
    seed: u64,
) -> CoroInsertOutput {
    let handle = RefCell::new(list.handle(seed));
    let mut out = CoroInsertOutput::default();
    let timer = CycleTimer::start();
    let (ins, dup) = (&mut out.inserted, &mut out.duplicates);
    out.stats = run_interleaved(
        width,
        &input.tuples,
        |_, t| skip_insert_one(&handle, t.key, t.payload),
        |_, inserted| {
            if inserted {
                *ins += 1;
            } else {
                *dup += 1;
            }
        },
    );
    out.cycles = timer.cycles();
    out.seconds = timer.seconds();
    out
}

/// Multi-threaded [`coro_skip_insert`]: chunks of `input` are inserted by
/// per-thread rings into the shared list (cross-thread splice conflicts
/// yield cooperatively, intra-ring ones too).
pub fn coro_skip_insert_mt(
    list: &SkipList,
    input: &Relation,
    width: usize,
    threads: usize,
    seed: u64,
) -> CoroInsertOutput {
    let threads = threads.max(1);
    let chunk = input.len().div_ceil(threads).max(1);
    let mut total = CoroInsertOutput::default();
    let timer = CycleTimer::start();
    std::thread::scope(|s| {
        let handles: Vec<_> = input
            .tuples
            .chunks(chunk)
            .enumerate()
            .map(|(tid, tuples)| {
                s.spawn(move || {
                    let handle = RefCell::new(list.handle(seed ^ (tid as u64) << 32));
                    let (mut ins, mut dup) = (0u64, 0u64);
                    let stats = run_interleaved(
                        width,
                        tuples,
                        |_, t| skip_insert_one(&handle, t.key, t.payload),
                        |_, inserted| {
                            if inserted {
                                ins += 1;
                            } else {
                                dup += 1;
                            }
                        },
                    );
                    (ins, dup, stats)
                })
            })
            .collect();
        for h in handles {
            let (ins, dup, stats) = h.join().expect("insert worker panicked");
            total.inserted += ins;
            total.duplicates += dup;
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
    use amac_workload::Tuple;

    #[test]
    fn builds_a_correct_list() {
        let rel = Relation::sparse_unique(5000, 61);
        let list = SkipList::new();
        let out = coro_skip_insert(&list, &rel, 10, 0xEE);
        assert_eq!(out.inserted, 5000);
        assert_eq!(out.duplicates, 0);
        assert_eq!(list.len(), 5000);
        let mut want: Vec<(u64, u64)> = rel.tuples.iter().map(|t| (t.key, t.payload)).collect();
        want.sort_unstable();
        assert_eq!(list.items(), want);
        for t in rel.tuples.iter().step_by(37) {
            assert_eq!(list.get(t.key), Some(t.payload));
        }
    }

    #[test]
    fn duplicates_are_rejected() {
        let list = SkipList::new();
        let rel = Relation::from_tuples((0..500u64).map(|k| Tuple::new(k % 100, k)).collect());
        let out = coro_skip_insert(&list, &rel, 8, 0xEF);
        assert_eq!(out.inserted, 100);
        assert_eq!(out.duplicates, 400);
        assert_eq!(list.len(), 100);
    }

    #[test]
    fn frame_carries_the_pred_vector() {
        // §5.4/§6: the suspended insert frame must include the
        // MAX_LEVEL+1 predecessor pointers (≥ 200 bytes of preds alone).
        let list = SkipList::new();
        let rel = Relation::sparse_unique(64, 63);
        let out = coro_skip_insert(&list, &rel, 4, 0xF0);
        assert!(
            out.stats.future_bytes >= (MAX_LEVEL + 1) * 8,
            "frame {} B cannot hold the predecessor vector",
            out.stats.future_bytes
        );
    }

    #[test]
    fn multithreaded_insert_is_exact() {
        let rel = Relation::sparse_unique(20_000, 67);
        let list = SkipList::new();
        let out = coro_skip_insert_mt(&list, &rel, 8, 4, 0xF1);
        assert_eq!(out.inserted, 20_000);
        assert_eq!(out.duplicates, 0);
        assert_eq!(list.len(), 20_000);
        let mut want: Vec<(u64, u64)> = rel.tuples.iter().map(|t| (t.key, t.payload)).collect();
        want.sort_unstable();
        assert_eq!(list.items(), want);
    }

    #[test]
    fn concurrent_duplicate_racers_keep_one_copy() {
        // All threads insert the same tiny key set: every key must end up
        // present exactly once no matter who wins each race.
        let list = SkipList::new();
        let rel = Relation::from_tuples((0..4000u64).map(|i| Tuple::new(i % 50, i)).collect());
        let out = coro_skip_insert_mt(&list, &rel, 8, 4, 0xF2);
        assert_eq!(out.inserted, 50);
        assert_eq!(out.duplicates, 3950);
        assert_eq!(list.len(), 50);
    }

    #[test]
    fn agrees_with_state_machine_insert() {
        let rel = Relation::sparse_unique(3000, 71);
        let l1 = SkipList::new();
        coro_skip_insert(&l1, &rel, 10, 0xF3);
        let l2 = SkipList::new();
        amac_ops::skiplist::skip_insert(
            &l2,
            &rel,
            amac::engine::Technique::Amac,
            &Default::default(),
            0xF4,
        );
        assert_eq!(l1.items(), l2.items(), "same contents regardless of tower seeds");
    }

    #[test]
    fn empty_input() {
        let list = SkipList::new();
        let out = coro_skip_insert(&list, &Relation::default(), 10, 1);
        assert_eq!(out.inserted, 0);
        assert!(list.is_empty());
    }
}
