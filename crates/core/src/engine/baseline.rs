//! The no-prefetch baseline executor.

use super::call::{mode, Call};
use super::{EngineStats, LookupOp, Step};

/// Execute `inputs` one lookup at a time, exactly as the paper's "highly
/// optimized no-prefetching" baseline: the core's own out-of-order window
/// is the only source of memory-level parallelism.
///
/// [`Step::Blocked`] spins in place (with a single lookup in flight there
/// is nothing else to switch to; blocking can only be caused by *other
/// threads*).
///
/// `#[inline]` so every instance is compiled beside its caller
/// ([`run`](super::run)): without it the instance lands in whichever
/// codegen unit the partitioner picks, and whether this loop is inlined
/// into `run` — and with it the block order the sequential baseline's
/// speculation depends on — flips with the size of unrelated code.
#[inline]
pub fn run_baseline<O: LookupOp>(op: &mut O, inputs: &[O::Input]) -> EngineStats {
    match mode(op) {
        Some(tally) => baseline(Call::plain(op, tally), inputs),
        None => baseline(Call::metered(op), inputs),
    }
}

#[inline(always)]
fn baseline<O: LookupOp, const PLAIN: bool>(
    mut op: Call<'_, O, PLAIN>,
    inputs: &[O::Input],
) -> EngineStats {
    let mut stats = EngineStats::default();
    let pf = op.prefetch_gate();
    let mut state = O::State::default();
    for &input in inputs {
        op.start(input, &mut state);
        stats.stages += 1;
        stats.prefetches += pf; // start's prefetch is issued but gives no
                                // distance: the very next step consumes it.
        loop {
            match op.step(&mut state) {
                Step::Continue => {
                    stats.stages += 1;
                    stats.prefetches += pf;
                }
                Step::Blocked => {
                    stats.latch_retries += 1;
                    core::hint::spin_loop();
                }
                s @ (Step::Done | Step::Failed | Step::Emit(_)) => {
                    stats.stages += 1;
                    stats.lookups += 1;
                    stats.failed_lookups += matches!(s, Step::Failed) as u64;
                    break;
                }
            }
        }
        // One lookup = one AMU commit group: with a single lane in flight
        // there is nothing to coalesce against.
        op.commit_group();
    }
    op.flush(&mut stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::super::testutil::ChainOp;
    use super::*;

    #[test]
    fn processes_inputs_strictly_in_order() {
        let chains = vec![4usize, 1, 3];
        let mut op = ChainOp::new(&chains);
        let stats = run_baseline(&mut op, &[0usize, 1, 2]);
        assert_eq!(stats.lookups, 3);
        assert_eq!(op.outputs, vec![40, 10, 30]);
        assert_eq!(op.max_concurrent, 1, "baseline keeps one lookup in flight");
    }

    #[test]
    fn stage_accounting() {
        let chains = vec![2usize, 3];
        let mut op = ChainOp::new(&chains);
        let stats = run_baseline(&mut op, &[0usize, 1]);
        assert_eq!(stats.stages, (2 + 2 + 3) as u64);
        assert_eq!(stats.noops, 0);
        assert_eq!(stats.bailouts, 0);
    }

    #[test]
    fn empty_input() {
        let mut op = ChainOp::new(&[]);
        assert_eq!(run_baseline(&mut op, &[]), EngineStats::default());
    }
}
