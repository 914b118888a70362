//! The Software-Pipelined Prefetching executor (Chen et al., reproduced as
//! the paper's comparison point).

use super::call::{mode, Call};
use super::gp::finish_alone;
use super::{EngineStats, LookupOp, Step};

/// Execute `inputs` with **Software-Pipelined Prefetching**.
///
/// `m` pipeline slots each hold one lookup; every outer rotation gives each
/// slot exactly one code-stage opportunity, so concurrently-resident
/// lookups sit `1` stage apart — the software pipeline of Fig. 2b. A slot
/// retires its lookup only after consuming its full static budget of
/// `N = n` stage opportunities (`n` derived by the driver, at least 1):
///
/// * an **early-exit** lookup pads the rest of its `N` opportunities with
///   no-ops (the slot cannot accept new work mid-pipeline);
/// * an **over-length** lookup triggers a bailout: it is completed
///   sequentially on the spot, stalling the whole pipeline (the behaviour
///   the paper blames for SPP's losses on deep trees, §5.3);
/// * a busy latch burns the slot's opportunity for this rotation.
///
/// Unlike GP there is no group barrier: each slot refills the moment its
/// `N`-stage reservation ends.
pub fn run_spp<O: LookupOp>(op: &mut O, inputs: &[O::Input], m: usize, n: usize) -> EngineStats {
    if inputs.is_empty() {
        return EngineStats::default();
    }
    match mode(op) {
        Some(tally) => spp(Call::plain(op, tally), inputs, m, n),
        None => spp(Call::metered(op), inputs, m, n),
    }
}

#[inline(always)]
fn spp<O: LookupOp, const PLAIN: bool>(
    mut op: Call<'_, O, PLAIN>,
    inputs: &[O::Input],
    m: usize,
    n: usize,
) -> EngineStats {
    let mut stats = EngineStats::default();
    let pf = op.prefetch_gate();
    let m = m.clamp(1, inputs.len());
    let n = n.max(1);
    let mut states: Vec<O::State> = Vec::with_capacity(m);
    states.resize_with(m, O::State::default);
    // Per-slot: lookup finished? / stage opportunities consumed / occupied?
    let mut done = vec![false; m];
    let mut taken = vec![0usize; m];
    let mut active = vec![false; m];

    let mut next = 0usize;
    let mut occupied = 0usize;

    // Prologue: fill the pipeline.
    for k in 0..m {
        if next == inputs.len() {
            break;
        }
        op.start(inputs[next], &mut states[k]);
        stats.stages += 1;
        stats.prefetches += pf;
        next += 1;
        active[k] = true;
        done[k] = false;
        taken[k] = 0;
        occupied += 1;
    }

    while occupied > 0 {
        for k in 0..m {
            if !active[k] {
                // Retired slot: the rotation's status check still costs a
                // tick of simulated time (see `Hooks::idle`).
                op.idle();
                continue;
            }
            if taken[k] == n {
                // The slot's N-stage reservation is over.
                if !done[k] {
                    // Bailout: finish this lookup sequentially, stalling
                    // the pipeline (counted against SPP). A retired slot
                    // is done, so the bailout steps only live ones.
                    finish_alone(&mut op, &mut states, &mut done, k, &mut stats);
                }
                if next < inputs.len() {
                    op.start(inputs[next], &mut states[k]);
                    stats.stages += 1;
                    stats.prefetches += pf;
                    next += 1;
                    done[k] = false;
                    taken[k] = 0;
                } else {
                    active[k] = false;
                    occupied -= 1;
                }
                continue;
            }
            if done[k] {
                // Early exit: pad the reservation with a no-op stage (one
                // tick of simulated time, like GP's gray boxes).
                stats.noops += 1;
                op.idle();
                taken[k] += 1;
                continue;
            }
            match op.step(&mut states[k]) {
                Step::Continue => {
                    stats.stages += 1;
                    stats.prefetches += pf;
                }
                s @ (Step::Done | Step::Failed | Step::Emit(_)) => {
                    stats.stages += 1;
                    stats.lookups += 1;
                    stats.failed_lookups += matches!(s, Step::Failed) as u64;
                    done[k] = true;
                }
                Step::Blocked => {
                    stats.latch_retries += 1;
                }
            }
            taken[k] += 1;
        }
    }
    op.flush(&mut stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{ChainOp, LatchedOp};
    use super::*;

    #[test]
    fn outputs_match_input_order() {
        let chains = vec![3usize, 1, 4, 1, 5, 2];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..chains.len()).collect();
        let stats = run_spp(&mut op, &inputs, 3, 4);
        assert_eq!(stats.lookups, 6);
        assert_eq!(op.outputs, vec![30, 10, 40, 10, 50, 20]);
    }

    #[test]
    fn perfect_pipeline_has_no_noops() {
        let chains = vec![4usize; 9];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..9).collect();
        let stats = run_spp(&mut op, &inputs, 3, 4);
        assert_eq!(stats.noops, 0);
        assert_eq!(stats.bailouts, 0);
        assert_eq!(stats.stages, 9 * 5);
    }

    #[test]
    fn early_exit_pads_with_noops() {
        let chains = vec![1usize; 6];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..6).collect();
        let stats = run_spp(&mut op, &inputs, 2, 5);
        assert_eq!(stats.noops, 6 * 4, "each lookup pads 4 of its 5 opportunities");
    }

    #[test]
    fn overlength_lookup_bails_out() {
        let chains = vec![9usize, 2, 2];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..3).collect();
        let stats = run_spp(&mut op, &inputs, 3, 2);
        assert_eq!(stats.bailouts, 1);
        assert_eq!(stats.bailout_stages, 9 - 2);
        assert_eq!(stats.lookups, 3);
        assert_eq!(op.outputs[0], 90);
    }

    #[test]
    fn slots_refill_independently() {
        // 8 lookups, width 2, budget 2 → 4 refills per slot, no barrier.
        let chains = vec![2usize; 8];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..8).collect();
        let stats = run_spp(&mut op, &inputs, 2, 2);
        assert_eq!(stats.lookups, 8);
        assert_eq!(stats.noops, 0);
    }

    #[test]
    fn latch_conflicts_resolve_without_deadlock() {
        let mut op = LatchedOp::new(2);
        let stats = run_spp(&mut op, &[0usize, 1], 2, 2);
        assert_eq!(stats.lookups, 2);
        assert!(stats.latch_retries > 0);
        assert_eq!(op.completed, vec![1, 0]);
    }

    #[test]
    fn empty_input() {
        let mut op = ChainOp::new(&[]);
        assert_eq!(run_spp(&mut op, &[], 4, 4), EngineStats::default());
    }
}
