//! The Group Prefetching executor (Chen et al., reproduced as the paper's
//! comparison point).

use super::call::{mode, Call};
use super::{EngineStats, LookupOp, Step};

/// Execute `inputs` with **Group Prefetching**.
///
/// Lookups are processed in groups of `m`. Code stage 0 (`start`) runs for
/// the whole group, then stages `1..=n` are swept over the group: each
/// sweep gives every lookup exactly one stage opportunity. `n` is the
/// paper's stage budget `N`, derived by the driver (at least 1). The
/// static schedule produces the two pathologies the paper measures:
///
/// * lookups that finish **early** keep occupying their group slot — every
///   later sweep must still visit and skip them (counted as
///   [`noops`](EngineStats::noops));
/// * lookups that need **more** than `N` stages fall into a sequential
///   cleanup pass after the sweeps ([`bailouts`](EngineStats::bailouts)),
///   where their remaining pointer dereferences run with no memory-access
///   overlap ([`bailout_stages`](EngineStats::bailout_stages));
/// * a busy latch burns the lookup's stage opportunity for that sweep
///   ([`latch_retries`](EngineStats::latch_retries)) — conflicting lookups
///   serialize into the cleanup pass.
pub fn run_gp<O: LookupOp>(op: &mut O, inputs: &[O::Input], m: usize, n: usize) -> EngineStats {
    if inputs.is_empty() {
        return EngineStats::default();
    }
    match mode(op) {
        Some(tally) => gp(Call::plain(op, tally), inputs, m, n),
        None => gp(Call::metered(op), inputs, m, n),
    }
}

#[inline(always)]
fn gp<O: LookupOp, const PLAIN: bool>(
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
    let mut done = vec![false; m];

    let mut base = 0usize;
    while base < inputs.len() {
        let g = m.min(inputs.len() - base);
        // Code stage 0 for the whole group.
        for k in 0..g {
            op.start(inputs[base + k], &mut states[k]);
            stats.stages += 1;
            stats.prefetches += pf;
            done[k] = false;
        }
        // The GP group IS the AMU commit group: seal it so the next
        // group's lanes cannot coalesce against this one's loads.
        op.commit_group();
        // Stages 1..=N swept across the group.
        for _sweep in 0..n {
            for k in 0..g {
                if done[k] {
                    // Status check on a finished lookup: Fig. 2's gray
                    // box. It costs a tick of simulated time, keeping the
                    // remaining lookups' prefetch distances honest.
                    stats.noops += 1;
                    op.idle();
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
                        // The conflicting lookup loses this sweep's
                        // opportunity; it will serialize into cleanup if it
                        // runs out of sweeps.
                        stats.latch_retries += 1;
                    }
                }
            }
        }
        // Cleanup pass: over-length (or still-blocked) lookups complete
        // sequentially, one at a time — no prefetch overlap.
        for k in 0..g {
            if !done[k] {
                finish_alone(&mut op, &mut states[..g], &mut done[..g], k, &mut stats);
            }
        }
        base += g;
    }
    op.flush(&mut stats);
    stats
}

/// A bailout, shared by GP's cleanup pass and SPP's expired slots: finish
/// the lookup in `states[k]` alone, every stage counted as bailout
/// overhead. A [`Step::Blocked`] hands one step to each other unfinished
/// lookup (the latch holder is one of them in single-threaded runs), so a
/// bailout cannot live-lock. Inlined into both executors as the two
/// routines it replaced were: a shared out-of-line copy changed which
/// executor instances the compiler keeps out of line.
#[inline(always)]
pub(super) fn finish_alone<O: LookupOp, const PLAIN: bool>(
    op: &mut Call<'_, O, PLAIN>,
    states: &mut [O::State],
    done: &mut [bool],
    k: usize,
    stats: &mut EngineStats,
) {
    stats.bailouts += 1;
    loop {
        match op.step(&mut states[k]) {
            Step::Continue => stats.bailout_stages += 1,
            s @ (Step::Done | Step::Failed | Step::Emit(_)) => {
                stats.bailout_stages += 1;
                stats.lookups += 1;
                stats.failed_lookups += matches!(s, Step::Failed) as u64;
                done[k] = true;
                return;
            }
            Step::Blocked => {
                stats.latch_retries += 1;
                let mut progressed = false;
                for j in 0..states.len() {
                    if j == k || done[j] {
                        continue;
                    }
                    match op.step(&mut states[j]) {
                        Step::Continue => {
                            stats.bailout_stages += 1;
                            progressed = true;
                        }
                        s @ (Step::Done | Step::Failed | Step::Emit(_)) => {
                            stats.bailout_stages += 1;
                            stats.lookups += 1;
                            stats.failed_lookups += matches!(s, Step::Failed) as u64;
                            done[j] = true;
                            progressed = true;
                        }
                        Step::Blocked => stats.latch_retries += 1,
                    }
                }
                if !progressed {
                    // Only other *threads* can be holding the latch now.
                    core::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{ChainOp, LatchedOp};
    use super::*;

    #[test]
    fn outputs_match_input_order() {
        let chains = vec![3usize, 1, 4, 1, 5];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..chains.len()).collect();
        let stats = run_gp(&mut op, &inputs, 3, 4);
        assert_eq!(stats.lookups, 5);
        assert_eq!(op.outputs, vec![30, 10, 40, 10, 50]);
    }

    #[test]
    fn uniform_chains_incur_no_noops_or_bailouts() {
        // Every chain exactly N: the GP sweet spot.
        let chains = vec![4usize; 12];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..12).collect();
        let stats = run_gp(&mut op, &inputs, 4, 4);
        assert_eq!(stats.noops, 0);
        assert_eq!(stats.bailouts, 0);
        assert_eq!(stats.stages, 12 * 5);
    }

    #[test]
    fn early_exits_burn_noop_slots() {
        // Chains of 1 with a budget of 4: 3 wasted sweeps per lookup.
        let chains = vec![1usize; 8];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..8).collect();
        let stats = run_gp(&mut op, &inputs, 4, 4);
        assert_eq!(stats.noops, 8 * 3);
        assert_eq!(stats.bailouts, 0);
    }

    #[test]
    fn long_chains_bail_out_sequentially() {
        let chains = vec![10usize, 2, 2, 2];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..4).collect();
        let stats = run_gp(&mut op, &inputs, 4, 3);
        assert_eq!(stats.bailouts, 1);
        assert_eq!(stats.bailout_stages, 10 - 3, "remaining steps run in cleanup");
        assert_eq!(stats.lookups, 4);
        assert_eq!(op.outputs[0], 100);
    }

    #[test]
    fn partial_final_group() {
        let chains = vec![2usize; 7];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..7).collect();
        let stats = run_gp(&mut op, &inputs, 4, 2);
        assert_eq!(stats.lookups, 7);
    }

    #[test]
    fn latch_conflicts_serialize_without_deadlock() {
        let mut op = LatchedOp::new(2);
        let stats = run_gp(&mut op, &[0usize, 1], 2, 2);
        assert_eq!(stats.lookups, 2);
        assert!(stats.latch_retries > 0);
        assert_eq!(op.completed, vec![1, 0]);
    }

    #[test]
    fn empty_input() {
        let mut op = ChainOp::new(&[]);
        assert_eq!(run_gp(&mut op, &[], 4, 4), EngineStats::default());
    }
}
