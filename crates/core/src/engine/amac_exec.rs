//! The one-shot AMAC executor (§3 of the paper), its §3.1 ablation
//! variants, and the general rotation loop the ablations run on.

use super::call::{mode, Call};
use super::{AmacSession, EngineStats, LookupOp, Step};

/// Execute `inputs` with **Asynchronous Memory Access Chaining**.
///
/// `m` is the circular-buffer size (paper's in-flight lookup count; ~10
/// saturates a Xeon core's L1-D MSHRs). This is one [`AmacSession`]
/// window, clamped to the input count, fed the whole input and drained,
/// so an op that [looks ahead](LookupOp::looks_ahead) has each input's
/// stage-0 line requested `m` inputs before its slot opens (`m < 16`):
///
/// * each in-flight lookup keeps its full state in its own buffer slot;
/// * slots are visited with a **rolling counter** (no modulo — §3.1 notes
///   a division would be too costly for non-power-of-two `m`);
/// * on [`Step::Done`] the slot **immediately starts the next lookup**
///   (the paper's merged terminal+initial stage optimization), so the
///   number of in-flight memory accesses stays constant;
/// * on [`Step::Blocked`] the slot is left untouched and the rotation
///   moves on — the coarse-grained latch spin of §3.2.
///
/// A plain call offers the whole input to the op's
/// [batch stage](LookupOp::batch) first, before the window's slots are
/// allocated.
pub fn run_amac<O: LookupOp>(op: &mut O, inputs: &[O::Input], m: usize) -> EngineStats {
    let mut stats = EngineStats::default();
    if inputs.is_empty() {
        return stats;
    }
    // A declined batch stage is asked again by the window's feed.
    if let Some(tally) = mode(op) {
        let mut call = Call::plain(op, tally);
        if call.batch(inputs, m, &mut stats) {
            call.flush(&mut stats);
            return stats;
        }
    }
    let mut window = AmacSession::new(m.clamp(1, inputs.len()));
    window.feed(op, inputs, &mut stats);
    window.drain(op, &mut stats);
    stats
}

/// Ablation: AMAC **without** the merged terminal+initial stage — a
/// finished slot is refilled only on its *next* rotation, so one memory
/// access opportunity is lost per lookup transition (quantifies
/// optimization (1) of §3.1).
pub fn run_amac_no_merge<O: LookupOp>(op: &mut O, inputs: &[O::Input], m: usize) -> EngineStats {
    rotate(op, inputs, m, false, false)
}

/// Ablation: AMAC with **modulo slot indexing** instead of the rolling
/// counter (quantifies the division cost the paper engineers around).
pub fn run_amac_modulo<O: LookupOp>(op: &mut O, inputs: &[O::Input], m: usize) -> EngineStats {
    rotate(op, inputs, m, true, true)
}

/// The general rotation loop both ablations run on: every visit checks
/// slot occupancy, so a slot may sit empty for a rotation. Called with
/// `(merge, !modulo)` it schedules exactly like [`AmacSession`] and shares
/// no code with it, which makes it the reference the window is tested on.
pub(crate) fn rotate<O: LookupOp>(
    op: &mut O,
    inputs: &[O::Input],
    m: usize,
    merge_done_with_start: bool,
    modulo_index: bool,
) -> EngineStats {
    if inputs.is_empty() {
        return EngineStats::default();
    }
    match mode(op) {
        Some(tally) => {
            rotate_in(Call::plain(op, tally), inputs, m, merge_done_with_start, modulo_index)
        }
        None => rotate_in(Call::metered(op), inputs, m, merge_done_with_start, modulo_index),
    }
}

#[inline(always)]
fn rotate_in<O: LookupOp, const PLAIN: bool>(
    mut op: Call<'_, O, PLAIN>,
    inputs: &[O::Input],
    m: usize,
    merge_done_with_start: bool,
    modulo_index: bool,
) -> EngineStats {
    let mut stats = EngineStats::default();
    // Prefetch accounting is gated on the op's policy (see the module docs
    // of `super` — the `PrefetchHint::None` ablation must report 0).
    let pf = op.prefetch_gate();
    let m = m.clamp(1, inputs.len());
    let mut states: Vec<O::State> = (0..m).map(|_| O::State::default()).collect();

    let mut next = 0usize; // next unconsumed input
    let mut in_flight = 0usize;
    let mut active = vec![false; m];

    // Prologue: fill every slot with a fresh lookup.
    for (slot, state) in active.iter_mut().zip(states.iter_mut()) {
        if next == inputs.len() {
            break;
        }
        op.start(inputs[next], state);
        stats.stages += 1;
        stats.prefetches += pf;
        next += 1;
        *slot = true;
        in_flight += 1;
    }

    // Rotate over the buffer until every lookup has completed. Inactive
    // slots only exist once the input is exhausted (or, in the no-merge
    // ablation, for one rotation).
    let mut k = 0usize;
    while in_flight > 0 || next < inputs.len() {
        if active[k] {
            match op.step(&mut states[k]) {
                Step::Continue => {
                    stats.stages += 1;
                    stats.prefetches += pf;
                }
                Step::Blocked => {
                    // Coarse-grained spin: move on, retry on next rotation.
                    stats.latch_retries += 1;
                }
                s @ (Step::Done | Step::Failed | Step::Emit(_)) => {
                    stats.stages += 1;
                    stats.lookups += 1;
                    stats.failed_lookups += matches!(s, Step::Failed) as u64;
                    if merge_done_with_start && next < inputs.len() {
                        // Merged terminal+initial stage: refill immediately
                        // so in-flight memory accesses stay constant.
                        op.start(inputs[next], &mut states[k]);
                        stats.stages += 1;
                        stats.prefetches += pf;
                        next += 1;
                    } else {
                        active[k] = false;
                        in_flight -= 1;
                    }
                }
            }
        } else if next < inputs.len() {
            // No-merge ablation: refill an empty slot one rotation late.
            op.start(inputs[next], &mut states[k]);
            stats.stages += 1;
            stats.prefetches += pf;
            next += 1;
            active[k] = true;
            in_flight += 1;
        } else {
            // Drained slot: the rotation still visits it (a status
            // check), so a tiered op's simulated clock must advance —
            // otherwise the drain tail would fake stalls the rotation
            // cadence actually hides.
            op.idle();
        }
        if modulo_index {
            k = (k + 1) % m;
        } else {
            // Rolling counter, as in Listing 1 of the paper.
            k += 1;
            if k == m {
                k = 0;
            }
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
    fn completes_all_lookups_in_input_order_outputs() {
        let chains = vec![3usize, 1, 4, 1, 5, 9, 2, 6];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..chains.len()).collect();
        let stats = run_amac(&mut op, &inputs, 4);
        assert_eq!(stats.lookups, chains.len() as u64);
        assert_eq!(op.outputs, vec![30, 10, 40, 10, 50, 90, 20, 60]);
    }

    #[test]
    fn no_noops_and_no_bailouts_ever() {
        let chains: Vec<usize> = (0..64).map(|i| 1 + (i * 7) % 13).collect();
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..chains.len()).collect();
        let stats = run_amac(&mut op, &inputs, 10);
        assert_eq!(stats.noops, 0, "AMAC never visits dead stage slots");
        assert_eq!(stats.bailouts, 0, "AMAC has no static budget to exceed");
        assert_eq!(stats.bailout_stages, 0);
    }

    #[test]
    fn stage_count_is_exact() {
        // Each lookup of chain length c costs 1 start + c steps.
        let chains = vec![2usize, 5, 1];
        let mut op = ChainOp::new(&chains);
        let inputs: Vec<usize> = (0..3).collect();
        let stats = run_amac(&mut op, &inputs, 2);
        assert_eq!(stats.stages, (3 + 2 + 5 + 1) as u64);
        // Prefetches: one per start + one per non-final step.
        assert_eq!(stats.prefetches, (3 + (2 - 1) + (5 - 1)));
    }

    #[test]
    fn m_larger_than_input_is_clamped() {
        let chains = vec![2usize, 2];
        let mut op = ChainOp::new(&chains);
        let stats = run_amac(&mut op, &[0usize, 1], 64);
        assert_eq!(stats.lookups, 2);
    }

    #[test]
    fn m_one_degenerates_to_sequential() {
        let chains = vec![3usize, 2, 4];
        let mut op = ChainOp::new(&chains);
        let stats = run_amac(&mut op, &[0usize, 1, 2], 1);
        assert_eq!(stats.lookups, 3);
        assert_eq!(op.outputs, vec![30, 20, 40]);
    }

    #[test]
    fn empty_input() {
        let mut op = ChainOp::new(&[]);
        let stats = run_amac(&mut op, &[], 8);
        assert_eq!(stats, EngineStats::default());
    }

    #[test]
    fn blocked_slots_are_deferred_not_spun() {
        // A latch that frees itself only after other lookups progress:
        // LatchedOp blocks lookup 0 until lookup 1 has completed.
        let mut op = LatchedOp::new(2);
        let stats = run_amac(&mut op, &[0usize, 1], 2);
        assert_eq!(stats.lookups, 2);
        assert!(stats.latch_retries > 0, "the blocked slot must have retried");
        assert_eq!(op.completed, vec![1, 0], "blocked lookup finishes after its blocker");
    }

    #[test]
    fn ablation_variants_produce_identical_outputs() {
        let chains: Vec<usize> = (0..40).map(|i| 1 + (i * 11) % 7).collect();
        let inputs: Vec<usize> = (0..chains.len()).collect();
        let mut a = ChainOp::new(&chains);
        let mut b = ChainOp::new(&chains);
        let mut c = ChainOp::new(&chains);
        run_amac(&mut a, &inputs, 6);
        run_amac_no_merge(&mut b, &inputs, 6);
        run_amac_modulo(&mut c, &inputs, 6);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.outputs, c.outputs);
    }
}
