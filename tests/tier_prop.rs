//! The simulated clock is a function of the work alone: reruns and thread
//! counts reproduce every counter. Each test checks generated cases of
//! `ops_cases` with its concern pinned until they have stalled.

mod ops_cases;

use amac_suite::runtime::Scheduling::{StaticChunk, WorkSteal};
use ops_cases::{covering, morsel_at, per_technique, stalling, Case, Op};

const STALLS: &[&str] = &["sim stalls"];

#[test]
fn repeated_runs_reproduce_all_sim_counters_bit_for_bit() {
    // The trace twin is a rerun, held to every field (invariant 2).
    per_technique(|c| c.op == Op::Probe && stalling(c), STALLS);
    covering(STALLS, |c| c.op == Op::Probe && stalling(c) && morsel_at(c, 2, StaticChunk));
}

#[test]
fn sim_cycles_identical_across_1_2_4_threads_and_schedulings() {
    let read = |c: &Case| stalling(c) && !c.op.writes();
    for threads in [1, 2, 4] {
        for scheduling in [StaticChunk, WorkSteal] {
            covering(STALLS, |c| read(c) && morsel_at(c, threads, scheduling));
        }
    }
}
