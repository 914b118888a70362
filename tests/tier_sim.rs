//! The simulated memory tiers change time, never results: a tiered run
//! equals its plain twin, and `sim_cycles` counts its op calls. Each test
//! checks generated cases of `ops_cases` with its concern pinned until
//! they have stalled (or failed a lookup).

mod ops_cases;

use ops_cases::{covering, lanes, morsel_threads, per_technique, stalling, Case, Driver, Op};

const STALLS: &[&str] = &["sim stalls"];

#[test]
fn tiering_never_changes_results_any_executor() {
    per_technique(|c| c.op == Op::Probe && stalling(c), STALLS);
}

#[test]
fn morsel_runtime_matches_one_shot_and_is_thread_invariant() {
    for threads in [1, 2, 4] {
        covering(STALLS, |c| stalling(c) && morsel_threads(c) == Some(threads));
    }
}

#[test]
fn groupby_and_fused_pipeline_results_unchanged_by_tiering() {
    // Fault-free, so invariant 5 also counts a fused chain's handoffs.
    for op in [Op::GroupBy, Op::ProbeGroupBy, Op::ProbeProbe, Op::TwoPhase] {
        covering(STALLS, |c| c.op == op && stalling(c) && c.cx.fault.is_none());
    }
}

#[test]
fn mux_lane_ledgers_carry_sim_ticks_exactly() {
    covering(&["lanes, sim stalls"], |c| lanes(c) && stalling(c));
}

#[test]
fn chunked_window_equals_the_one_shot_run_tiered_and_faulted() {
    let chunked = |c: &Case| matches!(c.driver, Driver::Chunked(_));
    covering(&["failed lookups", "sim stalls"], |c| chunked(c) && c.cx.fault.is_some());
}

#[test]
fn injected_faults_are_identical_at_one_two_and_four_threads() {
    for threads in [1, 2, 4] {
        let keep = |c: &Case| c.cx.fault.is_some() && morsel_threads(c) == Some(threads);
        covering(&["failed lookups"], keep);
    }
}
