//! AMU-style issue coalescing (arxiv 2112.13306) inside the execution
//! context: a coalesced run computes and counts what its uncoalesced twin
//! does, and `issued + coalesced` conserves the twin's requests. Each test
//! checks generated cases of `ops_cases` with its concern pinned until
//! they have coalesced something.

mod ops_cases;

use amac_suite::engine::Technique::Baseline;
use amac_suite::runtime::Scheduling::{StaticChunk, WorkSteal};
use ops_cases::{covering, lanes, morsel_at, per_technique, Case, Op};

const COALESCED: &[&str] = &["coalesced loads"];

/// Coalescing groups of two or more, in a window of two or more, over
/// enough input to meet a line twice.
fn hot(c: &Case) -> bool {
    c.cx.coalesce.is_some_and(|g| g > 1) && c.m > 1 && c.len >= 64
}

#[test]
fn probe_is_bit_identical_with_coalescing_under_every_executor() {
    per_technique(|c| c.op == Op::Probe && hot(c), COALESCED);
}

#[test]
fn probe_fault_sets_are_identical_with_coalescing_on_or_off() {
    // Invariant 6: the faulted twin keeps the fault plan and drops `G`.
    let keep = |c: &Case| c.op == Op::Probe && hot(c) && c.cx.fault.is_some();
    covering(&["failed lookups", "coalesced loads"], keep);
}

#[test]
fn groupby_is_bit_identical_with_coalescing_under_every_executor() {
    per_technique(|c| c.op == Op::GroupBy && hot(c), COALESCED);
}

#[test]
fn fused_pipeline_is_bit_identical_with_coalescing_under_every_executor() {
    per_technique(|c| c.op == Op::ProbeGroupBy && hot(c), COALESCED);
}

#[test]
fn morsel_runtime_coalescing_is_deterministic_across_threads_and_schedulings() {
    // Invariant 3 holds each run's issued/coalesced split to the one-shot
    // run's: the morsels hold whole commit groups.
    for threads in [1, 2, 4] {
        for scheduling in [StaticChunk, WorkSteal] {
            covering(COALESCED, |c| hot(c) && morsel_at(c, threads, scheduling));
        }
    }
}

#[test]
fn single_threaded_morsel_run_matches_the_one_shot_executor_ledger() {
    covering(COALESCED, |c| hot(c) && morsel_at(c, 1, StaticChunk));
}

#[test]
fn untiered_runs_still_count_the_ledger() {
    // No clock (invariant 5), and the ledger is counted (invariant 3).
    covering(COALESCED, |c| c.cx.mult.is_none() && hot(c));
}

#[test]
fn every_driver_flushes_the_amu_ledger() {
    for kind in ["OneShot", "Chunked", "Morsel", "Mux"] {
        covering(COALESCED, |c| c.driver.kind() == kind && hot(c) && c.technique != Baseline);
    }
}

#[test]
fn lane_ledgers_sum_to_global_totals() {
    let keep = |c: &Case| lanes(c) && c.cx.coalesce.is_some() && c.cx.fault.is_some();
    covering(&["lanes, failed lookups", "lanes, coalesced loads", "lanes, sim stalls"], keep);
}
