//! Tracing reads and never counts: a traced run equals its untraced twin
//! on every field, and its trace conserves the run's ledger and repeats.
//! Each test checks generated cases of `ops_cases` with its concern
//! pinned, each against its trace twin, until they have stalled: stall
//! attribution is checked on runs that have stalls to attribute.

mod ops_cases;

use amac_suite::ops::mutate::MutateKind;
use amac_suite::runtime::Scheduling::{StaticChunk, WorkSteal};
use amac_suite::trace::Tracer;
use ops_cases::{covering, morsel_at, morsel_threads, per_technique, stalling, Case, Driver, Op};

const STALLS: &[&str] = &["sim stalls"];

fn one_shot(c: &Case) -> bool {
    c.driver == Driver::OneShot
}

#[test]
fn probe_trace_conserves_and_is_bit_identical_under_every_executor() {
    per_technique(|c| c.op == Op::Probe && stalling(c), STALLS);
}

#[test]
fn probe_trace_is_deterministic_per_executor() {
    per_technique(|c| c.op == Op::Probe && c.cx.trace && stalling(c) && one_shot(c), STALLS);
}

#[test]
fn faulted_probe_trace_conserves_and_counts_every_fault() {
    let keep = |c: &Case| c.op == Op::Probe && c.cx.fault.is_some() && c.cx.trace;
    covering(&["failed lookups", "sim stalls"], keep);
}

#[test]
fn groupby_trace_conserves_and_is_bit_identical_under_every_executor() {
    per_technique(|c| c.op == Op::GroupBy && c.cx.trace && stalling(c), STALLS);
}

#[test]
fn morsel_runtime_trace_conserves_across_threads_and_schedulings() {
    for threads in [1, 2, 4] {
        for scheduling in [StaticChunk, WorkSteal] {
            let keep = |c: &Case| c.op == Op::Probe && stalling(c);
            covering(STALLS, |c| keep(c) && morsel_at(c, threads, scheduling));
        }
    }
}

#[test]
fn every_mt_driver_honours_cfg_trace_at_1_2_4_threads() {
    let ops = [Op::Probe, Op::GroupBy, Op::ProbeGroupBy, Op::TwoPhase, Op::ProbeProbe];
    for op in ops.into_iter().chain([Op::Mutate(MutateKind::Upsert)]) {
        for threads in [1, 2, 4] {
            let keep = |c: &Case| c.op == op && stalling(c);
            covering(STALLS, |c| keep(c) && morsel_threads(c) == Some(threads));
        }
    }
}

#[test]
fn single_threaded_morsel_trace_matches_the_one_shot_run() {
    let keep = |c: &Case| c.op != Op::Build && c.cx.trace && stalling(c);
    covering(STALLS, |c| keep(c) && morsel_at(c, 1, StaticChunk));
}

#[test]
fn disabled_tracer_never_claims_conservation() {
    let off = Tracer::off();
    assert!(!off.enabled() && !off.conserves(0, 0), "an untraced run vouches for nothing");
    covering(STALLS, |c| c.op != Op::Build && !c.cx.trace && stalling(c) && one_shot(c));
}
