//! A metered run at 1x far latency computes and counts what the plain run
//! does (invariants 1 and 2 of `ops_cases`). Each test checks generated
//! cases of one op with the context pinned to the metered one.

mod ops_cases;

use amac_suite::ops::mutate::MutateKind;
use ops_cases::{lanes, per_technique, sweep, Case, Op};

fn metered(c: &Case) -> bool {
    c.cx.mult == Some(1)
}

#[test]
fn probe_agrees_under_every_technique() {
    per_technique(|c| c.op == Op::Probe && metered(c), &[]);
}

#[test]
fn mutate_agrees_for_every_kind() {
    for kind in [MutateKind::Upsert, MutateKind::Insert, MutateKind::Delete] {
        sweep(1, |c| c.op == Op::Mutate(kind) && metered(c));
    }
}

#[test]
fn groupby_agrees_under_every_technique() {
    per_technique(|c| c.op == Op::GroupBy && metered(c), &[]);
}

#[test]
fn build_agrees_under_every_technique() {
    per_technique(|c| c.op == Op::Build && metered(c), &[]);
}

#[test]
fn fused_pipeline_agrees_under_every_technique() {
    per_technique(|c| c.op == Op::ProbeGroupBy && metered(c), &[]);
}

#[test]
fn probe_probe_pipeline_agrees_under_every_technique() {
    per_technique(|c| c.op == Op::ProbeProbe && metered(c), &[]);
}

#[test]
fn mux_lane_ledgers_sum_to_the_global_stats_at_every_flush() {
    // Uncoalesced and unfaulted, so each lane's ledger also recounts.
    sweep(2, |c| lanes(c) && metered(c) && c.cx.coalesce.is_none() && c.cx.fault.is_none());
}
