//! Fused chains (probe → filter → group-by, probe → filter → probe) and
//! the materialized two-phase plan compute what the std model does. Each
//! test checks generated cases of `ops_cases` with its concern pinned.

mod ops_cases;

use ops_cases::{morsel_threads, per_technique, sweep, Keys, Op};

#[test]
fn fused_equals_two_phase_uniform_and_zipf_all_techniques() {
    for op in [Op::ProbeGroupBy, Op::TwoPhase] {
        for keys in [Keys::Hits, Keys::Zipf] {
            per_technique(|c| c.op == op && c.keys == keys, &[]);
        }
    }
}

#[test]
fn fused_mt_is_deterministic_and_equals_reference() {
    for op in [Op::ProbeGroupBy, Op::TwoPhase] {
        for threads in [1, 2, 4] {
            sweep(1, |c| c.op == op && morsel_threads(c) == Some(threads));
        }
    }
}

#[test]
fn join_chain_fused_equals_two_phase_st_and_mt() {
    // `check` also runs `probe_then_probe_two_phase` on every such case.
    for kind in ["OneShot", "Morsel"] {
        sweep(1, |c| c.op == Op::ProbeProbe && c.driver.kind() == kind);
    }
}

#[test]
fn fused_window_edge_cases() {
    // Fewer than one 8-lane group of input, in a wider window.
    for op in [Op::ProbeGroupBy, Op::ProbeProbe, Op::TwoPhase] {
        sweep(1, |c| c.op == op && c.len < 8 && c.m > c.len);
    }
}
