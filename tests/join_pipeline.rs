//! The hash join (build, probe, materialized first matches) computes what
//! the std model does under every technique, window and driver. Each test
//! checks generated cases of `ops_cases` with its concern pinned.

mod ops_cases;

use ops_cases::{per_technique, sweep, Keys, Op};

#[test]
fn full_skew_matrix_matches_reference() {
    for keys in [Keys::Hits, Keys::Zipf] {
        for dups in [false, true] {
            per_technique(|c| c.op == Op::Probe && c.keys == keys && c.dups == dups, &[]);
        }
    }
}

#[test]
fn probe_after_amac_build_equals_probe_after_serial_build() {
    // Invariant 9 probes the table each build leaves against the model.
    per_technique(|c| c.op == Op::Build, &[]);
}

#[test]
fn tuning_width_never_changes_results() {
    for m in [1, 2, 5, 8, 10, 16, 33] {
        sweep(1, |c| c.op == Op::Probe && c.m == m);
    }
}

#[test]
fn materialization_is_input_ordered_and_schedule_invariant() {
    for kind in ["OneShot", "Chunked", "Mux"] {
        sweep(1, |c| c.op == Op::Probe && c.materialize && c.driver.kind() == kind);
    }
}
