//! The probe's batch stage (the AVX-512 kernel where the host has it)
//! equals the scalar stages on every field (invariant 9 of `ops_cases`,
//! checked on every case). Each test checks generated probe cases of one
//! table or input shape until they have shown it.

mod ops_cases;

use amac_suite::ops::mutate::MutateKind;
use ops_cases::{covering, kernel_host, sweep, Case, Keys, Op};

fn probe(c: &Case) -> bool {
    c.op == Op::Probe
}

#[test]
fn fk_uniform_probes_cached_and_huge_header_tables() {
    let batch: &[&str] = if kernel_host() { &["batch stage"] } else { &[] };
    covering(batch, |c| probe(c) && c.keys == Keys::Hits && c.n <= 4096);
    let huge = [&["huge headers"], batch].concat();
    covering(&huge, |c| probe(c) && c.keys == Keys::Hits && c.n == 1 << 17);
}

#[test]
fn all_miss_probes() {
    covering(&["no match"], |c| probe(c) && c.keys == Keys::Misses);
}

#[test]
fn duplicate_heavy_build_with_and_without_scan_all() {
    covering(&[], |c| probe(c) && c.dups && c.scan_all);
    covering(&["two-match node"], |c| probe(c) && c.dups && !c.scan_all);
}

#[test]
fn zipf_one_probes() {
    covering(&["repeated key"], |c| probe(c) && c.keys == Keys::Zipf);
}

#[test]
fn fig3_table_with_three_node_chains() {
    covering(&["chain ≥ 3 nodes"], |c| probe(c) && c.chain == 8);
}

#[test]
fn table_after_a_latch_free_mutation_epoch() {
    // Probes of a table after the epoch, and of each table a mutation leaves.
    sweep(2, |c| probe(c) && c.epoch);
    for kind in [MutateKind::Upsert, MutateKind::Insert, MutateKind::Delete] {
        sweep(1, |c| c.op == Op::Mutate(kind) && c.epoch);
    }
}
