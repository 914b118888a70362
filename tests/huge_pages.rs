//! The kernel actually backs a DRAM-sized table with huge pages where its
//! THP mode allows it — the condition the wall-clock cycles/tuple of the
//! repository benchmark rest on.
//!
//! One test in its own process: `AnonHugePages` is a property of the whole
//! process, and a neighbour dropping a table would move it.

#![cfg(target_os = "linux")]

use amac_suite::metrics::platform::{anon_huge_bytes, thp_mode};
use amac_suite::prelude::*;

#[test]
fn a_dram_sized_table_sits_on_huge_pages() {
    let mode = thp_mode();
    if !matches!(mode.as_deref(), Some("always" | "madvise")) {
        println!("skipped: THP mode is {mode:?}, the kernel grants no huge pages");
        return;
    }
    let Some(before) = anon_huge_bytes() else {
        println!("skipped: no AnonHugePages in /proc/self/smaps_rollup");
        return;
    };

    let r = Relation::dense_unique(1 << 20, 0xC0FFEE);
    let ht = HashTable::build_serial(&r);
    // Bucket headers plus allocated chain nodes, one cache line each.
    let table_bytes = (ht.bucket_count() + ht.nodes().len()) * 64;
    let granted = anon_huge_bytes().expect("read a moment ago").saturating_sub(before);
    println!("table {} MiB, AnonHugePages grew by {} MiB", table_bytes >> 20, granted >> 20);
    assert!(
        granted >= table_bytes / 2,
        "THP mode {mode:?}, yet only {granted} of the table's {table_bytes} bytes are huge-page-backed"
    );
    assert_eq!(ht.tuple_count(), 1 << 20);
}
