//! `HashTable::build_serial` prefetches headers ahead and inserts without
//! the latch; it must still build exactly what the plain latched
//! `BuildHandle::insert` loop builds: the same bucket data, the same arena
//! nodes at the same indices, the same tuple count and frozen boundary.

use amac_hashtable::HashTable;
use amac_workload::{Relation, Tuple};

/// The reference model: one latched insert per tuple, in `rel`'s order.
fn build_plain(rel: &Relation) -> HashTable {
    let table = HashTable::for_tuples(rel.len());
    {
        let mut h = table.build_handle();
        for t in &rel.tuples {
            h.insert(t.key, t.payload);
        }
    }
    table
}

#[test]
fn build_serial_matches_the_latched_loop() {
    const D: usize = HashTable::BUILD_AHEAD;
    for n in [0, 1, D - 1, D, D + 1, 20_000] {
        let dups = Relation::from_tuples((0..n as u64).map(|i| Tuple::new(i % 97, i)).collect());
        let relations = [
            ("dense", Relation::dense_unique(n, 7)),
            ("duplicate-heavy", dups),
            ("zipf", Relation::zipf(n, 2_000, 1.0, 11)),
        ];
        for (what, rel) in &relations {
            let (got, want) = (HashTable::build_serial(rel), build_plain(rel));
            assert_eq!(got.nodes().len(), want.nodes().len(), "{what} n {n}: arena length");
            assert!(got.snapshot() == want.snapshot(), "{what} n {n}: snapshots differ");
            if n == 20_000 {
                assert!(!got.nodes().is_empty(), "{what} n {n}: spills into overflow nodes");
            }
        }
    }
}
