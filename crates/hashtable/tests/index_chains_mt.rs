//! Indexed-arena chain equivalence under concurrent builds: the
//! `u32`-linked table built by 1/2/4 threads must hold contents
//! bit-identical to a `BTreeMap` multimap fed the same tuples (and so to
//! itself across thread counts), even though the shared arena hands out
//! indices in a nondeterministic interleaving.

use amac_hashtable::HashTable;
use amac_workload::Relation;
use std::collections::BTreeMap;

#[test]
fn concurrent_index_chains_match_pointer_chains() {
    let rel = Relation::zipf(24_000, 3_000, 0.9, 0xC0FFEE);
    let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for t in &rel.tuples {
        model.entry(t.key).or_default().push(t.payload);
    }
    for payloads in model.values_mut() {
        payloads.sort_unstable();
    }

    for threads in [1usize, 2, 4] {
        let ht = HashTable::for_tuples(rel.len());
        std::thread::scope(|scope| {
            for chunk in rel.tuples.chunks(rel.len().div_ceil(threads)) {
                let ht = &ht;
                scope.spawn(move || {
                    let mut h = ht.build_handle();
                    for t in chunk {
                        h.insert(t.key, t.payload);
                    }
                });
            }
        });
        assert_eq!(ht.len(), rel.len(), "{threads}t: all tuples inserted");
        for (k, want) in &model {
            let mut got = ht.lookup_all(*k);
            got.sort_unstable();
            assert_eq!(&got, want, "{threads}t: key {k} diverges from the model");
        }
    }
}

#[test]
fn concurrent_chain_indices_roundtrip() {
    // Every chain link written by any thread resolves to a node whose
    // reverse lookup returns the same index (idx -> ptr -> idx), across
    // the nondeterministic slab growth of a 4-thread build.
    let rel = Relation::zipf(20_000, 500, 1.0, 0x1D);
    let ht = HashTable::with_buckets(128);
    std::thread::scope(|scope| {
        for chunk in rel.tuples.chunks(rel.len() / 4) {
            let ht = &ht;
            scope.spawn(move || {
                let mut h = ht.build_handle();
                for t in chunk {
                    h.insert(t.key, t.payload);
                }
            });
        }
    });
    let mut reachable = 0usize;
    for b in 0..ht.bucket_count() {
        // Walk via the probe path: resolve every next index to a pointer
        // and require the reverse lookup to return the same index.
        let mut idx = unsafe { (*ht.header_addr(b)).data() }.next;
        while idx != amac_mem::NULL_INDEX {
            let ptr = ht.node_ptr(idx);
            assert_eq!(ht.nodes().index_of(ptr), Some(idx), "idx -> ptr -> idx roundtrip");
            reachable += 1;
            idx = unsafe { (*ptr).data() }.next;
        }
    }
    assert_eq!(reachable, ht.nodes().len(), "every allocated node is chain-reachable");
}
