//! Property tests for the `u32`-indexed arena: index ↔ pointer
//! round-trips, non-aliasing of live allocations, and equivalence of
//! index-linked chains with pointer-linked chains under 1/2/4 threads.

use amac_mem::arena::{slab_of_index, Arena, IndexedArena, NULL_INDEX};
use proptest::prelude::*;
use std::collections::HashSet;

/// `alloc` prefetches `FRONTIER_AHEAD` slots past the frontier, and skips
/// the prefetch when that slot is in a slab not yet created. Across the
/// first slab boundaries every index stays dense, every pointer resolves
/// through `get`, and no write is lost.
#[test]
fn frontier_prefetch_keeps_indices_dense_across_slab_boundaries() {
    let a = IndexedArena::<[u64; 8]>::new();
    let n = 16_000u32; // slabs 0..=4 (boundaries at 1024, 3072, 7168, 15360)
    let mut ptrs = Vec::new();
    for i in 0..n {
        let (idx, p) = a.alloc();
        assert_eq!(idx, i, "dense, in allocation order");
        assert_eq!(a.get(idx), p);
        assert_eq!(a.index_of(p), Some(idx));
        unsafe { *p = [u64::from(i); 8] };
        ptrs.push(p);
    }
    assert_eq!(a.len(), n as usize);
    assert_eq!(slab_of_index(n - 1), 4);
    let distinct: HashSet<usize> = ptrs.iter().map(|p| *p as usize).collect();
    assert_eq!(distinct.len(), n as usize, "no two allocations alias");
    for (i, p) in ptrs.iter().enumerate() {
        assert_eq!(unsafe { **p }, [i as u64; 8], "slot {i} kept its write");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indices_roundtrip_and_never_alias(n in 1usize..3000) {
        let a = IndexedArena::<u64>::new();
        let mut seen = HashSet::new();
        for i in 0..n {
            let (idx, ptr) = a.alloc();
            // idx -> ptr -> idx round-trip.
            prop_assert_eq!(a.get(idx), ptr);
            prop_assert_eq!(a.index_of(ptr), Some(idx));
            prop_assert!(seen.insert(ptr as usize), "allocation {} aliased", i);
            unsafe { *ptr = idx as u64 };
        }
        // Earlier writes survive later slab growth: no overlap anywhere.
        for idx in 0..n as u32 {
            prop_assert_eq!(unsafe { *a.get(idx) }, idx as u64);
        }
        prop_assert_eq!(a.len(), n);
    }

    #[test]
    fn index_chains_equal_pointer_chains(
        lists in prop::collection::vec(prop::collection::vec(0u64..1000, 1..40), 1..20),
        threads in 1usize..5,
    ) {
        // Build the same set of singly-linked lists twice — nodes from a
        // pointer arena and nodes from the shared indexed arena (the
        // latter split across 1/2/4 threads) — and require bit-identical
        // traversals.
        #[derive(Default)]
        struct PtrNode {
            val: u64,
            next: *mut PtrNode,
        }
        #[derive(Default)]
        struct IdxNode {
            val: u64,
            next: u32,
        }

        // Pointer-linked reference, single-threaded.
        let mut parena = Arena::<PtrNode>::new();
        let mut pheads = Vec::new();
        for list in &lists {
            let mut head: *mut PtrNode = core::ptr::null_mut();
            for &v in list.iter().rev() {
                let node = parena.alloc();
                unsafe {
                    (*node).val = v;
                    (*node).next = head;
                }
                head = node;
            }
            pheads.push(head);
        }

        // Index-linked build: lists are distributed over worker threads,
        // all allocating from one shared arena.
        let iarena = IndexedArena::<IdxNode>::new();
        let chunk = lists.len().div_ceil(threads);
        let iheads: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = lists
                .chunks(chunk)
                .map(|chunk_lists| {
                    let iarena = &iarena;
                    s.spawn(move || {
                        chunk_lists
                            .iter()
                            .map(|list| {
                                let mut head = NULL_INDEX;
                                for &v in list.iter().rev() {
                                    let (idx, node) = iarena.alloc();
                                    unsafe {
                                        (*node).val = v;
                                        (*node).next = head;
                                    }
                                    head = idx;
                                }
                                head
                            })
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("worker")).collect()
        });

        // Traversals must agree value-for-value.
        for (li, (&ph, &ih)) in pheads.iter().zip(&iheads).enumerate() {
            let mut want = Vec::new();
            let mut p = ph;
            while !p.is_null() {
                unsafe {
                    want.push((*p).val);
                    p = (*p).next;
                }
            }
            let mut got = Vec::new();
            let mut i = ih;
            while i != NULL_INDEX {
                let node = iarena.get(i);
                // Every link also round-trips through index_of.
                prop_assert_eq!(iarena.index_of(node), Some(i));
                unsafe {
                    got.push((*node).val);
                    i = (*node).next;
                }
            }
            prop_assert_eq!(&got, &want, "list {} diverges", li);
        }
    }
}
