//! Property tests for the `u32`-indexed arena: index ↔ pointer
//! round-trips, non-aliasing of live allocations, and equivalence of
//! index-linked chains with pointer-linked chains under 1/2/4 threads.
//! Also what a reserved slab owes its slots: each handed-out slot is
//! written and later dropped exactly once, no other slot is either, and a
//! slab's unused tail never becomes resident.

use amac_mem::arena::{slab_of_index, Arena, IndexedArena, NULL_INDEX};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;

thread_local! {
    static MADE: Cell<u64> = const { Cell::new(0) };
    static PANIC_AT: Cell<u64> = const { Cell::new(u64::MAX) };
    static DROPPED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Numbered by construction from 1; construction number `PANIC_AT`
/// panics; every drop logs its number.
struct Counted(u64);
impl Default for Counted {
    fn default() -> Self {
        let n = MADE.with(|m| m.replace(m.get() + 1) + 1);
        assert!(n != PANIC_AT.with(Cell::get), "default #{n} refused");
        Counted(n)
    }
}
impl Drop for Counted {
    fn drop(&mut self) {
        DROPPED.with(|d| d.borrow_mut().push(self.0));
    }
}

/// The numbers dropped so far, sorted, and the log emptied.
fn take_dropped() -> Vec<u64> {
    let mut d = DROPPED.with(RefCell::take);
    d.sort_unstable();
    d
}

#[test]
fn every_handed_out_slot_is_dropped_once_and_no_other() {
    MADE.with(|m| m.set(0));
    let n = 8000u64;
    let a = IndexedArena::<Counted>::new();
    for i in 1..=n {
        let (_, p) = a.alloc();
        assert_eq!(unsafe { (*p).0 }, i, "the slot holds the default made for it");
    }
    assert_eq!(slab_of_index(n as u32 - 1), 3, "slabs 0..=3, the last one part-used");
    assert_eq!(take_dropped(), Vec::<u64>::new(), "nothing dropped while the arena lives");
    drop(a);
    assert_eq!(take_dropped(), (1..=n).collect::<Vec<_>>());
}

#[test]
fn a_panicking_default_counts_no_slot() {
    let k = 1500u64; // in slab 1
    MADE.with(|m| m.set(0));
    PANIC_AT.with(|p| p.set(k));
    let a = IndexedArena::<Counted>::new();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
        a.alloc();
    }));
    PANIC_AT.with(|p| p.set(u64::MAX));
    assert!(caught.is_err(), "the panic propagates");
    assert_eq!(a.len() as u64, k - 1);
    assert_eq!(take_dropped(), Vec::<u64>::new());
    drop(a);
    assert_eq!(take_dropped(), (1..k).collect::<Vec<_>>(), "exactly the k - 1 made values");
}

/// One allocation writes one slot, not its slab. Slab 0 of a 64 KiB element
/// is 64 MiB, above glibc's largest mmap threshold (32 MiB on 64-bit), so
/// it is always a fresh mapping whatever this process freed before, and
/// only pages written since are resident. The one write faults in at most
/// one huge page; the frontier prefetch faults nothing.
#[cfg(all(target_os = "linux", not(miri)))]
#[test]
fn one_allocation_leaves_the_rest_of_its_slab_non_resident() {
    struct Page([u8; 64 << 10]);
    impl Default for Page {
        fn default() -> Self {
            Page([0x5A; 64 << 10])
        }
    }
    const SLAB_0: usize = 1024 * (64 << 10);

    let a = IndexedArena::<Page>::new();
    let (idx, slot) = a.alloc();
    assert_eq!(idx, 0);
    assert_eq!(unsafe { (*slot).0[4095] }, 0x5A);
    let page = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
    let mut pages = vec![0u8; SLAB_0 / page];
    // SAFETY: slot 0 starts slab 0, a live block of SLAB_0 bytes aligned to
    // a huge page; `pages` has one byte per base page of it.
    let rc = unsafe { libc::mincore(slot.cast(), SLAB_0, pages.as_mut_ptr()) };
    assert_eq!(rc, 0, "mincore: {}", std::io::Error::last_os_error());
    let resident = pages.iter().filter(|&&b| b & 1 != 0).count() * page;
    assert!(resident < 4 << 20, "{resident} B of the 64 MiB slab 0 resident after one allocation");
}

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
