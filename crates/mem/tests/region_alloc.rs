//! What `Region` hands back to the allocator, seen from the allocator's
//! side: every block is freed exactly once and with the layout it was
//! allocated with, also when `T::default()` panics part-way through
//! construction.
//!
//! One `#[test]` only: the ledger below is process-wide, and a second test
//! running next to it would show up in it.

use amac_mem::{Region, HUGE_PAGE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// The system allocator plus a ledger of the line-aligned-or-more blocks
/// (which is every `Region`, and nothing `std` allocates for this test).
struct Ledger;

static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
/// Sum of `size + align` over live blocks: zero again only if every block
/// was freed with the layout it was allocated with.
static LIVE_LAYOUT: AtomicIsize = AtomicIsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn weight(layout: Layout) -> isize {
    (layout.size() + layout.align()) as isize
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Ledger {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.align() >= 64 {
            LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
            LIVE_LAYOUT.fetch_add(weight(layout), Ordering::Relaxed);
            ALLOCATED.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.align() >= 64 {
            LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
            LIVE_LAYOUT.fetch_sub(weight(layout), Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Ledger = Ledger;

fn live() -> (isize, isize) {
    (LIVE_BLOCKS.load(Ordering::Relaxed), LIVE_LAYOUT.load(Ordering::Relaxed))
}

thread_local! {
    static MADE: Cell<usize> = const { Cell::new(0) };
    static DROPPED: Cell<usize> = const { Cell::new(0) };
    static PANIC_AT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Counts constructions and drops; construction number `PANIC_AT` panics.
struct Counted {
    _pad: [u64; 8],
}
impl Default for Counted {
    fn default() -> Self {
        let n = MADE.with(|m| m.replace(m.get() + 1));
        assert!(n != PANIC_AT.with(Cell::get), "default #{n} refused");
        Counted { _pad: [0; 8] }
    }
}
impl Drop for Counted {
    fn drop(&mut self) {
        DROPPED.with(|d| d.set(d.get() + 1));
    }
}

fn counts() -> (usize, usize) {
    (MADE.with(|m| m.replace(0)), DROPPED.with(|d| d.replace(0)))
}

#[test]
fn every_block_is_freed_once_with_its_own_layout() {
    let start = live();

    // Either side of the huge-page threshold, an empty region, and a
    // zero-sized element: each is one block while alive, none after.
    const LINES: usize = HUGE_PAGE / 64;
    for len in [0usize, 1, LINES - 1, LINES, LINES + 1] {
        let before = ALLOCATED.load(Ordering::Relaxed);
        let r = Region::<[u64; 8]>::new(len);
        assert_eq!(ALLOCATED.load(Ordering::Relaxed) - before, 1, "len {len}");
        assert_eq!(live().0, start.0 + 1, "len {len}");
        drop(r);
        assert_eq!(live(), start, "len {len}: freed with another layout than allocated");
    }
    drop(Region::<()>::new(1000));
    assert_eq!(live(), start);

    // Element destructors run once each, at drop and not before.
    let r = Region::<Counted>::new(1000);
    assert_eq!(counts(), (1000, 0));
    drop(r);
    assert_eq!(counts(), (0, 1000));
    assert_eq!(live(), start);

    // A panicking default: the prefix written so far is dropped, the
    // block goes back, the panic propagates. Small and huge alike.
    for len in [100usize, HUGE_PAGE / 64 + 100] {
        PANIC_AT.with(|p| p.set(40));
        let caught = std::panic::catch_unwind(|| Region::<Counted>::new(len));
        PANIC_AT.with(|p| p.set(usize::MAX));
        assert!(caught.is_err(), "the panic propagates");
        assert_eq!(counts(), (41, 40), "exactly the written prefix is dropped");
        assert_eq!(live(), start, "len {len}: the block leaked");
    }
}
