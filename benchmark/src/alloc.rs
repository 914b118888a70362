//! The harness's global allocator: the system allocator, except that
//! large freed blocks are kept and handed out again.
//!
//! Every table and relation of a workload is one allocation of tens to
//! hundreds of MiB, which the system allocator maps fresh each time and
//! unmaps when freed. The price of the page faults on first touch follows
//! the host's mood: one whole set of `serve_closed` runs measured
//! `setup_s` 30% above the set before it while its probes ran 7% slower.
//! Set-ups and passes allocate the same sizes over and over, so keeping a
//! freed block for the next request of exactly its size and alignment
//! removes those faults after the first use, without the fragmentation of
//! a never-trimmed heap (which made `peak_rss_mib` jump by a whole table,
//! 722 or 850 MiB on `write_mix`, depending on the seed).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Mutex;

/// Blocks at least this large are kept when freed.
const KEEP_MIN: usize = 1 << 20;
/// Freed blocks kept at most; beyond that they go back to the system.
const SLOTS: usize = 64;

#[derive(Clone, Copy)]
struct Block {
    addr: usize,
    layout: Layout,
}

/// See the module documentation.
pub struct Reusing {
    kept: Mutex<[Option<Block>; SLOTS]>,
}

impl Reusing {
    pub const fn new() -> Self {
        Reusing { kept: Mutex::new([None; SLOTS]) }
    }

    /// The table of kept blocks. A panic elsewhere cannot leave it
    /// half-updated (every update is one slot assignment), so a poisoned
    /// lock is taken anyway.
    fn kept(&self) -> std::sync::MutexGuard<'_, [Option<Block>; SLOTS]> {
        self.kept.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A kept block of exactly `layout`, if there is one.
    fn take(&self, layout: Layout) -> Option<*mut u8> {
        let mut kept = self.kept();
        let slot = kept.iter_mut().find(|s| s.is_some_and(|b| b.layout == layout))?;
        slot.take().map(|b| b.addr as *mut u8)
    }

    /// Keep `ptr` for reuse; false when every slot is taken.
    fn keep(&self, ptr: *mut u8, layout: Layout) -> bool {
        let mut kept = self.kept();
        match kept.iter_mut().find(|s| s.is_none()) {
            Some(slot) => {
                *slot = Some(Block { addr: ptr as usize, layout });
                true
            }
            None => false,
        }
    }
}

// SAFETY: every block handed out comes from `System` with the layout asked
// for (a kept block is only handed out for exactly the layout it was
// allocated with, and is removed from the table first, so it has one owner
// at a time); every block freed goes to the table or back to `System`
// with its own layout. The table itself never allocates.
unsafe impl GlobalAlloc for Reusing {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= KEEP_MIN {
            if let Some(ptr) = self.take(layout) {
                return ptr;
            }
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= KEEP_MIN {
            if let Some(ptr) = self.take(layout) {
                // SAFETY: `ptr` is a live block of `layout.size()` bytes
                // that nobody else owns.
                std::ptr::write_bytes(ptr, 0, layout.size());
                return ptr;
            }
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() < KEEP_MIN || !self.keep(ptr, layout) {
            System.dealloc(ptr, layout);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if layout.size().max(new_size) < KEEP_MIN {
            return System.realloc(ptr, layout, new_size);
        }
        // Across the threshold or above it: allocate, copy, free, so that
        // both blocks go through the table.
        // SAFETY: the caller guarantees `new_size`, rounded up to
        // `layout.align()`, does not overflow `isize`.
        let new_layout = Layout::from_size_align_unchecked(new_size, layout.align());
        let new_ptr = self.alloc(new_layout);
        if !new_ptr.is_null() {
            // SAFETY: both blocks are live, distinct and at least as
            // large as the number of bytes copied.
            std::ptr::copy_nonoverlapping(ptr, new_ptr, layout.size().min(new_size));
            self.dealloc(ptr, layout);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_blocks_are_reused_and_zeroed_on_request() {
        let a = Reusing::new();
        let big = Layout::from_size_align(KEEP_MIN * 3, 64).unwrap();
        // SAFETY: each block is used within its layout and freed once.
        unsafe {
            let p = a.alloc(big);
            p.write_bytes(0xAB, big.size());
            a.dealloc(p, big);
            // Another layout does not get it ...
            let other = Layout::from_size_align(KEEP_MIN * 2, 64).unwrap();
            let q = a.alloc(other);
            assert_ne!(q, p);
            // ... the same layout does, zeroed when asked.
            let r = a.alloc_zeroed(big);
            assert_eq!(r, p);
            assert!(std::slice::from_raw_parts(r, big.size()).iter().all(|&b| b == 0));
            // Growing across sizes keeps the contents.
            r.write_bytes(7, big.size());
            let grown = a.realloc(r, big, big.size() * 2);
            assert!(std::slice::from_raw_parts(grown, big.size()).iter().all(|&b| b == 7));
            let grown_layout = Layout::from_size_align(big.size() * 2, 64).unwrap();
            a.dealloc(grown, grown_layout);
            a.dealloc(q, other);
            // Small blocks pass straight through.
            let small = Layout::from_size_align(64, 8).unwrap();
            let s = a.alloc(small);
            a.dealloc(s, small);
            assert!(a.take(small).is_none());
        }
    }
}
