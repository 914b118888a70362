//! The one allocation under every pointer-chased structure.
//!
//! A software prefetch that misses the TLB cannot start its line fill until
//! a page walk finishes, and a table of hundreds of MiB on 4 KiB pages
//! misses the TLB on nearly every prefetch: the handful of page walkers,
//! not the fill buffers the window is sized against, then caps the
//! memory-level parallelism. A [`Region`] of [`HUGE_PAGE`] bytes or more is
//! therefore aligned to a huge-page boundary and advised `MADV_HUGEPAGE`
//! before its first touch, so the kernel may back it with 2 MiB pages.
//!
//! There is nothing to configure. Behaviour depends on the size asked for
//! and on what the kernel grants: below [`HUGE_PAGE`] a region is a
//! line-aligned block and nothing else happens; where the kernel grants
//! nothing (THP mode `never`, a kernel without THP, not Linux, Miri) a
//! large region is the same block on base pages. The alignment comes from the
//! [`Layout`] handed to the global allocator, not from a private `mmap`, so
//! an allocator that recycles large blocks by exact layout keeps doing so.

use crate::align::CACHE_LINE;
use core::mem::{ManuallyDrop, MaybeUninit};
use core::ptr::{drop_in_place, slice_from_raw_parts_mut, NonNull};
use core::sync::atomic::{AtomicUsize, Ordering};
use std::alloc::Layout;

/// Size and alignment of a transparent huge page: 2 MiB on x86-64 and on
/// AArch64 with a 4 KiB granule.
pub const HUGE_PAGE: usize = 2 << 20;

/// An owned slice with stable addresses, filled with `T::default()`.
///
/// The block starts on a [`CACHE_LINE`] boundary, and on a [`HUGE_PAGE`]
/// boundary when it is at least that large (see the module documentation).
/// It derefs to `[T]`, drops its elements and frees the block with the
/// layout it was allocated with. Inside this crate a region can also be
/// reserved unwritten, as a `Region<MaybeUninit<T>>` whose pages stay
/// non-resident until their slots are written: the `IndexedArena` slabs,
/// which write one slot as they hand it out.
pub struct Region<T> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: a Region owns its elements exactly like Box<[T]>.
unsafe impl<T: Send> Send for Region<T> {}
// SAFETY: as above; `&Region<T>` only hands out `&[T]`.
unsafe impl<T: Sync> Sync for Region<T> {}

impl<T> Region<T> {
    /// The layout of a region of `len` elements: a pure function of `len`,
    /// so `drop` recomputes what `uninit` allocated with.
    fn layout(len: usize) -> Layout {
        let size = core::mem::size_of::<T>().checked_mul(len).expect("allocation overflow");
        let align = if huge(size) { HUGE_PAGE } else { CACHE_LINE };
        Layout::from_size_align(size.max(1), align.max(core::mem::align_of::<T>()))
            .expect("bad layout")
    }

    /// Whether the block is at least [`HUGE_PAGE`] bytes: huge-page
    /// aligned and advised, and too large to stay in one core's L2 (2 MiB
    /// on current x86 server cores). The chained hash tables look ahead
    /// of the AMAC window only when their bucket array is (see
    /// `amac::engine`'s "Lookahead"): below that there is no miss to hide.
    pub fn is_huge(&self) -> bool {
        huge(core::mem::size_of::<T>() * self.len)
    }

    /// Reserve `len` slots and write none of them: the block is allocated,
    /// aligned and advised exactly as for [`new`](Region::new), and no page
    /// of it is touched here.
    ///
    /// # Panics
    /// As [`new`](Region::new), less the panic of `T::default()`.
    pub(crate) fn uninit(len: usize) -> Region<MaybeUninit<T>> {
        // `MaybeUninit<T>` has `T`'s size and alignment, so `drop`
        // recomputes this layout for either type.
        let layout = Self::layout(len);
        // SAFETY: `layout` has a non-zero size.
        let block = unsafe { std::alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(block.cast::<MaybeUninit<T>>()) else {
            std::alloc::handle_alloc_error(layout);
        };
        if layout.align() >= HUGE_PAGE {
            advise_huge(block, layout.size());
        }
        Region { ptr, len }
    }
}

impl<T: Default> Region<T> {
    /// Allocate `len` elements, each `T::default()`.
    ///
    /// # Panics
    /// Panics on capacity overflow and aborts on allocation failure, like
    /// `Vec`. A panic in `T::default()` propagates after the elements
    /// already written are dropped and the block is freed.
    pub fn new(len: usize) -> Self {
        /// The first `.1` slots from `.0`, dropped if a `T::default()`
        /// panics; the block itself goes back with its reserved `Region`.
        struct Written<T>(NonNull<T>, usize);
        impl<T> Drop for Written<T> {
            fn drop(&mut self) {
                // SAFETY: exactly the first `self.1` slots hold a value.
                unsafe { drop_in_place(slice_from_raw_parts_mut(self.0.as_ptr(), self.1)) }
            }
        }

        let block = Self::uninit(len);
        let mut written = Written(block.ptr.cast::<T>(), 0);
        while written.1 < len {
            // SAFETY: slot `written.1 < len` is inside the block and vacant.
            unsafe { written.0.as_ptr().add(written.1).write(T::default()) };
            written.1 += 1;
        }
        core::mem::forget(written);
        let block = ManuallyDrop::new(block);
        Region { ptr: block.ptr.cast(), len }
    }
}

impl<T> core::ops::Deref for Region<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: ptr/len describe an owned, initialised block.
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> core::ops::DerefMut for Region<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as Deref, with unique ownership through &mut self.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for Region<T> {
    fn drop(&mut self) {
        // SAFETY: all `len` slots hold a value (a reserved region's are
        // `MaybeUninit`s, which drop nothing), and the block came from
        // `alloc(layout(len))` and is not used again.
        unsafe {
            drop_in_place(slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len));
            std::alloc::dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len));
        }
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for Region<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        (**self).fmt(f)
    }
}

/// The one size rule: a block of `size` bytes is huge from [`HUGE_PAGE`]
/// up.
fn huge(size: usize) -> bool {
    size >= HUGE_PAGE
}

/// Process-wide account of the huge-page advice given so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionStats {
    /// Bytes the kernel accepted `MADV_HUGEPAGE` for, summed over every
    /// region created (a block the allocator recycles counts each time).
    /// Accepted is not granted: `AnonHugePages` in `/proc/self/smaps_rollup`
    /// is what the kernel actually backed.
    pub bytes_advised: usize,
    /// `madvise` calls the kernel refused (a kernel built without THP);
    /// those regions sit on base pages.
    pub advise_refused: usize,
}

static BYTES_ADVISED: AtomicUsize = AtomicUsize::new(0);
static ADVISE_REFUSED: AtomicUsize = AtomicUsize::new(0);

/// The advice given by every [`Region`] of this process so far. All zero
/// where the call is compiled out (not Linux, Miri).
pub fn stats() -> RegionStats {
    RegionStats {
        bytes_advised: BYTES_ADVISED.load(Ordering::Relaxed),
        advise_refused: ADVISE_REFUSED.load(Ordering::Relaxed),
    }
}

/// Ask for huge pages under the whole huge pages of a fresh block; the
/// tail short of one stays as it is.
#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge(block: *mut u8, size: usize) {
    let whole = size & !(HUGE_PAGE - 1);
    // SAFETY: `block` is HUGE_PAGE-aligned, hence page-aligned, and
    // `whole <= size` bytes from it lie inside one live allocation this
    // caller owns; the advice changes no contents.
    let refused = unsafe { libc::madvise(block.cast(), whole, libc::MADV_HUGEPAGE) } != 0;
    if refused {
        ADVISE_REFUSED.fetch_add(1, Ordering::Relaxed);
    } else {
        BYTES_ADVISED.fetch_add(whole, Ordering::Relaxed);
    }
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge(_block: *mut u8, _size: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    #[repr(C, align(64))]
    struct Node([u8; 64]);
    impl Default for Node {
        fn default() -> Self {
            Node([7; 64])
        }
    }

    #[test]
    fn small_regions_are_line_aligned_and_default_filled() {
        for len in [0usize, 1, 17, HUGE_PAGE / 64 - 1] {
            let r = Region::<Node>::new(len);
            assert_eq!(r.len(), len);
            assert_eq!(r.as_ptr() as usize % CACHE_LINE, 0);
            assert!(r.iter().all(|n| n.0 == [7; 64]));
        }
        let bytes = Region::<u64>::new(100);
        assert_eq!(bytes.as_ptr() as usize % CACHE_LINE, 0, "alignment does not come from T");
        assert!(bytes.iter().all(|&x| x == 0));
    }

    #[test]
    fn huge_regions_are_huge_page_aligned_and_default_filled() {
        let before = stats();
        // Exactly one huge page, one and a bit, and a size no element
        // count divides evenly.
        let exact = Region::<Node>::new(HUGE_PAGE / 64);
        let more = Region::<Node>::new(HUGE_PAGE / 64 + 3);
        let odd = Region::<[u8; 24]>::new(HUGE_PAGE.div_ceil(24));
        assert_eq!(exact.as_ptr() as usize % HUGE_PAGE, 0);
        assert_eq!(more.as_ptr() as usize % HUGE_PAGE, 0);
        assert_eq!(odd.as_ptr() as usize % HUGE_PAGE, 0);
        assert!(exact.iter().chain(more.iter()).all(|n| n.0 == [7; 64]));
        assert!(odd.iter().all(|b| *b == [0; 24]));
        // Every call is accounted for one way or the other, and only
        // whole huge pages are advised. (Other tests run concurrently:
        // the counters can only have grown by more.)
        let after = stats();
        if cfg!(all(target_os = "linux", not(miri))) {
            let calls = after.advise_refused - before.advise_refused;
            assert!(
                after.bytes_advised - before.bytes_advised + calls * HUGE_PAGE >= 3 * HUGE_PAGE
            );
            assert_eq!(after.bytes_advised % HUGE_PAGE, 0);
        } else {
            assert_eq!(after, RegionStats::default());
        }
    }

    #[test]
    fn layout_switches_alignment_at_the_huge_page_size() {
        for len in [HUGE_PAGE - 1, HUGE_PAGE, HUGE_PAGE + 1] {
            let l = Region::<u8>::layout(len);
            assert_eq!(l.size(), len);
            assert_eq!(l.align(), if len >= HUGE_PAGE { HUGE_PAGE } else { CACHE_LINE });
            assert_eq!(Region::<u8>::uninit(len).is_huge(), len >= HUGE_PAGE);
        }
        assert_eq!(Region::<Node>::layout(0).size(), 1, "an empty region is still a block");
    }
}
