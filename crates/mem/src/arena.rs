//! Pointer-stable arena allocators.
//!
//! Every evaluated data structure (hash-table overflow chains, BST nodes,
//! skip-list towers) links nodes with raw pointers, so node storage must
//! never move. The arenas here allocate in large chunks, each one
//! [`Region`] (huge-page-backed from 2 MiB up), and hand out addresses that
//! stay valid until the arena is dropped.
//!
//! * [`Arena<T>`] — fixed-size elements (`T` per slot). Used for BST nodes
//!   and other pointer-linked structures.
//! * [`IndexedArena<T>`] — fixed-size elements addressed by **`u32`
//!   indices** instead of 8-byte pointers. Used for hash-table chain nodes,
//!   where halving the link width pays for an extra inline tuple per
//!   64-byte node (see `amac_hashtable::bucket`). Allocation is lock-free
//!   (`&self`), so concurrent build threads share one arena per table.
//! * [`VarArena`] — variable-size, cache-line-aligned byte allocations.
//!   Used for skip-list nodes whose tower height differs per node (the
//!   reason the paper calls skip-list elements "larger memory space" than
//!   the other structures).
//!
//! # Safety model
//! The arenas only *allocate*; they never give out two overlapping regions
//! and never move established allocations (chunks are [`Region`]s whose
//! heap storage is stable even when the chunk list reallocates). Turning
//! the returned `*mut` pointers into references is the caller's obligation
//! and is encapsulated inside the data-structure crates.
//!
//! What is initialised differs. An [`Arena`] or [`VarArena`] chunk is
//! filled in full when it is created. An [`IndexedArena`] slab is only
//! reserved: a slot is written (`T::default()`) when it is handed out, so
//! every slot below [`len`](IndexedArena::len) holds a value, none at or
//! above it does, and the arena's `Drop` drops exactly the slots below
//! `len()`. A slab's untouched tail is never written and never becomes
//! resident.

use crate::align::CACHE_LINE;
use crate::prefetch::prefetch_write;
use crate::region::{Region, HUGE_PAGE};
use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::ptr::{drop_in_place, slice_from_raw_parts_mut};
use core::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};

/// A chunked, append-only arena of fixed-size slots with stable addresses.
///
/// `alloc` returns a raw pointer to a default-initialized `T`. The pointer
/// remains valid (and never aliases another allocation) for the arena's
/// lifetime.
pub struct Arena<T: Default> {
    chunks: Vec<Region<UnsafeCell<T>>>,
    /// Slots used in the last chunk.
    used: usize,
    chunk_size: usize,
    len: usize,
}

// SAFETY: the arena itself is only grown through &mut self; concurrent
// access to allocated slots is governed by the caller (latches).
unsafe impl<T: Default + Send> Send for Arena<T> {}

impl<T: Default> Arena<T> {
    /// Create an empty arena whose chunks are the fewest elements that
    /// fill a huge page, so a structure built one node at a time gets the
    /// same page backing as a pre-sized one.
    pub fn new() -> Self {
        Self::with_chunk_size(HUGE_PAGE.div_ceil(core::mem::size_of::<T>().max(1)))
    }

    /// Create an empty arena whose chunks hold `chunk_size` elements.
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Arena { chunks: Vec::new(), used: 0, chunk_size, len: 0 }
    }

    /// Create an arena pre-sized for about `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut a = Self::with_chunk_size(capacity.clamp(1, 1 << 20));
        a.reserve_chunk();
        a
    }

    fn reserve_chunk(&mut self) {
        self.chunks.push(Region::new(self.chunk_size));
        self.used = 0;
    }

    /// Allocate one default-initialized slot and return its stable address.
    #[inline]
    pub fn alloc(&mut self) -> *mut T {
        if self.chunks.is_empty() || self.used == self.chunk_size {
            self.reserve_chunk();
        }
        let chunk = self.chunks.last().expect("chunk exists");
        let ptr = chunk[self.used].get();
        self.used += 1;
        self.len += 1;
        ptr
    }

    /// Allocate a slot initialized to `value`.
    #[inline]
    pub fn alloc_with(&mut self, value: T) -> *mut T {
        let p = self.alloc();
        // SAFETY: freshly allocated, uniquely owned slot.
        unsafe { p.write(value) };
        p
    }

    /// Number of allocated slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been allocated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over all allocated slots (shared references).
    ///
    /// # Safety
    /// Caller must guarantee no thread is mutating any slot concurrently.
    pub unsafe fn iter(&self) -> impl Iterator<Item = &T> {
        let full_chunks = self.chunks.len().saturating_sub(1);
        let used = self.used;
        self.chunks.iter().enumerate().flat_map(move |(ci, chunk)| {
            let limit = if ci < full_chunks { chunk.len() } else { used };
            chunk[..limit].iter().map(|c| &*c.get())
        })
    }
}

impl<T: Default> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A chunked bump allocator for variable-size, cache-line-aligned
/// allocations with stable addresses.
///
/// Returned regions are zero-initialized and aligned to [`CACHE_LINE`].
pub struct VarArena {
    chunks: Vec<Region<u8>>,
    /// Offset of the next free byte in the last chunk (always line-aligned).
    offset: usize,
    chunk_bytes: usize,
    allocated: usize,
}

// SAFETY: grown only through &mut self; slot access governed by caller.
unsafe impl Send for VarArena {}

impl VarArena {
    /// Default chunk size: one huge page.
    pub const DEFAULT_CHUNK_BYTES: usize = HUGE_PAGE;

    /// Create an empty arena with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_bytes(Self::DEFAULT_CHUNK_BYTES)
    }

    /// Create an empty arena with `chunk_bytes`-sized chunks.
    pub fn with_chunk_bytes(chunk_bytes: usize) -> Self {
        assert!(chunk_bytes >= CACHE_LINE, "chunk must hold at least one line");
        VarArena { chunks: Vec::new(), offset: 0, chunk_bytes, allocated: 0 }
    }

    /// Allocate `size` zeroed bytes at cache-line alignment; returns a
    /// stable pointer.
    ///
    /// # Panics
    /// Panics if `size` is zero or exceeds the chunk size.
    pub fn alloc_bytes(&mut self, size: usize) -> *mut u8 {
        assert!(size > 0, "zero-size allocation");
        let rounded = size.div_ceil(CACHE_LINE) * CACHE_LINE;
        assert!(rounded <= self.chunk_bytes, "allocation larger than chunk");
        if self.chunks.is_empty() || self.offset + rounded > self.chunk_bytes {
            // A region starts on a line boundary and is all zeroes.
            self.chunks.push(Region::new(self.chunk_bytes));
            self.offset = 0;
        }
        let chunk = self.chunks.last_mut().expect("chunk exists");
        // SAFETY: offset + rounded <= chunk_bytes by the checks above.
        let ptr = unsafe { chunk.as_mut_ptr().add(self.offset) };
        debug_assert_eq!(ptr as usize % CACHE_LINE, 0);
        self.offset += rounded;
        self.allocated += 1;
        ptr
    }

    /// Number of allocations served.
    #[inline]
    pub fn allocations(&self) -> usize {
        self.allocated
    }
}

impl Default for VarArena {
    fn default() -> Self {
        Self::new()
    }
}

/// The reserved "null" chain index: no [`IndexedArena`] allocation ever
/// returns it, so it plays the role of the null pointer in `u32`-linked
/// chains.
pub const NULL_INDEX: u32 = u32::MAX;

/// log2 of the first slab's slot count.
const LOG_BASE: u32 = 10;
/// Slots in slab 0 (slab `k` holds `BASE << k` slots).
const BASE: usize = 1 << LOG_BASE;
/// Slab directory size: geometric slabs cover the whole `u32` index space
/// (`BASE * (2^23 - 1) > u32::MAX`).
const MAX_SLABS: usize = 23;
/// How many slots ahead of the bump frontier [`IndexedArena::alloc`]
/// prefetches. A constant because one warmed line per allocation only has
/// to arrive before that many later allocations. On a 2-vCPU x86-64 guest
/// (THP `madvise`), 2^20 latch-free `fresh_insert`s into a frozen
/// 2^22-tuple hash table took a median 100 / 101 / 107 ns each at
/// 8 / 16 / 32 over 7 runs (best of 5 per run), against 110 ns with no
/// prefetch.
const FRONTIER_AHEAD: u32 = 16;

/// Slab index holding arena index `idx` — the geometry is a pure
/// function of the index (slab `k` holds indices
/// `[BASE·(2^k − 1), BASE·(2^(k+1) − 1))`), shared by every
/// [`IndexedArena`] regardless of element type. The memory-tier fault
/// plan (`amac_tier::FaultPlan::degraded_slab`) keys on this value, so
/// the slab an index maps to is part of the arena's stable contract.
#[inline(always)]
pub fn slab_of_index(idx: u32) -> u32 {
    let i = idx as usize + BASE;
    (usize::BITS - 1 - i.leading_zeros()) - LOG_BASE
}

/// A chunked, append-only arena whose slots are addressed by **`u32`
/// indices** with stable `index -> pointer` resolution.
///
/// Motivation (PAPER.md §4 layout math): a chained hash-table node spends
/// its whole budget on one cache line, and an 8-byte `next` pointer is the
/// single largest non-payload field. Linking chains by `u32` arena index
/// instead frees 4 bytes — with the slot fingerprints that is exactly one
/// more 16-byte tuple per 64-byte node — at the cost of one
/// `index -> pointer` resolution per hop. The resolution is engineered to
/// stay off the critical path:
///
/// * slabs grow geometrically (slab `k` holds `BASE << k` slots), so the
///   whole directory is a fixed 23-entry array of slab base pointers —
///   a few always-cache-hot lines, never reallocated;
/// * [`get`](IndexedArena::get) is branch-free: one `leading_zeros`, one
///   L1-resident directory load, one add. The dependent DRAM access is
///   still the node itself, which the executors prefetch as before.
///
/// Allocation takes `&self` (an atomic bump plus a mutex-guarded cold path
/// when a fresh slab is first touched), so all build handles of one table
/// share one arena and indices form a single address space.
///
/// A slab is reserved, not filled: [`alloc_index`](IndexedArena::alloc_index)
/// writes `T::default()` into the one slot it hands out, so a query-sized
/// arena faults in only the pages its slots use.
///
/// # Safety model
/// As for [`Arena`]: slots never move and never alias. [`len`](IndexedArena::len)
/// counts the indices handed out; every slot below it holds `T::default()`
/// or whatever its owner wrote there, and slots at or above it are
/// uninitialised (never read, and not dropped). Publication is
/// safe across threads: a slab's base pointer is `Release`-stored before
/// any index inside it is handed out, and `get` `Acquire`-loads it, so any
/// thread that legitimately learned an index (e.g. by reading a chain link
/// under the publishing thread's latch discipline) observes the slab and
/// the slot's write.
pub struct IndexedArena<T: Default> {
    /// Slab base pointers, lazily populated; entry `k` points at
    /// `BASE << k` slots.
    slabs: [AtomicPtr<UnsafeCell<T>>; MAX_SLABS],
    /// Next index to hand out.
    next: AtomicU32,
    /// Owns the slab storage (freed on drop, after `Drop` has dropped the
    /// written slots) and serializes slab creation.
    owned: Mutex<Vec<Region<MaybeUninit<UnsafeCell<T>>>>>,
}

// SAFETY: allocation is internally synchronized (atomics + mutex); access
// to allocated slots is governed by the caller exactly as for `Arena`.
// Any thread may make a slot's `T` and another drop it: hence `T: Send`.
unsafe impl<T: Default + Send> Send for IndexedArena<T> {}
unsafe impl<T: Default + Send> Sync for IndexedArena<T> {}

impl<T: Default> IndexedArena<T> {
    /// Create an empty arena (no slabs allocated yet).
    pub fn new() -> Self {
        IndexedArena {
            slabs: [const { AtomicPtr::new(core::ptr::null_mut()) }; MAX_SLABS],
            next: AtomicU32::new(0),
            owned: Mutex::new(Vec::new()),
        }
    }

    /// Slab index and in-slab offset for `idx`.
    #[inline(always)]
    fn locate(idx: u32) -> (usize, usize) {
        // Shifting by BASE makes slab boundaries pure powers of two:
        // idx + BASE ∈ [BASE << k, BASE << (k+1)) ⇔ idx lives in slab k.
        let k = slab_of_index(idx) as usize;
        (k, idx as usize + BASE - (BASE << k))
    }

    /// Allocate one slot, write `T::default()` into it and return its index.
    #[inline]
    pub fn alloc_index(&self) -> u32 {
        // Made before the bump: a panicking `Default` counts no slot.
        let value = T::default();
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(idx != NULL_INDEX, "indexed arena exhausted (2^32 - 1 slots)");
        let (k, off) = Self::locate(idx);
        let mut slab = self.slabs[k].load(Ordering::Acquire);
        if slab.is_null() {
            slab = self.grow_slab(k);
        }
        // SAFETY: slab `k` holds `BASE << k > off` slots, and the bump
        // handed slot `idx` to this call alone.
        unsafe { UnsafeCell::raw_get(slab.add(off)).write(value) };
        idx
    }

    /// Allocate one slot, returning both its index and its stable address.
    ///
    /// Also prefetches the slot `FRONTIER_AHEAD` indices further on.
    /// Slots are handed out in index order, but one at a time between
    /// random-access work (a chain insert, a replayed record), so no
    /// hardware stream prefetcher follows them: unwarmed, every fresh node
    /// is a cold line, and the stores to it must drain before the caller's
    /// next locked instruction. The warmed slot belongs to a later `alloc`
    /// (of any thread) and is not written before then; a slot past the
    /// current slab is skipped, not created.
    #[inline]
    pub fn alloc(&self) -> (u32, *mut T) {
        let idx = self.alloc_index();
        let (k, off) = Self::locate(idx);
        let (ahead_k, ahead_off) = Self::locate(idx.saturating_add(FRONTIER_AHEAD));
        let slab = self.slabs[k].load(Ordering::Acquire);
        // SAFETY: `alloc_index` created slab `k`, which holds `BASE << k`
        // slots; `off` and (when it is in slab `k`) `ahead_off` are below
        // that by `locate`.
        unsafe {
            if ahead_k == k {
                prefetch_write(slab.add(ahead_off));
            }
            (idx, UnsafeCell::raw_get(slab.add(off)))
        }
    }

    /// Resolve an index to its slot's stable address.
    ///
    /// `idx` must come from this arena's [`alloc`](IndexedArena::alloc)
    /// (checked in debug builds); [`NULL_INDEX`] is never a valid input.
    #[inline(always)]
    pub fn get(&self, idx: u32) -> *mut T {
        let (k, off) = Self::locate(idx);
        let slab = self.slabs[k].load(Ordering::Acquire);
        debug_assert!(
            !slab.is_null() && idx < self.next.load(Ordering::Relaxed),
            "index {idx} not allocated by this arena"
        );
        // SAFETY: `off < BASE << k` by `locate`, and the slab stores
        // `BASE << k` slots. raw_get avoids materializing a reference.
        unsafe { UnsafeCell::raw_get(slab.add(off) as *const UnsafeCell<T>) }
    }

    /// Reverse-resolve a pointer previously returned by this arena to its
    /// index (O(slab count); test/validation use, not a hot path).
    pub fn index_of(&self, ptr: *const T) -> Option<u32> {
        let p = ptr as usize;
        for k in 0..MAX_SLABS {
            let slab = self.slabs[k].load(Ordering::Acquire);
            if slab.is_null() {
                continue;
            }
            let base = slab as usize;
            let len = BASE << k;
            if (base..base + len * core::mem::size_of::<UnsafeCell<T>>()).contains(&p) {
                let off = (p - base) / core::mem::size_of::<UnsafeCell<T>>();
                let idx = ((BASE << k) + off - BASE) as u32;
                return (idx < self.next.load(Ordering::Acquire)).then_some(idx);
            }
        }
        None
    }

    /// Number of indices handed out: slots `0..len()` are initialised
    /// (once each allocating call has returned), the rest are not.
    #[inline]
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Acquire) as usize
    }

    /// True if nothing has been allocated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cold path: reserve slab `k` exactly once, writing none of its
    /// slots, and return its base.
    #[cold]
    fn grow_slab(&self, k: usize) -> *mut UnsafeCell<T> {
        // A panic under the lock (a slab too large for a `Layout`) leaves
        // `owned` and the directory as they were, so a poisoned guard is
        // still a valid one.
        let mut owned = self.owned.lock().unwrap_or_else(PoisonError::into_inner);
        let mut ptr = self.slabs[k].load(Ordering::Relaxed);
        if ptr.is_null() {
            let mut slab = Region::<UnsafeCell<T>>::uninit(BASE << k);
            ptr = slab.as_mut_ptr().cast();
            owned.push(slab);
            self.slabs[k].store(ptr, Ordering::Release);
        }
        ptr
    }
}

impl<T: Default> Default for IndexedArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> Drop for IndexedArena<T> {
    /// Drops exactly the slots below `len()`: every one was written when it
    /// was handed out, and no other was ever written. `owned` then frees
    /// the slabs without reading them.
    fn drop(&mut self) {
        let len = *self.next.get_mut() as usize;
        for (k, slab) in self.slabs.iter_mut().enumerate() {
            let first = BASE * ((1 << k) - 1);
            let slab = *slab.get_mut();
            if first >= len || slab.is_null() {
                continue;
            }
            let written = (len - first).min(BASE << k);
            // SAFETY: slab `k` holds indices `first..first + (BASE << k)`,
            // and the ones below `len` hold a value no one else drops.
            unsafe { drop_in_place(slice_from_raw_parts_mut(slab, written)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn arena_addresses_are_stable_and_distinct() {
        let mut a = Arena::<u64>::with_chunk_size(8);
        let ptrs: Vec<*mut u64> = (0..100).map(|_| a.alloc()).collect();
        let set: HashSet<usize> = ptrs.iter().map(|p| *p as usize).collect();
        assert_eq!(set.len(), 100, "all pointers distinct");
        for (i, p) in ptrs.iter().enumerate() {
            unsafe { **p = i as u64 };
        }
        for (i, p) in ptrs.iter().enumerate() {
            assert_eq!(unsafe { **p }, i as u64, "no clobbering across chunk growth");
        }
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn arena_alloc_with_initializes() {
        let mut a = Arena::<(u64, u64)>::new();
        let p = a.alloc_with((3, 4));
        assert_eq!(unsafe { *p }, (3, 4));
    }

    #[test]
    fn arena_iter_visits_everything_in_order() {
        let mut a = Arena::<u32>::with_chunk_size(3);
        for i in 0..10u32 {
            a.alloc_with(i);
        }
        let collected: Vec<u32> = unsafe { a.iter().copied().collect() };
        assert_eq!(collected, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_arena() {
        let a = Arena::<u8>::new();
        assert!(a.is_empty());
        assert_eq!(unsafe { a.iter().count() }, 0);
    }

    #[test]
    fn var_arena_alignment_and_zeroing() {
        let mut a = VarArena::with_chunk_bytes(4096);
        for size in [1usize, 17, 64, 65, 400, 4096] {
            let p = a.alloc_bytes(size);
            assert_eq!(p as usize % CACHE_LINE, 0, "size {size} not aligned");
            for i in 0..size {
                assert_eq!(unsafe { *p.add(i) }, 0, "byte {i} of size {size} not zero");
            }
        }
        assert_eq!(a.allocations(), 6);
        // 1+1+1+2+7 lines fill 768 bytes of the first chunk; the 4096-byte
        // request opens a second. Chunks carry no alignment slack.
        assert_eq!(a.chunks.iter().map(|c| c.len()).sum::<usize>(), 2 * 4096);
    }

    #[test]
    fn var_arena_regions_do_not_overlap() {
        let mut a = VarArena::with_chunk_bytes(1024);
        let mut regions: Vec<(usize, usize)> = Vec::new();
        for i in 0..200 {
            let size = 1 + (i * 37) % 300;
            let p = a.alloc_bytes(size) as usize;
            regions.push((p, size));
        }
        regions.sort();
        for w in regions.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap between allocations");
        }
        // Writes to one region must not leak into another.
        let mut b = VarArena::with_chunk_bytes(256);
        let p1 = b.alloc_bytes(64);
        let p2 = b.alloc_bytes(64);
        unsafe {
            core::ptr::write_bytes(p1, 0xAA, 64);
            assert_eq!(*p2, 0);
        }
    }

    #[test]
    fn indexed_arena_roundtrips_and_is_dense() {
        let a = IndexedArena::<u64>::new();
        assert!(a.is_empty());
        let mut ptrs = Vec::new();
        for i in 0..5000u32 {
            let (idx, p) = a.alloc();
            assert_eq!(idx, i, "indices are dense and in allocation order");
            assert_eq!(a.get(idx), p);
            assert_eq!(a.index_of(p), Some(idx));
            unsafe { *p = u64::from(i) * 3 };
            ptrs.push(p);
        }
        assert_eq!(a.len(), 5000);
        let set: HashSet<usize> = ptrs.iter().map(|p| *p as usize).collect();
        assert_eq!(set.len(), 5000, "no two allocations alias");
        for (i, p) in ptrs.iter().enumerate() {
            assert_eq!(unsafe { **p }, i as u64 * 3, "no clobbering across slab growth");
        }
    }

    #[test]
    fn slab_of_index_matches_geometry() {
        // Slab k spans [BASE·(2^k − 1), BASE·(2^(k+1) − 1)).
        assert_eq!(slab_of_index(0), 0);
        assert_eq!(slab_of_index((BASE - 1) as u32), 0);
        assert_eq!(slab_of_index(BASE as u32), 1);
        assert_eq!(slab_of_index((3 * BASE - 1) as u32), 1);
        assert_eq!(slab_of_index((3 * BASE) as u32), 2);
        // Consistent with the arena's own locate() on every boundary.
        for idx in [0u32, 1, 1023, 1024, 3071, 3072, 7167, 7168, 1 << 20] {
            let (k, off) = IndexedArena::<u64>::locate(idx);
            assert_eq!(k as u32, slab_of_index(idx), "idx {idx}");
            assert!(off < BASE << k, "idx {idx} offset out of slab");
        }
    }

    #[test]
    fn indexed_arena_slots_default_initialize() {
        let a = IndexedArena::<(u64, u64)>::new();
        let (idx, _) = a.alloc();
        assert_eq!(unsafe { *a.get(idx) }, (0, 0));
    }

    #[test]
    fn indexed_arena_index_of_rejects_foreign_pointers() {
        let a = IndexedArena::<u64>::new();
        let _ = a.alloc();
        let other = 7u64;
        assert_eq!(a.index_of(&other), None);
    }

    #[test]
    fn indexed_arena_concurrent_alloc_is_disjoint() {
        /// Not all-zero bytes, so a slot the arena never wrote (a fresh
        /// page reads zero) cannot pass for a default one.
        struct Tag(u64);
        impl Default for Tag {
            fn default() -> Self {
                Tag(0xA5A5_A5A5_A5A5_A5A5)
            }
        }
        let a = IndexedArena::<Tag>::new();
        let per_thread = 4000u64;
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let a = &a;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let (idx, p) = a.alloc();
                        // Every slot from index FRONTIER_AHEAD on was
                        // prefetched by an earlier `alloc` before this one.
                        assert_eq!(unsafe { (*p).0 }, Tag::default().0, "slot {idx} handed out");
                        // Tag the slot; a collision would clobber it.
                        unsafe { (*p).0 = (tid << 32) | i };
                        assert_eq!(a.get(idx), p);
                    }
                });
            }
        });
        assert_eq!(a.len(), 4 * per_thread as usize);
        // Every slot carries exactly one thread's tag: no aliasing.
        let mut seen = HashSet::new();
        for idx in 0..a.len() as u32 {
            let v = unsafe { (*a.get(idx)).0 };
            assert!(seen.insert(v), "value {v:#x} written twice: slots aliased");
        }
    }

    #[test]
    #[should_panic(expected = "allocation larger than chunk")]
    fn var_arena_rejects_oversized() {
        let mut a = VarArena::with_chunk_bytes(128);
        a.alloc_bytes(129);
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn var_arena_rejects_zero() {
        let mut a = VarArena::new();
        a.alloc_bytes(0);
    }
}
