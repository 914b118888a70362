//! Concurrent Pugh skip list (§4, §5.4).
//!
//! The paper adopts "the concurrent pugh skip list implementation from
//! ASCYLIB". This crate reproduces that design:
//!
//! * variable-height towers (geometric with p = 1/2), stored **inline**
//!   after a fixed node header — the reason skip-list elements "occupy
//!   larger memory space than the other evaluated data structures";
//! * per-node 1-byte latches; an insert locks **one predecessor at a
//!   time** while splicing each level bottom-up (Pugh's `getLock`
//!   discipline), so no lookup ever holds two latches — deadlock-free by
//!   construction;
//! * lock-free readers: tower pointers are release-published, searches use
//!   acquire loads and may simply miss a node whose upper levels are still
//!   being spliced.
//!
//! The search is exposed one *move* at a time ([`SkipCursor`]: examine
//! the prefetched successor — advance, match, or descend) and the insert
//! one latched level at a time ([`InsertHandle::alloc_node`],
//! [`try_splice_level`]), so the `amac-ops` state machines and the
//! coroutines run them as AMAC code stages and keep only control flow.
//! Stage 0 ([`SkipCursor::start`]) walks the list's *hot prefix* inline:
//! the top [`HOT_LEVELS`] levels, whose towers fit in
//! [`HOT_BYTES`] and which every search reads again.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

use amac_mem::arena::VarArena;
use amac_mem::latch::Latch;
use amac_mem::rng::XorShift64;
use amac_mem::{Cursor, Move, HOT_BYTES};
use core::marker::PhantomData;
use core::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::Mutex;

/// Highest tower index (towers hold `top_level + 1 <= MAX_LEVEL + 1`
/// pointers). 24 suits the paper's maximum of 2^25 elements at p = 1/2.
pub const MAX_LEVEL: usize = 24;

/// Levels [`SkipCursor::start`] walks inline, above the staged floor
/// `level − HOT_LEVELS`: 11. The top `HOT_LEVELS` levels hold about
/// `2^HOT_LEVELS` towers, which at 128 bytes per node (its header line
/// and the line of a tall tower's slot) fit in [`HOT_BYTES`].
pub const HOT_LEVELS: usize = (HOT_BYTES / 128).ilog2() as usize;

/// Fixed node header; the tower of `top_level + 1` atomic next-pointers is
/// laid out immediately after it (see [`SkipNode::next_ptr`]).
#[repr(C)]
pub struct SkipNode {
    /// Search key (the head sentinel's key is ignored).
    pub key: u64,
    /// Carried payload.
    pub payload: u64,
    /// Per-node latch taken while this node's `next` is being spliced.
    pub latch: Latch,
    /// Highest valid tower index for this node.
    pub top_level: u8,
}

/// Byte offset of the tower behind the header (header is 24 bytes less
/// padding; `size_of` accounts for alignment).
const TOWER_OFFSET: usize = core::mem::size_of::<SkipNode>();

impl SkipNode {
    /// Bytes needed for a node with tower index `top_level`.
    #[inline]
    pub fn alloc_size(top_level: usize) -> usize {
        TOWER_OFFSET + (top_level + 1) * core::mem::size_of::<AtomicPtr<SkipNode>>()
    }

    /// The address of the tower slot for `level`: inside the node when it
    /// was allocated with [`SkipNode::alloc_size`] for a `top_level >=
    /// level`.
    #[inline(always)]
    fn tower(&self, level: usize) -> *const AtomicPtr<SkipNode> {
        debug_assert!(level <= self.top_level as usize);
        let base = (self as *const SkipNode as *const u8).wrapping_add(TOWER_OFFSET);
        (base as *const AtomicPtr<SkipNode>).wrapping_add(level)
    }

    /// Acquire-load the successor at `level`.
    ///
    /// # Safety
    /// `self` must have been allocated with [`SkipNode::alloc_size`] for a
    /// `top_level >= level`.
    #[inline(always)]
    pub unsafe fn next_ptr(&self, level: usize) -> *mut SkipNode {
        // SAFETY: the caller guarantees the slot is inside this node.
        unsafe { (*self.tower(level)).load(Ordering::Acquire) }
    }

    /// Release-store the successor at `level`.
    ///
    /// # Safety
    /// As for [`SkipNode::next_ptr`]; the caller must hold this node's
    /// latch (or have exclusive access during node initialization).
    #[inline(always)]
    pub unsafe fn set_next(&self, level: usize, p: *mut SkipNode) {
        // SAFETY: the caller guarantees the slot is inside this node.
        unsafe { (*self.tower(level)).store(p, Ordering::Release) }
    }
}

/// Prefetch the parts of node `p` a level-`level` visit will touch: the
/// header line (key) and, for tall towers, the separate line holding the
/// `level` tower slot. Safe for any pointer (prefetch never faults).
///
/// `PREFETCHT0`, not the paper's NTA: every search walks the same tall
/// towers near the head again, and an NTA fill that leaves L1 is not kept
/// in L2. Branch-free on purpose (a short tower prefetches its header
/// twice): the sequential baseline's only memory parallelism is the core
/// speculating down the levels, and a tower-height branch inside the
/// move cost it 10–25 % on a 2^20-key list, depending on block placement.
#[inline(always)]
fn prefetch_node(p: *const SkipNode, level: usize) {
    use amac_mem::prefetch::prefetch_read_t0;
    prefetch_read_t0(p);
    let slot = TOWER_OFFSET + level * core::mem::size_of::<AtomicPtr<SkipNode>>();
    let slot = if slot >= amac_mem::align::CACHE_LINE { slot } else { 0 };
    prefetch_read_t0((p as *const u8).wrapping_add(slot));
}

/// What one [`SkipCursor::step`] did (Table 1's search stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipMove {
    /// The successor's key was smaller: moved right at this level.
    Advanced,
    /// The successor holds the key; its payload.
    Found(u64),
    /// The successor is past the key (or the level ended): moved down
    /// from this level, at which this node is the key's predecessor (what
    /// an insert collects for its splice).
    Descended(usize, *mut SkipNode),
    /// As `Descended` from level 0, with nowhere to go: the key is absent.
    Bottom(*mut SkipNode),
}

/// A resumable search position: a node, a level, and the successor whose
/// line the previous move prefetched. Each [`step`](SkipCursor::step) is
/// one AMAC code stage — it dereferences only that successor. The default
/// cursor is an exhausted search (`step` returns [`SkipMove::Bottom`] of a
/// null node without touching memory).
pub struct SkipCursor<'l> {
    cur: *const SkipNode,
    next: *const SkipNode,
    level: usize,
    /// Nodes are arena-owned by the list and never freed while it lives.
    list: PhantomData<&'l SkipList>,
}

impl Default for SkipCursor<'_> {
    fn default() -> Self {
        SkipCursor { cur: core::ptr::null(), next: core::ptr::null(), level: 0, list: PhantomData }
    }
}

impl<'l> SkipCursor<'l> {
    /// Stage 0: walk the hot prefix for `key` inline — every level above
    /// `floor = level − HOT_LEVELS`, with no prefetch — then stand on the
    /// floor level and prefetch the successor there. Each hot level's
    /// predecessor goes to `descended(level, pred)` as the walk leaves that
    /// level (what an insert collects for its splice). A key matched inside
    /// the prefix stops the walk with the match as the successor, so the
    /// first [`step`](Self::step) reports [`SkipMove::Found`].
    ///
    /// Pugh's rule: on a descent the walk does not compare again the node
    /// it just rejected.
    #[inline(always)]
    pub fn start(
        list: &'l SkipList,
        key: u64,
        mut descended: impl FnMut(usize, *mut SkipNode),
    ) -> Self {
        let mut level = list.level();
        let floor = level.saturating_sub(HOT_LEVELS);
        let mut cur = list.head();
        let mut rejected: *const SkipNode = core::ptr::null();
        while level > floor {
            // SAFETY: as in `load_next` and `step`: `cur` is the head or a
            // node reached at `level`, and a non-null successor is a
            // published, initialized node.
            unsafe {
                let next = (*cur).next_ptr(level);
                if !core::ptr::eq(next, rejected) && !next.is_null() {
                    if (*next).key < key {
                        cur = next;
                        continue;
                    }
                    if (*next).key == key {
                        return SkipCursor { cur, next, level, list: PhantomData };
                    }
                }
                rejected = next;
            }
            descended(level, cur as *mut SkipNode);
            level -= 1;
        }
        let mut c = SkipCursor { cur, level, ..Default::default() };
        c.load_next();
        c
    }

    /// Read and prefetch `cur`'s successor at the current level.
    #[inline(always)]
    fn load_next(&mut self) {
        // SAFETY: `cur` is the head (full-height tower) or a node reached
        // at `level`, so its tower holds that slot; nodes outlive `'l`.
        self.next = unsafe { (*self.cur).next_ptr(self.level) };
        prefetch_node(self.next, self.level);
    }

    /// Compare `key` with the prefetched successor and make one move.
    ///
    /// Branchy on purpose: a cmov advance/descend took `ops.skiplist`
    /// AMAC from 1248 to 1497 cycles/tuple and the baseline from 2742 to
    /// 5076, whose only memory parallelism is speculation past these
    /// branches.
    #[inline(always)]
    pub fn step(&mut self, key: u64) -> SkipMove {
        let next = self.next;
        // SAFETY: a non-null `next` was acquire-loaded from a published
        // tower slot, so it points at an initialized arena node.
        unsafe {
            if !next.is_null() && (*next).key < key {
                self.cur = next;
                self.load_next();
                return SkipMove::Advanced;
            }
            if !next.is_null() && (*next).key == key {
                return SkipMove::Found((*next).payload);
            }
        }
        let pred = self.cur as *mut SkipNode;
        if self.level == 0 {
            return SkipMove::Bottom(pred);
        }
        self.level -= 1;
        self.load_next();
        SkipMove::Descended(self.level + 1, pred)
    }
}

/// The search without the predecessors: every move that is not a match
/// or the bottom is a [`Move::Descended`].
impl<'l> Cursor<'l> for SkipCursor<'l> {
    type Index = SkipList;

    #[inline(always)]
    fn start(list: &'l SkipList, key: u64) -> Self {
        SkipCursor::start(list, key, |_, _| {})
    }

    #[inline(always)]
    fn step(&mut self, key: u64) -> Move {
        match SkipCursor::step(self, key) {
            SkipMove::Advanced | SkipMove::Descended(..) => Move::Descended,
            SkipMove::Found(payload) => Move::Found(payload),
            SkipMove::Bottom(_) => Move::Missed,
        }
    }
}

/// Outcome of one single-level splice attempt (an AMAC code stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpliceOutcome {
    /// The new node is linked at this level.
    Spliced,
    /// The predecessor's latch was busy; retry later (AMAC defers, others
    /// spin).
    Blocked,
    /// A concurrent insert moved the window; retry from the returned,
    /// closer predecessor.
    Moved(*mut SkipNode),
    /// A node with this key already exists (detected under the latch).
    AlreadyPresent,
}

/// Splice `new_node` after the best predecessor at `level`, starting the
/// predecessor scan from `pred`.
///
/// One latch is held at a time; the function never blocks — a busy latch
/// returns [`SpliceOutcome::Blocked`] so AMAC can defer.
///
/// # Safety
/// `pred` must be a reachable node with `top_level >= level`; `new_node`
/// must be a fully initialized, not-yet-linked-at-this-level node whose
/// key ordering places it after `pred`. The same `(new_node, level)` pair
/// must not be spliced twice.
pub unsafe fn try_splice_level(
    mut pred: *mut SkipNode,
    new_node: *mut SkipNode,
    level: usize,
) -> SpliceOutcome {
    // SAFETY: the caller's contract: `pred` and `new_node` are live nodes
    // tall enough for `level`, and every successor read is a published one.
    unsafe {
        let key = (*new_node).key;
        // Unlatched advance toward the insertion window.
        loop {
            let next = (*pred).next_ptr(level);
            if next.is_null() || (*next).key >= key {
                break;
            }
            pred = next;
        }
        if !(*pred).latch.try_acquire() {
            return SpliceOutcome::Blocked;
        }
        // Re-validate under the latch.
        let next = (*pred).next_ptr(level);
        if !next.is_null() && (*next).key < key {
            // The window moved; hand the caller the closer predecessor.
            (*pred).latch.release();
            return SpliceOutcome::Moved(next);
        }
        if !next.is_null() && (*next).key == key {
            (*pred).latch.release();
            return SpliceOutcome::AlreadyPresent;
        }
        (*new_node).set_next(level, next);
        (*pred).set_next(level, new_node);
        (*pred).latch.release();
        SpliceOutcome::Spliced
    }
}

/// The concurrent skip list.
pub struct SkipList {
    head: *mut SkipNode,
    /// Current highest level in use (search entry hint).
    level_hint: AtomicU32,
    /// Node arenas: the head's own plus any donated by insert handles.
    arenas: Mutex<Vec<VarArena>>,
}

// SAFETY: tower mutation is latch-guarded with release/acquire publication;
// arenas are owned by the list; head is immutable after construction.
unsafe impl Send for SkipList {}
// SAFETY: as for `Send`.
unsafe impl Sync for SkipList {}

impl SkipList {
    /// An empty list (head sentinel with a full-height tower).
    pub fn new() -> Self {
        let mut arena = VarArena::new();
        let head = alloc_node_in(&mut arena, u64::MIN, 0, MAX_LEVEL);
        SkipList { head, level_hint: AtomicU32::new(0), arenas: Mutex::new(vec![arena]) }
    }

    /// The head sentinel (a search's start node at every level).
    #[inline(always)]
    pub fn head(&self) -> *const SkipNode {
        self.head
    }

    /// Current search entry level.
    #[inline(always)]
    pub fn level(&self) -> usize {
        self.level_hint.load(Ordering::Acquire) as usize
    }

    /// Raise the entry level hint after inserting a tall node.
    #[inline]
    pub fn raise_level(&self, level: usize) {
        self.level_hint.fetch_max(level as u32, Ordering::AcqRel);
    }

    /// Open an insert session with a private node arena (donated back on
    /// drop) and a private tower-height RNG.
    pub fn handle(&self, seed: u64) -> InsertHandle<'_> {
        InsertHandle { list: self, arena: Some(VarArena::new()), rng: XorShift64::new(seed) }
    }

    /// Reference search: the walk a [`SkipCursor`] stages, with no
    /// prefetch. Returns the payload of the exact match, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        let mut level = self.level() as isize;
        let mut pred = self.head as *const SkipNode;
        while level >= 0 {
            // SAFETY: nodes are arena-owned and published with release
            // stores; acquire loads in next_ptr.
            unsafe {
                loop {
                    let next = (*pred).next_ptr(level as usize);
                    if next.is_null() || (*next).key > key {
                        break;
                    }
                    if (*next).key == key {
                        return Some((*next).payload);
                    }
                    pred = next;
                }
            }
            level -= 1;
        }
        None
    }

    /// Number of elements (level-0 walk; validation use).
    pub fn len(&self) -> usize {
        self.nodes_at(0).count()
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.nodes_at(0).next().is_none()
    }

    /// Level-0 snapshot of `(key, payload)` pairs in key order
    /// (validation use).
    pub fn items(&self) -> Vec<(u64, u64)> {
        self.nodes_at(0).map(|n| (n.key, n.payload)).collect()
    }

    /// The nodes linked at `level`, in list order (a read traversal as in
    /// [`get`](Self::get); validation use).
    pub fn nodes_at(&self, level: usize) -> impl Iterator<Item = &SkipNode> {
        assert!(level <= MAX_LEVEL, "level {level} above MAX_LEVEL");
        let mut cur: *const SkipNode = self.head;
        core::iter::from_fn(move || {
            // SAFETY: `cur` is the head (a full-height tower) or a node
            // linked at `level`, so its tower holds that slot; a non-null
            // successor is a published node the list's arenas own.
            let next = unsafe { (*cur).next_ptr(level).as_ref()? };
            cur = next;
            Some(next)
        })
    }
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

/// Allocate and header-initialize a node (tower slots start null).
fn alloc_node_in(arena: &mut VarArena, key: u64, payload: u64, top_level: usize) -> *mut SkipNode {
    assert!(top_level <= MAX_LEVEL);
    let bytes = SkipNode::alloc_size(top_level);
    let p = arena.alloc_bytes(bytes) as *mut SkipNode;
    // SAFETY: fresh zeroed cache-line-aligned allocation of sufficient
    // size; zero bytes are a valid "null" tower and a released latch.
    unsafe {
        (*p).key = key;
        (*p).payload = payload;
        (*p).top_level = top_level as u8;
    }
    p
}

/// An insert session against a shared [`SkipList`].
pub struct InsertHandle<'l> {
    list: &'l SkipList,
    arena: Option<VarArena>,
    rng: XorShift64,
}

impl<'l> InsertHandle<'l> {
    /// The list this handle inserts into.
    #[inline]
    pub fn list(&self) -> &'l SkipList {
        self.list
    }

    /// Draw a tower height (geometric, p = 1/2, capped at [`MAX_LEVEL`]).
    #[inline]
    pub fn random_level(&mut self) -> usize {
        self.rng.skiplist_level(MAX_LEVEL as u32) as usize
    }

    /// Allocate a node from the private arena.
    pub fn alloc_node(&mut self, key: u64, payload: u64, top_level: usize) -> *mut SkipNode {
        alloc_node_in(
            self.arena.as_mut().expect("arena present until drop"),
            key,
            payload,
            top_level,
        )
    }

    /// Reference insert (the baseline/GP/SPP latch discipline: spins on
    /// busy latches). Returns `false` if `key` was already present.
    pub fn insert(&mut self, key: u64, payload: u64) -> bool {
        // Search phase: collect the predecessor at each level.
        let mut preds = [core::ptr::null_mut::<SkipNode>(); MAX_LEVEL + 1];
        let mut pred = self.list.head;
        let mut level = self.list.level() as isize;
        // Everything above the current hint shares the head as pred.
        for p in preds.iter_mut().skip(level as usize + 1) {
            *p = self.list.head;
        }
        while level >= 0 {
            // SAFETY: read traversal with acquire loads.
            unsafe {
                loop {
                    let next = (*pred).next_ptr(level as usize);
                    if next.is_null() || (*next).key >= key {
                        break;
                    }
                    pred = next;
                }
                let res = {
                    let next = (*pred).next_ptr(level as usize);
                    !next.is_null() && (*next).key == key
                };
                if res {
                    return false; // already present
                }
            }
            preds[level as usize] = pred;
            level -= 1;
        }
        // Splice phase: bottom-up, one latch at a time.
        let top = self.random_level();
        let node = self.alloc_node(key, payload, top);
        for (lvl, &pred0) in preds.iter().enumerate().take(top + 1) {
            let mut p = pred0;
            loop {
                // SAFETY: preds are reachable nodes with sufficient tower
                // height (head for levels above the old hint); node is
                // initialized and unspliced at lvl.
                match unsafe { try_splice_level(p, node, lvl) } {
                    SpliceOutcome::Spliced => break,
                    SpliceOutcome::Blocked => core::hint::spin_loop(),
                    SpliceOutcome::Moved(np) => p = np,
                    SpliceOutcome::AlreadyPresent => {
                        // Lost a level-0 race to an equal key.
                        debug_assert_eq!(lvl, 0, "duplicate detected above level 0");
                        return false;
                    }
                }
            }
        }
        self.list.raise_level(top);
        true
    }
}

impl Drop for InsertHandle<'_> {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            self.list.arenas.lock().expect("arena registry poisoned").push(arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_workload::Relation;

    #[test]
    fn header_layout() {
        // key + payload + latch + top_level (+pad) = 24 bytes.
        assert_eq!(TOWER_OFFSET, 24);
        assert_eq!(SkipNode::alloc_size(0), 32);
        assert_eq!(SkipNode::alloc_size(MAX_LEVEL), 24 + 25 * 8);
    }

    #[test]
    fn insert_get_roundtrip() {
        let sl = SkipList::new();
        assert!(sl.is_empty());
        {
            let mut h = sl.handle(1);
            for k in [5u64, 1, 9, 3, 7] {
                assert!(h.insert(k, k * 100));
            }
        }
        assert_eq!(sl.len(), 5);
        for k in [5u64, 1, 9, 3, 7] {
            assert_eq!(sl.get(k), Some(k * 100));
        }
        assert_eq!(sl.get(2), None);
        assert_eq!(sl.get(100), None);
    }

    #[test]
    fn cursor_driven_to_completion_equals_get() {
        /// Drive a cursor to the end, checking what each move reports.
        fn cursor_get(sl: &SkipList, key: u64) -> Option<u64> {
            // SAFETY: a node the walk or the cursor stood on is live.
            let below =
                |pred: *mut SkipNode| std::ptr::eq(pred, sl.head()) || unsafe { (*pred).key } < key;
            let mut hot = Vec::new();
            let mut c = SkipCursor::start(sl, key, |left, pred| hot.push((left, pred)));
            let mut level = sl.level();
            for (left, pred) in hot {
                assert_eq!(left, level, "hot levels are left one at a time, top down");
                assert!(below(pred));
                level -= 1;
            }
            assert!(level >= sl.level().saturating_sub(HOT_LEVELS), "the walk stops at the floor");
            loop {
                match c.step(key) {
                    SkipMove::Advanced => {}
                    SkipMove::Descended(left, pred) => {
                        assert_eq!(left, level, "levels are left one at a time, top down");
                        assert!(below(pred));
                        level -= 1;
                    }
                    SkipMove::Found(p) => return Some(p),
                    SkipMove::Bottom(_) => return None,
                }
            }
        }
        let sl = SkipList::new();
        assert_eq!(cursor_get(&sl, 5), None, "empty list");
        let inert = SkipMove::Bottom(core::ptr::null_mut());
        assert_eq!(SkipCursor::default().step(5), inert, "default cursor is inert");
        {
            let mut h = sl.handle(8);
            for k in 1..=3000u64 {
                h.insert(k * 4 + 10, k ^ 0xABC);
            }
        }
        // Hits, in-range misses, below-min and above-max keys.
        let keys = (1..=3000u64).flat_map(|k| [k * 4 + 10, k * 4 + 11]).chain([
            0,
            1,
            13,
            3000 * 4 + 12,
            u64::MAX,
        ]);
        let mut hits = 0;
        for key in keys {
            let want = sl.get(key);
            assert_eq!(cursor_get(&sl, key), want, "key {key}");
            hits += want.is_some() as usize;
        }
        assert_eq!(hits, 3000);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let sl = SkipList::new();
        let mut h = sl.handle(2);
        assert!(h.insert(42, 1));
        assert!(!h.insert(42, 2));
        drop(h);
        assert_eq!(sl.len(), 1);
        assert_eq!(sl.get(42), Some(1));
    }

    #[test]
    fn items_are_key_ordered() {
        let sl = SkipList::new();
        {
            let mut h = sl.handle(3);
            let rel = Relation::sparse_unique(2000, 4);
            for t in &rel.tuples {
                assert!(h.insert(t.key, t.payload));
            }
        }
        let items = sl.items();
        assert_eq!(items.len(), 2000);
        assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "keys strictly ascending");
    }

    #[test]
    fn level_hint_grows_with_size() {
        let sl = SkipList::new();
        {
            let mut h = sl.handle(5);
            for k in 1..=4096u64 {
                h.insert(k * 7, k);
            }
        }
        let lvl = sl.level();
        assert!(lvl >= 6, "level hint {lvl} too low for 4096 elements");
        assert!(lvl <= MAX_LEVEL);
    }

    #[test]
    fn every_tower_level_reaches_its_members() {
        // Structural invariant: walking any level visits a subsequence of
        // level 0, in strictly increasing key order.
        let sl = SkipList::new();
        {
            let mut h = sl.handle(6);
            for k in 0..3000u64 {
                h.insert(k * 3 + 1, k);
            }
        }
        let level0: Vec<u64> = sl.items().into_iter().map(|(k, _)| k).collect();
        for lvl in 0..=sl.level() {
            let keys: Vec<u64> = sl.nodes_at(lvl).map(|n| n.key).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "level {lvl} unordered");
            let set: std::collections::HashSet<u64> = level0.iter().copied().collect();
            assert!(keys.iter().all(|k| set.contains(k)), "level {lvl} has ghost keys");
        }
    }

    #[test]
    fn concurrent_inserts_disjoint_keys() {
        let sl = SkipList::new();
        const THREADS: u64 = 4;
        const PER: u64 = 5_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let sl = &sl;
                s.spawn(move || {
                    let mut h = sl.handle(100 + t);
                    for i in 0..PER {
                        assert!(h.insert(t + i * THREADS + 1, t));
                    }
                });
            }
        });
        assert_eq!(sl.len(), (THREADS * PER) as usize);
        let items = sl.items();
        assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn concurrent_inserts_racing_same_keys() {
        // All threads insert the same key set; exactly one wins per key.
        let sl = SkipList::new();
        use std::sync::atomic::{AtomicU64, Ordering};
        let wins = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sl = &sl;
                let wins = &wins;
                s.spawn(move || {
                    let mut h = sl.handle(t);
                    let mut local = 0u64;
                    for k in 1..=2_000u64 {
                        if h.insert(k, t) {
                            local += 1;
                        }
                    }
                    wins.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sl.len(), 2_000);
        assert_eq!(wins.load(Ordering::Relaxed), 2_000, "each key won exactly once");
    }

    #[test]
    fn search_during_concurrent_inserts_never_sees_garbage() {
        let sl = SkipList::new();
        std::thread::scope(|s| {
            let sl_ref = &sl;
            s.spawn(move || {
                let mut h = sl_ref.handle(9);
                for k in 1..=20_000u64 {
                    h.insert(k, k ^ 0xFF);
                }
            });
            s.spawn(move || {
                for _ in 0..200 {
                    for k in (1..=20_000u64).step_by(197) {
                        if let Some(p) = sl_ref.get(k) {
                            assert_eq!(p, k ^ 0xFF, "payload of {k} corrupted");
                        }
                    }
                }
            });
        });
        assert_eq!(sl.len(), 20_000);
    }
}
