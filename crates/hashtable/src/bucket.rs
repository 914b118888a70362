//! The 64-byte tag-probed chain-node layout.
//!
//! The seed reproduction used the paper's literal C struct: 1-byte count
//! (padded to 8), two 16-byte tuples and an 8-byte `next` pointer — 48
//! payload bytes, 2 tuples per cache line. At the paper's fill factors
//! that layout pays one chain hop per two tuples, and in AMAC every hop is
//! a full stage: one more prefetch, one more window rotation, one more
//! dependent cache-line access. This module re-spends the line's budget:
//!
//! * the 8-byte `next` pointer becomes a **`u32` index** into the table's
//!   [`IndexedArena`](amac_mem::arena::IndexedArena) (4 bytes reclaimed);
//! * count and padding collapse into one packed [`meta`](BucketData::meta)
//!   word that also carries an 8-bit splitmix-derived **fingerprint per
//!   slot** (tags);
//! * the reclaimed bytes raise inline capacity from 2 to **3 tuples per
//!   node** — expected hops per probe drop by ~1/3 at equal fill factor.
//!
//! The tags pay a second dividend, the **node kernel** [`tag_slots`]: one
//! XOR against the packed meta word plus a borrow-free SWAR zero-lane test
//! names exactly the slots whose tag equals the key's fingerprint, and a
//! walk compares keys only there, lowest slot first ([`Slots`]). A chain
//! node that holds no match is usually rejected from its first 4 bytes,
//! and a node that does costs one key compare per candidate slot instead
//! of a scan whose trip count and exit slot vary per lookup.
//! [`tags_may_match`] is the kernel's yes/no form.
//!
//! What the redesign bought is frozen in `tests/layout_ab.rs`: the
//! seed layout's nodes visited per lookup, measured before it was
//! deleted, against which the surviving layout must stay >= 25% lower.

use amac_mem::latch::Latch;
use amac_mem::NULL_INDEX;
use amac_workload::Tuple;
use core::cell::UnsafeCell;
use core::ptr::addr_of_mut;
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Tuples stored inline per chain node (bucket header or overflow node).
pub const TUPLES_PER_NODE: usize = 3;

/// Build the packed probe word for fingerprint `fp`: the fingerprint
/// broadcast into the three tag lanes, with lane 3 poisoned (`0xFF`) so
/// the count byte of [`BucketData::meta`] can never fake a match.
#[inline(always)]
pub fn probe_word(fp: u8) -> u32 {
    u32::from_le_bytes([fp, fp, fp, 0xFF])
}

/// The node kernel: the slots of a node whose tag equals the probed
/// fingerprint, as a [`Slots`] iterator.
///
/// `meta` packs three tag bytes plus the count byte; `probe` comes from
/// [`probe_word`]. XOR zeroes exactly the lanes whose tag equals the
/// fingerprint. Per lane, `(x & 0x7F) + 0x7F` sets bit 7 iff the low seven
/// bits are nonzero, and cannot carry into the next lane; OR-ing `x` adds
/// the lane's own bit 7, so after the NOT bit 7 is set iff the lane is
/// zero. Unlike the Mycroft test's borrow, this is exact per lane, so the
/// mask names slots, not just "some slot". The count lane is masked off.
/// No false negatives (an equal tag always yields a zero lane) and no
/// spurious slots: empty slots hold tag 0 while real fingerprints have the
/// high bit set ([`amac_mem::hash::tag_of`]).
#[inline(always)]
pub fn tag_slots(meta: u32, probe: u32) -> Slots {
    const LOW7: u32 = 0x7F7F_7F7F;
    let x = meta ^ probe;
    Slots(!(((x & LOW7) + LOW7) | x | LOW7) & 0x0080_8080)
}

/// Yes/no tag filter: true iff some **occupied** slot's tag equals the
/// probed fingerprint — `!tag_slots(meta, probe).is_empty()` for every
/// `probe` from [`probe_word`], computed with the Mycroft zero-byte test
/// (three ALU ops). Its per-lane bits are wrong above a zero lane, so it
/// cannot name the slots; only the existence answer is exact (the count
/// lane is poisoned by `probe_word`, so it never reads as zero).
#[inline(always)]
pub fn tags_may_match(meta: u32, probe: u32) -> bool {
    let x = meta ^ probe;
    (x.wrapping_sub(0x0101_0101) & !x & 0x8080_8080) != 0
}

/// The tag-matching slots of one node, from [`tag_slots`]: yields their
/// indices lowest first (`tzcnt / 8`, then clear the lowest set bit), so
/// a walk meets duplicate keys in slot order. Every slot that holds the
/// probed key is among them; a foreign key with a colliding tag is too,
/// which is why callers still compare keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots(u32);

impl Slots {
    /// True when no slot's tag matches: the node is a tag reject.
    #[inline(always)]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Iterator for Slots {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = (self.0.trailing_zeros() / 8) as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// Mutable interior of a chain node: 3 inline tuples, `u32` chain link,
/// packed tags + count.
///
/// `repr(C)` keeps the layout exact: 48 B tuples + 4 B next + 4 B meta =
/// 56 B, leaving the latch and padding to reach one cache line.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketData {
    /// Inline tuple storage; slots `0..count()` are valid.
    pub tuples: [Tuple; TUPLES_PER_NODE],
    /// Arena index of the next chain node, or [`NULL_INDEX`].
    pub next: u32,
    /// Packed metadata: bytes 0..=2 hold the per-slot fingerprints (0 =
    /// empty slot), byte 3 holds the occupied-slot count. One u32 load
    /// feeds the node kernel ([`tag_slots`]); the count only places
    /// appends.
    pub meta: u32,
}

impl BucketData {
    /// Number of occupied tuple slots in this node (0..=3).
    #[inline(always)]
    pub fn count(&self) -> usize {
        (self.meta >> 24) as usize
    }

    /// Fingerprint stored for slot `i` (0 when the slot is empty).
    #[inline(always)]
    pub fn tag(&self, i: usize) -> u8 {
        debug_assert!(i < TUPLES_PER_NODE);
        (self.meta >> (8 * i)) as u8
    }

    /// Append `tuple` with fingerprint `tag` to the next free slot.
    /// Caller guarantees `count() < TUPLES_PER_NODE`.
    #[inline(always)]
    pub fn push(&mut self, tuple: Tuple, tag: u8) {
        let c = self.count();
        debug_assert!(c < TUPLES_PER_NODE, "node full");
        self.tuples[c] = tuple;
        self.meta = (self.meta | ((tag as u32) << (8 * c))).wrapping_add(1 << 24);
    }
}

impl Default for BucketData {
    fn default() -> Self {
        BucketData { tuples: [Tuple::default(); TUPLES_PER_NODE], next: NULL_INDEX, meta: 0 }
    }
}

/// One cache-line-aligned hash-table chain node (bucket header and
/// overflow node share this layout, as in the paper's Fig. 1).
#[repr(C, align(64))]
#[derive(Debug, Default)]
pub struct Bucket {
    /// 1-byte test-and-set latch guarding this bucket's whole chain
    /// (meaningful on bucket headers; unused on overflow nodes).
    pub latch: Latch,
    data: UnsafeCell<BucketData>,
}

// SAFETY: all mutation of `data` is performed while holding `latch` (build
// phases); traversal without the latch only happens in read-only phases.
// The `next` indices always resolve through the arena owned by the same
// table, so they remain valid as long as any reference exists.
unsafe impl Send for Bucket {}
unsafe impl Sync for Bucket {}

impl Bucket {
    /// Byte offset of the node payload ([`BucketData`]) inside the line,
    /// behind the latch: the base the vector probe's gathers add field
    /// offsets to.
    pub(crate) const DATA: usize = core::mem::offset_of!(Bucket, data);

    /// Read access to the node payload.
    ///
    /// # Safety
    /// No thread may be concurrently mutating this node (i.e. the table is
    /// in a read-only phase, or the caller holds the governing latch).
    #[inline(always)]
    pub unsafe fn data(&self) -> &BucketData {
        &*self.data.get()
    }

    /// Mutable access to the node payload.
    ///
    /// # Safety
    /// The caller must hold the governing bucket latch (or have exclusive
    /// access to the table).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn data_mut(&self) -> &mut BucketData {
        &mut *self.data.get()
    }

    /// Atomic view of this node's chain link — the only field the
    /// latch-free mutation epoch writes on *published* nodes (fresh nodes
    /// are CAS-prepended here; see `HashTable::freeze`). Plain reads of a
    /// field another thread writes atomically are a data race, so every
    /// epoch-concurrent access to `next` goes through this view.
    #[inline(always)]
    pub fn next_atomic(&self) -> &AtomicU32 {
        // SAFETY: `next` is a 4-aligned `u32` inside the node's
        // `UnsafeCell`; an atomic view over it is always valid.
        unsafe { AtomicU32::from_ptr(addr_of_mut!((*self.data.get()).next)) }
    }

    /// Atomic view of the packed tags + count word (immutable after the
    /// table freezes, but read concurrently with other fields' writes).
    #[inline(always)]
    pub fn meta_atomic(&self) -> &AtomicU32 {
        // SAFETY: as in next_atomic — `meta` is a 4-aligned u32.
        unsafe { AtomicU32::from_ptr(addr_of_mut!((*self.data.get()).meta)) }
    }

    /// [`tag_slots`] of this node for `probe`, read through the atomic
    /// view of `meta` (the latch-free walks' form of the kernel).
    #[inline(always)]
    pub fn slots(&self, probe: u32) -> Slots {
        tag_slots(self.meta_atomic().load(Ordering::Relaxed), probe)
    }

    /// Atomic view of slot `i`'s key — written by latch-free deletes
    /// (tombstone CAS to `HashTable::TOMBSTONE`).
    #[inline(always)]
    pub fn key_atomic(&self, i: usize) -> &AtomicU64 {
        debug_assert!(i < TUPLES_PER_NODE);
        // SAFETY: tuple fields are 8-aligned u64s inside the UnsafeCell.
        unsafe { AtomicU64::from_ptr(addr_of_mut!((*self.data.get()).tuples[i].key)) }
    }

    /// Atomic view of slot `i`'s payload — written by latch-free upserts
    /// (commutative `fetch_add`, so any interleaving sums identically).
    #[inline(always)]
    pub fn payload_atomic(&self, i: usize) -> &AtomicU64 {
        // SAFETY: as in key_atomic.
        debug_assert!(i < TUPLES_PER_NODE);
        unsafe { AtomicU64::from_ptr(addr_of_mut!((*self.data.get()).tuples[i].payload)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_mem::hash::tag_of;

    #[test]
    fn bucket_is_one_cache_line() {
        assert_eq!(core::mem::size_of::<Bucket>(), 64);
        assert_eq!(core::mem::align_of::<Bucket>(), 64);
    }

    #[test]
    fn bucket_data_layout_spends_the_line_on_tuples() {
        // 48 B tuples + 4 B next index + 4 B packed tags/count = 56.
        assert_eq!(core::mem::size_of::<BucketData>(), 56);
        assert_eq!(TUPLES_PER_NODE, 3);
    }

    #[test]
    fn default_bucket_is_empty() {
        let b = Bucket::default();
        let d = unsafe { b.data() };
        assert_eq!(d.count(), 0);
        assert_eq!(d.next, NULL_INDEX);
        assert_eq!(d.meta, 0);
    }

    #[test]
    fn push_tracks_count_and_tags() {
        let b = Bucket::default();
        let d = unsafe { b.data_mut() };
        for (i, key) in [42u64, 7, 99].into_iter().enumerate() {
            d.push(Tuple::new(key, key * 2), tag_of(key));
            assert_eq!(d.count(), i + 1);
            assert_eq!(d.tag(i), tag_of(key));
            assert_eq!(d.tuples[i], Tuple::new(key, key * 2));
        }
    }

    #[test]
    fn swar_filter_has_no_false_negatives() {
        let mut d = BucketData::default();
        for key in [3u64, 1_000_003, 77] {
            d.push(Tuple::new(key, 0), tag_of(key));
        }
        for key in [3u64, 1_000_003, 77] {
            assert!(
                tags_may_match(d.meta, probe_word(tag_of(key))),
                "stored key {key} must pass its own tag filter"
            );
        }
    }

    #[test]
    fn swar_filter_rejects_empty_and_poisoned_lanes() {
        // Empty node: every lane is 0, every real fingerprint has the high
        // bit set, and the count lane is poisoned — nothing may match.
        let empty = BucketData::default();
        for key in 0..1000u64 {
            assert!(!tags_may_match(empty.meta, probe_word(tag_of(key))));
        }
        // Partially filled node with maximum count: the count byte (3)
        // must never fake a tag match either.
        let mut d = BucketData::default();
        for key in [1u64, 2, 3] {
            d.push(Tuple::new(key, 0), tag_of(key));
        }
        assert_eq!(d.meta >> 24, 3);
        for fp in 0u8..=255 {
            let stored = [d.tag(0), d.tag(1), d.tag(2)];
            let expect = stored.contains(&fp);
            assert_eq!(
                tags_may_match(d.meta, probe_word(fp)),
                expect,
                "fp {fp:#x} vs stored {stored:x?}"
            );
        }
    }

    #[test]
    fn swar_filter_reject_rate_is_low() {
        // The 7-bit fingerprint keeps accidental tag collisions ~1/128 per
        // occupied slot; with 3 slots a foreign probe should pass the
        // filter well under 5% of the time.
        let mut d = BucketData::default();
        for key in [11u64, 222, 3333] {
            d.push(Tuple::new(key, 0), tag_of(key));
        }
        let trials = 100_000u64;
        let mut passes = 0u64;
        for key in 10_000..10_000 + trials {
            if tags_may_match(d.meta, probe_word(tag_of(key))) {
                passes += 1;
            }
        }
        let rate = passes as f64 / trials as f64;
        assert!(rate < 0.05, "false-pass rate {rate:.4} too high");
    }

    /// A node whose slots `0..tags.len()` hold `tags`, pushed in order.
    fn node_with(tags: &[u8]) -> BucketData {
        let mut d = BucketData::default();
        for (i, &tag) in tags.iter().enumerate() {
            d.push(Tuple::new(i as u64, 0), tag);
        }
        d
    }

    /// The scalar model of the kernel: occupied slots whose tag is `fp`.
    fn model_slots(d: &BucketData, fp: u8) -> Vec<usize> {
        (0..d.count()).filter(|&i| d.tag(i) == fp).collect()
    }

    #[test]
    fn tag_slots_names_exactly_the_matching_slots() {
        // Every node of 0..=3 slots over the boundary tags and a few
        // seeded random ones, against every fingerprint.
        let mut rng = amac_mem::rng::XorShift64::new(0x7A65_5107);
        let mut pool = vec![0x80u8, 0x81, 0xFE, 0xFF];
        pool.extend((0..4).map(|_| 0x80 | rng.next_u64() as u8));
        let n = pool.len();
        for count in 0..=TUPLES_PER_NODE {
            for combo in 0..n.pow(count as u32) {
                let tags: Vec<u8> = (0..count).map(|i| pool[combo / n.pow(i as u32) % n]).collect();
                let d = node_with(&tags);
                for fp in 0x80..=0xFFu8 {
                    let slots = tag_slots(d.meta, probe_word(fp));
                    assert_eq!(
                        slots.collect::<Vec<_>>(),
                        model_slots(&d, fp),
                        "{tags:x?} fp {fp:#x}"
                    );
                    assert_eq!(slots.is_empty(), !tags_may_match(d.meta, probe_word(fp)));
                }
            }
        }
    }

    #[test]
    fn tag_slots_is_exact_next_to_a_matching_lane() {
        // Lane i matches and lane i + 1 differs from the fingerprint only
        // in bit 0: the zero lane's borrow makes the Mycroft test flag
        // lane i + 1 too, so its per-lane bits cannot name slots.
        for i in 0..TUPLES_PER_NODE - 1 {
            for fp in 0x80..=0xFFu8 {
                let mut tags = [fp ^ 0x40; TUPLES_PER_NODE];
                tags[i] = fp;
                tags[i + 1] = fp ^ 1;
                let d = node_with(&tags);
                let x = d.meta ^ probe_word(fp);
                let mycroft = x.wrapping_sub(0x0101_0101) & !x & 0x8080_8080;
                assert_ne!(mycroft & (0x80 << (8 * (i + 1))), 0, "the borrow case");
                assert_eq!(tag_slots(d.meta, probe_word(fp)).collect::<Vec<_>>(), vec![i]);
            }
        }
    }

    #[test]
    fn data_mut_roundtrip() {
        let b = Bucket::default();
        unsafe {
            let d = b.data_mut();
            d.push(Tuple::new(42, 99), tag_of(42));
        }
        let d = unsafe { b.data() };
        assert_eq!(d.count(), 1);
        assert_eq!(d.tuples[0], Tuple::new(42, 99));
    }
}
