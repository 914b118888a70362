//! Open-addressing (linear probing) hash table — the flat-layout
//! counterpart to the chained [`HashTable`](crate::HashTable).
//!
//! §2.1.1 observes that "state-of-the-art hash tables offer a tradeoff
//! between performance (i.e., number of chained memory accesses) and space
//! efficiency" and that no single layout can guarantee a constant number
//! of memory accesses per probe. This module provides the other end of
//! that tradeoff for the layout ablation (`bench layout`): tuples live
//! in one flat, cache-line-aligned slot array; a probe walks *consecutive*
//! cache lines from the home slot until it hits the key or an empty slot.
//!
//! The irregularity knob is the **fill factor**: at low fill nearly every
//! probe resolves in its home cache line (a regular, 1-access pattern); as
//! fill grows, displacement — and with it the probe-length *variance* that
//! breaks static prefetch schedules — rises sharply.
//!
//! The table is built single-threaded and probed read-only (phase
//! separation; the concurrent-build story lives in the chained table).

use amac_mem::hash::mix64;
use amac_mem::Region;
use amac_workload::{Relation, Tuple};

/// Slot key value marking an empty slot. Inserted keys must differ.
pub const EMPTY_KEY: u64 = u64::MAX;

/// Tuples per cache line in the slot array (64 B line / 16 B tuple).
pub const SLOTS_PER_LINE: usize = 4;

/// A 64-byte-aligned slot group; the unit a probe step consumes and the
/// prefetcher targets.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
pub struct SlotLine {
    /// Inline tuples; `key == EMPTY_KEY` marks a free slot.
    pub slots: [Tuple; SLOTS_PER_LINE],
}

impl Default for SlotLine {
    fn default() -> Self {
        SlotLine { slots: [Tuple::new(EMPTY_KEY, 0); SLOTS_PER_LINE] }
    }
}

/// Linear-probing hash table over cache-line slot groups.
///
/// The slot count is any multiple of [`SLOTS_PER_LINE`] (not a power of
/// two): keys map to home slots with the fastrange reduction
/// `(mix64(key) · slots) >> 64`, so a requested fill factor is honoured
/// exactly instead of being destroyed by power-of-two rounding — the fill
/// knob *is* the layout ablation's independent variable.
pub struct LinearTable {
    lines: Region<SlotLine>,
    /// Total slots (multiple of `SLOTS_PER_LINE`).
    slots: usize,
    len: usize,
    /// Sum of probe displacements (slots walked past home) over inserts.
    total_displacement: u64,
    /// Largest insert displacement seen.
    max_displacement: u64,
}

impl LinearTable {
    /// Create an empty table with at least `n_slots` slots (rounded up to
    /// a whole cache line, minimum one line).
    pub fn with_slots(n_slots: usize) -> Self {
        let lines = n_slots.max(SLOTS_PER_LINE).div_ceil(SLOTS_PER_LINE);
        LinearTable {
            lines: Region::new(lines),
            slots: lines * SLOTS_PER_LINE,
            len: 0,
            total_displacement: 0,
            max_displacement: 0,
        }
    }

    /// Create a table sized so that `n_tuples` inserts reach at most
    /// `fill` occupancy (0 < `fill` < 1).
    pub fn for_tuples(n_tuples: usize, fill: f64) -> Self {
        assert!(fill > 0.0 && fill < 1.0, "fill factor must be in (0, 1), got {fill}");
        Self::with_slots(((n_tuples as f64 / fill).ceil() as usize).max(n_tuples + 1))
    }

    /// Build a table from `rel` at the given fill factor on the calling
    /// thread.
    pub fn build_serial(rel: &Relation, fill: f64) -> Self {
        let mut t = Self::for_tuples(rel.len().max(1), fill);
        for tu in &rel.tuples {
            t.insert(tu.key, tu.payload);
        }
        t
    }

    /// Total slots.
    #[inline(always)]
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Occupied slots / total slots.
    #[inline]
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.slot_count() as f64
    }

    /// Stored tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tuples are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home slot index for `key` (fastrange over the splitmix64
    /// finalizer).
    #[inline(always)]
    pub fn home_slot(&self, key: u64) -> usize {
        ((mix64(key) as u128 * self.slots as u128) >> 64) as usize
    }

    /// `slot + 1` with wraparound.
    #[inline(always)]
    pub fn next_slot(&self, slot: usize) -> usize {
        let n = slot + 1;
        if n == self.slots {
            0
        } else {
            n
        }
    }

    /// Address of the cache line containing slot `slot` — computable
    /// without touching table memory, so stage 0 can prefetch it.
    ///
    /// # Panics
    /// Debug-asserts `slot < slot_count()` (callers pass wrapped indices).
    #[inline(always)]
    pub fn line_addr(&self, slot: usize) -> *const SlotLine {
        debug_assert!(slot < self.slots);
        // SAFETY: slot < slots by the caller contract, so the line index
        // is in range.
        unsafe { self.lines.as_ptr().add(slot / SLOTS_PER_LINE) }
    }

    /// Tuple stored in `slot` (must already be wrapped).
    #[inline(always)]
    pub fn slot(&self, slot: usize) -> Tuple {
        debug_assert!(slot < self.slots);
        self.lines[slot / SLOTS_PER_LINE].slots[slot % SLOTS_PER_LINE]
    }

    /// Insert `(key, payload)` at the first free slot from `key`'s home
    /// (duplicate keys allowed; multimap semantics like the chained table).
    ///
    /// # Panics
    /// If `key == EMPTY_KEY` (reserved) or the table is full.
    pub fn insert(&mut self, key: u64, payload: u64) {
        assert_ne!(key, EMPTY_KEY, "EMPTY_KEY is reserved as the free-slot marker");
        assert!(self.len < self.slot_count(), "linear table is full");
        let mut s = self.home_slot(key);
        let mut d = 0u64;
        loop {
            let line = &mut self.lines[s / SLOTS_PER_LINE];
            if line.slots[s % SLOTS_PER_LINE].key == EMPTY_KEY {
                line.slots[s % SLOTS_PER_LINE] = Tuple::new(key, payload);
                self.len += 1;
                self.total_displacement += d;
                self.max_displacement = self.max_displacement.max(d);
                return;
            }
            s = self.next_slot(s);
            d += 1;
        }
    }

    /// First payload stored for `key`, if any (reference probe).
    pub fn lookup_first(&self, key: u64) -> Option<u64> {
        let mut s = self.home_slot(key);
        for _ in 0..self.slot_count() {
            let t = self.slot(s);
            if t.key == key {
                return Some(t.payload);
            }
            if t.key == EMPTY_KEY {
                return None;
            }
            s = self.next_slot(s);
        }
        None
    }

    /// Every payload stored for `key` within its probe window (reference).
    pub fn lookup_all(&self, key: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut s = self.home_slot(key);
        for _ in 0..self.slot_count() {
            let t = self.slot(s);
            if t.key == EMPTY_KEY {
                break;
            }
            if t.key == key {
                out.push(t.payload);
            }
            s = self.next_slot(s);
        }
        out
    }

    /// Probe-distance statistics accumulated during the build.
    pub fn stats(&self) -> LinearStats {
        LinearStats {
            slots: self.slot_count(),
            len: self.len,
            load_factor: self.load_factor(),
            avg_displacement: if self.len == 0 {
                0.0
            } else {
                self.total_displacement as f64 / self.len as f64
            },
            max_displacement: self.max_displacement,
        }
    }
}

// SAFETY: mutation only via &mut self during the build phase; probes are
// read-only over the owned slot array.
unsafe impl Send for LinearTable {}
unsafe impl Sync for LinearTable {}

/// Probe-distance statistics for a linear-probing table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearStats {
    /// Total slots.
    pub slots: usize,
    /// Occupied slots.
    pub len: usize,
    /// `len / slots`.
    pub load_factor: f64,
    /// Mean insert displacement in slots.
    pub avg_displacement: f64,
    /// Maximum insert displacement in slots.
    pub max_displacement: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_line_is_one_cache_line() {
        assert_eq!(core::mem::size_of::<SlotLine>(), 64);
        assert_eq!(core::mem::align_of::<SlotLine>(), 64);
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = LinearTable::with_slots(64);
        for k in 0..40u64 {
            t.insert(k, k * 2);
        }
        assert_eq!(t.len(), 40);
        for k in 0..40u64 {
            assert_eq!(t.lookup_first(k), Some(k * 2), "key {k}");
        }
        assert_eq!(t.lookup_first(100), None);
    }

    #[test]
    fn duplicates_are_multimap() {
        let mut t = LinearTable::with_slots(32);
        for p in 0..5u64 {
            t.insert(9, p);
        }
        let mut all = t.lookup_all(9);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_probing_works() {
        // Force every key to the last slots so probes wrap to slot 0.
        let mut t = LinearTable::with_slots(SLOTS_PER_LINE * 2); // 8 slots
                                                                 // Find keys whose home is the final slot.
        let mut keys = Vec::new();
        let mut k = 0u64;
        while keys.len() < 4 {
            if t.home_slot(k) == 7 {
                keys.push(k);
            }
            k += 1;
        }
        for (i, k) in keys.iter().enumerate() {
            t.insert(*k, i as u64);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.lookup_first(*k), Some(i as u64));
        }
    }

    #[test]
    fn fill_factor_sizes_table() {
        let t = LinearTable::for_tuples(1000, 0.5);
        assert!(t.slot_count() >= 2000);
        let t = LinearTable::for_tuples(1000, 0.9);
        assert!(t.slot_count() >= 1112);
        assert!(t.slot_count() <= 2048);
    }

    #[test]
    #[should_panic(expected = "fill factor")]
    fn fill_factor_one_rejected() {
        let _ = LinearTable::for_tuples(10, 1.0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn empty_key_rejected() {
        let mut t = LinearTable::with_slots(8);
        t.insert(EMPTY_KEY, 0);
    }

    #[test]
    fn displacement_grows_with_fill() {
        let rel = Relation::dense_unique(4096, 17);
        let sparse = LinearTable::build_serial(&rel, 0.25);
        let dense = LinearTable::build_serial(&rel, 0.9);
        assert!(
            dense.stats().avg_displacement > sparse.stats().avg_displacement * 2.0,
            "displacement must rise with load: {:?} vs {:?}",
            dense.stats(),
            sparse.stats()
        );
        // Every key still findable at both fills.
        for tu in rel.tuples.iter().step_by(61) {
            assert_eq!(sparse.lookup_first(tu.key), Some(tu.payload));
            assert_eq!(dense.lookup_first(tu.key), Some(tu.payload));
        }
    }

    #[test]
    fn matches_std_hashmap_model() {
        use std::collections::HashMap;
        let rel = Relation::zipf(5000, 800, 0.8, 23);
        let t = LinearTable::build_serial(&rel, 0.7);
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        for tu in &rel.tuples {
            model.entry(tu.key).or_default().push(tu.payload);
        }
        for (k, v) in &model {
            let mut got = t.lookup_all(*k);
            let mut want = v.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "key {k}");
        }
    }

    #[test]
    fn empty_table_queries() {
        let t = LinearTable::with_slots(16);
        assert!(t.is_empty());
        assert_eq!(t.lookup_first(1), None);
        assert!(t.lookup_all(1).is_empty());
        assert_eq!(t.stats().avg_displacement, 0.0);
    }
}
