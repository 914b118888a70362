//! The plain AMAC hash-join probe with AVX-512 lanes as its window's
//! slots: each of a vector's 8 lanes is one interleaved lookup
//! (Interleaved Multi-Vectorizing, Fang et al., PVLDB 13(3), 2019).
//!
//! On a cache-resident table a scalar AMAC probe has no miss to hide and
//! pays only for its window: a state dispatch, a refill branch and a
//! scalar hash per tuple. [`probe`] does each step for a group of 8
//! lookups at once (AVX-512F for the lanes, DQ for the 64-bit multiply of
//! the hash):
//!
//! * the splitmix hash, bucket offset and tag of 8 keys, computed once,
//!   when the group's headers are requested (one `PREFETCHNTA` each): the
//!   group `ahead` lookups (the AMAC window's `M`, in whole groups) past
//!   the group being resolved;
//! * one gather of each header's `next|meta` word, the tag compares, one
//!   gather of the key at the lowest tag-matching slot and one of the key
//!   at the second (masked to the lanes with two), the key compares, and
//!   one masked gather of the matching payload;
//! * the lanes whose chain goes on are kept, uncompacted, in a slot per
//!   group. Once per batch of groups a pass takes the lanes of the batch
//!   before, requests each one's next node and resolves the nodes it
//!   requested one pass earlier, 8 to a vector, like headers. So no lane
//!   reads a line it has not requested, and the loops whose trip counts
//!   depend on gathered data run on results that settled a batch ago.
//!
//! It is the batch stage of `amac_ops::join::ProbeOp`, and its results
//! and counters equal that op's scalar plain stages' bit for bit: the
//! same matches, checksum and first match per input (the lowest matching
//! slot of the first node holding one), and the same node visits and tag
//! rejects. A node with two matching keys (duplicate build keys) or three
//! matching tags is walked on by a scalar chain cursor, which meets the
//! slots in order.

use crate::table::HashTable;
use amac_workload::Tuple;

/// What one [`probe`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VectorProbe {
    /// Key matches found.
    pub matches: u64,
    /// Wrapping sum of every matched payload.
    pub checksum: u64,
    /// Chain nodes dereferenced, headers included: one requested line
    /// each.
    pub nodes: u64,
    /// Dereferenced nodes whose tags admitted no slot.
    pub tag_rejects: u64,
}

/// Probe every key of `probes` against `ht`, requesting headers `ahead`
/// lookups ahead (the AMAC window's `M`). `scan_all` walks whole chains;
/// otherwise a lookup ends at the first node holding a match. `out`, when
/// given, holds one slot per probe, each `u64::MAX`; a matched probe's
/// slot receives its first match's payload.
///
/// Returns `None` without touching anything when the kernel cannot run
/// here: the host lacks AVX-512F or AVX-512DQ, the target is not x86-64,
/// or the build is interpreted by Miri. The caller then runs its scalar
/// path. One feature check per call.
///
/// # Panics
/// When `out` is not as long as `probes`.
pub fn probe(
    ht: &HashTable,
    probes: &[Tuple],
    ahead: usize,
    scan_all: bool,
    out: Option<&mut [u64]>,
) -> Option<VectorProbe> {
    if let Some(out) = &out {
        assert_eq!(out.len(), probes.len(), "one output slot per probe");
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("popcnt")
        && std::arch::is_x86_feature_detected!("lzcnt")
    {
        let out = out.map_or(core::ptr::null_mut(), |o| o.as_mut_ptr());
        // SAFETY: the host has both features the kernel is compiled for,
        // and `out` is null or holds `probes.len()` slots.
        return Some(unsafe { avx512::probe(ht, probes, ahead, scan_all, out) });
    }
    let _ = (ht, probes, ahead, scan_all, out);
    None
}

/// The kernel. Every function here is compiled for AVX-512F/DQ, POPCNT
/// and LZCNT and runs only behind [`probe`]'s feature check; an `unsafe
/// fn` also needs what its `# Safety` says.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx512 {
    use super::VectorProbe;
    use crate::bucket::{probe_word, tag_slots, Bucket, BucketData, TUPLES_PER_NODE};
    use crate::table::HashTable;
    use amac_mem::prefetch::prefetch_read;
    use amac_mem::NULL_INDEX;
    use amac_workload::Tuple;
    use core::arch::x86_64::*;
    use core::mem::{offset_of, size_of};

    /// A lookup that went past its header: one slot of the residual window,
    /// the scalar chain cursor of a plain probe.
    #[derive(Clone, Copy)]
    struct Residual {
        /// The requested node the next step dereferences.
        node: *const Bucket,
        key: u64,
        /// [`probe_word`] of the key's tag.
        probe: u32,
        /// The probe's input position (its `out` slot).
        at: usize,
    }

    impl Residual {
        /// Dereference the requested node: count it, compare keys at its
        /// tag-matching slots, and either end the lookup (`false`) or request
        /// the next node (`true`).
        ///
        /// # Safety
        /// `node` is a node of `ht` in its read-only phase; `out` is null or
        /// holds slot `at`.
        #[inline(always)]
        unsafe fn step(
            &mut self,
            ht: &HashTable,
            scan_all: bool,
            out: *mut u64,
            acc: &mut VectorProbe,
        ) -> bool {
            let d = (*self.node).data();
            acc.nodes += 1;
            let slots = tag_slots(d.meta, self.probe);
            acc.tag_rejects += slots.is_empty() as u64;
            let mut hit = false;
            for i in slots {
                let t = d.tuples[i];
                if t.key == self.key {
                    acc.matches += 1;
                    acc.checksum = acc.checksum.wrapping_add(t.payload);
                    if !out.is_null() && *out.add(self.at) == u64::MAX {
                        *out.add(self.at) = t.payload;
                    }
                    hit = true;
                }
            }
            if (hit && !scan_all) || d.next == NULL_INDEX {
                return false;
            }
            self.node = ht.node_ptr(d.next);
            prefetch_read(self.node);
            true
        }
    }

    /// Step every lookup of the residual window once, in order, keeping the
    /// ones whose chain goes on.
    ///
    /// # Safety
    /// As [`Residual::step`], for every slot of `window`.
    #[inline(always)]
    unsafe fn step_window(
        window: &mut Vec<Residual>,
        ht: &HashTable,
        scan_all: bool,
        out: *mut u64,
        acc: &mut VectorProbe,
    ) {
        let mut kept = 0;
        for i in 0..window.len() {
            let mut r = window[i];
            if r.step(ht, scan_all, out, acc) {
                window[kept] = r;
                kept += 1;
            }
        }
        window.truncate(kept);
    }

    /// Lookups per vector.
    const LANES: usize = 8;
    /// Byte offsets into a bucket line, from the `repr(C)` layouts.
    const NEXT: usize = Bucket::DATA + offset_of!(BucketData, next);
    const META: usize = Bucket::DATA + offset_of!(BucketData, meta);
    const TUPLES: usize = Bucket::DATA + offset_of!(BucketData, tuples);
    /// Offset of slot `i`'s key.
    const fn key_at(i: usize) -> u64 {
        (TUPLES + i * size_of::<Tuple>() + offset_of!(Tuple, key)) as u64
    }
    /// From a key to its payload.
    const PAYLOAD: usize = offset_of!(Tuple, payload) - offset_of!(Tuple, key);

    const _: () = {
        // A bucket's byte offset is its index << 6.
        assert!(size_of::<Bucket>() == 64);
        // One little-endian u64 at NEXT: `next` low, `meta` high.
        assert!(META == NEXT + 4 && NEXT.is_multiple_of(8));
        // Byte 3 of `meta` is the count: the tags are bytes 0..=2.
        assert!(TUPLES_PER_NODE == 3);
        // 8 tuples are two 64-byte loads, keys at the even u64s.
        assert!(size_of::<Tuple>() == 16 && offset_of!(Tuple, key) == 0);
        assert!(offset_of!(Tuple, payload) == 8);
    };

    /// Groups resolved between two passes over the residual window: the
    /// part of the walk whose trip counts depend on gathered data runs
    /// once per this many groups, on lanes whose vector results are long
    /// settled, so its branches never wait on a gather in flight.
    const BATCH: usize = 8;

    /// Lanes `0..n` set.
    #[inline(always)]
    fn lanes(n: usize) -> __mmask8 {
        ((1u32 << n.min(LANES)) - 1) as __mmask8
    }

    /// `v` in every lane.
    #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
    #[inline]
    fn splat(v: u64) -> __m512i {
        _mm512_set1_epi64(v as i64)
    }

    /// The keys of the `n <= 8` tuples at `p` in lanes `0..n`, zero above.
    ///
    /// # Safety
    /// `p` points at `n` tuples.
    #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
    #[inline]
    unsafe fn keys(p: *const Tuple, n: usize) -> __m512i {
        let p = p.cast::<i64>();
        let lo = _mm512_maskz_loadu_epi64(lanes(2 * n.min(4)), p);
        let hi = _mm512_maskz_loadu_epi64(lanes(2 * n.saturating_sub(4)), p.wrapping_add(8));
        _mm512_permutex2var_epi64(lo, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), hi)
    }

    /// The lanes of `live` whose low byte of `x` equals `tag`.
    #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
    #[inline]
    fn low_byte_is(live: __mmask8, x: __m512i, tag: __m512i) -> __mmask8 {
        _mm512_mask_cmpeq_epi64_mask(live, _mm512_and_si512(x, splat(0xFF)), tag)
    }

    /// `amac_mem::hash::mix64` per lane.
    #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
    #[inline]
    fn mix64(x: __m512i) -> __m512i {
        let x = _mm512_add_epi64(x, splat(0x9E37_79B9_7F4A_7C15));
        let x = _mm512_xor_si512(x, _mm512_srli_epi64::<30>(x));
        let x = _mm512_mullo_epi64(x, splat(0xBF58_476D_1CE4_E5B9));
        let x = _mm512_xor_si512(x, _mm512_srli_epi64::<27>(x));
        let x = _mm512_mullo_epi64(x, splat(0x94D0_49BB_1331_11EB));
        _mm512_xor_si512(x, _mm512_srli_epi64::<31>(x))
    }

    /// Lookups whose next node is requested, as a structure of arrays:
    /// the node's offset from the header array, the key, and
    /// `at << 8 | tag` (input position and tag).
    #[derive(Default)]
    struct Lanes {
        columns: [Vec<u64>; 3],
    }

    impl Lanes {
        fn len(&self) -> usize {
            self.columns[0].len()
        }

        /// Lanes `i..i + 8` (zero past the end).
        ///
        /// # Safety
        /// `i < self.len()`.
        #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
        #[inline]
        unsafe fn load(&self, i: usize) -> (__mmask8, [__m512i; 3]) {
            let live = lanes(self.len() - i);
            let mut v = [_mm512_setzero_si512(); 3];
            for (v, c) in v.iter_mut().zip(&self.columns) {
                *v = _mm512_maskz_loadu_epi64(live, c.as_ptr().add(i).cast());
            }
            (live, v)
        }
    }

    /// Lane `lane` of `v`.
    #[inline(always)]
    fn lane(v: &__m512i, lane: usize) -> u64 {
        debug_assert!(lane < LANES);
        // SAFETY: a 64-byte vector is eight u64 lanes.
        unsafe { (v as *const __m512i).cast::<u64>().add(lane).read() }
    }

    /// Per-lane counts of the nodes resolved in the vector, summed once
    /// at the end: matched payloads, nodes, tag rejects and matches.
    #[derive(Clone, Copy)]
    struct Tally {
        sum: __m512i,
        nodes: __m512i,
        rejects: __m512i,
        matches: __m512i,
    }

    impl Tally {
        #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
        #[inline]
        fn new() -> Self {
            let zero = _mm512_setzero_si512();
            Tally { sum: zero, nodes: zero, rejects: zero, matches: zero }
        }

        /// Add the lane sums into `acc`.
        #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
        #[inline]
        fn settle(self, acc: &mut VectorProbe) {
            acc.checksum = acc.checksum.wrapping_add(_mm512_reduce_add_epi64(self.sum) as u64);
            acc.nodes += _mm512_reduce_add_epi64(self.nodes) as u64;
            acc.tag_rejects += _mm512_reduce_add_epi64(self.rejects) as u64;
            acc.matches += _mm512_reduce_add_epi64(self.matches) as u64;
        }
    }

    /// The kernel's heap buffers, all empty between calls.
    #[derive(Default)]
    struct Scratch {
        ring: Vec<[__m512i; 3]>,
        requested: Lanes,
        carried: [Vec<([__m512i; 3], __mmask8)>; 2],
        window: Vec<Residual>,
    }

    std::thread_local! {
        /// Each thread's [`Scratch`], kept between calls: a call allocates
        /// nothing once the buffers have grown to what it needs. Fresh
        /// buffers per call churned the heap enough to raise the
        /// harness's peak RSS on the request-sized probes of `write_mix`.
        static SCRATCH: core::cell::Cell<Scratch> = core::cell::Cell::new(Scratch::default());
    }

    /// One kernel call's state.
    struct Kernel<'t> {
        ht: &'t HashTable,
        /// The header array, as the gathers' byte base: a node's offset is
        /// its address less this.
        base: *const u8,
        scan_all: bool,
        out: *mut u64,
        /// The scalar cursor's counts.
        acc: VectorProbe,
        /// The vector counts of the nodes passes resolve.
        tally: Tally,
        /// The lanes of header group `g` whose chain goes on, in slot
        /// `g % (2 * BATCH)`: their next node's arena index, key and
        /// `at << 8 | tag`, uncompacted, and the lane mask. Slots sit at
        /// fixed addresses, so a group's stores never wait on its gathers.
        exits: [[__m512i; 3]; 2 * BATCH],
        exit_lanes: [__mmask8; 2 * BATCH],
        /// The same for each vector of nodes a pass resolves: those of this
        /// pass (`carried[0]`) and of the one before (`carried[1]`).
        carried: [Vec<([__m512i; 3], __mmask8)>; 2],
        /// Passes so far: pass `q` requests the exits of batch `q - 1` and
        /// `carried[1]`, whose lanes settled a batch ago, so its loops do
        /// not wait on a gather in flight.
        passes: usize,
        /// Lanes whose next node the last pass requested, by offset: the
        /// residual window the next pass resolves.
        requested: Lanes,
        /// Lookups past a node with two or more matching slots, on the
        /// scalar cursor (rare: duplicate build keys).
        window: Vec<Residual>,
    }

    impl Kernel<'_> {
        /// Hash group `g` of `probes` (the inputs at `8g..`), request its
        /// headers, and return its header offsets, keys and `at << 8 | tag`.
        ///
        /// # Safety
        /// `8g < probes.len()`.
        #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
        #[inline]
        unsafe fn request(&self, probes: &[Tuple], g: usize, mask: __m512i) -> [__m512i; 3] {
            let at = g * LANES;
            let live = (probes.len() - at).min(LANES);
            let key = keys(probes.as_ptr().add(at), live);
            let h = mix64(key);
            let off = _mm512_slli_epi64::<6>(_mm512_and_si512(h, mask));
            let tag = _mm512_or_si512(_mm512_srli_epi64::<56>(h), splat(0x80));
            let iota = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
            let at = _mm512_add_epi64(iota, splat(at as u64));
            let mut offs = [0u64; LANES];
            _mm512_storeu_epi64(offs.as_mut_ptr().cast(), off);
            // Lanes past the input hash key 0: a header of the table too.
            for o in offs {
                prefetch_read(self.base.wrapping_add(o as usize));
            }
            [off, key, _mm512_or_si512(_mm512_slli_epi64::<8>(at), tag)]
        }

        /// `field` of the nodes at offsets `off`, in the lanes of `k`.
        ///
        /// # Safety
        /// Each lane of `k` holds the offset of a node of the table.
        #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
        #[inline]
        unsafe fn gather(&self, k: __mmask8, field: usize, off: __m512i) -> __m512i {
            let base = self.base.wrapping_add(field).cast();
            _mm512_mask_i64gather_epi64::<1>(_mm512_setzero_si512(), k, off, base)
        }

        /// Resolve the requested nodes at offsets `off` of the lanes of
        /// `live`: count nodes, tag rejects and matches into `tally`,
        /// record first matches in `out`, and return the lanes whose chain
        /// goes on with their next nodes' arena indices. Branch-free but
        /// for nodes with two matching keys or three matching tags, which
        /// the scalar cursor takes whole, in slot order. On `HEADER` nodes
        /// the lanes are the inputs at `at_tag >> 8`, in order from the
        /// first, none of which has matched yet.
        ///
        /// # Safety
        /// Each lane of `live` holds the offset of a requested node of the
        /// table and the key and `at << 8 | tag` of an input of this call.
        #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
        #[inline]
        unsafe fn resolve<const HEADER: bool>(
            &mut self,
            live: __mmask8,
            off: __m512i,
            key: __m512i,
            at_tag: __m512i,
            tally: &mut Tally,
        ) -> (__mmask8, __m512i) {
            if cfg!(debug_assertions) && HEADER {
                for i in (0..LANES).filter(|i| live & (1 << i) != 0) {
                    let bucket = lane(&off, i) >> 6;
                    debug_assert!(bucket < self.ht.bucket_count() as u64, "header {bucket}");
                }
            }
            let zero = _mm512_setzero_si512();
            let tag = _mm512_and_si512(at_tag, splat(0xFF));
            let nm = self.gather(live, NEXT, off);
            // Tag byte `i` of `meta`, against the lookup's tag.
            let meta = _mm512_srli_epi64::<32>(nm);
            let t = [
                low_byte_is(live, meta, tag),
                low_byte_is(live, _mm512_srli_epi64::<8>(meta), tag),
                low_byte_is(live, _mm512_srli_epi64::<16>(meta), tag),
            ];
            // The keys at the lowest and at the second tag-matching slot.
            // A node where both hold the key (duplicate build keys) or all
            // three tags match goes to the scalar cursor; in every other
            // lane at most one of the two can hold it.
            let [t0, t1, t2] = t;
            let two = (t0 & t1) | (t0 & t2) | (t1 & t2);
            let k2 = splat(key_at(2));
            let k12 = _mm512_mask_blend_epi64(t1, k2, splat(key_at(1)));
            let lowest = _mm512_add_epi64(off, _mm512_mask_blend_epi64(t0, k12, splat(key_at(0))));
            let second = _mm512_add_epi64(off, _mm512_mask_blend_epi64(t0, k2, k12));
            let at_lowest = t0 | t1 | t2;
            let h1 =
                _mm512_mask_cmpeq_epi64_mask(at_lowest, self.gather(at_lowest, 0, lowest), key);
            let h2 = _mm512_mask_cmpeq_epi64_mask(two, self.gather(two, 0, second), key);
            let multi = (t0 & t1 & t2) | (h1 & h2);
            let single = (h1 | h2) & !multi;
            let slot = _mm512_mask_blend_epi64(h1, second, lowest);
            // The matching key's payload sits PAYLOAD past it.
            let pay = self.gather(single, PAYLOAD, slot);
            tally.sum = _mm512_mask_add_epi64(tally.sum, single, tally.sum, pay);
            if !self.out.is_null() {
                let at = _mm512_srli_epi64::<8>(at_tag);
                if HEADER {
                    let first = _mm_cvtsi128_si64(_mm512_castsi512_si128(at)) as usize;
                    _mm512_mask_storeu_epi64(self.out.add(first).cast(), single, pay);
                } else {
                    // A walk past its first match (`scan_all`) keeps it.
                    let out = self.out.cast::<i64>();
                    let had = _mm512_mask_i64gather_epi64::<8>(zero, single, at, out);
                    let first = _mm512_mask_cmpeq_epi64_mask(single, had, splat(u64::MAX));
                    _mm512_mask_i64scatter_epi64::<8>(out, first, at, pay);
                }
            }
            let vector = live & !multi;
            let one = splat(1);
            tally.nodes = _mm512_mask_add_epi64(tally.nodes, vector, tally.nodes, one);
            let rejects = vector & !(t0 | t1 | t2);
            tally.rejects = _mm512_mask_add_epi64(tally.rejects, rejects, tally.rejects, one);
            tally.matches = _mm512_mask_add_epi64(tally.matches, single, tally.matches, one);
            let next = _mm512_and_si512(nm, splat(u32::MAX as u64));
            let open = if self.scan_all { vector } else { vector & !single };
            let on = _mm512_mask_cmpneq_epi64_mask(open, next, splat(NULL_INDEX as u64));
            if cfg!(debug_assertions) {
                // The next pass gathers these lanes' nodes.
                for i in (0..LANES).filter(|i| on & (1 << i) != 0) {
                    let idx = lane(&next, i);
                    debug_assert!(idx < self.ht.nodes().len() as u64, "chain index {idx}");
                }
            }
            if multi != 0 {
                self.resolve_scalar(multi, off, key, at_tag);
            }
            (on, next)
        }

        /// The lanes of `multi` (nodes with two or more matching slots),
        /// through the scalar cursor.
        ///
        /// # Safety
        /// As [`Kernel::resolve`], for the lanes of `multi`.
        #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
        #[cold]
        unsafe fn resolve_scalar(
            &mut self,
            multi: __mmask8,
            off: __m512i,
            key: __m512i,
            at_tag: __m512i,
        ) {
            let mut v = [[0u64; LANES]; 3];
            for (v, x) in v.iter_mut().zip([off, key, at_tag]) {
                _mm512_storeu_epi64(v.as_mut_ptr().cast(), x);
            }
            for lane in (0..LANES).filter(|l| multi & (1 << l) != 0) {
                let node = self.base.wrapping_add(v[0][lane] as usize).cast::<Bucket>();
                let (key, at_tag) = (v[1][lane], v[2][lane]);
                let probe = probe_word(at_tag as u8);
                let mut r = Residual { node, key, probe, at: (at_tag >> 8) as usize };
                if r.step(self.ht, self.scan_all, self.out, &mut self.acc) {
                    self.window.push(r);
                }
            }
        }

        /// One pass over the lookups past their headers: step the scalar
        /// window, resolve the nodes the last pass requested, then request
        /// the next node of every lane of the older exits and of
        /// `carried[1]`, and make this pass's carried lanes the older ones.
        ///
        /// # Safety
        /// Every lane the kernel holds is an input of this call on a node
        /// of the table.
        #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
        #[inline]
        unsafe fn pass(&mut self) {
            step_window(&mut self.window, self.ht, self.scan_all, self.out, &mut self.acc);
            let mut requested = core::mem::take(&mut self.requested);
            for i in (0..requested.len()).step_by(LANES) {
                let (live, [off, key, at_tag]) = requested.load(i);
                let mut tally = self.tally;
                let (on, next) = self.resolve::<false>(live, off, key, at_tag, &mut tally);
                self.tally = tally;
                self.carried[0].push(([next, key, at_tag], on));
            }
            requested.columns.iter_mut().for_each(Vec::clear);
            // The older exits' lanes as one bitmap, 8 bits per slot.
            let older = (self.passes + 1) % 2 * BATCH;
            let mut bits = 0u64;
            for (i, m) in self.exit_lanes[older..older + BATCH].iter_mut().enumerate() {
                bits |= (*m as u64) << (LANES * i);
                *m = 0;
            }
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.request_lane(&mut requested, &self.exits[older + i / LANES], i % LANES);
            }
            let mut carried = core::mem::take(&mut self.carried[1]);
            for (v, mut on) in carried.drain(..) {
                while on != 0 {
                    self.request_lane(&mut requested, &v, on.trailing_zeros() as usize);
                    on &= on - 1;
                }
            }
            self.carried[1] = carried;
            self.requested = requested;
            self.carried.swap(0, 1);
            self.passes += 1;
        }

        /// Request the next node of lane `lane` of `[next, key, at_tag]`
        /// and append it to `requested`.
        #[inline(always)]
        fn request_lane(&self, requested: &mut Lanes, v: &[__m512i; 3], i: usize) {
            let node = self.ht.node_ptr(lane(&v[0], i) as u32);
            prefetch_read(node);
            let [offs, keys, at_tags] = &mut requested.columns;
            offs.push((node as usize).wrapping_sub(self.base as usize) as u64);
            keys.push(lane(&v[1], i));
            at_tags.push(lane(&v[2], i));
        }

        /// Whether some lookup is not yet done.
        fn pending(&self) -> bool {
            let carried = self.carried.iter().any(|c| !c.is_empty());
            let lanes = self.window.len() + self.requested.len();
            lanes > 0 || carried || self.exit_lanes.iter().any(|&m| m != 0)
        }
    }

    /// The kernel behind [`super::probe`].
    ///
    /// # Safety
    /// The host supports AVX-512F and AVX-512DQ; `out` is null or holds
    /// `probes.len()` slots.
    #[target_feature(enable = "avx512f,avx512dq,popcnt,lzcnt")]
    pub(super) unsafe fn probe(
        ht: &HashTable,
        probes: &[Tuple],
        ahead: usize,
        scan_all: bool,
        out: *mut u64,
    ) -> VectorProbe {
        let Scratch { mut ring, requested, carried, window } = SCRATCH.take();
        let mut k = Kernel {
            ht,
            base: ht.headers().cast::<u8>(),
            scan_all,
            out,
            acc: VectorProbe::default(),
            tally: Tally::new(),
            exits: [[_mm512_setzero_si512(); 3]; 2 * BATCH],
            exit_lanes: [0; 2 * BATCH],
            carried,
            passes: 0,
            requested,
            window,
        };
        let n = probes.len();
        let groups = n.div_ceil(LANES);
        // Group `g + ahead` is hashed and requested while group `g` is
        // resolved: `ahead` lookups, rounded up to whole groups.
        let ahead = ahead.div_ceil(LANES).max(1);
        ring.resize((ahead + 1).next_power_of_two(), [_mm512_setzero_si512(); 3]);
        let wrap = ring.len() - 1;
        let mask = splat(ht.mask());
        let mut tally = Tally::new();
        for g in 0..ahead.min(groups) {
            ring[g & wrap] = k.request(probes, g, mask);
        }
        for g in 0..groups {
            if g + ahead < groups {
                ring[(g + ahead) & wrap] = k.request(probes, g + ahead, mask);
            }
            let [off, key, at_tag] = ring[g & wrap];
            let (on, next) = k.resolve::<true>(lanes(n - g * LANES), off, key, at_tag, &mut tally);
            let slot = g % (2 * BATCH);
            k.exits[slot] = [next, key, at_tag];
            k.exit_lanes[slot] = on;
            if g % BATCH == BATCH - 1 {
                k.pass();
            }
        }
        while k.pending() {
            k.pass();
        }
        tally.settle(&mut k.acc);
        k.tally.settle(&mut k.acc);
        let Kernel { acc, requested, carried, window, .. } = k;
        SCRATCH.set(Scratch { ring, requested, carried, window });
        acc
    }
}
