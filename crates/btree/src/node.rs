//! B+-tree node layouts.
//!
//! Both node kinds occupy exactly two cache lines (128 bytes) and are
//! 64-byte aligned, following the cache-conscious index designs the paper
//! cites ([10] fractal B+-trees, [16] FAST, [23] CSS-trees): a node fetch
//! touches a fixed, prefetchable pair of lines, and the child address is
//! only known *after* the fetched keys are compared — the dependent-access
//! pattern AMAC targets.

use amac_mem::prefetch::prefetch_read_t0;

/// Keys per node. With 8-byte keys this fills an inner node's two cache
/// lines exactly: 7 keys + 8 child pointers + count = 128 bytes.
pub const FANOUT_KEYS: usize = 7;
/// Children per inner node (`FANOUT_KEYS + 1`).
pub const FANOUT_CHILDREN: usize = FANOUT_KEYS + 1;

/// Interior node: `count` separator keys and `count + 1` children.
///
/// `children[i]` holds keys `< keys[i]`; `children[count]` holds the rest.
/// Separators are copied up from the first key of the right sibling during
/// bulk load, so a search key equal to a separator descends **right**.
#[repr(C, align(64))]
pub struct InnerNode {
    /// Separator keys (`keys[..count]` are valid, ascending).
    pub keys: [u64; FANOUT_KEYS],
    /// Child pointers (`children[..=count]` are valid). Children are
    /// `InnerNode`s above the leaf level and `LeafNode`s directly above it;
    /// the tree's height disambiguates, so no per-node tag is needed.
    pub children: [*const u8; FANOUT_CHILDREN],
    /// Number of valid separator keys.
    pub count: u16,
}

impl Default for InnerNode {
    fn default() -> Self {
        InnerNode {
            keys: [0; FANOUT_KEYS],
            children: [core::ptr::null(); FANOUT_CHILDREN],
            count: 0,
        }
    }
}

impl InnerNode {
    /// Child to descend into for `key`: the first child whose key range
    /// can contain it.
    ///
    /// A branchy scan, on purpose. A branch-free count of
    /// `key >= keys[j]` over all seven lanes took `ops.btree` AMAC from
    /// 285 to 223 cycles/tuple but the baseline from 494 to 1124 (2.3×):
    /// the sequential walk's only memory parallelism is the core
    /// speculating past predicted branches into the next node.
    #[inline(always)]
    pub fn select_child(&self, key: u64) -> *const u8 {
        let n = self.count as usize;
        let mut i = 0usize;
        while i < n && key >= self.keys[i] {
            i += 1;
        }
        self.children[i]
    }
}

/// Leaf node: parallel key/payload arrays plus a next-leaf link for
/// ordered scans.
#[repr(C, align(64))]
pub struct LeafNode {
    /// Keys (`keys[..count]` are valid, ascending).
    pub keys: [u64; FANOUT_KEYS],
    /// Payload for `keys[i]`.
    pub payloads: [u64; FANOUT_KEYS],
    /// Right sibling in key order, or null for the last leaf.
    pub next: *const LeafNode,
    /// Number of valid entries.
    pub count: u16,
}

impl Default for LeafNode {
    fn default() -> Self {
        LeafNode {
            keys: [0; FANOUT_KEYS],
            payloads: [0; FANOUT_KEYS],
            next: core::ptr::null(),
            count: 0,
        }
    }
}

impl LeafNode {
    /// Payload stored for `key`, if present in this leaf.
    ///
    /// Builds the mask of lanes `j < count` holding `key` and reads the
    /// payload at its lowest set bit (keys ascend strictly, so at most
    /// one bit is set): no early exit whose trip count depends on where
    /// the key falls.
    #[inline(always)]
    pub fn lookup(&self, key: u64) -> Option<u64> {
        let n = self.count as usize;
        let mut mask = 0u32;
        for (j, &k) in self.keys.iter().enumerate() {
            mask |= (((j < n) & (k == key)) as u32) << j;
        }
        if mask == 0 {
            None
        } else {
            Some(self.payloads[mask.trailing_zeros() as usize])
        }
    }
}

/// Prefetch both cache lines of the 128-byte node at `ptr` (an
/// [`InnerNode`] or a [`LeafNode`]) with `PREFETCHT0`. Temporal, not the
/// paper's NTA: every lookup walks the upper levels again, so they are
/// worth keeping in L2. Safe for any pointer (prefetch never faults).
#[inline(always)]
pub fn prefetch_node(ptr: *const u8) {
    prefetch_read_t0(ptr);
    prefetch_read_t0(ptr.wrapping_add(64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_fill_two_cache_lines() {
        assert_eq!(core::mem::size_of::<InnerNode>(), 128);
        assert_eq!(core::mem::align_of::<InnerNode>(), 64);
        assert_eq!(core::mem::size_of::<LeafNode>(), 128);
        assert_eq!(core::mem::align_of::<LeafNode>(), 64);
    }

    #[test]
    fn select_child_routes_by_separator() {
        let mut n = InnerNode::default();
        n.keys[0] = 10;
        n.keys[1] = 20;
        n.count = 2;
        let c: Vec<*const u8> = (0..3).map(|i| (0x1000 + i * 0x100) as *const u8).collect();
        n.children[..3].copy_from_slice(&c);
        assert_eq!(n.select_child(5), c[0]);
        assert_eq!(n.select_child(9), c[0]);
        assert_eq!(n.select_child(10), c[1], "equal key descends right");
        assert_eq!(n.select_child(15), c[1]);
        assert_eq!(n.select_child(20), c[2]);
        assert_eq!(n.select_child(u64::MAX), c[2]);
    }

    #[test]
    fn leaf_lookup_hits_and_misses() {
        let mut l = LeafNode::default();
        for (i, k) in [2u64, 4, 6, 8].iter().enumerate() {
            l.keys[i] = *k;
            l.payloads[i] = k * 100;
        }
        l.count = 4;
        assert_eq!(l.lookup(2), Some(200));
        assert_eq!(l.lookup(8), Some(800));
        assert_eq!(l.lookup(5), None);
        assert_eq!(l.lookup(0), None);
        assert_eq!(l.lookup(9), None);
    }

    /// The early-break scan `LeafNode::lookup` replaced, kept as its model.
    fn early_break_lookup(l: &LeafNode, key: u64) -> Option<u64> {
        for i in 0..l.count as usize {
            if l.keys[i] == key {
                return Some(l.payloads[i]);
            }
            if l.keys[i] > key {
                break;
            }
        }
        None
    }

    #[test]
    fn leaf_key_mask_matches_early_break_scan() {
        for count in 0..=FANOUT_KEYS {
            // Keys 10, 20, ...; lanes past `count` keep the padding key 0.
            let mut l = LeafNode::default();
            for i in 0..count {
                l.keys[i] = 10 * (i as u64 + 1);
                l.payloads[i] = 1000 + i as u64;
            }
            l.count = count as u16;
            for i in 0..count {
                let key = l.keys[i];
                assert_eq!(l.lookup(key), Some(1000 + i as u64), "count {count}, key {key}");
                assert_eq!(l.lookup(key), early_break_lookup(&l, key));
            }
            // Every gap key (the last one is above the last key), a key
            // below the first, the padding key and the largest key.
            let gaps = l.keys[..count].iter().map(|k| k + 5);
            for key in gaps.chain([5, 0, u64::MAX]) {
                assert_eq!(l.lookup(key), None, "count {count}, key {key}");
                assert_eq!(early_break_lookup(&l, key), None, "count {count}, key {key}");
            }
        }
    }

    #[test]
    fn empty_nodes_reject_everything() {
        let l = LeafNode::default();
        assert_eq!(l.lookup(0), None);
        let i = InnerNode::default();
        assert_eq!(i.select_child(42), i.children[0]);
    }
}
