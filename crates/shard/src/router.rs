//! Consistent key→shard routing: rendezvous hashing over radix partitions.
//!
//! The unit of placement is a **radix partition** — one of the `2^bits`
//! top-hash-bit buckets [`partition_of`] assigns every key to.
//! Each partition is owned by exactly one shard, chosen by rendezvous
//! (highest-random-weight) hashing: the owner of partition `p` is the
//! shard whose `score(p, shard_id)` is largest. The scheme needs no
//! central directory and has the property this crate's proptests pin
//! down: adding a shard only moves the partitions the *new* shard wins,
//! and removing a shard only moves the partitions the *removed* shard
//! owned — every other key keeps its home.

use crate::partition::partition_of;
use amac_mem::hash::mix64;

/// Rendezvous score of `(partition, shard)` — deterministic, no state.
///
/// Both inputs pass through [`mix64`]; the partition index is offset so
/// partition 0 does not collapse to `mix64(shard_salt)`.
#[inline]
fn score(partition: usize, shard_id: u64) -> u64 {
    mix64((partition as u64).wrapping_add(1) ^ mix64(shard_id ^ 0x5A1AD_C0FFEE))
}

/// Consistent-hash router mapping keys (and tenants) to shards.
///
/// The router is a pure function of `(bits, shard id set)`: two routers
/// built from the same inputs agree on every key, on any thread, in any
/// order of construction — the property the serving layer relies on to
/// route without coordination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    /// Radix width: keys hash into `2^bits` partitions.
    bits: u32,
    /// Participating shard ids, sorted (ids are stable across add/remove;
    /// *indices* into this vec are what the execution layer uses).
    ids: Vec<u64>,
    /// `owner[p]` = index into `ids` of the shard owning partition `p`.
    owner: Vec<u32>,
}

impl ShardRouter {
    /// Router over `2^bits` partitions owned by shards `0..n_shards`.
    pub fn new(bits: u32, n_shards: usize) -> Self {
        Self::with_ids(bits, &(0..n_shards as u64).collect::<Vec<_>>())
    }

    /// Router with explicit (distinct) shard ids.
    pub fn with_ids(bits: u32, ids: &[u64]) -> Self {
        assert!(!ids.is_empty(), "router needs at least one shard");
        assert!(bits <= 20, "partition count 2^{bits} is past any sane shard grain");
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let mut r = ShardRouter { bits, ids, owner: Vec::new() };
        r.owner = (0..r.partitions()).map(|p| r.winner(p)).collect();
        r
    }

    /// Rendezvous winner for partition `p` (index into `self.ids`).
    /// Ties break toward the smaller shard id — `ids` is sorted and the
    /// comparison is strict, so the first max wins.
    fn winner(&self, p: usize) -> u32 {
        let mut best = 0u32;
        let mut best_score = score(p, self.ids[0]);
        for (i, &id) in self.ids.iter().enumerate().skip(1) {
            let s = score(p, id);
            if s > best_score {
                best = i as u32;
                best_score = s;
            }
        }
        best
    }

    /// Number of radix partitions (`2^bits`) — the placement grain.
    #[inline]
    pub fn partitions(&self) -> usize {
        1usize << self.bits
    }

    /// Radix width the keys hash under.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Participating shard ids, sorted.
    #[inline]
    pub fn shard_ids(&self) -> &[u64] {
        &self.ids
    }

    /// Number of shards.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.ids.len()
    }

    /// The radix partition `key` hashes into.
    #[inline]
    pub fn partition_of_key(&self, key: u64) -> usize {
        partition_of(key, self.bits)
    }

    /// Owning shard (index into [`shard_ids`](Self::shard_ids)) of a
    /// partition.
    #[inline]
    pub fn shard_of_partition(&self, p: usize) -> usize {
        self.owner[p] as usize
    }

    /// Owning shard index of `key` — the routing decision: equal to the
    /// executing core's shard = local lookup, different = cross-shard
    /// message.
    #[inline]
    pub fn shard_of_key(&self, key: u64) -> usize {
        self.owner[partition_of(key, self.bits)] as usize
    }

    /// Owning shard index of a tenant — the serving layer's session
    /// placement. Tenants ride the same rendezvous ring as keys (salted
    /// so tenant 7 and key 7 are uncorrelated).
    #[inline]
    pub fn shard_of_tenant(&self, tenant: u32) -> usize {
        self.shard_of_key(mix64(u64::from(tenant) ^ 0x007E_4A47_5EED))
    }

    /// Partitions owned by shard index `s`, ascending.
    pub fn partitions_of_shard(&self, s: usize) -> Vec<usize> {
        (0..self.partitions()).filter(|&p| self.owner[p] as usize == s).collect()
    }

    /// Add a shard. Returns the partitions that *moved* (all of them to
    /// the new shard — rendezvous guarantees nothing else changes hands).
    pub fn add_shard(&mut self, id: u64) -> Vec<usize> {
        assert!(!self.ids.contains(&id), "shard id {id} already present");
        let before = self.clone();
        self.ids.push(id);
        self.ids.sort_unstable();
        self.owner = (0..self.partitions()).map(|p| self.winner(p)).collect();
        let new_idx = self.ids.iter().position(|&i| i == id).unwrap();
        let moved: Vec<usize> = (0..self.partitions())
            .filter(|&p| self.ids[self.owner[p] as usize] != before.ids[before.owner[p] as usize])
            .collect();
        debug_assert!(
            moved.iter().all(|&p| self.owner[p] as usize == new_idx),
            "rendezvous: a partition moved to a shard that was already present"
        );
        moved
    }

    /// Remove a shard (it must not be the last). Returns the partitions
    /// that moved — exactly the ones the removed shard owned.
    pub fn remove_shard(&mut self, id: u64) -> Vec<usize> {
        assert!(self.ids.len() > 1, "cannot remove the last shard");
        let pos = self.ids.iter().position(|&i| i == id).expect("shard id not present");
        let moved = self.partitions_of_shard(pos);
        self.ids.remove(pos);
        self.owner = (0..self.partitions()).map(|p| self.winner(p)).collect();
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_pure_and_total() {
        let a = ShardRouter::new(8, 4);
        let b = ShardRouter::with_ids(8, &[3, 1, 0, 2]); // order-insensitive
        assert_eq!(a, b);
        for key in 0..4096u64 {
            let s = a.shard_of_key(key);
            assert!(s < 4);
            assert_eq!(s, a.shard_of_partition(a.partition_of_key(key)));
        }
    }

    #[test]
    fn all_shards_get_partitions() {
        let r = ShardRouter::new(8, 8);
        for s in 0..8 {
            assert!(
                !r.partitions_of_shard(s).is_empty(),
                "shard {s} owns nothing out of 256 partitions — score mixing is broken"
            );
        }
        let total: usize = (0..8).map(|s| r.partitions_of_shard(s).len()).sum();
        assert_eq!(total, 256, "ownership must partition the partition space");
    }

    #[test]
    fn add_moves_only_to_the_new_shard() {
        let mut r = ShardRouter::new(8, 4);
        let before = r.clone();
        let moved = r.add_shard(9);
        assert!(!moved.is_empty(), "a fifth shard should win something");
        assert!(moved.len() < r.partitions() / 2, "bounded movement: ~1/5 expected");
        for p in 0..r.partitions() {
            if moved.contains(&p) {
                assert_eq!(r.shard_ids()[r.shard_of_partition(p)], 9);
            } else {
                assert_eq!(
                    r.shard_ids()[r.shard_of_partition(p)],
                    before.shard_ids()[before.shard_of_partition(p)],
                    "partition {p} moved between pre-existing shards"
                );
            }
        }
    }

    #[test]
    fn remove_moves_only_the_removed_shards_partitions() {
        let mut r = ShardRouter::new(8, 5);
        let victim_idx = r.shard_ids().iter().position(|&i| i == 2).unwrap();
        let owned = r.partitions_of_shard(victim_idx);
        let before = r.clone();
        let moved = r.remove_shard(2);
        assert_eq!(moved, owned);
        for p in 0..r.partitions() {
            let now = r.shard_ids()[r.shard_of_partition(p)];
            if moved.contains(&p) {
                assert_ne!(now, 2);
            } else {
                assert_eq!(now, before.shard_ids()[before.shard_of_partition(p)]);
            }
        }
    }

    #[test]
    fn add_then_remove_round_trips() {
        let mut r = ShardRouter::new(7, 3);
        let orig = r.clone();
        r.add_shard(42);
        r.remove_shard(42);
        assert_eq!(r, orig, "rendezvous ownership is a pure function of the id set");
    }

    #[test]
    fn tenants_spread_over_shards() {
        let r = ShardRouter::new(8, 4);
        let mut seen = [false; 4];
        for t in 0..64u32 {
            seen[r.shard_of_tenant(t)] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 tenants should touch all 4 shards");
    }
}
