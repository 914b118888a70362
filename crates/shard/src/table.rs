//! Radix-partitioned tables: one frozen [`HashTable`] (or [`AggTable`])
//! per shard, owned by a [`ShardRouter`] placement.

use amac_hashtable::agg::AggValues;
use amac_hashtable::{AggTable, HashTable};
use amac_workload::{Relation, Tuple};

use crate::router::ShardRouter;

/// A hash table radix-partitioned into one frozen [`HashTable`] per
/// shard.
///
/// Every build tuple lives in exactly the shard its key routes to, so a
/// probe answered by the *owning* shard sees exactly the tuples the
/// unsharded table holds for that key — sharded results are bit-identical
/// by construction, not by tolerance.
pub struct ShardedTable {
    router: ShardRouter,
    shards: Vec<HashTable>,
}

impl ShardedTable {
    /// Partition `rel` under `router` and build one frozen table per
    /// shard (frozen so the latch-free mutation path is open — see
    /// [`HashTable::freeze`]).
    pub fn build(rel: &Relation, router: ShardRouter) -> Self {
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); router.n_shards()];
        for t in &rel.tuples {
            parts[router.shard_of_key(t.key)].push(*t);
        }
        let shards: Vec<HashTable> = parts
            .into_iter()
            .map(|tuples| {
                let ht = HashTable::build_serial(&Relation::from_tuples(tuples));
                ht.freeze();
                ht
            })
            .collect();
        ShardedTable { router, shards }
    }

    /// Reassemble from parts (the elastic repartition path rebuilds
    /// individual shards and puts the set back together).
    pub fn from_parts(router: ShardRouter, shards: Vec<HashTable>) -> Self {
        assert_eq!(router.n_shards(), shards.len(), "one table per shard");
        ShardedTable { router, shards }
    }

    /// Tear into parts, consuming self.
    pub fn into_parts(self) -> (ShardRouter, Vec<HashTable>) {
        (self.router, self.shards)
    }

    /// The placement.
    #[inline]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Shard count.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's table.
    #[inline]
    pub fn shard(&self, s: usize) -> &HashTable {
        &self.shards[s]
    }

    /// All shard tables, router order.
    #[inline]
    pub fn shards(&self) -> &[HashTable] {
        &self.shards
    }

    /// Every live `(key, payload)` across all shards, sorted — the
    /// logical contents, comparable against an unsharded
    /// [`HashTable::contents_sorted`].
    pub fn contents_sorted(&self) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = Vec::new();
        for s in &self.shards {
            all.extend(s.contents_sorted());
        }
        all.sort_unstable();
        all
    }
}

/// An aggregation table radix-partitioned by *group key*: each shard
/// aggregates only the groups it owns, so merged shard outputs equal the
/// unsharded groups exactly (each group lives wholly in one shard —
/// merging is concatenation, not combination).
pub struct ShardedAgg {
    router: ShardRouter,
    shards: Vec<AggTable>,
}

impl ShardedAgg {
    /// One [`AggTable`] per shard, each sized for its share of
    /// `total_groups` (the `Vec` analog of [`AggTable::for_groups`]).
    pub fn for_groups(total_groups: usize, router: ShardRouter) -> Self {
        let per = (total_groups / router.n_shards().max(1)).max(1);
        let shards = (0..router.n_shards()).map(|_| AggTable::for_groups(per)).collect();
        ShardedAgg { router, shards }
    }

    /// The placement.
    #[inline]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// One shard's aggregation table.
    #[inline]
    pub fn shard(&self, s: usize) -> &AggTable {
        &self.shards[s]
    }

    /// Shard count.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// All groups across shards, sorted by key — comparable against an
    /// unsharded [`AggTable::groups`] sorted the same way.
    pub fn merged_groups(&self) -> Vec<(u64, AggValues)> {
        let mut all: Vec<(u64, AggValues)> = Vec::new();
        for s in &self.shards {
            all.extend(s.groups());
        }
        all.sort_unstable_by_key(|&(k, _)| k);
        all
    }

    /// Group count across shards.
    pub fn group_count(&self) -> usize {
        self.shards.iter().map(|s| s.group_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_contents_equal_unsharded() {
        let rel = Relation::zipf(1 << 10, 200, 0.5, 11);
        let solo = HashTable::build_serial(&rel);
        let st = ShardedTable::build(&rel, ShardRouter::new(6, 4));
        assert_eq!(st.contents_sorted(), solo.contents_sorted());
        assert_eq!(st.shards().iter().map(|s| s.len()).sum::<usize>(), solo.len());
    }

    #[test]
    fn each_key_lives_only_in_its_owner() {
        let rel = Relation::dense_unique(512, 3);
        let st = ShardedTable::build(&rel, ShardRouter::new(5, 4));
        for t in &rel.tuples {
            let owner = st.router().shard_of_key(t.key);
            for s in 0..st.n_shards() {
                let found = st.shard(s).lookup_first(t.key).is_some();
                assert_eq!(found, s == owner, "key {} in wrong shard {s}", t.key);
            }
        }
    }
}
