//! Radix partitioning of the key space: the unit of shard placement.
//!
//! The top `bits` bits of a key's [`mix64`] hash pick one of `2^bits`
//! partitions; the bottom bits stay free for each shard table's bucket
//! addressing. [`crate::ShardRouter`] assigns each partition one owner.

use amac_mem::hash::mix64;

/// Partition index for `key` under a `bits`-bit radix: the top `bits`
/// bits of the hash (the bottom bits stay free for bucket addressing).
#[inline(always)]
pub fn partition_of(key: u64, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        (mix64(key) >> (64 - bits)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_mem::hash::bucket_of;
    use amac_workload::Relation;

    #[test]
    fn zero_bits_is_identity_grouping() {
        for t in Relation::dense_unique(100, 9).tuples {
            assert_eq!(partition_of(t.key, 0), 0);
        }
    }

    #[test]
    fn uniform_keys_spread_evenly() {
        let mut counts = vec![0usize; 1 << 6];
        // Low hash bits seen in partition 0: they must stay free for the
        // shard tables' bucket addressing, so one partition spans them all.
        let mut low_bits = 0u64;
        for t in Relation::dense_unique(1 << 16, 11).tuples {
            let p = partition_of(t.key, 6);
            counts[p] += 1;
            if p == 0 {
                low_bits |= 1 << bucket_of(t.key, 63);
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "an empty partition under uniform keys");
        let expect = (1 << 16) as f64 / 64.0;
        let max = *counts.iter().max().unwrap();
        assert!(
            (max as f64) < expect * 1.25,
            "max {max} vs mean {expect} implausibly skewed for uniform keys"
        );
        assert_eq!(low_bits, u64::MAX, "partition 0 pins low hash bits the buckets need");
    }
}
