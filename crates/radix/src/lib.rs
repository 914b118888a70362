//! # amac-radix — radix partitioning with software-managed buffers
//!
//! The *other* answer to random-access misses. The paper's hash-join
//! baseline comes from Balkesen et al. [4, 5], who compare two families:
//! **no-partitioning** joins (one big table, random probes — the regime
//! AMAC accelerates by hiding misses) and **radix-partitioned** joins
//! (pay a scatter pass up front so every per-partition table is
//! cache-resident and misses never happen). This crate implements the
//! partitioning substrate so the repo can stage that comparison
//! (`bench partition`): *hide* the misses with AMAC or *remove* them
//! by partitioning — and show that once partitions fit in cache,
//! prefetching has nothing left to hide (the paper's own small-join
//! panel, Fig. 5a, in another guise; §7's "orthogonal" discussion made
//! concrete).
//!
//! Partitions are taken from the **high** bits of the same splitmix64
//! finalizer whose **low** bits pick hash-table buckets, so partitioning
//! never skews the per-partition bucket distribution.
//!
//! The scatter uses cache-line software write buffers (one line of four
//! tuples per partition, flushed when full) — the classic technique from
//! the partitioned-join literature to keep the scatter's working set at
//! one line per partition rather than one open page per partition. The
//! unbuffered variant exists for the ablation. A two-pass variant bounds
//! the per-pass fan-out the same way production radix joins do.

mod partition;

pub use partition::{
    partition, partition_of, partition_two_pass, partition_unbuffered, PartitionStats, Partitions,
};
