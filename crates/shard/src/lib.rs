//! # amac_shard — shard-per-core scale-out over a simulated interconnect
//!
//! AMAC hides *intra-socket* memory latency; this crate makes shard
//! count the next axis. A [`ShardRouter`] (rendezvous hashing over
//! `2^bits` radix partitions, the top `bits` bits of a key's hash)
//! assigns every key to one shard; a [`ShardedTable`] holds one frozen hash table per shard; and
//! the drivers in [`exec`] run the existing operators per
//! `(core, shard)` pair, pricing cross-shard loads at
//! [`amac_tier::Tier::Remote`] — each one a request/response message
//! pair on the simulated interconnect, counted in
//! `EngineStats::remote_loads`/`remote_bytes` and deduped by the AMU
//! coalescing unit like any other line.
//!
//! Everything is bit-identical to the unsharded operators — sharding
//! moves *where* work runs and what the clock charges, never what a
//! query answers. [`ElasticShards`] adds split/merge repartitioning that
//! recovers affected shards from checkpoint + sealed WAL tail (the PR 8
//! machinery) instead of trusting live state.
//!
//! ## Quickstart
//!
//! ```
//! use amac::engine::Technique;
//! use amac_shard::{probe_sharded, Placement, ShardConfig, ShardRouter, ShardedTable};
//! use amac_workload::Relation;
//!
//! let build = Relation::dense_unique(1 << 10, 7);
//! let probes = Relation::fk_uniform(&build, 1 << 12, 9);
//! let router = ShardRouter::new(6, 4); // 64 radix partitions -> 4 shards
//! let st = ShardedTable::build(&build, router);
//!
//! // Routed placement: every probe executes on its key's home core.
//! let cfg = ShardConfig::default();
//! let local = probe_sharded(&st, &probes, Technique::Amac, &cfg, Placement::Routed);
//! assert_eq!(local.matches, 1 << 12);
//! assert_eq!(local.ledger.stats.remote_loads, 0); // all-local by construction
//!
//! // Interleaved placement: ~3/4 of lookups cross the interconnect,
//! // each remote load one 64-byte message pair — same answers.
//! let dealt = probe_sharded(&st, &probes, Technique::Amac, &cfg, Placement::Interleaved);
//! assert_eq!(dealt.matches, local.matches);
//! assert_eq!(dealt.checksum, local.checksum);
//! assert!(dealt.ledger.stats.remote_loads > 0);
//! assert_eq!(
//!     dealt.ledger.stats.remote_bytes,
//!     dealt.ledger.stats.remote_loads * amac_tier::REMOTE_LINE_BYTES,
//! );
//! ```

#![forbid(unsafe_code)]

pub mod elastic;
pub mod exec;
pub mod partition;
pub mod router;
pub mod table;

pub use elastic::{ElasticShards, RepartitionReport};
pub use exec::{
    groupby_sharded, mutate_sharded, pipeline_sharded, probe_sharded, CoreLedger, Placement,
    ShardAggOutput, ShardConfig, ShardMutOutput, ShardPipelineOutput, ShardProbeOutput,
};
pub use router::ShardRouter;
pub use table::{ShardedAgg, ShardedTable};
