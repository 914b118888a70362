//! # amac-suite — facade crate
//!
//! Re-exports every crate of the AMAC reproduction workspace so examples,
//! integration tests and downstream users can depend on a single package.
//!
//! See the repository `README.md` for a guided tour (including the paper
//! figure/table → bench binary map) and `DESIGN.md` for the cross-crate
//! designs: the morsel runtime and the fused multi-operator pipelines.
//!
//! ```
//! use amac_suite::prelude::*;
//!
//! // Build a tiny hash table and probe it with the AMAC executor.
//! let r = Relation::dense_unique(1 << 10, 0xC0FFEE);
//! let s = Relation::fk_uniform(&r, 1 << 12, 0xBEEF);
//! let ht = HashTable::build_serial(&r);
//! let out = probe(&ht, &s, Technique::Amac, &ProbeConfig::default());
//! assert_eq!(out.matches, 1 << 12);
//! ```
//!
//! A whole pipeline fused into one AMAC window (this doctest is the
//! README's pipeline snippet, verbatim, so the README cannot rot):
//!
//! ```
//! use amac_suite::prelude::*;
//!
//! let products = Relation::fk_dimension(1 << 10, 32, 7); // payload = category
//! let sales = Relation::fk_uniform(&products, 1 << 13, 8);
//! let ht = HashTable::build_serial(&products);
//! let agg = AggTable::for_groups(32);
//!
//! // SELECT category, agg(amount) FROM sales JOIN products
//! // WHERE σ(amount) = 0.5 GROUP BY category — no intermediate relation.
//! let cfg = PipelineConfig {
//!     filter: Some(FilterSpec::selectivity(0.5)),
//!     ..Default::default()
//! };
//! let out = probe_then_groupby(&ht, &agg, &sales, Technique::Amac, &cfg);
//! assert_eq!(out.passes, 1);             // fused: one pass,
//! assert_eq!(out.intermediate_bytes, 0); // nothing materialized
//! ```
//!
//! Deterministic structured tracing: every stall attributed to the tier
//! that priced it, conserving the engine's own ledger exactly (this
//! doctest is the README's tracing snippet, verbatim, so the README
//! cannot rot):
//!
//! ```
//! use amac_suite::prelude::*;
//!
//! let r = Relation::zipf(1 << 12, 256, 0.75, 7);
//! let s = Relation::zipf(1 << 13, 256, 1.0, 9);
//! let ht = HashTable::build_serial(&r);
//!
//! // Trace a tiered probe: events are keyed on the deterministic
//! // simulated clock, so the same run always yields the same trace.
//! let cfg = ProbeConfig {
//!     scan_all: true,
//!     tier: Some(TierSpec::headers_near(4)),
//!     trace: true,
//!     ..Default::default()
//! };
//! let out = probe(&ht, &s, Technique::Amac, &cfg);
//!
//! // Conservation: the stall profile sums to EXACTLY the engine's
//! // sim_stalls, with one retirement span per lookup — the trace is a
//! // decomposition of the clock, not a sample of it.
//! assert!(out.trace.conserves(out.stats.sim_stalls, out.stats.lookups));
//! let json = out.trace.chrome_json(); // load in about:tracing / Perfetto
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

pub use amac as engine;
pub use amac_btree as btree;
pub use amac_coro as coro;
pub use amac_hashtable as hashtable;
pub use amac_mem as mem;
pub use amac_metrics as metrics;
pub use amac_ops as ops;
pub use amac_runtime as runtime;
pub use amac_server as server;
pub use amac_shard as shard;
pub use amac_skiplist as skiplist;
pub use amac_tier as tier;
pub use amac_trace as trace;
pub use amac_tree as tree;
pub use amac_workload as workload;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use amac::engine::{Technique, TuningParams};
    pub use amac_btree::BPlusTree;
    pub use amac_coro::{run_interleaved_collect, CoroConfig};
    pub use amac_hashtable::{AggTable, HashTable};
    pub use amac_ops::join::{probe, ProbeConfig};
    pub use amac_ops::parallel::{probe_groupby_mt_rt, probe_mt_rt, MtOutput};
    pub use amac_ops::pipeline::{
        probe_then_groupby, probe_then_groupby_two_phase, probe_then_probe, PipelineConfig,
    };
    pub use amac_runtime::{MorselConfig, Scheduling};
    pub use amac_server::{Request, ServeConfig, ServeSession};
    pub use amac_shard::{Placement, ShardConfig, ShardRouter, ShardedTable};
    pub use amac_tier::{CostModel, Tier, TierPolicy, TierSpec};
    pub use amac_trace::{TraceEvent, Tracer};
    pub use amac_workload::{FilterSpec, PoissonArrivals, Relation, TenantMix, Tuple};
}
