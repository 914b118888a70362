//! # amac_server — cross-query AMAC serving layer
//!
//! Everything below `amac_server` runs **one query at a time**: a probe
//! stream, one op, one in-flight window. A serving system sees something
//! else entirely — many concurrent client sessions, each submitting
//! probe / group-by / pipeline queries of wildly different sizes. Giving
//! each its own window wastes the machine twice: a small query cannot
//! fill `M` slots (its tail runs at memory latency), and a big query
//! monopolizes the engine while everyone else queues.
//!
//! The paper's own insight closes the gap: the in-flight window hides
//! memory latency *regardless of where the lookups come from* (§3 — the
//! window entries are independent state machines; the AMAU follow-up
//! work generalizes exactly this to many request streams sharing one
//! asynchronous access engine). So this crate batches concurrent
//! sessions into **shared** windows:
//!
//! * [`ServeSession`] — admission control (bounded active set, bounded
//!   pending queue, explicit [`Backpressure`]), deficit-round-robin
//!   interleaving across active queries, one persistent
//!   [`amac::engine::AmacSession`] whose window carries every query's
//!   lookups at once;
//! * [`Request`] / [`QueryReport`] — per-query submission and result
//!   routing: results, materialized outputs and *exact* per-query
//!   [`amac::engine::EngineStats`] (via `amac::engine::mux`'s per-lane
//!   ledgers), plus submit-to-completion latency. Inside the session a
//!   query is one record, built at submission and moved from pending to
//!   the window, to retry backoff and back, and into its report. Every
//!   outcome (completed, shed, cancelled, failed, ...) ends in the same
//!   place, which files the report, settles the tenant's circuit breaker
//!   and records the session trace event;
//! * [`ShardedServe`] runs one such session, and so one shared window,
//!   per shard.
//!
//! Results are bit-identical to solo runs by construction — sharing the
//! window reschedules stages, it never changes what a query computes —
//! and the serving simulation (`crates/server/tests/sim.rs`, invariant
//! 5) plus `bench serve` hold that line (a Zipf-skewed tenant must not inflate a uniform tenant's
//! `nodes_visited`, reorder its results, or change its counters).
//!
//! ## Quickstart
//!
//! (Mirrored in the repository `README.md`; `bench serve` is the
//! load-generator version with Poisson arrivals and tenant mixes.)
//!
//! ```
//! use amac_server::{Request, ServeConfig, ServeSession};
//! use amac_ops::join::ProbeConfig;
//! use amac_hashtable::HashTable;
//! use amac_workload::Relation;
//!
//! // Shared catalog: one dimension table every query probes.
//! let dim = Relation::dense_unique(1 << 10, 0xD1);
//! let ht = HashTable::build_serial(&dim);
//!
//! // Two concurrent client sessions: uniform and Zipf-skewed.
//! let uniform = Relation::fk_uniform(&dim, 4096, 0x01);
//! let skewed = Relation::zipf(4096, 1 << 10, 1.0, 0x02);
//!
//! let mut srv = ServeSession::new(&ht, ServeConfig::default());
//! let a = srv.submit(Request::Probe { probes: &uniform, cfg: ProbeConfig::default() }).unwrap();
//! let b = srv.submit(Request::Probe { probes: &skewed, cfg: ProbeConfig::default() }).unwrap();
//!
//! let out = srv.finish(); // drives both queries through ONE shared window
//! assert_eq!(out.reports.len(), 2);
//! for r in &out.reports {
//!     // Per-query accounting is exact: every submitted tuple completed.
//!     assert_eq!(r.stats.lookups, r.tuples);
//! }
//! assert!(out.reports.iter().any(|r| r.qid == a));
//! assert!(out.reports.iter().any(|r| r.qid == b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod query;
mod request;
mod session;
mod shard;
mod tenant;

pub use request::{
    Backpressure, BreakerMode, QueryId, QueryOutcome, QueryReport, Request, Stalled, SubmitOpts,
};
pub use session::{fairness_nodes_ratio, ServeConfig, ServeOutput, ServeSession};
pub use shard::{ShardedServe, ShardedServeOutput};
pub use tenant::{TenantOp, TenantState};
