//! # amac-coro — coroutine front-end for AMAC-style interleaving
//!
//! §6 of the paper ("AMAC automation") proposes that "event-driven
//! programming language concepts such as coroutines that allow for
//! cooperative multitasking within a thread" could generalize AMAC so the
//! developer writes ordinary traversal code instead of hand-crafted stage
//! machines. This crate builds that framework on stable Rust: `async fn`s
//! are compiler-generated resumable state machines, and a tiny
//! waker-free ring executor schedules them with **exactly** AMAC's
//! discipline (rolling counter, skip-pending, merged refill-and-first-poll
//! on completion).
//!
//! ```
//! use amac_coro::{run_interleaved_collect, prefetch_yield};
//! use amac_hashtable::HashTable;
//! use amac_workload::Relation;
//!
//! let r = Relation::dense_unique(1 << 10, 7);
//! let ht = HashTable::build_serial(&r);
//! // Ten lookups in flight; each is plain traversal code with a
//! // prefetch+yield at every pointer dereference.
//! let (payloads, stats) = run_interleaved_collect(10, &r.tuples, |_, t| {
//!     amac_coro::ops::probe_chain(&ht, t.key, false)
//! });
//! assert_eq!(stats.completed, 1 << 10);
//! assert!(payloads.iter().all(|h| h.matches == 1));
//! ```
//!
//! The paper also predicts the cost: "the user-land threads' state
//! maintenance and space overhead". [`InterleaveStats::future_bytes`]
//! reports the compiler-laid-out suspended-frame size next to the
//! hand-written state struct's, and the repository benchmark's
//! `coro.probe` ladder rung prices [`coro_probe`] against the
//! state-machine probe on the same table.

mod executor;
pub mod ops;

pub use executor::{
    prefetch_yield, run_interleaved, run_interleaved_collect, yield_now, InterleaveStats,
    YieldPoint,
};
pub use ops::{coro_probe, probe_chain, ChainHit, CoroConfig, CoroOutput};
