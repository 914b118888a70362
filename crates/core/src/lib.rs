//! # amac — Asynchronous Memory Access Chaining executors
//!
//! This crate implements the paper's contribution: a family of *executors*
//! that run many independent pointer-chasing lookups through a single
//! hardware thread while keeping the maximum number of memory accesses in
//! flight.
//!
//! A workload describes one lookup as a small state machine by implementing
//! [`engine::LookupOp`]: `start` hashes/roots a new input and issues the
//! first prefetch, `step` consumes the previously prefetched node and either
//! finishes, prefetches the next node, or reports a latch conflict. Four
//! executors then schedule those state machines. GP and SPP size their
//! static schedules by two numbers the caller passes, the width `M` and the
//! stage budget `N`, which the caller derives from its data (Fig. 2); AMAC
//! takes `M` alone:
//!
//! | Executor | Paper §2.2/§3 | Scheduling discipline |
//! |----------|---------------|----------------------|
//! | [`engine::run_baseline`] | no-prefetch baseline | one lookup at a time, no prefetch distance |
//! | [`engine::run_gp`] | Group Prefetching (Chen et al.) | groups of `M`; `N` sweeps of one code stage over the whole group; finished lookups burn no-op slots; over-length lookups bail out |
//! | [`engine::run_spp`] | Software-Pipelined Prefetching | `M`-slot pipeline, each slot holding a lookup for `N` stage opportunities; early exits pad with no-ops; over-length lookups bail out |
//! | [`engine::run_amac`] | **AMAC (this paper)** | circular buffer of per-lookup state; any slot that finishes immediately starts a new lookup; latch conflicts defer the slot instead of spinning |
//!
//! The executors are deliberately *instruction-faithful* to the paper's
//! descriptions: GP and SPP really do visit finished lookups' stage slots
//! (the gray no-op boxes of Fig. 2) and really do fall back to sequential
//! "bailout" execution past their static stage budget, because those
//! overheads are precisely what the paper measures.
//!
//! Beyond single operators, [`engine::pipeline`] fuses *chains* of
//! operators (scan → probe → filter → group-by) into one heterogeneous
//! state machine so a whole pipeline shares a single in-flight window —
//! the paper's §6 multi-operator integration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
// `engine::AmacSession`; its file sits with the other executors. Declared
// here, not in `engine`, so its unit tests keep the `session::tests::*`
// paths they had in `amac_runtime` (the test floor tracks tests by path).
#[path = "engine/session.rs"]
mod session;

pub use engine::{
    run, run_amac, run_baseline, run_gp, run_spp, EngineStats, Hooks, LookupOp, Step, Technique,
    TuningParams,
};
