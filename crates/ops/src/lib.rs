//! Database operators executed under baseline / GP / SPP / AMAC.
//!
//! Each operator in the paper's evaluation is written **once** as an
//! [`amac::engine::LookupOp`] state machine and executed by all four
//! techniques, exactly mirroring the paper's Table 1 stage decompositions:
//!
//! | Operator | Module | Paper stages |
//! |----------|--------|--------------|
//! | Hash join probe | [`join`] | 0: hash + prefetch bucket; 1: compare keys / output / chase `next` |
//! | Hash join build | [`join`] | 0: hash + prefetch bucket; 1: latch? retry : O(1) head insert |
//! | Group-by (immediate agg) | [`groupby`] | 0: hash + prefetch; 1: latch? retry : walk; 1b: latched walk (extra stage avoids re-acquire deadlock); update / append |
//! | BST search | [`bst`] | 0: prefetch root; 1: compare, descend + prefetch child |
//! | B+-tree search | [`btree`] | 0: prefetch root; 1: select + prefetch child (inner) / resolve (leaf) — the *regular* tree counterpart |
//! | Skip list search | [`skiplist`] | 0: prefetch top-level successor; 1: compare / advance / descend |
//! | Skip list insert | [`skiplist`] | search stages + 2: random level & node allocation; 3: per-level latched splice |
//! | Latch-free upsert/insert/delete | [`mutate`] | 0: hash + prefetch header; 1..N: frozen-chain walk + WAL append; terminal: fresh-prefix CAS action |
//! | WAL replay | [`mutate`] | single stage: re-apply one logical record through the latch-free primitives (recovery path) |
//!
//! Every driver returns timing (cycles/seconds via `amac-metrics`) plus the
//! executor's [`amac::engine::EngineStats`], and every operator produces an
//! order-independent checksum so the four techniques can be verified to
//! compute identical results.
//!
//! [`parallel`] holds the multi-threaded drivers for the scalability
//! experiments (Figs. 7–8, Table 4); an op without one there runs on
//! the morsel runtime through `amac_runtime::execute`. [`pipeline`]
//! fuses multi-operator chains (probe → filter → group-by, probe →
//! probe) into a single AMAC window — §6's multi-operator integration —
//! with two-phase materialized references for equivalence and traffic
//! comparisons.

pub mod bst;
pub mod btree;
pub mod chain;
pub mod groupby;
pub mod join;
pub mod mutate;
pub mod parallel;
pub mod pipeline;
pub mod search;
pub mod skiplist;

pub use amac::engine::{Technique, TuningParams};

/// Arm a freshly made op's tracer when the driver's config asks for a
/// trace. Single-thread drivers harvest it with `take_tracer`, the morsel
/// runtime merges every worker's into `RunReport::trace`.
pub(crate) fn traced<O: amac::engine::LookupOp>(mut op: O, on: bool) -> O {
    use amac::engine::Hooks;
    if on {
        op.ctx().set_tracer(amac_trace::Tracer::on());
    }
    op
}
