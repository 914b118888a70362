//! One op type for every request kind, so heterogeneous queries can
//! share a single [`Mux`](amac::engine::mux::Mux) window.
//!
//! The multiplexer is generic over *one* inner op type; the serving
//! layer's queries are probes, group-bys and fused pipelines. [`TenantOp`]
//! is the sum type that unifies them: each variant delegates the
//! [`LookupOp`] contract to the wrapped operator, and the state enum
//! mirrors it. `start` fully reinitializes the state (writing the variant
//! matching the op), so a window slot can be handed from a probe query to
//! a pipeline query and back as lanes are recycled.

use amac::engine::pipeline::ChainState;
use amac::engine::{Hooks, LookupOp, Step};
use amac_ops::groupby::{GroupByOp, GroupByState};
use amac_ops::join::{ProbeOp, ProbeState};
use amac_ops::mutate::{MutState, MutateOp};
use amac_ops::pipeline::FusedProbeGroupBy;
use amac_workload::Tuple;

/// State of one in-flight serving lookup (variant always matches the
/// owning lane's op; `Vacant` only before the first `start`).
#[derive(Default)]
pub enum TenantState {
    /// Slot not yet started.
    #[default]
    Vacant,
    /// In-flight probe.
    Probe(ProbeState),
    /// In-flight group-by update.
    GroupBy(GroupByState),
    /// In-flight fused probe → filter → group-by chain.
    Pipeline(ChainState<ProbeState, GroupByState>),
    /// In-flight latch-free catalog mutation.
    Upsert(MutState),
}

/// One query's operator, in a form every other query's operator can share
/// a window with.
pub enum TenantOp<'a> {
    /// Hash-join probe against the catalog table.
    Probe(ProbeOp<'a>),
    /// Group-by into the query's own table.
    GroupBy(GroupByOp<'a>),
    /// Fused probe → filter → group-by (boxed: the fused chain state
    /// machine is much larger than the other variants).
    Pipeline(Box<FusedProbeGroupBy<'a>>),
    /// Latch-free mutation of the shared catalog table (WAL-logged).
    Upsert(MutateOp<'a>),
}

impl LookupOp for TenantOp<'_> {
    type Input = Tuple;
    type State = TenantState;

    fn budgeted_steps(&self) -> usize {
        match self {
            TenantOp::Probe(op) => op.budgeted_steps(),
            TenantOp::GroupBy(op) => op.budgeted_steps(),
            TenantOp::Pipeline(op) => op.budgeted_steps(),
            TenantOp::Upsert(op) => op.budgeted_steps(),
        }
    }

    #[inline(always)]
    fn start(&mut self, input: Tuple, state: &mut TenantState) {
        match self {
            TenantOp::Probe(op) => {
                let mut s = ProbeState::default();
                op.start(input, &mut s);
                *state = TenantState::Probe(s);
            }
            TenantOp::GroupBy(op) => {
                let mut s = GroupByState::default();
                op.start(input, &mut s);
                *state = TenantState::GroupBy(s);
            }
            TenantOp::Pipeline(op) => {
                let mut s = ChainState::default();
                op.start(input, &mut s);
                *state = TenantState::Pipeline(s);
            }
            TenantOp::Upsert(op) => {
                let mut s = MutState::default();
                op.start(input, &mut s);
                *state = TenantState::Upsert(s);
            }
        }
    }

    #[inline(always)]
    fn step(&mut self, state: &mut TenantState) -> Step {
        match (self, state) {
            (TenantOp::Probe(op), TenantState::Probe(s)) => op.step(s),
            (TenantOp::GroupBy(op), TenantState::GroupBy(s)) => op.step(s),
            (TenantOp::Pipeline(op), TenantState::Pipeline(s)) => op.step(s),
            (TenantOp::Upsert(op), TenantState::Upsert(s)) => op.step(s),
            _ => unreachable!("serving state variant does not match its lane's op"),
        }
    }

    /// One context for the single-operator variants, the probe and
    /// group-by stages' pair for the fused chain.
    fn ctx(&mut self) -> impl Hooks + '_ {
        match self {
            TenantOp::Probe(op) => (&mut op.cx, None),
            TenantOp::GroupBy(op) => (&mut op.cx, None),
            TenantOp::Pipeline(op) => {
                let (probe, groupby) = op.pipe_mut().members_mut();
                (&mut probe.cx, Some(&mut groupby.0.cx))
            }
            TenantOp::Upsert(op) => (&mut op.cx, None),
        }
    }
}
