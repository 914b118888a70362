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
use amac::engine::{call, Hooks, LookupOp, Step};
use amac_ops::groupby::{GroupByOp, GroupByState, GroupByTally};
use amac_ops::join::{ProbeOp, ProbeState, ProbeTally};
use amac_ops::mutate::{MutState, MutateOp, MutateTally};
use amac_ops::pipeline::{FusedProbeGroupBy, StageTally};
use amac_workload::Tuple;
use core::convert::Infallible;

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

/// A plain lane's tally: one field per variant, of which only the lane's
/// own op's is used (no discriminant to test per stage).
#[derive(Clone, Copy, Default)]
pub struct TenantTally {
    probe: ProbeTally,
    groupby: GroupByTally,
    pipeline: (StageTally, GroupByTally),
    upsert: MutateTally,
}

/// One query's operator, in a form every other query's operator can share
/// a window with.
pub enum TenantOp<'a> {
    /// Hash-join probe against the catalog table.
    Probe(ProbeOp<'a>),
    /// Group-by into the query's own table.
    GroupBy(GroupByOp<'a>),
    /// Fused probe → filter → group-by (boxed: the fused chain is much
    /// larger than the other variants).
    Pipeline(Box<FusedProbeGroupBy<'a>>),
    /// Latch-free mutation of the shared catalog table (WAL-logged).
    Upsert(MutateOp<'a>),
}

/// Each variant's stages go to its op in the call's mode, through
/// [`call`]: a metered stage is the variant op's own out-of-line call.
impl LookupOp for TenantOp<'_> {
    type Input = Tuple;
    type State = TenantState;
    type Tally = TenantTally;
    type Output = Infallible;
    const ROUTES: bool = true;

    /// `start` fully reinitializes the state with the op's variant.
    #[inline(always)]
    fn start<const PLAIN: bool>(
        &mut self,
        t: &mut TenantTally,
        input: Tuple,
        state: &mut TenantState,
    ) {
        match self {
            TenantOp::Probe(op) => {
                let mut s = ProbeState::default();
                call::start::<_, PLAIN>(op, &mut t.probe, input, &mut s);
                *state = TenantState::Probe(s);
            }
            TenantOp::GroupBy(op) => {
                let mut s = GroupByState::default();
                call::start::<_, PLAIN>(op, &mut t.groupby, input, &mut s);
                *state = TenantState::GroupBy(s);
            }
            TenantOp::Pipeline(op) => {
                let mut s = ChainState::default();
                call::start::<_, PLAIN>(&mut **op, &mut t.pipeline, input, &mut s);
                *state = TenantState::Pipeline(s);
            }
            TenantOp::Upsert(op) => {
                let mut s = MutState::default();
                call::start::<_, PLAIN>(op, &mut t.upsert, input, &mut s);
                *state = TenantState::Upsert(s);
            }
        }
    }

    #[inline(always)]
    fn step<const PLAIN: bool>(&mut self, t: &mut TenantTally, state: &mut TenantState) -> Step {
        match (self, state) {
            (TenantOp::Probe(op), TenantState::Probe(s)) => {
                call::step::<_, PLAIN>(op, &mut t.probe, s)
            }
            (TenantOp::GroupBy(op), TenantState::GroupBy(s)) => {
                call::step::<_, PLAIN>(op, &mut t.groupby, s)
            }
            (TenantOp::Pipeline(op), TenantState::Pipeline(s)) => {
                call::step::<_, PLAIN>(&mut **op, &mut t.pipeline, s)
            }
            (TenantOp::Upsert(op), TenantState::Upsert(s)) => {
                call::step::<_, PLAIN>(op, &mut t.upsert, s)
            }
            _ => unreachable!("serving state variant does not match its lane's op"),
        }
    }

    #[inline(always)]
    fn tally(&self) -> TenantTally {
        let none = TenantTally::default();
        match self {
            TenantOp::Probe(op) => TenantTally { probe: op.tally(), ..none },
            TenantOp::GroupBy(op) => TenantTally { groupby: op.tally(), ..none },
            TenantOp::Pipeline(op) => TenantTally { pipeline: op.tally(), ..none },
            TenantOp::Upsert(op) => TenantTally { upsert: op.tally(), ..none },
        }
    }

    #[inline(always)]
    fn settle(&mut self, t: TenantTally) {
        match self {
            TenantOp::Probe(op) => op.settle(t.probe),
            TenantOp::GroupBy(op) => op.settle(t.groupby),
            TenantOp::Pipeline(op) => op.settle(t.pipeline),
            TenantOp::Upsert(op) => op.settle(t.upsert),
        }
    }

    /// One context for the single-operator variants, the probe and
    /// group-by stages' pair for the fused chain.
    fn ctx(&mut self) -> impl Hooks + '_ {
        match self {
            TenantOp::Probe(op) => (&mut op.cx, None),
            TenantOp::GroupBy(op) => (&mut op.cx, None),
            TenantOp::Pipeline(op) => {
                let (probe, groupby) = op.members_mut();
                (&mut probe.cx, Some(&mut groupby.cx))
            }
            TenantOp::Upsert(op) => (&mut op.cx, None),
        }
    }

    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        match self {
            TenantOp::Probe(op) => op.looks_ahead(),
            TenantOp::GroupBy(op) => op.looks_ahead(),
            TenantOp::Pipeline(op) => op.looks_ahead(),
            TenantOp::Upsert(op) => op.looks_ahead(),
        }
    }

    #[inline(always)]
    fn lookahead(&self, input: Tuple) {
        match self {
            TenantOp::Probe(op) => op.lookahead(input),
            TenantOp::GroupBy(op) => op.lookahead(input),
            TenantOp::Pipeline(op) => op.lookahead(input),
            TenantOp::Upsert(op) => op.lookahead(input),
        }
    }
}
