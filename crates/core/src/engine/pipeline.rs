//! Fused multi-operator pipelines over one AMAC window.
//!
//! A [`LookupOp`] describes *one* pointer-chasing operator. Real queries
//! chain several: scan → hash-probe → filter → group-by. Executed
//! operator-at-a-time, each operator materializes its output and the next
//! re-reads it — extra memory traffic, and every operator pays its own
//! window fill/drain. This module fuses the chain instead: each slot of a
//! single circular buffer carries a tuple through a **heterogeneous state
//! machine spanning every operator**, so a tuple's probe miss and its
//! aggregation-bucket miss overlap in the same M-slot window with no
//! intermediate materialization (the paper's §6 deployment target).
//!
//! # Vocabulary
//!
//! * An operator of a chain is a [`LookupOp`] whose lookups finish by
//!   *emitting* a tuple downstream ([`Step::Emit`], typed by
//!   [`LookupOp::Output`]) or by leaving the pipeline ([`Step::Done`]: a
//!   probe miss, a filtered tuple).
//! * [`Chain`] — fuses two ops. Its per-slot state is the stage tag +
//!   operator-local state union ([`ChainState`]): a slot is either still
//!   in the upstream operator or already in the downstream one. The
//!   upstream's terminal stage and the downstream's initial stage execute
//!   in the **same** rotation (the cross-operator analogue of AMAC's
//!   merged terminal+initial stage), so the number of in-flight memory
//!   accesses never dips at an operator boundary. A chain is one state
//!   machine: its stages are its members' stage bodies, run over the pair
//!   of their tallies, so a metered chain stage is one out-of-line call
//!   like any other op's.
//! * [`Route`] — the fused filter/projection between two operators:
//!   maps an upstream output to the downstream input, or drops it.
//!   Filters cost zero extra rotations.
//! * [`Fused`] — hands a chain's emitted outputs to a [`Consumer`]. A
//!   chain whose last operator materializes its own output (a group-by)
//!   needs none: the executors run it as it is.
//!
//! Chains nest — `Chain<Chain<A, B, _>, C, _>` is a three-operator
//! pipeline — and every composition stays a plain state machine: no
//! allocation, no dynamic dispatch, no queues between operators.

use super::{Hooks, LookupOp, Step};
use core::convert::Infallible;

/// The fused filter + projection between two pipeline operators.
///
/// Returning `None` drops the tuple (a filter); returning `Some` maps the
/// upstream output into the downstream input (a projection). Routing runs
/// inside the upstream operator's terminal stage, so a filter costs zero
/// extra slot rotations.
pub trait Route<I, O> {
    /// Map an upstream output to a downstream input, or drop it.
    fn route(&mut self, item: I) -> Option<O>;
}

/// The identity route: pass every tuple through unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassThrough;

impl<I> Route<I, I> for PassThrough {
    #[inline(always)]
    fn route(&mut self, item: I) -> Option<I> {
        Some(item)
    }
}

/// Per-slot state of a [`Chain`]: the stage tag + operator-local state
/// union. A slot is in exactly one operator at a time, so the two states
/// share storage.
#[derive(Debug)]
pub enum ChainState<A, B> {
    /// The slot's tuple is still inside the upstream operator.
    Up(A),
    /// The slot's tuple has crossed into the downstream operator.
    Down(B),
}

impl<A: Default, B> Default for ChainState<A, B> {
    fn default() -> Self {
        ChainState::Up(A::default())
    }
}

/// Two operators fused into one: `up`'s emits are routed through `R` and
/// immediately `start` the slot in `down` — within the same slot
/// rotation, keeping the in-flight window full across the operator
/// boundary. Itself a [`LookupOp`], so chains nest.
#[derive(Debug)]
pub struct Chain<A, B, R> {
    up: A,
    down: B,
    route: R,
}

impl<A, B, R> Chain<A, B, R> {
    /// Fuse `up` → `route` → `down`.
    pub fn new(up: A, down: B, route: R) -> Self {
        Chain { up, down, route }
    }

    /// The upstream operator (for reading its accumulators after a run).
    pub fn up(&self) -> &A {
        &self.up
    }

    /// The downstream operator (for reading its accumulators after a run).
    pub fn down(&self) -> &B {
        &self.down
    }

    /// Both operators, mutably (for a wrapper that knows their concrete
    /// types and needs their contexts un-erased).
    pub fn members_mut(&mut self) -> (&mut A, &mut B) {
        (&mut self.up, &mut self.down)
    }
}

/// Clock sync: each member op carries its own cost-model clock but the
/// fused window has one timeline, so on a metered call the member about
/// to execute is first lifted to the other's `now` — lazily, O(1) per
/// stage. A plain call has no clocks to sync.
impl<A, B, R> LookupOp for Chain<A, B, R>
where
    A: LookupOp,
    B: LookupOp,
    R: Route<A::Output, B::Input>,
{
    type Input = A::Input;
    type State = ChainState<A::State, B::State>;
    type Tally = (A::Tally, B::Tally);
    type Output = B::Output;

    #[inline(always)]
    fn start<const PLAIN: bool>(
        &mut self,
        tally: &mut Self::Tally,
        input: A::Input,
        state: &mut Self::State,
    ) {
        // Slots are recycled, so the state may still hold the previous
        // tuple's Down variant; reset to a fresh upstream state.
        *state = ChainState::Up(A::State::default());
        let ChainState::Up(a) = state else { unreachable!() };
        if !PLAIN {
            self.up.ctx().advance_to(self.down.ctx().now());
        }
        self.up.start::<PLAIN>(&mut tally.0, input, a);
    }

    #[inline(always)]
    fn step<const PLAIN: bool>(
        &mut self,
        tally: &mut Self::Tally,
        state: &mut Self::State,
    ) -> Step<B::Output> {
        match state {
            ChainState::Up(a) => {
                if !PLAIN {
                    self.up.ctx().advance_to(self.down.ctx().now());
                }
                match self.up.step::<PLAIN>(&mut tally.0, a) {
                    Step::Continue => Step::Continue,
                    Step::Blocked => Step::Blocked,
                    Step::Done => Step::Done,
                    Step::Failed => Step::Failed,
                    Step::Emit(out) => match self.route.route(out) {
                        // Filtered out: the tuple leaves the pipeline.
                        None => Step::Done,
                        // Handoff: the downstream stage 0 runs in this same
                        // rotation, issuing its first prefetch, so the slot
                        // stays in flight with no idle turn in between.
                        Some(next) => {
                            let mut b = B::State::default();
                            if !PLAIN {
                                self.down.ctx().advance_to(self.up.ctx().now());
                            }
                            self.down.start::<PLAIN>(&mut tally.1, next, &mut b);
                            *state = ChainState::Down(b);
                            Step::Continue
                        }
                    },
                }
            }
            ChainState::Down(b) => {
                if !PLAIN {
                    self.down.ctx().advance_to(self.up.ctx().now());
                }
                self.down.step::<PLAIN>(&mut tally.1, b)
            }
        }
    }

    #[inline(always)]
    fn tally(&self) -> Self::Tally {
        (self.up.tally(), self.down.tally())
    }

    #[inline(always)]
    fn settle(&mut self, tally: Self::Tally) {
        self.up.settle(tally.0);
        self.down.settle(tally.1);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        (self.up.ctx(), Some(self.down.ctx()))
    }

    /// The upstream operator's: its stage 0 is the chain's.
    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        self.up.looks_ahead()
    }

    #[inline(always)]
    fn lookahead(&self, input: A::Input) {
        self.up.lookahead(input);
    }
}

/// Receives the terminal outputs of a fused pipeline.
///
/// Concrete (non-closure) types keep the composed executor types
/// nameable, which the multi-threaded drivers need to read per-worker
/// accumulators back after a run.
pub trait Consumer<T> {
    /// Accept one tuple that survived the whole pipeline.
    fn consume(&mut self, item: T);
}

/// Collects outputs into a `Vec` — the *materializing* sink used by
/// two-phase reference executions (and tests).
#[derive(Debug, Default)]
pub struct Collect<T> {
    /// Everything emitted, in completion order.
    pub items: Vec<T>,
}

impl<T> Consumer<T> for Collect<T> {
    #[inline(always)]
    fn consume(&mut self, item: T) {
        self.items.push(item);
    }
}

/// An op whose emitted outputs go to a [`Consumer`]: `Emit` feeds the
/// sink and completes the slot, so the fused op emits nothing itself.
#[derive(Debug)]
pub struct Fused<P, C> {
    pipe: P,
    sink: C,
}

impl<P, C> Fused<P, C> {
    /// Run `pipe`, delivering terminal outputs to `sink`.
    pub fn new(pipe: P, sink: C) -> Self {
        Fused { pipe, sink }
    }

    /// The fused pipeline (for reading operator accumulators).
    pub fn pipe(&self) -> &P {
        &self.pipe
    }

    /// The terminal consumer (for reading collected outputs).
    pub fn sink(&self) -> &C {
        &self.sink
    }

    /// Consume the adapter, returning the sink.
    pub fn into_sink(self) -> C {
        self.sink
    }
}

impl<P: LookupOp, C: Consumer<P::Output>> LookupOp for Fused<P, C> {
    type Input = P::Input;
    type State = P::State;
    type Tally = P::Tally;
    type Output = Infallible;

    #[inline(always)]
    fn start<const PLAIN: bool>(
        &mut self,
        tally: &mut P::Tally,
        input: P::Input,
        state: &mut P::State,
    ) {
        self.pipe.start::<PLAIN>(tally, input, state);
    }

    #[inline(always)]
    fn step<const PLAIN: bool>(&mut self, tally: &mut P::Tally, state: &mut P::State) -> Step {
        match self.pipe.step::<PLAIN>(tally, state) {
            Step::Continue => Step::Continue,
            Step::Blocked => Step::Blocked,
            Step::Done => Step::Done,
            Step::Failed => Step::Failed,
            Step::Emit(out) => {
                self.sink.consume(out);
                Step::Done
            }
        }
    }

    #[inline(always)]
    fn tally(&self) -> P::Tally {
        self.pipe.tally()
    }

    #[inline(always)]
    fn settle(&mut self, tally: P::Tally) {
        self.pipe.settle(tally);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        self.pipe.ctx()
    }

    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        self.pipe.looks_ahead()
    }

    #[inline(always)]
    fn lookahead(&self, input: P::Input) {
        self.pipe.lookahead(input);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{run, run_amac, Technique, TuningParams};
    use super::*;

    /// Test operator: walk `steps` synthetic nodes, then emit `input * 3`.
    struct Triple {
        steps: usize,
    }

    #[derive(Default)]
    struct TripleState {
        v: u64,
        left: usize,
    }

    impl LookupOp for Triple {
        type Input = u64;
        type State = TripleState;
        type Tally = ();
        type Output = u64;

        fn start<const PLAIN: bool>(&mut self, _: &mut (), input: u64, state: &mut TripleState) {
            state.v = input;
            state.left = self.steps;
        }

        fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut TripleState) -> Step<u64> {
            if state.left > 0 {
                state.left -= 1;
                Step::Continue
            } else {
                Step::Emit(state.v * 3)
            }
        }
    }

    /// Route that keeps even values only.
    struct EvenOnly;

    impl Route<u64, u64> for EvenOnly {
        fn route(&mut self, item: u64) -> Option<u64> {
            item.is_multiple_of(2).then_some(item)
        }
    }

    fn model(inputs: &[u64]) -> Vec<u64> {
        inputs.iter().map(|&v| v * 3).filter(|v| v % 2 == 0).map(|v| v * 3).collect()
    }

    #[test]
    fn chain_routes_and_filters_under_all_techniques() {
        let inputs: Vec<u64> = (0..200).collect();
        let mut want = model(&inputs);
        want.sort_unstable();
        for technique in Technique::ALL {
            let pipe = Chain::new(Triple { steps: 3 }, Triple { steps: 2 }, EvenOnly);
            let mut op = Fused::new(pipe, Collect::default());
            // N: each member's start plus its steps, 4 + 3.
            let stats = run(technique, &mut op, &inputs, TuningParams::with_in_flight(6), 7);
            assert_eq!(stats.lookups, inputs.len() as u64, "{technique}");
            let mut got = op.into_sink().items;
            got.sort_unstable();
            assert_eq!(got, want, "{technique}");
        }
    }

    #[test]
    fn nested_chains_compose() {
        let inputs: Vec<u64> = (1..=50).collect();
        let inner = Chain::new(Triple { steps: 1 }, Triple { steps: 1 }, PassThrough);
        let pipe = Chain::new(inner, Triple { steps: 1 }, PassThrough);
        let mut op = Fused::new(pipe, Collect::default());
        run_amac(&mut op, &inputs, TuningParams::default().in_flight);
        let mut got = op.into_sink().items;
        got.sort_unstable();
        let want: Vec<u64> = (1..=50).map(|v| v * 27).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn skip_completes_the_slot_without_emitting() {
        // Filter everything: no outputs, but every lookup completes.
        struct DropAll;
        impl Route<u64, u64> for DropAll {
            fn route(&mut self, _item: u64) -> Option<u64> {
                None
            }
        }
        let inputs: Vec<u64> = (0..64).collect();
        let pipe = Chain::new(Triple { steps: 2 }, Triple { steps: 2 }, DropAll);
        let mut op = Fused::new(pipe, Collect::default());
        let stats = run_amac(&mut op, &inputs, TuningParams::default().in_flight);
        assert_eq!(stats.lookups, 64);
        assert!(op.into_sink().items.is_empty());
    }

    #[test]
    fn handoff_prefetch_accounting_matches_convention() {
        // One lookup through a 2-op chain: start(1 prefetch) + up steps
        // (`steps` Continues) + handoff (Continue, down's start prefetch)
        // + down steps + final Emit (no prefetch).
        let inputs = [4u64];
        let pipe = Chain::new(Triple { steps: 3 }, Triple { steps: 2 }, PassThrough);
        let mut op = Fused::new(pipe, Collect::default());
        let stats = run_amac(&mut op, &inputs, TuningParams::default().in_flight);
        // Prefetches: 1 (start) + 3 (up Continues) + 1 (handoff) + 2 (down).
        assert_eq!(stats.prefetches, 7);
        // Stages: the above plus the terminal Emit step.
        assert_eq!(stats.stages, 8);
    }
}
