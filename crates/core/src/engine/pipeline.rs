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
//! * [`PipelineOp`] — generalizes [`LookupOp`] with a typed output: a
//!   stage finishes by *emitting* a tuple downstream
//!   ([`StageStep::Emit`]) or *dropping* it ([`StageStep::Skip`]).
//! * [`Chain`] — fuses two `PipelineOp`s. Its per-slot state is the
//!   stage tag + operator-local state union ([`ChainState`]): a slot is
//!   either still in the upstream operator or already in the downstream
//!   one. The upstream's terminal stage and the downstream's initial
//!   stage execute in the **same** rotation (the cross-operator analogue
//!   of AMAC's merged terminal+initial stage), so the number of in-flight
//!   memory accesses never dips at an operator boundary.
//! * [`Route`] — the fused filter/projection between two operators:
//!   maps an upstream output to the downstream input, or drops it.
//!   Filters cost zero extra rotations.
//! * [`Fused`] — adapts a `PipelineOp` back into a [`LookupOp`] so all
//!   four executors (and the morsel runtime) can run a fused chain
//!   unchanged; terminal outputs go to a [`Consumer`].
//!
//! Chains nest — `Chain<Chain<A, B, _>, C, _>` is a three-operator
//! pipeline — and every composition stays a plain state machine: no
//! allocation, no dynamic dispatch, no queues between operators.

use super::{Hooks, LookupOp, Step};

/// Outcome of one executed code stage of a pipeline operator.
///
/// `Continue`/`Blocked` mean exactly what they mean for [`LookupOp`];
/// the two terminal outcomes are split by whether the tuple survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStep<O> {
    /// The stage issued a prefetch for the next node; resume later.
    Continue,
    /// A latch was busy; no progress was made, retry this stage.
    Blocked,
    /// The operator finished and hands `O` to the next operator (or the
    /// pipeline's [`Consumer`] if this is the last one).
    Emit(O),
    /// The operator finished and the tuple leaves the pipeline (probe
    /// miss, filtered out). No downstream work happens.
    Skip,
    /// A simulated far-memory load failed and the tuple's chain walk
    /// aborted (see [`Step::Failed`]). The slot retires with no
    /// downstream work; chains propagate the failure unchanged so the
    /// executor sees exactly one `Failed` retirement per poisoned tuple.
    Failed,
}

/// One operator of a fused pipeline.
///
/// Same contract as [`LookupOp`] — `start` consumes an input and issues
/// the first prefetch, each `step` consumes the previously prefetched
/// node — except that finishing is typed: [`StageStep::Emit`] carries the
/// operator's output downstream. The prefetch accounting convention is
/// unchanged: `start` and `Continue` issue exactly one prefetch each;
/// `Emit`/`Skip`/`Blocked` issue none of their own (a [`Chain`] handoff
/// issues the *downstream* operator's `start` prefetch in the same
/// rotation).
pub trait PipelineOp {
    /// Per-tuple input arriving from upstream (or the scan).
    type Input: Copy;
    /// Output handed downstream on [`StageStep::Emit`].
    type Output;
    /// Per-slot resumable state for this operator.
    type State: Default;
    /// The operator's loop-carried scalars on a plain call (see
    /// [`LookupOp::Tally`]); a [`Chain`]'s is its members' pair.
    type Tally: Copy + Default;

    /// The paper's `N` for this operator: `step` calls a regular tuple
    /// needs. [`Chain`] sums the stages of its operators so GP/SPP can
    /// size their static schedules for the whole pipeline.
    fn budgeted_steps(&self) -> usize;

    /// Code stage 0: begin processing `input`, issuing the first prefetch.
    fn start(&mut self, input: Self::Input, state: &mut Self::State);

    /// Execute the next code stage of the tuple held in `state`.
    fn step(&mut self, state: &mut Self::State) -> StageStep<Self::Output>;

    /// As [`LookupOp::plain`]: `Some` when the operator's context is plain
    /// for this call.
    #[inline(always)]
    fn plain(&self) -> Option<Self::Tally> {
        None
    }

    /// [`start`](PipelineOp::start) on a plain call.
    #[inline(always)]
    fn start_plain(
        &mut self,
        tally: &mut Self::Tally,
        input: Self::Input,
        state: &mut Self::State,
    ) {
        let _ = tally;
        self.start(input, state);
    }

    /// [`step`](PipelineOp::step) on a plain call.
    #[inline(always)]
    fn step_plain(
        &mut self,
        tally: &mut Self::Tally,
        state: &mut Self::State,
    ) -> StageStep<Self::Output> {
        let _ = tally;
        self.step(state)
    }

    /// As [`LookupOp::settle`].
    #[inline(always)]
    fn settle(&mut self, tally: Self::Tally) {
        let _ = tally;
    }

    /// The operator's execution context (see [`LookupOp::ctx`]); a
    /// [`Chain`] pairs its members' contexts.
    #[inline(always)]
    fn ctx(&mut self) -> impl Hooks + '_ {}

    /// As [`LookupOp::looks_ahead`]; a [`Chain`] asks its upstream
    /// operator, whose stage 0 is the chain's.
    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        false
    }

    /// As [`LookupOp::lookahead`].
    #[inline(always)]
    fn lookahead(&self, input: Self::Input) {
        let _ = input;
    }
}

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

/// Two pipeline operators fused into one: `up`'s emits are routed through
/// `R` and immediately `start` the slot in `down` — within the same slot
/// rotation, keeping the in-flight window full across the operator
/// boundary. Itself a [`PipelineOp`], so chains nest.
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

impl<A, B, R> Chain<A, B, R>
where
    A: PipelineOp,
    B: PipelineOp,
    R: Route<A::Output, B::Input>,
{
    /// Stage 0, in either mode. Clock sync: each member op carries its
    /// own cost-model clock but the fused window has one timeline, so the
    /// member about to execute is first lifted to the other's `now` —
    /// lazily, O(1) per stage. A plain call has no clocks to sync.
    #[inline(always)]
    fn start_in<const PLAIN: bool>(
        &mut self,
        tally: &mut (A::Tally, B::Tally),
        input: A::Input,
        state: &mut ChainState<A::State, B::State>,
    ) {
        // Slots are recycled, so the state may still hold the previous
        // tuple's Down variant; reset to a fresh upstream state.
        *state = ChainState::Up(A::State::default());
        let ChainState::Up(a) = state else { unreachable!() };
        if PLAIN {
            self.up.start_plain(&mut tally.0, input, a);
        } else {
            self.up.ctx().advance_to(self.down.ctx().now());
            self.up.start(input, a);
        }
    }

    #[inline(always)]
    fn step_in<const PLAIN: bool>(
        &mut self,
        tally: &mut (A::Tally, B::Tally),
        state: &mut ChainState<A::State, B::State>,
    ) -> StageStep<B::Output> {
        match state {
            ChainState::Up(a) => {
                let up = if PLAIN {
                    self.up.step_plain(&mut tally.0, a)
                } else {
                    self.up.ctx().advance_to(self.down.ctx().now());
                    self.up.step(a)
                };
                match up {
                    StageStep::Continue => StageStep::Continue,
                    StageStep::Blocked => StageStep::Blocked,
                    StageStep::Skip => StageStep::Skip,
                    StageStep::Failed => StageStep::Failed,
                    StageStep::Emit(out) => match self.route.route(out) {
                        // Filtered out: the tuple leaves the pipeline.
                        None => StageStep::Skip,
                        // Handoff: the downstream stage 0 runs in this same
                        // rotation, issuing its first prefetch, so the slot
                        // stays in flight with no idle turn in between.
                        Some(next) => {
                            let mut b = B::State::default();
                            if PLAIN {
                                self.down.start_plain(&mut tally.1, next, &mut b);
                            } else {
                                self.down.ctx().advance_to(self.up.ctx().now());
                                self.down.start(next, &mut b);
                            }
                            *state = ChainState::Down(b);
                            StageStep::Continue
                        }
                    },
                }
            }
            ChainState::Down(b) => {
                if PLAIN {
                    self.down.step_plain(&mut tally.1, b)
                } else {
                    self.down.ctx().advance_to(self.up.ctx().now());
                    self.down.step(b)
                }
            }
        }
    }
}

impl<A, B, R> PipelineOp for Chain<A, B, R>
where
    A: PipelineOp,
    B: PipelineOp,
    R: Route<A::Output, B::Input>,
{
    type Input = A::Input;
    type Output = B::Output;
    type State = ChainState<A::State, B::State>;
    type Tally = (A::Tally, B::Tally);

    fn budgeted_steps(&self) -> usize {
        self.up.budgeted_steps() + self.down.budgeted_steps()
    }

    #[inline]
    fn start(&mut self, input: Self::Input, state: &mut Self::State) {
        self.start_in::<false>(&mut Default::default(), input, state);
    }

    #[inline]
    fn step(&mut self, state: &mut Self::State) -> StageStep<Self::Output> {
        self.step_in::<false>(&mut Default::default(), state)
    }

    /// Plain only when both members are.
    #[inline(always)]
    fn plain(&self) -> Option<Self::Tally> {
        Some((self.up.plain()?, self.down.plain()?))
    }

    #[inline(always)]
    fn start_plain(
        &mut self,
        tally: &mut Self::Tally,
        input: Self::Input,
        state: &mut Self::State,
    ) {
        self.start_in::<true>(tally, input, state);
    }

    #[inline(always)]
    fn step_plain(
        &mut self,
        tally: &mut Self::Tally,
        state: &mut Self::State,
    ) -> StageStep<Self::Output> {
        self.step_in::<true>(tally, state)
    }

    #[inline(always)]
    fn settle(&mut self, tally: Self::Tally) {
        self.up.settle(tally.0);
        self.down.settle(tally.1);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        (self.up.ctx(), Some(self.down.ctx()))
    }

    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        self.up.looks_ahead()
    }

    #[inline(always)]
    fn lookahead(&self, input: Self::Input) {
        self.up.lookahead(input);
    }
}

/// Adapts any existing [`LookupOp`] into a **terminal** pipeline
/// operator: every completed lookup emits `()` downstream (the op
/// materializes its real output internally, e.g. into an aggregation
/// table). This lets an operator written once for the standalone drivers
/// serve as the last stage of a fused chain with no duplicated state
/// machine.
#[derive(Debug)]
pub struct Terminal<L>(pub L);

impl<L> Terminal<L> {
    /// The adapted lookup op (for reading its accumulators after a run).
    pub fn inner(&self) -> &L {
        &self.0
    }
}

/// A lookup's end is the terminal operator's emit.
#[inline(always)]
fn emit_done(step: Step) -> StageStep<()> {
    match step {
        Step::Continue => StageStep::Continue,
        Step::Blocked => StageStep::Blocked,
        Step::Done => StageStep::Emit(()),
        Step::Failed => StageStep::Failed,
    }
}

impl<L: LookupOp> PipelineOp for Terminal<L> {
    type Input = L::Input;
    type Output = ();
    type State = L::State;
    type Tally = L::Tally;

    fn budgeted_steps(&self) -> usize {
        self.0.budgeted_steps()
    }

    #[inline]
    fn start(&mut self, input: Self::Input, state: &mut Self::State) {
        self.0.start(input, state);
    }

    #[inline]
    fn step(&mut self, state: &mut Self::State) -> StageStep<()> {
        emit_done(self.0.step(state))
    }

    #[inline(always)]
    fn plain(&self) -> Option<L::Tally> {
        self.0.plain()
    }

    #[inline(always)]
    fn start_plain(&mut self, tally: &mut L::Tally, input: Self::Input, state: &mut Self::State) {
        self.0.start_plain(tally, input, state);
    }

    #[inline(always)]
    fn step_plain(&mut self, tally: &mut L::Tally, state: &mut Self::State) -> StageStep<()> {
        emit_done(self.0.step_plain(tally, state))
    }

    #[inline(always)]
    fn settle(&mut self, tally: L::Tally) {
        self.0.settle(tally);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        self.0.ctx()
    }

    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        self.0.looks_ahead()
    }

    #[inline(always)]
    fn lookahead(&self, input: Self::Input) {
        self.0.lookahead(input);
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

/// Ignores every output — for pipelines whose terminal operator
/// materializes internally (e.g. an aggregation table).
#[derive(Debug, Clone, Copy, Default)]
pub struct Discard;

impl<T> Consumer<T> for Discard {
    #[inline(always)]
    fn consume(&mut self, _item: T) {}
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

/// Adapts a [`PipelineOp`] into a [`LookupOp`] so the four executors and
/// the morsel runtime can run a fused chain unchanged: `Emit` feeds the
/// [`Consumer`] and completes the slot, `Skip` completes it silently.
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

    /// The fused pipeline, mutably.
    pub fn pipe_mut(&mut self) -> &mut P {
        &mut self.pipe
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

impl<P: PipelineOp, C: Consumer<P::Output>> Fused<P, C> {
    /// An emitted tuple goes to the sink; the lookup is over either way.
    #[inline(always)]
    fn sink_done(&mut self, step: StageStep<P::Output>) -> Step {
        match step {
            StageStep::Continue => Step::Continue,
            StageStep::Blocked => Step::Blocked,
            StageStep::Skip => Step::Done,
            StageStep::Failed => Step::Failed,
            StageStep::Emit(out) => {
                self.sink.consume(out);
                Step::Done
            }
        }
    }
}

impl<P, C> LookupOp for Fused<P, C>
where
    P: PipelineOp,
    C: Consumer<P::Output>,
{
    type Input = P::Input;
    type State = P::State;
    type Tally = P::Tally;

    fn budgeted_steps(&self) -> usize {
        self.pipe.budgeted_steps()
    }

    #[inline]
    fn start(&mut self, input: Self::Input, state: &mut Self::State) {
        self.pipe.start(input, state);
    }

    #[inline(always)]
    fn step(&mut self, state: &mut Self::State) -> Step {
        let step = self.pipe.step(state);
        self.sink_done(step)
    }

    #[inline(always)]
    fn plain(&self) -> Option<P::Tally> {
        self.pipe.plain()
    }

    #[inline(always)]
    fn start_plain(&mut self, tally: &mut P::Tally, input: Self::Input, state: &mut Self::State) {
        self.pipe.start_plain(tally, input, state);
    }

    #[inline(always)]
    fn step_plain(&mut self, tally: &mut P::Tally, state: &mut Self::State) -> Step {
        let step = self.pipe.step_plain(tally, state);
        self.sink_done(step)
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
    fn lookahead(&self, input: Self::Input) {
        self.pipe.lookahead(input);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{run, Technique, TuningParams};
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

    impl PipelineOp for Triple {
        type Input = u64;
        type Output = u64;
        type State = TripleState;
        type Tally = ();

        fn budgeted_steps(&self) -> usize {
            self.steps + 1
        }

        fn start(&mut self, input: u64, state: &mut TripleState) {
            state.v = input;
            state.left = self.steps;
        }

        fn step(&mut self, state: &mut TripleState) -> StageStep<u64> {
            if state.left > 0 {
                state.left -= 1;
                StageStep::Continue
            } else {
                StageStep::Emit(state.v * 3)
            }
        }
    }

    /// Route that keeps even values only.
    struct EvenOnly;

    impl Route<u64, u64> for EvenOnly {
        fn route(&mut self, item: u64) -> Option<u64> {
            (item % 2 == 0).then_some(item)
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
            let stats = run(technique, &mut op, &inputs, TuningParams::with_in_flight(6));
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
        assert_eq!(pipe.budgeted_steps(), 2 + 2 + 2);
        let mut op = Fused::new(pipe, Collect::default());
        run(Technique::Amac, &mut op, &inputs, TuningParams::default());
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
        let stats = run(Technique::Amac, &mut op, &inputs, TuningParams::default());
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
        let stats = run(Technique::Amac, &mut op, &inputs, TuningParams::default());
        // Prefetches: 1 (start) + 3 (up Continues) + 1 (handoff) + 2 (down).
        assert_eq!(stats.prefetches, 7);
        // Stages: the above plus the terminal Emit step.
        assert_eq!(stats.stages, 8);
    }
}
