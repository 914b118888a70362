//! One executor call's view of its op, in the mode chosen at the call's
//! start (see "One mode per call" in the [module docs](super)), and the
//! engine's one out-of-line metered stage pair.

use super::{EngineStats, Hooks, LookupOp, Step};

/// The mode of a call on `op`, asked once at its start: the op's scalars
/// as they stand if its context is plain, `None` if it is metered.
#[inline(always)]
pub(crate) fn mode<O: LookupOp>(op: &mut O) -> Option<O::Tally> {
    let plain = op.ctx().plain();
    plain.then(|| op.tally())
}

/// Stage 0 of `op`'s lookup for `input` in mode `PLAIN`: a plain stage
/// runs inline over `tally`, a metered one through the out-of-line pair
/// unless `op` [routes](LookupOp::ROUTES) it (then `tally` is unused).
#[inline(always)]
pub fn start<O: LookupOp, const PLAIN: bool>(
    op: &mut O,
    tally: &mut O::Tally,
    input: O::Input,
    state: &mut O::State,
) {
    if PLAIN || O::ROUTES {
        op.start::<PLAIN>(tally, input, state);
    } else {
        metered_start(op, input, state);
    }
}

/// The next stage of the lookup in `state`, dispatched like [`start`].
#[inline(always)]
pub fn step<O: LookupOp, const PLAIN: bool>(
    op: &mut O,
    tally: &mut O::Tally,
    state: &mut O::State,
) -> Step<O::Output> {
    if PLAIN || O::ROUTES {
        op.step::<PLAIN>(tally, state)
    } else {
        metered_step(op, state)
    }
}

/// A metered stage 0, out of line: the op's scalars as they stand, the
/// stage, and the scalars settled back.
#[inline(never)]
fn metered_start<O: LookupOp>(op: &mut O, input: O::Input, state: &mut O::State) {
    let mut tally = op.tally();
    op.start::<false>(&mut tally, input, state);
    op.settle(tally);
}

/// A metered later stage, out of line, like [`metered_start`].
#[inline(never)]
fn metered_step<O: LookupOp>(op: &mut O, state: &mut O::State) -> Step<O::Output> {
    let mut tally = op.tally();
    let step = op.step::<false>(&mut tally, state);
    op.settle(tally);
    step
}

/// The op as one executor call drives it. `PLAIN` is what the op's
/// context answered ([`Hooks::plain`]) when the call began; `tally` is
/// the op's loop-carried scalars on a plain call, a local of the executor
/// until [`flush`](Call::flush) settles it into the op. Every method is
/// `#[inline(always)]`, so an executor body generic over `PLAIN` is two
/// loops, each with its mode fixed.
pub(crate) struct Call<'o, O: LookupOp, const PLAIN: bool> {
    op: &'o mut O,
    tally: O::Tally,
}

impl<'o, O: LookupOp> Call<'o, O, true> {
    /// A plain call over the tally [`mode`] returned.
    #[inline(always)]
    pub(crate) fn plain(op: &'o mut O, tally: O::Tally) -> Self {
        Call { op, tally }
    }
}

impl<'o, O: LookupOp> Call<'o, O, false> {
    /// A call whose every stage is metered.
    #[inline(always)]
    pub(crate) fn metered(op: &'o mut O) -> Self {
        Call { op, tally: O::Tally::default() }
    }
}

impl<O: LookupOp, const PLAIN: bool> Call<'_, O, PLAIN> {
    #[inline(always)]
    pub(crate) fn start(&mut self, input: O::Input, state: &mut O::State) {
        start::<O, PLAIN>(self.op, &mut self.tally, input, state);
    }

    #[inline(always)]
    pub(crate) fn step(&mut self, state: &mut O::State) -> Step<O::Output> {
        step::<O, PLAIN>(self.op, &mut self.tally, state)
    }

    /// One tick for a visit to an idle slot; a plain context keeps no
    /// time.
    #[inline(always)]
    pub(crate) fn idle(&mut self) {
        if !PLAIN {
            self.op.ctx().idle(1);
        }
    }

    /// Seal the open commit group; a plain context coalesces nothing.
    #[inline(always)]
    pub(crate) fn commit_group(&mut self) {
        if !PLAIN {
            self.op.ctx().commit_group();
        }
    }

    /// On a plain call, offer `inputs` to the op's
    /// [batch stage](LookupOp::batch) in a window of width `m`. If the op
    /// takes it, count a lookup and a stage per input and a stage and a
    /// prefetch per node into `stats`, as the window's loop would, and
    /// return `true`: the call is then over, and the caller flushes it.
    #[inline(always)]
    pub(crate) fn batch(&mut self, inputs: &[O::Input], m: usize, stats: &mut EngineStats) -> bool {
        let Some(nodes) = PLAIN.then(|| self.op.batch(&mut self.tally, inputs, m)).flatten() else {
            return false;
        };
        let lookups = inputs.len() as u64;
        stats.lookups += lookups;
        stats.stages += lookups + nodes;
        stats.prefetches += self.prefetch_gate() * nodes;
        true
    }

    /// [`Hooks::issues_prefetches`] as a count per prefetching stage.
    #[inline(always)]
    pub(crate) fn prefetch_gate(&mut self) -> u64 {
        self.op.ctx().issues_prefetches() as u64
    }

    /// [`LookupOp::looks_ahead`], asked once per call.
    #[inline(always)]
    pub(crate) fn looks_ahead(&self) -> bool {
        self.op.looks_ahead()
    }

    /// [`LookupOp::lookahead`]: the same hint in either mode.
    #[inline(always)]
    pub(crate) fn lookahead(&self, input: O::Input) {
        self.op.lookahead(input);
    }

    /// End the call: settle the tally (plain calls), then drain the op's
    /// ledger into `stats`.
    #[inline(always)]
    pub(crate) fn flush(self, stats: &mut EngineStats) {
        if PLAIN {
            self.op.settle(self.tally);
        }
        self.op.ctx().flush(stats);
    }
}
