//! One executor call's view of its op, in the mode chosen at the call's
//! start (see "One mode per call" in the [module docs](super)).

use super::{EngineStats, Hooks, LookupOp, Step};

/// The op as one executor call drives it. `PLAIN` is what
/// [`LookupOp::plain`] answered when the call began; `tally` is the op's
/// loop-carried scalars on a plain call, a local of the executor until
/// [`flush`](Call::flush) settles it into the op. Every method is
/// `#[inline(always)]`, so an executor body generic over `PLAIN` is two
/// loops, each with its mode fixed.
pub(crate) struct Call<'o, O: LookupOp, const PLAIN: bool> {
    op: &'o mut O,
    tally: O::Tally,
}

impl<'o, O: LookupOp> Call<'o, O, true> {
    /// A plain call over the tally `op.plain()` returned.
    #[inline(always)]
    pub(crate) fn plain(op: &'o mut O, tally: O::Tally) -> Self {
        Call { op, tally }
    }
}

impl<'o, O: LookupOp> Call<'o, O, false> {
    /// A call that runs the op's own `start`/`step`.
    #[inline(always)]
    pub(crate) fn direct(op: &'o mut O) -> Self {
        Call { op, tally: O::Tally::default() }
    }
}

impl<O: LookupOp, const PLAIN: bool> Call<'_, O, PLAIN> {
    #[inline(always)]
    pub(crate) fn start(&mut self, input: O::Input, state: &mut O::State) {
        if PLAIN {
            self.op.start_plain(&mut self.tally, input, state);
        } else {
            self.op.start(input, state);
        }
    }

    #[inline(always)]
    pub(crate) fn step(&mut self, state: &mut O::State) -> Step {
        if PLAIN {
            self.op.step_plain(&mut self.tally, state)
        } else {
            self.op.step(state)
        }
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

    #[inline(always)]
    pub(crate) fn budgeted_steps(&self) -> usize {
        self.op.budgeted_steps()
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
