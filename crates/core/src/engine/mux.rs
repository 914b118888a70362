//! Cross-query window sharing: many queries' lookups in **one** in-flight
//! window.
//!
//! AMAC hides memory latency by keeping `M` lookups in flight — and
//! nothing in that argument cares *which query* a lookup belongs to
//! (§3: the window entries are independent state machines). The AMAU
//! line of follow-up work generalizes exactly this: one asynchronous
//! access engine multiplexing many independent request streams. [`Mux`]
//! is that idea as a lane table: one inner [`LookupOp`] per active query
//! (a *lane*), all sharing one persistent
//! [`AmacSession`](super::AmacSession) window. A query's quantum is one
//! [`feed_lane`](super::AmacSession::feed_lane) call: the lane's own
//! stages run in the window loop, and a slot another lane still holds
//! takes one routed stage through the mux.
//! [`drain_lanes`](super::AmacSession::drain_lanes) routes every slot.
//! Those two calls are the only way to run a mux: it is not an op itself.
//!
//! Why share instead of giving each query its own window? A query whose
//! remaining input is smaller than `M` cannot fill a private window —
//! its tail runs at memory latency. In a shared window those empty slots
//! are immediately refilled by *other* queries' lookups, so the engine
//! sustains `M`-deep miss-level parallelism as long as **any** query has
//! work. The flip side (cache interference between tenants, one tenant's
//! long chains occupying slots) is policy, not mechanism, and lives in
//! `amac_server`'s scheduler; the mechanism here stays policy-free.
//!
//! # Per-lane accounting
//!
//! Tenant-billing counters must be exact, not estimated. Two sources feed
//! the per-lane [`EngineStats`] ledger:
//!
//! * lifecycle counters (`stages`, `lookups`, `latch_retries`,
//!   `prefetches`) — a routed stage bills its lane as it runs; the fed
//!   lane's are settled once per feed, as the feed's counts less what it
//!   routed. A ledger ([`Mux::observed`]) is therefore current as of the
//!   last feed or drain. Prefetches are counted with each lane's own gate
//!   ([`Hooks::issues_prefetches`]), in its ledger and in the global stats
//!   alike;
//! * op-observed counters (`nodes_visited`, `tag_rejects`, and the
//!   cost-model ticks `sim_cycles`/`sim_stalls`) — each lane has its
//!   **own** inner op, so everything that op accumulated belongs to its
//!   lane. A feed's flush settles the fed lane's tally into its op, then
//!   drains the fed lane and every lane it routed to into their ledgers
//!   *and* forwards the same deltas to the global stats (no other lane
//!   ran; a drain flushes them all), preserving the drain-and-reset
//!   contract that keeps counters exact across morsel reuse.
//!
//! The invariant (asserted in tests): summing lane ledgers reproduces the
//! window's global totals exactly, field for field.
//!
//! # Window time
//!
//! Lane cost-model clocks are kept in lock-step with a window-wide
//! simulated time (`seq`): one tick per stage and per idle visit, lifted
//! to a clocked lane's `now` after each of its stages. Before a clocked
//! lane's stage, its clock is advanced to `seq`, so one lane's stages
//! count toward every other lane's prefetch distances — the cross-query
//! hiding the shared window exists to provide. A lane whose context keeps
//! no time ([`Hooks::keeps_time`], sampled at [`Mux::add`]) skips both
//! calls. A plain lane's feed does not touch `seq` per stage: the call
//! counts its ticks and adds them before its next routed stage and at its
//! end, so every clocked stage reads the time it would have read had each
//! tick been added as it ran.

use super::{call, EngineStats, Hooks, LookupOp, Step};

/// Per-lookup state: the owning lane plus the inner op's state.
#[derive(Debug, Default)]
pub struct MuxState<S> {
    lane: u32,
    inner: S,
}

/// One lane: its inner op and everything a routed stage reads or bills,
/// in one record so a stage touches one bounds-checked slot.
struct Lane<O: LookupOp> {
    /// `None` once [`Mux::remove`]d (the slot waits for reuse), and while
    /// the lane is being fed.
    op: Option<O>,
    /// The lane's accounting ledger (see the module docs).
    led: EngineStats,
    /// Flagged by [`Mux::cancel`]: in-flight lookups retire cooperatively
    /// (the next routed `step` short-circuits to [`Step::Done`] without
    /// touching the inner op), so a poisoned or abandoned query drains out
    /// of the shared window in at most one rotation per slot while every
    /// other lane keeps running.
    cancelled: bool,
    /// The op's [`Hooks::issues_prefetches`] gate, sampled at
    /// [`Mux::add`] (an op's gate is fixed at construction).
    prefetches: bool,
    /// The op's [`Hooks::keeps_time`], sampled at [`Mux::add`] likewise:
    /// only a clocked lane is synchronized with window time.
    clocked: bool,
    /// The lane's mode, picked at [`Mux::add`] and again after every
    /// flush ([`Hooks::plain`]): `Some` holds a plain lane's tally,
    /// which its routed stages count into and every flush settles first.
    tally: Option<O::Tally>,
}

impl<O: LookupOp> Lane<O> {
    /// Settle a plain lane's tally into its op and demote the lane to
    /// `start`/`step` until its next flush picks the mode again.
    fn settle(&mut self) {
        if let (Some(op), Some(tally)) = (self.op.as_mut(), self.tally.take()) {
            op.settle(tally);
        }
    }

    /// This lane's part of a flush (see [`flush_op`]).
    fn flush(&mut self, stats: &mut EngineStats) {
        let tally = self.tally.take();
        if let Some(op) = self.op.as_mut() {
            self.tally = flush_op(op, tally, &mut self.led, stats);
        }
    }
}

/// One lane's flush, written once for a lane in the table and a fed one:
/// settle a plain lane's `tally` into `op`, drain the op's context into
/// the lane ledger `led` and into `stats`, and return the lane's mode
/// picked afresh (a tracer may have come or gone).
fn flush_op<O: LookupOp>(
    op: &mut O,
    tally: Option<O::Tally>,
    led: &mut EngineStats,
    stats: &mut EngineStats,
) -> Option<O::Tally> {
    if let Some(tally) = tally {
        op.settle(tally);
    }
    let mut delta = EngineStats::default();
    op.ctx().flush(&mut delta);
    led.merge(&delta);
    stats.merge(&delta);
    call::mode(op)
}

/// A multiplexer: one inner [`LookupOp`] per active query lane, all
/// sharing one [`AmacSession`](super::AmacSession) window.
///
/// Lanes are added with [`add`](Mux::add) and removed with
/// [`remove`](Mux::remove) (only once all of the lane's lookups have
/// retired — the caller tracks that via the ledger's `lookups` count).
/// Lane ids are reused, so a long-lived serving window does not grow
/// without bound as queries come and go.
pub struct Mux<O: LookupOp> {
    lanes: Vec<Lane<O>>,
    /// The shared window's simulated time (see "Window time" in the
    /// [module docs](self)).
    seq: u64,
    /// Cancelled retirements not yet folded into *global* stats: lane
    /// ledgers count `cancelled_lookups` live, but the window only sees a
    /// plain `Done`, so the global counter is reconciled at the next
    /// flush — keeping the lane-sum == global invariant exact at every
    /// flush boundary.
    pending_cancelled: u64,
    /// Prefetches routed stages billed to their lanes, not yet folded into
    /// the global stats likewise: the window counts none itself, so every
    /// lane's are counted with its own gate.
    pending_prefetches: u64,
}

impl<O: LookupOp> Default for Mux<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: LookupOp> Mux<O> {
    /// An empty multiplexer.
    pub fn new() -> Self {
        Mux { lanes: Vec::new(), seq: 0, pending_cancelled: 0, pending_prefetches: 0 }
    }

    /// Install `op` on a free lane and return its id (vacant slots are
    /// reused before the lane table grows).
    pub fn add(&mut self, mut op: O) -> u32 {
        let (prefetches, clocked) = {
            let cx = op.ctx();
            (cx.issues_prefetches(), cx.keeps_time())
        };
        let fresh = Lane {
            tally: call::mode(&mut op),
            op: Some(op),
            led: EngineStats::default(),
            cancelled: false,
            prefetches,
            clocked,
        };
        if let Some(i) = self.lanes.iter().position(|l| l.op.is_none()) {
            self.lanes[i] = fresh;
            i as u32
        } else {
            self.lanes.push(fresh);
            (self.lanes.len() - 1) as u32
        }
    }

    /// Remove a lane, returning its inner op (with whatever outputs it
    /// materialized) and its final ledger. The caller must ensure none of
    /// the lane's lookups are still in flight — the ledger's `lookups`
    /// equalling the lane's submitted count is exactly that proof.
    ///
    /// Panics on a vacant lane (a serving-layer bookkeeping bug).
    pub fn remove(&mut self, lane: u32) -> (O, EngineStats) {
        let l = &mut self.lanes[lane as usize];
        l.settle();
        let op = l.op.take().expect("remove of vacant mux lane");
        (op, core::mem::take(&mut l.led))
    }

    /// Cooperatively cancel a lane: every in-flight lookup of this lane
    /// retires (as `cancelled_lookups`) the next time the window visits
    /// its slot, without executing any remaining stages of the inner op.
    /// The lane stays installed — its op, outputs-so-far and ledger remain
    /// readable — until [`remove`](Mux::remove), and takes no new inputs.
    /// Idempotent; panics on a vacant lane.
    pub fn cancel(&mut self, lane: u32) {
        let l = &mut self.lanes[lane as usize];
        assert!(l.op.is_some(), "cancel of vacant mux lane");
        l.cancelled = true;
    }

    /// The lane's inner op (panics on a vacant lane). A plain lane's
    /// accumulators are current as of the last flush.
    pub fn lane(&self, lane: u32) -> &O {
        self.lanes[lane as usize].op.as_ref().expect("vacant mux lane")
    }

    /// The lane's accounting ledger, current as of the last feed or
    /// drain, i.e. exact between calls (see "Per-lane accounting" in the
    /// [module docs](self)).
    pub fn observed(&self, lane: u32) -> &EngineStats {
        &self.lanes[lane as usize].led
    }

    /// The shared window's simulated time.
    pub fn now(&self) -> u64 {
        self.seq
    }

    /// Lift window time to `now` if it is behind (a serving layer charging
    /// a wait to the clock); every lane is caught up lazily at its next
    /// stage.
    pub fn advance_to(&mut self, now: u64) {
        self.seq = self.seq.max(now);
    }

    /// One stage of the lookup in `state`, run by the lane that holds it
    /// and billed to that lane: a clocked lane is caught up to window time
    /// first and lifts it after; any other stage ticks it once.
    #[inline(always)]
    pub(crate) fn step(&mut self, state: &mut MuxState<O::State>) -> Step<O::Output> {
        let l = &mut self.lanes[state.lane as usize];
        if l.cancelled {
            // Cooperative cancellation: retire the slot without running
            // the inner op. The visit still costs a window tick (the
            // window spent a rotation on it), and the retirement is
            // billed to the lane as a cancelled lookup; the window sees a
            // plain `Done` (its global `cancelled_lookups` is reconciled
            // at the next flush via `pending_cancelled`).
            self.seq += 1;
            l.led.stages += 1;
            l.led.lookups += 1;
            l.led.cancelled_lookups += 1;
            self.pending_cancelled += 1;
            return Step::Done;
        }
        let op = l.op.as_mut().expect("step routed to vacant lane");
        let r = if l.clocked {
            op.ctx().advance_to(self.seq);
            let r = call::step::<O, false>(op, &mut Default::default(), &mut state.inner);
            self.seq = (self.seq + 1).max(op.ctx().now());
            r
        } else {
            let r = match &mut l.tally {
                Some(tally) => call::step::<O, true>(op, tally, &mut state.inner),
                None => call::step::<O, false>(op, &mut Default::default(), &mut state.inner),
            };
            debug_assert_eq!(op.ctx().now(), 0, "a lane that keeps no time has a clock");
            self.seq += 1;
            r
        };
        let pf = l.prefetches as u64;
        let led = &mut l.led;
        match r {
            Step::Continue => {
                led.stages += 1;
                led.prefetches += pf;
                self.pending_prefetches += pf;
            }
            Step::Blocked => led.latch_retries += 1,
            Step::Done | Step::Emit(_) => {
                led.stages += 1;
                led.lookups += 1;
            }
            Step::Failed => {
                led.stages += 1;
                led.lookups += 1;
                led.failed_lookups += 1;
            }
        }
        r
    }

    /// The lane's op out of the lane table for one feed, a plain lane's
    /// tally settled into it first. Panics on a vacant or cancelled lane.
    pub(crate) fn take(&mut self, lane: u32) -> O {
        let l = &mut self.lanes[lane as usize];
        assert!(!l.cancelled, "feed of a cancelled mux lane");
        l.settle();
        l.op.take().expect("feed of a vacant mux lane")
    }

    /// Reinstall the op [`take`](Mux::take) took out.
    pub(crate) fn put_back(&mut self, lane: u32, op: O) {
        self.lanes[lane as usize].op = Some(op);
    }
}

/// One window call's view of a [`Mux`]: a feed of one lane's inputs
/// ([`AmacSession::feed_lane`](super::AmacSession::feed_lane)), or a drain
/// of every lane ([`AmacSession::drain_lanes`](super::AmacSession::drain_lanes)).
///
/// A feed holds the fed lane's op, out of the lane table for the call, and
/// runs that lane's stages itself: a plain lane's over the call's tally,
/// which also counts the lane's window ticks, a metered lane's as metered
/// stages, synced with window time stage by stage if it keeps time. A
/// slot still held by another lane goes through
/// [`Mux::step`] out of line; a drain, which feeds no lane, runs
/// [`Mux::step`] inline for every slot. The fed lane's lifecycle counters
/// are settled at the flush, from the feed's counts less what was
/// routed.
pub(crate) struct LaneView<'a, O: LookupOp> {
    mux: &'a mut Mux<O>,
    /// The fed lane; `u32::MAX`, which no slot holds, on a drain.
    lane: u32,
    /// The fed lane's op; `None` on a drain.
    op: Option<&'a mut O>,
    /// Whether the fed lane keeps time.
    clocked: bool,
    /// Whether the fed lane's context is plain; never on a drain.
    plain: bool,
    /// What the call routed to other lanes: `stages`, `lookups`,
    /// `failed_lookups` and `latch_retries`.
    routed: EngineStats,
    /// The lanes it routed to, one bit per lane id modulo 64.
    touched: u64,
}

impl<'a, O: LookupOp> LaneView<'a, O> {
    /// A feed of `lane`, whose op [`Mux::take`] returned.
    pub(crate) fn feeding(mux: &'a mut Mux<O>, lane: u32, op: &'a mut O) -> Self {
        let clocked = mux.lanes[lane as usize].clocked;
        let plain = op.ctx().plain();
        let routed = EngineStats::default();
        LaneView { mux, lane, op: Some(op), clocked, plain, routed, touched: 0 }
    }

    /// A drain of every lane.
    pub(crate) fn draining(mux: &'a mut Mux<O>) -> Self {
        LaneView {
            mux,
            lane: u32::MAX,
            op: None,
            clocked: false,
            plain: false,
            routed: EngineStats::default(),
            touched: 0,
        }
    }

    #[inline(always)]
    fn op(&mut self) -> &mut O {
        self.op.as_deref_mut().expect("a drain feeds no lane")
    }

    /// Before a metered stage of the fed lane: a clocked lane is caught up
    /// to window time, as [`Mux::step`] does.
    #[inline(always)]
    fn sync_before(&mut self) {
        if self.clocked {
            let seq = self.mux.seq;
            self.op().ctx().advance_to(seq);
        }
    }

    /// After a metered stage of the fed lane: the stage ticks window time,
    /// and a clocked lane lifts it to its clock.
    #[inline(always)]
    fn sync_after(&mut self) {
        let now = if self.clocked { self.op().ctx().now() } else { 0 };
        self.mux.seq = (self.mux.seq + 1).max(now);
    }

    /// A stage of another lane's lookup, through the mux, which bills that
    /// lane; window time first counts the `ticks` a plain fed lane ran
    /// since the last count, and the call counts the stage so the fed
    /// lane's share can be derived.
    #[inline(never)]
    fn step_routed(&mut self, ticks: u64, state: &mut MuxState<O::State>) -> Step<O::Output> {
        self.mux.seq += ticks;
        self.touched |= 1 << (state.lane % 64);
        let r = self.mux.step(state);
        let routed = &mut self.routed;
        match r {
            Step::Continue => routed.stages += 1,
            Step::Blocked => routed.latch_retries += 1,
            Step::Done | Step::Failed | Step::Emit(_) => {
                routed.stages += 1;
                routed.lookups += 1;
                routed.failed_lookups += matches!(r, Step::Failed) as u64;
            }
        }
        r
    }
}

/// A feed of a plain lane is a plain call, whose tally is the lane's and
/// the count of its window ticks not yet added to `seq`; a feed of a
/// metered lane and a drain are metered calls. The view routes every
/// stage: the fed lane's own to its op, the others to the mux.
impl<O: LookupOp> LookupOp for LaneView<'_, O> {
    type Input = O::Input;
    type State = MuxState<O::State>;
    type Tally = (O::Tally, u64);
    type Output = O::Output;
    const ROUTES: bool = true;

    #[inline(always)]
    fn start<const PLAIN: bool>(
        &mut self,
        tally: &mut Self::Tally,
        input: O::Input,
        state: &mut Self::State,
    ) {
        state.lane = self.lane;
        if PLAIN {
            tally.1 += 1;
        } else {
            self.sync_before();
        }
        call::start::<O, PLAIN>(self.op(), &mut tally.0, input, &mut state.inner);
        if !PLAIN {
            self.sync_after();
        }
    }

    #[inline(always)]
    fn step<const PLAIN: bool>(
        &mut self,
        tally: &mut Self::Tally,
        state: &mut Self::State,
    ) -> Step<O::Output> {
        if state.lane == self.lane {
            if PLAIN {
                tally.1 += 1;
                return call::step::<O, true>(self.op(), &mut tally.0, &mut state.inner);
            }
            self.sync_before();
            let r = call::step::<O, false>(self.op(), &mut tally.0, &mut state.inner);
            self.sync_after();
            r
        } else if PLAIN {
            self.step_routed(core::mem::take(&mut tally.1), state)
        } else if self.op.is_some() {
            self.step_routed(0, state)
        } else {
            self.mux.step(state)
        }
    }

    /// Asked of a plain call only, which a drain never is.
    #[inline(always)]
    fn tally(&self) -> Self::Tally {
        (self.op.as_deref().expect("a drain feeds no lane").tally(), 0)
    }

    #[inline(always)]
    fn settle(&mut self, (tally, ticks): Self::Tally) {
        self.op().settle(tally);
        self.mux.seq += ticks;
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        self
    }

    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        self.op.as_ref().is_some_and(|op| op.looks_ahead())
    }

    #[inline(always)]
    fn lookahead(&self, input: O::Input) {
        if let Some(op) = &self.op {
            op.lookahead(input);
        }
    }
}

/// A window call uses the mode, the idle tick, the prefetch gate and the
/// flush.
impl<O: LookupOp> Hooks for LaneView<'_, O> {
    /// The fed lane's mode; a drain is metered.
    fn plain(&self) -> bool {
        self.plain
    }

    /// A drain's visit to an idle slot ticks window time.
    fn idle(&mut self, ticks: u64) {
        self.mux.seq += ticks;
    }

    /// Off: the view counts prefetches with each lane's own gate, at the
    /// flush.
    fn issues_prefetches(&self) -> bool {
        false
    }

    /// At a feed's end `stats` holds this feed's counts only (the view's
    /// caller flushes into fresh stats): less what was routed, they are
    /// the fed lane's. Every lane's commit group is sealed, and the fed
    /// lane and the lanes routed to are flushed; no other lane ran. A
    /// drain flushes every lane.
    fn flush(&mut self, stats: &mut EngineStats) {
        let mux = &mut *self.mux;
        if let Some(op) = self.op.as_deref_mut() {
            op.ctx().commit_group();
            let fed = self.lane as usize;
            let r = &self.routed;
            let l = &mut mux.lanes[fed];
            let stages = stats.stages - r.stages;
            let lookups = stats.lookups - r.lookups;
            l.led.stages += stages;
            l.led.lookups += lookups;
            l.led.failed_lookups += stats.failed_lookups - r.failed_lookups;
            l.led.latch_retries += stats.latch_retries - r.latch_retries;
            let prefetches = l.prefetches as u64 * (stages - lookups);
            l.led.prefetches += prefetches;
            stats.prefetches += prefetches;
            l.tally = flush_op(op, None, &mut l.led, stats);
            // The fed lane's op is out of the table: it is sealed above.
            for (i, l) in mux.lanes.iter_mut().enumerate() {
                if let Some(op) = l.op.as_mut() {
                    op.ctx().commit_group();
                }
                if i != fed && self.touched >> (i % 64) & 1 == 1 {
                    l.flush(stats);
                }
            }
        } else {
            for l in &mut mux.lanes {
                l.flush(stats);
            }
        }
        stats.cancelled_lookups += core::mem::take(&mut mux.pending_cancelled);
        stats.prefetches += core::mem::take(&mut mux.pending_prefetches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::{ChainOp as TestChainOp, ChainState, LatchedOp, LatchedState};
    use crate::engine::{run_amac, AmacSession, TuningParams};

    fn chains(n: usize, salt: usize) -> Vec<usize> {
        (0..n).map(|i| 1 + (i * 31 + salt) % 7).collect()
    }

    /// Feed each lane its inputs in round-robin quanta of `q` on a fresh
    /// `m`-wide window, then drain it; returns the global stats.
    fn feed_round_robin<O: LookupOp>(
        mux: &mut Mux<O>,
        lanes: &[(u32, &[O::Input])],
        q: usize,
        m: usize,
    ) -> EngineStats {
        let mut window = AmacSession::new(m);
        let mut stats = EngineStats::default();
        let rounds = lanes.iter().map(|(_, inputs)| inputs.len().div_ceil(q)).max().unwrap_or(0);
        for round in 0..rounds {
            for &(lane, inputs) in lanes {
                let quantum = inputs.iter().skip(round * q).take(q).copied().collect::<Vec<_>>();
                window.feed_lane(mux, lane, &quantum, &mut stats);
            }
        }
        assert!(window.drain_lanes(mux, &mut stats, usize::MAX));
        stats
    }

    #[test]
    fn lane_feeds_match_solo_runs() {
        let ch = chains(4_000, 0);
        let qa: Vec<usize> = (0..2_000).collect();
        let qb: Vec<usize> = (2_000..4_000).rev().collect();
        let params = TuningParams::default();
        let mut solo_a = TestChainOp::new(&ch);
        let sa = run_amac(&mut solo_a, &qa, params.in_flight);
        let mut solo_b = TestChainOp::new(&ch);
        let sb = run_amac(&mut solo_b, &qb, params.in_flight);

        let mut mux = Mux::new();
        let la = mux.add(TestChainOp::new(&ch));
        let lb = mux.add(TestChainOp::new(&ch));
        let global = feed_round_robin(&mut mux, &[(la, &qa), (lb, &qb)], 16, params.in_flight);

        let (oa, leda) = mux.remove(la);
        let (ob, ledb) = mux.remove(lb);
        assert_eq!(oa.outputs, solo_a.outputs, "lane A results");
        assert_eq!(ob.outputs, solo_b.outputs, "lane B results");
        assert_eq!(leda.lookups, sa.lookups, "lane A lookups");
        assert_eq!(ledb.lookups, sb.lookups, "lane B lookups");
        assert_eq!(leda.stages, sa.stages, "sharing must not change lane A's stages");
        assert_eq!(ledb.stages, sb.stages, "lane B stages");
        let mut sum = leda;
        sum.merge(&ledb);
        assert_eq!(sum, global, "global stats are the lane sum");
    }

    #[test]
    fn lane_ids_are_reused_after_remove() {
        let ch = chains(64, 1);
        let mut mux: Mux<TestChainOp> = Mux::new();
        let a = mux.add(TestChainOp::new(&ch));
        let b = mux.add(TestChainOp::new(&ch));
        assert_eq!((a, b), (0, 1));
        feed_round_robin(&mut mux, &[(a, &[1, 2, 3])], 2, 4);
        mux.remove(a);
        let c = mux.add(TestChainOp::new(&ch));
        assert_eq!(c, 0, "vacant lane 0 must be reused");
        assert_eq!(mux.add(TestChainOp::new(&ch)), 2, "no lane is vacant: the table grows");
        // The recycled lane's ledger starts clean.
        assert_eq!(*mux.observed(c), EngineStats::default());
    }

    #[test]
    fn cancelled_lane_retires_exactly_and_ledgers_still_sum() {
        const M: usize = 10;
        let ch = chains(2_000, 2);
        let qa: Vec<usize> = (0..1_000).collect();
        let qb: Vec<usize> = (1_000..2_000).collect();
        // Reference: lane B solo, untouched by A's cancellation.
        let mut solo_b = TestChainOp::new(&ch);
        let sb = run_amac(&mut solo_b, &qb, TuningParams::default().in_flight);

        let mut mux = Mux::new();
        let la = mux.add(TestChainOp::new(&ch));
        let lb = mux.add(TestChainOp::new(&ch));
        let mut window = AmacSession::new(M);
        let mut global = EngineStats::default();
        // A is fed its first quantum only, then cancelled with lookups in
        // flight; B's feeds and the drain retire them.
        window.feed_lane(&mut mux, la, &qa[..16], &mut global);
        mux.cancel(la);
        for quantum in qb.chunks(16) {
            window.feed_lane(&mut mux, lb, quantum, &mut global);
        }
        assert!(window.drain_lanes(&mut mux, &mut global, usize::MAX));

        let (a, b) = (*mux.observed(la), *mux.observed(lb));
        // Every fed lookup retired exactly once; A's in flight as cancelled.
        assert_eq!(global.lookups, 16 + qb.len() as u64);
        assert_eq!(a.lookups, 16);
        assert!(a.cancelled_lookups > 0 && a.cancelled_lookups < 16, "{a:?}");
        assert_eq!(b.cancelled_lookups, 0);
        // Reconciliation: lane sums equal global totals, including the
        // cancelled subset folded in at flush.
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum, global);
        // The healthy lane is bit-identical to its solo run.
        let (ob, ledb) = mux.remove(lb);
        assert_eq!(ob.outputs, solo_b.outputs);
        assert_eq!(ledb.stages, sb.stages);
    }

    #[test]
    #[should_panic(expected = "feed of a cancelled mux lane")]
    fn a_cancelled_lane_takes_no_inputs() {
        let ch = chains(8, 3);
        let mut mux = Mux::new();
        let lane = mux.add(TestChainOp::new(&ch));
        mux.cancel(lane);
        AmacSession::new(4).feed_lane(&mut mux, lane, &[0], &mut EngineStats::default());
    }

    /// A toy lane clock: keeps time if `keeps`, stalls `stall` ticks per
    /// stage of its op, and counts the mux's `advance_to` calls.
    #[derive(Default)]
    struct ToyClock {
        now: u64,
        stall: u64,
        keeps: bool,
        syncs: u64,
    }

    impl Hooks for ToyClock {
        fn plain(&self) -> bool {
            !self.keeps
        }
        fn now(&self) -> u64 {
            self.now
        }
        fn advance_to(&mut self, now: u64) {
            self.syncs += 1;
            self.now = self.now.max(now);
        }
        fn keeps_time(&self) -> bool {
            self.keeps
        }
    }

    #[test]
    fn plain_neighbours_skip_the_clock_sync_without_moving_window_time() {
        let ch = chains(3_000, 3);
        let inputs: Vec<Vec<usize>> =
            (0..3).map(|lane| (lane..3_000).step_by(3).collect()).collect();
        for quantum in [1, 9, 10, 37] {
            // (stalling lane's clock, window time, neighbour syncs, stages)
            let shared = |neighbour: fn(&[usize]) -> Mixed| {
                let mut mux = Mux::new();
                let lanes = [
                    mux.add(Mixed::stalling(&ch)),
                    mux.add(neighbour(&ch)),
                    mux.add(neighbour(&ch)),
                ];
                let fed: Vec<(u32, &[usize])> =
                    lanes.iter().zip(&inputs).map(|(&l, i)| (l, &i[..])).collect();
                let stats = feed_round_robin(&mut mux, &fed, quantum, 10);
                let syncs = mux.lane(lanes[1]).clock.syncs + mux.lane(lanes[2]).clock.syncs;
                (mux.lane(lanes[0]).clock.now, mux.now(), syncs, stats.stages)
            };
            let (clock, now, syncs, stages) = shared(Mixed::chain);
            let (metered, passive) = (shared(Mixed::metered), shared(Mixed::passive));
            assert_eq!(
                (syncs, metered.2),
                (0, 0),
                "quantum {quantum}: a lane without a clock synced"
            );
            assert_eq!((clock, now), (metered.0, metered.1), "quantum {quantum}: window time");
            assert_eq!((clock, now), (passive.0, passive.1), "quantum {quantum}: window time");
            assert!(passive.2 > 0, "quantum {quantum}: a passive clock is synced");
            assert!(now > stages && clock > stages, "quantum {quantum}: stalls lift window time");
        }
    }

    #[test]
    fn recycled_lane_resamples_the_clock_bit() {
        let ch = chains(600, 4);
        let inputs: Vec<usize> = (0..600).collect();
        let m = TuningParams::default().in_flight;
        let mut fresh = Mux::new();
        fresh.add(Mixed::stalling(&ch));
        feed_round_robin(&mut fresh, &[(0, &inputs)], inputs.len(), m);
        let want = (fresh.lane(0).clock.now, fresh.now());

        let mut mux = Mux::new();
        let plain = mux.add(Mixed::chain(&ch));
        feed_round_robin(&mut mux, &[(plain, &inputs)], inputs.len(), m);
        mux.remove(plain);
        // plain -> clocked: synced from its first stage on, so the run is the
        // fresh one shifted by the window time it joins at.
        let clocked = mux.add(Mixed::stalling(&ch));
        assert_eq!(clocked, plain, "the lane id is recycled");
        let at = mux.now();
        feed_round_robin(&mut mux, &[(clocked, &inputs)], inputs.len(), m);
        assert_eq!((mux.lane(clocked).clock.now - at, mux.now() - at), want);
        mux.remove(clocked);
        // clocked -> plain: never synced again.
        let plain = mux.add(Mixed::chain(&ch));
        assert_eq!(plain, clocked);
        feed_round_robin(&mut mux, &[(plain, &inputs)], inputs.len(), m);
        assert_eq!(mux.lane(plain).clock.syncs, 0);
    }

    #[test]
    fn single_lane_mux_is_transparent() {
        let ch = chains(1_000, 5);
        let inputs: Vec<usize> = (0..1_000).collect();
        let mut solo = TestChainOp::new(&ch);
        let want = run_amac(&mut solo, &inputs, TuningParams::default().in_flight);

        let mut mux = Mux::new();
        let lane = mux.add(TestChainOp::new(&ch));
        let got = feed_round_robin(&mut mux, &[(lane, &inputs)], inputs.len(), 10);
        assert_eq!(got, want, "a 1-lane mux must not change any counter");
        let (op, led) = mux.remove(lane);
        assert_eq!(op.outputs, solo.outputs);
        assert_eq!(led, want);
    }

    /// A test lane: a chain walk (plain or metered), a latched op, or a
    /// chain walk under a passive or stalling clock. It counts the
    /// stages it ran through its own `start`/`step`, and those it ran on
    /// itself at `home`: a lane-table slot's address, set by the test,
    /// where a routed stage runs and a fed lane's stage does not.
    struct Mixed {
        chain: TestChainOp,
        latch: Option<LatchedOp>,
        clock: ToyClock,
        own: u64,
        home: core::cell::Cell<usize>,
        at_home: u64,
    }

    #[derive(Default)]
    struct MixedState {
        chain: ChainState,
        latch: LatchedState,
    }

    impl Mixed {
        fn chain(ch: &[usize]) -> Self {
            let mut chain = TestChainOp::new(ch);
            chain.seen.plain = true;
            let (clock, home) = (ToyClock::default(), Default::default());
            Mixed { chain, latch: None, clock, own: 0, home, at_home: 0 }
        }
        fn metered(ch: &[usize]) -> Self {
            let mut op = Self::chain(ch);
            op.chain.seen.plain = false;
            op
        }
        fn latched(ch: &[usize]) -> Self {
            Mixed { latch: Some(LatchedOp::new(ch.len())), ..Self::chain(ch) }
        }
        fn passive(ch: &[usize]) -> Self {
            Mixed { clock: ToyClock { keeps: true, ..Default::default() }, ..Self::chain(ch) }
        }
        fn stalling(ch: &[usize]) -> Self {
            let clock = ToyClock { keeps: true, stall: 3, ..Default::default() };
            Mixed { clock, ..Self::chain(ch) }
        }
        fn completed(&self) -> &[usize] {
            self.latch.as_ref().map_or(&self.chain.completed, |l| &l.completed)
        }
        fn stage(&mut self) {
            self.clock.now += self.clock.stall;
            self.at_home += (self as *const Mixed as usize == self.home.get()) as u64;
        }
    }

    impl LookupOp for Mixed {
        type Input = usize;
        type State = MixedState;
        type Tally = ();
        type Output = core::convert::Infallible;
        fn start<const PLAIN: bool>(&mut self, _: &mut (), input: usize, state: &mut MixedState) {
            self.own += !PLAIN as u64;
            self.stage();
            match &mut self.latch {
                Some(l) => l.start::<PLAIN>(&mut (), input, &mut state.latch),
                None => self.chain.start::<PLAIN>(&mut (), input, &mut state.chain),
            }
        }
        fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut MixedState) -> Step {
            self.own += !PLAIN as u64;
            self.stage();
            match &mut self.latch {
                Some(l) => l.step::<PLAIN>(&mut (), &mut state.latch),
                None => self.chain.step::<PLAIN>(&mut (), &mut state.chain),
            }
        }
        fn ctx(&mut self) -> impl Hooks + '_ {
            (&mut self.chain.seen, Some(&mut self.clock))
        }
        fn looks_ahead(&self) -> bool {
            self.chain.looks_ahead()
        }
        fn lookahead(&self, input: usize) {
            self.chain.lookahead(input);
        }
    }

    /// The reference feed: `(lane, input)` pairs through the mux, every
    /// stage routed to its lane and synced as that lane's stage, and every
    /// lane sealed and flushed at each call's end.
    struct Tagged<'a, O: LookupOp>(&'a mut Mux<O>);

    impl<O: LookupOp> LookupOp for Tagged<'_, O> {
        type Input = (u32, O::Input);
        type State = MuxState<O::State>;
        type Tally = ();
        type Output = O::Output;
        fn start<const PLAIN: bool>(
            &mut self,
            _: &mut (),
            (lane, input): (u32, O::Input),
            state: &mut Self::State,
        ) {
            let mux = &mut *self.0;
            state.lane = lane;
            let l = &mut mux.lanes[lane as usize];
            let op = l.op.as_mut().expect("start routed to vacant lane");
            if l.clocked {
                op.ctx().advance_to(mux.seq);
                call::start::<O, false>(op, &mut Default::default(), input, &mut state.inner);
                mux.seq = (mux.seq + 1).max(op.ctx().now());
            } else {
                match &mut l.tally {
                    Some(tally) => call::start::<O, true>(op, tally, input, &mut state.inner),
                    None => call::start::<O, false>(
                        op,
                        &mut Default::default(),
                        input,
                        &mut state.inner,
                    ),
                }
                mux.seq += 1;
            }
            l.led.stages += 1;
            l.led.prefetches += l.prefetches as u64;
            mux.pending_prefetches += l.prefetches as u64;
        }
        fn step<const PLAIN: bool>(
            &mut self,
            _: &mut (),
            state: &mut Self::State,
        ) -> Step<O::Output> {
            self.0.step(state)
        }
        fn ctx(&mut self) -> impl Hooks + '_ {
            self
        }
    }

    impl<O: LookupOp> Hooks for Tagged<'_, O> {
        fn idle(&mut self, ticks: u64) {
            self.0.seq += ticks;
        }
        fn commit_group(&mut self) {
            for op in self.0.lanes.iter_mut().flat_map(|l| &mut l.op) {
                op.ctx().commit_group();
            }
        }
        fn flush(&mut self, stats: &mut EngineStats) {
            for l in &mut self.0.lanes {
                l.flush(stats);
            }
            stats.cancelled_lookups += core::mem::take(&mut self.0.pending_cancelled);
            stats.prefetches += core::mem::take(&mut self.0.pending_prefetches);
        }
        fn issues_prefetches(&self) -> bool {
            false
        }
    }

    /// Tag `inputs` for `lane`.
    fn tagged(lane: u32, inputs: &[usize]) -> Vec<(u32, usize)> {
        inputs.iter().map(|&i| (lane, i)).collect()
    }

    /// Lane feeds and the tagged reference agree in every global counter,
    /// lane ledger, window time and lane clock.
    fn assert_same(
        by_lane: &Mux<Mixed>,
        tagged: &Mux<Mixed>,
        stats: &EngineStats,
        want: &EngineStats,
        at: &str,
    ) {
        assert_eq!(stats, want, "{at}: global stats");
        assert_eq!(by_lane.now(), tagged.now(), "{at}: window time");
        let mut sum = EngineStats::default();
        for l in 0..by_lane.lanes.len() as u32 {
            assert_eq!(by_lane.observed(l), tagged.observed(l), "{at}: lane {l}");
            assert_eq!(by_lane.lane(l).clock.now, tagged.lane(l).clock.now, "{at}: lane {l} clock");
            sum.merge(by_lane.observed(l));
        }
        assert_eq!(sum, *stats, "{at}: lane ledgers vs global stats");
    }

    #[test]
    fn lane_feeds_match_tagged_feeds_in_the_same_quanta() {
        const M: usize = 10;
        let ch = chains(300, 6);
        let inputs: Vec<usize> = (0..ch.len()).collect();
        for timed in [false, true] {
            for quantum in [1, M - 1, M, 37] {
                let at = format!("timed {timed}, quantum {quantum}");
                let install = || {
                    let mut mux = Mux::new();
                    mux.add(Mixed::chain(&ch));
                    mux.add(Mixed::latched(&ch));
                    mux.add(Mixed::chain(&ch)); // cancelled after its fourth feed
                    if timed {
                        mux.add(Mixed::stalling(&ch));
                    }
                    mux
                };
                let (mut by_lane, mut tagged_mux) = (install(), install());
                let lanes = by_lane.lanes.len() as u32;
                let (mut window, mut reference) = (AmacSession::new(M), AmacSession::new(M));
                let (mut stats, mut want) = (EngineStats::default(), EngineStats::default());
                let (mut plain_feeds, mut cancelled) = (0, false);
                for (round, lo) in (0..inputs.len()).step_by(quantum).enumerate() {
                    let morsel = &inputs[lo..(lo + quantum).min(inputs.len())];
                    for lane in 0..lanes {
                        if lane == 2 && cancelled {
                            continue;
                        }
                        plain_feeds += by_lane.lanes[lane as usize].tally.is_some() as usize;
                        window.feed_lane(&mut by_lane, lane, morsel, &mut stats);
                        let chunk = tagged(lane, morsel);
                        reference.feed(&mut Tagged(&mut tagged_mux), &chunk, &mut want);
                        assert_same(&by_lane, &tagged_mux, &stats, &want, &at);
                        if (lane, round) == (2, 3) {
                            // Its lookups still in flight retire through
                            // the other lanes' feeds.
                            by_lane.cancel(2);
                            tagged_mux.cancel(2);
                            cancelled = true;
                        }
                    }
                }
                assert!(plain_feeds > 0, "{at}: plain feeds {plain_feeds}");
                assert!(window.drain_lanes(&mut by_lane, &mut stats, usize::MAX));
                reference.drain(&mut Tagged(&mut tagged_mux), &mut want);
                assert_same(&by_lane, &tagged_mux, &stats, &want, &format!("{at}: drained"));
                assert!(stats.latch_retries > 0, "{at}: the latched lane blocked");
                assert!(by_lane.observed(2).cancelled_lookups > 0, "{at}: cancelled in flight");
                for l in 0..lanes {
                    let (a, b) = (by_lane.lane(l), tagged_mux.lane(l));
                    assert_eq!(a.chain.outputs, b.chain.outputs, "{at}: lane {l} outputs");
                    assert_eq!(a.completed(), b.completed(), "{at}: lane {l} completion order");
                }
            }
        }
    }

    #[test]
    fn a_plain_lane_runs_its_own_stages_beside_a_stalling_clocked_lane() {
        const M: usize = 10;
        let ch = chains(400, 7);
        let inputs: Vec<usize> = (0..ch.len()).collect();
        // Stages of the clocked lane that the plain lane's feeds routed.
        let mut clocked_ran = 0;
        for quantum in [1, M - 1, M, 37] {
            let at = format!("quantum {quantum}");
            let install = || {
                let mut mux = Mux::new();
                mux.add(Mixed::chain(&ch));
                mux.add(Mixed::stalling(&ch));
                mux
            };
            let (mut by_lane, mut tagged_mux) = (install(), install());
            for l in 0..2 {
                let op = by_lane.lane(l);
                op.home.set(op as *const Mixed as usize);
            }
            assert!(by_lane.lanes[0].tally.is_some() && by_lane.lanes[1].clocked);
            let (mut window, mut reference) = (AmacSession::new(M), AmacSession::new(M));
            let (mut stats, mut want) = (EngineStats::default(), EngineStats::default());
            for morsel in inputs.chunks(quantum) {
                // The clocked lane first, so the plain lane's feed finds
                // the clocked lane's lookups in the window.
                for lane in [1, 0] {
                    let home = [0, 1].map(|l| by_lane.lane(l).at_home);
                    window.feed_lane(&mut by_lane, lane, morsel, &mut stats);
                    reference.feed(&mut Tagged(&mut tagged_mux), &tagged(lane, morsel), &mut want);
                    assert_same(&by_lane, &tagged_mux, &stats, &want, &at);
                    if lane == 0 {
                        assert_eq!(by_lane.lane(0).at_home, home[0], "{at}: own slot routed");
                        clocked_ran += by_lane.lane(1).at_home - home[1];
                    }
                }
            }
            assert!(window.drain_lanes(&mut by_lane, &mut stats, usize::MAX));
            reference.drain(&mut Tagged(&mut tagged_mux), &mut want);
            assert_same(&by_lane, &tagged_mux, &stats, &want, &format!("{at}: drained"));
            assert_eq!(by_lane.lane(0).own, 0, "{at}: the plain lane ran its own start/step");
            assert!(by_lane.now() > stats.stages, "{at}: stalls lift window time");
            for l in 0..2 {
                let (a, b) = (by_lane.lane(l), tagged_mux.lane(l));
                assert_eq!(a.chain.outputs, b.chain.outputs, "{at}: lane {l} outputs");
                assert_eq!(a.completed(), b.completed(), "{at}: lane {l} completion order");
            }
        }
        assert!(clocked_ran > 0, "the plain lane's feeds never met a clocked stage");
    }
}
