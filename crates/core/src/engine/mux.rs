//! Cross-query window sharing: many queries' lookups in **one** in-flight
//! window.
//!
//! AMAC hides memory latency by keeping `M` lookups in flight — and
//! nothing in that argument cares *which query* a lookup belongs to
//! (§3: the window entries are independent state machines). The AMAU
//! line of follow-up work generalizes exactly this: one asynchronous
//! access engine multiplexing many independent request streams. [`Mux`]
//! is that idea as an op: it implements [`LookupOp`] over
//! [`Tagged`]`<Input>` tuples and routes every `start`/`step` to the
//! *lane* (per-query inner op) named by the tag, so a single executor
//! window — under any of the four techniques, or a persistent
//! [`AmacSession`](super::AmacSession) — interleaves lookups from every
//! active query.
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
//! Tenant-billing counters must be exact, not estimated. Three sources
//! feed the per-lane [`EngineStats`] ledger:
//!
//! * lifecycle counters (`stages`, `lookups`, `latch_retries`,
//!   `prefetches`) — counted by `Mux` in `start`/`step`, which know the
//!   lane, except on a plain lane feed
//!   ([`AmacSession::feed_lane`](super::AmacSession::feed_lane)): there
//!   the fed lane's are settled once per feed, as the feed's counts less
//!   what it routed to other lanes' slots, and so is its share of `seq`.
//!   A ledger ([`Mux::observed`]) is therefore current as of the last
//!   feed, drain or executor run;
//! * op-observed counters (`nodes_visited`, `tag_rejects`, and the
//!   cost-model ticks `sim_cycles`/`sim_stalls`) — each lane has its
//!   **own** inner op, so everything that op accumulated belongs to its
//!   lane; the mux's [`Hooks::flush`] settles a plain lane's tally into
//!   its op, then drains every inner op into its lane ledger *and*
//!   forwards the same deltas to the executor's global stats, preserving
//!   the drain-and-reset contract that keeps counters exact across morsel
//!   reuse (a plain lane feed flushes only the fed lane and the lanes it
//!   routed to: no other lane ran). Lane cost-model clocks are kept in
//!   lock-step with a window-wide simulated time (`seq`), so one lane's
//!   stages count toward every other lane's prefetch distances — the
//!   cross-query hiding the shared window exists to provide;
//! * executor-side counters (`noops`, `bailouts`) are scheduling
//!   artifacts of the whole window and stay global-only.
//!
//! The invariant (asserted in tests): summing lane ledgers reproduces the
//! executor's global totals exactly, field for field (`noops`/`bailouts`
//! aside).

use super::{EngineStats, Hooks, LookupOp, Step};

/// A per-query input: the lane that owns it plus the inner op's input.
#[derive(Debug, Clone, Copy)]
pub struct Tagged<I: Copy> {
    /// Lane id returned by [`Mux::add`].
    pub lane: u32,
    /// The inner op's input.
    pub input: I,
}

impl<I: Copy> Tagged<I> {
    /// Tag `input` for `lane`.
    #[inline]
    pub fn new(lane: u32, input: I) -> Self {
        Tagged { lane, input }
    }
}

/// Per-lookup state: the owning lane plus the inner op's state.
#[derive(Debug, Default)]
pub struct MuxState<S: Default> {
    lane: u32,
    inner: S,
}

/// One lane: its inner op and everything a routed stage reads or bills,
/// in one record so a stage touches one bounds-checked slot.
struct Lane<O: LookupOp> {
    /// `None` once [`Mux::remove`]d (the slot waits for reuse).
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
    /// flush ([`LookupOp::plain`]): `Some` holds a plain lane's tally,
    /// which its stages count into and every flush settles first.
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

/// One lane's flush, written once for [`Mux`]'s and a [`LaneView`]'s:
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
    op.plain()
}

/// A multiplexer op: one inner [`LookupOp`] per active query lane, all
/// sharing whichever executor window runs the `Mux`.
///
/// Lanes are added with [`add`](Mux::add) and removed with
/// [`remove`](Mux::remove) (only once all of the lane's lookups have
/// retired — the caller tracks that via the ledger's `lookups` count).
/// Lane ids are reused, so a long-lived serving window does not grow
/// without bound as queries come and go.
pub struct Mux<O: LookupOp> {
    lanes: Vec<Lane<O>>,
    /// The shared window's simulated time: advanced one tick per routed
    /// stage (and by executor idle visits via [`Hooks::idle`]), and lifted
    /// to a clocked lane's `now` after each of its stages so lane stalls
    /// push window time forward too. Before routing a stage to a clocked
    /// lane, the lane's clock is advanced to `seq` — that is how time
    /// spent on *other* tenants' stages counts toward this tenant's
    /// prefetch distances, which is precisely the cross-query
    /// latency-hiding claim. A lane whose context keeps no time
    /// ([`Hooks::keeps_time`] sampled at [`Mux::add`]) would only answer
    /// `now() == 0`, so its stages skip both calls and just tick `seq`.
    seq: u64,
    /// Cancelled retirements not yet folded into *global* stats: lane
    /// ledgers count `cancelled_lookups` live, but the executor only sees
    /// a plain `Done`, so the global counter is reconciled at the next
    /// flush — keeping the lane-sum == global invariant exact
    /// at every flush boundary.
    pending_cancelled: u64,
    /// The mux's own tracer: records lane activation/cancellation events
    /// at window time (`seq`). Per-lookup events belong to the lanes'
    /// inner ops, which carry their own tracers.
    trace: amac_trace::Tracer,
    /// Installed lanes that keep time. While there are none, nothing reads
    /// `seq` during a feed, so a [`LaneView`] may settle it once per feed.
    clocked: usize,
}

impl<O: LookupOp> Default for Mux<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: LookupOp> Mux<O> {
    /// An empty multiplexer.
    pub fn new() -> Self {
        Mux {
            lanes: Vec::new(),
            seq: 0,
            pending_cancelled: 0,
            trace: amac_trace::Tracer::off(),
            clocked: 0,
        }
    }

    /// Install `op` on a free lane and return its id (vacant slots are
    /// reused before the lane table grows).
    pub fn add(&mut self, mut op: O) -> u32 {
        let (prefetches, clocked) = {
            let cx = op.ctx();
            (cx.issues_prefetches(), cx.keeps_time())
        };
        let fresh = Lane {
            tally: op.plain(),
            op: Some(op),
            led: EngineStats::default(),
            cancelled: false,
            prefetches,
            clocked,
        };
        self.clocked += clocked as usize;
        let lane = if let Some(i) = self.lanes.iter().position(|l| l.op.is_none()) {
            self.lanes[i] = fresh;
            i as u32
        } else {
            self.lanes.push(fresh);
            (self.lanes.len() - 1) as u32
        };
        if self.trace.enabled() {
            self.trace.record(amac_trace::TraceEvent::lane(self.seq, lane, true));
        }
        lane
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
        self.clocked -= l.clocked as usize;
        (op, core::mem::take(&mut l.led))
    }

    /// Cooperatively cancel a lane: every in-flight lookup of this lane
    /// retires (as `cancelled_lookups`) the next time the executor visits
    /// its slot, without executing any remaining stages of the inner op.
    /// The lane stays installed — its op, outputs-so-far and ledger remain
    /// readable — until [`remove`](Mux::remove); the caller must stop
    /// submitting new inputs for it. Idempotent; panics on a vacant lane.
    pub fn cancel(&mut self, lane: u32) {
        let l = &mut self.lanes[lane as usize];
        assert!(l.op.is_some(), "cancel of vacant mux lane");
        if !l.cancelled && self.trace.enabled() {
            self.trace.record(amac_trace::TraceEvent::lane(self.seq, lane, false));
        }
        l.cancelled = true;
    }

    /// Whether [`cancel`](Mux::cancel) has been called on this lane.
    pub fn is_cancelled(&self, lane: u32) -> bool {
        self.lanes[lane as usize].cancelled
    }

    /// The lane's inner op (panics on a vacant lane). A plain lane's
    /// accumulators are current as of the last flush.
    pub fn lane(&self, lane: u32) -> &O {
        self.lanes[lane as usize].op.as_ref().expect("vacant mux lane")
    }

    /// The lane's inner op, mutably (panics on a vacant lane). Settles a
    /// plain lane's tally first, and runs the lane's `start`/`step` until
    /// the next flush picks its mode again: whatever the caller changes
    /// (a tracer, say) is seen from the next stage on.
    pub fn lane_mut(&mut self, lane: u32) -> &mut O {
        let l = &mut self.lanes[lane as usize];
        l.settle();
        l.op.as_mut().expect("vacant mux lane")
    }

    /// The lane's accounting ledger, current as of the last feed, drain
    /// or executor run, i.e. exact between calls (see "Per-lane
    /// accounting" in the [module docs](self)).
    pub fn observed(&self, lane: u32) -> &EngineStats {
        &self.lanes[lane as usize].led
    }

    /// Number of occupied lanes.
    pub fn active_lanes(&self) -> usize {
        self.lanes.iter().filter(|l| l.op.is_some()).count()
    }

    /// Iterate over `(lane, op)` pairs of occupied lanes.
    pub fn iter_lanes(&self) -> impl Iterator<Item = (u32, &O)> {
        self.lanes.iter().enumerate().filter_map(|(i, l)| l.op.as_ref().map(|op| (i as u32, op)))
    }
}

/// Lanes pick their modes one by one, so the mux itself has no plain
/// stages: every executor call runs `start`/`step`, and each routes to the
/// lane's plain or own stage.
impl<O: LookupOp> LookupOp for Mux<O> {
    type Input = Tagged<O::Input>;
    type State = MuxState<O::State>;
    type Tally = ();

    /// GP/SPP stage budget: the worst lane's budget (a static schedule
    /// must cover the longest regular chain among active queries).
    fn budgeted_steps(&self) -> usize {
        self.lanes
            .iter()
            .flat_map(|l| &l.op)
            .map(|op| op.budgeted_steps())
            .max()
            .unwrap_or(1)
            .max(1)
    }

    #[inline(always)]
    fn start(&mut self, input: Tagged<O::Input>, state: &mut MuxState<O::State>) {
        state.lane = input.lane;
        let l = &mut self.lanes[input.lane as usize];
        if l.cancelled {
            // A racing feed to a just-cancelled lane: accept the slot but
            // never run the inner op; the next `step` retires it as
            // cancelled. Billed like any other executed stage.
            self.seq += 1;
            assert!(l.op.is_some(), "start routed to vacant lane");
        } else {
            let op = l.op.as_mut().expect("start routed to vacant lane");
            if l.clocked {
                // Clock sync: catch the lane up to window time, run its
                // stage, then fold its (possibly stalled) clock back.
                op.ctx().advance_to(self.seq);
                op.start(input.input, &mut state.inner);
                self.seq = (self.seq + 1).max(op.ctx().now());
            } else {
                match &mut l.tally {
                    Some(tally) => op.start_plain(tally, input.input, &mut state.inner),
                    None => op.start(input.input, &mut state.inner),
                }
                debug_assert_eq!(op.ctx().now(), 0, "a lane that keeps no time has a clock");
                self.seq += 1;
            }
        }
        l.led.stages += 1;
        l.led.prefetches += l.prefetches as u64;
    }

    #[inline(always)]
    fn step(&mut self, state: &mut MuxState<O::State>) -> Step {
        let l = &mut self.lanes[state.lane as usize];
        if l.cancelled {
            // Cooperative cancellation: retire the slot without running
            // the inner op. The visit still costs a window tick (the
            // executor spent a rotation on it), and the retirement is
            // billed to the lane as a cancelled lookup; the executor sees
            // a plain `Done` (its global `cancelled_lookups` is
            // reconciled at the next flush via `pending_cancelled`).
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
            let r = op.step(&mut state.inner);
            self.seq = (self.seq + 1).max(op.ctx().now());
            r
        } else {
            let r = match &mut l.tally {
                Some(tally) => op.step_plain(tally, &mut state.inner),
                None => op.step(&mut state.inner),
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
            }
            Step::Blocked => led.latch_retries += 1,
            Step::Done => {
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

    fn ctx(&mut self) -> impl Hooks + '_ {
        self
    }
}

/// The mux as its own context: window time is `seq`, the ledger is the
/// per-lane ledgers, and the tracer records lane lifecycle events only
/// (per-lookup events belong to the lane ops' tracers, installed before
/// [`Mux::add`]).
impl<O: LookupOp> Hooks for Mux<O> {
    /// Executor idle visits advance the shared window's simulated time;
    /// every lane is caught up lazily at its next routed stage.
    fn idle(&mut self, ticks: u64) {
        self.seq += ticks;
    }

    fn now(&self) -> u64 {
        self.seq
    }

    fn advance_to(&mut self, now: u64) {
        self.seq = self.seq.max(now);
    }

    /// Window time is always kept (`seq`), so a mux nested as another
    /// mux's lane is synchronized like any clocked lane.
    fn keeps_time(&self) -> bool {
        true
    }

    fn commit_group(&mut self) {
        for op in self.lanes.iter_mut().flat_map(|l| &mut l.op) {
            op.ctx().commit_group();
        }
    }

    /// Each lane's tally is settled before its context is flushed, and
    /// its mode picked again after.
    fn flush(&mut self, stats: &mut EngineStats) {
        for l in &mut self.lanes {
            l.flush(stats);
        }
        // Cancelled retirements were reported to the executor as plain
        // `Done`s; fold them into the global subset counter here so lane
        // sums and global totals agree at every flush boundary.
        stats.cancelled_lookups += core::mem::take(&mut self.pending_cancelled);
    }

    /// Conservative global gate: true only if every lane prefetches
    /// (executors count the convention globally; the per-lane ledgers
    /// remain exact either way because they use each lane's own gate).
    /// Lane gates are fixed at construction, so they are sampled once at
    /// [`Mux::add`].
    fn issues_prefetches(&self) -> bool {
        self.lanes.iter().all(|l| l.op.is_none() || l.prefetches)
    }

    fn set_tracer(&mut self, tracer: amac_trace::Tracer) {
        self.trace = tracer;
    }

    fn take_tracer(&mut self) -> amac_trace::Tracer {
        self.trace.take()
    }

    fn tracing(&self) -> bool {
        self.trace.enabled()
    }

    fn trace(&mut self, ev: amac_trace::TraceEvent) {
        self.trace.record(ev);
    }
}

impl<O: LookupOp> Mux<O> {
    /// The lane's op out of the lane table, with the tally a plain
    /// [`LaneView`] call starts from, when the lane may be fed that way:
    /// it is not cancelled, its op is plain once its tally is settled, and
    /// no installed lane keeps time. `None` leaves the lane where it is.
    pub(crate) fn take_plain(&mut self, lane: u32) -> Option<(O, O::Tally)> {
        if self.clocked > 0 {
            return None;
        }
        let l = &mut self.lanes[lane as usize];
        if l.cancelled {
            return None;
        }
        l.settle();
        let tally = l.op.as_ref()?.plain()?;
        Some((l.op.take()?, tally))
    }

    /// Reinstall the op [`take_plain`](Mux::take_plain) took out.
    pub(crate) fn put_back(&mut self, lane: u32, op: O) {
        self.lanes[lane as usize].op = Some(op);
    }
}

/// One plain call's view of a [`Mux`] fed one lane's inputs (see
/// [`AmacSession::feed_lane`](super::AmacSession::feed_lane)): the fed
/// lane's op, out of the lane table for the call, runs its own plain
/// stages over the call's tally; a slot still held by another lane goes
/// through [`Mux::step`] out of line. The fed lane's lifecycle counters
/// and window time are settled at the flush, from the feed's counts less
/// what was routed.
pub(crate) struct LaneView<'a, O: LookupOp> {
    mux: &'a mut Mux<O>,
    lane: u32,
    op: &'a mut O,
    /// The fed op's tally as the call starts, answered by `plain`.
    tally: O::Tally,
    /// What the call routed to other lanes: `stages`, `lookups`,
    /// `failed_lookups` and `latch_retries`.
    routed: EngineStats,
    /// The lanes it routed to, one bit per lane id modulo 64.
    touched: u64,
}

impl<'a, O: LookupOp> LaneView<'a, O> {
    /// A view of `mux` feeding `lane`, whose `op` and `tally` are what
    /// [`Mux::take_plain`] returned.
    pub(crate) fn new(mux: &'a mut Mux<O>, lane: u32, op: &'a mut O, tally: O::Tally) -> Self {
        LaneView { mux, lane, op, tally, routed: EngineStats::default(), touched: 0 }
    }

    /// A stage of another lane's lookup, through the mux, which bills that
    /// lane; the call counts it so the fed lane's share can be derived.
    #[inline(never)]
    fn step_routed(&mut self, state: &mut MuxState<O::State>) -> Step {
        self.touched |= 1 << (state.lane % 64);
        let r = self.mux.step(state);
        let routed = &mut self.routed;
        match r {
            Step::Continue => routed.stages += 1,
            Step::Blocked => routed.latch_retries += 1,
            Step::Done | Step::Failed => {
                routed.stages += 1;
                routed.lookups += 1;
                routed.failed_lookups += (r == Step::Failed) as u64;
            }
        }
        r
    }
}

/// Plain calls only: [`Mux::take_plain`] made sure of it, so `plain` is
/// always `Some` and `start`/`step` are never called.
impl<O: LookupOp> LookupOp for LaneView<'_, O> {
    type Input = O::Input;
    type State = MuxState<O::State>;
    type Tally = O::Tally;

    fn budgeted_steps(&self) -> usize {
        self.op.budgeted_steps()
    }

    fn start(&mut self, _input: O::Input, _state: &mut Self::State) {
        unreachable!("a lane view runs plain calls only")
    }

    fn step(&mut self, _state: &mut Self::State) -> Step {
        unreachable!("a lane view runs plain calls only")
    }

    #[inline(always)]
    fn plain(&self) -> Option<O::Tally> {
        Some(self.tally)
    }

    #[inline(always)]
    fn start_plain(&mut self, tally: &mut O::Tally, input: O::Input, state: &mut Self::State) {
        state.lane = self.lane;
        self.op.start_plain(tally, input, &mut state.inner);
    }

    #[inline(always)]
    fn step_plain(&mut self, tally: &mut O::Tally, state: &mut Self::State) -> Step {
        if state.lane == self.lane {
            self.op.step_plain(tally, &mut state.inner)
        } else {
            self.step_routed(state)
        }
    }

    #[inline(always)]
    fn settle(&mut self, tally: O::Tally) {
        self.op.settle(tally);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        self
    }

    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        self.op.looks_ahead()
    }

    #[inline(always)]
    fn lookahead(&self, input: O::Input) {
        self.op.lookahead(input);
    }
}

/// A plain call uses only the prefetch gate and the flush.
impl<O: LookupOp> Hooks for LaneView<'_, O> {
    /// The mux's gate, with the fed lane's op out of the table.
    fn issues_prefetches(&self) -> bool {
        self.mux.issues_prefetches() && self.mux.lanes[self.lane as usize].prefetches
    }

    /// `stats` holds this feed's counts only (the view's caller flushes
    /// into fresh stats): less what was routed, they are the fed lane's,
    /// and each of its starts and steps ticked the window once. Then the
    /// fed lane and the lanes routed to are flushed; no other lane ran.
    fn flush(&mut self, stats: &mut EngineStats) {
        let mux = &mut *self.mux;
        let fed = self.lane as usize;
        let r = &self.routed;
        let l = &mut mux.lanes[fed];
        let stages = stats.stages - r.stages;
        let lookups = stats.lookups - r.lookups;
        let blocked = stats.latch_retries - r.latch_retries;
        l.led.stages += stages;
        l.led.lookups += lookups;
        l.led.failed_lookups += stats.failed_lookups - r.failed_lookups;
        l.led.latch_retries += blocked;
        l.led.prefetches += l.prefetches as u64 * (stages - lookups);
        mux.seq += stages + blocked;
        l.tally = flush_op(&mut *self.op, None, &mut l.led, stats);
        for (i, l) in mux.lanes.iter_mut().enumerate() {
            if i != fed && self.touched >> (i % 64) & 1 == 1 {
                if let Some(op) = l.op.as_mut() {
                    op.ctx().commit_group();
                }
                l.flush(stats);
            }
        }
        stats.cancelled_lookups += core::mem::take(&mut mux.pending_cancelled);
    }
}

/// A lane feed that runs every stage through the mux, as a feed of the
/// tagged inputs does: the fallback of
/// [`AmacSession::feed_lane`](super::AmacSession::feed_lane) when the
/// lane is not plain or some lane keeps time.
pub(crate) struct RoutedLane<'a, O: LookupOp> {
    mux: &'a mut Mux<O>,
    lane: u32,
}

impl<'a, O: LookupOp> RoutedLane<'a, O> {
    /// A feed of `lane` through `mux`.
    pub(crate) fn new(mux: &'a mut Mux<O>, lane: u32) -> Self {
        RoutedLane { mux, lane }
    }
}

impl<O: LookupOp> LookupOp for RoutedLane<'_, O> {
    type Input = O::Input;
    type State = MuxState<O::State>;
    type Tally = ();

    fn budgeted_steps(&self) -> usize {
        self.mux.budgeted_steps()
    }

    #[inline(always)]
    fn start(&mut self, input: O::Input, state: &mut Self::State) {
        self.mux.start(Tagged::new(self.lane, input), state);
    }

    #[inline(always)]
    fn step(&mut self, state: &mut Self::State) -> Step {
        self.mux.step(state)
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut *self.mux
    }

    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        self.mux.lane(self.lane).looks_ahead()
    }

    #[inline(always)]
    fn lookahead(&self, input: O::Input) {
        self.mux.lane(self.lane).lookahead(input);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::{ChainOp as TestChainOp, ChainState, LatchedOp, LatchedState};
    use crate::engine::{run, AmacSession, Technique, TuningParams};

    /// Interleave two queries' inputs round-robin with quantum `q`.
    fn interleave(a: &[usize], b: &[usize], q: usize) -> Vec<Tagged<usize>> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut ia, mut ib) = (0usize, 0usize);
        while ia < a.len() || ib < b.len() {
            for _ in 0..q {
                if ia < a.len() {
                    out.push(Tagged::new(0, a[ia]));
                    ia += 1;
                }
            }
            for _ in 0..q {
                if ib < b.len() {
                    out.push(Tagged::new(1, b[ib]));
                    ib += 1;
                }
            }
        }
        out
    }

    fn chains(n: usize, salt: usize) -> Vec<usize> {
        (0..n).map(|i| 1 + (i * 31 + salt) % 7).collect()
    }

    #[test]
    fn mux_matches_solo_runs_under_all_executors() {
        let ch = chains(4_000, 0);
        let qa: Vec<usize> = (0..2_000).collect();
        let qb: Vec<usize> = (2_000..4_000).rev().collect();
        for technique in Technique::ALL {
            let params = TuningParams::paper_best(technique);
            // Solo references.
            let mut solo_a = TestChainOp::new(&ch);
            let sa = run(technique, &mut solo_a, &qa, params);
            let mut solo_b = TestChainOp::new(&ch);
            let sb = run(technique, &mut solo_b, &qb, params);

            // Shared window.
            let mut mux = Mux::new();
            let la = mux.add(TestChainOp::new(&ch));
            let lb = mux.add(TestChainOp::new(&ch));
            let tagged = interleave(&qa, &qb, 16);
            let global = run(technique, &mut mux, &tagged, params);

            let (oa, leda) = mux.remove(la);
            let (ob, ledb) = mux.remove(lb);
            assert_eq!(oa.outputs, solo_a.outputs, "{technique}: lane A results");
            assert_eq!(ob.outputs, solo_b.outputs, "{technique}: lane B results");
            assert_eq!(leda.lookups, sa.lookups, "{technique}: lane A lookups");
            assert_eq!(ledb.lookups, sb.lookups, "{technique}: lane B lookups");
            assert_eq!(
                leda.nodes_visited, sa.nodes_visited,
                "{technique}: sharing must not inflate lane A's nodes"
            );
            assert_eq!(ledb.nodes_visited, sb.nodes_visited, "{technique}: lane B nodes");
            assert_eq!(
                global.lookups,
                sa.lookups + sb.lookups,
                "{technique}: global lookups are the lane sum"
            );
        }
    }

    #[test]
    fn lane_ids_are_reused_after_remove() {
        let ch = chains(64, 1);
        let mut mux: Mux<TestChainOp> = Mux::new();
        let a = mux.add(TestChainOp::new(&ch));
        let b = mux.add(TestChainOp::new(&ch));
        assert_eq!((a, b), (0, 1));
        mux.remove(a);
        assert_eq!(mux.active_lanes(), 1);
        let c = mux.add(TestChainOp::new(&ch));
        assert_eq!(c, 0, "vacant lane 0 must be reused");
        assert_eq!(mux.active_lanes(), 2);
        // The recycled lane's ledger starts clean.
        assert_eq!(*mux.observed(c), EngineStats::default());
        let _ = b;
    }

    #[test]
    fn budget_is_worst_lane() {
        let short = chains(16, 0); // chain lengths 1..=7
        let mut mux: Mux<TestChainOp> = Mux::new();
        assert_eq!(mux.budgeted_steps(), 1, "empty mux still legal for GP/SPP sizing");
        mux.add(TestChainOp::new(&short));
        assert!(mux.budgeted_steps() >= 1);
    }

    #[test]
    fn cancelled_lane_retires_exactly_and_ledgers_still_sum() {
        let ch = chains(2_000, 2);
        let qa: Vec<usize> = (0..1_000).collect();
        let qb: Vec<usize> = (1_000..2_000).collect();
        // Reference: lane B solo, untouched by A's cancellation.
        let mut solo_b = TestChainOp::new(&ch);
        let sb = run(Technique::Amac, &mut solo_b, &qb, TuningParams::default());

        let mut mux = Mux::new();
        let la = mux.add(TestChainOp::new(&ch));
        let lb = mux.add(TestChainOp::new(&ch));
        mux.cancel(la);
        assert!(mux.is_cancelled(la));
        let tagged = interleave(&qa, &qb, 16);
        let global = run(Technique::Amac, &mut mux, &tagged, TuningParams::default());

        let (a, b) = (*mux.observed(la), *mux.observed(lb));
        // Every submitted lookup retired exactly once; A's all as cancelled.
        assert_eq!(global.lookups, (qa.len() + qb.len()) as u64);
        assert_eq!(a.lookups, qa.len() as u64);
        assert_eq!(a.cancelled_lookups, qa.len() as u64);
        assert_eq!(b.cancelled_lookups, 0);
        // Reconciliation: lane sums equal global totals, including the
        // cancelled subset folded in at flush.
        assert_eq!(a.lookups + b.lookups, global.lookups);
        assert_eq!(a.stages + b.stages, global.stages);
        assert_eq!(a.cancelled_lookups + b.cancelled_lookups, global.cancelled_lookups);
        assert_eq!(a.nodes_visited, 0, "cancelled stages never touch the inner op");
        // The healthy lane is bit-identical to its solo run.
        let (ob, ledb) = mux.remove(lb);
        assert_eq!(ob.outputs, solo_b.outputs);
        assert_eq!(ledb.nodes_visited, sb.nodes_visited);
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

    /// A chain op whose context is a [`ToyClock`].
    struct Timed {
        chain: TestChainOp,
        clock: ToyClock,
    }

    impl Timed {
        fn plain(ch: &[usize]) -> Self {
            Timed { chain: TestChainOp::new(ch), clock: ToyClock::default() }
        }
        fn passive(ch: &[usize]) -> Self {
            Timed { clock: ToyClock { keeps: true, ..Default::default() }, ..Self::plain(ch) }
        }
        fn stalling(ch: &[usize]) -> Self {
            Timed {
                clock: ToyClock { keeps: true, stall: 3, ..Default::default() },
                ..Self::plain(ch)
            }
        }
    }

    impl LookupOp for Timed {
        type Input = usize;
        type State = ChainState;
        type Tally = ();
        fn budgeted_steps(&self) -> usize {
            self.chain.budgeted_steps()
        }
        fn start(&mut self, input: usize, state: &mut ChainState) {
            self.clock.now += self.clock.stall;
            self.chain.start(input, state);
        }
        fn step(&mut self, state: &mut ChainState) -> Step {
            self.clock.now += self.clock.stall;
            self.chain.step(state)
        }
        fn ctx(&mut self) -> impl Hooks + '_ {
            &mut self.clock
        }
    }

    #[test]
    fn plain_neighbours_skip_the_clock_sync_without_moving_window_time() {
        let ch = chains(3_000, 3);
        let tagged: Vec<Tagged<usize>> = (0..3_000).map(|i| Tagged::new(i as u32 % 3, i)).collect();
        for technique in Technique::ALL {
            let params = TuningParams::paper_best(technique);
            // (stalling lane's clock, window time, neighbour syncs, stages)
            let shared = |neighbour: fn(&[usize]) -> Timed| {
                let mut mux = Mux::new();
                let lanes = [
                    mux.add(Timed::stalling(&ch)),
                    mux.add(neighbour(&ch)),
                    mux.add(neighbour(&ch)),
                ];
                let stats = run(technique, &mut mux, &tagged, params);
                let syncs = mux.lane(lanes[1]).clock.syncs + mux.lane(lanes[2]).clock.syncs;
                (mux.lane(lanes[0]).clock.now, mux.now(), syncs, stats.stages)
            };
            let (clock, now, syncs, stages) = shared(Timed::plain);
            let passive = shared(Timed::passive);
            assert_eq!((clock, now), (passive.0, passive.1), "{technique}: window time moved");
            assert_eq!(syncs, 0, "{technique}: a plain lane was synced");
            assert!(passive.2 > 0, "{technique}: a passive clock is synced");
            assert!(now > stages && clock > stages, "{technique}: stalls lift window time");
        }
    }

    #[test]
    fn recycled_lane_resamples_the_clock_bit() {
        let ch = chains(600, 4);
        let tagged: Vec<Tagged<usize>> = (0..600).map(|i| Tagged::new(0, i)).collect();
        let params = TuningParams::default();
        let mut fresh = Mux::new();
        fresh.add(Timed::stalling(&ch));
        run(Technique::Amac, &mut fresh, &tagged, params);
        let want = (fresh.lane(0).clock.now, fresh.now());

        let mut mux = Mux::new();
        let plain = mux.add(Timed::plain(&ch));
        run(Technique::Amac, &mut mux, &tagged, params);
        mux.remove(plain);
        // plain -> clocked: synced from its first stage on, so the run is the
        // fresh one shifted by the window time it joins at.
        let clocked = mux.add(Timed::stalling(&ch));
        assert_eq!(clocked, plain, "the lane id is recycled");
        let at = mux.now();
        run(Technique::Amac, &mut mux, &tagged, params);
        assert_eq!((mux.lane(clocked).clock.now - at, mux.now() - at), want);
        mux.remove(clocked);
        // clocked -> plain: never synced again.
        let plain = mux.add(Timed::plain(&ch));
        assert_eq!(plain, clocked);
        run(Technique::Amac, &mut mux, &tagged, params);
        assert_eq!(mux.lane(plain).clock.syncs, 0);
    }

    #[test]
    fn single_lane_mux_is_transparent() {
        let ch = chains(1_000, 5);
        let inputs: Vec<usize> = (0..1_000).collect();
        let mut solo = TestChainOp::new(&ch);
        let want = run(Technique::Amac, &mut solo, &inputs, TuningParams::default());

        let mut mux = Mux::new();
        let lane = mux.add(TestChainOp::new(&ch));
        let tagged: Vec<Tagged<usize>> = inputs.iter().map(|&i| Tagged::new(lane, i)).collect();
        let got = run(Technique::Amac, &mut mux, &tagged, TuningParams::default());
        assert_eq!(got, want, "a 1-lane mux must not change any counter");
        let (op, led) = mux.remove(lane);
        assert_eq!(op.outputs, solo.outputs);
        assert_eq!(led.lookups, want.lookups);
    }

    /// A lane of the differential schedule: a chain walk (plain or not),
    /// a latched op, or a chain walk under a stalling clock.
    struct Mixed {
        chain: TestChainOp,
        latch: Option<LatchedOp>,
        clock: ToyClock,
    }

    #[derive(Default)]
    struct MixedState {
        chain: ChainState,
        latch: LatchedState,
    }

    impl Mixed {
        fn chain(ch: &[usize]) -> Self {
            let mut chain = TestChainOp::new(ch);
            chain.plain = true;
            Mixed { chain, latch: None, clock: ToyClock::default() }
        }
        fn latched(ch: &[usize]) -> Self {
            Mixed { latch: Some(LatchedOp::new(ch.len())), ..Self::chain(ch) }
        }
        fn stalling(ch: &[usize]) -> Self {
            let clock = ToyClock { keeps: true, stall: 3, ..Default::default() };
            Mixed { clock, ..Self::chain(ch) }
        }
        fn completed(&self) -> &[usize] {
            self.latch.as_ref().map_or(&self.chain.completed, |l| &l.completed)
        }
    }

    impl LookupOp for Mixed {
        type Input = usize;
        type State = MixedState;
        type Tally = ();
        fn budgeted_steps(&self) -> usize {
            self.chain.budgeted_steps()
        }
        fn start(&mut self, input: usize, state: &mut MixedState) {
            self.clock.now += self.clock.stall;
            match &mut self.latch {
                Some(l) => l.start(input, &mut state.latch),
                None => self.chain.start(input, &mut state.chain),
            }
        }
        fn step(&mut self, state: &mut MixedState) -> Step {
            self.clock.now += self.clock.stall;
            match &mut self.latch {
                Some(l) => l.step(&mut state.latch),
                None => self.chain.step(&mut state.chain),
            }
        }
        fn plain(&self) -> Option<()> {
            if self.clock.keeps {
                None
            } else {
                self.chain.plain()
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
                let (mut by_lane, mut tagged) = (install(), install());
                let lanes = by_lane.active_lanes() as u32;
                let (mut window, mut reference) = (AmacSession::new(M), AmacSession::new(M));
                let (mut stats, mut want) = (EngineStats::default(), EngineStats::default());
                let mut plain_feeds = 0;
                for (round, lo) in (0..inputs.len()).step_by(quantum).enumerate() {
                    let morsel = &inputs[lo..(lo + quantum).min(inputs.len())];
                    for lane in 0..lanes {
                        if by_lane.is_cancelled(lane) {
                            continue;
                        }
                        if let Some((op, _)) = by_lane.take_plain(lane) {
                            by_lane.put_back(lane, op);
                            plain_feeds += 1;
                        }
                        window.feed_lane(&mut by_lane, lane, morsel, &mut stats);
                        let chunk: Vec<Tagged<usize>> =
                            morsel.iter().map(|&i| Tagged::new(lane, i)).collect();
                        reference.feed(&mut tagged, &chunk, &mut want);
                        assert_eq!(stats, want, "{at}: global stats");
                        assert_eq!(by_lane.now(), tagged.now(), "{at}: window time");
                        let mut sum = EngineStats::default();
                        for l in 0..lanes {
                            assert_eq!(by_lane.observed(l), tagged.observed(l), "{at}: lane {l}");
                            sum.merge(by_lane.observed(l));
                        }
                        assert_eq!(sum, stats, "{at}: lane ledgers vs global stats");
                        if (lane, round) == (2, 3) {
                            // Its lookups still in flight retire through
                            // the other lanes' feeds.
                            by_lane.cancel(2);
                            tagged.cancel(2);
                        }
                    }
                }
                assert_eq!(plain_feeds > 0, !timed, "{at}: plain feeds {plain_feeds}");
                window.drain(&mut by_lane, &mut stats);
                reference.drain(&mut tagged, &mut want);
                assert_eq!(stats, want, "{at}: drained");
                assert_eq!(by_lane.now(), tagged.now(), "{at}: drained window time");
                assert!(stats.latch_retries > 0, "{at}: the latched lane blocked");
                assert!(by_lane.observed(2).cancelled_lookups > 0, "{at}: cancelled in flight");
                for l in 0..lanes {
                    let (a, b) = (by_lane.lane(l), tagged.lane(l));
                    assert_eq!(a.chain.outputs, b.chain.outputs, "{at}: lane {l} outputs");
                    assert_eq!(a.completed(), b.completed(), "{at}: lane {l} completion order");
                    assert_eq!(a.clock.now, b.clock.now, "{at}: lane {l} clock");
                }
            }
        }
    }
}
