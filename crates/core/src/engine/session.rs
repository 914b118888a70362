//! The AMAC window: the paper's Listing 1 rolling buffer, resumable.
//!
//! A one-shot executor drains its in-flight window when the input slice
//! ends — fine for one big chunk, wasteful when the input arrives as a
//! stream of small morsels: every boundary would empty and refill the
//! window, dropping the sustained miss-level parallelism the paper is
//! about (a ~32K-tuple morsel with `M = 10` would pay that drain bubble
//! every few microseconds). [`AmacSession`] owns the circular buffer
//! *across* calls: [`feed`](AmacSession::feed) consumes a morsel and
//! returns with the window still full, and only the final
//! [`drain`](AmacSession::drain) retires the remaining lookups.
//! [`run_amac`](crate::engine::run_amac) is exactly one `feed` plus one `drain`,
//! so this is the only AMAC rotation loop the engine schedules with.
//!
//! An input entering a window narrower than [`LOOKAHEAD_BELOW`] slots
//! also [looks ahead](LookupOp::lookahead) one window width, within the
//! same feed (see "Lookahead" in the [engine docs](crate::engine));
//! [`drain`](AmacSession::drain) has no inputs to look ahead to.
//!
//! The session is generic over its slot state, so any [`LookupOp`] with
//! that state feeds it, including fused multi-operator pipelines
//! ([`Fused`](crate::engine::pipeline::Fused)): a slot mid-way through a
//! probe→group-by chain survives morsel boundaries exactly like a plain
//! probe slot, so whole-pipeline windows persist across the run too. A
//! window of [`MuxState`] slots is shared by a [`Mux`]'s lanes, fed one
//! lane at a time ([`feed_lane`](AmacSession::feed_lane)) and drained
//! together ([`drain_lanes`](AmacSession::drain_lanes)).

use crate::engine::call::{mode, Call};
use crate::engine::mux::{LaneView, Mux, MuxState};
use crate::engine::{EngineStats, LookupOp, Step};

/// Windows of this many slots or more do not look ahead: the window alone
/// keeps enough misses in flight there. On a DRAM-resident probe (Xeon
/// with AVX-512, 2^23-tuple table, 10 alternating pairs each) looking
/// ahead read even at `M = 16` (45.2 → 45.3 cycles/tuple) and cost at
/// `M = 20` (40.0 → 41.9), against 56.1 → 46.9 at `M = 10`.
const LOOKAHEAD_BELOW: usize = 16;

/// Persistent AMAC circular buffer (the paper's Fig. 4 state, owned by
/// one worker thread for the whole run), over slot states `S`: any op
/// whose [`LookupOp::State`] is `S` can feed and drain it.
pub struct AmacSession<S> {
    states: Vec<S>,
    active: Vec<bool>,
    k: usize,
    in_flight: usize,
    /// High-water mark of activated slots (max slot index started + 1).
    /// Slots beyond it never held a lookup, so the drain rotation wraps
    /// here instead of at `M`: a window wider than its input then charges
    /// the same idle ticks as one clamped to the input count. Reset (with
    /// `k`) once the window fully drains, so a reused session schedules
    /// like a fresh one.
    hi: usize,
    /// Sum of `in_flight` sampled at every executed slot rotation — the
    /// numerator of [`mean_occupancy`](AmacSession::mean_occupancy).
    occ_sum: u64,
    /// Slot rotations executed (starts + step attempts).
    occ_ticks: u64,
}

impl<S: Default> AmacSession<S> {
    /// A session with an `m`-slot window (`m >= 1` enforced).
    pub fn new(m: usize) -> Self {
        let m = m.max(1);
        AmacSession {
            states: (0..m).map(|_| S::default()).collect(),
            active: vec![false; m],
            k: 0,
            in_flight: 0,
            hi: 0,
            occ_sum: 0,
            occ_ticks: 0,
        }
    }

    /// Window capacity (the paper's `M`).
    pub fn capacity(&self) -> usize {
        self.states.len()
    }

    /// Lookups currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Mean window occupancy: average `in_flight` over every executed slot
    /// rotation so far (0 before any work). A value near
    /// [`capacity`](AmacSession::capacity) means the engine sustained full
    /// miss-level parallelism; the gap to `capacity` is the MLP lost to
    /// under-filled windows (small feeds, drain tails). Deterministic — it
    /// counts rotations, not time — so serving benches can gate on it.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occ_ticks == 0 {
            0.0
        } else {
            self.occ_sum as f64 / self.occ_ticks as f64
        }
    }

    #[inline(always)]
    fn tick(&mut self) {
        self.occ_sum += self.in_flight as u64;
        self.occ_ticks += 1;
    }

    /// Execute every lookup of `inputs`, leaving up to `M` of them in
    /// flight. Counters accumulate into `stats`: one stage per `start`
    /// and per `step` that made progress, one prefetch per `start` and
    /// per `Continue` (gated on [`Hooks::issues_prefetches`]). When the
    /// op [looks ahead](LookupOp::looks_ahead) and `M` is below 16, the
    /// input at position `i` of `inputs` starting also asks for the
    /// lookahead of position `i + M`: every position from `M` on, in input
    /// order, and none past the slice. Those prefetches are not counted.
    /// A plain call into an empty window offers `inputs` to the op's
    /// [batch stage](LookupOp::batch) first (see "One mode per call" in
    /// the [engine docs](crate::engine)).
    ///
    /// [`Hooks::issues_prefetches`]: crate::engine::Hooks::issues_prefetches
    pub fn feed<O: LookupOp<State = S>>(
        &mut self,
        op: &mut O,
        inputs: &[O::Input],
        stats: &mut EngineStats,
    ) {
        match mode(op) {
            Some(tally) => self.feed_in(Call::plain(op, tally), inputs, stats),
            None => self.feed_in(Call::metered(op), inputs, stats),
        }
    }

    #[inline(always)]
    fn feed_in<O: LookupOp<State = S>, const PLAIN: bool>(
        &mut self,
        mut op: Call<'_, O, PLAIN>,
        inputs: &[O::Input],
        stats: &mut EngineStats,
    ) {
        let m = self.states.len();
        let pf = op.prefetch_gate();
        let ahead = m < LOOKAHEAD_BELOW && op.looks_ahead();
        let mut next = 0usize;
        // Fill any empty slots (first morsel of the run, or after a drain).
        if self.in_flight < m {
            if self.in_flight == 0 && op.batch(inputs, m, stats) {
                return op.flush(stats);
            }
            for slot in 0..m {
                if next == inputs.len() {
                    break;
                }
                if !self.active[slot] {
                    op.start(inputs[next], &mut self.states[slot]);
                    look_ahead(&op, ahead, inputs, next + m);
                    stats.stages += 1;
                    stats.prefetches += pf;
                    next += 1;
                    self.active[slot] = true;
                    self.in_flight += 1;
                    self.hi = self.hi.max(slot + 1);
                    self.tick();
                }
            }
        }
        // Steady state (Listing 1): every slot is occupied while input
        // remains, so a finished slot immediately starts the next lookup
        // (the merged terminal+initial stage) and the window never drains.
        // Slots rotate on a rolling counter: §3.1 rules out the modulo.
        // The rotation counter, the slot array and the event counts stay
        // in locals, as does a plain call's tally: the op's stage code is
        // inlined here, and `self` and `stats` are behind pointers it may
        // alias as far as the optimizer knows. A retirement refills its
        // slot in the same rotation, so retirements are counted by `next`,
        // and `Continue`s are what is left of the rotations (a count an op
        // that bills one node per stage shares with its own ledger).
        let states = &mut self.states[..];
        let mut k = self.k;
        let (mut rotations, mut blocked, mut failed) = (0u64, 0u64, 0u64);
        let first = next;
        while next < inputs.len() {
            match op.step(&mut states[k]) {
                Step::Continue => {}
                // Coarse-grained spin (§3.2): leave the slot as it is
                // and retry it on the next rotation.
                Step::Blocked => blocked += 1,
                s @ (Step::Done | Step::Failed | Step::Emit(_)) => {
                    failed += matches!(s, Step::Failed) as u64;
                    op.start(inputs[next], &mut states[k]);
                    look_ahead(&op, ahead, inputs, next + m);
                    next += 1;
                }
            }
            rotations += 1;
            k += 1;
            if k == m {
                k = 0;
            }
        }
        self.k = k;
        // One stage and one prefetch per `Continue`; two stages (the
        // terminal one and the refill's stage 0), one prefetch and one
        // lookup per retirement.
        let retired = (next - first) as u64;
        let continues = rotations - blocked - retired;
        stats.stages += continues + 2 * retired;
        stats.prefetches += pf * (continues + retired);
        stats.lookups += retired;
        stats.failed_lookups += failed;
        stats.latch_retries += blocked;
        // The window was full at every rotation above, so occupancy needs
        // no per-rotation bookkeeping either.
        self.occ_ticks += rotations;
        self.occ_sum += rotations * m as u64;
        // Feed boundaries are commit points: the next feed's lanes must
        // not coalesce against this one's in-flight loads.
        op.commit_group();
        op.flush(stats);
    }

    /// Retire every lookup still in flight (the end-of-run epilogue).
    pub fn drain<O: LookupOp<State = S>>(&mut self, op: &mut O, stats: &mut EngineStats) {
        let _ = self.drain_budgeted(op, stats, usize::MAX);
    }

    /// [`drain`](AmacSession::drain) with a rotation budget: give up after
    /// `max_rotations` slot visits (idle status checks included) and
    /// return `false` with lookups still in flight. A lane that can never
    /// make progress (a wedged latch, a livelocked op) therefore costs a
    /// bounded amount of work per call instead of spinning the caller
    /// forever — the serving layer's pump budget is built on this.
    /// Counters (a plain call's tally first) are settled and flushed on
    /// both outcomes, so partial drains stay ledger-exact. Returns `true`
    /// once the window is empty.
    pub fn drain_budgeted<O: LookupOp<State = S>>(
        &mut self,
        op: &mut O,
        stats: &mut EngineStats,
        max_rotations: usize,
    ) -> bool {
        match mode(op) {
            Some(tally) => self.drain_in(Call::plain(op, tally), stats, max_rotations),
            None => self.drain_in(Call::metered(op), stats, max_rotations),
        }
    }

    #[inline(always)]
    fn drain_in<O: LookupOp<State = S>, const PLAIN: bool>(
        &mut self,
        mut op: Call<'_, O, PLAIN>,
        stats: &mut EngineStats,
        max_rotations: usize,
    ) -> bool {
        let pf = op.prefetch_gate();
        let mut rotations = 0usize;
        while self.in_flight > 0 {
            if rotations == max_rotations {
                op.flush(stats);
                return false;
            }
            rotations += 1;
            if self.active[self.k] {
                match op.step(&mut self.states[self.k]) {
                    Step::Continue => {
                        stats.stages += 1;
                        stats.prefetches += pf;
                    }
                    Step::Blocked => {
                        stats.latch_retries += 1;
                    }
                    s @ (Step::Done | Step::Failed | Step::Emit(_)) => {
                        stats.stages += 1;
                        stats.lookups += 1;
                        stats.failed_lookups += matches!(s, Step::Failed) as u64;
                        self.active[self.k] = false;
                        self.in_flight -= 1;
                    }
                }
                self.tick();
            } else {
                // Drained slot: the rotation's status check still costs a
                // tick of simulated time (see `Hooks::idle`) — otherwise
                // the drain tail would fake stalls the rotation cadence
                // actually hides.
                op.idle();
            }
            // Wrap at the activated high-water mark, not `M`: slots that
            // never held a lookup must not be visited (each visit would
            // charge a phantom idle tick).
            self.k += 1;
            if self.k >= self.hi {
                self.k = 0;
            }
        }
        // Fully drained: re-align with a fresh run so the next feed's
        // fill starts at slot 0 of an empty window.
        self.k = 0;
        self.hi = 0;
        op.flush(stats);
        true
    }
}

impl<S: Default> AmacSession<MuxState<S>> {
    /// Feed untagged `inputs` to one lane of a shared [`Mux`] window, as
    /// one call (a serving scheduler's quantum). The lane's op leaves the
    /// lane table for the call and runs its own stages: plain ones over a
    /// tally in the call's locals, metered ones synced with window time
    /// stage by stage when its context keeps time. Only slots still held
    /// by other lanes go through the mux, one out-of-line stage each. The
    /// lane's lifecycle counters are settled once, from this feed's
    /// counts, and every lane's commit group is sealed at the feed end.
    ///
    /// Panics on a vacant or cancelled lane: a cancelled lane takes no
    /// new inputs.
    pub fn feed_lane<T: LookupOp<State = S>>(
        &mut self,
        mux: &mut Mux<T>,
        lane: u32,
        inputs: &[T::Input],
        stats: &mut EngineStats,
    ) {
        // The lane view's settlement reads this feed's counts off the
        // stats it flushes into, so they start at zero.
        let mut feed = EngineStats::default();
        let mut op = mux.take(lane);
        self.feed(&mut LaneView::feeding(mux, lane, &mut op), inputs, &mut feed);
        mux.put_back(lane, op);
        stats.merge(&feed);
    }

    /// [`drain_budgeted`](AmacSession::drain_budgeted) of a shared [`Mux`]
    /// window: every slot's stage is routed to the lane that holds it.
    pub fn drain_lanes<T: LookupOp<State = S>>(
        &mut self,
        mux: &mut Mux<T>,
        stats: &mut EngineStats,
        max_rotations: usize,
    ) -> bool {
        // A drain feeds no lane, so its call is never plain.
        self.drain_in(Call::metered(&mut LaneView::draining(mux)), stats, max_rotations)
    }
}

/// Lookahead (see the [engine docs](crate::engine)): an input entered the
/// window, so request stage 0 of the feed's input `at`, one window width
/// later, if the feed has it.
#[inline(always)]
fn look_ahead<O: LookupOp, const PLAIN: bool>(
    op: &Call<'_, O, PLAIN>,
    ahead: bool,
    inputs: &[O::Input],
    at: usize,
) {
    if ahead {
        if let Some(&input) = inputs.get(at) {
            op.lookahead(input);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::amac_exec::rotate;
    use crate::engine::run_amac;
    use crate::engine::testutil::{ChainOp, ChainState, LatchedOp};

    /// Feed `inputs` to an `m`-wide window in `chunk`-sized feeds, drain.
    fn windowed<O>(op: &mut O, inputs: &[usize], m: usize, chunk: usize) -> EngineStats
    where
        O: LookupOp<Input = usize>,
    {
        let mut stats = EngineStats::default();
        let mut session = AmacSession::new(m);
        for morsel in inputs.chunks(chunk) {
            session.feed(op, morsel, &mut stats);
        }
        session.drain(op, &mut stats);
        stats
    }

    #[test]
    fn morsel_feed_matches_single_run_exactly() {
        // Under any chunking the window is the `(merge, !modulo)`
        // reference loop: counters, results and completion order.
        const M: usize = 10;
        let chains: Vec<usize> = (0..500).map(|i| 1 + (i * 13) % 7).collect();
        let inputs: Vec<usize> = (0..chains.len()).collect();
        let mut whole = ChainOp::new(&chains);
        let want = rotate(&mut whole, &inputs, M, true, false);
        let mut whole_latched = LatchedOp::new(inputs.len());
        let want_latched = rotate(&mut whole_latched, &inputs, M, true, false);
        assert!(want_latched.latch_retries > 0, "the latched schedule must exercise Blocked");
        for chunk in [1, M - 1, M, 37, inputs.len()] {
            // `ChainOp` looks ahead; `rotate` never does.
            let mut op = ChainOp::new(&chains);
            assert_eq!(windowed(&mut op, &inputs, M, chunk), want, "chunk {chunk}: counters");
            assert_eq!(op.outputs, whole.outputs, "chunk {chunk}: results");
            assert_eq!(op.completed, whole.completed, "chunk {chunk}: completion order");
            let mut op = LatchedOp::new(inputs.len());
            assert_eq!(
                windowed(&mut op, &inputs, M, chunk),
                want_latched,
                "latched, chunk {chunk}"
            );
            assert_eq!(op.completed, whole_latched.completed, "latched, chunk {chunk}");
        }
        // The one-shot executor is the whole-input row of that table.
        let mut op = ChainOp::new(&chains);
        assert_eq!(run_amac(&mut op, &inputs, M), want);
        assert_eq!(op.completed, whole.completed);
    }

    #[test]
    fn lookahead_asks_for_each_feed_from_m_on() {
        // Each feed asks for its own inputs at positions >= M, in input
        // order, and never for one past its slice: the lookahead does not
        // cross feeds, also not into a feed after a full drain.
        const M: usize = 10;
        let chains: Vec<usize> = (0..500).map(|i| 1 + (i * 13) % 7).collect();
        let inputs: Vec<usize> = (0..chains.len()).collect();
        for chunk in [1, M - 1, M, 37, inputs.len()] {
            let mut op = ChainOp::new(&chains);
            let mut session = AmacSession::new(M);
            let mut stats = EngineStats::default();
            let mut want = Vec::new();
            for morsel in inputs.chunks(chunk) {
                session.feed(&mut op, morsel, &mut stats);
                want.extend(morsel.iter().skip(M));
                assert_eq!(*op.looked.borrow(), want, "chunk {chunk}");
            }
            session.drain(&mut op, &mut stats);
            assert_eq!(*op.looked.borrow(), want, "chunk {chunk}: the drain looks ahead");
            let again = &inputs[..chunk];
            session.feed(&mut op, again, &mut stats);
            want.extend(again.iter().skip(M));
            assert_eq!(*op.looked.borrow(), want, "chunk {chunk}: feed after a drain");
        }
        // An op that does not look ahead is never asked, and neither is
        // one in a window of `LOOKAHEAD_BELOW` slots or more.
        let mut op = ChainOp::new(&chains);
        op.ahead = false;
        windowed(&mut op, &inputs, M, 37);
        assert!(op.looked.borrow().is_empty());
        let mut op = ChainOp::new(&chains);
        windowed(&mut op, &inputs, LOOKAHEAD_BELOW, 37);
        assert!(op.looked.borrow().is_empty(), "M = {LOOKAHEAD_BELOW}");
        windowed(&mut op, &inputs, LOOKAHEAD_BELOW - 1, 37);
        assert!(!op.looked.borrow().is_empty(), "M = {}", LOOKAHEAD_BELOW - 1);
    }

    #[test]
    fn window_stays_full_between_morsels() {
        let chains = vec![5usize; 256];
        let inputs: Vec<usize> = (0..256).collect();
        let mut op = ChainOp::new(&chains);
        let mut session = AmacSession::new(8);
        let mut stats = EngineStats::default();
        for morsel in inputs.chunks(32) {
            session.feed(&mut op, morsel, &mut stats);
            assert_eq!(session.in_flight(), 8, "window drained at a morsel boundary");
        }
        session.drain(&mut op, &mut stats);
        assert_eq!(session.in_flight(), 0);
        assert_eq!(stats.lookups, 256);
    }

    #[test]
    fn morsel_smaller_than_window() {
        let chains = vec![3usize; 20];
        let inputs: Vec<usize> = (0..20).collect();
        let mut op = ChainOp::new(&chains);
        assert_eq!(windowed(&mut op, &inputs, 16, 4).lookups, 20);
        assert_eq!(op.outputs.len(), 20);
    }

    #[test]
    fn occupancy_tracks_window_fill() {
        // Derived, not counted: the session's mean must equal the op-side
        // per-rotation recount bit for bit wherever it is read.
        let recounted = |session: &AmacSession<ChainState>, op: &ChainOp, at: &str| {
            let want = op.seen.occ_sum as f64 / op.seen.occ_ticks as f64;
            assert_eq!(session.mean_occupancy().to_bits(), want.to_bits(), "{at}");
        };
        // Long feed: occupancy should sit at (nearly) full capacity.
        let chains = vec![4usize; 4096];
        let inputs: Vec<usize> = (0..4096).collect();
        let mut op = ChainOp::new(&chains);
        let mut session = AmacSession::new(8);
        let mut stats = EngineStats::default();
        for morsel in inputs[..2048].chunks(256) {
            session.feed(&mut op, morsel, &mut stats);
            recounted(&session, &op, "after a feed");
        }
        // A drain that gives up mid-window, then feeds that refill it.
        while session.in_flight() == 8 {
            assert!(!session.drain_budgeted(&mut op, &mut stats, 3));
        }
        assert!(session.in_flight() > 0, "gave up mid-window");
        recounted(&session, &op, "after a budgeted drain");
        for morsel in inputs[2048..].chunks(256) {
            session.feed(&mut op, morsel, &mut stats);
            recounted(&session, &op, "after refilling a half-drained window");
        }
        let fed = session.mean_occupancy();
        assert!(fed > 7.0 && fed <= 8.0, "steady-state occupancy {fed} not near M=8");
        // The drain tail decays 8→0 and drags the mean down, but never
        // below half the window on this workload.
        session.drain(&mut op, &mut stats);
        recounted(&session, &op, "after the final drain");
        let drained = session.mean_occupancy();
        assert!(drained > 4.0 && drained <= fed, "post-drain occupancy {drained}");
        assert_eq!(stats.lookups, 4096);
    }

    #[test]
    fn budgeted_drain_gives_up_on_a_wedged_op_and_resumes() {
        /// An op whose lookups block forever until `release` flips.
        struct Wedge {
            release: bool,
        }
        impl LookupOp for Wedge {
            type Input = usize;
            type State = usize;
            type Tally = ();
            type Output = core::convert::Infallible;
            fn start<const PLAIN: bool>(&mut self, _: &mut (), _input: usize, _state: &mut usize) {}
            fn step<const PLAIN: bool>(&mut self, _: &mut (), _state: &mut usize) -> Step {
                if self.release {
                    Step::Done
                } else {
                    Step::Blocked
                }
            }
        }

        let mut op = Wedge { release: false };
        let mut session: AmacSession<usize> = AmacSession::new(4);
        let mut stats = EngineStats::default();
        session.feed(&mut op, &[0, 1, 2, 3], &mut stats);
        // The wedged window burns exactly its budget and reports failure.
        assert!(!session.drain_budgeted(&mut op, &mut stats, 100));
        assert_eq!(session.in_flight(), 4, "nothing retired while wedged");
        assert_eq!(stats.latch_retries, 100, "every budgeted rotation was a spin");
        // Once the latch frees, the same session drains to completion.
        op.release = true;
        assert!(session.drain_budgeted(&mut op, &mut stats, 100));
        assert_eq!(session.in_flight(), 0);
        assert_eq!(stats.lookups, 4);
    }

    #[test]
    fn drained_window_idle_ticks_match_the_one_shot_executor() {
        // Fewer inputs than M: the reference loop clamps its window to 4
        // slots, so its drain never visits — or charges idle time for —
        // the 6 slots a 10-wide session also leaves empty. The session
        // must agree tick for tick (a rotation that wrapped at M would
        // charge a phantom idle tick per empty slot per rotation).
        let chains: Vec<usize> = vec![3, 1, 4, 2];
        let inputs: Vec<usize> = (0..chains.len()).collect();
        let mut whole = ChainOp::new(&chains);
        let want = rotate(&mut whole, &inputs, 10, true, false);
        assert!(whole.seen.idle > 0, "the drain tail must visit drained slots");

        let mut op = ChainOp::new(&chains);
        let mut session = AmacSession::new(10);
        // The reset on full drain keeps a *reused* session aligned too.
        for round in 1..=2 {
            let mut stats = EngineStats::default();
            session.feed(&mut op, &inputs, &mut stats);
            session.drain(&mut op, &mut stats);
            assert_eq!(stats, want, "round {round}: counters diverged from the reference");
            assert_eq!(op.seen.idle, round * whole.seen.idle, "round {round}: idle ticks");
            assert_eq!(op.outputs, whole.outputs);
        }
    }

    /// A [`ChainOp`] that takes the batch stage: it walks each input's
    /// chain to its end, one node per step, and counts its batches.
    struct Batching(ChainOp, usize);

    impl LookupOp for Batching {
        type Input = usize;
        type State = ChainState;
        type Tally = ();
        type Output = core::convert::Infallible;

        fn start<const PLAIN: bool>(&mut self, t: &mut (), input: usize, state: &mut ChainState) {
            self.0.start::<PLAIN>(t, input, state);
        }

        fn step<const PLAIN: bool>(&mut self, t: &mut (), state: &mut ChainState) -> Step {
            self.0.step::<PLAIN>(t, state)
        }

        fn ctx(&mut self) -> impl crate::engine::Hooks + '_ {
            self.0.ctx()
        }

        fn batch(&mut self, t: &mut (), inputs: &[usize], _: usize) -> Option<u64> {
            self.1 += 1;
            let mut nodes = 0;
            for &input in inputs {
                let mut state = ChainState::default();
                self.0.start::<true>(t, input, &mut state);
                nodes += 1;
                while self.0.step::<true>(t, &mut state) == Step::Continue {
                    nodes += 1;
                }
            }
            Some(nodes)
        }
    }

    #[test]
    fn only_a_plain_call_into_an_empty_window_takes_the_batch_stage() {
        const M: usize = 10;
        let chains: Vec<usize> = (0..500).map(|i| 1 + (i * 13) % 7).collect();
        let inputs: Vec<usize> = (0..chains.len()).collect();
        let mut scalar = ChainOp::new(&chains);
        let want = run_amac(&mut scalar, &inputs, M);
        let batching = |plain| {
            let mut op = Batching(ChainOp::new(&chains), 0);
            op.0.seen.plain = plain;
            op
        };
        // The one-shot executor: one batch on a plain call, none otherwise.
        for plain in [true, false] {
            let mut op = batching(plain);
            assert_eq!(run_amac(&mut op, &inputs, M), want, "plain {plain}");
            assert_eq!((op.1, &op.0.outputs), (plain as usize, &scalar.outputs), "plain {plain}");
        }
        // Plain feeds into an empty window each take it. A short metered
        // feed leaves slots live, and the plain feeds after it run the
        // window.
        let mut op = batching(true);
        let (mut session, mut stats) = (AmacSession::new(M), EngineStats::default());
        let cuts = [0, 100, 200, 205, 300, 500];
        for (i, at) in cuts.windows(2).enumerate() {
            op.0.seen.plain = i != 2;
            session.feed(&mut op, &inputs[at[0]..at[1]], &mut stats);
            assert_eq!(session.in_flight(), [0, 0, 5, M, M][i], "feed {i}");
        }
        session.drain(&mut op, &mut stats);
        assert_eq!((stats, op.1, &op.0.outputs), (want, 2, &scalar.outputs));
    }

    #[test]
    fn occupancy_zero_before_any_work() {
        let session: AmacSession<ChainState> = AmacSession::new(4);
        assert_eq!(session.mean_occupancy(), 0.0);
    }

    #[test]
    fn empty_feed_and_drain_are_noops() {
        let chains: Vec<usize> = vec![];
        let mut op = ChainOp::new(&chains);
        let mut session: AmacSession<ChainState> = AmacSession::new(4);
        let mut stats = EngineStats::default();
        session.feed(&mut op, &[], &mut stats);
        session.drain(&mut op, &mut stats);
        assert_eq!(stats, EngineStats::default());
    }
}
