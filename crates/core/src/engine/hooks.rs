//! The cross-cutting protocol between an op's execution context and the
//! layers that drive it, declared once.
//!
//! Everything an op carries beside its table pointer — simulated clock,
//! fault plan, line coalescer, prefetch hint, tracer, observation ledger —
//! lives in one context (`amac_tier::ExecCtx`) reached through
//! [`LookupOp::ctx`](super::LookupOp::ctx). Executors, the morsel runtime,
//! fused chains, the mux and the serving layer talk to that context only
//! through [`Hooks`]; none of them knows what is behind it.
//!
//! Every method but [`plain`](Hooks::plain) defaults to "no context":
//! nothing to advance, flush or trace, and prefetches are unconditional.
//! `()` takes all the defaults and is plain, so an op that never
//! overrides `ctx` (tree, skip-list and closure searches, test ops) runs
//! the bare executor loop's plain call with the hook calls compiled away.

use super::EngineStats;
use amac_trace::{TraceEvent, Tracer};

/// What a composition layer may ask of an op's execution context.
pub trait Hooks {
    /// Whether the context is *plain* — it keeps no time, coalesces
    /// nothing, traces nothing and prefetches with the paper's hint — so
    /// an executor call may run the op's plain stages and skip every hook
    /// but [`flush`](Hooks::flush). Asked once per call (see "One mode
    /// per call" in the [engine docs](super)). `false` by default: a
    /// context is metered unless it says otherwise.
    #[inline(always)]
    fn plain(&self) -> bool {
        false
    }

    /// Let `ticks` of simulated time pass without the op executing a
    /// stage. Executors call this once per visit to an idle window slot
    /// (a GP/SPP no-op check, a drained AMAC slot) so a tiered op's clock
    /// keeps pace with the rotation; without it a draining window would
    /// fake stalls a real rotation hides.
    #[inline(always)]
    fn idle(&mut self, ticks: u64) {
        let _ = ticks;
    }

    /// Current simulated time (0 without a clock). Composition layers
    /// read it to keep member clocks in lock-step.
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    /// Lift the clock to `now` if it is behind; a stale `now` is a no-op.
    /// Before routing a stage to a member, a composition layer advances
    /// it to the shared window's time, so stages other members executed
    /// count toward this member's prefetch distances.
    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        let _ = now;
    }

    /// Whether this context keeps simulated time: `false` promises that
    /// [`now`](Hooks::now) stays 0 and [`advance_to`](Hooks::advance_to)
    /// does nothing, so a composition layer may skip both. Fixed for the
    /// context's lifetime; the mux samples it once per lane.
    #[inline(always)]
    fn keeps_time(&self) -> bool {
        false
    }

    /// Seal the current commit group: lanes born later cannot coalesce
    /// against loads issued before this point. GP seals after each
    /// group's start pass, the baseline after each lookup, the morsel
    /// runtime at feed ends; AMAC and SPP slide, and rely on the
    /// context's automatic advance every `G` lane births.
    #[inline(always)]
    fn commit_group(&mut self) {}

    /// Drain the observation ledger (nodes visited, tag rejects,
    /// simulated ticks, issued/coalesced loads, WAL charges) into `stats`
    /// and reset it. Executors call this at the end of a run and the
    /// morsel runtime after each feed/drain; drain-and-reset is what
    /// keeps counts exact when one op serves many morsels.
    #[inline(always)]
    fn flush(&mut self, stats: &mut EngineStats) {
        let _ = stats;
    }

    /// Whether `start`/`Continue` stages really issue their prefetch.
    /// Executors multiply the one-per-stage convention count by this, so
    /// the `PrefetchHint::None` ablation reports 0.
    #[inline(always)]
    fn issues_prefetches(&self) -> bool {
        true
    }

    /// Install a tracer. Tracing reads the clock and never advances it:
    /// results and counters are bit-identical with tracing on or off.
    #[inline(always)]
    fn set_tracer(&mut self, tracer: Tracer) {
        let _ = tracer;
    }

    /// Remove and return the tracer (disabled when none was installed).
    #[inline(always)]
    fn take_tracer(&mut self) -> Tracer {
        Tracer::off()
    }

    /// Whether events are being recorded — the one branch a caller pays
    /// before building an event for [`trace`](Hooks::trace).
    #[inline(always)]
    fn tracing(&self) -> bool {
        false
    }

    /// Record an event built by a layer above the op (morsel boundaries,
    /// deadline instants).
    #[inline(always)]
    fn trace(&mut self, ev: TraceEvent) {
        let _ = ev;
    }
}

/// No context: plain, and every other hook keeps its default.
impl Hooks for () {
    #[inline(always)]
    fn plain(&self) -> bool {
        true
    }
}

/// A borrowed context, as returned by an op that owns one.
impl<H: Hooks + ?Sized> Hooks for &mut H {
    #[inline(always)]
    fn plain(&self) -> bool {
        (**self).plain()
    }

    #[inline(always)]
    fn idle(&mut self, ticks: u64) {
        (**self).idle(ticks);
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        (**self).now()
    }

    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        (**self).advance_to(now);
    }

    #[inline(always)]
    fn keeps_time(&self) -> bool {
        (**self).keeps_time()
    }

    #[inline(always)]
    fn commit_group(&mut self) {
        (**self).commit_group();
    }

    #[inline(always)]
    fn flush(&mut self, stats: &mut EngineStats) {
        (**self).flush(stats);
    }

    #[inline(always)]
    fn issues_prefetches(&self) -> bool {
        (**self).issues_prefetches()
    }

    #[inline(always)]
    fn set_tracer(&mut self, tracer: Tracer) {
        (**self).set_tracer(tracer);
    }

    #[inline(always)]
    fn take_tracer(&mut self) -> Tracer {
        (**self).take_tracer()
    }

    #[inline(always)]
    fn tracing(&self) -> bool {
        (**self).tracing()
    }

    #[inline(always)]
    fn trace(&mut self, ev: TraceEvent) {
        (**self).trace(ev);
    }
}

/// The contexts of a fused chain's upstream and downstream members.
///
/// Each member keeps its own clock, coalescer and ledger; the pair makes
/// them look like one: time is the later of the two clocks, advancing
/// lifts both, a tracer forks across both and merges back up-then-down,
/// and an externally built event lands upstream. The downstream side is
/// optional so a sum-type op whose variants hold one or two contexts can
/// return a single type; `None` leaves exactly the upstream context.
impl<A: Hooks, B: Hooks> Hooks for (A, Option<B>) {
    /// Plain only when both members are.
    #[inline(always)]
    fn plain(&self) -> bool {
        self.0.plain() && self.1.as_ref().is_none_or(B::plain)
    }

    #[inline(always)]
    fn idle(&mut self, ticks: u64) {
        let t = self.now() + ticks;
        self.advance_to(t);
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.0.now().max(self.1.as_ref().map_or(0, B::now))
    }

    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        self.0.advance_to(now);
        if let Some(down) = &mut self.1 {
            down.advance_to(now);
        }
    }

    /// True if either member keeps time: the pair's `now` is theirs.
    #[inline(always)]
    fn keeps_time(&self) -> bool {
        self.0.keeps_time() || self.1.as_ref().is_some_and(B::keeps_time)
    }

    #[inline(always)]
    fn commit_group(&mut self) {
        self.0.commit_group();
        if let Some(down) = &mut self.1 {
            down.commit_group();
        }
    }

    #[inline(always)]
    fn flush(&mut self, stats: &mut EngineStats) {
        self.0.flush(stats);
        if let Some(down) = &mut self.1 {
            down.flush(stats);
        }
    }

    /// True if either member prefetches: the counter keeps convention
    /// granularity, not per-member granularity.
    #[inline(always)]
    fn issues_prefetches(&self) -> bool {
        self.0.issues_prefetches() || self.1.as_ref().is_some_and(B::issues_prefetches)
    }

    #[inline(always)]
    fn set_tracer(&mut self, tracer: Tracer) {
        if let Some(down) = &mut self.1 {
            down.set_tracer(tracer.fork());
        }
        self.0.set_tracer(tracer);
    }

    #[inline(always)]
    fn take_tracer(&mut self) -> Tracer {
        let mut t = self.0.take_tracer();
        if let Some(down) = &mut self.1 {
            t.merge(down.take_tracer());
        }
        t
    }

    #[inline(always)]
    fn tracing(&self) -> bool {
        self.0.tracing() || self.1.as_ref().is_some_and(B::tracing)
    }

    #[inline(always)]
    fn trace(&mut self, ev: TraceEvent) {
        self.0.trace(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy context: a bare clock, a flush counter and a tracer.
    #[derive(Default)]
    struct Toy {
        now: u64,
        sealed: u32,
        nodes: u64,
        prefetches: bool,
        tracer: Tracer,
    }

    impl Hooks for Toy {
        fn idle(&mut self, ticks: u64) {
            self.now += ticks;
        }
        fn now(&self) -> u64 {
            self.now
        }
        fn advance_to(&mut self, now: u64) {
            self.now = self.now.max(now);
        }
        fn keeps_time(&self) -> bool {
            true
        }
        fn commit_group(&mut self) {
            self.sealed += 1;
        }
        fn flush(&mut self, stats: &mut EngineStats) {
            stats.nodes_visited += core::mem::take(&mut self.nodes);
        }
        fn issues_prefetches(&self) -> bool {
            self.prefetches
        }
        fn set_tracer(&mut self, tracer: Tracer) {
            self.tracer = tracer;
        }
        fn take_tracer(&mut self) -> Tracer {
            self.tracer.take()
        }
        fn tracing(&self) -> bool {
            self.tracer.enabled()
        }
        fn trace(&mut self, ev: TraceEvent) {
            self.tracer.record(ev);
        }
    }

    fn toy(now: u64, nodes: u64) -> Toy {
        Toy { now, nodes, ..Default::default() }
    }

    #[test]
    fn unit_context_is_inert_and_prefetches() {
        let mut cx = ();
        assert!(cx.plain(), "no context = a plain call");
        cx.idle(5);
        cx.advance_to(9);
        cx.commit_group();
        assert_eq!(cx.now(), 0);
        let mut stats = EngineStats::default();
        cx.flush(&mut stats);
        assert_eq!(stats, EngineStats::default());
        assert!(cx.issues_prefetches(), "no context = unconditional prefetches");
        cx.set_tracer(Tracer::on());
        assert!(!cx.tracing());
        cx.trace(TraceEvent::morsel(0, 0, 1));
        assert!(!cx.take_tracer().enabled());
    }

    #[test]
    fn pair_keeps_members_in_lock_step() {
        let (mut up, mut down) = (toy(3, 2), toy(7, 5));
        let mut pair = (&mut up, Some(&mut down));
        assert_eq!(pair.now(), 7, "now = the later member clock");
        pair.idle(4);
        assert_eq!(pair.now(), 11);
        pair.advance_to(10);
        pair.commit_group();
        let mut stats = EngineStats::default();
        pair.flush(&mut stats);
        assert_eq!(stats.nodes_visited, 7, "flush drains both members");
        assert_eq!((up.now, down.now), (11, 11), "idle lifts BOTH members to max + ticks");
        assert_eq!((up.sealed, down.sealed), (1, 1));
    }

    #[test]
    fn pair_prefetch_gate_is_either_member() {
        let (mut a, mut b) = (toy(0, 0), toy(0, 0));
        assert!(!(&mut a, Some(&mut b)).issues_prefetches());
        b.prefetches = true;
        assert!((&mut a, Some(&mut b)).issues_prefetches());
        assert!(!(&mut a, None::<&mut Toy>).issues_prefetches(), "an absent member never votes");
    }

    #[test]
    fn time_is_kept_by_a_clock_anywhere_in_the_context() {
        let mut clock = toy(0, 0);
        assert!(!().keeps_time(), "no context, no clock");
        assert!(!((), None::<()>).keeps_time());
        // Members are borrows, so this also goes through `&mut H`.
        assert!(((), Some(&mut clock)).keeps_time(), "a clocked downstream member counts");
        assert!((&mut clock, None::<()>).keeps_time());
        // The mode follows the same rule: a pair is plain only when both
        // members are.
        assert!(((), None::<()>).plain() && ((), Some(())).plain());
        assert!(!((), Some(&mut clock)).plain(), "a metered downstream member counts");
        assert!(!(&mut clock, None::<()>).plain());
    }

    #[test]
    fn pair_forks_the_tracer_and_merges_up_then_down() {
        let (mut up, mut down) = (toy(0, 0), toy(0, 0));
        let mut pair = (&mut up, Some(&mut down));
        assert!(!pair.tracing());
        pair.set_tracer(Tracer::on());
        assert!(pair.tracing());
        // An externally built event lands upstream only.
        pair.trace(TraceEvent::morsel(1, 0, 10));
        assert_eq!((up.tracer.len(), down.tracer.len()), (1, 0));
        assert!(down.tracer.enabled(), "downstream got its own fork");
        down.trace(TraceEvent::morsel(2, 0, 20));
        up.trace(TraceEvent::morsel(3, 0, 30));
        let merged = (&mut up, Some(&mut down)).take_tracer();
        let at: Vec<u64> = merged.events().map(|e| e.at).collect();
        assert_eq!(at, [1, 3, 2], "upstream's events first, then downstream's");
        assert!(!up.tracing() && !down.tracing(), "take leaves both members disabled");
    }

    #[test]
    fn pair_without_downstream_is_the_upstream_context() {
        let mut up = toy(4, 3);
        let mut pair = (&mut up, None::<&mut Toy>);
        pair.idle(2);
        assert_eq!(pair.now(), 6);
        pair.set_tracer(Tracer::on());
        pair.trace(TraceEvent::morsel(6, 0, 1));
        assert_eq!(pair.take_tracer().len(), 1);
        let mut stats = EngineStats::default();
        pair.flush(&mut stats);
        assert_eq!(stats.nodes_visited, 3);
    }
}
