//! Tiered far-memory placement and a **deterministic** latency cost model.
//!
//! The paper's claim is about *latency tolerance*: a deep in-flight window
//! hides the latency of dependent chain loads. Every counter this repo
//! gated before this crate (`nodes_per_lookup`, tag rejects, passes/bytes)
//! measures *work*, not tolerance — on a 1-CPU CI host wall time cannot
//! show hiding either. The far-memory line of follow-up work (AMAU,
//! arxiv 2404.11044; Twin-Load, arxiv 1505.03476) frames the setting
//! where tolerance matters most: structures partially resident in
//! CXL-class memory whose loads cost many× DRAM latency.
//!
//! This crate makes that setting measurable without far-memory hardware:
//!
//! * [`TierPolicy`] assigns each memory region — the bucket-header array
//!   and every [`IndexedArena`](amac_mem::arena::IndexedArena) slab — to
//!   a [`Tier::Near`] or [`Tier::Far`] tier;
//! * [`CostModel`] prices a load per tier in simulated ticks;
//! * [`SimClock`] charges a per-op simulated clock: a prefetch issues an
//!   asynchronous load completing at `now + tier_latency`, and a code
//!   stage that dereferences the line *earlier* stalls until it arrives.
//!   The accumulated [`sim_cycles`](amac::engine::EngineStats::sim_cycles)
//!   (work ticks) and [`sim_stalls`](amac::engine::EngineStats::sim_stalls)
//!   (exposed-latency ticks) drain into `EngineStats` with the rest of
//!   the op's ledger, so Mux lane ledgers and morsel-session reuse stay
//!   exact;
//! * [`ExecCtx`] is what an op actually holds: the clock plus everything
//!   else that is cross-cutting (fault plan, line coalescer, prefetch
//!   hint, tracer, observation ledger) — see the [`ctx`] module.
//!
//! # Tick rules
//!
//! The clock is a pure counter — no `rdtsc`, no `Instant` — so every
//! derived metric is bit-reproducible:
//!
//! 1. every executed code stage (`start`, productive or blocked `step`)
//!    costs **one tick**, charged to `sim_cycles`;
//! 2. every executor visit to an idle window slot (a GP/SPP no-op check,
//!    a drained AMAC slot) costs **one tick** too, forwarded by the
//!    executors via `Hooks::idle` — charged to elapsed time only,
//!    never to `sim_cycles` (so `sim_cycles` is identical across thread
//!    counts and schedulings);
//! 3. a prefetch records `ready_at = now + latency(tier)`; the step that
//!    dereferences the line first advances `now` to `ready_at` if it got
//!    there early, charging the difference to `sim_stalls`.
//!
//! An executor that re-touches a slot after `latency` other slot visits
//! therefore stalls **zero** ticks — exactly the paper's hiding argument,
//! now as arithmetic: AMAC with window `M > latency` stays stall-free at
//! any far multiplier, while GP's sequential bailout stages expose
//! `latency − 1` ticks each, so its stall share grows linearly with the
//! far multiplier (`bench tier` sweeps and gates this shape).
//!
//! # Quickstart
//!
//! This doctest is mirrored as the first half of `examples/tier.rs`
//! (run it with `cargo run --release --example tier`; the example's
//! second half sweeps the real probe operator, which this crate cannot
//! depend on):
//!
//! ```
//! use amac::engine::{EngineStats, Hooks, TuningParams};
//! use amac_tier::{AddrClass, CostModel, ExecCtx, ExecSpec, Tier, TierPolicy, TierSpec};
//!
//! // Chain nodes in far memory at 8x DRAM latency, headers near; a
//! // cross-shard copy of the same structure would cost 16x per load.
//! let spec = TierSpec {
//!     model: CostModel {
//!         near_latency: 4,
//!         far_multiplier: 8,
//!         write_multiplier: 4,
//!         remote_multiplier: 16,
//!     },
//!     policy: TierPolicy::HeadersNear,
//! };
//! assert_eq!(spec.model.latency(Tier::Near), 4);
//! assert_eq!(spec.model.latency(Tier::Far), 32);
//! assert_eq!(spec.model.latency(Tier::Remote), 64);
//! assert_eq!(spec.policy.header_tier(), Tier::Near);
//! assert_eq!(spec.policy.slab_tier(), Tier::Far);
//!
//! // The context an op embeds: request, do other work, dereference.
//! let mut cx = ExecCtx::new(&ExecSpec { tier: Some(spec), ..Default::default() });
//! let lane = cx.begin_lane();         // stage 0 executes (1 tick)
//! let node = AddrClass::Slab { slab: 0, line: 0 };
//! let t = cx.request(node, 0, lane);  // async load lands at now + 32
//! for _ in 0..10 {
//!     cx.idle(1);                     // only 10 ticks of other work...
//! }
//! cx.wait(t.ready_at);                // ...so the deref stalls 22 ticks
//! cx.stage();
//! let mut stats = EngineStats::default();
//! cx.flush(&mut stats);
//! assert_eq!(stats.sim_cycles, 2);
//! assert_eq!(stats.sim_stalls, 22);
//!
//! // A window deeper than the far latency would have hidden all of it:
//! // TuningParams::auto_sim picks that window from the simulated clock.
//! let _ = TuningParams::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crash;
pub mod ctx;
mod fault;
mod wal;

pub use crash::CrashPlan;
pub use ctx::{AddrClass, ExecCtx, ExecSpec, Ledger, Ticket};
pub use fault::{fault_token, FaultPlan};
pub use wal::{Wal, WalRecord};

use amac::engine::EngineStats;

/// Which memory tier a region lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Local DRAM: loads cost [`CostModel::near_latency`] ticks.
    Near,
    /// Far/CXL-class memory: loads cost `near_latency × far_multiplier`.
    Far,
    /// Another shard's memory across the simulated interconnect: loads
    /// cost `near_latency × remote_multiplier` and each one is a
    /// request/response message-hop pair carrying one 64-byte cache line
    /// (counted into [`EngineStats::remote_loads`] /
    /// [`EngineStats::remote_bytes`](amac::engine::EngineStats::remote_bytes)).
    Remote,
}

/// Bytes one remote load moves across the interconnect: a request for —
/// and a response carrying — one cache line.
pub const REMOTE_LINE_BYTES: u64 = 64;

/// Convert a [`Tier`] into the tracing layer's tier label. Lives here
/// (rather than in `amac_trace`) because the tracing crate sits below
/// this one in the dependency graph: it must not know about tier types.
pub fn trace_tier(t: Tier) -> amac_trace::TierKind {
    match t {
        Tier::Near => amac_trace::TierKind::Near,
        Tier::Far => amac_trace::TierKind::Far,
        Tier::Remote => amac_trace::TierKind::Remote,
    }
}

/// Deterministic load-latency model, in simulated ticks.
///
/// One tick is one executed code stage (see the crate docs' tick rules),
/// so `near_latency = 4` reads as "a DRAM load takes as long as four code
/// stages" — the same shape as the paper's cycles-per-stage vs
/// memory-latency argument, scaled down so CI-sized windows exercise it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Ticks from prefetch issue to line arrival in the near tier.
    pub near_latency: u64,
    /// Far latency as a multiple of near (`1` = no far penalty — the
    /// tiering-off reference every sweep compares against).
    pub far_multiplier: u64,
    /// Persistent-log *write* latency as a multiple of `near_latency` —
    /// the asymmetric NVM write cost ("A Case for Asymmetric Non-Volatile
    /// Memory Architecture", arxiv 1809.09395: NVM writes are several×
    /// slower than reads). Charged per appended [`WalRecord`], amortized
    /// over the AMU commit group by group commit (see
    /// `EngineStats::log_stalls`).
    pub write_multiplier: u64,
    /// Remote (cross-shard) latency as a multiple of `near_latency` —
    /// one interconnect message-hop pair. Should exceed `far_multiplier`:
    /// the narrow interface of Twin-Load-class designs costs more than a
    /// local CXL load.
    pub remote_multiplier: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { near_latency: 4, far_multiplier: 1, write_multiplier: 4, remote_multiplier: 16 }
    }
}

impl CostModel {
    /// The default model at a given far multiplier (the sweep axis of
    /// `bench tier`).
    pub fn with_multiplier(far_multiplier: u64) -> Self {
        CostModel { far_multiplier: far_multiplier.max(1), ..Default::default() }
    }

    /// The default model at a given remote multiplier (the cross-shard
    /// axis of `bench shard`).
    pub fn with_remote(remote_multiplier: u64) -> Self {
        CostModel { remote_multiplier: remote_multiplier.max(1), ..Default::default() }
    }

    /// Ticks from prefetch issue to line arrival in `tier`.
    #[inline(always)]
    pub fn latency(&self, tier: Tier) -> u64 {
        match tier {
            Tier::Near => self.near_latency,
            Tier::Far => self.near_latency * self.far_multiplier.max(1),
            Tier::Remote => self.near_latency * self.remote_multiplier.max(1),
        }
    }

    /// The far-tier latency (`latency(Tier::Far)`) — what
    /// `TuningParams::auto_sim` must out-window to stay stall-free.
    #[inline]
    pub fn far_latency(&self) -> u64 {
        self.latency(Tier::Far)
    }

    /// Ticks one persistent log write takes:
    /// `near_latency × write_multiplier` — the asymmetric write cost the
    /// WAL charges per record before group-commit amortization.
    #[inline]
    pub fn write_latency(&self) -> u64 {
        self.near_latency * self.write_multiplier.max(1)
    }
}

/// Placement policy: which tier each memory region is assigned to.
///
/// Regions are structural, matching how the tables allocate: the bucket
/// **header array** (touched by code stage 0 of every lookup) and the
/// **chain-node slabs** of the table's `IndexedArena` (touched by every
/// later hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPolicy {
    /// Everything in DRAM — the cost model's control group.
    AllNear,
    /// Headers (hot, dense, one per bucket) pinned near; every chain-node
    /// slab far. This is the "payloads far / headers near" placement: the
    /// working set that fits in DRAM stays there, the long tail of
    /// overflow nodes pays far latency.
    HeadersNear,
    /// The whole structure lives on **another shard**: headers and every
    /// slab are priced at [`Tier::Remote`] and each load crosses the
    /// simulated interconnect. This is how a cross-shard probe reuses the
    /// local operators unchanged — same state machines, remote prices.
    Remote,
}

impl TierPolicy {
    /// Tier of the bucket-header array.
    #[inline(always)]
    pub fn header_tier(&self) -> Tier {
        match self {
            TierPolicy::Remote => Tier::Remote,
            _ => Tier::Near,
        }
    }

    /// Tier of the chain-node slabs (every slab shares one tier).
    #[inline(always)]
    pub fn slab_tier(&self) -> Tier {
        match self {
            TierPolicy::AllNear => Tier::Near,
            TierPolicy::HeadersNear => Tier::Far,
            TierPolicy::Remote => Tier::Remote,
        }
    }

    /// One rung down the degradation ladder: the next-cheaper placement a
    /// circuit breaker falls back to when this one keeps faulting (fewer
    /// far loads → fewer fault opportunities → recovery). `AllNear` has
    /// nowhere left to go.
    pub fn degrade(&self) -> Option<TierPolicy> {
        match self {
            TierPolicy::HeadersNear => Some(TierPolicy::AllNear),
            // A faulting interconnect degrades to serving from a local
            // replica (the router's job to provide); one rung, then done.
            TierPolicy::Remote => Some(TierPolicy::AllNear),
            TierPolicy::AllNear => None,
        }
    }

    /// Short label for tables and JSON (`all-near`, `headers-near`, ...).
    pub fn label(&self) -> String {
        match self {
            TierPolicy::AllNear => "all-near".into(),
            TierPolicy::HeadersNear => "headers-near".into(),
            TierPolicy::Remote => "remote".into(),
        }
    }
}

/// A cost model plus a placement policy — the one `Copy` value the op
/// configs carry (`ProbeConfig::tier`, `GroupByConfig::tier`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Load latencies per tier.
    pub model: CostModel,
    /// Region → tier assignment.
    pub policy: TierPolicy,
}

impl TierSpec {
    /// Far-only placement at `far_multiplier` with headers pinned near —
    /// the sweep configuration of `bench tier`.
    pub fn headers_near(far_multiplier: u64) -> Self {
        TierSpec {
            model: CostModel::with_multiplier(far_multiplier),
            policy: TierPolicy::HeadersNear,
        }
    }

    /// Whole-structure-remote placement at `remote_multiplier` — what a
    /// cross-shard sub-run of `amac_shard` prices its loads with.
    pub fn remote(remote_multiplier: u64) -> Self {
        TierSpec { model: CostModel::with_remote(remote_multiplier), policy: TierPolicy::Remote }
    }
}

/// The per-op simulated clock (see the crate docs' tick rules).
///
/// One clock per [`ExecCtx`], behind `Option`: a context without one
/// (and without a coalescer or an armed tracer) is *plain*, and its op's
/// stages never ask ([`Hooks::plain`](amac::engine::Hooks::plain)). Composed ops keep their
/// member clocks in lock-step through `Hooks::{now, advance_to}` (`Mux`
/// lanes, fused `Chain` stages): the clock is monotone, so lifting it to
/// a neighbour's `now` is exactly "that much wall time passed while
/// others executed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimClock {
    spec: TierSpec,
    /// Current simulated time.
    now: u64,
    /// Work ticks since the last [`flush`](SimClock::flush).
    work: u64,
    /// Stall ticks since the last [`flush`](SimClock::flush).
    stalls: u64,
    /// Optional fault plan for far-tier slab loads (see [`FaultPlan`]).
    fault: Option<FaultPlan>,
    /// Failed loads since the last [`flush`](SimClock::flush).
    faults: u64,
    /// Cross-shard loads issued since the last [`flush`](SimClock::flush)
    /// — each one a request/response message pair moving
    /// [`REMOTE_LINE_BYTES`]. Coalesced duplicates never re-issue, so
    /// this counts distinct interconnect messages, not lane births.
    remote: u64,
}

impl SimClock {
    /// A clock at `t = 0` charging `spec`; far-tier slab loads resolve
    /// under `fault` when given.
    pub fn new(spec: TierSpec, fault: Option<FaultPlan>) -> Self {
        SimClock { spec, now: 0, work: 0, stalls: 0, fault, faults: 0, remote: 0 }
    }

    /// Current simulated time.
    #[inline(always)]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Charge one executed code stage (rule 1).
    #[inline(always)]
    pub fn stage(&mut self) {
        self.now += 1;
        self.work += 1;
    }

    /// Let `ticks` of somebody else's time pass (rule 2: executor idle
    /// visits, other Mux lanes' stages, the sibling stage of a fused
    /// chain).
    #[inline(always)]
    pub fn idle(&mut self, ticks: u64) {
        self.now += ticks;
    }

    /// Lift the clock to `now` if it is behind (the composition
    /// protocol; monotone, so a stale caller is a no-op).
    #[inline(always)]
    pub fn advance_to(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    /// Issue an asynchronous load of `class` under fault token `token`:
    /// `(ready_at, failed)`.
    ///
    /// Header loads never fault — the header array is the dense hot
    /// region. Slab loads in a far tier resolve under the fault plan:
    /// a failing token poisons the load (its `ready_at` is still priced
    /// at plain latency, so a coalesced duplicate has a wait target), a
    /// spiking token or a degraded slab stretches the latency. A remote
    /// load is on the wire whatever the plan decides.
    #[inline]
    pub fn resolve(&mut self, class: AddrClass, token: u64) -> (u64, bool) {
        let tier = match class {
            AddrClass::Header { .. } => self.spec.policy.header_tier(),
            AddrClass::Slab { .. } => self.spec.policy.slab_tier(),
        };
        if tier == Tier::Remote {
            self.remote += 1;
        }
        let lat = self.spec.model.latency(tier);
        if self.resolve_dup(class, token) {
            return (self.now + lat, true);
        }
        match (class, self.fault) {
            (AddrClass::Slab { slab, .. }, Some(plan))
                if tier != Tier::Near
                    && (plan.degraded_slab == Some(slab) || plan.spikes(token)) =>
            {
                (self.now + lat * plan.multiplier(), false)
            }
            _ => (self.now + lat, false),
        }
    }

    /// The per-request fault decision alone — what a duplicate request
    /// of an already-issued line re-runs (no new load, no new latency).
    /// Same decision, same fault counter as [`resolve`](SimClock::resolve)
    /// makes for this `(class, token)`, which is what keeps results and
    /// `load_faults` bit-identical with coalescing on or off. Near loads
    /// never fault: local DRAM is not the narrow interface.
    #[inline]
    pub fn resolve_dup(&mut self, class: AddrClass, token: u64) -> bool {
        let (AddrClass::Slab { .. }, Some(plan)) = (class, self.fault) else {
            return false;
        };
        let failed = self.spec.policy.slab_tier() != Tier::Near && plan.fails(token);
        self.faults += failed as u64;
        failed
    }

    /// Dereference a line that arrives at `ready_at` (rule 3): stall
    /// until it is resident.
    #[inline(always)]
    pub fn wait_until(&mut self, ready_at: u64) {
        if ready_at > self.now {
            self.stalls += ready_at - self.now;
            self.now = ready_at;
        }
    }

    /// Drain accumulated work/stall/fault/remote counters into `stats`.
    /// `now` is *not* reset: the clock keeps running across morsel
    /// feeds, so `ready_at` values held by in-flight slots stay
    /// comparable.
    #[inline]
    pub fn flush(&mut self, stats: &mut EngineStats) {
        stats.sim_cycles += core::mem::take(&mut self.work);
        stats.sim_stalls += core::mem::take(&mut self.stalls);
        stats.load_faults += core::mem::take(&mut self.faults);
        let remote = core::mem::take(&mut self.remote);
        stats.remote_loads += remote;
        stats.remote_bytes += remote * REMOTE_LINE_BYTES;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_scale_by_multiplier() {
        let m = CostModel::with_multiplier(8);
        assert_eq!(m.latency(Tier::Near), 4);
        assert_eq!(m.latency(Tier::Far), 32);
        assert_eq!(m.far_latency(), 32);
        assert_eq!(CostModel::default().latency(Tier::Far), 4, "1x far == near");
        assert_eq!(
            CostModel { far_multiplier: 0, ..Default::default() }.latency(Tier::Far),
            4,
            "far multiplier clamps to >= 1"
        );
        assert_eq!(CostModel::default().write_latency(), 16, "asymmetric write cost");
        assert_eq!(
            CostModel { write_multiplier: 0, ..Default::default() }.write_latency(),
            4,
            "write multiplier clamps to >= 1"
        );
        assert_eq!(CostModel::default().latency(Tier::Remote), 64, "16x default interconnect");
        assert_eq!(CostModel::with_remote(32).latency(Tier::Remote), 128);
        assert_eq!(
            CostModel { remote_multiplier: 0, ..Default::default() }.latency(Tier::Remote),
            4,
            "remote multiplier clamps to >= 1"
        );
    }

    #[test]
    fn policies_assign_documented_tiers() {
        assert_eq!(TierPolicy::AllNear.header_tier(), Tier::Near);
        assert_eq!(TierPolicy::AllNear.slab_tier(), Tier::Near);
        assert_eq!(TierPolicy::HeadersNear.header_tier(), Tier::Near);
        assert_eq!(TierPolicy::HeadersNear.slab_tier(), Tier::Far);
        assert_eq!(TierPolicy::HeadersNear.label(), "headers-near");
        assert_eq!(TierPolicy::Remote.header_tier(), Tier::Remote);
        assert_eq!(TierPolicy::Remote.slab_tier(), Tier::Remote);
        assert_eq!(TierPolicy::Remote.label(), "remote");
    }

    const HEADER: AddrClass = AddrClass::Header { line: 0 };

    fn slab(slab: u32) -> AddrClass {
        AddrClass::Slab { slab, line: 1 }
    }

    #[test]
    fn clock_charges_stall_only_for_early_waits() {
        let mut c = SimClock::new(TierSpec::headers_near(2), None);
        // Far load issued at t=0 lands at t=8; 10 ticks of other work
        // pass first, so the wait is free.
        let (ready, _) = c.resolve(slab(0), 0);
        c.idle(10);
        c.wait_until(ready);
        // A second far load awaited after only 3 ticks stalls 5.
        let (ready, _) = c.resolve(slab(0), 0);
        c.stage();
        c.idle(2);
        c.wait_until(ready);
        let mut s = EngineStats::default();
        c.flush(&mut s);
        assert_eq!((s.sim_cycles, s.sim_stalls), (1, 5));
        assert!((s.stall_share() - 5.0 / 6.0).abs() < 1e-12);
        // Flush drained the counters but kept the clock running.
        let mut s2 = EngineStats::default();
        c.flush(&mut s2);
        assert_eq!((s2.sim_cycles, s2.sim_stalls), (0, 0));
        assert!(c.now() > 0);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut c = SimClock::new(TierSpec::headers_near(1), None);
        c.idle(7);
        c.advance_to(3);
        assert_eq!(c.now(), 7, "stale advance is a no-op");
        c.advance_to(12);
        assert_eq!(c.now(), 12);
    }

    #[test]
    fn resolve_applies_the_fault_plan_to_far_slab_loads_only() {
        let plan = FaultPlan {
            seed: 11,
            fail_per_mille: 0,
            spike_per_mille: 0,
            spike_multiplier: 4,
            degraded_slab: Some(2),
        };
        let mut c = SimClock::new(TierSpec::headers_near(8), Some(plan));
        // No transient faults configured: a healthy slab lands at far
        // latency, the degraded slab at 4x.
        assert_eq!(c.resolve(slab(0), fault_token(1, 0)), (32, false));
        assert_eq!(c.resolve(slab(2), fault_token(1, 0)), (128, false));
        // Headers are near under this policy: never faulted.
        assert_eq!(c.resolve(HEADER, fault_token(1, 0)), (4, false));
        // Without a plan every load lands at its tier's latency.
        let mut plain = SimClock::new(TierSpec::headers_near(8), None);
        assert_eq!(plain.resolve(slab(2), fault_token(1, 0)), (32, false));
        assert!(!plain.resolve_dup(slab(0), fault_token(9, 1)));
        // An always-fail plan poisons every far load but still prices a
        // wait target, and a duplicate of the same token re-charges the
        // fault.
        let always = Some(FaultPlan::fail_only(5, 1000));
        let mut f = SimClock::new(TierSpec::headers_near(8), always);
        assert_eq!(f.resolve(slab(0), fault_token(9, 1)), (32, true));
        assert!(f.resolve_dup(slab(0), fault_token(9, 1)));
        assert!(!f.resolve_dup(HEADER, fault_token(9, 1)), "headers never fault");
        let mut s = EngineStats::default();
        f.flush(&mut s);
        assert_eq!(s.load_faults, 2, "fresh and duplicate both charged");
        // ...and the drain-and-reset contract holds for faults too.
        let mut s2 = EngineStats::default();
        f.flush(&mut s2);
        assert_eq!(s2.load_faults, 0);
        // Near slabs never fault, whatever the plan says.
        let all_near = TierSpec { model: CostModel::default(), policy: TierPolicy::AllNear };
        let mut near = SimClock::new(all_near, always);
        assert_eq!(near.resolve(slab(0), fault_token(9, 1)), (4, false));
        assert!(!near.resolve_dup(slab(0), fault_token(9, 1)));
    }

    #[test]
    fn degrade_ladder_ends_at_all_near() {
        assert_eq!(TierPolicy::HeadersNear.degrade(), Some(TierPolicy::AllNear));
        assert_eq!(TierPolicy::Remote.degrade(), Some(TierPolicy::AllNear));
        assert_eq!(TierPolicy::AllNear.degrade(), None);
        // Every rung strictly reduces far exposure until none remains.
        let mut p = TierPolicy::HeadersNear;
        let mut rungs = 0;
        while let Some(next) = p.degrade() {
            p = next;
            rungs += 1;
            assert!(rungs <= 4, "degradation ladder must terminate");
        }
        assert_eq!(p, TierPolicy::AllNear);
    }

    #[test]
    fn remote_loads_count_messages_not_duplicates() {
        let mut c = SimClock::new(TierSpec::remote(16), None);
        // Every load of a remote structure is one message-hop pair.
        assert_eq!(c.resolve(HEADER, 0), (64, false));
        assert_eq!(c.resolve(slab(0), 0), (64, false));
        assert_eq!(c.resolve(slab(1), fault_token(3, 0)), (64, false));
        let mut s = EngineStats::default();
        c.flush(&mut s);
        assert_eq!(s.remote_loads, 3);
        assert_eq!(s.remote_bytes, 3 * REMOTE_LINE_BYTES);
        // Drain-and-reset: a second flush reports nothing.
        let mut s2 = EngineStats::default();
        c.flush(&mut s2);
        assert_eq!((s2.remote_loads, s2.remote_bytes), (0, 0));
        // A coalesced duplicate re-rolls the fault decision only — no new
        // message (that is the dedup coalescing buys on hot remote
        // lines); a failed fresh issue still crossed the wire exactly once.
        let mut f = SimClock::new(TierSpec::remote(16), Some(FaultPlan::fail_only(5, 1000)));
        assert!(f.resolve(slab(0), fault_token(9, 1)).1);
        assert!(f.resolve_dup(slab(0), fault_token(9, 1)));
        let mut fs = EngineStats::default();
        f.flush(&mut fs);
        assert_eq!(fs.remote_loads, 1, "dup and failed pricing must not re-count");
        // Near and far placements never touch the remote counters.
        let mut near = SimClock::new(TierSpec::headers_near(8), None);
        near.resolve(HEADER, 0);
        near.resolve(slab(0), 0);
        let mut ns = EngineStats::default();
        near.flush(&mut ns);
        assert_eq!((ns.remote_loads, ns.remote_bytes), (0, 0));
    }
}
