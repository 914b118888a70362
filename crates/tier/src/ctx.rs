//! The execution context: everything an op carries beside its table.
//!
//! The Asynchronous Memory-access Unit line of follow-up work (AMAU,
//! DAMOV) has software talk to *one* memory unit that owns issue,
//! completion, batching and accounting; GPU pipelines expose the same
//! idiom as `cp.async` (loads are issued, sealed into a *commit group*,
//! awaited later). [`ExecCtx`] is that unit for this repo, and because it
//! is the one thing every op already holds it also owns the rest of the
//! cross-cutting state: the simulated clock and its fault plan, the line
//! coalescer, the placement policy, the hardware prefetch hint, the
//! tracer, and the counters only the op can observe.
//!
//! An op builds its context from an [`ExecSpec`] — the projection of its
//! config's `tier`/`fault`/`coalesce`/`hint` knobs — and speaks a small
//! protocol to it:
//!
//! ```text
//!                   ┌─ Some(ledger) ─► per request: ledger.issued_loads++, prefetchnta  (inlined in the executor loop;
//! plain()? once per ┤                  ledger settled into the context before every flush)
//! executor call     └─ None ─────────► the lane protocol below  (one out-of-line call per stage)
//!
//! begin_lane ──► issue_header / issue_slab / request ──► Ticket { ready_at, failed, fresh }
//!    │                │                                      │
//!    │                │ (dup line in group)                  ├─ deref / wait + stage  (stall)
//!    │                └─► coalesced_loads++                  └─ failed -> fail -> Step::Failed
//!    └─► retire  (lane Done; the last lane of a sealed group frees its dedup set)
//! ```
//!
//! A *lane* is one in-flight lookup; [`ExecCtx::begin_lane`] returns the
//! commit group the lane stores in its per-lookup state. Groups advance
//! every `G` lane births and at every [`Hooks::commit_group`]. The layers
//! above the op drive the context through [`Hooks`] only.
//!
//! # One mode per executor call
//!
//! A context with no clock, no coalescer and no armed tracer, issuing the
//! paper's `PREFETCHNTA`, has nobody to keep lanes, tickets or waits for:
//! every request is fresh, ready and healthy. [`Hooks::plain`] is that
//! fact as one bit, kept current by
//! [`Hooks::set_tracer`]/[`Hooks::take_tracer`]. An op writes each code
//! stage once, generic over `const PLAIN: bool`: the executor call asks
//! once and runs one instantiation throughout. The plain one is inlined
//! into the executor loop and counts into a [`Ledger`] in the call's
//! tally — `issued_loads` per request ([`Ledger::issue`]) and
//! `nodes_visited`/`tag_rejects` per node — which the call settles
//! ([`ExecCtx::settle`]) before it flushes; the metered one is the full
//! protocol above, behind one call per stage.
//! Every method of the protocol is correct on a plain context too (each
//! re-tests what it needs) — the bit only lets a call skip asking.
//!
//! # Completion is simulated time
//!
//! `cp.async` waits on transfer completion observed by hardware; a
//! deterministic reproduction cannot observe cache fills, so a ticket is
//! ready once the clock reaches its `ready_at`, and waiting earlier
//! charges the difference as stall.
//!
//! # When coalescing wins (and loses)
//!
//! Dedup only fires when two lanes *of the same group* request the same
//! cache line while both are in flight: skewed (Zipf) probe keys collide
//! on hot bucket headers and hot chain nodes, so `issued_loads/lookup`
//! drops; uniform keys almost never collide and pay the dedup lookup for
//! nothing (`bench amu` sweeps exactly this contrast). Coalescing
//! never changes results or fault decisions — a duplicate request
//! re-runs the per-request fault check, so `load_faults` and every
//! `Step::Failed` are identical with it on or off; only the *hardware*
//! prefetch hint is suppressed ([`Ticket::fresh`]` == false`) and
//! `issued_loads` shrinks.
//!
//! # Quickstart
//!
//! ```
//! use amac::engine::{EngineStats, Hooks};
//! use amac_tier::{AddrClass, ExecCtx, ExecSpec};
//!
//! // Untiered, coalescing in groups of 4.
//! let mut cx = ExecCtx::new(&ExecSpec { coalesce: Some(4), ..Default::default() });
//! let g = cx.begin_lane();
//! let a = cx.request(AddrClass::Header { line: 7 }, 0, g);
//! assert!(a.fresh, "first request for line 7 really issues");
//! let g2 = cx.begin_lane();
//! let b = cx.request(AddrClass::Header { line: 7 }, 0, g2);
//! assert!(!b.fresh, "same line, same group: coalesced away");
//! cx.retire_lane(g);
//! cx.retire_lane(g2);
//! let mut stats = EngineStats::default();
//! cx.flush(&mut stats);
//! assert_eq!((stats.issued_loads, stats.coalesced_loads), (1, 1));
//! ```

use crate::{trace_tier, FaultPlan, SimClock, TierPolicy, TierSpec};
use amac::engine::{EngineStats, Hooks};
use amac_mem::prefetch::{prefetch_read, PrefetchHint};
use amac_trace::{ClassKind, TierKind, TraceEvent, Tracer};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The address class of a load request — which memory region the line
/// belongs to, in the vocabulary [`TierPolicy`] prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrClass {
    /// A bucket-header / root line (stage-0 loads). Header loads never
    /// fault: the header array is the dense hot region.
    Header {
        /// Cache-line index (`address >> 6`).
        line: u64,
    },
    /// A chain-node line in arena slab `slab` (every later hop). Slab
    /// loads resolve through the fault plan.
    Slab {
        /// Arena slab holding the node (`amac_mem::slab_of_index`).
        slab: u32,
        /// Cache-line index (`address >> 6`).
        line: u64,
    },
}

impl AddrClass {
    /// Header class for the line containing `ptr`.
    #[inline(always)]
    pub fn header_ptr<T>(ptr: *const T) -> Self {
        AddrClass::Header { line: ptr as u64 >> 6 }
    }

    /// Slab class for the line containing `ptr` in arena slab `slab`.
    #[inline(always)]
    pub fn slab_ptr<T>(slab: u32, ptr: *const T) -> Self {
        AddrClass::Slab { slab, line: ptr as u64 >> 6 }
    }

    /// The cache-line index of this request.
    #[inline(always)]
    pub fn line(&self) -> u64 {
        match *self {
            AddrClass::Header { line } | AddrClass::Slab { line, .. } => line,
        }
    }
}

/// The context's receipt for one load request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Simulated tick the line is resident (0 untiered — always ready).
    pub ready_at: u64,
    /// The fault plan poisoned this request: the lookup must retire as
    /// `Step::Failed`. Decided *per request* even for coalesced
    /// duplicates, so fault sets are identical with coalescing on or off.
    pub failed: bool,
    /// This request actually issued a load (`false` = deduped against an
    /// earlier request for the same line in the same commit group). The
    /// *hardware* prefetch hint is gated on this, so a coalesced lane
    /// rides the original line fill.
    pub fresh: bool,
}

/// What an op's config says about its execution context — the one value
/// [`ExecCtx::new`] is built from. Every op config projects to it
/// (`ProbeConfig::exec`, `PipelineConfig::exec`, ...); knobs an op does
/// not expose keep their defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecSpec {
    /// Memory-tier cost model: `Some` charges a simulated clock.
    pub tier: Option<TierSpec>,
    /// Seeded far-tier fault plan for slab loads. Needs a clock to hook
    /// into: without `tier`, `headers_near(1)` is assumed.
    pub fault: Option<FaultPlan>,
    /// `Some(G)` dedups duplicate cache-line requests within commit
    /// groups of `G` lane births.
    pub coalesce: Option<usize>,
    /// Hardware prefetch instruction issued for every fresh ticket.
    pub hint: PrefetchHint,
}

/// One live commit group's dedup state.
struct GroupLines {
    id: u32,
    /// Lanes born into this group that have not retired.
    lanes: u32,
    /// `line -> ready_at` of the request that actually issued. Only ever
    /// probed by key (never iterated), so the map's internal order cannot
    /// leak into any counter.
    lines: HashMap<u64, u64>,
}

/// Commit-group bookkeeping for duplicate-line suppression.
///
/// Group membership is assigned at lane birth and advances every
/// `group_size` births (plus explicit seals). Because every executor
/// starts lookups in input order, group `g` of a run always covers the
/// same inputs — which makes `issued_loads`/`coalesced_loads` identical
/// across executors' schedules, thread counts and morsel schedulings.
struct Coalescer {
    group_size: u32,
    /// Lane births since the last group advance.
    births: u32,
    /// Current (open) group id.
    cur: u32,
    /// Live groups (a handful at a time: executors keep at most `M`
    /// lanes in flight).
    groups: Vec<GroupLines>,
}

impl Coalescer {
    fn new(group_size: usize) -> Self {
        Coalescer { group_size: group_size.max(1) as u32, births: 0, cur: 0, groups: Vec::new() }
    }

    fn group_mut(&mut self, id: u32) -> &mut GroupLines {
        self.groups
            .iter_mut()
            .find(|g| g.id == id)
            .expect("lane protocol violation: issue/retire for a group with no live lanes")
    }

    /// Seal the open group and sweep sealed groups with no live lanes
    /// (nothing can reference them again).
    fn advance_group(&mut self) {
        self.cur = self.cur.wrapping_add(1);
        self.births = 0;
        self.groups.retain(|g| g.lanes > 0);
    }

    fn begin_lane(&mut self) -> u32 {
        if self.births == self.group_size {
            self.advance_group();
        }
        self.births += 1;
        let id = self.cur;
        match self.groups.iter_mut().find(|g| g.id == id) {
            Some(g) => g.lanes += 1,
            None => self.groups.push(GroupLines { id, lanes: 1, lines: HashMap::new() }),
        }
        id
    }

    fn retire_lane(&mut self, group: u32) {
        let open = self.cur;
        let g = self.group_mut(group);
        g.lanes -= 1;
        // The OPEN group's line map must survive losing its last live
        // lane: later births join the same group, and dropping the map
        // mid-group would forget lines already issued — the dedup count
        // would then depend on lane lifetimes (which vary with carried
        // window state) instead of group composition alone. Sealed
        // groups gain no new lanes, so theirs can go at zero.
        if g.lanes == 0 && group != open {
            self.groups.retain(|g| g.id != group);
        }
    }

    /// Seal the open group; a no-op when it is empty, so redundant seals
    /// at batch boundaries do not perturb group alignment.
    fn commit_group(&mut self) {
        if self.births > 0 {
            self.advance_group();
        }
    }
}

/// What a code stage counts per request and per node, held by its caller
/// instead of the context: a plain executor call keeps one (empty at the
/// call's start) in its locals, and hands it back through
/// [`ExecCtx::settle`] before it flushes. Metered stages count
/// `nodes_visited`/`tag_rejects` into one too, and their requests into the
/// context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Plain requests issued (metered requests count in the context).
    pub issued_loads: u64,
    /// Nodes dereferenced.
    pub nodes_visited: u64,
    /// Nodes the SWAR tag test rejected.
    pub tag_rejects: u64,
}

impl Ledger {
    /// A plain request: count it and prefetch the line `PREFETCHNTA` (a
    /// plain context's hint). Every plain ticket is fresh, ready and
    /// healthy, so there is nothing to return.
    #[inline(always)]
    pub fn issue<T>(&mut self, ptr: *const T) {
        self.issued_loads += 1;
        prefetch_read(ptr);
    }
}

/// An op's execution context (see the [module docs](self)).
///
/// One per op instance: each member of a fused chain and each mux lane
/// keeps its own, so commit groups, clocks and ledgers never mix across
/// operators or queries.
pub struct ExecCtx {
    clock: Option<SimClock>,
    coalescer: Option<Coalescer>,
    hint: PrefetchHint,
    tracer: Tracer,
    /// Someone is listening to the lane protocol (see [`Hooks::plain`]).
    metered: bool,
    /// Op-side observations since the last flush. Ops bump the counters
    /// only they can see (`nodes_visited`, `tag_rejects`, `log_*`); the
    /// context itself counts
    /// `issued_loads`/`coalesced_loads`.
    pub obs: EngineStats,
}

impl ExecCtx {
    /// Build the context `spec` describes.
    pub fn new(spec: &ExecSpec) -> Self {
        // A fault plan needs a clock to hook into; `headers_near(1)` is
        // the minimal far placement (chain slabs far at 1x latency), so
        // faults work even when the caller didn't ask for tiered costs.
        let tier = spec.tier.or(spec.fault.map(|_| TierSpec::headers_near(1)));
        let mut cx = ExecCtx {
            clock: tier.map(|t| SimClock::new(t, spec.fault)),
            coalescer: spec.coalesce.map(Coalescer::new),
            hint: spec.hint,
            tracer: Tracer::off(),
            metered: false,
            obs: EngineStats::default(),
        };
        cx.refresh_mode();
        cx
    }

    /// The hardware prefetch instruction this context's requests issue
    /// (`PREFETCHNTA` on a plain context). An op's lookahead issues the
    /// same one, outside the lane protocol.
    #[inline(always)]
    pub fn hint(&self) -> PrefetchHint {
        self.hint
    }

    /// Fold a ledger's counts into the observations the next flush drains.
    #[inline(always)]
    pub fn settle(&mut self, led: Ledger) {
        self.obs.issued_loads += led.issued_loads;
        self.obs.nodes_visited += led.nodes_visited;
        self.obs.tag_rejects += led.tag_rejects;
    }

    /// Recompute the mode bit; the tracer is the only listener that can
    /// come and go after construction.
    fn refresh_mode(&mut self) {
        self.metered = self.clock.is_some()
            || self.coalescer.is_some()
            || self.tracer.enabled()
            || self.hint != PrefetchHint::Nta;
    }

    /// The placement policy the clock charges — read off the clock, so
    /// the tier a traced load is attributed to cannot disagree with the
    /// tier that priced it. `None` when untiered.
    fn policy(&self) -> Option<TierPolicy> {
        self.clock.as_ref().map(|c| c.spec.policy)
    }

    /// Register a new lane (one lookup), charge its stage-0 tick, and
    /// return the commit group it was born into. The lane passes the id
    /// to every request and to its retirement.
    #[inline(always)]
    pub fn begin_lane(&mut self) -> u32 {
        self.stage();
        match &mut self.coalescer {
            Some(co) => co.begin_lane(),
            None => 0,
        }
    }

    /// Charge one executed code stage (tick rule 1).
    #[inline(always)]
    pub fn stage(&mut self) {
        if let Some(c) = &mut self.clock {
            c.stage();
        }
    }

    /// Request an asynchronous load of `class` for a lane of `group`,
    /// without a hardware hint. `token` keys the per-request fault
    /// decision ([`fault_token`](crate::fault_token)`(key, hop)`).
    #[inline(always)]
    pub fn request(&mut self, class: AddrClass, token: u64, group: u32) -> Ticket {
        let vacant = match &mut self.coalescer {
            None => None,
            Some(co) => match co.group_mut(group).lines.entry(class.line()) {
                // Duplicate line within the commit group: ride the
                // original fill. The fault decision is still per-request,
                // so results and `load_faults` are identical with
                // coalescing on or off.
                Entry::Occupied(e) => {
                    self.obs.coalesced_loads += 1;
                    let failed = self.clock.as_mut().is_some_and(|c| c.resolve_dup(class, token));
                    return Ticket { ready_at: *e.get(), failed, fresh: false };
                }
                Entry::Vacant(v) => Some(v),
            },
        };
        self.obs.issued_loads += 1;
        let (ready_at, failed) = match &mut self.clock {
            Some(c) => c.resolve(class, token),
            None => (0, false),
        };
        if let Some(v) = vacant {
            v.insert(ready_at);
        }
        Ticket { ready_at, failed, fresh: true }
    }

    /// Request the line of `class` at `ptr` and issue the hardware hint
    /// if the ticket is fresh.
    #[inline(always)]
    fn issue<T>(&mut self, class: AddrClass, ptr: *const T, token: u64, group: u32) -> Ticket {
        let t = self.request(class, token, group);
        if t.fresh {
            self.hint.issue(ptr);
        }
        t
    }

    /// Request the header line at `ptr`, issuing the hardware hint if the
    /// ticket is fresh (a plain stage calls [`Ledger::issue`] instead).
    #[inline(always)]
    pub fn issue_header<T>(&mut self, ptr: *const T, group: u32) -> Ticket {
        self.issue(AddrClass::header_ptr(ptr), ptr, 0, group)
    }

    /// Request the chain node at `ptr` in arena slab `slab`, issuing the
    /// hardware hint if the ticket is fresh.
    #[inline(always)]
    pub fn issue_slab<T>(&mut self, slab: u32, ptr: *const T, token: u64, group: u32) -> Ticket {
        self.issue(AddrClass::slab_ptr(slab, ptr), ptr, token, group)
    }

    /// Record (when tracing) the load a lookup of `op` is about to wait
    /// on: hop 0 is the header line, later hops are chain nodes, and the
    /// tier is whatever the policy assigns that region. Call it
    /// immediately before [`wait`](ExecCtx::wait) so the recorded stall
    /// is exactly what the wait charges.
    #[inline(always)]
    pub fn trace_load(&mut self, op: &'static str, key: u64, hop: u32, ready_at: u64) {
        if self.tracer.enabled() {
            self.record_load(op, key, hop, ready_at);
        }
    }

    #[cold]
    fn record_load(&mut self, op: &'static str, key: u64, hop: u32, ready_at: u64) {
        let class = if hop == 0 { ClassKind::Header } else { ClassKind::Slab };
        let tier = match self.policy() {
            None => TierKind::Untiered,
            Some(p) => trace_tier(if hop == 0 { p.header_tier() } else { p.slab_tier() }),
        };
        self.tracer.load(self.now(), op, key, class, tier, hop16(hop), ready_at);
    }

    /// Stall until the load landing at `ready_at` is resident (tick
    /// rule 3).
    #[inline(always)]
    pub fn wait(&mut self, ready_at: u64) {
        if let Some(c) = &mut self.clock {
            c.wait_until(ready_at);
        }
    }

    /// Dereference the line a lookup requested: trace the load, stall
    /// until it is resident, charge the stage.
    #[inline(always)]
    pub fn deref(&mut self, op: &'static str, key: u64, hop: u32, ready_at: u64) {
        self.trace_load(op, key, hop, ready_at);
        self.wait(ready_at);
        self.stage();
    }

    /// The lane retired without a trace event (a chain member handing
    /// its tuple downstream; untraced ops).
    #[inline(always)]
    pub fn retire_lane(&mut self, group: u32) {
        if let Some(co) = &mut self.coalescer {
            co.retire_lane(group);
        }
    }

    /// The lookup left the window: trace the retirement, free the lane.
    #[inline(always)]
    pub fn retire(&mut self, op: &'static str, key: u64, hop: u32, group: u32) {
        if self.tracer.enabled() {
            self.tracer.retire(self.now(), op, key, hop16(hop), false);
        }
        self.retire_lane(group);
    }

    /// The lookup aborted on a failed ticket: trace the fault and the
    /// failed retirement, free the lane.
    #[inline]
    pub fn fail(&mut self, op: &'static str, key: u64, hop: u32, group: u32) {
        if self.tracer.enabled() {
            let now = self.now();
            self.tracer.fault(now, op, key, hop16(hop));
            self.tracer.retire(now, op, key, hop16(hop), true);
        }
        self.retire_lane(group);
    }
}

/// Saturating hop narrowing for trace events (chains are short; the cap
/// only matters for adversarial inputs).
#[inline]
fn hop16(hop: u32) -> u16 {
    hop.min(u16::MAX as u32) as u16
}

impl Hooks for ExecCtx {
    /// Plain unless anything listens to the lane protocol — a clock (any
    /// of `tier`/`fault`), a coalescer, or an armed tracer — or the
    /// prefetch hint is one of the ablation's rather than the paper's
    /// `PREFETCHNTA` (see the [module docs](self)).
    #[inline(always)]
    fn plain(&self) -> bool {
        !self.metered
    }

    #[inline(always)]
    fn idle(&mut self, ticks: u64) {
        if let Some(c) = &mut self.clock {
            c.idle(ticks);
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.clock.as_ref().map_or(0, SimClock::now)
    }

    #[inline(always)]
    fn advance_to(&mut self, now: u64) {
        if let Some(c) = &mut self.clock {
            c.advance_to(now);
        }
    }

    /// A clock (`tier` or `fault`) is fixed at construction.
    #[inline(always)]
    fn keeps_time(&self) -> bool {
        self.clock.is_some()
    }

    #[inline(always)]
    fn commit_group(&mut self) {
        if let Some(co) = &mut self.coalescer {
            co.commit_group();
        }
    }

    #[inline]
    fn flush(&mut self, stats: &mut EngineStats) {
        stats.merge(&core::mem::take(&mut self.obs));
        if let Some(c) = &mut self.clock {
            c.flush(stats);
        }
    }

    #[inline(always)]
    fn issues_prefetches(&self) -> bool {
        self.hint.is_real()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.refresh_mode();
    }

    fn take_tracer(&mut self) -> Tracer {
        let tracer = self.tracer.take();
        self.refresh_mode();
        tracer
    }

    #[inline(always)]
    fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    fn trace(&mut self, ev: TraceEvent) {
        self.tracer.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_token;

    fn coalescing(group_size: usize) -> ExecCtx {
        ExecCtx::new(&ExecSpec { coalesce: Some(group_size), ..Default::default() })
    }

    fn live_groups(cx: &ExecCtx) -> Vec<u32> {
        cx.coalescer.as_ref().unwrap().groups.iter().map(|g| g.id).collect()
    }

    #[test]
    fn spec_derivation_table() {
        let tier = TierSpec::headers_near(8);
        let plan = FaultPlan::fail_only(5, 100);
        // (tier, fault) -> the spec the clock must charge.
        let cases = [
            (None, None, None),
            (Some(tier), None, Some(tier)),
            (Some(tier), Some(plan), Some(tier)),
            // A fault plan without a tier assumes headers_near(1), for
            // the clock AND for the policy traced loads classify against.
            (None, Some(plan), Some(TierSpec::headers_near(1))),
        ];
        for (tier, fault, want) in cases {
            for coalesce in [None, Some(4)] {
                let cx = ExecCtx::new(&ExecSpec { tier, fault, coalesce, ..Default::default() });
                let clock = want.map(|t| SimClock::new(t, fault));
                assert_eq!(cx.clock, clock, "tier {tier:?} fault {fault:?}");
                assert_eq!(cx.keeps_time(), want.is_some());
                assert_eq!(cx.policy(), want.map(|t| t.policy));
                assert_eq!(cx.coalescer.is_some(), coalesce.is_some());
                // Any listener makes the context metered from birth.
                assert_eq!(
                    !cx.plain(),
                    tier.is_some() || fault.is_some() || coalesce.is_some(),
                    "tier {tier:?} fault {fault:?} coalesce {coalesce:?}"
                );
            }
        }
        assert!(ExecCtx::new(&ExecSpec::default()).issues_prefetches());
        let none = ExecSpec { hint: PrefetchHint::None, ..Default::default() };
        assert!(!ExecCtx::new(&none).issues_prefetches());
        // A plain stage issues `PREFETCHNTA`; any other hint is metered.
        for hint in [PrefetchHint::T0, PrefetchHint::Write, PrefetchHint::None] {
            assert!(!ExecCtx::new(&ExecSpec { hint, ..Default::default() }).plain(), "{hint:?}");
        }
    }

    #[test]
    fn mode_bit_follows_the_tracer() {
        let mut cx = ExecCtx::new(&ExecSpec::default());
        assert!(cx.plain(), "a default context is plain");
        // A plain call's ledger: requests count there, not in the
        // context, until the call settles it.
        let x = [0u8; 64];
        let mut led = Ledger::default();
        led.issue(x.as_ptr());
        led.issue(x.as_ptr());
        led.nodes_visited += 1;
        assert_eq!(cx.obs, EngineStats::default(), "nothing counted in the context yet");
        cx.settle(led);
        assert_eq!((cx.obs.issued_loads, cx.obs.nodes_visited), (2, 1));

        cx.set_tracer(Tracer::off());
        assert!(cx.plain(), "a disabled tracer is nobody listening");
        cx.set_tracer(Tracer::on());
        assert!(!cx.plain(), "an armed tracer is");
        let g = cx.begin_lane();
        let t = cx.issue_header(x.as_ptr(), g);
        cx.deref("probe", 42, 0, t.ready_at);
        cx.retire("probe", 42, 0, g);
        let tr = cx.take_tracer();
        assert!(cx.plain(), "taking the tracer returns the context to plain");
        assert_eq!(tr.len(), 2, "the deref and the retirement were recorded");
        assert_eq!(cx.obs.issued_loads, 3, "metered requests count in the same ledger");
    }

    #[test]
    fn without_coalescing_every_request_issues() {
        let mut cx =
            ExecCtx::new(&ExecSpec { tier: Some(TierSpec::headers_near(1)), ..Default::default() });
        let g = cx.begin_lane();
        let a = cx.request(AddrClass::Header { line: 1 }, 0, g);
        let b = cx.request(AddrClass::Header { line: 1 }, 0, g);
        assert!(a.fresh && b.fresh);
        assert_eq!(a.ready_at, 1 + 4, "stage-0 tick, then near latency");
        cx.retire_lane(g);
        let mut s = EngineStats::default();
        cx.flush(&mut s);
        assert_eq!((s.issued_loads, s.coalesced_loads, s.sim_cycles), (2, 0, 1));
        assert_eq!(cx.obs, EngineStats::default(), "flush drains the ledger");
    }

    #[test]
    fn coalescing_dedups_within_a_group_only() {
        let mut cx = coalescing(2);
        let a = cx.begin_lane();
        let b = cx.begin_lane();
        assert_eq!(a, b, "two births fit one group of 2");
        assert!(cx.request(AddrClass::Header { line: 9 }, 0, a).fresh);
        assert!(!cx.request(AddrClass::Header { line: 9 }, 0, b).fresh, "same group dedups");
        // Third lane overflows into the next group: no dedup across.
        let c = cx.begin_lane();
        assert_ne!(c, a);
        assert!(cx.request(AddrClass::Header { line: 9 }, 0, c).fresh, "new group, fresh line");
        assert_eq!((cx.obs.issued_loads, cx.obs.coalesced_loads), (2, 1));
        cx.retire_lane(a);
        cx.retire_lane(b);
        cx.retire_lane(c);
        // The sealed group freed its dedup set at the last retire; the
        // OPEN group keeps its map (later births join it and must see
        // the lines already issued, whatever the retire timing was).
        assert_eq!(live_groups(&cx), [c], "only the open group survives its lanes");
        cx.commit_group();
        assert!(live_groups(&cx).is_empty(), "the seal sweeps the emptied group");
    }

    #[test]
    fn commit_group_seals_early() {
        let mut cx = coalescing(8);
        let a = cx.begin_lane();
        cx.request(AddrClass::Header { line: 5 }, 0, a);
        cx.commit_group();
        let b = cx.begin_lane();
        assert_ne!(a, b, "commit sealed the half-full group");
        assert!(cx.request(AddrClass::Header { line: 5 }, 0, b).fresh, "no dedup across the seal");
        // An empty current group makes commit a no-op.
        cx.commit_group();
        cx.commit_group();
        let c = cx.begin_lane();
        assert_eq!(c, b.wrapping_add(1), "redundant commits do not burn group ids");
    }

    #[test]
    fn group_advance_matches_explicit_commit_at_boundary() {
        // Auto-advance at a full group == an explicit commit at the same
        // boundary: the property that keeps morsel feeds and one-shot
        // runs on identical groupings.
        let (mut auto_cx, mut explicit) = (coalescing(2), coalescing(2));
        for i in 0..6 {
            assert_eq!(auto_cx.begin_lane(), explicit.begin_lane());
            if i % 2 == 1 {
                explicit.commit_group();
            }
        }
    }

    #[test]
    fn dup_of_failed_request_still_decides_its_own_fault() {
        // Token 7 fails under this plan, token 8 does not.
        let plan = (0..u64::MAX)
            .map(|seed| FaultPlan::fail_only(seed, 500))
            .find(|p| p.fails(fault_token(7, 0)) && !p.fails(fault_token(8, 0)))
            .unwrap();
        let mut cx = ExecCtx::new(&ExecSpec {
            tier: Some(TierSpec::headers_near(8)),
            fault: Some(plan),
            coalesce: Some(4),
            ..Default::default()
        });
        let (g, g2) = (cx.begin_lane(), cx.begin_lane());
        let slab = AddrClass::Slab { slab: 0, line: 3 };
        let first = cx.request(slab, fault_token(7, 0), g);
        assert!(first.failed && first.fresh);
        // Same line, healthy token: coalesced, not failed.
        let dup = cx.request(slab, fault_token(8, 0), g2);
        assert!(!dup.failed && !dup.fresh);
        assert_eq!(dup.ready_at, first.ready_at, "dup rides the original fill");
        // Same line, failing token: coalesced AND failed — the decision
        // an uncoalesced request would also have made.
        let dup_bad = cx.request(slab, fault_token(7, 0), g2);
        assert!(dup_bad.failed && !dup_bad.fresh);
        let mut s = EngineStats::default();
        cx.flush(&mut s);
        assert_eq!(s.load_faults, 2, "both failing requests charged the fault counter");
        assert_eq!((s.issued_loads, s.coalesced_loads), (1, 2));
    }

    #[test]
    fn traced_loads_classify_against_the_clock_policy() {
        let mut cx =
            ExecCtx::new(&ExecSpec { tier: Some(TierSpec::headers_near(8)), ..Default::default() });
        cx.set_tracer(Tracer::on());
        let g = cx.begin_lane();
        let t = cx.request(AddrClass::Slab { slab: 0, line: 1 }, 0, g);
        cx.deref("probe", 42, 1, t.ready_at);
        cx.retire("probe", 42, 1, g);
        let mut s = EngineStats::default();
        cx.flush(&mut s);
        let tr = cx.take_tracer();
        assert!(!cx.tracing(), "take leaves a disabled tracer");
        assert!(tr.conserves(s.sim_stalls, 1), "attributed stall == charged stall");
        assert_eq!(tr.stall_rows()[0].0.tier, TierKind::Far);
    }

    #[test]
    fn addr_class_lines_are_pointer_cache_lines() {
        let x = [0u8; 256];
        let p = x.as_ptr();
        assert_eq!(AddrClass::header_ptr(p).line(), p as u64 >> 6);
        let q = x[64..].as_ptr();
        assert_ne!(AddrClass::header_ptr(p).line(), AddrClass::header_ptr(q).line());
        assert_eq!(AddrClass::slab_ptr(3, p).line(), p as u64 >> 6);
    }
}
