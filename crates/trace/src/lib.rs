//! Deterministic sim-time tracing, stall attribution and the per-query
//! flight recorder.
//!
//! Every event is stamped with the **simulated clock** of the op that
//! emitted it — never wall time — so a trace is a pure function of
//! (workload, config, interleaving) and can be compared byte-for-byte
//! across runs. The tracer never advances or reads the clock on its own;
//! hook sites pass the tick in. That one rule is what makes the
//! engine-visible results bit-identical with tracing on or off: tracing
//! observes the simulation, it cannot perturb it.
//!
//! # The three layers
//!
//! * [`Tracer`] — a handle threaded through the executors, the coroutine
//!   ring, the AMU wait path, the serving mux and the sharded runtime.
//!   Disabled ([`Tracer::off`]) it is a single `None` branch per hook:
//!   no allocation, no clock access, no side effects.
//! * **Stall attribution** — every `Load` hook adds its stall to an exact
//!   [`StallProfile`] keyed by {operator, address class, tier, chain hop,
//!   tenant, shard}. Because the hook computes the stall as
//!   `ready_at − now` immediately before the op calls `wait(ready_at)` —
//!   exactly what the tier clock charges to `sim_stalls` — the profile
//!   [`total`](amac_metrics::Profile::total) equals the engine counter by
//!   construction ([`Tracer::conserves`] asserts it).
//! * **Flight recorder** — [`Tracer::ring`] keeps only the last *K*
//!   events (the attribution profile stays exact; eviction only drops
//!   event bodies). The serving layer attaches a ring per query and
//!   surfaces it in failure reports.
//!
//! ```
//! use amac_trace::{ClassKind, TierKind, Tracer};
//!
//! let mut t = Tracer::on();
//! // A probe touches its bucket header (ready at tick 4, stalled 4)…
//! t.load(0, "probe", 42, ClassKind::Header, TierKind::Near, 0, 4);
//! // …then chases one far chain node (ready at tick 36, stalled 32).
//! t.load(4, "probe", 42, ClassKind::Slab, TierKind::Far, 1, 36);
//! t.retire(36, "probe", 42, 1, false);
//! assert_eq!(t.stalls(), 36);
//! assert!(t.conserves(36, 1)); // Σ attributed == sim_stalls, Σ retires == lookups
//! assert!(!Tracer::off().enabled()); // disabled mode records nothing
//! ```

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::fmt;

use amac_metrics::{JsonBuf, Profile, Table};

/// Which memory tier served a load, as classified by the op's effective
/// `TierPolicy` at issue time (`amac_tier::trace_tier` converts).
/// `Untiered` marks runs on the raw in-memory backend where no cost
/// model is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TierKind {
    /// No tier simulation: the op runs against host DRAM directly.
    Untiered,
    /// Simulated local DRAM.
    Near,
    /// Simulated far/CXL-class memory.
    Far,
    /// Another shard's memory across the simulated interconnect.
    Remote,
}

impl fmt::Display for TierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TierKind::Untiered => "untiered",
            TierKind::Near => "near",
            TierKind::Far => "far",
            TierKind::Remote => "remote",
        })
    }
}

/// Which address class a load targeted (mirrors the AMU's `AddrClass`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClassKind {
    /// A bucket-header line (hop 0 of every chain).
    Header,
    /// A chain-node slab line (hops ≥ 1).
    Slab,
}

impl fmt::Display for ClassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClassKind::Header => "header",
            ClassKind::Slab => "slab",
        })
    }
}

/// The attribution key: one cell of the stall breakdown.
///
/// The derived `Ord` (field order below) fixes the row order of every
/// rendered profile, so exports are independent of event order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StallKey {
    /// Operator stage that issued the load (`"probe"`, `"groupby"`, …).
    pub op: &'static str,
    /// Address class of the stalled load.
    pub class: ClassKind,
    /// Tier that priced the load.
    pub tier: TierKind,
    /// Chain hop (0 = header, n = nth pointer chase), saturated to u16.
    pub hop: u16,
    /// Serving-layer tenant (0 outside the server).
    pub tenant: u16,
    /// Shard/core id (0 outside the sharded runtime).
    pub shard: u16,
}

/// Exact stall breakdown: Σ over cells always equals the engine's
/// `sim_stalls` when every wait site is hooked (see [`Tracer::conserves`]).
pub type StallProfile = Profile<StallKey>;

/// What happened, minus the common stamp fields ([`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A memory access left the op blocked until `ready_at`.
    Load {
        /// Address class of the access.
        class: ClassKind,
        /// Tier that priced it.
        tier: TierKind,
        /// Chain hop (0 = header).
        hop: u16,
        /// Tick the line becomes consumable.
        ready_at: u64,
        /// Ticks the op had to wait (`ready_at − now` at the wait site);
        /// 0 when computation fully hid the latency.
        stalled: u64,
    },
    /// A load's fault-injection token fired; the lookup will abort.
    Fault {
        /// Chain hop at which the fault hit.
        hop: u16,
    },
    /// A lookup left the system (hit, miss or abort).
    Retire {
        /// Final chain hop.
        hop: u16,
        /// True when the lookup aborted instead of completing.
        failed: bool,
    },
    /// A serving-layer query finished (span: `at` = submit, `end` = settle).
    Query {
        /// Query id.
        qid: u64,
        /// Settle tick.
        end: u64,
        /// Outcome label (`"completed"`, `"deadline"`, …).
        outcome: &'static str,
    },
    /// A runtime worker finished a morsel (wall-clock scheduling detail:
    /// excluded from [`Tracer::canonical_hash`]).
    Morsel {
        /// Worker thread id.
        tid: u16,
        /// Tuples in the morsel.
        tuples: u64,
    },
    /// Admission control shed a query before it ran.
    Shed {
        /// Query id.
        qid: u64,
    },
    /// A query's deadline fired and its lane was cancelled.
    Deadline {
        /// Query id.
        qid: u64,
    },
    /// A batch of cross-shard loads crossed the simulated interconnect.
    Remote {
        /// Issuing shard.
        from: u16,
        /// Owning shard.
        to: u16,
        /// Remote loads in the sub-run.
        loads: u64,
        /// Message bytes modelled for them.
        bytes: u64,
    },
}

/// One trace record: a kind plus the common stamp fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated tick at which the event was recorded.
    pub at: u64,
    /// Lookup key / query id the event belongs to (0 when not keyed).
    pub key: u64,
    /// Operator or subsystem label.
    pub op: &'static str,
    /// Serving-layer tenant (stamped by the owning tracer).
    pub tenant: u16,
    /// Shard id (stamped by the owning tracer).
    pub shard: u16,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    fn new(at: u64, key: u64, op: &'static str, kind: EventKind) -> Self {
        TraceEvent { at, key, op, tenant: 0, shard: 0, kind }
    }

    /// A finished query span (`at` = submit tick, `end` = settle tick).
    pub fn query(at: u64, qid: u64, end: u64, outcome: &'static str) -> Self {
        Self::new(at, qid, "query", EventKind::Query { qid, end, outcome })
    }

    /// A completed morsel on worker `tid`.
    pub fn morsel(at: u64, tid: u16, tuples: u64) -> Self {
        Self::new(at, 0, "morsel", EventKind::Morsel { tid, tuples })
    }

    /// A query shed at admission.
    pub fn shed(at: u64, qid: u64) -> Self {
        Self::new(at, qid, "shed", EventKind::Shed { qid })
    }

    /// A query cancelled by its deadline.
    pub fn deadline(at: u64, qid: u64) -> Self {
        Self::new(at, qid, "deadline", EventKind::Deadline { qid })
    }

    /// A cross-shard message batch.
    pub fn remote(at: u64, from: u16, to: u16, loads: u64, bytes: u64) -> Self {
        Self::new(at, 0, "remote", EventKind::Remote { from, to, loads, bytes })
    }

    /// The structural projection hashed by [`Tracer::canonical_hash`]:
    /// everything except ticks, or `None` for scheduling-detail events
    /// (morsels) that legitimately differ across thread counts.
    fn canonical(&self) -> Option<String> {
        let body = match self.kind {
            EventKind::Load { class, tier, hop, .. } => {
                format!("L|{class}|{tier}|{hop}")
            }
            EventKind::Fault { hop } => format!("F|{hop}"),
            EventKind::Retire { hop, failed } => format!("R|{hop}|{failed}"),
            EventKind::Query { qid, outcome, .. } => format!("Q|{qid}|{outcome}"),
            EventKind::Shed { qid } => format!("S|{qid}"),
            EventKind::Deadline { qid } => format!("D|{qid}"),
            EventKind::Remote { from, to, loads, bytes } => {
                format!("X|{from}|{to}|{loads}|{bytes}")
            }
            EventKind::Morsel { .. } => return None,
        };
        Some(format!("{}|{}|{}|{}|{}", self.op, self.key, self.tenant, self.shard, body))
    }
}

/// The buffer behind an enabled [`Tracer`].
#[derive(Debug, Clone, Default)]
struct TraceBuf {
    /// `Some(k)` = flight-recorder mode: keep only the last `k` events.
    cap: Option<usize>,
    events: VecDeque<TraceEvent>,
    /// Events evicted by the ring cap (counters and profile stay exact).
    dropped: u64,
    profile: StallProfile,
    loads: u64,
    retires: u64,
    faults: u64,
    tenant: u16,
    shard: u16,
}

impl TraceBuf {
    fn push(&mut self, mut ev: TraceEvent) {
        ev.tenant = self.tenant;
        ev.shard = self.shard;
        if let Some(cap) = self.cap {
            if cap == 0 {
                self.dropped += 1;
                return;
            }
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(ev);
    }
}

/// A structured-trace handle: either disabled (a bare `None`, free to
/// carry and branch on) or an owned event buffer plus stall profile.
///
/// See the crate docs for the recording rules. All recording methods are
/// no-ops on a disabled tracer.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Box<TraceBuf>>);

impl Tracer {
    /// A disabled tracer: records nothing, allocates nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// An enabled tracer with an unbounded event buffer.
    pub fn on() -> Self {
        Tracer(Some(Box::default()))
    }

    /// An enabled tracer that retains only the last `k` events — the
    /// flight-recorder mode. The attribution profile and the load /
    /// retire / fault counters stay exact; only event bodies are evicted
    /// (counted in [`dropped`](Self::dropped)).
    pub fn ring(k: usize) -> Self {
        Tracer(Some(Box::new(TraceBuf { cap: Some(k), ..TraceBuf::default() })))
    }

    /// Stamp subsequent events (and attribution cells) with `tenant`.
    pub fn with_tenant(mut self, tenant: u16) -> Self {
        if let Some(b) = self.0.as_deref_mut() {
            b.tenant = tenant;
        }
        self
    }

    /// Whether this tracer records. Hook sites branch on this once; the
    /// disabled path never touches the clock, so results are identical
    /// with tracing on or off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Take the tracer out, leaving a disabled one behind.
    pub fn take(&mut self) -> Tracer {
        std::mem::take(self)
    }

    /// A fresh tracer with the same mode (enabled/ring cap) and stamps,
    /// for handing to a sub-op; [`merge`](Self::merge) it back after.
    pub fn fork(&self) -> Tracer {
        match self.0.as_deref() {
            None => Tracer::off(),
            Some(b) => Tracer(Some(Box::new(TraceBuf {
                cap: b.cap,
                tenant: b.tenant,
                shard: b.shard,
                ..TraceBuf::default()
            }))),
        }
    }

    /// Record a pre-built event (query spans, sheds, deadlines, …).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if let Some(b) = self.0.as_deref_mut() {
            b.push(ev);
        }
    }

    /// Record a memory access the op is about to `wait(ready_at)` on,
    /// from tick `at` (the op's current sim time). The stall attributed —
    /// `ready_at − at`, saturating — is exactly what the tier clock will
    /// charge to `sim_stalls` for that wait, which is what makes the
    /// profile conserve.
    ///
    /// Takes the full attribution key flat: this is the per-wait hot-path
    /// hook, and a builder or args struct at every call site would cost
    /// more in noise than the arity does.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn load(
        &mut self,
        at: u64,
        op: &'static str,
        key: u64,
        class: ClassKind,
        tier: TierKind,
        hop: u16,
        ready_at: u64,
    ) {
        let Some(b) = self.0.as_deref_mut() else { return };
        let stalled = ready_at.saturating_sub(at);
        b.loads += 1;
        b.profile.add(StallKey { op, class, tier, hop, tenant: b.tenant, shard: b.shard }, stalled);
        b.push(TraceEvent::new(
            at,
            key,
            op,
            EventKind::Load { class, tier, hop, ready_at, stalled },
        ));
    }

    /// Record a lookup leaving the system at tick `at`.
    #[inline]
    pub fn retire(&mut self, at: u64, op: &'static str, key: u64, hop: u16, failed: bool) {
        let Some(b) = self.0.as_deref_mut() else { return };
        b.retires += 1;
        b.push(TraceEvent::new(at, key, op, EventKind::Retire { hop, failed }));
    }

    /// Record an injected load fault at tick `at`.
    #[inline]
    pub fn fault(&mut self, at: u64, op: &'static str, key: u64, hop: u16) {
        let Some(b) = self.0.as_deref_mut() else { return };
        b.faults += 1;
        b.push(TraceEvent::new(at, key, op, EventKind::Fault { hop }));
    }

    /// Fold `other` into this tracer: events append in `other`'s order
    /// (re-entering this tracer's ring cap, if any), profiles and
    /// counters add. Merging into a disabled tracer adopts `other`
    /// wholesale, so aggregation loops can start from [`Tracer::off`].
    pub fn merge(&mut self, other: Tracer) {
        let Some(o) = other.0 else { return };
        let Some(b) = self.0.as_deref_mut() else {
            self.0 = Some(o);
            return;
        };
        for ev in o.events {
            // Events are already stamped; bypass re-stamping.
            if let Some(cap) = b.cap {
                if cap == 0 || b.events.len() == cap {
                    if cap > 0 {
                        b.events.pop_front();
                        b.events.push_back(ev);
                    }
                    b.dropped += 1;
                    continue;
                }
            }
            b.events.push_back(ev);
        }
        b.dropped += o.dropped;
        b.profile.merge(&o.profile);
        b.loads += o.loads;
        b.retires += o.retires;
        b.faults += o.faults;
    }

    /// Re-stamp every buffered event and attribution cell with `shard`.
    /// The sharded runtime traces each sub-run with a core-local tracer
    /// and retags before the cross-core merge.
    pub fn retag_shard(&mut self, shard: u16) {
        let Some(b) = self.0.as_deref_mut() else { return };
        b.shard = shard;
        for ev in &mut b.events {
            ev.shard = shard;
        }
        let mut p = StallProfile::new();
        for (k, v) in b.profile.iter() {
            p.add(StallKey { shard, ..*k }, v);
        }
        b.profile = p;
    }

    /// Buffered events in recording order (empty when disabled).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.0.iter().flat_map(|b| b.events.iter())
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.0.as_deref().map_or(0, |b| b.events.len())
    }

    /// True when no events are buffered (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by a ring cap.
    pub fn dropped(&self) -> u64 {
        self.0.as_deref().map_or(0, |b| b.dropped)
    }

    /// Total attributed stall ticks (Σ over the profile).
    pub fn stalls(&self) -> u64 {
        self.0.as_deref().map_or(0, |b| b.profile.total())
    }

    /// Loads recorded (exact even in ring mode).
    pub fn loads(&self) -> u64 {
        self.0.as_deref().map_or(0, |b| b.loads)
    }

    /// Lookups retired (exact even in ring mode).
    pub fn retires(&self) -> u64 {
        self.0.as_deref().map_or(0, |b| b.retires)
    }

    /// Faults recorded (exact even in ring mode).
    pub fn faults(&self) -> u64 {
        self.0.as_deref().map_or(0, |b| b.faults)
    }

    /// The attribution cells in key order.
    pub fn stall_rows(&self) -> Vec<(StallKey, u64)> {
        self.0
            .as_deref()
            .map_or_else(Vec::new, |b| b.profile.iter().map(|(k, v)| (*k, v)).collect())
    }

    /// The conservation check: Σ attributed stalls equals the engine's
    /// `sim_stalls` counter and Σ retires equals its `lookups` counter.
    /// Requires an enabled tracer — a disabled one observed nothing and
    /// can vouch for nothing.
    pub fn conserves(&self, sim_stalls: u64, lookups: u64) -> bool {
        match self.0.as_deref() {
            None => false,
            Some(b) => b.profile.total() == sim_stalls && b.retires == lookups,
        }
    }

    /// A deterministic full-text dump: counters, profile, then one line
    /// per event. Two identical serial runs render byte-identically.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let Some(b) = self.0.as_deref() else {
            return String::new();
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: events={} dropped={} loads={} retires={} faults={} stalls={}",
            b.events.len(),
            b.dropped,
            b.loads,
            b.retires,
            b.faults,
            b.profile.total()
        );
        for (k, v) in b.profile.iter() {
            let _ = writeln!(
                out,
                "cell: op={} class={} tier={} hop={} tenant={} shard={} ticks={v}",
                k.op, k.class, k.tier, k.hop, k.tenant, k.shard
            );
        }
        for ev in &b.events {
            let _ = writeln!(
                out,
                "@{} key={} op={} tenant={} shard={} {:?}",
                ev.at, ev.key, ev.op, ev.tenant, ev.shard, ev.kind
            );
        }
        out
    }

    /// An order-independent structural fingerprint: FNV-1a over the
    /// *sorted* canonical projections of the buffered events, excluding
    /// ticks and scheduling-detail events (morsels). Two
    /// runs of the same workload under different thread counts or morsel
    /// schedulings hash equal — they observed the same loads, faults and
    /// retirements, just at different times.
    pub fn canonical_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let Some(b) = self.0.as_deref() else {
            return OFFSET;
        };
        let mut lines: Vec<String> = b.events.iter().filter_map(TraceEvent::canonical).collect();
        lines.sort_unstable();
        let mut h = OFFSET;
        for line in &lines {
            for &byte in line.as_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
            h = (h ^ u64::from(b'\n')).wrapping_mul(PRIME);
        }
        h
    }

    /// Export as Chrome `trace_event` JSON (load in `chrome://tracing`
    /// or Perfetto). Sim ticks are written as microsecond timestamps;
    /// stalled loads and query spans become complete (`"X"`) events with
    /// their stall/span as the duration, everything else an instant
    /// (`"i"`). Tracks: `pid` = shard, `tid` = tenant.
    pub fn chrome_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.begin_arr_key("traceEvents");
        for ev in self.events() {
            j.begin_obj();
            match ev.kind {
                EventKind::Load { class, tier, hop, ready_at, stalled } => {
                    j.str_field("name", &format!("{} {class} {tier} h{hop}", ev.op));
                    j.str_field("cat", "load");
                    j.str_field("ph", if stalled > 0 { "X" } else { "i" });
                    j.u64_field("ts", ev.at);
                    if stalled > 0 {
                        j.u64_field("dur", stalled);
                    }
                    j.begin_obj_key("args")
                        .u64_field("key", ev.key)
                        .u64_field("ready_at", ready_at)
                        .end_obj();
                }
                EventKind::Query { qid, end, outcome } => {
                    j.str_field("name", &format!("query {qid}"));
                    j.str_field("cat", "query");
                    j.str_field("ph", "X");
                    j.u64_field("ts", ev.at);
                    j.u64_field("dur", end.saturating_sub(ev.at));
                    j.begin_obj_key("args").str_field("outcome", outcome).end_obj();
                }
                kind => {
                    j.str_field("name", ev.op);
                    j.str_field("cat", "event");
                    j.str_field("ph", "i");
                    j.u64_field("ts", ev.at);
                    j.str_field("s", "t");
                    let mut args = j.begin_obj_key("args");
                    args = args.u64_field("key", ev.key);
                    match kind {
                        EventKind::Fault { hop } | EventKind::Retire { hop, .. } => {
                            args.u64_field("hop", u64::from(hop));
                        }
                        EventKind::Morsel { tid, tuples } => {
                            args.u64_field("tid", u64::from(tid)).u64_field("tuples", tuples);
                        }
                        EventKind::Remote { from, to, loads, bytes } => {
                            args.u64_field("from", u64::from(from))
                                .u64_field("to", u64::from(to))
                                .u64_field("loads", loads)
                                .u64_field("bytes", bytes);
                        }
                        _ => {}
                    }
                    j.end_obj();
                }
            }
            j.u64_field("pid", u64::from(ev.shard));
            j.u64_field("tid", u64::from(ev.tenant));
            j.end_obj();
        }
        j.end_arr();
        j.str_field("displayTimeUnit", "ns");
        j.end_obj();
        j.finish()
    }

    /// Render the stall profile as an aligned table with per-cell shares.
    pub fn stall_table(&self) -> Table {
        let total = self.stalls().max(1);
        let mut t = Table::new("stall attribution")
            .header(["op", "class", "tier", "hop", "tenant", "shard", "ticks", "share"]);
        for (k, v) in self.stall_rows() {
            t.row([
                k.op.to_string(),
                k.class.to_string(),
                k.tier.to_string(),
                k.hop.to_string(),
                k.tenant.to_string(),
                k.shard.to_string(),
                v.to_string(),
                format!("{:.1}%", 100.0 * v as f64 / total as f64),
            ]);
        }
        t
    }

    /// Consume the tracer, returning the buffered events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.0.map_or_else(Vec::new, |b| b.events.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_load(t: &mut Tracer, at: u64, key: u64, hop: u16, ready: u64) {
        let (class, tier) = if hop == 0 {
            (ClassKind::Header, TierKind::Near)
        } else {
            (ClassKind::Slab, TierKind::Far)
        };
        t.load(at, "probe", key, class, tier, hop, ready);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        probe_load(&mut t, 0, 1, 0, 10);
        t.retire(10, "probe", 1, 0, false);
        t.fault(10, "probe", 1, 0);
        t.record(TraceEvent::shed(0, 9));
        assert_eq!((t.len(), t.loads(), t.retires(), t.faults(), t.stalls()), (0, 0, 0, 0, 0));
        assert!(t.render().is_empty());
        assert!(!t.conserves(0, 0), "a disabled tracer cannot vouch for conservation");
    }

    #[test]
    fn ring_evicts_events_but_keeps_profile_exact() {
        let mut t = Tracer::ring(2);
        for i in 0..5u64 {
            probe_load(&mut t, i, i, 1, i + 8);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.loads(), 5, "counters must survive eviction");
        assert_eq!(t.stalls(), 5 * 8, "attribution must survive eviction");
        let kept: Vec<u64> = t.events().map(|e| e.key).collect();
        assert_eq!(kept, vec![3, 4], "ring keeps the most recent events");
    }

    #[test]
    fn conservation_checks_both_ledgers() {
        let mut t = Tracer::on();
        probe_load(&mut t, 0, 7, 0, 4);
        probe_load(&mut t, 4, 7, 1, 36);
        t.retire(36, "probe", 7, 1, false);
        assert!(t.conserves(36, 1));
        assert!(!t.conserves(35, 1), "stall mismatch must fail");
        assert!(!t.conserves(36, 2), "retire mismatch must fail");
    }

    #[test]
    fn merge_adopts_appends_and_adds() {
        let mut a = Tracer::off();
        let mut b = Tracer::on();
        b.retag_shard(3);
        probe_load(&mut b, 0, 1, 1, 16);
        a.merge(b);
        assert!(a.enabled(), "merging into off adopts the other buffer");
        assert_eq!(a.stalls(), 16);

        let mut c = Tracer::on();
        probe_load(&mut c, 2, 2, 1, 2); // zero stall
        c.retire(2, "probe", 2, 1, false);
        a.merge(c);
        assert_eq!(a.loads(), 2);
        assert_eq!(a.retires(), 1);
        assert_eq!(a.stalls(), 16);
        let shards: Vec<u16> = a.events().map(|e| e.shard).collect();
        assert_eq!(shards, vec![3, 0, 0], "merged events keep their original stamps");
    }

    #[test]
    fn merge_respects_ring_cap() {
        let mut a = Tracer::ring(2);
        let mut b = Tracer::on();
        for i in 0..4u64 {
            probe_load(&mut b, i, i, 0, i);
        }
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.dropped(), 2);
        assert_eq!(a.loads(), 4);
    }

    #[test]
    fn retag_shard_rewrites_events_and_profile() {
        let mut t = Tracer::on();
        probe_load(&mut t, 0, 1, 1, 10);
        t.retag_shard(5);
        assert!(t.events().all(|e| e.shard == 5));
        let rows = t.stall_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0.shard, 5);
        assert_eq!(t.stalls(), 10, "retagging must not change the total");
        probe_load(&mut t, 10, 2, 1, 10);
        assert!(t.events().all(|e| e.shard == 5), "new events inherit the new stamp");
    }

    #[test]
    fn canonical_hash_ignores_order_ticks_and_scheduling_events() {
        let mut a = Tracer::on();
        probe_load(&mut a, 0, 1, 0, 4);
        probe_load(&mut a, 4, 2, 1, 20);
        a.record(TraceEvent::morsel(9, 1, 64));

        let mut b = Tracer::on();
        probe_load(&mut b, 100, 2, 1, 120); // same structure, different ticks
        probe_load(&mut b, 107, 1, 0, 111);
        assert_eq!(a.canonical_hash(), b.canonical_hash());

        let mut c = Tracer::on();
        probe_load(&mut c, 0, 1, 0, 4);
        probe_load(&mut c, 4, 3, 1, 20); // different key
        assert_ne!(a.canonical_hash(), c.canonical_hash());
    }

    #[test]
    fn chrome_json_is_deterministic_and_balanced() {
        let build = || {
            let mut t = Tracer::on().with_tenant(2);
            t.retag_shard(1);
            probe_load(&mut t, 0, 42, 0, 4);
            t.fault(4, "probe", 42, 1);
            t.retire(4, "probe", 42, 1, true);
            t.record(TraceEvent::query(0, 7, 50, "completed"));
            t.record(TraceEvent::remote(5, 0, 1, 3, 192));
            t.chrome_json()
        };
        let (x, y) = (build(), build());
        assert_eq!(x, y, "export must be byte-deterministic");
        assert!(x.starts_with("{\"traceEvents\":["));
        assert!(x.contains("\"ph\":\"X\""));
        assert!(x.contains("\"outcome\":\"completed\""));
        assert!(x.contains("\"pid\":1"));
        assert!(x.contains("\"tid\":2"));
        assert_eq!(x.matches('{').count(), x.matches('}').count());
        assert_eq!(x.matches('[').count(), x.matches(']').count());
    }

    #[test]
    fn stall_table_rows_sum_to_total() {
        let mut t = Tracer::on();
        probe_load(&mut t, 0, 1, 0, 4);
        probe_load(&mut t, 4, 1, 1, 36);
        probe_load(&mut t, 36, 2, 1, 68);
        let table = t.stall_table();
        assert_eq!(table.len(), 2, "header cell + slab cell");
        let rendered = table.render();
        assert!(rendered.contains("header"));
        assert!(rendered.contains("slab"));
        assert!(rendered.contains("far"));
    }

    #[test]
    fn take_and_fork_preserve_mode() {
        let mut t = Tracer::ring(4).with_tenant(7);
        probe_load(&mut t, 0, 1, 0, 4);
        let f = t.fork();
        assert!(f.enabled());
        assert!(f.is_empty(), "fork starts empty");
        let taken = t.take();
        assert!(!t.enabled(), "take leaves a disabled tracer behind");
        assert_eq!(taken.len(), 1);
        assert_eq!(taken.events().next().unwrap().tenant, 7);
        assert!(Tracer::off().fork().0.is_none());
    }

    #[test]
    fn zero_capacity_ring_buffers_nothing_but_counts() {
        let mut t = Tracer::ring(0);
        probe_load(&mut t, 0, 1, 1, 9);
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.stalls(), 9);
    }

    #[test]
    fn into_events_returns_recording_order() {
        let mut t = Tracer::on();
        probe_load(&mut t, 0, 1, 0, 4);
        t.retire(4, "probe", 1, 0, false);
        let evs = t.into_events();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0].kind, EventKind::Load { .. }));
        assert!(matches!(evs[1].kind, EventKind::Retire { .. }));
    }
}
