//! Latch-free mutation operators (upsert / insert / delete) and the
//! recovery replay that reruns them.
//!
//! PR 5's latched build/group-by stages left a caveat: latch retries are
//! schedule-dependent, so their simulated counters are only deterministic
//! single-threaded. These ops close that gap with the frozen-boundary
//! discipline of `amac_hashtable` (`HashTable::freeze`): the structure
//! built by the latched phase is immutable during a mutation epoch, all
//! merges are commutative atomics, and misses CAS-prepend fully
//! initialized *fresh* nodes at chain heads. Two consequences:
//!
//! * **Results** are bit-identical under any interleaving (commutative
//!   `fetch_add`, CAS-arbitrated tombstones, one fresh node per
//!   (bucket, key) by prepend-with-recheck).
//! * **Simulated counters** are schedule-invariant by construction: the
//!   charged AMAC walk covers exactly the *frozen* part of a chain
//!   (header + frozen nodes — immutable, so hops, tag rejects and fault
//!   tokens depend only on the key), the fresh prefix is handled
//!   inline at terminal actions as near-resident bookkeeping, and
//!   stalls use an **issue-time residual model**: each issued load
//!   charges `max(0, latency − M)` immediately (`M` = the configured
//!   in-flight window — what an M-deep interleave cannot hide),
//!   instead of the probe's arrival-time wait which depends on how
//!   neighbors advanced the clock. Hence `sim_cycles`/`sim_stalls` are
//!   identical across 1/2/4T and every morsel scheduling — the
//!   regression test in this module pins exactly that.
//!
//! **Determinism discipline**: within one epoch, do not delete a key the
//! same epoch also upserts/inserts (the winner is schedule-dependent),
//! and do not mix `Insert` (dup-chaining) with `Upsert` (dedup) on one
//! key. The serving layer's waves and the recovery tests obey this.
//!
//! Every applied mutation appends a logical [`WalRecord`]; appends charge
//! `EngineStats::log_bytes` (encoded size) and `log_stalls` (the
//! asymmetric NVM write latency `CostModel::write_latency`, amortized
//! over the commit group `M` by group commit — arxiv 1809.09395). A
//! crash loses the unsealed tail; [`replay`] re-applies a sealed WAL
//! segment through the same op, reproducing the physical table
//! bit-for-bit (same fresh-node indices, same chain order).

use crate::chain::ChainCursor;
use amac::engine::{run, EngineStats, Hooks, LookupOp, Step, Technique, TuningParams};
use amac_hashtable::{Bucket, HashTable};
use amac_mem::prefetch::PrefetchHint;
use amac_mem::NULL_INDEX;
use amac_metrics::timer::CycleTimer;
use amac_runtime::{execute, MorselConfig};
use amac_tier::{ExecCtx, ExecSpec, FaultPlan, Ledger, TierSpec, WalRecord};
use amac_trace::Tracer;
use amac_workload::{Relation, Tuple};
use core::convert::Infallible;
use core::ptr::NonNull;
use core::sync::atomic::Ordering;

/// Which mutation a [`MutateOp`] applies per input tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MutateKind {
    /// `key += payload`, creating the tuple if absent (dedup; the
    /// serving-path default).
    #[default]
    Upsert,
    /// Unconditionally prepend `(key, payload)` — duplicates chain, O(1)
    /// beyond the charged header load.
    Insert,
    /// Tombstone every live tuple with `key` (payload ignored).
    Delete,
}

/// Mutation configuration (mirrors `ProbeConfig` where it overlaps).
#[derive(Debug, Clone)]
pub struct MutateConfig {
    /// Executor tuning (the paper's `M`); also the group-commit size the
    /// WAL write cost amortizes over, and the hiding depth of the
    /// issue-time residual stall model.
    pub params: TuningParams,
    /// The mutation applied per tuple.
    pub kind: MutateKind,
    /// Prefetch instruction policy.
    pub hint: PrefetchHint,
    /// Memory-tier cost model (`None` = untiered counters, but WAL costs
    /// still charge against the default [`amac_tier::CostModel`]).
    pub tier: Option<TierSpec>,
    /// Seeded far-load fault plan: a poisoned chain hop retires the
    /// mutation as [`Step::Failed`] — nothing applied, nothing logged.
    pub fault: Option<FaultPlan>,
    /// Append [`WalRecord`]s for applied mutations (on by default; the
    /// logging-off ablation isolates the WAL's `log_*` charges).
    pub wal: bool,
    /// Record a structured trace into [`MutateOutput::trace`] (see
    /// [`ProbeConfig::trace`](crate::join::ProbeConfig::trace)). Load
    /// events carry the **residual** stall of the issue-time model —
    /// exactly what the clock charges — so attribution still sums to
    /// `sim_stalls`.
    pub trace: bool,
}

impl MutateConfig {
    /// The execution context this config describes. Mutations never
    /// coalesce: group composition is schedule-dependent under morsel
    /// stealing, which would make `issued_loads` vary across thread
    /// counts.
    pub fn exec(&self) -> ExecSpec {
        ExecSpec { tier: self.tier, fault: self.fault, coalesce: None, hint: self.hint }
    }
}

impl Default for MutateConfig {
    fn default() -> Self {
        MutateConfig {
            params: TuningParams::default(),
            kind: MutateKind::Upsert,
            hint: PrefetchHint::Nta,
            tier: None,
            fault: None,
            wal: true,
            trace: false,
        }
    }
}

/// Per-mutation in-flight state (the circular-buffer entry).
#[derive(Default)]
pub struct MutState {
    /// Where the charged walk stands on the frozen chain.
    cursor: ChainCursor,
    delta: u64,
    /// Set by `start`, cleared once the header step ran (its `next` needs
    /// the fresh-prefix skip; frozen interiors cannot grow fresh nodes).
    at_header: bool,
    /// A delete's first frozen node holding a live copy of the key.
    hit: Option<NonNull<Bucket>>,
}

/// The latch-free mutation lookup as a state machine: stage 0 hashes and
/// requests the header; each later stage processes one **frozen** chain
/// node and requests the next; the terminal stage runs the fresh-prefix
/// action (merge/prepend/tombstone) and appends the WAL record. Each
/// lookup applies its mutation at one stage, the one that logs it, so a
/// lookup cut short (cancelled, timed out, faulted) applied nothing: a
/// delete's walk only finds the key's first frozen copy, and its terminal
/// tombstones from there.
pub struct MutateOp<'a> {
    ht: &'a HashTable,
    cfg: MutateConfig,
    /// Frozen boundary captured at construction (the epoch is already
    /// entered — `new` freezes).
    bound: u32,
    /// Latency a perfectly utilized M-deep window hides per load.
    hide: u64,
    /// Amortized asymmetric write ticks per WAL record
    /// (`write_latency / M`, ≥ 1), 0 with logging off.
    write_cost: u64,
    applied: u64,
    created: u64,
    merged: u64,
    deleted: u64,
    wal: Vec<WalRecord>,
    /// The op's execution context (also reachable, type-erased, through
    /// `ctx`).
    pub cx: ExecCtx,
}

impl<'a> MutateOp<'a> {
    /// Create a mutation op against `ht`, entering its latch-free epoch.
    pub fn new(ht: &'a HashTable, cfg: &MutateConfig) -> Self {
        let group = cfg.params.in_flight.max(1) as u64;
        let model = cfg.tier.map(|t| t.model).unwrap_or_default();
        MutateOp {
            ht,
            bound: ht.freeze(),
            hide: group,
            write_cost: if cfg.wal { model.write_latency().div_ceil(group).max(1) } else { 0 },
            cx: ExecCtx::new(&cfg.exec()),
            cfg: cfg.clone(),
            applied: 0,
            created: 0,
            merged: 0,
            deleted: 0,
            wal: Vec::new(),
        }
    }

    /// Mutations applied (every non-failed lookup).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Fresh nodes created (upsert misses + every insert).
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Upserts folded into an existing tuple.
    pub fn merged(&self) -> u64 {
        self.merged
    }

    /// Tuples tombstoned by deletes.
    pub fn deleted(&self) -> u64 {
        self.deleted
    }

    /// Take the WAL records appended so far (driver/serving drain; the
    /// records of one op are in its apply order).
    pub fn drain_wal(&mut self) -> Vec<WalRecord> {
        core::mem::take(&mut self.wal)
    }

    /// Issue-time residual stall: charge what an M-deep window cannot
    /// hide of the load `cur` just requested, independent of how far
    /// neighbors advanced the clock (`sim_stalls` stays schedule- and
    /// thread-invariant). The traced load event records exactly the
    /// residual as its stall, so attribution sums to `sim_stalls` under
    /// this model too. A plain context has no clock to charge and no
    /// tracer to tell.
    #[inline(always)]
    fn charge_residual<const PLAIN: bool>(&mut self, cur: &ChainCursor) {
        if !PLAIN {
            let now = self.cx.now();
            let residual = cur.ready_at.saturating_sub(now).saturating_sub(self.hide);
            self.cx.trace_load("mutate", cur.key, cur.hop, now + residual);
            self.cx.wait(now + residual);
        }
    }

    /// Append the lookup's WAL record and charge the log costs.
    fn log(&mut self, t: &mut MutateTally, rec: WalRecord) {
        if self.cfg.wal {
            t.log_bytes += rec.encoded_len();
            t.log_stalls += self.write_cost;
            self.wal.push(rec);
        }
    }

    /// The fresh-prefix action that ends the walk, counted into `t`; a
    /// delete also tombstones the frozen copies its walk found.
    fn terminal(&mut self, t: &mut MutateTally, state: &MutState) {
        let (key, delta) = (state.cursor.key, state.delta);
        match self.cfg.kind {
            MutateKind::Upsert => {
                if self.ht.fresh_upsert(key, delta) {
                    t.created += 1;
                } else {
                    t.merged += 1;
                }
                self.log(t, WalRecord::Upsert { key, delta });
            }
            MutateKind::Insert => {
                self.ht.fresh_insert(key, delta);
                t.created += 1;
                self.log(t, WalRecord::Insert { key, payload: delta });
            }
            MutateKind::Delete => {
                if let Some(node) = state.hit {
                    // SAFETY: the walk took `node` from this table's chain.
                    t.deleted +=
                        unsafe { self.tombstone_from(node.as_ptr(), state.cursor.probe, key) };
                }
                t.deleted += self.ht.fresh_delete(key);
                self.log(t, WalRecord::Delete { key });
            }
        }
        t.applied += 1;
    }

    /// Tombstone `key` in `node` and every frozen node after it: the nodes
    /// the charged walk already visited, so this pass charges nothing.
    ///
    /// # Safety
    /// `node` must be a header or frozen node of this table.
    unsafe fn tombstone_from(&self, mut node: *const Bucket, probe: u32, key: u64) -> u64 {
        let mut won = 0;
        loop {
            let b = &*node;
            won += self.ht.frozen_tombstone(node, b.slots(probe), key);
            let next = self.ht.skip_fresh(b.next_atomic().load(Ordering::Acquire), self.bound);
            if next == NULL_INDEX {
                return won;
            }
            node = self.ht.node_ptr(next);
        }
    }
}

/// [`MutateOp`]'s loop-carried scalars: its ledger, its outcome counters
/// and its WAL charges.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutateTally {
    led: Ledger,
    applied: u64,
    created: u64,
    merged: u64,
    deleted: u64,
    log_bytes: u64,
    log_stalls: u64,
}

impl LookupOp for MutateOp<'_> {
    type Input = Tuple;
    type State = MutState;
    type Tally = MutateTally;
    type Output = Infallible;

    #[inline(always)]
    fn start<const PLAIN: bool>(
        &mut self,
        t: &mut MutateTally,
        input: Tuple,
        state: &mut MutState,
    ) {
        state.cursor.start::<PLAIN>(self.ht, input.key, &mut self.cx, &mut t.led);
        state.delta = input.payload;
        state.at_header = true;
        state.hit = None;
        self.charge_residual::<PLAIN>(&state.cursor);
    }

    #[inline(always)]
    fn step<const PLAIN: bool>(&mut self, t: &mut MutateTally, state: &mut MutState) -> Step {
        let (key, delta) = (state.cursor.key, state.delta);
        if !PLAIN {
            self.cx.stage();
        }
        // SAFETY: the cursor points at the header or a frozen arena node
        // of this table; frozen meta/next are immutable during the epoch,
        // and slot accesses go through the atomic views.
        let b = unsafe { &*state.cursor.ptr };
        t.led.nodes_visited += 1;
        let slots = b.slots(state.cursor.probe);
        match self.cfg.kind {
            MutateKind::Insert => {
                // O(1): the header load was the whole charged walk.
                self.terminal(t, state);
                state.cursor.retire::<PLAIN>("mutate", &mut self.cx);
                return Step::Done;
            }
            // SAFETY: frozen node of this table.
            MutateKind::Upsert => {
                if unsafe { self.ht.frozen_merge(state.cursor.ptr, slots, key, delta) } {
                    t.merged += 1;
                    t.applied += 1;
                    self.log(t, WalRecord::Upsert { key, delta });
                    state.cursor.retire::<PLAIN>("mutate", &mut self.cx);
                    return Step::Done;
                }
            }
            MutateKind::Delete => {
                let mut copies = slots;
                if state.hit.is_none()
                    && copies.any(|i| b.key_atomic(i).load(Ordering::Relaxed) == key)
                {
                    state.hit = NonNull::new(state.cursor.ptr.cast_mut());
                }
            }
        }
        if slots.is_empty() {
            t.led.tag_rejects += 1;
        }
        // Advance to the next frozen node. Only the header's link can
        // point into the fresh prefix (prepends land at chain heads).
        let next = {
            let link = b.next_atomic().load(Ordering::Acquire);
            if state.at_header {
                self.ht.skip_fresh(link, self.bound)
            } else {
                link
            }
        };
        if next == NULL_INDEX {
            // The frozen walk is over: run the fresh-prefix action
            // before the cursor retires the lane.
            self.terminal(t, state);
        }
        let step = state.cursor.advance::<PLAIN>("mutate", self.ht, next, &mut self.cx, &mut t.led);
        if step == Step::Continue {
            self.charge_residual::<PLAIN>(&state.cursor);
            state.at_header = false;
        }
        step
    }

    #[inline(always)]
    fn tally(&self) -> MutateTally {
        MutateTally {
            led: Ledger::default(),
            applied: self.applied,
            created: self.created,
            merged: self.merged,
            deleted: self.deleted,
            log_bytes: 0,
            log_stalls: 0,
        }
    }

    #[inline(always)]
    fn settle(&mut self, t: MutateTally) {
        self.applied = t.applied;
        self.created = t.created;
        self.merged = t.merged;
        self.deleted = t.deleted;
        self.cx.obs.log_bytes += t.log_bytes;
        self.cx.obs.log_stalls += t.log_stalls;
        self.cx.settle(t.led);
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.cx
    }

    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        ChainCursor::looks_ahead(self.ht, &self.cx)
    }

    #[inline(always)]
    fn lookahead(&self, input: Tuple) {
        ChainCursor::lookahead(self.ht, input.key, &self.cx);
    }
}

/// Result of one mutation run.
#[derive(Debug, Clone, Default)]
pub struct MutateOutput {
    /// Mutations applied (== inputs − failed lookups).
    pub applied: u64,
    /// Fresh nodes created.
    pub created: u64,
    /// Upserts merged into existing tuples.
    pub merged: u64,
    /// Tuples tombstoned.
    pub deleted: u64,
    /// Executor event counters (including `log_bytes`/`log_stalls`).
    pub stats: EngineStats,
    /// Logical WAL records of every applied mutation, in apply order
    /// (multi-threaded drivers concatenate per-thread logs in tid order —
    /// deterministic *as a set*; the serving layer keeps strict order by
    /// mutating single-threaded per session).
    pub wal: Vec<WalRecord>,
    /// Mutation-loop wall time.
    pub seconds: f64,
    /// Structured trace harvested from the op(s) (disabled and empty
    /// unless [`MutateConfig::trace`] was set; multi-threaded drivers
    /// merge per-thread tracers in tid order).
    pub trace: Tracer,
}

/// The GP/SPP stage budget of `kind` mutations of `ht`: 1 for an insert,
/// whose walk is the header only; a walk of the chain for an upsert or a
/// delete, estimated from occupancy as for a probe
/// ([`ProbeConfig::n_stages`](crate::join::ProbeConfig::n_stages)` = 0`).
fn stages(ht: &HashTable, kind: MutateKind) -> usize {
    match kind {
        MutateKind::Insert => 1,
        _ => crate::join::auto_chain_estimate(ht),
    }
}

/// Run `cfg.kind` mutations from `rel` against `ht` with `technique`.
pub fn mutate(
    ht: &HashTable,
    rel: &Relation,
    technique: Technique,
    cfg: &MutateConfig,
) -> MutateOutput {
    let mut op = crate::traced(MutateOp::new(ht, cfg), cfg.trace);
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &rel.tuples, cfg.params, stages(ht, cfg.kind));
    let seconds = timer.seconds();
    let trace = op.cx.take_tracer();
    MutateOutput {
        applied: op.applied,
        created: op.created,
        merged: op.merged,
        deleted: op.deleted,
        wal: op.drain_wal(),
        stats,
        seconds,
        trace,
    }
}

/// [`mutate`] over the morsel runtime (the 1/2/4T determinism surface).
pub fn mutate_mt_rt(
    ht: &HashTable,
    rel: &Relation,
    technique: Technique,
    cfg: &MutateConfig,
    rt: &MorselConfig,
) -> MutateOutput {
    let run = execute(&rel.tuples, technique, cfg.params, stages(ht, cfg.kind), rt, |_tid| {
        crate::traced(MutateOp::new(ht, cfg), cfg.trace)
    });
    // `execute` already harvested every worker's tracer into the report.
    let mut out = MutateOutput {
        stats: run.report.stats,
        seconds: run.report.seconds,
        trace: run.report.trace,
        ..Default::default()
    };
    for mut op in run.ops {
        out.applied += op.applied;
        out.created += op.created;
        out.merged += op.merged;
        out.deleted += op.deleted;
        out.wal.extend(op.drain_wal());
    }
    out
}

/// A WAL record as the mutation that logged it.
fn as_mutation(rec: &WalRecord) -> (MutateKind, Tuple) {
    match *rec {
        WalRecord::Upsert { key, delta } => (MutateKind::Upsert, Tuple::new(key, delta)),
        WalRecord::Insert { key, payload } => (MutateKind::Insert, Tuple::new(key, payload)),
        WalRecord::Delete { key } => (MutateKind::Delete, Tuple::new(key, 0)),
    }
}

/// Replay a sealed WAL segment against `ht` **in record order**: each
/// maximal run of same-kind records goes through one [`MutateOp`] of that
/// kind, logging off, under the baseline executor at `M = 1` (replay must
/// preserve inter-key order across deletes, which interleaving would
/// not). Returns the executor stats;
/// `stats.replayed_records == stats.lookups == records.len()`.
pub fn replay(ht: &HashTable, records: &[WalRecord]) -> EngineStats {
    let muts: Vec<(MutateKind, Tuple)> = records.iter().map(as_mutation).collect();
    let mut stats = EngineStats::default();
    let mut lo = 0;
    while lo < muts.len() {
        let kind = muts[lo].0;
        let hi = muts[lo..].iter().position(|m| m.0 != kind).map_or(muts.len(), |n| lo + n);
        let tuples: Vec<Tuple> = muts[lo..hi].iter().map(|m| m.1).collect();
        let params = TuningParams::with_in_flight(1);
        let cfg = MutateConfig { params, kind, wal: false, ..Default::default() };
        stats.merge(&run(Technique::Baseline, &mut MutateOp::new(ht, &cfg), &tuples, params, 1));
        lo = hi;
    }
    // Every record is one lookup, and a replay never fails.
    EngineStats { replayed_records: stats.lookups, ..stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_runtime::Scheduling;
    use std::collections::HashMap;

    fn zipf_rel(n: usize, domain: u64, seed: u64) -> Relation {
        Relation::zipf(n, domain, 0.6, seed)
    }

    fn tiered() -> MutateConfig {
        MutateConfig { tier: Some(TierSpec::headers_near(8)), ..Default::default() }
    }

    #[test]
    fn all_techniques_agree_with_a_serial_model() {
        // The larger table's header array is past the lookahead gate.
        for n_build in [4_000, 1 << 17] {
            all_techniques_agree_over(n_build);
        }
    }

    fn all_techniques_agree_over(n_build: usize) {
        let build = Relation::dense_unique(n_build, 3);
        let ups = zipf_rel(6_000, n_build as u64 * 3 / 2, 7);
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for t in Technique::ALL {
            let ht = HashTable::build_serial(&build);
            let out = mutate(&ht, &ups, t, &tiered());
            assert_eq!(out.applied, ups.len() as u64);
            assert_eq!(out.created + out.merged, out.applied);
            assert_eq!(out.wal.len(), ups.len());
            let contents = ht.contents_sorted();
            match &reference {
                None => {
                    // Against a HashMap model.
                    let mut model: HashMap<u64, u64> = HashMap::new();
                    for t in &build.tuples {
                        model.insert(t.key, t.payload);
                    }
                    for t in &ups.tuples {
                        let e = model.entry(t.key).or_insert(0);
                        *e = e.wrapping_add(t.payload);
                    }
                    let mut want: Vec<(u64, u64)> = model.into_iter().collect();
                    want.sort_unstable();
                    assert_eq!(contents, want);
                    reference = Some(contents);
                }
                Some(r) => assert_eq!(&contents, r, "technique {t:?}"),
            }
        }
    }

    #[test]
    fn insert_chains_duplicates_and_delete_tombstones() {
        let ht = HashTable::with_buckets(64);
        let rel = Relation { tuples: vec![Tuple::new(5, 1), Tuple::new(5, 2), Tuple::new(9, 3)] };
        let cfg = MutateConfig { kind: MutateKind::Insert, ..Default::default() };
        let out = mutate(&ht, &rel, Technique::Amac, &cfg);
        assert_eq!(out.created, 3);
        assert_eq!(ht.lookup_all(5).len(), 2);
        let del = Relation { tuples: vec![Tuple::new(5, 0)] };
        let cfg = MutateConfig { kind: MutateKind::Delete, ..Default::default() };
        let out = mutate(&ht, &del, Technique::Gp, &cfg);
        assert_eq!(out.deleted, 2, "delete tombstones every copy");
        assert!(ht.lookup_all(5).is_empty());
        assert_eq!(ht.lookup_first(9), Some(3));
    }

    #[test]
    fn wal_records_mirror_applied_mutations() {
        let ht = HashTable::with_buckets(16);
        let rel = Relation { tuples: vec![Tuple::new(1, 10), Tuple::new(2, 20)] };
        let out = mutate(&ht, &rel, Technique::Spp, &MutateConfig::default());
        assert_eq!(
            out.wal,
            vec![WalRecord::Upsert { key: 1, delta: 10 }, WalRecord::Upsert { key: 2, delta: 20 }]
        );
        assert_eq!(out.stats.log_bytes, 34);
        assert!(out.stats.log_stalls >= 2, "amortized write cost per record");
        // Logging off: no records, no charges, same table effect.
        let ht2 = HashTable::with_buckets(16);
        let cfg = MutateConfig { wal: false, ..Default::default() };
        let out2 = mutate(&ht2, &rel, Technique::Spp, &cfg);
        assert!(out2.wal.is_empty());
        assert_eq!(out2.stats.log_bytes, 0);
        assert_eq!(out2.stats.log_stalls, 0);
        assert_eq!(ht2.contents_sorted(), ht.contents_sorted());
    }

    #[test]
    fn faults_abort_without_applying_or_logging() {
        let build = Relation::dense_unique(2_000, 3);
        // Force overflow chains so mutations take checkable slab hops;
        // every key twice, so a delete's copies sit in different nodes.
        let ht = HashTable::with_buckets(64);
        {
            let mut h = ht.build_handle();
            for t in build.tuples.iter().chain(&build.tuples) {
                h.insert(t.key, t.payload);
            }
        }
        let ups = zipf_rel(2_000, 2_000, 9);
        for kind in [MutateKind::Upsert, MutateKind::Delete] {
            let cfg = MutateConfig { kind, fault: Some(FaultPlan::fail_only(7, 60)), ..tiered() };
            let mut sets: Vec<(u64, u64)> = Vec::new();
            for t in Technique::ALL {
                let ht_t = HashTable::restore(&ht.snapshot());
                let out = mutate(&ht_t, &ups, t, &cfg);
                assert!(out.stats.failed_lookups > 0, "fault plan fired under {t:?}");
                assert_eq!(out.applied + out.stats.failed_lookups, ups.len() as u64);
                assert_eq!(out.wal.len() as u64, out.applied, "failed mutations are not logged");
                // Nor applied: the log alone rebuilds the table.
                let back = HashTable::restore(&ht.snapshot());
                replay(&back, &out.wal);
                assert_eq!(back.contents_sorted(), ht_t.contents_sorted(), "{kind:?} {t:?}");
                sets.push((out.stats.failed_lookups, out.applied));
            }
            assert!(sets.windows(2).all(|w| w[0] == w[1]), "fault sets invariant: {sets:?}");
        }
    }

    #[test]
    fn upsert_sim_counters_pin_identical_across_threads_and_schedulings() {
        // The PR 5 caveat, closed: latch-free upserts keep simulated
        // counters identical at 1/2/4T under every morsel scheduling.
        let build = Relation::dense_unique(6_000, 3);
        let ups = zipf_rel(8_000, 4_000, 13);
        let cfg = tiered();
        let ht = HashTable::build_serial(&build);
        ht.freeze();
        let snap = ht.snapshot();
        let reference = mutate(&ht, &ups, Technique::Amac, &cfg);
        assert!(reference.stats.sim_cycles > 0 && reference.stats.sim_stalls > 0);
        for threads in [1usize, 2, 4] {
            for sched in [Scheduling::StaticChunk, Scheduling::WorkSteal] {
                let ht_t = HashTable::restore(&snap);
                let rt = MorselConfig { threads, morsel_tuples: 1024, scheduling: sched };
                let out = mutate_mt_rt(&ht_t, &ups, Technique::Amac, &cfg, &rt);
                assert_eq!(
                    out.stats.sim_cycles, reference.stats.sim_cycles,
                    "sim_cycles at {threads}T {sched:?}"
                );
                assert_eq!(
                    out.stats.sim_stalls, reference.stats.sim_stalls,
                    "sim_stalls at {threads}T {sched:?}"
                );
                assert_eq!(out.stats.log_bytes, reference.stats.log_bytes);
                assert_eq!(out.stats.log_stalls, reference.stats.log_stalls);
                assert_eq!(out.stats.nodes_visited, reference.stats.nodes_visited);
                assert_eq!(out.stats.tag_rejects, reference.stats.tag_rejects);
                assert_eq!(ht_t.contents_sorted(), ht.contents_sorted(), "results bit-identical");
            }
        }
    }

    #[test]
    fn replay_rebuilds_the_table_bit_identically() {
        let build = Relation::dense_unique(3_000, 3);
        let ops = zipf_rel(4_000, 3_500, 17);
        let ht = HashTable::build_serial(&build);
        ht.freeze();
        let checkpoint = ht.snapshot();
        let out = mutate(&ht, &ops, Technique::Amac, &tiered());
        // Crash: rebuild from the checkpoint + WAL replay.
        let back = HashTable::restore(&checkpoint);
        let stats = replay(&back, &out.wal);
        assert_eq!(stats.replayed_records, out.wal.len() as u64);
        assert_eq!(stats.lookups, out.wal.len() as u64);
        assert_eq!(back.contents_sorted(), ht.contents_sorted());
        // Physically identical too: same arena shape and frozen bound.
        assert_eq!(back.nodes().len(), ht.nodes().len());
        assert_eq!(back.frozen_bound(), ht.frozen_bound());
        // A deletes-included epoch replays exactly as well.
        let ht2 = HashTable::restore(&checkpoint);
        let del = Relation { tuples: ops.tuples[..100].to_vec() };
        let cfg = MutateConfig { kind: MutateKind::Delete, ..Default::default() };
        let out2 = mutate(&ht2, &del, Technique::Baseline, &cfg);
        let back2 = HashTable::restore(&checkpoint);
        replay(&back2, &out2.wal);
        assert_eq!(back2.contents_sorted(), ht2.contents_sorted());
    }
}
