//! Executor-side event counters.

/// Counters maintained by every executor over one run.
///
/// These are the quantities the paper uses to *explain* performance:
/// instruction overhead (≈ [`stages`](EngineStats::stages) +
/// [`noops`](EngineStats::noops)), lost MLP
/// ([`bailout_stages`](EngineStats::bailout_stages) run without overlap),
/// and serialization ([`latch_retries`](EngineStats::latch_retries)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Lookups completed.
    pub lookups: u64,
    /// Useful code stages executed (`start`s plus productive `step`s),
    /// including stages executed inside bailouts.
    pub stages: u64,
    /// Stage slots visited for already-finished lookups — GP/SPP's gray
    /// "no-operation" boxes (Fig. 2).
    pub noops: u64,
    /// Lookups that exceeded the static stage budget `N` and finished in a
    /// sequential cleanup pass (GP/SPP only).
    pub bailouts: u64,
    /// Stages executed inside bailout cleanup, i.e. without prefetch
    /// overlap.
    pub bailout_stages: u64,
    /// Failed latch acquisitions (AMAC: deferred slot rotations;
    /// baseline/GP/SPP: in-place spin iterations).
    pub latch_retries: u64,
    /// Prefetches issued (by the convention documented on
    /// [`super::LookupOp`]; stages whose op declines to prefetch — the
    /// `PrefetchHint::None` ablation — are not counted).
    pub prefetches: u64,
    /// Chain nodes dereferenced by the op's productive steps — the
    /// dependent cache-line hops a lookup actually paid for, reported by
    /// ops via [`super::Hooks::flush`]. This is the layout
    /// metric: fewer nodes per lookup = fewer prefetch/rotate cycles per
    /// probe at identical results.
    pub nodes_visited: u64,
    /// Chain nodes rejected by the SWAR tag filter without touching any
    /// key bytes (tag-probed tables only; 0 for ops without tags).
    pub tag_rejects: u64,
    /// Simulated work ticks charged by a tiered op's cost model (one per
    /// executed code stage; see `amac_tier`). Independent of executor
    /// scheduling, thread count and latency model — the denominator of
    /// [`stall_share`](EngineStats::stall_share). 0 for untiered runs.
    pub sim_cycles: u64,
    /// Simulated stall ticks: latency the executor's interleaving failed
    /// to hide (a stage dereferenced a line before its simulated load
    /// completed). This is the latency-tolerance metric: deep-window
    /// executors keep it near zero even at 8× far latency. 0 for
    /// untiered runs.
    pub sim_stalls: u64,
    /// Simulated far-memory loads that resolved to
    /// a failed ticket (charged by a fault-injecting
    /// `amac_tier::SimClock`). 0 for fault-free runs.
    pub load_faults: u64,
    /// Lookups retired via [`super::Step::Failed`] — a poisoned load
    /// aborted the chain walk. Counted *inside* [`lookups`](EngineStats::lookups)
    /// (a failed lookup still retires its window slot), so retirement
    /// proofs (`lookups == submitted`) survive faults.
    pub failed_lookups: u64,
    /// Lookups retired by cooperative lane cancellation
    /// (`amac::engine::mux::Mux::cancel`) without executing their
    /// remaining stages. Also counted inside
    /// [`lookups`](EngineStats::lookups).
    pub cancelled_lookups: u64,
    /// Loads actually issued by the op's execution context
    /// (`amac_tier::ExecCtx`). Without coalescing this equals the
    /// requests; with it fewer issue
    /// (`issued_loads + coalesced_loads == requests`). 0 for ops without
    /// a context.
    pub issued_loads: u64,
    /// Load requests the context deduped against an in-flight duplicate
    /// of the same cache line within one commit group. Deterministic:
    /// depends only on input order and group size, not on executor
    /// scheduling or thread count. 0 with coalescing off.
    pub coalesced_loads: u64,
    /// Bytes of logical WAL records appended by mutation ops
    /// (`amac_tier::WalRecord::encoded_len`). 0 for read-only ops and for
    /// mutation runs with logging disabled.
    pub log_bytes: u64,
    /// Amortized write-latency ticks charged per appended WAL record:
    /// the asymmetric NVM write cost (`CostModel::write_latency`) divided
    /// by the commit-group size (group commit rides the AMU commit
    /// group, so one flush wait is shared by the whole group). Kept
    /// separate from [`sim_stalls`](EngineStats::sim_stalls) — log writes
    /// are drained asynchronously at commit boundaries, they do not stall
    /// the lookup pipeline. 0 when no records were logged.
    pub log_stalls: u64,
    /// WAL records re-applied during recovery replay
    /// (`amac_ops::mutate::replay`). 0 outside recovery.
    pub replayed_records: u64,
    /// Queries that completed as `QueryOutcome::Recovered` — re-admitted
    /// after a crash by `amac_server`'s recovery path. 0 outside
    /// recovery.
    pub recovered_queries: u64,
    /// Cross-shard loads issued over the simulated interconnect
    /// (`amac_tier::Tier::Remote`): one request/response
    /// message-hop pair each. Coalesced duplicates of an in-flight remote
    /// line are *not* re-counted — the dedup is the point. 0 for
    /// single-shard runs.
    pub remote_loads: u64,
    /// Bytes moved across the simulated interconnect:
    /// `remote_loads × 64` (one cache line per message pair,
    /// `amac_tier::REMOTE_LINE_BYTES`). 0 for single-shard runs.
    pub remote_bytes: u64,
}

impl EngineStats {
    /// Merge counters from another run (per-thread aggregation).
    #[inline]
    pub fn merge(&mut self, o: &EngineStats) {
        self.lookups += o.lookups;
        self.stages += o.stages;
        self.noops += o.noops;
        self.bailouts += o.bailouts;
        self.bailout_stages += o.bailout_stages;
        self.latch_retries += o.latch_retries;
        self.prefetches += o.prefetches;
        self.nodes_visited += o.nodes_visited;
        self.tag_rejects += o.tag_rejects;
        self.sim_cycles += o.sim_cycles;
        self.sim_stalls += o.sim_stalls;
        self.load_faults += o.load_faults;
        self.failed_lookups += o.failed_lookups;
        self.cancelled_lookups += o.cancelled_lookups;
        self.issued_loads += o.issued_loads;
        self.coalesced_loads += o.coalesced_loads;
        self.log_bytes += o.log_bytes;
        self.log_stalls += o.log_stalls;
        self.replayed_records += o.replayed_records;
        self.recovered_queries += o.recovered_queries;
        self.remote_loads += o.remote_loads;
        self.remote_bytes += o.remote_bytes;
    }

    /// Fraction of simulated time spent stalled on unfinished loads:
    /// `sim_stalls / (sim_cycles + sim_stalls)` (0 when the run was
    /// untiered or fully hidden). The gated metric of
    /// `bench tier`: it grows toward 1 as exposed latency
    /// dominates work, and stays 0 for an executor whose window out-laps
    /// every load.
    pub fn stall_share(&self) -> f64 {
        let total = self.sim_cycles + self.sim_stalls;
        if total == 0 {
            0.0
        } else {
            self.sim_stalls as f64 / total as f64
        }
    }

    /// Mean chain nodes dereferenced per completed lookup (0 when the op
    /// does not report node visits).
    pub fn nodes_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.nodes_visited as f64 / self.lookups as f64
        }
    }

    /// Mean loads actually issued per completed lookup — the gated
    /// metric of `bench amu`. Under coalescing, skewed keys drive
    /// this *below* the uniform-key value because hot lines are deduped
    /// within commit groups. 0 when the op ran without a memory unit.
    pub fn issued_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.issued_loads as f64 / self.lookups as f64
        }
    }

    /// Fraction of load requests the memory unit coalesced away:
    /// `coalesced / (issued + coalesced)` (0 for scalar units or runs
    /// without a unit).
    pub fn coalesce_rate(&self) -> f64 {
        let requested = self.issued_loads + self.coalesced_loads;
        if requested == 0 {
            0.0
        } else {
            self.coalesced_loads as f64 / requested as f64
        }
    }

    /// Total stage slots visited per completed lookup — the software proxy
    /// for instructions-per-tuple (Table 3).
    pub fn work_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        (self.stages + self.noops + self.latch_retries + self.bailout_stages) as f64
            / self.lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = EngineStats { lookups: 1, stages: 10, prefetches: 5, ..Default::default() };
        a.merge(&EngineStats {
            lookups: 2,
            noops: 3,
            bailouts: 1,
            nodes_visited: 7,
            tag_rejects: 4,
            sim_cycles: 9,
            sim_stalls: 6,
            load_faults: 2,
            failed_lookups: 1,
            cancelled_lookups: 3,
            issued_loads: 8,
            coalesced_loads: 2,
            log_bytes: 17,
            log_stalls: 4,
            replayed_records: 5,
            recovered_queries: 1,
            remote_loads: 6,
            remote_bytes: 384,
            ..Default::default()
        });
        assert_eq!(a.lookups, 3);
        assert_eq!(a.stages, 10);
        assert_eq!(a.noops, 3);
        assert_eq!(a.bailouts, 1);
        assert_eq!(a.prefetches, 5);
        assert_eq!(a.nodes_visited, 7);
        assert_eq!(a.tag_rejects, 4);
        assert_eq!(a.sim_cycles, 9);
        assert_eq!(a.sim_stalls, 6);
        assert_eq!(a.load_faults, 2);
        assert_eq!(a.failed_lookups, 1);
        assert_eq!(a.cancelled_lookups, 3);
        assert_eq!(a.issued_loads, 8);
        assert_eq!(a.coalesced_loads, 2);
        assert_eq!(a.log_bytes, 17);
        assert_eq!(a.log_stalls, 4);
        assert_eq!(a.replayed_records, 5);
        assert_eq!(a.recovered_queries, 1);
        assert_eq!(a.remote_loads, 6);
        assert_eq!(a.remote_bytes, 384);
        assert!((a.nodes_per_lookup() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn amu_rates() {
        let s =
            EngineStats { lookups: 4, issued_loads: 6, coalesced_loads: 2, ..Default::default() };
        assert!((s.issued_per_lookup() - 1.5).abs() < 1e-12);
        assert!((s.coalesce_rate() - 0.25).abs() < 1e-12);
        assert_eq!(EngineStats::default().issued_per_lookup(), 0.0);
        assert_eq!(EngineStats::default().coalesce_rate(), 0.0);
    }

    #[test]
    fn stall_share_is_stalls_over_total_ticks() {
        let s = EngineStats { sim_cycles: 30, sim_stalls: 10, ..Default::default() };
        assert!((s.stall_share() - 0.25).abs() < 1e-12);
        assert_eq!(EngineStats::default().stall_share(), 0.0, "untiered runs report 0");
        let hidden = EngineStats { sim_cycles: 100, ..Default::default() };
        assert_eq!(hidden.stall_share(), 0.0, "fully hidden latency reports 0");
    }

    #[test]
    fn work_per_lookup() {
        let s = EngineStats { lookups: 4, stages: 16, noops: 4, ..Default::default() };
        assert!((s.work_per_lookup() - 5.0).abs() < 1e-12);
        assert_eq!(EngineStats::default().work_per_lookup(), 0.0);
    }
}
