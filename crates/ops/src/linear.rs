//! Linear-probing (open-addressing) table probe under all four
//! techniques — the flat-layout ablation (§2.1.1's layout/space tradeoff).
//!
//! A probe step consumes one **cache line** (four slots): it scans the
//! current slot group for the key or a free slot and, failing both,
//! advances to — and prefetches — the next line. At low fill almost every
//! lookup finishes in one step (perfectly regular); at high fill the
//! displacement distribution's long tail makes lookup length irregular,
//! which is exactly the regime where static schedules shed MLP.

use amac::engine::{run, EngineStats, LookupOp, Step, Technique, TuningParams};
use amac_hashtable::linear::{LinearTable, EMPTY_KEY, SLOTS_PER_LINE};
use amac_mem::prefetch::prefetch_read;
use amac_metrics::timer::CycleTimer;
use amac_workload::{Relation, Tuple};

/// Linear-probe configuration.
#[derive(Debug, Clone)]
pub struct LinearProbeConfig {
    /// Executor tuning (the paper's `M`).
    pub params: TuningParams,
    /// GP/SPP static stage budget (`N`); `0` = derive from the table's
    /// measured average displacement.
    pub n_stages: usize,
    /// Walk the full probe window and count every duplicate match
    /// (multimap semantics); `false` stops at the first match.
    pub scan_all: bool,
    /// Materialize the first matching payload per probe tuple.
    pub materialize: bool,
}

impl Default for LinearProbeConfig {
    fn default() -> Self {
        LinearProbeConfig {
            params: TuningParams::default(),
            n_stages: 0,
            scan_all: false,
            materialize: true,
        }
    }
}

/// Result of one linear-probe run.
#[derive(Debug, Clone, Default)]
pub struct LinearProbeOutput {
    /// Total key matches found.
    pub matches: u64,
    /// Wrapping sum of matched payloads (order-independent checksum).
    pub checksum: u64,
    /// First-match payload per probe tuple (`u64::MAX` = miss) when
    /// materializing.
    pub out: Vec<u64>,
    /// Executor event counters.
    pub stats: EngineStats,
    /// Probe-loop cycles.
    pub cycles: u64,
    /// Probe-loop wall time.
    pub seconds: f64,
}

/// Per-lookup state: key, input position, and the next slot to examine.
#[derive(Default)]
pub struct LinearProbeState {
    key: u64,
    idx: usize,
    /// Next slot index to examine (wrapped).
    slot: usize,
    /// Slots examined so far (full-table wraparound guard).
    walked: usize,
}

/// The linear-probing lookup as a state machine: stage 0 hashes the key
/// and prefetches the home line; each later stage consumes one line.
pub struct LinearProbeOp<'a> {
    table: &'a LinearTable,
    cfg: LinearProbeConfig,
    n_stages: usize,
    matches: u64,
    checksum: u64,
    out: Vec<u64>,
    cursor: usize,
}

impl<'a> LinearProbeOp<'a> {
    /// Build the op for one run over `n_probes` tuples.
    pub fn new(table: &'a LinearTable, cfg: &LinearProbeConfig, n_probes: usize) -> Self {
        let n_stages = if cfg.n_stages == 0 {
            // Average lines touched ≈ 1 + avg displacement / slots-per-line.
            1 + (table.stats().avg_displacement / SLOTS_PER_LINE as f64).ceil() as usize
        } else {
            cfg.n_stages
        };
        LinearProbeOp {
            table,
            cfg: cfg.clone(),
            n_stages,
            matches: 0,
            checksum: 0,
            out: if cfg.materialize { vec![u64::MAX; n_probes] } else { Vec::new() },
            cursor: 0,
        }
    }
}

impl LookupOp for LinearProbeOp<'_> {
    type Input = Tuple;
    type State = LinearProbeState;
    type Tally = ();

    fn budgeted_steps(&self) -> usize {
        self.n_stages
    }

    /// Stage 0: hash the key, prefetch the home cache line.
    fn start(&mut self, input: Tuple, state: &mut LinearProbeState) {
        let home = self.table.home_slot(input.key);
        prefetch_read(self.table.line_addr(home));
        state.key = input.key;
        state.idx = self.cursor;
        state.slot = home;
        state.walked = 0;
        self.cursor += 1;
    }

    /// Later stages: scan the current line from `state.slot` to its end;
    /// resolve, or advance to (and prefetch) the next line.
    fn step(&mut self, state: &mut LinearProbeState) -> Step {
        let mut s = state.slot;
        loop {
            let t = self.table.slot(s);
            if t.key == EMPTY_KEY {
                return Step::Done; // free slot terminates the window
            }
            if t.key == state.key {
                self.matches += 1;
                self.checksum = self.checksum.wrapping_add(t.payload);
                if self.cfg.materialize && self.out[state.idx] == u64::MAX {
                    self.out[state.idx] = t.payload;
                }
                if !self.cfg.scan_all {
                    return Step::Done; // early exit on first match
                }
            }
            state.walked += 1;
            if state.walked >= self.table.slot_count() {
                return Step::Done; // scanned every slot (full-table guard)
            }
            s = self.table.next_slot(s);
            if s % SLOTS_PER_LINE == 0 {
                break; // crossed into the next cache line
            }
        }
        state.slot = s;
        prefetch_read(self.table.line_addr(s));
        Step::Continue
    }
}

/// Run a probe of `s` against `table` with `technique`.
pub fn linear_probe(
    table: &LinearTable,
    s: &Relation,
    technique: Technique,
    cfg: &LinearProbeConfig,
) -> LinearProbeOutput {
    let mut op = LinearProbeOp::new(table, cfg, s.len());
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &s.tuples, cfg.params);
    LinearProbeOutput {
        matches: op.matches,
        checksum: op.checksum,
        out: op.out,
        stats,
        cycles: timer.cycles(),
        seconds: timer.seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_and_probe_all(fill: f64, scan_all: bool) {
        let rel = Relation::dense_unique(4096, 7);
        let table = LinearTable::build_serial(&rel, fill);
        let probe_rel = rel.shuffled(8);
        let mut reference: Option<(u64, u64, Vec<u64>)> = None;
        for t in Technique::ALL {
            let cfg = LinearProbeConfig { scan_all, ..Default::default() };
            let out = linear_probe(&table, &probe_rel, t, &cfg);
            assert_eq!(out.matches, 4096, "{t} fill={fill}");
            match &reference {
                None => reference = Some((out.matches, out.checksum, out.out.clone())),
                Some((m, c, o)) => {
                    assert_eq!(out.matches, *m, "{t}");
                    assert_eq!(out.checksum, *c, "{t}");
                    assert_eq!(&out.out, o, "{t}");
                }
            }
        }
    }

    #[test]
    fn all_techniques_agree_low_fill() {
        build_and_probe_all(0.3, false);
    }

    #[test]
    fn all_techniques_agree_high_fill() {
        build_and_probe_all(0.9, false);
    }

    #[test]
    fn all_techniques_agree_scan_all() {
        build_and_probe_all(0.7, true);
    }

    #[test]
    fn duplicates_counted_under_scan_all() {
        let tuples: Vec<Tuple> =
            (0..64u64).flat_map(|k| (0..3u64).map(move |r| Tuple::new(k, k * 10 + r))).collect();
        let rel = Relation::from_tuples(tuples);
        let table = LinearTable::build_serial(&rel, 0.6);
        let probe_rel = Relation::from_tuples((0..64u64).map(|k| Tuple::new(k, 0)).collect());
        for t in Technique::ALL {
            let cfg = LinearProbeConfig { scan_all: true, ..Default::default() };
            let out = linear_probe(&table, &probe_rel, t, &cfg);
            assert_eq!(out.matches, 64 * 3, "{t}: every duplicate visible");
        }
    }

    #[test]
    fn misses_terminate_and_report_zero() {
        let rel = Relation::dense_unique(512, 3);
        let table = LinearTable::build_serial(&rel, 0.5);
        let probe_rel =
            Relation::from_tuples((10_000..10_100u64).map(|k| Tuple::new(k, 0)).collect());
        for t in Technique::ALL {
            let out = linear_probe(&table, &probe_rel, t, &Default::default());
            assert_eq!(out.matches, 0, "{t}");
            assert!(out.out.iter().all(|&p| p == u64::MAX), "{t}");
        }
    }

    #[test]
    fn high_fill_induces_multi_line_lookups() {
        let rel = Relation::dense_unique(1 << 13, 5);
        let table = LinearTable::build_serial(&rel, 0.95);
        let probe_rel = rel.shuffled(6);
        let out = linear_probe(&table, &probe_rel, Technique::Amac, &Default::default());
        // At 95% fill the mean probe walks well past its home line
        // (expected scan ≈ ½(1 + 1/(1−α)) ≈ 10 slots), so stages per
        // lookup (1 start + lines visited) must exceed 2.5.
        assert!(
            out.stats.stages * 2 > out.stats.lookups * 5,
            "expected heavy multi-line probing: {:?}",
            out.stats
        );
        assert_eq!(out.matches, 1 << 13);
    }

    #[test]
    fn auto_budget_tracks_displacement() {
        let rel = Relation::dense_unique(4096, 9);
        let sparse = LinearTable::build_serial(&rel, 0.25);
        let dense = LinearTable::build_serial(&rel, 0.9);
        let op_s = LinearProbeOp::new(&sparse, &Default::default(), 0);
        let op_d = LinearProbeOp::new(&dense, &Default::default(), 0);
        assert!(op_d.budgeted_steps() >= op_s.budgeted_steps());
        assert!(op_s.budgeted_steps() >= 1);
    }

    #[test]
    fn empty_probe_relation() {
        let rel = Relation::dense_unique(16, 1);
        let table = LinearTable::build_serial(&rel, 0.5);
        let empty = Relation::default();
        let out = linear_probe(&table, &empty, Technique::Amac, &Default::default());
        assert_eq!(out.matches, 0);
        assert_eq!(out.stats.lookups, 0);
    }
}
