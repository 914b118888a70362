//! Skip list search and insert (§5.4) under all four techniques.
//!
//! The search is the [`search`] op over [`SkipCursor`]. Its stages, and
//! the insert's search stages, follow Table 1 ("Skip List Insert",
//! search part):
//! examine the prefetched successor at the current level — advance on
//! `<`, match on `==`, descend a level on `>` (collecting the predecessor
//! when inserting). Stage 0 walks the list's top [`HOT_LEVELS`] levels
//! inline ([`SkipCursor::start`]); the moves below them are stages.
//! The insert transition ("Generate rand. lvl / Get new node" then
//! "Initialize new node / Splice w/ collected nodes") maps to a
//! node-allocation stage followed by one latched splice stage per tower
//! level, each of which can report [`Step::Blocked`] for AMAC to defer.
//!
//! The per-lookup insert state carries the predecessor vector — the
//! "0.5KB per lookup … maintained in AMAC's circular buffer for each
//! in-flight lookup" the paper calls out.

use crate::search::{search, SearchOutput};
use amac::engine::{run, EngineStats, LookupOp, Step, Technique, TuningParams};
use amac_metrics::timer::CycleTimer;
use amac_skiplist::{
    try_splice_level, InsertHandle, SkipCursor, SkipList, SkipMove, SkipNode, SpliceOutcome,
    HOT_LEVELS, MAX_LEVEL,
};
use amac_workload::{Relation, Tuple};
use core::convert::Infallible;

/// Skip-list operation configuration.
#[derive(Debug, Clone, Default)]
pub struct SkipConfig {
    /// Executor tuning (the paper's `M`).
    pub params: TuningParams,
    /// GP/SPP stage budget (`N`); `0` = auto (≈ 2 moves per level below
    /// the [`HOT_LEVELS`] that stage 0 walks inline).
    pub n_stages: usize,
}

/// The GP/SPP stage budget `cfg` sets for a search of `list`.
fn budget(list: &SkipList, cfg: &SkipConfig) -> usize {
    match cfg.n_stages {
        0 => 2 * (list.level().saturating_sub(HOT_LEVELS) + 1),
        n => n,
    }
}

/// The GP/SPP stage budget `cfg` sets for inserting into a list that
/// holds `expected_total` keys at the end: derived from that size, since
/// the list may start empty.
pub(crate) fn insert_budget(cfg: &SkipConfig, expected_total: usize) -> usize {
    match cfg.n_stages {
        0 => {
            let levels = (expected_total.max(2) as f64).log2().ceil() as usize;
            2 * (levels.saturating_sub(HOT_LEVELS) + 1) + 2
        }
        n => n,
    }
}

/// Run `probe_rel` searches against `list` with `technique`: the
/// [`search`] op over [`SkipCursor`], not materializing.
pub fn skip_search(
    list: &SkipList,
    probe_rel: &Relation,
    technique: Technique,
    cfg: &SkipConfig,
) -> SearchOutput {
    search::<SkipCursor>(list, probe_rel, technique, cfg.params, budget(list, cfg), false)
}

/// Result of an insert run.
#[derive(Debug, Clone, Default)]
pub struct SkipInsertOutput {
    /// Keys newly inserted.
    pub inserted: u64,
    /// Keys rejected as duplicates.
    pub duplicates: u64,
    /// Executor event counters.
    pub stats: EngineStats,
    /// Loop cycles.
    pub cycles: u64,
    /// Loop wall time.
    pub seconds: f64,
}

/// Phase of an in-flight insert lookup.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
enum InsertPhase {
    #[default]
    Search,
    Splice,
}

/// Per-lookup insert state — the paper's ~0.5 KB circular-buffer entry
/// (predecessor vector included).
pub struct SkipInsertState<'a> {
    key: u64,
    payload: u64,
    cursor: SkipCursor<'a>,
    preds: [*mut SkipNode; MAX_LEVEL + 1],
    node: *mut SkipNode,
    splice_level: usize,
    top: usize,
    phase: InsertPhase,
}

impl Default for SkipInsertState<'_> {
    fn default() -> Self {
        SkipInsertState {
            key: 0,
            payload: 0,
            cursor: SkipCursor::default(),
            preds: [core::ptr::null_mut(); MAX_LEVEL + 1],
            node: core::ptr::null_mut(),
            splice_level: 0,
            top: 0,
            phase: InsertPhase::Search,
        }
    }
}

/// The insert state machine.
pub struct SkipInsertOp<'a> {
    handle: InsertHandle<'a>,
    inserted: u64,
    duplicates: u64,
}

impl<'a> SkipInsertOp<'a> {
    /// Create the op, drawing tower heights from `seed`.
    pub fn new(list: &'a SkipList, seed: u64) -> Self {
        SkipInsertOp { handle: list.handle(seed), inserted: 0, duplicates: 0 }
    }

    /// Keys newly inserted so far.
    #[inline]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Keys rejected as duplicates so far.
    #[inline]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

impl<'a> LookupOp for SkipInsertOp<'a> {
    type Input = Tuple;
    type State = SkipInsertState<'a>;
    type Tally = ();
    type Output = Infallible;

    fn start<const PLAIN: bool>(
        &mut self,
        _: &mut (),
        input: Tuple,
        state: &mut SkipInsertState<'a>,
    ) {
        let list = self.handle.list();
        // Predecessors above the entry level are the head itself.
        state.preds = [list.head() as *mut SkipNode; MAX_LEVEL + 1];
        state.key = input.key;
        state.payload = input.payload;
        let preds = &mut state.preds;
        state.cursor = SkipCursor::start(list, input.key, |level, pred| preds[level] = pred);
        state.node = core::ptr::null_mut();
        state.splice_level = 0;
        state.phase = InsertPhase::Search;
    }

    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut SkipInsertState<'a>) -> Step {
        match state.phase {
            InsertPhase::Search => {
                match state.cursor.step(state.key) {
                    SkipMove::Advanced => return Step::Continue,
                    SkipMove::Found(_) => {
                        self.duplicates += 1;
                        return Step::Done;
                    }
                    // Descending records the predecessor at the level left.
                    SkipMove::Descended(left, pred) => {
                        state.preds[left] = pred;
                        return Step::Continue;
                    }
                    SkipMove::Bottom(pred) => state.preds[0] = pred,
                }
                // Level 0 reached without a match: move to the insert
                // phase (Table 1 stage 2: generate random level, get new
                // node) — CPU work, no prefetch needed.
                let top = self.handle.random_level();
                state.node = self.handle.alloc_node(state.key, state.payload, top);
                state.top = top;
                state.splice_level = 0;
                state.phase = InsertPhase::Splice;
                Step::Continue
            }
            InsertPhase::Splice => {
                // Table 1 stage 3: splice with collected predecessors,
                // one latched level per step, bottom-up.
                let lvl = state.splice_level;
                // SAFETY: preds[lvl] is head or a node recorded during the
                // search with top_level >= lvl; node is initialized and
                // not yet spliced at lvl.
                match unsafe { try_splice_level(state.preds[lvl], state.node, lvl) } {
                    SpliceOutcome::Spliced => {
                        if lvl == state.top {
                            self.handle.list().raise_level(state.top);
                            self.inserted += 1;
                            return Step::Done;
                        }
                        state.splice_level += 1;
                        Step::Continue
                    }
                    SpliceOutcome::Blocked => Step::Blocked,
                    SpliceOutcome::Moved(np) => {
                        state.preds[lvl] = np;
                        Step::Continue
                    }
                    SpliceOutcome::AlreadyPresent => {
                        debug_assert_eq!(lvl, 0, "duplicate surfaced above level 0");
                        self.duplicates += 1;
                        Step::Done
                    }
                }
            }
        }
    }
}

/// Insert every tuple of `input` into `list` with `technique`.
pub fn skip_insert(
    list: &SkipList,
    input: &Relation,
    technique: Technique,
    cfg: &SkipConfig,
    seed: u64,
) -> SkipInsertOutput {
    let mut op = SkipInsertOp::new(list, seed);
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &input.tuples, cfg.params, insert_budget(cfg, input.len()));
    SkipInsertOutput {
        inserted: op.inserted,
        duplicates: op.duplicates,
        stats,
        cycles: timer.cycles(),
        seconds: timer.seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests::{answers_agree, probe};

    #[test]
    fn insert_then_search_roundtrip_all_techniques() {
        let rel = Relation::sparse_unique(4000, 51);
        let probe = rel.shuffled(52);
        for t in Technique::ALL {
            let list = SkipList::new();
            let ins = skip_insert(&list, &rel, t, &SkipConfig::default(), 7);
            assert_eq!(ins.inserted, 4000, "{t}: all unique keys inserted");
            assert_eq!(ins.duplicates, 0, "{t}");
            assert_eq!(list.len(), 4000, "{t}");
            // Structure is valid: ordered level-0 with exact content.
            let items = list.items();
            assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "{t}: unordered");
            let sr = skip_search(&list, &probe, t, &SkipConfig::default());
            assert_eq!(sr.found, 4000, "{t}: search finds every inserted key");
        }
    }

    fn agree(keys: &Relation, probe: &Relation) {
        let list = SkipList::new();
        skip_insert(&list, keys, Technique::Baseline, &SkipConfig::default(), 3);
        answers_agree(keys, probe, |t| skip_search(&list, probe, t, &SkipConfig::default()));
    }

    #[test]
    fn search_checksum_agrees_across_techniques() {
        let rel = Relation::sparse_unique(3000, 61);
        agree(&rel, &rel.shuffled(62));
    }

    #[test]
    fn duplicate_inserts_are_rejected_by_every_technique() {
        let mut tuples = Vec::new();
        for k in 1..=500u64 {
            tuples.push(Tuple::new(k, k));
            tuples.push(Tuple::new(k, k + 10_000)); // duplicate key
        }
        let rel = Relation::from_tuples(tuples);
        for t in Technique::ALL {
            let list = SkipList::new();
            let ins = skip_insert(&list, &rel, t, &SkipConfig::default(), 9);
            assert_eq!(ins.inserted, 500, "{t}");
            assert_eq!(ins.duplicates, 500, "{t}");
            assert_eq!(list.len(), 500, "{t}");
            // Exactly one of the two racing payloads survives per key
            // (which one is schedule-dependent — in-flight lookups are
            // unordered, as in the paper).
            for k in 1..=500u64 {
                let got = list.get(k).unwrap_or_else(|| panic!("{t}: key {k} missing"));
                assert!(got == k || got == k + 10_000, "{t}: key {k} has foreign payload {got}");
            }
        }
    }

    #[test]
    fn misses_return_not_found() {
        agree(&Relation::dense_unique(100, 71), &probe(1000..1100));
    }

    #[test]
    fn interleaved_inserts_into_shared_region_conflict_and_recover() {
        // Narrow key range → splice windows collide across in-flight
        // lookups; AMAC must defer (Blocked) yet stay correct.
        let tuples: Vec<Tuple> = (0..2000u64).map(|i| Tuple::new(i * 2 + 1, i)).collect();
        let rel = Relation::from_tuples(tuples);
        let list = SkipList::new();
        let out = skip_insert(&list, &rel, Technique::Amac, &SkipConfig::default(), 13);
        assert_eq!(out.inserted, 2000);
        assert_eq!(list.len(), 2000);
        let items = list.items();
        assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_list_and_empty_input() {
        agree(&Relation::default(), &probe(5..6));
        let list = SkipList::new();
        let ins =
            skip_insert(&list, &Relation::default(), Technique::Spp, &SkipConfig::default(), 2);
        assert_eq!(ins.inserted, 0);
    }
}
