//! Binary search tree probe (§5.3) under all four techniques.
//!
//! The walk is `amac_tree`'s [`BstCursor`]: stage 0 walks the tree's hot
//! prefix inline, each later stage visits one node below it.

use amac::engine::{run, EngineStats, LookupOp, Step, Technique, TuningParams};
use amac_metrics::timer::CycleTimer;
use amac_tree::{Bst, BstCursor, BstMove, HOT_DEPTH};
use amac_workload::{Relation, Tuple};
use core::convert::Infallible;

/// BST search configuration.
#[derive(Debug, Clone)]
pub struct BstConfig {
    /// Executor tuning (the paper's `M`).
    pub params: TuningParams,
    /// GP/SPP stage budget (`N`, node stages after stage 0); `0` = the
    /// random-BST average depth `⌈1.39·log2 n⌉` less the [`HOT_DEPTH`]
    /// levels stage 0 walks inline — the "slightly shorter pipeline that
    /// favors the common-case traversal length" the paper finds optimal
    /// (§5.3).
    pub n_stages: usize,
    /// Materialize found payloads in input order.
    pub materialize: bool,
}

impl Default for BstConfig {
    fn default() -> Self {
        BstConfig { params: TuningParams::default(), n_stages: 0, materialize: true }
    }
}

/// Result of one BST probe run.
#[derive(Debug, Clone, Default)]
pub struct BstOutput {
    /// Lookups that found their key.
    pub found: u64,
    /// Wrapping sum of found payloads (order-independent checksum).
    pub checksum: u64,
    /// Found payload per input tuple (`u64::MAX` = miss) when materializing.
    pub out: Vec<u64>,
    /// Executor event counters.
    pub stats: EngineStats,
    /// Search-loop cycles.
    pub cycles: u64,
    /// Search-loop wall time.
    pub seconds: f64,
}

/// Per-lookup state.
#[derive(Default)]
pub struct BstState<'a> {
    key: u64,
    idx: usize,
    cursor: BstCursor<'a>,
}

/// The BST search state machine (Table 1, "BST Search").
pub struct BstOp<'a> {
    tree: &'a Bst,
    n_stages: usize,
    materialize: bool,
    found: u64,
    checksum: u64,
    out: Vec<u64>,
    cursor: usize,
}

impl<'a> BstOp<'a> {
    /// Create the op for `n_probes` lookups against `tree`.
    pub fn new(tree: &'a Bst, cfg: &BstConfig, n_probes: usize) -> Self {
        let n_stages = if cfg.n_stages == 0 {
            let n = tree.len().max(2) as f64;
            ((1.39 * n.log2()).ceil() as usize).saturating_sub(HOT_DEPTH).max(1)
        } else {
            cfg.n_stages
        };
        BstOp {
            tree,
            n_stages,
            materialize: cfg.materialize,
            found: 0,
            checksum: 0,
            out: if cfg.materialize { vec![u64::MAX; n_probes] } else { Vec::new() },
            cursor: 0,
        }
    }
}

impl<'a> LookupOp for BstOp<'a> {
    type Input = Tuple;
    type State = BstState<'a>;
    type Tally = ();
    type Output = Infallible;

    fn budgeted_steps(&self) -> usize {
        self.n_stages
    }

    /// Stage 0: get new tuple, walk the hot prefix, access (prefetch)
    /// the first node below it. Inlined by force: with the walk's loop
    /// the stage outgrew the inliner's budget, and an out-of-line stage 0
    /// is a call per lookup from every executor.
    #[inline(always)]
    fn start<const PLAIN: bool>(&mut self, _: &mut (), input: Tuple, state: &mut BstState<'a>) {
        state.key = input.key;
        state.idx = self.cursor;
        state.cursor = BstCursor::start(self.tree, input.key);
        self.cursor += 1;
    }

    /// Stage 1 (repeated): compare keys — output on match, else prefetch
    /// and move to the chosen child.
    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut BstState<'a>) -> Step {
        match state.cursor.step(state.key) {
            BstMove::Descended => Step::Continue,
            BstMove::Found(payload) => {
                self.found += 1;
                self.checksum = self.checksum.wrapping_add(payload);
                if self.materialize {
                    self.out[state.idx] = payload;
                }
                Step::Done
            }
            BstMove::Missed => Step::Done,
        }
    }
}

/// Run `probe_rel` lookups against `tree` with `technique`.
pub fn bst_search(
    tree: &Bst,
    probe_rel: &Relation,
    technique: Technique,
    cfg: &BstConfig,
) -> BstOutput {
    let mut op = BstOp::new(tree, cfg, probe_rel.len());
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &probe_rel.tuples, cfg.params);
    BstOutput {
        found: op.found,
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

    #[test]
    fn every_probe_finds_its_key_all_techniques() {
        let rel = Relation::sparse_unique(8192, 41);
        let probe = rel.shuffled(42);
        let tree = Bst::build(&rel);
        let mut reference: Option<(u64, Vec<u64>)> = None;
        for t in Technique::ALL {
            let out = bst_search(&tree, &probe, t, &BstConfig::default());
            assert_eq!(out.found, 8192, "{t}: join-style probe finds every key");
            match &reference {
                None => reference = Some((out.checksum, out.out.clone())),
                Some((c, o)) => {
                    assert_eq!(out.checksum, *c, "{t}");
                    assert_eq!(&out.out, o, "{t}");
                }
            }
        }
    }

    #[test]
    fn misses_are_counted_as_not_found() {
        let rel = Relation::dense_unique(1000, 1);
        let tree = Bst::build(&rel);
        let probe = Relation::from_tuples((2000..2100u64).map(|k| Tuple::new(k, 0)).collect());
        for t in Technique::ALL {
            let out = bst_search(&tree, &probe, t, &BstConfig::default());
            assert_eq!(out.found, 0, "{t}");
            assert!(out.out.iter().all(|&p| p == u64::MAX), "{t}");
        }
    }

    #[test]
    fn degenerate_path_tree_still_correct() {
        // Sorted inserts → a 300-deep path; GP/SPP budgets blow → bailouts.
        let mut tree = Bst::new();
        for k in 0..300u64 {
            tree.insert(k, k + 1);
        }
        let probe = Relation::from_tuples(vec![Tuple::new(299, 0), Tuple::new(0, 0)]);
        for t in Technique::ALL {
            let out = bst_search(&tree, &probe, t, &BstConfig::default());
            assert_eq!(out.found, 2, "{t}");
            assert_eq!(out.checksum, 300 + 1, "{t}");
        }
        // GP must have bailed out on the deep lookup.
        let out = bst_search(&tree, &probe, Technique::Gp, &BstConfig::default());
        assert!(out.stats.bailouts >= 1, "deep path must exceed the auto budget");
    }

    #[test]
    fn empty_tree_probe() {
        let tree = Bst::new();
        let probe = Relation::from_tuples(vec![Tuple::new(1, 0)]);
        let out = bst_search(&tree, &probe, Technique::Amac, &BstConfig::default());
        assert_eq!(out.found, 0);
        assert_eq!(out.stats.lookups, 1);
    }

    #[test]
    fn auto_budget_tracks_tree_size() {
        let rel = Relation::sparse_unique(1 << 12, 9);
        let tree = Bst::build(&rel);
        let op = BstOp::new(&tree, &BstConfig::default(), 0);
        // 1.39 * 12 ≈ 16.7 → 17, less the 12 levels stage 0 walks.
        assert_eq!(op.budgeted_steps(), 17 - HOT_DEPTH);
    }
}
