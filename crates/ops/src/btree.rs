//! B+-tree index search under all four techniques.
//!
//! The regular counterpart to [`crate::bst`]: bulk-load balance makes
//! every lookup dereference exactly `height` nodes, so GP/SPP's static
//! stage budget `N = height` fits every lookup with zero no-ops and zero
//! bailouts. Comparing this op against the BST op isolates *irregularity*
//! as the variable behind AMAC's advantage (`bench btree_sweep`).
//!
//! The walk is `amac_btree`'s [`BTreeCursor`]: stage 0 walks the tree's
//! hot prefix inline, each later stage visits one node below it.

use amac::engine::{run, EngineStats, LookupOp, Step, Technique, TuningParams};
use amac_btree::{BPlusTree, BTreeCursor, BTreeMove};
use amac_metrics::timer::CycleTimer;
use amac_workload::{Relation, Tuple};
use core::convert::Infallible;

/// B+-tree search configuration.
#[derive(Debug, Clone)]
pub struct BTreeConfig {
    /// Executor tuning (the paper's `M`).
    pub params: TuningParams,
    /// Materialize found payloads in input order.
    pub materialize: bool,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig { params: TuningParams::default(), materialize: true }
    }
}

/// Result of one B+-tree probe run.
#[derive(Debug, Clone, Default)]
pub struct BTreeOutput {
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

/// Per-lookup state: the circular-buffer entry of Figure 4, with the
/// cursor's node count standing in for the `stage` field.
#[derive(Default)]
pub struct BTreeState<'a> {
    key: u64,
    idx: usize,
    cursor: BTreeCursor<'a>,
}

/// The B+-tree search state machine: stage 0 walks the hot prefix and
/// prefetches the node below it, each later stage consumes one node and
/// prefetches the selected child.
pub struct BTreeOp<'a> {
    tree: &'a BPlusTree,
    materialize: bool,
    found: u64,
    checksum: u64,
    out: Vec<u64>,
    cursor: usize,
}

impl<'a> BTreeOp<'a> {
    /// Create the op for `n_probes` lookups against `tree`.
    pub fn new(tree: &'a BPlusTree, cfg: &BTreeConfig, n_probes: usize) -> Self {
        BTreeOp {
            tree,
            materialize: cfg.materialize,
            found: 0,
            checksum: 0,
            out: if cfg.materialize { vec![u64::MAX; n_probes] } else { Vec::new() },
            cursor: 0,
        }
    }

    /// Keys found so far (for drivers that own the op, e.g. `parallel`).
    #[inline]
    pub fn found(&self) -> u64 {
        self.found
    }

    /// Order-independent payload checksum accumulated so far.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

impl<'a> LookupOp for BTreeOp<'a> {
    type Input = Tuple;
    type State = BTreeState<'a>;
    type Tally = ();
    type Output = Infallible;

    /// Exactly `height − hot_levels` node stages per lookup — the static
    /// schedules' best case: `N` is both tight and uniform.
    fn budgeted_steps(&self) -> usize {
        (self.tree.height() - self.tree.hot_levels()).max(1)
    }

    /// Stage 0: get new tuple, walk the hot prefix, prefetch the node
    /// below it.
    #[inline]
    fn start<const PLAIN: bool>(&mut self, _: &mut (), input: Tuple, state: &mut BTreeState<'a>) {
        state.key = input.key;
        state.idx = self.cursor;
        state.cursor = BTreeCursor::start(self.tree, input.key);
        self.cursor += 1;
    }

    /// Later stages: select and prefetch a child (inner), or resolve the
    /// lookup (leaf).
    #[inline(always)]
    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut BTreeState<'a>) -> Step {
        match state.cursor.step(state.key) {
            BTreeMove::Descended => Step::Continue,
            BTreeMove::Found(payload) => {
                self.found += 1;
                self.checksum = self.checksum.wrapping_add(payload);
                if self.materialize {
                    self.out[state.idx] = payload;
                }
                Step::Done
            }
            BTreeMove::Missed => Step::Done,
        }
    }
}

/// Run `probe_rel` lookups against `tree` with `technique`.
pub fn btree_search(
    tree: &BPlusTree,
    probe_rel: &Relation,
    technique: Technique,
    cfg: &BTreeConfig,
) -> BTreeOutput {
    let mut op = BTreeOp::new(tree, cfg, probe_rel.len());
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &probe_rel.tuples, cfg.params);
    BTreeOutput {
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
        let rel = Relation::sparse_unique(8192, 31);
        let probe = rel.shuffled(32);
        let tree = BPlusTree::build(&rel);
        let mut reference: Option<(u64, Vec<u64>)> = None;
        for t in Technique::ALL {
            let out = btree_search(&tree, &probe, t, &BTreeConfig::default());
            assert_eq!(out.found, 8192, "{t}");
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
    fn misses_do_not_count_or_materialize() {
        let rel = Relation::dense_unique(1000, 3);
        let tree = BPlusTree::build(&rel);
        let probe = Relation::from_tuples((5000..5100u64).map(|k| Tuple::new(k, 0)).collect());
        for t in Technique::ALL {
            let out = btree_search(&tree, &probe, t, &BTreeConfig::default());
            assert_eq!(out.found, 0, "{t}");
            assert!(out.out.iter().all(|&p| p == u64::MAX), "{t}");
        }
    }

    #[test]
    fn balanced_tree_never_bails_out_or_noops() {
        // The defining property of the regular counterpart: GP and SPP fit
        // the stage budget exactly, so their overheads vanish.
        let rel = Relation::sparse_unique(1 << 14, 5);
        let tree = BPlusTree::build(&rel);
        let probe = rel.shuffled(6);
        for t in [Technique::Gp, Technique::Spp] {
            let out = btree_search(&tree, &probe, t, &BTreeConfig::default());
            assert_eq!(out.stats.bailouts, 0, "{t}: balanced tree fits the budget");
            assert_eq!(out.found, 1 << 14, "{t}");
        }
    }

    #[test]
    fn empty_tree_probe() {
        let tree = BPlusTree::new();
        let probe = Relation::from_tuples(vec![Tuple::new(1, 0)]);
        for t in Technique::ALL {
            let out = btree_search(&tree, &probe, t, &BTreeConfig::default());
            assert_eq!(out.found, 0, "{t}");
            assert_eq!(out.stats.lookups, 1, "{t}");
        }
    }

    #[test]
    fn single_leaf_tree_all_techniques() {
        let rel = Relation::from_tuples((0..5u64).map(|k| Tuple::new(k, k + 7)).collect());
        let tree = BPlusTree::build(&rel);
        assert_eq!(tree.height(), 1);
        for t in Technique::ALL {
            let out = btree_search(&tree, &rel, t, &BTreeConfig::default());
            assert_eq!(out.found, 5, "{t}");
            assert_eq!(out.checksum, (7..12u64).sum::<u64>(), "{t}");
        }
    }

    #[test]
    fn budget_equals_staged_levels() {
        // 2^12 keys: every inner level is hot, only the leaf is staged;
        // 2^17 keys: the fifth inner level passes HOT_BYTES.
        for (log2, staged) in [(12, 1), (17, 2)] {
            let rel = Relation::sparse_unique(1 << log2, 9);
            let tree = BPlusTree::build(&rel);
            let op = BTreeOp::new(&tree, &BTreeConfig::default(), 0);
            assert_eq!(op.budgeted_steps(), tree.height() - tree.hot_levels(), "2^{log2}");
            assert_eq!(op.budgeted_steps(), staged, "2^{log2}");
        }
    }
}
