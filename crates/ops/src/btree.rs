//! B+-tree index search under all four techniques: the [`search`] op
//! over `amac_btree`'s [`BTreeCursor`].
//!
//! The regular counterpart to [`crate::bst`]: bulk-load balance makes
//! every lookup dereference exactly `height` nodes, so GP/SPP's static
//! stage budget (the levels below the hot prefix) fits every lookup with
//! zero no-ops and zero bailouts. Comparing this op against the BST op
//! isolates *irregularity* as the variable behind AMAC's advantage
//! (`bench btree_sweep`).

use crate::search::{search, SearchOutput};
use amac::engine::{Technique, TuningParams};
use amac_btree::{BPlusTree, BTreeCursor};
use amac_workload::Relation;

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

/// Exactly `height − hot_levels` node stages per lookup — the static
/// schedules' best case: `N` is both tight and uniform.
fn budget(tree: &BPlusTree) -> usize {
    (tree.height() - tree.hot_levels()).max(1)
}

/// Run `probe_rel` lookups against `tree` with `technique`.
pub fn btree_search(
    tree: &BPlusTree,
    probe_rel: &Relation,
    technique: Technique,
    cfg: &BTreeConfig,
) -> SearchOutput {
    search::<BTreeCursor>(tree, probe_rel, technique, cfg.params, budget(tree), cfg.materialize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests::{answers_agree, probe};
    use amac_workload::Tuple;

    fn agree(keys: &Relation, probe: &Relation) {
        let tree = BPlusTree::build(keys);
        answers_agree(keys, probe, |t| btree_search(&tree, probe, t, &BTreeConfig::default()));
    }

    #[test]
    fn every_probe_finds_its_key_all_techniques() {
        let rel = Relation::sparse_unique(8192, 31);
        agree(&rel, &rel.shuffled(32));
    }

    #[test]
    fn misses_do_not_count_or_materialize() {
        agree(&Relation::dense_unique(1000, 3), &probe(5000..5100));
    }

    #[test]
    fn empty_tree_probe() {
        agree(&Relation::default(), &probe(1..2));
    }

    #[test]
    fn balanced_tree_never_bails_out_or_noops() {
        // The defining property of the regular counterpart: GP and SPP fit
        // the stage budget exactly, so their overheads vanish.
        let rel = Relation::sparse_unique(1 << 14, 5);
        let tree = BPlusTree::build(&rel);
        for t in [Technique::Gp, Technique::Spp] {
            let out = btree_search(&tree, &rel.shuffled(6), t, &BTreeConfig::default());
            assert_eq!((out.stats.bailouts, out.found), (0, 1 << 14), "{t}: fits the budget");
        }
    }

    #[test]
    fn single_leaf_tree_all_techniques() {
        let rel = Relation::from_tuples((0..5u64).map(|k| Tuple::new(k, k + 7)).collect());
        assert_eq!(BPlusTree::build(&rel).height(), 1);
        agree(&rel, &rel);
    }

    #[test]
    fn budget_equals_staged_levels() {
        // 2^12 keys: every inner level is hot, only the leaf is staged;
        // 2^17 keys: the fifth inner level passes HOT_BYTES.
        for (log2, staged) in [(12, 1), (17, 2)] {
            let rel = Relation::sparse_unique(1 << log2, 9);
            let tree = BPlusTree::build(&rel);
            assert_eq!(budget(&tree), tree.height() - tree.hot_levels(), "2^{log2}");
            assert_eq!(budget(&tree), staged, "2^{log2}");
        }
    }
}
