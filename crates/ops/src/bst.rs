//! Binary search tree probe (§5.3) under all four techniques: the
//! [`search`] op over `amac_tree`'s [`BstCursor`].

use crate::search::{search, SearchOutput};
use amac::engine::{Technique, TuningParams};
use amac_tree::{Bst, BstCursor, HOT_DEPTH};
use amac_workload::Relation;

/// BST search configuration.
#[derive(Debug, Clone)]
pub struct BstConfig {
    /// Executor tuning (the paper's `M`).
    pub params: TuningParams,
    /// Materialize found payloads in input order.
    pub materialize: bool,
}

impl Default for BstConfig {
    fn default() -> Self {
        BstConfig { params: TuningParams::default(), materialize: true }
    }
}

/// The GP/SPP stage budget (`N`, node stages after stage 0) of a search
/// of `tree`: the random-BST average depth `⌈1.39·log2 n⌉` less the
/// [`HOT_DEPTH`] levels stage 0 walks inline — the "slightly shorter
/// pipeline that favors the common-case traversal length" the paper finds
/// optimal (§5.3).
fn budget(tree: &Bst) -> usize {
    let n = tree.len().max(2) as f64;
    ((1.39 * n.log2()).ceil() as usize).saturating_sub(HOT_DEPTH).max(1)
}

/// Run `probe_rel` lookups against `tree` with `technique`.
pub fn bst_search(
    tree: &Bst,
    probe_rel: &Relation,
    technique: Technique,
    cfg: &BstConfig,
) -> SearchOutput {
    search::<BstCursor>(tree, probe_rel, technique, cfg.params, budget(tree), cfg.materialize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests::{answers_agree, probe};
    use amac_workload::Tuple;

    fn agree(keys: &Relation, probe: &Relation) {
        let tree = Bst::build(keys);
        answers_agree(keys, probe, |t| bst_search(&tree, probe, t, &BstConfig::default()));
    }

    #[test]
    fn every_probe_finds_its_key_all_techniques() {
        let rel = Relation::sparse_unique(8192, 41);
        agree(&rel, &rel.shuffled(42));
    }

    #[test]
    fn misses_are_counted_as_not_found() {
        agree(&Relation::dense_unique(1000, 1), &probe(2000..2100));
    }

    #[test]
    fn empty_tree_probe() {
        agree(&Relation::default(), &probe(1..2));
    }

    #[test]
    fn degenerate_path_tree_still_correct() {
        // Sorted inserts → a 300-deep path; GP/SPP budgets blow → bailouts.
        let keys = Relation::from_tuples((0..300u64).map(|k| Tuple::new(k, k + 1)).collect());
        let probe = Relation::from_tuples(vec![Tuple::new(299, 0), Tuple::new(0, 0)]);
        agree(&keys, &probe);
        // GP must have bailed out on the deep lookup.
        let out = bst_search(&Bst::build(&keys), &probe, Technique::Gp, &BstConfig::default());
        assert!(out.stats.bailouts >= 1, "deep path must exceed the auto budget");
    }

    #[test]
    fn auto_budget_tracks_tree_size() {
        let rel = Relation::sparse_unique(1 << 12, 9);
        let tree = Bst::build(&rel);
        // 1.39 * 12 ≈ 16.7 → 17, less the 12 levels stage 0 walks.
        assert_eq!(budget(&tree), 17 - HOT_DEPTH);
    }
}
