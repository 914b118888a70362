//! Integration tests for the B+-tree index, cross-validated against the
//! paper's BST and a std model, under all four techniques.

use amac_suite::btree::{BPlusTree, FANOUT_KEYS};
use amac_suite::engine::{Technique, TuningParams};
use amac_suite::ops::bst::{bst_search, BstConfig};
use amac_suite::ops::btree::{btree_search, BTreeConfig};
use amac_suite::tree::Bst;
use amac_suite::workload::{Relation, Tuple};
use proptest::prelude::*;

/// The two tree substrates must answer every index-join probe
/// identically, under every technique.
#[test]
fn btree_and_bst_agree_on_index_join() {
    let inner = Relation::sparse_unique(20_000, 101);
    let outer = inner.shuffled(102);
    let btree = BPlusTree::build(&inner);
    let bst = Bst::build(&inner);
    for t in Technique::ALL {
        let bt = btree_search(
            &btree,
            &outer,
            t,
            &BTreeConfig { params: TuningParams::paper_best(t), materialize: true },
        );
        let bs = bst_search(
            &bst,
            &outer,
            t,
            &BstConfig { params: TuningParams::paper_best(t), materialize: true },
        );
        assert_eq!(bt.found, bs.found, "{t}");
        assert_eq!(bt.checksum, bs.checksum, "{t}");
        assert_eq!(bt.out, bs.out, "{t}");
    }
}

/// GP/SPP must run the balanced B+-tree with zero bailouts at any size
/// straddling a height transition (the regularity guarantee the ablation
/// relies on).
#[test]
fn btree_regularity_holds_across_height_transitions() {
    for n in [FANOUT_KEYS, FANOUT_KEYS + 1, 56, 57, 448, 449, 3500, 25_000] {
        let rel = Relation::sparse_unique(n, n as u64);
        let tree = BPlusTree::build(&rel);
        let probes = rel.shuffled(n as u64 + 1);
        for t in [Technique::Gp, Technique::Spp] {
            let out = btree_search(
                &tree,
                &probes,
                t,
                &BTreeConfig { params: TuningParams::paper_best(t), materialize: false },
            );
            assert_eq!(out.found as usize, n, "{t} n={n}");
            assert_eq!(out.stats.bailouts, 0, "{t} n={n}: balance ⇒ no bailouts");
            assert_eq!(out.stats.bailout_stages, 0, "{t} n={n}");
        }
    }
}

/// Zipf-skewed outer relations (the paper's irregularity driver) through
/// the B+-tree: heavy key repetition must not perturb agreement.
#[test]
fn skewed_outer_relation_through_btree() {
    let inner = Relation::dense_unique(10_000, 301);
    let outer = Relation::zipf(20_000, 10_000, 1.0, 302);
    let tree = BPlusTree::build(&inner);
    let mut reference = None;
    for t in Technique::ALL {
        let out = btree_search(
            &tree,
            &outer,
            t,
            &BTreeConfig { params: TuningParams::paper_best(t), materialize: false },
        );
        match reference {
            None => reference = Some((out.found, out.checksum)),
            Some(r) => assert_eq!((out.found, out.checksum), r, "{t}"),
        }
    }
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::btree_map(0u64..1_000_000, 0u64..1_000_000, 0..400)
        .prop_map(|m| m.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// B+-tree never disagrees with std's BTreeMap, for lookups inside
    /// and around the key set.
    #[test]
    fn btree_matches_std_model(pairs in pairs_strategy(), queries in prop::collection::vec(0u64..1_000_002, 0..100)) {
        let tree = BPlusTree::from_sorted(&pairs);
        let model: std::collections::BTreeMap<u64, u64> = pairs.iter().copied().collect();
        prop_assert_eq!(tree.len(), model.len());
        for q in queries {
            prop_assert_eq!(tree.get(q), model.get(&q).copied(), "query {}", q);
        }
        prop_assert_eq!(tree.iter_all(), model.into_iter().collect::<Vec<_>>());
    }

    /// Range scans agree with the model for arbitrary bounds.
    #[test]
    fn btree_range_matches_std_model(
        pairs in pairs_strategy(),
        a in 0u64..1_100_000,
        b in 0u64..1_100_000,
    ) {
        let tree = BPlusTree::from_sorted(&pairs);
        let model: std::collections::BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let (lo, hi) = (a.min(b), a.max(b));
        let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(tree.range(lo, hi), want);
    }

    /// All four techniques agree on the B+-tree for arbitrary contents
    /// and widths; results match the reference `get`.
    #[test]
    fn btree_search_equivalence(pairs in pairs_strategy(), m in 1usize..16) {
        let tree = BPlusTree::from_sorted(&pairs);
        let probes = Relation::from_tuples(
            pairs.iter().map(|&(k, _)| Tuple::new(k, 0))
                .chain((0..20).map(|i| Tuple::new(1_000_001 + i, 0)))
                .collect(),
        );
        let mut results = Vec::new();
        for t in Technique::ALL {
            let out = btree_search(
                &tree,
                &probes,
                t,
                &BTreeConfig { params: TuningParams::with_in_flight(m), materialize: false },
            );
            prop_assert_eq!(out.found as usize, pairs.len(), "{}", t);
            results.push(out.checksum);
        }
        for r in &results[1..] {
            prop_assert_eq!(results[0], *r);
        }
        let want: u64 = pairs.iter().fold(0u64, |acc, &(_, p)| acc.wrapping_add(p));
        prop_assert_eq!(results[0], want);
    }
}
