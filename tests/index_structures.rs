//! Cross-structure validation: BST and skip list against `BTreeMap`, the
//! four indexes against each other, and group-by against `HashMap`,
//! across techniques and thread counts.

use amac_suite::engine::Technique;
use amac_suite::ops::parallel::{groupby_mt_rt, skip_insert_mt_rt};
use amac_suite::ops::skiplist::{skip_insert, skip_search, SkipConfig};
use amac_suite::runtime::MorselConfig;
use amac_suite::skiplist::SkipList;
use amac_suite::tree::Bst;
use amac_suite::workload::{GroupByInput, Relation};
use std::collections::BTreeMap;

#[test]
fn bst_agrees_with_btreemap() {
    let rel = Relation::sparse_unique(1 << 13, 31);
    let tree = Bst::build(&rel);
    let model: BTreeMap<u64, u64> = rel.tuples.iter().map(|t| (t.key, t.payload)).collect();
    assert_eq!(tree.keys_in_order(), model.keys().copied().collect::<Vec<_>>());
    for (k, v) in model.iter().take(2000) {
        assert_eq!(tree.get(*k), Some(*v));
    }
}

#[test]
fn skiplist_agrees_with_btreemap_after_amac_insert() {
    let rel = Relation::sparse_unique(1 << 12, 37);
    let list = SkipList::new();
    let out = skip_insert(&list, &rel, Technique::Amac, &SkipConfig::default(), 5);
    assert_eq!(out.inserted as usize, rel.len());
    let model: BTreeMap<u64, u64> = rel.tuples.iter().map(|t| (t.key, t.payload)).collect();
    let items = list.items();
    assert_eq!(items.len(), model.len());
    for ((k, v), (mk, mv)) in items.iter().zip(model.iter()) {
        assert_eq!((k, v), (mk, mv));
    }
}

#[test]
fn concurrent_amac_insert_then_amac_search() {
    let rel = Relation::sparse_unique(1 << 13, 41);
    let list = SkipList::new();
    let rt = MorselConfig::with_threads(4);
    let ins = skip_insert_mt_rt(&list, &rel, Technique::Amac, &SkipConfig::default(), &rt);
    assert_eq!(ins.matches as usize, rel.len());
    let probes = rel.shuffled(42);
    let found = skip_search(&list, &probes, Technique::Amac, &SkipConfig::default());
    assert_eq!(found.found as usize, rel.len());
}

#[test]
fn groupby_mt_equals_single_thread_for_all_techniques() {
    let input = GroupByInput::zipf(256, 30_000, 1.0, 43);
    // Single-threaded baseline result as the model.
    let (model_table, _) =
        amac_suite::ops::groupby::groupby_fresh(&input, Technique::Baseline, &Default::default());
    let mut model = model_table.groups();
    model.sort_by_key(|(k, _)| *k);
    for t in Technique::ALL {
        let table = amac_suite::hashtable::AggTable::for_groups(input.groups);
        let rt = MorselConfig::with_threads(3);
        groupby_mt_rt(&table, &input.relation, t, &Default::default(), &rt);
        let mut got = table.groups();
        got.sort_by_key(|(k, _)| *k);
        assert_eq!(got, model, "{t} multi-threaded group-by diverges");
    }
}

#[test]
fn mixed_structure_consistency() {
    // The same relation indexed four ways must answer identically.
    let rel = Relation::sparse_unique(1 << 12, 47);
    let ht = amac_suite::hashtable::HashTable::build_serial(&rel);
    let tree = Bst::build(&rel);
    let btree = amac_suite::btree::BPlusTree::build(&rel);
    let list = SkipList::new();
    skip_insert(&list, &rel, Technique::Baseline, &SkipConfig::default(), 1);
    for t in rel.tuples.iter().step_by(7) {
        let h = ht.lookup_first(t.key);
        let b = tree.get(t.key);
        let s = list.get(t.key);
        let bp = btree.get(t.key);
        assert_eq!(h, Some(t.payload));
        assert_eq!(b, Some(t.payload));
        assert_eq!(s, Some(t.payload));
        assert_eq!(bp, Some(t.payload));
    }
}
