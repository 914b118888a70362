//! Index join over a B+-tree: the paper intro's "index join" operator on
//! the regular tree substrate.
//!
//! ```sh
//! cargo run --release --example btree_index_join
//! ```
//!
//! An index join probes an existing index instead of building a hash
//! table. This example bulk-loads a B+-tree index on the inner relation,
//! joins an outer relation through it under all four techniques, and then
//! contrasts the result with the paper's §5.3 unbalanced BST to show where
//! static prefetch schedules stop working: not on trees, on *irregular*
//! trees.

use amac_suite::btree::BPlusTree;
use amac_suite::engine::{Technique, TuningParams};
use amac_suite::ops::bst::{bst_search, BstConfig};
use amac_suite::ops::btree::{btree_search, BTreeConfig};
use amac_suite::tree::Bst;
use amac_suite::workload::Relation;

fn main() {
    // Inner relation: 1 M rows indexed by key. Outer: 1 M lookups.
    let inner = Relation::sparse_unique(1 << 20, 0x11);
    let outer = inner.shuffled(0x22);

    let index = BPlusTree::build(&inner);
    let s = index.stats();
    println!(
        "B+-tree index: {} keys, height {}, {} leaves + {} inner nodes, {:.0}% leaf fill\n",
        s.keys,
        s.height,
        s.leaf_nodes,
        s.inner_nodes,
        s.leaf_fill * 100.0
    );

    println!("index join: {} outer rows through the B+-tree", outer.len());
    println!("{:<10} {:>14} {:>10}", "technique", "cycles/tuple", "speedup");
    let mut base = 0.0;
    for t in Technique::ALL {
        let cfg = BTreeConfig { params: TuningParams::paper_best(t), materialize: false };
        let out = btree_search(&index, &outer, t, &cfg);
        assert_eq!(out.found, outer.len() as u64, "every outer row joins");
        let cpt = out.cycles as f64 / outer.len() as f64;
        if t == Technique::Baseline {
            base = cpt;
        }
        println!("{:<10} {:>14.1} {:>9.2}x", t.label(), cpt, base / cpt);
    }

    // The same join through the paper's unbalanced BST: lookup depth now
    // varies per key, and the static schedules pay for it.
    let bst = Bst::build(&inner);
    println!("\nsame join through the random BST (irregular depth, paper §5.3)");
    println!("{:<10} {:>14} {:>10}", "technique", "cycles/tuple", "speedup");
    for t in Technique::ALL {
        let cfg = BstConfig { params: TuningParams::paper_best(t), materialize: false };
        let out = bst_search(&bst, &outer, t, &cfg);
        assert_eq!(out.found, outer.len() as u64);
        let cpt = out.cycles as f64 / outer.len() as f64;
        if t == Technique::Baseline {
            base = cpt;
        }
        println!(
            "{:<10} {:>14.1} {:>9.2}x   (GP bailouts: {})",
            t.label(),
            cpt,
            base / cpt,
            out.stats.bailouts
        );
    }
    println!(
        "\nThe B+-tree's uniform depth lets GP/SPP provision their stage budget\n\
         exactly; the BST's variance forces no-ops and bailouts — AMAC alone\n\
         is insensitive to the difference."
    );
}
