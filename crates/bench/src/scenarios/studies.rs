//! Studies beyond the paper's figures, printed as tables: AMAC's
//! engineering choices (§3.1) and BST vs B+-tree regularity.

use crate::{best_of, per_technique, row, Args, JoinLab, Outcome};
use amac::engine::{run_amac, run_amac_modulo, run_amac_no_merge, Technique, TuningParams};
use amac_btree::BPlusTree;
use amac_mem::prefetch::PrefetchHint;
use amac_metrics::report::Table;
use amac_metrics::timer::CycleTimer;
use amac_ops::bst::{bst_search, BstConfig};
use amac_ops::btree::{btree_search, BTreeConfig};
use amac_ops::join::{ProbeConfig, ProbeOp};
use amac_tree::Bst;
use amac_workload::{Relation, Tuple};

/// One AMAC run over a probe op, returning the prefetches it issued.
type Exec = fn(&mut ProbeOp<'_>, &[Tuple]) -> u64;

/// **Ablation** of AMAC's engineering choices (§3.1) on the large uniform
/// and skewed probe: merged terminal+initial stage vs refilling one
/// rotation later, rolling vs modulo slot indexing, and the prefetch hint
/// (the paper's `PREFETCHNTA`, `T0`, write intent, or none at all).
pub(super) fn ablation(args: &Args) -> Outcome {
    println!("# Ablation — AMAC engineering choices (paper §3.1)\n");
    let labs = [
        JoinLab::generate(args.r_large(), args.s_size(), 0.0, 0.0, 0xAB1),
        JoinLab::generate(args.r_large(), args.s_size(), 1.0, 0.0, 0xAB2),
    ];
    let tables: Vec<_> = labs.iter().map(|lab| lab.build_with(Technique::Amac, 10).0).collect();
    // Best-of cycles/tuple and the prefetches issued per tuple of
    // `exec` over each lab's probes.
    let measure = |hint: PrefetchHint, exec: Exec| {
        labs.iter().zip(&tables).map(move |(lab, ht)| {
            let cfg =
                ProbeConfig { materialize: false, scan_all: true, hint, ..Default::default() };
            let n = lab.s.len() as f64;
            let (c, prefetches) = best_of(args.trials, || {
                let mut op = ProbeOp::new(ht, &cfg, lab.s.len());
                let timer = CycleTimer::start();
                let prefetches = exec(&mut op, &lab.s.tuples);
                (timer.cycles() as f64 / n, prefetches)
            });
            (c, prefetches as f64 / n)
        })
    };
    let mut table = Table::new("AMAC ablations: probe cycles/tuple (large join)").header([
        "variant",
        "uniform [0,0]",
        "skewed [1,0]",
    ]);
    let variants: [(&str, Exec); 3] = [
        ("AMAC (merged, rolling)", |op, s| run_amac(op, s, 10).prefetches),
        ("no merged refill", |op, s| run_amac_no_merge(op, s, 10).prefetches),
        ("modulo indexing", |op, s| run_amac_modulo(op, s, 10).prefetches),
    ];
    for (name, exec) in variants {
        table.row(row(name, measure(PrefetchHint::Nta, exec).map(|(c, _)| c)));
    }
    table.note(format!("|R|=|S|=2^{}; M=10", args.scale));
    table.print();

    // Same probes and schedule; only the prefetch instruction varies.
    println!();
    let mut hints = Table::new("Prefetch hint policy: AMAC probe cycles/tuple").header([
        "hint",
        "uniform [0,0]",
        "skewed [1,0]",
        "pf/tuple uniform",
        "pf/tuple skewed",
    ]);
    for (name, hint) in [
        ("PREFETCHNTA (paper)", PrefetchHint::Nta),
        ("PREFETCHT0", PrefetchHint::T0),
        ("write-intent (T0 stand-in)", PrefetchHint::Write),
        ("no prefetch (pure interleave)", PrefetchHint::None),
    ] {
        let cells: Vec<(f64, f64)> =
            measure(hint, |op, s| run_amac(op, s, 10).prefetches).collect();
        if hint != PrefetchHint::None {
            assert!(cells.iter().all(|c| c.1 > 0.0), "real hints must report their prefetches");
        }
        hints.row(row(name, cells.iter().map(|c| c.0).chain(cells.iter().map(|c| c.1))));
    }
    hints.note("'no prefetch' isolates the scheduling contribution: interleaving alone cannot hide misses, it only reorders them");
    hints.note("a hint other than NTA makes the context metered: those rows run one out-of-line call per stage where the NTA row runs the stage inlined, so their cycles include that call");
    hints.print();
    Outcome::default()
}

/// **Regularity ablation**: §5.3 blames GP/SPP's tree-search losses on
/// lookup-depth *variance*. A random BST (depth varies per key) vs a
/// bulk-loaded B+-tree (every lookup visits `height` nodes) isolates it:
/// AMAC's margin over GP/SPP should be wide on the BST and collapse on
/// the B+-tree.
pub(super) fn btree_sweep(args: &Args) -> Outcome {
    println!("# Regularity ablation — BST (irregular) vs B+-tree (regular)\n");
    let top = args.scale.min(22);
    let header = ["size (log2)", "Baseline", "GP", "SPP", "AMAC", "AMAC vs best-static"];
    let mut bst_table =
        Table::new("BST search cycles per probe tuple (irregular depth)").header(header);
    let mut bt_table =
        Table::new("B+-tree search cycles per probe tuple (uniform depth)").header(header);
    for bits in (0..3).map(|i| top.saturating_sub(3 * (2 - i))).filter(|&b| b >= 12) {
        let rel = Relation::sparse_unique(1 << bits, 0xB7 ^ bits as u64);
        let probes = rel.shuffled(0xC9 ^ bits as u64);
        let (bst, btree) = (Bst::build(&rel), BPlusTree::build(&rel));
        let n = probes.len() as f64;
        let c = per_technique(args.trials, |t| {
            let params = TuningParams::paper_best(t);
            let bst_cfg = BstConfig { params, materialize: false };
            let bt_cfg = BTreeConfig { params, materialize: false };
            [
                bst_search(&bst, &probes, t, &bst_cfg).cycles as f64 / n,
                btree_search(&btree, &probes, t, &bt_cfg).cycles as f64 / n,
            ]
        });
        for (i, table) in [&mut bst_table, &mut bt_table].into_iter().enumerate() {
            let best_static = c[1][i].min(c[2][i]);
            let mut r = row(bits.to_string(), c.map(|t| t[i]));
            r.push(format!("{:.2}x", best_static / c[3][i]));
            table.row(r);
        }
    }
    bst_table.note("paper Fig. 10 setting: depth varies per lookup; static schedules shed MLP");
    bst_table.print();
    println!();
    bt_table.note("bulk-load balance: N = height fits every lookup; GP/SPP at full strength");
    bt_table.print();
    println!(
        "\nReading: the last column is AMAC's speedup over the better of GP/SPP.\n\
         Expect it >> 1 on the BST and ≈ 1 on the B+-tree — irregularity, not\n\
         tree search itself, is what separates the techniques."
    );
    Outcome::default()
}
