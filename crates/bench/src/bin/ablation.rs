//! **Ablation study** (beyond the paper's figures; motivated by §3.1):
//! quantifies the two stated AMAC engineering choices on the large
//! uniform/skewed probe:
//!
//! 1. **merged terminal+initial stage** (start the next lookup in the
//!    same slot the moment one finishes) vs refilling one rotation later;
//! 2. **rolling counter** vs **modulo** slot indexing;
//! 3. in-flight sweep at the two extremes (M = 1 ≈ baseline+prefetch,
//!    M = paper-best 10);
//! 4. **prefetch hint policy** — the paper fixes `PREFETCHNTA` (§4);
//!    `T0` tests the all-levels temporal variant and `None` strips the
//!    prefetches entirely, leaving pure interleaving (how much of AMAC's
//!    win is the prefetch vs the schedule?).

use amac::engine::{run_amac, run_amac_modulo, run_amac_no_merge, EngineStats};
use amac_bench::{best_of, Args, JoinLab};
use amac_metrics::report::{fnum, Table};
use amac_metrics::timer::CycleTimer;
use amac_ops::join::{ProbeConfig, ProbeOp};

#[derive(Clone, Copy)]
enum Variant {
    Merged,
    NoMerge,
    Modulo,
}

const VARIANTS: [(&str, Variant); 3] = [
    ("AMAC (merged, rolling)", Variant::Merged),
    ("no merged refill", Variant::NoMerge),
    ("modulo indexing", Variant::Modulo),
];

fn dispatch(v: Variant, op: &mut ProbeOp<'_>, inputs: &[amac_workload::Tuple]) -> EngineStats {
    match v {
        Variant::Merged => run_amac(op, inputs, 10),
        Variant::NoMerge => run_amac_no_merge(op, inputs, 10),
        Variant::Modulo => run_amac_modulo(op, inputs, 10),
    }
}

fn main() {
    let args = Args::parse();
    println!("# Ablation — AMAC engineering choices (paper §3.1)\n");
    let mut table = Table::new("AMAC ablations: probe cycles/tuple (large join)").header([
        "variant",
        "uniform [0,0]",
        "skewed [1,0]",
    ]);
    let labs = [
        JoinLab::generate(args.r_large(), args.s_size(), 0.0, 0.0, 0xAB1),
        JoinLab::generate(args.r_large(), args.s_size(), 1.0, 0.0, 0xAB2),
    ];
    let tables: Vec<_> =
        labs.iter().map(|lab| lab.build_with(amac::engine::Technique::Amac, 10).0).collect();
    for (name, variant) in VARIANTS {
        let mut row = vec![name.to_string()];
        for (lab, ht) in labs.iter().zip(&tables) {
            let cfg = ProbeConfig { materialize: false, scan_all: true, ..Default::default() };
            let (c, _) = best_of(args.trials, || {
                let mut op = ProbeOp::new(ht, &cfg, lab.s.len());
                let timer = CycleTimer::start();
                let _stats = dispatch(variant, &mut op, &lab.s.tuples);
                (timer.cycles() as f64 / lab.s.len() as f64, ())
            });
            row.push(fnum(c));
        }
        table.row(row);
    }
    table.note(format!("|R|=|S|=2^{}; M=10", args.scale));
    table.print();

    // Hint-policy ablation: same probes, AMAC schedule fixed, only the
    // prefetch instruction varies. The prefetch counter is op-gated, so
    // the `None` rows must report exactly 0 issued prefetches — asserted
    // here: a phantom count would mean the ablation measures bookkeeping,
    // not hardware behaviour.
    use amac_mem::prefetch::PrefetchHint;
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
        let mut row = vec![name.to_string()];
        let mut issued_per_tuple = Vec::new();
        for (lab, ht) in labs.iter().zip(&tables) {
            let cfg =
                ProbeConfig { materialize: false, scan_all: true, hint, ..Default::default() };
            let (c, stats) = best_of(args.trials, || {
                let mut op = ProbeOp::new(ht, &cfg, lab.s.len());
                let timer = CycleTimer::start();
                let stats = run_amac(&mut op, &lab.s.tuples, 10);
                (timer.cycles() as f64 / lab.s.len() as f64, stats)
            });
            if hint == PrefetchHint::None {
                assert_eq!(
                    stats.prefetches, 0,
                    "hint=None must report zero prefetches (honest op-gated accounting)"
                );
            } else {
                assert!(stats.prefetches > 0, "real hints must report their prefetches");
            }
            issued_per_tuple.push(stats.prefetches as f64 / lab.s.len() as f64);
            row.push(fnum(c));
        }
        for pf in issued_per_tuple {
            row.push(fnum(pf));
        }
        hints.row(row);
    }
    hints.note("'no prefetch' isolates the scheduling contribution: interleaving alone cannot hide misses, it only reorders them; its prefetch count is asserted to be exactly 0");
    hints.note("a hint other than NTA makes the context metered: those rows run one out-of-line call per stage where the NTA row runs the stage inlined, so their cycles include that call");
    hints.print();
}
