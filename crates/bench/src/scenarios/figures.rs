//! The paper's figures and tables (§2.2.2, §5), printed as tables. Each
//! figure's doc states the shape the paper reports.
//!
//! The SPARC T4 figures (8, 12, 13) rerun the Xeon figures' sweeps (7;
//! 5 and 9; 10 and 11) with [`Window::Narrow`], a reduced in-flight
//! budget per hardware context: the T4 is unavailable (DESIGN.md's
//! substitution policy), and the paper's claim from those figures is
//! that technique ordering and scaling are platform-robust.

use crate::{
    per_technique, probe_cfg, row, skew_label, technique_table, Args, JoinLab, Outcome,
    SKEW_CONFIGS,
};
use amac::engine::{Technique, TuningParams};
use amac_hashtable::HashTable;
use amac_mem::hash::unmix64;
use amac_mem::region::{self, Region, HUGE_PAGE};
use amac_metrics::perf;
use amac_metrics::platform::{anon_huge_bytes, Platform};
use amac_metrics::report::{fmtput, fnum, Table};
use amac_metrics::stats::geomean;
use amac_ops::bst::{bst_search, BstConfig};
use amac_ops::groupby::{groupby_fresh, GroupByConfig};
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::parallel::probe_mt_rt;
use amac_ops::skiplist::{skip_insert, skip_search, SkipConfig};
use amac_runtime::MorselConfig;
use amac_skiplist::SkipList;
use amac_tree::Bst;
use amac_workload::{GroupByInput, Relation, Tuple};

/// The in-flight window a figure gives each technique: each one's tuned
/// best on the paper's Xeon, or `M = 6` for all — the narrow-core
/// profile standing in for the SPARC T4.
#[derive(Clone, Copy, PartialEq)]
enum Window {
    PaperBest,
    Narrow,
}

impl Window {
    fn params(self, t: Technique) -> TuningParams {
        match self {
            Window::PaperBest => TuningParams::paper_best(t),
            Window::Narrow => TuningParams::with_in_flight(6),
        }
    }

    fn m(self, t: Technique) -> usize {
        self.params(t).in_flight
    }

    /// `title`, marked when the table is an emulated-platform one.
    fn title(self, title: impl core::fmt::Display) -> String {
        format!("{title}{}", if self == Window::Narrow { " (emulated)" } else { "" })
    }
}

fn substitution_note(figure: &str, section: &str) {
    println!("# {figure}, second-platform emulation (paper {section})");
    println!("# SUBSTITUTION: SPARC T4 unavailable; narrow-core profile M=6\n");
}

fn insert_all(ht: &HashTable, rel: &Relation) {
    let mut h = ht.build_handle();
    for t in &rel.tuples {
        h.insert(t.key, t.payload);
    }
}

/// A table whose every bucket holds exactly `nodes_per_bucket` chain
/// nodes, by inverse-hash key construction. The bucket count rounds
/// **down** to a power of two so the tuple count never exceeds
/// `n_tuples`; the caller reads the actual count from the relation.
fn exact_occupancy_table(n_tuples: usize, nodes_per_bucket: usize) -> (HashTable, Relation) {
    let per_bucket = nodes_per_bucket * amac_hashtable::TUPLES_PER_NODE;
    let buckets = ((n_tuples / per_bucket).max(1) + 1).next_power_of_two() / 2;
    let bits = buckets.trailing_zeros();
    let ht = HashTable::with_buckets(buckets);
    assert_eq!(ht.bucket_count(), buckets);
    let mut tuples = Vec::with_capacity(buckets * per_bucket);
    for b in 0..buckets as u64 {
        for j in 0..per_bucket as u64 {
            let key = unmix64(b | (j << bits));
            tuples.push(Tuple::new(key, key.wrapping_mul(2)));
        }
    }
    let rel = Relation::from_tuples(tuples).shuffled(0xF163);
    insert_all(&ht, &rel);
    (ht, rel)
}

/// **Figure 3**: cycles per lookup on *uniform* (exactly four nodes per
/// bucket, scan-all), *non-uniform* (Poisson chains, early exit) and
/// *skewed* (Zipf(0.75) build) traversals. Shape: GP/SPP ≈ 3–4x better
/// than baseline on uniform, then lose 1.6–1.8x and 2.6–3.5x; AMAC stays
/// fast everywhere.
pub(super) fn fig03(args: &Args) -> Outcome {
    println!("# Figure 3 — normalized cycles per lookup tuple (paper §2.2.2)\n");
    let (ht_u, rel_u) = exact_occupancy_table(args.s_size(), 4);
    // Every row uses the uniform construction's tuple count (and, for
    // non-uniform, its bucket count), so the three traversal shapes share
    // one working-set size.
    let n = rel_u.len();
    let probes_u = rel_u.shuffled(0xAB);
    let rel_n = Relation::dense_unique(n, 0xBEE);
    let ht_n = HashTable::with_buckets(ht_u.bucket_count());
    insert_all(&ht_n, &rel_n);
    let probes_n = rel_n.shuffled(0xAC);
    let ht_s = HashTable::for_tuples(n);
    insert_all(&ht_s, &Relation::zipf(n, n as u64, 0.75, 0xCAFE));
    let probes_s = Relation::zipf(n, n as u64, 0.75, 0xCAFF);
    // (label, table, probes, scan_all, GP/SPP stage budget; 0 = default).
    // The skewed build has duplicate keys: join semantics scan chains.
    let cases = [
        ("uniform", &ht_u, &probes_u, true, 4),
        ("non-uniform", &ht_n, &probes_n, false, 4),
        ("skewed (z=.75)", &ht_s, &probes_s, true, 0),
    ];
    let results = cases.map(|(label, ht, probes, scan_all, n_stages)| {
        let cells = per_technique(args.trials, |t| {
            let cfg = ProbeConfig { scan_all, n_stages, ..probe_cfg(Window::PaperBest.m(t)) };
            [probe(ht, probes, t, &cfg).cycles as f64 / probes.len() as f64]
        });
        (label, cells)
    });
    let norm = results[0].1[0][0];
    let mut table =
        technique_table("Fig 3: cycles per lookup, normalized to uniform Baseline", "traversal");
    for (label, cells) in results {
        table.row(
            std::iter::once(label.to_string()).chain(cells.map(|[c]| format!("{:.2}", c / norm))),
        );
    }
    table.note(format!(
        "|probes| = {n} (largest 12-tuple-per-bucket pow2 table within 2^{}); \
         raw uniform baseline = {norm:.1} cycles/tuple",
        args.scale
    ));
    table.print();
    Outcome::default()
}

/// Hash join build + probe cycles per tuple under the five `[Z_R, Z_S]`
/// skews, one panel per `(title, |R|)`.
fn join_panels(args: &Args, panels: &[(&str, usize)], window: Window) {
    let ns = args.s_size();
    for &(title, nr) in panels {
        let columns = Technique::ALL.map(|t| [" build", " probe"].map(|c| format!("{t}{c}")));
        let header = std::iter::once("[ZR,ZS]".to_string()).chain(columns.into_iter().flatten());
        let mut table = Table::new(window.title(title)).header(header);
        for (zr, zs) in SKEW_CONFIGS {
            let lab = JoinLab::generate(nr, ns, zr, zs, 0xFEED ^ ((zr * 10.0) as u64) << 8);
            let cells = per_technique(args.trials, |t| {
                let (ht, build) = lab.build_with(t, window.m(t));
                [build, lab.probe_with(&ht, t, &probe_cfg(window.m(t)))]
            });
            table.row(row(skew_label(zr, zs), cells.into_iter().flatten()));
        }
        table.note(format!("cycles per tuple; |R|=2^{}, |S|=2^{}", nr.ilog2(), ns.ilog2()));
        table.print();
        println!();
    }
}

/// **Figure 5**: hash join build + probe, small (2MB ⋈ 2GB) and large
/// (2GB ⋈ 2GB) build. Shape: uniform large join GP 2.8x, SPP 3.8x, AMAC
/// 4.3x over baseline; under skewed R GP/SPP degrade, AMAC stays within
/// ~5% of its uniform probe cost.
pub(super) fn fig05(args: &Args) -> Outcome {
    println!("# Figure 5 — hash join cycles breakdown (paper §5.1)\n");
    let panels = [
        ("Fig 5a: small build relation (2MB-class)", args.r_small()),
        ("Fig 5b: large build relation (2GB-class)", args.r_large()),
    ];
    join_panels(args, &panels, Window::PaperBest);
    Outcome::default()
}

/// **Figure 6**: probe cost vs in-flight lookups. Shape: steep gains up
/// to ~10 (the L1-D MSHR limit) on uniform input; under skew GP/SPP
/// barely gain, AMAC keeps its benefit.
pub(super) fn fig06(args: &Args) -> Outcome {
    const SWEEP: [usize; 6] = [1, 3, 5, 8, 11, 15];
    println!("# Figure 6 — probe sensitivity to in-flight lookups (paper §5.1)\n");
    for t in [Technique::Gp, Technique::Spp, Technique::Amac] {
        let mut table = Table::new(format!("Fig 6: {t} probe cycles/tuple vs in-flight lookups"))
            .header(std::iter::once("[ZR,ZS]".to_string()).chain(SWEEP.map(|m| format!("M={m}"))));
        for (zr, zs) in SKEW_CONFIGS {
            let seed = 0x66 ^ (zr * 100.0) as u64;
            let lab = JoinLab::generate(args.r_large(), args.s_size(), zr, zs, seed);
            let (ht, _) = lab.build_with(Technique::Amac, 10);
            let cells = SWEEP.map(|m| {
                crate::best_of(args.trials, || (lab.probe_with(&ht, t, &probe_cfg(m)), ())).0
            });
            table.row(row(skew_label(zr, zs), cells));
        }
        table.note(format!("|R|=|S|=2^{}", args.scale));
        table.print();
        println!();
    }
    Outcome::default()
}

/// Probe throughput at 1, 2, 4, … up to twice `--threads` static-chunk
/// threads for skews `[0,0]`, `[.5,.5]` and `[1,1]`.
fn probe_scaling(args: &Args, figure: &str, window: Window) {
    let max_threads = args.threads.max(1) * 2; // physical + SMT-style oversubscription
    for (panel, (zr, zs)) in ["a", "b", "c"].into_iter().zip([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]) {
        let lab =
            JoinLab::generate(args.r_large(), args.s_size(), zr, zs, 0x77 ^ (zr * 100.0) as u64);
        let (ht, _) = lab.build_with(Technique::Amac, 10);
        let title = format!("{figure}{panel}: probe throughput, skew {}", skew_label(zr, zs));
        let mut table = technique_table(window.title(title), "threads");
        let mut threads = 1usize;
        while threads <= max_threads {
            // Seconds per tuple, so best-of keeps the fastest run.
            let cells = per_technique(args.trials, |t| {
                let cfg = ProbeConfig { scan_all: zr > 0.0, ..probe_cfg(window.m(t)) };
                let rt = MorselConfig::static_chunks(threads);
                [1.0 / probe_mt_rt(&ht, &lab.s, t, &cfg, &rt).throughput]
            });
            table.row(std::iter::once(threads.to_string()).chain(cells.map(|[s]| fmtput(1.0 / s))));
            threads *= 2;
        }
        table.note(format!("|R|=|S|=2^{}; tuples/second", args.scale));
        table.print();
        println!();
    }
}

/// **Figure 7**: probe throughput vs threads. Shape: prefetchers start
/// ~2.5x above baseline and saturate at the shared-LLC queue limit (a
/// host property); AMAC ≥ SPP/GP > baseline at every thread count.
pub(super) fn fig07(args: &Args) -> Outcome {
    println!("# Figure 7 — probe throughput scalability (paper §5.1)\n");
    probe_scaling(args, "Fig 7", Window::PaperBest);
    Outcome::default()
}

/// **Figure 8**: Figure 7 on the second platform (emulated).
pub(super) fn fig08(args: &Args) -> Outcome {
    substitution_note("Figure 8 — probe scalability", "§5.1");
    probe_scaling(args, "Fig 8", Window::Narrow);
    Outcome::default()
}

/// Group-by cycles per input tuple under uniform, z = 0.5 and z = 1 keys,
/// one panel per `(title, groups)`.
fn groupby_panels(args: &Args, panels: &[(&str, usize)], window: Window) {
    for &(title, n_groups) in panels {
        let mut table = technique_table(window.title(title), "distribution");
        for (name, theta) in
            [("Uniform", None), ("Zipf (z=0.5)", Some(0.5)), ("Zipf (z=1)", Some(1.0))]
        {
            let input = match theta {
                None => GroupByInput::uniform(n_groups, 3, 0x99),
                Some(z) => GroupByInput::zipf(n_groups, n_groups * 3, z, 0x99),
            };
            let cells = per_technique(args.trials, |t| {
                let cfg = GroupByConfig { params: window.params(t), ..Default::default() };
                [groupby_fresh(&input, t, &cfg).1.cycles as f64 / input.len().max(1) as f64]
            });
            table.row(row(name, cells.into_iter().flatten()));
        }
        table.note(format!("{n_groups} groups x3 tuples each"));
        table.print();
        println!();
    }
}

/// **Figure 9**: group-by, small and large input. Shape: on small skewed
/// input GP/SPP serialize on in-group conflicts while AMAC gains ~1.6x;
/// on large input all gain, AMAC ahead (2.6x vs 2.1x/2.2x).
pub(super) fn fig09(args: &Args) -> Outcome {
    println!("# Figure 9 — group-by (paper §5.2)\n");
    // Paper: small = 2^17 keys, large = 2^27 keys. We keep the ratio but
    // floor the small input so the measurement stays above timing noise.
    let panels = [
        (
            "Fig 9 (small input): group-by cycles per input tuple",
            (args.s_size() >> 10).max(1 << 14),
        ),
        ("Fig 9 (large input): group-by cycles per input tuple", args.s_size() >> 2),
    ];
    groupby_panels(args, &panels, Window::PaperBest);
    Outcome::default()
}

/// BST search cycles per probe tuple over a ladder of tree sizes (the
/// paper sweeps 2^15 … 2^28 with probes = tree size; the ladder keeps its
/// spread, capped by `--scale`).
fn bst_sweep(args: &Args, figure: &str, window: Window) {
    let top = args.scale.min(24);
    let sizes = (0..5).map(|i| top.saturating_sub(3 * (4 - i))).filter(|&b| b >= 10);
    let title = window.title(format!("{figure}: BST search cycles per probe tuple"));
    let mut table = technique_table(title, "tree size (log2)");
    let mut speedups: [Vec<f64>; 3] = Default::default();
    for bits in sizes {
        let rel = Relation::sparse_unique(1 << bits, 0xBB ^ bits as u64);
        let tree = Bst::build(&rel);
        let probes = rel.shuffled(0xCC ^ bits as u64);
        let c = per_technique(args.trials, |t| {
            let cfg = BstConfig { params: window.params(t), materialize: false };
            [bst_search(&tree, &probes, t, &cfg).cycles as f64 / probes.len() as f64]
        });
        for (s, [x]) in speedups.iter_mut().zip(&c[1..]) {
            s.push(c[0][0] / x);
        }
        table.row(row(bits.to_string(), c.into_iter().flatten()));
    }
    table.note(format!(
        "geomean speedup over baseline: GP {:.2}x, SPP {:.2}x, AMAC {:.2}x (paper Fig. 10: 2.1x / 1.8x / 2.8x)",
        geomean(&speedups[0]),
        geomean(&speedups[1]),
        geomean(&speedups[2]),
    ));
    table.print();
    println!();
}

/// **Figure 10**: BST search vs tree size. Shape: gains grow with height;
/// random-BST depth varies per lookup, so AMAC (4.45x peak) beats the
/// static schedules, which waste stages or bail out on deep paths.
pub(super) fn fig10(args: &Args) -> Outcome {
    println!("# Figure 10 — BST search (paper §5.3)\n");
    bst_sweep(args, "Fig 10", Window::PaperBest);
    Outcome::default()
}

/// Skip-list search and insert cycles per tuple at three list sizes (the
/// paper's 2^17, 2^21, 2^25, capped by `--scale`: skip lists are the
/// most memory-hungry structure).
fn skiplist_sweep(args: &Args, figure: &str, window: Window) {
    let top = args.scale.min(22);
    let sizes: Vec<u32> = [top.saturating_sub(8), top.saturating_sub(4), top]
        .into_iter()
        .filter(|&b| b >= 10)
        .collect();
    for op in ["Search", "Insert"] {
        let title = window.title(format!("{figure}: skip list {op} cycles per tuple"));
        let mut table = technique_table(title, "elements (log2)");
        for &bits in &sizes {
            let n = 1usize << bits;
            let rel = Relation::sparse_unique(n, 0x11AA ^ bits as u64);
            // The search workload shares one list, built once.
            let search = (op == "Search").then(|| {
                let list = SkipList::new();
                skip_insert(&list, &rel, Technique::Baseline, &SkipConfig::default(), 0x5EED);
                (list, rel.shuffled(0x77 ^ bits as u64))
            });
            let cells = per_technique(args.trials, |t| {
                let cfg = SkipConfig { params: window.params(t), ..Default::default() };
                let cycles = match &search {
                    Some((list, probes)) => skip_search(list, probes, t, &cfg).cycles,
                    None => skip_insert(&SkipList::new(), &rel, t, &cfg, 0x5EED).cycles,
                };
                [cycles as f64 / n as f64]
            });
            table.row(row(bits.to_string(), cells.into_iter().flatten()));
        }
        table.print();
        println!();
    }
}

/// **Figure 11**: skip-list search and insert. Shape: irregular per-level
/// walks leave GP/SPP ~1.2x on search vs AMAC 1.9x; insert's splice work
/// compresses all gains (1.1x/1.2x/1.4x).
pub(super) fn fig11(args: &Args) -> Outcome {
    println!("# Figure 11 — skip list search and insert (paper §5.4)\n");
    skiplist_sweep(args, "Fig 11", Window::PaperBest);
    Outcome::default()
}

/// **Figure 12**: Figure 5's large join and Figure 9's large group-by,
/// emulated: AMAC best except for isolated build-phase cases.
pub(super) fn fig12(args: &Args) -> Outcome {
    substitution_note("Figure 12 — hash join & group-by", "§5.5");
    let join = ("Fig 12a: hash join cycles per output tuple", args.r_large());
    join_panels(args, &[join], Window::Narrow);
    let groupby = ("Fig 12b: group-by cycles per input tuple", args.s_size() >> 2);
    groupby_panels(args, &[groupby], Window::Narrow);
    Outcome::default()
}

/// **Figure 13**: Figures 10 and 11 on the second platform (emulated).
pub(super) fn fig13(args: &Args) -> Outcome {
    substitution_note("Figure 13 — BST & skip list", "§5.5");
    bst_sweep(args, "Fig 13", Window::Narrow);
    skiplist_sweep(args, "Fig 13", Window::Narrow);
    Outcome::default()
}

/// **Table 2 analogue**: the host platform the experiments ran on (the
/// paper's Table 2 lists its Xeon x5670 and SPARC T4).
pub(super) fn platform(_: &Args) -> Outcome {
    print!("{}", Platform::detect());
    // What the kernel does with a region that asks for huge pages, tried
    // rather than inferred from the mode: 8 huge pages' worth, touched.
    let before = anon_huge_bytes();
    let trial = Region::<u8>::new(8 * HUGE_PAGE);
    let granted = anon_huge_bytes().zip(before).map(|(now, then)| now.saturating_sub(then));
    let advice = region::stats();
    println!(
        "  huge-page trial: {} MiB region, {} MiB advised ({} refused), {}",
        trial.len() >> 20,
        advice.bytes_advised >> 20,
        advice.advise_refused,
        match granted {
            Some(bytes) => format!("{} MiB granted", bytes >> 20),
            None => "grant not reported by this kernel".to_string(),
        }
    );
    println!(
        "\npaper Table 2 reference points:\n\
         \x20 Xeon x5670 : 6C/12T @ 2.93 GHz, 32 KB L1-D, 12 MB L3, 24 GB DDR3\n\
         \x20 SPARC T4   : 8C/64T @ 3 GHz, 16 KB L1-D, 4 MB L3, 1 TB DDR3"
    );
    Outcome::default()
}

/// **Table 3**: instructions and cycles per tuple, uniform small join.
/// Shape: GP ≈ 2.5x, SPP ≈ 1.9x, AMAC ≈ 1.5x baseline instructions; the
/// table fits in LLC, so only AMAC beats the baseline. Without
/// `perf_event_open`, stage-slot visits per tuple stand in.
pub(super) fn table03(args: &Args) -> Outcome {
    let lab = JoinLab::generate(args.r_small(), args.s_size(), 0.0, 0.0, 0x7AB3);
    let hw = perf::available();
    println!("# Table 3 — execution profile, uniform small join (paper §5.1)\n");
    let mut table = technique_table(
        if hw {
            "Table 3: hardware-counter profile (2MB-class ⋈ 2GB-class)"
        } else {
            "Table 3: software profile (perf_event unavailable; stage-slot proxy)"
        },
        "Metric",
    );
    // Per technique: [instructions (NaN without counters), slots, cycles].
    let cells = per_technique(args.trials, |t| {
        let m = TuningParams::paper_best(t).in_flight;
        let (ht, _) = lab.build_with(t, m);
        let ns = lab.s.len() as f64;
        let (out, counters) = perf::measure_instructions(|| probe(&ht, &lab.s, t, &probe_cfg(m)));
        let instr = counters.map_or(f64::NAN, |(i, _)| i as f64 / ns);
        [instr, out.stats.work_per_lookup(), out.cycles as f64 / ns]
    });
    for (k, metric) in
        ["Instructions per Tuple", "Stage slots per Tuple (sw proxy)", "Cycles per Tuple"]
            .into_iter()
            .enumerate()
    {
        if k > 0 || (hw && cells.iter().all(|c| c[0].is_finite())) {
            table.row(row(metric, cells.map(|c| c[k])));
        }
    }
    table.note(format!(
        "|R|=2^{}, |S|=2^{}; paper: instr/tuple 36/90/67/55, cycles/tuple 27/37/28/22",
        args.r_small().ilog2(),
        args.scale
    ));
    table.print();
    Outcome::default()
}

/// **Table 4**: the paper's IPC and L1-D MSHR hits vs threads. MSHR hits
/// are not portably sampled, so this reports AMAC throughput, per-thread
/// efficiency (the IPC-drop signal), IPC when `perf_event` allows, and
/// prefetches per stage. Shape: per-thread efficiency collapses once
/// outstanding misses exceed the shared-LLC queue.
pub(super) fn table04(args: &Args) -> Outcome {
    let lab = JoinLab::generate(args.r_large(), args.s_size(), 0.0, 0.0, 0x404);
    let (ht, _) = lab.build_with(Technique::Amac, 10);
    let hw = perf::available();
    println!("# Table 4 — probe scalability profile (paper §5.1.1)\n");
    let mut table = Table::new(if hw {
        "Table 4: AMAC probe scaling (hw counters available)"
    } else {
        "Table 4: AMAC probe scaling (perf_event unavailable; software proxies)"
    })
    .header(["threads", "throughput", "per-thread eff.", "IPC", "prefetch/stage"]);
    let mut base_per_thread = 0.0f64;
    let mut threads = 1usize;
    while threads <= args.threads.max(1) * 2 {
        let rt = MorselConfig::static_chunks(threads);
        let (out, counters) = perf::measure_instructions(|| {
            probe_mt_rt(&ht, &lab.s, Technique::Amac, &probe_cfg(10), &rt)
        });
        let per_thread = out.throughput / threads as f64;
        if threads == 1 {
            base_per_thread = per_thread;
        }
        let ipc =
            counters.map_or_else(|| "n/a".into(), |(i, c)| format!("{:.2}", i as f64 / c as f64));
        table.row([
            threads.to_string(),
            fmtput(out.throughput),
            format!("{:.2}", per_thread / base_per_thread),
            ipc,
            fnum(out.stats.prefetches as f64 / out.stats.stages.max(1) as f64),
        ]);
        threads *= 2;
    }
    table
        .note("paper: IPC 1.4 -> 0.7 and L1-D MSHR hits 1.8 -> 6.9 per k-inst from 1 to 6 threads");
    table.note("per-thread eff. = (throughput/threads) normalized to 1 thread");
    table.print();
    Outcome::default()
}
