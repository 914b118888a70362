//! **Far-memory tier trajectory**: the paper's latency-hiding argument
//! as deterministic counters (DESIGN.md "Far-memory cost model"). Chain
//! nodes sit in a simulated far tier whose latency sweeps 1×–8× DRAM,
//! every executor runs the same probes, and the gated signal is **stall
//! share** — simulated time spent waiting on loads the window failed to
//! hide. The baseline tracks the no-overlap ceiling; GP/SPP's bailout
//! stages and AMAC at a fixed M = 10 expose more as latency grows; AMAC
//! with `TuningParams::auto_sim` deepens its window and stays flat at 0.
//! Work ticks (`sim_cycles`) must not depend on the executor.

use crate::{Args, JsonOut, Outcome};
use amac::engine::{Technique, TuningParams};
use amac_hashtable::HashTable;
use amac_metrics::report::Table;
use amac_ops::join::{probe, ProbeConfig, ProbeOp};
use amac_tier::TierSpec;
use amac_workload::Relation;

const SEED: u64 = 0x71E6;

/// The far-latency sweep axis: far-tier latency as a multiple of DRAM
/// latency.
const FAR_MULTS: [u64; 4] = [1, 2, 4, 8];

/// The tier lab: Zipf(0.4) build keys over a narrow domain give a mild
/// heavy tail of chain lengths (a few percent of steps overflow the
/// GP/SPP stage budget into serial bailouts — the exposure mechanism),
/// probed uniformly with full-chain scans.
struct TierLab {
    ht: HashTable,
    probes: Relation,
    /// GP/SPP stage budget: 2x the expected nodes per probed chain, so
    /// only the Zipf tail's few percent of steps bail out serially (a
    /// mean-sized budget would saturate GP's stall share at 1x already).
    n_stages: usize,
}

impl TierLab {
    fn new(n: usize) -> TierLab {
        let domain = (n as u64 / 16).max(256);
        let ht = HashTable::build_serial(&Relation::zipf(n / 2, domain, 0.4, SEED));
        let per_key = ((n / 2) as u64 / domain).max(1);
        let n_stages = (2 * per_key).div_ceil(3).max(2) as usize;
        TierLab { ht, probes: Relation::zipf(n, domain, 0.0, SEED), n_stages }
    }

    fn cfg(&self, mult: u64, m: usize) -> ProbeConfig {
        ProbeConfig {
            params: TuningParams::with_in_flight(m),
            n_stages: self.n_stages,
            scan_all: true,
            materialize: false,
            tier: Some(TierSpec::headers_near(mult)),
            ..Default::default()
        }
    }
}

struct Row {
    mult: u64,
    executor: &'static str,
    m: usize,
    stall_share: f64,
    sim_cycles: u64,
    sim_stalls: u64,
}

pub(super) fn run(args: &Args) -> Outcome {
    let n = args.s_size();
    let lab = TierLab::new(n);
    let lookups = lab.probes.len() as f64;
    println!("# Far-memory tier trajectory ({n} probes, N = {})\n", lab.n_stages);

    // Window calibration per multiplier: auto_sim is fed the tier's cost
    // model through the op factory (deterministic — gated below).
    let auto_m = FAR_MULTS.map(|mult| {
        let c = lab.cfg(mult, 10);
        TuningParams::auto_sim(|| ProbeOp::new(&lab.ht, &c, 0), &lab.probes.tuples).in_flight
    });

    // --- Latency sweep x executor -------------------------------------
    let mut rows: Vec<Row> = Vec::new();
    for (mi, &mult) in FAR_MULTS.iter().enumerate() {
        let runs: [(&'static str, Technique, usize); 5] = [
            ("Baseline", Technique::Baseline, 1),
            ("GP", Technique::Gp, TuningParams::paper_best(Technique::Gp).in_flight),
            ("SPP", Technique::Spp, TuningParams::paper_best(Technique::Spp).in_flight),
            ("AMAC", Technique::Amac, 10),
            ("AMAC-auto", Technique::Amac, auto_m[mi]),
        ];
        for (executor, technique, m) in runs {
            let s = probe(&lab.ht, &lab.probes, technique, &lab.cfg(mult, m)).stats;
            let (stall_share, sim_cycles, sim_stalls) =
                (s.stall_share(), s.sim_cycles, s.sim_stalls);
            rows.push(Row { mult, executor, m, stall_share, sim_cycles, sim_stalls });
        }
    }
    let work = rows[0].sim_cycles;
    for r in &rows {
        assert_eq!(
            r.sim_cycles, work,
            "{} {}x: work ticks depend on the executor",
            r.executor, r.mult
        );
    }

    let row_of = |executor: &str, mult: u64| -> &Row {
        rows.iter().find(|r| r.executor == executor && r.mult == mult).expect("row exists")
    };
    let share = |executor: &str, mult: u64| row_of(executor, mult).stall_share;
    let mut sweep = Table::new("Stall share by far-latency multiplier (headers near, nodes far)")
        .header(["executor", "M", "1x", "2x", "4x", "8x"]);
    for name in ["Baseline", "GP", "SPP", "AMAC", "AMAC-auto"] {
        // Label with the windows actually run (per-mult list when the
        // auto-tuner varies them, the single M otherwise).
        let ms = FAR_MULTS.map(|mult| row_of(name, mult).m);
        let m_label =
            if ms.windows(2).all(|w| w[0] == w[1]) { ms[0].to_string() } else { format!("{ms:?}") };
        let shares = FAR_MULTS.map(|mult| format!("{:.3}", share(name, mult)));
        sweep.row([name.to_string(), m_label].into_iter().chain(shares));
    }
    sweep.note("work ticks identical across executors");
    sweep.print();
    println!();

    // --- Window sweep: stall share vs M at each latency ----------------
    let mut wrows: Vec<String> = Vec::new();
    let mut wtable =
        Table::new("AMAC stall share by window size M").header(["M", "1x", "2x", "4x", "8x"]);
    for m in [4usize, 10, 16, 32, 48, 64] {
        let mut row = vec![format!("{m}")];
        for &mult in &FAR_MULTS {
            let share =
                probe(&lab.ht, &lab.probes, Technique::Amac, &lab.cfg(mult, m)).stats.stall_share();
            row.push(format!("{share:.3}"));
            wrows.push(format!(
                "{{\"kind\": \"window\", \"m\": {m}, \"mult\": {mult}, \"stall_share\": {share:.4}}}"
            ));
        }
        wtable.row(row);
    }
    wtable.note("a window deeper than the far latency (in ticks) hides it completely");
    wtable.print();
    println!();

    // --- The gated shape ----------------------------------------------
    let gp_ratio = share("GP", 8) / share("GP", 1).max(f64::MIN_POSITIVE);
    assert!(share("GP", 1) > 0.0, "GP at 1x must expose its bailout stages");
    println!(
        "shape: GP stall share {:.3} -> {:.3} ({gp_ratio:.1}x); AMAC-auto {:.3} -> {:.3} (M {} -> {})\n",
        share("GP", 1),
        share("GP", 8),
        share("AMAC-auto", 1),
        share("AMAC-auto", 8),
        auto_m[0],
        auto_m[3]
    );

    let mut j = JsonOut::open("tier_far_memory");
    j.meta("tuples", n);
    j.meta("n_stages", lab.n_stages);
    j.meta("near_latency_ticks", 4);
    let sweep_rows = rows.iter().map(|r| {
        format!(
            "{{\"kind\": \"latency\", \"executor\": \"{}\", \"m\": {}, \"mult\": {}, \
             \"stall_share\": {:.4}, \"sim_cycles_per_lookup\": {:.4}, \
             \"sim_stalls_per_lookup\": {:.4}}}",
            r.executor,
            r.m,
            r.mult,
            r.stall_share,
            r.sim_cycles as f64 / lookups,
            r.sim_stalls as f64 / lookups
        )
    });
    j.results(sweep_rows.chain(wrows));
    let keys = [
        ("BENCH_TIER_GP_STALL_SHARE_1X", format!("{:.4}", share("GP", 1))),
        ("BENCH_TIER_GP_STALL_SHARE_8X", format!("{:.4}", share("GP", 8))),
        ("BENCH_TIER_GP_STALL_RATIO", format!("{gp_ratio:.4}")),
        ("BENCH_TIER_BASELINE_STALL_SHARE_8X", format!("{:.4}", share("Baseline", 8))),
        ("BENCH_TIER_AMAC_FIXED_STALL_SHARE_8X", format!("{:.4}", share("AMAC", 8))),
        ("BENCH_TIER_AMAC_AUTO_STALL_SHARE_8X", format!("{:.4}", share("AMAC-auto", 8))),
        ("BENCH_TIER_AUTO_M_1X", format!("{}", auto_m[0])),
        ("BENCH_TIER_AUTO_M_8X", format!("{}", auto_m[3])),
        ("BENCH_TIER_SIM_CYCLES_PER_LOOKUP", format!("{:.4}", work as f64 / lookups)),
    ];
    j.finish_with_keys(&keys)
}
