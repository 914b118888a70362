//! **Scaling trajectory**: static-chunk vs morsel-driven probe throughput
//! at 1/2/4/8 threads on uniform and clustered-Zipf(θ=1) inputs. Expected:
//! `morsel` ≥ `static` on the skewed input at ≥ 4 threads (stealing
//! flattens the hot chunk's tail); the two match on uniform input.

use crate::{best_of, probe_cfg, scan_all_cfg, skewed_probe_lab, Args, JsonOut, Outcome};
use amac::engine::{EngineStats, Technique};
use amac_hashtable::HashTable;
use amac_ops::join::ProbeConfig;
use amac_ops::parallel::{probe_mt_rt, MtOutput};
use amac_runtime::MorselConfig;
use amac_workload::Relation;

const MORSEL: usize = 4096;

struct Row {
    workload: &'static str,
    scheduling: &'static str,
    threads: usize,
    out: MtOutput,
}

impl Row {
    /// Busiest thread's stage share, normalized so 1.0 = perfectly
    /// balanced and `threads` = one thread did everything.
    ///
    /// For *static* scheduling the assignment is fixed, so this is the
    /// run's multicore critical path: with >= `threads` real cores, wall
    /// time converges to the busiest chunk, and static's `work_skew` is
    /// the slowdown factor that stealing removes. For *morsel* scheduling
    /// under an oversubscribed host the number reflects OS timeslicing
    /// (work flows to whichever worker is running — that is the point of
    /// stealing), not a multicore prediction.
    fn work_skew(&self) -> f64 {
        let work = |s: &EngineStats| (s.stages + s.latch_retries) as f64;
        let per_thread = &self.out.report.per_thread;
        let total: f64 = per_thread.iter().map(|t| work(&t.stats)).sum();
        let max = per_thread.iter().map(|t| work(&t.stats)).fold(0.0, f64::max);
        if total > 0.0 {
            max * self.threads as f64 / total
        } else {
            1.0
        }
    }
}

pub(super) fn run(args: &Args) -> Outcome {
    let n = args.s_size();
    let trials = args.trials.max(2);
    // Uniform FK probe: morsel dispatch must match static within noise.
    let r = Relation::dense_unique(n, 0xB1);
    let s = Relation::fk_uniform(&r, n, 0xD2);
    let ht = HashTable::build_serial(&r);
    // Skewed probe: Zipf θ=1 chains + clustered probe order.
    let lab = skewed_probe_lab(n, 1.0, 0x5EED);
    let measure = |ht: &HashTable, s: &Relation, cfg: &ProbeConfig, rt: &MorselConfig| {
        best_of(trials, || {
            let out = probe_mt_rt(ht, s, Technique::Amac, cfg, rt);
            (out.seconds, out)
        })
        .1
    };

    let mut rows: Vec<Row> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let schedulings = [
            ("static", MorselConfig::static_chunks(threads)),
            ("morsel", MorselConfig { threads, morsel_tuples: MORSEL, ..Default::default() }),
        ];
        for (scheduling, rt) in schedulings {
            let out = measure(&ht, &s, &probe_cfg(10), &rt);
            rows.push(Row { workload: "uniform", scheduling, threads, out });
            let out = measure(&lab.ht, &lab.s, &scan_all_cfg(10), &rt);
            rows.push(Row { workload: "zipf1_clustered", scheduling, threads, out });
        }
    }

    let mut j = JsonOut::open("parallel_scaling");
    j.meta("tuples", n);
    j.meta("morsel_tuples", MORSEL);
    j.meta("trials", trials);
    j.meta("host_cpus", std::thread::available_parallelism().map_or(0, |n| n.get()));
    j.results(rows.iter().map(|r| {
        // `nodes_per_lookup` is the layout metric: constant across
        // schedulings and threads for a given workload, and composable
        // with the `BENCH_LAYOUT_*` trajectory.
        format!(
            "{{\"workload\": \"{}\", \"scheduling\": \"{}\", \"threads\": {}, \
             \"tuples_per_sec\": {:.0}, \"steals\": {}, \"imbalance\": {:.3}, \
             \"p99_morsel_us\": {:.1}, \"work_skew\": {:.3}, \
             \"nodes_per_lookup\": {:.3}}}",
            r.workload,
            r.scheduling,
            r.threads,
            r.out.throughput,
            r.out.report.steals(),
            r.out.report.imbalance(),
            r.out.report.morsel_ns.quantile(0.99).unwrap_or(0) as f64 / 1e3,
            r.work_skew(),
            r.out.stats.nodes_per_lookup()
        )
    }));

    // Headline numbers. Wall-clock speedup needs real cores to steal onto
    // (on a timesliced single-core host both schemes serialize to total
    // work and the ratio sits at ~1.0); static's work_skew is the
    // deterministic straggler factor that stealing removes, i.e. the wall
    // speedup an adequately-cored host converges to for this workload.
    let pick = |workload: &str, scheduling: &str, threads: usize| {
        rows.iter()
            .find(|r| r.workload == workload && r.scheduling == scheduling && r.threads == threads)
            .expect("row exists")
    };
    let wall = |threads| {
        let (m, s) = (
            pick("zipf1_clustered", "morsel", threads),
            pick("zipf1_clustered", "static", threads),
        );
        if s.out.throughput > 0.0 {
            m.out.throughput / s.out.throughput
        } else {
            0.0
        }
    };
    let straggler = |threads| pick("zipf1_clustered", "static", threads).work_skew();
    let npl = |workload| pick(workload, "morsel", 4).out.stats.nodes_per_lookup();
    let keys = [
        ("BENCH_SKEW_WALL_SPEEDUP_4T", wall(4)),
        ("BENCH_SKEW_WALL_SPEEDUP_8T", wall(8)),
        ("BENCH_SKEW_STATIC_STRAGGLER_4T", straggler(4)),
        ("BENCH_SKEW_STATIC_STRAGGLER_8T", straggler(8)),
        // Fewer dependent hops per probe compose multiplicatively with
        // the scheduling wins above.
        ("BENCH_SKEW_NODES_PER_LOOKUP_ZIPF1", npl("zipf1_clustered")),
        ("BENCH_SKEW_NODES_PER_LOOKUP_UNIFORM", npl("uniform")),
    ];
    j.finish_with_keys(&keys.map(|(k, v)| (k, format!("{v:.3}"))))
}
