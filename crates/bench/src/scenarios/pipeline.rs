//! **Fused-pipeline trajectory**: probe→filter→group-by (and a probe→probe
//! join chain) run *fused* — one AMAC window for the whole chain — vs the
//! *two-phase* plan that materializes the join output and re-reads it,
//! over selectivities and fact-key skews. Fused reports `passes = 1` and
//! `intermediate_bytes = 0`; two-phase pays `passes = 2` and `16 B × |σ·S|`
//! of intermediate traffic — deterministic evidence that survives noisy
//! hosts.

use crate::{best_of, Args, JsonOut, Outcome};
use amac::engine::Technique;
use amac_hashtable::{AggTable, HashTable};
use amac_ops::parallel::{probe_groupby_mt_rt, probe_groupby_two_phase_mt_rt};
use amac_ops::pipeline::{
    probe_then_groupby, probe_then_groupby_two_phase, probe_then_probe, probe_then_probe_two_phase,
    PipelineConfig, PipelineOutput,
};
use amac_runtime::MorselConfig;
use amac_workload::{FilterSpec, Relation};

const MORSEL: usize = 4096;

struct Row {
    workload: &'static str,
    sigma: f64,
    plan: &'static str,
    out: PipelineOutput,
    tuples_per_sec_mt: f64,
}

pub(super) fn run(args: &Args) -> Outcome {
    let n_fact = args.s_size();
    let n_dim = (n_fact / 64).max(1 << 10);
    // One group per 4 dimension rows: at paper-ish scales the aggregate
    // table outgrows L2 too, so *both* fused stages are miss-bound (the
    // regime fusion targets); at smoke scales it stays cache-resident and
    // the deterministic passes/intermediate_bytes columns carry the signal.
    let groups = (n_dim as u64 / 4).max(256);
    let trials = args.trials.max(2);
    let threads = args.threads.max(1);
    let rt = MorselConfig { threads, morsel_tuples: MORSEL, ..Default::default() };

    let dim = Relation::fk_dimension(n_dim, groups, 0xD1);
    let ht = HashTable::build_serial(&dim);
    let workloads: [(&'static str, Relation); 2] = [
        ("uniform", Relation::fk_uniform(&dim, n_fact, 0xFA)),
        ("zipf1", Relation::zipf(n_fact, n_dim as u64, 1.0, 0xFB)),
    ];
    let per_tuple = |cycles: u64| cycles as f64 / n_fact as f64;
    let best = |run: &dyn Fn() -> PipelineOutput| {
        best_of(trials, || {
            let out = run();
            (out.seconds, out)
        })
        .1
    };

    let mut rows: Vec<Row> = Vec::new();
    for (workload, fact) in &workloads {
        for sigma in [0.1, 0.5, 1.0] {
            let filter = Some(FilterSpec::selectivity(sigma));
            let cfg = PipelineConfig { filter, ..Default::default() };
            let table = || AggTable::for_groups(groups as usize);
            // Single-threaded cycles (best-of), then one MT run per plan.
            let fused = best(&|| probe_then_groupby(&ht, &table(), fact, Technique::Amac, &cfg));
            let two =
                best(&|| probe_then_groupby_two_phase(&ht, &table(), fact, Technique::Amac, &cfg));
            let mtf = probe_groupby_mt_rt(&ht, &table(), fact, Technique::Amac, &cfg, &rt);
            let mtt =
                probe_groupby_two_phase_mt_rt(&ht, &table(), fact, Technique::Amac, &cfg, &rt);
            for (plan, out, mt) in [("fused", fused, mtf), ("two_phase", two, mtt)] {
                rows.push(Row { workload, sigma, plan, out, tuples_per_sec_mt: mt.out.throughput });
            }
        }
    }

    // 2-join chain at σ = 1 on the uniform workload.
    let ht2 = HashTable::build_serial(&Relation::fk_dimension(groups as usize, 1 << 20, 0xD2));
    let (fact, cfg) = (&workloads[0].1, PipelineConfig::default());
    let cf = best(&|| probe_then_probe(&ht, &ht2, fact, Technique::Amac, &cfg));
    let ct = best(&|| probe_then_probe_two_phase(&ht, &ht2, fact, Technique::Amac, &cfg));

    let mut j = JsonOut::open("fused_pipeline");
    j.meta("fact_tuples", n_fact);
    j.meta("dim_tuples", n_dim);
    j.meta("groups", groups);
    j.meta("threads_mt", threads);
    j.meta("trials", trials);
    j.meta("host_cpus", std::thread::available_parallelism().map_or(0, |n| n.get()));
    j.meta(
        "chain",
        format!(
            "{{\"cycles_per_tuple_fused\": {:.1}, \"cycles_per_tuple_two_phase\": {:.1}, \
             \"matches\": {}, \"intermediate_bytes_two_phase\": {}}}",
            per_tuple(cf.cycles),
            per_tuple(ct.cycles),
            cf.aggregated,
            ct.intermediate_bytes
        ),
    );
    // `nodes_per_lookup` counts chain nodes per completed lookup (probe +
    // group-by stages): the layout metric composed onto this trajectory.
    j.results(rows.iter().map(|r| {
        format!(
            "{{\"workload\": \"{}\", \"sigma\": {}, \"plan\": \"{}\", \
             \"cycles_per_tuple\": {:.1}, \"tuples_per_sec_mt\": {:.0}, \
             \"aggregated\": {}, \"intermediate_bytes\": {}, \"passes\": {}, \
             \"nodes_per_lookup\": {:.3}}}",
            r.workload,
            r.sigma,
            r.plan,
            per_tuple(r.out.cycles),
            r.tuples_per_sec_mt,
            r.out.aggregated,
            r.out.intermediate_bytes,
            r.out.passes,
            r.out.stats.nodes_per_lookup()
        )
    }));

    let pick = |w: &str, sigma: f64, plan: &str| -> &PipelineOutput {
        let r = rows.iter().find(|r| r.workload == w && r.sigma == sigma && r.plan == plan);
        &r.expect("row exists").out
    };
    let speedup = |two: &PipelineOutput, fused: &PipelineOutput| {
        format!(
            "{:.3}",
            if fused.cycles > 0 { two.cycles as f64 / fused.cycles as f64 } else { 0.0 }
        )
    };
    let sweep = |w: &str, sigma: f64| speedup(pick(w, sigma, "two_phase"), pick(w, sigma, "fused"));
    let two_mb = pick("uniform", 1.0, "two_phase").intermediate_bytes as f64 / (1 << 20) as f64;
    let (uni, zipf) = (pick("uniform", 1.0, "fused"), pick("zipf1", 1.0, "fused"));
    let keys = [
        ("BENCH_PIPELINE_FUSED_SPEEDUP_UNIFORM_SEL50", sweep("uniform", 0.5)),
        ("BENCH_PIPELINE_FUSED_SPEEDUP_UNIFORM_SEL100", sweep("uniform", 1.0)),
        ("BENCH_PIPELINE_FUSED_SPEEDUP_ZIPF1_SEL100", sweep("zipf1", 1.0)),
        ("BENCH_PIPELINE_CHAIN_FUSED_SPEEDUP", speedup(&ct, &cf)),
        ("BENCH_PIPELINE_TWO_PHASE_INTERMEDIATE_MB_SEL100", format!("{two_mb:.1}")),
        ("BENCH_PIPELINE_FUSED_INTERMEDIATE_BYTES", uni.intermediate_bytes.to_string()),
        ("BENCH_PIPELINE_FUSED_PASSES", "1".to_string()),
        ("BENCH_PIPELINE_TWO_PHASE_PASSES", "2".to_string()),
        (
            "BENCH_PIPELINE_NODES_PER_LOOKUP_UNIFORM_SEL100",
            format!("{:.3}", uni.stats.nodes_per_lookup()),
        ),
        (
            "BENCH_PIPELINE_NODES_PER_LOOKUP_ZIPF1_SEL100",
            format!("{:.3}", zipf.stats.nodes_per_lookup()),
        ),
    ];
    j.finish_with_keys(&keys)
}
