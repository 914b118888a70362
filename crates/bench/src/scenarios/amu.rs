//! **AMU issue-coalescing trajectory** (DESIGN.md "Execution context"):
//! with a coalescing window of `G` lanes, duplicate cache-line requests
//! inside a commit group ride the first issue. The gated signal is
//! **issued loads per lookup**: Zipf(1) probe keys put hot lines in
//! flight together and coalesce, uniform keys rarely collide. That
//! results never change with coalescing, and that issued plus coalesced
//! loads equal the uncoalesced issue count, are invariants 1 and 3 of
//! `tests/ops_sim.rs`.

use crate::{scan_all_cfg, Args, JsonOut, Outcome};
use amac::engine::Technique;
use amac_hashtable::HashTable;
use amac_metrics::report::Table;
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::parallel::probe_mt_rt;
use amac_runtime::{MorselConfig, Scheduling};
use amac_tier::TierSpec;
use amac_workload::Relation;

const SEED: u64 = 0xA3B7;

/// Coalescing window. Divides the morsel size (1024), so commit groups
/// never straddle a morsel boundary and the morsel run's dedup split is
/// independent of the thread count.
const G: usize = 8;

fn cfg(coalesce: Option<usize>) -> ProbeConfig {
    ProbeConfig { tier: Some(TierSpec::headers_near(4)), coalesce, ..scan_all_cfg(10) }
}

struct Row {
    dist: &'static str,
    executor: &'static str,
    issued_per_lookup: f64,
    coalesce_rate: f64,
}

pub(super) fn run(args: &Args) -> Outcome {
    let n = args.s_size();
    // A domain wide enough that uniform probes rarely share a bucket
    // line within a group of G, against dup-keyed build chains so every
    // lookup walks a few nodes.
    let domain = (n as u64 / 16).max(512);
    let ht = HashTable::build_serial(&Relation::zipf(n / 8, domain, 0.4, SEED));
    let probes = [
        ("zipf1", Relation::zipf(n, domain, 1.0, SEED ^ 0x21)),
        ("uniform", Relation::zipf(n, domain, 0.0, SEED ^ 0x22)),
    ];
    println!("# AMU issue coalescing (G = {G}, {n} probes)\n");

    // --- Distribution x executor ----------------------------------------
    let mut rows: Vec<Row> = Vec::new();
    for (dist, probes) in &probes {
        let lookups = probes.len() as f64;
        for technique in Technique::ALL {
            let on = probe(&ht, probes, technique, &cfg(Some(G))).stats;
            rows.push(Row {
                dist,
                executor: technique.label(),
                issued_per_lookup: on.issued_loads as f64 / lookups,
                coalesce_rate: on.coalesce_rate(),
            });
        }
    }
    let row_of = |executor: &str, dist: &str| -> &Row {
        rows.iter().find(|r| r.executor == executor && r.dist == dist).expect("row exists")
    };
    let mut table = Table::new("Issued loads per lookup with coalescing on (G = 8)")
        .header(["executor", "zipf1", "uniform", "rate z1", "rate uni"]);
    for name in ["Baseline", "GP", "SPP", "AMAC"] {
        let (z, u) = (row_of(name, "zipf1"), row_of(name, "uniform"));
        table.row(
            [name.to_string()].into_iter().chain(
                [z.issued_per_lookup, u.issued_per_lookup, z.coalesce_rate, u.coalesce_rate]
                    .map(|x| format!("{x:.3}")),
            ),
        );
    }
    table.print();
    println!();

    // --- The shape: hot keys collide, uniform keys do not --------------
    let (z, u) = (row_of("AMAC", "zipf1"), row_of("AMAC", "uniform"));
    let shape = format!(
        "AMAC issued/lookup zipf1 {:.3} < uniform {:.3}; coalesce rate {:.3} > {:.3}",
        z.issued_per_lookup, u.issued_per_lookup, z.coalesce_rate, u.coalesce_rate
    );
    let holds = z.issued_per_lookup < u.issued_per_lookup && z.coalesce_rate > u.coalesce_rate;
    assert!(holds, "hot keys must collide and uniform keys must not: {shape}");
    println!("shape: {shape}\n");

    // --- Window sweep: dedup grows with G -------------------------------
    let zprobes = &probes[0].1;
    let mut wtable =
        Table::new("AMAC coalescing by window G (zipf1)").header(["G", "issued/lookup", "rate"]);
    let mut wrows: Vec<String> = Vec::new();
    for g in [1usize, 2, 4, 8, 16] {
        let s = probe(&ht, zprobes, Technique::Amac, &cfg(Some(g))).stats;
        let (issued, rate) = (s.issued_per_lookup(), s.coalesce_rate());
        wtable.row([format!("{g}"), format!("{issued:.3}"), format!("{rate:.3}")]);
        wrows.push(format!(
            "{{\"kind\": \"window\", \"g\": {g}, \"issued_per_lookup\": {issued:.4}, \
             \"coalesce_rate\": {rate:.4}}}"
        ));
    }
    wtable.note("monotone: every widening of the commit group removes (or keeps) traffic");
    wtable.print();
    println!();

    // --- Morsel runtime: the dedup split at one thread ------------------
    let rt = MorselConfig { threads: 1, morsel_tuples: 1024, scheduling: Scheduling::StaticChunk };
    let mt = probe_mt_rt(&ht, zprobes, Technique::Amac, &cfg(Some(G)), &rt).stats;
    println!("morsel runtime: issued = {}, coalesced = {}\n", mt.issued_loads, mt.coalesced_loads);

    let mut j = JsonOut::open("amu_issue_coalescing");
    j.meta("tuples", n);
    j.meta("group_size", G);
    let sweep_rows = rows.iter().map(|r| {
        format!(
            "{{\"kind\": \"dist\", \"executor\": \"{}\", \"dist\": \"{}\", \
             \"issued_per_lookup\": {:.4}, \"coalesce_rate\": {:.4}}}",
            r.executor, r.dist, r.issued_per_lookup, r.coalesce_rate
        )
    });
    j.results(sweep_rows.chain(wrows));
    let keys = [
        ("BENCH_AMU_ISSUED_PER_LOOKUP_ZIPF1", format!("{:.4}", z.issued_per_lookup)),
        ("BENCH_AMU_ISSUED_PER_LOOKUP_UNIFORM", format!("{:.4}", u.issued_per_lookup)),
        ("BENCH_AMU_COALESCE_RATE_ZIPF1", format!("{:.4}", z.coalesce_rate)),
        ("BENCH_AMU_COALESCE_RATE_UNIFORM", format!("{:.4}", u.coalesce_rate)),
        ("BENCH_AMU_MT_COALESCED_LOADS", format!("{}", mt.coalesced_loads)),
    ];
    j.finish_with_keys(&keys)
}
