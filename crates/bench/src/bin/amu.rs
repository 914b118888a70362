//! **AMU issue-coalescing trajectory** (extension): how much duplicate
//! cache-line traffic the execution context's load protocol
//! (`amac_tier::ctx`) removes, as deterministic counters.
//!
//! Every executor routes its loads through an `ExecCtx`; with a
//! coalescing window of `G` lanes, duplicate line requests inside a
//! commit group ride the first issue. The gateable signal is **issued loads per lookup**:
//!
//! * **Zipf(1.0) probe keys** put the same hot bucket lines in flight
//!   together — coalescing collapses them, and issued-loads/lookup drops
//!   well below the scalar (coalescing-off) count;
//! * **uniform probe keys** rarely collide inside a group of 8 — the
//!   coalesce rate stays near zero and issued/lookup is ~flat against
//!   the scalar run.
//!
//! Results are asserted bit-identical with coalescing on vs off under
//! all four executors and the coroutine ring; `issued_loads` and
//! `coalesced_loads` are asserted identical across the morsel runtime at
//! 1/2/4 threads under all three scheduling disciplines (group
//! composition is a pure function of morsel contents — see the
//! conformance suite). Headline ratios are gated by `bin/regress`
//! against `crates/bench/baselines.json`.
//!
//! Run: `cargo run --release --bin amu -- [--scale N] [--quick] [--json F]`

use amac::engine::Technique;
use amac_bench::{assert_sigs_agree, Args, JsonOut};
use amac_coro::{coro_probe, CoroConfig};
use amac_hashtable::HashTable;
use amac_metrics::report::Table;
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::parallel::probe_mt_rt;
use amac_runtime::{MorselConfig, Scheduling};
use amac_tier::TierSpec;
use amac_workload::Relation;

const SEED: u64 = 0xA3B7;

/// Coalescing window. Divides the morsel size (1024), so commit groups
/// never straddle a morsel boundary — the invariant behind the
/// thread-count determinism asserted below.
const G: usize = 8;

struct AmuLab {
    ht: HashTable,
    /// Probe relations by key distribution: ("zipf1", θ=1.0) and
    /// ("uniform", θ=0).
    probes: Vec<(&'static str, Relation)>,
}

fn lab(n: usize) -> AmuLab {
    // A domain wide enough that uniform probes rarely share a bucket
    // line within a group of G, against dup-keyed build chains so every
    // lookup walks a few nodes.
    let domain = (n as u64 / 16).max(512);
    let build = Relation::zipf(n / 8, domain, 0.4, SEED);
    let ht = HashTable::build_serial(&build);
    let probes = vec![
        ("zipf1", Relation::zipf(n, domain, 1.0, SEED ^ 0x21)),
        ("uniform", Relation::zipf(n, domain, 0.0, SEED ^ 0x22)),
    ];
    AmuLab { ht, probes }
}

fn cfg(coalesce: Option<usize>) -> ProbeConfig {
    ProbeConfig {
        scan_all: true,
        materialize: false,
        tier: Some(TierSpec::headers_near(4)),
        coalesce,
        ..Default::default()
    }
}

struct Row {
    dist: &'static str,
    executor: &'static str,
    issued_per_lookup: f64,
    coalesce_rate: f64,
}

fn main() {
    let args = Args::parse();
    let n = args.s_size();
    let lab = lab(n);
    println!("# AMU issue coalescing (G = {G}, {n} probes)\n");

    // --- Distribution x executor: equality + the dedup split -----------
    let mut rows: Vec<Row> = Vec::new();
    for (dist, probes) in &lab.probes {
        let lookups = probes.len() as u64;
        for technique in Technique::ALL {
            let off = probe(&lab.ht, probes, technique, &cfg(None));
            let on = probe(&lab.ht, probes, technique, &cfg(Some(G)));
            assert_sigs_agree(
                &format!("{technique} {dist}"),
                &[
                    ("coalesce-off", (off.matches, off.checksum)),
                    ("coalesce-on", (on.matches, on.checksum)),
                ],
            );
            assert_eq!(
                on.stats.issued_loads + on.stats.coalesced_loads,
                off.stats.issued_loads,
                "{technique} {dist}: ledger must conserve requests"
            );
            assert_eq!(
                on.stats.sim_cycles, off.stats.sim_cycles,
                "{technique} {dist}: dedup removes loads, not work"
            );
            let name: &'static str = match technique {
                Technique::Baseline => "Baseline",
                Technique::Gp => "GP",
                Technique::Spp => "SPP",
                Technique::Amac => "AMAC",
            };
            rows.push(Row {
                dist,
                executor: name,
                issued_per_lookup: on.stats.issued_loads as f64 / lookups as f64,
                coalesce_rate: on.stats.coalesce_rate(),
            });
        }
        // Coroutine ring at the AMAC window: same dedup protocol.
        let ring = |coalesce| {
            coro_probe(
                &lab.ht,
                probes,
                &CoroConfig {
                    width: 10,
                    scan_all: true,
                    materialize: false,
                    tier: Some(TierSpec::headers_near(4)),
                    coalesce,
                    trace: false,
                },
            )
        };
        let (off, on) = (ring(None), ring(Some(G)));
        assert_sigs_agree(
            &format!("coro {dist}"),
            &[
                ("coalesce-off", (off.matches, off.checksum)),
                ("coalesce-on", (on.matches, on.checksum)),
            ],
        );
        assert_eq!(on.issued_loads + on.coalesced_loads, off.issued_loads, "coro {dist}");
        let requested = (on.issued_loads + on.coalesced_loads) as f64;
        rows.push(Row {
            dist,
            executor: "coro",
            issued_per_lookup: on.issued_loads as f64 / lookups as f64,
            coalesce_rate: if requested == 0.0 {
                0.0
            } else {
                on.coalesced_loads as f64 / requested
            },
        });
    }

    let row_of = |executor: &str, dist: &str| -> &Row {
        rows.iter().find(|r| r.executor == executor && r.dist == dist).expect("row exists")
    };

    let mut table = Table::new("Issued loads per lookup with coalescing on (G = 8)")
        .header(["executor", "zipf1", "uniform", "rate z1", "rate uni"]);
    for name in ["Baseline", "GP", "SPP", "AMAC", "coro"] {
        table.row([
            name.to_string(),
            format!("{:.3}", row_of(name, "zipf1").issued_per_lookup),
            format!("{:.3}", row_of(name, "uniform").issued_per_lookup),
            format!("{:.3}", row_of(name, "zipf1").coalesce_rate),
            format!("{:.3}", row_of(name, "uniform").coalesce_rate),
        ]);
    }
    table.note("results asserted bit-identical with coalescing on vs off for every row");
    table.print();
    println!();

    // --- The gated shape: hot keys collide, uniform keys do not --------
    let (z, u) = (row_of("AMAC", "zipf1"), row_of("AMAC", "uniform"));
    assert!(
        z.issued_per_lookup < u.issued_per_lookup,
        "zipf1 issued/lookup ({:.3}) must sit strictly below uniform ({:.3})",
        z.issued_per_lookup,
        u.issued_per_lookup
    );
    assert!(
        z.coalesce_rate > u.coalesce_rate,
        "hot keys must coalesce more: zipf1 {:.3} vs uniform {:.3}",
        z.coalesce_rate,
        u.coalesce_rate
    );
    println!(
        "shape: AMAC issued/lookup zipf1 {:.3} < uniform {:.3}; coalesce rate {:.3} vs {:.3}\n",
        z.issued_per_lookup, u.issued_per_lookup, z.coalesce_rate, u.coalesce_rate
    );
    let (amac_z_issued, amac_u_issued) = (z.issued_per_lookup, u.issued_per_lookup);
    let (amac_z_rate, amac_u_rate) = (z.coalesce_rate, u.coalesce_rate);

    // --- Window sweep: dedup grows with G, results never move ----------
    let zprobes = &lab.probes[0].1;
    let scalar = probe(&lab.ht, zprobes, Technique::Amac, &cfg(None));
    let mut wtable =
        Table::new("AMAC coalescing by window G (zipf1)").header(["G", "issued/lookup", "rate"]);
    let mut wrows: Vec<String> = Vec::new();
    let mut last_coalesced = 0u64;
    for g in [1usize, 2, 4, 8, 16] {
        let out = probe(&lab.ht, zprobes, Technique::Amac, &cfg(Some(g)));
        assert_eq!((out.matches, out.checksum), (scalar.matches, scalar.checksum), "G={g}");
        assert!(
            out.stats.coalesced_loads >= last_coalesced,
            "G={g}: a wider window cannot dedup less"
        );
        last_coalesced = out.stats.coalesced_loads;
        wtable.row([
            format!("{g}"),
            format!("{:.3}", out.stats.issued_per_lookup()),
            format!("{:.3}", out.stats.coalesce_rate()),
        ]);
        wrows.push(format!(
            "{{\"kind\": \"window\", \"g\": {g}, \"issued_per_lookup\": {:.4}, \
             \"coalesce_rate\": {:.4}}}",
            out.stats.issued_per_lookup(),
            out.stats.coalesce_rate()
        ));
    }
    wtable.note("monotone: every widening of the commit group removes (or keeps) traffic");
    wtable.print();
    println!();

    // --- Morsel runtime: the dedup split is schedule-invariant ---------
    let mt = |threads, scheduling, coalesce| {
        let rt = MorselConfig { threads, morsel_tuples: 1024, scheduling, auto_tune: false };
        probe_mt_rt(&lab.ht, zprobes, Technique::Amac, &cfg(coalesce), &rt)
    };
    let reference = mt(1, Scheduling::StaticChunk, Some(G));
    let scalar_mt = mt(1, Scheduling::StaticChunk, None);
    assert_eq!(
        reference.stats.issued_loads + reference.stats.coalesced_loads,
        scalar_mt.stats.issued_loads,
        "morsel ledger must conserve requests"
    );
    for threads in [1usize, 2, 4] {
        for scheduling in [Scheduling::StaticChunk, Scheduling::SharedCursor, Scheduling::WorkSteal]
        {
            let out = mt(threads, scheduling, Some(G));
            assert_eq!(
                (out.matches, out.checksum),
                (reference.matches, reference.checksum),
                "{threads}t {scheduling:?}: results diverged"
            );
            assert_eq!(
                (out.stats.issued_loads, out.stats.coalesced_loads),
                (reference.stats.issued_loads, reference.stats.coalesced_loads),
                "{threads}t {scheduling:?}: dedup split must not depend on the schedule"
            );
        }
    }
    println!(
        "morsel runtime 1/2/4T x 3 schedulings: issued = {}, coalesced = {} everywhere\n",
        reference.stats.issued_loads, reference.stats.coalesced_loads
    );

    // --- JSON trajectory ----------------------------------------------
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
    let keys = vec![
        ("BENCH_AMU_ISSUED_PER_LOOKUP_ZIPF1".to_string(), format!("{amac_z_issued:.4}")),
        ("BENCH_AMU_ISSUED_PER_LOOKUP_UNIFORM".to_string(), format!("{amac_u_issued:.4}")),
        ("BENCH_AMU_COALESCE_RATE_ZIPF1".to_string(), format!("{amac_z_rate:.4}")),
        ("BENCH_AMU_COALESCE_RATE_UNIFORM".to_string(), format!("{amac_u_rate:.4}")),
        (
            "BENCH_AMU_MT_COALESCED_LOADS".to_string(),
            format!("{}", reference.stats.coalesced_loads),
        ),
    ];
    j.finish_with_keys(&keys, args.json.as_deref());
}
