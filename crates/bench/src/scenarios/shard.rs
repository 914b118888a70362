//! **Shard-per-core scale-out trajectory** (DESIGN.md "Sharding &
//! interconnect"): radix-partitioned tables behind a rendezvous-hash
//! router over a simulated interconnect, where every cross-shard load is
//! a message pair priced by [`amac_tier::Tier::Remote`]. Four legs: the
//! routed scaling curve over 1/2/4/8 shards (simulated makespan, zero
//! traffic); interleaved placement's message counters, with AMU
//! coalescing deduping hot remote lines; sharded serving (per-shard
//! ledgers, fairness); and an elastic split + merge under upserts,
//! probed against an unsharded reference. That every sharded operator is
//! bit-identical to its unsharded run is the contract of
//! `crates/shard/tests/equivalence.rs`.

use crate::{Args, JsonOut, Outcome};
use amac::engine::Technique;
use amac_hashtable::HashTable;
use amac_metrics::report::Table;
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::mutate::{mutate, MutateConfig};
use amac_server::{Request, ServeConfig, ShardedServe, SubmitOpts};
use amac_shard::{probe_sharded, ElasticShards, Placement, ShardConfig, ShardRouter, ShardedTable};
use amac_workload::{Relation, Tuple};

const SEED: u64 = 0x5A4D;
/// Radix partition bits (64 partitions rendezvous-dealt over shards).
const BITS: u32 = 6;
/// Shard count for the message / serving / repartition legs.
const SHARDS: usize = 4;
/// AMU coalescing window for the dedup leg.
const G: usize = 8;

/// Per-tenant probe stream drawn from the tenant's home shard's build
/// keys (the tenant-sharded data model: a tenant's rows live on its home
/// shard).
fn tenant_probes(build: &Relation, router: &ShardRouter, tenant: u32, n: usize) -> Relation {
    let shard = router.shard_of_tenant(tenant);
    let local: Vec<Tuple> =
        build.tuples.iter().copied().filter(|t| router.shard_of_key(t.key) == shard).collect();
    assert!(!local.is_empty(), "shard {shard} owns no build keys");
    let seed = 2 * u64::from(tenant) + 3;
    Relation::from_tuples((0..n).map(|i| local[(i as u64 * seed) as usize % local.len()]).collect())
}

pub(super) fn run(args: &Args) -> Outcome {
    let n = args.s_size();
    let dim_n = (n / 8).max(1 << 9);
    let dim = Relation::fk_dimension(dim_n, 64, SEED);
    let fact = Relation::fk_uniform(&dim, n, SEED ^ 0xFAC7);
    let st = ShardedTable::build(&dim, ShardRouter::new(BITS, SHARDS));
    println!("# Shard-per-core scale-out ({n} fact tuples, {dim_n} dim tuples, {SHARDS} shards)\n");

    // --- Leg 1: routed scaling curve ----------------------------------
    let mut stable = Table::new("Routed scaling over shard count (AMAC probe)").header([
        "shards",
        "makespan",
        "total busy",
        "speedup",
        "efficiency",
    ]);
    let routed = |table: &ShardedTable| {
        probe_sharded(table, &fact, Technique::Amac, &ShardConfig::default(), Placement::Routed)
    };
    let curve = [1usize, 2, 4, 8]
        .map(|count| (count, routed(&ShardedTable::build(&dim, ShardRouter::new(BITS, count)))));
    let speedup =
        |i: usize| curve[0].1.ledger.makespan() as f64 / curve[i].1.ledger.makespan().max(1) as f64;
    let mut scale_rows: Vec<String> = Vec::new();
    for (i, (count, out)) in curve.iter().enumerate() {
        let (makespan, total_busy, speedup) =
            (out.ledger.makespan(), out.ledger.total_busy(), speedup(i));
        stable.row([
            format!("{count}"),
            format!("{makespan}"),
            format!("{total_busy}"),
            format!("{speedup:.2}x"),
            format!("{:.2}", speedup / *count as f64),
        ]);
        scale_rows.push(format!(
            "{{\"kind\": \"scaling\", \"shards\": {count}, \"makespan\": {makespan}, \
             \"total_busy\": {total_busy}, \"speedup\": {speedup:.4}}}"
        ));
    }
    stable.note("routed placement: zero interconnect traffic by construction");
    stable.print();
    println!();

    // --- Leg 2: interconnect message counters -------------------------
    // Hot probe keys (Zipf 1.0 over a narrow slice of the dimension
    // domain) so in-flight lookups share remote lines — what coalescing
    // is for.
    let hot = Relation::zipf(n, 256.min(dim_n as u64), 1.0, SEED ^ 0x91);
    let interleaved = |coalesce| {
        let cfg = ShardConfig { coalesce, ..Default::default() };
        probe_sharded(&st, &hot, Technique::Amac, &cfg, Placement::Interleaved).ledger.stats
    };
    let (scalar, coalesced) = (interleaved(None), interleaved(Some(G)));
    let mut mtable = Table::new("Interleaved placement message counters (AMAC, hot keys)")
        .header(["issue", "remote loads", "remote bytes"]);
    let messages = [("scalar", &scalar), ("coalesced", &coalesced)];
    for (label, s) in messages {
        mtable.row([label.to_string(), s.remote_loads.to_string(), s.remote_bytes.to_string()]);
    }
    mtable.note(format!(
        "coalesced: G={G}; remote_bytes = remote_loads x 64; dedup removes messages, results never move"
    ));
    mtable.print();
    println!();
    let message_rows = messages.map(|(label, s)| {
        format!(
            "{{\"kind\": \"messages\", \"issue\": \"{label}\", \"remote_loads\": {}, \
             \"remote_bytes\": {}}}",
            s.remote_loads, s.remote_bytes
        )
    });

    // --- Leg 3: sharded serving ---------------------------------------
    let per_tenant = (n / 16).max(256);
    let streams: Vec<(u32, Relation)> =
        (0..8).map(|t| (t, tenant_probes(&dim, st.router(), t, per_tenant))).collect();
    let mut srv = ShardedServe::new(&st, ServeConfig::default());
    for (t, probes) in &streams {
        let opts = SubmitOpts { tenant: *t, ..Default::default() };
        srv.submit(Request::Probe { probes, cfg: ProbeConfig::default() }, opts)
            .expect("submission fits the admission window");
    }
    let out = srv.finish();
    let ledger_violations = out.ledger_violations();
    let fairness = out.fairness_nodes_ratio();
    println!(
        "serving: {} tenants over {SHARDS} shards, ledger violations {ledger_violations}, \
         fairness (max/mean nodes) {fairness:.3}\n",
        streams.len()
    );

    // --- Leg 4: elastic repartition -----------------------------------
    let mut es = ElasticShards::new(ShardedTable::build(&dim, ShardRouter::new(BITS, SHARDS)));
    let reference = HashTable::build_serial(&dim);
    reference.freeze();
    let upsert = |es: &mut ElasticShards, seed: u64| {
        let w = Relation::zipf(n / 8, dim_n as u64 * 2, 0.5, SEED ^ seed);
        es.upsert(&w, Technique::Amac, &ShardConfig::default());
        mutate(&reference, &w, Technique::Amac, &MutateConfig::default());
    };
    upsert(&mut es, 0xE0);
    upsert(&mut es, 0xE1);
    let split = es.split(1001);
    upsert(&mut es, 0xE7);
    let victim = es.router().shard_ids()[1];
    let merge = es.merge(victim);
    // Probes on the repartitioned fleet still match the unsharded table.
    let want = probe(&reference, &fact, Technique::Amac, &ProbeConfig::default());
    let got = routed(es.table());
    assert_eq!(
        (got.matches, got.checksum, &got.out),
        (want.matches, want.checksum, &want.out),
        "post-repartition probe diverged from the unsharded table"
    );
    let moved_tuples = split.moved_tuples + merge.moved_tuples;
    println!(
        "repartition: split moved {} tuples / {} partitions, merge moved {} tuples / {} \
         partitions, {} WAL records replayed through recovery\n",
        split.moved_tuples,
        split.moved_partitions,
        merge.moved_tuples,
        merge.moved_partitions,
        split.replayed_records + merge.replayed_records
    );
    let repart_rows = [("split", &split), ("merge", &merge)].map(|(op, r)| {
        format!(
            "{{\"kind\": \"repartition\", \"op\": \"{op}\", \"moved_partitions\": {}, \
             \"moved_tuples\": {}, \"replayed_records\": {}}}",
            r.moved_partitions, r.moved_tuples, r.replayed_records
        )
    });

    let mut j = JsonOut::open("shard_scale_out");
    j.meta("tuples", n);
    j.meta("dim_tuples", dim_n);
    j.meta("shards", SHARDS);
    j.meta("partition_bits", BITS);
    // The equivalence matrix runs under `cargo test`, not here.
    j.meta("equivalence_configs", 0);
    j.results(scale_rows.into_iter().chain(message_rows).chain(repart_rows));
    let keys = [
        ("BENCH_SHARD_SPEEDUP_8", format!("{:.4}", speedup(3))),
        ("BENCH_SHARD_REMOTE_LOADS", format!("{}", coalesced.remote_loads)),
        ("BENCH_SHARD_REMOTE_BYTES", format!("{}", coalesced.remote_bytes)),
        // The 4-shard routed run (index 2): local by construction.
        ("BENCH_SHARD_REMOTE_LOADS_ROUTED", format!("{}", curve[2].1.ledger.stats.remote_loads)),
        ("BENCH_SHARD_LEDGER_VIOLATIONS", format!("{ledger_violations}")),
        ("BENCH_SHARD_FAIRNESS_RATIO", format!("{fairness:.4}")),
        ("BENCH_SHARD_REPART_MOVED_TUPLES", format!("{moved_tuples}")),
    ];
    j.finish_with_keys(&keys)
}
