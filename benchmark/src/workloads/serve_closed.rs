//! `serve_closed`: a mixed query stream served through one shared AMAC
//! window, closed loop.
//!
//! Eight clients in one thread: each submits a query, the session is
//! pumped until a query completes, and the client whose query completed
//! submits the next one. Closed, because an open loop paced by the wall
//! clock makes latency a function of host jitter. The mix is half probes,
//! a fifth group-bys, a fifth fused probe→filter→group-by pipelines and a
//! tenth upserts; the baseline runs the same requests one at a time
//! through the solo drivers without prefetching. This prices `server`,
//! `engine::mux` and `ops::{groupby, pipeline}` on top of the probe.
//!
//! Upserts add to keys of the catalog's last eighth, which no read
//! touches, so every pass reads the same data and does the same
//! work while the writes still go through the shared window.

use amac_suite::engine::{Technique, TuningParams};
use amac_suite::hashtable::{AggTable, HashTable};
use amac_suite::mem::rng::XorShift64;
use amac_suite::metrics::timer::cycles_now;
use amac_suite::ops::groupby::{groupby, GroupByConfig};
use amac_suite::ops::join::{probe, ProbeConfig};
use amac_suite::ops::mutate::{mutate, MutateConfig};
use amac_suite::ops::pipeline::{
    probe_then_groupby, probe_then_groupby_two_phase, PipelineConfig, PipelineOutput,
};
use amac_suite::server::{
    QueryOutcome, QueryReport, Request, ServeConfig, ServeSession, ShardedServe, SubmitOpts,
};
use amac_suite::shard::{ShardRouter, ShardedTable};
use amac_suite::workload::{FilterSpec, Relation, Tuple};

use super::probe::bytes_per_tuple;
use super::{
    digest, expected_probe, layer_reps, payload_by_key, Ctx, Layers, Pass, Size, Workload,
};
use crate::stats::{fastest, percentile};

const CATALOG_LOG2: u32 = 22;
const QUERIES: usize = 1024;
const QUERY_TUPLES: usize = 2048;
const CLIENTS: usize = 8;
/// Queries per block of a pass: about 10 ms of serving.
const QUERIES_PER_BLOCK: usize = 64;
const GROUPS: usize = 1024;
const SELECTIVITY: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Probe,
    GroupBy,
    Pipeline,
    Upsert,
}

/// Ten consecutive queries: 5 probes, 2 group-bys, 2 pipelines, 1 upsert.
const MIX: [Kind; 10] = [
    Kind::Probe,
    Kind::GroupBy,
    Kind::Probe,
    Kind::Pipeline,
    Kind::Probe,
    Kind::GroupBy,
    Kind::Probe,
    Kind::Pipeline,
    Kind::Probe,
    Kind::Upsert,
];

struct Query {
    kind: Kind,
    input: Relation,
    /// Reference result: probe `[matches, checksum]`, group-by
    /// `[aggregated, 0]`, pipeline `[aggregated, matched]`, upsert
    /// `[applied, 0]`.
    expect: [u64; 2],
    /// Reference digest of the query's aggregate table (see `agg_digest`).
    expect_agg: [u64; 3],
}

/// `[groups, Σ count, Σ sum]` of an aggregate table.
fn agg_digest(table: &AggTable) -> [u64; 3] {
    table
        .groups()
        .iter()
        .fold([0; 3], |d, (_, a)| [d[0] + 1, d[1] + a.count, d[2].wrapping_add(a.sum)])
}

/// The same digest from `(group, payload)` pairs.
fn agg_digest_of(pairs: impl Iterator<Item = (u64, u64)>) -> [u64; 3] {
    let mut groups = std::collections::BTreeSet::new();
    let mut d = [0u64; 3];
    for (group, payload) in pairs {
        groups.insert(group);
        d[1] += 1;
        d[2] = d[2].wrapping_add(payload);
    }
    d[0] = groups.len() as u64;
    d
}

/// What the closed loop needs from a server: `ServeSession` and the
/// sharded fleet of sessions both provide it.
trait Server<'a> {
    fn submit(&mut self, req: Request<'a>) -> bool;
    fn pump(&mut self);
    fn completed(&self) -> usize;
}

impl<'a> Server<'a> for ServeSession<'a> {
    fn submit(&mut self, req: Request<'a>) -> bool {
        ServeSession::submit(self, req).is_ok()
    }
    fn pump(&mut self) {
        ServeSession::pump(self);
    }
    fn completed(&self) -> usize {
        self.completed_queries()
    }
}

impl<'a> Server<'a> for ShardedServe<'a> {
    fn submit(&mut self, req: Request<'a>) -> bool {
        ShardedServe::submit(self, req, SubmitOpts::default()).is_ok()
    }
    fn pump(&mut self) {
        ShardedServe::pump(self);
    }
    fn completed(&self) -> usize {
        (0..self.n_shards()).map(|s| self.session(s).completed_queries()).sum()
    }
}

/// Cycles the closed loop spent, by where.
#[derive(Default, Clone)]
struct LoopCost {
    total: u64,
    submit: u64,
    pump: u64,
    /// Cycles between every `QUERIES_PER_BLOCK`-th completion.
    blocks: Vec<u64>,
}

/// Drive `requests` through `srv` with `CLIENTS` outstanding queries.
fn closed_loop<'a>(
    srv: &mut impl Server<'a>,
    mut requests: impl ExactSizeIterator<Item = Request<'a>>,
    ctx: &mut Ctx,
) -> LoopCost {
    let mut cost = LoopCost::default();
    // A block ends at every QUERIES_PER_BLOCK-th completion and at the last.
    let queries = requests.len();
    let mut block_ends = (1..=queries).filter(|q| q % QUERIES_PER_BLOCK == 0 || *q == queries);
    let mut block_end = block_ends.next();
    let mut block_began = cycles_now();
    let (mut outstanding, mut done) = (0usize, 0usize);
    let whole = ctx.sp.enter("harness.closed_loop");
    loop {
        while outstanding < CLIENTS {
            let Some(req) = requests.next() else { break };
            let (admitted, cycles) = ctx.sp.time("server.submit", || srv.submit(req));
            assert!(admitted, "a closed loop of {CLIENTS} clients never overflows admission");
            cost.submit += cycles;
            outstanding += 1;
        }
        if outstanding == 0 {
            break;
        }
        cost.pump += ctx.sp.time("server.pump", || srv.pump()).1;
        let completed = srv.completed();
        outstanding -= completed - done;
        done = completed;
        while block_end.is_some_and(|end| done >= end) {
            let now = cycles_now();
            cost.blocks.push(now - block_began);
            block_began = now;
            block_end = block_ends.next();
        }
    }
    cost.total = ctx.sp.exit(whole);
    cost
}

/// What a pass of solo runs cost.
#[derive(Default)]
struct SoloCost {
    /// Cycles of each query that ran, in order.
    queries: Vec<u64>,
    /// Cycles and tuples per query kind (indexed by `Kind as usize`).
    cycles: [u64; 4],
    tuples: [u64; 4],
}

pub struct ServeClosed {
    catalog: Relation,
    ht: HashTable,
    queries: Vec<Query>,
    /// Passes that applied the upserts to `ht` so far.
    upsert_passes: u64,
    /// Per write-range key: its initial payload and the sum of one pass's
    /// deltas.
    write_model: Vec<(u64, u64, u64)>,
    setup_layers: Layers,
}

fn probe_cfg(t: Technique) -> ProbeConfig {
    ProbeConfig { params: TuningParams::paper_best(t), materialize: false, ..Default::default() }
}

fn pipeline_cfg(t: Technique) -> PipelineConfig {
    PipelineConfig {
        params: TuningParams::paper_best(t),
        filter: Some(FilterSpec::selectivity(SELECTIVITY)),
        ..Default::default()
    }
}

fn groupby_cfg(t: Technique) -> GroupByConfig {
    GroupByConfig { params: TuningParams::paper_best(t), ..Default::default() }
}

fn mutate_cfg(t: Technique) -> MutateConfig {
    MutateConfig { params: TuningParams::paper_best(t), ..Default::default() }
}

impl ServeClosed {
    /// One private aggregate table per query that aggregates.
    fn agg_tables(&self) -> Vec<Option<AggTable>> {
        self.queries
            .iter()
            .map(|q| {
                matches!(q.kind, Kind::GroupBy | Kind::Pipeline)
                    .then(|| AggTable::for_groups(GROUPS))
            })
            .collect()
    }

    fn requests<'a>(
        &'a self,
        tables: &'a [Option<AggTable>],
    ) -> impl ExactSizeIterator<Item = Request<'a>> + 'a {
        let t = Technique::Amac;
        self.queries.iter().zip(tables).map(move |(q, table)| match q.kind {
            Kind::Probe => Request::Probe { probes: &q.input, cfg: probe_cfg(t) },
            Kind::GroupBy => Request::GroupBy {
                input: &q.input,
                table: table.as_ref().expect("group-by has a table"),
                cfg: groupby_cfg(t),
            },
            Kind::Pipeline => Request::Pipeline {
                fact: &q.input,
                table: table.as_ref().expect("pipeline has a table"),
                cfg: pipeline_cfg(t),
            },
            Kind::Upsert => Request::Upsert { input: &q.input, cfg: mutate_cfg(t) },
        })
    }

    /// Check one completed pass: per-query results (`None` = the pass did
    /// not run that query) and aggregate tables.
    fn check(&self, results: &[Option<[u64; 2]>], tables: &[Option<AggTable>], ctx: &mut Ctx) {
        for ((q, got), table) in self.queries.iter().zip(results).zip(tables) {
            let Some(got) = got else { continue };
            let agg_ok = table.as_ref().map_or(true, |t| agg_digest(t) == q.expect_agg);
            ctx.tally.record(q.input.len() as u64, *got == q.expect && agg_ok);
        }
    }

    /// The queries through one `ServeSession`, closed loop. Returns the
    /// loop's cost and the session's output.
    fn serve(&mut self, ctx: &mut Ctx) -> (LoopCost, amac_suite::server::ServeOutput) {
        let tables = self.agg_tables();
        let cfg = ServeConfig {
            params: TuningParams::paper_best(Technique::Amac),
            max_active: CLIENTS,
            ..Default::default()
        };
        let mut srv = ServeSession::new(&self.ht, cfg);
        let cost = closed_loop(&mut srv, self.requests(&tables), ctx);
        let out = srv.finish();
        self.check(&report_results(&out.reports, self.queries.len()), &tables, ctx);
        self.upsert_passes += 1;
        (cost, out)
    }

    /// The queries one at a time through the solo drivers; with
    /// `two_phase`, only the pipelines, through the unfused reference plan.
    fn solo(&mut self, t: Technique, two_phase: bool, ctx: &mut Ctx) -> SoloCost {
        let tables = self.agg_tables();
        let mut cost = SoloCost::default();
        let mut results = Vec::with_capacity(self.queries.len());
        let pipeline: fn(
            &HashTable,
            &AggTable,
            &Relation,
            Technique,
            &PipelineConfig,
        ) -> PipelineOutput =
            if two_phase { probe_then_groupby_two_phase } else { probe_then_groupby };
        for (q, table) in self.queries.iter().zip(&tables) {
            if two_phase && q.kind != Kind::Pipeline {
                results.push(None);
                continue;
            }
            let (ht, input) = (&self.ht, &q.input);
            let (result, cycles) = match (q.kind, table) {
                (Kind::Probe, _) => ctx.sp.time("ops.join.probe", || {
                    let o = probe(ht, input, t, &probe_cfg(t));
                    [o.matches, o.checksum]
                }),
                (Kind::GroupBy, Some(table)) => ctx.sp.time("ops.groupby.groupby", || {
                    [groupby(table, input, t, &groupby_cfg(t)).tuples, 0]
                }),
                (Kind::Pipeline, Some(table)) => {
                    ctx.sp.time("ops.pipeline.probe_then_groupby", || {
                        let o = pipeline(ht, table, input, t, &pipeline_cfg(t));
                        [o.aggregated, o.matched]
                    })
                }
                (Kind::Upsert, _) => ctx.sp.time("ops.mutate.mutate", || {
                    [mutate(ht, input, t, &mutate_cfg(t)).applied, 0]
                }),
                (Kind::GroupBy | Kind::Pipeline, None) => {
                    unreachable!("aggregating query has a table")
                }
            };
            let slot = q.kind as usize;
            cost.queries.push(cycles);
            cost.cycles[slot] += cycles;
            cost.tuples[slot] += input.len() as u64;
            results.push(Some(result));
        }
        self.check(&results, &tables, ctx);
        if !two_phase {
            self.upsert_passes += 1;
        }
        cost
    }
}

/// Per-query results of a served pass, indexed by submission order (a
/// fresh session numbers its queries from zero).
fn report_results(reports: &[QueryReport], queries: usize) -> Vec<Option<[u64; 2]>> {
    // A query without a completed report fails against any reference.
    let mut results = vec![Some([u64::MAX; 2]); queries];
    for r in reports.iter().filter(|r| r.outcome == QueryOutcome::Completed) {
        results[r.qid.0 as usize] = Some(match r.kind {
            "probe" => [r.matches, r.checksum],
            "pipeline" => [r.matches, r.matched],
            _ => [r.matches, 0],
        });
    }
    results
}

fn generate_queries(n: u64, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = XorShift64::new(seed ^ 0x5E12);
    let read_keys = n - n / 8;
    (0..count)
        .map(|i| {
            let kind = MIX[i % MIX.len()];
            let tuples = (0..QUERY_TUPLES)
                .map(|_| {
                    let payload = 1 + rng.next_below(1 << 20);
                    let key = match kind {
                        Kind::Probe | Kind::Pipeline => 1 + rng.next_below(read_keys),
                        Kind::GroupBy => 1 + rng.next_below(GROUPS as u64),
                        Kind::Upsert => read_keys + 1 + rng.next_below(n - read_keys),
                    };
                    Tuple::new(key, payload)
                })
                .collect();
            Query { kind, input: Relation::from_tuples(tuples), expect: [0; 2], expect_agg: [0; 3] }
        })
        .collect()
}

impl Workload for ServeClosed {
    fn setup(seed: u64, size: Size, ctx: &mut Ctx) -> Self {
        let n = size.tuples(CATALOG_LOG2);
        let ((catalog, queries), gen) = ctx.sp.time("workload.gen", || {
            (
                Relation::fk_dimension(n, GROUPS as u64, seed),
                generate_queries(n as u64, size.count(QUERIES), seed),
            )
        });
        let (ht, built) =
            ctx.sp.time("hashtable.build_serial", || HashTable::build_serial(&catalog));
        let setup_layers = vec![
            ("workload.gen_s", ctx.seconds(gen)),
            ("hashtable.build_serial_cycles_per_tuple", built as f64 / n as f64),
            ("hashtable.bytes_per_tuple", bytes_per_tuple(&ht)),
        ];
        ServeClosed {
            catalog,
            ht,
            queries,
            upsert_passes: 0,
            write_model: Vec::new(),
            setup_layers,
        }
    }

    fn build_oracle(&mut self) {
        let model = payload_by_key(&self.catalog);
        let filter = FilterSpec::selectivity(SELECTIVITY);
        let read_keys = model.len() - 1 - (model.len() - 1) / 8;
        let mut deltas = vec![0u64; model.len()];
        for q in &mut self.queries {
            let input = &q.input.tuples;
            match q.kind {
                Kind::Probe => {
                    let (matches, checksum) = expected_probe(&model, input);
                    q.expect = [matches, checksum];
                }
                Kind::GroupBy => {
                    q.expect = [input.len() as u64, 0];
                    q.expect_agg = agg_digest_of(input.iter().map(|t| (t.key, t.payload)));
                }
                Kind::Pipeline => {
                    // Every fact key is a catalog key; the filter reads the
                    // fact payload; survivors group by the catalog payload.
                    let passing = || input.iter().filter(|t| filter.passes(t.payload));
                    q.expect = [passing().count() as u64, input.len() as u64];
                    q.expect_agg =
                        agg_digest_of(passing().map(|t| (model[t.key as usize], t.payload)));
                }
                Kind::Upsert => {
                    q.expect = [input.len() as u64, 0];
                    for t in input {
                        deltas[t.key as usize] = deltas[t.key as usize].wrapping_add(t.payload);
                    }
                }
            }
        }
        self.write_model =
            (read_keys + 1..model.len()).map(|k| (k as u64, model[k], deltas[k])).collect();
    }

    fn tuples_per_pass(&self) -> u64 {
        (self.queries.len() * QUERY_TUPLES) as u64
    }

    /// Under AMAC the queries go through the serving session, and a
    /// query's latency is the session's own submit-to-completion time;
    /// any other technique runs them one at a time through the solo
    /// drivers.
    fn pass(&mut self, technique: Technique, ctx: &mut Ctx) -> Pass {
        if technique != Technique::Amac {
            let cost = self.solo(technique, false, ctx);
            return Pass::of_requests(&cost.queries, QUERIES_PER_BLOCK, ctx);
        }
        let (cost, out) = self.serve(ctx);
        let mut latencies_us = vec![0.0; self.queries.len()];
        for r in &out.reports {
            latencies_us[r.qid.0 as usize] = r.latency_ns as f64 / 1e3;
        }
        Pass { blocks: cost.blocks, latencies_us }
    }

    /// Every pass added each write-range key's deltas exactly once.
    fn finish(&mut self, ctx: &mut Ctx) {
        let ok = self.write_model.iter().all(|&(key, initial, delta)| {
            let want = initial.wrapping_add(delta.wrapping_mul(self.upsert_passes));
            self.ht.lookup_first(key) == Some(want)
        });
        ctx.tally.record(self.write_model.len() as u64, ok);
    }

    fn input_digest(&self) -> u64 {
        digest(std::iter::once(&self.catalog).chain(self.queries.iter().map(|q| &q.input)))
    }

    fn layers(&mut self, size: Size, ctx: &mut Ctx) -> Layers {
        let mut out = self.setup_layers.clone();
        let reps = layer_reps(size);
        let queries = self.queries.len() as f64;
        let tuples = queries * QUERY_TUPLES as f64;

        let (mut submit, mut pump, mut served) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..reps {
            let (cost, output) = self.serve(ctx);
            submit.push(cost.submit as f64 / queries);
            pump.push(cost.pump as f64 / tuples);
            served.push(cost.total as f64 / tuples);
            last = Some(output);
        }
        let last = last.expect("at least one served pass");
        let latencies: Vec<f64> = last.reports.iter().map(|r| r.latency_ns as f64 / 1e3).collect();
        out.push(("server.submit_cycles_per_query", fastest(submit)));
        out.push(("server.pump_cycles_per_tuple", fastest(pump)));
        out.push(("server.query_latency_p99_us", percentile(&latencies, 99.0)));
        out.push(("server.window_occupancy", last.occupancy));
        out.push(("server.rejected", last.rejected as f64));

        let solos: Vec<SoloCost> =
            (0..reps).map(|_| self.solo(Technique::Amac, false, ctx)).collect();
        let per_tuple = |costs: &[SoloCost], kind: Kind| {
            let slot = kind as usize;
            fastest(costs.iter().map(|c| c.cycles[slot] as f64 / c.tuples[slot] as f64))
        };
        let solo_total: Vec<f64> =
            solos.iter().map(|c| c.cycles.iter().sum::<u64>() as f64 / tuples).collect();
        out.push(("server.tax_vs_solo", fastest(served) / fastest(solo_total)));
        out.push(("ops.groupby.cycles_per_tuple", per_tuple(&solos, Kind::GroupBy)));
        out.push(("ops.pipeline.fused_cycles_per_tuple", per_tuple(&solos, Kind::Pipeline)));
        let two_phase: Vec<SoloCost> =
            (0..reps).map(|_| self.solo(Technique::Amac, true, ctx)).collect();
        out.push((
            "ops.pipeline.two_phase_cycles_per_tuple",
            per_tuple(&two_phase, Kind::Pipeline),
        ));

        // The same closed loop through the sharded front end, one shard.
        let (sharded, _) = ctx
            .sp
            .time("shard.build", || ShardedTable::build(&self.catalog, ShardRouter::new(6, 1)));
        let cfg = ServeConfig {
            params: TuningParams::paper_best(Technique::Amac),
            max_active: CLIENTS,
            ..Default::default()
        };
        let sharded_cost: Vec<f64> = (0..reps)
            .map(|_| {
                let tables = self.agg_tables();
                let mut srv = ShardedServe::new(&sharded, cfg.clone());
                let cost = closed_loop(&mut srv, self.requests(&tables), ctx);
                let output = srv.finish();
                let reports: Vec<QueryReport> = output.reports().cloned().collect();
                self.check(&report_results(&reports, self.queries.len()), &tables, ctx);
                cost.total as f64 / tuples
            })
            .collect();
        out.push(("server.sharded_1shard_cycles_per_tuple", fastest(sharded_cost)));
        out
    }
}
