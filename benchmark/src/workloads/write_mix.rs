//! `write_mix`: reads and latch-free writes against one frozen hash
//! table, write-ahead log on.
//!
//! A pass sends the same seeded sequence of 4096-tuple requests:
//! half probes, three tenths upserts, a tenth inserts, a tenth deletes.
//! The table is restored from a snapshot before each pass, outside the
//! timed region, so every pass does identical work. Writes go
//! through the same `hashtable` layer the probes read, so a read-side gain
//! that is paid for on the CAS / fresh-node / WAL path shows here.
//!
//! Key ranges keep the mutation epoch deterministic (see `ops::mutate`):
//! upserts touch keys `1..=n/2`, deletes keys `n/2+1..=n`, inserts bring
//! new unique keys above `n`; probes read all of `1..=n`.

use std::collections::BTreeMap;

use amac_suite::engine::{Technique, TuningParams};
use amac_suite::hashtable::{HashTable, TableSnapshot};
use amac_suite::mem::rng::XorShift64;
use amac_suite::ops::join::{probe, ProbeConfig};
use amac_suite::ops::mutate::{mutate, replay, MutateConfig, MutateKind};
use amac_suite::tier::Wal;
use amac_suite::workload::{Relation, Tuple};

use super::probe::bytes_per_tuple;
use super::{digest, fastest_of, layer_reps, Ctx, Layers, Pass, Size, Workload, BATCH};
use crate::stats::fastest;

const TABLE_LOG2: u32 = 22;
const REQUESTS: usize = 512;
/// Requests per block of a pass: four rounds of `MIX`, so every block has
/// the same composition; 5 to 10 ms under AMAC.
const REQUESTS_PER_BLOCK: usize = 4 * MIX.len();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Probe,
    Upsert,
    Insert,
    Delete,
}

/// Ten consecutive requests: 5 probes, 3 upserts, 1 insert, 1 delete.
const MIX: [Kind; 10] = [
    Kind::Probe,
    Kind::Upsert,
    Kind::Probe,
    Kind::Insert,
    Kind::Probe,
    Kind::Upsert,
    Kind::Probe,
    Kind::Delete,
    Kind::Probe,
    Kind::Upsert,
];

/// Per `Kind`, in declaration order (`kind as usize` indexes it): the span
/// around its requests and its per-layer metric.
const KINDS: [(&str, &str); 4] = [
    ("ops.join.probe", "ops.join.probe_after_mutate_cycles_per_tuple"),
    ("ops.mutate.upsert", "ops.mutate.upsert_cycles_per_tuple"),
    ("ops.mutate.insert", "ops.mutate.insert_cycles_per_tuple"),
    ("ops.mutate.delete", "ops.mutate.delete_cycles_per_tuple"),
];

struct Request {
    kind: Kind,
    tuples: Relation,
    /// Reference effect: probes `[matches, checksum, 0]`, mutations
    /// `[created, merged, deleted]`.
    expect: [u64; 3],
}

/// What one pass over the requests cost and logged.
#[derive(Default)]
struct MixCost {
    /// Cycles of each request, in order.
    requests: Vec<u64>,
    /// Cycles per request kind, indexed as `KINDS`.
    cycles: [u64; 4],
    tuples: [u64; 4],
    log_bytes: u64,
    latch_retries: u64,
}

pub struct WriteMix {
    r: Relation,
    ht: HashTable,
    snapshot: TableSnapshot,
    requests: Vec<Request>,
    /// Reference contents after one pass over the requests.
    final_contents: Vec<(u64, u64)>,
    /// The log of the latest pass (what the replay layer metric replays).
    wal: Wal,
    setup_layers: Layers,
}

impl WriteMix {
    /// Every request once under `technique`, each checked against its
    /// reference effect. The table must be freshly restored.
    fn run_requests(&mut self, technique: Technique, ctx: &mut Ctx) -> MixCost {
        let params = TuningParams::paper_best(technique);
        let probe_cfg = ProbeConfig { params, materialize: false, ..Default::default() };
        let mut pass = MixCost::default();
        let mut wal = Wal::new();
        for req in &self.requests {
            let slot = req.kind as usize;
            let (span, _) = KINDS[slot];
            let (ht, rel, wal) = (&self.ht, &req.tuples, &mut wal);
            let ((effect, stats), cycles) = ctx.sp.time(span, || match req.kind {
                Kind::Probe => {
                    let o = probe(ht, rel, technique, &probe_cfg);
                    ([o.matches, o.checksum, 0], o.stats)
                }
                kind => {
                    let cfg = MutateConfig {
                        params,
                        kind: match kind {
                            Kind::Upsert => MutateKind::Upsert,
                            Kind::Insert => MutateKind::Insert,
                            _ => MutateKind::Delete,
                        },
                        ..Default::default()
                    };
                    let o = mutate(ht, rel, technique, &cfg);
                    // Durable before acknowledged: group-commit the
                    // request's records.
                    wal.extend(o.wal);
                    wal.seal();
                    ([o.created, o.merged, o.deleted], o.stats)
                }
            });
            ctx.tally.record(BATCH as u64, effect == req.expect);
            pass.cycles[slot] += cycles;
            pass.tuples[slot] += BATCH as u64;
            pass.log_bytes += stats.log_bytes;
            pass.latch_retries += stats.latch_retries;
            pass.requests.push(cycles);
        }
        self.wal = wal;
        pass
    }

    fn restore(&mut self, ctx: &mut Ctx) -> u64 {
        // Drop the mutated table first: two tables would double the peak.
        self.ht = HashTable::with_buckets(1);
        let (ht, cycles) = ctx.sp.time("hashtable.restore", || HashTable::restore(&self.snapshot));
        self.ht = ht;
        cycles
    }
}

/// The seeded request sequence over a table of keys `1..=n`.
fn generate_requests(n: u64, count: usize, seed: u64) -> Vec<Request> {
    let mut rng = XorShift64::new(seed ^ 0xB47C);
    let mut next_insert_key = n + 1;
    (0..count)
        .map(|i| {
            let kind = MIX[i % MIX.len()];
            let tuples = (0..BATCH)
                .map(|_| {
                    let payload = 1 + rng.next_below(1 << 20);
                    let key = match kind {
                        Kind::Probe => 1 + rng.next_below(n),
                        Kind::Upsert => 1 + rng.next_below(n / 2),
                        Kind::Delete => n / 2 + 1 + rng.next_below(n - n / 2),
                        Kind::Insert => {
                            next_insert_key += 1;
                            next_insert_key - 1
                        }
                    };
                    Tuple::new(key, payload)
                })
                .collect();
            Request { kind, tuples: Relation::from_tuples(tuples), expect: [0; 3] }
        })
        .collect()
}

impl Workload for WriteMix {
    fn setup(seed: u64, size: Size, ctx: &mut Ctx) -> Self {
        let n = size.tuples(TABLE_LOG2);
        let ((r, requests), gen) = ctx.sp.time("workload.gen", || {
            (
                Relation::dense_unique(n, seed),
                generate_requests(n as u64, size.count(REQUESTS), seed),
            )
        });
        let (ht, built) = ctx.sp.time("hashtable.build_serial", || HashTable::build_serial(&r));
        ht.freeze();
        let (snapshot, snap) = ctx.sp.time("hashtable.snapshot", || ht.snapshot());
        let setup_layers = vec![
            ("workload.gen_s", ctx.seconds(gen)),
            ("hashtable.build_serial_cycles_per_tuple", built as f64 / n as f64),
            ("hashtable.bytes_per_tuple", bytes_per_tuple(&ht)),
            ("hashtable.snapshot_s", ctx.seconds(snap)),
        ];
        WriteMix {
            r,
            ht,
            snapshot,
            requests,
            final_contents: Vec::new(),
            wal: Wal::new(),
            setup_layers,
        }
    }

    /// Replay the requests on a `BTreeMap`: the reference semantics of
    /// probe, upsert (add, create if absent), insert and delete.
    fn build_oracle(&mut self) {
        let mut sorted: Vec<(u64, u64)> =
            self.r.tuples.iter().map(|t| (t.key, t.payload)).collect();
        sorted.sort_unstable();
        let mut model: BTreeMap<u64, u64> = sorted.into_iter().collect();
        for req in &mut self.requests {
            let mut effect = [0u64; 3];
            for t in &req.tuples.tuples {
                match req.kind {
                    Kind::Probe => {
                        if let Some(payload) = model.get(&t.key) {
                            effect[0] += 1;
                            effect[1] = effect[1].wrapping_add(*payload);
                        }
                    }
                    Kind::Upsert => match model.get_mut(&t.key) {
                        Some(payload) => {
                            *payload = payload.wrapping_add(t.payload);
                            effect[1] += 1;
                        }
                        None => {
                            model.insert(t.key, t.payload);
                            effect[0] += 1;
                        }
                    },
                    Kind::Insert => {
                        model.insert(t.key, t.payload);
                        effect[0] += 1;
                    }
                    Kind::Delete => effect[2] += u64::from(model.remove(&t.key).is_some()),
                }
            }
            req.expect = effect;
        }
        self.final_contents = model.into_iter().collect();
    }

    fn tuples_per_pass(&self) -> u64 {
        (self.requests.len() * BATCH) as u64
    }

    fn pass(&mut self, technique: Technique, ctx: &mut Ctx) -> Pass {
        self.restore(ctx);
        let cost = self.run_requests(technique, ctx);
        Pass::of_requests(&cost.requests, REQUESTS_PER_BLOCK, ctx)
    }

    /// The table after the last pass holds exactly the reference
    /// contents.
    fn finish(&mut self, ctx: &mut Ctx) {
        let ok = self.ht.contents_sorted() == self.final_contents;
        ctx.tally.record(self.final_contents.len() as u64, ok);
    }

    fn input_digest(&self) -> u64 {
        digest(std::iter::once(&self.r).chain(self.requests.iter().map(|q| &q.tuples)))
    }

    fn layers(&mut self, size: Size, ctx: &mut Ctx) -> Layers {
        let mut out = self.setup_layers.clone();
        let mut restores = Vec::new();
        let passes: Vec<MixCost> = (0..layer_reps(size))
            .map(|_| {
                let cycles = self.restore(ctx);
                restores.push(ctx.seconds(cycles));
                self.run_requests(Technique::Amac, ctx)
            })
            .collect();
        out.push(("hashtable.restore_s", fastest(restores)));
        for (slot, (_, name)) in KINDS.into_iter().enumerate() {
            let per_tuple = |p: &MixCost| p.cycles[slot] as f64 / p.tuples[slot] as f64;
            out.push((name, fastest(passes.iter().map(per_tuple))));
        }
        let last = passes.last().expect("at least one pass");
        let mutations: u64 = last.tuples[1..].iter().sum();
        out.push(("tier.wal.log_bytes_per_mutation", last.log_bytes as f64 / mutations as f64));
        out.push(("engine.latch_retries", last.latch_retries as f64));

        // Recovery: replay the sealed log of the last pass on a restored
        // table; it must reproduce the reference contents.
        let records = self.wal.sealed().len();
        let replay_cost = fastest_of(layer_reps(size), || {
            self.restore(ctx);
            let (ht, wal, want) = (&self.ht, &self.wal, &self.final_contents);
            ctx.priced(
                "ops.mutate.replay",
                records,
                || replay(ht, wal.sealed()),
                |stats| stats.replayed_records == records as u64 && ht.contents_sorted() == *want,
            )
            .1
        });
        out.push(("ops.mutate.replay_cycles_per_record", replay_cost));
        out
    }
}
