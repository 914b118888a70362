//! `probe_dram` and `probe_cached`: the paper's hash-join probe, once
//! against a table far larger than the last-level cache and once against
//! one that fits in L2.
//!
//! Same code, two shapes. On `probe_dram` every probe is a DRAM miss, so
//! AMAC's window hides most of the latency the baseline pays in full: this
//! is where layout, prefetch and window changes show. On `probe_cached`
//! there is no miss to hide and only instructions per tuple matter: the
//! bypass workload for latency-hiding changes, and the most sensitive one
//! for layer tax. The layer-tax ladder of a traced run walks the same
//! probe through every layer that wraps it.

use amac_suite::coro::{coro_probe, CoroConfig};
use amac_suite::engine::engine::closure_api::{for_each_interleaved, Resume};
use amac_suite::engine::{Technique, TuningParams};
use amac_suite::hashtable::{probe_word, tags_may_match, Bucket, HashTable};
use amac_suite::mem::hash::tag_of;
use amac_suite::mem::prefetch::prefetch_read;
use amac_suite::mem::NULL_INDEX;
use amac_suite::ops::join::{build, probe, BuildConfig, ProbeConfig};
use amac_suite::ops::parallel::probe_mt_rt;
use amac_suite::runtime::MorselConfig;
use amac_suite::server::{Request, ServeConfig, ServeSession};
use amac_suite::shard::{probe_sharded, Placement, ShardConfig, ShardRouter, ShardedTable};
use amac_suite::tier::TierSpec;
use amac_suite::workload::{Relation, Tuple};

use super::{
    digest, expected_probe, fastest_of, layer_reps, payload_by_key, Ctx, Layers, Pass, Size,
    Workload, BATCH,
};

/// `Probe<true>` is `probe_dram`, `Probe<false>` is `probe_cached`.
pub struct Probe<const DRAM: bool> {
    r: Relation,
    s: Relation,
    ht: HashTable,
    seed: u64,
    /// Reference `(matches, checksum)` of probing all of `s`.
    expect: (u64, u64),
    /// The same per `BATCH`-sized slice of `s`.
    batch_expect: Vec<(u64, u64)>,
    /// The request buffer: each request's slice of `s` is copied here.
    request: Relation,
    setup_layers: Layers,
}

pub type ProbeDram = Probe<true>;
pub type ProbeCached = Probe<false>;

/// Requests per block of a pass: about 6 ms under AMAC on `probe_dram`.
const REQUESTS_PER_BLOCK: usize = 32;

/// Probes of the traced rung: a prefix, because the sim-time tracer
/// keeps one event per load in memory.
const TRACED_PREFIX_LOG2: u32 = 20;

fn probe_cfg(technique: Technique) -> ProbeConfig {
    ProbeConfig {
        params: TuningParams::paper_best(technique),
        materialize: false,
        ..Default::default()
    }
}

/// Anything that reports the join signature `(matches, checksum)`.
trait HasSig {
    fn sig(&self) -> (u64, u64);
}

macro_rules! has_sig {
    ($($t:ty),*) => {$(
        impl HasSig for $t {
            fn sig(&self) -> (u64, u64) {
                (self.matches, self.checksum)
            }
        }
    )*};
}
has_sig!(
    amac_suite::ops::join::ProbeOutput,
    amac_suite::coro::CoroOutput,
    amac_suite::ops::parallel::MtOutput,
    amac_suite::shard::ShardProbeOutput,
    amac_suite::server::QueryReport
);

/// Rung 0 of the ladder: the probe written directly against the closure
/// front-end of the engine, with none of `ops::join`'s machinery (no
/// memory unit, no tracer hook, no statistics).
fn closure_probe(ht: &HashTable, probes: &[Tuple], in_flight: usize) -> (u64, u64) {
    struct Lookup {
        key: u64,
        tags: u32,
        node: *const Bucket,
    }
    impl Default for Lookup {
        fn default() -> Self {
            Lookup { key: 0, tags: 0, node: std::ptr::null() }
        }
    }
    let (mut matches, mut checksum) = (0u64, 0u64);
    for_each_interleaved(
        Technique::Amac,
        probes,
        in_flight,
        |t: &Tuple| {
            let node = ht.bucket_addr(t.key);
            prefetch_read(node);
            Lookup { key: t.key, tags: probe_word(tag_of(t.key)), node }
        },
        |l| {
            // SAFETY: the table is in its read-only phase, and `node` is
            // the header `bucket_addr` returned or an arena node reached
            // through `node_ptr`, both valid for the table's lifetime.
            let d = unsafe { (*l.node).data() };
            if tags_may_match(d.meta, l.tags) {
                if let Some(t) = d.tuples[..d.count()].iter().find(|t| t.key == l.key) {
                    matches += 1;
                    checksum = checksum.wrapping_add(t.payload);
                    return Resume::Finished;
                }
            }
            if d.next == NULL_INDEX {
                return Resume::Finished;
            }
            l.node = ht.node_ptr(d.next);
            prefetch_read(l.node);
            Resume::Later
        },
    );
    (matches, checksum)
}

impl<const DRAM: bool> Probe<DRAM> {
    /// `(build, probe)` cardinalities as powers of two.
    const SHAPE: (u32, u32) = if DRAM { (23, 22) } else { (12, 23) };
}

/// Bytes of bucket headers plus chain nodes per stored tuple.
pub fn bytes_per_tuple(ht: &HashTable) -> f64 {
    let nodes = ht.bucket_count() + ht.nodes().len();
    (nodes * std::mem::size_of::<Bucket>()) as f64 / ht.len() as f64
}

impl<const DRAM: bool> Workload for Probe<DRAM> {
    fn setup(seed: u64, size: Size, ctx: &mut Ctx) -> Self {
        let (build_log2, probe_log2) = Self::SHAPE;
        let (n_build, n_probe) = (size.tuples(build_log2), size.tuples(probe_log2));
        let ((r, s), gen) = ctx.sp.time("workload.gen", || {
            let r = Relation::dense_unique(n_build, seed);
            let s = Relation::fk_uniform(&r, n_probe, seed ^ 0xF00D);
            (r, s)
        });
        let (ht, built) = ctx.sp.time("hashtable.build_serial", || HashTable::build_serial(&r));
        let setup_layers = vec![
            ("workload.gen_s", ctx.seconds(gen)),
            ("hashtable.build_serial_cycles_per_tuple", built as f64 / n_build as f64),
            ("hashtable.bytes_per_tuple", bytes_per_tuple(&ht)),
        ];
        Probe {
            request: Relation::from_tuples(s.tuples[..BATCH].to_vec()),
            r,
            s,
            ht,
            seed,
            expect: (0, 0),
            batch_expect: Vec::new(),
            setup_layers,
        }
    }

    fn build_oracle(&mut self) {
        let model = payload_by_key(&self.r);
        self.expect = expected_probe(&model, &self.s.tuples);
        self.batch_expect =
            self.s.tuples.chunks_exact(BATCH).map(|b| expected_probe(&model, b)).collect();
    }

    fn tuples_per_pass(&self) -> u64 {
        self.s.len() as u64
    }

    /// All of `s`, one `probe` call per `BATCH`-sized request.
    fn pass(&mut self, technique: Technique, ctx: &mut Ctx) -> Pass {
        let cfg = probe_cfg(technique);
        let (ht, request) = (&self.ht, &mut self.request);
        let mut cycles = Vec::with_capacity(self.batch_expect.len());
        for (slice, expect) in self.s.tuples.chunks_exact(BATCH).zip(&self.batch_expect) {
            request.tuples.copy_from_slice(slice);
            let (out, spent) =
                ctx.sp.time("ops.join.probe", || probe(ht, request, technique, &cfg));
            ctx.tally.record(BATCH as u64, out.sig() == *expect);
            cycles.push(spent);
        }
        Pass::of_requests(&cycles, REQUESTS_PER_BLOCK, ctx)
    }

    fn input_digest(&self) -> u64 {
        digest([&self.r, &self.s])
    }

    fn layers(&mut self, size: Size, ctx: &mut Ctx) -> Layers {
        let mut out = self.setup_layers.clone();
        let reps = layer_reps(size);
        let (ht, r, s, expect) = (&self.ht, &self.r, &self.s, self.expect);
        let amac = probe_cfg(Technique::Amac);
        let (in_flight, pin) = (amac.params.in_flight, ctx.pin);
        // One rung: `call` over `tuples` tuples, fastest of `reps`, its join
        // signature checked against `want`. The span is named after the
        // metric, less the unit.
        let mut rung = |name: &'static str, tuples, want, call: &dyn Fn() -> (u64, u64)| {
            let span = name.strip_suffix("_cycles_per_tuple").unwrap_or(name);
            let cost = fastest_of(reps, || ctx.priced(span, tuples, call, |sig| *sig == want).1);
            out.push((name, cost));
        };
        let n = s.len();

        // The layer-tax ladder: one probe, wrapped by one more layer per rung.
        rung("engine.closure_loop_cycles_per_tuple", n, expect, &|| {
            closure_probe(ht, &s.tuples, in_flight)
        });
        rung("ops.join.probe_cycles_per_tuple", n, expect, &|| {
            probe(ht, s, Technique::Amac, &amac).sig()
        });
        let tiered = ProbeConfig { tier: Some(TierSpec::headers_near(4)), ..amac.clone() };
        rung("tier.probe_tiered_cycles_per_tuple", n, expect, &|| {
            probe(ht, s, Technique::Amac, &tiered).sig()
        });
        let coalesced = ProbeConfig { coalesce: Some(8), ..amac.clone() };
        rung("engine.amu.coalesced_cycles_per_tuple", n, expect, &|| {
            probe(ht, s, Technique::Amac, &coalesced).sig()
        });
        let model = payload_by_key(r);
        let prefix = Relation::from_tuples(s.tuples[..n.min(1 << TRACED_PREFIX_LOG2)].to_vec());
        let traced = ProbeConfig { trace: true, ..amac.clone() };
        rung(
            "trace.probe_traced_cycles_per_tuple",
            prefix.len(),
            expected_probe(&model, &prefix.tuples),
            &|| probe(ht, &prefix, Technique::Amac, &traced).sig(),
        );
        let coro = CoroConfig { width: in_flight, materialize: false, ..Default::default() };
        rung("coro.probe_cycles_per_tuple", n, expect, &|| coro_probe(ht, s, &coro).sig());
        let one = MorselConfig::with_threads(1);
        rung("runtime.probe_1t_cycles_per_tuple", n, expect, &|| {
            probe_mt_rt(ht, s, Technique::Amac, &amac, &one).sig()
        });
        // Two workers need two CPUs: the pin is lifted inside this rung only.
        let two = MorselConfig::with_threads(2);
        rung("runtime.probe_2t_cycles_per_tuple", n, expect, &|| {
            let run = || probe_mt_rt(ht, s, Technique::Amac, &amac, &two).sig();
            pin.map_or_else(run, |pin| pin.unpinned(run))
        });
        let serve = ServeConfig { params: amac.params, ..Default::default() };
        rung("server.session_probe_cycles_per_tuple", n, expect, &|| {
            let mut srv = ServeSession::new(ht, serve.clone());
            srv.submit(Request::Probe { probes: s, cfg: amac.clone() })
                .expect("an empty session admits one query");
            srv.finish().reports[0].sig()
        });
        let sharded = ShardedTable::build(r, ShardRouter::new(6, 1));
        let shard_cfg = ShardConfig { params: amac.params, ..Default::default() };
        rung("shard.probe_1shard_cycles_per_tuple", n, expect, &|| {
            probe_sharded(&sharded, s, Technique::Amac, &shard_cfg, Placement::Routed).sig()
        });
        drop(sharded);

        if DRAM {
            // The paper's Fig. 5 shape, informational: the static-schedule
            // techniques and skewed probing.
            let (gp, spp) = (probe_cfg(Technique::Gp), probe_cfg(Technique::Spp));
            rung("engine.gp_cycles_per_tuple", n, expect, &|| {
                probe(ht, s, Technique::Gp, &gp).sig()
            });
            rung("engine.spp_cycles_per_tuple", n, expect, &|| {
                probe(ht, s, Technique::Spp, &spp).sig()
            });
            for (name, theta) in [
                ("ops.join.probe_zipf05_cycles_per_tuple", 0.5),
                ("ops.join.probe_zipf1_cycles_per_tuple", 1.0),
            ] {
                let z = Relation::zipf(n, r.len() as u64, theta, self.seed ^ 0x21F);
                rung(name, n, expected_probe(&model, &z.tuples), &|| {
                    probe(ht, &z, Technique::Amac, &amac).sig()
                });
            }
        }

        // Set-up side: the AMAC build next to the serial one, once, into a
        // table allocated beforehand.
        let fresh = HashTable::for_tuples(r.len());
        let build_cfg = BuildConfig { params: amac.params, tier: None };
        let (_, cost) = ctx.priced(
            "ops.join.build_amac",
            r.len(),
            || build(&fresh, r, Technique::Amac, &build_cfg),
            |_| fresh.len() == r.len(),
        );
        out.push(("ops.join.build_amac_cycles_per_tuple", cost));
        drop(fresh);

        // The counts that must repeat bit for bit, from one AMAC probe.
        let stats = probe(ht, s, Technique::Amac, &amac).stats;
        let lookups = stats.lookups as f64;
        out.extend([
            ("engine.stages_per_lookup", stats.stages as f64 / lookups),
            ("engine.noop_share", stats.noops as f64 / (stats.stages + stats.noops) as f64),
            ("hashtable.nodes_per_lookup", stats.nodes_per_lookup()),
            ("hashtable.tag_reject_rate", stats.tag_rejects as f64 / stats.nodes_visited as f64),
            ("mem.prefetches_per_lookup", stats.prefetches as f64 / lookups),
        ]);
        out
    }
}
