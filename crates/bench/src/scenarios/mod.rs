//! The scenario table: one row per experiment of the paper's evaluation
//! and of the gated extension trajectories.

mod amu;
mod chaos;
mod figures;
mod layout;
mod pipeline;
mod recovery;
mod scaling;
mod serve;
mod shard;
mod studies;
mod tier;
mod trace;

use crate::Scenario;
use amac_server::{QueryId, Request, ServeSession, SubmitOpts};

/// Closed-loop admission: on `Backpressure`, pump the session for the
/// error's `retry_after_pumps` hint (the deterministic estimate of when
/// the smallest active query frees a lane) and resubmit, so no query is
/// ever shed.
fn submit_closed_loop<'a>(
    srv: &mut ServeSession<'a>,
    req: Request<'a>,
    opts: SubmitOpts,
) -> QueryId {
    loop {
        match srv.submit_opts(req.clone(), opts) {
            Ok(qid) => return qid,
            Err(bp) => {
                for _ in 0..bp.retry_after_pumps {
                    srv.pump();
                }
            }
        }
    }
}

type Run = fn(&crate::Args) -> crate::Outcome;

const fn table(name: &'static str, about: &'static str, run: Run) -> Scenario {
    Scenario { name, about, blob: None, run }
}

const fn gated(name: &'static str, blob: &'static str, run: Run, about: &'static str) -> Scenario {
    Scenario { name, about, blob: Some(blob), run }
}

/// Every scenario, in `bench list` order. The ten with a blob form the
/// CI trajectory (`bench trajectory`), gated by `baselines.json`.
pub static SCENARIOS: &[Scenario] = &[
    table("fig03", "Fig. 3: uniform / non-uniform / skewed traversal", figures::fig03),
    table("fig05", "Fig. 5: hash join, 5 skews, small and large build", figures::fig05),
    table("fig06", "Fig. 6: probe sensitivity to in-flight lookups", figures::fig06),
    table("fig07", "Fig. 7: probe throughput scalability", figures::fig07),
    table("fig08", "Fig. 8: Fig. 7 on the emulated narrow core (M = 6)", figures::fig08),
    table("fig09", "Fig. 9: group-by vs skew, small and large input", figures::fig09),
    table("fig10", "Fig. 10: BST search vs tree size", figures::fig10),
    table("fig11", "Fig. 11: skip-list search and insert, 3 sizes", figures::fig11),
    table("fig12", "Fig. 12: join + group-by on the emulated narrow core", figures::fig12),
    table("fig13", "Fig. 13: BST + skip list on the emulated narrow core", figures::fig13),
    table("platform", "Table 2: host platform and a huge-page trial", figures::platform),
    table("table03", "Table 3: instructions and cycles per tuple", figures::table03),
    table("table04", "Table 4: AMAC probe scaling profile vs threads", figures::table04),
    table("ablation", "§3.1: merged refill, modulo indexing, prefetch hints", studies::ablation),
    table("btree_sweep", "BST (irregular) vs B+-tree (regular) search", studies::btree_sweep),
    gated("scaling", "BENCH_SCALING.json", scaling::run, "static vs morsel dispatch"),
    gated("pipeline", "BENCH_PIPELINE.json", pipeline::run, "§6 fused vs two-phase pipelines"),
    gated("layout", "BENCH_LAYOUT.json", layout::run, "node layout"),
    gated("serve", "BENCH_SERVE.json", serve::run, "cross-query serving, shared windows"),
    gated("tier", "BENCH_TIER.json", tier::run, "far-memory latency sweep (simulated)"),
    gated("chaos", "BENCH_CHAOS.json", chaos::run, "faults, retries, deadlines, breaker"),
    gated("amu", "BENCH_AMU.json", amu::run, "AMU issue coalescing"),
    gated("recovery", "BENCH_RECOVERY.json", recovery::run, "crashes, checkpoint + WAL replay"),
    gated("shard", "BENCH_SHARD.json", shard::run, "shard-per-core over an interconnect"),
    gated("trace", "BENCH_TRACE.json", trace::run, "stall attribution + trace.json"),
];
