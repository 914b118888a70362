//! **Hash-table layout ablation** (§2.1.1: no single layout wins both
//! chained memory accesses and space). The tag-probed node layout
//! (3 tuples + SWAR tags + u32 index) at `n / (2·fill)` buckets, probed
//! scan-all with uniform and Zipf(1) keys: the gated evidence is **nodes
//! visited per lookup** and the share of visits the tag filter rejects
//! (the replaced 2-tuple layout's numbers are frozen in
//! `tests/layout_ab.rs`).

use crate::{probe_cfg, Args, JsonOut, Outcome};
use amac::engine::Technique;
use amac_hashtable::HashTable;
use amac_metrics::report::Table;
use amac_ops::join::{probe, ProbeConfig};
use amac_workload::Relation;

/// One node-layout measurement row.
struct LayoutRow {
    workload: &'static str,
    /// Fill factor: `n / (2 × fill)` buckets, i.e. `2 × fill` tuples per
    /// bucket (the seed layout's expected chain nodes per bucket).
    fill: usize,
    nodes_per_lookup: f64,
    tag_reject_share: f64,
}

/// Nodes are 64-byte single lines, so bytes touched per lookup is exactly
/// `nodes_per_lookup × 64` — derived at emission time rather than
/// stored, to keep one source of truth for the metric.
const NODE_BYTES: f64 = 64.0;

/// Scan-all probe the table at every fill factor and return the
/// deterministic traversal metrics (counters only, so one run each).
fn layout_sweep(n: usize) -> Vec<LayoutRow> {
    let rel = Relation::dense_unique(n, 0x01D);
    let workloads: [(&'static str, Relation); 2] =
        [("uniform", rel.shuffled(0x02D)), ("zipf1", Relation::zipf(n, n as u64, 1.0, 0x03D))];
    let mut rows = Vec::new();
    for fill in [1usize, 2, 4, 8] {
        let ht = HashTable::with_buckets((n / (2 * fill)).max(1));
        {
            let mut h = ht.build_handle();
            for t in &rel.tuples {
                h.insert(t.key, t.payload);
            }
        }
        for (wname, probes) in &workloads {
            let cfg = ProbeConfig { materialize: false, scan_all: true, ..probe_cfg(10) };
            let out = probe(&ht, probes, Technique::Amac, &cfg);
            rows.push(LayoutRow {
                workload: wname,
                fill,
                nodes_per_lookup: out.stats.nodes_per_lookup(),
                tag_reject_share: out.stats.tag_rejects as f64
                    / out.stats.nodes_visited.max(1) as f64,
            });
        }
    }
    rows
}

pub(super) fn run(args: &Args) -> Outcome {
    let n = (1usize << args.scale.min(23)) / 2;
    println!("# Layout ablation ({n} keys)\n");

    let rows = layout_sweep(n);
    let mut layout_table =
        Table::new("Tag-probed nodes (3 tuples + tags + u32 idx): nodes visited per lookup")
            .header(["workload", "fill", "nodes/lookup", "tag-reject share"]);
    for r in &rows {
        layout_table.row([
            r.workload.to_string(),
            format!("{}", r.fill),
            format!("{:.3}", r.nodes_per_lookup),
            format!("{:.1}%", r.tag_reject_share * 100.0),
        ]);
    }
    layout_table.note("fill = tuples per bucket / 2; scan-all probes");
    layout_table.print();
    println!();

    let pick = |w: &str, fill: usize| -> &LayoutRow {
        rows.iter().find(|r| r.workload == w && r.fill == fill).expect("row exists")
    };
    let mut j = JsonOut::open("node_layout");
    j.meta("tuples", n);
    j.results(rows.iter().map(|r| {
        format!(
            "{{\"workload\": \"{}\", \"fill\": {}, \"nodes_per_lookup\": {:.4}, \
             \"bytes_per_lookup\": {:.1}, \"tag_reject_share\": {:.4}}}",
            r.workload,
            r.fill,
            r.nodes_per_lookup,
            r.nodes_per_lookup * NODE_BYTES,
            r.tag_reject_share
        )
    }));
    let npl = |w, fill| format!("{:.3}", pick(w, fill).nodes_per_lookup);
    let keys = [
        ("BENCH_LAYOUT_NODES_PER_LOOKUP_FF2_UNIFORM", npl("uniform", 2)),
        ("BENCH_LAYOUT_NODES_PER_LOOKUP_FF2_ZIPF1", npl("zipf1", 2)),
        ("BENCH_LAYOUT_NODES_PER_LOOKUP_FF4_UNIFORM", npl("uniform", 4)),
        ("BENCH_LAYOUT_NODES_PER_LOOKUP_FF4_ZIPF1", npl("zipf1", 4)),
        ("BENCH_LAYOUT_NODES_PER_LOOKUP_FF8_UNIFORM", npl("uniform", 8)),
        (
            "BENCH_LAYOUT_TAG_REJECT_SHARE_FF4_UNIFORM",
            format!("{:.3}", pick("uniform", 4).tag_reject_share),
        ),
    ];
    j.finish_with_keys(&keys)
}
