//! Quickstart: run one hash join with every technique and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the core API surface: generate relations, build the hash
//! table, probe it under each prefetching technique, and read the
//! executor statistics that explain the performance differences.

use amac_suite::engine::{Technique, TuningParams};
use amac_suite::hashtable::HashTable;
use amac_suite::mem::region;
use amac_suite::metrics::platform::{anon_huge_bytes, Platform};
use amac_suite::ops::join::{probe, ProbeConfig};
use amac_suite::workload::Relation;

fn main() {
    // 1 M build tuples (dense unique keys), 4 M probes drawn from them.
    let r = Relation::dense_unique(1 << 20, 0xC0FFEE);
    let s = Relation::fk_uniform(&r, 1 << 22, 0xBEEF);

    // Build once (the build phase is identical work for every probe run).
    let ht = HashTable::build_serial(&r);
    println!("hash table: {} buckets, {} tuples", ht.bucket_count(), ht.tuple_count());

    // The cycles below depend on the page size under the table: say which
    // one this host gave, so a number from a THP-`never` machine is not
    // mistaken for a regression.
    let host = Platform::detect();
    let advice = region::stats();
    println!(
        "page backing: THP mode {}, base page {} B; {} MiB advised huge ({} refused), {} MiB granted\n",
        host.thp_mode,
        host.page_bytes,
        advice.bytes_advised >> 20,
        advice.advise_refused,
        anon_huge_bytes().map_or("?".to_string(), |b| (b >> 20).to_string()),
    );

    println!(
        "{:<10} {:>14} {:>12} {:>14} {:>12}",
        "technique", "cycles/tuple", "million/s", "stage slots/t", "speedup"
    );
    let mut baseline_cpt = 0.0;
    for technique in Technique::ALL {
        let cfg = ProbeConfig {
            params: TuningParams::paper_best(technique),
            materialize: false,
            ..Default::default()
        };
        let out = probe(&ht, &s, technique, &cfg);
        assert_eq!(out.matches, s.len() as u64, "every FK probe must match");
        let cpt = out.cycles as f64 / s.len() as f64;
        if technique == Technique::Baseline {
            baseline_cpt = cpt;
        }
        println!(
            "{:<10} {:>14.1} {:>12.1} {:>14.2} {:>11.2}x",
            technique.label(),
            cpt,
            s.len() as f64 / out.seconds / 1e6,
            out.stats.work_per_lookup(),
            baseline_cpt / cpt,
        );
    }
    println!("\nAMAC keeps ~10 independent cache misses in flight per core;");
    println!("the baseline exposes only what the out-of-order window finds.");
}
