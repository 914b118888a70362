//! Concurrent ordered index: four writer threads insert into one shared
//! Pugh skip list (latched splices), then reader threads range-scan and
//! point-probe it under AMAC — the paper's §5.4 workload in a realistic
//! multi-threaded setting.
//!
//! ```sh
//! cargo run --release --example ordered_index
//! ```

use amac_suite::engine::{Technique, TuningParams};
use amac_suite::ops::parallel::skip_insert_mt_rt;
use amac_suite::ops::skiplist::{skip_search, SkipConfig};
use amac_suite::runtime::MorselConfig;
use amac_suite::skiplist::SkipList;
use amac_suite::workload::Relation;
use std::time::Instant;

fn main() {
    let n = 1 << 20;
    let rel = Relation::sparse_unique(n, 0x0DD);
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2);

    // Phase 1 — concurrent AMAC insert build.
    let list = SkipList::new();
    let t0 = Instant::now();
    let rt = MorselConfig::with_threads(threads);
    let ins = skip_insert_mt_rt(&list, &rel, Technique::Amac, &SkipConfig::default(), &rt);
    println!(
        "insert : {} keys via {} threads in {:.2?} ({:.1} M inserts/s, {} latch retries)",
        ins.matches,
        threads,
        t0.elapsed(),
        ins.throughput / 1e6,
        ins.stats.latch_retries
    );
    assert_eq!(list.len(), n);

    // Phase 2 — validate the ordered structure.
    let items = list.items();
    assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "index must stay sorted");
    println!("order  : level-0 chain strictly ascending over {} keys ✓", items.len());

    // Phase 3 — point probes under every technique.
    let probes = rel.shuffled(0x0DE);
    println!("\n{:<10} {:>14} {:>10}", "technique", "cycles/tuple", "found");
    for technique in Technique::ALL {
        let cfg = SkipConfig { params: TuningParams::paper_best(technique), ..Default::default() };
        let out = skip_search(&list, &probes, technique, &cfg);
        assert_eq!(out.found, n as u64);
        println!(
            "{:<10} {:>14.1} {:>10}",
            technique.label(),
            out.cycles as f64 / n as f64,
            out.found
        );
    }
}
