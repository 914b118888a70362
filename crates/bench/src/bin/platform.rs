//! **Table 2 analogue**: print the host platform parameters the
//! experiments actually ran on (the paper's Table 2 lists its Xeon x5670
//! and SPARC T4).

use amac_mem::region::{self, Region, HUGE_PAGE};
use amac_metrics::platform::{anon_huge_bytes, Platform};

fn main() {
    print!("{}", Platform::detect());
    // What the kernel does with a region that asks for huge pages, tried
    // rather than inferred from the mode: 8 huge pages' worth, touched.
    let before = anon_huge_bytes();
    let trial = Region::<u8>::new(8 * HUGE_PAGE);
    let granted = anon_huge_bytes().zip(before).map(|(now, then)| now.saturating_sub(then));
    let advice = region::stats();
    println!(
        "  huge-page trial: {} MiB region, {} MiB advised ({} refused), {}",
        trial.len() >> 20,
        advice.bytes_advised >> 20,
        advice.advise_refused,
        match granted {
            Some(bytes) => format!("{} MiB granted", bytes >> 20),
            None => "grant not reported by this kernel".to_string(),
        }
    );
    println!();
    println!("paper Table 2 reference points:");
    println!("  Xeon x5670 : 6C/12T @ 2.93 GHz, 32 KB L1-D, 12 MB L3, 24 GB DDR3");
    println!("  SPARC T4   : 8C/64T @ 3 GHz, 16 KB L1-D, 4 MB L3, 1 TB DDR3");
}
