//! Clock-determinism properties of the far-memory cost model: the same
//! seed must produce identical simulated counters across repeated runs,
//! and `sim_cycles` (pure work ticks) must be identical across 1/2/4
//! worker threads and schedulings — morsel runtime included. Stall ticks
//! are interleaving-dependent by design (the drain tail differs per
//! worker), so exact stall equality is asserted only where the
//! interleaving is fixed: repeated runs of the same configuration.

use amac::engine::{Technique, TuningParams};
use amac_hashtable::HashTable;
use amac_ops::join::{probe, ProbeConfig};
use amac_ops::parallel::{probe_mt_rt, Scheduling};
use amac_runtime::MorselConfig;
use amac_tier::TierSpec;
use amac_workload::Relation;
use proptest::prelude::*;

fn lab(n: usize, seed: u64) -> (HashTable, Relation) {
    let domain = (n as u64 / 8).max(32);
    let build = Relation::zipf(n, domain, 0.5, seed);
    let ht = HashTable::build_serial(&build);
    let probes = Relation::zipf(n, domain, 0.0, seed ^ 0x7A11);
    (ht, probes)
}

fn cfg(mult: u64, m: usize) -> ProbeConfig {
    ProbeConfig {
        params: TuningParams::with_in_flight(m),
        scan_all: true,
        materialize: false,
        tier: Some(TierSpec::headers_near(mult)),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn repeated_runs_reproduce_all_sim_counters_bit_for_bit(
        seed in 1u64..1_000_000,
        mult_idx in 0usize..4,
        m in 4usize..24,
    ) {
        let mult = [1u64, 2, 4, 8][mult_idx];
        let (ht, probes) = lab(2048, seed);
        for technique in Technique::ALL {
            let a = probe(&ht, &probes, technique, &cfg(mult, m)).stats;
            let b = probe(&ht, &probes, technique, &cfg(mult, m)).stats;
            prop_assert_eq!(a.sim_cycles, b.sim_cycles, "{}: work ticks drifted", technique);
            prop_assert_eq!(a.sim_stalls, b.sim_stalls, "{}: stall ticks drifted", technique);
        }
        // Morsel runtime, fixed partition: counters repeat exactly too.
        let rt = MorselConfig {
            threads: 2,
            morsel_tuples: 256,
            scheduling: Scheduling::StaticChunk,
        };
        let a = probe_mt_rt(&ht, &probes, Technique::Amac, &cfg(mult, m), &rt).stats;
        let b = probe_mt_rt(&ht, &probes, Technique::Amac, &cfg(mult, m), &rt).stats;
        prop_assert_eq!(a.sim_cycles, b.sim_cycles);
        prop_assert_eq!(a.sim_stalls, b.sim_stalls);
    }

    #[test]
    fn sim_cycles_identical_across_1_2_4_threads_and_schedulings(
        seed in 1u64..1_000_000,
        mult_idx in 0usize..4,
    ) {
        let mult = [1u64, 2, 4, 8][mult_idx];
        let (ht, probes) = lab(4096, seed);
        let st = probe(&ht, &probes, Technique::Amac, &cfg(mult, 10)).stats;
        prop_assert!(st.sim_cycles > 0);
        for threads in [1usize, 2, 4] {
            for scheduling in
                [Scheduling::StaticChunk, Scheduling::WorkSteal]
            {
                let rt = MorselConfig {
                    threads,
                    morsel_tuples: 512,
                    scheduling,
                };
                let mt = probe_mt_rt(&ht, &probes, Technique::Amac, &cfg(mult, 10), &rt).stats;
                prop_assert_eq!(
                    mt.sim_cycles, st.sim_cycles,
                    "{}t/{:?}: work ticks must not depend on partitioning", threads, scheduling
                );
            }
        }
    }
}
