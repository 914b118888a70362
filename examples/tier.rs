//! Far-memory tiering quickstart: the simulated cost model by hand, then
//! a real probe sweep showing the paper's hiding claim as counters.
//!
//! Run: `cargo run --release --example tier`
//!
//! The first half mirrors the `amac_tier` crate-level doctest; the
//! second half is a miniature of `bench/bin/tier.rs`.

use amac_suite::engine::{EngineStats, Hooks, Technique, TuningParams};
use amac_suite::hashtable::HashTable;
use amac_suite::ops::join::{probe, ProbeConfig, ProbeOp};
use amac_suite::tier::{AddrClass, CostModel, ExecCtx, ExecSpec, Tier, TierPolicy, TierSpec};
use amac_suite::workload::Relation;

fn main() {
    // --- Part 1: the context itself (mirrors the amac_tier doctest) ---
    // Chain nodes in far memory at 8x DRAM latency, headers near.
    let spec = TierSpec {
        model: CostModel {
            near_latency: 4,
            far_multiplier: 8,
            write_multiplier: 4,
            remote_multiplier: 16,
        },
        policy: TierPolicy::HeadersNear,
    };
    assert_eq!(spec.model.latency(Tier::Near), 4);
    assert_eq!(spec.model.latency(Tier::Far), 32);
    assert_eq!(spec.model.latency(Tier::Remote), 64);
    assert_eq!(spec.policy.header_tier(), Tier::Near);
    assert_eq!(spec.policy.slab_tier(), Tier::Far);

    // The context an op embeds: request, do other work, dereference.
    let mut cx = ExecCtx::new(&ExecSpec { tier: Some(spec), ..Default::default() });
    let lane = cx.begin_lane(); // stage 0 executes (1 tick)
    let node = AddrClass::Slab { slab: 0, line: 0 };
    let t = cx.request(node, 0, lane); // async load lands at now + 32
    for _ in 0..10 {
        cx.idle(1); // only 10 ticks of other work...
    }
    cx.wait(t.ready_at); // ...so the deref stalls 22 ticks
    cx.stage();
    let mut stats = EngineStats::default();
    cx.flush(&mut stats);
    assert_eq!(stats.sim_cycles, 2);
    assert_eq!(stats.sim_stalls, 22);
    println!(
        "by hand: {} work ticks, {} stall ticks (stall share {:.2})\n",
        stats.sim_cycles,
        stats.sim_stalls,
        stats.stall_share()
    );

    // --- Part 2: the real probe operator under the sweep --------------
    let n = 1 << 14;
    let domain = (n as u64) / 16;
    let build = Relation::zipf(n / 2, domain, 0.4, 7);
    let ht = HashTable::build_serial(&build);
    let probes = Relation::zipf(n, domain, 0.0, 7);
    let cfg = |mult: u64, m: usize| ProbeConfig {
        params: TuningParams::with_in_flight(m),
        scan_all: true,
        materialize: false,
        tier: Some(TierSpec::headers_near(mult)),
        ..Default::default()
    };

    // Results are identical with tiering on or off — only counters move.
    let untiered = probe(&ht, &probes, Technique::Amac, &ProbeConfig { tier: None, ..cfg(1, 10) });

    println!("far-mult  GP(M=15)  AMAC(M=10)  AMAC(auto)   auto-M");
    for mult in [1u64, 2, 4, 8] {
        let gp = probe(&ht, &probes, Technique::Gp, &cfg(mult, 15));
        let fixed = probe(&ht, &probes, Technique::Amac, &cfg(mult, 10));
        // auto_sim is "fed the tier latency" through the op factory: it
        // deepens the window until the far tier is hidden.
        let c = cfg(mult, 10);
        let auto = TuningParams::auto_sim(|| ProbeOp::new(&ht, &c, 0), &probes.tuples).in_flight;
        let tuned = probe(&ht, &probes, Technique::Amac, &cfg(mult, auto));
        assert_eq!(tuned.matches, untiered.matches);
        assert_eq!(tuned.checksum, untiered.checksum);
        println!(
            "{mult:>7}x  {:>8.3}  {:>10.3}  {:>10.3}  {auto:>7}",
            gp.stats.stall_share(),
            fixed.stats.stall_share(),
            tuned.stats.stall_share(),
        );
    }
    println!("\nGP's stall share climbs with the far multiplier; the latency-fed");
    println!("auto-tuned AMAC window deepens instead and stays (near) stall-free.");
}
