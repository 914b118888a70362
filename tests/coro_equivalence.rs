//! Integration tests for the coroutine front-end (§6): the compiler-
//! generated coroutines must compute exactly what the hand-written state
//! machines compute, for every workload, width, and input shape.

use amac_suite::coro::{coro_probe, CoroConfig};
use amac_suite::engine::Technique;
use amac_suite::hashtable::HashTable;
use amac_suite::ops::join::{probe, ProbeConfig};
use amac_suite::workload::{Relation, Tuple};
use proptest::prelude::*;

fn coro_cfg(width: usize, scan_all: bool) -> CoroConfig {
    CoroConfig { width, scan_all, materialize: true }
}

#[test]
fn probe_agrees_with_state_machine_uniform_and_skewed() {
    for (zr, label) in [(0.0, "uniform"), (0.75, "zipf .75"), (1.0, "zipf 1")] {
        let r = if zr == 0.0 {
            Relation::dense_unique(1 << 14, 7)
        } else {
            Relation::zipf(1 << 14, 1 << 13, zr, 7)
        };
        let s = r.shuffled(8);
        let ht = HashTable::build_serial(&r);
        for scan_all in [false, true] {
            let hand =
                probe(&ht, &s, Technique::Amac, &ProbeConfig { scan_all, ..Default::default() });
            let coro = coro_probe(&ht, &s, &coro_cfg(10, scan_all));
            assert_eq!(hand.matches, coro.matches, "{label} scan_all={scan_all}");
            assert_eq!(hand.checksum, coro.checksum, "{label} scan_all={scan_all}");
            assert_eq!(hand.out, coro.out, "{label} scan_all={scan_all}");
        }
    }
}

/// The ring must behave at degenerate widths exactly like the AMAC
/// engine does at degenerate M.
#[test]
fn extreme_widths_agree() {
    let r = Relation::dense_unique(2000, 21);
    let s = r.shuffled(22);
    let ht = HashTable::build_serial(&r);
    let reference = probe(&ht, &s, Technique::Amac, &ProbeConfig::default());
    for width in [1usize, 2, 1999, 2000, 2001, 100_000] {
        let coro = coro_probe(&ht, &s, &coro_cfg(width, false));
        assert_eq!(coro.matches, reference.matches, "width={width}");
        assert_eq!(coro.checksum, reference.checksum, "width={width}");
        assert_eq!(coro.out, reference.out, "width={width}");
    }
}

/// The two front-ends do not just agree on results — they do the same
/// *amount of scheduling work*: one coroutine poll corresponds to one
/// engine stage (the first poll runs stage 0 to its prefetch; each
/// resume runs one step), so `polls == stages` exactly, for any input
/// shape.
#[test]
fn scheduling_work_is_identical() {
    for (r, s, scan_all) in [
        (Relation::dense_unique(4096, 81), Relation::dense_unique(4096, 81).shuffled(82), false),
        (Relation::zipf(4096, 512, 1.0, 83), Relation::zipf(2000, 512, 0.5, 84), true),
        (Relation::dense_unique(1, 85), Relation::dense_unique(1, 85), false),
    ] {
        let ht = HashTable::build_serial(&r);
        let hand = probe(
            &ht,
            &s,
            Technique::Amac,
            &ProbeConfig { scan_all, materialize: false, ..Default::default() },
        );
        let coro = coro_probe(&ht, &s, &coro_cfg(10, scan_all));
        assert_eq!(
            coro.stats.polls, hand.stats.stages,
            "coroutine polls must equal engine stages (scan_all={scan_all})"
        );
    }
}

/// §6's space-overhead claim, asserted: the compiled frame is larger
/// than the hand-written state (the "redundancy across the threads of
/// the same data structure lookup" the paper worries about) but bounded.
#[test]
fn coroutine_state_overhead_is_measured_and_bounded() {
    let r = Relation::dense_unique(4096, 31);
    let ht = HashTable::build_serial(&r);
    let out = coro_probe(&ht, &r, &coro_cfg(10, false));
    let hand_state = core::mem::size_of::<amac_suite::ops::join::ProbeState>();
    assert!(
        out.stats.future_bytes >= hand_state,
        "frame {} B cannot be smaller than the minimal state {} B",
        out.stats.future_bytes,
        hand_state
    );
    assert!(
        out.stats.future_bytes <= hand_state * 8,
        "frame {} B implausibly large vs {} B",
        out.stats.future_bytes,
        hand_state
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary relations, widths and probe mixes: coroutine probe ==
    /// state-machine probe (which itself == every other technique, by
    /// the engine equivalence proptests). Unmaterialized is the
    /// benchmark's configuration: the signature still agrees and no
    /// payload vector is built.
    #[test]
    fn coro_probe_equivalence(
        kv in prop::collection::vec((1u64..200, 0u64..1000), 0..250),
        q in prop::collection::vec(1u64..300, 0..250),
        width in 1usize..24,
        scan_all in proptest::bool::ANY,
        materialize in proptest::bool::ANY,
    ) {
        let r = Relation::from_tuples(kv.iter().map(|&(k, p)| Tuple::new(k, p)).collect());
        let s = Relation::from_tuples(q.iter().map(|&k| Tuple::new(k, 0)).collect());
        let ht = HashTable::with_buckets(16);
        {
            let mut h = ht.build_handle();
            for t in &r.tuples {
                h.insert(t.key, t.payload);
            }
        }
        let hand = probe(
            &ht,
            &s,
            Technique::Amac,
            &ProbeConfig { scan_all, ..Default::default() },
        );
        let coro = coro_probe(&ht, &s, &CoroConfig { materialize, ..coro_cfg(width, scan_all) });
        prop_assert_eq!(hand.matches, coro.matches);
        prop_assert_eq!(hand.checksum, coro.checksum);
        if materialize {
            prop_assert_eq!(hand.out, coro.out);
        } else {
            prop_assert!(coro.out.is_empty());
        }
    }
}
