//! Coroutine front-end (paper §6): write plain traversal code, get AMAC
//! interleaving for free.
//!
//! ```sh
//! cargo run --release --example coroutine_api
//! ```
//!
//! The paper's §6 proposes coroutines as the way to automate AMAC so
//! developers don't hand-craft stage machines. This example shows both
//! sides on the same join probe:
//!
//! 1. a **custom** lookup written as an ordinary `async fn` — chain walk
//!    with a `prefetch_yield` at each dereference — scheduled by the ring
//!    executor;
//! 2. the packaged drivers (`coro_probe`) and their agreement with the
//!    hand-written AMAC state machine, plus the measured time/space cost
//!    of the convenience.

use amac_suite::coro::{self, prefetch_yield, run_interleaved_collect, CoroConfig};
use amac_suite::engine::{Technique, TuningParams};
use amac_suite::hashtable::{probe_word, tag_slots, HashTable};
use amac_suite::mem::hash::tag_of;
use amac_suite::ops::join::{probe, ProbeConfig};
use amac_suite::workload::Relation;

fn main() {
    let r = Relation::dense_unique(1 << 19, 0xABCD);
    let s = r.shuffled(0xEF01);
    let ht = HashTable::build_serial(&r);

    // --- 1. A custom coroutine lookup: count chain nodes per probe. ---
    // This is logic none of the packaged ops implement — written as plain
    // async traversal code, no stage enum, no explicit state struct.
    let (chain_lengths, stats) = run_interleaved_collect(10, &s.tuples, |_, t| {
        let ht = &ht;
        async move {
            let mut nodes = 0u32;
            let probe = probe_word(tag_of(t.key));
            let mut node = ht.bucket_addr(t.key);
            prefetch_yield(node).await;
            loop {
                nodes += 1;
                // SAFETY: read-only probe phase over the built table.
                let d = unsafe { (*node).data() };
                // The node kernel: compare keys only at the slots whose
                // tag matches the key's fingerprint.
                if tag_slots(d.meta, probe).any(|i| d.tuples[i].key == t.key) {
                    return nodes;
                }
                if d.next == amac_suite::mem::NULL_INDEX {
                    return nodes;
                }
                let next = ht.node_ptr(d.next);
                prefetch_yield(next).await;
                node = next;
            }
        }
    });
    let total: u64 = chain_lengths.iter().map(|&n| n as u64).sum();
    println!("custom coroutine lookup (chain-length census)");
    println!(
        "  lookups: {}, polls: {}, suspended frame: {} B",
        stats.completed, stats.polls, stats.future_bytes
    );
    println!("  avg nodes per probe: {:.2}\n", total as f64 / s.len() as f64);

    // --- 2. Packaged drivers vs the hand-written state machine. ---
    let hand = probe(
        &ht,
        &s,
        Technique::Amac,
        &ProbeConfig {
            params: TuningParams::paper_best(Technique::Amac),
            materialize: false,
            ..Default::default()
        },
    );
    let coro_out = coro::coro_probe(
        &ht,
        &s,
        &CoroConfig { width: 10, materialize: false, ..Default::default() },
    );
    assert_eq!(hand.checksum, coro_out.checksum, "identical results");

    let hand_cpt = hand.cycles as f64 / s.len() as f64;
    let coro_cpt = coro_out.cycles as f64 / s.len() as f64;
    println!("hash probe, {} tuples:", s.len());
    println!("  AMAC state machine: {hand_cpt:>7.1} cycles/tuple");
    println!(
        "  AMAC coroutine:     {coro_cpt:>7.1} cycles/tuple  ({:+.1}% — §6's predicted overhead)",
        (coro_cpt / hand_cpt - 1.0) * 100.0
    );
    println!(
        "  state per lookup:   {} B hand-written vs {} B compiler frame",
        core::mem::size_of::<amac_suite::ops::join::ProbeState>(),
        coro_out.stats.future_bytes
    );
}
