//! The five workloads and what they share.
//!
//! A workload owns its generated inputs and built structures. The runner
//! (`crate::run`) drives every workload through the same protocol: set up
//! from the seed, compute the reference results from the inputs, time
//! passes over the workload's requests under AMAC and under the
//! no-prefetch baseline, and, in a traced run, price single layers.

use std::time::Instant;

use amac_suite::engine::Technique;
use amac_suite::metrics::timer::cycles_now;
use amac_suite::workload::{Relation, Tuple};

use crate::span::Spans;
use crate::sys::Pin;

pub mod index_walk;
pub mod probe;
pub mod serve_closed;
pub mod write_mix;

/// Tuples per latency-sampled request.
pub const BATCH: usize = 4096;

/// Input scale. `Quick` is the `--quick` smoke mode: it exercises every
/// code path on inputs `2^QUICK_SHIFT` times smaller and is never used
/// for a reported number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

const QUICK_SHIFT: u32 = 7;

impl Size {
    /// `2^log2` at full size, `2^(log2 - QUICK_SHIFT)` (at least one
    /// batch) in quick mode.
    pub fn tuples(self, log2: u32) -> usize {
        match self {
            Size::Full => 1 << log2,
            Size::Quick => (1usize << log2.saturating_sub(QUICK_SHIFT)).max(BATCH),
        }
    }

    /// A repetition count: the full value, or a handful in quick mode.
    pub fn count(self, full: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Quick => (full >> QUICK_SHIFT).max(16),
        }
    }
}

/// Operations attempted and failed, counted in tuples. A repetition (or
/// request) whose result differs from the reference fails all its tuples.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, tuples: u64, ok: bool) {
        self.attempted += tuples;
        if !ok {
            self.failed += tuples;
        }
    }
}

/// What a workload needs from the runner: the span recorder, the failure
/// tally, and the process-wide cycle clock.
pub struct Ctx {
    pub sp: Spans,
    pub tally: Tally,
    /// The CPU pin, when the sandbox permitted one.
    pub pin: Option<Pin>,
    born: (Instant, u64),
}

impl Ctx {
    pub fn new(recording: bool, pin: Option<Pin>) -> Self {
        Ctx {
            sp: Spans::new(recording),
            tally: Tally::default(),
            pin,
            born: (Instant::now(), cycles_now()),
        }
    }

    /// `rdtsc` cycles per microsecond, measured since the run began (so
    /// it is accurate to a few ppm once the run is seconds old).
    pub fn cycles_per_us(&self) -> f64 {
        let cycles = cycles_now().saturating_sub(self.born.1) as f64;
        cycles / (self.born.0.elapsed().as_secs_f64() * 1e6)
    }

    /// `cycles` in seconds.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cycles_per_us() / 1e6
    }

    /// Time `f` in a span named `name`, check its result, and return the
    /// result with its cost in cycles per tuple.
    pub fn priced<T>(
        &mut self,
        name: &'static str,
        tuples: usize,
        f: impl FnOnce() -> T,
        ok: impl FnOnce(&T) -> bool,
    ) -> (T, f64) {
        let (out, cycles) = self.sp.time(name, f);
        self.tally.record(tuples as u64, ok(&out));
        (out, cycles as f64 / tuples as f64)
    }
}

/// Named per-layer values a traced run reports.
pub type Layers = Vec<(&'static str, f64)>;

/// What one pass over a workload's requests cost.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Cycles per block. A block is a fixed share of the pass's requests,
    /// the same share in every pass, a few milliseconds long: short enough
    /// that a burst of interference spoils some blocks of a pass and not
    /// the pass.
    pub blocks: Vec<u64>,
    /// Submit-to-result latency of every request, in microseconds.
    pub latencies_us: Vec<f64>,
}

impl Pass {
    /// A pass made of separately timed requests, `per_block` to a block.
    pub fn of_requests(request_cycles: &[u64], per_block: usize, ctx: &Ctx) -> Pass {
        let per_us = ctx.cycles_per_us();
        Pass {
            blocks: request_cycles.chunks(per_block).map(|c| c.iter().sum()).collect(),
            latencies_us: request_cycles.iter().map(|&c| c as f64 / per_us).collect(),
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Generate the inputs from `seed` and build every structure the
    /// measured operation needs. This is what `setup_s` times.
    fn setup(seed: u64, size: Size, ctx: &mut Ctx) -> Self;

    /// Compute the reference results from the generated inputs. Runs
    /// once, after the last set-up, outside every timed region.
    fn build_oracle(&mut self);

    /// Tuples one pass processes.
    fn tuples_per_pass(&self) -> u64;

    /// One pass over the workload's requests under `technique`, every
    /// result checked against the reference.
    fn pass(&mut self, technique: Technique, ctx: &mut Ctx) -> Pass;

    /// Checks of the final state, after the last pass.
    fn finish(&mut self, _ctx: &mut Ctx) {}

    /// Digest of the generated inputs (same seed, same digest).
    fn input_digest(&self) -> u64;

    /// Price single layers (traced runs only).
    fn layers(&mut self, size: Size, ctx: &mut Ctx) -> Layers;
}

/// The fastest of `reps` calls of `f` (each returning cycles per tuple):
/// interference only ever adds cycles.
pub fn fastest_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    crate::stats::fastest((0..reps).map(|_| f()))
}

/// Repetitions behind each per-layer number.
pub fn layer_reps(size: Size) -> usize {
    match size {
        Size::Full => 5,
        Size::Quick => 2,
    }
}

/// `payload_of[key]` for a relation with dense unique keys `1..=n`
/// (index 0 is unused).
pub fn payload_by_key(rel: &Relation) -> Vec<u64> {
    let mut model = vec![0; rel.len() + 1];
    for t in &rel.tuples {
        model[t.key as usize] = t.payload;
    }
    model
}

/// Expected `(matches, checksum)` of probing `probes` against unique
/// keys `1..payload_of.len()` with payloads `payload_of[key]`.
pub fn expected_probe(payload_of: &[u64], probes: &[Tuple]) -> (u64, u64) {
    probes
        .iter()
        .filter(|t| (1..payload_of.len() as u64).contains(&t.key))
        .fold((0, 0), |(matches, checksum), t| {
            (matches + 1, checksum.wrapping_add(payload_of[t.key as usize]))
        })
}

/// A 64-bit digest of the generated inputs (FNV-1a over keys and
/// payloads): the same seed must give the same digest.
pub fn digest<'a>(relations: impl IntoIterator<Item = &'a Relation>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in relations.into_iter().flat_map(|r| &r.tuples) {
        for word in [t.key, t.payload] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
