//! The four lookup executors and their shared vocabulary.
//!
//! # Model
//!
//! A *lookup* is a short state machine over a pointer chain:
//!
//! 1. [`LookupOp::start`] — the paper's *code stage 0*: consume one input
//!    tuple, compute the first node address (hash the key / take the root),
//!    **issue a prefetch** for it, and record everything needed to resume in
//!    the per-lookup state.
//! 2. [`LookupOp::step`] — every later code stage: dereference the
//!    previously prefetched node and either finish ([`Step::Done`]),
//!    prefetch the next node ([`Step::Continue`]), or report a busy latch
//!    ([`Step::Blocked`], no progress made).
//!
//! A lookup with the paper's "N dependent memory accesses / N+1 code
//! stages" is thus one `start` plus N `step`s. GP and SPP size their
//! static schedules by such an `N`, the stage budget: the driver derives
//! it from its data and passes it to [`run_gp`], [`run_spp`] or [`run`]
//! beside the width `M`. The op does not know it; AMAC and the baseline
//! need none.
//!
//! # Prefetch accounting convention
//!
//! Each `start` and each `step` returning `Continue` issues exactly one
//! prefetch; `Done`/`Blocked` issue none. The executors use this convention
//! to maintain the prefetch counter without threading a stats handle
//! through the hot path — **gated** on [`Hooks::issues_prefetches`], so an
//! op running the `PrefetchHint::None` ablation honestly reports zero.
//! Lookahead prefetches (below) are not counted, in
//! [`EngineStats::prefetches`] or in any ledger.
//!
//! # Lookahead
//!
//! A lookup's stage-0 address depends only on its key, so it can be
//! requested before the lookup has a window slot. When input `i` enters
//! an [`AmacSession`] window of width `M < 16`, the session calls
//! [`LookupOp::lookahead`] for input `i + M` of the same feed, which
//! issues that lookup's stage-0 prefetch and does nothing else; the line
//! is on its way about one rotation before the lookup starts. The window
//! thus keeps up to `2M` misses in flight with `M` slots. From `M = 16`
//! up the window alone keeps enough in flight (a DRAM-resident probe read
//! even with lookahead at `M = 16` and slower at `M = 20`), so wider
//! windows do not look ahead. It is a hint
//! outside the simulation: no counter, clock or trace moves. An op opts
//! in through [`LookupOp::looks_ahead`]: the probe and mutate ops over a
//! chained hash table do, when its bucket array is at least a huge page.
//! The reference rotation loop behind the §3.1 ablations, GP, SPP and the
//! baseline never look ahead, so an AMAC in-flight sweep below `M = 16`
//! (Fig. 6) compares AMAC *with* lookahead against GP and SPP without.
//!
//! # Execution context
//!
//! Everything cross-cutting — the simulated clock, commit groups, the
//! tracer, and the counters only the op can see (chain nodes actually
//! dereferenced, SWAR tag rejections) — lives in the op's execution
//! context, reached through [`LookupOp::ctx`] and driven through
//! [`Hooks`]. Executors drain its ledger into [`EngineStats`] at the end
//! of every run (an [`AmacSession`] per feed/drain), so the counters stay
//! exact even when one op instance serves many morsels.
//!
//! # One mode per call
//!
//! Every executor call asks the op's context once, at its start, whether
//! it is *plain* ([`Hooks::plain`]). Each op writes its two code stages
//! once, generic over that answer: [`LookupOp::start`] and
//! [`LookupOp::step`] take `PLAIN` and the op's loop-carried scalars (its
//! [`Tally`](LookupOp::Tally)). A plain call keeps the tally in its own
//! locals, runs the `PLAIN = true` stages inline in its loop and settles
//! the tally into the op ([`LookupOp::settle`]) before every flush. Any
//! other call runs each `PLAIN = false` stage through the engine's one
//! out-of-line metered pair ([`call::step`]): a fresh tally from
//! [`LookupOp::tally`], the stage, and the settle. The mode is never
//! tested inside the loop.
//!
//! A plain AMAC call with no slot live ([`run_amac`], or an
//! [`AmacSession::feed`] into an empty window) first offers its whole
//! input to the op's batch stage ([`LookupOp::batch`]), before it
//! allocates or fills a slot. An op that takes it runs every lookup to
//! completion its own way and returns the nodes it dereferenced; the
//! window then counts what its loop would have: a lookup and a stage per
//! input, a stage and a prefetch per node. The hash-join probe takes it
//! with the AVX-512 kernel `amac_hashtable::vector` on a host that has
//! AVX-512F/DQ. Metered calls, feeds into a window with slots live, GP,
//! SPP and the baseline never ask, and the serving lanes (the mux's
//! `LaneView`) and fused chains ([`pipeline`]) keep the default, so they
//! run the window.

pub(crate) mod amac_exec;
mod baseline;
pub mod call;
pub mod closure_api;
mod gp;
mod hooks;
pub mod mux;
pub mod pipeline;
mod spp;
mod stats;
mod tune;

pub use crate::session::AmacSession;
pub use amac_exec::{run_amac, run_amac_modulo, run_amac_no_merge};
pub use baseline::run_baseline;
pub use gp::run_gp;
pub use hooks::Hooks;
pub use spp::run_spp;
pub use stats::EngineStats;
pub use tune::{auto_tune_in_flight_sim, AUTO_MAX_IN_FLIGHT, AUTO_MIN_IN_FLIGHT};

/// Outcome of one executed code stage. `O` is what a finished lookup
/// hands the next operator of a fused chain ([`LookupOp::Output`]);
/// [`Infallible`](core::convert::Infallible), the default, for an op that
/// materializes its own output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<O = core::convert::Infallible> {
    /// The stage issued a prefetch for the next node; resume this lookup
    /// after other lookups have had a turn.
    Continue,
    /// The lookup finished and hands nothing on: its output (if any) has
    /// been materialized by the op, or it left a fused chain (a probe
    /// miss, a filtered tuple).
    Done,
    /// A latch was busy; the stage made **no progress** and must be retried.
    Blocked,
    /// A simulated far-memory load came back with a failed ticket and
    /// the lookup aborted: the slot retires
    /// like [`Step::Done`] (it frees its window slot and counts toward
    /// `lookups`), but no output was produced and
    /// [`EngineStats::failed_lookups`] records the abort. Fault policy
    /// (retry, degrade, shed) lives in `amac_server`, not here.
    Failed,
    /// The lookup finished and hands `O` downstream: a
    /// [`Chain`](pipeline::Chain) starts it in the next operator in the
    /// same rotation, a [`Fused`](pipeline::Fused) sink consumes it. An
    /// executor retires it like [`Step::Done`].
    Emit(O),
}

/// One pointer-chasing workload, written once and run by all four
/// executors.
///
/// Implementations materialize their own outputs (they own output buffers
/// or accumulators), so executors return only [`EngineStats`]; an
/// operator of a fused chain hands its output on through [`Step::Emit`].
pub trait LookupOp {
    /// Per-tuple input (16-byte tuples in all paper workloads).
    type Input: Copy;
    /// Per-lookup resumable state — the paper's circular-buffer entry
    /// (key, payload, rid, node pointer, stage).
    type State: Default;
    /// The op's loop-carried scalars (its ledger and accumulators), held
    /// in the executor's locals on a plain call instead of behind
    /// `&mut self`. `()` for an op without any.
    type Tally: Copy + Default;
    /// What a finished lookup hands downstream ([`Step::Emit`]):
    /// [`Infallible`](core::convert::Infallible) for an op that
    /// materializes its own output.
    type Output;

    /// Whether the op routes each stage to another op's state machine
    /// (the serving sum type, the mux's lane view): its metered stages
    /// then run inline, and the routed op's go through [`call::step`].
    /// `false` (the default): a metered stage is one out-of-line call.
    const ROUTES: bool = false;

    /// Code stage 0: begin a lookup for `input`, issuing the first
    /// prefetch, counting into `tally`. `PLAIN` is the call's mode (see
    /// "One mode per call" in the [module docs](self)): a plain stage may
    /// skip every [`Hooks`] call.
    fn start<const PLAIN: bool>(
        &mut self,
        tally: &mut Self::Tally,
        input: Self::Input,
        state: &mut Self::State,
    );

    /// Execute the next code stage of the lookup held in `state`, in mode
    /// `PLAIN`, counting into `tally`.
    fn step<const PLAIN: bool>(
        &mut self,
        tally: &mut Self::Tally,
        state: &mut Self::State,
    ) -> Step<Self::Output>;

    /// The op's loop-carried scalars as they stand, with an empty ledger.
    #[inline(always)]
    fn tally(&self) -> Self::Tally {
        Self::Tally::default()
    }

    /// Write a tally back: accumulators into the op, the ledger into its
    /// context's observations.
    #[inline(always)]
    fn settle(&mut self, tally: Self::Tally) {
        let _ = tally;
    }

    /// The op's execution context (see [`Hooks`]). Default: `()`, no
    /// context — every call is plain and the hook calls compile away.
    #[inline(always)]
    fn ctx(&mut self) -> impl Hooks + '_ {}

    /// The batch stage (see "One mode per call" in the
    /// [module docs](self)): run every lookup of `inputs` to completion
    /// in a window of width `m` of the op's own, counting into `tally`
    /// what its plain stages would, and return the chain nodes it
    /// dereferenced. `None` (the default): not taken, nothing touched.
    #[inline(always)]
    fn batch(&mut self, tally: &mut Self::Tally, inputs: &[Self::Input], m: usize) -> Option<u64> {
        let _ = (tally, inputs, m);
        None
    }

    /// Asked once per [`AmacSession::feed`] call, like the mode: whether
    /// the window should call [`lookahead`](LookupOp::lookahead) (see
    /// "Lookahead" in the [module docs](self)). `false` (the default) for
    /// an op whose stage 0 has no miss to hide.
    #[inline(always)]
    fn looks_ahead(&self) -> bool {
        false
    }

    /// Issue stage 0's hardware prefetch for `input` and nothing else: no
    /// lane, ticket, clock tick, ledger entry or trace event. The window
    /// calls it one window width before `input`'s own `start`.
    #[inline(always)]
    fn lookahead(&self, input: Self::Input) {
        let _ = input;
    }
}

/// The prefetching technique to execute a workload with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// No-prefetch sequential execution.
    Baseline,
    /// Group Prefetching (Chen et al., TODS 2007).
    Gp,
    /// Software-Pipelined Prefetching (Chen et al., TODS 2007).
    Spp,
    /// Asynchronous Memory Access Chaining (this paper).
    Amac,
}

impl Technique {
    /// All techniques, in the paper's presentation order.
    pub const ALL: [Technique; 4] =
        [Technique::Baseline, Technique::Gp, Technique::Spp, Technique::Amac];

    /// Short label used in tables ("Baseline", "GP", "SPP", "AMAC").
    pub fn label(self) -> &'static str {
        match self {
            Technique::Baseline => "Baseline",
            Technique::Gp => "GP",
            Technique::Spp => "SPP",
            Technique::Amac => "AMAC",
        }
    }
}

impl core::fmt::Display for Technique {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl core::str::FromStr for Technique {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "baseline" | "base" | "nop" => Ok(Technique::Baseline),
            "gp" | "group" => Ok(Technique::Gp),
            "spp" | "pipeline" => Ok(Technique::Spp),
            "amac" => Ok(Technique::Amac),
            other => Err(format!("unknown technique '{other}'")),
        }
    }
}

/// Executor tuning knobs.
///
/// `in_flight` is the paper's `M`: the number of concurrent lookups a
/// single thread keeps in flight (group size for GP, pipeline width for
/// SPP, circular-buffer size for AMAC). The paper finds ~10 saturates a
/// Xeon core's L1-D MSHRs and uses the best value per technique
/// (GP 15, SPP 12, AMAC 10) — those are the [`TuningParams::paper_best`]
/// presets. On a newer core the knee sits further right (a DRAM-resident
/// probe kept improving up to `M` ≈ 16–20 on a Xeon with AVX-512). The
/// presets stay the paper's, so the simulated counters and the figures
/// keep the paper's `M`; the AMAC window recovers most of that gap at
/// `M = 10` through its lookahead (see the [module docs](self)), not all
/// of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningParams {
    /// Number of in-flight lookups per thread (the paper's `M`).
    pub in_flight: usize,
}

impl Default for TuningParams {
    fn default() -> Self {
        TuningParams { in_flight: 10 }
    }
}

impl TuningParams {
    /// Fixed width for all techniques.
    pub fn with_in_flight(in_flight: usize) -> Self {
        TuningParams { in_flight }
    }

    /// The per-technique best configurations reported in §2.2.2/§5.1.
    pub fn paper_best(t: Technique) -> Self {
        TuningParams {
            in_flight: match t {
                Technique::Baseline => 1,
                Technique::Gp => 15,
                Technique::Spp => 12,
                Technique::Amac => 10,
            },
        }
    }
}

/// Run `op` over `inputs` with the given technique and tuning.
/// `n_stages` is the paper's `N`, the stage budget GP and SPP size their
/// static schedules by; AMAC and the baseline ignore it.
pub fn run<O: LookupOp>(
    technique: Technique,
    op: &mut O,
    inputs: &[O::Input],
    params: TuningParams,
    n_stages: usize,
) -> EngineStats {
    match technique {
        Technique::Baseline => run_baseline(op, inputs),
        Technique::Gp => run_gp(op, inputs, params.in_flight, n_stages),
        Technique::Spp => run_spp(op, inputs, params.in_flight, n_stages),
        Technique::Amac => run_amac(op, inputs, params.in_flight),
    }
}

#[cfg(test)]
pub(crate) mod testutil;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_labels_roundtrip_from_str() {
        for t in Technique::ALL {
            let parsed: Technique = t.label().parse().unwrap();
            assert_eq!(parsed, t);
        }
        assert!("frobnicate".parse::<Technique>().is_err());
    }

    #[test]
    fn tuning_defaults_match_paper() {
        assert_eq!(TuningParams::default().in_flight, 10);
        assert_eq!(TuningParams::paper_best(Technique::Gp).in_flight, 15);
        assert_eq!(TuningParams::paper_best(Technique::Spp).in_flight, 12);
        assert_eq!(TuningParams::paper_best(Technique::Amac).in_flight, 10);
        assert_eq!(TuningParams::paper_best(Technique::Baseline).in_flight, 1);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(Technique::Amac.to_string(), "AMAC");
        assert_eq!(Technique::Gp.to_string(), "GP");
    }
}
