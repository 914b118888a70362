//! Adaptive in-flight calibration on the simulated clock.
//!
//! The paper fixes `M ≈ 10` because that saturates the L1-D MSHRs of its
//! Xeon (§2.2.2). When the latency being hidden is *simulated*
//! (`amac_tier`), the right window is a property of the cost model, and
//! wall time cannot see it: far-memory sweeps on a DRAM-only host run
//! every window width at the same nanoseconds. [`TuningParams::auto_sim`]
//! therefore hill-climbs a ladder of candidate widths minimizing
//! **simulated ticks** (`sim_cycles + sim_stalls`) — the op factory
//! carries the cost model, so the tuner is literally "auto fed the tier
//! latency": at far multiplier 1× the default `M = 10` already hides the
//! 4-tick near latency and the climb stays put, while at 8× (32 ticks)
//! every rung below 33 pays stalls and the climb walks up the ladder
//! until the window out-laps the far tier. Fully deterministic (one trial
//! per rung, counters only), so benches gate its picks exactly.
//!
//! The probe phase *executes* lookups, so it is only safe for read-only
//! ops (probe/search). Mutating ops (build, insert, group-by) must tune on
//! a scratch copy of their structure or fall back to the presets.

use super::{run_amac, LookupOp, TuningParams};

/// Smallest window the tuner will pick.
pub const AUTO_MIN_IN_FLIGHT: usize = 4;
/// Largest window the tuner will pick.
pub const AUTO_MAX_IN_FLIGHT: usize = 64;

/// Candidate widths, geometric-ish so the climb spans 4..=64 in few
/// probes. Derivation rules pinned by the `ladder_*` unit tests:
/// strictly ascending, first rung == [`AUTO_MIN_IN_FLIGHT`], last rung ==
/// [`AUTO_MAX_IN_FLIGHT`], and the default `M = 10` is a rung (the climb
/// starts there). The tuner can only ever return a rung, so every
/// `in_flight` it produces satisfies
/// `AUTO_MIN_IN_FLIGHT <= m <= AUTO_MAX_IN_FLIGHT`.
const LADDER: [usize; 10] = [4, 6, 8, 10, 12, 16, 24, 32, 48, 64];

impl TuningParams {
    /// Calibrate the in-flight window against a **simulated** cost model
    /// (see the module docs). `make_op` builds a fresh lookup op per
    /// probe trial (each trial re-executes the sample, so per-op
    /// accumulators must start clean) carrying the tier clock whose
    /// latency is being hidden (e.g. a tiered `ProbeOp`); ops without a
    /// clock report 0 ticks and get the default back. `sample` should be
    /// a representative slice or stride-sample of the real input.
    pub fn auto_sim<O, F>(mut make_op: F, sample: &[O::Input]) -> TuningParams
    where
        O: LookupOp,
        F: FnMut() -> O,
    {
        TuningParams::with_in_flight(auto_tune_in_flight_sim(&mut make_op, sample))
    }
}

/// Simulated ticks (`sim_cycles + sim_stalls`) to run `sample` at width
/// `m` — deterministic, one trial.
fn measure_sim<O, F>(make_op: &mut F, sample: &[O::Input], m: usize) -> f64
where
    O: LookupOp,
    F: FnMut() -> O,
{
    let mut op = make_op();
    let stats = run_amac(&mut op, sample, m);
    (stats.sim_cycles + stats.sim_stalls) as f64
}

/// Hill-climb the ladder on the simulated clock; see
/// [`TuningParams::auto_sim`]. Always returns a rung, and samples smaller
/// than 512 lookups return the paper default. The objective is an exact
/// counter with zero measurement noise, so any strict improvement is
/// real — the climb therefore keeps deepening the window until a rung is
/// (as good as) stall-free.
pub fn auto_tune_in_flight_sim<O, F>(make_op: &mut F, sample: &[O::Input]) -> usize
where
    O: LookupOp,
    F: FnMut() -> O,
{
    if sample.len() < 512 {
        return TuningParams::default().in_flight.clamp(AUTO_MIN_IN_FLIGHT, AUTO_MAX_IN_FLIGHT);
    }
    climb(|m| measure_sim(make_op, sample, m))
}

/// The hill climb: start at the default rung, move to a neighbour only
/// on a strict improvement of `cost`, return the resting rung. Each rung
/// is evaluated at most once.
fn climb(mut cost: impl FnMut(usize) -> f64) -> usize {
    let mut times = [f64::INFINITY; LADDER.len()];
    let mut idx = LADDER.iter().position(|&m| m == 10).unwrap_or(3);
    times[idx] = cost(LADDER[idx]);
    loop {
        let mut best = idx;
        for next in [idx.wrapping_sub(1), idx + 1] {
            if next >= LADDER.len() {
                continue;
            }
            if times[next].is_infinite() {
                times[next] = cost(LADDER[next]);
            }
            if times[next] < times[best] {
                best = next;
            }
        }
        if best == idx {
            return LADDER[idx];
        }
        idx = best;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::ChainOp;
    use super::*;

    #[test]
    fn tiny_samples_fall_back_to_default() {
        let chains = vec![2usize; 64];
        let inputs: Vec<usize> = (0..64).collect();
        let params = TuningParams::auto_sim(|| ChainOp::new(&chains), &inputs);
        assert_eq!(params.in_flight, TuningParams::default().in_flight);
    }

    #[test]
    fn ladder_is_sorted_and_bounded() {
        assert!(LADDER.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(LADDER[0], AUTO_MIN_IN_FLIGHT);
        assert_eq!(*LADDER.last().unwrap(), AUTO_MAX_IN_FLIGHT);
        assert!(
            LADDER.iter().all(|&m| (AUTO_MIN_IN_FLIGHT..=AUTO_MAX_IN_FLIGHT).contains(&m)),
            "every rung must lie within the documented bounds"
        );
        assert!(
            LADDER.contains(&TuningParams::default().in_flight),
            "the climb starts at the default M, which must be a rung"
        );
    }

    #[test]
    fn auto_always_returns_a_ladder_rung() {
        // Both the small-sample fallback and the hill climb must land on
        // a rung — the derivation rule documented on LADDER.
        for n in [64usize, 4096] {
            let chains: Vec<usize> = (0..n).map(|i| 1 + i % 4).collect();
            let inputs: Vec<usize> = (0..n).collect();
            let m = auto_tune_in_flight_sim(&mut || ChainOp::new(&chains), &inputs);
            assert!(LADDER.contains(&m), "n={n}: picked off-ladder width {m}");
        }
    }
}
