//! The simulated-clock window calibration against a synthetic chain op:
//! `TuningParams::auto_sim` must hill-climb to a ladder rung, stay on
//! the default when the latency is already hidden, and deepen the window
//! once the far tier out-runs it. (The same property over the real
//! `ProbeOp` lives in `tests/ops_sim.rs`.)

use amac::engine::{Hooks, LookupOp, Step, TuningParams, AUTO_MAX_IN_FLIGHT, AUTO_MIN_IN_FLIGHT};
use amac_tier::{AddrClass, ExecCtx, ExecSpec, TierSpec};

/// A chain-walking op whose every hop lands in the far tier — the
/// minimal tiered `LookupOp` (mirrors what `ProbeOp` does with a context).
struct FarChainOp {
    chains: Vec<usize>,
    cx: ExecCtx,
}

#[derive(Default)]
struct ChainState {
    left: usize,
    ready_at: u64,
    group: u32,
}

/// Any slab line: far under `headers_near`.
const FAR: AddrClass = AddrClass::Slab { slab: 0, line: 0 };

impl FarChainOp {
    fn new(chains: &[usize], mult: u64) -> Self {
        let spec = ExecSpec { tier: Some(TierSpec::headers_near(mult)), ..Default::default() };
        FarChainOp { chains: chains.to_vec(), cx: ExecCtx::new(&spec) }
    }
}

impl LookupOp for FarChainOp {
    type Input = usize;
    type State = ChainState;
    type Tally = ();
    type Output = core::convert::Infallible;

    fn start<const PLAIN: bool>(&mut self, _: &mut (), input: usize, state: &mut ChainState) {
        state.left = self.chains[input];
        state.group = self.cx.begin_lane();
        state.ready_at = self.cx.request(FAR, 0, state.group).ready_at;
    }

    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut ChainState) -> Step {
        self.cx.wait(state.ready_at);
        self.cx.stage();
        if state.left <= 1 {
            self.cx.retire_lane(state.group);
            return Step::Done;
        }
        state.left -= 1;
        state.ready_at = self.cx.request(FAR, 0, state.group).ready_at;
        Step::Continue
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.cx
    }
}

fn chains(n: usize) -> Vec<usize> {
    (0..n).map(|i| 1 + (i * 13) % 5).collect()
}

#[test]
fn auto_sim_rests_on_default_when_latency_is_hidden() {
    let ch = chains(4096);
    let inputs: Vec<usize> = (0..ch.len()).collect();
    let m = TuningParams::auto_sim(|| FarChainOp::new(&ch, 1), &inputs).in_flight;
    assert_eq!(m, TuningParams::default().in_flight, "4-tick loads are hidden at M = 10");
}

#[test]
fn auto_sim_deepens_the_window_at_8x() {
    let ch = chains(4096);
    let inputs: Vec<usize> = (0..ch.len()).collect();
    let m1 = TuningParams::auto_sim(|| FarChainOp::new(&ch, 1), &inputs).in_flight;
    let m8 = TuningParams::auto_sim(|| FarChainOp::new(&ch, 8), &inputs).in_flight;
    assert!((AUTO_MIN_IN_FLIGHT..=AUTO_MAX_IN_FLIGHT).contains(&m1), "picked {m1}");
    assert!((AUTO_MIN_IN_FLIGHT..=AUTO_MAX_IN_FLIGHT).contains(&m8), "picked {m8}");
    assert!(m8 > 32, "8x far latency = 32 ticks: M = {m8} must out-window it");
    assert!(m8 > m1, "deeper far tier must mean deeper window ({m1} -> {m8})");
}

#[test]
fn auto_sim_small_samples_fall_back_to_default() {
    let ch = chains(100);
    let inputs: Vec<usize> = (0..ch.len()).collect();
    let m = TuningParams::auto_sim(|| FarChainOp::new(&ch, 8), &inputs).in_flight;
    assert_eq!(m, TuningParams::default().in_flight);
}
