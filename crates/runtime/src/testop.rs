//! Synthetic lookup op for the runtime's own tests (mirrors the core
//! crate's private test util; no real memory is chased).

use amac::engine::{LookupOp, Step};

/// Lookup `i` takes `chains[i]` steps, then adds `10 * chains[i]` to an
/// order-independent checksum and records the value at output slot `i`.
pub struct ChainOp {
    chains: Vec<usize>,
    /// Output slot per input index.
    pub outputs: Vec<u64>,
    /// Wrapping sum of every produced output (order-independent).
    pub checksum: u64,
}

/// Per-lookup state for [`ChainOp`].
#[derive(Default)]
pub struct ChainState {
    idx: usize,
    remaining: usize,
}

impl ChainOp {
    /// Op over the given chain lengths.
    pub fn new(chains: &[usize]) -> Self {
        ChainOp { chains: chains.to_vec(), outputs: vec![0; chains.len()], checksum: 0 }
    }
}

impl LookupOp for ChainOp {
    type Input = usize;
    type State = ChainState;
    type Tally = ();
    type Output = core::convert::Infallible;

    fn start<const PLAIN: bool>(&mut self, _: &mut (), input: usize, state: &mut ChainState) {
        assert!(self.chains[input] >= 1, "chains must need at least one step");
        state.idx = input;
        state.remaining = self.chains[input];
    }

    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut ChainState) -> Step {
        if state.remaining > 1 {
            state.remaining -= 1;
            Step::Continue
        } else {
            let v = 10 * self.chains[state.idx] as u64;
            self.outputs[state.idx] = v;
            self.checksum = self.checksum.wrapping_add(v);
            Step::Done
        }
    }
}
