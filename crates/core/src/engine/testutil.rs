//! Mock lookup ops used by the executor unit tests.

use super::{EngineStats, Hooks, LookupOp, Step};
use std::cell::RefCell;

/// A [`ChainOp`]'s context: whether its calls are plain, and what it
/// observed: idle ticks, and a per-rotation
/// recount of an AMAC window's occupancy from the op's side — every `step`
/// is a rotation, and so is a `start` unless it refills the slot the
/// previous call retired (the merged terminal+initial stage is one
/// rotation). The sample is the in-flight count after the rotation.
#[derive(Default)]
pub struct Observed {
    /// Whether the op's calls are [plain](Hooks::plain) (default off: a
    /// plain call charges no idle ticks).
    pub plain: bool,
    /// Ticks charged through [`Hooks::idle`].
    pub idle: u64,
    /// Sum of the per-rotation in-flight samples.
    pub occ_sum: u64,
    /// Rotations counted.
    pub occ_ticks: u64,
    just_retired: bool,
}

impl Hooks for Observed {
    fn plain(&self) -> bool {
        self.plain
    }
    fn idle(&mut self, ticks: u64) {
        self.idle += ticks;
    }
    /// Feed and drain ends flush: a retirement before one was not merged
    /// with whatever `start` comes next.
    fn flush(&mut self, _stats: &mut EngineStats) {
        self.just_retired = false;
    }
}

/// A simulated pointer chase: lookup `i` needs exactly `chains[i]` steps
/// and then materializes `10 * chains[i]` at output position `i`.
///
/// No real memory is chased — this isolates executor *scheduling* logic so
/// stage/no-op/bailout accounting can be asserted exactly.
pub struct ChainOp {
    chains: Vec<usize>,
    /// Output slot per input index (paper: materialized via the rid field).
    pub outputs: Vec<u64>,
    in_flight: usize,
    /// Highest number of simultaneously in-flight lookups observed.
    pub max_concurrent: usize,
    /// Completion order (input indices).
    pub completed: Vec<usize>,
    /// The op's execution context.
    pub seen: Observed,
    /// Whether the op [looks ahead](LookupOp::looks_ahead) (default on).
    pub ahead: bool,
    /// Every input the window asked to look ahead for, in call order.
    pub looked: RefCell<Vec<usize>>,
}

/// Per-lookup state for [`ChainOp`].
#[derive(Default)]
pub struct ChainState {
    idx: usize,
    remaining: usize,
}

impl ChainOp {
    /// Mock over the given chain lengths.
    pub fn new(chains: &[usize]) -> Self {
        ChainOp {
            chains: chains.to_vec(),
            outputs: vec![0; chains.len()],
            in_flight: 0,
            max_concurrent: 0,
            completed: Vec::new(),
            seen: Observed::default(),
            ahead: true,
            looked: RefCell::new(Vec::new()),
        }
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
        self.in_flight += 1;
        self.max_concurrent = self.max_concurrent.max(self.in_flight);
        if self.seen.just_retired {
            self.seen.occ_sum += 1; // same rotation: its sample is the full window
        } else {
            self.seen.occ_sum += self.in_flight as u64;
            self.seen.occ_ticks += 1;
        }
        self.seen.just_retired = false;
    }

    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut ChainState) -> Step {
        let done = state.remaining <= 1;
        if done {
            self.outputs[state.idx] = 10 * self.chains[state.idx] as u64;
            self.completed.push(state.idx);
            self.in_flight -= 1;
        } else {
            state.remaining -= 1;
        }
        self.seen.just_retired = done;
        self.seen.occ_sum += self.in_flight as u64;
        self.seen.occ_ticks += 1;
        if done {
            Step::Done
        } else {
            Step::Continue
        }
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.seen
    }

    fn looks_ahead(&self) -> bool {
        self.ahead
    }

    fn lookahead(&self, input: usize) {
        self.looked.borrow_mut().push(input);
    }
}

/// A mock with an in-flight latch dependency: lookup 0 blocks until every
/// other lookup has completed (a deliberately adversarial single-threaded
/// conflict that dead-locks any executor that spins in place while holding
/// back the blocker's progress).
pub struct LatchedOp {
    n: usize,
    remaining_others: usize,
    /// Completion order.
    pub completed: Vec<usize>,
}

/// Per-lookup state for [`LatchedOp`].
#[derive(Default)]
pub struct LatchedState {
    idx: usize,
    steps_left: usize,
}

impl LatchedOp {
    /// `n` lookups; inputs must be `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        LatchedOp { n, remaining_others: n - 1, completed: Vec::new() }
    }
}

/// No context, so every call is plain.
impl LookupOp for LatchedOp {
    type Input = usize;
    type State = LatchedState;
    type Tally = ();
    type Output = core::convert::Infallible;

    fn start<const PLAIN: bool>(&mut self, _: &mut (), input: usize, state: &mut LatchedState) {
        assert!(input < self.n);
        state.idx = input;
        state.steps_left = 2;
    }

    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut LatchedState) -> Step {
        if state.idx == 0 && self.remaining_others > 0 {
            return Step::Blocked;
        }
        state.steps_left -= 1;
        if state.steps_left == 0 {
            if state.idx != 0 {
                self.remaining_others -= 1;
            }
            self.completed.push(state.idx);
            Step::Done
        } else {
            Step::Continue
        }
    }
}
