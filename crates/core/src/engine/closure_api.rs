//! Closure-based convenience front-end.
//!
//! The paper's §6 ("AMAC automation") wishes for "a generalized software
//! model and framework for AMAC-style execution" with "minimal
//! modifications to baseline code". This module is that front-end: instead
//! of implementing [`super::LookupOp`], callers provide two
//! closures — one to *start* a lookup (issue the first prefetch, return
//! state) and one to *advance* it — and get interleaved execution of any
//! technique.
//!
//! No operator, driver or scenario runs on it: every operator is a
//! [`super::LookupOp`]. It is kept only for the benchmark harness's rung 0
//! (`engine.closure_loop`), the price of a hand-written probe closure with
//! no operator layer above the engine.
//!
//! ```
//! use amac::engine::closure_api::{for_each_interleaved, Resume};
//! use amac::engine::Technique;
//!
//! // Sum the lengths of simulated pointer chains, 8 in flight.
//! let chains: Vec<u64> = (1..=100).collect();
//! let mut total = 0u64;
//! let stats = for_each_interleaved(
//!     Technique::Amac,
//!     &chains,
//!     8,
//!     |&len| len,                         // start: state = remaining steps
//!     |remaining| {
//!         if *remaining > 1 {
//!             *remaining -= 1;            // ... prefetch the next node here
//!             Resume::Later
//!         } else {
//!             Resume::Finished
//!         }
//!     },
//! );
//! assert_eq!(stats.lookups, 100);
//! total += stats.stages;
//! # let _ = total;
//! ```

use super::{run, EngineStats, LookupOp, Step, Technique, TuningParams};

/// What an `advance` closure reports about its lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// More pointer chasing to do — the closure issued its next prefetch.
    Later,
    /// The lookup completed.
    Finished,
    /// A latch was busy; no progress was made.
    Blocked,
}

/// GP/SPP stage budget of every closure run (the paper's `N`).
const BUDGET: usize = 4;

struct ClosureOp<'c, I, S, FStart, FStep>
where
    FStart: FnMut(&I) -> S,
    FStep: FnMut(&mut S) -> Resume,
{
    start: &'c mut FStart,
    advance: &'c mut FStep,
    _marker: core::marker::PhantomData<fn(&I) -> S>,
}

impl<I: Copy, S: Default, FStart, FStep> LookupOp for ClosureOp<'_, I, S, FStart, FStep>
where
    FStart: FnMut(&I) -> S,
    FStep: FnMut(&mut S) -> Resume,
{
    type Input = I;
    type State = S;
    type Tally = ();
    type Output = core::convert::Infallible;

    fn start<const PLAIN: bool>(&mut self, _: &mut (), input: I, state: &mut S) {
        *state = (self.start)(&input);
    }

    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut S) -> Step {
        match (self.advance)(state) {
            Resume::Later => Step::Continue,
            Resume::Finished => Step::Done,
            Resume::Blocked => Step::Blocked,
        }
    }
}

/// Run `start`/`advance` over `inputs` with `in_flight` concurrent
/// lookups under `technique` (GP and SPP with a stage budget of 4).
pub fn for_each_interleaved<I: Copy, S: Default>(
    technique: Technique,
    inputs: &[I],
    in_flight: usize,
    mut start: impl FnMut(&I) -> S,
    mut advance: impl FnMut(&mut S) -> Resume,
) -> EngineStats {
    let mut op =
        ClosureOp { start: &mut start, advance: &mut advance, _marker: core::marker::PhantomData };
    run(technique, &mut op, inputs, TuningParams::with_in_flight(in_flight), BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_api_runs_all_techniques_equivalently() {
        let chains: Vec<u64> = (0..50).map(|i| 1 + (i * 13) % 9).collect();
        let mut outputs: Vec<Vec<u64>> = Vec::new();
        for t in Technique::ALL {
            let mut done: Vec<u64> = Vec::new();
            #[derive(Default)]
            struct St {
                id: u64,
                remaining: u64,
            }
            let stats = for_each_interleaved(
                t,
                &chains.iter().copied().enumerate().collect::<Vec<_>>(),
                6,
                |&(i, len)| St { id: i as u64, remaining: len },
                |st| {
                    if st.remaining > 1 {
                        st.remaining -= 1;
                        Resume::Later
                    } else {
                        done.push(st.id);
                        Resume::Finished
                    }
                },
            );
            assert_eq!(stats.lookups, chains.len() as u64, "{t}");
            let mut sorted = done.clone();
            sorted.sort_unstable();
            outputs.push(sorted);
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
    }

    #[test]
    fn blocked_resume_is_deferred() {
        // Lookup 0 blocks until lookup 1 finishes.
        let mut one_done = false;
        let order = std::cell::RefCell::new(Vec::new());
        let stats = for_each_interleaved(
            Technique::Amac,
            &[0u32, 1],
            2,
            |&i| i,
            |i| {
                if *i == 0 && !one_done {
                    Resume::Blocked
                } else {
                    if *i == 1 {
                        one_done = true;
                    }
                    order.borrow_mut().push(*i);
                    Resume::Finished
                }
            },
        );
        assert_eq!(stats.lookups, 2);
        assert!(stats.latch_retries > 0);
        assert_eq!(*order.borrow(), vec![1, 0]);
    }

    #[test]
    fn empty_inputs() {
        let stats =
            for_each_interleaved(Technique::Spp, &[] as &[u8], 4, |_| 0u8, |_| Resume::Finished);
        assert_eq!(stats, EngineStats::default());
    }
}
