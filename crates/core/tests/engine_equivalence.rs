//! Cross-executor equivalence: all four techniques are *schedules* of the
//! same lookups, so for any workload they must produce identical outputs
//! and complete the same number of lookups. This is the core correctness
//! property of the whole reproduction — the paper's Figure 2 shows three
//! execution *orders* of the same ten lookups.

use amac::engine::{
    run, run_amac, run_amac_modulo, run_amac_no_merge, LookupOp, Step, Technique, TuningParams,
};
use proptest::prelude::*;

/// A deterministic simulated pointer chase (same as the unit-test mock but
/// local to this integration test): lookup `i` takes `chains[i]` steps and
/// writes `seed ^ i` at position `i`.
struct SimOp {
    chains: Vec<usize>,
    outputs: Vec<u64>,
}

#[derive(Default)]
struct SimState {
    idx: usize,
    remaining: usize,
}

impl SimOp {
    fn new(chains: Vec<usize>) -> Self {
        let n = chains.len();
        SimOp { chains, outputs: vec![u64::MAX; n] }
    }
}

impl LookupOp for SimOp {
    type Input = usize;
    type State = SimState;
    type Tally = ();
    type Output = core::convert::Infallible;

    fn start<const PLAIN: bool>(&mut self, _: &mut (), input: usize, state: &mut SimState) {
        state.idx = input;
        state.remaining = self.chains[input];
    }

    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut SimState) -> Step {
        if state.remaining > 1 {
            state.remaining -= 1;
            Step::Continue
        } else {
            self.outputs[state.idx] = 0xC0FFEE ^ state.idx as u64;
            Step::Done
        }
    }
}

fn run_all_techniques(chains: &[usize], budget: usize, m: usize) -> Vec<Vec<u64>> {
    let inputs: Vec<usize> = (0..chains.len()).collect();
    Technique::ALL
        .iter()
        .map(|&t| {
            let mut op = SimOp::new(chains.to_vec());
            let stats = run(t, &mut op, &inputs, TuningParams::with_in_flight(m), budget);
            assert_eq!(
                stats.lookups,
                chains.len() as u64,
                "{t} completed a wrong number of lookups"
            );
            assert!(op.outputs.iter().all(|&o| o != u64::MAX), "{t} left unmaterialized outputs");
            op.outputs
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_executors_equivalent_on_random_chains(
        chains in prop::collection::vec(1usize..12, 0..80),
        budget in 1usize..8,
        m in 1usize..20,
    ) {
        let outs = run_all_techniques(&chains, budget, m);
        for (i, o) in outs.iter().enumerate().skip(1) {
            prop_assert_eq!(&outs[0], o, "technique #{} diverged", i);
        }
    }

    #[test]
    fn amac_ablations_equivalent(
        chains in prop::collection::vec(1usize..10, 1..60),
        m in 1usize..16,
    ) {
        let inputs: Vec<usize> = (0..chains.len()).collect();
        let mut a = SimOp::new(chains.clone());
        let mut b = SimOp::new(chains.clone());
        let mut c = SimOp::new(chains.clone());
        run_amac(&mut a, &inputs, m);
        run_amac_no_merge(&mut b, &inputs, m);
        run_amac_modulo(&mut c, &inputs, m);
        prop_assert_eq!(&a.outputs, &b.outputs);
        prop_assert_eq!(&a.outputs, &c.outputs);
    }

    #[test]
    fn stage_conservation(
        chains in prop::collection::vec(1usize..9, 1..50),
        budget in 1usize..6,
        m in 1usize..12,
    ) {
        // Productive work (stages + bailout extra) is schedule-invariant:
        // every executor performs exactly sum(1 + chains[i]) productive
        // stage executions; schedules differ only in overhead (noops).
        let want: u64 = chains.iter().map(|&c| 1 + c as u64).sum();
        let inputs: Vec<usize> = (0..chains.len()).collect();
        for t in Technique::ALL {
            let mut op = SimOp::new(chains.clone());
            let stats = run(t, &mut op, &inputs, TuningParams::with_in_flight(m), budget);
            prop_assert_eq!(
                stats.stages + stats.bailout_stages, want,
                "{} productive-stage conservation violated", t
            );
        }
    }
}

#[test]
fn amac_interleaves_lookups() {
    // With m = 4, AMAC must actually interleave: the engine's scheduling
    // visits slot 0..3 round-robin, so with equal chains every lookup's
    // final step lands in input order, but starts overlap. We detect
    // interleaving via stage conservation + the fact that a width-4 run
    // finishes lookups in buffer order, not strictly input order, when
    // chains differ.
    struct OrderOp {
        chains: Vec<usize>,
        finish_order: Vec<usize>,
    }
    #[derive(Default)]
    struct S {
        idx: usize,
        remaining: usize,
    }
    impl LookupOp for OrderOp {
        type Input = usize;
        type State = S;
        type Tally = ();
        type Output = core::convert::Infallible;
        fn start<const PLAIN: bool>(&mut self, _: &mut (), i: usize, s: &mut S) {
            s.idx = i;
            s.remaining = self.chains[i];
        }
        fn step<const PLAIN: bool>(&mut self, _: &mut (), s: &mut S) -> Step {
            if s.remaining > 1 {
                s.remaining -= 1;
                Step::Continue
            } else {
                self.finish_order.push(s.idx);
                Step::Done
            }
        }
    }
    // Lookup 0 is long, lookups 1..3 short: short ones must finish first.
    let mut op = OrderOp { chains: vec![10, 1, 1, 1], finish_order: vec![] };
    run_amac(&mut op, &[0usize, 1, 2, 3], 4);
    assert_eq!(op.finish_order, vec![1, 2, 3, 0], "AMAC must not serialize behind lookup 0");
}
