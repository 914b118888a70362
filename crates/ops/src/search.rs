//! Ordered-index point search (§5.3, §5.4) under all four techniques:
//! one op over any [`Cursor`].
//!
//! Table 1 gives BST and skip-list search one shape, and the B+-tree
//! search has it too. Stage 0 takes a tuple and the cursor walks the
//! structure's hot prefix inline; each later stage is one cursor step.
//! [`crate::bst`], [`crate::btree`] and [`crate::skiplist`] each call
//! [`search`] with their cursor and the GP/SPP budget their config
//! derives.

use amac::engine::{run, EngineStats, LookupOp, Step, Technique, TuningParams};
use amac_mem::{Cursor, Move};
use amac_metrics::timer::CycleTimer;
use amac_workload::{Relation, Tuple};
use core::convert::Infallible;

/// Result of one search run.
#[derive(Debug, Clone, Default)]
pub struct SearchOutput {
    /// Lookups that found their key.
    pub found: u64,
    /// Wrapping sum of found payloads (order-independent checksum).
    pub checksum: u64,
    /// Found payload per input tuple (`u64::MAX` = miss) when
    /// materializing, else empty.
    pub out: Vec<u64>,
    /// Executor event counters.
    pub stats: EngineStats,
    /// Search-loop cycles.
    pub cycles: u64,
    /// Search-loop wall time.
    pub seconds: f64,
}

/// Per-lookup state: the circular-buffer entry of Figure 4, with the
/// cursor standing in for the `stage` field.
#[derive(Default)]
pub struct SearchState<C> {
    key: u64,
    idx: usize,
    cursor: C,
}

/// The search state machine over cursor `C`.
pub struct SearchOp<'i, C: Cursor<'i>> {
    index: &'i C::Index,
    materialize: bool,
    found: u64,
    checksum: u64,
    out: Vec<u64>,
    cursor: usize,
}

impl<'i, C: Cursor<'i>> SearchOp<'i, C> {
    /// Create the op for `n_probes` lookups against `index`.
    pub fn new(index: &'i C::Index, materialize: bool, n_probes: usize) -> Self {
        SearchOp {
            index,
            materialize,
            found: 0,
            checksum: 0,
            out: if materialize { vec![u64::MAX; n_probes] } else { Vec::new() },
            cursor: 0,
        }
    }

    /// Keys found so far (for drivers that own the op, e.g. `parallel`).
    #[inline]
    pub fn found(&self) -> u64 {
        self.found
    }

    /// Order-independent payload checksum accumulated so far.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

impl<'i, C: Cursor<'i>> LookupOp for SearchOp<'i, C> {
    type Input = Tuple;
    type State = SearchState<C>;
    type Tally = ();
    type Output = Infallible;

    /// Stage 0: get new tuple, walk the hot prefix, access (prefetch)
    /// the first node below it. Inlined by force: with the walk's loop
    /// the stage outgrew the inliner's budget, and an out-of-line stage 0
    /// is a call per lookup from every executor.
    #[inline(always)]
    fn start<const PLAIN: bool>(&mut self, _: &mut (), input: Tuple, state: &mut SearchState<C>) {
        state.key = input.key;
        state.idx = self.cursor;
        state.cursor = C::start(self.index, input.key);
        self.cursor += 1;
    }

    /// Later stages: visit the prefetched node — output on match, else
    /// prefetch and move toward the key.
    #[inline(always)]
    fn step<const PLAIN: bool>(&mut self, _: &mut (), state: &mut SearchState<C>) -> Step {
        match state.cursor.step(state.key) {
            Move::Descended => Step::Continue,
            Move::Found(payload) => {
                self.found += 1;
                self.checksum = self.checksum.wrapping_add(payload);
                if self.materialize {
                    self.out[state.idx] = payload;
                }
                Step::Done
            }
            Move::Missed => Step::Done,
        }
    }
}

/// Run `probe_rel` lookups against `index` with `technique`, GP and SPP
/// with the stage budget `n_stages`.
pub fn search<'i, C: Cursor<'i>>(
    index: &'i C::Index,
    probe_rel: &Relation,
    technique: Technique,
    params: TuningParams,
    n_stages: usize,
    materialize: bool,
) -> SearchOutput {
    let mut op = SearchOp::<C>::new(index, materialize, probe_rel.len());
    let timer = CycleTimer::start();
    let stats = run(technique, &mut op, &probe_rel.tuples, params, n_stages);
    SearchOutput {
        found: op.found,
        checksum: op.checksum,
        out: op.out,
        stats,
        cycles: timer.cycles(),
        seconds: timer.seconds(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashMap;

    /// `probe` against an index of `keys`, searched by `search`: under
    /// every technique each probe gets the payload `keys` stores for it
    /// (found, checksum and, when materialized, the payload per probe),
    /// and every probe is one lookup.
    pub(crate) fn answers_agree(
        keys: &Relation,
        probe: &Relation,
        search: impl Fn(Technique) -> SearchOutput,
    ) {
        let stored: HashMap<u64, u64> = keys.tuples.iter().map(|t| (t.key, t.payload)).collect();
        let want: Vec<Option<u64>> =
            probe.tuples.iter().map(|t| stored.get(&t.key).copied()).collect();
        let found = want.iter().flatten().count() as u64;
        let checksum = want.iter().flatten().fold(0u64, |c, &p| c.wrapping_add(p));
        for t in Technique::ALL {
            let out = search(t);
            let totals = (out.found, out.checksum, out.stats.lookups);
            assert_eq!(totals, (found, checksum, probe.len() as u64), "{t}");
            if !out.out.is_empty() {
                let got: Vec<Option<u64>> =
                    out.out.iter().map(|&p| (p != u64::MAX).then_some(p)).collect();
                assert_eq!(got, want, "{t}");
            }
        }
    }

    /// A probe of the keys in `keys`.
    pub(crate) fn probe(keys: core::ops::Range<u64>) -> Relation {
        Relation::from_tuples(keys.map(|k| Tuple::new(k, 0)).collect())
    }
}
