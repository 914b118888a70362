//! `index_walk`: point lookups in a binary search tree, a skip list and a
//! B+-tree over the same keys.
//!
//! Long, variable-length dependent pointer chains through `tree`,
//! `skiplist` and `btree`, and none of `hashtable`: an engine-level gain
//! should carry over to this workload, a hashtable-only gain must not
//! move it.

use amac_suite::btree::BPlusTree;
use amac_suite::engine::{Technique, TuningParams};
use amac_suite::ops::bst::{bst_search, BstConfig};
use amac_suite::ops::btree::{btree_search, BTreeConfig};
use amac_suite::ops::skiplist::{skip_search, SkipConfig};
use amac_suite::skiplist::SkipList;
use amac_suite::tree::Bst;
use amac_suite::workload::Relation;

use super::{digest, fastest_of, layer_reps, Ctx, Layers, Pass, Size, Workload, BATCH};

const KEYS_LOG2: u32 = 20;
const LOOKUPS_LOG2: u32 = 17;
/// Requests per block of a pass: 5 to 10 ms under AMAC.
const REQUESTS_PER_BLOCK: usize = 4;

pub struct IndexWalk {
    keys: Relation,
    /// The lookups of one pass: a sample of `keys`, so each finds
    /// its key and the reference checksum is the sum of its payloads.
    lookups: Relation,
    bst: Bst,
    skip: SkipList,
    btree: BPlusTree,
    /// The lookups again, as the `BATCH`-sized requests a pass sends.
    requests: Vec<Relation>,
    expect: (u64, u64),
    request_expect: Vec<(u64, u64)>,
    setup_layers: Layers,
}

/// The three structures, in the order a pass walks them.
#[derive(Clone, Copy)]
enum Index {
    Bst,
    Skip,
    BTree,
}

/// Per structure: the span around its search, and its two per-layer
/// metrics (AMAC, baseline).
const INDEXES: [(Index, &str, [&str; 2]); 3] = [
    (
        Index::Bst,
        "ops.bst.bst_search",
        ["ops.bst.amac_cycles_per_tuple", "ops.bst.baseline_cycles_per_tuple"],
    ),
    (
        Index::Skip,
        "ops.skiplist.skip_search",
        ["ops.skiplist.amac_cycles_per_tuple", "ops.skiplist.baseline_cycles_per_tuple"],
    ),
    (
        Index::BTree,
        "ops.btree.btree_search",
        ["ops.btree.amac_cycles_per_tuple", "ops.btree.baseline_cycles_per_tuple"],
    ),
];

fn found_and_checksum(lookups: &[amac_suite::workload::Tuple]) -> (u64, u64) {
    (lookups.len() as u64, lookups.iter().fold(0, |sum, t| sum.wrapping_add(t.payload)))
}

impl IndexWalk {
    /// `(found, checksum)` of searching `index` for `lookups`.
    fn search(&self, index: Index, lookups: &Relation, technique: Technique) -> (u64, u64) {
        let params = TuningParams::paper_best(technique);
        match index {
            Index::Bst => {
                let cfg = BstConfig { params, materialize: false, ..Default::default() };
                let o = bst_search(&self.bst, lookups, technique, &cfg);
                (o.found, o.checksum)
            }
            Index::Skip => {
                let o = skip_search(
                    &self.skip,
                    lookups,
                    technique,
                    &SkipConfig { params, n_stages: 0 },
                );
                (o.found, o.checksum)
            }
            Index::BTree => {
                let o = btree_search(
                    &self.btree,
                    lookups,
                    technique,
                    &BTreeConfig { params, materialize: false },
                );
                (o.found, o.checksum)
            }
        }
    }
}

impl Workload for IndexWalk {
    fn setup(seed: u64, size: Size, ctx: &mut Ctx) -> Self {
        let n = size.tuples(KEYS_LOG2);
        let ((keys, lookups), gen) = ctx.sp.time("workload.gen", || {
            let keys = Relation::sparse_unique(n, seed);
            let mut lookups = keys.shuffled(seed ^ 0xF00D);
            lookups.tuples.truncate(size.tuples(LOOKUPS_LOG2));
            (keys, lookups)
        });
        let (bst, bst_cycles) = ctx.sp.time("tree.build", || Bst::build(&keys));
        let (skip, skip_cycles) = ctx.sp.time("skiplist.build", || {
            let list = SkipList::new();
            {
                let mut handle = list.handle(seed);
                for t in &keys.tuples {
                    handle.insert(t.key, t.payload);
                }
            }
            list
        });
        let (btree, btree_cycles) = ctx.sp.time("btree.build", || BPlusTree::build(&keys));
        let setup_layers = vec![
            ("workload.gen_s", ctx.seconds(gen)),
            ("tree.build_s", ctx.seconds(bst_cycles)),
            ("skiplist.build_s", ctx.seconds(skip_cycles)),
            ("btree.build_s", ctx.seconds(btree_cycles)),
        ];
        let requests =
            lookups.tuples.chunks_exact(BATCH).map(|c| Relation::from_tuples(c.to_vec())).collect();
        IndexWalk {
            keys,
            lookups,
            requests,
            bst,
            skip,
            btree,
            expect: (0, 0),
            request_expect: Vec::new(),
            setup_layers,
        }
    }

    fn build_oracle(&mut self) {
        self.expect = found_and_checksum(&self.lookups.tuples);
        self.request_expect = self.requests.iter().map(|r| found_and_checksum(&r.tuples)).collect();
    }

    fn tuples_per_pass(&self) -> u64 {
        self.lookups.len() as u64
    }

    /// Every structure answers every request, one `*_search` call each;
    /// cycles per lookup therefore add up the three structures. The median
    /// request is one of the middle-priced structure: the three have equal
    /// shares of the requests.
    fn pass(&mut self, technique: Technique, ctx: &mut Ctx) -> Pass {
        let mut cycles = Vec::with_capacity(INDEXES.len() * self.requests.len());
        for (index, span, _) in INDEXES {
            for (request, expect) in self.requests.iter().zip(&self.request_expect) {
                let (found, spent) = ctx.sp.time(span, || self.search(index, request, technique));
                ctx.tally.record(BATCH as u64, found == *expect);
                cycles.push(spent);
            }
        }
        Pass::of_requests(&cycles, REQUESTS_PER_BLOCK, ctx)
    }

    fn input_digest(&self) -> u64 {
        digest([&self.keys, &self.lookups])
    }

    fn layers(&mut self, size: Size, ctx: &mut Ctx) -> Layers {
        let mut out = self.setup_layers.clone();
        for (index, span, names) in INDEXES {
            for (name, t) in names.into_iter().zip([Technique::Amac, Technique::Baseline]) {
                let (lookups, expect) = (&self.lookups, self.expect);
                let value = fastest_of(layer_reps(size), || {
                    ctx.priced(
                        span,
                        lookups.len(),
                        || self.search(index, lookups, t),
                        |o| *o == expect,
                    )
                    .1
                });
                out.push((name, value));
            }
        }
        out
    }
}
