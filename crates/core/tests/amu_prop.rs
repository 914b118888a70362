//! Property tests for the execution context's load protocol
//! (`amac_tier::ctx`).
//!
//! Random lanes with random load chains are driven through randomized
//! request/commit/wait/retire interleavings, with a context that has
//! coalescing **off** as the reference:
//!
//! * no lost or double completions — every request yields exactly one
//!   ticket, and waiting on it brings the clock to its `ready_at`;
//! * per-request fault outcomes are identical with coalescing on or off
//!   (coalescing dedups traffic, never semantics);
//! * the counter ledger conserves requests: `issued + coalesced ==
//!   requested` with coalescing on, `issued == requested` with it off;
//! * the flushed `load_faults` ledger is identical either way;
//! * `issued`/`coalesced` totals are a function of birth order alone —
//!   re-running the same lanes under a different interleaving of
//!   issues, waits and retires reproduces them bit-for-bit;
//! * an `AmacSession` feed boundary is a commit point: a lane born in the
//!   next feed does not coalesce against one still in flight.

use amac::engine::{AmacSession, EngineStats, Hooks, LookupOp, Step};
use amac_tier::{AddrClass, ExecCtx, ExecSpec, FaultPlan, Ticket, TierSpec};
use proptest::prelude::*;

/// SplitMix64: the schedule's private decision stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: usize) -> usize {
        ((self.next() as u128 * span as u128) >> 64) as usize
    }
}

/// One lane's load chain, expanded from the generated spec: a handful of
/// loads over a tiny line space (0..16) so lanes collide constantly.
fn expand_lanes(specs: &[(u8, u64)]) -> Vec<Vec<(AddrClass, u64)>> {
    specs
        .iter()
        .map(|&(n_loads, key)| {
            let mut r = Rng(key | 1);
            (0..n_loads.max(1))
                .map(|hop| {
                    let line = r.next() % 16;
                    let ptr = (line << 6) as *const u8;
                    let token = key ^ (hop as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let class = if r.next().is_multiple_of(4) {
                        AddrClass::header_ptr(ptr)
                    } else {
                        AddrClass::slab_ptr((r.next() % 4) as u32, ptr)
                    };
                    (class, token)
                })
                .collect()
        })
        .collect()
}

/// Everything a schedule run observed, for cross-context comparison.
struct Outcome {
    /// Per lane, per request: the resolved ticket.
    tickets: Vec<Vec<Ticket>>,
    requested: u64,
    /// The flushed ledger (`issued_loads`, `coalesced_loads`, faults).
    stats: EngineStats,
}

/// Drive `cx` through the schedule decided by `seed`: births in lane
/// order, requests/waits/retires interleaved at random. The decision
/// sequence depends only on (`lanes`, `seed`) — never on the context's
/// responses — so two contexts given the same arguments see identical
/// protocol traffic.
fn run_schedule(mut cx: ExecCtx, lanes: &[Vec<(AddrClass, u64)>], seed: u64) -> Outcome {
    let mut rng = Rng(seed);
    let n = lanes.len();
    let mut born = 0usize; // lanes started so far (birth order == lane order)
    let mut sent = vec![0usize; n]; // requests issued per lane
    let mut group = vec![0u32; n];
    let mut live = vec![false; n];
    let mut tickets: Vec<Vec<Ticket>> = vec![Vec::new(); n];
    let mut requested = 0u64;
    loop {
        let issuable: Vec<usize> =
            (0..born).filter(|&l| live[l] && sent[l] < lanes[l].len()).collect();
        let retirable: Vec<usize> =
            (0..born).filter(|&l| live[l] && sent[l] == lanes[l].len()).collect();
        if born == n && issuable.is_empty() && retirable.is_empty() {
            break;
        }
        match rng.below(8) {
            // Birth the next lane (lane order is the group-composition
            // invariant; the interleaving varies everything else).
            0 | 1 if born < n => {
                group[born] = cx.begin_lane();
                live[born] = true;
                born += 1;
            }
            2 | 3 if !issuable.is_empty() => {
                let l = issuable[rng.below(issuable.len())];
                let (class, token) = lanes[l][sent[l]];
                cx.stage();
                let t = cx.request(class, token, group[l]);
                requested += 1;
                if rng.below(2) == 0 {
                    // Waiting on a ticket completes it: the clock is at
                    // or past `ready_at` afterwards.
                    cx.wait(t.ready_at);
                    assert!(cx.now() >= t.ready_at, "wait() must complete");
                }
                tickets[l].push(t);
                sent[l] += 1;
            }
            4 if !retirable.is_empty() => {
                let l = retirable[rng.below(retirable.len())];
                cx.retire_lane(group[l]);
                live[l] = false;
            }
            5 => cx.idle(1 + rng.below(3) as u64),
            _ => {
                // Drain progress when the draw picked an infeasible
                // action: issue if possible, else retire, else birth.
                if let Some(&l) = issuable.first() {
                    let (class, token) = lanes[l][sent[l]];
                    cx.stage();
                    let t = cx.request(class, token, group[l]);
                    requested += 1;
                    tickets[l].push(t);
                    sent[l] += 1;
                } else if let Some(&l) = retirable.first() {
                    cx.retire_lane(group[l]);
                    live[l] = false;
                } else if born < n {
                    group[born] = cx.begin_lane();
                    live[born] = true;
                    born += 1;
                }
            }
        }
    }
    cx.commit_group();
    let mut stats = EngineStats::default();
    cx.flush(&mut stats);
    Outcome { tickets, requested, stats }
}

fn ctx(fail_per_mille: u64, coalesce: Option<usize>) -> ExecCtx {
    ExecCtx::new(&ExecSpec {
        tier: Some(TierSpec::headers_near(4)),
        fault: (fail_per_mille > 0).then(|| FaultPlan::fail_only(0xFA_117, fail_per_mille as u16)),
        coalesce,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coalescing_agrees_with_the_uncoalesced_reference(
        specs in prop::collection::vec((1u8..6, 1u64..u64::MAX), 1..12),
        group_size in 1usize..6,
        fail_per_mille in 0u64..300,
        seed in 0u64..u64::MAX,
    ) {
        let lanes = expand_lanes(&specs);
        let scalar = run_schedule(ctx(fail_per_mille, None), &lanes, seed);
        let coal = run_schedule(ctx(fail_per_mille, Some(group_size)), &lanes, seed);

        // Every request resolved exactly once, on both contexts.
        for (l, lane) in lanes.iter().enumerate() {
            prop_assert_eq!(scalar.tickets[l].len(), lane.len(), "lane {} lost a completion", l);
            prop_assert_eq!(coal.tickets[l].len(), lane.len(), "lane {} lost a completion", l);
        }
        prop_assert_eq!(scalar.requested, coal.requested);

        // Fault outcomes are per-request and identical: a coalesced
        // duplicate re-runs the same decision its own issue would have
        // made.
        for l in 0..lanes.len() {
            for (r, (s, c)) in scalar.tickets[l].iter().zip(&coal.tickets[l]).enumerate() {
                prop_assert_eq!(s.failed, c.failed, "lane {} request {} fault diverged", l, r);
            }
        }
        prop_assert_eq!(scalar.stats.load_faults, coal.stats.load_faults);

        // Ledger conservation.
        prop_assert_eq!(scalar.stats.issued_loads, scalar.requested, "off: every request issues");
        prop_assert_eq!(scalar.stats.coalesced_loads, 0u64);
        prop_assert_eq!(coal.stats.issued_loads + coal.stats.coalesced_loads, coal.requested);

        // Dedup only ever removes traffic; a fresh ticket carries the
        // hardware-prefetch gate, a duplicate must not.
        prop_assert!(coal.stats.issued_loads <= scalar.stats.issued_loads);
        let fresh: u64 = coal.tickets.iter().flatten().filter(|t| t.fresh).count() as u64;
        prop_assert_eq!(fresh, coal.stats.issued_loads, "fresh tickets are exactly the issued loads");
    }

    #[test]
    fn coalesced_totals_depend_on_birth_order_alone(
        specs in prop::collection::vec((1u8..6, 1u64..u64::MAX), 1..12),
        group_size in 1usize..6,
        fail_per_mille in 0u64..300,
        seed_a in 0u64..u64::MAX,
        seed_b in 0u64..u64::MAX,
    ) {
        let lanes = expand_lanes(&specs);
        let a = run_schedule(ctx(fail_per_mille, Some(group_size)), &lanes, seed_a);
        let b = run_schedule(ctx(fail_per_mille, Some(group_size)), &lanes, seed_b);
        // Same lanes, same birth order, different interleaving of
        // issues/waits/retires: the dedup totals must be bit-identical
        // (which request of a line is the "fresh" one may differ — the
        // distinct-line count per group cannot).
        prop_assert_eq!(a.requested, b.requested);
        prop_assert_eq!(
            a.stats.issued_loads, b.stats.issued_loads,
            "issued count depends on the interleaving"
        );
        prop_assert_eq!(a.stats.coalesced_loads, b.stats.coalesced_loads);
        prop_assert_eq!(a.stats.load_faults, b.stats.load_faults);
    }
}

/// One lookup per header line: stage 0 requests the line, the first step
/// retires the lane. Records each request's `fresh` bit in birth order.
struct LineOp {
    cx: ExecCtx,
    fresh: Vec<bool>,
}

impl LookupOp for LineOp {
    type Input = u64;
    /// The lane's commit group.
    type State = u32;
    type Tally = ();
    type Output = core::convert::Infallible;

    fn start<const PLAIN: bool>(&mut self, _: &mut (), line: u64, group: &mut u32) {
        *group = self.cx.begin_lane();
        self.fresh.push(self.cx.request(AddrClass::Header { line }, 0, *group).fresh);
    }

    fn step<const PLAIN: bool>(&mut self, _: &mut (), group: &mut u32) -> Step {
        self.cx.retire_lane(*group);
        Step::Done
    }

    fn ctx(&mut self) -> impl Hooks + '_ {
        &mut self.cx
    }
}

/// Two feeds split a commit group of 8 (2 + 1 births) while the first
/// feed's lanes are still in flight in a 4-slot window, all three on
/// header line 5. The first feed's second request coalesces; the second
/// feed's must issue, because the end of a feed seals the group.
#[test]
fn a_feed_boundary_seals_the_commit_group() {
    let cx = ExecCtx::new(&ExecSpec { coalesce: Some(8), ..Default::default() });
    let mut op = LineOp { cx, fresh: Vec::new() };
    let mut session = AmacSession::new(4);
    let mut stats = EngineStats::default();
    session.feed(&mut op, &[5, 5], &mut stats);
    session.feed(&mut op, &[5], &mut stats);
    session.drain(&mut op, &mut stats);
    assert_eq!(op.fresh, [true, false, true], "the second feed's request coalesced");
    assert_eq!((stats.lookups, stats.issued_loads, stats.coalesced_loads), (3, 2, 1));
}
