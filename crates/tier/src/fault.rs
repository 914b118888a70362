//! Seeded, schedule-invariant fault injection for the far tier.
//!
//! Real far-memory backends are a narrow, failure-prone interface: loads
//! time out, tails spike, a device or slab degrades for a while (the
//! AMAU and Twin-Load lines of work both model the far tier this way).
//! [`FaultPlan`] reproduces those three failure shapes *deterministically*
//! on top of the [`SimClock`](crate::SimClock): whether a given load
//! fails or spikes is a pure hash of `(seed, token)`, where the token is
//! derived from the lookup's key and hop index — **not** from issue
//! order — so the same plan produces the same fault set under any
//! executor, any thread count, and any Mux interleaving. That is what
//! lets `bench chaos` gate recovery behavior with exact counters.
//!
//! Faults apply only to **far-tier** loads (a near-DRAM load does not
//! fail in this model); fault-free specs and `AllNear` placements are
//! untouched by construction.
//!
//! # Quickstart
//!
//! This doctest is mirrored as the first half of `examples/chaos.rs`:
//!
//! ```
//! use amac_tier::{fault_token, AddrClass, FaultPlan, SimClock, TierSpec};
//!
//! // 5% of far loads fail, 10% spike to 4x latency, slab 1 is degraded.
//! let plan = FaultPlan {
//!     seed: 0xC0FFEE,
//!     fail_per_mille: 50,
//!     spike_per_mille: 100,
//!     spike_multiplier: 4,
//!     degraded_slab: Some(1),
//! };
//!
//! // Attach the plan to a tiered clock; far slab loads now resolve to
//! // (ready_at, failed) under it instead of always succeeding.
//! let spec = TierSpec::headers_near(8);
//! let mut clock = SimClock::new(spec, Some(plan));
//! let node = AddrClass::Slab { slab: 0, line: 0 };
//! let token = fault_token(0xDEADBEEF, 0); // (key, hop) — order-invariant
//! let (ready_at, failed) = clock.resolve(node, token);
//! assert!(ready_at >= 32); // on time or spiked; if `failed`, the lookup must abort
//!
//! // Determinism: the same (plan, token) always resolves the same way.
//! assert_eq!(plan.fails(token), failed);
//!
//! // Near loads never fault: an AllNear clock is bit-identical to a
//! // fault-free run.
//! let near = TierSpec { policy: amac_tier::TierPolicy::AllNear, ..spec };
//! let mut c = SimClock::new(near, Some(plan));
//! assert_eq!(c.resolve(node, token), (4, false));
//!
//! // Retries reseed, so a retried query dodges deterministic faults.
//! assert_ne!(plan.reseeded(1).seed, plan.seed);
//! ```

/// A deterministic, seeded plan of far-tier failures.
///
/// All probabilities are per-mille (`0..=1000`) over a pure hash of
/// `(seed, token)` — see [`fault_token`] — so a plan is a *function* from
/// loads to outcomes, not a random process: independent of executor,
/// schedule, thread count, and of how many other loads happened first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every decision; two plans with different seeds
    /// fault disjoint-looking subsets of the same workload.
    pub seed: u64,
    /// Per-mille of far loads that fail (the lookup retires as
    /// `Step::Failed`; the serving layer decides whether to retry,
    /// degrade, or give up).
    pub fail_per_mille: u16,
    /// Per-mille of far loads that complete late, at
    /// [`spike_multiplier`](FaultPlan::spike_multiplier)× latency
    /// (evaluated after the fail test; a load fails *or* spikes, never
    /// both). The extra ticks surface as `sim_stalls` unless the window
    /// out-laps them.
    pub spike_per_mille: u16,
    /// Latency multiplier for spiked and degraded loads (clamped to
    /// ≥ 1).
    pub spike_multiplier: u64,
    /// A slab in sustained degradation: **every** load from it is
    /// stretched by the spike multiplier (transient fail/spike tests
    /// still apply first).
    pub degraded_slab: Option<u32>,
}

impl FaultPlan {
    /// A plan that only fails (no spikes, no degraded slab) — the
    /// minimal chaos configuration.
    pub fn fail_only(seed: u64, fail_per_mille: u16) -> Self {
        FaultPlan {
            seed,
            fail_per_mille,
            spike_per_mille: 0,
            spike_multiplier: 1,
            degraded_slab: None,
        }
    }

    /// The same plan under a retry: the attempt index is folded into the
    /// seed, so a retried lookup re-rolls every fault decision instead of
    /// deterministically hitting the identical failure forever.
    /// `reseeded(0)` is the plan itself.
    pub fn reseeded(&self, attempt: u32) -> Self {
        if attempt == 0 {
            return *self;
        }
        FaultPlan { seed: mix(self.seed ^ (attempt as u64).wrapping_mul(SALT_RETRY)), ..*self }
    }

    /// Whether the far load identified by `token` fails under this plan.
    #[inline]
    pub fn fails(&self, token: u64) -> bool {
        per_mille(mix(self.seed ^ token ^ SALT_FAIL)) < self.fail_per_mille as u64
    }

    /// Whether the far load identified by `token` latency-spikes under
    /// this plan (independent hash from the fail test).
    #[inline]
    pub fn spikes(&self, token: u64) -> bool {
        per_mille(mix(self.seed ^ token ^ SALT_SPIKE)) < self.spike_per_mille as u64
    }

    /// The effective latency multiplier (≥ 1) for spiked loads.
    #[inline]
    pub fn multiplier(&self) -> u64 {
        self.spike_multiplier.max(1)
    }
}

/// Identity of one far load for fault decisions: the lookup's key plus
/// its hop index along the chain. Both are properties of the *workload*,
/// not the schedule, which is what makes fault sets identical across
/// executors, Mux interleavings, and thread counts.
#[inline]
pub fn fault_token(key: u64, hop: u32) -> u64 {
    key ^ (hop as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

const SALT_FAIL: u64 = 0xF417_0000_0000_0001;
const SALT_SPIKE: u64 = 0x5B1C_E000_0000_0002;
const SALT_RETRY: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a cheap, well-mixed `u64 -> u64` bijection.
/// Shared with [`crate::CrashPlan`], which draws its crash tick from the
/// same pure-hash discipline.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

#[inline]
fn per_mille(h: u64) -> u64 {
    h % 1000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_and_token() {
        let plan = FaultPlan::fail_only(42, 100);
        for key in 0..1000u64 {
            let t = fault_token(key, 3);
            assert_eq!(plan.fails(t), plan.fails(t));
        }
    }

    #[test]
    fn fail_rate_tracks_per_mille() {
        let plan = FaultPlan::fail_only(7, 100); // 10%
        let n = 100_000u64;
        let hits = (0..n).filter(|&k| plan.fails(fault_token(k, 0))).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "observed fail rate {rate}");
        let never = FaultPlan::fail_only(7, 0);
        assert_eq!((0..1000).filter(|&k| never.fails(fault_token(k, 0))).count(), 0);
        let always = FaultPlan::fail_only(7, 1000);
        assert_eq!((0..1000).filter(|&k| always.fails(fault_token(k, 0))).count(), 1000);
    }

    #[test]
    fn fail_and_spike_hash_independently() {
        let plan = FaultPlan {
            seed: 3,
            fail_per_mille: 500,
            spike_per_mille: 500,
            spike_multiplier: 4,
            degraded_slab: None,
        };
        // If the hashes were correlated, fails ∩ spikes would be ~all or
        // ~none of fails; independent hashes give ~25% of all tokens.
        let n = 10_000u64;
        let both = (0..n)
            .filter(|&k| plan.fails(fault_token(k, 0)) && plan.spikes(fault_token(k, 0)))
            .count();
        let frac = both as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "joint rate {frac} not ~0.25");
    }

    #[test]
    fn tokens_differ_across_hops() {
        assert_ne!(fault_token(5, 0), fault_token(5, 1));
        assert_ne!(fault_token(5, 0), fault_token(6, 0));
    }

    #[test]
    fn reseeding_changes_the_fault_set_but_is_stable() {
        let plan = FaultPlan::fail_only(9, 200);
        let r1 = plan.reseeded(1);
        assert_eq!(plan.reseeded(0), plan);
        assert_eq!(plan.reseeded(1), r1, "reseeding is deterministic");
        assert_ne!(r1.seed, plan.seed);
        // The reseeded plan faults a different subset (statistically).
        let n = 10_000u64;
        let overlap = (0..n)
            .filter(|&k| plan.fails(fault_token(k, 0)) && r1.fails(fault_token(k, 0)))
            .count();
        let base = (0..n).filter(|&k| plan.fails(fault_token(k, 0))).count();
        assert!(overlap < base, "reseeding must not reproduce the same fault set");
    }
}
