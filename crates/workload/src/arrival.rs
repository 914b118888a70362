//! Arrival processes and tenant mixes for the serving experiments.
//!
//! The serving layer (`amac_server`, `bench serve`) needs
//! *open-loop* load: queries arrive on their own schedule whether or not
//! the engine has finished the previous ones — that is what exposes
//! queueing delay, admission backpressure and tail latency, where a
//! closed loop would silently self-throttle. Two deterministic pieces:
//!
//! * [`PoissonArrivals`] — exponential inter-arrival times via inversion
//!   (`-mean · ln(1 - u)`), the memoryless arrival process behind an
//!   M/G/1 view of the serving window;
//! * [`TenantMix`] — which tenant each arriving query belongs to:
//!   uniform, or Zipf-skewed (a few hot tenants dominating, sampled with
//!   the same Hörmann rejection-inversion sampler as the key
//!   distributions).
//!
//! Both are seeded and dependency-free, so a load trace is reproducible
//! bit-for-bit across runs and hosts.

use amac_mem::rng::XorShift64;

use crate::zipf::ZipfSampler;

/// A deterministic Poisson arrival process: an iterator of absolute
/// arrival timestamps in nanoseconds, starting at the first inter-arrival
/// gap after 0.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: XorShift64,
    mean_ns: f64,
    clock_ns: f64,
}

impl PoissonArrivals {
    /// A process with the given mean inter-arrival time (equivalently,
    /// rate `1e9 / mean_ns` queries per second). `mean_ns` is clamped to
    /// at least 1 ns.
    pub fn new(mean_ns: f64, seed: u64) -> Self {
        PoissonArrivals { rng: XorShift64::new(seed), mean_ns: mean_ns.max(1.0), clock_ns: 0.0 }
    }

    /// Mean inter-arrival time in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.mean_ns
    }

    /// Draw the next inter-arrival gap (exponential, inversion method).
    fn gap_ns(&mut self) -> f64 {
        // u uniform in (0, 1]: keep 53 mantissa bits, offset so ln never
        // sees 0.
        let u = ((self.rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        -self.mean_ns * u.ln()
    }
}

impl Iterator for PoissonArrivals {
    type Item = u64;

    /// The next absolute arrival time in nanoseconds.
    fn next(&mut self) -> Option<u64> {
        self.clock_ns += self.gap_ns();
        Some(self.clock_ns as u64)
    }
}

/// Which tenant an arriving query belongs to.
#[derive(Debug, Clone)]
pub enum TenantMix {
    /// Every tenant equally likely.
    Uniform {
        /// Number of tenants.
        tenants: usize,
        /// RNG state.
        rng: XorShift64,
    },
    /// Zipf-skewed popularity: tenant 0 hottest.
    Zipf {
        /// Sampler over `1..=tenants` (mapped down to `0..tenants`).
        sampler: ZipfSampler,
    },
}

impl TenantMix {
    /// A uniform mix over `tenants` tenants.
    pub fn uniform(tenants: usize, seed: u64) -> Self {
        TenantMix::Uniform { tenants: tenants.max(1), rng: XorShift64::new(seed) }
    }

    /// A Zipf(θ) mix over `tenants` tenants (θ = 0 degenerates to
    /// uniform; θ = 1 gives the classic heavy head).
    pub fn zipf(tenants: usize, theta: f64, seed: u64) -> Self {
        TenantMix::Zipf { sampler: ZipfSampler::new(tenants.max(1) as u64, theta, seed) }
    }

    /// Number of tenants in the mix.
    pub fn tenants(&self) -> usize {
        match self {
            TenantMix::Uniform { tenants, .. } => *tenants,
            TenantMix::Zipf { sampler } => sampler.n() as usize,
        }
    }

    /// Sample the tenant of the next arriving query, in `0..tenants`.
    pub fn sample(&mut self) -> usize {
        match self {
            TenantMix::Uniform { tenants, rng } => rng.next_below(*tenants as u64) as usize,
            TenantMix::Zipf { sampler } => (sampler.sample() - 1) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_converges() {
        let mean = 10_000.0; // 10 µs
        let n = 50_000usize;
        let last = PoissonArrivals::new(mean, 42).nth(n - 1).unwrap();
        let got = last as f64 / n as f64;
        assert!((got - mean).abs() < mean * 0.05, "empirical mean inter-arrival {got} vs {mean}");
    }

    #[test]
    fn poisson_is_deterministic_and_monotone() {
        let a: Vec<u64> = PoissonArrivals::new(5_000.0, 7).take(1000).collect();
        let b: Vec<u64> = PoissonArrivals::new(5_000.0, 7).take(1000).collect();
        assert_eq!(a, b, "same seed must reproduce the trace");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrival times must not go backwards");
        let c: Vec<u64> = PoissonArrivals::new(5_000.0, 8).take(1000).collect();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn uniform_mix_covers_all_tenants() {
        let mut mix = TenantMix::uniform(4, 9);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[mix.sample()] += 1;
        }
        for (t, &c) in counts.iter().enumerate() {
            assert!((1_500..=2_500).contains(&c), "tenant {t} drew {c}/8000 under a uniform mix");
        }
    }

    #[test]
    fn zipf_mix_concentrates_on_tenant_zero() {
        let mut mix = TenantMix::zipf(8, 1.0, 11);
        let mut counts = [0usize; 8];
        for _ in 0..8_000 {
            counts[mix.sample()] += 1;
        }
        assert!(counts[0] > counts[7] * 3, "θ=1 head {counts:?} not heavy enough");
        assert_eq!(counts.iter().sum::<usize>(), 8_000);
    }

    #[test]
    fn single_tenant_mix_is_degenerate() {
        let mut mix = TenantMix::uniform(1, 3);
        assert_eq!(mix.tenants(), 1);
        for _ in 0..10 {
            assert_eq!(mix.sample(), 0);
        }
        let mut zm = TenantMix::zipf(1, 1.0, 3);
        for _ in 0..10 {
            assert_eq!(zm.sample(), 0);
        }
    }
}
