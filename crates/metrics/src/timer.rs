//! Cycle and wall-clock timing.
//!
//! The paper's primary metric is *cycles per tuple*. On x86_64 we read the
//! TSC directly (`rdtsc` — constant-rate on every CPU of the last decade,
//! so it measures reference cycles). On other targets we fall back to
//! nanoseconds from [`std::time::Instant`], which keeps the relative
//! comparisons intact.

use std::time::Instant;

/// Read the current cycle counter (TSC on x86_64; nanoseconds elsewhere).
#[inline(always)]
pub fn cycles_now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// A running timer that captures both cycles and wall time.
#[derive(Debug, Clone, Copy)]
pub struct CycleTimer {
    start_cycles: u64,
    start_wall: Instant,
}

impl CycleTimer {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        CycleTimer { start_wall: Instant::now(), start_cycles: cycles_now() }
    }

    /// Cycles elapsed since `start`.
    #[inline]
    pub fn cycles(&self) -> u64 {
        cycles_now().saturating_sub(self.start_cycles)
    }

    /// Seconds elapsed since `start`.
    #[inline]
    pub fn seconds(&self) -> f64 {
        self.start_wall.elapsed().as_secs_f64()
    }

    /// Items per second for a run that processed `n` items.
    #[inline]
    pub fn throughput(&self, n: usize) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            return 0.0;
        }
        n as f64 / s
    }
}

/// Measure `f`, returning its result plus (cycles, seconds).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, f64) {
    let t = CycleTimer::start();
    let out = f();
    (out, t.cycles(), t.seconds())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_are_monotonic_nondecreasing() {
        let a = cycles_now();
        let b = cycles_now();
        assert!(b >= a);
    }

    #[test]
    fn timer_measures_positive_duration() {
        let t = CycleTimer::start();
        let mut acc = 0u64;
        for i in 0..100_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        assert!(t.cycles() > 0);
        assert!(t.seconds() >= 0.0);
    }

    #[test]
    fn cycles_per_and_throughput() {
        let t = CycleTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let tput = t.throughput(1_000_000);
        assert!(tput > 0.0 && tput.is_finite());
    }

    #[test]
    fn measure_returns_result() {
        let (v, cyc, secs) = measure(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(cyc > 0 || secs >= 0.0);
    }
}
