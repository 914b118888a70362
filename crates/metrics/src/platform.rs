//! Host platform description (the analogue of the paper's Table 2).

use std::fmt;

/// Description of the machine the experiments run on.
#[derive(Debug, Clone, Default)]
pub struct Platform {
    /// CPU model string, if discoverable.
    pub cpu_model: String,
    /// Logical CPUs visible to this process.
    pub logical_cpus: usize,
    /// Total system memory in GiB, if discoverable.
    pub mem_gib: f64,
    /// Whether `perf_event_open` hardware counters are usable.
    pub perf_counters: bool,
    /// Target architecture.
    pub arch: &'static str,
    /// Base page size in bytes (0 if not discoverable).
    pub page_bytes: usize,
    /// Kernel transparent-huge-page mode (`always`, `madvise` or `never`;
    /// `unavailable` where the kernel has no such setting). Under `never`
    /// the large `amac_mem::Region`s sit on base pages and a DRAM-resident
    /// cycles/tuple figure is not comparable with one measured elsewhere.
    pub thp_mode: String,
}

/// The kernel's transparent-huge-page mode: the bracketed word of
/// `/sys/kernel/mm/transparent_hugepage/enabled`, if there is such a file.
pub fn thp_mode() -> Option<String> {
    let modes = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
    let (_, rest) = modes.split_once('[')?;
    Some(rest.split_once(']')?.0.to_string())
}

/// Bytes of this process currently backed by transparent huge pages
/// (`AnonHugePages` of `/proc/self/smaps_rollup`), if the kernel reports it.
pub fn anon_huge_bytes() -> Option<usize> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let line = rollup.lines().find(|l| l.starts_with("AnonHugePages:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(target_os = "linux")]
fn page_bytes() -> usize {
    // SAFETY: `sysconf` reads a constant of the running system.
    let n = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
    usize::try_from(n).unwrap_or(0)
}

#[cfg(not(target_os = "linux"))]
fn page_bytes() -> usize {
    0
}

impl Platform {
    /// Probe the current host.
    pub fn detect() -> Platform {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mem_gib = std::fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("MemTotal"))
                    .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
            })
            .map(|kb| kb / 1024.0 / 1024.0)
            .unwrap_or(0.0);
        Platform {
            cpu_model,
            logical_cpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            mem_gib,
            perf_counters: crate::perf::available(),
            arch: std::env::consts::ARCH,
            page_bytes: page_bytes(),
            thp_mode: thp_mode().unwrap_or_else(|| "unavailable".to_string()),
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Platform (cf. paper Table 2)")?;
        writeln!(f, "  arch           : {}", self.arch)?;
        writeln!(f, "  cpu model      : {}", self.cpu_model)?;
        writeln!(f, "  logical cpus   : {}", self.logical_cpus)?;
        writeln!(f, "  memory         : {:.1} GiB", self.mem_gib)?;
        writeln!(f, "  base page      : {} B", self.page_bytes)?;
        writeln!(f, "  THP mode       : {}", self.thp_mode)?;
        writeln!(
            f,
            "  hw perf events : {}",
            if self.perf_counters { "yes" } else { "no (software proxies in use)" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_populates_fields() {
        let p = Platform::detect();
        assert!(p.logical_cpus >= 1);
        assert!(!p.arch.is_empty());
        let s = p.to_string();
        assert!(s.contains("logical cpus"));
        assert!(s.contains("THP mode"));
        if cfg!(target_os = "linux") {
            assert!(p.page_bytes.is_power_of_two());
            assert!(["always", "madvise", "never", "unavailable"].contains(&p.thp_mode.as_str()));
        }
    }
}
