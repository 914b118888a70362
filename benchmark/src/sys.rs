//! The two things the harness asks the operating system for: a CPU to
//! stay on, and the process's peak resident set.

/// A `cpu_set_t`: 1024 CPUs, one bit each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, if the kernel tells.
#[cfg(target_os = "linux")]
fn allowed() -> Option<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set.0` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set.0` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_: &CpuSet) -> bool {
    false
}

/// The calling thread pinned to one CPU, and the set it had before.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    pub cpu: usize,
    one: CpuSet,
    all: CpuSet,
}

impl Pin {
    /// Pin the calling thread (and the threads it spawns later) to the
    /// highest-numbered CPU it is allowed on: CPU 0 is where a small box
    /// takes its interrupts. `None` when the platform or the sandbox
    /// refuses.
    pub fn to_one_cpu() -> Option<Pin> {
        let all = allowed()?;
        let (word, bits) = all.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = CpuSet([0; 16]);
        one.0[word] = 1 << bit;
        set_affinity(&one).then_some(Pin { cpu: word * 64 + bit, one, all })
    }

    /// Run `f` with the original CPU set (for the one measurement that
    /// spawns a second worker), then pin again.
    pub fn unpinned<T>(&self, f: impl FnOnce() -> T) -> T {
        set_affinity(&self.all);
        let out = f();
        set_affinity(&self.one);
        out
    }
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
