//! Software prefetch intrinsics.
//!
//! The paper uses `PREFETCHNTA` on x86 (via gcc built-ins) and the SPARC
//! "strong" prefetch variant. On stable Rust the x86 family is exposed
//! through [`core::arch::x86_64::_mm_prefetch`]. On other architectures the
//! functions compile to nothing, so the executors remain portable (they just
//! degrade to the no-prefetch baseline behaviour).
//!
//! Prefetching is always safe in the ISA sense — the instruction is a hint
//! and never faults — but Rust's intrinsic takes a raw pointer, so the
//! wrappers here accept `*const T` and are safe to call with any address,
//! including dangling ones.

/// Issue a non-temporal prefetch (`PREFETCHNTA`) for the cache line
/// containing `ptr`.
///
/// This is the variant used throughout the paper's x86 experiments: the line
/// is fetched close to the core while minimizing pollution of the outer
/// cache levels, which is the right trade-off for pointer chains that are
/// visited exactly once per lookup.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_NTA }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// Issue a temporal prefetch (`PREFETCHT0`) for the cache line containing
/// `ptr`, pulling it into every cache level.
///
/// The ordered indexes' node kernels issue it (`amac_tree`, `amac_btree`,
/// `amac_skiplist`): every lookup walks their upper levels again, so those
/// lines are worth keeping in L2. It is also the `T0` policy of the hint
/// ablation.
#[inline(always)]
pub fn prefetch_read_t0<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// Prefetch a line that is about to be written.
///
/// This is **not** `PREFETCHW`: stable Rust's `_mm_prefetch` only exposes
/// the read hints (the write/`ET0` hints sit behind unstable features), so
/// this wrapper issues a plain temporal `PREFETCHT0`. That is an acceptable
/// stand-in for the latched build/insert paths — the line still arrives in
/// L1, and the subsequent locked latch instruction upgrades it to exclusive
/// ownership — but it does *not* request ownership up front the way real
/// `PREFETCHW` would. The name records intent, not the opcode; the hint
/// ablation (`bench ablation`, [`PrefetchHint::Write`]) sweeps this
/// policy alongside the read hints so the substitution stays honest.
#[inline(always)]
pub fn prefetch_write<T>(ptr: *const T) {
    prefetch_read_t0(ptr);
}

/// Which prefetch instruction an executor should issue.
///
/// The paper fixes `PREFETCHNTA` on x86; the harness exposes the policy so
/// the choice can be benchmarked (see `bench ablation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchHint {
    /// Non-temporal (`PREFETCHNTA`) — the paper's choice.
    #[default]
    Nta,
    /// All-levels temporal (`PREFETCHT0`).
    T0,
    /// Write-intent policy ([`prefetch_write`]): currently `PREFETCHT0` on
    /// stable Rust (see that function's caveat). Exists so the hint
    /// ablation can sweep the write-intent path like any other policy.
    Write,
    /// Do not prefetch at all (turns any executor into a pure interleaving
    /// scheme; useful to separate interleaving benefit from prefetch
    /// benefit).
    None,
}

impl PrefetchHint {
    /// Issue a prefetch for `ptr` according to the policy.
    ///
    /// The paper's `Nta` is tested first and issued in line; the ablation
    /// hints live out of line, so a stage inlined into an executor loop
    /// pays one compare per prefetch, not a jump table.
    #[inline(always)]
    pub fn issue<T>(self, ptr: *const T) {
        if self == PrefetchHint::Nta {
            prefetch_read(ptr);
        } else {
            self.issue_ablation(ptr.cast());
        }
    }

    #[cold]
    #[inline(never)]
    fn issue_ablation(self, ptr: *const u8) {
        match self {
            PrefetchHint::Nta => prefetch_read(ptr),
            PrefetchHint::T0 => prefetch_read_t0(ptr),
            PrefetchHint::Write => prefetch_write(ptr),
            PrefetchHint::None => {}
        }
    }

    /// Whether [`issue`](PrefetchHint::issue) emits an instruction at all.
    /// Ops report this to the executors so `EngineStats::prefetches` stays
    /// honest under the `None` ablation.
    #[inline(always)]
    pub fn is_real(self) -> bool {
        self != PrefetchHint::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_valid_address_is_noop_semantically() {
        let x = 42u64;
        prefetch_read(&x);
        prefetch_read_t0(&x);
        prefetch_write(&x);
        assert_eq!(x, 42);
    }

    #[test]
    fn prefetch_null_and_dangling_do_not_fault() {
        // PREFETCH* never faults; the wrapper must uphold that for any input.
        prefetch_read(core::ptr::null::<u64>());
        prefetch_read(usize::MAX as *const u64);
        prefetch_read_t0(core::ptr::null::<u64>());
    }

    #[test]
    fn hint_policy_dispatch() {
        let x = 7u32;
        // Every hint, in line (`Nta`) or out of line (the ablations), on
        // a valid and on a dangling-but-unread address.
        for hint in [PrefetchHint::Nta, PrefetchHint::T0, PrefetchHint::Write, PrefetchHint::None] {
            hint.issue(&x);
            hint.issue(usize::MAX as *const u64);
            hint.issue(core::ptr::null::<u8>());
        }
        assert_eq!(x, 7);
        assert_eq!(PrefetchHint::default(), PrefetchHint::Nta);
        assert!(PrefetchHint::Nta.is_real());
        assert!(PrefetchHint::Write.is_real());
        assert!(!PrefetchHint::None.is_real());
    }
}
