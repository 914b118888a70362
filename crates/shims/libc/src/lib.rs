//! Minimal offline stand-in for the `libc` crate.
//!
//! Declares only the symbols `amac_metrics` (perf counters, page size),
//! `amac_mem::region` (huge-page advice) and `amac_mem`'s residency test
//! need; they resolve against the platform C library that `std` already
//! links.

#![allow(non_camel_case_types, non_upper_case_globals)]

pub type c_int = i32;
pub type c_long = i64;
pub type c_ulong = u64;
pub type c_uchar = u8;
pub type c_void = core::ffi::c_void;
pub type size_t = usize;
pub type ssize_t = isize;

/// `perf_event_open(2)` syscall number.
#[cfg(target_arch = "x86_64")]
pub const SYS_perf_event_open: c_long = 298;
#[cfg(target_arch = "aarch64")]
pub const SYS_perf_event_open: c_long = 241;
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub const SYS_perf_event_open: c_long = -1;

/// `madvise(2)` advice: back the range with transparent huge pages.
#[cfg(target_os = "linux")]
pub const MADV_HUGEPAGE: c_int = 14;
/// `sysconf(3)` name of the base page size.
#[cfg(target_os = "linux")]
pub const _SC_PAGESIZE: c_int = 30;

extern "C" {
    pub fn syscall(num: c_long, ...) -> c_long;
    pub fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    pub fn close(fd: c_int) -> c_int;
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;
    pub fn mincore(addr: *mut c_void, length: size_t, vec: *mut c_uchar) -> c_int;
    pub fn sysconf(name: c_int) -> c_long;
}

#[cfg(test)]
mod tests {
    #[test]
    fn close_of_invalid_fd_fails_without_crashing() {
        let r = unsafe { super::close(-1) };
        assert_eq!(r, -1);
    }
}
