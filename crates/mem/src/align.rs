//! Cache-line alignment helpers.
//!
//! The paper aligns every data-structure node to a 64-byte cache block
//! (§4, "the data structure nodes are aligned to 64-byte cache block
//! boundary with the aligned attribute"). A prefetch fetches exactly one
//! line, so a node that straddles two lines would need two prefetches and
//! would halve the effective MLP.

/// Cache line size assumed throughout the suite, in bytes.
///
/// 64 bytes on every x86 and most AArch64 parts; the paper's Xeon x5670 and
/// SPARC T4 both use 64-byte lines.
pub const CACHE_LINE: usize = 64;

/// Wrapper that aligns (and pads) `T` to a cache-line boundary.
///
/// `size_of::<CacheAligned<T>>()` is always a multiple of [`CACHE_LINE`],
/// so consecutive elements of a slice never share a line — the layout the
/// paper prescribes for hash-table buckets and tree nodes.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
pub struct CacheAligned<T>(pub T);

impl<T> CacheAligned<T> {
    /// Wrap a value.
    #[inline]
    pub fn new(value: T) -> Self {
        CacheAligned(value)
    }

    /// Consume the wrapper, returning the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> core::ops::Deref for CacheAligned<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> core::ops::DerefMut for CacheAligned<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_aligned_is_line_sized() {
        assert_eq!(core::mem::align_of::<CacheAligned<u8>>(), 64);
        assert_eq!(core::mem::size_of::<CacheAligned<u8>>(), 64);
        assert_eq!(core::mem::size_of::<CacheAligned<[u8; 65]>>(), 128);
    }

    #[test]
    fn deref_roundtrip() {
        let mut a = CacheAligned::new(5u32);
        *a += 1;
        assert_eq!(*a, 6);
        assert_eq!(a.into_inner(), 6);
    }
}
