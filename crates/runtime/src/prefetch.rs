//! Cache-line prefetching for helper phases on real hardware.
//!
//! On x86-64 this issues `prefetcht0` through the stable
//! `core::arch::x86_64::_mm_prefetch` intrinsic. A prefetch is
//! architecturally a hint with no language-level read, so it is safe to
//! issue on lines another thread is concurrently writing — exactly what a
//! cascaded helper does when it warms up a scatter target while the token
//! holder is still executing. On other architectures the helper degrades
//! to a no-op rather than risk a racy demand load.

/// Cache line size assumed for prefetch striding (both Table-1 machines
/// use 32-byte L1 lines; modern x86 uses 64 — we stride by the smaller to
/// cover both).
pub const PREFETCH_STRIDE: usize = 32;

/// Hint the hardware to pull the line containing `addr` into the cache
/// hierarchy (temporal, all levels).
#[inline]
pub fn prefetch_line(addr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch is a hint; it performs no dereference and is
    // defined for any address value.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(addr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = addr;
    }
}

/// Prefetch every line of `[addr, addr + bytes)`: one hint per offset
/// `for_each_hint` yields.
#[inline]
pub fn prefetch_range(addr: *const u8, bytes: usize) {
    for_each_hint(addr as usize, bytes, |off| {
        prefetch_line(addr.wrapping_add(off))
    });
}

/// Call `hint` with each offset from `start` that [`prefetch_range`] hints
/// for `bytes` bytes: every [`PREFETCH_STRIDE`] step from `start`, then the
/// last byte only when it lies on a later line than the last step (a tail
/// that crosses into a line no step touched). A 4- or 8-byte element
/// inside one line gets one hint.
#[inline]
fn for_each_hint(start: usize, bytes: usize, mut hint: impl FnMut(usize)) {
    let mut off = 0;
    while off < bytes {
        hint(off);
        off += PREFETCH_STRIDE;
    }
    let line = |off: usize| (start + off) / PREFETCH_STRIDE;
    if bytes > 0 && line(bytes - 1) != line(off - PREFETCH_STRIDE) {
        hint(bytes - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_harmless_on_valid_memory() {
        let data = vec![0u8; 4096];
        prefetch_range(data.as_ptr(), data.len());
        prefetch_line(data.as_ptr());
    }

    #[test]
    fn prefetch_zero_bytes_is_a_no_op() {
        let data = [0u8; 8];
        prefetch_range(data.as_ptr(), 0);
    }

    #[test]
    fn prefetch_does_not_fault_on_dangling_hint() {
        // Prefetch is a hint: issuing it for an arbitrary (non-dereferenced)
        // address must not crash. We use a misaligned in-bounds pointer
        // rather than a wild one to stay within documented behaviour.
        let data = [0u8; 64];
        prefetch_line(data.as_ptr().wrapping_add(63));
    }

    fn hints(start: usize, bytes: usize) -> Vec<usize> {
        let mut offs = Vec::new();
        for_each_hint(start, bytes, |off| offs.push(off));
        offs
    }

    #[test]
    fn an_element_inside_one_line_gets_one_hint() {
        for width in [4, 8] {
            for start in (0..PREFETCH_STRIDE - width + 1).map(|o| 4096 + o) {
                assert_eq!(hints(start, width), [0], "{width} B at {start}");
            }
        }
    }

    #[test]
    fn a_line_straddling_element_also_hints_its_last_byte() {
        assert_eq!(hints(4096 + 30, 4), [0, 3]);
        assert_eq!(hints(4096 + 28, 8), [0, 7]);
        assert_eq!(hints(4096 + 31, 8), [0, 7]);
        // Ending exactly on the line boundary is not a straddle.
        assert_eq!(hints(4096 + 24, 8), [0]);
    }

    #[test]
    fn a_multi_line_range_hints_each_line_once() {
        // Line-aligned: the steps land on every line, the tail adds none.
        assert_eq!(hints(4096, 3 * PREFETCH_STRIDE), [0, 32, 64]);
        // Unaligned: the last byte (offset 95, absolute 4195) sits on the
        // line after the last step's (offset 64, absolute 4164).
        assert_eq!(hints(4096 + 4, 96), [0, 32, 64, 95]);
        // Unaligned, but the last step's line already holds the last byte.
        assert_eq!(hints(4096 + 4, 90), [0, 32, 64]);
        assert_eq!(hints(4096, 0), Vec::<usize>::new());
    }
}
