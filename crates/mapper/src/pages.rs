//! Buffers mapped straight from the OS, for the segments of a parallel
//! run's solution table.
//!
//! A parallel run's segments are large, live exactly as long as the run,
//! and are opened by whichever worker fills its last one, so how much
//! segment memory each thread allocates changes from run to run with the
//! split of the levels between the workers. Taken from the heap, a freed
//! segment stays resident in the allocator: glibc keeps an arena per
//! thread and, once a large block has been freed, serves later ones of
//! that size from an arena instead of the OS, handing memory back only
//! when an arena's free top grows past a threshold. Which blocks crossed
//! it depended on the split, so what a process kept resident after a run
//! depended on the schedule: perfbench's `control` peak jumped between
//! about 57 and 67 MB from run to run.
//!
//! In a parallel run, a buffer of at least [`MIN_MAPPED_BYTES`] is
//! therefore an anonymous mapping of its own: its pages are touched only
//! as cells are written and go back to the OS when the segment is
//! dropped, so what the run keeps resident is what it wrote, whichever
//! worker wrote it. A serial run keeps its segments on the heap: one
//! thread opens the same sequence of them every time, and the heap
//! recycles memory the process freed before instead of faulting in fresh
//! pages. On targets without the mapping below, every buffer comes from
//! the heap.

use std::ptr::NonNull;

/// Smallest buffer, in bytes, that is mapped rather than taken from the
/// heap. A mapped buffer faults in a fresh page for every page a run
/// writes, every run, where the heap would hand back pages it already
/// holds; that pays only for buffers large enough that what the heap
/// keeps of them matters. With 128 KiB, the Table II circuits mapped on
/// two threads took 12 % longer to map and their peak fell by 2 MB; from
/// 1 MiB on, only the segments of networks with tens of thousands of
/// nodes are mapped.
pub(crate) const MIN_MAPPED_BYTES: usize = 1 << 20;

/// Maps `bytes` (nonzero) of private, read-write anonymous memory,
/// page-aligned and untouched. `None` when this target maps nothing or the
/// OS refuses; the caller then takes the buffer from the heap.
pub(crate) fn map(bytes: usize) -> Option<NonNull<u8>> {
    assert!(bytes > 0, "an empty buffer is never mapped");
    os::map(bytes)
}

/// Returns a mapping to the OS. It never panics, since segments call it
/// from `Drop`.
///
/// # Safety
///
/// `ptr` and `bytes` are a mapping [`map`] returned, unmapped only here
/// and used by nothing afterwards.
pub(crate) unsafe fn unmap(ptr: NonNull<u8>, bytes: usize) {
    // SAFETY: forwarded from the caller.
    unsafe { os::unmap(ptr, bytes) }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod os {
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    // The Linux values on these architectures (`<sys/mman.h>`).
    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub(super) fn map(bytes: usize) -> Option<NonNull<u8>> {
        // SAFETY: a fresh anonymous mapping at an address the kernel
        // picks aliases nothing.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        // `MAP_FAILED` is the address -1.
        if ptr as isize == -1 {
            return None;
        }
        NonNull::new(ptr.cast())
    }

    /// # Safety
    ///
    /// As [`super::unmap`].
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, bytes: usize) {
        // SAFETY: the caller passes a whole mapping that nothing uses any
        // more. Unmapping a whole live mapping cannot fail; if it did, the
        // pages would only stay mapped, so the status is not checked.
        unsafe { munmap(ptr.as_ptr().cast(), bytes) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod os {
    use std::ptr::NonNull;

    pub(super) fn map(_bytes: usize) -> Option<NonNull<u8>> {
        None
    }

    /// # Safety
    ///
    /// As [`super::unmap`]; nothing is mapped on this target, so nothing
    /// calls it.
    pub(super) unsafe fn unmap(_ptr: NonNull<u8>, _bytes: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mapping_is_writable_and_zero_filled() {
        let bytes = 3 * MIN_MAPPED_BYTES + 5;
        let Some(ptr) = map(bytes) else {
            // This target takes every buffer from the heap.
            return;
        };
        assert!(
            (ptr.as_ptr() as usize).is_multiple_of(4096),
            "mappings are page-aligned"
        );
        // SAFETY: `bytes` mapped read-write bytes, unmapped only below.
        let buf = unsafe { std::slice::from_raw_parts_mut(ptr.as_ptr(), bytes) };
        assert!(buf.iter().all(|&b| b == 0));
        buf[0] = 1;
        buf[bytes - 1] = 2;
        assert_eq!((buf[0], buf[bytes - 1]), (1, 2));
        // SAFETY: the mapping above; `buf` is not used again.
        unsafe { unmap(ptr, bytes) };
    }
}
