//! Thread-local heap-allocation counters, feature-gated behind
//! `count-alloc`.
//!
//! The point of the pooled messaging layer in `simmpi` and the persistent
//! exchange plans in `cmt-gs` is a *zero-allocation steady state*: after
//! warm-up, a timestep's gather–scatter regions should touch the heap
//! exactly zero times. That claim is only worth something if it is
//! asserted, so this module provides the instrument:
//!
//! * [`thread_counts`] returns `(allocations, bytes)` performed by the
//!   *current thread* since it started. It is always present so callers
//!   need no `cfg` of their own, but it only ticks when the crate is
//!   built with the `count-alloc` feature, which installs a counting
//!   [`std::alloc::GlobalAlloc`] wrapper around the system allocator.
//!   Without the feature it returns `(0, 0)` forever.
//! * [`counting`] reports whether the counting allocator is installed, so
//!   tests can assert they were compiled with the feature instead of
//!   vacuously passing on frozen zeros.
//!
//! Only allocations are counted (`alloc`, `alloc_zeroed`, and the
//! grow/shrink side of `realloc`); frees are not. The profiler attributes
//! the deltas to regions the same way it attributes wall time, so a
//! region's "self allocs" excludes allocations made inside instrumented
//! children. Counters are per-thread, which matches the simulator's
//! thread-per-rank design: each rank's profiler sees its own heap
//! traffic and nothing from its neighbors.

// One of the three modules inside the crate-level `deny(unsafe_code)`
// boundary; every site carries a SAFETY comment (clippy enforces it).
#![allow(unsafe_code)]

use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `(allocations, bytes)` made by this thread so far. Frozen at `(0, 0)`
/// unless the `count-alloc` feature is enabled.
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Whether the counting global allocator is installed (i.e. the crate was
/// built with the `count-alloc` feature).
pub fn counting() -> bool {
    cfg!(feature = "count-alloc")
}

#[cfg(feature = "count-alloc")]
mod global {
    use super::{ALLOCS, BYTES};
    use std::alloc::{GlobalAlloc, Layout, System};

    /// The system allocator with per-thread bump counters in front.
    struct CountingAlloc;

    fn tick(bytes: usize) {
        // `Cell::set` on a thread-local cannot allocate or unwind, so the
        // counters are safe to touch from inside the allocator itself.
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + bytes as u64));
    }

    // SAFETY: every method defers to the `System` allocator unchanged —
    // same layout, same pointer discipline — so `GlobalAlloc`'s contract
    // holds exactly as `System` upholds it; `tick` only touches
    // `Cell`-based thread-locals, which neither allocate nor unwind.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: caller's `GlobalAlloc::alloc` obligations forwarded
        // verbatim to `System.alloc`.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            tick(layout.size());
            System.alloc(layout)
        }

        // SAFETY: forwarded verbatim to `System.alloc_zeroed`.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            tick(layout.size());
            System.alloc_zeroed(layout)
        }

        // SAFETY: forwarded verbatim to `System.dealloc`.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        // SAFETY: forwarded verbatim to `System.realloc`.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            tick(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_monotone() {
        let (a0, b0) = thread_counts();
        let v: Vec<u64> = (0..1024).collect();
        let (a1, b1) = thread_counts();
        assert!(a1 >= a0 && b1 >= b0);
        if counting() {
            assert!(a1 > a0, "an allocation must tick the counter");
            assert!(b1 - b0 >= 8 * 1024, "the vec's bytes must be counted");
        } else {
            assert_eq!((a1, b1), (0, 0), "counters frozen without the feature");
        }
        drop(v);
    }

    #[cfg(feature = "count-alloc")]
    #[test]
    fn counters_are_per_thread() {
        let bytes_before = thread_counts().1;
        let child_bytes = std::thread::spawn(|| {
            let b0 = thread_counts().1;
            let big: Vec<u8> = Vec::with_capacity(1 << 20);
            let b1 = thread_counts().1;
            drop(big);
            b1 - b0
        })
        .join()
        .unwrap();
        assert!(child_bytes >= 1 << 20, "child saw its own 1 MiB");
        // Spawning a thread allocates a little *here* (join handle,
        // packet), but the child's 1 MiB buffer must not leak into this
        // thread's counter.
        let delta = thread_counts().1 - bytes_before;
        assert!(delta < 1 << 20, "main-thread delta {delta} includes child");
    }
}
