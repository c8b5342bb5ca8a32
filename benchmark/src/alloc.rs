//! Counting global allocator: live bytes, peak live bytes and allocation
//! calls.
//!
//! The counters are per thread, so tests that `cargo test` runs in
//! parallel cannot see each other's allocations. The benchmark itself
//! runs on one thread, where per-thread and process-wide counts agree.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus per-thread counters.
pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

thread_local! {
    // Signed: the test harness frees on one thread what another
    // allocated, which can take a thread's count below zero.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note(freed: usize, allocated: usize) {
    // `try_with` never panics, which an allocator must not do; it only
    // fails while the thread's locals are being torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() - freed as isize + allocated as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    if allocated > 0 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the counting beside it touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(0, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(0, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        note(layout.size(), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(layout.size(), new_size);
        }
        p
    }
}

/// Heap use of the calling thread between a [`Mark`] and its
/// [`Mark::finish`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapUse {
    /// Peak live bytes above the live bytes at the mark.
    pub peak_bytes: u64,
    /// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`).
    pub allocs: u64,
}

impl HeapUse {
    /// Peak in megabytes (10^6 bytes).
    pub fn peak_mb(&self) -> f64 {
        self.peak_bytes as f64 / 1e6
    }
}

/// Start of a measured section. Marks do not nest: taking one resets
/// the thread's peak.
#[derive(Debug)]
pub struct Mark {
    live: isize,
    allocs: u64,
}

impl Mark {
    /// Starts measuring from the thread's current live bytes.
    pub fn now() -> Mark {
        let live = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(live));
        Mark {
            live,
            allocs: ALLOCS.with(Cell::get),
        }
    }

    /// Ends the section.
    pub fn finish(self) -> HeapUse {
        HeapUse {
            peak_bytes: (PEAK.with(Cell::get) - self.live).max(0) as u64,
            allocs: ALLOCS.with(Cell::get) - self.allocs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_buffer_is_counted_exactly() {
        let mark = Mark::now();
        let buf = std::hint::black_box(vec![7u8; 1 << 20]);
        drop(buf);
        let used = mark.finish();
        assert_eq!(used.peak_bytes, 1 << 20);
        assert_eq!(used.allocs, 1);
        assert_eq!(used.peak_mb(), 1.048576);
    }

    #[test]
    fn peak_is_relative_to_the_mark_and_survives_frees() {
        let held = std::hint::black_box(vec![0u64; 1000]);
        let mark = Mark::now();
        let a = std::hint::black_box(vec![0u8; 4096]);
        drop(a);
        let b = std::hint::black_box(vec![0u8; 1024]);
        let used = mark.finish();
        assert_eq!(
            used.peak_bytes, 4096,
            "the 8000-byte buffer predates the mark"
        );
        assert_eq!(used.allocs, 2);
        drop((held, b));
    }
}
