//! A counting global allocator: bytes requested from the system
//! allocator while counting is switched on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to [`System`], adding each request's size to a counter while
/// [`allocated_during`] runs. Off, it costs one relaxed load per call.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation may move the block: count the new size in full.
        count(new_size);
        // SAFETY: as for `dealloc`, plus the caller's guarantee on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the bytes requested from the
/// allocator meanwhile, by every thread. Not reentrant.
pub fn allocated_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BYTES.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    (out, BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_what_is_allocated_inside() {
        let (v, bytes) = allocated_during(|| vec![0u8; 1 << 20]);
        assert!(bytes >= 1 << 20, "{bytes}");
        drop(v);
    }
}
