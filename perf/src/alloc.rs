//! A counting global allocator: the 0-alloc steady-state pins, seen from
//! outside the library.
//!
//! The count is per thread (the loops under test step on the measuring
//! thread), so fleet workers do not contend on a shared cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that cannot allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn bump() {
    // `try_with`: the allocator may run while the thread's TLS is being
    // torn down; those allocations are simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations (and reallocations) made by the calling thread so far.
pub fn count() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_this_threads_allocations_only() {
        let before = super::count();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        let after = super::count();
        assert!(after > before, "the test binary installs the allocator");
        let elsewhere = std::thread::spawn(|| {
            let start = super::count();
            for _ in 0..1000 {
                std::hint::black_box(vec![1u8; 64]);
            }
            super::count() - start
        })
        .join()
        .expect("thread");
        assert_eq!(elsewhere, 1000);
        // Spawning and joining allocate a little here; the worker's
        // thousand do not leak in.
        assert!(super::count() - after < 100);
    }
}
