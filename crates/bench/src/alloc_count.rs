//! A counting global allocator for exact, machine-independent work
//! gates.  The `reproduce` binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`; [`count`] then reports how many heap
//! allocations one closure made on the calling thread.  Other threads,
//! and the calling thread outside [`count`], are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`] plus a per-thread allocation counter that only runs
/// inside [`count`].  `alloc`, `alloc_zeroed` and `realloc` each count
/// as one allocation; `dealloc` is free.
pub struct CountingAlloc;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown must not panic
    let _ = ACTIVE.try_with(|active| {
        if active.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Run `f` and return its result with the number of heap allocations it
/// made on this thread, or `None` when [`CountingAlloc`] is not the
/// process's global allocator.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let installed = measure(|| drop(std::hint::black_box(Box::new(0u8)))).1 > 0;
    let (out, n) = measure(f);
    (out, installed.then_some(n))
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(0));
    ACTIVE.with(|a| a.set(true));
    let out = f();
    ACTIVE.with(|a| a.set(false));
    (out, COUNT.with(|c| c.get()))
}
