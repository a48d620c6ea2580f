//! A per-thread allocation counter for the allocation-pin tests. The count
//! lives in a `const`-initialised `thread_local!` `Cell<u64>`, so bumping it
//! never allocates and libtest's other threads (a sibling test, the main
//! thread reporting results) cannot add to the measured thread's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn bump() {
    // `try_with`: an allocation during thread-local teardown is not counted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter bump
// touches only a const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while running `f`.
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let count = || ALLOCATIONS.with(Cell::get);
    let before = count();
    let result = f();
    (count() - before, result)
}
