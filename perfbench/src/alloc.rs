//! A counting global allocator (std only).
//!
//! Counting is off until [`enable`] is called, so untraced runs pay one
//! relaxed load per allocation. While on, every allocation, zeroed
//! allocation and reallocation is counted against the benchmark span open
//! on the allocating thread ([`Span::Other`] unless [`in_span`] says
//! otherwise).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The benchmark spans allocations are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Anything outside a narrower span.
    Other = 0,
    /// The trace stream's `Iterator::next` (the chronos-trace loader).
    Parse = 1,
}

const SPANS: usize = 2;

/// The system allocator plus per-span allocation counters.
#[derive(Debug)]
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One counter per cache line, so threads counting different spans do not
/// share a line.
#[repr(align(64))]
struct Counter(AtomicU64);

static COUNTS: [Counter; SPANS] = [Counter(AtomicU64::new(0)), Counter(AtomicU64::new(0))];

thread_local! {
    // Const-initialized and without a destructor: safe to touch from inside
    // the allocator, which must not allocate itself.
    static OPEN: Cell<usize> = const { Cell::new(Span::Other as usize) };
}

fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        let span = OPEN.try_with(Cell::get).unwrap_or(Span::Other as usize);
        COUNTS[span].0.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; `note` only bumps
// an atomic counter and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees on `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off for the whole process.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `work` with `span` open on this thread, restoring the previous span
/// afterwards.
pub fn in_span<T>(span: Span, work: impl FnOnce() -> T) -> T {
    let previous = OPEN.with(|open| open.replace(span as usize));
    let result = work();
    OPEN.with(|open| open.set(previous));
    result
}

/// Allocations counted against `span` so far.
pub fn count(span: Span) -> u64 {
    COUNTS[span as usize].0.load(Ordering::Relaxed)
}

/// Allocations counted against every span so far.
pub fn total() -> u64 {
    COUNTS
        .iter()
        .map(|counter| counter.0.load(Ordering::Relaxed))
        .sum()
}
