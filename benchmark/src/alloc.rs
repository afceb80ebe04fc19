//! A counting global allocator: allocation count, bytes and peak live
//! bytes of one armed window. Disarmed it costs one relaxed load per
//! call; it is armed only for the traced pass's allocation iteration,
//! never while an end-to-end figure is being timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator installed by `main.rs`.
pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment of arming (frees of older memory
/// take it below zero).
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note_alloc(size: usize) {
    if ARMED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn note_free(size: usize) {
    if ARMED.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments; the counters never touch the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one armed window saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Calls to `alloc`/`alloc_zeroed`/`realloc`.
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest live-byte level above the level at arming.
    pub peak_live: u64,
}

/// Zero the counters and start counting.
pub fn arm() {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
}

/// Stop counting and return the window's totals.
pub fn disarm() -> AllocStats {
    ARMED.store(false, Relaxed);
    AllocStats {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// The counters are process-global and `cargo test` runs tests on
/// parallel threads: every test that arms holds this lock.
#[cfg(test)]
pub static TEST_WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_armed() {
        let _guard = TEST_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
        let before = disarm();
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(disarm(), before, "disarmed allocations are not counted");

        // Other test threads may allocate inside the window, so only
        // lower bounds are exact here.
        arm();
        let v = std::hint::black_box(vec![0u8; 1 << 16]);
        let seen = disarm();
        drop(v);
        assert!(seen.count >= 1);
        assert!(seen.bytes >= 1 << 16);
        assert!(seen.peak_live >= 1 << 16);
        assert_eq!(disarm(), seen, "disarming freezes the totals");
    }
}
