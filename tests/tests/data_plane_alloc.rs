//! The SCMP data plane forwards without touching the heap.
//!
//! A counting `#[global_allocator]` (the reason this test is a binary
//! of its own) counts heap allocations while a warmed-up ~50-node
//! engine forwards payloads down two shared trees. The count is exact
//! and repeats on every run and host, so the gate is a counter, not a
//! clock.

use scmp_integration::{scenario, scmp_engine};
use scmp_sim::{AppEvent, GroupId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Const-initialised with no
    /// destructor, so reading it never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting every allocation and reallocation
/// made by the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect
// on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Payloads per group before counting: above the 64-key dedup ring,
/// so every router that forwards a group has a full ring.
const WARMUP: u64 = 80;
/// Payloads per group while counting.
const MEASURED: u64 = 200;
/// Ticks between payloads: each one drains before the next is sent.
const GAP: u64 = 50_000;

#[test]
fn warmed_up_forwarding_allocates_almost_nothing_per_hop() {
    let sc = scenario(7, 50, 24);
    let mut e = scmp_engine(sc.topo.clone());
    let groups = [GroupId(1), GroupId(2)];
    let (a, b) = sc.members.split_at(sc.members.len() / 2);
    let mut t = 0;
    for (g, members) in groups.iter().zip([a, b]) {
        for &m in members {
            e.schedule_app(t, m, AppEvent::Join(*g));
            t += 1_000;
        }
    }
    // Each group is fed by one of its own members, so every payload
    // travels hop by hop over the bidirectional tree (§III-F).
    // Off-tree sources are left out on purpose: their tunnel to the
    // m-router allocates one route `Vec` per send in `Ctx::unicast`.
    let sources = [a[0], b[0]];
    e.run_to_quiescence();
    let start = e.now() + GAP;
    let mut tag = 0;
    for k in 0..WARMUP + MEASURED {
        for (g, &src) in groups.iter().zip(&sources) {
            tag += 1;
            e.schedule_app(start + k * GAP, src, AppEvent::Send { group: *g, tag });
        }
    }
    let warm_end = start + WARMUP * GAP - 1;
    e.run_until(warm_end);
    let hops_before = e.stats().data_hops;

    let allocs_before = allocations();
    e.run_to_quiescence();
    let allocs = allocations() - allocs_before;
    let hops = e.stats().data_hops - hops_before;

    // Every payload reached every member of its group exactly once.
    for (g, members) in groups.iter().zip([a, b]) {
        let first = if *g == groups[0] { 1 } else { 2 };
        for tag in (first..=tag).step_by(2) {
            for &m in members {
                assert_eq!(
                    e.stats().delivery_count(*g, tag, m),
                    1,
                    "{g:?} tag {tag} at {m:?}"
                );
            }
        }
    }
    assert!(!e.stats().has_duplicate_deliveries());
    let min_hops = 2 * MEASURED * (sc.members.len() as u64 / 2 - 1);
    assert!(
        hops >= min_hops,
        "{hops} data hops, expected at least {min_hops}"
    );
    let per_hop = allocs as f64 / hops as f64;
    assert!(
        per_hop <= 0.05,
        "{allocs} allocations over {hops} data hops ({per_hop:.3} per hop)"
    );
}
