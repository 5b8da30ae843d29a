//! Tier-1 construction guard: building a cell allocates kilobytes, not
//! a megabyte. Fixed per-resource state (calendar gap rings, cache line
//! slabs) is materialized on first use, like the footprint-sized state
//! before it (DESIGN.md §3.7), so `System::new` pays for headers and
//! for the little state every run needs at once.
//!
//! This binary installs a counting global allocator. The count is kept
//! per thread because the test harness runs tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use ohm_gpu::core::config::SystemConfig;
use ohm_gpu::core::system::System;
use ohm_gpu::core::Platform;
use ohm_gpu::optic::OperationalMode;
use ohm_gpu::workloads::workload_by_name;

const KIB: usize = 1024;

thread_local! {
    /// Heap bytes this thread has requested.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// Counts `bytes` against the calling thread. `try_with` skips the
/// count while the thread's locals are being torn down.
fn count(bytes: usize) {
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes));
}

/// The system allocator, counting the bytes each thread requests: every
/// allocation's size, and each reallocation's growth.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract. Counting touches
// only a const-initialized thread-local `Cell`, which neither allocates
// nor has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap bytes `System::new` requests for a planar pagerank cell at
/// `footprint`.
fn construction_bytes(cfg: &SystemConfig, platform: Platform, footprint: u64) -> usize {
    let spec = workload_by_name("pagerank")
        .expect("Table II workload")
        .with_footprint(footprint);
    let before = REQUESTED.with(Cell::get);
    let system = System::new(cfg, platform, OperationalMode::Planar, &spec);
    let bytes = REQUESTED.with(Cell::get) - before;
    drop(system);
    bytes
}

#[test]
fn an_evaluation_cell_builds_in_under_256_kib() {
    let cfg = SystemConfig::evaluation();
    for platform in [Platform::OhmBase, Platform::Origin] {
        let bytes = construction_bytes(&cfg, platform, SystemConfig::EVALUATION_FOOTPRINT);
        assert!(
            bytes < 256 * KIB,
            "{platform:?}: System::new requested {} KiB",
            bytes / KIB
        );
    }
}

#[test]
fn a_quick_test_cell_builds_in_under_128_kib() {
    let cfg = SystemConfig::quick_test();
    let footprint = workload_by_name("pagerank")
        .expect("Table II workload")
        .footprint_bytes;
    let bytes = construction_bytes(&cfg, Platform::OhmBase, footprint);
    assert!(
        bytes < 128 * KIB,
        "System::new requested {} KiB",
        bytes / KIB
    );
}
