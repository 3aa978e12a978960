//! A warm oracle-guided adversary round allocates next to nothing: the
//! move oracle scores each candidate through the round loop's own Compute
//! pass over a retained packet table, Algorithm 4 rebuilds its round plan
//! in place, and `MinProgressSampler` generates its candidates into
//! retained graph buffers.
//!
//! A counting global allocator wraps the system allocator. The counter is
//! process-wide; the file holds a single test so no other test thread
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::MinProgressSampler;
use dispersion_engine::{CheckPolicy, Configuration, ModelSpec, Simulator, Step, TracePolicy};
use dispersion_graph::NodeId;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Rounds skipped before counting: they size the simulator's and the
/// oracle's scratch and the sampler's graph buffers.
const WARM_UP: u64 = 4;

/// Candidates the sampler scores per round.
const CANDIDATES: usize = 8;

/// Mean allocations per round of a rooted run of `k` robots against a
/// `MinProgressSampler` over `3k/2` nodes, from round [`WARM_UP`] until
/// dispersion. Every round scores [`CANDIDATES`] graphs, so anything
/// allocated per robot and candidate — a per-robot view holding its own
/// copy of the packet list — shows up as a mean that grows with `k`.
///
/// The candidates keep one expected degree at every size (extra-edge
/// probability `6 / n`). The flat buffers still double now and then as
/// the occupied nodes and their reports grow, which weighs most in the
/// short small run.
fn allocations_per_round(k: usize) -> f64 {
    let n = 3 * k / 2;
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        MinProgressSampler::new(n, CANDIDATES, 6.0 / n as f64, 5),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .trace(TracePolicy::Off)
    .check(CheckPolicy::Off)
    .build()
    .expect("k ≤ n");
    for _ in 0..WARM_UP {
        assert!(matches!(sim.step().expect("valid run"), Step::Advanced(_)));
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    while let Step::Advanced(_) = sim.step().expect("valid run") {}
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let rounds = sim.round() - WARM_UP;
    assert!(sim.configuration().is_dispersed());
    (after - before) as f64 / rounds as f64
}

#[test]
fn sampler_allocations_per_round_do_not_grow_with_k() {
    let small = allocations_per_round(16);
    let large = allocations_per_round(96);
    println!("allocations per round: k = 16 {small:.1}, k = 96 {large:.1}");
    // A plan built afresh per candidate would add three allocations per
    // candidate, a per-robot copy of the packet list about
    // k · |packets| (the builder before the shared Compute pass read 9443
    // and 192773). What remains is under one allocation per candidate.
    assert!(
        large <= small + 1.0,
        "{large:.1} allocations per round at k = 96 vs {small:.1} at k = 16"
    );
    assert!(
        large <= CANDIDATES as f64 / 4.0,
        "{large:.1} allocations per round at k = 96 for {CANDIDATES} candidates"
    );
}
