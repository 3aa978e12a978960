//! A worker pool adds no allocations per round under a dynamic network:
//! Algorithm 4 on an edge-churning graph allocates about as often per
//! warm round at two and four threads as at one.
//!
//! Every round of `EdgeChurnNetwork` is a new graph, so occupied nodes
//! gain and lose neighbors and the packets' neighbor reports change shape
//! round after round. The simulator builds the packet list once, on the
//! calling thread, with a pool of spare reports, and every participant
//! reads a share of that one list; a worker that copied or rebuilt the
//! list would drop and re-allocate reports every round (about 1 000
//! allocations per round at two threads for the sizes below).
//!
//! The counting allocator is process-wide, so worker threads count too;
//! the file holds a single test so no other test thread allocates while
//! it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::EdgeChurnNetwork;
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

/// Rounds skipped before counting: they size the simulator's scratch, the
/// plan's build buffers and the participants' views.
const WARM_UP: u64 = 4;

/// Mean allocations per round of Algorithm 4 on an edge-churn network
/// (n = 768, k = 512 rooted, edge probability 8/n), from round
/// [`WARM_UP`] until dispersion.
fn allocations_per_round(threads: usize) -> f64 {
    let (n, k) = (768usize, 512usize);
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        EdgeChurnNetwork::new(n, 8.0 / n as f64, 5),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .trace(TracePolicy::Off)
    .check(CheckPolicy::Off)
    .threads(threads)
    .build()
    .expect("k ≤ n");
    for _ in 0..WARM_UP {
        assert!(matches!(sim.step().expect("valid run"), Step::Advanced(_)));
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    while let Step::Advanced(_) = sim.step().expect("valid run") {}
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(sim.configuration().is_dispersed());
    (after - before) as f64 / (sim.round() - WARM_UP) as f64
}

#[test]
fn a_worker_pool_adds_no_allocations_per_round_under_churn() {
    let sequential = allocations_per_round(1);
    for threads in [2usize, 4] {
        let parallel = allocations_per_round(threads);
        assert!(
            parallel <= sequential + 2.0,
            "threads {threads}: {parallel:.1} allocations per round against {sequential:.1} at threads 1"
        );
    }
}
