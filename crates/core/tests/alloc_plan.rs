//! Algorithm 4's steady-state rounds allocate next to nothing, at any
//! population: the round plan is rebuilt in place from warm scratch, the
//! engine's robot index and packet table are flat buffers that only grow,
//! and a per-robot decision allocates nothing.
//!
//! A counting global allocator wraps the system allocator. The counter is
//! process-wide, so the executor workers' allocations (whichever worker
//! builds a round's plan) are counted too; the file holds a single test so
//! no other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::StaticNetwork;
use dispersion_engine::{Configuration, ModelSpec, Simulator, Step, TracePolicy};
use dispersion_graph::{generators, NodeId};

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

/// Rounds skipped before counting: they size the simulator's scratch and
/// the plan's build buffers.
const WARM_UP: u64 = 4;

/// Mean allocations per round of a rooted run of `k` robots on a static
/// `2k`-ring, from round [`WARM_UP`] until dispersion. The run lasts about
/// `k / 2` rounds and ends with `k` occupied nodes, so anything allocated
/// per round, per occupied node or per robot shows up as a mean of one
/// or more. What remains is the flat buffers doubling as the occupied
/// nodes grow: a few growth steps over the whole run.
fn allocations_per_round(k: usize, threads: usize) -> f64 {
    let n = 2 * k;
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        StaticNetwork::new(generators::cycle(n).expect("n ≥ 3")),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .trace(TracePolicy::Off)
    .threads(threads)
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
fn allocations_per_round_do_not_grow_with_k() {
    for threads in [1usize, 2] {
        let small = allocations_per_round(64, threads);
        let large = allocations_per_round(1024, threads);
        println!("threads {threads}: {small:.2} at k = 64, {large:.2} at k = 1024");
        // A plan built afresh instead of recycled would be three
        // allocations per round (the shared handle, the role table and
        // the root slots); a per-node buffer would be hundreds.
        for (k, mean) in [(64, small), (1024, large)] {
            assert!(
                mean <= 1.0,
                "threads {threads}: {mean:.2} allocations per round at k = {k}"
            );
        }
    }
}
