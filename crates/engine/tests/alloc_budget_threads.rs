//! The zero-allocation contract of the hot path at `threads > 1`.
//!
//! The companion test (`alloc_budget.rs`) uses a thread-local counter,
//! which is blind to worker threads by design. Here the counter is a
//! process-global atomic: once the simulator, the pool, and every
//! worker's local buffers are warm, a non-recording `step()` must not
//! allocate on *any* thread — a dispatch is an atomic epoch bump (and a
//! condvar notify only for parked workers), the packet build and Compute
//! write into retained buffers, and each participant's view takes a
//! share of the round's packet list (a reference-count increment) rather
//! than a copy, so the caller rebuilds the list in place next round.
//! Every worker decides its reserved robot each round, so the warm-up
//! sizes every worker's view, whichever blocks it claims.
//!
//! This test lives in its own binary so libtest's harness threads and the
//! other allocation test cannot pollute the global counter: it is the
//! only `#[test]` in the file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dispersion_engine::adversary::DynamicRingNetwork;
use dispersion_engine::{
    Action, CheckPolicy, Configuration, DispersionAlgorithm, MemoryFootprint, ModelSpec, RobotId,
    RobotView, Simulator, Step, TracePolicy,
};
use dispersion_graph::{NodeId, Port};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn total_allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The same non-dispersing walker as the sequential test — `Clone` so the
/// pool can hand each worker its own copy.
#[derive(Clone)]
struct Walker;

#[derive(Clone, Copy)]
struct NoMemory;

impl MemoryFootprint for NoMemory {
    fn persistent_bits(&self) -> usize {
        0
    }
}

impl DispersionAlgorithm for Walker {
    type Memory = NoMemory;

    fn name(&self) -> &str {
        "walker"
    }

    fn init(&self, _me: RobotId, _k: usize) -> NoMemory {
        NoMemory
    }

    fn step(&self, _view: &RobotView, _memory: &NoMemory) -> (Action, NoMemory) {
        (Action::Move(Port::new(1)), NoMemory)
    }
}

#[test]
fn parallel_steady_state_step_allocates_nothing() {
    let (n, k) = (64usize, 16usize);
    let mut sim = Simulator::builder(
        Walker,
        DynamicRingNetwork::new(n, false, 7),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .max_rounds(1_000_000)
    .trace(TracePolicy::Off)
    .check(CheckPolicy::Off)
    .threads(4)
    .build()
    .expect("k ≤ n");
    assert_eq!(sim.threads(), 4);

    // Warm-up: scratch arena (every node-index row the re-embedding ring
    // walks the group over; see alloc_budget.rs), adversary
    // double-buffers, and each worker's private view/packet buffers all
    // reach steady size.
    for _ in 0..1000 {
        match sim.step().expect("valid walk") {
            Step::Advanced(_) => {}
            Step::Dispersed => panic!("the walker group never disperses"),
        }
    }
    let warmed = total_allocations();
    assert!(warmed > 0, "the counter must be live");

    for _ in 0..500 {
        match sim.step().expect("valid walk") {
            Step::Advanced(_) => {}
            Step::Dispersed => panic!("the walker group never disperses"),
        }
    }
    let after = total_allocations();
    assert_eq!(
        after - warmed,
        0,
        "steady-state step() with a worker pool must not touch the heap on \
         any thread (got {} allocations over 500 rounds)",
        after - warmed
    );
}
