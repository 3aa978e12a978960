//! The zero-allocation contract of the hot path: once warmed up, a
//! non-recording `step()` performs no heap allocations at all.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! the simulator (first rounds size the scratch buffers and the graph
//! validation cache), snapshots the counter, drives many more rounds, and
//! asserts the counter never moved. The counter is thread-local so
//! libtest's own helper threads cannot pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dispersion_engine::adversary::{DynamicRingNetwork, StaticNetwork};
use dispersion_engine::{
    Action, Budget, CheckPolicy, Configuration, DispersionAlgorithm, MemoryFootprint, ModelSpec,
    RobotId, RobotView, Simulator, Step, TracePolicy,
};
use dispersion_graph::{generators, NodeId, Port};

struct CountingAllocator;

thread_local! {
    // Const-initialized so the first access inside `alloc` cannot itself
    // allocate; `try_with` tolerates thread-teardown accesses.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn local_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A deliberately non-dispersing walker: every robot exits through port 1
/// every round. Rooted on a cycle the whole group orbits forever, which
/// keeps the simulator in steady state for as long as we care to measure.
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
fn steady_state_step_allocates_nothing() {
    // `CheckPolicy::Off` is the default, but the zero-allocation contract
    // of the conformance subsystem is part of this test's charter: with
    // checking off no monitor exists, so the hot path pays one `Option`
    // discriminant test per round and nothing else.
    //
    // Every budget fence is armed (far from firing): the watchdog the
    // campaign runner arms on every job must not cost the hot path any
    // allocations either.
    let (n, k) = (64usize, 16usize);
    let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut sim = Simulator::builder(
        Walker,
        StaticNetwork::new(generators::cycle(n).expect("n ≥ 3")),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .max_rounds(1_000_000)
    .trace(TracePolicy::Off)
    .check(CheckPolicy::Off)
    .budget(
        Budget::none()
            .with_max_rounds(1_000_000)
            .with_timeout(std::time::Duration::from_secs(3600))
            .with_cancel(cancel),
    )
    .build()
    .expect("k ≤ n");

    // Warm-up: the first rounds grow the scratch arena (node index rows,
    // packet/view buffers, the validated-graph cache) to their steady
    // sizes.
    for _ in 0..16 {
        match sim.step().expect("valid walk") {
            Step::Advanced(_) => {}
            Step::Dispersed => panic!("the walker group never disperses"),
        }
    }
    let warmed = local_allocations();
    assert!(warmed > 0, "the counter must be live");

    for _ in 0..500 {
        match sim.step().expect("valid walk") {
            Step::Advanced(_) => {}
            Step::Dispersed => panic!("the walker group never disperses"),
        }
    }
    let after = local_allocations();
    assert_eq!(
        after - warmed,
        0,
        "steady-state step() must not touch the heap (got {} allocations over 500 rounds)",
        after - warmed
    );
}

#[test]
fn adversarial_network_steady_state_allocates_nothing() {
    // The zero-allocation contract extends to *dynamic* adversaries: the
    // per-round rebuild (graph generation, port relabeling, validation,
    // connectivity) runs entirely in retained buffers. The ring adversary
    // is the natural probe — its edge count is constant, so every buffer
    // reaches its steady size within the warm-up.
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
    .build()
    .expect("k ≤ n");

    // A much longer warm-up than the static test. The ring re-embeds
    // every round, so the walking group reaches the 64 node-index rows
    // one by one, and each row grows its capacity on first use; the
    // relabel/generator scratch and the validation stamp buffer also need
    // to reach their plateau.
    for _ in 0..1000 {
        match sim.step().expect("valid walk") {
            Step::Advanced(_) => {}
            Step::Dispersed => panic!("the walker group never disperses"),
        }
    }
    let warmed = local_allocations();
    assert!(warmed > 0, "the counter must be live");

    for _ in 0..500 {
        match sim.step().expect("valid walk") {
            Step::Advanced(_) => {}
            Step::Dispersed => panic!("the walker group never disperses"),
        }
    }
    let after = local_allocations();
    assert_eq!(
        after - warmed,
        0,
        "steady-state step() under a dynamic adversary must not touch the \
         heap (got {} allocations over 500 rounds)",
        after - warmed
    );
}
