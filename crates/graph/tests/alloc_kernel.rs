//! The zero-allocation contract of the random-connected-graph kernel:
//! once its scratch and the destination graph have grown to the largest
//! edge set they will hold, `random_connected_into` and
//! `random_connected_relabeled_into` allocate nothing.
//!
//! A counting global allocator wraps the system allocator. The counter is
//! thread-local so libtest's own helper threads cannot pollute the
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dispersion_graph::generators::{self, RandomGraphScratch};

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

#[test]
fn warm_kernel_calls_allocate_nothing() {
    let n = 144;
    let mut scratch = RandomGraphScratch::default();
    let mut out = generators::random_connected_relabeled(n, 1.0, 0, 1).unwrap();
    // The complete graph is the largest edge set at this n: one call of
    // each emitter sizes every buffer.
    generators::random_connected_into(n, 1.0, 0, &mut scratch, &mut out).unwrap();
    generators::random_connected_relabeled_into(n, 1.0, 0, 1, &mut scratch, &mut out).unwrap();
    let before = local_allocations();
    let mut half_edges = 0;
    for seed in 0..64u64 {
        for p in [0.0, 0.05, 0.1, 0.5, 1.0] {
            let size = [n, n - 1, 65, 64, 2][seed as usize % 5];
            generators::random_connected_into(size, p, seed, &mut scratch, &mut out).unwrap();
            half_edges += 2 * out.edge_count();
            generators::random_connected_relabeled_into(
                size,
                p,
                seed,
                seed ^ 0x00ff_00ff,
                &mut scratch,
                &mut out,
            )
            .unwrap();
            half_edges += 2 * out.edge_count();
        }
    }
    let allocations = local_allocations() - before;
    assert!(half_edges > 0);
    assert_eq!(allocations, 0, "warm kernel calls allocated");
}
