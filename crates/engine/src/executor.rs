//! Deterministic fork–join worker pool for the parallel round loop.
//!
//! # Design
//!
//! The pool parallelizes the two embarrassingly parallel phases of a CCM
//! round — per-node packet aggregation and per-robot Compute — under one
//! hard constraint: **the merged output must be byte-identical for every
//! thread count**, so golden traces, adversary determinism fingerprints,
//! and seed-reproducibility all survive `threads(n)`.
//!
//! That rules out work stealing: a stealing scheduler makes the *work
//! distribution* nondeterministic, which is fine for pure map operations
//! but poisons anything stateful per worker (here: each worker's cached
//! node view, rewritten only when the visited node changes). Instead
//! each dispatch splits the item range into
//! `workers` fixed id-ordered chunks (`chunk = ceil(len / workers)`);
//! worker `w` owns `[w·chunk, (w+1)·chunk)` and writes results into
//! pre-assigned slots of a shared output array. The main thread then
//! drains the slots in index order, so the merged sequence equals the
//! sequential one exactly, for any worker count. Fixed chunking can load
//! imbalance, but Compute cost per robot is near-uniform (one algorithm
//! step over a similarly sized view), so the imbalance is bounded and
//! the determinism is worth it.
//!
//! Round-wide algorithm state is not per worker. Every worker's view
//! carries the packet-list identity the simulator minted for the round
//! ([`RobotView::packets_id`]), so algorithm clones that share state keyed
//! by that identity derive it once per round, whichever worker gets there
//! first; `DispersionDynamic` builds its round plan this way.
//!
//! # Dispatch protocol
//!
//! Workers are spawned once (per [`crate::SimulatorBuilder::threads`]) and
//! persist across rounds; a dispatch is a single epoch bump under a mutex
//! plus two condvar signals — **no heap allocation**, preserving the
//! engine's allocation-free hot path at every thread count:
//!
//! 1. the main thread publishes a type-erased [`Job`] (context pointer +
//!    chunk function), sets `remaining = workers`, increments `epoch`,
//!    and notifies `work_cv`;
//! 2. each worker wakes on the epoch change, runs its chunk against its
//!    own long-lived local state, then decrements `remaining`, the last
//!    one notifying `done_cv`;
//! 3. the main thread wakes when `remaining == 0`; the mutex hand-offs
//!    give the necessary happens-before edges in both directions.
//!
//! A worker panic is caught ([`catch_unwind`]), recorded, and re-raised
//! on the main thread after the epoch completes, so a poisoned phase
//! cannot silently yield partial output.
//!
//! # Safety argument
//!
//! This is the only module in the crate that uses `unsafe` (the crate is
//! `deny(unsafe_code)`, opted back in locally). The unsafety is confined
//! to one pattern: a stack-allocated context struct holding shared
//! borrows plus a raw output pointer is type-erased to `*const ()` for
//! the dispatch, and re-typed inside the chunk function. It is sound
//! because:
//!
//! * `dispatch` blocks until every worker has finished the epoch, so the
//!   context outlives all worker access (the borrows it holds are live
//!   across the call by construction);
//! * chunks are disjoint index ranges, so each output slot is written by
//!   at most one worker, and the main thread reads the slots only after
//!   `dispatch` returns (mutex release/acquire orders the writes);
//! * the chunk function and the worker-local state are created from the
//!   same algorithm type `A` — enforced at runtime with a [`TypeId`]
//!   check in [`par_compute`] — so the `*mut ()` local re-types to
//!   exactly the `WorkerLocal<A>` it was born as;
//! * all shared inputs are `&`-borrows of `Sync` data (`A::Memory: Sync`
//!   is a bound on both ends).
#![allow(unsafe_code)]

use std::any::TypeId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use dispersion_graph::{NodeId, PortLabeledGraph};

use crate::compute::{compute_pass, RoundInputs, ViewScratch};
use crate::packet::{blank_packet, write_packet_into};
use crate::view::next_packets_id;
use crate::{Action, CommModel, DispersionAlgorithm, InfoPacket, RobotId, RobotView};

/// One filled Compute slot: the robot, its action, and its next memory.
/// `None` marks a not-yet-filled slot (every slot is `Some` after a
/// successful dispatch).
pub(crate) type Decision<A> =
    Option<(RobotId, Action, <A as DispersionAlgorithm>::Memory)>;

/// The monomorphized [`par_compute`] entry point, captured by
/// `SimulatorBuilder::threads` — the one place with the `A: Clone + Send`
/// bounds — so the unbounded `Simulator::step` can invoke it.
pub(crate) type ParComputeFn<A> = fn(
    &WorkerPool,
    &RoundInputs<'_, <A as DispersionAlgorithm>::Memory>,
    &[(RobotId, NodeId)],
    &RobotView,
    &mut Vec<Decision<A>>,
);

/// A type-erased parallel phase: `run(ctx, worker_local, worker_index)`.
#[derive(Clone, Copy)]
struct Job {
    ctx: *const (),
    run: unsafe fn(*const (), *mut (), usize),
}

// SAFETY: a `Job` is only created inside `dispatch`, whose contract
// guarantees the context stays valid and shareable for the lifetime of
// the epoch; the pointer crosses threads only under that contract.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per dispatch; workers run exactly one job per epoch.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running the current epoch.
    remaining: usize,
    /// A worker panicked during the current epoch.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Main → workers: a new epoch (or shutdown) is available.
    work_cv: Condvar,
    /// Workers → main: the last worker of an epoch finished.
    done_cv: Condvar,
}

/// Persistent worker pool owned by a `Simulator`. Non-generic handle; the
/// algorithm type lives in the worker threads' local state and is pinned
/// by `algo_type`.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    algo_type: TypeId,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// Long-lived per-worker state: an algorithm clone (the algorithm need
/// not be `Sync`; clones may still share state among themselves, keyed
/// by the view's packet-list identity) and a reusable view, mirroring the
/// sequential loop's single-view optimization per worker.
struct WorkerLocal<A: DispersionAlgorithm> {
    algorithm: A,
    compute: ViewScratch,
}

/// Spawns `workers` persistent threads, each owning a clone of
/// `algorithm`. Used by `SimulatorBuilder::threads`.
pub(crate) fn spawn_pool<A>(workers: usize, algorithm: &A) -> WorkerPool
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
{
    assert!(workers >= 1, "a pool needs at least one worker");
    let shared = Arc::new(Shared {
        state: Mutex::new(PoolState {
            epoch: 0,
            job: None,
            remaining: 0,
            panicked: false,
            shutdown: false,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    });
    let handles = (0..workers)
        .map(|w| {
            let shared = Arc::clone(&shared);
            let mut local = WorkerLocal {
                algorithm: algorithm.clone(),
                compute: ViewScratch::new(),
            };
            std::thread::Builder::new()
                .name(format!("ccm-worker-{w}"))
                .spawn(move || {
                    let local_ptr = (&mut local) as *mut WorkerLocal<A> as *mut ();
                    worker_loop(&shared, local_ptr, w);
                })
                .expect("spawning a worker thread")
        })
        .collect();
    WorkerPool {
        shared,
        handles,
        workers,
        algo_type: TypeId::of::<A>(),
    }
}

fn worker_loop(shared: &Shared, local: *mut (), w: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    break;
                }
                st = shared.work_cv.wait(st).unwrap();
            }
            last_epoch = st.epoch;
            st.job.expect("a new epoch always carries a job")
        };
        // SAFETY: `dispatch` keeps `job.ctx` alive until every worker
        // (including this one) reports done, and `job.run` was paired
        // with locals of this pool's algorithm type at dispatch.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
            (job.run)(job.ctx, local, w);
        }));
        let mut st = shared.state.lock().unwrap();
        if outcome.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

impl WorkerPool {
    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one epoch: every worker executes `run(ctx, its_local, w)`,
    /// then control returns to the caller. Allocation-free.
    ///
    /// # Safety
    ///
    /// `ctx` must remain valid for shared access until this returns;
    /// `run` must be sound for this pool's worker-local type and must
    /// confine its writes to worker-disjoint locations.
    unsafe fn dispatch(&self, ctx: *const (), run: unsafe fn(*const (), *mut (), usize)) {
        let mut st = self.shared.state.lock().unwrap();
        st.job = Some(Job { ctx, run });
        st.remaining = self.workers;
        st.panicked = false;
        st.epoch += 1;
        self.shared.work_cv.notify_all();
        while st.remaining > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        if panicked {
            panic!("a worker thread panicked during a parallel phase");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The id-ordered range of worker `w` given a fixed `chunk` size.
fn chunk_of(len: usize, chunk: usize, w: usize) -> std::ops::Range<usize> {
    let start = (w * chunk).min(len);
    let end = w
        .checked_add(1)
        .and_then(|n| n.checked_mul(chunk))
        .map_or(len, |e| e.min(len));
    start..end
}

fn chunk_size(len: usize, workers: usize) -> usize {
    len.div_ceil(workers).max(1)
}

// ---------------------------------------------------------------------
// Parallel packet aggregation (Communicate, global model)
// ---------------------------------------------------------------------

struct PacketCtx<'a> {
    g: &'a PortLabeledGraph,
    node_robots: &'a [Vec<RobotId>],
    occupied: &'a [NodeId],
    neighborhood: bool,
    /// `occupied.len()` pre-sized slots; slot `i` belongs to `occupied[i]`.
    out: *mut InfoPacket,
    chunk: usize,
}

unsafe fn packet_chunk(ctx: *const (), _local: *mut (), w: usize) {
    // SAFETY: re-typing the context `par_packets` erased; it is kept
    // alive by the blocking dispatch.
    let ctx = unsafe { &*(ctx as *const PacketCtx<'_>) };
    for i in chunk_of(ctx.occupied.len(), ctx.chunk, w) {
        // SAFETY: slot `i` is in this worker's chunk, disjoint from every
        // other worker's; `out` has `occupied.len()` initialized slots.
        let slot = unsafe { &mut *ctx.out.add(i) };
        write_packet_into(
            ctx.g,
            ctx.node_robots,
            ctx.occupied[i],
            ctx.neighborhood,
            slot,
            &mut Vec::new(),
        );
    }
}

/// Builds the round's packets in parallel into `view`, under one fresh
/// identity: slot `i` gets `occupied[i]`'s packet, then the main thread
/// truncates and sorts by sender — the identical truncate+sort the
/// sequential `build_packets_into` performs, so the result is
/// byte-identical to the sequential build for any worker count.
pub(crate) fn par_packets(
    pool: &WorkerPool,
    g: &PortLabeledGraph,
    node_robots: &[Vec<RobotId>],
    occupied: &[NodeId],
    neighborhood: bool,
    view: &mut RobotView,
) {
    view.packets_id = next_packets_id();
    let out = &mut view.packets;
    // Grow with blank packets only on a cold buffer; warm rounds reuse
    // every slot's interior buffers, exactly like the sequential path.
    while out.len() < occupied.len() {
        out.push(blank_packet());
    }
    out.truncate(occupied.len());
    let ctx = PacketCtx {
        g,
        node_robots,
        occupied,
        neighborhood,
        out: out.as_mut_ptr(),
        chunk: chunk_size(occupied.len(), pool.workers),
    };
    // SAFETY: `ctx` outlives the (blocking) dispatch; workers write only
    // their disjoint chunk of `out`'s initialized slots; `packet_chunk`
    // ignores the worker-local pointer, so the pool's algorithm type is
    // irrelevant here.
    unsafe {
        pool.dispatch(
            (&ctx) as *const PacketCtx<'_> as *const (),
            packet_chunk,
        );
    }
    // Senders are distinct (one packet per node): unstable sort is
    // deterministic and allocation-free.
    out.sort_unstable_by_key(|p| p.sender);
}

// ---------------------------------------------------------------------
// Parallel Compute
// ---------------------------------------------------------------------

struct ComputeCtx<'a, 'r, A: DispersionAlgorithm> {
    inputs: &'a RoundInputs<'r, <A as DispersionAlgorithm>::Memory>,
    /// Activated robots in configuration (robot-ID) order — the exact
    /// order the sequential Compute loop visits.
    live: &'a [(RobotId, NodeId)],
    /// The simulator's view: its packet list and identity are the
    /// round's (global model); ignored under local communication, where
    /// each worker builds own-node packets.
    round_view: &'a RobotView,
    /// `live.len()` slots; slot `i` receives robot `live[i]`'s decision.
    slots: *mut Decision<A>,
    chunk: usize,
}

unsafe fn compute_chunk<A>(ctx: *const (), local: *mut (), w: usize)
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
{
    // SAFETY: `par_compute::<A>` erased a `ComputeCtx<'_, '_, A>` and
    // checked (via TypeId) that this pool's locals are `WorkerLocal<A>`;
    // both stay alive across the blocking dispatch.
    let ctx = unsafe { &*(ctx as *const ComputeCtx<'_, '_, A>) };
    let local = unsafe { &mut *(local as *mut WorkerLocal<A>) };
    let range = chunk_of(ctx.live.len(), ctx.chunk, w);
    if range.is_empty() {
        return;
    }
    if ctx.inputs.model.comm == CommModel::Global {
        // Refresh this worker's packet copy element-wise (`clone_from`
        // reuses every interior buffer once warm).
        let view = &mut local.compute.view;
        ctx.round_view.packets.clone_into(&mut view.packets);
        view.packets_id = ctx.round_view.packets_id;
    }
    let mut slot = range.start;
    compute_pass(
        &local.algorithm,
        ctx.inputs,
        ctx.live[range].iter().copied(),
        &mut local.compute,
        |robot, _, action, next| {
            // SAFETY: slot `slot` is in this worker's chunk, disjoint from
            // every other worker's; `slots` has `live.len()` initialized
            // slots.
            unsafe {
                *ctx.slots.add(slot) = Some((robot, action, next));
            }
            slot += 1;
        },
    );
}

/// Runs the Compute phase of one round across the pool: robot `live[i]`'s
/// decision lands in `slots[i]`, so draining `slots` in order yields the
/// byte-identical decision sequence of the sequential loop, for any
/// worker count. Each worker runs the sequential Compute pass over its
/// chunk. Allocation-free once every worker's buffers are warm.
pub(crate) fn par_compute<A>(
    pool: &WorkerPool,
    inputs: &RoundInputs<'_, <A as DispersionAlgorithm>::Memory>,
    live: &[(RobotId, NodeId)],
    round_view: &RobotView,
    slots: &mut Vec<Decision<A>>,
) where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
{
    assert_eq!(
        pool.algo_type,
        TypeId::of::<A>(),
        "worker pool was spawned for a different algorithm type"
    );
    slots.clear();
    slots.resize_with(live.len(), || None);
    let ctx = ComputeCtx::<'_, '_, A> {
        inputs,
        live,
        round_view,
        slots: slots.as_mut_ptr(),
        chunk: chunk_size(live.len(), pool.workers),
    };
    // SAFETY: `ctx` outlives the (blocking) dispatch; the TypeId check
    // above guarantees every worker-local is a `WorkerLocal<A>`; chunks
    // are disjoint so each slot has a single writer; shared inputs are
    // `&`-borrows of `Sync` data (`A::Memory: Sync`).
    unsafe {
        pool.dispatch(
            (&ctx) as *const ComputeCtx<'_, '_, A> as *const (),
            compute_chunk::<A>,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_the_range() {
        for len in [0usize, 1, 2, 7, 16, 1000] {
            for workers in [1usize, 2, 3, 8, 64] {
                let chunk = chunk_size(len, workers);
                let mut covered = vec![false; len];
                for w in 0..workers {
                    for i in chunk_of(len, chunk, w) {
                        assert!(!covered[i], "index {i} visited twice");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "len {len} workers {workers}");
            }
        }
    }

    #[test]
    fn pool_survives_many_dispatches_and_a_panic() {
        use crate::{Action, MemoryFootprint, RobotView};

        #[derive(Clone)]
        struct Nil;
        impl MemoryFootprint for Nil {
            fn persistent_bits(&self) -> usize {
                0
            }
        }
        #[derive(Clone)]
        struct Frozen;
        impl DispersionAlgorithm for Frozen {
            type Memory = Nil;
            fn name(&self) -> &'static str {
                "frozen"
            }
            fn init(&self, _me: RobotId, _k: usize) -> Nil {
                Nil
            }
            fn step(&self, _v: &RobotView, _m: &Nil) -> (Action, Nil) {
                (Action::Stay, Nil)
            }
        }

        let pool = spawn_pool(4, &Frozen);
        assert_eq!(pool.workers(), 4);

        // A counting job: each worker bumps its own slot.
        struct CountCtx {
            out: *mut u64,
            rounds: u64,
        }
        unsafe fn count_chunk(ctx: *const (), _local: *mut (), w: usize) {
            let ctx = unsafe { &*(ctx as *const CountCtx) };
            unsafe { *ctx.out.add(w) += ctx.rounds };
        }
        let mut counts = vec![0u64; 4];
        for _ in 0..100 {
            let ctx = CountCtx {
                out: counts.as_mut_ptr(),
                rounds: 1,
            };
            unsafe { pool.dispatch((&ctx) as *const CountCtx as *const (), count_chunk) };
        }
        assert_eq!(counts, vec![100; 4]);

        // A panicking job is re-raised on the dispatching thread...
        unsafe fn boom(_ctx: *const (), _local: *mut (), w: usize) {
            if w == 2 {
                panic!("worker 2 exploded");
            }
        }
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            pool.dispatch(std::ptr::null(), boom);
        }));
        assert!(caught.is_err());

        // ...and the pool keeps working afterwards.
        let ctx = CountCtx {
            out: counts.as_mut_ptr(),
            rounds: 5,
        };
        unsafe { pool.dispatch((&ctx) as *const CountCtx as *const (), count_chunk) };
        assert_eq!(counts, vec![105; 4]);
    }
}
