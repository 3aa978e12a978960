//! Deterministic fork–join worker pool for the parallel Compute phase.
//!
//! # Design
//!
//! In a CCM round every activated robot computes at once, from a view
//! and a memory alone, so Compute splits across cores. Under one hard
//! constraint: **the merged output must be byte-identical for every
//! thread count**, so golden traces, adversary determinism fingerprints,
//! and seed-reproducibility all survive `threads(n)`. A round of a large
//! run lasts about a hundred microseconds, so the pool is built for
//! hand-offs that cost well under a microsecond.
//!
//! * **The caller joins the fork.** A pool of `n` participants runs
//!   `n − 1` worker threads; the thread that dispatches runs a share of
//!   the work itself, with the simulator's own algorithm instance and
//!   view. Each worker owns a clone of the algorithm and a view of its
//!   own. Participant 0 is the caller, workers are `1..n`.
//! * **Work is claimed in blocks.** Robot `live[i]`'s decision always
//!   lands in slot `i` of a pre-sized output array, whichever participant
//!   computed it. Participants claim blocks of 32 robots of `live` from
//!   one atomic counter until it runs past the end, so a participant
//!   that runs slower (cold caches on another core, or descheduled by
//!   the OS) simply claims fewer blocks. The split varies
//!   from run to run; the output does not, because `step` is a pure
//!   function of view and memory and each slot has exactly one writer.
//!   The caller drains the slots in index order, which is the sequential
//!   visit order.
//! * **Each worker has one reserved robot.** Worker `w` decides
//!   `live[w]` before it claims blocks. The caller waits for every worker
//!   to report in anyway, so one robot adds no wait, and every instance
//!   steps in every round with at least as many robots as participants —
//!   even when the caller, whose caches are warm, would have claimed
//!   every block of a small round before a worker woke up.
//! * **The first Compute runs before the fork.** The caller decides
//!   `live[0]` before the workers start, so round-wide state an algorithm
//!   keeps in the packet table's memo ([`crate::Packets::memo`]), such as
//!   `DispersionDynamic`'s round plan, is built once, by the caller, with
//!   no worker waiting for it.
//! * **The round state is borrowed, not copied.** Every participant's
//!   views borrow the caller's robot index and packet table through the
//!   shared [`RoundInputs`], exactly as they borrow the graph; nothing is
//!   handed out or back.
//!
//! Communicate stays on the caller: one packet build per round is cheaper
//! than splitting it and merging the pieces.
//!
//! # Dispatch protocol
//!
//! Workers are spawned once (per [`crate::SimulatorBuilder::threads`]) and
//! persist across rounds. A dispatch allocates nothing, which keeps the
//! engine's hot path allocation-free at every thread count:
//!
//! 1. the caller writes the type-erased [`Job`] (context pointer + share
//!    function), sets `remaining` to the number of workers, and bumps the
//!    atomic `epoch`;
//! 2. each worker sees the new epoch, runs the job against its own local
//!    state, and decrements `remaining`; the caller runs its own share
//!    meanwhile;
//! 3. the caller waits until `remaining` reaches 0.
//!
//! Every wait (a worker for the next epoch, the caller for `remaining`)
//! spins for [`PROBES`] probes, yields the CPU, and repeats until
//! [`PARK_AFTER`] has passed; only then does it park on a condvar. Between the rounds of a
//! running simulation workers therefore never sleep, and an idle pool
//! stops costing CPU after a millisecond. A parked waiter
//! registers itself in a sleeper count under the pool's mutex before it
//! re-checks its condition; whoever changes the condition checks that
//! count afterwards and, if it is nonzero, notifies under the same
//! mutex. Both sides use sequentially consistent operations, so either
//! the waiter sees the change or the notifier sees the sleeper: no
//! wake-up is lost.
//!
//! A panic in any share is caught ([`catch_unwind`]). The caller still
//! waits for every worker to finish the epoch, then re-raises the panic
//! (its own first), so a poisoned phase cannot silently yield partial
//! output and no worker outlives the borrowed context. The pool works
//! normally afterwards.
//!
//! # Safety argument
//!
//! This is the only module in the crate that uses `unsafe` (the crate is
//! `deny(unsafe_code)`, opted back in locally). The unsafety is confined
//! to one pattern: a stack-allocated context struct holding shared
//! borrows plus a raw output pointer is type-erased to `*const ()` for
//! the dispatch, and re-typed inside the share function. It is sound
//! because:
//!
//! * `dispatch` takes the pool by `&mut`, so one dispatch runs at a time,
//!   and returns (or unwinds) only after every worker has decremented
//!   `remaining` for the epoch, so the context and the caller's local
//!   state outlive all worker access;
//! * the job cell is written by the caller only while no worker reads
//!   it: before the epoch bump that publishes it (sequentially consistent,
//!   so also a release), after every worker finished the previous epoch;
//! * each output slot is written by exactly one participant — slot 0 by
//!   the caller before the fork, slot `w` by worker `w`, and the blocks
//!   after them are disjoint ranges handed out once by the counter's
//!   `fetch_add` — and
//!   the caller reads the slots only after `remaining` reaches 0; each
//!   worker's decrement releases its writes and the caller's load acquires
//!   them;
//! * the share function and the worker-local state are created from the
//!   same algorithm type `A` — enforced at runtime with a [`TypeId`]
//!   check in [`par_compute`] — so the erased algorithm pointer re-types
//!   to exactly the `A` it was born as;
//! * all shared inputs are `&`-borrows of `Sync` data (`A::Memory: Sync`
//!   is a bound on both ends), decisions move to the caller's thread
//!   (`A::Memory: Send`), and the only shared values a share mutates are
//!   the block counter and the packet table's memo, a `OnceLock`.
#![allow(unsafe_code)]

use std::any::TypeId;
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::compute::{compute_pass, RoundInputs};
use crate::{Action, DispersionAlgorithm, RobotId};

/// Robots per claimed Compute block (a round's last block may be
/// shorter): large enough that claiming costs nothing next to 32 steps,
/// small enough that a slow participant's last block does not hold up
/// the round.
const BLOCK: usize = 32;

/// Busy-wait probes of a hand-off between two yields: a microsecond or
/// so, which catches a hand-off already on its way without a system call,
/// while the yields hand the core to a thread with work when the pool has
/// more threads than cores.
const PROBES: u32 = 64;

/// How long a waiter keeps spinning and yielding before it parks. Long
/// enough to span the caller's sequential work between two rounds of a
/// large simulation (the adversary, the packet build, Move), so workers
/// of a running simulation never park.
const PARK_AFTER: Duration = Duration::from_millis(1);

/// One filled Compute slot: the robot, its action, and its next memory.
/// `None` marks a not-yet-filled slot (every slot is `Some` after a
/// successful dispatch).
pub(crate) type Decision<A> = Option<(RobotId, Action, <A as DispersionAlgorithm>::Memory)>;

/// The monomorphized [`par_compute`] entry point, captured by
/// `SimulatorBuilder::threads` — the one place with the `A: Clone + Send`
/// bounds — so the unbounded `Simulator::step` can invoke it.
pub(crate) type ParComputeFn<A> = fn(
    &mut WorkerPool,
    &A,
    &RoundInputs<'_, <A as DispersionAlgorithm>::Memory>,
    &[(RobotId, u32)],
    &mut Vec<Decision<A>>,
);

/// A participant's own state, type-erased: its algorithm instance (an
/// `A`).
#[derive(Clone, Copy)]
struct Local {
    algorithm: *const (),
}

/// A type-erased share of a parallel phase:
/// `run(ctx, participant_local, participant_index)`.
type ShareFn = unsafe fn(*const (), Local, usize);

#[derive(Clone, Copy)]
struct Job {
    ctx: *const (),
    run: ShareFn,
}

/// The placeholder job of a pool that has not dispatched yet.
unsafe fn no_share(_ctx: *const (), _local: Local, _participant: usize) {}

/// A condvar plus the number of threads parked on it.
struct Gate {
    sleepers: AtomicUsize,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            sleepers: AtomicUsize::new(0),
            cv: Condvar::new(),
        }
    }
}

struct Shared {
    /// Bumped once per dispatch (and once at shutdown); workers run
    /// exactly one job per epoch.
    epoch: AtomicU64,
    /// The current epoch's job; see the safety argument for its access
    /// discipline.
    job: UnsafeCell<Job>,
    /// Workers still running the current epoch.
    remaining: AtomicUsize,
    /// A worker panicked during the current epoch.
    panicked: AtomicBool,
    shutdown: AtomicBool,
    /// Guards only the parking hand-off; no data lives under it.
    lock: Mutex<()>,
    /// Caller → workers: a new epoch (or shutdown) is available.
    work: Gate,
    /// Workers → caller: the last worker of an epoch finished.
    done: Gate,
}

// SAFETY: every field but `job` is a synchronization primitive; `job` is
// written by the dispatching thread only while no worker reads it (see
// the module's safety argument), and the pointer it holds is used only
// under `dispatch`'s contract.
unsafe impl Sync for Shared {}
unsafe impl Send for Shared {}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ()> {
        // Nothing runs under the lock that can panic, and it guards no
        // data, so a poisoned lock is still a good lock.
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns once `ready()` holds: spins and yields by turns, then
    /// parks on `gate` until a [`Shared::wake`] of the same gate.
    fn wait_until(&self, gate: &Gate, ready: impl Fn() -> bool) {
        let start = Instant::now();
        loop {
            for _ in 0..PROBES {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
            if start.elapsed() >= PARK_AFTER {
                break;
            }
            std::thread::yield_now();
        }
        let mut guard = self.lock();
        gate.sleepers.fetch_add(1, Ordering::SeqCst);
        while !ready() {
            guard = gate.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        gate.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes the threads parked on `gate`. Call after making their
    /// condition true with a sequentially consistent write.
    fn wake(&self, gate: &Gate) {
        if gate.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock();
            gate.cv.notify_all();
        }
    }
}

/// Persistent worker pool owned by a `Simulator`. Non-generic handle; the
/// algorithm type lives in the worker threads' local state and is pinned
/// by `algo_type`.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    algo_type: TypeId,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("participants", &self.participants())
            .finish_non_exhaustive()
    }
}

/// Builds a pool of `participants` (the caller plus `participants − 1`
/// persistent worker threads, each owning a clone of `algorithm`). Used
/// by `SimulatorBuilder::threads`.
pub(crate) fn spawn_pool<A>(participants: usize, algorithm: &A) -> WorkerPool
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
{
    assert!(participants >= 2, "a pool needs at least one worker");
    let shared = Arc::new(Shared {
        epoch: AtomicU64::new(0),
        job: UnsafeCell::new(Job {
            ctx: std::ptr::null(),
            run: no_share,
        }),
        remaining: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        lock: Mutex::new(()),
        work: Gate::new(),
        done: Gate::new(),
    });
    let handles = (1..participants)
        .map(|w| {
            let shared = Arc::clone(&shared);
            // A worker's long-lived state: an algorithm clone (the
            // algorithm need not be `Sync`; round-wide state it shares
            // lives in the packet table's memo).
            let algorithm = algorithm.clone();
            std::thread::Builder::new()
                .name(format!("ccm-worker-{w}"))
                .spawn(move || {
                    let local = Local {
                        algorithm: (&algorithm) as *const A as *const (),
                    };
                    worker_loop(&shared, local, w);
                })
                .expect("spawning a worker thread")
        })
        .collect();
    WorkerPool {
        shared,
        handles,
        algo_type: TypeId::of::<A>(),
    }
}

fn worker_loop(shared: &Shared, local: Local, w: usize) {
    let mut seen = 0u64;
    loop {
        shared.wait_until(&shared.work, || shared.epoch.load(Ordering::SeqCst) != seen);
        seen = shared.epoch.load(Ordering::SeqCst);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // SAFETY: the epoch bump published this job, and the caller does
        // not write the cell again before this worker's decrement below.
        let job = unsafe { *shared.job.get() };
        // SAFETY: `dispatch` keeps `job.ctx` alive until every worker
        // (including this one) reports done, and `job.run` was paired
        // with locals of this pool's algorithm type at dispatch.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
            (job.run)(job.ctx, local, w);
        }));
        if outcome.is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        if shared.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            shared.wake(&shared.done);
        }
    }
}

impl WorkerPool {
    /// Threads taking part in a dispatch: the workers plus the caller.
    pub(crate) fn participants(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs one epoch: every worker executes `run(ctx, its_local, w)` for
    /// its index `w ≥ 1` while the caller executes `run(ctx, caller, 0)`,
    /// then control returns to the caller. Allocation-free.
    ///
    /// # Safety
    ///
    /// `ctx` and `caller`'s pointees must remain valid until this
    /// returns; `run` must be sound for this pool's worker-local type and
    /// for `caller`, and its writes must be disjoint across participants.
    unsafe fn dispatch(&mut self, ctx: *const (), run: ShareFn, caller: Local) {
        let shared = &*self.shared;
        // SAFETY: every worker finished the previous epoch (`remaining`
        // was 0 when the last dispatch returned), so none reads the cell.
        unsafe { *shared.job.get() = Job { ctx, run } };
        shared.panicked.store(false, Ordering::Relaxed);
        shared
            .remaining
            .store(self.handles.len(), Ordering::Relaxed);
        shared.epoch.fetch_add(1, Ordering::SeqCst);
        shared.wake(&shared.work);
        // SAFETY: forwarded from this function's contract.
        let mine = catch_unwind(AssertUnwindSafe(|| unsafe { run(ctx, caller, 0) }));
        shared.wait_until(&shared.done, || {
            shared.remaining.load(Ordering::SeqCst) == 0
        });
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if shared.panicked.load(Ordering::Relaxed) {
            panic!("a worker thread panicked during a parallel phase");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let shared = &*self.shared;
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.epoch.fetch_add(1, Ordering::SeqCst);
        shared.wake(&shared.work);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// Parallel Compute
// ---------------------------------------------------------------------

struct ComputeCtx<'a, 'r, A: DispersionAlgorithm> {
    inputs: &'a RoundInputs<'r, <A as DispersionAlgorithm>::Memory>,
    /// Activated robots in configuration (robot-ID) order — the exact
    /// order the sequential Compute loop visits.
    live: &'a [(RobotId, u32)],
    /// Start of the next unclaimed block of `live`.
    next: AtomicUsize,
    /// `live.len()` slots; slot `i` receives robot `live[i]`'s decision.
    slots: *mut Decision<A>,
}

/// The indices of `0..len` a participant claims, [`BLOCK`] at a time,
/// from the shared counter `next`; each index is yielded by exactly one
/// claimant.
fn claimed(next: &AtomicUsize, len: usize) -> impl Iterator<Item = usize> + '_ {
    let mut mine = 0..0;
    std::iter::from_fn(move || {
        if mine.is_empty() {
            let start = next.fetch_add(BLOCK, Ordering::Relaxed);
            if start >= len {
                return None;
            }
            mine = start..(start + BLOCK).min(len);
        }
        mine.next()
    })
}

unsafe fn compute_share<A>(ctx: *const (), local: Local, participant: usize)
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
{
    // SAFETY: `par_compute::<A>` erased a `ComputeCtx<'_, '_, A>` and
    // checked (via TypeId) that this pool's locals hold an `A`; both stay
    // alive across the blocking dispatch.
    let ctx = unsafe { &*(ctx as *const ComputeCtx<'_, '_, A>) };
    let algorithm = unsafe { &*(local.algorithm as *const A) };
    // Worker `w` decides its reserved robot `live[w]` first, then claims
    // blocks with everyone else.
    let reserved = (participant != 0 && participant < ctx.live.len()).then_some(participant);
    let slot = Cell::new(0usize);
    let robots = reserved
        .into_iter()
        .chain(claimed(&ctx.next, ctx.live.len()))
        .map(|i| {
            slot.set(i);
            ctx.live[i]
        });
    compute_pass(algorithm, ctx.inputs, robots, |robot, _, action, next| {
        // SAFETY: index `slot` is reserved for or was claimed by this
        // participant alone; `slots` has `live.len()` initialized slots.
        unsafe {
            *ctx.slots.add(slot.get()) = Some((robot, action, next));
        }
    });
}

/// Runs the Compute phase of one round across the pool: robot `live[i]`'s
/// decision lands in `slots[i]`, so draining `slots` in order yields the
/// byte-identical decision sequence of the sequential loop, for any
/// participant count and any split of the blocks.
///
/// The caller participates with `algorithm` and decides `live[0]` before
/// the workers start. Allocation-free once `slots` is warm.
pub(crate) fn par_compute<A>(
    pool: &mut WorkerPool,
    algorithm: &A,
    inputs: &RoundInputs<'_, <A as DispersionAlgorithm>::Memory>,
    live: &[(RobotId, u32)],
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
    let Some(&first) = live.first() else {
        return;
    };
    compute_pass(algorithm, inputs, [first], |robot, _, action, next| {
        slots[0] = Some((robot, action, next));
    });
    if live.len() == 1 {
        return;
    }
    // `live[0]` is decided; `live[w]` is reserved for worker `w`.
    let reserved_end = pool.participants().min(live.len());
    let ctx = ComputeCtx::<'_, '_, A> {
        inputs,
        live,
        next: AtomicUsize::new(reserved_end),
        slots: slots.as_mut_ptr(),
    };
    let caller = Local {
        algorithm: algorithm as *const A as *const (),
    };
    // SAFETY: `ctx` and the caller's algorithm outlive the
    // (blocking) dispatch; the TypeId check above guarantees every
    // worker-local holds an `A`, as does the caller; reserved robots and
    // claimed blocks are disjoint, so each slot has a single writer;
    // shared inputs are `&`-borrows of `Sync` data (`A::Memory: Sync`).
    unsafe {
        pool.dispatch(
            (&ctx) as *const ComputeCtx<'_, '_, A> as *const (),
            compute_share::<A>,
            caller,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketTable, RobotIndex};
    use crate::{Configuration, MemoryFootprint, ModelSpec, RobotView};
    use dispersion_graph::{generators, Port};

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Tag(u64);
    impl MemoryFootprint for Tag {
        fn persistent_bits(&self) -> usize {
            64
        }
    }

    /// Folds what it sees of its view and its memory into the next
    /// memory, and moves by it.
    #[derive(Clone)]
    struct Echo;
    impl DispersionAlgorithm for Echo {
        type Memory = Tag;
        fn name(&self) -> &'static str {
            "echo"
        }
        fn init(&self, me: RobotId, _k: usize) -> Tag {
            Tag(u64::from(me.get()))
        }
        fn step(&self, view: &RobotView, mem: &Tag) -> (Action, Tag) {
            let packets: u64 = view.packets.iter().map(|p| p.count() as u64 + 1).sum();
            let tag = mem.0 * 1_000_003
                + u64::from(view.me.get()) * 101
                + view.colocated.len() as u64 * 7
                + packets
                + view.degree as u64;
            let action = if tag.is_multiple_of(3) {
                Action::Stay
            } else {
                Action::Move(Port::from_index((tag as usize) % view.degree))
            };
            (action, Tag(tag))
        }
    }

    /// A job whose share bumps its participant's counter by `rounds`.
    struct CountCtx {
        out: *mut u64,
        rounds: u64,
    }
    unsafe fn count_share(ctx: *const (), _local: Local, participant: usize) {
        let ctx = unsafe { &*(ctx as *const CountCtx) };
        unsafe { *ctx.out.add(participant) += ctx.rounds };
    }

    /// The caller's local state for jobs that ignore it.
    fn no_local() -> Local {
        Local {
            algorithm: std::ptr::null(),
        }
    }

    fn count_once(pool: &mut WorkerPool, counts: &mut [u64], rounds: u64) {
        let ctx = CountCtx {
            out: counts.as_mut_ptr(),
            rounds,
        };
        unsafe {
            pool.dispatch(
                (&ctx) as *const CountCtx as *const (),
                count_share,
                no_local(),
            )
        };
    }

    #[test]
    fn chunks_partition_the_range() {
        // Claimants that pull from one counter, interleaved in a fixed
        // rotation and one after another, cover every index exactly once.
        for len in [0usize, 1, 2, 7, 31, 32, 33, 100, 1000] {
            for claimants in [1usize, 2, 3, 8] {
                let next = AtomicUsize::new(0);
                let mut iters: Vec<_> = (0..claimants).map(|_| claimed(&next, len)).collect();
                let mut covered = vec![false; len];
                let mut live = claimants;
                while live > 0 {
                    live = 0;
                    for it in &mut iters {
                        if let Some(i) = it.next() {
                            assert!(!covered[i], "index {i} claimed twice");
                            covered[i] = true;
                            live += 1;
                        }
                    }
                }
                assert!(
                    covered.iter().all(|&c| c),
                    "len {len} claimants {claimants}"
                );
            }
        }
    }

    #[test]
    fn pool_survives_many_dispatches_and_a_panic() {
        let mut pool = spawn_pool(4, &Echo);
        assert_eq!(pool.participants(), 4);
        let mut counts = vec![0u64; 4];
        for _ in 0..100 {
            count_once(&mut pool, &mut counts, 1);
        }
        assert_eq!(counts, vec![100; 4], "the caller is participant 0");

        // A panicking worker is re-raised on the dispatching thread...
        unsafe fn boom(_ctx: *const (), _local: Local, participant: usize) {
            if participant == 2 {
                panic!("worker 2 exploded");
            }
        }
        let caught = catch_unwind(AssertUnwindSafe(|| unsafe {
            pool.dispatch(std::ptr::null(), boom, no_local());
        }));
        assert!(caught.is_err());

        // ...and the pool keeps working afterwards.
        count_once(&mut pool, &mut counts, 5);
        assert_eq!(counts, vec![105; 4]);
    }

    #[test]
    fn a_panic_in_the_callers_share_is_reraised_after_the_workers_finish() {
        struct SlowCtx {
            finished: [AtomicBool; 3],
        }
        unsafe fn slow_workers(ctx: *const (), _local: Local, participant: usize) {
            let ctx = unsafe { &*(ctx as *const SlowCtx) };
            if participant == 0 {
                panic!("the caller's share exploded");
            }
            std::thread::sleep(Duration::from_millis(20));
            ctx.finished[participant].store(true, Ordering::SeqCst);
        }
        let mut pool = spawn_pool(3, &Echo);
        let ctx = SlowCtx {
            finished: [
                AtomicBool::new(false),
                AtomicBool::new(false),
                AtomicBool::new(false),
            ],
        };
        let caught = catch_unwind(AssertUnwindSafe(|| unsafe {
            pool.dispatch(
                (&ctx) as *const SlowCtx as *const (),
                slow_workers,
                no_local(),
            );
        }));
        let payload = caught.expect_err("the caller's panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"the caller's share exploded"),
            "the caller's own panic comes back unchanged"
        );
        assert!(
            ctx.finished[1].load(Ordering::SeqCst) && ctx.finished[2].load(Ordering::SeqCst),
            "the dispatch waited for every worker before unwinding"
        );
        let mut counts = vec![0u64; 3];
        count_once(&mut pool, &mut counts, 2);
        assert_eq!(counts, vec![2; 3]);
    }

    #[test]
    fn dropping_a_parked_pool_joins_its_workers_promptly() {
        let mut pool = spawn_pool(4, &Echo);
        let mut counts = vec![0u64; 4];
        count_once(&mut pool, &mut counts, 1);
        // Idle past the spin-and-yield window: every worker parks.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.shared.work.sleepers.load(Ordering::SeqCst) < 3 {
            assert!(Instant::now() < deadline, "workers never parked");
            std::thread::sleep(PARK_AFTER);
        }
        // A parked pool still dispatches...
        count_once(&mut pool, &mut counts, 1);
        assert_eq!(counts, vec![2; 4]);
        while pool.shared.work.sleepers.load(Ordering::SeqCst) < 3 {
            assert!(Instant::now() < deadline, "workers never parked again");
            std::thread::sleep(PARK_AFTER);
        }
        // ...and drops without waiting on anything but the wake-up.
        let start = Instant::now();
        drop(pool);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "joining parked workers took {:?}",
            start.elapsed()
        );
    }

    /// Decisions of `live` under `model` by the sequential pass and by a
    /// pool of `participants`, after the parallel caller's view got the
    /// round's packets back.
    #[allow(clippy::type_complexity)]
    fn both_ways(
        participants: usize,
        model: ModelSpec,
        live_len: usize,
    ) -> (Vec<(RobotId, Action, Tag)>, Vec<(RobotId, Action, Tag)>) {
        let n = 40;
        let g = generators::cycle(n).unwrap();
        let config = Configuration::random(n, 3 * BLOCK + 5, 3, true);
        let k = config.robot_count();
        let index = RobotIndex::of(&config);
        let mut table = PacketTable::default();
        table.rebuild(&g, &index, model.neighborhood);
        let memories: Vec<Option<Tag>> = (1..=k as u32)
            .map(|i| Some(Echo.init(RobotId::new(i), k)))
            .collect();
        let arrival_ports = vec![None; k];
        let inputs = RoundInputs {
            g: &g,
            index: &index,
            table: &table,
            memories: &memories,
            arrival_ports: &arrival_ports,
            model,
            round: 4,
            k,
        };
        let live: Vec<_> = index.members().iter().take(live_len).copied().collect();

        let mut sequential = Vec::new();
        compute_pass(&Echo, &inputs, live.iter().copied(), |r, _, a, m| {
            sequential.push((r, a, m))
        });

        let mut pool = spawn_pool(participants, &Echo);
        let mut slots = Vec::new();
        par_compute(&mut pool, &Echo, &inputs, &live, &mut slots);
        let parallel = slots.into_iter().map(|s| s.expect("filled")).collect();
        (sequential, parallel)
    }

    #[test]
    fn par_compute_matches_the_sequential_pass_for_any_item_count() {
        for model in [ModelSpec::GLOBAL_WITH_NEIGHBORHOOD, ModelSpec::LOCAL_BLIND] {
            // Fewer items than participants, one item, none, and several
            // blocks with a ragged tail.
            for live_len in [0usize, 1, 2, 3, BLOCK + 1, 3 * BLOCK + 5] {
                for participants in [2usize, 3, 8] {
                    let (sequential, parallel) = both_ways(participants, model, live_len);
                    assert_eq!(sequential.len(), live_len);
                    assert_eq!(
                        sequential, parallel,
                        "{model}, {live_len} robots, {participants} participants"
                    );
                }
            }
        }
    }
}
