//! The synchronous Communicate–Compute–Move simulator.
//!
//! The round loop is engineered to be **allocation-free in steady state**:
//! all per-round working memory lives in a [`RoundScratch`] owned by the
//! [`Simulator`] — a flat robot index over the occupied nodes, one packet
//! table that every robot's [`crate::RobotView`] borrows in place, a
//! cached copy of the last validated adversary graph (an unchanged graph
//! skips re-validation entirely, and is recognized by its content stamp
//! in `O(1)`), and a reusable round record. With [`TracePolicy::Off`] a warm [`Simulator::step`] performs
//! no heap allocation at all; `crates/engine/tests/alloc_budget.rs`
//! enforces this with a counting global allocator.

use dispersion_graph::connectivity::{is_connected_with, DisjointSets};
use dispersion_graph::dynamics::GraphSequence;
use dispersion_graph::{GraphError, Port, PortLabeledGraph};
use std::cell::RefCell;

use crate::adversary::DynamicNetwork;
use crate::budget::Budget;
use crate::compute::{activated_robots_into, compute_pass, RoundInputs};
use crate::executor::{self, WorkerPool};
use crate::invariants::{CheckPolicy, InvariantMonitor, RoundContext, TerminalContext};
use crate::oracle::{EngineOracle, OracleScratch};
use crate::packet::{PacketTable, Packets, RobotIndex};
use crate::{
    Action, Activation, Configuration, CrashPhase, DispersionAlgorithm, ExecutionTrace, FaultPlan,
    MemoryFootprint, ModelSpec, RobotId, RoundRecord, SimError, TracePolicy,
};

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Whether the live robots reached a dispersion configuration within
    /// the round cap.
    pub dispersed: bool,
    /// Rounds executed before termination (a run that starts dispersed
    /// reports 0).
    pub rounds: u64,
    /// Total robots `k` at the start (crashed robots included).
    pub k: usize,
    /// Robots that crashed during the run (`≤ f`).
    pub crashes: usize,
    /// Final placement of the live robots.
    pub final_config: Configuration,
    /// Per-round records (and graphs, if recorded). Empty under
    /// [`TracePolicy::Off`].
    pub trace: ExecutionTrace,
}

impl SimOutcome {
    /// Maximum persistent memory (bits) any robot carried between rounds.
    pub fn max_memory_bits(&self) -> usize {
        self.trace.max_memory_bits()
    }
}

/// Borrowed view of the round a [`Simulator::step`] just executed.
///
/// The record lives in the simulator's reusable scratch: it is valid
/// until the next `step` and never cloned on the hot path. Clone the
/// record if it must outlive the borrow.
#[derive(Debug, PartialEq, Eq)]
pub struct RoundOutput<'a> {
    /// What happened this round.
    pub record: &'a RoundRecord,
}

/// Result of a single [`Simulator::step`].
#[derive(Debug, PartialEq, Eq)]
pub enum Step<'a> {
    /// The live robots were already dispersed when the round began;
    /// nothing was executed.
    Dispersed,
    /// One round executed; the borrowed output describes it.
    Advanced(RoundOutput<'a>),
}

/// Reusable per-round working memory — the heart of the allocation-free
/// hot path. Buffers are cleared and overwritten, never dropped, so after
/// a warm-up round every capacity is already in place.
struct RoundScratch {
    /// The live robots grouped by occupied node (slot), rebuilt each round
    /// before the adversary runs.
    index: RobotIndex,
    /// The round's packets on the committed graph, one row per slot;
    /// every robot's view reads it in place.
    table: PacketTable,
    /// The record of the round in flight / just finished.
    last_record: RoundRecord,
    /// Warm union-find for the per-round connectivity check.
    union_find: DisjointSets,
    /// The last adversary graph that passed validation; producing an
    /// identical graph (every static network, and dynamic ones between
    /// changes) skips validation and connectivity entirely.
    validated: Option<PortLabeledGraph>,
    /// Warm stamp buffer for [`PortLabeledGraph::validate_with`], so
    /// re-validating a changed graph (every round under a dynamic
    /// adversary) allocates nothing.
    validate_seen: Vec<u32>,
}

impl RoundScratch {
    fn new(n: usize) -> Self {
        RoundScratch {
            index: RobotIndex::default(),
            table: PacketTable::default(),
            last_record: RoundRecord {
                round: 0,
                occupied_before: 0,
                occupied_after: 0,
                newly_occupied: 0,
                moves: 0,
                crashed: Vec::new(),
                max_memory_bits: 0,
            },
            union_find: DisjointSets::new(n),
            validated: None,
            validate_seen: Vec::new(),
        }
    }
}

/// Configures and constructs a [`Simulator`] — the only way to build one.
///
/// ```
/// use dispersion_engine::adversary::StaticNetwork;
/// use dispersion_engine::{
///     Configuration, ModelSpec, Simulator, TracePolicy,
/// };
/// use dispersion_graph::{generators, NodeId};
///
/// # use dispersion_engine::{Action, DispersionAlgorithm, MemoryFootprint, RobotId, RobotView};
/// # struct Frozen;
/// # #[derive(Clone)]
/// # struct NoMemory;
/// # impl MemoryFootprint for NoMemory { fn persistent_bits(&self) -> usize { 0 } }
/// # impl DispersionAlgorithm for Frozen {
/// #     type Memory = NoMemory;
/// #     fn name(&self) -> &'static str { "frozen" }
/// #     fn init(&self, _me: RobotId, _k: usize) -> NoMemory { NoMemory }
/// #     fn step(&self, _v: &RobotView, _m: &NoMemory) -> (Action, NoMemory) {
/// #         (Action::Stay, NoMemory)
/// #     }
/// # }
/// let mut sim = Simulator::builder(
///     Frozen,
///     StaticNetwork::new(generators::path(4).unwrap()),
///     ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
///     Configuration::rooted(4, 2, NodeId::new(0)),
/// )
/// .max_rounds(10)
/// .trace(TracePolicy::Off)
/// .build()
/// .unwrap();
/// let outcome = sim.run().unwrap();
/// assert!(!outcome.dispersed);
/// ```
pub struct SimulatorBuilder<A: DispersionAlgorithm, N: DynamicNetwork> {
    algorithm: A,
    network: N,
    model: ModelSpec,
    initial: Configuration,
    max_rounds: u64,
    trace: TracePolicy,
    activation: Activation,
    faults: FaultPlan,
    budget: Budget,
    check: CheckPolicy,
    check_seed: Option<u64>,
    check_round_limit: Option<u64>,
    check_expected_graphs: Option<Vec<u64>>,
    pool: Option<(WorkerPool, executor::ParComputeFn<A>)>,
}

impl<A: DispersionAlgorithm, N: DynamicNetwork> SimulatorBuilder<A, N> {
    /// Starts a builder with the defaults: a 100 000-round cap, per-round
    /// records, full-sync activation, no faults.
    pub fn new(algorithm: A, network: N, model: ModelSpec, initial: Configuration) -> Self {
        SimulatorBuilder {
            algorithm,
            network,
            model,
            initial,
            max_rounds: 100_000,
            trace: TracePolicy::Rounds,
            activation: Activation::FullSync,
            faults: FaultPlan::none(),
            budget: Budget::none(),
            check: CheckPolicy::Off,
            check_seed: None,
            check_round_limit: None,
            check_expected_graphs: None,
            pool: None,
        }
    }

    /// Hard round cap for [`Simulator::run`]; a run that reaches it
    /// reports `dispersed = false`.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// What the simulator retains across rounds (records, graphs, or
    /// nothing — the allocation-free mode).
    pub fn trace(mut self, trace: TracePolicy) -> Self {
        self.trace = trace;
        self
    }

    /// Robot activation schedule (the paper's model is
    /// [`Activation::FullSync`]).
    pub fn activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// Installs a crash-fault schedule (Section VII).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Arms a cooperative [`Budget`] (round limit, wall-clock deadline,
    /// external cancel flag), checked at the top of every
    /// [`Simulator::step`]. An exceeded fence aborts the run with
    /// [`SimError::BudgetExceeded`] — unlike
    /// [`SimulatorBuilder::max_rounds`], which ends `run` gracefully.
    /// The check is allocation-free, so arming a budget preserves the
    /// zero-allocation hot path.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs the stock conformance suite
    /// ([`crate::invariants::InvariantMonitor::stock`]) at the given
    /// policy. With [`CheckPolicy::Off`] — the default — no monitor is
    /// built and `step` stays allocation-free; otherwise every round and
    /// the terminal state are checked, and the first failure aborts the
    /// run with [`SimError::InvariantViolation`].
    pub fn check(mut self, policy: CheckPolicy) -> Self {
        self.check = policy;
        self
    }

    /// Seed reported inside violations so a failing run can be replayed.
    /// Only meaningful alongside [`SimulatorBuilder::check`].
    pub fn check_seed(mut self, seed: u64) -> Self {
        self.check_seed = Some(seed);
        self
    }

    /// Overrides the [`crate::invariants::RoundBound`] limit used by
    /// [`CheckPolicy::Full`] (default: `k`, the Theorem 4 bound).
    pub fn check_round_limit(mut self, limit: u64) -> Self {
        self.check_round_limit = Some(limit);
        self
    }

    /// Arms [`crate::invariants::AdversaryDeterminism`] with the graph
    /// fingerprints of a previous run (see
    /// [`crate::invariants::InvariantMonitor::graph_hashes`]). Only
    /// meaningful alongside a non-[`CheckPolicy::Off`] policy.
    pub fn check_expected_graphs(mut self, expected: Vec<u64>) -> Self {
        self.check_expected_graphs = Some(expected);
        self
    }

    /// Builds the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyRobots`] if the configuration holds more
    /// robots than the network has nodes.
    pub fn build(self) -> Result<Simulator<A, N>, SimError> {
        let k = self.initial.robot_count();
        let n = self.network.node_count();
        if k > n {
            return Err(SimError::TooManyRobots { k, n });
        }
        let max_index = self
            .initial
            .iter()
            .map(|(r, _)| r.index() + 1)
            .max()
            .unwrap_or(0);
        let mut memories: Vec<Option<A::Memory>> = Vec::with_capacity(max_index);
        memories.resize_with(max_index, || None);
        for (r, _) in self.initial.iter() {
            memories[r.index()] = Some(self.algorithm.init(r, k));
        }
        let ever_occupied = self.initial.occupied_indicator();
        let recorded_graphs = self.trace.graphs().then(GraphSequence::new);
        // The configuration indexes the robot-at-node rows before the
        // adversary's graph is validated, so they follow its node count.
        let scratch = RoundScratch::new(self.initial.node_count());
        let monitor = self.check.enabled().then(|| {
            let mut monitor = InvariantMonitor::stock(self.check, k, self.check_round_limit);
            if let Some(seed) = self.check_seed {
                monitor.set_seed(seed);
            }
            if let Some(expected) = self.check_expected_graphs {
                monitor.expect_graphs(expected);
            }
            monitor
        });
        Ok(Simulator {
            algorithm: self.algorithm,
            network: self.network,
            model: self.model,
            max_rounds: self.max_rounds,
            trace: self.trace,
            activation: self.activation,
            faults: self.faults,
            budget: self.budget,
            k,
            config: self.initial,
            memories,
            arrival_ports: vec![None; max_index],
            ever_occupied,
            round: 0,
            records: Vec::new(),
            recorded_graphs,
            total_crashes: 0,
            decisions: Vec::new(),
            scratch,
            oracle_scratch: RefCell::default(),
            monitor,
            pool: self.pool,
            live: Vec::new(),
            par_slots: Vec::new(),
        })
    }
}

impl<A, N> SimulatorBuilder<A, N>
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
    N: DynamicNetwork,
{
    /// Runs the per-robot Compute phase of every round on `threads`
    /// threads: the calling thread plus `threads − 1` persistent workers
    /// (spawned here, joined when the simulator drops). `threads <= 1` —
    /// the default — keeps the untouched sequential path, and
    /// [`Simulator::threads`] reports the count either way.
    ///
    /// Each round the calling thread builds the packets and decides the
    /// first activated robot, then each worker decides one robot reserved
    /// for it, and all of them claim blocks of the remaining robots from
    /// a shared counter. Every decision lands in
    /// its robot's pre-assigned slot and the slots are merged in robot-ID
    /// order, so a run is **byte-identical for every thread count**:
    /// golden traces, graph fingerprints, and seed reproducibility are all
    /// preserved (see `executor.rs`). Between rounds the workers spin and
    /// yield, and park only after about a millisecond without work,
    /// so an idle simulator costs no CPU. More threads than cores work but
    /// buy nothing. Each worker owns a clone of the algorithm, which is
    /// why this — unlike the other builder methods — requires
    /// `A: Clone + Send` and a `Send + Sync` memory type.
    pub fn threads(mut self, threads: usize) -> Self {
        self.pool = (threads > 1).then(|| {
            (
                executor::spawn_pool(threads, &self.algorithm),
                executor::par_compute::<A> as executor::ParComputeFn<A>,
            )
        });
        self
    }
}

/// The synchronous CCM simulator (Section II).
///
/// Each round:
///
/// 1. apply `BeforeCommunicate` crashes; stop if the live robots are
///    dispersed;
/// 2. ask the [`DynamicNetwork`] for `G_r` (handing it the live
///    configuration and a speculative [`crate::MoveOracle`]);
/// 3. *Communicate*: build packets and per-robot views per the
///    [`ModelSpec`];
/// 4. *Compute*: run the pure `step` of every activated robot;
/// 5. apply `AfterCompute` crashes (those robots vanish without moving);
/// 6. *Move*: apply the surviving actions simultaneously.
///
/// Construct via [`Simulator::builder`] / [`SimulatorBuilder`].
pub struct Simulator<A: DispersionAlgorithm, N: DynamicNetwork> {
    algorithm: A,
    network: N,
    model: ModelSpec,
    max_rounds: u64,
    trace: TracePolicy,
    activation: Activation,
    faults: FaultPlan,
    /// Termination fences; the unarmed default costs three `Option`
    /// discriminant tests per round.
    budget: Budget,
    k: usize,
    config: Configuration,
    /// Per-robot state, indexed by [`RobotId::index`]; `None` = crashed.
    memories: Vec<Option<A::Memory>>,
    arrival_ports: Vec<Option<Port>>,
    ever_occupied: Vec<bool>,
    round: u64,
    records: Vec<RoundRecord>,
    recorded_graphs: Option<GraphSequence>,
    total_crashes: usize,
    /// Reused across rounds; drained during Move.
    decisions: Vec<(RobotId, Action, A::Memory)>,
    scratch: RoundScratch,
    /// The speculative oracle's retained view and occupancy buffers.
    oracle_scratch: RefCell<OracleScratch>,
    /// `None` (checking off) costs one discriminant test per round.
    monitor: Option<InvariantMonitor>,
    /// Persistent worker pool ([`SimulatorBuilder::threads`]) plus the
    /// monomorphized parallel-Compute entry point; `None` (the default)
    /// runs the untouched sequential round loop. The calling thread joins
    /// each dispatch with `algorithm`.
    pool: Option<(WorkerPool, executor::ParComputeFn<A>)>,
    /// Activated robots of the round in robot-ID order, each with its slot
    /// in the robot index, built before the adversary runs: the oracle,
    /// the sequential Compute loop and the parallel work list all read
    /// it. Reused across rounds.
    live: Vec<(RobotId, u32)>,
    /// Slot-ordered parallel Compute output, drained into `decisions`.
    par_slots: Vec<executor::Decision<A>>,
}

impl<A: DispersionAlgorithm, N: DynamicNetwork> Simulator<A, N> {
    /// Starts a [`SimulatorBuilder`].
    pub fn builder(
        algorithm: A,
        network: N,
        model: ModelSpec,
        initial: Configuration,
    ) -> SimulatorBuilder<A, N> {
        SimulatorBuilder::new(algorithm, network, model, initial)
    }

    /// The live configuration (before or after `run`).
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// The dynamic network, e.g. to read adversary statistics after `run`.
    pub fn network(&self) -> &N {
        &self.network
    }

    /// Threads executing the round loop: the count configured via
    /// [`SimulatorBuilder::threads`] (the calling thread and its
    /// workers), or 1 for the sequential path.
    pub fn threads(&self) -> usize {
        self.pool
            .as_ref()
            .map_or(1, |(pool, _)| pool.participants())
    }

    fn crash(&mut self, r: RobotId) -> bool {
        if self.config.remove(r).is_none() {
            return false;
        }
        self.memories[r.index()] = None;
        self.arrival_ports[r.index()] = None;
        self.scratch.last_record.crashed.push(r);
        self.total_crashes += 1;
        true
    }

    /// Executes a single CCM round (or detects that the live robots are
    /// already dispersed). Gives callers round-by-round control — e.g.
    /// to inspect the configuration, inject decisions between rounds, or
    /// drive visualizations; [`Simulator::run`] is a loop over this.
    ///
    /// The returned [`RoundOutput`] borrows the simulator's reusable
    /// record — nothing is cloned unless tracing is on.
    ///
    /// `step` ignores [`SimulatorBuilder::max_rounds`]; the cap belongs to
    /// `run`'s loop.
    ///
    /// # Errors
    ///
    /// Returns an error if the adversary produces an invalid graph or a
    /// robot requests a nonexistent port.
    pub fn step(&mut self) -> Result<Step<'_>, SimError> {
        let round = self.round;
        // Phase 0: before-Communicate crashes.
        self.scratch.last_record.crashed.clear();
        for r in self.faults.crashes_at(round, CrashPhase::BeforeCommunicate) {
            self.crash(r);
        }

        if self.config.is_dispersed() {
            self.verify_terminal(true)?;
            return Ok(Step::Dispersed);
        }

        // Termination fence: a run that has not dispersed may not execute
        // past its budget. Checked after the dispersed test so a run that
        // finishes exactly on the fence still reports success.
        if let Some(reason) = self.budget.exceeded(round) {
            return Err(SimError::BudgetExceeded { round, reason });
        }

        // Rebuild the robot index and the round's activated robots. Both
        // are built before the adversary runs — nothing changes the
        // configuration until Move — so the oracle reads them too.
        self.scratch.index.rebuild(&self.config);
        // The table is rebuilt from this index once the graph is known;
        // until then (and if the graph is rejected) it holds no rows.
        self.scratch.table.clear();
        activated_robots_into(&self.scratch.index, self.activation, round, &mut self.live);

        // Adversary picks G_r. The graph is borrowed from the network for
        // the rest of the round — no per-round copy.
        let g: &PortLabeledGraph = {
            let oracle = EngineOracle {
                algorithm: &self.algorithm,
                memories: &self.memories,
                arrival_ports: &self.arrival_ports,
                config: &self.config,
                model: self.model,
                round,
                k: self.k,
                index: &self.scratch.index,
                live: &self.live,
                scratch: &self.oracle_scratch,
            };
            self.network.graph_for_round(round, &self.config, &oracle)
        };
        if self.scratch.validated.as_ref() != Some(g) {
            if g.node_count() != self.config.node_count() {
                return Err(SimError::BadAdversaryGraph {
                    round,
                    source: GraphError::NodeCountMismatch {
                        expected: self.config.node_count(),
                        actual: g.node_count(),
                    },
                });
            }
            g.validate_with(&mut self.scratch.validate_seen)
                .and_then(|()| {
                    if is_connected_with(g, &mut self.scratch.union_find) {
                        Ok(())
                    } else {
                        Err(GraphError::Disconnected)
                    }
                })
                .map_err(|source| SimError::BadAdversaryGraph { round, source })?;
            match &mut self.scratch.validated {
                Some(cache) => cache.clone_from(g),
                cache @ None => *cache = Some(g.clone()),
            }
        }

        let occupied_before = self.config.occupied_count();

        // Communicate: one packet table for the round, under one fresh
        // identity. Under global communication every view reads all of
        // it, under local communication its own row.
        self.scratch
            .table
            .rebuild(g, &self.scratch.index, self.model.neighborhood);

        // Compute (pure; memories updated after Move). With a worker pool
        // the same robots are decided in claimed blocks whose slot-ordered
        // merge reproduces the sequential decision sequence exactly (see
        // `executor.rs`).
        let inputs = RoundInputs {
            g,
            index: &self.scratch.index,
            table: &self.scratch.table,
            memories: &self.memories,
            arrival_ports: &self.arrival_ports,
            model: self.model,
            round,
            k: self.k,
        };
        if let Some((pool, par_compute)) = &mut self.pool {
            par_compute(
                pool,
                &self.algorithm,
                &inputs,
                &self.live,
                &mut self.par_slots,
            );
            self.decisions.extend(
                self.par_slots
                    .drain(..)
                    .map(|slot| slot.expect("every dispatched slot is filled")),
            );
        } else {
            let decisions = &mut self.decisions;
            compute_pass(
                &self.algorithm,
                &inputs,
                self.live.iter().copied(),
                |robot, _, action, next| decisions.push((robot, action, next)),
            );
        }

        // After-Compute crashes: these robots vanish without moving.
        // (Inlined crash bookkeeping: `self.crash` would re-borrow all of
        // `self` while `g` still borrows `self.network`.)
        let after_crashes = self.faults.crashes_at(round, CrashPhase::AfterCompute);
        if !after_crashes.is_empty() {
            for &r in &after_crashes {
                if self.config.remove(r).is_none() {
                    continue;
                }
                self.memories[r.index()] = None;
                self.arrival_ports[r.index()] = None;
                self.scratch.last_record.crashed.push(r);
                self.total_crashes += 1;
            }
            self.decisions
                .retain(|(r, _, _)| !after_crashes.contains(r));
        }

        // Move: apply all surviving actions simultaneously. New-node
        // accounting happens here: only a move can occupy a fresh node.
        let mut moves = 0usize;
        let mut newly_occupied = 0usize;
        for (robot, action, next_mem) in self.decisions.drain(..) {
            match action {
                Action::Stay => {
                    self.arrival_ports[robot.index()] = None;
                }
                Action::Move(p) => {
                    let from = self.config.node_of(robot).expect("robot is live");
                    let (to, entry) = g.neighbor_via(from, p).ok_or(SimError::InvalidMove {
                        round,
                        robot,
                        port: p,
                        degree: g.degree(from),
                    })?;
                    self.config.set_position(robot, to);
                    self.arrival_ports[robot.index()] = Some(entry);
                    moves += 1;
                    if !self.ever_occupied[to.index()] {
                        self.ever_occupied[to.index()] = true;
                        newly_occupied += 1;
                    }
                }
            }
            self.memories[robot.index()] = Some(next_mem);
        }

        let max_memory_bits = self
            .memories
            .iter()
            .flatten()
            .map(MemoryFootprint::persistent_bits)
            .max()
            .unwrap_or(0);

        let record = &mut self.scratch.last_record;
        record.round = round;
        record.occupied_before = occupied_before;
        record.occupied_after = self.config.occupied_count();
        record.newly_occupied = newly_occupied;
        record.moves = moves;
        // Crash IDs are unique; unstable sort is deterministic.
        record.crashed.sort_unstable();
        record.max_memory_bits = max_memory_bits;
        if self.trace.records() {
            self.records.push(record.clone());
        }
        if let Some(seq) = self.recorded_graphs.as_mut() {
            seq.push(g.clone())
                .map_err(|source| SimError::BadAdversaryGraph { round, source })?;
        }
        // Conformance hook. Direct field access keeps the borrows disjoint
        // while `g` still borrows `self.network`.
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.check_round(&RoundContext {
                round,
                k: self.k,
                crashes: self.total_crashes,
                graph: g,
                config: &self.config,
                record: &self.scratch.last_record,
            })?;
        }
        self.round += 1;
        Ok(Step::Advanced(RoundOutput {
            record: &self.scratch.last_record,
        }))
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The packets of the last executed round: one per node occupied when
    /// the round began (after its before-Communicate crashes), built on
    /// the round's graph, ascending by sender — whatever the
    /// communication model hands each robot of it. Empty before the
    /// first round and after a round whose graph was rejected.
    ///
    /// For differential tests of the packet table; not a stable API.
    #[doc(hidden)]
    pub fn round_packets(&self) -> Packets<'_> {
        self.scratch.table.all(&self.scratch.index)
    }

    /// The conformance monitor, when checking is enabled — e.g. to read
    /// the recorded graph fingerprints after a run.
    pub fn monitor(&self) -> Option<&InvariantMonitor> {
        self.monitor.as_ref()
    }

    fn verify_terminal(&mut self, dispersed: bool) -> Result<(), SimError> {
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.check_terminal(&TerminalContext {
                rounds: self.round,
                k: self.k,
                crashes: self.total_crashes,
                dispersed,
                config: &self.config,
            })?;
        }
        Ok(())
    }

    /// Per-round records accumulated so far (empty under
    /// [`TracePolicy::Off`]).
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    fn outcome(&self, dispersed: bool) -> SimOutcome {
        SimOutcome {
            dispersed,
            rounds: self.round,
            k: self.k,
            crashes: self.total_crashes,
            final_config: self.config.clone(),
            trace: ExecutionTrace {
                records: self.records.clone(),
                graphs: self.recorded_graphs.clone(),
            },
        }
    }

    /// Runs to termination (dispersion of the live robots) or to the round
    /// cap.
    ///
    /// # Errors
    ///
    /// Returns an error if the adversary produces an invalid graph or a
    /// robot requests a nonexistent port.
    pub fn run(&mut self) -> Result<SimOutcome, SimError> {
        loop {
            if self.round >= self.max_rounds {
                // No further round may execute; the termination state is
                // decided by the configuration after this round's early
                // crashes (mirrors the per-round order of `step`).
                self.scratch.last_record.crashed.clear();
                for r in self
                    .faults
                    .crashes_at(self.round, CrashPhase::BeforeCommunicate)
                {
                    self.crash(r);
                }
                let dispersed = self.config.is_dispersed();
                self.verify_terminal(dispersed)?;
                return Ok(self.outcome(dispersed));
            }
            let dispersed = matches!(self.step()?, Step::Dispersed);
            if dispersed {
                return Ok(self.outcome(true));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::StaticNetwork;
    use crate::{CrashEvent, RobotView};
    use dispersion_graph::{generators, NodeId};

    /// All non-minimum robots on a node exit through the smallest empty
    /// port if any, else port 1. Disperses on a path when walking away
    /// from the smallest robot.
    struct GreedySpill;

    #[derive(Clone)]
    struct Nil;
    impl MemoryFootprint for Nil {
        fn persistent_bits(&self) -> usize {
            3
        }
    }

    impl DispersionAlgorithm for GreedySpill {
        type Memory = Nil;
        fn name(&self) -> &str {
            "greedy-spill"
        }
        fn init(&self, _me: RobotId, _k: usize) -> Nil {
            Nil
        }
        fn step(&self, view: &RobotView, _mem: &Nil) -> (Action, Nil) {
            if view.colocated.first() == Some(&view.me) {
                return (Action::Stay, Nil);
            }
            let empties = view.empty_ports().unwrap_or_default();
            // Spread: i-th extra robot takes i-th empty port when possible.
            let my_rank = view
                .colocated
                .iter()
                .position(|&r| r == view.me)
                .expect("self in colocated")
                - 1;
            match empties.get(my_rank % empties.len().max(1)) {
                Some(&p) => (Action::Move(p), Nil),
                None => (Action::Stay, Nil),
            }
        }
    }

    /// Robots that never move: a rooted configuration never disperses.
    struct Frozen;

    impl DispersionAlgorithm for Frozen {
        type Memory = Nil;
        fn name(&self) -> &str {
            "frozen"
        }
        fn init(&self, _me: RobotId, _k: usize) -> Nil {
            Nil
        }
        fn step(&self, _v: &RobotView, _m: &Nil) -> (Action, Nil) {
            (Action::Stay, Nil)
        }
    }

    #[test]
    fn disperses_on_star() {
        // k robots on the center of a star: each extra robot takes a
        // distinct empty port, dispersing in one round.
        let g = generators::star(6).unwrap();
        let mut sim = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(6, 5, NodeId::new(0)),
        )
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        assert!(out.dispersed);
        assert_eq!(out.rounds, 1);
        assert!(out.final_config.is_dispersed());
        assert_eq!(out.trace.records.len(), 1);
        assert_eq!(out.trace.records[0].newly_occupied, 4);
        assert_eq!(out.max_memory_bits(), 3);
    }

    #[test]
    fn already_dispersed_takes_zero_rounds() {
        let g = generators::path(4).unwrap();
        let cfg = Configuration::from_pairs(
            4,
            [
                (RobotId::new(1), NodeId::new(0)),
                (RobotId::new(2), NodeId::new(2)),
            ],
        );
        let out = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            cfg,
        )
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert!(out.dispersed);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn round_cap_reports_not_dispersed() {
        let g = generators::path(4).unwrap();
        let out = Simulator::builder(
            Frozen,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(4, 2, NodeId::new(0)),
        )
        .max_rounds(10)
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert!(!out.dispersed);
        assert_eq!(out.rounds, 10);
    }

    #[test]
    fn too_many_robots_rejected() {
        let g = generators::path(2).unwrap();
        let err = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(2, 3, NodeId::new(0)),
        )
        .build()
        .err()
        .unwrap();
        assert_eq!(err, SimError::TooManyRobots { k: 3, n: 2 });
    }

    #[test]
    fn crash_before_communicate_thins_population() {
        // Three robots on one 2-node edge: crashing one before round 0
        // leaves 2 robots; dispersion then needs both nodes.
        let g = generators::path(2).unwrap();
        let out = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(2, 2, NodeId::new(0)),
        )
        .faults(FaultPlan::from_events([CrashEvent {
            robot: RobotId::new(2),
            round: 0,
            phase: CrashPhase::BeforeCommunicate,
        }]))
        .build()
        .unwrap()
        .run()
        .unwrap();
        // Robot 2 crashed, robot 1 alone is trivially dispersed.
        assert!(out.dispersed);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.crashes, 1);
        assert_eq!(out.final_config.robot_count(), 1);
    }

    #[test]
    fn crash_after_compute_cancels_move() {
        // Star: robots 2..=3 would fan out, but robot 2 crashes after
        // compute; it vanishes and robot 3 still moves.
        let g = generators::star(4).unwrap();
        let out = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(4, 3, NodeId::new(0)),
        )
        .faults(FaultPlan::from_events([CrashEvent {
            robot: RobotId::new(2),
            round: 0,
            phase: CrashPhase::AfterCompute,
        }]))
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert!(out.dispersed);
        assert_eq!(out.crashes, 1);
        assert_eq!(out.final_config.robot_count(), 2);
        // Robot 2 is gone; robots 1 and 3 on distinct nodes.
        assert!(out.final_config.node_of(RobotId::new(2)).is_none());
    }

    #[test]
    fn bad_adversary_graph_is_an_error() {
        /// A network that returns a graph of the wrong size.
        struct WrongSize {
            current: Option<dispersion_graph::PortLabeledGraph>,
        }
        impl crate::adversary::DynamicNetwork for WrongSize {
            fn node_count(&self) -> usize {
                4
            }
            fn graph_for_round(
                &mut self,
                _round: u64,
                _config: &Configuration,
                _oracle: &dyn crate::MoveOracle,
            ) -> &dispersion_graph::PortLabeledGraph {
                self.current.insert(generators::path(3).unwrap())
            }
        }
        let mut sim = Simulator::builder(
            GreedySpill,
            WrongSize { current: None },
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(4, 2, NodeId::new(0)),
        )
        .build()
        .unwrap();
        assert!(matches!(
            sim.run(),
            Err(SimError::BadAdversaryGraph { round: 0, .. })
        ));
        // A configuration over more nodes than the network has, with
        // robots beyond the network's last node.
        let mut sim = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(generators::path(4).unwrap()),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(6, 2, NodeId::new(5)),
        )
        .build()
        .unwrap();
        assert!(matches!(
            sim.run(),
            Err(SimError::BadAdversaryGraph { round: 0, .. })
        ));
    }

    #[test]
    fn disconnected_adversary_graph_is_an_error() {
        struct Disconnected {
            current: Option<dispersion_graph::PortLabeledGraph>,
        }
        impl crate::adversary::DynamicNetwork for Disconnected {
            fn node_count(&self) -> usize {
                4
            }
            fn graph_for_round(
                &mut self,
                _round: u64,
                _config: &Configuration,
                _oracle: &dyn crate::MoveOracle,
            ) -> &dispersion_graph::PortLabeledGraph {
                let mut b = dispersion_graph::GraphBuilder::new(4);
                b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
                b.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
                self.current.insert(b.build().unwrap())
            }
        }
        let mut sim = Simulator::builder(
            GreedySpill,
            Disconnected { current: None },
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(4, 2, NodeId::new(0)),
        )
        .build()
        .unwrap();
        assert!(matches!(sim.run(), Err(SimError::BadAdversaryGraph { .. })));
    }

    #[test]
    fn validation_cache_checks_every_changed_graph() {
        /// Plays `script[r]` in round `r`, then repeats the last entry.
        struct Scripted {
            script: Vec<dispersion_graph::PortLabeledGraph>,
        }
        impl crate::adversary::DynamicNetwork for Scripted {
            fn node_count(&self) -> usize {
                4
            }
            fn graph_for_round(
                &mut self,
                round: u64,
                _config: &Configuration,
                _oracle: &dyn crate::MoveOracle,
            ) -> &dispersion_graph::PortLabeledGraph {
                let last = self.script.len() - 1;
                &self.script[(round as usize).min(last)]
            }
        }
        let run = |script: Vec<PortLabeledGraph>| {
            Simulator::builder(
                Frozen,
                Scripted { script },
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                Configuration::rooted(4, 2, NodeId::new(0)),
            )
            .max_rounds(6)
            .build()
            .unwrap()
            .run()
        };
        let path = generators::path(4).unwrap();
        let cycle = generators::cycle(4).unwrap();
        // Four nodes and two edges each, like the path's first half.
        let mut b = dispersion_graph::GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        let split = b.build().unwrap();

        // Valid for rounds 0–2 (one of them a cache hit), then a
        // disconnected graph: rejected in the round it appears.
        let err = run(vec![path.clone(), path.clone(), cycle.clone(), split]).unwrap_err();
        assert!(
            matches!(err, SimError::BadAdversaryGraph { round: 3, .. }),
            "{err:?}"
        );
        // Returning to a graph validated earlier is accepted.
        let out = run(vec![path.clone(), cycle.clone(), path, cycle]).unwrap();
        assert!(!out.dispersed);
        assert_eq!(out.rounds, 6);
    }

    #[test]
    fn graphs_rebuilt_in_place_are_validated_every_round() {
        /// Rebuilds one graph in place every round, as churn networks do:
        /// a path for three rounds, then a disconnected graph. The
        /// buffer is the same each round; its content stamp is not.
        struct InPlace {
            g: PortLabeledGraph,
        }
        impl crate::adversary::DynamicNetwork for InPlace {
            fn node_count(&self) -> usize {
                4
            }
            fn graph_for_round(
                &mut self,
                round: u64,
                _config: &Configuration,
                _oracle: &dyn crate::MoveOracle,
            ) -> &PortLabeledGraph {
                let mut b = dispersion_graph::GraphBuilder::new(4);
                b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
                b.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
                if round < 3 {
                    b.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
                }
                b.build_into(&mut self.g).unwrap();
                &self.g
            }
        }
        let err = Simulator::builder(
            Frozen,
            InPlace {
                g: generators::path(4).unwrap(),
            },
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(4, 2, NodeId::new(0)),
        )
        .max_rounds(6)
        .build()
        .unwrap()
        .run()
        .unwrap_err();
        assert!(
            matches!(err, SimError::BadAdversaryGraph { round: 3, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_move_is_an_error() {
        /// Robots that ask for a port beyond the degree.
        struct PortNine;
        impl DispersionAlgorithm for PortNine {
            type Memory = Nil;
            fn name(&self) -> &str {
                "port-nine"
            }
            fn init(&self, _me: RobotId, _k: usize) -> Nil {
                Nil
            }
            fn step(&self, _v: &RobotView, _m: &Nil) -> (Action, Nil) {
                (Action::Move(Port::new(9)), Nil)
            }
        }
        let mut sim = Simulator::builder(
            PortNine,
            StaticNetwork::new(generators::path(3).unwrap()),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(3, 2, NodeId::new(0)),
        )
        .build()
        .unwrap();
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::InvalidMove { port, .. } if port == Port::new(9)));
    }

    #[test]
    fn trace_records_graphs_when_asked() {
        let g = generators::star(4).unwrap();
        let out = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(4, 3, NodeId::new(0)),
        )
        .trace(TracePolicy::RoundsAndGraphs)
        .build()
        .unwrap()
        .run()
        .unwrap();
        let seq = out.trace.graphs.as_ref().unwrap();
        assert_eq!(seq.len() as u64, out.rounds);
        assert_eq!(seq.dynamic_diameter(), Some(2));
    }

    #[test]
    fn trace_off_retains_nothing() {
        let g = generators::star(6).unwrap();
        let mut sim = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(6, 4, NodeId::new(0)),
        )
        .trace(TracePolicy::Off)
        .build()
        .unwrap();
        // The borrowed per-step output is still fully populated.
        match sim.step().unwrap() {
            Step::Advanced(out) => {
                assert_eq!(out.record.round, 0);
                assert_eq!(out.record.newly_occupied, 3);
            }
            Step::Dispersed => panic!("rooted start is not dispersed"),
        }
        let out = sim.run().unwrap();
        assert!(out.dispersed);
        assert!(out.trace.records.is_empty());
        assert!(out.trace.graphs.is_none());
        assert!(sim.records().is_empty());
    }

    #[test]
    fn stepwise_api_matches_run() {
        let g = generators::star(6).unwrap();
        let mk = || {
            Simulator::builder(
                GreedySpill,
                StaticNetwork::new(g.clone()),
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                Configuration::rooted(6, 4, NodeId::new(0)),
            )
            .build()
            .unwrap()
        };
        let mut stepped = mk();
        let mut statuses = Vec::new();
        loop {
            match stepped.step().unwrap() {
                Step::Dispersed => break,
                Step::Advanced(out) => statuses.push(out.record.clone()),
            }
        }
        let mut ran = mk();
        let out = ran.run().unwrap();
        assert!(out.dispersed);
        assert_eq!(statuses, out.trace.records);
        assert_eq!(stepped.round(), out.rounds);
        assert_eq!(stepped.records(), &out.trace.records[..]);
        assert_eq!(stepped.configuration(), &out.final_config);
    }

    #[test]
    fn step_is_idempotent_once_dispersed() {
        let g = generators::path(4).unwrap();
        let mut sim = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::from_pairs(
                4,
                [
                    (RobotId::new(1), NodeId::new(0)),
                    (RobotId::new(2), NodeId::new(2)),
                ],
            ),
        )
        .build()
        .unwrap();
        assert!(matches!(sim.step().unwrap(), Step::Dispersed));
        assert!(matches!(sim.step().unwrap(), Step::Dispersed));
        assert_eq!(sim.round(), 0);
        assert!(sim.records().is_empty());
    }

    #[test]
    fn stepwise_observation_between_rounds() {
        // The point of the step API: callers can watch the configuration
        // evolve. Occupied count grows monotonically for GreedySpill on a
        // star.
        let g = generators::star(8).unwrap();
        let mut sim = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(8, 6, NodeId::new(0)),
        )
        .build()
        .unwrap();
        let mut last = sim.configuration().occupied_count();
        while matches!(sim.step().unwrap(), Step::Advanced(_)) {
            let now = sim.configuration().occupied_count();
            assert!(now >= last);
            last = now;
        }
        assert!(sim.configuration().is_dispersed());
    }

    #[test]
    fn round_budget_fence_is_an_error() {
        let g = generators::path(4).unwrap();
        let mut sim = Simulator::builder(
            Frozen,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(4, 2, NodeId::new(0)),
        )
        .budget(crate::Budget::none().with_max_rounds(7))
        .build()
        .unwrap();
        let err = sim.run().unwrap_err();
        assert_eq!(
            err,
            SimError::BudgetExceeded {
                round: 7,
                reason: crate::BudgetReason::MaxRounds { limit: 7 },
            }
        );
        assert_eq!(sim.round(), 7, "exactly the budgeted rounds executed");
    }

    #[test]
    fn budget_does_not_fail_a_dispersing_run() {
        // GreedySpill disperses a 5-robot star in one round; a budget of
        // exactly 1 must not fire.
        let g = generators::star(6).unwrap();
        let out = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(6, 5, NodeId::new(0)),
        )
        .budget(crate::Budget::none().with_max_rounds(1))
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert!(out.dispersed);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn cancelled_budget_aborts_mid_run() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        // A rooted path disperses over many rounds, so one step leaves the
        // run mid-flight.
        let g = generators::path(8).unwrap();
        let mut sim = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(8, 6, NodeId::new(0)),
        )
        .budget(crate::Budget::none().with_cancel(Arc::clone(&flag)))
        .build()
        .unwrap();
        assert!(matches!(sim.step(), Ok(Step::Advanced(_))));
        flag.store(true, Ordering::Relaxed);
        let err = sim.step().unwrap_err();
        assert!(matches!(
            err,
            SimError::BudgetExceeded {
                round: 1,
                reason: crate::BudgetReason::Cancelled,
            }
        ));
    }

    #[test]
    fn expired_deadline_fires_before_any_round() {
        let g = generators::star(4).unwrap();
        let mut sim = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(4, 3, NodeId::new(0)),
        )
        .budget(crate::Budget::none().with_timeout(std::time::Duration::ZERO))
        .build()
        .unwrap();
        let err = sim.run().unwrap_err();
        assert!(matches!(
            err,
            SimError::BudgetExceeded {
                round: 0,
                reason: crate::BudgetReason::Deadline,
            }
        ));
    }

    #[test]
    fn semisync_inactive_robots_hold_position() {
        // With 0% activation nothing ever moves.
        let g = generators::star(4).unwrap();
        let out = Simulator::builder(
            GreedySpill,
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(4, 3, NodeId::new(0)),
        )
        .max_rounds(5)
        .activation(Activation::SemiSync {
            p_percent: 0,
            seed: 1,
        })
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert!(!out.dispersed);
        assert_eq!(out.trace.total_moves(), 0);
    }
}
