//! Timing wrappers around the public layer boundaries the program already
//! exposes: [`DispersionAlgorithm::step`] (core),
//! [`DynamicNetwork::graph_for_round`] (adversary) and
//! [`MoveOracle`] (oracle). They forward every call unchanged and only
//! count, time and record spans, so a wrapped run has the outcome of an
//! unwrapped one (checked on every traced run and by the self-tests).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dispersion_engine::adversary::DynamicNetwork;
use dispersion_engine::invariants::graph_fingerprint;
use dispersion_engine::{
    Action, Configuration, DispersionAlgorithm, MoveOracle, ResolvedMove, RobotId, RobotView,
};
use dispersion_graph::{NodeId, Port, PortLabeledGraph};

/// Nanoseconds since the first call in this process: the common time base
/// of every span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One traced interval. `parent == 0` marks a root span. An aggregated
/// span (all core calls of one round or of one oracle call) spans its
/// first to last call and carries the number of calls it stands for and
/// the time they were busy; a plain span has one call, busy for its whole
/// interval. A span's self time is its duration minus its children's
/// busy time.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

/// In-memory span store, written out once the workload ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    next_id: u64,
    /// Parent of the spans the network wrapper opens: the round in flight.
    pub round: u64,
}

impl SpanLog {
    /// Reserves an id for a span whose end is not known yet.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a span under a reserved id.
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Records a span under a fresh id and returns the id.
    pub fn push(&mut self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.reserve();
        let busy_ns = end_ns - start_ns;
        self.record(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            calls: 1,
            busy_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

pub type SharedLog = Rc<RefCell<SpanLog>>;

/// Core-call accumulator of one algorithm instance: the simulator's own,
/// or one executor worker's clone. Each instance is used by one thread at
/// a time; the simulator joins its workers before `step` returns, so the
/// relaxed counters are complete when the benchmark reads them.
#[derive(Debug)]
pub struct CoreSlot {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    first_start_ns: AtomicU64,
    last_end_ns: AtomicU64,
}

impl Default for CoreSlot {
    fn default() -> Self {
        CoreSlot {
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            first_start_ns: AtomicU64::new(u64::MAX),
            last_end_ns: AtomicU64::new(0),
        }
    }
}

/// What one [`CoreSlot`] did since the previous [`CoreSlot::take`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreDelta {
    pub calls: u64,
    pub busy_ns: u64,
    /// `u64::MAX` when no call happened.
    pub first_start_ns: u64,
    pub last_end_ns: u64,
}

impl CoreSlot {
    fn add(&self, start_ns: u64, busy_ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        self.first_start_ns.fetch_min(start_ns, Ordering::Relaxed);
        self.last_end_ns
            .fetch_max(start_ns + busy_ns, Ordering::Relaxed);
    }

    /// Drains the slot.
    pub fn take(&self) -> CoreDelta {
        CoreDelta {
            calls: self.calls.swap(0, Ordering::Relaxed),
            busy_ns: self.busy_ns.swap(0, Ordering::Relaxed),
            first_start_ns: self.first_start_ns.swap(u64::MAX, Ordering::Relaxed),
            last_end_ns: self.last_end_ns.swap(0, Ordering::Relaxed),
        }
    }
}

/// Every [`CoreSlot`] handed out by one [`TimedAlgorithm`] and its clones,
/// in creation order: slot 0 is the simulator's own instance, the rest
/// are the executor's worker clones.
#[derive(Debug, Default)]
pub struct CoreRegistry {
    slots: Mutex<Vec<Arc<CoreSlot>>>,
}

impl CoreRegistry {
    fn register(&self) -> Arc<CoreSlot> {
        let slot = Arc::new(CoreSlot::default());
        self.slots
            .lock()
            .expect("registry lock is never poisoned")
            .push(Arc::clone(&slot));
        slot
    }

    /// Drains every slot, in creation order.
    pub fn take_all(&self) -> Vec<CoreDelta> {
        self.slots
            .lock()
            .expect("registry lock is never poisoned")
            .iter()
            .map(|s| s.take())
            .collect()
    }
}

thread_local! {
    /// `Some((calls, busy_ns))` while this thread runs inside an oracle
    /// call: core steps made there are the oracle's, not the round's.
    static ORACLE_CORE: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// [`DispersionAlgorithm`] wrapper timing every `step`.
#[derive(Debug)]
pub struct TimedAlgorithm<A> {
    inner: A,
    slot: Arc<CoreSlot>,
    registry: Arc<CoreRegistry>,
}

impl<A> TimedAlgorithm<A> {
    pub fn new(inner: A) -> Self {
        let registry = Arc::new(CoreRegistry::default());
        TimedAlgorithm {
            inner,
            slot: registry.register(),
            registry,
        }
    }

    pub fn registry(&self) -> Arc<CoreRegistry> {
        Arc::clone(&self.registry)
    }
}

impl<A: Clone> Clone for TimedAlgorithm<A> {
    /// A clone (one per executor worker) accumulates into a slot of its own.
    fn clone(&self) -> Self {
        TimedAlgorithm {
            inner: self.inner.clone(),
            slot: self.registry.register(),
            registry: Arc::clone(&self.registry),
        }
    }
}

impl<A: DispersionAlgorithm> DispersionAlgorithm for TimedAlgorithm<A> {
    type Memory = A::Memory;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&self, me: RobotId, k: usize) -> A::Memory {
        self.inner.init(me, k)
    }

    fn step(&self, view: &RobotView, memory: &A::Memory) -> (Action, A::Memory) {
        let start = now_ns();
        let out = self.inner.step(view, memory);
        let busy = now_ns() - start;
        let in_oracle = ORACLE_CORE.with(|acc| match acc.get() {
            Some((calls, ns)) => {
                acc.set(Some((calls + 1, ns + busy)));
                true
            }
            None => false,
        });
        if !in_oracle {
            self.slot.add(start, busy);
        }
        out
    }
}

/// Oracle totals of one network wrapper.
#[derive(Debug, Default)]
pub struct OracleStats {
    pub calls: Cell<u64>,
    pub moves_ns: Cell<u64>,
    pub core_steps: Cell<u64>,
    pub core_ns: Cell<u64>,
}

/// [`MoveOracle`] wrapper: times each call the adversary makes, whichever
/// entry point it uses, and forwards it to the same entry point of the
/// engine's oracle.
struct TimedOracle<'a> {
    inner: &'a dyn MoveOracle,
    stats: &'a OracleStats,
    log: &'a RefCell<SpanLog>,
    parent: u64,
}

impl TimedOracle<'_> {
    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let outer = ORACLE_CORE.with(|acc| acc.replace(Some((0, 0))));
        let start = now_ns();
        let out = call();
        let end = now_ns();
        let (core_calls, core_ns) = ORACLE_CORE
            .with(|acc| acc.replace(outer))
            .expect("set on entry");
        let s = self.stats;
        s.calls.set(s.calls.get() + 1);
        s.moves_ns.set(s.moves_ns.get() + (end - start));
        s.core_steps.set(s.core_steps.get() + core_calls);
        s.core_ns.set(s.core_ns.get() + core_ns);
        let mut log = self.log.borrow_mut();
        let id = log.push(self.parent, "oracle", start, end);
        let core = log.reserve();
        log.record(Span {
            id: core,
            parent: id,
            name: "core",
            start_ns: start,
            end_ns: end,
            calls: core_calls,
            busy_ns: core_ns,
        });
        out
    }
}

impl MoveOracle for TimedOracle<'_> {
    fn moves_on(&self, g: &PortLabeledGraph) -> Vec<ResolvedMove> {
        self.timed(|| self.inner.moves_on(g))
    }

    fn configuration(&self) -> &Configuration {
        self.inner.configuration()
    }

    fn occupied_after(&self, g: &PortLabeledGraph) -> Vec<bool> {
        self.timed(|| self.inner.occupied_after(g))
    }

    fn progress_on(&self, g: &PortLabeledGraph) -> usize {
        self.timed(|| self.inner.progress_on(g))
    }
}

/// Adversary totals of one network wrapper.
#[derive(Debug, Default)]
pub struct AdversaryStats {
    pub calls: u64,
    pub graph_changes: u64,
    pub graph_ns: u64,
    pub half_edges: u64,
    pub csr_bytes: u64,
    /// The wrapper's own work after the adversary returns (span record,
    /// fingerprint, CSR count, replay copy): inside `Simulator::step`, so
    /// the benchmark takes it out of the step time.
    pub own_ns: u64,
}

/// [`DynamicNetwork`] wrapper timing `graph_for_round` and handing the
/// wrapped adversary a [`TimedOracle`].
pub struct TimedNetwork<N> {
    inner: N,
    pub stats: AdversaryStats,
    pub oracle: OracleStats,
    log: SharedLog,
    last_fingerprint: Option<u64>,
    /// The graph and configuration of the last round, kept so the
    /// benchmark can replay Algorithms 1–3 on them outside the round.
    replay: Option<(PortLabeledGraph, Configuration)>,
}

impl<N: DynamicNetwork> TimedNetwork<N> {
    pub fn new(inner: N, log: SharedLog) -> Self {
        TimedNetwork {
            inner,
            stats: AdversaryStats::default(),
            oracle: OracleStats::default(),
            log,
            last_fingerprint: None,
            replay: None,
        }
    }

    /// Graph and configuration the last round ran on.
    pub fn replay_input(&self) -> Option<&(PortLabeledGraph, Configuration)> {
        self.replay.as_ref()
    }
}

impl<N: DynamicNetwork> DynamicNetwork for TimedNetwork<N> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn graph_for_round(
        &mut self,
        round: u64,
        config: &Configuration,
        oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        let (parent, id) = {
            let mut log = self.log.borrow_mut();
            (log.round, log.reserve())
        };
        let timed = TimedOracle {
            inner: oracle,
            stats: &self.oracle,
            log: &self.log,
            parent: id,
        };
        let start = now_ns();
        let g = self.inner.graph_for_round(round, config, &timed);
        let end = now_ns();
        self.log.borrow_mut().record(Span {
            id,
            parent,
            name: "adversary",
            start_ns: start,
            end_ns: end,
            calls: 1,
            busy_ns: end - start,
        });

        let s = &mut self.stats;
        s.calls += 1;
        s.graph_ns += end - start;
        let fingerprint = graph_fingerprint(g);
        if self.last_fingerprint != Some(fingerprint) {
            s.graph_changes += 1;
            self.last_fingerprint = Some(fingerprint);
        }
        // Computed from the CSR layout: n + 1 u32 offsets plus one
        // (NodeId, Port) entry per half-edge.
        let half_edges = 2 * g.edge_count() as u64;
        s.half_edges += half_edges;
        s.csr_bytes += (g.node_count() as u64 + 1) * std::mem::size_of::<u32>() as u64
            + half_edges * std::mem::size_of::<(NodeId, Port)>() as u64;
        match &mut self.replay {
            Some((graph, cfg)) => {
                graph.clone_from(g);
                cfg.clone_from(config);
            }
            slot @ None => *slot = Some((g.clone(), config.clone())),
        }
        self.stats.own_ns += now_ns() - end;
        g
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
