//! The simulation workloads: Algorithm 4 to dispersion on a relabeled
//! static cycle (`ring-large`, `ring-large-par2`) and against the
//! oracle-guided `MinProgressSampler` adversary (`adaptive-oracle`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use dispersion_core::{ConnectedComponent, DisjointPathSet, DispersionDynamic, SpanningTree};
use dispersion_engine::adversary::{DynamicNetwork, MinProgressSampler, StaticNetwork};
use dispersion_engine::{
    build_packets, CheckPolicy, Configuration, DispersionAlgorithm, ModelSpec, RoundRecord,
    SimError, Simulator, Step, TracePolicy,
};
use dispersion_graph::{generators, relabel, NodeId};

use crate::layers::{now_ns, SharedLog, Span, TimedAlgorithm, TimedNetwork};

/// The model every simulation workload runs Algorithm 4 under.
pub const MODEL: ModelSpec = ModelSpec::GLOBAL_WITH_NEIGHBORHOOD;

/// One dispersion run's input, generated from an instance seed.
#[derive(Clone, Copy, Debug)]
pub enum SimInput {
    /// `k` robots rooted on node 0 of an `n`-cycle whose port labels are
    /// permuted by `seed`.
    Ring {
        n: usize,
        k: usize,
        seed: u64,
        threads: usize,
    },
    /// `k` robots rooted on node 0 against a `MinProgressSampler` over `n`
    /// nodes scoring `candidates` graphs per round.
    Sampler {
        n: usize,
        k: usize,
        candidates: usize,
        edge_prob: f64,
        seed: u64,
    },
}

impl SimInput {
    pub fn k(&self) -> usize {
        match *self {
            SimInput::Ring { k, .. } | SimInput::Sampler { k, .. } => k,
        }
    }

    fn threads(&self) -> usize {
        match *self {
            SimInput::Ring { threads, .. } => threads,
            SimInput::Sampler { .. } => 1,
        }
    }

    /// Input generation and network construction.
    fn network(&self) -> Box<dyn DynamicNetwork> {
        match *self {
            SimInput::Ring { n, seed, .. } => {
                let cycle = generators::cycle(n).expect("ring inputs have n ≥ 3");
                Box::new(StaticNetwork::new(relabel::random_relabel(&cycle, seed)))
            }
            SimInput::Sampler {
                n,
                candidates,
                edge_prob,
                seed,
                ..
            } => Box::new(MinProgressSampler::new(n, candidates, edge_prob, seed)),
        }
    }

    fn initial(&self) -> Configuration {
        match *self {
            SimInput::Ring { n, k, .. } | SimInput::Sampler { n, k, .. } => {
                Configuration::rooted(n, k, NodeId::new(0))
            }
        }
    }

    /// A run that has not dispersed after this many rounds has failed
    /// (Theorem 4 bounds Algorithm 4 by `k` rounds).
    fn round_cap(&self) -> u64 {
        2 * self.k() as u64 + 16
    }
}

fn builder<A, N>(alg: A, net: N, input: &SimInput) -> Result<Simulator<A, N>, SimError>
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
    N: DynamicNetwork,
{
    Simulator::builder(alg, net, MODEL, input.initial())
        .trace(TracePolicy::Off)
        .check(CheckPolicy::Off)
        .threads(input.threads())
        .build()
}

/// Everything the output checks look at, for one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub dispersed: bool,
    pub rounds: u64,
    pub moves: u64,
    pub max_memory_bits: usize,
    /// Fewest newly occupied nodes in any executed round.
    pub min_newly_occupied: usize,
    /// FNV-1a over the final `(robot, node)` placement.
    pub final_fingerprint: u64,
}

/// `⌈log₂ k⌉`, at least 1: the identifier width Theorem 4 allows.
pub fn log2_ceil(k: usize) -> usize {
    (usize::BITS - k.saturating_sub(1).leading_zeros()).max(1) as usize
}

impl Outcome {
    /// Dispersed within `k` rounds, with `⌈log₂ k⌉`-bit memories and at
    /// least one newly occupied node per round (Lemma 7).
    pub fn passes(&self, k: usize) -> bool {
        self.dispersed
            && self.rounds <= k as u64
            && self.max_memory_bits == log2_ceil(k)
            && self.min_newly_occupied >= 1
    }
}

#[derive(Default)]
struct OutcomeAcc {
    rounds: u64,
    moves: u64,
    max_memory_bits: usize,
    min_newly_occupied: Option<usize>,
}

impl OutcomeAcc {
    fn round(&mut self, rec: &RoundRecord) {
        self.rounds += 1;
        self.moves += rec.moves as u64;
        self.max_memory_bits = self.max_memory_bits.max(rec.max_memory_bits);
        self.min_newly_occupied = Some(
            self.min_newly_occupied
                .map_or(rec.newly_occupied, |m| m.min(rec.newly_occupied)),
        );
    }

    fn finish(self, dispersed: bool, config: &Configuration) -> Outcome {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (r, v) in config.iter() {
            for x in [u64::from(r.get()), v.index() as u64] {
                for b in x.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        Outcome {
            dispersed,
            rounds: self.rounds,
            moves: self.moves,
            max_memory_bits: self.max_memory_bits,
            min_newly_occupied: self.min_newly_occupied.unwrap_or(0),
            final_fingerprint: h,
        }
    }
}

/// Wall-clock split of one run, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTimes {
    /// Input generation and network construction.
    pub network_ns: u64,
    /// `SimulatorBuilder::build`, worker spawn included.
    pub build_ns: u64,
    /// Time inside `Simulator::step` calls.
    pub loop_ns: u64,
    /// Set-up, round loop and teardown.
    pub total_ns: u64,
}

/// One set-up as a run performs it, torn down untimed: the set-up time
/// sample of the end-to-end `setup_s`.
pub fn setup_only(input: &SimInput) -> Result<RunTimes, SimError> {
    let t0 = Instant::now();
    let net = input.network();
    let t1 = Instant::now();
    let sim = builder(DispersionDynamic::new(), net, input)?;
    let t2 = Instant::now();
    black_box(&sim);
    drop(sim);
    Ok(RunTimes {
        network_ns: (t1 - t0).as_nanos() as u64,
        build_ns: (t2 - t1).as_nanos() as u64,
        ..RunTimes::default()
    })
}

/// One untraced run: the program exactly as a user drives it. The run
/// calls `between_rounds` after every round; the time spent there is left
/// out of every figure of the run.
pub fn run_plain(
    input: &SimInput,
    between_rounds: &mut dyn FnMut(),
) -> Result<(Outcome, RunTimes), SimError> {
    let t0 = Instant::now();
    let net = input.network();
    let t1 = Instant::now();
    let mut sim = builder(DispersionDynamic::new(), net, input)?;
    let t2 = Instant::now();
    let mut acc = OutcomeAcc::default();
    let mut dispersed = false;
    let mut outside = Duration::ZERO;
    while acc.rounds < input.round_cap() {
        match sim.step()? {
            Step::Dispersed => {
                dispersed = true;
                break;
            }
            Step::Advanced(out) => acc.round(out.record),
        }
        let t = Instant::now();
        between_rounds();
        outside += t.elapsed();
    }
    let t3 = Instant::now();
    let outcome = acc.finish(dispersed, sim.configuration());
    drop(sim);
    let t4 = Instant::now();
    Ok((
        outcome,
        RunTimes {
            network_ns: (t1 - t0).as_nanos() as u64,
            build_ns: (t2 - t1).as_nanos() as u64,
            loop_ns: (t3 - t2 - outside).as_nanos() as u64,
            total_ns: (t4 - t0 - outside).as_nanos() as u64,
        },
    ))
}

/// Per-layer totals over the traced runs of one workload, in nanoseconds
/// unless named otherwise.
#[derive(Clone, Debug, Default)]
pub struct SimLayers {
    pub rounds: u64,
    pub step_ns: u64,
    pub round_ns: Vec<u64>,
    pub engine_self_ns: i64,
    pub core_calls: u64,
    pub core_ns: u64,
    /// In-round core time on the round's critical path: the busiest
    /// instance's time per round.
    pub core_critical_ns: u64,
    pub alg1_ns: u64,
    pub alg2_ns: u64,
    pub alg3_ns: u64,
    pub components: u64,
    pub adversary_calls: u64,
    pub graph_changes: u64,
    pub graph_ns: u64,
    pub oracle_calls: u64,
    pub oracle_ns: u64,
    pub oracle_core_steps: u64,
    pub oracle_core_ns: u64,
    pub half_edges: u64,
    pub csr_bytes: u64,
    pub threads: usize,
    /// Busy time per executor worker (the simulator's own instance when
    /// it runs sequentially).
    pub worker_busy_ns: Vec<u64>,
    /// Traced wall time with the core replay, the between-round sampling
    /// and the network wrapper's own work taken out.
    pub traced_ns: u64,
}

/// Replays Algorithms 1–3 of the round on its packets: the time the
/// memoized step spends building components, trees and paths. Each core
/// instance that stepped in the round (every executor worker keeps a memo
/// of its own) builds them once, so the times count `instances` builds.
fn replay_core(
    input: &(dispersion_graph::PortLabeledGraph, Configuration),
    instances: u64,
    layers: &mut SimLayers,
) {
    let packets = build_packets(&input.0, &input.1, MODEL.neighborhood);
    let t0 = Instant::now();
    let components = ConnectedComponent::build_all(&packets);
    let t1 = Instant::now();
    let trees: Vec<Option<SpanningTree>> = components.iter().map(SpanningTree::build).collect();
    let t2 = Instant::now();
    for (c, t) in components.iter().zip(&trees) {
        if let Some(t) = t {
            black_box(DisjointPathSet::build(c, t));
        }
    }
    let t3 = Instant::now();
    layers.alg1_ns += instances * (t1 - t0).as_nanos() as u64;
    layers.alg2_ns += instances * (t2 - t1).as_nanos() as u64;
    layers.alg3_ns += instances * (t3 - t2).as_nanos() as u64;
    layers.components += components.len() as u64;
}

/// One traced run: the same run through the timing wrappers, recording
/// spans into `log` and totals into `layers`. Like [`run_plain`], it calls
/// `between_rounds` after every round and leaves that time out.
pub fn run_traced(
    input: &SimInput,
    log: &SharedLog,
    layers: &mut SimLayers,
    between_rounds: &mut dyn FnMut(),
) -> Result<Outcome, SimError> {
    let run_start = now_ns();
    let run_id = log.borrow_mut().reserve();
    let net = TimedNetwork::new(input.network(), log.clone());
    let alg = TimedAlgorithm::new(DispersionDynamic::new());
    let registry = alg.registry();
    let mut sim = builder(alg, net, input)?;
    let t_build = now_ns();
    log.borrow_mut().push(run_id, "setup", run_start, t_build);
    let threads = sim.threads();
    layers.threads = threads;
    layers.worker_busy_ns.resize(threads, 0);
    registry.take_all(); // `init` calls made no steps, but start clean

    let mut acc = OutcomeAcc::default();
    let mut dispersed = false;
    let mut outside_ns = 0u64; // replay and `between_rounds`
    let mut last_graph_ns = 0u64;
    let mut last_own_ns = 0u64;
    while acc.rounds < input.round_cap() {
        let round_id = log.borrow_mut().reserve();
        log.borrow_mut().round = round_id;
        let start = now_ns();
        let record = match sim.step()? {
            Step::Dispersed => None,
            Step::Advanced(out) => Some(out.record.clone()),
        };
        let end = now_ns();
        let Some(record) = record else {
            dispersed = true;
            break;
        };
        acc.round(&record);
        let stats = &sim.network().stats;
        let step_ns = end - start - (stats.own_ns - last_own_ns);
        let adversary_ns = stats.graph_ns - last_graph_ns;
        (last_graph_ns, last_own_ns) = (stats.graph_ns, stats.own_ns);

        let deltas = registry.take_all();
        let calls: u64 = deltas.iter().map(|d| d.calls).sum();
        let busy: u64 = deltas.iter().map(|d| d.busy_ns).sum();
        let critical = deltas.iter().map(|d| d.busy_ns).max().unwrap_or(0);
        // Slot 0 is the simulator's own instance; with a worker pool the
        // in-round steps run on the clones behind it.
        let workers = if threads > 1 {
            &deltas[1..]
        } else {
            &deltas[..1]
        };
        for (acc_w, d) in layers.worker_busy_ns.iter_mut().zip(workers) {
            *acc_w += d.busy_ns;
        }
        layers.rounds += 1;
        layers.step_ns += step_ns;
        layers.round_ns.push(step_ns);
        layers.core_calls += calls;
        layers.core_ns += busy;
        layers.core_critical_ns += critical;
        layers.engine_self_ns += step_ns as i64 - adversary_ns as i64 - critical as i64;

        let mut log_ref = log.borrow_mut();
        log_ref.record(Span {
            id: round_id,
            parent: run_id,
            name: "round",
            start_ns: start,
            end_ns: end,
            calls: 1,
            busy_ns: step_ns,
        });
        if calls > 0 {
            let core_id = log_ref.reserve();
            log_ref.record(Span {
                id: core_id,
                parent: round_id,
                name: "core",
                start_ns: deltas
                    .iter()
                    .map(|d| d.first_start_ns)
                    .min()
                    .unwrap_or(start),
                end_ns: deltas.iter().map(|d| d.last_end_ns).max().unwrap_or(end),
                calls,
                busy_ns: critical,
            });
        }
        drop(log_ref);

        let outside_start = now_ns();
        if let Some(input) = sim.network().replay_input() {
            let instances = deltas.iter().filter(|d| d.calls > 0).count() as u64;
            replay_core(input, instances, layers);
        }
        between_rounds();
        outside_ns += now_ns() - outside_start;
    }
    let outcome = acc.finish(dispersed, sim.configuration());
    let net = sim.network();
    let own_ns = net.stats.own_ns;
    layers.adversary_calls += net.stats.calls;
    layers.graph_changes += net.stats.graph_changes;
    layers.graph_ns += net.stats.graph_ns;
    layers.half_edges += net.stats.half_edges;
    layers.csr_bytes += net.stats.csr_bytes;
    layers.oracle_calls += net.oracle.calls.get();
    layers.oracle_ns += net.oracle.moves_ns.get();
    layers.oracle_core_steps += net.oracle.core_steps.get();
    layers.oracle_core_ns += net.oracle.core_ns.get();
    drop(sim);
    let run_end = now_ns();
    log.borrow_mut().record(Span {
        id: run_id,
        parent: 0,
        name: "run",
        start_ns: run_start,
        end_ns: run_end,
        calls: 1,
        busy_ns: run_end - run_start - outside_ns - own_ns,
    });
    layers.traced_ns += run_end - run_start - outside_ns - own_ns;
    Ok(outcome)
}
