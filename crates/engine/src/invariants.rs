//! Runtime conformance checking: the paper's guarantees as per-round,
//! machine-checked invariants.
//!
//! The theorems of Kshemkalyani, Molla and Sharma are exactly checkable
//! while a simulation runs — dispersion safety, 1-interval connectivity
//! of every adversary graph, port-label sanity, the `Θ(log(k+Δ))`-bit
//! memory bound, per-round progress (Lemma 7), and the Theorem 3–5 round
//! bounds. An [`InvariantMonitor`] evaluates a suite of [`Invariant`]s
//! after every [`crate::Simulator::step`] and again at termination; the
//! first failure surfaces as a structured [`InvariantViolation`] inside
//! [`crate::SimError`], carrying the round number, the offending node and
//! robot ids, and (when the caller registered one) a replayable seed.
//!
//! Checking is opt-in via [`crate::SimulatorBuilder::check`]. With
//! [`CheckPolicy::Off`] — the default — the simulator carries no monitor
//! at all: the hot path pays a single `Option` discriminant test per
//! round and performs no allocation (enforced by
//! `crates/engine/tests/alloc_budget.rs`).
//!
//! The split between [`CheckPolicy::Structural`] and [`CheckPolicy::Full`]
//! mirrors the split between *model* and *theorem*: structural invariants
//! must hold for **any** algorithm executing in the model (they audit the
//! simulator and the adversary), while the full suite adds bounds that
//! the paper proves for Algorithm 4 specifically and that would be false
//! for, say, a random walk.

use std::fmt;

use dispersion_graph::connectivity::{is_connected_with, DisjointSets};
use dispersion_graph::{NodeId, PortLabeledGraph};

use crate::{Configuration, RobotId, RoundRecord};

/// How much conformance checking a [`crate::Simulator`] performs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CheckPolicy {
    /// No monitor is installed; the hot path is allocation-free
    /// (the default).
    #[default]
    Off,
    /// Model invariants only — true for every algorithm: adversary graphs
    /// stay connected with sane port labelings, robot bookkeeping is
    /// conserved, and the dispersion predicate matches an independent
    /// recount ([`PortLabelSanity`], [`OneIntervalConnectivity`],
    /// [`DispersionSafety`]).
    Structural,
    /// Structural plus the theorem bounds proved for Algorithm 4:
    /// per-round progress ([`MoveMonotonicity`], Lemma 7), the
    /// `Θ(log(k+Δ))`-bit memory bound ([`MemoryBound`], Theorem 4), and
    /// the round bound ([`RoundBound`], Theorems 3–5).
    Full,
}

impl CheckPolicy {
    /// Whether this policy installs a monitor at all.
    pub fn enabled(self) -> bool {
        self != CheckPolicy::Off
    }

    /// Whether this policy includes the theorem-level invariants.
    pub fn theorem_bounds(self) -> bool {
        self == CheckPolicy::Full
    }

    /// Stable lowercase name (`off` / `structural` / `full`).
    pub fn name(self) -> &'static str {
        match self {
            CheckPolicy::Off => "off",
            CheckPolicy::Structural => "structural",
            CheckPolicy::Full => "full",
        }
    }

    /// Parses [`CheckPolicy::name`] back into a policy.
    pub fn parse(s: &str) -> Option<CheckPolicy> {
        match s {
            "off" => Some(CheckPolicy::Off),
            "structural" => Some(CheckPolicy::Structural),
            "full" => Some(CheckPolicy::Full),
            _ => None,
        }
    }
}

impl fmt::Display for CheckPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything an [`Invariant`] may inspect about the round that just
/// executed. Borrowed from the simulator; nothing is copied.
pub struct RoundContext<'a> {
    /// Index of the round that just executed (0-based).
    pub round: u64,
    /// Total robots at the start of the run (crashed included).
    pub k: usize,
    /// Robots crashed so far across the whole run.
    pub crashes: usize,
    /// The adversary graph `G_r` the round executed on.
    pub graph: &'a PortLabeledGraph,
    /// Robot placement *after* the round's Move phase.
    pub config: &'a Configuration,
    /// The round's record (occupied counts, moves, crashes, memory).
    pub record: &'a RoundRecord,
}

/// What an [`Invariant`] may inspect when the run terminates (dispersion
/// detected, or the round cap reached).
pub struct TerminalContext<'a> {
    /// Rounds executed in total.
    pub rounds: u64,
    /// Total robots at the start of the run.
    pub k: usize,
    /// Robots crashed across the run.
    pub crashes: usize,
    /// Whether the simulator claims the live robots are dispersed.
    pub dispersed: bool,
    /// Final robot placement.
    pub config: &'a Configuration,
}

/// An invariant's account of its own failure. The monitor wraps it with
/// the invariant name, round number and replay seed to form the full
/// [`InvariantViolation`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Breach {
    /// Human-readable description of what went wrong.
    pub detail: String,
    /// Robots implicated, if any.
    pub robots: Vec<RobotId>,
    /// Nodes implicated, if any.
    pub nodes: Vec<NodeId>,
}

impl Breach {
    /// A breach with a detail message and no implicated ids.
    pub fn new(detail: impl Into<String>) -> Self {
        Breach {
            detail: detail.into(),
            robots: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Implicates a node.
    pub fn with_node(mut self, v: NodeId) -> Self {
        self.nodes.push(v);
        self
    }

    /// Implicates a robot.
    pub fn with_robot(mut self, r: RobotId) -> Self {
        self.robots.push(r);
        self
    }
}

/// A conformance property checked after every round (and optionally at
/// termination). Implementations may keep warm scratch buffers — the
/// monitor owns them for the lifetime of the run.
pub trait Invariant: Send {
    /// Stable identifier, e.g. `"dispersion-safety"`.
    fn name(&self) -> &'static str;

    /// Checks the round that just executed.
    ///
    /// # Errors
    ///
    /// Returns a [`Breach`] describing the first failure found.
    fn check_round(&mut self, ctx: &RoundContext<'_>) -> Result<(), Breach>;

    /// Checks the terminal state. Default: nothing to check.
    ///
    /// # Errors
    ///
    /// Returns a [`Breach`] describing the first failure found.
    fn check_terminal(&mut self, _ctx: &TerminalContext<'_>) -> Result<(), Breach> {
        Ok(())
    }
}

/// A structured conformance failure: which invariant broke, when, who was
/// involved, and how to replay the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// [`Invariant::name`] of the failing invariant.
    pub invariant: &'static str,
    /// Round in which the failure was detected (for terminal failures,
    /// the total rounds executed).
    pub round: u64,
    /// Human-readable description.
    pub detail: String,
    /// Robots implicated, if any.
    pub robots: Vec<RobotId>,
    /// Nodes implicated, if any.
    pub nodes: Vec<NodeId>,
    /// Seed that reproduces the run, when the caller registered one via
    /// [`crate::SimulatorBuilder::check_seed`].
    pub seed: Option<u64>,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant '{}' violated in round {}: {}",
            self.invariant, self.round, self.detail
        )?;
        if !self.robots.is_empty() {
            write!(f, " [robots")?;
            for r in &self.robots {
                write!(f, " {r}")?;
            }
            write!(f, "]")?;
        }
        if !self.nodes.is_empty() {
            write!(f, " [nodes")?;
            for v in &self.nodes {
                write!(f, " {v}")?;
            }
            write!(f, "]")?;
        }
        if let Some(seed) = self.seed {
            write!(f, " (replay seed {seed})")?;
        }
        Ok(())
    }
}

/// FNV-1a fingerprint of a port-labeled graph: node count, then per node
/// the degree and every `(port, neighbor, entry port)` triple. Two graphs
/// fingerprint equal iff they are structurally identical (same adjacency
/// *and* same port labeling) — the equality [`AdversaryDeterminism`]
/// needs for "same seed ⇒ same graph sequence".
pub fn graph_fingerprint(g: &PortLabeledGraph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(g.node_count() as u64);
    for v in g.nodes() {
        mix(g.degree(v) as u64);
        for (p, u, entry) in g.neighbors(v) {
            mix(u64::from(p.get()));
            mix(u.index() as u64);
            mix(u64::from(entry.get()));
        }
    }
    h
}

/// Evaluates a suite of [`Invariant`]s against every executed round and
/// the terminal state, and fingerprints the adversary's graph sequence
/// for [`AdversaryDeterminism`] replay checks.
pub struct InvariantMonitor {
    policy: CheckPolicy,
    seed: Option<u64>,
    invariants: Vec<Box<dyn Invariant>>,
    graph_hashes: Vec<u64>,
}

impl fmt::Debug for InvariantMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InvariantMonitor")
            .field("policy", &self.policy)
            .field("seed", &self.seed)
            .field(
                "invariants",
                &self.invariants.iter().map(|i| i.name()).collect::<Vec<_>>(),
            )
            .field("rounds_fingerprinted", &self.graph_hashes.len())
            .finish()
    }
}

impl InvariantMonitor {
    /// The stock suite for a `k`-robot run under `policy`.
    ///
    /// [`CheckPolicy::Structural`] installs [`PortLabelSanity`],
    /// [`OneIntervalConnectivity`] and [`DispersionSafety`];
    /// [`CheckPolicy::Full`] adds [`MoveMonotonicity`], [`MemoryBound`]
    /// and [`RoundBound`] (limit `round_limit`, defaulting to the
    /// Theorem 4 bound of `k` rounds). [`CheckPolicy::Off`] yields an
    /// empty monitor — prefer not constructing one at all.
    pub fn stock(policy: CheckPolicy, k: usize, round_limit: Option<u64>) -> Self {
        let mut invariants: Vec<Box<dyn Invariant>> = Vec::new();
        if policy.enabled() {
            invariants.push(Box::new(PortLabelSanity::new()));
            invariants.push(Box::new(OneIntervalConnectivity::new()));
            invariants.push(Box::new(DispersionSafety::new()));
        }
        if policy.theorem_bounds() {
            invariants.push(Box::new(MoveMonotonicity));
            invariants.push(Box::new(MemoryBound::default()));
            invariants.push(Box::new(RoundBound::new(
                round_limit.unwrap_or(k.max(1) as u64),
            )));
        }
        InvariantMonitor {
            policy,
            seed: None,
            invariants,
            graph_hashes: Vec::new(),
        }
    }

    /// An empty monitor holding only custom invariants.
    pub fn custom(policy: CheckPolicy, invariants: Vec<Box<dyn Invariant>>) -> Self {
        InvariantMonitor {
            policy,
            seed: None,
            invariants,
            graph_hashes: Vec::new(),
        }
    }

    /// Registers the seed reported inside violations for replay.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = Some(seed);
    }

    /// Adds an invariant to the suite.
    pub fn push(&mut self, invariant: Box<dyn Invariant>) {
        self.invariants.push(invariant);
    }

    /// Arms [`AdversaryDeterminism`] with the graph fingerprints of a
    /// previous run (see [`InvariantMonitor::graph_hashes`]).
    pub fn expect_graphs(&mut self, expected: Vec<u64>) {
        self.push(Box::new(AdversaryDeterminism::expecting(expected)));
    }

    /// The policy this monitor was built with.
    pub fn policy(&self) -> CheckPolicy {
        self.policy
    }

    /// FNV-1a fingerprint of every adversary graph seen so far, in round
    /// order. Feed these to [`InvariantMonitor::expect_graphs`] on a
    /// second run with the same seed to verify adversary determinism.
    pub fn graph_hashes(&self) -> &[u64] {
        &self.graph_hashes
    }

    fn wrap(&self, name: &'static str, round: u64, breach: Breach) -> InvariantViolation {
        InvariantViolation {
            invariant: name,
            round,
            detail: breach.detail,
            robots: breach.robots,
            nodes: breach.nodes,
            seed: self.seed,
        }
    }

    /// Fingerprints the round's graph and runs every invariant.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] found.
    pub fn check_round(&mut self, ctx: &RoundContext<'_>) -> Result<(), InvariantViolation> {
        self.graph_hashes.push(graph_fingerprint(ctx.graph));
        for i in 0..self.invariants.len() {
            let name = self.invariants[i].name();
            if let Err(breach) = self.invariants[i].check_round(ctx) {
                return Err(self.wrap(name, ctx.round, breach));
            }
        }
        Ok(())
    }

    /// Runs every invariant's terminal check.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] found.
    pub fn check_terminal(&mut self, ctx: &TerminalContext<'_>) -> Result<(), InvariantViolation> {
        for i in 0..self.invariants.len() {
            let name = self.invariants[i].name();
            if let Err(breach) = self.invariants[i].check_terminal(ctx) {
                return Err(self.wrap(name, ctx.rounds, breach));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stock invariants.
// ---------------------------------------------------------------------------

/// Ports at every node of `G_r` are exactly `1..=δ(v)`, pairwise
/// distinct, and reciprocal: exiting `v` through `p` and re-entering
/// through the reported entry port leads back to `(v, p)` (Section II's
/// port-labeling model). Independent of
/// [`dispersion_graph::PortLabeledGraph::validate`] by construction — it
/// re-derives the bijection from the adjacency the robots actually see.
pub struct PortLabelSanity {
    seen: Vec<bool>,
}

impl PortLabelSanity {
    /// Creates the invariant with an empty scratch buffer.
    pub fn new() -> Self {
        PortLabelSanity { seen: Vec::new() }
    }
}

impl Default for PortLabelSanity {
    fn default() -> Self {
        PortLabelSanity::new()
    }
}

impl Invariant for PortLabelSanity {
    fn name(&self) -> &'static str {
        "port-label-sanity"
    }

    fn check_round(&mut self, ctx: &RoundContext<'_>) -> Result<(), Breach> {
        let g = ctx.graph;
        for v in g.nodes() {
            let d = g.degree(v);
            self.seen.clear();
            self.seen.resize(d, false);
            for (p, u, entry) in g.neighbors(v) {
                let label = p.get() as usize;
                if label == 0 || label > d {
                    return Err(Breach::new(format!(
                        "port {p} out of range 1..={d} at degree-{d} node"
                    ))
                    .with_node(v));
                }
                if self.seen[label - 1] {
                    return Err(Breach::new(format!("duplicate port {p} at node")).with_node(v));
                }
                self.seen[label - 1] = true;
                match g.neighbor_via(u, entry) {
                    Some((back, back_port)) if back == v && back_port == p => {}
                    _ => {
                        return Err(Breach::new(format!(
                            "port {p} is not reciprocal: {v} -{p}-> {u} but {u} -{entry}-> \
                             does not lead back"
                        ))
                        .with_node(v)
                        .with_node(u));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Every `G_r` is connected — the 1-interval connectivity assumption
/// (Section II). The simulator already rejects a disconnected adversary
/// graph before the monitor sees it; this invariant re-checks the
/// property with its own warm union-find, as an independent cross-check
/// of that validation.
pub struct OneIntervalConnectivity {
    union_find: DisjointSets,
}

impl OneIntervalConnectivity {
    /// Creates the invariant with an empty scratch union-find.
    pub fn new() -> Self {
        OneIntervalConnectivity {
            union_find: DisjointSets::new(0),
        }
    }
}

impl Default for OneIntervalConnectivity {
    fn default() -> Self {
        OneIntervalConnectivity::new()
    }
}

impl Invariant for OneIntervalConnectivity {
    fn name(&self) -> &'static str {
        "one-interval-connectivity"
    }

    fn check_round(&mut self, ctx: &RoundContext<'_>) -> Result<(), Breach> {
        if !is_connected_with(ctx.graph, &mut self.union_find) {
            return Err(Breach::new(format!(
                "adversary graph is disconnected ({} components over {} nodes)",
                self.union_find.set_count(),
                ctx.graph.node_count()
            )));
        }
        Ok(())
    }
}

/// Robot bookkeeping is conserved and the dispersion predicate is
/// honest. Each round: every live robot sits on a node of `G_r`, live
/// robots plus crashes equal `k`, and the configuration's incrementally
/// maintained occupancy/multiplicity counters agree with a from-scratch
/// recount (this is the check that catches arena-reuse and memoization
/// regressions in the hot path). At termination, a claimed dispersion is
/// re-verified by recount: **at most one robot per node** — the paper's
/// safety property.
pub struct DispersionSafety {
    counts: Vec<u32>,
}

impl DispersionSafety {
    /// Creates the invariant with an empty scratch recount buffer.
    pub fn new() -> Self {
        DispersionSafety { counts: Vec::new() }
    }

    /// Recounts occupancy; returns (occupied nodes, multiplicity nodes) or
    /// the first out-of-bounds robot.
    fn recount(&mut self, config: &Configuration, n: usize) -> Result<(usize, usize), Breach> {
        self.counts.clear();
        self.counts.resize(n, 0);
        for (r, v) in config.iter() {
            if v.index() >= n {
                return Err(
                    Breach::new(format!("robot placed on {v} outside the {n}-node graph"))
                        .with_robot(r)
                        .with_node(v),
                );
            }
            self.counts[v.index()] += 1;
        }
        let occupied = self.counts.iter().filter(|&&c| c > 0).count();
        let multiplicity = self.counts.iter().filter(|&&c| c > 1).count();
        Ok((occupied, multiplicity))
    }

    fn first_multiplicity_node(&self) -> Option<(usize, u32)> {
        self.counts
            .iter()
            .enumerate()
            .find(|(_, &c)| c > 1)
            .map(|(i, &c)| (i, c))
    }
}

impl Default for DispersionSafety {
    fn default() -> Self {
        DispersionSafety::new()
    }
}

impl Invariant for DispersionSafety {
    fn name(&self) -> &'static str {
        "dispersion-safety"
    }

    fn check_round(&mut self, ctx: &RoundContext<'_>) -> Result<(), Breach> {
        let n = ctx.graph.node_count();
        if n != ctx.config.node_count() {
            return Err(Breach::new(format!(
                "graph has {n} nodes but the configuration tracks {}",
                ctx.config.node_count()
            )));
        }
        let live = ctx.config.robot_count();
        if live + ctx.crashes != ctx.k {
            return Err(Breach::new(format!(
                "population not conserved: {live} live + {} crashed != k = {}",
                ctx.crashes, ctx.k
            )));
        }
        let (occupied, multiplicity) = self.recount(ctx.config, n)?;
        if occupied != ctx.config.occupied_count() {
            return Err(Breach::new(format!(
                "occupancy counter drifted: recount says {occupied}, \
                 configuration says {}",
                ctx.config.occupied_count()
            )));
        }
        if ctx.config.is_dispersed() != (multiplicity == 0) {
            return Err(Breach::new(format!(
                "dispersion predicate drifted: recount finds {multiplicity} \
                 multiplicity nodes but is_dispersed() = {}",
                ctx.config.is_dispersed()
            )));
        }
        if occupied != ctx.record.occupied_after {
            return Err(Breach::new(format!(
                "round record drifted: occupied_after = {} but recount says {occupied}",
                ctx.record.occupied_after
            )));
        }
        Ok(())
    }

    fn check_terminal(&mut self, ctx: &TerminalContext<'_>) -> Result<(), Breach> {
        let n = ctx.config.node_count();
        let live = ctx.config.robot_count();
        if live + ctx.crashes != ctx.k {
            return Err(Breach::new(format!(
                "population not conserved at termination: {live} live + {} crashed \
                 != k = {}",
                ctx.crashes, ctx.k
            )));
        }
        let (_, multiplicity) = self.recount(ctx.config, n)?;
        if ctx.dispersed && multiplicity > 0 {
            let (v, c) = self
                .first_multiplicity_node()
                .expect("multiplicity > 0 has a witness");
            return Err(Breach::new(format!(
                "claimed dispersed but {c} robots settled on one node"
            ))
            .with_node(NodeId::new(v as u32)));
        }
        Ok(())
    }
}

/// Lemma 7 progress, per round: modulo crashes the occupied-node count
/// never shrinks, and every crash-free round with a multiplicity
/// reaches at least one never-before-occupied node. A theorem-level
/// invariant — true for Algorithm 4, false for e.g. random walks — so it
/// lives in [`CheckPolicy::Full`] only.
pub struct MoveMonotonicity;

impl Invariant for MoveMonotonicity {
    fn name(&self) -> &'static str {
        "move-monotonicity"
    }

    fn check_round(&mut self, ctx: &RoundContext<'_>) -> Result<(), Breach> {
        let r = ctx.record;
        if r.occupied_after + r.crashed.len() < r.occupied_before {
            return Err(Breach::new(format!(
                "occupied nodes shrank: {} -> {} with only {} crashes",
                r.occupied_before,
                r.occupied_after,
                r.crashed.len()
            )));
        }
        if r.newly_occupied > r.moves {
            return Err(Breach::new(format!(
                "{} newly occupied nodes from only {} moves",
                r.newly_occupied, r.moves
            )));
        }
        // A round only executes when the configuration was not dispersed
        // at its start, so Lemma 7 demands progress unless a crash
        // removed the designated mover.
        if r.crashed.is_empty() && r.newly_occupied == 0 {
            return Err(Breach::new(
                "no progress: a crash-free round with a multiplicity reached \
                 no new node (Lemma 7)",
            ));
        }
        Ok(())
    }
}

/// Persistent memory stays within `c·log₂(k + Δ)` bits (Theorem 4's
/// `Θ(log(k+Δ))` with a generous constant), with `Δ` read off the
/// current graph. Catches a robot smuggling `Ω(n)`-bit state through a
/// refactor.
pub struct MemoryBound {
    /// Multiplier `c` on `⌈log₂(k + Δ + 2)⌉`.
    pub factor: usize,
    /// Additive slack in bits.
    pub slack: usize,
}

impl Default for MemoryBound {
    fn default() -> Self {
        MemoryBound {
            factor: 8,
            slack: 8,
        }
    }
}

fn ceil_log2(x: usize) -> usize {
    (usize::BITS - x.max(1).next_power_of_two().leading_zeros() - 1) as usize
}

impl Invariant for MemoryBound {
    fn name(&self) -> &'static str {
        "memory-bound"
    }

    fn check_round(&mut self, ctx: &RoundContext<'_>) -> Result<(), Breach> {
        let delta = ctx.graph.max_degree();
        let limit = self.factor * ceil_log2(ctx.k + delta + 2) + self.slack;
        if ctx.record.max_memory_bits > limit {
            return Err(Breach::new(format!(
                "{} persistent bits exceeds the Θ(log(k+Δ)) budget of {limit} \
                 (k = {}, Δ = {delta})",
                ctx.record.max_memory_bits, ctx.k
            )));
        }
        Ok(())
    }
}

/// Dispersion completes within a round limit (Theorems 3–5: `k − 1`
/// rounds on the star-pair lower bound, `O(k)` in general, `O(k)` with
/// `f < k` crash faults). Fires as soon as the limit-th round ends
/// without dispersion — no need to wait for the round cap.
pub struct RoundBound {
    limit: u64,
}

impl RoundBound {
    /// Violation once `limit` rounds have executed without dispersion.
    pub fn new(limit: u64) -> Self {
        RoundBound { limit }
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

impl Invariant for RoundBound {
    fn name(&self) -> &'static str {
        "round-bound"
    }

    fn check_round(&mut self, ctx: &RoundContext<'_>) -> Result<(), Breach> {
        if ctx.round + 1 >= self.limit && !ctx.config.is_dispersed() {
            return Err(Breach::new(format!(
                "not dispersed after {} rounds (theorem bound: {} rounds)",
                ctx.round + 1,
                self.limit
            )));
        }
        Ok(())
    }
}

/// Same seed ⇒ same graph sequence: replays a run against the graph
/// fingerprints recorded by a previous [`InvariantMonitor`] and fails on
/// the first divergence. Armed via
/// [`crate::SimulatorBuilder::check_expected_graphs`]; a deterministic
/// adversary whose second run diverges is rerolling randomness it should
/// have derived from its seed.
pub struct AdversaryDeterminism {
    expected: Vec<u64>,
}

impl AdversaryDeterminism {
    /// Expects the given fingerprint sequence (see
    /// [`InvariantMonitor::graph_hashes`]).
    pub fn expecting(expected: Vec<u64>) -> Self {
        AdversaryDeterminism { expected }
    }
}

impl Invariant for AdversaryDeterminism {
    fn name(&self) -> &'static str {
        "adversary-determinism"
    }

    fn check_round(&mut self, ctx: &RoundContext<'_>) -> Result<(), Breach> {
        let round = ctx.round as usize;
        if let Some(&expected) = self.expected.get(round) {
            let actual = graph_fingerprint(ctx.graph);
            if actual != expected {
                return Err(Breach::new(format!(
                    "graph diverged from the recorded sequence \
                     (fingerprint {actual:#018x}, expected {expected:#018x}): \
                     the adversary is not a pure function of its seed"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graph::generators;

    fn record(occupied_before: usize, occupied_after: usize) -> RoundRecord {
        RoundRecord {
            round: 0,
            occupied_before,
            occupied_after,
            newly_occupied: occupied_after.saturating_sub(occupied_before),
            moves: occupied_after.saturating_sub(occupied_before),
            crashed: Vec::new(),
            max_memory_bits: 3,
        }
    }

    fn ctx<'a>(
        g: &'a PortLabeledGraph,
        config: &'a Configuration,
        rec: &'a RoundRecord,
        k: usize,
    ) -> RoundContext<'a> {
        RoundContext {
            round: 0,
            k,
            crashes: 0,
            graph: g,
            config,
            record: rec,
        }
    }

    #[test]
    fn stock_suite_passes_a_sane_round() {
        let g = generators::path(4).unwrap();
        let config = Configuration::from_pairs(
            4,
            [
                (RobotId::new(1), NodeId::new(0)),
                (RobotId::new(2), NodeId::new(1)),
            ],
        );
        let rec = record(1, 2);
        let mut monitor = InvariantMonitor::stock(CheckPolicy::Full, 2, None);
        monitor
            .check_round(&ctx(&g, &config, &rec, 2))
            .expect("sane round");
        monitor
            .check_terminal(&TerminalContext {
                rounds: 1,
                k: 2,
                crashes: 0,
                dispersed: true,
                config: &config,
            })
            .expect("sane terminal");
        assert_eq!(monitor.graph_hashes().len(), 1);
    }

    #[test]
    fn connectivity_breach_detected() {
        let mut b = dispersion_graph::GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        let g = b.build().unwrap();
        let mut inv = OneIntervalConnectivity::new();
        let config = Configuration::rooted(4, 2, NodeId::new(0));
        let rec = record(1, 1);
        let err = inv.check_round(&ctx(&g, &config, &rec, 2)).unwrap_err();
        assert!(err.detail.contains("disconnected"));
    }

    #[test]
    fn safety_catches_population_loss() {
        let g = generators::path(4).unwrap();
        // Config claims k = 3 but only holds 2 live robots, 0 crashes.
        let config = Configuration::from_pairs(
            4,
            [
                (RobotId::new(1), NodeId::new(0)),
                (RobotId::new(2), NodeId::new(1)),
            ],
        );
        let rec = record(1, 2);
        let mut inv = DispersionSafety::new();
        let err = inv.check_round(&ctx(&g, &config, &rec, 3)).unwrap_err();
        assert!(err.detail.contains("not conserved"));
    }

    #[test]
    fn safety_terminal_rejects_false_dispersion_claim() {
        let config = Configuration::rooted(4, 2, NodeId::new(1));
        let mut inv = DispersionSafety::new();
        let err = inv
            .check_terminal(&TerminalContext {
                rounds: 3,
                k: 2,
                crashes: 0,
                dispersed: true,
                config: &config,
            })
            .unwrap_err();
        assert!(err.detail.contains("claimed dispersed"));
        assert_eq!(err.nodes, vec![NodeId::new(1)]);
    }

    #[test]
    fn monotonicity_flags_shrinking_occupancy() {
        let g = generators::path(5).unwrap();
        let config = Configuration::rooted(5, 3, NodeId::new(0));
        let rec = record(3, 1);
        let mut inv = MoveMonotonicity;
        let err = inv.check_round(&ctx(&g, &config, &rec, 3)).unwrap_err();
        assert!(err.detail.contains("shrank"));
    }

    #[test]
    fn monotonicity_flags_stalled_round() {
        let g = generators::path(5).unwrap();
        let config = Configuration::rooted(5, 3, NodeId::new(0));
        let mut rec = record(1, 1);
        rec.newly_occupied = 0;
        rec.moves = 0;
        let mut inv = MoveMonotonicity;
        let err = inv.check_round(&ctx(&g, &config, &rec, 3)).unwrap_err();
        assert!(err.detail.contains("Lemma 7"));
    }

    #[test]
    fn memory_bound_flags_linear_state() {
        let g = generators::path(8).unwrap();
        let config = Configuration::rooted(8, 4, NodeId::new(0));
        let mut rec = record(1, 2);
        rec.max_memory_bits = 10_000;
        let mut inv = MemoryBound::default();
        let err = inv.check_round(&ctx(&g, &config, &rec, 4)).unwrap_err();
        assert!(err.detail.contains("budget"));
    }

    #[test]
    fn round_bound_fires_at_the_limit() {
        let g = generators::path(5).unwrap();
        let config = Configuration::rooted(5, 3, NodeId::new(0));
        let rec = record(1, 1);
        let mut inv = RoundBound::new(4);
        for round in 0..3u64 {
            let c = RoundContext {
                round,
                k: 3,
                crashes: 0,
                graph: &g,
                config: &config,
                record: &rec,
            };
            inv.check_round(&c).expect("below the limit");
        }
        let c = RoundContext {
            round: 3,
            k: 3,
            crashes: 0,
            graph: &g,
            config: &config,
            record: &rec,
        };
        let err = inv.check_round(&c).unwrap_err();
        assert!(err.detail.contains("theorem bound"));
    }

    #[test]
    fn fingerprint_distinguishes_port_relabelings() {
        let g = generators::cycle(6).unwrap();
        let relabeled = dispersion_graph::relabel::random_relabel(&g, 99);
        assert_eq!(graph_fingerprint(&g), graph_fingerprint(&g.clone()));
        if relabeled != g {
            assert_ne!(graph_fingerprint(&g), graph_fingerprint(&relabeled));
        }
    }

    #[test]
    fn determinism_compares_fingerprints() {
        let g = generators::cycle(6).unwrap();
        let other = generators::path(6).unwrap();
        let config = Configuration::rooted(6, 2, NodeId::new(0));
        let rec = record(1, 2);
        let mut inv = AdversaryDeterminism::expecting(vec![graph_fingerprint(&g)]);
        inv.check_round(&ctx(&g, &config, &rec, 2))
            .expect("same graph, same fingerprint");
        let mut inv = AdversaryDeterminism::expecting(vec![graph_fingerprint(&g)]);
        let err = inv.check_round(&ctx(&other, &config, &rec, 2)).unwrap_err();
        assert!(err.detail.contains("diverged"));
    }

    #[test]
    fn policy_names_roundtrip() {
        for p in [CheckPolicy::Off, CheckPolicy::Structural, CheckPolicy::Full] {
            assert_eq!(CheckPolicy::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(CheckPolicy::parse("loose"), None);
        assert!(!CheckPolicy::Off.enabled());
        assert!(CheckPolicy::Structural.enabled());
        assert!(!CheckPolicy::Structural.theorem_bounds());
        assert!(CheckPolicy::Full.theorem_bounds());
    }

    #[test]
    fn violation_display_carries_round_ids_and_seed() {
        let v = InvariantViolation {
            invariant: "dispersion-safety",
            round: 12,
            detail: "two robots settled on one node".into(),
            robots: vec![RobotId::new(1), RobotId::new(2)],
            nodes: vec![NodeId::new(3)],
            seed: Some(42),
        };
        let s = v.to_string();
        assert!(s.contains("dispersion-safety"));
        assert!(s.contains("round 12"));
        assert!(s.contains("r1"));
        assert!(s.contains("n3"));
        assert!(s.contains("replay seed 42"));
    }

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }
}
