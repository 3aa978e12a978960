//! Algorithm 4: `Dispersion_Dynamic` — the paper's main contribution.
//!
//! Every round, every robot: broadcasts/receives the information packets
//! (global communication), rebuilds its connected component (Algorithm 1),
//! the component spanning tree (Algorithm 2) and the disjoint root paths
//! (Algorithm 3), and slides along the path it belongs to. All structures
//! live in temporary memory — the only state a robot carries between
//! rounds is its `⌈log k⌉`-bit identifier, giving the `Θ(log k)` memory
//! bound of Theorem 4.
//!
//! Because the structures are a pure function of the round's packets,
//! which under global communication every robot shares, the
//! simulator-side implementation derives them once per packet list
//! instead of once per robot: a round plan (see `plan.rs`) runs
//! Algorithms 1–3 over all components and reduces them to one decision
//! entry per occupied node, and a robot's Compute step is an index into
//! it plus, for the few root robots that may hold a path slot, a binary
//! search in its colocated list. The plan is keyed by
//! the view's packet-list identity ([`RobotView::packets_id`]), which the
//! simulator mints once per round and the move oracle once per candidate
//! graph, and clones of the algorithm — one per executor worker — share
//! it. The plan reads the round's packet table in place, and a retired
//! plan is rebuilt in place once no clone holds it, so a warm build
//! allocates nothing. This is transparent memoization of deterministic computation: the
//! golden traces are byte-identical, the per-robot persistent memory is
//! untouched, and [`DispersionDynamic::unmemoized`] keeps the per-robot
//! rebuild the paper's pseudo-code prescribes as the differential
//! reference.

use std::cell::{OnceCell, RefCell};
use std::sync::{Arc, Mutex, PoisonError};

use dispersion_engine::{Action, DispersionAlgorithm, MemoryFootprint, RobotId, RobotView};

use crate::component::ConnectedComponent;
use crate::paths::DisjointPathSet;
use crate::plan::{PlanScratch, RoundPlan};
use crate::sliding::{self, SlidingPolicy};
use crate::spanning_tree::SpanningTree;

/// Persistent memory of an Algorithm 4 robot: nothing beyond the robot's
/// own identifier. (The struct stores the population size only to report
/// the identifier's width; `k` itself is model knowledge — IDs are drawn
/// from `[1, k]` by assumption.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynamicMemory {
    k: usize,
}

impl MemoryFootprint for DynamicMemory {
    fn persistent_bits(&self) -> usize {
        RobotId::bits_for_population(self.k)
    }
}

/// **Algorithm 4**: dispersion on 1-interval connected dynamic graphs in
/// `Θ(k)` rounds with `Θ(log k)` bits per robot, under global
/// communication with 1-neighborhood knowledge (Theorem 4).
///
/// # Example
///
/// ```
/// use dispersion_core::DispersionDynamic;
/// use dispersion_engine::adversary::StarPairAdversary;
/// use dispersion_engine::{Configuration, ModelSpec, Simulator};
/// use dispersion_graph::NodeId;
///
/// # fn main() -> Result<(), dispersion_engine::SimError> {
/// // Even against the Theorem 3 lower-bound adversary, k robots disperse
/// // in exactly k − 1 rounds from a rooted configuration.
/// let (n, k) = (12, 8);
/// let outcome = Simulator::builder(
///     DispersionDynamic::new(),
///     StarPairAdversary::new(n),
///     ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
///     Configuration::rooted(n, k, NodeId::new(0)),
/// )
/// .build()?
/// .run()?;
/// assert!(outcome.dispersed);
/// assert_eq!(outcome.rounds, (k - 1) as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DispersionDynamic {
    policy: SlidingPolicy,
    /// `true` bypasses the round plan and rebuilds Algorithms 1→3 from
    /// the packets on every call — the reference path the differential
    /// tests compare the planned path against.
    naive: bool,
    /// The plan this instance used last: the lock-free fast path for
    /// every robot whose view carries the same packet-list identity.
    local: RefCell<Option<Arc<RoundPlan>>>,
    /// The plan slot this instance shares with all its clones, created
    /// on first use so that building an instance allocates nothing.
    shared: OnceCell<Arc<Mutex<SharedPlan>>>,
}

impl Clone for DispersionDynamic {
    /// A clone shares the plan slot, so the executor's threads build each
    /// round's plan once between them; its own fast path starts empty.
    /// Clones driven by independent runs stay correct (plans are keyed
    /// by packet-list identity) but take turns rebuilding the one slot,
    /// so give each run its own [`DispersionDynamic::new`].
    fn clone(&self) -> Self {
        DispersionDynamic {
            policy: self.policy,
            naive: self.naive,
            local: RefCell::new(None),
            shared: OnceCell::from(Arc::clone(self.shared_slot())),
        }
    }
}

/// The newest round plan of a family of clones, keyed by its packet-list
/// identity, plus the build buffers (only ever used under the lock, so
/// concurrent workers wait for one build instead of repeating it).
///
/// The plan is round-local temporary state of the kind the model hands
/// out for free: it changes nothing observable, and the per-robot
/// `Θ(log k)` persistent-memory claim is untouched.
#[derive(Debug, Default)]
struct SharedPlan {
    plan: Option<Arc<RoundPlan>>,
    /// The plan before `plan`, kept for recycling. An executor worker
    /// still holds `plan` while the next one is built, but no clone holds
    /// the one before it any more, so two plans in turn make a warm build
    /// allocation-free at every thread count.
    spare: Option<Arc<RoundPlan>>,
    scratch: PlanScratch,
    /// Plans built so far, for the build-count tests.
    #[cfg(test)]
    builds: u64,
}

impl DispersionDynamic {
    /// Creates the algorithm with the paper's tie-break policy.
    pub fn new() -> Self {
        DispersionDynamic::default()
    }

    /// Creates the algorithm with an explicit [`SlidingPolicy`] (used by
    /// the `exp_ablation` experiment; every policy preserves the
    /// Θ(k)/Θ(log k) bounds).
    pub fn with_policy(policy: SlidingPolicy) -> Self {
        DispersionDynamic {
            policy,
            ..DispersionDynamic::default()
        }
    }

    /// Creates the algorithm without the shared round plan: every robot
    /// rebuilds the component, spanning tree and disjoint paths from its
    /// packets on every call — exactly what the paper's pseudo-code
    /// prescribes.
    ///
    /// This is the differential-testing oracle for the planned default:
    /// both paths are pure functions of the same inputs, so lockstep
    /// simulations must agree on every per-round robot state (see the
    /// `memoization_is_observationally_transparent` property test).
    /// Orders of magnitude slower; never use it for experiments.
    pub fn unmemoized() -> Self {
        DispersionDynamic::unmemoized_with_policy(SlidingPolicy::default())
    }

    /// [`DispersionDynamic::unmemoized`] under an explicit
    /// [`SlidingPolicy`], the reference for
    /// [`DispersionDynamic::with_policy`].
    pub fn unmemoized_with_policy(policy: SlidingPolicy) -> Self {
        DispersionDynamic {
            policy,
            naive: true,
            ..DispersionDynamic::default()
        }
    }

    /// The active tie-break policy.
    pub fn policy(&self) -> SlidingPolicy {
        self.policy
    }

    /// Whether this instance bypasses the round plan
    /// (see [`DispersionDynamic::unmemoized`]).
    pub fn is_unmemoized(&self) -> bool {
        self.naive
    }

    /// The reference path: Algorithms 1→3 rebuilt from this robot's
    /// packets, then [`sliding::decide_with_policy`].
    fn decide_unmemoized(&self, view: &RobotView) -> Action {
        // Termination detection (global communication): no multiplicity
        // node anywhere means dispersion is achieved.
        if !view.packets.iter().any(|p| p.count() >= 2) {
            return Action::Stay;
        }
        let packets = view.packets.to_vec();
        let component = ConnectedComponent::build(&packets, view.colocated[0]);
        let tree = if self.policy.bfs_tree {
            SpanningTree::build_bfs(&component)
        } else {
            SpanningTree::build(&component)
        };
        let Some(tree) = tree else {
            return Action::Stay;
        };
        let paths = DisjointPathSet::build(&component, &tree);
        sliding::decide_with_policy(view, &component, &tree, &paths, self.policy)
    }

    /// The planned path: one plan per packet-list identity, shared by all
    /// clones.
    fn decide_planned(&self, view: &RobotView) -> Action {
        let id = view.packets_id;
        let mut local = self.local.borrow_mut();
        if local.as_ref().map(|plan| plan.id()) != Some(id) {
            // Let go of the old plan first, so the slot can free it
            // before the next one is built.
            *local = None;
            *local = Some(self.shared_plan(id, view));
        }
        local
            .as_ref()
            .expect("filled above")
            .decide(view, self.policy)
    }

    fn shared_slot(&self) -> &Arc<Mutex<SharedPlan>> {
        self.shared.get_or_init(Arc::default)
    }

    /// The shared plan for identity `id`, built from `view`'s packets by
    /// the first clone that asks, into whichever of the two retired plans
    /// nobody holds any more.
    fn shared_plan(&self, id: u64, view: &RobotView) -> Arc<RoundPlan> {
        // A panic inside a build leaves no plan in place and the scratch
        // is reset by every build, so a poisoned slot is safe to keep
        // using.
        let mut guard = self
            .shared_slot()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let shared = &mut *guard;
        if let Some(plan) = shared.plan.as_ref().filter(|plan| plan.id() == id) {
            return Arc::clone(plan);
        }
        // Only the slot hands out plans, and its lock is held: a plan
        // whose one handle is the slot's stays unshared while it is
        // rebuilt.
        let (mut plan, spare) = match (shared.plan.take(), shared.spare.take()) {
            (Some(newer), older) if Arc::strong_count(&newer) == 1 => (newer, older),
            (newer, Some(older)) if Arc::strong_count(&older) == 1 => (older, newer),
            (newer, _) => (Arc::default(), newer),
        };
        Arc::get_mut(&mut plan)
            .expect("no clone holds a retired plan")
            .rebuild(id, &view.packets, self.policy, &mut shared.scratch);
        shared.spare = spare;
        #[cfg(test)]
        {
            shared.builds += 1;
        }
        shared.plan = Some(Arc::clone(&plan));
        plan
    }
}

impl DispersionAlgorithm for DispersionDynamic {
    type Memory = DynamicMemory;

    fn name(&self) -> &str {
        "dispersion-dynamic (algorithm 4)"
    }

    fn init(&self, _me: RobotId, k: usize) -> DynamicMemory {
        DynamicMemory { k }
    }

    fn step(&self, view: &RobotView, memory: &DynamicMemory) -> (Action, DynamicMemory) {
        let action = if self.naive {
            self.decide_unmemoized(view)
        } else {
            self.decide_planned(view)
        };
        (action, memory.clone())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use dispersion_engine::adversary::{
        DynamicNetwork, EdgeChurnNetwork, StarPairAdversary, StaticNetwork, TIntervalNetwork,
    };
    use dispersion_engine::{Configuration, ModelSpec, MoveOracle, ResolvedMove, Simulator};
    use dispersion_graph::{generators, NodeId, PortLabeledGraph};

    fn run<N: dispersion_engine::adversary::DynamicNetwork>(
        net: N,
        cfg: Configuration,
    ) -> dispersion_engine::SimOutcome {
        Simulator::builder(
            DispersionDynamic::new(),
            net,
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            cfg,
        )
        .build()
        .unwrap()
        .run()
        .unwrap()
    }

    fn plan_builds(alg: &DispersionDynamic) -> u64 {
        alg.shared_slot()
            .lock()
            .expect("plan slot is not poisoned")
            .builds
    }

    /// Forwards every oracle call, counting them: each call evaluates
    /// one candidate graph, i.e. one packet list.
    struct CountingOracle<'a> {
        inner: &'a dyn MoveOracle,
        calls: &'a Cell<u64>,
    }

    impl MoveOracle for CountingOracle<'_> {
        fn moves_on(&self, g: &PortLabeledGraph) -> Vec<ResolvedMove> {
            self.calls.set(self.calls.get() + 1);
            self.inner.moves_on(g)
        }

        fn configuration(&self) -> &Configuration {
            self.inner.configuration()
        }
    }

    /// A network that hands its adversary a [`CountingOracle`].
    struct CountingNetwork<N> {
        inner: N,
        oracle_calls: Cell<u64>,
    }

    impl<N: DynamicNetwork> DynamicNetwork for CountingNetwork<N> {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }

        fn graph_for_round(
            &mut self,
            round: u64,
            config: &Configuration,
            oracle: &dyn MoveOracle,
        ) -> &PortLabeledGraph {
            let counting = CountingOracle {
                inner: oracle,
                calls: &self.oracle_calls,
            };
            self.inner.graph_for_round(round, config, &counting)
        }
    }

    #[test]
    fn one_plan_per_round_at_every_thread_count() {
        // 40 robots on a static ring: with two threads the calling thread
        // and its worker split the robots, and both share one plan.
        for threads in [1usize, 2] {
            let alg = DispersionDynamic::new();
            let probe = alg.clone();
            let (n, k) = (64, 40);
            let out = Simulator::builder(
                alg,
                StaticNetwork::new(generators::cycle(n).unwrap()),
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                Configuration::rooted(n, k, NodeId::new(0)),
            )
            .threads(threads)
            .build()
            .unwrap()
            .run()
            .unwrap();
            assert!(out.dispersed);
            assert!(out.rounds > 1);
            assert_eq!(plan_builds(&probe), out.rounds, "threads {threads}");
        }
    }

    #[test]
    fn one_plan_per_oracle_candidate() {
        use dispersion_engine::adversary::MinProgressSampler;
        for threads in [1usize, 2] {
            let alg = DispersionDynamic::new();
            let probe = alg.clone();
            let (n, k) = (24, 16);
            let mut sim = Simulator::builder(
                alg,
                CountingNetwork {
                    inner: MinProgressSampler::new(n, 3, 0.15, 5),
                    oracle_calls: Cell::new(0),
                },
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                Configuration::rooted(n, k, NodeId::new(0)),
            )
            .threads(threads)
            .build()
            .unwrap();
            let out = sim.run().unwrap();
            assert!(out.dispersed);
            let candidates = sim.network().oracle_calls.get();
            assert!(candidates >= out.rounds, "the sampler consults the oracle");
            assert_eq!(
                plan_builds(&probe),
                out.rounds + candidates,
                "threads {threads}: one plan per round and per candidate"
            );
        }
    }

    /// Checks every robot's planned decision on `g` under `cfg` against
    /// the unmemoized reference, both reading the views of one
    /// [`dispersion_engine::build_views`] call. Returns how many robots
    /// at multiplicity nodes move and how many stay.
    fn assert_plan_matches_reference(
        g: &PortLabeledGraph,
        cfg: &Configuration,
        policy: SlidingPolicy,
    ) -> (usize, usize) {
        let k = cfg.iter().count();
        let views = dispersion_engine::build_views(
            g,
            cfg,
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            0,
            k,
            &|_| None,
        );
        let planned = DispersionDynamic::with_policy(policy);
        let reference = DispersionDynamic::unmemoized_with_policy(policy);
        let decide =
            |alg: &DispersionDynamic, view: &RobotView| alg.step(view, &alg.init(view.me, k)).0;
        let (mut moved, mut stayed) = (0, 0);
        for (robot, view) in views.iter() {
            let action = decide(&planned, &view);
            assert_eq!(
                action,
                decide(&reference, &view),
                "{policy:?}: robot {robot}"
            );
            if view.colocated.len() < 2 {
                continue;
            }
            match action {
                Action::Move(_) => moved += 1,
                Action::Stay => stayed += 1,
            }
        }
        (moved, stayed)
    }

    #[test]
    fn planned_root_decisions_match_the_reference_for_both_mover_rules() {
        use crate::sliding::MoverRule;
        let rules = [MoverRule::LargestId, MoverRule::SmallestNonAnchor];
        // A spider: center 0, five arms 1..=5, each bordering its empty
        // tip 6..=10. One robot per arm and `c` on the center make the
        // center a root with min(c − 1, 5) path slots: with c = 2 a root
        // of two robots, with c = 9 more robots than slots.
        let mut b = dispersion_graph::GraphBuilder::new(11);
        for arm in 0..5u32 {
            b.add_edge(NodeId::new(0), NodeId::new(1 + arm)).unwrap();
            b.add_edge(NodeId::new(1 + arm), NodeId::new(6 + arm))
                .unwrap();
        }
        let spider = b.build().unwrap();
        let id = |i: u32| RobotId::new(2 * i);
        for c in [2u32, 3, 6, 9] {
            let cfg = Configuration::from_pairs(
                11,
                (1..=c)
                    .map(|i| (id(i), NodeId::new(0)))
                    .chain((1..=5).map(|arm| (id(c + arm), NodeId::new(arm)))),
            );
            for mover in rules {
                let policy = SlidingPolicy {
                    mover,
                    ..SlidingPolicy::default()
                };
                let (moved, stayed) = assert_plan_matches_reference(&spider, &cfg, policy);
                // The center keeps its anchor and moves one robot per slot.
                let slots = (c as usize - 1).min(5);
                assert_eq!(
                    (moved, stayed),
                    (slots, c as usize - slots),
                    "c={c} {mover:?}"
                );
            }
        }
        // Random multi-robot starts on churn graphs: roots of every size,
        // under both rules and both tree shapes.
        for seed in 0..24u64 {
            let n = 12 + seed as usize % 9;
            let k = 3 + seed as usize % (n - 3);
            let g = generators::random_connected(n, 0.15, seed).unwrap();
            let cfg = Configuration::random(n, k, seed, seed % 2 == 0);
            for mover in rules {
                for bfs_tree in [false, true] {
                    let policy = SlidingPolicy {
                        mover,
                        bfs_tree,
                        ..SlidingPolicy::default()
                    };
                    assert_plan_matches_reference(&g, &cfg, policy);
                }
            }
        }
    }

    #[test]
    fn every_policy_variant_preserves_the_bounds() {
        use crate::sliding::{LeafPortRule, MoverRule};
        let policies = [
            SlidingPolicy::default(),
            SlidingPolicy {
                mover: MoverRule::SmallestNonAnchor,
                ..SlidingPolicy::default()
            },
            SlidingPolicy {
                leaf_port: LeafPortRule::LargestEmpty,
                ..SlidingPolicy::default()
            },
            SlidingPolicy {
                single_path: true,
                ..SlidingPolicy::default()
            },
            SlidingPolicy {
                mover: MoverRule::SmallestNonAnchor,
                leaf_port: LeafPortRule::LargestEmpty,
                single_path: true,
                bfs_tree: false,
            },
            SlidingPolicy {
                bfs_tree: true,
                ..SlidingPolicy::default()
            },
        ];
        for (i, policy) in policies.into_iter().enumerate() {
            for seed in 0..3u64 {
                let out = Simulator::builder(
                    DispersionDynamic::with_policy(policy),
                    EdgeChurnNetwork::new(18, 0.15, seed),
                    ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                    Configuration::random(18, 12, seed, true),
                )
                .build()
                .unwrap()
                .run()
                .unwrap();
                assert!(out.dispersed, "policy {i} seed {seed}");
                assert!(
                    out.rounds <= 12,
                    "policy {i} seed {seed}: O(k) violated ({} rounds)",
                    out.rounds
                );
                assert!(out.trace.every_round_made_progress(), "policy {i}");
            }
        }
    }

    #[test]
    fn single_path_policy_is_slower_on_branchy_instances() {
        // A spider: center (6 robots) with 5 occupied arms, each arm
        // bordering its own empty tip. The default policy slides one
        // robot down every arm at once (5 disjoint paths); the
        // single-path ablation settles one tip per round.
        let mut b = dispersion_graph::GraphBuilder::new(11);
        for arm in 0..5u32 {
            b.add_edge(NodeId::new(0), NodeId::new(1 + arm)).unwrap();
            b.add_edge(NodeId::new(1 + arm), NodeId::new(6 + arm))
                .unwrap();
        }
        let g = b.build().unwrap();
        let cfg = Configuration::from_pairs(
            11,
            (1..=11u32).map(|i| {
                (
                    dispersion_engine::RobotId::new(i),
                    NodeId::new(i.saturating_sub(6)),
                )
            }),
        );
        let multi = Simulator::builder(
            DispersionDynamic::new(),
            StaticNetwork::new(g.clone()),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            cfg.clone(),
        )
        .build()
        .unwrap()
        .run()
        .unwrap();
        let single = Simulator::builder(
            DispersionDynamic::with_policy(SlidingPolicy {
                single_path: true,
                ..SlidingPolicy::default()
            }),
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            cfg,
        )
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert!(multi.dispersed && single.dispersed);
        assert_eq!(multi.rounds, 1, "five disjoint paths fire at once");
        assert_eq!(single.rounds, 5, "one tip settles per round");
    }

    #[test]
    fn policy_accessor_roundtrips() {
        let p = SlidingPolicy {
            single_path: true,
            ..SlidingPolicy::default()
        };
        assert_eq!(DispersionDynamic::with_policy(p).policy(), p);
        assert_eq!(DispersionDynamic::new().policy(), SlidingPolicy::default());
    }

    #[test]
    fn disperses_rooted_on_static_path() {
        let g = generators::path(10).unwrap();
        let out = run(
            StaticNetwork::new(g),
            Configuration::rooted(10, 6, NodeId::new(4)),
        );
        assert!(out.dispersed);
        assert!(out.rounds <= 6, "O(k) bound: got {}", out.rounds);
    }

    #[test]
    fn disperses_rooted_on_static_cycle() {
        let g = generators::cycle(9).unwrap();
        let out = run(
            StaticNetwork::new(g),
            Configuration::rooted(9, 9, NodeId::new(0)),
        );
        assert!(out.dispersed);
        assert!(out.rounds <= 9);
    }

    #[test]
    fn disperses_under_churn() {
        for seed in 0..5 {
            let out = run(
                EdgeChurnNetwork::new(16, 0.2, seed),
                Configuration::random(16, 10, seed, true),
            );
            assert!(out.dispersed, "seed {seed} failed");
            assert!(out.rounds <= 10, "seed {seed}: {} rounds", out.rounds);
        }
    }

    #[test]
    fn exact_k_minus_one_against_star_pair() {
        for k in [2usize, 4, 7, 12] {
            let n = k + 3;
            let out = run(
                StarPairAdversary::new(n),
                Configuration::rooted(n, k, NodeId::new(0)),
            );
            assert!(out.dispersed);
            assert_eq!(out.rounds, (k - 1) as u64, "k={k}");
        }
    }

    #[test]
    fn progress_every_round_lemma7() {
        let out = run(
            StarPairAdversary::new(15),
            Configuration::rooted(15, 10, NodeId::new(0)),
        );
        assert!(out.trace.every_round_made_progress());
        assert!(out.trace.occupied_monotone());
    }

    #[test]
    fn memory_is_log_k_bits() {
        let out = run(
            EdgeChurnNetwork::new(40, 0.1, 3),
            Configuration::rooted(40, 33, NodeId::new(0)),
        );
        assert!(out.dispersed);
        // ⌈log₂ 33⌉ = 6.
        assert_eq!(out.max_memory_bits(), 6);
    }

    #[test]
    fn k_equals_n_fills_the_graph() {
        let out = run(
            EdgeChurnNetwork::new(12, 0.25, 9),
            Configuration::rooted(12, 12, NodeId::new(5)),
        );
        assert!(out.dispersed);
        assert_eq!(out.final_config.occupied_count(), 12);
    }

    #[test]
    fn single_robot_trivially_dispersed() {
        let g = generators::path(3).unwrap();
        let out = run(
            StaticNetwork::new(g),
            Configuration::rooted(3, 1, NodeId::new(1)),
        );
        assert!(out.dispersed);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn two_robots_one_round() {
        let g = generators::path(4).unwrap();
        let out = run(
            StaticNetwork::new(g),
            Configuration::rooted(4, 2, NodeId::new(1)),
        );
        assert!(out.dispersed);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn arbitrary_multicluster_start() {
        // Several multiplicity clusters at once.
        let cfg = Configuration::from_pairs(
            20,
            (1..=14u32).map(|i| {
                (
                    RobotId::new(i),
                    NodeId::new(match i {
                        1..=4 => 0,
                        5..=8 => 7,
                        9..=11 => 13,
                        _ => 19 - (i - 12),
                    }),
                )
            }),
        );
        let out = run(EdgeChurnNetwork::new(20, 0.15, 11), cfg);
        assert!(out.dispersed);
        assert!(out.rounds <= 14);
    }

    #[test]
    fn t_interval_dynamics_also_fine() {
        let out = run(
            TIntervalNetwork::new(14, 4, 0.1, 2),
            Configuration::rooted(14, 9, NodeId::new(0)),
        );
        assert!(out.dispersed);
        assert!(out.rounds <= 9);
    }

    #[test]
    fn settles_and_stays_settled() {
        // After dispersion the algorithm holds still: re-run one more
        // round worth of steps by checking the final config is stable
        // under a fresh simulation seeded with it.
        let g = generators::cycle(8).unwrap();
        let out = run(
            StaticNetwork::new(g.clone()),
            Configuration::rooted(8, 5, NodeId::new(0)),
        );
        assert!(out.dispersed);
        let again = run(StaticNetwork::new(g), out.final_config.clone());
        assert_eq!(again.rounds, 0);
        assert_eq!(again.final_config, out.final_config);
    }
}
