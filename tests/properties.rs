//! Property-based tests (proptest) over the core data structures and the
//! main algorithm's invariants, plus the conformance fuzz driver: every
//! generated (generator × adversary × k × seed) configuration must run
//! clean through the full invariant suite, and a failure is shrunk to a
//! minimal failing spec persisted for CI artifact upload.

use std::path::PathBuf;

use dispersion_core::{component::ConnectedComponent, DisjointPathSet, SpanningTree};
use dispersion_core::{DispersionDynamic, LeafPortRule, MoverRule, SlidingPolicy};
use dispersion_engine::adversary::{
    DynamicNetwork, DynamicRingNetwork, EdgeChurnNetwork, MinProgressSampler, StarPairAdversary,
    StaticNetwork, TIntervalNetwork,
};
use dispersion_engine::{
    build_packets, build_views, Activation, CheckPolicy, Configuration, CrashPhase, FaultPlan,
    InfoPacket, ModelSpec, NeighborReport, SimError, SimOutcome, Simulator, Step, TracePolicy,
};
use dispersion_graph::{connectivity, generators, relabel, GraphBuilder, NodeId, PortLabeledGraph};
use proptest::prelude::*;

/// Strategy: a connected random graph described by (n, extra-edge prob
/// milli, seed).
fn graph_params() -> impl Strategy<Value = (usize, f64, u64)> {
    (2usize..30, 0u32..400, any::<u64>())
        .prop_map(|(n, millis, seed)| (n, f64::from(millis) / 1000.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_graphs_are_valid_and_connected((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed).unwrap();
        prop_assert!(connectivity::is_connected(&g));
        prop_assert!(g.validate().is_ok());
        // Port labels are exactly 1..=degree at every node.
        for v in g.nodes() {
            let mut ports: Vec<u32> =
                g.neighbors(v).map(|(p, _, _)| p.get()).collect();
            ports.sort_unstable();
            let expect: Vec<u32> = (1..=g.degree(v) as u32).collect();
            prop_assert_eq!(ports, expect);
        }
    }

    #[test]
    fn relabeling_preserves_topology((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let h = relabel::random_relabel(&g, seed ^ 0x5a5a);
        prop_assert!(h.validate().is_ok());
        prop_assert_eq!(g.edge_count(), h.edge_count());
        for e in g.edges() {
            prop_assert!(h.has_edge(e.u, e.v));
        }
    }

    #[test]
    fn components_agree_with_union_find((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let k = 1 + (seed as usize % n);
        let cfg = Configuration::random(n, k, seed, false);
        let packets = build_packets(&g, &cfg, true);
        let comps = ConnectedComponent::build_all(&packets);
        let truth = connectivity::components_of(&g, &cfg.occupied_indicator());
        prop_assert_eq!(comps.len(), truth.len());
        let total_nodes: usize = comps.iter().map(ConnectedComponent::len).sum();
        prop_assert_eq!(total_nodes, cfg.occupied_count());
        let total_robots: usize = comps.iter().map(ConnectedComponent::robot_count).sum();
        prop_assert_eq!(total_robots, k);
    }

    #[test]
    fn trees_and_paths_hold_invariants((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let k = 2 + (seed as usize % (n.max(3) - 1)).min(n - 1);
        let cfg = Configuration::random(n, k.min(n), seed, true);
        let packets = build_packets(&g, &cfg, true);
        for comp in ConnectedComponent::build_all(&packets) {
            comp.check_invariants();
            if let Some(tree) = SpanningTree::build(&comp) {
                tree.check_invariants(&comp);
                let set = DisjointPathSet::build(&comp, &tree);
                set.check_invariants(&tree);
                prop_assert!(!set.is_empty(), "Lemma 3");
            }
        }
    }

    #[test]
    fn algorithm4_disperses_within_k_rounds((n, p, seed) in graph_params()) {
        let n = n.max(3);
        let k = 2 + (seed as usize % (n - 1));
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            EdgeChurnNetwork::new(n, p, seed),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::random(n, k.min(n), seed, true),
        ).build().unwrap();
        let out = sim.run().unwrap();
        prop_assert!(out.dispersed);
        prop_assert!(out.rounds <= out.k as u64,
            "rounds {} > k {}", out.rounds, out.k);
        prop_assert!(out.trace.every_round_made_progress());
        prop_assert!(out.trace.occupied_monotone());
        prop_assert_eq!(
            out.max_memory_bits(),
            dispersion_engine::RobotId::bits_for_population(out.k)
        );
    }

    #[test]
    fn robots_never_leave_the_graph((n, p, seed) in graph_params()) {
        let n = n.max(3);
        let k = 2 + (seed as usize % (n - 1));
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            EdgeChurnNetwork::new(n, p, seed),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::random(n, k.min(n), seed, true),
        ).build().unwrap();
        let out = sim.run().unwrap();
        prop_assert_eq!(out.final_config.robot_count(), out.k);
        for (_, node) in out.final_config.iter() {
            prop_assert!(node.index() < n);
        }
    }

    #[test]
    fn builder_rejects_bad_inputs(n in 1usize..10, u in 0u32..12, w in 0u32..12) {
        let mut b = GraphBuilder::new(n);
        let result = b.add_edge(NodeId::new(u), NodeId::new(w));
        let in_range = (u as usize) < n && (w as usize) < n;
        if !in_range || u == w {
            prop_assert!(result.is_err());
        } else {
            prop_assert!(result.is_ok());
            prop_assert!(b.add_edge(NodeId::new(u), NodeId::new(w)).is_err(),
                "duplicate must be rejected");
        }
    }

    #[test]
    fn bfs_trees_hold_the_same_invariants((n, p, seed) in graph_params()) {
        let g = generators::random_connected(n, p, seed).unwrap();
        let k = 2 + (seed as usize % (n.max(3) - 1)).min(n - 1);
        let cfg = Configuration::random(n, k.min(n), seed, true);
        let packets = build_packets(&g, &cfg, true);
        for comp in ConnectedComponent::build_all(&packets) {
            if let Some(bfs) = SpanningTree::build_bfs(&comp) {
                bfs.check_invariants(&comp);
                let dfs = SpanningTree::build(&comp).expect("same multiplicity");
                prop_assert_eq!(bfs.root(), dfs.root());
                prop_assert_eq!(bfs.len(), dfs.len());
                // BFS never yields deeper trees than DFS.
                let bfs_depth = comp.node_ids().map(|id| bfs.depth(id)).max().unwrap_or(0);
                let dfs_depth = comp.node_ids().map(|id| dfs.depth(id)).max().unwrap_or(0);
                prop_assert!(bfs_depth <= dfs_depth);
                let set = DisjointPathSet::build(&comp, &bfs);
                set.check_invariants(&bfs);
                prop_assert!(!set.is_empty(), "Lemma 3 holds for BFS trees too");
            }
        }
    }

    #[test]
    fn round_computation_consistent((n, p, seed) in graph_params()) {
        use dispersion_core::RoundComputation;
        let g = generators::random_connected(n, p, seed).unwrap();
        let k = 1 + (seed as usize % n);
        let cfg = Configuration::random(n, k, seed, false);
        let rc = RoundComputation::compute(&g, &cfg);
        let total_nodes: usize = rc.components().iter().map(|c| c.component.len()).sum();
        prop_assert_eq!(total_nodes, cfg.occupied_count());
        prop_assert_eq!(rc.is_dispersed(), cfg.is_dispersed());
        prop_assert_eq!(
            rc.guaranteed_progress(),
            rc.components().iter().filter(|c| c.has_multiplicity()).count()
        );
        // Every robot resolves to exactly one component.
        for (robot, _) in cfg.iter() {
            prop_assert!(rc.component_of(robot).is_some());
        }
    }

    #[test]
    fn faulty_runs_never_exceed_k_rounds(
        seed in any::<u64>(),
        f in 0usize..6,
    ) {
        use dispersion_engine::{CrashPhase, FaultPlan};
        let (n, k) = (16usize, 11usize);
        let f = f.min(k);
        let plan = FaultPlan::random(k, f, 6, CrashPhase::BeforeCommunicate, seed);
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            EdgeChurnNetwork::new(n, 0.12, seed),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        ).faults(plan).build().unwrap();
        let out = sim.run().unwrap();
        prop_assert!(out.dispersed);
        prop_assert!(out.rounds <= k as u64);
        prop_assert_eq!(out.final_config.robot_count(), k - out.crashes);
    }

    #[test]
    fn dynamic_rings_stay_within_k(
        k in 3usize..16,
        seed in any::<u64>(),
        drop_edge in any::<bool>(),
    ) {
        use dispersion_engine::adversary::DynamicRingNetwork;
        let n = k + 2;
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            DynamicRingNetwork::new(n, drop_edge, seed),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        ).build().unwrap();
        let out = sim.run().unwrap();
        prop_assert!(out.dispersed);
        prop_assert!(out.rounds <= k as u64);
    }

    #[test]
    fn star_pair_progress_is_at_most_one(
        k in 2usize..20,
        seed in any::<u64>(),
    ) {
        use dispersion_engine::adversary::StarPairAdversary;
        let n = k + 3 + (seed as usize % 4);
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            StarPairAdversary::new(n),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new((seed % n as u64) as u32)),
        ).build().unwrap();
        let out = sim.run().unwrap();
        prop_assert!(out.dispersed);
        prop_assert_eq!(out.rounds, (k - 1) as u64);
        for rec in &out.trace.records {
            prop_assert_eq!(rec.newly_occupied, 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Conformance fuzz driver
// ---------------------------------------------------------------------------

/// Static-topology families the fuzzer draws from. Index 0 is the
/// simplest (shrinking target).
const GENERATOR_NAMES: [&str; 5] = ["path", "cycle", "star", "complete", "random_connected"];

/// Adversary families the fuzzer draws from. Index 0 is the simplest
/// (shrinking target).
const ADVERSARY_NAMES: [&str; 6] = [
    "static",
    "churn",
    "star-pair",
    "ring",
    "t-interval",
    "min-progress",
];

/// One fuzzed conformance configuration: a (generator × adversary × n ×
/// k × seed) point. Running it means Algorithm 4 rooted at node 0 under
/// `CheckPolicy::Full` with the seed armed for replay reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ConformanceSpec {
    /// Index into [`GENERATOR_NAMES`].
    generator: usize,
    /// Index into [`ADVERSARY_NAMES`].
    adversary: usize,
    n: usize,
    k: usize,
    seed: u64,
}

impl std::fmt::Display for ConformanceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "generator={} adversary={} n={} k={} seed={}",
            GENERATOR_NAMES[self.generator],
            ADVERSARY_NAMES[self.adversary],
            self.n,
            self.k,
            self.seed,
        )
    }
}

impl ConformanceSpec {
    /// The static topology (used by the `static` adversary; the others
    /// generate their own graphs but stay in the spec product so the
    /// shrinker can trade them away independently).
    fn graph(&self) -> PortLabeledGraph {
        let (n, seed) = (self.n, self.seed);
        match GENERATOR_NAMES[self.generator] {
            "path" => generators::path(n).expect("n ≥ 1"),
            "cycle" => generators::cycle(n.max(3)).expect("n ≥ 3"),
            "star" => generators::star(n).expect("n ≥ 2"),
            "complete" => generators::complete(n).expect("n ≥ 1"),
            _ => generators::random_connected(n, 0.25, seed).expect("n ≥ 1"),
        }
    }

    fn network(&self) -> Box<dyn DynamicNetwork> {
        let (n, seed) = (self.n, self.seed);
        match ADVERSARY_NAMES[self.adversary] {
            "static" => Box::new(StaticNetwork::new(self.graph())),
            "churn" => Box::new(EdgeChurnNetwork::new(n, 0.2, seed)),
            "star-pair" => Box::new(StarPairAdversary::new(n)),
            "ring" => Box::new(DynamicRingNetwork::new(n.max(3), seed & 1 == 1, seed)),
            "t-interval" => Box::new(TIntervalNetwork::new(n, 3, 0.2, seed)),
            _ => Box::new(MinProgressSampler::new(n, 6, 0.2, seed)),
        }
    }

    /// Runs the spec under the full invariant suite.
    fn run(&self) -> Result<SimOutcome, SimError> {
        Simulator::builder(
            DispersionDynamic::new(),
            self.network(),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(self.n, self.k, NodeId::new(0)),
        )
        .check(CheckPolicy::Full)
        .check_seed(self.seed)
        .build()?
        .run()
    }

    /// `Some(description)` when the spec fails conformance: any simulator
    /// error (invariant violations included) or a non-dispersed outcome.
    fn failure(&self) -> Option<String> {
        match self.run() {
            Err(e) => Some(e.to_string()),
            Ok(out) if !out.dispersed => Some(format!(
                "run terminated undispersed after {} rounds",
                out.rounds
            )),
            Ok(_) => None,
        }
    }

    /// Candidate one-step reductions, simplest-first: drop the adversary
    /// and generator to their first families, then shrink n, k, and the
    /// seed. Each candidate is a *valid* spec (2 ≤ k ≤ n, n ≥ 4).
    fn reductions(&self) -> Vec<ConformanceSpec> {
        let mut out = Vec::new();
        if self.adversary != 0 {
            out.push(ConformanceSpec {
                adversary: 0,
                ..*self
            });
        }
        if self.generator != 0 {
            out.push(ConformanceSpec {
                generator: 0,
                ..*self
            });
        }
        if self.n > 4 {
            let halved = (self.n / 2).max(4);
            out.push(ConformanceSpec {
                n: halved,
                k: self.k.min(halved),
                ..*self
            });
            out.push(ConformanceSpec {
                n: self.n - 1,
                k: self.k.min(self.n - 1),
                ..*self
            });
        }
        if self.k > 2 {
            out.push(ConformanceSpec {
                k: (self.k / 2).max(2),
                ..*self
            });
            out.push(ConformanceSpec {
                k: self.k - 1,
                ..*self
            });
        }
        if self.seed != 0 {
            out.push(ConformanceSpec { seed: 0, ..*self });
            out.push(ConformanceSpec {
                seed: self.seed / 2,
                ..*self
            });
        }
        out
    }
}

/// The shrinker must only ever propose valid specs (2 ≤ k ≤ n, n ≥ 4,
/// in-range family indices), or a real failure would be masked by a
/// builder error in a reduction.
#[test]
fn conformance_reductions_stay_valid() {
    let mut frontier = vec![ConformanceSpec {
        generator: GENERATOR_NAMES.len() - 1,
        adversary: ADVERSARY_NAMES.len() - 1,
        n: 17,
        k: 9,
        seed: 0x5eed_cafe,
    }];
    for _ in 0..6 {
        frontier = frontier
            .iter()
            .flat_map(ConformanceSpec::reductions)
            .collect();
        for s in &frontier {
            assert!(s.generator < GENERATOR_NAMES.len() && s.adversary < ADVERSARY_NAMES.len());
            assert!(s.n >= 4, "{s}");
            assert!((2..=s.n).contains(&s.k), "{s}");
        }
    }
    assert!(
        !frontier.is_empty(),
        "reduction space must not dead-end early"
    );
}

/// Greedy shrink: repeatedly adopt the first one-step reduction that
/// still fails, until no reduction fails. Returns the minimal spec and
/// its failure description.
fn shrink_failing_spec(mut spec: ConformanceSpec, mut detail: String) -> (ConformanceSpec, String) {
    'outer: loop {
        for candidate in spec.reductions() {
            if let Some(d) = candidate.failure() {
                spec = candidate;
                detail = d;
                continue 'outer;
            }
        }
        return (spec, detail);
    }
}

/// Persists the shrunken failing spec where CI uploads artifacts from
/// (`target/conformance-failures/`). Best-effort: the panic message
/// carries the same information.
fn persist_failing_spec(test: &str, spec: &ConformanceSpec, detail: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/conformance-failures"
    ));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{test}.txt"));
    let _ = std::fs::write(
        &path,
        format!("test: {test}\nminimal failing spec: {spec}\nfailure: {detail}\n"),
    );
    path
}

/// Checks a spec; on failure shrinks it to a minimal failing spec,
/// persists it for CI, and panics with both.
fn assert_conformance(test: &str, spec: ConformanceSpec) {
    if let Some(detail) = spec.failure() {
        let (minimal, minimal_detail) = shrink_failing_spec(spec, detail.clone());
        let path = persist_failing_spec(test, &minimal, &minimal_detail);
        panic!(
            "conformance failure: {detail}\n  original spec: {spec}\n  minimal failing spec: \
             {minimal} ({minimal_detail})\n  persisted at {}",
            path.display()
        );
    }
}

/// Strategy over the full (generator × adversary × n × k × seed) space.
fn conformance_spec() -> impl Strategy<Value = ConformanceSpec> {
    (
        0usize..GENERATOR_NAMES.len(),
        0usize..ADVERSARY_NAMES.len(),
        4usize..18,
        any::<u64>(),
    )
        .prop_map(|(generator, adversary, n, seed)| ConformanceSpec {
            generator,
            adversary,
            n,
            k: 2 + (seed >> 32) as usize % (n - 1),
            seed,
        })
}

proptest! {
    // ≥ 200 generated configurations through the full invariant suite
    // (each case is one spec). CI re-pins the budget via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(224))]

    #[test]
    fn conformance_fuzz_runs_clean_under_full_checking(spec in conformance_spec()) {
        assert_conformance("conformance_fuzz_runs_clean_under_full_checking", spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conformance_replay_confirms_adversary_determinism(spec in conformance_spec()) {
        // First run records the adversary's per-round graph fingerprints…
        let build = || Simulator::builder(
            DispersionDynamic::new(),
            spec.network(),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(spec.n, spec.k, NodeId::new(0)),
        );
        let mut first = build().check(CheckPolicy::Full).check_seed(spec.seed)
            .build().unwrap();
        first.run().unwrap();
        let hashes = first.monitor().expect("checking on").graph_hashes().to_vec();
        // …and the replay must regenerate exactly the same sequence.
        let mut replay = build()
            .check(CheckPolicy::Full)
            .check_seed(spec.seed)
            .check_expected_graphs(hashes)
            .build()
            .unwrap();
        replay.run().unwrap_or_else(|e| {
            panic!("same-seed replay diverged for {spec}: {e}")
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every row of the packet table — the simulator's and the oracle's
    // Communicate phase, as `build_views` exposes it and `build_packets`
    // converts it — equals the packet derived node by node from the
    // configuration, for random (possibly crash-thinned) placements, in
    // both sensing models.
    #[test]
    fn packet_table_rows_match_a_node_by_node_derivation((n, p, seed) in graph_params()) {
        let g = relabel::random_relabel(&generators::random_connected(n, p, seed).unwrap(), seed);
        let k = 1 + (seed as usize % n);
        let mut cfg = Configuration::random(n, k, seed, seed % 2 == 0);
        if seed % 3 == 0 && k > 1 {
            cfg.remove(dispersion_engine::RobotId::new(1 + (seed >> 8) as u32 % k as u32));
        }
        // Packets ascend by sender; each names its occupied neighbors in
        // port order, and the table gives each its position in that list.
        let mut occupied: Vec<Vec<dispersion_engine::RobotId>> = g
            .nodes()
            .map(|v| cfg.robots_at(v))
            .filter(|robots| !robots.is_empty())
            .collect();
        occupied.sort_unstable_by_key(|robots| robots[0]);
        let position = |robot| occupied.iter().position(|robots| robots[0] == robot);
        for model in [ModelSpec::GLOBAL_WITH_NEIGHBORHOOD, ModelSpec::GLOBAL_BLIND] {
            let expected: Vec<InfoPacket> = occupied
                .iter()
                .map(|robots| {
                    let v = cfg.node_of(robots[0]).unwrap();
                    let reports = g
                        .neighbors(v)
                        .filter_map(|(port, w, _)| {
                            let there = cfg.robots_at(w);
                            let first = *there.first()?;
                            Some(NeighborReport {
                                port,
                                min_robot: first,
                                count: there.len(),
                            })
                        })
                        .collect();
                    InfoPacket {
                        sender: robots[0],
                        count: robots.len(),
                        robots: robots.clone(),
                        degree: model.neighborhood.then(|| g.degree(v)),
                        occupied_neighbors: model.neighborhood.then_some(reports),
                    }
                })
                .collect();
            let views = build_views(&g, &cfg, model, 0, k, &|_| None);
            let table = views.packets();
            prop_assert_eq!(table.len(), expected.len());
            for (row, packet) in table.iter().zip(&expected) {
                prop_assert_eq!(&row.to_owned(), packet);
                // Each report's neighbor slot is that neighbor's position.
                if let Some(reports) = &packet.occupied_neighbors {
                    let slots: Vec<usize> = row
                        .neighbor_slots()
                        .unwrap()
                        .iter()
                        .map(|&slot| slot as usize)
                        .collect();
                    let positions: Vec<usize> =
                        reports.iter().map(|rep| position(rep.min_robot).unwrap()).collect();
                    prop_assert_eq!(slots, positions);
                } else {
                    prop_assert!(row.neighbor_slots().is_none());
                }
            }
            prop_assert_eq!(build_packets(&g, &cfg, model.neighborhood), expected);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential oracle: planned vs unmemoized Algorithm 4
// ---------------------------------------------------------------------------

/// Six sliding policies: the paper's rules,
/// each alternative rule alone, all of them together, and BFS trees.
fn sliding_policies() -> [SlidingPolicy; 6] {
    let paper = SlidingPolicy::default();
    [
        paper,
        SlidingPolicy {
            mover: MoverRule::SmallestNonAnchor,
            ..paper
        },
        SlidingPolicy {
            leaf_port: LeafPortRule::LargestEmpty,
            ..paper
        },
        SlidingPolicy {
            single_path: true,
            ..paper
        },
        SlidingPolicy {
            mover: MoverRule::SmallestNonAnchor,
            leaf_port: LeafPortRule::LargestEmpty,
            single_path: true,
            bfs_tree: false,
        },
        SlidingPolicy {
            bfs_tree: true,
            ..paper
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    // Satellite differential test: `DispersionDynamic` with its shared
    // round plan (one plan per packet list, shared by executor workers
    // and rebuilt per oracle candidate) must be observationally identical
    // to the unmemoized rebuild-everything variant under the same policy —
    // same per-round records, same per-round configurations, stepped in
    // lockstep. Every case runs all six policies under one scenario drawn
    // from the seed: rooted or random start, one or two engine threads,
    // full or semi-synchronous activation, with or without crash faults,
    // and an edge-churn network or the oracle-driven `MinProgressSampler`.
    #[test]
    fn memoization_is_observationally_transparent((n, p, seed) in graph_params()) {
        let n = n.max(3);
        let k = 2 + (seed as usize % (n - 1));
        let bit = |i: u32| (seed >> (40 + i)) & 1 == 1;
        let start = if bit(0) {
            Configuration::random(n, k, seed, true)
        } else {
            Configuration::rooted(n, k, NodeId::new(0))
        };
        let threads = if bit(1) { 2 } else { 1 };
        let activation = if bit(2) {
            Activation::SemiSync { p_percent: 60, seed }
        } else {
            Activation::FullSync
        };
        let faults = if bit(3) {
            let phase = if bit(4) { CrashPhase::AfterCompute } else { CrashPhase::BeforeCommunicate };
            FaultPlan::random(k, k / 3, k as u64, phase, seed)
        } else {
            FaultPlan::none()
        };
        let oracle = bit(5);
        let network = || -> Box<dyn DynamicNetwork> {
            if oracle {
                Box::new(MinProgressSampler::new(n, 4, p, seed))
            } else {
                Box::new(EdgeChurnNetwork::new(n, p, seed))
            }
        };
        let scenario = format!(
            "n={n} k={k} seed={seed} threads={threads} {activation:?} crashes={} oracle={oracle}",
            faults.crash_count()
        );
        prop_assert!(DispersionDynamic::unmemoized().is_unmemoized());
        prop_assert!(!DispersionDynamic::new().is_unmemoized());
        for policy in sliding_policies() {
            let reference = DispersionDynamic::unmemoized_with_policy(policy);
            prop_assert!(reference.is_unmemoized());
            prop_assert_eq!(reference.policy(), policy);
            let build = |alg: DispersionDynamic, threads: usize| Simulator::builder(
                alg,
                network(),
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                start.clone(),
            )
            .activation(activation)
            .faults(faults.clone())
            .trace(TracePolicy::Rounds)
            .threads(threads)
            .build()
            .unwrap();
            let mut planned = build(DispersionDynamic::with_policy(policy), threads);
            let mut naive = build(reference, 1);

            let cap = 30 * k as u64 + 30;
            let mut finished = false;
            for round in 0..=cap {
                let a = match planned.step().unwrap() {
                    Step::Dispersed => None,
                    Step::Advanced(out) => Some(out.record.clone()),
                };
                let b = match naive.step().unwrap() {
                    Step::Dispersed => None,
                    Step::Advanced(out) => Some(out.record.clone()),
                };
                prop_assert_eq!(&a, &b, "{} {:?}: round {} records diverge", scenario, policy, round);
                prop_assert_eq!(
                    planned.configuration(),
                    naive.configuration(),
                    "{} {:?}: round {} configurations diverge",
                    scenario,
                    policy,
                    round
                );
                if a.is_none() {
                    finished = true;
                    break;
                }
            }
            if activation == Activation::FullSync {
                prop_assert!(finished, "{} {:?}: no dispersion within {} rounds", scenario, policy, cap);
                if faults.crash_count() == 0 {
                    prop_assert!(
                        planned.round() <= k as u64,
                        "{} {:?}: O(k) violated ({} rounds)",
                        scenario,
                        policy,
                        planned.round()
                    );
                }
            }
        }
    }
}
