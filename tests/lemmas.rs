//! The paper's lemmas and observations as executable assertions over
//! randomly generated rounds.
//!
//! * Observation 1 — component nodes have unique IDs.
//! * Observation 2 — distinct components are ≥ 2 hops apart.
//! * Observation 3 — trees have unique node IDs and a distinct root.
//! * Observation 4 — a non-root node lies on at most one root path.
//! * Lemma 1 — all robots of a component build the same component.
//! * Lemma 2 — all robots of a component build the same spanning tree.
//! * Lemma 3 — a component with a multiplicity yields ≥ 1 disjoint path.
//! * Lemma 4 — all robots agree on the disjoint path set.
//! * Lemma 5 — every kept path ends at a node with an empty neighbor.
//! * Lemma 7 — each round with a multiplicity occupies ≥ 1 new node.
//! * Lemma 8 — persistent memory is Θ(log k).

use std::collections::BTreeSet;

use dispersion_core::DispersionDynamic;
use dispersion_core::{component::ConnectedComponent, DisjointPathSet, SpanningTree};
use dispersion_engine::adversary::{EdgeChurnNetwork, StaticNetwork};
use dispersion_engine::{build_packets, Configuration, InfoPacket, ModelSpec, RobotId, Simulator};
use dispersion_graph::{connectivity, generators, traversal, NodeId, PortLabeledGraph};

/// A random occupied round: graph + configuration + packets.
fn random_round(seed: u64) -> (PortLabeledGraph, Configuration, Vec<InfoPacket>) {
    let n = 10 + (seed as usize % 15);
    let k = 3 + (seed as usize % (n - 3));
    let g = generators::random_connected(n, 0.08 + (seed % 7) as f64 * 0.03, seed).unwrap();
    let cfg = Configuration::random(n, k, seed.wrapping_mul(31).wrapping_add(7), true);
    let packets = build_packets(&g, &cfg, true);
    (g, cfg, packets)
}

#[test]
fn observation1_unique_node_ids() {
    for seed in 0..30u64 {
        let (_, _, packets) = random_round(seed);
        for comp in ConnectedComponent::build_all(&packets) {
            let ids: BTreeSet<RobotId> = comp.node_ids().collect();
            assert_eq!(ids.len(), comp.len(), "seed {seed}");
            comp.check_invariants();
        }
    }
}

#[test]
fn observation2_components_two_hops_apart() {
    for seed in 0..30u64 {
        let (g, cfg, packets) = random_round(seed);
        let comps = ConnectedComponent::build_all(&packets);
        // Map component identity → set of graph nodes via min-robot IDs.
        let node_of_id = |id: RobotId| cfg.node_of(id).expect("ids are live robots");
        for (i, a) in comps.iter().enumerate() {
            for b in comps.iter().skip(i + 1) {
                for na in a.node_ids().map(node_of_id) {
                    for nb in b.node_ids().map(node_of_id) {
                        let d = traversal::shortest_path(&g, na, nb)
                            .map(|p| p.len() - 1)
                            .unwrap_or(usize::MAX);
                        assert!(d >= 2, "seed {seed}: components {na}/{nb} at distance {d}");
                    }
                }
            }
        }
    }
}

#[test]
fn components_match_graph_truth() {
    // The robots' packet-based components equal the simulator-side
    // induced components of the occupied subgraph.
    for seed in 0..30u64 {
        let (g, cfg, packets) = random_round(seed);
        let robot_comps = ConnectedComponent::build_all(&packets);
        let truth = connectivity::components_of(&g, &cfg.occupied_indicator());
        assert_eq!(robot_comps.len(), truth.len(), "seed {seed}");
        // Components are sorted differently on the two sides (min robot ID
        // vs. min node index): compare as sets of node sets.
        let robot_sets: BTreeSet<BTreeSet<NodeId>> = robot_comps
            .iter()
            .map(|rc| {
                rc.node_ids()
                    .map(|id| cfg.node_of(id).expect("live"))
                    .collect()
            })
            .collect();
        let truth_sets: BTreeSet<BTreeSet<NodeId>> = truth
            .iter()
            .map(|tc| tc.iter().copied().collect())
            .collect();
        assert_eq!(robot_sets, truth_sets, "seed {seed}");
    }
}

#[test]
fn lemma1_and_2_agreement() {
    for seed in 0..30u64 {
        let (_, _, packets) = random_round(seed);
        for comp in ConnectedComponent::build_all(&packets) {
            let members: Vec<RobotId> =
                comp.iter().flat_map(|n| n.robots.iter().copied()).collect();
            let reference_tree = SpanningTree::build(&comp);
            for m in members {
                // Lemma 1: every member robot reconstructs this component.
                let own_node_id = comp
                    .iter()
                    .find(|n| n.robots.contains(&m))
                    .expect("member is on a node")
                    .id;
                let rebuilt = ConnectedComponent::build(&packets, own_node_id);
                assert_eq!(rebuilt, comp, "seed {seed}: Lemma 1 for {m}");
                // Lemma 2: and the same spanning tree.
                assert_eq!(
                    SpanningTree::build(&rebuilt),
                    reference_tree,
                    "seed {seed}: Lemma 2 for {m}"
                );
            }
        }
    }
}

#[test]
fn observation3_tree_structure() {
    for seed in 0..30u64 {
        let (_, _, packets) = random_round(seed);
        for comp in ConnectedComponent::build_all(&packets) {
            if let Some(tree) = SpanningTree::build(&comp) {
                tree.check_invariants(&comp);
                // Root is the smallest multiplicity node.
                assert_eq!(Some(tree.root()), comp.root());
            }
        }
    }
}

#[test]
fn lemma3_4_5_and_observation4_paths() {
    for seed in 0..40u64 {
        let (_, _, packets) = random_round(seed);
        for comp in ConnectedComponent::build_all(&packets) {
            let Some(tree) = SpanningTree::build(&comp) else {
                continue;
            };
            let set = DisjointPathSet::build(&comp, &tree);
            // Lemma 3: at least one path.
            assert!(!set.is_empty(), "seed {seed}: Lemma 3");
            // Observation 4 / Definition 5: disjointness.
            set.check_invariants(&tree);
            for p in set.iter() {
                // Lemma 5: the leaf borders an empty node.
                let leaf = comp.node(p.leaf()).expect("leaf in component");
                assert!(leaf.has_empty_neighbor(), "seed {seed}: Lemma 5");
            }
            // Lemma 4 (determinism): rebuilding yields the same set.
            assert_eq!(DisjointPathSet::build(&comp, &tree), set, "seed {seed}");
            // Truncation: strictly fewer paths than robots on the root.
            let root_count = comp.node(tree.root()).unwrap().count;
            assert!(set.len() <= root_count.saturating_sub(1).max(1));
        }
    }
}

#[test]
fn lemma7_progress_every_round() {
    for seed in 0..15u64 {
        let n = 12 + (seed as usize % 10);
        let k = 4 + (seed as usize % (n - 4));
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            EdgeChurnNetwork::new(n, 0.15, seed),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::random(n, k, seed, true),
        )
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        assert!(out.dispersed);
        assert!(
            out.trace.every_round_made_progress(),
            "seed {seed}: Lemma 7 progress"
        );
        assert!(
            out.trace.occupied_monotone(),
            "seed {seed}: Lemma 7 monotonicity"
        );
    }
}

#[test]
fn lemma8_memory_log_k() {
    for k in [2usize, 3, 7, 15, 16, 31, 33, 100] {
        let n = k + 5;
        let g = generators::random_connected(n, 0.1, k as u64).unwrap();
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        let expected = dispersion_engine::RobotId::bits_for_population(k);
        assert_eq!(out.max_memory_bits(), expected, "k={k}");
    }
}
