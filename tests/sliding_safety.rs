//! Sliding edge cases: the subtlest part of Algorithm 4, exercised
//! directly on hand-built rounds.

use dispersion_core::{DispersionDynamic, RoundComputation};
use dispersion_engine::adversary::StaticNetwork;
use dispersion_engine::{Configuration, ModelSpec, RobotId, Simulator, Step};
use dispersion_graph::{GraphBuilder, NodeId, PortLabeledGraph};

fn r(i: u32) -> RobotId {
    RobotId::new(i)
}
fn v(i: u32) -> NodeId {
    NodeId::new(i)
}

/// One round of Algorithm 4 on a static graph; returns the configuration
/// after the slide.
fn one_round(g: &PortLabeledGraph, cfg: &Configuration) -> Configuration {
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        StaticNetwork::new(g.clone()),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        cfg.clone(),
    )
    .build()
    .unwrap();
    match sim.step().unwrap() {
        Step::Advanced(_) => {}
        Step::Dispersed => panic!("fixtures start undispersed"),
    }
    sim.configuration().clone()
}

#[test]
fn two_paths_may_share_the_empty_target() {
    // The paper's worst case: "all robots slided from different root
    // paths may reach that node". Build a diamond where both branch
    // leaves border the same single empty node; both movers land on it —
    // still ≥ 1 new node (Lemma 7), and the resulting multiplicity is
    // resolved next round.
    //   4 robots on node 0; branches 0-1-3 and 0-2-3'... use:
    //   0 (root, 3 robots) — 1 (1 robot) — 3 (empty)
    //                      \ 2 (1 robot) / (3 adjacent to both 1 and 2)
    let mut b = GraphBuilder::new(5);
    b.add_edge(v(0), v(1)).unwrap();
    b.add_edge(v(0), v(2)).unwrap();
    b.add_edge(v(1), v(3)).unwrap();
    b.add_edge(v(2), v(3)).unwrap();
    b.add_edge(v(3), v(4)).unwrap(); // spare empty node keeps k ≤ n
    let g = b.build().unwrap();
    let cfg = Configuration::from_pairs(
        5,
        [
            (r(1), v(0)),
            (r(4), v(0)),
            (r(5), v(0)),
            (r(2), v(1)),
            (r(3), v(2)),
        ],
    );
    // Sanity: both leaves (ids r2, r3) border only the empty node 3.
    let rc = RoundComputation::compute(&g, &cfg);
    let paths = rc.components()[0].paths.as_ref().unwrap();
    assert_eq!(paths.len(), 2, "two disjoint branch paths");
    let after = one_round(&g, &cfg);
    // Node 3 received both leaf movers: count 2; every old node occupied.
    assert_eq!(after.count_at(v(3)), 2);
    for node in [0u32, 1, 2] {
        assert!(after.count_at(v(node)) >= 1, "node {node} stayed occupied");
    }
    // And the run still finishes within k rounds overall.
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        StaticNetwork::new(g),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        cfg,
    )
    .build()
    .unwrap();
    let out = sim.run().unwrap();
    assert!(out.dispersed);
    assert!(out.rounds <= 5);
}

#[test]
fn trivial_and_nontrivial_paths_coexist() {
    // Root with an empty neighbor AND a branch to a leaf with an empty
    // neighbor: the path set holds the trivial path [root] plus the
    // branch; two robots leave the root region in one round.
    //   0 (root, 3 robots) — 1 (1 robot) — 2 (empty); 0 — 3 (empty)
    let mut b = GraphBuilder::new(4);
    b.add_edge(v(0), v(1)).unwrap();
    b.add_edge(v(1), v(2)).unwrap();
    b.add_edge(v(0), v(3)).unwrap();
    let g = b.build().unwrap();
    let cfg =
        Configuration::from_pairs(4, [(r(1), v(0)), (r(3), v(0)), (r(4), v(0)), (r(2), v(1))]);
    let rc = RoundComputation::compute(&g, &cfg);
    let paths = rc.components()[0].paths.as_ref().unwrap();
    assert_eq!(paths.len(), 2);
    assert!(paths.iter().any(|p| p.is_trivial()));
    let after = one_round(&g, &cfg);
    // Both empties now hold a robot; dispersion complete in one round.
    assert_eq!(after.count_at(v(2)), 1);
    assert_eq!(after.count_at(v(3)), 1);
    assert!(after.is_dispersed());
}

#[test]
fn root_never_vacates() {
    // Lemma 6: the root slides at most count(root) − 1 robots, so it
    // stays occupied — even when it has more paths than robots to spare.
    // Spider with 4 branch paths but only 2 robots on the root: only one
    // mover leaves.
    let mut b = GraphBuilder::new(9);
    for arm in 0..4u32 {
        b.add_edge(v(0), v(1 + arm)).unwrap();
        b.add_edge(v(1 + arm), v(5 + arm)).unwrap();
    }
    let g = b.build().unwrap();
    let cfg = Configuration::from_pairs(
        9,
        [
            (r(1), v(0)),
            (r(6), v(0)),
            (r(2), v(1)),
            (r(3), v(2)),
            (r(4), v(3)),
            (r(5), v(4)),
        ],
    );
    let rc = RoundComputation::compute(&g, &cfg);
    let paths = rc.components()[0].paths.as_ref().unwrap();
    assert_eq!(paths.len(), 1, "count(root) − 1 = 1 path kept");
    let after = one_round(&g, &cfg);
    assert!(after.count_at(v(0)) >= 1, "root keeps its anchor");
    // Exactly one tip settled.
    let settled_tips = (5..9u32).filter(|&t| after.count_at(v(t)) > 0).count();
    assert_eq!(settled_tips, 1);
}

#[test]
fn interior_multiplicities_survive_and_resolve() {
    // Multiplicity at an interior path node: one robot forwards, the node
    // keeps the rest, and over k rounds everything resolves.
    // Path 0-1-2-3-4-5-6: {1,5} on 0, {2,6,7} on 1, {3} on 2; rest empty.
    let g = dispersion_graph::generators::path(7).unwrap();
    let cfg = Configuration::from_pairs(
        7,
        [
            (r(1), v(0)),
            (r(5), v(0)),
            (r(2), v(1)),
            (r(6), v(1)),
            (r(7), v(1)),
            (r(3), v(2)),
        ],
    );
    let after = one_round(&g, &cfg);
    // Chain slid: node 3 received the old leaf robot; node 1 still has a
    // multiplicity (it forwarded one, received one).
    assert_eq!(after.count_at(v(3)), 1);
    assert!(after.count_at(v(1)) >= 2);
    // And the full run resolves all multiplicities within k rounds.
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        StaticNetwork::new(g),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        cfg,
    )
    .build()
    .unwrap();
    let out = sim.run().unwrap();
    assert!(out.dispersed);
    assert!(out.rounds <= 6);
}

#[test]
fn fully_occupied_component_waits_for_neighbors() {
    // A component whose every node has all neighbors occupied cannot act
    // (its LeafNodeSet is empty) — but then k = n within that region and
    // dispersion completes via the other component's progress or is
    // already global. Paper Lemma 3 covers the k ≤ n case: build the
    // boundary instance k = n where the whole graph is one fully occupied
    // component with one multiplicity — there must still be a leaf node
    // UNLESS k = n and dispersed. With a multiplicity and k = n, some
    // node is empty, so a leaf exists: verify on a cycle.
    let g = dispersion_graph::generators::cycle(5).unwrap();
    let cfg = Configuration::from_pairs(
        5,
        [
            (r(1), v(0)),
            (r(5), v(0)),
            (r(2), v(1)),
            (r(3), v(2)),
            (r(4), v(3)),
        ],
    );
    let rc = RoundComputation::compute(&g, &cfg);
    let paths = rc.components()[0].paths.as_ref().unwrap();
    assert!(!paths.is_empty(), "Lemma 3: a leaf must exist");
    let after = one_round(&g, &cfg);
    assert!(after.is_dispersed(), "k = n resolves in one slide here");
}

#[test]
fn single_node_component_uses_its_trivial_path() {
    // All robots on one isolated-by-occupancy node: only the trivial
    // path exists, one robot steps off per round.
    let g = dispersion_graph::generators::star(6).unwrap();
    let cfg = Configuration::rooted(6, 4, v(0));
    let rc = RoundComputation::compute(&g, &cfg);
    let paths = rc.components()[0].paths.as_ref().unwrap();
    assert_eq!(paths.len(), 1);
    assert!(paths.paths()[0].is_trivial());
    let after = one_round(&g, &cfg);
    assert_eq!(after.count_at(v(0)), 3, "exactly one robot left the root");
    assert_eq!(after.occupied_count(), 2);
}
