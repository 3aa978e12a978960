//! The running example of Section V / Figs. 3–4: a 15-node, 17-edge
//! dynamic-graph round with 14 robots forming two connected components.
//!
//! The paper's figure shows 14 robots on a 15-node, 17-edge `G_r` whose
//! occupied subgraph splits into a "green" component (robots 1, 3, 5, 7,
//! 12, 13, 14) and a "red" component (robots 2, 4, 6, 8–11), each with a
//! spanning tree rooted at its smallest-ID multiplicity node, from which
//! disjoint root paths are computed and one robot slides per path
//! (Fig. 4). The figure's exact adjacency is only available as an image,
//! so this module reconstructs a graph with the same parameters and the
//! same component split — every structural claim the text makes about the
//! figure (two components, unique roots, disjoint paths, hashed nodes
//! receiving one robot each) is asserted over it.

use dispersion_engine::{build_packets, Configuration, InfoPacket, RobotId};
use dispersion_graph::{GraphBuilder, NodeId, PortLabeledGraph};

use crate::component::ConnectedComponent;
use crate::paths::DisjointPathSet;
use crate::spanning_tree::SpanningTree;

/// The fixture: graph, configuration, and the packets of the round.
#[derive(Clone, Debug)]
pub struct WorkedExample {
    /// The 15-node, 17-edge graph `G_r`.
    pub graph: PortLabeledGraph,
    /// The 14-robot placement.
    pub config: Configuration,
    /// The information packets every robot receives this round.
    pub packets: Vec<InfoPacket>,
}

/// Builds the Figs. 3–4 fixture.
pub fn build() -> WorkedExample {
    let mut b = GraphBuilder::new(15);
    let v = NodeId::new;
    // Green component territory: nodes 0–5 (6 edges, one cycle).
    for (a, c) in [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (2, 5)] {
        b.add_edge(v(a), v(c)).expect("edge list is simple");
    }
    // Red component territory: nodes 7–12 (6 edges, one cycle).
    for (a, c) in [(7, 8), (8, 9), (7, 10), (10, 11), (11, 12), (9, 12)] {
        b.add_edge(v(a), v(c)).expect("edge list is simple");
    }
    // Empty connective tissue: nodes 6, 13, 14 (5 edges).
    for (a, c) in [(5, 6), (6, 7), (12, 13), (13, 14), (14, 0)] {
        b.add_edge(v(a), v(c)).expect("edge list is simple");
    }
    let graph = b.build().expect("fixture graph is well formed");
    debug_assert_eq!(graph.edge_count(), 17);

    let r = RobotId::new;
    let config = Configuration::from_pairs(
        15,
        [
            // Green component (robots 1, 3, 5, 7, 12, 13, 14 per the
            // figure): multiplicity {1, 7} on node 0.
            (r(1), v(0)),
            (r(7), v(0)),
            (r(3), v(1)),
            (r(5), v(2)),
            (r(12), v(3)),
            (r(13), v(4)),
            (r(14), v(5)),
            // Red component (robots 2, 4, 6, 8–11): multiplicity {2, 8}
            // on node 7.
            (r(2), v(7)),
            (r(8), v(7)),
            (r(4), v(8)),
            (r(6), v(9)),
            (r(9), v(10)),
            (r(10), v(11)),
            (r(11), v(12)),
        ],
    );
    let packets = build_packets(&graph, &config, true);
    WorkedExample {
        graph,
        config,
        packets,
    }
}

impl WorkedExample {
    /// The components of the round, ascending by identity: `[green, red]`.
    pub fn components(&self) -> Vec<ConnectedComponent> {
        ConnectedComponent::build_all(&self.packets)
    }

    /// The green component (containing robot 1).
    pub fn green(&self) -> ConnectedComponent {
        ConnectedComponent::build(&self.packets, RobotId::new(1))
    }

    /// The red component (containing robot 2).
    pub fn red(&self) -> ConnectedComponent {
        ConnectedComponent::build(&self.packets, RobotId::new(2))
    }

    /// Spanning tree of a component.
    pub fn tree_of(&self, component: &ConnectedComponent) -> SpanningTree {
        SpanningTree::build(component).expect("both components have multiplicities")
    }

    /// Disjoint paths of a component.
    pub fn paths_of(&self, component: &ConnectedComponent, tree: &SpanningTree) -> DisjointPathSet {
        DisjointPathSet::build(component, tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_parameters_match_fig3() {
        let ex = build();
        assert_eq!(ex.graph.node_count(), 15);
        assert_eq!(ex.graph.edge_count(), 17);
        assert_eq!(ex.config.robot_count(), 14);
        assert!(dispersion_graph::connectivity::is_connected(&ex.graph));
    }

    #[test]
    fn two_components_with_figure_membership() {
        let ex = build();
        let comps = ex.components();
        assert_eq!(comps.len(), 2);
        let green = ex.green();
        let red = ex.red();
        let green_robots: Vec<u32> = green
            .iter()
            .flat_map(|n| n.robots.iter().map(|r| r.get()))
            .collect();
        let red_robots: Vec<u32> = red
            .iter()
            .flat_map(|n| n.robots.iter().map(|r| r.get()))
            .collect();
        let mut g_sorted = green_robots.clone();
        g_sorted.sort_unstable();
        let mut r_sorted = red_robots.clone();
        r_sorted.sort_unstable();
        assert_eq!(g_sorted, vec![1, 3, 5, 7, 12, 13, 14]);
        assert_eq!(r_sorted, vec![2, 4, 6, 8, 9, 10, 11]);
    }

    #[test]
    fn components_are_two_hops_apart() {
        // Observation 2: nodes of different components are ≥ 2 hops apart.
        let ex = build();
        let green_nodes = [0u32, 1, 2, 3, 4, 5];
        let red_nodes = [7u32, 8, 9, 10, 11, 12];
        for &a in &green_nodes {
            for &b in &red_nodes {
                assert!(
                    !ex.graph.has_edge(NodeId::new(a), NodeId::new(b)),
                    "components may not touch"
                );
            }
        }
    }

    #[test]
    fn roots_are_smallest_multiplicity_nodes() {
        let ex = build();
        let green = ex.green();
        let red = ex.red();
        assert_eq!(ex.tree_of(&green).root(), RobotId::new(1));
        assert_eq!(ex.tree_of(&red).root(), RobotId::new(2));
    }

    #[test]
    fn both_members_agree_lemma1() {
        let ex = build();
        for seed in [3u32, 5, 12, 13, 14] {
            assert_eq!(
                ConnectedComponent::build(&ex.packets, RobotId::new(seed)),
                ex.green(),
                "robot {seed} disagrees on the green component"
            );
        }
        for seed in [4u32, 6, 9, 10, 11] {
            assert_eq!(
                ConnectedComponent::build(&ex.packets, RobotId::new(seed)),
                ex.red(),
                "robot {seed} disagrees on the red component"
            );
        }
    }

    #[test]
    fn disjoint_paths_exist_in_both() {
        let ex = build();
        for comp in [ex.green(), ex.red()] {
            let tree = ex.tree_of(&comp);
            let paths = ex.paths_of(&comp, &tree);
            assert!(!paths.is_empty(), "Lemma 3");
            paths.check_invariants(&tree);
        }
    }

    #[test]
    fn one_round_of_sliding_gains_a_node_per_component() {
        use crate::DispersionDynamic;
        use dispersion_engine::adversary::StaticNetwork;
        use dispersion_engine::{ModelSpec, Simulator};
        let ex = build();
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            StaticNetwork::new(ex.graph.clone()),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            ex.config.clone(),
        )
        .max_rounds(1)
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        // Both components had a multiplicity; each occupied ≥ 1 new node.
        assert_eq!(out.trace.records.len(), 1);
        assert!(out.trace.records[0].newly_occupied >= 2);
        assert_eq!(out.trace.records[0].occupied_before, 12);
        assert!(out.trace.records[0].occupied_after >= 13);
    }

    #[test]
    fn full_dispersion_from_fixture() {
        use crate::DispersionDynamic;
        use dispersion_engine::adversary::StaticNetwork;
        use dispersion_engine::{ModelSpec, Simulator};
        let ex = build();
        let out = Simulator::builder(
            DispersionDynamic::new(),
            StaticNetwork::new(ex.graph.clone()),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            ex.config,
        )
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert!(out.dispersed);
        assert!(out.rounds <= 14);
    }
}
