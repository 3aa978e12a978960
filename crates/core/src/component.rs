//! Algorithm 1: connected-component construction from information packets.
//!
//! Every robot rebuilds, each round, the connected component of the
//! *component graph* `CG_r` (Definition 2: the subgraph of `G_r` induced by
//! the occupied nodes) that contains its own node. Nodes are anonymous, so
//! a component node is identified by the smallest robot ID positioned on it
//! (Observation 1); edges carry the port numbers reported in the packets.
//!
//! Lemma 1 (tested in `tests/lemmas.rs`): any two robots in the same
//! component construct identical components, because they process the same
//! packets with the same deterministic rules.

use std::collections::{BTreeMap, BTreeSet};

use dispersion_engine::{InfoPacket, RobotId};
use dispersion_graph::Port;

/// One node of a connected component, identified by its smallest robot ID.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentNode {
    /// Node identity: the smallest robot ID positioned on it.
    pub id: RobotId,
    /// Multiplicity (`count` in the paper).
    pub count: usize,
    /// All robots on the node, ascending.
    pub robots: Vec<RobotId>,
    /// Degree `δ_r` of the underlying graph node.
    pub degree: usize,
    /// Occupied neighbors as `(port at this node, neighbor id)`, in port
    /// order.
    pub neighbors: Vec<(Port, RobotId)>,
}

impl ComponentNode {
    /// Whether the node has at least one empty (unoccupied) neighbor in
    /// `G_r` — the membership test for `LeafNodeSet` (Algorithm 3).
    pub fn has_empty_neighbor(&self) -> bool {
        self.degree > self.neighbors.len()
    }

    /// The port leading to occupied neighbor `to`, if adjacent.
    pub fn port_to(&self, to: RobotId) -> Option<Port> {
        self.neighbors
            .iter()
            .find(|&&(_, w)| w == to)
            .map(|&(p, _)| p)
    }
}

/// A connected component `CG_r^φ` of the occupied subgraph (Definition 3),
/// as reconstructed by a robot via Algorithm 1.
///
/// ```
/// use dispersion_core::ConnectedComponent;
/// use dispersion_engine::{build_packets, Configuration, RobotId};
/// use dispersion_graph::{generators, NodeId};
///
/// # fn main() -> Result<(), dispersion_graph::GraphError> {
/// // Robots {1, 3} share node 0 of a path; robot 2 sits next door.
/// let g = generators::path(4)?;
/// let cfg = Configuration::from_pairs(
///     4,
///     [
///         (RobotId::new(1), NodeId::new(0)),
///         (RobotId::new(3), NodeId::new(0)),
///         (RobotId::new(2), NodeId::new(1)),
///     ],
/// );
/// let packets = build_packets(&g, &cfg, true);
/// let comp = ConnectedComponent::build(&packets, RobotId::new(1));
/// assert_eq!(comp.len(), 2);
/// assert_eq!(comp.root(), Some(RobotId::new(1))); // the multiplicity node
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectedComponent {
    nodes: BTreeMap<RobotId, ComponentNode>,
}

impl ConnectedComponent {
    /// Runs **Algorithm 1**: builds the component containing the node
    /// whose identity (smallest robot ID) is `start`, from the full packet
    /// set of the round.
    ///
    /// Packets must carry 1-neighborhood knowledge (the algorithm requires
    /// it; Theorem 2 shows it cannot be dropped).
    ///
    /// # Panics
    ///
    /// Panics if `start` has no packet or packets lack neighborhood fields.
    pub fn build(packets: &[InfoPacket], start: RobotId) -> Self {
        let by_sender: BTreeMap<RobotId, &InfoPacket> =
            packets.iter().map(|p| (p.sender, p)).collect();
        let mut nodes: BTreeMap<RobotId, ComponentNode> = BTreeMap::new();
        // `ToBeProcessedNodeSet`, kept sorted: Algorithm 1 processes the
        // smallest-ID unprocessed node first.
        let mut to_process: BTreeSet<RobotId> = BTreeSet::new();
        let mut processed: BTreeSet<RobotId> = BTreeSet::new();
        to_process.insert(start);
        while let Some(&v) = to_process.iter().next() {
            to_process.remove(&v);
            processed.insert(v);
            let packet = by_sender
                .get(&v)
                .unwrap_or_else(|| panic!("no packet for component node {v}"));
            let neighbors: Vec<(Port, RobotId)> = packet
                .occupied_neighbors
                .as_ref()
                .expect("Algorithm 1 requires 1-neighborhood knowledge")
                .iter()
                .map(|r| (r.port, r.min_robot))
                .collect();
            for &(_, w) in &neighbors {
                if !processed.contains(&w) {
                    to_process.insert(w);
                }
            }
            nodes.insert(
                v,
                ComponentNode {
                    id: v,
                    count: packet.count,
                    robots: packet.robots.clone(),
                    degree: packet
                        .degree
                        .expect("Algorithm 1 requires 1-neighborhood knowledge"),
                    neighbors,
                },
            );
        }
        ConnectedComponent { nodes }
    }

    /// Builds every component of the round: one per packet-connected group,
    /// ascending by component identity (smallest node ID). Robots only ever
    /// build their own; this batch form serves tests and experiments.
    pub fn build_all(packets: &[InfoPacket]) -> Vec<ConnectedComponent> {
        let mut remaining: BTreeSet<RobotId> = packets.iter().map(|p| p.sender).collect();
        let mut out = Vec::new();
        while let Some(&seed) = remaining.iter().next() {
            let comp = ConnectedComponent::build(packets, seed);
            for id in comp.node_ids() {
                remaining.remove(&id);
            }
            out.push(comp);
        }
        out
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the component is empty (never true for built components).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` names a node of this component.
    pub fn contains(&self, id: RobotId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// The node named `id`.
    pub fn node(&self, id: RobotId) -> Option<&ComponentNode> {
        self.nodes.get(&id)
    }

    /// Node identities, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = RobotId> + '_ {
        self.nodes.keys().copied()
    }

    /// Nodes, ascending by identity.
    pub fn iter(&self) -> impl Iterator<Item = &ComponentNode> {
        self.nodes.values()
    }

    /// The component's identity: its smallest node ID.
    pub fn min_id(&self) -> RobotId {
        *self.nodes.keys().next().expect("components are nonempty")
    }

    /// Multiplicity nodes (count ≥ 2), ascending.
    pub fn multiplicity_nodes(&self) -> Vec<RobotId> {
        self.nodes
            .values()
            .filter(|n| n.count >= 2)
            .map(|n| n.id)
            .collect()
    }

    /// The spanning-tree root `v_r^φ(mult)`: the smallest-ID multiplicity
    /// node, or `None` if the component is already dispersed.
    pub fn root(&self) -> Option<RobotId> {
        self.multiplicity_nodes().into_iter().next()
    }

    /// Total robots in the component.
    pub fn robot_count(&self) -> usize {
        self.nodes.values().map(|n| n.count).sum()
    }

    /// Consistency checks: symmetric adjacency and identity = min robot.
    /// Used by property tests.
    pub fn check_invariants(&self) {
        for node in self.nodes.values() {
            assert_eq!(node.id, node.robots[0], "identity is the min robot");
            assert_eq!(node.count, node.robots.len());
            assert!(node.neighbors.len() <= node.degree);
            for &(_, w) in &node.neighbors {
                let back = self
                    .nodes
                    .get(&w)
                    .unwrap_or_else(|| panic!("dangling neighbor {w}"));
                assert!(
                    back.neighbors.iter().any(|&(_, x)| x == node.id),
                    "adjacency must be symmetric"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::{build_packets, Configuration};
    use dispersion_graph::{generators, NodeId};

    fn r(i: u32) -> RobotId {
        RobotId::new(i)
    }
    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Path 0-1-2-3-4-5 with robots {1,4} on node 0, {2} on 1, {3} on 3,
    /// {5} on 4: two components {0,1} and {3,4} (node 2 empty).
    fn two_component_setup() -> Vec<InfoPacket> {
        let g = generators::path(6).unwrap();
        let c = Configuration::from_pairs(
            6,
            [
                (r(1), v(0)),
                (r(4), v(0)),
                (r(2), v(1)),
                (r(3), v(3)),
                (r(5), v(4)),
            ],
        );
        build_packets(&g, &c, true)
    }

    #[test]
    fn builds_own_component_only() {
        let packets = two_component_setup();
        let comp = ConnectedComponent::build(&packets, r(1));
        assert_eq!(comp.len(), 2);
        assert!(comp.contains(r(1)));
        assert!(comp.contains(r(2)));
        assert!(!comp.contains(r(3)));
        assert_eq!(comp.min_id(), r(1));
        assert_eq!(comp.robot_count(), 3);
        comp.check_invariants();
    }

    #[test]
    fn same_component_from_any_member() {
        let packets = two_component_setup();
        let from_node0 = ConnectedComponent::build(&packets, r(1));
        let from_node1 = ConnectedComponent::build(&packets, r(2));
        assert_eq!(from_node0, from_node1);
    }

    #[test]
    fn build_all_finds_both() {
        let packets = two_component_setup();
        let comps = ConnectedComponent::build_all(&packets);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].min_id(), r(1));
        assert_eq!(comps[1].min_id(), r(3));
        assert_eq!(comps[1].len(), 2);
        for c in &comps {
            c.check_invariants();
        }
    }

    #[test]
    fn multiplicity_and_root() {
        let packets = two_component_setup();
        let comp0 = ConnectedComponent::build(&packets, r(1));
        assert_eq!(comp0.multiplicity_nodes(), vec![r(1)]);
        assert_eq!(comp0.root(), Some(r(1)));
        let comp1 = ConnectedComponent::build(&packets, r(3));
        assert!(comp1.multiplicity_nodes().is_empty());
        assert_eq!(comp1.root(), None);
    }

    #[test]
    fn empty_neighbor_detection() {
        let packets = two_component_setup();
        let comp = ConnectedComponent::build(&packets, r(1));
        // Node r1 (graph node 0) has only neighbor node 1, occupied: no
        // empty neighbor. Node r2 (graph node 1) borders empty node 2.
        assert!(!comp.node(r(1)).unwrap().has_empty_neighbor());
        assert!(comp.node(r(2)).unwrap().has_empty_neighbor());
    }

    #[test]
    fn ports_recorded() {
        let packets = two_component_setup();
        let comp = ConnectedComponent::build(&packets, r(1));
        let n1 = comp.node(r(1)).unwrap();
        let port = n1.port_to(r(2)).unwrap();
        assert_eq!(port, Port::new(1));
        assert_eq!(n1.port_to(r(3)), None);
    }

    #[test]
    fn single_node_component() {
        // Robot alone on an isolated-by-occupancy node.
        let g = generators::path(3).unwrap();
        let c = Configuration::from_pairs(3, [(r(1), v(0)), (r(2), v(2))]);
        let packets = build_packets(&g, &c, true);
        let comp = ConnectedComponent::build(&packets, r(1));
        assert_eq!(comp.len(), 1);
        assert!(comp.node(r(1)).unwrap().has_empty_neighbor());
    }

    #[test]
    fn whole_graph_single_component() {
        let g = generators::cycle(5).unwrap();
        let c = Configuration::from_pairs(5, (1..=5).map(|i| (r(i), v(i - 1))));
        let packets = build_packets(&g, &c, true);
        let comp = ConnectedComponent::build(&packets, r(3));
        assert_eq!(comp.len(), 5);
        // Every node has both neighbors occupied on a fully occupied cycle.
        assert!(comp.iter().all(|n| !n.has_empty_neighbor()));
    }

    #[test]
    #[should_panic(expected = "1-neighborhood knowledge")]
    fn blind_packets_rejected() {
        let g = generators::path(3).unwrap();
        let c = Configuration::from_pairs(3, [(r(1), v(0))]);
        let packets = build_packets(&g, &c, false);
        let _ = ConnectedComponent::build(&packets, r(1));
    }
}
