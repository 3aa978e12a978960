//! The full per-round structure pipeline, as one reusable computation.
//!
//! Algorithm 4 recomputes, every round and inside every robot, the same
//! three structures: connected components (Algorithm 1), their spanning
//! trees (Algorithm 2) and their disjoint path sets (Algorithm 3).
//! [`RoundComputation`] bundles the pipeline for callers who want to
//! inspect or visualize a round the way the paper's Figs. 3–4 do. The
//! property tests (`tests/properties.rs`) and the sliding edge-case tests
//! (`tests/sliding_safety.rs`) use it to read a round's components, trees
//! and paths; the simulator runs Algorithm 4 through its round plan
//! instead.

use dispersion_engine::{build_packets, Configuration, InfoPacket, RobotId};
use dispersion_graph::PortLabeledGraph;

use crate::component::ConnectedComponent;
use crate::paths::DisjointPathSet;
use crate::spanning_tree::SpanningTree;

/// Everything the robots of one component agree on in one round.
#[derive(Clone, Debug)]
pub struct ComponentStructures {
    /// The component (Algorithm 1).
    pub component: ConnectedComponent,
    /// Its spanning tree (Algorithm 2) — `None` when the component is
    /// already dispersed (no multiplicity node).
    pub tree: Option<SpanningTree>,
    /// Its disjoint path set (Algorithm 3) — `None` without a tree.
    pub paths: Option<DisjointPathSet>,
}

impl ComponentStructures {
    fn build(component: ConnectedComponent) -> Self {
        let tree = SpanningTree::build(&component);
        let paths = tree.as_ref().map(|t| DisjointPathSet::build(&component, t));
        ComponentStructures {
            component,
            tree,
            paths,
        }
    }

    /// Whether this component still has work to do.
    pub fn has_multiplicity(&self) -> bool {
        self.tree.is_some()
    }
}

/// One round's agreed structures across all components.
///
/// ```
/// use dispersion_core::RoundComputation;
/// use dispersion_engine::Configuration;
/// use dispersion_graph::{generators, NodeId};
///
/// # fn main() -> Result<(), dispersion_graph::GraphError> {
/// let g = generators::cycle(6)?;
/// let cfg = Configuration::rooted(6, 4, NodeId::new(0));
/// let round = RoundComputation::compute(&g, &cfg);
/// assert_eq!(round.components().len(), 1);
/// assert!(!round.is_dispersed());
/// assert_eq!(round.guaranteed_progress(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RoundComputation {
    packets: Vec<InfoPacket>,
    components: Vec<ComponentStructures>,
}

impl RoundComputation {
    /// Runs the Algorithm 1→2→3 pipeline for a graph and configuration
    /// (simulator-side convenience; robots do the same from their own
    /// packet sets).
    pub fn compute(g: &PortLabeledGraph, config: &Configuration) -> Self {
        let packets = build_packets(g, config, true);
        Self::from_packets(packets)
    }

    /// Runs the pipeline from an existing packet set.
    pub fn from_packets(packets: Vec<InfoPacket>) -> Self {
        let components = ConnectedComponent::build_all(&packets)
            .into_iter()
            .map(ComponentStructures::build)
            .collect();
        RoundComputation {
            packets,
            components,
        }
    }

    /// The round's information packets.
    pub fn packets(&self) -> &[InfoPacket] {
        &self.packets
    }

    /// Per-component structures, ascending by component identity.
    pub fn components(&self) -> &[ComponentStructures] {
        &self.components
    }

    /// The structures of the component containing the node identified by
    /// `id` (a robot standing on it).
    pub fn component_of(&self, id: RobotId) -> Option<&ComponentStructures> {
        self.components.iter().find(|c| {
            c.component
                .iter()
                .any(|n| n.id == id || n.robots.contains(&id))
        })
    }

    /// Whether the whole configuration is dispersed (no component builds
    /// a tree).
    pub fn is_dispersed(&self) -> bool {
        self.components.iter().all(|c| !c.has_multiplicity())
    }

    /// Lower bound on this round's progress: the number of components
    /// that will settle at least one new node (every component with a
    /// multiplicity does, by Lemmas 3 + 7).
    pub fn guaranteed_progress(&self) -> usize {
        self.components
            .iter()
            .filter(|c| c.has_multiplicity())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graph::{generators, NodeId};

    fn r(i: u32) -> RobotId {
        RobotId::new(i)
    }
    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sample() -> RoundComputation {
        // Path 0-1-2-3-4-5: component A = {0,1} with multiplicity,
        // component B = {3} dispersed; nodes 2, 4, 5 empty.
        let g = generators::path(6).unwrap();
        let cfg =
            Configuration::from_pairs(6, [(r(1), v(0)), (r(4), v(0)), (r(2), v(1)), (r(3), v(3))]);
        RoundComputation::compute(&g, &cfg)
    }

    #[test]
    fn pipeline_builds_all_components() {
        let rc = sample();
        assert_eq!(rc.components().len(), 2);
        assert_eq!(rc.packets().len(), 3);
        assert!(!rc.is_dispersed());
        assert_eq!(rc.guaranteed_progress(), 1);
    }

    #[test]
    fn component_of_resolves_members_and_ids() {
        let rc = sample();
        let a = rc.component_of(r(4)).expect("robot 4 is in component A");
        assert!(a.has_multiplicity());
        assert_eq!(a.tree.as_ref().unwrap().root(), r(1));
        assert_eq!(a.paths.as_ref().unwrap().len(), 1);
        let b = rc.component_of(r(3)).expect("robot 3 is in component B");
        assert!(!b.has_multiplicity());
        assert!(b.paths.is_none());
        assert!(rc.component_of(r(9)).is_none());
    }

    #[test]
    fn dispersed_round_reports_done() {
        let g = generators::path(4).unwrap();
        let cfg = Configuration::from_pairs(4, [(r(1), v(0)), (r(2), v(2))]);
        let rc = RoundComputation::compute(&g, &cfg);
        assert!(rc.is_dispersed());
        assert_eq!(rc.guaranteed_progress(), 0);
    }

    #[test]
    fn from_packets_matches_compute() {
        let g = generators::cycle(5).unwrap();
        let cfg = Configuration::rooted(5, 3, v(2));
        let direct = RoundComputation::compute(&g, &cfg);
        let packets = build_packets(&g, &cfg, true);
        let indirect = RoundComputation::from_packets(packets);
        assert_eq!(direct.components().len(), indirect.components().len());
        assert_eq!(
            direct.components()[0].component,
            indirect.components()[0].component
        );
    }
}
