//! Dynamic networks: from fixed graphs to worst-case adaptive adversaries.
//!
//! A [`DynamicNetwork`] produces the graph `G_r` of every round. Per the
//! model (Section II), it sees the complete robot state — the live
//! [`Configuration`] — and, because algorithms are deterministic pure
//! functions, it can *white-box* the robots through the [`MoveOracle`]:
//! "the adversary determines the dynamic graph `G_r` of round `r` with the
//! knowledge of the algorithm and the states until round `r−1`".
//!
//! Implementations:
//!
//! * [`StaticNetwork`] — the same graph every round (static-graph baseline
//!   setting);
//! * [`PeriodicNetwork`] — cycles through a fixed list of graphs;
//! * [`EdgeChurnNetwork`] — a fresh seeded random connected graph (with
//!   random port labels) every round: an *oblivious* dynamic adversary;
//! * [`StarPairAdversary`] — the Theorem 3 lower-bound tree (Fig. 2):
//!   limits any algorithm to one new node per round at dynamic diameter 3;
//! * [`CliqueTrapAdversary`] — the Theorem 2 construction: defeats any
//!   deterministic algorithm that lacks 1-neighborhood knowledge;
//! * [`PathTrapAdversary`] — the Theorem 1 construction (Fig. 1): defeats
//!   any deterministic algorithm restricted to local communication;
//! * [`TIntervalNetwork`] — T-interval connected dynamics (the Section
//!   VIII future-work model, implemented as an extension);
//! * [`DynamicRingNetwork`] — dynamic rings, the setting of the only
//!   prior dynamic-graph dispersion work (Agarwalla et al. \[1\]);
//! * [`MinProgressSampler`] — a generic oracle-guided adversary that
//!   samples candidate topologies and commits the one minimizing robot
//!   progress (a stress test for the Θ(k) bound).

mod churn;
mod clique_trap;
mod min_progress;
mod path_trap;
mod portcraft;
mod ring;
mod star_pair;
mod t_interval;

pub use churn::EdgeChurnNetwork;
pub use clique_trap::CliqueTrapAdversary;
pub use min_progress::MinProgressSampler;
pub use path_trap::PathTrapAdversary;
pub use ring::DynamicRingNetwork;
pub use star_pair::StarPairAdversary;
pub use t_interval::TIntervalNetwork;

use dispersion_graph::PortLabeledGraph;

use crate::{Configuration, MoveOracle};

/// Produces the per-round graphs of a dynamic network.
///
/// Contract: every returned graph must have exactly [`node_count`] nodes,
/// valid port labels, and be connected (1-interval connectivity). The
/// simulator re-validates by default and fails the run otherwise.
///
/// The graph is returned *by reference*: the network owns the storage and
/// the simulator borrows it for the round, so static and periodic
/// networks hand out the same allocation every round and generated
/// adversaries keep one cached slot. An unchanged graph also lets the
/// simulator skip re-validation.
///
/// [`node_count`]: DynamicNetwork::node_count
pub trait DynamicNetwork {
    /// The fixed number of nodes `n`.
    fn node_count(&self) -> usize;

    /// The graph of round `round`, chosen with full knowledge of the live
    /// `config` and white-box access to the algorithm via `oracle`. The
    /// reference stays valid until the next call.
    fn graph_for_round(
        &mut self,
        round: u64,
        config: &Configuration,
        oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph;

    /// Human-readable adversary name for traces and reports.
    fn name(&self) -> &str {
        "dynamic-network"
    }
}

impl<N: DynamicNetwork + ?Sized> DynamicNetwork for Box<N> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn graph_for_round(
        &mut self,
        round: u64,
        config: &Configuration,
        oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        (**self).graph_for_round(round, config, oracle)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The same graph in every round — the static special case of the dynamic
/// model, used for baseline comparisons.
#[derive(Clone, Debug)]
pub struct StaticNetwork {
    graph: PortLabeledGraph,
}

impl StaticNetwork {
    /// Wraps a fixed graph.
    pub fn new(graph: PortLabeledGraph) -> Self {
        StaticNetwork { graph }
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &PortLabeledGraph {
        &self.graph
    }
}

impl DynamicNetwork for StaticNetwork {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn graph_for_round(
        &mut self,
        _round: u64,
        _config: &Configuration,
        _oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        &self.graph
    }

    fn name(&self) -> &str {
        "static"
    }
}

/// Cycles deterministically through a fixed list of graphs:
/// `G_r = list[r mod len]`. All graphs must share one node count.
#[derive(Clone, Debug)]
pub struct PeriodicNetwork {
    graphs: Vec<PortLabeledGraph>,
}

impl PeriodicNetwork {
    /// Wraps a non-empty list of same-sized graphs.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or node counts differ.
    pub fn new(graphs: Vec<PortLabeledGraph>) -> Self {
        assert!(
            !graphs.is_empty(),
            "periodic network needs at least one graph"
        );
        let n = graphs[0].node_count();
        assert!(
            graphs.iter().all(|g| g.node_count() == n),
            "all graphs must share the node count"
        );
        PeriodicNetwork { graphs }
    }

    /// Period length.
    pub fn period(&self) -> usize {
        self.graphs.len()
    }
}

impl DynamicNetwork for PeriodicNetwork {
    fn node_count(&self) -> usize {
        self.graphs[0].node_count()
    }

    fn graph_for_round(
        &mut self,
        round: u64,
        _config: &Configuration,
        _oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        &self.graphs[(round as usize) % self.graphs.len()]
    }

    fn name(&self) -> &str {
        "periodic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests_support::NullOracle;
    use dispersion_graph::generators;

    #[test]
    fn static_network_repeats() {
        let g = generators::cycle(5).unwrap();
        let mut net = StaticNetwork::new(g.clone());
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.name(), "static");
        let cfg = Configuration::rooted(5, 2, dispersion_graph::NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        assert_eq!(*net.graph_for_round(0, &cfg, &oracle), g);
        assert_eq!(*net.graph_for_round(7, &cfg, &oracle), g);
        assert_eq!(net.graph(), &g);
    }

    #[test]
    fn periodic_network_cycles() {
        let a = generators::path(4).unwrap();
        let b = generators::star(4).unwrap();
        let mut net = PeriodicNetwork::new(vec![a.clone(), b.clone()]);
        assert_eq!(net.period(), 2);
        let cfg = Configuration::rooted(4, 2, dispersion_graph::NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        assert_eq!(*net.graph_for_round(0, &cfg, &oracle), a);
        assert_eq!(*net.graph_for_round(1, &cfg, &oracle), b);
        assert_eq!(*net.graph_for_round(2, &cfg, &oracle), a);
    }

    #[test]
    #[should_panic(expected = "at least one graph")]
    fn periodic_rejects_empty() {
        let _ = PeriodicNetwork::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "share the node count")]
    fn periodic_rejects_mismatched_sizes() {
        let _ = PeriodicNetwork::new(vec![
            generators::path(3).unwrap(),
            generators::path(4).unwrap(),
        ]);
    }
}
