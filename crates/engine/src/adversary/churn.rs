//! Oblivious random churn: a fresh random connected topology every round.

use dispersion_graph::generators::{self, RandomGraphScratch};
use dispersion_graph::PortLabeledGraph;

use crate::adversary::DynamicNetwork;
use crate::{Configuration, MoveOracle};

/// An *oblivious* dynamic adversary: each round it draws a seeded random
/// connected graph (random spanning tree plus extra edges) and randomly
/// relabels every node's ports. It ignores robot positions — this is the
/// "benign dynamism" used in the Table I row 3 upper-bound sweeps, in
/// contrast to the adaptive trap adversaries.
///
/// The per-round rebuild writes the relabeled graph straight into a
/// retained buffer ([`generators::random_connected_relabeled_into`]), so
/// once warm the adversary performs no heap allocation per round (the
/// edge set's round-to-round variance can still grow a buffer's
/// capacity, but it plateaus at the maximum working-set size).
#[derive(Clone, Debug)]
pub struct EdgeChurnNetwork {
    n: usize,
    extra_edge_prob: f64,
    seed: u64,
    /// Buffers of the graph generator.
    scratch: RandomGraphScratch,
    /// The graph of the last round, lent out to the simulator.
    current: Option<PortLabeledGraph>,
}

impl EdgeChurnNetwork {
    /// Churn over `n` nodes; each non-tree pair appears with probability
    /// `extra_edge_prob` each round; everything derives from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the probability is outside `[0, 1]`.
    pub fn new(n: usize, extra_edge_prob: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(
            (0.0..=1.0).contains(&extra_edge_prob),
            "probability must be in [0, 1]"
        );
        EdgeChurnNetwork {
            n,
            extra_edge_prob,
            seed,
            scratch: RandomGraphScratch::default(),
            current: None,
        }
    }
}

impl DynamicNetwork for EdgeChurnNetwork {
    fn node_count(&self) -> usize {
        self.n
    }

    fn graph_for_round(
        &mut self,
        round: u64,
        _config: &Configuration,
        _oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        let round_seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(round);
        let relabel_seed = round_seed ^ 0xabcd_ef01;
        let (n, p) = (self.n, self.extra_edge_prob);
        match &mut self.current {
            Some(out) => generators::random_connected_relabeled_into(
                n,
                p,
                round_seed,
                relabel_seed,
                &mut self.scratch,
                out,
            )
            .expect("n > 0"),
            None => {
                self.current = Some(
                    generators::random_connected_relabeled(n, p, round_seed, relabel_seed)
                        .expect("n > 0"),
                )
            }
        }
        self.current.as_ref().expect("current just filled")
    }

    fn name(&self) -> &str {
        "edge-churn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests_support::NullOracle;
    use dispersion_graph::connectivity::is_connected;
    use dispersion_graph::NodeId;

    #[test]
    fn every_round_connected_and_valid() {
        let mut net = EdgeChurnNetwork::new(20, 0.1, 42);
        let cfg = Configuration::rooted(20, 3, NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        for r in 0..30 {
            let g = net.graph_for_round(r, &cfg, &oracle);
            assert_eq!(g.node_count(), 20);
            g.validate().unwrap();
            assert!(is_connected(g), "round {r} disconnected");
        }
    }

    #[test]
    fn deterministic_per_seed_and_round() {
        let mut a = EdgeChurnNetwork::new(12, 0.2, 7);
        let mut b = EdgeChurnNetwork::new(12, 0.2, 7);
        let cfg = Configuration::rooted(12, 2, NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        for r in 0..5 {
            assert_eq!(
                a.graph_for_round(r, &cfg, &oracle),
                b.graph_for_round(r, &cfg, &oracle)
            );
        }
    }

    #[test]
    fn rounds_actually_differ() {
        let mut net = EdgeChurnNetwork::new(15, 0.15, 3);
        let cfg = Configuration::rooted(15, 2, NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        let g0 = net.graph_for_round(0, &cfg, &oracle).clone();
        let g1 = net.graph_for_round(1, &cfg, &oracle);
        assert_ne!(&g0, g1, "churn should change the topology");
        assert_eq!(net.name(), "edge-churn");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = EdgeChurnNetwork::new(0, 0.1, 0);
    }
}
