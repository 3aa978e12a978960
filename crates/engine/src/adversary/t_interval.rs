//! T-interval connected dynamics — the first future-work direction of
//! Section VIII, implemented as an extension.
//!
//! A dynamic graph is *T-interval connected* when every window of `T`
//! consecutive rounds shares a connected spanning subgraph. This network
//! keeps a seeded random spanning tree stable for each window of `T`
//! rounds and churns extra edges every round; `T = 1` degenerates to plain
//! 1-interval connectivity with a fresh tree per round.

use dispersion_graph::{generators, GraphBuilder, NodeId, PortLabeledGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adversary::DynamicNetwork;
use crate::{Configuration, MoveOracle};

/// T-interval connected random dynamics.
#[derive(Clone, Debug)]
pub struct TIntervalNetwork {
    n: usize,
    t: u64,
    extra_edge_prob: f64,
    seed: u64,
    /// The graph of the last round, lent out to the simulator.
    current: Option<PortLabeledGraph>,
}

impl TIntervalNetwork {
    /// `n` nodes, stability window `t ≥ 1`, per-round extra-edge
    /// probability, RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `t == 0`, or the probability is outside `[0, 1]`.
    pub fn new(n: usize, t: u64, extra_edge_prob: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(t >= 1, "window must be at least 1");
        assert!(
            (0.0..=1.0).contains(&extra_edge_prob),
            "probability must be in [0, 1]"
        );
        TIntervalNetwork {
            n,
            t,
            extra_edge_prob,
            seed,
            current: None,
        }
    }

    /// The stability window length `T`.
    pub fn window(&self) -> u64 {
        self.t
    }

    /// The stable spanning tree of the window containing `round`.
    pub fn stable_tree(&self, round: u64) -> PortLabeledGraph {
        let window = round / self.t;
        generators::random_tree(
            self.n,
            self.seed.wrapping_add(window.wrapping_mul(0x517c_c1b7)),
        )
        .expect("n > 0")
    }

    fn graph_at(&self, round: u64) -> PortLabeledGraph {
        let tree = self.stable_tree(round);
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(round),
        );
        let mut b = GraphBuilder::new(self.n);
        for e in tree.edges() {
            b.add_edge(e.u, e.v).expect("tree edges are simple");
        }
        if self.extra_edge_prob > 0.0 {
            for u in 0..self.n {
                for v in (u + 1)..self.n {
                    let (u, v) = (NodeId::new(u as u32), NodeId::new(v as u32));
                    if !b.has_edge(u, v) && rng.random_bool(self.extra_edge_prob) {
                        b.add_edge(u, v).expect("checked for duplicates");
                    }
                }
            }
        }
        b.build().expect("tree plus extras is well formed")
    }
}

impl DynamicNetwork for TIntervalNetwork {
    fn node_count(&self) -> usize {
        self.n
    }

    fn graph_for_round(
        &mut self,
        round: u64,
        _config: &Configuration,
        _oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        let g = self.graph_at(round);
        self.current.insert(g)
    }

    fn name(&self) -> &str {
        "t-interval"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests_support::NullOracle;
    use dispersion_graph::connectivity::is_connected;

    #[test]
    fn stable_tree_constant_within_window() {
        let net = TIntervalNetwork::new(12, 4, 0.1, 5);
        let t0 = net.stable_tree(0);
        for r in 1..4 {
            assert_eq!(net.stable_tree(r), t0);
        }
        let t1 = net.stable_tree(4);
        assert_ne!(t0, t1, "windows should rotate the tree");
        assert_eq!(net.window(), 4);
    }

    #[test]
    fn every_round_contains_the_window_tree() {
        let mut net = TIntervalNetwork::new(10, 3, 0.2, 9);
        let cfg = Configuration::rooted(10, 2, NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        for r in 0..9 {
            let tree = net.stable_tree(r);
            let g = net.graph_for_round(r, &cfg, &oracle);
            g.validate().unwrap();
            assert!(is_connected(g));
            for e in tree.edges() {
                assert!(
                    g.has_edge(e.u, e.v),
                    "round {r} dropped stable edge {:?}-{:?}",
                    e.u,
                    e.v
                );
            }
        }
    }

    #[test]
    fn t_one_is_plain_churn() {
        let mut net = TIntervalNetwork::new(8, 1, 0.0, 2);
        let cfg = Configuration::rooted(8, 2, NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        let g0 = net.graph_for_round(0, &cfg, &oracle).clone();
        let g1 = net.graph_for_round(1, &cfg, &oracle);
        assert_ne!(&g0, g1);
        assert_eq!(net.name(), "t-interval");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = TIntervalNetwork::new(5, 0, 0.1, 0);
    }
}
