//! Dynamic rings — the setting of the only prior work on dispersion in
//! dynamic graphs (Agarwalla et al., ICDCN 2018, dynamic rings).
//!
//! Each round the network presents the `n`-cycle with a seeded rotation
//! of node positions and fresh port labels; optionally one ring edge is
//! deleted per round (the classic "dynamic ring with one missing edge",
//! still connected as a path — the strongest 1-interval-connected ring
//! adversary). Port labels never correlate across rounds, as the model
//! allows.

use dispersion_graph::relabel::{self, RelabelScratch};
use dispersion_graph::{GraphBuilder, NodeId, PortLabeledGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::adversary::DynamicNetwork;
use crate::{Configuration, MoveOracle};

/// A dynamic ring: the cycle over `n` nodes, re-embedded and re-labeled
/// each round, optionally with one edge missing.
///
/// The per-round rebuild is double-buffered (embedding buffer, edge
/// builder, unlabeled ring, committed graph), so once warm the adversary
/// performs no heap allocation per round — the ring's edge count is
/// constant, so every buffer reaches its steady size on the first round.
#[derive(Clone, Debug)]
pub struct DynamicRingNetwork {
    n: usize,
    drop_one_edge: bool,
    seed: u64,
    /// Circular-embedding permutation buffer.
    order: Vec<u32>,
    /// Retained edge-insertion builder.
    builder: GraphBuilder,
    /// Relabeling scratch (flat per-row permutations).
    relabel_scratch: RelabelScratch,
    /// The canonically labeled ring of the current round.
    staging: Option<PortLabeledGraph>,
    /// The graph of the last round, lent out to the simulator.
    current: Option<PortLabeledGraph>,
}

impl DynamicRingNetwork {
    /// Dynamic ring over `n ≥ 3` nodes. With `drop_one_edge`, each round
    /// one (seeded) ring edge is absent, leaving a Hamiltonian path.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn new(n: usize, drop_one_edge: bool, seed: u64) -> Self {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        DynamicRingNetwork {
            n,
            drop_one_edge,
            seed,
            order: Vec::new(),
            builder: GraphBuilder::new(0),
            relabel_scratch: RelabelScratch::default(),
            staging: None,
            current: None,
        }
    }
}

impl DynamicNetwork for DynamicRingNetwork {
    fn node_count(&self) -> usize {
        self.n
    }

    fn graph_for_round(
        &mut self,
        round: u64,
        _config: &Configuration,
        _oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(round.wrapping_mul(0x94d0_49bb_1331_11eb)),
        );
        // Random circular embedding of the fixed node set.
        let order = &mut self.order;
        order.clear();
        order.extend(0..self.n as u32);
        order.shuffle(&mut rng);
        let dropped = self.drop_one_edge.then(|| rng.random_range(0..self.n));
        let b = &mut self.builder;
        b.reset(self.n);
        for i in 0..self.n {
            if Some(i) == dropped {
                continue;
            }
            let u = NodeId::new(order[i]);
            let v = NodeId::new(order[(i + 1) % self.n]);
            b.add_edge(u, v).expect("cycle edges are simple for n ≥ 3");
        }
        match &mut self.staging {
            Some(g) => b.build_into(g).expect("ring is well formed"),
            None => self.staging = Some(b.build().expect("ring is well formed")),
        }
        let staged = self.staging.as_ref().expect("staging just filled");
        let relabel_seed = rng.random();
        match &mut self.current {
            Some(out) => {
                relabel::random_relabel_into(staged, relabel_seed, &mut self.relabel_scratch, out)
            }
            None => self.current = Some(relabel::random_relabel(staged, relabel_seed)),
        }
        self.current.as_ref().expect("current just filled")
    }

    fn name(&self) -> &str {
        if self.drop_one_edge {
            "dynamic ring (one edge missing)"
        } else {
            "dynamic ring"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests_support::NullOracle;
    use dispersion_graph::connectivity::is_connected;

    #[test]
    fn full_ring_each_round() {
        let mut net = DynamicRingNetwork::new(9, false, 4);
        let cfg = Configuration::rooted(9, 3, NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        for r in 0..10 {
            let g = net.graph_for_round(r, &cfg, &oracle);
            g.validate().unwrap();
            assert!(is_connected(g));
            assert_eq!(g.edge_count(), 9);
            assert!(g.nodes().all(|v| g.degree(v) == 2), "round {r}: 2-regular");
        }
        assert_eq!(net.name(), "dynamic ring");
    }

    #[test]
    fn broken_ring_is_a_hamiltonian_path() {
        let mut net = DynamicRingNetwork::new(8, true, 1);
        let cfg = Configuration::rooted(8, 3, NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        for r in 0..10 {
            let g = net.graph_for_round(r, &cfg, &oracle);
            assert!(is_connected(g));
            assert_eq!(g.edge_count(), 7);
            let deg1 = g.nodes().filter(|&v| g.degree(v) == 1).count();
            assert_eq!(deg1, 2, "round {r}: exactly two path endpoints");
        }
        assert_eq!(net.name(), "dynamic ring (one edge missing)");
    }

    #[test]
    fn rounds_differ_and_are_seed_deterministic() {
        let cfg = Configuration::rooted(7, 2, NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        let mut a = DynamicRingNetwork::new(7, false, 5);
        let mut b = DynamicRingNetwork::new(7, false, 5);
        assert_eq!(
            a.graph_for_round(0, &cfg, &oracle),
            b.graph_for_round(0, &cfg, &oracle)
        );
        let g0 = a.graph_for_round(0, &cfg, &oracle).clone();
        assert_ne!(&g0, a.graph_for_round(1, &cfg, &oracle));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_rejected() {
        let _ = DynamicRingNetwork::new(2, false, 0);
    }
}
