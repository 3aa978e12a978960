//! The Theorem 3 lower-bound adversary: the star-pair dynamic tree of
//! Fig. 2.
//!
//! Each round the adversary partitions the nodes into `A_r` (occupied) and
//! `B_r` (empty), builds a star `T_{A_r}` over the occupied nodes and a
//! star `T_{B_r}` over the empty ones, and joins the two centres by an
//! edge. The only empty node adjacent to any occupied node is the centre
//! of `T_{B_r}`, so *any* algorithm — deterministic or randomized, with
//! unlimited memory — occupies at most one new node per round; dispersing
//! `k` robots from a rooted configuration therefore takes at least `k − 1`
//! rounds, while the dynamic diameter stays at 3.

use dispersion_graph::{GraphBuilder, NodeId, PortLabeledGraph};

use crate::adversary::DynamicNetwork;
use crate::{Configuration, MoveOracle};

/// The star-pair adversary (Theorem 3, Fig. 2).
#[derive(Clone, Debug)]
pub struct StarPairAdversary {
    n: usize,
    /// The graph of the last round, lent out to the simulator.
    current: Option<PortLabeledGraph>,
}

impl StarPairAdversary {
    /// Adversary over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one node");
        StarPairAdversary { n, current: None }
    }

    /// Builds the round graph for a given occupied-node set (exposed for
    /// the Fig. 2 experiment, which inspects the construction directly).
    ///
    /// # Panics
    ///
    /// Panics if the indicator length differs from `n`.
    pub fn build(&self, occupied: &[bool]) -> PortLabeledGraph {
        assert_eq!(occupied.len(), self.n, "indicator length mismatch");
        let a_nodes: Vec<NodeId> = (0..self.n)
            .filter(|&i| occupied[i])
            .map(|i| NodeId::new(i as u32))
            .collect();
        let b_nodes: Vec<NodeId> = (0..self.n)
            .filter(|&i| !occupied[i])
            .map(|i| NodeId::new(i as u32))
            .collect();
        let mut b = GraphBuilder::new(self.n);
        match (a_nodes.split_first(), b_nodes.split_first()) {
            (Some((&ca, a_leaves)), Some((&cb, b_leaves))) => {
                for &leaf in a_leaves {
                    b.add_edge(ca, leaf).expect("distinct nodes");
                }
                for &leaf in b_leaves {
                    b.add_edge(cb, leaf).expect("distinct nodes");
                }
                b.add_edge(ca, cb).expect("centres are distinct");
            }
            (Some((&c, leaves)), None) | (None, Some((&c, leaves))) => {
                // Everything occupied (or nothing): a single star keeps the
                // graph connected.
                for &leaf in leaves {
                    b.add_edge(c, leaf).expect("distinct nodes");
                }
            }
            (None, None) => unreachable!("n > 0"),
        }
        b.build().expect("star pair is well formed")
    }
}

impl DynamicNetwork for StarPairAdversary {
    fn node_count(&self) -> usize {
        self.n
    }

    fn graph_for_round(
        &mut self,
        _round: u64,
        config: &Configuration,
        _oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        let g = self.build(&config.occupied_indicator());
        self.current.insert(g)
    }

    fn name(&self) -> &str {
        "star-pair (thm 3)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests_support::NullOracle;
    use dispersion_graph::connectivity::is_connected;
    use dispersion_graph::metrics::diameter;

    #[test]
    fn construction_matches_fig2() {
        let adv = StarPairAdversary::new(10);
        // Nodes 0,3,4 occupied.
        let mut occ = vec![false; 10];
        occ[0] = true;
        occ[3] = true;
        occ[4] = true;
        let g = adv.build(&occ);
        g.validate().unwrap();
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(3));
        // Centre of T_A is node 0, centre of T_B is node 1.
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(0), NodeId::new(3)));
        assert!(g.has_edge(NodeId::new(0), NodeId::new(4)));
        // The only empty node adjacent to an occupied node is the B-centre.
        for e in g.edges() {
            let (u_occ, v_occ) = (occ[e.u.index()], occ[e.v.index()]);
            if u_occ != v_occ {
                let empty_end = if u_occ { e.v } else { e.u };
                assert_eq!(empty_end, NodeId::new(1));
            }
        }
    }

    #[test]
    fn all_occupied_degenerates_to_single_star() {
        let adv = StarPairAdversary::new(4);
        let g = adv.build(&[true, true, true, true]);
        assert!(is_connected(&g));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(diameter(&g), Some(2));
    }

    #[test]
    fn single_occupied_node() {
        let adv = StarPairAdversary::new(5);
        let g = adv.build(&[false, false, true, false, false]);
        assert!(is_connected(&g));
        // A-star is the single node 2; B-star centred at 0.
        assert!(g.has_edge(NodeId::new(2), NodeId::new(0)));
        assert_eq!(g.degree(NodeId::new(2)), 1);
    }

    #[test]
    fn diameter_is_at_most_three_for_any_occupancy() {
        let adv = StarPairAdversary::new(12);
        for mask in [
            0b1010_1010_1010usize,
            0b1,
            0b111111_000000,
            0b1000_0000_0001,
        ] {
            let occ: Vec<bool> = (0..12).map(|i| mask >> i & 1 == 1).collect();
            if occ.iter().all(|&o| !o) {
                continue;
            }
            let g = adv.build(&occ);
            assert!(diameter(&g).unwrap() <= 3);
        }
    }

    #[test]
    fn network_trait_uses_configuration() {
        let mut adv = StarPairAdversary::new(6);
        let cfg = Configuration::rooted(6, 4, NodeId::new(2));
        let oracle = NullOracle { config: &cfg };
        let g = adv.graph_for_round(0, &cfg, &oracle);
        assert_eq!(g.node_count(), 6);
        // Occupied star is the single node 2; B-centre is node 0.
        assert!(g.has_edge(NodeId::new(2), NodeId::new(0)));
        assert_eq!(adv.name(), "star-pair (thm 3)");
    }
}
