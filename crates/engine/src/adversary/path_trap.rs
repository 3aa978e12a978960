//! The Theorem 1 adversary: defeats any deterministic algorithm restricted
//! to local communication, even with 1-neighborhood knowledge.
//!
//! Proof recipe (Section III, Fig. 1): arrange the occupied nodes in a
//! path with the multiplicity at one end and a connected sub-graph of the
//! empty nodes hanging off the other end. Dispersing in one round would
//! require every robot along the path to shift towards the empty region
//! simultaneously, but the interior nodes have *identical local views* and
//! no agreement on port numbering — the adversary relabels ports each
//! round so that the chain shift always breaks somewhere, then rebuilds the
//! trap from whatever configuration results.
//!
//! Implementation: the adversary enumerates the trap family — path
//! orderings of the occupied nodes times the `2^{α−1}` left/right port
//! labelings of the path — and uses the [`MoveOracle`] to commit the first
//! candidate whose end-of-round configuration still contains a
//! multiplicity node. For a deterministic local algorithm such a candidate
//! exists round after round (Theorem 1); the adversary counts the rounds
//! where the whole family failed in [`PathTrapAdversary::trap_misses`].

use std::collections::BTreeMap;

use dispersion_graph::{NodeId, PortLabeledGraph};

use crate::adversary::portcraft::build_with_orders;
use crate::adversary::DynamicNetwork;
use crate::{Configuration, MoveOracle, ResolvedMove};

/// The path-trap adversary of Theorem 1 (Fig. 1).
#[derive(Clone, Debug)]
pub struct PathTrapAdversary {
    n: usize,
    /// Cap on oracle probes per round (the family is exponential in `α`;
    /// the proof needs only a tiny corner of it).
    probe_budget: usize,
    trap_misses: u64,
    /// The graph of the last round, lent out to the simulator.
    current: Option<PortLabeledGraph>,
}

impl PathTrapAdversary {
    /// Adversary over `n` nodes with a default probe budget.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one node");
        PathTrapAdversary {
            n,
            probe_budget: 20_000,
            trap_misses: 0,
            current: None,
        }
    }

    /// Overrides the per-round probe budget.
    pub fn with_probe_budget(mut self, budget: usize) -> Self {
        self.probe_budget = budget.max(1);
        self
    }

    /// Rounds where no family member kept a multiplicity (expected 0 for
    /// deterministic local algorithms with `k ≥ 5`).
    pub fn trap_misses(&self) -> u64 {
        self.trap_misses
    }

    /// Whether applying `moves` leaves a multiplicity node (i.e. the round
    /// does **not** complete dispersion).
    fn keeps_multiplicity(moves: &[ResolvedMove]) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        moves.iter().any(|m| !seen.insert(m.to))
    }

    /// The trap graph for one ordering and one left/right labeling mask.
    ///
    /// `order` lists the occupied nodes from the multiplicity end to the
    /// empty-adjacent end; `empty` is the empty path hanging off the last
    /// node. Bit `i` of `mask` flips the neighbor order of `order[i]`.
    fn build_candidate(&self, order: &[NodeId], empty: &[NodeId], mask: u64) -> PortLabeledGraph {
        let mut edges: Vec<(NodeId, NodeId)> = order.windows(2).map(|w| (w[0], w[1])).collect();
        if let Some(&e0) = empty.first() {
            edges.push((*order.last().expect("occupied nonempty"), e0));
            edges.extend(empty.windows(2).map(|w| (w[0], w[1])));
        }
        let mut orders: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for (i, &v) in order.iter().enumerate() {
            let mut nbrs: Vec<NodeId> = Vec::new();
            if i > 0 {
                nbrs.push(order[i - 1]);
            }
            if i + 1 < order.len() {
                nbrs.push(order[i + 1]);
            } else if let Some(&e0) = empty.first() {
                nbrs.push(e0);
            }
            if mask >> i & 1 == 1 {
                nbrs.reverse();
            }
            orders.insert(v, nbrs);
        }
        build_with_orders(self.n, &edges, &orders)
    }

    /// Candidate occupied-node orderings: the canonical one (multiplicities
    /// first, so the heaviest node sits farthest from the empty region),
    /// its reverse, and each rotation of the canonical ordering.
    fn orderings(config: &Configuration) -> Vec<Vec<NodeId>> {
        let mut canonical: Vec<NodeId> = config.occupied_nodes();
        canonical.sort_by_key(|&v| (usize::MAX - config.count_at(v), v));
        let mut result = vec![canonical.clone()];
        let mut rev = canonical.clone();
        rev.reverse();
        result.push(rev);
        for shift in 1..canonical.len() {
            let mut rot = canonical.clone();
            rot.rotate_left(shift);
            result.push(rot);
        }
        result
    }
}

impl DynamicNetwork for PathTrapAdversary {
    fn node_count(&self) -> usize {
        self.n
    }

    fn graph_for_round(
        &mut self,
        _round: u64,
        config: &Configuration,
        oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        let occ = config.occupied_nodes();
        let occ_set: std::collections::BTreeSet<NodeId> = occ.iter().copied().collect();
        let empty: Vec<NodeId> = (0..self.n as u32)
            .map(NodeId::new)
            .filter(|v| !occ_set.contains(v))
            .collect();
        let mut probes = 0usize;
        let mut fallback: Option<PortLabeledGraph> = None;
        let mut committed: Option<PortLabeledGraph> = None;
        'search: for order in Self::orderings(config) {
            let alpha = order.len();
            let mask_bits = alpha.min(20) as u32;
            for mask in 0..(1u64 << mask_bits) {
                if probes >= self.probe_budget {
                    break;
                }
                probes += 1;
                let g = self.build_candidate(&order, &empty, mask);
                if fallback.is_none() {
                    fallback = Some(g.clone());
                }
                let moves = oracle.moves_on(&g);
                if Self::keeps_multiplicity(&moves) {
                    committed = Some(g);
                    break 'search;
                }
            }
        }
        let g = committed.unwrap_or_else(|| {
            self.trap_misses += 1;
            fallback.expect("at least one candidate was built")
        });
        self.current.insert(g)
    }

    fn name(&self) -> &str {
        "path-trap (thm 1)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests_support::NullOracle;
    use crate::RobotId;
    use dispersion_graph::connectivity::is_connected;

    fn fig1_config(n: usize, k: usize) -> Configuration {
        // k robots on k−1 nodes: robots 1, 2 share node 0; the rest one per
        // node — the Fig. 1 shape before the adversary orders the path.
        Configuration::from_pairs(
            n,
            (1..=k as u32).map(|i| (RobotId::new(i), NodeId::new(i.saturating_sub(2)))),
        )
    }

    #[test]
    fn trap_is_path_plus_empty_tail() {
        let mut adv = PathTrapAdversary::new(9);
        let cfg = fig1_config(9, 6);
        let oracle = NullOracle { config: &cfg };
        let g = adv.graph_for_round(0, &cfg, &oracle);
        g.validate().unwrap();
        assert!(is_connected(g));
        // Path over all 9 nodes: 8 edges, max degree 2.
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.max_degree(), 2);
        // Against stay-put robots the multiplicity persists: no miss.
        assert_eq!(adv.trap_misses(), 0);
        assert_eq!(adv.name(), "path-trap (thm 1)");
    }

    #[test]
    fn multiplicity_node_is_at_the_far_end() {
        let mut adv = PathTrapAdversary::new(8);
        let cfg = fig1_config(8, 5);
        let oracle = NullOracle { config: &cfg };
        let g = adv.graph_for_round(0, &cfg, &oracle);
        // Node 0 holds the multiplicity; it must be a path endpoint whose
        // single neighbor is occupied (the empty tail hangs off the other
        // end).
        assert_eq!(g.degree(NodeId::new(0)), 1);
        let (nbr, _) = g
            .neighbor_via(NodeId::new(0), dispersion_graph::Port::new(1))
            .unwrap();
        assert!(cfg.count_at(nbr) >= 1);
    }

    #[test]
    fn keeps_multiplicity_detects_collisions() {
        use crate::Action;
        let mk = |from: u32, to: u32, robot: u32| ResolvedMove {
            robot: RobotId::new(robot),
            from: NodeId::new(from),
            action: Action::Stay,
            to: NodeId::new(to),
        };
        assert!(PathTrapAdversary::keeps_multiplicity(&[
            mk(0, 1, 1),
            mk(0, 1, 2)
        ]));
        assert!(!PathTrapAdversary::keeps_multiplicity(&[
            mk(0, 0, 1),
            mk(1, 1, 2)
        ]));
    }

    #[test]
    fn single_occupied_node_handled() {
        let mut adv = PathTrapAdversary::new(5);
        let cfg = Configuration::rooted(5, 3, NodeId::new(2));
        let oracle = NullOracle { config: &cfg };
        let g = adv.graph_for_round(0, &cfg, &oracle);
        g.validate().unwrap();
        assert!(is_connected(g));
    }
}
