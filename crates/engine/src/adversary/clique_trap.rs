//! The Theorem 2 adversary: defeats any deterministic algorithm that has
//! global communication but lacks 1-neighborhood knowledge.
//!
//! Proof recipe (Section III): form a clique over the occupied nodes and a
//! connected graph `H` over the empty nodes; because the algorithm is
//! deterministic and blind to neighbors, the adversary knows which port
//! each robot will take; it finds a clique edge `(u, v)` no robot
//! traverses, removes it, and splices in `(u, x)` and `(v, y)` toward `H`.
//! The robots at `u` and `v` cannot distinguish the new edges from clique
//! edges, so no robot enters `H` and no new node is visited.
//!
//! Key implementation insight: without 1-neighborhood knowledge a robot's
//! view — own degree, co-located robots, packets (sender IDs and counts
//! only) — is *identical* for every candidate in the family, so its chosen
//! exit **port number** is fixed. The adversary therefore queries the
//! [`MoveOracle`] once, reads off which port numbers are used at each
//! node, and routes the `H`-bound edges through unused port positions.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use dispersion_graph::{NodeId, PortLabeledGraph};

use crate::adversary::portcraft::build_with_orders;
use crate::adversary::DynamicNetwork;
use crate::{Action, Configuration, MoveOracle};

/// The clique-rewiring adversary of Theorem 2.
#[derive(Clone, Debug)]
pub struct CliqueTrapAdversary {
    n: usize,
    /// Rounds where no zero-progress graph existed in the family (the
    /// theorem predicts zero at the trap configuration; nonzero values
    /// mean the run started elsewhere).
    trap_misses: u64,
    /// The graph of the last round, lent out to the simulator.
    current: Option<PortLabeledGraph>,
}

impl CliqueTrapAdversary {
    /// Adversary over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one node");
        CliqueTrapAdversary {
            n,
            trap_misses: 0,
            current: None,
        }
    }

    /// Number of rounds in which the adversary could not fully prevent
    /// progress (expected 0 when started from the proof's configuration).
    pub fn trap_misses(&self) -> u64 {
        self.trap_misses
    }

    /// Ports (as 1-based numbers) that robots standing on `node` would use,
    /// according to `moves`.
    fn used_ports(moves: &[crate::ResolvedMove], node: NodeId) -> BTreeSet<u32> {
        moves
            .iter()
            .filter(|m| m.from == node)
            .filter_map(|m| match m.action {
                Action::Move(p) => Some(p.get()),
                Action::Stay => None,
            })
            .collect()
    }

    /// Edge list of the clique over `occ` minus the pair `skip` (if any).
    fn clique_edges(occ: &[NodeId], skip: Option<(NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for (i, &a) in occ.iter().enumerate() {
            for &b in &occ[i + 1..] {
                if skip == Some((a, b)) || skip == Some((b, a)) {
                    continue;
                }
                edges.push((a, b));
            }
        }
        edges
    }

    /// Path edges over the empty nodes.
    fn h_edges(empty: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        empty.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// Neighbor order for `node` placing `special` at 1-based port
    /// `position` and the rest (ascending) around it.
    fn order_with_special_at(
        all_neighbors: &mut Vec<NodeId>,
        special: NodeId,
        position: u32,
    ) -> Vec<NodeId> {
        all_neighbors.retain(|&x| x != special);
        all_neighbors.sort();
        let mut order = all_neighbors.clone();
        let idx = (position as usize - 1).min(order.len());
        order.insert(idx, special);
        order
    }

    /// Family A: clique minus `(u, v)`, plus `(u, x)` and `(v, y)` where
    /// `x`/`y` are the two ends of the empty path. Returns a zero-progress
    /// graph if one exists.
    fn try_remove_edge(
        &self,
        occ: &[NodeId],
        empty: &[NodeId],
        oracle: &dyn MoveOracle,
    ) -> Option<PortLabeledGraph> {
        if occ.len() < 2 || empty.is_empty() {
            return None;
        }
        let x = empty[0];
        let y = *empty.last().expect("nonempty");
        for (i, &u) in occ.iter().enumerate() {
            for &v in &occ[i + 1..] {
                let mut edges = Self::clique_edges(occ, Some((u, v)));
                edges.push((u, x));
                edges.push((v, y));
                edges.extend(Self::h_edges(empty));
                // Probe with default (ascending) port orders: the blind
                // views are placement-independent, so the used port numbers
                // transfer to any placement.
                let probe = build_with_orders(self.n, &edges, &BTreeMap::new());
                let moves = oracle.moves_on(&probe);
                let deg_u = (occ.len() - 2 + 1) as u32; // clique minus (u,v) plus (u,x)
                let used_u = Self::used_ports(&moves, u);
                let used_v = Self::used_ports(&moves, v);
                let free_u = (1..=deg_u).find(|p| !used_u.contains(p));
                let free_v = (1..=deg_u).find(|p| !used_v.contains(p));
                if let (Some(pu), Some(pv)) = (free_u, free_v) {
                    let mut orders = BTreeMap::new();
                    let mut nu: Vec<NodeId> =
                        occ.iter().copied().filter(|&w| w != u && w != v).collect();
                    nu.push(x);
                    orders.insert(u, Self::order_with_special_at(&mut nu, x, pu));
                    let mut nv: Vec<NodeId> =
                        occ.iter().copied().filter(|&w| w != u && w != v).collect();
                    nv.push(y);
                    orders.insert(v, Self::order_with_special_at(&mut nv, y, pv));
                    let g = build_with_orders(self.n, &edges, &orders);
                    if oracle.progress_on(&g) == 0 {
                        return Some(g);
                    }
                }
            }
        }
        None
    }

    /// Family B: full clique plus a single attachment edge `(w, x)` routed
    /// through a port position no robot at `w` uses.
    fn try_attach(
        &self,
        occ: &[NodeId],
        empty: &[NodeId],
        oracle: &dyn MoveOracle,
    ) -> Option<PortLabeledGraph> {
        if empty.is_empty() {
            return None;
        }
        let x = empty[0];
        for &w in occ {
            let mut edges = Self::clique_edges(occ, None);
            edges.push((w, x));
            edges.extend(Self::h_edges(empty));
            let probe = build_with_orders(self.n, &edges, &BTreeMap::new());
            let moves = oracle.moves_on(&probe);
            let deg_w = occ.len() as u32; // clique (α−1) plus the attachment
            let used_w = Self::used_ports(&moves, w);
            if let Some(pw) = (1..=deg_w).find(|p| !used_w.contains(p)) {
                let mut orders = BTreeMap::new();
                let mut nw: Vec<NodeId> = occ.iter().copied().filter(|&z| z != w).collect();
                nw.push(x);
                orders.insert(w, Self::order_with_special_at(&mut nw, x, pw));
                let g = build_with_orders(self.n, &edges, &orders);
                if oracle.progress_on(&g) == 0 {
                    return Some(g);
                }
            }
        }
        None
    }

    /// Fallback when no zero-progress graph exists (only reachable far from
    /// the proof's configuration): the minimum-progress attach candidate.
    fn best_effort(&self, occ: &[NodeId], empty: &[NodeId]) -> PortLabeledGraph {
        let mut edges = Self::clique_edges(occ, None);
        if let Some(&x) = empty.first() {
            edges.push((occ[0], x));
            edges.extend(Self::h_edges(empty));
        }
        build_with_orders(self.n, &edges, &BTreeMap::new())
    }
}

impl DynamicNetwork for CliqueTrapAdversary {
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
        let occ_set: BTreeSet<NodeId> = occ.iter().copied().collect();
        let empty: Vec<NodeId> = (0..self.n as u32)
            .map(NodeId::new)
            .filter(|v| !occ_set.contains(v))
            .collect();
        let g = self
            .try_remove_edge(&occ, &empty, oracle)
            .or_else(|| self.try_attach(&occ, &empty, oracle))
            .unwrap_or_else(|| {
                self.trap_misses += 1;
                self.best_effort(&occ, &empty)
            });
        self.current.insert(g)
    }

    fn name(&self) -> &str {
        "clique-trap (thm 2)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests_support::NullOracle;
    use crate::RobotId;
    use dispersion_graph::connectivity::is_connected;

    fn near_dispersed(n: usize, k: usize) -> Configuration {
        // k robots on k−1 nodes: robots 1 and 2 share node 0.
        Configuration::from_pairs(
            n,
            (1..=k as u32).map(|i| (RobotId::new(i), NodeId::new(i.saturating_sub(2)))),
        )
    }

    #[test]
    fn produces_connected_valid_graph_against_stayers() {
        let mut adv = CliqueTrapAdversary::new(10);
        let cfg = near_dispersed(10, 6);
        let oracle = NullOracle { config: &cfg };
        let g = adv.graph_for_round(0, &cfg, &oracle);
        g.validate().unwrap();
        assert!(is_connected(g));
        assert_eq!(g.node_count(), 10);
        // Against all-stay robots any edge is unused: zero misses.
        assert_eq!(adv.trap_misses(), 0);
        assert_eq!(adv.name(), "clique-trap (thm 2)");
    }

    #[test]
    fn small_k_three_handled() {
        let mut adv = CliqueTrapAdversary::new(6);
        let cfg = near_dispersed(6, 3);
        let oracle = NullOracle { config: &cfg };
        let g = adv.graph_for_round(0, &cfg, &oracle);
        g.validate().unwrap();
        assert!(is_connected(g));
        assert_eq!(adv.trap_misses(), 0);
    }

    #[test]
    fn used_ports_reads_moves() {
        use dispersion_graph::Port;
        let moves = vec![
            crate::ResolvedMove {
                robot: RobotId::new(1),
                from: NodeId::new(0),
                action: Action::Move(Port::new(2)),
                to: NodeId::new(1),
            },
            crate::ResolvedMove {
                robot: RobotId::new(2),
                from: NodeId::new(0),
                action: Action::Stay,
                to: NodeId::new(0),
            },
            crate::ResolvedMove {
                robot: RobotId::new(3),
                from: NodeId::new(1),
                action: Action::Move(Port::new(1)),
                to: NodeId::new(0),
            },
        ];
        let used = CliqueTrapAdversary::used_ports(&moves, NodeId::new(0));
        assert_eq!(used.into_iter().collect::<Vec<_>>(), vec![2]);
    }
}
