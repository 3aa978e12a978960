//! Incremental construction of [`PortLabeledGraph`]s with invariant checks.

use crate::{GraphError, NodeId, Port, PortLabeledGraph};

/// Builder for [`PortLabeledGraph`].
///
/// Two edge-insertion styles are supported:
///
/// * [`GraphBuilder::add_edge`] assigns the next free port at each endpoint
///   (ports end up labeled in insertion order), and
/// * [`GraphBuilder::add_edge_with_ports`] lets the caller — typically an
///   adversary — pick both port labels explicitly.
///
/// [`GraphBuilder::build`] verifies that every node's ports are exactly
/// `{1, …, δ(v)}` as the model requires.
///
/// # Example
///
/// ```
/// use dispersion_graph::{GraphBuilder, NodeId, Port};
///
/// # fn main() -> Result<(), dispersion_graph::GraphError> {
/// let mut b = GraphBuilder::new(2);
/// b.add_edge_with_ports(NodeId::new(0), NodeId::new(1), Port::new(1), Port::new(1))?;
/// let g = b.build()?;
/// assert_eq!(g.edge_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    /// Sparse port map per node: `ports[v]` holds `(port, neighbor,
    /// back_port)` triples — following `port` from `v` reaches `neighbor`,
    /// entering through its `back_port` — so the CSR fill places every
    /// half-edge without searching the neighbor's row.
    ports: Vec<Vec<(Port, NodeId, Port)>>,
    /// Stamp scratch lent to the final CSR validation pass so a warm
    /// [`GraphBuilder::build_into`] performs no allocation.
    seen: Vec<u32>,
}

impl GraphBuilder {
    /// Creates a builder for an `n`-node graph with no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            ports: vec![Vec::new(); n],
            seen: Vec::new(),
        }
    }

    /// Clears all edges and re-sizes to `n` nodes, keeping the per-node
    /// buffers so a rebuilding adversary allocates nothing once warm.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        for row in &mut self.ports {
            row.clear();
        }
        if self.ports.len() > n {
            self.ports.truncate(n);
        } else {
            self.ports.resize_with(n, Vec::new);
        }
    }

    /// Number of nodes the graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.ports.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Whether the undirected edge `(u, v)` has been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.n && self.ports[u.index()].iter().any(|&(_, w, _)| w == v)
    }

    fn check_pair(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        Ok(())
    }

    fn next_free_port(&self, v: NodeId) -> Port {
        let row = &self.ports[v.index()];
        // The ports of a row are distinct, so when none exceeds the row
        // length they are exactly `1..=len` — every row `add_edge` alone
        // filled — and the lowest free label is `len + 1`.
        if row.iter().all(|&(p, _, _)| p.index() < row.len()) {
            return Port::from_index(row.len());
        }
        // Explicit ports left a gap: quadratic in the degree, scanning
        // in place.
        let mut label = 1u32;
        while row.iter().any(|&(p, _, _)| p.get() == label) {
            label += 1;
        }
        Port::new(label)
    }

    /// Adds the undirected edge `(u, v)`, assigning the lowest free port
    /// label at each endpoint.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range nodes, self-loops, or duplicate
    /// edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        self.check_pair(u, v)?;
        let pu = self.next_free_port(u);
        let pv = self.next_free_port(v);
        self.ports[u.index()].push((pu, v, pv));
        self.ports[v.index()].push((pv, u, pu));
        Ok(self)
    }

    /// Adds the undirected edge `(u, v)` with explicit port labels `pu` at
    /// `u` and `pv` at `v`.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range nodes, self-loops, duplicate edges,
    /// or port labels already in use at either endpoint.
    pub fn add_edge_with_ports(
        &mut self,
        u: NodeId,
        v: NodeId,
        pu: Port,
        pv: Port,
    ) -> Result<&mut Self, GraphError> {
        self.check_pair(u, v)?;
        if self.ports[u.index()].iter().any(|&(p, _, _)| p == pu) {
            return Err(GraphError::DuplicatePort { node: u, port: pu });
        }
        if self.ports[v.index()].iter().any(|&(p, _, _)| p == pv) {
            return Err(GraphError::DuplicatePort { node: v, port: pv });
        }
        self.ports[u.index()].push((pu, v, pv));
        self.ports[v.index()].push((pv, u, pu));
        Ok(self)
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NonContiguousPorts`] if some node's port labels
    /// are not exactly `1..=δ(v)`, or [`GraphError::Empty`] for `n = 0`.
    pub fn build(&self) -> Result<PortLabeledGraph, GraphError> {
        let mut out = PortLabeledGraph::placeholder();
        let mut seen = Vec::new();
        self.fill_csr(&mut out, &mut seen)?;
        Ok(out)
    }

    /// Finalizes the graph *into* an existing one, overwriting its CSR
    /// storage in place in `O(n + m)`. Once the destination's buffers have
    /// grown to the working-set size this performs no allocation, which
    /// is what the per-round adversary rebuild path relies on.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::build`]. On error the
    /// destination's contents are unspecified and must not be used as a
    /// graph.
    pub fn build_into(&mut self, out: &mut PortLabeledGraph) -> Result<(), GraphError> {
        // Move the stamp scratch out so `fill_csr` can take `&self`.
        let mut seen = std::mem::take(&mut self.seen);
        let result = self.fill_csr(out, &mut seen);
        self.seen = seen;
        result
    }

    fn fill_csr(&self, out: &mut PortLabeledGraph, seen: &mut Vec<u32>) -> Result<(), GraphError> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        let (offsets, adj, m) = out.csr_parts_mut();
        offsets.clear();
        offsets.push(0);
        let mut total = 0u32;
        for row in &self.ports {
            total += row.len() as u32;
            offsets.push(total);
        }
        adj.clear();
        adj.resize(total as usize, (NodeId::new(0), Port::new(1)));
        // Place each directed half-edge at its port slot. The insertion
        // API guarantees the ports of a row are distinct, so `1..=δ(v)`
        // coverage reduces to a bounds check per half-edge and no slot is
        // written twice.
        for (vi, row) in self.ports.iter().enumerate() {
            let deg = row.len();
            let base = offsets[vi] as usize;
            for &(p, w, q) in row {
                if p.index() >= deg {
                    return Err(GraphError::NonContiguousPorts {
                        node: NodeId::new(vi as u32),
                        degree: deg,
                    });
                }
                adj[base + p.index()] = (w, q);
            }
        }
        *m = crate::graph::check_csr(offsets, adj, seen)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_ports_are_insertion_ordered() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(3)).unwrap();
        let g = b.build().unwrap();
        assert_eq!(
            g.neighbor_via(NodeId::new(0), Port::new(1)).unwrap().0,
            NodeId::new(1)
        );
        assert_eq!(
            g.neighbor_via(NodeId::new(0), Port::new(3)).unwrap().0,
            NodeId::new(3)
        );
    }

    #[test]
    fn explicit_ports_respected() {
        let mut b = GraphBuilder::new(3);
        // Node 1 sees node 2 through port 1 and node 0 through port 2.
        b.add_edge_with_ports(NodeId::new(1), NodeId::new(2), Port::new(1), Port::new(1))
            .unwrap();
        b.add_edge_with_ports(NodeId::new(1), NodeId::new(0), Port::new(2), Port::new(1))
            .unwrap();
        let g = b.build().unwrap();
        assert_eq!(
            g.neighbor_via(NodeId::new(1), Port::new(1)).unwrap().0,
            NodeId::new(2)
        );
        assert_eq!(
            g.neighbor_via(NodeId::new(1), Port::new(2)).unwrap().0,
            NodeId::new(0)
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        assert!(matches!(
            b.add_edge(NodeId::new(1), NodeId::new(0)),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(NodeId::new(1), NodeId::new(1)),
            Err(GraphError::SelfLoop { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(NodeId::new(0), NodeId::new(5)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_port_reuse() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_with_ports(NodeId::new(0), NodeId::new(1), Port::new(1), Port::new(1))
            .unwrap();
        assert!(matches!(
            b.add_edge_with_ports(NodeId::new(0), NodeId::new(2), Port::new(1), Port::new(1)),
            Err(GraphError::DuplicatePort { .. })
        ));
    }

    #[test]
    fn rejects_gap_in_ports() {
        let mut b = GraphBuilder::new(2);
        // Degree-1 node with port label 2 is invalid.
        b.add_edge_with_ports(NodeId::new(0), NodeId::new(1), Port::new(2), Port::new(1))
            .unwrap();
        assert!(matches!(
            b.build(),
            Err(GraphError::NonContiguousPorts { .. })
        ));
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn isolated_nodes_allowed_by_builder() {
        // Connectivity is checked elsewhere; the builder allows degree 0.
        let g = {
            let mut b = GraphBuilder::new(3);
            b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
            b.build().unwrap()
        };
        assert_eq!(g.degree(NodeId::new(2)), 0);
    }

    #[test]
    fn edge_count_tracks_insertions() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.edge_count(), 0);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        assert_eq!(b.edge_count(), 2);
        assert!(b.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!b.has_edge(NodeId::new(0), NodeId::new(2)));
    }
}
