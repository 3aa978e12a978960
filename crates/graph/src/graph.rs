//! The port-labeled anonymous graph type.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{GraphError, NodeId, Port};

/// Mints a content stamp for [`PortLabeledGraph`]: never returned twice
/// within the process. The counter publishes no other data, hence
/// `Relaxed`.
fn next_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A reference to one undirected edge, canonical form (`u < v`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// The smaller endpoint.
    pub u: NodeId,
    /// The larger endpoint.
    pub v: NodeId,
    /// The port at `u` leading to `v`.
    pub port_u: Port,
    /// The port at `v` leading to `u`.
    pub port_v: Port,
}

/// An anonymous, undirected, port-labeled graph `G_r = (V, E_r)` as defined
/// in Section II of the paper.
///
/// * Nodes are addressed by simulator-side [`NodeId`]s that algorithms never
///   observe.
/// * Each node `v` labels its incident edges with distinct ports
///   `1..=δ(v)`; the two ports of one edge are independent.
/// * No self-loops, no parallel edges.
///
/// The structure is immutable once built; dynamic graphs are sequences of
/// `PortLabeledGraph`s (see [`crate::dynamics::GraphSequence`]).
///
/// Internally the adjacency is stored in CSR form — one flat half-edge
/// array indexed by an offsets table — so neighbor iteration walks a
/// single contiguous allocation instead of chasing one heap pointer per
/// node. Rebuilders ([`crate::GraphBuilder::build_into`],
/// [`crate::relabel::random_relabel_into`]) overwrite these two vectors in
/// place, which is what makes per-round adversary graphs allocation-free
/// once warm.
///
/// Every graph also carries a *content stamp*: minted by every
/// constructor, minted afresh by every in-place rebuild, and copied by
/// `clone` and `clone_from`. Two graphs with the same stamp therefore have
/// the same contents, so `==` answers in `O(1)` when the stamps agree and
/// compares the CSR arrays only when they do not. The simulator compares
/// each round's graph against its last validated copy; on a static
/// network that is one integer compare per round.
pub struct PortLabeledGraph {
    /// CSR offsets: the half-edges of node `v` occupy
    /// `adj[offsets[v] as usize .. offsets[v + 1] as usize]`, in port
    /// order. Always `n + 1` entries.
    offsets: Vec<u32>,
    /// Flat half-edge array: slot `offsets[v] + (p − 1)` holds `(w, q)` —
    /// following port `p` from `v` reaches `w`, entering through `w`'s
    /// port `q`.
    adj: Vec<(NodeId, Port)>,
    /// Number of undirected edges.
    m: usize,
    /// Content stamp: equal stamps imply equal contents (see the type's
    /// docs). Not part of the graph's value.
    stamp: u64,
}

/// Equal stamps mean one graph was cloned from the other and neither
/// was rebuilt since; otherwise the contents decide.
impl PartialEq for PortLabeledGraph {
    fn eq(&self, other: &Self) -> bool {
        self.stamp == other.stamp
            || (self.m == other.m && self.offsets == other.offsets && self.adj == other.adj)
    }
}

impl Eq for PortLabeledGraph {}

/// `Clone` is implemented by hand so that `clone_from` reuses the
/// destination's buffers: the simulator's validated-graph cache clones the
/// adversary's graph every time the topology changes, and a derived
/// `clone_from` would reallocate both CSR vectors per round.
impl Clone for PortLabeledGraph {
    fn clone(&self) -> Self {
        PortLabeledGraph {
            offsets: self.offsets.clone(),
            adj: self.adj.clone(),
            m: self.m,
            stamp: self.stamp,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.offsets.clone_from(&source.offsets);
        self.adj.clone_from(&source.adj);
        self.m = source.m;
        self.stamp = source.stamp;
    }
}

/// Checks every model invariant over a CSR table and returns the
/// undirected edge count. `seen` is a stamped scratch buffer (resized and
/// cleared here) so a warm caller performs no allocation.
pub(crate) fn check_csr(
    offsets: &[u32],
    adj: &[(NodeId, Port)],
    seen: &mut Vec<u32>,
) -> Result<usize, GraphError> {
    let n = offsets.len().saturating_sub(1);
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut m = 0usize;
    // seen[w] == stamp of the node currently being scanned means `w`
    // already appeared in its row (a parallel edge).
    seen.clear();
    seen.resize(n, 0);
    for vi in 0..n {
        let v = NodeId::new(vi as u32);
        let stamp = vi as u32 + 1;
        let row = &adj[offsets[vi] as usize..offsets[vi + 1] as usize];
        for (pi, &(w, q)) in row.iter().enumerate() {
            if w.index() >= n {
                return Err(GraphError::NodeOutOfRange { node: w, n });
            }
            if w.index() == vi {
                return Err(GraphError::SelfLoop { node: v });
            }
            if seen[w.index()] == stamp {
                return Err(GraphError::DuplicateEdge { u: v, v: w });
            }
            seen[w.index()] = stamp;
            // Cross-reference: following q from w must come back to v
            // through p.
            let wrow = &adj[offsets[w.index()] as usize..offsets[w.index() + 1] as usize];
            match wrow.get(q.index()).copied() {
                Some((back_node, back_port)) if back_node == v && back_port.index() == pi => {}
                _ => {
                    return Err(GraphError::NonContiguousPorts {
                        node: w,
                        degree: wrow.len(),
                    })
                }
            }
            if vi < w.index() {
                m += 1;
            }
        }
    }
    Ok(m)
}

impl PortLabeledGraph {
    /// A structurally empty placeholder for in-place construction: crate
    /// rebuilders overwrite the CSR vectors of an existing graph, and this
    /// is the seed value the first build writes into. Never observable
    /// through the public API of a successfully built graph.
    pub(crate) fn placeholder() -> Self {
        PortLabeledGraph {
            offsets: vec![0],
            adj: Vec::new(),
            m: 0,
            stamp: next_stamp(),
        }
    }

    /// Crate-internal mutable access to the CSR storage for in-place
    /// rebuilds. Callers must leave the invariants intact (or surface an
    /// error and treat the graph as poisoned). Mints a fresh content
    /// stamp, so no copy taken before the rebuild compares equal by stamp.
    pub(crate) fn csr_parts_mut(
        &mut self,
    ) -> (&mut Vec<u32>, &mut Vec<(NodeId, Port)>, &mut usize) {
        self.stamp = next_stamp();
        (&mut self.offsets, &mut self.adj, &mut self.m)
    }

    /// Crate-internal read access to the CSR storage.
    pub(crate) fn csr_parts(&self) -> (&[u32], &[(NodeId, Port)]) {
        (&self.offsets, &self.adj)
    }

    /// Builds a graph directly from a per-node adjacency table where
    /// `adj[v][p-1]` is the endpoint reached through port `p` of `v`,
    /// together with the entry port used at that endpoint.
    ///
    /// # Errors
    ///
    /// Returns an error if the table is empty, refers to nodes out of range,
    /// contains self-loops or parallel edges, or if the reverse-port
    /// cross-references are inconsistent.
    pub fn from_adjacency(adj: Vec<Vec<(NodeId, Port)>>) -> Result<Self, GraphError> {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for row in &adj {
            total += row.len() as u32;
            offsets.push(total);
        }
        let flat: Vec<(NodeId, Port)> = adj.into_iter().flatten().collect();
        let mut seen = Vec::new();
        let m = check_csr(&offsets, &flat, &mut seen)?;
        Ok(PortLabeledGraph {
            offsets,
            adj: flat,
            m,
            stamp: next_stamp(),
        })
    }

    /// The half-edge row of `v`, in port order.
    #[inline]
    fn row(&self, v: NodeId) -> &[(NodeId, Port)] {
        &self.adj[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m_r`.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Degree `δ_r(v)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Follows port `p` out of node `v`: returns the neighbor reached and
    /// the entry port at that neighbor, or `None` if `p > δ(v)`.
    pub fn neighbor_via(&self, v: NodeId, p: Port) -> Option<(NodeId, Port)> {
        self.row(v).get(p.index()).copied()
    }

    /// Iterator over the neighbors of `v` as `(port at v, neighbor, port at
    /// neighbor)`, in increasing port order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId, Port)> + '_ {
        self.row(v)
            .iter()
            .enumerate()
            .map(|(i, &(w, q))| (Port::from_index(i), w, q))
    }

    /// The port at `u` leading to `v`, if the edge `(u, v)` exists.
    pub fn port_to(&self, u: NodeId, v: NodeId) -> Option<Port> {
        self.row(u)
            .iter()
            .position(|&(w, _)| w == v)
            .map(Port::from_index)
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.port_to(u, v).is_some()
    }

    /// Iterator over all undirected edges in canonical (`u < v`) form.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.nodes().flat_map(move |u| {
            self.row(u)
                .iter()
                .enumerate()
                .filter(move |(_, &(w, _))| u.index() < w.index())
                .map(move |(pi, &(w, q))| EdgeRef {
                    u,
                    v: w,
                    port_u: Port::from_index(pi),
                    port_v: q,
                })
        })
    }

    /// Maximum degree `Δ_r` of the graph.
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Checks every model invariant (port contiguity, reverse-port
    /// consistency, no loops/parallels). Intended for tests and for
    /// validating adversary-produced graphs.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut seen = Vec::new();
        self.validate_with(&mut seen)
    }

    /// [`Self::validate`] with a caller-provided stamp buffer, so a warm
    /// caller (the simulator validates every adversary graph each round)
    /// performs no allocation.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate_with(&self, seen: &mut Vec<u32>) -> Result<(), GraphError> {
        check_csr(&self.offsets, &self.adj, seen).map(|_| ())
    }
}

impl fmt::Debug for PortLabeledGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PortLabeledGraph(n={}, m={})",
            self.node_count(),
            self.edge_count()
        )?;
        if f.alternate() {
            for e in self.edges() {
                write!(f, "\n  {} --{}/{}-- {}", e.u, e.port_u, e.port_v, e.v)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> PortLabeledGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn ports_route_back() {
        let g = triangle();
        for v in g.nodes() {
            for (p, w, q) in g.neighbors(v) {
                let (back, back_port) = g.neighbor_via(w, q).unwrap();
                assert_eq!(back, v);
                assert_eq!(back_port, p);
            }
        }
    }

    #[test]
    fn neighbor_via_out_of_range_is_none() {
        let g = triangle();
        assert!(g.neighbor_via(NodeId::new(0), Port::new(3)).is_none());
    }

    #[test]
    fn edges_are_canonical() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert!(e.u < e.v);
            assert_eq!(g.port_to(e.u, e.v), Some(e.port_u));
            assert_eq!(g.port_to(e.v, e.u), Some(e.port_v));
        }
    }

    #[test]
    fn has_edge_and_port_to() {
        let g = triangle();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(g.port_to(NodeId::new(0), NodeId::new(0)).is_none());
    }

    #[test]
    fn validate_accepts_well_formed() {
        triangle().validate().unwrap();
    }

    #[test]
    fn validate_with_reuses_scratch() {
        let g = triangle();
        let mut seen = Vec::new();
        g.validate_with(&mut seen).unwrap();
        // A second pass over the same buffer must still be correct even
        // though the buffer holds stale stamps.
        g.validate_with(&mut seen).unwrap();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn clone_from_reuses_buffers_and_preserves_equality() {
        let g = triangle();
        let mut cache = crate::generators::cycle(8).unwrap();
        cache.clone_from(&g);
        assert_eq!(cache, g);
        assert_eq!(cache.node_count(), 3);
        assert_eq!(cache.edge_count(), 3);
    }

    #[test]
    fn stamps_short_cut_equality_and_rebuilds_restamp() {
        let g = triangle();
        let copy = g.clone();
        assert_eq!(copy.stamp, g.stamp);
        assert_eq!(copy, g);
        // Same contents built twice: different stamps, equal by content.
        let twin = triangle();
        assert_ne!(twin.stamp, g.stamp);
        assert_eq!(twin, g);
        // Mutating a clone in place re-stamps it; it then compares by
        // content, and differs.
        let mut mutated = g.clone();
        {
            let (_, adj, _) = mutated.csr_parts_mut();
            adj.swap(0, 1);
        }
        assert_ne!(mutated.stamp, g.stamp);
        assert_ne!(mutated, g);
        // An in-place rebuild that restores the contents is equal again,
        // by content.
        {
            let (_, adj, _) = mutated.csr_parts_mut();
            adj.swap(0, 1);
        }
        assert_eq!(mutated, g);
        let mut cache = crate::generators::cycle(5).unwrap();
        cache.clone_from(&mutated);
        assert_eq!(cache.stamp, mutated.stamp);
    }

    #[test]
    fn from_adjacency_rejects_empty() {
        assert_eq!(
            PortLabeledGraph::from_adjacency(vec![]).unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn from_adjacency_rejects_self_loop() {
        let adj = vec![vec![(NodeId::new(0), Port::new(1))]];
        assert!(matches!(
            PortLabeledGraph::from_adjacency(adj).unwrap_err(),
            GraphError::SelfLoop { .. }
        ));
    }

    #[test]
    fn from_adjacency_rejects_bad_backref() {
        // 0 -> 1 via port 1, but 1's port 1 points to a wrong port at 0.
        let adj = vec![
            vec![(NodeId::new(1), Port::new(1))],
            vec![(NodeId::new(0), Port::new(2))],
        ];
        assert!(PortLabeledGraph::from_adjacency(adj).is_err());
    }

    #[test]
    fn debug_nonempty() {
        let g = triangle();
        let s = format!("{g:?}");
        assert!(s.contains("n=3"));
        let alt = format!("{g:#?}");
        assert!(alt.contains("--"));
    }
}
