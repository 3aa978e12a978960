//! Recorded dynamic graphs `⟨G_0, G_1, …⟩` and their aggregate metrics.
//!
//! The 1-interval connected model (Kuhn et al.) fixes the vertex set and
//! lets edges change every round subject to per-round connectivity. This
//! module stores an observed sequence and computes the paper's dynamic
//! quantities: dynamic degree `δ̂(v)`, dynamic maximum degree `Δ̂`, and
//! dynamic diameter `D̂`.
//!
//! *Generating* dynamic graphs (including adaptive adversaries that watch
//! robot positions) lives in `dispersion-engine`; this type records what a
//! run actually produced, so tests can audit connectivity and diameter
//! claims after the fact.

use crate::connectivity::is_connected;
use crate::metrics::diameter;
use crate::{GraphError, NodeId, PortLabeledGraph};

/// An observed sequence of per-round graphs over a fixed vertex set.
///
/// ```
/// use dispersion_graph::dynamics::GraphSequence;
/// use dispersion_graph::generators;
///
/// # fn main() -> Result<(), dispersion_graph::GraphError> {
/// let mut seq = GraphSequence::new();
/// seq.push(generators::path(5)?)?;
/// seq.push(generators::star(5)?)?;
/// assert_eq!(seq.dynamic_max_degree(), Some(4)); // the star's hub
/// assert_eq!(seq.dynamic_diameter(), Some(4));   // the path
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphSequence {
    graphs: Vec<PortLabeledGraph>,
}

impl GraphSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        GraphSequence { graphs: Vec::new() }
    }

    /// Appends the graph of the next round.
    ///
    /// # Errors
    ///
    /// Returns an error if the node count differs from earlier rounds or the
    /// graph is disconnected (violating 1-interval connectivity).
    pub fn push(&mut self, g: PortLabeledGraph) -> Result<(), GraphError> {
        if let Some(first) = self.graphs.first() {
            if first.node_count() != g.node_count() {
                return Err(GraphError::NodeCountMismatch {
                    expected: first.node_count(),
                    actual: g.node_count(),
                });
            }
        }
        if !is_connected(&g) {
            return Err(GraphError::Disconnected);
        }
        self.graphs.push(g);
        Ok(())
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether no rounds are recorded.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Graph of round `r`, if recorded.
    pub fn round(&self, r: usize) -> Option<&PortLabeledGraph> {
        self.graphs.get(r)
    }

    /// Iterator over recorded rounds.
    pub fn iter(&self) -> impl Iterator<Item = &PortLabeledGraph> {
        self.graphs.iter()
    }

    /// Dynamic degree `δ̂(v)`: maximum degree of `v` over all recorded
    /// rounds. `None` when the sequence is empty.
    pub fn dynamic_degree(&self, v: NodeId) -> Option<usize> {
        self.graphs.iter().map(|g| g.degree(v)).max()
    }

    /// Dynamic maximum degree `Δ̂`: maximum `Δ_r` over recorded rounds.
    pub fn dynamic_max_degree(&self) -> Option<usize> {
        self.graphs.iter().map(PortLabeledGraph::max_degree).max()
    }

    /// Dynamic diameter `D̂`: maximum `D_r` over recorded rounds. Every
    /// recorded graph is connected, so each `D_r` exists.
    pub fn dynamic_diameter(&self) -> Option<usize> {
        self.graphs
            .iter()
            .map(|g| diameter(g).expect("recorded graphs are connected"))
            .max()
    }
}

impl FromIterator<PortLabeledGraph> for GraphSequence {
    /// Collects graphs into a sequence.
    ///
    /// # Panics
    ///
    /// Panics if any graph violates the sequence invariants; use
    /// [`GraphSequence::push`] for fallible construction.
    fn from_iter<I: IntoIterator<Item = PortLabeledGraph>>(iter: I) -> Self {
        let mut s = GraphSequence::new();
        for g in iter {
            s.push(g).expect("invalid graph in sequence literal");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn records_and_measures() {
        let mut s = GraphSequence::new();
        s.push(generators::path(5).unwrap()).unwrap();
        s.push(generators::star(5).unwrap()).unwrap();
        s.push(generators::cycle(5).unwrap()).unwrap();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        // Node 0: degree 1 on the path, 4 on the star, 2 on the cycle.
        assert_eq!(s.dynamic_degree(NodeId::new(0)), Some(4));
        assert_eq!(s.dynamic_max_degree(), Some(4));
        // Diameters: 4 (path), 2 (star), 2 (cycle).
        assert_eq!(s.dynamic_diameter(), Some(4));
        assert_eq!(s.round(1).unwrap().degree(NodeId::new(0)), 4);
        assert!(s.round(3).is_none());
    }

    #[test]
    fn rejects_node_count_change() {
        let mut s = GraphSequence::new();
        s.push(generators::path(5).unwrap()).unwrap();
        assert!(matches!(
            s.push(generators::path(6).unwrap()),
            Err(GraphError::NodeCountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_disconnected_round() {
        let mut b = crate::GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        let g = b.build().unwrap();
        let mut s = GraphSequence::new();
        assert_eq!(s.push(g).unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    fn empty_sequence_metrics_are_none() {
        let s = GraphSequence::new();
        assert!(s.is_empty());
        assert_eq!(s.dynamic_max_degree(), None);
        assert_eq!(s.dynamic_diameter(), None);
    }

    #[test]
    fn from_iterator_collects() {
        let s: GraphSequence = (0..3).map(|_| generators::cycle(4).unwrap()).collect();
        assert_eq!(s.len(), 3);
    }
}
