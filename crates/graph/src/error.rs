//! Error type for graph construction and validation.

use std::error::Error;
use std::fmt;

use crate::{NodeId, Port};

/// Error raised when constructing or validating a [`crate::PortLabeledGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node index was outside `[0, n)`.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// An edge connected a node to itself; the model has no self-loops.
    SelfLoop {
        /// The node carrying the loop.
        node: NodeId,
    },
    /// The same unordered node pair was added twice; the model has no
    /// parallel edges.
    DuplicateEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A port label was reused at the same node.
    DuplicatePort {
        /// The node at which the collision happened.
        node: NodeId,
        /// The colliding label.
        port: Port,
    },
    /// After construction, the port labels of a node were not exactly the
    /// set `{1, …, δ(v)}` required by the model.
    NonContiguousPorts {
        /// The offending node.
        node: NodeId,
        /// The node's degree.
        degree: usize,
    },
    /// The graph (or a graph of a dynamic sequence) is not connected, which
    /// violates 1-interval connectivity.
    Disconnected,
    /// A graph appended to a [`crate::dynamics::GraphSequence`] had a
    /// different number of nodes; the dynamic model fixes the vertex set.
    NodeCountMismatch {
        /// Node count of the sequence.
        expected: usize,
        /// Node count of the appended graph.
        actual: usize,
    },
    /// A graph had zero nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for a {n}-node graph")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "duplicate edge between {u} and {v}")
            }
            GraphError::DuplicatePort { node, port } => {
                write!(f, "port {port} used twice at node {node}")
            }
            GraphError::NonContiguousPorts { node, degree } => {
                write!(f, "ports at node {node} are not exactly 1..={degree}")
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::NodeCountMismatch { expected, actual } => write!(
                f,
                "graph has {actual} nodes but the sequence fixes {expected}"
            ),
            GraphError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = GraphError::SelfLoop {
            node: NodeId::new(3),
        };
        assert_eq!(e.to_string(), "self-loop at node n3");
        let e = GraphError::Disconnected;
        assert_eq!(e.to_string(), "graph is not connected");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
