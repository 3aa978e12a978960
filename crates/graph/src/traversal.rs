//! Port-ordered graph traversals.
//!
//! These are simulator-side helpers (they see [`NodeId`]s); the *robots'*
//! traversals over component graphs live in `dispersion-core`, where nodes
//! are identified by robot IDs only.

use std::collections::VecDeque;

use crate::{NodeId, PortLabeledGraph};

/// Breadth-first order from `start`, neighbors visited in increasing port
/// order.
pub fn bfs_order(g: &PortLabeledGraph, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for (_, w, _) in g.neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    order
}

/// BFS distances from `start`; `None` for unreachable nodes.
pub fn bfs_distances(g: &PortLabeledGraph, start: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.node_count()];
    dist[start.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        for (_, w, _) in g.neighbors(v) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Depth-first preorder from `start`, neighbors expanded in increasing port
/// order (explicit stack, ports pushed in decreasing order so the smallest
/// port is expanded first — the convention of Algorithm 2 in the paper).
pub fn dfs_order(g: &PortLabeledGraph, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        if seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        order.push(v);
        let mut nbrs: Vec<NodeId> = g.neighbors(v).map(|(_, w, _)| w).collect();
        // Reverse so the lowest-port neighbor is popped first.
        nbrs.reverse();
        for w in nbrs {
            if !seen[w.index()] {
                stack.push(w);
            }
        }
    }
    order
}

/// Shortest path between two nodes (by hop count), following lowest ports on
/// ties; `None` if disconnected.
pub fn shortest_path(g: &PortLabeledGraph, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    let mut prev: Vec<Option<NodeId>> = vec![None; g.node_count()];
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    seen[from.index()] = true;
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        if v == to {
            let mut path = vec![to];
            let mut cur = to;
            while let Some(p) = prev[cur.index()] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for (_, w, _) in g.neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                prev[w.index()] = Some(v);
                queue.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_visits_all_connected() {
        let g = generators::grid(3, 3).unwrap();
        let order = bfs_order(&g, NodeId::new(0));
        assert_eq!(order.len(), 9);
        assert_eq!(order[0], NodeId::new(0));
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5).unwrap();
        let dist = bfs_distances(&g, NodeId::new(0));
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn dfs_follows_port_order() {
        // Star from center: DFS visits leaves in port order.
        let g = generators::star(5).unwrap();
        let order = dfs_order(&g, NodeId::new(0));
        assert_eq!(
            order,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3),
                NodeId::new(4)
            ]
        );
    }

    #[test]
    fn dfs_on_path_goes_deep() {
        let g = generators::path(4).unwrap();
        let order = dfs_order(&g, NodeId::new(0));
        assert_eq!(order.len(), 4);
        assert_eq!(order[3], NodeId::new(3));
    }

    #[test]
    fn shortest_path_on_cycle() {
        let g = generators::cycle(6).unwrap();
        let p = shortest_path(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(p.len(), 4); // distance 3
        assert_eq!(p[0], NodeId::new(0));
        assert_eq!(p[3], NodeId::new(3));
    }

    #[test]
    fn shortest_path_to_self() {
        let g = generators::path(3).unwrap();
        assert_eq!(
            shortest_path(&g, NodeId::new(1), NodeId::new(1)).unwrap(),
            vec![NodeId::new(1)]
        );
    }

    #[test]
    fn shortest_path_disconnected_is_none() {
        let mut b = crate::GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        let g = b.build().unwrap();
        assert!(shortest_path(&g, NodeId::new(0), NodeId::new(3)).is_none());
    }
}
