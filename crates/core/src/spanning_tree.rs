//! Algorithm 2: component spanning trees.
//!
//! Given a connected component with at least one multiplicity node, every
//! robot deterministically derives the same spanning tree (Lemma 2):
//! rooted at the smallest-ID multiplicity node, built by a DFS that pushes
//! each node's unexplored neighbors in *decreasing* port order — so the
//! smallest port is explored first.

use std::collections::{BTreeMap, BTreeSet};

use dispersion_engine::RobotId;

use crate::component::ConnectedComponent;

/// A component spanning tree `ST_r^φ` (Definition 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningTree {
    root: RobotId,
    /// Parent of every non-root node.
    parent: BTreeMap<RobotId, RobotId>,
    /// Children lists, in discovery order.
    children: BTreeMap<RobotId, Vec<RobotId>>,
    /// DFS preorder.
    order: Vec<RobotId>,
}

impl SpanningTree {
    /// Runs **Algorithm 2** on a component (the paper's DFS variant).
    ///
    /// Returns `None` when the component has no multiplicity node: such a
    /// component is already dispersed and constructs no tree.
    pub fn build(component: &ConnectedComponent) -> Option<Self> {
        let root = component.root()?;
        let mut parent = BTreeMap::new();
        let mut children: BTreeMap<RobotId, Vec<RobotId>> = BTreeMap::new();
        let mut order = Vec::with_capacity(component.len());
        let mut explored: BTreeSet<RobotId> = BTreeSet::new();
        // Stack entries: (node, discovered-from). Neighbors are pushed in
        // decreasing port order so the smallest port is expanded first.
        let mut stack: Vec<(RobotId, Option<RobotId>)> = vec![(root, None)];
        while let Some((v, from)) = stack.pop() {
            if explored.contains(&v) {
                continue;
            }
            explored.insert(v);
            order.push(v);
            if let Some(u) = from {
                parent.insert(v, u);
                children.entry(u).or_default().push(v);
            }
            let node = component.node(v).expect("component nodes exist");
            for &(_, w) in node.neighbors.iter().rev() {
                if !explored.contains(&w) {
                    stack.push((w, Some(v)));
                }
            }
        }
        debug_assert_eq!(order.len(), component.len(), "DFS spans the component");
        Some(SpanningTree {
            root,
            parent,
            children,
            order,
        })
    }

    /// The BFS variant Algorithm 2 explicitly allows ("a breadth-first
    /// search, BFS, approach can also be used"): same root selection,
    /// neighbors enqueued in increasing port order. Produces shallower
    /// trees — shorter root paths — at identical agreement guarantees
    /// (it is equally deterministic over the shared component).
    pub fn build_bfs(component: &ConnectedComponent) -> Option<Self> {
        let root = component.root()?;
        let mut parent = BTreeMap::new();
        let mut children: BTreeMap<RobotId, Vec<RobotId>> = BTreeMap::new();
        let mut order = Vec::with_capacity(component.len());
        let mut explored: BTreeSet<RobotId> = BTreeSet::new();
        let mut queue = std::collections::VecDeque::new();
        explored.insert(root);
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let node = component.node(v).expect("component nodes exist");
            for &(_, w) in &node.neighbors {
                if explored.insert(w) {
                    parent.insert(w, v);
                    children.entry(v).or_default().push(w);
                    queue.push_back(w);
                }
            }
        }
        debug_assert_eq!(order.len(), component.len(), "BFS spans the component");
        Some(SpanningTree {
            root,
            parent,
            children,
            order,
        })
    }

    /// The root `v_r^φ(mult)` — the smallest-ID multiplicity node
    /// (Observation 3 guarantees it is distinct).
    pub fn root(&self) -> RobotId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the tree is empty (never true for built trees).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether `id` is a node of the tree.
    pub fn contains(&self, id: RobotId) -> bool {
        id == self.root || self.parent.contains_key(&id)
    }

    /// Parent of `id` (`None` for the root or foreign nodes).
    pub fn parent(&self, id: RobotId) -> Option<RobotId> {
        self.parent.get(&id).copied()
    }

    /// Children of `id`, in discovery order.
    pub fn children(&self, id: RobotId) -> &[RobotId] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// DFS preorder, starting at the root.
    pub fn preorder(&self) -> &[RobotId] {
        &self.order
    }

    /// The unique tree path from `id` up to the root, inclusive:
    /// `[id, parent, …, root]` (the paper's `RootPath` direction).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tree.
    pub fn path_to_root(&self, id: RobotId) -> Vec<RobotId> {
        assert!(self.contains(id), "node {id} not in tree");
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Depth of `id` (root has depth 0).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tree.
    pub fn depth(&self, id: RobotId) -> usize {
        self.path_to_root(id).len() - 1
    }

    /// Structural checks used by property tests: connected, acyclic,
    /// spanning.
    pub fn check_invariants(&self, component: &ConnectedComponent) {
        assert_eq!(self.len(), component.len(), "tree spans the component");
        assert_eq!(self.parent.len() + 1, self.order.len(), "n-1 edges");
        for (&c, &p) in &self.parent {
            // Every tree edge is a component edge.
            let node = component.node(c).expect("tree nodes are component nodes");
            assert!(
                node.neighbors.iter().any(|&(_, w)| w == p),
                "tree edge {c}-{p} missing from component"
            );
            // Paths terminate at the root (no cycles).
            let path = self.path_to_root(c);
            assert_eq!(*path.last().unwrap(), self.root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::{build_packets, Configuration};
    use dispersion_graph::{generators, NodeId};

    fn r(i: u32) -> RobotId {
        RobotId::new(i)
    }
    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Fully occupied path 0..5 with a multiplicity on node 2:
    /// component = the whole path, root = node id of node 2.
    fn path_component() -> ConnectedComponent {
        let g = generators::path(5).unwrap();
        let c = Configuration::from_pairs(
            5,
            [
                (r(4), v(0)),
                (r(2), v(1)),
                (r(1), v(2)),
                (r(6), v(2)),
                (r(3), v(3)),
                (r(5), v(4)),
            ],
        );
        let packets = build_packets(&g, &c, true);
        ConnectedComponent::build(&packets, r(1))
    }

    #[test]
    fn tree_spans_and_roots_at_multiplicity() {
        let comp = path_component();
        let tree = SpanningTree::build(&comp).unwrap();
        assert_eq!(tree.root(), r(1));
        assert_eq!(tree.len(), 5);
        assert!(!tree.is_empty());
        tree.check_invariants(&comp);
    }

    #[test]
    fn path_tree_shape() {
        let comp = path_component();
        let tree = SpanningTree::build(&comp).unwrap();
        // On a path graph the tree is the path itself: node 2 (id r1) has
        // children toward node 1 (id r2) and node 3 (id r3); port 1 at
        // node 2 leads to node 1, explored first.
        assert_eq!(tree.children(r(1)), &[r(2), r(3)]);
        assert_eq!(tree.parent(r(2)), Some(r(1)));
        assert_eq!(tree.parent(r(4)), Some(r(2)));
        assert_eq!(tree.parent(r(5)), Some(r(3)));
        assert_eq!(tree.depth(r(4)), 2);
        assert_eq!(tree.path_to_root(r(5)), vec![r(5), r(3), r(1)]);
    }

    #[test]
    fn preorder_follows_smallest_port_first() {
        let comp = path_component();
        let tree = SpanningTree::build(&comp).unwrap();
        // From node 2 (root): port 1 → node 1 side first (ids r2 then r4),
        // then port 2 → node 3 side (r3 then r5).
        assert_eq!(tree.preorder(), &[r(1), r(2), r(4), r(3), r(5)]);
    }

    #[test]
    fn dispersed_component_builds_no_tree() {
        let g = generators::path(3).unwrap();
        let c = Configuration::from_pairs(3, [(r(1), v(0)), (r(2), v(1))]);
        let packets = build_packets(&g, &c, true);
        let comp = ConnectedComponent::build(&packets, r(1));
        assert!(SpanningTree::build(&comp).is_none());
    }

    #[test]
    fn smallest_multiplicity_wins_root() {
        // Two multiplicity nodes: {2,9} on node 0 and {1,8} on node 1;
        // root must be node id 1 (the smaller identity).
        let g = generators::path(2).unwrap();
        let c =
            Configuration::from_pairs(2, [(r(2), v(0)), (r(9), v(0)), (r(1), v(1)), (r(8), v(1))]);
        let packets = build_packets(&g, &c, true);
        let comp = ConnectedComponent::build(&packets, r(1));
        let tree = SpanningTree::build(&comp).unwrap();
        assert_eq!(tree.root(), r(1));
    }

    #[test]
    fn contains_and_foreign_nodes() {
        let comp = path_component();
        let tree = SpanningTree::build(&comp).unwrap();
        assert!(tree.contains(r(1)));
        assert!(tree.contains(r(5)));
        assert!(!tree.contains(r(9)));
        assert_eq!(tree.parent(r(9)), None);
        assert!(tree.children(r(5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "not in tree")]
    fn path_to_root_checks_membership() {
        let comp = path_component();
        let tree = SpanningTree::build(&comp).unwrap();
        let _ = tree.path_to_root(r(42));
    }

    #[test]
    fn bfs_variant_spans_with_same_root() {
        let comp = path_component();
        let dfs = SpanningTree::build(&comp).unwrap();
        let bfs = SpanningTree::build_bfs(&comp).unwrap();
        assert_eq!(bfs.root(), dfs.root());
        assert_eq!(bfs.len(), dfs.len());
        bfs.check_invariants(&comp);
        // On a path both variants coincide.
        assert_eq!(bfs.preorder()[0], dfs.preorder()[0]);
    }

    #[test]
    fn bfs_is_shallower_on_branchy_components() {
        // Fully occupied cycle: DFS depth n−1 (goes all the way round),
        // BFS depth ⌈(n−1)/2⌉.
        let g = generators::cycle(7).unwrap();
        let c = Configuration::from_pairs(
            7,
            [
                (r(1), v(0)),
                (r(8), v(0)),
                (r(2), v(1)),
                (r(3), v(2)),
                (r(4), v(3)),
                (r(5), v(4)),
                (r(6), v(5)),
                (r(7), v(6)),
            ],
        );
        let packets = build_packets(&g, &c, true);
        let comp = ConnectedComponent::build(&packets, r(1));
        let dfs = SpanningTree::build(&comp).unwrap();
        let bfs = SpanningTree::build_bfs(&comp).unwrap();
        let dfs_depth = comp.node_ids().map(|id| dfs.depth(id)).max().unwrap();
        let bfs_depth = comp.node_ids().map(|id| bfs.depth(id)).max().unwrap();
        assert!(bfs_depth < dfs_depth, "bfs {bfs_depth} vs dfs {dfs_depth}");
        bfs.check_invariants(&comp);
    }

    #[test]
    fn bfs_deterministic_agreement() {
        let comp = path_component();
        assert_eq!(
            SpanningTree::build_bfs(&comp),
            SpanningTree::build_bfs(&comp)
        );
    }

    #[test]
    fn cycle_component_tree_breaks_cycle() {
        // Fully occupied cycle with one multiplicity: tree has n-1 edges.
        let g = generators::cycle(4).unwrap();
        let c = Configuration::from_pairs(
            4,
            [
                (r(1), v(0)),
                (r(5), v(0)),
                (r(2), v(1)),
                (r(3), v(2)),
                (r(4), v(3)),
            ],
        );
        let packets = build_packets(&g, &c, true);
        let comp = ConnectedComponent::build(&packets, r(1));
        let tree = SpanningTree::build(&comp).unwrap();
        assert_eq!(tree.len(), 4);
        tree.check_invariants(&comp);
    }
}
