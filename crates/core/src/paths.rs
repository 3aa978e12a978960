//! Algorithm 3: disjoint root paths.
//!
//! `LeafNodeSet(ST_r^φ)` holds the tree nodes with at least one empty
//! neighbor in `G_r`. Going through it in increasing ID order, a robot
//! keeps each candidate's unique tree path to the root if and only if it
//! shares no node or edge with the paths already kept (Definition 5 — all
//! paths meet at the root, which is exempt; Observation 4: every non-root
//! node lies on at most one kept path).
//!
//! If the root itself has an empty neighbor it contributes the trivial
//! path `[root]`; this is what makes Lemma 3 (`|DisjointPathSet| ≥ 1`)
//! hold for single-node components.
//!
//! Algorithm 4 then keeps at most `count(root) − 1` paths — in increasing
//! order of their leaf IDs — so that the root always retains a robot.

use std::collections::BTreeSet;

use dispersion_engine::RobotId;

use crate::component::ConnectedComponent;
use crate::spanning_tree::SpanningTree;

/// One root path, stored **root-first**: `nodes[0]` is the root,
/// `nodes.last()` the leaf with an empty neighbor. (The paper writes
/// `RootPath(v)` from `v` up to the root; the sliding direction is
/// root → leaf → empty node, so we store it the way robots walk it.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootPath {
    nodes: Vec<RobotId>,
}

impl RootPath {
    /// The nodes from root to leaf.
    pub fn nodes(&self) -> &[RobotId] {
        &self.nodes
    }

    /// The root end.
    pub fn root(&self) -> RobotId {
        self.nodes[0]
    }

    /// The leaf end (equals the root for the trivial path).
    pub fn leaf(&self) -> RobotId {
        *self.nodes.last().expect("paths are nonempty")
    }

    /// Number of nodes on the path.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether this is the trivial `[root]` path.
    pub fn is_trivial(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Is `is_empty` ever true? No — kept for collection-idiom
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Position of `id` on the path, if present.
    pub fn position(&self, id: RobotId) -> Option<usize> {
        self.nodes.iter().position(|&x| x == id)
    }

    /// The node following `id` towards the leaf, if any.
    pub fn successor(&self, id: RobotId) -> Option<RobotId> {
        self.position(id)
            .and_then(|i| self.nodes.get(i + 1))
            .copied()
    }
}

/// The agreed set of disjoint root paths of one component in one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisjointPathSet {
    paths: Vec<RootPath>,
}

impl DisjointPathSet {
    /// Runs **Algorithm 3** on a component and its spanning tree, then
    /// applies the Algorithm 4 truncation to `count(root) − 1` paths.
    pub fn build(component: &ConnectedComponent, tree: &SpanningTree) -> Self {
        let root = tree.root();
        // LeafNodeSet in increasing ID order (BTree iteration order).
        let leaf_nodes: Vec<RobotId> = component
            .iter()
            .filter(|n| tree.contains(n.id) && n.has_empty_neighbor())
            .map(|n| n.id)
            .collect();
        let mut used: BTreeSet<RobotId> = BTreeSet::new();
        let mut paths: Vec<RootPath> = Vec::new();
        for v in leaf_nodes {
            let mut nodes = tree.path_to_root(v);
            nodes.reverse(); // store root-first
                             // Disjointness check: no non-root node may repeat across paths
                             // (all paths legitimately share the root).
            if nodes.iter().skip(1).any(|x| used.contains(x)) {
                continue;
            }
            for &x in nodes.iter().skip(1) {
                used.insert(x);
            }
            paths.push(RootPath { nodes });
        }
        // Truncation (Algorithm 4, lines 5–6): keep count(root) − 1 paths
        // in increasing leaf-ID order, so at least one robot stays on the
        // root. Generation order is already increasing leaf-ID order.
        let count_root = component.node(root).map(|n| n.count).unwrap_or(1);
        if paths.len() >= count_root {
            paths.truncate(count_root.saturating_sub(1));
        }
        DisjointPathSet { paths }
    }

    /// The kept paths, in increasing leaf-ID order.
    pub fn paths(&self) -> &[RootPath] {
        &self.paths
    }

    /// Number of kept paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether no path was kept.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The path containing `id` as a non-root node, or any path when `id`
    /// is the root of a *trivial* path. The root of non-trivial paths lies
    /// on all of them, so it is never resolved through this lookup.
    pub fn path_through(&self, id: RobotId) -> Option<&RootPath> {
        self.paths
            .iter()
            .find(|p| p.position(id).is_some_and(|pos| pos > 0 || p.is_trivial()))
    }

    /// The index (0-based, in leaf-ID order) of each path departing from
    /// the root — used to match the root's movers to paths.
    pub fn iter(&self) -> impl Iterator<Item = &RootPath> {
        self.paths.iter()
    }

    /// A copy keeping only the first `limit` paths (leaf-ID order). Used
    /// by the single-path ablation policy; the result is still a valid
    /// agreed path set (every robot truncates identically).
    pub fn limited_to(&self, limit: usize) -> DisjointPathSet {
        DisjointPathSet {
            paths: self.paths.iter().take(limit).cloned().collect(),
        }
    }

    /// Disjointness audit (Observation 4): every non-root node appears on
    /// at most one path.
    pub fn check_invariants(&self, tree: &SpanningTree) {
        let mut seen: BTreeSet<RobotId> = BTreeSet::new();
        for p in &self.paths {
            assert_eq!(p.root(), tree.root(), "paths start at the root");
            for &x in p.nodes().iter().skip(1) {
                assert!(seen.insert(x), "node {x} on two paths");
            }
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

    fn component_on(
        g: &dispersion_graph::PortLabeledGraph,
        placements: &[(u32, u32)],
        start: u32,
    ) -> ConnectedComponent {
        let c = Configuration::from_pairs(
            g.node_count(),
            placements.iter().map(|&(rid, nid)| (r(rid), v(nid))),
        );
        let packets = build_packets(g, &c, true);
        ConnectedComponent::build(&packets, r(start))
    }

    #[test]
    fn star_yields_per_branch_paths() {
        // Star center node 0 with robots {1,2,3,4} (count 4), leaves 1..=3
        // occupied singly, leaf 4 empty. LeafNodeSet: every occupied leaf
        // borders nothing empty (leaves have degree 1, neighbor = center,
        // occupied) — wait: occupied leaves have no empty neighbor; only
        // the center borders empty leaf 4. So the only path is [center].
        let g = generators::star(5).unwrap();
        let comp = component_on(
            &g,
            &[(1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (6, 2), (7, 3)],
            1,
        );
        let tree = SpanningTree::build(&comp).unwrap();
        let set = DisjointPathSet::build(&comp, &tree);
        assert_eq!(set.len(), 1);
        assert!(set.paths()[0].is_trivial());
        assert_eq!(set.paths()[0].root(), r(1));
        set.check_invariants(&tree);
    }

    #[test]
    fn path_graph_single_root_path() {
        // Path 0-1-2-3-4: robots {1,9} on 0, {2} on 1, {3} on 2; nodes 3,4
        // empty. Leaf set: node id 3 (graph node 2, borders empty 3).
        let g = generators::path(5).unwrap();
        let comp = component_on(&g, &[(1, 0), (9, 0), (2, 1), (3, 2)], 1);
        let tree = SpanningTree::build(&comp).unwrap();
        let set = DisjointPathSet::build(&comp, &tree);
        assert_eq!(set.len(), 1);
        let p = &set.paths()[0];
        assert_eq!(p.nodes(), &[r(1), r(2), r(3)]);
        assert_eq!(p.root(), r(1));
        assert_eq!(p.leaf(), r(3));
        assert_eq!(p.successor(r(1)), Some(r(2)));
        assert_eq!(p.successor(r(3)), None);
        assert_eq!(p.len(), 3);
        assert!(!p.is_trivial());
        assert!(!p.is_empty());
    }

    #[test]
    fn truncation_keeps_count_minus_one() {
        // Star center with 2 robots and 3 branches all bordering empties:
        // at most count(root) − 1 = 1 path survives.
        // Build: wheel-free — center node 0 robots {1,8}; leaves 1,2,3
        // robots 2,3,4; node 4 empty... but occupied leaves border only the
        // center. Use a spider: center 0 - arms (1,2,3); each arm node
        // borders a distinct empty node (4,5,6).
        let mut b = dispersion_graph::GraphBuilder::new(7);
        for (a, c) in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)] {
            b.add_edge(v(a), v(c)).unwrap();
        }
        let g = b.build().unwrap();
        let comp = component_on(&g, &[(1, 0), (8, 0), (2, 1), (3, 2), (4, 3)], 1);
        let tree = SpanningTree::build(&comp).unwrap();
        let set = DisjointPathSet::build(&comp, &tree);
        assert_eq!(set.len(), 1, "count(root)=2 keeps exactly 1 path");
        // Leaf-ID order: the smallest leaf id (r2) wins.
        assert_eq!(set.paths()[0].leaf(), r(2));
        set.check_invariants(&tree);
    }

    #[test]
    fn more_robots_keep_more_paths() {
        // Same spider, center holds 4 robots: keeps min(3 paths, 3) = 3.
        let mut b = dispersion_graph::GraphBuilder::new(7);
        for (a, c) in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)] {
            b.add_edge(v(a), v(c)).unwrap();
        }
        let g = b.build().unwrap();
        let comp = component_on(
            &g,
            &[(1, 0), (8, 0), (9, 0), (10, 0), (2, 1), (3, 2), (4, 3)],
            1,
        );
        let tree = SpanningTree::build(&comp).unwrap();
        let set = DisjointPathSet::build(&comp, &tree);
        assert_eq!(set.len(), 3);
        set.check_invariants(&tree);
        // Distinct leaves, increasing.
        let leaves: Vec<_> = set.iter().map(RootPath::leaf).collect();
        assert_eq!(leaves, vec![r(2), r(3), r(4)]);
    }

    #[test]
    fn overlapping_candidates_rejected() {
        // Path 0-1-2 plus pendant 3 on node 2; empties hang beyond: graph
        // 0-1, 1-2, 2-3, 2-4(empty), 3-5(empty).
        // Occupied: 0{1,9}, 1{2}, 2{3}, 3{4}. Leaf candidates: id3 (node 2,
        // borders empty 4) and id4 (node 3, borders empty 5). Path to id4
        // goes through node 2 (id3) — overlaps the kept id3 path.
        let mut b = dispersion_graph::GraphBuilder::new(6);
        for (a, c) in [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5)] {
            b.add_edge(v(a), v(c)).unwrap();
        }
        let g = b.build().unwrap();
        let comp = component_on(&g, &[(1, 0), (9, 0), (2, 1), (3, 2), (4, 3)], 1);
        let tree = SpanningTree::build(&comp).unwrap();
        let set = DisjointPathSet::build(&comp, &tree);
        assert_eq!(set.len(), 1);
        assert_eq!(set.paths()[0].leaf(), r(3));
        set.check_invariants(&tree);
    }

    #[test]
    fn path_through_resolves_members() {
        let g = generators::path(5).unwrap();
        let comp = component_on(&g, &[(1, 0), (9, 0), (2, 1), (3, 2)], 1);
        let tree = SpanningTree::build(&comp).unwrap();
        let set = DisjointPathSet::build(&comp, &tree);
        assert!(set.path_through(r(2)).is_some());
        assert!(set.path_through(r(3)).is_some());
        // Root of a non-trivial path resolves to no single path.
        assert!(set.path_through(r(1)).is_none());
        assert!(set.path_through(r(42)).is_none());
    }

    #[test]
    fn lemma3_at_least_one_path() {
        // Any component with a multiplicity and k ≤ n has a leaf node
        // (Lemma 3); spot-check several shapes.
        for (g, placements) in [
            (generators::path(4).unwrap(), vec![(1u32, 0u32), (2, 0)]),
            (generators::cycle(5).unwrap(), vec![(1, 1), (2, 1), (3, 2)]),
            (generators::star(6).unwrap(), vec![(1, 0), (2, 0), (3, 0)]),
        ] {
            let comp = component_on(&g, &placements, 1);
            let tree = SpanningTree::build(&comp).unwrap();
            let set = DisjointPathSet::build(&comp, &tree);
            assert!(!set.is_empty(), "Lemma 3 violated");
        }
    }
}
