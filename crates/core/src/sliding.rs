//! Sliding: turning the agreed disjoint paths into per-robot moves.
//!
//! Given `path(v_q) = v_1, …, v_q` with `v_1` the root (a multiplicity
//! node) and `v_q` bordering an empty node, *sliding* moves one robot from
//! each `v_i` to `v_{i+1}` and the leaf's mover to the empty neighbor
//! reachable through the smallest port — so the previously empty node
//! becomes occupied while every path node stays occupied (Lemma 7).
//!
//! The paper leaves two tie-breaks open; we fix them deterministically
//! (every robot computes the same answer from the same structures):
//!
//! * at the **root**, the `|paths|` largest-ID robots move — the largest
//!   takes the path with the smallest leaf ID, and so on; the smallest-ID
//!   robot always stays, keeping the node's identity stable;
//! * at an **interior or leaf** node, the largest-ID robot is the mover.

use dispersion_engine::{Action, RobotView};
use dispersion_graph::Port;

use crate::component::ConnectedComponent;
use crate::paths::DisjointPathSet;
use crate::spanning_tree::SpanningTree;

/// Which robot of a multi-robot path node is the designated mover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MoverRule {
    /// The largest-ID robot moves (the default; the smallest-ID robot —
    /// the node's identity — always stays, keeping node naming stable).
    #[default]
    LargestId,
    /// The smallest robot that is not the node's anchor moves. Equally
    /// correct; exists for the `exp_ablation` experiment.
    SmallestNonAnchor,
}

/// Which empty neighbor the leaf mover exits to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LeafPortRule {
    /// The smallest-port empty neighbor (Algorithm 4, line 12).
    #[default]
    SmallestEmpty,
    /// The largest-port empty neighbor. Equally correct; ablation only.
    LargestEmpty,
}

/// Tie-break policy for sliding. The defaults are the rules the paper's
/// pseudocode fixes (or that we fixed where it leaves them open, see
/// DESIGN.md §3); the alternatives are provably equivalent choices used
/// by the `exp_ablation` experiment to show the bounds do not hinge on
/// them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlidingPolicy {
    /// Mover selection at multi-robot nodes.
    pub mover: MoverRule,
    /// Empty-neighbor selection at path leaves.
    pub leaf_port: LeafPortRule,
    /// Ablation: slide along only the first disjoint path per component
    /// per round (the paper slides up to `count(root) − 1`). Still O(k)
    /// overall — Lemma 7 needs only one path — but forfeits the
    /// parallelism that makes benign instances fast.
    pub single_path: bool,
    /// Use the BFS variant of Algorithm 2 (the paper: "a breadth-first
    /// search, BFS, approach can also be used"): shallower trees, shorter
    /// root paths, same guarantees.
    pub bfs_tree: bool,
}

/// Decides the Move-phase action of the observing robot from the agreed
/// round structures, under the default (paper) policy. Pure; called by
/// Algorithm 4's `step`.
pub fn decide(
    view: &RobotView,
    component: &ConnectedComponent,
    tree: &SpanningTree,
    paths: &DisjointPathSet,
) -> Action {
    decide_with_policy(view, component, tree, paths, SlidingPolicy::default())
}

/// [`decide`] with an explicit tie-break policy.
pub fn decide_with_policy(
    view: &RobotView,
    component: &ConnectedComponent,
    tree: &SpanningTree,
    paths: &DisjointPathSet,
    policy: SlidingPolicy,
) -> Action {
    let limited;
    let paths = if policy.single_path && paths.len() > 1 {
        limited = paths.limited_to(1);
        &limited
    } else {
        paths
    };
    let my_node = view.colocated[0];
    if my_node == tree.root() {
        decide_at_root(view, component, paths, policy)
    } else {
        decide_off_root(view, component, paths, policy)
    }
}

/// The leaf mover's target port among the empty neighbors (Algorithm 4,
/// line 12; the rule is policy-selectable for ablations). Reads the
/// view's neighbor observations in place.
pub(crate) fn leaf_exit_port(view: &RobotView, policy: SlidingPolicy) -> Option<Port> {
    let empties = view
        .neighbors()
        .expect("Algorithm 4 requires 1-neighborhood knowledge")
        .filter(|o| !o.occupied())
        .map(|o| o.port);
    match policy.leaf_port {
        LeafPortRule::SmallestEmpty => empties.min(),
        LeafPortRule::LargestEmpty => empties.max(),
    }
}

/// 0-based path slot of `me` at the **root**: slot `j` is assigned to
/// path `j` (leaf-ID order). The smallest robot — the root's anchor —
/// never gets a slot; truncation guarantees `|paths| ≤ count − 1`, so
/// this keeps at least one robot on the root (Lemma 6). `colocated` is
/// ascending, so `me` is found by binary search.
pub(crate) fn root_path_slot(view: &RobotView, policy: SlidingPolicy) -> Option<usize> {
    let pos = view.colocated.binary_search(&view.me).ok()?;
    match policy.mover {
        MoverRule::LargestId => (pos > 0).then(|| view.colocated.len() - 1 - pos),
        MoverRule::SmallestNonAnchor => pos.checked_sub(1),
    }
}

/// Whether `me` is the single designated mover of a **non-root** path
/// node. A lone robot always moves (it is replaced by its predecessor on
/// the path); at multiplicity nodes the smallest robot anchors the node's
/// identity and the policy picks the mover among the rest.
pub(crate) fn is_off_root_mover(view: &RobotView, policy: SlidingPolicy) -> bool {
    if view.colocated.len() == 1 {
        return true;
    }
    match policy.mover {
        MoverRule::LargestId => view.colocated.last() == Some(&view.me),
        MoverRule::SmallestNonAnchor => view.colocated.get(1) == Some(&view.me),
    }
}

fn decide_at_root(
    view: &RobotView,
    component: &ConnectedComponent,
    paths: &DisjointPathSet,
    policy: SlidingPolicy,
) -> Action {
    let my_node = view.colocated[0];
    // Mover slot j (0-based, paths in leaf-ID order). Truncation
    // guarantees |paths| ≤ count − 1, so the anchor never draws a path.
    debug_assert!(paths.len() < view.colocated.len() || paths.is_empty());
    let Some(path) = root_path_slot(view, policy).and_then(|j| paths.paths().get(j)) else {
        return Action::Stay;
    };
    if path.is_trivial() {
        // Trivial path [root]: step directly onto an empty neighbor.
        match leaf_exit_port(view, policy) {
            Some(p) => Action::Move(p),
            None => Action::Stay,
        }
    } else {
        let succ = path
            .successor(my_node)
            .expect("root has a successor on non-trivial paths");
        match component.node(my_node).and_then(|n| n.port_to(succ)) {
            Some(p) => Action::Move(p),
            None => Action::Stay,
        }
    }
}

fn decide_off_root(
    view: &RobotView,
    component: &ConnectedComponent,
    paths: &DisjointPathSet,
    policy: SlidingPolicy,
) -> Action {
    let my_node = view.colocated[0];
    let Some(path) = paths.path_through(my_node) else {
        return Action::Stay;
    };
    // Exactly one robot of the node moves.
    if !is_off_root_mover(view, policy) {
        return Action::Stay;
    }
    if path.leaf() == my_node {
        match leaf_exit_port(view, policy) {
            Some(p) => Action::Move(p),
            None => Action::Stay,
        }
    } else {
        let succ = path
            .successor(my_node)
            .expect("non-leaf path nodes have successors");
        match component.node(my_node).and_then(|n| n.port_to(succ)) {
            Some(p) => Action::Move(p),
            None => Action::Stay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::{build_packets, build_views, Configuration, ModelSpec, RobotId};
    use dispersion_graph::{generators, NodeId, PortLabeledGraph};

    fn r(i: u32) -> RobotId {
        RobotId::new(i)
    }
    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Builds the full per-robot action map on one graph/configuration.
    fn actions_on(g: &PortLabeledGraph, cfg: &Configuration) -> Vec<(RobotId, Action)> {
        let packets = build_packets(g, cfg, true);
        let views = build_views(
            g,
            cfg,
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            0,
            cfg.robot_count(),
            &|_| None,
        );
        views
            .iter()
            .map(|(robot, view)| {
                let comp = ConnectedComponent::build(&packets, view.colocated[0]);
                let tree = SpanningTree::build(&comp).expect("multiplicity exists");
                let paths = DisjointPathSet::build(&comp, &tree);
                (robot, decide(&view, &comp, &tree, &paths))
            })
            .collect()
    }

    #[test]
    fn chain_slides_toward_empty() {
        // Path 0-1-2-3-4: {1,9} on 0, {2} on 1, {3} on 2; empty 3,4.
        // Path structure: root r1 → r2 → r3(leaf). Movers: 9 (root, largest),
        // 2 (interior), 3 (leaf).
        let g = generators::path(5).unwrap();
        let cfg =
            Configuration::from_pairs(5, [(r(1), v(0)), (r(9), v(0)), (r(2), v(1)), (r(3), v(2))]);
        let acts = actions_on(&g, &cfg);
        let get = |id: u32| acts.iter().find(|(x, _)| *x == r(id)).unwrap().1;
        assert_eq!(get(1), Action::Stay, "root keeps its smallest robot");
        // Robot 9 exits node 0 toward node 1 (port 1 on a path endpoint).
        assert_eq!(get(9), Action::Move(Port::new(1)));
        // Robot 2 on node 1 moves toward node 2: port 2 of node 1.
        assert_eq!(get(2), Action::Move(Port::new(2)));
        // Robot 3 (leaf) moves to the empty neighbor node 3: port 2.
        assert_eq!(get(3), Action::Move(Port::new(2)));
    }

    #[test]
    fn trivial_path_mover_leaves_root() {
        // Star center 0: {1,5}; occupied leaves 1,2,3 (robots 2,3,4); leaf
        // 4 empty. The only path is the trivial [root]; mover = robot 5.
        let g = generators::star(5).unwrap();
        let cfg = Configuration::from_pairs(
            5,
            [
                (r(1), v(0)),
                (r(5), v(0)),
                (r(2), v(1)),
                (r(3), v(2)),
                (r(4), v(3)),
            ],
        );
        let acts = actions_on(&g, &cfg);
        let get = |id: u32| acts.iter().find(|(x, _)| *x == r(id)).unwrap().1;
        assert_eq!(get(1), Action::Stay);
        // Smallest empty port at center is port 4 (leaf 4).
        assert_eq!(get(5), Action::Move(Port::new(4)));
        assert_eq!(get(2), Action::Stay);
        assert_eq!(get(3), Action::Stay);
        assert_eq!(get(4), Action::Stay);
    }

    #[test]
    fn multiple_paths_get_distinct_root_movers() {
        // Spider: center 0 with arms 1,2,3, each arm bordering an empty
        // node. Center holds {1,7,8,9}: three paths, movers 9→leaf r2,
        // 8→leaf r3, 7→leaf r4.
        let mut b = dispersion_graph::GraphBuilder::new(7);
        for (a, c) in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)] {
            b.add_edge(v(a), v(c)).unwrap();
        }
        let g = b.build().unwrap();
        let cfg = Configuration::from_pairs(
            7,
            [
                (r(1), v(0)),
                (r(7), v(0)),
                (r(8), v(0)),
                (r(9), v(0)),
                (r(2), v(1)),
                (r(3), v(2)),
                (r(4), v(3)),
            ],
        );
        let acts = actions_on(&g, &cfg);
        let get = |id: u32| acts.iter().find(|(x, _)| *x == r(id)).unwrap().1;
        assert_eq!(get(1), Action::Stay);
        // Ports at center: 1→node1, 2→node2, 3→node3.
        assert_eq!(get(9), Action::Move(Port::new(1)));
        assert_eq!(get(8), Action::Move(Port::new(2)));
        assert_eq!(get(7), Action::Move(Port::new(3)));
        // Arm robots are leaves of their paths: each moves to its empty
        // neighbor (port 2 at each arm node).
        assert_eq!(get(2), Action::Move(Port::new(2)));
        assert_eq!(get(3), Action::Move(Port::new(2)));
        assert_eq!(get(4), Action::Move(Port::new(2)));
    }

    #[test]
    fn off_path_robots_stay() {
        // Path 0-1-2-3-4-5: {1,9} on 0, {2} on 1, {3} on 2, {4} on 4.
        // Node 4 (id r4) is a separate component (node 3 empty) and
        // dispersed: its robot stays.
        let g = generators::path(6).unwrap();
        let cfg = Configuration::from_pairs(
            6,
            [
                (r(1), v(0)),
                (r(9), v(0)),
                (r(2), v(1)),
                (r(3), v(2)),
                (r(4), v(4)),
            ],
        );
        let packets = build_packets(&g, &cfg, true);
        let comp4 = ConnectedComponent::build(&packets, r(4));
        assert!(SpanningTree::build(&comp4).is_none());
    }

    #[test]
    fn interior_multiplicity_moves_largest_only() {
        // Path 0-1-2-3: {1,8} on 0, {2,9} on 1, {3} on 2; empty 3.
        // Tree root r1; path r1→r2→r3. At node 1 (id r2, robots {2,9}),
        // mover is 9.
        let g = generators::path(4).unwrap();
        let cfg = Configuration::from_pairs(
            4,
            [
                (r(1), v(0)),
                (r(8), v(0)),
                (r(2), v(1)),
                (r(9), v(1)),
                (r(3), v(2)),
            ],
        );
        let acts = actions_on(&g, &cfg);
        let get = |id: u32| acts.iter().find(|(x, _)| *x == r(id)).unwrap().1;
        assert_eq!(get(2), Action::Stay, "smallest robot anchors the node");
        assert_eq!(get(9), Action::Move(Port::new(2)));
        assert_eq!(get(3), Action::Move(Port::new(2)));
        assert_eq!(get(8), Action::Move(Port::new(1)));
        assert_eq!(get(1), Action::Stay);
    }
}
