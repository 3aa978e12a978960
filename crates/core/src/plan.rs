//! The round plan: Algorithms 1–3 for every component of a round at once,
//! folded into a per-node decision table.
//!
//! Under global communication every robot receives the same packets, and
//! the component, spanning tree and disjoint paths it derives from them
//! (Algorithms 1–3) are a pure function of those packets and the sliding
//! policy. [`RoundPlan::build`] runs the three algorithms once over the
//! whole packet list and keeps only what a robot's Compute step reads:
//! whether any multiplicity node exists, and for each occupied node its
//! role on the agreed paths (root, interior, leaf or off-path), the port
//! towards its successor, and — at a root — one entry per path slot.
//! [`RoundPlan::decide`] then answers a robot in `O(1)`, plus a binary
//! search in its colocated list for the few root robots that may hold a
//! path slot.
//!
//! The build reads the round's packet table in place and works on dense
//! arrays indexed by packet position: packets ascend by sender, so
//! position order is the increasing-ID order Algorithms 1–3 process nodes
//! in, and the table gives each neighbor report its neighbor's position
//! ([`dispersion_engine::PacketRef::neighbor_slots`]), so no identity is
//! ever looked up. The `BTreeMap` structures of
//! [`crate::component`], [`crate::spanning_tree`] and [`crate::paths`]
//! remain the paper-shaped reference, and `DispersionDynamic::unmemoized`
//! decides through them; the differential tests compare the two paths
//! round by round.

use dispersion_engine::{Action, Packets, RobotView};
use dispersion_graph::Port;

use crate::sliding::{self, MoverRule, SlidingPolicy};

const NONE: u32 = u32::MAX;

/// What the robots standing on one occupied node do this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// Not on any kept path (or in a component without a multiplicity
    /// node): every robot stays.
    OffPath,
    /// Root of its component's tree: `root_slots[first..first + len]` are
    /// its path slots, in leaf-ID order.
    Root { first: u32, len: u32 },
    /// Interior node of a kept path: its mover exits through the port to
    /// the path successor.
    Interior(Option<Port>),
    /// Leaf of a kept path: its mover exits to an empty neighbor.
    Leaf,
}

/// The move of the root robot holding one path slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotMove {
    /// The trivial path `[root]`: step onto an empty neighbor.
    Exit,
    /// A non-trivial path: exit through the port to the path's second
    /// node.
    Toward(Option<Port>),
}

/// One packet list's agreed structures, reduced to per-node decisions.
/// Kept in the list's [`dispersion_engine::RoundMemo`], so every robot
/// (and every executor worker) that sees the list shares it; rebuilt in
/// place for the table's next list.
#[derive(Debug, Default)]
pub(crate) struct RoundPlan {
    /// Whether any node holds two or more robots; without one every
    /// robot stays (termination detection under global communication).
    multiplicity: bool,
    /// Role of each occupied node, indexed by its packet's position.
    roles: Vec<Role>,
    /// Root path-slot tables, sliced by [`Role::Root`].
    root_slots: Vec<SlotMove>,
}

/// Per packet position: where the tree search put the node.
#[derive(Clone, Copy, Debug)]
struct TreeNode {
    /// Label of the node's component (`NONE` when the search never
    /// reached it: its component has no multiplicity node).
    comp: u32,
    /// Tree parent (`NONE` for a root).
    parent: u32,
    /// The port at the parent leading to this node (`None` for a root).
    port: Option<Port>,
    /// No further kept path may pass through the node, because it lies
    /// on a kept path or its root path crosses one.
    blocked: bool,
}

const UNREACHED: TreeNode = TreeNode {
    comp: NONE,
    parent: NONE,
    port: None,
    blocked: false,
};

/// Working buffers of [`RoundPlan::rebuild`], kept between builds so a
/// warm build allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// The tree search's record per packet position.
    nodes: Vec<TreeNode>,
    /// Root (packet position) of each component label.
    comp_root: Vec<u32>,
    /// Paths still to keep per component label.
    comp_quota: Vec<u32>,
    /// DFS stack of `(node, discovered-from, port there)`, or the BFS
    /// queue.
    frontier: Vec<(u32, u32, Option<Port>)>,
    /// The candidate path being walked, leaf first.
    walk: Vec<u32>,
    /// Kept paths as `(root, rank, slot)`, `rank` counting kept paths in
    /// leaf-ID order.
    slots: Vec<(u32, u32, SlotMove)>,
}

/// The occupied neighbors of the packet at position `v`, in port order:
/// the port towards each and the position of its packet.
fn neighbors<'a>(
    packets: &Packets<'a>,
    v: u32,
) -> impl DoubleEndedIterator<Item = (Port, u32)> + 'a {
    let packet = packets.row(v as usize);
    let (Some(reports), Some(slots)) = (packet.occupied_neighbors(), packet.neighbor_slots())
    else {
        panic!("Algorithm 1 requires 1-neighborhood knowledge")
    };
    let packets = *packets;
    reports
        .iter()
        .zip(slots)
        .map(move |(rep, &slot)| match packets.position(slot as usize) {
            Some(w) => (rep.port, w as u32),
            None => panic!("no packet for component node {}", rep.min_robot),
        })
}

/// Whether the robot observing `view` at a root with `len` path slots can
/// hold one, decided in `O(1)` so that most root robots stay without
/// the binary search of [`sliding::root_path_slot`].
///
/// Under [`MoverRule::LargestId`] the robot at position `pos` of the
/// ascending `colocated` list takes slot `colocated.len() − 1 − pos`,
/// which is a kept slot iff `pos ≥ colocated.len() − len`, and the
/// anchor (`pos = 0`) never moves: so only IDs at or above
/// `colocated[max(colocated.len() − len, 1)]` can move. Under
/// [`MoverRule::SmallestNonAnchor`] every robot goes to the search.
#[inline]
fn root_mover_candidate(view: &RobotView, len: u32, policy: SlidingPolicy) -> bool {
    match policy.mover {
        MoverRule::LargestId => {
            let first_mover = view.colocated.len().saturating_sub(len as usize).max(1);
            view.colocated
                .get(first_mover)
                .is_some_and(|&lowest| view.me >= lowest)
        }
        MoverRule::SmallestNonAnchor => true,
    }
}

impl RoundPlan {
    /// Runs Algorithms 1–3 over the whole packet list and folds the kept
    /// paths into per-node roles, overwriting this plan in place: per
    /// component, the root is the smallest-ID multiplicity node, the tree
    /// is the policy's DFS or BFS ([`crate::SpanningTree::build`] /
    /// `build_bfs`), and leaf candidates are taken in increasing ID order
    /// while their root paths stay disjoint, up to `count(root) − 1`
    /// paths (one under [`SlidingPolicy::single_path`]).
    ///
    /// `packets` must ascend by sender, as every engine-built list does.
    ///
    /// # Panics
    ///
    /// Panics if a multiplicity exists and the packets lack the
    /// 1-neighborhood fields, or name a neighbor without a packet.
    pub(crate) fn rebuild(
        &mut self,
        packets: &Packets<'_>,
        policy: SlidingPolicy,
        s: &mut PlanScratch,
    ) {
        self.roles.clear();
        self.root_slots.clear();
        self.multiplicity = packets.iter().any(|p| p.count() >= 2);
        if !self.multiplicity {
            return;
        }
        let n = packets.len();
        assert!(n < NONE as usize, "packet positions fit in u32");
        debug_assert!(
            packets
                .iter()
                .zip(packets.iter().skip(1))
                .all(|(a, b)| a.sender() < b.sender()),
            "packets ascend by sender"
        );

        // Algorithms 1 and 2 in one search per component: the root of a
        // component is its smallest-ID multiplicity node, and positions
        // ascend by ID, so the first multiplicity node not yet reached
        // roots a new component, whose tree search then labels all of
        // it. Components without a multiplicity node are never searched:
        // their robots all stay.
        s.nodes.clear();
        s.nodes.resize(n, UNREACHED);
        s.comp_root.clear();
        for root in 0..n as u32 {
            if s.nodes[root as usize].comp != NONE || packets.row(root as usize).count() < 2 {
                continue;
            }
            let label = s.comp_root.len() as u32;
            s.comp_root.push(root);
            s.frontier.clear();
            if policy.bfs_tree {
                // Neighbors enqueued in increasing port order.
                s.nodes[root as usize].comp = label;
                s.frontier.push((root, NONE, None));
                let mut head = 0;
                while let Some(&(v, _, _)) = s.frontier.get(head) {
                    head += 1;
                    for (port, w) in neighbors(packets, v) {
                        let node = &mut s.nodes[w as usize];
                        if node.comp == NONE {
                            *node = TreeNode {
                                comp: label,
                                parent: v,
                                port: Some(port),
                                blocked: false,
                            };
                            s.frontier.push((w, v, None));
                        }
                    }
                }
            } else {
                // Neighbors pushed in decreasing port order, so the
                // smallest port is expanded first.
                s.frontier.push((root, NONE, None));
                while let Some((v, parent, port)) = s.frontier.pop() {
                    let node = &mut s.nodes[v as usize];
                    if node.comp != NONE {
                        continue;
                    }
                    *node = TreeNode {
                        comp: label,
                        parent,
                        port,
                        blocked: false,
                    };
                    for (port, w) in neighbors(packets, v).rev() {
                        if s.nodes[w as usize].comp == NONE {
                            s.frontier.push((w, v, Some(port)));
                        }
                    }
                }
            }
        }

        // Algorithm 3 plus the Algorithm 4 truncation: leaf candidates in
        // increasing ID order, each kept iff its root path shares no
        // non-root node with a kept one.
        s.comp_quota.clear();
        s.comp_quota.extend(s.comp_root.iter().map(|&root| {
            if policy.single_path {
                1
            } else {
                packets.row(root as usize).count() as u32 - 1
            }
        }));
        s.slots.clear();
        self.roles.resize(n, Role::OffPath);
        for v in 0..n as u32 {
            let label = s.nodes[v as usize].comp;
            if label == NONE
                || s.comp_quota[label as usize] == 0
                || !packets
                    .row(v as usize)
                    .has_empty_neighbor()
                    .expect("Algorithm 1 requires 1-neighborhood knowledge")
            {
                continue;
            }
            let root = s.comp_root[label as usize];
            if v == root {
                // The trivial path [root] shares nothing.
                s.slots.push((root, s.slots.len() as u32, SlotMove::Exit));
                s.comp_quota[label as usize] -= 1;
                continue;
            }
            s.walk.clear();
            let mut cur = v;
            let mut disjoint = true;
            while cur != root {
                let node = &s.nodes[cur as usize];
                if node.blocked {
                    disjoint = false;
                    break;
                }
                s.walk.push(cur);
                cur = node.parent;
            }
            for &x in &s.walk {
                s.nodes[x as usize].blocked = true;
            }
            if !disjoint {
                // Every node walked leads to the kept path just met, and
                // kept paths never go away: later walks may stop here.
                continue;
            }
            s.comp_quota[label as usize] -= 1;
            let first = *s.walk.last().expect("a non-root leaf has a path");
            s.slots.push((
                root,
                s.slots.len() as u32,
                SlotMove::Toward(s.nodes[first as usize].port),
            ));
            // Each path node exits through the port to its child on the
            // path, the one walked before it.
            self.roles[v as usize] = Role::Leaf;
            for pair in s.walk.windows(2) {
                self.roles[pair[1] as usize] = Role::Interior(s.nodes[pair[0] as usize].port);
            }
        }

        // Group the slots by root, each root's in leaf-ID order. A root
        // that kept no path stays off-path: its robots all stay either way.
        s.slots
            .sort_unstable_by_key(|&(root, rank, _)| (root, rank));
        let mut first = 0;
        for group in s.slots.chunk_by(|a, b| a.0 == b.0) {
            self.roles[group[0].0 as usize] = Role::Root {
                first: first as u32,
                len: group.len() as u32,
            };
            first += group.len();
        }
        self.root_slots
            .extend(s.slots.iter().map(|&(_, _, slot)| slot));
    }

    /// The Move-phase action of the robot observing `view`: the decision
    /// [`sliding::decide_with_policy`] reaches from the same packets.
    pub(crate) fn decide(&self, view: &RobotView, policy: SlidingPolicy) -> Action {
        if !self.multiplicity {
            return Action::Stay;
        }
        let role = self.roles[view.own_slot()];
        let port = match role {
            Role::OffPath => None,
            Role::Root { first, len } => root_mover_candidate(view, len, policy)
                .then(|| sliding::root_path_slot(view, policy))
                .flatten()
                .filter(|&j| j < len as usize)
                .and_then(|j| match self.root_slots[first as usize + j] {
                    SlotMove::Exit => sliding::leaf_exit_port(view, policy),
                    SlotMove::Toward(port) => port,
                }),
            Role::Interior(port) => port.filter(|_| sliding::is_off_root_mover(view, policy)),
            Role::Leaf => sliding::is_off_root_mover(view, policy)
                .then(|| sliding::leaf_exit_port(view, policy))
                .flatten(),
        };
        port.map_or(Action::Stay, Action::Move)
    }
}
