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
//! The build works on dense arrays indexed by packet position (and by
//! [`RobotId::index`] for the identity lookup), not on the `BTreeMap`
//! structures of [`crate::component`], [`crate::spanning_tree`] and
//! [`crate::paths`]. Those remain the paper-shaped reference, and
//! `DispersionDynamic::unmemoized` decides through them; the differential
//! tests compare the two paths round by round.

use dispersion_engine::{Action, InfoPacket, NeighborReport, RobotId, RobotView};
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
/// Immutable once built; shared by every robot (and every executor
/// worker) that sees the same packet list.
#[derive(Debug)]
pub(crate) struct RoundPlan {
    /// The packet-list identity this plan was built for (0 for a plan
    /// built for a single call).
    id: u64,
    /// Whether any node holds two or more robots; without one every
    /// robot stays (termination detection under global communication).
    multiplicity: bool,
    /// Role of each occupied node, indexed by the node's identity (its
    /// smallest robot) via [`RobotId::index`].
    roles: Box<[Role]>,
    /// Root path-slot tables, sliced by [`Role::Root`].
    root_slots: Box<[SlotMove]>,
}

/// Working buffers of [`RoundPlan::build`], kept between builds so a warm
/// build allocates only the plan itself.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Packet position of each node identity (`NONE` if absent).
    slot_of: Vec<u32>,
    /// Packet positions ascending by sender.
    order: Vec<u32>,
    /// Component label per packet position (`NONE` until labeled).
    comp: Vec<u32>,
    /// Root (packet position) of each component; `NONE` when the
    /// component has no multiplicity node.
    comp_root: Vec<u32>,
    /// Paths still to keep per component.
    comp_quota: Vec<u32>,
    /// Tree parent per packet position (`NONE` for roots).
    parent: Vec<u32>,
    /// Whether the tree search reached a packet position.
    explored: Vec<bool>,
    /// Per packet position: no further kept path may pass through it,
    /// because it lies on a kept path or its root path crosses one.
    blocked: Vec<bool>,
    /// DFS stack of `(node, discovered-from)`, or the BFS queue.
    frontier: Vec<(u32, u32)>,
    /// The candidate path being walked, leaf first.
    walk: Vec<u32>,
    /// Kept paths as `(root, rank, slot)`, `rank` counting kept paths in
    /// leaf-ID order.
    slots: Vec<(u32, u32, SlotMove)>,
}

fn neighbors(p: &InfoPacket) -> &[NeighborReport] {
    p.occupied_neighbors
        .as_deref()
        .expect("Algorithm 1 requires 1-neighborhood knowledge")
}

fn has_empty_neighbor(p: &InfoPacket) -> bool {
    p.has_empty_neighbor()
        .expect("Algorithm 1 requires 1-neighborhood knowledge")
}

/// The port at `from` leading to the node named `to`: the first occupied
/// neighbor report naming it (ports ascending), as
/// [`crate::component::ComponentNode::port_to`] resolves it.
fn port_to(from: &InfoPacket, to: RobotId) -> Option<Port> {
    neighbors(from)
        .iter()
        .find(|rep| rep.min_robot == to)
        .map(|rep| rep.port)
}

/// Whether the robot observing `view` at a root with `len` path slots can
/// hold one, decided in `O(1)` so that most root robots stay without
/// the binary search of [`sliding::root_path_slot`].
///
/// Under [`MoverRule::LargestId`] the robot at position `pos` of the
/// ascending `colocated` list takes slot `colocated.len() − 1 − pos`,
/// which is a kept slot iff `pos ≥ colocated.len() − len`, and the
/// anchor (`pos = 0`) never moves: so only IDs at or above
/// `colocated[max(colocated.len() − len, 1)]` can move. A robot missing
/// from `colocated` (a hand-built view) passes or fails this test alike;
/// the binary search then rejects it. Under
/// [`MoverRule::SmallestNonAnchor`] every robot goes to the search.
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
    /// paths into per-node roles: per component, the root is the
    /// smallest-ID multiplicity node, the tree is the policy's DFS or BFS
    /// ([`crate::SpanningTree::build`] / `build_bfs`), and leaf candidates
    /// are taken in increasing ID order while their root paths stay
    /// disjoint, up to `count(root) − 1` paths (one under
    /// [`SlidingPolicy::single_path`]).
    ///
    /// # Panics
    ///
    /// Panics if a multiplicity exists and the packets lack the
    /// 1-neighborhood fields, or name a neighbor without a packet.
    pub(crate) fn build(
        id: u64,
        packets: &[InfoPacket],
        policy: SlidingPolicy,
        s: &mut PlanScratch,
    ) -> RoundPlan {
        let multiplicity = packets.iter().any(|p| p.count >= 2);
        if !multiplicity {
            return RoundPlan {
                id,
                multiplicity,
                roles: Box::default(),
                root_slots: Box::default(),
            };
        }
        let n = packets.len();
        assert!(n < NONE as usize, "packet positions fit in u32");
        let ids = packets
            .iter()
            .map(|p| p.sender.index() + 1)
            .max()
            .unwrap_or(0);
        s.slot_of.clear();
        s.slot_of.resize(ids, NONE);
        for (i, p) in packets.iter().enumerate() {
            s.slot_of[p.sender.index()] = i as u32;
        }
        s.order.clear();
        s.order.extend(0..n as u32);
        if !packets.windows(2).all(|w| w[0].sender < w[1].sender) {
            s.order
                .sort_unstable_by_key(|&i| packets[i as usize].sender);
        }
        let slot_of = &s.slot_of;
        let position = |id: RobotId| -> u32 {
            match slot_of.get(id.index()) {
                Some(&i) if i != NONE => i,
                _ => panic!("no packet for component node {id}"),
            }
        };

        // Algorithm 1: label every component; its root is the first
        // multiplicity node in increasing ID order.
        s.comp.clear();
        s.comp.resize(n, NONE);
        s.comp_root.clear();
        for &start in &s.order {
            if s.comp[start as usize] != NONE {
                continue;
            }
            let label = s.comp_root.len() as u32;
            s.comp_root.push(NONE);
            s.comp[start as usize] = label;
            s.walk.clear();
            s.walk.push(start);
            while let Some(v) = s.walk.pop() {
                for rep in neighbors(&packets[v as usize]) {
                    let w = position(rep.min_robot);
                    if s.comp[w as usize] == NONE {
                        s.comp[w as usize] = label;
                        s.walk.push(w);
                    }
                }
            }
        }
        for &v in &s.order {
            let root = &mut s.comp_root[s.comp[v as usize] as usize];
            if *root == NONE && packets[v as usize].count >= 2 {
                *root = v;
            }
        }

        // Algorithm 2: one spanning tree per component with a root.
        s.parent.clear();
        s.parent.resize(n, NONE);
        s.explored.clear();
        s.explored.resize(n, false);
        for &root in s.comp_root.iter().filter(|&&r| r != NONE) {
            s.frontier.clear();
            if policy.bfs_tree {
                // Neighbors enqueued in increasing port order.
                s.explored[root as usize] = true;
                s.frontier.push((root, NONE));
                let mut head = 0;
                while let Some(&(v, _)) = s.frontier.get(head) {
                    head += 1;
                    for rep in neighbors(&packets[v as usize]) {
                        let w = position(rep.min_robot);
                        if !s.explored[w as usize] {
                            s.explored[w as usize] = true;
                            s.parent[w as usize] = v;
                            s.frontier.push((w, v));
                        }
                    }
                }
            } else {
                // Neighbors pushed in decreasing port order, so the
                // smallest port is expanded first.
                s.frontier.push((root, NONE));
                while let Some((v, from)) = s.frontier.pop() {
                    if s.explored[v as usize] {
                        continue;
                    }
                    s.explored[v as usize] = true;
                    s.parent[v as usize] = from;
                    for rep in neighbors(&packets[v as usize]).iter().rev() {
                        let w = position(rep.min_robot);
                        if !s.explored[w as usize] {
                            s.frontier.push((w, v));
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
            if root == NONE {
                0
            } else if policy.single_path {
                1
            } else {
                packets[root as usize].count as u32 - 1
            }
        }));
        s.blocked.clear();
        s.blocked.resize(n, false);
        s.slots.clear();
        let mut roles = vec![Role::OffPath; ids].into_boxed_slice();
        for &v in &s.order {
            let label = s.comp[v as usize] as usize;
            if s.comp_quota[label] == 0 || !has_empty_neighbor(&packets[v as usize]) {
                continue;
            }
            let root = s.comp_root[label];
            if v == root {
                // The trivial path [root] shares nothing.
                s.slots.push((root, s.slots.len() as u32, SlotMove::Exit));
                s.comp_quota[label] -= 1;
                continue;
            }
            s.walk.clear();
            let mut cur = v;
            let mut disjoint = true;
            while cur != root {
                if s.blocked[cur as usize] {
                    disjoint = false;
                    break;
                }
                s.walk.push(cur);
                cur = s.parent[cur as usize];
            }
            if !disjoint {
                // Every node walked leads to the kept path just met, and
                // kept paths never go away: later walks may stop here.
                for &x in &s.walk {
                    s.blocked[x as usize] = true;
                }
                continue;
            }
            s.comp_quota[label] -= 1;
            let first = *s.walk.last().expect("a non-root leaf has a path");
            let toward = port_to(&packets[root as usize], packets[first as usize].sender);
            s.slots
                .push((root, s.slots.len() as u32, SlotMove::Toward(toward)));
            for (i, &x) in s.walk.iter().enumerate() {
                s.blocked[x as usize] = true;
                let node = &packets[x as usize];
                roles[node.sender.index()] = if i == 0 {
                    Role::Leaf
                } else {
                    Role::Interior(port_to(node, packets[s.walk[i - 1] as usize].sender))
                };
            }
        }

        // Group the slots by root, each root's in leaf-ID order. A root
        // that kept no path stays off-path: its robots all stay either way.
        s.slots
            .sort_unstable_by_key(|&(root, rank, _)| (root, rank));
        let mut first = 0;
        for group in s.slots.chunk_by(|a, b| a.0 == b.0) {
            roles[packets[group[0].0 as usize].sender.index()] = Role::Root {
                first: first as u32,
                len: group.len() as u32,
            };
            first += group.len();
        }
        RoundPlan {
            id,
            multiplicity,
            roles,
            root_slots: s.slots.iter().map(|&(_, _, slot)| slot).collect(),
        }
    }

    /// The packet-list identity this plan was built for.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The Move-phase action of the robot observing `view`: the decision
    /// [`sliding::decide_with_policy`] reaches from the same packets.
    pub(crate) fn decide(&self, view: &RobotView, policy: SlidingPolicy) -> Action {
        if !self.multiplicity {
            return Action::Stay;
        }
        let my_node = view.colocated[0];
        let role = self
            .roles
            .get(my_node.index())
            .copied()
            .unwrap_or(Role::OffPath);
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
