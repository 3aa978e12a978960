//! Information packets, Section V of the paper.
//!
//! At the start of each round, the robots on every occupied node agree
//! locally on their smallest-ID member, who broadcasts one *information
//! packet* `InfoPacket_r(v_i) = {a_i, count(a_i), N_r^occupied(v_i),
//! P_r^occupied(v_i)}`. With global communication every robot receives the
//! packets of all occupied nodes; with local communication only the
//! packet of its own node is visible.
//!
//! Nodes are anonymous, so a packet identifies its node by the sender's
//! robot ID, and identifies occupied neighbors by *their* smallest robot
//! IDs. Without 1-neighborhood knowledge the neighbor fields are absent —
//! the robot simply cannot sense them.

use dispersion_graph::{NodeId, Port, PortLabeledGraph};

use crate::{Configuration, RobotId};

/// What the sender knows about one *occupied* neighbor node.
#[derive(Debug, PartialEq, Eq)]
pub struct NeighborReport {
    /// The port at the sender's node leading to this neighbor (an element
    /// of `P_r^occupied(v_i)`).
    pub port: Port,
    /// Smallest robot ID on the neighbor node — the neighbor's identity in
    /// the component construction.
    pub min_robot: RobotId,
    /// Multiplicity at the neighbor node.
    pub count: usize,
    /// All robot IDs on the neighbor node, ascending.
    pub robots: Vec<RobotId>,
}

// Manual `Clone` so `clone_from` reuses the report's buffers; the
// parallel executor refreshes each worker's packet copy element-wise,
// and the derived `clone_from` would reallocate every round.
impl Clone for NeighborReport {
    fn clone(&self) -> Self {
        NeighborReport {
            port: self.port,
            min_robot: self.min_robot,
            count: self.count,
            robots: self.robots.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.port = source.port;
        self.min_robot = source.min_robot;
        self.count = source.count;
        self.robots.clone_from(&source.robots);
    }
}

/// One per-node information packet (Section V).
#[derive(Debug, PartialEq, Eq)]
pub struct InfoPacket {
    /// Smallest-ID robot on the node; doubles as the node's identity.
    pub sender: RobotId,
    /// Number of robots on the node (`count(a_i)`).
    pub count: usize,
    /// All robot IDs on the node, ascending.
    pub robots: Vec<RobotId>,
    /// Degree `δ_r(v_i)` of the node — observable locally (the node's ports
    /// are `1..=δ`), and needed by remote robots to decide whether the node
    /// has an empty neighbor (`degree > occupied_neighbors.len()`).
    /// `None` without 1-neighborhood knowledge (without sensing, reporting
    /// the local degree would leak exactly the information Theorem 2
    /// forbids combining with global communication — we expose it only in
    /// the sensing model where the paper's algorithm needs it).
    pub degree: Option<usize>,
    /// Reports for occupied neighbors (`N_r^occupied` with ports
    /// `P_r^occupied`), ascending by port. `None` without 1-neighborhood
    /// knowledge.
    pub occupied_neighbors: Option<Vec<NeighborReport>>,
}

// Manual `Clone` for the same reason as [`NeighborReport`]: warm
// `clone_from` must reuse the robot list and every neighbor report's
// buffers, keeping the parallel Compute phase allocation-free.
impl Clone for InfoPacket {
    fn clone(&self) -> Self {
        InfoPacket {
            sender: self.sender,
            count: self.count,
            robots: self.robots.clone(),
            degree: self.degree,
            occupied_neighbors: self.occupied_neighbors.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.sender = source.sender;
        self.count = source.count;
        self.robots.clone_from(&source.robots);
        self.degree = source.degree;
        match (&mut self.occupied_neighbors, &source.occupied_neighbors) {
            // Vec's clone_from is element-wise, reusing each report.
            (Some(dst), Some(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl InfoPacket {
    /// Whether the sender's node has at least one empty (unoccupied)
    /// neighbor, i.e. belongs to `LeafNodeSet` if it is in the spanning
    /// tree. `None` without 1-neighborhood knowledge.
    pub fn has_empty_neighbor(&self) -> Option<bool> {
        match (self.degree, &self.occupied_neighbors) {
            (Some(d), Some(occ)) => Some(d > occ.len()),
            _ => None,
        }
    }
}

/// Builds the packets of round `r`: one per occupied node, ascending by
/// sender ID. `neighborhood` controls whether sensing fields are filled.
///
/// Allocating convenience over [`build_packets_into`], used by the
/// adversary oracle and tests; the simulator's round loop uses the
/// `_into` form with reused buffers.
///
/// # Panics
///
/// Panics if the configuration refers to nodes outside `g`.
pub fn build_packets(
    g: &PortLabeledGraph,
    config: &Configuration,
    neighborhood: bool,
) -> Vec<InfoPacket> {
    assert_eq!(
        g.node_count(),
        config.node_count(),
        "configuration/graph size mismatch"
    );
    let mut node_robots: Vec<Vec<RobotId>> = vec![Vec::new(); g.node_count()];
    let mut occupied = Vec::new();
    for (r, v) in config.iter() {
        let row = &mut node_robots[v.index()];
        if row.is_empty() {
            occupied.push(v);
        }
        row.push(r);
    }
    let mut packets = Vec::new();
    build_packets_into(g, &node_robots, &occupied, neighborhood, &mut packets);
    packets
}

/// Writes the round's packets into `out`, one per node of `occupied`,
/// sorted ascending by sender — overwriting `out`'s previous contents
/// in place so a warm buffer makes the whole construction
/// allocation-free.
///
/// `node_robots[w]` must list the live robots at node `w`, ascending;
/// rows of unoccupied nodes must be empty.
pub fn build_packets_into(
    g: &PortLabeledGraph,
    node_robots: &[Vec<RobotId>],
    occupied: &[NodeId],
    neighborhood: bool,
    out: &mut Vec<InfoPacket>,
) {
    build_packets_with(g, node_robots, occupied, neighborhood, out, &mut Vec::new());
}

/// [`build_packets_into`] with a pool of neighbor reports: a packet that
/// needs fewer reports than its slot held parks the rest in `spare`, and
/// a packet that needs more takes them from there. Which node lands in a
/// slot, and how many occupied neighbors it has, changes with every
/// candidate graph; the pool keeps the report buffers alive across those
/// changes, so once warm a rebuild allocates nothing.
pub(crate) fn build_packets_with(
    g: &PortLabeledGraph,
    node_robots: &[Vec<RobotId>],
    occupied: &[NodeId],
    neighborhood: bool,
    out: &mut Vec<InfoPacket>,
    spare: &mut Vec<NeighborReport>,
) {
    for (slot, &v) in occupied.iter().enumerate() {
        write_packet_slot(g, node_robots, v, neighborhood, out, slot, spare);
    }
    out.truncate(occupied.len());
    // Senders are distinct (one packet per node), so an in-place
    // unstable sort is deterministic and allocation-free.
    out.sort_unstable_by_key(|p| p.sender);
}

/// Writes only node `v`'s own packet into `out[0]` — the Communicate
/// phase under *local* communication, where a robot receives nothing
/// from other nodes.
pub fn build_own_packet_into(
    g: &PortLabeledGraph,
    node_robots: &[Vec<RobotId>],
    v: NodeId,
    neighborhood: bool,
    out: &mut Vec<InfoPacket>,
) {
    build_own_packet_with(g, node_robots, v, neighborhood, out, &mut Vec::new());
}

/// [`build_own_packet_into`] with a pool of neighbor reports, as in
/// [`build_packets_with`].
pub(crate) fn build_own_packet_with(
    g: &PortLabeledGraph,
    node_robots: &[Vec<RobotId>],
    v: NodeId,
    neighborhood: bool,
    out: &mut Vec<InfoPacket>,
    spare: &mut Vec<NeighborReport>,
) {
    write_packet_slot(g, node_robots, v, neighborhood, out, 0, spare);
    out.truncate(1);
}

/// Writes the packet of occupied node `v` into `out[slot]`, reusing that
/// slot's buffers (appending a fresh packet only when `out` is short).
///
/// # Panics
///
/// Panics if `v` is unoccupied or `slot > out.len()`.
fn write_packet_slot(
    g: &PortLabeledGraph,
    node_robots: &[Vec<RobotId>],
    v: NodeId,
    neighborhood: bool,
    out: &mut Vec<InfoPacket>,
    slot: usize,
    spare: &mut Vec<NeighborReport>,
) {
    if slot == out.len() {
        out.push(blank_packet());
    }
    write_packet_into(g, node_robots, v, neighborhood, &mut out[slot], spare);
}

/// An empty packet carcass whose buffers a later [`write_packet_into`]
/// will fill — the growth unit of a cold packet buffer.
fn blank_packet() -> InfoPacket {
    InfoPacket {
        sender: RobotId::new(1),
        count: 0,
        robots: Vec::new(),
        degree: None,
        occupied_neighbors: None,
    }
}

/// Writes the packet of occupied node `v` into `p`, reusing `p`'s
/// buffers and taking extra reports from (and parking surplus ones in)
/// `spare`. The slot-addressed core of the builders above.
///
/// # Panics
///
/// Panics if `v` is unoccupied.
fn write_packet_into(
    g: &PortLabeledGraph,
    node_robots: &[Vec<RobotId>],
    v: NodeId,
    neighborhood: bool,
    p: &mut InfoPacket,
    spare: &mut Vec<NeighborReport>,
) {
    let robots = &node_robots[v.index()];
    p.sender = robots[0];
    p.count = robots.len();
    p.robots.clear();
    p.robots.extend_from_slice(robots);
    if neighborhood {
        p.degree = Some(g.degree(v));
        let reports = p.occupied_neighbors.get_or_insert_with(Vec::new);
        let mut filled = 0usize;
        for (port, w, _) in g.neighbors(v) {
            let nbrs = &node_robots[w.index()];
            let Some(&min_robot) = nbrs.first() else {
                continue;
            };
            if filled == reports.len() {
                reports.push(spare.pop().unwrap_or_else(|| NeighborReport {
                    port,
                    min_robot,
                    count: 0,
                    robots: Vec::new(),
                }));
            }
            let rep = &mut reports[filled];
            rep.port = port;
            rep.min_robot = min_robot;
            rep.count = nbrs.len();
            rep.robots.clear();
            rep.robots.extend_from_slice(nbrs);
            filled += 1;
        }
        if filled < reports.len() {
            spare.extend(reports.drain(filled..));
        }
    } else {
        p.degree = None;
        p.occupied_neighbors = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graph::generators;

    fn r(i: u32) -> RobotId {
        RobotId::new(i)
    }
    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn packets_one_per_occupied_node_sorted_by_sender() {
        // Path 0-1-2-3-4; robots: {3,5} on node 1, {2} on node 2, {1} on 4.
        let g = generators::path(5).unwrap();
        let c = Configuration::from_pairs(
            5,
            [(r(3), v(1)), (r(5), v(1)), (r(2), v(2)), (r(1), v(4))],
        );
        let packets = build_packets(&g, &c, true);
        assert_eq!(packets.len(), 3);
        assert_eq!(packets[0].sender, r(1));
        assert_eq!(packets[1].sender, r(2));
        assert_eq!(packets[2].sender, r(3));
        assert_eq!(packets[2].count, 2);
        assert_eq!(packets[2].robots, vec![r(3), r(5)]);
    }

    #[test]
    fn neighbor_reports_cover_occupied_only() {
        let g = generators::path(5).unwrap();
        let c = Configuration::from_pairs(
            5,
            [(r(3), v(1)), (r(5), v(1)), (r(2), v(2)), (r(1), v(4))],
        );
        let packets = build_packets(&g, &c, true);
        // Node 2's neighbors are 1 (occupied, min robot 3) and 3 (empty).
        let p2 = &packets[1];
        assert_eq!(p2.degree, Some(2));
        let reports = p2.occupied_neighbors.as_ref().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].min_robot, r(3));
        assert_eq!(reports[0].count, 2);
        assert_eq!(p2.has_empty_neighbor(), Some(true));
        // Node 4's only neighbor (3) is empty.
        let p1 = &packets[0];
        assert_eq!(p1.occupied_neighbors.as_ref().unwrap().len(), 0);
        assert_eq!(p1.has_empty_neighbor(), Some(true));
    }

    #[test]
    fn no_empty_neighbor_detected() {
        // Path of 3; all nodes occupied: middle node has no empty neighbor.
        let g = generators::path(3).unwrap();
        let c = Configuration::from_pairs(
            3,
            [(r(1), v(0)), (r(2), v(1)), (r(3), v(1)), (r(4), v(2))],
        );
        let packets = build_packets(&g, &c, true);
        let mid = packets.iter().find(|p| p.sender == r(2)).unwrap();
        assert_eq!(mid.has_empty_neighbor(), Some(false));
    }

    #[test]
    fn blind_packets_have_no_sensing_fields() {
        let g = generators::path(3).unwrap();
        let c = Configuration::from_pairs(3, [(r(1), v(0)), (r(2), v(1))]);
        let packets = build_packets(&g, &c, false);
        for p in &packets {
            assert_eq!(p.degree, None);
            assert_eq!(p.occupied_neighbors, None);
            assert_eq!(p.has_empty_neighbor(), None);
        }
    }

    #[test]
    fn warm_buffer_reuse_matches_fresh_build() {
        let g = generators::path(5).unwrap();
        let c1 = Configuration::from_pairs(
            5,
            [(r(3), v(1)), (r(5), v(1)), (r(2), v(2)), (r(1), v(4))],
        );
        let c2 = Configuration::from_pairs(5, [(r(1), v(0)), (r(2), v(3))]);
        let index = |c: &Configuration| {
            let mut rows: Vec<Vec<RobotId>> = vec![Vec::new(); 5];
            let mut occ = Vec::new();
            for (robot, node) in c.iter() {
                if rows[node.index()].is_empty() {
                    occ.push(node);
                }
                rows[node.index()].push(robot);
            }
            (rows, occ)
        };
        // Fill the buffer from the big configuration, then overwrite with
        // the small one: stale packets/reports must not survive.
        let mut buf = Vec::new();
        let (rows, occ) = index(&c1);
        build_packets_into(&g, &rows, &occ, true, &mut buf);
        assert_eq!(buf, build_packets(&g, &c1, true));
        let (rows, occ) = index(&c2);
        build_packets_into(&g, &rows, &occ, true, &mut buf);
        assert_eq!(buf, build_packets(&g, &c2, true));
        // Own-packet form picks exactly node v's packet.
        let (rows, _) = index(&c1);
        build_own_packet_into(&g, &rows, v(1), true, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0], build_packets(&g, &c1, true)[2]);
    }

    #[test]
    fn reports_are_port_ordered() {
        // Star center 0 occupied, leaves 2 and 4 occupied (ports 2 and 4).
        let g = generators::star(5).unwrap();
        let c = Configuration::from_pairs(
            5,
            [(r(1), v(0)), (r(2), v(2)), (r(3), v(4))],
        );
        let packets = build_packets(&g, &c, true);
        let center = packets.iter().find(|p| p.sender == r(1)).unwrap();
        let reports = center.occupied_neighbors.as_ref().unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].port < reports[1].port);
    }
}
