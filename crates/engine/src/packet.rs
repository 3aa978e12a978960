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

use std::any::Any;
use std::sync::{Mutex, OnceLock, PoisonError};

use dispersion_graph::{NodeId, Port, PortLabeledGraph};

use crate::{Configuration, RobotId};

/// What the sender knows about one *occupied* neighbor node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborReport {
    /// The port at the sender's node leading to this neighbor (an element
    /// of `P_r^occupied(v_i)`).
    pub port: Port,
    /// Smallest robot ID on the neighbor node — the neighbor's identity in
    /// the component construction.
    pub min_robot: RobotId,
    /// Multiplicity at the neighbor node.
    pub count: usize,
}

/// One per-node information packet (Section V).
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// Marks an unoccupied node in [`RobotIndex`]'s node→slot table.
const NO_SLOT: u32 = u32::MAX;

/// The round's robot index: a CSR over the occupied nodes.
///
/// Each occupied node gets a *slot*; slot `s`'s robots are
/// `robots[starts[s]..starts[s + 1]]`, ascending. Slots are numbered in
/// first-seen order over the configuration in robot-ID order, and the
/// first robot seen at a node is its smallest, so slots come out
/// ascending by smallest robot — the packets' sender order. The packet
/// table, the views and the round plan are all indexed by slot.
///
/// [`RobotIndex::rebuild`] is a counting sort over the configuration in
/// one pass — the configuration already counts the robots on every node,
/// so the counting pass is done — and clears the node→slot entries of
/// the previous round's occupied nodes only: `O(k)` per round, nothing
/// allocated per node, and nothing at all once warm.
#[derive(Clone, Debug, Default)]
pub(crate) struct RobotIndex {
    /// Slot of each node, [`NO_SLOT`] when unoccupied. Only the entries
    /// of `nodes` are ever set, and the next rebuild resets just those.
    slot_of_node: Vec<u32>,
    /// The node of each slot: the occupied nodes in slot order.
    nodes: Vec<NodeId>,
    /// `nodes.len() + 1` offsets into `robots`.
    starts: Vec<u32>,
    /// The live robots grouped by slot, ascending within each slot.
    robots: Vec<RobotId>,
    /// Every live robot with its slot, in robot-ID order.
    members: Vec<(RobotId, u32)>,
}

impl RobotIndex {
    /// An index of `config`, built from scratch.
    pub(crate) fn of(config: &Configuration) -> Self {
        let mut index = RobotIndex::default();
        index.rebuild(config);
        index
    }

    /// Rebuilds the index of `config` in place.
    pub(crate) fn rebuild(&mut self, config: &Configuration) {
        let n = config.node_count();
        if self.slot_of_node.len() == n {
            for &v in &self.nodes {
                self.slot_of_node[v.index()] = NO_SLOT;
            }
        } else {
            self.slot_of_node.clear();
            self.slot_of_node.resize(n, NO_SLOT);
        }
        self.nodes.clear();
        self.starts.clear();
        // Every entry is overwritten below: only a new length is filled.
        self.robots.resize(config.robot_count(), RobotId::new(1));
        self.members.clear();
        // A node's slot is numbered when its first robot is seen, and
        // `starts[slot]` runs from the slot's begin offset to its end as
        // its robots are placed.
        let mut end = 0u32;
        for (r, v) in config.iter() {
            let entry = &mut self.slot_of_node[v.index()];
            if *entry == NO_SLOT {
                *entry = self.nodes.len() as u32;
                self.nodes.push(v);
                self.starts.push(end);
                end += config.count_at(v) as u32;
            }
            self.members.push((r, *entry));
            let cursor = &mut self.starts[*entry as usize];
            self.robots[*cursor as usize] = r;
            *cursor += 1;
        }
        // Each entry now holds its slot's end, the next slot's begin:
        // shift them up one place.
        let slots = self.nodes.len();
        self.starts.push(end);
        self.starts.copy_within(0..slots, 1);
        self.starts[0] = 0;
        debug_assert!(
            (1..slots).all(|s| self.robots(s - 1)[0] < self.robots(s)[0]),
            "slots ascend by smallest robot"
        );
    }

    /// The occupied nodes in slot order.
    #[inline]
    pub(crate) fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Every live robot with its slot, in robot-ID order.
    #[inline]
    pub(crate) fn members(&self) -> &[(RobotId, u32)] {
        &self.members
    }

    /// The node of slot `s`.
    #[inline]
    pub(crate) fn node(&self, s: usize) -> NodeId {
        self.nodes[s]
    }

    /// The robots of slot `s`, ascending.
    #[inline]
    pub(crate) fn robots(&self, s: usize) -> &[RobotId] {
        &self.robots[self.starts[s] as usize..self.starts[s + 1] as usize]
    }

    /// The slot of node `v`, if occupied.
    #[inline]
    pub(crate) fn slot_of(&self, v: NodeId) -> Option<usize> {
        match self.slot_of_node[v.index()] {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }

    /// The robots at node `v`, ascending; empty if `v` is unoccupied.
    #[inline]
    pub(crate) fn robots_at(&self, v: NodeId) -> &[RobotId] {
        self.slot_of(v).map_or(&[], |s| self.robots(s))
    }
}

/// One row of a [`PacketTable`]: the packet of one slot, without its
/// robots (they are the index's slice) or its reports (a range of the
/// table's report array). The degree is filled in every model, for the
/// views; packets expose it only under 1-neighborhood knowledge.
#[derive(Clone, Copy, Debug)]
struct PacketRow {
    sender: RobotId,
    count: u32,
    degree: u32,
    reports_start: u32,
    reports_end: u32,
}

/// The packets of one round and one graph: one row per slot of a
/// [`RobotIndex`], plus one contiguous array of neighbor reports and,
/// beside it, each report's neighbor slot.
///
/// Every reader — the views of the Compute pass, the move oracle, the
/// round plan — reads it in place through [`Packets`]; nothing copies a
/// packet. A warm rebuild allocates nothing. The table also owns the
/// [`RoundMemo`] of its packets, which every rebuild empties.
#[derive(Debug, Default)]
pub(crate) struct PacketTable {
    rows: Vec<PacketRow>,
    reports: Vec<NeighborReport>,
    /// The slot of each report's neighbor, parallel to `reports`: what
    /// readers follow instead of looking the neighbor's sender up.
    report_slots: Vec<u32>,
    /// Whether the sensing fields (degree and reports) are observable.
    neighborhood: bool,
    memo: RoundMemo,
}

impl PacketTable {
    /// Rebuilds the table for the robots of `index` standing on `g`, with
    /// an empty memo. `neighborhood` controls whether the sensing fields
    /// are filled.
    pub(crate) fn rebuild(&mut self, g: &PortLabeledGraph, index: &RobotIndex, neighborhood: bool) {
        self.clear();
        self.rows
            .extend(index.nodes().iter().enumerate().map(|(s, &v)| {
                let robots = index.robots(s);
                PacketRow {
                    sender: robots[0],
                    count: robots.len() as u32,
                    degree: g.degree(v) as u32,
                    reports_start: 0,
                    reports_end: 0,
                }
            }));
        if neighborhood {
            for (s, &v) in index.nodes().iter().enumerate() {
                let start = self.reports.len() as u32;
                for (port, w, _) in g.neighbors(v) {
                    if let Some(slot) = index.slot_of(w) {
                        let neighbor = self.rows[slot];
                        self.reports.push(NeighborReport {
                            port,
                            min_robot: neighbor.sender,
                            count: neighbor.count as usize,
                        });
                        self.report_slots.push(slot as u32);
                    }
                }
                let row = &mut self.rows[s];
                row.reports_start = start;
                row.reports_end = self.reports.len() as u32;
            }
        }
        self.neighborhood = neighborhood;
    }

    /// The degree of slot `s`'s node, in every model.
    #[inline]
    pub(crate) fn degree(&self, s: usize) -> usize {
        self.rows[s].degree as usize
    }

    /// Drops every row and empties the memo, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.reports.clear();
        self.report_slots.clear();
        self.memo.clear();
    }

    /// All rows, read through the robots of `index` (the index the table
    /// was built from).
    #[inline]
    pub(crate) fn all<'a>(&'a self, index: &'a RobotIndex) -> Packets<'a> {
        Packets {
            table: self,
            index,
            first: 0,
            len: self.rows.len(),
        }
    }

    /// The one-row window of slot `s`: what a robot there receives under
    /// local communication.
    #[inline]
    pub(crate) fn own<'a>(&'a self, index: &'a RobotIndex, s: usize) -> Packets<'a> {
        assert!(s < self.rows.len(), "slot {s} out of range");
        Packets {
            table: self,
            index,
            first: s,
            len: 1,
        }
    }
}

/// A memo of one value derived from a packet table's packets, shared by
/// every reader of the table — the views of all executor participants,
/// or of one oracle candidate — and emptied with the packets: a value
/// built here can never be read against another round's packets.
///
/// Reached through [`Packets::memo`]. The value is type-erased, so the
/// engine need not know what an algorithm derives; an algorithm that
/// derives the same value from the packets for every robot (as
/// `DispersionDynamic` does under global communication) builds it once
/// per table instead of once per robot. When the table is rebuilt the
/// old value is kept as a spare and handed to the next build to
/// overwrite, so a warm build allocates nothing.
#[derive(Debug, Default)]
pub struct RoundMemo {
    slot: OnceLock<Box<dyn Any + Send + Sync>>,
    /// The value of an earlier packet list of the same table, for
    /// recycling. Locked only inside a build, which runs once per table.
    spare: Mutex<Option<Box<dyn Any + Send + Sync>>>,
}

impl RoundMemo {
    /// The memoized value, built by `build` if this is the first call
    /// since the packets were built; concurrent callers wait for that one
    /// build.
    ///
    /// `build` receives either `T::default()` or the value built for an
    /// earlier packet list of the same table, and must overwrite
    /// whatever of it depends on the packets. Returns `None` when the
    /// memo already holds a value of another type.
    #[inline]
    pub fn get_or_build<T: Any + Send + Sync + Default>(
        &self,
        build: impl FnOnce(&mut T),
    ) -> Option<&T> {
        match self.slot.get() {
            Some(value) => value.downcast_ref(),
            None => self.init(build),
        }
    }

    #[cold]
    #[inline(never)]
    fn init<T: Any + Send + Sync + Default>(&self, build: impl FnOnce(&mut T)) -> Option<&T> {
        self.slot
            .get_or_init(|| {
                // A build that panicked dropped what it took, so a
                // poisoned lock holds nothing half-built.
                let spare = self
                    .spare
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take();
                let mut value = spare
                    .and_then(|spare| spare.downcast::<T>().ok())
                    .unwrap_or_default();
                build(&mut value);
                value
            })
            .downcast_ref()
    }

    /// Empties the memo, keeping its value as the spare.
    fn clear(&mut self) {
        if let Some(value) = self.slot.take() {
            *self.spare.get_mut().unwrap_or_else(PoisonError::into_inner) = Some(value);
        }
    }
}

/// The packets a robot receives: a window of consecutive rows of one
/// round's packet table, read in place — all rows under global
/// communication, the robot's own row under local communication.
///
/// Rows ascend by sender. Equality and `Debug` are those of the packets'
/// contents ([`PacketRef::to_owned`]), whichever table holds them.
#[derive(Clone, Copy)]
pub struct Packets<'a> {
    table: &'a PacketTable,
    index: &'a RobotIndex,
    first: usize,
    len: usize,
}

impl<'a> Packets<'a> {
    /// Number of packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th packet.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> PacketRef<'a> {
        assert!(i < self.len, "packet {i} of {}", self.len);
        PacketRef {
            packets: *self,
            slot: self.first + i,
        }
    }

    /// The packets in order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PacketRef<'a>> + 'a {
        let packets = *self;
        (0..self.len).map(move |i| PacketRef {
            packets,
            slot: packets.first + i,
        })
    }

    /// The position in this list of the packet in position `slot` of the
    /// round's full list (see [`PacketRef::neighbor_slots`]), or `None`
    /// when that packet is not among these (under local communication
    /// only the own packet is).
    #[inline]
    pub fn position(&self, slot: usize) -> Option<usize> {
        slot.checked_sub(self.first).filter(|&i| i < self.len)
    }

    /// The packets as owned [`InfoPacket`]s.
    pub fn to_vec(&self) -> Vec<InfoPacket> {
        self.iter().map(|p| p.to_owned()).collect()
    }

    /// The memo of the round's packet table, when these packets are all
    /// of it: under global communication, and under local communication
    /// when a single node is occupied. A robot that receives only part
    /// of the table gets `None`, so nothing derived from the whole list
    /// is ever read by a robot that cannot see it.
    #[inline]
    pub fn memo(&self) -> Option<&'a RoundMemo> {
        (self.len == self.table.rows.len()).then_some(&self.table.memo)
    }
}

impl PartialEq for Packets<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for Packets<'_> {}

impl std::fmt::Debug for Packets<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One packet of a [`Packets`] list, read in place.
#[derive(Clone, Copy)]
pub struct PacketRef<'a> {
    packets: Packets<'a>,
    /// The row's slot in the table.
    slot: usize,
}

impl<'a> PacketRef<'a> {
    #[inline]
    fn data(&self) -> &'a PacketRow {
        &self.packets.table.rows[self.slot]
    }

    /// Smallest-ID robot on the node; doubles as the node's identity.
    #[inline]
    pub fn sender(&self) -> RobotId {
        self.data().sender
    }

    /// Number of robots on the node (`count(a_i)`).
    #[inline]
    pub fn count(&self) -> usize {
        self.data().count as usize
    }

    /// All robot IDs on the node, ascending.
    #[inline]
    pub fn robots(&self) -> &'a [RobotId] {
        self.packets.index.robots(self.slot)
    }

    /// Degree of the node; `None` without 1-neighborhood knowledge.
    #[inline]
    pub fn degree(&self) -> Option<usize> {
        self.packets
            .table
            .neighborhood
            .then(|| self.data().degree as usize)
    }

    /// Reports for the occupied neighbors, ascending by port; `None`
    /// without 1-neighborhood knowledge.
    #[inline]
    pub fn occupied_neighbors(&self) -> Option<&'a [NeighborReport]> {
        let table = self.packets.table;
        let row = self.data();
        table
            .neighborhood
            .then(|| &table.reports[row.reports_start as usize..row.reports_end as usize])
    }

    /// Where each of [`PacketRef::occupied_neighbors`]' reports points:
    /// its neighbor's position in the round's full packet list, the
    /// sender-ordered list every robot receives under global
    /// communication. Engine bookkeeping beside the paper's packet — the
    /// report's `min_robot` names the same packet — so that readers
    /// follow a position instead of looking a sender up. `None` without
    /// 1-neighborhood knowledge.
    #[inline]
    pub fn neighbor_slots(&self) -> Option<&'a [u32]> {
        let table = self.packets.table;
        let row = self.data();
        table
            .neighborhood
            .then(|| &table.report_slots[row.reports_start as usize..row.reports_end as usize])
    }

    /// Whether the node has an empty neighbor; `None` without
    /// 1-neighborhood knowledge (see [`InfoPacket::has_empty_neighbor`]).
    #[inline]
    pub fn has_empty_neighbor(&self) -> Option<bool> {
        let row = self.data();
        self.packets
            .table
            .neighborhood
            .then(|| row.degree > row.reports_end - row.reports_start)
    }

    /// The packet as an owned [`InfoPacket`].
    pub fn to_owned(&self) -> InfoPacket {
        InfoPacket {
            sender: self.sender(),
            count: self.count(),
            robots: self.robots().to_vec(),
            degree: self.degree(),
            occupied_neighbors: self.occupied_neighbors().map(<[_]>::to_vec),
        }
    }
}

impl PartialEq for PacketRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.sender() == other.sender()
            && self.robots() == other.robots()
            && self.degree() == other.degree()
            && self.occupied_neighbors() == other.occupied_neighbors()
    }
}

impl Eq for PacketRef<'_> {}

impl std::fmt::Debug for PacketRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.to_owned().fmt(f)
    }
}

/// Builds the packets of round `r`: one per occupied node, ascending by
/// sender. `neighborhood` controls whether sensing fields are filled.
///
/// An allocating convenience for tests and for analysis code that
/// inspects a single round: it builds a fresh index and packet table and
/// converts the table's rows. The simulator and the move oracle read
/// their tables in place instead.
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
    let index = RobotIndex::of(config);
    let mut table = PacketTable::default();
    table.rebuild(g, &index, neighborhood);
    table.all(&index).to_vec()
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
        let c =
            Configuration::from_pairs(5, [(r(3), v(1)), (r(5), v(1)), (r(2), v(2)), (r(1), v(4))]);
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
        let c =
            Configuration::from_pairs(5, [(r(3), v(1)), (r(5), v(1)), (r(2), v(2)), (r(1), v(4))]);
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
        let c =
            Configuration::from_pairs(3, [(r(1), v(0)), (r(2), v(1)), (r(3), v(1)), (r(4), v(2))]);
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
        let c1 =
            Configuration::from_pairs(5, [(r(3), v(1)), (r(5), v(1)), (r(2), v(2)), (r(1), v(4))]);
        let c2 = Configuration::from_pairs(5, [(r(1), v(0)), (r(2), v(3))]);
        // One index and one table, reused like the simulator's. Fill them
        // from the big configuration, then overwrite with the small one:
        // stale slots, rows and reports must not survive.
        let mut index = RobotIndex::default();
        let mut table = PacketTable::default();
        index.rebuild(&c1);
        table.rebuild(&g, &index, true);
        assert_eq!(table.all(&index).to_vec(), build_packets(&g, &c1, true));
        index.rebuild(&c2);
        table.rebuild(&g, &index, true);
        assert_eq!(table.all(&index).to_vec(), build_packets(&g, &c2, true));
        assert_eq!(index.nodes().len(), 2);
        for node in 0..5 {
            assert_eq!(index.robots_at(v(node)), c2.robots_at(v(node)).as_slice());
        }
        // The own-packet window picks exactly node v's packet.
        index.rebuild(&c1);
        table.rebuild(&g, &index, true);
        let own_slot = index.slot_of(v(1)).unwrap();
        let own = table.own(&index, own_slot);
        assert_eq!(own.len(), 1);
        assert_eq!(own.to_vec()[0], build_packets(&g, &c1, true)[2]);
        // Each report's slot names its neighbor's packet in the full list.
        let all = table.all(&index);
        for p in all.iter() {
            let reports = p.occupied_neighbors().unwrap();
            let slots = p.neighbor_slots().unwrap();
            assert_eq!(reports.len(), slots.len());
            for (rep, &slot) in reports.iter().zip(slots) {
                assert_eq!(all.row(slot as usize).sender(), rep.min_robot);
                assert_eq!(all.position(slot as usize), Some(slot as usize));
                assert_eq!(
                    own.position(slot as usize),
                    (slot as usize == own_slot).then_some(0)
                );
            }
        }
    }

    #[test]
    fn memo_lives_as_long_as_its_packets() {
        let g = generators::path(5).unwrap();
        let c = Configuration::from_pairs(5, [(r(1), v(0)), (r(2), v(0)), (r(3), v(3))]);
        let index = RobotIndex::of(&c);
        let mut table = PacketTable::default();
        table.rebuild(&g, &index, true);
        let builds = std::cell::Cell::new(0);
        let count = |value: &mut Vec<usize>| {
            builds.set(builds.get() + 1);
            value.push(builds.get());
        };
        // One build per table, whichever view asks.
        let memo = table.all(&index).memo().expect("the full list");
        assert_eq!(memo.get_or_build(count), Some(&vec![1]));
        assert_eq!(memo.get_or_build(count), Some(&vec![1]));
        assert_eq!(memo.get_or_build(|_: &mut u8| unreachable!()), None);
        assert!(
            table.own(&index, 0).memo().is_none(),
            "one row of two is not the list"
        );
        // A rebuild empties the memo and hands the old value to the next
        // build; so does a clear.
        table.rebuild(&g, &index, true);
        let memo = table.all(&index).memo().unwrap();
        assert_eq!(memo.get_or_build(count), Some(&vec![1, 2]));
        table.clear();
        let memo = table.all(&index).memo().unwrap();
        assert_eq!(memo.get_or_build(count), Some(&vec![1, 2, 3]));
        // A spare of another type is dropped, not reused.
        table.rebuild(&g, &index, true);
        let memo = table.all(&index).memo().unwrap();
        assert_eq!(memo.get_or_build(|x: &mut u8| *x = 7), Some(&7));
        table.rebuild(&g, &index, true);
        let memo = table.all(&index).memo().unwrap();
        assert_eq!(memo.get_or_build(count), Some(&vec![4]));
        // With one occupied node the own row is the whole list.
        let lone = RobotIndex::of(&Configuration::rooted(5, 3, v(2)));
        table.rebuild(&g, &lone, true);
        assert!(table.own(&lone, 0).memo().is_some());
    }

    #[test]
    fn index_slots_ascend_by_smallest_robot() {
        // Robot 1 sits on the highest node, so slot order is not node order.
        let c = Configuration::from_pairs(
            6,
            [
                (r(4), v(0)),
                (r(1), v(5)),
                (r(6), v(0)),
                (r(2), v(3)),
                (r(3), v(5)),
            ],
        );
        let index = RobotIndex::of(&c);
        assert_eq!(index.nodes(), &[v(5), v(3), v(0)]);
        assert_eq!(index.robots(0), &[r(1), r(3)]);
        assert_eq!(index.robots(1), &[r(2)]);
        assert_eq!(index.robots(2), &[r(4), r(6)]);
        assert_eq!(index.slot_of(v(1)), None);
        assert!(index.robots_at(v(1)).is_empty());
    }

    #[test]
    fn reports_are_port_ordered() {
        // Star center 0 occupied, leaves 2 and 4 occupied (ports 2 and 4).
        let g = generators::star(5).unwrap();
        let c = Configuration::from_pairs(5, [(r(1), v(0)), (r(2), v(2)), (r(3), v(4))]);
        let packets = build_packets(&g, &c, true);
        let center = packets.iter().find(|p| p.sender == r(1)).unwrap();
        let reports = center.occupied_neighbors.as_ref().unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].port < reports[1].port);
    }
}
