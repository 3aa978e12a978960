//! Per-robot round views: everything a robot may legally observe during
//! the Communicate phase of one CCM round.
//!
//! A view owns nothing. It borrows the round's robot index (for its
//! colocated robots and, lazily, its neighbors' robots), the graph and
//! the round's packet table, so writing a view for another node is a
//! handful of word stores.

use dispersion_graph::{NodeId, Port, PortLabeledGraph};

use crate::packet::{PacketRef, PacketTable, Packets, RobotIndex};
use crate::{CommModel, Configuration, ModelSpec, RobotId};

/// What a robot senses about one adjacent node under 1-neighborhood
/// knowledge: the robots there (possibly none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborObservation<'a> {
    /// The port of the robot's node leading to this neighbor.
    pub port: Port,
    /// Robot IDs on the neighbor node, ascending; empty if the node is
    /// empty.
    pub robots: &'a [RobotId],
}

impl NeighborObservation<'_> {
    /// Whether the observed neighbor node is occupied.
    pub fn occupied(&self) -> bool {
        !self.robots.is_empty()
    }
}

/// What a robot with 1-neighborhood knowledge can sense around it, read
/// lazily from the graph and the robot index.
#[derive(Clone, Copy)]
struct Sensing<'a> {
    g: &'a PortLabeledGraph,
    node: NodeId,
    index: &'a RobotIndex,
}

/// The complete legal observation of one robot in one round.
///
/// A view exposes no [`dispersion_graph::NodeId`]: nodes are anonymous,
/// and everything is expressed through ports and robot IDs. Algorithms
/// consume views and nothing else, which keeps them honest with respect
/// to the model — and makes them pure functions the adversary's move
/// oracle can evaluate speculatively.
///
/// Views are built by the engine only — the simulator, the move oracle,
/// and the reference builders [`build_view`] and [`build_views`] — and
/// borrow the round's state: copying one copies a few words.
#[derive(Clone, Copy)]
pub struct RobotView<'a> {
    /// Current round number.
    pub round: u64,
    /// The observing robot.
    pub me: RobotId,
    /// Total number of robots `k` (IDs are `1..=k`; known a priori).
    pub k: usize,
    /// Degree `δ_r` of the robot's current node: its ports are
    /// `1..=degree`.
    pub degree: usize,
    /// The port through which the robot entered its current node during the
    /// previous round's Move phase, if it moved. Port numbers refer to the
    /// *previous* round's graph and may be stale under dynamics.
    pub arrival_port: Option<Port>,
    /// All robots co-located with the observer (including itself),
    /// ascending.
    pub colocated: &'a [RobotId],
    /// Information packets received in the Communicate phase: all occupied
    /// nodes' packets under global communication, only the own node's
    /// packet under local communication, ascending by sender. Read in
    /// place from the round's packet table, whose
    /// [`RoundMemo`](crate::RoundMemo) ([`Packets::memo`]) lets an
    /// algorithm derive round-wide structures from the list once per
    /// round instead of once per robot.
    pub packets: Packets<'a>,
    /// Position of the own node's packet in `packets`.
    own: usize,
    /// `None` without 1-neighborhood knowledge.
    sensing: Option<Sensing<'a>>,
}

impl<'a> RobotView<'a> {
    /// The view of the robots on slot `slot` of `index`: everything but
    /// `me` and `arrival_port`, which the caller fills per robot.
    #[inline]
    pub(crate) fn at_slot(
        g: &'a PortLabeledGraph,
        index: &'a RobotIndex,
        table: &'a PacketTable,
        model: ModelSpec,
        round: u64,
        k: usize,
        slot: usize,
    ) -> Self {
        let mut view = RobotView {
            round,
            me: RobotId::new(1),
            k,
            degree: 0,
            arrival_port: None,
            colocated: &[],
            packets: table.all(index),
            own: 0,
            sensing: model.neighborhood.then(|| Sensing {
                g,
                node: index.node(slot),
                index,
            }),
        };
        view.move_to(index, table, model, slot);
        view
    }

    /// Rewrites the slot-dependent parts of a view built by
    /// [`RobotView::at_slot`] from the same `index`, `table` and `model`
    /// for the robots on slot `slot`: a few word stores.
    #[inline]
    pub(crate) fn move_to(
        &mut self,
        index: &'a RobotIndex,
        table: &'a PacketTable,
        model: ModelSpec,
        slot: usize,
    ) {
        self.colocated = index.robots(slot);
        self.degree = table.degree(slot);
        match model.comm {
            CommModel::Global => self.own = slot,
            CommModel::Local => {
                self.packets = table.own(index, slot);
                self.own = 0;
            }
        }
        if let Some(sensing) = &mut self.sensing {
            sensing.node = index.node(slot);
        }
    }

    /// Per-port neighbor occupancy, one observation per port `1..=degree`
    /// in port order, read lazily from the graph and the robot index.
    /// `None` without 1-neighborhood knowledge.
    pub fn neighbors(&self) -> Option<impl ExactSizeIterator<Item = NeighborObservation<'a>> + 'a> {
        self.sensing.map(|Sensing { g, node, index }| {
            (0..g.degree(node)).map(move |i| {
                let port = Port::from_index(i);
                let (w, _) = g.neighbor_via(node, port).expect("port within the degree");
                NeighborObservation {
                    port,
                    robots: index.robots_at(w),
                }
            })
        })
    }

    /// Ports of the robot's node leading to *empty* neighbors, ascending.
    /// Requires 1-neighborhood knowledge; `None` otherwise.
    pub fn empty_ports(&self) -> Option<Vec<Port>> {
        self.neighbors()
            .map(|obs| obs.filter(|o| !o.occupied()).map(|o| o.port).collect())
    }

    /// The packet describing the robot's own node.
    #[inline]
    pub fn own_packet(&self) -> PacketRef<'a> {
        self.packets.row(self.own)
    }

    /// Position of the own node's packet in [`RobotView::packets`].
    #[inline]
    pub fn own_slot(&self) -> usize {
        self.own
    }

    /// Multiplicity of the robot's own node.
    #[inline]
    pub fn own_count(&self) -> usize {
        self.colocated.len()
    }
}

/// Views are equal when everything they let a robot observe is: the
/// packets and neighbors by content, whichever tables hold them.
impl PartialEq for RobotView<'_> {
    fn eq(&self, other: &Self) -> bool {
        let same_neighbors = match (self.neighbors(), other.neighbors()) {
            (Some(a), Some(b)) => a.eq(b),
            (None, None) => true,
            _ => false,
        };
        self.round == other.round
            && self.me == other.me
            && self.k == other.k
            && self.degree == other.degree
            && self.arrival_port == other.arrival_port
            && self.colocated == other.colocated
            && self.packets == other.packets
            && self.own == other.own
            && same_neighbors
    }
}

impl Eq for RobotView<'_> {}

impl std::fmt::Debug for RobotView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobotView")
            .field("round", &self.round)
            .field("me", &self.me)
            .field("k", &self.k)
            .field("degree", &self.degree)
            .field("arrival_port", &self.arrival_port)
            .field("colocated", &self.colocated)
            .field(
                "neighbors",
                &self.neighbors().map(|obs| obs.collect::<Vec<_>>()),
            )
            .field("packets", &self.packets)
            .finish()
    }
}

/// The views of one round, built from the graph and the configuration
/// alone: the independent reference the simulator's and the oracle's
/// Compute passes are tested against. Owns its robot index and packet
/// table; its views borrow them.
#[derive(Debug)]
pub struct RoundViews<'g> {
    g: &'g PortLabeledGraph,
    model: ModelSpec,
    round: u64,
    k: usize,
    index: RobotIndex,
    table: PacketTable,
    /// `(robot, node, arrival port)` per view, in robot-ID order.
    robots: Vec<(RobotId, NodeId, Option<Port>)>,
}

impl<'g> RoundViews<'g> {
    fn new(
        g: &'g PortLabeledGraph,
        config: &Configuration,
        model: ModelSpec,
        round: u64,
        k: usize,
    ) -> Self {
        assert_eq!(
            g.node_count(),
            config.node_count(),
            "configuration/graph size mismatch"
        );
        let index = RobotIndex::of(config);
        let mut table = PacketTable::default();
        table.rebuild(g, &index, model.neighborhood);
        RoundViews {
            g,
            model,
            round,
            k,
            index,
            table,
            robots: Vec::new(),
        }
    }

    fn view_of(
        &self,
        &(robot, node, arrival_port): &(RobotId, NodeId, Option<Port>),
    ) -> RobotView<'_> {
        let slot = self
            .index
            .slot_of(node)
            .expect("a viewed robot's node is occupied");
        let mut view = RobotView::at_slot(
            self.g,
            &self.index,
            &self.table,
            self.model,
            self.round,
            self.k,
            slot,
        );
        view.me = robot;
        view.arrival_port = arrival_port;
        view
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.robots.len()
    }

    /// Whether there are no views.
    pub fn is_empty(&self) -> bool {
        self.robots.is_empty()
    }

    /// The views in robot-ID order.
    pub fn iter(&self) -> impl Iterator<Item = (RobotId, RobotView<'_>)> {
        self.robots
            .iter()
            .map(|entry| (entry.0, self.view_of(entry)))
    }

    /// The view of `robot`, if it has one.
    pub fn get(&self, robot: RobotId) -> Option<RobotView<'_>> {
        self.robots
            .iter()
            .find(|entry| entry.0 == robot)
            .map(|entry| self.view_of(entry))
    }

    /// The round's full packet list, whatever the communication model.
    pub fn packets(&self) -> Packets<'_> {
        self.table.all(&self.index)
    }
}

/// Builds the view of a single robot standing on node `node_of(me)`; read
/// it with [`RoundViews::get`].
///
/// # Panics
///
/// Panics if `me` is not live in `config`.
pub fn build_view<'g>(
    g: &'g PortLabeledGraph,
    config: &Configuration,
    model: ModelSpec,
    round: u64,
    k: usize,
    me: RobotId,
    arrival_port: Option<Port>,
) -> RoundViews<'g> {
    let v = config.node_of(me).expect("robot must be live");
    let mut views = RoundViews::new(g, config, model, round, k);
    views.robots.push((me, v, arrival_port));
    views
}

/// Builds the views of all live robots for one round. `arrival_port_of`
/// maps a robot to the port it used to enter its node (if it moved last
/// round). Views come in robot-ID order.
///
/// Each view equals the [`build_view`] of the same robot. The views share
/// one packet table, and so one [`RoundMemo`](crate::RoundMemo) under
/// global communication. They cost `O(k + Σ deg)` to build.
pub fn build_views<'g>(
    g: &'g PortLabeledGraph,
    config: &Configuration,
    model: ModelSpec,
    round: u64,
    k: usize,
    arrival_port_of: &dyn Fn(RobotId) -> Option<Port>,
) -> RoundViews<'g> {
    let mut views = RoundViews::new(g, config, model, round, k);
    views
        .robots
        .extend(config.iter().map(|(r, v)| (r, v, arrival_port_of(r))));
    views
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{InfoPacket, NeighborReport};
    use dispersion_graph::{generators, NodeId};

    /// The packet of occupied node `v`, derived from `config` and `g`
    /// alone.
    fn derived_packet(
        g: &PortLabeledGraph,
        config: &Configuration,
        v: NodeId,
        neighborhood: bool,
    ) -> InfoPacket {
        let robots = config.robots_at(v);
        let reports = g
            .neighbors(v)
            .filter_map(|(port, w, _)| {
                let there = config.robots_at(w);
                Some(NeighborReport {
                    port,
                    min_robot: *there.first()?,
                    count: there.len(),
                })
            })
            .collect();
        InfoPacket {
            sender: robots[0],
            count: robots.len(),
            robots,
            degree: neighborhood.then(|| g.degree(v)),
            occupied_neighbors: neighborhood.then_some(reports),
        }
    }

    /// Checks that `view` shows its robot exactly what the model lets it
    /// observe on `g` under `config`: its colocated robots, degree,
    /// neighbors and packets, each derived node by node from
    /// [`Configuration::robots_at`] and the graph's ports — no robot
    /// index or packet table is read, so this is independent of the
    /// code that builds views.
    pub(crate) fn assert_observes(
        view: &RobotView<'_>,
        g: &PortLabeledGraph,
        config: &Configuration,
        model: ModelSpec,
    ) {
        let v = config.node_of(view.me).expect("the observer is live");
        let what = format!("robot {} under {model}", view.me);
        assert_eq!(view.colocated, config.robots_at(v), "{what}: colocated");
        assert_eq!(view.degree, g.degree(v), "{what}: degree");
        let neighbors: Option<Vec<(Port, Vec<RobotId>)>> = view
            .neighbors()
            .map(|obs| obs.map(|o| (o.port, o.robots.to_vec())).collect());
        let expected = model.neighborhood.then(|| {
            g.neighbors(v)
                .map(|(port, w, _)| (port, config.robots_at(w)))
                .collect()
        });
        assert_eq!(neighbors, expected, "{what}: neighbors");
        let own = derived_packet(g, config, v, model.neighborhood);
        assert_eq!(view.own_packet().to_owned(), own, "{what}: own packet");
        let packets = match model.comm {
            CommModel::Global => {
                let mut all: Vec<InfoPacket> = g
                    .nodes()
                    .filter(|&w| !config.robots_at(w).is_empty())
                    .map(|w| derived_packet(g, config, w, model.neighborhood))
                    .collect();
                all.sort_unstable_by_key(|p| p.sender);
                all
            }
            CommModel::Local => vec![own],
        };
        assert_eq!(view.packets.to_vec(), packets, "{what}: packets");
    }

    fn r(i: u32) -> RobotId {
        RobotId::new(i)
    }
    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sample() -> (PortLabeledGraph, Configuration) {
        // Path 0-1-2-3; robots {1,3} on node 1, {2} on node 2.
        let g = generators::path(4).unwrap();
        let c = Configuration::from_pairs(4, [(r(1), v(1)), (r(3), v(1)), (r(2), v(2))]);
        (g, c)
    }

    #[test]
    fn global_view_sees_all_packets() {
        let (g, c) = sample();
        let views = build_views(&g, &c, ModelSpec::GLOBAL_WITH_NEIGHBORHOOD, 0, 3, &|_| None);
        assert_eq!(views.len(), 3);
        let (_, view1) = views.iter().next().unwrap();
        assert_eq!(view1.me, r(1));
        assert_eq!(view1.packets.len(), 2);
        assert_eq!(view1.colocated, &[r(1), r(3)]);
        assert_eq!(view1.own_count(), 2);
        assert_eq!(view1.own_packet().sender(), r(1));
        assert_eq!(view1.own_slot(), 0);
        assert_eq!(views.get(r(2)).unwrap().own_packet().sender(), r(2));
    }

    #[test]
    fn local_view_sees_only_own_packet() {
        let (g, c) = sample();
        let views = build_views(&g, &c, ModelSpec::LOCAL_WITH_NEIGHBORHOOD, 0, 3, &|_| None);
        for (_, view) in views.iter() {
            assert_eq!(view.packets.len(), 1);
            assert_eq!(view.packets.row(0).sender(), view.colocated[0]);
            assert_eq!(view.own_slot(), 0);
        }
        assert_eq!(views.packets().len(), 2, "the table holds every node");
    }

    #[test]
    fn neighborhood_observations_in_port_order() {
        let (g, c) = sample();
        let views = build_views(&g, &c, ModelSpec::GLOBAL_WITH_NEIGHBORHOOD, 0, 3, &|_| None);
        // Robot 2 is on node 2 (degree 2): neighbor via port 1 is node 1
        // (occupied by {1,3}), via port 2 is node 3 (empty).
        let view2 = views.get(r(2)).unwrap();
        let obs: Vec<_> = view2.neighbors().unwrap().collect();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].robots, &[r(1), r(3)]);
        assert!(obs[0].occupied());
        assert!(!obs[1].occupied());
        assert_eq!(view2.empty_ports().unwrap(), vec![obs[1].port]);
    }

    #[test]
    fn blind_view_has_no_neighbors() {
        let (g, c) = sample();
        let views = build_views(&g, &c, ModelSpec::GLOBAL_BLIND, 0, 3, &|_| None);
        for (_, view) in views.iter() {
            assert!(view.neighbors().is_none());
            assert!(view.empty_ports().is_none());
            assert!(view.packets.iter().all(|p| p.degree().is_none()));
        }
    }

    #[test]
    fn write_node_view_matches_build_view() {
        // The Compute pass's per-node view, written node after node from
        // one index and table, against `build_view`, and both against
        // the node-by-node derivation.
        let (g, c) = sample();
        let index = RobotIndex::of(&c);
        let mut table = PacketTable::default();
        for model in [
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        ] {
            table.rebuild(&g, &index, model.neighborhood);
            for (robot, node) in c.iter() {
                let slot = index.slot_of(node).unwrap();
                let mut view = RobotView::at_slot(&g, &index, &table, model, 0, 3, slot);
                view.me = robot;
                assert_observes(&view, &g, &c, model);
                let reference = build_view(&g, &c, model, 0, 3, robot, None);
                let expected = reference.get(robot).unwrap();
                assert_observes(&expected, &g, &c, model);
                assert_eq!(view, expected, "robot {robot} under {model}");
            }
        }
    }

    #[test]
    fn build_views_matches_build_view_in_every_model() {
        // Multiplicities, a lone robot, empty neighbors and a robot on a
        // leaf, over all four Table I models and a few arrival ports.
        let g = generators::star(6).unwrap();
        let configs = [
            Configuration::from_pairs(
                6,
                [
                    (r(4), v(0)),
                    (r(1), v(0)),
                    (r(2), v(3)),
                    (r(6), v(3)),
                    (r(5), v(5)),
                ],
            ),
            Configuration::rooted(6, 5, v(2)),
            Configuration::random(6, 6, 11, true),
        ];
        let models = [
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
            ModelSpec::GLOBAL_BLIND,
            ModelSpec::LOCAL_BLIND,
        ];
        let arrival = |id: RobotId| id.get().is_multiple_of(2).then(|| Port::new(1));
        for c in &configs {
            let k = c.robot_count();
            for model in models {
                let views = build_views(&g, c, model, 3, k, &arrival);
                assert_eq!(views.len(), k);
                for (robot, view) in views.iter() {
                    assert_observes(&view, &g, c, model);
                    let reference = build_view(&g, c, model, 3, k, robot, arrival(robot));
                    let single = reference.get(robot).unwrap();
                    assert_observes(&single, &g, c, model);
                    assert_eq!(view, single, "robot {robot} under {model}");
                    // The packets are those of `build_packets`.
                    let packets = crate::packet::build_packets(&g, c, model.neighborhood);
                    match model.comm {
                        CommModel::Global => assert_eq!(view.packets.to_vec(), packets),
                        CommModel::Local => {
                            let own: Vec<_> = packets
                                .into_iter()
                                .filter(|p| p.sender == view.colocated[0])
                                .collect();
                            assert_eq!(view.packets.to_vec(), own);
                        }
                    }
                }
                // Global views share the call's one memo; local views
                // reach it only when their own packet is the whole list.
                let memo = views.packets().memo().expect("the full list");
                let whole = model.comm == CommModel::Global || c.occupied_count() == 1;
                for (robot, view) in views.iter() {
                    let shared = view.packets.memo().map(|m| std::ptr::eq(m, memo));
                    assert_eq!(shared, whole.then_some(true), "robot {robot} under {model}");
                }
            }
        }
    }

    #[test]
    fn arrival_ports_threaded_through() {
        let (g, c) = sample();
        let views = build_views(&g, &c, ModelSpec::GLOBAL_WITH_NEIGHBORHOOD, 5, 3, &|id| {
            (id == r(2)).then(|| Port::new(1))
        });
        let view2 = views.get(r(2)).unwrap();
        assert_eq!(view2.arrival_port, Some(Port::new(1)));
        assert_eq!(view2.round, 5);
        let view1 = views.get(r(1)).unwrap();
        assert_eq!(view1.arrival_port, None);
    }
}
