//! Per-robot round views: everything a robot may legally observe during
//! the Communicate phase of one CCM round.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dispersion_graph::{Port, PortLabeledGraph};

use crate::packet::{build_own_packet_with, build_packets_with};
use crate::{CommModel, Configuration, InfoPacket, ModelSpec, RobotId};

/// Mints a fresh packet-list identity for [`RobotView::packets_id`]:
/// nonzero, and never returned twice within the process.
///
/// Whoever fills a view's `packets` mints one identity per distinct list
/// and copies it into every view that carries that list — the simulator
/// once per round under global communication, [`build_views`] once per
/// call. The counter publishes no other data, hence `Relaxed`.
pub(crate) fn next_packets_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The information packets of a view: a reference-counted, immutable
/// list shared by every view that carries it.
///
/// Under global communication every robot of a round receives the same
/// packets, so the simulator builds the list once and each executor
/// participant takes a share of it (one reference-count increment)
/// instead of a copy. The owner rebuilds it in place once the shares are
/// dropped; a write while a share is still out copies the list first,
/// so a held view never changes.
///
/// Reads go through [`Deref`] to `[InfoPacket]`, so `view.packets.iter()`,
/// `view.packets[0]` and `&view.packets` as a `&[InfoPacket]` all work; a
/// hand-built view converts its `Vec` with [`From`]. The empty list
/// allocates nothing. Equality and `Debug` are those of the slice.
#[derive(Clone, Default)]
pub struct PacketList(Option<Arc<Vec<InfoPacket>>>);

impl PacketList {
    /// An empty list; allocates nothing.
    pub const fn new() -> Self {
        PacketList(None)
    }

    /// The list for in-place rebuilding: no allocation when this is the
    /// only share of a list that already exists, a copy when other shares
    /// are out (they keep seeing the old list).
    pub(crate) fn make_mut(&mut self) -> &mut Vec<InfoPacket> {
        Arc::make_mut(self.0.get_or_insert_with(Default::default))
    }
}

impl Deref for PacketList {
    type Target = [InfoPacket];

    fn deref(&self) -> &[InfoPacket] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl From<Vec<InfoPacket>> for PacketList {
    fn from(packets: Vec<InfoPacket>) -> Self {
        PacketList(Some(Arc::new(packets)))
    }
}

impl PartialEq for PacketList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PacketList {}

impl std::fmt::Debug for PacketList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// What a robot senses about one adjacent node under 1-neighborhood
/// knowledge: the robots there (possibly none).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborObservation {
    /// The port of the robot's node leading to this neighbor.
    pub port: Port,
    /// Robot IDs on the neighbor node, ascending; empty if the node is
    /// empty.
    pub robots: Vec<RobotId>,
}

impl NeighborObservation {
    /// Whether the observed neighbor node is occupied.
    pub fn occupied(&self) -> bool {
        !self.robots.is_empty()
    }
}

/// The complete legal observation of one robot in one round.
///
/// A view never contains a [`dispersion_graph::NodeId`]: nodes are
/// anonymous, and everything is expressed through ports and robot IDs.
/// Algorithms consume views and nothing else, which keeps them honest with
/// respect to the model — and makes them pure functions the adversary's
/// move oracle can evaluate speculatively.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RobotView {
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
    pub colocated: Vec<RobotId>,
    /// Per-port neighbor occupancy, present only under 1-neighborhood
    /// knowledge; one entry per port `1..=degree`, in port order.
    pub neighbors: Option<Vec<NeighborObservation>>,
    /// Information packets received in the Communicate phase: all occupied
    /// nodes' packets under global communication, only the own node's
    /// packet under local communication, ascending by sender.
    ///
    /// A [`PacketList`] is shared, not copied: every view of a round under
    /// global communication points at the one list the simulator built.
    /// Read it as a `[InfoPacket]` slice; build one for a hand-made view
    /// with `Vec::into`.
    pub packets: PacketList,
    /// Identity of `packets`. A nonzero value is minted by the engine
    /// (once per round by the simulator, once per call by [`build_view`]
    /// and [`build_views`]), is never reused within the process, and
    /// names one packet list: two views with the same nonzero identity
    /// carry equal `packets`, so an algorithm may derive round-wide
    /// structures from the list once per identity instead of once per
    /// robot. `0` means unknown (a hand-built view): the list must be
    /// read afresh.
    pub packets_id: u64,
}

impl RobotView {
    /// Ports of the robot's node leading to *empty* neighbors, ascending.
    /// Requires 1-neighborhood knowledge; `None` otherwise.
    pub fn empty_ports(&self) -> Option<Vec<Port>> {
        self.neighbors.as_ref().map(|obs| {
            obs.iter()
                .filter(|o| !o.occupied())
                .map(|o| o.port)
                .collect()
        })
    }

    /// The packet describing the robot's own node.
    pub fn own_packet(&self) -> &InfoPacket {
        let mine = self
            .colocated
            .first()
            .expect("observer is always colocated with itself");
        self.packets
            .iter()
            .find(|p| p.sender == *mine)
            .expect("own node always broadcasts a packet")
    }

    /// Multiplicity of the robot's own node.
    pub fn own_count(&self) -> usize {
        self.colocated.len()
    }
}

/// Builds the view of a single robot standing on node `node_of(me)`.
///
/// `packets` must be the full packet list of the round (from
/// [`crate::build_packets`] with the model's neighborhood flag); the
/// function restricts it for local communication. The view gets a fresh
/// [`RobotView::packets_id`] per call.
///
/// # Panics
///
/// Panics if `me` is not live in `config`.
#[allow(clippy::too_many_arguments)] // low-level constructor mirroring the round inputs
pub fn build_view(
    g: &PortLabeledGraph,
    config: &Configuration,
    model: ModelSpec,
    round: u64,
    k: usize,
    me: RobotId,
    arrival_port: Option<Port>,
    packets: &[InfoPacket],
) -> RobotView {
    let v = config.node_of(me).expect("robot must be live");
    let colocated = config.robots_at(v);
    let degree = g.degree(v);
    let neighbors = model.neighborhood.then(|| {
        g.neighbors(v)
            .map(|(port, w, _)| NeighborObservation {
                port,
                robots: config.robots_at(w),
            })
            .collect()
    });
    let own_sender = colocated[0];
    let packets = match model.comm {
        CommModel::Global => packets.to_vec().into(),
        CommModel::Local => packets
            .iter()
            .filter(|p| p.sender == own_sender)
            .cloned()
            .collect::<Vec<_>>()
            .into(),
    };
    RobotView {
        round,
        me,
        k,
        degree,
        arrival_port,
        colocated,
        neighbors,
        packets,
        packets_id: next_packets_id(),
    }
}

/// Overwrites the node-dependent parts of `view` — `degree`, `colocated`,
/// `neighbors` — for a robot standing on node `v`, reusing the buffers.
/// The caller fills the robot-dependent fields (`me`, `arrival_port`)
/// and the packets.
///
/// `node_robots[w]` must list the live robots at node `w`, ascending;
/// rows of unoccupied nodes must be empty.
///
/// `spare` pools observations: moving to a node of smaller degree parks
/// the surplus ones there, and a node of larger degree takes them back,
/// so a warm view stays allocation-free however the degrees vary.
pub(crate) fn write_node_view_with(
    g: &PortLabeledGraph,
    node_robots: &[Vec<RobotId>],
    v: dispersion_graph::NodeId,
    neighborhood: bool,
    view: &mut RobotView,
    spare: &mut Vec<NeighborObservation>,
) {
    view.degree = g.degree(v);
    view.colocated.clear();
    view.colocated.extend_from_slice(&node_robots[v.index()]);
    if neighborhood {
        let obs = view.neighbors.get_or_insert_with(Vec::new);
        let mut filled = 0usize;
        for (port, w, _) in g.neighbors(v) {
            if filled == obs.len() {
                obs.push(spare.pop().unwrap_or_else(|| NeighborObservation {
                    port,
                    robots: Vec::new(),
                }));
            }
            let o = &mut obs[filled];
            o.port = port;
            o.robots.clear();
            o.robots.extend_from_slice(&node_robots[w.index()]);
            filled += 1;
        }
        if filled < obs.len() {
            spare.extend(obs.drain(filled..));
        }
    } else {
        view.neighbors = None;
    }
}

/// Builds the views of all live robots for one round. `arrival_port_of`
/// maps a robot to the port it used to enter its node (if it moved last
/// round). Views are returned in robot-ID order.
///
/// Each view equals the [`build_view`] of the same robot up to its
/// [`RobotView::packets_id`]: under global communication all views share
/// one packet list and one identity minted for the call, under local
/// communication each view's own-node list gets its own. The
/// robot-at-node index is built once per call, so the views cost
/// `O(k + Σ deg)` rather than a configuration scan per robot and per
/// neighbor.
pub fn build_views(
    g: &PortLabeledGraph,
    config: &Configuration,
    model: ModelSpec,
    round: u64,
    k: usize,
    arrival_port_of: &dyn Fn(RobotId) -> Option<Port>,
) -> Vec<(RobotId, RobotView)> {
    let mut node_robots: Vec<Vec<RobotId>> = vec![Vec::new(); g.node_count()];
    let mut occupied = Vec::new();
    for (r, v) in config.iter() {
        let row = &mut node_robots[v.index()];
        if row.is_empty() {
            occupied.push(v);
        }
        row.push(r);
    }
    let mut packets = PacketList::new();
    let mut packets_id = 0;
    if model.comm == CommModel::Global {
        build_packets_with(
            g,
            &node_robots,
            &occupied,
            model.neighborhood,
            packets.make_mut(),
        );
        packets_id = next_packets_id();
    }
    config
        .iter()
        .map(|(r, v)| {
            let mut view = RobotView {
                round,
                me: r,
                k,
                degree: 0,
                arrival_port: arrival_port_of(r),
                colocated: Vec::new(),
                neighbors: None,
                packets: PacketList::new(),
                packets_id,
            };
            write_node_view_with(
                g,
                &node_robots,
                v,
                model.neighborhood,
                &mut view,
                &mut Vec::new(),
            );
            match model.comm {
                CommModel::Global => view.packets = packets.clone(),
                CommModel::Local => {
                    build_own_packet_with(
                        g,
                        &node_robots,
                        v,
                        model.neighborhood,
                        view.packets.make_mut(),
                    );
                    view.packets_id = next_packets_id();
                }
            }
            (r, view)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graph::{generators, NodeId};

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
        let (_, view1) = &views[0];
        assert_eq!(view1.me, r(1));
        assert_eq!(view1.packets.len(), 2);
        assert_eq!(view1.colocated, vec![r(1), r(3)]);
        assert_eq!(view1.own_count(), 2);
        assert_eq!(view1.own_packet().sender, r(1));
    }

    #[test]
    fn local_view_sees_only_own_packet() {
        let (g, c) = sample();
        let views = build_views(&g, &c, ModelSpec::LOCAL_WITH_NEIGHBORHOOD, 0, 3, &|_| None);
        for (_, view) in &views {
            assert_eq!(view.packets.len(), 1);
            assert_eq!(view.packets[0].sender, view.colocated[0]);
        }
    }

    #[test]
    fn neighborhood_observations_in_port_order() {
        let (g, c) = sample();
        let views = build_views(&g, &c, ModelSpec::GLOBAL_WITH_NEIGHBORHOOD, 0, 3, &|_| None);
        // Robot 2 is on node 2 (degree 2): neighbor via port 1 is node 1
        // (occupied by {1,3}), via port 2 is node 3 (empty).
        let (_, view2) = views.iter().find(|(id, _)| *id == r(2)).unwrap();
        let obs = view2.neighbors.as_ref().unwrap();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].robots, vec![r(1), r(3)]);
        assert!(obs[0].occupied());
        assert!(!obs[1].occupied());
        assert_eq!(view2.empty_ports().unwrap(), vec![obs[1].port]);
    }

    #[test]
    fn blind_view_has_no_neighbors() {
        let (g, c) = sample();
        let views = build_views(&g, &c, ModelSpec::GLOBAL_BLIND, 0, 3, &|_| None);
        for (_, view) in &views {
            assert!(view.neighbors.is_none());
            assert!(view.empty_ports().is_none());
        }
    }

    #[test]
    fn write_node_view_matches_build_view() {
        let (g, c) = sample();
        let mut rows: Vec<Vec<RobotId>> = vec![Vec::new(); 4];
        for (robot, node) in c.iter() {
            rows[node.index()].push(robot);
        }
        let mut view = RobotView {
            round: 0,
            me: r(1),
            k: 3,
            degree: 0,
            arrival_port: None,
            colocated: Vec::new(),
            neighbors: None,
            packets: PacketList::new(),
            packets_id: 0,
        };
        // Warm the buffers on node 1 (two colocated robots), then move to
        // node 2: leftovers must be fully overwritten.
        let mut spare = Vec::new();
        write_node_view_with(&g, &rows, v(1), true, &mut view, &mut spare);
        assert_eq!(view.colocated, vec![r(1), r(3)]);
        write_node_view_with(&g, &rows, v(2), true, &mut view, &mut spare);
        view.me = r(2);
        let packets = crate::packet::build_packets(&g, &c, true);
        let reference = build_view(
            &g,
            &c,
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            0,
            3,
            r(2),
            None,
            &packets,
        );
        assert_eq!(view.degree, reference.degree);
        assert_eq!(view.colocated, reference.colocated);
        assert_eq!(view.neighbors, reference.neighbors);
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
                let packets = crate::packet::build_packets(&g, c, model.neighborhood);
                let views = build_views(&g, c, model, 3, k, &arrival);
                assert_eq!(views.len(), k);
                for (robot, view) in &views {
                    let mut single =
                        build_view(&g, c, model, 3, k, *robot, arrival(*robot), &packets);
                    assert_ne!(view.packets_id, 0);
                    assert_ne!(view.packets_id, single.packets_id);
                    single.packets_id = view.packets_id;
                    assert_eq!(view, &single, "robot {robot} under {model}");
                }
                let ids: Vec<u64> = views.iter().map(|(_, view)| view.packets_id).collect();
                if model.comm == CommModel::Global {
                    assert!(ids.iter().all(|&id| id == ids[0]), "one list per call");
                } else {
                    let mut distinct = ids.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), ids.len(), "one list per local view");
                }
            }
        }
    }

    #[test]
    fn packet_list_shares_until_written() {
        let (g, c) = sample();
        let packets = crate::packet::build_packets(&g, &c, true);
        assert!(PacketList::new().is_empty());
        assert_eq!(PacketList::default(), PacketList::from(Vec::new()));

        let mut owner = PacketList::from(packets.clone());
        let share = owner.clone();
        assert_eq!(&*share, packets.as_slice());
        // A write while a share is out copies: the share keeps the old list.
        owner.make_mut().truncate(1);
        assert_eq!(owner.len(), 1);
        assert_eq!(&*share, packets.as_slice());
        assert_ne!(owner, share);
        // Once the share is gone, the owner writes its own list in place.
        drop(share);
        let before = owner.as_ptr();
        owner.make_mut().truncate(0);
        assert_eq!(owner.as_ptr(), before);
        owner.make_mut().extend(packets.iter().cloned());
        assert_eq!(&*owner, packets.as_slice());
        assert_eq!(format!("{owner:?}"), format!("{packets:?}"));
    }

    #[test]
    fn arrival_ports_threaded_through() {
        let (g, c) = sample();
        let views = build_views(&g, &c, ModelSpec::GLOBAL_WITH_NEIGHBORHOOD, 5, 3, &|id| {
            (id == r(2)).then(|| Port::new(1))
        });
        let (_, view2) = views.iter().find(|(id, _)| *id == r(2)).unwrap();
        assert_eq!(view2.arrival_port, Some(Port::new(1)));
        assert_eq!(view2.round, 5);
        let (_, view1) = &views[0];
        assert_eq!(view1.arrival_port, None);
    }
}
