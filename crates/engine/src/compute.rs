//! The Compute pass: one algorithm step per activated robot over a single
//! reusable view.
//!
//! Three callers run the same pass: the simulator's sequential round
//! loop, each executor participant over the blocks of robots it claims,
//! and the speculative move oracle once per candidate graph. Sharing it
//! is what keeps the oracle's predictions equal to what the round loop
//! would decide on the same graph.

use dispersion_graph::{NodeId, Port, PortLabeledGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packet::{build_own_packet_with, build_packets_with};
use crate::view::{next_packets_id, write_node_view_with};
use crate::{
    Action, Activation, CommModel, Configuration, DispersionAlgorithm, ModelSpec,
    NeighborObservation, NeighborReport, PacketList, RobotId, RobotView,
};

/// Whether `robot` computes in `round` under the activation schedule.
fn activated(activation: Activation, round: u64, robot: RobotId) -> bool {
    match activation {
        Activation::FullSync => true,
        Activation::SemiSync { p_percent, seed } => {
            let mix = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(round.wrapping_mul(0xff51_afd7_ed55_8ccd))
                .wrapping_add(u64::from(robot.get()));
            let mut rng = StdRng::seed_from_u64(mix);
            rng.random_range(0..100u8) < p_percent
        }
    }
}

/// Writes the robots that compute in `round` into `out`, in
/// configuration (robot-ID) order. Robots left out stay put and keep
/// their memory.
pub(crate) fn activated_robots_into(
    config: &Configuration,
    activation: Activation,
    round: u64,
    out: &mut Vec<(RobotId, NodeId)>,
) {
    out.clear();
    out.extend(
        config
            .iter()
            .filter(|&(robot, _)| activated(activation, round, robot)),
    );
}

/// The round-wide inputs of a Compute pass.
pub(crate) struct RoundInputs<'a, M> {
    pub g: &'a PortLabeledGraph,
    /// Live robots at each node, ascending; rows of empty nodes are empty.
    pub node_robots: &'a [Vec<RobotId>],
    /// Per-robot memories, indexed by [`RobotId::index`].
    pub memories: &'a [Option<M>],
    /// Per-robot arrival ports, indexed by [`RobotId::index`].
    pub arrival_ports: &'a [Option<Port>],
    pub model: ModelSpec,
    pub round: u64,
    pub k: usize,
}

/// The one view a Compute pass hands every robot, plus the neighbor
/// observations and reports a smaller node or packet left over, parked
/// for the next larger one: once warm, a pass allocates nothing however
/// the degrees and occupancies of successive nodes and graphs vary.
#[derive(Debug)]
pub(crate) struct ViewScratch {
    pub view: RobotView,
    spare_observations: Vec<NeighborObservation>,
    spare_reports: Vec<NeighborReport>,
}

impl ViewScratch {
    /// Empty buffers; nothing is allocated until the first pass.
    pub(crate) fn new() -> Self {
        ViewScratch {
            view: RobotView {
                round: 0,
                me: RobotId::new(1),
                k: 0,
                degree: 0,
                arrival_port: None,
                colocated: Vec::new(),
                neighbors: None,
                packets: PacketList::new(),
                packets_id: 0,
            },
            spare_observations: Vec::new(),
            spare_reports: Vec::new(),
        }
    }

    /// Communicate under global communication: writes the packet list of
    /// the occupied nodes into the view under one fresh identity.
    pub(crate) fn build_packets(
        &mut self,
        g: &PortLabeledGraph,
        node_robots: &[Vec<RobotId>],
        occupied: &[NodeId],
        neighborhood: bool,
    ) {
        build_packets_with(
            g,
            node_robots,
            occupied,
            neighborhood,
            self.view.packets.make_mut(),
            &mut self.spare_reports,
        );
        self.view.packets_id = next_packets_id();
    }
}

/// Runs `algorithm.step` for each `(robot, node)` of `robots` and hands
/// `decide` the robot, its node, its action and its next memory, in
/// order.
///
/// Under global communication the view must already hold the round's
/// packet list under its identity ([`ViewScratch::build_packets`]);
/// under local communication the pass builds each node's own packet
/// under a fresh identity. The node-dependent parts of the view are
/// rewritten only when the node changes, so a warm scratch makes the
/// pass allocation-free.
pub(crate) fn compute_pass<A: DispersionAlgorithm>(
    algorithm: &A,
    inputs: &RoundInputs<'_, A::Memory>,
    robots: impl IntoIterator<Item = (RobotId, NodeId)>,
    scratch: &mut ViewScratch,
    mut decide: impl FnMut(RobotId, NodeId, Action, A::Memory),
) {
    let neighborhood = inputs.model.neighborhood;
    let view = &mut scratch.view;
    view.round = inputs.round;
    view.k = inputs.k;
    let mut view_node = None;
    for (robot, v) in robots {
        if view_node != Some(v) {
            write_node_view_with(
                inputs.g,
                inputs.node_robots,
                v,
                neighborhood,
                view,
                &mut scratch.spare_observations,
            );
            if inputs.model.comm == CommModel::Local {
                build_own_packet_with(
                    inputs.g,
                    inputs.node_robots,
                    v,
                    neighborhood,
                    view.packets.make_mut(),
                    &mut scratch.spare_reports,
                );
                view.packets_id = next_packets_id();
            }
            view_node = Some(v);
        }
        view.me = robot;
        view.arrival_port = inputs.arrival_ports[robot.index()];
        let mem = inputs.memories[robot.index()]
            .as_ref()
            .expect("live robots have memories");
        let (action, next) = algorithm.step(view, mem);
        decide(robot, v, action, next);
    }
}
