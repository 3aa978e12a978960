//! The Compute pass: one algorithm step per activated robot, each over a
//! view borrowed from the round's robot index and packet table.
//!
//! Three callers run the same pass: the simulator's sequential round
//! loop, each executor participant over the blocks of robots it claims,
//! and the speculative move oracle once per candidate graph. Sharing it
//! is what keeps the oracle's predictions equal to what the round loop
//! would decide on the same graph.

use dispersion_graph::{Port, PortLabeledGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packet::{PacketTable, RobotIndex};
use crate::{Action, Activation, DispersionAlgorithm, ModelSpec, RobotId, RobotView};

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

/// Writes the robots that compute in `round` into `out`, each with its
/// slot in `index`, in robot-ID order. Robots left out stay put and keep
/// their memory.
pub(crate) fn activated_robots_into(
    index: &RobotIndex,
    activation: Activation,
    round: u64,
    out: &mut Vec<(RobotId, u32)>,
) {
    out.clear();
    match activation {
        Activation::FullSync => out.extend_from_slice(index.members()),
        Activation::SemiSync { .. } => out.extend(
            index
                .members()
                .iter()
                .filter(|&&(robot, _)| activated(activation, round, robot)),
        ),
    }
}

/// The round-wide inputs of a Compute pass.
pub(crate) struct RoundInputs<'a, M> {
    pub g: &'a PortLabeledGraph,
    /// The round's robot index.
    pub index: &'a RobotIndex,
    /// The round's packets on `g`, built from `index`.
    pub table: &'a PacketTable,
    /// Per-robot memories, indexed by [`RobotId::index`].
    pub memories: &'a [Option<M>],
    /// Per-robot arrival ports, indexed by [`RobotId::index`].
    pub arrival_ports: &'a [Option<Port>],
    pub model: ModelSpec,
    pub round: u64,
    pub k: usize,
}

/// Runs `algorithm.step` for each `(robot, slot)` of `robots` and hands
/// `decide` the robot, its slot, its action and its next memory, in
/// order.
///
/// Every view borrows the inputs' index and packet table; only when the
/// node changes is the view rewritten for the new node (a few word
/// stores). The pass allocates nothing.
pub(crate) fn compute_pass<A: DispersionAlgorithm>(
    algorithm: &A,
    inputs: &RoundInputs<'_, A::Memory>,
    robots: impl IntoIterator<Item = (RobotId, u32)>,
    mut decide: impl FnMut(RobotId, u32, Action, A::Memory),
) {
    let mut robots = robots.into_iter();
    let Some(mut current) = robots.next() else {
        return;
    };
    let mut view_slot = current.1;
    let mut view = RobotView::at_slot(
        inputs.g,
        inputs.index,
        inputs.table,
        inputs.model,
        inputs.round,
        inputs.k,
        view_slot as usize,
    );
    loop {
        let (robot, slot) = current;
        if slot != view_slot {
            view.move_to(inputs.index, inputs.table, inputs.model, slot as usize);
            view_slot = slot;
        }
        view.me = robot;
        view.arrival_port = inputs.arrival_ports[robot.index()];
        let mem = inputs.memories[robot.index()]
            .as_ref()
            .expect("live robots have memories");
        let (action, next) = algorithm.step(&view, mem);
        decide(robot, slot, action, next);
        match robots.next() {
            Some(next) => current = next,
            None => break,
        }
    }
}
