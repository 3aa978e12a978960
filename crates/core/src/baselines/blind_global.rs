//! A deterministic algorithm for the global-communication model *without*
//! 1-neighborhood knowledge — the victim for the Theorem 2 demonstration.

use dispersion_engine::{Action, DispersionAlgorithm, MemoryFootprint, RobotId, RobotView};
use dispersion_graph::Port;

/// Persistent memory: the identifier width (the port rotation is derived
/// from the round number, which the synchronous model provides).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlindMemory {
    k: usize,
}

impl MemoryFootprint for BlindMemory {
    fn persistent_bits(&self) -> usize {
        RobotId::bits_for_population(self.k)
    }
}

/// Blind global dispersion attempt: the smallest robot on a node anchors
/// it; every other robot walks out through a port that rotates with the
/// round number and its own ID, so that over time every incident edge gets
/// tried. Without neighbor sensing this is about the best a deterministic
/// algorithm can do — and Theorem 2's clique-trap adversary still routes
/// every step back into already-occupied nodes, forever.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlindGlobal;

impl BlindGlobal {
    /// Creates the algorithm.
    pub fn new() -> Self {
        BlindGlobal
    }
}

impl DispersionAlgorithm for BlindGlobal {
    type Memory = BlindMemory;

    fn name(&self) -> &str {
        "blind-global"
    }

    fn init(&self, _me: RobotId, k: usize) -> BlindMemory {
        BlindMemory { k }
    }

    fn step(&self, view: &RobotView, memory: &BlindMemory) -> (Action, BlindMemory) {
        let mem = memory.clone();
        // Global termination detection still works without sensing: the
        // packets reveal every node's multiplicity.
        if !view.packets.iter().any(|p| p.count() >= 2) {
            return (Action::Stay, mem);
        }
        if view.colocated.first() == Some(&view.me) {
            return (Action::Stay, mem);
        }
        if view.degree == 0 {
            return (Action::Stay, mem);
        }
        let spin = view.round as usize + view.me.get() as usize;
        let p = Port::new((spin % view.degree) as u32 + 1);
        (Action::Move(p), mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::adversary::StaticNetwork;
    use dispersion_engine::{Configuration, ModelSpec, Simulator};
    use dispersion_graph::{generators, NodeId};

    fn run_blind(
        g: dispersion_graph::PortLabeledGraph,
        cfg: Configuration,
        max_rounds: u64,
    ) -> dispersion_engine::SimOutcome {
        Simulator::builder(
            BlindGlobal::new(),
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_BLIND,
            cfg,
        )
        .max_rounds(max_rounds)
        .build()
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn disperses_on_static_complete_graph() {
        // On K_n the rotation eventually spreads everyone out.
        let g = generators::complete(6).unwrap();
        let out = run_blind(g, Configuration::rooted(6, 5, NodeId::new(0)), 500);
        assert!(out.dispersed);
    }

    #[test]
    fn disperses_on_static_cycle() {
        let g = generators::cycle(7).unwrap();
        let out = run_blind(g, Configuration::rooted(7, 4, NodeId::new(0)), 2000);
        assert!(out.dispersed);
    }

    #[test]
    fn stops_moving_once_dispersed() {
        let g = generators::cycle(5).unwrap();
        let cfg = Configuration::from_pairs(
            5,
            [
                (RobotId::new(1), NodeId::new(0)),
                (RobotId::new(2), NodeId::new(2)),
            ],
        );
        let out = run_blind(g, cfg, 10);
        assert!(out.dispersed);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn rotation_covers_all_ports() {
        // Degree-3 node: over 3 rounds a stuck extra robot tries all
        // ports. Spot-check the formula.
        for round in 0..6u64 {
            let spin = round as usize + 2;
            let p = (spin % 3) + 1;
            assert!((1..=3).contains(&p));
        }
    }
}
