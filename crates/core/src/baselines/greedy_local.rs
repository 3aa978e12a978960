//! A deterministic greedy algorithm for the local model with
//! 1-neighborhood knowledge.

use dispersion_engine::{Action, DispersionAlgorithm, MemoryFootprint, RobotId, RobotView};
use dispersion_graph::Port;

/// Persistent memory: just the identifier width (the strategy is
/// stateless).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GreedyMemory {
    k: usize,
}

impl MemoryFootprint for GreedyMemory {
    fn persistent_bits(&self) -> usize {
        RobotId::bits_for_population(self.k)
    }
}

/// Greedy local dispersion: the smallest robot on a node anchors it; every
/// other robot heads for an empty neighbor (each extra robot picks a
/// distinct empty port by rank), or pushes into an occupied neighbor when
/// no empty one is visible.
///
/// On static graphs this disperses from most configurations; on dynamic
/// graphs Theorem 1 applies — the [`PathTrapAdversary`] keeps it (and any
/// other deterministic local algorithm) from ever finishing, which is
/// exactly what the `exp_table1_row1` experiment demonstrates.
///
/// [`PathTrapAdversary`]: dispersion_engine::adversary::PathTrapAdversary
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyLocal;

impl GreedyLocal {
    /// Creates the algorithm.
    pub fn new() -> Self {
        GreedyLocal
    }
}

impl DispersionAlgorithm for GreedyLocal {
    type Memory = GreedyMemory;

    fn name(&self) -> &str {
        "greedy-local"
    }

    fn init(&self, _me: RobotId, k: usize) -> GreedyMemory {
        GreedyMemory { k }
    }

    fn step(&self, view: &RobotView, memory: &GreedyMemory) -> (Action, GreedyMemory) {
        let mem = memory.clone();
        // The smallest robot anchors the node.
        if view.colocated.first() == Some(&view.me) {
            return (Action::Stay, mem);
        }
        let rank = view
            .colocated
            .iter()
            .position(|&r| r == view.me)
            .expect("observer is colocated with itself"); // ≥ 1 here
        let empties = view
            .empty_ports()
            .expect("greedy-local requires 1-neighborhood knowledge");
        if !empties.is_empty() {
            let p = empties[(rank - 1) % empties.len()];
            return (Action::Move(p), mem);
        }
        if view.degree == 0 {
            return (Action::Stay, mem);
        }
        // No empty neighbor: push into an occupied one, spread by rank.
        let p = Port::new(((rank - 1) % view.degree) as u32 + 1);
        (Action::Move(p), mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::adversary::StaticNetwork;
    use dispersion_engine::{Configuration, ModelSpec, Simulator};
    use dispersion_graph::{generators, NodeId};

    fn run_static(
        g: dispersion_graph::PortLabeledGraph,
        cfg: Configuration,
        max_rounds: u64,
    ) -> dispersion_engine::SimOutcome {
        Simulator::builder(
            GreedyLocal::new(),
            StaticNetwork::new(g),
            ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
            cfg,
        )
        .max_rounds(max_rounds)
        .build()
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn disperses_on_star_in_one_round() {
        let g = generators::star(6).unwrap();
        let out = run_static(g, Configuration::rooted(6, 5, NodeId::new(0)), 100);
        assert!(out.dispersed);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn disperses_on_complete_graph() {
        let g = generators::complete(7).unwrap();
        let out = run_static(g, Configuration::rooted(7, 7, NodeId::new(0)), 200);
        assert!(out.dispersed);
    }

    #[test]
    fn disperses_on_path_eventually() {
        let g = generators::path(8).unwrap();
        let out = run_static(g, Configuration::rooted(8, 5, NodeId::new(3)), 500);
        assert!(out.dispersed);
    }

    #[test]
    fn anchor_never_moves() {
        let g = generators::star(4).unwrap();
        let cfg = Configuration::rooted(4, 3, NodeId::new(0));
        let out = run_static(g, cfg, 50);
        assert!(out.dispersed);
        // Robot 1 (smallest) stays on the original root.
        assert_eq!(
            out.final_config.node_of(RobotId::new(1)),
            Some(NodeId::new(0))
        );
    }

    #[test]
    fn memory_is_log_k() {
        let g = generators::star(10).unwrap();
        let out = run_static(g, Configuration::rooted(10, 9, NodeId::new(0)), 50);
        assert_eq!(out.max_memory_bits(), 4); // ⌈log₂ 9⌉
    }
}
