//! DFS-based dispersion for static graphs from rooted configurations —
//! the classic local-model baseline (Augustine & Moses Jr. 2018;
//! Kshemkalyani & Ali 2019, algorithm (i): `O(m)` time, `O(k log Δ)` bits).
//!
//! All unsettled robots travel as one group. At every fresh node the
//! smallest group member settles and becomes the node's marker; the rest
//! descend through the smallest untried port, backtracking along the
//! recorded port stack when a node is exhausted or already marked. The
//! group's memory is the stack of `(out-port, in-port)` frames along the
//! current root path — `O(n log Δ) = O(k log Δ)` bits in the worst case.
//!
//! Scope: **static** graphs, **rooted** initial configurations (the
//! classic setting). On dynamic graphs a DFS tree cannot be grown
//! consistently — exactly the obstacle the paper's sliding technique was
//! invented to avoid — so this baseline exists to contrast with
//! [`crate::DispersionDynamic`].

use dispersion_engine::{Action, DispersionAlgorithm, MemoryFootprint, RobotId, RobotView};
use dispersion_graph::Port;

/// One DFS descent: the port taken at the parent and the entry port
/// observed at the child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Frame {
    out: Port,
    entry: Port,
}

/// Where the group is in its DFS step cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Round 0 at the root.
    Start,
    /// Moved down through `out` (at the previous node) last round.
    WentDown { out: Port },
    /// Moved back up last round; resume the rotor after `resume_after`.
    CameUp { resume_after: Port },
}

/// Persistent memory of a DFS robot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DfsMemory {
    settled: bool,
    group_size: usize,
    stack: Vec<Frame>,
    phase: Phase,
    k: usize,
}

impl MemoryFootprint for DfsMemory {
    fn persistent_bits(&self) -> usize {
        let id_bits = RobotId::bits_for_population(self.k);
        if self.settled {
            return id_bits + 1;
        }
        let stack_bits: usize = self
            .stack
            .iter()
            .map(|f| {
                dispersion_engine::memory::bits_to_represent(f.out.get() as usize)
                    + dispersion_engine::memory::bits_to_represent(f.entry.get() as usize)
            })
            .sum();
        id_bits + 1 + RobotId::bits_for_population(self.k.max(2)) + stack_bits + 3
    }
}

/// DFS dispersion for static graphs from a rooted configuration, in the
/// local communication model.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalDfs;

impl LocalDfs {
    /// Creates the algorithm.
    pub fn new() -> Self {
        LocalDfs
    }

    /// Smallest port in `1..=degree` not equal to `skip`.
    fn first_port_skipping(degree: usize, skip: Option<Port>) -> Option<Port> {
        (1..=degree as u32)
            .map(Port::new)
            .find(|&p| Some(p) != skip)
    }

    /// Smallest port strictly greater than `after`, not equal to `skip`.
    fn next_port(degree: usize, after: Port, skip: Option<Port>) -> Option<Port> {
        (after.get() + 1..=degree as u32)
            .map(Port::new)
            .find(|&p| Some(p) != skip)
    }
}

impl DispersionAlgorithm for LocalDfs {
    type Memory = DfsMemory;

    fn name(&self) -> &str {
        "local-dfs (static baseline)"
    }

    fn init(&self, _me: RobotId, k: usize) -> DfsMemory {
        DfsMemory {
            settled: false,
            group_size: k,
            stack: Vec::new(),
            phase: Phase::Start,
            k,
        }
    }

    fn step(&self, view: &RobotView, memory: &DfsMemory) -> (Action, DfsMemory) {
        let mut mem = memory.clone();
        if mem.settled {
            return (Action::Stay, mem);
        }
        match mem.phase {
            Phase::Start => {
                // Fresh root: smallest group member settles.
                if view.colocated.first() == Some(&view.me) {
                    mem.settled = true;
                    return (Action::Stay, mem);
                }
                mem.group_size -= 1;
                match Self::first_port_skipping(view.degree, None) {
                    Some(p) => {
                        mem.phase = Phase::WentDown { out: p };
                        (Action::Move(p), mem)
                    }
                    None => (Action::Stay, mem),
                }
            }
            Phase::WentDown { out } => {
                let entry = view.arrival_port.expect("WentDown follows a move");
                let marked = view.colocated.len() == mem.group_size + 1;
                if marked {
                    // Already settled here: bounce straight back.
                    mem.phase = Phase::CameUp { resume_after: out };
                    return (Action::Move(entry), mem);
                }
                // Fresh node: smallest group member settles.
                if view.colocated.first() == Some(&view.me) {
                    mem.settled = true;
                    return (Action::Stay, mem);
                }
                mem.group_size -= 1;
                match Self::first_port_skipping(view.degree, Some(entry)) {
                    Some(p) => {
                        mem.stack.push(Frame { out, entry });
                        mem.phase = Phase::WentDown { out: p };
                        (Action::Move(p), mem)
                    }
                    None => {
                        // Dead end: back up without recording the frame.
                        mem.phase = Phase::CameUp { resume_after: out };
                        (Action::Move(entry), mem)
                    }
                }
            }
            Phase::CameUp { resume_after } => {
                let parent_entry = mem.stack.last().map(|f| f.entry);
                match Self::next_port(view.degree, resume_after, parent_entry) {
                    Some(p) => {
                        mem.phase = Phase::WentDown { out: p };
                        (Action::Move(p), mem)
                    }
                    None => match mem.stack.pop() {
                        Some(frame) => {
                            mem.phase = Phase::CameUp {
                                resume_after: frame.out,
                            };
                            (Action::Move(frame.entry), mem)
                        }
                        None => (Action::Stay, mem), // exploration exhausted
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::adversary::StaticNetwork;
    use dispersion_engine::{Configuration, ModelSpec, Simulator};
    use dispersion_graph::{generators, NodeId, PortLabeledGraph};

    fn dfs_run(g: PortLabeledGraph, k: usize, root: u32) -> dispersion_engine::SimOutcome {
        let n = g.node_count();
        Simulator::builder(
            LocalDfs::new(),
            StaticNetwork::new(g),
            ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(root)),
        )
        .max_rounds(50_000)
        .build()
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn disperses_on_path() {
        let out = dfs_run(generators::path(8).unwrap(), 8, 0);
        assert!(out.dispersed);
    }

    #[test]
    fn disperses_on_path_from_middle() {
        let out = dfs_run(generators::path(9).unwrap(), 9, 4);
        assert!(out.dispersed);
    }

    #[test]
    fn disperses_on_cycle() {
        let out = dfs_run(generators::cycle(10).unwrap(), 7, 2);
        assert!(out.dispersed);
    }

    #[test]
    fn disperses_on_star() {
        let out = dfs_run(generators::star(9).unwrap(), 9, 0);
        assert!(out.dispersed);
    }

    #[test]
    fn disperses_on_grid() {
        let out = dfs_run(generators::grid(3, 4).unwrap(), 10, 5);
        assert!(out.dispersed);
    }

    #[test]
    fn disperses_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::random_connected(14, 0.15, seed).unwrap();
            let out = dfs_run(g, 14, 0);
            assert!(out.dispersed, "seed {seed}");
        }
    }

    #[test]
    fn dfs_time_is_order_m() {
        // DFS visits each edge O(1) times in each direction: rounds ≤ 4m.
        let g = generators::grid(4, 4).unwrap();
        let m = g.edge_count() as u64;
        let out = dfs_run(g, 16, 0);
        assert!(out.dispersed);
        assert!(out.rounds <= 4 * m, "rounds {} vs 4m {}", out.rounds, 4 * m);
    }

    #[test]
    fn memory_grows_with_depth_but_stays_bounded() {
        let g = generators::path(12).unwrap();
        let out = dfs_run(g, 12, 0);
        assert!(out.dispersed);
        // Path of 12: stack depth ≤ 11, each frame two degree-≤2 ports.
        assert!(out.max_memory_bits() <= 4 + 1 + 4 + 11 * 2 + 3 + 8);
    }

    #[test]
    fn port_helpers() {
        assert_eq!(
            LocalDfs::first_port_skipping(3, Some(Port::new(1))),
            Some(Port::new(2))
        );
        assert_eq!(LocalDfs::first_port_skipping(1, Some(Port::new(1))), None);
        assert_eq!(
            LocalDfs::next_port(3, Port::new(1), Some(Port::new(2))),
            Some(Port::new(3))
        );
        assert_eq!(LocalDfs::next_port(2, Port::new(2), None), None);
    }
}
