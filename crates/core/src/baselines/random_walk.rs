//! Randomized dispersion baseline: anchored random walks.

use dispersion_engine::{Action, DispersionAlgorithm, MemoryFootprint, RobotId, RobotView};
use dispersion_graph::Port;

/// Persistent memory of a walker: its PRNG state (the randomness of the
/// paper \[29\] lives in robot memory; we seed it per robot and count its
/// bits honestly) plus the identifier width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkMemory {
    state: u64,
    k: usize,
}

impl WalkMemory {
    /// Splitmix64 step: returns the next output and advances the state.
    fn next(&self) -> (u64, WalkMemory) {
        let mut z = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let state = z;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31), WalkMemory { state, k: self.k })
    }
}

impl MemoryFootprint for WalkMemory {
    fn persistent_bits(&self) -> usize {
        64 + RobotId::bits_for_population(self.k)
    }
}

/// Anchored random walk (in the spirit of Molla & Moses Jr., *Dispersion
/// of Mobile Robots: The Power of Randomness*): the smallest robot on a
/// node settles; everyone else steps through a uniformly random port.
/// Disperses with probability 1 on static connected graphs; used as a
/// randomized comparison series in the benchmarks.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalk {
    seed: u64,
}

impl RandomWalk {
    /// Creates a walker population deriving per-robot PRNGs from `seed`.
    pub fn new(seed: u64) -> Self {
        RandomWalk { seed }
    }
}

impl DispersionAlgorithm for RandomWalk {
    type Memory = WalkMemory;

    fn name(&self) -> &str {
        "random-walk"
    }

    fn init(&self, me: RobotId, k: usize) -> WalkMemory {
        WalkMemory {
            state: self
                .seed
                .wrapping_mul(0xff51_afd7_ed55_8ccd)
                .wrapping_add(u64::from(me.get()) << 17),
            k,
        }
    }

    fn step(&self, view: &RobotView, memory: &WalkMemory) -> (Action, WalkMemory) {
        if view.colocated.first() == Some(&view.me) || view.degree == 0 {
            return (Action::Stay, memory.clone());
        }
        let (roll, next) = memory.next();
        let p = Port::new((roll % view.degree as u64) as u32 + 1);
        (Action::Move(p), next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::adversary::StaticNetwork;
    use dispersion_engine::{Configuration, ModelSpec, Simulator};
    use dispersion_graph::{generators, NodeId};

    fn walk(
        g: dispersion_graph::PortLabeledGraph,
        cfg: Configuration,
        seed: u64,
        max_rounds: u64,
    ) -> dispersion_engine::SimOutcome {
        Simulator::builder(
            RandomWalk::new(seed),
            StaticNetwork::new(g),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            cfg,
        )
        .max_rounds(max_rounds)
        .build()
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn disperses_on_cycle_whp() {
        let mut successes = 0;
        for seed in 0..5 {
            let g = generators::cycle(8).unwrap();
            let out = walk(g, Configuration::rooted(8, 5, NodeId::new(0)), seed, 50_000);
            if out.dispersed {
                successes += 1;
            }
        }
        assert!(successes >= 4, "random walk should almost always finish");
    }

    #[test]
    fn disperses_on_random_graph() {
        let g = generators::random_connected(15, 0.2, 3).unwrap();
        let out = walk(g, Configuration::rooted(15, 10, NodeId::new(0)), 1, 100_000);
        assert!(out.dispersed);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::cycle(8).unwrap();
        let a = walk(
            g.clone(),
            Configuration::rooted(8, 5, NodeId::new(0)),
            9,
            50_000,
        );
        let b = walk(g, Configuration::rooted(8, 5, NodeId::new(0)), 9, 50_000);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.final_config, b.final_config);
    }

    #[test]
    fn memory_counts_prng_state() {
        let g = generators::cycle(6).unwrap();
        let out = walk(g, Configuration::rooted(6, 4, NodeId::new(0)), 0, 50_000);
        assert_eq!(out.max_memory_bits(), 64 + 2);
    }

    #[test]
    fn splitmix_advances() {
        let m = WalkMemory { state: 1, k: 4 };
        let (a, m2) = m.next();
        let (b, _) = m2.next();
        assert_ne!(a, b);
        assert_ne!(m.state, m2.state);
    }
}
