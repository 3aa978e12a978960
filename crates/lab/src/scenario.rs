//! The complete input of one run.
//!
//! A [`Scenario`] is one cell of the paper's Table I made concrete:
//! algorithm, dynamic network, `n`, `k`, crash faults, placement, round
//! cap, network knobs and seed. Campaign jobs, the CLI's single runs,
//! artifact replays and the golden fixtures all assemble their
//! simulators from it through [`Scenario::builder`].

use dispersion_core::impossibility;
use dispersion_engine::adversary::{
    CliqueTrapAdversary, DynamicNetwork, DynamicRingNetwork, EdgeChurnNetwork, MinProgressSampler,
    PathTrapAdversary, StarPairAdversary, StaticNetwork, TIntervalNetwork,
};
use dispersion_engine::{
    Configuration, CrashPhase, DispersionAlgorithm, FaultPlan, Simulator, SimulatorBuilder,
};
use dispersion_graph::{generators, NodeId};

use crate::job::PanicProbe;
use crate::spec::{AdversaryKind, AlgorithmKind, Placement};

/// Everything one run depends on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Algorithm under test.
    pub algorithm: AlgorithmKind,
    /// Dynamic network it runs against.
    pub network: AdversaryKind,
    /// Nodes.
    pub n: usize,
    /// Robots.
    pub k: usize,
    /// Robots crashed by a seeded fault plan within the first `k/2`
    /// rounds (0 = fault-free).
    pub faults: usize,
    /// Initial placement.
    pub placement: Placement,
    /// Round cap.
    pub max_rounds: u64,
    /// Edge probability of the random networks (churn, static,
    /// t-interval, min-progress).
    pub edge_prob: f64,
    /// Candidate graphs the min-progress sampler scores per round.
    pub candidates: usize,
    /// RNG seed of the network, the placement, the fault plan and the
    /// random-walk baseline; also the replay seed of checked runs.
    pub seed: u64,
}

impl Default for Scenario {
    /// The `run` subcommand's defaults: Algorithm 4 on churn, n = 20,
    /// k = 12, no faults, rooted, seed 7, under the campaign knobs (round
    /// cap 100 000, edge probability 0.1, 8 min-progress candidates).
    fn default() -> Self {
        Scenario {
            algorithm: AlgorithmKind::Alg4,
            network: AdversaryKind::Churn,
            n: 20,
            k: 12,
            faults: 0,
            placement: Placement::Rooted,
            max_rounds: 100_000,
            edge_prob: 0.1,
            candidates: 8,
            seed: 7,
        }
    }
}

impl Scenario {
    /// Checks the scenario can be built.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let (n, k) = (self.n, self.k);
        if k == 0 {
            return Err("k must be ≥ 1".into());
        }
        if n < k {
            return Err(format!("k={k} exceeds n={n}"));
        }
        if self.faults > k {
            return Err(format!("faults {} exceed k={k}", self.faults));
        }
        if !(0.0..=1.0).contains(&self.edge_prob) {
            return Err(format!("edge-prob {} is outside [0, 1]", self.edge_prob));
        }
        let ring = matches!(
            self.network,
            AdversaryKind::StaticCycle | AdversaryKind::Ring | AdversaryKind::BrokenRing
        );
        if ring && n < 3 {
            return Err(format!("network `{}` needs n ≥ 3, got n={n}", self.network));
        }
        Ok(())
    }

    /// The scenario's dynamic network.
    pub fn network(&self) -> Box<dyn DynamicNetwork> {
        let (n, p, seed) = (self.n, self.edge_prob, self.seed);
        match self.network {
            AdversaryKind::Churn => Box::new(EdgeChurnNetwork::new(n, p, seed)),
            AdversaryKind::Static => Box::new(StaticNetwork::new(
                generators::random_connected(n, p, seed).expect("validated n ≥ 1"),
            )),
            AdversaryKind::StaticStar => Box::new(StaticNetwork::new(
                generators::star(n).expect("validated n ≥ 1"),
            )),
            AdversaryKind::StaticCycle => Box::new(StaticNetwork::new(
                generators::cycle(n).expect("validated n ≥ 3"),
            )),
            AdversaryKind::Ring => Box::new(DynamicRingNetwork::new(n, false, seed)),
            AdversaryKind::BrokenRing => Box::new(DynamicRingNetwork::new(n, true, seed)),
            AdversaryKind::StarPair => Box::new(StarPairAdversary::new(n)),
            AdversaryKind::TInterval => Box::new(TIntervalNetwork::new(n, 4, p, seed)),
            AdversaryKind::MinProgress => {
                Box::new(MinProgressSampler::new(n, self.candidates, p, seed))
            }
            AdversaryKind::PathTrap => Box::new(PathTrapAdversary::new(n)),
            AdversaryKind::CliqueTrap => Box::new(CliqueTrapAdversary::new(n)),
            AdversaryKind::PanicProbe => Box::new(PanicProbe { n }),
        }
    }

    /// The scenario's initial configuration.
    pub fn initial_config(&self) -> Configuration {
        let (n, k) = (self.n, self.k);
        match self.placement {
            Placement::Rooted => Configuration::rooted(n, k, NodeId::new(0)),
            Placement::Scattered => Configuration::random(n, k, self.seed, true),
            Placement::NearDispersed => impossibility::near_dispersed_config(n, k),
        }
    }

    /// Assembles one run of `alg` (an implementation of
    /// `self.algorithm`, possibly wrapped): the [`Scenario::network`],
    /// the algorithm's communication model, the
    /// [`Scenario::initial_config`], the round cap, the crash-fault plan
    /// and the seed as the check seed. Callers arm the monitor policy,
    /// engine threads and budget they need.
    pub fn builder<A: DispersionAlgorithm>(
        &self,
        alg: A,
    ) -> SimulatorBuilder<A, Box<dyn DynamicNetwork>> {
        let plan = if self.faults > 0 {
            FaultPlan::random(
                self.k,
                self.faults,
                (self.k as u64 / 2).max(1),
                CrashPhase::BeforeCommunicate,
                self.seed,
            )
        } else {
            FaultPlan::none()
        };
        Simulator::builder(
            alg,
            self.network(),
            self.algorithm.model(),
            self.initial_config(),
        )
        .max_rounds(self.max_rounds)
        .faults(plan)
        .check_seed(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejects(scenario: Scenario, needle: &str) {
        let err = scenario.validate().expect_err(needle);
        assert!(err.contains(needle), "{err}");
    }

    #[test]
    fn default_scenario_is_valid() {
        assert_eq!(Scenario::default().validate(), Ok(()));
    }

    #[test]
    fn rejects_zero_robots() {
        rejects(
            Scenario {
                k: 0,
                ..Scenario::default()
            },
            "k must be ≥ 1",
        );
    }

    #[test]
    fn rejects_more_robots_than_nodes() {
        rejects(
            Scenario {
                n: 5,
                k: 6,
                ..Scenario::default()
            },
            "k=6 exceeds n=5",
        );
    }

    #[test]
    fn rejects_more_faults_than_robots() {
        rejects(
            Scenario {
                faults: 13,
                ..Scenario::default()
            },
            "faults 13 exceed k=12",
        );
    }

    #[test]
    fn rejects_edge_probabilities_outside_the_unit_interval() {
        for edge_prob in [-0.1, 1.5, f64::NAN] {
            rejects(
                Scenario {
                    edge_prob,
                    ..Scenario::default()
                },
                "outside [0, 1]",
            );
        }
        for edge_prob in [0.0, 1.0] {
            let ok = Scenario {
                edge_prob,
                ..Scenario::default()
            };
            assert_eq!(ok.validate(), Ok(()));
        }
    }

    #[test]
    fn rejects_ring_families_below_three_nodes() {
        for network in [
            AdversaryKind::StaticCycle,
            AdversaryKind::Ring,
            AdversaryKind::BrokenRing,
        ] {
            let small = Scenario {
                network,
                n: 2,
                k: 2,
                ..Scenario::default()
            };
            rejects(small, &format!("`{network}` needs n ≥ 3"));
            let three = Scenario { n: 3, ..small };
            assert_eq!(three.validate(), Ok(()));
            assert_eq!(three.network().node_count(), 3);
        }
        // Other families run on two nodes.
        let churn = Scenario {
            n: 2,
            k: 2,
            ..Scenario::default()
        };
        assert_eq!(churn.validate(), Ok(()));
    }
}
