//! FAULTYDISPERSION (Section VII): Algorithm 4 under crash faults.
//!
//! The paper's crash extension changes nothing in the robots' code — a
//! crashed robot simply vanishes, components are computed over the
//! survivors (possibly splitting a component), and a node emptied by a
//! crash behaves like a never-occupied node afterwards. The engine's
//! [`FaultPlan`] implements the vanishing semantics; this module provides
//! the convenience runner and the Theorem 5 checks.

use dispersion_engine::adversary::DynamicNetwork;
use dispersion_engine::{Configuration, FaultPlan, ModelSpec, SimError, SimOutcome, Simulator};

use crate::DispersionDynamic;

/// Runs Algorithm 4 under a crash-fault plan (Definition 6 /
/// FAULTYDISPERSION): terminates when every *non-faulty* robot stands on
/// a distinct node.
///
/// # Errors
///
/// Propagates simulator errors (invalid adversary graph, too many robots).
pub fn run_with_faults<N: DynamicNetwork>(
    network: N,
    initial: Configuration,
    faults: FaultPlan,
) -> Result<SimOutcome, SimError> {
    Simulator::builder(
        DispersionDynamic::new(),
        network,
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        initial,
    )
    .faults(faults)
    .build()
    .and_then(|mut sim| sim.run())
}

/// Theorem 5's runtime claim, concrete form: with `f` crashes the run
/// finishes within `k − f` rounds plus `slack` (crashes that strike in the
/// very round the algorithm would have finished can defer termination
/// detection by a round).
pub fn theorem5_runtime_holds(outcome: &SimOutcome, slack: u64) -> bool {
    outcome.dispersed && crate::analysis::within_k_minus_f(outcome, slack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::adversary::{EdgeChurnNetwork, StarPairAdversary};
    use dispersion_engine::{CrashEvent, CrashPhase, RobotId};
    use dispersion_graph::NodeId;

    #[test]
    fn fault_free_is_a_special_case() {
        let out = run_with_faults(
            StarPairAdversary::new(10),
            Configuration::rooted(10, 6, NodeId::new(0)),
            FaultPlan::none(),
        )
        .unwrap();
        assert!(out.dispersed);
        assert_eq!(out.crashes, 0);
        assert_eq!(out.rounds, 5);
        assert!(theorem5_runtime_holds(&out, 0));
    }

    #[test]
    fn crashes_shorten_the_run() {
        // Crash 3 of 10 robots immediately: effectively k' = 7.
        let events = (1..=3u32).map(|i| CrashEvent {
            robot: RobotId::new(i * 2),
            round: 0,
            phase: CrashPhase::BeforeCommunicate,
        });
        let out = run_with_faults(
            StarPairAdversary::new(14),
            Configuration::rooted(14, 10, NodeId::new(0)),
            FaultPlan::from_events(events),
        )
        .unwrap();
        assert!(out.dispersed);
        assert_eq!(out.crashes, 3);
        assert_eq!(out.rounds, 6, "7 survivors need 6 rounds");
        assert!(theorem5_runtime_holds(&out, 0));
    }

    #[test]
    fn mid_run_before_communicate_crashes() {
        let events = [
            CrashEvent {
                robot: RobotId::new(5),
                round: 2,
                phase: CrashPhase::BeforeCommunicate,
            },
            CrashEvent {
                robot: RobotId::new(7),
                round: 4,
                phase: CrashPhase::BeforeCommunicate,
            },
        ];
        let out = run_with_faults(
            EdgeChurnNetwork::new(16, 0.2, 3),
            Configuration::rooted(16, 10, NodeId::new(0)),
            FaultPlan::from_events(events),
        )
        .unwrap();
        assert!(out.dispersed);
        assert!(theorem5_runtime_holds(&out, 2));
    }

    #[test]
    fn after_compute_crash_mid_slide() {
        // A robot crashes after computing: it vanishes without moving; the
        // survivors still disperse.
        let events = [CrashEvent {
            robot: RobotId::new(8),
            round: 1,
            phase: CrashPhase::AfterCompute,
        }];
        let out = run_with_faults(
            StarPairAdversary::new(12),
            Configuration::rooted(12, 8, NodeId::new(0)),
            FaultPlan::from_events(events),
        )
        .unwrap();
        assert!(out.dispersed);
        assert_eq!(out.crashes, 1);
        assert!(theorem5_runtime_holds(&out, 2));
        assert_eq!(out.final_config.robot_count(), 7);
    }

    #[test]
    fn many_random_fault_plans_disperse() {
        for seed in 0..8 {
            for phase in [CrashPhase::BeforeCommunicate, CrashPhase::AfterCompute] {
                let plan = FaultPlan::random(12, 4, 8, phase, seed);
                let out = run_with_faults(
                    EdgeChurnNetwork::new(18, 0.15, seed),
                    Configuration::rooted(18, 12, NodeId::new(0)),
                    plan,
                )
                .unwrap();
                assert!(out.dispersed, "seed {seed} phase {phase:?}");
                assert!(
                    theorem5_runtime_holds(&out, 4),
                    "seed {seed} phase {phase:?}: k={} f={} rounds={}",
                    out.k,
                    out.crashes,
                    out.rounds
                );
            }
        }
    }

    #[test]
    fn all_but_one_crash() {
        let plan = FaultPlan::random(6, 5, 3, CrashPhase::BeforeCommunicate, 1);
        let out = run_with_faults(
            EdgeChurnNetwork::new(8, 0.2, 0),
            Configuration::rooted(8, 6, NodeId::new(0)),
            plan,
        )
        .unwrap();
        assert!(out.dispersed);
        assert_eq!(out.final_config.robot_count(), 1);
    }
}
