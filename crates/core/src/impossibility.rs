//! Theorems 1 and 2, executable: the trap adversaries versus deterministic
//! victims.
//!
//! The theorems say *no* deterministic algorithm can solve dispersion when
//! either global communication (Theorem 1) or 1-neighborhood knowledge
//! (Theorem 2) is dropped. An experiment cannot quantify over all
//! algorithms, but it can (a) run the proofs' adversary constructions
//! against natural deterministic victims and watch them fail forever, and
//! (b) verify the adversaries' internal certificates — a round is only
//! "trapped" when the adversary *verified through the move oracle* that
//! the end-of-round configuration stays undispersed (Thm 1) or that no
//! new node is visited (Thm 2). Zero `trap_misses` over `rounds` rounds
//! therefore certifies the construction did to this victim exactly what
//! the proof promises to do to every algorithm.

use dispersion_engine::adversary::{CliqueTrapAdversary, PathTrapAdversary};
use dispersion_engine::{Configuration, ModelSpec, RobotId, SimError, Simulator};
use dispersion_graph::NodeId;

use crate::baselines::{BlindGlobal, GreedyLocal};

/// Result of one trap run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrapReport {
    /// Robots.
    pub k: usize,
    /// Rounds executed under the trap.
    pub rounds: u64,
    /// Whether the victim ever reached a dispersion configuration (the
    /// theorems say it must not).
    pub dispersed: bool,
    /// Rounds in which the adversary failed to certify its trap via the
    /// move oracle (expected 0 from the proofs' configurations).
    pub trap_misses: u64,
    /// Nodes newly occupied over the whole run (Theorem 2's construction
    /// additionally forces this to 0).
    pub total_new_nodes: usize,
}

/// The Fig. 1 / proof-of-Theorem-2 starting configuration: `k` robots on
/// `k − 1` nodes, robots 1 and 2 sharing node 0.
pub fn near_dispersed_config(n: usize, k: usize) -> Configuration {
    assert!(k >= 2 && k <= n, "need 2 ≤ k ≤ n");
    Configuration::from_pairs(
        n,
        (1..=k as u32).map(|i| (RobotId::new(i), NodeId::new(i.saturating_sub(2)))),
    )
}

/// Theorem 1 demonstration: [`GreedyLocal`] (deterministic, local
/// communication, 1-neighborhood knowledge, unlimited memory allowed)
/// against the path-trap adversary for `rounds` rounds.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_path_trap(n: usize, k: usize, rounds: u64) -> Result<TrapReport, SimError> {
    let mut sim = Simulator::builder(
        GreedyLocal::new(),
        PathTrapAdversary::new(n),
        ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        near_dispersed_config(n, k),
    )
    .max_rounds(rounds)
    .build()?;
    let outcome = sim.run()?;
    let total_new_nodes = outcome.trace.records.iter().map(|r| r.newly_occupied).sum();
    Ok(TrapReport {
        k,
        rounds: outcome.rounds,
        dispersed: outcome.dispersed,
        trap_misses: sim.network().trap_misses(),
        total_new_nodes,
    })
}

/// Theorem 2 demonstration: [`BlindGlobal`] (deterministic, global
/// communication, no 1-neighborhood knowledge, unlimited memory allowed)
/// against the clique-trap adversary for `rounds` rounds.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_clique_trap(n: usize, k: usize, rounds: u64) -> Result<TrapReport, SimError> {
    let mut sim = Simulator::builder(
        BlindGlobal::new(),
        CliqueTrapAdversary::new(n),
        ModelSpec::GLOBAL_BLIND,
        near_dispersed_config(n, k),
    )
    .max_rounds(rounds)
    .build()?;
    let outcome = sim.run()?;
    let total_new_nodes = outcome.trace.records.iter().map(|r| r.newly_occupied).sum();
    Ok(TrapReport {
        k,
        rounds: outcome.rounds,
        dispersed: outcome.dispersed,
        trap_misses: sim.network().trap_misses(),
        total_new_nodes,
    })
}

/// Control run: the *same* victim model as Theorem 1 but with global
/// communication restored (and the same trap adversary replaced by the
/// paper's algorithm requirements) disperses — the impossibility is about
/// the model, not the victim. Returns the rounds Algorithm 4 takes from
/// the same starting configuration under an oblivious dynamic network.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_control_with_full_model(n: usize, k: usize) -> Result<u64, SimError> {
    let outcome = Simulator::builder(
        crate::DispersionDynamic::new(),
        dispersion_engine::adversary::EdgeChurnNetwork::new(n, 0.2, 7),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        near_dispersed_config(n, k),
    )
    .build()?
    .run()?;
    assert!(outcome.dispersed);
    Ok(outcome.rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_traps_greedy_local() {
        for k in [5usize, 6, 8] {
            let report = run_path_trap(k + 4, k, 200).unwrap();
            assert!(!report.dispersed, "k={k} escaped the Theorem 1 trap");
            assert_eq!(report.rounds, 200);
            assert_eq!(report.trap_misses, 0);
        }
    }

    #[test]
    fn theorem2_traps_blind_global() {
        for k in [3usize, 4, 6, 9] {
            let report = run_clique_trap(k + 4, k, 200).unwrap();
            assert!(!report.dispersed, "k={k} escaped the Theorem 2 trap");
            assert_eq!(report.trap_misses, 0);
            assert_eq!(
                report.total_new_nodes, 0,
                "Theorem 2 forbids any new node, k={k}"
            );
        }
    }

    #[test]
    fn control_disperses_under_full_model() {
        let rounds = run_control_with_full_model(10, 6).unwrap();
        assert!(rounds <= 6);
    }

    #[test]
    fn near_dispersed_shape() {
        let cfg = near_dispersed_config(8, 5);
        assert_eq!(cfg.robot_count(), 5);
        assert_eq!(cfg.occupied_count(), 4);
        assert_eq!(cfg.multiplicity_nodes(), vec![NodeId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "2 ≤ k ≤ n")]
    fn near_dispersed_validates() {
        let _ = near_dispersed_config(3, 5);
    }
}
