//! Theorem 3: the `Ω(k)` time lower bound, executable.
//!
//! The star-pair adversary ([`StarPairAdversary`]) limits *any* algorithm
//! to at most one newly visited node per round while keeping the dynamic
//! diameter at 3. From a rooted configuration, occupying `k` distinct
//! nodes therefore takes at least `k − 1` rounds — and Algorithm 4 matches
//! this exactly, which is how Theorems 3 + 4 give the tight `Θ(k)`.

use dispersion_engine::adversary::StarPairAdversary;
use dispersion_engine::{Configuration, ModelSpec, SimError, SimOutcome, Simulator, TracePolicy};
use dispersion_graph::NodeId;

use crate::DispersionDynamic;

/// Outcome of one lower-bound run plus the quantities Theorem 3 talks
/// about.
#[derive(Clone, Debug)]
pub struct LowerBoundReport {
    /// Robots.
    pub k: usize,
    /// Nodes.
    pub n: usize,
    /// Rounds Algorithm 4 needed against the star-pair adversary.
    pub rounds: u64,
    /// The theorem's floor: `k − 1` (one new node per round from a rooted
    /// start).
    pub floor: u64,
    /// Maximum newly-occupied nodes observed in any single round (the
    /// adversary caps it at 1).
    pub max_new_per_round: usize,
    /// Dynamic diameter over the run (the theorem promises `O(1)`,
    /// concretely ≤ 3).
    pub dynamic_diameter: usize,
}

impl LowerBoundReport {
    /// Whether the run witnessed the tight bound: the algorithm used at
    /// least `k − 1` rounds, gained at most one node per round, and the
    /// diameter stayed constant.
    pub fn is_tight(&self) -> bool {
        self.rounds >= self.floor && self.max_new_per_round <= 1 && self.dynamic_diameter <= 3
    }
}

/// Runs Algorithm 4 against the Theorem 3 adversary from the rooted
/// configuration (all `k` robots on node 0 of an `n`-node dynamic tree)
/// and reports the lower-bound quantities.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if the run fails to disperse (Algorithm 4 always does).
pub fn run_lower_bound(n: usize, k: usize) -> Result<LowerBoundReport, SimError> {
    let outcome: SimOutcome = Simulator::builder(
        DispersionDynamic::new(),
        StarPairAdversary::new(n),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .trace(TracePolicy::RoundsAndGraphs)
    .build()?
    .run()?;
    assert!(outcome.dispersed, "Algorithm 4 must disperse (Theorem 4)");
    let max_new_per_round = outcome
        .trace
        .records
        .iter()
        .map(|r| r.newly_occupied)
        .max()
        .unwrap_or(0);
    let dynamic_diameter = outcome
        .trace
        .graphs
        .as_ref()
        .and_then(|g| g.dynamic_diameter())
        .unwrap_or(0);
    Ok(LowerBoundReport {
        k,
        n,
        rounds: outcome.rounds,
        floor: k.saturating_sub(1) as u64,
        max_new_per_round,
        dynamic_diameter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_is_tight_across_k() {
        for k in [2usize, 3, 5, 8, 13, 21] {
            let report = run_lower_bound(k + 4, k).unwrap();
            assert!(report.is_tight(), "k={k}: {report:?}");
            assert_eq!(report.rounds, report.floor, "Algorithm 4 matches exactly");
        }
    }

    #[test]
    fn diameter_stays_three() {
        let report = run_lower_bound(20, 12).unwrap();
        assert_eq!(report.dynamic_diameter, 3);
    }

    #[test]
    fn one_new_node_per_round() {
        let report = run_lower_bound(16, 10).unwrap();
        assert_eq!(report.max_new_per_round, 1);
    }

    #[test]
    fn k_equals_n_still_tight() {
        let report = run_lower_bound(9, 9).unwrap();
        assert!(report.rounds >= report.floor);
        assert!(report.is_tight());
    }
}
