//! Aggregation of run outcomes across seeds/instances.
//!
//! Experiment sweeps run the same setting over many seeds; this module
//! folds the outcomes into min/mean/max summaries so harness code doesn't
//! re-implement the arithmetic.

use crate::SimOutcome;

/// The scalar facts of one run that aggregation needs.
///
/// Harnesses that cannot (or should not) hold full [`SimOutcome`]s —
/// e.g. a campaign runner folding thousands of runs, or code that reads
/// results back from an artifact — build these directly and fold them
/// with [`RunSummary::from_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Whether the run dispersed.
    pub dispersed: bool,
    /// Rounds executed.
    pub rounds: u64,
    /// Total robot moves over the run.
    pub moves: u64,
    /// Maximum persistent memory (bits) any robot carried.
    pub max_memory_bits: usize,
    /// Robots crashed during the run.
    pub crashes: usize,
}

impl From<&SimOutcome> for RunStats {
    fn from(o: &SimOutcome) -> Self {
        RunStats {
            dispersed: o.dispersed,
            rounds: o.rounds,
            moves: o.trace.total_moves() as u64,
            max_memory_bits: o.max_memory_bits(),
            crashes: o.crashes,
        }
    }
}

/// Summary of a set of runs of one experimental setting.
///
/// ```
/// use dispersion_engine::stats::RunSummary;
/// # use dispersion_engine::{Configuration, ExecutionTrace, RobotId, SimOutcome};
/// # use dispersion_graph::NodeId;
/// # let mk = |rounds| SimOutcome {
/// #     dispersed: true, rounds, k: 4, crashes: 0,
/// #     final_config: Configuration::from_pairs(4, [(RobotId::new(1), NodeId::new(0))]),
/// #     trace: ExecutionTrace::default(),
/// # };
/// let runs = [mk(3), mk(4)];
/// let s = RunSummary::collect(&runs);
/// assert_eq!(s.max_rounds, 4);
/// assert!(s.within(4));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Number of runs folded in.
    pub samples: usize,
    /// Whether every run dispersed.
    pub all_dispersed: bool,
    /// Minimum rounds across runs.
    pub min_rounds: u64,
    /// Maximum rounds across runs.
    pub max_rounds: u64,
    /// Mean rounds across runs.
    pub mean_rounds: f64,
    /// Maximum total moves across runs.
    pub max_moves: u64,
    /// Mean total moves across runs.
    pub mean_moves: f64,
    /// Maximum persistent memory bits across runs.
    pub max_memory_bits: usize,
    /// Total crashes across runs.
    pub total_crashes: usize,
}

impl RunSummary {
    /// Folds a non-empty set of outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty.
    pub fn collect<'a>(outcomes: impl IntoIterator<Item = &'a SimOutcome>) -> Self {
        Self::from_stats(outcomes.into_iter().map(RunStats::from))
    }

    /// Folds a non-empty set of per-run statistics.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is empty.
    pub fn from_stats(stats: impl IntoIterator<Item = RunStats>) -> Self {
        let mut samples = 0usize;
        let mut all_dispersed = true;
        let mut min_rounds = u64::MAX;
        let mut max_rounds = 0u64;
        let mut sum_rounds = 0u64;
        let mut max_moves = 0u64;
        let mut sum_moves = 0u64;
        let mut max_memory_bits = 0usize;
        let mut total_crashes = 0usize;
        for s in stats {
            samples += 1;
            all_dispersed &= s.dispersed;
            min_rounds = min_rounds.min(s.rounds);
            max_rounds = max_rounds.max(s.rounds);
            sum_rounds += s.rounds;
            max_moves = max_moves.max(s.moves);
            sum_moves += s.moves;
            max_memory_bits = max_memory_bits.max(s.max_memory_bits);
            total_crashes += s.crashes;
        }
        assert!(samples > 0, "cannot summarize zero runs");
        RunSummary {
            samples,
            all_dispersed,
            min_rounds,
            max_rounds,
            mean_rounds: sum_rounds as f64 / samples as f64,
            max_moves,
            mean_moves: sum_moves as f64 / samples as f64,
            max_memory_bits,
            total_crashes,
        }
    }

    /// Whether every run stayed within `bound` rounds — the O(k) /
    /// O(k − f) checks of the sweeps.
    pub fn within(&self, bound: u64) -> bool {
        self.max_rounds <= bound
    }
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} runs: rounds {}..{} (mean {:.1}), dispersed {}, memory ≤ {} bits",
            self.samples,
            self.min_rounds,
            self.max_rounds,
            self.mean_rounds,
            if self.all_dispersed { "all" } else { "NOT all" },
            self.max_memory_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Configuration, ExecutionTrace, RobotId};
    use dispersion_graph::NodeId;

    fn outcome(rounds: u64, dispersed: bool) -> SimOutcome {
        SimOutcome {
            dispersed,
            rounds,
            k: 4,
            crashes: 1,
            final_config: Configuration::from_pairs(4, [(RobotId::new(1), NodeId::new(0))]),
            trace: ExecutionTrace::default(),
        }
    }

    #[test]
    fn collects_min_mean_max() {
        let runs = [outcome(3, true), outcome(7, true), outcome(5, true)];
        let s = RunSummary::collect(&runs);
        assert_eq!(s.samples, 3);
        assert!(s.all_dispersed);
        assert_eq!(s.min_rounds, 3);
        assert_eq!(s.max_rounds, 7);
        assert!((s.mean_rounds - 5.0).abs() < 1e-9);
        assert_eq!(s.total_crashes, 3);
        assert!(s.within(7));
        assert!(!s.within(6));
    }

    #[test]
    fn single_sample_fold_is_degenerate() {
        let runs = [outcome(9, true)];
        let s = RunSummary::collect(&runs);
        assert_eq!(s.samples, 1);
        assert_eq!(s.min_rounds, 9);
        assert_eq!(s.max_rounds, 9);
        assert!((s.mean_rounds - 9.0).abs() < 1e-9);
        assert_eq!(s.total_crashes, 1);
        assert!(s.within(9) && !s.within(8));
    }

    #[test]
    fn from_stats_tracks_moves() {
        let stat = |rounds, moves| RunStats {
            dispersed: true,
            rounds,
            moves,
            max_memory_bits: 3,
            crashes: 0,
        };
        let s = RunSummary::from_stats([stat(2, 10), stat(4, 30)]);
        assert_eq!(s.max_moves, 30);
        assert!((s.mean_moves - 20.0).abs() < 1e-9);
        assert_eq!(s.max_memory_bits, 3);
    }

    #[test]
    fn collect_matches_from_stats() {
        let runs = [outcome(3, true), outcome(7, false)];
        let via_outcomes = RunSummary::collect(&runs);
        let via_stats = RunSummary::from_stats(runs.iter().map(RunStats::from));
        assert_eq!(via_outcomes, via_stats);
    }

    #[test]
    fn flags_failed_runs() {
        let runs = [outcome(3, true), outcome(100, false)];
        let s = RunSummary::collect(&runs);
        assert!(!s.all_dispersed);
        let text = s.to_string();
        assert!(text.contains("NOT all"));
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn empty_rejected() {
        let _ = RunSummary::collect(&[]);
    }
}
