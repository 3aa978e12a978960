//! A generic adaptive adversary: sample candidate topologies, keep the
//! one the move oracle scores worst for the robots.
//!
//! The trap adversaries of Theorems 1 and 2 search hand-crafted families;
//! this one searches a *generic* family (seeded random connected graphs
//! with random port labels) and greedily minimizes the number of newly
//! occupied nodes. Against Algorithm 4 it cannot push progress below one
//! new node per round (Lemma 7 holds for every connected graph), which
//! makes it a useful stress test: the Θ(k) bound must survive an
//! adversary that actively optimizes against the algorithm.

use dispersion_graph::generators::{self, RandomGraphScratch};
use dispersion_graph::PortLabeledGraph;

use crate::adversary::DynamicNetwork;
use crate::{Configuration, MoveOracle};

/// Oracle-guided candidate sampler minimizing per-round progress.
///
/// Candidates are generated into retained buffers (the generator's
/// scratch, the candidate and the best graph so far, swapped when a
/// candidate improves), so once warm a round allocates no graph storage.
/// Each candidate comes out of the generator's fused kernel
/// ([`generators::random_connected_relabeled_into`]) already relabeled.
#[derive(Clone, Debug)]
pub struct MinProgressSampler {
    n: usize,
    candidates_per_round: usize,
    extra_edge_prob: f64,
    seed: u64,
    /// Progress the committed graph allowed, per round (for reporting).
    progress_history: Vec<usize>,
    /// Buffers of the candidate generator.
    generator: RandomGraphScratch,
    /// The candidate being scored.
    candidate: Option<PortLabeledGraph>,
    /// The best candidate of the round so far; after the round, the
    /// committed graph lent out to the simulator.
    best: Option<PortLabeledGraph>,
}

impl MinProgressSampler {
    /// Sampler over `n` nodes trying `candidates_per_round` seeded
    /// candidates each round.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, no candidates are allowed, or the probability
    /// is out of range.
    pub fn new(n: usize, candidates_per_round: usize, extra_edge_prob: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(candidates_per_round > 0, "need at least one candidate");
        assert!(
            (0.0..=1.0).contains(&extra_edge_prob),
            "probability must be in [0, 1]"
        );
        MinProgressSampler {
            n,
            candidates_per_round,
            extra_edge_prob,
            seed,
            progress_history: Vec::new(),
            generator: RandomGraphScratch::default(),
            candidate: None,
            best: None,
        }
    }

    /// Progress (newly occupied nodes) the committed graph permitted in
    /// each past round — Lemma 7 predicts every entry ≥ 1 against
    /// Algorithm 4 whenever a multiplicity remained.
    pub fn progress_history(&self) -> &[usize] {
        &self.progress_history
    }

    fn candidate_seed(&self, round: u64, index: usize) -> u64 {
        self.seed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(index as u64)
    }

    /// Writes candidate `index` of `round` into `self.candidate`: a seeded
    /// random connected graph under seeded random port labels.
    fn generate(&mut self, round: u64, index: usize) -> &PortLabeledGraph {
        let s = self.candidate_seed(round, index);
        let (n, p) = (self.n, self.extra_edge_prob);
        let relabel_seed = s ^ 0x00ff_00ff;
        match &mut self.candidate {
            Some(out) => generators::random_connected_relabeled_into(
                n,
                p,
                s,
                relabel_seed,
                &mut self.generator,
                out,
            )
            .expect("n > 0"),
            None => {
                self.candidate = Some(
                    generators::random_connected_relabeled(n, p, s, relabel_seed).expect("n > 0"),
                )
            }
        }
        self.candidate.as_ref().expect("candidate just filled")
    }
}

impl DynamicNetwork for MinProgressSampler {
    fn node_count(&self) -> usize {
        self.n
    }

    fn graph_for_round(
        &mut self,
        round: u64,
        _config: &Configuration,
        oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        let mut best_progress: Option<usize> = None;
        for i in 0..self.candidates_per_round {
            let progress = oracle.progress_on(self.generate(round, i));
            if best_progress.is_none_or(|p| progress < p) {
                std::mem::swap(&mut self.candidate, &mut self.best);
                best_progress = Some(progress);
                if progress == 0 {
                    break;
                }
            }
        }
        self.progress_history
            .push(best_progress.expect("at least one candidate"));
        self.best
            .as_ref()
            .expect("the first candidate is always kept")
    }

    fn name(&self) -> &str {
        "min-progress sampler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::tests_support::NullOracle;
    use dispersion_graph::connectivity::is_connected;
    use dispersion_graph::{relabel, NodeId};

    #[test]
    fn commits_valid_connected_graphs() {
        let mut adv = MinProgressSampler::new(12, 8, 0.1, 3);
        let cfg = Configuration::rooted(12, 4, NodeId::new(0));
        let oracle = NullOracle { config: &cfg };
        for r in 0..5 {
            let g = adv.graph_for_round(r, &cfg, &oracle);
            g.validate().unwrap();
            assert!(is_connected(g));
        }
        // All-stay robots make zero progress on any graph.
        assert_eq!(adv.progress_history(), &[0, 0, 0, 0, 0]);
        assert_eq!(adv.name(), "min-progress sampler");
    }

    #[test]
    fn retained_candidates_match_the_allocating_generators() {
        for &(n, p, seed) in &[
            (1usize, 0.3, 1u64),
            (2, 0.5, 0),
            (12, 0.2, 9),
            (48, 0.1, 33),
            (60, 0.0, 7),
            (144, 0.1, 3),
        ] {
            let mut adv = MinProgressSampler::new(n, 4, p, seed);
            for round in 0..3 {
                for index in 0..4 {
                    let s = adv.candidate_seed(round, index);
                    let expected = relabel::random_relabel(
                        &generators::random_connected(n, p, s).unwrap(),
                        s ^ 0x00ff_00ff,
                    );
                    assert_eq!(
                        adv.generate(round, index),
                        &expected,
                        "n={n} p={p} seed={seed} round={round} index={index}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_candidates_rejected() {
        let _ = MinProgressSampler::new(5, 0, 0.1, 0);
    }
}
