//! Golden-trace fixtures: fixed-seed (algorithm × adversary) runs whose
//! complete observable outcome is pinned to files under `tests/golden/`.
//!
//! The fixtures were captured before the zero-allocation round-loop
//! rewrite and assert that the engine's observable behavior — outcome,
//! final placement, and the per-round trace CSV — is byte-identical
//! across engine refactors. `gen_golden` regenerates the files; the
//! `golden_trace` test replays and compares them.

use std::fmt::Write as _;

use dispersion_core::baselines::{BlindGlobal, GreedyLocal, LocalDfs, RandomWalk};
use dispersion_core::byzantine::{ByzantineStrategy, WithByzantine};
use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::{
    CliqueTrapAdversary, DynamicNetwork, DynamicRingNetwork, EdgeChurnNetwork, MinProgressSampler,
    StarPairAdversary, StaticNetwork,
};
use dispersion_engine::{
    Configuration, CrashPhase, DispersionAlgorithm, FaultPlan, ModelSpec, RobotId, SimOutcome,
    Simulator,
};
use dispersion_graph::{generators, NodeId};

/// Which algorithm a golden case runs (each in its home model).
#[derive(Clone, Copy, Debug)]
pub enum GoldenAlgorithm {
    /// The paper's Algorithm 4 (global comm + 1-neighborhood knowledge).
    Alg4,
    /// Local-communication DFS baseline.
    LocalDfs,
    /// Seeded random walk (global comm + 1-NK).
    RandomWalk,
    /// Greedy local spill baseline.
    GreedyLocal,
    /// Global communication without sensing.
    BlindGlobal,
}

impl GoldenAlgorithm {
    fn model(self) -> ModelSpec {
        match self {
            GoldenAlgorithm::Alg4 | GoldenAlgorithm::RandomWalk => {
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD
            }
            GoldenAlgorithm::LocalDfs | GoldenAlgorithm::GreedyLocal => {
                ModelSpec::LOCAL_WITH_NEIGHBORHOOD
            }
            GoldenAlgorithm::BlindGlobal => ModelSpec::GLOBAL_BLIND,
        }
    }

    fn name(self) -> &'static str {
        match self {
            GoldenAlgorithm::Alg4 => "alg4",
            GoldenAlgorithm::LocalDfs => "local-dfs",
            GoldenAlgorithm::RandomWalk => "random-walk",
            GoldenAlgorithm::GreedyLocal => "greedy-local",
            GoldenAlgorithm::BlindGlobal => "blind-global",
        }
    }
}

/// Which adversary a golden case runs against.
#[derive(Clone, Copy, Debug)]
pub enum GoldenAdversary {
    /// One seeded random connected graph, fixed for the whole run.
    StaticRandom,
    /// A fixed cycle.
    StaticCycle,
    /// Fresh random connected graph every round.
    Churn,
    /// Dynamic ring, re-embedded each round (optionally with one edge cut).
    BrokenRing,
    /// The Theorem 3 lower-bound adversary.
    StarPair,
    /// Oracle-guided progress-minimizing sampler.
    MinProgress,
    /// The Theorem 2 clique-rewiring adversary (reads whole-population
    /// moves from the oracle).
    CliqueTrap,
}

impl GoldenAdversary {
    fn name(self) -> &'static str {
        match self {
            GoldenAdversary::StaticRandom => "static-random",
            GoldenAdversary::StaticCycle => "static-cycle",
            GoldenAdversary::Churn => "churn",
            GoldenAdversary::BrokenRing => "broken-ring",
            GoldenAdversary::StarPair => "star-pair",
            GoldenAdversary::MinProgress => "min-progress",
            GoldenAdversary::CliqueTrap => "clique-trap",
        }
    }

    fn build(self, n: usize, seed: u64) -> Box<dyn DynamicNetwork> {
        match self {
            GoldenAdversary::StaticRandom => Box::new(StaticNetwork::new(
                generators::random_connected(n, 0.2, seed).expect("n ≥ 1"),
            )),
            GoldenAdversary::StaticCycle => {
                Box::new(StaticNetwork::new(generators::cycle(n).expect("n ≥ 3")))
            }
            GoldenAdversary::Churn => Box::new(EdgeChurnNetwork::new(n, 0.2, seed)),
            GoldenAdversary::BrokenRing => Box::new(DynamicRingNetwork::new(n, true, seed)),
            GoldenAdversary::StarPair => Box::new(StarPairAdversary::new(n)),
            GoldenAdversary::MinProgress => Box::new(MinProgressSampler::new(n, 6, 0.2, seed)),
            GoldenAdversary::CliqueTrap => Box::new(CliqueTrapAdversary::new(n)),
        }
    }
}

/// One pinned golden run.
#[derive(Clone, Copy, Debug)]
pub struct GoldenCase {
    /// Fixture file stem under `tests/golden/`.
    pub name: &'static str,
    /// Algorithm under test.
    pub algorithm: GoldenAlgorithm,
    /// Adversary it runs against.
    pub adversary: GoldenAdversary,
    /// Nodes.
    pub n: usize,
    /// Robots.
    pub k: usize,
    /// Seed for networks / placement / fault plans.
    pub seed: u64,
    /// Robots crashed by a seeded fault plan (0 = fault-free).
    pub faults: usize,
    /// Hard round cap. Byzantine cases never settle, so they carry a
    /// small cap that bounds fixture size; everything else uses 500.
    pub max_rounds: u64,
    /// Byzantine configuration: the first `count` robots (1-based IDs)
    /// follow `strategy` instead of the honest algorithm.
    pub byzantine: Option<(usize, ByzantineStrategy)>,
}

fn strategy_name(strategy: ByzantineStrategy) -> &'static str {
    match strategy {
        ByzantineStrategy::Freeze => "freeze",
        ByzantineStrategy::ChaseCrowds => "chase-crowds",
        ByzantineStrategy::Scramble => "scramble",
    }
}

/// The pinned case list. Append only — renaming or re-seeding a case
/// invalidates its fixture.
pub fn golden_cases() -> Vec<GoldenCase> {
    let case = |name, algorithm, adversary, n, k, seed, faults| GoldenCase {
        name,
        algorithm,
        adversary,
        n,
        k,
        seed,
        faults,
        max_rounds: 500,
        byzantine: None,
    };
    let byz = |name, algorithm, adversary, n, k, seed, count, strategy| GoldenCase {
        name,
        algorithm,
        adversary,
        n,
        k,
        seed,
        faults: 0,
        max_rounds: 40,
        byzantine: Some((count, strategy)),
    };
    vec![
        case(
            "alg4_static_random",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::StaticRandom,
            16,
            10,
            3,
            0,
        ),
        case(
            "alg4_static_cycle",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::StaticCycle,
            16,
            10,
            3,
            0,
        ),
        case(
            "alg4_churn",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::Churn,
            16,
            10,
            5,
            0,
        ),
        case(
            "alg4_broken_ring",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::BrokenRing,
            16,
            10,
            7,
            0,
        ),
        case(
            "alg4_star_pair",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::StarPair,
            16,
            10,
            0,
            0,
        ),
        case(
            "alg4_min_progress",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::MinProgress,
            12,
            8,
            9,
            0,
        ),
        case(
            "alg4_churn_faults",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::Churn,
            16,
            10,
            11,
            3,
        ),
        case(
            "local_dfs_static_random",
            GoldenAlgorithm::LocalDfs,
            GoldenAdversary::StaticRandom,
            16,
            10,
            3,
            0,
        ),
        case(
            "greedy_local_static_cycle",
            GoldenAlgorithm::GreedyLocal,
            GoldenAdversary::StaticCycle,
            16,
            10,
            3,
            0,
        ),
        case(
            "random_walk_churn",
            GoldenAlgorithm::RandomWalk,
            GoldenAdversary::Churn,
            16,
            10,
            13,
            0,
        ),
        case(
            "blind_global_star_pair",
            GoldenAlgorithm::BlindGlobal,
            GoldenAdversary::StarPair,
            14,
            9,
            0,
            0,
        ),
        case(
            "local_dfs_churn_faults",
            GoldenAlgorithm::LocalDfs,
            GoldenAdversary::Churn,
            16,
            10,
            17,
            2,
        ),
        case(
            "greedy_local_broken_ring_faults",
            GoldenAlgorithm::GreedyLocal,
            GoldenAdversary::BrokenRing,
            16,
            10,
            19,
            2,
        ),
        case(
            "random_walk_static_random_faults",
            GoldenAlgorithm::RandomWalk,
            GoldenAdversary::StaticRandom,
            16,
            10,
            21,
            2,
        ),
        case(
            "blind_global_static_cycle_faults",
            GoldenAlgorithm::BlindGlobal,
            GoldenAdversary::StaticCycle,
            14,
            9,
            23,
            2,
        ),
        byz(
            "alg4_byz_freeze_static_random",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::StaticRandom,
            12,
            8,
            25,
            2,
            ByzantineStrategy::Freeze,
        ),
        byz(
            "alg4_byz_chase_churn",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::Churn,
            12,
            8,
            27,
            2,
            ByzantineStrategy::ChaseCrowds,
        ),
        byz(
            "alg4_byz_scramble_broken_ring",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::BrokenRing,
            12,
            8,
            29,
            2,
            ByzantineStrategy::Scramble,
        ),
        byz(
            "local_dfs_byz_freeze_static_cycle",
            GoldenAlgorithm::LocalDfs,
            GoldenAdversary::StaticCycle,
            12,
            8,
            31,
            2,
            ByzantineStrategy::Freeze,
        ),
        case(
            "alg4_min_progress_large",
            GoldenAlgorithm::Alg4,
            GoldenAdversary::MinProgress,
            48,
            32,
            33,
            0,
        ),
        // The blind algorithm never settles against the Theorem 2 trap;
        // a small cap bounds the fixture.
        GoldenCase {
            max_rounds: 60,
            ..case(
                "blind_global_clique_trap",
                GoldenAlgorithm::BlindGlobal,
                GoldenAdversary::CliqueTrap,
                12,
                8,
                0,
                0,
            )
        },
    ]
}

fn run_case<A>(alg: A, case: &GoldenCase, threads: usize) -> SimOutcome
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
{
    let plan = if case.faults > 0 {
        FaultPlan::random(
            case.k,
            case.faults,
            (case.k as u64 / 2).max(1),
            CrashPhase::BeforeCommunicate,
            case.seed,
        )
    } else {
        FaultPlan::none()
    };
    Simulator::builder(
        alg,
        case.adversary.build(case.n, case.seed),
        case.algorithm.model(),
        Configuration::rooted(case.n, case.k, NodeId::new(0)),
    )
    .max_rounds(case.max_rounds)
    .faults(plan)
    .threads(threads)
    .build()
    .expect("golden cases satisfy k ≤ n")
    .run()
    .expect("golden cases run to completion")
}

/// Runs `alg` for `case`, wrapping it in [`WithByzantine`] when the case
/// carries a Byzantine configuration.
fn run_maybe_byzantine<A>(alg: A, case: &GoldenCase, threads: usize) -> SimOutcome
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
{
    match case.byzantine {
        Some((count, strategy)) => run_case(
            WithByzantine::new(alg, (1..=count as u32).map(RobotId::new), strategy),
            case,
            threads,
        ),
        None => run_case(alg, case, threads),
    }
}

/// Executes one case and renders its canonical fixture text.
pub fn render_case(case: &GoldenCase) -> String {
    render_case_with_threads(case, 1)
}

/// [`render_case`] on `threads` engine workers. The fixtures are pinned
/// at `threads = 1`; the parallel executor's determinism contract says
/// this renders the byte-identical text for every thread count — the
/// `golden_threads` test holds it to that.
pub fn render_case_with_threads(case: &GoldenCase, threads: usize) -> String {
    let outcome = match case.algorithm {
        GoldenAlgorithm::Alg4 => run_maybe_byzantine(DispersionDynamic::new(), case, threads),
        GoldenAlgorithm::LocalDfs => run_maybe_byzantine(LocalDfs::new(), case, threads),
        GoldenAlgorithm::RandomWalk => {
            run_maybe_byzantine(RandomWalk::new(case.seed), case, threads)
        }
        GoldenAlgorithm::GreedyLocal => run_maybe_byzantine(GreedyLocal::new(), case, threads),
        GoldenAlgorithm::BlindGlobal => run_maybe_byzantine(BlindGlobal::new(), case, threads),
    };
    let mut out = String::from("golden-trace v1\n");
    let _ = writeln!(
        out,
        "algorithm={} adversary={} n={} k={} seed={} faults={}",
        case.algorithm.name(),
        case.adversary.name(),
        case.n,
        case.k,
        case.seed,
        case.faults,
    );
    // Extra header line for Byzantine cases only, so the pre-existing
    // fixtures stay byte-identical.
    if let Some((count, strategy)) = case.byzantine {
        let _ = writeln!(
            out,
            "byzantine={} strategy={} max_rounds={}",
            count,
            strategy_name(strategy),
            case.max_rounds,
        );
    }
    let _ = writeln!(
        out,
        "dispersed={} rounds={} crashes={} max_memory_bits={}",
        outcome.dispersed,
        outcome.rounds,
        outcome.crashes,
        outcome.max_memory_bits(),
    );
    let placements: Vec<String> = outcome
        .final_config
        .iter()
        .map(|(r, v)| format!("{}:{}", r.get(), v.index()))
        .collect();
    let _ = writeln!(out, "final={}", placements.join(","));
    out.push_str(&outcome.trace.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_have_unique_names() {
        let cases = golden_cases();
        let mut names: Vec<_> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len());
    }

    #[test]
    fn render_is_deterministic() {
        let case = &golden_cases()[0];
        assert_eq!(render_case(case), render_case(case));
    }

    #[test]
    fn every_algorithm_has_a_faulty_case() {
        let cases = golden_cases();
        for alg in [
            "alg4",
            "local-dfs",
            "greedy-local",
            "random-walk",
            "blind-global",
        ] {
            assert!(
                cases
                    .iter()
                    .any(|c| c.algorithm.name() == alg && c.faults > 0),
                "no faulty golden case for {alg}"
            );
        }
    }

    #[test]
    fn byzantine_cases_render_their_configuration() {
        let cases = golden_cases();
        let byz: Vec<_> = cases.iter().filter(|c| c.byzantine.is_some()).collect();
        assert!(byz.len() >= 3, "expected Byzantine coverage");
        let rendered = render_case(byz[0]);
        assert!(
            rendered.contains("byzantine=2 strategy="),
            "missing Byzantine header:\n{rendered}"
        );
    }

    #[test]
    fn pre_rewrite_cases_render_no_byzantine_header() {
        // The first 11 cases predate the Byzantine extension; their
        // fixtures must stay byte-identical, so the extra header line
        // must never leak into them.
        let rendered = render_case(&golden_cases()[0]);
        assert!(!rendered.contains("byzantine="), "{rendered}");
    }
}
