//! Golden-trace fixtures: fixed-seed (algorithm × adversary) runs whose
//! complete observable outcome is pinned to files under `tests/golden/`.
//!
//! The fixtures were captured before the zero-allocation round-loop
//! rewrite and assert that the engine's observable behavior — outcome,
//! final placement, and the per-round trace CSV — is byte-identical
//! across engine refactors. Each case is a lab [`Scenario`] (rooted,
//! edge probability 0.2, six min-progress candidates), assembled by
//! [`Scenario::builder`] as campaign jobs are. `gen_golden` regenerates
//! the files; the `golden_trace` test replays and compares them.

use std::fmt::Write as _;

use dispersion_core::baselines::{BlindGlobal, GreedyLocal, LocalDfs, RandomWalk};
use dispersion_core::byzantine::{ByzantineStrategy, WithByzantine};
use dispersion_core::DispersionDynamic;
use dispersion_engine::{DispersionAlgorithm, RobotId, SimOutcome};
use dispersion_lab::{AdversaryKind, AlgorithmKind, Placement, Scenario};

/// One pinned golden run.
#[derive(Clone, Copy, Debug)]
pub struct GoldenCase {
    /// Fixture file stem under `tests/golden/`.
    pub name: &'static str,
    /// The run. Byzantine cases never settle, so they carry a small
    /// round cap that bounds fixture size; everything else uses 500.
    pub scenario: Scenario,
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

/// The fixtures' name for a network: the campaign name, except that the
/// seeded random static graph is `static-random`.
fn network_label(network: AdversaryKind) -> &'static str {
    match network {
        AdversaryKind::Static => "static-random",
        other => other.name(),
    }
}

/// The pinned case list. Append only — renaming or re-seeding a case
/// invalidates its fixture.
pub fn golden_cases() -> Vec<GoldenCase> {
    use AdversaryKind as Net;
    use AlgorithmKind as Alg;
    use ByzantineStrategy as Byz;
    let case = |name, algorithm, network, n, k, seed, faults| GoldenCase {
        name,
        scenario: Scenario {
            algorithm,
            network,
            n,
            k,
            faults,
            placement: Placement::Rooted,
            max_rounds: 500,
            edge_prob: 0.2,
            candidates: 6,
            seed,
        },
        byzantine: None,
    };
    let byz = |name, algorithm, network, n, k, seed, count, strategy| {
        let honest: GoldenCase = case(name, algorithm, network, n, k, seed, 0);
        GoldenCase {
            scenario: Scenario {
                max_rounds: 40,
                ..honest.scenario
            },
            byzantine: Some((count, strategy)),
            ..honest
        }
    };
    let mut blind_trap = case(
        "blind_global_clique_trap",
        Alg::BlindGlobal,
        Net::CliqueTrap,
        12,
        8,
        0,
        0,
    );
    // The blind algorithm never settles against the Theorem 2 trap; a
    // small cap bounds the fixture.
    blind_trap.scenario.max_rounds = 60;
    vec![
        case("alg4_static_random", Alg::Alg4, Net::Static, 16, 10, 3, 0),
        case(
            "alg4_static_cycle",
            Alg::Alg4,
            Net::StaticCycle,
            16,
            10,
            3,
            0,
        ),
        case("alg4_churn", Alg::Alg4, Net::Churn, 16, 10, 5, 0),
        case("alg4_broken_ring", Alg::Alg4, Net::BrokenRing, 16, 10, 7, 0),
        case("alg4_star_pair", Alg::Alg4, Net::StarPair, 16, 10, 0, 0),
        case(
            "alg4_min_progress",
            Alg::Alg4,
            Net::MinProgress,
            12,
            8,
            9,
            0,
        ),
        case("alg4_churn_faults", Alg::Alg4, Net::Churn, 16, 10, 11, 3),
        case(
            "local_dfs_static_random",
            Alg::LocalDfs,
            Net::Static,
            16,
            10,
            3,
            0,
        ),
        case(
            "greedy_local_static_cycle",
            Alg::GreedyLocal,
            Net::StaticCycle,
            16,
            10,
            3,
            0,
        ),
        case(
            "random_walk_churn",
            Alg::RandomWalk,
            Net::Churn,
            16,
            10,
            13,
            0,
        ),
        case(
            "blind_global_star_pair",
            Alg::BlindGlobal,
            Net::StarPair,
            14,
            9,
            0,
            0,
        ),
        case(
            "local_dfs_churn_faults",
            Alg::LocalDfs,
            Net::Churn,
            16,
            10,
            17,
            2,
        ),
        case(
            "greedy_local_broken_ring_faults",
            Alg::GreedyLocal,
            Net::BrokenRing,
            16,
            10,
            19,
            2,
        ),
        case(
            "random_walk_static_random_faults",
            Alg::RandomWalk,
            Net::Static,
            16,
            10,
            21,
            2,
        ),
        case(
            "blind_global_static_cycle_faults",
            Alg::BlindGlobal,
            Net::StaticCycle,
            14,
            9,
            23,
            2,
        ),
        byz(
            "alg4_byz_freeze_static_random",
            Alg::Alg4,
            Net::Static,
            12,
            8,
            25,
            2,
            Byz::Freeze,
        ),
        byz(
            "alg4_byz_chase_churn",
            Alg::Alg4,
            Net::Churn,
            12,
            8,
            27,
            2,
            Byz::ChaseCrowds,
        ),
        byz(
            "alg4_byz_scramble_broken_ring",
            Alg::Alg4,
            Net::BrokenRing,
            12,
            8,
            29,
            2,
            Byz::Scramble,
        ),
        byz(
            "local_dfs_byz_freeze_static_cycle",
            Alg::LocalDfs,
            Net::StaticCycle,
            12,
            8,
            31,
            2,
            Byz::Freeze,
        ),
        case(
            "alg4_min_progress_large",
            Alg::Alg4,
            Net::MinProgress,
            48,
            32,
            33,
            0,
        ),
        blind_trap,
    ]
}

/// Runs `alg` for `case`, wrapping it in [`WithByzantine`] when the case
/// carries a Byzantine configuration.
fn run_maybe_byzantine<A>(alg: A, case: &GoldenCase, threads: usize) -> SimOutcome
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
{
    fn run<A>(alg: A, scenario: &Scenario, threads: usize) -> SimOutcome
    where
        A: DispersionAlgorithm + Clone + Send + 'static,
        A::Memory: Send + Sync,
    {
        scenario
            .builder(alg)
            .threads(threads)
            .build()
            .expect("golden cases satisfy k ≤ n")
            .run()
            .expect("golden cases run to completion")
    }
    match case.byzantine {
        Some((count, strategy)) => run(
            WithByzantine::new(alg, (1..=count as u32).map(RobotId::new), strategy),
            &case.scenario,
            threads,
        ),
        None => run(alg, &case.scenario, threads),
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
    let s = &case.scenario;
    let outcome = match s.algorithm {
        AlgorithmKind::Alg4 => run_maybe_byzantine(DispersionDynamic::new(), case, threads),
        AlgorithmKind::LocalDfs => run_maybe_byzantine(LocalDfs::new(), case, threads),
        AlgorithmKind::RandomWalk => run_maybe_byzantine(RandomWalk::new(s.seed), case, threads),
        AlgorithmKind::GreedyLocal => run_maybe_byzantine(GreedyLocal::new(), case, threads),
        AlgorithmKind::BlindGlobal => run_maybe_byzantine(BlindGlobal::new(), case, threads),
    };
    let mut out = String::from("golden-trace v1\n");
    let _ = writeln!(
        out,
        "algorithm={} adversary={} n={} k={} seed={} faults={}",
        s.algorithm.name(),
        network_label(s.network),
        s.n,
        s.k,
        s.seed,
        s.faults,
    );
    // Extra header line for Byzantine cases only, so the pre-existing
    // fixtures stay byte-identical.
    if let Some((count, strategy)) = case.byzantine {
        let _ = writeln!(
            out,
            "byzantine={} strategy={} max_rounds={}",
            count,
            strategy_name(strategy),
            s.max_rounds,
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
                    .any(|c| c.scenario.algorithm.name() == alg && c.scenario.faults > 0),
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
