//! Baseline algorithms across graph families, and baseline-vs-Algorithm 4
//! comparisons on the settings where both are defined.

use dispersion_core::baselines::{BlindGlobal, GreedyLocal, LocalDfs, RandomWalk};
use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::{DynamicNetwork, StaticNetwork};
use dispersion_engine::{Configuration, DispersionAlgorithm, ModelSpec, SimOutcome, Simulator};
use dispersion_graph::{generators, NodeId, PortLabeledGraph};

fn run_alg<A: DispersionAlgorithm, N: DynamicNetwork>(
    alg: A,
    net: N,
    model: ModelSpec,
    cfg: Configuration,
    max_rounds: u64,
) -> SimOutcome {
    Simulator::builder(alg, net, model, cfg)
        .max_rounds(max_rounds)
        .build()
        .unwrap()
        .run()
        .unwrap()
}

fn shapes() -> Vec<(&'static str, PortLabeledGraph)> {
    vec![
        ("path", generators::path(12).unwrap()),
        ("cycle", generators::cycle(12).unwrap()),
        ("star", generators::star(12).unwrap()),
        ("grid", generators::grid(3, 4).unwrap()),
        ("random", generators::random_connected(12, 0.2, 5).unwrap()),
    ]
}

#[test]
fn local_dfs_disperses_everywhere_static_rooted() {
    for (name, g) in shapes() {
        for k in [4usize, 8, 12] {
            let out = run_alg(
                LocalDfs::new(),
                StaticNetwork::new(g.clone()),
                ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
                Configuration::rooted(12, k, NodeId::new(0)),
                50_000,
            );
            assert!(out.dispersed, "{name} k={k}");
        }
    }
}

#[test]
fn local_dfs_time_scales_with_edges_not_k() {
    // DFS walks the whole graph: rounds grow with m even for small k,
    // whereas Algorithm 4 stays within k.
    let g = generators::grid(5, 5).unwrap();
    let dfs = run_alg(
        LocalDfs::new(),
        StaticNetwork::new(g.clone()),
        ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(25, 20, NodeId::new(0)),
        100_000,
    );
    let alg4 = run_alg(
        DispersionDynamic::new(),
        StaticNetwork::new(g),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(25, 20, NodeId::new(0)),
        100_000,
    );
    assert!(dfs.dispersed && alg4.dispersed);
    assert!(alg4.rounds <= 20);
    assert!(
        dfs.rounds > alg4.rounds,
        "dfs {} should exceed algorithm 4 {}",
        dfs.rounds,
        alg4.rounds
    );
}

#[test]
fn random_walk_disperses_but_slower() {
    let g = generators::cycle(10).unwrap();
    let cfg = Configuration::rooted(10, 6, NodeId::new(0));
    let walk = run_alg(
        RandomWalk::new(3),
        StaticNetwork::new(g.clone()),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        cfg.clone(),
        200_000,
    );
    let alg4 = run_alg(
        DispersionDynamic::new(),
        StaticNetwork::new(g),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        cfg,
        200_000,
    );
    assert!(walk.dispersed);
    assert!(alg4.dispersed);
    assert!(alg4.rounds <= 6);
    assert!(walk.rounds >= alg4.rounds);
}

#[test]
fn greedy_local_handles_easy_static_shapes() {
    for (name, g) in [
        ("star", generators::star(10).unwrap()),
        ("complete", generators::complete(10).unwrap()),
    ] {
        let out = run_alg(
            GreedyLocal::new(),
            StaticNetwork::new(g),
            ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(10, 8, NodeId::new(0)),
            5_000,
        );
        assert!(out.dispersed, "{name}");
    }
}

#[test]
fn blind_global_handles_static_cliques() {
    let out = run_alg(
        BlindGlobal::new(),
        StaticNetwork::new(generators::complete(8).unwrap()),
        ModelSpec::GLOBAL_BLIND,
        Configuration::rooted(8, 6, NodeId::new(2)),
        5_000,
    );
    assert!(out.dispersed);
}

#[test]
fn memory_ordering_matches_theory() {
    // Algorithm 4: Θ(log k); LocalDfs: grows with the DFS stack;
    // RandomWalk: 64-bit PRNG + id.
    let g = generators::path(16).unwrap();
    let cfg = Configuration::rooted(16, 12, NodeId::new(0));
    let alg4 = run_alg(
        DispersionDynamic::new(),
        StaticNetwork::new(g.clone()),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        cfg.clone(),
        100_000,
    );
    let dfs = run_alg(
        LocalDfs::new(),
        StaticNetwork::new(g.clone()),
        ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        cfg.clone(),
        100_000,
    );
    let walk = run_alg(
        RandomWalk::new(1),
        StaticNetwork::new(g),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        cfg,
        500_000,
    );
    assert!(alg4.dispersed && dfs.dispersed && walk.dispersed);
    assert_eq!(alg4.max_memory_bits(), 4); // ⌈log₂ 12⌉
    assert!(dfs.max_memory_bits() > alg4.max_memory_bits());
    assert_eq!(walk.max_memory_bits(), 64 + 4);
}

#[test]
fn algorithm4_strictly_dominates_on_rounds_across_shapes() {
    for (name, g) in shapes() {
        let cfg = Configuration::rooted(12, 9, NodeId::new(0));
        let alg4 = run_alg(
            DispersionDynamic::new(),
            StaticNetwork::new(g.clone()),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            cfg.clone(),
            100_000,
        );
        let dfs = run_alg(
            LocalDfs::new(),
            StaticNetwork::new(g),
            ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
            cfg,
            100_000,
        );
        assert!(alg4.dispersed && dfs.dispersed, "{name}");
        assert!(
            alg4.rounds <= dfs.rounds,
            "{name}: alg4 {} vs dfs {}",
            alg4.rounds,
            dfs.rounds
        );
    }
}
