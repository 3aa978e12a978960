//! End-to-end integration: Algorithm 4 across adversaries × initial
//! configurations × (n, k) grids, always within the Theorem 4 bound.

use dispersion_core::{analysis, DispersionDynamic};
use dispersion_engine::adversary::{
    DynamicNetwork, EdgeChurnNetwork, PeriodicNetwork, StarPairAdversary, StaticNetwork,
    TIntervalNetwork,
};
use dispersion_engine::{Configuration, ModelSpec, Simulator, TracePolicy};
use dispersion_graph::{generators, NodeId};

fn run<N: DynamicNetwork>(net: N, cfg: Configuration) -> dispersion_engine::SimOutcome {
    Simulator::builder(
        DispersionDynamic::new(),
        net,
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        cfg,
    )
    .build()
    .expect("k ≤ n")
    .run()
    .expect("simulation is well formed")
}

fn assert_theorem4<N: DynamicNetwork>(net: N, cfg: Configuration, label: &str) {
    let out = run(net, cfg);
    let audit = analysis::audit(&out);
    assert!(
        audit.all_good(),
        "{label}: audit failed: {audit:?} (k={}, rounds={})",
        out.k,
        out.rounds
    );
    assert!(analysis::memory_matches_log_k(&out), "{label}: memory");
}

#[test]
fn static_shapes_rooted() {
    for (name, g) in [
        ("path", generators::path(20).unwrap()),
        ("cycle", generators::cycle(20).unwrap()),
        ("star", generators::star(20).unwrap()),
        ("complete", generators::complete(20).unwrap()),
        ("grid", generators::grid(4, 5).unwrap()),
        ("wheel", generators::wheel(20).unwrap()),
        ("lollipop", generators::lollipop(8, 12).unwrap()),
        ("caterpillar", generators::caterpillar(5, 3).unwrap()),
        ("hypercube", generators::hypercube(4).unwrap()),
        ("torus", generators::torus(4, 5).unwrap()),
        ("binary-tree", generators::binary_tree(20).unwrap()),
        ("barbell", generators::barbell(8, 4).unwrap()),
    ] {
        let n = g.node_count();
        for k in [2usize, n / 2, n] {
            assert_theorem4(
                StaticNetwork::new(g.clone()),
                Configuration::rooted(n, k, NodeId::new(0)),
                &format!("static {name} k={k}"),
            );
        }
    }
}

#[test]
fn static_random_graphs_random_starts() {
    for seed in 0..10u64 {
        let n = 15 + (seed as usize % 10);
        let g = generators::random_connected(n, 0.15, seed).unwrap();
        let k = 3 + (seed as usize % (n - 3));
        assert_theorem4(
            StaticNetwork::new(g),
            Configuration::random(n, k, seed, true),
            &format!("random static seed={seed}"),
        );
    }
}

#[test]
fn churn_sweep() {
    for seed in 0..10u64 {
        let n = 12 + (seed as usize % 14);
        let k = 2 + (seed as usize % (n - 2));
        assert_theorem4(
            EdgeChurnNetwork::new(n, 0.1 + 0.02 * (seed % 5) as f64, seed),
            Configuration::random(n, k, seed.wrapping_add(99), true),
            &format!("churn seed={seed}"),
        );
    }
}

#[test]
fn star_pair_adversary_exact() {
    for k in 2..=20usize {
        let n = k + 5;
        let out = run(
            StarPairAdversary::new(n),
            Configuration::rooted(n, k, NodeId::new(0)),
        );
        assert!(out.dispersed);
        assert_eq!(out.rounds, (k - 1) as u64, "k={k}");
    }
}

#[test]
fn periodic_topologies() {
    let graphs = vec![
        generators::path(16).unwrap(),
        generators::cycle(16).unwrap(),
        generators::star(16).unwrap(),
        generators::random_connected(16, 0.2, 3).unwrap(),
    ];
    assert_theorem4(
        PeriodicNetwork::new(graphs),
        Configuration::rooted(16, 12, NodeId::new(7)),
        "periodic",
    );
}

#[test]
fn t_interval_windows() {
    for t in [1u64, 2, 5, 10] {
        assert_theorem4(
            TIntervalNetwork::new(18, t, 0.1, t),
            Configuration::rooted(18, 13, NodeId::new(0)),
            &format!("t-interval T={t}"),
        );
    }
}

#[test]
fn dense_multicluster_starts() {
    // Half the robots in one cluster, the rest scattered with collisions.
    for seed in 0..5u64 {
        let n = 24;
        let k = 18;
        let cfg = Configuration::from_pairs(
            n,
            (1..=k as u32).map(|i| {
                let node = match i % 4 {
                    0 | 1 => (i / 4) % n as u32,
                    _ => (7 * i + seed as u32) % n as u32,
                };
                (dispersion_engine::RobotId::new(i), NodeId::new(node))
            }),
        );
        assert_theorem4(
            EdgeChurnNetwork::new(n, 0.12, seed),
            cfg,
            &format!("multicluster seed={seed}"),
        );
    }
}

#[test]
fn graphs_recorded_are_connected_every_round() {
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        EdgeChurnNetwork::new(14, 0.2, 4),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(14, 10, NodeId::new(0)),
    )
    .trace(TracePolicy::RoundsAndGraphs)
    .build()
    .unwrap();
    let out = sim.run().unwrap();
    let seq = out.trace.graphs.expect("recording enabled");
    assert_eq!(seq.len() as u64, out.rounds);
    for g in seq.iter() {
        assert!(dispersion_graph::connectivity::is_connected(g));
        g.validate().unwrap();
    }
}

#[test]
fn termination_is_stable() {
    // Running again from the dispersed configuration does nothing.
    let out = run(
        EdgeChurnNetwork::new(15, 0.2, 8),
        Configuration::rooted(15, 11, NodeId::new(3)),
    );
    assert!(out.dispersed);
    let again = run(
        EdgeChurnNetwork::new(15, 0.2, 1234),
        out.final_config.clone(),
    );
    assert_eq!(again.rounds, 0);
    assert_eq!(again.final_config, out.final_config);
}

#[test]
fn moves_are_bounded_by_k_per_round() {
    let out = run(
        EdgeChurnNetwork::new(20, 0.15, 2),
        Configuration::rooted(20, 15, NodeId::new(0)),
    );
    for rec in &out.trace.records {
        assert!(rec.moves <= 15, "round {}: {} moves", rec.round, rec.moves);
    }
}

#[test]
fn dynamic_rings() {
    // The setting of the only prior dynamic-graph dispersion work
    // (Agarwalla et al., dynamic rings): full rings and rings with one
    // missing edge, re-embedded and re-labeled each round.
    use dispersion_engine::adversary::DynamicRingNetwork;
    for drop_edge in [false, true] {
        for k in [3usize, 7, 12] {
            let n = k + 3;
            assert_theorem4(
                DynamicRingNetwork::new(n, drop_edge, k as u64),
                Configuration::rooted(n, k, NodeId::new(0)),
                &format!("ring drop={drop_edge} k={k}"),
            );
        }
    }
}

#[test]
fn min_progress_sampler_cannot_break_the_bound() {
    // A generic oracle-guided adversary that actively minimizes progress
    // still cannot push Algorithm 4 below one new node per round
    // (Lemma 7 holds on every connected graph).
    use dispersion_engine::adversary::MinProgressSampler;
    let (n, k) = (18usize, 12usize);
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        MinProgressSampler::new(n, 12, 0.1, 5),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .build()
    .unwrap();
    let out = sim.run().unwrap();
    assert!(out.dispersed);
    assert!(out.rounds <= k as u64);
    // Every committed graph still allowed ≥ 1 new node: the adversary's
    // own bookkeeping agrees with the trace.
    assert!(sim.network().progress_history().iter().all(|&p| p >= 1));
    assert!(out.trace.every_round_made_progress());
}

#[test]
fn larger_scale_smoke() {
    // n = 200, k = 150 under churn: still ≤ k rounds.
    let out = run(
        EdgeChurnNetwork::new(200, 0.02, 5),
        Configuration::rooted(200, 150, NodeId::new(0)),
    );
    assert!(out.dispersed);
    assert!(out.rounds <= 150);
}
