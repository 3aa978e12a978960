//! Deep audits of every dynamic network: model contract (fixed node set,
//! valid ports, per-round connectivity) plus each adversary's specific
//! structural promises, verified over recorded graph sequences.

use dispersion_engine::adversary::{
    DynamicRingNetwork, EdgeChurnNetwork, MinProgressSampler, PeriodicNetwork, StarPairAdversary,
    StaticNetwork, TIntervalNetwork,
};
use dispersion_engine::{ModelSpec, TracePolicy};
use dispersion_graph::{generators, metrics};

mod common;

use common::{audit_model_contract, record_run, run_trapped};

#[test]
fn audit_static() {
    let g = generators::random_connected(12, 0.2, 1).unwrap();
    let (out, graphs) = record_run(StaticNetwork::new(g.clone()), 12, 8);
    assert!(out.dispersed);
    audit_model_contract(&graphs, 12);
    for round in graphs.iter() {
        assert_eq!(round, &g, "static network never changes");
    }
}

#[test]
fn audit_periodic() {
    let list = vec![
        generators::path(10).unwrap(),
        generators::cycle(10).unwrap(),
    ];
    let (out, graphs) = record_run(PeriodicNetwork::new(list.clone()), 10, 7);
    assert!(out.dispersed);
    audit_model_contract(&graphs, 10);
    for (r, g) in graphs.iter().enumerate() {
        assert_eq!(g, &list[r % 2], "round {r} must follow the period");
    }
}

#[test]
fn audit_churn() {
    let (out, graphs) = record_run(EdgeChurnNetwork::new(14, 0.15, 9), 14, 10);
    assert!(out.dispersed);
    audit_model_contract(&graphs, 14);
    // Spanning-tree floor: at least n−1 edges every round.
    for g in graphs.iter() {
        assert!(g.edge_count() >= 13);
    }
}

#[test]
fn audit_star_pair() {
    let (out, graphs) = record_run(StarPairAdversary::new(13), 13, 9);
    assert!(out.dispersed);
    audit_model_contract(&graphs, 13);
    for g in graphs.iter() {
        assert_eq!(g.edge_count(), g.node_count() - 1, "always a tree");
        assert!(metrics::diameter(g).expect("connected") <= 3);
        // Star-pair: at most two nodes of degree > 2 (the two centres).
        let hubs = g.nodes().filter(|&v| g.degree(v) > 2).count();
        assert!(hubs <= 2, "at most two star centres");
    }
    // One new node per round exactly.
    for rec in &out.trace.records {
        assert_eq!(rec.newly_occupied, 1);
    }
}

#[test]
fn audit_t_interval() {
    let t = 3u64;
    let net = TIntervalNetwork::new(12, t, 0.15, 4);
    let reference = net.clone();
    let (out, graphs) = record_run(net, 12, 9);
    assert!(out.dispersed);
    audit_model_contract(&graphs, 12);
    // Every round's graph contains its window's stable tree.
    for (r, g) in graphs.iter().enumerate() {
        let tree = reference.stable_tree(r as u64);
        for e in tree.edges() {
            assert!(g.has_edge(e.u, e.v), "round {r} dropped a stable edge");
        }
    }
}

#[test]
fn audit_dynamic_ring() {
    for drop in [false, true] {
        let (out, graphs) = record_run(DynamicRingNetwork::new(11, drop, 6), 11, 8);
        assert!(out.dispersed);
        audit_model_contract(&graphs, 11);
        for g in graphs.iter() {
            let expected_edges = if drop { 10 } else { 11 };
            assert_eq!(g.edge_count(), expected_edges);
            assert!(g.nodes().all(|v| g.degree(v) <= 2));
        }
    }
}

#[test]
fn audit_min_progress_sampler() {
    let (out, graphs) = record_run(MinProgressSampler::new(14, 6, 0.15, 8), 14, 10);
    assert!(out.dispersed);
    audit_model_contract(&graphs, 14);
}

#[test]
fn audit_trap_adversaries_respect_the_model() {
    // The traps run against their victims (they are pointless against
    // Algorithm 4's model), so audit them in their own settings.
    use dispersion_core::baselines::{BlindGlobal, GreedyLocal};
    use dispersion_engine::adversary::{CliqueTrapAdversary, PathTrapAdversary};

    let (out, _sim) = run_trapped(
        GreedyLocal::new(),
        PathTrapAdversary::new(11),
        ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        11,
        6,
        40,
        TracePolicy::RoundsAndGraphs,
    );
    assert!(!out.dispersed);
    let graphs = out.trace.graphs.expect("recorded");
    audit_model_contract(&graphs, 11);
    for g in graphs.iter() {
        // The trap is always a Hamiltonian path.
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.max_degree(), 2);
    }

    let (out, _sim) = run_trapped(
        BlindGlobal::new(),
        CliqueTrapAdversary::new(11),
        ModelSpec::GLOBAL_BLIND,
        11,
        6,
        40,
        TracePolicy::RoundsAndGraphs,
    );
    assert!(!out.dispersed);
    let graphs = out.trace.graphs.expect("recorded");
    audit_model_contract(&graphs, 11);
}
