//! The adversary gauntlet: Algorithm 4 versus every dynamic network in
//! the crate, plus the two impossibility traps against their victims.
//!
//! ```sh
//! cargo run --example adversary_gauntlet
//! ```

use dispersion_core::{impossibility, DispersionDynamic};
use dispersion_engine::adversary::{
    DynamicNetwork, EdgeChurnNetwork, PeriodicNetwork, StarPairAdversary, StaticNetwork,
    TIntervalNetwork,
};
use dispersion_engine::{Configuration, ModelSpec, Simulator};
use dispersion_graph::{generators, NodeId};

fn challenge<N: DynamicNetwork>(name: &str, net: N, n: usize, k: usize) {
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        net,
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .build()
    .expect("k ≤ n");
    let out = sim.run().expect("valid run");
    println!(
        "  {name:<28} k={k:<3} rounds={:<4} (≤ k? {})  memory={} bits",
        out.rounds,
        if out.rounds <= k as u64 { "yes" } else { "NO" },
        out.max_memory_bits()
    );
    assert!(out.dispersed);
}

fn main() {
    let (n, k) = (24usize, 16usize);
    println!("=== Algorithm 4 vs dynamic networks (global comm + 1-NK) ===");
    challenge(
        "static random graph",
        StaticNetwork::new(generators::random_connected(n, 0.15, 1).unwrap()),
        n,
        k,
    );
    challenge(
        "periodic path/star/cycle",
        PeriodicNetwork::new(vec![
            generators::path(n).unwrap(),
            generators::star(n).unwrap(),
            generators::cycle(n).unwrap(),
        ]),
        n,
        k,
    );
    challenge(
        "oblivious edge churn",
        EdgeChurnNetwork::new(n, 0.12, 9),
        n,
        k,
    );
    challenge(
        "T-interval (T = 4)",
        TIntervalNetwork::new(n, 4, 0.1, 5),
        n,
        k,
    );
    challenge(
        "star-pair (Thm 3, adaptive)",
        StarPairAdversary::new(n),
        n,
        k,
    );
    println!();

    println!("=== the impossibility traps (Theorems 1 & 2) ===");
    let t1 = impossibility::run_path_trap(12, 7, 300).expect("valid run");
    println!(
        "  path-trap vs greedy-local    k={:<3} rounds={:<4} dispersed={} (Thm 1 says never)",
        t1.k, t1.rounds, t1.dispersed
    );
    assert!(!t1.dispersed);
    let t2 = impossibility::run_clique_trap(12, 7, 300).expect("valid run");
    println!(
        "  clique-trap vs blind-global  k={:<3} rounds={:<4} new-nodes={} (Thm 2 says zero)",
        t2.k, t2.rounds, t2.total_new_nodes
    );
    assert!(!t2.dispersed);
    assert_eq!(t2.total_new_nodes, 0);
    println!();
    println!("every bound held.");
}
