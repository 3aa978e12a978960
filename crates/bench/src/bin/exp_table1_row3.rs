//! Table I, row 3 (Theorems 3 & 4): in the global + 1-NK model,
//! DISPERSION is solvable in Θ(k) rounds with Θ(log k) bits.
//!
//! (a) Lower bound: against the star-pair adversary every algorithm needs
//!     ≥ k − 1 rounds from a rooted start; Algorithm 4 hits exactly k − 1.
//! (b) Upper bound: across static graphs, oblivious churn, T-interval
//!     dynamics and the adaptive adversary, rounds / k stays ≤ 1.

use dispersion_bench::{banner, run_alg4_random, run_alg4_rooted, Table};
use dispersion_core::lower_bound;
use dispersion_engine::adversary::{
    EdgeChurnNetwork, StarPairAdversary, StaticNetwork, TIntervalNetwork,
};
use dispersion_graph::generators;

fn main() {
    banner(
        "T1.r3",
        "Table I row 3 / Theorems 3 & 4",
        "global comm + 1-NK: Θ(k)-round algorithm with Θ(log k) bits per robot",
    );

    println!("(a) lower bound — star-pair adversary, rooted start (Fig. 2 setting)");
    let mut t = Table::new([
        "k",
        "n",
        "rounds",
        "floor k-1",
        "max new/round",
        "dyn diameter",
        "tight",
    ]);
    for k in [4usize, 8, 16, 32, 64] {
        let report = lower_bound::run_lower_bound(k + 6, k).expect("valid run");
        t.row([
            k.to_string(),
            (k + 6).to_string(),
            report.rounds.to_string(),
            report.floor.to_string(),
            report.max_new_per_round.to_string(),
            report.dynamic_diameter.to_string(),
            report.is_tight().to_string(),
        ]);
        assert!(report.is_tight());
    }
    println!("{t}");
    println!();

    println!("(b) upper bound — rounds / k across dynamic networks (rounds ≤ k everywhere)");
    let mut t = Table::new(["network", "n", "k", "rounds", "rounds/k", "memory bits"]);
    for k in [8usize, 16, 32, 64] {
        let n = k + k / 2;
        for (name, out) in [
            (
                "static random",
                run_alg4_rooted(
                    StaticNetwork::new(generators::random_connected(n, 0.1, k as u64).unwrap()),
                    n,
                    k,
                ),
            ),
            (
                "edge churn",
                run_alg4_rooted(EdgeChurnNetwork::new(n, 0.1, k as u64), n, k),
            ),
            (
                "T-interval (T=4)",
                run_alg4_rooted(TIntervalNetwork::new(n, 4, 0.1, k as u64), n, k),
            ),
            (
                "star-pair (adaptive)",
                run_alg4_rooted(StarPairAdversary::new(n), n, k),
            ),
            (
                "churn, arbitrary start",
                run_alg4_random(EdgeChurnNetwork::new(n, 0.1, k as u64), n, k, k as u64),
            ),
        ] {
            assert!(out.dispersed);
            assert!(out.rounds <= k as u64, "{name}: O(k) violated");
            t.row([
                name.to_string(),
                n.to_string(),
                k.to_string(),
                out.rounds.to_string(),
                format!("{:.2}", out.rounds as f64 / k as f64),
                out.max_memory_bits().to_string(),
            ]);
        }
    }
    println!("{t}");
    println!();
    println!(
        "result: rounds ≥ k−1 against the lower-bound adversary and\n\
         rounds ≤ k on every network, with exactly ⌈log₂ k⌉ memory bits —\n\
         the tight Θ(k)-round, Θ(log k)-bit cell of Table I row 3."
    );
}
