//! Extension experiment: total robot moves ("energy") per algorithm.
//!
//! The paper optimizes rounds and memory; total moves is the third
//! quantity a deployment cares about (battery). Sliding moves every robot
//! on every active path each round, so Algorithm 4 trades extra moves for
//! its round optimality; the DFS baseline moves the whole group along
//! every edge; the random walk wanders. Each cell aggregates several
//! seeded instances through `RunSummary` instead of trusting one graph.

use dispersion_bench::{banner, Table};
use dispersion_core::baselines::{LocalDfs, RandomWalk};
use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::StaticNetwork;
use dispersion_engine::stats::RunSummary;
use dispersion_engine::{Configuration, DispersionAlgorithm, ModelSpec, SimOutcome, Simulator};
use dispersion_graph::{generators, NodeId};

const SEEDS: u64 = 5;

fn run<A: DispersionAlgorithm>(
    alg: A,
    model: ModelSpec,
    n: usize,
    k: usize,
    sparse: bool,
    seed: u64,
) -> SimOutcome {
    let g = if sparse {
        generators::cycle(n).unwrap()
    } else {
        generators::random_connected(n, 0.15, seed).unwrap()
    };
    let mut sim = Simulator::builder(
        alg,
        StaticNetwork::new(g),
        model,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .max_rounds(2_000_000)
    .build()
    .expect("k ≤ n");
    sim.run().expect("valid run")
}

fn summarize(mk: impl Fn(u64) -> SimOutcome) -> RunSummary {
    let outcomes: Vec<SimOutcome> = (0..SEEDS).map(mk).collect();
    let summary = RunSummary::collect(&outcomes);
    assert!(summary.all_dispersed);
    summary
}

fn main() {
    banner(
        "Moves",
        "total-moves accounting across algorithms (extension)",
        "rounds-vs-moves trade-off: Θ(k) rounds costs O(k²) moves worst case",
    );

    for (label, sparse) in [("dense random graphs", false), ("sparse cycles", true)] {
        println!("({label}, mean over {SEEDS} seeds)");
        let mut t = Table::new([
            "k",
            "alg4 rounds",
            "alg4 moves",
            "dfs rounds",
            "dfs moves",
            "walk rounds",
            "walk moves",
        ]);
        for k in [8usize, 16, 32] {
            let n = k + k / 2;
            let alg4 = summarize(|seed| {
                run(
                    DispersionDynamic::new(),
                    ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                    n,
                    k,
                    sparse,
                    seed,
                )
            });
            let dfs = summarize(|seed| {
                run(
                    LocalDfs::new(),
                    ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
                    n,
                    k,
                    sparse,
                    seed,
                )
            });
            let walk = summarize(|seed| {
                run(
                    RandomWalk::new(seed.wrapping_add(k as u64)),
                    ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                    n,
                    k,
                    sparse,
                    seed,
                )
            });
            t.row([
                k.to_string(),
                format!("{:.1}", alg4.mean_rounds),
                format!("{:.1}", alg4.mean_moves),
                format!("{:.1}", dfs.mean_rounds),
                format!("{:.1}", dfs.mean_moves),
                format!("{:.1}", walk.mean_rounds),
                format!("{:.1}", walk.mean_moves),
            ]);
            assert!(alg4.mean_rounds <= dfs.mean_rounds);
        }
        println!("{t}");
        println!();
    }
    println!(
        "result: Algorithm 4 wins rounds everywhere (its objective) at a\n\
         modest move bill. On dense graphs the random walk is competitive\n\
         (short cover time, many exits per node); on sparse cycles its\n\
         rounds and moves blow up with the quadratic cover time while\n\
         Algorithm 4 stays ≤ k. The group-walking DFS pays the most moves\n\
         everywhere — every unsettled robot retraces the whole DFS."
    );
}
