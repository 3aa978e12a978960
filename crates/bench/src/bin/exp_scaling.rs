//! Engine scaling: the round loop at large n across worker-thread counts.
//!
//! Runs Algorithm 4 (global communication + 1-neighborhood knowledge)
//! on a static cycle with k = n/2 robots rooted at node 0, tracing off,
//! capped at 256 rounds so the largest size stays tractable. The matrix
//! is n ∈ {1024, 4096, 16384} × threads ∈ {1, 2, 4, 8}; each row prints
//! robot-steps per wall-clock second (one robot-step = one robot
//! executing one round). Every thread count must end with the same
//! round count and final configuration as threads = 1 — the executor's
//! determinism contract at sizes and thread counts the test suite does
//! not reach.

use std::time::Instant;

use dispersion_bench::{banner, Table};
use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::StaticNetwork;
use dispersion_engine::{Configuration, ModelSpec, RobotId, SimOutcome, Simulator, TracePolicy};
use dispersion_graph::{generators, NodeId};

const ROUND_CAP: u64 = 256;

fn run(n: usize, threads: usize) -> (SimOutcome, f64) {
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        StaticNetwork::new(generators::cycle(n).expect("n ≥ 3")),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, n / 2, NodeId::new(0)),
    )
    .max_rounds(ROUND_CAP)
    .trace(TracePolicy::Off)
    .threads(threads)
    .build()
    .expect("k ≤ n");
    let start = Instant::now();
    let outcome = sim.run().expect("valid run");
    (outcome, start.elapsed().as_secs_f64())
}

fn placement(outcome: &SimOutcome) -> Vec<(RobotId, NodeId)> {
    outcome.final_config.iter().collect()
}

fn main() {
    banner(
        "Scaling",
        "the Θ(k)-round loop of Algorithm 4 at large n (engine extension)",
        "output is identical at every worker-thread count",
    );

    let mut t = Table::new([
        "n",
        "k",
        "threads",
        "rounds",
        "robot-steps/s",
        "vs threads=1",
    ]);
    for n in [1024usize, 4096, 16384] {
        let k = n / 2;
        let mut reference: Option<(SimOutcome, f64)> = None;
        for threads in [1usize, 2, 4, 8] {
            let (outcome, wall_s) = run(n, threads);
            let steps_per_s = (outcome.rounds * k as u64) as f64 / wall_s;
            let speedup = match &reference {
                None => 1.0,
                Some((seq, seq_s)) => {
                    assert_eq!(
                        outcome.rounds, seq.rounds,
                        "n={n} threads={threads}: rounds"
                    );
                    assert_eq!(
                        placement(&outcome),
                        placement(seq),
                        "n={n} threads={threads}: final configuration"
                    );
                    seq_s / wall_s
                }
            };
            t.row([
                n.to_string(),
                k.to_string(),
                threads.to_string(),
                outcome.rounds.to_string(),
                format!("{steps_per_s:.0}"),
                format!("{speedup:.2}×"),
            ]);
            if reference.is_none() {
                reference = Some((outcome, wall_s));
            }
        }
    }
    println!("{t}");
    println!();
    println!(
        "result: every thread count reproduces the threads=1 round count and\n\
         final configuration. Throughput is wall-clock and host-dependent;\n\
         the speedup column is only meaningful on a host with that many cores."
    );
}
