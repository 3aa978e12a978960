//! Extension experiment: semi-synchronous activation (future-work
//! direction 4 of Section VIII).
//!
//! The paper's model activates every robot every round. Here each robot
//! is activated independently with probability `p` per round: Algorithm 4
//! remains safe (structures are recomputed from scratch each round; no
//! stale agreement survives) and terminates, but the k-round bound decays
//! roughly like 1/p — rounds where a designated mover sleeps are lost.

use dispersion_bench::{banner, Table};
use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::{EdgeChurnNetwork, StarPairAdversary};
use dispersion_engine::stats::RunSummary;
use dispersion_engine::{Activation, Configuration, ModelSpec, Simulator};
use dispersion_graph::NodeId;

const SEEDS: u64 = 8;

fn summarize(p_percent: u8, adaptive: bool, n: usize, k: usize) -> RunSummary {
    use dispersion_engine::adversary::DynamicNetwork;
    let outcomes: Vec<_> = (0..SEEDS)
        .map(|seed| {
            let network: Box<dyn DynamicNetwork> = if adaptive {
                Box::new(StarPairAdversary::new(n))
            } else {
                Box::new(EdgeChurnNetwork::new(n, 0.12, seed))
            };
            let mut sim = Simulator::builder(
                DispersionDynamic::new(),
                network,
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                Configuration::rooted(n, k, NodeId::new(0)),
            )
            .max_rounds(50_000)
            .activation(if p_percent == 100 {
                Activation::FullSync
            } else {
                Activation::SemiSync { p_percent, seed }
            })
            .build()
            .expect("k ≤ n");
            sim.run().expect("valid run")
        })
        .collect();
    RunSummary::collect(&outcomes)
}

fn main() {
    banner(
        "Semisync",
        "semi-synchronous activation (Section VIII future work, extension)",
        "Algorithm 4 stays safe under partial activation; the k-round bound\n\
         degrades smoothly with the activation probability",
    );

    let (n, k) = (20usize, 14usize);
    let mut t = Table::new([
        "activation p",
        "churn mean rounds",
        "churn max",
        "star-pair mean",
        "star-pair max",
        "all dispersed",
    ]);
    for p in [100u8, 80, 60, 40, 20] {
        let churn = summarize(p, false, n, k);
        let adaptive = summarize(p, true, n, k);
        assert!(churn.all_dispersed && adaptive.all_dispersed, "p={p}");
        t.row([
            format!("{p}%"),
            format!("{:.1}", churn.mean_rounds),
            churn.max_rounds.to_string(),
            format!("{:.1}", adaptive.mean_rounds),
            adaptive.max_rounds.to_string(),
            "yes".to_string(),
        ]);
    }
    println!("{t}");
    println!();
    println!(
        "result: every run terminated (safety survives partial activation —\n\
         all structures are rebuilt per round), while round counts scale\n\
         up as activation drops; at p = 100% the synchronous bound k = {k}\n\
         holds exactly as in Table I row 3."
    );
}
