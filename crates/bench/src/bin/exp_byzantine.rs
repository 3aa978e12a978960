//! Extension experiment: the Byzantine boundary (future-work direction 3
//! of Section VIII).
//!
//! Crash faults cost rounds (Theorem 5); Byzantine faults cost
//! *correctness*. One deviant robot, depending on its strategy, ranges
//! from harmless to a complete denial-of-service — measured here.

use dispersion_bench::{banner, Table};
use dispersion_core::byzantine::{honest_dispersed, ByzantineStrategy, WithByzantine};
use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::EdgeChurnNetwork;
use dispersion_engine::{Configuration, ModelSpec, RobotId, Simulator};
use dispersion_graph::NodeId;

fn main() {
    banner(
        "Byzantine",
        "Byzantine robots (Section VIII future work, extension)",
        "one deviant ranges from harmless to total denial-of-service —\n\
         the reason Byzantine dispersion needs a new problem statement",
    );

    let (n, k) = (16usize, 11usize);
    const HORIZON: u64 = 400;
    let mut t = Table::new([
        "deviant strategy",
        "deviant id",
        "dispersed",
        "rounds",
        "honest dispersed at end",
    ]);
    for (label, strategy, deviant) in [
        ("none (control)", None, 0u32),
        (
            "freeze, largest id",
            Some(ByzantineStrategy::Freeze),
            k as u32,
        ),
        ("freeze, smallest id", Some(ByzantineStrategy::Freeze), 1),
        (
            "chase crowds",
            Some(ByzantineStrategy::ChaseCrowds),
            k as u32,
        ),
        ("scramble", Some(ByzantineStrategy::Scramble), k as u32),
    ] {
        let deviants: Vec<RobotId> = strategy
            .map(|_| vec![RobotId::new(deviant)])
            .unwrap_or_default();
        let set: std::collections::BTreeSet<RobotId> = deviants.iter().copied().collect();
        let alg = WithByzantine::new(
            DispersionDynamic::new(),
            deviants,
            strategy.unwrap_or(ByzantineStrategy::Freeze),
        );
        let mut sim = Simulator::builder(
            alg,
            EdgeChurnNetwork::new(n, 0.15, 3),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .max_rounds(HORIZON)
        .build()
        .expect("k ≤ n");
        let out = sim.run().expect("valid run");
        t.row([
            label.to_string(),
            if strategy.is_some() {
                format!("r{deviant}")
            } else {
                "-".to_string()
            },
            out.dispersed.to_string(),
            out.rounds.to_string(),
            honest_dispersed(&out.final_config, &set).to_string(),
        ]);
    }
    println!("{t}");
    println!();
    println!(
        "result: deviation severity is strategy-dependent. The smallest-id\n\
         freezer coincides with the honest anchor role (harmless); the\n\
         scrambler ignores the protocol but is not adversarial and can\n\
         stumble into a dispersion configuration; the largest-id freezer\n\
         blocks every slide it is assigned (total denial-of-service from a\n\
         rooted start); and the crowd-chaser actively re-creates\n\
         multiplicities so the global termination predicate never holds.\n\
         Byzantine tolerance therefore needs both a new mover-assignment\n\
         design and a new problem statement (dispersion of the honest\n\
         robots) — the paper's future-work direction 3."
    );
}
