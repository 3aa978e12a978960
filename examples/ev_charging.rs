//! The paper's motivating application: relocating self-driving electric
//! cars (robots) to charging stations (nodes).
//!
//! ```sh
//! cargo run --example ev_charging
//! ```
//!
//! A fleet of cars ends the day clustered at a few depots of a city whose
//! road availability changes every round (lane closures, congestion —
//! modeled as 1-interval connected dynamics). Each charging station can
//! serve one car, so the fleet must reach a dispersion configuration.
//! Cars communicate over a cellular link (global communication) and sense
//! whether adjacent stations are occupied (1-neighborhood knowledge) —
//! exactly the model in which the paper proves dispersion possible.

use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::TIntervalNetwork;
use dispersion_engine::{Configuration, ModelSpec, RobotId, Simulator};
use dispersion_graph::NodeId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 30 charging stations; 22 cars parked at three depots.
    let n = 30usize;
    let fleet = 22usize;
    let depots = [NodeId::new(0), NodeId::new(11), NodeId::new(23)];
    let placements =
        (1..=fleet as u32).map(|i| (RobotId::new(i), depots[(i as usize - 1) % depots.len()]));
    let initial = Configuration::from_pairs(n, placements);
    println!("EV fleet rebalancing");
    println!("  stations : {n}");
    println!("  cars     : {fleet}, clustered at depots {:?}", depots);
    println!("  roads    : T-interval connected dynamics (T = 3)");
    println!();

    // Roads: a stable backbone persists for 3-round windows while side
    // streets open and close every round.
    let roads = TIntervalNetwork::new(n, 3, 0.08, 42);
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        roads,
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        initial,
    )
    .build()?;
    let outcome = sim.run()?;

    for rec in &outcome.trace.records {
        println!(
            "round {:>2}: {:>2} stations charging, {:>2} cars moved",
            rec.round, rec.occupied_after, rec.moves
        );
    }
    println!();
    assert!(outcome.dispersed, "every car must find a free station");
    println!(
        "all {fleet} cars reached distinct stations in {} rounds (bound: {fleet})",
        outcome.rounds
    );
    println!("onboard state per car: {} bits", outcome.max_memory_bits());
    Ok(())
}
