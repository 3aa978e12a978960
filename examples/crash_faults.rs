//! Crash-fault dispersion (Section VII): robots vanish mid-run and the
//! survivors still finish, in O(k − f) rounds.
//!
//! ```sh
//! cargo run --example crash_faults
//! ```

use dispersion_core::faulty::run_with_faults;
use dispersion_engine::adversary::StarPairAdversary;
use dispersion_engine::{Configuration, CrashEvent, CrashPhase, FaultPlan, RobotId};
use dispersion_graph::NodeId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, k) = (20usize, 14usize);
    println!("FAULTYDISPERSION: k = {k} robots, worst-case adversary, crashes mid-run");
    println!();

    // Three robots crash at different times, in both crash phases.
    let plan = FaultPlan::from_events([
        CrashEvent {
            robot: RobotId::new(14),
            round: 2,
            phase: CrashPhase::BeforeCommunicate,
        },
        CrashEvent {
            robot: RobotId::new(7),
            round: 4,
            phase: CrashPhase::AfterCompute,
        },
        CrashEvent {
            robot: RobotId::new(3),
            round: 6,
            phase: CrashPhase::BeforeCommunicate,
        },
    ]);
    println!("fault plan:");
    for e in plan.events() {
        println!(
            "  round {:>2}: {} crashes ({:?})",
            e.round, e.robot, e.phase
        );
    }
    println!();

    let outcome = run_with_faults(
        StarPairAdversary::new(n),
        Configuration::rooted(n, k, NodeId::new(0)),
        plan,
    )?;

    for rec in &outcome.trace.records {
        let crash_note = if rec.crashed.is_empty() {
            String::new()
        } else {
            format!("  ⚡ crashed: {:?}", rec.crashed)
        };
        println!(
            "round {:>2}: occupied {:>2} → {:>2}{crash_note}",
            rec.round, rec.occupied_before, rec.occupied_after
        );
    }
    println!();
    let f = outcome.crashes;
    println!(
        "dispersed: {} — {} survivors on distinct nodes after {} rounds \
         (Theorem 5 bound: O(k − f) = O({}))",
        outcome.dispersed,
        outcome.final_config.robot_count(),
        outcome.rounds,
        k - f
    );
    Ok(())
}
