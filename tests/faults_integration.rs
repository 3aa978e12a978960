//! Crash-fault integration sweeps (Section VII / Theorem 5) beyond the
//! headline bound: both crash phases, crashes during slides, crashed
//! multiplicity nodes, and extreme fault ratios.

use dispersion_core::faulty::{run_with_faults, theorem5_runtime_holds};
use dispersion_engine::adversary::{EdgeChurnNetwork, StarPairAdversary, StaticNetwork};
use dispersion_engine::{Configuration, CrashEvent, CrashPhase, FaultPlan, RobotId};
use dispersion_graph::{generators, NodeId};

fn r(i: u32) -> RobotId {
    RobotId::new(i)
}

#[test]
fn both_phases_random_sweep() {
    for phase in [CrashPhase::BeforeCommunicate, CrashPhase::AfterCompute] {
        for seed in 0..10u64 {
            let (n, k) = (16usize, 11usize);
            let f = (seed as usize % 5) + 1;
            let plan = FaultPlan::random(k, f, 8, phase, seed);
            let out = run_with_faults(
                EdgeChurnNetwork::new(n, 0.15, seed.wrapping_add(50)),
                Configuration::random(n, k, seed, true),
                plan,
            )
            .unwrap();
            assert!(out.dispersed, "{phase:?} seed {seed}");
            assert!(
                theorem5_runtime_holds(&out, (f + 2) as u64),
                "{phase:?} seed {seed}: rounds {} f {}",
                out.rounds,
                out.crashes
            );
        }
    }
}

#[test]
fn crash_of_the_root_anchor() {
    // Robot 1 anchors the rooted multiplicity node; crashing it mid-run
    // forces the component identity and root selection to shift.
    let events = [CrashEvent {
        robot: r(1),
        round: 2,
        phase: CrashPhase::BeforeCommunicate,
    }];
    let out = run_with_faults(
        StarPairAdversary::new(12),
        Configuration::rooted(12, 8, NodeId::new(0)),
        FaultPlan::from_events(events),
    )
    .unwrap();
    assert!(out.dispersed);
    assert_eq!(out.final_config.robot_count(), 7);
}

#[test]
fn crash_of_every_path_mover() {
    // Crash the largest IDs — the designated movers — one per round.
    let events: Vec<_> = (0..4u32)
        .map(|i| CrashEvent {
            robot: r(10 - i),
            round: u64::from(i),
            phase: CrashPhase::AfterCompute,
        })
        .collect();
    let out = run_with_faults(
        EdgeChurnNetwork::new(14, 0.2, 9),
        Configuration::rooted(14, 10, NodeId::new(0)),
        FaultPlan::from_events(events),
    )
    .unwrap();
    assert!(out.dispersed);
    assert_eq!(out.crashes, 4);
}

#[test]
fn simultaneous_mass_crash() {
    // Half the robots vanish in one round.
    let events: Vec<_> = (1..=6u32)
        .map(|i| CrashEvent {
            robot: r(i * 2),
            round: 3,
            phase: CrashPhase::BeforeCommunicate,
        })
        .collect();
    let out = run_with_faults(
        EdgeChurnNetwork::new(16, 0.15, 1),
        Configuration::rooted(16, 12, NodeId::new(0)),
        FaultPlan::from_events(events),
    )
    .unwrap();
    assert!(out.dispersed);
    assert_eq!(out.final_config.robot_count(), 6);
}

#[test]
fn crash_splits_component() {
    // A path of occupied nodes; crashing the middle robot splits the
    // component in two — both halves must still finish (Section VII:
    // "being able to compute the sub-component the robot belongs to is
    // enough").
    let g = generators::path(9).unwrap();
    let cfg = Configuration::from_pairs(
        9,
        [
            (r(1), NodeId::new(0)),
            (r(6), NodeId::new(0)),
            (r(2), NodeId::new(1)),
            (r(3), NodeId::new(2)),
            (r(4), NodeId::new(3)),
            (r(5), NodeId::new(4)),
            (r(7), NodeId::new(4)),
        ],
    );
    let events = [CrashEvent {
        robot: r(3),
        round: 0,
        phase: CrashPhase::BeforeCommunicate,
    }];
    let out = run_with_faults(StaticNetwork::new(g), cfg, FaultPlan::from_events(events)).unwrap();
    assert!(out.dispersed);
    assert_eq!(out.final_config.robot_count(), 6);
}

#[test]
fn crash_vacates_a_node_that_gets_reused() {
    // Section VII: a node emptied by a crash behaves like a fresh empty
    // node afterwards. Crash a settled singleton and let the survivors
    // re-occupy its node.
    let g = generators::path(5).unwrap();
    // Robots: {1,2,3,4} on node 0, {5} on node 4.
    let cfg = Configuration::from_pairs(
        5,
        [
            (r(1), NodeId::new(0)),
            (r(2), NodeId::new(0)),
            (r(3), NodeId::new(0)),
            (r(4), NodeId::new(0)),
            (r(5), NodeId::new(4)),
        ],
    );
    let events = [CrashEvent {
        robot: r(5),
        round: 1,
        phase: CrashPhase::BeforeCommunicate,
    }];
    let out = run_with_faults(StaticNetwork::new(g), cfg, FaultPlan::from_events(events)).unwrap();
    assert!(out.dispersed);
    // 4 survivors on a 5-node path: all on distinct nodes.
    assert_eq!(out.final_config.occupied_count(), 4);
}

#[test]
fn f_equals_k_minus_one() {
    // Everyone but one robot crashes before round 0: trivially dispersed.
    let events: Vec<_> = (2..=9u32)
        .map(|i| CrashEvent {
            robot: r(i),
            round: 0,
            phase: CrashPhase::BeforeCommunicate,
        })
        .collect();
    let out = run_with_faults(
        EdgeChurnNetwork::new(10, 0.2, 2),
        Configuration::rooted(10, 9, NodeId::new(0)),
        FaultPlan::from_events(events),
    )
    .unwrap();
    assert!(out.dispersed);
    assert_eq!(out.rounds, 0);
    assert_eq!(out.final_config.robot_count(), 1);
}

#[test]
fn crashes_after_dispersion_cannot_undo_it() {
    // Crashes scheduled after the run finishes are simply never applied.
    let plan = FaultPlan::from_events([CrashEvent {
        robot: r(2),
        round: 10_000,
        phase: CrashPhase::BeforeCommunicate,
    }]);
    let out = run_with_faults(
        StarPairAdversary::new(8),
        Configuration::rooted(8, 4, NodeId::new(0)),
        plan,
    )
    .unwrap();
    assert!(out.dispersed);
    assert_eq!(out.crashes, 0);
    assert_eq!(out.final_config.robot_count(), 4);
}

#[test]
fn faulty_runs_still_make_progress_when_possible() {
    // Progress accounting under faults: rounds without crashes gain nodes.
    let plan = FaultPlan::from_events([CrashEvent {
        robot: r(7),
        round: 2,
        phase: CrashPhase::BeforeCommunicate,
    }]);
    let out = run_with_faults(
        StarPairAdversary::new(12),
        Configuration::rooted(12, 8, NodeId::new(0)),
        plan,
    )
    .unwrap();
    assert!(out.dispersed);
    for rec in &out.trace.records {
        if rec.crashed.is_empty() {
            assert!(rec.newly_occupied >= 1, "round {} stalled", rec.round);
        }
    }
}
