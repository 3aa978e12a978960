//! The paper's five theorems as integration tests (Table I).

use dispersion_core::baselines::{BlindGlobal, GreedyLocal};
use dispersion_core::{impossibility, lower_bound, DispersionDynamic};
use dispersion_engine::adversary::{
    CliqueTrapAdversary, EdgeChurnNetwork, PathTrapAdversary, StarPairAdversary,
};
use dispersion_engine::{Configuration, CrashPhase, FaultPlan, ModelSpec, Simulator};
use dispersion_graph::NodeId;

// ---------------------------------------------------------------- Thm 1

#[test]
fn theorem1_local_model_never_disperses() {
    // Table I row 1: local comm + 1-neighborhood knowledge + unlimited
    // memory → impossible. The path-trap adversary holds the greedy local
    // algorithm (k ≥ 5, as in the theorem) captive for 500 rounds.
    for k in [5usize, 6, 8, 10] {
        let report = impossibility::run_path_trap(k + 5, k, 500).unwrap();
        assert!(!report.dispersed, "k={k} escaped");
        assert_eq!(report.rounds, 500, "k={k} ended early");
        assert_eq!(report.trap_misses, 0, "k={k}: adversary lost certification");
    }
}

#[test]
fn theorem1_trap_also_holds_blind_local_victims() {
    // A victim that is even weaker (no neighborhood knowledge) is trapped
    // a fortiori — the adversary construction doesn't care.
    let mut sim = Simulator::builder(
        GreedyLocal::new(),
        PathTrapAdversary::new(11),
        ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        impossibility::near_dispersed_config(11, 6),
    )
    .max_rounds(300)
    .build()
    .unwrap();
    let out = sim.run().unwrap();
    assert!(!out.dispersed);
}

#[test]
fn theorem1_same_victim_escapes_on_static_graphs() {
    // The impossibility is about dynamism: the same greedy local victim
    // disperses on a static star instantly.
    let g = dispersion_graph::generators::star(10).unwrap();
    let mut sim = Simulator::builder(
        GreedyLocal::new(),
        dispersion_engine::adversary::StaticNetwork::new(g),
        ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(10, 8, NodeId::new(0)),
    )
    .build()
    .unwrap();
    let out = sim.run().unwrap();
    assert!(out.dispersed);
}

// ---------------------------------------------------------------- Thm 2

#[test]
fn theorem2_blind_global_never_progresses() {
    // Table I row 2: global comm without 1-neighborhood knowledge →
    // impossible, with *zero* new nodes ever visited (k ≥ 3 per theorem).
    for k in [3usize, 4, 6, 9, 12] {
        let report = impossibility::run_clique_trap(k + 5, k, 300).unwrap();
        assert!(!report.dispersed, "k={k} escaped");
        assert_eq!(report.total_new_nodes, 0, "k={k}: progress leaked");
        assert_eq!(report.trap_misses, 0, "k={k}");
    }
}

#[test]
fn theorem2_same_victim_escapes_on_static_graphs() {
    let g = dispersion_graph::generators::complete(9).unwrap();
    let mut sim = Simulator::builder(
        BlindGlobal::new(),
        dispersion_engine::adversary::StaticNetwork::new(g),
        ModelSpec::GLOBAL_BLIND,
        impossibility::near_dispersed_config(9, 5),
    )
    .max_rounds(1000)
    .build()
    .unwrap();
    let out = sim.run().unwrap();
    assert!(out.dispersed, "blind-global finishes on a static clique");
}

#[test]
fn theorem2_trap_even_against_algorithm4_without_sensing() {
    // Run the paper's own Algorithm 4 but in the blind model (its packets
    // lose the neighbor fields, so it can only hold still or err): the
    // point is the *model* is what defeats dispersion. Algorithm 4
    // requires sensing and (correctly) panics without it — so this test
    // uses BlindGlobal and merely confirms the clique trap needs no
    // assumptions about the victim beyond determinism.
    let mut sim = Simulator::builder(
        BlindGlobal::new(),
        CliqueTrapAdversary::new(12),
        ModelSpec::GLOBAL_BLIND,
        impossibility::near_dispersed_config(12, 7),
    )
    .max_rounds(200)
    .build()
    .unwrap();
    let out = sim.run().unwrap();
    assert!(!out.dispersed);
    assert_eq!(sim.network().trap_misses(), 0);
}

// ---------------------------------------------------------------- Thm 3

#[test]
fn theorem3_lower_bound_tight_across_k() {
    for k in [2usize, 4, 8, 16, 32] {
        let report = lower_bound::run_lower_bound(k + 6, k).unwrap();
        assert!(report.is_tight(), "k={k}: {report:?}");
        assert_eq!(report.rounds, report.floor);
        assert!(
            report.dynamic_diameter <= 3,
            "k={k}: diameter must be O(1), got {}",
            report.dynamic_diameter
        );
        assert_eq!(report.max_new_per_round, 1);
    }
}

// ---------------------------------------------------------------- Thm 4

#[test]
fn theorem4_upper_bound_k_rounds_log_k_bits() {
    for seed in 0..10u64 {
        let n = 14 + (seed as usize % 12);
        let k = 3 + (seed as usize % (n - 3));
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            EdgeChurnNetwork::new(n, 0.12, seed),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::random(n, k, seed, true),
        )
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        assert!(out.dispersed, "seed {seed}");
        assert!(out.rounds <= k as u64, "seed {seed}: O(k) violated");
        assert_eq!(
            out.max_memory_bits(),
            dispersion_engine::RobotId::bits_for_population(k),
            "seed {seed}: Θ(log k) violated"
        );
    }
}

#[test]
fn theorem4_against_its_own_lower_bound_adversary() {
    // The bound is Θ(k): the star-pair adversary shows rounds ≥ k−1 and
    // Algorithm 4 achieves exactly k−1.
    for k in [3usize, 9, 17, 25] {
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            StarPairAdversary::new(k + 4),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(k + 4, k, NodeId::new(0)),
        )
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        assert_eq!(out.rounds, (k - 1) as u64);
    }
}

// ---------------------------------------------------------------- Thm 5

#[test]
fn theorem5_crash_faults_k_minus_f_rounds() {
    // All f crashes up front: the run behaves exactly like k − f robots.
    for (k, f) in [(10usize, 2usize), (12, 6), (16, 8), (20, 15)] {
        let n = k + 4;
        let events = (1..=f as u32).map(|i| dispersion_engine::CrashEvent {
            robot: dispersion_engine::RobotId::new(2 * i.min(k as u32 / 2)),
            round: 0,
            phase: CrashPhase::BeforeCommunicate,
        });
        // De-duplicate robot choices for high f.
        let mut seen = std::collections::BTreeSet::new();
        let events: Vec<_> = events
            .map(|mut e| {
                while !seen.insert(e.robot) {
                    e.robot = dispersion_engine::RobotId::new(e.robot.get() % k as u32 + 1);
                }
                e
            })
            .collect();
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            StarPairAdversary::new(n),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .faults(FaultPlan::from_events(events))
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        assert!(out.dispersed);
        assert_eq!(out.crashes, f);
        assert_eq!(
            out.rounds,
            (k - f - 1) as u64,
            "k={k}, f={f}: survivors need k−f−1 star-pair rounds"
        );
    }
}

#[test]
fn theorem5_mid_run_crashes_stay_within_bound() {
    for seed in 0..6u64 {
        let (n, k, f) = (18usize, 12usize, 4usize);
        let plan = FaultPlan::random(k, f, 6, CrashPhase::BeforeCommunicate, seed);
        let out = dispersion_core::faulty::run_with_faults(
            EdgeChurnNetwork::new(n, 0.15, seed),
            Configuration::rooted(n, k, NodeId::new(0)),
            plan,
        )
        .unwrap();
        assert!(out.dispersed, "seed {seed}");
        assert!(
            dispersion_core::faulty::theorem5_runtime_holds(&out, f as u64),
            "seed {seed}: rounds={} k={} f={}",
            out.rounds,
            out.k,
            out.crashes
        );
    }
}
