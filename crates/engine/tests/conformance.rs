//! The invariant monitor end-to-end: a healthy run passes the full
//! suite, a deliberately broken algorithm is caught mid-run with a
//! replayable seed (the mutation smoke test of the conformance
//! subsystem), and adversary determinism is verified by a double run.

use dispersion_engine::adversary::{EdgeChurnNetwork, StaticNetwork};
use dispersion_engine::{
    Action, CheckPolicy, Configuration, DispersionAlgorithm, MemoryFootprint, ModelSpec, RobotId,
    RobotView, SimError, Simulator, TracePolicy,
};
use dispersion_graph::{generators, NodeId};

#[derive(Clone, Copy)]
struct TinyMemory;

impl MemoryFootprint for TinyMemory {
    fn persistent_bits(&self) -> usize {
        2
    }
}

/// Disperses on a star in one round: every non-minimum robot on a node
/// takes a distinct empty port.
struct Spill;

impl DispersionAlgorithm for Spill {
    type Memory = TinyMemory;

    fn name(&self) -> &str {
        "spill"
    }

    fn init(&self, _me: RobotId, _k: usize) -> TinyMemory {
        TinyMemory
    }

    fn step(&self, view: &RobotView, _mem: &TinyMemory) -> (Action, TinyMemory) {
        if view.colocated.first() == Some(&view.me) {
            return (Action::Stay, TinyMemory);
        }
        let empties = view.empty_ports().unwrap_or_default();
        let rank = view
            .colocated
            .iter()
            .position(|&r| r == view.me)
            .expect("self in colocated")
            - 1;
        match empties.get(rank % empties.len().max(1)) {
            Some(&p) => (Action::Move(p), TinyMemory),
            None => (Action::Stay, TinyMemory),
        }
    }
}

/// The deliberately broken algorithm of the mutation smoke test: every
/// robot settles where it stands, so two robots stay settled on one node
/// forever and dispersion never completes.
struct DoubleSettler;

impl DispersionAlgorithm for DoubleSettler {
    type Memory = TinyMemory;

    fn name(&self) -> &str {
        "double-settler"
    }

    fn init(&self, _me: RobotId, _k: usize) -> TinyMemory {
        TinyMemory
    }

    fn step(&self, _view: &RobotView, _mem: &TinyMemory) -> (Action, TinyMemory) {
        (Action::Stay, TinyMemory)
    }
}

#[test]
fn healthy_run_passes_the_full_suite() {
    let (n, k) = (8usize, 5usize);
    let out = Simulator::builder(
        Spill,
        StaticNetwork::new(generators::star(n).unwrap()),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .check(CheckPolicy::Full)
    .check_seed(7)
    .build()
    .unwrap()
    .run()
    .expect("a correct run violates nothing");
    assert!(out.dispersed);
}

#[test]
fn mutation_smoke_test_reports_round_and_replay_seed() {
    // All four robots "settle" on node 0 and never separate. Under the
    // full policy the Lemma 7 progress invariant catches the very first
    // stalled round — long before any round cap — and the violation
    // carries the seed needed to replay the run.
    let (n, k) = (6usize, 4usize);
    let err = Simulator::builder(
        DoubleSettler,
        StaticNetwork::new(generators::path(n).unwrap()),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .check(CheckPolicy::Full)
    .check_seed(42)
    .build()
    .unwrap()
    .run()
    .unwrap_err();
    match err {
        SimError::InvariantViolation(v) => {
            assert_eq!(v.invariant, "move-monotonicity");
            assert_eq!(v.round, 0);
            assert_eq!(v.seed, Some(42));
            let rendered = v.to_string();
            assert!(rendered.contains("round 0"), "got: {rendered}");
            assert!(rendered.contains("replay seed 42"), "got: {rendered}");
        }
        other => panic!("expected an invariant violation, got {other:?}"),
    }
}

#[test]
fn structural_policy_tolerates_non_dispersing_algorithms() {
    // The structural suite checks the model, not the theorems: a frozen
    // group violates nothing even though it never disperses.
    let out = Simulator::builder(
        DoubleSettler,
        StaticNetwork::new(generators::cycle(7).unwrap()),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(7, 3, NodeId::new(0)),
    )
    .max_rounds(30)
    .check(CheckPolicy::Structural)
    .build()
    .unwrap()
    .run()
    .expect("structural invariants hold for any algorithm");
    assert!(!out.dispersed);
    assert_eq!(out.rounds, 30);
}

#[test]
fn full_policy_round_limit_is_overridable() {
    // Tightening the limit below the honest requirement turns a correct
    // run into a reported violation — the knob works.
    let err = Simulator::builder(
        Spill,
        StaticNetwork::new(generators::star(9).unwrap()),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(9, 5, NodeId::new(1)),
    )
    .check(CheckPolicy::Full)
    .check_round_limit(1)
    .build()
    .unwrap()
    .run();
    // Rooted on a leaf, round 1 cannot finish dispersion of 5 robots.
    assert!(matches!(
        err,
        Err(SimError::InvariantViolation(v)) if v.invariant == "round-bound"
    ));
}

#[test]
fn adversary_determinism_holds_for_seeded_churn() {
    let (n, k, seed) = (14usize, 9usize, 5u64);
    let run = |expected: Option<Vec<u64>>| {
        let mut builder = Simulator::builder(
            Spill,
            EdgeChurnNetwork::new(n, 0.2, seed),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .max_rounds(25)
        .check(CheckPolicy::Structural)
        .check_seed(seed);
        if let Some(expected) = expected {
            builder = builder.check_expected_graphs(expected);
        }
        let mut sim = builder.build().unwrap();
        let result = sim.run();
        let hashes = sim
            .monitor()
            .expect("checking is on")
            .graph_hashes()
            .to_vec();
        (result, hashes)
    };
    let (first, hashes) = run(None);
    first.expect("first run is clean");
    assert!(!hashes.is_empty());
    // Same seed, same sequence: the replay passes with determinism armed.
    let (second, replay_hashes) = run(Some(hashes.clone()));
    second.expect("same seed must reproduce the same graphs");
    assert_eq!(hashes, replay_hashes);
}

#[test]
fn adversary_determinism_flags_a_diverging_sequence() {
    let (n, k) = (14usize, 9usize);
    let mut sim = Simulator::builder(
        Spill,
        EdgeChurnNetwork::new(n, 0.2, 5),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .max_rounds(25)
    .check(CheckPolicy::Structural)
    .build()
    .unwrap();
    sim.run().expect("clean run");
    let hashes = sim.monitor().unwrap().graph_hashes().to_vec();
    // A different adversary seed must diverge from the recorded sequence.
    let err = Simulator::builder(
        Spill,
        EdgeChurnNetwork::new(n, 0.2, 6),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .max_rounds(25)
    .check(CheckPolicy::Structural)
    .check_expected_graphs(hashes)
    .build()
    .unwrap()
    .run()
    .unwrap_err();
    assert!(matches!(
        err,
        SimError::InvariantViolation(v) if v.invariant == "adversary-determinism"
    ));
}

#[test]
fn checking_composes_with_traces_and_faults() {
    use dispersion_engine::{CrashEvent, CrashPhase, FaultPlan};
    let (n, k) = (8usize, 5usize);
    let out = Simulator::builder(
        Spill,
        StaticNetwork::new(generators::star(n).unwrap()),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .trace(TracePolicy::RoundsAndGraphs)
    .faults(FaultPlan::from_events([CrashEvent {
        robot: RobotId::new(3),
        round: 0,
        phase: CrashPhase::BeforeCommunicate,
    }]))
    .check(CheckPolicy::Structural)
    .build()
    .unwrap()
    .run()
    .expect("crashes are bookkept, not violations");
    assert!(out.dispersed);
    assert_eq!(out.crashes, 1);
}
