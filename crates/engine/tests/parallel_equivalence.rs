//! Determinism contract of the parallel executor: a run is byte-identical
//! for every thread count, and repeated same-seed parallel runs agree.
//!
//! The executor hands out robots in blocks claimed from a counter, so
//! which thread decides a robot varies from run to run; each decision
//! lands in the robot's pre-assigned slot and the slots are merged in
//! order (see `src/executor.rs`). So nothing about a run — per-round
//! records, move counts, crashes, the final configuration, even the
//! adversary's graph sequence (which white-box depends on robot state) —
//! may vary with `threads`. The cases cover more threads than this
//! host's two vCPUs, more threads than live robots, global and local
//! communication, semi-synchronous rounds in which no robot computes, and
//! robots that crash after computing.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use dispersion_engine::adversary::{DynamicRingNetwork, EdgeChurnNetwork, StaticNetwork};
use dispersion_engine::{
    Action, Activation, CheckPolicy, Configuration, CrashPhase, DispersionAlgorithm, FaultPlan,
    MemoryFootprint, ModelSpec, RobotId, RobotView, SimOutcome, Simulator,
};
use dispersion_graph::{generators, NodeId};

/// A dispersing algorithm with real state: every non-minimum robot on a
/// multiplicity node walks out through the empty port of its rank (when
/// sensing shows one), else through a rotating port picked from its hop
/// counter and the robots its packets report — enough memory and packet
/// reads to catch a merge bug or a participant reading the wrong list.
/// With `stepped`, clones log the rounds in which any instance computed
/// (off by default: the lock would serialize the threads' steps).
#[derive(Clone, Default)]
struct Spill {
    stepped: Option<Arc<Mutex<BTreeSet<u64>>>>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Hops(u32);

impl MemoryFootprint for Hops {
    fn persistent_bits(&self) -> usize {
        32
    }
}

impl DispersionAlgorithm for Spill {
    type Memory = Hops;

    fn name(&self) -> &str {
        "spill"
    }

    fn init(&self, _me: RobotId, _k: usize) -> Hops {
        Hops(0)
    }

    fn step(&self, view: &RobotView, mem: &Hops) -> (Action, Hops) {
        if let Some(stepped) = &self.stepped {
            stepped.lock().unwrap().insert(view.round);
        }
        if view.colocated.first() == Some(&view.me) {
            return (Action::Stay, Hops(mem.0));
        }
        let rank = view
            .colocated
            .iter()
            .position(|&r| r == view.me)
            .expect("self in colocated")
            - 1;
        // Robots reported plus occupied nodes: reads the whole packet list.
        let reported = view.packets.iter().map(|p| p.count).sum::<usize>() + view.packets.len();
        if let Some(empties) = view.empty_ports() {
            if !empties.is_empty() {
                let e = empties[(rank + reported) % empties.len()];
                return (Action::Move(e), Hops(mem.0 + 1));
            }
        }
        let ports: Vec<_> = (1..=view.degree).collect();
        let p = ports[(mem.0 as usize + rank + reported) % ports.len()];
        (
            Action::Move(dispersion_graph::Port::new(p as u32)),
            Hops(mem.0 + 1),
        )
    }
}

/// One model, activation schedule and fault plan to run every network
/// under; the plan is drawn for the network's `k`.
struct Case {
    what: &'static str,
    model: ModelSpec,
    activation: Activation,
    faults: fn(usize) -> FaultPlan,
}

fn no_faults(_k: usize) -> FaultPlan {
    FaultPlan::none()
}

/// Half the robots (at least one) crash after computing, in rounds 0..12.
fn after_compute_crashes(k: usize) -> FaultPlan {
    FaultPlan::random(k, k.div_ceil(2), 12, CrashPhase::AfterCompute, 3)
}

/// Each robot computes in a round with probability 0.2, so small
/// populations see rounds in which no robot computes.
const SPARSE: Activation = Activation::SemiSync {
    p_percent: 20,
    seed: 11,
};

const CASES: &[Case] = &[
    Case {
        what: "global+neighborhood",
        model: ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        activation: Activation::FullSync,
        faults: no_faults,
    },
    Case {
        what: "local+neighborhood",
        model: ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        activation: Activation::FullSync,
        faults: no_faults,
    },
    Case {
        what: "local-blind",
        model: ModelSpec::LOCAL_BLIND,
        activation: Activation::FullSync,
        faults: no_faults,
    },
    Case {
        what: "global+semisync",
        model: ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        activation: Activation::SemiSync {
            p_percent: 70,
            seed: 11,
        },
        faults: no_faults,
    },
    Case {
        what: "global+sparse-semisync",
        model: ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        activation: SPARSE,
        faults: no_faults,
    },
    Case {
        what: "global+after-compute-crashes",
        model: ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        activation: Activation::FullSync,
        faults: after_compute_crashes,
    },
    Case {
        what: "local+after-compute-crashes",
        model: ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        activation: Activation::FullSync,
        faults: after_compute_crashes,
    },
];

/// Object-safe adapter so one helper can drive differently typed
/// networks.
trait RunNet {
    fn run(self: Box<Self>, threads: usize, case: &Case, algorithm: Spill) -> SimOutcome;
}

struct With<N>(N, usize, usize);

impl<N: dispersion_engine::adversary::DynamicNetwork> RunNet for With<N> {
    fn run(self: Box<Self>, threads: usize, case: &Case, algorithm: Spill) -> SimOutcome {
        let With(net, n, k) = *self;
        Simulator::builder(
            algorithm,
            net,
            case.model,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .max_rounds(400)
        .activation(case.activation)
        .faults((case.faults)(k))
        .check(CheckPolicy::Structural)
        .threads(threads)
        .build()
        .expect("k ≤ n")
        .run()
        .expect("clean run")
    }
}

fn run_at(threads: usize, case: &Case, net: NetMaker) -> SimOutcome {
    net().run(threads, case, Spill::default())
}

fn assert_same(a: &SimOutcome, b: &SimOutcome, what: &str) {
    assert_eq!(a.dispersed, b.dispersed, "{what}: dispersed");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds");
    assert_eq!(a.crashes, b.crashes, "{what}: crashes");
    assert_eq!(a.final_config, b.final_config, "{what}: final configuration");
    assert_eq!(a.trace.records, b.trace.records, "{what}: per-round records");
}

#[test]
fn thread_count_does_not_change_any_run() {
    for case in CASES {
        for (name, mk) in net_makers() {
            let base = run_at(1, case, mk);
            for threads in [2usize, 3, 8] {
                let par = run_at(threads, case, mk);
                assert_same(&base, &par, &format!("{}/{name}@{threads}", case.what));
            }
        }
    }
}

#[test]
fn same_seed_parallel_runs_agree() {
    for case in CASES {
        for (name, mk) in net_makers() {
            let a = run_at(8, case, mk);
            let b = run_at(8, case, mk);
            assert_same(&a, &b, &format!("double-run {}/{name}@8", case.what));
        }
    }
}

/// The cases exercise what they claim: the sparse schedule leaves rounds
/// in which no robot computes, and the crash plans fire after Compute
/// (the two-robot run disperses before most of its plan is due).
#[test]
fn the_cases_cover_idle_rounds_and_after_compute_crashes() {
    let sparse = CASES.iter().find(|c| c.what == "global+sparse-semisync").unwrap();
    let stepped = Arc::new(Mutex::new(BTreeSet::new()));
    let spill = Spill {
        stepped: Some(Arc::clone(&stepped)),
    };
    let two = net_makers().find(|(name, _)| *name == "static-cycle-k2").unwrap().1;
    let out = two().run(2, sparse, spill);
    let stepped = stepped.lock().unwrap();
    assert!(
        (0..out.rounds).any(|r| !stepped.contains(&r)),
        "no idle round in {} rounds",
        out.rounds
    );
    for case in CASES.iter().filter(|c| c.what.ends_with("after-compute-crashes")) {
        for (name, mk) in net_makers().filter(|(name, _)| *name != "static-cycle-k2") {
            let out = run_at(2, case, mk);
            assert!(out.crashes > 0, "{}/{name}: no robot crashed", case.what);
        }
    }
}

type NetMaker = fn() -> Box<dyn RunNet>;

fn net_makers() -> impl Iterator<Item = (&'static str, NetMaker)> {
    let makers: [(&'static str, NetMaker); 5] = [
        ("static-cycle", || {
            Box::new(With(
                StaticNetwork::new(generators::cycle(48).expect("n ≥ 3")),
                48,
                24,
            ))
        }),
        // Several blocks of robots per round for every participant.
        ("static-cycle-k160", || {
            Box::new(With(
                StaticNetwork::new(generators::cycle(256).expect("n ≥ 3")),
                256,
                160,
            ))
        }),
        // Fewer robots than threads: most participants find no block.
        ("static-cycle-k2", || {
            Box::new(With(
                StaticNetwork::new(generators::cycle(48).expect("n ≥ 3")),
                48,
                2,
            ))
        }),
        ("dynamic-ring", || {
            Box::new(With(DynamicRingNetwork::new(48, true, 5), 48, 24))
        }),
        ("edge-churn", || {
            Box::new(With(EdgeChurnNetwork::new(40, 0.08, 9), 40, 20))
        }),
    ];
    makers.into_iter()
}
