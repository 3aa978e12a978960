//! Trap robustness: Theorems 1 and 2 quantify over *all* deterministic
//! algorithms. These tests run the trap adversaries against a whole
//! family of victim strategies — different port-selection rules, different
//! anchoring rules, memory or no memory — and verify every one of them is
//! held captive. Each victim escapes easily on static graphs (sanity
//! control), so the captivity is the dynamism, not victim weakness.

use dispersion_core::impossibility::near_dispersed_config;
use dispersion_engine::adversary::{CliqueTrapAdversary, PathTrapAdversary, StaticNetwork};
use dispersion_engine::{
    Action, Configuration, DispersionAlgorithm, ModelSpec, RobotId, RobotView, Simulator,
    TracePolicy,
};
use dispersion_graph::{generators, NodeId, Port};

mod common;

use common::{run_trapped, UnitMemory};

/// A family of deterministic blind-global victims, parameterized by how
/// an unsettled robot picks its exit port.
#[derive(Clone, Copy, Debug)]
enum BlindRule {
    /// Always port 1.
    AlwaysFirst,
    /// Always the last port.
    AlwaysLast,
    /// Rotate with the round.
    RoundRobin,
    /// Rotate with round × own ID (different robots desynchronize).
    IdSpread,
    /// Stay two rounds, then move through port (round/3 mod degree)+1.
    Lazy,
}

#[derive(Clone)]
struct BlindVictim {
    rule: BlindRule,
}

impl DispersionAlgorithm for BlindVictim {
    type Memory = UnitMemory;
    fn name(&self) -> &str {
        "blind-victim"
    }
    fn init(&self, _me: RobotId, _k: usize) -> UnitMemory {
        UnitMemory
    }
    fn step(&self, view: &RobotView, _m: &UnitMemory) -> (Action, UnitMemory) {
        // Global termination detection works without sensing.
        if !view.packets.iter().any(|p| p.count() >= 2) {
            return (Action::Stay, UnitMemory);
        }
        // The smallest robot on a node anchors it.
        if view.colocated.first() == Some(&view.me) || view.degree == 0 {
            return (Action::Stay, UnitMemory);
        }
        let d = view.degree;
        let port = match self.rule {
            BlindRule::AlwaysFirst => 0,
            BlindRule::AlwaysLast => d - 1,
            BlindRule::RoundRobin => view.round as usize % d,
            BlindRule::IdSpread => (view.round as usize * view.me.get() as usize) % d,
            BlindRule::Lazy => {
                if !view.round.is_multiple_of(3) {
                    return (Action::Stay, UnitMemory);
                }
                (view.round as usize / 3) % d
            }
        };
        (Action::Move(Port::from_index(port)), UnitMemory)
    }
}

/// A family of deterministic local victims (1-neighborhood knowledge),
/// parameterized by how extras choose among empty/occupied ports.
#[derive(Clone, Copy, Debug)]
enum LocalRule {
    /// Extras fill empty ports smallest-first by rank.
    GreedySmallest,
    /// Extras fill empty ports largest-first by rank.
    GreedyLargest,
    /// Extras move even when no empty port exists (push into crowds).
    Pushy,
    /// Whole node's robots (except the anchor) chase the least-crowded
    /// occupied neighbor when no empty port exists.
    Balancer,
}

#[derive(Clone)]
struct LocalVictim {
    rule: LocalRule,
}

impl DispersionAlgorithm for LocalVictim {
    type Memory = UnitMemory;
    fn name(&self) -> &str {
        "local-victim"
    }
    fn init(&self, _me: RobotId, _k: usize) -> UnitMemory {
        UnitMemory
    }
    fn step(&self, view: &RobotView, _m: &UnitMemory) -> (Action, UnitMemory) {
        if view.colocated.first() == Some(&view.me) || view.degree == 0 {
            return (Action::Stay, UnitMemory);
        }
        let rank = view
            .colocated
            .iter()
            .position(|&r| r == view.me)
            .expect("self is colocated")
            - 1;
        let mut empties = view.empty_ports().expect("local model with 1-NK");
        let neighbors = view.neighbors().expect("1-NK");
        match self.rule {
            LocalRule::GreedySmallest => {}
            LocalRule::GreedyLargest => empties.reverse(),
            LocalRule::Pushy | LocalRule::Balancer => {}
        }
        if !empties.is_empty() {
            return (Action::Move(empties[rank % empties.len()]), UnitMemory);
        }
        match self.rule {
            LocalRule::Pushy => (
                Action::Move(Port::from_index(rank % view.degree)),
                UnitMemory,
            ),
            LocalRule::Balancer => {
                let target = neighbors
                    .filter(|o| o.occupied())
                    .min_by_key(|o| o.robots.len())
                    .map(|o| o.port);
                match target {
                    Some(p) => (Action::Move(p), UnitMemory),
                    None => (Action::Stay, UnitMemory),
                }
            }
            _ => (Action::Stay, UnitMemory),
        }
    }
}

const ROUNDS: u64 = 150;

#[test]
fn clique_trap_holds_every_blind_victim() {
    for rule in [
        BlindRule::AlwaysFirst,
        BlindRule::AlwaysLast,
        BlindRule::RoundRobin,
        BlindRule::IdSpread,
        BlindRule::Lazy,
    ] {
        for k in [3usize, 5, 8] {
            let n = k + 5;
            let (out, sim) = run_trapped(
                BlindVictim { rule },
                CliqueTrapAdversary::new(n),
                ModelSpec::GLOBAL_BLIND,
                n,
                k,
                ROUNDS,
                TracePolicy::Rounds,
            );
            assert!(!out.dispersed, "{rule:?} k={k} escaped the clique trap");
            let new_nodes: usize = out.trace.records.iter().map(|r| r.newly_occupied).sum();
            assert_eq!(new_nodes, 0, "{rule:?} k={k}: Theorem 2 progress leak");
            assert_eq!(sim.network().trap_misses(), 0, "{rule:?} k={k}");
        }
    }
}

#[test]
fn path_trap_holds_every_local_victim() {
    for rule in [
        LocalRule::GreedySmallest,
        LocalRule::GreedyLargest,
        LocalRule::Pushy,
        LocalRule::Balancer,
    ] {
        for k in [5usize, 7] {
            let n = k + 4;
            let (out, sim) = run_trapped(
                LocalVictim { rule },
                PathTrapAdversary::new(n),
                ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
                n,
                k,
                ROUNDS,
                TracePolicy::Rounds,
            );
            assert!(!out.dispersed, "{rule:?} k={k} escaped the path trap");
            assert_eq!(sim.network().trap_misses(), 0, "{rule:?} k={k}");
        }
    }
}

#[test]
fn every_victim_escapes_on_static_graphs() {
    // Control: the *exploring* victims disperse on friendly static
    // graphs — captivity above is the dynamism, not victim stupidity.
    // (AlwaysFirst/AlwaysLast ping-pong forever even statically; they are
    // in the trap tests only because the theorems cover every
    // deterministic rule, silly ones included.)
    for rule in [BlindRule::RoundRobin, BlindRule::IdSpread, BlindRule::Lazy] {
        let n = 9;
        let mut sim = Simulator::builder(
            BlindVictim { rule },
            StaticNetwork::new(generators::complete(n).unwrap()),
            ModelSpec::GLOBAL_BLIND,
            near_dispersed_config(n, 5),
        )
        .max_rounds(20_000)
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        assert!(out.dispersed, "{rule:?} should finish on a static clique");
    }
    for rule in [LocalRule::GreedySmallest, LocalRule::GreedyLargest] {
        let n = 10;
        let mut sim = Simulator::builder(
            LocalVictim { rule },
            StaticNetwork::new(generators::star(n).unwrap()),
            ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, 7, NodeId::new(0)),
        )
        .max_rounds(20_000)
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        assert!(out.dispersed, "{rule:?} should finish on a static star");
    }
}
