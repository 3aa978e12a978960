//! The speculative move oracle offered to adaptive adversaries.
//!
//! The paper's adversary "determines the dynamic graph `G_r` of round `r`
//! with the knowledge of the algorithm and the states until round `r−1`"
//! (Section II). Because [`crate::DispersionAlgorithm::step`] is pure, the
//! engine can evaluate the whole robot population on any *candidate* graph
//! without disturbing the run — which is exactly the white-box power the
//! impossibility constructions of Theorems 1 and 2 exercise.
//!
//! # Cost of a candidate
//!
//! The engine's oracle scores a candidate with the round loop's own
//! Compute pass (`compute.rs`). Before the simulator asks the adversary
//! for `G_r` it builds the round's robot index and its activated-robot
//! list — the configuration cannot change in between — and lends them to
//! the oracle, together with buffers the simulator retains across rounds:
//! a packet table and an occupancy indicator. Per candidate the oracle
//!
//! * rebuilds the packet table for the candidate, which empties its
//!   memo ([`crate::RoundMemo`]);
//! * steps every activated robot over views borrowed from the index and
//!   that table.
//!
//! A candidate thus costs `O(occupied + Σ deg)` for the table, `O(k)` for
//! the steps, and one Algorithm 4 round plan, with no copy of any
//! packet.
//! [`MoveOracle::progress_on`] allocates nothing once the buffer is warm
//! and [`MoveOracle::occupied_after`] only its result; only
//! [`MoveOracle::moves_on`] materializes one record per robot. Robots the
//! activation schedule idles this round resolve to [`Action::Stay`], as
//! they do in the round itself.
//!
//! The oracle's tests compare it with [`crate::build_views`] plus one
//! `step` per robot, on every model, start and activation schedule, and
//! check each of those views against what its robot observes by
//! definition, derived node by node from the configuration and the
//! graph.

use std::cell::RefCell;

use dispersion_graph::{NodeId, Port, PortLabeledGraph};

use crate::compute::{compute_pass, RoundInputs};
use crate::packet::{PacketTable, RobotIndex};
use crate::{Action, Configuration, DispersionAlgorithm, ModelSpec, RobotId};

/// One robot's move as the oracle resolves it on a candidate graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedMove {
    /// The robot.
    pub robot: RobotId,
    /// Node it currently stands on.
    pub from: NodeId,
    /// The action its algorithm chooses on the candidate graph.
    pub action: Action,
    /// Node it would stand on after the Move phase (equals `from` for
    /// [`Action::Stay`] or an out-of-range port).
    pub to: NodeId,
}

/// Speculative evaluation of the registered algorithm on candidate graphs.
///
/// Implementations never mutate robot memories: the adversary may probe as
/// many candidates as it likes before committing one.
pub trait MoveOracle {
    /// Evaluates every live robot's Compute phase as if `g` were the graph
    /// of this round, returning the resolved moves in robot-ID order.
    fn moves_on(&self, g: &PortLabeledGraph) -> Vec<ResolvedMove>;

    /// The live configuration the adversary is reacting to.
    fn configuration(&self) -> &Configuration;

    /// Convenience: the set of nodes that would be occupied after the Move
    /// phase on candidate `g`, as a boolean indicator.
    fn occupied_after(&self, g: &PortLabeledGraph) -> Vec<bool> {
        let mut ind = vec![false; g.node_count()];
        for mv in self.moves_on(g) {
            ind[mv.to.index()] = true;
        }
        ind
    }

    /// Convenience: how many *currently empty* nodes would become occupied
    /// on candidate `g` — the adversary's progress measure.
    fn progress_on(&self, g: &PortLabeledGraph) -> usize {
        let now = self.configuration().occupied_indicator();
        self.occupied_after(g)
            .iter()
            .zip(now.iter())
            .filter(|&(&after, &before)| after && !before)
            .count()
    }
}

/// Buffers of the engine's oracle, retained by the simulator and reused
/// for every candidate of every round.
#[derive(Debug, Default)]
pub(crate) struct OracleScratch {
    /// The current candidate's packets, which every robot's speculative
    /// view reads.
    table: PacketTable,
    /// Occupancy indicator over nodes: node `v` is occupied under the
    /// current candidate iff `marked[v] == stamp`, so a new candidate
    /// clears the indicator by bumping `stamp`.
    marked: Vec<u64>,
    stamp: u64,
}

/// The engine's oracle: borrows the live algorithm, memories and
/// configuration of the current round, plus the round's indexes and the
/// retained [`OracleScratch`] (a `RefCell`, because the oracle is used
/// through `&self`). Per-robot tables are dense slices indexed by
/// [`RobotId::index`] (`None` = crashed).
pub(crate) struct EngineOracle<'a, A: DispersionAlgorithm> {
    pub algorithm: &'a A,
    pub memories: &'a [Option<A::Memory>],
    pub arrival_ports: &'a [Option<Port>],
    pub config: &'a Configuration,
    pub model: ModelSpec,
    pub round: u64,
    pub k: usize,
    /// The round's robot index.
    pub index: &'a RobotIndex,
    /// The robots the activation schedule lets compute this round, with
    /// their slots, in robot-ID order.
    pub live: &'a [(RobotId, u32)],
    pub scratch: &'a RefCell<OracleScratch>,
}

/// Where `action` takes a robot standing on `from` in `g`: an
/// out-of-range port resolves in place.
fn destination(g: &PortLabeledGraph, from: NodeId, action: Action) -> NodeId {
    match action {
        Action::Stay => from,
        Action::Move(p) => g.neighbor_via(from, p).map_or(from, |(w, _)| w),
    }
}

impl<A: DispersionAlgorithm> EngineOracle<'_, A> {
    /// Runs the round's Compute pass on candidate `g`, with its packets
    /// built into `table`, handing `land` each activated robot, its action
    /// and its destination.
    fn evaluate(
        &self,
        g: &PortLabeledGraph,
        table: &mut PacketTable,
        mut land: impl FnMut(RobotId, Action, NodeId),
    ) {
        assert_eq!(
            g.node_count(),
            self.config.node_count(),
            "candidate graph must have the configuration's node count"
        );
        table.rebuild(g, self.index, self.model.neighborhood);
        let inputs = RoundInputs {
            g,
            index: self.index,
            table,
            memories: self.memories,
            arrival_ports: self.arrival_ports,
            model: self.model,
            round: self.round,
            k: self.k,
        };
        compute_pass(
            self.algorithm,
            &inputs,
            self.live.iter().copied(),
            |robot, slot, action, _next| {
                let from = self.index.node(slot as usize);
                land(robot, action, destination(g, from, action))
            },
        );
    }
}

impl<A: DispersionAlgorithm> MoveOracle for EngineOracle<'_, A> {
    fn moves_on(&self, g: &PortLabeledGraph) -> Vec<ResolvedMove> {
        let mut moves: Vec<ResolvedMove> = self
            .config
            .iter()
            .map(|(robot, from)| ResolvedMove {
                robot,
                from,
                action: Action::Stay,
                to: from,
            })
            .collect();
        let mut slot = 0;
        self.evaluate(
            g,
            &mut self.scratch.borrow_mut().table,
            |robot, action, to| {
                // The activated robots are a subsequence of the configuration
                // order; the robots in between are idle and keep `Stay`.
                while moves[slot].robot != robot {
                    slot += 1;
                }
                moves[slot].action = action;
                moves[slot].to = to;
            },
        );
        moves
    }

    fn configuration(&self) -> &Configuration {
        self.config
    }

    fn occupied_after(&self, g: &PortLabeledGraph) -> Vec<bool> {
        let mut ind = vec![false; g.node_count()];
        let mut robots = self.config.iter();
        self.evaluate(g, &mut self.scratch.borrow_mut().table, |robot, _, to| {
            // Idle robots before `robot` stay where they are.
            for (r, v) in robots.by_ref() {
                if r == robot {
                    break;
                }
                ind[v.index()] = true;
            }
            ind[to.index()] = true;
        });
        for (_, v) in robots {
            ind[v.index()] = true;
        }
        ind
    }

    fn progress_on(&self, g: &PortLabeledGraph) -> usize {
        let mut scratch = self.scratch.borrow_mut();
        let OracleScratch {
            table,
            marked,
            stamp,
        } = &mut *scratch;
        *stamp += 1;
        let stamp = *stamp;
        marked.resize(self.config.node_count(), 0);
        for &v in self.index.nodes() {
            marked[v.index()] = stamp;
        }
        // Idle robots stay on occupied nodes, so only movers can add
        // progress.
        let mut progress = 0;
        self.evaluate(g, table, |_, _, to| {
            if marked[to.index()] != stamp {
                marked[to.index()] = stamp;
                progress += 1;
            }
        });
        progress
    }
}

/// Test-only oracle where every robot stays put. Lets adversary unit tests
/// exercise graph construction without a full algorithm stack.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    pub(crate) struct NullOracle<'a> {
        pub config: &'a Configuration,
    }

    impl MoveOracle for NullOracle<'_> {
        fn moves_on(&self, _g: &PortLabeledGraph) -> Vec<ResolvedMove> {
            self.config
                .iter()
                .map(|(robot, from)| ResolvedMove {
                    robot,
                    from,
                    action: Action::Stay,
                    to: from,
                })
                .collect()
        }

        fn configuration(&self) -> &Configuration {
            self.config
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{DynamicNetwork, StaticNetwork};
    use crate::algorithm::MemoryFootprint;
    use crate::compute::activated_robots_into;
    use crate::view::tests::assert_observes;
    use crate::{build_views, Activation, RobotView, Simulator, Step, TracePolicy};
    use dispersion_graph::{generators, relabel, Port};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Test algorithm: every robot except the smallest on its node exits
    /// through port 1.
    struct SpillPortOne;

    #[derive(Clone)]
    struct Nil;
    impl MemoryFootprint for Nil {
        fn persistent_bits(&self) -> usize {
            0
        }
    }

    impl DispersionAlgorithm for SpillPortOne {
        type Memory = Nil;
        fn name(&self) -> &str {
            "spill-port-one"
        }
        fn init(&self, _me: RobotId, _k: usize) -> Nil {
            Nil
        }
        fn step(&self, view: &RobotView, _mem: &Nil) -> (Action, Nil) {
            if view.colocated.first() == Some(&view.me) {
                (Action::Stay, Nil)
            } else {
                (Action::Move(Port::new(1)), Nil)
            }
        }
    }

    /// Acts on an FNV hash of everything in its view and of its memory:
    /// two views of one robot that differ anywhere almost surely yield
    /// different actions.
    #[derive(Clone)]
    struct ViewHash;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Trail(u64);
    impl MemoryFootprint for Trail {
        fn persistent_bits(&self) -> usize {
            64
        }
    }

    impl DispersionAlgorithm for ViewHash {
        type Memory = Trail;
        fn name(&self) -> &str {
            "view-hash"
        }
        fn init(&self, me: RobotId, _k: usize) -> Trail {
            Trail(u64::from(me.get()))
        }
        fn step(&self, view: &RobotView, mem: &Trail) -> (Action, Trail) {
            let text = format!(
                "{} {} {} {} {:?} {:?} {:?} {:?} {}",
                view.round,
                view.me,
                view.k,
                view.degree,
                view.arrival_port,
                view.colocated,
                view.neighbors().map(|obs| obs.collect::<Vec<_>>()),
                view.packets,
                mem.0
            );
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in text.bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let action = if view.degree == 0 || h.is_multiple_of(4) {
                Action::Stay
            } else {
                Action::Move(Port::from_index((h / 4 % view.degree as u64) as usize))
            };
            (action, Trail(h))
        }
    }

    /// One round's oracle inputs, owned the way the simulator owns them.
    struct Fixture<M> {
        config: Configuration,
        memories: Vec<Option<M>>,
        arrival_ports: Vec<Option<Port>>,
        model: ModelSpec,
        round: u64,
        k: usize,
        index: RobotIndex,
        live: Vec<(RobotId, u32)>,
        scratch: RefCell<OracleScratch>,
    }

    impl<M> Fixture<M> {
        fn new(
            config: Configuration,
            memories: Vec<Option<M>>,
            arrival_ports: Vec<Option<Port>>,
            model: ModelSpec,
            round: u64,
            k: usize,
            activation: Activation,
        ) -> Self {
            let index = RobotIndex::of(&config);
            let mut live = Vec::new();
            activated_robots_into(&index, activation, round, &mut live);
            Fixture {
                config,
                memories,
                arrival_ports,
                model,
                round,
                k,
                index,
                live,
                scratch: RefCell::default(),
            }
        }

        fn oracle<'a, A: DispersionAlgorithm<Memory = M>>(
            &'a self,
            algorithm: &'a A,
        ) -> EngineOracle<'a, A> {
            EngineOracle {
                algorithm,
                memories: &self.memories,
                arrival_ports: &self.arrival_ports,
                config: &self.config,
                model: self.model,
                round: self.round,
                k: self.k,
                index: &self.index,
                live: &self.live,
                scratch: &self.scratch,
            }
        }

        /// The moves on `g` built from [`build_views`] and one `step` per
        /// activated robot — the reference the oracle must reproduce.
        /// Each view is first checked against the node-by-node
        /// derivation.
        fn reference<A: DispersionAlgorithm<Memory = M>>(
            &self,
            algorithm: &A,
            g: &PortLabeledGraph,
        ) -> Vec<ResolvedMove> {
            let views = build_views(g, &self.config, self.model, self.round, self.k, &|r| {
                self.arrival_ports[r.index()]
            });
            views
                .iter()
                .map(|(robot, view)| {
                    assert_observes(&view, g, &self.config, self.model);
                    let from = self.config.node_of(robot).expect("robot is live");
                    let action = if self.live.iter().any(|&(r, _)| r == robot) {
                        let mem = self.memories[robot.index()].as_ref().expect("live");
                        algorithm.step(&view, mem).0
                    } else {
                        Action::Stay
                    };
                    ResolvedMove {
                        robot,
                        from,
                        action,
                        to: destination(g, from, action),
                    }
                })
                .collect()
        }
    }

    const MODELS: [ModelSpec; 4] = [
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
        ModelSpec::GLOBAL_BLIND,
        ModelSpec::LOCAL_BLIND,
    ];

    fn full_sync<M>(config: Configuration, memories: Vec<Option<M>>) -> Fixture<M> {
        let k = config.robot_count();
        let arrivals = vec![None; memories.len()];
        Fixture::new(
            config,
            memories,
            arrivals,
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            0,
            k,
            Activation::FullSync,
        )
    }

    #[test]
    fn oracle_resolves_moves_and_progress() {
        let g = generators::path(4).unwrap();
        let fixture = full_sync(
            Configuration::rooted(4, 3, NodeId::new(1)),
            vec![Some(Nil); 3],
        );
        let oracle = fixture.oracle(&SpillPortOne);
        let moves = oracle.moves_on(&g);
        assert_eq!(moves.len(), 3);
        // Robot 1 stays; robots 2 and 3 exit node 1 via port 1 → node 0.
        assert_eq!(moves[0].action, Action::Stay);
        assert_eq!(moves[1].to, NodeId::new(0));
        assert_eq!(moves[2].to, NodeId::new(0));
        // One previously-empty node becomes occupied.
        assert_eq!(oracle.progress_on(&g), 1);
        assert_eq!(oracle.occupied_after(&g), vec![true, true, false, false]);
        // Configuration untouched by speculation.
        assert_eq!(oracle.configuration().occupied_count(), 1);
    }

    #[test]
    fn out_of_range_port_resolves_to_stay() {
        struct PortTwo;
        impl DispersionAlgorithm for PortTwo {
            type Memory = Nil;
            fn name(&self) -> &str {
                "port-two"
            }
            fn init(&self, _me: RobotId, _k: usize) -> Nil {
                Nil
            }
            fn step(&self, _view: &RobotView, _mem: &Nil) -> (Action, Nil) {
                (Action::Move(Port::new(2)), Nil)
            }
        }
        // Node 0 of a 2-node path has degree 1, so port 2 does not exist.
        let g = generators::path(2).unwrap();
        let fixture = full_sync(Configuration::rooted(2, 1, NodeId::new(0)), vec![Some(Nil)]);
        let oracle = fixture.oracle(&PortTwo);
        let moves = oracle.moves_on(&g);
        assert_eq!(
            moves[0].to,
            NodeId::new(0),
            "invalid port resolves in place"
        );
        assert_eq!(oracle.progress_on(&g), 0);
    }

    #[test]
    fn idle_robots_resolve_to_stay_under_semi_sync() {
        // Robots 2 and 3 would leave node 1 through port 1; find schedules
        // that idle robot 2 only, and both.
        let g = generators::path(4).unwrap();
        let config = Configuration::rooted(4, 3, NodeId::new(1));
        let schedule = |seed: u64| {
            let activation = Activation::SemiSync {
                p_percent: 50,
                seed,
            };
            let mut live = Vec::new();
            activated_robots_into(&RobotIndex::of(&config), activation, 0, &mut live);
            let idle = |id: u32| !live.iter().any(|&(r, _)| r == RobotId::new(id));
            (activation, idle(2), idle(3))
        };
        let one_idle = (0..200)
            .map(schedule)
            .find(|&(_, two, three)| two && !three);
        let both_idle = (0..200).map(schedule).find(|&(_, two, three)| two && three);
        for (activation, expected_progress) in [(one_idle, 1), (both_idle, 0)]
            .into_iter()
            .map(|(found, progress)| (found.expect("a matching seed below 200").0, progress))
        {
            let fixture = Fixture::new(
                config.clone(),
                vec![Some(Nil); 3],
                vec![None; 3],
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                0,
                3,
                activation,
            );
            let oracle = fixture.oracle(&SpillPortOne);
            let moves = oracle.moves_on(&g);
            assert_eq!(moves[1].action, Action::Stay, "{activation:?}");
            assert_eq!(moves[1].to, NodeId::new(1), "{activation:?}");
            assert_eq!(oracle.progress_on(&g), expected_progress, "{activation:?}");
            let after = oracle.occupied_after(&g);
            assert_eq!(after, vec![expected_progress == 1, true, false, false]);

            // The round itself agrees: the idled robot does not move.
            let mut sim = Simulator::builder(
                SpillPortOne,
                StaticNetwork::new(g.clone()),
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                config.clone(),
            )
            .activation(activation)
            .trace(TracePolicy::Off)
            .build()
            .unwrap();
            let Step::Advanced(out) = sim.step().unwrap() else {
                panic!("not dispersed at the start");
            };
            assert_eq!(out.record.newly_occupied, expected_progress);
            assert_eq!(
                sim.configuration().node_of(RobotId::new(2)),
                Some(NodeId::new(1))
            );
        }
    }

    /// Differential: the oracle's three entry points against the
    /// `build_views` + `step` reference, for all four Table I models,
    /// rooted and random starts, crash-thinned populations, and full and
    /// semi-synchronous activation, over several candidates per warm
    /// oracle.
    #[test]
    fn oracle_matches_the_build_views_reference() {
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(4..40usize);
            let k = rng.random_range(2..n + 1);
            let p = rng.random_range(0..30u32) as f64 / 100.0;
            let mut config = if seed % 2 == 0 {
                Configuration::rooted(n, k, NodeId::new(0))
            } else {
                Configuration::random(n, k, seed, seed % 4 == 1)
            };
            let mut memories: Vec<Option<Trail>> =
                (0..k).map(|_| Some(Trail(rng.random()))).collect();
            if seed % 3 == 0 {
                for _ in 0..k / 3 {
                    let r = RobotId::new(rng.random_range(1..k as u32 + 1));
                    config.remove(r);
                    memories[r.index()] = None;
                }
            }
            let arrivals: Vec<Option<Port>> = (0..k)
                .map(|_| {
                    rng.random_bool(0.5)
                        .then(|| Port::new(rng.random_range(1..4)))
                })
                .collect();
            let activation = if seed % 5 < 2 {
                Activation::SemiSync {
                    p_percent: 50,
                    seed,
                }
            } else {
                Activation::FullSync
            };
            let round = seed % 7;
            let candidates: Vec<PortLabeledGraph> = (0..3)
                .map(|i| {
                    let g = generators::random_connected(n, p, seed * 31 + i).unwrap();
                    relabel::random_relabel(&g, seed ^ i)
                })
                .collect();
            let before = config.occupied_indicator();
            for model in MODELS {
                let fixture = Fixture::new(
                    config.clone(),
                    memories.clone(),
                    arrivals.clone(),
                    model,
                    round,
                    k,
                    activation,
                );
                let oracle = fixture.oracle(&ViewHash);
                for g in &candidates {
                    let expected = fixture.reference(&ViewHash, g);
                    let mut indicator = vec![false; n];
                    for mv in &expected {
                        indicator[mv.to.index()] = true;
                    }
                    let progress = (0..n).filter(|&v| indicator[v] && !before[v]).count();
                    let case = format!("seed {seed} {model} {activation:?}");
                    assert_eq!(oracle.progress_on(g), progress, "{case}");
                    assert_eq!(oracle.moves_on(g), expected, "{case}");
                    assert_eq!(oracle.occupied_after(g), indicator, "{case}");
                    assert_eq!(oracle.progress_on(g), progress, "{case} (warm)");
                }
            }
        }
    }

    /// Records what the oracle predicts for the graph it commits.
    struct Predicting {
        graphs: Vec<PortLabeledGraph>,
        predicted: Vec<ResolvedMove>,
    }

    impl DynamicNetwork for Predicting {
        fn node_count(&self) -> usize {
            self.graphs[0].node_count()
        }

        fn graph_for_round(
            &mut self,
            round: u64,
            _config: &Configuration,
            oracle: &dyn MoveOracle,
        ) -> &PortLabeledGraph {
            let g = &self.graphs[round as usize % self.graphs.len()];
            self.predicted = oracle.moves_on(g);
            g
        }
    }

    #[test]
    fn oracle_predicts_the_committed_round() {
        for seed in 0..12u64 {
            let n = 10 + seed as usize;
            let graphs: Vec<PortLabeledGraph> = (0..4)
                .map(|i| generators::random_connected(n, 0.2, seed * 7 + i).unwrap())
                .collect();
            let activation = if seed % 2 == 0 {
                Activation::FullSync
            } else {
                Activation::SemiSync {
                    p_percent: 60,
                    seed,
                }
            };
            let model = MODELS[seed as usize % 4];
            let mut sim = Simulator::builder(
                ViewHash,
                Predicting {
                    graphs,
                    predicted: Vec::new(),
                },
                model,
                Configuration::random(n, n / 2, seed, true),
            )
            .activation(activation)
            .trace(TracePolicy::Off)
            .build()
            .unwrap();
            for round in 0..8 {
                if let Step::Dispersed = sim.step().unwrap() {
                    break;
                }
                let after: Vec<(RobotId, NodeId)> = sim.configuration().iter().collect();
                let predicted: Vec<(RobotId, NodeId)> = sim
                    .network()
                    .predicted
                    .iter()
                    .map(|mv| (mv.robot, mv.to))
                    .collect();
                assert_eq!(after, predicted, "seed {seed} round {round} {model}");
            }
        }
    }
}
