//! Extension coverage beyond the paper's core: semi-synchronous
//! activation (Section VIII future work), dynamic rings (the prior-work
//! setting), the oracle-guided stress adversary, and sliding-policy
//! variants under adversarial dynamics.

use dispersion_core::{DispersionDynamic, MoverRule, SlidingPolicy};
use dispersion_engine::adversary::{
    DynamicRingNetwork, EdgeChurnNetwork, MinProgressSampler, StarPairAdversary,
};
use dispersion_engine::{Activation, Configuration, ModelSpec, Simulator, TracePolicy};
use dispersion_graph::NodeId;

#[test]
fn semisync_still_disperses_but_loses_the_k_bound() {
    // Under semi-synchronous activation Algorithm 4's per-round progress
    // guarantee (Lemma 7) no longer holds — rounds where the designated
    // movers sleep are wasted — but the algorithm remains *safe*: it
    // recomputes everything from scratch each round, occupied nodes are
    // never abandoned (movers are replaced before leaving or the round is
    // partial), and with any constant activation probability it still
    // terminates. This documents the Section VIII boundary empirically.
    let (n, k) = (14usize, 9usize);
    let mut rounds_over_bound = 0;
    for seed in 0..5u64 {
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            StarPairAdversary::new(n),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .max_rounds(10_000)
        .activation(Activation::SemiSync {
            p_percent: 60,
            seed,
        })
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        assert!(out.dispersed, "seed {seed}: semisync must still terminate");
        if out.rounds > k as u64 {
            rounds_over_bound += 1;
        }
    }
    assert!(
        rounds_over_bound >= 1,
        "semisync should exceed the synchronous k-round bound sometimes"
    );
}

#[test]
fn semisync_full_activation_equals_sync() {
    let (n, k) = (12usize, 8usize);
    let run_with = |activation| {
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            StarPairAdversary::new(n),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .activation(activation)
        .build()
        .unwrap();
        sim.run().unwrap()
    };
    let sync = run_with(Activation::FullSync);
    let semi = run_with(Activation::SemiSync {
        p_percent: 100,
        seed: 3,
    });
    assert_eq!(sync.rounds, semi.rounds);
    assert_eq!(sync.final_config, semi.final_config);
}

#[test]
fn dynamic_ring_rounds_track_k() {
    // On dynamic rings (the Agarwalla et al. setting) Algorithm 4 keeps
    // its k-round bound; record the actual ratios for the report.
    for k in [4usize, 8, 16] {
        let n = k + 2;
        for drop_edge in [false, true] {
            let mut sim = Simulator::builder(
                DispersionDynamic::new(),
                DynamicRingNetwork::new(n, drop_edge, k as u64),
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                Configuration::rooted(n, k, NodeId::new(0)),
            )
            .build()
            .unwrap();
            let out = sim.run().unwrap();
            assert!(out.dispersed);
            assert!(
                out.rounds <= k as u64,
                "k={k} drop={drop_edge}: {} rounds",
                out.rounds
            );
        }
    }
}

#[test]
fn min_progress_sampler_is_harder_than_plain_churn() {
    // The adaptive sampler should need at least as many rounds as the
    // oblivious churn it samples from (it picks the worst candidate).
    let (n, k) = (20usize, 14usize);
    let mut sampler_total = 0u64;
    let mut churn_total = 0u64;
    for seed in 0..5u64 {
        let mut churn_sim = Simulator::builder(
            DispersionDynamic::new(),
            EdgeChurnNetwork::new(n, 0.12, seed),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .build()
        .unwrap();
        churn_total += churn_sim.run().unwrap().rounds;
        let mut sampler_sim = Simulator::builder(
            DispersionDynamic::new(),
            MinProgressSampler::new(n, 10, 0.12, seed),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .build()
        .unwrap();
        let out = sampler_sim.run().unwrap();
        assert!(out.dispersed);
        assert!(
            out.rounds <= k as u64,
            "the Θ(k) bound survives the sampler"
        );
        sampler_total += out.rounds;
    }
    assert!(
        sampler_total >= churn_total,
        "sampler ({sampler_total}) should be at least as slow as churn ({churn_total})"
    );
}

#[test]
fn policy_variants_hold_against_the_adaptive_adversary() {
    // The star-pair adversary forces k−1 rounds regardless of tie-break
    // policy — the bound is a property of the algorithm family.
    let (n, k) = (14usize, 10usize);
    for policy in [
        SlidingPolicy::default(),
        SlidingPolicy {
            mover: MoverRule::SmallestNonAnchor,
            ..SlidingPolicy::default()
        },
        SlidingPolicy {
            single_path: true,
            ..SlidingPolicy::default()
        },
    ] {
        let mut sim = Simulator::builder(
            DispersionDynamic::with_policy(policy),
            StarPairAdversary::new(n),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .build()
        .unwrap();
        let out = sim.run().unwrap();
        assert!(out.dispersed);
        assert_eq!(out.rounds, (k - 1) as u64, "{policy:?}");
    }
}

#[test]
fn stepwise_driving_with_mid_run_inspection() {
    // The step API lets a caller audit Lemma 7 live.
    use dispersion_engine::Step;
    let (n, k) = (16usize, 11usize);
    let mut sim = Simulator::builder(
        DispersionDynamic::new(),
        EdgeChurnNetwork::new(n, 0.15, 2),
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .build()
    .unwrap();
    let mut rounds = 0u64;
    loop {
        match sim.step().unwrap() {
            Step::Dispersed => break,
            Step::Advanced(out) => {
                assert!(
                    out.record.newly_occupied >= 1,
                    "Lemma 7 live at round {rounds}"
                );
                rounds += 1;
            }
        }
    }
    assert!(sim.configuration().is_dispersed());
    assert!(rounds <= k as u64);
}

#[test]
fn oracle_probing_is_side_effect_free() {
    // The move oracle promises speculation without perturbation: an
    // adversary that hammers the oracle must produce the same run as one
    // that never calls it, given identical graphs.
    use dispersion_engine::adversary::DynamicNetwork;
    use dispersion_engine::MoveOracle;
    use dispersion_graph::PortLabeledGraph;

    struct Probing<N> {
        inner: N,
        probes: u32,
    }
    impl<N: DynamicNetwork> DynamicNetwork for Probing<N> {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn graph_for_round(
            &mut self,
            round: u64,
            config: &dispersion_engine::Configuration,
            oracle: &dyn MoveOracle,
        ) -> &PortLabeledGraph {
            let g = self.inner.graph_for_round(round, config, oracle);
            for _ in 0..5 {
                let moves = oracle.moves_on(g);
                assert_eq!(moves.len(), config.robot_count());
                let _ = oracle.progress_on(g);
                self.probes += 1;
            }
            g
        }
    }

    let (n, k) = (15usize, 10usize);
    let run = |probing: bool| {
        let base = EdgeChurnNetwork::new(n, 0.15, 9);
        if probing {
            let mut sim = Simulator::builder(
                DispersionDynamic::new(),
                Probing {
                    inner: base,
                    probes: 0,
                },
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                Configuration::rooted(n, k, NodeId::new(0)),
            )
            .build()
            .unwrap();
            let out = sim.run().unwrap();
            assert!(sim.network().probes > 0, "the wrapper did probe");
            out
        } else {
            let mut sim = Simulator::builder(
                DispersionDynamic::new(),
                base,
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                Configuration::rooted(n, k, NodeId::new(0)),
            )
            .build()
            .unwrap();
            sim.run().unwrap()
        }
    };
    let clean = run(false);
    let probed = run(true);
    assert_eq!(clean.rounds, probed.rounds);
    assert_eq!(clean.final_config, probed.final_config);
    assert_eq!(clean.trace.records, probed.trace.records);
}

#[test]
fn end_to_end_runs_are_deterministic() {
    // Same seeds, same everything: the whole stack is reproducible.
    for seed in 0..3u64 {
        let mk = || {
            let mut sim = Simulator::builder(
                DispersionDynamic::new(),
                MinProgressSampler::new(18, 6, 0.12, seed),
                ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
                Configuration::random(18, 12, seed, true),
            )
            .trace(TracePolicy::RoundsAndGraphs)
            .build()
            .unwrap();
            sim.run().unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.rounds, b.rounds, "seed {seed}");
        assert_eq!(a.final_config, b.final_config, "seed {seed}");
        assert_eq!(a.trace.records, b.trace.records, "seed {seed}");
        let (ga, gb) = (a.trace.graphs.unwrap(), b.trace.graphs.unwrap());
        assert_eq!(ga.len(), gb.len());
        for (x, y) in ga.iter().zip(gb.iter()) {
            assert_eq!(x, y, "seed {seed}: recorded graphs must match");
        }
    }
}
