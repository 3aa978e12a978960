//! Table I, row 1 (Theorem 1): local communication + 1-neighborhood
//! knowledge + unlimited memory ⇒ DISPERSION impossible on dynamic graphs.
//!
//! A thin wrapper over `dispersion-lab`: one campaign runs the proof's
//! path-trap adversary against the deterministic local victim from the
//! near-dispersed configuration; a second campaign hands the *same*
//! victim model a static star (where it disperses) — the failure is
//! caused by the dynamism + locality combination, exactly as the theorem
//! states. Both campaigns leave JSONL artifacts under `results/`.

use dispersion_bench::{banner, Table};
use dispersion_lab::{
    run_campaign, AdversaryKind, AlgorithmKind, CampaignReport, CampaignSpec, CellKey, NRule,
    Placement, RunnerOptions,
};

const ROUNDS: u64 = 1000;
const KS: [usize; 4] = [5, 6, 8, 12];

fn spec(
    name: &str,
    adversary: AdversaryKind,
    placement: Placement,
    max_rounds: u64,
) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        algorithms: vec![AlgorithmKind::GreedyLocal],
        adversaries: vec![adversary],
        ks: KS.to_vec(),
        n_rule: NRule::k_plus(5),
        seeds: 1,
        placement,
        max_rounds,
        ..CampaignSpec::default()
    }
}

fn run(spec: &CampaignSpec) -> CampaignReport {
    let opts = RunnerOptions {
        jobs: 4,
        fresh: true,
        ..RunnerOptions::default()
    };
    run_campaign(spec, &opts).expect("campaign runs")
}

fn cell<'a>(
    report: &'a CampaignReport,
    adversary: &str,
    k: usize,
) -> &'a dispersion_lab::CellStats {
    report
        .cells
        .get(&CellKey {
            algorithm: "greedy-local".into(),
            adversary: adversary.into(),
            n: k + 5,
            k,
            faults: 0,
        })
        .expect("cell present")
}

fn main() {
    banner(
        "T1.r1",
        "Table I row 1 / Theorem 1 / Fig. 1",
        "local comm + 1-NK: impossible (k ≥ 5), even with unlimited memory",
    );

    let trap = run(&spec(
        "exp-t1-trap",
        AdversaryKind::PathTrap,
        Placement::NearDispersed,
        ROUNDS,
    ));
    let control = run(&spec(
        "exp-t1-control",
        AdversaryKind::StaticStar,
        Placement::Rooted,
        100_000,
    ));

    let mut t = Table::new([
        "k",
        "n",
        "rounds survived",
        "dispersed",
        "static control (rounds)",
    ]);
    for k in KS {
        let trapped = cell(&trap, "path-trap", k).run_summary().expect("trap ran");
        let free = cell(&control, "static-star", k)
            .run_summary()
            .expect("control ran");
        assert!(!trapped.all_dispersed, "Theorem 1 violated at k={k}");
        assert_eq!(
            trapped.max_rounds, ROUNDS,
            "trap must hold all {ROUNDS} rounds"
        );
        assert!(free.all_dispersed, "control must disperse at k={k}");
        t.row([
            k.to_string(),
            (k + 5).to_string(),
            trapped.max_rounds.to_string(),
            trapped.all_dispersed.to_string(),
            free.max_rounds.to_string(),
        ]);
    }
    println!("{t}");
    println!();
    println!(
        "result: the trap held every victim for {ROUNDS} rounds, while the\n\
         same local-model victim disperses on a static star — matching\n\
         Table I row 1: DISPERSION is impossible in the local model on\n\
         dynamic graphs. Full per-run records: results/exp-t1-trap.jsonl\n\
         and results/exp-t1-control.jsonl."
    );
}
