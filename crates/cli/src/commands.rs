//! Execution of parsed CLI commands. Each command returns its full text
//! output so `main` stays a thin shell (and tests can assert on output).

use dispersion_core::baselines::{BlindGlobal, GreedyLocal};
use dispersion_core::{impossibility, lower_bound, DispersionDynamic, DispersionError};
use dispersion_engine::adversary::{CliqueTrapAdversary, EdgeChurnNetwork, PathTrapAdversary};
use dispersion_engine::{
    CheckPolicy, Configuration, ModelSpec, RobotId, SimError, Simulator, Step,
};
use dispersion_graph::NodeId;

use dispersion_lab::job::{self, RunJob};
use dispersion_lab::{
    artifact_path, read_artifact, run_campaign, AdversaryKind, AlgorithmKind, CampaignSpec, Entry,
    Placement, RunRecord, RunStatus, RunnerOptions,
};

use crate::args::{Command, HELP};
use crate::render;

/// Runs a parsed command, returning its printable output.
///
/// # Errors
///
/// Propagates simulator and campaign-runner errors as the unified
/// [`DispersionError`].
pub fn execute(cmd: Command) -> Result<String, DispersionError> {
    match cmd {
        Command::Help => Ok(HELP.to_string()),
        Command::Run {
            network,
            n,
            k,
            seed,
            faults,
            scattered,
            watch,
            json,
        } => Ok(run(network, n, k, seed, faults, scattered, watch, json)?),
        Command::Sweep {
            network,
            max_k,
            seeds,
        } => Ok(sweep(network, max_k, seeds)?),
        Command::Campaign {
            spec,
            jobs,
            keep_traces,
            fresh,
            out_dir,
            check,
            timeout_secs,
            retries,
            threads,
        } => campaign(
            &spec,
            RunnerOptions {
                jobs,
                keep_traces,
                fresh,
                out_dir: out_dir.into(),
                quiet: false,
                check,
                timeout: (timeout_secs > 0).then(|| std::time::Duration::from_secs(timeout_secs)),
                retries,
                // Ad-hoc fault drills: failpoints armed from the
                // environment (DISPERSION_FAILPOINTS); unset means
                // disarmed and free.
                failpoints: dispersion_lab::FailpointRegistry::from_env()
                    .map_err(|msg| DispersionError::Other(msg.into()))?,
                engine_threads: threads,
                ..RunnerOptions::default()
            },
        ),
        Command::CampaignStatus { artifact } => campaign_status(&artifact),
        Command::Check {
            artifact: Some(path),
            threads,
            ..
        } => check_artifact(&path, threads),
        Command::Check {
            artifact: None,
            network,
            n,
            k,
            seed,
            faults,
            structural,
            threads,
        } => Ok(check_spec(
            network, n, k, seed, faults, structural, threads,
        )?),
        Command::Dot {
            network,
            n,
            k,
            seed,
        } => Ok(dot(network, n, k, seed)?),
        Command::Trap { theorem, k, rounds } => Ok(trap(theorem, k, rounds)?),
        Command::LowerBound { k } => Ok(lower(k)?),
        Command::Memory { max_k } => Ok(memory(max_k)?),
    }
}

fn campaign(spec: &CampaignSpec, opts: RunnerOptions) -> Result<String, DispersionError> {
    let artifact = artifact_path(spec, &opts);
    let report = run_campaign(spec, &opts)?;
    Ok(format!(
        "campaign `{}` (spec {:016x}): {} jobs ({} executed, {} resumed), {} panicked, \
         {} invariant violations, {} timed out, {} quarantined, {} retried attempts\n\
         artifact: {}\n\n{}\n",
        spec.name,
        spec.spec_hash(),
        spec.job_count(),
        report.executed,
        report.resumed,
        report.total_panics(),
        report.total_violations(),
        report.total_timeouts(),
        report.total_quarantined(),
        report.total_retries(),
        artifact.display(),
        report.render(),
    ))
}

/// `dispersion campaign-status`: progress, retry counts, and quarantined
/// jobs read purely from the artifact — works on a live campaign's file
/// and on the debris of a crashed one.
fn campaign_status(artifact: &str) -> Result<String, DispersionError> {
    let status = dispersion_lab::read_status(std::path::Path::new(artifact))?;
    Ok(format!("{}\n{}", artifact, status.render()))
}

/// One Algorithm 4 run as a lab job: `seed` is the job's seed and the
/// knobs are the campaign defaults (edge probability, round cap) under
/// the given placement — the form `check --artifact` replays records in.
fn single_run(
    adversary: AdversaryKind,
    n: usize,
    k: usize,
    seed: u64,
    faults: usize,
    placement: Placement,
) -> (RunJob, CampaignSpec) {
    let job = RunJob {
        job_id: 0,
        algorithm: AlgorithmKind::Alg4,
        adversary,
        n,
        k,
        faults,
        seed_index: 0,
        derived_seed: seed,
    };
    (
        job,
        CampaignSpec {
            placement,
            ..CampaignSpec::default()
        },
    )
}

/// Re-runs a spec under the invariant monitor: one monitored run, then a
/// same-seed replay that must regenerate the identical graph sequence
/// (adversary determinism). Violations render with round, ids, and the
/// replay seed rather than aborting the CLI.
fn check_spec(
    kind: AdversaryKind,
    n: usize,
    k: usize,
    seed: u64,
    faults: usize,
    structural: bool,
    threads: usize,
) -> Result<String, SimError> {
    let policy = if structural {
        CheckPolicy::Structural
    } else {
        CheckPolicy::Full
    };
    let (job, spec) = single_run(kind, n, k, seed, faults, Placement::Rooted);
    let build = || {
        job::builder(DispersionDynamic::new(), &job, &spec)
            .check(policy)
            .threads(threads)
    };
    let mut sim = build().build()?;
    let mut out = format!(
        "conformance check: n={n} k={k} network={} seed={seed} faults={faults} policy={policy}\n",
        sim.network().name(),
    );
    match sim.run() {
        Ok(outcome) => {
            out.push_str(&format!(
                "run: dispersed={} in {} rounds — every armed invariant held\n",
                outcome.dispersed, outcome.rounds
            ));
            let hashes = sim
                .monitor()
                .expect("checking armed")
                .graph_hashes()
                .to_vec();
            let mut replay = build().check_expected_graphs(hashes.clone()).build()?;
            match replay.run() {
                Ok(_) => out.push_str(&format!(
                    "determinism: same-seed replay regenerated all {} round graphs\n",
                    hashes.len()
                )),
                Err(SimError::InvariantViolation(v)) => {
                    out.push_str(&format!("determinism VIOLATION: {v}\n"));
                }
                Err(e) => return Err(e),
            }
        }
        Err(SimError::InvariantViolation(v)) => {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        Err(e) => return Err(e),
    }
    Ok(out)
}

/// How a clean replay of an `ok` record differs from it, if it does: a
/// replay of another run (other knobs) must not count as clean.
fn divergence(rec: &RunRecord, replay: &RunRecord) -> Option<String> {
    let fields = |r: &RunRecord| (r.dispersed, r.rounds, r.moves, r.crashes);
    (rec.status == RunStatus::Ok && fields(rec) != fields(replay)).then(|| {
        format!(
            "recorded dispersed={} rounds={} moves={} crashes={}, \
             replayed dispersed={} rounds={} moves={} crashes={}",
            rec.dispersed,
            rec.rounds,
            rec.moves,
            rec.crashes,
            replay.dispersed,
            replay.rounds,
            replay.moves,
            replay.crashes,
        )
    })
}

/// Replays every run record of a campaign artifact under the conformance
/// monitor (full suite for Algorithm 4, structural for baselines).
/// Replay uses the knobs the artifact's header records (placement, round
/// cap, edge probability; the defaults for a header written before they
/// were recorded); the per-run (algorithm, adversary, n, k, faults,
/// seed) tuples come from the records themselves. A replay that fails
/// the monitor is flagged, and so is one whose outcome differs from an
/// `ok` record's: the replay did not reproduce the recorded run. Only
/// durable lines are replayed.
fn check_artifact(path: &str, threads: usize) -> Result<String, DispersionError> {
    let mut spec = CampaignSpec::default();
    let (mut clean, mut skipped) = (0usize, 0usize);
    let mut bad = Vec::new();
    read_artifact(std::path::Path::new(path), |entry| {
        let rec = match entry {
            Entry::Header(header) => {
                spec = CampaignSpec {
                    placement: header.placement,
                    max_rounds: header.max_rounds,
                    edge_prob: header.edge_prob,
                    ..CampaignSpec::default()
                };
                return Ok(());
            }
            Entry::Run(rec) => rec,
        };
        let (Ok(algorithm), Ok(adversary)) = (
            AlgorithmKind::parse(&rec.algorithm),
            AdversaryKind::parse(&rec.adversary),
        ) else {
            skipped += 1;
            return Ok(());
        };
        let job = RunJob {
            job_id: rec.job_id,
            algorithm,
            adversary,
            n: rec.n,
            k: rec.k,
            faults: rec.faults,
            seed_index: rec.seed_index,
            derived_seed: rec.seed,
        };
        // A panicking replay (the campaigns' `panic-probe`) is flagged,
        // not fatal to the rest of the replay.
        let replay =
            std::panic::catch_unwind(|| job::execute(&job, &spec, false, true, None, threads))
                .unwrap_or_else(|_| job::panic_record(&job, &spec, "replay panicked".into()));
        let verdict = match replay.status {
            RunStatus::Ok => divergence(&rec, &replay).map(|d| format!("diverged — {d}")),
            status => Some(format!(
                "{} — {}",
                status.name(),
                replay.message.as_deref().unwrap_or("(no message)")
            )),
        };
        match verdict {
            None => clean += 1,
            Some(verdict) => bad.push(format!(
                "job {} ({} vs {} n={} k={} f={} seed={}): {verdict}",
                rec.job_id, rec.algorithm, rec.adversary, rec.n, rec.k, rec.faults, rec.seed,
            )),
        }
        Ok(())
    })?;
    let mut out = format!(
        "conformance replay of {path}: {clean} clean, {} flagged, {skipped} unparseable\n",
        bad.len()
    );
    for line in &bad {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn run(
    kind: AdversaryKind,
    n: usize,
    k: usize,
    seed: u64,
    faults: usize,
    scattered: bool,
    watch: bool,
    json: bool,
) -> Result<String, SimError> {
    let placement = if scattered {
        Placement::Scattered
    } else {
        Placement::Rooted
    };
    let (job, spec) = single_run(kind, n, k, seed, faults, placement);
    let mut sim = job::builder(DispersionDynamic::new(), &job, &spec).build()?;
    let net_name = sim.network().name().to_string();

    let mut out = String::new();
    if json {
        let outcome = sim.run()?;
        out.push_str(&render::outcome_json(&outcome, &net_name));
        out.push('\n');
        return Ok(out);
    }
    out.push_str(&format!(
        "running Algorithm 4: n={n} k={k} network={net_name} seed={seed} faults={faults}\n\n"
    ));
    if watch {
        out.push_str(&format!(
            "start      [{}]\n",
            render::occupancy_strip(sim.configuration())
        ));
        loop {
            // The borrowed round output ends at the clone, freeing `sim`
            // for the configuration read below.
            let rec = match sim.step()? {
                Step::Dispersed => break,
                Step::Advanced(output) => output.record.clone(),
            };
            out.push_str(&render::round_line(&rec, sim.configuration()));
            out.push('\n');
            if sim.round() > 10 * k as u64 + 100 {
                out.push_str("(aborting: round budget exhausted)\n");
                break;
            }
        }
        let dispersed = sim.configuration().is_dispersed();
        out.push_str(&format!(
            "\ndispersed: {dispersed} in {} rounds (bound: k = {k})\n",
            sim.round()
        ));
        out.push_str("final placement:\n");
        out.push_str(&render::placements(sim.configuration()));
        out.push('\n');
    } else {
        let outcome = sim.run()?;
        out.push_str(&format!(
            "dispersed: {} in {} rounds (bound: k = {k}); crashes: {}; memory: {} bits\n",
            outcome.dispersed,
            outcome.rounds,
            outcome.crashes,
            outcome.max_memory_bits()
        ));
        out.push_str("final placement:\n");
        out.push_str(&render::placements(&outcome.final_config));
        out.push('\n');
    }
    Ok(out)
}

fn dot(kind: AdversaryKind, n: usize, k: usize, seed: u64) -> Result<String, SimError> {
    // Sample the graph an adversary would present to a rooted round-0
    // configuration, and annotate occupancy.
    let (job, spec) = single_run(kind, n, k, seed, 0, Placement::Rooted);
    let mut network = job::network(&job, &spec);
    let config = job::initial_config(&job, &spec);
    // A stay-put oracle: adaptive adversaries need *some* move prediction;
    // for a visual sample the identity prediction is fine.
    struct StayOracle<'a> {
        config: &'a Configuration,
    }
    impl dispersion_engine::MoveOracle for StayOracle<'_> {
        fn moves_on(
            &self,
            _g: &dispersion_graph::PortLabeledGraph,
        ) -> Vec<dispersion_engine::ResolvedMove> {
            self.config
                .iter()
                .map(|(robot, from)| dispersion_engine::ResolvedMove {
                    robot,
                    from,
                    action: dispersion_engine::Action::Stay,
                    to: from,
                })
                .collect()
        }
        fn configuration(&self) -> &Configuration {
            self.config
        }
    }
    let oracle = StayOracle { config: &config };
    let g = network.graph_for_round(0, &config, &oracle);
    Ok(dispersion_graph::dot::to_dot(g, &|v| {
        let robots = config.robots_at(v);
        if robots.is_empty() {
            String::new()
        } else {
            format!(
                "robots: {}",
                robots
                    .iter()
                    .map(|r| r.get().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        }
    }))
}

fn sweep(kind: AdversaryKind, max_k: usize, seeds: u64) -> Result<String, SimError> {
    use dispersion_engine::stats::RunSummary;
    let mut out = String::from("   k     n  min  mean   max  all ≤ k\n");
    let mut k = 4usize;
    while k <= max_k {
        let n = k + k / 2;
        let mut outcomes = Vec::new();
        for seed in 0..seeds {
            let (job, spec) = single_run(kind, n, k, seed, 0, Placement::Scattered);
            outcomes.push(
                job::builder(DispersionDynamic::new(), &job, &spec)
                    .build()?
                    .run()?,
            );
        }
        let summary = RunSummary::collect(&outcomes);
        out.push_str(&format!(
            "{:>4}  {:>4}  {:>3}  {:>4.1}  {:>4}  {}\n",
            k,
            n,
            summary.min_rounds,
            summary.mean_rounds,
            summary.max_rounds,
            summary.all_dispersed && summary.within(k as u64)
        ));
        k *= 2;
    }
    Ok(out)
}

fn trap(theorem: u8, k: usize, rounds: u64) -> Result<String, SimError> {
    let n = k + 5;
    let mut out = String::new();
    match theorem {
        1 => {
            let mut sim = Simulator::builder(
                GreedyLocal::new(),
                PathTrapAdversary::new(n),
                ModelSpec::LOCAL_WITH_NEIGHBORHOOD,
                impossibility::near_dispersed_config(n, k),
            )
            .max_rounds(rounds)
            .build()?;
            let outcome = sim.run()?;
            out.push_str(&format!(
                "Theorem 1 trap (local comm + 1-NK), k={k}, {rounds} rounds:\n\
                 dispersed: {} | adversary misses: {} | occupied ≤ {}\n",
                outcome.dispersed,
                sim.network().trap_misses(),
                k - 1
            ));
        }
        2 => {
            let mut sim = Simulator::builder(
                BlindGlobal::new(),
                CliqueTrapAdversary::new(n),
                ModelSpec::GLOBAL_BLIND,
                impossibility::near_dispersed_config(n, k),
            )
            .max_rounds(rounds)
            .build()?;
            let outcome = sim.run()?;
            let new_nodes: usize = outcome.trace.records.iter().map(|r| r.newly_occupied).sum();
            out.push_str(&format!(
                "Theorem 2 trap (global comm, no 1-NK), k={k}, {rounds} rounds:\n\
                 dispersed: {} | new nodes ever: {new_nodes} | adversary misses: {}\n",
                outcome.dispersed,
                sim.network().trap_misses(),
            ));
        }
        _ => unreachable!("parser restricts to 1 or 2"),
    }
    Ok(out)
}

fn lower(k: usize) -> Result<String, SimError> {
    let report = lower_bound::run_lower_bound(k + 6, k)?;
    Ok(format!(
        "Theorem 3 star-pair adversary, k={k} (n={}):\n\
         rounds: {} | floor k−1: {} | max new nodes/round: {} | dynamic diameter: {} | tight: {}\n",
        report.n,
        report.rounds,
        report.floor,
        report.max_new_per_round,
        report.dynamic_diameter,
        report.is_tight()
    ))
}

fn memory(max_k: usize) -> Result<String, SimError> {
    let mut out = String::from("   k  ceil(log2 k)  measured bits\n");
    let mut k = 2usize;
    while k <= max_k {
        let n = k + k / 2 + 2;
        let mut sim = Simulator::builder(
            DispersionDynamic::new(),
            EdgeChurnNetwork::new(n, 0.1, k as u64),
            ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            Configuration::rooted(n, k, NodeId::new(0)),
        )
        .build()?;
        let outcome = sim.run()?;
        out.push_str(&format!(
            "{:>4}  {:>12}  {:>13}\n",
            k,
            RobotId::bits_for_population(k),
            outcome.max_memory_bits()
        ));
        k *= 2;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let out = execute(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("lower-bound"));
    }

    #[test]
    fn run_command_reports_dispersion() {
        let out = execute(Command::Run {
            network: AdversaryKind::Churn,
            n: 12,
            k: 8,
            seed: 3,
            faults: 0,
            scattered: false,
            watch: false,
            json: false,
        })
        .unwrap();
        assert!(out.contains("dispersed: true"), "{out}");
        assert!(out.contains("final placement"));
    }

    #[test]
    fn run_json_emits_document() {
        let out = execute(Command::Run {
            network: AdversaryKind::StarPair,
            n: 10,
            k: 6,
            seed: 1,
            faults: 0,
            scattered: false,
            watch: false,
            json: true,
        })
        .unwrap();
        assert!(out.trim_end().starts_with('{'), "{out}");
        assert!(out.contains("\"dispersed\":true"), "{out}");
        assert!(out.contains("\"rounds\":5"), "{out}");
    }

    #[test]
    fn sweep_command_summarizes() {
        let out = execute(Command::Sweep {
            network: AdversaryKind::Churn,
            max_k: 8,
            seeds: 3,
        })
        .unwrap();
        assert!(out.contains("mean"), "{out}");
        assert!(out.contains("true"), "{out}");
    }

    #[test]
    fn run_watch_streams_rounds() {
        let out = execute(Command::Run {
            network: AdversaryKind::StarPair,
            n: 10,
            k: 6,
            seed: 1,
            faults: 0,
            scattered: false,
            watch: true,
            json: false,
        })
        .unwrap();
        assert!(out.contains("round    0"), "{out}");
        assert!(out.contains("dispersed: true in 5 rounds"), "{out}");
    }

    #[test]
    fn run_with_faults() {
        let out = execute(Command::Run {
            network: AdversaryKind::Churn,
            n: 14,
            k: 10,
            seed: 5,
            faults: 3,
            scattered: true,
            watch: false,
            json: false,
        })
        .unwrap();
        assert!(out.contains("dispersed: true"), "{out}");
        // Crashes scheduled after dispersion never fire; some prefix does.
        assert!(out.contains("crashes:"), "{out}");
    }

    /// Every network `--network` accepts: the campaign names bar the
    /// panic probe.
    fn single_run_networks() -> Vec<AdversaryKind> {
        AdversaryKind::NAMES
            .split(" | ")
            .map(|name| AdversaryKind::parse(name).unwrap())
            .filter(|&kind| kind != AdversaryKind::PanicProbe)
            .collect()
    }

    #[test]
    fn every_network_kind_runs() {
        let kinds = single_run_networks();
        assert_eq!(kinds.len(), 11);
        for kind in kinds {
            let out = execute(Command::Run {
                network: kind,
                n: 10,
                k: 6,
                seed: 2,
                faults: 0,
                scattered: false,
                watch: false,
                json: false,
            })
            .unwrap();
            assert!(out.contains("dispersed: true"), "{kind:?}: {out}");
        }
    }

    #[test]
    fn run_json_matches_the_lab_job() {
        // `run` is the lab job with `--seed` as its seed, Algorithm 4,
        // rooted, under the default campaign knobs.
        let number = |doc: &str, key: &str| -> Vec<u64> {
            let pat = format!("\"{key}\":");
            doc.match_indices(&pat)
                .map(|(at, _)| {
                    let digits = &doc[at + pat.len()..];
                    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap();
                    digits[..end].parse().unwrap()
                })
                .collect()
        };
        let spec = CampaignSpec {
            placement: Placement::Rooted,
            ..CampaignSpec::default()
        };
        for kind in single_run_networks() {
            let (n, k, seed, faults) = (12, 8, 3, 2);
            let doc = execute(Command::Run {
                network: kind,
                n,
                k,
                seed,
                faults,
                scattered: false,
                watch: false,
                json: true,
            })
            .unwrap();
            let job = RunJob {
                job_id: 0,
                algorithm: AlgorithmKind::Alg4,
                adversary: kind,
                n,
                k,
                faults,
                seed_index: 0,
                derived_seed: seed,
            };
            let rec = job::execute(&job, &spec, false, false, None, 1);
            assert_eq!(rec.status, RunStatus::Ok, "{kind:?}");
            assert_eq!(number(&doc, "rounds"), vec![rec.rounds], "{kind:?}");
            // The per-round trace entries carry the moves.
            assert_eq!(
                number(&doc, "moves").iter().sum::<u64>(),
                rec.moves,
                "{kind:?}"
            );
            assert!(
                doc.contains(&format!("\"dispersed\":{}", rec.dispersed)),
                "{kind:?}: {doc}"
            );
        }
    }

    #[test]
    fn campaign_command_runs_and_reports() {
        let out_dir = std::env::temp_dir().join("dispersion-cli-campaign-test");
        let _ = std::fs::remove_dir_all(&out_dir);
        let spec = CampaignSpec {
            name: "cli-smoke".into(),
            ks: vec![4],
            seeds: 2,
            ..CampaignSpec::default()
        };
        let out = execute(Command::Campaign {
            spec: spec.clone(),
            jobs: 2,
            keep_traces: false,
            fresh: true,
            out_dir: out_dir.display().to_string(),
            check: false,
            timeout_secs: 0,
            retries: 0,
            // Parallel engines inside parallel jobs: the records (and
            // therefore resume below) must be unaffected.
            threads: 2,
        })
        .unwrap();
        assert!(out.contains("2 executed, 0 resumed"), "{out}");
        assert!(out.contains("alg4"), "{out}");
        assert!(out_dir.join("cli-smoke.jsonl").exists());
        // Re-running resumes from the artifact: nothing left to execute.
        let again = execute(Command::Campaign {
            spec,
            jobs: 2,
            keep_traces: false,
            fresh: false,
            out_dir: out_dir.display().to_string(),
            check: false,
            timeout_secs: 0,
            retries: 0,
            threads: 1,
        })
        .unwrap();
        assert!(again.contains("0 executed, 2 resumed"), "{again}");
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn check_command_passes_on_correct_runs() {
        let out = execute(Command::Check {
            artifact: None,
            network: AdversaryKind::Churn,
            n: 12,
            k: 8,
            seed: 3,
            faults: 1,
            structural: false,
            threads: 2,
        })
        .unwrap();
        assert!(out.contains("policy=full"), "{out}");
        assert!(out.contains("every armed invariant held"), "{out}");
        assert!(out.contains("same-seed replay regenerated"), "{out}");
        let structural = execute(Command::Check {
            artifact: None,
            network: AdversaryKind::StarPair,
            n: 10,
            k: 6,
            seed: 1,
            faults: 0,
            structural: true,
            threads: 1,
        })
        .unwrap();
        assert!(structural.contains("policy=structural"), "{structural}");
    }

    #[test]
    fn check_command_replays_artifacts() {
        let out_dir = std::env::temp_dir().join("dispersion-cli-check-test");
        let _ = std::fs::remove_dir_all(&out_dir);
        let spec = CampaignSpec {
            name: "check-smoke".into(),
            ks: vec![4],
            seeds: 2,
            ..CampaignSpec::default()
        };
        execute(Command::Campaign {
            spec,
            jobs: 1,
            keep_traces: false,
            fresh: true,
            out_dir: out_dir.display().to_string(),
            check: true,
            timeout_secs: 0,
            retries: 0,
            threads: 1,
        })
        .unwrap();
        let artifact = out_dir.join("check-smoke.jsonl");
        let out = execute(Command::Check {
            artifact: Some(artifact.display().to_string()),
            network: AdversaryKind::Churn,
            n: 0,
            k: 0,
            seed: 0,
            faults: 0,
            structural: false,
            // Replay the checked runs on a parallel engine: the monitor
            // and its graph-hash determinism check must agree with the
            // sequentially-written artifact.
            threads: 2,
        })
        .unwrap();
        assert!(out.contains("2 clean, 0 flagged"), "{out}");
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn check_artifact_flags_divergent_and_panicking_replays() {
        // Rooted runs capped at 3 rounds do not disperse. The replay reads
        // the knobs from the header, reproduces every one of them, and
        // counts them clean (under the default knobs, scattered and
        // 100 000 rounds, each would disperse and diverge).
        let out_dir = std::env::temp_dir().join("dispersion-cli-divergence-test");
        let dir = out_dir.display().to_string();
        let _ = std::fs::remove_dir_all(&out_dir);
        let campaign = crate::args::parse([
            "campaign",
            "--name",
            "capped",
            "--networks",
            "churn",
            "--ks",
            "8,16",
            "--seeds",
            "2",
            "--placement",
            "rooted",
            "--max-rounds",
            "3",
            "--out",
            &dir,
            "--fresh",
        ])
        .unwrap();
        let out = execute(campaign).unwrap();
        assert!(out.contains("4 executed"), "{out}");
        let artifact = out_dir.join("capped.jsonl").display().to_string();
        let check = || execute(crate::args::parse(["check", "--artifact", &artifact]).unwrap());
        let replay = check().unwrap();
        assert!(replay.contains("4 clean, 0 flagged"), "{replay}");

        // A record whose outcome the replay does not reproduce is flagged.
        let text = std::fs::read_to_string(&artifact).unwrap();
        assert_eq!(text.matches("\"rounds\":3,").count(), 4, "{text}");
        std::fs::write(
            &artifact,
            text.replacen("\"rounds\":3,", "\"rounds\":2,", 1),
        )
        .unwrap();
        let replay = check().unwrap();
        assert!(replay.contains("3 clean, 1 flagged"), "{replay}");
        assert!(
            replay.contains("diverged — recorded dispersed=false rounds=2"),
            "{replay}"
        );

        // A record whose replay panics is flagged; the replay goes on.
        let campaign = crate::args::parse([
            "campaign",
            "--name",
            "probe",
            "--networks",
            "panic-probe,star-pair",
            "--ks",
            "4",
            "--seeds",
            "1",
            "--out",
            &dir,
            "--fresh",
        ])
        .unwrap();
        execute(campaign).unwrap();
        let artifact = out_dir.join("probe.jsonl").display().to_string();
        let replay =
            execute(crate::args::parse(["check", "--artifact", &artifact]).unwrap()).unwrap();
        assert!(replay.contains("1 clean, 1 flagged"), "{replay}");
        assert!(replay.contains("panic — replay panicked"), "{replay}");
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn dot_command_emits_graphviz() {
        let out = execute(Command::Dot {
            network: AdversaryKind::StarPair,
            n: 8,
            k: 5,
            seed: 0,
        })
        .unwrap();
        assert!(out.starts_with("graph G {"), "{out}");
        assert!(out.contains("robots: 1,2,3,4,5"), "{out}");
        assert!(out.contains(" -- "), "{out}");
    }

    #[test]
    fn trap_commands_hold() {
        let t1 = execute(Command::Trap {
            theorem: 1,
            k: 5,
            rounds: 50,
        })
        .unwrap();
        assert!(t1.contains("dispersed: false"), "{t1}");
        let t2 = execute(Command::Trap {
            theorem: 2,
            k: 4,
            rounds: 50,
        })
        .unwrap();
        assert!(t2.contains("dispersed: false"), "{t2}");
        assert!(t2.contains("new nodes ever: 0"), "{t2}");
    }

    #[test]
    fn lower_bound_command_is_tight() {
        let out = execute(Command::LowerBound { k: 9 }).unwrap();
        assert!(out.contains("rounds: 8"), "{out}");
        assert!(out.contains("tight: true"), "{out}");
    }

    #[test]
    fn memory_command_matches_log() {
        let out = execute(Command::Memory { max_k: 16 }).unwrap();
        for line in out.lines().skip(1) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[1], cols[2], "expected == measured: {line}");
        }
    }
}
