//! End-to-end campaign-runner tests: parallel determinism, resumption
//! from a truncated artifact, and panic isolation.

use std::fs;
use std::path::PathBuf;

use std::time::Duration;

use dispersion_lab::{
    run_campaign, AdversaryKind, AlgorithmKind, CampaignSpec, NRule, Placement, RunRecord,
    RunStatus, RunnerOptions,
};

/// A fresh scratch directory under the target dir, unique per test.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn small_spec(name: &str) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        algorithms: vec![AlgorithmKind::Alg4, AlgorithmKind::LocalDfs],
        adversaries: vec![AdversaryKind::Churn, AdversaryKind::StarPair],
        ks: vec![4, 6],
        n_rule: NRule::THREE_HALVES,
        faults: vec![0, 1],
        seeds: 2,
        max_rounds: 5_000,
        ..CampaignSpec::default()
    }
}

fn opts(dir: &std::path::Path, jobs: usize) -> RunnerOptions {
    RunnerOptions {
        jobs,
        out_dir: dir.to_path_buf(),
        ..RunnerOptions::default()
    }
}

/// Reads back every run record, sorted by (job id, attempt).
fn records(path: &std::path::Path) -> Vec<RunRecord> {
    let text = fs::read_to_string(path).expect("artifact readable");
    let mut recs: Vec<RunRecord> = text.lines().filter_map(RunRecord::parse_line).collect();
    recs.sort_by_key(|r| (r.job_id, r.attempt));
    recs
}

#[test]
fn parallel_execution_is_deterministic() {
    let dir = scratch("determinism");
    let serial = small_spec("serial");
    let parallel = CampaignSpec {
        name: "parallel".into(),
        ..serial.clone()
    };

    let r1 = run_campaign(&serial, &opts(&dir, 1)).expect("serial run");
    let r4 = run_campaign(&parallel, &opts(&dir, 4)).expect("parallel run");
    assert_eq!(r1.executed as u64, serial.job_count());
    assert_eq!(r4.executed as u64, parallel.job_count());

    let a = records(&dir.join("serial.jsonl"));
    let b = records(&dir.join("parallel.jsonl"));
    assert_eq!(a.len() as u64, serial.job_count());
    // Ignoring wall-time and record order, the artifacts are identical.
    let canon =
        |rs: &[RunRecord]| -> Vec<String> { rs.iter().map(RunRecord::canonical_line).collect() };
    assert_eq!(canon(&a), canon(&b));
    // And the grid genuinely exercised distinct seeds per job.
    let mut seeds: Vec<u64> = a.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), a.len());
}

#[test]
fn campaigns_resume_from_truncated_artifacts() {
    let dir = scratch("resume");
    let spec = small_spec("resume");
    let path = dir.join("resume.jsonl");

    let full = run_campaign(&spec, &opts(&dir, 2)).expect("first run");
    assert_eq!(full.resumed, 0);
    let complete = fs::read_to_string(&path).expect("artifact");
    let before = records(&path);

    // Simulate an interrupted campaign: keep the header + the first 9
    // records, then cut the 10th record mid-line.
    let lines: Vec<&str> = complete.lines().collect();
    let mut truncated = lines[..10].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[10][..lines[10].len() / 2]);
    fs::write(&path, &truncated).expect("truncate artifact");

    let resumed = run_campaign(&spec, &opts(&dir, 2)).expect("resumed run");
    // 9 complete records were kept; the half-written one re-ran.
    assert_eq!(resumed.resumed, 9);
    assert_eq!(resumed.executed as u64, spec.job_count() - 9);

    let after = records(&path);
    assert_eq!(after.len() as u64, spec.job_count());
    let canon =
        |rs: &[RunRecord]| -> Vec<String> { rs.iter().map(RunRecord::canonical_line).collect() };
    assert_eq!(
        canon(&before),
        canon(&after),
        "resume must fill in identical records"
    );
    // The report still aggregates the whole grid, resumed cells included.
    assert_eq!(
        resumed
            .cells
            .values()
            .map(|c| c.ok_runs() + c.panics + c.errors)
            .sum::<usize>() as u64,
        spec.job_count()
    );
}

#[test]
fn artifact_from_different_spec_is_rejected() {
    let dir = scratch("mismatch");
    let spec = small_spec("clash");
    run_campaign(&spec, &opts(&dir, 1)).expect("first run");

    let changed = CampaignSpec {
        seeds: 3,
        ..spec.clone()
    };
    let err = run_campaign(&changed, &opts(&dir, 1)).expect_err("hash mismatch");
    assert!(err.to_string().contains("different spec"), "{err}");

    // --fresh overwrites instead.
    let fresh = RunnerOptions {
        fresh: true,
        ..opts(&dir, 1)
    };
    let report = run_campaign(&changed, &fresh).expect("fresh rerun");
    assert_eq!(report.resumed, 0);
    assert_eq!(report.executed as u64, changed.job_count());
}

#[test]
fn panicking_jobs_are_recorded_and_isolated() {
    let dir = scratch("panic");
    let spec = CampaignSpec {
        name: "panic".into(),
        algorithms: vec![AlgorithmKind::Alg4],
        adversaries: vec![AdversaryKind::PanicProbe, AdversaryKind::StarPair],
        ks: vec![4],
        seeds: 2,
        ..CampaignSpec::default()
    };
    let report = run_campaign(&spec, &opts(&dir, 2)).expect("campaign survives panics");
    assert_eq!(report.total_panics(), 2);

    let recs = records(&dir.join("panic.jsonl"));
    assert_eq!(recs.len(), 4);
    let panics: Vec<&RunRecord> = recs
        .iter()
        .filter(|r| r.status == RunStatus::Panic)
        .collect();
    assert_eq!(panics.len(), 2);
    for rec in &panics {
        assert_eq!(rec.adversary, "panic-probe");
        assert!(!rec.dispersed);
        assert!(
            rec.message.as_deref().unwrap_or("").contains("panic-probe"),
            "panic message captured: {:?}",
            rec.message
        );
    }
    // The star-pair jobs in the same campaign still ran to completion.
    assert!(recs
        .iter()
        .filter(|r| r.adversary == "star-pair")
        .all(|r| r.status == RunStatus::Ok && r.dispersed));
}

#[test]
fn byzantine_jobs_time_out_and_the_campaign_drains() {
    let dir = scratch("byzantine");
    // blind-global against the Theorem 2 clique trap from the
    // near-dispersed start provably never terminates; with a round cap
    // this large only the watchdog can retire the job.
    let spec = CampaignSpec {
        name: "byzantine".into(),
        algorithms: vec![AlgorithmKind::Alg4, AlgorithmKind::BlindGlobal],
        adversaries: vec![AdversaryKind::CliqueTrap],
        ks: vec![6],
        n_rule: NRule::k_plus(4),
        placement: Placement::NearDispersed,
        seeds: 1,
        max_rounds: 1_000_000_000,
        ..CampaignSpec::default()
    };
    let armed = RunnerOptions {
        timeout: Some(Duration::from_millis(200)),
        ..opts(&dir, 2)
    };
    let report = run_campaign(&spec, &armed).expect("the campaign must drain");
    assert_eq!(report.total_timeouts(), 1);

    let recs = records(&dir.join("byzantine.jsonl"));
    assert_eq!(recs.len() as u64, spec.job_count());
    let divergent = recs.iter().find(|r| r.algorithm == "blind-global").unwrap();
    assert_eq!(divergent.status, RunStatus::Timeout);
    assert!(!divergent.dispersed);
    assert!(
        divergent
            .message
            .as_deref()
            .unwrap_or("")
            .contains("budget exceeded"),
        "{:?}",
        divergent.message
    );
    // A timeout is terminal under a zero retry budget: resuming with the
    // same options re-runs nothing.
    let resumed = run_campaign(&spec, &armed).expect("resume");
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.resumed as u64, spec.job_count());
}

#[test]
fn retryable_failures_are_retried_then_quarantined() {
    let dir = scratch("quarantine");
    let spec = CampaignSpec {
        name: "quarantine".into(),
        algorithms: vec![AlgorithmKind::Alg4],
        adversaries: vec![AdversaryKind::PanicProbe],
        ks: vec![4],
        seeds: 1,
        ..CampaignSpec::default()
    };
    let retrying = RunnerOptions {
        retries: 2,
        backoff_ms: 0,
        ..opts(&dir, 1)
    };
    let report = run_campaign(&spec, &retrying).expect("campaign drains");
    assert_eq!(report.total_quarantined(), 1);
    assert_eq!(report.total_retries(), 2);
    assert_eq!(
        report.total_panics(),
        0,
        "retried attempts are not terminal panics"
    );

    let recs = records(&dir.join("quarantine.jsonl"));
    assert_eq!(recs.len(), 3, "one record per attempt");
    assert_eq!(
        recs.iter().map(|r| r.attempt).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert_eq!(recs[0].status, RunStatus::Panic);
    assert_eq!(recs[1].status, RunStatus::Panic);
    assert_eq!(recs[2].status, RunStatus::Quarantined);
    assert_eq!(
        recs[1].seed, recs[0].seed,
        "retries preserve the derived seed"
    );
    assert!(
        recs[0].message.as_deref().unwrap_or("").contains("job.rs:"),
        "panic records carry the panic's file:line: {:?}",
        recs[0].message
    );
    let verdict = recs[2].message.as_deref().unwrap_or("");
    assert!(
        verdict.contains("quarantined after 3 attempts"),
        "{verdict}"
    );
    assert!(verdict.contains("panic-probe"), "{verdict}");

    // Quarantine is terminal: the resumed campaign runs nothing.
    let resumed = run_campaign(&spec, &retrying).expect("resume");
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.resumed, 1);
}

/// The pinned record grid: every algorithm against every network except
/// the panic probe, k = 6, f ∈ {0, 1}, one seed, a 200-round cap. Its
/// records include deterministic `error` records (local-dfs is a
/// static-graph baseline), which stay pinned like the rest.
fn pinned_spec() -> CampaignSpec {
    CampaignSpec {
        name: "pinned".into(),
        algorithms: vec![
            AlgorithmKind::Alg4,
            AlgorithmKind::LocalDfs,
            AlgorithmKind::RandomWalk,
            AlgorithmKind::GreedyLocal,
            AlgorithmKind::BlindGlobal,
        ],
        adversaries: AdversaryKind::NAMES
            .split(" | ")
            .map(|name| AdversaryKind::parse(name).unwrap())
            .filter(|&kind| kind != AdversaryKind::PanicProbe)
            .collect(),
        ks: vec![6],
        faults: vec![0, 1],
        seeds: 1,
        max_rounds: 200,
        ..CampaignSpec::default()
    }
}

/// How a job becomes a run must not change from one commit to the next:
/// the spec hash and the sorted canonical records of [`pinned_spec`] are
/// compared with `tests/fixtures/pinned_records.txt`. Set
/// `DISPERSION_BLESS=1` to rewrite the fixture after a deliberate change
/// of outcomes.
#[test]
fn pinned_grid_records_match_the_fixture() {
    let dir = scratch("pinned");
    let spec = pinned_spec();
    assert_eq!(spec.adversaries.len(), 11);
    run_campaign(&spec, &opts(&dir, 2)).expect("pinned campaign");
    let mut lines: Vec<String> = records(&dir.join("pinned.jsonl"))
        .iter()
        .map(RunRecord::canonical_line)
        .collect();
    lines.sort();
    let actual = format!(
        "spec_hash={:016x}\n{}\n",
        spec.spec_hash(),
        lines.join("\n")
    );
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pinned_records.txt");
    if std::env::var_os("DISPERSION_BLESS").is_some() {
        fs::create_dir_all(fixture.parent().unwrap()).expect("fixture dir");
        fs::write(&fixture, &actual).expect("write fixture");
    }
    let expected = fs::read_to_string(&fixture).expect("fixture readable");
    if let Some((i, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "pinned records differ at line {}:\n  fixture: {want}\n  now:     {got}",
            i + 1
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "pinned record count changed"
    );
}
