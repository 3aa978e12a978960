//! Failpoint-driven crash-recovery self-tests.
//!
//! Each scenario kills a campaign at a different interesting point — a
//! worker dying between jobs, the writer dying between appends, the
//! writer dying *mid-record* or just before a record's newline — then
//! resumes it with the failpoints disarmed and asserts the canonical
//! record set and the rendered report are byte-identical to an
//! uninterrupted run's. On divergence
//! the artifacts are dumped under `target/crash-recovery-failures/`
//! (uploaded by the `runner-crash-recovery` CI job).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dispersion_lab::{
    run_campaign, AdversaryKind, AlgorithmKind, CampaignSpec, FailpointRegistry, LabError, NRule,
    RunRecord, RunStatus, RunnerOptions,
};

/// A fresh scratch directory under the target dir, unique per test.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Where divergent artifacts land for CI to upload.
fn failures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .expect("target/tmp has a parent")
        .join("crash-recovery-failures")
}

fn recovery_spec() -> CampaignSpec {
    CampaignSpec {
        name: "recover".into(),
        algorithms: vec![AlgorithmKind::Alg4, AlgorithmKind::LocalDfs],
        adversaries: vec![AdversaryKind::StarPair],
        ks: vec![4, 6],
        n_rule: NRule::THREE_HALVES,
        seeds: 2,
        max_rounds: 5_000,
        ..CampaignSpec::default()
    }
}

fn opts(dir: &Path) -> RunnerOptions {
    RunnerOptions {
        jobs: 1,
        out_dir: dir.to_path_buf(),
        backoff_ms: 0,
        ..RunnerOptions::default()
    }
}

/// The artifact's canonical record lines, sorted by (job id, attempt).
fn canonical(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).expect("artifact readable");
    let mut recs: Vec<RunRecord> = text.lines().filter_map(RunRecord::parse_line).collect();
    recs.sort_by_key(|r| (r.job_id, r.attempt));
    recs.iter().map(RunRecord::canonical_line).collect()
}

/// Asserts a resumed run reproduced the uninterrupted one byte-for-byte,
/// dumping both sides for CI on divergence.
fn assert_identical(
    scenario: &str,
    baseline_lines: &[String],
    baseline_render: &str,
    resumed_lines: &[String],
    resumed_render: &str,
    artifact: &Path,
) {
    if resumed_lines == baseline_lines && resumed_render == baseline_render {
        return;
    }
    let dump = failures_dir().join(scenario);
    let _ = fs::create_dir_all(&dump);
    let _ = fs::write(dump.join("baseline.canonical"), baseline_lines.join("\n"));
    let _ = fs::write(dump.join("resumed.canonical"), resumed_lines.join("\n"));
    let _ = fs::write(dump.join("baseline.report"), baseline_render);
    let _ = fs::write(dump.join("resumed.report"), resumed_render);
    let _ = fs::copy(artifact, dump.join("resumed.jsonl"));
    panic!(
        "scenario `{scenario}`: resumed campaign diverged from the uninterrupted run; \
         evidence dumped to {}",
        dump.display()
    );
}

#[test]
fn killed_campaigns_resume_to_the_uninterrupted_report() {
    let spec = recovery_spec();
    let base_dir = scratch("recovery-baseline");
    let baseline = run_campaign(&spec, &opts(&base_dir)).expect("uninterrupted run");
    let baseline_lines = canonical(&base_dir.join("recover.jsonl"));
    assert_eq!(baseline_lines.len() as u64, spec.job_count());
    let baseline_render = baseline.render();

    let scenarios = [
        ("job-start-crash", "job:start=crash@2"),
        ("writer-crash", "writer:append=crash@3"),
        ("writer-torn-write", "writer:append=torn:25@2"),
        // Keeps the whole record but not its `\n`.
        ("writer-torn-at-newline", "writer:append=torn:100000@2"),
    ];
    for (name, failpoints) in scenarios {
        let dir = scratch(&format!("recovery-{name}"));
        let armed = RunnerOptions {
            failpoints: FailpointRegistry::parse(failpoints).expect("valid failpoint spec"),
            ..opts(&dir)
        };
        let err = run_campaign(&spec, &armed).expect_err("armed campaign must die");
        assert!(matches!(err, LabError::Failpoint { .. }), "{name}: {err}");
        let artifact = dir.join("recover.jsonl");
        let partial = canonical(&artifact);
        assert!(
            (partial.len() as u64) < spec.job_count(),
            "{name}: the kill must leave a partial artifact, got {} records",
            partial.len()
        );

        let resumed = run_campaign(&spec, &opts(&dir)).expect("resume completes");
        assert_identical(
            name,
            &baseline_lines,
            &baseline_render,
            &canonical(&artifact),
            &resumed.render(),
            &artifact,
        );
    }
}

#[test]
fn injected_hang_burns_real_budget_and_times_out() {
    let dir = scratch("recovery-hang");
    let spec = CampaignSpec {
        name: "hang".into(),
        algorithms: vec![AlgorithmKind::Alg4],
        adversaries: vec![AdversaryKind::StarPair],
        ks: vec![4],
        seeds: 1,
        ..CampaignSpec::default()
    };
    // The watchdog deadline is fixed before the failpoint fires, so a
    // 250 ms hang against a 40 ms budget is already expired when the
    // simulator starts: the record is a genuine timeout at round 0.
    let armed = RunnerOptions {
        timeout: Some(Duration::from_millis(40)),
        failpoints: FailpointRegistry::parse("job:start=hang:250").expect("valid spec"),
        ..opts(&dir)
    };
    let report = run_campaign(&spec, &armed).expect("a hang is cut off, not fatal");
    assert_eq!(report.total_timeouts(), 1);

    let text = fs::read_to_string(dir.join("hang.jsonl")).expect("artifact");
    let recs: Vec<RunRecord> = text.lines().filter_map(RunRecord::parse_line).collect();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].status, RunStatus::Timeout);
    assert_eq!(recs[0].rounds, 0, "the hang consumed the whole budget");
    assert!(
        recs[0]
            .message
            .as_deref()
            .unwrap_or("")
            .contains("budget exceeded"),
        "{:?}",
        recs[0].message
    );
}

#[test]
fn one_shot_failpoint_panic_is_retried_to_success() {
    let dir = scratch("recovery-retry");
    let spec = CampaignSpec {
        name: "retry".into(),
        algorithms: vec![AlgorithmKind::Alg4],
        adversaries: vec![AdversaryKind::StarPair],
        ks: vec![4],
        seeds: 1,
        ..CampaignSpec::default()
    };
    let armed = RunnerOptions {
        retries: 1,
        failpoints: FailpointRegistry::parse("job:start=panic").expect("valid spec"),
        ..opts(&dir)
    };
    let report = run_campaign(&spec, &armed).expect("campaign recovers");
    assert_eq!(
        report.total_panics(),
        0,
        "the retried panic is not terminal"
    );
    assert_eq!(report.total_retries(), 1);
    assert_eq!(report.total_quarantined(), 0);

    let text = fs::read_to_string(dir.join("retry.jsonl")).expect("artifact");
    let mut recs: Vec<RunRecord> = text.lines().filter_map(RunRecord::parse_line).collect();
    recs.sort_by_key(|r| r.attempt);
    assert_eq!(recs.len(), 2);
    assert_eq!((recs[0].attempt, recs[0].status), (0, RunStatus::Panic));
    let msg = recs[0].message.as_deref().unwrap_or("");
    assert!(msg.contains("failpoint"), "{msg}");
    assert!(msg.contains("(at "), "panic location captured: {msg}");
    assert_eq!((recs[1].attempt, recs[1].status), (1, RunStatus::Ok));
    assert!(recs[1].dispersed);
    assert_eq!(recs[1].seed, recs[0].seed, "the rerun preserved the seed");
}
