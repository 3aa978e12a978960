//! Adversarial-artifact property tests: `scan_artifact` and a resuming
//! `run_campaign` must survive whatever a crashed writer, a concatenating
//! shell, or a flaky disk leaves behind — duplicate job records, garbage
//! lines, a second interleaved header, and tails torn at any byte
//! (including mid-escape-sequence) — and still converge to the canonical
//! record set of an uninterrupted run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use dispersion_lab::{
    run_campaign, scan_artifact, AdversaryKind, AlgorithmKind, CampaignSpec, RunRecord,
    RunnerOptions,
};

fn corruption_spec() -> CampaignSpec {
    CampaignSpec {
        name: "corrupt".into(),
        algorithms: vec![AlgorithmKind::Alg4],
        adversaries: vec![AdversaryKind::StarPair],
        ks: vec![4],
        seeds: 2,
        ..CampaignSpec::default()
    }
}

fn opts(dir: &Path) -> RunnerOptions {
    RunnerOptions {
        jobs: 1,
        out_dir: dir.to_path_buf(),
        ..RunnerOptions::default()
    }
}

/// Canonical record lines: parsed, sorted by (job id, attempt), wall
/// time zeroed, exact duplicates collapsed (a duplicated line must not
/// count as a second run).
fn canonical(text: &str) -> Vec<String> {
    let mut recs: Vec<RunRecord> = text.lines().filter_map(RunRecord::parse_line).collect();
    recs.sort_by_key(|r| (r.job_id, r.attempt));
    let mut lines: Vec<String> = recs.iter().map(RunRecord::canonical_line).collect();
    lines.dedup();
    lines
}

/// The pristine artifact text and its canonical lines, computed once.
fn baseline() -> &'static (String, Vec<String>) {
    static BASELINE: OnceLock<(String, Vec<String>)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corruption-baseline");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create baseline dir");
        run_campaign(&corruption_spec(), &opts(&dir)).expect("baseline campaign");
        let text = fs::read_to_string(dir.join("corrupt.jsonl")).expect("baseline artifact");
        let lines = canonical(&text);
        assert_eq!(lines.len() as u64, corruption_spec().job_count());
        (text, lines)
    })
}

/// A fresh directory per generated case.
fn case_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "corruption-case-{}",
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create case dir");
    dir
}

/// Applies one corruption mode to the pristine artifact text.
fn corrupt(pristine: &str, mode: u32, seed: u64, cut: usize) -> String {
    let lines: Vec<&str> = pristine.lines().collect();
    match mode {
        // A record line duplicated verbatim (same job id, same attempt) —
        // e.g. two interrupted resumes racing over the same tail.
        0 => {
            let dup = lines[1 + (seed as usize) % (lines.len() - 1)];
            format!("{pristine}{dup}\n")
        }
        // A garbage line spliced in at an arbitrary position.
        1 => {
            let mut out: Vec<&str> = lines.clone();
            out.insert(cut % (lines.len() + 1), "!!{ not json [ at all \\");
            out.join("\n") + "\n"
        }
        // A second header for the same spec interleaved mid-file — two
        // artifacts of the same campaign concatenated.
        2 => {
            let mut out: Vec<&str> = lines.clone();
            out.insert(1 + cut % lines.len(), lines[0]);
            out.join("\n") + "\n"
        }
        // The file truncated at an arbitrary byte (possibly inside the
        // header, possibly mid-record).
        3 => pristine[..cut % (pristine.len() + 1)].to_string(),
        // A tail torn mid-escape-sequence: the line ends on the
        // backslash of a `\"` escape inside a string value.
        _ => format!("{pristine}{{\"type\":\"run\",\"job_id\":0,\"message\":\"torn \\"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn corrupted_artifacts_scan_and_resume_to_the_canonical_set(
        seed in any::<u64>(),
        cut in 0usize..4096,
        mode in 0u32..5,
    ) {
        let (pristine, canonical_lines) = baseline();
        let spec = corruption_spec();
        let dir = case_dir();
        let path = dir.join("corrupt.jsonl");
        fs::write(&path, corrupt(pristine, mode, seed, cut)).expect("write corrupted artifact");

        // Scanning the debris must never panic or reject the artifact.
        let scan = scan_artifact(&path, &spec, 0).expect("scan tolerates corruption");
        prop_assert!(scan.done.len() as u64 <= spec.job_count());

        // Resuming over it must converge to the uninterrupted record set.
        run_campaign(&spec, &opts(&dir)).expect("resume completes");
        let text = fs::read_to_string(&path).expect("artifact readable");
        prop_assert_eq!(
            &canonical(&text),
            canonical_lines,
            "mode {} seed {} cut {}",
            mode,
            seed,
            cut
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn tail_torn_inside_an_escape_is_repaired_on_resume() {
    let (pristine, canonical_lines) = baseline();
    let spec = corruption_spec();
    // Cut the artifact's last record in the middle of the `\"` escape of
    // a crafted message field appended to it.
    let crafted = format!("{pristine}{{\"type\":\"run\",\"job_id\":1,\"message\":\"say \\\"hi\\");
    let dir = case_dir();
    let path = dir.join("corrupt.jsonl");
    fs::write(&path, crafted).expect("write torn artifact");

    let scan = scan_artifact(&path, &spec, 0).expect("scan tolerates the torn escape");
    assert_eq!(
        scan.done.len() as u64,
        spec.job_count(),
        "complete records all count"
    );

    run_campaign(&spec, &opts(&dir)).expect("resume completes");
    let text = fs::read_to_string(&path).expect("artifact readable");
    assert!(!text.contains("say \\"), "the torn line was truncated away");
    assert_eq!(&canonical(&text), canonical_lines);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn final_record_without_its_newline_reruns_on_resume() {
    let (pristine, canonical_lines) = baseline();
    let spec = corruption_spec();
    // A writer killed between a record's last byte and its `\n` leaves a
    // complete JSON object that is not yet a durable line.
    let stripped = pristine
        .strip_suffix('\n')
        .expect("a finished artifact ends in a newline");
    let dir = case_dir();
    let path = dir.join("corrupt.jsonl");
    fs::write(&path, stripped).expect("write artifact without its last newline");

    let scan = scan_artifact(&path, &spec, 0).expect("scan tolerates the missing newline");
    assert_eq!(
        scan.done.len() as u64,
        spec.job_count() - 1,
        "the unterminated record does not count as done"
    );

    let report = run_campaign(&spec, &opts(&dir)).expect("resume completes");
    assert_eq!(report.executed, 1, "the unterminated record's job re-runs");
    assert_eq!(report.resumed as u64, spec.job_count() - 1);
    assert_eq!(
        report
            .cells
            .values()
            .map(|c| c.ok_runs() + c.panics + c.errors)
            .sum::<usize>() as u64,
        spec.job_count(),
        "the report folds every job"
    );
    let text = fs::read_to_string(&path).expect("artifact readable");
    assert_eq!(&canonical(&text), canonical_lines);
    let _ = fs::remove_dir_all(&dir);
}
