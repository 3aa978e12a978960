//! The campaign executor: sharded workers, one writer, JSONL artifact.
//!
//! Workers pull jobs from a shared atomic cursor, execute them under
//! `catch_unwind` (with an optional per-job watchdog [`Budget`] and a
//! bounded, deterministically backed-off retry loop), and send finished
//! [`RunRecord`]s through a channel to a single writer thread that
//! appends to the artifact — so record writing is serialized and per-run
//! memory stays bounded no matter how many workers run.
//!
//! The report is a pure function of the artifact: after the grid drains,
//! one full scan folds every durable record. A campaign killed at any
//! point and resumed therefore produces the byte-identical canonical
//! report of an uninterrupted run — the property the failpoint
//! self-tests (`crates/lab/tests/crash_recovery.rs`) enforce.
//!
//! [`Budget`]: dispersion_engine::Budget

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, Once};
use std::time::{Duration, Instant};

use crate::failpoint::{FailAction, FailpointRegistry};
use crate::job::{self, RunJob, RunRecord};
use crate::json::{self, JsonObject};
use crate::report::CampaignReport;
use crate::spec::{CampaignSpec, Placement};
use crate::LabError;

/// When the writer forces appended records to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: a record acknowledged in the progress
    /// stream survives a power cut. The default — campaigns are
    /// CPU-bound, so the sync is noise.
    #[default]
    EveryRecord,
    /// Flush to the OS only; records can be lost to a power cut (not to
    /// a process kill). For huge disposable sweeps.
    Never,
}

/// How a campaign invocation should run.
#[derive(Clone, Debug)]
pub struct RunnerOptions {
    /// Worker threads (clamped to ≥ 1).
    pub jobs: usize,
    /// Embed per-round trace arrays in each record (large!).
    pub keep_traces: bool,
    /// Delete any existing artifact instead of resuming it.
    pub fresh: bool,
    /// Directory the `<campaign-name>.jsonl` artifact lives in.
    pub out_dir: PathBuf,
    /// Suppress the per-job progress lines on stderr.
    pub quiet: bool,
    /// Run every job under the conformance monitor (the full suite for
    /// Algorithm 4, the structural suite for baselines); breaches land
    /// in the artifact as `violation` records.
    pub check: bool,
    /// Per-job watchdog: a run still executing after this long is cut
    /// off with a `timeout` record. `None` disarms the watchdog.
    pub timeout: Option<Duration>,
    /// Seed-preserving reruns granted to a job after a retryable failure
    /// (panic, timeout). With `retries = r` a job executes at most
    /// `r + 1` times; if the last attempt still fails it is retired with
    /// a terminal `quarantined` record.
    pub retries: u64,
    /// Base of the deterministic capped exponential backoff between
    /// retry attempts: attempt `a ≥ 1` waits
    /// `min(backoff_ms · 2^(a−1), 5000)` ms.
    pub backoff_ms: u64,
    /// Durability of the artifact appender.
    pub fsync: FsyncPolicy,
    /// Fault-injection sites armed inside the runner itself (crash
    /// drills and the recovery self-tests); disarmed and free by
    /// default.
    pub failpoints: FailpointRegistry,
    /// Engine worker threads granted to *each* job's simulator.
    ///
    /// Thread budgeting: the runner's job-level parallelism multiplies
    /// with the engine's intra-run parallelism, so the effective value
    /// is clamped to keep `workers × engine_threads` within the
    /// machine's available cores (see [`effective_engine_threads`]).
    /// The determinism guarantee is unaffected — a run's records are
    /// byte-identical for any thread count.
    pub engine_threads: usize,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            jobs: 1,
            keep_traces: false,
            fresh: false,
            out_dir: PathBuf::from("results"),
            quiet: true,
            check: false,
            timeout: None,
            retries: 0,
            backoff_ms: 100,
            fsync: FsyncPolicy::EveryRecord,
            failpoints: FailpointRegistry::disarmed(),
            engine_threads: 1,
        }
    }
}

/// The engine thread count each of `workers` concurrent jobs actually
/// gets: `engine_threads` clamped so `workers × threads` does not
/// exceed the available cores (never below 1). Campaigns oversubscribed
/// on the job axis therefore degrade to sequential engines instead of
/// thrashing.
pub fn effective_engine_threads(engine_threads: usize, workers: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    engine_threads.max(1).min((cores / workers.max(1)).max(1))
}

/// The deterministic capped exponential backoff before retry `attempt`
/// (≥ 1): `min(base · 2^(attempt−1), 5000)` ms.
pub fn backoff_delay(base_ms: u64, attempt: u64) -> Duration {
    const CAP_MS: u64 = 5_000;
    let shifted = base_ms
        .checked_shl(attempt.saturating_sub(1).min(32) as u32)
        .unwrap_or(CAP_MS);
    Duration::from_millis(shifted.min(CAP_MS))
}

/// The artifact path a campaign writes to under these options.
pub fn artifact_path(spec: &CampaignSpec, opts: &RunnerOptions) -> PathBuf {
    opts.out_dir.join(format!("{}.jsonl", spec.name))
}

/// The header record: the spec's identity, plus the run knobs a replay
/// needs that the run records do not carry (see [`read_header_knobs`]).
fn header_line(spec: &CampaignSpec) -> String {
    let mut o = JsonObject::new();
    o.str_field("type", "campaign")
        .str_field("name", &spec.name)
        .str_field("spec_hash", &format!("{:016x}", spec.spec_hash()))
        .u64_field("jobs", spec.job_count())
        .str_field("placement", spec.placement.name())
        .u64_field("max_rounds", spec.max_rounds)
        // `Display` writes the shortest text that parses back to the same
        // `f64`, so the value round-trips exactly.
        .raw_field("edge_prob", &spec.edge_prob.to_string());
    o.finish()
}

/// If `line` is a campaign header, copies the run knobs it records
/// (placement, round cap, edge probability) onto `spec`, so that a
/// replay of the artifact's runs uses the knobs that produced them. Any
/// other line, and a knob the header lacks (as in headers written before
/// it was recorded), leaves `spec` as it is.
pub fn read_header_knobs(line: &str, spec: &mut CampaignSpec) {
    if json::str_value(line, "type").as_deref() != Some("campaign") {
        return;
    }
    if let Some(placement) =
        json::str_value(line, "placement").and_then(|name| Placement::parse(&name).ok())
    {
        spec.placement = placement;
    }
    if let Some(max_rounds) = json::u64_value(line, "max_rounds") {
        spec.max_rounds = max_rounds;
    }
    if let Some(edge_prob) = json::f64_value(line, "edge_prob") {
        spec.edge_prob = edge_prob;
    }
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> LabError + '_ {
    move |e| LabError::Io(path.display().to_string(), e)
}

/// What a resume scan learned from an existing artifact.
#[derive(Debug, Default)]
pub struct ArtifactScan {
    /// Jobs holding a terminal record — never re-run.
    pub done: HashSet<u64>,
    /// For jobs whose latest record is a retryable failure still inside
    /// the retry budget: the attempt number the next execution takes.
    pub next_attempt: HashMap<u64, u64>,
    /// Whether a header record for the expected spec was seen.
    pub saw_header: bool,
}

/// Scans an existing artifact: checks the header's spec hash, classifies
/// every complete run record as terminal (job done) or a retryable
/// attempt (job resumes at the following attempt number), and ignores
/// everything else — garbage lines, foreign documents, and the torn
/// trailing line of an interrupted writer all parse as nothing and the
/// affected job simply re-runs. Terminal-ness depends on the retry
/// budget the *resuming* invocation runs with: `retries` here is
/// [`RunnerOptions::retries`].
pub fn scan_artifact(
    path: &Path,
    spec: &CampaignSpec,
    retries: u64,
) -> Result<ArtifactScan, LabError> {
    let file = File::open(path).map_err(io_err(path))?;
    let mut scan = ArtifactScan::default();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(io_err(path))?;
        if !json::is_complete_object(&line) {
            continue;
        }
        match json::str_value(&line, "type").as_deref() {
            Some("campaign") => {
                let stored = json::str_value(&line, "spec_hash").unwrap_or_default();
                let expected = format!("{:016x}", spec.spec_hash());
                if stored != expected {
                    return Err(LabError::SpecMismatch {
                        artifact: path.display().to_string(),
                        stored,
                        expected,
                    });
                }
                scan.saw_header = true;
            }
            Some("run") => {
                if let Some(rec) = RunRecord::parse_line(&line) {
                    if scan.done.contains(&rec.job_id) {
                        continue; // a terminal verdict is final
                    }
                    if rec.status.is_terminal(rec.attempt, retries) {
                        scan.done.insert(rec.job_id);
                        scan.next_attempt.remove(&rec.job_id);
                    } else {
                        let next = scan.next_attempt.entry(rec.job_id).or_insert(0);
                        *next = (*next).max(rec.attempt + 1);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(scan)
}

/// Truncates a torn trailing line (interrupted mid-write) back to the
/// last newline, so every surviving byte is part of a complete line.
/// Returns the repaired length.
fn repair_torn_tail(path: &Path) -> Result<u64, LabError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(io_err(path))?;
    let mut keep: u64 = 0;
    let mut pos: u64 = 0;
    let mut buf = [0u8; 8192];
    loop {
        let n = file.read(&mut buf).map_err(io_err(path))?;
        if n == 0 {
            break;
        }
        for (i, b) in buf[..n].iter().enumerate() {
            if *b == b'\n' {
                keep = pos + i as u64 + 1;
            }
        }
        pos += n as u64;
    }
    if keep < pos {
        file.set_len(keep).map_err(io_err(path))?;
        file.sync_data().map_err(io_err(path))?;
    }
    Ok(keep)
}

/// Fsyncs a directory so a freshly created (or renamed-in) entry
/// survives a crash. Directory fsync is a Unix-ism; on platforms where
/// opening a directory fails, there is nothing to sync.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Whether the artifact's first line is a campaign header.
fn has_header(path: &Path) -> Result<bool, LabError> {
    let file = File::open(path).map_err(io_err(path))?;
    let mut first = String::new();
    BufReader::new(file)
        .read_line(&mut first)
        .map_err(io_err(path))?;
    let first = first.trim_end();
    Ok(json::is_complete_object(first)
        && json::str_value(first, "type").as_deref() == Some("campaign"))
}

/// Atomically rewrites the artifact as `header + surviving content`:
/// temp file, rename over, directory fsync. Used when an existing
/// artifact lost its header (e.g. truncated away with a torn first
/// line); records are preserved verbatim.
fn rewrite_with_header(path: &Path, spec: &CampaignSpec) -> Result<(), LabError> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut out = File::create(&tmp).map_err(io_err(&tmp))?;
        writeln!(out, "{}", header_line(spec)).map_err(io_err(&tmp))?;
        let mut body = File::open(path).map_err(io_err(path))?;
        std::io::copy(&mut body, &mut out).map_err(io_err(path))?;
        out.sync_data().map_err(io_err(&tmp))?;
    }
    fs::rename(&tmp, path).map_err(io_err(path))?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}

/// Opens the artifact for appending, creating it (with a header record,
/// fsynced along with its directory) when absent. An existing artifact
/// is repaired first: a torn trailing line is truncated away, and a
/// missing header (torn away with the file's only line) is restored by
/// an atomic rewrite — so an artifact interrupted at *any* byte resumes
/// cleanly.
fn open_artifact(path: &Path, spec: &CampaignSpec) -> Result<File, LabError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir).map_err(io_err(dir))?;
        }
    }
    let fresh = !path.exists();
    if !fresh {
        let len = repair_torn_tail(path)?;
        if len == 0 || !has_header(path)? {
            rewrite_with_header(path, spec)?;
        }
    }
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io_err(path))?;
    if fresh {
        writeln!(file, "{}", header_line(spec)).map_err(io_err(path))?;
        file.sync_data().map_err(io_err(path))?;
        if let Some(dir) = path.parent() {
            sync_dir(if dir.as_os_str().is_empty() {
                Path::new(".")
            } else {
                dir
            });
        }
    }
    Ok(file)
}

thread_local! {
    /// True while this thread is executing a job under `catch_unwind`,
    /// telling the process-wide panic hook to capture instead of print.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    /// The `file:line` of the most recent captured panic on this thread.
    static PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs (once per process) a panic hook that, for panics unwinding
/// out of a worker's job, records the panic location and suppresses the
/// default stderr report; panics anywhere else flow to the previous
/// hook untouched.
fn install_panic_capture() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CAPTURING.with(Cell::get) {
                let loc = info
                    .location()
                    .map(|l| format!("{}:{}", l.file(), l.line()));
                PANIC_LOCATION.with(|slot| *slot.borrow_mut() = loc);
            } else {
                prev(info);
            }
        }));
    });
}

/// Runs one job attempt under panic isolation. A panic becomes a
/// `panic` record whose message carries the payload *and* the
/// `file:line` captured by the hook, so a quarantined job is debuggable
/// from the artifact alone.
fn execute_caught(
    job: &RunJob,
    spec: &CampaignSpec,
    opts: &RunnerOptions,
    engine_threads: usize,
    deadline: Option<Instant>,
    failpoint: Option<FailAction>,
) -> RunRecord {
    install_panic_capture();
    CAPTURING.with(|c| c.set(true));
    PANIC_LOCATION.with(|slot| slot.borrow_mut().take());
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        match failpoint {
            Some(FailAction::Panic) => panic!("failpoint `job:start` injected panic"),
            // The deadline was fixed *before* this sleep, so a hang long
            // enough to pass it lands a genuine watchdog timeout.
            Some(FailAction::Hang { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
        job::execute(
            job,
            spec,
            opts.keep_traces,
            opts.check,
            deadline,
            engine_threads,
        )
    }));
    CAPTURING.with(|c| c.set(false));
    result.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".into());
        let msg = match PANIC_LOCATION.with(|slot| slot.borrow_mut().take()) {
            Some(loc) => format!("{msg} (at {loc})"),
            None => msg,
        };
        job::panic_record(job, spec, msg)
    })
}

fn failpoint_error(site: &str, action: FailAction) -> LabError {
    LabError::Failpoint {
        site: site.to_string(),
        action: action.name(),
    }
}

/// Appends one record under the configured durability policy, honoring
/// any `writer:append` failpoint. An injected crash/torn-write returns
/// the error that aborts the campaign — simulating the process dying at
/// exactly this byte.
fn append_record(
    file: &mut File,
    path: &Path,
    opts: &RunnerOptions,
    rec: &RunRecord,
) -> Result<(), LabError> {
    let line = rec.to_json_line();
    match opts.failpoints.fire("writer:append") {
        Some(FailAction::TornWrite { keep }) => {
            let bytes = line.as_bytes();
            file.write_all(&bytes[..keep.min(bytes.len())])
                .and_then(|()| file.sync_data())
                .map_err(io_err(path))?;
            return Err(failpoint_error(
                "writer:append",
                FailAction::TornWrite { keep },
            ));
        }
        Some(a @ (FailAction::Crash | FailAction::Panic)) => {
            return Err(failpoint_error("writer:append", a));
        }
        Some(FailAction::Hang { ms }) => std::thread::sleep(Duration::from_millis(ms)),
        None => {}
    }
    writeln!(file, "{line}").map_err(io_err(path))?;
    match opts.fsync {
        FsyncPolicy::EveryRecord => file.sync_data().map_err(io_err(path))?,
        FsyncPolicy::Never => file.flush().map_err(io_err(path))?,
    }
    Ok(())
}

/// Runs (or resumes) a campaign and returns the report folded from a
/// full scan of the finished artifact.
///
/// Determinism: every job's RNG seed is derived from
/// `(spec.campaign_seed, job_id)` before any worker starts — and reruns
/// preserve it — so the set of canonical records in the artifact is
/// identical for any `opts.jobs` and across kill/resume cycles; only
/// record *order* and wall-times vary.
///
/// Fault tolerance: a panicking job yields a `panic` record, a job
/// exceeding `opts.timeout` a `timeout` record; both are retried up to
/// `opts.retries` times with capped exponential backoff and finally
/// retired with a `quarantined` record — the campaign always drains.
pub fn run_campaign(spec: &CampaignSpec, opts: &RunnerOptions) -> Result<CampaignReport, LabError> {
    spec.validate()?;
    let path = artifact_path(spec, opts);
    if opts.fresh && path.exists() {
        fs::remove_file(&path).map_err(io_err(&path))?;
    }

    let scan = if path.exists() {
        scan_artifact(&path, spec, opts.retries)?
    } else {
        ArtifactScan::default()
    };
    let mut file = open_artifact(&path, spec)?;

    // (job, attempt to start from) — jobs with a terminal record are
    // resumed over; jobs mid-retry continue at their next attempt.
    let pending: Vec<(RunJob, u64)> = spec
        .jobs()
        .into_iter()
        .filter(|j| !scan.done.contains(&j.job_id))
        .map(|j| {
            let start = scan.next_attempt.get(&j.job_id).copied().unwrap_or(0);
            (j, start)
        })
        .collect();
    let resumed = scan.done.len();
    let executed = pending.len();

    let workers = opts.jobs.max(1).min(pending.len().max(1));
    let engine_threads = effective_engine_threads(opts.engine_threads, workers);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let injected: Mutex<Option<LabError>> = Mutex::new(None);
    let (tx, rx) = mpsc::channel::<RunRecord>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (cursor, pending, abort, injected) = (&cursor, &pending, &abort, &injected);
            scope.spawn(move || 'jobs: loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((job, start_attempt)) = pending.get(next) else {
                    break;
                };
                let mut attempt = *start_attempt;
                loop {
                    if attempt > *start_attempt {
                        std::thread::sleep(backoff_delay(opts.backoff_ms, attempt));
                    }
                    if abort.load(Ordering::Relaxed) {
                        break 'jobs;
                    }
                    // The watchdog clock starts before any failpoint so
                    // an injected hang burns real budget.
                    let deadline = opts.timeout.map(|t| Instant::now() + t);
                    let action = opts.failpoints.fire("job:start");
                    if let Some(a @ FailAction::Crash) = action {
                        *injected.lock().expect("no poisoned locks") =
                            Some(failpoint_error("job:start", a));
                        abort.store(true, Ordering::Relaxed);
                        break 'jobs;
                    }
                    let mut rec = execute_caught(job, spec, opts, engine_threads, deadline, action);
                    rec.attempt = attempt;
                    let terminal = rec.status.is_terminal(attempt, opts.retries);
                    // A job whose *granted* retries are all spent is
                    // retired; with no retries granted the plain
                    // panic/timeout record is itself the verdict.
                    if terminal && rec.status.is_retryable() && opts.retries > 0 {
                        rec = job::quarantine_record(&rec);
                    }
                    if tx.send(rec).is_err() {
                        break 'jobs; // writer gone; nothing useful left
                    }
                    if terminal {
                        break;
                    }
                    attempt += 1;
                }
            });
        }
        drop(tx); // writer loop below ends once all workers hang up

        let total = pending.len();
        for (i, rec) in rx.iter().enumerate() {
            if let Err(e) = append_record(&mut file, &path, opts, &rec) {
                *injected.lock().expect("no poisoned locks") = Some(e);
                abort.store(true, Ordering::Relaxed);
                break;
            }
            if !opts.quiet {
                eprintln!(
                    "[{}/{}] job {} attempt {} {} ({} k={} n={}) {}",
                    i + 1,
                    total,
                    rec.job_id,
                    rec.attempt,
                    rec.status.name(),
                    rec.algorithm,
                    rec.k,
                    rec.n,
                    rec.adversary,
                );
            }
        }
    });

    if let Some(e) = injected.into_inner().expect("no poisoned locks") {
        return Err(e);
    }

    // The report is a pure function of (artifact, retry budget): fold
    // every durable record in one scan, so a resumed campaign reports
    // exactly what an uninterrupted one would.
    let mut report = CampaignReport {
        executed,
        resumed,
        ..CampaignReport::default()
    };
    let folded = File::open(&path).map_err(io_err(&path))?;
    for line in BufReader::new(folded).lines() {
        let line = line.map_err(io_err(&path))?;
        if let Some(rec) = RunRecord::parse_line(&line) {
            report.fold_with_retries(&rec, opts.retries);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_hash() {
        let spec = CampaignSpec::default();
        let line = header_line(&spec);
        assert_eq!(
            json::str_value(&line, "spec_hash"),
            Some(format!("{:016x}", spec.spec_hash()))
        );
        assert_eq!(json::u64_value(&line, "jobs"), Some(spec.job_count()));
    }

    #[test]
    fn header_round_trips_replay_knobs() {
        let spec = CampaignSpec {
            placement: Placement::Rooted,
            max_rounds: 3,
            edge_prob: 0.123_456_789,
            ..CampaignSpec::default()
        };
        let mut read = CampaignSpec::default();
        read_header_knobs(&header_line(&spec), &mut read);
        assert_eq!(read.placement, Placement::Rooted);
        assert_eq!(read.max_rounds, 3);
        assert_eq!(
            read.edge_prob.to_bits(),
            spec.edge_prob.to_bits(),
            "exact, not rounded"
        );
        // A run record is not a header, whatever fields it carries.
        let mut read = CampaignSpec::default();
        read_header_knobs(&header_line(&spec).replace("campaign", "run"), &mut read);
        assert_eq!(read.max_rounds, CampaignSpec::default().max_rounds);
        // An older header without the knobs leaves the defaults in place.
        let old = r#"{"type":"campaign","name":"c","spec_hash":"0000000000000001","jobs":3}"#;
        let mut read = CampaignSpec::default();
        read_header_knobs(old, &mut read);
        assert_eq!(read.placement, CampaignSpec::default().placement);
        assert_eq!(read.max_rounds, CampaignSpec::default().max_rounds);
        assert_eq!(read.edge_prob, CampaignSpec::default().edge_prob);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        assert_eq!(backoff_delay(100, 1), Duration::from_millis(100));
        assert_eq!(backoff_delay(100, 2), Duration::from_millis(200));
        assert_eq!(backoff_delay(100, 3), Duration::from_millis(400));
        assert_eq!(
            backoff_delay(100, 9),
            Duration::from_millis(5_000),
            "capped"
        );
        assert_eq!(backoff_delay(100, u64::MAX), Duration::from_millis(5_000));
        assert_eq!(backoff_delay(0, 5), Duration::ZERO);
    }

    #[test]
    fn torn_tail_is_truncated_to_line_boundary() {
        let dir = std::env::temp_dir().join("dispersion-torn-tail-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.jsonl");
        fs::write(
            &path,
            b"{\"type\":\"campaign\"}\n{\"type\":\"run\",\"job_id\":9,\"tru",
        )
        .unwrap();
        assert_eq!(repair_torn_tail(&path).unwrap(), 20);
        assert_eq!(fs::read(&path).unwrap(), b"{\"type\":\"campaign\"}\n");
        // Idempotent on a clean file.
        assert_eq!(repair_torn_tail(&path).unwrap(), 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_artifact_is_rewritten_atomically() {
        let dir = std::env::temp_dir().join("dispersion-header-rewrite-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let spec = CampaignSpec::default();
        let path = dir.join(format!("{}.jsonl", spec.name));
        // An artifact whose header was torn away, leaving only records.
        let record = "{\"type\":\"run\",\"job_id\":0}\n";
        fs::write(&path, record).unwrap();
        drop(open_artifact(&path, &spec).unwrap());
        let text = fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(header_line(&spec).as_str()));
        assert_eq!(lines.next(), Some(record.trim_end()));
        assert!(!path.with_extension("jsonl.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
