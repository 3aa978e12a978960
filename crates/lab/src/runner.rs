//! The campaign scheduler: sharded workers, retries, one writer.
//!
//! Workers pull jobs from a shared atomic cursor, execute them under
//! `catch_unwind` (with an optional per-job watchdog [`Budget`] and a
//! bounded, deterministically backed-off retry loop), and send finished
//! [`RunRecord`]s through a channel to a single writer thread that
//! appends to the artifact — so record writing is serialized and per-run
//! memory stays bounded no matter how many workers run. Everything that
//! knows the artifact's format lives in [`crate::artifact`].
//!
//! The report is a pure function of the artifact: after the grid drains,
//! one full scan folds every durable record. A campaign killed at any
//! point and resumed therefore produces the byte-identical canonical
//! report of an uninterrupted run — the property the failpoint
//! self-tests (`crates/lab/tests/crash_recovery.rs`) enforce.
//!
//! [`Budget`]: dispersion_engine::Budget

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, Once};
use std::time::{Duration, Instant};

use crate::artifact::{self, artifact_path, read_artifact, Entry};
use crate::failpoint::{FailAction, FailpointRegistry};
use crate::job::{self, RunJob, RunRecord};
use crate::report::CampaignReport;
use crate::spec::CampaignSpec;
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
    let (scan, mut file) = artifact::open_artifact(&path, spec, opts)?;

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
                        *injected.lock().expect("no poisoned locks") = Some(a.abort("job:start"));
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
            if let Err(e) = artifact::append_record(&mut file, &path, opts, &rec) {
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
    read_artifact(&path, |entry| {
        if let Entry::Run(rec) = entry {
            report.fold_with_retries(&rec, opts.retries);
        }
        Ok(())
    })?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
