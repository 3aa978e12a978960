//! # dispersion-lab
//!
//! A declarative, parallel, resumable experiment-campaign runner for the
//! dispersion simulator.
//!
//! A [`CampaignSpec`] describes a cartesian grid over (algorithm,
//! adversary, robot count `k`, fault count `f`, seed index). The runner
//! expands it into independent [`RunJob`]s, shards them across a scoped
//! worker pool, executes each through `dispersion-engine`, and streams
//! one JSON-lines record per run into a `results/<name>.jsonl` artifact.
//!
//! Design invariants:
//!
//! * **Determinism under parallelism** — each job's RNG seed is
//!   [`derive_seed`]`(campaign_seed, job_id)`, fixed before any worker
//!   starts, so the artifact's record *set* is identical at `--jobs 1`
//!   and `--jobs N` (only record order and wall-times differ).
//! * **Resumability** — on start the runner scans the artifact's
//!   durable lines (complete records ended by `\n`, see [`artifact`])
//!   and only runs the missing `job_id`s; a torn trailing line from an
//!   interrupted writer is cut away and its job re-run.
//! * **Bounded memory** — workers send scalar records over a channel to
//!   one writer thread; full execution traces are never retained unless
//!   explicitly requested per record.
//! * **Panic isolation** — each job runs under `catch_unwind`; a
//!   panicking run becomes a `"status":"panic"` record (carrying the
//!   panic's `file:line`) and the campaign continues.
//! * **Fault tolerance** — a per-job watchdog budget turns divergent
//!   runs into `"timeout"` records; panics and timeouts are retried
//!   (seed-preserving, deterministic capped backoff) up to a budget and
//!   then quarantined, so campaigns always drain. The report is a pure
//!   function of the artifact, so a campaign killed at any byte and
//!   resumed reports exactly what an uninterrupted run would — a
//!   property fuzzed by the [`failpoint`] self-tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod failpoint;
pub mod job;
pub mod json;
pub mod report;
pub mod runner;
pub mod spec;
pub mod status;

pub use artifact::{
    artifact_path, read_artifact, scan_artifact, ArtifactScan, Entry, Header, Tail,
};
pub use failpoint::{FailAction, FailpointRegistry, FAILPOINTS_ENV};
pub use job::{RunJob, RunRecord, RunStatus};
pub use report::{CampaignReport, CellKey, CellStats, Table};
pub use runner::{backoff_delay, run_campaign, FsyncPolicy, RunnerOptions};
pub use spec::{derive_seed, AdversaryKind, AlgorithmKind, CampaignSpec, NRule, Placement};
pub use status::{read_status, ArtifactStatus};

/// Everything that can go wrong running a campaign.
#[derive(Debug)]
pub enum LabError {
    /// The spec itself is not runnable.
    Spec(String),
    /// An artifact or directory could not be read/written.
    Io(String, std::io::Error),
    /// The artifact on disk was produced by a different spec.
    SpecMismatch {
        /// Artifact path.
        artifact: String,
        /// Hash recorded in the artifact header.
        stored: String,
        /// Hash of the spec being run.
        expected: String,
    },
    /// An armed [`FailpointRegistry`] site injected a campaign-killing
    /// fault (crash drills and the recovery self-tests).
    Failpoint {
        /// The site that fired.
        site: String,
        /// The injected [`FailAction`]'s name.
        action: &'static str,
    },
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Spec(msg) => write!(f, "invalid campaign spec: {msg}"),
            LabError::Io(path, e) => write!(f, "{path}: {e}"),
            LabError::SpecMismatch {
                artifact,
                stored,
                expected,
            } => write!(
                f,
                "{artifact} was produced by a different spec \
                 (artifact {stored}, current {expected}); \
                 rename the campaign or pass --fresh"
            ),
            LabError::Failpoint { site, action } => write!(
                f,
                "failpoint `{site}` injected {action}; campaign aborted \
                 (rerun to resume from the artifact)"
            ),
        }
    }
}

impl std::error::Error for LabError {}

impl From<String> for LabError {
    fn from(msg: String) -> Self {
        LabError::Spec(msg)
    }
}

impl From<LabError> for dispersion_core::DispersionError {
    fn from(e: LabError) -> Self {
        dispersion_core::DispersionError::Other(Box::new(e))
    }
}
