//! The campaign workload: `run_campaign` over a checked grid of many small
//! jobs, with a fresh artifact directory per campaign.

use std::collections::BTreeSet;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dispersion_lab::{
    run_campaign, AdversaryKind, AlgorithmKind, CampaignSpec, FsyncPolicy, RunRecord, RunStatus,
    RunnerOptions,
};

/// Runner workers: the host's two cores.
pub const JOBS: usize = 2;

/// The grid of one campaign. `local-dfs` is left out: it never disperses
/// on dynamic networks and would spend every job at the round cap.
pub fn spec(ks: &[usize], seeds: u64, campaign_seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "bench".into(),
        algorithms: vec![AlgorithmKind::Alg4, AlgorithmKind::RandomWalk],
        adversaries: vec![
            AdversaryKind::Churn,
            AdversaryKind::StarPair,
            AdversaryKind::BrokenRing,
            AdversaryKind::TInterval,
            AdversaryKind::Static,
        ],
        ks: ks.to_vec(),
        seeds,
        campaign_seed,
        ..CampaignSpec::default()
    }
}

/// Set-up of one campaign, in nanoseconds: spec construction and
/// expansion, then creation of its fresh artifact directory.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub spec_ns: u64,
    pub dir_ns: u64,
}

/// Builds and expands the spec and creates `dir`.
pub fn setup(
    ks: &[usize],
    seeds: u64,
    campaign_seed: u64,
    dir: &Path,
) -> Result<(CampaignSpec, SetupTimes), String> {
    let t0 = Instant::now();
    let spec = spec(ks, seeds, campaign_seed);
    spec.validate()?;
    black_box(spec.jobs());
    let t1 = Instant::now();
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t2 = Instant::now();
    Ok((
        spec,
        SetupTimes {
            spec_ns: (t1 - t0).as_nanos() as u64,
            dir_ns: (t2 - t1).as_nanos() as u64,
        },
    ))
}

/// What one `run_campaign` call produced, read back from its artifact.
#[derive(Clone, Debug, Default)]
pub struct CampaignRun {
    pub jobs: u64,
    pub records: u64,
    /// Distinct jobs with an `ok`, dispersed record.
    pub ok_jobs: u64,
    pub violations: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub workers: u64,
    pub artifact_bytes: u64,
    /// `run_campaign` wall time.
    pub wall_ns: u64,
    /// Σ record `wall_time_us`.
    pub job_busy_us: u64,
    /// Σ k × rounds over the records (no job crashes a robot).
    pub robot_steps: u64,
    /// `wall_time_us` of every record.
    pub job_walls_us: Vec<u64>,
    /// Sorted records with wall time zeroed: what two passes must share.
    pub canonical: Vec<String>,
}

impl CampaignRun {
    /// Every job has an `ok`, dispersed record, and the runner reports no
    /// violation, retry or timeout.
    pub fn failed_jobs(&self) -> u64 {
        if self.records != self.jobs || self.violations + self.retries + self.timeouts > 0 {
            return self.jobs;
        }
        self.jobs - self.ok_jobs
    }
}

/// Runs `spec` into the (fresh) directory `dir` and reads the artifact.
pub fn run(spec: &CampaignSpec, dir: &Path, check: bool) -> Result<CampaignRun, String> {
    let opts = RunnerOptions {
        jobs: JOBS,
        fresh: true,
        out_dir: dir.to_path_buf(),
        quiet: true,
        check,
        fsync: FsyncPolicy::EveryRecord,
        ..RunnerOptions::default()
    };
    let start = Instant::now();
    let report = run_campaign(spec, &opts).map_err(|e| e.to_string())?;
    let wall_ns = start.elapsed().as_nanos() as u64;

    let path = dispersion_lab::artifact_path(spec, &opts);
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = CampaignRun {
        jobs: spec.job_count(),
        violations: report.total_violations() as u64,
        retries: report.total_retries() as u64,
        timeouts: report.total_timeouts() as u64,
        workers: JOBS.min(spec.job_count() as usize) as u64,
        artifact_bytes: text.len() as u64,
        wall_ns,
        ..CampaignRun::default()
    };
    let mut ok = BTreeSet::new();
    for rec in text.lines().filter_map(RunRecord::parse_line) {
        out.records += 1;
        out.job_busy_us += rec.wall_time_us;
        out.job_walls_us.push(rec.wall_time_us);
        out.robot_steps += rec.k as u64 * rec.rounds;
        if rec.status == RunStatus::Ok && rec.dispersed {
            ok.insert(rec.job_id);
        }
        out.canonical.push(rec.canonical_line());
    }
    out.ok_jobs = ok.len() as u64;
    out.canonical.sort();
    Ok(out)
}

/// A fresh artifact directory under `root`, unique within this process.
pub fn fresh_dir(root: &Path, seed: u64, index: u64) -> PathBuf {
    root.join(format!("campaign-{}-{seed}-{index}", std::process::id()))
}

/// Removes a campaign directory; a leftover is only disk space.
pub fn remove_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}
