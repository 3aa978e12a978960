//! One grid cell instance: its parameters, its execution, and the JSONL
//! record it produces.

use std::time::Instant;

use dispersion_core::baselines::{BlindGlobal, GreedyLocal, LocalDfs, RandomWalk};
use dispersion_core::{impossibility, DispersionDynamic};
use dispersion_engine::adversary::{
    CliqueTrapAdversary, DynamicNetwork, DynamicRingNetwork, EdgeChurnNetwork, MinProgressSampler,
    PathTrapAdversary, StarPairAdversary, StaticNetwork, TIntervalNetwork,
};
use dispersion_engine::{
    Budget, CheckPolicy, Configuration, CrashPhase, DispersionAlgorithm, FaultPlan, MoveOracle,
    SimError, SimOutcome, Simulator, SimulatorBuilder,
};
use dispersion_graph::{generators, NodeId, PortLabeledGraph};

use crate::json::{self, JsonObject};
use crate::spec::{AdversaryKind, AlgorithmKind, CampaignSpec, Placement};

/// One independent unit of work: a single simulator run with fully
/// pinned parameters. Everything a worker needs is in the job plus the
/// (shared, read-only) spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunJob {
    /// Stable index in the campaign grid (resume key, sort key).
    pub job_id: u64,
    /// Algorithm under test.
    pub algorithm: AlgorithmKind,
    /// Adversary it runs against.
    pub adversary: AdversaryKind,
    /// Nodes.
    pub n: usize,
    /// Robots.
    pub k: usize,
    /// Crash-fault count `f`.
    pub faults: usize,
    /// Seed index within the cell (`0..spec.seeds`).
    pub seed_index: u64,
    /// RNG seed derived from `(campaign_seed, job_id)`.
    pub derived_seed: u64,
}

/// Status of one job attempt.
///
/// `Ok`, `Error`, `Violation`, and `Quarantined` are always terminal.
/// `Panic` and `Timeout` are terminal only once the retry budget is
/// spent — see [`RunStatus::is_terminal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The simulator ran to termination (dispersed or round cap).
    Ok,
    /// The job panicked; the campaign continued without it.
    Panic,
    /// The simulator rejected the run (e.g. an invalid adversary graph).
    Error,
    /// The conformance monitor flagged an invariant violation
    /// (campaigns run with the `check` option only).
    Violation,
    /// The per-job watchdog budget expired before the run terminated.
    Timeout,
    /// Every retry failed; the job was retired so the campaign could
    /// drain. The message records the last failure.
    Quarantined,
}

/// All record statuses, for exhaustive round-trip tests.
pub const ALL_STATUSES: [RunStatus; 6] = [
    RunStatus::Ok,
    RunStatus::Panic,
    RunStatus::Error,
    RunStatus::Violation,
    RunStatus::Timeout,
    RunStatus::Quarantined,
];

impl RunStatus {
    /// Stable record name.
    pub fn name(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Panic => "panic",
            RunStatus::Error => "error",
            RunStatus::Violation => "violation",
            RunStatus::Timeout => "timeout",
            RunStatus::Quarantined => "quarantined",
        }
    }

    /// Parses a record name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(RunStatus::Ok),
            "panic" => Some(RunStatus::Panic),
            "error" => Some(RunStatus::Error),
            "violation" => Some(RunStatus::Violation),
            "timeout" => Some(RunStatus::Timeout),
            "quarantined" => Some(RunStatus::Quarantined),
            _ => None,
        }
    }

    /// Whether this status is retryable: a transient failure (`panic`,
    /// `timeout`) that a seed-preserving rerun might clear. Everything
    /// else is a final verdict about the parameters themselves.
    pub fn is_retryable(self) -> bool {
        matches!(self, RunStatus::Panic | RunStatus::Timeout)
    }

    /// Whether a record with this status at `attempt` is terminal under
    /// a retry budget of `retries` — i.e. its job never runs again.
    pub fn is_terminal(self, attempt: u64, retries: u64) -> bool {
        !self.is_retryable() || attempt >= retries
    }
}

/// The outcome record of one job — exactly one JSONL line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Grid index of the job.
    pub job_id: u64,
    /// Hash of the producing spec.
    pub spec_hash: u64,
    /// Algorithm name.
    pub algorithm: String,
    /// Adversary name.
    pub adversary: String,
    /// Nodes.
    pub n: usize,
    /// Robots.
    pub k: usize,
    /// Crash-fault count.
    pub faults: usize,
    /// Seed index within the cell.
    pub seed_index: u64,
    /// Derived RNG seed the job ran with.
    pub seed: u64,
    /// Which execution attempt produced this record (0 = first). Retried
    /// jobs leave one record per attempt in the artifact.
    pub attempt: u64,
    /// Status of this attempt.
    pub status: RunStatus,
    /// Whether the live robots dispersed (false for panic/error).
    pub dispersed: bool,
    /// Rounds executed.
    pub rounds: u64,
    /// Total robot moves.
    pub moves: u64,
    /// Maximum persistent bits any robot carried.
    pub max_memory_bits: usize,
    /// Robots crashed by the fault plan.
    pub crashes: usize,
    /// Wall-clock execution time (µs). Excluded from determinism
    /// comparisons — see [`RunRecord::canonical_line`].
    pub wall_time_us: u64,
    /// Panic / error message, if any.
    pub message: Option<String>,
    /// Pre-rendered per-round trace array (only with `--keep-traces`).
    pub trace_json: Option<String>,
}

impl RunRecord {
    /// Renders the one-line JSON form.
    pub fn to_json_line(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "run")
            .u64_field("job_id", self.job_id)
            .str_field("spec_hash", &format!("{:016x}", self.spec_hash))
            .str_field("algorithm", &self.algorithm)
            .str_field("adversary", &self.adversary)
            .u64_field("n", self.n as u64)
            .u64_field("k", self.k as u64)
            .u64_field("faults", self.faults as u64)
            .u64_field("seed_index", self.seed_index)
            .u64_field("seed", self.seed)
            .u64_field("attempt", self.attempt)
            .str_field("status", self.status.name())
            .bool_field("dispersed", self.dispersed)
            .u64_field("rounds", self.rounds)
            .u64_field("moves", self.moves)
            .u64_field("max_memory_bits", self.max_memory_bits as u64)
            .u64_field("crashes", self.crashes as u64)
            .u64_field("wall_time_us", self.wall_time_us);
        if let Some(m) = &self.message {
            o.str_field("message", m);
        }
        if let Some(t) = &self.trace_json {
            o.raw_field("trace", t);
        }
        o.finish()
    }

    /// The record with the wall-time field normalized to 0 — the form
    /// compared by determinism tests (`--jobs 1` vs `--jobs N`).
    pub fn canonical_line(&self) -> String {
        RunRecord {
            wall_time_us: 0,
            ..self.clone()
        }
        .to_json_line()
    }

    /// Parses a line previously produced by [`RunRecord::to_json_line`].
    /// Returns `None` for non-run records, truncated lines, or foreign
    /// documents.
    pub fn parse_line(line: &str) -> Option<Self> {
        if !json::is_complete_object(line) || json::str_value(line, "type")? != "run" {
            return None;
        }
        Some(RunRecord {
            job_id: json::value(line, "job_id")?,
            spec_hash: u64::from_str_radix(&json::str_value(line, "spec_hash")?, 16).ok()?,
            algorithm: json::str_value(line, "algorithm")?,
            adversary: json::str_value(line, "adversary")?,
            n: json::value(line, "n")?,
            k: json::value(line, "k")?,
            faults: json::value(line, "faults")?,
            seed_index: json::value(line, "seed_index")?,
            seed: json::value(line, "seed")?,
            // Absent in pre-retry artifacts, which only ever held one
            // attempt per job.
            attempt: json::value(line, "attempt").unwrap_or(0),
            status: RunStatus::parse(&json::str_value(line, "status")?)?,
            dispersed: json::value(line, "dispersed")?,
            rounds: json::value(line, "rounds")?,
            moves: json::value(line, "moves")?,
            max_memory_bits: json::value(line, "max_memory_bits")?,
            crashes: json::value(line, "crashes")?,
            wall_time_us: json::value(line, "wall_time_us")?,
            message: json::str_value(line, "message"),
            trace_json: None,
        })
    }
}

/// A dynamic network that panics on its first round — the campaign
/// runner's own panic-isolation probe.
struct PanicProbe {
    n: usize,
}

impl DynamicNetwork for PanicProbe {
    fn node_count(&self) -> usize {
        self.n
    }

    fn graph_for_round(
        &mut self,
        round: u64,
        _config: &Configuration,
        _oracle: &dyn MoveOracle,
    ) -> &PortLabeledGraph {
        panic!("panic-probe adversary fired at round {round} (by design)");
    }

    fn name(&self) -> &str {
        "panic-probe"
    }
}

/// The job's dynamic network, drawn from its adversary kind, the spec's
/// edge probability and the job's seed.
pub fn network(job: &RunJob, spec: &CampaignSpec) -> Box<dyn DynamicNetwork> {
    let (n, p, seed) = (job.n, spec.edge_prob, job.derived_seed);
    match job.adversary {
        AdversaryKind::Churn => Box::new(EdgeChurnNetwork::new(n, p, seed)),
        AdversaryKind::Static => Box::new(StaticNetwork::new(
            generators::random_connected(n, p, seed).expect("validated n ≥ 1"),
        )),
        AdversaryKind::StaticStar => Box::new(StaticNetwork::new(
            generators::star(n).expect("validated n ≥ 1"),
        )),
        AdversaryKind::StaticCycle => Box::new(StaticNetwork::new(
            generators::cycle(n.max(3)).expect("n ≥ 3"),
        )),
        AdversaryKind::Ring => Box::new(DynamicRingNetwork::new(n.max(3), false, seed)),
        AdversaryKind::BrokenRing => Box::new(DynamicRingNetwork::new(n.max(3), true, seed)),
        AdversaryKind::StarPair => Box::new(StarPairAdversary::new(n)),
        AdversaryKind::TInterval => Box::new(TIntervalNetwork::new(n, 4, p, seed)),
        AdversaryKind::MinProgress => Box::new(MinProgressSampler::new(n, 8, p, seed)),
        AdversaryKind::PathTrap => Box::new(PathTrapAdversary::new(n)),
        AdversaryKind::CliqueTrap => Box::new(CliqueTrapAdversary::new(n)),
        AdversaryKind::PanicProbe => Box::new(PanicProbe { n }),
    }
}

/// The job's initial configuration under the spec's placement.
pub fn initial_config(job: &RunJob, spec: &CampaignSpec) -> Configuration {
    match spec.placement {
        Placement::Rooted => Configuration::rooted(job.n, job.k, NodeId::new(0)),
        Placement::Scattered => Configuration::random(job.n, job.k, job.derived_seed, true),
        Placement::NearDispersed => impossibility::near_dispersed_config(job.n, job.k),
    }
}

/// The monitor policy a checked campaign run arms: the theorem-bound
/// invariants (round bound, move monotonicity, memory bound) only hold
/// for Algorithm 4, so baselines get the structural suite — model
/// invariants true for *any* algorithm.
fn check_policy(algorithm: AlgorithmKind, check: bool) -> CheckPolicy {
    match (check, algorithm) {
        (false, _) => CheckPolicy::Off,
        (true, AlgorithmKind::Alg4) => CheckPolicy::Full,
        (true, _) => CheckPolicy::Structural,
    }
}

/// Assembles one run of `alg` (the implementation of `job.algorithm`):
/// the job's [`network`], the algorithm's communication model, the
/// [`initial_config`] under the spec's placement, the spec's round cap,
/// the job's crash-fault plan (`job.faults` robots, within the first
/// `k/2` rounds) and the job's seed as the check seed. Callers arm the
/// monitor policy, engine threads and budget they need.
pub fn builder<A: DispersionAlgorithm>(
    alg: A,
    job: &RunJob,
    spec: &CampaignSpec,
) -> SimulatorBuilder<A, Box<dyn DynamicNetwork>> {
    let plan = if job.faults > 0 {
        FaultPlan::random(
            job.k,
            job.faults,
            (job.k as u64 / 2).max(1),
            CrashPhase::BeforeCommunicate,
            job.derived_seed,
        )
    } else {
        FaultPlan::none()
    };
    Simulator::builder(
        alg,
        network(job, spec),
        job.algorithm.model(),
        initial_config(job, spec),
    )
    .max_rounds(spec.max_rounds)
    .faults(plan)
    .check_seed(job.derived_seed)
}

fn run_with<A>(
    alg: A,
    job: &RunJob,
    spec: &CampaignSpec,
    check: bool,
    deadline: Option<Instant>,
    threads: usize,
) -> Result<SimOutcome, SimError>
where
    A: DispersionAlgorithm + Clone + Send + 'static,
    A::Memory: Send + Sync,
{
    builder(alg, job, spec)
        .check(check_policy(job.algorithm, check))
        .threads(threads)
        .budget(match deadline {
            Some(d) => Budget::none().with_deadline(d),
            None => Budget::none(),
        })
        .build()?
        .run()
}

fn render_trace(outcome: &SimOutcome) -> String {
    let rounds: Vec<String> = outcome
        .trace
        .records
        .iter()
        .map(|rec| {
            let mut o = JsonObject::new();
            o.u64_field("round", rec.round)
                .u64_field("occupied", rec.occupied_after as u64)
                .u64_field("new", rec.newly_occupied as u64)
                .u64_field("moves", rec.moves as u64)
                .u64_field("crashes", rec.crashed.len() as u64);
            o.finish()
        })
        .collect();
    format!("[{}]", rounds.join(","))
}

fn base_record(job: &RunJob, spec: &CampaignSpec) -> RunRecord {
    RunRecord {
        job_id: job.job_id,
        spec_hash: spec.spec_hash(),
        algorithm: job.algorithm.name().into(),
        adversary: job.adversary.name().into(),
        n: job.n,
        k: job.k,
        faults: job.faults,
        seed_index: job.seed_index,
        seed: job.derived_seed,
        attempt: 0,
        status: RunStatus::Ok,
        dispersed: false,
        rounds: 0,
        moves: 0,
        max_memory_bits: 0,
        crashes: 0,
        wall_time_us: 0,
        message: None,
        trace_json: None,
    }
}

/// Executes one job to a record. Never panics itself; the *body* of the
/// run may panic (adversary bug, algorithm bug) and is caught by the
/// runner, not here — this function's own result is infallible. With
/// `check`, the run is monitored by the conformance suite and invariant
/// breaches become [`RunStatus::Violation`] records carrying the rendered
/// violation (round, ids, replay seed) as the message. With a `deadline`,
/// the simulator runs under a wall-clock [`Budget`] and an expired run
/// becomes a [`RunStatus::Timeout`] record instead of spinning forever.
/// `threads` engine workers run inside the simulator; the record is
/// byte-identical for every thread count (the executor's determinism
/// contract), only `wall_time_us` varies.
pub fn execute(
    job: &RunJob,
    spec: &CampaignSpec,
    keep_traces: bool,
    check: bool,
    deadline: Option<Instant>,
    threads: usize,
) -> RunRecord {
    let t = threads;
    let base = base_record(job, spec);
    let start = Instant::now();
    let result = match job.algorithm {
        AlgorithmKind::Alg4 => run_with(DispersionDynamic::new(), job, spec, check, deadline, t),
        AlgorithmKind::LocalDfs => run_with(LocalDfs::new(), job, spec, check, deadline, t),
        AlgorithmKind::RandomWalk => run_with(
            RandomWalk::new(job.derived_seed),
            job,
            spec,
            check,
            deadline,
            t,
        ),
        AlgorithmKind::GreedyLocal => run_with(GreedyLocal::new(), job, spec, check, deadline, t),
        AlgorithmKind::BlindGlobal => run_with(BlindGlobal::new(), job, spec, check, deadline, t),
    };
    let wall_time_us = start.elapsed().as_micros() as u64;
    match result {
        Ok(outcome) => RunRecord {
            dispersed: outcome.dispersed,
            rounds: outcome.rounds,
            moves: outcome.trace.total_moves() as u64,
            max_memory_bits: outcome.max_memory_bits(),
            crashes: outcome.crashes,
            wall_time_us,
            trace_json: keep_traces.then(|| render_trace(&outcome)),
            ..base
        },
        Err(e) => RunRecord {
            status: match &e {
                SimError::InvariantViolation(_) => RunStatus::Violation,
                SimError::BudgetExceeded { .. } => RunStatus::Timeout,
                _ => RunStatus::Error,
            },
            rounds: match &e {
                SimError::BudgetExceeded { round, .. } => *round,
                _ => 0,
            },
            message: Some(e.to_string()),
            wall_time_us,
            ..base
        },
    }
}

/// Builds the record for a job whose execution panicked.
pub fn panic_record(job: &RunJob, spec: &CampaignSpec, message: String) -> RunRecord {
    RunRecord {
        status: RunStatus::Panic,
        message: Some(message),
        ..base_record(job, spec)
    }
}

/// Retires a job whose final retry still failed: the terminal
/// [`RunStatus::Quarantined`] record, preserving the last failure in the
/// message so the artifact alone explains the retirement.
pub fn quarantine_record(last: &RunRecord) -> RunRecord {
    RunRecord {
        status: RunStatus::Quarantined,
        message: Some(format!(
            "quarantined after {} attempts; last failure ({}): {}",
            last.attempt + 1,
            last.status.name(),
            last.message.as_deref().unwrap_or("(no message)"),
        )),
        trace_json: None,
        ..last.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn one_job(algorithm: AlgorithmKind, adversary: AdversaryKind, n: usize, k: usize) -> RunJob {
        RunJob {
            job_id: 0,
            algorithm,
            adversary,
            n,
            k,
            faults: 0,
            seed_index: 0,
            derived_seed: crate::spec::derive_seed(7, 0),
        }
    }

    #[test]
    fn alg4_job_disperses_within_k() {
        let spec = CampaignSpec::default();
        let job = one_job(AlgorithmKind::Alg4, AdversaryKind::StarPair, 12, 8);
        let rec = execute(&job, &spec, false, false, None, 1);
        assert_eq!(rec.status, RunStatus::Ok);
        assert!(rec.dispersed);
        assert!(rec.rounds <= 8);
        assert_eq!(rec.max_memory_bits, 3);
        assert!(rec.trace_json.is_none());
    }

    #[test]
    fn checked_jobs_pass_the_monitor() {
        // Correct implementations run clean under checking: Algorithm 4
        // under the full suite, a baseline under the structural one.
        let spec = CampaignSpec::default();
        for (algorithm, adversary) in [
            (AlgorithmKind::Alg4, AdversaryKind::Churn),
            (AlgorithmKind::RandomWalk, AdversaryKind::StarPair),
        ] {
            let job = one_job(algorithm, adversary, 12, 8);
            let rec = execute(&job, &spec, false, true, None, 1);
            assert_eq!(
                rec.status,
                RunStatus::Ok,
                "{:?}: {:?}",
                algorithm,
                rec.message
            );
        }
        assert_eq!(check_policy(AlgorithmKind::Alg4, true), CheckPolicy::Full);
        assert_eq!(
            check_policy(AlgorithmKind::RandomWalk, true),
            CheckPolicy::Structural
        );
        assert_eq!(check_policy(AlgorithmKind::Alg4, false), CheckPolicy::Off);
    }

    #[test]
    fn violation_status_round_trips() {
        assert_eq!(RunStatus::parse("violation"), Some(RunStatus::Violation));
        assert_eq!(RunStatus::Violation.name(), "violation");
    }

    #[test]
    fn every_status_round_trips_and_classifies() {
        for status in ALL_STATUSES {
            assert_eq!(RunStatus::parse(status.name()), Some(status), "{status:?}");
            assert!(
                status.is_terminal(3, 3),
                "{status:?}: a spent retry budget is always terminal"
            );
            assert_eq!(
                status.is_terminal(0, 1),
                !status.is_retryable(),
                "{status:?}: only retryable failures survive an unspent budget"
            );
        }
        assert_eq!(
            ALL_STATUSES.iter().filter(|s| s.is_retryable()).count(),
            2,
            "exactly panic and timeout are retryable"
        );
        assert_eq!(RunStatus::parse("exploded"), None);
    }

    #[test]
    fn attempt_field_round_trips_and_defaults_for_old_artifacts() {
        let spec = CampaignSpec::default();
        let job = one_job(AlgorithmKind::Alg4, AdversaryKind::StarPair, 10, 6);
        let mut rec = execute(&job, &spec, false, false, None, 1);
        rec.attempt = 3;
        let line = rec.to_json_line();
        assert_eq!(RunRecord::parse_line(&line).expect("parses"), rec);

        // Artifacts written before the retry layer never emitted the
        // field; they must still parse, as attempt 0.
        rec.attempt = 0;
        let old = rec.to_json_line().replace(",\"attempt\":0", "");
        assert_ne!(old, rec.to_json_line(), "the field was actually stripped");
        let parsed = RunRecord::parse_line(&old).expect("old artifact line parses");
        assert_eq!(parsed.attempt, 0);
        assert_eq!(parsed, rec);
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let spec = CampaignSpec::default();
        let job = one_job(AlgorithmKind::Alg4, AdversaryKind::Churn, 12, 8);
        let rec = execute(&job, &spec, false, false, None, 1);
        let parsed = RunRecord::parse_line(&rec.to_json_line()).expect("parses");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn keep_traces_embeds_rounds() {
        let spec = CampaignSpec::default();
        let job = one_job(AlgorithmKind::Alg4, AdversaryKind::StarPair, 10, 6);
        let rec = execute(&job, &spec, true, false, None, 1);
        let trace = rec.trace_json.as_deref().expect("trace kept");
        assert!(trace.starts_with("[{\"round\":0"), "{trace}");
        // The trace does not break field extraction on the same line.
        let line = rec.to_json_line();
        assert_eq!(crate::json::value(&line, "job_id"), Some(0u64));
        assert_eq!(
            crate::json::str_value(&line, "status").as_deref(),
            Some("ok")
        );
    }

    #[test]
    fn sim_errors_become_error_records() {
        // k > n is rejected by the simulator, not by a panic.
        let spec = CampaignSpec::default();
        let mut job = one_job(AlgorithmKind::Alg4, AdversaryKind::Churn, 4, 6);
        job.n = 4;
        let rec = execute(&job, &spec, false, false, None, 1);
        assert_eq!(rec.status, RunStatus::Error);
        assert!(rec.message.as_deref().unwrap_or("").contains("robots"));
    }

    #[test]
    fn canonical_line_zeroes_wall_time_only() {
        let spec = CampaignSpec::default();
        let job = one_job(AlgorithmKind::Alg4, AdversaryKind::StarPair, 10, 6);
        let a = execute(&job, &spec, false, false, None, 1);
        let canon = a.canonical_line();
        assert!(canon.contains("\"wall_time_us\":0"));
        let reparsed = RunRecord::parse_line(&canon).unwrap();
        assert_eq!(
            RunRecord {
                wall_time_us: 0,
                ..a
            },
            reparsed
        );
    }
}
