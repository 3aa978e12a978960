//! Whole-run benchmark of the dispersion program.
//!
//! One process runs one workload, generated from a workload seed, in a
//! closed loop for a fixed time, checks every output, and reports the
//! end-to-end metrics ([`END_TO_END`]). The traced mode instead runs each
//! instance once plainly and once through the timing wrappers of
//! [`layers`], checks that both give the same outcome, and reports the
//! per-layer metrics ([`PER_LAYER`]). See `README.md` next to this crate.

pub mod campaign;
pub mod host;
pub mod layers;
pub mod sim;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use layers::{now_ns, Span, SpanLog};
use sim::{SimInput, SimLayers};

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("robot_steps_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.network_s", "s"),
    ("setup.build_s", "s"),
    ("engine.rounds", "count"),
    ("engine.step_s", "s"),
    ("engine.round_p50_ms", "ms"),
    ("engine.round_p95_ms", "ms"),
    ("engine.self_s", "s"),
    ("engine.self_share", "ratio"),
    ("core.step_calls", "count"),
    ("core.step_s", "s"),
    ("core.step_ns", "ns"),
    ("core.step_share", "ratio"),
    ("core.alg1_component_s", "s"),
    ("core.alg2_tree_s", "s"),
    ("core.alg3_paths_s", "s"),
    ("core.components", "count"),
    ("core.lookup_s", "s"),
    ("adversary.calls", "count"),
    ("adversary.graph_changes", "count"),
    ("adversary.graph_s", "s"),
    ("adversary.self_s", "s"),
    ("adversary.share", "ratio"),
    ("oracle.calls", "count"),
    ("oracle.moves_s", "s"),
    ("oracle.core_steps", "count"),
    ("oracle.core_s", "s"),
    ("oracle.views_s", "s"),
    ("graph.half_edges_per_round", "count"),
    ("graph.csr_bytes_per_round", "bytes"),
    ("executor.threads", "count"),
    ("executor.worker_busy_mean_s", "s"),
    ("executor.worker_busy_max_s", "s"),
    ("executor.imbalance", "ratio"),
    ("executor.idle_frac", "ratio"),
    ("lab.jobs", "count"),
    ("lab.records", "count"),
    ("lab.artifact_bytes", "bytes"),
    ("lab.fsyncs", "count"),
    ("lab.job_busy_s", "s"),
    ("lab.utilization", "ratio"),
    ("lab.runner_self_s", "s"),
    ("lab.retries", "count"),
    ("lab.timeouts", "count"),
    ("invariants.check_overhead_frac", "ratio"),
    ("invariants.violations", "count"),
    ("trace.overhead_frac", "ratio"),
    ("host.slowdown", "ratio"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RingLarge,
    AdaptiveOracle,
    CampaignChecked,
    RingLargePar2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RingLarge,
        Workload::AdaptiveOracle,
        Workload::CampaignChecked,
        Workload::RingLargePar2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RingLarge => "ring-large",
            Workload::AdaptiveOracle => "adaptive-oracle",
            Workload::CampaignChecked => "campaign-checked",
            Workload::RingLargePar2 => "ring-large-par2",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Extra-edge probability of the sampler's candidate graphs.
const SAMPLER_EDGE_PROB: f64 = 0.1;

/// Input sizes of the workloads.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub ring_n: usize,
    pub ring_k: usize,
    pub sampler_n: usize,
    pub sampler_k: usize,
    pub sampler_candidates: usize,
    pub grid_ks: Vec<usize>,
    pub grid_seeds: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            ring_n: 2048,
            ring_k: 1024,
            sampler_n: 144,
            sampler_k: 96,
            sampler_candidates: 8,
            grid_ks: vec![8, 16, 32],
            grid_seeds: 40,
        }
    }

    /// Instances small enough for the self-tests.
    pub fn small() -> Sizes {
        Sizes {
            ring_n: 64,
            ring_k: 32,
            sampler_n: 24,
            sampler_k: 16,
            sampler_candidates: 4,
            grid_ks: vec![4, 8],
            grid_seeds: 2,
        }
    }
}

/// Where and for how long a workload runs.
#[derive(Clone, Debug)]
pub struct Env {
    pub sizes: Sizes,
    /// Length of the measured loop; at least one instance always runs.
    pub seconds: f64,
    /// Directory the campaign artifact directories are created in.
    pub out_dir: PathBuf,
}

/// splitmix64 of `(seed, index)`: the seed of instance `index` of a run.
pub fn instance_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Input of instance `index` of a simulation workload.
pub fn sim_input(w: Workload, sizes: &Sizes, seed: u64, index: u64) -> SimInput {
    let s = instance_seed(seed, index);
    match w {
        Workload::RingLarge | Workload::RingLargePar2 => SimInput::Ring {
            n: sizes.ring_n,
            k: sizes.ring_k,
            seed: s,
            threads: if w == Workload::RingLargePar2 { 2 } else { 1 },
        },
        Workload::AdaptiveOracle => SimInput::Sampler {
            n: sizes.sampler_n,
            k: sizes.sampler_k,
            candidates: sizes.sampler_candidates,
            edge_prob: SAMPLER_EDGE_PROB,
            seed: s,
        },
        Workload::CampaignChecked => unreachable!("the campaign workload has no simulation input"),
    }
}

/// Metric values by name; [`Report::metric_lines`] lays them out in table
/// order.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub trace: bool,
    pub values: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// `(name, value, unit)` of every metric of the mode, in table order.
    pub fn metric_lines(&self) -> Vec<(&'static str, f64, &'static str)> {
        let table = if self.trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metric_lines()
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}\n",
                    s.id, s.parent, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
                )
            })
            .collect()
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]`.
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// High-water resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up and host sampling takes 1/SETUP_SHARE of the run's wall time…
const SETUP_SHARE: u32 = 20;
/// …in batches of back-to-back set-ups that last at least this long, so
/// one sample is long against the clock's resolution and a cold cache,
/// each followed by one [`host::reference_unit`].
const SETUP_BATCH: Duration = Duration::from_micros(200);
/// Share of the batches dropped at each end before averaging.
const SETUP_TRIM: f64 = 0.1;

/// One sampler batch: mean nanoseconds per set-up of its two phases, and
/// the nanoseconds of the reference unit timed right after it.
#[derive(Clone, Copy, Debug)]
struct Batch {
    network_ns: f64,
    build_ns: f64,
    reference_ns: f64,
}

impl Batch {
    /// The host's slowdown at the time of the batch.
    fn slowdown(&self) -> f64 {
        self.reference_ns / host::REFERENCE_UNIT_NS
    }
}

/// Times set-ups and the host's speed through the whole run. Whenever the
/// sampler's share of the run's wall time has fallen below
/// 1/[`SETUP_SHARE`], `catch_up` times batches until it is back. It is
/// called between instances and, on the simulation workloads, between
/// rounds, so the samples see the host over the same seconds as the rates.
struct Sampler<F> {
    /// Set-up `j`: the nanoseconds of its two phases.
    setup: F,
    start: Instant,
    spent: Duration,
    next: u64,
    batches: Vec<Batch>,
    error: Option<String>,
}

impl<F: FnMut(u64) -> Result<(u64, u64), String>> Sampler<F> {
    fn catch_up(&mut self) {
        while self.error.is_none() && self.spent * SETUP_SHARE <= self.start.elapsed() {
            let batch = Instant::now();
            let (mut a, mut b, mut n) = (0u64, 0u64, 0u64);
            while n == 0 || batch.elapsed() < SETUP_BATCH {
                match (self.setup)(self.next) {
                    Ok((x, y)) => (a, b, n) = (a + x, b + y, n + 1),
                    Err(e) => {
                        self.error = Some(e);
                        return;
                    }
                }
                self.next += 1;
            }
            let t = Instant::now();
            black_box(host::reference_unit());
            self.batches.push(Batch {
                network_ns: a as f64 / n as f64,
                build_ns: b as f64 / n as f64,
                reference_ns: t.elapsed().as_nanos() as f64,
            });
            self.spent += batch.elapsed();
        }
    }
}

/// The measured loop: runs `instance(i, between_rounds)` for i = 0, 1, …
/// until the run's time is spent, starting another instance only while
/// half of one still fits, and samples set-ups and the host (see
/// [`Sampler`]) before each instance and wherever the instance calls
/// `between_rounds`. Returns the sampler's batches.
fn measure(
    seconds: f64,
    setup: impl FnMut(u64) -> Result<(u64, u64), String>,
    mut instance: impl FnMut(u64, &mut dyn FnMut()) -> Result<(), String>,
) -> Result<Vec<Batch>, String> {
    let mut sampler = Sampler {
        setup,
        start: Instant::now(),
        spent: Duration::ZERO,
        next: 0,
        batches: Vec::new(),
        error: None,
    };
    for i in 0.. {
        sampler.catch_up();
        let t = Instant::now();
        instance(i, &mut || sampler.catch_up())?;
        let last = t.elapsed();
        if sampler.start.elapsed().as_secs_f64() + last.as_secs_f64() / 2.0 >= seconds {
            break;
        }
    }
    match sampler.error {
        Some(e) => Err(e),
        None => Ok(sampler.batches),
    }
}

/// The host's mean slowdown over the run: the batches are spread through
/// it like the rounds, so this is the factor by which the run's wall
/// time exceeds what the host at its reference speed would have taken.
fn run_slowdown(batches: &[Batch]) -> f64 {
    let n = batches.len().max(1) as f64;
    batches.iter().map(Batch::slowdown).sum::<f64>() / n
}

/// Mean with the lowest and highest [`SETUP_TRIM`] share dropped, so that
/// a batch hit by a preemption or an interrupt does not move it.
fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let cut = (v.len() as f64 * SETUP_TRIM) as usize;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Set-up times at the host's reference speed: each batch divided by the
/// slowdown measured right after it.
fn set_setup_metrics(report: &mut Report, batches: &[Batch]) {
    let phase = |f: fn(&Batch) -> f64| {
        let scaled: Vec<f64> = batches.iter().map(|b| f(b) / b.slowdown()).collect();
        trimmed_mean(&scaled) / 1e9
    };
    if report.trace {
        report.set("setup.network_s", phase(|b| b.network_ns));
        report.set("setup.build_s", phase(|b| b.build_ns));
        report.set("host.slowdown", run_slowdown(batches));
    } else {
        report.set("setup_s", phase(|b| b.network_ns + b.build_ns));
    }
}

/// `robot_steps_per_s` and `runs_per_s` from `(count, seconds)` pairs, at
/// the host's reference speed.
fn set_rates(report: &mut Report, batches: &[Batch], steps: (u64, f64), runs: (u64, f64)) {
    let slowdown = run_slowdown(batches);
    report.set(
        "robot_steps_per_s",
        ratio(steps.0 as f64, steps.1) * slowdown,
    );
    report.set("runs_per_s", ratio(runs.0 as f64, runs.1) * slowdown);
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// A set-up that fails, or a campaign that cannot write its artifact: the
/// program cannot be measured at all.
pub fn run_workload(w: Workload, seed: u64, env: &Env, trace: bool) -> Result<Report, String> {
    let mut report = Report {
        trace,
        ..Report::default()
    };
    if w == Workload::CampaignChecked {
        run_campaign_workload(seed, env, &mut report)?;
    } else {
        run_sim_workload(w, seed, env, &mut report)?;
    }
    if !trace {
        report.set("peak_rss_mb", peak_rss_mb());
        let ok = report.attempted - report.failed.min(report.attempted);
        report.set("ok_frac", ratio(ok as f64, report.attempted as f64));
    }
    Ok(report)
}

/// Untraced totals of a simulation workload.
#[derive(Default)]
struct SimTotals {
    robot_steps: u64,
    loop_ns: u64,
    run_ns: u64,
    dispersed: u64,
}

fn run_sim_workload(w: Workload, seed: u64, env: &Env, report: &mut Report) -> Result<(), String> {
    let input = |i: u64| sim_input(w, &env.sizes, seed, i);
    let log = Rc::new(RefCell::new(SpanLog::default()));
    let mut layers = SimLayers::default();
    let mut totals = SimTotals::default();
    let mut plain_ns = 0; // untraced wall of the traced instances
    let mut first = None;
    let batches = measure(
        env.seconds,
        |j| {
            sim::setup_only(&input(j % 8))
                .map(|t| (t.network_ns, t.build_ns))
                .map_err(|e| e.to_string())
        },
        |i, between_rounds| {
            let input = input(i);
            let k = input.k();
            report.attempted += 1;
            let passed = match sim::run_plain(&input, between_rounds) {
                Ok((outcome, times)) if report.trace => {
                    plain_ns += times.total_ns;
                    sim::run_traced(&input, &log, &mut layers, between_rounds)
                        .is_ok_and(|traced| traced == outcome && outcome.passes(k))
                }
                Ok((outcome, times)) => {
                    totals.robot_steps += k as u64 * outcome.rounds;
                    totals.loop_ns += times.loop_ns;
                    totals.run_ns += times.total_ns;
                    totals.dispersed += u64::from(outcome.dispersed);
                    let passed = outcome.passes(k);
                    if i == 0 {
                        first = Some(outcome);
                    }
                    passed
                }
                Err(_) => false,
            };
            report.failed += u64::from(!passed);
            Ok(())
        },
    )?;
    set_setup_metrics(report, &batches);

    // The parallel executor must reproduce the sequential run exactly.
    if w == Workload::RingLargePar2 && !report.trace {
        let reference = sim::run_plain(
            &sim_input(Workload::RingLarge, &env.sizes, seed, 0),
            &mut || {},
        );
        let same = match (&first, reference) {
            (Some(par), Ok((seq, _))) => {
                par.rounds == seq.rounds && par.final_fingerprint == seq.final_fingerprint
            }
            _ => false,
        };
        if !same && first.as_ref().is_some_and(|o| o.passes(env.sizes.ring_k)) {
            report.failed += 1;
        }
    }

    if report.trace {
        set_sim_layers(report, &layers, plain_ns);
        report.spans = log.borrow().spans().to_vec();
    } else {
        set_rates(
            report,
            &batches,
            (totals.robot_steps, secs(totals.loop_ns)),
            (totals.dispersed, secs(totals.run_ns)),
        );
    }
    Ok(())
}

fn set_sim_layers(report: &mut Report, l: &SimLayers, plain_ns: u64) {
    let step = l.step_ns as f64;
    report.set("engine.rounds", l.rounds as f64);
    report.set("engine.step_s", secs(l.step_ns));
    report.set(
        "engine.round_p50_ms",
        percentile(&l.round_ns, 0.5) as f64 / 1e6,
    );
    report.set(
        "engine.round_p95_ms",
        percentile(&l.round_ns, 0.95) as f64 / 1e6,
    );
    report.set("engine.self_s", l.engine_self_ns as f64 / 1e9);
    report.set("engine.self_share", ratio(l.engine_self_ns as f64, step));

    report.set("core.step_calls", l.core_calls as f64);
    report.set("core.step_s", secs(l.core_ns));
    report.set("core.step_ns", ratio(l.core_ns as f64, l.core_calls as f64));
    report.set("core.step_share", ratio(l.core_critical_ns as f64, step));
    report.set("core.alg1_component_s", secs(l.alg1_ns));
    report.set("core.alg2_tree_s", secs(l.alg2_ns));
    report.set("core.alg3_paths_s", secs(l.alg3_ns));
    report.set("core.components", l.components as f64);
    let replayed = l.alg1_ns + l.alg2_ns + l.alg3_ns;
    report.set("core.lookup_s", (l.core_ns as f64 - replayed as f64) / 1e9);

    report.set("adversary.calls", l.adversary_calls as f64);
    report.set("adversary.graph_changes", l.graph_changes as f64);
    report.set("adversary.graph_s", secs(l.graph_ns));
    report.set(
        "adversary.self_s",
        (l.graph_ns as f64 - l.oracle_ns as f64) / 1e9,
    );
    report.set("adversary.share", ratio(l.graph_ns as f64, step));

    report.set("oracle.calls", l.oracle_calls as f64);
    report.set("oracle.moves_s", secs(l.oracle_ns));
    report.set("oracle.core_steps", l.oracle_core_steps as f64);
    report.set("oracle.core_s", secs(l.oracle_core_ns));
    report.set(
        "oracle.views_s",
        (l.oracle_ns as f64 - l.oracle_core_ns as f64) / 1e9,
    );

    let calls = l.adversary_calls as f64;
    report.set(
        "graph.half_edges_per_round",
        ratio(l.half_edges as f64, calls),
    );
    report.set(
        "graph.csr_bytes_per_round",
        ratio(l.csr_bytes as f64, calls),
    );

    let threads = l.threads.max(1) as f64;
    let busy: u64 = l.worker_busy_ns.iter().sum();
    let mean = busy as f64 / threads;
    let max = l.worker_busy_ns.iter().copied().max().unwrap_or(0) as f64;
    report.set("executor.threads", threads);
    report.set("executor.worker_busy_mean_s", mean / 1e9);
    report.set("executor.worker_busy_max_s", max / 1e9);
    report.set("executor.imbalance", ratio(max, mean));
    report.set(
        "executor.idle_frac",
        1.0 - ratio(busy as f64, threads * step),
    );

    report.set(
        "trace.overhead_frac",
        ratio(l.traced_ns as f64, plain_ns as f64) - 1.0,
    );
}

/// Traced totals of the campaign workload.
#[derive(Default)]
struct LabTotals {
    jobs: u64,
    records: u64,
    artifact_bytes: u64,
    fsyncs: u64,
    job_busy_us: u64,
    /// Σ workers × `run_campaign` wall.
    worker_ns: u64,
    unchecked_busy_us: u64,
    retries: u64,
    timeouts: u64,
    violations: u64,
    plain_ns: u64,
    traced_ns: u64,
}

fn run_campaign_workload(seed: u64, env: &Env, report: &mut Report) -> Result<(), String> {
    let sizes = &env.sizes;
    let setup = |i: u64, dir: &std::path::Path| {
        campaign::setup(
            &sizes.grid_ks,
            sizes.grid_seeds,
            instance_seed(seed, i),
            dir,
        )
    };
    // One campaign — set-up, `run_campaign`, artifact read-back — in a
    // fresh directory, with its start and end on the span clock.
    let pass = |i: u64, pass: u64, check: bool| {
        let dir = campaign::fresh_dir(&env.out_dir, seed, 3 * i + pass);
        let start = now_ns();
        let run = setup(i, &dir).and_then(|(spec, _)| campaign::run(&spec, &dir, check));
        let end = now_ns();
        campaign::remove_dir(&dir);
        run.map(|run| (run, start, end))
    };

    let (mut robot_steps, mut busy_us, mut run_ns, mut records) = (0u64, 0u64, 0u64, 0u64);
    let mut lab = LabTotals::default();
    let mut spans = SpanLog::default();
    // `run_campaign` cannot be paused, so set-ups and the host are sampled
    // between campaigns only.
    let batches = measure(
        env.seconds,
        |j| {
            let dir = campaign::fresh_dir(&env.out_dir, seed, u64::MAX - j);
            let (_, t) = setup(j % 8, &dir)?;
            campaign::remove_dir(&dir);
            Ok((t.spec_ns, t.dir_ns))
        },
        |i, _| {
            let (run, t0, t1) = pass(i, 0, true)?;
            report.attempted += run.jobs;
            let mut failed = run.failed_jobs();
            if report.trace {
                let (traced, t0_traced, t1_traced) = pass(i, 1, true)?;
                let (unchecked, _, _) = pass(i, 2, false)?;
                if traced.canonical != run.canonical || unchecked.failed_jobs() > 0 {
                    failed = run.jobs;
                }
                // The runner does not expose job start times: job spans
                // carry their record's wall time from the campaign start.
                let id = spans.push(0, "campaign", t0_traced, t1_traced);
                for &wall_us in &traced.job_walls_us {
                    spans.push(id, "job", t0_traced, t0_traced + wall_us * 1000);
                }
                lab.plain_ns += t1 - t0;
                lab.traced_ns += t1_traced - t0_traced;
                lab.jobs += traced.jobs;
                lab.records += traced.records;
                lab.artifact_bytes += traced.artifact_bytes;
                lab.fsyncs += traced.records + 2; // header, directory, one per record
                lab.job_busy_us += traced.job_busy_us;
                lab.worker_ns += traced.workers * traced.wall_ns;
                lab.unchecked_busy_us += unchecked.job_busy_us;
                lab.retries += traced.retries;
                lab.timeouts += traced.timeouts;
                lab.violations += traced.violations;
            } else {
                robot_steps += run.robot_steps;
                busy_us += run.job_busy_us;
                run_ns += t1 - t0;
                records += run.records;
            }
            report.failed += failed;
            Ok(())
        },
    )?;
    set_setup_metrics(report, &batches);

    if report.trace {
        let busy_ns = lab.job_busy_us as f64 * 1e3;
        report.set("lab.jobs", lab.jobs as f64);
        report.set("lab.records", lab.records as f64);
        report.set("lab.artifact_bytes", lab.artifact_bytes as f64);
        report.set("lab.fsyncs", lab.fsyncs as f64);
        report.set("lab.job_busy_s", busy_ns / 1e9);
        report.set("lab.utilization", ratio(busy_ns, lab.worker_ns as f64));
        report.set("lab.runner_self_s", (lab.worker_ns as f64 - busy_ns) / 1e9);
        report.set("lab.retries", lab.retries as f64);
        report.set("lab.timeouts", lab.timeouts as f64);
        report.set(
            "invariants.check_overhead_frac",
            1.0 - ratio(lab.unchecked_busy_us as f64, lab.job_busy_us as f64),
        );
        report.set("invariants.violations", lab.violations as f64);
        report.set(
            "trace.overhead_frac",
            ratio(lab.traced_ns as f64, lab.plain_ns as f64) - 1.0,
        );
        report.spans = spans.spans().to_vec();
    } else {
        set_rates(
            report,
            &batches,
            (robot_steps, busy_us as f64 / 1e6),
            (records, secs(run_ns)),
        );
    }
    Ok(())
}
