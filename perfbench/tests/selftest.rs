//! Self-tests of the benchmark: the timing wrappers change no outcome,
//! traced counts repeat exactly, and the printed metrics are the ones
//! `BENCHMARK.json` declares.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use perfbench::layers::SpanLog;
use perfbench::sim::{self, SimLayers};
use perfbench::{run_workload, sim_input, Env, Report, Sizes, Workload, END_TO_END, PER_LAYER};

const SIM_WORKLOADS: [Workload; 3] = [
    Workload::RingLarge,
    Workload::AdaptiveOracle,
    Workload::RingLargePar2,
];

/// A small environment whose measured loop runs exactly one instance.
fn env(test: &str) -> Env {
    Env {
        sizes: Sizes::small(),
        seconds: 1e-9,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{test}")),
    }
}

#[test]
fn wrappers_change_no_outcome() {
    let sizes = Sizes::small();
    for w in SIM_WORKLOADS {
        for index in 0..3 {
            let input = sim_input(w, &sizes, 5, index);
            let (plain, _) = sim::run_plain(&input, &mut || {}).unwrap();
            let log = Rc::new(RefCell::new(SpanLog::default()));
            let mut layers = SimLayers::default();
            let traced = sim::run_traced(&input, &log, &mut layers, &mut || {}).unwrap();
            assert_eq!(plain, traced, "{} instance {index}", w.name());
            assert!(
                plain.passes(input.k()),
                "{} instance {index}: {plain:?}",
                w.name()
            );
            assert!(plain.moves > 0);
            assert_eq!(layers.rounds, plain.rounds);
        }
    }
    // The campaign has no wrappers; its traced run compares the records of
    // a plain and a traced pass and fails every job on a difference.
    let report = run_workload(Workload::CampaignChecked, 5, &env("outcome"), true).unwrap();
    assert!(report.correct(), "{report:?}");
}

#[test]
fn parallel_ring_matches_sequential_ring() {
    let sizes = Sizes::small();
    for index in 0..3 {
        let ring = |w| sim::run_plain(&sim_input(w, &sizes, 9, index), &mut || {}).unwrap();
        let ((seq, _), (par, _)) = (ring(Workload::RingLarge), ring(Workload::RingLargePar2));
        assert_eq!(seq, par);
    }
}

fn counts(report: &Report) -> Vec<(&'static str, f64)> {
    [
        "engine.rounds",
        "core.step_calls",
        "core.components",
        "oracle.calls",
        "oracle.core_steps",
        "adversary.calls",
        "adversary.graph_changes",
        "lab.jobs",
        "lab.records",
        "lab.fsyncs",
    ]
    .into_iter()
    .map(|name| (name, report.values.get(name).copied().unwrap_or(0.0)))
    .collect()
}

#[test]
fn traced_counts_repeat_exactly() {
    for w in Workload::ALL {
        let first = run_workload(w, 3, &env("counts"), true).unwrap();
        let second = run_workload(w, 3, &env("counts"), true).unwrap();
        assert!(first.correct() && second.correct(), "{}", w.name());
        assert!(first.values["host.slowdown"] > 0.0, "{}", w.name());
        assert_eq!(counts(&first), counts(&second), "{}", w.name());
        let exercised = match w {
            Workload::CampaignChecked => "lab.records",
            Workload::AdaptiveOracle => "oracle.calls",
            Workload::RingLarge | Workload::RingLargePar2 => "core.step_calls",
        };
        assert!(
            first.values[exercised] > 0.0,
            "{} reports no {exercised}",
            w.name()
        );
    }
}

#[test]
fn executor_metrics_see_every_worker() {
    let report = run_workload(Workload::RingLargePar2, 4, &env("executor"), true).unwrap();
    assert_eq!(report.values["executor.threads"], 2.0);
    assert!(report.values["executor.worker_busy_mean_s"] > 0.0);
    assert!(report.values["executor.imbalance"] >= 1.0);
}

#[test]
fn untraced_runs_are_correct_and_report_every_end_to_end_metric() {
    for w in Workload::ALL {
        let report = run_workload(w, 11, &env("untraced"), false).unwrap();
        assert!(report.correct(), "{}: {report:?}", w.name());
        assert_eq!(report.values["ok_frac"], 1.0);
        for (name, value, _) in report.metric_lines() {
            assert!(value > 0.0, "{}: {name} reads {value}", w.name());
        }
    }
}

/// `(name, unit)` of every entry of one list of `BENCHMARK.json`, in
/// order; `unit` is empty for entries without one. The file holds one key
/// per line and no `]` inside a string.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let section = &text[text.find(&format!("\"{list}\": [")).unwrap()..];
    let section = &section[..section.find(']').unwrap()];
    let mut entries: Vec<(String, String)> = Vec::new();
    for line in section.lines().map(str::trim) {
        let value = |key: &str| {
            let v = line.strip_prefix(&format!("\"{key}\": \""))?;
            Some(v.trim_end_matches(',').trim_end_matches('"').to_string())
        };
        if let Some(name) = value("name") {
            entries.push((name, String::new()));
        } else if let Some(unit) = value("unit") {
            entries.last_mut().unwrap().1 = unit;
        }
    }
    entries
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), table(END_TO_END));
    assert_eq!(declared("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    for trace in [false, true] {
        let report = run_workload(Workload::AdaptiveOracle, 2, &env("names"), trace).unwrap();
        let line = report.to_json();
        let head = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
            report.attempted
        );
        assert!(report.attempted >= 1 && line.starts_with(&head), "{line}");
        let metrics = declared(if trace { "per_layer" } else { "end_to_end" });
        assert_eq!(line.matches("\"value\": ").count(), metrics.len(), "{line}");
        let mut rest = &line[head.len()..];
        for (name, unit) in metrics {
            let key = format!("\"{name}\": {{\"value\": ");
            rest = &rest[rest
                .find(&key)
                .unwrap_or_else(|| panic!("{name} in {line}"))
                + key.len()..];
            let (value, tail) = rest.split_once(',').unwrap();
            assert!(value.parse::<f64>().unwrap().is_finite(), "{name}");
            assert!(
                tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                "{name} in {line}"
            );
        }
    }
}
