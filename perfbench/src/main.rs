//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and the metrics of
//! the mode. A traced run also writes its spans to
//! `.bench_out/trace-<workload>-<seed>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run_workload, Env, Sizes, Workload};

const USAGE: &str =
    "usage: perfbench --workload <ring-large|adaptive-oracle|campaign-checked|ring-large-par2> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let env = Env {
        sizes: Sizes::full(),
        seconds: args.seconds,
        out_dir: out_dir.clone(),
    };
    let report = match run_workload(args.workload, args.seed, &env, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = out_dir.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, report.spans_jsonl()))
        {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        for (name, value, unit) in report.metric_lines() {
            println!("{name:<34} {value:>16.6} {unit}");
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
