//! Hand-rolled argument parsing for the `dispersion` binary.

use std::error::Error;
use std::fmt;

use dispersion_lab::{AdversaryKind, AlgorithmKind, CampaignSpec, NRule, Placement};

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `dispersion run …` — run Algorithm 4.
    Run {
        /// Dynamic network to run against.
        network: AdversaryKind,
        /// Nodes.
        n: usize,
        /// Robots.
        k: usize,
        /// RNG seed (networks, placement).
        seed: u64,
        /// Crash `f` random robots during the run.
        faults: usize,
        /// Start from a random (clustered) placement instead of rooted.
        scattered: bool,
        /// Print a per-round occupancy view.
        watch: bool,
        /// Emit the outcome as a JSON document instead of text.
        json: bool,
    },
    /// `dispersion trap …` — run a Theorem 1/2 impossibility trap.
    Trap {
        /// 1 (path trap, local model) or 2 (clique trap, blind model).
        theorem: u8,
        /// Robots.
        k: usize,
        /// Rounds to hold the trap.
        rounds: u64,
    },
    /// `dispersion lower-bound --k …` — the Theorem 3 star-pair run.
    LowerBound {
        /// Robots.
        k: usize,
    },
    /// `dispersion memory --max-k …` — the Θ(log k) sweep.
    Memory {
        /// Largest k (powers of two up to this).
        max_k: usize,
    },
    /// `dispersion sweep …` — rounds-vs-k summary over seeds.
    Sweep {
        /// Dynamic network to sweep.
        network: AdversaryKind,
        /// Largest k (powers of two from 4).
        max_k: usize,
        /// Seeds per cell.
        seeds: u64,
    },
    /// `dispersion campaign …` — run a full experiment campaign through
    /// the lab runner, streaming JSONL records to an artifact.
    Campaign {
        /// The expanded campaign description.
        spec: CampaignSpec,
        /// Worker threads.
        jobs: usize,
        /// Embed per-round traces in each record.
        keep_traces: bool,
        /// Overwrite any existing artifact instead of resuming it.
        fresh: bool,
        /// Artifact directory.
        out_dir: String,
        /// Run every job under the conformance monitor.
        check: bool,
        /// Per-job watchdog in seconds (0 = disarmed): a run still
        /// executing after this long lands a `timeout` record.
        timeout_secs: u64,
        /// Seed-preserving reruns after a panic/timeout before the job
        /// is quarantined.
        retries: u64,
        /// Engine worker threads per job (jobs × threads is clamped to
        /// the available cores by the runner).
        threads: usize,
    },
    /// `dispersion campaign-status …` — progress, retries, and
    /// quarantined jobs read from a (possibly partial) artifact.
    CampaignStatus {
        /// Artifact to inspect.
        artifact: String,
    },
    /// `dispersion check …` — run under the conformance monitor: either
    /// replay a campaign JSONL artifact, or check one directly-specified
    /// run (network × n × k × seed) under the full invariant suite.
    Check {
        /// Campaign artifact to replay under checking (exclusive with
        /// the spec flags).
        artifact: Option<String>,
        /// Dynamic network for a direct spec check.
        network: AdversaryKind,
        /// Nodes.
        n: usize,
        /// Robots.
        k: usize,
        /// RNG seed (also the replay seed reported on violations).
        seed: u64,
        /// Crash `f` random robots during the run.
        faults: usize,
        /// Arm only the structural (any-algorithm) invariants, not the
        /// Algorithm 4 theorem bounds.
        structural: bool,
        /// Engine worker threads for each checked run.
        threads: usize,
    },
    /// `dispersion dot …` — export one round's graph as Graphviz DOT.
    Dot {
        /// Dynamic network to sample.
        network: AdversaryKind,
        /// Nodes.
        n: usize,
        /// Robots (annotated on the nodes).
        k: usize,
        /// RNG seed. The round-0 graph is sampled against the rooted
        /// configuration a fresh run starts from.
        seed: u64,
    },
    /// `dispersion help` or `--help`.
    Help,
}

/// CLI parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag for the subcommand.
    UnknownFlag(String),
    /// Flag requires a value but none followed.
    MissingValue(String),
    /// Value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Semantic violation (e.g. k > n).
    Invalid(&'static str),
    /// A campaign grid that cannot run (message from spec validation).
    InvalidSpec(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => {
                write!(f, "missing subcommand (try `dispersion help`)")
            }
            ParseError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            ParseError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ParseError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            ParseError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for `{flag}` (expected {expected})"),
            ParseError::Invalid(msg) => write!(f, "{msg}"),
            ParseError::InvalidSpec(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for ParseError {}

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<&'a str, ParseError> {
    iter.next()
        .ok_or_else(|| ParseError::MissingValue(flag.into()))
}

fn parse_num<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    expected: &'static str,
) -> Result<T, ParseError> {
    value.parse().map_err(|_| ParseError::BadValue {
        flag: flag.into(),
        value: value.into(),
        expected,
    })
}

/// Parses a comma-separated list with a per-item parser.
fn parse_list<T>(
    flag: &str,
    value: &str,
    expected: &'static str,
    item: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, ParseError> {
    value
        .split(',')
        .map(|s| item(s.trim()))
        .collect::<Option<Vec<T>>>()
        .filter(|v| !v.is_empty())
        .ok_or_else(|| ParseError::BadValue {
            flag: flag.into(),
            value: value.into(),
            expected,
        })
}

/// Parses a single-run `--network` value: any campaign network except
/// `panic-probe`, which exists to test a campaign's panic isolation.
fn parse_network(value: &str) -> Result<AdversaryKind, ParseError> {
    match AdversaryKind::parse(value) {
        Ok(AdversaryKind::PanicProbe) => Err(ParseError::Invalid(
            "`panic-probe` runs only inside campaigns",
        )),
        Ok(kind) => Ok(kind),
        Err(_) => Err(ParseError::BadValue {
            flag: "--network".into(),
            value: value.into(),
            expected: AdversaryKind::NAMES,
        }),
    }
}

/// Parses the argument list (without the program name).
pub fn parse<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Command, ParseError> {
    let mut iter = args.into_iter();
    let cmd = iter.next().ok_or(ParseError::MissingCommand)?;
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => {
            let mut network = AdversaryKind::Churn;
            let mut n = 20usize;
            let mut k = 12usize;
            let mut seed = 7u64;
            let mut faults = 0usize;
            let mut scattered = false;
            let mut watch = false;
            let mut json = false;
            while let Some(flag) = iter.next() {
                match flag {
                    "--network" => network = parse_network(take_value(flag, &mut iter)?)?,
                    "--n" => {
                        n = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    "--k" => {
                        k = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    "--seed" => {
                        seed = parse_num(flag, take_value(flag, &mut iter)?, "an integer seed")?
                    }
                    "--faults" => {
                        faults = parse_num(flag, take_value(flag, &mut iter)?, "a fault count")?
                    }
                    "--scattered" => scattered = true,
                    "--watch" => watch = true,
                    "--json" => json = true,
                    other => return Err(ParseError::UnknownFlag(other.into())),
                }
            }
            if k == 0 || n == 0 {
                return Err(ParseError::Invalid("need n ≥ 1 and k ≥ 1"));
            }
            if k > n {
                return Err(ParseError::Invalid("k must not exceed n"));
            }
            if faults > k {
                return Err(ParseError::Invalid("faults must not exceed k"));
            }
            Ok(Command::Run {
                network,
                n,
                k,
                seed,
                faults,
                scattered,
                watch,
                json,
            })
        }
        "sweep" => {
            let mut network = AdversaryKind::Churn;
            let mut max_k = 32usize;
            let mut seeds = 5u64;
            while let Some(flag) = iter.next() {
                match flag {
                    "--network" => network = parse_network(take_value(flag, &mut iter)?)?,
                    "--max-k" => {
                        max_k = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    "--seeds" => {
                        seeds = parse_num(flag, take_value(flag, &mut iter)?, "a seed count")?
                    }
                    other => return Err(ParseError::UnknownFlag(other.into())),
                }
            }
            if max_k < 4 || seeds == 0 {
                return Err(ParseError::Invalid("sweep needs max-k ≥ 4 and seeds ≥ 1"));
            }
            Ok(Command::Sweep {
                network,
                max_k,
                seeds,
            })
        }
        "campaign" => {
            let mut spec = CampaignSpec::default();
            let mut jobs = 1usize;
            let mut keep_traces = false;
            let mut fresh = false;
            let mut out_dir = String::from("results");
            let mut check = false;
            let mut timeout_secs = 0u64;
            let mut retries = 0u64;
            let mut threads = 1usize;
            while let Some(flag) = iter.next() {
                match flag {
                    "--name" => spec.name = take_value(flag, &mut iter)?.to_string(),
                    "--algorithms" => {
                        spec.algorithms = parse_list(
                            flag,
                            take_value(flag, &mut iter)?,
                            AlgorithmKind::NAMES,
                            |s| AlgorithmKind::parse(s).ok(),
                        )?
                    }
                    "--networks" => {
                        spec.adversaries = parse_list(
                            flag,
                            take_value(flag, &mut iter)?,
                            AdversaryKind::NAMES,
                            |s| AdversaryKind::parse(s).ok(),
                        )?
                    }
                    "--ks" => {
                        spec.ks = parse_list(
                            flag,
                            take_value(flag, &mut iter)?,
                            "comma-separated robot counts, e.g. 4,8,16",
                            |s| s.parse().ok(),
                        )?
                    }
                    "--n-rule" => {
                        let value = take_value(flag, &mut iter)?;
                        spec.n_rule = NRule::parse(value).map_err(|_| ParseError::BadValue {
                            flag: flag.into(),
                            value: value.into(),
                            expected: "e.g. `k+5`, `3k/2`, or a literal n like `24`",
                        })?
                    }
                    "--faults" => {
                        spec.faults = parse_list(
                            flag,
                            take_value(flag, &mut iter)?,
                            "comma-separated fault counts, e.g. 0,1,2",
                            |s| s.parse().ok(),
                        )?
                    }
                    "--seeds" => {
                        spec.seeds = parse_num(flag, take_value(flag, &mut iter)?, "a seed count")?
                    }
                    "--campaign-seed" => {
                        spec.campaign_seed =
                            parse_num(flag, take_value(flag, &mut iter)?, "an integer seed")?
                    }
                    "--placement" => {
                        let value = take_value(flag, &mut iter)?;
                        spec.placement =
                            Placement::parse(value).map_err(|_| ParseError::BadValue {
                                flag: flag.into(),
                                value: value.into(),
                                expected: "rooted | scattered | near-dispersed",
                            })?
                    }
                    "--max-rounds" => {
                        spec.max_rounds =
                            parse_num(flag, take_value(flag, &mut iter)?, "a round cap")?
                    }
                    "--edge-prob" => {
                        spec.edge_prob = parse_num(
                            flag,
                            take_value(flag, &mut iter)?,
                            "a probability in [0, 1]",
                        )?
                    }
                    "--jobs" => {
                        jobs = parse_num(flag, take_value(flag, &mut iter)?, "a worker count")?
                    }
                    "--out" => out_dir = take_value(flag, &mut iter)?.to_string(),
                    "--timeout" => {
                        timeout_secs = parse_num(
                            flag,
                            take_value(flag, &mut iter)?,
                            "a per-job watchdog in seconds (0 disarms)",
                        )?
                    }
                    "--retries" => {
                        retries = parse_num(flag, take_value(flag, &mut iter)?, "a retry count")?
                    }
                    "--threads" => {
                        threads =
                            parse_num(flag, take_value(flag, &mut iter)?, "an engine thread count")?
                    }
                    "--keep-traces" => keep_traces = true,
                    "--fresh" => fresh = true,
                    "--check" => check = true,
                    other => return Err(ParseError::UnknownFlag(other.into())),
                }
            }
            spec.validate().map_err(ParseError::InvalidSpec)?;
            Ok(Command::Campaign {
                spec,
                jobs: jobs.max(1),
                keep_traces,
                fresh,
                out_dir,
                check,
                timeout_secs,
                retries,
                threads: threads.max(1),
            })
        }
        "campaign-status" => {
            let mut artifact = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--artifact" => artifact = Some(take_value(flag, &mut iter)?.to_string()),
                    other => return Err(ParseError::UnknownFlag(other.into())),
                }
            }
            let artifact = artifact.ok_or(ParseError::MissingValue("--artifact".into()))?;
            Ok(Command::CampaignStatus { artifact })
        }
        "check" => {
            let mut artifact = None;
            let mut network = AdversaryKind::Churn;
            let mut n = 20usize;
            let mut k = 12usize;
            let mut seed = 7u64;
            let mut faults = 0usize;
            let mut structural = false;
            let mut threads = 1usize;
            while let Some(flag) = iter.next() {
                match flag {
                    "--artifact" => artifact = Some(take_value(flag, &mut iter)?.to_string()),
                    "--network" => network = parse_network(take_value(flag, &mut iter)?)?,
                    "--n" => {
                        n = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    "--k" => {
                        k = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    "--seed" => {
                        seed = parse_num(flag, take_value(flag, &mut iter)?, "an integer seed")?
                    }
                    "--faults" => {
                        faults = parse_num(flag, take_value(flag, &mut iter)?, "a fault count")?
                    }
                    "--structural" => structural = true,
                    "--threads" => {
                        threads =
                            parse_num(flag, take_value(flag, &mut iter)?, "an engine thread count")?
                    }
                    other => return Err(ParseError::UnknownFlag(other.into())),
                }
            }
            if artifact.is_none() {
                if k == 0 || n == 0 || k > n {
                    return Err(ParseError::Invalid("need 1 ≤ k ≤ n"));
                }
                if faults > k {
                    return Err(ParseError::Invalid("faults must not exceed k"));
                }
            }
            Ok(Command::Check {
                artifact,
                network,
                n,
                k,
                seed,
                faults,
                structural,
                threads: threads.max(1),
            })
        }
        "trap" => {
            let mut theorem = 1u8;
            let mut k = 6usize;
            let mut rounds = 500u64;
            while let Some(flag) = iter.next() {
                match flag {
                    "--theorem" => {
                        theorem = parse_num(flag, take_value(flag, &mut iter)?, "1 or 2")?
                    }
                    "--k" => {
                        k = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    "--rounds" => {
                        rounds = parse_num(flag, take_value(flag, &mut iter)?, "a round count")?
                    }
                    other => return Err(ParseError::UnknownFlag(other.into())),
                }
            }
            match theorem {
                1 if k >= 5 => {}
                2 if k >= 3 => {}
                1 => return Err(ParseError::Invalid("theorem 1 needs k ≥ 5")),
                2 => return Err(ParseError::Invalid("theorem 2 needs k ≥ 3")),
                _ => {
                    return Err(ParseError::BadValue {
                        flag: "--theorem".into(),
                        value: theorem.to_string(),
                        expected: "1 or 2",
                    })
                }
            }
            Ok(Command::Trap { theorem, k, rounds })
        }
        "dot" => {
            let mut network = AdversaryKind::Churn;
            let mut n = 12usize;
            let mut k = 8usize;
            let mut seed = 0u64;
            while let Some(flag) = iter.next() {
                match flag {
                    "--network" => network = parse_network(take_value(flag, &mut iter)?)?,
                    "--n" => {
                        n = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    "--k" => {
                        k = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    "--seed" => {
                        seed = parse_num(flag, take_value(flag, &mut iter)?, "an integer seed")?
                    }
                    other => return Err(ParseError::UnknownFlag(other.into())),
                }
            }
            if k == 0 || n == 0 || k > n {
                return Err(ParseError::Invalid("need 1 ≤ k ≤ n"));
            }
            Ok(Command::Dot {
                network,
                n,
                k,
                seed,
            })
        }
        "lower-bound" => {
            let mut k = 16usize;
            while let Some(flag) = iter.next() {
                match flag {
                    "--k" => {
                        k = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    other => return Err(ParseError::UnknownFlag(other.into())),
                }
            }
            if k < 2 {
                return Err(ParseError::Invalid("lower bound needs k ≥ 2"));
            }
            Ok(Command::LowerBound { k })
        }
        "memory" => {
            let mut max_k = 128usize;
            while let Some(flag) = iter.next() {
                match flag {
                    "--max-k" => {
                        max_k = parse_num(flag, take_value(flag, &mut iter)?, "a positive integer")?
                    }
                    other => return Err(ParseError::UnknownFlag(other.into())),
                }
            }
            if max_k < 2 {
                return Err(ParseError::Invalid("memory sweep needs max-k ≥ 2"));
            }
            Ok(Command::Memory { max_k })
        }
        other => Err(ParseError::UnknownCommand(other.into())),
    }
}

/// The `help` text.
pub const HELP: &str = "\
dispersion — mobile-robot dispersion on dynamic graphs (ICDCS 2020 reproduction)

USAGE:
    dispersion run [--network NET] [--n N] [--k K] [--seed S] [--faults F]
                   [--scattered] [--watch] [--json]
    dispersion sweep [--network NET] [--max-k K] [--seeds S]
    dispersion campaign [--name NAME] [--algorithms a,b,…] [--networks x,y,…]
                        [--ks 4,8,16] [--n-rule 3k/2] [--faults 0,1] [--seeds S]
                        [--campaign-seed S] [--placement rooted|scattered|near-dispersed]
                        [--max-rounds R] [--edge-prob P] [--jobs J] [--out DIR]
                        [--timeout SECS] [--retries R] [--threads T] [--fresh]
                        [--keep-traces] [--check]
    dispersion campaign-status --artifact FILE
    dispersion check [--artifact FILE | [--network NET] [--n N] [--k K] [--seed S]
                     [--faults F] [--structural]] [--threads T]
    dispersion trap --theorem 1|2 [--k K] [--rounds R]
    dispersion dot [--network NET] [--n N] [--k K] [--seed S]
    dispersion lower-bound [--k K]
    dispersion memory [--max-k K]
    dispersion help

NETWORKS:
    NET is a campaign network name: churn | static | static-star |
    static-cycle | ring | broken-ring | star-pair | t-interval | min-progress |
    path-trap | clique-trap (campaigns also take panic-probe). Single runs use
    the campaign defaults: edge probability 0.1, round cap 100000.

SUBCOMMANDS:
    run          run Algorithm 4 (global comm + 1-neighborhood knowledge)
    sweep        rounds-vs-k summary table over seeds (min/mean/max)
    campaign     run a (algorithm × network × k × faults × seed) grid in
                 parallel, streaming one JSONL record per run to
                 DIR/NAME.jsonl; reruns resume where the artifact stops;
                 --check arms the conformance monitor on every job;
                 --timeout cuts divergent runs off with `timeout` records,
                 --retries reruns panicked/timed-out jobs (same seed,
                 capped backoff) before quarantining them;
                 --threads gives every job T engine worker threads
                 (jobs × threads is clamped to the available cores)
    campaign-status
                 progress, per-status counts, retries, and quarantined
                 jobs read from a (possibly partial) campaign artifact
    check        run under the runtime invariant oracle: replay a campaign
                 artifact's runs under checking (default knobs; a replay
                 that differs from an ok record is flagged), or check one
                 spec directly (full suite; --structural drops the
                 Algorithm 4 theorem bounds); violations report the round,
                 the ids involved, and the replay seed
    dot          Graphviz DOT of one adversary round (occupancy annotated)
    trap         run a Theorem 1/2 impossibility trap against its victim
    lower-bound  run the Theorem 3 star-pair adversary (exactly k-1 rounds)
    memory       sweep k and report measured persistent bits (= ceil(log2 k))
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_defaults() {
        let cmd = parse(["run"]).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                network: AdversaryKind::Churn,
                n: 20,
                k: 12,
                seed: 7,
                faults: 0,
                scattered: false,
                watch: false,
                json: false,
            }
        );
    }

    #[test]
    fn parses_run_full() {
        let cmd = parse([
            "run",
            "--network",
            "star-pair",
            "--n",
            "30",
            "--k",
            "18",
            "--seed",
            "42",
            "--faults",
            "3",
            "--scattered",
            "--watch",
            "--json",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                network: AdversaryKind::StarPair,
                n: 30,
                k: 18,
                seed: 42,
                faults: 3,
                scattered: true,
                watch: true,
                json: true,
            }
        );
    }

    #[test]
    fn parses_sweep() {
        assert_eq!(
            parse([
                "sweep",
                "--network",
                "ring",
                "--max-k",
                "16",
                "--seeds",
                "3"
            ])
            .unwrap(),
            Command::Sweep {
                network: AdversaryKind::Ring,
                max_k: 16,
                seeds: 3,
            }
        );
        assert!(parse(["sweep", "--max-k", "2"]).is_err());
        assert!(parse(["sweep", "--seeds", "0"]).is_err());
    }

    #[test]
    fn parses_all_network_kinds() {
        // Every campaign network runs singly too, except the panic probe.
        for name in AdversaryKind::NAMES.split(" | ") {
            let parsed = parse(["run", "--network", name]);
            match AdversaryKind::parse(name).unwrap() {
                AdversaryKind::PanicProbe => {
                    assert!(matches!(parsed, Err(ParseError::Invalid(_))), "{name}")
                }
                kind => {
                    let Ok(Command::Run { network, .. }) = parsed else {
                        panic!("{name}: {parsed:?}");
                    };
                    assert_eq!(network, kind);
                }
            }
        }
        assert!(matches!(
            parse(["dot", "--network", "mesh"]),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_bad_run_args() {
        assert!(matches!(
            parse(["run", "--k", "30", "--n", "10"]),
            Err(ParseError::Invalid(_))
        ));
        assert!(matches!(
            parse(["run", "--faults", "99"]),
            Err(ParseError::Invalid(_))
        ));
        assert!(matches!(
            parse(["run", "--k"]),
            Err(ParseError::MissingValue(_))
        ));
        assert!(matches!(
            parse(["run", "--k", "abc"]),
            Err(ParseError::BadValue { .. })
        ));
        assert!(matches!(
            parse(["run", "--frobnicate"]),
            Err(ParseError::UnknownFlag(_))
        ));
    }

    #[test]
    fn parses_campaign_defaults() {
        let Command::Campaign {
            spec,
            jobs,
            keep_traces,
            fresh,
            out_dir,
            check,
            timeout_secs,
            retries,
            threads,
        } = parse(["campaign"]).unwrap()
        else {
            panic!("expected campaign");
        };
        assert_eq!(spec, CampaignSpec::default());
        assert_eq!(jobs, 1);
        assert!(!keep_traces && !fresh && !check);
        assert_eq!(out_dir, "results");
        assert_eq!(timeout_secs, 0, "watchdog disarmed by default");
        assert_eq!(retries, 0, "no retries by default");
        assert_eq!(threads, 1, "sequential engine by default");
    }

    #[test]
    fn parses_campaign_full() {
        let Command::Campaign {
            spec,
            jobs,
            keep_traces,
            fresh,
            out_dir,
            check,
            timeout_secs,
            retries,
            threads,
        } = parse([
            "campaign",
            "--name",
            "nightly",
            "--algorithms",
            "alg4,random-walk",
            "--networks",
            "churn,star-pair",
            "--ks",
            "4,8",
            "--n-rule",
            "k+5",
            "--faults",
            "0,1",
            "--seeds",
            "3",
            "--campaign-seed",
            "99",
            "--placement",
            "rooted",
            "--max-rounds",
            "5000",
            "--edge-prob",
            "0.25",
            "--jobs",
            "4",
            "--out",
            "artifacts",
            "--timeout",
            "30",
            "--retries",
            "2",
            "--threads",
            "2",
            "--fresh",
            "--keep-traces",
            "--check",
        ])
        .unwrap()
        else {
            panic!("expected campaign");
        };
        assert_eq!(spec.name, "nightly");
        assert_eq!(
            spec.algorithms,
            vec![AlgorithmKind::Alg4, AlgorithmKind::RandomWalk]
        );
        assert_eq!(
            spec.adversaries,
            vec![AdversaryKind::Churn, AdversaryKind::StarPair]
        );
        assert_eq!(spec.ks, vec![4, 8]);
        assert_eq!(spec.n_rule, NRule::k_plus(5));
        assert_eq!(spec.faults, vec![0, 1]);
        assert_eq!(spec.seeds, 3);
        assert_eq!(spec.campaign_seed, 99);
        assert_eq!(spec.placement, Placement::Rooted);
        assert_eq!(spec.max_rounds, 5000);
        assert!((spec.edge_prob - 0.25).abs() < 1e-12);
        assert_eq!(jobs, 4);
        assert!(keep_traces && fresh && check);
        assert_eq!(out_dir, "artifacts");
        assert_eq!(timeout_secs, 30);
        assert_eq!(retries, 2);
        assert_eq!(threads, 2);
    }

    #[test]
    fn parses_campaign_status() {
        assert_eq!(
            parse(["campaign-status", "--artifact", "results/nightly.jsonl"]).unwrap(),
            Command::CampaignStatus {
                artifact: "results/nightly.jsonl".into()
            }
        );
        assert!(matches!(
            parse(["campaign-status"]),
            Err(ParseError::MissingValue(_))
        ));
        assert!(matches!(
            parse(["campaign-status", "--frobnicate"]),
            Err(ParseError::UnknownFlag(_))
        ));
        assert!(matches!(
            parse(["campaign", "--retries", "many"]),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn parses_check() {
        assert_eq!(
            parse([
                "check",
                "--network",
                "ring",
                "--n",
                "10",
                "--k",
                "6",
                "--seed",
                "3"
            ])
            .unwrap(),
            Command::Check {
                artifact: None,
                network: AdversaryKind::Ring,
                n: 10,
                k: 6,
                seed: 3,
                faults: 0,
                structural: false,
                threads: 1,
            }
        );
        let Command::Check { threads, .. } = parse(["check", "--threads", "4"]).unwrap() else {
            panic!("expected check");
        };
        assert_eq!(threads, 4);
        let Command::Check {
            artifact,
            structural,
            ..
        } = parse([
            "check",
            "--artifact",
            "results/nightly.jsonl",
            "--structural",
        ])
        .unwrap()
        else {
            panic!("expected check");
        };
        assert_eq!(artifact.as_deref(), Some("results/nightly.jsonl"));
        assert!(structural);
        // Spec mode validates like `run`; artifact mode skips it.
        assert!(matches!(
            parse(["check", "--k", "30", "--n", "10"]),
            Err(ParseError::Invalid(_))
        ));
        assert!(parse(["check", "--artifact", "a.jsonl", "--k", "30", "--n", "10"]).is_ok());
        assert!(matches!(
            parse(["check", "--frobnicate"]),
            Err(ParseError::UnknownFlag(_))
        ));
    }

    #[test]
    fn rejects_bad_campaign_args() {
        assert!(matches!(
            parse(["campaign", "--algorithms", "alg4,mesh"]),
            Err(ParseError::BadValue { .. })
        ));
        assert!(matches!(
            parse(["campaign", "--networks", ""]),
            Err(ParseError::BadValue { .. })
        ));
        assert!(matches!(
            parse(["campaign", "--n-rule", "q/0"]),
            Err(ParseError::BadValue { .. })
        ));
        // An invalid grid (n < k) fails spec validation at parse time.
        assert!(matches!(
            parse(["campaign", "--n-rule", "k/2"]),
            Err(ParseError::InvalidSpec(_))
        ));
        assert!(matches!(
            parse(["campaign", "--seeds", "0"]),
            Err(ParseError::InvalidSpec(_))
        ));
    }

    #[test]
    fn parses_trap() {
        assert_eq!(
            parse(["trap", "--theorem", "2", "--k", "4", "--rounds", "100"]).unwrap(),
            Command::Trap {
                theorem: 2,
                k: 4,
                rounds: 100
            }
        );
        assert!(matches!(
            parse(["trap", "--theorem", "1", "--k", "3"]),
            Err(ParseError::Invalid(_))
        ));
        assert!(matches!(
            parse(["trap", "--theorem", "3"]),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn parses_dot() {
        assert_eq!(
            parse(["dot", "--network", "star-pair", "--n", "10", "--k", "6"]).unwrap(),
            Command::Dot {
                network: AdversaryKind::StarPair,
                n: 10,
                k: 6,
                seed: 0,
            }
        );
        assert!(parse(["dot", "--k", "20", "--n", "5"]).is_err());
    }

    #[test]
    fn parses_lower_bound_and_memory() {
        assert_eq!(
            parse(["lower-bound", "--k", "9"]).unwrap(),
            Command::LowerBound { k: 9 }
        );
        assert!(parse(["lower-bound", "--k", "1"]).is_err());
        assert_eq!(
            parse(["memory", "--max-k", "64"]).unwrap(),
            Command::Memory { max_k: 64 }
        );
        assert!(parse(["memory", "--max-k", "1"]).is_err());
    }

    #[test]
    fn help_and_errors() {
        assert_eq!(parse(["help"]).unwrap(), Command::Help);
        assert_eq!(parse(["--help"]).unwrap(), Command::Help);
        assert_eq!(parse([]).unwrap_err(), ParseError::MissingCommand);
        assert!(matches!(
            parse(["frob"]),
            Err(ParseError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse(["bench"]),
            Err(ParseError::UnknownCommand(_))
        ));
        // Errors render.
        assert!(ParseError::MissingCommand.to_string().contains("help"));
    }
}
