//! The campaign artifact: the one place that knows its JSONL format.
//!
//! An artifact is `<out_dir>/<name>.jsonl`: a [`Header`] line naming the
//! campaign and the knobs a replay needs, then one run record per job
//! attempt, appended by the runner's writer. A **durable line** is a
//! complete JSON object ended by `\n`, and only durable lines exist as
//! far as any reader is concerned. Bytes after the last `\n` are a *torn
//! tail* — a writer killed mid-append — which [`read_artifact`] reports
//! and skips, and which the next resume cuts away. Resume
//! ([`scan_artifact`]), the end-of-campaign report, `campaign-status`
//! ([`crate::read_status`]) and `check --artifact` are all folds over
//! [`read_artifact`], so they agree on which records exist.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::failpoint::FailAction;
use crate::job::RunRecord;
use crate::json::{self, JsonObject};
use crate::runner::{FsyncPolicy, RunnerOptions};
use crate::spec::{CampaignSpec, Placement};
use crate::LabError;

/// The artifact path a campaign writes to under these options.
pub fn artifact_path(spec: &CampaignSpec, opts: &RunnerOptions) -> PathBuf {
    opts.out_dir.join(format!("{}.jsonl", spec.name))
}

/// The header record: the spec's identity, plus the run knobs a replay
/// needs that the run records do not carry.
#[derive(Clone, Debug, PartialEq)]
pub struct Header {
    /// Campaign name.
    pub name: String,
    /// The spec hash as stored: 16 lowercase hex digits when written by
    /// this runner.
    pub spec_hash: String,
    /// Grid size.
    pub jobs: u64,
    /// Initial placement of the runs.
    pub placement: Placement,
    /// Round cap of the runs.
    pub max_rounds: u64,
    /// Edge probability of the random networks.
    pub edge_prob: f64,
}

impl Header {
    /// The header a campaign over `spec` writes.
    pub fn of(spec: &CampaignSpec) -> Self {
        Header {
            name: spec.name.clone(),
            spec_hash: format!("{:016x}", spec.spec_hash()),
            jobs: spec.job_count(),
            placement: spec.placement,
            max_rounds: spec.max_rounds,
            edge_prob: spec.edge_prob,
        }
    }

    /// Renders the one-line JSON form (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "campaign")
            .str_field("name", &self.name)
            .str_field("spec_hash", &self.spec_hash)
            .u64_field("jobs", self.jobs)
            .str_field("placement", self.placement.name())
            .u64_field("max_rounds", self.max_rounds)
            // `Display` writes the shortest text that parses back to the
            // same `f64`, so the value round-trips exactly.
            .raw_field("edge_prob", &self.edge_prob.to_string());
        o.finish()
    }

    /// Parses a header line; `None` for any other line. A knob the line
    /// lacks (as in headers written before it was recorded) takes the
    /// [`CampaignSpec`] default.
    pub fn parse_line(line: &str) -> Option<Self> {
        if !json::is_complete_object(line) || json::str_value(line, "type")? != "campaign" {
            return None;
        }
        let defaults = CampaignSpec::default();
        Some(Header {
            name: json::str_value(line, "name").unwrap_or_default(),
            spec_hash: json::str_value(line, "spec_hash").unwrap_or_default(),
            jobs: json::value(line, "jobs").unwrap_or_default(),
            placement: json::str_value(line, "placement")
                .and_then(|name| Placement::parse(&name).ok())
                .unwrap_or(defaults.placement),
            max_rounds: json::value(line, "max_rounds").unwrap_or(defaults.max_rounds),
            edge_prob: json::value(line, "edge_prob").unwrap_or(defaults.edge_prob),
        })
    }
}

/// A durable line the format knows. Garbage and foreign lines are
/// durable too, but yield no entry.
#[derive(Clone, Debug, PartialEq)]
pub enum Entry {
    /// A campaign header.
    Header(Header),
    /// One run record.
    Run(RunRecord),
}

/// How an artifact's bytes end, as [`read_artifact`] found them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tail {
    /// Bytes up to and including the last `\n`.
    pub durable_len: u64,
    /// Whether bytes follow the last `\n`: a torn tail.
    pub torn: bool,
    /// Whether the first line is a campaign header.
    pub starts_with_header: bool,
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> LabError + '_ {
    move |e| LabError::Io(path.display().to_string(), e)
}

/// Streams the durable lines of the artifact at `path` in file order,
/// handing every header and run record to `visit`; an error from `visit`
/// stops the read and is returned. Lines that are not valid UTF-8 count
/// as garbage. Returns how the file ends.
pub fn read_artifact(
    path: &Path,
    mut visit: impl FnMut(Entry) -> Result<(), LabError>,
) -> Result<Tail, LabError> {
    let file = File::open(path).map_err(io_err(path))?;
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    let mut tail = Tail::default();
    loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line).map_err(io_err(path))?;
        if n == 0 {
            return Ok(tail);
        }
        if line.last() != Some(&b'\n') {
            tail.torn = true;
            return Ok(tail);
        }
        let entry = std::str::from_utf8(&line).ok().and_then(|line| {
            let line = line.trim_end();
            RunRecord::parse_line(line)
                .map(Entry::Run)
                .or_else(|| Header::parse_line(line).map(Entry::Header))
        });
        if tail.durable_len == 0 {
            tail.starts_with_header = matches!(entry, Some(Entry::Header(_)));
        }
        tail.durable_len += n as u64;
        if let Some(entry) = entry {
            visit(entry)?;
        }
    }
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

/// Scans an existing artifact: checks every header's spec hash, and
/// classifies every durable run record as terminal (job done) or a
/// retryable attempt (job resumes at the following attempt number).
/// Garbage lines, foreign documents and a torn tail hold no record, so
/// the affected job simply re-runs. Terminal-ness depends on the retry
/// budget the *resuming* invocation runs with: `retries` here is
/// [`RunnerOptions::retries`].
pub fn scan_artifact(
    path: &Path,
    spec: &CampaignSpec,
    retries: u64,
) -> Result<ArtifactScan, LabError> {
    scan_with_tail(path, spec, retries).map(|(scan, _)| scan)
}

fn scan_with_tail(
    path: &Path,
    spec: &CampaignSpec,
    retries: u64,
) -> Result<(ArtifactScan, Tail), LabError> {
    let expected = format!("{:016x}", spec.spec_hash());
    let mut scan = ArtifactScan::default();
    let tail = read_artifact(path, |entry| {
        match entry {
            Entry::Header(header) if header.spec_hash != expected => {
                return Err(LabError::SpecMismatch {
                    artifact: path.display().to_string(),
                    stored: header.spec_hash,
                    expected: expected.clone(),
                });
            }
            Entry::Header(_) => scan.saw_header = true,
            // A terminal verdict is final.
            Entry::Run(rec) if scan.done.contains(&rec.job_id) => {}
            Entry::Run(rec) if rec.status.is_terminal(rec.attempt, retries) => {
                scan.done.insert(rec.job_id);
                scan.next_attempt.remove(&rec.job_id);
            }
            Entry::Run(rec) => {
                let next = scan.next_attempt.entry(rec.job_id).or_insert(0);
                *next = (*next).max(rec.attempt + 1);
            }
        }
        Ok(())
    })?;
    Ok((scan, tail))
}

/// Atomically (re)writes the artifact as a header line followed by the
/// first `durable_len` bytes of the existing file: temp file, rename
/// over, directory fsync. This creates a new artifact (`durable_len` 0)
/// and restores the header of one that lost it (torn away with its first
/// line); records are kept verbatim and a torn tail is dropped.
fn write_header(path: &Path, spec: &CampaignSpec, durable_len: u64) -> Result<(), LabError> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut out = File::create(&tmp).map_err(io_err(&tmp))?;
        let header = format!("{}\n", Header::of(spec).to_line());
        out.write_all(header.as_bytes()).map_err(io_err(&tmp))?;
        if durable_len > 0 {
            let body = File::open(path).map_err(io_err(path))?;
            std::io::copy(&mut body.take(durable_len), &mut out).map_err(io_err(path))?;
        }
        out.sync_data().map_err(io_err(&tmp))?;
    }
    fs::rename(&tmp, path).map_err(io_err(path))?;
    // Directory fsync is a Unix-ism; where a directory cannot be opened,
    // there is nothing to sync.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Ok(d) = File::open(dir.unwrap_or(Path::new("."))) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Opens the artifact for appending and scans what it already holds.
/// Without an artifact, or with `opts.fresh`, a new one is written with
/// its header. An existing one is scanned for resume (see
/// [`scan_artifact`]) and then repaired from what the scan saw: a torn
/// tail is cut away, and a missing first-line header is restored — so an
/// artifact interrupted at *any* byte resumes cleanly. The scan counts
/// durable lines only, so it never counts a record the repair removes.
pub(crate) fn open_artifact(
    path: &Path,
    spec: &CampaignSpec,
    opts: &RunnerOptions,
) -> Result<(ArtifactScan, File), LabError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(io_err(dir))?;
    }
    let (scan, tail) = if path.exists() && !opts.fresh {
        scan_with_tail(path, spec, opts.retries)?
    } else {
        Default::default()
    };
    if !tail.starts_with_header {
        write_header(path, spec, tail.durable_len)?;
    } else if tail.torn {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(io_err(path))?;
        file.set_len(tail.durable_len)
            .and_then(|()| file.sync_data())
            .map_err(io_err(path))?;
    }
    let file = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(io_err(path))?;
    Ok((scan, file))
}

/// Appends one record under the configured durability policy, honoring
/// any `writer:append` failpoint. The record and its `\n` go out in one
/// write, so a kill leaves either a durable line or a torn tail. An
/// injected crash/torn-write returns the error that aborts the campaign
/// — simulating the process dying at exactly this byte.
pub(crate) fn append_record(
    file: &mut File,
    path: &Path,
    opts: &RunnerOptions,
    rec: &RunRecord,
) -> Result<(), LabError> {
    let mut line = rec.to_json_line();
    line.push('\n');
    let bytes = line.as_bytes();
    match opts.failpoints.fire("writer:append") {
        Some(FailAction::TornWrite { keep }) => {
            // At most the record without its `\n`: never a durable line.
            file.write_all(&bytes[..keep.min(bytes.len() - 1)])
                .and_then(|()| file.sync_data())
                .map_err(io_err(path))?;
            return Err(FailAction::TornWrite { keep }.abort("writer:append"));
        }
        Some(a @ (FailAction::Crash | FailAction::Panic)) => {
            return Err(a.abort("writer:append"));
        }
        Some(FailAction::Hang { ms }) => std::thread::sleep(Duration::from_millis(ms)),
        None => {}
    }
    file.write_all(bytes).map_err(io_err(path))?;
    match opts.fsync {
        FsyncPolicy::EveryRecord => file.sync_data().map_err(io_err(path)),
        FsyncPolicy::Never => file.flush().map_err(io_err(path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(path: &Path) -> (Vec<Entry>, Tail) {
        let mut entries = Vec::new();
        let tail = read_artifact(path, |e| {
            entries.push(e);
            Ok(())
        })
        .unwrap();
        (entries, tail)
    }

    #[test]
    fn header_round_trips_hash() {
        let spec = CampaignSpec::default();
        let line = Header::of(&spec).to_line();
        assert_eq!(
            json::str_value(&line, "spec_hash"),
            Some(format!("{:016x}", spec.spec_hash()))
        );
        assert_eq!(json::value(&line, "jobs"), Some(spec.job_count()));
        assert_eq!(Header::parse_line(&line), Some(Header::of(&spec)));
    }

    #[test]
    fn header_round_trips_replay_knobs() {
        let spec = CampaignSpec {
            placement: Placement::Rooted,
            max_rounds: 3,
            edge_prob: 0.123_456_789,
            ..CampaignSpec::default()
        };
        let line = Header::of(&spec).to_line();
        let read = Header::parse_line(&line).unwrap();
        assert_eq!(read.placement, Placement::Rooted);
        assert_eq!(read.max_rounds, 3);
        assert_eq!(
            read.edge_prob.to_bits(),
            spec.edge_prob.to_bits(),
            "exact, not rounded"
        );
        // A run record is not a header, whatever fields it carries.
        assert_eq!(Header::parse_line(&line.replace("campaign", "run")), None);
        // An older header without the knobs reads the defaults.
        let old = r#"{"type":"campaign","name":"c","spec_hash":"0000000000000001","jobs":3}"#;
        let read = Header::parse_line(old).unwrap();
        assert_eq!((read.name.as_str(), read.jobs), ("c", 3));
        assert_eq!(read.placement, CampaignSpec::default().placement);
        assert_eq!(read.max_rounds, CampaignSpec::default().max_rounds);
        assert_eq!(read.edge_prob, CampaignSpec::default().edge_prob);
    }

    #[test]
    fn reader_yields_durable_lines_only() {
        let dir = std::env::temp_dir().join("dispersion-artifact-reader-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.jsonl");
        let spec = CampaignSpec::default();
        let header = Header::of(&spec).to_line();
        // Garbage, a non-UTF-8 line and a blank line are durable but
        // hold no entry; the final header lacks its `\n`, so it is torn.
        let mut body = format!("{header}\nnot json\n").into_bytes();
        body.extend_from_slice(b"{\"type\":\"\xff\"}\n\n");
        body.extend_from_slice(header.as_bytes());
        fs::write(&path, &body).unwrap();
        let (entries, tail) = read_all(&path);
        assert_eq!(entries, vec![Entry::Header(Header::of(&spec))]);
        assert_eq!(
            tail,
            Tail {
                durable_len: (body.len() - header.len()) as u64,
                torn: true,
                starts_with_header: true,
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_line_boundary() {
        let dir = std::env::temp_dir().join("dispersion-torn-tail-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let spec = CampaignSpec::default();
        let path = dir.join("a.jsonl");
        let header = format!("{}\n", Header::of(&spec).to_line()).into_bytes();
        let mut body = header.clone();
        body.extend_from_slice(b"{\"type\":\"run\",\"job_id\":9,\"tru");
        fs::write(&path, &body).unwrap();
        drop(open_artifact(&path, &spec, &RunnerOptions::default()).unwrap());
        assert_eq!(fs::read(&path).unwrap(), header);
        // Idempotent on a clean file.
        drop(open_artifact(&path, &spec, &RunnerOptions::default()).unwrap());
        assert_eq!(fs::read(&path).unwrap(), header);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_artifact_is_rewritten_atomically() {
        let dir = std::env::temp_dir().join("dispersion-header-rewrite-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let spec = CampaignSpec::default();
        let path = dir.join(format!("{}.jsonl", spec.name));
        // An artifact whose header was torn away, leaving only records
        // and a torn tail.
        let record = "{\"type\":\"run\",\"job_id\":0}\n";
        fs::write(&path, format!("{record}{{\"type\":\"ru")).unwrap();
        drop(open_artifact(&path, &spec, &RunnerOptions::default()).unwrap());
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{}\n{record}", Header::of(&spec).to_line()));
        assert!(!path.with_extension("jsonl.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
