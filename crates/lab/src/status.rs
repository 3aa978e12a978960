//! Progress inspection of a (possibly partial) campaign artifact.
//!
//! `dispersion campaign-status` renders this: how far a campaign got,
//! which jobs are still mid-retry, and which were quarantined — read
//! purely from the artifact, so it works on a live campaign's file, on
//! the debris of a crashed one, and on a finished run alike.

use std::collections::BTreeMap;
use std::path::Path;

use crate::artifact::{read_artifact, Entry};
use crate::job::{RunRecord, RunStatus, ALL_STATUSES};
use crate::LabError;

/// Everything a scan of one artifact reveals.
#[derive(Debug, Default)]
pub struct ArtifactStatus {
    /// Campaign name from the header, if the header survived.
    pub name: Option<String>,
    /// Spec hash from the header.
    pub spec_hash: Option<String>,
    /// Grid size from the header.
    pub total_jobs: Option<u64>,
    /// Per job, the record of its highest attempt (the job's current
    /// state), keyed by job id for deterministic rendering.
    pub latest: BTreeMap<u64, RunRecord>,
    /// Complete run records seen (all attempts).
    pub records: usize,
    /// Whether the artifact ends in a torn (incomplete) line — the
    /// signature of an interrupted writer, repaired on the next resume.
    pub torn_tail: bool,
}

impl ArtifactStatus {
    /// Jobs whose latest record has this status.
    pub fn count(&self, status: RunStatus) -> usize {
        self.latest.values().filter(|r| r.status == status).count()
    }

    /// Jobs whose latest record is a final verdict regardless of any
    /// retry budget (`ok` / `error` / `violation` / `quarantined`).
    /// Jobs sitting on a `panic`/`timeout` attempt may still be retried
    /// by a resume, depending on the budget it runs with.
    pub fn settled(&self) -> usize {
        self.latest
            .values()
            .filter(|r| !r.status.is_retryable())
            .count()
    }

    /// Attempts that were superseded by a later attempt of the same job.
    pub fn retried_attempts(&self) -> usize {
        self.records - self.latest.len()
    }

    /// The quarantined jobs, in job-id order.
    pub fn quarantined(&self) -> impl Iterator<Item = &RunRecord> {
        self.latest
            .values()
            .filter(|r| r.status == RunStatus::Quarantined)
    }

    /// Renders the human-readable status block.
    pub fn render(&self) -> String {
        let mut out = match (&self.name, &self.spec_hash) {
            (Some(name), Some(hash)) => format!("campaign `{name}` (spec {hash})"),
            _ => "campaign artifact (no header — repaired on next resume)".to_string(),
        };
        match self.total_jobs {
            Some(total) => out.push_str(&format!(
                ": {}/{total} jobs settled ({} awaiting possible retry)\n",
                self.settled(),
                self.latest.len() - self.settled(),
            )),
            None => out.push_str(&format!(": {} jobs seen\n", self.latest.len())),
        }
        out.push_str(&format!("records: {}", self.records));
        for status in ALL_STATUSES {
            let n = self.count(status);
            if n > 0 {
                out.push_str(&format!(", {n} {}", status.name()));
            }
        }
        out.push_str(&format!(", {} retried attempts\n", self.retried_attempts()));
        if self.torn_tail {
            out.push_str("torn trailing line: yes (interrupted writer; next resume repairs it)\n");
        }
        let quarantined: Vec<&RunRecord> = self.quarantined().collect();
        if !quarantined.is_empty() {
            out.push_str("quarantined jobs:\n");
            for rec in quarantined {
                out.push_str(&format!(
                    "  {}: {}\n",
                    rec.label(),
                    rec.message.as_deref().unwrap_or("(no message)"),
                ));
            }
        }
        out
    }
}

/// Scans an artifact into an [`ArtifactStatus`]. Tolerant by design:
/// garbage lines and torn tails are reported, never fatal — this is the
/// tool you reach for exactly when a campaign died messily.
pub fn read_status(path: &Path) -> Result<ArtifactStatus, LabError> {
    let mut status = ArtifactStatus::default();
    let tail = read_artifact(path, |entry| {
        match entry {
            Entry::Header(header) => {
                status.name = Some(header.name);
                status.spec_hash = Some(header.spec_hash);
                status.total_jobs = Some(header.jobs);
            }
            Entry::Run(rec) => {
                status.records += 1;
                match status.latest.get(&rec.job_id) {
                    Some(prev) if prev.attempt > rec.attempt => {}
                    _ => {
                        status.latest.insert(rec.job_id, rec);
                    }
                }
            }
        }
        Ok(())
    })?;
    status.torn_tail = tail.torn;
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::RunStatus;

    fn rec(job_id: u64, attempt: u64, status: RunStatus) -> RunRecord {
        RunRecord {
            job_id,
            spec_hash: 1,
            algorithm: "alg4".into(),
            adversary: "churn".into(),
            n: 12,
            k: 8,
            faults: 0,
            seed_index: 0,
            seed: 7,
            attempt,
            status,
            dispersed: status == RunStatus::Ok,
            rounds: 5,
            moves: 9,
            max_memory_bits: 3,
            crashes: 0,
            wall_time_us: 11,
            message: (status != RunStatus::Ok).then(|| "boom".into()),
            trace_json: None,
        }
    }

    fn write_artifact(name: &str, lines: &[String]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dispersion-status-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }

    #[test]
    fn reads_progress_retries_and_quarantine() {
        let header = r#"{"type":"campaign","name":"st","spec_hash":"0000000000000001","jobs":3}"#;
        let lines = vec![
            header.to_string(),
            rec(0, 0, RunStatus::Ok).to_json_line(),
            rec(1, 0, RunStatus::Panic).to_json_line(),
            rec(1, 1, RunStatus::Quarantined).to_json_line(),
            "not json at all".to_string(),
            rec(2, 0, RunStatus::Timeout).to_json_line(),
        ];
        let path = write_artifact("progress.jsonl", &lines);
        let status = read_status(&path).unwrap();
        assert_eq!(status.name.as_deref(), Some("st"));
        assert_eq!(status.total_jobs, Some(3));
        assert_eq!(status.records, 4);
        assert_eq!(status.latest.len(), 3);
        assert_eq!(status.retried_attempts(), 1);
        assert_eq!(status.settled(), 2, "ok + quarantined; timeout may retry");
        assert_eq!(status.count(RunStatus::Quarantined), 1);
        assert_eq!(status.quarantined().count(), 1);
        assert!(!status.torn_tail);
        let rendered = status.render();
        assert!(rendered.contains("2/3 jobs settled"), "{rendered}");
        assert!(rendered.contains("1 timeout"), "{rendered}");
        assert!(rendered.contains("quarantined jobs:"), "{rendered}");
        assert!(rendered.contains("job 1"), "{rendered}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flags_torn_tails_and_missing_headers() {
        let dir = std::env::temp_dir().join("dispersion-status-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let mut body = rec(0, 0, RunStatus::Ok).to_json_line();
        body.push('\n');
        body.push_str("{\"type\":\"run\",\"job_id\":1,\"trunc");
        std::fs::write(&path, &body).unwrap();
        let status = read_status(&path).unwrap();
        assert!(status.torn_tail);
        assert_eq!(status.records, 1);
        assert!(status.name.is_none());
        let rendered = status.render();
        assert!(rendered.contains("no header"), "{rendered}");
        assert!(rendered.contains("torn trailing line: yes"), "{rendered}");
        let _ = std::fs::remove_file(&path);
    }
}
