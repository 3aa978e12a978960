//! Aggregation of run records into a per-cell report.
//!
//! A finished campaign folds every durable [`RunRecord`] of its artifact
//! into a [`CampaignReport`], which holds per-run *statistics* (a handful
//! of scalars), never full traces.

use std::collections::BTreeMap;

use dispersion_engine::stats::{RunStats, RunSummary};

use crate::job::{RunRecord, RunStatus};

/// One grid cell: everything but the seed.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
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
}

impl CellKey {
    fn of(rec: &RunRecord) -> Self {
        CellKey {
            algorithm: rec.algorithm.clone(),
            adversary: rec.adversary.clone(),
            n: rec.n,
            k: rec.k,
            faults: rec.faults,
        }
    }
}

/// Folded statistics of one cell.
#[derive(Clone, Debug, Default)]
pub struct CellStats {
    /// Per-run scalar stats of the `ok` runs.
    ok: Vec<RunStats>,
    /// Runs that panicked.
    pub panics: usize,
    /// Runs the simulator rejected.
    pub errors: usize,
    /// Runs the conformance monitor flagged.
    pub violations: usize,
    /// Runs cut off by the per-job watchdog budget.
    pub timeouts: usize,
    /// Jobs retired after exhausting their retry budget.
    pub quarantined: usize,
    /// Non-terminal attempts (failures that were retried); these do not
    /// count as runs of any terminal status.
    pub retried: usize,
}

impl CellStats {
    /// Folds one terminal record in.
    pub fn push(&mut self, rec: &RunRecord) {
        match rec.status {
            RunStatus::Ok => self.ok.push(RunStats {
                dispersed: rec.dispersed,
                rounds: rec.rounds,
                moves: rec.moves,
                max_memory_bits: rec.max_memory_bits,
                crashes: rec.crashes,
            }),
            RunStatus::Panic => self.panics += 1,
            RunStatus::Error => self.errors += 1,
            RunStatus::Violation => self.violations += 1,
            RunStatus::Timeout => self.timeouts += 1,
            RunStatus::Quarantined => self.quarantined += 1,
        }
    }

    /// Failures that ended the job: everything but `ok` and the
    /// retried-away attempts.
    pub fn failed_runs(&self) -> usize {
        self.panics + self.errors + self.violations + self.timeouts + self.quarantined
    }

    /// Number of `ok` runs folded in.
    pub fn ok_runs(&self) -> usize {
        self.ok.len()
    }

    /// Summary over the `ok` runs, or `None` if every run failed.
    pub fn run_summary(&self) -> Option<RunSummary> {
        if self.ok.is_empty() {
            return None;
        }
        Some(RunSummary::from_stats(self.ok.iter().copied()))
    }
}

/// The aggregate result of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Per-cell folded statistics, in deterministic (sorted) order.
    pub cells: BTreeMap<CellKey, CellStats>,
    /// Jobs executed this invocation (excludes resumed-over jobs).
    pub executed: usize,
    /// Jobs skipped because the artifact already held their records.
    pub resumed: usize,
}

impl CampaignReport {
    /// Folds one record under a retry budget. Terminal records count
    /// toward their status; a retryable failure that was rerun (its
    /// attempt index is inside the budget) counts only as a retry, so
    /// folding a full artifact never double-counts a job.
    pub fn fold_with_retries(&mut self, rec: &RunRecord, retries: u64) {
        let cell = self.cells.entry(CellKey::of(rec)).or_default();
        if rec.status.is_terminal(rec.attempt, retries) {
            cell.push(rec);
        } else {
            cell.retried += 1;
        }
    }

    /// Total panicking runs across cells.
    pub fn total_panics(&self) -> usize {
        self.cells.values().map(|c| c.panics).sum()
    }

    /// Total invariant violations across cells.
    pub fn total_violations(&self) -> usize {
        self.cells.values().map(|c| c.violations).sum()
    }

    /// Total watchdog timeouts across cells.
    pub fn total_timeouts(&self) -> usize {
        self.cells.values().map(|c| c.timeouts).sum()
    }

    /// Total quarantined jobs across cells.
    pub fn total_quarantined(&self) -> usize {
        self.cells.values().map(|c| c.quarantined).sum()
    }

    /// Total retried (non-terminal) attempts across cells.
    pub fn total_retries(&self) -> usize {
        self.cells.values().map(|c| c.retried).sum()
    }

    /// Renders the aligned per-cell report table.
    pub fn render(&self) -> String {
        let mut table = Table::new([
            "algorithm",
            "adversary",
            "n",
            "k",
            "f",
            "runs",
            "dispersed",
            "rounds (min/mean/max)",
            "moves (mean)",
            "mem bits",
            "t/o",
            "quar",
            "retried",
            "bad",
        ]);
        for (key, cell) in &self.cells {
            let runs = match cell.run_summary() {
                Some(s) => [
                    s.samples.to_string(),
                    if s.all_dispersed { "all" } else { "NOT all" }.into(),
                    format!("{}/{:.1}/{}", s.min_rounds, s.mean_rounds, s.max_rounds),
                    format!("{:.1}", s.mean_moves),
                    s.max_memory_bits.to_string(),
                ],
                None => ["0", "-", "-", "-", "-"].map(String::from),
            };
            table.row(
                [
                    key.algorithm.clone(),
                    key.adversary.clone(),
                    key.n.to_string(),
                    key.k.to_string(),
                    key.faults.to_string(),
                ]
                .into_iter()
                .chain(runs)
                .chain([
                    cell.timeouts.to_string(),
                    cell.quarantined.to_string(),
                    cell.retried.to_string(),
                    cell.failed_runs().to_string(),
                ]),
            );
        }
        table.render()
    }
}

/// A minimal aligned-text table renderer for experiment output.
///
/// Lives here (rather than in the bench harness) so both the campaign
/// report and the experiment binaries share one renderer;
/// `dispersion-bench` re-exports it.
#[derive(Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            out.push('\n');
            out.push_str(&fmt_row(row));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(algorithm: &str, k: usize, rounds: u64, status: RunStatus) -> RunRecord {
        RunRecord {
            job_id: 0,
            spec_hash: 0,
            algorithm: algorithm.into(),
            adversary: "churn".into(),
            n: 2 * k,
            k,
            faults: 0,
            seed_index: 0,
            seed: 0,
            attempt: 0,
            status,
            dispersed: status == RunStatus::Ok,
            rounds,
            moves: 2 * rounds,
            max_memory_bits: 3,
            crashes: 0,
            wall_time_us: 0,
            message: None,
            trace_json: None,
        }
    }

    #[test]
    fn folds_cells_and_summarizes() {
        let mut report = CampaignReport::default();
        report.fold_with_retries(&record("alg4", 8, 5, RunStatus::Ok), 0);
        report.fold_with_retries(&record("alg4", 8, 7, RunStatus::Ok), 0);
        report.fold_with_retries(&record("alg4", 8, 0, RunStatus::Panic), 0);
        report.fold_with_retries(&record("random-walk", 8, 90, RunStatus::Ok), 0);
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.total_panics(), 1);
        let alg4 = report.cells.values().next().unwrap();
        let s = alg4.run_summary().unwrap();
        assert_eq!(s.samples, 2);
        assert_eq!(s.max_rounds, 7);
        assert!((s.mean_moves - 12.0).abs() < 1e-9);
        let rendered = report.render();
        assert!(rendered.contains("alg4"), "{rendered}");
        assert!(rendered.contains("5/6.0/7"), "{rendered}");
    }

    #[test]
    fn all_failed_cell_renders_dashes() {
        let mut report = CampaignReport::default();
        report.fold_with_retries(&record("alg4", 4, 0, RunStatus::Error), 0);
        let cell = report.cells.values().next().unwrap();
        assert!(cell.run_summary().is_none());
        assert_eq!(cell.ok_runs(), 0);
        assert!(report
            .render()
            .lines()
            .last()
            .unwrap()
            .trim()
            .ends_with('1'));
    }

    #[test]
    fn retried_attempts_fold_apart_from_terminal_records() {
        // attempt 0 panic (retried), attempt 1 timeout (retried),
        // attempt 2 quarantined (terminal) under retries = 2.
        let mut report = CampaignReport::default();
        for (attempt, status) in [
            (0, RunStatus::Panic),
            (1, RunStatus::Timeout),
            (2, RunStatus::Quarantined),
        ] {
            let mut rec = record("alg4", 8, 0, status);
            rec.attempt = attempt;
            report.fold_with_retries(&rec, 2);
        }
        let cell = report.cells.values().next().unwrap();
        assert_eq!(cell.retried, 2);
        assert_eq!(cell.quarantined, 1);
        assert_eq!((cell.panics, cell.timeouts), (0, 0), "retried ≠ failed");
        assert_eq!(cell.failed_runs(), 1);
        assert_eq!(report.total_quarantined(), 1);
        assert_eq!(report.total_retries(), 2);
        assert_eq!(report.total_timeouts(), 0);
        let rendered = report.render();
        assert!(rendered.contains("quar"), "{rendered}");
    }

    #[test]
    fn timeout_records_fold_as_timeouts() {
        let mut report = CampaignReport::default();
        report.fold_with_retries(&record("alg4", 8, 0, RunStatus::Timeout), 0);
        let cell = report.cells.values().next().unwrap();
        assert_eq!(cell.timeouts, 1);
        assert_eq!(report.total_timeouts(), 1);
        assert_eq!(cell.failed_runs(), 1);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["k", "rounds"]);
        t.row(["4", "3"]);
        t.row(["16", "15"]);
        let s = t.render();
        assert!(s.contains("k  rounds"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_checks_arity() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }
}
