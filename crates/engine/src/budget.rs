//! Cooperative execution budgets: termination fences for runs that might
//! otherwise never end.
//!
//! The paper's adversaries (and the harsher Byzantine variants the lab
//! runs beyond it) can construct executions that never disperse; a
//! simulation of one spins forever unless something outside the algorithm
//! bounds it. A [`Budget`] is that bound: an optional hard round limit,
//! an optional wall-clock deadline, and an optional external cancel flag,
//! checked cooperatively at the top of every [`crate::Simulator::step`].
//! Exceeding any of them aborts the run with a structured
//! [`crate::SimError::BudgetExceeded`] carrying the round and the
//! [`BudgetReason`], so callers (the campaign runner's watchdog, a CLI
//! Ctrl-C handler) can tell a fence from a genuine simulator error.
//!
//! The checks are allocation-free — two integer comparisons, one atomic
//! load, and one monotonic-clock read per round at worst — so arming a
//! budget does not disturb the zero-allocation hot path
//! (`crates/engine/tests/alloc_budget.rs` measures exactly this).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which fence of a [`Budget`] a run exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetReason {
    /// The hard round limit was reached before termination.
    MaxRounds {
        /// The armed limit.
        limit: u64,
    },
    /// The wall-clock deadline passed before termination.
    Deadline,
    /// The external cancel flag was raised.
    Cancelled,
}

impl std::fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetReason::MaxRounds { limit } => write!(f, "round budget of {limit} exhausted"),
            BudgetReason::Deadline => f.write_str("wall-clock deadline passed"),
            BudgetReason::Cancelled => f.write_str("cancelled externally"),
        }
    }
}

/// A cooperative cancellation token / termination fence for a run.
///
/// The default budget is unlimited. Fences compose: arm any subset of
/// round limit, deadline, and cancel flag; the first one exceeded stops
/// the run.
///
/// ```
/// use dispersion_engine::{Budget, BudgetReason};
///
/// let budget = Budget::none().with_max_rounds(100);
/// assert_eq!(budget.exceeded(99), None);
/// assert_eq!(
///     budget.exceeded(100),
///     Some(BudgetReason::MaxRounds { limit: 100 })
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    max_rounds: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// The unlimited budget — every fence disarmed.
    pub fn none() -> Self {
        Budget::default()
    }

    /// Arms a hard round limit: executing round `limit` (0-based) is an
    /// error. Unlike [`crate::SimulatorBuilder::max_rounds`] — which ends
    /// [`crate::Simulator::run`] gracefully with `dispersed = false` —
    /// the budget fence is an error, for callers that treat
    /// non-termination within the bound as a failure.
    #[must_use]
    pub fn with_max_rounds(mut self, limit: u64) -> Self {
        self.max_rounds = Some(limit);
        self
    }

    /// Arms a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Arms a wall-clock deadline `timeout` from now.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        // Saturate rather than panic on absurd timeouts.
        let deadline = Instant::now()
            .checked_add(timeout)
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(86_400 * 365));
        self.with_deadline(deadline)
    }

    /// Arms an external cancel flag. Raise the flag (from any thread)
    /// with `Ordering::Relaxed` or stronger; the next `step` observes it.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Whether any fence is armed.
    pub fn is_armed(&self) -> bool {
        self.max_rounds.is_some() || self.deadline.is_some() || self.cancel.is_some()
    }

    /// Checks every armed fence against the round about to execute.
    /// Returns the first exceeded fence, or `None` while within budget.
    /// Allocation-free.
    pub fn exceeded(&self, round: u64) -> Option<BudgetReason> {
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Some(BudgetReason::Cancelled);
            }
        }
        if let Some(limit) = self.max_rounds {
            if round >= limit {
                return Some(BudgetReason::MaxRounds { limit });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(BudgetReason::Deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_budget_never_fires() {
        let b = Budget::none();
        assert!(!b.is_armed());
        assert_eq!(b.exceeded(0), None);
        assert_eq!(b.exceeded(u64::MAX), None);
    }

    #[test]
    fn round_fence_is_half_open() {
        let b = Budget::none().with_max_rounds(10);
        assert!(b.is_armed());
        assert_eq!(b.exceeded(9), None);
        assert_eq!(b.exceeded(10), Some(BudgetReason::MaxRounds { limit: 10 }));
        assert_eq!(b.exceeded(11), Some(BudgetReason::MaxRounds { limit: 10 }));
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let b = Budget::none().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.exceeded(0), Some(BudgetReason::Deadline));
        let b = Budget::none().with_timeout(Duration::from_secs(3600));
        assert_eq!(b.exceeded(0), None);
    }

    #[test]
    fn cancel_flag_observed() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::none().with_cancel(Arc::clone(&flag));
        assert_eq!(b.exceeded(5), None);
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.exceeded(5), Some(BudgetReason::Cancelled));
    }

    #[test]
    fn cancel_beats_other_fences() {
        // Precedence is fixed (cancel, rounds, deadline) so records built
        // from the reason are deterministic even when fences coincide.
        let flag = Arc::new(AtomicBool::new(true));
        let b = Budget::none()
            .with_cancel(flag)
            .with_max_rounds(0)
            .with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.exceeded(0), Some(BudgetReason::Cancelled));
    }

    #[test]
    fn reasons_render() {
        assert!(BudgetReason::MaxRounds { limit: 7 }
            .to_string()
            .contains('7'));
        assert!(BudgetReason::Deadline.to_string().contains("deadline"));
        assert!(BudgetReason::Cancelled.to_string().contains("cancel"));
    }
}
