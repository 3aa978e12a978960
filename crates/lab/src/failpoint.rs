//! Deterministic fault injection for the campaign runner itself.
//!
//! A [`FailpointRegistry`] arms named sites inside the runner — a worker
//! about to execute a job (`job:start`), the writer about to append a
//! record (`writer:append`) — with a [`FailAction`] that fires on a
//! chosen hit. The crash-recovery self-tests use it to kill a campaign
//! at every interesting point and prove that resuming reproduces the
//! uninterrupted run byte-for-byte; production campaigns run with the
//! registry disarmed, where a site check is a single `Option`
//! discriminant test.
//!
//! Sites can also be armed from the environment for ad-hoc fault drills:
//!
//! ```text
//! DISPERSION_FAILPOINTS="writer:append=torn:17@3,job:start=panic"
//! ```
//!
//! arms a torn write of 17 bytes on the writer's 4th append (hits are
//! 0-based) and a panic on the first job start. Actions are `panic`,
//! `crash`, `hang:MILLIS`, and `torn:KEEP_BYTES`; every armed site is
//! one-shot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The environment variable [`FailpointRegistry::from_env`] reads.
pub const FAILPOINTS_ENV: &str = "DISPERSION_FAILPOINTS";

/// What an armed failpoint injects when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site (workers catch this like any job panic).
    Panic,
    /// Die at the site: the campaign aborts as if the process were
    /// killed, leaving a partial (but repairable) artifact.
    Crash,
    /// Sleep this many milliseconds before proceeding — long enough to
    /// trip a per-job watchdog deadline.
    Hang {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// Write only the first `keep` bytes of the pending record (no
    /// newline), then die — a torn tail for resume to repair.
    TornWrite {
        /// Bytes of the record line to let through.
        keep: usize,
    },
}

impl FailAction {
    /// Stable name, used in [`crate::LabError::Failpoint`] messages.
    pub fn name(self) -> &'static str {
        match self {
            FailAction::Panic => "panic",
            FailAction::Crash => "crash",
            FailAction::Hang { .. } => "hang",
            FailAction::TornWrite { .. } => "torn-write",
        }
    }

    /// The error a campaign aborts with when this action fires at `site`.
    pub(crate) fn abort(self, site: &str) -> crate::LabError {
        crate::LabError::Failpoint {
            site: site.to_string(),
            action: self.name(),
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s.split_once(':') {
            None => match s {
                "panic" => Some(FailAction::Panic),
                "crash" => Some(FailAction::Crash),
                _ => None,
            },
            Some(("hang", ms)) => Some(FailAction::Hang {
                ms: ms.parse().ok()?,
            }),
            Some(("torn", keep)) => Some(FailAction::TornWrite {
                keep: keep.parse().ok()?,
            }),
            Some(_) => None,
        }
    }
}

#[derive(Debug)]
struct ArmedSite {
    site: String,
    action: FailAction,
    /// 0-based hit index the action fires on; counts down atomically so
    /// concurrent workers race safely and exactly one hit fires.
    fire_on: AtomicU64,
}

/// A set of armed failpoints, shared (cheaply cloned) across the
/// runner's threads. The default registry is disarmed and free.
#[derive(Clone, Debug, Default)]
pub struct FailpointRegistry {
    sites: Option<Arc<Vec<ArmedSite>>>,
}

impl FailpointRegistry {
    /// The disarmed registry: every [`FailpointRegistry::fire`] is a
    /// no-op costing one discriminant test.
    pub fn disarmed() -> Self {
        FailpointRegistry::default()
    }

    /// Arms `site` to inject `action` on its `fire_on`-th hit (0-based).
    /// Each armed site fires exactly once.
    #[must_use]
    pub fn armed(self, site: &str, action: FailAction, fire_on: u64) -> Self {
        let mut sites = match self.sites {
            Some(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| {
                // Cloned registries share hit state; arming after a clone
                // escaped is a setup bug.
                panic!("arm failpoints before sharing the registry ({arc:?})")
            }),
            None => Vec::new(),
        };
        sites.push(ArmedSite {
            site: site.to_string(),
            action,
            fire_on: AtomicU64::new(fire_on),
        });
        FailpointRegistry {
            sites: Some(Arc::new(sites)),
        }
    }

    /// Builds a registry from [`FAILPOINTS_ENV`]
    /// (`site=action[@hit],…`); unset or empty means disarmed.
    /// Malformed entries are rejected, not ignored — a typo'd fault
    /// drill must not silently run clean.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(FAILPOINTS_ENV) {
            Ok(v) if !v.trim().is_empty() => Self::parse(&v),
            _ => Ok(FailpointRegistry::disarmed()),
        }
    }

    /// Parses the [`FAILPOINTS_ENV`] syntax.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut reg = FailpointRegistry::disarmed();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (site, rhs) = entry
                .split_once('=')
                .ok_or_else(|| format!("failpoint `{entry}`: expected site=action[@hit]"))?;
            let (action, fire_on) = match rhs.split_once('@') {
                Some((a, hit)) => (
                    a,
                    hit.parse::<u64>()
                        .map_err(|_| format!("failpoint `{entry}`: bad hit index `{hit}`"))?,
                ),
                None => (rhs, 0),
            };
            let action = FailAction::parse(action).ok_or_else(|| {
                format!(
                    "failpoint `{entry}`: unknown action `{action}` \
                     (expected panic | crash | hang:MS | torn:KEEP)"
                )
            })?;
            reg = reg.armed(site, action, fire_on);
        }
        Ok(reg)
    }

    /// Whether any site is armed.
    pub fn is_armed(&self) -> bool {
        self.sites.is_some()
    }

    /// Reports a hit on `site`; returns the action to inject if an armed
    /// site fires on this hit. Thread-safe; each armed site fires at
    /// most once across all threads.
    pub fn fire(&self, site: &str) -> Option<FailAction> {
        let sites = self.sites.as_ref()?;
        for armed in sites.iter().filter(|a| a.site == site) {
            // Count the hit down; the thread that moves it from 0 to
            // u64::MAX owns the firing (wrapping keeps later hits inert
            // for any practical campaign length).
            if armed.fire_on.fetch_sub(1, Ordering::Relaxed) == 0 {
                return Some(armed.action);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_registry_never_fires() {
        let reg = FailpointRegistry::disarmed();
        assert!(!reg.is_armed());
        assert_eq!(reg.fire("job:start"), None);
    }

    #[test]
    fn fires_on_the_chosen_hit_exactly_once() {
        let reg = FailpointRegistry::disarmed().armed("w", FailAction::Crash, 2);
        assert_eq!(reg.fire("w"), None);
        assert_eq!(reg.fire("other"), None, "site names must match");
        assert_eq!(reg.fire("w"), None);
        assert_eq!(reg.fire("w"), Some(FailAction::Crash));
        assert_eq!(reg.fire("w"), None, "one-shot");
    }

    #[test]
    fn clones_share_hit_state() {
        let reg = FailpointRegistry::disarmed().armed("s", FailAction::Panic, 1);
        let clone = reg.clone();
        assert_eq!(clone.fire("s"), None);
        assert_eq!(reg.fire("s"), Some(FailAction::Panic));
        assert_eq!(clone.fire("s"), None);
    }

    #[test]
    fn parses_env_syntax() {
        let reg = FailpointRegistry::parse("writer:append=torn:17@3, job:start=panic").unwrap();
        assert!(reg.is_armed());
        for _ in 0..3 {
            assert_eq!(reg.fire("writer:append"), None);
        }
        assert_eq!(
            reg.fire("writer:append"),
            Some(FailAction::TornWrite { keep: 17 })
        );
        assert_eq!(reg.fire("job:start"), Some(FailAction::Panic));
        assert_eq!(
            FailpointRegistry::parse("a=hang:250").unwrap().fire("a"),
            Some(FailAction::Hang { ms: 250 })
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "just-a-site",
            "s=explode",
            "s=hang:soon",
            "s=torn:x",
            "s=panic@soon",
        ] {
            assert!(FailpointRegistry::parse(bad).is_err(), "{bad}");
        }
        assert!(!FailpointRegistry::parse("").unwrap().is_armed());
    }

    #[test]
    fn action_names_are_stable() {
        assert_eq!(FailAction::Panic.name(), "panic");
        assert_eq!(FailAction::Crash.name(), "crash");
        assert_eq!(FailAction::Hang { ms: 1 }.name(), "hang");
        assert_eq!(FailAction::TornWrite { keep: 0 }.name(), "torn-write");
    }
}
