//! Simulator errors.

use std::error::Error;
use std::fmt;

use dispersion_graph::{GraphError, Port};

use crate::budget::BudgetReason;
use crate::invariants::InvariantViolation;
use crate::RobotId;

/// Error raised while executing a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The adversary produced an invalid graph (wrong size, disconnected,
    /// or malformed ports), violating the 1-interval connected model.
    BadAdversaryGraph {
        /// Offending round.
        round: u64,
        /// Underlying validation error.
        source: GraphError,
    },
    /// A robot attempted to exit through a port exceeding its node's
    /// degree.
    InvalidMove {
        /// Offending round.
        round: u64,
        /// The robot.
        robot: RobotId,
        /// The port it requested.
        port: Port,
        /// The degree of its node.
        degree: usize,
    },
    /// More robots than nodes: dispersion is unachievable by definition.
    TooManyRobots {
        /// Robot count `k`.
        k: usize,
        /// Node count `n`.
        n: usize,
    },
    /// A conformance invariant failed while checking was enabled via
    /// [`crate::SimulatorBuilder::check`]. Carries the round, the
    /// implicated node/robot ids, and a replayable seed when one was
    /// registered.
    InvariantViolation(InvariantViolation),
    /// A [`crate::Budget`] fence armed via
    /// [`crate::SimulatorBuilder::budget`] was exceeded before the run
    /// terminated — the structured form of "this run was never going to
    /// end" that watchdogs and campaign runners act on.
    BudgetExceeded {
        /// The round that was about to execute when the fence fired.
        round: u64,
        /// Which fence fired.
        reason: BudgetReason,
    },
}

impl From<InvariantViolation> for SimError {
    fn from(violation: InvariantViolation) -> Self {
        SimError::InvariantViolation(violation)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadAdversaryGraph { round, source } => {
                write!(
                    f,
                    "adversary produced an invalid graph in round {round}: {source}"
                )
            }
            SimError::InvalidMove {
                round,
                robot,
                port,
                degree,
            } => write!(
                f,
                "robot {robot} requested port {port} on a degree-{degree} node in round {round}"
            ),
            SimError::TooManyRobots { k, n } => {
                write!(f, "{k} robots cannot disperse on {n} nodes")
            }
            SimError::InvariantViolation(v) => write!(f, "{v}"),
            SimError::BudgetExceeded { round, reason } => {
                write!(f, "budget exceeded in round {round}: {reason}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::BadAdversaryGraph { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::BadAdversaryGraph {
            round: 4,
            source: GraphError::Disconnected,
        };
        assert!(e.to_string().contains("round 4"));
        assert!(e.source().is_some());
        let e = SimError::InvalidMove {
            round: 1,
            robot: RobotId::new(2),
            port: Port::new(9),
            degree: 3,
        };
        assert!(e.to_string().contains("r2"));
        assert!(e.source().is_none());
    }

    #[test]
    fn invariant_violation_display_flows_through() {
        let e = SimError::from(InvariantViolation {
            invariant: "round-bound",
            round: 9,
            detail: "not dispersed after 9 rounds".into(),
            robots: vec![],
            nodes: vec![],
            seed: Some(7),
        });
        let s = e.to_string();
        assert!(s.contains("round-bound"));
        assert!(s.contains("round 9"));
        assert!(s.contains("replay seed 7"));
        assert!(e.source().is_none());
    }

    #[test]
    fn budget_exceeded_displays_reason() {
        let e = SimError::BudgetExceeded {
            round: 500,
            reason: BudgetReason::Deadline,
        };
        let s = e.to_string();
        assert!(s.contains("round 500"), "{s}");
        assert!(s.contains("deadline"), "{s}");
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
