//! Crash faults, Section VII of the paper.
//!
//! A crashed robot "behaves as if it has vanished from the system": it no
//! longer communicates, senses, moves, or occupies a node as far as the
//! other robots can tell. The paper distinguishes crashes that happen
//! before the Communicate phase (the robot is missing from the round's
//! packets, possibly splitting its connected component) from crashes after
//! the Compute phase (the robot took part in the agreement but does not
//! execute its move). Moves are instantaneous — no crash mid-edge.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::robot::all_robots;
use crate::RobotId;

/// When within a round a crash takes effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPhase {
    /// The robot vanishes before broadcasting/sensing: it is absent from
    /// the round's packets and components.
    BeforeCommunicate,
    /// The robot took part in Communicate and Compute but vanishes instead
    /// of executing its move; its node "behaves like a previously
    /// unoccupied empty node for round r+1" once it empties.
    AfterCompute,
}

/// One scheduled crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The robot that crashes.
    pub robot: RobotId,
    /// The round in which the crash takes effect.
    pub round: u64,
    /// Where within the round it takes effect.
    pub phase: CrashPhase,
}

/// A schedule of crash faults, fixed before the run (the adversary knows
/// the algorithm; an offline schedule is as strong as an online one for
/// deterministic algorithms).
///
/// ```
/// use dispersion_engine::{CrashEvent, CrashPhase, FaultPlan, RobotId};
///
/// let plan = FaultPlan::from_events([CrashEvent {
///     robot: RobotId::new(3),
///     round: 5,
///     phase: CrashPhase::BeforeCommunicate,
/// }]);
/// assert_eq!(plan.crash_count(), 1);
/// assert_eq!(
///     plan.crashes_at(5, CrashPhase::BeforeCommunicate),
///     vec![RobotId::new(3)]
/// );
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<CrashEvent>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit events.
    ///
    /// # Panics
    ///
    /// Panics if the same robot is scheduled to crash twice.
    pub fn from_events(events: impl IntoIterator<Item = CrashEvent>) -> Self {
        let events: Vec<CrashEvent> = events.into_iter().collect();
        for (i, a) in events.iter().enumerate() {
            for b in &events[i + 1..] {
                assert_ne!(a.robot, b.robot, "robot {} crashes twice", a.robot);
            }
        }
        FaultPlan { events }
    }

    /// A plan that crashes `f` distinct robots (chosen by seed from
    /// `1..=k`) at seeded rounds within `0..max_round`, each with the given
    /// phase.
    ///
    /// # Panics
    ///
    /// Panics if `f > k`.
    pub fn random(k: usize, f: usize, max_round: u64, phase: CrashPhase, seed: u64) -> Self {
        assert!(f <= k, "cannot crash more robots than exist");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<RobotId> = all_robots(k).collect();
        ids.shuffle(&mut rng);
        let events = ids
            .into_iter()
            .take(f)
            .map(|robot| CrashEvent {
                robot,
                round: rng.random_range(0..max_round.max(1)),
                phase,
            })
            .collect();
        FaultPlan { events }
    }

    /// Number of scheduled crashes (`f`).
    pub fn crash_count(&self) -> usize {
        self.events.len()
    }

    /// All scheduled events.
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// Robots crashing at `round` in `phase`, in ID order.
    pub fn crashes_at(&self, round: u64, phase: CrashPhase) -> Vec<RobotId> {
        let mut out: Vec<RobotId> = self
            .events
            .iter()
            .filter(|e| e.round == round && e.phase == phase)
            .map(|e| e.robot)
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty() {
        assert_eq!(FaultPlan::none().crash_count(), 0);
        assert!(FaultPlan::none()
            .crashes_at(0, CrashPhase::BeforeCommunicate)
            .is_empty());
    }

    #[test]
    fn crashes_at_filters_round_and_phase() {
        let plan = FaultPlan::from_events([
            CrashEvent {
                robot: RobotId::new(2),
                round: 3,
                phase: CrashPhase::BeforeCommunicate,
            },
            CrashEvent {
                robot: RobotId::new(1),
                round: 3,
                phase: CrashPhase::BeforeCommunicate,
            },
            CrashEvent {
                robot: RobotId::new(3),
                round: 3,
                phase: CrashPhase::AfterCompute,
            },
        ]);
        assert_eq!(
            plan.crashes_at(3, CrashPhase::BeforeCommunicate),
            vec![RobotId::new(1), RobotId::new(2)]
        );
        assert_eq!(
            plan.crashes_at(3, CrashPhase::AfterCompute),
            vec![RobotId::new(3)]
        );
        assert!(plan.crashes_at(2, CrashPhase::AfterCompute).is_empty());
        assert_eq!(plan.crash_count(), 3);
        assert_eq!(plan.events().len(), 3);
    }

    #[test]
    #[should_panic(expected = "crashes twice")]
    fn duplicate_robot_rejected() {
        let _ = FaultPlan::from_events([
            CrashEvent {
                robot: RobotId::new(1),
                round: 0,
                phase: CrashPhase::BeforeCommunicate,
            },
            CrashEvent {
                robot: RobotId::new(1),
                round: 5,
                phase: CrashPhase::AfterCompute,
            },
        ]);
    }

    #[test]
    fn random_plan_has_f_distinct_robots() {
        let plan = FaultPlan::random(10, 4, 20, CrashPhase::BeforeCommunicate, 7);
        assert_eq!(plan.crash_count(), 4);
        let mut ids: Vec<_> = plan.events().iter().map(|e| e.robot).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        for e in plan.events() {
            assert!(e.round < 20);
        }
        // Deterministic per seed.
        assert_eq!(
            plan,
            FaultPlan::random(10, 4, 20, CrashPhase::BeforeCommunicate, 7)
        );
    }

    #[test]
    #[should_panic(expected = "more robots")]
    fn random_plan_rejects_excess_f() {
        let _ = FaultPlan::random(3, 4, 10, CrashPhase::AfterCompute, 0);
    }
}
