//! Synchronous Communicate–Compute–Move (CCM) simulator for mobile robots
//! on 1-interval connected dynamic graphs.
//!
//! This crate implements the robot and execution model of Kshemkalyani,
//! Molla and Sharma, *Efficient Dispersion of Mobile Robots on Dynamic
//! Graphs* (ICDCS 2020), Section II:
//!
//! * `k ≤ n` robots with unique IDs in `[1, k]` ([`RobotId`]), placed on the
//!   nodes of an anonymous port-labeled graph ([`Configuration`]);
//! * synchronous rounds: every robot runs *Communicate → Compute → Move*
//!   ([`Simulator`]);
//! * communication models: **local** (same-node only) and **global**
//!   (everyone), with or without **1-neighborhood knowledge**
//!   ([`ModelSpec`]);
//! * per-round info packets exactly as in Section V ([`InfoPacket`]);
//! * a worst-case **adaptive adversary** that rebuilds the topology each
//!   round knowing the algorithm and all robot states
//!   ([`adversary::DynamicNetwork`]), supported by a speculative
//!   [`MoveOracle`] that white-box evaluates the (pure, deterministic)
//!   algorithm on candidate graphs;
//! * crash faults per Section VII ([`FaultPlan`]);
//! * persistent-memory accounting in bits ([`MemoryFootprint`]).
//!
//! Algorithms implement [`DispersionAlgorithm`]; the paper's algorithm and
//! the baselines live in the `dispersion-core` crate.
//!
//! # Example
//!
//! A robot algorithm is a pure function from its per-round view and
//! persistent memory to an action and new memory:
//!
//! ```
//! use dispersion_engine::{
//!     Action, DispersionAlgorithm, MemoryFootprint, RobotId, RobotView,
//! };
//!
//! /// Robots that never move (useful as a null baseline).
//! struct Frozen;
//!
//! #[derive(Clone)]
//! struct NoMemory;
//!
//! impl MemoryFootprint for NoMemory {
//!     fn persistent_bits(&self) -> usize { 0 }
//! }
//!
//! impl DispersionAlgorithm for Frozen {
//!     type Memory = NoMemory;
//!     fn name(&self) -> &'static str { "frozen" }
//!     fn init(&self, _me: RobotId, _k: usize) -> NoMemory { NoMemory }
//!     fn step(&self, _view: &RobotView, _mem: &NoMemory) -> (Action, NoMemory) {
//!         (Action::Stay, NoMemory)
//!     }
//! }
//! ```

// `deny`, not `forbid`: the deterministic parallel executor opts back in
// locally (see `executor.rs` for the safety argument); everything else in
// the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod budget;
mod compute;
mod config;
mod error;
mod executor;
mod faults;
mod model;
mod oracle;
mod packet;
mod robot;
mod sim;
mod trace;
mod view;

pub mod adversary;
pub mod invariants;
pub mod memory;
pub mod stats;

pub use algorithm::{Action, DispersionAlgorithm, MemoryFootprint};
pub use budget::{Budget, BudgetReason};
pub use config::Configuration;
pub use error::SimError;
pub use faults::{CrashEvent, CrashPhase, FaultPlan};
pub use invariants::{CheckPolicy, Invariant, InvariantMonitor, InvariantViolation};
pub use model::{Activation, CommModel, ModelSpec};
pub use oracle::{MoveOracle, ResolvedMove};
pub use packet::{build_packets, InfoPacket, NeighborReport, PacketRef, Packets, RoundMemo};
pub use robot::RobotId;
pub use sim::{RoundOutput, SimOutcome, Simulator, SimulatorBuilder, Step};
pub use trace::{ExecutionTrace, RoundRecord, TracePolicy};
pub use view::{build_view, build_views, NeighborObservation, RobotView, RoundViews};
