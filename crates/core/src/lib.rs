//! Dispersion of mobile robots on 1-interval connected dynamic graphs —
//! a full reproduction of Kshemkalyani, Molla and Sharma (ICDCS 2020).
//!
//! The paper's headline result: `k ≤ n` robots with `Θ(log k)` bits each
//! disperse on any `n`-node anonymous dynamic graph in `Θ(k)` rounds under
//! **global communication** with **1-neighborhood knowledge** — and both
//! assumptions are necessary (dropping either makes dispersion impossible
//! against a worst-case adversary).
//!
//! This crate provides:
//!
//! * [`component`] — **Algorithm 1**: connected components of the occupied
//!   subgraph, reconstructed by every robot from the round's information
//!   packets;
//! * [`spanning_tree`] — **Algorithm 2**: the component spanning tree
//!   rooted at the smallest-ID multiplicity node;
//! * [`paths`] — **Algorithm 3**: disjoint root-path computation;
//! * [`DispersionDynamic`] — **Algorithm 4**: the `Θ(k)`-round,
//!   `Θ(log k)`-bit sliding algorithm, as a plug-in
//!   [`dispersion_engine::DispersionAlgorithm`];
//! * [`faulty`] — the Section VII crash-fault extension (`O(k − f)`
//!   rounds);
//! * [`lower_bound`] / [`impossibility`] — executable versions of the
//!   Theorem 1–3 constructions;
//! * [`baselines`] — comparison algorithms (greedy local, blind global,
//!   random walk, DFS dispersion for static graphs);
//! * [`analysis`] — lemma-level checks used by tests and experiments;
//! * [`worked_example`] — the 15-node, 14-robot running example of
//!   Figs. 3–4.
//!
//! # Quickstart
//!
//! ```
//! use dispersion_core::DispersionDynamic;
//! use dispersion_engine::adversary::EdgeChurnNetwork;
//! use dispersion_engine::{Configuration, ModelSpec, Simulator};
//! use dispersion_graph::NodeId;
//!
//! # fn main() -> Result<(), dispersion_engine::SimError> {
//! let (n, k) = (20, 12);
//! let mut sim = Simulator::builder(
//!     DispersionDynamic::new(),
//!     EdgeChurnNetwork::new(n, 0.15, 7),
//!     ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
//!     Configuration::rooted(n, k, NodeId::new(0)),
//! )
//! .build()?;
//! let outcome = sim.run()?;
//! assert!(outcome.dispersed);
//! assert!(outcome.rounds <= k as u64); // Theorem 4: O(k) rounds
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod error;
mod plan;

pub mod analysis;
pub mod baselines;
pub mod byzantine;
pub mod component;
pub mod faulty;
pub mod impossibility;
pub mod lower_bound;
pub mod paths;
pub mod round;
pub mod sliding;
pub mod spanning_tree;
pub mod worked_example;

pub use algorithm::{DispersionDynamic, DynamicMemory};
pub use component::ConnectedComponent;
pub use error::DispersionError;
pub use paths::{DisjointPathSet, RootPath};
pub use round::{ComponentStructures, RoundComputation};
pub use sliding::{LeafPortRule, MoverRule, SlidingPolicy};
pub use spanning_tree::SpanningTree;
