//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (see `DESIGN.md` §4 for the index); the helpers here run the standard
//! configurations and render aligned text tables so each binary prints
//! the same rows/series the paper reports.

use dispersion_core::DispersionDynamic;
use dispersion_engine::adversary::DynamicNetwork;
use dispersion_engine::{Configuration, ModelSpec, SimOutcome, Simulator};
use dispersion_graph::NodeId;

pub mod golden;

/// Runs Algorithm 4 in its home model (global comm + 1-NK) from a rooted
/// configuration against the given network.
///
/// # Panics
///
/// Panics on simulator errors — experiment inputs are all well formed.
pub fn run_alg4_rooted<N: DynamicNetwork>(net: N, n: usize, k: usize) -> SimOutcome {
    Simulator::builder(
        DispersionDynamic::new(),
        net,
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::rooted(n, k, NodeId::new(0)),
    )
    .build()
    .expect("k ≤ n")
    .run()
    .expect("experiment inputs are valid")
}

/// Runs Algorithm 4 from a seeded arbitrary (clustered) configuration.
///
/// # Panics
///
/// Panics on simulator errors — experiment inputs are all well formed.
pub fn run_alg4_random<N: DynamicNetwork>(net: N, n: usize, k: usize, seed: u64) -> SimOutcome {
    Simulator::builder(
        DispersionDynamic::new(),
        net,
        ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
        Configuration::random(n, k, seed, true),
    )
    .build()
    .expect("k ≤ n")
    .run()
    .expect("experiment inputs are valid")
}

/// The shared aligned-text table renderer (lives in `dispersion-lab`,
/// which also uses it for campaign reports; re-exported here so every
/// experiment binary keeps one import path).
pub use dispersion_lab::Table;

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper_artifact: &str, claim: &str) {
    println!("==================================================================");
    println!("experiment {id} — reproduces {paper_artifact}");
    println!("paper claim: {claim}");
    println!("==================================================================");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::adversary::StarPairAdversary;

    #[test]
    fn reexported_table_renders() {
        let mut t = Table::new(["k", "rounds"]);
        t.row(["4", "3"]);
        assert!(t.render().contains("k  rounds"));
    }

    #[test]
    fn helpers_run() {
        let out = run_alg4_rooted(StarPairAdversary::new(8), 8, 5);
        assert!(out.dispersed);
        let out = run_alg4_random(StarPairAdversary::new(8), 8, 5, 3);
        assert!(out.dispersed);
    }
}
