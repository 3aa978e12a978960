//! Library backing the `dispersion` command-line tool.
//!
//! The CLI drives the reproduction interactively:
//!
//! ```text
//! dispersion run --network churn --n 24 --k 16 --seed 7 --watch
//! dispersion run --network star-pair --n 20 --k 14 --faults 3
//! dispersion trap --theorem 1 --k 6 --rounds 500
//! dispersion lower-bound --k 32
//! dispersion memory --max-k 128
//! ```
//!
//! Argument parsing is hand-rolled (`args` module) to stay within the
//! approved dependency set; `render` draws round-by-round occupancy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod render;

pub use args::{Command, ParseError};
