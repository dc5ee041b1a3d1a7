//! The `cgte bench` performance harness and its regression gate.
//!
//! - [`harness`] times graph build/load, walks, estimation, serving and
//!   the sharded coordinator, and writes the `BENCH_PR<n>.json` report;
//! - [`check`] compares a fresh report against a committed baseline.
//!
//! The paper's figures and tables run through `cgte run --builtin NAME`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod harness;
