//! # aap-bench
//!
//! The reproduction harness: one experiment per table and figure of the
//! paper's evaluation (§7 + Appendix B). The README's "Substitutions"
//! section lists the stand-in datasets and cluster; `repro all --write`
//! records results in EXPERIMENTS.md.
//!
//! Run everything:
//!
//! ```sh
//! cargo run --release -p aap-bench --bin repro -- all
//! ```
//!
//! or a single experiment: `repro fig6a`, `repro table1`, `repro fig7`, ...

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod runner;
pub mod tracecheck;
pub mod workloads;
