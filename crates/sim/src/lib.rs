//! # aap-sim
//!
//! A deterministic **discrete-event simulator** for PIE programs under
//! BSP / AP / SSP / AAP / Hsync.
//!
//! The threaded engine in `aap-core` gives real wall-clock behaviour but is
//! limited to the machine's cores and to nondeterministic thread timing.
//! The experiments of the paper, however, need (a) *timing diagrams* for a
//! handful of workers with prescribed speeds (Fig 1, Fig 7), (b) clusters of
//! 64–320 workers (Fig 6), and (c) schedule randomisation with *identical*
//! re-runs for Church–Rosser checks. This simulator provides all three:
//!
//! * it executes the **same `PieProgram` objects** (the computation is
//!   real — results are actual algorithm outputs);
//! * it shares the **same δ policy code** (`aap_core::policy`), evaluated
//!   in virtual time;
//! * per-round compute costs come from a [`CostModel`] (fixed per worker,
//!   or proportional to actual work done with per-worker speed factors),
//!   and messages arrive after a configurable latency;
//! * a seeded [`ScheduleFuzz`] deterministically perturbs wake order,
//!   delivery interleavings and per-worker speed, so one `u64` seed
//!   reproduces one exact hostile schedule for Church–Rosser checks.
//!
//! This is the "simulate what you don't have" substitution listed in the
//! README's "Substitutions" section: stragglers and staleness are
//! functions of compute skew and latency, which are inputs here, so
//! large-cluster *behaviour* (rounds, message counts, who waits for whom,
//! relative makespans) is reproduced faithfully even though virtual time
//! is not wall-clock time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod engine;
pub mod fault;
pub mod fuzz;
#[cfg(test)]
pub(crate) mod testutil;
pub mod timeline;

pub use cost::CostModel;
pub use engine::{SimEngine, SimError, SimOpts, SimOutput};
pub use fault::{run_with_failure, FailurePlan, RecoveredRun, SimDurability};
pub use fuzz::ScheduleFuzz;
pub use timeline::{render_gantt, timeline_to_trace, Span, SpanKind, Timeline, TRACE_US_PER_UNIT};
