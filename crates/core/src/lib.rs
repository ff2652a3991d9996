//! # aap-core
//!
//! The PIE programming model (§2) and the **Adaptive Asynchronous Parallel**
//! runtime (§3, §6) of
//! *Adaptive Asynchronous Parallelization of Graph Algorithms* (SIGMOD'18) —
//! i.e. the GRAPE+ engine.
//!
//! * [`pie`] — the `PEval`/`IncEval`/`Assemble` programming model with
//!   update parameters and aggregate functions;
//! * [`policy`] — execution modes (BSP, AP, SSP, AAP, Hsync) expressed as
//!   instances of the delay-stretch function `δ` (Eq. 1);
//! * [`coord`] — the [`coord::Coordinator`]: δ's decide, suspend and
//!   wake between rounds, one state machine both runtimes drive;
//! * [`inbox`] — the per-worker message buffer `Bx̄i` with staleness
//!   tracking;
//! * [`backend`] — the [`Backend`] trait both runtimes implement, which
//!   serving sessions and the incremental drivers run on;
//! * [`engine`] — the multithreaded shared-memory engine: `m` virtual
//!   workers over `n` threads, push-based point-to-point messages, and the
//!   inactive/terminate protocol;
//! * [`step`] — one worker round (drain → `PEval`/`IncEval` → route →
//!   counters), shared by the threaded engine and the simulator;
//! * [`stats`] — the statistics collector (response time, communication,
//!   rounds, stale computation);
//! * [`publish`] — the epoch-published assembled-output handle behind
//!   concurrent serving (single writer, lock-free steady-state readers);
//! * [`theory`] — executable checks for the convergence conditions T1–T3
//!   and the Church–Rosser property (§4).
//!
//! ```
//! use aap_core::prelude::*;
//! use aap_graph::{generate, partition};
//!
//! // Min-label propagation (a toy CC) over a small power-law graph.
//! struct MinLabel;
//! impl PieProgram<(), u32> for MinLabel {
//!     type Query = ();
//!     type Val = u32;
//!     type State = Vec<u32>;
//!     type Out = Vec<u32>;
//!     fn combine(&self, a: &mut u32, b: u32) -> bool { if b < *a { *a = b; true } else { false } }
//!     fn peval(&self, _q: &(), f: &Fragment<(), u32>, ctx: &mut UpdateCtx<u32>) -> Vec<u32> {
//!         let mut lab: Vec<u32> = (0..f.local_count() as u32).map(|l| f.global(l)).collect();
//!         propagate(f, &mut lab, (0..f.local_count() as u32).collect(), ctx);
//!         lab
//!     }
//!     fn inceval(&self, _q: &(), f: &Fragment<(), u32>, lab: &mut Vec<u32>,
//!                msgs: &mut Messages<u32>, ctx: &mut UpdateCtx<u32>) {
//!         let mut dirty = Vec::new();
//!         for (l, v) in msgs.drain(..) {
//!             if v < lab[l as usize] { lab[l as usize] = v; dirty.push(l); }
//!         }
//!         propagate(f, lab, dirty, ctx);
//!     }
//!     fn assemble(&self, _q: &(), frags: &[std::sync::Arc<Fragment<(), u32>>],
//!                 states: Vec<Vec<u32>>) -> Vec<u32> {
//!         let n = frags.iter().map(|f| f.owned_count()).sum();
//!         let mut out = vec![0; n];
//!         for (f, lab) in frags.iter().zip(states) {
//!             for l in f.owned_vertices() { out[f.global(l) as usize] = lab[l as usize]; }
//!         }
//!         out
//!     }
//! }
//!
//! fn propagate(f: &Fragment<(), u32>, lab: &mut [u32], mut work: Vec<u32>, ctx: &mut UpdateCtx<u32>) {
//!     // Does an update to this copy ship anywhere? An O(1) routing-table
//!     // lookup, cheap enough for the relaxation loop.
//!     let ships = |l: u32| f.routing().fanout_len(l) > 0;
//!     let mut changed_border = std::collections::BTreeSet::new();
//!     while let Some(u) = work.pop() {
//!         for &v in f.neighbors(u) {
//!             if lab[u as usize] < lab[v as usize] {
//!                 lab[v as usize] = lab[u as usize];
//!                 work.push(v);
//!                 if ships(v) { changed_border.insert(v); }
//!             }
//!         }
//!         if ships(u) { changed_border.insert(u); }
//!     }
//!     for b in changed_border { ctx.send(b, lab[b as usize]); }
//! }
//!
//! let g = generate::small_world(200, 3, 0.1, 7);
//! let frags = partition::build_fragments(&g, &partition::hash_partition(&g, 4));
//! let engine = Engine::new(frags, EngineOpts { mode: Mode::aap(), ..Default::default() });
//! let out = engine.run(&MinLabel, &());
//! assert!(out.out.iter().all(|&l| l == 0)); // connected: everything reaches label 0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod coord;
pub mod engine;
pub mod inbox;
pub mod pie;
pub mod policy;
pub mod publish;
pub mod scratch;
pub mod stats;
pub mod step;
pub mod theory;

/// Convenient re-exports for engine users and PIE program authors.
pub mod prelude {
    pub use crate::engine::{Engine, EngineOpts, RunOutput, RunState};
    pub use crate::pie::{Messages, PieProgram, Round, UpdateCtx, WarmStart, WarmStrategy};
    pub use crate::policy::{AapConfig, HsyncConfig, Mode};
    pub use crate::stats::{RunStats, WorkerStats};
    pub use aap_graph::{FragId, Fragment, LocalId, Route, VertexId};
}

pub use backend::Backend;
pub use engine::{
    AttachError, Engine, EngineOpts, PlanCache, PortableFragState, PortableRunState, RunOutput,
    RunState,
};
pub use pie::{
    Batch, DeltaChanges, Messages, PieProgram, Round, UpdateCtx, WarmStart, WarmStrategy,
};
pub use policy::{AapConfig, Decision, HsyncConfig, Mode};
pub use publish::{EpochCell, EpochReader};
pub use scratch::Scratch;
pub use stats::{RunStats, WorkerStats};
