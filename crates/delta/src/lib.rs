//! # aap-delta
//!
//! The dynamic-graph delta subsystem: batch graph mutations plus
//! warm-start incremental evaluation on the GRAPE+ engines.
//!
//! The paper's PIE model (§2) sells `IncEval` as reacting to *changes* —
//! this crate closes the loop for changes **to the graph itself**, the
//! regime where asynchronous engines pay off most (mutating serving
//! graphs see many small refreshes, not repeated full recomputes):
//!
//! * [`GraphDelta`] / [`DeltaBuilder`] — a deduplicated batch of edge
//!   inserts, edge removals, weight updates, and vertex add/removals;
//! * [`apply_to_graph`] — replay a batch onto a global
//!   [`Graph`](aap_graph::Graph);
//! * [`apply_to_fragments_par`] — replay a batch onto a partitioned
//!   fragment set **in place**, the one fragment-side apply: both cut
//!   kinds are patched locally (touched fragments only — CSR, border
//!   sets, holder lists, and dense routing tables; see
//!   `aap_graph::mutate`). Returns the per-fragment [`StateRemap`]s and
//!   seed vertices a warm engine run needs;
//! * [`validate`] — check a batch against a fragment set, returning
//!   [`InvalidDelta`] (naming the offending op) instead of letting the
//!   apply panic on it;
//! * [`run_incremental`] — the driver, on either runtime (any
//!   [`Backend`](aap_core::Backend)): apply
//!   the delta to an engine's fragments, then warm-start `IncEval` from
//!   the delta-affected vertices. Monotone-decreasing batches
//!   (insertions, weight decreases) are exact by monotonicity
//!   (`warm-decrease`); removals and weight increases run the
//!   *affected-region* path (`warm-increase`): the program's
//!   [`WarmStart`](aap_core::pie::WarmStart) invalidation plan names
//!   every vertex whose retained value may be stale-low, all of its
//!   copies are reset, and the warm round re-derives the region — exact
//!   for SSSP (Ramalingam–Reps) and CC (spanning-forest splits), with a
//!   cold retained fallback only for programs without a plan. The chosen
//!   [`WarmStrategy`] is reported in the output.
//!
//! ```
//! use aap_core::{Engine, EngineOpts, Mode};
//! use aap_delta::{run_incremental, DeltaBuilder};
//! use aap_graph::partition::{build_fragments, hash_partition};
//! use aap_graph::generate;
//!
//! let g = generate::small_world(200, 2, 0.1, 7);
//! let frags = build_fragments(&g, &hash_partition(&g, 4));
//! let mut engine = Engine::new(frags, EngineOpts { mode: Mode::aap(), ..Default::default() });
//!
//! // Cold run once, retaining state ...
//! let (out0, mut state) = engine.run_retained(&aap_algos::Sssp, &0);
//!
//! // ... then stream mutation batches through warm-start IncEval.
//! let mut b = DeltaBuilder::new();
//! b.add_edge(0, 150, 2);
//! let delta = b.build();
//! let out1 = run_incremental(&mut engine, &aap_algos::Sssp, &0, &delta, &mut state);
//! assert!(out1.out[150] <= out0.out[150]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod generate;
pub mod ops;
pub mod run;
pub mod validate;

pub use apply::{apply_to_fragments_par, apply_to_graph, Applied};
pub use ops::{DeltaBuilder, GraphDelta};
pub use run::{
    advance, plan_incremental, remap_invalid, replay, run_incremental, run_incremental_with,
    IncrementalOutput, IncrementalPlan,
};
pub use validate::{validate, InvalidDelta};

pub use aap_core::pie::WarmStrategy;
pub use aap_graph::mutate::{DeltaSummary, StateRemap};
