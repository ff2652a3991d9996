//! # grape-aap
//!
//! A from-scratch Rust reproduction of **“Adaptive Asynchronous
//! Parallelization of Graph Algorithms”** (Fan et al., SIGMOD 2018) — the
//! AAP model and the GRAPE+ engine.
//!
//! The workspace is organised as one crate per subsystem; this facade
//! re-exports them under stable names:
//!
//! * [`graph`] — CSR property graphs, generators, partitioners, fragments;
//! * [`runtime`] — the PIE programming model and the multithreaded AAP
//!   engine with BSP / AP / SSP / AAP / Hsync policies;
//! * [`sim`] — the deterministic discrete-event simulator (timing
//!   diagrams, large virtual clusters);
//! * [`algos`] — CC, SSSP, BFS, PageRank, CF, and vertex-centric
//!   baselines;
//! * [`delta`] — dynamic-graph batches: in-place fragment mutation and
//!   warm-start incremental evaluation from retained state;
//! * [`snapshot`] — durable snapshots: persisted fragments + retained
//!   state + replayable delta logs, for warm restarts;
//! * [`session`] — the serving facade: one [`Session`] owning the
//!   partition, the engine, multiple retained programs, and durability;
//! * [`balance`] — elastic partition rebalancing: drift monitor,
//!   cost-aware migration planner, in-place executor (wired into
//!   sessions via `SessionBuilder::balance` / `Session::rebalance`);
//! * [`mapreduce`] — MapReduce/PRAM on AAP (Theorem 4);
//! * [`trace`] — structured event tracing with Chrome/Perfetto export
//!   (wired through every layer above, off by default and free when off).
//!
//! ## Quickstart
//!
//! The serving surface is [`Session`]: partition once, register
//! programs, query, stream deltas.
//!
//! ```
//! use grape_aap::prelude::*;
//!
//! // A weighted power-law graph (Friendster stand-in, tiny here).
//! let g = grape_aap::graph::generate::rmat(8, 8, true, 42);
//!
//! let mut session = Session::builder(g)
//!     .partition(edge_cut(4))
//!     .mode(Mode::aap())
//!     .program("sssp", Sssp)
//!     .program("cc", ConnectedComponents)
//!     .open()
//!     .unwrap();
//!
//! // Single-source shortest paths from vertex 0; CC on the same
//! // fragments. Each program retains its fixpoint for the next delta.
//! let dist = session.query::<Sssp>("sssp", &0).unwrap();
//! assert_eq!(dist[0], 0);
//! let comps = session.query::<ConnectedComponents>("cc", &()).unwrap();
//! assert_eq!(comps.len(), 256);
//!
//! // One apply advances both programs warm.
//! let mut b = DeltaBuilder::new();
//! b.add_edge(0, 200, 3);
//! let report = session.apply(&b.build()).unwrap();
//! assert_eq!(report.programs.len(), 2);
//! ```
//!
//! The engine underneath is still available directly (`runtime`,
//! `delta`, `snapshot`) for hand-composed pipelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aap_algos as algos;
pub use aap_balance as balance;
pub use aap_core as runtime;
pub use aap_delta as delta;
pub use aap_graph as graph;
pub use aap_mapreduce as mapreduce;
pub use aap_session as session;
pub use aap_sim as sim;
pub use aap_snapshot as snapshot;
pub use aap_trace as trace;

pub use aap_session::{Session, SessionBuilder, SessionReader};

/// Most-used items in one import.
pub mod prelude {
    pub use aap_algos::{Bfs, Cf, ConnectedComponents, PageRank, Sssp, VertexCentric};
    pub use aap_balance::{BalancePolicy, BalanceReport};
    pub use aap_core::prelude::*;
    pub use aap_delta::{DeltaBuilder, GraphDelta};
    pub use aap_graph::{Fragment, Graph, GraphBuilder, VertexId};
    pub use aap_session::{
        edge_cut, vertex_cut, CheckpointHandle, CheckpointReport, DurabilityPolicy,
        RebalanceReport, Session, SessionBuilder, SessionError, SessionReader,
    };
    pub use aap_sim::{CostModel, ScheduleFuzz, SimEngine, SimError, SimOpts};
    pub use aap_trace::{Recorder, Tracer};
}
