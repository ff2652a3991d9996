//! # aap-session
//!
//! The unified **serving** facade of the GRAPE+ reproduction: one
//! stateful [`Session`] that owns the partitioned fragments, an engine
//! (threaded [`aap_core::Engine`] or simulated [`aap_sim::SimEngine`] —
//! one session type, generic over a [`Backend`]), *multiple
//! concurrently-retained programs* keyed by name, and optional
//! durability (epoch-stamped snapshots plus an append-only delta log).
//!
//! The paper's AAP model is a serving model — a long-lived process
//! answering queries over a graph while adapting its parallelization.
//! Before this facade, that lifecycle was hand-composed from
//! `Engine::run_retained`, `aap_delta::run_incremental`, and
//! `aap_snapshot::{save_engine, DeltaLog, replay}`, re-threading
//! `StateRemap`s and strategy outputs between crates at every step —
//! once *per program*. A session collapses it to four verbs:
//!
//! * [`Session::query`] — serve a query, retaining its fixpoint;
//! * [`Session::apply`] — apply a delta batch to the fragments **once**
//!   and warm-advance *every* retained program with its own
//!   `delta_strategy` (warm-decrease / warm-increase / cold), logging
//!   the delta when durable;
//! * [`Session::checkpoint`] — write the next snapshot epoch and reset
//!   the log (atomic manifest flip);
//! * [`Session::restore`] — load → attach → replay, per program.
//!
//! ```
//! use aap_session::{edge_cut, Session};
//! use aap_algos::{ConnectedComponents, Sssp};
//! use aap_core::Mode;
//! use aap_delta::DeltaBuilder;
//! use aap_graph::generate;
//!
//! let g = generate::small_world(200, 2, 0.1, 7);
//! let mut session = Session::builder(g)
//!     .partition(edge_cut(4))
//!     .mode(Mode::aap())
//!     .program("sssp", Sssp)
//!     .program("cc", ConnectedComponents)
//!     .open()?;
//!
//! let dist = session.query::<Sssp>("sssp", &0)?;
//! let comps = session.query::<ConnectedComponents>("cc", &())?;
//! assert_eq!(dist[0], 0);
//! assert_eq!(comps.len(), 200);
//!
//! // One apply advances BOTH retained programs from their fixpoints.
//! let mut b = DeltaBuilder::new();
//! b.add_edge(0, 100, 2);
//! let report = session.apply(&b.build())?;
//! assert_eq!(report.programs.len(), 2);
//! # Ok::<(), aap_session::SessionError>(())
//! ```
//!
//! Durability is a builder option: `.durability(policy)?` snapshots the
//! partition at open, logs every applied delta, and
//! [`Session::restore`] + the same `.program(...)` registrations bring
//! a crashed process back to byte-identical state (see the
//! `SessionBuilder` docs for the full round trip).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable;
mod reader;
mod slot;

pub use aap_balance::{BalancePolicy, BalanceReport, MigrationPlan};
pub use aap_core::Backend;
pub use reader::SessionReader;

// Crash-injection surface (test suites only): the durable vtable's
// step signatures plus the real manifest flip, so a failing stand-in
// can wrap it ("commit, then die") at the exact point under test.
#[doc(hidden)]
pub use durable::{
    write_manifest as default_write_manifest, SaveDiffFragsFn, SaveFragsFn, WriteManifestFn,
};

use crate::durable::{
    graph_path, log_path, read_manifest, state_file_programs, state_path, sweep_stale_epochs,
    CheckpointCell, Durable, DurableSpec, PendingCut, StateCrcs,
};
use crate::slot::{AnySlot, ProgramFactory, Slot, SlotFactory};
use aap_balance::{execute_migration, plan_migration, BalanceMonitor};
use aap_core::engine::RunState;
use aap_core::pie::WarmStart;
use aap_core::{Engine, EngineOpts, Mode, WarmStrategy};
use aap_delta::{
    apply_to_fragments_par, validate, DeltaSummary, GraphDelta, IncrementalPlan, InvalidDelta,
};
use aap_graph::mutate::EditBuffers;
use aap_graph::partition::{
    build_fragments_n, build_fragments_vertex_cut_n, hash_partition, vertex_cut_partition,
};
use aap_graph::{Fragment, Graph};
use aap_sim::{SimEngine, SimOpts};
use aap_snapshot::{
    resolve_fragment_chain, write_file_atomic, Codec, DeltaLog, FragmentParts, SnapshotError,
};
use aap_trace::{cat, pid, Args, TraceSink, Tracer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// What went wrong with a session operation.
#[derive(Debug)]
pub enum SessionError {
    /// No program is registered under this name.
    UnknownProgram {
        /// The name that was asked for.
        name: String,
        /// Every name that *is* registered, in registration order —
        /// typo'd names get a pointer to what the session actually
        /// serves.
        registered: Vec<String>,
    },
    /// A typed accessor named a program registered with a different
    /// program type.
    ProgramType {
        /// The program name whose registration disagrees.
        name: String,
    },
    /// The engine's fragments are still shared by a previous borrow
    /// (drop outstanding fragment references before `apply`).
    SharedFragments,
    /// `checkpoint` on a session opened without
    /// [`SessionBuilder::durability`].
    NotDurable,
    /// `rebalance` on a session opened without
    /// [`SessionBuilder::balance`].
    NoBalancePolicy,
    /// A previous apply advanced the in-memory state but failed to
    /// append its delta to the log, so the on-disk history no longer
    /// replays to the live state. Further applies are refused until a
    /// successful [`Session::checkpoint`] re-baselines the directory
    /// (the fresh snapshot embodies the unlogged delta).
    LogWedged,
    /// `.durability(policy)` named a directory that already holds a session;
    /// use [`Session::restore`] to resume it.
    AlreadyInitialized(PathBuf),
    /// `restore` named a directory without a session manifest.
    MissingManifest(PathBuf),
    /// `restore` found persisted state for a program that is not
    /// registered on the builder. Proceeding would silently drop that
    /// program's durable warm state at the next `checkpoint` — register
    /// the program (same name, same type), or delete its
    /// `state.<name>.<epoch>.snap` file to drop it deliberately.
    UnregisteredProgramState {
        /// The program name the state file carries.
        name: String,
    },
    /// The manifest exists but does not parse.
    Manifest {
        /// The manifest path.
        path: PathBuf,
        /// What was wrong with its contents.
        detail: String,
    },
    /// A loaded program state could not be re-anchored against the
    /// loaded fragments.
    Restore {
        /// The attach failure.
        detail: String,
    },
    /// A background checkpoint failed; the session is re-wedged (like
    /// [`SessionError::LogWedged`]) until a successful checkpoint.
    Checkpoint {
        /// The failure, rendered (it crossed a thread boundary).
        detail: String,
    },
    /// An underlying snapshot/log error (tagged with its path).
    Snapshot(SnapshotError),
    /// A plain filesystem error.
    Io(PathBuf, std::io::Error),
    /// `apply` was handed a delta that cannot apply to the session's
    /// graph (see [`aap_delta::validate`]); nothing was planned, mutated
    /// or logged.
    InvalidDelta(InvalidDelta),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownProgram { name, registered } => {
                write!(f, "no program registered as {name:?}")?;
                if registered.is_empty() {
                    write!(f, " (no programs are registered)")
                } else {
                    let names: Vec<String> = registered.iter().map(|n| format!("{n:?}")).collect();
                    write!(f, " (registered programs: {})", names.join(", "))
                }
            }
            SessionError::ProgramType { name } => {
                write!(f, "program {name:?} was registered with a different program type")
            }
            SessionError::SharedFragments => {
                write!(f, "fragments are shared; drop outstanding fragment borrows first")
            }
            SessionError::NotDurable => {
                write!(f, "session was opened without .durability(policy); nothing to checkpoint")
            }
            SessionError::NoBalancePolicy => {
                write!(f, "session was opened without .balance(policy); nothing to rebalance")
            }
            SessionError::LogWedged => write!(
                f,
                "delta log is missing an applied delta (a previous append failed); \
                 checkpoint() to re-baseline before applying further deltas"
            ),
            SessionError::AlreadyInitialized(dir) => write!(
                f,
                "{} already holds a session; use Session::restore to resume it",
                dir.display()
            ),
            SessionError::MissingManifest(dir) => {
                write!(f, "{} holds no session manifest", dir.display())
            }
            SessionError::UnregisteredProgramState { name } => write!(
                f,
                "directory holds retained state for unregistered program {name:?}; \
                 register it or delete its state file to drop it deliberately"
            ),
            SessionError::Manifest { path, detail } => {
                write!(f, "{}: bad manifest: {detail}", path.display())
            }
            SessionError::Restore { detail } => write!(f, "restore: {detail}"),
            SessionError::Checkpoint { detail } => {
                write!(f, "background checkpoint failed: {detail}")
            }
            SessionError::Snapshot(e) => write!(f, "{e}"),
            SessionError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            SessionError::InvalidDelta(e) => write!(f, "invalid delta: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SnapshotError> for SessionError {
    fn from(e: SnapshotError) -> Self {
        SessionError::Snapshot(e)
    }
}

// ---------------------------------------------------------------------
// Partition specs
// ---------------------------------------------------------------------

/// How the session partitions its graph at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSpec {
    /// Hash edge-cut into `m` fragments (owned vertices + edge-less
    /// mirrors) — the default.
    EdgeCut(usize),
    /// Hash vertex-cut into `m` fragments (replicated copies carrying
    /// edges).
    VertexCut(usize),
}

/// Hash edge-cut into `m` fragments (builder shorthand).
pub fn edge_cut(m: usize) -> PartitionSpec {
    PartitionSpec::EdgeCut(m)
}

/// Hash vertex-cut into `m` fragments (builder shorthand).
pub fn vertex_cut(m: usize) -> PartitionSpec {
    PartitionSpec::VertexCut(m)
}

impl PartitionSpec {
    fn build<V: Clone, E: Clone>(self, g: &Graph<V, E>) -> Vec<Fragment<V, E>> {
        match self {
            PartitionSpec::EdgeCut(m) => build_fragments_n(g, &hash_partition(g, m), m),
            PartitionSpec::VertexCut(m) => {
                build_fragments_vertex_cut_n(g, &vertex_cut_partition(g, m), m)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Durability policy
// ---------------------------------------------------------------------

/// How a durable session checkpoints: where the epoch-chained directory
/// lives, whether checkpoints are differential (only fragments and
/// program-state shards whose bytes changed since the parent epoch) or
/// full baselines, how long the epoch chain may grow before it is
/// compacted into a fresh baseline, whether checkpoints run on a
/// background thread behind a consistent cut, and how often one fires
/// automatically.
///
/// ```
/// use aap_session::DurabilityPolicy;
///
/// let dir = std::env::temp_dir().join(format!("aap_policy_doc_{}", std::process::id()));
/// let policy = DurabilityPolicy::new(&dir)
///     .checkpoint_every(64) // auto-checkpoint every 64 applies
///     .compact_after(8)     // rewrite the chain as a baseline at 8 epochs
///     .background(true);    // serialize + commit off the apply path
/// assert!(policy.is_differential());
/// ```
///
/// Attached with [`SessionBuilder::durability`]:
///
/// ```
/// use aap_session::{edge_cut, DurabilityPolicy, Session};
/// use aap_algos::Sssp;
/// use aap_delta::DeltaBuilder;
/// use aap_graph::generate;
///
/// let dir = std::env::temp_dir().join(format!("aap_policy_doc2_{}", std::process::id()));
/// let g = generate::small_world(120, 2, 0.1, 3);
/// let mut session = Session::builder(g)
///     .partition(edge_cut(3))
///     .program("sssp", Sssp)
///     .durability(DurabilityPolicy::new(&dir).compact_after(4))?
///     .open()?;
/// session.query::<Sssp>("sssp", &0)?;
/// let mut b = DeltaBuilder::new();
/// b.add_edge(0, 60, 1);
/// session.apply(&b.build())?;
/// let report = session.checkpoint()?; // differential: only dirty fragments
/// assert!(report.differential);
/// assert!(report.fragments_written >= 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), aap_session::SessionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DurabilityPolicy {
    pub(crate) dir: PathBuf,
    pub(crate) checkpoint_every: Option<u64>,
    pub(crate) compact_after: Option<u64>,
    pub(crate) background: bool,
    pub(crate) differential: bool,
}

impl DurabilityPolicy {
    /// A differential, foreground, manually-checkpointed policy rooted
    /// at `dir` (created at `open` if missing).
    pub fn new(dir: impl AsRef<Path>) -> Self {
        DurabilityPolicy {
            dir: dir.as_ref().to_path_buf(),
            checkpoint_every: None,
            compact_after: None,
            background: false,
            differential: true,
        }
    }

    /// Checkpoint automatically after every `applies` successful
    /// applies (in addition to explicit [`Session::checkpoint`] calls).
    /// Default: manual checkpoints only.
    pub fn checkpoint_every(mut self, applies: u64) -> Self {
        self.checkpoint_every = Some(applies.max(1));
        self
    }

    /// When the epoch chain reaches `epochs` files, the next checkpoint
    /// rewrites it as one fresh full baseline instead of appending —
    /// bounding both restore's chain walk and directory size. Default:
    /// the chain grows until an explicit full checkpoint.
    pub fn compact_after(mut self, epochs: u64) -> Self {
        self.compact_after = Some(epochs.max(1));
        self
    }

    /// Run checkpoints on a background thread behind a consistent cut:
    /// the writer clones fragment `Arc`s and encodes program states at
    /// the cut, then keeps applying (copy-on-write detaches shared
    /// fragments) while serialization and the manifest flip proceed off
    /// the apply path. [`Session::checkpoint`] still works and runs
    /// foreground; `true` here routes *automatic* checkpoints (and
    /// [`Session::checkpoint_background`] calls) through the cut.
    pub fn background(mut self, yes: bool) -> Self {
        self.background = yes;
        self
    }

    /// Differential (default) writes only fragments and state shards
    /// whose bytes changed since the parent epoch, chaining epochs back
    /// to a baseline; `false` restores the original behaviour — every
    /// checkpoint is a full snapshot and the chain is always one epoch.
    pub fn differential(mut self, yes: bool) -> Self {
        self.differential = yes;
        self
    }

    /// Whether checkpoints are differential.
    pub fn is_differential(&self) -> bool {
        self.differential
    }
}

/// What one checkpoint wrote, returned by [`Session::checkpoint`] and
/// published by background cuts (via [`CheckpointHandle`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The committed epoch.
    pub epoch: u64,
    /// Fragments serialized into this epoch's graph file.
    pub fragments_written: u64,
    /// Fragments skipped as byte-identical to their chained version.
    pub fragments_skipped: u64,
    /// Total bytes written (graph file + state files).
    pub bytes: u64,
    /// Delta-log records superseded (and deleted) by this checkpoint.
    pub log_records_compacted: u64,
    /// True when this epoch is a differential link, false for a full
    /// baseline (fresh chain).
    pub differential: bool,
}

/// Completion handle of a background checkpoint
/// ([`Session::checkpoint_background`]): observe or await the cut's
/// commit from any thread. The *session-side* bookkeeping (epoch
/// advance, log rotation) lands when the writer next touches the
/// durable state — any `apply`, `checkpoint`, or
/// [`Session::finish_checkpoint`].
pub struct CheckpointHandle {
    cell: CheckpointCell,
}

impl CheckpointHandle {
    /// True once the background thread has committed or failed.
    pub fn is_done(&self) -> bool {
        self.cell.0.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }

    /// Block until the cut commits (its report) or fails
    /// ([`SessionError::Checkpoint`]). Does not perform the writer-side
    /// harvest; pair with [`Session::finish_checkpoint`] when the
    /// session itself should settle.
    pub fn wait(&self) -> Result<CheckpointReport, SessionError> {
        let (lock, cvar) = &*self.cell;
        let mut slot = lock.lock().unwrap_or_else(|e| e.into_inner());
        while slot.is_none() {
            slot = cvar.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        match slot.as_ref().expect("loop exits on Some") {
            Ok(report) => Ok(report.clone()),
            Err(detail) => Err(SessionError::Checkpoint { detail: detail.clone() }),
        }
    }
}

// ---------------------------------------------------------------------
// Serving metrics
// ---------------------------------------------------------------------

/// Protocol-level serving counters, maintained by every session and
/// readable via [`Session::metrics`]. All counters are exact integers
/// independent of thread scheduling (they count facade events, not
/// engine work), so they are directly comparable across runs — the
/// `serving_sssp` bench gate diffs them against a checked-in baseline.
/// With tracing enabled they are additionally emitted as Chrome counter
/// tracks on the session process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// The publication version ([`Session::version`]): one bump per
    /// publication event (fresh query, admission window, apply batch,
    /// restore).
    pub publications: u64,
    /// [`Session::query`] calls that computed (and published) a new
    /// answer.
    pub fresh_queries: u64,
    /// [`Session::query`] calls served from the retained fixpoint or
    /// the bounded answer cache (no engine run, no publication).
    pub answer_cache_hits: u64,
    /// Answers newly computed across all [`Session::serve_admitted`]
    /// windows.
    pub admitted: u64,
    /// Delta batches applied (including batches replayed by restore).
    pub applies: u64,
    /// Durable checkpoints written.
    pub checkpoints: u64,
    /// Fragments serialized across all checkpoints.
    pub checkpoint_fragments_written: u64,
    /// Fragments skipped (byte-identical to their chained version)
    /// across all differential checkpoints.
    pub checkpoint_fragments_skipped: u64,
    /// Bytes written across all checkpoints (graph + state files).
    pub checkpoint_bytes: u64,
    /// Delta-log records superseded (and deleted) by checkpoints.
    pub log_records_compacted: u64,
    /// Rebalance rounds that executed a non-empty migration plan.
    pub rebalances: u64,
    /// Ownership moves executed across all rebalance rounds.
    pub vertices_migrated: u64,
    /// Estimated payload bytes moved across all rebalance rounds.
    pub migration_bytes: u64,
}

// ---------------------------------------------------------------------
// Apply report
// ---------------------------------------------------------------------

/// What one [`Session::apply`] did: the resolved batch shape and, per
/// retained program, the strategy that advanced it.
#[derive(Debug)]
pub struct ApplyReport {
    /// Batch shape with weight-change directions resolved against the
    /// pre-apply graph.
    pub summary: DeltaSummary,
    /// One entry per program that held retained state (programs never
    /// queried have nothing to advance and are absent).
    pub programs: Vec<ProgramApply>,
}

impl ApplyReport {
    /// The strategy that advanced `name`, if it advanced.
    pub fn strategy(&self, name: &str) -> Option<WarmStrategy> {
        self.programs.iter().find(|p| p.name == name).map(|p| p.strategy)
    }
}

/// One program's advance within an [`ApplyReport`].
#[derive(Debug)]
pub struct ProgramApply {
    /// The program's registered name.
    pub name: String,
    /// Which evaluation strategy ran
    /// (`warm-decrease | warm-increase | cold`).
    pub strategy: WarmStrategy,
    /// Updates shipped by the advancing run.
    pub updates: u64,
}

/// What one [`Session::rebalance`] round did. An empty plan yields a
/// no-op report (`before == after`, zero moves) without touching any
/// fragment or bumping the version.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceReport {
    /// Load imbalance (max/mean fragment load) when the round started.
    pub imbalance_before: f64,
    /// Load imbalance after the migration settled.
    pub imbalance_after: f64,
    /// Ownership moves the executed plan carried.
    pub vertices_migrated: u64,
    /// Estimated payload bytes moved (vertex values + adjacency).
    pub migration_bytes: u64,
    /// Fragments rebuilt in place by the migration.
    pub fragments_repacked: usize,
}

// ---------------------------------------------------------------------
// The builder
// ---------------------------------------------------------------------

enum Source<V, E> {
    Graph(Graph<V, E>),
    Restore,
}

/// Named, type-erased program slots in registration order.
type Slots<V, E, B> = Vec<(String, Box<dyn AnySlot<V, E, B>>)>;

/// Builder for a [`Session`]: graph (or restore directory), partition,
/// execution mode, registered programs, and optional durability. See
/// the crate docs for the fresh-open shape; the durable round trip:
///
/// ```
/// use aap_session::{edge_cut, DurabilityPolicy, Session};
/// use aap_algos::Sssp;
/// use aap_delta::DeltaBuilder;
/// use aap_graph::generate;
///
/// let dir = std::env::temp_dir().join(format!("aap_session_doc_{}", std::process::id()));
/// let g = generate::small_world(120, 2, 0.1, 3);
/// let mut session = Session::builder(g)
///     .partition(edge_cut(3))
///     .program("sssp", Sssp)
///     .durability(DurabilityPolicy::new(&dir).differential(false))?
///     .open()?;
/// let before = session.query::<Sssp>("sssp", &0)?;
/// let mut b = DeltaBuilder::new();
/// b.add_edge(0, 60, 1);
/// session.apply(&b.build())?; // logged
/// let served = session.query::<Sssp>("sssp", &0)?;
/// drop(session); // "crash"
///
/// // load -> attach -> replay, per program, same registrations. The
/// // node/edge payload types are pinned by annotation — programs like
/// // `Sssp` are generic over them, so nothing else infers them:
/// let mut restored: Session<(), u32, _> =
///     Session::restore(&dir).program("sssp", Sssp).open()?;
/// assert_eq!(restored.query::<Sssp>("sssp", &0)?, served);
/// assert_ne!(before, served);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), aap_session::SessionError>(())
/// ```
pub struct SessionBuilder<V, E> {
    source: Source<V, E>,
    partition: PartitionSpec,
    mode: Mode,
    threads: Option<usize>,
    max_rounds: Option<u32>,
    answer_cache: usize,
    durable: Option<(DurableSpec<V, E>, DurabilityPolicy)>,
    balance: Option<BalancePolicy>,
    programs: Vec<(String, Box<dyn SlotFactory<V, E>>)>,
    tracer: Tracer,
}

/// Default per-program answer-cache capacity (distinct non-retained
/// query values served warm per admission window).
const DEFAULT_ANSWER_CACHE: usize = 8;

fn valid_program_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

impl<V, E> SessionBuilder<V, E>
where
    V: Clone + Send + Sync + 'static,
    E: Clone + PartialOrd + Send + Sync + 'static,
{
    /// Start a builder over a graph to be partitioned at open.
    /// [`Session::builder`] is the usual spelling.
    pub fn new(graph: Graph<V, E>) -> Self {
        SessionBuilder {
            source: Source::Graph(graph),
            partition: PartitionSpec::EdgeCut(EngineOpts::default().threads.max(2)),
            mode: Mode::aap(),
            threads: None,
            max_rounds: None,
            answer_cache: DEFAULT_ANSWER_CACHE,
            durable: None,
            balance: None,
            programs: Vec::new(),
            tracer: Tracer::default(),
        }
    }

    /// Start a builder that restores a durable session directory at
    /// open (resolve the manifest's epoch chain → attach per-program
    /// states → replay the delta log). Register the same programs the
    /// directory was checkpointed with; [`Session::restore`] is the
    /// usual spelling. The restored session keeps the conservative
    /// full-snapshot policy unless [`SessionBuilder::durability`]
    /// overrides it.
    pub fn restore_from(dir: impl AsRef<Path>) -> Self
    where
        V: Codec,
        E: Codec,
    {
        let dir = dir.as_ref().to_path_buf();
        SessionBuilder {
            source: Source::Restore,
            partition: PartitionSpec::EdgeCut(EngineOpts::default().threads.max(2)),
            mode: Mode::aap(),
            threads: None,
            max_rounds: None,
            answer_cache: DEFAULT_ANSWER_CACHE,
            durable: Some((
                DurableSpec::new(dir.clone()),
                DurabilityPolicy::new(dir).differential(false),
            )),
            balance: None,
            programs: Vec::new(),
            tracer: Tracer::default(),
        }
    }

    /// How to partition the graph (default: hash edge-cut over the
    /// default thread count). Ignored on restore — the persisted
    /// partition is loaded as saved.
    pub fn partition(mut self, spec: PartitionSpec) -> Self {
        self.partition = spec;
        self
    }

    /// Execution mode (δ policy) of the engine (default: AAP).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Physical worker threads for the threaded backend (default: the
    /// machine's parallelism). The simulator ignores it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Abort any run exceeding this many rounds (safety valve; default
    /// unbounded on the threaded backend).
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Attach a structured-tracing sink: the session emits apply /
    /// serve / checkpoint / restore spans and counter tracks, and the
    /// backend is handed the same tracer so engine rounds, delta
    /// strategies, and per-fragment repacks land in one merged trace
    /// (write it out with [`aap_trace::write_chrome_trace`]). Share one
    /// sink across sessions by passing `Arc` clones of it. Without this
    /// call tracing is disabled and costs one branch per call site.
    ///
    /// ```no_run
    /// # use aap_session::{edge_cut, Session};
    /// # use aap_algos::Sssp;
    /// # use aap_graph::generate;
    /// use std::sync::Arc;
    /// let rec = Arc::new(aap_trace::Recorder::with_capacity(1 << 16));
    /// let mut session = Session::builder(generate::small_world(100, 2, 0.1, 1))
    ///     .partition(edge_cut(2))
    ///     .program("sssp", Sssp)
    ///     .trace(Arc::clone(&rec))
    ///     .open()?;
    /// session.query::<Sssp>("sssp", &0)?;
    /// aap_trace::write_chrome_trace("run.trace.json", &rec.events())?;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn trace(mut self, sink: impl TraceSink + 'static) -> Self {
        self.tracer = Tracer::new(sink);
        self
    }

    /// Configure elastic rebalancing (see [`BalancePolicy`]): the
    /// session tracks partition drift incrementally across applies
    /// (per-fragment owned/edge counts and delta-touch rates — no full
    /// scans), and [`Session::rebalance`] migrates boundary vertices
    /// from overloaded to underloaded fragments in place, carrying every
    /// retained program's warm state along. With
    /// `BalancePolicy::new().auto(true)` the session rebalances
    /// opportunistically after any apply that leaves the load ratio over
    /// `max_imbalance`.
    ///
    /// ```
    /// use aap_session::{edge_cut, BalancePolicy, Session};
    /// use aap_algos::Sssp;
    /// use aap_graph::generate;
    ///
    /// let g = generate::small_world(120, 2, 0.1, 3);
    /// let mut session = Session::builder(g)
    ///     .partition(edge_cut(3))
    ///     .program("sssp", Sssp)
    ///     .balance(BalancePolicy::new().max_imbalance(1.1).migration_budget(64))
    ///     .open()?;
    /// session.query::<Sssp>("sssp", &0)?;
    /// let report = session.rebalance()?;
    /// assert!(report.imbalance_after <= report.imbalance_before);
    /// # Ok::<(), aap_session::SessionError>(())
    /// ```
    pub fn balance(mut self, policy: BalancePolicy) -> Self {
        self.balance = Some(policy);
        self
    }

    /// Per-program capacity of the bounded answer cache that serves
    /// non-retained query values (default 8; 0 disables caching, so
    /// every non-retained query value costs a cold run). See
    /// [`Session::query`] for the admission semantics.
    pub fn answer_cache(mut self, capacity: usize) -> Self {
        self.answer_cache = capacity;
        self
    }

    /// Register a program under `name`. Programs are retained
    /// independently: each keeps its own query, state, and strategy;
    /// one [`Session::apply`] advances them all.
    ///
    /// The `Codec` bounds make every registered program durable-capable
    /// (checkpointable); non-durable sessions simply never call them.
    ///
    /// # Panics
    /// Panics on a duplicate name or a name that is not
    /// `[A-Za-z0-9_-]+` (names become file-name components of durable
    /// sessions).
    pub fn program<P>(mut self, name: impl Into<String>, prog: P) -> Self
    where
        P: WarmStart<V, E> + 'static,
        P::Query: Clone + PartialEq + Codec + Send + Sync + 'static,
        P::State: Clone + Codec,
        P::Out: Clone + Send + Sync + 'static,
    {
        let name = name.into();
        assert!(
            valid_program_name(&name),
            "program name {name:?} must be non-empty [A-Za-z0-9_-]+"
        );
        assert!(
            !self.programs.iter().any(|(n, _)| *n == name),
            "program {name:?} registered twice"
        );
        self.programs.push((name, Box::new(ProgramFactory::new(prog))));
        self
    }

    /// Make the session durable under `policy` (its directory is
    /// created if missing): the partition is snapshotted at open, every
    /// applied delta is logged, and checkpoints follow the policy —
    /// differential epoch chains, compaction thresholds, automatic
    /// cadence, background cuts (see [`DurabilityPolicy`]). Fails at
    /// `open` if the directory already holds a session (resume those
    /// with [`Session::restore`]).
    pub fn durability(mut self, policy: DurabilityPolicy) -> Result<Self, SessionError>
    where
        V: Codec,
        E: Codec,
    {
        std::fs::create_dir_all(&policy.dir)
            .map_err(|e| SessionError::Io(policy.dir.clone(), e))?;
        self.durable = Some((DurableSpec::new(policy.dir.clone()), policy));
        Ok(self)
    }

    /// Open the session on the threaded GRAPE+ engine.
    pub fn open(self) -> Result<Session<V, E, Engine<V, E>>, SessionError> {
        let opts = EngineOpts {
            threads: self.threads.unwrap_or_else(|| EngineOpts::default().threads),
            mode: self.mode.clone(),
            max_rounds: self.max_rounds,
        };
        let cap = self.answer_cache;
        self.open_with(|frags| Engine::new(frags, opts), move |f| f.engine_slot(cap))
    }

    /// Open the session on the deterministic discrete-event simulator
    /// (virtual time, default latency/cost model) — same facade, same
    /// lifecycle, reproducible runs.
    pub fn open_sim(self) -> Result<Session<V, E, SimEngine<V, E>>, SessionError> {
        let opts = SimOpts { mode: self.mode.clone(), ..SimOpts::default() };
        let opts = SimOpts { max_rounds: self.max_rounds.or(opts.max_rounds), ..opts };
        let cap = self.answer_cache;
        // Default latency/cost/schedule knobs always validate.
        self.open_with(
            |frags| SimEngine::new(frags, opts).expect("default sim opts are valid"),
            move |f| f.sim_slot(cap),
        )
    }

    fn open_with<B, MB, MS>(
        self,
        make_backend: MB,
        make_slot: MS,
    ) -> Result<Session<V, E, B>, SessionError>
    where
        B: Backend<V, E>,
        MB: FnOnce(Vec<Fragment<V, E>>) -> B,
        MS: Fn(Box<dyn SlotFactory<V, E>>) -> Box<dyn AnySlot<V, E, B>>,
    {
        let SessionBuilder { source, partition, durable, balance, programs, tracer, .. } = self;
        match source {
            Source::Graph(g) => {
                let frags = partition.build(&g);
                let mut backend = make_backend(frags);
                backend.set_tracer(tracer.clone());
                let slots: Slots<V, E, B> =
                    programs.into_iter().map(|(n, f)| (n, make_slot(f))).collect();
                let mut session = Session {
                    backend,
                    slots,
                    durable: None,
                    balance: None,
                    bufs: EditBuffers::traced(tracer.clone()),
                    version: 0,
                    tracer,
                    metrics: SessionMetrics::default(),
                };
                let bal = balance.map(|p| (p, BalanceMonitor::new(session.backend.fragments())));
                session.balance = bal;
                if let Some((spec, policy)) = durable {
                    if read_manifest(&spec.dir)?.is_some() {
                        return Err(SessionError::AlreadyInitialized(spec.dir));
                    }
                    (spec.save_frags)(&graph_path(&spec.dir, 0), session.backend.fragments())?;
                    let log = DeltaLog::create(log_path(&spec.dir, 0))?;
                    (spec.write_manifest)(&spec.dir, &[0])?;
                    let m = session.backend.fragments().len();
                    session.durable = Some(Durable {
                        spec,
                        policy,
                        chain: vec![0],
                        log,
                        log_wedged: false,
                        dirty: vec![false; m],
                        state_crcs: HashMap::new(),
                        log_records: 0,
                        applies_since_checkpoint: 0,
                        pending: None,
                    });
                }
                Ok(session)
            }
            Source::Restore => {
                let (spec, policy) = durable.expect("restore builders always carry a durable spec");
                let traced = tracer.enabled();
                if traced {
                    tracer.begin(pid::SESSION, 0, cat::DURABLE, "restore", Args::new());
                }
                let chain = read_manifest(&spec.dir)?
                    .ok_or_else(|| SessionError::MissingManifest(spec.dir.clone()))?;
                // Resolve the newest version of each fragment across the
                // epoch chain (a pre-differential directory is the
                // single-file chain `[N]`).
                let mut parts: Vec<FragmentParts<V, E>> = Vec::with_capacity(chain.len());
                for &e in &chain {
                    parts.push((spec.load_frag_parts)(&graph_path(&spec.dir, e))?);
                }
                let frags = resolve_fragment_chain(parts)?;
                let mut backend = make_backend(frags);
                backend.set_tracer(tracer.clone());
                let slots: Slots<V, E, B> =
                    programs.into_iter().map(|(n, f)| (n, make_slot(f))).collect();
                let mut session = Session {
                    backend,
                    slots,
                    durable: None,
                    balance: None,
                    bufs: EditBuffers::traced(tracer.clone()),
                    version: 0,
                    tracer,
                    metrics: SessionMetrics::default(),
                };
                // Every persisted state must have a registration: a
                // later checkpoint would silently drop an unregistered
                // program's durable warm state (its files are neither
                // carried forward nor cleaned up).
                for prog in state_file_programs(&spec.dir, &chain)? {
                    if !session.slots.iter().any(|(n, _)| *n == prog) {
                        return Err(SessionError::UnregisteredProgramState { name: prog });
                    }
                }
                {
                    let Session { slots, backend, version, .. } = &mut session;
                    for (name, slot) in slots.iter_mut() {
                        let paths: Vec<PathBuf> = chain
                            .iter()
                            .map(|&e| state_path(&spec.dir, e, name))
                            .filter(|p| p.exists())
                            .collect();
                        if slot.load_state_chain(&paths, backend)? {
                            *version += 1;
                            slot.publish(*version);
                        }
                    }
                }
                // Replay the log: apply each delta once, advancing every
                // attached program — without re-logging. The read is the
                // tolerant `recover`: a torn, never-acknowledged tail
                // record from a crash mid-append is truncated away. The
                // replayed deltas' changed fragments seed the dirty set:
                // they live only in the log, so the next (differential)
                // checkpoint must write them.
                let (deltas, _dropped_torn_tail) = (spec.read_log)(&log_path(&spec.dir, chain[0]))?;
                let mut dirty = vec![false; session.backend.fragments().len()];
                for delta in &deltas {
                    let (_, changed) = session.apply_inner(delta)?;
                    for (d, c) in dirty.iter_mut().zip(&changed) {
                        *d |= *c;
                    }
                }
                let log = DeltaLog::open_append(log_path(&spec.dir, chain[0]))?;
                // The drift monitor scans once *after* replay (during
                // it `session.balance` is `None`, so `apply_inner`
                // skips the per-batch refresh) — rebalances are never
                // logged, so the replayed layout is the starting point.
                let bal = balance.map(|p| (p, BalanceMonitor::new(session.backend.fragments())));
                session.balance = bal;
                // Reclaim generations stranded by a crash between a
                // manifest flip and its cleanup (or mid-checkpoint).
                sweep_stale_epochs(&spec.dir, &chain);
                let epoch = chain[0];
                session.durable = Some(Durable {
                    spec,
                    policy,
                    chain,
                    log,
                    log_wedged: false,
                    dirty,
                    // No fingerprints from the previous process: the
                    // first state write per program is a full file.
                    state_crcs: HashMap::new(),
                    log_records: deltas.len() as u64,
                    applies_since_checkpoint: 0,
                    pending: None,
                });
                if traced {
                    session.tracer.end(
                        pid::SESSION,
                        0,
                        cat::DURABLE,
                        "restore",
                        Args::new().with("epoch", epoch).with("replayed", deltas.len()),
                    );
                    session.emit_counters();
                }
                Ok(session)
            }
        }
    }
}

// ---------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------

/// A long-lived serving facade over one partitioned graph: multiple
/// retained programs, one delta lifecycle, optional durability. Built
/// by [`Session::builder`] / restored by [`Session::restore`]; see the
/// crate docs for the full tour.
pub struct Session<V, E, B: Backend<V, E>> {
    backend: B,
    slots: Slots<V, E, B>,
    durable: Option<Durable<V, E>>,
    bufs: EditBuffers,
    /// Monotone publication counter: bumped once per publication event
    /// (fresh query, admission window, apply batch, restore), stamped
    /// into every slot publication so readers can order what they see.
    version: u64,
    /// Structured-event tracer ([`SessionBuilder::trace`]); disabled —
    /// one branch per call site — unless a sink was attached.
    tracer: Tracer,
    /// Serving counters; `publications` is filled from `version` at
    /// read time ([`Session::metrics`]), the rest accumulate here.
    metrics: SessionMetrics,
    /// Elastic rebalancing ([`SessionBuilder::balance`]): the policy
    /// plus a drift monitor whose per-fragment counts are refreshed
    /// incrementally from each apply's changed-fragment set — no full
    /// scans on the serving path. `None` when not configured.
    balance: Option<(BalancePolicy, BalanceMonitor)>,
}

impl<V, E> Session<V, E, Engine<V, E>>
where
    V: Clone + Send + Sync + 'static,
    E: Clone + PartialOrd + Send + Sync + 'static,
{
    /// Start building a session over `graph` (see [`SessionBuilder`]).
    pub fn builder(graph: Graph<V, E>) -> SessionBuilder<V, E> {
        SessionBuilder::new(graph)
    }

    /// Start building a session that resumes the durable directory
    /// `dir`: open loads the manifest's snapshot epoch, re-attaches
    /// each registered program's persisted state, and replays the delta
    /// log — landing byte-identical to the process that wrote it.
    pub fn restore(dir: impl AsRef<Path>) -> SessionBuilder<V, E>
    where
        V: Codec,
        E: Codec,
    {
        SessionBuilder::restore_from(dir)
    }
}

impl<V, E, B> Session<V, E, B>
where
    V: Clone + Send + Sync + 'static,
    E: Clone + PartialOrd + Send + Sync + 'static,
    B: Backend<V, E>,
{
    /// The fragments the session computes over.
    pub fn fragments(&self) -> &[Arc<Fragment<V, E>>] {
        self.backend.fragments()
    }

    /// The underlying backend (read access — e.g. engine options).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Registered program names, in registration order.
    pub fn program_names(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().map(|(n, _)| n.as_str())
    }

    /// True when the session snapshots and logs (`.durability(policy)`).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The current durable snapshot epoch, if durable.
    pub fn epoch(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.epoch())
    }

    /// The committed epoch chain (newest first, ending at a full
    /// baseline), if durable. Always a single epoch under
    /// `differential(false)` policies.
    pub fn epoch_chain(&self) -> Option<&[u64]> {
        self.durable.as_ref().map(|d| d.chain.as_slice())
    }

    /// The session-wide publication version (0 until something is
    /// published; bumped by every publication event).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Protocol-level serving counters (see [`SessionMetrics`]):
    /// publication version, fresh vs cache-served queries, admitted
    /// answers, applies, checkpoints. Exact integers independent of
    /// thread scheduling; with tracing enabled the same values are
    /// emitted as counter tracks.
    pub fn metrics(&self) -> SessionMetrics {
        SessionMetrics { publications: self.version, ..self.metrics }
    }

    /// Emit every serving counter as a Chrome counter event on the
    /// session process — one sample per call, stepped tracks in the
    /// viewer. Callers guard with `tracer.enabled()`.
    fn emit_counters(&self) {
        let m = self.metrics();
        self.tracer.counter(pid::SESSION, 0, "publications", m.publications);
        self.tracer.counter(pid::SESSION, 0, "fresh_queries", m.fresh_queries);
        self.tracer.counter(pid::SESSION, 0, "answer_cache_hits", m.answer_cache_hits);
        self.tracer.counter(pid::SESSION, 0, "admitted", m.admitted);
        if self.durable.is_some() {
            self.tracer.counter(pid::SESSION, 0, "checkpoints", m.checkpoints);
            self.tracer.counter(
                pid::SESSION,
                0,
                "checkpoint_fragments_written",
                m.checkpoint_fragments_written,
            );
            self.tracer.counter(
                pid::SESSION,
                0,
                "checkpoint_fragments_skipped",
                m.checkpoint_fragments_skipped,
            );
            self.tracer.counter(pid::SESSION, 0, "checkpoint_bytes", m.checkpoint_bytes);
            self.tracer.counter(pid::SESSION, 0, "log_records_compacted", m.log_records_compacted);
        }
        if self.balance.is_some() {
            self.tracer.counter(pid::SESSION, 0, "rebalances", m.rebalances);
            self.tracer.counter(pid::SESSION, 0, "vertices_migrated", m.vertices_migrated);
            self.tracer.counter(pid::SESSION, 0, "migration_bytes", m.migration_bytes);
        }
    }

    fn slot_index(&self, name: &str) -> Result<usize, SessionError> {
        self.slots.iter().position(|(n, _)| n == name).ok_or_else(|| SessionError::UnknownProgram {
            name: name.to_string(),
            registered: self.slots.iter().map(|(n, _)| n.clone()).collect(),
        })
    }

    /// Look program `name` up and downcast its slot to the caller's
    /// program type — the shared head of every typed accessor.
    fn typed_slot<P>(&self, name: &str) -> Result<&Slot<V, E, P>, SessionError>
    where
        P: WarmStart<V, E> + 'static,
        P::Query: Clone + PartialEq + Send + Sync + 'static,
        P::Out: Clone + Send + Sync + 'static,
    {
        let idx = self.slot_index(name)?;
        self.slots[idx]
            .1
            .as_any()
            .downcast_ref::<Slot<V, E, P>>()
            .ok_or_else(|| SessionError::ProgramType { name: name.to_string() })
    }

    /// Serve a query against program `name`, which must have been
    /// registered with program type `P` (checked; mismatches are a
    /// [`SessionError::ProgramType`]).
    ///
    /// Serving is **non-evicting**: the program retains one warm
    /// fixpoint (its *retained query*, set by the first-ever query and
    /// switched only by [`Session::retain_query`]) that
    /// [`Session::apply`] keeps current across deltas, and every other
    /// query value is answered by a cold run that does *not* disturb
    /// that state, cached in a small bounded per-program answer cache
    /// (capacity via [`SessionBuilder::answer_cache`], MRU eviction).
    /// Repeats of the retained query or of a cached value never touch
    /// the engine; the returned value is a clone — use
    /// [`Session::output`] for a zero-copy borrow, or a
    /// [`Session::reader`] handle for `Arc`-cheap concurrent reads.
    ///
    /// Applying a delta clears the answer cache (its entries described
    /// the pre-apply graph) and warm-advances only the retained query.
    /// Every freshly computed answer is epoch-published for readers.
    ///
    /// On a durable session only the retained query is checkpointed:
    /// state files record it as of the last [`Session::checkpoint`],
    /// and a restore resumes it (the applied delta stream — what the
    /// log records — replays exactly either way; re-querying other
    /// values after restore is one cold run each).
    pub fn query<P>(&mut self, name: &str, q: &P::Query) -> Result<P::Out, SessionError>
    where
        P: WarmStart<V, E> + 'static,
        P::Query: Clone + PartialEq + Send + Sync + 'static,
        P::Out: Clone + Send + Sync + 'static,
    {
        // `query` mutates the slot while borrowing the backend, so it
        // needs the split-borrow form of `typed_slot` inline.
        let idx = self.slot_index(name)?;
        let out = {
            let Session { slots, backend, version, tracer, metrics, .. } = self;
            let slot = slots[idx]
                .1
                .as_any_mut()
                .downcast_mut::<Slot<V, E, P>>()
                .ok_or_else(|| SessionError::ProgramType { name: name.to_string() })?;
            let traced = tracer.enabled();
            if traced {
                tracer.begin(pid::SESSION, idx as u32, cat::SERVE, "query", Args::new());
            }
            let (out, fresh) = slot.serve(backend, q);
            if fresh {
                *version += 1;
                slot.publish_at(*version);
                metrics.fresh_queries += 1;
            } else {
                metrics.answer_cache_hits += 1;
            }
            if traced {
                tracer.end(
                    pid::SESSION,
                    idx as u32,
                    cat::SERVE,
                    "query",
                    Args::new().with("fresh", fresh).with("version", *version),
                );
            }
            out
        };
        if self.tracer.enabled() {
            self.emit_counters();
        }
        Ok((*out).clone())
    }

    /// Make `q` program `name`'s **retained** query — the one fixpoint
    /// [`Session::apply`] warm-advances — via a cold retained run that
    /// replaces the current warm state. The previous retained answer is
    /// demoted into the answer cache (it still describes the current
    /// graph). Use this deliberately when the serving focus moves;
    /// plain [`Session::query`] never evicts.
    pub fn retain_query<P>(&mut self, name: &str, q: &P::Query) -> Result<P::Out, SessionError>
    where
        P: WarmStart<V, E> + 'static,
        P::Query: Clone + PartialEq + Send + Sync + 'static,
        P::Out: Clone + Send + Sync + 'static,
    {
        let idx = self.slot_index(name)?;
        let Session { slots, backend, version, tracer, .. } = self;
        let slot = slots[idx]
            .1
            .as_any_mut()
            .downcast_mut::<Slot<V, E, P>>()
            .ok_or_else(|| SessionError::ProgramType { name: name.to_string() })?;
        let traced = tracer.enabled();
        if traced {
            tracer.begin(pid::SESSION, idx as u32, cat::SERVE, "retain_query", Args::new());
        }
        let out = slot.retain(backend, q);
        *version += 1;
        slot.publish_at(*version);
        if traced {
            tracer.end(
                pid::SESSION,
                idx as u32,
                cat::SERVE,
                "retain_query",
                Args::new().with("version", *version),
            );
        }
        Ok((*out).clone())
    }

    /// Answer every query value readers have
    /// [requested](SessionReader::request) since the last admission
    /// window, program by program: each distinct queued value is served
    /// from the retained fixpoint, the answer cache, or one cold run,
    /// and every program that computed something republishes. Returns
    /// the number of newly computed answers across all programs.
    pub fn serve_admitted(&mut self) -> Result<usize, SessionError> {
        let traced = self.tracer.enabled();
        if traced {
            self.tracer.begin(pid::SESSION, 0, cat::SERVE, "serve_admitted", Args::new());
        }
        let Session { slots, backend, version, .. } = self;
        let mut fresh = 0;
        for (_, slot) in slots.iter_mut() {
            let n = slot.serve_pending(backend);
            if n > 0 {
                *version += 1;
                slot.publish(*version);
                fresh += n;
            }
        }
        self.metrics.admitted += fresh as u64;
        if traced {
            self.tracer.end(
                pid::SESSION,
                0,
                cat::SERVE,
                "serve_admitted",
                Args::new().with("computed", fresh).with("version", self.version),
            );
            self.emit_counters();
        }
        Ok(fresh)
    }

    /// A cheaply-cloneable read handle over every program's published
    /// fixpoint: clone one per thread and serve
    /// [`SessionReader::query`] / [`SessionReader::output`] by `&self`
    /// while this session (the single writer) keeps applying deltas.
    /// Readers observe complete pre- or post-apply fixpoints only —
    /// never a torn mix — and values the writer has not served read as
    /// `None` until admitted ([`SessionReader::request`] +
    /// [`Session::serve_admitted`]).
    pub fn reader(&self) -> SessionReader<V, E> {
        SessionReader::from_parts(
            self.slots
                .iter()
                .map(|(n, s)| {
                    let (cell, pending) = s.reader_parts();
                    (n.clone(), cell, pending)
                })
                .collect(),
        )
    }

    /// Borrow program `name`'s cached assembled output for its retained
    /// query (`None` until a query materializes one) — the zero-copy
    /// serving path for read-heavy callers, where [`Session::query`]
    /// would clone the whole assembled vector per call.
    pub fn output<P>(&self, name: &str) -> Result<Option<&P::Out>, SessionError>
    where
        P: WarmStart<V, E> + 'static,
        P::Query: Clone + PartialEq + Send + Sync + 'static,
        P::Out: Clone + Send + Sync + 'static,
    {
        Ok(self.typed_slot::<P>(name)?.output())
    }

    /// The retained [`RunState`] of program `name` (`None` until a
    /// query materializes one) — diagnostic/test access; the
    /// equivalence suites compare it against hand-rolled compositions.
    pub fn run_state<P>(&self, name: &str) -> Result<Option<&RunState<P::State>>, SessionError>
    where
        P: WarmStart<V, E> + 'static,
        P::Query: Clone + PartialEq + Send + Sync + 'static,
        P::Out: Clone + Send + Sync + 'static,
    {
        Ok(self.typed_slot::<P>(name)?.state())
    }

    /// The query program `name` currently retains, if any.
    pub fn retained_query<P>(&self, name: &str) -> Result<Option<&P::Query>, SessionError>
    where
        P: WarmStart<V, E> + 'static,
        P::Query: Clone + PartialEq + Send + Sync + 'static,
        P::Out: Clone + Send + Sync + 'static,
    {
        Ok(self.typed_slot::<P>(name)?.current_query())
    }

    /// Apply a delta batch: plan every retained program's invalidation
    /// **pre-apply**, mutate the fragments in place **once**, then
    /// advance each program with its own strategy (warm-decrease /
    /// warm-increase through `warm_eval`, or a cold retained rerun).
    /// Durable sessions append the delta to the log after a successful
    /// apply. If that append fails, the in-memory state is already
    /// advanced but the on-disk history is not — the session latches
    /// [`SessionError::LogWedged`] and refuses further applies until a
    /// successful [`Session::checkpoint`] re-baselines the directory
    /// (queries keep serving the consistent in-memory state meanwhile).
    /// A delta that cannot apply to the session's graph returns
    /// [`SessionError::InvalidDelta`] before anything is planned,
    /// mutated or logged.
    pub fn apply(&mut self, delta: &GraphDelta<V, E>) -> Result<ApplyReport, SessionError> {
        validate(self.backend.fragments(), delta).map_err(SessionError::InvalidDelta)?;
        // Settle a finished background cut first: its epoch flip (or
        // failure wedge) must land before this delta is logged.
        self.harvest_pending(false);
        if self.durable.as_ref().is_some_and(|d| d.log_wedged) {
            return Err(SessionError::LogWedged);
        }
        let traced = self.tracer.enabled();
        if traced {
            self.tracer.begin(pid::SESSION, 0, cat::APPLY, "apply", Args::new());
        }
        let result = self.apply_inner(delta);
        if traced {
            let advanced = result.as_ref().map(|(r, _)| r.programs.len()).unwrap_or(0);
            self.tracer.end(
                pid::SESSION,
                0,
                cat::APPLY,
                "apply",
                Args::new()
                    .with("ok", result.is_ok())
                    .with("advanced", advanced)
                    .with("version", self.version),
            );
            self.emit_counters();
        }
        let (report, changed) = result?;
        if let Some(d) = &mut self.durable {
            // Dirty bits accumulate before the log append so a wedged
            // delta's fragments are still written by the healing
            // checkpoint.
            for (bit, c) in d.dirty.iter_mut().zip(&changed) {
                *bit |= *c;
            }
            d.applies_since_checkpoint += 1;
            if let Err(e) = (d.spec.write_delta)(&mut d.log, delta) {
                d.log_wedged = true;
                if let Some(p) = &mut d.pending {
                    p.wedged_since_cut = true;
                }
                return Err(SessionError::Snapshot(e));
            }
            d.log_records += 1;
            // During an in-flight background cut, dual-write: whichever
            // epoch a crash leaves committed has a complete log.
            if let Some(p) = &mut d.pending {
                if let Err(e) = (d.spec.write_delta)(&mut p.new_log, delta) {
                    d.log_wedged = true;
                    p.wedged_since_cut = true;
                    return Err(SessionError::Snapshot(e));
                }
                p.new_log_records += 1;
            }
        }
        // Auto-rebalance fires before the checkpoint cadence check so a
        // due checkpoint persists the migrated layout in the same turn.
        let auto_due = self
            .balance
            .as_ref()
            .is_some_and(|(p, mon)| p.auto && mon.report().imbalance > p.max_imbalance);
        if auto_due {
            self.rebalance()?;
        }
        // Automatic cadence: fire once the policy's apply budget is
        // spent (never while a cut is already in flight).
        let due = self.durable.as_ref().is_some_and(|d| {
            d.pending.is_none()
                && d.policy.checkpoint_every.is_some_and(|n| d.applies_since_checkpoint >= n)
        });
        if due {
            if self.durable.as_ref().is_some_and(|d| d.policy.background) {
                self.checkpoint_background()?;
            } else {
                self.checkpoint()?;
            }
        }
        Ok(report)
    }

    /// The shared core of `apply` and restore's replay: mutate, advance,
    /// and publish, returning the report plus the per-fragment
    /// changed-bytes set (what differential checkpoints accumulate).
    #[allow(clippy::type_complexity)]
    fn apply_inner(
        &mut self,
        delta: &GraphDelta<V, E>,
    ) -> Result<(ApplyReport, Vec<bool>), SessionError> {
        // 1. Pre-apply planning on the old fragments + old states.
        let planned: Vec<Option<IncrementalPlan>> = {
            let view: Vec<&Fragment<V, E>> =
                self.backend.fragments().iter().map(|a| &**a).collect();
            let tracer = &self.tracer;
            self.slots.iter_mut().map(|(_, s)| s.plan(&view, delta, tracer)).collect()
        };
        // 2. One in-place fragment mutation, shared by all programs —
        // the touched-fragment repacks run on the backend's worker
        // budget (byte-identical to serial; see `aap_graph::mutate`).
        let threads = self.backend.apply_threads();
        let applied = {
            // While a background cut holds fragment `Arc`s, mutate
            // copy-on-write: shared fragments detach (the cut keeps the
            // pre-apply bytes), exclusive ones mutate in place free.
            // Otherwise keep the strict path — a run output still
            // borrowing the fragments is a caller bug to surface.
            let cow = self.durable.as_ref().is_some_and(|d| d.pending.is_some());
            let mut frags = if cow {
                self.backend.fragments_cow()
            } else {
                self.backend.fragments_mut().ok_or(SessionError::SharedFragments)?
            };
            apply_to_fragments_par(&mut frags, delta, &mut self.bufs, threads)
        };
        self.metrics.applies += 1;
        // 3. Advance every program that holds retained state, then
        // publish every advanced fixpoint under one version so readers
        // flip from the pre-apply epoch to the post-apply one whole.
        let mut programs = Vec::new();
        let mut advanced = vec![false; self.slots.len()];
        for (i, ((name, slot), plan)) in self.slots.iter_mut().zip(planned).enumerate() {
            if let Some(adv) = slot.advance(&self.backend, &applied, plan) {
                advanced[i] = true;
                programs.push(ProgramApply {
                    name: name.clone(),
                    strategy: adv.strategy,
                    updates: adv.stats.total_updates(),
                });
            }
        }
        if advanced.iter().any(|&a| a) {
            self.version += 1;
            for (i, (_, slot)) in self.slots.iter().enumerate() {
                if advanced[i] {
                    slot.publish(self.version);
                }
            }
        }
        // 4. Keep the drift monitor current: recount only the fragments
        // this batch touched, and fold in the per-fragment delta-touch
        // rates (invalidation seed counts) the planners use as a
        // hotness signal.
        if self.balance.is_some() {
            let touches: Vec<usize> = applied.seeds.iter().map(|s| s.len()).collect();
            let Session { backend, balance, .. } = self;
            if let Some((_, mon)) = balance.as_mut() {
                mon.refresh(backend.fragments(), &applied.changed);
                mon.record_touches(&touches);
            }
        }
        Ok((ApplyReport { summary: applied.summary, programs }, applied.changed))
    }

    /// Take the cut a checkpoint commits: decide full vs differential
    /// (policy + compaction threshold), consume the dirty set, and
    /// encode every program's state delta on the calling thread. After
    /// this the epoch's *contents* are fixed; only serialization and
    /// the manifest flip remain (inline for [`Session::checkpoint`], on
    /// a thread for [`Session::checkpoint_background`]).
    fn plan_cut(&mut self) -> CutMaterials {
        let Session { backend, slots, durable, .. } = self;
        let d = durable.as_mut().expect("callers checked durability");
        let frags = backend.fragments();
        let m = frags.len();
        let next = d.chain[0] + 1;
        let compacting = d.policy.compact_after.is_some_and(|k| d.chain.len() as u64 >= k);
        let full = !d.policy.differential || compacting;
        let new_chain: Vec<u64> = if full {
            vec![next]
        } else {
            std::iter::once(next).chain(d.chain.iter().copied()).collect()
        };
        let cut_dirty = std::mem::replace(&mut d.dirty, vec![false; m]);
        let mut state_files = Vec::new();
        let mut new_crcs = HashMap::new();
        let mut state_bytes = 0u64;
        for (name, slot) in slots.iter() {
            let prev = if full { None } else { d.state_crcs.get(name) };
            if let Some(enc) = slot.encode_state(frags, prev) {
                new_crcs.insert(name.clone(), enc.crcs);
                if let Some(bytes) = enc.file {
                    state_bytes += bytes.len() as u64;
                    state_files.push((state_path(&d.spec.dir, next, name), bytes));
                }
            }
        }
        d.applies_since_checkpoint = 0;
        CutMaterials {
            next,
            new_chain,
            full,
            cut_dirty,
            state_files,
            new_crcs,
            state_bytes,
            log_records_at_cut: d.log_records,
        }
    }

    /// Accumulate a committed checkpoint into the serving counters.
    fn record_checkpoint(&mut self, report: &CheckpointReport) {
        self.metrics.checkpoints += 1;
        self.metrics.checkpoint_fragments_written += report.fragments_written;
        self.metrics.checkpoint_fragments_skipped += report.fragments_skipped;
        self.metrics.checkpoint_bytes += report.bytes;
        self.metrics.log_records_compacted += report.log_records_compacted;
    }

    /// Settle a background cut whose thread has finished (or, with
    /// `block`, wait for it): on success install the new chain, rotate
    /// to the dual-written log, and adopt the cut's state fingerprints;
    /// on failure re-wedge (exactly like a failed log append) and merge
    /// the cut's dirty set back so the next attempt still writes those
    /// fragments. `None` when nothing was pending (or, non-blocking,
    /// nothing finished yet).
    fn harvest_pending(&mut self, block: bool) -> Option<Result<CheckpointReport, SessionError>> {
        let outcome = {
            let d = self.durable.as_mut()?;
            {
                let p = d.pending.as_ref()?;
                let (lock, cvar) = &*p.result;
                let mut slot = lock.lock().unwrap_or_else(|e| e.into_inner());
                if block {
                    while slot.is_none() {
                        slot = cvar.wait(slot).unwrap_or_else(|e| e.into_inner());
                    }
                } else if slot.is_none() {
                    return None;
                }
            }
            let mut p = d.pending.take().expect("checked above");
            if let Some(h) = p.handle.take() {
                let _ = h.join();
            }
            // Clone, don't take: `CheckpointHandle`s observe the same
            // cell and must keep seeing the result after the harvest.
            let result = p
                .result
                .0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone()
                .expect("joined thread published its result");
            match result {
                Ok(report) => {
                    d.chain = p.new_chain;
                    d.log = p.new_log;
                    d.state_crcs = p.new_crcs;
                    d.log_records = p.new_log_records;
                    // The flip heals a wedge from *before* the cut (the
                    // committed epoch embodies the unlogged delta) but
                    // not one from after it — the new log is missing
                    // that delta too.
                    d.log_wedged = p.wedged_since_cut;
                    Ok(report)
                }
                Err(detail) => {
                    d.log_wedged = true;
                    for (bit, c) in d.dirty.iter_mut().zip(&p.cut_dirty) {
                        *bit |= *c;
                    }
                    Err(SessionError::Checkpoint { detail })
                }
            }
        };
        if let Ok(report) = &outcome {
            self.record_checkpoint(report);
            if self.tracer.enabled() {
                self.tracer.instant(
                    pid::SESSION,
                    0,
                    cat::DURABLE,
                    "checkpoint_committed",
                    Args::new().with("epoch", report.epoch),
                );
                self.emit_counters();
            }
        }
        Some(outcome)
    }

    /// Current balance snapshot from the drift monitor — per-fragment
    /// loads, cumulative delta-touch rates, full partition statistics,
    /// and the `max/mean` imbalance ratio — or `None` when the session
    /// was opened without [`SessionBuilder::balance`]. Reads the
    /// incrementally maintained counters; never scans fragments.
    pub fn balance_report(&self) -> Option<BalanceReport> {
        self.balance.as_ref().map(|(_, mon)| mon.report())
    }

    /// Rebalance the partition in place: plan a bounded set of
    /// ownership moves from overloaded fragments to underloaded ones
    /// (cost-aware: load reduction scored against new cut edges), repack
    /// only the affected fragments, and settle every retained program's
    /// warm state across the new layout — the next apply or query is
    /// warm, never cold. With `BalancePolicy::auto(true)` this fires
    /// automatically after an apply that leaves the partition over
    /// threshold; calling it explicitly is always allowed.
    ///
    /// A rebalance is **not** logged on durable sessions: the delta log
    /// replays onto the pre-rebalance partition and lands on the same
    /// fixpoints, because assembled outputs are partition-independent.
    /// Migrated fragments are marked dirty instead, so the next
    /// (differential) checkpoint persists the new layout. A crash
    /// before that checkpoint restores the pre-plan partition; after
    /// it, the post-plan one — both consistent.
    ///
    /// Errors with [`SessionError::NoBalancePolicy`] when the session
    /// was opened without [`SessionBuilder::balance`].
    pub fn rebalance(&mut self) -> Result<RebalanceReport, SessionError> {
        if self.balance.is_none() {
            return Err(SessionError::NoBalancePolicy);
        }
        // Settle a finished background cut first: it decides whether the
        // migration mutates in place or copy-on-write.
        self.harvest_pending(false);
        let traced = self.tracer.enabled();
        if traced {
            self.tracer.begin(pid::SESSION, 0, cat::BALANCE, "rebalance", Args::new());
        }
        let result = self.rebalance_inner();
        if traced {
            let (moved, after) = result
                .as_ref()
                .map(|r| (r.vertices_migrated, r.imbalance_after))
                .unwrap_or((0, 0.0));
            self.tracer.end(
                pid::SESSION,
                0,
                cat::BALANCE,
                "rebalance",
                Args::new()
                    .with("ok", result.is_ok())
                    .with("moved", moved)
                    .with("imbalance_after", after),
            );
            self.emit_counters();
        }
        result
    }

    fn rebalance_inner(&mut self) -> Result<RebalanceReport, SessionError> {
        let (policy, before) = {
            let (p, mon) = self.balance.as_ref().expect("caller checked");
            (p.clone(), mon.report().imbalance)
        };
        let plan = plan_migration(self.backend.fragments(), &policy, &self.tracer);
        if plan.is_empty() {
            return Ok(RebalanceReport {
                imbalance_before: before,
                imbalance_after: before,
                vertices_migrated: 0,
                migration_bytes: 0,
                fragments_repacked: 0,
            });
        }
        let applied = {
            // Same copy-on-write rule as `apply_inner`: an in-flight
            // background cut holds the pre-migration fragment bytes.
            let cow = self.durable.as_ref().is_some_and(|d| d.pending.is_some());
            let mut frags = if cow {
                self.backend.fragments_cow()
            } else {
                self.backend.fragments_mut().ok_or(SessionError::SharedFragments)?
            };
            execute_migration(&mut frags, &plan, &self.tracer)
        };
        // Settle retained state: one warm run per stateful program
        // through the migration remaps and seeds, published whole under
        // a single version bump.
        let mut advanced = vec![false; self.slots.len()];
        for (i, (_, slot)) in self.slots.iter_mut().enumerate() {
            advanced[i] = slot.migrate(&self.backend, &applied.remaps, &applied.seeds);
        }
        if advanced.iter().any(|&a| a) {
            self.version += 1;
            for (i, (_, slot)) in self.slots.iter().enumerate() {
                if advanced[i] {
                    slot.publish(self.version);
                }
            }
        }
        let after = {
            let Session { backend, balance, .. } = self;
            let (_, mon) = balance.as_mut().expect("caller checked");
            mon.refresh(backend.fragments(), &applied.changed);
            mon.report().imbalance
        };
        self.metrics.rebalances += 1;
        self.metrics.vertices_migrated += plan.moves.len() as u64;
        self.metrics.migration_bytes += plan.bytes;
        // Deliberately NOT logged (see the method docs): only the dirty
        // bits advance, so the next checkpoint persists the layout.
        if let Some(d) = &mut self.durable {
            for (bit, c) in d.dirty.iter_mut().zip(&applied.changed) {
                *bit |= *c;
            }
        }
        Ok(RebalanceReport {
            imbalance_before: before,
            imbalance_after: after,
            vertices_migrated: plan.moves.len() as u64,
            migration_bytes: plan.bytes,
            fragments_repacked: applied.changed.iter().filter(|c| **c).count(),
        })
    }

    /// Write the next durable epoch — per policy a full baseline or a
    /// differential link carrying only fragments (and program-state
    /// shards) whose bytes changed — flip the manifest, and start a
    /// fresh delta log. The superseded log's records are compacted away
    /// with every file the new chain no longer references. Runs
    /// foreground (an in-flight background cut is settled first); see
    /// [`Session::checkpoint_background`] for the non-blocking form.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, SessionError> {
        // Settle an in-flight cut first: its flip (or failure wedge)
        // precedes this epoch, which supersedes it either way.
        self.harvest_pending(true);
        if self.durable.is_none() {
            return Err(SessionError::NotDurable);
        }
        let traced = self.tracer.enabled();
        let cut = self.plan_cut();
        if traced {
            self.tracer.begin(
                pid::SESSION,
                0,
                cat::DURABLE,
                "checkpoint",
                Args::new().with("epoch", cut.next).with("differential", !cut.full),
            );
        }
        let result = (|| -> Result<(u64, DeltaLog), SessionError> {
            let d = self.durable.as_ref().expect("checked above");
            let frags = self.backend.fragments();
            let graph_bytes = if cut.full {
                (d.spec.save_frags)(&graph_path(&d.spec.dir, cut.next), frags)?
            } else {
                (d.spec.save_diff_frags)(
                    &graph_path(&d.spec.dir, cut.next),
                    frags.len() as u16,
                    frags,
                    &cut.cut_dirty,
                )?
            };
            for (path, bytes) in &cut.state_files {
                write_file_atomic(path, bytes)?;
            }
            let new_log = DeltaLog::create(log_path(&d.spec.dir, cut.next))?;
            (d.spec.write_manifest)(&d.spec.dir, &cut.new_chain)?;
            Ok((graph_bytes, new_log))
        })();
        let outcome = match result {
            Err(e) => {
                // Nothing committed: put the consumed dirty set back so
                // the next attempt still writes those fragments.
                let d = self.durable.as_mut().expect("checked above");
                for (bit, c) in d.dirty.iter_mut().zip(&cut.cut_dirty) {
                    *bit |= *c;
                }
                Err(e)
            }
            Ok((graph_bytes, new_log)) => {
                let d = self.durable.as_mut().expect("checked above");
                let m = cut.cut_dirty.len() as u64;
                let fragments_written =
                    if cut.full { m } else { cut.cut_dirty.iter().filter(|b| **b).count() as u64 };
                let report = CheckpointReport {
                    epoch: cut.next,
                    fragments_written,
                    fragments_skipped: m - fragments_written,
                    bytes: graph_bytes + cut.state_bytes,
                    log_records_compacted: cut.log_records_at_cut,
                    differential: !cut.full,
                };
                d.chain = cut.new_chain;
                d.log = new_log;
                d.state_crcs = cut.new_crcs;
                d.log_records = 0;
                // The fresh epoch embodies every applied delta, logged
                // or not: a wedged log is healed by re-baselining.
                d.log_wedged = false;
                // Best-effort cleanup of everything the new chain no
                // longer references — including generations stranded by
                // a crash mid-checkpoint.
                sweep_stale_epochs(&d.spec.dir, &d.chain);
                self.record_checkpoint(&report);
                Ok(report)
            }
        };
        if traced {
            self.tracer.end(
                pid::SESSION,
                0,
                cat::DURABLE,
                "checkpoint",
                Args::new().with("epoch", cut.next).with("ok", outcome.is_ok()),
            );
            self.emit_counters();
        }
        outcome
    }

    /// Start a checkpoint behind a **consistent cut** and return
    /// immediately: the cut clones fragment `Arc`s and encodes program
    /// states (cheap), creates the next epoch's log, and hands
    /// serialization + the atomic manifest flip to a background thread
    /// while this session keeps applying and serving — applies during
    /// the window mutate copy-on-write and are written to *both* logs,
    /// so whichever epoch a crash leaves committed replays completely.
    ///
    /// Completion is observable on the returned [`CheckpointHandle`];
    /// the session itself settles the result (epoch advance, or a
    /// [`SessionError::Checkpoint`] re-wedge on failure) at its next
    /// `apply`/`checkpoint`/[`Session::finish_checkpoint`]. Dropping
    /// the session lets an in-flight cut finish on its own.
    pub fn checkpoint_background(&mut self) -> Result<CheckpointHandle, SessionError> {
        // One cut at a time: settle any previous one first.
        self.harvest_pending(true);
        if self.durable.is_none() {
            return Err(SessionError::NotDurable);
        }
        let traced = self.tracer.enabled();
        let cut = self.plan_cut();
        let frags: Vec<Arc<Fragment<V, E>>> = self.backend.fragments().to_vec();
        let d = self.durable.as_mut().expect("checked above");
        let new_log = match DeltaLog::create(log_path(&d.spec.dir, cut.next)) {
            Ok(log) => log,
            Err(e) => {
                for (bit, c) in d.dirty.iter_mut().zip(&cut.cut_dirty) {
                    *bit |= *c;
                }
                return Err(SessionError::Snapshot(e));
            }
        };
        let cell: CheckpointCell = Arc::new((Mutex::new(None), Condvar::new()));
        let dir = d.spec.dir.clone();
        let save_frags = d.spec.save_frags;
        let save_diff_frags = d.spec.save_diff_frags;
        let write_manifest_fn = d.spec.write_manifest;
        let CutMaterials {
            next,
            new_chain,
            full,
            cut_dirty,
            state_files,
            new_crcs,
            state_bytes,
            log_records_at_cut,
        } = cut;
        let write_set = cut_dirty.clone();
        let thread_chain = new_chain.clone();
        let thread_cell = Arc::clone(&cell);
        let handle = std::thread::spawn(move || {
            let result = (move || -> Result<CheckpointReport, String> {
                let m = frags.len() as u64;
                let graph_bytes = if full {
                    save_frags(&graph_path(&dir, next), &frags)
                } else {
                    save_diff_frags(&graph_path(&dir, next), frags.len() as u16, &frags, &write_set)
                }
                .map_err(|e| e.to_string())?;
                for (path, bytes) in &state_files {
                    write_file_atomic(path, bytes).map_err(|e| e.to_string())?;
                }
                write_manifest_fn(&dir, &thread_chain).map_err(|e| e.to_string())?;
                sweep_stale_epochs(&dir, &thread_chain);
                let fragments_written =
                    if full { m } else { write_set.iter().filter(|b| **b).count() as u64 };
                Ok(CheckpointReport {
                    epoch: next,
                    fragments_written,
                    fragments_skipped: m - fragments_written,
                    bytes: graph_bytes + state_bytes,
                    log_records_compacted: log_records_at_cut,
                    differential: !full,
                })
            })();
            let (lock, cvar) = &*thread_cell;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            cvar.notify_all();
        });
        d.pending = Some(PendingCut {
            new_log,
            new_chain,
            cut_dirty,
            new_crcs,
            new_log_records: 0,
            wedged_since_cut: false,
            handle: Some(handle),
            result: Arc::clone(&cell),
        });
        if traced {
            self.tracer.instant(
                pid::SESSION,
                0,
                cat::DURABLE,
                "checkpoint_cut",
                Args::new().with("epoch", next).with("differential", !full),
            );
        }
        Ok(CheckpointHandle { cell })
    }

    /// Block until an in-flight background checkpoint commits and
    /// settle it on the session: `Ok(Some(report))` on commit,
    /// `Ok(None)` when nothing was pending, and the re-wedging
    /// [`SessionError::Checkpoint`] if the cut failed.
    pub fn finish_checkpoint(&mut self) -> Result<Option<CheckpointReport>, SessionError> {
        match self.harvest_pending(true) {
            None => Ok(None),
            Some(Ok(report)) => Ok(Some(report)),
            Some(Err(e)) => Err(e),
        }
    }

    /// Swap individual steps of the durable vtable — crash-injection
    /// suites cut the process at an exact checkpoint point (fragment
    /// save, manifest flip) by substituting a failing stand-in. `None`
    /// leaves a step unchanged. No-op on non-durable sessions.
    #[doc(hidden)]
    pub fn inject_durable_vtable(
        &mut self,
        save_frags: Option<SaveFragsFn<V, E>>,
        save_diff_frags: Option<SaveDiffFragsFn<V, E>>,
        write_manifest: Option<WriteManifestFn>,
    ) {
        if let Some(d) = &mut self.durable {
            if let Some(f) = save_frags {
                d.spec.save_frags = f;
            }
            if let Some(f) = save_diff_frags {
                d.spec.save_diff_frags = f;
            }
            if let Some(f) = write_manifest {
                d.spec.write_manifest = f;
            }
        }
    }
}

/// Everything a checkpoint writes, fixed at the cut: the epoch, the
/// chain it commits, the fragment write set, and the pre-encoded
/// program-state files.
struct CutMaterials {
    next: u64,
    new_chain: Vec<u64>,
    full: bool,
    cut_dirty: Vec<bool>,
    state_files: Vec<(PathBuf, Vec<u8>)>,
    new_crcs: HashMap<String, StateCrcs>,
    state_bytes: u64,
    log_records_at_cut: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use aap_algos::{ConnectedComponents, Sssp};
    use aap_delta::DeltaBuilder;
    use aap_graph::generate;

    /// Satellite (ISSUE 6): a typo'd program name must say what IS
    /// registered, not just echo the typo back.
    #[test]
    fn unknown_program_error_names_the_registered_programs() {
        let g = generate::small_world(40, 2, 0.2, 1);
        let mut session = Session::builder(g)
            .partition(edge_cut(2))
            .program("sssp", Sssp)
            .program("cc", ConnectedComponents)
            .open()
            .unwrap();
        let err = session.query::<Sssp>("ssps", &0).expect_err("typo'd name must fail");
        assert!(matches!(
            &err,
            SessionError::UnknownProgram { name, registered }
                if name == "ssps" && registered == &["sssp".to_string(), "cc".to_string()]
        ));
        let msg = err.to_string();
        assert!(msg.contains("\"ssps\""), "{msg}");
        assert!(msg.contains("\"sssp\"") && msg.contains("\"cc\""), "{msg}");

        let g = generate::small_world(40, 2, 0.2, 1);
        let mut empty = Session::<(), u32, _>::builder(g).partition(edge_cut(2)).open().unwrap();
        let msg = empty.query::<Sssp>("sssp", &0).expect_err("nothing registered").to_string();
        assert!(msg.contains("no programs are registered"), "{msg}");
    }

    /// The admission semantics end to end: `query` never evicts the
    /// retained fixpoint, cache hits publish nothing, `retain_query`
    /// switches explicitly and demotes the old retained answer.
    #[test]
    fn query_is_non_evicting_and_retain_query_switches() {
        let g = generate::small_world(80, 2, 0.2, 9);
        let mut session =
            Session::builder(g).partition(edge_cut(2)).program("sssp", Sssp).open().unwrap();
        let from0 = session.query::<Sssp>("sssp", &0).unwrap();
        assert_eq!(session.retained_query::<Sssp>("sssp").unwrap(), Some(&0));
        let v1 = session.version();
        let from5 = session.query::<Sssp>("sssp", &5).unwrap();
        assert_ne!(from0, from5);
        assert_eq!(
            session.retained_query::<Sssp>("sssp").unwrap(),
            Some(&0),
            "a different query value must NOT evict the retained fixpoint"
        );
        assert!(session.version() > v1, "a freshly computed answer is published");
        let v2 = session.version();
        assert_eq!(session.query::<Sssp>("sssp", &5).unwrap(), from5);
        assert_eq!(session.version(), v2, "an answer-cache hit publishes nothing");

        assert_eq!(session.retain_query::<Sssp>("sssp", &5).unwrap(), from5);
        assert_eq!(session.retained_query::<Sssp>("sssp").unwrap(), Some(&5));
        let v3 = session.version();
        assert_eq!(session.query::<Sssp>("sssp", &0).unwrap(), from0);
        assert_eq!(session.version(), v3, "the demoted retained answer serves from cache");

        // The retained fixpoint (now 5) warm-advances; caches drop.
        let mut b = DeltaBuilder::new();
        b.add_edge(5, 40, 1);
        let report = session.apply(&b.build()).unwrap();
        assert_eq!(report.strategy("sssp"), Some(WarmStrategy::WarmDecrease));
        let v4 = session.version();
        session.query::<Sssp>("sssp", &0).unwrap();
        assert!(session.version() > v4, "post-apply, cached answers were dropped (cold re-run)");
    }

    /// Reader admission: requests queue distinct values; one
    /// `serve_admitted` answers the window and publishes.
    #[test]
    fn admitted_requests_are_served_in_one_window() {
        let g = generate::small_world(80, 2, 0.2, 9);
        let mut session =
            Session::builder(g).partition(edge_cut(2)).program("sssp", Sssp).open().unwrap();
        session.query::<Sssp>("sssp", &0).unwrap();
        let reader = session.reader();
        assert!(reader.query::<Sssp>("sssp", &3).unwrap().is_none());
        assert!(reader.request::<Sssp>("sssp", &3).unwrap());
        assert!(!reader.request::<Sssp>("sssp", &3).unwrap(), "distinct values only");
        assert!(reader.request::<Sssp>("sssp", &4).unwrap());
        assert!(reader.request::<Sssp>("sssp", &0).unwrap(), "already-served values queue too");
        assert_eq!(session.serve_admitted().unwrap(), 2, "0 was a cache hit, 3 and 4 computed");
        assert!(reader.query::<Sssp>("sssp", &3).unwrap().is_some());
        assert!(reader.query::<Sssp>("sssp", &4).unwrap().is_some());
        assert_eq!(
            session.retained_query::<Sssp>("sssp").unwrap(),
            Some(&0),
            "admission never moves the retained query"
        );
        assert_eq!(session.serve_admitted().unwrap(), 0, "window drained");
    }

    /// An always-failing log append, standing in for a full disk.
    fn failing_write(
        _log: &mut DeltaLog,
        _delta: &GraphDelta<(), u32>,
    ) -> Result<(), SnapshotError> {
        Err(DeltaLog::create("/nonexistent-aap-session-dir/never.dlog")
            .expect_err("creating a log in a nonexistent directory must fail"))
    }

    /// The LogWedged latch end to end: a failed append latches, further
    /// applies are refused (live state is ahead of the log, so logging
    /// more would let a restore silently diverge), checkpoint heals by
    /// re-baselining, and a post-heal restore lands exactly at the live
    /// state — including the delta whose append failed.
    #[test]
    fn failed_log_append_wedges_until_checkpoint() {
        let dir = std::env::temp_dir().join(format!("aap_session_wedge_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let g = generate::small_world(60, 2, 0.2, 5);
        let mut session = Session::builder(g)
            .partition(edge_cut(2))
            .program("sssp", Sssp)
            .durability(DurabilityPolicy::new(&dir).differential(false))
            .unwrap()
            .open()
            .unwrap();
        session.query::<Sssp>("sssp", &0).unwrap();

        // Inject the failure and apply: the in-memory state advances,
        // the append fails, the latch sets.
        let healthy_write = session.durable.as_ref().unwrap().spec.write_delta;
        session.durable.as_mut().unwrap().spec.write_delta = failing_write;
        let mut b = DeltaBuilder::new();
        b.add_edge(0, 30, 1);
        let delta = b.build();
        let err = session.apply(&delta).expect_err("injected append failure");
        assert!(matches!(err, SessionError::Snapshot(_)), "{err}");
        let advanced = session.query::<Sssp>("sssp", &0).unwrap();

        // Wedged: further applies are refused even with a healthy log.
        session.durable.as_mut().unwrap().spec.write_delta = healthy_write;
        let mut b = DeltaBuilder::new();
        b.add_edge(0, 31, 1);
        let next = b.build();
        let err = session.apply(&next).expect_err("wedged session must refuse");
        assert!(matches!(err, SessionError::LogWedged), "{err}");
        assert_eq!(
            session.query::<Sssp>("sssp", &0).unwrap(),
            advanced,
            "a refused apply must not touch state"
        );

        // Checkpoint re-baselines (the fresh snapshot embodies the
        // unlogged delta) and clears the latch; applies resume.
        session.checkpoint().unwrap();
        session.apply(&next).unwrap();
        let served = session.query::<Sssp>("sssp", &0).unwrap();
        drop(session);

        // The healed directory restores to exactly the live state.
        let mut restored: Session<(), u32, _> =
            Session::restore(&dir).program("sssp", Sssp).open().unwrap();
        assert_eq!(restored.query::<Sssp>("sssp", &0).unwrap(), served);
        std::fs::remove_dir_all(&dir).ok();
    }
}
