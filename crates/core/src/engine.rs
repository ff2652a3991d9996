//! The multithreaded AAP engine — GRAPE+ (§3 workflow, §6 implementation).
//!
//! `m` virtual workers (one per fragment) are scheduled onto `n ≤ m` OS
//! threads. Message passing is point-to-point and push-based: a completing
//! round locks only the destination's inbox, so no global synchronisation
//! barrier exists on the async path. Each worker's next round is gated by
//! the delay-stretch function `δ` of [`crate::policy`]; a suspended worker
//! releases its thread to other virtual workers, which is exactly the
//! paper's "resources are allocated to other (virtual) workers to do useful
//! computation".
//!
//! Two execution paths:
//!
//! * **BSP** runs an honest superstep barrier (messages produced in
//!   superstep `r` become visible only in `r + 1`) — this is GRAPE, and the
//!   baseline the paper calls `GRAPE+BSP`.
//! * **AP / SSP / AAP / Hsync** run the asynchronous scheduler where `δ`
//!   makes per-worker decisions; termination follows §3's
//!   inactive/terminate protocol (a worker with an empty buffer becomes
//!   inactive; any arriving message revives it; the run ends when no worker
//!   is active and no messages are buffered).

use crate::inbox::Inbox;
use crate::pie::{route_updates_into, Batch, PieProgram, UpdateCtx, WarmStart};
use crate::policy::{self, Decision, Mode, PolicyState, SharedRates};
use crate::scratch::{Scratch, SharedPool};
use crate::stats::{RunStats, WorkerStats, BATCH_HEADER_BYTES, UPDATE_KEY_BYTES};
use aap_graph::mutate::StateRemap;
use aap_graph::{Fragment, LocalId, VertexId};
use aap_trace::{cat, pid, Args, Tracer};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineOpts {
    /// Physical worker threads (`n`); virtual workers (`m`) = fragments.
    pub threads: usize,
    /// Execution mode (the `δ` policy).
    pub mode: Mode,
    /// Abort the run if any worker exceeds this many rounds (safety valve
    /// for non-terminating programs; `None` = unbounded).
    pub max_rounds: Option<u32>,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            threads: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4),
            mode: Mode::aap(),
            max_rounds: None,
        }
    }
}

/// Result of one engine run.
#[derive(Debug)]
pub struct RunOutput<Out> {
    /// The assembled answer `ρ(Q, G)`.
    pub out: Out,
    /// Statistics collected during the run.
    pub stats: RunStats,
}

/// A type-erased cache slot that travels with a [`RunState`], holding a
/// value *derived from* the retained states — today the global
/// owner-value gather `WarmStart::plan_invalidation` needs per
/// non-monotone batch (`O(n)` to rebuild from scratch).
///
/// Invalidation contract: any write to the states ([`RunState::set_states`],
/// [`RunState::take_states`]) clears the slot, so a stale derivation can
/// never be observed. Re-population is the *driver's* job: after a run,
/// `aap-delta`'s drivers call [`crate::WarmStart::refresh_plan_cache`]
/// with the freshly assembled output — for SSSP/CC that output *is* the
/// owner-value gather, so tiny deletion batches skip the per-batch
/// `O(n)` fragment sweep entirely and plan from the cache.
#[derive(Default)]
pub struct PlanCache {
    slot: Option<Box<dyn std::any::Any + Send>>,
    hits: u64,
    misses: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("filled", &self.slot.is_some())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl PlanCache {
    /// Borrow the cached `T` if one is present *and* `valid` accepts it;
    /// otherwise rebuild it with `make` and cache the result. The
    /// validity probe lets callers reject a cache whose shape no longer
    /// matches the fragments (e.g. a stale vertex count) without a
    /// dedicated invalidation channel.
    pub fn get_or_insert_with<T, VF, MF>(&mut self, valid: VF, make: MF) -> &T
    where
        T: std::any::Any + Send,
        VF: FnOnce(&T) -> bool,
        MF: FnOnce() -> T,
    {
        let usable = self.slot.as_ref().and_then(|b| b.downcast_ref::<T>()).is_some_and(valid);
        if usable {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.slot = Some(Box::new(make()));
        }
        self.slot
            .as_ref()
            .and_then(|b| b.downcast_ref::<T>())
            .expect("slot was just verified/replaced with a T")
    }

    /// Replace the cached value (driver refresh after a run).
    pub fn put<T: std::any::Any + Send>(&mut self, value: T) {
        self.slot = Some(Box::new(value));
    }

    /// Drop the cached value (the invalidate-on-write hook).
    pub fn clear(&mut self) {
        self.slot = None;
    }

    /// True if a value is currently cached.
    pub fn is_filled(&self) -> bool {
        self.slot.is_some()
    }

    /// How many [`PlanCache::get_or_insert_with`] calls were served from
    /// the cache (observability for tests and benches).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// How many [`PlanCache::get_or_insert_with`] calls had to rebuild.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Retained per-fragment program states from a completed run (one entry
/// per fragment, in fragment order). Produced by `run_retained`; fed back
/// into `run_incremental` after a graph delta so the next evaluation
/// warm-starts from the previous fixpoint instead of a cold `PEval`.
///
/// A `RunState` is only meaningful against the engine (and query) that
/// produced it, modulo the [`StateRemap`]s of deltas applied in between.
///
/// Also carries a [`PlanCache`] for state-derived planning artifacts;
/// the cache is cleared on every state write and does not participate
/// in `Clone`/`PartialEq`.
#[derive(Debug)]
pub struct RunState<St> {
    states: Vec<St>,
    plan_cache: PlanCache,
}

impl<St: Clone> Clone for RunState<St> {
    fn clone(&self) -> Self {
        // The clone starts with a cold cache: it is an independent
        // lineage of writes from here on.
        RunState { states: self.states.clone(), plan_cache: PlanCache::default() }
    }
}

impl<St: PartialEq> PartialEq for RunState<St> {
    fn eq(&self, other: &Self) -> bool {
        self.states == other.states
    }
}

impl<St> RunState<St> {
    /// Wrap per-fragment states (engine/simulator use).
    pub fn new(states: Vec<St>) -> Self {
        RunState { states, plan_cache: PlanCache::default() }
    }

    /// Number of per-fragment states (the fragment count of the run).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if no states are held.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Borrow the retained states, in fragment order.
    pub fn states(&self) -> &[St] {
        &self.states
    }

    /// Move the states out, leaving this `RunState` empty (engine use).
    /// A write: the plan cache is invalidated.
    pub fn take_states(&mut self) -> Vec<St> {
        self.plan_cache.clear();
        std::mem::take(&mut self.states)
    }

    /// Replace the retained states after a run (engine use). A write:
    /// the plan cache is invalidated.
    pub fn set_states(&mut self, states: Vec<St>) {
        self.plan_cache.clear();
        self.states = states;
    }

    /// The state-derived plan cache (read side).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The state-derived plan cache (driver refresh side).
    pub fn plan_cache_mut(&mut self) -> &mut PlanCache {
        &mut self.plan_cache
    }

    /// Borrow the states and the plan cache *simultaneously* — the shape
    /// `plan_invalidation` drivers need (states read-only, cache
    /// writable), which a pair of accessor calls cannot express.
    pub fn states_and_plan_cache(&mut self) -> (&[St], &mut PlanCache) {
        (&self.states, &mut self.plan_cache)
    }

    /// Detach the retained states from this fragment set's local-id
    /// space, pairing each with the fragment's global-id layout so a
    /// later [`PortableRunState::attach`] can re-anchor them — the
    /// export half of durable snapshots (`aap-snapshot`).
    pub fn export<V, E>(&self, frags: &[Arc<Fragment<V, E>>]) -> PortableRunState<St>
    where
        St: Clone,
    {
        assert_eq!(self.states.len(), frags.len(), "RunState must match the fragment count");
        PortableRunState {
            entries: frags
                .iter()
                .zip(&self.states)
                .map(|(f, s)| PortableFragState {
                    globals: f.globals().to_vec(),
                    owned: f.owned_count(),
                    state: s.clone(),
                })
                .collect(),
        }
    }
}

/// One fragment's worth of portable retained state: the state plus the
/// local-id layout (global ids, owned-first) it was computed against.
#[derive(Debug, Clone)]
pub struct PortableFragState<St> {
    /// Global id of each local at export time (owned first, then mirrors).
    pub globals: Vec<VertexId>,
    /// How many of `globals` were owned at export time.
    pub owned: usize,
    /// The per-fragment program state.
    pub state: St,
}

/// A [`RunState`] detached from any particular fragment set: each
/// per-fragment state travels with the **global** vertex ids that its
/// local ids meant at export time. This is the stable on-disk contract
/// for retained state — local ids are an artifact of partition
/// construction, global ids are not.
///
/// [`PortableRunState::attach`] re-anchors the states against a loaded
/// fragment set and returns one [`StateRemap`] per fragment: identity
/// when the layouts agree byte-for-byte (the common case — snapshots
/// persist the partition exactly), a real old→new table when they do
/// not. The remaps feed [`Engine::run_incremental`] (with empty seeds
/// and empty invalidated sets), whose `warm_eval` migrates the state
/// values — so an attach followed by one warm run lands in exactly the
/// state a continuous process would hold.
#[derive(Debug, Clone)]
pub struct PortableRunState<St> {
    entries: Vec<PortableFragState<St>>,
}

/// Why a [`PortableRunState::attach`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// The portable state holds a different number of fragments.
    FragmentCount {
        /// Fragments recorded in the portable state.
        saved: usize,
        /// Fragments in the set being attached to.
        live: usize,
    },
    /// A saved global vertex no longer exists in the target fragment
    /// (the partition diverged beyond renumbering).
    MissingVertex {
        /// The fragment at fault.
        frag: usize,
        /// The global id with no local counterpart.
        vertex: VertexId,
    },
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::FragmentCount { saved, live } => {
                write!(f, "portable state has {saved} fragments, target partition has {live}")
            }
            AttachError::MissingVertex { frag, vertex } => {
                write!(f, "fragment {frag}: saved vertex {vertex} is absent from the target")
            }
        }
    }
}

impl std::error::Error for AttachError {}

impl<St> PortableRunState<St> {
    /// Wrap per-fragment entries (deserializer use; [`RunState::export`]
    /// is the ordinary constructor).
    pub fn from_entries(entries: Vec<PortableFragState<St>>) -> Self {
        PortableRunState { entries }
    }

    /// The per-fragment entries (serializer use).
    pub fn entries(&self) -> &[PortableFragState<St>] {
        &self.entries
    }

    /// Move the per-fragment entries out (chain-resolution use).
    pub fn into_entries(self) -> Vec<PortableFragState<St>> {
        self.entries
    }

    /// Number of per-fragment entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Re-anchor the states against `frags`, returning the [`RunState`]
    /// plus one [`StateRemap`] per fragment (identity where the local-id
    /// layout is unchanged). Feed both to `run_incremental` with empty
    /// seeds and empty invalidated sets to migrate the state values
    /// through `warm_eval`.
    ///
    /// Fails if the fragment count differs or a saved vertex has no
    /// local id in its target fragment; *dropped* locals (a saved vertex
    /// the target lost, e.g. a mirror) are not an error — the remap
    /// discards their values, exactly as a delta-driven renumbering
    /// would.
    pub fn attach<V, E>(
        self,
        frags: &[Arc<Fragment<V, E>>],
    ) -> Result<(RunState<St>, Vec<StateRemap>), AttachError> {
        if self.entries.len() != frags.len() {
            return Err(AttachError::FragmentCount {
                saved: self.entries.len(),
                live: frags.len(),
            });
        }
        let mut states = Vec::with_capacity(self.entries.len());
        let mut remaps = Vec::with_capacity(self.entries.len());
        for (i, (entry, frag)) in self.entries.into_iter().zip(frags).enumerate() {
            let PortableFragState { globals, owned, state } = entry;
            if globals == frag.globals() {
                remaps.push(StateRemap::identity(frag.local_count()));
            } else {
                let mut table = Vec::with_capacity(globals.len());
                for (old, &g) in globals.iter().enumerate() {
                    match frag.local(g) {
                        Some(l) => table.push(l),
                        // A vanished *mirror* is a legitimate drop; a
                        // vanished owned vertex means the partition
                        // diverged (owned ids are never deleted, only
                        // isolated).
                        None if old >= owned => table.push(LocalId::MAX),
                        None => {
                            return Err(AttachError::MissingVertex { frag: i, vertex: g });
                        }
                    }
                }
                remaps.push(StateRemap::from_table(table, frag.local_count()));
            }
            states.push(state);
        }
        Ok((RunState::new(states), remaps))
    }
}

/// The GRAPE+ engine over a fixed partition. A graph is partitioned once
/// and the engine reused for any number of queries (§3: "G is partitioned
/// once for all queries Q posed on G").
pub struct Engine<V, E> {
    frags: Vec<Arc<Fragment<V, E>>>,
    opts: EngineOpts,
    /// Structured-event tracer; disabled by default (one branch per
    /// emission site, nothing allocated — see `tests/alloc_trace.rs`).
    tracer: Tracer,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Ready,
    Running,
    /// Suspended with an optional wake deadline; `None` = held until the
    /// global round bounds move or a message arrives.
    Suspended(Option<Instant>),
    Inactive,
}

struct Cell<Val, St> {
    inbox: Mutex<Inbox<Val>>,
    /// Mirror of `inbox.eta()`, readable without the inbox lock.
    eta: AtomicUsize,
    state: Mutex<Option<St>>,
    stats: Mutex<WorkerStats>,
    /// Reusable routing/drain buffers. Only the thread currently running
    /// this virtual worker touches it, so the lock is uncontended; it
    /// exists to satisfy `Sync` for the scoped-thread sharing.
    scratch: Mutex<Scratch<Val>>,
    /// Completed rounds (`ri`); PEval completion sets this to 1.
    rounds: AtomicU32,
}

impl<Val, St> Cell<Val, St> {
    fn new() -> Self {
        Cell {
            inbox: Mutex::new(Inbox::default()),
            eta: AtomicUsize::new(0),
            state: Mutex::new(None),
            stats: Mutex::new(WorkerStats::default()),
            scratch: Mutex::new(Scratch::default()),
            rounds: AtomicU32::new(0),
        }
    }
}

struct Coord {
    status: Vec<Status>,
    suspend_began: Vec<Option<Instant>>,
    /// Vertex-centric adapters may have local-only work pending.
    local_work: Vec<bool>,
    pstates: Vec<PolicyState>,
    ready: VecDeque<usize>,
    /// Workers in {Ready, Running, Suspended}.
    pending: usize,
    done: bool,
    aborted: bool,
    rmin: u32,
    rmax: u32,
}

impl Coord {
    /// Recompute `rmin`/`rmax` over non-inactive workers (§3 "bounds rmin
    /// and rmax"); inactive workers would otherwise pin `rmin` forever and
    /// deadlock lockstep modes. Returns whether either bound moved.
    fn recompute_bounds<Val, St>(&mut self, cells: &[Cell<Val, St>]) -> bool {
        let mut rmin = u32::MAX;
        let mut rmax = 0;
        for (w, st) in self.status.iter().enumerate() {
            let r = cells[w].rounds.load(Ordering::Relaxed);
            rmax = rmax.max(r);
            if !matches!(st, Status::Inactive) {
                rmin = rmin.min(r);
            }
        }
        if rmin == u32::MAX {
            rmin = rmax;
        }
        let changed = rmin != self.rmin || rmax != self.rmax;
        self.rmin = rmin;
        self.rmax = rmax;
        changed
    }
}

impl<V, E> Engine<V, E>
where
    V: Send + Sync,
    E: Send + Sync,
{
    /// Create an engine over pre-built fragments.
    pub fn new(frags: Vec<Fragment<V, E>>, opts: EngineOpts) -> Self {
        Engine { frags: frags.into_iter().map(Arc::new).collect(), opts, tracer: Tracer::default() }
    }

    /// Attach a structured-event tracer; every subsequent run emits
    /// per-worker round/phase spans, message-batch instants, and policy
    /// decisions on the `pid::ENGINE` tracks. Pass `Tracer::default()`
    /// to turn tracing back off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer runs report into (disabled unless
    /// [`Engine::set_tracer`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The fragments this engine computes over.
    pub fn fragments(&self) -> &[Arc<Fragment<V, E>>] {
        &self.frags
    }

    /// Exclusive access to the fragments, for in-place delta application
    /// (`aap-delta`). Returns `None` while any `Arc` is shared — i.e. a
    /// run output still borrows the fragments somewhere.
    pub fn fragments_mut(&mut self) -> Option<Vec<&mut Fragment<V, E>>> {
        let mut out = Vec::with_capacity(self.frags.len());
        for a in self.frags.iter_mut() {
            match Arc::get_mut(a) {
                Some(f) => out.push(f),
                None => return None,
            }
        }
        Some(out)
    }

    /// Copy-on-write access to the fragments, for in-place delta
    /// application *while a consistent cut is being serialized*: a
    /// shared `Arc` (the cut holds a clone) is detached by deep-cloning
    /// the fragment — the cut keeps the pre-apply bytes, the engine
    /// moves on — and an exclusively-held one is borrowed in place with
    /// no copy, so the cost is proportional to the overlap between the
    /// in-flight snapshot and the fragments the next delta touches.
    pub fn fragments_cow(&mut self) -> Vec<&mut Fragment<V, E>>
    where
        V: Clone,
        E: Clone,
    {
        self.frags.iter_mut().map(Arc::make_mut).collect()
    }

    /// Engine options.
    pub fn opts(&self) -> &EngineOpts {
        &self.opts
    }

    /// Evaluate one query with the PIE program `prog` (§3 parallel model:
    /// PEval everywhere, asynchronous IncEval until fixpoint, Assemble).
    pub fn run<P>(&self, prog: &P, q: &P::Query) -> RunOutput<P::Out>
    where
        P: PieProgram<V, E>,
    {
        let eval0 = |_w: usize, frag: &Fragment<V, E>, ctx: &mut UpdateCtx<P::Val>| {
            prog.peval(q, frag, ctx)
        };
        let (stats, states) = self.run_with(prog, q, &eval0);
        RunOutput { out: prog.assemble(q, &self.frags, states), stats }
    }

    /// Like [`Engine::run`], but also return the per-fragment states so a
    /// later [`Engine::run_incremental`] can warm-start from this fixpoint.
    pub fn run_retained<P>(&self, prog: &P, q: &P::Query) -> (RunOutput<P::Out>, RunState<P::State>)
    where
        P: WarmStart<V, E>,
    {
        let eval0 = |_w: usize, frag: &Fragment<V, E>, ctx: &mut UpdateCtx<P::Val>| {
            prog.peval(q, frag, ctx)
        };
        let (stats, states) = self.run_with(prog, q, &eval0);
        let out = prog.assemble_ref(q, &self.frags, &states);
        (RunOutput { out, stats }, RunState::new(states))
    }

    /// Warm-start incremental evaluation after a graph delta, under any
    /// execution mode (BSP/AP/SSP/AAP/Hsync).
    ///
    /// Round 0 runs [`WarmStart::warm_eval`] instead of `PEval`: each
    /// fragment's retained state is migrated across the mutation via
    /// `remaps[i]`, stripped of the invalidated vertices `invalid[i]`
    /// (non-empty only for `WarmStrategy::WarmIncrease` batches — the
    /// affected region of a removal / weight increase), and re-evaluated
    /// from `seeds[i]` (the delta-affected vertices, in new local ids).
    /// Messages then drive ordinary `IncEval` rounds to the fixpoint;
    /// `state` is updated in place for the next delta. See `aap-delta`
    /// for the driver that derives `remaps`/`seeds`/`invalid` from a
    /// `GraphDelta` and picks the strategy.
    pub fn run_incremental<P>(
        &self,
        prog: &P,
        q: &P::Query,
        remaps: &[StateRemap],
        seeds: &[Vec<LocalId>],
        invalid: &[Vec<LocalId>],
        state: &mut RunState<P::State>,
    ) -> RunOutput<P::Out>
    where
        P: WarmStart<V, E>,
    {
        let m = self.frags.len();
        assert_eq!(state.len(), m, "RunState must match the fragment count");
        assert_eq!(remaps.len(), m);
        assert_eq!(seeds.len(), m);
        assert_eq!(invalid.len(), m);
        let priors: Vec<Mutex<Option<P::State>>> =
            state.take_states().into_iter().map(|s| Mutex::new(Some(s))).collect();
        let eval0 = |w: usize, frag: &Fragment<V, E>, ctx: &mut UpdateCtx<P::Val>| {
            let prior = priors[w].lock().take().expect("warm state taken once per worker");
            prog.warm_eval(q, frag, prior, &remaps[w], &seeds[w], &invalid[w], ctx)
        };
        let (stats, states) = self.run_with(prog, q, &eval0);
        let out = prog.assemble_ref(q, &self.frags, &states);
        state.set_states(states);
        RunOutput { out, stats }
    }

    fn run_with<P, F>(&self, prog: &P, q: &P::Query, eval0: &F) -> (RunStats, Vec<P::State>)
    where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State + Sync,
    {
        match self.opts.mode {
            Mode::Bsp => self.run_bsp(prog, q, eval0),
            _ => self.run_async(prog, q, eval0),
        }
    }

    // ------------------------------------------------------------------
    // BSP path: honest supersteps with a barrier (GRAPE / GRAPE+BSP).
    // ------------------------------------------------------------------
    fn run_bsp<P, F>(&self, prog: &P, q: &P::Query, eval0: &F) -> (RunStats, Vec<P::State>)
    where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State + Sync,
    {
        let m = self.frags.len();
        let start = Instant::now();
        let cells: Vec<Cell<P::Val, P::State>> = (0..m).map(|_| Cell::new()).collect();
        attach_shared_pool(&cells);
        let nthreads = self.opts.threads.clamp(1, m.max(1));
        let mut aborted = false;
        let traced = self.tracer.enabled();
        if traced {
            self.tracer.instant(
                pid::ENGINE,
                0,
                cat::POLICY,
                "mode",
                Args::new()
                    .with("mode", self.opts.mode.name())
                    .with("workers", m)
                    .with("threads", nthreads),
            );
        }

        // Superstep 0: PEval everywhere.
        let mut active: Vec<usize> = (0..m).collect();
        let mut superstep: u32 = 0;
        while !active.is_empty() {
            if let Some(maxr) = self.opts.max_rounds {
                if superstep > maxr {
                    aborted = true;
                    break;
                }
            }
            // Outgoing batches per executing worker, delivered post-barrier.
            type Outbox<Val> = Mutex<Vec<(aap_graph::FragId, Batch<Val>)>>;
            let outs: Vec<Outbox<P::Val>> = active.iter().map(|_| Mutex::new(Vec::new())).collect();
            let next_work: Vec<Mutex<bool>> = active.iter().map(|_| Mutex::new(false)).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..nthreads {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= active.len() {
                            return;
                        }
                        let w = active[i];
                        let frag = &self.frags[w];
                        let cell = &cells[w];
                        let mut scratch = cell.scratch.lock();
                        let t0 = Instant::now();
                        if traced {
                            self.tracer.begin(
                                pid::ENGINE,
                                w as u32,
                                cat::ROUND,
                                "round",
                                Args::new().with("round", superstep).with("frag", w),
                            );
                            self.tracer.begin(
                                pid::ENGINE,
                                w as u32,
                                cat::PHASE,
                                "drain",
                                Args::new(),
                            );
                        }
                        {
                            let mut inbox = cell.inbox.lock();
                            let info = inbox.drain_into(prog, frag, &mut scratch);
                            cell.eta.store(0, Ordering::Relaxed);
                            scratch.reserve_for_traffic(info.raw_updates, info.batches);
                            if traced {
                                self.tracer.end(
                                    pid::ENGINE,
                                    w as u32,
                                    cat::PHASE,
                                    "drain",
                                    Args::new()
                                        .with("batches", info.batches)
                                        .with("updates", info.raw_updates),
                                );
                            }
                        }
                        let mut msgs = scratch.take_msgs();
                        let delivered = msgs.len() as u64;
                        let mut ctx = UpdateCtx::with_buffer(scratch.take_updates_buf());
                        let eval_name = if superstep == 0 { "eval0" } else { "inceval" };
                        if traced {
                            self.tracer.begin(
                                pid::ENGINE,
                                w as u32,
                                cat::PHASE,
                                eval_name,
                                Args::new(),
                            );
                        }
                        if superstep == 0 {
                            let st = eval0(w, frag, &mut ctx);
                            *cell.state.lock() = Some(st);
                        } else {
                            let mut guard = cell.state.lock();
                            let st = guard.as_mut().expect("state initialised by PEval");
                            prog.inceval(q, frag, st, &mut msgs, &mut ctx);
                        }
                        scratch.give_msgs(msgs);
                        let dt = t0.elapsed().as_secs_f64();
                        let (effective, redundant) = ctx.effect_counts();
                        let (work, sent) = (ctx.work(), ctx.len());
                        let (mut updates, local_work) = ctx.take();
                        if traced {
                            self.tracer.end(
                                pid::ENGINE,
                                w as u32,
                                cat::PHASE,
                                eval_name,
                                Args::new()
                                    .with("effective", effective)
                                    .with("redundant", redundant)
                                    .with("work", work)
                                    .with("sent", sent),
                            );
                            self.tracer.begin(
                                pid::ENGINE,
                                w as u32,
                                cat::PHASE,
                                "route",
                                Args::new(),
                            );
                        }
                        let mut batches = std::mem::take(&mut scratch.out);
                        route_updates_into(
                            prog,
                            frag,
                            superstep,
                            &mut updates,
                            &mut scratch,
                            &mut batches,
                        );
                        scratch.give_updates_buf(updates);
                        if traced {
                            self.tracer.end(
                                pid::ENGINE,
                                w as u32,
                                cat::PHASE,
                                "route",
                                Args::new().with("batches", batches.len()),
                            );
                        }
                        {
                            let mut st = cell.stats.lock();
                            st.rounds += 1;
                            st.compute_time += dt;
                            st.updates_delivered += delivered;
                            st.effective_updates += effective;
                            st.redundant_updates += redundant;
                            for (_, b) in &batches {
                                st.batches_out += 1;
                                st.updates_out += b.updates.len() as u64;
                                st.bytes_out += (BATCH_HEADER_BYTES
                                    + b.updates
                                        .iter()
                                        .map(|(_, v)| UPDATE_KEY_BYTES + prog.val_bytes(v))
                                        .sum::<usize>())
                                    as u64;
                            }
                        }
                        cell.rounds.fetch_add(1, Ordering::Relaxed);
                        *outs[i].lock() = batches;
                        *next_work[i].lock() = local_work;
                        if traced {
                            self.tracer.end(
                                pid::ENGINE,
                                w as u32,
                                cat::ROUND,
                                "round",
                                Args::new(),
                            );
                        }
                    });
                }
            });
            // Barrier: deliver all batches, then find the next active set.
            let mut next: Vec<usize> = Vec::new();
            let mut want_local: Vec<bool> = vec![false; m];
            for (i, out) in outs.iter().enumerate() {
                want_local[active[i]] = *next_work[i].lock();
                let mut out = std::mem::take(&mut *out.lock());
                for (dst, b) in out.drain(..) {
                    if traced {
                        self.tracer.instant(
                            pid::ENGINE,
                            active[i] as u32,
                            cat::MSG,
                            "batch",
                            Args::new().with("dst", dst as u32).with("updates", b.updates.len()),
                        );
                    }
                    let cell = &cells[dst as usize];
                    {
                        let mut st = cell.stats.lock();
                        st.batches_in += 1;
                        st.updates_in += b.updates.len() as u64;
                    }
                    let mut inbox = cell.inbox.lock();
                    let eta = inbox.push(b);
                    cell.eta.store(eta, Ordering::Relaxed);
                }
                // Hand the (emptied) batch list back to its worker.
                cells[active[i]].scratch.lock().out = out;
            }
            next.extend(
                (0..m).filter(|&w| cells[w].eta.load(Ordering::Relaxed) > 0 || want_local[w]),
            );
            active = next;
            superstep += 1;
        }

        collect(cells, &self.opts.mode, start, aborted)
    }

    // ------------------------------------------------------------------
    // Asynchronous path: AP / SSP / AAP / Hsync via δ.
    // ------------------------------------------------------------------
    fn run_async<P, F>(&self, prog: &P, q: &P::Query, eval0: &F) -> (RunStats, Vec<P::State>)
    where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State + Sync,
    {
        let m = self.frags.len();
        let start = Instant::now();
        let cells: Vec<Cell<P::Val, P::State>> = (0..m).map(|_| Cell::new()).collect();
        attach_shared_pool(&cells);
        let rates = SharedRates::new(m);
        let l0 = match &self.opts.mode {
            Mode::Aap(cfg) => policy::l_floor(cfg, m),
            _ => 0.0,
        };
        let coord = Mutex::new(Coord {
            status: vec![Status::Ready; m],
            suspend_began: vec![None; m],
            local_work: vec![false; m],
            pstates: (0..m).map(|_| PolicyState::new(l0)).collect(),
            ready: (0..m).collect(),
            pending: m,
            done: m == 0,
            aborted: false,
            rmin: 0,
            rmax: 0,
        });
        let cv = Condvar::new();
        let nthreads = self.opts.threads.clamp(1, m.max(1));
        if self.tracer.enabled() {
            self.tracer.instant(
                pid::ENGINE,
                0,
                cat::POLICY,
                "mode",
                Args::new()
                    .with("mode", self.opts.mode.name())
                    .with("workers", m)
                    .with("threads", nthreads),
            );
        }

        std::thread::scope(|s| {
            for _ in 0..nthreads {
                s.spawn(|| {
                    self.async_worker_loop(prog, q, eval0, &cells, &coord, &cv, &rates, start)
                });
            }
        });

        let aborted = coord.lock().aborted;
        collect(cells, &self.opts.mode, start, aborted)
    }

    #[allow(clippy::too_many_arguments)]
    fn async_worker_loop<P, F>(
        &self,
        prog: &P,
        q: &P::Query,
        eval0: &F,
        cells: &[Cell<P::Val, P::State>],
        coord: &Mutex<Coord>,
        cv: &Condvar,
        rates: &SharedRates,
        start: Instant,
    ) where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State + Sync,
    {
        loop {
            // --- acquire a runnable virtual worker ---
            let w = {
                let mut c = coord.lock();
                loop {
                    if c.done {
                        return;
                    }
                    promote_due(&mut c, cells, Instant::now());
                    if let Some(w) = c.ready.pop_front() {
                        c.status[w] = Status::Running;
                        break w;
                    }
                    // Sleep until the earliest suspend deadline (or a
                    // notification from another thread).
                    let deadline = c
                        .status
                        .iter()
                        .filter_map(|s| match s {
                            Status::Suspended(Some(t)) => Some(*t),
                            _ => None,
                        })
                        .min();
                    match deadline {
                        Some(t) => {
                            cv.wait_until(&mut c, t);
                        }
                        None => {
                            cv.wait(&mut c);
                        }
                    }
                }
            };

            // --- execute one round of worker w ---
            let frag = &self.frags[w];
            let cell = &cells[w];
            let mut scratch = cell.scratch.lock();
            let now0 = start.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let round = cell.rounds.load(Ordering::Relaxed);
            let traced = self.tracer.enabled();
            if traced {
                self.tracer.begin(
                    pid::ENGINE,
                    w as u32,
                    cat::ROUND,
                    "round",
                    Args::new().with("round", round).with("frag", w),
                );
            }
            // PEval (round 0) must NOT drain: messages from faster peers'
            // PEval rounds may already be buffered and belong to IncEval.
            let mut msgs = if round == 0 {
                scratch.take_msgs()
            } else {
                if traced {
                    self.tracer.begin(pid::ENGINE, w as u32, cat::PHASE, "drain", Args::new());
                }
                let info = {
                    let mut inbox = cell.inbox.lock();
                    let info = inbox.drain_into(prog, frag, &mut scratch);
                    cell.eta.store(0, Ordering::Relaxed);
                    info
                };
                // Keep send/recycle capacity in line with observed traffic
                // so the next round's routing starts warm.
                scratch.reserve_for_traffic(info.raw_updates, info.batches);
                let mut c = coord.lock();
                let avg = rates.avg_rate();
                let fast = rates.fast_count();
                policy::on_drain(
                    &self.opts.mode,
                    &mut c.pstates[w],
                    info.batches,
                    now0,
                    cells.len(),
                    avg,
                    fast,
                );
                if traced {
                    self.tracer.end(
                        pid::ENGINE,
                        w as u32,
                        cat::PHASE,
                        "drain",
                        Args::new().with("batches", info.batches).with("updates", info.raw_updates),
                    );
                }
                scratch.take_msgs()
            };
            let delivered = msgs.len() as u64;
            let mut ctx = UpdateCtx::with_buffer(scratch.take_updates_buf());
            let eval_name = if round == 0 { "eval0" } else { "inceval" };
            if traced {
                self.tracer.begin(pid::ENGINE, w as u32, cat::PHASE, eval_name, Args::new());
            }
            if round == 0 {
                let st = eval0(w, frag, &mut ctx);
                *cell.state.lock() = Some(st);
            } else {
                let mut guard = cell.state.lock();
                let st = guard.as_mut().expect("state initialised by PEval");
                prog.inceval(q, frag, st, &mut msgs, &mut ctx);
            }
            scratch.give_msgs(msgs);
            let dt = t0.elapsed().as_secs_f64();
            let (effective, redundant) = ctx.effect_counts();
            let (work, sent) = (ctx.work(), ctx.len());
            let (mut updates, local_work) = ctx.take();
            if traced {
                self.tracer.end(
                    pid::ENGINE,
                    w as u32,
                    cat::PHASE,
                    eval_name,
                    Args::new()
                        .with("effective", effective)
                        .with("redundant", redundant)
                        .with("work", work)
                        .with("sent", sent),
                );
                self.tracer.begin(pid::ENGINE, w as u32, cat::PHASE, "route", Args::new());
            }
            let mut batches = std::mem::take(&mut scratch.out);
            route_updates_into(prog, frag, round, &mut updates, &mut scratch, &mut batches);
            scratch.give_updates_buf(updates);
            if traced {
                self.tracer.end(
                    pid::ENGINE,
                    w as u32,
                    cat::PHASE,
                    "route",
                    Args::new().with("batches", batches.len()),
                );
            }

            // --- self stats ---
            {
                let mut st = cell.stats.lock();
                st.rounds += 1;
                st.compute_time += dt;
                st.updates_delivered += delivered;
                st.effective_updates += effective;
                st.redundant_updates += redundant;
                for (_, b) in &batches {
                    st.batches_out += 1;
                    st.updates_out += b.updates.len() as u64;
                    st.bytes_out += (BATCH_HEADER_BYTES
                        + b.updates
                            .iter()
                            .map(|(_, v)| UPDATE_KEY_BYTES + prog.val_bytes(v))
                            .sum::<usize>()) as u64;
                }
            }

            // --- deliver messages (push-based, immediate) ---
            // `batches` comes out of routing sorted by destination with at
            // most one batch per destination, so the wake-up list below
            // needs no sort/dedup pass.
            let mut dests = std::mem::take(&mut scratch.touched_dests);
            dests.clear();
            for (dst, b) in batches.drain(..) {
                if traced {
                    self.tracer.instant(
                        pid::ENGINE,
                        w as u32,
                        cat::MSG,
                        "batch",
                        Args::new().with("dst", dst as u32).with("updates", b.updates.len()),
                    );
                }
                let dcell = &cells[dst as usize];
                {
                    let mut st = dcell.stats.lock();
                    st.batches_in += 1;
                    st.updates_in += b.updates.len() as u64;
                }
                let mut inbox = dcell.inbox.lock();
                let eta = inbox.push(b);
                dcell.eta.store(eta, Ordering::Relaxed);
                drop(inbox);
                dests.push(dst);
            }
            scratch.out = batches;
            if traced {
                self.tracer.end(pid::ENGINE, w as u32, cat::ROUND, "round", Args::new());
            }

            // --- post-round coordination ---
            let now1 = start.elapsed().as_secs_f64();
            {
                let mut c = coord.lock();
                cell.rounds.store(round + 1, Ordering::Relaxed);
                if let Some(maxr) = self.opts.max_rounds {
                    if round + 1 > maxr {
                        c.done = true;
                        c.aborted = true;
                        cv.notify_all();
                        return;
                    }
                }
                c.local_work[w] = local_work;
                policy::on_round_complete(&self.opts.mode, &mut c.pstates[w], dt, now1);
                rates.publish(w, c.pstates[w].s_rate, c.pstates[w].t_round);
                if let Mode::Hsync(cfg) = &self.opts.mode {
                    rates.hsync_on_round(cfg);
                }
                c.recompute_bounds(cells);

                // Decide the fate of this worker.
                let d = self.decide::<P>(&c, cells, rates, w, now1);
                if traced {
                    self.tracer.instant(
                        pid::ENGINE,
                        w as u32,
                        cat::POLICY,
                        "decision",
                        Args::new().with("decision", decision_name(&d)).with("round", round + 1),
                    );
                }
                apply_decision(&mut c, cells, cv, w, d, true);

                // Message arrivals re-evaluate their targets (§3: "when Pi
                // receives a new message, DSi is adjusted").
                for &dst in &dests {
                    let dst = dst as usize;
                    if matches!(c.status[dst], Status::Ready | Status::Running) {
                        continue;
                    }
                    let d = self.decide::<P>(&c, cells, rates, dst, now1);
                    apply_decision(&mut c, cells, cv, dst, d, false);
                }
                scratch.touched_dests = dests;

                // Round-bound movement can release held workers (BSP-like
                // holds, SSP bounds, AAP staleness predicate).
                c.recompute_bounds(cells);
                let held: Vec<usize> = c
                    .status
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, Status::Suspended(_)))
                    .map(|(i, _)| i)
                    .collect();
                for h in held {
                    let d = self.decide::<P>(&c, cells, rates, h, now1);
                    apply_decision(&mut c, cells, cv, h, d, false);
                }

                if c.pending == 0 {
                    c.done = true;
                    cv.notify_all();
                }
            }
        }
    }

    fn decide<P>(
        &self,
        c: &Coord,
        cells: &[Cell<P::Val, P::State>],
        rates: &SharedRates,
        w: usize,
        now: f64,
    ) -> Decision
    where
        P: PieProgram<V, E>,
    {
        let inputs = policy::DeltaInputs {
            eta: cells[w].eta.load(Ordering::Relaxed),
            local_work: c.local_work[w],
            ri: cells[w].rounds.load(Ordering::Relaxed),
            rmin: c.rmin,
            rmax: c.rmax,
            now,
            avg_rate: rates.avg_rate(),
            hsync_sync: rates.hsync_sync(),
        };
        policy::delta(&self.opts.mode, &c.pstates[w], &inputs)
    }
}

/// Static label for a δ decision (trace instants must be heap-free).
fn decision_name(d: &Decision) -> &'static str {
    match d {
        Decision::Run => "run",
        Decision::Delay(_) => "delay",
        Decision::Hold => "hold",
        Decision::Inactive => "inactive",
    }
}

/// Tear the per-worker cells down into run statistics + final states
/// (the shared tail of the BSP and async paths).
fn collect<Val, St>(
    cells: Vec<Cell<Val, St>>,
    mode: &Mode,
    start: Instant,
    aborted: bool,
) -> (RunStats, Vec<St>) {
    let makespan = start.elapsed().as_secs_f64();
    let mut workers = Vec::with_capacity(cells.len());
    let mut states = Vec::with_capacity(cells.len());
    for cell in cells {
        workers.push(cell.stats.into_inner());
        states.push(cell.state.into_inner().expect("round 0 ran on every fragment"));
    }
    (RunStats { mode: mode.name().to_string(), makespan, workers, aborted }, states)
}

/// Share one batch-body recycling pool across all workers of a run, so
/// send-heavy workers reuse the memory receive-heavy workers drain (see
/// [`crate::scratch::SharedPool`]).
fn attach_shared_pool<Val, St>(cells: &[Cell<Val, St>]) {
    let pool: SharedPool<Val> = SharedPool::default();
    for cell in cells {
        cell.scratch.lock().attach_shared_pool(pool.clone());
    }
}

/// Move suspended workers whose deadline has passed to the ready queue.
fn promote_due<Val, St>(c: &mut Coord, cells: &[Cell<Val, St>], now: Instant) {
    for w in 0..c.status.len() {
        if let Status::Suspended(Some(t)) = c.status[w] {
            if t <= now {
                record_suspend_end(c, cells, w, now);
                c.status[w] = Status::Ready;
                c.ready.push_back(w);
            }
        }
    }
}

fn record_suspend_end<Val, St>(c: &mut Coord, cells: &[Cell<Val, St>], w: usize, now: Instant) {
    if let Some(began) = c.suspend_began[w].take() {
        let dt = now.saturating_duration_since(began).as_secs_f64();
        cells[w].stats.lock().suspend_time += dt;
    }
}

/// Apply a δ decision to worker `w`'s scheduler status, maintaining the
/// `pending` count that drives termination.
fn apply_decision<Val, St>(
    c: &mut Coord,
    cells: &[Cell<Val, St>],
    cv: &Condvar,
    w: usize,
    d: Decision,
    was_running: bool,
) {
    let now = Instant::now();
    let old = c.status[w];
    let new_status = match d {
        Decision::Run => Status::Ready,
        Decision::Delay(ds) => {
            let dl = now + std::time::Duration::from_secs_f64(ds.clamp(0.0, 3600.0));
            Status::Suspended(Some(dl))
        }
        Decision::Hold => Status::Suspended(None),
        Decision::Inactive => Status::Inactive,
    };
    // Suspend-time accounting across the transition.
    match (old, new_status) {
        (Status::Suspended(_), Status::Suspended(_)) => {} // keep original start
        (Status::Suspended(_), _) => record_suspend_end(c, cells, w, now),
        (_, Status::Suspended(_)) => c.suspend_began[w] = Some(now),
        _ => {}
    }
    if matches!(new_status, Status::Ready) && (was_running || !matches!(old, Status::Ready)) {
        c.ready.push_back(w);
        cv.notify_one();
    }
    if matches!(new_status, Status::Suspended(Some(_))) {
        // A sleeping scheduler thread may need to adopt this (possibly
        // earlier) wake deadline.
        cv.notify_one();
    }
    c.status[w] = new_status;
    let was_pending = was_running || !matches!(old, Status::Inactive);
    let is_pending = !matches!(new_status, Status::Inactive);
    match (was_pending, is_pending) {
        (true, false) => c.pending -= 1,
        (false, true) => c.pending += 1,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pie::Messages;
    use aap_graph::partition::{build_fragments_n, hash_partition};
    use aap_graph::{GraphBuilder, LocalId};

    /// Minimal min-label propagation (toy CC) for engine-level tests.
    struct MinLabel;

    impl PieProgram<(), u32> for MinLabel {
        type Query = ();
        type Val = u32;
        type State = Vec<u32>;
        type Out = Vec<u32>;

        fn combine(&self, a: &mut u32, b: u32) -> bool {
            if b < *a {
                *a = b;
                true
            } else {
                false
            }
        }

        fn peval(&self, _q: &(), f: &Fragment<(), u32>, ctx: &mut UpdateCtx<u32>) -> Vec<u32> {
            let mut lab: Vec<u32> = (0..f.local_count() as u32).map(|l| f.global(l)).collect();
            propagate(f, &mut lab, (0..f.local_count() as LocalId).collect(), ctx);
            lab
        }

        fn inceval(
            &self,
            _q: &(),
            f: &Fragment<(), u32>,
            lab: &mut Vec<u32>,
            msgs: &mut Messages<u32>,
            ctx: &mut UpdateCtx<u32>,
        ) {
            let mut dirty = Vec::new();
            for (l, v) in msgs.drain(..) {
                if v < lab[l as usize] {
                    lab[l as usize] = v;
                    dirty.push(l);
                    ctx.note_effective(1);
                } else {
                    ctx.note_redundant(1);
                }
            }
            propagate(f, lab, dirty, ctx);
        }

        fn assemble(
            &self,
            _q: &(),
            frags: &[Arc<Fragment<(), u32>>],
            states: Vec<Vec<u32>>,
        ) -> Vec<u32> {
            let n = frags.iter().map(|f| f.owned_count()).sum();
            let mut out = vec![0; n];
            for (f, lab) in frags.iter().zip(states) {
                for l in f.owned_vertices() {
                    out[f.global(l) as usize] = lab[l as usize];
                }
            }
            out
        }
    }

    fn propagate(
        f: &Fragment<(), u32>,
        lab: &mut [u32],
        mut work: Vec<LocalId>,
        ctx: &mut UpdateCtx<u32>,
    ) {
        let mut changed = std::collections::BTreeSet::new();
        for &l in &work {
            if f.is_border(l) {
                changed.insert(l);
            }
        }
        while let Some(u) = work.pop() {
            for &v in f.neighbors(u) {
                if lab[u as usize] < lab[v as usize] {
                    lab[v as usize] = lab[u as usize];
                    work.push(v);
                    if f.is_border(v) {
                        changed.insert(v);
                    }
                }
            }
        }
        for b in changed {
            ctx.send(b, lab[b as usize]);
        }
    }

    fn ring_frags(n: usize, m: usize) -> Vec<Fragment<(), u32>> {
        let mut b = GraphBuilder::new_undirected(n);
        for v in 0..n as u32 {
            b.add_edge(v, (v + 1) % n as u32, 1);
        }
        let g = b.build();
        build_fragments_n(&g, &hash_partition(&g, m), m)
    }

    #[test]
    fn one_thread_hosts_many_virtual_workers() {
        // n (threads) < m (virtual workers): the paper's multiplexed setup.
        let engine = Engine::new(
            ring_frags(200, 12),
            EngineOpts { threads: 1, mode: Mode::aap(), max_rounds: Some(100_000) },
        );
        let out = engine.run(&MinLabel, &());
        assert!(out.out.iter().all(|&l| l == 0));
    }

    #[test]
    fn thread_count_does_not_change_the_fixpoint() {
        let expect: Vec<u32> = vec![0; 150];
        for threads in [1usize, 2, 8, 32] {
            let engine = Engine::new(
                ring_frags(150, 6),
                EngineOpts { threads, mode: Mode::Ap, max_rounds: Some(100_000) },
            );
            assert_eq!(engine.run(&MinLabel, &()).out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn bsp_rounds_are_lockstep() {
        let engine = Engine::new(
            ring_frags(300, 5),
            EngineOpts { threads: 4, mode: Mode::Bsp, max_rounds: Some(100_000) },
        );
        let out = engine.run(&MinLabel, &());
        assert!(out.out.iter().all(|&l| l == 0));
        // Under supersteps, no worker can be more than the full superstep
        // count ahead of another that stayed active throughout.
        let max = out.stats.max_rounds();
        for w in &out.stats.workers {
            assert!(w.rounds <= max);
            assert!(w.rounds >= 1, "every worker ran PEval");
        }
    }

    #[test]
    fn redundant_updates_are_counted() {
        // A dense ring partitioned finely generates plenty of redundant
        // min-updates under AP.
        let engine = Engine::new(
            ring_frags(400, 8),
            EngineOpts { threads: 4, mode: Mode::Ap, max_rounds: Some(100_000) },
        );
        let out = engine.run(&MinLabel, &());
        let eff: u64 = out.stats.workers.iter().map(|w| w.effective_updates).sum();
        assert!(eff > 0, "some updates must have improved labels");
    }

    #[test]
    fn empty_engine_terminates() {
        let engine: Engine<(), u32> = Engine::new(Vec::new(), EngineOpts::default());
        let out = engine.run(&MinLabel, &());
        assert!(out.out.is_empty());
        assert_eq!(out.stats.workers.len(), 0);
    }
}
