//! The multithreaded AAP engine — GRAPE+ (§3 workflow, §6 implementation).
//!
//! `m` virtual workers (one per fragment) are scheduled onto `n ≤ m` OS
//! threads. Message passing is point-to-point and push-based: a completing
//! round locks only the destination's inbox, so no global synchronisation
//! barrier exists on the async path. Each worker's next round is gated by
//! the delay-stretch function `δ` of [`crate::policy`], applied between
//! rounds by the [`crate::coord::Coordinator`]; a suspended worker
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

use crate::coord::{Action, Coordinator, Status};
use crate::inbox::{DrainInfo, Inbox};
use crate::pie::{Batch, PieProgram, UpdateCtx, WarmStart};
use crate::policy::{self, Mode};
use crate::scratch::{Scratch, SharedPool};
use crate::stats::{RunStats, WorkerStats};
use crate::step::Step;
use aap_graph::mutate::StateRemap;
use aap_graph::{FragId, Fragment, LocalId, VertexId};
use aap_trace::{cat, pid, Args, Tracer};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
}

impl<Val, St> Cell<Val, St> {
    fn new() -> Self {
        Cell {
            inbox: Mutex::new(Inbox::default()),
            eta: AtomicUsize::new(0),
            state: Mutex::new(None),
            stats: Mutex::new(WorkerStats::default()),
            scratch: Mutex::new(Scratch::default()),
        }
    }

    /// Drain the inbox into `scratch`, zeroing the lock-free `ηi` mirror
    /// under the same lock so a concurrent push is never lost.
    fn drain<V, E, P>(
        &self,
        prog: &P,
        frag: &Fragment<V, E>,
        scratch: &mut Scratch<Val>,
    ) -> DrainInfo
    where
        P: PieProgram<V, E, Val = Val>,
    {
        let mut inbox = self.inbox.lock();
        let info = inbox.drain_into(prog, frag, scratch);
        self.eta.store(0, Ordering::Relaxed);
        info
    }
}

/// The async driver's shared state, under one mutex: the coordinator, the
/// queue of workers it told to run, and its action buffer.
struct Sched {
    coord: Coordinator,
    ready: VecDeque<usize>,
    acts: Vec<Action>,
    done: bool,
    aborted: bool,
}

impl Sched {
    /// Carry out the coordinator's last actions at `now`: queue the
    /// workers to run and book the suspensions they end. The calling
    /// thread takes the next ready worker itself, so another thread is
    /// woken only for work beyond that.
    fn apply<Val, St>(&mut self, cells: &[Cell<Val, St>], cv: &Condvar, now: f64) {
        for a in &self.acts {
            if let Some(since) = a.suspended_since {
                cells[a.w].stats.lock().suspend_time += (now - since).max(0.0);
            }
            match a.to {
                Status::Running => {
                    self.ready.push_back(a.w);
                    if self.ready.len() > 1 {
                        cv.notify_one();
                    }
                }
                // A sleeping thread may need to adopt this (possibly
                // earlier) wake deadline.
                Status::Suspended(Some(_)) => cv.notify_one(),
                _ => {}
            }
        }
    }

    /// End the run once every worker is inactive; true if it has ended.
    /// Call only after every delivered batch was reported as arrived.
    fn check_done(&mut self, cv: &Condvar) -> bool {
        if self.coord.is_done() {
            self.done = true;
            cv.notify_all();
        }
        self.done
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
        let m = self.frags.len();
        let start = Instant::now();
        let cells: Vec<Cell<P::Val, P::State>> = (0..m).map(|_| Cell::new()).collect();
        attach_shared_pool(&cells);
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
        let step = Step { prog, q, eval0, tracer: &self.tracer };
        let aborted = match self.opts.mode {
            Mode::Bsp => self.run_bsp(&step, &cells, nthreads),
            _ => self.run_async(&step, &cells, nthreads, start),
        };
        collect(cells, &self.opts.mode, start, aborted)
    }

    /// Open worker `w`'s `round` span (closed by the driver once the
    /// round's batches are handed off).
    fn trace_round(&self, w: usize, round: u32) {
        if self.tracer.enabled() {
            self.tracer.begin(
                pid::ENGINE,
                w as u32,
                cat::ROUND,
                "round",
                Args::new().with("round", round).with("frag", w),
            );
        }
    }

    // ------------------------------------------------------------------
    // BSP path: honest supersteps with a barrier (GRAPE / GRAPE+BSP).
    // Returns whether the `max_rounds` valve aborted the run.
    // ------------------------------------------------------------------
    fn run_bsp<P, F>(
        &self,
        step: &Step<'_, P, P::Query, F>,
        cells: &[Cell<P::Val, P::State>],
        nthreads: usize,
    ) -> bool
    where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State + Sync,
    {
        let m = cells.len();
        // Superstep 0: PEval everywhere.
        let mut active: Vec<usize> = (0..m).collect();
        let mut superstep: u32 = 0;
        while !active.is_empty() {
            if self.opts.max_rounds.is_some_and(|maxr| superstep > maxr) {
                return true;
            }
            // Per executing worker: its routed batches, delivered
            // post-barrier, and whether it asked for a local round.
            type Outbox<Val> = Mutex<(Vec<(FragId, Batch<Val>)>, bool)>;
            let outs: Vec<Outbox<P::Val>> = active.iter().map(|_| Mutex::default()).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..nthreads {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&w) = active.get(i) else { return };
                        let (frag, cell) = (&self.frags[w], &cells[w]);
                        let mut scratch = cell.scratch.lock();
                        let t0 = Instant::now();
                        self.trace_round(w, superstep);
                        let r = step.round(
                            w,
                            frag,
                            superstep,
                            &mut scratch,
                            &mut cell.state.lock(),
                            |s| cell.drain(step.prog, frag, s),
                            |_| t0.elapsed().as_secs_f64(),
                        );
                        r.fold_into(&mut cell.stats.lock());
                        *outs[i].lock() = (scratch.take_out(), r.local_work);
                        if self.tracer.enabled() {
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
            let mut want_local: Vec<bool> = vec![false; m];
            for (out, &w) in outs.into_iter().zip(&active) {
                let (mut batches, local_work) = out.into_inner();
                want_local[w] = local_work;
                for (dst, b) in batches.drain(..) {
                    deliver(&self.tracer, cells, w, dst, b);
                }
                // Hand the (emptied) batch list back to its worker.
                cells[w].scratch.lock().give_out(batches);
            }
            active = (0..m)
                .filter(|&w| cells[w].eta.load(Ordering::Relaxed) > 0 || want_local[w])
                .collect();
            superstep += 1;
        }
        false
    }

    // ------------------------------------------------------------------
    // Asynchronous path: AP / SSP / AAP / Hsync via δ. Returns whether
    // the `max_rounds` valve aborted the run.
    // ------------------------------------------------------------------
    fn run_async<P, F>(
        &self,
        step: &Step<'_, P, P::Query, F>,
        cells: &[Cell<P::Val, P::State>],
        nthreads: usize,
        start: Instant,
    ) -> bool
    where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State + Sync,
    {
        let m = cells.len();
        let sched = Mutex::new(Sched {
            coord: Coordinator::new(self.opts.mode.clone(), m),
            ready: (0..m).collect(),
            acts: Vec::with_capacity(m),
            done: m == 0,
            aborted: false,
        });
        let cv = Condvar::new();
        std::thread::scope(|s| {
            for _ in 0..nthreads {
                s.spawn(|| self.async_worker_loop(step, cells, &sched, &cv, start));
            }
        });
        sched.into_inner().aborted
    }

    fn async_worker_loop<P, F>(
        &self,
        step: &Step<'_, P, P::Query, F>,
        cells: &[Cell<P::Val, P::State>],
        sched: &Mutex<Sched>,
        cv: &Condvar,
        start: Instant,
    ) where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State + Sync,
    {
        let eta = |v: usize| cells[v].eta.load(Ordering::Relaxed);
        loop {
            // --- acquire a runnable virtual worker, waking due ones ---
            let mut guard = sched.lock();
            let (w, round) = loop {
                let s = &mut *guard;
                let now = start.elapsed().as_secs_f64();
                s.coord.wake_due(now, eta, &mut s.acts);
                s.apply(cells, cv, now);
                if s.check_done(cv) {
                    return;
                }
                if let Some(w) = s.ready.pop_front() {
                    break (w, s.coord.round(w));
                }
                // Sleep until the earliest wake deadline (or a
                // notification from another thread).
                match s.coord.next_deadline() {
                    Some(t) => {
                        let at = start + Duration::from_secs_f64(t.clamp(0.0, 1e7));
                        cv.wait_until(&mut guard, at);
                    }
                    None => cv.wait(&mut guard),
                }
            };
            drop(guard);

            // --- execute one round of worker w ---
            let (frag, cell) = (&self.frags[w], &cells[w]);
            let mut scratch = cell.scratch.lock();
            let now0 = start.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let traced = self.tracer.enabled();
            self.trace_round(w, round);
            let drain = |s: &mut Scratch<P::Val>| {
                let info = cell.drain(step.prog, frag, s);
                sched.lock().coord.drained(w, info.batches, now0);
                info
            };
            let r = step.round(w, frag, round, &mut scratch, &mut cell.state.lock(), drain, |_| {
                t0.elapsed().as_secs_f64()
            });
            r.fold_into(&mut cell.stats.lock());

            // --- deliver messages (push-based, immediate) ---
            // Routing leaves at most one batch per destination, sorted by
            // destination, so the wake-up list needs no sort/dedup pass.
            let mut batches = scratch.take_out();
            let mut dests = std::mem::take(&mut scratch.touched_dests);
            dests.clear();
            for (dst, b) in batches.drain(..) {
                deliver(&self.tracer, cells, w, dst, b);
                dests.push(dst);
            }
            scratch.give_out(batches);
            if traced {
                self.tracer.end(pid::ENGINE, w as u32, cat::ROUND, "round", Args::new());
            }

            // --- post-round coordination: this worker's fate, then the
            // arrivals it caused, then the done check ---
            let now1 = start.elapsed().as_secs_f64();
            let mut guard = sched.lock();
            let s = &mut *guard;
            if self.opts.max_rounds.is_some_and(|maxr| round + 1 > maxr) {
                (s.done, s.aborted) = (true, true);
                cv.notify_all();
                return;
            }
            s.coord.round_done(w, r.local_work, r.compute, now1, eta, &mut s.acts);
            if traced {
                for (d, seen) in s.acts.iter().filter(|a| a.w == w).filter_map(|a| a.decided) {
                    let args = policy::decision_args(d, &seen);
                    self.tracer.instant(pid::ENGINE, w as u32, cat::POLICY, "decision", args);
                }
            }
            s.apply(cells, cv, now1);
            for &dst in &dests {
                s.coord.arrived(dst as usize, now1, eta, &mut s.acts);
                s.apply(cells, cv, now1);
            }
            scratch.touched_dests = dests;
            s.check_done(cv);
        }
    }
}

/// Push one routed batch into worker `dst`'s inbox, counting it on the
/// receiver and refreshing its lock-free `ηi` mirror; `from` is the
/// sender, whose track the `batch` instant goes on.
fn deliver<Val, St>(
    tracer: &Tracer,
    cells: &[Cell<Val, St>],
    from: usize,
    dst: FragId,
    b: Batch<Val>,
) {
    if tracer.enabled() {
        tracer.instant(
            pid::ENGINE,
            from as u32,
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
