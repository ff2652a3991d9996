//! Type-erased program slots: one registered PIE program with its
//! retained query, [`RunState`], cached output, bounded answer cache,
//! and epoch-publication cell, behind an object-safe trait so a
//! [`crate::Session`] can hold SSSP, CC, and future programs with
//! heterogeneous `Query`/`State`/`Out` types in one map.
//!
//! The erased surface is exactly the per-program half of the session
//! lifecycle: *plan* (pre-apply invalidation planning), *advance* (warm
//! or cold evaluation after the shared fragment apply), *publish* /
//! *serve_pending* (the concurrent-serving hooks), and the durable
//! *save*/*load* hooks. The typed half — `query` — goes through a
//! downcast in `Session::query`, which re-unites the caller's program
//! type with the slot's.
//!
//! ## Serving discipline (ISSUE 6)
//!
//! A slot retains **one** warm fixpoint (query + [`RunState`]) that
//! deltas advance, and serves every *other* query value through a small
//! bounded answer cache (MRU at the front) filled by cold runs that do
//! **not** disturb the retained state. The first-ever query becomes the
//! retained one; switching it later is explicit
//! ([`crate::Session::retain_query`]). Applying a delta clears the
//! answer cache — those outputs described the pre-apply graph.

use crate::durable::StateCrcs;
use crate::reader::{Fix, Published};
use crate::SessionError;
use aap_core::engine::RunState;
use aap_core::pie::WarmStart;
use aap_core::publish::EpochCell;
use aap_core::Backend;
use aap_core::{Engine, PortableFragState, RunStats, WarmStrategy};
use aap_delta::{advance, plan_incremental, Applied, GraphDelta, IncrementalPlan};
use aap_graph::mutate::StateRemap;
use aap_graph::{Fragment, LocalId};
use aap_sim::SimEngine;
use aap_snapshot::wire::{crc32, Writer};
use aap_snapshot::{
    diff_program_state_to_bytes, frag_state_crc, load_program_state_parts, program_state_to_bytes,
    resolve_state_chain, Codec,
};
use aap_trace::Tracer;
use std::any::Any;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// One program's durable form, encoded for the next checkpoint epoch by
/// [`AnySlot::encode_state`] on the writer thread (cheap relative to
/// fragment serialization, and it keeps slots off background threads).
pub(crate) struct EncodedState {
    /// The file to write at the new epoch — `None` when nothing changed
    /// since the parent epoch (the chain resolves the shards from older
    /// files, so no file is written at all).
    pub(crate) file: Option<Vec<u8>>,
    /// Fingerprints to diff the *next* checkpoint against.
    pub(crate) crcs: StateCrcs,
}

/// What one program's advance did, for the session's apply report.
pub(crate) struct SlotAdvance {
    pub(crate) strategy: WarmStrategy,
    pub(crate) stats: RunStats,
}

/// The object-safe slot surface (see module docs). `Any` is a supertrait
/// so `Session::query` can downcast back to the concrete [`Slot`].
pub(crate) trait AnySlot<V, E, B>: Any {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Pre-apply planning on the old fragments; `None` when no state is
    /// retained yet (nothing to advance). An enabled `tracer` records
    /// the chosen strategy and the invalidation planning span.
    fn plan(
        &mut self,
        frags: &[&Fragment<V, E>],
        delta: &GraphDelta<V, E>,
        tracer: &Tracer,
    ) -> Option<IncrementalPlan>;
    /// Post-apply advance ([`aap_delta::advance`]: warm through the
    /// applied remaps/seeds, or cold), refreshing the cached output.
    /// Drops the answer cache — its entries described the pre-apply
    /// graph.
    fn advance(
        &mut self,
        backend: &B,
        applied: &Applied,
        plan: Option<IncrementalPlan>,
    ) -> Option<SlotAdvance>;
    /// Settle retained state across an elastic migration: one warm run
    /// through the migration remaps with its seeds (no invalidation —
    /// the logical graph is unchanged), refreshing the cached output.
    /// Moved vertices are seeded at every surviving copy, so retained
    /// values re-announce and the new owner converges without a cold
    /// start. `false` when no state is retained (nothing to settle).
    fn migrate(&mut self, backend: &B, remaps: &[StateRemap], seeds: &[Vec<LocalId>]) -> bool;
    /// Publish the slot's current serving surface (retained query +
    /// output, answer cache) to its epoch cell at session `version`.
    fn publish(&self, version: u64);
    /// Drain the reader-admitted queue, answering every distinct queued
    /// value from the retained fixpoint, the answer cache, or one cold
    /// run each. Returns how many answers were **newly computed**.
    fn serve_pending(&mut self, backend: &B) -> usize;
    /// The shared publication cell + admission queue, for reader
    /// handles ([`crate::Session::reader`]).
    fn reader_parts(&self) -> (Arc<EpochCell<Published>>, Arc<dyn Any + Send + Sync>);
    /// Encode query + exported state for the next checkpoint epoch;
    /// `None` when the slot has no state yet. With `prev` fingerprints
    /// the encoding is differential — only changed shards — and may
    /// skip the file entirely (`file: None`); without them (fresh open,
    /// post-restore, full baseline) it is a full `STAT` file.
    fn encode_state(
        &self,
        frags: &[Arc<Fragment<V, E>>],
        prev: Option<&StateCrcs>,
    ) -> Option<EncodedState>;
    /// Load query + state from an epoch chain's files (**newest
    /// first**), resolve the newest version of each shard, attach
    /// against the backend's fragments, and settle non-identity remaps
    /// through one warm round. `Ok(false)` when `paths` is empty.
    fn load_state_chain(&mut self, paths: &[PathBuf], backend: &B) -> Result<bool, SessionError>;
}

/// The concrete slot for program `P`.
pub(crate) struct Slot<V, E, P>
where
    P: WarmStart<V, E>,
{
    prog: P,
    query: Option<P::Query>,
    state: Option<RunState<P::State>>,
    out: Option<Arc<P::Out>>,
    /// Bounded per-program answer cache for non-retained query values,
    /// most-recently-used first.
    answers: Vec<(P::Query, Arc<P::Out>)>,
    answer_cap: usize,
    /// Epoch-published serving surface (shared with every reader).
    cell: Arc<EpochCell<Published>>,
    /// Reader-admitted query values awaiting `serve_pending`.
    pending: Arc<Mutex<Vec<P::Query>>>,
    _marker: PhantomData<fn() -> (V, E)>,
}

impl<V, E, P> Slot<V, E, P>
where
    P: WarmStart<V, E>,
    P::Query: Clone + PartialEq + Send + Sync + 'static,
    P::Out: Send + Sync + 'static,
{
    pub(crate) fn new(prog: P, answer_cap: usize) -> Self {
        Slot {
            prog,
            query: None,
            state: None,
            out: None,
            answers: Vec::new(),
            answer_cap,
            cell: Arc::new(EpochCell::new()),
            pending: Arc::new(Mutex::new(Vec::new())),
            _marker: PhantomData,
        }
    }

    /// Serve a query without evicting the retained fixpoint: retained
    /// hit, answer-cache hit (moved to front), or one cold run. The
    /// first-ever query becomes the retained one (there is nothing to
    /// protect yet); later distinct values land in the bounded answer
    /// cache and leave the retained state untouched. The `bool` is true
    /// when the answer was newly computed (callers republish then).
    pub(crate) fn serve<B: Backend<V, E>>(
        &mut self,
        backend: &B,
        q: &P::Query,
    ) -> (Arc<P::Out>, bool) {
        if let Some(out) = self.lookup(q) {
            return (out, false);
        }
        if self.query.is_none() {
            return (self.retain(backend, q), true);
        }
        let (out, _stats, _state) = backend.run_retained(&self.prog, q);
        let out = Arc::new(out);
        self.cache_answer(q.clone(), Arc::clone(&out));
        (out, true)
    }

    /// A cache-only probe: the retained output when `q` is retained,
    /// else the cached answer moved to the front.
    fn lookup(&mut self, q: &P::Query) -> Option<Arc<P::Out>> {
        if self.query.as_ref() == Some(q) {
            return self.out.clone();
        }
        let pos = self.answers.iter().position(|(aq, _)| aq == q)?;
        let hit = self.answers.remove(pos);
        let out = Arc::clone(&hit.1);
        self.answers.insert(0, hit);
        Some(out)
    }

    fn cache_answer(&mut self, q: P::Query, out: Arc<P::Out>) {
        self.answers.retain(|(aq, _)| *aq != q);
        self.answers.insert(0, (q, out));
        self.answers.truncate(self.answer_cap);
    }

    /// Make `q` the retained query via a cold retained run, replacing
    /// the slot's warm state (the old behaviour of re-querying, now
    /// explicit). The previous retained answer is demoted into the
    /// answer cache — it is still a valid answer for the current graph.
    pub(crate) fn retain<B: Backend<V, E>>(&mut self, backend: &B, q: &P::Query) -> Arc<P::Out> {
        if self.query.as_ref() == Some(q) {
            if let Some(out) = self.out.clone() {
                return out;
            }
        }
        let (out, _stats, mut state) = backend.run_retained(&self.prog, q);
        self.prog.refresh_plan_cache(&out, state.plan_cache_mut());
        let out = Arc::new(out);
        if let (Some(oq), Some(oo)) = (self.query.take(), self.out.take()) {
            self.cache_answer(oq, oo);
        }
        self.answers.retain(|(aq, _)| aq != q);
        self.query = Some(q.clone());
        self.state = Some(state);
        self.out = Some(Arc::clone(&out));
        out
    }

    /// Build the publishable snapshot of the serving surface — `Arc`
    /// bumps only, no data copies.
    fn fix(&self) -> Fix<P::Query, P::Out> {
        Fix { query: self.query.clone(), out: self.out.clone(), answers: self.answers.clone() }
    }

    pub(crate) fn publish_at(&self, version: u64) {
        self.cell.publish(Arc::new(Published { version, fix: Arc::new(self.fix()) }));
    }

    /// The retained state, if a query materialized one (test/diagnostic
    /// access through `Session::run_state`).
    pub(crate) fn state(&self) -> Option<&RunState<P::State>> {
        self.state.as_ref()
    }

    /// The retained query, if any.
    pub(crate) fn current_query(&self) -> Option<&P::Query> {
        self.query.as_ref()
    }

    /// The cached assembled output, if any (zero-copy serving path).
    pub(crate) fn output(&self) -> Option<&P::Out> {
        self.out.as_deref()
    }
}

impl<V, E, B, P> AnySlot<V, E, B> for Slot<V, E, P>
where
    V: Clone + Send + Sync + 'static,
    E: Clone + PartialOrd + Send + Sync + 'static,
    B: Backend<V, E>,
    P: WarmStart<V, E> + 'static,
    P::Query: Clone + PartialEq + Codec + Send + Sync + 'static,
    P::State: Clone + Codec,
    P::Out: Clone + Send + Sync + 'static,
{
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn plan(
        &mut self,
        frags: &[&Fragment<V, E>],
        delta: &GraphDelta<V, E>,
        tracer: &Tracer,
    ) -> Option<IncrementalPlan> {
        let q = self.query.as_ref()?;
        let state = self.state.as_mut()?;
        Some(plan_incremental(frags, &self.prog, q, delta, state, tracer))
    }

    fn advance(
        &mut self,
        backend: &B,
        applied: &Applied,
        plan: Option<IncrementalPlan>,
    ) -> Option<SlotAdvance> {
        let plan = plan?;
        let strategy = plan.strategy;
        let (q, state) = (self.query.as_ref()?, self.state.as_mut()?);
        let (out, stats) = advance(backend, &self.prog, q, plan, applied, state);
        self.out = Some(Arc::new(out));
        // Cached answers described the pre-apply graph.
        self.answers.clear();
        Some(SlotAdvance { strategy, stats })
    }

    fn migrate(&mut self, backend: &B, remaps: &[StateRemap], seeds: &[Vec<LocalId>]) -> bool {
        let Some(q) = self.query.clone() else { return false };
        let Some(state) = self.state.as_mut() else { return false };
        let invalid: Vec<Vec<LocalId>> = remaps.iter().map(|_| Vec::new()).collect();
        let (out, _stats) = backend.run_incremental(&self.prog, &q, remaps, seeds, &invalid, state);
        self.prog.refresh_plan_cache(&out, state.plan_cache_mut());
        self.out = Some(Arc::new(out));
        // The answer cache survives: a migration does not change the
        // logical graph, so cached outputs (assembled in global ids,
        // partition-independent) still answer their queries.
        true
    }

    fn publish(&self, version: u64) {
        self.publish_at(version);
    }

    fn serve_pending(&mut self, backend: &B) -> usize {
        let drained: Vec<P::Query> = {
            let mut queued = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *queued)
        };
        let mut fresh = 0;
        for q in &drained {
            if self.serve(backend, q).1 {
                fresh += 1;
            }
        }
        fresh
    }

    fn reader_parts(&self) -> (Arc<EpochCell<Published>>, Arc<dyn Any + Send + Sync>) {
        (Arc::clone(&self.cell), self.pending.clone())
    }

    fn encode_state(
        &self,
        frags: &[Arc<Fragment<V, E>>],
        prev: Option<&StateCrcs>,
    ) -> Option<EncodedState> {
        let (q, state) = (self.query.as_ref()?, self.state.as_ref()?);
        let portable = state.export(frags);
        let mut qw = Writer::new();
        q.encode(&mut qw);
        let crcs = StateCrcs {
            query: crc32(qw.bytes()),
            shards: portable.entries().iter().map(frag_state_crc).collect(),
        };
        let total = crcs.shards.len();
        match prev {
            Some(p) if p.shards.len() == total => {
                let changed: Vec<(u16, &PortableFragState<P::State>)> = portable
                    .entries()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| p.shards[*i] != crcs.shards[*i])
                    .map(|(i, e)| (i as u16, e))
                    .collect();
                let file = if changed.is_empty() && p.query == crcs.query {
                    None
                } else {
                    // A changed query with unchanged shards still needs
                    // a (shard-less) file: restore takes the retained
                    // query from the newest chain file.
                    Some(diff_program_state_to_bytes(q, total as u16, &changed))
                };
                Some(EncodedState { file, crcs })
            }
            _ => Some(EncodedState { file: Some(program_state_to_bytes(q, &portable)), crcs }),
        }
    }

    fn load_state_chain(&mut self, paths: &[PathBuf], backend: &B) -> Result<bool, SessionError> {
        if paths.is_empty() {
            return Ok(false);
        }
        let mut parts = Vec::with_capacity(paths.len());
        for path in paths {
            parts.push(load_program_state_parts::<P::Query, P::State, _>(path)?);
        }
        let q = parts[0].query.clone();
        let portable = resolve_state_chain(parts)?;
        let (mut state, remaps) = portable
            .attach(backend.fragments())
            .map_err(|e| SessionError::Restore { detail: e.to_string() })?;
        let out = if remaps.iter().all(|r| r.is_identity()) {
            self.prog.assemble_ref(&q, backend.fragments(), state.states())
        } else {
            // State attached to a re-derived layout: one settle round
            // (empty seeds/invalid) migrates values through `warm_eval`.
            let empty: Vec<Vec<LocalId>> = remaps.iter().map(|_| Vec::new()).collect();
            let (out, _stats) =
                backend.run_incremental(&self.prog, &q, &remaps, &empty, &empty, &mut state);
            out
        };
        self.prog.refresh_plan_cache(&out, state.plan_cache_mut());
        self.query = Some(q);
        self.state = Some(state);
        self.out = Some(Arc::new(out));
        Ok(true)
    }
}

/// Backend-agnostic registration: a builder stores one factory per
/// `.program(...)` call and, at `open()`/`open_sim()`, converts it into
/// a slot for the concrete backend. Two monomorphic constructors stand
/// in for the generic method a boxed trait cannot have.
pub(crate) trait SlotFactory<V, E> {
    fn engine_slot(self: Box<Self>, answer_cap: usize) -> Box<dyn AnySlot<V, E, Engine<V, E>>>;
    fn sim_slot(self: Box<Self>, answer_cap: usize) -> Box<dyn AnySlot<V, E, SimEngine<V, E>>>;
}

pub(crate) struct ProgramFactory<V, E, P> {
    prog: P,
    _marker: PhantomData<fn() -> (V, E)>,
}

impl<V, E, P> ProgramFactory<V, E, P> {
    pub(crate) fn new(prog: P) -> Self {
        ProgramFactory { prog, _marker: PhantomData }
    }
}

impl<V, E, P> SlotFactory<V, E> for ProgramFactory<V, E, P>
where
    V: Clone + Send + Sync + 'static,
    E: Clone + PartialOrd + Send + Sync + 'static,
    P: WarmStart<V, E> + 'static,
    P::Query: Clone + PartialEq + Codec + Send + Sync + 'static,
    P::State: Clone + Codec,
    P::Out: Clone + Send + Sync + 'static,
{
    fn engine_slot(self: Box<Self>, answer_cap: usize) -> Box<dyn AnySlot<V, E, Engine<V, E>>> {
        Box::new(Slot::new(self.prog, answer_cap))
    }

    fn sim_slot(self: Box<Self>, answer_cap: usize) -> Box<dyn AnySlot<V, E, SimEngine<V, E>>> {
        Box::new(Slot::new(self.prog, answer_cap))
    }
}
