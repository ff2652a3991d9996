//! The execution backend a serving session or an incremental driver
//! runs on: the threaded GRAPE+ [`Engine`] (implemented here) or the
//! deterministic simulator (`aap_sim::SimEngine`, implemented there),
//! behind one trait so retained queries, warm-start advances and
//! in-place delta application are written once for both.

use crate::engine::{Engine, RunOutput, RunState};
use crate::pie::WarmStart;
use crate::stats::RunStats;
use aap_graph::mutate::StateRemap;
use aap_graph::{Fragment, LocalId};
use aap_trace::Tracer;
use std::sync::Arc;

/// What a session needs from an engine: fragment access (shared for
/// runs, exclusive for in-place delta application) and the two retained
/// evaluation entry points. Implemented by [`Engine`] (threaded,
/// wall-clock) and `aap_sim::SimEngine` (single-threaded, virtual time —
/// its timelines are dropped at this boundary; drive a `SimEngine`
/// directly when you need them).
pub trait Backend<V, E>: Sized + 'static {
    /// The fragments this backend computes over.
    fn fragments(&self) -> &[Arc<Fragment<V, E>>];

    /// Exclusive access to the fragments for in-place mutation; `None`
    /// while any `Arc` is shared (a run output still borrows them).
    fn fragments_mut(&mut self) -> Option<Vec<&mut Fragment<V, E>>>;

    /// Copy-on-write access to the fragments for in-place mutation
    /// *while a consistent cut shares them*: shared `Arc`s detach by
    /// cloning the fragment (the cut keeps the pre-apply bytes),
    /// exclusive ones borrow in place with no copy. Only callable when
    /// `V: Clone, E: Clone` holds, which delta application requires
    /// anyway.
    fn fragments_cow(&mut self) -> Vec<&mut Fragment<V, E>>
    where
        V: Clone,
        E: Clone;

    /// How many worker threads in-place delta application may use for
    /// the per-touched-fragment repacks (`apply_to_fragments_par`).
    /// Defaults to 1 (serial); the threaded engine reuses its configured
    /// worker count, the simulator stays deterministic-serial.
    fn apply_threads(&self) -> usize {
        1
    }

    /// Hand the backend a [`Tracer`] so its internal runs emit engine-
    /// level events (round/phase spans, message instants) alongside the
    /// session's own. Default: ignore — a backend without built-in
    /// instrumentation still serves sessions.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Cold evaluation retaining per-fragment states (`run_retained`).
    fn run_retained<P>(&self, prog: &P, q: &P::Query) -> (P::Out, RunStats, RunState<P::State>)
    where
        P: WarmStart<V, E>;

    /// Warm-start evaluation from retained state after a delta
    /// (`run_incremental`): round 0 is `warm_eval` through the remaps,
    /// seeds, and invalidated sets; `state` is refreshed in place.
    fn run_incremental<P>(
        &self,
        prog: &P,
        q: &P::Query,
        remaps: &[StateRemap],
        seeds: &[Vec<LocalId>],
        invalid: &[Vec<LocalId>],
        state: &mut RunState<P::State>,
    ) -> (P::Out, RunStats)
    where
        P: WarmStart<V, E>;
}

impl<V, E> Backend<V, E> for Engine<V, E>
where
    V: Send + Sync + 'static,
    E: Send + Sync + 'static,
{
    fn fragments(&self) -> &[Arc<Fragment<V, E>>] {
        Engine::fragments(self)
    }

    fn fragments_mut(&mut self) -> Option<Vec<&mut Fragment<V, E>>> {
        Engine::fragments_mut(self)
    }

    fn fragments_cow(&mut self) -> Vec<&mut Fragment<V, E>>
    where
        V: Clone,
        E: Clone,
    {
        Engine::fragments_cow(self)
    }

    fn apply_threads(&self) -> usize {
        self.opts().threads
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        Engine::set_tracer(self, tracer);
    }

    fn run_retained<P>(&self, prog: &P, q: &P::Query) -> (P::Out, RunStats, RunState<P::State>)
    where
        P: WarmStart<V, E>,
    {
        let (RunOutput { out, stats }, state) = Engine::run_retained(self, prog, q);
        (out, stats, state)
    }

    fn run_incremental<P>(
        &self,
        prog: &P,
        q: &P::Query,
        remaps: &[StateRemap],
        seeds: &[Vec<LocalId>],
        invalid: &[Vec<LocalId>],
        state: &mut RunState<P::State>,
    ) -> (P::Out, RunStats)
    where
        P: WarmStart<V, E>,
    {
        let RunOutput { out, stats } =
            Engine::run_incremental(self, prog, q, remaps, seeds, invalid, state);
        (out, stats)
    }
}
