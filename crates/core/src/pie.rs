//! The PIE programming model of GRAPE (§2), adopted unchanged by AAP.
//!
//! A graph computation is expressed as three *sequential* functions plus two
//! declarations:
//!
//! * [`PieProgram::peval`] — batch partial evaluation over one fragment;
//! * [`PieProgram::inceval`] — incremental evaluation given message-induced
//!   changes `Mi` to the update parameters;
//! * [`PieProgram::assemble`] — collect partial results into the answer;
//! * update parameters `Ci.x̄` — emitted through [`UpdateCtx::send`];
//! * the aggregate function `faggr` — [`PieProgram::combine`], used to
//!   resolve conflicting values for the same parameter, both inside message
//!   buffers and against local state.
//!
//! The engine (threaded or simulated) is generic over this trait; writing a
//! new algorithm means writing ordinary sequential code against a single
//! [`Fragment`], exactly the paper's pitch.

use crate::engine::PlanCache;
use crate::scratch::Scratch;
use aap_graph::mutate::{DeltaSummary, StateRemap};
use aap_graph::{FragId, Fragment, LocalId, VertexId};

/// Round identifier. `0` is the `PEval` round; `IncEval` rounds start at 1.
pub type Round = u32;

/// Collects the changed update parameters produced by one `PEval`/`IncEval`
/// invocation, before the engine routes them (§3 message passing).
#[derive(Debug)]
pub struct UpdateCtx<Val> {
    updates: Vec<(LocalId, Val)>,
    local_work: bool,
    effective: u64,
    redundant: u64,
    work: u64,
}

impl<Val> Default for UpdateCtx<Val> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Val> UpdateCtx<Val> {
    /// Fresh, empty context (engines create one per round).
    pub fn new() -> Self {
        Self::with_buffer(Vec::new())
    }

    /// Context reusing a (cleared) update vector — engines round-trip the
    /// vector through [`Scratch`] so steady-state rounds don't allocate it.
    pub fn with_buffer(mut buffer: Vec<(LocalId, Val)>) -> Self {
        buffer.clear();
        UpdateCtx { updates: buffer, local_work: false, effective: 0, redundant: 0, work: 0 }
    }

    /// Report that an incoming update improved a parameter (statistics for
    /// the stale-computation analysis of §7). Optional but recommended.
    #[inline]
    pub fn note_effective(&mut self, n: u64) {
        self.effective += n;
    }

    /// Report that an incoming update was redundant/stale — it did not
    /// improve the parameter it targeted.
    #[inline]
    pub fn note_redundant(&mut self, n: u64) {
        self.redundant += n;
    }

    /// `(effective, redundant)` counters reported so far.
    pub fn effect_counts(&self) -> (u64, u64) {
        (self.effective, self.redundant)
    }

    /// Charge `n` abstract work units (edges relaxed, residual pushes,
    /// vertices scanned ...). Drives the simulator's work-proportional
    /// cost model; the threaded engine measures real time and ignores it.
    #[inline]
    pub fn charge_work(&mut self, n: u64) {
        self.work += n;
    }

    /// Total work units charged this round.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Record that the status variable of local vertex `l` changed to `v`.
    /// The engine ships it to every fragment holding a copy of `l`
    /// (mirror -> owner, owner -> mirrors; see [`Fragment::route`]).
    #[inline]
    pub fn send(&mut self, l: LocalId, v: Val) {
        self.updates.push((l, v));
    }

    /// Number of updates recorded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True if no updates were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Declare that this worker still has *local* work pending even if no
    /// messages arrive (used by the vertex-centric adapter, whose supersteps
    /// exchange purely local messages between rounds, and by PageRank,
    /// which leaves residual pushed behind its sweep for the next round).
    /// The engine runs another round; under AAP that round waits with any
    /// partially accumulated batch (see [`crate::policy::delta`]).
    #[inline]
    pub fn request_local_round(&mut self) {
        self.local_work = true;
    }

    /// Consume the context, yielding the recorded updates and the
    /// local-work flag (engine use).
    pub fn take(self) -> (Vec<(LocalId, Val)>, bool) {
        (self.updates, self.local_work)
    }
}

/// The aggregated message set `Mi` delivered to one `IncEval` round: per
/// local vertex, the `faggr`-combination of all buffered values for it,
/// sorted by local id. Passed to `IncEval` as `&mut` so programs can
/// `drain(..)` it for by-value access while the engine recycles the
/// vector's capacity across rounds.
pub type Messages<Val> = Vec<(LocalId, Val)>;

/// A PIE program for a query class `Q` (the paper's `ρ = (PEval, IncEval,
/// Assemble)`).
///
/// `Val` is the domain of the update parameters. [`PieProgram::combine`]
/// must be associative and commutative; for the convergence guarantees of
/// §4 (conditions T1–T3) it should also be *contracting* with respect to
/// the program's partial order (e.g. `min`, or monotone accumulation like
/// `+` over positive deltas).
pub trait PieProgram<V, E>: Sync {
    /// The query type (e.g. the source vertex for SSSP).
    type Query: Clone + Sync;
    /// Update-parameter value type.
    type Val: Clone + Send + 'static;
    /// Per-fragment state (status variables and partial results).
    type State: Send + 'static;
    /// The assembled answer `Q(G)`.
    type Out;

    /// `faggr`: fold `b` into `a`; return `true` iff `a` changed. The
    /// "changed" bit feeds the redundant/stale-computation statistics.
    fn combine(&self, a: &mut Self::Val, b: Self::Val) -> bool;

    /// Partial evaluation over one fragment; returns the fragment state and
    /// emits the initial values of the update parameters.
    fn peval(
        &self,
        q: &Self::Query,
        frag: &Fragment<V, E>,
        ctx: &mut UpdateCtx<Self::Val>,
    ) -> Self::State;

    /// Incremental evaluation: apply the aggregated changes `msgs` to the
    /// local partial result, emitting further changed parameters.
    ///
    /// `msgs` is mutable so programs can consume values with
    /// `msgs.drain(..)`; the engine reclaims the vector's capacity either
    /// way.
    fn inceval(
        &self,
        q: &Self::Query,
        frag: &Fragment<V, E>,
        state: &mut Self::State,
        msgs: &mut Messages<Self::Val>,
        ctx: &mut UpdateCtx<Self::Val>,
    );

    /// Assemble the final answer from all partial results. `states[i]`
    /// corresponds to `frags[i]`.
    fn assemble(
        &self,
        q: &Self::Query,
        frags: &[std::sync::Arc<Fragment<V, E>>],
        states: Vec<Self::State>,
    ) -> Self::Out;

    /// Serialized size of one value, for communication accounting. The
    /// default covers fixed-size values; programs with heap-allocated values
    /// (e.g. factor vectors in CF) should override it.
    fn val_bytes(&self, _v: &Self::Val) -> usize {
        std::mem::size_of::<Self::Val>()
    }
}

/// How a delta batch will be evaluated from retained state — the
/// three-way strategy drivers (`aap-delta`) report in their output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStrategy {
    /// Monotone-decreasing batch (insertions, weight decreases): the warm
    /// round re-relaxes from the delta-affected seeds only. Exact for
    /// contracting `min`-style programs by monotonicity alone.
    WarmDecrease,
    /// Non-monotone batch (removals, weight increases) handled exactly by
    /// an *affected-region invalidation*: [`WarmStart::plan_invalidation`]
    /// names every vertex whose retained value may no longer be an upper
    /// bound; all of its copies are reset to the program's "unknown"
    /// baseline before the warm round re-derives them.
    WarmIncrease,
    /// The program cannot evaluate this batch from retained state; the
    /// driver re-runs a cold retained evaluation on the mutated graph.
    Cold,
}

impl WarmStrategy {
    /// True for both warm variants (no cold recompute).
    pub fn is_warm(&self) -> bool {
        !matches!(self, WarmStrategy::Cold)
    }

    /// Stable lowercase tag (`warm-decrease` / `warm-increase` / `cold`).
    pub fn name(&self) -> &'static str {
        match self {
            WarmStrategy::WarmDecrease => "warm-decrease",
            WarmStrategy::WarmIncrease => "warm-increase",
            WarmStrategy::Cold => "cold",
        }
    }
}

impl std::fmt::Display for WarmStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The non-monotone part of a delta batch, resolved against the
/// **pre-apply** graph — the input to [`WarmStart::plan_invalidation`].
/// Edges are logical (undirected ops name each edge once); weight
/// updates are pre-classified by direction so programs see only the ones
/// that can raise values.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaChanges<'a> {
    /// Logical edges removed by the batch.
    pub removed_edges: &'a [(VertexId, VertexId)],
    /// Vertices isolated by the batch (every incident edge dies; the
    /// dense id survives).
    pub removed_vertices: &'a [VertexId],
    /// Weight updates that *increase* a stored weight (or are
    /// incomparable under `PartialOrd`). Pure decreases are monotone and
    /// excluded.
    pub increased_edges: &'a [(VertexId, VertexId)],
}

/// Warm-start extension of [`PieProgram`] for **dynamic graphs**: programs
/// implementing this trait can resume from retained per-fragment state
/// after a batch of graph mutations, instead of re-running `PEval` cold.
///
/// The engine's `run_incremental` replaces round 0 with
/// [`WarmStart::warm_eval`]: the retained state is migrated across the
/// mutation via the fragment's [`StateRemap`] and re-evaluated from the
/// delta-affected `seeds` only — the §2 promise that `IncEval` reacts to
/// *changes to the graph*, realised batch-style. Untouched fragments get
/// an identity remap, empty seeds and an empty invalidated set, and
/// should return their state unchanged without emitting messages.
///
/// Exactness contract, by [`WarmStart::delta_strategy`]:
///
/// * [`WarmStrategy::WarmDecrease`] — the warm fixpoint must equal the
///   cold fixpoint on the mutated graph by monotonicity alone (the batch
///   can only shrink values).
/// * [`WarmStrategy::WarmIncrease`] — the program pairs the warm round
///   with [`WarmStart::plan_invalidation`]: every vertex whose retained
///   value may exceed validity is reset (all copies, every fragment) and
///   re-derived, Ramalingam–Reps style. The warm fixpoint from the
///   invalidated state must equal the cold fixpoint.
/// * [`WarmStrategy::Cold`] — drivers (see `aap-delta`) re-run a cold
///   retained evaluation instead.
pub trait WarmStart<V, E>: PieProgram<V, E> {
    /// Migrate `prior` across the mutation described by `remap`, discard
    /// the retained values of the `invalid` vertices (new id space; empty
    /// unless the delta ran [`WarmStrategy::WarmIncrease`]), and
    /// re-evaluate from the `seeds` (delta-affected local vertices, in
    /// the **new** id space), emitting changed parameters. Seed border
    /// vertices should re-announce their current value even when
    /// unchanged — a peer may have gained a fresh, uninitialised copy.
    #[allow(clippy::too_many_arguments)]
    fn warm_eval(
        &self,
        q: &Self::Query,
        frag: &Fragment<V, E>,
        prior: Self::State,
        remap: &StateRemap,
        seeds: &[LocalId],
        invalid: &[LocalId],
        ctx: &mut UpdateCtx<Self::Val>,
    ) -> Self::State;

    /// Assemble from borrowed states, so retained runs can keep them for
    /// the next delta.
    fn assemble_ref(
        &self,
        q: &Self::Query,
        frags: &[std::sync::Arc<Fragment<V, E>>],
        states: &[Self::State],
    ) -> Self::Out;

    /// How a delta of this shape is evaluated from retained state. The
    /// default handles monotone-decreasing batches warm and rejects the
    /// rest — right for `min`-aggregated contracting programs without an
    /// invalidation plan. Programs overriding this to return
    /// [`WarmStrategy::WarmIncrease`] must implement
    /// [`WarmStart::plan_invalidation`].
    fn delta_strategy(&self, summary: &DeltaSummary) -> WarmStrategy {
        if summary.is_monotone_decreasing() {
            WarmStrategy::WarmDecrease
        } else {
            WarmStrategy::Cold
        }
    }

    /// The affected-region pass backing [`WarmStrategy::WarmIncrease`]:
    /// given the **pre-apply** fragments, the retained states (old local
    /// id space) and the batch's non-monotone changes, return — per
    /// fragment, in **old** local ids — every local copy whose retained
    /// value must be discarded before the warm round. Drivers map the
    /// sets through the apply's [`StateRemap`]s and hand them to
    /// [`WarmStart::warm_eval`] as `invalid`.
    ///
    /// `cache` is the retained state's [`PlanCache`]: programs whose
    /// plan starts from a global owner-value gather (SSSP, CC) read it
    /// from the cache when a previous round's
    /// [`WarmStart::refresh_plan_cache`] left it there, skipping the
    /// per-batch `O(n)` sweep on tiny deletion batches.
    ///
    /// Soundness contract: the sets must cover, at **every** fragment
    /// holding a copy, every vertex whose exact value on the mutated
    /// graph could be *worse* than its retained value (larger distance,
    /// higher component id, ...). Over-approximation costs recompute,
    /// never exactness.
    fn plan_invalidation(
        &self,
        _q: &Self::Query,
        frags: &[&Fragment<V, E>],
        _states: &[Self::State],
        _changes: &DeltaChanges<'_>,
        _cache: &mut PlanCache,
    ) -> Vec<Vec<LocalId>> {
        frags.iter().map(|_| Vec::new()).collect()
    }

    /// Refresh the retained state's [`PlanCache`] from a completed run's
    /// assembled output. Drivers call this after every retained run
    /// (warm or cold) — state writes cleared the cache, and for programs
    /// whose `Assemble` already *is* the owner-value gather their
    /// [`WarmStart::plan_invalidation`] needs, re-caching the output is
    /// a flat copy instead of the per-fragment sweep. The default caches
    /// nothing (programs without an invalidation plan need no gather).
    fn refresh_plan_cache(&self, _out: &Self::Out, _cache: &mut PlanCache) {}
}

/// One message batch `M(i, j)`: the changed parameters a worker ships to a
/// peer at the end of one round (§3, "designated messages").
///
/// Updates are addressed in the **receiver's** local id space, resolved at
/// partition time through [`aap_graph::RoutingTable`] — the receiver's
/// drain indexes straight into dense arrays without a `g2l` lookup. Pairs
/// are sorted by local id and carry at most one value per vertex (the
/// sender pre-combines with `faggr`).
#[derive(Debug, Clone)]
pub struct Batch<Val> {
    /// Sending fragment.
    pub src: FragId,
    /// The round at the sender that produced these values.
    pub round: Round,
    /// `(receiver-local vertex, value)` pairs, sorted, deduplicated.
    pub updates: Vec<(LocalId, Val)>,
}

/// Route one round's update set into per-destination batches, appended to
/// `out` as `(destination fragment, batch)` pairs sorted by destination.
///
/// This is the zero-hash fast path: a stamp-based dedup pass combines
/// repeated updates to the same vertex with `faggr` in place, then the
/// fragment's [`aap_graph::RoutingTable`] fans each unique update out to
/// dense per-destination buffers in the receiver's id space. With a warm
/// [`Scratch`] the whole routine performs no heap allocation.
///
/// `updates` is drained (left empty, capacity kept) so engines can recycle
/// it as the next round's `UpdateCtx` buffer.
pub fn route_updates_into<V, E, P: PieProgram<V, E> + ?Sized>(
    prog: &P,
    frag: &Fragment<V, E>,
    round: Round,
    updates: &mut Vec<(LocalId, P::Val)>,
    scratch: &mut Scratch<P::Val>,
    out: &mut Vec<(FragId, Batch<P::Val>)>,
) {
    scratch.ensure(frag);
    let routing = frag.routing();

    // Pass 1: stamp-dedup into `scratch.uniq`, combining duplicates with
    // `faggr` in place. Interior vertices (no fan-out) are skipped before
    // they cost a stamp write.
    scratch.next_epoch();
    scratch.uniq.clear();
    for (l, v) in updates.drain(..) {
        if routing.fanout_len(l) == 0 {
            continue;
        }
        let idx = scratch.uniq.len() as u32;
        match scratch.touch(l, idx) {
            Some(prev) => {
                prog.combine(&mut scratch.uniq[prev as usize].1, v);
            }
            None => {
                if scratch.uniq.len() == scratch.uniq.capacity() {
                    scratch.grow_events += 1;
                }
                scratch.uniq.push((l, v));
            }
        }
    }

    // Pass 2: fan out to dense per-destination buffers, moving the value
    // into the last (usually only) destination instead of cloning it.
    let mut uniq = std::mem::take(&mut scratch.uniq);
    for (l, v) in uniq.drain(..) {
        let (slots, remotes) = routing.fanout(l);
        if let ([slot], [remote]) = (slots, remotes) {
            // Single destination — the edge-cut mirror->owner hop that
            // dominates real traffic; no clone, no iterator setup.
            push_update(&mut scratch.bufs[*slot as usize], &mut scratch.grow_events, *remote, v);
            continue;
        }
        let (&last_slot, rest_slots) = slots.split_last().expect("fanout checked non-empty");
        let (&last_remote, rest_remotes) = remotes.split_last().expect("parallel slices");
        for (&slot, &remote) in rest_slots.iter().zip(rest_remotes) {
            let v = v.clone();
            push_update(&mut scratch.bufs[slot as usize], &mut scratch.grow_events, remote, v);
        }
        push_update(
            &mut scratch.bufs[last_slot as usize],
            &mut scratch.grow_events,
            last_remote,
            v,
        );
    }
    scratch.uniq = uniq;

    // Pass 3: emit non-empty buffers as batches. `dests` is sorted, so the
    // output order is deterministic without a final sort.
    let out_start = out.len();
    for (slot, dst) in routing.dests().iter().enumerate() {
        if scratch.bufs[slot].is_empty() {
            continue;
        }
        scratch.bufs[slot].sort_unstable_by_key(|&(l, _)| l);
        let replacement = scratch.take_vec();
        let body = std::mem::replace(&mut scratch.bufs[slot], replacement);
        if out.len() == out.capacity() {
            scratch.grow_events += 1;
        }
        out.push((*dst, Batch { src: frag.id(), round, updates: body }));
    }
    scratch.out_hint = scratch.out_hint.max(out.len() - out_start);
}

#[inline]
fn push_update<Val>(buf: &mut Vec<(LocalId, Val)>, grow_events: &mut u64, remote: LocalId, v: Val) {
    if buf.len() == buf.capacity() {
        *grow_events += 1;
    }
    buf.push((remote, v));
}

/// Convenience wrapper over [`route_updates_into`] allocating fresh
/// buffers — fine for tests and one-shot calls; engines use the `_into`
/// form with a per-worker [`Scratch`].
pub fn route_updates<V, E, P: PieProgram<V, E> + ?Sized>(
    prog: &P,
    frag: &Fragment<V, E>,
    round: Round,
    mut updates: Vec<(LocalId, P::Val)>,
) -> Vec<(FragId, Batch<P::Val>)> {
    let mut scratch = Scratch::default();
    let mut out = Vec::new();
    route_updates_into(prog, frag, round, &mut updates, &mut scratch, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aap_graph::partition::build_fragments;
    use aap_graph::GraphBuilder;
    use std::sync::Arc;

    /// Minimal min-propagation program for testing the plumbing.
    struct MinProg;

    impl PieProgram<(), u32> for MinProg {
        type Query = ();
        type Val = u64;
        type State = ();
        type Out = ();

        fn combine(&self, a: &mut u64, b: u64) -> bool {
            if b < *a {
                *a = b;
                true
            } else {
                false
            }
        }

        fn peval(&self, _: &(), _: &Fragment<(), u32>, _: &mut UpdateCtx<u64>) {}

        fn inceval(
            &self,
            _: &(),
            _: &Fragment<(), u32>,
            _: &mut (),
            _: &mut Messages<u64>,
            _: &mut UpdateCtx<u64>,
        ) {
        }

        fn assemble(&self, _: &(), _: &[Arc<Fragment<(), u32>>], _: Vec<()>) {}
    }

    #[test]
    fn route_combines_duplicates_and_targets_owner() {
        // path 0-1-2-3 split {0,1} | {2,3}; fragment 0 has a mirror of 2.
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1u32);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let frags = build_fragments(&g, &[0, 0, 1, 1]);
        let f0 = &frags[0];
        let m = f0.local(2).unwrap();
        let batches = route_updates(&MinProg, f0, 3, vec![(m, 9u64), (m, 4), (m, 7)]);
        assert_eq!(batches.len(), 1);
        let (dst, b0) = &batches[0];
        assert_eq!(*dst, 1);
        assert_eq!(b0.src, 0);
        assert_eq!(b0.round, 3);
        // Updates arrive pre-translated into fragment 1's local id space.
        let at_dest = frags[1].local(2).unwrap();
        assert_eq!(b0.updates, vec![(at_dest, 4u64)]);
    }

    #[test]
    fn route_owned_border_to_mirror_holders() {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1u32);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let frags = build_fragments(&g, &[0, 0, 1, 1]);
        let f0 = &frags[0];
        let border = f0.local(1).unwrap();
        let batches = route_updates(&MinProg, f0, 1, vec![(border, 1u64)]);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].0, 1);
        let at_dest = frags[1].local(1).unwrap();
        assert_eq!(batches[0].1.updates, vec![(at_dest, 1u64)]);
    }

    #[test]
    fn interior_updates_route_nowhere() {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1u32);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let frags = build_fragments(&g, &[0, 0, 1, 1]);
        let f0 = &frags[0];
        let interior = f0.local(0).unwrap();
        let batches = route_updates(&MinProg, f0, 1, vec![(interior, 1u64)]);
        assert!(batches.is_empty());
    }
}
