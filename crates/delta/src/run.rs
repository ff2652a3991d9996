//! Warm-start drivers: apply a delta to an engine's fragments, then run
//! incrementally, picking the per-batch evaluation strategy.
//!
//! Three strategies ([`WarmStrategy`], chosen by
//! [`WarmStart::delta_strategy`] from the batch's resolved shape):
//!
//! * **`warm-decrease`** — monotone-decreasing batch (insertions, weight
//!   decreases): round 0 is `warm_eval` from the delta-affected seeds;
//!   exact by monotonicity.
//! * **`warm-increase`** — removals / weight increases handled by an
//!   *affected-region invalidation*: before the apply the driver asks
//!   [`WarmStart::plan_invalidation`] (on the pre-apply fragments and
//!   retained states) which vertices' retained values may no longer be
//!   upper bounds; their copies are reset during the warm round and
//!   re-derived from the region's frontier. SSSP and CC implement this
//!   (Ramalingam–Reps affected region / spanning-forest splits), so
//!   deletion batches **no longer cold-fall-back** for them.
//! * **`cold`** — the program declares the batch unsupported; the driver
//!   re-runs a cold retained evaluation on the mutated fragments.
//!
//! Every driver returns what it *did* alongside the run result: the
//! [`Applied`] record of the batch (its summary with weight-change
//! directions resolved against the graph, per-fragment remaps, and
//! warm-start seeds) and the [`WarmStrategy`] that ran — previously all
//! of this was computed and discarded internally. A built [`GraphDelta`]
//! is already deduplicated and is applied verbatim, so callers keeping
//! a durable history (the `aap-snapshot` delta log) log the delta they
//! passed in and keep the returned record as the account of how it
//! resolved.

use crate::apply::{apply_to_fragments_par, Applied};
use crate::ops::GraphDelta;
use aap_core::engine::RunState;
use aap_core::pie::{DeltaChanges, WarmStart, WarmStrategy};
use aap_core::{Backend, RunStats};
use aap_graph::mutate::{stored_directed, weight_change, DeltaSummary, EditBuffers, WeightChange};
use aap_graph::{Fragment, LocalId, VertexId};
use aap_trace::{cat, pid, Args, Tracer};

/// Result of one incremental driver call: the assembled answer and run
/// statistics, plus the delta that was actually applied and which
/// evaluation strategy ran. On the simulator, `stats.makespan` is in
/// virtual time units.
#[derive(Debug)]
pub struct IncrementalOutput<Out> {
    /// The assembled answer `ρ(Q, G ⊕ delta)`.
    pub out: Out,
    /// Statistics collected during the run.
    pub stats: RunStats,
    /// What the delta application did to the fragments: resolved
    /// summary, per-fragment state remaps, and warm-start seeds.
    pub applied: Applied,
    /// Which evaluation strategy the batch ran
    /// (`warm-decrease | warm-increase | cold`).
    pub strategy: WarmStrategy,
}

/// Everything the strategy decision needs, resolved **pre-apply**: the
/// batch summary with weight directions filled in against the current
/// fragments, and the weight-update keys that increase a stored weight.
struct Resolved {
    summary: DeltaSummary,
    increased: Vec<(VertexId, VertexId)>,
}

/// Classify the batch's weight updates against the stored weights —
/// [`weight_change`], the same classifier `apply_to_fragments_par` uses,
/// run before the apply destroys the old values. A logical update
/// counts as an increase if *any* stored copy would grow (or is
/// incomparable under `PartialOrd`).
fn resolve<V, E>(frags: &[&Fragment<V, E>], delta: &GraphDelta<V, E>) -> Resolved
where
    E: PartialOrd,
{
    let directed = stored_directed(frags);
    let mut summary = delta.summary();
    let mut increased = Vec::new();
    for (u, v, w_new) in delta.weight_updates() {
        let mut inc = false;
        let stored: &[(VertexId, VertexId)] =
            if directed { &[(*u, *v)] } else { &[(*u, *v), (*v, *u)] };
        for &(a, b) in stored {
            for f in frags {
                let Some(la) = f.local(a) else { continue };
                for (t, w_old) in f.edges(la) {
                    if f.global(t) != b {
                        continue;
                    }
                    match weight_change(w_new, w_old) {
                        WeightChange::Decreased => summary.weights_decreased += 1,
                        WeightChange::Unchanged => {}
                        WeightChange::Increased => {
                            summary.weights_increased += 1;
                            inc = true;
                        }
                    }
                }
            }
        }
        if inc {
            increased.push((*u, *v));
        }
    }
    Resolved { summary, increased }
}

/// The pre-apply half of one batch for one program, from
/// [`plan_incremental`]: the strategy `delta_strategy` chose and, for
/// `warm-increase`, the invalidated sets in **old** local ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalPlan {
    /// Which evaluation strategy the batch runs.
    pub strategy: WarmStrategy,
    /// Per-fragment invalidated locals, pre-apply ids; empty sets unless
    /// `strategy` is `warm-increase`.
    pub invalid_old: Vec<Vec<LocalId>>,
}

/// Pick the strategy and, for `warm-increase`, the per-fragment
/// invalidated sets (**old** local ids) — everything that must happen
/// while the **pre-apply** fragments and states are still observable.
/// This is the first half of what [`run_incremental`] does per batch;
/// it is public so harnesses (the `dynamic` bench, the session's
/// multi-program apply) can stage the sequence themselves without
/// re-implementing the weight-direction resolution. Pair it with
/// [`advance`] (or [`remap_invalid`]) after the apply.
///
/// An enabled `tracer` receives the chosen strategy as a `strategy`
/// instant (with the resolved batch shape as args) and, for
/// `warm-increase` batches, a `plan_invalidation` span around the
/// program's affected-region planning — both on the delta track.
pub fn plan_incremental<V, E, P>(
    frags: &[&Fragment<V, E>],
    prog: &P,
    q: &P::Query,
    delta: &GraphDelta<V, E>,
    state: &mut RunState<P::State>,
    tracer: &Tracer,
) -> IncrementalPlan
where
    E: PartialOrd,
    P: WarmStart<V, E>,
{
    let traced = tracer.enabled();
    let resolved = resolve(frags, delta);
    let strategy = prog.delta_strategy(&resolved.summary);
    if traced {
        tracer.instant(
            pid::DELTA,
            0,
            cat::STRATEGY,
            "strategy",
            Args::new()
                .with("chosen", strategy.name())
                .with("edges_added", resolved.summary.edges_added)
                .with("edges_removed", resolved.summary.edges_removed)
                .with("weights_increased", resolved.summary.weights_increased),
        );
    }
    let invalid_old = if strategy == WarmStrategy::WarmIncrease {
        let changes = DeltaChanges {
            removed_edges: delta.edges_removed(),
            removed_vertices: delta.vertices_removed(),
            increased_edges: &resolved.increased,
        };
        if traced {
            tracer.begin(pid::DELTA, 0, cat::STRATEGY, "plan_invalidation", Args::new());
        }
        // States read-only, plan cache writable: the program serves its
        // global owner-value gather from the cache when the previous
        // run's `refresh_plan_cache` filled it.
        let (states, cache) = state.states_and_plan_cache();
        let planned = prog.plan_invalidation(q, frags, states, &changes, cache);
        if traced {
            let invalid: usize = planned.iter().map(Vec::len).sum();
            tracer.end(
                pid::DELTA,
                0,
                cat::STRATEGY,
                "plan_invalidation",
                Args::new().with("invalidated", invalid),
            );
        }
        planned
    } else {
        frags.iter().map(|_| Vec::new()).collect()
    };
    IncrementalPlan { strategy, invalid_old }
}

/// Migrate the planned invalidated sets into the post-apply local id
/// space (dropped copies vanish; fresh copies start uninitialised and
/// need no explicit invalidation) — the second half of
/// [`plan_incremental`], once the apply's [`Applied::remaps`] exist.
pub fn remap_invalid(invalid_old: Vec<Vec<LocalId>>, applied: &Applied) -> Vec<Vec<LocalId>> {
    invalid_old
        .into_iter()
        .zip(&applied.remaps)
        .map(|(set, remap)| {
            let mut v: Vec<LocalId> = set.into_iter().filter_map(|l| remap.map(l)).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// The post-apply half of one batch for one program: evaluate `q` warm
/// from the retained `state` through the apply's remaps and seeds, with
/// the plan's invalidated sets moved into the new local ids
/// ([`remap_invalid`]); or, when the plan chose `cold`, re-run a cold
/// retained evaluation and replace `state`. Either way the run's state
/// write invalidated the plan cache, so it is re-seeded from the
/// assembled output and the next batch's [`plan_incremental`] can skip
/// its gather. [`run_incremental`] and the session's per-program
/// advance both end here.
pub fn advance<V, E, P, B>(
    backend: &B,
    prog: &P,
    q: &P::Query,
    plan: IncrementalPlan,
    applied: &Applied,
    state: &mut RunState<P::State>,
) -> (P::Out, RunStats)
where
    P: WarmStart<V, E>,
    B: Backend<V, E>,
{
    let (out, stats) = if plan.strategy.is_warm() {
        let invalid = remap_invalid(plan.invalid_old, applied);
        backend.run_incremental(prog, q, &applied.remaps, &applied.seeds, &invalid, state)
    } else {
        let (out, stats, fresh) = backend.run_retained(prog, q);
        *state = fresh;
        (out, stats)
    };
    prog.refresh_plan_cache(&out, state.plan_cache_mut());
    (out, stats)
}

/// Apply `delta` to the backend's fragments in place, then evaluate `q`
/// incrementally from the retained `state` — on the threaded
/// [`aap_core::Engine`] or, in virtual time, on `aap_sim::SimEngine`
/// (whose cost model then prices the delta rounds too, including the
/// invalidation round of a `warm-increase` batch).
///
/// The strategy is chosen per batch (see the module docs): monotone
/// batches and — for programs with an invalidation plan, like SSSP and
/// CC — removal/weight-increase batches run warm; only batches the
/// program rejects re-run a cold retained evaluation. One call either
/// way, with `state` refreshed for the next delta.
///
/// The query must be the one the retained state was computed for.
///
/// # Panics
/// Panics if the backend's fragments are still shared by a previous run
/// output (drop it first), or if `state` does not match the fragment
/// count.
pub fn run_incremental<V, E, P, B>(
    backend: &mut B,
    prog: &P,
    q: &P::Query,
    delta: &GraphDelta<V, E>,
    state: &mut RunState<P::State>,
) -> IncrementalOutput<P::Out>
where
    V: Clone + Send + Sync,
    E: Clone + PartialOrd + Send + Sync,
    P: WarmStart<V, E>,
    B: Backend<V, E>,
{
    run_incremental_with(backend, prog, q, delta, state, &mut EditBuffers::default())
}

/// [`run_incremental`] with caller-owned pooled apply buffers, for
/// streaming many batches: [`plan_incremental`], then
/// [`apply_to_fragments_par`] on the backend's
/// [`apply_threads`](Backend::apply_threads), then [`advance`]. A tracer
/// in `bufs` receives the planning and apply events.
pub fn run_incremental_with<V, E, P, B>(
    backend: &mut B,
    prog: &P,
    q: &P::Query,
    delta: &GraphDelta<V, E>,
    state: &mut RunState<P::State>,
    bufs: &mut EditBuffers,
) -> IncrementalOutput<P::Out>
where
    V: Clone + Send + Sync,
    E: Clone + PartialOrd + Send + Sync,
    P: WarmStart<V, E>,
    B: Backend<V, E>,
{
    let plan = {
        let view: Vec<&Fragment<V, E>> = backend.fragments().iter().map(|a| &**a).collect();
        plan_incremental(&view, prog, q, delta, state, bufs.tracer())
    };
    let strategy = plan.strategy;
    let threads = backend.apply_threads();
    let applied = {
        let mut frags = backend
            .fragments_mut()
            .expect("backend fragments are shared; drop previous run outputs first");
        apply_to_fragments_par(&mut frags, delta, bufs, threads)
    };
    let (out, stats) = advance(backend, prog, q, plan, &applied, state);
    IncrementalOutput { out, stats, applied, strategy }
}

/// Replay a sequence of deltas through [`run_incremental`] — the
/// restart half of a durable snapshot: `load → attach → replay(log)`
/// lands in exactly the state a continuous process would hold. Returns
/// the output of the **last** delta round (`None` for an empty
/// sequence; `state` is current either way).
pub fn replay<'a, V, E, P, B, I>(
    backend: &mut B,
    prog: &P,
    q: &P::Query,
    deltas: I,
    state: &mut RunState<P::State>,
) -> Option<IncrementalOutput<P::Out>>
where
    V: Clone + Send + Sync + 'a,
    E: Clone + PartialOrd + Send + Sync + 'a,
    P: WarmStart<V, E>,
    B: Backend<V, E>,
    I: IntoIterator<Item = &'a GraphDelta<V, E>>,
{
    let mut bufs = EditBuffers::default();
    let mut last = None;
    for delta in deltas {
        last = Some(run_incremental_with(backend, prog, q, delta, state, &mut bufs));
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeltaBuilder;
    use aap_algos::Sssp;
    use aap_core::{Engine, EngineOpts, Mode};
    use aap_graph::generate;
    use aap_graph::partition::{build_fragments_n, hash_partition};

    /// A stream of tiny deletion batches plans from the cached
    /// owner-value gather: the first plan misses (nothing refreshed the
    /// fresh state's cache yet), every later one hits because the
    /// driver re-seeds the cache from each run's assembled output —
    /// and the cached plan stays exact against a cold run.
    #[test]
    fn deletion_stream_plans_from_the_cache() {
        let g = generate::small_world(300, 2, 0.1, 11);
        let mut engine = Engine::new(
            build_fragments_n(&g, &hash_partition(&g, 4), 4),
            EngineOpts { threads: 2, mode: Mode::aap(), max_rounds: Some(100_000) },
        );
        let (_, mut state) = engine.run_retained(&Sssp, &0);
        let mut cur = g.clone();
        for i in 0..4u32 {
            let u = (i * 37 + 5) % cur.num_vertices() as u32;
            let t = *cur.neighbors(u).first().expect("small-world degree >= 2");
            let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
            b.remove_edge(u, t);
            let delta = b.build();
            let r = run_incremental(&mut engine, &Sssp, &0, &delta, &mut state);
            assert_eq!(r.strategy, WarmStrategy::WarmIncrease, "batch {i}");
            cur = crate::apply_to_graph(&cur, &delta);
            assert_eq!(r.out, engine.run(&Sssp, &0).out, "batch {i} stays exact");
        }
        let c = state.plan_cache();
        assert!(c.hits() >= 3, "later plans must be served from the cache: {c:?}");
        assert!(c.misses() <= 1, "only the first plan may rebuild the gather: {c:?}");
    }
}
