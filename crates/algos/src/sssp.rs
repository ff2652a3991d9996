//! Single-source shortest paths (SSSP) as a PIE program (§5.1).
//!
//! `PEval` is Dijkstra's algorithm over the local fragment; `IncEval` is the
//! incremental shortest-path algorithm of Ramalingam–Reps specialised to
//! monotonically decreasing distances: message-induced improvements seed a
//! multi-source Dijkstra, so the cost is a function of the changed region
//! (`|Mi| + |ΔOi|`), not of `|Fi|` — the *bounded incremental* property the
//! paper leans on.
//!
//! Status variable: `xv = dist(s, v)`, initially `∞`; candidate set
//! `Ci = Fi.O`; `faggr = min` (§5.1). T1–T3 hold (finite weighted-path
//! lengths, `min` contraction, monotone relaxation), so all asynchronous
//! runs converge to the true distances (Theorem 2).

use crate::common::{dijkstra_from_seeds, gather_owned, owner_values, INF};
use aap_core::pie::{DeltaChanges, Messages, PieProgram, UpdateCtx, WarmStart, WarmStrategy};
use aap_core::PlanCache;
use aap_graph::mutate::{stored_directed, DeltaSummary, StateRemap};
use aap_graph::{Fragment, LocalId, VertexId};
use std::sync::Arc;

/// The SSSP PIE program over graphs with `u32` edge weights.
/// Query = source vertex.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sssp;

/// Per-fragment SSSP state: current distance per local vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsspState {
    /// `dist[l]` = best known distance from the source to local vertex `l`.
    pub dist: Vec<u64>,
}

impl<V: Sync + Send> PieProgram<V, u32> for Sssp {
    type Query = VertexId;
    type Val = u64;
    type State = SsspState;
    type Out = Vec<u64>;

    fn combine(&self, a: &mut u64, b: u64) -> bool {
        if b < *a {
            *a = b;
            true
        } else {
            false
        }
    }

    fn peval(
        &self,
        src: &VertexId,
        frag: &Fragment<V, u32>,
        ctx: &mut UpdateCtx<u64>,
    ) -> SsspState {
        let mut dist = vec![INF; frag.local_count()];
        let mut emitted = Vec::new();
        if let Some(l) = frag.local(*src) {
            dist[l as usize] = 0;
            let work = dijkstra_from_seeds(frag, &mut dist, &[l], |&w| w as u64, &mut emitted);
            ctx.charge_work(work);
        }
        for l in emitted {
            ctx.send(l, dist[l as usize]);
        }
        SsspState { dist }
    }

    fn inceval(
        &self,
        _src: &VertexId,
        frag: &Fragment<V, u32>,
        state: &mut SsspState,
        msgs: &mut Messages<u64>,
        ctx: &mut UpdateCtx<u64>,
    ) {
        let mut seeds: Vec<LocalId> = Vec::with_capacity(msgs.len());
        for (l, d) in msgs.drain(..) {
            if d < state.dist[l as usize] {
                state.dist[l as usize] = d;
                seeds.push(l);
                ctx.note_effective(1);
            } else {
                ctx.note_redundant(1);
            }
        }
        if seeds.is_empty() {
            return;
        }
        let mut emitted = Vec::new();
        let work = dijkstra_from_seeds(frag, &mut state.dist, &seeds, |&w| w as u64, &mut emitted);
        ctx.charge_work(work);
        for l in emitted {
            ctx.send(l, state.dist[l as usize]);
        }
    }

    fn assemble(
        &self,
        _src: &VertexId,
        frags: &[Arc<Fragment<V, u32>>],
        states: Vec<SsspState>,
    ) -> Vec<u64> {
        gather_owned(frags, &states, INF, |s, _, l| s.dist[l as usize])
    }
}

/// Warm-start incremental SSSP — the dynamic-graph variant.
///
/// Retained distances are migrated across the delta (fresh locals start
/// at `∞`) and relaxed from the delta-affected seeds with the same
/// bounded multi-source Dijkstra `IncEval` uses, so the warm round costs
/// a function of the changed region, not of `|Fi|`.
///
/// * Monotone-decreasing deltas (edge/vertex insertions, weight
///   decreases) are exact by monotonicity alone
///   ([`WarmStrategy::WarmDecrease`]).
/// * Deletions and weight increases can *raise* true distances, which
///   `min`-aggregation can never undo from stale values — so they run
///   [`WarmStrategy::WarmIncrease`]: [`Sssp::plan_invalidation`]
///   computes the Ramalingam–Reps affected region (every vertex some
///   old shortest path of which crossed a deleted/increased edge), all
///   of its copies are reset to `∞`, and the warm round re-relaxes the
///   region from its intact frontier. After the reset every retained
///   value is again a valid upper bound on the new distances, so the
///   asynchronous `min` fixpoint is exact — no cold fallback remains.
impl<V: Sync + Send> WarmStart<V, u32> for Sssp {
    fn warm_eval(
        &self,
        src: &VertexId,
        frag: &Fragment<V, u32>,
        prior: SsspState,
        remap: &StateRemap,
        seeds: &[LocalId],
        invalid: &[LocalId],
        ctx: &mut UpdateCtx<u64>,
    ) -> SsspState {
        let mut dist = remap.map_vec(prior.dist, INF);
        debug_assert_eq!(dist.len(), frag.local_count());
        let mut seedv: Vec<LocalId> = seeds.to_vec();
        if !invalid.is_empty() {
            // Affected-region reset: discard the invalidated values, then
            // seed re-relaxation from the region's *frontier* — every
            // surviving local vertex with an edge into the region (its
            // value is still a valid upper bound, and one of them carries
            // the region's new entry point). One linear edge scan; charged
            // as the invalidation round's work.
            let mut in_region = vec![false; frag.local_count()];
            for &l in invalid {
                dist[l as usize] = INF;
                in_region[l as usize] = true;
            }
            for u in frag.local_vertices() {
                if dist[u as usize] == INF || in_region[u as usize] {
                    continue;
                }
                if frag.neighbors(u).iter().any(|&t| in_region[t as usize]) {
                    seedv.push(u);
                }
            }
            ctx.charge_work(frag.edge_count() as u64 + invalid.len() as u64);
        }
        // The source may itself be a freshly added (or invalidated) vertex.
        if let Some(l) = frag.local(*src) {
            if dist[l as usize] != 0 {
                dist[l as usize] = 0;
                seedv.push(l);
            }
        }
        if seedv.is_empty() {
            return SsspState { dist };
        }
        let mut emitted = Vec::new();
        let work = dijkstra_from_seeds(frag, &mut dist, &seedv, |&w| w as u64, &mut emitted);
        ctx.charge_work(work + seedv.len() as u64);
        // The kernel reports every emitting seed copy even when its value
        // did not change, which is what a warm round needs: a peer may
        // hold a brand-new, uninitialised copy of a seed. A copy still at
        // `∞` (a fresh mirror, an unreachable region) carries no
        // information and is never shipped.
        for l in emitted {
            if dist[l as usize] != INF {
                ctx.send(l, dist[l as usize]);
            }
        }
        SsspState { dist }
    }

    fn assemble_ref(
        &self,
        _src: &VertexId,
        frags: &[Arc<Fragment<V, u32>>],
        states: &[SsspState],
    ) -> Vec<u64> {
        gather_owned(frags, states, INF, |s, _, l| s.dist[l as usize])
    }

    fn delta_strategy(&self, summary: &DeltaSummary) -> WarmStrategy {
        if summary.is_monotone_decreasing() {
            WarmStrategy::WarmDecrease
        } else {
            WarmStrategy::WarmIncrease
        }
    }

    /// The assembled output *is* the global owner-distance gather the
    /// plan starts from, so cache it: the next deletion batch's
    /// [`Sssp::plan_invalidation`] reads a flat copy instead of
    /// re-sweeping every fragment.
    fn refresh_plan_cache(&self, out: &Vec<u64>, cache: &mut PlanCache) {
        cache.put::<Vec<u64>>(out.clone());
    }

    /// The affected region of a non-monotone batch, Ramalingam–Reps
    /// style: start from the heads of deleted/increased edges that were
    /// *tight* under the old distances (`dist[u] + w == dist[v]` — the
    /// head's value actually used the edge) and from removed vertices,
    /// then close over old tight edges (the shortest-path DAG). Every
    /// vertex outside the closure keeps a tight path that avoids all
    /// deleted/increased edges, so its old distance is still achievable
    /// — a valid upper bound. Over-approximation (a head with an equal
    /// alternate path) costs recompute, never exactness.
    ///
    /// The global owner-distance gather is served from `cache` when the
    /// previous run refreshed it ([`Sssp::refresh_plan_cache`]); the
    /// vertex-count probe rejects a cache whose shape no longer matches
    /// the fragments, falling back to the `O(n)` sweep.
    fn plan_invalidation(
        &self,
        _src: &VertexId,
        frags: &[&Fragment<V, u32>],
        states: &[SsspState],
        changes: &DeltaChanges<'_>,
        cache: &mut PlanCache,
    ) -> Vec<Vec<LocalId>> {
        let expected: usize = frags.iter().map(|f| f.owned_count()).sum();
        let dist: &Vec<u64> = cache.get_or_insert_with(
            |d: &Vec<u64>| d.len() == expected,
            || owner_values(frags, states, INF, |s, _, l| s.dist[l as usize]),
        );
        let n = dist.len();
        let directed = stored_directed(frags);

        let mut affected = vec![false; n];
        let mut queue: Vec<VertexId> = Vec::new();
        // Was (u, v) tight under the old distances, for any stored copy?
        let tight = |u: VertexId, v: VertexId| -> bool {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            if du == INF || dv == INF {
                return false;
            }
            frags.iter().any(|f| {
                f.local(u).is_some_and(|lu| {
                    f.edges(lu).any(|(t, &w)| f.global(t) == v && du.saturating_add(w as u64) <= dv)
                })
            })
        };
        let start = |v: VertexId, affected: &mut Vec<bool>, queue: &mut Vec<VertexId>| {
            if (v as usize) < n && dist[v as usize] != INF && !affected[v as usize] {
                affected[v as usize] = true;
                queue.push(v);
            }
        };
        for &(u, v) in changes.removed_edges.iter().chain(changes.increased_edges) {
            if tight(u, v) {
                start(v, &mut affected, &mut queue);
            }
            if !directed && tight(v, u) {
                start(u, &mut affected, &mut queue);
            }
        }
        for &w in changes.removed_vertices {
            // The vertex is isolated: its own distance rises to ∞ (the
            // source re-pins itself in `warm_eval`), and everything that
            // derived through it follows via the closure below.
            start(w, &mut affected, &mut queue);
        }
        while let Some(u) = queue.pop() {
            let du = dist[u as usize];
            for f in frags {
                let Some(lu) = f.local(u) else { continue };
                for (t, &w) in f.edges(lu) {
                    let x = f.global(t);
                    if !affected[x as usize]
                        && dist[x as usize] != INF
                        && du.saturating_add(w as u64) <= dist[x as usize]
                    {
                        affected[x as usize] = true;
                        queue.push(x);
                    }
                }
            }
        }

        // Every copy of an affected vertex, at every fragment, is reset.
        let mut out: Vec<Vec<LocalId>> = vec![Vec::new(); frags.len()];
        for v in 0..n as VertexId {
            if !affected[v as usize] {
                continue;
            }
            for (i, f) in frags.iter().enumerate() {
                if let Some(l) = f.local(v) {
                    out[i].push(l);
                }
            }
        }
        for s in &mut out {
            s.sort_unstable();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use aap_core::{Engine, EngineOpts, Mode};
    use aap_graph::partition::{
        build_fragments, build_fragments_vertex_cut, hash_partition, range_partition,
        vertex_cut_partition,
    };
    use aap_graph::{generate, Graph};

    fn check(g: &Graph<(), u32>, src: VertexId, m: usize) {
        let expect = seq::dijkstra(g, src);
        for mode in [Mode::Bsp, Mode::Ap, Mode::Ssp { c: 1 }, Mode::aap()] {
            let frags = build_fragments(g, &hash_partition(g, m));
            let engine = Engine::new(
                frags,
                EngineOpts { threads: 4, mode: mode.clone(), max_rounds: Some(100_000) },
            );
            let out = engine.run(&Sssp, &src);
            assert_eq!(out.out, expect, "mode {mode:?}");
        }
    }

    #[test]
    fn matches_dijkstra_on_lattice() {
        let g = generate::lattice2d(12, 12, 5);
        check(&g, 0, 4);
    }

    #[test]
    fn matches_dijkstra_on_power_law() {
        let g = generate::rmat(9, 6, true, 21);
        check(&g, 0, 6);
        check(&g, 17, 6);
    }

    #[test]
    fn unreachable_stay_infinite() {
        let mut b = aap_graph::GraphBuilder::new_directed(6);
        b.add_edge(0, 1, 3u32);
        b.add_edge(1, 2, 4);
        // 3,4,5 unreachable
        b.add_edge(3, 4, 1);
        let g = b.build();
        let frags = build_fragments(&g, &hash_partition(&g, 3));
        let engine = Engine::new(frags, EngineOpts::default());
        let out = engine.run(&Sssp, &0);
        assert_eq!(out.out, vec![0, 3, 7, INF, INF, INF]);
    }

    #[test]
    fn range_partition_on_lattice() {
        let g = generate::lattice2d(20, 10, 8);
        let expect = seq::dijkstra(&g, 5);
        let frags = build_fragments(&g, &range_partition(&g, 5));
        let engine = Engine::new(frags, EngineOpts::default());
        assert_eq!(engine.run(&Sssp, &5).out, expect);
    }

    #[test]
    fn vertex_cut_partition_works() {
        let g = generate::small_world(150, 3, 0.1, 2);
        let expect = seq::dijkstra(&g, 7);
        let frags = build_fragments_vertex_cut(&g, &vertex_cut_partition(&g, 4));
        let engine = Engine::new(frags, EngineOpts::default());
        assert_eq!(engine.run(&Sssp, &7).out, expect);
    }

    #[test]
    fn source_not_in_graph_yields_all_infinite() {
        let g = generate::lattice2d(4, 4, 1);
        let frags = build_fragments(&g, &hash_partition(&g, 2));
        let engine = Engine::new(frags, EngineOpts::default());
        let out = engine.run(&Sssp, &999);
        assert!(out.out.iter().all(|&d| d == INF));
        assert_eq!(out.stats.total_updates(), 0);
    }
}
