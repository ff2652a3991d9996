//! Shared helpers for PIE programs.

use aap_graph::{Fragment, LocalId};
use std::borrow::Borrow;

/// Gather a per-vertex quantity from the *owned* vertices of every fragment
/// into one global vector (the usual shape of `Assemble`). Takes the
/// fragments however the caller holds them: `Arc<Fragment>` (the engines)
/// or `&Fragment` (see [`owner_values`]).
pub fn gather_owned<V, E, B, S, T, F>(frags: &[B], states: &[S], default: T, get: F) -> Vec<T>
where
    B: Borrow<Fragment<V, E>>,
    T: Clone,
    F: Fn(&S, &Fragment<V, E>, LocalId) -> T,
{
    let n: usize = frags.iter().map(|f| f.borrow().owned_count()).sum();
    let mut out = vec![default; n];
    for (f, s) in frags.iter().zip(states) {
        let f = f.borrow();
        for l in f.owned_vertices() {
            out[f.global(l) as usize] = get(s, f, l);
        }
    }
    out
}

/// [`gather_owned`] over plain fragment references — the shape
/// `WarmStart::plan_invalidation` sees (pre-apply fragments, no `Arc`).
/// Gathers the **owner** copy's value per global vertex; at a fixpoint
/// that is the authoritative one (mirror copies may hold stale-high
/// values under edge-cut, since owners do not broadcast back).
pub fn owner_values<V, E, S, T, F>(
    frags: &[&Fragment<V, E>],
    states: &[S],
    default: T,
    get: F,
) -> Vec<T>
where
    T: Clone,
    F: Fn(&S, &Fragment<V, E>, LocalId) -> T,
{
    gather_owned(frags, states, default, get)
}

/// Distance value used by SSSP/BFS: `u64::MAX` encodes `∞`.
pub const INF: u64 = u64::MAX;

/// Relax local shortest-path distances from a seed set via Dijkstra and
/// report every *emitting copy* ([`emit_policy`]) that is a seed or whose
/// distance improved: `emitted` ends up holding those local ids in
/// ascending order, one per vertex (it is sorted and deduplicated as a
/// whole, so pass it in empty). Returns the work performed (heap pops +
/// edges scanned) for cost accounting.
///
/// The cost follows the change set, not `|Fi|`: nothing here is sized by
/// `local_count`, the emission test is `O(1)`, and a vertex without local
/// out-edges (an edge-cut mirror, a sink) never enters the heap — its
/// would-be pop is still charged, so the returned work is what a kernel
/// that heaps everything would report.
///
/// `weight` extracts an edge length; mirrors carry no out-edges under
/// edge-cut so relaxation stops at fragment boundaries, which is exactly
/// where messages take over.
pub fn dijkstra_from_seeds<V, E>(
    frag: &Fragment<V, E>,
    dist: &mut [u64],
    seeds: &[LocalId],
    weight: impl Fn(&E) -> u64,
    emitted: &mut Vec<LocalId>,
) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, LocalId)>> = BinaryHeap::new();
    // One unit per would-be heap pop: every seed here, every successful
    // relaxation below; `deg(u)` more per pop that is not stale.
    let mut work = seeds.len() as u64;
    for &s in seeds {
        if emit_policy(frag, s) {
            emitted.push(s);
        }
        if !frag.neighbors(s).is_empty() {
            heap.push(Reverse((dist[s as usize], s)));
        }
    }
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale heap entry
        }
        work += frag.neighbors(u).len() as u64;
        for (v, e) in frag.edges(u) {
            let nd = d.saturating_add(weight(e));
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                work += 1;
                if emit_policy(frag, v) {
                    emitted.push(v);
                }
                if !frag.neighbors(v).is_empty() {
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    emitted.sort_unstable();
    emitted.dedup();
    work
}

/// Decide in `O(1)` whether a changed copy must be shipped: mirrors always
/// (mirror → owner); owned vertices only under vertex-cut partitions, where
/// copies carry edges and need the owner's value broadcast back, and only
/// when some fragment holds a copy.
#[inline]
pub fn emit_policy<V, E>(frag: &Fragment<V, E>, l: LocalId) -> bool {
    if frag.is_owned(l) {
        frag.is_vertex_cut() && !frag.mirror_holders(l).is_empty()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aap_graph::partition::build_fragments;
    use aap_graph::GraphBuilder;

    #[test]
    fn dijkstra_respects_fragment_boundary() {
        // 0 -5-> 1 -7-> 2, fragments {0,1} | {2}.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 5u32);
        b.add_edge(1, 2, 7);
        let g = b.build();
        let frags = build_fragments(&g, &[0, 0, 1]);
        let f0 = &frags[0];
        let mut dist = vec![INF; f0.local_count()];
        let src = f0.local(0).unwrap();
        dist[src as usize] = 0;
        let mut changed = Vec::new();
        dijkstra_from_seeds(f0, &mut dist, &[src], |&w| w as u64, &mut changed);
        assert_eq!(dist[f0.local(1).unwrap() as usize], 5);
        assert_eq!(dist[f0.local(2).unwrap() as usize], 12); // mirror got relaxed
        let globals: Vec<u32> = changed.iter().map(|&l| f0.global(l)).collect();
        assert!(globals.contains(&2), "mirror of 2 should be reported: {globals:?}");
    }

    #[test]
    fn gather_owned_collects_by_global_id() {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1u32);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let frags: Vec<_> =
            build_fragments(&g, &[1, 1, 0, 0]).into_iter().map(std::sync::Arc::new).collect();
        let states: Vec<Vec<u32>> = frags
            .iter()
            .map(|f| (0..f.local_count() as u32).map(|l| f.global(l) * 10).collect())
            .collect();
        let out = gather_owned(&frags, &states, 0u32, |s, _, l| s[l as usize]);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }
}
