//! Delta application: replay a [`GraphDelta`] onto a global graph or —
//! in place — onto a partitioned fragment set.

use crate::ops::GraphDelta;
use aap_graph::mutate::{
    apply_partition_edit, DeltaSummary, EditBuffers, FragmentEdit, PartitionEdit, StateRemap,
};
use aap_graph::partition::{vertex_cut_edge_frag, vertex_cut_isolated_home};
use aap_graph::{fxhash, mutate, FragId, Fragment, FxHashMap, FxHashSet, Graph, LocalId, VertexId};
use aap_trace::{cat, pid, Args};

/// Result of applying a delta to a fragment set: everything a warm-start
/// engine run (`Engine::run_incremental`) consumes.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Batch shape, with weight-change directions resolved against the
    /// graph — the applied counterpart of what
    /// `WarmStart::delta_strategy` decided on.
    pub summary: DeltaSummary,
    /// Per-fragment local-id migration for retained state.
    pub remaps: Vec<StateRemap>,
    /// Per-fragment delta-affected vertices (new local ids, sorted).
    pub seeds: Vec<Vec<LocalId>>,
    /// Per-fragment: whether persisted bytes changed (see
    /// [`AppliedEdit::changed`](aap_graph::mutate::AppliedEdit::changed)).
    /// Both cut kinds patch in place, so this covers exactly the repacked
    /// fragments.
    pub changed: Vec<bool>,
}

/// Replay `delta` onto a global graph, returning the mutated graph.
/// Undirected graphs expand each logical edge op to both stored
/// directions. Panics on edges naming unknown vertices or on
/// non-contiguous added vertex ids.
pub fn apply_to_graph<V, E>(g: &Graph<V, E>, delta: &GraphDelta<V, E>) -> Graph<V, E>
where
    V: Clone,
    E: Clone + PartialOrd,
{
    apply_to_graph_counting(g, delta).0
}

/// [`apply_to_graph`] plus `(weights_decreased, weights_increased)`.
fn apply_to_graph_counting<V, E>(
    g: &Graph<V, E>,
    delta: &GraphDelta<V, E>,
) -> (Graph<V, E>, u64, u64)
where
    V: Clone,
    E: Clone + PartialOrd,
{
    let directed = g.is_directed();
    let mut nodes: Vec<V> = g.nodes().to_vec();
    for (id, d) in delta.vertices_added() {
        assert_eq!(
            *id as usize,
            nodes.len(),
            "added vertex ids must extend the dense id space contiguously"
        );
        nodes.push(d.clone());
    }
    let n = nodes.len();
    let removed: FxHashSet<VertexId> = delta.vertices_removed().iter().copied().collect();
    let expand = |u: VertexId, v: VertexId| -> [(VertexId, VertexId); 2] {
        if directed {
            [(u, v), (u, v)] // second entry is a harmless duplicate key
        } else {
            [(u, v), (v, u)]
        }
    };
    let mut rm: FxHashSet<(VertexId, VertexId)> = FxHashSet::default();
    for &(u, v) in delta.edges_removed() {
        rm.extend(expand(u, v));
    }
    let mut setw: FxHashMap<(VertexId, VertexId), &E> = FxHashMap::default();
    for (u, v, w) in delta.weight_updates() {
        for k in expand(*u, *v) {
            setw.insert(k, w);
        }
    }

    let mut wdec = 0u64;
    let mut winc = 0u64;
    let mut edges: Vec<(VertexId, VertexId, E)> =
        Vec::with_capacity(g.num_edges() + delta.edges_added().len() * 2);
    for (u, v, d) in g.all_edges() {
        if removed.contains(&u) || removed.contains(&v) || rm.contains(&(u, v)) {
            continue;
        }
        if let Some(w) = setw.get(&(u, v)) {
            match mutate::weight_change(*w, d) {
                mutate::WeightChange::Decreased => wdec += 1,
                mutate::WeightChange::Unchanged => {}
                mutate::WeightChange::Increased => winc += 1,
            }
            edges.push((u, v, (*w).clone()));
        } else {
            edges.push((u, v, d.clone()));
        }
    }
    for (u, v, d) in delta.edges_added() {
        assert!((*u as usize) < n && (*v as usize) < n, "added edge ({u}, {v}) out of range");
        assert!(
            !removed.contains(u) && !removed.contains(v),
            "added edge ({u}, {v}) touches a removed vertex"
        );
        edges.push((*u, *v, d.clone()));
        if !directed {
            edges.push((*v, *u, d.clone()));
        }
    }
    (Graph::from_stored_edges(directed, nodes, edges), wdec, winc)
}

/// Replay `delta` onto a partitioned fragment set, **in place** — the one
/// fragment-side apply.
///
/// Both cut kinds are patched locally by one rewriter: only fragments
/// named by the delta (or linked to them through mirrors/holders/copies)
/// are touched; dense routing tables are rebuilt for exactly the
/// affected destinations (see `aap_graph::mutate`). Each touched
/// fragment is rewritten with one local-id splice: the batch's ops are
/// sorted (`O(k log k)` in the batch size `k`), the old CSR streams into
/// the new one with inserts, removals and overwrites merged on the
/// edited rows only, and targets map through a dense old→new local
/// table — `O(|Fi|)` sequential array copy per touched fragment, no
/// hashing or sorting per retained edge. Rows stay ordered by target
/// global id; retained parallel `(u, v)` copies keep their order and
/// inserted copies follow in batch order. An edge-cut batch lands each
/// edge op at the owner of its stored source; a vertex-cut batch at its
/// canonical pair-hash fragment, and the graph layer's planner derives
/// holder sets and owners from edge incidence.
///
/// The splices, holder updates and routing rebuilds fan out over up to
/// `threads` scoped worker threads (each phase over as many as it has
/// work items), byte-identical at every thread count (see
/// [`aap_graph::mutate::apply_partition_edit`], pinned by the mutate
/// proptests and `tests/splice_equiv.rs`). `bufs` pools the splice's
/// scratch (sorted op list, per-local marks) across batches.
///
/// With a tracer in `bufs` ([`EditBuffers::traced`]) the whole apply
/// runs under an `apply_delta` span on the delta track, whose children
/// are the `resolve_edit` phase span, one `repack` span per changed
/// fragment (tid = fragment id, covering its whole splice), the
/// `routing` span of the table rebuilds and, on vertex-cut, the
/// `plan_vertex_cut` span, the last three from the graph layer.
///
/// New vertices are owned by `hash(id) % m` under edge-cut, consistent
/// with [`aap_graph::partition::hash_partition`]; under vertex-cut they
/// go where their edges are, or to their isolated home.
///
/// The delta must be valid for `frags` (see [`crate::validate`]); a
/// malformed one panics.
pub fn apply_to_fragments_par<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    delta: &GraphDelta<V, E>,
    bufs: &mut EditBuffers,
    threads: usize,
) -> Applied
where
    V: Clone + Send + Sync,
    E: Clone + PartialOrd + Send + Sync,
{
    assert!(!frags.is_empty(), "cannot apply a delta to an empty fragment set");
    let vertex_cut = frags[0].is_vertex_cut();
    let tracer = bufs.tracer().clone();
    let traced = tracer.enabled();
    if traced {
        let args = delta_args(delta, threads.max(1));
        tracer.begin(pid::DELTA, 0, cat::APPLY, "apply_delta", args);
        tracer.begin(pid::DELTA, 0, cat::APPLY, "resolve_edit", Args::new());
    }
    let edit = if vertex_cut {
        resolve_vertex_cut_edit(frags, delta)
    } else {
        resolve_edge_cut_edit(frags, delta)
    };
    if traced {
        let args = Args::new().with("touched", edit.touched.iter().filter(|&&t| t).count());
        tracer.end(pid::DELTA, 0, cat::APPLY, "resolve_edit", args);
    }
    let applied = apply_partition_edit(frags, &edit, bufs, threads);
    if traced {
        tracer.end(pid::DELTA, 0, cat::APPLY, "apply_delta", Args::new());
    }
    let mut summary = delta.summary();
    summary.weights_decreased = applied.weights_decreased;
    summary.weights_increased = applied.weights_increased;
    Applied { summary, remaps: applied.remaps, seeds: applied.seeds, changed: applied.changed }
}

/// Batch-shape args for the `apply_delta` span.
fn delta_args<V, E>(delta: &GraphDelta<V, E>, threads: usize) -> Args {
    let s = delta.summary();
    Args::new()
        .with("edges_added", s.edges_added)
        .with("edges_removed", s.edges_removed)
        .with("weight_updates", delta.weight_updates().len())
        .with("threads", threads)
}

/// Resolve a delta against an edge-cut partition into a
/// [`PartitionEdit`]: owner lookup for every mentioned vertex, edge ops
/// routed to the owner of the stored source, and the touched set.
fn resolve_edge_cut_edit<V, E>(
    frags: &[&mut Fragment<V, E>],
    delta: &GraphDelta<V, E>,
) -> PartitionEdit<V, E>
where
    V: Clone,
    E: Clone + PartialOrd,
{
    let m = frags.len();
    let directed = frags
        .iter()
        .find(|f| f.local_count() > 0)
        .map(|f| f.local_graph().is_directed())
        .unwrap_or(true);

    // Resolve the owner of every mentioned vertex: existing vertices by
    // scanning the fragments' id maps, fresh vertices by the hash rule.
    let total_owned: usize = frags.iter().map(|f| f.owned_count()).sum();
    let added: FxHashSet<VertexId> = delta.vertices_added().iter().map(|&(v, _)| v).collect();
    let mut owners: FxHashMap<VertexId, FragId> = FxHashMap::default();
    for v in delta.mentioned_vertices() {
        if owners.contains_key(&v) {
            continue;
        }
        let owner = if added.contains(&v) {
            (fxhash::hash_u64(v as u64) % m as u64) as FragId
        } else {
            frags
                .iter()
                .find(|f| f.local(v).map(|l| f.is_owned(l)).unwrap_or(false))
                .unwrap_or_else(|| panic!("vertex {v} not found in any fragment"))
                .id()
        };
        owners.insert(v, owner);
    }
    // Same contract apply_to_graph enforces: added ids extend the dense
    // id space contiguously (vertices_added is sorted), so downstream
    // Assemble output stays index-stable.
    for (i, (v, _)) in delta.vertices_added().iter().enumerate() {
        assert_eq!(
            *v as usize,
            total_owned + i,
            "added vertex ids must extend the dense id space contiguously"
        );
    }

    let mut edit = PartitionEdit {
        frags: (0..m).map(|_| FragmentEdit::default()).collect::<Vec<_>>(),
        removed_vertices: delta.vertices_removed().iter().copied().collect(),
        owners,
        touched: vec![false; m],
    };
    for (v, d) in delta.vertices_added() {
        let o = edit.owners[v] as usize;
        edit.frags[o].add_owned.push((*v, d.clone()));
        edit.touched[o] = true;
    }
    for v in delta.vertices_removed() {
        let o = edit.owners[v] as usize;
        edit.touched[o] = true;
        // Every fragment mirroring the vertex stores edges into it and
        // must drop them.
        let f = &frags[o];
        let l = f.local(*v).expect("removed vertex exists at its owner");
        for &h in f.mirror_holders(l) {
            edit.touched[h as usize] = true;
        }
    }
    // Edge ops land at the owner of the stored source; undirected logical
    // edges expand to both stored directions.
    type PushEdge<'a, V, E> = &'a mut dyn FnMut(&mut FragmentEdit<V, E>, VertexId, VertexId);
    let each_direction =
        |u: VertexId, v: VertexId, edit: &mut PartitionEdit<V, E>, push: PushEdge<V, E>| {
            let o = edit.owners[&u] as usize;
            push(&mut edit.frags[o], u, v);
            edit.touched[o] = true;
            if !directed {
                let o = edit.owners[&v] as usize;
                push(&mut edit.frags[o], v, u);
                edit.touched[o] = true;
            }
        };
    for (u, v, d) in delta.edges_added() {
        let dd = d.clone();
        each_direction(*u, *v, &mut edit, &mut |fe, a, b| fe.insert_edges.push((a, b, dd.clone())));
    }
    for (u, v) in delta.edges_removed() {
        each_direction(*u, *v, &mut edit, &mut |fe, a, b| fe.remove_edges.push((a, b)));
    }
    for (u, v, d) in delta.weight_updates() {
        let dd = d.clone();
        each_direction(*u, *v, &mut edit, &mut |fe, a, b| fe.set_weights.push((a, b, dd.clone())));
    }

    edit
}

/// Resolve a delta against a vertex-cut partition into a
/// [`PartitionEdit`]: every edge op lands at its canonical pair-hash
/// fragment (both stored directions of an undirected logical edge share
/// it), a new vertex's node data at its isolated home, removals pass
/// through; placement is the graph layer's planner's to derive.
fn resolve_vertex_cut_edit<V, E>(
    frags: &[&mut Fragment<V, E>],
    delta: &GraphDelta<V, E>,
) -> PartitionEdit<V, E>
where
    V: Clone,
    E: Clone + PartialOrd,
{
    let m = frags.len();
    let directed = frags
        .iter()
        .find(|f| f.local_count() > 0)
        .map(|f| f.local_graph().is_directed())
        .unwrap_or(true);
    // Same contract as the edge-cut resolver and apply_to_graph: added
    // ids extend the dense id space contiguously.
    let total_owned: usize = frags.iter().map(|f| f.owned_count()).sum();
    for (i, (v, _)) in delta.vertices_added().iter().enumerate() {
        assert_eq!(
            *v as usize,
            total_owned + i,
            "added vertex ids must extend the dense id space contiguously"
        );
    }
    let mut edit = PartitionEdit {
        frags: (0..m).map(|_| FragmentEdit::default()).collect::<Vec<_>>(),
        removed_vertices: delta.vertices_removed().iter().copied().collect(),
        owners: FxHashMap::default(),
        touched: vec![false; m],
    };
    for (v, d) in delta.vertices_added() {
        let home = vertex_cut_isolated_home(*v, m) as usize;
        edit.frags[home].add_owned.push((*v, d.clone()));
    }
    for (u, v, d) in delta.edges_added() {
        let t = vertex_cut_edge_frag(*u, *v, m) as usize;
        edit.frags[t].insert_edges.push((*u, *v, d.clone()));
        if !directed {
            edit.frags[t].insert_edges.push((*v, *u, d.clone()));
        }
    }
    for (u, v) in delta.edges_removed() {
        let t = vertex_cut_edge_frag(*u, *v, m) as usize;
        edit.frags[t].remove_edges.push((*u, *v));
        if !directed {
            edit.frags[t].remove_edges.push((*v, *u));
        }
    }
    for (u, v, d) in delta.weight_updates() {
        let t = vertex_cut_edge_frag(*u, *v, m) as usize;
        edit.frags[t].set_weights.push((*u, *v, d.clone()));
        if !directed {
            edit.frags[t].set_weights.push((*v, *u, d.clone()));
        }
    }
    for (t, fe) in edit.touched.iter_mut().zip(&edit.frags) {
        *t = !fe.is_empty();
    }
    edit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeltaBuilder;
    use aap_graph::generate;
    use aap_graph::partition::{
        build_fragments_n, build_fragments_vertex_cut_n, hash_partition, vertex_cut_partition,
    };

    #[test]
    fn graph_apply_inserts_removes_and_updates() {
        let mut b = aap_graph::GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 5u32);
        b.add_edge(1, 2, 5);
        let g = b.build();
        let mut d: DeltaBuilder<(), u32> = DeltaBuilder::new();
        d.add_edge(2, 3, 7);
        d.remove_edge(0, 1);
        d.set_weight(1, 2, 9);
        let g2 = apply_to_graph(&g, &d.build());
        assert_eq!(g2.num_vertices(), 4);
        assert_eq!(g2.neighbors(0), &[] as &[u32]);
        assert_eq!(g2.neighbors(2), &[1, 3]);
        assert_eq!(g2.edge_data(2), &[9, 7]);
        assert_eq!(g2.neighbors(3), &[2]);
    }

    #[test]
    fn graph_apply_vertex_ops() {
        let mut b = aap_graph::GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 1u32);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let mut d: DeltaBuilder<(), u32> = DeltaBuilder::new();
        d.add_vertex(3, ());
        d.add_edge(2, 3, 4);
        d.remove_vertex(1);
        let g2 = apply_to_graph(&g, &d.build());
        assert_eq!(g2.num_vertices(), 4);
        // vertex 1 is isolated but keeps its id
        assert!(g2.neighbors(1).is_empty());
        assert!(g2.neighbors(0).is_empty());
        assert_eq!(g2.neighbors(2), &[3]);
    }

    #[test]
    fn fragments_apply_matches_graph_apply_structurally() {
        let g = generate::small_world(80, 2, 0.15, 4);
        let assignment = hash_partition(&g, 4);
        let mut frags = build_fragments_n(&g, &assignment, 4);
        let mut d: DeltaBuilder<(), u32> = DeltaBuilder::new();
        d.add_edge(0, 40, 3);
        d.add_edge(7, 61, 2);
        d.remove_edge(0, 1);
        d.set_weight(2, 3, 11);
        let delta = d.build();
        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            apply_to_fragments_par(&mut refs, &delta, &mut EditBuffers::default(), 1)
        };
        assert!(!applied.summary.is_monotone_decreasing()); // has a removal
        let expect = build_fragments_n(&apply_to_graph(&g, &delta), &assignment, 4);
        for (f, e) in frags.iter().zip(&expect) {
            assert_eq!(f.globals(), e.globals());
            assert_eq!(f.inner_in(), e.inner_in());
            assert_eq!(f.inner_out(), e.inner_out());
            assert_eq!(f.routing().dests(), e.routing().dests());
            for l in f.local_vertices() {
                let mut a: Vec<_> = f.edges(l).map(|(t, dd)| (f.global(t), *dd)).collect();
                let mut bb: Vec<_> = e.edges(l).map(|(t, dd)| (e.global(t), *dd)).collect();
                a.sort_unstable();
                bb.sort_unstable();
                assert_eq!(a, bb);
            }
        }
    }

    #[test]
    fn add_vertex_lands_at_hash_owner_with_edges() {
        let g = generate::small_world(50, 2, 0.1, 8);
        let mut frags = build_fragments_n(&g, &hash_partition(&g, 3), 3);
        let mut d: DeltaBuilder<(), u32> = DeltaBuilder::new();
        d.add_vertex(50, ());
        d.add_edge(50, 10, 2);
        let delta = d.build();
        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            apply_to_fragments_par(&mut refs, &delta, &mut EditBuffers::default(), 1)
        };
        assert!(applied.summary.is_monotone_decreasing());
        let expected_owner = (aap_graph::fxhash::hash_u64(50) % 3) as usize;
        let f = &frags[expected_owner];
        let l = f.local(50).expect("owner holds the new vertex");
        assert!(f.is_owned(l));
        assert!(!f.neighbors(l).is_empty());
        assert!(applied.seeds[expected_owner].contains(&l));
        let owned: usize = frags.iter().map(|f| f.owned_count()).sum();
        assert_eq!(owned, 51);
    }

    #[test]
    fn vertex_cut_apply_repartitions_consistently() {
        let g = generate::small_world(60, 2, 0.2, 6);
        let ea = vertex_cut_partition(&g, 4);
        let mut frags = aap_graph::partition::build_fragments_vertex_cut(&g, &ea);
        assert_eq!(frags.len(), 4);
        let mut d: DeltaBuilder<(), u32> = DeltaBuilder::new();
        d.add_edge(0, 30, 2);
        d.add_edge(5, 59, 1);
        let delta = d.build();
        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            apply_to_fragments_par(&mut refs, &delta, &mut EditBuffers::default(), 1)
        };
        // Structure matches a from-scratch vertex-cut build of the new graph.
        let g2 = apply_to_graph(&g, &delta);
        let expect = build_fragments_vertex_cut_n(&g2, &vertex_cut_partition(&g2, 4), 4);
        for (f, e) in frags.iter().zip(&expect) {
            assert_eq!(f.globals(), e.globals());
            assert_eq!(f.owned_count(), e.owned_count());
        }
        // Seeds cover the inserted endpoints wherever they have copies.
        for (i, f) in frags.iter().enumerate() {
            for g in [0u32, 30, 5, 59] {
                if let Some(l) = f.local(g) {
                    assert!(applied.seeds[i].contains(&l), "frag {i} missing seed for {g}");
                }
            }
        }
    }
}
