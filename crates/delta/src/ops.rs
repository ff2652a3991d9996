//! Delta batch types: [`GraphDelta`] and its deduplicating [`DeltaBuilder`].

use aap_graph::mutate::DeltaSummary;
use aap_graph::{FxHashMap, VertexId};

/// One deduplicated batch of graph mutations, in **logical** edge space:
/// for undirected graphs an edge op names the edge once and the
/// application layer expands it to both stored directions.
///
/// Semantics (matching [`crate::apply_to_graph`] and
/// [`crate::apply_to_fragments_par`]):
///
/// * `add_edge(u, v, w)` adds one new parallel edge (endpoints must exist
///   or be added in the same batch);
/// * `remove_edge(u, v)` drops **all** parallel `(u, v)` copies;
/// * `set_weight(u, v, w)` overwrites the weight of every `(u, v)` copy —
///   a no-op if the edge does not exist;
/// * `add_vertex(id, data)` appends a vertex; ids must extend the dense
///   id space contiguously (`n`, `n+1`, ...);
/// * `remove_vertex(v)` drops every incident edge but keeps the dense id
///   as an isolated vertex, so `Assemble` output stays index-stable.
#[derive(Debug, Clone)]
pub struct GraphDelta<V = (), E = u32> {
    vertices_added: Vec<(VertexId, V)>,
    vertices_removed: Vec<VertexId>,
    edges_added: Vec<(VertexId, VertexId, E)>,
    edges_removed: Vec<(VertexId, VertexId)>,
    weight_updates: Vec<(VertexId, VertexId, E)>,
}

impl<V, E> GraphDelta<V, E> {
    /// Reassemble a delta from its sorted component lists — the decode
    /// hook for persisted delta logs (`aap-snapshot`). The lists must
    /// satisfy the [`DeltaBuilder::build`] postconditions: each sorted by
    /// key, keys unique across the vertex lists and across the edge
    /// lists, and no edge op naming a removed vertex.
    ///
    /// # Panics
    /// Panics on a contract violation — [`GraphDelta::try_from_parts`]
    /// is the error-returning form decoders use; every check lives
    /// there.
    pub fn from_parts(
        vertices_added: Vec<(VertexId, V)>,
        vertices_removed: Vec<VertexId>,
        edges_added: Vec<(VertexId, VertexId, E)>,
        edges_removed: Vec<(VertexId, VertexId)>,
        weight_updates: Vec<(VertexId, VertexId, E)>,
    ) -> Self {
        GraphDelta::try_from_parts(
            vertices_added,
            vertices_removed,
            edges_added,
            edges_removed,
            weight_updates,
        )
        .unwrap_or_else(|e| panic!("malformed delta parts: {e}"))
    }

    /// Fallible form of [`GraphDelta::from_parts`] — the single home of
    /// the batch-contract checks, so log decoders turn bad input into a
    /// tagged error instead of a panic (or, worse, a panic deep inside
    /// a later `apply`).
    ///
    /// # Errors
    /// Names the first violation of the [`DeltaBuilder::build`]
    /// postconditions found: a list unsorted or holding a duplicated
    /// key, a vertex id in both vertex lists, an edge key in more than
    /// one edge list, or an edge op naming a removed vertex.
    pub fn try_from_parts(
        vertices_added: Vec<(VertexId, V)>,
        vertices_removed: Vec<VertexId>,
        edges_added: Vec<(VertexId, VertexId, E)>,
        edges_removed: Vec<(VertexId, VertexId)>,
        weight_updates: Vec<(VertexId, VertexId, E)>,
    ) -> Result<Self, String> {
        fn sorted_disjoint<T: Ord>(
            a: impl Iterator<Item = T>,
            b: &[T],
            what: &str,
        ) -> Result<(), String> {
            let mut j = 0;
            for x in a {
                while j < b.len() && b[j] < x {
                    j += 1;
                }
                if j < b.len() && b[j] == x {
                    return Err(what.to_string());
                }
            }
            Ok(())
        }
        if !vertices_added.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("vertices_added not sorted/unique".into());
        }
        if !vertices_removed.windows(2).all(|w| w[0] < w[1]) {
            return Err("vertices_removed not sorted/unique".into());
        }
        if !edges_added.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)) {
            return Err("edges_added not sorted/unique".into());
        }
        if !edges_removed.windows(2).all(|w| w[0] < w[1]) {
            return Err("edges_removed not sorted/unique".into());
        }
        if !weight_updates.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)) {
            return Err("weight_updates not sorted/unique".into());
        }
        // Cross-list exclusivity: one op per vertex id, one op per edge
        // key, and no edge op naming a removed vertex (the builder drops
        // those because the removal discards every incident edge).
        sorted_disjoint(
            vertices_added.iter().map(|&(v, _)| v),
            &vertices_removed,
            "vertex id both added and removed",
        )?;
        let added_keys = || edges_added.iter().map(|&(u, v, _)| (u, v));
        let update_keys = || weight_updates.iter().map(|&(u, v, _)| (u, v));
        sorted_disjoint(added_keys(), &edges_removed, "edge key both added and removed")?;
        sorted_disjoint(update_keys(), &edges_removed, "edge key both updated and removed")?;
        sorted_disjoint(
            added_keys(),
            &weight_updates.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
            "edge key both added and weight-updated",
        )?;
        let dead = |v: VertexId| vertices_removed.binary_search(&v).is_ok();
        let endpoints = added_keys().chain(update_keys()).chain(edges_removed.iter().copied());
        for (u, v) in endpoints {
            if dead(u) || dead(v) {
                return Err(format!("edge op ({u}, {v}) names a removed vertex"));
            }
        }
        Ok(GraphDelta {
            vertices_added,
            vertices_removed,
            edges_added,
            edges_removed,
            weight_updates,
        })
    }

    /// Vertices added by this batch, sorted by id.
    pub fn vertices_added(&self) -> &[(VertexId, V)] {
        &self.vertices_added
    }

    /// Vertices removed (isolated) by this batch, sorted.
    pub fn vertices_removed(&self) -> &[VertexId] {
        &self.vertices_removed
    }

    /// Logical edges added, sorted by `(u, v)`.
    pub fn edges_added(&self) -> &[(VertexId, VertexId, E)] {
        &self.edges_added
    }

    /// Logical edges removed, sorted.
    pub fn edges_removed(&self) -> &[(VertexId, VertexId)] {
        &self.edges_removed
    }

    /// Weight overwrites, sorted by `(u, v)`.
    pub fn weight_updates(&self) -> &[(VertexId, VertexId, E)] {
        &self.weight_updates
    }

    /// Number of individual operations in the batch.
    pub fn len(&self) -> usize {
        self.vertices_added.len()
            + self.vertices_removed.len()
            + self.edges_added.len()
            + self.edges_removed.len()
            + self.weight_updates.len()
    }

    /// True if the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural op counts. Weight *directions* are unknown until the
    /// batch meets a graph; [`crate::apply_to_fragments_par`] fills them
    /// in.
    pub fn summary(&self) -> DeltaSummary {
        DeltaSummary {
            vertices_added: self.vertices_added.len() as u64,
            vertices_removed: self.vertices_removed.len() as u64,
            edges_added: self.edges_added.len() as u64,
            edges_removed: self.edges_removed.len() as u64,
            weights_decreased: 0,
            weights_increased: 0,
        }
    }

    /// Every vertex id this batch mentions (endpoints and vertex ops).
    pub fn mentioned_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices_added
            .iter()
            .map(|&(v, _)| v)
            .chain(self.vertices_removed.iter().copied())
            .chain(self.edges_added.iter().flat_map(|&(u, v, _)| [u, v]))
            .chain(self.edges_removed.iter().flat_map(|&(u, v)| [u, v]))
            .chain(self.weight_updates.iter().flat_map(|&(u, v, _)| [u, v]))
    }
}

#[derive(Debug, Clone)]
enum VertexOp<V> {
    Add(V),
    Remove,
}

#[derive(Debug, Clone)]
enum EdgeOp<E> {
    Add(E),
    Remove,
    SetWeight(E),
}

/// Accumulates mutations and deduplicates them into a [`GraphDelta`]:
/// the **last** operation per vertex id / edge pair wins, so a stream
/// that inserts and then removes the same edge nets out to a removal.
#[derive(Debug, Clone)]
pub struct DeltaBuilder<V = (), E = u32> {
    vertex_ops: FxHashMap<VertexId, VertexOp<V>>,
    edge_ops: FxHashMap<(VertexId, VertexId), EdgeOp<E>>,
}

impl<V, E> Default for DeltaBuilder<V, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, E> DeltaBuilder<V, E> {
    /// Fresh, empty builder.
    pub fn new() -> Self {
        DeltaBuilder { vertex_ops: FxHashMap::default(), edge_ops: FxHashMap::default() }
    }

    /// Add vertex `id` with node data. Ids must extend the graph's dense
    /// id space contiguously (checked at apply time).
    pub fn add_vertex(&mut self, id: VertexId, data: V) -> &mut Self {
        self.vertex_ops.insert(id, VertexOp::Add(data));
        self
    }

    /// Remove (isolate) vertex `id`: all incident edges are dropped.
    pub fn remove_vertex(&mut self, id: VertexId) -> &mut Self {
        self.vertex_ops.insert(id, VertexOp::Remove);
        self
    }

    /// Add one logical edge `u — v` (or `u → v` on directed graphs).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, data: E) -> &mut Self {
        self.edge_ops.insert((u, v), EdgeOp::Add(data));
        self
    }

    /// Remove every parallel copy of logical edge `(u, v)`.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.edge_ops.insert((u, v), EdgeOp::Remove);
        self
    }

    /// Overwrite the weight of every parallel copy of `(u, v)`.
    pub fn set_weight(&mut self, u: VertexId, v: VertexId, data: E) -> &mut Self {
        self.edge_ops.insert((u, v), EdgeOp::SetWeight(data));
        self
    }

    /// Number of pending (deduplicated) operations.
    pub fn len(&self) -> usize {
        self.vertex_ops.len() + self.edge_ops.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.vertex_ops.is_empty() && self.edge_ops.is_empty()
    }

    /// Finish the batch, sorting ops for deterministic application.
    ///
    /// Within one batch, a vertex removal wins over edge ops naming that
    /// vertex: adds/updates/removals of its incident edges are dropped
    /// (the removal discards every incident edge anyway).
    pub fn build(self) -> GraphDelta<V, E> {
        let mut vertices_added = Vec::new();
        let mut vertices_removed = Vec::new();
        for (id, op) in self.vertex_ops {
            match op {
                VertexOp::Add(d) => vertices_added.push((id, d)),
                VertexOp::Remove => vertices_removed.push(id),
            }
        }
        vertices_added.sort_unstable_by_key(|&(id, _)| id);
        vertices_removed.sort_unstable();
        let dead = |v: &VertexId| vertices_removed.binary_search(v).is_ok();
        let mut edges_added = Vec::new();
        let mut edges_removed = Vec::new();
        let mut weight_updates = Vec::new();
        for ((u, v), op) in self.edge_ops {
            if dead(&u) || dead(&v) {
                continue;
            }
            match op {
                EdgeOp::Add(d) => edges_added.push((u, v, d)),
                EdgeOp::Remove => edges_removed.push((u, v)),
                EdgeOp::SetWeight(d) => weight_updates.push((u, v, d)),
            }
        }
        edges_added.sort_unstable_by_key(|&(u, v, _)| (u, v));
        edges_removed.sort_unstable();
        weight_updates.sort_unstable_by_key(|&(u, v, _)| (u, v));
        GraphDelta { vertices_added, vertices_removed, edges_added, edges_removed, weight_updates }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_op_per_key_wins() {
        let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
        b.add_edge(1, 2, 5);
        b.remove_edge(1, 2); // cancels the add
        b.add_edge(3, 4, 7);
        b.set_weight(3, 4, 9); // supersedes the add
        b.add_vertex(10, ());
        b.remove_vertex(10);
        let d = b.build();
        assert_eq!(d.edges_added(), &[]);
        assert_eq!(d.edges_removed(), &[(1, 2)]);
        assert_eq!(d.weight_updates(), &[(3, 4, 9)]);
        assert!(d.vertices_added().is_empty());
        assert_eq!(d.vertices_removed(), &[10]);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn vertex_removal_wins_over_incident_edge_ops() {
        let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
        b.add_edge(1, 2, 5);
        b.set_weight(2, 3, 4);
        b.remove_edge(2, 4);
        b.add_edge(5, 6, 1);
        b.remove_vertex(2);
        let d = b.build();
        assert_eq!(d.edges_added(), &[(5, 6, 1)]);
        assert!(d.edges_removed().is_empty());
        assert!(d.weight_updates().is_empty());
        assert_eq!(d.vertices_removed(), &[2]);
    }

    #[test]
    fn summary_counts_structure() {
        let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.remove_edge(4, 5);
        b.add_vertex(9, ());
        let s = b.build().summary();
        assert_eq!(s.edges_added, 2);
        assert_eq!(s.edges_removed, 1);
        assert_eq!(s.vertices_added, 1);
        assert!(!s.is_monotone_decreasing());
        let mut b2: DeltaBuilder<(), u32> = DeltaBuilder::new();
        b2.add_edge(0, 1, 1);
        assert!(b2.build().summary().is_monotone_decreasing());
    }

    #[test]
    fn try_from_parts_enforces_the_build_contract() {
        // Well-formed parts round-trip.
        let ok = GraphDelta::<(), u32>::try_from_parts(
            vec![(9, ())],
            vec![3],
            vec![(0, 1, 5)],
            vec![(1, 2)],
            vec![(4, 5, 7)],
        );
        assert!(ok.is_ok());

        // An edge op naming a removed vertex would panic deep in apply;
        // it must be rejected here instead.
        let err =
            GraphDelta::<(), u32>::try_from_parts(vec![], vec![1], vec![(0, 1, 5)], vec![], vec![])
                .unwrap_err();
        assert!(err.contains("removed vertex"), "{err}");

        // One op per key: a vertex id in both vertex lists ...
        let err =
            GraphDelta::<(), u32>::try_from_parts(vec![(1, ())], vec![1], vec![], vec![], vec![])
                .unwrap_err();
        assert!(err.contains("added and removed"), "{err}");

        // ... and an edge key in two edge lists.
        let err = GraphDelta::<(), u32>::try_from_parts(
            vec![],
            vec![],
            vec![(0, 1, 5)],
            vec![(0, 1)],
            vec![],
        )
        .unwrap_err();
        assert!(err.contains("added and removed"), "{err}");
        let err = GraphDelta::<(), u32>::try_from_parts(
            vec![],
            vec![],
            vec![(0, 1, 5)],
            vec![],
            vec![(0, 1, 9)],
        )
        .unwrap_err();
        assert!(err.contains("weight-updated"), "{err}");

        // Unsorted lists are still rejected.
        let err = GraphDelta::<(), u32>::try_from_parts(vec![], vec![2, 1], vec![], vec![], vec![])
            .unwrap_err();
        assert!(err.contains("sorted"), "{err}");
    }

    #[test]
    fn mentioned_vertices_covers_all_ops() {
        let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
        b.add_edge(0, 1, 1);
        b.remove_edge(2, 3);
        b.set_weight(4, 5, 2);
        b.add_vertex(6, ());
        b.remove_vertex(7);
        let d = b.build();
        let mut v: Vec<_> = d.mentioned_vertices().collect();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
