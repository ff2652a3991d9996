//! Partitioning strategies `P` and fragment construction.
//!
//! The paper lets users pick an edge-cut or vertex-cut strategy (§2). We
//! provide:
//!
//! * [`hash_partition`] — pseudo-random balanced edge-cut (the default);
//! * [`range_partition`] — contiguous id ranges (locality for lattices);
//! * [`ldg_partition`] — greedy Linear Deterministic Greedy edge-cut that
//!   minimises cut edges under a capacity constraint (XtraPuLP stand-in);
//! * [`skewed_partition`] — deliberately unbalanced edge-cut with a dial for
//!   the straggler experiments of §7 (Fig 6(k), Fig 7);
//! * [`vertex_cut_partition`] — hash-based vertex-cut over logical edges.
//!
//! [`build_fragments`] / [`build_fragments_vertex_cut`] turn an assignment
//! into [`Fragment`]s in a single sweep over the edges.

use crate::fragment::{Fragment, RoutingTable};
use crate::fxhash::hash_u64;
use crate::{FragId, FxHashMap, Graph, LocalId, VertexId};

/// Build the dense [`RoutingTable`] of one fragment. `peer_local` resolves
/// a global id to its local id at a destination fragment (the only hash
/// lookups on the routing path, and they happen once, here).
pub(crate) fn routing_table_for<V, E>(
    f: &Fragment<V, E>,
    peer_local: &dyn Fn(FragId, VertexId) -> Option<LocalId>,
) -> RoutingTable {
    let n = f.local_count();
    // Destination set: owners of our mirrors + holders of our owned
    // border vertices.
    let mut dests: Vec<FragId> = Vec::new();
    for l in f.local_vertices() {
        match f.route(l) {
            crate::Route::Owner(o) => dests.push(o),
            crate::Route::Mirrors(ms) => dests.extend_from_slice(ms),
        }
    }
    dests.sort_unstable();
    dests.dedup();
    let mut slot_of = vec![u16::MAX; f.num_frags() as usize];
    for (s, &d) in dests.iter().enumerate() {
        slot_of[d as usize] = s as u16;
    }
    // CSR fan-out with receiver-local ids resolved through the peers.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut dest_slot: Vec<u16> = Vec::new();
    let mut remote: Vec<LocalId> = Vec::new();
    for l in f.local_vertices() {
        let g = f.global(l);
        let mut push = |d: FragId| {
            let r = peer_local(d, g).expect("routing destination holds a copy of the vertex");
            dest_slot.push(slot_of[d as usize]);
            remote.push(r);
        };
        match f.route(l) {
            crate::Route::Owner(o) => push(o),
            crate::Route::Mirrors(ms) => ms.iter().for_each(|&m| push(m)),
        }
        offsets.push(dest_slot.len() as u32);
    }
    RoutingTable::from_parts(dests, offsets, dest_slot, remote)
}

/// Precompute every fragment's dense [`RoutingTable`] (owner/holder
/// destinations with *destination-local* ids). Runs once per partition;
/// the per-round message path then never consults `g2l` maps again.
fn attach_routing_tables<V, E>(frags: &mut [Fragment<V, E>]) {
    let tables: Vec<RoutingTable> =
        frags.iter().map(|f| routing_table_for(f, &|d, g| frags[d as usize].local(g))).collect();
    for (f, t) in frags.iter_mut().zip(tables) {
        f.set_routing(t);
    }
}

/// Re-derive every fragment's dense [`RoutingTable`] from the border
/// sets and holder lists — the load half of the durable snapshot story
/// (`aap-snapshot` persists the partition but not the derivable routing;
/// see [`Fragment::from_saved_parts`]). Must be called with the complete
/// fragment set of one partition: tables resolve destination-local ids
/// through the peers.
pub fn rebuild_routing_tables<V, E>(frags: &mut [Fragment<V, E>]) {
    attach_routing_tables(frags);
}

/// Re-derive the routing tables of the fragments marked in `need`,
/// resolving destination-local ids through the complete peer set.
///
/// The incremental patch and migration paths use this to keep routing
/// cost proportional to the touched fragments: a fragment needs a fresh
/// table iff its own structure changed *or* one of its destinations was
/// renumbered. `frags` must be the complete partition.
pub fn rebuild_routing_tables_where<V, E>(frags: &mut [&mut Fragment<V, E>], need: &[bool]) {
    assert_eq!(frags.len(), need.len());
    let tables: Vec<Option<RoutingTable>> = frags
        .iter()
        .zip(need)
        .map(|(f, &n)| n.then(|| routing_table_for(f, &|d, g| frags[d as usize].local(g))))
        .collect();
    for (f, t) in frags.iter_mut().zip(tables) {
        if let Some(t) = t {
            f.set_routing(t);
        }
    }
}

/// The fragment a (stored or logical) edge `u -> v` lives at under the
/// hash vertex-cut assignment: the hash of the canonical endpoint pair,
/// so both stored directions of an undirected edge land together.
///
/// This is the single assignment rule shared by [`vertex_cut_partition`]
/// (initial build) and the in-place vertex-cut patch (delta apply):
/// because the rule depends only on the endpoints, edges never migrate
/// when *other* edges change, which is what makes the patch local.
#[inline]
pub fn vertex_cut_edge_frag(u: VertexId, v: VertexId, m: usize) -> FragId {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    let h = hash_u64(((a as u64) << 32) | b as u64);
    (h % m as u64) as FragId
}

/// Home fragment for a vertex with no incident edges under the hash
/// vertex-cut assignment (shared by the initial build and the patch).
#[inline]
pub fn vertex_cut_isolated_home(v: VertexId, m: usize) -> FragId {
    (hash_u64(v as u64) % m as u64) as FragId
}

/// Balanced pseudo-random edge-cut: vertex `v` goes to `hash(v) % m`.
pub fn hash_partition<V, E>(g: &Graph<V, E>, m: usize) -> Vec<FragId> {
    assert!(m > 0 && m <= FragId::MAX as usize + 1);
    g.vertices().map(|v| (hash_u64(v as u64) % m as u64) as FragId).collect()
}

/// Contiguous ranges of vertex ids: vertex `v` goes to `v * m / n`.
///
/// For generators that lay vertices out with locality (e.g. the 2-D lattice)
/// this produces low cut ratios, mimicking a good offline partitioner.
pub fn range_partition<V, E>(g: &Graph<V, E>, m: usize) -> Vec<FragId> {
    assert!(m > 0 && m <= FragId::MAX as usize + 1);
    let n = g.num_vertices().max(1);
    g.vertices().map(|v| ((v as usize * m) / n) as FragId).collect()
}

/// Linear Deterministic Greedy (LDG) streaming edge-cut.
///
/// Vertices are streamed in id order; each goes to the fragment with the
/// most already-placed neighbours, discounted by fullness:
/// `score(i) = |N(v) ∩ Vi| · (1 − |Vi| / C)` with capacity `C = α·n/m`.
pub fn ldg_partition<V, E>(g: &Graph<V, E>, m: usize, slack: f64) -> Vec<FragId> {
    assert!(m > 0 && m <= FragId::MAX as usize + 1);
    let n = g.num_vertices();
    let cap = ((n as f64 / m as f64) * slack).max(1.0);
    let mut assignment = vec![FragId::MAX; n];
    let mut sizes = vec![0usize; m];
    let mut neigh_count = vec![0u32; m];
    for v in g.vertices() {
        neigh_count.fill(0);
        for &t in g.neighbors(v) {
            let a = assignment[t as usize];
            if a != FragId::MAX {
                neigh_count[a as usize] += 1;
            }
        }
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for i in 0..m {
            let penalty = 1.0 - sizes[i] as f64 / cap;
            let score = neigh_count[i] as f64 * penalty.max(0.0)
                + penalty * 1e-9 // tie-break toward emptier fragments
                - if sizes[i] as f64 >= cap { 1e9 } else { 0.0 };
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        assignment[v as usize] = best as FragId;
        sizes[best] += 1;
    }
    assignment
}

/// Deliberately skewed edge-cut: fragment 0 receives `straggler_factor`
/// times as many vertices as each remaining fragment; the rest are spread
/// by hash. `straggler_factor = 1.0` degenerates to a balanced partition.
///
/// This reproduces the §7 methodology of "randomly reshuffling a small
/// portion of each partitioned input graph ... making the graphs skewed",
/// with an explicit dial for the skew measure `r` of Fig 6(k).
pub fn skewed_partition<V, E>(g: &Graph<V, E>, m: usize, straggler_factor: f64) -> Vec<FragId> {
    assert!(m > 1 && m <= FragId::MAX as usize + 1);
    assert!(straggler_factor >= 1.0);
    let n = g.num_vertices();
    // n = s·x + (m-1)·x  =>  x = n / (s + m - 1)
    let x = n as f64 / (straggler_factor + (m - 1) as f64);
    let big = (straggler_factor * x).round() as usize;
    let mut assignment = Vec::with_capacity(n);
    for v in g.vertices() {
        // Spread vertex ids pseudo-randomly so the big fragment is not one
        // contiguous (and perhaps low-diameter) region.
        let h = hash_u64(v as u64);
        let slot = (h % n.max(1) as u64) as usize;
        if slot < big {
            assignment.push(0);
        } else {
            assignment.push((1 + (h >> 32) as usize % (m - 1)) as FragId);
        }
    }
    assignment
}

/// Hash-based vertex-cut: each logical edge goes to a fragment by the hash
/// of its canonical endpoint pair, so both stored directions of an
/// undirected edge land together. Returns one `FragId` per *stored* edge in
/// CSR order.
pub fn vertex_cut_partition<V, E>(g: &Graph<V, E>, m: usize) -> Vec<FragId> {
    assert!(m > 0 && m <= FragId::MAX as usize + 1);
    let mut out = Vec::with_capacity(g.num_edges());
    for (u, v, _) in g.all_edges() {
        out.push(vertex_cut_edge_frag(u, v, m));
    }
    out
}

/// Build edge-cut fragments from a per-vertex assignment.
///
/// The number of fragments is `max(assignment) + 1`; use
/// [`build_fragments_n`] to force a fragment count (empty fragments are
/// allowed and participate in the run as immediately-inactive workers).
pub fn build_fragments<V: Clone, E: Clone>(
    g: &Graph<V, E>,
    assignment: &[FragId],
) -> Vec<Fragment<V, E>> {
    let m = assignment.iter().copied().max().map_or(1, |x| x as usize + 1);
    build_fragments_n(g, assignment, m)
}

/// Build exactly `m` edge-cut fragments from a per-vertex assignment.
pub fn build_fragments_n<V: Clone, E: Clone>(
    g: &Graph<V, E>,
    assignment: &[FragId],
    m: usize,
) -> Vec<Fragment<V, E>> {
    assert_eq!(assignment.len(), g.num_vertices());
    assert!(m > 0 && m <= FragId::MAX as usize + 1);
    debug_assert!(assignment.iter().all(|&a| (a as usize) < m));

    // Owned vertices per fragment, ascending global order.
    let mut owned: Vec<Vec<VertexId>> = vec![Vec::new(); m];
    for v in g.vertices() {
        owned[assignment[v as usize] as usize].push(v);
    }

    // Sweep cut edges once to find mirrors, border sets and holders.
    let mut mirrors: Vec<Vec<VertexId>> = vec![Vec::new(); m]; // at frag i: targets owned elsewhere
    let mut inner_in_g: Vec<Vec<VertexId>> = vec![Vec::new(); m]; // at owner: has in cut edge
    let mut inner_out_g: Vec<Vec<VertexId>> = vec![Vec::new(); m];
    let mut holder_pairs: Vec<Vec<(VertexId, FragId)>> = vec![Vec::new(); m]; // at owner of v: (v, mirror frag)
    for (u, v, _) in g.all_edges() {
        let (fu, fv) = (assignment[u as usize], assignment[v as usize]);
        if fu != fv {
            mirrors[fu as usize].push(v);
            inner_out_g[fu as usize].push(u);
            inner_in_g[fv as usize].push(v);
            holder_pairs[fv as usize].push((v, fu));
        }
    }

    let mut frags = Vec::with_capacity(m);
    for i in 0..m {
        let own = &owned[i];
        let mut mir = std::mem::take(&mut mirrors[i]);
        mir.sort_unstable();
        mir.dedup();
        // Local id map: owned first, mirrors after.
        let mut g2l: FxHashMap<VertexId, LocalId> = FxHashMap::default();
        g2l.reserve(own.len() + mir.len());
        for (l, &v) in own.iter().chain(mir.iter()).enumerate() {
            g2l.insert(v, l as LocalId);
        }
        // Local CSR: every out-edge of an owned vertex is stored locally.
        let n_local = own.len() + mir.len();
        let mut offsets = vec![0usize; n_local + 1];
        for (l, &v) in own.iter().enumerate() {
            offsets[l + 1] = g.degree(v);
        }
        for l in 1..=n_local {
            offsets[l] += offsets[l - 1];
        }
        let m_local = offsets[n_local];
        let mut targets = Vec::with_capacity(m_local);
        let mut edge_data = Vec::with_capacity(m_local);
        for &v in own.iter() {
            for (t, d) in g.edges(v) {
                targets.push(g2l[&t]);
                edge_data.push(d.clone());
            }
        }
        let node_data: Vec<V> = own.iter().chain(mir.iter()).map(|&v| g.node(v).clone()).collect();
        let globals: Vec<VertexId> = own.iter().chain(mir.iter()).copied().collect();
        let local_graph =
            Graph::from_parts(g.is_directed(), node_data, offsets, targets, edge_data);

        let mut inner_in: Vec<LocalId> = {
            let mut s = std::mem::take(&mut inner_in_g[i]);
            s.sort_unstable();
            s.dedup();
            s.iter().map(|v| g2l[v]).collect()
        };
        inner_in.sort_unstable();
        let mut inner_out: Vec<LocalId> = {
            let mut s = std::mem::take(&mut inner_out_g[i]);
            s.sort_unstable();
            s.dedup();
            s.iter().map(|v| g2l[v]).collect()
        };
        inner_out.sort_unstable();
        let mirror_owner: Vec<FragId> = mir.iter().map(|&v| assignment[v as usize]).collect();

        // Holder CSR over owned locals.
        let mut pairs = std::mem::take(&mut holder_pairs[i]);
        pairs.sort_unstable();
        pairs.dedup();
        let mut holder_offsets = vec![0u32; own.len() + 1];
        let mut holders = Vec::with_capacity(pairs.len());
        for &(v, f) in &pairs {
            let l = g2l[&v] as usize;
            debug_assert!(l < own.len());
            holder_offsets[l + 1] += 1;
            holders.push(f);
        }
        for l in 1..=own.len() {
            holder_offsets[l] += holder_offsets[l - 1];
        }

        frags.push(Fragment::from_parts(
            i as FragId,
            m as u16,
            false,
            local_graph,
            globals,
            own.len(),
            inner_in,
            inner_out,
            mirror_owner,
            holder_offsets,
            holders,
        ));
    }
    attach_routing_tables(&mut frags);
    frags
}

/// Build vertex-cut fragments from a per-stored-edge assignment (as produced
/// by [`vertex_cut_partition`]; edges are indexed in CSR order).
///
/// Every endpoint of an edge assigned to fragment `i` has a *copy* at `i`.
/// Among the fragments holding copies of `v`, the owner is chosen
/// deterministically as `holders[v % |holders|]`. Copies (unlike edge-cut
/// mirrors) carry their incident edges, so computation can proceed at every
/// copy; updates are routed copy -> owner -> copies.
pub fn build_fragments_vertex_cut<V: Clone, E: Clone>(
    g: &Graph<V, E>,
    edge_assignment: &[FragId],
) -> Vec<Fragment<V, E>> {
    let m = edge_assignment.iter().copied().max().map_or(1, |x| x as usize + 1);
    build_fragments_vertex_cut_n(g, edge_assignment, m)
}

/// Build exactly `m` vertex-cut fragments from a per-stored-edge
/// assignment (empty fragments participate as immediately-inactive
/// workers, mirroring [`build_fragments_n`]).
pub fn build_fragments_vertex_cut_n<V: Clone, E: Clone>(
    g: &Graph<V, E>,
    edge_assignment: &[FragId],
    m: usize,
) -> Vec<Fragment<V, E>> {
    assert_eq!(edge_assignment.len(), g.num_edges());
    assert!(m > 0 && m <= FragId::MAX as usize + 1);
    debug_assert!(edge_assignment.iter().all(|&a| (a as usize) < m));

    // Which fragments hold a copy of each vertex.
    let mut holder_sets: Vec<Vec<FragId>> = vec![Vec::new(); g.num_vertices()];
    for (idx, (u, v, _)) in g.all_edges().enumerate() {
        let f = edge_assignment[idx];
        holder_sets[u as usize].push(f);
        holder_sets[v as usize].push(f);
    }
    for hs in &mut holder_sets {
        hs.sort_unstable();
        hs.dedup();
    }
    // Isolated vertices still need a home.
    for (v, hs) in holder_sets.iter_mut().enumerate() {
        if hs.is_empty() {
            hs.push(vertex_cut_isolated_home(v as VertexId, m));
        }
    }
    let owner_of: Vec<FragId> =
        holder_sets.iter().enumerate().map(|(v, hs)| hs[v % hs.len()]).collect();

    // Vertex copies per fragment, split owned / non-owned.
    let mut owned: Vec<Vec<VertexId>> = vec![Vec::new(); m];
    let mut copies: Vec<Vec<VertexId>> = vec![Vec::new(); m];
    for v in g.vertices() {
        for &f in &holder_sets[v as usize] {
            if owner_of[v as usize] == f {
                owned[f as usize].push(v);
            } else {
                copies[f as usize].push(v);
            }
        }
    }

    // Edges per fragment.
    let mut frag_edges: Vec<Vec<(VertexId, VertexId, E)>> = vec![Vec::new(); m];
    for (idx, (u, v, d)) in g.all_edges().enumerate() {
        frag_edges[edge_assignment[idx] as usize].push((u, v, d.clone()));
    }

    let mut frags = Vec::with_capacity(m);
    for i in 0..m {
        let own = &owned[i];
        let cop = &copies[i];
        let mut g2l: FxHashMap<VertexId, LocalId> = FxHashMap::default();
        for (l, &v) in own.iter().chain(cop.iter()).enumerate() {
            g2l.insert(v, l as LocalId);
        }
        let n_local = own.len() + cop.len();
        let mut deg = vec![0usize; n_local + 1];
        for (u, _, _) in &frag_edges[i] {
            deg[g2l[u] as usize + 1] += 1;
        }
        for l in 1..=n_local {
            deg[l] += deg[l - 1];
        }
        let offsets = deg.clone();
        let mut cursor = deg;
        let mut targets = vec![0 as LocalId; frag_edges[i].len()];
        let mut slots: Vec<Option<E>> = vec![None; frag_edges[i].len()];
        for (u, v, d) in frag_edges[i].drain(..) {
            let s = cursor[g2l[&u] as usize];
            cursor[g2l[&u] as usize] += 1;
            targets[s] = g2l[&v];
            slots[s] = Some(d);
        }
        let edge_data: Vec<E> = slots.into_iter().map(|s| s.expect("filled")).collect();
        let node_data: Vec<V> = own.iter().chain(cop.iter()).map(|&v| g.node(v).clone()).collect();
        let globals: Vec<VertexId> = own.iter().chain(cop.iter()).copied().collect();
        let local_graph =
            Graph::from_parts(g.is_directed(), node_data, offsets, targets, edge_data);

        // Border sets: owned vertices replicated elsewhere.
        let mut border: Vec<LocalId> = own
            .iter()
            .enumerate()
            .filter(|(_, &v)| holder_sets[v as usize].len() > 1)
            .map(|(l, _)| l as LocalId)
            .collect();
        border.sort_unstable();
        let mirror_owner: Vec<FragId> = cop.iter().map(|&v| owner_of[v as usize]).collect();
        let mut holder_offsets = vec![0u32; own.len() + 1];
        let mut holders = Vec::new();
        for (l, &v) in own.iter().enumerate() {
            for &f in &holder_sets[v as usize] {
                if f != i as FragId {
                    holders.push(f);
                    holder_offsets[l + 1] += 1;
                }
            }
        }
        for l in 1..=own.len() {
            holder_offsets[l] += holder_offsets[l - 1];
        }

        frags.push(Fragment::from_parts(
            i as FragId,
            m as u16,
            true,
            local_graph,
            globals,
            own.len(),
            border.clone(),
            border,
            mirror_owner,
            holder_offsets,
            holders,
        ));
    }
    attach_routing_tables(&mut frags);
    frags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn ring(n: usize) -> Graph<(), u32> {
        let mut b = crate::GraphBuilder::new_undirected(n);
        for v in 0..n as VertexId {
            b.add_edge(v, (v + 1) % n as VertexId, 1);
        }
        b.build()
    }

    #[test]
    fn hash_partition_balanced() {
        let g = ring(1000);
        let a = hash_partition(&g, 8);
        let mut sizes = vec![0usize; 8];
        for &f in &a {
            sizes[f as usize] += 1;
        }
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min < 200, "sizes {sizes:?}");
    }

    #[test]
    fn range_partition_contiguous() {
        let g = ring(100);
        let a = range_partition(&g, 4);
        assert_eq!(a[0], 0);
        assert_eq!(a[99], 3);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ldg_cuts_fewer_edges_than_hash() {
        let g = generate::lattice2d(20, 20, 7);
        let hash = build_fragments(&g, &hash_partition(&g, 4));
        let ldg = build_fragments(&g, &ldg_partition(&g, 4, 1.1));
        let cut = |frags: &[Fragment<(), u32>]| crate::fragment::partition_stats(frags).cut_edges;
        assert!(cut(&ldg) < cut(&hash), "ldg {} vs hash {}", cut(&ldg), cut(&hash));
    }

    #[test]
    fn skewed_partition_hits_dial() {
        let g = ring(10_000);
        let a = skewed_partition(&g, 8, 4.0);
        let mut sizes = vec![0usize; 8];
        for &f in &a {
            sizes[f as usize] += 1;
        }
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let r = sizes[0] as f64 / median;
        assert!((3.0..5.5).contains(&r), "r = {r}, sizes {sizes:?}");
    }

    #[test]
    fn vertex_cut_pairs_stay_together() {
        let g = ring(50);
        let a = vertex_cut_partition(&g, 4);
        // stored edges come in (u,v) and (v,u); both must share a fragment.
        let mut seen: std::collections::HashMap<(u32, u32), FragId> =
            std::collections::HashMap::new();
        for (idx, (u, v, _)) in g.all_edges().enumerate() {
            let key = (u.min(v), u.max(v));
            let f = a[idx];
            if let Some(&prev) = seen.get(&key) {
                assert_eq!(prev, f);
            } else {
                seen.insert(key, f);
            }
        }
    }

    #[test]
    fn vertex_cut_fragments_cover_edges_and_own_each_vertex_once() {
        let g = ring(64);
        let a = vertex_cut_partition(&g, 4);
        let frags = build_fragments_vertex_cut(&g, &a);
        let total_edges: usize = frags.iter().map(|f| f.edge_count()).sum();
        assert_eq!(total_edges, g.num_edges());
        let mut owned = vec![0u32; 64];
        for f in &frags {
            for l in f.owned_vertices() {
                owned[f.global(l) as usize] += 1;
            }
        }
        assert!(owned.iter().all(|&c| c == 1), "{owned:?}");
    }

    #[test]
    fn empty_fragment_allowed() {
        let g = ring(4);
        // Force all vertices to fragment 0 of 3.
        let frags = build_fragments_n(&g, &[0, 0, 0, 0], 3);
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[1].owned_count(), 0);
        assert_eq!(frags[1].local_count(), 0);
    }
}
