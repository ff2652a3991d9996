//! Direct property tests for `aap_graph::mutate` — the per-touched-
//! fragment CSR re-pack and the mirror-diff → holder-event machinery
//! were previously covered only transitively (through `aap-delta`'s
//! equivalence suites). Here [`apply_partition_edit`] is driven with
//! random resolved edits and compared, fragment by fragment, against a
//! from-scratch `build_fragments_n` of the edited global graph, plus
//! the structural invariants the routing layer relies on.

use aap_graph::mutate::{apply_partition_edit, EditBuffers, FragmentEdit, PartitionEdit};
use aap_graph::partition::{build_fragments_n, hash_partition};
use aap_graph::{generate, Fragment, FxHashMap, FxHashSet, Graph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// A random resolved edit against `g` under `assignment`: edge inserts,
/// removals of existing edges, weight overwrites, at most one vertex
/// isolation and at most one (wired-in) vertex addition. Returns the
/// edit plus the expected edited global graph.
#[allow(clippy::type_complexity)]
fn random_edit(
    g: &Graph<(), u32>,
    assignment: &[u16],
    m: usize,
    seed: u64,
) -> (PartitionEdit<(), u32>, Graph<(), u32>) {
    let n = g.num_vertices() as u32;
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    // Pick the ops in global terms first.
    let removed_vertex: Option<u32> = (next() % 3 == 0).then(|| (next() % n as u64) as u32);
    let added_vertex: Option<u32> = (next() % 3 == 0).then_some(n);
    let dead = |v: u32| removed_vertex == Some(v);
    let mut removes: Vec<(u32, u32)> = Vec::new();
    for _ in 0..(next() % 4) {
        let u = (next() % n as u64) as u32;
        if let Some(&t) = g.neighbors(u).first() {
            if !dead(u) && !dead(t) {
                removes.push((u, t));
            }
        }
    }
    let mut inserts: Vec<(u32, u32, u32)> = Vec::new();
    for _ in 0..(1 + next() % 4) {
        let (u, v) = ((next() % n as u64) as u32, (next() % n as u64) as u32);
        let clashes = removes.iter().any(|&(a, b)| (a, b) == (u, v) || (b, a) == (u, v));
        if u != v && !dead(u) && !dead(v) && !clashes {
            inserts.push((u, v, 1 + (next() % 9) as u32));
        }
    }
    if let Some(a) = added_vertex {
        let mut x = (next() % n as u64) as u32;
        if dead(x) {
            x = (x + 1) % n;
        }
        inserts.push((a, x, 2));
    }
    let mut setw: Vec<(u32, u32, u32)> = Vec::new();
    for _ in 0..(next() % 3) {
        let u = (next() % n as u64) as u32;
        if let Some(&t) = g.neighbors(u).first() {
            let clashes = removes.iter().any(|&(a, b)| (a, b) == (u, t) || (b, a) == (u, t));
            if !dead(u) && !dead(t) && !clashes {
                setw.push((u, t, 1 + (next() % 30) as u32));
            }
        }
    }

    // Resolve to a PartitionEdit the way `aap-delta` would (undirected:
    // each logical op lands at both stored-source owners).
    let owner = |v: u32| -> u16 {
        if v < n {
            assignment[v as usize]
        } else {
            (v % m as u32) as u16
        }
    };
    let mut edit = PartitionEdit {
        frags: vec![FragmentEdit::default(); m],
        removed_vertices: FxHashSet::default(),
        owners: FxHashMap::default(),
        touched: vec![false; m],
    };
    let mention = |edit: &mut PartitionEdit<(), u32>, v: u32| {
        edit.owners.insert(v, owner(v));
    };
    for &(u, v, w) in &inserts {
        edit.frags[owner(u) as usize].insert_edges.push((u, v, w));
        edit.frags[owner(v) as usize].insert_edges.push((v, u, w));
        mention(&mut edit, u);
        mention(&mut edit, v);
    }
    for &(u, v) in &removes {
        edit.frags[owner(u) as usize].remove_edges.push((u, v));
        edit.frags[owner(v) as usize].remove_edges.push((v, u));
        mention(&mut edit, u);
        mention(&mut edit, v);
    }
    for &(u, v, w) in &setw {
        edit.frags[owner(u) as usize].set_weights.push((u, v, w));
        edit.frags[owner(v) as usize].set_weights.push((v, u, w));
        mention(&mut edit, u);
        mention(&mut edit, v);
    }
    if let Some(a) = added_vertex {
        edit.frags[owner(a) as usize].add_owned.push((a, ()));
        mention(&mut edit, a);
    }
    if let Some(w) = removed_vertex {
        edit.removed_vertices.insert(w);
        mention(&mut edit, w);
    }
    edit.touched = edit.frags.iter().map(|fe| !fe.is_empty()).collect();
    if let Some(w) = removed_vertex {
        // The holder fragments of `w` are resolved against the pre-apply
        // fragments by `touch_removed_vertex_holders`.
        edit.touched[owner(w) as usize] = true;
    }

    // Reference: the edited global graph.
    let n_new = if added_vertex.is_some() { n + 1 } else { n };
    let mut b = GraphBuilder::new_undirected(n_new as usize);
    let removed_pairs: FxHashSet<(u32, u32)> =
        removes.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
    let setw_map: FxHashMap<(u32, u32), u32> =
        setw.iter().flat_map(|&(u, v, w)| [((u, v), w), ((v, u), w)]).collect();
    for (u, v, d) in g.all_edges() {
        if u < v && !removed_pairs.contains(&(u, v)) && !dead(u) && !dead(v) {
            b.add_edge(u, v, *setw_map.get(&(u, v)).unwrap_or(d));
        }
    }
    for &(u, v, w) in &inserts {
        b.add_edge(u, v, w);
    }
    (edit, b.build())
}

/// Mark the holder fragments of a to-be-removed vertex as touched (needs
/// the pre-apply fragments, so it runs after `random_edit`).
fn touch_removed_vertex_holders(edit: &mut PartitionEdit<(), u32>, frags: &[Fragment<(), u32>]) {
    for &w in edit.removed_vertices.clone().iter() {
        let o = edit.owners[&w] as usize;
        edit.touched[o] = true;
        let f = &frags[o];
        let l = f.local(w).expect("removed vertex exists at its owner");
        for &h in f.mirror_holders(l) {
            edit.touched[h as usize] = true;
        }
    }
}

fn assert_fragments_match(got: &[Fragment<(), u32>], want: &[Fragment<(), u32>]) {
    for (f, e) in got.iter().zip(want) {
        assert_eq!(f.owned_count(), e.owned_count(), "frag {} owned", f.id());
        assert_eq!(f.globals(), e.globals(), "frag {} locals", f.id());
        assert_eq!(f.inner_in(), e.inner_in(), "frag {} inner_in", f.id());
        assert_eq!(f.inner_out(), e.inner_out(), "frag {} inner_out", f.id());
        assert_eq!(f.routing().dests(), e.routing().dests(), "frag {} dests", f.id());
        for l in f.local_vertices() {
            let mut a: Vec<_> = f.edges(l).map(|(t, d)| (f.global(t), *d)).collect();
            let mut bb: Vec<_> = e.edges(l).map(|(t, d)| (e.global(t), *d)).collect();
            a.sort_unstable();
            bb.sort_unstable();
            assert_eq!(a, bb, "frag {} vertex {} adjacency", f.id(), f.global(l));
            assert_eq!(f.routing().fanout(l), e.routing().fanout(l), "frag {} fanout", f.id());
            if f.is_owned(l) {
                assert_eq!(f.mirror_holders(l), e.mirror_holders(l), "frag {} holders", f.id());
            }
        }
    }
}

/// The routing symmetry invariant the engines rely on: `v` mirrored at
/// `Fj` ⟺ `Fj ∈ holders(v)` at the owner — checked directly, both ways.
fn assert_holder_symmetry(frags: &[Fragment<(), u32>]) {
    for f in frags {
        for l in f.local_vertices() {
            let g = f.global(l);
            if f.is_owned(l) {
                for &h in f.mirror_holders(l) {
                    let peer = &frags[h as usize];
                    let pl =
                        peer.local(g).unwrap_or_else(|| panic!("holder {h} lacks a copy of {g}"));
                    assert!(!peer.is_owned(pl), "holder copy of {g} must be a mirror");
                    assert_eq!(peer.owner(pl), f.id(), "mirror of {g} points at wrong owner");
                }
            } else {
                let owner = &frags[f.owner(l) as usize];
                let ol = owner.local(g).expect("owner holds the vertex");
                assert!(owner.is_owned(ol));
                assert!(
                    owner.mirror_holders(ol).contains(&f.id()),
                    "owner of {g} does not list fragment {} as holder",
                    f.id()
                );
            }
        }
    }
}

/// Exact structural equality — not the sorted-multiset comparison of
/// [`assert_fragments_match`]: the parallel apply promises a result
/// **byte-identical** to the serial one, so edge order, local id order,
/// border vectors, and routing tables must all agree verbatim.
fn assert_fragments_identical(got: &[Fragment<(), u32>], want: &[Fragment<(), u32>]) {
    for (f, e) in got.iter().zip(want) {
        assert_eq!(f.owned_count(), e.owned_count(), "frag {} owned", f.id());
        assert_eq!(f.globals(), e.globals(), "frag {} locals", f.id());
        assert_eq!(f.inner_in(), e.inner_in(), "frag {} inner_in", f.id());
        assert_eq!(f.inner_out(), e.inner_out(), "frag {} inner_out", f.id());
        assert_eq!(f.routing().dests(), e.routing().dests(), "frag {} dests", f.id());
        for l in f.local_vertices() {
            assert_eq!(f.neighbors(l), e.neighbors(l), "frag {} vertex {} targets", f.id(), l);
            assert_eq!(f.edge_data(l), e.edge_data(l), "frag {} vertex {} weights", f.id(), l);
            assert_eq!(f.routing().fanout(l), e.routing().fanout(l), "frag {} fanout", f.id());
            if f.is_owned(l) {
                assert_eq!(f.mirror_holders(l), e.mirror_holders(l), "frag {} holders", f.id());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32), ..ProptestConfig::default() })]

    /// The tentpole guarantee of the scoped-thread apply: at every
    /// thread count, the fragments *and* the `AppliedEdit` (remaps,
    /// seeds, weight counters) are byte-identical to the serial path.
    #[test]
    fn parallel_apply_is_byte_identical_to_serial(
        n in 16usize..90,
        k in 1usize..3,
        gseed in 0u64..100,
        m in 2usize..6,
        eseed in 0u64..10_000,
        threads in 2usize..5,
    ) {
        let g = generate::small_world(n, k, 0.2, gseed);
        let assignment = hash_partition(&g, m);
        let mut serial = build_fragments_n(&g, &assignment, m);
        let (mut edit, _) = random_edit(&g, &assignment, m, eseed);
        touch_removed_vertex_holders(&mut edit, &serial);
        let mut parallel = serial.clone();

        let mut bufs = EditBuffers::default();
        let a = {
            let mut refs: Vec<&mut Fragment<(), u32>> = serial.iter_mut().collect();
            apply_partition_edit(&mut refs, &edit, &mut bufs, 1)
        };
        // Reuse the same buffer pool across both thread counts — pooled
        // state must not leak one batch's contents into the next.
        let b = {
            let mut refs: Vec<&mut Fragment<(), u32>> = parallel.iter_mut().collect();
            apply_partition_edit(&mut refs, &edit, &mut bufs, threads)
        };

        prop_assert_eq!(&a.remaps, &b.remaps);
        prop_assert_eq!(&a.seeds, &b.seeds);
        prop_assert_eq!(a.weights_decreased, b.weights_decreased);
        prop_assert_eq!(a.weights_increased, b.weights_increased);
        assert_fragments_identical(&parallel, &serial);
        assert_holder_symmetry(&parallel);
    }

    /// The weight-only fast path (no structural ops ⇒ in-place weight
    /// patching) must be indistinguishable from a full rebuild of the
    /// edited graph, including the direction counters.
    #[test]
    fn weight_only_fast_path_matches_full_rebuild(
        n in 16usize..90,
        gseed in 0u64..100,
        m in 2usize..5,
        wseed in 0u64..10_000,
    ) {
        let g = generate::small_world(n, 2, 0.2, gseed);
        let assignment = hash_partition(&g, m);
        let mut frags = build_fragments_n(&g, &assignment, m);

        let mut state = wseed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut edit = PartitionEdit {
            frags: vec![FragmentEdit::default(); m],
            removed_vertices: FxHashSet::default(),
            owners: FxHashMap::default(),
            touched: vec![false; m],
        };
        let mut setw: Vec<(u32, u32, u32)> = Vec::new();
        for _ in 0..(1 + next() % 6) {
            let u = (next() % n as u64) as u32;
            if let Some(&t) = g.neighbors(u).first() {
                setw.push((u, t, 1 + (next() % 30) as u32));
            }
        }
        if setw.is_empty() {
            return Ok(()); // isolated picks: nothing to overwrite
        }
        for &(u, v, w) in &setw {
            edit.frags[assignment[u as usize] as usize].set_weights.push((u, v, w));
            edit.frags[assignment[v as usize] as usize].set_weights.push((v, u, w));
        }
        edit.touched = edit.frags.iter().map(|fe| !fe.is_empty()).collect();

        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            apply_partition_edit(&mut refs, &edit, &mut EditBuffers::default(), 1)
        };
        // Weight-only: identity remaps everywhere, seeds only in
        // touched fragments.
        for (i, r) in applied.remaps.iter().enumerate() {
            prop_assert!(r.is_identity(), "frag {i} renumbered by a weight-only batch");
        }

        // Reference: rebuild from the edited global graph (last
        // overwrite of a pair wins, matching the apply's resolution).
        let setw_map: FxHashMap<(u32, u32), u32> =
            setw.iter().flat_map(|&(u, v, w)| [((u, v), w), ((v, u), w)]).collect();
        let mut b = GraphBuilder::new_undirected(n);
        for (u, v, d) in g.all_edges() {
            if u < v {
                b.add_edge(u, v, *setw_map.get(&(u, v)).unwrap_or(d));
            }
        }
        let expect = build_fragments_n(&b.build(), &assignment, m);
        assert_fragments_match(&frags, &expect);
        assert_holder_symmetry(&frags);
    }

    #[test]
    fn apply_partition_edit_matches_full_rebuild(
        n in 16usize..90,
        k in 1usize..3,
        gseed in 0u64..100,
        m in 2usize..5,
        eseed in 0u64..10_000,
    ) {
        let g = generate::small_world(n, k, 0.2, gseed);
        let assignment = hash_partition(&g, m);
        let mut frags = build_fragments_n(&g, &assignment, m);
        let (mut edit, g_expect) = random_edit(&g, &assignment, m, eseed);
        touch_removed_vertex_holders(&mut edit, &frags);

        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            apply_partition_edit(&mut refs, &edit, &mut EditBuffers::default(), 1)
        };

        // The assignment of surviving vertices is unchanged; fresh
        // vertices land at their resolved owner.
        let mut assignment2: Vec<u16> = assignment.clone();
        if g_expect.num_vertices() > g.num_vertices() {
            assignment2.push(edit.owners[&(g.num_vertices() as VertexId)]);
        }
        let expect = build_fragments_n(&g_expect, &assignment2, m);
        assert_fragments_match(&frags, &expect);
        assert_holder_symmetry(&frags);

        // Remaps are consistent with the surviving global ids, and seeds
        // are valid new locals.
        for (i, f) in frags.iter().enumerate() {
            prop_assert_eq!(applied.remaps[i].new_local_count(), f.local_count());
            for &s in &applied.seeds[i] {
                prop_assert!((s as usize) < f.local_count());
            }
        }
    }

    #[test]
    fn untouched_fragments_keep_identity_remaps(
        n in 30usize..90,
        gseed in 0u64..100,
        m in 3usize..6,
    ) {
        // A purely local insert inside fragment 0's owned set touches
        // only fragment 0 (plus renumber-dependent routing peers).
        let g = generate::small_world(n, 2, 0.1, gseed);
        let assignment = hash_partition(&g, m);
        let mut frags = build_fragments_n(&g, &assignment, m);
        let owned0: Vec<u32> =
            (0..n as u32).filter(|&v| assignment[v as usize] == 0).collect();
        if owned0.len() < 2 {
            return Ok(()); // degenerate assignment: nothing to check
        }
        let (u, v) = (owned0[0], owned0[1]);

        let mut edit = PartitionEdit {
            frags: vec![FragmentEdit::default(); m],
            removed_vertices: FxHashSet::default(),
            owners: FxHashMap::default(),
            touched: vec![false; m],
        };
        edit.frags[0].insert_edges.push((u, v, 3));
        edit.frags[0].insert_edges.push((v, u, 3));
        edit.owners.insert(u, 0);
        edit.owners.insert(v, 0);
        edit.touched[0] = true;

        let before: Vec<Vec<VertexId>> = frags.iter().map(|f| f.globals().to_vec()).collect();
        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            apply_partition_edit(&mut refs, &edit, &mut EditBuffers::default(), 1)
        };
        for i in 1..m {
            prop_assert!(applied.remaps[i].is_identity(), "frag {i} should be untouched");
            prop_assert!(applied.seeds[i].is_empty(), "frag {i} should have no seeds");
            prop_assert_eq!(&frags[i].globals().to_vec(), &before[i]);
        }
        assert_holder_symmetry(&frags);
    }
}
