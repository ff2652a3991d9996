//! `EditBuffers` capacity retention (ISSUE 6 satellite): streaming many
//! small delta batches through the in-place apply path must reach an
//! allocation steady state — after warm-up, every batch performs the
//! same, small number of heap allocations (the returned [`AppliedEdit`]
//! vectors and nothing else on the weight-only fast path), because the
//! scratch lives in the pooled [`EditBuffers`] and retains its capacity
//! across batches — and a structural batch may request little more than
//! the fragments it rewrites. Counts with the per-thread allocator of
//! `tests/common`.
//!
//! [`AppliedEdit`]: grape_aap::graph::mutate::AppliedEdit

use grape_aap::graph::mutate::{apply_partition_edit, EditBuffers, FragmentEdit, PartitionEdit};
use grape_aap::graph::partition::{
    build_fragments_n, build_fragments_vertex_cut_n, hash_partition, vertex_cut_partition,
};
use grape_aap::graph::{generate, Fragment, FxHashMap, FxHashSet};
use grape_aap::prelude::*;

mod common;
use common::{allocs, bytes};

const M: usize = 4;

fn fragments(vertex_cut: bool) -> Vec<Fragment<(), u32>> {
    let g = generate::small_world(800, 3, 0.2, 7);
    if vertex_cut {
        build_fragments_vertex_cut_n(&g, &vertex_cut_partition(&g, M), M)
    } else {
        build_fragments_n(&g, &hash_partition(&g, M), M)
    }
}

/// A weight-only edit naming a handful of stored edges in fragment 0,
/// alternating between two weight values so every batch really patches.
fn weight_edit(frags: &[Fragment<(), u32>], w: u32) -> PartitionEdit<(), u32> {
    let f = &frags[0];
    let mut edits: Vec<FragmentEdit<(), u32>> = (0..M).map(|_| FragmentEdit::default()).collect();
    let mut owners: FxHashMap<VertexId, u16> = FxHashMap::default();
    let mut named = 0;
    'outer: for l in f.local_vertices() {
        for &t in f.neighbors(l) {
            let (u, v) = (f.global(l), f.global(t));
            edits[0].set_weights.push((u, v, w));
            owners.insert(u, 0);
            owners.insert(v, 0);
            named += 1;
            if named == 8 {
                break 'outer;
            }
        }
    }
    assert_eq!(named, 8, "graph must have stored edges in fragment 0");
    let mut touched = vec![false; M];
    touched[0] = true;
    PartitionEdit { frags: edits, removed_vertices: FxHashSet::default(), owners, touched }
}

/// The weight-only fast path, on edge-cut and on vertex-cut fragments:
/// after warm-up, every batch allocates the same small count — exactly
/// the returned `AppliedEdit` (remaps vector, seeds vectors), never the
/// scratch sets, which live in the pooled `EditBuffers` and keep their
/// capacity.
#[test]
fn weight_only_stream_reaches_a_small_constant_allocation_per_batch() {
    for vertex_cut in [false, true] {
        let mut frags = fragments(vertex_cut);
        let lo = weight_edit(&frags, 1);
        let hi = weight_edit(&frags, 9);
        let mut bufs = EditBuffers::default();

        let mut run_batch = |bufs: &mut EditBuffers, round: usize| {
            let edit = if round.is_multiple_of(2) { &lo } else { &hi };
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            let applied = apply_partition_edit(&mut refs, edit, bufs, 1);
            assert!(applied.remaps.iter().all(|r| r.is_identity()));
        };

        for round in 0..8 {
            run_batch(&mut bufs, round);
        }
        let a = allocs();
        for round in 8..24 {
            run_batch(&mut bufs, round);
        }
        let b = allocs();
        for round in 24..40 {
            run_batch(&mut bufs, round);
        }
        let c = allocs();

        assert_eq!(b - a, c - b, "vertex_cut = {vertex_cut}: steady-state windows must match");
        let per_batch = (b - a) / 16;
        // The returned AppliedEdit: one remaps Vec, one seeds outer Vec,
        // one non-empty inner seeds Vec (+ possible growth doubling) —
        // anything beyond ~8 means scratch state leaked out of the pool.
        assert!(
            per_batch <= 8,
            "vertex_cut = {vertex_cut}: weight-only batch allocated {per_batch} times"
        );
    }
}

/// Structural batches (insert + remove, CSR splice) through the full
/// delta layer: the splice itself must allocate (the new fragment's
/// arrays, the returned remaps/seeds), but its *scratch* — the sorted op
/// list, the per-local mark bytes — is pooled, so after warm-up every
/// window allocates identically — and a stream that throws its
/// `EditBuffers` away every batch pays strictly more.
#[test]
fn structural_stream_retains_scratch_capacity_across_batches() {
    use grape_aap::delta::apply::apply_to_fragments_par;

    let mut frags = fragments(false);
    let probe = {
        // An edge between two vertices owned by different fragments, so
        // the batch touches two fragments' CSRs every round.
        let f0 = &frags[0];
        let u = f0.global(f0.local_vertices().next().unwrap());
        let f1 = &frags[1];
        let v = f1.global(f1.local_vertices().next().unwrap());
        (u, v)
    };
    let add = {
        let mut b = DeltaBuilder::new();
        b.add_edge(probe.0, probe.1, 3u32);
        b.build()
    };
    let del = {
        let mut b = DeltaBuilder::new();
        b.remove_edge(probe.0, probe.1);
        b.build()
    };

    let mut run_batch = |bufs: &mut EditBuffers, round: usize| {
        let delta = if round.is_multiple_of(2) { &add } else { &del };
        let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
        apply_to_fragments_par(&mut refs, delta, bufs, 1);
    };

    // Pooled: warm up, then two measurement windows.
    let mut bufs = EditBuffers::default();
    for round in 0..8 {
        run_batch(&mut bufs, round);
    }
    let a = allocs();
    for round in 8..24 {
        run_batch(&mut bufs, round);
    }
    let b = allocs();
    for round in 24..40 {
        run_batch(&mut bufs, round);
    }
    let c = allocs();
    assert_eq!(b - a, c - b, "steady-state structural windows must allocate identically");

    // Throwaway buffers: same batches, fresh scratch every round.
    let d = allocs();
    for round in 8..24 {
        let mut fresh = EditBuffers::default();
        run_batch(&mut fresh, round);
    }
    let e = allocs();
    assert!(
        e - d > b - a,
        "throwaway EditBuffers ({}) should out-allocate the pooled stream ({})",
        e - d,
        b - a
    );
}

/// The splice writes each touched fragment once: a structural 0.1 %
/// batch on `rmat(14, 16)` may request at most 1.5× the heap footprint
/// of the fragments it rewrote — their new arrays, id map and routing
/// tables, the old→new tables handed back as remaps, and batch-sized
/// odds and ends. (An apply that expands fragments into global-id edge
/// triples, sorts them and hashes its way back asks for more than 3×.)
#[test]
fn structural_batch_requests_little_more_than_the_fragments_it_rewrites() {
    use grape_aap::delta::apply::apply_to_fragments_par;

    let g = generate::rmat(14, 16, true, 7);
    let mut frags = build_fragments_n(&g, &hash_partition(&g, M), M);
    let ops = g.num_edges() / 1000;
    let mut bufs = EditBuffers::default();
    let mut requested = 0;
    let mut changed = Vec::new();
    // Batch 0 warms the pooled buffers; batch 1 is measured.
    for seed in 0..2u64 {
        let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
        for (u, v, w) in
            grape_aap::delta::generate::insert_batch(&g, ops / 2, 9, seed).edges_added()
        {
            b.add_edge(*u, *v, *w);
        }
        for (u, v) in grape_aap::delta::generate::remove_batch(&g, ops / 2, seed).edges_removed() {
            b.remove_edge(*u, *v);
        }
        let delta = b.build();
        let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
        let before = bytes();
        let applied = apply_to_fragments_par(&mut refs, &delta, &mut bufs, 1);
        requested = bytes() - before;
        changed = applied.changed;
    }
    assert!(changed.iter().all(|&c| c), "a 0.1 % batch over 4 fragments rewrites them all");

    // What the rewritten fragments hold: cloning one requests exactly
    // its arrays.
    let before = bytes();
    let copies: Vec<Fragment<(), u32>> = frags.to_vec();
    let footprint = bytes() - before;
    drop(copies);
    assert!(
        2 * requested < 3 * footprint,
        "apply requested {requested} bytes, the rewritten fragments hold {footprint}"
    );
}
