//! `EditBuffers` capacity retention (ISSUE 6 satellite): streaming many
//! small delta batches through the in-place apply path must reach an
//! allocation steady state — after warm-up, every batch performs the
//! same, small number of heap allocations (the returned [`AppliedEdit`]
//! vectors and nothing else on the weight-only fast path), because the
//! scratch sets live in the pooled [`EditBuffers`] and retain their
//! capacity across batches. Counts with the per-thread allocator of
//! `tests/common`.
//!
//! [`AppliedEdit`]: grape_aap::graph::mutate::AppliedEdit

use grape_aap::graph::mutate::{apply_partition_edit, EditBuffers, FragmentEdit, PartitionEdit};
use grape_aap::graph::partition::{build_fragments_n, hash_partition};
use grape_aap::graph::{generate, Fragment, FxHashMap, FxHashSet};
use grape_aap::prelude::*;

mod common;
use common::allocs;

const M: usize = 4;

fn fragments() -> Vec<Fragment<(), u32>> {
    let g = generate::small_world(800, 3, 0.2, 7);
    build_fragments_n(&g, &hash_partition(&g, M), M)
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

/// The weight-only fast path: after warm-up, every batch allocates the
/// same small count — exactly the returned `AppliedEdit` (remaps vector,
/// seeds vectors), never the scratch sets, which live in the pooled
/// `EditBuffers` and keep their capacity.
#[test]
fn weight_only_stream_reaches_a_small_constant_allocation_per_batch() {
    let mut frags = fragments();
    let lo = weight_edit(&frags, 1);
    let hi = weight_edit(&frags, 9);
    let mut bufs = EditBuffers::default();

    let mut run_batch = |bufs: &mut EditBuffers, round: usize| {
        let edit = if round.is_multiple_of(2) { &lo } else { &hi };
        let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
        let applied = apply_partition_edit(&mut refs, edit, bufs);
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

    assert_eq!(b - a, c - b, "steady-state windows must allocate identically");
    let per_batch = (b - a) / 16;
    // The returned AppliedEdit: one remaps Vec, one seeds outer Vec, one
    // non-empty inner seeds Vec (+ possible growth doubling) — anything
    // beyond ~8 means scratch state leaked out of the pool.
    assert!(per_batch <= 8, "weight-only batch allocated {per_batch} times; pool not retained");
}

/// Structural batches (insert + remove, CSR repack) through the full
/// delta layer: the repack itself must allocate (fresh CSR vectors, the
/// returned remaps/seeds), but the *scratch* allocation is pooled, so
/// after warm-up every window allocates identically — and a stream that
/// throws its `EditBuffers` away every batch pays strictly more.
#[test]
fn structural_stream_retains_scratch_capacity_across_batches() {
    use grape_aap::delta::apply::apply_to_fragments_with;

    let mut frags = fragments();
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
        apply_to_fragments_with(&mut refs, delta, bufs);
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
