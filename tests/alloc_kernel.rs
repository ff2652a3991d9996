//! Boundedness of the shortest-path `IncEval` (§5.1): its cost is a
//! function of the changed region (`|Mi| + |ΔOi|`), not of `|Fi|`. One
//! `Sssp::inceval` call whose single message improves one vertex and its
//! neighbours must request the same few bytes from the allocator whatever
//! the fragment's size — a kernel that sizes anything by `local_count`
//! (a per-call bitmap, say) requests at least that many bytes. PageRank's
//! `IncEval` sweeps arrays it already owns, so it requests nothing at all.

use grape_aap::algos::common::INF;
use grape_aap::algos::sssp::SsspState;
use grape_aap::graph::generate;
use grape_aap::graph::partition::{build_fragments, hash_partition};
use grape_aap::prelude::*;

mod common;
use common::bytes;

/// Bytes one bounded `inceval` call requests on fragment 0 of a
/// `side × side` lattice over 4 fragments, and that fragment's
/// `local_count`.
fn inceval_bytes(side: usize) -> (u64, usize) {
    let g = generate::lattice2d(side, side, 3);
    let frags = build_fragments(&g, &hash_partition(&g, 4));
    let f = &frags[0];
    // Everything settled at 0 except one owned interior vertex and its
    // neighbours: the message improves exactly that region.
    let l = f
        .owned_vertices()
        .find(|&l| f.neighbors(l).len() == 4)
        .expect("an owned interior lattice vertex");
    let mut state = SsspState { dist: vec![0; f.local_count()] };
    state.dist[l as usize] = INF;
    for &v in f.neighbors(l) {
        state.dist[v as usize] = INF;
    }
    let mut msgs: Messages<u64> = vec![(l, 5)];
    let mut ctx = UpdateCtx::new();

    let before = bytes();
    PieProgram::<(), u32>::inceval(&Sssp, &0, f, &mut state, &mut msgs, &mut ctx);
    let used = bytes() - before;

    assert_eq!(ctx.effect_counts(), (1, 0), "the one message must be effective");
    assert_eq!(state.dist[l as usize], 5);
    assert!(f.neighbors(l).iter().all(|&v| state.dist[v as usize] < INF), "neighbours relaxed");
    let mirrors = f.neighbors(l).iter().filter(|&&v| !f.is_owned(v)).count();
    assert_eq!(ctx.len(), mirrors, "every improved mirror ships, nothing else");
    (used, f.local_count())
}

#[test]
fn inceval_allocation_is_independent_of_fragment_size() {
    let (small, small_locals) = inceval_bytes(100);
    let (large, large_locals) = inceval_bytes(200);
    assert!(large_locals > 3 * small_locals, "{small_locals} vs {large_locals} local vertices");
    for (used, locals) in [(small, small_locals), (large, large_locals)] {
        assert!(
            used < locals as u64,
            "one bounded inceval requested {used} bytes on a fragment of {locals} local vertices"
        );
        assert!(used <= 1024, "one bounded inceval requested {used} bytes");
    }
}

/// PageRank's `IncEval` is one pass over dense per-vertex arrays it already
/// owns: with a warm update buffer, a round that absorbs a batch, pushes it
/// and ships mirror mass requests nothing from the allocator.
#[test]
fn warm_pagerank_inceval_allocates_nothing() {
    let g = generate::rmat(11, 8, true, 3);
    let frags = build_fragments(&g, &hash_partition(&g, 4));
    let f = &frags[0];
    let pr = PageRank::default();
    let mut state = PieProgram::<(), u32>::peval(&pr, &(), f, &mut UpdateCtx::new());
    // Warm, as engines keep it: room for one update per mirror.
    let mut ctx = UpdateCtx::with_buffer(Vec::with_capacity(f.mirror_count()));
    let mut msgs: Messages<f64> = f.owned_vertices().step_by(7).map(|l| (l, 0.5)).collect();
    let batch = msgs.len() as u64;

    let before = bytes();
    PieProgram::<(), u32>::inceval(&pr, &(), f, &mut state, &mut msgs, &mut ctx);
    let used = bytes() - before;

    assert_eq!(ctx.effect_counts(), (batch, 0), "every message carries mass ≥ ε");
    assert!(!ctx.is_empty(), "the pushed batch reaches mirrors, which ship");
    assert_eq!(used, 0, "one warm PageRank inceval requested {used} bytes");
}
