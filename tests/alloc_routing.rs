//! Proof of the zero-allocation steady state: drive the dense routing and
//! drain path through many rounds under a counting global allocator and
//! assert that, once warm, **no heap allocation happens at all** in
//! route + deliver + drain — the acceptance bar for the scratch-buffer
//! subsystem (`aap_core::scratch`).

use grape_aap::graph::partition::{build_fragments, hash_partition};
use grape_aap::graph::{generate, Fragment};
use grape_aap::prelude::*;
use grape_aap::runtime::inbox::Inbox;
use grape_aap::runtime::pie::route_updates_into;
use grape_aap::runtime::Scratch;
use std::sync::Arc;

mod common;
use common::allocs;

struct MinProg;

impl PieProgram<(), u32> for MinProg {
    type Query = ();
    type Val = u64;
    type State = ();
    type Out = ();

    fn combine(&self, a: &mut u64, b: u64) -> bool {
        if b < *a {
            *a = b;
            true
        } else {
            false
        }
    }

    fn peval(&self, _: &(), _: &Fragment<(), u32>, _: &mut UpdateCtx<u64>) {}

    fn inceval(
        &self,
        _: &(),
        _: &Fragment<(), u32>,
        _: &mut (),
        _: &mut Messages<u64>,
        _: &mut UpdateCtx<u64>,
    ) {
    }

    fn assemble(&self, _: &(), _: &[Arc<Fragment<(), u32>>], _: Vec<()>) {}
}

#[test]
fn steady_state_route_and_drain_allocate_nothing() {
    let g = generate::small_world(2_000, 3, 0.2, 7);
    let m = 4usize;
    let frags = build_fragments(&g, &hash_partition(&g, m));
    let mut scratches: Vec<Scratch<u64>> = (0..m).map(|_| Scratch::default()).collect();
    let mut inboxes: Vec<Inbox<u64>> = (0..m).map(|_| Inbox::default()).collect();
    // Per-fragment update template: every border vertex announces a value
    // (symmetric traffic, so every worker's batch-vector pool reaches the
    // sender/receiver equilibrium the engines rely on).
    let templates: Vec<Vec<(LocalId, u64)>> = frags
        .iter()
        .map(|f| {
            f.local_vertices()
                .filter(|&l| f.routing().fanout_len(l) > 0)
                .map(|l| (l, f.global(l) as u64))
                .collect()
        })
        .collect();
    assert!(templates.iter().any(|t| !t.is_empty()), "graph must have cut edges");

    let mut updates: Vec<Vec<(LocalId, u64)>> = vec![Vec::new(); m];
    let mut outs: Vec<Vec<(FragId, _)>> = (0..m).map(|_| Vec::new()).collect();

    let one_round = |round: u32,
                     scratches: &mut Vec<Scratch<u64>>,
                     inboxes: &mut Vec<Inbox<u64>>,
                     updates: &mut Vec<Vec<(LocalId, u64)>>,
                     outs: &mut Vec<Vec<(FragId, _)>>| {
        for i in 0..m {
            updates[i].extend_from_slice(&templates[i]);
            route_updates_into(
                &MinProg,
                &frags[i],
                round,
                &mut updates[i],
                &mut scratches[i],
                &mut outs[i],
            );
            for (dst, batch) in outs[i].drain(..) {
                inboxes[dst as usize].push(batch);
            }
        }
        for j in 0..m {
            // `drain_into` recycles delivered batch bodies into worker j's
            // pool; the next round's sends take them back out.
            let (inbox, scratch) = (&mut inboxes[j], &mut scratches[j]);
            let _info = inbox.drain_into(&MinProg, &frags[j], scratch);
        }
    };

    // Warm-up: grow every buffer to its steady-state size.
    for round in 0..8 {
        one_round(round, &mut scratches, &mut inboxes, &mut updates, &mut outs);
    }

    let grow_before: u64 = scratches.iter().map(|s| s.grow_events()).sum();
    let allocs_before = allocs();
    for round in 8..64 {
        one_round(round, &mut scratches, &mut inboxes, &mut updates, &mut outs);
    }
    let allocs_after = allocs();
    let grow_after: u64 = scratches.iter().map(|s| s.grow_events()).sum();

    assert_eq!(allocs_after - allocs_before, 0, "steady-state routing/drain hit the allocator");
    assert_eq!(grow_after, grow_before, "scratch buffers grew after warm-up");
}

/// Asymmetric traffic: with a directed cut, one worker only sends and the
/// other only receives, so the sender's local pool never refills from its
/// own drains. The engine-wide shared pool must circulate the batch bodies
/// back; steady state still allocates nothing.
#[test]
fn one_way_traffic_allocates_nothing_via_shared_pool() {
    use grape_aap::graph::GraphBuilder;
    use grape_aap::runtime::scratch::SharedPool;

    // Directed path 0 -> 1 -> ... -> 999, split in the middle: only
    // fragment 0 has a mirror (of vertex 500), so messages flow 0 -> 1
    // exclusively.
    let n = 1000u32;
    let mut b = GraphBuilder::new_directed(n as usize);
    for v in 0..n - 1 {
        b.add_edge(v, v + 1, 1u32);
    }
    let g = b.build();
    let assignment: Vec<u16> = (0..n).map(|v| u16::from(v >= 500)).collect();
    let frags = build_fragments(&g, &assignment);
    assert!(frags[0].mirror_count() > 0);
    assert_eq!(frags[1].mirror_count(), 0, "traffic must be one-way");

    let shared: SharedPool<u64> = SharedPool::default();
    let mut scratches: Vec<Scratch<u64>> = (0..2).map(|_| Scratch::default()).collect();
    for s in &mut scratches {
        s.attach_shared_pool(shared.clone());
    }
    let mut inbox1: Inbox<u64> = Inbox::default();
    let template: Vec<(LocalId, u64)> = frags[0]
        .local_vertices()
        .filter(|&l| frags[0].routing().fanout_len(l) > 0)
        .map(|l| (l, frags[0].global(l) as u64))
        .collect();
    assert!(!template.is_empty());

    let mut updates: Vec<(LocalId, u64)> = Vec::new();
    let mut out = Vec::new();
    let one_round = |round: u32,
                     scratches: &mut Vec<Scratch<u64>>,
                     inbox1: &mut Inbox<u64>,
                     updates: &mut Vec<(LocalId, u64)>,
                     out: &mut Vec<(FragId, _)>| {
        updates.extend_from_slice(&template);
        route_updates_into(&MinProg, &frags[0], round, updates, &mut scratches[0], out);
        for (dst, batch) in out.drain(..) {
            assert_eq!(dst, 1);
            inbox1.push(batch);
        }
        let _ = inbox1.drain_into(&MinProg, &frags[1], &mut scratches[1]);
    };

    for round in 0..8 {
        one_round(round, &mut scratches, &mut inbox1, &mut updates, &mut out);
    }
    let allocs_before = allocs();
    for round in 8..64 {
        one_round(round, &mut scratches, &mut inbox1, &mut updates, &mut out);
    }
    let allocs_after = allocs();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "one-way steady state hit the allocator (shared pool not circulating)"
    );
}
