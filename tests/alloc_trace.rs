//! Proof that observability is free when off and bounded when on:
//!
//! * a disabled [`Tracer`] (the default every layer starts with) adds
//!   **zero heap allocations** to the steady-state route/drain rounds —
//!   the same zero-alloc bar `alloc_routing.rs` pins for the scratch
//!   subsystem, now with trace calls interleaved at engine density;
//! * a [`Recorder`] ring never allocates again once its window has
//!   wrapped, no matter how many more events stream through it.

use grape_aap::graph::partition::{build_fragments, hash_partition};
use grape_aap::graph::{generate, Fragment};
use grape_aap::prelude::*;
use grape_aap::runtime::inbox::Inbox;
use grape_aap::runtime::pie::route_updates_into;
use grape_aap::runtime::Scratch;
use grape_aap::trace::{cat, pid, Args, TraceSink};
use std::sync::Arc;

mod common;
use common::allocs;

/// Allocations the calling thread makes while `body` runs.
fn allocs_during(body: impl FnOnce()) -> u64 {
    let before = allocs();
    body();
    allocs() - before
}

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

/// The engine's per-round trace shape: a round span wrapping eval and
/// route child spans, a batch instant per destination, and a counter —
/// the exact call pattern `aap_core::Engine` makes each worker round.
fn round_trace_calls(tracer: &Tracer, worker: u32, round: u32, batches: usize) {
    let args = Args::new().with("round", u64::from(round));
    tracer.begin(pid::ENGINE, worker, cat::ROUND, "round", args);
    tracer.begin(pid::ENGINE, worker, cat::PHASE, "eval", Args::new());
    tracer.end(pid::ENGINE, worker, cat::PHASE, "eval", Args::new());
    tracer.begin(pid::ENGINE, worker, cat::PHASE, "route", Args::new());
    tracer.end(pid::ENGINE, worker, cat::PHASE, "route", Args::new());
    for dst in 0..batches {
        let args = Args::new().with("dst", dst as u64);
        tracer.instant(pid::ENGINE, worker, cat::MSG, "batch", args);
    }
    tracer.end(pid::ENGINE, worker, cat::ROUND, "round", Args::new());
    tracer.counter(pid::ENGINE, worker, "rounds", u64::from(round));
}

#[test]
fn disabled_tracer_adds_zero_allocations_to_steady_rounds() {
    let g = generate::small_world(2_000, 3, 0.2, 7);
    let m = 4usize;
    let frags = build_fragments(&g, &hash_partition(&g, m));
    let mut scratches: Vec<Scratch<u64>> = (0..m).map(|_| Scratch::default()).collect();
    let mut inboxes: Vec<Inbox<u64>> = (0..m).map(|_| Inbox::default()).collect();
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

    // Off by default — exactly what every layer holds until a sink is
    // installed. The branch must be the only cost.
    let tracer = Tracer::default();
    assert!(!tracer.enabled());

    let mut updates: Vec<Vec<(LocalId, u64)>> = vec![Vec::new(); m];
    let mut outs: Vec<Vec<(FragId, _)>> = (0..m).map(|_| Vec::new()).collect();

    let mut one_round = |round: u32| {
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
            let batches = outs[i].len();
            for (dst, batch) in outs[i].drain(..) {
                inboxes[dst as usize].push(batch);
            }
            round_trace_calls(&tracer, i as u32, round, batches);
        }
        for j in 0..m {
            let _ = inboxes[j].drain_into(&MinProg, &frags[j], &mut scratches[j]);
        }
    };

    // Warm-up: grow every buffer to its steady-state size.
    let mut round = 0u32;
    while round < 8 {
        one_round(round);
        round += 1;
    }
    let allocs = allocs_during(|| {
        for _ in 0..56 {
            one_round(round);
            round += 1;
        }
    });
    assert_eq!(allocs, 0, "steady-state rounds with a disabled tracer hit the allocator");
}

#[test]
fn a_million_disabled_calls_allocate_nothing() {
    let tracer = Tracer::default();
    let allocs = allocs_during(|| {
        for i in 0..250_000u32 {
            round_trace_calls(&tracer, i % 4, i, 2);
        }
    });
    assert_eq!(allocs, 0, "disabled trace calls allocated");
}

#[test]
fn recorder_memory_is_capped_and_wrap_is_allocation_free() {
    const CAP: usize = 1_024;
    const TOTAL: usize = 10 * CAP;
    let rec = Recorder::with_capacity(CAP);
    let ev = grape_aap::trace::TraceEvent {
        name: "round",
        cat: cat::ROUND,
        ph: grape_aap::trace::Phase::Instant,
        ts_us: 0,
        pid: pid::ENGINE,
        tid: 0,
        args: Args::new().with("round", 1u64),
    };

    // Fill the window (the ring's storage is reserved up front).
    for t in 0..CAP {
        rec.event(&grape_aap::trace::TraceEvent { ts_us: t as u64, ..ev });
    }
    assert_eq!(rec.len(), CAP);
    assert_eq!(rec.dropped(), 0);

    // Stream an order of magnitude more: memory must stay capped and the
    // full ring must never touch the allocator again.
    let allocs_before = allocs();
    for t in CAP..TOTAL {
        rec.event(&grape_aap::trace::TraceEvent { ts_us: t as u64, ..ev });
    }
    let allocs_after = allocs();
    assert_eq!(allocs_after - allocs_before, 0, "a wrapped recorder allocated");
    assert_eq!(rec.len(), CAP, "ring exceeded its capacity");
    assert_eq!(rec.dropped(), (TOTAL - CAP) as u64);

    // The survivors are exactly the most recent CAP events, in order.
    let ts: Vec<u64> = rec.events().iter().map(|e| e.ts_us).collect();
    assert_eq!(ts.first().copied(), Some((TOTAL - CAP) as u64));
    assert_eq!(ts.last().copied(), Some(TOTAL as u64 - 1));
    assert!(ts.windows(2).all(|w| w[0] + 1 == w[1]));
}

/// An enabled tracer feeding a wrapped recorder also stays off the
/// allocator: the event structs are `Copy`, the ring overwrites in
/// place, so even *enabled* steady-state tracing is allocation-free
/// once the window is warm.
#[test]
fn enabled_tracer_into_wrapped_recorder_allocates_nothing() {
    let rec = Arc::new(Recorder::with_capacity(256));
    let tracer = Tracer::new(Arc::clone(&rec));
    assert!(tracer.enabled());

    // Warm: wrap the ring once.
    for i in 0..512u32 {
        round_trace_calls(&tracer, i % 4, i, 2);
    }
    assert!(rec.dropped() > 0, "window must have wrapped before measuring");

    let allocs = allocs_during(|| {
        for i in 512..4_096u32 {
            round_trace_calls(&tracer, i % 4, i, 2);
        }
    });
    assert_eq!(allocs, 0, "enabled steady-state tracing allocated");
}
