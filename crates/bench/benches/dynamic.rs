//! The `dynamic` group: warm-start incremental evaluation vs cold full
//! recompute across delta sizes (0.01% / 0.1% / 1% of the edge count),
//! plus the **deletion-only** rows (`*_delete_*`) exercising the
//! `warm-increase` affected-region path — the acceptance check is the
//! warm/cold ratio at 0.1% deletions.
//!
//! Both sides run on the *same mutated fragments*: the delta is applied
//! once in setup (for deletions, the invalidation plan is computed
//! there too, exactly as the `aap-delta` driver would), then `full`
//! measures a cold `Engine::run` and `incremental` measures
//! `Engine::run_incremental` from the retained pre-delta state (cloned
//! per iteration, outside the timing). The ratio is the paper-motivated
//! payoff of IncEval reacting to graph changes instead of recomputing
//! from scratch.

use aap_algos::{ConnectedComponents, Sssp};
use aap_core::{Engine, EngineOpts, Mode};
use aap_delta::generate::{insert_batch, insert_batch_within, remove_batch};
use aap_delta::{apply_to_fragments_par, plan_incremental, remap_invalid, Applied, GraphDelta};
use aap_graph::mutate::EditBuffers;
use aap_graph::partition::{build_fragments_n, hash_partition};
use aap_graph::{generate, Fragment, Graph, LocalId};
use aap_trace::Tracer;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

const WORKERS: usize = 8;

fn insert_delta(g: &Graph<(), u32>, frac: f64, seed: u64) -> GraphDelta {
    insert_batch(g, ((g.num_edges() as f64) * frac).ceil() as usize, 16, seed)
}

struct Prepared {
    engine: Engine<(), u32>,
    applied: Applied,
    sssp_state: aap_core::RunState<aap_algos::sssp::SsspState>,
    cc_state: aap_core::RunState<aap_algos::cc::CcState>,
    /// Post-remap invalidated sets per program (empty for insert deltas).
    sssp_invalid: Vec<Vec<LocalId>>,
    cc_invalid: Vec<Vec<LocalId>>,
}

/// Build the engine, retain cold states, plan the invalidation (for
/// non-monotone deltas), then apply the delta in place — the same
/// sequence the `aap-delta` driver runs per batch.
fn prepare(g: &Graph<(), u32>, delta: &GraphDelta) -> Prepared {
    let frags = build_fragments_n(g, &hash_partition(g, WORKERS), WORKERS);
    let mut engine = Engine::new(
        frags,
        EngineOpts { threads: WORKERS, mode: Mode::aap(), max_rounds: Some(1_000_000) },
    );
    let (_, mut sssp_state) = engine.run_retained(&Sssp, &0);
    let (_, mut cc_state) = engine.run_retained(&ConnectedComponents, &());
    let off = Tracer::default();
    let (sssp_inv_old, cc_inv_old) = {
        let view: Vec<&Fragment<(), u32>> = engine.fragments().iter().map(|a| &**a).collect();
        (
            plan_incremental(&view, &Sssp, &0, delta, &mut sssp_state, &off).invalid_old,
            plan_incremental(&view, &ConnectedComponents, &(), delta, &mut cc_state, &off)
                .invalid_old,
        )
    };
    let applied = {
        let mut refs = engine.fragments_mut().expect("unique fragments");
        apply_to_fragments_par(&mut refs, delta, &mut EditBuffers::default(), 1)
    };
    let sssp_invalid = remap_invalid(sssp_inv_old, &applied);
    let cc_invalid = remap_invalid(cc_inv_old, &applied);
    Prepared { engine, applied, sssp_state, cc_state, sssp_invalid, cc_invalid }
}

fn bench_dynamic(c: &mut Criterion) {
    // Big enough that cold compute dominates fixed engine overhead.
    let g = generate::rmat(15, 8, true, 21);
    let mut group = c.benchmark_group("dynamic");
    group.sample_size(10);
    for (label, frac) in [("0.01pct", 0.0001), ("0.1pct", 0.001), ("1pct", 0.01)] {
        let p = prepare(&g, &insert_delta(&g, frac, 0xA5A5));
        group.bench_function(format!("sssp_full_{label}"), |b| {
            b.iter(|| black_box(p.engine.run(&Sssp, &0).out))
        });
        group.bench_function(format!("sssp_incremental_{label}"), |b| {
            b.iter_batched(
                || p.sssp_state.clone(),
                |mut st| {
                    black_box(
                        p.engine
                            .run_incremental(
                                &Sssp,
                                &0,
                                &p.applied.remaps,
                                &p.applied.seeds,
                                &p.sssp_invalid,
                                &mut st,
                            )
                            .out,
                    )
                },
                BatchSize::PerIteration,
            )
        });
    }
    // CC at the acceptance point (0.1%).
    let p = prepare(&g, &insert_delta(&g, 0.001, 0xA5A5));
    group.bench_function("cc_full_0.1pct", |b| {
        b.iter(|| black_box(p.engine.run(&ConnectedComponents, &()).out))
    });
    group.bench_function("cc_incremental_0.1pct", |b| {
        b.iter_batched(
            || p.cc_state.clone(),
            |mut st| {
                black_box(
                    p.engine
                        .run_incremental(
                            &ConnectedComponents,
                            &(),
                            &p.applied.remaps,
                            &p.applied.seeds,
                            &p.cc_invalid,
                            &mut st,
                        )
                        .out,
                )
            },
            BatchSize::PerIteration,
        )
    });
    // Deletion-only rows: the `warm-increase` path. Acceptance: warm
    // median ≥5x faster than cold at 0.1% deletions, for SSSP and CC.
    let del_count = ((g.num_edges() as f64) * 0.001).ceil() as usize;
    let p = prepare(&g, &remove_batch(&g, del_count, 0xDE1E));
    group.bench_function("sssp_full_delete_0.1pct", |b| {
        b.iter(|| black_box(p.engine.run(&Sssp, &0).out))
    });
    group.bench_function("sssp_incremental_delete_0.1pct", |b| {
        b.iter_batched(
            || p.sssp_state.clone(),
            |mut st| {
                black_box(
                    p.engine
                        .run_incremental(
                            &Sssp,
                            &0,
                            &p.applied.remaps,
                            &p.applied.seeds,
                            &p.sssp_invalid,
                            &mut st,
                        )
                        .out,
                )
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("cc_full_delete_0.1pct", |b| {
        b.iter(|| black_box(p.engine.run(&ConnectedComponents, &()).out))
    });
    group.bench_function("cc_incremental_delete_0.1pct", |b| {
        b.iter_batched(
            || p.cc_state.clone(),
            |mut st| {
                black_box(
                    p.engine
                        .run_incremental(
                            &ConnectedComponents,
                            &(),
                            &p.applied.remaps,
                            &p.applied.seeds,
                            &p.cc_invalid,
                            &mut st,
                        )
                        .out,
                )
            },
            BatchSize::PerIteration,
        )
    });
    // The invalidation *plan* itself (the pre-apply affected-region /
    // spanning-forest pass the driver adds for deletion batches). The
    // end-to-end warm cost of one deletion batch is plan + incremental;
    // these rows keep the plan share visible next to the gated ratios.
    {
        let frags = build_fragments_n(&g, &hash_partition(&g, WORKERS), WORKERS);
        let engine = Engine::new(
            frags,
            EngineOpts { threads: WORKERS, mode: Mode::aap(), max_rounds: Some(1_000_000) },
        );
        let (_, mut sssp_st) = engine.run_retained(&Sssp, &0);
        let (_, mut cc_st) = engine.run_retained(&ConnectedComponents, &());
        let delta = remove_batch(&g, del_count, 0xDE1E);
        let view: Vec<&Fragment<(), u32>> = engine.fragments().iter().map(|a| &**a).collect();
        let off = Tracer::default();
        // Uncached rows clear the plan cache per iteration, measuring the
        // full gather + affected-region pass; `_cached` rows keep the
        // cache warm — the steady-state cost of a deletion batch in a
        // stream, where each run's output re-seeds the cache.
        group.bench_function("sssp_plan_delete_0.1pct", |b| {
            b.iter(|| {
                sssp_st.plan_cache_mut().clear();
                black_box(plan_incremental(&view, &Sssp, &0, &delta, &mut sssp_st, &off))
            })
        });
        group.bench_function("sssp_plan_delete_0.1pct_cached", |b| {
            b.iter(|| black_box(plan_incremental(&view, &Sssp, &0, &delta, &mut sssp_st, &off)))
        });
        group.bench_function("cc_plan_delete_0.1pct", |b| {
            b.iter(|| {
                cc_st.plan_cache_mut().clear();
                black_box(plan_incremental(
                    &view,
                    &ConnectedComponents,
                    &(),
                    &delta,
                    &mut cc_st,
                    &off,
                ))
            })
        });
        group.bench_function("cc_plan_delete_0.1pct_cached", |b| {
            b.iter(|| {
                black_box(plan_incremental(
                    &view,
                    &ConnectedComponents,
                    &(),
                    &delta,
                    &mut cc_st,
                    &off,
                ))
            })
        });
    }
    // The apply itself, at the acceptance point: a uniformly random delta
    // touches every fragment (apply ≈ one full partition sweep), while a
    // localized one — the realistic serving pattern — costs only the
    // touched fragment(s).
    group.bench_function("apply_delta_scattered_0.1pct", |b| {
        let delta = insert_delta(&g, 0.001, 0x5A5A);
        b.iter_batched(
            || build_fragments_n(&g, &hash_partition(&g, WORKERS), WORKERS),
            |mut frags| {
                let mut refs: Vec<_> = frags.iter_mut().collect();
                black_box(apply_to_fragments_par(&mut refs, &delta, &mut EditBuffers::default(), 1))
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("apply_delta_localized_0.1pct", |b| {
        // Same batch size, but every inserted edge stays inside fragment
        // 0's vertex set, so only one fragment is patched.
        let assignment = hash_partition(&g, WORKERS);
        let frag0: Vec<u32> =
            (0..g.num_vertices() as u32).filter(|&v| assignment[v as usize] == 0).collect();
        let count = ((g.num_edges() as f64) * 0.001).ceil() as usize;
        let delta = insert_batch_within(&frag0, count, 16, 0x5A5A);
        b.iter_batched(
            || build_fragments_n(&g, &assignment, WORKERS),
            |mut frags| {
                let mut refs: Vec<_> = frags.iter_mut().collect();
                black_box(apply_to_fragments_par(&mut refs, &delta, &mut EditBuffers::default(), 1))
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_dynamic);
criterion_main!(benches);
