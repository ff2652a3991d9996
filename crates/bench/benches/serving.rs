//! The `serving` group: the concurrent-serving read path and the
//! parallel apply path (ISSUE 6).
//!
//! Read side: `SessionReader::query` serves the retained fixpoint by
//! bumping an `Arc` on the epoch-published snapshot — compare against
//! the `&mut Session::query` path, which clones the full output vector
//! per call. The gap between those two rows is what lets N readers
//! outrun the single-threaded mutable path (the `repro serving`
//! experiment measures the multi-threaded aggregate).
//!
//! Apply side: the scattered 0.1% insert batch at 8 fragments through
//! `apply_to_fragments_par`, serial (`threads = 1`) vs the scoped-thread
//! per-fragment repack (`threads = 8`, byte-identical by the mutate
//! proptests).
//! On a multi-core box the parallel row wins; on one core it shows the
//! fan-out overhead — both are honest numbers worth tracking.

use aap_algos::Sssp;
use aap_core::Mode;
use aap_delta::apply::apply_to_fragments_par;
use aap_delta::generate::insert_batch;
use aap_graph::generate;
use aap_graph::mutate::EditBuffers;
use aap_graph::partition::{build_fragments_n, hash_partition};
use aap_session::{edge_cut, Session};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

const WORKERS: usize = 8;

fn bench_serving(c: &mut Criterion) {
    let g = generate::rmat(14, 8, true, 21);
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);

    // --- read path ---------------------------------------------------
    let mut session = Session::builder(g.clone())
        .partition(edge_cut(WORKERS))
        .mode(Mode::aap())
        .program("sssp", Sssp)
        .open()
        .expect("session");
    session.query::<Sssp>("sssp", &0).expect("retain the fixpoint");
    let reader = session.reader();

    group.bench_function("session_query_mut_retained", |b| {
        b.iter(|| black_box(session.query::<Sssp>("sssp", &0).unwrap().len()))
    });
    group.bench_function("reader_query_retained", |b| {
        b.iter(|| black_box(reader.query::<Sssp>("sssp", &0).unwrap().unwrap().len()))
    });
    group.bench_function("reader_clone_handle", |b| b.iter(|| black_box(reader.clone())));

    // --- apply path --------------------------------------------------
    let delta = insert_batch(&g, ((g.num_edges() as f64) * 0.001).ceil() as usize, 16, 0x5A5A);
    group.bench_function("apply_scattered_0.1pct_serial", |b| {
        b.iter_batched(
            || build_fragments_n(&g, &hash_partition(&g, WORKERS), WORKERS),
            |mut frags| {
                let mut refs: Vec<_> = frags.iter_mut().collect();
                black_box(apply_to_fragments_par(&mut refs, &delta, &mut EditBuffers::default(), 1))
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("apply_scattered_0.1pct_par8", |b| {
        let mut bufs = EditBuffers::default();
        b.iter_batched(
            || build_fragments_n(&g, &hash_partition(&g, WORKERS), WORKERS),
            |mut frags| {
                let mut refs: Vec<_> = frags.iter_mut().collect();
                black_box(apply_to_fragments_par(&mut refs, &delta, &mut bufs, WORKERS))
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
