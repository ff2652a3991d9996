//! Concurrent serving end to end (ISSUE 6): **N reader threads** serve
//! SSSP answers from cheap [`SessionReader`] clones — lock-free
//! epoch-published fixpoints, `&self` all the way — while **one
//! writer** streams mutation batches through `apply()`, admits
//! reader-requested query values in windows (`serve_admitted`), and
//! takes a mid-stream durable `checkpoint()` without ever pausing the
//! readers.
//!
//! Every read observes a complete pre- or post-apply fixpoint (never a
//! torn mix); the final tally prints how many reads each thread served
//! and which publication versions it saw.
//!
//! ```sh
//! cargo run --release --example concurrent_serving
//! ```

use grape_aap::delta::generate::Xorshift;
use grape_aap::graph::{generate, Graph};
use grape_aap::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const READERS: usize = 4;
const BATCHES: usize = 12;

fn traffic(g: &Graph<(), u32>, rng: &mut Xorshift) -> GraphDelta<(), u32> {
    let n = g.num_vertices() as u32;
    let mut b = DeltaBuilder::new();
    for _ in 0..16 {
        let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
        if u != v {
            b.add_edge(u, v, 1 + rng.below(9) as u32);
        }
    }
    b.build()
}

fn main() -> Result<(), SessionError> {
    let dir = std::env::temp_dir().join(format!("aap_concurrent_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let g = generate::rmat(12, 8, true, 33);
    println!("graph: {} vertices, {} stored edges", g.num_vertices(), g.num_edges());

    // One writer: a durable session with the retained SSSP fixpoint.
    let mut session = Session::builder(g.clone())
        .partition(edge_cut(4))
        .mode(Mode::aap())
        .program("sssp", Sssp)
        .durability(DurabilityPolicy::new(&dir).differential(false))?
        .open()?;
    session.query::<Sssp>("sssp", &0)?;
    println!("retained query 0 materialized (version {})", session.version());

    // N readers: each thread owns a SessionReader clone and serves by
    // `&self` — no locks shared with the writer, no data clones.
    let readers: Vec<_> = (0..READERS).map(|_| session.reader()).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();

    let tallies: Vec<(usize, u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(k, reader)| {
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let (mut reads, mut first_v, mut last_v) = (0u64, 0u64, 0u64);
                    // Each reader also wants its own source vertex served.
                    let own_src = 1 + k as u32;
                    reader.request::<Sssp>("sssp", &own_src).unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        if let Some(dist) = reader.query::<Sssp>("sssp", &0).unwrap() {
                            assert_eq!(dist[0], 0, "retained source is distance 0");
                            reads += 1;
                            let v = reader.version("sssp").unwrap().unwrap_or(0);
                            if first_v == 0 {
                                first_v = v;
                            }
                            last_v = last_v.max(v);
                        }
                        // The admitted answer appears once the writer's
                        // window lands; it drops again after each apply.
                        if let Some(own) = reader.query::<Sssp>("sssp", &own_src).unwrap() {
                            assert_eq!(own[own_src as usize], 0);
                            reader.request::<Sssp>("sssp", &own_src).unwrap();
                        }
                        std::thread::yield_now();
                    }
                    (k, reads, first_v, last_v)
                })
            })
            .collect();

        // The writer: admit, mutate, advance, publish — and checkpoint
        // mid-stream while the readers keep serving.
        let mut rng = Xorshift::new(0xAB1E);
        let mut cur = g.clone();
        for batch in 0..BATCHES {
            let admitted = session.serve_admitted().unwrap();
            let delta = traffic(&cur, &mut rng);
            cur = grape_aap::delta::apply_to_graph(&cur, &delta);
            let report = session.apply(&delta).unwrap();
            println!(
                "batch {batch:2}: {:?} strategy={:?} admitted={admitted} version={}",
                report.summary,
                report.strategy("sssp").unwrap(),
                session.version(),
            );
            if batch == BATCHES / 2 {
                let ckpt = session.checkpoint().unwrap();
                println!(
                    "         mid-stream checkpoint -> epoch {} (readers undisturbed)",
                    ckpt.epoch
                );
            }
        }
        session.serve_admitted().unwrap();
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let elapsed = t0.elapsed();
    let total: u64 = tallies.iter().map(|(_, r, _, _)| r).sum();
    for (k, reads, first_v, last_v) in &tallies {
        println!("reader {k}: {reads} reads, versions {first_v}..={last_v}");
    }
    println!(
        "{total} concurrent reads across {READERS} threads in {elapsed:?} \
         while the writer applied {BATCHES} batches"
    );

    // The durable directory restores to the writer's serving state.
    drop(session);
    let mut restored: Session<(), u32, _> = Session::restore(&dir).program("sssp", Sssp).open()?;
    let dist = restored.query::<Sssp>("sssp", &0)?;
    println!("restored: {} distances served from epoch snapshot + log replay", dist.len());
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
