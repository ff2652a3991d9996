//! Kill-and-resume of the dynamic stream, through the [`Session`]
//! facade: a durable session snapshots its partition at open and logs
//! every applied delta; the process "dies" mid-stream; a restored
//! session (`Session::restore` = load → attach → replay) lands in
//! exactly the state the dead process held — no re-partitioning, no
//! cold recompute — and keeps serving.
//!
//! ```sh
//! cargo run --release --example snapshot_restart
//! ```

use grape_aap::delta::generate::{insert_batch, Xorshift};
use grape_aap::delta::WarmStrategy;
use grape_aap::graph::generate;
use grape_aap::prelude::*;
use std::time::Instant;

fn main() -> Result<(), SessionError> {
    let dir = std::env::temp_dir().join(format!("aap_restart_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // A power-law graph: 2^13 vertices, ~64k stored edges, 8 fragments.
    let g = generate::rmat(13, 8, true, 7);
    println!("graph: {} vertices, {} stored edges", g.num_vertices(), g.num_edges());

    // ------------------------------------------------------------------
    // Phase 1 — the serving process. Durability is a builder flag: the
    // partition is snapshotted at open (epoch 0) and every apply is
    // logged.
    // ------------------------------------------------------------------
    let t = Instant::now();
    let mut session = Session::builder(g.clone())
        .partition(edge_cut(8))
        .mode(Mode::aap())
        .program("sssp", Sssp)
        .durability(DurabilityPolicy::new(&dir).differential(false))?
        .open()?;
    println!("durable open (partition + epoch-0 snapshot): {:.2} ms", ms(t));

    let t = Instant::now();
    let out0 = session.query::<Sssp>("sssp", &0)?;
    println!("cold query: {:.2} ms ({} vertices answered)", ms(t), out0.len());

    // Stream batches; each apply advances the retained fixpoint AND
    // appends the delta to the log.
    let mut rng = Xorshift::new(0x5EED);
    let batch_edges = (g.num_edges() / 1000).max(8);
    for batch in 0..4 {
        let delta = insert_batch(&g, batch_edges, 16, rng.next_u64());
        let report = session.apply(&delta)?;
        println!(
            "batch {batch}: {} ops applied ({}), {} updates",
            delta.len(),
            report.programs[0].strategy,
            report.programs[0].updates,
        );
    }
    // A deletion batch exercises the warm-increase path across the log too.
    let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
    let victim = rng.below(g.num_vertices() as u64) as u32;
    match g.neighbors(victim).first() {
        Some(&t) => b.remove_edge(victim, t),
        None => b.remove_vertex(victim),
    };
    let report = session.apply(&b.build())?;
    assert_eq!(report.strategy("sssp"), Some(WarmStrategy::WarmIncrease));
    println!("deletion batch: applied via {} (no cold recompute)", report.programs[0].strategy);
    let final_out = session.query::<Sssp>("sssp", &0)?;

    // The process "dies" here: drop everything in memory.
    drop(session);
    println!("\n-- crash -- (all in-memory state dropped)\n");

    // ------------------------------------------------------------------
    // Phase 2 — the restarted process: same registrations, one call.
    // load -> attach per program -> replay the delta log.
    // ------------------------------------------------------------------
    let t = Instant::now();
    let mut restored: Session<(), u32, _> =
        Session::restore(&dir).mode(Mode::aap()).program("sssp", Sssp).open()?;
    println!(
        "restored in {:.2} ms ({} fragments, epoch {:?})",
        ms(t),
        restored.fragments().len(),
        restored.epoch(),
    );

    // The retained query serves WITHOUT re-running: replay landed the
    // state at the continuous process's fixpoint.
    let t = Instant::now();
    let replayed = restored.query::<Sssp>("sssp", &0)?;
    println!("first post-restart serve: {:.3} ms (cached fixpoint)", ms(t));
    assert_eq!(replayed, final_out, "restart must land in the continuous process's state");
    println!("restart output == continuous output: warm restart is exact");

    // And it keeps serving: the next delta warm-starts from replayed
    // state, and a checkpoint rotates the snapshot epoch so the log
    // never grows unboundedly.
    let next = insert_batch(&g, batch_edges, 16, rng.next_u64());
    let report = restored.apply(&next)?;
    println!(
        "post-restart batch: {} updates ({}) — the stream continues",
        report.programs[0].updates, report.programs[0].strategy,
    );
    let ckpt = restored.checkpoint()?;
    println!("checkpoint -> epoch {} (fresh snapshot, log reset)", ckpt.epoch);

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
