//! The serving story end to end: one durable [`Session`] holding
//! **multiple programs** (SSSP + CC) over one partition, answering
//! queries while a mutation stream mixes inserts, weight changes, and
//! deletions — every batch applied once, every program advanced with
//! its own strategy — with a mid-stream `checkpoint()`, a crash, and a
//! `restore()` that resumes serving byte-identically.
//!
//! This is the paper's AAP model as a long-lived process, where PRs 1–4
//! required hand-threading `Engine` + `run_incremental` + `save_engine`
//! + `DeltaLog` per program.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use grape_aap::delta::generate::Xorshift;
use grape_aap::delta::WarmStrategy;
use grape_aap::graph::{generate, Graph};
use grape_aap::prelude::*;
use std::time::Instant;

/// One "traffic" batch: a few inserts, a weight change, and (in later
/// batches) deletions of existing edges — the mixed serving workload.
fn traffic(g: &Graph<(), u32>, rng: &mut Xorshift, deletions: bool) -> GraphDelta<(), u32> {
    let n = g.num_vertices() as u32;
    let mut b = DeltaBuilder::new();
    for _ in 0..24 {
        let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
        if u != v {
            b.add_edge(u, v, 1 + rng.below(9) as u32);
        }
    }
    let u = rng.below(n as u64) as u32;
    if let Some((&t, &w)) = g.neighbors(u).first().zip(g.edge_data(u).first()) {
        b.set_weight(u, t, w.saturating_add(rng.below(5) as u32).max(1));
    }
    if deletions {
        for _ in 0..8 {
            let u = rng.below(n as u64) as u32;
            if let Some(&t) = g.neighbors(u).first() {
                if u != t {
                    b.remove_edge(u, t);
                }
            }
        }
    }
    b.build()
}

fn main() -> Result<(), SessionError> {
    let dir = std::env::temp_dir().join(format!("aap_serving_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let g = generate::rmat(13, 8, true, 21);
    println!("graph: {} vertices, {} stored edges", g.num_vertices(), g.num_edges());

    // -- open: one partition, two programs, durable ---------------------
    let mut session = Session::builder(g.clone())
        .partition(edge_cut(8))
        .mode(Mode::aap())
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .durability(DurabilityPolicy::new(&dir).differential(false))?
        .open()?;
    println!(
        "session open: programs = [{}], durable epoch {:?}",
        session.program_names().collect::<Vec<_>>().join(", "),
        session.epoch()
    );

    // -- serve ----------------------------------------------------------
    let dist = session.query::<Sssp>("sssp", &0)?;
    let cc = session.query::<ConnectedComponents>("cc", &())?;
    let reachable = dist.iter().filter(|&&d| d != u64::MAX).count();
    let comps = {
        let mut c = cc.clone();
        c.sort_unstable();
        c.dedup();
        c.len()
    };
    println!("serving: SSSP(0) reaches {reachable} vertices; CC finds {comps} components");

    // -- stream traffic, checkpoint mid-stream --------------------------
    let mut rng = Xorshift::new(0xFEED);
    for batch in 0..6 {
        let deletions = batch >= 2;
        let delta = traffic(&g, &mut rng, deletions);
        let t = Instant::now();
        let report = session.apply(&delta)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let tags: Vec<String> =
            report.programs.iter().map(|p| format!("{}:{}", p.name, p.strategy)).collect();
        println!(
            "batch {batch}: {:>2} ops, one apply -> [{}] in {ms:.2} ms",
            delta.len(),
            tags.join(", ")
        );
        if deletions {
            assert!(
                report.programs.iter().all(|p| p.strategy != WarmStrategy::Cold),
                "SSSP and CC both have invalidation plans: deletions never recompute cold"
            );
        }
        if batch == 2 {
            let ckpt = session.checkpoint()?;
            println!("  checkpoint -> epoch {} (snapshot rotated, log reset)", ckpt.epoch);
        }
    }
    let served_sssp = session.query::<Sssp>("sssp", &0)?;
    let served_cc = session.query::<ConnectedComponents>("cc", &())?;

    // -- crash ----------------------------------------------------------
    drop(session);
    println!("\n-- crash -- (in-memory state gone; {} holds the truth)\n", dir.display());

    // -- restore: load -> attach x2 -> replay, one call -----------------
    let t = Instant::now();
    let mut restored: Session<(), u32, _> = Session::restore(&dir)
        .mode(Mode::aap())
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .open()?;
    println!("restored both programs in {:.2} ms", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(restored.query::<Sssp>("sssp", &0)?, served_sssp);
    assert_eq!(restored.query::<ConnectedComponents>("cc", &())?, served_cc);
    println!("restored serve == pre-crash serve, for BOTH programs");

    // -- and the stream continues ---------------------------------------
    let delta = traffic(&g, &mut rng, true);
    let report = restored.apply(&delta)?;
    let tags: Vec<String> =
        report.programs.iter().map(|p| format!("{}:{}", p.name, p.strategy)).collect();
    println!("post-restore batch: [{}] — serving never went cold", tags.join(", "));

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
