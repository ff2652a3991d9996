//! Social-network ranking (the Friendster scenario of §7): delta-based
//! PageRank on a power-law graph, PIE vs the vertex-centric baseline.
//!
//! The PIE program sweeps residual mass through the whole fragment in one
//! CSR-order pass per round; the vertex-centric baseline (Giraph-style) advances one hop per
//! superstep and recomputes every vertex for a fixed iteration budget —
//! compare the round and message counts.
//!
//! ```sh
//! cargo run --release --example social_rank
//! ```

use grape_aap::algos::vertex_centric::VcPageRank;
use grape_aap::graph::{generate, partition};
use grape_aap::prelude::*;

fn main() {
    let g = generate::rmat(13, 12, true, 3);
    println!("social graph: {} users, {} follows", g.num_vertices(), g.num_edges());
    let assignment = partition::hash_partition(&g, 8);

    // PIE delta-PageRank under AAP (GRAPE+).
    let engine = Engine::new(
        partition::build_fragments(&g, &assignment),
        EngineOpts { mode: Mode::aap(), ..Default::default() },
    );
    let pie = engine.run(&PageRank { damping: 0.85, epsilon: 1e-7 }, &());
    println!("PIE   {}", pie.stats.summary());

    // Vertex-centric PageRank under BSP (Giraph baseline).
    let engine = Engine::new(
        partition::build_fragments(&g, &assignment),
        EngineOpts { mode: Mode::Bsp, ..Default::default() },
    );
    let vc = engine.run(&VertexCentric(VcPageRank { damping: 0.85, iterations: 30 }), &());
    println!("VC    {}", vc.stats.summary());

    // Same ranking? Compare the top-10 sets.
    let top = |scores: &[f64]| {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        idx.truncate(10);
        idx
    };
    let (tp, tv) = (top(&pie.out), top(&vc.out));
    let overlap = tp.iter().filter(|v| tv.contains(v)).count();
    println!("\ntop-10 overlap between PIE and vertex-centric: {overlap}/10");
    println!("top-10 by PIE PageRank: {tp:?}");
    println!(
        "messages: PIE {} vs vertex-centric {} ({}x)",
        pie.stats.total_updates(),
        vc.stats.total_updates(),
        vc.stats.total_updates().max(1) / pie.stats.total_updates().max(1)
    );
}
