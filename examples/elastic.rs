//! Elastic partitions end to end: a skewed delta stream drives one
//! fragment's load far above its peers, the drift monitor (maintained
//! incrementally inside [`Session::apply`]) watches it happen, and
//! [`Session::rebalance`] heals the skew **in place** — bounded
//! ownership migration with warm-state carry-over, instead of the
//! stop-the-world full re-partition it replaces. Serving answers are
//! identical before and after (outputs are partition-independent).
//!
//! ```sh
//! cargo run --release --example elastic
//! ```

use grape_aap::delta::generate::Xorshift;
use grape_aap::graph::partition::hash_partition;
use grape_aap::graph::{generate, VertexId};
use grape_aap::prelude::*;
use std::time::Instant;

const FRAGS: usize = 4;

fn main() -> Result<(), SessionError> {
    let g = generate::rmat(13, 8, true, 42);
    println!("graph: {} vertices, {} stored edges", g.num_vertices(), g.num_edges());

    // The skew: every inserted edge leaves a vertex owned by fragment 0
    // under the edge-cut hash partition, so fragment 0's stored-edge
    // load grows with the stream while the others stand still.
    let assignment = hash_partition(&g, FRAGS);
    let hot: Vec<VertexId> =
        (0..g.num_vertices() as u32).filter(|&v| assignment[v as usize] == 0).collect();

    let mut session = Session::builder(g.clone())
        .partition(edge_cut(FRAGS))
        .mode(Mode::aap())
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        // Explicit rebalancing: `.auto(true)` would instead fire inside
        // `apply()` whenever the threshold is crossed.
        .balance(BalancePolicy::new().max_imbalance(1.15).migration_budget(8192))
        .open()?;
    let dist0 = session.query::<Sssp>("sssp", &0)?;
    let comps0 = session.query::<ConnectedComponents>("cc", &())?;

    // -- the skewed stream -------------------------------------------
    let mut rng = Xorshift::new(7);
    let n = g.num_vertices() as u64;
    for _ in 0..64 {
        let mut b = DeltaBuilder::new();
        for _ in 0..512 {
            let u = hot[(rng.below(hot.len() as u64)) as usize];
            let v = rng.below(n) as u32;
            if u != v {
                b.add_edge(u, v, 1 + rng.below(9) as u32);
            }
        }
        session.apply(&b.build())?;
    }
    let before = session.balance_report().expect("balance policy configured");
    println!(
        "after stream: loads {:?}, imbalance {:.3} (threshold {:.2})",
        before.loads, before.imbalance, 1.15
    );
    assert!(before.imbalance > 1.15, "the skewed stream should overload fragment 0");

    // -- heal it in place --------------------------------------------
    let t = Instant::now();
    let report = session.rebalance()?;
    let took = t.elapsed();
    println!(
        "rebalance: moved {} vertices (~{} KiB) across {} repacked fragments in {:.1?}",
        report.vertices_migrated,
        report.migration_bytes / 1024,
        report.fragments_repacked,
        took
    );
    println!("imbalance {:.3} -> {:.3}", report.imbalance_before, report.imbalance_after);
    assert!(report.imbalance_after < report.imbalance_before);

    // The answers did not move: ownership is a physical property,
    // fixpoints are logical.
    let dist_now = session.query::<Sssp>("sssp", &0)?;
    let comps_now = session.query::<ConnectedComponents>("cc", &())?;
    assert_eq!(dist_now.len(), dist0.len());
    assert_eq!(comps_now.len(), comps0.len());

    // Compare against the machinery rebalance replaces: a full
    // re-partition + cold rerun of both programs on a fresh session.
    let t = Instant::now();
    let mut repart = Session::builder({
        // Reassemble the current logical graph from the session's own
        // fragments (what a stop-the-world re-partition would do).
        grape_aap::graph::mutate::reassemble(
            &session.fragments().iter().map(|a| &**a).collect::<Vec<_>>(),
        )
    })
    .partition(edge_cut(FRAGS))
    .mode(Mode::aap())
    .program("sssp", Sssp)
    .program("cc", ConnectedComponents)
    .open()?;
    let dist_ref = repart.query::<Sssp>("sssp", &0)?;
    let comps_ref = repart.query::<ConnectedComponents>("cc", &())?;
    let full_took = t.elapsed();
    println!(
        "full re-partition + cold rerun: {:.1?} ({}x the in-place rebalance)",
        full_took,
        (full_took.as_nanos() / took.as_nanos().max(1)).max(1)
    );
    assert_eq!(dist_now, dist_ref, "rebalanced fixpoint == full re-partition fixpoint");
    assert_eq!(comps_now, comps_ref, "rebalanced fixpoint == full re-partition fixpoint");

    // And the stream goes on, warm, on the migrated layout.
    let mut b = DeltaBuilder::new();
    b.add_edge(0, (n / 2) as u32, 1);
    let rep = session.apply(&b.build())?;
    println!(
        "post-rebalance apply advanced {} programs warm; metrics: {:?}",
        rep.programs.len(),
        session.metrics()
    );
    println!("ok");
    Ok(())
}
