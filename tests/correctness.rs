//! Cross-crate integration tests: every PIE algorithm, under every
//! execution mode, on assorted graphs and partition strategies, must agree
//! with its sequential reference — the end-to-end consequence of
//! Theorem 2 (Church–Rosser + correctness under T1–T3).

use grape_aap::algos::{seq, Bfs, ConnectedComponents, PageRank, Sssp};
use grape_aap::graph::partition::{
    build_fragments, build_fragments_n, build_fragments_vertex_cut, hash_partition, ldg_partition,
    range_partition, skewed_partition, vertex_cut_partition,
};
use grape_aap::graph::{generate, Graph};
use grape_aap::prelude::*;

fn modes() -> Vec<Mode> {
    vec![
        Mode::Bsp,
        Mode::Ap,
        Mode::Ssp { c: 1 },
        Mode::Ssp { c: 4 },
        Mode::aap(),
        Mode::Aap(AapConfig { l_floor: 3.0, ..AapConfig::default() }),
        Mode::Aap(AapConfig { staleness_bound: Some(2), ..AapConfig::default() }),
        Mode::Hsync(HsyncConfig::default()),
    ]
}

fn engine(frags: Vec<Fragment<(), u32>>, mode: Mode) -> Engine<(), u32> {
    Engine::new(frags, EngineOpts { threads: 4, mode, max_rounds: Some(500_000) })
}

fn graphs() -> Vec<(&'static str, Graph<(), u32>)> {
    vec![
        ("small_world", generate::small_world(300, 3, 0.1, 1)),
        ("rmat", generate::rmat(9, 8, true, 2)),
        ("lattice", generate::lattice2d(18, 18, 3)),
        ("uniform", generate::uniform(250, 1000, true, 4)),
    ]
}

#[test]
fn sssp_agrees_with_dijkstra_everywhere() {
    for (name, g) in graphs() {
        let expect = seq::dijkstra(&g, 1);
        for mode in modes() {
            let frags = build_fragments(&g, &hash_partition(&g, 6));
            let run = engine(frags, mode.clone()).run(&Sssp, &1);
            assert_eq!(run.out, expect, "graph {name}, mode {mode:?}");
            assert!(!run.stats.aborted);
        }
    }
}

#[test]
fn cc_agrees_with_union_find_everywhere() {
    for (name, g) in graphs() {
        let expect = seq::connected_components(&g);
        for mode in modes() {
            let frags = build_fragments(&g, &hash_partition(&g, 6));
            let run = engine(frags, mode.clone()).run(&ConnectedComponents, &());
            assert_eq!(run.out, expect, "graph {name}, mode {mode:?}");
        }
    }
}

#[test]
fn bfs_agrees_with_reference_everywhere() {
    let g = generate::small_world(260, 2, 0.08, 9);
    let expect = seq::bfs(&g, 7);
    for mode in modes() {
        let frags = build_fragments(&g, &hash_partition(&g, 5));
        let run = engine(frags, mode.clone()).run(&Bfs, &7);
        assert_eq!(run.out, expect, "mode {mode:?}");
    }
}

#[test]
fn pagerank_agrees_within_tolerance_everywhere() {
    let g = generate::rmat(8, 8, true, 5);
    let partitions = [
        ("hash", hash_partition(&g, 5)),
        ("range", range_partition(&g, 5)),
        ("single", vec![0; g.num_vertices()]),
    ];
    for epsilon in [1e-8, PageRank::default().epsilon] {
        let pr = PageRank { damping: 0.85, epsilon };
        let expect = seq::pagerank_delta(&g, 0.85, epsilon);
        for (name, assignment) in &partitions {
            for mode in modes() {
                let run = engine(build_fragments(&g, assignment), mode.clone()).run(&pr, &());
                assert!(!run.stats.aborted, "ε {epsilon}, partition {name}, mode {mode:?}");
                for (v, (a, b)) in run.out.iter().zip(&expect).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-3,
                        "ε {epsilon}, partition {name}, mode {mode:?}, vertex {v}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_partition_strategy_gives_the_same_answers() {
    let g = generate::small_world(400, 3, 0.15, 11);
    let expect_cc = seq::connected_components(&g);
    let expect_d = seq::dijkstra(&g, 0);
    let partitions: Vec<(&str, Vec<Fragment<(), u32>>)> = vec![
        ("hash", build_fragments(&g, &hash_partition(&g, 7))),
        ("range", build_fragments(&g, &range_partition(&g, 7))),
        ("ldg", build_fragments(&g, &ldg_partition(&g, 7, 1.2))),
        ("skewed", build_fragments(&g, &skewed_partition(&g, 7, 5.0))),
        ("vertex_cut", build_fragments_vertex_cut(&g, &vertex_cut_partition(&g, 7))),
        ("single", build_fragments_n(&g, &vec![0; g.num_vertices()], 1)),
    ];
    for (name, frags) in partitions {
        let run = engine(frags, Mode::aap()).run(&ConnectedComponents, &());
        assert_eq!(run.out, expect_cc, "partition {name}");
    }
    // SSSP across strategies too (rebuild fragments; engines are per-partition).
    for (name, frags) in [
        ("hash", build_fragments(&g, &hash_partition(&g, 7))),
        ("skewed", build_fragments(&g, &skewed_partition(&g, 7, 5.0))),
        ("vertex_cut", build_fragments_vertex_cut(&g, &vertex_cut_partition(&g, 7))),
    ] {
        let run = engine(frags, Mode::aap()).run(&Sssp, &0);
        assert_eq!(run.out, expect_d, "partition {name}");
    }
}

#[test]
fn engine_is_reusable_across_queries() {
    let g = generate::lattice2d(15, 15, 21);
    let frags = build_fragments(&g, &hash_partition(&g, 4));
    let engine = Engine::new(frags, EngineOpts::default());
    for src in [0u32, 10, 100, 224] {
        assert_eq!(engine.run(&Sssp, &src).out, seq::dijkstra(&g, src), "src {src}");
    }
}

#[test]
fn stats_are_plausible() {
    let g = generate::rmat(9, 8, true, 13);
    let frags = build_fragments(&g, &hash_partition(&g, 6));
    let run = Engine::new(frags, EngineOpts::default()).run(&ConnectedComponents, &());
    let s = &run.stats;
    assert_eq!(s.workers.len(), 6);
    assert!(s.total_rounds() >= 6, "every worker ran PEval");
    assert!(s.total_bytes() > 0);
    assert!(s.total_updates() > 0);
    assert!(s.makespan > 0.0);
    assert!(s.total_compute() > 0.0);
    // Each worker's batches_in equals someone's batches_out in total.
    let bin: u64 = s.workers.iter().map(|w| w.batches_in).sum();
    let bout: u64 = s.workers.iter().map(|w| w.batches_out).sum();
    assert_eq!(bin, bout);
    let uin: u64 = s.workers.iter().map(|w| w.updates_in).sum();
    let uout: u64 = s.workers.iter().map(|w| w.updates_out).sum();
    assert_eq!(uin, uout);
}

#[test]
fn max_rounds_safety_valve_aborts() {
    /// A program that ping-pongs forever (violates T1/T2 on purpose).
    struct Forever;
    impl PieProgram<(), u32> for Forever {
        type Query = ();
        type Val = u64;
        type State = u64;
        type Out = ();
        fn combine(&self, a: &mut u64, b: u64) -> bool {
            *a = b;
            true
        }
        fn peval(&self, _: &(), f: &Fragment<(), u32>, ctx: &mut UpdateCtx<u64>) -> u64 {
            if let Some(b) = f.inner_out().first() {
                ctx.send(*b, 1);
            }
            0
        }
        fn inceval(
            &self,
            _: &(),
            f: &Fragment<(), u32>,
            st: &mut u64,
            msgs: &mut Messages<u64>,
            ctx: &mut UpdateCtx<u64>,
        ) {
            *st += msgs.len() as u64;
            if let Some(b) = f.inner_out().first() {
                ctx.send(*b, *st); // always "changes": never converges
            }
        }
        fn assemble(&self, _: &(), _: &[std::sync::Arc<Fragment<(), u32>>], _: Vec<u64>) {}
    }
    let g = generate::small_world(40, 2, 0.0, 1);
    let frags = build_fragments(&g, &hash_partition(&g, 4));
    let engine =
        Engine::new(frags, EngineOpts { threads: 2, mode: Mode::Ap, max_rounds: Some(50) });
    let run = engine.run(&Forever, &());
    assert!(run.stats.aborted);
}
