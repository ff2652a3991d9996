//! The two runtimes must agree: the discrete-event simulator and the
//! multithreaded engine execute the same PIE programs over the same
//! fragments, so their *outputs* must be identical (times differ — one is
//! virtual, one is wall-clock). Under BSP both are deterministic, so their
//! per-worker counters must agree too.

use grape_aap::algos::{seq, Bfs, ConnectedComponents, PageRank, Sssp};
use grape_aap::graph::partition::{build_fragments, hash_partition};
use grape_aap::graph::{generate, Graph};
use grape_aap::prelude::*;

fn frags(g: &Graph<(), u32>, m: usize) -> Vec<Fragment<(), u32>> {
    build_fragments(g, &hash_partition(g, m))
}

#[test]
fn sssp_same_answer_in_both_runtimes() {
    let g = generate::rmat(9, 8, true, 44);
    let expect = seq::dijkstra(&g, 2);
    for mode in [Mode::Bsp, Mode::Ap, Mode::aap()] {
        let threaded = Engine::new(
            frags(&g, 5),
            EngineOpts { threads: 4, mode: mode.clone(), max_rounds: Some(100_000) },
        )
        .run(&Sssp, &2);
        let simulated =
            SimEngine::new(frags(&g, 5), SimOpts { mode: mode.clone(), ..SimOpts::default() })
                .expect("valid opts")
                .run(&Sssp, &2);
        assert_eq!(threaded.out, expect, "threaded, {mode:?}");
        assert_eq!(simulated.out, expect, "simulated, {mode:?}");
    }
}

#[test]
fn cc_same_answer_in_both_runtimes() {
    let g = generate::small_world(300, 2, 0.1, 45);
    let expect = seq::connected_components(&g);
    for mode in [Mode::Bsp, Mode::Ssp { c: 2 }, Mode::aap()] {
        let t = Engine::new(
            frags(&g, 6),
            EngineOpts { threads: 4, mode: mode.clone(), max_rounds: Some(100_000) },
        )
        .run(&ConnectedComponents, &());
        let s = SimEngine::new(frags(&g, 6), SimOpts { mode, ..SimOpts::default() })
            .expect("valid opts")
            .run(&ConnectedComponents, &());
        assert_eq!(t.out, expect);
        assert_eq!(s.out, expect);
    }
}

#[test]
fn bfs_same_answer_in_both_runtimes() {
    let g = generate::lattice2d(14, 14, 46);
    let expect = seq::bfs(&g, 5);
    let t = Engine::new(frags(&g, 4), EngineOpts::default()).run(&Bfs, &5);
    let s = SimEngine::new(frags(&g, 4), SimOpts::default()).expect("valid opts").run(&Bfs, &5);
    assert_eq!(t.out, expect);
    assert_eq!(s.out, expect);
}

#[test]
fn pagerank_close_in_both_runtimes() {
    let pr = PageRank { damping: 0.85, epsilon: 1e-8 };
    let modes =
        [Mode::Bsp, Mode::Ap, Mode::Ssp { c: 2 }, Mode::aap(), Mode::Hsync(HsyncConfig::default())];
    for (name, g) in [
        ("uniform", generate::uniform(200, 1200, true, 47)),
        ("rmat", generate::rmat(9, 8, true, 47)),
    ] {
        let expect = seq::pagerank_delta(&g, 0.85, 1e-8);
        for mode in &modes {
            let t = Engine::new(
                frags(&g, 4),
                EngineOpts {
                    mode: mode.clone(),
                    max_rounds: Some(100_000),
                    ..EngineOpts::default()
                },
            )
            .run(&pr, &());
            let s = SimEngine::new(
                frags(&g, 4),
                SimOpts { mode: mode.clone(), max_rounds: Some(100_000), ..SimOpts::default() },
            )
            .expect("valid opts")
            .run(&pr, &());
            assert!(!t.stats.aborted && !s.stats.aborted, "{name}, {mode:?}");
            for (v, &e) in expect.iter().enumerate() {
                assert!((t.out[v] - e).abs() < 1e-3, "threaded {name}, {mode:?}, v{v}");
                assert!((s.out[v] - e).abs() < 1e-3, "sim {name}, {mode:?}, v{v}");
            }
        }
    }
}

#[test]
fn sim_stats_are_deterministic_but_threaded_times_vary() {
    let g = generate::rmat(8, 6, true, 48);
    let run = || {
        SimEngine::new(frags(&g, 5), SimOpts::default())
            .expect("valid opts")
            .run(&ConnectedComponents, &())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.stats.makespan, b.stats.makespan);
    assert_eq!(a.stats.total_updates(), b.stats.total_updates());
    assert_eq!(a.stats.total_rounds(), b.stats.total_rounds());
    assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
}

/// The per-worker counters of one run, in worker order.
fn counters(stats: &RunStats) -> Vec<[u64; 9]> {
    stats
        .workers
        .iter()
        .map(|w| {
            [
                w.rounds,
                w.batches_in,
                w.updates_in,
                w.updates_delivered,
                w.batches_out,
                w.updates_out,
                w.bytes_out,
                w.effective_updates,
                w.redundant_updates,
            ]
        })
        .collect()
}

/// One BSP run of `prog` in each runtime over the same fragments:
/// `(threaded outputs, threaded stats, simulated outputs, simulated stats)`.
fn bsp_pair<P: PieProgram<(), u32>>(
    g: &Graph<(), u32>,
    prog: &P,
    q: &P::Query,
    threads: usize,
) -> (P::Out, RunStats, P::Out, RunStats) {
    let t = Engine::new(
        frags(g, 5),
        EngineOpts { threads, mode: Mode::Bsp, max_rounds: Some(100_000) },
    )
    .run(prog, q);
    let s = SimEngine::new(frags(g, 5), SimOpts { mode: Mode::Bsp, ..SimOpts::default() })
        .expect("valid opts")
        .run(prog, q);
    (t.out, t.stats, s.out, s.stats)
}

/// BSP is deterministic in both runtimes and both run the same round
/// step, so every per-worker counter agrees exactly at any thread count,
/// and PageRank's floating-point sums come out bit-identical.
#[test]
fn bsp_counters_match_across_runtimes() {
    let g = generate::rmat(9, 8, true, 44);
    for threads in [1usize, 2, 4] {
        let (to, ts, so, ss) = bsp_pair(&g, &Sssp, &2, threads);
        assert_eq!(counters(&ts), counters(&ss), "SSSP, {threads} threads");
        assert_eq!(to, so, "SSSP, {threads} threads");

        let (to, ts, so, ss) = bsp_pair(&g, &ConnectedComponents, &(), threads);
        assert_eq!(counters(&ts), counters(&ss), "CC, {threads} threads");
        assert_eq!(to, so, "CC, {threads} threads");

        let pr = PageRank { damping: 0.85, epsilon: 1e-8 };
        let (to, ts, so, ss) = bsp_pair(&g, &pr, &(), threads);
        assert_eq!(counters(&ts), counters(&ss), "PageRank, {threads} threads");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&to), bits(&so), "PageRank, {threads} threads");
    }
}
