//! `batch_powerlaw` and `batch_road`: a closed loop of cold fixpoints
//! through `Engine::run`, one client.
//!
//! The two share everything but the graph. On the power-law graph a
//! fixpoint takes about ten rounds, so the `eval0`/`inceval` kernels and
//! memory layout do the work; on the lattice it takes over a hundred
//! tiny rounds, so routing, inbox drains, policy decisions and wake-ups
//! do. A kernel win must show on the first and not the second, a
//! messaging win the other way round. Delta, snapshot, balance and the
//! session cache do nothing here.

use super::{
    pagerank_close, peak_rss_mb, put_core_self_ms, put_layer_table, put_median, put_percentile,
    set_up_repeatedly, timed, Ctx, Outcome, Recording, Spans, Tally, FRAGMENTS,
};
use crate::adapter::{self, BatchEngine, Graph, ModeKind, OpStats, TraceTap};
use crate::loadgen::Rng;
use crate::metrics::Values;
use crate::spans::Trace;
use crate::stats;
use std::time::Instant;

/// Which graph, and how many of each fixpoint make one cycle.
pub struct Spec {
    graph: GraphKind,
    /// SSSP, CC and PageRank runs per cycle.
    cycle: (usize, usize, usize),
}

enum GraphKind {
    Rmat { scale: u32, edge_factor: usize },
    Lattice { side: usize },
}

/// `rmat(16, 16)`: 65 536 vertices, 1 048 576 edges.
pub fn powerlaw(smoke: bool) -> Spec {
    Spec {
        graph: GraphKind::Rmat { scale: if smoke { 10 } else { 16 }, edge_factor: 16 },
        cycle: (8, 4, 1),
    }
}

/// `lattice2d(128, 128)`: 16 384 vertices, about 120 rounds per SSSP.
/// (160 x 160 gives too few SSSP runs per timed phase for a p90.)
pub fn road(smoke: bool) -> Spec {
    Spec { graph: GraphKind::Lattice { side: if smoke { 24 } else { 128 } }, cycle: (4, 4, 2) }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Sssp,
    Cc,
    PageRank,
}

/// The cycle's ops in a fixed order that spreads each kind evenly: the
/// `j`-th of `n` ops of a kind sits at `(j + 0.5) / n` of the cycle.
fn cycle_order((sssp, cc, pr): (usize, usize, usize)) -> Vec<Kind> {
    let mut at: Vec<(f64, Kind)> = Vec::with_capacity(sssp + cc + pr);
    for (kind, n) in [(Kind::Sssp, sssp), (Kind::Cc, cc), (Kind::PageRank, pr)] {
        at.extend((0..n).map(|j| ((j as f64 + 0.5) / n as f64, kind)));
    }
    at.sort_by(|a, b| a.0.total_cmp(&b.0));
    at.into_iter().map(|(_, k)| k).collect()
}

/// The seeded sequence SSSP sources come from; every run of a kind of
/// graph should do the same amount of work whatever its seed.
enum Sources {
    /// Power-law graph: uniform over the vertices of out-degree >= 8, so
    /// every SSSP explores the bulk of the graph.
    Pool(Vec<u32>, Rng),
    /// Lattice: an SSSP's round count follows its source's distance to
    /// the far corner, so sources walk a Halton sequence from a seeded
    /// index — every stretch of it covers the grid evenly.
    Grid { side: usize, next: u64 },
}

/// The `i`-th element of the van der Corput sequence in `base`.
fn radical_inverse(mut i: u64, base: u64) -> f64 {
    let (mut scale, mut x) = (1.0, 0.0);
    while i > 0 {
        scale /= base as f64;
        x += scale * (i % base) as f64;
        i /= base;
    }
    x
}

impl Sources {
    fn new(spec: &Spec, g: &Graph, seed: u64) -> Sources {
        let mut rng = Rng::new(seed).fork(1);
        match spec.graph {
            GraphKind::Rmat { .. } => {
                let degrees = adapter::degrees(g);
                let pool: Vec<u32> =
                    (0..degrees.len() as u32).filter(|&v| degrees[v as usize] >= 8).collect();
                assert!(!pool.is_empty(), "no vertex of out-degree 8");
                Sources::Pool(pool, rng)
            }
            GraphKind::Lattice { side } => Sources::Grid { side, next: 1 + rng.below(1 << 20) },
        }
    }

    /// The same vertex whatever the seed: set-up time should not depend
    /// on where the warm-up SSSP starts.
    fn warm_up(&self) -> u32 {
        match self {
            Sources::Pool(pool, _) => pool[0],
            Sources::Grid { side, .. } => (side / 2 * side + side / 2) as u32,
        }
    }

    fn next(&mut self) -> u32 {
        match self {
            Sources::Pool(pool, rng) => pool[rng.below(pool.len() as u64) as usize],
            Sources::Grid { side, next } => {
                let cell = |x: f64| ((x * *side as f64) as usize).min(*side - 1);
                let (row, col) = (cell(radical_inverse(*next, 2)), cell(radical_inverse(*next, 3)));
                *next += 1;
                (row * *side + col) as u32
            }
        }
    }
}

struct Setup {
    g: Graph,
    engine: BatchEngine,
    tap: Option<TraceTap>,
    sources: Sources,
    generate_ms: f64,
    partition_ms: f64,
    build_ms: f64,
    total_s: f64,
}

fn generate(spec: &Spec, seed: u64) -> Graph {
    match spec.graph {
        GraphKind::Rmat { scale, edge_factor } => adapter::gen_rmat(scale, edge_factor, seed),
        GraphKind::Lattice { side } => adapter::gen_lattice(side, side, seed),
    }
}

/// Generate, partition, build, open the engine, warm it up.
fn set_up(spec: &Spec, ctx: &Ctx) -> Setup {
    let t0 = Instant::now();
    let (g, generate_ms) = timed(|| generate(spec, ctx.seed));
    let (assign, partition_ms) = timed(|| adapter::hash_assign(&g, FRAGMENTS));
    let (frags, build_ms) = timed(|| adapter::build_frags(&g, &assign, FRAGMENTS));
    let mut engine = BatchEngine::new(frags, ctx.threads, ModeKind::Aap);
    let sources = Sources::new(spec, &g, ctx.seed);
    // Warm-up: first runs size the engine's pooled buffers.
    engine.run_sssp(sources.warm_up());
    engine.run_cc();
    engine.run_pagerank();
    let total_s = t0.elapsed().as_secs_f64();
    // Attached after the warm-up, so the trace holds timed ops only.
    let tap = ctx.traced.then(|| engine.attach_recorder(1 << 18));
    Setup { g, engine, tap, sources, generate_ms, partition_ms, build_ms, total_s }
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Outcome, String> {
    let mut values = Values::default();
    let mut invalid = Vec::new();
    let mut tally = Tally::default();

    let Setup { g, engine, tap, mut sources, .. } = set_up_repeatedly(
        ctx,
        &mut values,
        &[
            ("setup_s", |s: &Setup| s.total_s),
            ("graph.generate_ms", |s| s.generate_ms),
            ("graph.partition_ms", |s| s.partition_ms),
            ("graph.build_fragments_ms", |s| s.build_ms),
        ],
        |_| Ok(set_up(spec, ctx)),
        drop,
    )?;

    // Oracles that do not depend on the source, once.
    let want_cc = adapter::seq_cc(&g);
    let want_pr = adapter::seq_pagerank(&g);
    let edges = g.num_edges() as f64;

    let epoch = Instant::now();
    let mut spans = Spans::new(ctx.traced, epoch, 0);
    let mut recording = Recording::new(tap, epoch);

    let order = cycle_order(spec.cycle);
    let (mut sssp_ms, mut cc_ms, mut pr_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut all: Vec<OpStats> = Vec::new();
    let mut on_clock_ms = 0.0;
    while on_clock_ms < ctx.seconds * 1e3 {
        for &kind in &order {
            let ms = match kind {
                Kind::Sssp => {
                    let src = sources.next();
                    let ((out, st), ms) = spans.op("op.sssp", "core.run", || engine.run_sssp(src));
                    all.push(st);
                    sssp_ms.push(ms);
                    tally.check(out == adapter::seq_dijkstra(&g, src), || {
                        format!("SSSP from {src} differs from seq::dijkstra")
                    });
                    ms
                }
                Kind::Cc => {
                    let ((out, st), ms) = spans.op("op.cc", "core.run", || engine.run_cc());
                    all.push(st);
                    cc_ms.push(ms);
                    tally.check(out == want_cc, || "CC differs from seq".into());
                    ms
                }
                Kind::PageRank => {
                    let ((out, st), ms) =
                        spans.op("op.pagerank", "core.run", || engine.run_pagerank());
                    all.push(st);
                    pr_ms.push(ms);
                    tally.check(pagerank_close(&out, &want_pr), || {
                        "PageRank differs from seq::pagerank_delta".into()
                    });
                    ms
                }
            };
            on_clock_ms += ms;
            recording.drain();
        }
    }

    put_median(&mut values, "sssp_p50_ms", &sssp_ms);
    put_percentile(&mut values, &mut invalid, ctx.lenient(), "sssp_p90_ms", &sssp_ms, 0.90);
    put_median(&mut values, "cc_p50_ms", &cc_ms);
    put_median(&mut values, "pagerank_p50_ms", &pr_ms);
    values.set("edges_per_s", edges * all.len() as f64 / (on_clock_ms / 1e3), all.len());
    values.set("process.peak_rss_mb", peak_rss_mb(), 1);

    // Counters read from `RunStats`, over every op of the timed phase.
    let n = all.len() as f64;
    let sum = |f: fn(&OpStats) -> f64| all.iter().map(f).sum::<f64>();
    values.count("core.rounds_max", sum(|s| s.rounds_max as f64) / n);
    values.count("core.rounds_total", sum(|s| s.rounds_total as f64) / n);
    values.count("core.updates_per_op", sum(|s| s.updates as f64) / n);
    values.count("core.bytes_per_op", sum(|s| s.bytes as f64) / n);
    values.count("core.stale_ratio", sum(|s| s.stale_ratio) / n);
    let capacity = sum(|s| s.makespan_s * s.workers as f64);
    values.count("core.compute_share", sum(|s| s.compute_s) / capacity);
    values.count("core.suspend_share", sum(|s| s.suspend_s) / capacity);
    values.count("core.idle_share", sum(|s| s.idle_s) / capacity);
    values.count(
        "core.round_overhead_us",
        sum(|s| (s.makespan_s - s.max_worker_compute_s).max(0.0)) * 1e6
            / sum(|s| s.rounds_max as f64),
    );

    if ctx.traced {
        let trace = Trace::assemble(spans.0.take().into_iter().collect(), 0, recording.builder);
        put_layer_table(&mut values, &trace, recording.dropped);
        put_core_self_ms(&mut values, &trace, &trace.self_times_us(), &trace.roots(|_| true));
        trace.write_chrome(&ctx.trace_path, 60_000).map_err(|e| e.to_string())?;
        drop(engine);
        probes(&g, sources.next(), ctx, &mut values)?;
    }

    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, values, invalid })
}

/// Median of `n` timings of `f`, in milliseconds.
fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let ms: Vec<f64> = (0..n).map(|_| timed(&mut f).1).collect();
    stats::median(&ms).expect("n > 0")
}

/// Layer probes: harness timers around single public calls, outside the
/// timed phase and untraced.
fn probes(g: &Graph, src: u32, ctx: &Ctx, values: &mut Values) -> Result<(), String> {
    let reps = if ctx.smoke { 2 } else { 5 };
    values.set("algos.seq_sssp_ms", median_ms(reps, || drop(adapter::seq_dijkstra(g, src))), reps);
    values.set("algos.seq_cc_ms", median_ms(reps, || drop(adapter::seq_cc(g))), reps);

    let assign = adapter::hash_assign(g, FRAGMENTS);
    let frags = adapter::build_frags(g, &assign, FRAGMENTS);
    values.count("graph.border_ratio", adapter::border_ratio(&frags));

    // The same SSSP under the three modes, and on one fragment.
    let mut by_mode = [0.0; 3];
    let modes = [
        ("core.bsp_ms", ModeKind::Bsp),
        ("core.ap_ms", ModeKind::Ap),
        ("core.aap_ms", ModeKind::Aap),
    ];
    for (k, (name, mode)) in modes.into_iter().enumerate() {
        let engine = BatchEngine::new(frags.clone(), ctx.threads, mode);
        engine.run_sssp(src);
        by_mode[k] = median_ms(reps, || drop(engine.run_sssp(src)));
        values.set(name, by_mode[k], reps);
    }
    values.count("core.aap_over_bsp", by_mode[2] / by_mode[0]);
    let one = adapter::build_frags(g, &vec![0; g.num_vertices()], 1);
    let engine = BatchEngine::new(one, 1, ModeKind::Aap);
    engine.run_sssp(src);
    values.set("algos.single_fragment_ms", median_ms(reps, || drop(engine.run_sssp(src))), reps);

    // ROADMAP 4d: does the simulator predict the measured ranking?
    let bsp = adapter::sim_sssp_makespan(frags.clone(), ModeKind::Bsp, src)?;
    let aap = adapter::sim_sssp_makespan(frags, ModeKind::Aap, src)?;
    values.count("sim.aap_over_bsp_predicted", aap / bsp);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_holds_the_stated_mix_spread_out() {
        let o = cycle_order((8, 4, 1));
        assert_eq!(o.len(), 13);
        let count = |k: Kind| o.iter().filter(|&&x| x == k).count();
        assert_eq!((count(Kind::Sssp), count(Kind::Cc), count(Kind::PageRank)), (8, 4, 1));
        // No two CCs in a row, and the cycle is the same every time.
        assert!(!o.windows(2).any(|w| w[0] == Kind::Cc && w[1] == Kind::Cc));
        assert!(o == cycle_order((8, 4, 1)));
        let o = cycle_order((4, 4, 2));
        assert_eq!((o.len(), o.iter().filter(|&&x| x == Kind::PageRank).count()), (10, 2));
    }

    #[test]
    fn lattice_sources_are_seeded_and_cover_the_grid_evenly() {
        let spec = road(false);
        let g = adapter::gen_lattice(4, 4, 0); // only the spec's side matters
        let draw = |seed: u64, n: usize| {
            let mut s = Sources::new(&spec, &g, seed);
            (0..n).map(|_| s.next()).collect::<Vec<u32>>()
        };
        assert_eq!(draw(5, 64), draw(5, 64));
        assert_ne!(draw(5, 64), draw(6, 64));
        // Any 144 consecutive sources put 36 +- 6 in each quadrant.
        for seed in 0..8 {
            let mut quadrant = [0usize; 4];
            for v in draw(seed, 144) {
                let (row, col) = (v as usize / 128, v as usize % 128);
                assert!(row < 128 && col < 128);
                quadrant[(row / 64) * 2 + col / 64] += 1;
            }
            assert!(quadrant.iter().all(|&q| (30..=42).contains(&q)), "{quadrant:?}");
        }
        assert_eq!(radical_inverse(1, 2), 0.5);
        assert_eq!(radical_inverse(6, 2), 0.375);
        assert!((radical_inverse(5, 3) - 7.0 / 9.0).abs() < 1e-12);
    }
}
