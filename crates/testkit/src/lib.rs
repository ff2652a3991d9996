//! # aap-testkit
//!
//! Shared scaffolding for the equivalence suites (`tests/delta_equiv.rs`,
//! `tests/snapshot_equiv.rs`, `tests/routing_equiv.rs`,
//! `tests/deletion_equiv.rs`): random-graph and random-delta strategies,
//! the execution-mode matrix, partition-kind helpers, the reference
//! shortest-path kernel (`tests/kernel_equiv.rs`), and one
//! [`assert_equiv`] driver that proves
//! `run_incremental(delta stream, retained state)` ==
//! `cold run on the final graph` for any warm-startable program, across
//! `algo × partition × mode`.
//!
//! Dev-dependency only — nothing here ships in the library crates.

use aap_algos::{CcState, ConnectedComponents, Sssp, SsspState};
use aap_core::pie::{WarmStart, WarmStrategy};
use aap_core::{Engine, EngineOpts, HsyncConfig, Mode, RunState};
use aap_delta::generate::Xorshift;
use aap_delta::{apply_to_graph, replay, run_incremental_with, DeltaBuilder, GraphDelta};
use aap_graph::mutate::EditBuffers;
use aap_graph::partition::{
    build_fragments_n, build_fragments_vertex_cut_n, hash_partition, vertex_cut_partition,
};
use aap_graph::{generate, Fragment, Graph, LocalId};
use aap_session::{edge_cut, vertex_cut, DurabilityPolicy, Session, SessionError};
use aap_sim::{ScheduleFuzz, SimEngine, SimOpts};
use aap_snapshot::{
    program_state_to_bytes, restore_engine, save_engine, write_file_atomic, DeltaLog, SnapshotError,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Proptest case count: the per-suite default, overridable through the
/// `PROPTEST_CASES` environment variable — how CI's scheduled
/// `proptest-deep` job runs the same suites at 512 cases without
/// patching them.
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The schedule-fuzz seed sweep: `default` seeds per call site,
/// overridable through the `AAP_FUZZ_SEEDS` environment variable — how
/// CI's nightly `proptest-deep` job deepens the hostile-schedule matrix
/// without patching the suites. Seeds are sequential on purpose: every
/// fuzz-path assertion names its reproducing seed, so
/// `ScheduleFuzz::seeded(<that seed>)` replays the exact timeline.
pub fn fuzz_seeds(default: usize) -> Vec<u64> {
    let n = std::env::var("AAP_FUZZ_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    (1..=n as u64).collect()
}

/// Simulator options for one cell of the fuzz matrix: `mode` under the
/// seeded hostile schedule (bounded rounds, like [`test_opts`]).
pub fn fuzz_opts(mode: Mode, seed: u64) -> SimOpts {
    SimOpts { mode, max_rounds: Some(200_000), ..SimOpts::default() }
        .schedule(ScheduleFuzz::seeded(seed))
}

// ---------------------------------------------------------------------
// Random graphs
// ---------------------------------------------------------------------

/// The shared random-graph strategy: uniform and small-world topologies
/// across the size band every equivalence suite uses.
pub fn arb_graph() -> impl Strategy<Value = Graph<(), u32>> {
    prop_oneof![
        (10usize..100, 2usize..8, 0u64..50).prop_map(|(n, ef, s)| generate::uniform(
            n,
            n * ef,
            true,
            s
        )),
        (10usize..100, 1usize..3, 0u64..50).prop_map(|(n, k, s)| generate::small_world(
            n,
            k.min(n - 1).max(1),
            0.3,
            s
        )),
    ]
}

// ---------------------------------------------------------------------
// Partitions
// ---------------------------------------------------------------------

/// Which partition family a check runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// Hash edge-cut (owned vertices + edge-less mirrors).
    EdgeCut,
    /// Hash vertex-cut (replicated copies carrying edges).
    VertexCut,
}

/// Both partition kinds, for matrix loops.
pub const PARTITIONS: [PartitionKind; 2] = [PartitionKind::EdgeCut, PartitionKind::VertexCut];

/// Build `m` fragments of `g` under the given partition kind (the same
/// hash rules the delta subsystem assumes for fresh vertices).
pub fn build_parts(g: &Graph<(), u32>, kind: PartitionKind, m: usize) -> Vec<Fragment<(), u32>> {
    match kind {
        PartitionKind::EdgeCut => build_fragments_n(g, &hash_partition(g, m), m),
        PartitionKind::VertexCut => build_fragments_vertex_cut_n(g, &vertex_cut_partition(g, m), m),
    }
}

// ---------------------------------------------------------------------
// The reference shortest-path kernel
// ---------------------------------------------------------------------

/// The straightforward relaxation kernel that
/// `aap_algos::common::dijkstra_from_seeds` replaced, kept as the oracle
/// of `tests/kernel_equiv.rs`: every seed and every improved vertex goes
/// through the heap, border vertices (`Fragment::is_border`) are marked
/// in a `|Fi|`-sized bitmap, and the marked ids are appended to
/// `changed_border` in ascending order — the caller still filters them
/// with `emit_policy`. Returns heap pops + edges scanned.
pub fn reference_dijkstra_from_seeds<V, E>(
    frag: &Fragment<V, E>,
    dist: &mut [u64],
    seeds: &[LocalId],
    weight: impl Fn(&E) -> u64,
    changed_border: &mut Vec<LocalId>,
) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, LocalId)>> = BinaryHeap::new();
    for &s in seeds {
        heap.push(Reverse((dist[s as usize], s)));
    }
    let mut changed: Vec<bool> = vec![false; dist.len()];
    for &s in seeds {
        if frag.is_border(s) {
            changed[s as usize] = true;
        }
    }
    let mut work: u64 = 0;
    while let Some(Reverse((d, u))) = heap.pop() {
        work += 1;
        if d > dist[u as usize] {
            continue; // stale heap entry
        }
        work += frag.neighbors(u).len() as u64;
        for (v, e) in frag.edges(u) {
            let nd = d.saturating_add(weight(e));
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
                if frag.is_border(v) {
                    changed[v as usize] = true;
                }
            }
        }
    }
    changed_border
        .extend(changed.iter().enumerate().filter(|&(_, &c)| c).map(|(l, _)| l as LocalId));
    work
}

// ---------------------------------------------------------------------
// Execution modes
// ---------------------------------------------------------------------

/// The full five-mode matrix (BSP, AP, SSP, AAP, Hsync).
pub fn all_modes() -> Vec<Mode> {
    vec![Mode::Bsp, Mode::Ap, Mode::Ssp { c: 2 }, Mode::aap(), Mode::Hsync(HsyncConfig::default())]
}

/// Engine options every suite runs with: bounded rounds so a policy bug
/// fails the test instead of hanging it.
pub fn test_opts(mode: Mode) -> EngineOpts {
    EngineOpts { threads: 4, mode, max_rounds: Some(200_000) }
}

// ---------------------------------------------------------------------
// Random deltas
// ---------------------------------------------------------------------

/// A random single batch: edge inserts and weight decreases (monotone),
/// plus — when `allow_removals` — edge/vertex removals that exercise the
/// non-monotone strategies.
pub fn arb_delta(g: &Graph<(), u32>, seed: u64, allow_removals: bool) -> GraphDelta<(), u32> {
    let n = g.num_vertices() as u32;
    let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
    let mut rng = Xorshift::new(seed);
    let inserts = 1 + (rng.below(6)) as usize;
    for _ in 0..inserts {
        let u = rng.below(n as u64) as u32;
        let v = rng.below(n as u64) as u32;
        if u != v {
            b.add_edge(u, v, 1 + rng.below(9) as u32);
        }
    }
    if rng.below(2) == 0 {
        // Weight decrease on an existing edge (min over current weights
        // keeps it monotone-decreasing).
        let u = rng.below(n as u64) as u32;
        if let Some((&t, &w)) = g.neighbors(u).first().zip(g.edge_data(u).first()) {
            b.set_weight(u, t, w.saturating_sub(1).max(1).min(w));
        }
    }
    if allow_removals {
        for _ in 0..(1 + rng.below(3)) {
            let u = rng.below(n as u64) as u32;
            if let Some(&t) = g.neighbors(u).first() {
                b.remove_edge(u, t);
            }
        }
        if rng.below(3) == 0 {
            b.remove_vertex(rng.below(n as u64) as u32);
        }
    }
    b.build()
}

/// A long adversarial stream over `g`: every batch interleaves edge
/// inserts, edge removals, weight increases *and* decreases, vertex
/// additions (ids extend the dense space contiguously across batches)
/// and vertex removals — the workload the deletion-exact warm path must
/// survive without a cold recompute.
pub fn adversarial_stream(
    g: &Graph<(), u32>,
    batches: usize,
    seed: u64,
) -> Vec<GraphDelta<(), u32>> {
    let mut rng = Xorshift::new(seed);
    let mut cur = g.clone();
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let n = cur.num_vertices() as u32;
        let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
        // Inserts between existing vertices.
        for _ in 0..(1 + rng.below(4)) {
            let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
            if u != v {
                b.add_edge(u, v, 1 + rng.below(9) as u32);
            }
        }
        // Removals of existing edges.
        for _ in 0..rng.below(4) {
            let u = rng.below(n as u64) as u32;
            let deg = cur.neighbors(u).len() as u64;
            if deg > 0 {
                let t = cur.neighbors(u)[rng.below(deg) as usize];
                if u != t {
                    b.remove_edge(u, t);
                }
            }
        }
        // Weight updates in both directions.
        for _ in 0..rng.below(3) {
            let u = rng.below(n as u64) as u32;
            if let Some((&t, &w)) = cur.neighbors(u).first().zip(cur.edge_data(u).first()) {
                let w_new = if rng.below(2) == 0 {
                    w.saturating_add(1 + rng.below(20) as u32) // increase
                } else {
                    w.saturating_sub(1).max(1) // decrease
                };
                b.set_weight(u, t, w_new);
            }
        }
        // Vertex add (wired in, so it matters) and vertex remove.
        if rng.below(3) == 0 {
            b.add_vertex(n, ());
            b.add_edge(rng.below(n as u64) as u32, n, 1 + rng.below(9) as u32);
        }
        if rng.below(4) == 0 {
            b.remove_vertex(rng.below(n as u64) as u32);
        }
        let delta = b.build();
        cur = apply_to_graph(&cur, &delta);
        out.push(delta);
    }
    out
}

/// A skewed delta stream: every batch lands its new edges on source
/// vertices owned by fragment 0 of the `m`-way hash edge-cut, so that
/// fragment's stored-edge load grows while the others stand still —
/// the drift workload elastic rebalancing (`aap-balance`) exists to
/// heal. Targets are uniform, so the cut keeps churning too.
pub fn skewed_stream(
    g: &Graph<(), u32>,
    m: usize,
    batches: usize,
    per_batch: usize,
    seed: u64,
) -> Vec<GraphDelta<(), u32>> {
    let assign = hash_partition(g, m);
    let hot: Vec<u32> =
        (0..g.num_vertices() as u32).filter(|&v| assign[v as usize] == 0).collect();
    assert!(!hot.is_empty(), "fragment 0 owns no vertices of the seed graph");
    let n = g.num_vertices() as u64;
    let mut rng = Xorshift::new(seed);
    (0..batches)
        .map(|_| {
            let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
            for _ in 0..per_batch {
                let u = hot[rng.below(hot.len() as u64) as usize];
                let v = rng.below(n) as u32;
                if u != v {
                    b.add_edge(u, v, 1 + rng.below(9) as u32);
                }
            }
            b.build()
        })
        .collect()
}

// ---------------------------------------------------------------------
// The equivalence driver
// ---------------------------------------------------------------------

/// What one [`assert_equiv`] run observed, for suite-level assertions
/// (strategy coverage, message-count comparisons).
#[derive(Debug, Default)]
pub struct EquivReport {
    /// The strategy each batch resolved to, in stream order.
    pub strategies: Vec<WarmStrategy>,
    /// Total updates shipped by the incremental runs (all batches).
    pub incremental_updates: u64,
    /// Total updates shipped by one cold run on the final graph.
    pub cold_updates: u64,
    /// Effective updates across the incremental runs.
    pub incremental_effective: u64,
    /// Effective updates of the final cold run.
    pub cold_effective: u64,
}

impl EquivReport {
    /// True if some batch ran the given strategy.
    pub fn saw(&self, s: WarmStrategy) -> bool {
        self.strategies.contains(&s)
    }
}

/// The shared acceptance driver: stream `deltas` through
/// `run_incremental` on the threaded engine and assert, **after every
/// batch**, that the incremental answer equals a cold run on the
/// current graph — then replay an empty delta and assert the retained
/// state sits at the fixpoint with zero messages.
///
/// `fuzz_seeds` adds the hostile-schedule dimension: after each batch,
/// the current graph is additionally solved cold by a simulator running
/// `mode` under [`ScheduleFuzz::seeded`] for every listed seed, and each
/// fuzzed fixpoint must equal the incremental answer (the failure names
/// the reproducing seed). Pass `&[]` to skip.
///
/// Panics (with `label` context) on any divergence.
#[allow(clippy::too_many_arguments)]
pub fn assert_equiv<P>(
    prog: &P,
    q: &P::Query,
    g0: &Graph<(), u32>,
    deltas: &[GraphDelta<(), u32>],
    kind: PartitionKind,
    m: usize,
    mode: Mode,
    fuzz_seeds: &[u64],
    label: &str,
) -> EquivReport
where
    P: WarmStart<(), u32>,
    P::Out: PartialEq + std::fmt::Debug,
{
    let mut engine = Engine::new(build_parts(g0, kind, m), test_opts(mode.clone()));
    let (_, mut state): (_, RunState<P::State>) = engine.run_retained(prog, q);

    let mut report = EquivReport::default();
    let mut bufs = EditBuffers::default();
    let mut g_cur = g0.clone();
    let mut last_out = None;
    for (i, delta) in deltas.iter().enumerate() {
        let r = run_incremental_with(&mut engine, prog, q, delta, &mut state, &mut bufs);
        report.strategies.push(r.strategy);
        report.incremental_updates += r.stats.total_updates();
        report.incremental_effective +=
            r.stats.workers.iter().map(|w| w.effective_updates).sum::<u64>();
        g_cur = apply_to_graph(&g_cur, delta);
        let cold = Engine::new(build_parts(&g_cur, kind, m), test_opts(mode.clone())).run(prog, q);
        assert_eq!(
            r.out, cold.out,
            "{label}: batch {i} ({}) diverged from cold on the current graph \
             [{kind:?}, {m} frags, mode {mode:?}]",
            r.strategy
        );
        for &seed in fuzz_seeds {
            let fuzzed =
                SimEngine::new(build_parts(&g_cur, kind, m), fuzz_opts(mode.clone(), seed))
                    .expect("fuzz opts are valid")
                    .run(prog, q);
            assert_eq!(
                fuzzed.out, r.out,
                "{label}: batch {i} fuzzed cold run diverged [{kind:?}, {m} frags, \
                 mode {mode:?}] — reproduce with ScheduleFuzz::seeded({seed})"
            );
        }
        if i + 1 == deltas.len() {
            report.cold_updates = cold.stats.total_updates();
            report.cold_effective =
                cold.stats.workers.iter().map(|w| w.effective_updates).sum::<u64>();
        }
        last_out = Some(r.out);
    }

    // The retained state must be reusable: an empty follow-up delta
    // reproduces the fixpoint without shipping a single message.
    if let Some(expected) = last_out {
        let empty = DeltaBuilder::new().build();
        let again = run_incremental_with(&mut engine, prog, q, &empty, &mut state, &mut bufs);
        assert_eq!(again.out, expected, "{label}: retained state must replay the fixpoint");
        assert_eq!(again.stats.total_updates(), 0, "{label}: empty delta must ship no messages");
    }
    report
}

/// The simulator mirror of [`assert_equiv`]: deterministic virtual time,
/// same after-every-batch cold comparison, running `mode`.
///
/// `fuzz_seeds` adds the hostile-schedule dimension *on the warm path*:
/// for every listed seed, a whole second incremental lineage (own
/// retained state, own fragments) streams the same deltas under
/// [`ScheduleFuzz::seeded`], and its answer must match the canonical
/// lineage after **every** batch — so warm-increase invalidation and
/// deletion splits are proven schedule-independent, not just cold
/// recomputation. Failures name the reproducing seed.
#[allow(clippy::too_many_arguments)]
pub fn assert_equiv_sim<P>(
    prog: &P,
    q: &P::Query,
    g0: &Graph<(), u32>,
    deltas: &[GraphDelta<(), u32>],
    kind: PartitionKind,
    m: usize,
    mode: Mode,
    fuzz_seeds: &[u64],
    label: &str,
) -> EquivReport
where
    P: WarmStart<(), u32>,
    P::Out: PartialEq + std::fmt::Debug,
{
    let opts = SimOpts { mode: mode.clone(), max_rounds: Some(200_000), ..SimOpts::default() };
    let mut sim =
        SimEngine::new(build_parts(g0, kind, m), opts.clone()).expect("sim opts are valid");
    let (_, mut state): (_, RunState<P::State>) = sim.run_retained(prog, q);

    // One fuzzed warm lineage per seed, advanced in lockstep with the
    // canonical one.
    type FuzzLineage<S> = Vec<(u64, SimEngine<(), u32>, RunState<S>)>;
    let mut fuzzed: FuzzLineage<P::State> = fuzz_seeds
        .iter()
        .map(|&seed| {
            let s = SimEngine::new(build_parts(g0, kind, m), fuzz_opts(mode.clone(), seed))
                .expect("fuzz opts are valid");
            let (_, st) = s.run_retained(prog, q);
            (seed, s, st)
        })
        .collect();

    let mut report = EquivReport::default();
    let mut bufs = EditBuffers::default();
    let mut g_cur = g0.clone();
    for (i, delta) in deltas.iter().enumerate() {
        let r =
            aap_delta::run_incremental_sim_with(&mut sim, prog, q, delta, &mut state, &mut bufs);
        report.strategies.push(r.strategy);
        report.incremental_updates += r.stats.total_updates();
        g_cur = apply_to_graph(&g_cur, delta);
        let cold = SimEngine::new(build_parts(&g_cur, kind, m), opts.clone())
            .expect("sim opts are valid")
            .run(prog, q);
        assert_eq!(
            r.out, cold.out,
            "{label}: batch {i} ({}) diverged from cold on the current graph \
             [sim, {kind:?}, mode {mode:?}]",
            r.strategy
        );
        for (seed, fsim, fstate) in &mut fuzzed {
            let fr = aap_delta::run_incremental_sim_with(fsim, prog, q, delta, fstate, &mut bufs);
            assert_eq!(
                fr.out, r.out,
                "{label}: batch {i} fuzzed warm lineage diverged [sim, {kind:?}, \
                 mode {mode:?}] — reproduce with ScheduleFuzz::seeded({seed})"
            );
        }
        if i + 1 == deltas.len() {
            report.cold_updates = cold.stats.total_updates();
        }
    }
    report
}

// ---------------------------------------------------------------------
// The session equivalence driver
// ---------------------------------------------------------------------

/// A unique scratch directory under the system temp dir (durable-session
/// tests). Caller removes it when done.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "aap_testkit_{}_{tag}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

/// What one [`assert_session_equiv`] run observed: the per-batch
/// strategies each program resolved to, in stream order.
#[derive(Debug, Default)]
pub struct SessionEquivReport {
    /// `(sssp strategy, cc strategy)` per batch.
    pub strategies: Vec<(WarmStrategy, WarmStrategy)>,
}

fn sssp_bytes(q: u32, st: &RunState<SsspState>, frags: &[Arc<Fragment<(), u32>>]) -> Vec<u8> {
    program_state_to_bytes(&q, &st.export(frags))
}

fn cc_bytes(st: &RunState<CcState>, frags: &[Arc<Fragment<(), u32>>]) -> Vec<u8> {
    program_state_to_bytes(&(), &st.export(frags))
}

/// The session acceptance driver: stream `deltas` through one durable
/// [`Session`] holding **two** programs (SSSP from `src`, CC) and,
/// after **every** batch, assert the session's outputs *and retained
/// states* are identical to the hand-rolled composition — one
/// `Engine` + `run_incremental_with` + `save_engine`/`DeltaLog` per
/// program. The session checkpoints **differentially** at two points
/// mid-stream (so restore resolves a real epoch chain, not a single
/// baseline); at the end the directory is restored into a fresh
/// session (`load → attach → replay`) and into fresh hand-rolled
/// engines (`restore_engine` + `replay`), and all three lineages must
/// agree **byte-for-byte** in their exported states.
///
/// `fuzz_seeds` closes the loop on restore-then-replay: after the
/// restored lineages are proven byte-identical, the final graph is
/// solved cold under [`ScheduleFuzz::seeded`] for every listed seed, and
/// each hostile-schedule fixpoint must equal the restored session's
/// answers — restore lands on the schedule-independent fixpoint, not on
/// an artifact of one canonical schedule. Failures name the seed.
///
/// Panics (with `label` context) on any divergence; cleans up its
/// scratch directories.
#[allow(clippy::too_many_arguments)]
pub fn assert_session_equiv(
    g0: &Graph<(), u32>,
    src: u32,
    deltas: &[GraphDelta<(), u32>],
    kind: PartitionKind,
    m: usize,
    mode: Mode,
    fuzz_seeds: &[u64],
    label: &str,
) -> SessionEquivReport {
    let dir = scratch_dir("session");
    let manual_dir = scratch_dir("manual");
    let spec = match kind {
        PartitionKind::EdgeCut => edge_cut(m),
        PartitionKind::VertexCut => vertex_cut(m),
    };

    // --- the session under test (durable from the start) ---
    let mut session = Session::builder(g0.clone())
        .partition(spec)
        .mode(mode.clone())
        .threads(4)
        .max_rounds(200_000)
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .durability(DurabilityPolicy::new(&dir))
        .unwrap_or_else(|e| panic!("{label}: durability: {e}"))
        .open()
        .unwrap_or_else(|e| panic!("{label}: open: {e}"));
    let s_out0 = session.query::<Sssp>("sssp", &src).unwrap();
    let c_out0 = session.query::<ConnectedComponents>("cc", &()).unwrap();

    // --- the hand-rolled composition: one engine + state per program ---
    let mut eng_s = Engine::new(build_parts(g0, kind, m), test_opts(mode.clone()));
    let mut eng_c = Engine::new(build_parts(g0, kind, m), test_opts(mode.clone()));
    let (r_s, mut st_s) = eng_s.run_retained(&Sssp, &src);
    let (r_c, mut st_c) = eng_c.run_retained(&ConnectedComponents, &());
    assert_eq!(s_out0, r_s.out, "{label}: initial SSSP output");
    assert_eq!(c_out0, r_c.out, "{label}: initial CC output");
    let snap_s = manual_dir.join("sssp.snap");
    let snap_c = manual_dir.join("cc.snap");
    save_engine(&snap_s, &eng_s, Some(&st_s)).unwrap();
    save_engine(&snap_c, &eng_c, Some(&st_c)).unwrap();
    let log_path = manual_dir.join("deltas.dlog");
    let mut log = DeltaLog::create(&log_path).unwrap();
    let mut replay_from = 0usize; // first delta index not covered by the manual snapshots

    let mut report = SessionEquivReport::default();
    let mut bufs = EditBuffers::default();
    let mut g_cur = g0.clone();
    // Two differential checkpoints mid-stream: restore must resolve the
    // newest version of every fragment/state shard across a 3-epoch
    // chain, not load one baseline.
    let checkpoints = [deltas.len() / 3, 2 * deltas.len() / 3];
    for (i, delta) in deltas.iter().enumerate() {
        g_cur = apply_to_graph(&g_cur, delta);
        let rep = session.apply(delta).unwrap_or_else(|e| panic!("{label}: apply {i}: {e}"));
        let rs = run_incremental_with(&mut eng_s, &Sssp, &src, delta, &mut st_s, &mut bufs);
        let rc = run_incremental_with(
            &mut eng_c,
            &ConnectedComponents,
            &(),
            delta,
            &mut st_c,
            &mut bufs,
        );
        log.write_delta(delta).unwrap();
        assert_eq!(
            rep.strategy("sssp"),
            Some(rs.strategy),
            "{label}: batch {i} SSSP strategy [{kind:?}, {mode:?}]"
        );
        assert_eq!(rep.strategy("cc"), Some(rc.strategy), "{label}: batch {i} CC strategy");
        report.strategies.push((rs.strategy, rc.strategy));

        // Outputs and retained states must match after EVERY batch.
        assert_eq!(
            session.query::<Sssp>("sssp", &src).unwrap(),
            rs.out,
            "{label}: batch {i} SSSP output [{kind:?}, {mode:?}]"
        );
        assert_eq!(
            session.query::<ConnectedComponents>("cc", &()).unwrap(),
            rc.out,
            "{label}: batch {i} CC output [{kind:?}, {mode:?}]"
        );
        assert_eq!(
            session.run_state::<Sssp>("sssp").unwrap().unwrap(),
            &st_s,
            "{label}: batch {i} SSSP state [{kind:?}, {mode:?}]"
        );
        assert_eq!(
            session.run_state::<ConnectedComponents>("cc").unwrap().unwrap(),
            &st_c,
            "{label}: batch {i} CC state [{kind:?}, {mode:?}]"
        );

        if checkpoints.contains(&(i + 1)) {
            session.checkpoint().unwrap_or_else(|e| panic!("{label}: checkpoint: {e}"));
            save_engine(&snap_s, &eng_s, Some(&st_s)).unwrap();
            save_engine(&snap_c, &eng_c, Some(&st_c)).unwrap();
            log = DeltaLog::create(&log_path).unwrap();
            replay_from = i + 1;
        }
    }
    drop(log);
    if deltas.len() >= 3 {
        assert!(
            session.epoch_chain().is_some_and(|c| c.len() >= 3),
            "{label}: two differential checkpoints must leave a 3-epoch chain, got {:?}",
            session.epoch_chain()
        );
    }

    // --- restart both lineages and demand byte-identical states ---
    let mut session2: Session<(), u32, _> = Session::restore(&dir)
        .mode(mode.clone())
        .threads(4)
        .max_rounds(200_000)
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .open()
        .unwrap_or_else(|e| panic!("{label}: restore: {e}"));
    let (mut eng_s2, at_s) =
        restore_engine::<(), u32, SsspState, _>(&snap_s, test_opts(mode.clone())).unwrap();
    let (mut eng_c2, at_c) =
        restore_engine::<(), u32, CcState, _>(&snap_c, test_opts(mode.clone())).unwrap();
    let (mut st_s2, _) = at_s.expect("manual snapshot carried SSSP state");
    let (mut st_c2, _) = at_c.expect("manual snapshot carried CC state");
    let logged = DeltaLog::replay::<(), u32, _>(&log_path).unwrap();
    assert_eq!(logged.len(), deltas.len() - replay_from, "{label}: manual log length");
    replay(&mut eng_s2, &Sssp, &src, &logged, &mut st_s2);
    replay(&mut eng_c2, &ConnectedComponents, &(), &logged, &mut st_c2);

    let frags = session.fragments();
    let live_s = sssp_bytes(src, session.run_state::<Sssp>("sssp").unwrap().unwrap(), frags);
    let live_c = cc_bytes(session.run_state::<ConnectedComponents>("cc").unwrap().unwrap(), frags);
    let frags2 = session2.fragments();
    let rest_s = sssp_bytes(src, session2.run_state::<Sssp>("sssp").unwrap().unwrap(), frags2);
    let rest_c =
        cc_bytes(session2.run_state::<ConnectedComponents>("cc").unwrap().unwrap(), frags2);
    let man_s = sssp_bytes(src, &st_s2, eng_s2.fragments());
    let man_c = cc_bytes(&st_c2, eng_c2.fragments());
    assert_eq!(live_s, rest_s, "{label}: restored session SSSP state byte-identical to live");
    assert_eq!(live_c, rest_c, "{label}: restored session CC state byte-identical to live");
    assert_eq!(live_s, man_s, "{label}: session SSSP state byte-identical to manual restart");
    assert_eq!(live_c, man_c, "{label}: session CC state byte-identical to manual restart");

    // The restored session keeps serving: the retained queries answer
    // without re-running, identically to the live session.
    assert_eq!(
        session2.query::<Sssp>("sssp", &src).unwrap(),
        session.query::<Sssp>("sssp", &src).unwrap(),
        "{label}: restored SSSP serve"
    );
    assert_eq!(
        session2.query::<ConnectedComponents>("cc", &()).unwrap(),
        session.query::<ConnectedComponents>("cc", &()).unwrap(),
        "{label}: restored CC serve"
    );

    // Restore-then-replay must land on the schedule-independent
    // fixpoint: every hostile schedule solving the final graph cold
    // agrees with what the restored session serves.
    for &seed in fuzz_seeds {
        let fuzzed_s = SimEngine::new(build_parts(&g_cur, kind, m), fuzz_opts(mode.clone(), seed))
            .expect("fuzz opts are valid")
            .run(&Sssp, &src);
        assert_eq!(
            session2.query::<Sssp>("sssp", &src).unwrap(),
            fuzzed_s.out,
            "{label}: restored SSSP diverged from a hostile schedule [{kind:?}, {mode:?}] \
             — reproduce with ScheduleFuzz::seeded({seed})"
        );
        let fuzzed_c = SimEngine::new(build_parts(&g_cur, kind, m), fuzz_opts(mode.clone(), seed))
            .expect("fuzz opts are valid")
            .run(&ConnectedComponents, &());
        assert_eq!(
            session2.query::<ConnectedComponents>("cc", &()).unwrap(),
            fuzzed_c.out,
            "{label}: restored CC diverged from a hostile schedule [{kind:?}, {mode:?}] \
             — reproduce with ScheduleFuzz::seeded({seed})"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&manual_dir).ok();
    report
}

/// The simulator mirror of [`assert_session_equiv`]: the same session
/// lifecycle on `open_sim()`, compared after every batch against the
/// hand-rolled `SimEngine` + `run_incremental_sim_with` composition in
/// deterministic virtual time (no durability — the threaded driver
/// already proves the file cycle; this proves the backend genericity).
///
/// `fuzz_seeds` runs one extra hand-rolled SSSP lineage per seed under
/// [`ScheduleFuzz::seeded`]; each must agree with the session after
/// every batch, and failures name the reproducing seed.
pub fn assert_session_equiv_sim(
    g0: &Graph<(), u32>,
    src: u32,
    deltas: &[GraphDelta<(), u32>],
    kind: PartitionKind,
    m: usize,
    fuzz_seeds: &[u64],
    label: &str,
) {
    let spec = match kind {
        PartitionKind::EdgeCut => edge_cut(m),
        PartitionKind::VertexCut => vertex_cut(m),
    };
    let mut session = Session::builder(g0.clone())
        .partition(spec)
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .open_sim()
        .unwrap_or_else(|e| panic!("{label}: open_sim: {e}"));
    let mut sim_s =
        SimEngine::new(build_parts(g0, kind, m), SimOpts::default()).expect("sim opts are valid");
    let mut sim_c =
        SimEngine::new(build_parts(g0, kind, m), SimOpts::default()).expect("sim opts are valid");
    let (r_s, mut st_s) = sim_s.run_retained(&Sssp, &src);
    let (r_c, mut st_c) = sim_c.run_retained(&ConnectedComponents, &());
    let mut fuzzed: Vec<(u64, SimEngine<(), u32>, RunState<SsspState>)> = fuzz_seeds
        .iter()
        .map(|&seed| {
            let s = SimEngine::new(build_parts(g0, kind, m), fuzz_opts(Mode::aap(), seed))
                .expect("fuzz opts are valid");
            let (_, st) = s.run_retained(&Sssp, &src);
            (seed, s, st)
        })
        .collect();
    assert_eq!(session.query::<Sssp>("sssp", &src).unwrap(), r_s.out, "{label}: sim SSSP");
    assert_eq!(
        session.query::<ConnectedComponents>("cc", &()).unwrap(),
        r_c.out,
        "{label}: sim CC"
    );
    let mut bufs = EditBuffers::default();
    for (i, delta) in deltas.iter().enumerate() {
        session.apply(delta).unwrap_or_else(|e| panic!("{label}: sim apply {i}: {e}"));
        let rs = aap_delta::run_incremental_sim_with(
            &mut sim_s, &Sssp, &src, delta, &mut st_s, &mut bufs,
        );
        let rc = aap_delta::run_incremental_sim_with(
            &mut sim_c,
            &ConnectedComponents,
            &(),
            delta,
            &mut st_c,
            &mut bufs,
        );
        assert_eq!(
            session.query::<Sssp>("sssp", &src).unwrap(),
            rs.out,
            "{label}: sim batch {i} SSSP output"
        );
        assert_eq!(
            session.query::<ConnectedComponents>("cc", &()).unwrap(),
            rc.out,
            "{label}: sim batch {i} CC output"
        );
        assert_eq!(
            session.run_state::<Sssp>("sssp").unwrap().unwrap(),
            &st_s,
            "{label}: sim batch {i} SSSP state"
        );
        assert_eq!(
            session.run_state::<ConnectedComponents>("cc").unwrap().unwrap(),
            &st_c,
            "{label}: sim batch {i} CC state"
        );
        for (seed, fsim, fstate) in &mut fuzzed {
            let fr =
                aap_delta::run_incremental_sim_with(fsim, &Sssp, &src, delta, fstate, &mut bufs);
            assert_eq!(
                fr.out, rs.out,
                "{label}: sim batch {i} fuzzed SSSP lineage diverged \
                 — reproduce with ScheduleFuzz::seeded({seed})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------

/// Where [`assert_crash_restore_equiv`] kills the durable machinery
/// (by swapping one durable-vtable step for a failing stand-in and then
/// dropping the session — the in-process equivalent of `kill -9` at
/// that exact instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Between a differential epoch's commit (the manifest flip) and
    /// the log rotation/sweep that retires the superseded log: the new
    /// chain is durable but the old generation is stranded on disk.
    CommittedBeforeRotation,
    /// Mid-compaction: the chain-collapsing full baseline dies before
    /// anything of the next epoch commits; the old chain plus its
    /// complete log must keep serving and restoring.
    MidCompaction,
    /// Mid-background-serialize: the consistent cut is taken and
    /// applies keep landing (copy-on-write, dual-logged) while the
    /// serialize thread dies; the pre-cut chain plus the primary log
    /// hold everything.
    MidBackgroundSerialize,
}

/// All three kill points, for matrix loops.
pub const CRASH_POINTS: [CrashPoint; 3] = [
    CrashPoint::CommittedBeforeRotation,
    CrashPoint::MidCompaction,
    CrashPoint::MidBackgroundSerialize,
];

/// A real `SnapshotError` (not a hand-built variant): writing under a
/// root that cannot exist.
fn injected_io_error() -> SnapshotError {
    write_file_atomic(Path::new("/nonexistent-aap-crashkit/die"), b"")
        .expect_err("writing under a nonexistent root must fail")
}

/// The commit succeeds — the manifest durably flips — and the process
/// "dies" before control returns to the rotation/sweep.
fn flip_then_die(dir: &Path, chain: &[u64]) -> Result<(), SessionError> {
    aap_session::default_write_manifest(dir, chain)?;
    Err(SessionError::Checkpoint { detail: "injected kill after manifest flip".into() })
}

/// The baseline save dies before writing anything.
fn save_frags_die(_path: &Path, _frags: &[Arc<Fragment<(), u32>>]) -> Result<u64, SnapshotError> {
    Err(injected_io_error())
}

/// Park the background serialize thread until the driver drops the
/// `CRASH_GO` marker next to the snapshot path (bounded, so a driver
/// bug times out instead of hanging the suite) — the window in which
/// the driver provably overlaps applies with the in-flight cut.
fn wait_for_go(snap_path: &Path) {
    let go = snap_path.parent().expect("snap path lives in the session dir").join("CRASH_GO");
    for _ in 0..5000 {
        if go.exists() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

fn save_frags_block_then_die(
    path: &Path,
    _frags: &[Arc<Fragment<(), u32>>],
) -> Result<u64, SnapshotError> {
    wait_for_go(path);
    Err(injected_io_error())
}

fn save_diff_frags_block_then_die(
    path: &Path,
    _num_frags: u16,
    _frags: &[Arc<Fragment<(), u32>>],
    _dirty: &[bool],
) -> Result<u64, SnapshotError> {
    wait_for_go(path);
    Err(injected_io_error())
}

/// The crash-injection driver: run a durable session (SSSP + CC) to a
/// non-trivial epoch chain, kill it at `point`, and assert a restore of
/// the directory lands **byte-identical** with the live session at the
/// moment of the kill — then that the revived directory still applies
/// and checkpoints. Needs `deltas.len() >= 3`.
#[allow(clippy::too_many_arguments)]
pub fn assert_crash_restore_equiv(
    g0: &Graph<(), u32>,
    src: u32,
    deltas: &[GraphDelta<(), u32>],
    kind: PartitionKind,
    m: usize,
    mode: Mode,
    point: CrashPoint,
    label: &str,
) {
    assert!(deltas.len() >= 3, "{label}: need pre-checkpoint, pre-crash and in-crash batches");
    let dir = scratch_dir("crash");
    let spec = match kind {
        PartitionKind::EdgeCut => edge_cut(m),
        PartitionKind::VertexCut => vertex_cut(m),
    };
    let mut policy = DurabilityPolicy::new(&dir);
    if point == CrashPoint::MidCompaction {
        policy = policy.compact_after(2); // the crashing checkpoint compacts
    }
    if point == CrashPoint::MidBackgroundSerialize {
        policy = policy.background(true);
    }
    let mut session = Session::builder(g0.clone())
        .partition(spec)
        .mode(mode.clone())
        .threads(4)
        .max_rounds(200_000)
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .durability(policy)
        .unwrap_or_else(|e| panic!("{label}: durability: {e}"))
        .open()
        .unwrap_or_else(|e| panic!("{label}: open: {e}"));
    session.query::<Sssp>("sssp", &src).unwrap();
    session.query::<ConnectedComponents>("cc", &()).unwrap();

    // Apply all but the last batch, checkpointing after the first so
    // the crash lands on the differential chain [1, 0].
    let (head, tail) = deltas.split_at(deltas.len() - 1);
    for (i, delta) in head.iter().enumerate() {
        session.apply(delta).unwrap_or_else(|e| panic!("{label}: apply {i}: {e}"));
        if i == 0 {
            session.checkpoint().unwrap_or_else(|e| panic!("{label}: checkpoint: {e}"));
        }
    }
    assert_eq!(session.epoch_chain(), Some(&[1, 0][..]), "{label}: pre-crash chain");

    match point {
        CrashPoint::CommittedBeforeRotation => {
            session.inject_durable_vtable(None, None, Some(flip_then_die));
            let err = session.checkpoint().expect_err("flip-then-die must surface");
            assert!(matches!(err, SessionError::Checkpoint { .. }), "{label}: {err}");
            // Epoch 2 is durably committed; the rotation never ran.
            assert!(dir.join("graph.2.snap").exists(), "{label}: committed epoch file");
            assert!(dir.join("deltas.1.dlog").exists(), "{label}: superseded log stranded");
        }
        CrashPoint::MidCompaction => {
            session.inject_durable_vtable(Some(save_frags_die), None, None);
            let err = session.checkpoint().expect_err("compaction save must die");
            assert!(matches!(err, SessionError::Snapshot(_)), "{label}: {err}");
            assert!(!dir.join("graph.2.snap").exists(), "{label}: nothing of epoch 2 on disk");
            // A failed compaction is recoverable: the dirty set is
            // restored and the session keeps applying against the old
            // chain and its still-live log.
            session.apply(&tail[0]).unwrap_or_else(|e| panic!("{label}: post-crash apply: {e}"));
        }
        CrashPoint::MidBackgroundSerialize => {
            session.inject_durable_vtable(
                Some(save_frags_block_then_die),
                Some(save_diff_frags_block_then_die),
                None,
            );
            let handle =
                session.checkpoint_background().unwrap_or_else(|e| panic!("{label}: cut: {e}"));
            // The cut is in flight (its thread parks on the marker):
            // this apply mutates copy-on-write and dual-writes its
            // delta to both epoch logs.
            session.apply(&tail[0]).unwrap_or_else(|e| panic!("{label}: in-cut apply: {e}"));
            std::fs::write(dir.join("CRASH_GO"), b"").unwrap();
            let err = handle.wait().expect_err("injected serialize failure");
            assert!(matches!(err, SessionError::Checkpoint { .. }), "{label}: {err}");
            // Killed before the writer harvests: the session-side epoch
            // never advances and restore sees the pre-cut chain.
        }
    }

    // The "kill": capture the live truth, then drop the process image.
    let frags = session.fragments();
    let live_s = sssp_bytes(src, session.run_state::<Sssp>("sssp").unwrap().unwrap(), frags);
    let live_c = cc_bytes(session.run_state::<ConnectedComponents>("cc").unwrap().unwrap(), frags);
    let out_s = session.query::<Sssp>("sssp", &src).unwrap();
    let out_c = session.query::<ConnectedComponents>("cc", &()).unwrap();
    drop(session);

    let mut restored: Session<(), u32, _> = Session::restore(&dir)
        .mode(mode.clone())
        .threads(4)
        .max_rounds(200_000)
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .open()
        .unwrap_or_else(|e| panic!("{label}: restore after {point:?}: {e}"));
    let frags2 = restored.fragments();
    let rest_s = sssp_bytes(src, restored.run_state::<Sssp>("sssp").unwrap().unwrap(), frags2);
    let rest_c =
        cc_bytes(restored.run_state::<ConnectedComponents>("cc").unwrap().unwrap(), frags2);
    assert_eq!(live_s, rest_s, "{label}: SSSP state byte-identical across the crash");
    assert_eq!(live_c, rest_c, "{label}: CC state byte-identical across the crash");
    assert_eq!(restored.query::<Sssp>("sssp", &src).unwrap(), out_s, "{label}: SSSP serve");
    assert_eq!(
        restored.query::<ConnectedComponents>("cc", &()).unwrap(),
        out_c,
        "{label}: CC serve"
    );
    if point == CrashPoint::CommittedBeforeRotation {
        assert_eq!(
            restored.epoch_chain(),
            Some(&[2, 1, 0][..]),
            "{label}: restore adopts the committed chain"
        );
        assert!(
            !dir.join("deltas.1.dlog").exists(),
            "{label}: restore completed the interrupted rotation"
        );
    }
    // The revived directory is healthy: a real (un-injected) checkpoint
    // commits the replayed state.
    restored.checkpoint().unwrap_or_else(|e| panic!("{label}: post-restore checkpoint: {e}"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The `full == chain-resolved` driver: one graph + stream through two
/// durable sessions — all-full (`differential(false)`) vs differential
/// with a short compaction threshold — checkpointing **both after every
/// batch**. The two live states, both restores, and each other must
/// agree byte-for-byte: resolving a fragment/state-shard chain (with a
/// compaction mid-stream when the stream is long enough) reconstructs
/// exactly what the full baselines wrote.
pub fn assert_full_equals_chain_restore(
    g0: &Graph<(), u32>,
    src: u32,
    deltas: &[GraphDelta<(), u32>],
    kind: PartitionKind,
    m: usize,
    label: &str,
) {
    let dir_full = scratch_dir("ckfull");
    let dir_chain = scratch_dir("ckchain");
    let open = |policy: DurabilityPolicy| {
        let spec = match kind {
            PartitionKind::EdgeCut => edge_cut(m),
            PartitionKind::VertexCut => vertex_cut(m),
        };
        let mut s = Session::builder(g0.clone())
            .partition(spec)
            .mode(Mode::aap())
            .threads(4)
            .max_rounds(200_000)
            .program("sssp", Sssp)
            .program("cc", ConnectedComponents)
            .durability(policy)
            .unwrap_or_else(|e| panic!("{label}: durability: {e}"))
            .open()
            .unwrap_or_else(|e| panic!("{label}: open: {e}"));
        s.query::<Sssp>("sssp", &src).unwrap();
        s.query::<ConnectedComponents>("cc", &()).unwrap();
        s
    };
    let mut full = open(DurabilityPolicy::new(&dir_full).differential(false));
    let mut chain = open(DurabilityPolicy::new(&dir_chain).compact_after(3));
    let mut saw_differential = false;
    for (i, delta) in deltas.iter().enumerate() {
        full.apply(delta).unwrap_or_else(|e| panic!("{label}: full apply {i}: {e}"));
        chain.apply(delta).unwrap_or_else(|e| panic!("{label}: chain apply {i}: {e}"));
        let rf = full.checkpoint().unwrap_or_else(|e| panic!("{label}: full ckpt {i}: {e}"));
        let rc = chain.checkpoint().unwrap_or_else(|e| panic!("{label}: chain ckpt {i}: {e}"));
        assert!(!rf.differential, "{label}: the full session writes baselines only");
        saw_differential |= rc.differential;
    }
    if !deltas.is_empty() {
        assert!(saw_differential, "{label}: the chained session never wrote a differential epoch");
    }
    let frags_f = full.fragments();
    let live_s = sssp_bytes(src, full.run_state::<Sssp>("sssp").unwrap().unwrap(), frags_f);
    let live_c = cc_bytes(full.run_state::<ConnectedComponents>("cc").unwrap().unwrap(), frags_f);
    drop(full);
    drop(chain);

    let mut states = Vec::new();
    for dir in [&dir_full, &dir_chain] {
        let restored: Session<(), u32, _> = Session::restore(dir)
            .mode(Mode::aap())
            .threads(4)
            .max_rounds(200_000)
            .program("sssp", Sssp)
            .program("cc", ConnectedComponents)
            .open()
            .unwrap_or_else(|e| panic!("{label}: restore {dir:?}: {e}"));
        let frags = restored.fragments();
        states.push((
            sssp_bytes(src, restored.run_state::<Sssp>("sssp").unwrap().unwrap(), frags),
            cc_bytes(restored.run_state::<ConnectedComponents>("cc").unwrap().unwrap(), frags),
        ));
    }
    assert_eq!(states[0].0, live_s, "{label}: full restore == live SSSP");
    assert_eq!(states[0].1, live_c, "{label}: full restore == live CC");
    assert_eq!(states[1].0, live_s, "{label}: chain-resolved restore == full SSSP");
    assert_eq!(states[1].1, live_c, "{label}: chain-resolved restore == full CC");
    std::fs::remove_dir_all(&dir_full).ok();
    std::fs::remove_dir_all(&dir_chain).ok();
}
