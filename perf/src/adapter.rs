//! The only module that names `grape_aap`.
//!
//! Every call the benchmark makes into the program goes through a
//! function here, and nothing here returns a program type other than the
//! opaque aliases below — so when the roadmap's deletion PRs rename or
//! fold an entry point, this file is the only one that has to follow.
//! Reached surface, and nothing else: `Session`/`SessionReader`,
//! `runtime::Engine`, `graph::{generate, partition, fragment}`,
//! `delta::DeltaBuilder`, `delta::apply_to_fragments_par`,
//! `snapshot::{snapshot_to_bytes, save_snapshot, load_snapshot}`,
//! `balance::plan_migration`, `algos::seq`, `sim::SimEngine`,
//! `trace::{Recorder, Tracer}`.

use grape_aap::algos::{seq, ConnectedComponents, PageRank, Sssp, SsspState};
use grape_aap::balance::{plan_migration, BalancePolicy};
use grape_aap::delta::{apply_to_fragments_par, DeltaBuilder, GraphDelta};
use grape_aap::graph::fragment::partition_stats;
use grape_aap::graph::mutate::EditBuffers;
use grape_aap::graph::partition::{build_fragments_n, hash_partition};
use grape_aap::graph::{generate, Fragment, GraphBuilder};
use grape_aap::runtime::{Engine, EngineOpts, Mode, RunStats};
use grape_aap::session::{edge_cut, DurabilityPolicy};
use grape_aap::sim::{SimEngine, SimOpts};
use grape_aap::snapshot::{load_snapshot, save_snapshot, snapshot_to_bytes};
use grape_aap::trace::{Phase, Recorder, Tracer};
use grape_aap::{Session, SessionReader};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The graph type every workload runs on.
pub type Graph = grape_aap::graph::Graph<(), u32>;
/// One edge-cut partition of a [`Graph`].
pub type Frags = Vec<Fragment<(), u32>>;
/// One batch of edge edits.
pub type Delta = GraphDelta<(), u32>;

type Sess = Session<(), u32, Engine<(), u32>>;

// ---------------------------------------------------------------------
// graph
// ---------------------------------------------------------------------

/// `generate::rmat`, directed, as every bench in the repo uses it.
pub fn gen_rmat(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    generate::rmat(scale, edge_factor, true, seed)
}

/// `generate::lattice2d` (undirected, degree <= 4, high diameter).
pub fn gen_lattice(rows: usize, cols: usize, seed: u64) -> Graph {
    generate::lattice2d(rows, cols, seed)
}

/// Build a graph from the harness mirror's edge list.
pub fn graph_from_edges(
    n: usize,
    directed: bool,
    edges: impl Iterator<Item = (u32, u32, u32)>,
) -> Graph {
    let mut b = GraphBuilder::with_node_data(directed, vec![(); n]);
    for (u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// Every stored edge of `g` (both directions of an undirected edge).
pub fn graph_edges(g: &Graph) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
    g.all_edges().map(|(u, v, w)| (u, v, *w))
}

/// Out-degree of every vertex.
pub fn degrees(g: &Graph) -> Vec<u32> {
    g.vertices().map(|v| g.degree(v) as u32).collect()
}

/// `hash_partition`: the owner fragment of every vertex.
pub fn hash_assign(g: &Graph, m: usize) -> Vec<u16> {
    hash_partition(g, m)
}

/// `build_fragments` for exactly `m` fragments.
pub fn build_frags(g: &Graph, assign: &[u16], m: usize) -> Frags {
    build_fragments_n(g, assign, m)
}

/// Cut edges / stored edges of a partition.
pub fn border_ratio(frags: &Frags) -> f64 {
    let st = partition_stats(frags);
    let edges: usize = st.edges.iter().sum();
    st.cut_edges as f64 / edges.max(1) as f64
}

// ---------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------

/// The layer a recorded event came from (the recorder's `pid` lanes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    Engine,
    Sim,
    Delta,
    Session,
    Other,
}

/// What a recorded event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    Begin,
    End,
    Instant,
    Counter,
}

/// One event of the shipped `Recorder`, reduced to what the span
/// arithmetic needs.
#[derive(Clone, Copy, Debug)]
pub struct RecEvent {
    pub name: &'static str,
    pub cat: &'static str,
    pub mark: Mark,
    pub ts_us: u64,
    pub lane: Lane,
    pub tid: u32,
}

/// A bounded in-memory recorder plus the wall-clock bracket around the
/// creation of the tracer that stamps its events, so recorded
/// timestamps can be placed on the harness's own clock.
pub struct TraceTap {
    rec: Arc<Recorder>,
    /// The tracer's epoch lies between these two instants.
    pub epoch_lo: Instant,
    pub epoch_hi: Instant,
}

impl TraceTap {
    fn pending(capacity: usize) -> (Arc<Recorder>, Instant) {
        (Arc::new(Recorder::with_capacity(capacity)), Instant::now())
    }

    /// Events recorded since the last drain, oldest first.
    pub fn drain(&self) -> Vec<RecEvent> {
        self.rec
            .take()
            .into_iter()
            .map(|e| RecEvent {
                name: e.name,
                cat: e.cat,
                mark: match e.ph {
                    Phase::Begin => Mark::Begin,
                    Phase::End => Mark::End,
                    Phase::Instant => Mark::Instant,
                    Phase::Counter => Mark::Counter,
                },
                ts_us: e.ts_us,
                lane: match e.pid {
                    1 => Lane::Engine,
                    2 => Lane::Sim,
                    3 => Lane::Delta,
                    4 => Lane::Session,
                    _ => Lane::Other,
                },
                tid: e.tid,
            })
            .collect()
    }

    /// Events the ring overwrote since the last drain.
    pub fn dropped(&self) -> u64 {
        self.rec.dropped()
    }
}

// ---------------------------------------------------------------------
// runtime::Engine
// ---------------------------------------------------------------------

/// The execution modes the benchmark compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeKind {
    Bsp,
    Ap,
    Aap,
}

impl ModeKind {
    fn mode(self) -> Mode {
        match self {
            ModeKind::Bsp => Mode::Bsp,
            ModeKind::Ap => Mode::Ap,
            ModeKind::Aap => Mode::aap(),
        }
    }
}

/// The counters of one `Engine::run`, copied out of `RunStats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpStats {
    pub makespan_s: f64,
    pub workers: usize,
    pub rounds_max: u64,
    pub rounds_total: u64,
    pub updates: u64,
    pub bytes: u64,
    pub stale_ratio: f64,
    pub compute_s: f64,
    pub suspend_s: f64,
    pub idle_s: f64,
    pub max_worker_compute_s: f64,
}

impl From<&RunStats> for OpStats {
    fn from(s: &RunStats) -> Self {
        OpStats {
            makespan_s: s.makespan,
            workers: s.workers.len(),
            rounds_max: s.max_rounds(),
            rounds_total: s.total_rounds(),
            updates: s.total_updates(),
            bytes: s.total_bytes(),
            stale_ratio: s.stale_ratio(),
            compute_s: s.total_compute(),
            suspend_s: s.workers.iter().map(|w| w.suspend_time).sum(),
            idle_s: s.total_idle(),
            max_worker_compute_s: s.workers.iter().map(|w| w.compute_time).fold(0.0, f64::max),
        }
    }
}

/// A threaded engine over a fixed partition, for cold fixpoints.
pub struct BatchEngine(Engine<(), u32>);

impl BatchEngine {
    pub fn new(frags: Frags, threads: usize, mode: ModeKind) -> Self {
        BatchEngine(Engine::new(frags, EngineOpts { threads, mode: mode.mode(), max_rounds: None }))
    }

    /// `Engine::set_tracer` with a fresh recorder of `capacity` events.
    pub fn attach_recorder(&mut self, capacity: usize) -> TraceTap {
        let (rec, epoch_lo) = TraceTap::pending(capacity);
        let tracer = Tracer::new(Arc::clone(&rec));
        let epoch_hi = Instant::now();
        self.0.set_tracer(tracer);
        TraceTap { rec, epoch_lo, epoch_hi }
    }

    pub fn run_sssp(&self, src: u32) -> (Vec<u64>, OpStats) {
        let r = self.0.run(&Sssp, &src);
        (r.out, OpStats::from(&r.stats))
    }

    pub fn run_cc(&self) -> (Vec<u32>, OpStats) {
        let r = self.0.run(&ConnectedComponents, &());
        (r.out, OpStats::from(&r.stats))
    }

    pub fn run_pagerank(&self) -> (Vec<f64>, OpStats) {
        let r = self.0.run(&PageRank::default(), &());
        (r.out, OpStats::from(&r.stats))
    }
}

// ---------------------------------------------------------------------
// algos::seq — the single-thread baseline and the oracle
// ---------------------------------------------------------------------

pub fn seq_dijkstra(g: &Graph, src: u32) -> Vec<u64> {
    seq::dijkstra(g, src)
}

pub fn seq_cc(g: &Graph) -> Vec<u32> {
    seq::connected_components(g)
}

/// Same damping and threshold as `PageRank::default()`.
pub fn seq_pagerank(g: &Graph) -> Vec<f64> {
    let p = PageRank::default();
    seq::pagerank_delta(g, p.damping, p.epsilon)
}

// ---------------------------------------------------------------------
// sim::SimEngine
// ---------------------------------------------------------------------

/// Virtual makespan of one simulated SSSP under `mode` (default cost and
/// latency model).
pub fn sim_sssp_makespan(frags: Frags, mode: ModeKind, src: u32) -> Result<f64, String> {
    let opts = SimOpts { mode: mode.mode(), ..SimOpts::default() };
    let sim = SimEngine::new(frags, opts).map_err(|e| e.to_string())?;
    Ok(sim.run(&Sssp, &src).stats.makespan)
}

// ---------------------------------------------------------------------
// delta
// ---------------------------------------------------------------------

/// `DeltaBuilder`: adds, removals and weight overwrites in one batch.
pub fn build_delta(
    adds: &[(u32, u32, u32)],
    removes: &[(u32, u32)],
    setw: &[(u32, u32, u32)],
) -> Delta {
    let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
    for &(u, v, w) in adds {
        b.add_edge(u, v, w);
    }
    for &(u, v) in removes {
        b.remove_edge(u, v);
    }
    for &(u, v, w) in setw {
        b.set_weight(u, v, w);
    }
    b.build()
}

/// Edge edits in a batch.
pub fn delta_len(d: &Delta) -> usize {
    d.len()
}

/// `apply_to_fragments_par` on a detached fragment set (no evaluation).
/// Returns how many fragments' bytes changed.
pub fn apply_to_frags(frags: &mut Frags, d: &Delta, threads: usize) -> usize {
    let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
    let applied = apply_to_fragments_par(&mut refs, d, &mut EditBuffers::default(), threads);
    applied.changed.iter().filter(|c| **c).count()
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// How a serving session is opened.
#[derive(Clone, Debug)]
pub struct ServingCfg {
    pub fragments: usize,
    pub threads: usize,
    /// Retain CC beside SSSP.
    pub with_cc: bool,
    /// Differential durability rooted here, the epoch chain rewritten
    /// as a full baseline once it is `compact_after` epochs long.
    pub durable_dir: Option<std::path::PathBuf>,
    pub compact_after: u64,
    /// Explicit-only (`auto(false)`) balance policy with this threshold.
    pub balance_max_imbalance: Option<f64>,
    pub answer_cache: Option<usize>,
    /// Attach a recorder of this capacity through `SessionBuilder::trace`.
    pub trace_capacity: Option<usize>,
}

/// What one `Session::apply` reported.
#[derive(Clone, Debug, Default)]
pub struct ApplyInfo {
    pub warm_decrease: u32,
    pub warm_increase: u32,
    pub cold: u32,
    /// Updates shipped by the advancing runs, summed over programs.
    pub updates: u64,
}

/// What one `Session::checkpoint` reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointInfo {
    pub fragments_written: u64,
    pub fragments_skipped: u64,
    pub bytes: u64,
    pub log_records_compacted: u64,
}

/// What one `Session::rebalance` reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct RebalanceInfo {
    pub imbalance_before: f64,
    pub imbalance_after: f64,
    pub vertices_migrated: u64,
    pub migration_bytes: u64,
    pub fragments_repacked: u64,
}

/// The `SessionMetrics` counters the benchmark reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServingCounters {
    pub publications: u64,
    pub admitted: u64,
}

/// A serving session on the threaded engine with SSSP (and CC) retained.
pub struct Serving {
    s: Sess,
    balance: Option<BalancePolicy>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Serving {
    /// `Session::builder(..).open()`.
    pub fn open(g: Graph, cfg: &ServingCfg) -> Result<(Serving, Option<TraceTap>), String> {
        Self::finish(Session::builder(g).partition(edge_cut(cfg.fragments)), cfg)
    }

    /// `Session::restore(dir)..open()`: load, attach, replay the log.
    pub fn restore(dir: &Path, cfg: &ServingCfg) -> Result<(Serving, Option<TraceTap>), String> {
        Self::finish(Sess::restore(dir), cfg)
    }

    fn finish(
        b: grape_aap::SessionBuilder<(), u32>,
        cfg: &ServingCfg,
    ) -> Result<(Serving, Option<TraceTap>), String> {
        let mut b = b.mode(Mode::aap()).threads(cfg.threads).program("sssp", Sssp);
        if cfg.with_cc {
            b = b.program("cc", ConnectedComponents);
        }
        if let Some(cap) = cfg.answer_cache {
            b = b.answer_cache(cap);
        }
        let balance =
            cfg.balance_max_imbalance.map(|r| BalancePolicy::new().max_imbalance(r).auto(false));
        if let Some(p) = &balance {
            b = b.balance(p.clone());
        }
        if let Some(dir) = &cfg.durable_dir {
            // (A restore builder already carries its directory; this sets
            // its policy: differential, foreground, manual.)
            b = b
                .durability(DurabilityPolicy::new(dir).compact_after(cfg.compact_after))
                .map_err(err)?;
        }
        let mut tap = None;
        if let Some(cap) = cfg.trace_capacity {
            let (rec, epoch_lo) = TraceTap::pending(cap);
            b = b.trace(Arc::clone(&rec));
            tap = Some(TraceTap { rec, epoch_lo, epoch_hi: Instant::now() });
        }
        Ok((Serving { s: b.open().map_err(err)?, balance }, tap))
    }

    /// `Session::query::<Sssp>`.
    pub fn query_sssp(&mut self, src: u32) -> Result<Vec<u64>, String> {
        self.s.query::<Sssp>("sssp", &src).map_err(err)
    }

    /// `Session::query::<ConnectedComponents>`.
    pub fn query_cc(&mut self) -> Result<Vec<u32>, String> {
        self.s.query::<ConnectedComponents>("cc", &()).map_err(err)
    }

    /// `Session::apply`.
    pub fn apply(&mut self, d: &Delta) -> Result<ApplyInfo, String> {
        let r = self.s.apply(d).map_err(err)?;
        let mut info = ApplyInfo::default();
        for p in &r.programs {
            match p.strategy.name() {
                "warm-decrease" => info.warm_decrease += 1,
                "warm-increase" => info.warm_increase += 1,
                _ => info.cold += 1,
            }
            info.updates += p.updates;
        }
        Ok(info)
    }

    /// `Session::checkpoint` (foreground).
    pub fn checkpoint(&mut self) -> Result<CheckpointInfo, String> {
        let r = self.s.checkpoint().map_err(err)?;
        Ok(CheckpointInfo {
            fragments_written: r.fragments_written,
            fragments_skipped: r.fragments_skipped,
            bytes: r.bytes,
            log_records_compacted: r.log_records_compacted,
        })
    }

    /// Epochs in the committed chain (`Session::epoch_chain`).
    pub fn chain_len(&self) -> usize {
        self.s.epoch_chain().map_or(0, <[u64]>::len)
    }

    /// `Session::rebalance`.
    pub fn rebalance(&mut self) -> Result<RebalanceInfo, String> {
        let r = self.s.rebalance().map_err(err)?;
        Ok(RebalanceInfo {
            imbalance_before: r.imbalance_before,
            imbalance_after: r.imbalance_after,
            vertices_migrated: r.vertices_migrated,
            migration_bytes: r.migration_bytes,
            fragments_repacked: r.fragments_repacked as u64,
        })
    }

    /// `Session::serve_admitted`: answers newly computed in this window.
    pub fn serve_admitted(&mut self) -> Result<usize, String> {
        self.s.serve_admitted().map_err(err)
    }

    /// `Session::reader`.
    pub fn reader(&self) -> Reader {
        Reader(self.s.reader())
    }

    /// `Session::metrics`.
    pub fn counters(&self) -> ServingCounters {
        let m = self.s.metrics();
        ServingCounters { publications: m.publications, admitted: m.admitted }
    }

    /// A detached copy of the session's fragments (for layer probes).
    pub fn clone_fragments(&self) -> Frags {
        self.s.fragments().iter().map(|f| (**f).clone()).collect()
    }

    /// `balance::plan_migration` over `session.fragments()`; the number
    /// of moves planned.
    pub fn plan_migration(&self) -> usize {
        let policy = self.balance.clone().unwrap_or_default();
        plan_migration(self.s.fragments(), &policy, &Tracer::disabled()).moves.len()
    }
}

/// A `SessionReader` (one per thread; `Send`, not `Sync`).
pub struct Reader(SessionReader<(), u32>);

impl Reader {
    /// `SessionReader::query::<Sssp>`: the published answer, if any.
    pub fn query_sssp(&self, src: u32) -> Result<Option<Arc<Vec<u64>>>, String> {
        self.0.query::<Sssp>("sssp", &src).map_err(err)
    }

    /// `SessionReader::request::<Sssp>`: queue `src` for admission.
    pub fn request_sssp(&self, src: u32) -> Result<bool, String> {
        self.0.request::<Sssp>("sssp", &src).map_err(err)
    }
}

// ---------------------------------------------------------------------
// snapshot
// ---------------------------------------------------------------------

/// `snapshot_to_bytes` of a fragment set without program state.
pub fn snapshot_encode(frags: &Frags) -> usize {
    snapshot_to_bytes::<(), u32, SsspState, _>(frags, None).len()
}

/// `save_snapshot` (atomic write + sync).
pub fn snapshot_save(path: &Path, frags: &Frags) -> Result<(), String> {
    save_snapshot::<(), u32, SsspState, _, _>(path, frags, None).map_err(err)
}

/// `load_snapshot`; the number of fragments read back.
pub fn snapshot_load(path: &Path) -> Result<usize, String> {
    let loaded = load_snapshot::<(), u32, SsspState, _>(path).map_err(err)?;
    Ok(loaded.fragments.len())
}
