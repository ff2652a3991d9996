//! The discrete-event simulation engine.
//!
//! Executes a PIE program over fragments exactly as `aap_core::engine`
//! does, but with a virtual clock: each round costs
//! [`CostModel::round_cost`] time units, messages arrive `latency` units
//! after the sending round completes, and the δ policy of
//! `aap_core::policy` is applied in virtual time by the same
//! `aap_core::coord::Coordinator` the threaded engine drives.
//! Single-threaded and fully deterministic: events carry an explicit
//! `(time, tie, seq)` key, where the canonical tie is the owning worker's
//! id — so the schedule is stable under heap internals and insertion
//! order, and a seeded [`ScheduleFuzz`] is the *only* source of order
//! variation.

use crate::cost::CostModel;
use crate::fuzz::ScheduleFuzz;
use crate::timeline::{timeline_to_trace, Decided, Span, SpanKind, Timeline};
use aap_core::coord::{Action, Coordinator, Status};
use aap_core::engine::RunState;
use aap_core::inbox::Inbox;
use aap_core::pie::{Batch, PieProgram, Round, UpdateCtx, WarmStart};
use aap_core::policy::Mode;
use aap_core::scratch::{Scratch, SharedPool};
use aap_core::stats::{RunStats, WorkerStats};
use aap_core::step::Step;
use aap_core::Backend;
use aap_graph::mutate::StateRemap;
use aap_graph::{FragId, Fragment, LocalId};
use aap_trace::{cat, pid, Args, Tracer};
use std::cell::RefCell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Simulator options.
#[derive(Debug, Clone)]
pub struct SimOpts {
    /// Execution mode (δ policy).
    pub mode: Mode,
    /// Message delivery latency in virtual time units.
    pub latency: f64,
    /// Per-round compute-cost model.
    pub cost: CostModel,
    /// Abort if any worker exceeds this many rounds.
    pub max_rounds: Option<u32>,
    /// Seeded schedule perturbation ([`ScheduleFuzz::off`] = canonical).
    pub schedule: ScheduleFuzz,
}

impl Default for SimOpts {
    fn default() -> Self {
        SimOpts {
            mode: Mode::aap(),
            latency: 0.1,
            cost: CostModel::uniform_work(),
            max_rounds: Some(1_000_000),
            schedule: ScheduleFuzz::off(),
        }
    }
}

impl SimOpts {
    /// Builder-style knob: run under the given schedule fuzzer.
    ///
    /// ```
    /// use aap_sim::{ScheduleFuzz, SimOpts};
    /// let opts = SimOpts::default().schedule(ScheduleFuzz::seeded(42));
    /// ```
    pub fn schedule(mut self, fuzz: ScheduleFuzz) -> Self {
        self.schedule = fuzz;
        self
    }
}

/// Construction-time errors from [`SimEngine::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// `CostModel::FixedPerWorker` was given an empty cost vector — no
    /// worker could ever be priced.
    EmptyCostVector,
    /// A [`ScheduleFuzz`] knob is out of range.
    InvalidSchedule(&'static str),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyCostVector => {
                write!(f, "CostModel::FixedPerWorker needs at least one cost")
            }
            SimError::InvalidSchedule(why) => write!(f, "invalid ScheduleFuzz: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a simulated run.
#[derive(Debug)]
pub struct SimOutput<Out> {
    /// The assembled answer.
    pub out: Out,
    /// Statistics; `makespan` is in virtual time units.
    pub stats: RunStats,
    /// Per-worker activity history (for Gantt rendering).
    pub timelines: Vec<Timeline>,
}

/// Discrete-event simulator over a fixed partition.
pub struct SimEngine<V, E> {
    frags: Vec<Arc<Fragment<V, E>>>,
    opts: SimOpts,
    /// Structured-event tracer; after each run, the virtual-time
    /// timelines are re-emitted as Chrome trace spans on `pid::SIM`.
    tracer: Tracer,
    /// Trace-time offset (µs) for the next run's re-emitted spans.
    /// Every run starts its virtual clock at 0; laying consecutive runs
    /// end-to-end keeps per-track timestamps monotone, which trace
    /// viewers (and the format checks) require. Atomic only to stay
    /// `Sync` — runs take `&self`.
    virt_base_us: std::sync::atomic::AtomicU64,
}

/// Internal result of one simulated run, before assembly.
type SimRun<St> = (RunStats, Vec<St>, Vec<Timeline>);

enum EventKind<Val> {
    Finish { w: usize },
    Arrive { w: usize, batch: Batch<Val> },
    Wake { w: usize, gen: u64 },
}

struct Event<Val> {
    time: f64,
    /// Explicit same-time priority: the owning worker's id under the
    /// canonical schedule, a seeded hash under [`ScheduleFuzz`]. Without
    /// it, same-time ordering would fall through to `seq` — i.e. to
    /// insertion order, which heap internals and unrelated code motion
    /// can silently reshuffle.
    tie: u64,
    seq: u64,
    kind: EventKind<Val>,
}

impl<Val> PartialEq for Event<Val> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.tie == other.tie && self.seq == other.seq
    }
}
impl<Val> Eq for Event<Val> {}
impl<Val> PartialOrd for Event<Val> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<Val> Ord for Event<Val> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; reverse for earliest-first on the
        // full (time, tie, seq) key.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.tie.cmp(&self.tie))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct SimWorker<Val, St> {
    inbox: Inbox<Val>,
    state: Option<St>,
    stats: WorkerStats,
    /// The running or last round's local-work request and start time.
    local_work: bool,
    round_started: f64,
    /// Reusable routing/drain buffers — the same zero-hash, zero-alloc
    /// message path the threaded engine runs (`aap_core::scratch`).
    scratch: Scratch<Val>,
    timeline: Timeline,
}

impl<V, E> SimEngine<V, E> {
    /// Create a simulator over pre-built fragments.
    ///
    /// Fails fast on unusable options — an empty
    /// [`CostModel::FixedPerWorker`] vector or out-of-range
    /// [`ScheduleFuzz`] knobs — instead of panicking mid-run.
    pub fn new(frags: Vec<Fragment<V, E>>, opts: SimOpts) -> Result<Self, SimError> {
        if matches!(&opts.cost, CostModel::FixedPerWorker(costs) if costs.is_empty()) {
            return Err(SimError::EmptyCostVector);
        }
        opts.schedule.validate().map_err(SimError::InvalidSchedule)?;
        Ok(SimEngine {
            frags: frags.into_iter().map(Arc::new).collect(),
            opts,
            tracer: Tracer::default(),
            virt_base_us: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Attach a structured-event tracer: each subsequent run re-emits
    /// its per-worker [`Timeline`]s as virtual-time trace spans (see
    /// [`timeline_to_trace`]) plus a `mode` instant, on the `pid::SIM`
    /// tracks. Pass `Tracer::default()` to turn tracing back off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer runs report into (disabled unless
    /// [`SimEngine::set_tracer`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The fragments under simulation.
    pub fn fragments(&self) -> &[Arc<Fragment<V, E>>] {
        &self.frags
    }

    /// Exclusive access to the fragments for in-place delta application
    /// (`aap-delta`); `None` while a run output still shares them.
    pub fn fragments_mut(&mut self) -> Option<Vec<&mut Fragment<V, E>>> {
        let mut out = Vec::with_capacity(self.frags.len());
        for a in self.frags.iter_mut() {
            match Arc::get_mut(a) {
                Some(f) => out.push(f),
                None => return None,
            }
        }
        Some(out)
    }

    /// Copy-on-write access to the fragments: shared `Arc`s (e.g. held
    /// by an in-flight background checkpoint) are detached by cloning
    /// the shared fragment, exclusive ones are borrowed in place. See
    /// `Engine::fragments_cow`.
    pub fn fragments_cow(&mut self) -> Vec<&mut Fragment<V, E>>
    where
        V: Clone,
        E: Clone,
    {
        self.frags.iter_mut().map(Arc::make_mut).collect()
    }

    /// Run one query to fixpoint in virtual time.
    pub fn run<P>(&self, prog: &P, q: &P::Query) -> SimOutput<P::Out>
    where
        P: PieProgram<V, E>,
    {
        let eval0 = |_w: usize, frag: &Fragment<V, E>, ctx: &mut UpdateCtx<P::Val>| {
            prog.peval(q, frag, ctx)
        };
        let (stats, states, timelines) = self.run_with(prog, q, &eval0);
        SimOutput { out: prog.assemble(q, &self.frags, states), stats, timelines }
    }

    /// Like [`SimEngine::run`], but retain the per-fragment states for a
    /// later [`SimEngine::run_incremental`].
    pub fn run_retained<P>(&self, prog: &P, q: &P::Query) -> (SimOutput<P::Out>, RunState<P::State>)
    where
        P: WarmStart<V, E>,
    {
        let eval0 = |_w: usize, frag: &Fragment<V, E>, ctx: &mut UpdateCtx<P::Val>| {
            prog.peval(q, frag, ctx)
        };
        let (stats, states, timelines) = self.run_with(prog, q, &eval0);
        let out = prog.assemble_ref(q, &self.frags, &states);
        (SimOutput { out, stats, timelines }, RunState::new(states))
    }

    /// Warm-start incremental evaluation in virtual time — the simulated
    /// mirror of `aap_core::Engine::run_incremental`, so timelines and
    /// cost models cover delta rounds too. Round 0 is `warm_eval` from
    /// the delta-affected `seeds`, after discarding the `invalid`
    /// vertices of a non-monotone batch (programs charge the
    /// invalidation scan as work, so the cost model prices the
    /// invalidation round); later rounds are ordinary `IncEval`.
    pub fn run_incremental<P>(
        &self,
        prog: &P,
        q: &P::Query,
        remaps: &[StateRemap],
        seeds: &[Vec<LocalId>],
        invalid: &[Vec<LocalId>],
        state: &mut RunState<P::State>,
    ) -> SimOutput<P::Out>
    where
        P: WarmStart<V, E>,
    {
        let m = self.frags.len();
        assert_eq!(state.len(), m, "RunState must match the fragment count");
        assert_eq!(remaps.len(), m);
        assert_eq!(seeds.len(), m);
        assert_eq!(invalid.len(), m);
        let priors: RefCell<Vec<Option<P::State>>> =
            RefCell::new(state.take_states().into_iter().map(Some).collect());
        let eval0 = |w: usize, frag: &Fragment<V, E>, ctx: &mut UpdateCtx<P::Val>| {
            let prior = priors.borrow_mut()[w].take().expect("warm state taken once per worker");
            prog.warm_eval(q, frag, prior, &remaps[w], &seeds[w], &invalid[w], ctx)
        };
        let (stats, states, timelines) = self.run_with(prog, q, &eval0);
        let out = prog.assemble_ref(q, &self.frags, &states);
        state.set_states(states);
        SimOutput { out, stats, timelines }
    }

    fn run_with<P, F>(&self, prog: &P, q: &P::Query, eval0: &F) -> SimRun<P::State>
    where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State,
    {
        // The round step's phase spans are wall-clock events; the
        // simulator's trace is re-emitted from its virtual-time timelines.
        let off = Tracer::default();
        let step = Step { prog, q, eval0, tracer: &off };
        let run = match self.opts.mode {
            Mode::Bsp => self.run_bsp(&step),
            _ => self.run_async(&step),
        };
        // Timelines already hold the whole schedule in virtual time, so
        // tracing costs nothing during the event loop: one re-emission
        // pass per run, only when a sink is attached.
        if self.tracer.enabled() {
            use crate::timeline::TRACE_US_PER_UNIT;
            use std::sync::atomic::Ordering;
            // Consecutive runs lay out end-to-end on the virtual clock
            // (each starts at 0 internally); claim this run's window up
            // front so timestamps stay monotone per track.
            let span_us = (run.0.makespan.max(0.0) * TRACE_US_PER_UNIT).ceil() as u64
                + TRACE_US_PER_UNIT as u64;
            let base = self.virt_base_us.fetch_add(span_us, Ordering::Relaxed);
            self.tracer.instant_at(
                base,
                pid::SIM,
                0,
                cat::POLICY,
                "mode",
                Args::new()
                    .with("mode", self.opts.mode.name())
                    .with("workers", run.2.len())
                    .with("virt_makespan", run.0.makespan),
            );
            for mut ev in timeline_to_trace(&run.2) {
                ev.ts_us += base;
                self.tracer.emit(ev);
            }
        }
        run
    }

    // ------------------------------------------------------------------
    // BSP: lockstep supersteps with a barrier and post-barrier delivery.
    // ------------------------------------------------------------------
    fn run_bsp<P, F>(&self, step: &Step<'_, P, P::Query, F>) -> SimRun<P::State>
    where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State,
    {
        let m = self.frags.len();
        let mut workers: Vec<SimWorker<P::Val, P::State>> = (0..m).map(|_| new_worker()).collect();
        attach_shared_pool(&mut workers);
        let mut t = 0.0f64;
        let mut superstep: u32 = 0;
        let mut active: Vec<usize> = (0..m).collect();
        let mut aborted = false;
        while !active.is_empty() {
            if self.opts.max_rounds.is_some_and(|maxr| superstep > maxr) {
                aborted = true;
                break;
            }
            // Under fuzz, each superstep executes (and therefore routes)
            // in a seeded permutation of worker order, and the
            // post-barrier delivery lands in a second permutation — BSP's
            // equivalents of wake-order and interleaving perturbation.
            self.opts.schedule.shuffle_wake(&mut active, superstep as u64);
            let mut t_end = t;
            let mut all_batches: Vec<(FragId, Batch<P::Val>)> = Vec::new();
            for &w in &active {
                let wk = &mut workers[w];
                let cost = self.execute_round(step, wk, w, t, |_| {});
                t_end = t_end.max(t + cost);
                let mut out = wk.scratch.take_out();
                all_batches.append(&mut out);
                wk.scratch.give_out(out);
            }
            let sent_any = !all_batches.is_empty();
            self.opts.schedule.shuffle_delivery(&mut all_batches, superstep as u64);
            for (dst, b) in all_batches {
                workers[dst as usize].receive(b);
            }
            t = if sent_any { t_end + self.opts.latency } else { t_end };
            active =
                (0..m).filter(|&w| !workers[w].inbox.is_empty() || workers[w].local_work).collect();
            superstep += 1;
        }
        finish(&self.opts.mode, workers, t, aborted)
    }

    // ------------------------------------------------------------------
    // Async: AP / SSP / AAP / Hsync via the shared δ.
    // ------------------------------------------------------------------
    fn run_async<P, F>(&self, step: &Step<'_, P, P::Query, F>) -> SimRun<P::State>
    where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State,
    {
        let m = self.frags.len();
        let mut workers: Vec<SimWorker<P::Val, P::State>> = (0..m).map(|_| new_worker()).collect();
        attach_shared_pool(&mut workers);
        let mut coord = Coordinator::new(self.opts.mode.clone(), m);
        let mut acts = Vec::with_capacity(m);
        let mut ev = Events { heap: BinaryHeap::new(), seq: 0 };
        let fuzz = &self.opts.schedule;
        let (mut now, mut aborted) = (0.0f64, false);

        // PEval everywhere at t = 0.
        for (w, wk) in workers.iter_mut().enumerate() {
            let cost = self.execute_round(step, wk, w, 0.0, |_| {});
            ev.push(fuzz, cost, EventKind::Finish { w });
        }

        while let Some(event) = ev.heap.pop() {
            now = event.time;
            match event.kind {
                EventKind::Finish { w } => {
                    let wk = &mut workers[w];
                    if self.opts.max_rounds.is_some_and(|maxr| wk.stats.rounds > maxr as u64) {
                        aborted = true;
                        break;
                    }
                    // Dispatch the round's messages, ahead of any event
                    // the coordinator's decisions schedule.
                    let mut outs = wk.scratch.take_out();
                    for (dst, b) in outs.drain(..) {
                        // Fuzzed delivery: stretch this batch's latency by
                        // a per-(link, message) factor in
                        // [1, 1 + reorder_window] — bounded reorder, never
                        // earlier than the configured latency.
                        let factor = fuzz.delivery_factor(w, dst as usize, ev.seq + 1);
                        let (time, w) = (now + self.opts.latency * factor, dst as usize);
                        ev.push(fuzz, time, EventKind::Arrive { w, batch: b });
                    }
                    wk.scratch.give_out(outs);
                    let (local_work, dt) = (wk.local_work, now - wk.round_started);
                    let eta = |v: usize| workers[v].inbox.eta();
                    coord.round_done(w, local_work, dt, now, eta, &mut acts);
                }
                EventKind::Arrive { w, batch } => {
                    workers[w].receive(batch);
                    coord.arrived(w, now, |v| workers[v].inbox.eta(), &mut acts);
                }
                EventKind::Wake { w, gen } => {
                    coord.due(w, gen, now, |v| workers[v].inbox.eta(), &mut acts);
                }
            }
            // Act in decision order, so events scheduled at one time keep
            // their `seq` order.
            for a in &acts {
                self.act(step, &mut ev, &mut workers, &mut coord, a, now);
            }
        }
        debug_assert!(
            aborted || (coord.is_done() && workers.iter().all(|w| w.inbox.is_empty())),
            "policy deadlock under {:?}: {:?}",
            self.opts.mode,
            (0..m).map(|w| (coord.status(w), workers[w].inbox.eta())).collect::<Vec<_>>()
        );
        finish(&self.opts.mode, workers, now, aborted)
    }

    /// Carry out one coordinator action at `now`: record the δ evaluation
    /// (with a tracer attached), close an ended suspension, and start a
    /// round or schedule the wake.
    fn act<P, F>(
        &self,
        step: &Step<'_, P, P::Query, F>,
        ev: &mut Events<P::Val>,
        workers: &mut [SimWorker<P::Val, P::State>],
        coord: &mut Coordinator,
        a: &Action,
        now: f64,
    ) where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State,
    {
        let (w, wk) = (a.w, &mut workers[a.w]);
        if let (Some((decision, seen)), true) = (a.decided, self.tracer.enabled()) {
            wk.timeline.decisions.push(Decided { at: now, decision, seen });
        }
        if let Some(since) = a.suspended_since {
            end_suspend(wk, since, now);
        }
        match a.to {
            Status::Running => {
                let cost = self.execute_round(step, wk, w, now, |n| coord.drained(w, n, now));
                ev.push(&self.opts.schedule, now + cost, EventKind::Finish { w });
            }
            Status::Suspended(Some(t)) => {
                ev.push(&self.opts.schedule, t, EventKind::Wake { w, gen: a.gen });
            }
            Status::Suspended(None) | Status::Inactive => {}
        }
    }

    /// One round of worker `w` through the shared [`Step`], priced by the
    /// cost model; `drained` sees the batches the drain took. Returns the
    /// round cost and leaves the routed batches in the worker's scratch.
    fn execute_round<P, F>(
        &self,
        step: &Step<'_, P, P::Query, F>,
        wk: &mut SimWorker<P::Val, P::State>,
        w: usize,
        t: f64,
        drained: impl FnOnce(usize),
    ) -> f64
    where
        P: PieProgram<V, E>,
        F: Fn(usize, &Fragment<V, E>, &mut UpdateCtx<P::Val>) -> P::State,
    {
        let frag = &self.frags[w];
        let round = wk.stats.rounds as Round;
        let inbox = &mut wk.inbox;
        let drain = |s: &mut Scratch<P::Val>| {
            let info = inbox.drain_into(step.prog, frag, s);
            drained(info.batches);
            info
        };
        // Rounds whose kernel charges no work are priced by their traffic.
        // Fuzzed speed skew composes onto the configured model: the same
        // seed always slows the same workers by the same factor.
        let cost = |r: &aap_core::step::RoundReport| {
            let work = if r.work > 0 { r.work } else { r.delivered + r.sent as u64 };
            self.opts.cost.round_cost(w, work, r.drained_updates)
                * self.opts.schedule.speed_factor(w)
        };
        let r = step.round(w, frag, round, &mut wk.scratch, &mut wk.state, drain, cost);
        r.fold_into(&mut wk.stats);
        wk.local_work = r.local_work;
        wk.round_started = t;
        wk.timeline.spans.push(Span {
            start: t,
            end: t + r.compute,
            round,
            work: r.work,
            sent: r.sent as u64,
            kind: SpanKind::Compute,
        });
        r.compute
    }
}

/// The asynchronous run's event heap; `seq` numbers events in push order.
struct Events<Val> {
    heap: BinaryHeap<Event<Val>>,
    seq: u64,
}

impl<Val> Events<Val> {
    /// Schedule `kind` at `time`, keyed on its worker's tie and the next
    /// `seq`.
    fn push(&mut self, fuzz: &ScheduleFuzz, time: f64, kind: EventKind<Val>) {
        self.seq += 1;
        let (EventKind::Finish { w } | EventKind::Arrive { w, .. } | EventKind::Wake { w, .. }) =
            kind;
        self.heap.push(Event { time, tie: fuzz.tie(w, self.seq), seq: self.seq, kind });
    }
}

/// Tear the simulated workers down into run statistics, final states and
/// timelines (the shared tail of the BSP and async paths).
fn finish<Val, St>(
    mode: &Mode,
    workers: Vec<SimWorker<Val, St>>,
    makespan: f64,
    aborted: bool,
) -> (RunStats, Vec<St>, Vec<Timeline>) {
    let mut stats_w = Vec::with_capacity(workers.len());
    let mut states = Vec::with_capacity(workers.len());
    let mut timelines = Vec::with_capacity(workers.len());
    for wk in workers {
        stats_w.push(wk.stats);
        states.push(wk.state.expect("round 0 ran on every fragment"));
        timelines.push(wk.timeline);
    }
    let stats = RunStats { mode: mode.name().to_string(), makespan, workers: stats_w, aborted };
    (stats, states, timelines)
}

impl<Val, St> SimWorker<Val, St> {
    /// Buffer one arriving batch, counting it on this worker.
    fn receive(&mut self, b: Batch<Val>) {
        self.stats.batches_in += 1;
        self.stats.updates_in += b.updates.len() as u64;
        self.inbox.push(b);
    }
}

fn new_worker<Val, St>() -> SimWorker<Val, St> {
    SimWorker {
        inbox: Inbox::default(),
        state: None,
        stats: WorkerStats::default(),
        local_work: false,
        round_started: 0.0,
        scratch: Scratch::default(),
        timeline: Timeline::default(),
    }
}

/// Share one batch-body recycling pool across all simulated workers (see
/// [`aap_core::scratch::SharedPool`]).
fn attach_shared_pool<Val, St>(workers: &mut [SimWorker<Val, St>]) {
    let pool: SharedPool<Val> = SharedPool::default();
    for wk in workers {
        wk.scratch.attach_shared_pool(pool.clone());
    }
}

/// Close a suspension that began at `since`: count it, and draw it in the
/// timeline.
fn end_suspend<Val, St>(wk: &mut SimWorker<Val, St>, since: f64, now: f64) {
    let dt = (now - since).max(0.0);
    wk.stats.suspend_time += dt;
    if dt > 0.0 {
        wk.timeline.spans.push(Span {
            start: since,
            end: now,
            round: wk.stats.rounds as Round,
            work: 0,
            sent: 0,
            kind: SpanKind::Suspend,
        });
    }
}

impl<V, E> Backend<V, E> for SimEngine<V, E>
where
    V: 'static,
    E: 'static,
{
    fn fragments(&self) -> &[Arc<Fragment<V, E>>] {
        SimEngine::fragments(self)
    }

    fn fragments_mut(&mut self) -> Option<Vec<&mut Fragment<V, E>>> {
        SimEngine::fragments_mut(self)
    }

    fn fragments_cow(&mut self) -> Vec<&mut Fragment<V, E>>
    where
        V: Clone,
        E: Clone,
    {
        SimEngine::fragments_cow(self)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        SimEngine::set_tracer(self, tracer);
    }

    fn run_retained<P>(&self, prog: &P, q: &P::Query) -> (P::Out, RunStats, RunState<P::State>)
    where
        P: WarmStart<V, E>,
    {
        let (SimOutput { out, stats, timelines: _ }, state) =
            SimEngine::run_retained(self, prog, q);
        (out, stats, state)
    }

    fn run_incremental<P>(
        &self,
        prog: &P,
        q: &P::Query,
        remaps: &[StateRemap],
        seeds: &[Vec<LocalId>],
        invalid: &[Vec<LocalId>],
        state: &mut RunState<P::State>,
    ) -> (P::Out, RunStats)
    where
        P: WarmStart<V, E>,
    {
        let SimOutput { out, stats, timelines: _ } =
            SimEngine::run_incremental(self, prog, q, remaps, seeds, invalid, state);
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aap_core::pie::Messages;
    use aap_core::policy::AapConfig;
    use aap_graph::partition::{build_fragments, hash_partition};
    use aap_graph::{GraphBuilder, LocalId};

    /// Toy min-label propagation: every vertex converges to the smallest
    /// vertex id reachable from it (= 0 on a connected graph).
    struct MinLabel;

    impl PieProgram<(), u32> for MinLabel {
        type Query = ();
        type Val = u32;
        type State = Vec<u32>;
        type Out = Vec<u32>;

        fn combine(&self, a: &mut u32, b: u32) -> bool {
            if b < *a {
                *a = b;
                true
            } else {
                false
            }
        }

        fn peval(&self, _q: &(), f: &Fragment<(), u32>, ctx: &mut UpdateCtx<u32>) -> Vec<u32> {
            let mut lab: Vec<u32> = (0..f.local_count() as u32).map(|l| f.global(l)).collect();
            propagate(f, &mut lab, (0..f.local_count() as LocalId).collect(), ctx);
            lab
        }

        fn inceval(
            &self,
            _q: &(),
            f: &Fragment<(), u32>,
            lab: &mut Vec<u32>,
            msgs: &mut Messages<u32>,
            ctx: &mut UpdateCtx<u32>,
        ) {
            let mut dirty = Vec::new();
            for (l, v) in msgs.drain(..) {
                if v < lab[l as usize] {
                    lab[l as usize] = v;
                    dirty.push(l);
                    ctx.note_effective(1);
                } else {
                    ctx.note_redundant(1);
                }
            }
            propagate(f, lab, dirty, ctx);
        }

        fn assemble(
            &self,
            _q: &(),
            frags: &[Arc<Fragment<(), u32>>],
            states: Vec<Vec<u32>>,
        ) -> Vec<u32> {
            let n = frags.iter().map(|f| f.owned_count()).sum();
            let mut out = vec![0; n];
            for (f, lab) in frags.iter().zip(states) {
                for l in f.owned_vertices() {
                    out[f.global(l) as usize] = lab[l as usize];
                }
            }
            out
        }
    }

    fn propagate(
        f: &Fragment<(), u32>,
        lab: &mut [u32],
        mut work: Vec<LocalId>,
        ctx: &mut UpdateCtx<u32>,
    ) {
        let mut changed = std::collections::BTreeSet::new();
        for &l in &work {
            if f.is_border(l) {
                changed.insert(l);
            }
        }
        while let Some(u) = work.pop() {
            for &v in f.neighbors(u) {
                if lab[u as usize] < lab[v as usize] {
                    lab[v as usize] = lab[u as usize];
                    work.push(v);
                    if f.is_border(v) {
                        changed.insert(v);
                    }
                }
            }
        }
        for b in changed {
            ctx.send(b, lab[b as usize]);
        }
    }

    fn ring_frags(n: usize, m: usize) -> Vec<Fragment<(), u32>> {
        let mut b = GraphBuilder::new_undirected(n);
        for v in 0..n as u32 {
            b.add_edge(v, (v + 1) % n as u32, 1);
        }
        let g = b.build();
        build_fragments(&g, &hash_partition(&g, m))
    }

    fn modes() -> Vec<Mode> {
        vec![
            Mode::Bsp,
            Mode::Ap,
            Mode::Ssp { c: 2 },
            Mode::aap(),
            Mode::Aap(AapConfig { l_floor: 2.0, ..AapConfig::default() }),
            Mode::Hsync(aap_core::policy::HsyncConfig::default()),
        ]
    }

    #[test]
    fn all_modes_reach_same_fixpoint() {
        for mode in modes() {
            let engine = SimEngine::new(
                ring_frags(120, 5),
                SimOpts { mode: mode.clone(), ..SimOpts::default() },
            )
            .expect("valid opts");
            let out = engine.run(&MinLabel, &());
            assert!(out.out.iter().all(|&l| l == 0), "mode {mode:?} failed: {:?}", &out.out[..10]);
            assert!(!out.stats.aborted);
            assert!(out.stats.makespan > 0.0);
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let engine =
                SimEngine::new(ring_frags(200, 7), SimOpts::default()).expect("valid opts");
            let out = engine.run(&MinLabel, &());
            (out.stats.makespan, out.stats.total_updates(), out.stats.total_rounds())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn straggler_hurts_bsp_more_than_aap() {
        // Fig 1-style: one worker 4x slower than the rest.
        let mk = |mode: Mode| {
            let mut speed = vec![1.0; 6];
            speed[0] = 4.0;
            let engine = SimEngine::new(
                ring_frags(600, 6),
                SimOpts {
                    mode,
                    latency: 0.05,
                    cost: CostModel::skewed_work(speed),
                    max_rounds: Some(100_000),
                    ..SimOpts::default()
                },
            )
            .expect("valid opts");
            engine.run(&MinLabel, &()).stats.makespan
        };
        let bsp = mk(Mode::Bsp);
        let aap = mk(Mode::aap());
        assert!(
            aap <= bsp * 1.05,
            "AAP ({aap:.2}) should not be slower than BSP ({bsp:.2}) under skew"
        );
    }

    #[test]
    fn timelines_record_rounds() {
        let engine = SimEngine::new(ring_frags(60, 3), SimOpts::default()).expect("valid opts");
        let out = engine.run(&MinLabel, &());
        assert_eq!(out.timelines.len(), 3);
        for (tl, ws) in out.timelines.iter().zip(&out.stats.workers) {
            assert_eq!(tl.rounds() as u64, ws.rounds);
        }
        let g = crate::timeline::render_gantt(&out.timelines, 60);
        assert!(g.lines().count() >= 4);
    }

    #[test]
    fn fixed_cost_model_fig1_shape() {
        // Three workers, costs 3/3/6, latency 1 — the Example 1 setting.
        let engine = SimEngine::new(
            ring_frags(90, 3),
            SimOpts {
                mode: Mode::Bsp,
                latency: 1.0,
                cost: CostModel::FixedPerWorker(vec![3.0, 3.0, 6.0]),
                max_rounds: Some(10_000),
                ..SimOpts::default()
            },
        )
        .expect("valid opts");
        let out = engine.run(&MinLabel, &());
        // Every BSP superstep costs max(3,3,6) + 1 = 7.
        let supersteps = out.stats.max_rounds();
        assert!((out.stats.makespan - (supersteps as f64 * 7.0)).abs() < 7.0 + 1e-9);
    }

    /// Satellite regression: same-virtual-time events must pop in the
    /// explicit `(time, worker, seq)` order no matter how they were
    /// inserted. Before the explicit `tie` key, same-time order fell
    /// through to `seq` — i.e. to insertion order.
    #[test]
    fn same_time_events_pop_independent_of_insertion_order() {
        let base: Vec<(f64, usize)> =
            vec![(1.0, 3), (1.0, 0), (2.0, 2), (1.0, 2), (2.0, 0), (1.0, 1), (0.5, 4)];
        let pop_order = |evs: &[(f64, usize)]| -> Vec<(u64, usize)> {
            let fuzz = ScheduleFuzz::off();
            let mut q: BinaryHeap<Event<u32>> = BinaryHeap::new();
            for (i, &(t, w)) in evs.iter().enumerate() {
                q.push(Event {
                    time: t,
                    tie: fuzz.tie(w, i as u64),
                    seq: i as u64,
                    kind: EventKind::Finish { w },
                });
            }
            std::iter::from_fn(|| q.pop())
                .map(|e| {
                    let EventKind::Finish { w } = e.kind else { unreachable!() };
                    (e.time.to_bits(), w)
                })
                .collect()
        };
        let expect = pop_order(&base);
        // Heap's algorithm: every permutation of the insertion order.
        let mut perm = base.clone();
        let n = perm.len();
        let mut c = vec![0usize; n];
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                assert_eq!(pop_order(&perm), expect, "insertion order leaked into pop order");
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn fuzzed_runs_reach_the_canonical_fixpoint_in_every_mode() {
        for mode in modes() {
            let canonical = SimEngine::new(
                ring_frags(120, 5),
                SimOpts { mode: mode.clone(), ..SimOpts::default() },
            )
            .expect("valid opts")
            .run(&MinLabel, &());
            for seed in 0..8u64 {
                let opts = SimOpts { mode: mode.clone(), ..SimOpts::default() }
                    .schedule(ScheduleFuzz::seeded(seed));
                let out = SimEngine::new(ring_frags(120, 5), opts)
                    .expect("valid opts")
                    .run(&MinLabel, &());
                assert_eq!(
                    out.out, canonical.out,
                    "mode {mode:?} diverged from the canonical fixpoint under fuzz seed {seed}"
                );
                assert!(!out.stats.aborted, "mode {mode:?} aborted under fuzz seed {seed}");
            }
        }
    }

    #[test]
    fn same_seed_replays_the_same_timeline_bit_identically() {
        let run = |seed: u64| {
            SimEngine::new(
                ring_frags(200, 7),
                SimOpts::default().schedule(ScheduleFuzz::seeded(seed)),
            )
            .expect("valid opts")
            .run(&MinLabel, &())
        };
        let (a, b) = (run(7), run(7));
        assert_eq!(a.stats.makespan.to_bits(), b.stats.makespan.to_bits());
        assert_eq!(a.out, b.out);
        assert_eq!(a.timelines.len(), b.timelines.len());
        for (ta, tb) in a.timelines.iter().zip(&b.timelines) {
            assert_eq!(ta.spans.len(), tb.spans.len());
            for (sa, sb) in ta.spans.iter().zip(&tb.spans) {
                assert_eq!(sa.start.to_bits(), sb.start.to_bits(), "span starts must be bit-equal");
                assert_eq!(sa.end.to_bits(), sb.end.to_bits(), "span ends must be bit-equal");
                assert_eq!(sa.round, sb.round);
                assert_eq!(sa.kind, sb.kind);
            }
        }
        // A different seed is a genuinely different hostile timeline
        // (speed skew alone guarantees different round costs).
        let c = run(8);
        assert_ne!(a.stats.makespan.to_bits(), c.stats.makespan.to_bits());
    }

    #[test]
    fn more_workers_than_fixed_costs_no_longer_panics() {
        // 5 fragments priced by 3 costs: the tail inherits 6.0.
        let engine = SimEngine::new(
            ring_frags(100, 5),
            SimOpts {
                mode: Mode::Bsp,
                latency: 1.0,
                cost: CostModel::FixedPerWorker(vec![3.0, 3.0, 6.0]),
                max_rounds: Some(10_000),
                ..SimOpts::default()
            },
        )
        .expect("valid opts");
        let out = engine.run(&MinLabel, &());
        assert!(out.out.iter().all(|&l| l == 0));
    }

    #[test]
    fn bad_opts_are_construction_errors() {
        let empty = SimEngine::new(
            ring_frags(10, 2),
            SimOpts { cost: CostModel::FixedPerWorker(Vec::new()), ..SimOpts::default() },
        );
        assert_eq!(empty.err(), Some(SimError::EmptyCostVector));
        let bad_fuzz = SimEngine::new(
            ring_frags(10, 2),
            SimOpts::default().schedule(ScheduleFuzz::seeded(1).reorder_window(-1.0)),
        );
        assert!(matches!(bad_fuzz.err(), Some(SimError::InvalidSchedule(_))));
    }
}
