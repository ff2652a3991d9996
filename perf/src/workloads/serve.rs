//! `serve_mixed`: reads beside writes, open loop.
//!
//! A client thread holding a `SessionReader` issues SSSP queries at
//! seeded Poisson due-times with Zipf(1.0) sources over 1024 vertices.
//! A hit (the retained answer or one of the 32 cached) is answered on
//! the client thread; a miss is `request`ed and answered by the writer
//! thread's next `serve_admitted` window. The writer also applies one
//! 0.1 % insert batch at a fixed interval, which clears the cache.
//! Three phases: `lo` and `hi` at fixed rates, then a closed-loop
//! saturation phase. Latency runs from the due time, so a stall charges
//! every request it delays. Admission windows, the answer cache,
//! publication and queueing behind applies decide the result.

use super::{
    peak_rss_mb, put_core_self_ms, put_layer_table, put_median, put_percentile, put_self_ms,
    set_up_repeatedly, timed, Ctx, Outcome, Recording, Spans, Tally, FRAGMENTS,
};
use crate::adapter::{self, Delta, Reader, Serving, ServingCfg, TraceTap};
use crate::loadgen::{poisson_schedule, Rng, Zipf};
use crate::metrics::Values;
use crate::mirror::Mirror;
use crate::spans::Trace;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Offered rates of the two open-loop phases, frozen from the reference
/// run's saturation throughput (about 20 % and 60 % of it).
pub const LO_QPS: f64 = 36.0;
pub const HI_QPS: f64 = 110.0;
/// Share of the timed phase each phase takes.
const PHASES: [(&str, f64); 3] = [("lo", 0.15), ("hi", 0.55), ("sat", 0.30)];
/// Distinct query sources, Zipf-ranked.
const HOT: usize = 1024;
const ANSWER_CACHE: usize = 32;
/// Requests the saturation phase keeps outstanding (its client count).
const SAT_CLIENTS: i64 = 8;
/// The writer applies this many insert batches over the timed phase.
const APPLIES_PER_RUN: f64 = 10.0;
/// A run whose generator ran later than this at the 99th percentile (the
/// reference run: 3.0-3.7 ms, the wake-up latency of a client thread
/// beside two busy engine threads on two cores), or whose open-loop phase
/// ended with more requests than this waiting, did not offer the load it
/// claims.
const MAX_LAG_P99_MS: f64 = 10.0;
const MAX_BACKLOG_AT_END: i64 = 64;

fn scale(smoke: bool) -> u32 {
    if smoke {
        10
    } else {
        14
    }
}

/// One request the client could not answer itself.
struct Pending {
    phase: usize,
    src: u32,
    due: Instant,
}

/// What the two threads share.
struct Shared {
    inbox: Mutex<Vec<Pending>>,
    /// Signalled when the inbox gains a request or `stop` is set.
    wake: Condvar,
    /// Misses sent and not yet answered.
    outstanding: AtomicI64,
    /// Signalled (under `gate`) when the writer answers requests.
    answered: Condvar,
    gate: Mutex<()>,
    stop: AtomicBool,
}

/// A miss answered by the writer.
struct Completion {
    phase: usize,
    latency_ms: f64,
    at: Instant,
}

/// The thread that owns the session: serves windows, applies batches.
struct Writer<'a> {
    shared: &'a Shared,
    session: Serving,
    reader: Reader,
    recording: Recording,
    mirror: Mirror,
    rng: Rng,
    batch: usize,
    apply_every: Duration,
    completions: Vec<Completion>,
    windows: u64,
    busy: Duration,
    apply_ms: Vec<f64>,
    spans: Spans,
    tally: Tally,
}

impl Writer<'_> {
    fn next_delta(&mut self) -> Delta {
        adapter::build_delta(&self.mirror.insert_batch(self.batch, None, &mut self.rng), &[], &[])
    }

    /// Serve until told to stop and nothing is waiting.
    fn run(&mut self) {
        let mut next_apply = Instant::now() + self.apply_every;
        let mut waiting: Vec<Pending> = Vec::new();
        loop {
            {
                let mut inbox = self.shared.inbox.lock().expect("inbox lock");
                while inbox.is_empty()
                    && waiting.is_empty()
                    && !self.shared.stop.load(Ordering::SeqCst)
                    && Instant::now() < next_apply
                {
                    let left = next_apply.saturating_duration_since(Instant::now());
                    inbox = self.shared.wake.wait_timeout(inbox, left).expect("inbox lock").0;
                }
                waiting.append(&mut inbox);
            }
            if Instant::now() >= next_apply {
                // Built only now: the mirror must never run ahead of the
                // session it mirrors.
                let delta = self.next_delta();
                let session = &mut self.session;
                let (r, ms) = self.spans.op("op.apply", "session.apply", || session.apply(&delta));
                self.busy += Duration::from_secs_f64(ms / 1e3);
                if self.tally.op("apply", r).is_some() {
                    self.apply_ms.push(ms);
                }
                self.recording.drain();
                next_apply += self.apply_every;
            }
            if !waiting.is_empty() {
                let session = &mut self.session;
                let (r, ms) = self
                    .spans
                    .op("op.window", "session.serve_admitted", || session.serve_admitted());
                let at = Instant::now();
                self.busy += Duration::from_secs_f64(ms / 1e3);
                self.windows += 1;
                let served = self.tally.op("serve_admitted", r).is_some();
                self.recording.drain();
                // A request is answered once a reader can see its answer;
                // one the cache has already evicted (or an apply cleared)
                // is asked for again and waits for the next window.
                let mut answered = 0;
                for p in std::mem::take(&mut waiting) {
                    match self.reader.query_sssp(p.src) {
                        Ok(Some(_)) => {
                            answered += 1;
                            self.completions.push(Completion {
                                phase: p.phase,
                                latency_ms: at.duration_since(p.due).as_secs_f64() * 1e3,
                                at,
                            });
                        }
                        Ok(None) if served => {
                            let _ = self.reader.request_sssp(p.src);
                            waiting.push(p);
                        }
                        // The window or the read failed: the request
                        // stays unanswered and is counted as failed.
                        _ => {}
                    }
                }
                if answered > 0 {
                    self.shared.outstanding.fetch_sub(answered, Ordering::SeqCst);
                    let _gate = self.shared.gate.lock().expect("gate lock");
                    self.shared.answered.notify_all();
                }
            }
            if self.shared.stop.load(Ordering::SeqCst) && waiting.is_empty() {
                let empty = self.shared.inbox.lock().expect("inbox lock").is_empty();
                if empty {
                    break;
                }
            }
        }
    }
}

/// Sleep, then spin the last stretch, until `t`.
fn wait_until(t: Instant) {
    loop {
        let left = t.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What the client saw in one phase.
#[derive(Default)]
struct PhaseLog {
    start: Option<Instant>,
    end: Option<Instant>,
    sent: u64,
    hit_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    backlog_max: i64,
    backlog_at_end: i64,
}

struct Client<'a> {
    shared: &'a Shared,
    reader: Reader,
    hot: Vec<u32>,
    zipf: Zipf,
    rng: Rng,
    spans: Spans,
    tally: Tally,
}

impl Client<'_> {
    /// Issue one request due at `due`: answer it here or hand it over.
    fn issue(&mut self, phase: usize, due: Instant, log: &mut PhaseLog) {
        let src = self.hot[self.zipf.sample(&mut self.rng)];
        log.sent += 1;
        let reader = &self.reader;
        let (r, _) = self.spans.op("op.read", "session.reader_query", || reader.query_sssp(src));
        match r {
            Ok(Some(_)) => {
                log.hit_ms.push(due.elapsed().as_secs_f64() * 1e3);
                self.tally.check(true, String::new);
            }
            Ok(None) => {
                let backlog = self.shared.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
                log.backlog_max = log.backlog_max.max(backlog);
                if let Err(e) = self.reader.request_sssp(src) {
                    self.tally.check(false, || format!("request: {e}"));
                    self.shared.outstanding.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                self.shared.inbox.lock().expect("inbox lock").push(Pending { phase, src, due });
                self.shared.wake.notify_one();
            }
            Err(e) => self.tally.check(false, || format!("reader query: {e}")),
        }
    }

    /// Wait (bounded) for the writer to answer what is outstanding.
    fn quiesce(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut gate = self.shared.gate.lock().expect("gate lock");
        while self.shared.outstanding.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            gate = self
                .shared
                .answered
                .wait_timeout(gate, Duration::from_millis(20))
                .expect("gate lock")
                .0;
        }
    }

    /// Open loop: requests at Poisson due-times, whatever the backlog.
    fn open_phase(&mut self, phase: usize, qps: f64, secs: f64) -> PhaseLog {
        let mut log = PhaseLog::default();
        let schedule = poisson_schedule(qps, secs, &mut self.rng);
        let start = Instant::now();
        log.start = Some(start);
        for t in schedule {
            let due = start + Duration::from_secs_f64(t);
            wait_until(due);
            log.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            self.issue(phase, due, &mut log);
        }
        wait_until(start + Duration::from_secs_f64(secs));
        log.end = Some(Instant::now());
        log.backlog_at_end = self.shared.outstanding.load(Ordering::SeqCst);
        self.quiesce();
        log
    }

    /// Closed loop: `SAT_CLIENTS` requests outstanding, each replaced as
    /// soon as it is answered.
    fn saturation_phase(&mut self, phase: usize, secs: f64) -> PhaseLog {
        let mut log = PhaseLog::default();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        log.start = Some(start);
        while Instant::now() < end {
            if self.shared.outstanding.load(Ordering::SeqCst) >= SAT_CLIENTS {
                let gate = self.shared.gate.lock().expect("gate lock");
                if self.shared.outstanding.load(Ordering::SeqCst) >= SAT_CLIENTS {
                    let left = end.saturating_duration_since(Instant::now());
                    let _ = self
                        .shared
                        .answered
                        .wait_timeout(gate, left.min(Duration::from_millis(20)))
                        .expect("gate lock");
                }
                continue;
            }
            self.issue(phase, Instant::now(), &mut log);
        }
        log.end = Some(Instant::now());
        self.quiesce();
        log
    }
}

struct Setup {
    session: Serving,
    tap: Option<TraceTap>,
    g: adapter::Graph,
    hot: Vec<u32>,
    generate_ms: f64,
    open_ms: f64,
    total_s: f64,
}

/// Generate, open, retain the most popular source, fill the cache.
fn set_up(ctx: &Ctx) -> Result<Setup, String> {
    let t0 = Instant::now();
    let (g, generate_ms) = timed(|| adapter::gen_rmat(scale(ctx.smoke), 16, ctx.seed));
    let degrees = adapter::degrees(&g);
    let mut pool: Vec<u32> =
        (0..degrees.len() as u32).filter(|&v| degrees[v as usize] >= 8).collect();
    Rng::new(ctx.seed).fork(3).shuffle(&mut pool);
    pool.truncate(HOT);
    let cfg = ServingCfg {
        fragments: FRAGMENTS,
        threads: ctx.threads,
        with_cc: false,
        durable_dir: None,
        compact_after: 0,
        balance_max_imbalance: None,
        answer_cache: Some(ANSWER_CACHE),
        trace_capacity: ctx.traced.then_some(1 << 18),
    };
    let copy = g.clone();
    let (opened, open_ms) = timed(|| Serving::open(copy, &cfg));
    let (mut session, tap) = opened?;
    // Rank 0 becomes the retained query; the next ranks warm the cache.
    for &src in pool.iter().take(ANSWER_CACHE + 1) {
        session.query_sssp(src)?;
    }
    Ok(Setup {
        session,
        tap,
        g,
        hot: pool,
        generate_ms,
        open_ms,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut values = Values::default();
    let mut invalid = Vec::new();

    let Setup { mut session, tap, g, hot, .. } = set_up_repeatedly(
        ctx,
        &mut values,
        &[
            ("setup_s", |s: &Setup| s.total_s),
            ("graph.generate_ms", |s| s.generate_ms),
            ("session.open_ms", |s| s.open_ms),
        ],
        |_| set_up(ctx),
        drop,
    )?;
    if hot.len() < ANSWER_CACHE + 2 {
        return Err(format!("only {} query sources of degree >= 8", hot.len()));
    }

    let mut tally = Tally::default();
    tally.check(session.query_sssp(hot[0])? == adapter::seq_dijkstra(&g, hot[0]), || {
        "SSSP differs from seq::dijkstra at the start".into()
    });
    let mirror = Mirror::of(&g);
    drop(g);

    let shared = Shared {
        inbox: Mutex::new(Vec::new()),
        wake: Condvar::new(),
        outstanding: AtomicI64::new(0),
        answered: Condvar::new(),
        gate: Mutex::new(()),
        stop: AtomicBool::new(false),
    };
    let epoch = Instant::now();
    let root = Rng::new(ctx.seed);
    let mut w = Writer {
        shared: &shared,
        reader: session.reader(),
        batch: (mirror.edge_copies() / 1000).max(8),
        mirror,
        rng: root.fork(4),
        apply_every: Duration::from_secs_f64(ctx.seconds / APPLIES_PER_RUN),
        completions: Vec::new(),
        windows: 0,
        busy: Duration::ZERO,
        apply_ms: Vec::new(),
        spans: Spans::new(ctx.traced, epoch, 0),
        tally: Tally::default(),
        recording: Recording::new(tap, epoch),
        session,
    };
    let mut client = Client {
        shared: &shared,
        reader: w.session.reader(),
        zipf: Zipf::new(hot.len(), 1.0),
        hot,
        rng: root.fork(5),
        spans: Spans::new(ctx.traced, epoch, 1),
        tally,
    };

    // The session stays on this thread; the client is the one spawned.
    let started = Instant::now();
    let seconds = ctx.seconds;
    let client = std::thread::scope(|s| {
        let shared = &shared;
        let handle = s.spawn(move || {
            let logs = [
                client.open_phase(0, LO_QPS, seconds * PHASES[0].1),
                client.open_phase(1, HI_QPS, seconds * PHASES[1].1),
                client.saturation_phase(2, seconds * PHASES[2].1),
            ];
            shared.stop.store(true, Ordering::SeqCst);
            let _inbox = shared.inbox.lock().expect("inbox lock");
            shared.wake.notify_all();
            (client, logs)
        });
        w.run();
        handle.join()
    });
    let (client, logs) = client.map_err(|_| "the client thread panicked".to_string())?;
    let elapsed = started.elapsed();
    let Client { reader, hot, spans: client_spans, mut tally, .. } = client;

    // Every request sent must have been answered.
    let misses: [Vec<f64>; 3] = std::array::from_fn(|p| {
        w.completions.iter().filter(|c| c.phase == p).map(|c| c.latency_ms).collect()
    });
    for (p, log) in logs.iter().enumerate() {
        let answered = log.hit_ms.len() + misses[p].len();
        tally.attempted += misses[p].len() as u64;
        for _ in answered as u64..log.sent {
            tally.check(false, || format!("a request of phase {} was never answered", PHASES[p].0));
        }
        if p < 2 && log.backlog_at_end > MAX_BACKLOG_AT_END {
            invalid.push(format!(
                "{}: {} requests still waiting at phase end",
                PHASES[p].0, log.backlog_at_end
            ));
        }
    }
    tally.attempted += w.tally.attempted;
    tally.failed += w.tally.failed;

    // Oracle at the end: the retained answer and what the cache holds.
    let mirrored = w.mirror.to_graph();
    let mut compared = 0;
    for &src in &hot {
        if let Ok(Some(got)) = reader.query_sssp(src) {
            tally.check(*got == adapter::seq_dijkstra(&mirrored, src), || {
                format!("published SSSP from {src} differs from seq::dijkstra on the mirror")
            });
            compared += 1;
            if compared == 8 {
                break;
            }
        }
    }
    tally.check(compared > 0, || "no published answer to compare at the end".into());

    // End-to-end metrics.
    let secs = |log: &PhaseLog| log.end.unwrap().duration_since(log.start.unwrap()).as_secs_f64();
    // Gated: the closed loop's miss median and p90, the median request
    // at the hi rate, the writer's apply beside the reads, and saturation
    // throughput. Of the issue's list, the lo-rate miss median and the
    // hi-rate p99 vary by 20 % and more between seeds, and the hi-rate
    // miss median by 13 %, so they are reported under `loadgen.`, not gated.
    let mut hi_all = logs[1].hit_ms.clone();
    hi_all.extend(&misses[1]);
    put_median(&mut values, "miss_sat_p50_ms", &misses[2]);
    put_percentile(&mut values, &mut invalid, ctx.lenient(), "miss_sat_p90_ms", &misses[2], 0.90);
    put_median(&mut values, "query_hi_p50_ms", &hi_all);
    if !put_median(&mut values, "apply_p50_ms", &w.apply_ms) {
        invalid.push("the writer applied no batch".into());
    }
    put_median(&mut values, "loadgen.miss_lo_p50_ms", &misses[0]);
    put_median(&mut values, "loadgen.miss_hi_p50_ms", &misses[1]);
    put_percentile(&mut values, &mut invalid, true, "loadgen.query_hi_p99_ms", &hi_all, 0.99);
    let sat = &logs[2];
    let in_phase = w.completions.iter().filter(|c| c.phase == 2 && Some(c.at) <= sat.end).count();
    let answers = sat.hit_ms.len() + in_phase;
    values.set("serve_qps", answers as f64 / secs(sat), answers);
    values.set("process.peak_rss_mb", peak_rss_mb(), 1);

    // Per-layer counters.
    let sent: u64 = logs.iter().map(|l| l.sent).sum();
    let hits: usize = logs.iter().map(|l| l.hit_ms.len()).sum();
    let counters = w.session.counters();
    values.count("session.cache_hit_ratio", hits as f64 / sent.max(1) as f64);
    values.count("session.admitted_per_window", counters.admitted as f64 / w.windows.max(1) as f64);
    values.count("session.windows", w.windows as f64);
    values.count("session.publications", counters.publications as f64);
    values.count("loadgen.offered_qps", logs[1].sent as f64 / secs(&logs[1]));
    values.count(
        "loadgen.achieved_qps",
        (logs[1].hit_ms.len() + misses[1].len()) as f64 / secs(&logs[1]),
    );
    let lags: Vec<f64> = logs[..2].iter().flat_map(|l| l.lag_ms.iter().copied()).collect();
    // The lag is a per-layer metric, so a short run may leave it out; a
    // run that has it and lagged is invalid.
    put_percentile(&mut values, &mut invalid, true, "loadgen.lag_p99_ms", &lags, 0.99);
    if let Some(lag) = values.get("loadgen.lag_p99_ms").filter(|l| l.v > MAX_LAG_P99_MS) {
        invalid.push(format!("generator lag p99 {:.2} ms", lag.v));
    }
    values
        .count("loadgen.backlog_max", logs.iter().map(|l| l.backlog_max).max().unwrap_or(0) as f64);
    values.count("loadgen.writer_busy_ratio", w.busy.as_secs_f64() / elapsed.as_secs_f64());

    if ctx.traced {
        let logs: Vec<_> = [w.spans.0.take(), client_spans.0].into_iter().flatten().collect();
        let trace = Trace::assemble(logs, 0, w.recording.builder.take());
        put_layer_table(&mut values, &trace, w.recording.dropped);
        let self_us = trace.self_times_us();
        let windows = trace.roots(|n| n == "op.window");
        let applies = trace.roots(|n| n == "op.apply");
        put_self_ms(
            &mut values,
            "session.serve_admitted_self_ms",
            &trace,
            &self_us,
            "serve_admitted",
            &windows,
        );
        put_self_ms(&mut values, "session.apply_self_ms", &trace, &self_us, "apply", &applies);
        put_core_self_ms(&mut values, &trace, &self_us, &windows);
        trace.write_chrome(&ctx.trace_path, 60_000).map_err(|e| e.to_string())?;
        probes(&mut w.session, &reader, hot[0], &mut values)?;
    }

    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, values, invalid })
}

/// Hit-path probes: the `&mut Session` path clones the answer, the
/// reader path bumps an `Arc`.
fn probes(
    session: &mut Serving,
    reader: &Reader,
    src: u32,
    values: &mut Values,
) -> Result<(), String> {
    let mut per_call_us = Vec::new();
    for _ in 0..5 {
        let (r, ms) = timed(|| (0..1000).try_for_each(|_| session.query_sssp(src).map(drop)));
        r?;
        per_call_us.push(ms);
    }
    put_median(values, "session.retained_hit_us", &per_call_us);
    let mut per_call_ns = Vec::new();
    for _ in 0..5 {
        let (r, ms) = timed(|| (0..10_000).try_for_each(|_| reader.query_sssp(src).map(drop)));
        r?;
        per_call_ns.push(ms * 100.0);
    }
    put_median(values, "session.reader_hit_ns", &per_call_ns);
    Ok(())
}
