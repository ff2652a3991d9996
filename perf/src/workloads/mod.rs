//! The four workloads and what they share: the run context, failure
//! accounting, timing helpers and the oracle comparisons.

pub mod batch;
pub mod serve;
pub mod stream;

use crate::adapter::TraceTap;
use crate::metrics::Values;
use crate::spans::{Bucket, SpanLog, Trace, TraceBuilder};
use crate::stats;
use std::path::PathBuf;
use std::time::Instant;

/// Fragments every workload partitions into (hash edge-cut).
pub const FRAGMENTS: usize = 4;

/// How one run of one workload is parameterised.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Attach the recorder and record harness spans.
    pub traced: bool,
    /// Tiny sizes.
    pub smoke: bool,
    /// One half of a `--trace 1` run, which reports no tail percentile.
    pub half: bool,
    /// Engine worker threads: `min(nproc, 4)`.
    pub threads: usize,
    /// How many times to set up (the median is `setup_s`; the last
    /// set-up is the one the run uses).
    pub setups: usize,
    /// Where durable sessions and snapshot probes write.
    pub scratch: PathBuf,
    /// Where the traced run writes its Chrome trace.
    pub trace_path: PathBuf,
}

impl Ctx {
    /// Whether a tail percentile short of samples is left out (smoke
    /// runs, halves of a traced run) instead of making the run invalid.
    pub fn lenient(&self) -> bool {
        self.smoke || self.half
    }
}

/// What one run produced.
pub struct Outcome {
    /// Ops attempted: every timed op, every oracle comparison.
    pub attempted: u64,
    /// Ops that returned `Err`, were never answered, or disagreed with
    /// the oracle.
    pub failed: u64,
    /// The workload's own end-to-end metrics and its per-layer metrics.
    pub values: Values,
    /// Why the run is invalid, if it is (a lagging generator, a
    /// percentile short of samples).
    pub invalid: Vec<String>,
}

/// Attempt and failure counts; the first few failures are logged.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 8 {
                eprintln!("FAILED: {}", what());
            }
        }
    }

    /// Count an op; `Err` is a failure. Returns the value on success.
    pub fn op<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Time `f` in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Harness spans when tracing, nothing otherwise.
pub struct Spans(pub Option<SpanLog>);

impl Spans {
    pub fn new(traced: bool, epoch: Instant, thread: u32) -> Self {
        Spans(traced.then(|| SpanLog::new(epoch, thread)))
    }

    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        self.0.as_mut().map(|l| l.enter(name))
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let (Some(l), Some(id)) = (self.0.as_mut(), id) {
            l.exit(id);
        }
    }

    /// One op made of one layer call: root span `op`, child span `call`,
    /// and the call's duration in milliseconds on the harness timer.
    pub fn op<R>(
        &mut self,
        op: &'static str,
        call: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let root = self.enter(op);
        let inner = self.enter(call);
        let (r, ms) = timed(f);
        self.exit(inner);
        self.exit(root);
        (r, ms)
    }
}

/// A named timing read off a finished set-up.
pub type SetupTiming<'a, S> = (&'a str, fn(&S) -> f64);

/// Set up `ctx.setups` times with `set_up`, record the median of each
/// named timing, and return the last set-up (the one the run uses).
/// Earlier ones go to `discard` first, so only one is alive at a time.
pub fn set_up_repeatedly<S>(
    ctx: &Ctx,
    values: &mut Values,
    timings: &[SetupTiming<S>],
    mut set_up: impl FnMut(usize) -> Result<S, String>,
    discard: fn(S),
) -> Result<S, String> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); timings.len()];
    let mut last = None;
    for k in 0..ctx.setups.max(1) {
        last.take().map(discard);
        let s = set_up(k)?;
        for (xs, (_, read)) in samples.iter_mut().zip(timings) {
            xs.push(read(&s));
        }
        last = Some(s);
    }
    for (xs, (name, _)) in samples.iter().zip(timings) {
        put_median(values, name, xs);
    }
    Ok(last.expect("at least one set-up"))
}

/// The recorder side of a traced run: the tap, the builder its drained
/// events feed, and how many events the ring lost.
pub struct Recording {
    tap: Option<TraceTap>,
    pub builder: Option<TraceBuilder>,
    pub dropped: u64,
}

impl Recording {
    /// Starts by discarding what the set-up recorded: it belongs to no op.
    pub fn new(tap: Option<TraceTap>, harness_epoch: Instant) -> Self {
        let builder = tap.as_ref().map(|t| {
            t.drain();
            TraceBuilder::new(harness_epoch, t.epoch_lo, t.epoch_hi)
        });
        Recording { tap, builder, dropped: 0 }
    }

    /// Turn what the recorder holds into spans (off the clock).
    pub fn drain(&mut self) {
        if let (Some(tap), Some(b)) = (&self.tap, &mut self.builder) {
            self.dropped += tap.dropped();
            b.feed(&tap.drain());
        }
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// PageRank agrees with the sequential reference when every score is
/// within `1e-3` absolute plus `1e-3` relative: both sides stop pushing
/// residuals below the same threshold, so they differ by at most the mass
/// left behind, which grows with a vertex's score.
pub fn pagerank_close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| (a - b).abs() <= 1e-3 + 1e-3 * b.abs())
}

/// Record the median of `samples` under `name`; `false` when empty.
pub fn put_median(values: &mut Values, name: &str, samples: &[f64]) -> bool {
    match stats::median(samples) {
        Some(m) => {
            values.set(name, m, samples.len());
            true
        }
        None => false,
    }
}

/// Record the `p`-th percentile of `samples` under `name`. Short of
/// samples, a lenient run omits the metric and a real run is invalid.
pub fn put_percentile(
    values: &mut Values,
    invalid: &mut Vec<String>,
    lenient: bool,
    name: &str,
    samples: &[f64],
    p: f64,
) {
    match stats::percentile(samples, p) {
        Ok(v) => values.set(name, v, samples.len()),
        Err(e) if lenient => eprintln!("{name} omitted: {e}"),
        Err(e) => invalid.push(format!("{name}: {e}")),
    }
}

/// The traced run's layer table and tracing health, as `share.*` and
/// `trace.*` metrics over every op of the run.
pub fn put_layer_table(values: &mut Values, trace: &Trace, dropped: u64) {
    let roots = trace.roots(|_| true);
    let table = trace.layer_table(&roots);
    for b in Bucket::ALL {
        values.count(b.metric(), table.share(b));
    }
    let per_op = |x: f64| if table.ops > 0 { x / table.ops as f64 } else { 0.0 };
    values.count("trace.events_per_op", per_op(trace.events as f64));
    values.count("trace.dropped", (dropped + trace.torn) as f64);
    values.count(
        "trace.unattributed_ratio",
        if table.wall_us > 0.0 { table.unattributed_us / table.wall_us } else { 0.0 },
    );
}

/// The engine's phase spans, as `core.*_self_ms` per op of `roots`.
pub fn put_core_self_ms(values: &mut Values, trace: &Trace, self_us: &[f64], roots: &[usize]) {
    for (name, span) in [
        ("core.eval0_self_ms", "eval0"),
        ("core.inceval_self_ms", "inceval"),
        ("core.route_self_ms", "route"),
        ("core.drain_self_ms", "drain"),
    ] {
        put_self_ms(values, name, trace, self_us, span, roots);
    }
}

/// Mean self time (ms) per op of the recorder spans named `span`, over
/// the ops rooted at `roots`; nothing when the recorder emits no such
/// span.
pub fn put_self_ms(
    values: &mut Values,
    name: &str,
    trace: &Trace,
    self_us: &[f64],
    span: &str,
    roots: &[usize],
) {
    if let Some(us) = trace.self_us_of(span, roots, self_us) {
        values.set(name, us / 1e3 / roots.len().max(1) as f64, roots.len());
    }
}
