//! Spans and the arithmetic on them.
//!
//! Two sources feed one [`Trace`]: the harness's own spans (a
//! [`SpanLog`] per harness thread, wrapped around every call into a
//! layer's public functions) and whatever the program's shipped
//! recorder emitted while those calls ran ([`TraceBuilder`]). Spans of
//! one request share an op id and link to the span that caused them; a
//! span's self time is its duration minus the part of that interval its
//! children cover; the layer table splits each op's wall time among the
//! innermost spans active at every instant, so its shares sum to one.

use crate::adapter::{Lane, Mark, RecEvent};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The timeline a span lies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Track {
    /// A harness thread.
    Harness(u32),
    /// The session's serving lane (`tid` = program slot).
    Session(u32),
    /// The delta lane's coordinating track.
    DeltaMain,
    /// Synthetic: one engine run, from its `mode` instant to the end of
    /// its last round. Its self time is time no worker was in a round.
    EngineRun,
    /// A per-fragment delta track (parallel repacks).
    DeltaWorker(u32),
    /// An engine worker.
    EngineWorker(u32),
}

impl Track {
    /// Call depth: a span's parent lies on a track of lower level (or on
    /// its own track).
    fn level(self) -> u8 {
        match self {
            Track::Harness(_) => 0,
            Track::Session(_) => 1,
            Track::DeltaMain => 2,
            Track::EngineRun => 3,
            Track::DeltaWorker(_) | Track::EngineWorker(_) => 4,
        }
    }

    /// `(pid, tid)` in the Chrome trace file.
    fn chrome_ids(self) -> (u32, u32) {
        match self {
            Track::Harness(t) => (0, t),
            Track::EngineWorker(t) => (1, t),
            Track::EngineRun => (1, 1000),
            Track::DeltaMain => (3, 0),
            Track::DeltaWorker(t) => (3, t),
            Track::Session(t) => (4, t),
        }
    }
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The recorder's category, `"harness"` for harness spans.
    pub cat: &'static str,
    pub track: Track,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one request; 0 = outside any op.
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

// ---------------------------------------------------------------------
// harness side
// ---------------------------------------------------------------------

/// The spans of one harness thread, kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: u64,
}

impl SpanLog {
    /// `epoch` is shared by every log of a run; `thread` names the
    /// track and keeps op ids of different threads apart.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        SpanLog { epoch, thread, spans: Vec::new(), stack: Vec::new(), ops: 0 }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    /// Open a span; a span opened with none open starts a new op.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.ops += 1;
                ((self.thread as u64 + 1) << 40) | self.ops
            }
        };
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name,
            cat: "harness",
            track: Track::Harness(self.thread),
            start_us: now,
            end_us: now,
            parent,
            op,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_us();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = now;
    }
}

// ---------------------------------------------------------------------
// recorder side
// ---------------------------------------------------------------------

/// Turns drained recorder events into spans as they arrive, so the raw
/// events need not be kept.
pub struct TraceBuilder {
    /// Tracer epoch minus harness epoch, in microseconds.
    offset_us: f64,
    spans: Vec<Span>,
    open: HashMap<Track, Vec<usize>>,
    /// Times of the engine's per-run `mode` instants.
    run_marks: Vec<f64>,
    /// Every event seen, instants and counters included.
    pub events: u64,
    /// `End` without a `Begin`, or a name mismatch: the ring dropped part
    /// of the span.
    pub torn: u64,
}

impl TraceBuilder {
    pub fn new(harness_epoch: Instant, tracer_epoch_lo: Instant, tracer_epoch_hi: Instant) -> Self {
        let mid = tracer_epoch_lo + (tracer_epoch_hi - tracer_epoch_lo) / 2;
        let offset_us = mid.saturating_duration_since(harness_epoch).as_nanos() as f64 / 1e3
            - harness_epoch.saturating_duration_since(mid).as_nanos() as f64 / 1e3;
        TraceBuilder {
            offset_us,
            spans: Vec::new(),
            open: HashMap::new(),
            run_marks: Vec::new(),
            events: 0,
            torn: 0,
        }
    }

    pub fn feed(&mut self, events: &[RecEvent]) {
        for e in events {
            self.events += 1;
            let track = match (e.lane, e.tid) {
                (Lane::Engine, t) => Track::EngineWorker(t),
                (Lane::Delta, 0) => Track::DeltaMain,
                (Lane::Delta, t) => Track::DeltaWorker(t),
                (Lane::Session, t) => Track::Session(t),
                (Lane::Sim | Lane::Other, _) => continue,
            };
            let t = e.ts_us as f64 + self.offset_us;
            match e.mark {
                Mark::Begin => {
                    let stack = self.open.entry(track).or_default();
                    let id = self.spans.len();
                    self.spans.push(Span {
                        name: e.name,
                        cat: e.cat,
                        track,
                        start_us: t,
                        end_us: f64::NAN,
                        parent: stack.last().copied(),
                        op: 0,
                    });
                    stack.push(id);
                }
                Mark::End => match self.open.get_mut(&track).and_then(|s| s.pop()) {
                    Some(id) if self.spans[id].name == e.name => self.spans[id].end_us = t,
                    _ => self.torn += 1,
                },
                Mark::Instant if e.lane == Lane::Engine && e.name == "mode" => {
                    self.run_marks.push(t)
                }
                Mark::Instant | Mark::Counter => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// the merged trace
// ---------------------------------------------------------------------

/// Where an instant of op time is booked in the layer table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bucket {
    CoreEval,
    CoreMessaging,
    DeltaGraph,
    Session,
    Snapshot,
    Balance,
    Residual,
}

impl Bucket {
    pub const ALL: [Bucket; 7] = [
        Bucket::CoreEval,
        Bucket::CoreMessaging,
        Bucket::DeltaGraph,
        Bucket::Session,
        Bucket::Snapshot,
        Bucket::Balance,
        Bucket::Residual,
    ];

    /// The `share.*` metric this bucket is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Bucket::CoreEval => "share.core_eval",
            Bucket::CoreMessaging => "share.core_messaging",
            Bucket::DeltaGraph => "share.delta_graph",
            Bucket::Session => "share.session",
            Bucket::Snapshot => "share.snapshot",
            Bucket::Balance => "share.balance",
            Bucket::Residual => "share.residual",
        }
    }
}

fn bucket_of(s: &Span) -> Bucket {
    match s.track {
        Track::Harness(_) => match s.name {
            "session.checkpoint" | "session.restore" => Bucket::Snapshot,
            "session.rebalance" => Bucket::Balance,
            n if n.starts_with("session.") => Bucket::Session,
            // Root `op.*` spans (harness glue between layer calls) and
            // `core.run` (thread start-up before the run's `mode` mark,
            // assembly after its last round).
            _ => Bucket::Residual,
        },
        Track::EngineWorker(_) | Track::EngineRun => match s.name {
            "eval0" | "inceval" => Bucket::CoreEval,
            // `round` self time (policy decision, inbox locks), `route`,
            // `drain`, and run time no worker spent in a round.
            _ => Bucket::CoreMessaging,
        },
        Track::Session(_) => match s.name {
            "checkpoint" | "restore" => Bucket::Snapshot,
            "rebalance" => Bucket::Balance,
            _ => Bucket::Session,
        },
        Track::DeltaMain | Track::DeltaWorker(_) => {
            if s.cat == "balance" {
                Bucket::Balance
            } else {
                Bucket::DeltaGraph
            }
        }
    }
}

/// Length of the union of `[start, end)` intervals (sorted in place).
fn union_len(iv: &mut [(f64, f64)]) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in iv.iter() {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = ce.max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The layer table of a set of ops.
#[derive(Clone, Debug, Default)]
pub struct LayerTable {
    /// Number of ops (root harness spans) covered.
    pub ops: usize,
    /// Their summed wall time.
    pub wall_us: f64,
    /// Wall time booked per bucket; sums to `wall_us`.
    pub booked_us: HashMap<Bucket, f64>,
    /// Wall time during which the innermost active span was a harness
    /// span — the program emitted nothing finer there.
    pub unattributed_us: f64,
}

impl LayerTable {
    pub fn share(&self, b: Bucket) -> f64 {
        if self.wall_us > 0.0 {
            self.booked_us.get(&b).copied().unwrap_or(0.0) / self.wall_us
        } else {
            0.0
        }
    }
}

/// Every span of a traced run, harness and recorder side, linked.
pub struct Trace {
    pub spans: Vec<Span>,
    /// Recorder events consumed (instants and counters included).
    pub events: u64,
    /// Recorder spans torn by ring overwrite.
    pub torn: u64,
}

impl Trace {
    /// Merge harness logs with the recorder's spans. Recorder spans hang
    /// below the spans of `owner`, the harness thread that drives the
    /// traced session or engine.
    pub fn assemble(logs: Vec<SpanLog>, owner: u32, rec: Option<TraceBuilder>) -> Trace {
        let mut spans: Vec<Span> = Vec::new();
        for log in logs {
            assert!(log.stack.is_empty(), "harness span left open");
            let base = spans.len();
            spans.extend(log.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        let (mut events, mut torn) = (0, 0);
        if let Some(mut rec) = rec {
            events = rec.events;
            // A span still open when the run ended was cut by the drain.
            torn = rec.torn + rec.open.values().map(|s| s.len() as u64).sum::<u64>();
            let base = spans.len();
            let mut keep: Vec<Option<usize>> = Vec::with_capacity(rec.spans.len());
            let mut kept = 0;
            for s in &rec.spans {
                keep.push(if s.end_us.is_nan() {
                    None
                } else {
                    kept += 1;
                    Some(base + kept - 1)
                });
            }
            for s in rec.spans.drain(..).filter(|s| !s.end_us.is_nan()) {
                let parent = s.parent.and_then(|p| keep[p]);
                spans.push(Span { parent, ..s });
            }
            let runs = engine_runs(&spans[base..], &mut rec.run_marks);
            spans.extend(runs);
        }
        let mut t = Trace { spans, events, torn };
        t.link(owner);
        t
    }

    /// Give every track-root recorder span its cross-track parent (the
    /// innermost span of the owner's call chain that contains its start)
    /// and every span its op.
    fn link(&mut self, owner: u32) {
        // Harness timestamps are exact and recorder ones are floored to
        // a microsecond against an epoch known to a fraction of one, so
        // for the containment test harness spans are widened by this
        // much; children are then clamped into their parents.
        const SLACK_US: f64 = 1.5;
        let n = self.spans.len();
        let key = |s: &Span| match s.track {
            Track::Harness(_) => s.start_us - SLACK_US,
            _ => s.start_us,
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&self.spans[a], &self.spans[b]);
            key(sa)
                .total_cmp(&key(sb))
                .then(sa.track.level().cmp(&sb.track.level()))
                .then(sb.end_us.total_cmp(&sa.end_us))
        });
        let mut chain: Vec<usize> = Vec::new();
        for &i in &order {
            let (start, level, track) = {
                let s = &self.spans[i];
                (s.start_us, s.track.level(), s.track)
            };
            while let Some(&top) = chain.last() {
                let t = &self.spans[top];
                let end = if t.track.level() == 0 { t.end_us + SLACK_US } else { t.end_us };
                if end <= start {
                    chain.pop();
                } else {
                    break;
                }
            }
            if level > 0 && self.spans[i].parent.is_none() {
                let parent =
                    chain.iter().rev().copied().find(|&c| self.spans[c].track.level() < level);
                if let Some(p) = parent {
                    let (ps, pe) = (self.spans[p].start_us, self.spans[p].end_us);
                    let s = &mut self.spans[i];
                    s.parent = Some(p);
                    s.start_us = s.start_us.clamp(ps, pe);
                    s.end_us = s.end_us.clamp(s.start_us, pe);
                }
            } else if let Some(p) = self.spans[i].parent {
                // Same-track nesting: keep the child inside a parent
                // that was itself clamped.
                let (ps, pe) = (self.spans[p].start_us, self.spans[p].end_us);
                let s = &mut self.spans[i];
                s.start_us = s.start_us.clamp(ps, pe);
                s.end_us = s.end_us.clamp(s.start_us, pe);
            }
            let on_chain = match track {
                Track::Harness(t) => t == owner,
                other => other.level() < 4,
            };
            if on_chain {
                chain.push(i);
            }
            if let Some(p) = self.spans[i].parent {
                self.spans[i].op = self.spans[p].op;
            }
        }
    }

    /// Indices of the root harness spans (one per op) whose name passes
    /// `pick`.
    pub fn roots(&self, pick: impl Fn(&str) -> bool) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| {
                let s = &self.spans[i];
                matches!(s.track, Track::Harness(_)) && s.parent.is_none() && pick(s.name)
            })
            .collect()
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                ch[p].push(i);
            }
        }
        ch
    }

    /// Self time of every span: duration minus the part of the interval
    /// its children cover (children on parallel tracks count once).
    pub fn self_times_us(&self) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(f64, f64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_us.max(s.start_us), c.end_us.min(s.end_us))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                (s.dur_us() - union_len(&mut iv)).max(0.0)
            })
            .collect()
    }

    /// Summed self time (µs) of the non-harness spans named `name`
    /// within the ops rooted at `roots`, or `None` when the recorder
    /// emitted no such span there.
    pub fn self_us_of(&self, name: &str, roots: &[usize], self_us: &[f64]) -> Option<f64> {
        let ops: std::collections::HashSet<u64> = roots.iter().map(|&r| self.spans[r].op).collect();
        let mut total = None;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && !matches!(s.track, Track::Harness(_)) && ops.contains(&s.op) {
                *total.get_or_insert(0.0) += self_us[i];
            }
        }
        total
    }

    /// How many non-harness spans named `name` lie in the ops at `roots`.
    pub fn count_of(&self, name: &str, roots: &[usize]) -> usize {
        let ops: std::collections::HashSet<u64> = roots.iter().map(|&r| self.spans[r].op).collect();
        self.spans
            .iter()
            .filter(|s| {
                s.name == name && !matches!(s.track, Track::Harness(_)) && ops.contains(&s.op)
            })
            .count()
    }

    /// The layer table of the ops rooted at `roots`: at every instant of
    /// an op's wall time the innermost active spans (those with no
    /// active child) share that instant equally, each booking its part
    /// to its bucket — so the buckets sum to the wall time exactly.
    pub fn layer_table(&self, roots: &[usize]) -> LayerTable {
        let mut by_op: HashMap<u64, Vec<usize>> = HashMap::new();
        let wanted: HashMap<u64, usize> = roots.iter().map(|&r| (self.spans[r].op, r)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if wanted.contains_key(&s.op) {
                by_op.entry(s.op).or_default().push(i);
            }
        }
        let mut table = LayerTable { ops: roots.len(), ..Default::default() };
        let mut active_children = vec![0u32; self.spans.len()];
        for (op, members) in by_op {
            let root = wanted[&op];
            table.wall_us += self.spans[root].dur_us();
            // (time, is_start, span); ends sort before starts at a tie.
            let mut edges: Vec<(f64, bool, usize)> = Vec::with_capacity(members.len() * 2);
            for &i in &members {
                let s = &self.spans[i];
                if s.end_us > s.start_us {
                    edges.push((s.start_us, true, i));
                    edges.push((s.end_us, false, i));
                }
            }
            edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut active: Vec<usize> = Vec::new();
            let mut prev = f64::NAN;
            for (t, is_start, i) in edges {
                if !active.is_empty() && t > prev {
                    let leaves: Vec<usize> =
                        active.iter().copied().filter(|&a| active_children[a] == 0).collect();
                    let part = (t - prev) / leaves.len().max(1) as f64;
                    for l in leaves {
                        let s = &self.spans[l];
                        *table.booked_us.entry(bucket_of(s)).or_default() += part;
                        if matches!(s.track, Track::Harness(_)) {
                            table.unattributed_us += part;
                        }
                    }
                }
                prev = t;
                if is_start {
                    active.push(i);
                    if let Some(p) = self.spans[i].parent {
                        active_children[p] += 1;
                    }
                } else {
                    active.retain(|&a| a != i);
                    if let Some(p) = self.spans[i].parent {
                        active_children[p] -= 1;
                    }
                }
            }
        }
        table
    }

    /// Write (at most `max_spans` of) the trace as Chrome trace-event
    /// JSON: complete (`"X"`) events, one process per layer, with each
    /// span's op and parent in `args`.
    pub fn write_chrome(&self, path: &Path, max_spans: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        let names = [(0, "harness"), (1, "core (engine)"), (3, "delta + graph"), (4, "session")];
        for (k, (pid, name)) in names.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            )?;
        }
        for (i, s) in self.spans.iter().take(max_spans).enumerate() {
            let (pid, tid) = s.track.chrome_ids();
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                w,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.cat,
                s.start_us,
                s.dur_us(),
                s.op
            )?;
        }
        writeln!(
            w,
            "\n],\"otherData\":{{\"spans_total\":{},\"spans_written\":{}}}}}",
            self.spans.len(),
            self.spans.len().min(max_spans)
        )?;
        w.flush()
    }
}

/// One synthetic `engine_run` span per `mode` mark that is followed by
/// rounds: from the mark to the end of the last round before the next.
fn engine_runs(rec_spans: &[Span], marks: &mut [f64]) -> Vec<Span> {
    marks.sort_by(f64::total_cmp);
    let mut rounds: Vec<(f64, f64)> = rec_spans
        .iter()
        .filter(|s| s.name == "round" && matches!(s.track, Track::EngineWorker(_)))
        .map(|s| (s.start_us, s.end_us))
        .collect();
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = Vec::new();
    let mut r = 0;
    for (k, &mark) in marks.iter().enumerate() {
        let next = marks.get(k + 1).copied().unwrap_or(f64::INFINITY);
        while r < rounds.len() && rounds[r].0 < mark {
            r += 1;
        }
        let mut end = f64::NAN;
        while r < rounds.len() && rounds[r].0 < next {
            end = end.max(rounds[r].1);
            r += 1;
        }
        if !end.is_nan() {
            out.push(Span {
                name: "engine_run",
                cat: "synthetic",
                track: Track::EngineRun,
                start_us: mark,
                end_us: end,
                parent: None,
                op: 0,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        track: Track,
        start: f64,
        end: f64,
        parent: Option<usize>,
        op: u64,
    ) -> Span {
        Span { name, cat: "t", track, start_us: start, end_us: end, parent, op }
    }

    /// op 1: harness root 0..100 wrapping `core.run` 10..90; an engine
    /// run 12..88 with two workers: w0 rounds 12..50 (eval0 12..40, route
    /// 40..50), w1 round 12..80 (eval0 12..80). op 2: a bare root.
    fn fixture() -> Trace {
        let h = Track::Harness(0);
        let spans = vec![
            span("op.sssp", h, 0.0, 100.0, None, 1),
            span("core.run", h, 10.0, 90.0, Some(0), 1),
            span("engine_run", Track::EngineRun, 12.0, 88.0, None, 0),
            span("round", Track::EngineWorker(0), 12.0, 50.0, None, 0),
            span("eval0", Track::EngineWorker(0), 12.0, 40.0, Some(3), 0),
            span("route", Track::EngineWorker(0), 40.0, 50.0, Some(3), 0),
            span("round", Track::EngineWorker(1), 12.0, 80.0, None, 0),
            span("eval0", Track::EngineWorker(1), 12.0, 80.0, Some(6), 0),
            span("op.cc", h, 200.0, 230.0, None, 2),
        ];
        let mut t = Trace { spans, events: 0, torn: 0 };
        t.link(0);
        t
    }

    #[test]
    fn linking_nests_by_op_id_across_tracks() {
        let t = fixture();
        assert_eq!(t.spans[2].parent, Some(1), "engine run hangs below core.run");
        assert_eq!(t.spans[3].parent, Some(2), "worker round hangs below the engine run");
        assert_eq!(t.spans[6].parent, Some(2));
        assert!(t.spans[..8].iter().all(|s| s.op == 1));
        assert_eq!(t.spans[8].op, 2);
        assert_eq!(t.roots(|n| n.starts_with("op.")), vec![0, 8]);
        assert_eq!(t.roots(|n| n == "op.cc"), vec![8]);
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let t = fixture();
        let st = t.self_times_us();
        assert_eq!(st[0], 20.0); // 100 - core.run's 80
        assert_eq!(st[1], 4.0); // 80 - engine run's 76
        assert_eq!(st[2], 8.0); // 76 - union(12..50, 12..80) = 76 - 68
        assert_eq!(st[3], 0.0); // round fully covered by eval0 + route
        assert_eq!(st[4], 28.0);
        assert_eq!(st[7], 68.0);
        assert_eq!(st[8], 30.0);
        assert_eq!(t.self_us_of("eval0", &[0], &st), Some(96.0));
        assert_eq!(t.self_us_of("eval0", &[8], &st), None);
        assert_eq!(t.self_us_of("drain", &[0], &st), None, "absent span, absent metric");
        assert_eq!(t.count_of("round", &[0]), 2);
    }

    #[test]
    fn layer_table_reconciles_with_wall_time() {
        let t = fixture();
        let table = t.layer_table(&[0]);
        assert_eq!(table.ops, 1);
        assert_eq!(table.wall_us, 100.0);
        let total: f64 = table.booked_us.values().sum();
        assert!((total - table.wall_us).abs() < 1e-9, "{total}");
        // 12..40 both workers in eval0 (28); 40..50 eval0 | route split
        // (5 + 5); 50..80 eval0 alone (30): eval 63, messaging 5 + 8 idle.
        assert!((table.booked_us[&Bucket::CoreEval] - 63.0).abs() < 1e-9);
        assert!((table.booked_us[&Bucket::CoreMessaging] - 13.0).abs() < 1e-9);
        // Harness glue: 0..10, 90..100 (root) and 10..12, 88..90 (core.run).
        assert!((table.booked_us[&Bucket::Residual] - 24.0).abs() < 1e-9);
        assert!((table.unattributed_us - 24.0).abs() < 1e-9);
        let shares: f64 = Bucket::ALL.iter().map(|&b| table.share(b)).sum();
        assert!((shares - 1.0).abs() < 1e-12);
        // Both ops together: the bare root is all residual.
        let both = t.layer_table(&[0, 8]);
        assert_eq!(both.wall_us, 130.0);
        assert!((both.booked_us[&Bucket::Residual] - 54.0).abs() < 1e-9);
        assert!((both.booked_us.values().sum::<f64>() - 130.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_events_become_spans_on_the_harness_clock() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 0);
        let root = log.enter("op.apply");
        let call = log.enter("session.apply");
        std::thread::sleep(std::time::Duration::from_millis(3));
        log.exit(call);
        log.exit(root);
        let (s, e) = (log.spans[call].start_us, log.spans[call].end_us);
        // The recorder's clock started 500 us before the harness's.
        let ev =
            |name, mark, ts_us, lane, tid| RecEvent { name, cat: "apply", mark, ts_us, lane, tid };
        let at = |t: f64| (t + 500.0) as u64;
        let tracer_epoch = epoch - std::time::Duration::from_micros(500);
        let mut b = TraceBuilder::new(epoch, tracer_epoch, tracer_epoch);
        b.feed(&[
            // Floored timestamps may precede the harness span by < 1 us.
            ev("apply", Mark::Begin, at(s), Lane::Session, 0),
            ev("apply_delta", Mark::Begin, at(s + 100.0), Lane::Delta, 0),
            ev("repack", Mark::Begin, at(s + 200.0), Lane::Delta, 2),
            ev("strategy", Mark::Instant, at(s + 250.0), Lane::Delta, 0),
            ev("repack", Mark::End, at(s + 900.0), Lane::Delta, 2),
            ev("apply_delta", Mark::End, at(s + 1000.0), Lane::Delta, 0),
            ev("apply", Mark::End, at(e - 1.0), Lane::Session, 0),
            ev("stray", Mark::End, at(e), Lane::Session, 0),
        ]);
        assert_eq!((b.events, b.torn), (8, 1));
        let t = Trace::assemble(vec![log], 0, Some(b));
        let by_name = |n: &str| t.spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(t.spans[by_name("apply")].parent, Some(by_name("session.apply")));
        assert_eq!(t.spans[by_name("apply_delta")].parent, Some(by_name("apply")));
        assert_eq!(t.spans[by_name("repack")].parent, Some(by_name("apply_delta")));
        let op = t.spans[by_name("op.apply")].op;
        assert!(op != 0 && t.spans.iter().all(|s| s.op == op));
        assert!(t.spans[by_name("apply")].start_us >= s);
        let table = t.layer_table(&t.roots(|_| true));
        let booked: f64 = table.booked_us.values().sum();
        assert!((booked - table.wall_us).abs() < 1e-6);
        assert!((table.booked_us[&Bucket::DeltaGraph] - 900.0).abs() < 2.0);
    }

    #[test]
    fn engine_runs_span_mark_to_last_round() {
        let w = Track::EngineWorker;
        let rounds = vec![
            span("round", w(0), 10.0, 20.0, None, 0),
            span("round", w(1), 11.0, 35.0, None, 0),
            span("round", w(0), 60.0, 70.0, None, 0),
        ];
        let runs = engine_runs(&rounds, &mut [50.0, 5.0, 90.0]);
        let got: Vec<(f64, f64)> = runs.iter().map(|s| (s.start_us, s.end_us)).collect();
        assert_eq!(got, vec![(5.0, 35.0), (50.0, 70.0)], "a mark without rounds makes no span");
    }
}
