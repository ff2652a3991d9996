//! Per-worker timelines, ASCII Gantt rendering for the timing-diagram
//! figures (Fig 1(a), Fig 7), and export to the Chrome trace-event
//! format so simulated runs open in the same viewer as wall-clock ones.

use aap_core::policy::{decision_args, Decision, DeltaInputs};
use aap_trace::{cat, pid, Args, Phase, TraceEvent};

/// What a worker was doing during a span of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Executing PEval/IncEval.
    Compute,
    /// Deliberately suspended by the δ policy (delay stretch).
    Suspend,
}

/// One contiguous activity interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Start time (virtual units).
    pub start: f64,
    /// End time.
    pub end: f64,
    /// The round being executed (for `Compute` spans).
    pub round: u32,
    /// Work units the round's PEval/IncEval charged (`UpdateCtx::work`;
    /// 0 for `Suspend` spans).
    pub work: u64,
    /// Updates the round's PEval/IncEval sent (`UpdateCtx::len`; 0 for
    /// `Suspend` spans).
    pub sent: u64,
    /// Activity kind.
    pub kind: SpanKind,
}

/// One δ evaluation of a worker.
#[derive(Debug, Clone, Copy)]
pub struct Decided {
    /// Virtual time of the evaluation.
    pub at: f64,
    /// δ's verdict.
    pub decision: Decision,
    /// The inputs it was reached on.
    pub seen: DeltaInputs,
}

/// Activity history of one worker.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Spans in chronological order.
    pub spans: Vec<Span>,
    /// δ evaluations in chronological order; recorded only while the
    /// simulator has a tracer attached.
    pub decisions: Vec<Decided>,
}

impl Timeline {
    /// Total computing time.
    pub fn compute_time(&self) -> f64 {
        self.spans.iter().filter(|s| s.kind == SpanKind::Compute).map(|s| s.end - s.start).sum()
    }

    /// Number of compute rounds recorded.
    pub fn rounds(&self) -> usize {
        self.spans.iter().filter(|s| s.kind == SpanKind::Compute).count()
    }
}

/// Render timelines as an ASCII Gantt chart, one row per worker:
/// `#` compute, `.` suspend, ` ` idle. Time is scaled to `width` columns.
///
/// This is the textual reproduction of the paper's Fig 1(a) / Fig 7 panels.
pub fn render_gantt(timelines: &[Timeline], width: usize) -> String {
    let end = timelines
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.end))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let scale = width as f64 / end;
    let mut out = String::new();
    for (w, t) in timelines.iter().enumerate() {
        let mut row = vec![' '; width];
        for s in &t.spans {
            let a = ((s.start * scale) as usize).min(width.saturating_sub(1));
            // A span paints at least one cell past `a`, capped at the row
            // width (which may be 0 — degenerate but must not panic).
            let b = ((s.end * scale).ceil() as usize).max(a + 1).min(width);
            let ch = match s.kind {
                SpanKind::Compute => {
                    // Alternate glyphs by round parity so adjacent rounds are
                    // distinguishable.
                    if s.round % 2 == 0 {
                        '#'
                    } else {
                        '='
                    }
                }
                SpanKind::Suspend => '.',
            };
            for c in row.iter_mut().take(b).skip(a) {
                *c = ch;
            }
        }
        out.push_str(&format!("P{w:<3}|"));
        out.extend(row);
        out.push('|');
        out.push('\n');
    }
    out.push_str(&format!("     0{:>width$.1}\n", end, width = width.saturating_sub(1)));
    out
}

/// One virtual time unit maps to this many trace microseconds, so a
/// simulated run spreads legibly in a viewer that thinks in µs.
pub const TRACE_US_PER_UNIT: f64 = 1000.0;

/// Export per-worker timelines as Chrome trace events on the
/// [`pid::SIM`] tracks (one `tid` per worker, timestamps in **virtual**
/// microseconds — [`TRACE_US_PER_UNIT`] per unit).
///
/// Compute spans become `round`-category spans carrying the round
/// number and, on their end event, the kernel `work` charged and the
/// updates `sent` — the same args the threaded engine puts on its
/// `eval0`/`inceval` spans; policy suspensions become `policy`-category
/// spans, and recorded δ evaluations `decision` instants with the
/// threaded engine's args. Feed the result to
/// [`aap_trace::chrome_trace_json`] — or into an enabled
/// [`aap_trace::Tracer`] via `emit` to merge with wall-clock tracks — and
/// the simulated schedule opens in Perfetto next to real runs.
pub fn timeline_to_trace(timelines: &[Timeline]) -> Vec<TraceEvent> {
    let len = timelines.iter().map(|t| 2 * t.spans.len() + t.decisions.len()).sum();
    let mut out = Vec::with_capacity(len);
    for (w, t) in timelines.iter().enumerate() {
        let track = out.len();
        for s in &t.spans {
            let (name, category) = match s.kind {
                SpanKind::Compute => ("compute", cat::ROUND),
                SpanKind::Suspend => ("suspend", cat::POLICY),
            };
            let ts0 = (s.start * TRACE_US_PER_UNIT).round() as u64;
            let ts1 = ((s.end * TRACE_US_PER_UNIT).round() as u64).max(ts0);
            out.push(TraceEvent {
                name,
                cat: category,
                ph: Phase::Begin,
                ts_us: ts0,
                pid: pid::SIM,
                tid: w as u32,
                args: Args::new().with("round", s.round).with("virt_start", s.start),
            });
            out.push(TraceEvent {
                name,
                cat: category,
                ph: Phase::End,
                ts_us: ts1,
                pid: pid::SIM,
                tid: w as u32,
                args: match s.kind {
                    SpanKind::Compute => Args::new()
                        .with("virt_end", s.end)
                        .with("work", s.work)
                        .with("sent", s.sent),
                    SpanKind::Suspend => Args::new().with("virt_end", s.end),
                },
            });
        }
        for d in &t.decisions {
            out.push(TraceEvent {
                name: "decision",
                cat: cat::POLICY,
                ph: Phase::Instant,
                ts_us: (d.at * TRACE_US_PER_UNIT).round() as u64,
                pid: pid::SIM,
                tid: w as u32,
                args: decision_args(d.decision, &d.seen),
            });
        }
        // Spans are already chronological; the stable sort slots each
        // decision in after the span events of its instant.
        out[track..].sort_by_key(|e| e.ts_us);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, round: u32, kind: SpanKind) -> Span {
        Span { start, end, round, work: 7, sent: 2, kind }
    }

    #[test]
    fn gantt_renders_rows() {
        let t = vec![
            Timeline {
                spans: vec![
                    span(0.0, 3.0, 0, SpanKind::Compute),
                    span(3.0, 4.0, 0, SpanKind::Suspend),
                    span(4.0, 7.0, 1, SpanKind::Compute),
                ],
                ..Timeline::default()
            },
            Timeline { spans: vec![span(0.0, 6.0, 0, SpanKind::Compute)], ..Timeline::default() },
        ];
        let s = render_gantt(&t, 40);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains('#'));
        assert!(s.contains('.'));
        assert!(s.contains('='));
    }

    #[test]
    fn gantt_handles_empty_timelines() {
        // No timelines at all: just the axis line, no panic.
        let s = render_gantt(&[], 20);
        assert_eq!(s.lines().count(), 1);
        assert!(s.starts_with("     0"));
        // A worker that never ran renders as a blank row.
        let s = render_gantt(&[Timeline::default()], 10);
        assert_eq!(s.lines().count(), 2);
        assert!(s.lines().next().unwrap().contains("P0"));
        assert!(!s.contains('#'));
    }

    #[test]
    fn gantt_handles_zero_width() {
        // Degenerate width must not underflow or panic the span clamp.
        let t = vec![Timeline {
            spans: vec![span(0.0, 3.0, 0, SpanKind::Compute)],
            ..Timeline::default()
        }];
        let s = render_gantt(&t, 0);
        assert_eq!(s.lines().count(), 2);
        assert!(!s.contains('#'), "no cells to paint at width 0");
        let s1 = render_gantt(&t, 1);
        assert!(s1.contains('#'), "one cell is enough to paint");
    }

    #[test]
    fn timeline_to_trace_exports_balanced_virtual_spans() {
        use aap_trace::ArgVal;
        let t = vec![
            Timeline {
                spans: vec![
                    span(0.0, 3.0, 0, SpanKind::Compute),
                    span(3.0, 4.5, 0, SpanKind::Suspend),
                    span(4.5, 7.0, 1, SpanKind::Compute),
                ],
                ..Timeline::default()
            },
            Timeline { spans: vec![span(0.0, 6.0, 0, SpanKind::Compute)], ..Timeline::default() },
        ];
        let evs = timeline_to_trace(&t);
        assert_eq!(evs.len(), 8, "one B and one E per span");
        assert!(evs.iter().all(|e| e.pid == pid::SIM));
        // Per track: balanced, monotone, virtual-µs scaled.
        for tid in 0..2u32 {
            let track: Vec<_> = evs.iter().filter(|e| e.tid == tid).collect();
            let mut depth = 0i32;
            let mut last = 0u64;
            for e in &track {
                match e.ph {
                    Phase::Begin => depth += 1,
                    Phase::End => depth -= 1,
                    _ => unreachable!("timeline export emits only spans"),
                }
                assert!(depth >= 0);
                assert!(e.ts_us >= last, "timestamps must be monotone per track");
                last = e.ts_us;
            }
            assert_eq!(depth, 0, "every span must close");
        }
        assert_eq!(evs[1].ts_us, 3_000, "end of [0,3) at 1000 µs per unit");
        assert_eq!(evs[2].name, "suspend");
        assert_eq!(evs[4].args.get("round"), Some(ArgVal::Uint(1)));
        // Compute end events carry the round's kernel work and send count.
        assert_eq!(evs[1].args.get("work"), Some(ArgVal::Uint(7)));
        assert_eq!(evs[1].args.get("sent"), Some(ArgVal::Uint(2)));
        assert_eq!(evs[3].args.get("work"), None, "suspend spans do no work");
        assert_eq!(timeline_to_trace(&[]).len(), 0);
    }

    #[test]
    fn compute_time_sums_spans() {
        let t = Timeline {
            spans: vec![
                span(0.0, 3.0, 0, SpanKind::Compute),
                span(5.0, 6.0, 1, SpanKind::Compute),
                span(3.0, 5.0, 0, SpanKind::Suspend),
            ],
            ..Timeline::default()
        };
        assert!((t.compute_time() - 4.0).abs() < 1e-12);
        assert_eq!(t.rounds(), 2);
    }
}
