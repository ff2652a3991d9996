//! `stream_apply`: a closed loop of delta batches on a durable session,
//! one client.
//!
//! SSSP and CC are retained; batches of 0.1 % of the edges arrive in a
//! fixed pattern of three insert-only batches (warm-decrease) to one
//! batch of removals and weight increases (warm-increase or cold), the
//! first of every four confined to fragment 0's vertices; a foreground
//! differential checkpoint every 8 applies, a rebalance every 32, and at
//! the end five restore + first-query round trips. The write path —
//! delta plan, repack, state remap, warm `inceval`, publish, checkpoint
//! I/O — does the work; cold evaluation none.

use super::{
    peak_rss_mb, put_core_self_ms, put_layer_table, put_median, put_percentile, put_self_ms,
    set_up_repeatedly, timed, Ctx, Outcome, Recording, Spans, Tally, FRAGMENTS,
};
use crate::adapter::{self, Delta, Serving, ServingCfg, TraceTap};
use crate::loadgen::Rng;
use crate::metrics::Values;
use crate::mirror::Mirror;
use crate::spans::Trace;
use std::path::{Path, PathBuf};
use std::time::Instant;

const CHECKPOINT_EVERY: usize = 8;
const REBALANCE_EVERY: usize = 32;
/// The epoch chain is rewritten as one full baseline at this length.
const COMPACT_AFTER: u64 = 4;
/// Every restore resolves a chain of this many epochs and then replays
/// this many applies: the untimed tail brings the session there.
const RESTORE_CHAIN: usize = 2;
const TAIL_APPLIES: usize = 4;
const RESTORES: usize = 5;
/// Weight increases riding on each removal batch.
const INCREASES: usize = 128;
/// Rebalance once the load ratio passes this (hash partitions of the
/// power-law graph start near 1.06).
const MAX_IMBALANCE: f64 = 1.02;

fn scale(smoke: bool) -> u32 {
    if smoke {
        10
    } else {
        16
    }
}

struct Setup {
    session: Serving,
    tap: Option<TraceTap>,
    g: adapter::Graph,
    dir: PathBuf,
    generate_ms: f64,
    open_ms: f64,
    total_s: f64,
}

fn cfg(ctx: &Ctx, dir: &Path) -> ServingCfg {
    ServingCfg {
        fragments: FRAGMENTS,
        threads: ctx.threads,
        with_cc: true,
        durable_dir: Some(dir.to_path_buf()),
        compact_after: COMPACT_AFTER,
        balance_max_imbalance: Some(MAX_IMBALANCE),
        answer_cache: None,
        trace_capacity: ctx.traced.then_some(1 << 18),
    }
}

/// The retained SSSP source: the vertex of highest out-degree.
fn hub(g: &adapter::Graph) -> u32 {
    let d = adapter::degrees(g);
    (0..d.len() as u32).max_by_key(|&v| (d[v as usize], std::cmp::Reverse(v))).unwrap_or(0)
}

/// Generate, open durable (partition + build + first snapshot), retain
/// SSSP and CC.
fn set_up(ctx: &Ctx, k: usize) -> Result<Setup, String> {
    let dir = ctx.scratch.join(format!("stream-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let (g, generate_ms) = timed(|| adapter::gen_rmat(scale(ctx.smoke), 16, ctx.seed));
    let src = hub(&g);
    // The harness keeps its own copy for the mirror and the oracle.
    let copy = g.clone();
    let (opened, open_ms) = timed(|| Serving::open(copy, &cfg(ctx, &dir)));
    let (mut session, tap) = opened?;
    session.query_sssp(src)?;
    session.query_cc()?;
    Ok(Setup { session, tap, g, dir, generate_ms, open_ms, total_s: t0.elapsed().as_secs_f64() })
}

/// Bytes in the directory's delta logs right now.
fn log_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".dlog"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The batch stream: builds each delta from the mirror, off the clock.
struct Stream {
    mirror: Mirror,
    /// Fragment 0's vertices under the initial hash partition.
    local: Vec<u32>,
    batch: usize,
    /// Copies inserted since the last removal batch; it removes as many.
    inserted: usize,
    rng: Rng,
    next: usize,
}

impl Stream {
    fn next_delta(&mut self) -> Delta {
        let i = self.next;
        self.next += 1;
        match i % 4 {
            3 => {
                let (removes, setw) =
                    self.mirror.remove_batch(self.inserted, INCREASES, &mut self.rng);
                self.inserted = 0;
                adapter::build_delta(&[], &removes, &setw)
            }
            k => {
                let pool = (k == 0).then_some(self.local.as_slice());
                let adds = self.mirror.insert_batch(self.batch, pool, &mut self.rng);
                self.inserted += adds.len();
                adapter::build_delta(&adds, &[], &[])
            }
        }
    }
}

/// The live session and everything the timed loop accumulates.
struct Live<'a> {
    ctx: &'a Ctx,
    session: Serving,
    recording: Recording,
    spans: Spans,
    stream: Stream,
    tally: Tally,
    applies: usize,
    /// Program advances by strategy, and updates shipped, over all applies.
    strategies: [u64; 3],
    updates: u64,
}

impl Live<'_> {
    /// Generate the next batch and apply it; its time and edit count.
    fn apply(&mut self) -> (f64, usize) {
        let delta = self.stream.next_delta();
        let session = &mut self.session;
        let (r, ms) = self.spans.op("op.apply", "session.apply", || session.apply(&delta));
        self.recording.drain();
        self.applies += 1;
        if let Some(info) = self.tally.op("apply", r) {
            self.strategies[0] += info.warm_decrease as u64;
            self.strategies[1] += info.warm_increase as u64;
            self.strategies[2] += info.cold as u64;
            self.updates += info.updates;
        }
        (ms, adapter::delta_len(&delta))
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut values = Values::default();
    let mut invalid = Vec::new();

    let Setup { mut session, tap, g, dir, .. } = set_up_repeatedly(
        ctx,
        &mut values,
        &[
            ("setup_s", |s: &Setup| s.total_s),
            ("graph.generate_ms", |s| s.generate_ms),
            ("session.open_ms", |s| s.open_ms),
        ],
        |k| set_up(ctx, k),
        |Setup { session, dir, .. }| {
            drop(session);
            let _ = std::fs::remove_dir_all(dir);
        },
    )?;

    let src = hub(&g);
    let assign = adapter::hash_assign(&g, FRAGMENTS);
    if ctx.traced {
        // The partition and build calls the open makes inside, timed
        // around the public functions themselves.
        let part: Vec<f64> =
            (0..3).map(|_| timed(|| adapter::hash_assign(&g, FRAGMENTS)).1).collect();
        put_median(&mut values, "graph.partition_ms", &part);
        let mut build = Vec::new();
        for _ in 0..3 {
            let (frags, ms) = timed(|| adapter::build_frags(&g, &assign, FRAGMENTS));
            build.push(ms);
            values.count("graph.border_ratio", adapter::border_ratio(&frags));
        }
        put_median(&mut values, "graph.build_fragments_ms", &build);
    }

    // Oracle at the start.
    let mut tally = Tally::default();
    tally.check(session.query_sssp(src)? == adapter::seq_dijkstra(&g, src), || {
        "SSSP differs from seq::dijkstra at the start".into()
    });
    tally.check(session.query_cc()? == adapter::seq_cc(&g), || {
        "CC differs from seq at the start".into()
    });
    let mirror = Mirror::of(&g);
    drop(g);

    let epoch = Instant::now();
    let mut live = Live {
        ctx,
        session,
        recording: Recording::new(tap, epoch),
        spans: Spans::new(ctx.traced, epoch, 0),
        stream: Stream {
            batch: (mirror.edge_copies() / 1000).max(8),
            mirror,
            local: (0..assign.len() as u32).filter(|&v| assign[v as usize] == 0).collect(),
            inserted: 0,
            rng: Rng::new(ctx.seed).fork(2),
            next: 0,
        },
        tally,
        applies: 0,
        strategies: [0; 3],
        updates: 0,
    };

    let (mut apply_ms, mut checkpoint_ms, mut rebalance_ms, mut plan_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut edits = 0usize;
    let mut durable_bytes = 0u64;
    let (mut written, mut skipped, mut compacted) = (0u64, 0u64, 0u64);
    let mut rebalances: Vec<adapter::RebalanceInfo> = Vec::new();
    let mut on_clock_ms = 0.0;
    // Whole groups of eight applies and their checkpoint, so every run
    // times the same mix.
    while on_clock_ms < ctx.seconds * 1e3 {
        for _ in 0..CHECKPOINT_EVERY {
            let (ms, n) = live.apply();
            apply_ms.push(ms);
            on_clock_ms += ms;
            edits += n;
        }
        durable_bytes += log_bytes(&dir);
        let session = &mut live.session;
        let (r, ms) = live.spans.op("op.checkpoint", "session.checkpoint", || session.checkpoint());
        live.recording.drain();
        if let Some(c) = live.tally.op("checkpoint", r) {
            checkpoint_ms.push(ms);
            on_clock_ms += ms;
            durable_bytes += c.bytes;
            written += c.fragments_written;
            skipped += c.fragments_skipped;
            compacted += c.log_records_compacted;
        }
        if live.applies.is_multiple_of(REBALANCE_EVERY) {
            plan_ms.push(timed(|| live.session.plan_migration()).1);
            let session = &mut live.session;
            let (r, ms) =
                live.spans.op("op.rebalance", "session.rebalance", || session.rebalance());
            live.recording.drain();
            if let Some(info) = live.tally.op("rebalance", r) {
                rebalance_ms.push(ms);
                on_clock_ms += ms;
                rebalances.push(info);
            }
        }
    }
    // Untimed tail: whatever the timed phase reached, every restore below
    // resolves the same chain length and replays the same number of applies.
    while live.session.chain_len() != RESTORE_CHAIN {
        live.apply();
        let r = live.session.checkpoint();
        live.tally.op("checkpoint", r);
        live.recording.drain();
    }
    for _ in 0..TAIL_APPLIES {
        live.apply();
    }

    // Oracle at the end, on the mirror.
    let mirrored = live.stream.mirror.to_graph();
    let live_sssp = live.session.query_sssp(src)?;
    let live_cc = live.session.query_cc()?;
    live.tally.check(live_sssp == adapter::seq_dijkstra(&mirrored, src), || {
        "SSSP differs from seq::dijkstra on the mirror at the end".into()
    });
    live.tally.check(live_cc == adapter::seq_cc(&mirrored), || {
        "CC differs from seq on the mirror at the end".into()
    });
    drop(mirrored);

    if ctx.traced {
        probes(&live, &mut values)?;
    }
    let Live { session, mut spans, recording, mut tally, applies, strategies, updates, .. } = live;
    drop(session);

    // Restore + first query; the restored outputs must equal the live ones.
    // (No recorder on these: the live session's tap has gone with it.)
    let restore_cfg = ServingCfg { trace_capacity: None, ..cfg(ctx, &dir) };
    let mut restore_s = Vec::new();
    for _ in 0..RESTORES {
        let root = spans.enter("op.restore");
        let t0 = Instant::now();
        let call = spans.enter("session.restore");
        let restored = Serving::restore(&dir, &restore_cfg);
        spans.exit(call);
        let call = spans.enter("session.query");
        let first = restored.and_then(|(mut s, _)| Ok((s.query_sssp(src)?, s)));
        spans.exit(call);
        let secs = t0.elapsed().as_secs_f64();
        spans.exit(root);
        if let Some((sssp, mut s)) = tally.op("restore", first) {
            restore_s.push(secs);
            tally.check(sssp == live_sssp, || "restored SSSP differs from the live one".into());
            tally.check(s.query_cc().ok().as_ref() == Some(&live_cc), || {
                "restored CC differs from the live one".into()
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    put_median(&mut values, "apply_p50_ms", &apply_ms);
    put_percentile(&mut values, &mut invalid, ctx.lenient(), "apply_p95_ms", &apply_ms, 0.95);
    values.set("delta_ops_per_s", edits as f64 / (on_clock_ms / 1e3), apply_ms.len());
    put_median(&mut values, "checkpoint_p50_ms", &checkpoint_ms);
    put_median(&mut values, "restore_s", &restore_s);
    values.set("process.peak_rss_mb", peak_rss_mb(), 1);

    let per = |x: u64, n: usize| x as f64 / n.max(1) as f64;
    values.count("algos.warm_updates_per_apply", per(updates, applies));
    values.count("algos.strategy_warm_decrease", per(strategies[0], applies));
    values.count("algos.strategy_warm_increase", per(strategies[1], applies));
    values.count("algos.strategy_cold", per(strategies[2], applies));
    values.count("delta.ops_per_batch", per(edits as u64, apply_ms.len()));
    values.count("snapshot.durable_bytes_per_op", per(durable_bytes, edits));
    values.count("snapshot.fragments_written", per(written, checkpoint_ms.len()));
    values.count("snapshot.fragments_skipped", per(skipped, checkpoint_ms.len()));
    values.count("snapshot.log_records_compacted", per(compacted, checkpoint_ms.len()));
    values.count("snapshot.replayed_applies", TAIL_APPLIES as f64);
    put_median(&mut values, "balance.rebalance_ms", &rebalance_ms);
    put_median(&mut values, "balance.plan_ms", &plan_ms);
    let mean = |f: fn(&adapter::RebalanceInfo) -> f64| {
        rebalances.iter().map(f).sum::<f64>() / rebalances.len().max(1) as f64
    };
    values.count("balance.vertices_migrated", mean(|r| r.vertices_migrated as f64));
    values.count("balance.migration_bytes", mean(|r| r.migration_bytes as f64));
    values.count("balance.fragments_repacked", mean(|r| r.fragments_repacked as f64));
    values.count("balance.imbalance_before", mean(|r| r.imbalance_before));
    values.count("balance.imbalance_after", mean(|r| r.imbalance_after));

    if ctx.traced {
        let trace = Trace::assemble(spans.0.take().into_iter().collect(), 0, recording.builder);
        put_layer_table(&mut values, &trace, recording.dropped);
        let self_us = trace.self_times_us();
        let applies = trace.roots(|n| n == "op.apply");
        for (name, span) in [
            ("graph.repack_self_ms", "repack"),
            ("graph.patch_self_ms", "patch"),
            ("delta.resolve_edit_self_ms", "resolve_edit"),
            ("delta.plan_invalidation_self_ms", "plan_invalidation"),
            ("session.apply_self_ms", "apply"),
        ] {
            put_self_ms(&mut values, name, &trace, &self_us, span, &applies);
        }
        put_core_self_ms(&mut values, &trace, &self_us, &applies);
        values.count(
            "graph.repacks_per_apply",
            trace.count_of("repack", &applies) as f64 / applies.len().max(1) as f64,
        );
        trace.write_chrome(&ctx.trace_path, 60_000).map_err(|e| e.to_string())?;
    }

    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, values, invalid })
}

/// Layer probes on a detached copy of the live session's fragments.
fn probes(live: &Live, values: &mut Values) -> Result<(), String> {
    let ctx = live.ctx;
    let reps = 3;
    let frags = live.session.clone_fragments();
    let (mut apply_ms, mut touched) = (Vec::new(), 0usize);
    for k in 0..reps {
        // An insert batch drawn like the stream's, applied to a copy
        // only: neither the session nor the mirror sees it.
        let mut rng = live.stream.rng.fork(100 + k as u64);
        let n = live.stream.mirror.vertices() as u64;
        let adds: Vec<(u32, u32, u32)> = (0..live.stream.batch)
            .map(|_| (rng.below(n) as u32, rng.below(n) as u32, 1 + rng.below(100) as u32))
            .filter(|(u, v, _)| u != v)
            .collect();
        let delta = adapter::build_delta(&adds, &[], &[]);
        let mut copy = frags.clone();
        let (changed, ms) = timed(|| adapter::apply_to_frags(&mut copy, &delta, ctx.threads));
        apply_ms.push(ms);
        touched += changed;
    }
    put_median(values, "delta.apply_to_fragments_ms", &apply_ms);
    values.count("delta.fragments_touched_per_apply", touched as f64 / reps as f64);

    std::fs::create_dir_all(&ctx.scratch).map_err(|e| e.to_string())?;
    let path = ctx.scratch.join(format!("probe-{}.snap", std::process::id()));
    let (mut enc, mut save, mut load) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        enc.push(timed(|| adapter::snapshot_encode(&frags)).1);
        let (r, ms) = timed(|| adapter::snapshot_save(&path, &frags));
        r?;
        save.push(ms);
        let (r, ms) = timed(|| adapter::snapshot_load(&path));
        r?;
        load.push(ms);
    }
    let _ = std::fs::remove_file(&path);
    put_median(values, "snapshot.encode_ms", &enc);
    put_median(values, "snapshot.save_ms", &save);
    put_median(values, "snapshot.load_ms", &load);
    Ok(())
}
