//! The repo's wall-clock benchmark. See `perf/README.md` for the metric
//! dictionary and `BENCHMARK.json` for the gated metrics and bounds.
//!
//! ```text
//! cargo run --release --offline --manifest-path perf/Cargo.toml -- \
//!     [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--smoke]
//! ```
//!
//! One run of one workload prints one line of JSON as its last line of
//! standard output: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0` (tracing off), the per-layer
//! metrics with `--trace 1` (an untraced half, then a traced half).
//! Without `--trace` both are run, each in a process of its own. A table
//! with sample counts goes to standard error and
//! `perf/out/<workload>.trace<0|1>.report.json`.

mod adapter;
mod json;
mod loadgen;
mod metrics;
mod mirror;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::{Def, Value, Values, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{batch, serve, stream, Ctx, Outcome};

const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    /// `None`: the untraced run, then the traced one.
    trace: Option<bool>,
    repeat: Option<usize>,
    smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: grape-aap-perf [--workload {}|all] [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat N] [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String], default_seconds: f64) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: default_seconds,
        trace: None,
        repeat: None,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v != "all" {
                    let w = WORKLOADS.iter().find(|w| **w == v.as_str());
                    o.workloads =
                        vec![*w.ok_or_else(|| format!("unknown workload {v}\n{}", usage()))?];
                }
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--repeat" => o.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !(o.seconds.is_finite() && o.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if o.smoke && !seconds_given {
        o.seconds = 1.0;
    }
    Ok(o)
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "batch_powerlaw" => batch::run(&batch::powerlaw(ctx.smoke), ctx),
        "batch_road" => batch::run(&batch::road(ctx.smoke), ctx),
        "stream_apply" => stream::run(ctx),
        "serve_mixed" => serve::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One printed run: the gated or per-layer metrics of one workload.
struct Report {
    workload: &'static str,
    traced: bool,
    seed: u64,
    attempted: u64,
    failed: u64,
    invalid: Vec<String>,
    /// In dictionary order: definition, the workload's own name for it,
    /// and the value (absent when the workload has none).
    rows: Vec<Row>,
    /// Per-layer metrics the untraced run measured on the way; in the
    /// table and the report file, not in the result line.
    also: Vec<Row>,
}

type Row = (&'static Def, &'static str, Option<Value>);

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    /// The line the driver reads.
    fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|(d, _, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(d.name),
                    json::num(v.map_or(0.0, |v| v.v)),
                    json::quote(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn table(&self) -> String {
        let mut out = format!(
            "== {} seed {} {} — attempted {}, failed {}, fail_ratio {}\n",
            self.workload,
            self.seed,
            if self.traced { "traced (per-layer)" } else { "untraced (end-to-end)" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (d, native, v) in self.rows.iter().chain(&self.also) {
            let label = if *native == d.name {
                d.name.to_string()
            } else {
                format!("{} = {native}", d.name)
            };
            match v {
                Some(v) if v.n > 0 => {
                    out += &format!("  {label:<44} {:>16.4} {:<6} n={}\n", v.v, d.unit, v.n)
                }
                Some(v) => out += &format!("  {label:<44} {:>16.4} {}\n", v.v, d.unit),
                None => out += &format!("  {label:<44} {:>16} {}\n", "absent", d.unit),
            }
        }
        for why in &self.invalid {
            out += &format!("  INVALID: {why}\n");
        }
        out
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .chain(&self.also)
            .map(|(d, native, v)| {
                format!(
                    "{{\"name\": {}, \"native\": {}, \"unit\": {}, \"better\": {}, \"value\": {}, \
                     \"samples\": {}}}",
                    json::quote(d.name),
                    json::quote(native),
                    json::quote(d.unit),
                    json::quote(d.better),
                    v.map_or("null".into(), |v| json::num(v.v)),
                    v.map_or(0, |v| v.n)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"traced\": {}, \"seed\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"invalid\": [{}], \"metrics\": [\n    {}]}}",
            json::quote(self.workload),
            self.traced,
            self.seed,
            self.correct(),
            self.attempted,
            self.failed,
            self.invalid.iter().map(|s| json::quote(s)).collect::<Vec<_>>().join(", "),
            rows.join(",\n    ")
        )
    }
}

fn ctx_for(opts: &Opts, workload: &str, traced: bool, half: bool, setups: usize) -> Ctx {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    Ctx {
        seed: opts.seed,
        seconds: if half { opts.seconds / 2.0 } else { opts.seconds },
        traced,
        smoke: opts.smoke,
        half,
        threads: nproc.min(4),
        setups,
        scratch: Path::new(OUT_DIR).join("scratch"),
        trace_path: Path::new(OUT_DIR).join(format!("{workload}.trace.json")),
    }
}

/// The untraced run: every end-to-end metric, tracing off.
fn end_to_end(opts: &Opts, workload: &'static str) -> Result<Report, String> {
    let setups = if opts.smoke { 2 } else { SETUPS };
    let out = run_workload(workload, &ctx_for(opts, workload, false, false, setups))?;
    let rows: Vec<_> = END_TO_END
        .iter()
        .map(|d| {
            let (native, scale) = metrics::native(workload, d.name);
            (d, native, out.values.get(native).map(|v| Value { v: v.v * scale, n: v.n }))
        })
        .collect();
    // Whatever else the untraced run measured rides along, ungated.
    let also = PER_LAYER
        .iter()
        .filter_map(|d| out.values.get(d.name).map(|v| (d, d.name, Some(v))))
        .collect();
    Ok(Report {
        workload,
        traced: false,
        seed: opts.seed,
        attempted: out.attempted,
        failed: out.failed,
        invalid: out.invalid,
        rows,
        also,
    })
}

/// The traced run: half the time untraced, half traced, in one process;
/// the per-layer metrics come from the traced half and its probes, the
/// tracing overhead from the two halves' headline op medians.
fn per_layer(opts: &Opts, workload: &'static str) -> Result<Report, String> {
    let plain = run_workload(workload, &ctx_for(opts, workload, false, true, 1))?;
    let traced = run_workload(workload, &ctx_for(opts, workload, true, true, 1))?;
    let mut values: Values = traced.values;
    // Memory as the untraced half left it: the traced half adds the spans.
    if let Some(rss) = plain.values.get("process.peak_rss_mb") {
        values.set("process.peak_rss_mb", rss.v, rss.n);
    }
    let (headline, _) = metrics::native(workload, "op_p50_ms");
    if let (Some(t), Some(p)) = (values.get(headline), plain.values.get(headline)) {
        values.set("trace.overhead_ratio", t.v / p.v, t.n.min(p.n));
    }
    let rows = PER_LAYER.iter().map(|d| (d, d.name, values.get(d.name))).collect();
    let mut invalid = plain.invalid;
    invalid.extend(traced.invalid);
    Ok(Report {
        workload,
        traced: true,
        seed: opts.seed,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        invalid,
        rows,
        also: Vec::new(),
    })
}

/// nproc, CPU model and commit of the machine and tree that ran.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = std::fs::read_to_string(git.join("HEAD"))
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(git.join(r)).ok().map(|s| s.trim().to_string()),
            None => Some(head.trim().to_string()),
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"engine_threads\": {}, \"cpu\": {}, \"commit\": {}}}",
        nproc.min(4),
        json::quote(&cpu),
        json::quote(&commit)
    )
}

/// `perf/out/<workload>.trace<0|1>.report.json`: the table as JSON, with
/// sample counts and the machine fingerprint.
fn write_report(r: &Report) {
    let body = format!("{{\"machine\": {},\n \"run\": {}}}\n", fingerprint(), r.json());
    let name = format!("{}.trace{}.report.json", r.workload, r.traced as u8);
    let path = Path::new(OUT_DIR).join(name);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn benchmark_json() -> Option<Json> {
    let found = [PathBuf::from("BENCHMARK.json"), PathBuf::from(BENCHMARK_JSON)]
        .into_iter()
        .find_map(|p| std::fs::read_to_string(p).ok())?;
    json::parse(&found).ok()
}

/// The gated metrics of one child's result line, in dictionary order.
fn gated_values(line: &str) -> Result<(bool, Vec<f64>), String> {
    let j = json::parse(line).map_err(|e| format!("child printed no result: {e}"))?;
    let correct = j.get("correct") == Some(&Json::Bool(true));
    let values = END_TO_END
        .iter()
        .map(|d| {
            j.get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("child result lacks {}", d.name))
        })
        .collect::<Result<_, _>>()?;
    Ok((correct, values))
}

/// Run one workload in one mode in a process of its own — what the
/// driver does — and return the result line it printed. A fresh process
/// per run keeps `peak_rss_mb` and allocator state from leaking between
/// runs. The child is waited for; its table goes to our standard error.
fn child(opts: &Opts, workload: &str, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &opts.seed.to_string(), "--seconds", &opts.seconds.to_string()])
        .stderr(std::process::Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("could not start a run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.lines().last() {
        Some(line) if line.starts_with('{') => Ok(line.to_string()),
        _ => Err(format!("{workload} --trace {} printed no result ({})", traced as u8, out.status)),
    }
}

/// A/A mode: `n` untraced runs of the same binary per workload, each a
/// process of its own; per metric the median, quartiles and spread;
/// fails when a spread exceeds the metric's bound in `BENCHMARK.json`.
fn repeat(opts: &Opts, n: usize) -> Result<bool, String> {
    let bench = benchmark_json().ok_or("--repeat needs BENCHMARK.json for the bounds")?;
    let bound = |name: &str| -> f64 {
        bench
            .get("end_to_end")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|m| m.get("bound").and_then(Json::as_f64))
            .unwrap_or(0.10)
    };
    let mut ok = true;
    let mut summary = Vec::new();
    for &w in &opts.workloads {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for _ in 0..n {
            let (correct, values) = gated_values(&child(opts, w, false)?)?;
            ok &= correct;
            for (xs, v) in samples.iter_mut().zip(values) {
                xs.push(v);
            }
        }
        eprintln!("== {w}: {n} runs of the same binary, seed {}", opts.seed);
        for (d, xs) in END_TO_END.iter().zip(&samples) {
            let [q1, med, q3] = stats::quartiles(xs).ok_or("--repeat needs at least 2 runs")?;
            let spread = stats::spread(xs).unwrap_or(f64::INFINITY);
            let within = spread <= bound(d.name);
            ok &= within;
            let (native, _) = metrics::native(w, d.name);
            eprintln!(
                "  {:<12} {native:<18} median {med:>14.4} {:<5} q1 {q1:>14.4} q3 {q3:>14.4} \
                 spread {spread:>7.4} bound {:.2} {}",
                d.name,
                d.unit,
                bound(d.name),
                if within { "ok" } else { "EXCEEDED" }
            );
            summary.push(format!(
                "{{\"workload\": {}, \"name\": {}, \"native\": {}, \"median\": {}, \
                 \"q1\": {}, \"q3\": {}, \"spread\": {}, \"bound\": {}, \"within\": {within}}}",
                json::quote(w),
                json::quote(d.name),
                json::quote(native),
                json::num(med),
                json::num(q1),
                json::num(q3),
                json::num(spread),
                json::num(bound(d.name))
            ));
        }
    }
    let summary = format!("[\n  {}]", summary.join(",\n  "));
    let path = Path::new(OUT_DIR).join("repeat.json");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, &summary)) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{summary}");
    Ok(ok)
}

/// One workload in one mode, in this process: the leaf every other way
/// of running comes down to.
fn leaf(opts: &Opts, workload: &'static str, traced: bool) -> Result<bool, String> {
    let r = if traced { per_layer(opts, workload)? } else { end_to_end(opts, workload)? };
    eprint!("{}", r.table());
    // A real run that cannot state an end-to-end metric prints no result.
    if !opts.smoke && !traced {
        if let Some((d, _, _)) = r.rows.iter().find(|(_, _, v)| v.is_none()) {
            return Err(format!("{workload}: {} could not be measured: {:?}", d.name, r.invalid));
        }
    }
    write_report(&r);
    println!("{}", r.contract_json());
    Ok(r.correct())
}

fn run(opts: &Opts) -> Result<bool, String> {
    if let Some(n) = opts.repeat {
        return repeat(opts, n);
    }
    if let (&[workload], Some(traced)) = (opts.workloads.as_slice(), opts.trace) {
        return leaf(opts, workload, traced);
    }
    // Several runs: each in a process of its own, as the driver runs them.
    let mut ok = true;
    for &w in &opts.workloads {
        for traced in [false, true] {
            if opts.trace.is_some_and(|t| t != traced) {
                continue;
            }
            let line = child(opts, w, traced)?;
            ok &= json::parse(&line).is_ok_and(|j| j.get("correct") == Some(&Json::Bool(true)));
            println!("workload={w} trace={}", traced as u8);
            println!("{line}");
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default_seconds =
        benchmark_json().and_then(|b| b.get("run_seconds").and_then(Json::as_f64)).unwrap_or(20.0);
    let result = parse_args(&args, default_seconds).and_then(|opts| run(&opts));
    // Durable scratch is per run; nothing in it outlives the process.
    let _ = std::fs::remove_dir_all(Path::new(OUT_DIR).join("scratch"));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: see the failures, invalid runs or exceeded bounds above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
