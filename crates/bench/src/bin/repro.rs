//! The reproduction harness CLI.
//!
//! ```sh
//! cargo run --release -p aap-bench --bin repro -- all          # everything -> stdout
//! cargo run --release -p aap-bench --bin repro -- all --write  # also update EXPERIMENTS.md
//! cargo run --release -p aap-bench --bin repro -- fig7 table1  # selected experiments
//! ```

use aap_bench::experiments as exp;
use std::io::Write;

const USAGE: &str = "usage: repro <experiment...> [--write] [--seed N]
options:
  --write    also update EXPERIMENTS.md (with `all`)
  --seed N   seed for the `json` experiment's dynamic delta round
             (default 0xDEC0, the BENCH_baseline.json seed)
experiments:
  all      every table and figure (writes the full report)
  fig1     Fig 1(a) timing diagrams (CC, 3 workers)
  table1   Table 1 (PageRank + SSSP across architectures)
  fig6a..fig6l   the twelve Fig 6 panels
  exp2     communication costs
  fig7     Fig 7 straggler case study (PageRank timing diagrams)
  appb     Appendix B CF staleness-bound robustness
  single   single-thread comparison (threaded engine wall-clock)
  serving  concurrent serving QPS + p50/p99 (readers x mutating writer,
           wall-clock)
  durability  differential vs full checkpoint bytes and reader QPS
           during in-flight background cuts (wall-clock, asserts the
           >=5x byte and >=0.8x QPS acceptance bars)
  rebalance  elastic in-place migration vs full re-partition after a
           skewed delta stream (wall-clock, asserts <=1.15 post-
           rebalance load ratio, >=5x over full re-partition, and
           identical fixpoints), plus the vertex-cut touched-fragment-
           proportional apply cost
  ablate   design-choice ablations
  fuzz     schedule-fuzz sweep: every mode x partitioning cell re-run
           under seeded hostile interleavings (ScheduleFuzz), fixpoints
           compared against the canonical schedule; panics naming the
           reproducing seed on any divergence
  trace    capture repro.trace.json (Chrome trace-event JSON) from a
           serving workload on both the threaded engine and the sim
           backend, then validate it
  json     machine-readable rows (incl. effective/redundant update
           counters and a dynamic-graph delta round) for cross-PR
           staleness tracking";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let write = args.iter().any(|a| a == "--write");
    let mut seed = exp::DEFAULT_JSON_SEED;
    let mut experiments: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--write" => {}
            "--seed" => {
                seed = match it.next().and_then(|s| {
                    s.strip_prefix("0x")
                        .map(|h| u64::from_str_radix(h, 16).ok())
                        .unwrap_or_else(|| s.parse().ok())
                }) {
                    Some(s) => s,
                    None => {
                        eprintln!("--seed needs a number\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}\n{USAGE}");
                std::process::exit(2);
            }
            _ => experiments.push(a),
        }
    }
    let mut report = String::new();
    for a in experiments {
        let t0 = std::time::Instant::now();
        let body = match a.as_str() {
            "all" => exp::all(),
            "fig1" => exp::fig1(),
            "table1" => exp::table1(),
            "fig6a" => exp::fig6a(),
            "fig6b" => exp::fig6b(),
            "fig6c" => exp::fig6c(),
            "fig6d" => exp::fig6d(),
            "fig6e" => exp::fig6e(),
            "fig6f" => exp::fig6f(),
            "fig6g" => exp::fig6g(),
            "fig6h" => exp::fig6h(),
            "fig6i" => exp::fig6i(),
            "fig6j" => exp::fig6j(),
            "fig6k" => exp::fig6k(),
            "fig6l" => exp::fig6l(),
            "exp2" => exp::exp2(),
            "fig7" => exp::fig7(),
            "appb" => exp::appb(),
            "single" => exp::single_thread(),
            "serving" => exp::serving(),
            "durability" => exp::durability(),
            "rebalance" => exp::rebalance(),
            "ablate" => exp::ablate(),
            "fuzz" => exp::fuzz(),
            "trace" => exp::trace_capture(),
            "json" => exp::stats_json_seeded(seed),
            other => {
                eprintln!("unknown experiment {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        };
        eprintln!("[{a} finished in {:.1}s]", t0.elapsed().as_secs_f64());
        report.push_str(&body);
    }
    println!("{report}");
    if write {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let header = "# EXPERIMENTS — paper vs measured\n\n\
            Generated by `cargo run --release -p aap-bench --bin repro -- all --write`.\n\
            Times are virtual units of the discrete-event simulator (except the\n\
            single-thread section, which is wall-clock). See README.md (\"Substitutions\")\n\
            for the dataset/system stand-ins and how to read the shapes.\n\n";
        let mut f = std::fs::File::create(path).expect("write EXPERIMENTS.md");
        f.write_all(header.as_bytes()).unwrap();
        f.write_all(report.as_bytes()).unwrap();
        eprintln!("wrote {path}");
    }
}
