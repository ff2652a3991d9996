//! The metric dictionary: every name the benchmark can print, its unit,
//! and how the per-workload end-to-end names map onto the six names
//! `BENCHMARK.json` gates on every workload. `perf/README.md` is the
//! prose version of this file; a unit test keeps `BENCHMARK.json` equal
//! to it.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = ["batch_powerlaw", "batch_road", "stream_apply", "serve_mixed"];

/// One metric: name, unit, and which direction is better.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: "higher" }
}

/// The end-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [Def; 6] = [
    lower("op_p50_ms", "ms"),
    lower("op_tail_ms", "ms"),
    lower("op2_p50_ms", "ms"),
    lower("op3_p50_ms", "ms"),
    higher("work_per_s", "1/s"),
    lower("setup_s", "s"),
];

/// What each gated name measures on each workload: the workload's own
/// end-to-end metric and the factor that converts it to the gated unit.
/// Order of the inner arrays is [`WORKLOADS`].
const NATIVE: [(&str, [(&str, f64); 4]); 5] = [
    (
        "op_p50_ms",
        [
            ("sssp_p50_ms", 1.0),
            ("sssp_p50_ms", 1.0),
            ("apply_p50_ms", 1.0),
            ("miss_sat_p50_ms", 1.0),
        ],
    ),
    (
        "op_tail_ms",
        [
            ("sssp_p90_ms", 1.0),
            ("sssp_p90_ms", 1.0),
            ("apply_p95_ms", 1.0),
            ("miss_sat_p90_ms", 1.0),
        ],
    ),
    (
        "op2_p50_ms",
        [
            ("cc_p50_ms", 1.0),
            ("cc_p50_ms", 1.0),
            ("checkpoint_p50_ms", 1.0),
            ("query_hi_p50_ms", 1.0),
        ],
    ),
    (
        "op3_p50_ms",
        [
            ("pagerank_p50_ms", 1.0),
            ("pagerank_p50_ms", 1.0),
            ("restore_s", 1e3),
            ("apply_p50_ms", 1.0),
        ],
    ),
    (
        "work_per_s",
        [("edges_per_s", 1.0), ("edges_per_s", 1.0), ("delta_ops_per_s", 1.0), ("serve_qps", 1.0)],
    ),
];

/// The workload's own name for gated metric `gated`, and the factor
/// from its unit to the gated one. Metrics common to all workloads map
/// to themselves.
pub fn native(workload: &str, gated: &'static str) -> (&'static str, f64) {
    let w = WORKLOADS.iter().position(|x| *x == workload).expect("known workload");
    NATIVE.iter().find(|(g, _)| *g == gated).map_or((gated, 1.0), |(_, per)| per[w])
}

/// The per-layer metrics (`--trace 1`). A metric a workload does not
/// exercise, or whose span the recorder does not emit, reads 0 there.
pub const PER_LAYER: [Def; 81] = [
    lower("graph.generate_ms", "ms"),
    lower("graph.partition_ms", "ms"),
    lower("graph.build_fragments_ms", "ms"),
    lower("graph.border_ratio", "ratio"),
    lower("graph.repack_self_ms", "ms"),
    lower("graph.patch_self_ms", "ms"),
    lower("graph.repacks_per_apply", "count"),
    lower("core.rounds_max", "count"),
    lower("core.rounds_total", "count"),
    lower("core.updates_per_op", "count"),
    lower("core.bytes_per_op", "bytes"),
    lower("core.stale_ratio", "ratio"),
    higher("core.compute_share", "ratio"),
    lower("core.suspend_share", "ratio"),
    lower("core.idle_share", "ratio"),
    lower("core.round_overhead_us", "us"),
    lower("core.eval0_self_ms", "ms"),
    lower("core.inceval_self_ms", "ms"),
    lower("core.route_self_ms", "ms"),
    lower("core.drain_self_ms", "ms"),
    lower("core.bsp_ms", "ms"),
    lower("core.ap_ms", "ms"),
    lower("core.aap_ms", "ms"),
    lower("core.aap_over_bsp", "ratio"),
    lower("algos.seq_sssp_ms", "ms"),
    lower("algos.seq_cc_ms", "ms"),
    lower("algos.single_fragment_ms", "ms"),
    lower("algos.warm_updates_per_apply", "count"),
    higher("algos.strategy_warm_decrease", "count"),
    higher("algos.strategy_warm_increase", "count"),
    lower("algos.strategy_cold", "count"),
    lower("delta.apply_to_fragments_ms", "ms"),
    lower("delta.resolve_edit_self_ms", "ms"),
    lower("delta.plan_invalidation_self_ms", "ms"),
    higher("delta.ops_per_batch", "count"),
    lower("delta.fragments_touched_per_apply", "count"),
    lower("session.open_ms", "ms"),
    lower("session.retained_hit_us", "us"),
    lower("session.reader_hit_ns", "ns"),
    lower("session.apply_self_ms", "ms"),
    lower("session.serve_admitted_self_ms", "ms"),
    higher("session.cache_hit_ratio", "ratio"),
    higher("session.admitted_per_window", "count"),
    lower("session.windows", "count"),
    lower("session.publications", "count"),
    lower("snapshot.encode_ms", "ms"),
    lower("snapshot.save_ms", "ms"),
    lower("snapshot.load_ms", "ms"),
    lower("snapshot.durable_bytes_per_op", "bytes"),
    lower("snapshot.fragments_written", "count"),
    higher("snapshot.fragments_skipped", "count"),
    higher("snapshot.log_records_compacted", "count"),
    lower("snapshot.replayed_applies", "count"),
    lower("balance.rebalance_ms", "ms"),
    lower("balance.plan_ms", "ms"),
    lower("balance.vertices_migrated", "count"),
    lower("balance.migration_bytes", "bytes"),
    lower("balance.fragments_repacked", "count"),
    lower("balance.imbalance_before", "ratio"),
    lower("balance.imbalance_after", "ratio"),
    lower("sim.aap_over_bsp_predicted", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.events_per_op", "count"),
    lower("trace.dropped", "count"),
    lower("trace.unattributed_ratio", "ratio"),
    higher("loadgen.offered_qps", "1/s"),
    higher("loadgen.achieved_qps", "1/s"),
    lower("loadgen.lag_p99_ms", "ms"),
    lower("loadgen.miss_lo_p50_ms", "ms"),
    lower("loadgen.miss_hi_p50_ms", "ms"),
    lower("loadgen.query_hi_p99_ms", "ms"),
    lower("loadgen.backlog_max", "count"),
    lower("loadgen.writer_busy_ratio", "ratio"),
    lower("process.peak_rss_mb", "MiB"),
    lower("share.core_eval", "ratio"),
    lower("share.core_messaging", "ratio"),
    lower("share.delta_graph", "ratio"),
    lower("share.session", "ratio"),
    lower("share.snapshot", "ratio"),
    lower("share.balance", "ratio"),
    lower("share.residual", "ratio"),
];

/// A measured value and how many samples stand behind it (0 for a
/// count or a ratio of counts).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    pub v: f64,
    pub n: usize,
}

/// Values by metric name — the workload's own end-to-end names and the
/// per-layer names alike.
#[derive(Clone, Debug, Default)]
pub struct Values(pub BTreeMap<String, Value>);

impl Values {
    pub fn set(&mut self, name: &str, v: f64, n: usize) {
        self.0.insert(name.to_string(), Value { v, n });
    }

    /// A count, or a value derived from counts.
    pub fn count(&mut self, name: &str, v: f64) {
        self.set(name, v, 0);
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn every_gated_name_has_a_native_metric_on_every_workload() {
        for w in WORKLOADS {
            for d in &END_TO_END {
                let (name, scale) = native(w, d.name);
                assert!(!name.is_empty() && scale > 0.0);
            }
            assert_eq!(native(w, "setup_s"), ("setup_s", 1.0));
        }
        assert_eq!(native("stream_apply", "op3_p50_ms"), ("restore_s", 1e3));
        assert_eq!(native("serve_mixed", "op_tail_ms"), ("miss_sat_p90_ms", 1.0));
        assert_eq!(native("batch_road", "work_per_s"), ("edges_per_s", 1.0));
    }

    /// `BENCHMARK.json` at the root of the repo lists exactly the
    /// metrics and workloads this file defines.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            j.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect()
        };
        let defined = |defs: &[Def]| -> Vec<(String, String, String)> {
            defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
        };
        assert_eq!(listed("end_to_end"), defined(&END_TO_END));
        assert_eq!(listed("per_layer"), defined(&PER_LAYER));
        let workloads: Vec<&str> = j
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in j.get("end_to_end").unwrap().as_arr() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
