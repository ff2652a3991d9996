//! Trace-format contract: everything the instrumented layers emit must
//! export as Chrome trace-event JSON that survives a round trip through
//! the bench harness's independent parser/checker
//! ([`aap_bench::tracecheck`]) — balanced `B`/`E` nesting per
//! `(pid, tid)` track, monotone timestamps per track, every expected
//! process present — for the threaded engine AND the simulator backend,
//! on scripted workloads and on proptest-generated random runs.

use aap_bench::tracecheck::{check_chrome_trace, TraceCheck};
use aap_testkit::{adversarial_stream, arb_graph, cases};
use grape_aap::graph::Graph;
use grape_aap::prelude::*;
use grape_aap::trace::{chrome_trace_json, pid};
use proptest::prelude::*;
use std::sync::Arc;

/// Build a traced session on `g`, run [`drive`], export, and validate.
fn run_and_check(g: &Graph<(), u32>, deltas: &[GraphDelta<(), u32>], sim: bool) -> TraceCheck {
    let rec = Arc::new(Recorder::with_capacity(1 << 18));
    let builder = Session::builder(g.clone())
        .partition(edge_cut(3))
        .mode(Mode::aap())
        .program("sssp", Sssp)
        .trace(Arc::clone(&rec));
    if sim {
        drive(builder.open_sim().expect("sim session"), deltas);
    } else {
        drive(builder.open().expect("session"), deltas);
    }
    assert_eq!(rec.dropped(), 0, "recorder window too small");
    let json = chrome_trace_json(&rec.events());
    check_chrome_trace(&json).expect("exported trace must round-trip the bench parser")
}

/// Run the serving workload against `session` (queries incl. cache
/// hits, an admission window, delta applies), then drop it.
fn drive<B: grape_aap::session::Backend<(), u32>>(
    mut session: Session<(), u32, B>,
    deltas: &[GraphDelta<(), u32>],
) {
    let reader = session.reader();
    for (i, delta) in deltas.iter().enumerate() {
        for q in [0u32, 1, 0] {
            session.query::<Sssp>("sssp", &q).expect("query");
        }
        reader.request::<Sssp>("sssp", &(i as u32 % 3)).expect("request");
        session.serve_admitted().expect("admission");
        session.apply(delta).expect("apply");
    }
}

#[test]
fn threaded_engine_capture_round_trips_the_bench_parser() {
    let g = grape_aap::graph::generate::rmat(10, 8, true, 5);
    let deltas: Vec<_> =
        (0..3u64).map(|i| grape_aap::delta::generate::insert_batch(&g, 32, 9, i)).collect();
    let check = run_and_check(&g, &deltas, false);

    for p in [pid::ENGINE, pid::DELTA, pid::SESSION] {
        assert!(check.pids.contains(&p), "pid {p} missing: {:?}", check.pids);
    }
    // Per-worker round spans, strategy instants, per-fragment repacks,
    // session spans and counter series — the acceptance set.
    for name in
        ["round", "eval0", "inceval", "strategy", "repack", "query", "apply", "publications"]
    {
        assert!(check.has(name), "{name:?} missing from {:?}", check.names);
    }
    assert!(check.spans > 0 && check.instants > 0 && check.counters > 0);
    // Several engine workers → several (pid, tid) tracks under ENGINE.
    assert!(check.tracks > 3, "expected per-worker tracks, got {}", check.tracks);
}

#[test]
fn sim_backend_capture_is_well_formed_across_consecutive_runs() {
    let g = grape_aap::graph::generate::small_world(400, 3, 0.2, 11);
    let deltas: Vec<_> =
        (0..4u64).map(|i| grape_aap::delta::generate::insert_batch(&g, 16, 9, 100 + i)).collect();
    // Each query/apply re-runs the simulator, which re-emits a fresh
    // virtual-time timeline; the checker's per-track monotonicity proves
    // the captures are laid end-to-end rather than overlapping at ts 0.
    let check = run_and_check(&g, &deltas, true);

    assert!(check.pids.contains(&pid::SIM), "sim pid missing: {:?}", check.pids);
    assert!(check.pids.contains(&pid::SESSION));
    for name in ["compute", "query", "apply", "strategy"] {
        assert!(check.has(name), "{name:?} missing from {:?}", check.names);
    }
    assert!(check.counters > 0, "session counter tracks missing");
}

/// Per-call kernel work is readable off the existing eval span: on both
/// engines (and both threaded paths) every `eval0`/`inceval` — for the
/// simulator, `compute` — end event carries the `work` the call charged
/// and the updates it `sent`, and under edge-cut (fan-out 1 per mirror)
/// the `sent` args add up to the run's shipped updates.
#[test]
fn eval_spans_carry_kernel_work_and_send_counts() {
    use grape_aap::graph::partition::{build_fragments, hash_partition};
    use grape_aap::trace::{ArgVal, Phase};

    let g = grape_aap::graph::generate::rmat(9, 8, true, 5);
    let frags = build_fragments(&g, &hash_partition(&g, 4));
    let totals = |rec: &Recorder, names: &[&str]| -> (u64, u64) {
        let (mut work, mut sent) = (0, 0);
        for e in rec.events().iter().filter(|e| e.ph == Phase::End && names.contains(&e.name)) {
            let (Some(ArgVal::Uint(w)), Some(ArgVal::Uint(s))) =
                (e.args.get("work"), e.args.get("sent"))
            else {
                panic!("{} end event without work/sent: {:?}", e.name, e.args);
            };
            work += w;
            sent += s;
        }
        (work, sent)
    };

    for mode in [Mode::Bsp, Mode::aap()] {
        let rec = Arc::new(Recorder::with_capacity(1 << 16));
        let opts = EngineOpts { threads: 4, mode: mode.clone(), max_rounds: Some(100_000) };
        let mut engine = Engine::new(frags.clone(), opts);
        engine.set_tracer(Tracer::new(Arc::clone(&rec)));
        let run = engine.run(&Sssp, &0);
        assert_eq!(rec.dropped(), 0, "recorder window too small");
        let (work, sent) = totals(&rec, &["eval0", "inceval"]);
        assert!(work > 0, "{mode:?}: SSSP charges kernel work");
        assert_eq!(sent, run.stats.total_updates(), "{mode:?}");

        let rec = Arc::new(Recorder::with_capacity(1 << 16));
        let mut sim = SimEngine::new(frags.clone(), SimOpts { mode, ..SimOpts::default() })
            .expect("valid sim options");
        sim.set_tracer(Tracer::new(Arc::clone(&rec)));
        let run = sim.run(&Sssp, &0);
        assert_eq!(rec.dropped(), 0, "recorder window too small");
        let (work, sent) = totals(&rec, &["compute"]);
        assert!(work > 0);
        assert_eq!(sent, run.stats.total_updates());
    }
}

/// `apply_delta` self time is attributable: on a structural batch its
/// children — `resolve_edit`, one `repack` per changed fragment (each
/// covering that fragment's whole splice, with `rows_edited` / `edges`
/// on its end event) and `routing` — lie inside it and cover at least
/// 80 % of it; the threaded driver emits the same set; and the capture
/// still nests per `(pid, tid)` for the bench parser.
#[test]
fn apply_delta_children_cover_the_structural_apply() {
    use grape_aap::delta::apply::apply_to_fragments_par_traced;
    use grape_aap::graph::mutate::EditBuffers;
    use grape_aap::graph::partition::{build_fragments_n, hash_partition};
    use grape_aap::trace::Phase;

    let g = grape_aap::graph::generate::rmat(13, 16, true, 3);
    let mut delta = DeltaBuilder::new();
    for (u, v, w) in grape_aap::delta::generate::insert_batch(&g, 100, 9, 1).edges_added() {
        delta.add_edge(*u, *v, *w);
    }
    for (u, v) in grape_aap::delta::generate::remove_batch(&g, 30, 2).edges_removed() {
        delta.remove_edge(*u, *v);
    }
    let delta = delta.build();

    for threads in [1usize, 2] {
        let mut frags = build_fragments_n(&g, &hash_partition(&g, 4), 4);
        let rec = Arc::new(Recorder::with_capacity(1 << 10));
        let tracer = Tracer::new(Arc::clone(&rec));
        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            let bufs = &mut EditBuffers::default();
            apply_to_fragments_par_traced(&mut refs, &delta, bufs, threads, &tracer)
        };
        let events = rec.events();
        check_chrome_trace(&chrome_trace_json(&events)).expect("delta capture must nest");

        // Close spans per (tid, name): the delta track nests, so a stack
        // per tid pairs every end with its begin.
        let mut open: std::collections::HashMap<u32, Vec<u64>> = Default::default();
        let mut spans: Vec<(&str, u64, u64)> = Vec::new();
        for e in events.iter().filter(|e| e.pid == pid::DELTA) {
            match e.ph {
                Phase::Begin => open.entry(e.tid).or_default().push(e.ts_us),
                Phase::End => {
                    let begun = open.get_mut(&e.tid).and_then(Vec::pop).expect("end after begin");
                    spans.push((e.name, begun, e.ts_us));
                    if e.name == "repack" {
                        assert!(e.args.get("rows_edited").is_some(), "{:?}", e.args);
                        assert!(e.args.get("edges").is_some(), "{:?}", e.args);
                    }
                }
                _ => {}
            }
        }
        let count = |name: &str| spans.iter().filter(|s| s.0 == name).count();
        let &(_, start, end) =
            spans.iter().find(|s| s.0 == "apply_delta").expect("apply_delta span");
        let changed = applied.changed.iter().filter(|&&c| c).count();
        assert_eq!(count("repack"), changed, "threads = {threads}: one repack per changed");
        assert_eq!(count("resolve_edit"), 1);
        assert_eq!(count("routing"), 1);
        let mut children: Vec<(u64, u64)> =
            spans.iter().filter(|s| s.0 != "apply_delta").map(|s| (s.1, s.2)).collect();
        assert!(children.iter().all(|&(s, e)| start <= s && e <= end), "children lie inside");
        children.sort_unstable();
        let (mut covered, mut upto) = (0, start);
        for (s, e) in children {
            covered += e.saturating_sub(s.max(upto));
            upto = upto.max(e);
        }
        // Debug builds re-validate every changed fragment between the
        // phases (`Fragment::check_invariants`), outside any span; and
        // on a graph this small the threaded driver's own thread
        // start-up — no span of the apply — is a tenth of the wall time.
        if !cfg!(debug_assertions) && threads == 1 {
            assert!(
                covered * 5 >= (end - start) * 4,
                "threads = {threads}: children cover {covered} of {} us",
                end - start
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(6), ..ProptestConfig::default() })]

    /// Random small graphs × adversarial delta streams (insertions,
    /// deletions, weight changes — both warm-strategy directions) on
    /// both backends: whatever path the run takes, the export must
    /// parse, balance, and stay monotone per track.
    #[test]
    fn random_runs_export_valid_traces(g in arb_graph(), seed in 0u64..500) {
        let deltas = adversarial_stream(&g, 3, seed);
        let threaded = run_and_check(&g, &deltas, false);
        prop_assert!(threaded.pids.contains(&pid::ENGINE));
        prop_assert!(threaded.has("query") && threaded.has("apply"));
        let sim = run_and_check(&g, &deltas, true);
        prop_assert!(sim.pids.contains(&pid::SIM));
        prop_assert!(sim.counters > 0);
    }
}
