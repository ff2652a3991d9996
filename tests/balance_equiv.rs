//! Elastic-rebalancing equivalence (ISSUE 10 acceptance): migrating
//! ownership in place must be **semantically invisible**. After a
//! skewed delta stream, `rebalance()` followed by (warm) serving must
//! agree with a full re-partition of the final graph followed by a
//! cold run — identical fixpoints for SSSP and CC, across both
//! partition kinds and all five execution modes, including under
//! hostile [`ScheduleFuzz`] schedules. Durability interplay: a
//! rebalance is never logged, so a "kill" before the next checkpoint
//! restores the consistent pre-plan state and a kill after it the
//! post-plan one — both serving the same answers.

use aap_testkit::{
    all_modes, arb_graph, build_parts, cases, fuzz_opts, fuzz_seeds, scratch_dir, skewed_stream,
    PartitionKind, PARTITIONS,
};
use grape_aap::delta::apply_to_graph;
use grape_aap::prelude::*;
use proptest::prelude::*;

const FRAGS: usize = 3;

fn partition_spec(kind: PartitionKind) -> grape_aap::session::PartitionSpec {
    match kind {
        PartitionKind::EdgeCut => edge_cut(FRAGS),
        PartitionKind::VertexCut => vertex_cut(FRAGS),
    }
}

fn balanced_session(
    g: &Graph<(), u32>,
    kind: PartitionKind,
    mode: Mode,
) -> Session<(), u32, grape_aap::runtime::Engine<(), u32>> {
    Session::builder(g.clone())
        .partition(partition_spec(kind))
        .mode(mode)
        .threads(4)
        .max_rounds(200_000)
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .balance(BalancePolicy::new().max_imbalance(1.05).migration_budget(4096))
        .open()
        .expect("open balanced session")
}

/// Cold reference on the final graph under a *fresh* full re-partition
/// (the expensive operation `rebalance()` replaces).
fn cold_reference(
    g: &Graph<(), u32>,
    kind: PartitionKind,
    mode: Mode,
    src: u32,
) -> (Vec<u64>, Vec<u32>) {
    let mut s = Session::builder(g.clone())
        .partition(partition_spec(kind))
        .mode(mode)
        .threads(4)
        .max_rounds(200_000)
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .open()
        .expect("open cold reference session");
    let d = s.query::<Sssp>("sssp", &src).unwrap();
    let c = s.query::<ConnectedComponents>("cc", &()).unwrap();
    (d, c)
}

/// The full matrix on one deterministic skewed stream: warm serving
/// across a rebalance equals a full re-partition + cold run, for
/// SSSP + CC × edge-cut + vertex-cut × all five modes, with hostile
/// simulator schedules agreeing on every fixpoint.
#[test]
fn rebalance_matches_full_repartition_across_modes_and_partitions() {
    let g = grape_aap::graph::generate::small_world(90, 2, 0.2, 23);
    let deltas = skewed_stream(&g, FRAGS, 6, 24, 0xE1A);
    let g_fin = deltas.iter().fold(g.clone(), |acc, d| apply_to_graph(&acc, d));
    for kind in PARTITIONS {
        for mode in all_modes() {
            let label = format!("matrix[{kind:?},{mode:?}]");
            let mut session = balanced_session(&g, kind, mode.clone());
            let pre_s = session.query::<Sssp>("sssp", &0).unwrap();
            for (i, d) in deltas.iter().enumerate() {
                session.apply(d).unwrap_or_else(|e| panic!("{label}: apply {i}: {e}"));
            }
            assert_ne!(pre_s, session.query::<Sssp>("sssp", &0).unwrap(), "{label}: stream inert");

            let before = session.balance_report().expect("policy configured");
            let report = session.rebalance().unwrap_or_else(|e| panic!("{label}: rebalance: {e}"));
            if kind == PartitionKind::EdgeCut {
                // The skewed stream piles edges onto fragment 0; the
                // planner must both find moves and actually help.
                assert!(before.imbalance > 1.05, "{label}: stream failed to skew the partition");
                assert!(report.vertices_migrated > 0, "{label}: empty plan on a skewed partition");
                assert!(
                    report.imbalance_after < report.imbalance_before,
                    "{label}: rebalance did not reduce imbalance ({report:?})"
                );
            }

            // Warm serving across the migration == full re-partition +
            // cold run on the final graph.
            let (ref_s, ref_c) = cold_reference(&g_fin, kind, mode.clone(), 0);
            assert_eq!(
                session.query::<Sssp>("sssp", &0).unwrap(),
                ref_s,
                "{label}: SSSP diverged from full re-partition after rebalance"
            );
            assert_eq!(
                session.query::<ConnectedComponents>("cc", &()).unwrap(),
                ref_c,
                "{label}: CC diverged from full re-partition after rebalance"
            );
            // A never-before-seen query runs cold on the migrated
            // fragments — the repacked layout itself must be sound.
            let (ref_s2, _) = cold_reference(&g_fin, kind, mode.clone(), 2);
            assert_eq!(
                session.query::<Sssp>("sssp", &2).unwrap(),
                ref_s2,
                "{label}: cold query on migrated fragments diverged"
            );

            // Hostile schedules on the final graph agree with what the
            // rebalanced session serves.
            for seed in fuzz_seeds(3) {
                let fuzzed =
                    SimEngine::new(build_parts(&g_fin, kind, FRAGS), fuzz_opts(mode.clone(), seed))
                        .expect("fuzz opts are valid")
                        .run(&Sssp, &0);
                assert_eq!(
                    fuzzed.out, ref_s,
                    "{label}: hostile schedule diverged — ScheduleFuzz::seeded({seed})"
                );
            }

            // The session keeps streaming warm on the migrated layout.
            let tail = skewed_stream(&g_fin, FRAGS, 1, 8, 0xF00 + seed_of(kind, &mode));
            let g_more = apply_to_graph(&g_fin, &tail[0]);
            session
                .apply(&tail[0])
                .unwrap_or_else(|e| panic!("{label}: post-rebalance apply: {e}"));
            let (ref_s3, _) = cold_reference(&g_more, kind, mode.clone(), 0);
            assert_eq!(
                session.query::<Sssp>("sssp", &0).unwrap(),
                ref_s3,
                "{label}: warm advance after rebalance diverged"
            );
        }
    }
}

fn seed_of(kind: PartitionKind, mode: &Mode) -> u64 {
    (kind == PartitionKind::VertexCut) as u64 * 31 + format!("{mode:?}").len() as u64
}

/// Vertex-cut must rebalance through the shared in-place patch path —
/// ownership hops between existing holders, the pair-hashed edge
/// placement never moves, and `migration_bytes` reflects values only
/// (no adjacency payload, unlike edge-cut).
#[test]
fn vertex_cut_rebalance_moves_between_holders_in_place() {
    let g = grape_aap::graph::generate::small_world(120, 2, 0.25, 7);
    let mut session = Session::builder(g.clone())
        .partition(vertex_cut(FRAGS))
        .mode(Mode::aap())
        .threads(4)
        .program("sssp", Sssp)
        .balance(BalancePolicy::new().max_imbalance(1.0).migration_budget(4096))
        .open()
        .unwrap();
    let before = session.query::<Sssp>("sssp", &0).unwrap();
    let loads0 = session.balance_report().unwrap().loads;
    let report = session.rebalance().unwrap();
    if report.vertices_migrated > 0 {
        // Values only: strictly fewer bytes per vertex than any
        // adjacency-carrying edge-cut move could produce.
        assert!(report.migration_bytes < report.vertices_migrated * 8, "{report:?}");
        assert!(report.fragments_repacked > 0, "{report:?}");
        assert_ne!(session.balance_report().unwrap().loads, loads0);
    }
    assert_eq!(session.query::<Sssp>("sssp", &0).unwrap(), before);
    assert_eq!(session.metrics().vertices_migrated, report.vertices_migrated);
}

/// Error surface: no policy, no rebalance — and no monitor overhead.
#[test]
fn rebalance_without_policy_is_an_error() {
    let g = grape_aap::graph::generate::small_world(40, 2, 0.2, 1);
    let mut session =
        Session::builder(g).partition(edge_cut(2)).program("sssp", Sssp).open().unwrap();
    assert!(session.balance_report().is_none());
    assert!(matches!(session.rebalance(), Err(SessionError::NoBalancePolicy)));
}

/// Auto mode: an apply that leaves the partition over threshold
/// triggers the rebalance inside `apply()` itself; serving afterwards
/// still equals the full re-partition reference.
#[test]
fn auto_rebalance_fires_after_skewed_applies() {
    let g = grape_aap::graph::generate::small_world(90, 2, 0.2, 23);
    let deltas = skewed_stream(&g, FRAGS, 6, 24, 0xA07);
    let g_fin = deltas.iter().fold(g.clone(), |acc, d| apply_to_graph(&acc, d));
    let mut session = Session::builder(g.clone())
        .partition(edge_cut(FRAGS))
        .mode(Mode::aap())
        .threads(4)
        .program("sssp", Sssp)
        .balance(BalancePolicy::new().max_imbalance(1.1).auto(true))
        .open()
        .unwrap();
    session.query::<Sssp>("sssp", &0).unwrap();
    for d in &deltas {
        session.apply(d).unwrap();
    }
    assert!(session.metrics().rebalances > 0, "auto policy never fired on a skewed stream");
    assert!(
        session.balance_report().unwrap().imbalance <= 1.1 + 0.25,
        "auto rebalancing left the partition badly skewed: {:?}",
        session.balance_report().unwrap()
    );
    let (ref_s, _) = cold_reference(&g_fin, PartitionKind::EdgeCut, Mode::aap(), 0);
    assert_eq!(session.query::<Sssp>("sssp", &0).unwrap(), ref_s);
}

/// Durability: a rebalance is **never logged**. Killing the session
/// after a rebalance but before any checkpoint must restore the
/// consistent **pre-plan** state (the log replays onto the old
/// partition); killing after a checkpoint restores the **post-plan**
/// layout. Both serve identical answers.
#[test]
fn crash_around_rebalance_restores_consistent_state() {
    let g = grape_aap::graph::generate::small_world(90, 2, 0.2, 23);
    let deltas = skewed_stream(&g, FRAGS, 5, 24, 0xC4A);
    let g_fin = deltas.iter().fold(g.clone(), |acc, d| apply_to_graph(&acc, d));
    let (ref_s, ref_c) = cold_reference(&g_fin, PartitionKind::EdgeCut, Mode::aap(), 0);

    for checkpoint_after in [false, true] {
        let dir = scratch_dir(if checkpoint_after { "bal_post" } else { "bal_pre" });
        let mut session = Session::builder(g.clone())
            .partition(edge_cut(FRAGS))
            .mode(Mode::aap())
            .threads(4)
            .program("sssp", Sssp)
            .program("cc", ConnectedComponents)
            .balance(BalancePolicy::new().max_imbalance(1.05))
            .durability(DurabilityPolicy::new(&dir).differential(false))
            .unwrap()
            .open()
            .unwrap();
        session.query::<Sssp>("sssp", &0).unwrap();
        session.query::<ConnectedComponents>("cc", &()).unwrap();
        for (i, d) in deltas.iter().enumerate() {
            session.apply(d).unwrap();
            if i == 1 {
                session.checkpoint().unwrap(); // mid-stream epoch
            }
        }
        let report = session.rebalance().unwrap();
        assert!(report.vertices_migrated > 0, "skewed stream must force a real plan");
        let live_s = session.query::<Sssp>("sssp", &0).unwrap();
        let live_c = session.query::<ConnectedComponents>("cc", &()).unwrap();
        if checkpoint_after {
            session.checkpoint().unwrap(); // persists the migrated layout
        }
        drop(session); // the kill

        let mut restored: Session<(), u32, _> = Session::restore(&dir)
            .mode(Mode::aap())
            .threads(4)
            .program("sssp", Sssp)
            .program("cc", ConnectedComponents)
            .balance(BalancePolicy::new().max_imbalance(1.05))
            .open()
            .unwrap_or_else(|e| panic!("restore (checkpoint_after={checkpoint_after}): {e}"));
        assert_eq!(
            restored.query::<Sssp>("sssp", &0).unwrap(),
            live_s,
            "restored SSSP diverged (checkpoint_after={checkpoint_after})"
        );
        assert_eq!(
            restored.query::<ConnectedComponents>("cc", &()).unwrap(),
            live_c,
            "restored CC diverged (checkpoint_after={checkpoint_after})"
        );
        assert_eq!(live_s, ref_s, "live session vs full re-partition");
        assert_eq!(live_c, ref_c, "live session vs full re-partition");

        // The revived directory is healthy: it applies, rebalances
        // (the pre-plan restore is skewed again) and checkpoints.
        let tail = skewed_stream(&g_fin, FRAGS, 1, 8, 0xD1E);
        restored.apply(&tail[0]).unwrap();
        restored.rebalance().unwrap();
        restored.checkpoint().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(6), ..ProptestConfig::default() })]

    /// Random graphs: interleaving rebalances *into* the middle of a
    /// skewed stream (migrate, then keep streaming warm) stays
    /// equivalent to the final-graph cold run, for both partition
    /// kinds under AAP.
    #[test]
    fn rebalance_mid_stream_stays_equivalent(
        g in arb_graph(),
        seed in 0u64..1000,
        kind_idx in 0usize..2,
    ) {
        let kind = PARTITIONS[kind_idx];
        let deltas = skewed_stream(&g, FRAGS, 4, 12, seed);
        let mut session = balanced_session(&g, kind, Mode::aap());
        session.query::<Sssp>("sssp", &0).unwrap();
        session.query::<ConnectedComponents>("cc", &()).unwrap();
        let mut g_cur = g.clone();
        for (i, d) in deltas.iter().enumerate() {
            session.apply(d).unwrap();
            g_cur = apply_to_graph(&g_cur, d);
            if i == 1 {
                session.rebalance().unwrap();
            }
        }
        session.rebalance().unwrap();
        let (ref_s, ref_c) = cold_reference(&g_cur, kind, Mode::aap(), 0);
        prop_assert_eq!(session.query::<Sssp>("sssp", &0).unwrap(), ref_s);
        prop_assert_eq!(session.query::<ConnectedComponents>("cc", &()).unwrap(), ref_c);
    }
}
