//! Session-facade equivalence (ISSUE 5 acceptance): a [`Session`]
//! holding **two** retained programs must be indistinguishable — output,
//! retained state, and durable bytes — from the hand-rolled
//! `Engine` + `run_incremental` + `save_engine`/`replay` composition it
//! replaces, after every batch of an adversarial stream, across all
//! five execution modes and both partition kinds, through a mid-stream
//! `checkpoint()` and a full `restore()`.
//!
//! The heavy lifting lives in `aap_testkit::assert_session_equiv` (and
//! its simulator mirror); this suite drives the matrix and the error
//! surface.

use aap_testkit::{
    adversarial_stream, all_modes, arb_graph, assert_crash_restore_equiv,
    assert_full_equals_chain_restore, assert_session_equiv, assert_session_equiv_sim, cases,
    fuzz_seeds, scratch_dir, PartitionKind, CRASH_POINTS, PARTITIONS,
};
use grape_aap::prelude::*;
use grape_aap::runtime::WarmStrategy;
use proptest::prelude::*;

/// The full mode × partition matrix on one deterministic adversarial
/// stream: 5 modes × 2 partition kinds, ≥ 2 programs per session,
/// after-every-batch state equality plus a checkpoint/restore round
/// trip proven byte-identical (the acceptance criterion).
#[test]
fn session_matches_manual_composition_across_modes_and_partitions() {
    let g = grape_aap::graph::generate::small_world(90, 2, 0.2, 23);
    let deltas = adversarial_stream(&g, 4, 0xBEEF);
    for kind in PARTITIONS {
        for mode in all_modes() {
            let report = assert_session_equiv(
                &g,
                0,
                &deltas,
                kind,
                3,
                mode.clone(),
                &fuzz_seeds(4),
                &format!("matrix[{kind:?},{mode:?}]"),
            );
            assert_eq!(report.strategies.len(), deltas.len());
        }
    }
}

/// The adversarial stream must actually exercise the non-monotone path
/// somewhere (otherwise the matrix above proves less than it claims) —
/// and SSSP must never cold-fall-back on it.
#[test]
fn session_streams_stay_warm() {
    let g = grape_aap::graph::generate::small_world(90, 2, 0.2, 23);
    let deltas = adversarial_stream(&g, 4, 0xBEEF);
    let report =
        assert_session_equiv(&g, 0, &deltas, PartitionKind::EdgeCut, 3, Mode::aap(), &[], "warmth");
    assert!(
        report.strategies.iter().any(|(s, _)| *s == WarmStrategy::WarmIncrease),
        "stream never hit warm-increase: {:?}",
        report.strategies
    );
    assert!(
        report.strategies.iter().all(|(s, _)| s.is_warm()),
        "SSSP cold-fell-back inside a session: {:?}",
        report.strategies
    );
}

/// The same facade on the simulator backend (`open_sim`): identical to
/// the hand-rolled `SimEngine` composition in virtual time.
#[test]
fn session_sim_backend_matches_manual_composition() {
    let g = grape_aap::graph::generate::small_world(80, 2, 0.2, 5);
    let deltas = adversarial_stream(&g, 3, 0xD00D);
    for kind in PARTITIONS {
        assert_session_equiv_sim(
            &g,
            0,
            &deltas,
            kind,
            3,
            &fuzz_seeds(2),
            &format!("sim[{kind:?}]"),
        );
    }
}

/// Serving is non-evicting (ISSUE 6): a *different* query value is
/// answered from the bounded answer cache without disturbing the
/// retained fixpoint; `retain_query` switches it explicitly (cold
/// rerun) and later deltas warm-advance the new query.
#[test]
fn requery_replaces_the_retained_fixpoint() {
    let g = grape_aap::graph::generate::small_world(100, 2, 0.2, 9);
    let mut session =
        Session::builder(g.clone()).partition(edge_cut(3)).program("sssp", Sssp).open().unwrap();
    let from0 = session.query::<Sssp>("sssp", &0).unwrap();
    let from7 = session.query::<Sssp>("sssp", &7).unwrap();
    assert_ne!(from0, from7, "different sources answer differently");
    assert_eq!(
        session.retained_query::<Sssp>("sssp").unwrap(),
        Some(&0),
        "plain query never evicts the retained fixpoint"
    );
    assert_eq!(session.retain_query::<Sssp>("sssp", &7).unwrap(), from7);
    assert_eq!(session.retained_query::<Sssp>("sssp").unwrap(), Some(&7));
    let mut b = DeltaBuilder::new();
    b.add_edge(7, 50, 1);
    let report = session.apply(&b.build()).unwrap();
    assert_eq!(report.strategy("sssp"), Some(WarmStrategy::WarmDecrease));
    // The warm-advanced answer serves the retained query, exactly.
    let engine = grape_aap::runtime::Engine::new(
        {
            let g2 = grape_aap::delta::apply_to_graph(&g, &{
                let mut b = DeltaBuilder::new();
                b.add_edge(7, 50, 1);
                b.build()
            });
            grape_aap::graph::partition::build_fragments_n(
                &g2,
                &grape_aap::graph::partition::hash_partition(&g2, 3),
                3,
            )
        },
        Default::default(),
    );
    assert_eq!(session.query::<Sssp>("sssp", &7).unwrap(), engine.run(&Sssp, &7).out);
}

/// The error surface: unknown names, type mismatches, checkpointing a
/// non-durable session, double-initializing a durable directory.
#[test]
fn session_error_surface() {
    let g = grape_aap::graph::generate::small_world(40, 2, 0.2, 1);
    let mut session =
        Session::builder(g.clone()).partition(edge_cut(2)).program("sssp", Sssp).open().unwrap();
    let err = session.query::<Sssp>("nope", &0).expect_err("unknown name");
    assert!(matches!(&err, SessionError::UnknownProgram { .. }));
    assert!(err.to_string().contains("\"sssp\""), "message names the registered programs: {err}");
    assert!(matches!(
        session.query::<ConnectedComponents>("sssp", &()),
        Err(SessionError::ProgramType { .. })
    ));
    assert!(matches!(session.checkpoint(), Err(SessionError::NotDurable)));

    let dir = scratch_dir("reinit");
    let s1 = Session::builder(g.clone())
        .partition(edge_cut(2))
        .program("sssp", Sssp)
        .durability(DurabilityPolicy::new(&dir).differential(false))
        .unwrap()
        .open()
        .unwrap();
    drop(s1);
    let err = Session::builder(g)
        .partition(edge_cut(2))
        .program("sssp", Sssp)
        .durability(DurabilityPolicy::new(&dir).differential(false))
        .unwrap()
        .open()
        .err()
        .expect("re-initializing an existing session dir must fail");
    assert!(matches!(err, SessionError::AlreadyInitialized(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash-injection matrix (ISSUE 8): kill the durable machinery at
/// three exact points — between a differential commit and its log
/// rotation, mid-compaction, and mid-background-serialize (with an
/// apply landing inside the cut window) — across all five modes × both
/// partition kinds. Restore must land byte-identical with the live
/// session at the moment of the kill, and the revived directory must
/// still checkpoint.
#[test]
fn crash_points_restore_byte_identical() {
    let g = grape_aap::graph::generate::small_world(90, 2, 0.2, 23);
    let deltas = adversarial_stream(&g, 4, 0xFEED);
    for kind in PARTITIONS {
        for mode in all_modes() {
            for point in CRASH_POINTS {
                assert_crash_restore_equiv(
                    &g,
                    0,
                    &deltas,
                    kind,
                    3,
                    mode.clone(),
                    point,
                    &format!("crash[{kind:?},{mode:?},{point:?}]"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(4), ..ProptestConfig::default() })]

    /// Random graphs × adversarial streams through the full durable
    /// session lifecycle (AAP mode, both partition kinds): session ==
    /// hand-rolled composition, byte-for-byte, after every batch and
    /// across checkpoint/restore.
    #[test]
    fn session_equiv_random(g in arb_graph(), seed in 0u64..500) {
        let deltas = adversarial_stream(&g, 3, seed);
        for kind in PARTITIONS {
            assert_session_equiv(&g, 0, &deltas, kind, 3, Mode::aap(), &[],
                &format!("random[{seed},{kind:?}]"));
        }
    }

    /// `full == chain-resolved` over random apply streams: a session
    /// checkpointing full baselines and one chaining differentials
    /// (compacting mid-stream) restore to byte-identical states.
    #[test]
    fn full_equals_chain_restore_random(g in arb_graph(), seed in 0u64..500) {
        let deltas = adversarial_stream(&g, 4, seed);
        for kind in PARTITIONS {
            assert_full_equals_chain_restore(&g, 0, &deltas, kind, 3,
                &format!("fullchain[{seed},{kind:?}]"));
        }
    }
}

/// Crash-mid-append recovery: a torn final log record (the only thing a
/// crash between `apply_inner` and the append's sync can leave) must
/// not brick the directory — restore drops the unacknowledged record,
/// truncates the log, and lands at the prefix state.
#[test]
fn restore_survives_a_torn_log_tail() {
    let g = grape_aap::graph::generate::small_world(80, 2, 0.2, 4);
    let dir = scratch_dir("torn");
    let mut session = Session::builder(g.clone())
        .partition(edge_cut(2))
        .program("sssp", Sssp)
        .durability(DurabilityPolicy::new(&dir).differential(false))
        .unwrap()
        .open()
        .unwrap();
    session.query::<Sssp>("sssp", &0).unwrap();
    let mut b = DeltaBuilder::new();
    b.add_edge(0, 40, 1);
    session.apply(&b.build()).unwrap();
    let after_first = session.query::<Sssp>("sssp", &0).unwrap();
    let mut b = DeltaBuilder::new();
    b.add_edge(0, 41, 1);
    session.apply(&b.build()).unwrap();
    drop(session);

    // Tear the last record (crash mid-append of batch 2).
    let log = dir.join("deltas.0.dlog");
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() - 2]).unwrap();

    let mut restored: Session<(), u32, _> =
        Session::restore(&dir).program("sssp", Sssp).open().expect("torn tail must recover");
    assert_eq!(
        restored.query::<Sssp>("sssp", &0).unwrap(),
        after_first,
        "restore lands at the last durably-acknowledged batch"
    );
    // The truncated log is appendable: serving continues durably.
    let mut b = DeltaBuilder::new();
    b.add_edge(0, 42, 1);
    restored.apply(&b.build()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Restoring with fewer programs than the directory holds is refused:
/// a later checkpoint would silently drop the unregistered program's
/// durable warm state.
#[test]
fn restore_refuses_unregistered_program_state() {
    let g = grape_aap::graph::generate::small_world(60, 2, 0.2, 8);
    let dir = scratch_dir("unreg");
    let mut session = Session::builder(g)
        .partition(edge_cut(2))
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .durability(DurabilityPolicy::new(&dir).differential(false))
        .unwrap()
        .open()
        .unwrap();
    session.query::<Sssp>("sssp", &0).unwrap();
    session.query::<ConnectedComponents>("cc", &()).unwrap();
    session.checkpoint().unwrap();
    drop(session);

    let err = Session::<(), u32, _>::restore(&dir)
        .program("sssp", Sssp)
        .open()
        .err()
        .expect("missing 'cc' registration must be refused");
    assert!(
        matches!(&err, SessionError::UnregisteredProgramState { name } if name == "cc"),
        "{err}"
    );
    // Registering both resumes fine.
    let mut ok: Session<(), u32, _> = Session::restore(&dir)
        .program("sssp", Sssp)
        .program("cc", ConnectedComponents)
        .open()
        .unwrap();
    ok.query::<Sssp>("sssp", &0).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Durable re-query semantics, pinned: switching the retained query is
/// an in-memory event until the next checkpoint — restore resumes the
/// last checkpointed query, replays the acknowledged delta stream onto
/// it, and a re-query of the newer value is one correct cold run.
#[test]
fn restore_resumes_the_checkpointed_query() {
    let g = grape_aap::graph::generate::small_world(90, 2, 0.2, 13);
    let dir = scratch_dir("requery");
    let mut session = Session::builder(g.clone())
        .partition(edge_cut(3))
        .program("sssp", Sssp)
        .durability(DurabilityPolicy::new(&dir).differential(false))
        .unwrap()
        .open()
        .unwrap();
    session.query::<Sssp>("sssp", &0).unwrap();
    session.checkpoint().unwrap(); // durable: retained query = 0
                                   // In-memory switch of the retained query (explicit since ISSUE 6 —
                                   // plain `query` would serve 5 from the answer cache, not retain it).
    let from5 = session.retain_query::<Sssp>("sssp", &5).unwrap();
    assert!(session.output::<Sssp>("sssp").unwrap().is_some());
    let mut b = DeltaBuilder::new();
    b.add_edge(5, 30, 1);
    session.apply(&b.build()).unwrap(); // logged
    let from5_after = session.query::<Sssp>("sssp", &5).unwrap();
    let from0_after = {
        // What query 0 answers on the post-delta graph (fresh session).
        let g2 = grape_aap::delta::apply_to_graph(&g, &{
            let mut b = DeltaBuilder::new();
            b.add_edge(5, 30, 1);
            b.build()
        });
        let mut s =
            Session::builder(g2).partition(edge_cut(3)).program("sssp", Sssp).open().unwrap();
        s.query::<Sssp>("sssp", &0).unwrap()
    };
    drop(session);

    let mut restored: Session<(), u32, _> =
        Session::restore(&dir).program("sssp", Sssp).open().unwrap();
    assert_eq!(
        restored.retained_query::<Sssp>("sssp").unwrap(),
        Some(&0),
        "restore resumes the CHECKPOINTED query, not the later in-memory switch"
    );
    assert_eq!(
        restored.query::<Sssp>("sssp", &0).unwrap(),
        from0_after,
        "the logged delta replayed onto the checkpointed query"
    );
    assert_eq!(
        restored.query::<Sssp>("sssp", &5).unwrap(),
        from5_after,
        "re-querying the newer value is one correct cold run"
    );
    assert_ne!(from5, from5_after, "the delta actually changed query 5's answer");
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint + restore reclaim epochs stranded by a crash in the
/// flip-then-cleanup window: only the manifest's generation survives.
#[test]
fn stale_epoch_files_are_swept() {
    let g = grape_aap::graph::generate::small_world(50, 2, 0.2, 2);
    let dir = scratch_dir("sweep");
    let mut session = Session::builder(g)
        .partition(edge_cut(2))
        .program("sssp", Sssp)
        .durability(DurabilityPolicy::new(&dir).differential(false))
        .unwrap()
        .open()
        .unwrap();
    session.query::<Sssp>("sssp", &0).unwrap();
    session.checkpoint().unwrap(); // epoch 1
    drop(session);
    // Simulate the crash window: plant a stranded old generation.
    std::fs::write(dir.join("graph.0.snap"), b"stranded").unwrap();
    std::fs::write(dir.join("state.sssp.0.snap"), b"stranded").unwrap();
    std::fs::write(dir.join("deltas.0.dlog"), b"stranded").unwrap();

    let _restored: Session<(), u32, _> =
        Session::restore(&dir).program("sssp", Sssp).open().unwrap();
    assert!(!dir.join("graph.0.snap").exists(), "stale epoch swept at restore");
    assert!(!dir.join("state.sssp.0.snap").exists());
    assert!(!dir.join("deltas.0.dlog").exists());
    assert!(dir.join("graph.1.snap").exists(), "current epoch untouched");
    std::fs::remove_dir_all(&dir).ok();
}
