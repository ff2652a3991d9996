//! Snapshot-format robustness: corrupted inputs must come back as
//! *tagged* errors (truncation, bad magic/version, checksum mismatch —
//! all carrying the offending path, mirroring `aap_graph::io`), and
//! intact inputs must round-trip byte-identically on both partition
//! kinds.

use aap_algos::SsspState;
use aap_core::{Engine, EngineOpts, PortableRunState, RunState};
use aap_graph::partition::{
    build_fragments_n, build_fragments_vertex_cut, hash_partition, vertex_cut_partition,
};
use aap_graph::{generate, Fragment, Graph};
use aap_snapshot::{
    load_snapshot, save_snapshot, snapshot_from_bytes, snapshot_to_bytes, DeltaLog, ErrorKind,
    SnapshotError,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aap_snap_{}_{name}", std::process::id()))
}

fn sample_frags() -> Vec<Fragment<(), u32>> {
    let g = generate::small_world(60, 2, 0.2, 5);
    build_fragments_n(&g, &hash_partition(&g, 3), 3)
}

fn sample_bytes() -> Vec<u8> {
    snapshot_to_bytes::<(), u32, SsspState, _>(&sample_frags(), None)
}

fn decode(bytes: &[u8]) -> Result<(), SnapshotError> {
    snapshot_from_bytes::<(), u32, SsspState>(bytes).map(|_| ())
}

#[test]
fn truncated_snapshot_is_tagged() {
    let bytes = sample_bytes();
    // Every strict prefix must fail with Truncated (or, for a cut that
    // lands exactly on a section boundary, a checksum/corrupt error) —
    // never a panic, never silent success.
    for cut in [0, 4, 11, 13, bytes.len() / 2, bytes.len() - 1] {
        let err = decode(&bytes[..cut]).expect_err("prefix must not parse");
        assert!(
            matches!(
                err.kind(),
                ErrorKind::Truncated { .. }
                    | ErrorKind::Checksum { .. }
                    | ErrorKind::Corrupt { .. }
            ),
            "cut at {cut}: {err}"
        );
    }
}

#[test]
fn cross_fragment_inconsistency_is_tagged_not_a_panic() {
    // Hand-build a partition where each fragment passes every local
    // check but fragment 0's mirror claims an owner that lacks the
    // vertex — loading must reject it instead of panicking inside the
    // routing-table rebuild.
    use aap_graph::Graph;
    let g0: Graph<(), u32> = Graph::from_csr(true, vec![(), ()], vec![0, 1, 1], vec![1], vec![7]);
    let f0 = Fragment::from_saved_parts(
        0,
        2,
        false,
        g0,
        vec![0, 5], // mirror of global 5, supposedly owned by fragment 1
        1,
        vec![],
        vec![0],
        vec![1],
        vec![0, 0],
        vec![],
    );
    let g1: Graph<(), u32> = Graph::from_csr(true, vec![()], vec![0, 0], vec![], vec![]);
    let f1 = Fragment::from_saved_parts(
        1,
        2,
        false,
        g1,
        vec![9],
        1,
        vec![],
        vec![],
        vec![],
        vec![0, 0],
        vec![],
    );
    let bytes = snapshot_to_bytes::<(), u32, SsspState, _>(&[f0, f1], None);
    let err = decode(&bytes).expect_err("incoherent partition must not load");
    assert!(matches!(err.kind(), ErrorKind::Corrupt { .. }), "{err}");
}

/// Edgeless fragments, fragment `i` owning the ascending globals
/// `owned[i]`: each passes every per-fragment check, whatever ids it
/// claims.
fn owning(vertex_cut: bool, owned: &[Vec<u32>]) -> Vec<Fragment<(), u32>> {
    let m = owned.len() as u16;
    let mut frags = Vec::new();
    for (i, globals) in owned.iter().enumerate() {
        let n = globals.len();
        let g: Graph<(), u32> = Graph::from_csr(true, vec![(); n], vec![0; n + 1], vec![], vec![]);
        frags.push(Fragment::from_saved_parts(
            i as u16,
            m,
            vertex_cut,
            g,
            globals.clone(),
            n,
            vec![],
            vec![],
            vec![],
            vec![0; n + 1],
            vec![],
        ));
    }
    frags
}

/// A checksum-valid partition whose owned globals are not exactly
/// `0..n`, each once, must not load: the first query's gather would
/// index out of bounds.
fn wrong_global_ids_are_tagged_not_a_panic(vertex_cut: bool) {
    let sound = owning(vertex_cut, &[(0..20).collect(), (20..40).collect()]);
    decode(&snapshot_to_bytes::<(), u32, SsspState, _>(&sound, None)).expect("0..40 loads");
    // 40 vertices, one of them claiming global 166.
    let out_of_range = owning(vertex_cut, &[(0..19).chain([166]).collect(), (20..40).collect()]);
    // Vertex 19 owned by both fragments, 39 by none.
    let owned_twice = owning(vertex_cut, &[(0..20).collect(), (19..39).collect()]);
    for frags in [out_of_range, owned_twice] {
        let bytes = snapshot_to_bytes::<(), u32, SsspState, _>(&frags, None);
        let err = decode(&bytes).expect_err("a broken global id space must not load");
        assert!(matches!(err.kind(), ErrorKind::Corrupt { .. }), "{err}");
    }
}

#[test]
fn edge_cut_global_ids_must_be_0_to_n_each_once() {
    wrong_global_ids_are_tagged_not_a_panic(false);
}

#[test]
fn vertex_cut_global_ids_must_be_0_to_n_each_once() {
    wrong_global_ids_are_tagged_not_a_panic(true);
}

#[test]
fn trailing_garbage_after_last_section_is_tagged() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(b"junk appended after a valid snapshot");
    let err = decode(&bytes).unwrap_err();
    assert!(matches!(err.kind(), ErrorKind::Corrupt { .. }), "{err}");
}

#[test]
fn bad_magic_is_tagged() {
    let mut bytes = sample_bytes();
    bytes[0] ^= 0xFF;
    let err = decode(&bytes).unwrap_err();
    assert!(matches!(err.kind(), ErrorKind::BadMagic), "{err}");
}

#[test]
fn bad_version_is_tagged() {
    let mut bytes = sample_bytes();
    bytes[8] = 0x2A; // version word sits right after the 8-byte magic
    bytes[9] = 0;
    let err = decode(&bytes).unwrap_err();
    match err.kind() {
        ErrorKind::BadVersion { found: 0x2A, supported: 1 } => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn checksum_mismatch_is_tagged() {
    let mut bytes = sample_bytes();
    // Flip one payload byte deep inside the fragment section (past
    // magic + version + tag + length).
    let at = 12 + 4 + 8 + 40;
    bytes[at] ^= 0x01;
    let err = decode(&bytes).unwrap_err();
    assert!(matches!(err.kind(), ErrorKind::Checksum { .. }), "{err}");
}

#[test]
fn file_errors_carry_the_path() {
    let err = load_snapshot::<(), u32, SsspState, _>("/definitely/not/a/file.snap").unwrap_err();
    assert!(err.to_string().contains("/definitely/not/a/file.snap"));

    // Parse-side errors are path-tagged too, not just I/O ones.
    let path = tmp("badmagic");
    std::fs::write(&path, b"NOTASNAPxxxxxxxxxxxx").unwrap();
    let err = load_snapshot::<(), u32, SsspState, _>(&path).unwrap_err();
    assert!(matches!(err.kind(), ErrorKind::BadMagic), "{err}");
    assert!(err.to_string().contains(path.to_str().unwrap()));
    std::fs::remove_file(&path).ok();
}

#[test]
fn delta_log_torn_tail_and_corruption_are_tagged() {
    use aap_delta::DeltaBuilder;
    let path = tmp("log");
    let mut log = DeltaLog::create(&path).unwrap();
    let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
    b.add_edge(1, 2, 9);
    let d1 = b.build();
    let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
    b.remove_vertex(4);
    b.set_weight(2, 3, 1);
    let d2 = b.build();
    log.write_delta(&d1).unwrap();
    log.write_delta(&d2).unwrap();
    drop(log);

    // Intact log replays both deltas, in order.
    let deltas = DeltaLog::replay::<(), u32, _>(&path).unwrap();
    assert_eq!(deltas.len(), 2);
    assert_eq!(deltas[0].edges_added(), d1.edges_added());
    assert_eq!(deltas[1].vertices_removed(), d2.vertices_removed());
    assert_eq!(deltas[1].weight_updates(), d2.weight_updates());

    // Torn tail (simulated crash mid-append): tagged, not silent.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let err = DeltaLog::replay::<(), u32, _>(&path).unwrap_err();
    assert!(matches!(err.kind(), ErrorKind::Truncated { .. }), "{err}");
    assert!(err.to_string().contains(path.to_str().unwrap()));

    // Flipped record byte: checksum catches it.
    let mut flipped = bytes.clone();
    let at = flipped.len() - 6;
    flipped[at] ^= 0x80;
    std::fs::write(&path, &flipped).unwrap();
    let err = DeltaLog::replay::<(), u32, _>(&path).unwrap_err();
    assert!(matches!(err.kind(), ErrorKind::Checksum { .. }), "{err}");

    // Appending to a non-log file is rejected up front.
    std::fs::write(&path, b"hello world, not a log").unwrap();
    let err = DeltaLog::open_append(&path).unwrap_err();
    assert!(matches!(err.kind(), ErrorKind::BadMagic), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_append_continues_an_existing_log() {
    use aap_delta::DeltaBuilder;
    let path = tmp("append");
    let mut log = DeltaLog::create(&path).unwrap();
    let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
    b.add_edge(0, 1, 1);
    log.write_delta(&b.build()).unwrap();
    drop(log);

    let mut log = DeltaLog::open_append(&path).unwrap();
    let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
    b.add_edge(2, 3, 7);
    log.write_delta(&b.build()).unwrap();
    drop(log);

    let deltas = DeltaLog::replay::<(), u32, _>(&path).unwrap();
    assert_eq!(deltas.len(), 2);
    assert_eq!(deltas[1].edges_added(), &[(2, 3, 7)]);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

fn arb_graph() -> impl Strategy<Value = Graph<(), u32>> {
    prop_oneof![
        (10usize..100, 2usize..8, 0u64..50).prop_map(|(n, ef, s)| generate::uniform(
            n,
            n * ef,
            true,
            s
        )),
        (10usize..100, 1usize..3, 0u64..50).prop_map(|(n, k, s)| generate::small_world(
            n,
            k.min(n - 1).max(1),
            0.3,
            s
        )),
    ]
}

fn assert_fragments_equal(a: &[Fragment<(), u32>], b: &[Fragment<(), u32>]) {
    assert_eq!(a.len(), b.len());
    for (fa, fb) in a.iter().zip(b) {
        assert_eq!(fa.id(), fb.id());
        assert_eq!(fa.is_vertex_cut(), fb.is_vertex_cut());
        assert_eq!(fa.globals(), fb.globals());
        assert_eq!(fa.owned_count(), fb.owned_count());
        assert_eq!(fa.inner_in(), fb.inner_in());
        assert_eq!(fa.inner_out(), fb.inner_out());
        assert_eq!(fa.mirror_owners(), fb.mirror_owners());
        assert_eq!(fa.holder_csr(), fb.holder_csr());
        for l in fa.local_vertices() {
            assert_eq!(fa.neighbors(l), fb.neighbors(l));
            assert_eq!(fa.edge_data(l), fb.edge_data(l));
            // Routing was re-derived, not loaded: it must still agree.
            assert_eq!(fa.routing().fanout(l), fb.routing().fanout(l));
        }
        assert_eq!(fa.routing().dests(), fb.routing().dests());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// save → load → save is byte-identical, and the loaded fragments
    /// (with re-derived routing) are structurally equal — for edge-cut
    /// and vertex-cut partitions, with and without retained RunState.
    #[test]
    fn snapshot_roundtrips_byte_identically(g in arb_graph(), m in 2usize..6, vc in 0u8..2) {
        let vertex_cut = vc == 1;
        let frags = if vertex_cut {
            build_fragments_vertex_cut(&g, &vertex_cut_partition(&g, m))
        } else {
            build_fragments_n(&g, &hash_partition(&g, m), m)
        };

        // Real retained state from a real run, so dist vectors have the
        // genuine shape (owned + mirrors per fragment).
        let engine = Engine::new(frags, EngineOpts { threads: 2, ..Default::default() });
        let (_, state): (_, RunState<SsspState>) = engine.run_retained(&aap_algos::Sssp, &0);
        let portable = state.export(engine.fragments());

        let bytes = snapshot_to_bytes(engine.fragments(), Some(&portable));
        let loaded = snapshot_from_bytes::<(), u32, SsspState>(&bytes).unwrap();
        let refs: Vec<&Fragment<(), u32>> = engine.fragments().iter().map(|a| &**a).collect();
        assert_fragments_equal(&refs.iter().map(|f| (*f).clone()).collect::<Vec<_>>(), &loaded.fragments);

        // Re-encoding the loaded snapshot reproduces the bytes exactly.
        let loaded_state = loaded.state.expect("state section present");
        let again = snapshot_to_bytes(&loaded.fragments, Some(&loaded_state));
        prop_assert_eq!(&bytes, &again, "re-encode must be byte-identical");

        // And the re-attached state is the saved state, remap-free.
        let (restored, remaps) = loaded_state.attach(engine.fragments()).unwrap();
        prop_assert!(remaps.iter().all(|r| r.is_identity()));
        for (a, b) in restored.states().iter().zip(state.states()) {
            prop_assert_eq!(&a.dist, &b.dist);
        }
    }

    /// A topology-only snapshot (no state section) round-trips too.
    #[test]
    fn topology_only_roundtrip(g in arb_graph(), m in 2usize..5) {
        let frags = build_fragments_n(&g, &hash_partition(&g, m), m);
        let bytes = snapshot_to_bytes::<(), u32, SsspState, _>(&frags, None);
        let loaded = snapshot_from_bytes::<(), u32, SsspState>(&bytes).unwrap();
        prop_assert!(loaded.state.is_none());
        let again = snapshot_to_bytes::<(), u32, SsspState, _>(&loaded.fragments, None);
        prop_assert_eq!(&bytes, &again);
    }

    /// File round-trip: what `save_snapshot` writes, `load_snapshot`
    /// reads back unchanged.
    #[test]
    fn file_roundtrip(seed in 0u64..1000) {
        let g = generate::small_world(40, 2, 0.2, seed);
        let frags = build_fragments_n(&g, &hash_partition(&g, 3), 3);
        let path = tmp(&format!("prop_{seed}"));
        save_snapshot::<(), u32, SsspState, _, _>(&path, &frags, None).unwrap();
        let loaded = load_snapshot::<(), u32, SsspState, _>(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_fragments_equal(&frags, &loaded.fragments);
    }
}

#[test]
fn attach_remaps_across_a_renumbered_partition() {
    // The stable-vertex-id contract: state exported against one
    // partition attaches to a *different* partition of the same graph
    // through real (non-identity) remaps keyed by global id.
    let g = generate::small_world(50, 2, 0.2, 9);
    let frags_a = build_fragments_n(&g, &hash_partition(&g, 3), 3);
    let engine_a = Engine::new(frags_a, EngineOpts::default());
    let (_, state): (_, RunState<SsspState>) = engine_a.run_retained(&aap_algos::Sssp, &0);
    let portable: PortableRunState<SsspState> = state.export(engine_a.fragments());

    // Same fragment count, different assignment rule -> different
    // locals. Attach must succeed for every owned vertex (ownership
    // moved, so old owned may be missing -> that IS an error), so remap
    // against a partition that keeps ownership but reorders mirrors:
    // vertex-cut of the same graph has different layout entirely, so
    // instead verify the error surfaces cleanly there.
    let frags_b = build_fragments_vertex_cut(&g, &vertex_cut_partition(&g, 3));
    let engine_b = Engine::new(frags_b, EngineOpts::default());
    match portable.attach(engine_b.fragments()) {
        // Either a clean remap (all saved vertices found somewhere) ...
        Ok((restored, remaps)) => {
            assert_eq!(restored.len(), 3);
            assert!(!remaps.iter().all(|r| r.is_identity()), "layouts genuinely differ");
        }
        // ... or a tagged missing-vertex error; never a panic.
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains("absent"), "{msg}");
        }
    }
}

// ---------------------------------------------------------------------
// Per-program state files (the multi-program session format).
// ---------------------------------------------------------------------

#[test]
fn program_state_roundtrips_and_reattaches() {
    use aap_snapshot::{program_state_from_bytes, program_state_to_bytes};
    let g = generate::small_world(60, 2, 0.2, 5);
    let frags = build_fragments_n(&g, &hash_partition(&g, 3), 3);
    let engine = Engine::new(frags, EngineOpts::default());
    let (_, state): (_, RunState<SsspState>) = engine.run_retained(&aap_algos::Sssp, &7);
    let portable = state.export(engine.fragments());

    let bytes = program_state_to_bytes(&7u32, &portable);
    let (q, decoded) = program_state_from_bytes::<u32, SsspState>(&bytes).unwrap();
    assert_eq!(q, 7, "the query travels with the state");
    assert_eq!(&bytes, &program_state_to_bytes(&q, &decoded), "re-encode is byte-identical");
    let (restored, remaps) = decoded.attach(engine.fragments()).unwrap();
    assert!(remaps.iter().all(|r| r.is_identity()));
    assert_eq!(restored, state, "re-attached state equals the exported one");
}

#[test]
fn program_state_file_errors_are_tagged() {
    use aap_snapshot::{load_program_state, program_state_to_bytes, save_program_state};
    let g = generate::small_world(40, 2, 0.2, 3);
    let frags = build_fragments_n(&g, &hash_partition(&g, 2), 2);
    let engine = Engine::new(frags, EngineOpts::default());
    let (_, state): (_, RunState<SsspState>) = engine.run_retained(&aap_algos::Sssp, &0);
    let portable = state.export(engine.fragments());
    let path = tmp("program_state");
    save_program_state(&path, &0u32, &portable).unwrap();
    let (q, loaded) = load_program_state::<u32, SsspState, _>(&path).unwrap();
    assert_eq!(q, 0);
    assert_eq!(loaded.len(), 2);

    // Truncations at every framing boundary are tagged, never a panic.
    let bytes = program_state_to_bytes(&0u32, &portable);
    for cut in [0, 4, 11, 13, bytes.len() / 2, bytes.len() - 1] {
        let err = aap_snapshot::program_state_from_bytes::<u32, SsspState>(&bytes[..cut])
            .expect_err("prefix must not parse");
        assert!(
            matches!(
                err.kind(),
                ErrorKind::Truncated { .. }
                    | ErrorKind::Checksum { .. }
                    | ErrorKind::Corrupt { .. }
            ),
            "cut at {cut}: {err}"
        );
    }
    // A foreign file (snapshot magic) is a BadMagic, path-tagged.
    let err = aap_snapshot::program_state_from_bytes::<u32, SsspState>(&sample_bytes())
        .expect_err("snapshot file is not a program-state file");
    assert!(matches!(err.kind(), ErrorKind::BadMagic), "{err}");
    // Checksum flip in the payload.
    let mut flipped = bytes.clone();
    let mid = flipped.len() - 10;
    flipped[mid] ^= 0x40;
    let err = aap_snapshot::program_state_from_bytes::<u32, SsspState>(&flipped)
        .expect_err("flipped payload byte must fail");
    assert!(matches!(err.kind(), ErrorKind::Checksum { .. } | ErrorKind::Corrupt { .. }), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn log_recover_drops_only_a_torn_tail() {
    use aap_delta::DeltaBuilder;
    let path = tmp("recover");
    let mut log = DeltaLog::create(&path).unwrap();
    for i in 0..3u32 {
        let mut b: aap_delta::DeltaBuilder<(), u32> = DeltaBuilder::new();
        b.add_edge(i, i + 1, 1);
        log.write_delta(&b.build()).unwrap();
    }
    drop(log);
    let intact = std::fs::metadata(&path).unwrap().len();

    // An intact log recovers everything, untouched.
    let (deltas, torn) = DeltaLog::recover::<(), u32, _>(&path).unwrap();
    assert_eq!((deltas.len(), torn), (3, false));
    assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);

    // Tear the tail (crash mid-append): the strict read refuses, the
    // restart read drops exactly the torn record and truncates.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    assert!(DeltaLog::replay::<(), u32, _>(&path).is_err(), "strict replay must refuse");
    let (deltas, torn) = DeltaLog::recover::<(), u32, _>(&path).unwrap();
    assert_eq!((deltas.len(), torn), (2, true));
    // The file is now the valid prefix: appendable and strictly readable.
    let mut log = DeltaLog::open_append(&path).unwrap();
    let mut b: aap_delta::DeltaBuilder<(), u32> = DeltaBuilder::new();
    b.add_edge(9, 10, 1);
    log.write_delta(&b.build()).unwrap();
    drop(log);
    assert_eq!(DeltaLog::replay::<(), u32, _>(&path).unwrap().len(), 3);

    // Mid-file corruption is NOT a torn tail: a bit flip in an early
    // record (acknowledged history, more records follow) must fail
    // loudly, never silently truncate the acknowledged suffix away.
    let intact_bytes = std::fs::read(&path).unwrap();
    let mut flipped = intact_bytes.clone();
    flipped[20] ^= 0x01; // inside record 0's payload
    std::fs::write(&path, &flipped).unwrap();
    let err = DeltaLog::recover::<(), u32, _>(&path)
        .expect_err("mid-file corruption must not be forgiven");
    assert!(matches!(err.kind(), ErrorKind::Checksum { .. } | ErrorKind::Corrupt { .. }), "{err}");
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        intact_bytes.len() as u64,
        "a refused recover must not touch the file"
    );

    // A corrupted LENGTH field that claims past EOF is tail-shaped but
    // must not be forgiven either: acknowledged records follow it (the
    // resync scan finds them), so recover fails loudly and leaves the
    // file alone instead of truncating 2 acknowledged records away.
    let mut lenflip = intact_bytes.clone();
    lenflip[15] = 0x40; // record 0's len high byte -> frame "reaches EOF"
    std::fs::write(&path, &lenflip).unwrap();
    let err = DeltaLog::recover::<(), u32, _>(&path)
        .expect_err("a mid-file length-field flip must not be forgiven");
    assert!(matches!(err.kind(), ErrorKind::Truncated { .. }), "{err}");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_bytes.len() as u64);

    // A foreign file still fails recover outright (not a torn tail).
    std::fs::write(&path, sample_bytes()).unwrap();
    assert!(matches!(
        DeltaLog::recover::<(), u32, _>(&path).unwrap_err().kind(),
        ErrorKind::BadMagic
    ));
    std::fs::remove_file(&path).ok();
}
