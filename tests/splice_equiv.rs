//! Splice equivalence: streams of delta batches applied in place to hash
//! edge-cut fragments must leave exactly what a from-scratch
//! `build_fragments_n` of the edited graph builds — local id layout,
//! border sets, mirror owners, holder CSR, routing fan-out, and every
//! row as a multiset of `(target global, weight)` (the order of parallel
//! copies is the one thing a rebuild does not pin) — after **every**
//! batch, and the threaded apply must match the serial one byte for byte.
//!
//! The batches lean on what the splice treats specially: inserts that
//! create mirrors, removals that take the last edge into one, parallel
//! copies, overwrites named twice, vertex additions and isolations, and
//! batches confined to one fragment. The comparison against the previous
//! repack implementation (remaps, seeds, weight tallies, dirty bits)
//! lives next to that implementation, in `aap_graph::mutate`'s tests.

use aap_testkit::cases;
use grape_aap::delta::apply::{apply_to_fragments_par, apply_to_fragments_with, apply_to_graph};
use grape_aap::delta::generate::Xorshift;
use grape_aap::graph::mutate::EditBuffers;
use grape_aap::graph::partition::{build_fragments_n, hash_partition};
use grape_aap::graph::{FragId, Graph};
use grape_aap::prelude::*;
use grape_aap::snapshot::snapshot_to_bytes;
use proptest::prelude::*;

/// One random batch against `g`; one in four confines every endpoint to
/// the vertices fragment 0 owns.
fn batch(g: &Graph<(), u32>, owner: &[FragId], rng: &mut Xorshift) -> GraphDelta<(), u32> {
    let n = g.num_vertices() as VertexId;
    let pool: Vec<VertexId> = if rng.below(4) == 0 {
        (0..n).filter(|&v| owner[v as usize] == 0).collect()
    } else {
        (0..n).collect()
    };
    let mut b: DeltaBuilder<(), u32> = DeltaBuilder::new();
    if pool.len() < 2 {
        return b.build();
    }
    let pick = |rng: &mut Xorshift| pool[rng.below(pool.len() as u64) as usize];
    let stored = |rng: &mut Xorshift| {
        let u = pool[rng.below(pool.len() as u64) as usize];
        let ts = g.neighbors(u);
        (!ts.is_empty()).then(|| (u, ts[rng.below(ts.len() as u64) as usize]))
    };
    // Inserts: random pairs make mirrors; re-adding a stored pair (or
    // naming an undirected pair from both ends) makes parallel copies.
    for _ in 0..rng.below(5) {
        let (u, v) = (pick(rng), pick(rng));
        if u != v {
            b.add_edge(u, v, 1 + rng.below(9) as u32);
            if rng.below(4) == 0 {
                b.add_edge(v, u, 1 + rng.below(9) as u32);
            }
        }
    }
    if let (0, Some((u, v))) = (rng.below(3), stored(rng)) {
        b.add_edge(u, v, 1 + rng.below(9) as u32);
    }
    // Removals: in sparse graphs most take the last edge into a mirror.
    for _ in 0..rng.below(4) {
        if let Some((u, v)) = stored(rng) {
            b.remove_edge(u, v);
        }
    }
    // Overwrites; from both ends of an undirected pair the stored copies
    // are named twice in one batch, the later entry winning.
    for _ in 0..rng.below(4) {
        if let Some((u, v)) = stored(rng) {
            b.set_weight(u, v, 1 + rng.below(30) as u32);
            if rng.below(3) == 0 {
                b.set_weight(v, u, 1 + rng.below(30) as u32);
            }
        }
    }
    if rng.below(4) == 0 {
        b.add_vertex(n, ());
        b.add_edge(n, pick(rng), 2);
    }
    if rng.below(4) == 0 {
        b.remove_vertex(pick(rng));
    }
    b.build()
}

fn assert_matches_rebuild(got: &[Fragment<(), u32>], g: &Graph<(), u32>, step: usize) {
    let m = got.len();
    let want = build_fragments_n(g, &hash_partition(g, m), m);
    for (f, e) in got.iter().zip(&want) {
        let at = format!("batch {step}, frag {}", f.id());
        assert_eq!(f.globals(), e.globals(), "{at}: locals");
        assert_eq!(f.owned_count(), e.owned_count(), "{at}: owned");
        assert_eq!(f.inner_in(), e.inner_in(), "{at}: inner_in");
        assert_eq!(f.inner_out(), e.inner_out(), "{at}: inner_out");
        assert_eq!(f.mirror_owners(), e.mirror_owners(), "{at}: mirror owners");
        assert_eq!(f.holder_csr(), e.holder_csr(), "{at}: holder CSR");
        assert_eq!(f.routing().dests(), e.routing().dests(), "{at}: routing dests");
        for l in f.local_vertices() {
            assert_eq!(f.routing().fanout(l), e.routing().fanout(l), "{at}: fanout of {l}");
            let row = |x: &Fragment<(), u32>| {
                let mut r: Vec<_> = x.edges(l).map(|(t, d)| (x.global(t), *d)).collect();
                r.sort_unstable();
                r
            };
            assert_eq!(row(f), row(e), "{at}: row of vertex {}", f.global(l));
            // The splice's own ordering rule: ascending target global id.
            assert!(f.neighbors(l).windows(2).all(|w| f.global(w[0]) <= f.global(w[1])), "{at}");
        }
        assert_eq!(f.check_invariants(), Ok(()), "{at}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(128), ..ProptestConfig::default() })]

    #[test]
    fn spliced_stream_matches_rebuild_and_threads_match_serial(
        n in 8usize..70,
        density in 1usize..4,
        directed in 0u8..2,
        m in 2usize..6,
        batches in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Xorshift::new(seed);
        let mut b = if directed == 1 {
            GraphBuilder::new_directed(n)
        } else {
            GraphBuilder::new_undirected(n)
        };
        for _ in 0..n * density {
            let (u, v) = (rng.below(n as u64) as VertexId, rng.below(n as u64) as VertexId);
            if u != v {
                b.add_edge(u, v, 1 + rng.below(9) as u32);
            }
        }
        let mut g = b.build();
        let mut serial = build_fragments_n(&g, &hash_partition(&g, m), m);
        let mut threaded = serial.clone();
        let (mut bufs, mut par_bufs) = (EditBuffers::default(), EditBuffers::default());
        for step in 0..batches {
            let delta = batch(&g, &hash_partition(&g, m), &mut rng);
            g = apply_to_graph(&g, &delta);
            let a = {
                let mut refs: Vec<&mut Fragment<(), u32>> = serial.iter_mut().collect();
                apply_to_fragments_with(&mut refs, &delta, &mut bufs)
            };
            let b = {
                let mut refs: Vec<&mut Fragment<(), u32>> = threaded.iter_mut().collect();
                apply_to_fragments_par(&mut refs, &delta, &mut par_bufs, 4)
            };
            assert_matches_rebuild(&serial, &g, step);
            prop_assert_eq!(&a.remaps, &b.remaps);
            prop_assert_eq!(&a.seeds, &b.seeds);
            prop_assert_eq!(&a.changed, &b.changed);
            prop_assert_eq!(&a.summary, &b.summary);
            let bytes = |frags: &[Fragment<(), u32>]| {
                snapshot_to_bytes::<(), u32, (), _>(frags, None)
            };
            prop_assert!(bytes(&serial) == bytes(&threaded), "batch {}: threads = 4 diverged", step);
        }
    }
}
