//! Property test: the change-proportional shortest-path kernel
//! (`algos::common::dijkstra_from_seeds`: `O(1)` emission test, no heap
//! traffic for edgeless copies, sparse emission list) is observationally
//! **identical** to the straightforward kernel it replaced
//! (`aap_testkit::reference_dijkstra_from_seeds`) — same distances, same
//! emitted copies in the same order, same charged work — across random
//! graphs (directed ones with sinks included), hash edge-cut and
//! vertex-cut partitions, and random seed sets with mirror seeds,
//! `INF`-valued seeds and duplicate seeds. Identical work and emission
//! order are what keep the simulator's virtual time and
//! `BENCH_baseline.json` unmoved.

use aap_testkit::{arb_graph, build_parts, reference_dijkstra_from_seeds, PARTITIONS};
use grape_aap::algos::common::{dijkstra_from_seeds, emit_policy, INF};
use grape_aap::graph::{generate, Graph, LocalId};
use proptest::prelude::*;

/// `arb_graph` plus sparse directed graphs, where many vertices are sinks
/// (no out-edges anywhere) and so never enter the new kernel's heap.
fn arb_graph_with_sinks() -> impl Strategy<Value = Graph<(), u32>> {
    prop_oneof![
        arb_graph(),
        (10usize..100, 0u64..50).prop_map(|(n, s)| generate::uniform(n, n / 2 + 1, true, s)),
    ]
}

/// Deterministic per-vertex scramble for the prior distances.
fn mix(seed: u64, l: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ l.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 31;
    x.wrapping_mul(0x94d0_49bb_1331_11eb) >> 17
}

proptest! {
    #![proptest_config(ProptestConfig { cases: aap_testkit::cases(128), ..ProptestConfig::default() })]

    #[test]
    fn kernel_matches_reference(
        g in arb_graph_with_sinks(),
        m in 1usize..6,
        seed in 0u64..10_000,
        picks in proptest::collection::vec((0usize..10_000, 0u64..4, 0u64..60), 0..12),
        duplicate in 0usize..3,
    ) {
        for kind in PARTITIONS {
            for frag in &build_parts(&g, kind, m) {
                let n = frag.local_count();
                if n == 0 {
                    continue;
                }
                // Prior state: a mix of unreached (`INF`) and arbitrary
                // finite upper bounds, as a mid-run `IncEval` sees.
                let prior: Vec<u64> = (0..n as u64)
                    .map(|l| if mix(seed, l).is_multiple_of(3) { INF } else { mix(seed, l) % 400 })
                    .collect();
                // Seeds land anywhere — owned or mirror — and either keep
                // their prior value (possibly `INF`) or take a small one.
                let mut dist = prior.clone();
                let mut seeds: Vec<LocalId> = Vec::new();
                for &(at, keep, d) in &picks {
                    let l = (at % n) as LocalId;
                    if keep != 0 {
                        dist[l as usize] = dist[l as usize].min(d);
                    }
                    seeds.push(l);
                }
                for i in 0..duplicate.min(seeds.len()) {
                    seeds.push(seeds[i]);
                }

                let mut want_dist = dist.clone();
                let mut changed = Vec::new();
                let want_work = reference_dijkstra_from_seeds(
                    frag, &mut want_dist, &seeds, |&w| w as u64, &mut changed,
                );
                let want_emitted: Vec<LocalId> =
                    changed.into_iter().filter(|&l| emit_policy(frag, l)).collect();

                let mut emitted = Vec::new();
                let work =
                    dijkstra_from_seeds(frag, &mut dist, &seeds, |&w| w as u64, &mut emitted);

                prop_assert_eq!(&dist, &want_dist, "{:?} fragment {}: dist", kind, frag.id());
                prop_assert_eq!(&emitted, &want_emitted, "{:?} fragment {}: emitted", kind, frag.id());
                prop_assert_eq!(work, want_work, "{:?} fragment {}: work", kind, frag.id());
            }
        }
    }
}
