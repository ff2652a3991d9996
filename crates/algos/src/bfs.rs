//! Breadth-first search (hop counts) as a PIE program — SSSP with unit
//! weights, exercising the same machinery over arbitrary edge data.

use crate::common::{dijkstra_from_seeds, gather_owned, INF};
use aap_core::pie::{Messages, PieProgram, UpdateCtx};
use aap_graph::{Fragment, LocalId, VertexId};
use std::sync::Arc;

/// BFS PIE program: computes hop distance from the query vertex. Works over
/// any edge data type (weights are ignored).
#[derive(Debug, Default, Clone, Copy)]
pub struct Bfs;

/// Per-fragment BFS state.
#[derive(Debug)]
pub struct BfsState {
    /// `dist[l]` = hops from the source to local vertex `l`.
    pub dist: Vec<u64>,
}

impl<V: Sync + Send, E: Sync + Send> PieProgram<V, E> for Bfs {
    type Query = VertexId;
    type Val = u64;
    type State = BfsState;
    type Out = Vec<u64>;

    fn combine(&self, a: &mut u64, b: u64) -> bool {
        if b < *a {
            *a = b;
            true
        } else {
            false
        }
    }

    fn peval(&self, src: &VertexId, frag: &Fragment<V, E>, ctx: &mut UpdateCtx<u64>) -> BfsState {
        let mut dist = vec![INF; frag.local_count()];
        let mut emitted = Vec::new();
        if let Some(l) = frag.local(*src) {
            dist[l as usize] = 0;
            let work = dijkstra_from_seeds(frag, &mut dist, &[l], |_| 1, &mut emitted);
            ctx.charge_work(work);
        }
        for l in emitted {
            ctx.send(l, dist[l as usize]);
        }
        BfsState { dist }
    }

    fn inceval(
        &self,
        _src: &VertexId,
        frag: &Fragment<V, E>,
        state: &mut BfsState,
        msgs: &mut Messages<u64>,
        ctx: &mut UpdateCtx<u64>,
    ) {
        let mut seeds: Vec<LocalId> = Vec::new();
        for (l, d) in msgs.drain(..) {
            if d < state.dist[l as usize] {
                state.dist[l as usize] = d;
                seeds.push(l);
                ctx.note_effective(1);
            } else {
                ctx.note_redundant(1);
            }
        }
        if seeds.is_empty() {
            return;
        }
        let mut emitted = Vec::new();
        let work = dijkstra_from_seeds(frag, &mut state.dist, &seeds, |_| 1, &mut emitted);
        ctx.charge_work(work);
        for l in emitted {
            ctx.send(l, state.dist[l as usize]);
        }
    }

    fn assemble(
        &self,
        _src: &VertexId,
        frags: &[Arc<Fragment<V, E>>],
        states: Vec<BfsState>,
    ) -> Vec<u64> {
        gather_owned(frags, &states, INF, |s, _, l| s.dist[l as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use aap_core::{Engine, EngineOpts, Mode};
    use aap_graph::generate;
    use aap_graph::partition::{build_fragments, hash_partition};

    #[test]
    fn matches_sequential_bfs() {
        let g = generate::small_world(250, 2, 0.05, 13);
        let expect = seq::bfs(&g, 3);
        for mode in [Mode::Bsp, Mode::Ap, Mode::aap()] {
            let frags = build_fragments(&g, &hash_partition(&g, 5));
            let engine =
                Engine::new(frags, EngineOpts { threads: 4, mode, max_rounds: Some(100_000) });
            assert_eq!(engine.run(&Bfs, &3).out, expect);
        }
    }

    #[test]
    fn hop_counts_on_lattice_diagonal() {
        let g = generate::lattice2d(6, 6, 1);
        let frags = build_fragments(&g, &hash_partition(&g, 3));
        let engine = Engine::new(frags, EngineOpts::default());
        let out = engine.run(&Bfs, &0);
        // opposite corner is 5 + 5 hops away
        assert_eq!(out.out[35], 10);
    }
}
