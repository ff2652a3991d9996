//! Delta-based accumulative PageRank as a PIE program (§5.3).
//!
//! Following the paper (and Maiter), each vertex `v` keeps a score `Pv`
//! and an update variable `xv` (the *residual*), initially `1 − d`.
//! Propagation pushes `d · xv / Nv` to out-neighbours; border residuals
//! accumulate on mirrors and are shipped to owners, aggregated with
//! `faggr = sum`. The run reaches a fixpoint when every residual is below
//! the threshold `ε` — the same criterion as the paper's "sum of changes of
//! two consecutive iterations is below a threshold".
//!
//! Correctness under asynchrony (§5.3): `Pv = Σ_{p ∈ P} p(v) + (1 − d)`
//! over all paths `p` to `v`; each path's contribution is added exactly
//! once no matter the message order, because residual mass is *moved*, not
//! recomputed — so no bounded staleness is required.
//!
//! **Schedule.** Every `PEval`/`IncEval` round makes exactly one pass over
//! the owned vertices in ascending local id (CSR order). A vertex whose
//! residual is `≥ ε` moves it into its score and pushes `d · r / deg` to
//! its out-neighbours; owned neighbours with a higher id pick that mass up
//! later in the same pass (Gauss–Seidel). Mass pushed back to an
//! already-visited owned vertex is not chased now: if it leaves that vertex
//! at or above `ε`, the round asks for a local round
//! ([`UpdateCtx::request_local_round`]) and the leftover waits there — it
//! merges with whatever remote batches arrive meanwhile and is pushed by
//! the next round's pass. Mirror mass above `ε` is shipped at the end of
//! every round.
//!
//! Neither the fixpoint nor its error bound depends on this order. Mass is
//! only ever moved (a push adds to neighbours exactly what it removes from
//! the pusher, scaled by `d`), so any order of pushes — FIFO, CSR order,
//! deferred to a later round — sums the same path contributions. The run
//! ends only when no worker has buffered messages or requested a local
//! round, i.e. when every owned residual is `< ε` and no mirror holds
//! more than `ε` — the sequential reference's stopping rule, which gives
//! the `ε · (1 + #copies)` per-vertex error bound stated at the mirror
//! flush.
//!
//! Scope: edge-cut partitions (the paper's setting). Mirrors have no
//! out-edges, so they act purely as accumulators for cross-border mass.

use crate::common::gather_owned;
use aap_core::pie::{Messages, PieProgram, UpdateCtx};
use aap_graph::Fragment;
use std::sync::Arc;

/// PageRank PIE program. Query = `()`; parameters live on the program.
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    /// Damping factor `d` (paper uses 0.85).
    pub damping: f64,
    /// Convergence threshold `ε` on per-vertex residual mass.
    pub epsilon: f64,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank { damping: 0.85, epsilon: 1e-6 }
    }
}

/// Per-fragment PageRank state.
#[derive(Debug)]
pub struct PrState {
    /// Accumulated score per local vertex.
    pub score: Vec<f64>,
    /// Pending residual per local vertex.
    pub residual: Vec<f64>,
}

impl PageRank {
    /// One Gauss–Seidel pass over the owned vertices in ascending local id,
    /// then flush the mass accumulated on mirrors as messages. Requests a
    /// local round iff some owned residual is still `≥ ε` afterwards.
    fn propagate<V, E>(&self, frag: &Fragment<V, E>, st: &mut PrState, ctx: &mut UpdateCtx<f64>) {
        debug_assert!(!frag.is_vertex_cut(), "PageRank supports edge-cut partitions");
        let mut work: u64 = 0;
        let mut pending = false;
        for u in frag.owned_vertices() {
            let r = st.residual[u as usize];
            if r < self.epsilon {
                continue;
            }
            work += 1;
            st.residual[u as usize] = 0.0;
            st.score[u as usize] += r;
            let nbrs = frag.neighbors(u);
            if nbrs.is_empty() {
                continue;
            }
            work += nbrs.len() as u64;
            let push = self.damping * r / nbrs.len() as f64;
            for &v in nbrs {
                st.residual[v as usize] += push;
                // `v <= u` is an owned vertex this pass has already visited
                // (mirrors sort after every owned id); anything higher is
                // still ahead of the pass and picks the mass up itself.
                if v <= u && st.residual[v as usize] >= self.epsilon {
                    pending = true;
                }
            }
        }
        if pending {
            ctx.request_local_round();
        }
        // Flush mirror-accumulated mass to owners once it is worth a
        // message (≥ ε), mirroring GRAPE+'s segment-batched communication
        // (§6). Sub-ε mass parks on the mirror until more arrives; at the
        // fixpoint each mirror copy may retain < ε unshipped mass, so a
        // vertex's score error is bounded by ε · (1 + #copies) — the same
        // order as the sequential threshold error.
        let floor = self.epsilon;
        for m in frag.mirrors() {
            let r = st.residual[m as usize];
            if r > floor {
                st.residual[m as usize] = 0.0;
                ctx.send(m, r);
            }
        }
        ctx.charge_work(work);
    }
}

impl<V: Sync + Send, E: Sync + Send> PieProgram<V, E> for PageRank {
    type Query = ();
    type Val = f64;
    type State = PrState;
    type Out = Vec<f64>;

    fn combine(&self, a: &mut f64, b: f64) -> bool {
        *a += b;
        true
    }

    fn peval(&self, _q: &(), frag: &Fragment<V, E>, ctx: &mut UpdateCtx<f64>) -> PrState {
        let n = frag.local_count();
        let mut st = PrState { score: vec![0.0; n], residual: vec![0.0; n] };
        st.residual[..frag.owned_count()].fill(1.0 - self.damping);
        self.propagate(frag, &mut st, ctx);
        st
    }

    fn inceval(
        &self,
        _q: &(),
        frag: &Fragment<V, E>,
        st: &mut PrState,
        msgs: &mut Messages<f64>,
        ctx: &mut UpdateCtx<f64>,
    ) {
        for (l, delta) in msgs.drain(..) {
            st.residual[l as usize] += delta;
            if st.residual[l as usize] >= self.epsilon {
                ctx.note_effective(1);
            } else {
                // Mass absorbed without triggering work: the update was
                // stale/too small to matter yet.
                ctx.note_redundant(1);
            }
        }
        self.propagate(frag, st, ctx);
    }

    fn assemble(&self, _q: &(), frags: &[Arc<Fragment<V, E>>], states: Vec<PrState>) -> Vec<f64> {
        // Fold leftover sub-ε residual into the score for accuracy, exactly
        // like the sequential reference.
        gather_owned(frags, &states, 0.0, |s, _, l| s.score[l as usize] + s.residual[l as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use aap_core::{Engine, EngineOpts, Mode};
    use aap_graph::generate;
    use aap_graph::partition::{build_fragments, build_fragments_n, hash_partition};

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matches_sequential_on_cycle() {
        let mut b = aap_graph::GraphBuilder::new_directed(24);
        for v in 0..24u32 {
            b.add_edge(v, (v + 1) % 24, 1);
        }
        let g = b.build();
        let pr = PageRank { damping: 0.85, epsilon: 1e-9 };
        let expect = seq::pagerank_delta(&g, 0.85, 1e-9);
        for mode in [Mode::Bsp, Mode::Ap, Mode::aap()] {
            let frags = build_fragments(&g, &hash_partition(&g, 4));
            let engine =
                Engine::new(frags, EngineOpts { threads: 4, mode, max_rounds: Some(1_000_000) });
            let out = engine.run(&pr, &());
            assert!(close(&out.out, &expect, 1e-6), "mismatch");
        }
    }

    #[test]
    fn matches_sequential_on_power_law() {
        let g = generate::rmat(8, 6, true, 33);
        let pr = PageRank { damping: 0.85, epsilon: 1e-8 };
        let expect = seq::pagerank_delta(&g, 0.85, 1e-8);
        for mode in [Mode::Bsp, Mode::aap()] {
            let frags = build_fragments(&g, &hash_partition(&g, 5));
            let engine =
                Engine::new(frags, EngineOpts { threads: 4, mode, max_rounds: Some(1_000_000) });
            let out = engine.run(&pr, &());
            // Thresholded propagation accumulates bounded error per vertex.
            assert!(close(&out.out, &expect, 1e-3), "mismatch beyond tolerance");
        }
    }

    /// The kernel's contract with the engine: a round that leaves an owned
    /// residual at or above ε must ask for another round. Driven by hand
    /// on one fragment (no mirrors, so no messages), `peval` then
    /// message-less `inceval`s for as long as a local round is requested
    /// must end with every residual below ε and the sequential scores.
    #[test]
    fn local_rounds_drain_every_owned_residual() {
        let g = generate::rmat(9, 8, true, 21);
        let frags = build_fragments_n(&g, &vec![0; g.num_vertices()], 1);
        let f = &frags[0];
        let pr = PageRank::default();
        let mut ctx = UpdateCtx::new();
        let mut st = PieProgram::<(), u32>::peval(&pr, &(), f, &mut ctx);
        let mut rounds = 0;
        loop {
            let (sent, local) = ctx.take();
            assert!(sent.is_empty(), "a single fragment has no mirrors to flush");
            if !local {
                break;
            }
            rounds += 1;
            assert!(rounds < 10_000, "local rounds must terminate");
            ctx = UpdateCtx::new();
            PieProgram::<(), u32>::inceval(&pr, &(), f, &mut st, &mut Vec::new(), &mut ctx);
        }
        assert!(rounds > 0, "back-pushes on a power-law graph need a local round");
        assert!(st.residual.iter().all(|&r| r < pr.epsilon), "an owned residual is left ≥ ε");
        let frags: Vec<_> = frags.into_iter().map(Arc::new).collect();
        let out = PieProgram::<(), u32>::assemble(&pr, &(), &frags, vec![st]);
        let expect = seq::pagerank_delta(&g, pr.damping, pr.epsilon);
        assert!(close(&out, &expect, 1e-3), "mismatch beyond tolerance");
    }

    #[test]
    fn hub_outranks_leaves() {
        let mut b = aap_graph::GraphBuilder::new_directed(40);
        for v in 1..40u32 {
            b.add_edge(v, 0, 1);
        }
        let g = b.build();
        let frags = build_fragments(&g, &hash_partition(&g, 4));
        let engine = Engine::new(frags, EngineOpts::default());
        let out = engine.run(&PageRank::default(), &());
        assert!(out.out[0] > 5.0 * out.out[1]);
    }

    #[test]
    fn scores_bounded_by_total_mass() {
        let g = generate::uniform(120, 600, true, 3);
        let frags = build_fragments(&g, &hash_partition(&g, 4));
        let engine = Engine::new(frags, EngineOpts::default());
        let out = engine.run(&PageRank::default(), &());
        let total: f64 = out.out.iter().sum();
        // Σ Pv ≤ n; dangling vertices leak mass, so strictly below.
        assert!(total <= 120.0 + 1e-6);
        assert!(total > 12.0); // at least the teleport mass (1-d)·n
    }
}
