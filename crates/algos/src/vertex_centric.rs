//! A Pregel-style vertex-centric adapter compiled onto PIE, following the
//! constructive proof of Proposition 3 ("a Pregel algorithm A can be
//! simulated by a PIE algorithm ρ: PEval runs compute() over vertices with
//! a loop ... IncEval also runs compute() over vertices in a fragment,
//! starting from active vertices").
//!
//! One `IncEval` invocation executes one vertex-centric *superstep* over
//! the fragment: messages between local vertices stay in a local pending
//! buffer (and the adapter requests another local round), messages to
//! mirrors become PIE update parameters and travel to the owning fragment.
//! Under the engine's BSP mode this is exactly Pregel/Giraph; under AP it
//! behaves like the asynchronous vertex-centric engines (GraphLab-async),
//! which is how the §7 baselines are realised (see the README's
//! "Substitutions" section).
//!
//! The crucial *performance* difference from native PIE programs — the one
//! the paper measures — is that a vertex-centric superstep advances
//! information by one hop per round, while PIE's `IncEval` runs a full
//! sequential algorithm over the fragment per round.

use aap_core::pie::{Messages, PieProgram, UpdateCtx};
use aap_graph::{Fragment, FxHashMap, LocalId, VertexId};
use std::sync::Arc;

/// A Pregel-style vertex program.
pub trait VertexProgram<V, E>: Sync {
    /// Query type (e.g. SSSP source).
    type Query: Clone + Sync;
    /// Per-vertex value.
    type VState: Clone + Send + 'static;
    /// Message type; combined with [`VertexProgram::combine`] (Pregel
    /// message combiners).
    type Msg: Clone + Send + 'static;

    /// Initial value of a vertex.
    fn init(&self, q: &Self::Query, frag: &Fragment<V, E>, l: LocalId) -> Self::VState;

    /// Message combiner (associative, commutative). Returns whether `a`
    /// changed.
    fn combine(&self, a: &mut Self::Msg, b: Self::Msg) -> bool;

    /// The `compute()` function, invoked once per active vertex per
    /// superstep. `msg` is the combined incoming message (`None` at
    /// superstep 0 or when the vertex runs because
    /// [`VertexProgram::active_without_messages`]).
    #[allow(clippy::too_many_arguments)]
    fn compute(
        &self,
        q: &Self::Query,
        frag: &Fragment<V, E>,
        superstep: u32,
        l: LocalId,
        state: &mut Self::VState,
        msg: Option<&Self::Msg>,
        send: &mut dyn FnMut(LocalId, Self::Msg),
    );

    /// If true, every owned vertex runs in this superstep even without
    /// messages (Pregel programs that never vote to halt, e.g. PageRank
    /// for a fixed number of iterations).
    fn active_without_messages(&self, _q: &Self::Query, _superstep: u32) -> bool {
        false
    }

    /// Extract the final per-vertex output.
    fn output(&self, state: &Self::VState) -> Self::VState {
        state.clone()
    }
}

/// Adapter: wraps a [`VertexProgram`] as a [`PieProgram`].
#[derive(Debug, Clone, Copy)]
pub struct VertexCentric<P>(pub P);

/// Fragment state of the adapter.
pub struct VcState<VState, Msg> {
    /// Per local vertex value.
    pub vstates: Vec<VState>,
    pending: FxHashMap<LocalId, Msg>,
    superstep: u32,
}

/// Run one local superstep over the given active set.
fn run_superstep<V, E, P>(
    adapter: &VertexCentric<P>,
    q: &P::Query,
    frag: &Fragment<V, E>,
    st: &mut VcState<P::VState, P::Msg>,
    current: Vec<(LocalId, Option<P::Msg>)>,
    ctx: &mut UpdateCtx<P::Msg>,
) where
    P: VertexProgram<V, E>,
{
    let mut next: FxHashMap<LocalId, P::Msg> = FxHashMap::default();
    let mut external: FxHashMap<LocalId, P::Msg> = FxHashMap::default();
    let prog = &adapter.0;
    let mut work = current.len() as u64;
    for (l, msg) in current {
        let vstate = &mut st.vstates[l as usize];
        let mut sends = 0u64;
        let mut send = |t: LocalId, m: P::Msg| {
            sends += 1;
            let sink = if frag.is_owned(t) { &mut next } else { &mut external };
            match sink.entry(t) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    prog.combine(e.get_mut(), m);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(m);
                }
            }
        };
        prog.compute(q, frag, st.superstep, l, vstate, msg.as_ref(), &mut send);
        work += sends;
    }
    ctx.charge_work(work);
    st.superstep += 1;
    let mut external: Vec<(LocalId, P::Msg)> = external.into_iter().collect();
    external.sort_unstable_by_key(|&(l, _)| l);
    for (t, m) in external {
        ctx.send(t, m);
    }
    st.pending = next;
    if !st.pending.is_empty() || prog.active_without_messages(q, st.superstep) {
        ctx.request_local_round();
    }
}

/// Merge incoming external messages with pending local ones and produce the
/// superstep's active set, sorted for determinism.
fn active_set<V, E, P>(
    adapter: &VertexCentric<P>,
    q: &P::Query,
    frag: &Fragment<V, E>,
    st: &mut VcState<P::VState, P::Msg>,
    incoming: &mut Messages<P::Msg>,
) -> Vec<(LocalId, Option<P::Msg>)>
where
    P: VertexProgram<V, E>,
{
    let mut pending = std::mem::take(&mut st.pending);
    for (l, m) in incoming.drain(..) {
        match pending.entry(l) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                adapter.0.combine(e.get_mut(), m);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(m);
            }
        }
    }
    let mut current: Vec<(LocalId, Option<P::Msg>)> =
        if adapter.0.active_without_messages(q, st.superstep) {
            let mut all: Vec<(LocalId, Option<P::Msg>)> =
                frag.owned_vertices().map(|l| (l, None)).collect();
            for (l, m) in pending {
                all[l as usize].1 = Some(m);
            }
            all
        } else {
            pending.into_iter().map(|(l, m)| (l, Some(m))).collect()
        };
    current.sort_unstable_by_key(|&(l, _)| l);
    current
}

impl<V, E, P> PieProgram<V, E> for VertexCentric<P>
where
    V: Sync + Send,
    E: Sync + Send,
    P: VertexProgram<V, E>,
{
    type Query = P::Query;
    type Val = P::Msg;
    type State = VcState<P::VState, P::Msg>;
    type Out = Vec<P::VState>;

    fn combine(&self, a: &mut P::Msg, b: P::Msg) -> bool {
        self.0.combine(a, b)
    }

    fn peval(
        &self,
        q: &P::Query,
        frag: &Fragment<V, E>,
        ctx: &mut UpdateCtx<P::Msg>,
    ) -> Self::State {
        let vstates: Vec<P::VState> =
            frag.local_vertices().map(|l| self.0.init(q, frag, l)).collect();
        let mut st = VcState { vstates, pending: FxHashMap::default(), superstep: 0 };
        // Superstep 0: every owned vertex computes once (Pregel semantics).
        let current: Vec<(LocalId, Option<P::Msg>)> =
            frag.owned_vertices().map(|l| (l, None)).collect();
        run_superstep(self, q, frag, &mut st, current, ctx);
        st
    }

    fn inceval(
        &self,
        q: &P::Query,
        frag: &Fragment<V, E>,
        st: &mut Self::State,
        msgs: &mut Messages<P::Msg>,
        ctx: &mut UpdateCtx<P::Msg>,
    ) {
        let current = active_set(self, q, frag, st, msgs);
        if current.is_empty() {
            return;
        }
        ctx.note_effective(current.len() as u64);
        run_superstep(self, q, frag, st, current, ctx);
    }

    fn assemble(
        &self,
        _q: &P::Query,
        frags: &[Arc<Fragment<V, E>>],
        states: Vec<Self::State>,
    ) -> Vec<P::VState> {
        let n: usize = frags.iter().map(|f| f.owned_count()).sum();
        let mut out: Vec<Option<P::VState>> = vec![None; n];
        for (f, s) in frags.iter().zip(&states) {
            for l in f.owned_vertices() {
                out[f.global(l) as usize] = Some(self.0.output(&s.vstates[l as usize]));
            }
        }
        out.into_iter().map(|o| o.expect("all vertices owned somewhere")).collect()
    }

    fn val_bytes(&self, _v: &P::Msg) -> usize {
        std::mem::size_of::<P::Msg>()
    }
}

// ---------------------------------------------------------------------
// Baseline vertex programs.
// ---------------------------------------------------------------------

/// Vertex-centric SSSP (the Pregel paper's example): relax on message,
/// forward improved distances along out-edges.
#[derive(Debug, Default, Clone, Copy)]
pub struct VcSssp;

impl<V: Sync + Send> VertexProgram<V, u32> for VcSssp {
    type Query = VertexId;
    type VState = u64;
    type Msg = u64;

    fn init(&self, _q: &VertexId, _f: &Fragment<V, u32>, _l: LocalId) -> u64 {
        crate::common::INF
    }

    fn combine(&self, a: &mut u64, b: u64) -> bool {
        if b < *a {
            *a = b;
            true
        } else {
            false
        }
    }

    fn compute(
        &self,
        q: &VertexId,
        frag: &Fragment<V, u32>,
        superstep: u32,
        l: LocalId,
        state: &mut u64,
        msg: Option<&u64>,
        send: &mut dyn FnMut(LocalId, u64),
    ) {
        let candidate = match msg {
            Some(&d) => d,
            None if superstep == 0 && frag.global(l) == *q => 0,
            None => return,
        };
        if candidate < *state {
            *state = candidate;
            for (v, &w) in frag.edges(l) {
                send(v, candidate + w as u64);
            }
        }
    }
}

/// Vertex-centric connected components by hash-min label propagation —
/// `O(diameter)` supersteps, the behaviour behind Giraph's 10⁴-round CC
/// runs on road networks in §7.
#[derive(Debug, Default, Clone, Copy)]
pub struct VcCc;

impl<V: Sync + Send, E: Sync + Send> VertexProgram<V, E> for VcCc {
    type Query = ();
    type VState = u32;
    type Msg = u32;

    fn init(&self, _q: &(), f: &Fragment<V, E>, l: LocalId) -> u32 {
        f.global(l)
    }

    fn combine(&self, a: &mut u32, b: u32) -> bool {
        if b < *a {
            *a = b;
            true
        } else {
            false
        }
    }

    fn compute(
        &self,
        _q: &(),
        frag: &Fragment<V, E>,
        superstep: u32,
        l: LocalId,
        state: &mut u32,
        msg: Option<&u32>,
        send: &mut dyn FnMut(LocalId, u32),
    ) {
        let improved = match msg {
            Some(&m) if m < *state => {
                *state = m;
                true
            }
            Some(_) => false,
            None => superstep == 0,
        };
        if improved {
            let label = *state;
            for &v in frag.neighbors(l) {
                send(v, label);
            }
        }
    }
}

/// Vertex-centric PageRank for a fixed number of iterations (the classic
/// Pregel/Giraph formulation — full recomputation every superstep).
#[derive(Debug, Clone, Copy)]
pub struct VcPageRank {
    /// Damping factor.
    pub damping: f64,
    /// Number of supersteps.
    pub iterations: u32,
}

impl Default for VcPageRank {
    fn default() -> Self {
        VcPageRank { damping: 0.85, iterations: 30 }
    }
}

impl<V: Sync + Send, E: Sync + Send> VertexProgram<V, E> for VcPageRank {
    type Query = ();
    type VState = f64;
    type Msg = f64;

    fn init(&self, _q: &(), _f: &Fragment<V, E>, _l: LocalId) -> f64 {
        0.0
    }

    fn combine(&self, a: &mut f64, b: f64) -> bool {
        *a += b;
        true
    }

    fn active_without_messages(&self, _q: &(), superstep: u32) -> bool {
        superstep < self.iterations
    }

    fn compute(
        &self,
        _q: &(),
        frag: &Fragment<V, E>,
        superstep: u32,
        l: LocalId,
        state: &mut f64,
        msg: Option<&f64>,
        send: &mut dyn FnMut(LocalId, f64),
    ) {
        *state = (1.0 - self.damping) + msg.copied().unwrap_or(0.0);
        if superstep < self.iterations {
            let deg = frag.neighbors(l).len();
            if deg > 0 {
                let share = self.damping * *state / deg as f64;
                for &v in frag.neighbors(l) {
                    send(v, share);
                }
            }
        }
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
    fn vc_sssp_matches_dijkstra() {
        let g = generate::small_world(150, 2, 0.1, 17);
        let expect = seq::dijkstra(&g, 4);
        for mode in [Mode::Bsp, Mode::Ap, Mode::aap()] {
            let frags = build_fragments(&g, &hash_partition(&g, 4));
            let engine =
                Engine::new(frags, EngineOpts { threads: 4, mode, max_rounds: Some(100_000) });
            assert_eq!(engine.run(&VertexCentric(VcSssp), &4).out, expect);
        }
    }

    #[test]
    fn vc_cc_matches_union_find() {
        let g = generate::small_world(120, 2, 0.05, 23);
        let expect = seq::connected_components(&g);
        let frags = build_fragments(&g, &hash_partition(&g, 4));
        let engine = Engine::new(frags, EngineOpts::default());
        assert_eq!(engine.run(&VertexCentric(VcCc), &()).out, expect);
    }

    #[test]
    fn vc_cc_needs_more_rounds_than_pie_cc() {
        // The paper's headline: PIE CC converges in far fewer rounds than
        // hash-min vertex-centric CC on high-diameter graphs.
        let g = generate::lattice2d(30, 30, 2);
        let mk = || build_fragments(&g, &hash_partition(&g, 4));
        let bsp = |frags| {
            Engine::new(
                frags,
                EngineOpts { threads: 4, mode: Mode::Bsp, max_rounds: Some(100_000) },
            )
        };
        let vc = bsp(mk()).run(&VertexCentric(VcCc), &()).stats.max_rounds();
        let pie = bsp(mk()).run(&crate::ConnectedComponents, &()).stats.max_rounds();
        assert!(vc > 4 * pie, "vertex-centric {vc} rounds vs PIE {pie} rounds");
    }

    #[test]
    fn vc_pagerank_close_to_delta_pagerank() {
        let g = generate::uniform(100, 500, true, 9);
        let frags = build_fragments(&g, &hash_partition(&g, 4));
        let engine =
            Engine::new(frags, EngineOpts { threads: 4, mode: Mode::Bsp, max_rounds: Some(1000) });
        let vc = engine.run(&VertexCentric(VcPageRank { damping: 0.85, iterations: 50 }), &()).out;
        let seq = seq::pagerank_delta(&g, 0.85, 1e-12);
        for (a, b) in vc.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-3, "vc {a} vs seq {b}");
        }
    }
}
