//! The per-worker message buffer `Bx̄i` of §3.
//!
//! Workers receive batches `M(j, i)` at any time and stash them here without
//! blocking. The *staleness* `ηi` — "the number of messages in buffer
//! `Bx̄i` received by `Pi` from distinct workers" — is the number of
//! buffered batches (each batch is one designated message from one worker's
//! round). Draining applies `faggr` across all buffered values per vertex,
//! producing the aggregated change set `Mi = faggr(Bx̄i ∪ Ci.x̄)` that
//! `IncEval` consumes.
//!
//! Batches arrive addressed in *this* fragment's local id space (the
//! sender's routing table translated them; see
//! [`aap_graph::RoutingTable`]), so draining is pure dense-array work: an
//! epoch-stamped sparse set combines values per vertex with no hash-map
//! traversal and — with a warm [`Scratch`] — no heap allocation.

use crate::pie::{Batch, Messages, PieProgram};
use crate::scratch::Scratch;
use aap_graph::Fragment;

/// Message buffer for one virtual worker. The batch vector's capacity is
/// retained across drains (`Vec::drain`), so a steady-state inbox never
/// regrows from zero.
#[derive(Debug)]
pub struct Inbox<Val> {
    batches: Vec<Batch<Val>>,
    /// Total raw updates buffered (for stats).
    buffered_updates: usize,
}

impl<Val> Default for Inbox<Val> {
    fn default() -> Self {
        Inbox { batches: Vec::new(), buffered_updates: 0 }
    }
}

/// Summary of one drain, feeding the δ-function statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainInfo {
    /// Batches consumed (the staleness `ηi` at drain time).
    pub batches: usize,
    /// Raw updates consumed (before `faggr` deduplication).
    pub raw_updates: usize,
}

impl<Val> Inbox<Val> {
    /// Buffer one incoming batch. Returns the new staleness `ηi`.
    pub fn push(&mut self, batch: Batch<Val>) -> usize {
        self.buffered_updates += batch.updates.len();
        self.batches.push(batch);
        self.batches.len()
    }

    /// Current staleness `ηi` (number of buffered batches).
    #[inline]
    pub fn eta(&self) -> usize {
        self.batches.len()
    }

    /// True if no messages are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Raw buffered update count.
    #[inline]
    pub fn buffered_updates(&self) -> usize {
        self.buffered_updates
    }

    /// Drain everything into `scratch.msgs`, combining values per local
    /// vertex with the program's `faggr`; the result is sorted by local id.
    /// Batch bodies are recycled into the scratch's pool so the worker's
    /// own sends reuse their capacity. Updates for vertices outside the
    /// fragment are impossible by construction of the routing tables and
    /// are rejected in debug builds.
    pub fn drain_into<V, E, P>(
        &mut self,
        prog: &P,
        frag: &Fragment<V, E>,
        scratch: &mut Scratch<P::Val>,
    ) -> DrainInfo
    where
        P: PieProgram<V, E, Val = Val> + ?Sized,
    {
        scratch.ensure(frag);
        scratch.next_epoch();
        scratch.msgs.clear();
        let info_batches = self.batches.len();
        let info_raw = self.buffered_updates;
        let local_count = frag.local_count();
        for batch in self.batches.drain(..) {
            let mut updates = batch.updates;
            for (l, v) in updates.drain(..) {
                debug_assert!(
                    (l as usize) < local_count,
                    "update for local {l} outside fragment (local_count {local_count})"
                );
                let idx = scratch.msgs.len() as u32;
                match scratch.touch(l, idx) {
                    Some(prev) => {
                        prog.combine(&mut scratch.msgs[prev as usize].1, v);
                    }
                    None => {
                        if scratch.msgs.len() == scratch.msgs.capacity() {
                            scratch.grow_events += 1;
                        }
                        scratch.msgs.push((l, v));
                    }
                }
            }
            scratch.recycle_vec(updates);
        }
        self.buffered_updates = 0;
        scratch.msgs.sort_unstable_by_key(|&(l, _)| l);
        DrainInfo { batches: info_batches, raw_updates: info_raw }
    }

    /// Convenience wrapper over [`Inbox::drain_into`] with a throwaway
    /// scratch — for tests and one-shot callers; engines keep a per-worker
    /// [`Scratch`].
    pub fn drain<V, E, P>(
        &mut self,
        prog: &P,
        frag: &Fragment<V, E>,
    ) -> (Messages<P::Val>, DrainInfo)
    where
        P: PieProgram<V, E, Val = Val> + ?Sized,
    {
        let mut scratch = Scratch::default();
        let info = self.drain_into(prog, frag, &mut scratch);
        (scratch.take_msgs(), info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aap_graph::partition::build_fragments;
    use aap_graph::GraphBuilder;

    struct Min;
    impl PieProgram<(), u32> for Min {
        type Query = ();
        type Val = u64;
        type State = ();
        type Out = ();
        fn combine(&self, a: &mut u64, b: u64) -> bool {
            if b < *a {
                *a = b;
                true
            } else {
                false
            }
        }
        fn peval(&self, _: &(), _: &Fragment<(), u32>, _: &mut crate::pie::UpdateCtx<u64>) {}
        fn inceval(
            &self,
            _: &(),
            _: &Fragment<(), u32>,
            _: &mut (),
            _: &mut Messages<u64>,
            _: &mut crate::pie::UpdateCtx<u64>,
        ) {
        }
        fn assemble(&self, _: &(), _: &[std::sync::Arc<Fragment<(), u32>>], _: Vec<()>) {}
    }

    fn frag() -> Fragment<(), u32> {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1u32);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let mut frags = build_fragments(&g, &[0, 0, 1, 1]);
        frags.swap_remove(1) // fragment 1, owns {2, 3}, mirrors {1}
    }

    #[test]
    fn eta_counts_batches_not_updates() {
        let f = frag();
        let l2 = f.local(2).unwrap();
        let l3 = f.local(3).unwrap();
        let mut inbox: Inbox<u64> = Inbox::default();
        inbox.push(Batch { src: 0, round: 1, updates: vec![(l2, 5)] });
        inbox.push(Batch { src: 0, round: 2, updates: vec![(l2, 4), (l3, 9)] });
        assert_eq!(inbox.eta(), 2);
        assert_eq!(inbox.buffered_updates(), 3);
        let (msgs, info) = inbox.drain(&Min, &f);
        assert_eq!(info.batches, 2);
        assert_eq!(info.raw_updates, 3);
        // values combined per-vertex with min
        let mut expect = vec![(l2, 4u64), (l3, 9)];
        expect.sort_unstable_by_key(|&(l, _)| l);
        assert_eq!(msgs, expect);
        assert!(inbox.is_empty());
        assert_eq!(inbox.eta(), 0);
    }

    #[test]
    fn drain_on_empty_is_noop() {
        let f = frag();
        let mut inbox: Inbox<u64> = Inbox::default();
        let (msgs, info) = inbox.drain(&Min, &f);
        assert!(msgs.is_empty());
        assert_eq!(info.batches, 0);
    }

    #[test]
    fn steady_state_drains_do_not_grow_buffers() {
        let f = frag();
        let l2 = f.local(2).unwrap();
        let l3 = f.local(3).unwrap();
        let mut inbox: Inbox<u64> = Inbox::default();
        let mut scratch: Scratch<u64> = Scratch::default();
        // Warm-up round sizes every buffer.
        for round in 0..3u32 {
            inbox.push(Batch { src: 0, round, updates: vec![(l2, 5), (l3, 1)] });
            inbox.push(Batch { src: 1, round, updates: vec![(l2, 4)] });
            let _ = inbox.drain_into(&Min, &f, &mut scratch);
        }
        let after_warmup = scratch.grow_events();
        for round in 3..50u32 {
            // Note: pushing fresh vec![] here allocates *in the test*, but
            // the drain itself must not grow any scratch buffer.
            inbox.push(Batch { src: 0, round, updates: vec![(l2, 5), (l3, 1)] });
            inbox.push(Batch { src: 1, round, updates: vec![(l2, 4)] });
            let _ = inbox.drain_into(&Min, &f, &mut scratch);
        }
        assert_eq!(scratch.grow_events(), after_warmup, "steady-state drain reallocated");
    }
}
