//! Per-worker reusable scratch memory for the message hot path.
//!
//! Every virtual worker owns one [`Scratch`]: the dense buffers that
//! [`crate::pie::route_updates_into`] and [`crate::inbox::Inbox::drain_into`]
//! work in. All buffers retain their capacity across rounds, so once a
//! worker has warmed up, a steady-state round performs **zero heap
//! allocations** in routing and drain:
//!
//! * dedup/aggregation uses an epoch-stamped sparse set (`stamp`/`slot`)
//!   sized to the fragment's `local_count()` — no hash maps anywhere;
//! * per-destination send buffers are a dense array indexed by the
//!   fragment's [`aap_graph::RoutingTable`] destination slots;
//! * message batch vectors are recycled through a bounded [`Scratch`] pool:
//!   vectors received from peers are emptied by drain and reused for this
//!   worker's own outgoing batches. Traffic need not be symmetric: workers
//!   that receive more batches than they send overflow into an engine-wide
//!   [`SharedPool`], where send-heavy workers replenish — batch-vector
//!   memory circulates sender → receiver → (shared pool) → sender;
//! * the `IncEval` message vector and the `UpdateCtx` update vector are
//!   round-tripped through the scratch as well.
//!
//! The `grow_events` counter records every buffer growth (a reallocation);
//! tests assert it stays flat across steady-state rounds.

use crate::pie::Batch;
use aap_graph::{FragId, Fragment, LocalId};
use parking_lot::Mutex;
use std::sync::Arc;

/// Engine-wide overflow pool of recycled batch bodies, shared by every
/// worker's [`Scratch`] (see [`Scratch::attach_shared_pool`]). Lets
/// memory flow from receive-heavy workers back to send-heavy ones, so the
/// zero-allocation steady state holds for asymmetric traffic (directed
/// graphs, skewed partitions) as well.
pub type SharedPool<Val> = Arc<Mutex<Vec<Vec<(LocalId, Val)>>>>;

/// Epoch-stamped scratch buffers for one virtual worker. Create once per
/// worker (or per run) with [`Scratch::default`]; buffers size themselves
/// to the fragment on first use via [`Scratch::ensure`].
#[derive(Debug)]
pub struct Scratch<Val> {
    /// Current epoch; `stamp[l] == epoch` means `slot[l]` is live.
    epoch: u32,
    /// Per local vertex: epoch of its last touch.
    stamp: Vec<u32>,
    /// Per local vertex: index into the dense vector currently being built
    /// (`uniq` while routing, `msgs` while draining).
    slot: Vec<u32>,
    /// Deduplicated update set, built by the routing pre-pass.
    pub(crate) uniq: Vec<(LocalId, Val)>,
    /// Per-destination send buffers, parallel to `RoutingTable::dests()`.
    pub(crate) bufs: Vec<Vec<(LocalId, Val)>>,
    /// Aggregated inbound messages (the `Mi` handed to `IncEval`),
    /// round-tripped through the engine so its capacity is reused.
    pub(crate) msgs: Vec<(LocalId, Val)>,
    /// Routed outgoing batches, reused across rounds.
    pub(crate) out: Vec<(FragId, Batch<Val>)>,
    /// Destinations touched by the last delivery (engine wake-up list),
    /// reused across rounds.
    pub(crate) touched_dests: Vec<FragId>,
    /// Recycled update vectors: drained inbound batches come back here and
    /// are handed out again as outgoing batch bodies.
    pool: Vec<Vec<(LocalId, Val)>>,
    /// Engine-wide overflow pool balancing senders against receivers.
    shared: Option<SharedPool<Val>>,
    /// High-water mark of batches this worker sends per round; the local
    /// pool keeps only this many bodies (a receive-heavy worker hoarding
    /// vectors it will never send would starve the senders).
    pub(crate) out_hint: usize,
    /// Spare vector for the next round's `UpdateCtx`.
    pub(crate) updates_spare: Vec<(LocalId, Val)>,
    /// Buffer-growth (reallocation) events observed by the routing/drain
    /// code; flat counts across rounds prove allocation-free steady state.
    pub(crate) grow_events: u64,
}

/// Upper bound on locally pooled vectors; beyond this, drained batch
/// bodies overflow to the [`SharedPool`] (bounds per-worker memory on
/// bursty inboxes).
const POOL_CAP: usize = 64;

/// Upper bound on the engine-wide [`SharedPool`]; beyond this, bodies are
/// dropped.
const SHARED_POOL_CAP: usize = 1024;

impl<Val> Default for Scratch<Val> {
    fn default() -> Self {
        Scratch {
            epoch: 0,
            stamp: Vec::new(),
            slot: Vec::new(),
            uniq: Vec::new(),
            bufs: Vec::new(),
            msgs: Vec::new(),
            out: Vec::new(),
            touched_dests: Vec::new(),
            pool: Vec::new(),
            shared: None,
            out_hint: 0,
            updates_spare: Vec::new(),
            grow_events: 0,
        }
    }
}

impl<Val> Scratch<Val> {
    /// Size the stamp arrays and destination buffers for `frag`. Idempotent
    /// and cheap after the first call; engines call it at round start.
    pub fn ensure<V, E>(&mut self, frag: &Fragment<V, E>) {
        let n = frag.local_count();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.slot.resize(n, 0);
        }
        let d = frag.routing().num_dests();
        if self.bufs.len() < d {
            self.bufs.resize_with(d, Vec::new);
        }
    }

    /// Advance to a fresh epoch, invalidating all stamps in O(1) (except on
    /// the ~4-billionth call, where the arrays are rewritten to keep the
    /// invariant `stamp[l] != epoch` for untouched vertices).
    #[inline]
    pub(crate) fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(u32::MAX);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Whether local vertex `l` was touched this epoch; if not, mark it and
    /// record `idx` as its slot. Returns the previously recorded slot on a
    /// repeat touch.
    #[inline]
    pub(crate) fn touch(&mut self, l: LocalId, idx: u32) -> Option<u32> {
        let i = l as usize;
        if self.stamp[i] == self.epoch {
            Some(self.slot[i])
        } else {
            self.stamp[i] = self.epoch;
            self.slot[i] = idx;
            None
        }
    }

    /// Join an engine-wide [`SharedPool`]; engines attach the same pool to
    /// every worker's scratch at run start.
    pub fn attach_shared_pool(&mut self, pool: SharedPool<Val>) {
        self.shared = Some(pool);
    }

    /// Take a recycled vector for an outgoing batch body: local pool
    /// first, then the shared pool, then a fresh allocation.
    #[inline]
    pub(crate) fn take_vec(&mut self) -> Vec<(LocalId, Val)> {
        if let Some(v) = self.pool.pop() {
            return v;
        }
        if let Some(shared) = &self.shared {
            if let Some(v) = shared.lock().pop() {
                return v;
            }
        }
        Vec::new()
    }

    /// Return an emptied batch body to the local pool, overflowing to the
    /// shared pool (capacity kept either way). The local pool holds at most
    /// as many bodies as this worker ships per round (`out_hint`); the rest
    /// go back to the engine-wide pool where send-heavy workers find them.
    #[inline]
    pub(crate) fn recycle_vec(&mut self, mut v: Vec<(LocalId, Val)>) {
        v.clear();
        if v.capacity() == 0 {
            return;
        }
        if self.pool.len() < self.out_hint.min(POOL_CAP) {
            self.pool.push(v);
        } else if let Some(shared) = &self.shared {
            let mut shared = shared.lock();
            if shared.len() < SHARED_POOL_CAP {
                shared.push(v);
            }
        } else if self.pool.len() < POOL_CAP {
            // No shared pool (standalone scratch): fall back to hoarding
            // locally so one-shot callers still recycle.
            self.pool.push(v);
        }
    }

    /// Recycle a delivered (or undeliverable) batch's body into the pool,
    /// for external engine loops driving the routing path directly.
    pub fn recycle_batch(&mut self, batch: Batch<Val>) {
        self.recycle_vec(batch.updates);
    }

    /// Buffer-growth (reallocation) events so far. The routing/drain code
    /// bumps this whenever a push is about to exceed a buffer's capacity —
    /// a two-load check cheap enough to keep in release builds, which lets
    /// integration tests verify the zero-allocation claim without a custom
    /// allocator.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Hand out a (possibly recycled) empty vector for `UpdateCtx`.
    pub fn take_updates_buf(&mut self) -> Vec<(LocalId, Val)> {
        std::mem::take(&mut self.updates_spare)
    }

    /// Return the `UpdateCtx` vector after routing consumed its contents.
    pub fn give_updates_buf(&mut self, mut v: Vec<(LocalId, Val)>) {
        v.clear();
        self.updates_spare = v;
    }

    /// Take the aggregated-message buffer (drain output / `IncEval` input).
    pub fn take_msgs(&mut self) -> Vec<(LocalId, Val)> {
        std::mem::take(&mut self.msgs)
    }

    /// Return the message buffer after `IncEval` consumed it.
    pub fn give_msgs(&mut self, mut v: Vec<(LocalId, Val)>) {
        v.clear();
        self.msgs = v;
    }

    /// Take the reusable outgoing-batch list (for
    /// [`crate::pie::route_updates_into`]'s `out` parameter).
    pub fn take_out(&mut self) -> Vec<(FragId, Batch<Val>)> {
        std::mem::take(&mut self.out)
    }

    /// Return the (drained) outgoing-batch list after delivery.
    pub fn give_out(&mut self, mut v: Vec<(FragId, Batch<Val>)>) {
        v.clear();
        self.out = v;
    }

    /// Pre-size the per-destination buffers and the batch pool from
    /// observed traffic (`updates`: expected raw updates per round,
    /// `batches`: expected inbound batches per round). Called by engines
    /// with [`crate::inbox::DrainInfo`] history so the first post-warmup
    /// rounds already have capacity.
    pub fn reserve_for_traffic(&mut self, updates: usize, batches: usize) {
        let per_dest = updates / self.bufs.len().max(1) + 1;
        for b in &mut self.bufs {
            if b.capacity() < per_dest {
                b.reserve(per_dest - b.len());
            }
        }
        while self.pool.len() < batches.min(POOL_CAP) {
            self.pool.push(Vec::with_capacity(per_dest));
        }
    }
}
