//! In-place mutation of partitioned fragments — the graph-side substrate
//! of the dynamic-graph delta subsystem (`aap-delta`) and of elastic
//! rebalancing (`aap-balance`).
//!
//! A batch of graph changes arrives as a [`PartitionEdit`]: per-fragment
//! edge inserts/removes/weight updates plus vertex additions and
//! isolations, already resolved to the fragment that stores each edge
//! (the *owner of the source* under edge-cut). [`apply_partition_edit`]
//! rewrites every touched fragment with one **local-id splice** — the
//! same rewriter [`migrate_edge_cut`] moves vertices with:
//!
//! 1. the batch's own ops for the fragment are sorted by `(row, target
//!    global id)` — `O(k log k)` in the batch size `k`, the only sort;
//! 2. the old CSR streams row by row into the new one. Untouched rows are
//!    copied; an edited row merges its (already sorted) inserts, drops
//!    its removed pairs and overwrites its re-weighted copies. Targets
//!    keep their *old* local ids for now, and every surviving target is
//!    marked referenced;
//! 3. the new local id space falls out of two sorted merges — old owned ∪
//!    added vertices, and referenced old mirrors ∪ fresh mirrors — which
//!    fill a dense `old → new` table; an old mirror nothing references
//!    any more is dropped;
//! 4. one more pass maps the new rows' targets through the table and
//!    derives `Fi.O'`.
//!
//! That is `O(|Fi|)` sequential array work per **touched** fragment plus
//! `O(k log k)` for the batch, with no hash probe and no sort per
//! retained edge, and nothing global. The table is also the fragment's
//! [`StateRemap`]. Rows stay ordered by target global id; among parallel
//! `(u, v)` copies the retained ones keep their order and inserted ones
//! follow in batch order.
//!
//! Mirror gains/losses at one fragment become holder updates at the
//! owner — spliced into its holder CSR without renumbering — keeping the
//! routing symmetry invariant (`v` mirrored at `Fj` ⟺ `Fj ∈ holders(v)`
//! at the owner). Dense [`crate::RoutingTable`]s are rebuilt **only** for
//! fragments whose structure changed or whose peers renumbered (a
//! fragment's table stores destination-local ids, so a peer that gained
//! or lost locals invalidates the slots pointing at it). Reusable
//! [`EditBuffers`] pool the transient scratch, so streaming many small
//! batches does not re-allocate it.
//!
//! Vertex *removal* keeps the dense global id space intact: the vertex
//! stays owned but loses every incident edge (an isolated id). This is
//! what keeps `Assemble` output vectors stable across deltas.
//!
//! Retained per-vertex algorithm state is carried across a mutation by a
//! [`StateRemap`] (old local id → new local id), one per fragment; warm
//! incremental evaluation (`aap-core`'s `WarmStart`) uses it to migrate
//! status variables instead of recomputing them.

use crate::fragment::Fragment;
use crate::partition::{rebuild_routing_tables_where, routing_table_for};
use crate::{FragId, FxHashMap, FxHashSet, Graph, LocalId, VertexId};
use aap_trace::{cat, pid, Args, Tracer};

/// Maps one fragment's local ids across a structural mutation.
///
/// `map(old) == None` means the old local vanished (a dropped mirror);
/// new locals (fresh mirrors or added vertices) have no preimage and
/// must be initialised by the consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateRemap {
    /// Old local -> new local; `LocalId::MAX` = dropped. Empty when
    /// `identity` (the common untouched-fragment case keeps no table).
    old_to_new: Vec<LocalId>,
    new_local_count: usize,
    identity: bool,
}

impl StateRemap {
    /// The identity remap over `n` locals (fragment untouched).
    pub fn identity(n: usize) -> Self {
        StateRemap { old_to_new: Vec::new(), new_local_count: n, identity: true }
    }

    /// Build from an explicit old→new table (`LocalId::MAX` = dropped).
    pub fn from_table(old_to_new: Vec<LocalId>, new_local_count: usize) -> Self {
        let identity = old_to_new.len() == new_local_count
            && old_to_new.iter().enumerate().all(|(i, &l)| l as usize == i);
        if identity {
            StateRemap::identity(new_local_count)
        } else {
            StateRemap { old_to_new, new_local_count, identity: false }
        }
    }

    /// True if the fragment's local id space is unchanged.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Locals before the mutation.
    pub fn old_local_count(&self) -> usize {
        if self.identity {
            self.new_local_count
        } else {
            self.old_to_new.len()
        }
    }

    /// Locals after the mutation.
    pub fn new_local_count(&self) -> usize {
        self.new_local_count
    }

    /// New local id of old local `old`, if it survived.
    #[inline]
    pub fn map(&self, old: LocalId) -> Option<LocalId> {
        if self.identity {
            return Some(old);
        }
        match self.old_to_new[old as usize] {
            LocalId::MAX => None,
            l => Some(l),
        }
    }

    /// Migrate a per-local state vector: surviving locals keep their
    /// value, fresh locals get `default`, dropped values are discarded.
    pub fn map_vec<T: Clone>(&self, mut old: Vec<T>, default: T) -> Vec<T> {
        if self.identity {
            debug_assert_eq!(old.len(), self.new_local_count);
            return old;
        }
        let mut out = vec![default; self.new_local_count];
        for (o, v) in old.drain(..).enumerate() {
            if let Some(n) = self.map(o as LocalId) {
                out[n as usize] = v;
            }
        }
        out
    }
}

/// Direction of one weight overwrite against the stored value — the
/// single classification every layer (in-place apply, global apply,
/// pre-apply strategy resolution) must agree on, so the strategy chosen
/// for a batch and the summary recorded for it can never drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightChange {
    /// The new weight is strictly smaller (monotone-safe).
    Decreased,
    /// The new weight equals the stored one (a no-op).
    Unchanged,
    /// The new weight is strictly larger **or incomparable** under
    /// `PartialOrd` — either way not monotone-safe.
    Increased,
}

/// Classify a weight overwrite of one stored copy.
pub fn weight_change<E: PartialOrd>(new: &E, old: &E) -> WeightChange {
    match new.partial_cmp(old) {
        Some(std::cmp::Ordering::Less) => WeightChange::Decreased,
        Some(std::cmp::Ordering::Equal) => WeightChange::Unchanged,
        _ => WeightChange::Increased,
    }
}

/// Whether a fragment set stores a directed graph, probed from the
/// first non-empty fragment (an all-empty set defaults to directed —
/// the conservative answer for every caller).
pub fn stored_directed<V, E>(frags: &[&Fragment<V, E>]) -> bool {
    frags
        .iter()
        .find(|f| f.local_count() > 0)
        .map(|f| f.local_graph().is_directed())
        .unwrap_or(true)
}

/// Shape of one delta batch, for deciding how warm incremental
/// evaluation stays exact (monotone-contracting programs handle
/// additions / weight decreases by monotonicity alone; removals and
/// weight increases need an affected-region invalidation plan; see
/// `WarmStart::delta_strategy`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Vertices added (logical count).
    pub vertices_added: u64,
    /// Vertices isolated (removal keeps the dense id).
    pub vertices_removed: u64,
    /// Logical edges added.
    pub edges_added: u64,
    /// Logical edges removed.
    pub edges_removed: u64,
    /// Weight updates that decreased a stored weight.
    pub weights_decreased: u64,
    /// Weight updates that increased a stored weight (or were
    /// incomparable under `PartialOrd`).
    pub weights_increased: u64,
}

impl DeltaSummary {
    /// True if the delta can only *shrink* path costs / merge components:
    /// no removals and no weight increases. Monotone-decreasing programs
    /// (`min`-aggregated SSSP, CC) re-evaluate such deltas exactly from
    /// the affected region.
    pub fn is_monotone_decreasing(&self) -> bool {
        self.vertices_removed == 0 && self.edges_removed == 0 && self.weights_increased == 0
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        *self == DeltaSummary::default()
    }
}

/// Edits destined for one fragment, in **global** id space. Edge entries
/// must be *stored* directed edges whose source is owned by the fragment
/// (undirected logical edges appear twice, once per stored direction, at
/// the respective source owners).
#[derive(Debug, Clone)]
pub struct FragmentEdit<V, E> {
    /// New vertices owned here (globally fresh ids).
    pub add_owned: Vec<(VertexId, V)>,
    /// Stored edges to insert.
    pub insert_edges: Vec<(VertexId, VertexId, E)>,
    /// Stored edges to remove — drops **all** parallel `(u, v)` copies.
    pub remove_edges: Vec<(VertexId, VertexId)>,
    /// Weight overwrites, applied to every parallel `(u, v)` copy.
    pub set_weights: Vec<(VertexId, VertexId, E)>,
}

impl<V, E> Default for FragmentEdit<V, E> {
    fn default() -> Self {
        FragmentEdit {
            add_owned: Vec::new(),
            insert_edges: Vec::new(),
            remove_edges: Vec::new(),
            set_weights: Vec::new(),
        }
    }
}

impl<V, E> FragmentEdit<V, E> {
    /// True if this fragment has no direct edits.
    pub fn is_empty(&self) -> bool {
        self.add_owned.is_empty()
            && self.insert_edges.is_empty()
            && self.remove_edges.is_empty()
            && self.set_weights.is_empty()
    }
}

/// A delta batch resolved against an edge-cut partition: per-fragment
/// edits plus the cross-fragment context the patch needs.
#[derive(Debug, Clone)]
pub struct PartitionEdit<V, E> {
    /// One edit per fragment (`frags[i]` applies to fragment `i`).
    pub frags: Vec<FragmentEdit<V, E>>,
    /// Vertices to isolate: every incident edge is dropped, the dense id
    /// survives as an edgeless owned vertex.
    pub removed_vertices: FxHashSet<VertexId>,
    /// Owner fragment of every vertex mentioned anywhere in the edit
    /// (existing or newly added).
    pub owners: FxHashMap<VertexId, FragId>,
    /// Fragments whose core (vertices/edges) must be re-derived. Must
    /// cover every fragment with a non-empty edit, plus the owner and all
    /// mirror holders of every removed vertex.
    pub touched: Vec<bool>,
}

/// Result of [`apply_partition_edit`]: everything a warm-start engine run
/// needs to pick up from retained state.
#[derive(Debug, Clone)]
pub struct AppliedEdit {
    /// Per-fragment local-id migration for retained state.
    pub remaps: Vec<StateRemap>,
    /// Per-fragment delta-affected vertices (new local ids, sorted):
    /// endpoints of edited edges, vertices new to the fragment, and owned
    /// vertices whose holder set grew. These seed the first warm round.
    pub seeds: Vec<Vec<LocalId>>,
    /// Weight updates that decreased a stored weight.
    pub weights_decreased: u64,
    /// Weight updates that increased a stored weight (or incomparable).
    pub weights_increased: u64,
    /// Per-fragment: whether the fragment's *persisted* bytes changed —
    /// its core was repacked (or, on the weight-only path, it held
    /// patched copies). Routing-only rebuilds are excluded: routing
    /// tables are derivable and never persisted (`aap-snapshot` loaders
    /// re-derive them). This is the dirty set differential checkpoints
    /// accumulate.
    pub changed: Vec<bool>,
}

/// Reusable buffers for [`apply_partition_edit`] — the delta-side analog
/// of `aap-core`'s pooled `Scratch`: the sorted op list, the per-local
/// mark bytes and the weight-only seen-set keep their capacity across
/// batches, so streaming many small deltas performs no steady-state
/// re-allocation of the transient structures. The pool holds one buffer
/// set per apply worker; [`apply_partition_edit_threads`] splits it so
/// each scoped thread rewrites with a private set.
#[derive(Debug, Default)]
pub struct EditBuffers {
    workers: Vec<WorkerBufs>,
}

impl EditBuffers {
    /// At least `n` per-worker buffer sets; the pool grows on first use
    /// and retains capacity afterwards.
    fn split(&mut self, n: usize) -> &mut [WorkerBufs] {
        if self.workers.len() < n {
            self.workers.resize_with(n, WorkerBufs::default);
        }
        &mut self.workers[..n]
    }
}

/// One apply worker's pooled scratch.
#[derive(Debug, Default)]
struct WorkerBufs {
    /// The batch's ops at the fragment being rewritten, sorted.
    ops: Vec<RowOp>,
    /// Globals the batch names that have no local at the fragment yet.
    ext: Vec<VertexId>,
    /// Per old local (then per `ext` entry): [`REFERENCED`] / [`DEAD`] /
    /// [`MOVED_OUT`].
    marks: Vec<u8>,
    /// Weight-only path: `(u, v)` pairs already overwritten.
    seen_pairs: FxHashSet<(VertexId, VertexId)>,
}

impl WorkerBufs {
    /// Zeroed marks for a fragment of `n` locals.
    fn fresh_marks(&mut self, n: usize) -> &mut [u8] {
        self.marks.clear();
        self.marks.resize(n, 0);
        &mut self.marks
    }
}

/// Mark: some surviving edge targets this local.
const REFERENCED: u8 = 1;
/// Mark: the vertex is isolated by this batch — its row and every edge
/// into it vanish, the (owned) id stays.
const DEAD: u8 = 2;
/// Mark: the owned vertex migrates away — its row leaves with it; it
/// stays as a mirror iff a surviving edge still targets it.
const MOVED_OUT: u8 = 4;

/// What one batch op does to the stored copies of `(u, v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum OpKind {
    Insert,
    Remove,
    SetWeight,
}

/// One op of a [`FragmentEdit`], keyed for the row merge: sorting puts a
/// row's ops together, ascending by target, inserts in batch order
/// first, overwrites in batch order last (so the last one wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RowOp {
    u: VertexId,
    v: VertexId,
    kind: OpKind,
    /// Index into the `FragmentEdit` list `kind` names.
    idx: u32,
    /// Inserts: the target's old local id, or `old local count + its
    /// index in `ext`` when it has none.
    t: LocalId,
}

/// A mirror-set diff produced by a rewrite, delivered to the owner
/// afterwards: vertex `.0`'s mirror at fragment `.1` was gained (`true`)
/// or lost (`false`).
type HolderEvent = (VertexId, FragId, bool);

/// One fragment rewritten by [`splice_fragment`].
struct Spliced<V, E> {
    /// The new fragment: final except for its routing table and for
    /// holder lists, which are carried over (empty for vertices new to
    /// the owned set) until the peers' mirror diffs are known.
    frag: Fragment<V, E>,
    /// Old local → new local, `LocalId::MAX` = dropped.
    old_to_new: Vec<LocalId>,
    /// New locals with no old local here, ascending.
    fresh: Vec<LocalId>,
    /// Old mirrors no surviving edge targets: `(global id, owner)`.
    lost: Vec<(VertexId, FragId)>,
    /// Rows written one by one rather than copied.
    rows_edited: usize,
}

/// Where [`splice_fragment`] gets what the old fragment cannot tell it.
struct SpliceHooks<'a, V, E> {
    /// Owner of a vertex that is a mirror after the rewrite, given its
    /// old local id if it had one.
    mirror_owner: &'a dyn Fn(VertexId, Option<LocalId>) -> FragId,
    /// Node data for a mirror new to the fragment.
    fresh_node: &'a dyn Fn(VertexId) -> V,
    /// Called with `(new, stored)` for every overwritten copy.
    on_overwrite: &'a mut dyn FnMut(&E, &E),
}

/// The owned part of a fragment under construction: pass 1 of
/// [`splice_fragment`] appends rows here in new local order. Targets
/// hold *codes* — old local ids, or `old local count + index in ext`
/// for vertices without one — until the new id space is known.
struct OwnedRows<'a, V, E> {
    f: &'a Fragment<V, E>,
    fe: &'a FragmentEdit<V, E>,
    marks: &'a mut [u8],
    /// Code → new local, filled for owned vertices as their rows land.
    table: Vec<LocalId>,
    globals: Vec<VertexId>,
    nodes: Vec<V>,
    offsets: Vec<usize>,
    targets: Vec<LocalId>,
    data: Vec<E>,
    holder_offsets: Vec<u32>,
    holders: Vec<FragId>,
}

impl<V: Clone, E: Clone> OwnedRows<'_, V, E> {
    /// Copy the untouched old owned rows `a..b` wholesale, marking their
    /// targets referenced.
    fn copy_rows(&mut self, a: usize, b: usize) {
        let (f, nl) = (self.f, self.globals.len());
        let old = f.local_graph();
        let (e0, e1) = (old.offsets()[a], old.offsets()[b]);
        let base = self.targets.len();
        for &t in &old.targets()[e0..e1] {
            self.marks[t as usize] |= REFERENCED;
        }
        self.targets.extend_from_slice(&old.targets()[e0..e1]);
        self.data.extend_from_slice(&old.edge_data_all()[e0..e1]);
        self.offsets.extend(old.offsets()[a + 1..=b].iter().map(|&o| o - e0 + base));
        let (old_offsets, old_holders) = f.holder_csr();
        let (h0, h1) = (old_offsets[a] as usize, old_offsets[b] as usize);
        let base = self.holders.len();
        self.holders.extend_from_slice(&old_holders[h0..h1]);
        self.holder_offsets
            .extend(old_offsets[a + 1..=b].iter().map(|&o| (o as usize - h0 + base) as u32));
        self.globals.extend_from_slice(&f.globals()[a..b]);
        self.nodes.extend_from_slice(&old.nodes()[a..b]);
        for (k, slot) in self.table[a..b].iter_mut().enumerate() {
            *slot = (nl + k) as LocalId;
        }
    }

    /// Append the edge insert `op` adds to the row being written.
    fn insert(&mut self, op: &RowOp) {
        let mark = &mut self.marks[op.t as usize];
        assert!(*mark & DEAD == 0, "inserted edge ({}, {}) touches a removed vertex", op.u, op.v);
        *mark |= REFERENCED;
        self.targets.push(op.t);
        self.data.push(self.fe.insert_edges[op.idx as usize].2.clone());
    }

    /// Write the row of new owned vertex `g` — `code` in the table, an
    /// old local's id if it has an old row — with the batch's `row_ops`
    /// merged in: removed pairs dropped, overwritten copies re-weighted,
    /// inserts placed after the retained copies of their target.
    fn edit_row(
        &mut self,
        g: VertexId,
        code: usize,
        node: &V,
        row_ops: &[RowOp],
        on_overwrite: &mut dyn FnMut(&E, &E),
    ) {
        let (f, fe) = (self.f, self.fe);
        let old = (code < f.local_count()).then_some(code as LocalId);
        let mut inserts = row_ops.iter().filter(|op| op.kind == OpKind::Insert).peekable();
        if old.is_some_and(|ol| self.marks[ol as usize] & DEAD != 0) {
            assert!(inserts.peek().is_none(), "inserted edge at removed vertex {g}");
        } else {
            for (t, d) in old.into_iter().flat_map(|ol| f.edges(ol)) {
                if self.marks[t as usize] & DEAD != 0 {
                    continue;
                }
                let gt = f.global(t);
                while let Some(op) = inserts.next_if(|op| op.v < gt) {
                    self.insert(op);
                }
                let pair = &row_ops[row_ops.partition_point(|op| op.v < gt)..];
                let pair = &pair[..pair.partition_point(|op| op.v == gt)];
                if pair.iter().any(|op| op.kind == OpKind::Remove) {
                    continue;
                }
                self.marks[t as usize] |= REFERENCED;
                self.targets.push(t);
                match pair.iter().rfind(|op| op.kind == OpKind::SetWeight) {
                    Some(op) => {
                        let w = &fe.set_weights[op.idx as usize].2;
                        on_overwrite(w, d);
                        self.data.push(w.clone());
                    }
                    None => self.data.push(d.clone()),
                }
            }
            for op in inserts {
                self.insert(op);
            }
        }
        self.offsets.push(self.targets.len());
        if let Some(ol) = old.filter(|&ol| f.is_owned(ol)) {
            self.holders.extend_from_slice(f.mirror_holders(ol));
        }
        self.holder_offsets.push(self.holders.len() as u32);
        self.table[code] = self.globals.len() as LocalId;
        self.globals.push(g);
        self.nodes.push(node.clone());
    }
}

/// The one structural rewriter (see the module docs): rebuild `f` with
/// `fe` applied, reading `f` only. `bufs.marks` must hold the caller's
/// [`DEAD`] / [`MOVED_OUT`] flags for `f`'s locals. Vertices in
/// `fe.add_owned` join the owned set (a migration may name an old
/// mirror there: it is promoted); their rows are the inserts naming
/// them.
fn splice_fragment<V, E>(
    f: &Fragment<V, E>,
    fe: &FragmentEdit<V, E>,
    bufs: &mut WorkerBufs,
    hooks: SpliceHooks<'_, V, E>,
) -> Spliced<V, E>
where
    V: Clone,
    E: Clone,
{
    let fid = f.id();
    let (old_owned, old_n) = (f.owned_count(), f.local_count());
    let SpliceHooks { mirror_owner: owner_of, fresh_node, on_overwrite } = hooks;
    let WorkerBufs { ops, ext, marks, .. } = bufs;
    debug_assert_eq!(marks.len(), old_n);

    // The batch's own ops, sorted by (row, target): the only sort.
    ops.clear();
    ext.clear();
    for (k, &(u, v, _)) in fe.insert_edges.iter().enumerate() {
        let t = f.local(v).unwrap_or_else(|| {
            ext.push(v);
            LocalId::MAX
        });
        ops.push(RowOp { u, v, kind: OpKind::Insert, idx: k as u32, t });
    }
    for (k, &(u, v)) in fe.remove_edges.iter().enumerate() {
        ops.push(RowOp { u, v, kind: OpKind::Remove, idx: k as u32, t: 0 });
    }
    for (k, &(u, v, _)) in fe.set_weights.iter().enumerate() {
        ops.push(RowOp { u, v, kind: OpKind::SetWeight, idx: k as u32, t: 0 });
    }
    ops.sort_unstable();
    let mut incoming: Vec<&(VertexId, V)> = fe.add_owned.iter().collect();
    incoming.sort_unstable_by_key(|&&(g, _)| g);
    ext.extend(incoming.iter().map(|&&(g, _)| g).filter(|&g| f.local(g).is_none()));
    ext.sort_unstable();
    ext.dedup();
    for op in ops.iter_mut().filter(|op| op.t == LocalId::MAX) {
        op.t = (old_n + ext.binary_search(&op.v).expect("collected above")) as LocalId;
    }
    let code_of = |g: VertexId| match f.local(g) {
        Some(l) => l as usize,
        None => old_n + ext.binary_search(&g).expect("collected above"),
    };

    // Rows that need individual work, ascending by global id: incoming
    // vertices, old owned rows the batch names, and old owned rows that
    // are dead or moving out. With a dead vertex anywhere, any row may
    // hold an edge into it, so every row is looked at.
    let mut edited: Vec<(VertexId, usize)> =
        incoming.iter().map(|&&(g, _)| (g, code_of(g))).collect();
    debug_assert!(edited.iter().all(|&(_, c)| c >= old_owned), "duplicate owned vertex");
    if marks.iter().any(|&m| m & DEAD != 0) {
        edited.extend((0..old_owned).map(|l| (f.global(l as LocalId), l)));
    } else {
        edited
            .extend((0..old_owned).filter(|&l| marks[l] != 0).map(|l| (f.global(l as LocalId), l)));
        let named = ops.chunk_by(|a, b| a.u == b.u).map(|row_ops| row_ops[0].u);
        edited.extend(
            named.filter_map(|u| f.local(u).filter(|&l| f.is_owned(l)).map(|l| (u, l as usize))),
        );
    }
    edited.sort_unstable();
    edited.dedup();
    marks.resize(old_n + ext.len(), 0);

    // Pass 1: stream the owned rows, old and incoming merged by global
    // id, into the new CSR; runs of untouched rows are copied wholesale.
    let code_cap = old_n + ext.len();
    let edge_cap = f.edge_count() + fe.insert_edges.len();
    let mut rows = OwnedRows {
        f,
        fe,
        marks,
        table: vec![LocalId::MAX; code_cap],
        globals: Vec::with_capacity(code_cap),
        nodes: Vec::with_capacity(code_cap),
        offsets: Vec::with_capacity(code_cap + 1),
        targets: Vec::with_capacity(edge_cap),
        data: Vec::with_capacity(edge_cap),
        holder_offsets: Vec::with_capacity(old_owned + incoming.len() + 1),
        holders: Vec::with_capacity(f.holder_csr().1.len()),
    };
    rows.offsets.push(0);
    rows.holder_offsets.push(0);
    let rows_edited = edited.len();
    let mut incoming = incoming.into_iter();
    let mut next_op = 0usize;
    let mut next_old = 0usize;
    for (g, code) in edited {
        // An op on a row stored elsewhere: a removal or overwrite finds
        // nothing to act on; an insert is a resolver bug.
        while let Some(op) = ops.get(next_op).filter(|op| op.u < g) {
            assert!(
                op.kind != OpKind::Insert,
                "inserted edge ({}, {}) not at frag {fid}",
                op.u,
                op.v
            );
            next_op += 1;
        }
        let lo = next_op;
        while ops.get(next_op).is_some_and(|op| op.u == g) {
            next_op += 1;
        }
        let (upto, node) = if code < old_owned {
            (code, f.node(code as LocalId))
        } else {
            let at = f.globals()[..old_owned].partition_point(|&x| x < g);
            (at, &incoming.next().expect("one row per incoming vertex").1)
        };
        rows.copy_rows(next_old, upto);
        next_old = upto + usize::from(code < old_owned);
        if rows.marks[code] & MOVED_OUT == 0 {
            rows.edit_row(g, code, node, &ops[lo..next_op], on_overwrite);
        }
    }
    rows.copy_rows(next_old, old_owned);
    assert!(
        ops[next_op..].iter().all(|op| op.kind != OpKind::Insert),
        "inserted edge at a vertex not owned at frag {fid}"
    );
    let OwnedRows {
        marks,
        mut table,
        mut globals,
        mut nodes,
        mut offsets,
        mut targets,
        data,
        holder_offsets,
        holders,
        ..
    } = rows;
    let owned_n = globals.len();
    let mut fresh: Vec<LocalId> =
        (0..ext.len()).map(|k| table[old_n + k]).filter(|&nl| nl != LocalId::MAX).collect();
    fresh.sort_unstable();

    // The new mirror run: referenced old mirrors (minus promotions),
    // demoted owned vertices and fresh endpoints, merged by global id.
    // The last two are batch-sized, so they merge first.
    let mut small: Vec<(VertexId, LocalId)> = (0..old_owned)
        .filter(|&l| marks[l] & MOVED_OUT != 0 && marks[l] & REFERENCED != 0)
        .map(|l| (f.global(l as LocalId), l as LocalId))
        .chain(
            (0..ext.len())
                .filter(|&k| table[old_n + k] == LocalId::MAX)
                .map(|k| (ext[k], (old_n + k) as LocalId)),
        )
        .collect();
    small.sort_unstable();
    let mut small = small.into_iter().peekable();
    let mut mirror_owner: Vec<FragId> = Vec::with_capacity(old_n - old_owned + small.len());
    let mut lost: Vec<(VertexId, FragId)> = Vec::new();
    let mut next_old = old_owned as LocalId;
    loop {
        // Skip old mirrors promoted to owned or no longer referenced.
        while (next_old as usize) < old_n
            && (table[next_old as usize] != LocalId::MAX
                || marks[next_old as usize] & REFERENCED == 0)
        {
            if table[next_old as usize] == LocalId::MAX {
                lost.push((f.global(next_old), f.owner(next_old)));
            }
            next_old += 1;
        }
        let kept = ((next_old as usize) < old_n).then(|| f.global(next_old));
        let (g, code) = match (kept, small.peek()) {
            (Some(g), small_next) if small_next.is_none_or(|&(ge, _)| g < ge) => {
                next_old += 1;
                (g, next_old - 1)
            }
            (_, Some(_)) => small.next().expect("peeked"),
            (_, None) => break,
        };
        let nl = globals.len() as LocalId;
        table[code as usize] = nl;
        globals.push(g);
        if (code as usize) < old_n {
            mirror_owner.push(owner_of(g, Some(code)));
            nodes.push(f.node(code).clone());
        } else {
            mirror_owner.push(owner_of(g, None));
            nodes.push(fresh_node(g));
            fresh.push(nl);
        }
    }

    // Pass 2: map the new rows through the table; mirrors own no rows.
    let n_local = globals.len();
    offsets.resize(n_local + 1, targets.len());
    let mut inner_out: Vec<LocalId> = Vec::new();
    for l in 0..owned_n {
        let mut border = false;
        for t in &mut targets[offsets[l]..offsets[l + 1]] {
            *t = table[*t as usize];
            debug_assert_ne!(*t, LocalId::MAX, "referenced target kept");
            border |= *t as usize >= owned_n;
        }
        if border {
            inner_out.push(l as LocalId);
        }
    }
    let inner_in: Vec<LocalId> = (0..owned_n)
        .filter(|&l| holder_offsets[l + 1] > holder_offsets[l])
        .map(|l| l as LocalId)
        .collect();
    table.truncate(old_n);

    let directed = f.local_graph().is_directed();
    let frag = Fragment::from_parts(
        fid,
        f.num_frags(),
        false,
        Graph::from_parts(directed, nodes, offsets, targets, data),
        globals,
        owned_n,
        inner_in,
        inner_out,
        mirror_owner,
        holder_offsets,
        holders,
    );
    Spliced { frag, old_to_new: table, fresh, lost, rows_edited }
}

/// Deliver holder events to their owner: splice `events` into `frag`'s
/// holder CSR and re-derive `Fi.I`, leaving the local id space alone.
/// Returns the owned vertices that gained a holder — they must
/// re-announce their value, the new mirror starts uninitialised.
fn splice_holders<V, E>(frag: &mut Fragment<V, E>, events: &[HolderEvent]) -> Vec<LocalId> {
    let mut evs: Vec<(LocalId, FragId, bool)> = events
        .iter()
        .map(|&(v, h, add)| (frag.local(v).expect("holder event names a local vertex"), h, add))
        .collect();
    evs.sort_unstable();
    evs.dedup();
    let owned_n = frag.owned_count();
    assert!(evs.last().is_none_or(|e| (e.0 as usize) < owned_n), "holder event for a mirror");
    let (old_offsets, old_holders) = frag.holder_csr();
    let mut holder_offsets: Vec<u32> = Vec::with_capacity(owned_n + 1);
    holder_offsets.push(0);
    let mut holders: Vec<FragId> = Vec::with_capacity(old_holders.len() + evs.len());
    // Lists of vertices `a..b` no event names: copied wholesale.
    let copy_lists = |a: usize, b: usize, offsets: &mut Vec<u32>, holders: &mut Vec<FragId>| {
        let (h0, base) = (old_offsets[a], holders.len() as u32);
        holders.extend_from_slice(&old_holders[h0 as usize..old_offsets[b] as usize]);
        offsets.extend(old_offsets[a + 1..=b].iter().map(|&o| o - h0 + base));
    };
    let mut next = 0usize;
    for group in evs.chunk_by(|a, b| a.0 == b.0) {
        let l = group[0].0 as usize;
        copy_lists(next, l, &mut holder_offsets, &mut holders);
        next = l + 1;
        // Holder lists are sorted by fragment id; so are the events.
        let old = &old_holders[old_offsets[l] as usize..old_offsets[l + 1] as usize];
        let mut old = old.iter().copied().peekable();
        for &(_, h, add) in group {
            while let Some(o) = old.next_if(|&o| o < h) {
                holders.push(o);
            }
            old.next_if_eq(&h);
            if add {
                holders.push(h);
            }
        }
        holders.extend(old);
        holder_offsets.push(holders.len() as u32);
    }
    copy_lists(next, owned_n, &mut holder_offsets, &mut holders);
    let inner_in: Vec<LocalId> = (0..owned_n)
        .filter(|&l| holder_offsets[l + 1] > holder_offsets[l])
        .map(|l| l as LocalId)
        .collect();
    frag.replace_borders(inner_in, holder_offsets, holders);
    evs.iter().filter(|e| e.2).map(|e| e.0).collect()
}

/// Which fragments need their routing table rebuilt — every patched
/// one, plus every peer whose destination list intersects a renumbered
/// fragment (tables store destination-local ids).
fn routing_targets(
    old_dests: &[Vec<FragId>],
    remaps: &[StateRemap],
    mut rebuilt: Vec<bool>,
) -> Vec<bool> {
    for j in 0..rebuilt.len() {
        if !rebuilt[j] && old_dests[j].iter().any(|&d| !remaps[d as usize].is_identity()) {
            rebuilt[j] = true;
        }
    }
    rebuilt
}

/// Debug builds re-validate every fragment a mutation changed (see
/// [`Fragment::check_invariants`]).
fn debug_check<V, E>(frags: &[&mut Fragment<V, E>], changed: &[bool]) {
    if cfg!(debug_assertions) {
        for f in frags.iter().zip(changed).filter_map(|(f, &c)| c.then_some(f)) {
            f.check_invariants().unwrap_or_else(|e| panic!("mutation broke an invariant: {e}"));
        }
    }
}

/// True when the batch is pure weight overwrites — no structural change
/// anywhere. Such batches keep every id space, border set, mirror set,
/// and routing table bit-for-bit intact, so the apply can patch stored
/// weights in place instead of rewriting CSRs.
fn is_weight_only<V, E>(edit: &PartitionEdit<V, E>) -> bool {
    edit.removed_vertices.is_empty()
        && edit.frags.iter().all(|fe| {
            fe.add_owned.is_empty() && fe.insert_edges.is_empty() && fe.remove_edges.is_empty()
        })
}

/// The weight-only fast path: overwrite the stored copies in place.
/// Beyond the returned [`AppliedEdit`] this allocates nothing in steady
/// state (the pooled seen-set retains capacity) — the case a stream of
/// weight updates hits every batch (see `tests/alloc_apply.rs`).
fn apply_weight_only<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    edit: &PartitionEdit<V, E>,
    bufs: &mut EditBuffers,
) -> AppliedEdit
where
    V: Clone,
    E: Clone + PartialOrd,
{
    let m = frags.len();
    let wb = &mut bufs.split(1)[0];
    let mut remaps: Vec<StateRemap> = Vec::with_capacity(m);
    let mut seeds: Vec<Vec<LocalId>> = vec![Vec::new(); m];
    let mut weights_decreased = 0u64;
    let mut weights_increased = 0u64;
    for i in 0..m {
        remaps.push(StateRemap::identity(frags[i].local_count()));
        let fe = &edit.frags[i];
        if !edit.touched[i] {
            continue;
        }
        // The splice resolves duplicate (u, v) overwrites last-entry-wins;
        // replicate that by walking entries newest-first with a pooled
        // seen-set.
        wb.seen_pairs.clear();
        for (u, v, w) in fe.set_weights.iter().rev() {
            if !wb.seen_pairs.insert((*u, *v)) {
                continue;
            }
            let (Some(lu), Some(lv)) = (frags[i].local(*u), frags[i].local(*v)) else {
                continue;
            };
            // Patch every stored parallel (u, v) copy, counting the
            // direction of each overwrite exactly like the splice.
            let (targets, data) = frags[i].adjacency_mut(lu);
            for (t, d) in targets.iter().zip(data.iter_mut()) {
                if *t == lv {
                    match weight_change(w, d) {
                        WeightChange::Decreased => weights_decreased += 1,
                        WeightChange::Unchanged => {}
                        WeightChange::Increased => weights_increased += 1,
                    }
                    *d = w.clone();
                }
            }
        }
        // Seeds: endpoints of every named edge with a local copy here —
        // the same set the splice seeds.
        for (u, v, _) in &fe.set_weights {
            if let Some(l) = frags[i].local(*u) {
                seeds[i].push(l);
            }
            if let Some(l) = frags[i].local(*v) {
                seeds[i].push(l);
            }
        }
        seeds[i].sort_unstable();
        seeds[i].dedup();
    }
    let changed = edit.touched.clone();
    AppliedEdit { remaps, seeds, weights_decreased, weights_increased, changed }
}

/// Run `job` over `items` on up to `bufs.len()` threads, each with a
/// buffer set of its own and a contiguous chunk of the items; results
/// come back in item order. The calling thread takes the first chunk, so
/// one worker's worth of work spawns nothing.
fn fan_out<T, R>(
    items: Vec<T>,
    bufs: &mut [WorkerBufs],
    job: impl Fn(T, &mut WorkerBufs) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let per = items.len().div_ceil(bufs.len()).max(1);
    let mut items = items.into_iter();
    let job = &job;
    let (mine, others) = bufs.split_first_mut().expect("at least one buffer set");
    let first: Vec<T> = items.by_ref().take(per).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = others
            .iter_mut()
            .map_while(|wb| {
                let chunk: Vec<T> = items.by_ref().take(per).collect();
                (!chunk.is_empty()).then(|| {
                    s.spawn(move || chunk.into_iter().map(|item| job(item, wb)).collect::<Vec<R>>())
                })
            })
            .collect();
        let mut out: Vec<R> = first.into_iter().map(|item| job(item, mine)).collect();
        for h in handles {
            out.extend(h.join().expect("apply worker panicked"));
        }
        out
    })
}

/// One touched fragment, rewritten against the pre-apply view.
struct Rewritten<V, E> {
    frag: Fragment<V, E>,
    remap: StateRemap,
    /// New local ids of edited endpoints and of locals new to the
    /// fragment, sorted.
    seeds: Vec<LocalId>,
    /// The mirror diff, each event paired with the owner it goes to.
    events: Vec<(FragId, HolderEvent)>,
    weights_decreased: u64,
    weights_increased: u64,
}

/// Rewrite touched fragment `i` with its share of `edit` (see
/// [`splice_fragment`]). Reads fragments only (`view`), so touched
/// fragments fan out across scoped threads. Emits the fragment's
/// `repack` span (delta track, tid = fragment id).
fn rewrite_touched<V, E>(
    i: usize,
    view: &[&Fragment<V, E>],
    edit: &PartitionEdit<V, E>,
    bufs: &mut WorkerBufs,
    tracer: &Tracer,
) -> Rewritten<V, E>
where
    V: Clone,
    E: Clone + PartialOrd,
{
    let (f, fe, fid) = (view[i], &edit.frags[i], i as FragId);
    if tracer.enabled() {
        let args = Args::new().with("frag", i).with("locals", f.local_count());
        tracer.begin(pid::DELTA, fid as u32, cat::APPLY, "repack", args);
    }
    let marks = bufs.fresh_marks(f.local_count());
    for v in &edit.removed_vertices {
        if let Some(l) = f.local(*v) {
            marks[l as usize] |= DEAD;
        }
    }
    let resolved_owner = |g: VertexId| -> FragId {
        *edit.owners.get(&g).unwrap_or_else(|| panic!("owner of vertex {g} not resolved"))
    };
    let (mut weights_decreased, mut weights_increased) = (0u64, 0u64);
    let hooks = SpliceHooks {
        mirror_owner: &|g, old| old.map_or_else(|| resolved_owner(g), |l| f.owner(l)),
        // A fresh mirror clones the owner's copy — or, for a vertex added
        // in this very batch, the owner's pending `add_owned` entry.
        fresh_node: &|g| {
            let o = resolved_owner(g) as usize;
            match view[o].local(g) {
                Some(l) => view[o].node(l).clone(),
                None => edit.frags[o]
                    .add_owned
                    .iter()
                    .find(|&&(v, _)| v == g)
                    .map(|(_, d)| d.clone())
                    .unwrap_or_else(|| panic!("no node data for new mirror {g}")),
            }
        },
        on_overwrite: &mut |new, stored| match weight_change(new, stored) {
            WeightChange::Decreased => weights_decreased += 1,
            WeightChange::Unchanged => {}
            WeightChange::Increased => weights_increased += 1,
        },
    };
    let Spliced { frag, old_to_new, fresh, lost, rows_edited } =
        splice_fragment(f, fe, bufs, hooks);

    let mut events: Vec<(FragId, HolderEvent)> =
        lost.iter().map(|&(g, owner)| (owner, (g, fid, false))).collect();
    events.extend(
        fresh
            .iter()
            .filter(|&&l| !frag.is_owned(l))
            .map(|&l| (frag.owner(l), (frag.global(l), fid, true))),
    );
    let mut seeds = fresh;
    let endpoints = (fe.insert_edges.iter().map(|e| (e.0, e.1)))
        .chain(fe.remove_edges.iter().copied())
        .chain(fe.set_weights.iter().map(|e| (e.0, e.1)));
    for (u, v) in endpoints {
        seeds.extend([u, v].iter().filter_map(|&g| frag.local(g)));
    }
    seeds.sort_unstable();
    seeds.dedup();
    let remap = StateRemap::from_table(old_to_new, frag.local_count());
    if tracer.enabled() {
        let args = Args::new()
            .with("locals", frag.local_count())
            .with("rows_edited", rows_edited)
            .with("edges", frag.edge_count());
        tracer.end(pid::DELTA, fid as u32, cat::APPLY, "repack", args);
    }
    Rewritten { frag, remap, seeds, events, weights_decreased, weights_increased }
}

/// Deliver owner `j`'s holder events (see [`splice_holders`]); returns
/// the owned vertices that gained a holder. An owner that was not itself
/// rewritten changes here, under a `repack` span of its own.
fn deliver_events<V, E>(
    j: usize,
    frag: &mut Fragment<V, E>,
    events: &[HolderEvent],
    span: bool,
    tracer: &Tracer,
) -> (usize, Vec<LocalId>) {
    if span {
        let args = Args::new().with("frag", j).with("locals", frag.local_count());
        tracer.begin(pid::DELTA, j as u32, cat::APPLY, "repack", args);
    }
    let gained = splice_holders(frag, events);
    if span {
        let args = Args::new().with("locals", frag.local_count()).with("rows_edited", 0usize);
        tracer.end(pid::DELTA, j as u32, cat::APPLY, "repack", args);
    }
    (j, gained)
}

/// Fragment `j`'s routing table over the committed view.
fn route_one<V, E>(j: usize, view: &[&Fragment<V, E>]) -> (usize, crate::RoutingTable) {
    (j, routing_table_for(view[j], &|d, g| view[d as usize].local(g)))
}

/// How the per-fragment jobs of the three apply phases run: [`Inline`]
/// on the calling thread, or [`Scoped`] over worker threads (which is
/// what needs `Send + Sync` payloads, so the choice is a type).
trait Fan<V, E> {
    fn rewrite(
        &self,
        touched: Vec<usize>,
        view: &[&Fragment<V, E>],
        edit: &PartitionEdit<V, E>,
        bufs: &mut EditBuffers,
        tracer: &Tracer,
    ) -> Vec<Rewritten<V, E>>;
    fn deliver(
        &self,
        owners: Vec<(usize, &mut Fragment<V, E>)>,
        events: &[Vec<HolderEvent>],
        rewritten: &[bool],
        bufs: &mut EditBuffers,
        tracer: &Tracer,
    ) -> Vec<(usize, Vec<LocalId>)>;
    fn route(
        &self,
        stale: Vec<usize>,
        view: &[&Fragment<V, E>],
        bufs: &mut EditBuffers,
    ) -> Vec<(usize, crate::RoutingTable)>;
}

struct Inline;

impl<V: Clone, E: Clone + PartialOrd> Fan<V, E> for Inline {
    fn rewrite(
        &self,
        touched: Vec<usize>,
        view: &[&Fragment<V, E>],
        edit: &PartitionEdit<V, E>,
        bufs: &mut EditBuffers,
        tracer: &Tracer,
    ) -> Vec<Rewritten<V, E>> {
        let wb = &mut bufs.split(1)[0];
        touched.into_iter().map(|i| rewrite_touched(i, view, edit, wb, tracer)).collect()
    }
    fn deliver(
        &self,
        owners: Vec<(usize, &mut Fragment<V, E>)>,
        events: &[Vec<HolderEvent>],
        rewritten: &[bool],
        _: &mut EditBuffers,
        tracer: &Tracer,
    ) -> Vec<(usize, Vec<LocalId>)> {
        let traced = tracer.enabled();
        owners
            .into_iter()
            .map(|(j, f)| deliver_events(j, f, &events[j], traced && !rewritten[j], tracer))
            .collect()
    }
    fn route(
        &self,
        stale: Vec<usize>,
        view: &[&Fragment<V, E>],
        _: &mut EditBuffers,
    ) -> Vec<(usize, crate::RoutingTable)> {
        stale.into_iter().map(|j| route_one(j, view)).collect()
    }
}

/// Up to this many scoped threads per phase.
struct Scoped(usize);

impl<V, E> Fan<V, E> for Scoped
where
    V: Clone + Send + Sync,
    E: Clone + PartialOrd + Send + Sync,
{
    fn rewrite(
        &self,
        touched: Vec<usize>,
        view: &[&Fragment<V, E>],
        edit: &PartitionEdit<V, E>,
        bufs: &mut EditBuffers,
        tracer: &Tracer,
    ) -> Vec<Rewritten<V, E>> {
        fan_out(touched, bufs.split(self.0), |i, wb| rewrite_touched(i, view, edit, wb, tracer))
    }
    fn deliver(
        &self,
        owners: Vec<(usize, &mut Fragment<V, E>)>,
        events: &[Vec<HolderEvent>],
        rewritten: &[bool],
        bufs: &mut EditBuffers,
        tracer: &Tracer,
    ) -> Vec<(usize, Vec<LocalId>)> {
        let traced = tracer.enabled();
        fan_out(owners, bufs.split(self.0), |(j, f), _| {
            deliver_events(j, f, &events[j], traced && !rewritten[j], tracer)
        })
    }
    fn route(
        &self,
        stale: Vec<usize>,
        view: &[&Fragment<V, E>],
        bufs: &mut EditBuffers,
    ) -> Vec<(usize, crate::RoutingTable)> {
        fan_out(stale, bufs.split(self.0), |j, _| route_one(j, view))
    }
}

/// Apply one resolved delta batch to an edge-cut fragment set, in place.
///
/// Fragments not named by the edit (directly or through holder/renumber
/// dependencies) are untouched — no global rebuild happens. Panics on
/// malformed edits (edges at the wrong fragment, unknown owners,
/// non-contiguous new vertex ids); `aap-delta`'s resolver upholds these.
///
/// Runs on the calling thread; [`apply_partition_edit_threads`] fans the
/// per-fragment phases out over scoped threads with a byte-identical
/// result.
pub fn apply_partition_edit<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    edit: &PartitionEdit<V, E>,
    bufs: &mut EditBuffers,
) -> AppliedEdit
where
    V: Clone,
    E: Clone + PartialOrd,
{
    apply_phases(frags, edit, bufs, &Tracer::default(), Inline)
}

/// [`apply_partition_edit`] with tracing (see
/// [`apply_partition_edit_threads_traced`] for the spans).
pub fn apply_partition_edit_traced<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    edit: &PartitionEdit<V, E>,
    bufs: &mut EditBuffers,
    tracer: &Tracer,
) -> AppliedEdit
where
    V: Clone,
    E: Clone + PartialOrd,
{
    apply_phases(frags, edit, bufs, tracer, Inline)
}

/// [`apply_partition_edit`] with the per-fragment work of all three
/// phases fanned out over up to `threads` scoped worker threads — each
/// phase over as many as it has work items: touched fragments are
/// rewritten against a shared read-only view, owners splice the
/// resulting holder events behind disjoint `&mut Fragment`s, and routing
/// tables rebuild from the committed view. Each worker rewrites through
/// its own pooled `WorkerBufs`, and the cross-fragment holder events are
/// merged between phases in ascending fragment order — the one place
/// workers could have raced on ordering — so the result is
/// **byte-identical at every thread count** (the mutate proptests pin
/// this). A phase with one work item, and every phase when
/// `threads <= 1`, runs on the calling thread.
pub fn apply_partition_edit_threads<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    edit: &PartitionEdit<V, E>,
    bufs: &mut EditBuffers,
    threads: usize,
) -> AppliedEdit
where
    V: Clone + Send + Sync,
    E: Clone + PartialOrd + Send + Sync,
{
    apply_phases(frags, edit, bufs, &Tracer::default(), Scoped(threads.max(1)))
}

/// [`apply_partition_edit_threads`] emitting, on the delta track, one
/// `repack` span per changed fragment (tid = fragment id, from whichever
/// worker rewrites it; it covers the whole rewrite of a touched
/// fragment, or the holder splice of one that only gained or lost
/// holders) and a `routing` span around the table rebuilds.
pub fn apply_partition_edit_threads_traced<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    edit: &PartitionEdit<V, E>,
    bufs: &mut EditBuffers,
    threads: usize,
    tracer: &Tracer,
) -> AppliedEdit
where
    V: Clone + Send + Sync,
    E: Clone + PartialOrd + Send + Sync,
{
    apply_phases(frags, edit, bufs, tracer, Scoped(threads.max(1)))
}

/// The one apply driver behind the four entry points above.
fn apply_phases<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    edit: &PartitionEdit<V, E>,
    bufs: &mut EditBuffers,
    tracer: &Tracer,
    fan: impl Fan<V, E>,
) -> AppliedEdit
where
    V: Clone,
    E: Clone + PartialOrd,
{
    let m = frags.len();
    assert_eq!(edit.frags.len(), m, "one FragmentEdit per fragment");
    assert_eq!(edit.touched.len(), m);
    assert!(frags.iter().all(|f| !f.is_vertex_cut()), "in-place apply is edge-cut only");
    for i in 0..m {
        assert!(
            edit.touched[i] || edit.frags[i].is_empty(),
            "edited fragment {i} not marked touched"
        );
    }
    if is_weight_only(edit) {
        // In-place weight patching touches a handful of cache lines per
        // entry; thread fan-out can only lose.
        return apply_weight_only(frags, edit, bufs);
    }
    let old_dests: Vec<Vec<FragId>> = frags.iter().map(|f| f.routing().dests().to_vec()).collect();

    // Phase 1: rewrite the touched fragments over the shared pre-apply
    // view, then commit in fragment order so the per-owner holder-event
    // streams do not depend on the worker count.
    let rewritten: Vec<Rewritten<V, E>> = {
        let view: Vec<&Fragment<V, E>> = frags.iter().map(|f| &**f).collect();
        let touched: Vec<usize> = (0..m).filter(|&i| edit.touched[i]).collect();
        fan.rewrite(touched, &view, edit, bufs, tracer)
    };
    let mut remaps: Vec<StateRemap> =
        frags.iter().map(|f| StateRemap::identity(f.local_count())).collect();
    let mut seeds: Vec<Vec<LocalId>> = vec![Vec::new(); m];
    let mut holder_events: Vec<Vec<HolderEvent>> = vec![Vec::new(); m];
    let mut weights_decreased = 0u64;
    let mut weights_increased = 0u64;
    for r in rewritten {
        let i = r.frag.id() as usize;
        *frags[i] = r.frag;
        remaps[i] = r.remap;
        seeds[i] = r.seeds;
        for (owner, ev) in r.events {
            holder_events[owner as usize].push(ev);
        }
        weights_decreased += r.weights_decreased;
        weights_increased += r.weights_increased;
    }

    // Phase 2: owners splice the holder events in, behind disjoint
    // `&mut`s.
    let mut changed = edit.touched.clone();
    let owners: Vec<(usize, &mut Fragment<V, E>)> = frags
        .iter_mut()
        .enumerate()
        .filter(|(j, _)| !holder_events[*j].is_empty())
        .map(|(j, f)| (j, &mut **f))
        .collect();
    for (j, gained) in fan.deliver(owners, &holder_events, &edit.touched, bufs, tracer) {
        changed[j] = true;
        seeds[j].extend(gained);
        seeds[j].sort_unstable();
        seeds[j].dedup();
    }
    debug_check(frags, &changed);

    // Phase 3: routing tables over the committed shared view.
    if tracer.enabled() {
        tracer.begin(pid::DELTA, 0, cat::APPLY, "routing", Args::new());
    }
    let needs_routing = routing_targets(&old_dests, &remaps, changed.clone());
    let tables = {
        let view: Vec<&Fragment<V, E>> = frags.iter().map(|f| &**f).collect();
        let stale: Vec<usize> = (0..m).filter(|&j| needs_routing[j]).collect();
        fan.route(stale, &view, bufs)
    };
    if tracer.enabled() {
        let args = Args::new().with("tables", tables.len());
        tracer.end(pid::DELTA, 0, cat::APPLY, "routing", args);
    }
    for (j, t) in tables {
        frags[j].set_routing(t);
    }

    AppliedEdit { remaps, seeds, weights_decreased, weights_increased, changed }
}

/// A delta batch resolved against a **vertex-cut** partition: per-fragment
/// stored-edge ops already routed to the fragment the canonical pair-hash
/// rule ([`crate::partition::vertex_cut_edge_frag`]) assigns them to, plus
/// vertex additions/removals and — for elastic migration — forced
/// ownership assignments.
///
/// Unlike [`PartitionEdit`] there is no per-fragment `add_owned`: under
/// vertex-cut, vertex *placement* is derived from edge incidence (plus
/// the isolated-home rule), so [`patch_vertex_cut`] computes holder sets
/// and owners itself. The patch is shared by the delta path (`aap-delta`)
/// and the migration executor (`aap-balance`), which expresses an
/// ownership move as a pure `owner_overrides` edit with no edge ops.
#[derive(Debug, Clone)]
pub struct VertexCutEdit<V, E> {
    /// One edit per fragment; `add_owned` must be empty (placement is
    /// derived). Both stored directions of an undirected logical edge
    /// must land at the same fragment (the pair-hash rule guarantees
    /// this).
    pub frags: Vec<FragmentEdit<V, E>>,
    /// Vertices to isolate: every incident edge is dropped, the dense id
    /// survives as an edgeless owned vertex at its isolated home.
    pub removed_vertices: FxHashSet<VertexId>,
    /// Node payloads for vertices added in this batch.
    pub added: Vec<(VertexId, V)>,
    /// Forced owners (migration): each named vertex must be a member of
    /// its post-edit holder set. Vertices not named follow the default
    /// rule: keep the current owner when the holder set is unchanged,
    /// else the canonical `hs[v % |hs|]`.
    pub owner_overrides: FxHashMap<VertexId, FragId>,
}

impl<V, E> VertexCutEdit<V, E> {
    /// An empty edit over `m` fragments.
    pub fn empty(m: usize) -> Self {
        VertexCutEdit {
            frags: (0..m).map(|_| FragmentEdit::default()).collect(),
            removed_vertices: FxHashSet::default(),
            added: Vec::new(),
            owner_overrides: FxHashMap::default(),
        }
    }
}

/// Apply one resolved vertex-cut delta batch in place — the vertex-cut
/// peer of [`apply_partition_edit`], with cost proportional to the
/// *touched* fragments (those with edge ops, those holding an affected
/// vertex, and isolated homes), never a global rebuild.
///
/// The locality argument: the pair-hash rule assigns each stored edge a
/// fragment from its endpoints alone, so edges never migrate when other
/// edges change. A batch can therefore only change (a) the edge lists of
/// the fragments it names and (b) the holder sets / owners of the
/// vertices incident to changed edges — and every fragment involved in
/// (b) already holds the vertex or gains it through a named edge.
pub fn patch_vertex_cut<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    edit: &VertexCutEdit<V, E>,
) -> AppliedEdit
where
    V: Clone,
    E: Clone + PartialOrd,
{
    patch_vertex_cut_traced(frags, edit, &Tracer::default())
}

/// [`patch_vertex_cut`] emitting a per-fragment `repack` span (delta
/// track, tid = fragment id) around each rebuilt fragment.
pub fn patch_vertex_cut_traced<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    edit: &VertexCutEdit<V, E>,
    tracer: &Tracer,
) -> AppliedEdit
where
    V: Clone,
    E: Clone + PartialOrd,
{
    let m = frags.len();
    assert_eq!(edit.frags.len(), m, "one FragmentEdit per fragment");
    assert!(frags.iter().all(|f| f.is_vertex_cut()), "patch_vertex_cut needs a vertex-cut set");
    assert!(
        edit.frags.iter().all(|fe| fe.add_owned.is_empty()),
        "vertex-cut placement is derived; add vertices via `VertexCutEdit::added`"
    );

    // Affected vertices: endpoints of every edge op, removed/added ids,
    // migration targets — plus endpoints of edges dropped *implicitly* by
    // a vertex removal (their holder sets may shrink too).
    let mut affected: FxHashSet<VertexId> = FxHashSet::default();
    for fe in &edit.frags {
        for (u, v, _) in fe.insert_edges.iter().chain(fe.set_weights.iter()) {
            affected.insert(*u);
            affected.insert(*v);
        }
        for (u, v) in &fe.remove_edges {
            affected.insert(*u);
            affected.insert(*v);
        }
    }
    affected.extend(edit.removed_vertices.iter().copied());
    affected.extend(edit.added.iter().map(|&(v, _)| v));
    affected.extend(edit.owner_overrides.keys().copied());
    if !edit.removed_vertices.is_empty() {
        for f in frags.iter() {
            if !edit.removed_vertices.iter().any(|v| f.local(*v).is_some()) {
                continue;
            }
            for l in f.local_vertices() {
                let gu = f.global(l);
                let u_removed = edit.removed_vertices.contains(&gu);
                for &t in f.neighbors(l) {
                    let gt = f.global(t);
                    if u_removed || edit.removed_vertices.contains(&gt) {
                        affected.insert(gu);
                        affected.insert(gt);
                    }
                }
            }
        }
    }
    let mut affected_sorted: Vec<VertexId> = affected.iter().copied().collect();
    affected_sorted.sort_unstable();

    // Old holder sets, owners, and one node payload per affected vertex.
    let added_payload: FxHashMap<VertexId, &V> = edit.added.iter().map(|(v, d)| (*v, d)).collect();
    let mut hs_old: FxHashMap<VertexId, Vec<FragId>> = FxHashMap::default();
    let mut owner_old: FxHashMap<VertexId, FragId> = FxHashMap::default();
    let mut payload: FxHashMap<VertexId, V> = FxHashMap::default();
    for &v in &affected_sorted {
        let mut hs = Vec::new();
        for (i, f) in frags.iter().enumerate() {
            if let Some(l) = f.local(v) {
                hs.push(i as FragId);
                if f.is_owned(l) {
                    owner_old.insert(v, i as FragId);
                }
                payload.entry(v).or_insert_with(|| f.node(l).clone());
            }
        }
        if hs.is_empty() {
            let d = added_payload
                .get(&v)
                .unwrap_or_else(|| panic!("vertex {v} not found in any fragment and not added"));
            payload.insert(v, (*d).clone());
        }
        hs_old.insert(v, hs);
    }
    for v in &edit.removed_vertices {
        assert!(!hs_old[v].is_empty(), "removed vertex {v} does not exist");
    }

    // Touched fragments: direct edits + every holder of an affected vertex.
    let mut touched = vec![false; m];
    for (i, fe) in edit.frags.iter().enumerate() {
        if !fe.is_empty() {
            touched[i] = true;
        }
    }
    for &v in &affected_sorted {
        for &h in &hs_old[&v] {
            touched[h as usize] = true;
        }
    }

    // Derive the post-edit edge list of every touched fragment and
    // collect the post-edit incidence of affected vertices.
    let mut edges_new: Vec<Option<Vec<(VertexId, VertexId, E)>>> = (0..m).map(|_| None).collect();
    let mut edge_diff = vec![false; m];
    let mut weights_decreased = 0u64;
    let mut weights_increased = 0u64;
    let mut inc_new: FxHashMap<VertexId, Vec<FragId>> =
        affected_sorted.iter().map(|&v| (v, Vec::new())).collect();
    for i in 0..m {
        if !touched[i] {
            continue;
        }
        let f: &Fragment<V, E> = frags[i];
        let fe = &edit.frags[i];
        let removed_pairs: FxHashSet<(VertexId, VertexId)> =
            fe.remove_edges.iter().copied().collect();
        let setw: FxHashMap<(VertexId, VertexId), &E> =
            fe.set_weights.iter().map(|(u, v, w)| ((*u, *v), w)).collect();
        let mut edges: Vec<(VertexId, VertexId, E)> =
            Vec::with_capacity(f.edge_count() + fe.insert_edges.len());
        let mut diff = !fe.insert_edges.is_empty();
        for l in f.local_vertices() {
            let gu = f.global(l);
            let u_removed = edit.removed_vertices.contains(&gu);
            for (t, d) in f.edges(l) {
                let gt = f.global(t);
                if u_removed
                    || edit.removed_vertices.contains(&gt)
                    || removed_pairs.contains(&(gu, gt))
                {
                    diff = true;
                    continue;
                }
                if let Some(w) = setw.get(&(gu, gt)) {
                    match weight_change(*w, d) {
                        WeightChange::Decreased => {
                            weights_decreased += 1;
                            diff = true;
                        }
                        WeightChange::Unchanged => {}
                        WeightChange::Increased => {
                            weights_increased += 1;
                            diff = true;
                        }
                    }
                    edges.push((gu, gt, (*w).clone()));
                } else {
                    edges.push((gu, gt, d.clone()));
                }
            }
        }
        for (u, v, d) in &fe.insert_edges {
            assert!(
                !edit.removed_vertices.contains(u) && !edit.removed_vertices.contains(v),
                "inserted edge ({u}, {v}) touches a removed vertex"
            );
            edges.push((*u, *v, d.clone()));
        }
        for &(u, v, _) in &edges {
            if let Some(e) = inc_new.get_mut(&u) {
                e.push(i as FragId);
            }
            if u != v {
                if let Some(e) = inc_new.get_mut(&v) {
                    e.push(i as FragId);
                }
            }
        }
        edge_diff[i] = diff;
        edges_new[i] = Some(edges);
    }

    // New holder sets and owners.
    let mut hs_new: FxHashMap<VertexId, Vec<FragId>> = FxHashMap::default();
    let mut owner_new: FxHashMap<VertexId, FragId> = FxHashMap::default();
    let mut extra_homes: Vec<FragId> = Vec::new();
    for &v in &affected_sorted {
        let mut hs = inc_new.remove(&v).expect("affected vertex tracked");
        hs.sort_unstable();
        hs.dedup();
        if hs.is_empty() {
            hs.push(crate::partition::vertex_cut_isolated_home(v, m));
        }
        let owner = if let Some(&o) = edit.owner_overrides.get(&v) {
            assert!(hs.contains(&o), "owner override {o} for vertex {v} is not a holder");
            o
        } else if hs == hs_old[&v] {
            owner_old[&v]
        } else {
            hs[v as usize % hs.len()]
        };
        for &h in &hs {
            if !touched[h as usize] {
                extra_homes.push(h);
            }
        }
        owner_new.insert(v, owner);
        hs_new.insert(v, hs);
    }
    // Isolated homes not previously holding anything affected: their edge
    // lists are untouched (any affected endpoint would have made them a
    // holder), but they gain an edgeless local and must repack.
    for h in extra_homes {
        let i = h as usize;
        if touched[i] {
            continue;
        }
        touched[i] = true;
        let f: &Fragment<V, E> = frags[i];
        let mut edges = Vec::with_capacity(f.edge_count());
        for l in f.local_vertices() {
            let gu = f.global(l);
            for (t, d) in f.edges(l) {
                edges.push((gu, f.global(t), d.clone()));
            }
        }
        edges_new[i] = Some(edges);
    }

    // Which fragments actually change bytes: edge-list diffs, plus every
    // old/new holder of a vertex whose holder set or owner moved (the
    // owned/copy split, mirror owners, holder CSRs and borders live
    // there).
    let mut rebuilt: Vec<bool> = (0..m).map(|i| touched[i] && edge_diff[i]).collect();
    for &v in &affected_sorted {
        let old = &hs_old[&v];
        let new = &hs_new[&v];
        if old != new || owner_old.get(&v) != Some(&owner_new[&v]) {
            for &h in old.iter().chain(new.iter()) {
                rebuilt[h as usize] = true;
            }
        }
    }

    // Affected vertices by post-edit holding fragment, ascending.
    let mut affected_at: Vec<Vec<VertexId>> = vec![Vec::new(); m];
    for &v in &affected_sorted {
        for &h in &hs_new[&v] {
            affected_at[h as usize].push(v);
        }
    }

    let old_dests: Vec<Vec<FragId>> = frags.iter().map(|f| f.routing().dests().to_vec()).collect();
    let traced = tracer.enabled();
    let mut remaps: Vec<StateRemap> = Vec::with_capacity(m);
    let mut seeds: Vec<Vec<LocalId>> = vec![Vec::new(); m];
    for i in 0..m {
        if !rebuilt[i] {
            remaps.push(StateRemap::identity(frags[i].local_count()));
            for &v in &affected_at[i] {
                seeds[i].push(frags[i].local(v).expect("unchanged holder keeps its copy"));
            }
            seeds[i].sort_unstable();
            seeds[i].dedup();
            continue;
        }
        if traced {
            tracer.begin(
                pid::DELTA,
                i as u32,
                cat::APPLY,
                "repack",
                Args::new().with("frag", i).with("locals", frags[i].local_count()),
            );
        }
        let (nf, remap, sds) = {
            let f: &Fragment<V, E> = frags[i];
            // New local layout: owned (sorted by global) then copies
            // (sorted by global), matching the from-scratch builder.
            let mut owned_new: Vec<(VertexId, V)> = Vec::new();
            let mut copies_new: Vec<(VertexId, V, FragId)> = Vec::new();
            for l in f.local_vertices() {
                let g = f.global(l);
                if affected.contains(&g) {
                    continue; // re-added below if it stays
                }
                if f.is_owned(l) {
                    owned_new.push((g, f.node(l).clone()));
                } else {
                    copies_new.push((g, f.node(l).clone(), f.owner(l)));
                }
            }
            for &v in &affected_at[i] {
                let d = payload[&v].clone();
                let o = owner_new[&v];
                if o == i as FragId {
                    owned_new.push((v, d));
                } else {
                    copies_new.push((v, d, o));
                }
            }
            owned_new.sort_unstable_by_key(|&(g, _)| g);
            copies_new.sort_unstable_by_key(|&(g, _, _)| g);

            let owned_n = owned_new.len();
            let n_local = owned_n + copies_new.len();
            let mut g2l: FxHashMap<VertexId, LocalId> = FxHashMap::default();
            g2l.reserve(n_local);
            let mut globals = Vec::with_capacity(n_local);
            let mut node_data: Vec<V> = Vec::with_capacity(n_local);
            for (g, d) in &owned_new {
                g2l.insert(*g, globals.len() as LocalId);
                globals.push(*g);
                node_data.push(d.clone());
            }
            let mut mirror_owner = Vec::with_capacity(copies_new.len());
            for (g, d, o) in &copies_new {
                g2l.insert(*g, globals.len() as LocalId);
                globals.push(*g);
                node_data.push(d.clone());
                mirror_owner.push(*o);
            }

            let edges = edges_new[i].take().expect("rebuilt fragment derived its edges");
            let mut offsets = vec![0usize; n_local + 1];
            for &(u, _, _) in &edges {
                offsets[g2l[&u] as usize + 1] += 1;
            }
            for l in 1..=n_local {
                offsets[l] += offsets[l - 1];
            }
            let mut cursor = offsets.clone();
            let mut targets = vec![0 as LocalId; edges.len()];
            let mut slots: Vec<Option<E>> = vec![None; edges.len()];
            for (u, v, d) in edges {
                let lu = g2l[&u] as usize;
                targets[cursor[lu]] = g2l[&v];
                slots[cursor[lu]] = Some(d);
                cursor[lu] += 1;
            }
            let edge_data: Vec<E> =
                slots.into_iter().map(|s| s.expect("every slot filled")).collect();
            let directed = f.local_graph().is_directed();
            let local_graph = Graph::from_parts(directed, node_data, offsets, targets, edge_data);

            // Border + holder CSR over owned: affected vertices use the
            // recomputed holder set, unchanged ones keep their old lists.
            let mut border: Vec<LocalId> = Vec::new();
            let mut holder_offsets = vec![0u32; owned_n + 1];
            let mut holders: Vec<FragId> = Vec::new();
            for (l, (g, _)) in owned_new.iter().enumerate() {
                let hlist: &[FragId] = if affected.contains(g) {
                    &hs_new[g]
                } else {
                    f.mirror_holders(f.local(*g).expect("unchanged owned vertex"))
                };
                for &h in hlist {
                    if h != i as FragId {
                        holders.push(h);
                        holder_offsets[l + 1] += 1;
                    }
                }
                if holder_offsets[l + 1] > 0 {
                    border.push(l as LocalId);
                }
            }
            for l in 1..=owned_n {
                holder_offsets[l] += holder_offsets[l - 1];
            }

            let table: Vec<LocalId> =
                f.globals().iter().map(|g| g2l.get(g).copied().unwrap_or(LocalId::MAX)).collect();
            let remap = StateRemap::from_table(table, n_local);
            let mut sds: Vec<LocalId> = affected_at[i].iter().map(|v| g2l[v]).collect();
            sds.sort_unstable();
            sds.dedup();

            let nf = Fragment::from_parts(
                f.id(),
                f.num_frags(),
                true,
                local_graph,
                globals,
                owned_n,
                border.clone(),
                border,
                mirror_owner,
                holder_offsets,
                holders,
            );
            (nf, remap, sds)
        };
        *frags[i] = nf;
        remaps.push(remap);
        seeds[i] = sds;
        if traced {
            tracer.end(
                pid::DELTA,
                i as u32,
                cat::APPLY,
                "repack",
                Args::new().with("locals", frags[i].local_count()).with("seeds", seeds[i].len()),
            );
        }
    }

    // Routing: rebuilt fragments plus peers pointing at renumbered ones.
    let changed = rebuilt.clone();
    debug_check(frags, &changed);
    rebuild_routing_tables_where(frags, &routing_targets(&old_dests, &remaps, rebuilt));

    AppliedEdit { remaps, seeds, weights_decreased, weights_increased, changed }
}

/// One ownership move of the elastic rebalancer: a vertex and the
/// fragment that should own it next.
pub type VertexMove = (VertexId, FragId);

/// [`migrate_edge_cut_traced`] without tracing.
pub fn migrate_edge_cut<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    moves: &[VertexMove],
) -> AppliedEdit
where
    V: Clone,
    E: Clone,
{
    migrate_edge_cut_traced(frags, moves, &Tracer::default())
}

/// Move ownership of selected vertices between edge-cut fragments **in
/// place**, carrying each vertex's out-edges to its new owner — the
/// executor half of `aap-balance`.
///
/// Only the *affected* fragments repack: the source and destination of
/// every move, every fragment that held a moved vertex as a mirror (its
/// `mirror_owner` hint changes), and the owner of every out-edge target
/// of a moved vertex (the edge changing storage fragment can add or drop
/// a mirror of the target, shifting the owner's holder CSR). Everything
/// else keeps an identity [`StateRemap`], so retained warm state
/// survives untouched; at repacked fragments the remap carries state
/// across the renumbering. Seeds mark every surviving copy of a moved
/// vertex (mirrors push their retained value to the new owner) plus
/// every owner whose holder list changed (it re-announces to fresh
/// mirrors), so a single warm incremental round settles the migrated
/// values — the next round is warm, never cold.
pub fn migrate_edge_cut_traced<V, E>(
    frags: &mut [&mut Fragment<V, E>],
    moves: &[VertexMove],
    tracer: &Tracer,
) -> AppliedEdit
where
    V: Clone,
    E: Clone,
{
    let m = frags.len();
    assert!(frags.iter().all(|f| !f.is_vertex_cut()), "migrate_edge_cut needs edge-cut fragments");
    let traced = tracer.enabled();

    // Resolve each move to (from, to); drop no-ops.
    let mut moved: FxHashMap<VertexId, (FragId, FragId)> = FxHashMap::default();
    for &(v, to) in moves {
        assert!((to as usize) < m, "move target {to} out of range");
        let from = (0..m)
            .find(|&i| frags[i].local(v).is_some_and(|l| frags[i].is_owned(l)))
            .unwrap_or_else(|| panic!("moved vertex {v} is not owned by any fragment"))
            as FragId;
        if from != to {
            let prev = moved.insert(v, (from, to));
            assert!(prev.is_none(), "vertex {v} appears twice in one migration plan");
        }
    }
    if moved.is_empty() {
        return AppliedEdit {
            remaps: frags.iter().map(|f| StateRemap::identity(f.local_count())).collect(),
            seeds: vec![Vec::new(); m],
            weights_decreased: 0,
            weights_increased: 0,
            changed: vec![false; m],
        };
    }
    let mut moved_sorted: Vec<VertexId> = moved.keys().copied().collect();
    moved_sorted.sort_unstable();

    if traced {
        tracer.begin(
            pid::DELTA,
            0,
            cat::BALANCE,
            "migrate",
            Args::new().with("moves", moved_sorted.len()),
        );
    }

    // Gather, per destination, the edit that brings its new vertices in
    // — payloads as `add_owned`, carried rows as inserts — plus every
    // moved vertex's old holder list and the pre-move owner of each
    // out-edge target, all read from the source fragment; and classify
    // the affected fragments. `structural` fragments (the from/to of some
    // move) gain or lose owned rows, so their dense local id space shifts
    // and they are rewritten by the same splice a delta uses. The rest of
    // the affected set only sees *metadata* change — a mirror's owner
    // hint, an owned vertex's holder list — and is patched in place under
    // an identity remap.
    let n_global: usize = frags
        .iter()
        .map(|f| {
            let (o, n) = (f.owned_count(), f.local_count());
            let mut mx = 0usize;
            if o > 0 {
                mx = f.global((o - 1) as LocalId) as usize + 1;
            }
            if n > o {
                mx = mx.max(f.global((n - 1) as LocalId) as usize + 1);
            }
            mx
        })
        .max()
        .unwrap_or(0);
    let mut edits: Vec<FragmentEdit<V, E>> = (0..m).map(|_| FragmentEdit::default()).collect();
    let mut old_holders: FxHashMap<VertexId, Vec<FragId>> = FxHashMap::default();
    // Dense per-global tables (global id spaces are contiguous), probed
    // once per new mirror and per owned vertex below.
    let mut owner_hint: Vec<FragId> = vec![FragId::MAX; n_global];
    let mut moved_from: Vec<FragId> = vec![FragId::MAX; n_global];
    let mut moved_to: Vec<FragId> = vec![FragId::MAX; n_global];
    let mut structural = vec![false; m];
    let mut affected = vec![false; m];
    for &v in &moved_sorted {
        let (from, to) = moved[&v];
        moved_from[v as usize] = from;
        moved_to[v as usize] = to;
        structural[from as usize] = true;
        structural[to as usize] = true;
        let f: &Fragment<V, E> = frags[from as usize];
        let l = f.local(v).expect("moved vertex owned at source");
        let fe = &mut edits[to as usize];
        fe.add_owned.push((v, f.node(l).clone()));
        for (t, d) in f.edges(l) {
            let gt = f.global(t);
            let o = f.owner(t);
            owner_hint[gt as usize] = o;
            affected[o as usize] = true;
            fe.insert_edges.push((v, gt, d.clone()));
        }
        let hl = f.mirror_holders(l).to_vec();
        for &h in &hl {
            affected[h as usize] = true;
        }
        old_holders.insert(v, hl);
    }
    for i in 0..m {
        affected[i] |= structural[i];
    }

    // Phase 1: rewrite each structural fragment without mutating anything
    // yet (a fresh mirror's payload is read from its pre-move owner).
    // Owned locals are sorted by global id and every row by target global
    // id, so the splice reproduces the from-scratch builder's layout.
    let mut bufs = WorkerBufs::default();
    let mut spliced: Vec<Option<Spliced<V, E>>> = (0..m).map(|_| None).collect();
    for i in (0..m).filter(|&i| structural[i]) {
        let fid = i as FragId;
        let f: &Fragment<V, E> = frags[i];
        if traced {
            let args = Args::new().with("frag", i).with("locals", f.local_count());
            tracer.begin(pid::DELTA, i as u32, cat::BALANCE, "repack", args);
        }
        let marks = bufs.fresh_marks(f.local_count());
        for &v in moved_sorted.iter().filter(|&&v| moved_from[v as usize] == fid) {
            marks[f.local(v).expect("moved vertex owned at source") as usize] |= MOVED_OUT;
        }
        let hooks = SpliceHooks {
            // The pre-move owner — this fragment for a demoted vertex, the
            // old hint for a retained mirror, the gathered hint for a
            // fresh one — unless the vertex itself moves in this plan.
            mirror_owner: &|g, old| match moved_to[g as usize] {
                FragId::MAX => old.map_or(owner_hint[g as usize], |l| f.owner(l)),
                to => to,
            },
            // Fresh mirrors only arise from carried edges: the target
            // travels with its payload if it moves too, else it sits at
            // its gathered owner.
            fresh_node: &|g| match moved_to[g as usize] {
                FragId::MAX => {
                    let of: &Fragment<V, E> = frags[owner_hint[g as usize] as usize];
                    of.node(of.local(g).expect("target owned at its pre-move owner")).clone()
                }
                to => {
                    let arriving = &edits[to as usize].add_owned;
                    let k = arriving.binary_search_by_key(&g, |&(v, _)| v).expect("moves there");
                    arriving[k].1.clone()
                }
            },
            on_overwrite: &mut |_, _| unreachable!("a migration overwrites no weight"),
        };
        let sp = splice_fragment(f, &edits[i], &mut bufs, hooks);
        if traced {
            let args = Args::new()
                .with("locals", sp.frag.local_count())
                .with("rows_edited", sp.rows_edited)
                .with("edges", sp.frag.edge_count());
            tracer.end(pid::DELTA, i as u32, cat::BALANCE, "repack", args);
        }
        spliced[i] = Some(sp);
    }

    // Phase 2: commit, and note which structural fragments mirror each
    // vertex after the migration — a per-global bitmask when fragments
    // fit a word (they do outside stress tests), else a map. Bits read
    // out in ascending fragment order, so holder lists stay sorted;
    // fragments outside the structural set keep their edge stock (and
    // thus their mirror membership) bit-for-bit.
    let old_dests: Vec<Vec<FragId>> = frags.iter().map(|f| f.routing().dests().to_vec()).collect();
    let mut changed = structural.clone();
    let mut remaps: Vec<StateRemap> = Vec::with_capacity(m);
    let mut seeds: Vec<Vec<LocalId>> = vec![Vec::new(); m];
    let use_bits = m <= 64;
    let mut mirror_bits: Vec<u64> = if use_bits { vec![0u64; n_global] } else { Vec::new() };
    let mut mirror_map: FxHashMap<VertexId, Vec<FragId>> = FxHashMap::default();
    for (i, sp) in spliced.into_iter().enumerate() {
        let Some(sp) = sp else {
            remaps.push(StateRemap::identity(frags[i].local_count()));
            continue;
        };
        *frags[i] = sp.frag;
        remaps.push(StateRemap::from_table(sp.old_to_new, frags[i].local_count()));
        seeds[i] = sp.fresh;
        for &g in &frags[i].globals()[frags[i].owned_count()..] {
            if use_bits {
                mirror_bits[g as usize] |= 1u64 << i;
            } else {
                mirror_map.entry(g).or_default().push(i as FragId);
            }
        }
    }
    let extend_mirrors = |g: VertexId, fid: FragId, hl: &mut Vec<FragId>| {
        if use_bits {
            let mut w = mirror_bits[g as usize];
            while w != 0 {
                let h = w.trailing_zeros() as FragId;
                if h != fid {
                    hl.push(h);
                }
                w &= w - 1;
            }
        } else if let Some(ms) = mirror_map.get(&g) {
            hl.extend(ms.iter().copied().filter(|&h| h != fid));
        }
    };

    // Phase 3: settle the metadata of every affected fragment. Copies of
    // a moved vertex point at its new owner and re-announce their
    // retained value to it; holders_new(v) = (old holders outside the
    // structural set) ∪ (structural fragments whose new mirror set
    // contains v), and an owner whose list changed re-announces to the
    // fresh holder set. A non-structural fragment that turns out
    // bit-identical stays unmarked.
    for i in (0..m).filter(|&i| affected[i]) {
        let fid = i as FragId;
        let mut sds = std::mem::take(&mut seeds[i]);
        let mut repointed = false;
        for &v in &moved_sorted {
            if let Some(l) = frags[i].local(v) {
                if !frags[i].is_owned(l) {
                    frags[i].set_mirror_owner(l, moved_to[v as usize]);
                    repointed = true;
                }
                sds.push(l);
            }
        }
        let f: &Fragment<V, E> = frags[i];
        let owned_n = f.owned_count();
        let mut inner_in: Vec<LocalId> = Vec::new();
        let mut holder_offsets = vec![0u32; owned_n + 1];
        let mut holders: Vec<FragId> = Vec::new();
        let mut borders_changed = false;
        let mut hl: Vec<FragId> = Vec::new();
        for l in 0..owned_n {
            let g = f.global(l as LocalId);
            // A vertex that just arrived carried no list; its old one
            // lived at the source.
            let old: &[FragId] = if moved_to[g as usize] == fid {
                &old_holders[&g]
            } else {
                f.mirror_holders(l as LocalId)
            };
            hl.clear();
            hl.extend(old.iter().copied().filter(|&h| !structural[h as usize]));
            extend_mirrors(g, fid, &mut hl);
            hl.sort_unstable();
            hl.dedup();
            if hl.as_slice() != old {
                borders_changed = true;
                sds.push(l as LocalId);
            }
            holder_offsets[l + 1] = holder_offsets[l] + hl.len() as u32;
            if !hl.is_empty() {
                inner_in.push(l as LocalId);
            }
            holders.extend_from_slice(&hl);
        }
        if structural[i] || borders_changed {
            frags[i].replace_borders(inner_in, holder_offsets, holders);
        }
        if !structural[i] {
            if !repointed && !borders_changed {
                continue; // bit-identical: keep changed[i] = false
            }
            changed[i] = true;
        }
        sds.sort_unstable();
        sds.dedup();
        seeds[i] = sds;
        if traced && !structural[i] {
            let args = Args::new().with("frag", i).with("seeds", seeds[i].len());
            tracer.instant(pid::DELTA, i as u32, cat::BALANCE, "patch", args);
        }
    }
    debug_check(frags, &changed);

    // Routing: changed fragments plus peers pointing at renumbered ones.
    rebuild_routing_tables_where(frags, &routing_targets(&old_dests, &remaps, changed.clone()));
    if traced {
        tracer.end(pid::DELTA, 0, cat::BALANCE, "migrate", Args::new());
    }

    AppliedEdit { remaps, seeds, weights_decreased: 0, weights_increased: 0, changed }
}

/// Reconstruct the global graph from a fragment set (each stored edge
/// lives in exactly one fragment; node data at the owner). Used by
/// full re-partition paths and as the reference in equivalence tests.
pub fn reassemble<V: Clone, E: Clone>(frags: &[&Fragment<V, E>]) -> Graph<V, E> {
    let n: usize = frags.iter().map(|f| f.owned_count()).sum();
    let directed = frags
        .iter()
        .find(|f| f.local_count() > 0)
        .map(|f| f.local_graph().is_directed())
        .unwrap_or(true);
    let mut nodes: Vec<Option<V>> = vec![None; n];
    let mut edges: Vec<(VertexId, VertexId, E)> = Vec::new();
    for f in frags {
        for l in f.owned_vertices() {
            nodes[f.global(l) as usize] = Some(f.node(l).clone());
        }
        for l in f.local_vertices() {
            let gu = f.global(l);
            for (t, d) in f.edges(l) {
                edges.push((gu, f.global(t), d.clone()));
            }
        }
    }
    let node_data: Vec<V> =
        nodes.into_iter().map(|v| v.expect("every vertex owned somewhere")).collect();
    Graph::from_stored_edges(directed, node_data, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{build_fragments, build_fragments_n, hash_partition};
    use crate::GraphBuilder;

    /// The parent commit's structural repack — `derive_core` +
    /// `commit_fragment` and the serial three-phase driver around them,
    /// verbatim apart from the buffer type's name — kept as the reference
    /// the splice is compared against. Not compiled into the library.
    mod oracle {
        use super::super::*;

        /// The parent's pooled transient sets.
        #[derive(Default)]
        pub struct OracleBufs {
            removed_pairs: FxHashSet<(VertexId, VertexId)>,
            owned_set: FxHashSet<VertexId>,
            seed_globals: FxHashSet<VertexId>,
            holder_removals: FxHashSet<(VertexId, FragId)>,
        }

        struct Core<V, E> {
            owned: Vec<(VertexId, V)>,
            edges: Vec<(VertexId, VertexId, E)>,
            mirrors: Vec<VertexId>,
            mirror_owner: Vec<FragId>,
            mirror_data: Vec<V>,
        }

        /// A mirror-set diff produced by phase 1, delivered to the owner in
        /// phase 2: vertex `.0`'s mirror at fragment `.1` was gained (`true`) or
        /// lost (`false`).
        type HolderEvent = (VertexId, FragId, bool);

        /// Phase-1 output for one touched fragment: the derived core, its
        /// owner-routed holder events, and the weight-direction tallies.
        type DerivedCore<V, E> = (Core<V, E>, Vec<(FragId, HolderEvent)>, u64, u64);

        /// Phase 1 for one touched fragment: derive the new core (owned list,
        /// stored edges, mirrors) in global id space and diff the mirror set
        /// against the old one, emitting `(owner, event)` pairs the orchestrator
        /// routes to the owners. Reads fragments only (`view`), so touched
        /// fragments fan out across scoped threads.
        fn derive_core<V, E>(
            i: usize,
            view: &[&Fragment<V, E>],
            edit: &PartitionEdit<V, E>,
            bufs: &mut OracleBufs,
        ) -> DerivedCore<V, E>
        where
            V: Clone,
            E: Clone + PartialOrd,
        {
            let fe = &edit.frags[i];
            let f: &Fragment<V, E> = view[i];
            let mut weights_decreased = 0u64;
            let mut weights_increased = 0u64;
            let mut events: Vec<(FragId, HolderEvent)> = Vec::new();

            // New owned list (sorted by global id; removals keep the id).
            let mut owned: Vec<(VertexId, V)> = f
                .owned_vertices()
                .map(|l| (f.global(l), f.node(l).clone()))
                .chain(fe.add_owned.iter().cloned())
                .collect();
            owned.sort_unstable_by_key(|&(g, _)| g);
            debug_assert!(owned.windows(2).all(|w| w[0].0 < w[1].0), "duplicate owned vertex");

            bufs.owned_set.clear();
            bufs.owned_set.extend(owned.iter().map(|&(g, _)| g));

            bufs.removed_pairs.clear();
            bufs.removed_pairs.extend(fe.remove_edges.iter().copied());
            let setw: FxHashMap<(VertexId, VertexId), &E> =
                fe.set_weights.iter().map(|(u, v, w)| ((*u, *v), w)).collect();

            // Surviving + updated + inserted stored edges.
            let mut edges: Vec<(VertexId, VertexId, E)> =
                Vec::with_capacity(f.edge_count() + fe.insert_edges.len());
            for u in f.owned_vertices() {
                let gu = f.global(u);
                if edit.removed_vertices.contains(&gu) {
                    continue;
                }
                for (t, d) in f.edges(u) {
                    let gt = f.global(t);
                    if edit.removed_vertices.contains(&gt) || bufs.removed_pairs.contains(&(gu, gt))
                    {
                        continue;
                    }
                    if let Some(w) = setw.get(&(gu, gt)) {
                        match weight_change(*w, d) {
                            WeightChange::Decreased => weights_decreased += 1,
                            WeightChange::Unchanged => {}
                            WeightChange::Increased => weights_increased += 1,
                        }
                        edges.push((gu, gt, (*w).clone()));
                    } else {
                        edges.push((gu, gt, d.clone()));
                    }
                }
            }
            for (u, v, d) in &fe.insert_edges {
                assert!(
                    bufs.owned_set.contains(u),
                    "inserted edge ({u}, {v}) not owned at frag {i}"
                );
                assert!(
                    !edit.removed_vertices.contains(u) && !edit.removed_vertices.contains(v),
                    "inserted edge ({u}, {v}) touches a removed vertex"
                );
                edges.push((*u, *v, d.clone()));
            }
            edges.sort_unstable_by_key(|&(u, v, _)| ((u as u64) << 32) | v as u64);

            // New mirror set + owners.
            let mut mirrors: Vec<VertexId> =
                edges.iter().map(|&(_, t, _)| t).filter(|t| !bufs.owned_set.contains(t)).collect();
            mirrors.sort_unstable();
            mirrors.dedup();
            let owner_of = |g: VertexId| -> FragId {
                if let Some(l) = f.local(g) {
                    if !f.is_owned(l) {
                        return f.owner(l);
                    }
                }
                *edit.owners.get(&g).unwrap_or_else(|| panic!("owner of vertex {g} not resolved"))
            };
            let mirror_owner: Vec<FragId> = mirrors.iter().map(|&g| owner_of(g)).collect();
            // Node data for mirrors: carry the old copy; fresh mirrors clone
            // from the owner fragment (or, for vertices added in this very
            // batch, from the owner's pending `add_owned` entry).
            let mirror_data: Vec<V> = mirrors
                .iter()
                .zip(&mirror_owner)
                .map(|(&g, &o)| {
                    if let Some(l) = f.local(g) {
                        return f.node(l).clone();
                    }
                    if let Some(l) = view[o as usize].local(g) {
                        return view[o as usize].node(l).clone();
                    }
                    edit.frags[o as usize]
                        .add_owned
                        .iter()
                        .find(|&&(v, _)| v == g)
                        .map(|(_, d)| d.clone())
                        .unwrap_or_else(|| panic!("no node data for new mirror {g}"))
                })
                .collect();

            // Mirror diff -> holder events at the owners.
            let old_mirrors = &f.globals()[f.owned_count()..];
            let (mut a, mut b) = (0usize, 0usize);
            while a < old_mirrors.len() || b < mirrors.len() {
                match (old_mirrors.get(a), mirrors.get(b)) {
                    (Some(&og), Some(&ng)) if og == ng => {
                        a += 1;
                        b += 1;
                    }
                    (Some(&og), Some(&ng)) if og < ng => {
                        events.push((owner_of(og), (og, i as FragId, false)));
                        a += 1;
                    }
                    (Some(_), Some(&ng)) => {
                        events.push((mirror_owner[b], (ng, i as FragId, true)));
                        b += 1;
                    }
                    (Some(&og), None) => {
                        events.push((owner_of(og), (og, i as FragId, false)));
                        a += 1;
                    }
                    (None, Some(&ng)) => {
                        events.push((mirror_owner[b], (ng, i as FragId, true)));
                        b += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }

            (
                Core { owned, edges, mirrors, mirror_owner, mirror_data },
                events,
                weights_decreased,
                weights_increased,
            )
        }

        /// Phase 2 for one fragment that must change: rebuild from its derived
        /// core or, when only the holder lists moved, splice the border
        /// structure without renumbering. Touches `frag` alone, so changed
        /// fragments fan out across scoped threads. Returns the state remap and
        /// the sorted seed set (new local ids).
        fn commit_fragment<V, E>(
            frag: &mut Fragment<V, E>,
            fe: &FragmentEdit<V, E>,
            core: Option<Core<V, E>>,
            events: &[HolderEvent],
            bufs: &mut OracleBufs,
        ) -> (StateRemap, Vec<LocalId>)
        where
            V: Clone,
            E: Clone + PartialOrd,
        {
            let mut seeds: Vec<LocalId> = Vec::new();

            // Holder pairs (vertex, holder fragment), post-events, sorted.
            let mut pairs: Vec<(VertexId, FragId)> = frag
                .owned_vertices()
                .flat_map(|l| {
                    let g = frag.global(l);
                    frag.mirror_holders(l).iter().map(move |&h| (g, h))
                })
                .collect();
            bufs.holder_removals.clear();
            for &(v, h, add) in events {
                if add {
                    pairs.push((v, h));
                } else {
                    bufs.holder_removals.insert((v, h));
                }
            }
            if !bufs.holder_removals.is_empty() {
                // One linear pass, not one retain() per event — a batch that
                // prunes a hub's cut edges would otherwise go quadratic.
                pairs.retain(|p| !bufs.holder_removals.contains(p));
            }
            pairs.sort_unstable();
            pairs.dedup();

            let remap;
            match core {
                None => {
                    // Border-only splice: the local id space is unchanged.
                    let owned_n = frag.owned_count();
                    let mut holder_offsets = vec![0u32; owned_n + 1];
                    let mut holders = Vec::with_capacity(pairs.len());
                    let mut inner_in = Vec::new();
                    for &(v, h) in &pairs {
                        let l = frag.local(v).expect("holder pair names an owned vertex");
                        debug_assert!(frag.is_owned(l));
                        holder_offsets[l as usize + 1] += 1;
                        holders.push(h);
                    }
                    for l in 1..=owned_n {
                        holder_offsets[l] += holder_offsets[l - 1];
                    }
                    for l in 0..owned_n {
                        if holder_offsets[l + 1] > holder_offsets[l] {
                            inner_in.push(l as LocalId);
                        }
                    }
                    remap = StateRemap::identity(frag.local_count());
                    // Owned vertices that gained a holder must re-announce
                    // their value (the new mirror starts uninitialised).
                    for &(v, _, add) in events {
                        if add {
                            seeds.push(frag.local(v).expect("owned here"));
                        }
                    }
                    frag.replace_borders(inner_in, holder_offsets, holders);
                }
                Some(core) => {
                    let old_globals = frag.globals().to_vec();
                    let id = frag.id();
                    let num_frags = frag.num_frags();
                    let directed = frag.local_graph().is_directed();

                    let Core { owned, edges, mirrors, mirror_owner, mirror_data } = core;
                    let owned_n = owned.len();
                    let n_local = owned_n + mirrors.len();
                    let mut g2l: FxHashMap<VertexId, LocalId> = FxHashMap::default();
                    g2l.reserve(n_local);
                    let mut globals = Vec::with_capacity(n_local);
                    let mut node_data: Vec<V> = Vec::with_capacity(n_local);
                    for (g, d) in owned {
                        g2l.insert(g, globals.len() as LocalId);
                        globals.push(g);
                        node_data.push(d);
                    }
                    for (&g, d) in mirrors.iter().zip(mirror_data) {
                        g2l.insert(g, globals.len() as LocalId);
                        globals.push(g);
                        node_data.push(d);
                    }

                    // Local CSR over the new id space.
                    let mut offsets = vec![0usize; n_local + 1];
                    for &(u, _, _) in &edges {
                        offsets[g2l[&u] as usize + 1] += 1;
                    }
                    for l in 1..=n_local {
                        offsets[l] += offsets[l - 1];
                    }
                    let mut cursor = offsets.clone();
                    let mut targets = vec![0 as LocalId; edges.len()];
                    let mut slots: Vec<Option<E>> = vec![None; edges.len()];
                    let mut inner_out_set = vec![false; owned_n];
                    for (u, v, d) in edges {
                        let lu = g2l[&u] as usize;
                        let lv = g2l[&v];
                        if lv as usize >= owned_n {
                            inner_out_set[lu] = true;
                        }
                        targets[cursor[lu]] = lv;
                        slots[cursor[lu]] = Some(d);
                        cursor[lu] += 1;
                    }
                    let edge_data: Vec<E> =
                        slots.into_iter().map(|s| s.expect("every slot filled")).collect();
                    let local_graph =
                        Graph::from_parts(directed, node_data, offsets, targets, edge_data);

                    let inner_out: Vec<LocalId> = inner_out_set
                        .iter()
                        .enumerate()
                        .filter(|&(_, &b)| b)
                        .map(|(l, _)| l as LocalId)
                        .collect();
                    let mut holder_offsets = vec![0u32; owned_n + 1];
                    let mut holders = Vec::with_capacity(pairs.len());
                    let mut inner_in = Vec::new();
                    for &(v, h) in &pairs {
                        let l = g2l[&v];
                        debug_assert!(
                            (l as usize) < owned_n,
                            "holder pair for non-owned vertex {v}"
                        );
                        holder_offsets[l as usize + 1] += 1;
                        holders.push(h);
                    }
                    for l in 1..=owned_n {
                        holder_offsets[l] += holder_offsets[l - 1];
                    }
                    for l in 0..owned_n {
                        if holder_offsets[l + 1] > holder_offsets[l] {
                            inner_in.push(l as LocalId);
                        }
                    }

                    // Remap + seeds (new local ids).
                    let table: Vec<LocalId> = old_globals
                        .iter()
                        .map(|g| g2l.get(g).copied().unwrap_or(LocalId::MAX))
                        .collect();
                    remap = StateRemap::from_table(table, n_local);
                    bufs.seed_globals.clear();
                    for (u, v, _) in fe.insert_edges.iter().chain(fe.set_weights.iter()) {
                        bufs.seed_globals.insert(*u);
                        bufs.seed_globals.insert(*v);
                    }
                    for (u, v) in &fe.remove_edges {
                        bufs.seed_globals.insert(*u);
                        bufs.seed_globals.insert(*v);
                    }
                    for (v, _) in &fe.add_owned {
                        bufs.seed_globals.insert(*v);
                    }
                    for &(v, _, add) in events {
                        if add {
                            bufs.seed_globals.insert(v);
                        }
                    }
                    // Vertices new to this fragment (fresh mirrors).
                    for (&g, &l) in g2l.iter() {
                        if frag.local(g).is_none() {
                            seeds.push(l);
                        }
                    }
                    for g in bufs.seed_globals.drain() {
                        if let Some(&l) = g2l.get(&g) {
                            seeds.push(l);
                        }
                    }

                    *frag = Fragment::from_parts(
                        id,
                        num_frags,
                        false,
                        local_graph,
                        globals,
                        owned_n,
                        inner_in,
                        inner_out,
                        mirror_owner,
                        holder_offsets,
                        holders,
                    );
                }
            }
            seeds.sort_unstable();
            seeds.dedup();
            (remap, seeds)
        }

        /// The parent's serial driver, minus tracing and the weight-only
        /// shortcut (a weight-only batch goes through the repack too).
        pub fn apply<V, E>(
            frags: &mut [&mut Fragment<V, E>],
            edit: &PartitionEdit<V, E>,
        ) -> AppliedEdit
        where
            V: Clone,
            E: Clone + PartialOrd,
        {
            let m = frags.len();
            let wb = &mut OracleBufs::default();
            let old_dests: Vec<Vec<FragId>> =
                frags.iter().map(|f| f.routing().dests().to_vec()).collect();

            // Phase 1: derive cores + holder events (see `derive_core`).
            let mut cores: Vec<Option<Core<V, E>>> = (0..m).map(|_| None).collect();
            let mut holder_events: Vec<Vec<HolderEvent>> = vec![Vec::new(); m];
            let mut weights_decreased = 0u64;
            let mut weights_increased = 0u64;
            {
                let view: Vec<&Fragment<V, E>> = frags.iter().map(|f| &**f).collect();
                for (i, core_slot) in cores.iter_mut().enumerate() {
                    if !edit.touched[i] {
                        assert!(edit.frags[i].is_empty(), "edited fragment {i} not marked touched");
                        continue;
                    }
                    let (core, events, wdec, winc) = derive_core(i, &view, edit, wb);
                    for (owner, ev) in events {
                        holder_events[owner as usize].push(ev);
                    }
                    weights_decreased += wdec;
                    weights_increased += winc;
                    *core_slot = Some(core);
                }
            }

            // Phase 2: commit (see `commit_fragment`).
            let mut remaps: Vec<StateRemap> = Vec::with_capacity(m);
            let mut seeds: Vec<Vec<LocalId>> = vec![Vec::new(); m];
            let mut rebuilt = vec![false; m];
            for i in 0..m {
                if cores[i].is_none() && holder_events[i].is_empty() {
                    remaps.push(StateRemap::identity(frags[i].local_count()));
                    continue;
                }
                rebuilt[i] = true;
                let core = cores[i].take();
                let (remap, s) =
                    commit_fragment(frags[i], &edit.frags[i], core, &holder_events[i], wb);
                remaps.push(remap);
                seeds[i] = s;
            }

            // Phase 3: routing (see `routing_targets`).
            let changed = rebuilt.clone();
            let needs_routing = routing_targets(&old_dests, &remaps, rebuilt);
            {
                let view: Vec<&Fragment<V, E>> = frags.iter().map(|f| &**f).collect();
                let tables: Vec<(usize, crate::RoutingTable)> = needs_routing
                    .iter()
                    .enumerate()
                    .filter(|&(_, &need)| need)
                    .map(|(j, _)| {
                        (j, routing_table_for(view[j], &|d, g| view[d as usize].local(g)))
                    })
                    .collect();
                drop(view);
                for (j, t) in tables {
                    frags[j].set_routing(t);
                }
            }

            AppliedEdit { remaps, seeds, weights_decreased, weights_increased, changed }
        }
    }

    fn path4() -> (Graph<(), u32>, Vec<Fragment<(), u32>>) {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1u32);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let frags = build_fragments(&g, &[0, 0, 1, 1]);
        (g, frags)
    }

    fn edit_for(m: usize) -> PartitionEdit<(), u32> {
        PartitionEdit {
            frags: vec![FragmentEdit::default(); m],
            removed_vertices: FxHashSet::default(),
            owners: FxHashMap::default(),
            touched: vec![false; m],
        }
    }

    #[test]
    fn remap_identity_and_table() {
        let id = StateRemap::identity(3);
        assert!(id.is_identity());
        assert_eq!(id.map(2), Some(2));
        assert_eq!(id.map_vec(vec![7, 8, 9], 0), vec![7, 8, 9]);

        let r = StateRemap::from_table(vec![1, LocalId::MAX, 0], 3);
        assert!(!r.is_identity());
        assert_eq!(r.map(0), Some(1));
        assert_eq!(r.map(1), None);
        assert_eq!(r.map_vec(vec![10, 20, 30], 0), vec![30, 10, 0]);

        // A full-coverage in-order table collapses to identity.
        assert!(StateRemap::from_table(vec![0, 1, 2], 3).is_identity());
    }

    #[test]
    fn insert_cross_edge_creates_mirror_and_holder() {
        let (_, mut frags) = path4();
        let mut edit = edit_for(2);
        // New undirected cut edge 0-3: stored 0->3 at frag 0, 3->0 at frag 1.
        edit.frags[0].insert_edges.push((0, 3, 5));
        edit.frags[1].insert_edges.push((3, 0, 5));
        edit.touched = vec![true, true];
        edit.owners.insert(0, 0);
        edit.owners.insert(3, 1);
        let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
        let applied = apply_partition_edit(&mut refs, &edit, &mut EditBuffers::default());

        let f0 = &frags[0];
        let m3 = f0.local(3).expect("frag 0 gained a mirror of 3");
        assert!(!f0.is_owned(m3));
        assert_eq!(f0.owner(m3), 1);
        // Owner side: holder list of 3 now includes fragment 0, and 3 is a
        // receiving border vertex.
        let f1 = &frags[1];
        let l3 = f1.local(3).unwrap();
        assert!(f1.is_owned(l3));
        assert!(f1.mirror_holders(l3).contains(&0));
        assert!(f1.inner_in().contains(&l3));
        // Routing agrees with route() on both sides.
        assert!(applied.remaps[0].map(0).is_some());
        assert_eq!(applied.remaps[0].new_local_count(), f0.local_count());
        let (slots, remotes) = f0.routing().fanout(m3);
        assert_eq!(slots.len(), 1);
        assert_eq!(remotes[0], l3);
        // Seeds name the new mirror and the edge endpoints.
        assert!(applied.seeds[0].contains(&m3));
        assert!(applied.seeds[1].contains(&l3));
    }

    #[test]
    fn in_place_matches_full_rebuild() {
        // Random-ish graph, apply inserts + removals, compare with a full
        // build_fragments on the edited global graph.
        let g = crate::generate::small_world(60, 2, 0.2, 5);
        let assignment = hash_partition(&g, 3);
        let mut frags = build_fragments_n(&g, &assignment, 3);

        let mut edit = edit_for(3);
        let inserts: [(VertexId, VertexId, u32); 3] = [(0, 30, 9), (5, 45, 2), (10, 50, 4)];
        let removes: [(VertexId, VertexId); 2] = [(0, 1), (20, 21)];
        for &(u, v, w) in &inserts {
            edit.frags[assignment[u as usize] as usize].insert_edges.push((u, v, w));
            edit.frags[assignment[v as usize] as usize].insert_edges.push((v, u, w));
        }
        for &(u, v) in &removes {
            edit.frags[assignment[u as usize] as usize].remove_edges.push((u, v));
            edit.frags[assignment[v as usize] as usize].remove_edges.push((v, u));
        }
        for v in 0..60u32 {
            edit.owners.insert(v, assignment[v as usize]);
        }
        edit.touched = edit.frags.iter().map(|fe| !fe.is_empty()).collect();
        let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
        apply_partition_edit(&mut refs, &edit, &mut EditBuffers::default());

        // Reference: rebuild from the edited global graph.
        let mut b = GraphBuilder::new_undirected(60);
        let removed: FxHashSet<(u32, u32)> =
            removes.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        for (u, v, d) in g.all_edges() {
            if u < v && !removed.contains(&(u, v)) {
                b.add_edge(u, v, *d);
            }
        }
        for &(u, v, w) in &inserts {
            b.add_edge(u, v, w);
        }
        let expect = build_fragments_n(&b.build(), &assignment, 3);

        for (f, e) in frags.iter().zip(&expect) {
            assert_eq!(f.owned_count(), e.owned_count());
            assert_eq!(f.globals(), e.globals(), "frag {} locals differ", f.id());
            assert_eq!(f.inner_in(), e.inner_in());
            assert_eq!(f.inner_out(), e.inner_out());
            assert_eq!(f.routing().dests(), e.routing().dests());
            for l in f.local_vertices() {
                let mut a: Vec<_> = f.edges(l).map(|(t, d)| (f.global(t), *d)).collect();
                let mut bb: Vec<_> = e.edges(l).map(|(t, d)| (e.global(t), *d)).collect();
                a.sort_unstable();
                bb.sort_unstable();
                assert_eq!(a, bb, "frag {} vertex {} adjacency", f.id(), f.global(l));
                assert_eq!(f.routing().fanout(l), e.routing().fanout(l));
                if f.is_owned(l) {
                    assert_eq!(f.mirror_holders(l), e.mirror_holders(l));
                }
            }
        }
    }

    #[test]
    fn remove_vertex_isolates_and_drops_mirrors() {
        let (_, mut frags) = path4();
        let mut edit = edit_for(2);
        // Remove vertex 2: owner is frag 1; frag 0 holds a mirror of it.
        edit.removed_vertices.insert(2);
        edit.touched = vec![true, true];
        edit.owners.insert(2, 1);
        let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
        let applied = apply_partition_edit(&mut refs, &edit, &mut EditBuffers::default());

        // Frag 0 lost its mirror of 2 (renumbered).
        assert!(frags[0].local(2).is_none());
        assert!(!applied.remaps[0].is_identity());
        // Frag 1 keeps vertex 2 as an isolated owned vertex.
        let l2 = frags[1].local(2).expect("dense id survives");
        assert!(frags[1].is_owned(l2));
        assert!(frags[1].neighbors(l2).is_empty());
        assert!(frags[1].mirror_holders(l2).is_empty());
        // No routing fanout remains for it.
        assert_eq!(frags[1].routing().fanout_len(l2), 0);
    }

    #[test]
    fn weight_update_keeps_ids_and_counts_direction() {
        let (_, mut frags) = path4();
        let mut edit = edit_for(2);
        // Edge 1-2 is cut: stored 1->2 at frag 0 and 2->1 at frag 1.
        edit.frags[0].set_weights.push((1, 2, 7));
        edit.frags[1].set_weights.push((2, 1, 7));
        edit.touched = vec![true, true];
        let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
        let applied = apply_partition_edit(&mut refs, &edit, &mut EditBuffers::default());
        assert_eq!(applied.weights_increased, 2);
        assert_eq!(applied.weights_decreased, 0);
        assert!(applied.remaps.iter().all(|r| r.is_identity()));
        let f0 = &frags[0];
        let l1 = f0.local(1).unwrap();
        let m2 = f0.local(2).unwrap();
        let pos = f0.neighbors(l1).iter().position(|&t| t == m2).unwrap();
        assert_eq!(f0.edge_data(l1)[pos], 7);
    }

    #[test]
    fn vertex_cut_owner_override_moves_ownership() {
        let g = crate::generate::small_world(40, 2, 0.2, 3);
        let ea = crate::partition::vertex_cut_partition(&g, 3);
        let mut frags = crate::partition::build_fragments_vertex_cut_n(&g, &ea, 3);
        // Pick a replicated vertex to migrate: owner -> first other holder.
        let (v, from, to) = frags
            .iter()
            .enumerate()
            .find_map(|(i, f)| {
                f.owned_vertices().find_map(|l| {
                    let hs = f.mirror_holders(l);
                    (!hs.is_empty()).then(|| (f.global(l), i as FragId, hs[0]))
                })
            })
            .expect("some vertex is replicated");
        let total_owned: usize = frags.iter().map(|f| f.owned_count()).sum();

        let mut edit = VertexCutEdit::empty(3);
        edit.owner_overrides.insert(v, to);
        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            patch_vertex_cut(&mut refs, &edit)
        };

        // Ownership moved; the old owner keeps a copy (its edges stayed).
        let lf = frags[from as usize].local(v).expect("old owner keeps the copy");
        assert!(!frags[from as usize].is_owned(lf));
        assert_eq!(frags[from as usize].owner(lf), to);
        let lt = frags[to as usize].local(v).expect("new owner holds it");
        assert!(frags[to as usize].is_owned(lt));
        assert!(frags[to as usize].mirror_holders(lt).contains(&from));
        // The dense vertex space is still owned exactly once.
        assert_eq!(frags.iter().map(|f| f.owned_count()).sum::<usize>(), total_owned);
        // Only the holders of v changed bytes; everyone else is identity.
        for (i, f) in frags.iter().enumerate() {
            if f.local(v).is_none() {
                assert!(!applied.changed[i], "non-holder {i} marked changed");
                assert!(applied.remaps[i].is_identity());
            }
        }
        // v is seeded at every holder (owner re-announces, copies refresh).
        for (i, f) in frags.iter().enumerate() {
            if let Some(l) = f.local(v) {
                assert!(applied.seeds[i].contains(&l), "frag {i} missing seed");
            }
        }
        // Routing stays symmetric: the new owner fans out to its holders.
        let (slots, _remotes) = frags[to as usize].routing().fanout(lt);
        assert!(!slots.is_empty());
    }

    #[test]
    fn migrate_edge_cut_matches_full_rebuild() {
        let g = crate::generate::small_world(60, 2, 0.2, 7);
        let mut assignment = hash_partition(&g, 3);
        let mut frags = build_fragments_n(&g, &assignment, 3);

        // Move two border vertices out of fragment 0 and one out of 2.
        let picks: Vec<VertexId> = {
            let f0 = &frags[0];
            let mut p: Vec<VertexId> =
                f0.inner_in().iter().take(2).map(|&l| f0.global(l)).collect();
            let f2 = &frags[2];
            p.extend(f2.inner_out().iter().take(1).map(|&l| f2.global(l)));
            p
        };
        assert_eq!(picks.len(), 3, "need three border vertices to move");
        let moves: Vec<VertexMove> = vec![(picks[0], 1), (picks[1], 2), (picks[2], 0)];
        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            migrate_edge_cut(&mut refs, &moves)
        };
        for &(v, to) in &moves {
            assignment[v as usize] = to;
        }

        // The in-place migration must land on exactly the layout the
        // from-scratch builder produces for the updated assignment.
        let expect = build_fragments_n(&g, &assignment, 3);
        for (f, e) in frags.iter().zip(&expect) {
            assert_eq!(f.owned_count(), e.owned_count(), "frag {} owned", f.id());
            assert_eq!(f.globals(), e.globals(), "frag {} locals differ", f.id());
            assert_eq!(f.inner_in(), e.inner_in());
            assert_eq!(f.inner_out(), e.inner_out());
            assert_eq!(f.routing().dests(), e.routing().dests());
            for l in f.local_vertices() {
                let mut a: Vec<_> = f.edges(l).map(|(t, d)| (f.global(t), *d)).collect();
                let mut bb: Vec<_> = e.edges(l).map(|(t, d)| (e.global(t), *d)).collect();
                a.sort_unstable();
                bb.sort_unstable();
                assert_eq!(a, bb, "frag {} vertex {} adjacency", f.id(), f.global(l));
                assert_eq!(f.routing().fanout(l), e.routing().fanout(l));
                if f.is_owned(l) {
                    assert_eq!(f.mirror_holders(l), e.mirror_holders(l));
                } else {
                    assert_eq!(f.owner(l), e.owner(l), "mirror owner of {}", f.global(l));
                }
            }
        }

        // Every surviving copy of a moved vertex is seeded, and untouched
        // fragments keep identity remaps with no seeds.
        for (i, f) in frags.iter().enumerate() {
            for &(v, _) in &moves {
                if let Some(l) = f.local(v) {
                    assert!(applied.seeds[i].contains(&l), "frag {i} missing seed for {v}");
                }
            }
            if !applied.changed[i] {
                assert!(applied.remaps[i].is_identity());
                assert!(applied.seeds[i].is_empty());
            }
        }
    }

    #[test]
    fn migrate_edge_cut_noop_is_identity() {
        let (_, mut frags) = path4();
        let before: Vec<Vec<VertexId>> = frags.iter().map(|f| f.globals().to_vec()).collect();
        let applied = {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            // Vertex 1 is already owned by fragment 0: nothing to do.
            migrate_edge_cut(&mut refs, &[(1, 0)])
        };
        assert!(applied.remaps.iter().all(|r| r.is_identity()));
        assert!(applied.seeds.iter().all(|s| s.is_empty()));
        assert!(applied.changed.iter().all(|c| !c));
        for (f, b) in frags.iter().zip(&before) {
            assert_eq!(f.globals(), b.as_slice());
        }
    }

    #[test]
    fn vertex_cut_patch_insert_matches_full_rebuild_layout() {
        let g = crate::generate::small_world(50, 2, 0.15, 11);
        let ea = crate::partition::vertex_cut_partition(&g, 4);
        let mut frags = crate::partition::build_fragments_vertex_cut_n(&g, &ea, 4);
        // Insert undirected logical edge 3-27 via the pair-hash rule.
        let t = crate::partition::vertex_cut_edge_frag(3, 27, 4) as usize;
        let mut edit = VertexCutEdit::empty(4);
        edit.frags[t].insert_edges.push((3, 27, 9u32));
        edit.frags[t].insert_edges.push((27, 3, 9));
        {
            let mut refs: Vec<&mut Fragment<(), u32>> = frags.iter_mut().collect();
            patch_vertex_cut(&mut refs, &edit);
        }
        // Reference: canonical rebuild of the edited graph.
        let mut b = GraphBuilder::new_undirected(50);
        for (u, v, d) in g.all_edges() {
            if u < v {
                b.add_edge(u, v, *d);
            }
        }
        b.add_edge(3, 27, 9);
        let g2 = b.build();
        let expect = crate::partition::build_fragments_vertex_cut_n(
            &g2,
            &crate::partition::vertex_cut_partition(&g2, 4),
            4,
        );
        for (f, e) in frags.iter().zip(&expect) {
            assert_eq!(f.globals(), e.globals(), "frag {} layout", f.id());
            assert_eq!(f.owned_count(), e.owned_count());
            assert_eq!(f.inner_in(), e.inner_in());
            for l in f.local_vertices() {
                let mut a: Vec<_> = f.edges(l).map(|(t, d)| (f.global(t), *d)).collect();
                let mut bb: Vec<_> = e.edges(l).map(|(t, d)| (e.global(t), *d)).collect();
                a.sort_unstable();
                bb.sort_unstable();
                assert_eq!(a, bb, "frag {} vertex {} adjacency", f.id(), f.global(l));
                if f.is_owned(l) {
                    assert_eq!(f.mirror_holders(l), e.mirror_holders(l));
                }
            }
        }
    }

    #[test]
    fn reassemble_roundtrip() {
        let g = crate::generate::small_world(40, 2, 0.1, 9);
        let frags = build_fragments(&g, &hash_partition(&g, 4));
        let view: Vec<&Fragment<(), u32>> = frags.iter().collect();
        let r = reassemble(&view);
        assert_eq!(r.num_vertices(), g.num_vertices());
        assert_eq!(r.num_edges(), g.num_edges());
        for v in g.vertices() {
            // Parallel edges tie under the (src, dst) sort key, so compare
            // the adjacency as a sorted multiset of (target, weight).
            let mut a: Vec<_> = g.edges(v).map(|(t, d)| (t, *d)).collect();
            let mut b: Vec<_> = r.edges(v).map(|(t, d)| (t, *d)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    /// Xorshift64, as in `aap_delta::generate`.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }
    }

    /// A random batch against the graph `frags` currently hold, resolved
    /// the way `aap-delta` resolves one (ops at the owner of the stored
    /// source, both directions when undirected) but without its
    /// deduplication: inserts that create mirrors or parallel copies
    /// (also twice in one batch), removals (of the last edge into a
    /// mirror, of a pair inserted in the same batch), overwrites (twice on
    /// one pair, on a removed pair, on an inserted pair), at most one
    /// vertex addition and one isolation, and batches confined to
    /// fragment 0's vertices.
    fn random_batch(frags: &[Fragment<(), u32>], rng: &mut Rng) -> PartitionEdit<(), u32> {
        let m = frags.len();
        let view: Vec<&Fragment<(), u32>> = frags.iter().collect();
        let g = reassemble(&view);
        let n = g.num_vertices() as VertexId;
        let mut owner: Vec<FragId> = vec![0; n as usize];
        for f in frags {
            for l in f.owned_vertices() {
                owner[f.global(l) as usize] = f.id();
            }
        }
        let pool: Vec<VertexId> = if rng.one_in(4) {
            (0..n).filter(|&v| owner[v as usize] == 0).collect()
        } else {
            (0..n).collect()
        };
        let mut edit = PartitionEdit {
            frags: vec![FragmentEdit::default(); m],
            removed_vertices: FxHashSet::default(),
            owners: FxHashMap::default(),
            touched: vec![false; m],
        };
        if pool.len() < 2 {
            return edit;
        }
        let dead = rng.one_in(4).then(|| pool[rng.below(pool.len())]);
        let added = rng.one_in(4).then_some(n);
        if let Some(a) = added {
            owner.push((a as usize % m) as FragId);
            edit.frags[owner[a as usize] as usize].add_owned.push((a, ()));
        }
        let alive = |rng: &mut Rng| loop {
            let v = pool[rng.below(pool.len())];
            if Some(v) != dead {
                return v;
            }
        };
        let stored = |rng: &mut Rng| {
            let u = pool[rng.below(pool.len())];
            let ts = g.neighbors(u);
            (!ts.is_empty()).then(|| (u, ts[rng.below(ts.len())]))
        };

        let mut inserts: Vec<(VertexId, VertexId, u32)> = Vec::new();
        let mut removes: Vec<(VertexId, VertexId)> = Vec::new();
        let mut setw: Vec<(VertexId, VertexId, u32)> = Vec::new();
        for _ in 0..rng.below(5) {
            let (u, v) = (alive(rng), alive(rng));
            if u != v {
                inserts.push((u, v, 1 + rng.below(9) as u32));
                if rng.one_in(4) {
                    inserts.push((u, v, 1 + rng.below(9) as u32));
                }
            }
        }
        if let Some(a) = added {
            inserts.push((a, alive(rng), 2));
        }
        for _ in 0..rng.below(4) {
            if let Some(e) = stored(rng) {
                removes.push(e);
            }
        }
        if let (true, Some(&(u, v, _))) = (rng.one_in(4), inserts.first()) {
            removes.push((u, v));
        }
        for _ in 0..rng.below(4) {
            if let Some((u, v)) = stored(rng) {
                setw.push((u, v, 1 + rng.below(30) as u32));
                if rng.one_in(3) {
                    setw.push((u, v, 1 + rng.below(30) as u32));
                }
            }
        }
        if let (true, Some(&(u, v, _))) = (rng.one_in(4), inserts.last()) {
            setw.push((u, v, 40));
        }

        let both = |u: VertexId, v: VertexId| {
            let back = (!g.is_directed()).then_some((v, u));
            std::iter::once((u, v)).chain(back)
        };
        for &(u, v, w) in &inserts {
            for (a, b) in both(u, v) {
                edit.frags[owner[a as usize] as usize].insert_edges.push((a, b, w));
            }
        }
        for &(u, v) in &removes {
            for (a, b) in both(u, v) {
                edit.frags[owner[a as usize] as usize].remove_edges.push((a, b));
            }
        }
        for &(u, v, w) in &setw {
            for (a, b) in both(u, v) {
                edit.frags[owner[a as usize] as usize].set_weights.push((a, b, w));
            }
        }
        edit.touched = edit.frags.iter().map(|fe| !fe.is_empty()).collect();
        if let Some(w) = dead {
            edit.removed_vertices.insert(w);
            let f = &frags[owner[w as usize] as usize];
            edit.touched[f.id() as usize] = true;
            for &h in f.mirror_holders(f.local(w).expect("owner holds it")) {
                edit.touched[h as usize] = true;
            }
        }
        edit.owners = (0..owner.len() as VertexId).map(|v| (v, owner[v as usize])).collect();
        edit
    }

    /// Equal up to the order of parallel `(u, v)` copies, which the
    /// parent's unstable sort left arbitrary.
    fn assert_same_fragments(got: &[Fragment<(), u32>], want: &[Fragment<(), u32>]) {
        for (f, e) in got.iter().zip(want) {
            assert_eq!(f.globals(), e.globals(), "frag {} locals", f.id());
            assert_eq!(f.owned_count(), e.owned_count());
            assert_eq!(f.inner_in(), e.inner_in());
            assert_eq!(f.inner_out(), e.inner_out());
            assert_eq!(f.mirror_owners(), e.mirror_owners());
            assert_eq!(f.holder_csr(), e.holder_csr());
            assert_eq!(f.routing().dests(), e.routing().dests());
            for l in f.local_vertices() {
                assert_eq!(f.routing().fanout(l), e.routing().fanout(l));
                assert_eq!(f.neighbors(l), e.neighbors(l), "frag {} row {l} targets", f.id());
                let mut a = f.edges(l).map(|(t, d)| (t, *d)).collect::<Vec<_>>();
                let mut b = e.edges(l).map(|(t, d)| (t, *d)).collect::<Vec<_>>();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "frag {} row {l} weights", f.id());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(128),
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The splice against the parent's repack, batch after batch on
        /// one evolving fragment set: same `AppliedEdit`, same fragments.
        #[test]
        fn splice_matches_the_parent_repack(
            n in 8usize..60,
            density in 1usize..4,
            directed in 0u8..2,
            m in 2usize..6,
            batches in 1usize..9,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = Rng(seed << 1 | 1);
            let mut b = if directed == 1 {
                GraphBuilder::new_directed(n)
            } else {
                GraphBuilder::new_undirected(n)
            };
            for _ in 0..n * density {
                let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
                if u != v {
                    b.add_edge(u, v, 1 + rng.below(9) as u32);
                }
            }
            let g = b.build();
            let mut live = build_fragments_n(&g, &hash_partition(&g, m), m);
            let mut reference = live.clone();
            let mut bufs = EditBuffers::default();
            for _ in 0..batches {
                let edit = random_batch(&live, &mut rng);
                let got = {
                    let mut refs: Vec<&mut Fragment<(), u32>> = live.iter_mut().collect();
                    apply_partition_edit(&mut refs, &edit, &mut bufs)
                };
                let want = {
                    let mut refs: Vec<&mut Fragment<(), u32>> = reference.iter_mut().collect();
                    oracle::apply(&mut refs, &edit)
                };
                proptest::prop_assert_eq!(&got.remaps, &want.remaps);
                proptest::prop_assert_eq!(&got.seeds, &want.seeds);
                proptest::prop_assert_eq!(got.weights_decreased, want.weights_decreased);
                proptest::prop_assert_eq!(got.weights_increased, want.weights_increased);
                proptest::prop_assert_eq!(&got.changed, &want.changed);
                assert_same_fragments(&live, &reference);
                for f in &live {
                    proptest::prop_assert_eq!(f.check_invariants(), Ok(()));
                }
            }
        }
    }
}
