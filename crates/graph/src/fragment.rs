//! GRAPE fragments: the per-worker view of a partitioned graph.
//!
//! Following §2 of the paper, a strategy `P` partitions `G` into fragments
//! `F = (F1, ..., Fm)`. For an **edge-cut** partition, a cut edge `u -> v`
//! with `u ∈ Fi`, `v ∈ Fj` is stored on the *source* side: `Fi` holds a
//! **mirror** copy of `v` (so `v ∈ Fi.O`), while `Fj` records that its owned
//! vertex `v` has an incoming cross edge (`v ∈ Fj.I`). For undirected graphs
//! every logical edge is stored in both directions, so the symmetric cut
//! edge lives at `Fj` with a mirror of `u` — exactly the replication the
//! paper's CC example relies on.
//!
//! The border-node sets of the paper map onto this type as follows:
//!
//! * `Fi.I`  — [`Fragment::inner_in`]: owned vertices with an incoming cut
//!   edge (these receive messages).
//! * `Fi.O'` — [`Fragment::inner_out`]: owned vertices with an outgoing cut
//!   edge.
//! * `Fi.O`  — the mirror vertices (locals `owned_count()..local_count()`).
//! * `Fi.I'` — in-mirrors; with source-side edge storage these are not
//!   materialised as vertices, but [`Fragment::mirror_holders`] records, for
//!   every owned border vertex, which fragments hold a copy of it.
//!
//! Message routing (see `aap-core`) uses [`Fragment::route`]: an update on a
//! mirror travels to its owner; an update on an owned border vertex travels
//! to every fragment mirroring it.
//!
//! # Dense routing tables
//!
//! [`Fragment::routing`] exposes a precomputed [`RoutingTable`] so the
//! per-round message path never touches a hash map. The table is built once
//! at `build_fragments` time and upholds these invariants, which the
//! engines (`aap-core`, `aap-sim`) rely on:
//!
//! 1. **Destination list.** [`RoutingTable::dests`] is the sorted,
//!    duplicate-free list of every fragment this fragment can ever send
//!    to. Fan-out entries reference destinations by *slot* (index into
//!    that list), so per-destination send buffers can be dense arrays.
//! 2. **Receiver-local addressing.** Each fan-out entry carries the
//!    destination-local id of the vertex — `frags[dst].local(global)` was
//!    resolved at build time. Message batches therefore ship
//!    `(LocalId, Val)` pairs already in the *receiver's* id space and the
//!    receiver's drain indexes straight into arrays of its `local_count()`.
//! 3. **Route agreement.** For every local `l`,
//!    [`RoutingTable::fanout`]`(l)` lists exactly the fragments of
//!    [`Fragment::route`]`(l)`: the owner for a mirror, the holders
//!    (mirror/copy sites) for an owned border vertex, nothing for an
//!    interior vertex. The two views are redundant by construction; the
//!    table is the hot-path form, `route` the explanatory one.
//! 4. **Stability.** The table is immutable after construction — the
//!    partition is fixed for the lifetime of the fragment set ("G is
//!    partitioned once for all queries Q", §3).

use crate::{FragId, FxHashMap, Graph, LocalId, VertexId};

/// Where an updated status variable must be shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route<'a> {
    /// The vertex is a mirror; ship to the owning fragment.
    Owner(FragId),
    /// The vertex is owned; ship to every fragment holding a copy.
    Mirrors(&'a [FragId]),
}

/// Precomputed dense routing for one fragment: for every local vertex, the
/// destination fragments *and the destination-local ids* of its copies.
/// See the module docs for the invariants.
///
/// Layout: a CSR over local ids. `fanout(l)` yields
/// `(destination slot, destination-local id)` pairs, where the slot indexes
/// [`RoutingTable::dests`]. Slots let the sender keep one dense send buffer
/// per reachable destination instead of a hash map keyed by fragment id.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    dests: Vec<FragId>,
    offsets: Vec<u32>,
    dest_slot: Vec<u16>,
    remote: Vec<LocalId>,
}

impl RoutingTable {
    pub(crate) fn from_parts(
        dests: Vec<FragId>,
        offsets: Vec<u32>,
        dest_slot: Vec<u16>,
        remote: Vec<LocalId>,
    ) -> Self {
        debug_assert_eq!(dest_slot.len(), remote.len());
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, remote.len());
        debug_assert!(dests.windows(2).all(|w| w[0] < w[1]), "dests sorted unique");
        RoutingTable { dests, offsets, dest_slot, remote }
    }

    /// Sorted, duplicate-free list of every fragment this fragment sends to.
    #[inline]
    pub fn dests(&self) -> &[FragId] {
        &self.dests
    }

    /// Number of distinct destinations (the length of [`RoutingTable::dests`]).
    #[inline]
    pub fn num_dests(&self) -> usize {
        self.dests.len()
    }

    /// Fan-out of local vertex `l`: parallel slices of destination slots
    /// and destination-local ids. Empty for interior vertices.
    #[inline]
    pub fn fanout(&self, l: LocalId) -> (&[u16], &[LocalId]) {
        let lo = self.offsets[l as usize] as usize;
        let hi = self.offsets[l as usize + 1] as usize;
        (&self.dest_slot[lo..hi], &self.remote[lo..hi])
    }

    /// Number of destinations an update to `l` ships to.
    #[inline]
    pub fn fanout_len(&self, l: LocalId) -> usize {
        (self.offsets[l as usize + 1] - self.offsets[l as usize]) as usize
    }

    /// Total fan-out entries across all local vertices.
    #[inline]
    pub fn total_routes(&self) -> usize {
        self.remote.len()
    }
}

/// One fragment `Fi` of a partitioned graph, resident at virtual worker `Pi`.
///
/// Local vertex ids are dense: owned vertices first (`0..owned_count()`,
/// sorted by global id), then mirrors (`owned_count()..local_count()`, also
/// sorted by global id). Mirrors created by edge-cut partitioning carry no
/// out-edges; vertex-cut copies may.
#[derive(Debug, Clone)]
pub struct Fragment<V = (), E = ()> {
    id: FragId,
    num_frags: u16,
    vertex_cut: bool,
    graph: Graph<V, E>,
    globals: Vec<VertexId>,
    g2l: FxHashMap<VertexId, LocalId>,
    owned: usize,
    inner_in: Vec<LocalId>,
    inner_out: Vec<LocalId>,
    mirror_owner: Vec<FragId>,
    /// CSR over owned locals: fragments holding a copy of each owned vertex.
    holder_offsets: Vec<u32>,
    holders: Vec<FragId>,
    /// Dense per-vertex routing, filled in by the fragment builders after
    /// all fragments of the partition exist (it needs peer id maps).
    routing: RoutingTable,
}

#[allow(clippy::too_many_arguments)]
impl<V, E> Fragment<V, E> {
    pub(crate) fn from_parts(
        id: FragId,
        num_frags: u16,
        vertex_cut: bool,
        graph: Graph<V, E>,
        globals: Vec<VertexId>,
        owned: usize,
        inner_in: Vec<LocalId>,
        inner_out: Vec<LocalId>,
        mirror_owner: Vec<FragId>,
        holder_offsets: Vec<u32>,
        holders: Vec<FragId>,
    ) -> Self {
        debug_assert_eq!(graph.num_vertices(), globals.len());
        debug_assert_eq!(globals.len() - owned, mirror_owner.len());
        debug_assert_eq!(holder_offsets.len(), owned + 1);
        let mut g2l = FxHashMap::default();
        g2l.reserve(globals.len());
        for (l, &g) in globals.iter().enumerate() {
            g2l.insert(g, l as LocalId);
        }
        Fragment {
            id,
            num_frags,
            vertex_cut,
            graph,
            globals,
            g2l,
            owned,
            inner_in,
            inner_out,
            mirror_owner,
            holder_offsets,
            holders,
            routing: RoutingTable::default(),
        }
    }

    /// Rebuild a fragment from persisted parts — the durable snapshot
    /// path (`aap-snapshot`). Semantically the data is what the
    /// internal partition-time constructor takes, but everything is validated
    /// unconditionally (snapshot bytes are untrusted) and the local
    /// `g2l` map is re-derived rather than persisted. The dense
    /// [`RoutingTable`] is **not** attached here: it is derivable, so
    /// loaders re-derive it for the whole partition with
    /// [`crate::partition::rebuild_routing_tables`] once every fragment
    /// exists.
    ///
    /// # Panics
    /// Panics on inconsistent parts — [`Fragment::try_from_saved_parts`]
    /// is the error-returning form loaders use; every check lives there.
    #[allow(clippy::too_many_arguments)]
    pub fn from_saved_parts(
        id: FragId,
        num_frags: u16,
        vertex_cut: bool,
        graph: Graph<V, E>,
        globals: Vec<VertexId>,
        owned: usize,
        inner_in: Vec<LocalId>,
        inner_out: Vec<LocalId>,
        mirror_owner: Vec<FragId>,
        holder_offsets: Vec<u32>,
        holders: Vec<FragId>,
    ) -> Self {
        Fragment::try_from_saved_parts(
            id,
            num_frags,
            vertex_cut,
            graph,
            globals,
            owned,
            inner_in,
            inner_out,
            mirror_owner,
            holder_offsets,
            holders,
        )
        .unwrap_or_else(|e| panic!("inconsistent fragment parts: {e}"))
    }

    /// Fallible form of [`Fragment::from_saved_parts`]: the array shapes
    /// are checked here, everything else by
    /// [`Fragment::check_invariants`] — the single home of the
    /// per-fragment validity checks, so deserializers turn bad input
    /// into a tagged error instead of a panic and cannot drift from
    /// what the in-place mutations are held to.
    ///
    /// # Errors
    /// Describes the first inconsistency found: wrong array lengths,
    /// then whatever [`Fragment::check_invariants`] reports.
    #[allow(clippy::too_many_arguments)]
    pub fn try_from_saved_parts(
        id: FragId,
        num_frags: u16,
        vertex_cut: bool,
        graph: Graph<V, E>,
        globals: Vec<VertexId>,
        owned: usize,
        inner_in: Vec<LocalId>,
        inner_out: Vec<LocalId>,
        mirror_owner: Vec<FragId>,
        holder_offsets: Vec<u32>,
        holders: Vec<FragId>,
    ) -> Result<Self, String> {
        let n = globals.len();
        let check = |cond: bool, what: &str| -> Result<(), String> {
            if cond {
                Ok(())
            } else {
                Err(format!("fragment {id}: {what}"))
            }
        };
        check(graph.num_vertices() == n, "local graph must cover all locals")?;
        check(owned <= n, "owned count exceeds local count")?;
        check(mirror_owner.len() == n - owned, "one owner per mirror")?;
        check(holder_offsets.len() == owned + 1, "holder CSR over owned locals")?;
        let frag = Fragment::from_parts(
            id,
            num_frags,
            vertex_cut,
            graph,
            globals,
            owned,
            inner_in,
            inner_out,
            mirror_owner,
            holder_offsets,
            holders,
        );
        frag.check_invariants()?;
        Ok(frag)
    }

    /// Check every structural invariant a fragment must uphold on its
    /// own (cross-fragment coherence — holders really holding a copy,
    /// routing tables matching the peers — needs the whole partition).
    /// Snapshot loaders run it on untrusted bytes; debug builds run it
    /// after every in-place mutation ([`crate::mutate`]).
    ///
    /// # Errors
    /// Describes the first violation found:
    ///
    /// * the local CSR is malformed (offsets not monotone from 0 to the
    ///   edge count, a target out of range), or an edge-cut mirror
    ///   carries a row;
    /// * the owned or the mirror run of `globals` is not strictly
    ///   ascending, a vertex is in both, or `local(global(l)) != l`;
    /// * a mirror owner or a holder is out of range or names this
    ///   fragment, or a holder list is not strictly ascending;
    /// * `Fi.I` is not exactly the owned vertices with a holder, or
    ///   `Fi.O'` not exactly those with an edge to a mirror (under
    ///   vertex-cut both are the owned vertices with a holder).
    pub fn check_invariants(&self) -> Result<(), String> {
        let (id, n, owned) = (self.id, self.globals.len(), self.owned);
        let m = self.num_frags as usize;
        let check = |cond: bool, what: &str| -> Result<(), String> {
            if cond {
                Ok(())
            } else {
                Err(format!("fragment {id}: {what}"))
            }
        };
        check((id as usize) < m, "fragment id out of range")?;
        check(owned <= n && self.graph.num_vertices() == n, "local graph must cover all locals")?;

        let (offsets, targets) = (self.graph.offsets(), self.graph.targets());
        check(offsets.len() == n + 1 && offsets[0] == 0, "CSR offsets start at 0, one per local")?;
        check(offsets.windows(2).all(|w| w[0] <= w[1]), "CSR offsets monotone")?;
        check(offsets[n] == targets.len(), "CSR offsets end at the edge count")?;
        check(targets.len() == self.graph.edge_data_all().len(), "one edge datum per target")?;
        check(targets.iter().all(|&t| (t as usize) < n), "edge target out of range")?;
        check(self.vertex_cut || offsets[owned] == offsets[n], "edge-cut mirrors carry no rows")?;

        // The local-id layout: owned globals strictly sorted, then mirror
        // globals strictly sorted, no id in both. A duplicate would
        // collapse the g2l map (last wins) and silently misroute
        // messages; an unsorted run breaks the merges in `mutate`.
        let (own, mir) = self.globals.split_at(owned);
        check(own.windows(2).all(|w| w[0] < w[1]), "owned globals sorted unique")?;
        check(mir.windows(2).all(|w| w[0] < w[1]), "mirror globals sorted unique")?;
        let (mut i, mut j) = (0, 0);
        while i < own.len() && j < mir.len() {
            match own[i].cmp(&mir[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    return Err(format!(
                        "fragment {id}: vertex {} is both owned and a mirror",
                        own[i]
                    ))
                }
            }
        }
        check(
            self.globals.iter().enumerate().all(|(l, &g)| self.local(g) == Some(l as LocalId)),
            "local(global(l)) == l",
        )?;

        let foreign = |&f: &FragId| (f as usize) < m && f != id;
        check(self.mirror_owner.len() == n - owned, "one owner per mirror")?;
        check(self.mirror_owner.iter().all(foreign), "mirror owner out of range or self")?;
        let ho = &self.holder_offsets;
        check(ho.len() == owned + 1 && ho[0] == 0, "holder offsets start at 0, one per owned")?;
        check(ho.windows(2).all(|w| w[0] <= w[1]), "holder offsets monotone")?;
        check(ho[owned] as usize == self.holders.len(), "holder offsets end at holder count")?;
        check(self.holders.iter().all(foreign), "holder out of range or self")?;
        let held = |l: usize| ho[l + 1] > ho[l];
        check(
            (0..owned).all(|l| {
                self.holders[ho[l] as usize..ho[l + 1] as usize].windows(2).all(|w| w[0] < w[1])
            }),
            "holder lists sorted unique",
        )?;

        let derived_in = (0..owned).filter(|&l| held(l)).map(|l| l as LocalId);
        check(
            self.inner_in.iter().copied().eq(derived_in.clone()),
            "inner_in == owned with holders",
        )?;
        if self.vertex_cut {
            check(
                self.inner_out.iter().copied().eq(derived_in),
                "inner_out == owned with holders",
            )?;
        } else {
            let cut = |l: &usize| {
                targets[offsets[*l]..offsets[*l + 1]].iter().any(|&t| t as usize >= owned)
            };
            let derived_out = (0..owned).filter(cut).map(|l| l as LocalId);
            check(
                self.inner_out.iter().copied().eq(derived_out),
                "inner_out == owned with a cut edge",
            )?;
        }
        Ok(())
    }

    /// Owning fragment of every mirror, indexed by `local - owned_count()`
    /// (raw form of [`Fragment::owner`], for serialization).
    #[inline]
    pub fn mirror_owners(&self) -> &[FragId] {
        &self.mirror_owner
    }

    /// The holder CSR over owned locals as raw `(offsets, holders)`
    /// arrays (raw form of [`Fragment::mirror_holders`], for
    /// serialization).
    #[inline]
    pub fn holder_csr(&self) -> (&[u32], &[FragId]) {
        (&self.holder_offsets, &self.holders)
    }

    pub(crate) fn set_routing(&mut self, routing: RoutingTable) {
        debug_assert_eq!(routing.offsets.len(), self.globals.len() + 1);
        self.routing = routing;
    }

    /// Re-point one mirror's owner hint after its vertex migrated to a
    /// new fragment (elastic rebalancing; see
    /// [`crate::mutate::migrate_edge_cut`]). `l` must be a mirror.
    pub(crate) fn set_mirror_owner(&mut self, l: LocalId, owner: FragId) {
        debug_assert!((l as usize) >= self.owned, "owner hints exist only for mirrors");
        debug_assert!((owner as usize) < self.num_frags as usize);
        self.mirror_owner[l as usize - self.owned] = owner;
    }

    /// Replace the holder CSR and `Fi.I` after a peer gained or lost a
    /// mirror of one of this fragment's owned vertices (delta application;
    /// see [`crate::mutate`]). The local id space is untouched.
    pub(crate) fn replace_borders(
        &mut self,
        inner_in: Vec<LocalId>,
        holder_offsets: Vec<u32>,
        holders: Vec<FragId>,
    ) {
        debug_assert_eq!(holder_offsets.len(), self.owned + 1);
        debug_assert!(inner_in.windows(2).all(|w| w[0] < w[1]));
        self.inner_in = inner_in;
        self.holder_offsets = holder_offsets;
        self.holders = holders;
    }

    /// The precomputed dense routing table (see the module docs for its
    /// invariants). This is the message hot path; [`Fragment::route`] is
    /// the equivalent explanatory view.
    #[inline]
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// This fragment's id (`i` of `Fi`).
    #[inline]
    pub fn id(&self) -> FragId {
        self.id
    }

    /// Total number of fragments in the partition.
    #[inline]
    pub fn num_frags(&self) -> u16 {
        self.num_frags
    }

    /// True if this fragment came from a vertex-cut partition (copies carry
    /// edges; owned border values must be broadcast to copies).
    #[inline]
    pub fn is_vertex_cut(&self) -> bool {
        self.vertex_cut
    }

    /// Number of vertices owned by this fragment.
    #[inline]
    pub fn owned_count(&self) -> usize {
        self.owned
    }

    /// Number of local vertices (owned + mirrors).
    #[inline]
    pub fn local_count(&self) -> usize {
        self.globals.len()
    }

    /// Number of mirror vertices.
    #[inline]
    pub fn mirror_count(&self) -> usize {
        self.globals.len() - self.owned
    }

    /// Number of locally stored directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.graph.num_edges()
    }

    /// Global id of local vertex `l`.
    #[inline]
    pub fn global(&self, l: LocalId) -> VertexId {
        self.globals[l as usize]
    }

    /// All global ids, indexed by local id.
    #[inline]
    pub fn globals(&self) -> &[VertexId] {
        &self.globals
    }

    /// Local id of global vertex `g`, if present in this fragment.
    #[inline]
    pub fn local(&self, g: VertexId) -> Option<LocalId> {
        self.g2l.get(&g).copied()
    }

    /// Whether local vertex `l` is owned (as opposed to a mirror).
    #[inline]
    pub fn is_owned(&self, l: LocalId) -> bool {
        (l as usize) < self.owned
    }

    /// Owning fragment of a local vertex.
    #[inline]
    pub fn owner(&self, l: LocalId) -> FragId {
        if self.is_owned(l) {
            self.id
        } else {
            self.mirror_owner[l as usize - self.owned]
        }
    }

    /// Out-neighbours (local ids) of local vertex `l`.
    #[inline]
    pub fn neighbors(&self, l: LocalId) -> &[LocalId] {
        self.graph.neighbors(l)
    }

    /// Edge data parallel to [`Fragment::neighbors`].
    #[inline]
    pub fn edge_data(&self, l: LocalId) -> &[E] {
        self.graph.edge_data(l)
    }

    /// Iterate `(neighbor, &edge_data)` of local vertex `l`.
    #[inline]
    pub fn edges(&self, l: LocalId) -> impl Iterator<Item = (LocalId, &E)> + '_ {
        self.graph.edges(l)
    }

    /// Adjacency of `l` with mutable edge data (weight-only in-place
    /// apply; structure stays frozen).
    #[inline]
    pub(crate) fn adjacency_mut(&mut self, l: LocalId) -> (&[LocalId], &mut [E]) {
        self.graph.adjacency_mut(l)
    }

    /// Node data of local vertex `l`.
    #[inline]
    pub fn node(&self, l: LocalId) -> &V {
        self.graph.node(l)
    }

    /// The local adjacency structure as a [`Graph`] over local ids.
    #[inline]
    pub fn local_graph(&self) -> &Graph<V, E> {
        &self.graph
    }

    /// `Fi.I`: owned vertices with an incoming cut edge. Incoming messages
    /// target these (and, for vertex-cut partitions, owned copies).
    #[inline]
    pub fn inner_in(&self) -> &[LocalId] {
        &self.inner_in
    }

    /// `Fi.O'`: owned vertices with an outgoing cut edge.
    #[inline]
    pub fn inner_out(&self) -> &[LocalId] {
        &self.inner_out
    }

    /// Iterate the mirror vertices (`Fi.O`) as local ids.
    #[inline]
    pub fn mirrors(&self) -> impl Iterator<Item = LocalId> + '_ {
        (self.owned as LocalId)..(self.globals.len() as LocalId)
    }

    /// Fragments holding a copy of *owned* vertex `l` (empty for
    /// non-border vertices).
    #[inline]
    pub fn mirror_holders(&self, l: LocalId) -> &[FragId] {
        debug_assert!(self.is_owned(l));
        let i = l as usize;
        &self.holders[self.holder_offsets[i] as usize..self.holder_offsets[i + 1] as usize]
    }

    /// Routing of an update to the status variable of local vertex `l`
    /// (§3: point-to-point push-based message passing).
    #[inline]
    pub fn route(&self, l: LocalId) -> Route<'_> {
        if self.is_owned(l) {
            Route::Mirrors(self.mirror_holders(l))
        } else {
            Route::Owner(self.mirror_owner[l as usize - self.owned])
        }
    }

    /// True if the vertex is a border node in the sense of §2 (has an
    /// adjacent cross edge or a copy in another fragment).
    ///
    /// O(log |Fi|) for owned vertices (two binary searches over
    /// `inner_in`/`inner_out`); not for inner loops. To ask "does an update
    /// to `l` ship anywhere?" per relaxation, use the O(1)
    /// `self.routing().fanout_len(l) > 0`.
    #[inline]
    pub fn is_border(&self, l: LocalId) -> bool {
        if self.is_owned(l) {
            !self.mirror_holders(l).is_empty()
                || self.inner_in.binary_search(&l).is_ok()
                || self.inner_out.binary_search(&l).is_ok()
        } else {
            true
        }
    }

    /// Iterate owned local ids.
    #[inline]
    pub fn owned_vertices(&self) -> impl Iterator<Item = LocalId> {
        0..(self.owned as LocalId)
    }

    /// Iterate all local ids.
    #[inline]
    pub fn local_vertices(&self) -> impl Iterator<Item = LocalId> {
        0..(self.globals.len() as LocalId)
    }
}

/// Summary statistics of a partition, used by the skewness experiments
/// (Fig 6(k)) and reported by the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionStats {
    /// Owned vertices per fragment.
    pub owned: Vec<usize>,
    /// Stored edges per fragment.
    pub edges: Vec<usize>,
    /// Mirrors per fragment.
    pub mirrors: Vec<usize>,
    /// Number of cut (cross-fragment) directed edges.
    pub cut_edges: usize,
    /// `‖Fmax‖ / ‖Fmedian‖` over stored edges — the skew measure `r` of §7.
    pub skew_r: f64,
    /// Average copies per vertex (1.0 means no replication). For
    /// vertex-cut partitions this is the replication factor in the
    /// PowerGraph sense (total copies / distinct vertices).
    pub replication_factor: f64,
    /// `max(owned) / mean(owned)` — ownership (load) imbalance,
    /// 1.0 when perfectly balanced.
    pub load_balance: f64,
    /// `max(edges) / mean(edges)` — stored-edge imbalance, 1.0 when
    /// perfectly balanced.
    pub edge_balance: f64,
}

impl PartitionStats {
    /// Derive the full statistics record from per-fragment counts.
    ///
    /// This is the single source of truth for every derived metric
    /// (`skew_r`, `replication_factor`, `load_balance`, `edge_balance`):
    /// [`partition_stats`] delegates here after a full scan, and
    /// incremental consumers (the balance monitor) call it directly with
    /// counts they maintain across applies.
    pub fn from_counts(
        owned: Vec<usize>,
        edges: Vec<usize>,
        mirrors: Vec<usize>,
        cut_edges: usize,
    ) -> PartitionStats {
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        let max = *sorted.last().unwrap_or(&0) as f64;
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0) as f64;
        let skew_r = if median > 0.0 { max / median } else { 1.0 };
        let total_owned: usize = owned.iter().sum();
        let total_local: usize = total_owned + mirrors.iter().sum::<usize>();
        let replication_factor =
            if total_owned > 0 { total_local as f64 / total_owned as f64 } else { 1.0 };
        let ratio = |counts: &[usize]| -> f64 {
            let total: usize = counts.iter().sum();
            if total == 0 || counts.is_empty() {
                return 1.0;
            }
            let mean = total as f64 / counts.len() as f64;
            let max = counts.iter().copied().max().unwrap_or(0) as f64;
            max / mean
        };
        let load_balance = ratio(&owned);
        let edge_balance = ratio(&edges);
        PartitionStats {
            owned,
            edges,
            mirrors,
            cut_edges,
            skew_r,
            replication_factor,
            load_balance,
            edge_balance,
        }
    }

    /// Ownership imbalance `max/mean` — the metric the rebalance policy
    /// thresholds on.
    #[inline]
    pub fn imbalance(&self) -> f64 {
        self.load_balance
    }
}

/// Count the cut (cross-fragment) directed edges stored in one fragment.
///
/// For edge-cut fragments these are edges whose target is a mirror; for
/// vertex-cut fragments every stored edge is local, so this counts edges
/// into copies (a replication proxy).
pub fn fragment_cut_edges<V, E>(f: &Fragment<V, E>) -> usize {
    f.local_vertices().flat_map(|l| f.neighbors(l)).filter(|&&t| !f.is_owned(t)).count()
}

/// Compute [`PartitionStats`] for a set of fragments. Accepts both
/// `&[Fragment]` and `&[Arc<Fragment>]` (anything borrowing a
/// fragment), so engine/session fragment slices work directly.
pub fn partition_stats<V, E, F: std::borrow::Borrow<Fragment<V, E>>>(
    frags: &[F],
) -> PartitionStats {
    let frags: Vec<&Fragment<V, E>> = frags.iter().map(|f| f.borrow()).collect();
    let owned: Vec<usize> = frags.iter().map(|f| f.owned_count()).collect();
    let edges: Vec<usize> = frags.iter().map(|f| f.edge_count()).collect();
    let mirrors: Vec<usize> = frags.iter().map(|f| f.mirror_count()).collect();
    let cut_edges = frags.iter().map(|f| fragment_cut_edges(f)).sum();
    PartitionStats::from_counts(owned, edges, mirrors, cut_edges)
}

#[cfg(test)]
mod tests {
    use crate::partition::{build_fragments, hash_partition};
    use crate::{GraphBuilder, Route};

    /// Path 0-1-2-3 split as {0,1} / {2,3}.
    fn two_frag_path() -> Vec<crate::Fragment<(), u32>> {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1u32);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let assignment = vec![0u16, 0, 1, 1];
        build_fragments(&g, &assignment)
    }

    #[test]
    fn border_sets_of_path() {
        let frags = two_frag_path();
        let f0 = &frags[0];
        let f1 = &frags[1];
        assert_eq!(f0.owned_count(), 2);
        assert_eq!(f0.mirror_count(), 1); // mirror of 2
        assert_eq!(f1.owned_count(), 2);
        assert_eq!(f1.mirror_count(), 1); // mirror of 1

        // Fi.I / Fi.O' of fragment 0 are both {1} (undirected cut edge 1-2).
        let inner_in: Vec<_> = f0.inner_in().iter().map(|&l| f0.global(l)).collect();
        let inner_out: Vec<_> = f0.inner_out().iter().map(|&l| f0.global(l)).collect();
        assert_eq!(inner_in, vec![1]);
        assert_eq!(inner_out, vec![1]);

        // The mirror of global 2 at fragment 0 routes to owner 1.
        let m = f0.local(2).unwrap();
        assert!(!f0.is_owned(m));
        assert_eq!(f0.route(m), Route::Owner(1));

        // Owned border vertex 1 at fragment 0 is mirrored at fragment 1.
        let b = f0.local(1).unwrap();
        assert_eq!(f0.route(b), Route::Mirrors(&[1]));
        assert!(f0.is_border(b));
        assert!(!f0.is_border(f0.local(0).unwrap()));
    }

    #[test]
    fn mirrors_have_no_out_edges_in_edge_cut() {
        let frags = two_frag_path();
        for f in &frags {
            for m in f.mirrors() {
                assert!(f.neighbors(m).is_empty());
            }
        }
    }

    #[test]
    fn globals_partition_the_vertex_set() {
        let mut b = GraphBuilder::new_undirected(50);
        for v in 0..50u32 {
            b.add_edge(v, (v + 7) % 50, 1u32);
        }
        let g = b.build();
        let assignment = hash_partition(&g, 4);
        let frags = build_fragments(&g, &assignment);
        let mut seen = [false; 50];
        for f in &frags {
            for l in f.owned_vertices() {
                let gid = f.global(l) as usize;
                assert!(!seen[gid], "vertex owned twice");
                seen[gid] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn try_from_saved_parts_rejects_degenerate_globals() {
        use crate::Graph;
        let mk = |globals: Vec<u32>| {
            let n = globals.len();
            crate::Fragment::<(), u32>::try_from_saved_parts(
                0,
                2,
                false,
                Graph::from_csr(true, vec![(); n], vec![0; n + 1], vec![], vec![]),
                globals,
                1,
                vec![],
                vec![],
                vec![1],
                vec![0, 0],
                vec![],
            )
        };
        // A duplicated global id would collapse the g2l map.
        let err = mk(vec![4, 4]).unwrap_err();
        assert!(err.contains("both owned and a mirror"), "{err}");
        // Sorted, disjoint owned/mirror globals pass.
        assert!(mk(vec![4, 7]).is_ok());
        assert!(mk(vec![7, 4]).is_ok(), "mirror ids may sort below owned ids");
    }

    #[test]
    fn partition_stats_sane() {
        let frags = two_frag_path();
        let stats = super::partition_stats(&frags);
        assert_eq!(stats.owned, vec![2, 2]);
        assert_eq!(stats.cut_edges, 2); // 1->2 at f0, 2->1 at f1
        assert!(stats.replication_factor > 1.0);
        assert!(stats.skew_r >= 1.0);
    }
}
