//! The snapshot file proper: persisted fragment sets and retained
//! run state.
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! magic    8 bytes  b"AAPSNAP\0"
//! version  u16      1
//! flags    u16      reserved, 0
//! FRAG section      the partitioned fragment set
//! STAT section      retained PortableRunState (optional; absent when
//!                   the snapshot carries topology only)
//! ```
//!
//! Each section is framed by the wire layer: `tag(4) len(u64) payload
//! crc32(u32)` — see [`crate::wire::write_section`]. The FRAG payload
//! holds, per fragment, exactly the parts
//! [`Fragment::from_saved_parts`] consumes: local CSR adjacency with
//! node/edge data, the globals array, owned count, border sets
//! (`Fi.I`, `Fi.O'`), mirror owners and the holder CSR. Dense routing
//! tables are *derivable* and therefore not persisted; the loader
//! re-derives them with [`rebuild_routing_tables`] — trading a little
//! load CPU for a format that cannot hold contradictory routing.
//!
//! The STAT payload is an [`aap_core::PortableRunState`]: per fragment,
//! the exported globals layout, owned count, and the program state via
//! its [`Codec`] — keyed by *global* ids so it survives renumbering
//! (see `PortableRunState::attach`).

use crate::codec::{encode_slice, Codec};
use crate::wire::{read_section, write_section, Reader, Writer};
use crate::{ErrorKind, SnapshotError};
use aap_core::{PortableFragState, PortableRunState};
use aap_graph::partition::rebuild_routing_tables;
use aap_graph::{FragId, Fragment, Graph, LocalId, VertexId};
use std::borrow::Borrow;
use std::path::Path;

/// File magic of snapshot files.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"AAPSNAP\0";
/// Current (and only) format version.
pub const SNAPSHOT_VERSION: u16 = 1;
const FRAG_TAG: [u8; 4] = *b"FRAG";
const STAT_TAG: [u8; 4] = *b"STAT";
/// Section tag of a *differential* fragment payload: a subset of the
/// partition's fragments, each embedding its own id, resolved against
/// older epochs by [`resolve_fragment_chain`].
pub const DIFF_FRAG_TAG: [u8; 4] = *b"DFRG";

/// A snapshot loaded back into memory: the fragment set (with routing
/// tables re-derived) and, if the file carried one, the retained state.
#[derive(Debug)]
pub struct LoadedSnapshot<V, E, St> {
    /// The persisted partition, ready to back an engine.
    pub fragments: Vec<Fragment<V, E>>,
    /// Retained run state, if the snapshot carried one. Re-anchor it
    /// with [`aap_core::PortableRunState::attach`].
    pub state: Option<PortableRunState<St>>,
}

fn encode_graph<V: Codec, E: Codec>(g: &Graph<V, E>, w: &mut Writer) {
    g.is_directed().encode(w);
    w.put_len(g.num_vertices());
    for v in g.nodes() {
        v.encode(w);
    }
    w.put_len(g.num_edges());
    for &o in g.offsets() {
        w.put_u64(o as u64);
    }
    for &t in g.targets() {
        w.put_u32(t);
    }
    for d in g.edge_data_all() {
        d.encode(w);
    }
}

fn decode_graph<V: Codec, E: Codec>(r: &mut Reader<'_>) -> Result<Graph<V, E>, SnapshotError> {
    let directed = bool::decode(r)?;
    let n = r.get_len(V::min_encoded_bytes())?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(V::decode(r)?);
    }
    let m = r.get_len(1)?;
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(r.get_u64()? as usize);
    }
    let mut targets = Vec::with_capacity(m);
    for _ in 0..m {
        targets.push(r.get_u32()?);
    }
    let mut edge_data = Vec::with_capacity(m);
    for _ in 0..m {
        edge_data.push(E::decode(r)?);
    }
    Graph::try_from_csr(directed, nodes, offsets, targets, edge_data)
        .map_err(|e| SnapshotError::corrupt(format!("CSR adjacency: {e}")))
}

fn encode_fragment<V: Codec, E: Codec>(f: &Fragment<V, E>, w: &mut Writer) {
    w.put_u16(f.id());
    w.put_u16(f.num_frags());
    f.is_vertex_cut().encode(w);
    encode_graph(f.local_graph(), w);
    w.put_len(f.globals().len());
    for &g in f.globals() {
        w.put_u32(g);
    }
    w.put_len(f.owned_count());
    encode_slice(f.inner_in(), w);
    encode_slice(f.inner_out(), w);
    encode_slice(f.mirror_owners(), w);
    let (holder_offsets, holders) = f.holder_csr();
    encode_slice(holder_offsets, w);
    encode_slice(holders, w);
}

fn decode_fragment<V: Codec, E: Codec>(
    r: &mut Reader<'_>,
) -> Result<Fragment<V, E>, SnapshotError> {
    let id = r.get_u16()?;
    let num_frags = r.get_u16()?;
    let vertex_cut = bool::decode(r)?;
    let graph = decode_graph::<V, E>(r)?;
    let n = r.get_len(4)?;
    let mut globals = Vec::with_capacity(n);
    for _ in 0..n {
        globals.push(r.get_u32()?);
    }
    let owned = r.get_len(0)?;
    let inner_in = Vec::<LocalId>::decode(r)?;
    let inner_out = Vec::<LocalId>::decode(r)?;
    let mirror_owner = Vec::<FragId>::decode(r)?;
    let holder_offsets = Vec::<u32>::decode(r)?;
    let holders = Vec::<FragId>::decode(r)?;
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
    .map_err(SnapshotError::corrupt)
}

/// Cross-fragment coherence: every routing destination must actually
/// hold a copy of the vertex, or the routing-table rebuild would panic
/// on its `peer_local` lookup. The per-fragment validator
/// ([`Fragment::check_invariants`], run by `try_from_saved_parts` on
/// every decoded fragment) can't see this — each fragment is internally
/// consistent while naming a peer that lacks the vertex — so it runs
/// once over the decoded partition.
///
/// It also checks the global id space, which each fragment only sees a
/// slice of: the owned globals across all fragments must be exactly
/// `0..n` (`n` = Σ owned), each owned once, and every mirror must name
/// one of them. Otherwise a checksum-valid snapshot would decode and
/// then index out of bounds in the first query's gather.
fn validate_partition<V, E>(frags: &[Fragment<V, E>]) -> Result<(), SnapshotError> {
    let n: usize = frags.iter().map(|f| f.owned_count()).sum();
    let mut owned = vec![false; n];
    for f in frags {
        for l in f.owned_vertices() {
            let g = f.global(l);
            match owned.get_mut(g as usize) {
                Some(seen) if !*seen => *seen = true,
                Some(_) => {
                    return Err(SnapshotError::corrupt(format!(
                        "fragment {}: vertex {g} is owned twice",
                        f.id()
                    )))
                }
                None => {
                    return Err(SnapshotError::corrupt(format!(
                        "fragment {}: owned vertex {g} is outside 0..{n}",
                        f.id()
                    )))
                }
            }
        }
        if let Some(g) = f.mirrors().map(|m| f.global(m)).find(|&g| g as usize >= n) {
            return Err(SnapshotError::corrupt(format!(
                "fragment {}: mirror of vertex {g} is outside 0..{n}",
                f.id()
            )));
        }
    }
    for f in frags {
        for m in f.mirrors() {
            let g = f.global(m);
            let owner = &frags[f.owner(m) as usize];
            if owner.local(g).is_none() {
                return Err(SnapshotError::corrupt(format!(
                    "fragment {}: mirror of vertex {g} names owner {} which lacks it",
                    f.id(),
                    owner.id()
                )));
            }
        }
        for l in f.owned_vertices() {
            let g = f.global(l);
            for &h in f.mirror_holders(l) {
                if frags[h as usize].local(g).is_none() {
                    return Err(SnapshotError::corrupt(format!(
                        "fragment {}: holder list of vertex {g} names fragment {h} which lacks it",
                        f.id()
                    )));
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn encode_frag_state<St: Codec>(entry: &PortableFragState<St>, w: &mut Writer) {
    entry.globals.encode(w);
    w.put_len(entry.owned);
    entry.state.encode(w);
}

pub(crate) fn decode_frag_state<St: Codec>(
    r: &mut Reader<'_>,
) -> Result<PortableFragState<St>, SnapshotError> {
    let globals = Vec::<VertexId>::decode(r)?;
    let owned = r.get_len(0)?;
    if owned > globals.len() {
        return Err(SnapshotError::corrupt("owned count exceeds globals"));
    }
    let state = St::decode(r)?;
    Ok(PortableFragState { globals, owned, state })
}

pub(crate) fn encode_portable_state<St: Codec>(state: &PortableRunState<St>, w: &mut Writer) {
    w.put_len(state.len());
    for entry in state.entries() {
        encode_frag_state(entry, w);
    }
}

pub(crate) fn decode_portable_state<St: Codec>(
    r: &mut Reader<'_>,
) -> Result<PortableRunState<St>, SnapshotError> {
    let m = r.get_len(8)?;
    let mut entries = Vec::with_capacity(m);
    for _ in 0..m {
        entries.push(decode_frag_state::<St>(r)?);
    }
    Ok(PortableRunState::from_entries(entries))
}

/// Serialize a snapshot to bytes. `frags` accepts both `&[Fragment]`
/// and `&[Arc<Fragment>]` (anything borrowing a fragment).
pub fn snapshot_to_bytes<V, E, St, F>(frags: &[F], state: Option<&PortableRunState<St>>) -> Vec<u8>
where
    V: Codec,
    E: Codec,
    St: Codec,
    F: Borrow<Fragment<V, E>>,
{
    let mut out = Writer::new();
    out.put_bytes(&SNAPSHOT_MAGIC);
    out.put_u16(SNAPSHOT_VERSION);
    out.put_u16(0); // flags, reserved

    let mut frag_payload = Writer::new();
    frag_payload.put_u16(frags.len() as u16);
    for f in frags {
        encode_fragment(f.borrow(), &mut frag_payload);
    }
    write_section(&mut out, FRAG_TAG, frag_payload.bytes());

    if let Some(state) = state {
        let mut stat_payload = Writer::new();
        encode_portable_state(state, &mut stat_payload);
        write_section(&mut out, STAT_TAG, stat_payload.bytes());
    }
    out.into_bytes()
}

/// Parse a snapshot from bytes, re-deriving the routing tables.
pub fn snapshot_from_bytes<V, E, St>(
    bytes: &[u8],
) -> Result<LoadedSnapshot<V, E, St>, SnapshotError>
where
    V: Codec,
    E: Codec,
    St: Codec,
{
    let mut r = Reader::new(bytes);
    let magic = r.get_bytes(8, "file header")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::new(ErrorKind::BadMagic));
    }
    let version = r.get_u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::new(ErrorKind::BadVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        }));
    }
    let _flags = r.get_u16()?;

    let frag_payload = read_section(&mut r, FRAG_TAG, "fragment section")?;
    let mut fr = Reader::new(frag_payload);
    let m = fr.get_u16()? as usize;
    let mut fragments: Vec<Fragment<V, E>> = Vec::with_capacity(m);
    for i in 0..m {
        let f = decode_fragment::<V, E>(&mut fr)?;
        if f.id() as usize != i || f.num_frags() as usize != m {
            return Err(SnapshotError::corrupt("fragment ids disagree with partition size"));
        }
        fragments.push(f);
    }
    if !fr.is_exhausted() {
        return Err(SnapshotError::corrupt("trailing bytes in fragment section"));
    }

    let state = if r.remaining() > 0 {
        let stat_payload = read_section(&mut r, STAT_TAG, "state section")?;
        let mut sr = Reader::new(stat_payload);
        let st = decode_portable_state::<St>(&mut sr)?;
        if !sr.is_exhausted() {
            return Err(SnapshotError::corrupt("trailing bytes in state section"));
        }
        if st.len() != fragments.len() {
            return Err(SnapshotError::corrupt("state fragment count mismatch"));
        }
        Some(st)
    } else {
        None
    };
    if !r.is_exhausted() {
        return Err(SnapshotError::corrupt("trailing bytes after the last section"));
    }

    validate_partition(&fragments)?;
    rebuild_routing_tables(&mut fragments);
    Ok(LoadedSnapshot { fragments, state })
}

/// Write a snapshot file: the persisted fragment set plus (optionally)
/// retained run state. I/O errors carry the path, mirroring
/// `aap_graph::io`.
///
/// The write is atomic with respect to the destination: bytes go to a
/// sibling temp file, are synced to disk, then renamed over `path` —
/// so re-snapshotting to the same path can never leave a torn file in
/// place of the previous good snapshot, even across a crash mid-save.
pub fn save_snapshot<V, E, St, F, P>(
    path: P,
    frags: &[F],
    state: Option<&PortableRunState<St>>,
) -> Result<(), SnapshotError>
where
    V: Codec,
    E: Codec,
    St: Codec,
    F: Borrow<Fragment<V, E>>,
    P: AsRef<Path>,
{
    let path = path.as_ref();
    let bytes = snapshot_to_bytes(frags, state);
    crate::write_file_atomic(path, &bytes)
}

/// Read a snapshot file back; every error — I/O, framing, checksum —
/// is tagged with the path.
pub fn load_snapshot<V, E, St, P>(path: P) -> Result<LoadedSnapshot<V, E, St>, SnapshotError>
where
    V: Codec,
    E: Codec,
    St: Codec,
    P: AsRef<Path>,
{
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::io(path, e))?;
    snapshot_from_bytes(&bytes).map_err(|e| e.at(path))
}

/// The fragments carried by one snapshot file in an epoch chain: either
/// a full partition (`FRAG` section) or a differential subset (`DFRG`).
/// Produced by [`fragment_parts_from_bytes`]; fed newest-first to
/// [`resolve_fragment_chain`].
#[derive(Debug)]
pub struct FragmentParts<V, E> {
    /// Total fragment count of the partition the file belongs to.
    pub num_frags: u16,
    /// The fragments this file carries (all of them for a full file).
    pub fragments: Vec<Fragment<V, E>>,
    /// True if the file held a `DFRG` (subset) section.
    pub differential: bool,
}

/// Serialize a *differential* snapshot: the subset of fragments whose
/// bytes changed since the parent epoch. `num_frags` is the partition's
/// total fragment count (the file may carry fewer). Restore resolves
/// the newest version of each fragment across the epoch chain with
/// [`resolve_fragment_chain`].
pub fn diff_snapshot_to_bytes<V, E, F>(num_frags: u16, frags: &[F]) -> Vec<u8>
where
    V: Codec,
    E: Codec,
    F: Borrow<Fragment<V, E>>,
{
    let mut out = Writer::new();
    out.put_bytes(&SNAPSHOT_MAGIC);
    out.put_u16(SNAPSHOT_VERSION);
    out.put_u16(0); // flags, reserved
    let mut payload = Writer::new();
    payload.put_u16(num_frags);
    payload.put_u16(frags.len() as u16);
    for f in frags {
        encode_fragment(f.borrow(), &mut payload);
    }
    write_section(&mut out, DIFF_FRAG_TAG, payload.bytes());
    out.into_bytes()
}

/// Write a differential snapshot file (atomic temp-file + rename).
pub fn save_diff_snapshot<V, E, F, P>(
    path: P,
    num_frags: u16,
    frags: &[F],
) -> Result<(), SnapshotError>
where
    V: Codec,
    E: Codec,
    F: Borrow<Fragment<V, E>>,
    P: AsRef<Path>,
{
    crate::write_file_atomic(path.as_ref(), &diff_snapshot_to_bytes(num_frags, frags))
}

/// Parse the fragments of one chain file — full (`FRAG`) or
/// differential (`DFRG`) — *without* cross-fragment validation or
/// routing rebuild; those run once over the assembled partition in
/// [`resolve_fragment_chain`]. A trailing `STAT` section on a full file
/// is skipped (its frame is still checksum-verified).
pub fn fragment_parts_from_bytes<V, E>(bytes: &[u8]) -> Result<FragmentParts<V, E>, SnapshotError>
where
    V: Codec,
    E: Codec,
{
    let mut r = Reader::new(bytes);
    let magic = r.get_bytes(8, "file header")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::new(ErrorKind::BadMagic));
    }
    let version = r.get_u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::new(ErrorKind::BadVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        }));
    }
    let _flags = r.get_u16()?;

    // Peek the section tag to pick the payload shape.
    let differential = {
        let mut probe = Reader::new(bytes);
        probe.get_bytes(12, "file header")?;
        probe.get_bytes(4, "section tag")? == DIFF_FRAG_TAG
    };
    let (num_frags, count, payload) = if differential {
        let payload = read_section(&mut r, DIFF_FRAG_TAG, "differential fragment section")?;
        let mut fr = Reader::new(payload);
        let total = fr.get_u16()?;
        let count = fr.get_u16()? as usize;
        (total, count, fr)
    } else {
        let payload = read_section(&mut r, FRAG_TAG, "fragment section")?;
        let mut fr = Reader::new(payload);
        let m = fr.get_u16()?;
        (m, m as usize, fr)
    };
    let mut fr = payload;
    let mut fragments: Vec<Fragment<V, E>> = Vec::with_capacity(count);
    for _ in 0..count {
        let f = decode_fragment::<V, E>(&mut fr)?;
        if f.id() >= num_frags || f.num_frags() != num_frags {
            return Err(SnapshotError::corrupt("fragment ids disagree with partition size"));
        }
        fragments.push(f);
    }
    if !fr.is_exhausted() {
        return Err(SnapshotError::corrupt("trailing bytes in fragment section"));
    }
    if differential {
        let mut seen = vec![false; num_frags as usize];
        for f in &fragments {
            if std::mem::replace(&mut seen[f.id() as usize], true) {
                return Err(SnapshotError::corrupt("duplicate fragment id in differential file"));
            }
        }
    }
    if !differential {
        // Full files must cover ids 0..m in order (same rule as
        // `snapshot_from_bytes`).
        for (i, f) in fragments.iter().enumerate() {
            if f.id() as usize != i {
                return Err(SnapshotError::corrupt("fragment ids disagree with partition size"));
            }
        }
        // Skip (but still frame-verify) a trailing STAT section.
        if r.remaining() > 0 {
            read_section(&mut r, STAT_TAG, "state section")?;
        }
    }
    if !r.is_exhausted() {
        return Err(SnapshotError::corrupt("trailing bytes after the last section"));
    }
    Ok(FragmentParts { num_frags, fragments, differential })
}

/// Read one chain file's fragments; errors carry the path.
pub fn load_fragment_parts<V, E, P>(path: P) -> Result<FragmentParts<V, E>, SnapshotError>
where
    V: Codec,
    E: Codec,
    P: AsRef<Path>,
{
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::io(path, e))?;
    fragment_parts_from_bytes(&bytes).map_err(|e| e.at(path))
}

/// Resolve an epoch chain — files ordered **newest first**, ending at a
/// full baseline — into the current partition: for each fragment id the
/// newest version wins, coverage must be complete, and the assembled
/// set is cross-validated with routing tables re-derived (exactly what
/// [`snapshot_from_bytes`] guarantees for a single full file).
pub fn resolve_fragment_chain<V, E>(
    parts_newest_first: Vec<FragmentParts<V, E>>,
) -> Result<Vec<Fragment<V, E>>, SnapshotError> {
    let Some(first) = parts_newest_first.first() else {
        return Err(SnapshotError::corrupt("empty snapshot chain"));
    };
    let m = first.num_frags as usize;
    let mut resolved: Vec<Option<Fragment<V, E>>> = (0..m).map(|_| None).collect();
    let mut missing = m;
    for parts in parts_newest_first {
        if parts.num_frags as usize != m {
            return Err(SnapshotError::corrupt("chain files disagree on partition size"));
        }
        for f in parts.fragments {
            let slot = &mut resolved[f.id() as usize];
            if slot.is_none() {
                *slot = Some(f);
                missing -= 1;
            }
        }
        if missing == 0 {
            break;
        }
    }
    if missing > 0 {
        return Err(SnapshotError::corrupt(format!(
            "snapshot chain leaves {missing} of {m} fragments unresolved"
        )));
    }
    let mut fragments: Vec<Fragment<V, E>> =
        resolved.into_iter().map(|f| f.expect("coverage checked")).collect();
    validate_partition(&fragments)?;
    rebuild_routing_tables(&mut fragments);
    Ok(fragments)
}
