//! The append-only delta log: the replayable half of a durable
//! dynamic-graph pipeline. A serving process snapshots its fragment set
//! and retained state at time `t0`, then appends every applied
//! [`GraphDelta`] here; a restarted process loads the snapshot and
//! replays the log (`aap_delta::replay`) to land in exactly the state a
//! continuous process would hold.
//!
//! # Layout (version 1)
//!
//! ```text
//! magic    8 bytes  b"AAPDLOG\0"
//! version  u16      1
//! flags    u16      reserved, 0
//! record*           len(u32) payload crc32(u32)
//! ```
//!
//! Each record payload is one encoded delta (the five sorted op lists of
//! [`GraphDelta`], each length-prefixed). Records are synced to disk
//! (`sync_data`) on every [`DeltaLog::write_delta`], so even an OS
//! crash or power loss loses at most the in-flight record; a torn tail
//! surfaces as a tagged `Truncated`/`Checksum` error on replay rather
//! than silently dropping suffix deltas.

use crate::codec::{encode_slice, Codec};
use crate::wire::{crc32, Reader, Writer};
use crate::{ErrorKind, SnapshotError};
use aap_delta::GraphDelta;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// File magic of delta-log files.
pub const LOG_MAGIC: [u8; 8] = *b"AAPDLOG\0";
/// Current (and only) log format version.
pub const LOG_VERSION: u16 = 1;

fn encode_delta<V: Codec, E: Codec>(delta: &GraphDelta<V, E>, w: &mut Writer) {
    w.put_len(delta.vertices_added().len());
    for (id, d) in delta.vertices_added() {
        w.put_u32(*id);
        d.encode(w);
    }
    encode_slice(delta.vertices_removed(), w);
    w.put_len(delta.edges_added().len());
    for (u, v, d) in delta.edges_added() {
        w.put_u32(*u);
        w.put_u32(*v);
        d.encode(w);
    }
    encode_slice(delta.edges_removed(), w);
    w.put_len(delta.weight_updates().len());
    for (u, v, d) in delta.weight_updates() {
        w.put_u32(*u);
        w.put_u32(*v);
        d.encode(w);
    }
}

fn decode_delta<V: Codec, E: Codec>(r: &mut Reader<'_>) -> Result<GraphDelta<V, E>, SnapshotError> {
    let n = r.get_len(4)?;
    let mut vertices_added = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.get_u32()?;
        vertices_added.push((id, V::decode(r)?));
    }
    let vertices_removed = Vec::<u32>::decode(r)?;
    let n = r.get_len(8)?;
    let mut edges_added = Vec::with_capacity(n);
    for _ in 0..n {
        let (u, v) = (r.get_u32()?, r.get_u32()?);
        edges_added.push((u, v, E::decode(r)?));
    }
    let edges_removed = Vec::<(u32, u32)>::decode(r)?;
    let n = r.get_len(8)?;
    let mut weight_updates = Vec::with_capacity(n);
    for _ in 0..n {
        let (u, v) = (r.get_u32()?, r.get_u32()?);
        weight_updates.push((u, v, E::decode(r)?));
    }
    // The sortedness contract is data here, not a programmer error:
    // the fallible constructor turns violations into Corrupt.
    GraphDelta::try_from_parts(
        vertices_added,
        vertices_removed,
        edges_added,
        edges_removed,
        weight_updates,
    )
    .map_err(|e| SnapshotError::corrupt(format!("delta record: {e}")))
}

/// An open, append-only delta log. Create one next to the snapshot at
/// save time; [`DeltaLog::write_delta`] every batch the serving process
/// applies; replay the file on restart with [`DeltaLog::replay`].
#[derive(Debug)]
pub struct DeltaLog {
    file: File,
    path: PathBuf,
}

impl DeltaLog {
    /// Create (truncate) a log file and write its header.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path).map_err(|e| SnapshotError::io(&path, e))?;
        let mut header = Writer::new();
        header.put_bytes(&LOG_MAGIC);
        header.put_u16(LOG_VERSION);
        header.put_u16(0);
        file.write_all(header.bytes()).map_err(|e| SnapshotError::io(&path, e))?;
        file.sync_data().map_err(|e| SnapshotError::io(&path, e))?;
        Ok(DeltaLog { file, path })
    }

    /// Open an existing log for appending, validating its header first
    /// (so a typo'd path or foreign file fails here, not at replay).
    pub fn open_append<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let path = path.as_ref().to_path_buf();
        let mut probe = File::open(&path).map_err(|e| SnapshotError::io(&path, e))?;
        let mut header = [0u8; 12];
        probe.read_exact(&mut header).map_err(|_| {
            SnapshotError::new(ErrorKind::Truncated { what: "log header" }).at(&path)
        })?;
        check_log_header(&header).map_err(|e| e.at(&path))?;
        let file =
            OpenOptions::new().append(true).open(&path).map_err(|e| SnapshotError::io(&path, e))?;
        Ok(DeltaLog { file, path })
    }

    /// Append one delta as a checksummed record and flush it.
    ///
    /// Log the same `GraphDelta` you hand to the incremental drivers:
    /// a built delta is already deduplicated, and `apply_to_fragments_par`
    /// applies it verbatim, so the logged batch *is* the batch that hit
    /// the graph. What the drivers additionally report back
    /// (`aap_delta::IncrementalOutput::applied` and `warm`) is how the
    /// batch resolved — weight-change directions, remaps, seeds, and
    /// which evaluation path ran — useful beside the log, not instead
    /// of it.
    pub fn write_delta<V: Codec, E: Codec>(
        &mut self,
        delta: &GraphDelta<V, E>,
    ) -> Result<(), SnapshotError> {
        let mut payload = Writer::new();
        encode_delta(delta, &mut payload);
        let payload = payload.into_bytes();
        let len = u32::try_from(payload.len()).map_err(|_| {
            SnapshotError::corrupt("delta record exceeds the 4 GiB record limit").at(&self.path)
        })?;
        let mut record = Writer::new();
        record.put_u32(len);
        record.put_bytes(&payload);
        record.put_u32(crc32(&payload));
        self.file
            .write_all(record.bytes())
            // sync_data, not flush: File's flush is a no-op, and the
            // module doc promises a crash loses at most the in-flight
            // record — that requires the page cache to be drained.
            .and_then(|()| self.file.sync_data())
            .map_err(|e| SnapshotError::io(&self.path, e))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read every delta recorded in the log at `path`, in append order.
    /// A truncated or corrupted record is a tagged error — replaying a
    /// prefix of history silently would defeat the durability story.
    pub fn replay<V: Codec, E: Codec, P: AsRef<Path>>(
        path: P,
    ) -> Result<Vec<GraphDelta<V, E>>, SnapshotError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::io(path, e))?;
        replay_bytes(&bytes).map_err(|e| e.at(path))
    }

    /// The *restart* read: parse the longest valid record prefix,
    /// **truncate the file to it** when a torn tail follows, and return
    /// the prefix plus whether a tail was dropped.
    ///
    /// A crash mid-append (the exact scenario a durable log exists for)
    /// leaves a partial or checksum-failing final record; each record
    /// is synced before the append is acknowledged, so that tail was
    /// never acknowledged and dropping it is correct — whereas the
    /// strict [`DeltaLog::replay`] (the audit read) refuses the file
    /// outright. Header problems (bad magic/version, unreadable file)
    /// still fail: those mean a foreign or unusable file, not a torn
    /// write. Truncating also makes a follow-up
    /// [`DeltaLog::open_append`] safe — appending after garbage would
    /// corrupt the next record boundary.
    pub fn recover<V: Codec, E: Codec, P: AsRef<Path>>(
        path: P,
    ) -> Result<(Vec<GraphDelta<V, E>>, bool), SnapshotError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::io(path, e))?;
        let rec = recover_bytes::<V, E>(&bytes).map_err(|e| e.at(path))?;
        if rec.torn_tail {
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| SnapshotError::io(path, e))?;
            file.set_len(rec.valid_len).map_err(|e| SnapshotError::io(path, e))?;
            file.sync_all().map_err(|e| SnapshotError::io(path, e))?;
        }
        Ok((rec.deltas, rec.torn_tail))
    }
}

fn check_log_header(header: &[u8]) -> Result<(), SnapshotError> {
    if header.len() < 12 {
        return Err(SnapshotError::new(ErrorKind::Truncated { what: "log header" }));
    }
    if header[..8] != LOG_MAGIC {
        return Err(SnapshotError::new(ErrorKind::BadMagic));
    }
    let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
    if version != LOG_VERSION {
        return Err(SnapshotError::new(ErrorKind::BadVersion {
            found: version,
            supported: LOG_VERSION,
        }));
    }
    Ok(())
}

/// Does any offset in `bytes[from..]` hold a complete, checksum-valid,
/// fully-decodable record frame? Used by `recover_bytes` to tell a
/// genuine torn tail (nothing parseable follows the failure) from
/// mid-file corruption that merely *looks* tail-shaped (e.g. a bit flip
/// in a length field claiming past EOF while acknowledged records sit
/// after it). O(tail × record) worst case — restore-time, failure-path
/// only.
fn resync_finds_record<V: Codec, E: Codec>(bytes: &[u8], from: usize) -> bool {
    for o in from..bytes.len().saturating_sub(8) {
        let mut r = Reader::new(&bytes[o..]);
        if read_record::<V, E>(&mut r).is_ok() {
            return true;
        }
    }
    false
}

fn read_record<V: Codec, E: Codec>(r: &mut Reader<'_>) -> Result<GraphDelta<V, E>, SnapshotError> {
    let len = r.get_u32()? as usize;
    let payload = r.get_bytes(len, "log record")?;
    let want = r.get_u32()?;
    if crc32(payload) != want {
        return Err(SnapshotError::new(ErrorKind::Checksum { what: "log record" }));
    }
    let mut pr = Reader::new(payload);
    let delta = decode_delta::<V, E>(&mut pr)?;
    if !pr.is_exhausted() {
        return Err(SnapshotError::corrupt("trailing bytes in log record"));
    }
    Ok(delta)
}

/// Parse a delta log from bytes (the file form minus I/O).
pub fn replay_bytes<V: Codec, E: Codec>(
    bytes: &[u8],
) -> Result<Vec<GraphDelta<V, E>>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let header = r.get_bytes(12, "log header")?;
    check_log_header(header)?;
    let mut out = Vec::new();
    while !r.is_exhausted() {
        out.push(read_record::<V, E>(&mut r)?);
    }
    Ok(out)
}

/// A delta log read tolerantly for restart (`recover_bytes`): the
/// longest valid record prefix, where it ends, and whether bytes after
/// it were dropped.
pub struct RecoveredLog<V, E> {
    /// The valid prefix's deltas, in append order.
    pub deltas: Vec<GraphDelta<V, E>>,
    /// Byte length of the valid prefix (header + whole records) — what
    /// the file should be truncated to before appending again.
    pub valid_len: u64,
    /// True when the file held bytes past the valid prefix (a torn
    /// tail from a crash mid-append).
    pub torn_tail: bool,
}

/// The bytes form of [`DeltaLog::recover`]: parse the longest valid
/// prefix, forgiving only a genuine torn **tail**.
///
/// A crash mid-append persists some prefix (or, with out-of-order page
/// writes, a hole-y image) of the *final* record — so the only
/// recoverable failure is a frame that claims to reach or pass EOF and
/// fails as `Truncated` or `Checksum`. Everything else — a failing
/// record with further bytes after its frame, or a record whose
/// checksum *passes* but whose payload doesn't decode — is mid-file
/// corruption or a writer bug, and fails loudly exactly like
/// [`replay_bytes`]: acknowledged history must never be silently cut
/// short. Header errors also fail — they mean a foreign file.
pub fn recover_bytes<V: Codec, E: Codec>(
    bytes: &[u8],
) -> Result<RecoveredLog<V, E>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let header = r.get_bytes(12, "log header")?;
    check_log_header(header)?;
    let mut deltas = Vec::new();
    let mut valid_len = bytes.len() - r.remaining();
    while !r.is_exhausted() {
        let offset = bytes.len() - r.remaining();
        // Does this frame claim to reach (or pass) EOF? Only then can a
        // parse failure be the partial final append a crash leaves.
        let reaches_eof = r.remaining() < 8 || {
            let len =
                u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
            offset.saturating_add(8).saturating_add(len) >= bytes.len()
        };
        match read_record::<V, E>(&mut r) {
            Ok(delta) => {
                deltas.push(delta);
                valid_len = bytes.len() - r.remaining();
            }
            Err(e) => {
                // A tail-shaped failure must still not hide acknowledged
                // records: a corrupted *length field* mid-file can claim
                // to reach EOF too. Resync: if any later offset parses
                // as a complete valid record, acknowledged data follows
                // the failure — corruption, fail loudly. (The scan can
                // only err toward refusing: a record image embedded in a
                // genuinely torn tail makes recover fail, never lose.)
                let torn = reaches_eof
                    && matches!(e.kind(), ErrorKind::Truncated { .. } | ErrorKind::Checksum { .. })
                    && !resync_finds_record::<V, E>(bytes, valid_len + 1);
                if !torn {
                    return Err(e);
                }
                break;
            }
        }
    }
    Ok(RecoveredLog { deltas, valid_len: valid_len as u64, torn_tail: valid_len < bytes.len() })
}
