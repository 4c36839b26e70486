//! Checkpoint + WAL durability for the owned [`crate::Engine`]: file
//! layout, the checkpoint/rotate/prune protocol, and crash recovery.
//!
//! ## File layout
//!
//! A durable engine owns one directory:
//!
//! ```text
//! checkpoint-000007.ckpt   8-byte magic "UDBCKPT2" + frames of at most
//!                          MAX_FRAME bytes whose payloads, joined, hold
//!                          {seq, mutations, db} in little-endian binary
//! wal-000007.log           frames of WalRecord applied AFTER
//!                          checkpoint 7 was taken
//! checkpoint-000006.ckpt   the previous checkpoint (fallback basis)
//! wal-000006.log           records between checkpoints 6 and 7
//! ```
//!
//! The checkpoint payload is `seq: u64`, `mutations: u64`, then
//! [`Database::encode`]: each `f64` is written as its `to_le_bytes`, so
//! a recovered database is bit-identical to the one checkpointed, and
//! decoding goes back through the checked constructors. Every frame must
//! validate and the joined payload must decode exactly, or the
//! checkpoint is rejected. The JSON format `UDBCKPT1` is retired: a
//! directory whose only checkpoints are in it fails to open with an
//! error that names it (no reader for it is kept). WAL records stay
//! JSON.
//!
//! Invariants: checkpoint `N` captures the database *after* every record
//! in segments `< N`; segment `wal-N.log` holds exactly the records
//! applied after checkpoint `N`. So recovery from basis `N` replays
//! segments `>= N` in ascending order and nothing else. Pruning keeps
//! the two newest checkpoints and every segment `>=` the older one, so
//! a corrupt newest checkpoint can always fall back one step and
//! re-reach the same state through the retained log.
//!
//! ## Checkpoint protocol
//!
//! 1. fsync the current WAL segment (completes the fallback chain);
//! 2. write `checkpoint-{N+1}.ckpt.tmp`, fsync it;
//! 3. rename over the final name — the atomic commit point;
//! 4. rotate: new records go to `wal-{N+1}.log`; then fsync the
//!    directory;
//! 5. prune checkpoints `< N` and segments `< N`.
//!
//! A crash at any step leaves either the old basis (steps 1–3, tmp
//! files are ignored by recovery) or the new one (steps 4–5, pruning is
//! re-run by the next checkpoint) — never a broken state. Rotating
//! right after the rename keeps a failed directory fsync harmless: the
//! new checkpoint's recovery replays `wal-{N+1}.log`, and the old
//! basis, should the rename not survive a crash, replays both
//! segments. Recovery itself ends by taking a fresh checkpoint
//! (*checkpoint-on-open*), so a torn WAL tail is never appended to and
//! crashing during recovery is idempotent.
//!
//! ## Recovery rules
//!
//! * Checkpoints are tried newest-first; a corrupt one is skipped with a
//!   warning ([`RecoveryReport::fallback`] counts the skips).
//! * WAL segments `>=` the basis replay in order. A **torn** final
//!   record is dropped with a warning (its write never completed, so it
//!   was never acknowledged). A **corrupt** record — or any record that
//!   no longer applies cleanly — stops replay *entirely* (later records
//!   were logged against a state that includes the bad one; applying
//!   them would fabricate a state that never existed). Nothing is
//!   silently wrong: every degradation lands in
//!   [`RecoveryReport::warnings`].

use udb_index::RTree;
use udb_object::{Database, ObjectId};

use udb_geometry::codec::{self, Reader};

use std::io;
use std::path::{Path, PathBuf};

use crate::wal::{
    decode_frames, encode_frame, read_wal_bytes, CrashPoint, DurableIo, WalDefect, WalRecord,
    MAX_FRAME,
};

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"UDBCKPT2";

/// Magic of the retired JSON checkpoint format, recognised only to name
/// it in the error that refuses it.
const RETIRED_MAGIC: &[u8; 8] = b"UDBCKPT1";

/// Anything the durability layer can fail with.
#[derive(Debug)]
pub enum DurableError {
    /// An IO operation failed (includes simulated crashes from
    /// [`crate::wal::FaultIo`]).
    Io(io::Error),
    /// Checkpoint files exist but none of them could be loaded: there
    /// is no sound basis to recover from. Degrading to an empty
    /// database here would be a silent wrong answer, so it is an error.
    NoValidCheckpoint {
        /// Why each candidate checkpoint was rejected, newest first.
        warnings: Vec<String>,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability IO error: {e}"),
            DurableError::NoValidCheckpoint { warnings } => {
                write!(
                    f,
                    "no valid checkpoint to recover from ({} candidates rejected: {})",
                    warnings.len(),
                    warnings.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// What recovery found and did — the paper trail proving no degradation
/// happened silently. [`crate::Engine::recovery_report`] exposes it.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery loaded (`None`: the
    /// directory held no checkpoints — a fresh database).
    pub checkpoint_seq: Option<u64>,
    /// Corrupt checkpoints skipped before a loadable basis was found.
    pub fallback: usize,
    /// WAL records replayed on top of the basis.
    pub replayed: u64,
    /// Total mutations the recovered state embodies (checkpointed +
    /// replayed) — comparable against a live engine's
    /// [`crate::Engine::mutations`].
    pub applied_mutations: u64,
    /// Every degradation encountered: torn tails dropped, corrupt
    /// records/checkpoints skipped. Empty = clean recovery.
    pub warnings: Vec<String>,
}

/// The checkpoint payload: the full database plus the bookkeeping
/// recovery needs to line the WAL back up.
#[derive(Debug)]
struct CheckpointData {
    /// This checkpoint's sequence number (also in the file name; stored
    /// inside too so a renamed file cannot lie about its position).
    seq: u64,
    /// Mutations applied over the engine's lifetime up to this snapshot.
    mutations: u64,
    /// The database (tombstones compacted at write time).
    db: Database,
}

/// The bytes of a checkpoint file: the magic, then the payload split
/// into frames of at most `chunk` bytes (the checkpoint writer passes
/// [`MAX_FRAME`]).
fn encode_checkpoint(seq: u64, mutations: u64, db: &Database, chunk: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_u64(&mut payload, seq);
    codec::put_u64(&mut payload, mutations);
    db.encode(&mut payload);
    let frames = payload.len().div_ceil(chunk);
    let mut bytes = Vec::with_capacity(CHECKPOINT_MAGIC.len() + 8 * frames + payload.len());
    bytes.extend_from_slice(CHECKPOINT_MAGIC);
    for part in payload.chunks(chunk) {
        bytes.extend_from_slice(&encode_frame(part));
    }
    bytes
}

/// Decodes a joined checkpoint payload, refusing trailing bytes.
fn decode_payload(payload: &[u8]) -> Result<CheckpointData, String> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let mutations = r.u64()?;
    let db = Database::decode(&mut r)?;
    r.finish()?;
    Ok(CheckpointData { seq, mutations, db })
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:06}.ckpt"))
}

fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.log"))
}

/// Parses `prefix-NNNNNN.suffix` file names back to sequence numbers.
fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?;
    let digits = rest.strip_suffix(suffix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The durable directory's current contents, by kind.
struct DirListing {
    checkpoints: Vec<u64>,
    segments: Vec<u64>,
}

fn list_dir(dir: &Path) -> io::Result<DirListing> {
    let mut checkpoints = Vec::new();
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_seq(name, "checkpoint-", ".ckpt") {
            checkpoints.push(seq);
        } else if let Some(seq) = parse_seq(name, "wal-", ".log") {
            segments.push(seq);
        }
        // anything else (".tmp" leftovers, foreign files) is ignored
    }
    checkpoints.sort_unstable();
    segments.sort_unstable();
    Ok(DirListing {
        checkpoints,
        segments,
    })
}

/// Loads and validates one checkpoint file.
fn load_checkpoint(path: &Path) -> Result<CheckpointData, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    decode_checkpoint(&bytes)
}

/// Decodes a checkpoint file's bytes: every frame must validate, and
/// their joined payloads must decode exactly.
fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointData, String> {
    let (magic, body) = bytes.split_at(CHECKPOINT_MAGIC.len().min(bytes.len()));
    if magic == RETIRED_MAGIC {
        return Err(
            "written in the retired JSON checkpoint format UDBCKPT1, which this version \
             no longer reads"
                .into(),
        );
    }
    if magic != CHECKPOINT_MAGIC {
        return Err("bad magic".into());
    }
    let (frames, defect) = decode_frames(body);
    if let Some(defect) = defect {
        return Err(defect.to_string());
    }
    if frames.is_empty() {
        return Err("no frames".into());
    }
    decode_payload(&frames.concat()).map_err(|e| format!("undecodable: {e}"))
}

/// Replays one record onto the database, mirroring the engine's
/// pre-validation: a record that does not apply cleanly is reported as
/// an error (replay then stops) instead of panicking.
fn apply_record(db: &mut Database, rec: &WalRecord) -> Result<(), String> {
    match rec {
        WalRecord::Insert { object } => {
            if let Some(d) = db.dims() {
                if d != object.dims() {
                    return Err(format!(
                        "insert dimensionality {} does not match database ({d})",
                        object.dims()
                    ));
                }
            }
            db.insert((**object).clone());
            Ok(())
        }
        WalRecord::Remove { id } => {
            let id = ObjectId(*id);
            if !db.contains(id) {
                return Err(format!("remove of non-live {id:?}"));
            }
            db.remove(id);
            Ok(())
        }
        WalRecord::Update { id, object } => {
            let id = ObjectId(*id);
            if !db.contains(id) {
                return Err(format!("update of non-live {id:?}"));
            }
            if db.get(id).dims() != object.dims() {
                return Err(format!("update dimensionality mismatch for {id:?}"));
            }
            db.replace(id, (**object).clone());
            Ok(())
        }
    }
}

/// What recovery reconstructed from a durable directory.
pub(crate) struct RecoveredState {
    pub(crate) db: Database,
    pub(crate) mutations: u64,
    /// Highest sequence number seen anywhere in the directory — the
    /// next checkpoint must go above it.
    pub(crate) max_seq: u64,
    pub(crate) report: RecoveryReport,
}

/// Recovers the latest consistent state from `dir` (created if
/// missing): newest loadable checkpoint + ordered WAL tail replay, with
/// the degradation rules documented in the module header.
pub(crate) fn recover(dir: &Path) -> Result<RecoveredState, DurableError> {
    std::fs::create_dir_all(dir)?;
    let listing = list_dir(dir)?;
    let max_seq = listing
        .checkpoints
        .iter()
        .chain(listing.segments.iter())
        .copied()
        .max()
        .unwrap_or(0);

    let mut report = RecoveryReport::default();

    // newest loadable checkpoint wins
    let mut basis: Option<CheckpointData> = None;
    for &seq in listing.checkpoints.iter().rev() {
        match load_checkpoint(&checkpoint_path(dir, seq)) {
            Ok(data) => {
                if data.seq != seq {
                    report.warnings.push(format!(
                        "checkpoint-{seq:06}.ckpt skipped: embedded seq {} disagrees with name",
                        data.seq
                    ));
                    report.fallback += 1;
                    continue;
                }
                basis = Some(data);
                break;
            }
            Err(reason) => {
                report
                    .warnings
                    .push(format!("checkpoint-{seq:06}.ckpt skipped: {reason}"));
                report.fallback += 1;
            }
        }
    }
    if basis.is_none() && !listing.checkpoints.is_empty() {
        return Err(DurableError::NoValidCheckpoint {
            warnings: report.warnings,
        });
    }
    let (mut db, mut mutations, basis_seq) = match basis {
        Some(data) => {
            report.checkpoint_seq = Some(data.seq);
            (data.db, data.mutations, data.seq)
        }
        None => (Database::new(), 0, 0),
    };

    // ordered tail replay: segments >= basis
    let replay: Vec<u64> = listing
        .segments
        .iter()
        .copied()
        .filter(|&s| s >= basis_seq)
        .collect();
    'segments: for (i, &seg) in replay.iter().enumerate() {
        let path = wal_path(dir, seg);
        let bytes = std::fs::read(&path)?;
        let outcome = read_wal_bytes(&bytes);
        for rec in &outcome.records {
            if let Err(reason) = apply_record(&mut db, rec) {
                report.warnings.push(format!(
                    "wal-{seg:06}.log: record does not apply ({reason}); replay stopped"
                ));
                break 'segments;
            }
            mutations += 1;
            report.replayed += 1;
        }
        match outcome.defect {
            None => {}
            Some(WalDefect::Torn { offset }) if i == replay.len() - 1 => {
                // the expected crash signature: a half-written final
                // record that was never acknowledged
                report
                    .warnings
                    .push(format!("wal-{seg:06}.log: {}", WalDefect::Torn { offset }));
            }
            Some(defect) => {
                report
                    .warnings
                    .push(format!("wal-{seg:06}.log: {defect}; replay stopped"));
                break 'segments;
            }
        }
    }

    report.applied_mutations = mutations;
    Ok(RecoveredState {
        db,
        mutations,
        max_seq,
        report,
    })
}

/// The WAL position before a mutation call ([`Durability::mark`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalMark {
    seq: u64,
    seg_len: u64,
    unsynced: usize,
    since_checkpoint: u64,
}

/// The engine's durability sidecar: owns the directory, the IO layer
/// and the WAL/checkpoint bookkeeping. Mutation logging and
/// checkpointing route through here; the engine applies state changes
/// only after the log accepts them. Dropping it flushes nothing, so
/// dropping a durable engine is a crash; shutdown flushing is the
/// caller's explicit `wal_sync`/`checkpoint`.
pub(crate) struct Durability {
    dir: PathBuf,
    io: Box<dyn DurableIo>,
    /// Basis sequence: records append to `wal-{seq}.log`, the next
    /// checkpoint is `seq + 1`.
    seq: u64,
    /// Bytes in the current segment (a running count of the appends,
    /// so marking a mutation's start costs no `stat`).
    seg_len: u64,
    /// Records appended since the last fsync of the current segment.
    unsynced: usize,
    /// Records logged since the last checkpoint.
    since_checkpoint: u64,
    /// Fsync the segment every this many records (`0`: only at
    /// checkpoints and explicit [`Durability::sync`] calls).
    sync_every: usize,
    /// Set when a refused mutation's records could not be cut from the
    /// WAL again: every later append is refused, so nothing is logged
    /// after records that recovery would replay, until a reopen.
    wedged: bool,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("dir", &self.dir)
            .field("seq", &self.seq)
            .field("seg_len", &self.seg_len)
            .field("unsynced", &self.unsynced)
            .field("since_checkpoint", &self.since_checkpoint)
            .field("sync_every", &self.sync_every)
            .finish_non_exhaustive()
    }
}

impl Durability {
    /// A sidecar appending to `wal-{seq}.log`. The caller checkpoints
    /// before the first append, which rotates to a fresh, empty segment
    /// (the running byte count starts at 0).
    pub(crate) fn new(dir: PathBuf, io: Box<dyn DurableIo>, seq: u64, sync_every: usize) -> Self {
        Durability {
            dir,
            io,
            seq,
            seg_len: 0,
            unsynced: 0,
            since_checkpoint: 0,
            sync_every,
            wedged: false,
        }
    }

    pub(crate) fn since_checkpoint(&self) -> u64 {
        self.since_checkpoint
    }

    /// Appends one record and fsyncs per `sync_every`: [`Durability::append`]
    /// then [`Durability::sync_due`]. On failure the record is rolled
    /// back ([`Durability::roll_back`]).
    pub(crate) fn log(&mut self, record: &WalRecord) -> Result<(), DurableError> {
        let mark = self.mark();
        let logged = self.append(record).and_then(|()| self.sync_due());
        if logged.is_err() {
            self.roll_back(mark);
        }
        logged
    }

    /// Appends one record to the current segment, honouring the
    /// mid-record and before-sync crash gates. The record is not forced
    /// to stable storage: a run of appends ends with one
    /// [`Durability::sync_due`].
    pub(crate) fn append(&mut self, record: &WalRecord) -> Result<(), DurableError> {
        if self.wedged {
            return Err(DurableError::Io(io::Error::other(
                "an earlier refused mutation could not be rolled back; reopen the engine",
            )));
        }
        let frame = record.encode();
        let path = wal_path(&self.dir, self.seq);
        let mid = frame.len() / 2;
        self.io.append(&path, &frame[..mid])?;
        self.seg_len += mid as u64;
        self.io.gate(CrashPoint::WalMidRecord)?;
        self.io.append(&path, &frame[mid..])?;
        self.seg_len += (frame.len() - mid) as u64;
        self.unsynced += 1;
        self.since_checkpoint += 1;
        self.io.gate(CrashPoint::WalBeforeSync)?;
        Ok(())
    }

    /// Where the WAL stands before a mutation call, for
    /// [`Durability::roll_back`].
    pub(crate) fn mark(&self) -> WalMark {
        WalMark {
            seq: self.seq,
            seg_len: self.seg_len,
            unsynced: self.unsynced,
            since_checkpoint: self.since_checkpoint,
        }
    }

    /// Takes a refused mutation call's records out of the WAL: cuts the
    /// segment back to `mark` (and fsyncs it), so recovery never replays
    /// what the caller was told failed. A failed cut wedges the WAL:
    /// every later append is refused.
    pub(crate) fn roll_back(&mut self, mark: WalMark) {
        debug_assert_eq!(mark.seq, self.seq, "no checkpoint inside a mutation call");
        match self
            .io
            .truncate(&wal_path(&self.dir, mark.seq), mark.seg_len)
        {
            Ok(()) => {
                self.seg_len = mark.seg_len;
                self.unsynced = mark.unsynced;
                self.since_checkpoint = mark.since_checkpoint;
            }
            Err(_) => self.wedged = true,
        }
    }

    /// Fsyncs the segment once when at least `sync_every` records are
    /// unsynced, then crosses the after-sync crash gate.
    pub(crate) fn sync_due(&mut self) -> Result<(), DurableError> {
        if self.sync_every > 0 && self.unsynced >= self.sync_every {
            self.sync()?;
            self.io.gate(CrashPoint::WalAfterSync)?;
        }
        Ok(())
    }

    /// Forces every appended record to stable storage.
    pub(crate) fn sync(&mut self) -> Result<(), DurableError> {
        if self.unsynced > 0 {
            self.io.sync(&wal_path(&self.dir, self.seq))?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Takes checkpoint `seq + 1` of `db` (see the module header for
    /// the write/rename/rotate/prune protocol and its crash gates).
    pub(crate) fn checkpoint(&mut self, db: &Database, mutations: u64) -> Result<(), DurableError> {
        // 1. complete the fallback chain: the retained old segment must
        //    hold everything this snapshot includes
        self.sync()?;

        let new_seq = self.seq + 1;
        let bytes = encode_checkpoint(new_seq, mutations, db, MAX_FRAME);

        // 2. temp write + fsync
        let final_path = checkpoint_path(&self.dir, new_seq);
        let tmp_path = final_path.with_extension("ckpt.tmp");
        let mid = bytes.len() / 2;
        self.io.write_new(&tmp_path, &bytes[..mid])?;
        self.io.gate(CrashPoint::CheckpointMidWrite)?;
        self.io.append(&tmp_path, &bytes[mid..])?;
        self.io.sync(&tmp_path)?;
        self.io.gate(CrashPoint::CheckpointBeforeRename)?;

        // 3. atomic commit: from here on recovery may load the new
        //    checkpoint, so records must go to the new segment
        self.io.rename(&tmp_path, &final_path)?;

        // 4. rotate before the directory fsync, so a failed fsync leaves
        //    no record in a segment the new checkpoint's recovery skips
        //    (were the rename lost, the old basis replays both segments)
        let prev_seq = self.seq;
        self.seq = new_seq;
        self.seg_len = 0;
        self.unsynced = 0;
        self.since_checkpoint = 0;
        self.io.sync_dir(&self.dir)?;
        self.io.gate(CrashPoint::CheckpointAfterRename)?;
        self.io.gate(CrashPoint::CheckpointBeforePrune)?;

        // 5. prune: keep this checkpoint, the previous one, and every
        //    segment the previous one may need
        let listing = list_dir(&self.dir)?;
        for seq in listing.checkpoints {
            if seq != new_seq && seq != prev_seq {
                self.io.remove_file(&checkpoint_path(&self.dir, seq))?;
            }
        }
        for seq in listing.segments {
            if seq < prev_seq {
                self.io.remove_file(&wal_path(&self.dir, seq))?;
            }
        }
        Ok(())
    }
}

/// Rebuilds the R-tree over a (possibly compacted) database — the
/// checkpoint-time structural reset shared by durable and in-memory
/// engines.
pub(crate) fn rebuild_tree(db: &Database) -> RTree<ObjectId> {
    RTree::bulk_load(db.mbrs().map(|(id, r)| (r.clone(), id)).collect(), 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_file_names_round_trip() {
        assert_eq!(
            parse_seq("checkpoint-000017.ckpt", "checkpoint-", ".ckpt"),
            Some(17)
        );
        assert_eq!(parse_seq("wal-000003.log", "wal-", ".log"), Some(3));
        assert_eq!(
            parse_seq("checkpoint-000017.ckpt.tmp", "checkpoint-", ".ckpt"),
            None
        );
        assert_eq!(parse_seq("wal-.log", "wal-", ".log"), None);
        assert_eq!(parse_seq("wal-12x4.log", "wal-", ".log"), None);
        assert_eq!(parse_seq("other.txt", "wal-", ".log"), None);
    }

    /// A database with a tombstone, a compacted base and edge values.
    fn fixed_db() -> Database {
        use udb_geometry::{Point, Rect};
        use udb_object::UncertainObject;
        let mut db = Database::from_objects(vec![
            UncertainObject::certain(Point::from([0.5, 0.5])),
            UncertainObject::certain(Point::from([0.25, -0.0])),
            UncertainObject::with_existence(
                udb_pdf::Pdf::uniform(Rect::centered(&Point::from([1.0, 2.0]), &[0.1, 0.3])),
                0.375,
            ),
            UncertainObject::certain(Point::from([3.0, 1e-300])),
        ]);
        db.remove(ObjectId(0));
        db.compact();
        db.remove(ObjectId(2));
        db
    }

    fn assert_same_db(a: &Database, b: &Database) {
        // float Debug output round-trips, so equal text is equal bits
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn checkpoint_round_trips_bit_for_bit() {
        let db = fixed_db();
        assert_eq!(db.base_id(), 1);
        let data = decode_checkpoint(&encode_checkpoint(7, 41, &db, MAX_FRAME)).unwrap();
        assert_eq!((data.seq, data.mutations), (7, 41));
        assert_same_db(&data.db, &db);
        assert_eq!(data.db.base_id(), 1);
        assert_eq!(data.db.len(), 2);
        assert_eq!(data.db.dims(), Some(2));
        let point = data.db.get(ObjectId(1)).mbr().lo();
        assert_eq!(point[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn split_payload_loads_from_every_frame_size() {
        let db = fixed_db();
        let whole = encode_checkpoint(3, 9, &db, MAX_FRAME);
        let payload_len = whole.len() - CHECKPOINT_MAGIC.len() - 8;
        for chunk in [1, 7, 64, payload_len - 1, payload_len] {
            let bytes = encode_checkpoint(3, 9, &db, chunk);
            let (frames, defect) = decode_frames(&bytes[CHECKPOINT_MAGIC.len()..]);
            assert!(defect.is_none());
            assert_eq!(frames.len(), payload_len.div_ceil(chunk), "chunk {chunk}");
            assert!(frames.iter().all(|f| f.len() <= chunk));
            let data = decode_checkpoint(&bytes).unwrap();
            assert_same_db(&data.db, &db);
        }
        // every frame must validate: a flipped byte in a middle frame,
        // or a file cut at a frame boundary, refuses the checkpoint
        let bytes = encode_checkpoint(3, 9, &db, 16);
        let mut flipped = bytes.clone();
        flipped[CHECKPOINT_MAGIC.len() + 2 * 24 + 8 + 3] ^= 0x10;
        assert!(decode_checkpoint(&flipped).is_err());
        assert!(decode_checkpoint(&bytes[..CHECKPOINT_MAGIC.len() + 3 * 24]).is_err());
    }

    #[test]
    fn every_truncated_payload_is_refused() {
        let mut payload = Vec::new();
        codec::put_u64(&mut payload, 5);
        codec::put_u64(&mut payload, 8);
        fixed_db().encode(&mut payload);
        assert!(decode_payload(&payload).is_ok());
        for cut in 0..payload.len() {
            assert!(decode_payload(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = payload.clone();
        longer.push(0);
        assert!(decode_payload(&longer).is_err(), "trailing byte");
    }

    #[test]
    fn flipped_payload_bytes_are_refused_or_read_exactly() {
        // the CRC is recomputed over each mutant, so the decoder itself
        // sees every flip. A flip inside a float can make another valid
        // database; then the mutant must be exactly that database's
        // encoding. Any other flip (a tag, a count, an invalid value)
        // must be an `Err`, and none may panic.
        let db = fixed_db();
        let bytes = encode_checkpoint(5, 8, &db, MAX_FRAME);
        let payload = &bytes[CHECKPOINT_MAGIC.len() + 8..];
        let (mut refused, mut read) = (0, 0);
        for i in 0..payload.len() {
            for bit in [0x01, 0x10, 0x80] {
                let mut mutant = payload.to_vec();
                mutant[i] ^= bit;
                let mut file = CHECKPOINT_MAGIC.to_vec();
                file.extend_from_slice(&encode_frame(&mutant));
                match decode_checkpoint(&file) {
                    Ok(data) => {
                        let again =
                            encode_checkpoint(data.seq, data.mutations, &data.db, MAX_FRAME);
                        assert_eq!(again, file, "byte {i} bit {bit:#x} misread");
                        read += 1;
                    }
                    Err(_) => refused += 1,
                }
            }
        }
        assert!(refused > 0 && read > 0, "refused {refused}, read {read}");
    }

    #[test]
    fn retired_json_checkpoint_is_named_in_the_refusal() {
        let mut bytes = RETIRED_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_frame(b"{\"seq\":1,\"mutations\":0}"));
        let reason = decode_checkpoint(&bytes).unwrap_err();
        assert!(reason.contains("UDBCKPT1"), "{reason}");
        assert!(decode_checkpoint(b"UDB").is_err());
        assert!(decode_checkpoint(CHECKPOINT_MAGIC).is_err(), "no frames");
    }

    #[test]
    fn recover_empty_dir_is_fresh() {
        let dir = std::env::temp_dir().join(format!("udb-rec-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = recover(&dir).unwrap();
        assert!(state.db.is_empty());
        assert_eq!(state.mutations, 0);
        assert_eq!(state.max_seq, 0);
        assert_eq!(state.report.checkpoint_seq, None);
        assert!(state.report.warnings.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
