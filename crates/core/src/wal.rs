//! The append-only mutation log: record framing, checksums, crash-point
//! fault injection and the IO abstraction the durability layer writes
//! through.
//!
//! ## Frame format
//!
//! Every WAL record is one *frame*, and a checkpoint body is a run of
//! them:
//!
//! ```text
//! [ len: u32 LE ][ crc: u32 LE ][ payload: len bytes ]
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the payload bytes and `len` is at most
//! [`MAX_FRAME`]. A WAL record's payload is the compat-serde JSON
//! encoding of a [`WalRecord`] (externally tagged, the same wire format
//! `tests/serialization.rs` proves round-trips). A checkpoint's
//! payloads, joined, hold the binary snapshot described in
//! [`crate::durable`]. A reader trusts a log *up to the first invalid frame*: a frame whose
//! header or payload extends past the end of the file is **torn** (the
//! tail of a crashed write — dropped with a warning), one whose checksum
//! or JSON fails to decode is **corrupt** (surfaced, never silently
//! skipped; replay stops there so no record can apply to a state it was
//! not logged against).
//!
//! ## Fault injection
//!
//! All durable writes go through the [`DurableIo`] trait and pass named
//! [`CrashPoint`] gates. The production [`FileIo`] honours the
//! `UDB_CRASH_POINT=<name>[:n]` environment shim — the process aborts
//! (`std::process::abort`, no destructors, exactly like a crash) at the
//! `n`-th crossing of that gate — which is how
//! `examples/durable_serving.rs` and the CI fault-injection job kill
//! real child processes at every site. [`FaultIo`] simulates the same
//! crashes in-process for deterministic tests: in
//! [`FaultMode::WriteThrough`] every appended byte reaches the file (a
//! crash tears the current write mid-record), in
//! [`FaultMode::WriteBack`] appended bytes live in a page-cache stand-in
//! until `sync` (a crash loses every unsynced record).

use serde::{Deserialize, Serialize};
use udb_object::UncertainObject;

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// The slice-by-8 tables of the reflected IEEE polynomial: `T[0][b]` is
/// the CRC of byte `b` alone, and `T[k][b]` that of `b` followed by `k`
/// zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `data`, eight bytes
/// per step through a `const` table.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Frames cannot be larger than this (64 MiB); a length field beyond it
/// is treated as corruption, not as an instruction to allocate.
pub const MAX_FRAME: usize = 64 << 20;

/// Encodes one frame: `[len][crc][payload]`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME, "frame payload too large");
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why frame decoding stopped before the end of the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalDefect {
    /// The final frame extends past the end of the file — the tail of a
    /// write that crashed mid-record. Dropping it is safe: its record
    /// was never acknowledged as durable.
    Torn {
        /// Byte offset of the torn frame's header.
        offset: usize,
    },
    /// A frame whose checksum or payload decoding failed — bytes on
    /// disk changed after they were written. Replay must stop here:
    /// later records were logged against a state that includes this one.
    Corrupt {
        /// Byte offset of the corrupt frame's header.
        offset: usize,
        /// What failed.
        reason: String,
    },
}

impl std::fmt::Display for WalDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalDefect::Torn { offset } => {
                write!(f, "torn final record at byte {offset} dropped")
            }
            WalDefect::Corrupt { offset, reason } => {
                write!(f, "corrupt record at byte {offset}: {reason}")
            }
        }
    }
}

/// Decodes every complete, valid frame in `bytes`, stopping at the
/// first defect (see [`WalDefect`] for the torn/corrupt distinction).
pub fn decode_frames(bytes: &[u8]) -> (Vec<&[u8]>, Option<WalDefect>) {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < 8 {
            return (frames, Some(WalDefect::Torn { offset: off }));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return (
                frames,
                Some(WalDefect::Corrupt {
                    offset: off,
                    reason: format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
                }),
            );
        }
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if rest.len() - 8 < len {
            return (frames, Some(WalDefect::Torn { offset: off }));
        }
        let payload = &rest[8..8 + len];
        let actual = crc32(payload);
        if actual != crc {
            return (
                frames,
                Some(WalDefect::Corrupt {
                    offset: off,
                    reason: format!(
                        "checksum mismatch (stored {crc:#010x}, actual {actual:#010x})"
                    ),
                }),
            );
        }
        frames.push(payload);
        off += 8 + len;
    }
    (frames, None)
}

/// One logged mutation, in the order the engine applied it. The wire
/// format is the compat-serde externally-tagged JSON encoding — the
/// same data model that serializes [`udb_object::Database`] — so a log
/// is readable by anything that can read a stored database.
///
/// Object payloads are boxed: a record is a transient envelope and the
/// two object-free variants should not pay an inline [`UncertainObject`]
/// footprint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalRecord {
    /// [`crate::Engine::insert`]: the appended object. Replay re-derives
    /// the assigned id — id assignment is deterministic (next fresh id),
    /// so replaying the sequence reproduces the exact ids.
    Insert {
        /// The inserted object.
        object: Box<UncertainObject>,
    },
    /// [`crate::Engine::remove`]: the tombstoned id.
    Remove {
        /// The removed object's id (`ObjectId.0`).
        id: u32,
    },
    /// [`crate::Engine::update`]: the replaced id and its new object.
    Update {
        /// The replaced object's id (`ObjectId.0`).
        id: u32,
        /// The new object behind the id.
        object: Box<UncertainObject>,
    },
}

impl WalRecord {
    /// Encodes the record as one frame (JSON payload).
    pub fn encode(&self) -> Vec<u8> {
        let json = serde_json::to_string(self).expect("WAL records contain only finite floats");
        encode_frame(json.as_bytes())
    }

    /// Decodes a record from a frame payload.
    ///
    /// # Errors
    /// Fails when the payload is not valid UTF-8 JSON for a record.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("not a WAL record: {e}"))
    }
}

/// The result of reading one WAL segment: the decoded records up to the
/// first defect, plus the defect itself (if any).
#[derive(Debug)]
pub struct WalReadOutcome {
    /// Every record before the first defect, in log order.
    pub records: Vec<WalRecord>,
    /// The defect that stopped decoding, if the segment was not clean.
    pub defect: Option<WalDefect>,
}

/// Decodes a WAL segment's bytes into records (see [`WalReadOutcome`]).
/// A frame whose payload is valid per checksum but does not decode as a
/// record is reported as corrupt at that frame's offset.
pub fn read_wal_bytes(bytes: &[u8]) -> WalReadOutcome {
    let (frames, mut defect) = decode_frames(bytes);
    let mut records = Vec::with_capacity(frames.len());
    let mut off = 0usize;
    for payload in frames {
        match WalRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(reason) => {
                defect = Some(WalDefect::Corrupt {
                    offset: off,
                    reason,
                });
                break;
            }
        }
        off += 8 + payload.len();
    }
    WalReadOutcome { records, defect }
}

// ---------------------------------------------------------------------------
// Crash points
// ---------------------------------------------------------------------------

/// Every stage a durable write can die at. The durability layer crosses
/// the matching [`DurableIo::gate`] at each stage, so a crash — real
/// (`UDB_CRASH_POINT` + [`FileIo`]) or simulated ([`FaultIo`]) — can be
/// injected at any of them. `tests/crash_recovery.rs` and the CI
/// fault-injection job sweep all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Half of a WAL record's frame has been appended.
    WalMidRecord,
    /// A full record is appended but not yet fsynced.
    WalBeforeSync,
    /// The record is appended and fsynced.
    WalAfterSync,
    /// Half of the checkpoint temp file has been written.
    CheckpointMidWrite,
    /// The checkpoint temp file is complete and fsynced, but not yet
    /// renamed into place.
    CheckpointBeforeRename,
    /// The checkpoint is renamed into place, the WAL rotated and the
    /// directory synced, but the old checkpoint/WAL files are not yet
    /// pruned.
    CheckpointAfterRename,
    /// Alias stage just before pruning begins (after the post-rename
    /// WAL rotation bookkeeping).
    CheckpointBeforePrune,
}

impl CrashPoint {
    /// Every registered crash point, in pipeline order.
    pub const ALL: [CrashPoint; 7] = [
        CrashPoint::WalMidRecord,
        CrashPoint::WalBeforeSync,
        CrashPoint::WalAfterSync,
        CrashPoint::CheckpointMidWrite,
        CrashPoint::CheckpointBeforeRename,
        CrashPoint::CheckpointAfterRename,
        CrashPoint::CheckpointBeforePrune,
    ];

    /// The kebab-case name used by `UDB_CRASH_POINT`.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::WalMidRecord => "wal-mid-record",
            CrashPoint::WalBeforeSync => "wal-before-sync",
            CrashPoint::WalAfterSync => "wal-after-sync",
            CrashPoint::CheckpointMidWrite => "checkpoint-mid-write",
            CrashPoint::CheckpointBeforeRename => "checkpoint-before-rename",
            CrashPoint::CheckpointAfterRename => "checkpoint-after-rename",
            CrashPoint::CheckpointBeforePrune => "checkpoint-before-prune",
        }
    }

    /// Parses a kebab-case crash-point name.
    pub fn from_name(name: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Parses `UDB_CRASH_POINT` syntax: `<name>` or `<name>:<n>` (crash at
/// the `n`-th crossing, 1-based; bare names mean the first).
pub fn parse_crash_spec(spec: &str) -> Option<(CrashPoint, u32)> {
    let (name, n) = match spec.split_once(':') {
        Some((name, n)) => (name, n.parse::<u32>().ok().filter(|&n| n >= 1)?),
        None => (spec, 1),
    };
    CrashPoint::from_name(name).map(|p| (p, n))
}

// ---------------------------------------------------------------------------
// IO abstraction
// ---------------------------------------------------------------------------

/// The filesystem operations the durability layer performs, with a
/// crash gate at every registered [`CrashPoint`]. Production uses
/// [`FileIo`]; tests inject [`FaultIo`] to simulate crashes
/// deterministically in-process.
pub trait DurableIo: Send {
    /// Appends bytes to `path`, creating it if missing.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Forces `path`'s appended bytes to stable storage.
    fn sync(&mut self, path: &Path) -> io::Result<()>;
    /// Cuts `path` back to its first `len` bytes and forces that to
    /// stable storage: takes a refused mutation's records out of the WAL.
    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()>;
    /// Creates (or truncates) `path` with `bytes`.
    fn write_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Deletes `path` (missing files are not an error).
    fn remove_file(&mut self, path: &Path) -> io::Result<()>;
    /// Forces directory metadata (renames, removals) to stable storage.
    fn sync_dir(&mut self, dir: &Path) -> io::Result<()>;
    /// Crosses a crash point: returns `Ok(())` to continue, aborts the
    /// process ([`FileIo`] under `UDB_CRASH_POINT`) or returns an error
    /// ([`FaultIo`] with an armed crash) to die here.
    fn gate(&mut self, point: CrashPoint) -> io::Result<()>;
}

/// The production [`DurableIo`]: real files, plus the
/// `UDB_CRASH_POINT=<name>[:n]` abort gate (parsed once at
/// construction, so spawned child processes — the fault-injection
/// example — each honour their own environment).
pub struct FileIo {
    crash: Option<(CrashPoint, u32)>,
    /// The currently open append handle (one segment is hot at a time).
    open: Option<(PathBuf, File)>,
}

impl Default for FileIo {
    fn default() -> Self {
        FileIo::new()
    }
}

impl FileIo {
    /// A file IO layer honouring the current `UDB_CRASH_POINT`.
    pub fn new() -> Self {
        let crash = std::env::var("UDB_CRASH_POINT")
            .ok()
            .and_then(|spec| parse_crash_spec(&spec));
        FileIo { crash, open: None }
    }

    fn handle(&mut self, path: &Path) -> io::Result<&mut File> {
        let stale = match &self.open {
            Some((p, _)) => p != path,
            None => true,
        };
        if stale {
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            self.open = Some((path.to_path_buf(), file));
        }
        Ok(&mut self.open.as_mut().expect("just opened").1)
    }

    fn forget(&mut self, path: &Path) {
        if self.open.as_ref().is_some_and(|(p, _)| p == path) {
            self.open = None;
        }
    }
}

impl DurableIo for FileIo {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.handle(path)?.write_all(bytes)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.handle(path)?.sync_all()
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        let file = self.handle(path)?;
        file.set_len(len)?;
        file.sync_all()
    }

    fn write_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.forget(path);
        let mut file = File::create(path)?;
        file.write_all(bytes)?;
        self.open = Some((path.to_path_buf(), file));
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.forget(from);
        self.forget(to);
        std::fs::rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.forget(path);
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn gate(&mut self, point: CrashPoint) -> io::Result<()> {
        if let Some((p, n)) = &mut self.crash {
            if *p == point {
                if *n <= 1 {
                    eprintln!("udb: UDB_CRASH_POINT: aborting at `{}`", point.name());
                    std::process::abort();
                }
                *n -= 1;
            }
        }
        Ok(())
    }
}

/// What [`FaultIo`] pretends the OS does with appended bytes before a
/// crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Every appended byte reaches the file immediately; `sync` is a
    /// no-op. A crash mid-append leaves a **torn** half-record.
    WriteThrough,
    /// Appended bytes sit in a page-cache stand-in until `sync` flushes
    /// them. A crash **loses every unsynced byte** — the other half of
    /// the real-world outcome space.
    WriteBack,
}

/// Deterministic in-process crash simulation: writes to real files in a
/// test directory, but an armed [`CrashPoint`] makes the gate fail and
/// every later operation return an error — the files are then exactly
/// what a process killed at that point would have left behind (modulo
/// [`FaultMode`]). Recovery is tested by reopening the directory with a
/// fresh engine.
pub struct FaultIo {
    mode: FaultMode,
    armed: Option<(CrashPoint, u32)>,
    crashed: bool,
    /// Unsynced bytes per path ([`FaultMode::WriteBack`] only).
    pending: HashMap<PathBuf, Vec<u8>>,
}

impl FaultIo {
    /// A fault IO layer with no armed crash.
    pub fn new(mode: FaultMode) -> Self {
        FaultIo {
            mode,
            armed: None,
            crashed: false,
            pending: HashMap::new(),
        }
    }

    /// Arms a crash at the `nth` crossing (1-based) of `point`.
    pub fn armed(mode: FaultMode, point: CrashPoint, nth: u32) -> Self {
        assert!(nth >= 1, "crossings are 1-based");
        FaultIo {
            mode,
            armed: Some((point, nth)),
            crashed: false,
            pending: HashMap::new(),
        }
    }

    /// Whether the armed crash has fired.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    fn check(&self) -> io::Result<()> {
        if self.crashed {
            Err(io::Error::other("simulated crash: process is dead"))
        } else {
            Ok(())
        }
    }

    fn fs_append(path: &Path, bytes: &[u8]) -> io::Result<()> {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?
            .write_all(bytes)
    }
}

impl DurableIo for FaultIo {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check()?;
        match self.mode {
            FaultMode::WriteThrough => FaultIo::fs_append(path, bytes),
            FaultMode::WriteBack => {
                self.pending
                    .entry(path.to_path_buf())
                    .or_default()
                    .extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.check()?;
        if let Some(bytes) = self.pending.remove(path) {
            FaultIo::fs_append(path, &bytes)?;
        }
        Ok(())
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.check()?;
        // the file as written is its bytes on disk, then its unsynced ones
        let on_disk = match std::fs::metadata(path) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        if let Some(pending) = self.pending.get_mut(path) {
            pending.truncate(len.saturating_sub(on_disk) as usize);
        }
        if len < on_disk {
            OpenOptions::new().write(true).open(path)?.set_len(len)?;
        }
        self.sync(path)
    }

    fn write_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check()?;
        match self.mode {
            FaultMode::WriteThrough => std::fs::write(path, bytes),
            FaultMode::WriteBack => {
                // metadata (the file's existence) reaches disk; content
                // stays pending until the sync
                std::fs::write(path, [])?;
                self.pending.insert(path.to_path_buf(), bytes.to_vec());
                Ok(())
            }
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.check()?;
        if let Some(bytes) = self.pending.remove(from) {
            self.pending.insert(to.to_path_buf(), bytes);
        }
        std::fs::rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.check()?;
        self.pending.remove(path);
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn sync_dir(&mut self, _dir: &Path) -> io::Result<()> {
        self.check()
    }

    fn gate(&mut self, point: CrashPoint) -> io::Result<()> {
        self.check()?;
        if let Some((p, n)) = &mut self.armed {
            if *p == point {
                if *n <= 1 {
                    self.crashed = true;
                    // unsynced page-cache contents die with the machine
                    self.pending.clear();
                    return Err(io::Error::other(format!(
                        "simulated crash at `{}`",
                        point.name()
                    )));
                }
                *n -= 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udb_geometry::Point;

    /// The bit-at-a-time CRC-32 that [`crc32`] replaced.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // the canonical IEEE check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_body() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let bytes: Vec<u8> = (0..4096).map(|_| rng.gen_range(0..=255u8)).collect();
        // every length across the eight-byte stride and its remainder,
        // at every alignment of the start
        for len in 0..=64 {
            for start in 0..8 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "len {len} start {start}");
            }
        }
        for _ in 0..32 {
            let len = rng.gen_range(0..4000usize);
            let start = rng.gen_range(0..=4096 - len);
            let data = &bytes[start..start + len];
            assert_eq!(crc32(data), crc32_bitwise(data), "len {len}");
        }
        assert_eq!(crc32(&[0xFF; 64]), crc32_bitwise(&[0xFF; 64]));
    }

    #[test]
    fn frame_round_trip() {
        let payload = b"hello frame";
        let bytes = encode_frame(payload);
        let (frames, defect) = decode_frames(&bytes);
        assert!(defect.is_none());
        assert_eq!(frames, vec![&payload[..]]);
    }

    #[test]
    fn torn_tail_detected_at_every_cut() {
        let mut bytes = encode_frame(b"first");
        bytes.extend_from_slice(&encode_frame(b"second record"));
        let whole = decode_frames(&bytes);
        assert_eq!(whole.0.len(), 2);
        assert!(whole.1.is_none());
        let first_len = 8 + b"first".len();
        for cut in 1..bytes.len() {
            let (frames, defect) = decode_frames(&bytes[..cut]);
            if cut < first_len {
                assert!(frames.is_empty(), "cut={cut}");
                assert_eq!(defect, Some(WalDefect::Torn { offset: 0 }), "cut={cut}");
            } else if cut == first_len {
                // exactly one whole frame: a clean (shorter) log, not torn
                assert_eq!(frames.len(), 1, "cut={cut}");
                assert!(defect.is_none(), "cut={cut}");
            } else if cut < bytes.len() {
                assert_eq!(frames.len(), 1, "cut={cut}");
                assert_eq!(
                    defect,
                    Some(WalDefect::Torn { offset: first_len }),
                    "cut={cut}"
                );
            }
        }
    }

    #[test]
    fn corrupt_byte_detected_everywhere_after_header_len() {
        let payload = b"some record payload";
        let clean = encode_frame(payload);
        // flipping any byte of crc or payload must yield Corrupt; a
        // flipped length byte yields Corrupt (cap) or Torn (short read)
        for i in 4..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x40;
            let (frames, defect) = decode_frames(&bytes);
            assert!(frames.is_empty(), "byte {i}");
            assert!(
                matches!(defect, Some(WalDefect::Corrupt { .. })),
                "byte {i}: {defect:?}"
            );
        }
    }

    #[test]
    fn absurd_length_is_corruption_not_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let (frames, defect) = decode_frames(&bytes);
        assert!(frames.is_empty());
        assert!(matches!(defect, Some(WalDefect::Corrupt { .. })));
    }

    #[test]
    fn record_round_trip() {
        let obj = UncertainObject::certain(Point::from([1.5, -2.0]));
        for rec in [
            WalRecord::Insert {
                object: Box::new(obj.clone()),
            },
            WalRecord::Remove { id: 42 },
            WalRecord::Update {
                id: 7,
                object: Box::new(obj),
            },
        ] {
            let bytes = rec.encode();
            let out = read_wal_bytes(&bytes);
            assert!(out.defect.is_none());
            assert_eq!(out.records.len(), 1);
            match (&rec, &out.records[0]) {
                (WalRecord::Insert { object: a }, WalRecord::Insert { object: b }) => {
                    assert_eq!(a.mbr(), b.mbr());
                }
                (WalRecord::Remove { id: a }, WalRecord::Remove { id: b }) => assert_eq!(a, b),
                (
                    WalRecord::Update { id: a, object: ao },
                    WalRecord::Update { id: b, object: bo },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(ao.mbr(), bo.mbr());
                }
                other => panic!("variant changed in round trip: {other:?}"),
            }
        }
    }

    #[test]
    fn valid_frame_with_non_record_payload_is_corrupt() {
        let bytes = encode_frame(b"{\"NotARecord\":{}}");
        let out = read_wal_bytes(&bytes);
        assert!(out.records.is_empty());
        assert!(matches!(out.defect, Some(WalDefect::Corrupt { .. })));
    }

    #[test]
    fn crash_point_names_round_trip() {
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::from_name(p.name()), Some(p));
        }
        assert_eq!(CrashPoint::from_name("nonsense"), None);
        assert_eq!(
            parse_crash_spec("wal-mid-record"),
            Some((CrashPoint::WalMidRecord, 1))
        );
        assert_eq!(
            parse_crash_spec("checkpoint-before-rename:3"),
            Some((CrashPoint::CheckpointBeforeRename, 3))
        );
        assert_eq!(parse_crash_spec("wal-mid-record:0"), None);
        assert_eq!(parse_crash_spec(""), None);
    }

    #[test]
    fn fault_io_write_back_loses_unsynced() {
        let dir = std::env::temp_dir().join(format!("udb-walt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.log");
        let _ = std::fs::remove_file(&path);
        let mut io = FaultIo::armed(FaultMode::WriteBack, CrashPoint::WalBeforeSync, 2);
        io.append(&path, b"one").unwrap();
        io.gate(CrashPoint::WalBeforeSync).unwrap();
        io.sync(&path).unwrap();
        io.append(&path, b"two").unwrap();
        assert!(io.gate(CrashPoint::WalBeforeSync).is_err());
        assert!(io.has_crashed());
        assert!(io.append(&path, b"x").is_err(), "dead after crash");
        // only the synced bytes survived
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
