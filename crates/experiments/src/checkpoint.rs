//! The on-disk checkpoint store and run journal.
//!
//! No campaign writes or reads these. They remain only as the layer the
//! benchmark's traced pass times (its `ckpt.*` metrics) over snapshots of
//! the `smt-pipeline` checkpoint engine, until they are retired with that
//! engine (ROADMAP item 2):
//!
//! * [`CheckpointStore`] — one entry per run, keyed (like the disk cache)
//!   by the FNV-1a hash of the run's canonical description;
//! * [`Journal`] — an append-only, per-line-checksummed log of completed
//!   runs.
//!
//! # Checkpoint entry wire format
//!
//! ```text
//! magic     [u8; 8]  b"DWARNCKP"
//! version   u32      CHECKPOINT_VERSION
//! key       str      canonical run description (embeds CODE_VERSION)
//! snapshot  bytes    MachineSnapshot::to_bytes (length-prefixed)
//! checksum  u64      FNV-1a over every preceding byte
//! ```
//!
//! Every irregularity in a stored entry — torn write, flipped bit, another
//! format revision, a hash collision or code-version skew (both surface as
//! a key mismatch, since the key embeds [`crate::cache::CODE_VERSION`]),
//! or a snapshot the simulator rejects — is a typed [`CheckpointFault`],
//! never a panic or a silently wrong snapshot. Writes use the same
//! crash-safe discipline as the disk cache (unique temp file, fsync,
//! atomic rename; orphaned temp files from dead writers are swept on
//! open).

use std::io::Write as _;
use std::path::{Path, PathBuf};

use smt_obs::Json;
use smt_pipeline::{MachineSnapshot, SnapshotError};
use smt_trace::snapio::{self, fnv1a, SnapReader};

/// Leading magic of every checkpoint entry.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"DWARNCKP";

/// Checkpoint *entry* format version (the envelope around the snapshot;
/// the snapshot has its own version). Bump on any wire-format change.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Checkpoint entry file extension.
const EXT: &str = "snap";

/// Why a checkpoint entry was rejected — typed, so the irregularity is
/// reported instead of vanishing silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointFault {
    /// The entry file exists but could not be read.
    Unreadable(String),
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file ends before the envelope is complete.
    Truncated,
    /// The entry was written by a different envelope format revision.
    VersionSkew { found: u32, supported: u32 },
    /// The body does not match its stored checksum (bit flip, torn write).
    BadChecksum,
    /// The envelope checksummed clean but does not parse.
    Malformed(String),
    /// The entry is internally consistent but records a *different* run
    /// description: a hash collision, or a checkpoint written by another
    /// code/parameter generation (the description embeds
    /// [`crate::cache::CODE_VERSION`] and every simulation parameter).
    StaleGeneration,
    /// The embedded [`MachineSnapshot`] was rejected (its own version
    /// skew, identity mismatch, or state the simulator cannot accept).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for CheckpointFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointFault::Unreadable(e) => write!(f, "unreadable checkpoint: {e}"),
            CheckpointFault::BadMagic => write!(f, "bad magic (not a checkpoint entry)"),
            CheckpointFault::Truncated => write!(f, "truncated checkpoint envelope"),
            CheckpointFault::VersionSkew { found, supported } => write!(
                f,
                "checkpoint format version {found} (this build supports {supported})"
            ),
            CheckpointFault::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointFault::Malformed(m) => write!(f, "malformed checkpoint envelope: {m}"),
            CheckpointFault::StaleGeneration => write!(
                f,
                "checkpoint belongs to a different run or code generation"
            ),
            CheckpointFault::Snapshot(e) => write!(f, "embedded snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for CheckpointFault {}

/// An on-disk store of in-flight run checkpoints, keyed by canonical run
/// descriptions (the same strings that key the disk cache).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`. Temp files left
    /// behind by writers that crashed mid-store are swept.
    pub fn open(dir: &Path) -> std::io::Result<CheckpointStore> {
        std::fs::create_dir_all(dir)?;
        let store = CheckpointStore {
            dir: dir.to_path_buf(),
        };
        crate::cache::sweep_stale_tmp(dir);
        Ok(store)
    }

    /// The file a checkpoint for `key_desc` lives in (the file may not
    /// exist).
    pub fn path_for(&self, key_desc: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{EXT}", fnv1a(key_desc.as_bytes())))
    }

    /// Store a snapshot under its run description: unique temp file, fsync,
    /// atomic rename — a crash at any point leaves either the previous
    /// checkpoint or none, never a torn one.
    pub fn store(&self, key_desc: &str, snap: &MachineSnapshot) -> std::io::Result<()> {
        crate::cache::write_atomic(&self.path_for(key_desc), &render_entry(key_desc, snap))
    }

    /// Load the checkpoint for `key_desc`. `Ok(None)` means no checkpoint
    /// exists; any irregularity in a present entry is a typed
    /// [`CheckpointFault`] (never a panic, never a silently wrong
    /// snapshot).
    pub fn load_checked(&self, key_desc: &str) -> Result<Option<MachineSnapshot>, CheckpointFault> {
        let bytes = match std::fs::read(self.path_for(key_desc)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CheckpointFault::Unreadable(e.to_string())),
        };
        parse_entry(&bytes, key_desc).map(Some)
    }
}

fn render_entry(key_desc: &str, snap: &MachineSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + key_desc.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    snapio::put_u32(&mut out, CHECKPOINT_VERSION);
    snapio::put_str(&mut out, key_desc);
    snapio::put_bytes(&mut out, &snap.to_bytes());
    let sum = fnv1a(&out);
    snapio::put_u64(&mut out, sum);
    out
}

/// Strict decode of one envelope. Version is checked *before* the
/// checksum, so an entry from another format revision says so instead of
/// "corrupt" (mirroring the snapshot format's own ordering).
fn parse_entry(bytes: &[u8], expect_key: &str) -> Result<MachineSnapshot, CheckpointFault> {
    if bytes.len() < CHECKPOINT_MAGIC.len() + 4 {
        return Err(CheckpointFault::Truncated);
    }
    if bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(CheckpointFault::BadMagic);
    }
    let version = bytes
        .get(8..12)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or(CheckpointFault::Truncated)?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointFault::VersionSkew {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    if bytes.len() < 12 + 8 {
        return Err(CheckpointFault::Truncated);
    }
    let (content, tail) = bytes.split_at(bytes.len() - 8);
    let stored = tail
        .try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| CheckpointFault::Truncated)?;
    if stored != fnv1a(content) {
        return Err(CheckpointFault::BadChecksum);
    }
    let mut r = SnapReader::new(&content[12..]);
    let envelope = (|| {
        let key = r.str()?.to_string();
        let snap = r.bytes()?.to_vec();
        r.finish("checkpoint envelope")?;
        Ok::<_, smt_trace::snapio::SnapError>((key, snap))
    })();
    let (key, snap_bytes) = envelope.map_err(|e| CheckpointFault::Malformed(e.to_string()))?;
    if key != expect_key {
        return Err(CheckpointFault::StaleGeneration);
    }
    MachineSnapshot::from_bytes(&snap_bytes).map_err(CheckpointFault::Snapshot)
}

/// Append-only, per-line-checksummed log of completed runs.
///
/// Each line is `<16-hex FNV-1a of payload> <payload JSON>`; a reader
/// drops any line whose checksum fails (a torn tail from a crash mid-write
/// costs that line, never the log).
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Open (appending) the journal at `path`.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal { file })
    }

    fn note(&mut self, payload: &Json) -> std::io::Result<()> {
        let payload = payload.render();
        writeln!(self.file, "{:016x} {payload}", fnv1a(payload.as_bytes()))?;
        // Flush eagerly: the journal exists precisely for crashes.
        self.file.sync_data()
    }

    /// Record a completed run: `source` says where its result came from
    /// (`"sim"` for a fresh simulation).
    pub fn note_completed(&mut self, what: &str, digest: u64, source: &str) -> std::io::Result<()> {
        self.note(&Json::obj(vec![
            ("event", Json::str("completed")),
            ("what", Json::str(what.to_string())),
            ("digest", Json::str(format!("{digest:#018x}"))),
            ("source", Json::str(source.to_string())),
        ]))
    }

    /// Read back every checksummed-clean payload line of a journal file.
    /// Lines failing their checksum (torn tail, corruption) are dropped,
    /// not errors; a missing file reads as empty.
    pub fn read_verified(path: &Path) -> std::io::Result<Vec<String>> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        Ok(text
            .lines()
            .filter_map(|line| {
                let (crc, payload) = line.split_once(' ')?;
                let stored = u64::from_str_radix(crc, 16).ok()?;
                (stored == fnv1a(payload.as_bytes())).then(|| payload.to_string())
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwarn_core::PolicyKind;
    use smt_pipeline::{SimConfig, Simulator};
    use smt_workloads::{workload, WorkloadClass};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dwarn-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot() -> MachineSnapshot {
        let specs = workload(2, WorkloadClass::Mix).thread_specs();
        let mut sim = Simulator::new(SimConfig::baseline(), PolicyKind::DWarn.build(), &specs);
        sim.run(0, 500);
        sim.snapshot()
    }

    #[test]
    fn store_load_round_trip_is_exact() {
        let s = CheckpointStore::open(&temp_dir("roundtrip")).unwrap();
        let snap = sample_snapshot();
        assert!(s.load_checked("k").unwrap().is_none());
        s.store("k", &snap).unwrap();
        let back = s.load_checked("k").unwrap().unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.digest(), snap.digest());
    }

    #[test]
    fn corruption_modes_are_typed() {
        let s = CheckpointStore::open(&temp_dir("faults")).unwrap();
        let snap = sample_snapshot();
        s.store("k", &snap).unwrap();
        let path = s.path_for("k");
        let clean = std::fs::read(&path).unwrap();

        // Truncations: envelope-header cuts are Truncated, deeper cuts fail
        // the checksum. Either way: typed, never a panic.
        for cut in [0, 5, 11, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let fault = s.load_checked("k").unwrap_err();
            assert!(
                matches!(
                    fault,
                    CheckpointFault::Truncated | CheckpointFault::BadChecksum
                ),
                "cut {cut}: {fault}"
            );
        }

        // A single flipped payload bit fails the checksum.
        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(
            s.load_checked("k").unwrap_err(),
            CheckpointFault::BadChecksum
        );

        // Wrong magic.
        std::fs::write(&path, b"something else entirely, not a checkpoint").unwrap();
        assert_eq!(s.load_checked("k").unwrap_err(), CheckpointFault::BadMagic);

        // Envelope version skew is reported as such even though the stale
        // checksum no longer matches (version is checked first).
        let mut skew = clean.clone();
        skew[8..12].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &skew).unwrap();
        assert_eq!(
            s.load_checked("k").unwrap_err(),
            CheckpointFault::VersionSkew {
                found: 9,
                supported: CHECKPOINT_VERSION
            }
        );

        // Snapshot-level version skew behind a *valid* envelope: doctor the
        // inner snapshot's version field and re-wrap with a fresh envelope
        // checksum. The wrapper accepts; the snapshot layer rejects.
        let mut inner = snap.to_bytes();
        inner[8..12].copy_from_slice(&99u32.to_le_bytes());
        let mut wrapped = Vec::new();
        wrapped.extend_from_slice(&CHECKPOINT_MAGIC);
        snapio::put_u32(&mut wrapped, CHECKPOINT_VERSION);
        snapio::put_str(&mut wrapped, "k");
        snapio::put_bytes(&mut wrapped, &inner);
        let sum = fnv1a(&wrapped);
        snapio::put_u64(&mut wrapped, sum);
        std::fs::write(&path, &wrapped).unwrap();
        assert!(matches!(
            s.load_checked("k").unwrap_err(),
            CheckpointFault::Snapshot(SnapshotError::VersionSkew { found: 99, .. })
        ));

        // Healing: re-storing replaces the damage.
        s.store("k", &snap).unwrap();
        assert_eq!(s.load_checked("k").unwrap().unwrap(), snap);
    }

    #[test]
    fn foreign_key_is_a_stale_generation() {
        let s = CheckpointStore::open(&temp_dir("stale")).unwrap();
        let snap = sample_snapshot();
        // A checkpoint written under another description (different code
        // version, different parameters, or a hash collision) lands on this
        // key's path: it must be rejected as stale, not restored.
        s.store("v999 some-other-generation", &snap).unwrap();
        std::fs::rename(
            s.path_for("v999 some-other-generation"),
            s.path_for("v1 this-generation"),
        )
        .unwrap();
        assert_eq!(
            s.load_checked("v1 this-generation").unwrap_err(),
            CheckpointFault::StaleGeneration
        );
    }

    #[test]
    fn stale_temp_files_are_swept_on_open() {
        let dir = temp_dir("sweep");
        let s = CheckpointStore::open(&dir).unwrap();
        // Orphan from a dead pid (u32::MAX exceeds pid_max).
        let dead = s.path_for("k").with_extension("tmp4294967295-0");
        std::fs::write(&dead, b"torn").unwrap();
        // In-flight file from this (live) process.
        let mine = s
            .path_for("k")
            .with_extension(format!("tmp{}-3", std::process::id()));
        std::fs::write(&mine, b"in flight").unwrap();
        let _ = CheckpointStore::open(&dir).unwrap();
        assert!(!dead.exists(), "dead writer's temp file swept");
        assert!(mine.exists(), "live writer's temp file survives");
    }

    #[test]
    fn journal_round_trips_and_drops_torn_tail() {
        let dir = temp_dir("journal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let mut j = Journal::open(&path).unwrap();
        j.note_completed("baseline/2-MIX/DWARN", 0xABCD, "sim")
            .unwrap();
        j.note_completed("baseline/2-MEM/FLUSH", 0x1234, "sim")
            .unwrap();
        drop(j);
        // Simulate a crash mid-append: a torn final line.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "0123456789abcdef {{\"event\":\"comp").unwrap();
        drop(f);

        let entries = Journal::read_verified(&path).unwrap();
        assert_eq!(entries.len(), 2, "torn tail dropped: {entries:?}");
        assert!(entries[0].contains("\"what\":\"baseline/2-MIX/DWARN\""));
        assert!(entries[0].contains("\"source\":\"sim\""));
        assert!(entries[1].contains("\"digest\":\"0x0000000000001234\""));

        // Reopening appends after the torn line without disturbing it.
        let mut j = Journal::open(&path).unwrap();
        j.note_completed("baseline/4-MIX/DWARN", 0xABCD, "sim")
            .unwrap();
        // The torn fragment merged with the new line is itself dropped,
        // but the log as a whole keeps accepting entries.
        let after = Journal::read_verified(&path).unwrap();
        assert!(after.len() >= 2);

        // A missing journal reads as empty.
        assert!(Journal::read_verified(&dir.join("absent.jsonl"))
            .unwrap()
            .is_empty());
    }
}
