//! Persistent, content-addressed campaign cache (`--cache-dir`).
//!
//! [`crate::runner::Campaign`] memoizes simulation results in memory, but
//! that memo dies with the process — every CLI invocation re-simulates the
//! full grid from scratch. This module extends the memo to disk: each
//! result is stored in one file named by the FNV-1a hash of a *canonical
//! key description* covering everything that determines the result:
//!
//! * the simulator code version ([`CODE_VERSION`] — bump it whenever a
//!   change alters simulation semantics; every stored entry then misses
//!   and is re-simulated, which is the cache's explicit invalidation story);
//! * the full `SimConfig` (via its `Debug` rendering, so ablation sweeps
//!   that perturb one field get distinct keys);
//! * the workload: every thread's benchmark name, trace seed, and skip;
//! * the fetch policy, including its parameters;
//! * the warm-up and measurement window lengths.
//!
//! The file format is a checksummed, versioned text format (the workspace
//! is dependency-free by design, so there is no serde). A reader treats
//! *any* irregularity — bad magic, failed checksum, truncation, parse
//! error, or a key collision — as a miss and re-simulates; a corrupt cache
//! can cost time but never wrong results. Floats are stored as bit
//! patterns, so a round-trip is bit-exact and digest-preserving.
//!
//! Writes go through a uniquely named temporary file followed by an atomic
//! rename, so a crashed or concurrent writer never leaves a half-written
//! entry under the final name; temp files orphaned by a crash are swept on
//! the next [`DiskCache::open`]. Loads can distinguish *why* an entry was
//! rejected ([`CacheFault`], via [`DiskCache::load_checked`]) so campaigns
//! can surface corruption as typed failure artifacts while still treating
//! it as a miss. Destructive administration (`cache clear`) takes an
//! advisory lock file so two concurrent processes cannot interleave a
//! clear with each other's writes.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use smt_pipeline::{SimResult, ThreadStats};
use smt_trace::snapio::fnv1a;
use smt_uarch::ThreadMemStats;

/// Simulator-semantics version baked into every cache key.
///
/// Bump this whenever a code change alters simulation *results* (timing
/// model, policy behaviour, trace synthesis, …). Entries written under the
/// old version stop matching and are re-simulated; stale files are inert
/// and can be removed with `smt-experiments cache clear`.
pub const CODE_VERSION: u32 = 1;

/// First line of every cache file.
const MAGIC: &str = "dwarn-campaign-cache v1";

/// Cache entry file extension.
const EXT: &str = "dwc";

/// Why a cache entry was rejected. Every variant is still a *miss* — the
/// campaign re-simulates — but typed so the irregularity can be reported
/// as a failure artifact instead of vanishing silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheFault {
    /// The entry file exists but could not be read.
    Unreadable(String),
    /// The file does not start with the cache magic (wrong format or
    /// overwritten by something else).
    BadMagic,
    /// The body does not match its stored checksum (bit flip, truncation,
    /// torn write).
    BadChecksum,
    /// Magic and checksum line are fine but the body does not parse.
    Malformed(&'static str),
    /// The entry is internally consistent but records a *different* key —
    /// an FNV-1a hash collision mapped another run onto this file.
    KeyCollision,
}

impl std::fmt::Display for CacheFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheFault::Unreadable(e) => write!(f, "unreadable entry: {e}"),
            CacheFault::BadMagic => write!(f, "bad magic (not a cache entry)"),
            CacheFault::BadChecksum => write!(f, "checksum mismatch"),
            CacheFault::Malformed(what) => write!(f, "malformed entry ({what})"),
            CacheFault::KeyCollision => write!(f, "key collision (different run)"),
        }
    }
}

impl std::error::Error for CacheFault {}

/// Aggregate numbers for `cache stats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entry files present.
    pub entries: usize,
    /// Total bytes across entry files.
    pub bytes: u64,
}

/// Outcome of `cache verify`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheVerify {
    /// Entries that parsed and checksummed clean.
    pub ok: usize,
    /// Files that failed the magic/checksum/parse gauntlet.
    pub corrupt: Vec<PathBuf>,
}

/// An on-disk store of [`SimResult`]s keyed by canonical run descriptions.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Open (creating if needed) a cache rooted at `dir`. Temp files left
    /// behind by writers that crashed mid-store are removed.
    pub fn open(dir: &Path) -> std::io::Result<DiskCache> {
        std::fs::create_dir_all(dir)?;
        let cache = DiskCache {
            dir: dir.to_path_buf(),
        };
        sweep_stale_tmp(dir);
        Ok(cache)
    }

    /// The file an entry for `key_desc` lives in (diagnostics and fault
    /// injection; the file may not exist).
    pub fn entry_path(&self, key_desc: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{EXT}", fnv1a(key_desc.as_bytes())))
    }

    /// Look up a result. `Ok(None)` means the entry simply is not there;
    /// any irregularity in the stored file — corrupt, truncated, or a hash
    /// collision with a different key — is a typed [`CacheFault`], which
    /// callers treat as a miss.
    pub fn load_checked(&self, key_desc: &str) -> Result<Option<SimResult>, CacheFault> {
        let text = match std::fs::read_to_string(self.entry_path(key_desc)) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CacheFault::Unreadable(e.to_string())),
        };
        parse_entry(&text, Some(key_desc)).map(Some)
    }

    /// Store a result under its key description: unique temp file, fsync,
    /// atomic rename — a crash at any point leaves either the old entry or
    /// no entry, never a torn one.
    pub fn store(&self, key_desc: &str, result: &SimResult) -> std::io::Result<()> {
        write_atomic(
            &self.entry_path(key_desc),
            render_entry(key_desc, result).as_bytes(),
        )
    }

    /// [`DiskCache::store`] with bounded retry for transient I/O failures:
    /// `attempts` tries total, backing off 5 ms, 10 ms, 20 ms, … plus a
    /// deterministic 0–5 ms jitter between them. The jitter decorrelates
    /// parallel writers contending on one directory (they would otherwise
    /// all retry on the same schedule) while staying fully reproducible:
    /// it is a pure function of key, pid, and attempt number.
    /// Returns the last error if every attempt fails.
    pub fn store_retrying(
        &self,
        key_desc: &str,
        result: &SimResult,
        attempts: u32,
    ) -> std::io::Result<()> {
        let mut delay = Duration::from_millis(5);
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                let seed = fnv1a(key_desc.as_bytes())
                    ^ ((std::process::id() as u64) << 32)
                    ^ attempt as u64;
                std::thread::sleep(delay + Duration::from_micros(splitmix64(seed) % 5_000));
                delay *= 2;
            }
            match self.store(key_desc, result) {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        // `attempts.max(1)` guarantees one iteration; the fallback keeps
        // this path panic-free if that invariant ever changes.
        Err(last.unwrap_or_else(|| std::io::Error::other("store_retrying ran zero attempts")))
    }

    fn entry_files(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(EXT))
            .collect();
        files.sort();
        Ok(files)
    }

    /// Entry count and total size.
    pub fn stats(&self) -> std::io::Result<CacheStats> {
        let mut s = CacheStats::default();
        for p in self.entry_files()? {
            s.entries += 1;
            s.bytes += std::fs::metadata(&p)?.len();
        }
        Ok(s)
    }

    /// Remove every entry, returning how many were deleted. Only `.dwc`
    /// files are touched; anything else in the directory is left alone.
    /// Takes the advisory lock so a clear cannot interleave with another
    /// process's clear (writers are safe regardless: stores are atomic
    /// renames, so the worst a concurrent writer sees is its fresh entry
    /// surviving the clear).
    pub fn clear(&self) -> std::io::Result<usize> {
        let _lock = self.lock_exclusive(Duration::from_secs(10))?;
        sweep_stale_tmp(&self.dir);
        let files = self.entry_files()?;
        for p in &files {
            std::fs::remove_file(p)?;
        }
        Ok(files.len())
    }

    /// Integrity-check every entry (magic, checksum, full parse).
    pub fn verify(&self) -> std::io::Result<CacheVerify> {
        let mut v = CacheVerify::default();
        for p in self.entry_files()? {
            let ok = std::fs::read_to_string(&p)
                .ok()
                .and_then(|text| parse_entry(&text, None).ok())
                .is_some();
            if ok {
                v.ok += 1;
            } else {
                v.corrupt.push(p);
            }
        }
        Ok(v)
    }

    /// Acquire the cache's advisory lock, waiting up to `timeout`. The lock
    /// is a `create_new` lock file recording the owner pid; a lock whose
    /// owner is no longer alive is stolen. Released on drop.
    #[expect(
        clippy::disallowed_methods,
        reason = "cross-process lock timeout needs wall time; cache reads are checksummed, so timing cannot change results"
    )]
    pub fn lock_exclusive(&self, timeout: Duration) -> std::io::Result<CacheLock> {
        let path = self.dir.join("lock");
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(CacheLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let owner = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let stale = match owner {
                        Some(pid) => pid != std::process::id() && !process_alive(pid),
                        None => false, // owner still writing its pid; wait
                    };
                    if stale {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if std::time::Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("cache lock {} held by pid {owner:?}", path.display()),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// SplitMix64 finalizer: one well-mixed draw from a seed. Used for the
/// deterministic retry jitter — no RNG state, no global entropy.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write `bytes` to `path` through a uniquely named temp file (pid +
/// per-process sequence number, so concurrent stores in one process never
/// collide), fsynced and moved into place with an atomic rename — a crash
/// at any point leaves either the old file or none, never a torn one.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Remove `.tmpPID-SEQ` files under `dir` whose writing process is no
/// longer alive. Best-effort: sweep failures never block opening a store.
pub(crate) fn sweep_stale_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.filter_map(|e| e.ok()) {
        let path = e.path();
        let Some(ext) = path.extension().and_then(|x| x.to_str()) else {
            continue;
        };
        let Some(rest) = ext.strip_prefix("tmp") else {
            continue;
        };
        let writer_pid = rest.split('-').next().and_then(|p| p.parse::<u32>().ok());
        let stale = match writer_pid {
            Some(pid) => pid != std::process::id() && !process_alive(pid),
            None => true, // unparseable tmp name: an old format, sweep it
        };
        if stale {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Whether a process with this pid is currently alive. On Linux this reads
/// `/proc`; elsewhere it conservatively answers `true` (never steal).
/// Shared with the checkpoint store's stale-temp sweep.
pub(crate) fn process_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// RAII guard for the cache's advisory lock file.
#[derive(Debug)]
pub struct CacheLock {
    path: PathBuf,
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn render_entry(key_desc: &str, r: &SimResult) -> String {
    debug_assert!(!key_desc.contains('\n'), "key descriptions are one line");
    let mut body = String::new();
    body.push_str(&format!("key {key_desc}\n"));
    body.push_str(&format!("cycles {}\n", r.cycles));
    body.push_str(&format!(
        "bp-rate {:016x}\n",
        r.branch_mispredict_rate.to_bits()
    ));
    body.push_str(&format!("threads {}\n", r.threads.len()));
    for t in &r.threads {
        push_counter_line(&mut body, "t", t.named());
    }
    body.push_str(&format!("mem {}\n", r.mem.len()));
    for m in &r.mem {
        push_counter_line(&mut body, "m", m.named());
    }
    body.push_str("end\n");
    format!("{MAGIC}\nchecksum {:016x}\n{body}", fnv1a(body.as_bytes()))
}

/// One `<tag> <v0> <v1> ...` line of counters in declaration order.
fn push_counter_line(
    body: &mut String,
    tag: &str,
    counters: impl Iterator<Item = (&'static str, u64)>,
) {
    body.push_str(tag);
    for (_, v) in counters {
        body.push_str(&format!(" {v}"));
    }
    body.push('\n');
}

/// Strict parse of one entry; `expect_key` additionally guards against a
/// hash collision mapping a different run onto this file. Any deviation
/// from the format is a typed [`CacheFault`].
fn parse_entry(text: &str, expect_key: Option<&str>) -> Result<SimResult, CacheFault> {
    let rest = text
        .strip_prefix(MAGIC)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or(CacheFault::BadMagic)?;
    let (checksum_line, body) = rest.split_once('\n').ok_or(CacheFault::BadChecksum)?;
    let stored = checksum_line
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or(CacheFault::BadChecksum)?;
    if stored != fnv1a(body.as_bytes()) {
        return Err(CacheFault::BadChecksum);
    }
    // The body checksummed clean, so parse failures below are format
    // mismatches (e.g. a future layout change), not corruption.
    parse_body(body, expect_key)
}

fn parse_body(body: &str, expect_key: Option<&str>) -> Result<SimResult, CacheFault> {
    fn field<T>(v: Option<T>, what: &'static str) -> Result<T, CacheFault> {
        v.ok_or(CacheFault::Malformed(what))
    }

    let mut lines = body.lines();
    let key = field(
        lines.next().and_then(|l| l.strip_prefix("key ")),
        "key line",
    )?;
    if let Some(expect) = expect_key {
        if key != expect {
            return Err(CacheFault::KeyCollision);
        }
    }
    let cycles: u64 = field(
        lines
            .next()
            .and_then(|l| l.strip_prefix("cycles "))
            .and_then(|v| v.parse().ok()),
        "cycles line",
    )?;
    let bp_bits = field(
        lines
            .next()
            .and_then(|l| l.strip_prefix("bp-rate "))
            .and_then(|v| u64::from_str_radix(v, 16).ok()),
        "bp-rate line",
    )?;

    let nthreads: usize = field(
        lines
            .next()
            .and_then(|l| l.strip_prefix("threads "))
            .and_then(|v| v.parse().ok()),
        "threads line",
    )?;
    let mut threads = Vec::with_capacity(nthreads.min(64));
    for _ in 0..nthreads {
        threads.push(field(
            lines
                .next()
                .and_then(|l| l.strip_prefix("t "))
                .and_then(parse_u64_fields)
                .and_then(|f| ThreadStats::from_values(&f)),
            "thread line",
        )?);
    }

    let nmem: usize = field(
        lines
            .next()
            .and_then(|l| l.strip_prefix("mem "))
            .and_then(|v| v.parse().ok()),
        "mem line",
    )?;
    let mut mem = Vec::with_capacity(nmem.min(64));
    for _ in 0..nmem {
        mem.push(field(
            lines
                .next()
                .and_then(|l| l.strip_prefix("m "))
                .and_then(parse_u64_fields)
                .and_then(|f| ThreadMemStats::from_values(&f)),
            "mem stats line",
        )?);
    }

    if lines.next() != Some("end") || lines.next().is_some() {
        return Err(CacheFault::Malformed("trailer"));
    }
    Ok(SimResult {
        cycles,
        threads,
        mem,
        branch_mispredict_rate: f64::from_bits(bp_bits),
    })
}

fn parse_u64_fields(line: &str) -> Option<Vec<u64>> {
    line.split(' ').map(|w| w.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn sample_result() -> SimResult {
        SimResult {
            cycles: 60_000,
            threads: vec![
                ThreadStats {
                    fetched: 100,
                    wrong_path_fetched: 7,
                    committed: 80,
                    squashed_mispredict: 5,
                    squashed_flush: 3,
                    gated_cycles: 11,
                    blocked_cycles: 13,
                    dispatch_stalls: 17,
                    branches: 19,
                    branch_mispredicts: 2,
                },
                ThreadStats {
                    committed: 42,
                    ..Default::default()
                },
            ],
            mem: vec![ThreadMemStats {
                loads: 30,
                l1_misses: 4,
                l2_misses: 1,
                tlb_misses: 0,
            }],
            branch_mispredict_rate: 0.062_5,
        }
    }

    /// A cache in a fresh scratch directory, and the guard that removes it.
    fn temp_cache(tag: &str) -> (TempDir, DiskCache) {
        let dir = TempDir::new("dwarn-cache-test", tag);
        let cache = DiskCache::open(&dir).unwrap();
        (dir, cache)
    }

    /// Entries already on disk must keep parsing into the same fields, so
    /// the body layout (counter order included) is pinned byte for byte.
    #[test]
    fn entry_body_is_pinned() {
        assert_eq!(
            render_entry("k1", &sample_result()),
            "dwarn-campaign-cache v1\nchecksum c763f8867669c9b6\nkey k1\ncycles 60000\n\
             bp-rate 3fb0000000000000\nthreads 2\nt 100 7 80 5 3 11 13 17 19 2\n\
             t 0 0 42 0 0 0 0 0 0 0\nmem 1\nm 30 4 1 0\nend\n"
        );
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let (_dir, c) = temp_cache("roundtrip");
        let r = sample_result();
        assert!(c.load_checked("k1").unwrap().is_none());
        c.store("k1", &r).unwrap();
        let back = c.load_checked("k1").unwrap().unwrap();
        assert_eq!(back.digest(), r.digest());
        assert_eq!(back.threads, r.threads);
        assert_eq!(back.mem, r.mem);
        assert_eq!(
            back.branch_mispredict_rate.to_bits(),
            r.branch_mispredict_rate.to_bits()
        );
    }

    #[test]
    fn entry_file_names_are_pinned() {
        // The file name is the FNV-1a hash of the key: changing the hash
        // would orphan every existing cache directory.
        let (_dir, c) = temp_cache("pinned");
        let path = c.entry_path("v1 warmup=5000 measure=15000 policy=DWARN");
        let name = path.file_name().and_then(|n| n.to_str());
        assert_eq!(name, Some("c0485437f1e75750.dwc"));
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let (_dir, c) = temp_cache("keys");
        let mut a = sample_result();
        c.store("key-a", &a).unwrap();
        a.cycles += 1;
        c.store("key-b", &a).unwrap();
        let cycles = |k| c.load_checked(k).unwrap().unwrap().cycles;
        assert_ne!(cycles("key-a"), cycles("key-b"));
        assert!(c.load_checked("key-c").unwrap().is_none());
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let (_dir, c) = temp_cache("trunc");
        c.store("k", &sample_result()).unwrap();
        let path = c.entry_path("k");
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(
            c.load_checked("k").unwrap_err(),
            CacheFault::BadChecksum,
            "truncation must not be trusted"
        );
    }

    #[test]
    fn garbage_entry_is_a_miss() {
        let (_dir, c) = temp_cache("garbage");
        c.store("k", &sample_result()).unwrap();
        std::fs::write(c.entry_path("k"), "not a cache entry at all\n").unwrap();
        assert_eq!(c.load_checked("k").unwrap_err(), CacheFault::BadMagic);
    }

    #[test]
    fn flipped_counter_fails_the_checksum() {
        let (_dir, c) = temp_cache("bitflip");
        c.store("k", &sample_result()).unwrap();
        let path = c.entry_path("k");
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("cycles 60000", "cycles 60001");
        std::fs::write(&path, tampered).unwrap();
        assert_eq!(
            c.load_checked("k").unwrap_err(),
            CacheFault::BadChecksum,
            "tampered body must fail checksum"
        );
    }

    #[test]
    fn wrong_key_in_file_is_a_collision_miss() {
        let (_dir, c) = temp_cache("collision");
        c.store("k", &sample_result()).unwrap();
        // Simulate a hash collision: the file exists under k's hash but
        // records a different key (rewrite with a fresh checksum so only
        // the key comparison can reject it).
        let other = render_entry("other-key", &sample_result());
        std::fs::write(c.entry_path("k"), other).unwrap();
        assert_eq!(c.load_checked("k").unwrap_err(), CacheFault::KeyCollision);
    }

    #[test]
    fn load_checked_classifies_faults() {
        let (_dir, c) = temp_cache("faults");
        assert!(matches!(c.load_checked("absent"), Ok(None)));

        c.store("k", &sample_result()).unwrap();
        let path = c.entry_path("k");
        let clean = std::fs::read_to_string(&path).unwrap();

        std::fs::write(&path, "something else entirely\n").unwrap();
        assert_eq!(c.load_checked("k").unwrap_err(), CacheFault::BadMagic);

        std::fs::write(&path, clean.replace("cycles 60000", "cycles 60001")).unwrap();
        assert_eq!(c.load_checked("k").unwrap_err(), CacheFault::BadChecksum);

        std::fs::write(&path, &clean[..clean.len() / 2]).unwrap();
        assert_eq!(c.load_checked("k").unwrap_err(), CacheFault::BadChecksum);

        std::fs::write(&path, render_entry("other-key", &sample_result())).unwrap();
        assert_eq!(c.load_checked("k").unwrap_err(), CacheFault::KeyCollision);

        std::fs::write(&path, clean).unwrap();
        assert!(c.load_checked("k").unwrap().is_some());
    }

    #[test]
    fn crash_mid_store_is_a_miss_on_reload() {
        // Simulate a writer that died between `File::create` and the
        // rename: the final name holds the old (or no) entry and a torn
        // temp file sits in the directory. Reopening must treat the key as
        // a miss — never an error, never a hang — and sweep the orphan.
        let (dir, c) = temp_cache("crash");
        let entry = render_entry("k", &sample_result());

        // Torn temp file from a dead pid (u32::MAX exceeds pid_max, so it
        // can never be a live process).
        let tmp = c.entry_path("k").with_extension("tmp4294967295-0");
        std::fs::write(&tmp, &entry[..entry.len() / 3]).unwrap();
        // And a torn *final* file, as if a non-atomic writer had crashed.
        std::fs::write(c.entry_path("k"), &entry[..entry.len() / 2]).unwrap();

        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(
            reopened.load_checked("k").unwrap_err(),
            CacheFault::BadChecksum,
            "torn entry must be an attributable miss"
        );
        assert!(!tmp.exists(), "stale temp file swept on open");

        // A live-pid temp file is left alone (its writer may still rename).
        let mine = c
            .entry_path("k")
            .with_extension(format!("tmp{}-7", std::process::id()));
        std::fs::write(&mine, "in flight").unwrap();
        let _ = DiskCache::open(&dir).unwrap();
        assert!(mine.exists(), "live writer's temp file must survive");

        // Re-storing heals the entry.
        reopened.store("k", &sample_result()).unwrap();
        assert_eq!(
            reopened.load_checked("k").unwrap().unwrap().digest(),
            sample_result().digest()
        );
    }

    #[test]
    fn store_retrying_succeeds_and_reports_final_failure() {
        let (dir, c) = temp_cache("retry");
        c.store_retrying("k", &sample_result(), 3).unwrap();
        assert!(c.load_checked("k").unwrap().is_some());

        // A cache whose directory vanished fails every attempt and reports
        // the last error instead of panicking or spinning.
        std::fs::remove_dir_all(&*dir).unwrap();
        let err = c.store_retrying("k2", &sample_result(), 2).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn exclusive_lock_blocks_and_releases() {
        let (_dir, c) = temp_cache("lock");
        let lock = c.lock_exclusive(Duration::from_millis(50)).unwrap();
        // Second acquisition from the same (live) process times out.
        let err = c.lock_exclusive(Duration::from_millis(50)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        drop(lock);
        // Released on drop: acquirable again, and clear() works under it.
        let lock = c.lock_exclusive(Duration::from_millis(50)).unwrap();
        drop(lock);
        c.store("a", &sample_result()).unwrap();
        assert_eq!(c.clear().unwrap(), 1);
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_stolen() {
        let (dir, c) = temp_cache("stale-lock");
        std::fs::write(dir.join("lock"), "4294967295").unwrap();
        let _lock = c
            .lock_exclusive(Duration::from_millis(200))
            .expect("dead owner's lock must be stolen");
    }

    #[test]
    fn stats_clear_verify() {
        let (_dir, c) = temp_cache("admin");
        c.store("a", &sample_result()).unwrap();
        c.store("b", &sample_result()).unwrap();
        let s = c.stats().unwrap();
        assert_eq!(s.entries, 2);
        assert!(s.bytes > 0);

        std::fs::write(c.entry_path("b"), "garbage").unwrap();
        let v = c.verify().unwrap();
        assert_eq!(v.ok, 1);
        assert_eq!(v.corrupt.len(), 1);

        assert_eq!(c.clear().unwrap(), 2);
        assert_eq!(c.stats().unwrap().entries, 0);
    }
}
