//! The on-disk content-addressed store.
//!
//! Layout: every entry is one file under the store root,
//! `<root>/<first 2 hex digits>/<32 hex digits>.wlcrc`, named by the
//! [`Fingerprint`] of the entry's *key* value. The file carries a magic +
//! format version header, the fingerprint it claims to be stored under, and
//! a checksummed, self-describing payload (key + cached value), so a reader
//! can validate an entry end-to-end without knowing the Rust types behind
//! it.
//!
//! Concurrency and corruption rules:
//!
//! * **writes are atomic**: the entry is written to a temp file in the same
//!   directory and `rename`d into place, so concurrent processes — or a
//!   crash mid-write — can never expose a half-written entry under its final
//!   name;
//! * **reads never trust the file**: magic, version, fingerprint (recomputed
//!   from the stored key), checksum and key equality are all verified; any
//!   mismatch, truncation or decode error is reported as a miss
//!   ([`ResultStore::get`] returns `None`) — a corrupt cache can cost a
//!   recomputation, never a wrong result and never a panic;
//! * **hits are journaled**: each successful `get` appends one
//!   `<fingerprint> <unix-seconds>` line to `hits.log` (`O_APPEND`, one
//!   `write` syscall per line), which is how CI asserts a warm run was
//!   actually served from the cache and how LRU eviction orders entries by
//!   recency. The journal is advisory: corrupt lines are ignored, a
//!   read-only store skips it, and opening a writable store compacts it
//!   down to one last-hit line per fingerprint once it grows past
//!   [`HITS_COMPACT_THRESHOLD`] lines — exactly the information eviction
//!   needs, so compaction never loses LRU ordering;
//! * **cells are claimable**: a *claim* is a marker file under `claims/`
//!   created with `O_EXCL` (atomic: exactly one creator wins), carrying the
//!   owner's pid, host and claim time. Independent worker processes use
//!   claims to divide a grid between them — see [`ResultStore::try_claim`].
//!   Claims are a work-division optimisation, never a correctness
//!   mechanism: entry writes stay atomic and content-addressed, so a stale
//!   claim taken over by two racing workers costs a duplicate computation
//!   of the same bytes, not a wrong result.

use crate::fingerprint::Fingerprint;
use crate::metrics;
use crate::wire::{self, WireError};
use serde::Value;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Magic bytes opening every entry file.
pub const MAGIC: [u8; 8] = *b"WLCRCSTR";

/// Version of the entry-file layout; bump when the header layout changes.
/// (Invalidation of *results* goes through the fingerprint salt instead.)
pub const FORMAT_VERSION: u8 = wire::WIRE_VERSION;

/// File extension of store entries.
pub const ENTRY_EXTENSION: &str = "wlcrc";

/// Environment variable naming the store directory; when set, the experiment
/// engine caches cell results there.
pub const STORE_ENV: &str = "WLCRC_STORE";

/// Environment variable marking the store read-only (`1`/`true`/`yes`/`on`):
/// hits are served but misses are not written back and no journal is kept.
pub const STORE_READONLY_ENV: &str = "WLCRC_STORE_READONLY";

/// Environment variable capping the store size in bytes (optional `k`/`m`/`g`
/// suffix). When set, opening a writable store evicts least-recently-used
/// entries until the cap holds — see [`ResultStore::evict_lru`].
pub const MAX_BYTES_ENV: &str = "WLCRC_STORE_MAX_BYTES";

/// Name of the advisory hit journal inside the store root.
const HITS_LOG: &str = "hits.log";

/// Opening a writable store compacts `hits.log` down to one
/// last-hit-per-fingerprint line once it holds more lines than this. The
/// threshold is far above what one grid run journals, so compaction is a
/// rare maintenance event, not a per-run cost.
pub const HITS_COMPACT_THRESHOLD: usize = 65_536;

/// Cheapest possible journal line (32 hex + newline, the pre-timestamp
/// format): used as a size floor so `open` can skip reading a small journal.
const MIN_HIT_LINE_BYTES: u64 = 33;

/// Subdirectory of the store root holding claim markers.
const CLAIMS_DIR: &str = "claims";

/// File extension of claim markers.
const CLAIM_EXTENSION: &str = "claim";

/// Subdirectory of the store root where corrupt entries are moved aside.
/// Quarantined files keep their bytes (evidence for a post-mortem) but are
/// out of the addressable namespace, so the next write of the same key
/// recreates a clean entry instead of fighting the corpse.
const QUARANTINE_DIR: &str = "quarantine";

/// Fault site: tear an entry write in half before the rename lands,
/// simulating a non-atomic writer or a crash that still published a partial
/// file under the final name. See [`wlcrc_faults`].
pub const FAULT_TORN_WRITE: &str = "store.write.torn";

/// Fault site: flip one byte of an entry after reading it from disk,
/// simulating media corruption the checksum must catch. See [`wlcrc_faults`].
pub const FAULT_READ_CORRUPT: &str = "store.read.corrupt";

/// Why a store operation failed. Read-path problems are deliberately *not*
/// errors at the [`ResultStore::get`] level — they surface as misses — but
/// [`ResultStore::verify`] reports them per entry through this type.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O error reading or writing an entry.
    Io(std::io::Error),
    /// The file is too short or missing a section.
    Truncated,
    /// The magic bytes do not match.
    BadMagic,
    /// The format version is not one this build reads.
    UnsupportedVersion(u8),
    /// The payload checksum does not match its bytes.
    ChecksumMismatch,
    /// The payload could not be decoded.
    Wire(WireError),
    /// The payload decoded but is not a `StoreEntry` record.
    MalformedEntry,
    /// The fingerprint recomputed from the stored key does not match the
    /// fingerprint the entry claims (or the filename it sits under).
    FingerprintMismatch,
    /// The stored key is not the requested key (fingerprint collision).
    KeyMismatch,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "i/o error: {err}"),
            StoreError::Truncated => write!(f, "entry truncated"),
            StoreError::BadMagic => write!(f, "bad magic bytes"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            StoreError::Wire(err) => write!(f, "payload decode error: {err}"),
            StoreError::MalformedEntry => write!(f, "payload is not a StoreEntry record"),
            StoreError::FingerprintMismatch => write!(f, "fingerprint mismatch"),
            StoreError::KeyMismatch => write!(f, "key mismatch (fingerprint collision)"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> StoreError {
        StoreError::Io(err)
    }
}

/// One decoded store entry: the self-describing key and the cached payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The fingerprint the entry is stored under.
    pub fingerprint: Fingerprint,
    /// The key value the payload was computed from.
    pub key: Value,
    /// The cached payload value.
    pub payload: Value,
}

/// Summary of one on-disk entry, returned by [`ResultStore::entries`].
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// The fingerprint parsed from the filename.
    pub fingerprint: Fingerprint,
    /// Path of the entry file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
}

/// The recorded owner of a claim marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimInfo {
    /// Process id of the claimant.
    pub pid: u32,
    /// Hostname of the claimant (so multi-machine stores can tell whether a
    /// liveness check is even meaningful).
    pub host: String,
    /// Unix seconds at claim time.
    pub since_unix: u64,
}

/// Result of [`ResultStore::try_claim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// This process created the claim marker; it owns the cell.
    Acquired,
    /// Another claim already exists. `None` when the marker file exists but
    /// its contents are unreadable or corrupt (treat as held: the holder may
    /// be mid-write).
    Held(Option<ClaimInfo>),
}

/// Outcome of [`ResultStore::verify`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Entries that validated end-to-end.
    pub valid: Vec<EntryInfo>,
    /// Entries that failed validation, with the reason.
    pub corrupt: Vec<(EntryInfo, StoreError)>,
}

/// Outcome of [`ResultStore::fsck`]: what the scan found and what the repair
/// pass did about it.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Entries that validated end-to-end and were left in place.
    pub valid: usize,
    /// Corrupt entries moved into the quarantine directory, with the reason
    /// each failed validation. Their keys re-derive on the next run.
    pub quarantined: Vec<(EntryInfo, StoreError)>,
    /// Journal lines dropped because they did not parse (torn appends,
    /// garbage tails). Ordinary duplicate hit lines are not damage and are
    /// not counted, even though the repairing rewrite collapses them too.
    pub dropped_journal_lines: usize,
    /// Stale or unreadable claim markers removed.
    pub cleared_claims: Vec<Fingerprint>,
    /// Leftover `.tmp-*` files from crashed writers removed.
    pub removed_temp_files: usize,
}

impl FsckReport {
    /// `true` when the scan found nothing to repair.
    pub fn clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.dropped_journal_lines == 0
            && self.cleared_claims.is_empty()
            && self.removed_temp_files == 0
    }
}

/// A persistent, content-addressed result store rooted at a directory.
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
    readonly: bool,
}

impl ResultStore {
    /// Opens (creating if needed) a writable store at `root`. Opening also
    /// runs the cheap maintenance passes: the hit journal is compacted once
    /// it exceeds [`HITS_COMPACT_THRESHOLD`] lines, and when
    /// [`MAX_BYTES_ENV`] is set the store is LRU-evicted down to that cap.
    /// Maintenance failures are swallowed — an unmaintainable cache still
    /// serves hits.
    pub fn open(root: impl Into<PathBuf>) -> Result<ResultStore, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let store = ResultStore { root, readonly: false };
        store.maybe_compact_hits_log();
        if let Some(cap) = std::env::var(MAX_BYTES_ENV).ok().and_then(|v| parse_byte_size(&v)) {
            let _ = store.evict_lru(cap);
        }
        Ok(store)
    }

    /// Opens a store that serves hits but never writes (no entries, no
    /// journal). The directory does not have to exist; every lookup is then
    /// simply a miss.
    pub fn open_read_only(root: impl Into<PathBuf>) -> ResultStore {
        ResultStore { root: root.into(), readonly: true }
    }

    /// Opens a store at `root`, read-only when asked; a writable store whose
    /// directory cannot be created degrades to read-only rather than
    /// failing — the cache is an accelerator, not a dependency. This is the
    /// one resolution policy shared by [`ResultStore::from_env`] and the
    /// experiment engine.
    pub fn open_or_read_only(root: impl Into<PathBuf>, readonly: bool) -> ResultStore {
        let root = root.into();
        if readonly {
            return ResultStore::open_read_only(root);
        }
        match ResultStore::open(&root) {
            Ok(store) => store,
            Err(_) => ResultStore::open_read_only(root),
        }
    }

    /// Opens the store named by `WLCRC_STORE` / `WLCRC_STORE_READONLY`, if
    /// set.
    pub fn from_env() -> Option<ResultStore> {
        let root = std::env::var_os(STORE_ENV)?;
        if root.is_empty() {
            return None;
        }
        Some(ResultStore::open_or_read_only(PathBuf::from(root), readonly_from_env()))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `true` when the store never writes.
    pub fn is_read_only(&self) -> bool {
        self.readonly
    }

    /// The path an entry for `fingerprint` would live at.
    pub fn entry_path(&self, fingerprint: Fingerprint) -> PathBuf {
        let hex = fingerprint.to_hex();
        self.root.join(&hex[..2]).join(format!("{hex}.{ENTRY_EXTENSION}"))
    }

    /// Looks up the payload cached under `key`. Any read problem — a missing
    /// entry, a truncated or tampered file, a foreign format, even a
    /// fingerprint collision — is a miss, never an error. A hit is appended
    /// to the journal unless the store is read-only. A writable store
    /// quarantines an entry that fails validation (see
    /// [`ResultStore::quarantine_entry`]), so the next write of the same key
    /// lands on a clean slot and repeat lookups stop re-parsing the corpse.
    pub fn get(&self, key: &Value) -> Option<Value> {
        let fingerprint = Fingerprint::of_value(key);
        let entry = match self.read_entry(fingerprint) {
            Ok(entry) => entry,
            Err(StoreError::Io(err)) if err.kind() == std::io::ErrorKind::NotFound => {
                metrics::metrics().misses.inc();
                return None;
            }
            Err(_) => {
                if !self.readonly {
                    let _ = self.quarantine_entry(fingerprint);
                }
                metrics::metrics().misses.inc();
                return None;
            }
        };
        if &entry.key != key {
            metrics::metrics().misses.inc();
            return None;
        }
        if !self.readonly {
            self.journal_hit(fingerprint);
        }
        metrics::metrics().hits.inc();
        Some(entry.payload)
    }

    /// Stores `payload` under `key`, atomically (tmp file + rename). In a
    /// read-only store this is a no-op returning `Ok(false)`.
    pub fn put(&self, key: &Value, payload: &Value) -> Result<bool, StoreError> {
        if self.readonly {
            return Ok(false);
        }
        let fingerprint = Fingerprint::of_value(key);
        let entry_value = Value::Record {
            name: "StoreEntry".to_string(),
            fields: vec![
                ("key".to_string(), key.clone()),
                ("payload".to_string(), payload.clone()),
            ],
        };
        let payload_bytes = wire::encode(&entry_value);
        let mut file_bytes =
            Vec::with_capacity(MAGIC.len() + 1 + 16 + 4 + payload_bytes.len() + 16);
        file_bytes.extend_from_slice(&MAGIC);
        file_bytes.push(FORMAT_VERSION);
        file_bytes.extend_from_slice(&fingerprint.0.to_be_bytes());
        file_bytes.extend_from_slice(
            &u32::try_from(payload_bytes.len()).expect("payload fits u32").to_le_bytes(),
        );
        file_bytes.extend_from_slice(&payload_bytes);
        file_bytes.extend_from_slice(&Fingerprint::of_bytes(&payload_bytes).0.to_be_bytes());

        // Chaos hook: publish only half the bytes under the final name, the
        // damage a non-atomic writer (or a dying disk) would do. Readers must
        // treat the result as a miss and `fsck` must repair it.
        if wlcrc_faults::should_fire(FAULT_TORN_WRITE) {
            file_bytes.truncate(file_bytes.len() / 2);
        }

        let path = self.entry_path(fingerprint);
        let dir = path.parent().expect("entry path has a shard directory");
        let started = std::time::Instant::now();
        let _span = wlcrc_obs::span("store.write");
        fs::create_dir_all(dir)?;
        // The temp file lives in the final directory so the rename cannot
        // cross filesystems; the name is per-process so concurrent writers
        // of the same entry race only at the (atomic) rename.
        let tmp = dir.join(format!(".tmp-{}-{}", std::process::id(), fingerprint.to_hex()));
        fs::write(&tmp, &file_bytes)?;
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                let store_metrics = metrics::metrics();
                store_metrics.writes.inc();
                store_metrics.write_seconds.observe(started.elapsed());
                Ok(true)
            }
            Err(err) => {
                let _ = fs::remove_file(&tmp);
                Err(err.into())
            }
        }
    }

    /// Reads and fully validates the entry stored under `fingerprint`.
    pub fn read_entry(&self, fingerprint: Fingerprint) -> Result<Entry, StoreError> {
        let started = std::time::Instant::now();
        let _span = wlcrc_obs::span("store.read");
        let store_metrics = metrics::metrics();
        store_metrics.reads.inc();
        let result = read_entry_file(&self.entry_path(fingerprint)).and_then(|entry| {
            if entry.fingerprint != fingerprint {
                return Err(StoreError::FingerprintMismatch);
            }
            Ok(entry)
        });
        store_metrics.read_seconds.observe(started.elapsed());
        result
    }

    /// Deletes the entry stored under `fingerprint`, returning whether one
    /// existed. No-op in a read-only store.
    pub fn evict(&self, fingerprint: Fingerprint) -> Result<bool, StoreError> {
        if self.readonly {
            return Ok(false);
        }
        match fs::remove_file(self.entry_path(fingerprint)) {
            Ok(()) => {
                metrics::metrics().evictions.inc();
                Ok(true)
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(err) => Err(err.into()),
        }
    }

    /// Lists the on-disk entries (existence only — contents unvalidated),
    /// sorted by fingerprint for deterministic output.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let mut out = Vec::new();
        let Ok(shards) = fs::read_dir(&self.root) else {
            return out;
        };
        for shard in shards.flatten() {
            // Only the 2-hex shard directories hold addressable entries;
            // `claims/` and `quarantine/` live alongside them and must not
            // be scanned as entries.
            let is_shard = shard
                .file_name()
                .to_str()
                .is_some_and(|name| name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit()));
            if !is_shard {
                continue;
            }
            let Ok(files) = fs::read_dir(shard.path()) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                    continue;
                };
                if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXTENSION) {
                    continue;
                }
                let Some(fingerprint) = Fingerprint::from_hex(stem) else {
                    continue;
                };
                let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
                out.push(EntryInfo { fingerprint, path, bytes });
            }
        }
        out.sort_by_key(|info| info.fingerprint);
        out
    }

    /// Validates every on-disk entry end-to-end.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for info in self.entries() {
            match read_entry_file(&info.path) {
                Ok(entry) if entry.fingerprint == info.fingerprint => report.valid.push(info),
                Ok(_) => report.corrupt.push((info, StoreError::FingerprintMismatch)),
                Err(err) => report.corrupt.push((info, err)),
            }
        }
        report
    }

    /// Number of journaled cache hits currently in the journal. Compaction
    /// (see [`ResultStore::compact_hits_log`]) collapses repeat hits, so
    /// this is a lower bound on lifetime hits — which is the direction the
    /// "was the cache actually used?" checks need.
    pub fn hit_count(&self) -> u64 {
        let Ok(journal) = fs::read_to_string(self.root.join(HITS_LOG)) else {
            return 0;
        };
        journal
            .lines()
            .filter(|line| {
                line.split_whitespace()
                    .next()
                    .is_some_and(|hex| Fingerprint::from_hex(hex).is_some())
            })
            .count() as u64
    }

    /// The last journaled hit time (unix seconds) per fingerprint. Lines in
    /// the pre-timestamp journal format (bare hex) count as time 0; eviction
    /// falls back to the entry file's mtime in that case.
    pub fn last_uses(&self) -> HashMap<Fingerprint, u64> {
        self.scan_hits_log().map(|(_, last)| last).unwrap_or_default()
    }

    /// One streaming pass over the journal: its line count and the last hit
    /// per fingerprint. The journal grows by one line per warm cell read
    /// until compaction, so it is never held in memory whole.
    fn scan_hits_log(&self) -> std::io::Result<(usize, HashMap<Fingerprint, u64>)> {
        let journal = std::io::BufReader::new(fs::File::open(self.root.join(HITS_LOG))?);
        let (mut lines, mut last) = (0, HashMap::new());
        for line in std::io::BufRead::lines(journal) {
            let line = line?;
            lines += 1;
            let mut tokens = line.split_whitespace();
            let Some(fingerprint) = tokens.next().and_then(Fingerprint::from_hex) else {
                continue;
            };
            let ts: u64 = tokens.next().and_then(|t| t.parse().ok()).unwrap_or(0);
            let slot = last.entry(fingerprint).or_insert(0);
            *slot = ts.max(*slot);
        }
        Ok((lines, last))
    }

    /// Rewrites the journal down to one `<fingerprint> <last-hit>` line per
    /// fingerprint, ordered oldest-first (tmp + rename, like entry writes).
    /// Returns the number of lines dropped. Concurrent appends from other
    /// processes during the rewrite can be lost; the journal is advisory,
    /// so that costs at worst a slightly-too-early eviction.
    pub fn compact_hits_log(&self) -> Result<usize, StoreError> {
        if self.readonly {
            return Ok(0);
        }
        let (before, last) = match self.scan_hits_log() {
            Ok(scan) => scan,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(err) => return Err(err.into()),
        };
        let path = self.root.join(HITS_LOG);
        let mut last: Vec<(u64, Fingerprint)> =
            last.into_iter().map(|(fingerprint, ts)| (ts, fingerprint)).collect();
        last.sort();
        let mut compacted = String::with_capacity(last.len() * 44);
        for (ts, fingerprint) in &last {
            compacted.push_str(&format!("{} {ts}\n", fingerprint.to_hex()));
        }
        let tmp = self.root.join(format!(".tmp-hits-{}", std::process::id()));
        fs::write(&tmp, compacted.as_bytes())?;
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(before.saturating_sub(last.len())),
            Err(err) => {
                let _ = fs::remove_file(&tmp);
                Err(err.into())
            }
        }
    }

    /// Compacts the journal only once it is large enough to matter; a cheap
    /// file-size floor avoids even reading a small journal.
    fn maybe_compact_hits_log(&self) {
        let path = self.root.join(HITS_LOG);
        let Ok(meta) = fs::metadata(&path) else {
            return;
        };
        if meta.len() < HITS_COMPACT_THRESHOLD as u64 * MIN_HIT_LINE_BYTES {
            return;
        }
        if self.scan_hits_log().is_ok_and(|(lines, _)| lines > HITS_COMPACT_THRESHOLD) {
            let _ = self.compact_hits_log();
        }
    }

    /// The moment an entry was last useful: its last journaled hit, or its
    /// file mtime when the journal has nothing newer (covers entries written
    /// but never re-read, and pre-timestamp journal lines).
    fn last_use(&self, info: &EntryInfo, uses: &HashMap<Fingerprint, u64>) -> u64 {
        let mtime = fs::metadata(&info.path)
            .ok()
            .and_then(|m| m.modified().ok())
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map(|d| d.as_secs())
            .unwrap_or(0);
        mtime.max(uses.get(&info.fingerprint).copied().unwrap_or(0))
    }

    /// Evicts least-recently-used entries until the store's total entry
    /// bytes fit under `max_bytes`; returns the evicted entries (oldest
    /// first). Ties on last-use break by fingerprint so the outcome is
    /// deterministic. No-op in a read-only store.
    pub fn evict_lru(&self, max_bytes: u64) -> Result<Vec<EntryInfo>, StoreError> {
        if self.readonly {
            return Ok(Vec::new());
        }
        let entries = self.entries();
        let mut remaining: u64 = entries.iter().map(|info| info.bytes).sum();
        if remaining <= max_bytes {
            return Ok(Vec::new());
        }
        let uses = self.last_uses();
        let mut ranked: Vec<(u64, EntryInfo)> =
            entries.into_iter().map(|info| (self.last_use(&info, &uses), info)).collect();
        ranked.sort_by_key(|(last, info)| (*last, info.fingerprint));
        let mut evicted = Vec::new();
        for (_, info) in ranked {
            if remaining <= max_bytes {
                break;
            }
            if self.evict(info.fingerprint)? {
                remaining = remaining.saturating_sub(info.bytes);
                evicted.push(info);
            }
        }
        Ok(evicted)
    }

    /// Evicts every entry whose last use is strictly before `cutoff_unix`;
    /// returns the evicted entries (oldest first). No-op in a read-only
    /// store.
    pub fn evict_older_than(&self, cutoff_unix: u64) -> Result<Vec<EntryInfo>, StoreError> {
        if self.readonly {
            return Ok(Vec::new());
        }
        let uses = self.last_uses();
        let mut ranked: Vec<(u64, EntryInfo)> = self
            .entries()
            .into_iter()
            .map(|info| (self.last_use(&info, &uses), info))
            .filter(|(last, _)| *last < cutoff_unix)
            .collect();
        ranked.sort_by_key(|(last, info)| (*last, info.fingerprint));
        let mut evicted = Vec::new();
        for (_, info) in ranked {
            if self.evict(info.fingerprint)? {
                evicted.push(info);
            }
        }
        Ok(evicted)
    }

    /// Appends a hit to the advisory journal; failures are ignored (the
    /// journal must never turn a cache hit into a run failure).
    fn journal_hit(&self, fingerprint: Fingerprint) {
        let Ok(mut file) =
            fs::OpenOptions::new().create(true).append(true).open(self.root.join(HITS_LOG))
        else {
            return;
        };
        // One write_all of the full line: under O_APPEND the line lands
        // atomically, so concurrent processes cannot interleave hex and
        // newline fragments (writeln! would issue separate writes).
        let _ = file.write_all(format!("{} {}\n", fingerprint.to_hex(), unix_now()).as_bytes());
    }

    /// The path a claim marker for `fingerprint` would live at.
    pub fn claim_path(&self, fingerprint: Fingerprint) -> PathBuf {
        self.root.join(CLAIMS_DIR).join(format!("{}.{CLAIM_EXTENSION}", fingerprint.to_hex()))
    }

    /// Tries to claim the cell `fingerprint` for this process. The marker is
    /// created with `create_new` (`O_EXCL`), so exactly one racing process
    /// acquires a fresh claim; everyone else sees [`ClaimOutcome::Held`]
    /// with the recorded owner. A read-only store never claims (it has no
    /// work to divide — it cannot write results back).
    pub fn try_claim(&self, fingerprint: Fingerprint) -> Result<ClaimOutcome, StoreError> {
        if self.readonly {
            return Ok(ClaimOutcome::Held(None));
        }
        let path = self.claim_path(fingerprint);
        let dir = path.parent().expect("claim path has a parent directory");
        fs::create_dir_all(dir)?;
        match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                // Losing the content write is fine: an empty marker still
                // excludes other claimants, and readers treat it as
                // Held(None).
                let _ = file.write_all(claim_line().as_bytes());
                Ok(ClaimOutcome::Acquired)
            }
            Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {
                Ok(ClaimOutcome::Held(self.read_claim(fingerprint)))
            }
            Err(err) => Err(err.into()),
        }
    }

    /// Reads the owner recorded in a claim marker; `None` when the marker is
    /// missing, unreadable or malformed.
    pub fn read_claim(&self, fingerprint: Fingerprint) -> Option<ClaimInfo> {
        parse_claim(&fs::read_to_string(self.claim_path(fingerprint)).ok()?)
    }

    /// Replaces an existing claim with this process's own (tmp + rename —
    /// atomic, but *not* exclusive: two workers that both judged the same
    /// claim stale can both take it over and both compute the cell). Call
    /// only after [`claim_is_stale`] says the current holder is gone; the
    /// worst case is duplicate work, never a wrong result, because entry
    /// writes stay atomic and deterministic.
    pub fn takeover_claim(&self, fingerprint: Fingerprint) -> Result<(), StoreError> {
        if self.readonly {
            return Ok(());
        }
        let path = self.claim_path(fingerprint);
        let dir = path.parent().expect("claim path has a parent directory");
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(".tmp-{}-{}", std::process::id(), fingerprint.to_hex()));
        fs::write(&tmp, claim_line().as_bytes())?;
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(err) => {
                let _ = fs::remove_file(&tmp);
                Err(err.into())
            }
        }
    }

    /// Removes the claim marker for `fingerprint`, returning whether one
    /// existed. Workers release after the entry write lands, so a visible
    /// entry file always wins over any claim state.
    pub fn release_claim(&self, fingerprint: Fingerprint) -> Result<bool, StoreError> {
        if self.readonly {
            return Ok(false);
        }
        match fs::remove_file(self.claim_path(fingerprint)) {
            Ok(()) => Ok(true),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(err) => Err(err.into()),
        }
    }

    /// Lists the outstanding claim markers, sorted by fingerprint.
    pub fn claims(&self) -> Vec<(Fingerprint, Option<ClaimInfo>)> {
        let mut out = Vec::new();
        let Ok(files) = fs::read_dir(self.root.join(CLAIMS_DIR)) else {
            return out;
        };
        for file in files.flatten() {
            let path = file.path();
            if path.extension().and_then(|e| e.to_str()) != Some(CLAIM_EXTENSION) {
                continue;
            }
            let Some(fingerprint) =
                path.file_stem().and_then(|s| s.to_str()).and_then(Fingerprint::from_hex)
            else {
                continue;
            };
            out.push((fingerprint, self.read_claim(fingerprint)));
        }
        out.sort_by_key(|(fingerprint, _)| *fingerprint);
        out
    }

    /// The path a quarantined entry for `fingerprint` would live at.
    pub fn quarantine_path(&self, fingerprint: Fingerprint) -> PathBuf {
        self.root.join(QUARANTINE_DIR).join(format!("{}.{ENTRY_EXTENSION}", fingerprint.to_hex()))
    }

    /// Moves the entry stored under `fingerprint` into the quarantine
    /// directory (atomic rename; an earlier quarantined corpse under the
    /// same fingerprint is replaced). Returns whether an entry existed.
    /// No-op in a read-only store.
    pub fn quarantine_entry(&self, fingerprint: Fingerprint) -> Result<bool, StoreError> {
        if self.readonly {
            return Ok(false);
        }
        let to = self.quarantine_path(fingerprint);
        fs::create_dir_all(to.parent().expect("quarantine path has a parent directory"))?;
        match fs::rename(self.entry_path(fingerprint), &to) {
            Ok(()) => {
                metrics::metrics().quarantined.inc();
                Ok(true)
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(err) => Err(err.into()),
        }
    }

    /// Lists the quarantined entries, sorted by fingerprint.
    pub fn quarantined(&self) -> Vec<EntryInfo> {
        let mut out = Vec::new();
        let Ok(files) = fs::read_dir(self.root.join(QUARANTINE_DIR)) else {
            return out;
        };
        for file in files.flatten() {
            let path = file.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXTENSION) {
                continue;
            }
            let Some(fingerprint) =
                path.file_stem().and_then(|s| s.to_str()).and_then(Fingerprint::from_hex)
            else {
                continue;
            };
            let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
            out.push(EntryInfo { fingerprint, path, bytes });
        }
        out.sort_by_key(|info| info.fingerprint);
        out
    }

    /// Scans and repairs the store in place:
    ///
    /// 1. every entry is validated end-to-end; corrupt ones are moved into
    ///    `quarantine/` (the content-addressed key re-derives the result on
    ///    the next run — `fsck` cannot recompute payloads itself);
    /// 2. unparseable `hits.log` lines (torn appends) are dropped by
    ///    rewriting the journal through compaction;
    /// 3. claim markers whose holder is stale (per [`claim_is_stale`] with
    ///    `stale_after_secs`) or whose contents are unreadable *and* old
    ///    enough are removed;
    /// 4. `.tmp-*` leftovers from crashed writers older than
    ///    `stale_after_secs` are deleted.
    ///
    /// Requires a writable store; a read-only store returns an empty report
    /// without touching anything.
    pub fn fsck(&self, stale_after_secs: u64) -> Result<FsckReport, StoreError> {
        let mut report = FsckReport::default();
        if self.readonly {
            return Ok(report);
        }

        let verified = self.verify();
        report.valid = verified.valid.len();
        for (info, err) in verified.corrupt {
            if self.quarantine_entry(info.fingerprint)? {
                report.quarantined.push((info, err));
            }
        }

        report.dropped_journal_lines = self.malformed_journal_lines();
        if report.dropped_journal_lines > 0 {
            self.compact_hits_log()?;
        }

        for (fingerprint, info) in self.claims() {
            let stale = match info {
                Some(info) => claim_is_stale(&info, stale_after_secs),
                // Unreadable markers: the holder may be mid-write, so only
                // age them out on mtime like any other stale artifact.
                None => self.marker_older_than(fingerprint, stale_after_secs),
            };
            if stale && self.release_claim(fingerprint)? {
                report.cleared_claims.push(fingerprint);
            }
        }

        report.removed_temp_files = self.remove_stale_temp_files(stale_after_secs);
        Ok(report)
    }

    /// Journal lines whose first token is not a fingerprint — torn appends
    /// and garbage tails that the journal readers silently skip.
    fn malformed_journal_lines(&self) -> usize {
        let Ok(journal) = fs::read_to_string(self.root.join(HITS_LOG)) else {
            return 0;
        };
        journal
            .lines()
            .filter(|line| line.split_whitespace().next().and_then(Fingerprint::from_hex).is_none())
            .count()
    }

    /// Whether the claim marker for `fingerprint` is older than
    /// `stale_after_secs` by file mtime (used for markers whose contents do
    /// not parse).
    fn marker_older_than(&self, fingerprint: Fingerprint, stale_after_secs: u64) -> bool {
        let Ok(meta) = fs::metadata(self.claim_path(fingerprint)) else {
            return false;
        };
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map(|d| d.as_secs())
            .unwrap_or(0);
        unix_now().saturating_sub(mtime) > stale_after_secs
    }

    /// Removes `.tmp-*` files older than `stale_after_secs` from the root,
    /// the shard directories and the claims directory. Recent temp files are
    /// left alone — a live writer may still be about to rename one.
    fn remove_stale_temp_files(&self, stale_after_secs: u64) -> usize {
        let mut dirs = vec![self.root.clone(), self.root.join(CLAIMS_DIR)];
        if let Ok(shards) = fs::read_dir(&self.root) {
            dirs.extend(shards.flatten().map(|e| e.path()).filter(|p| p.is_dir()));
        }
        let mut removed = 0;
        for dir in dirs {
            let Ok(files) = fs::read_dir(&dir) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                let is_tmp = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(".tmp-"));
                if !is_tmp {
                    continue;
                }
                let age = file
                    .metadata()
                    .ok()
                    .and_then(|m| m.modified().ok())
                    .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                    .map(|d| unix_now().saturating_sub(d.as_secs()))
                    .unwrap_or(u64::MAX);
                if age > stale_after_secs && fs::remove_file(&path).is_ok() {
                    removed += 1;
                }
            }
        }
        removed
    }
}

/// Whether a claim's holder should be presumed dead: the claim is older than
/// `stale_after_secs`, or it was made on *this* host by a process that no
/// longer exists (checked via `/proc`, so the liveness shortcut only applies
/// where `/proc` is real). Cross-host claims age out on time alone.
pub fn claim_is_stale(info: &ClaimInfo, stale_after_secs: u64) -> bool {
    if unix_now().saturating_sub(info.since_unix) > stale_after_secs {
        return true;
    }
    info.pid != 0
        && info.host == hostname()
        && Path::new("/proc/self").exists()
        && !Path::new(&format!("/proc/{}", info.pid)).exists()
}

/// The claim line this process writes: `<pid>@<host> <unix-seconds>`.
fn claim_line() -> String {
    format!("{}@{} {}\n", std::process::id(), hostname(), unix_now())
}

/// Parses a claim line written by [`claim_line`].
fn parse_claim(text: &str) -> Option<ClaimInfo> {
    let mut tokens = text.split_whitespace();
    let owner = tokens.next()?;
    let since_unix: u64 = tokens.next()?.parse().ok()?;
    let (pid, host) = owner.split_once('@')?;
    Some(ClaimInfo { pid: pid.parse().ok()?, host: host.to_string(), since_unix })
}

/// Current unix time in seconds (0 on a pre-epoch clock).
fn unix_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

/// Best-effort hostname: `/proc/sys/kernel/hostname`, then `$HOSTNAME`,
/// then `"?"`. Only used to label claims and scope the dead-pid check.
fn hostname() -> String {
    if let Ok(host) = fs::read_to_string("/proc/sys/kernel/hostname") {
        let host = host.trim();
        if !host.is_empty() {
            return host.to_string();
        }
    }
    match std::env::var("HOSTNAME") {
        Ok(host) if !host.trim().is_empty() => host.trim().to_string(),
        _ => "?".to_string(),
    }
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (binary
/// multiples): `"900k"` → 921600. Used by [`MAX_BYTES_ENV`] and
/// `storectl evict --max-bytes`.
pub fn parse_byte_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, multiplier) = match text.chars().last()? {
        'k' | 'K' => (&text[..text.len() - 1], 1u64 << 10),
        'm' | 'M' => (&text[..text.len() - 1], 1u64 << 20),
        'g' | 'G' => (&text[..text.len() - 1], 1u64 << 30),
        _ => (text, 1),
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(multiplier)
}

/// Whether `WLCRC_STORE_READONLY` currently marks stores read-only.
pub fn readonly_from_env() -> bool {
    std::env::var(STORE_READONLY_ENV).is_ok_and(|v| {
        let v = v.trim();
        ["1", "true", "yes", "on"].iter().any(|accepted| v.eq_ignore_ascii_case(accepted))
    })
}

/// Parses one entry file: magic, version, claimed fingerprint, length-checked
/// payload, checksum, decode, and fingerprint-of-key revalidation.
fn read_entry_file(path: &Path) -> Result<Entry, StoreError> {
    let mut bytes = fs::read(path)?;
    // Chaos hook: media corruption after the read — the checksum (or one of
    // the other header checks) must turn this into a typed error, never a
    // wrong payload.
    wlcrc_faults::corrupt_byte(FAULT_READ_CORRUPT, &mut bytes);
    let header_len = MAGIC.len() + 1 + 16 + 4;
    if bytes.len() < header_len + 16 {
        return Err(StoreError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = bytes[MAGIC.len()];
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let claimed = Fingerprint(u128::from_be_bytes(
        bytes[MAGIC.len() + 1..MAGIC.len() + 17].try_into().expect("16 bytes"),
    ));
    let payload_len =
        u32::from_le_bytes(bytes[MAGIC.len() + 17..header_len].try_into().expect("4 bytes"))
            as usize;
    let payload_end = header_len.checked_add(payload_len).ok_or(StoreError::Truncated)?;
    if payload_end + 16 != bytes.len() {
        return Err(StoreError::Truncated);
    }
    let payload_bytes = &bytes[header_len..payload_end];
    let checksum =
        Fingerprint(u128::from_be_bytes(bytes[payload_end..].try_into().expect("16 bytes")));
    if Fingerprint::of_bytes(payload_bytes) != checksum {
        return Err(StoreError::ChecksumMismatch);
    }
    let entry_value = wire::decode(payload_bytes).map_err(StoreError::Wire)?;
    let record = entry_value.as_record("StoreEntry").map_err(|_| StoreError::MalformedEntry)?;
    let key = record.raw("key").ok_or(StoreError::MalformedEntry)?.clone();
    let payload = record.raw("payload").ok_or(StoreError::MalformedEntry)?.clone();
    if Fingerprint::of_value(&key) != claimed {
        return Err(StoreError::FingerprintMismatch);
    }
    Ok(Entry { fingerprint: claimed, key, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A scratch directory removed on drop; unique per test without any
    /// external tempdir dependency.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "wlcrc-store-test-{}-{}-{}",
                std::process::id(),
                tag,
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&path);
            Scratch(path)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key(n: u64) -> Value {
        Value::record("Key", vec![("n", Value::U64(n)), ("tag", Value::Str("t".into()))])
    }

    fn payload(x: f64) -> Value {
        Value::record("Payload", vec![("energy", Value::F64(x))])
    }

    #[test]
    fn put_then_get_round_trips() {
        let scratch = Scratch::new("roundtrip");
        let store = ResultStore::open(&scratch.0).unwrap();
        assert_eq!(store.get(&key(1)), None);
        assert!(store.put(&key(1), &payload(42.5)).unwrap());
        assert_eq!(store.get(&key(1)), Some(payload(42.5)));
        assert_eq!(store.get(&key(2)), None);
        assert_eq!(store.entries().len(), 1);
        assert_eq!(store.hit_count(), 1);
    }

    #[test]
    fn operations_feed_the_metrics_registry() {
        // Counters are process-global and other tests run concurrently in
        // this binary, so deltas are asserted as lower bounds.
        let scratch = Scratch::new("metrics");
        let store = ResultStore::open(&scratch.0).unwrap();
        let store_metrics = metrics::metrics();
        let snapshot = || {
            (
                store_metrics.hits.get(),
                store_metrics.misses.get(),
                store_metrics.writes.get(),
                store_metrics.evictions.get(),
            )
        };
        let (hits, misses, writes, evictions) = snapshot();
        let reads = store_metrics.reads.get();
        assert_eq!(store.get(&key(900)), None); // miss
        store.put(&key(900), &payload(1.0)).unwrap(); // write
        assert_eq!(store.get(&key(900)), Some(payload(1.0))); // hit
        assert!(store.evict(Fingerprint::of_value(&key(900))).unwrap()); // evict
        let (hits2, misses2, writes2, evictions2) = snapshot();
        assert!(hits2 > hits);
        assert!(misses2 > misses);
        assert!(writes2 > writes);
        assert!(evictions2 > evictions);
        assert!(store_metrics.reads.get() >= reads + 2);
        assert!(store_metrics.read_seconds.count() >= 2);
        assert!(store_metrics.write_seconds.count() >= 1);
        assert!(store_metrics.write_seconds.max_ns() > 0);
    }

    #[test]
    fn overwrite_replaces_the_payload() {
        let scratch = Scratch::new("overwrite");
        let store = ResultStore::open(&scratch.0).unwrap();
        store.put(&key(1), &payload(1.0)).unwrap();
        store.put(&key(1), &payload(2.0)).unwrap();
        assert_eq!(store.get(&key(1)), Some(payload(2.0)));
        assert_eq!(store.entries().len(), 1);
    }

    #[test]
    fn read_only_store_serves_hits_but_never_writes() {
        let scratch = Scratch::new("readonly");
        let writer = ResultStore::open(&scratch.0).unwrap();
        writer.put(&key(1), &payload(7.0)).unwrap();
        let hits_before = writer.hit_count();
        let reader = ResultStore::open_read_only(&scratch.0);
        assert_eq!(reader.get(&key(1)), Some(payload(7.0)));
        assert!(!reader.put(&key(2), &payload(8.0)).unwrap());
        assert_eq!(reader.get(&key(2)), None);
        assert_eq!(reader.entries().len(), 1);
        // The read-only hit was not journaled.
        assert_eq!(writer.hit_count(), hits_before);
    }

    #[test]
    fn truncation_and_tampering_read_as_misses() {
        let scratch = Scratch::new("corrupt");
        let store = ResultStore::open(&scratch.0).unwrap();
        store.put(&key(3), &payload(9.0)).unwrap();
        let path = store.entry_path(Fingerprint::of_value(&key(3)));
        let original = fs::read(&path).unwrap();

        // Every truncation point is a miss, not a panic.
        for cut in [0, 5, MAGIC.len() + 1, original.len() / 2, original.len() - 1] {
            fs::write(&path, &original[..cut]).unwrap();
            assert_eq!(store.get(&key(3)), None, "truncation at {cut}");
        }
        // Every single-byte flip is a miss.
        for i in 0..original.len() {
            let mut tampered = original.clone();
            tampered[i] ^= 0x40;
            fs::write(&path, &tampered).unwrap();
            assert_eq!(store.get(&key(3)), None, "flip at byte {i}");
        }
        // Restoring the original bytes restores the hit.
        fs::write(&path, &original).unwrap();
        assert_eq!(store.get(&key(3)), Some(payload(9.0)));
        // And a corrupt entry can simply be rewritten.
        fs::write(&path, b"garbage").unwrap();
        assert!(store.put(&key(3), &payload(9.0)).unwrap());
        assert_eq!(store.get(&key(3)), Some(payload(9.0)));
    }

    #[test]
    fn verify_separates_valid_from_corrupt() {
        let scratch = Scratch::new("verify");
        let store = ResultStore::open(&scratch.0).unwrap();
        store.put(&key(1), &payload(1.0)).unwrap();
        store.put(&key(2), &payload(2.0)).unwrap();
        let victim = store.entry_path(Fingerprint::of_value(&key(2)));
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();
        let report = store.verify();
        assert_eq!(report.valid.len(), 1);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0.fingerprint, Fingerprint::of_value(&key(2)));
    }

    #[test]
    fn evict_removes_entries() {
        let scratch = Scratch::new("evict");
        let store = ResultStore::open(&scratch.0).unwrap();
        store.put(&key(1), &payload(1.0)).unwrap();
        let fp = Fingerprint::of_value(&key(1));
        assert!(store.evict(fp).unwrap());
        assert!(!store.evict(fp).unwrap());
        assert_eq!(store.get(&key(1)), None);
        assert!(store.entries().is_empty());
    }

    #[test]
    fn entry_under_wrong_filename_is_rejected() {
        let scratch = Scratch::new("misfiled");
        let store = ResultStore::open(&scratch.0).unwrap();
        store.put(&key(1), &payload(1.0)).unwrap();
        let from = store.entry_path(Fingerprint::of_value(&key(1)));
        let to = store.entry_path(Fingerprint::of_value(&key(2)));
        fs::create_dir_all(to.parent().unwrap()).unwrap();
        fs::rename(&from, &to).unwrap();
        // The key-2 lookup finds a file whose content was stored for key 1:
        // the recomputed fingerprint exposes the mismatch.
        assert_eq!(store.get(&key(2)), None);
        assert_eq!(store.get(&key(1)), None);
    }

    #[test]
    fn from_env_is_disabled_without_the_variable() {
        // The test runner may set WLCRC_STORE for child processes it spawns,
        // but within this process the variable is controlled here.
        std::env::remove_var(STORE_ENV);
        assert!(ResultStore::from_env().is_none());
    }

    #[test]
    fn journal_lines_are_timestamped_and_legacy_lines_still_count() {
        let scratch = Scratch::new("journal");
        let store = ResultStore::open(&scratch.0).unwrap();
        store.put(&key(1), &payload(1.0)).unwrap();
        store.get(&key(1)).unwrap();
        let fp = Fingerprint::of_value(&key(1));
        let uses = store.last_uses();
        assert!(uses.get(&fp).copied().unwrap_or(0) > 0, "hit carries a real timestamp");
        // A line in the pre-timestamp format (bare hex) still counts as a
        // hit and parses as last-use 0.
        let legacy = Fingerprint::of_value(&key(2));
        let mut journal =
            fs::OpenOptions::new().append(true).open(scratch.0.join(HITS_LOG)).unwrap();
        journal.write_all(format!("{}\n", legacy.to_hex()).as_bytes()).unwrap();
        drop(journal);
        assert_eq!(store.hit_count(), 2);
        assert_eq!(store.last_uses().get(&legacy), Some(&0));
    }

    #[test]
    fn compaction_keeps_one_last_hit_line_per_fingerprint() {
        let scratch = Scratch::new("compact");
        let store = ResultStore::open(&scratch.0).unwrap();
        store.put(&key(1), &payload(1.0)).unwrap();
        store.put(&key(2), &payload(2.0)).unwrap();
        for _ in 0..5 {
            store.get(&key(1)).unwrap();
            store.get(&key(2)).unwrap();
        }
        let uses_before = store.last_uses();
        assert_eq!(store.hit_count(), 10);
        let dropped = store.compact_hits_log().unwrap();
        assert_eq!(dropped, 8);
        assert_eq!(store.hit_count(), 2);
        // Compaction preserved exactly the information eviction needs.
        assert_eq!(store.last_uses(), uses_before);
    }

    #[test]
    fn open_compacts_an_oversized_journal() {
        let scratch = Scratch::new("autocompact");
        let store = ResultStore::open(&scratch.0).unwrap();
        store.put(&key(1), &payload(1.0)).unwrap();
        let fp = Fingerprint::of_value(&key(1));
        let mut bloated = String::new();
        for i in 0..=HITS_COMPACT_THRESHOLD {
            bloated.push_str(&format!("{} {}\n", fp.to_hex(), 1_000_000 + i));
        }
        fs::write(scratch.0.join(HITS_LOG), bloated.as_bytes()).unwrap();
        let reopened = ResultStore::open(&scratch.0).unwrap();
        assert_eq!(reopened.hit_count(), 1);
        assert_eq!(
            reopened.last_uses().get(&fp),
            Some(&(1_000_000 + HITS_COMPACT_THRESHOLD as u64)),
            "compaction kept the newest timestamp"
        );
    }

    #[test]
    fn evict_lru_drops_the_least_recently_used_first() {
        let scratch = Scratch::new("lru");
        let store = ResultStore::open(&scratch.0).unwrap();
        for n in 1..=3 {
            store.put(&key(n), &payload(n as f64)).unwrap();
        }
        // Journal future-dated hits so they dominate the (just-now) file
        // mtimes: key 2 is hottest, key 3 warm, key 1 never re-read (LRU).
        let future = unix_now() + 1000;
        let mut journal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(scratch.0.join(HITS_LOG))
            .unwrap();
        journal
            .write_all(
                format!(
                    "{} {}\n{} {}\n",
                    Fingerprint::of_value(&key(3)).to_hex(),
                    future,
                    Fingerprint::of_value(&key(2)).to_hex(),
                    future + 100,
                )
                .as_bytes(),
            )
            .unwrap();
        drop(journal);
        let total: u64 = store.entries().iter().map(|info| info.bytes).sum();
        let evicted = store.evict_lru(total - 1).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].fingerprint, Fingerprint::of_value(&key(1)));
        // Evicting to zero clears everything, hottest last.
        let evicted = store.evict_lru(0).unwrap();
        assert_eq!(
            evicted.iter().map(|info| info.fingerprint).collect::<Vec<_>>(),
            vec![Fingerprint::of_value(&key(3)), Fingerprint::of_value(&key(2))]
        );
        assert!(store.entries().is_empty());
        // An empty store under any cap evicts nothing.
        assert!(store.evict_lru(0).unwrap().is_empty());
    }

    #[test]
    fn evict_older_than_uses_journal_over_mtime() {
        let scratch = Scratch::new("older");
        let store = ResultStore::open(&scratch.0).unwrap();
        store.put(&key(1), &payload(1.0)).unwrap();
        store.put(&key(2), &payload(2.0)).unwrap();
        let future = unix_now() + 1000;
        let mut journal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(scratch.0.join(HITS_LOG))
            .unwrap();
        journal
            .write_all(
                format!("{} {}\n", Fingerprint::of_value(&key(2)).to_hex(), future).as_bytes(),
            )
            .unwrap();
        drop(journal);
        // Cutoff between "now" (key 1's mtime) and key 2's journaled hit.
        let evicted = store.evict_older_than(unix_now() + 500).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].fingerprint, Fingerprint::of_value(&key(1)));
        assert_eq!(store.entries().len(), 1);
    }

    #[test]
    fn claims_are_exclusive_until_released() {
        let scratch = Scratch::new("claims");
        let store = ResultStore::open(&scratch.0).unwrap();
        let fp = Fingerprint::of_value(&key(1));
        assert_eq!(store.try_claim(fp).unwrap(), ClaimOutcome::Acquired);
        match store.try_claim(fp).unwrap() {
            ClaimOutcome::Held(Some(info)) => {
                assert_eq!(info.pid, std::process::id());
                assert_eq!(info.host, hostname());
                assert!(!claim_is_stale(&info, 60), "own live claim is not stale");
            }
            other => panic!("expected Held(Some(..)), got {other:?}"),
        }
        assert_eq!(store.claims().len(), 1);
        assert!(store.release_claim(fp).unwrap());
        assert!(!store.release_claim(fp).unwrap());
        assert_eq!(store.try_claim(fp).unwrap(), ClaimOutcome::Acquired);
    }

    #[test]
    fn stale_claims_age_out_or_die_with_their_pid() {
        let aged = ClaimInfo {
            pid: std::process::id(),
            host: hostname(),
            since_unix: unix_now().saturating_sub(100),
        };
        assert!(claim_is_stale(&aged, 50), "old enough claims age out");
        assert!(!claim_is_stale(&aged, 1000), "a live same-host pid keeps a recent claim");
        if Path::new("/proc/self").exists() {
            let dead = ClaimInfo { pid: u32::MAX, host: hostname(), since_unix: unix_now() };
            assert!(claim_is_stale(&dead, 1000), "a dead same-host pid is stale immediately");
        }
        let remote = ClaimInfo {
            pid: u32::MAX,
            host: "elsewhere.invalid".to_string(),
            since_unix: unix_now(),
        };
        assert!(!claim_is_stale(&remote, 1000), "cross-host claims only age out");
    }

    #[test]
    fn takeover_replaces_the_recorded_owner() {
        let scratch = Scratch::new("takeover");
        let store = ResultStore::open(&scratch.0).unwrap();
        let fp = Fingerprint::of_value(&key(1));
        // Plant a foreign claim by hand.
        let path = store.claim_path(fp);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"999999@elsewhere.invalid 5\n").unwrap();
        let foreign = store.read_claim(fp).unwrap();
        assert_eq!(foreign.pid, 999_999);
        assert!(claim_is_stale(&foreign, 60), "a claim from unix time 5 has aged out");
        store.takeover_claim(fp).unwrap();
        let ours = store.read_claim(fp).unwrap();
        assert_eq!(ours.pid, std::process::id());
        assert_eq!(ours.host, hostname());
        // A corrupt marker reads as Held(None), never a panic.
        fs::write(&path, b"not a claim line").unwrap();
        assert_eq!(store.try_claim(fp).unwrap(), ClaimOutcome::Held(None));
    }

    #[test]
    fn read_only_stores_never_claim_or_evict() {
        let scratch = Scratch::new("ro-claims");
        let writer = ResultStore::open(&scratch.0).unwrap();
        writer.put(&key(1), &payload(1.0)).unwrap();
        let reader = ResultStore::open_read_only(&scratch.0);
        let fp = Fingerprint::of_value(&key(1));
        assert_eq!(reader.try_claim(fp).unwrap(), ClaimOutcome::Held(None));
        assert!(reader.evict_lru(0).unwrap().is_empty());
        assert!(reader.evict_older_than(u64::MAX).unwrap().is_empty());
        assert_eq!(reader.compact_hits_log().unwrap(), 0);
        assert_eq!(writer.entries().len(), 1, "nothing was evicted");
    }

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_byte_size("0"), Some(0));
        assert_eq!(parse_byte_size("4096"), Some(4096));
        assert_eq!(parse_byte_size("900k"), Some(900 * 1024));
        assert_eq!(parse_byte_size(" 2M "), Some(2 * 1024 * 1024));
        assert_eq!(parse_byte_size("1g"), Some(1 << 30));
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("k"), None);
        assert_eq!(parse_byte_size("12q"), None);
        assert_eq!(parse_byte_size("-5"), None);
    }
}
