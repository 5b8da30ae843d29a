//! Durable sweep execution: the append-only, CRC-checked cell journal.
//!
//! A multi-hour [`GridRun`](crate::runner::GridRun) used to be all-or-
//! nothing: a killed process lost every completed cell. This module is
//! the durability substrate behind
//! [`GridRun::checkpoint`](crate::runner::GridRun::checkpoint): each
//! finished cell is appended to a journal on disk, keyed by a canonical
//! content hash of everything that determines its result, and a
//! restarted run replays verified records instead of re-simulating.
//! [`ResultCache`] wraps the journal with in-flight coalescing; it is
//! the one key→report store, shared by `GridRun` and the `ohm-serve`
//! daemon.
//!
//! # Journal format (`ohm-journal v1`)
//!
//! A journal is a UTF-8 file with a one-line header followed by framed
//! records:
//!
//! ```text
//! ohm-journal v1
//! REC <key:016x> <payload-bytes> <crc32:08x>
//! <payload…>
//! REC …
//! ```
//!
//! The payload is a [`SimReport`] in the line-oriented codec below; the
//! CRC32 (IEEE) covers exactly the payload bytes. Records are appended
//! and flushed one at a time, so a `SIGKILL` can lose at most the
//! record being written. On open the tail is verified frame by frame: a
//! torn `REC` line, a short payload, or a CRC mismatch truncates the
//! file at the last verified record — a half-written tail can never
//! poison the store. A record that frames and CRC-verifies but does not
//! *decode* is a different animal (a journal written by an incompatible
//! build), and is reported as a hard [`JournalError::Malformed`] rather
//! than silently dropped.
//!
//! # Cell keys and canonicalization
//!
//! [`cell_key`] hashes the canonical forms of the
//! [`SystemConfig`] (its complete derived
//! `Debug` rendering — every field, no maps, deterministic; see
//! [`SystemConfig::canonical`]), the platform, the mode, and the
//! workload spec. Anything that can change a simulated result is in the
//! key; harness knobs that provably cannot (worker counts and the
//! profiling flag — results are bit-identical across all
//! of them, DESIGN.md §3.2) are deliberately not. Renaming or adding a
//! config field changes the canonical form and therefore the key, which
//! is the conservative behaviour a result cache wants: a config whose
//! *meaning* may have moved is re-simulated, never replayed.
//!
//! # Determinism contract
//!
//! The codec is bit-exact: every `f64` travels as its IEEE-754 bit
//! pattern, so `decode(encode(r)) == r` down to the last bit (including
//! NaN payloads and signed zeros). Combined with the simulator's own
//! determinism (same config ⇒ same report), a resumed grid is
//! bit-identical to an uninterrupted one — [`report_digest`] over the
//! rows is the golden assertion the test suite and the CI chaos job
//! both pin.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ohm_hetero::Platform;
use ohm_optic::OperationalMode;
use ohm_sim::Ps;
use ohm_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::json::{escape_json, unescape_json};
use crate::metrics::{
    EnergyReport, FaultReport, HostReport, PhaseRow, PhaseStageRow, PhaseSummary, PlannerWear,
    ResourceUtil, SimReport, StageRow, StageSummary, WearReport,
};
use crate::system::Stage;

/// Header line identifying a journal file and its format version.
pub const JOURNAL_HEADER: &str = "ohm-journal v1";

/// A problem opening or reading a journal.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file exists but does not start with [`JOURNAL_HEADER`]'s line
    /// and is not a strict prefix of it (the torn header a kill
    /// mid-create leaves, which reopens as a fresh journal) — either not
    /// a journal at all, or one written by an incompatible format
    /// version. Never truncated: refusing to touch it beats destroying a
    /// file the caller mis-pointed at.
    BadHeader {
        /// What the first line actually was.
        found: String,
    },
    /// A record framed and CRC-verified but its payload did not decode
    /// as a [`SimReport`] — a journal from an incompatible build.
    Malformed {
        /// 0-based record index within the journal.
        record: usize,
        /// What failed to decode.
        what: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadHeader { found } => write!(
                f,
                "not an `{JOURNAL_HEADER}` file (first line: {found:?}); refusing to touch it"
            ),
            JournalError::Malformed { record, what } => write!(
                f,
                "journal record {record} verified but did not decode ({what}); \
                 the journal was written by an incompatible build — delete it to re-run"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// How aggressively [`Journal::append`] pushes records to stable
/// storage — the durability knob behind the "≤ 1 record lost" claim.
///
/// Every append is `write + flush` regardless of policy, so once
/// `append` returns the operating system holds the full frame and a
/// `SIGKILL` of the *process* cannot lose it. The policies differ in
/// when the record reaches the *disk*: what survives a crash of the
/// host itself (power loss, kernel panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append: at most the record being written is
    /// lost even if the host crashes. The right choice for a long-lived
    /// daemon whose cache outlives any one process (`ohm-serve`).
    Always,
    /// One `fsync` when the journal closes (and on explicit
    /// [`Journal::sync`]). Process kills still lose at most one record;
    /// a host crash may lose everything since open. The default —
    /// matches the historical `GridRun::checkpoint` contract, where a
    /// lost journal merely costs re-simulation.
    #[default]
    OnClose,
}

impl FsyncPolicy {
    /// Parses the policy's command-line rendering (`always`/`on-close`).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "on-close" => Some(FsyncPolicy::OnClose),
            _ => None,
        }
    }

    /// The command-line rendering accepted by [`FsyncPolicy::parse`].
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::OnClose => "on-close",
        }
    }
}

/// An open checkpoint journal: the recovered in-memory index plus an
/// append handle positioned after the last verified record.
///
/// Appends are `write + flush` per record, so the operating system has
/// the full frame even if the process is later `SIGKILL`ed; whether the
/// record also reaches stable storage per append is the
/// [`FsyncPolicy`]. A torn record is truncated on the next open.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    entries: HashMap<u64, SimReport>,
    truncated_bytes: u64,
    fsync: FsyncPolicy,
    syncs: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path` with the default
    /// [`FsyncPolicy::OnClose`] durability.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures,
    /// [`JournalError::BadHeader`] when the file exists but is not a
    /// journal, and [`JournalError::Malformed`] when a CRC-valid record
    /// does not decode (incompatible build).
    pub fn open(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        Journal::open_with(path, FsyncPolicy::default())
    }

    /// [`Journal::open`] with an explicit [`FsyncPolicy`].
    ///
    /// # Errors
    ///
    /// As [`Journal::open`].
    pub fn open_with(path: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };

        // A kill while the header line was being written leaves a prefix
        // of the header without its newline (or nothing): no record was
        // ever appended, so the journal starts fresh.
        let fresh = JOURNAL_HEADER.as_bytes().starts_with(&bytes);
        let mut entries = HashMap::new();
        let mut verified_len = 0u64;
        if !fresh {
            let header_end = match bytes.iter().position(|&b| b == b'\n') {
                Some(i) if &bytes[..i] == JOURNAL_HEADER.as_bytes() => i + 1,
                _ => {
                    let found = String::from_utf8_lossy(
                        &bytes[..bytes
                            .iter()
                            .position(|&b| b == b'\n')
                            .unwrap_or(bytes.len().min(64))],
                    )
                    .into_owned();
                    return Err(JournalError::BadHeader { found });
                }
            };
            let mut pos = header_end;
            let mut record = 0usize;
            loop {
                match next_record(&bytes, pos) {
                    Frame::End => break,
                    Frame::Torn => break, // truncate at `pos`
                    Frame::Record { key, payload, next } => {
                        let text = match std::str::from_utf8(payload) {
                            Ok(t) => t,
                            Err(_) => {
                                return Err(JournalError::Malformed {
                                    record,
                                    what: "payload is not UTF-8".into(),
                                })
                            }
                        };
                        let report = decode_report(text)
                            .map_err(|what| JournalError::Malformed { record, what })?;
                        entries.insert(key, report);
                        pos = next;
                        record += 1;
                    }
                }
            }
            verified_len = pos as u64;
        }

        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        let truncated_bytes = if fresh {
            // One write from offset 0, which also overwrites a torn
            // header prefix, so a kill here can only tear it again.
            file.write_all(format!("{JOURNAL_HEADER}\n").as_bytes())?;
            file.flush()?;
            bytes.len() as u64
        } else {
            let torn = bytes.len() as u64 - verified_len;
            if torn > 0 {
                file.set_len(verified_len)?;
            }
            torn
        };
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Journal {
            path,
            file,
            entries,
            truncated_bytes,
            fsync,
            syncs: 0,
        })
    }

    /// The verified report stored for `key`, if any.
    pub fn get(&self, key: u64) -> Option<&SimReport> {
        self.entries.get(&key)
    }

    /// Number of verified records recovered or appended so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes of torn/corrupt tail discarded when the journal was
    /// opened, a torn header line included (0 for a clean journal or a
    /// new file).
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// The path this journal lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to the operating system, so a
    /// `SIGKILL` after this call returns cannot lose the record. Under
    /// [`FsyncPolicy::Always`] the record is additionally `fsync`ed to
    /// stable storage before this returns.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the write, flush, or sync fails.
    pub fn append(&mut self, key: u64, report: &SimReport) -> Result<(), JournalError> {
        let payload = encode_report(report);
        let frame = format!(
            "REC {key:016x} {} {:08x}\n",
            payload.len(),
            crc32(payload.as_bytes())
        );
        self.file.write_all(frame.as_bytes())?;
        self.file.write_all(payload.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        if self.fsync == FsyncPolicy::Always {
            self.sync()?;
        }
        self.entries.insert(key, report.clone());
        Ok(())
    }

    /// Forces everything appended so far to stable storage (`fsync`).
    /// Called automatically per append under [`FsyncPolicy::Always`] and
    /// once on drop under [`FsyncPolicy::OnClose`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    /// The durability policy this journal was opened with.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// Number of `fsync`s issued since open — one per append under
    /// [`FsyncPolicy::Always`], normally zero until close under
    /// [`FsyncPolicy::OnClose`]. Observability for the durability tests.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl Drop for Journal {
    /// Best-effort close-time `fsync` under [`FsyncPolicy::OnClose`]
    /// (every record was already flushed to the OS per append; callers
    /// that must *know* the data is on disk call [`Journal::sync`]).
    fn drop(&mut self) {
        if self.fsync == FsyncPolicy::OnClose {
            let _ = self.sync();
        }
    }
}

/// Outcome of [`ResultCache::claim`] for one cell key.
#[derive(Debug)]
pub enum Claim {
    /// The result is already cached — serve it, simulate nothing.
    /// (Boxed: a `SimReport` dwarfs the other variants.)
    Hit(Box<SimReport>),
    /// The caller now owns this key and must simulate it, then call
    /// [`ResultCache::complete`] (or [`ResultCache::abandon`] on
    /// failure).
    Owner,
    /// Another worker is simulating this key right now; the caller's
    /// ticket was parked and will be returned by the owner's
    /// `complete`/`abandon`.
    Parked,
}

/// Cache counters, snapshot via [`ResultCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Claims served from the cache (journal-recovered or computed
    /// earlier in this process).
    pub hits: u64,
    /// Claims that became owners — each one is exactly one simulation
    /// started.
    pub misses: u64,
    /// Claims parked behind an in-flight owner — overlap coalesced away
    /// without re-simulation.
    pub coalesced: u64,
    /// Verified records recovered from the journal at open.
    pub recovered: usize,
    /// Bytes of torn journal tail discarded at open.
    pub truncated_bytes: u64,
}

/// Mutable cache state: the journal (disk + in-memory index) plus the
/// in-flight ownership table with its parked tickets.
struct CacheState<T> {
    journal: Journal,
    /// Keys currently being simulated, each with the tickets parked
    /// behind its owner.
    inflight: HashMap<u64, Vec<T>>,
}

/// The one journal-backed store from cell key to [`SimReport`], behind
/// both [`GridRun::checkpoint`](crate::runner::GridRun::checkpoint) and
/// the `ohm-serve` daemon.
///
/// Results are keyed by [`CellSpec::key`] and appended to a [`Journal`],
/// which gives three properties:
///
/// * **Sharing.** Claims of a stored key are served from memory with
///   zero re-simulation — across jobs, clients, or a resumed grid.
/// * **In-flight coalescing.** A key that is *being* simulated is not
///   re-simulated for a second claimant: the claim parks until the owner
///   completes.
/// * **Restart durability.** The journal replays on open, so a
///   `SIGKILL`ed process resumes bit-identically (torn tails are
///   truncated by the journal's CRC recovery).
///
/// `T` is the caller's ticket type — whatever it needs to resume a
/// parked claim (the daemon parks whole tasks, a grid parks a cell
/// index).
pub struct ResultCache<T> {
    state: Mutex<CacheState<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    recovered: usize,
    truncated_bytes: u64,
}

impl<T> ResultCache<T> {
    /// Opens (or creates) the cache backed by the journal at `path`,
    /// recovering every verified record.
    ///
    /// # Errors
    ///
    /// As [`Journal::open_with`] — I/O failures, a non-journal file, or
    /// a journal from an incompatible build.
    pub fn open(
        path: impl AsRef<Path>,
        fsync: FsyncPolicy,
    ) -> Result<ResultCache<T>, JournalError> {
        let journal = Journal::open_with(path, fsync)?;
        let recovered = journal.len();
        let truncated_bytes = journal.truncated_bytes();
        Ok(ResultCache {
            state: Mutex::new(CacheState {
                journal,
                inflight: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            recovered,
            truncated_bytes,
        })
    }

    /// Claims `key`: a cached result, ownership of the simulation, or a
    /// parked ticket — atomically, so exactly one concurrent claimant
    /// of an uncached key becomes the owner and nobody re-simulates a
    /// key that is cached or in flight.
    pub fn claim(&self, key: u64, ticket: T) -> Claim {
        let mut state = self.state.lock().expect("cache lock");
        if let Some(report) = state.journal.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Claim::Hit(Box::new(report.clone()));
        }
        match state.inflight.get_mut(&key) {
            Some(parked) => {
                parked.push(ticket);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Claim::Parked
            }
            None => {
                state.inflight.insert(key, Vec::new());
                self.misses.fetch_add(1, Ordering::Relaxed);
                Claim::Owner
            }
        }
    }

    /// Publishes the owner's result: journals it (honouring the
    /// [`FsyncPolicy`]), releases the key, and returns the parked
    /// tickets (their next [`ResultCache::claim`] is a hit).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the append fails; the tickets are still
    /// returned.
    pub fn complete(&self, key: u64, report: &SimReport) -> (Vec<T>, Result<(), JournalError>) {
        let mut state = self.state.lock().expect("cache lock");
        let appended = state.journal.append(key, report);
        let parked = state.inflight.remove(&key).unwrap_or_default();
        (parked, appended)
    }

    /// Releases `key` without a result (the owner's simulation failed).
    /// Returns the parked tickets; the first to re-claim becomes the
    /// next owner, so a transiently failing cell can still converge
    /// while a deterministically failing one fails per claimant.
    pub fn abandon(&self, key: u64) -> Vec<T> {
        let mut state = self.state.lock().expect("cache lock");
        state.inflight.remove(&key).unwrap_or_default()
    }

    /// Number of distinct results stored.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock").journal.len()
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            recovered: self.recovered,
            truncated_bytes: self.truncated_bytes,
        }
    }
}

/// One parsed frame during recovery.
enum Frame<'a> {
    /// Clean end of file.
    End,
    /// Incomplete or corrupt frame — truncate here.
    Torn,
    /// A verified record.
    Record {
        key: u64,
        payload: &'a [u8],
        next: usize,
    },
}

/// Parses the frame starting at `pos`, verifying its CRC.
fn next_record(bytes: &[u8], pos: usize) -> Frame<'_> {
    if pos >= bytes.len() {
        return Frame::End;
    }
    let rest = &bytes[pos..];
    let Some(line_end) = rest.iter().position(|&b| b == b'\n') else {
        return Frame::Torn;
    };
    let Ok(line) = std::str::from_utf8(&rest[..line_end]) else {
        return Frame::Torn;
    };
    let mut parts = line.split(' ');
    let (Some("REC"), Some(key), Some(len), Some(crc), None) = (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) else {
        return Frame::Torn;
    };
    let (Ok(key), Ok(len), Ok(crc)) = (
        u64::from_str_radix(key, 16),
        len.parse::<usize>(),
        u32::from_str_radix(crc, 16),
    ) else {
        return Frame::Torn;
    };
    let body = &rest[line_end + 1..];
    // Payload plus its terminating newline must both be present.
    if body.len() < len + 1 || body[len] != b'\n' {
        return Frame::Torn;
    }
    let payload = &body[..len];
    if crc32(payload) != crc {
        return Frame::Torn;
    }
    Frame::Record {
        key,
        payload,
        next: pos + line_end + 1 + len + 1,
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the per-record
/// integrity check. Bitwise implementation; journal records are small
/// and written once per simulated cell, so table-free is plenty.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a over `bytes` — the 64-bit content hash behind [`cell_key`]
/// and [`report_digest`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical content form of one grid cell — the single string
/// every cache layer hashes. `\x1f` separators keep field boundaries
/// unambiguous even if a rendering ever ends with a digit the next one
/// starts with.
fn canonical_cell(
    cfg: &SystemConfig,
    platform: Platform,
    mode: OperationalMode,
    spec: &WorkloadSpec,
) -> String {
    format!(
        "{}\x1f{:?}\x1f{mode:?}\x1f{spec:?}",
        cfg.canonical(),
        platform
    )
}

/// The canonical content key of one grid cell: everything that
/// determines its simulated result, nothing that cannot (see the module
/// docs for the canonicalization rules). Borrowed-view twin of
/// [`CellSpec::key`] — both hash the same canonical form, so a key
/// computed either way addresses the same journal record.
pub fn cell_key(
    cfg: &SystemConfig,
    platform: Platform,
    mode: OperationalMode,
    spec: &WorkloadSpec,
) -> u64 {
    fnv1a(canonical_cell(cfg, platform, mode, spec).as_bytes())
}

/// One simulation cell as a value: the full (config, platform, mode,
/// workload) tuple that determines a [`SimReport`], with its canonical
/// content hash.
///
/// This is the cache contract in one type. [`GridRun`] keys journal
/// records by it, the `ohm-serve` daemon keys its shared result cache
/// by it, and [`Run`] executes exactly one of it — all through the same
/// [`CellSpec::key`] (identical to [`cell_key`] over the same inputs),
/// so a result computed by any layer is addressable by every other.
///
/// [`GridRun`]: crate::runner::GridRun
/// [`Run`]: crate::runner::Run
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Full system configuration (hashed via
    /// [`SystemConfig::canonical`]).
    pub config: SystemConfig,
    /// Platform simulated in this cell.
    pub platform: Platform,
    /// Heterogeneous-memory operational mode.
    pub mode: OperationalMode,
    /// Workload descriptor (name, APKI, pattern, footprint).
    pub workload: WorkloadSpec,
}

impl CellSpec {
    /// Bundles one cell's inputs.
    pub fn new(
        config: SystemConfig,
        platform: Platform,
        mode: OperationalMode,
        workload: WorkloadSpec,
    ) -> CellSpec {
        CellSpec {
            config,
            platform,
            mode,
            workload,
        }
    }

    /// The canonical content form this cell hashes to — see the module
    /// docs for what is (and deliberately is not) included.
    pub fn canonical(&self) -> String {
        canonical_cell(&self.config, self.platform, self.mode, &self.workload)
    }

    /// The cell's content-addressed cache key: FNV-1a over
    /// [`CellSpec::canonical`]. Identical to [`cell_key`] over the same
    /// inputs.
    pub fn key(&self) -> u64 {
        cell_key(&self.config, self.platform, self.mode, &self.workload)
    }

    /// A [`Run`](crate::runner::Run) configured to execute exactly this
    /// cell — the one typed job-execution surface shared by the grid
    /// runner and the daemon.
    pub fn run(&self) -> crate::runner::Run<'_> {
        crate::runner::Run::new(&self.config)
            .platform(self.platform)
            .mode(self.mode)
            .workload(&self.workload)
    }
}

/// Bit-exact digest of one report — FNV-1a over its canonical encoding.
/// Two reports share a digest iff every field (every `f64` bit) agrees.
pub fn report_digest(report: &SimReport) -> u64 {
    fnv1a(encode_report(report).as_bytes())
}

/// Order-sensitive digest of a whole grid (rows of reports) — the
/// golden assertion that a resumed sweep equals an uninterrupted one.
pub fn grid_digest<'a>(rows: impl IntoIterator<Item = &'a SimReport>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in rows {
        let d = report_digest(r);
        h = (h ^ d).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// SimReport codec
// ---------------------------------------------------------------------

/// Renders an `f64` as its exact bit pattern.
fn fx(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Encodes a report in the journal's line-oriented, bit-exact form.
/// Free-form strings are JSON-escaped and placed *last* on their line
/// (names may contain spaces); every `f64` travels as its bit pattern.
pub fn encode_report(r: &SimReport) -> String {
    let mut o = String::with_capacity(512);
    let _ = writeln!(o, "platform {}", escape_json(r.platform.name()));
    let _ = writeln!(o, "mode {:?}", r.mode);
    let _ = writeln!(o, "workload {}", escape_json(&r.workload));
    let _ = writeln!(o, "makespan {}", r.makespan.as_ps());
    let _ = writeln!(o, "instructions {}", r.instructions);
    let _ = writeln!(o, "ipc {}", fx(r.ipc));
    let _ = writeln!(o, "mem_requests {}", r.mem_requests);
    let _ = writeln!(o, "avg_mem_latency_ns {}", fx(r.avg_mem_latency_ns));
    let _ = writeln!(o, "l1_hit_rate {}", fx(r.l1_hit_rate));
    let _ = writeln!(o, "l2_hit_rate {}", fx(r.l2_hit_rate));
    let _ = writeln!(o, "hetero_dram_hit_rate {}", fx(r.hetero_dram_hit_rate));
    let _ = writeln!(
        o,
        "migration_channel_fraction {}",
        fx(r.migration_channel_fraction)
    );
    let _ = writeln!(o, "migrations {}", r.migrations);
    let _ = writeln!(o, "channel_utilization {}", fx(r.channel_utilization));
    let _ = writeln!(o, "channel_bits {} {}", r.channel_bits.0, r.channel_bits.1);
    let _ = writeln!(
        o,
        "energy {} {} {} {}",
        fx(r.energy.dma_j),
        fx(r.energy.dram_static_j),
        fx(r.energy.dram_dynamic_j),
        fx(r.energy.xpoint_j)
    );
    let _ = writeln!(o, "wear_imbalance {}", fx(r.wear_imbalance));
    match &r.host {
        None => {
            let _ = writeln!(o, "host none");
        }
        Some(h) => {
            let _ = writeln!(
                o,
                "host {} {} {} {} {}",
                h.storage_busy.as_ps(),
                h.dma_busy.as_ps(),
                h.staged_in,
                h.staged_out,
                h.bytes_moved
            );
        }
    }
    match &r.faults {
        None => {
            let _ = writeln!(o, "faults none");
        }
        Some(ft) => {
            let _ = writeln!(
                o,
                "faults {} {} {} {} {} {} {} {} {}",
                ft.corrupted_transfers,
                ft.retransmissions,
                ft.retx_exhausted,
                ft.mrr_faults,
                ft.rearbitrations,
                ft.electrical_fallbacks,
                ft.media_stalls,
                ft.media_retries,
                ft.poisoned_lines
            );
        }
    }
    match &r.wear {
        None => {
            let _ = writeln!(o, "wear none");
        }
        Some(w) => {
            let _ = writeln!(
                o,
                "wear {} {} {} {} {} {} {} {}",
                w.retired_lines,
                w.spares_used,
                w.spares_total,
                w.ecc_corrected,
                w.ecc_uncorrectable,
                w.dead_lines,
                fx(w.usable_capacity),
                w.capacity_curve.len()
            );
            for (when, frac) in &w.capacity_curve {
                let _ = writeln!(o, "wear.curve {} {}", when.as_ps(), fx(*frac));
            }
            match &w.planner {
                None => {
                    let _ = writeln!(o, "wear.planner none");
                }
                Some(p) => {
                    let _ = writeln!(
                        o,
                        "wear.planner {} {} {}",
                        p.pinned,
                        fx(p.usable_fraction),
                        fx(p.effective_ratio)
                    );
                }
            }
        }
    }
    match &r.stages {
        None => {
            let _ = writeln!(o, "stages none");
        }
        Some(s) => {
            let _ = writeln!(
                o,
                "stages {} {} {}",
                s.dropped_events,
                s.stages.len(),
                s.utilization.len()
            );
            for row in &s.stages {
                let _ = writeln!(
                    o,
                    "stage {} {} {} {} {}",
                    row.count,
                    fx(row.mean_ns),
                    fx(row.p50_ns),
                    fx(row.p99_ns),
                    escape_json(row.name)
                );
            }
            for u in &s.utilization {
                let _ = writeln!(
                    o,
                    "util {} {} {} {}",
                    fx(u.busy_us),
                    fx(u.mean_utilization),
                    fx(u.peak_utilization),
                    escape_json(&u.name)
                );
            }
        }
    }
    match &r.phases {
        None => {
            let _ = writeln!(o, "phases none");
        }
        Some(p) => {
            let _ = writeln!(o, "phases {}", p.phases.len());
            for row in &p.phases {
                let _ = writeln!(
                    o,
                    "phase {} {} {} {} {} {} {} {} {} {} {} {}",
                    row.instructions,
                    fx(row.ipc),
                    row.span.0.as_ps(),
                    row.span.1.as_ps(),
                    row.mem_requests,
                    fx(row.avg_mem_latency_ns),
                    fx(row.avg_slice_latency_ns),
                    row.dram_served,
                    row.xpoint_served,
                    fx(row.dram_hit_rate),
                    row.stages.len(),
                    escape_json(&row.name)
                );
                for s in &row.stages {
                    let _ = writeln!(
                        o,
                        "pstage {} {} {}",
                        s.count,
                        fx(s.mean_ns),
                        escape_json(s.name)
                    );
                }
            }
        }
    }
    o
}

/// Sequential field reader over an encoded report.
struct Fields<'a> {
    lines: std::str::Lines<'a>,
}

type DecodeResult<T> = Result<T, String>;

impl<'a> Fields<'a> {
    /// Consumes the next line, checks its `key`, and returns the
    /// space-separated values after it.
    fn line(&mut self, key: &str) -> DecodeResult<&'a str> {
        let line = self.lines.next().ok_or_else(|| format!("missing {key}"))?;
        line.strip_prefix(key)
            .and_then(|rest| {
                rest.strip_prefix(' ')
                    .or(Some("").filter(|_| rest.is_empty()))
            })
            .ok_or_else(|| format!("expected `{key}`, found {line:?}"))
    }
}

fn parse_u64(s: &str, what: &str) -> DecodeResult<u64> {
    s.parse().map_err(|_| format!("bad u64 for {what}: {s:?}"))
}

fn parse_usize(s: &str, what: &str) -> DecodeResult<usize> {
    s.parse()
        .map_err(|_| format!("bad count for {what}: {s:?}"))
}

fn parse_f64(s: &str, what: &str) -> DecodeResult<f64> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bits for {what}: {s:?}"))
}

fn parse_ps(s: &str, what: &str) -> DecodeResult<Ps> {
    parse_u64(s, what).map(Ps::from_ps)
}

fn parse_name(s: &str, what: &str) -> DecodeResult<String> {
    unescape_json(s).ok_or_else(|| format!("bad escape in {what}: {s:?}"))
}

/// Splits a line into exactly `n` leading fields plus the remainder
/// (which may contain spaces — names go last).
fn split_n<'a>(line: &'a str, n: usize, what: &str) -> DecodeResult<(Vec<&'a str>, &'a str)> {
    let mut rest = line;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let (head, tail) = rest
            .split_once(' ')
            .ok_or_else(|| format!("short {what} line: {line:?}"))?;
        fields.push(head);
        rest = tail;
    }
    Ok((fields, rest))
}

/// Splits a fixed-arity line into exactly `n` fields (no free-form
/// tail allowed).
fn split_exact<'a>(line: &'a str, n: usize, what: &str) -> DecodeResult<Vec<&'a str>> {
    let fields: Vec<&str> = line.split(' ').collect();
    if fields.len() != n {
        return Err(format!(
            "{what} line has {} fields, expected {n}: {line:?}",
            fields.len()
        ));
    }
    Ok(fields)
}

/// Maps a decoded stage name back to the `'static` taxonomy name.
fn static_stage_name(name: &str) -> DecodeResult<&'static str> {
    Stage::ALL
        .iter()
        .map(|s| s.name())
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown stage name {name:?}"))
}

/// Decodes a report previously produced by [`encode_report`].
///
/// # Errors
///
/// A human-readable description of the first field that failed — the
/// journal surfaces it inside [`JournalError::Malformed`].
pub fn decode_report(text: &str) -> DecodeResult<SimReport> {
    let mut f = Fields {
        lines: text.lines(),
    };

    let platform_name = parse_name(f.line("platform")?, "platform")?;
    let platform = Platform::ALL
        .iter()
        .copied()
        .find(|p| p.name() == platform_name)
        .ok_or_else(|| format!("unknown platform {platform_name:?}"))?;
    let mode = match f.line("mode")? {
        "Planar" => OperationalMode::Planar,
        "TwoLevel" => OperationalMode::TwoLevel,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let workload = parse_name(f.line("workload")?, "workload")?;
    let makespan = parse_ps(f.line("makespan")?, "makespan")?;
    let instructions = parse_u64(f.line("instructions")?, "instructions")?;
    let ipc = parse_f64(f.line("ipc")?, "ipc")?;
    let mem_requests = parse_u64(f.line("mem_requests")?, "mem_requests")?;
    let avg_mem_latency_ns = parse_f64(f.line("avg_mem_latency_ns")?, "avg_mem_latency_ns")?;
    let l1_hit_rate = parse_f64(f.line("l1_hit_rate")?, "l1_hit_rate")?;
    let l2_hit_rate = parse_f64(f.line("l2_hit_rate")?, "l2_hit_rate")?;
    let hetero_dram_hit_rate = parse_f64(f.line("hetero_dram_hit_rate")?, "hetero_dram_hit_rate")?;
    let migration_channel_fraction = parse_f64(
        f.line("migration_channel_fraction")?,
        "migration_channel_fraction",
    )?;
    let migrations = parse_u64(f.line("migrations")?, "migrations")?;
    let channel_utilization = parse_f64(f.line("channel_utilization")?, "channel_utilization")?;
    let bits = split_exact(f.line("channel_bits")?, 2, "channel_bits")?;
    let channel_bits = (
        parse_u64(bits[0], "channel_bits.0")?,
        parse_u64(bits[1], "channel_bits.1")?,
    );
    let e = split_exact(f.line("energy")?, 4, "energy")?;
    let energy = EnergyReport {
        dma_j: parse_f64(e[0], "energy.dma_j")?,
        dram_static_j: parse_f64(e[1], "energy.dram_static_j")?,
        dram_dynamic_j: parse_f64(e[2], "energy.dram_dynamic_j")?,
        xpoint_j: parse_f64(e[3], "energy.xpoint_j")?,
    };
    let wear_imbalance = parse_f64(f.line("wear_imbalance")?, "wear_imbalance")?;

    let host = match f.line("host")? {
        "none" => None,
        line => {
            let h = split_exact(line, 5, "host")?;
            Some(HostReport {
                storage_busy: parse_ps(h[0], "host.storage_busy")?,
                dma_busy: parse_ps(h[1], "host.dma_busy")?,
                staged_in: parse_u64(h[2], "host.staged_in")?,
                staged_out: parse_u64(h[3], "host.staged_out")?,
                bytes_moved: parse_u64(h[4], "host.bytes_moved")?,
            })
        }
    };

    let faults = match f.line("faults")? {
        "none" => None,
        line => {
            let t = split_exact(line, 9, "faults")?;
            let n = |i: usize, what| parse_u64(t[i], what);
            Some(FaultReport {
                corrupted_transfers: n(0, "faults.corrupted")?,
                retransmissions: n(1, "faults.retx")?,
                retx_exhausted: n(2, "faults.exhausted")?,
                mrr_faults: n(3, "faults.mrr")?,
                rearbitrations: n(4, "faults.rearb")?,
                electrical_fallbacks: n(5, "faults.fallback")?,
                media_stalls: n(6, "faults.stalls")?,
                media_retries: n(7, "faults.retries")?,
                poisoned_lines: n(8, "faults.poisoned")?,
            })
        }
    };

    let wear = match f.line("wear")? {
        "none" => None,
        line => {
            let w = split_exact(line, 8, "wear")?;
            let curve_len = parse_usize(w[7], "wear.curve count")?;
            let mut capacity_curve = Vec::with_capacity(curve_len.min(4096));
            for _ in 0..curve_len {
                let c = split_exact(f.line("wear.curve")?, 2, "wear.curve")?;
                capacity_curve.push((
                    parse_ps(c[0], "wear.curve.when")?,
                    parse_f64(c[1], "wear.curve.frac")?,
                ));
            }
            let planner = match f.line("wear.planner")? {
                "none" => None,
                pline => {
                    let p = split_exact(pline, 3, "wear.planner")?;
                    Some(PlannerWear {
                        pinned: parse_u64(p[0], "wear.planner.pinned")?,
                        usable_fraction: parse_f64(p[1], "wear.planner.usable")?,
                        effective_ratio: parse_f64(p[2], "wear.planner.ratio")?,
                    })
                }
            };
            Some(WearReport {
                retired_lines: parse_u64(w[0], "wear.retired")?,
                spares_used: parse_u64(w[1], "wear.spares_used")?,
                spares_total: parse_u64(w[2], "wear.spares_total")?,
                ecc_corrected: parse_u64(w[3], "wear.ecc_c")?,
                ecc_uncorrectable: parse_u64(w[4], "wear.ecc_u")?,
                dead_lines: parse_u64(w[5], "wear.dead")?,
                usable_capacity: parse_f64(w[6], "wear.usable")?,
                capacity_curve,
                planner,
            })
        }
    };

    let stages = match f.line("stages")? {
        "none" => None,
        line => {
            let s = split_exact(line, 3, "stages")?;
            let dropped_events = parse_u64(s[0], "stages.dropped")?;
            let nstages = parse_usize(s[1], "stages count")?;
            let nutil = parse_usize(s[2], "util count")?;
            let mut rows = Vec::with_capacity(nstages.min(4096));
            for _ in 0..nstages {
                let (v, name) = split_n(f.line("stage")?, 4, "stage")?;
                rows.push(StageRow {
                    name: static_stage_name(&parse_name(name, "stage.name")?)?,
                    count: parse_u64(v[0], "stage.count")?,
                    mean_ns: parse_f64(v[1], "stage.mean")?,
                    p50_ns: parse_f64(v[2], "stage.p50")?,
                    p99_ns: parse_f64(v[3], "stage.p99")?,
                });
            }
            let mut utilization = Vec::with_capacity(nutil.min(4096));
            for _ in 0..nutil {
                let (v, name) = split_n(f.line("util")?, 3, "util")?;
                utilization.push(ResourceUtil {
                    name: parse_name(name, "util.name")?,
                    busy_us: parse_f64(v[0], "util.busy")?,
                    mean_utilization: parse_f64(v[1], "util.mean")?,
                    peak_utilization: parse_f64(v[2], "util.peak")?,
                });
            }
            Some(StageSummary {
                stages: rows,
                utilization,
                dropped_events,
            })
        }
    };

    let phases = match f.line("phases")? {
        "none" => None,
        line => {
            let nrows = parse_usize(line, "phases count")?;
            let mut rows = Vec::with_capacity(nrows.min(4096));
            for _ in 0..nrows {
                let (v, name) = split_n(f.line("phase")?, 11, "phase")?;
                let nstages = parse_usize(v[10], "phase stage count")?;
                let mut pstages = Vec::with_capacity(nstages.min(4096));
                for _ in 0..nstages {
                    let (pv, pname) = split_n(f.line("pstage")?, 2, "pstage")?;
                    pstages.push(PhaseStageRow {
                        name: static_stage_name(&parse_name(pname, "pstage.name")?)?,
                        count: parse_u64(pv[0], "pstage.count")?,
                        mean_ns: parse_f64(pv[1], "pstage.mean")?,
                    });
                }
                rows.push(PhaseRow {
                    name: parse_name(name, "phase.name")?,
                    instructions: parse_u64(v[0], "phase.instructions")?,
                    ipc: parse_f64(v[1], "phase.ipc")?,
                    span: (
                        parse_ps(v[2], "phase.span.0")?,
                        parse_ps(v[3], "phase.span.1")?,
                    ),
                    mem_requests: parse_u64(v[4], "phase.mem_requests")?,
                    avg_mem_latency_ns: parse_f64(v[5], "phase.avg_mem")?,
                    avg_slice_latency_ns: parse_f64(v[6], "phase.avg_slice")?,
                    dram_served: parse_u64(v[7], "phase.dram")?,
                    xpoint_served: parse_u64(v[8], "phase.xpoint")?,
                    dram_hit_rate: parse_f64(v[9], "phase.dram_hit")?,
                    stages: pstages,
                });
            }
            Some(PhaseSummary { phases: rows })
        }
    };

    if let Some(extra) = f.lines.next() {
        return Err(format!("trailing line after report: {extra:?}"));
    }

    Ok(SimReport {
        platform,
        mode,
        workload,
        makespan,
        instructions,
        ipc,
        mem_requests,
        avg_mem_latency_ns,
        l1_hit_rate,
        l2_hit_rate,
        hetero_dram_hit_rate,
        migration_channel_fraction,
        migrations,
        channel_utilization,
        channel_bits,
        energy,
        host,
        wear_imbalance,
        stages,
        faults,
        wear,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic report with every optional section populated and
    /// adversarial floats (NaN, -0.0, subnormal) — the codec must carry
    /// all of them bit-exactly.
    fn full_report() -> SimReport {
        SimReport {
            platform: Platform::OhmWom,
            mode: OperationalMode::TwoLevel,
            workload: "pager\"ank\\with spaces\n".into(),
            makespan: Ps::from_ps(u64::MAX - 3),
            instructions: 123_456,
            ipc: f64::NAN,
            mem_requests: 789,
            avg_mem_latency_ns: -0.0,
            l1_hit_rate: f64::from_bits(1), // smallest subnormal
            l2_hit_rate: 0.75,
            hetero_dram_hit_rate: f64::INFINITY,
            migration_channel_fraction: 0.125,
            migrations: 42,
            channel_utilization: 0.5,
            channel_bits: (u64::MAX, 0),
            energy: EnergyReport {
                dma_j: 1.0e-300,
                dram_static_j: 2.5,
                dram_dynamic_j: -3.5,
                xpoint_j: 0.0,
            },
            host: Some(HostReport {
                storage_busy: Ps::from_ps(7),
                dma_busy: Ps::from_ps(8),
                staged_in: 9,
                staged_out: 10,
                bytes_moved: 11,
            }),
            wear_imbalance: 1.0,
            stages: Some(StageSummary {
                stages: vec![StageRow {
                    name: Stage::CtrlQueue.name(),
                    count: 3,
                    mean_ns: 1.5,
                    p50_ns: 1.0,
                    p99_ns: 9.0,
                }],
                utilization: vec![ResourceUtil {
                    name: "mc3 CtrlQueue".into(),
                    busy_us: 0.25,
                    mean_utilization: 0.5,
                    peak_utilization: 1.0,
                }],
                dropped_events: 17,
            }),
            faults: Some(FaultReport {
                corrupted_transfers: 1,
                retransmissions: 2,
                retx_exhausted: 3,
                mrr_faults: 4,
                rearbitrations: 5,
                electrical_fallbacks: 6,
                media_stalls: 7,
                media_retries: 8,
                poisoned_lines: 9,
            }),
            wear: Some(WearReport {
                retired_lines: 1,
                spares_used: 2,
                spares_total: 3,
                ecc_corrected: 4,
                ecc_uncorrectable: 5,
                dead_lines: 6,
                usable_capacity: 0.9,
                capacity_curve: vec![(Ps::from_ps(1), 1.0), (Ps::from_ps(2), 0.5)],
                planner: Some(PlannerWear {
                    pinned: 12,
                    usable_fraction: 0.8,
                    effective_ratio: 6.4,
                }),
            }),
            phases: Some(PhaseSummary {
                phases: vec![PhaseRow {
                    name: "prefill gemm".into(),
                    instructions: 1000,
                    ipc: 3.5,
                    span: (Ps::from_ps(10), Ps::from_ps(20)),
                    mem_requests: 30,
                    avg_mem_latency_ns: 100.0,
                    avg_slice_latency_ns: 50.0,
                    dram_served: 20,
                    xpoint_served: 10,
                    dram_hit_rate: 2.0 / 3.0,
                    stages: vec![PhaseStageRow {
                        name: Stage::DeviceXPoint.name(),
                        count: 10,
                        mean_ns: 190.0,
                    }],
                }],
            }),
        }
    }

    /// A minimal report with every optional section absent.
    fn bare_report() -> SimReport {
        SimReport {
            host: None,
            stages: None,
            faults: None,
            wear: None,
            phases: None,
            workload: "lud".into(),
            ..full_report()
        }
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        for r in [full_report(), bare_report()] {
            let text = encode_report(&r);
            let back = decode_report(&text).expect("decodes");
            // PartialEq would reject the NaN field; compare re-encodings,
            // which carry every f64 as its bit pattern.
            assert_eq!(encode_report(&back), text);
            assert_eq!(report_digest(&back), report_digest(&r));
        }
    }

    #[test]
    fn decode_rejects_tampered_fields() {
        let good = encode_report(&bare_report());
        // Unknown platform.
        let bad = good.replacen("platform Ohm-WOM", "platform Om-NOM", 1);
        assert!(decode_report(&bad).unwrap_err().contains("platform"));
        // Unknown stage name in a full report.
        let full = encode_report(&full_report());
        let bad = full.replacen("ctrl-queue", "warp-queue", 1);
        assert!(decode_report(&bad).unwrap_err().contains("stage"));
        // Truncated payload.
        let cut = &good[..good.len() / 2];
        assert!(decode_report(cut).is_err());
        // Trailing junk.
        let mut long = good.clone();
        long.push_str("extra line\n");
        assert!(decode_report(&long).unwrap_err().contains("trailing"));
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn cell_key_separates_configs_and_cells() {
        let cfg = SystemConfig::quick_test();
        let spec = ohm_workloads::workload_by_name("lud").unwrap();
        let base = cell_key(&cfg, Platform::OhmBase, OperationalMode::Planar, &spec);
        // Same inputs, same key.
        assert_eq!(
            base,
            cell_key(&cfg, Platform::OhmBase, OperationalMode::Planar, &spec)
        );
        // Any axis moving changes the key.
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert_ne!(
            base,
            cell_key(&other, Platform::OhmBase, OperationalMode::Planar, &spec)
        );
        assert_ne!(
            base,
            cell_key(&cfg, Platform::Oracle, OperationalMode::Planar, &spec)
        );
        assert_ne!(
            base,
            cell_key(&cfg, Platform::OhmBase, OperationalMode::TwoLevel, &spec)
        );
        let fat = spec.with_footprint(spec.footprint_bytes * 2);
        assert_ne!(
            base,
            cell_key(&cfg, Platform::OhmBase, OperationalMode::Planar, &fat)
        );
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ohm-journal-unit-{}-{name}.ohmj",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn journal_persists_and_recovers_records() {
        let path = tmp_path("persist");
        let (a, b) = (full_report(), bare_report());
        {
            let mut j = Journal::open(&path).unwrap();
            assert!(j.is_empty());
            j.append(1, &a).unwrap();
            j.append(2, &b).unwrap();
            assert_eq!(j.len(), 2);
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.truncated_bytes(), 0);
        assert_eq!(
            report_digest(j.get(1).unwrap()),
            report_digest(&a),
            "recovered record must be bit-identical"
        );
        assert_eq!(report_digest(j.get(2).unwrap()), report_digest(&b));
        assert!(j.get(3).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_then_appendable() {
        let path = tmp_path("torn");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(1, &bare_report()).unwrap();
            j.append(2, &full_report()).unwrap();
        }
        // Tear the final record in half — a mid-write SIGKILL.
        let bytes = std::fs::read(&path).unwrap();
        let torn_at = bytes.len() - 40;
        std::fs::write(&path, &bytes[..torn_at]).unwrap();

        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1, "torn tail record dropped");
        assert!(j.truncated_bytes() > 0);
        assert!(j.get(1).is_some() && j.get(2).is_none());
        // The file was physically truncated and stays appendable.
        j.append(2, &full_report()).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.truncated_bytes(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_tail_crc_is_truncated() {
        let path = tmp_path("crc");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(1, &bare_report()).unwrap();
            j.append(2, &bare_report()).unwrap();
        }
        // Flip one payload byte of the *last* record.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1, "CRC-corrupt tail dropped");
        assert!(j.truncated_bytes() > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_refused_not_destroyed() {
        let path = tmp_path("foreign");
        std::fs::write(&path, "important data, definitely not a journal\n").unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(matches!(err, JournalError::BadHeader { .. }), "{err}");
        assert!(err.to_string().contains("refusing"));
        // The file is untouched.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "important data, definitely not a journal\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_header_is_a_fresh_journal() {
        let path = tmp_path("torn-header");
        // A kill before the header's newline (or mid-header) left no
        // record behind, so the file reopens as a fresh journal.
        for torn in [&JOURNAL_HEADER[..4], JOURNAL_HEADER] {
            std::fs::write(&path, torn).unwrap();
            let mut j = Journal::open(&path).unwrap();
            assert!(j.is_empty());
            assert_eq!(j.truncated_bytes(), torn.len() as u64);
            j.append(1, &bare_report()).unwrap();
            drop(j);
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.len(), 1, "{torn:?}: appends after recovery survive");
            assert_eq!(j.truncated_bytes(), 0);
        }
        // A complete header line of another version is still foreign.
        std::fs::write(&path, "ohm-journal v2\n").unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(matches!(err, JournalError::BadHeader { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incompatible_record_is_a_hard_error() {
        let path = tmp_path("incompat");
        // A CRC-valid record whose payload is not a report: written by
        // "another build", must not be silently dropped.
        let payload = b"platform future-field\n";
        let mut text = format!("{JOURNAL_HEADER}\n");
        text.push_str(&format!(
            "REC {:016x} {} {:08x}\n",
            9u64,
            payload.len(),
            crc32(payload)
        ));
        text.push_str(std::str::from_utf8(payload).unwrap());
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Malformed { record: 0, .. }),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cell_spec_key_matches_cell_key() {
        let cfg = SystemConfig::quick_test();
        let spec = ohm_workloads::workload_by_name("pagerank").unwrap();
        let cell = CellSpec::new(
            cfg.clone(),
            Platform::OhmWom,
            OperationalMode::TwoLevel,
            spec,
        );
        assert_eq!(
            cell.key(),
            cell_key(&cfg, Platform::OhmWom, OperationalMode::TwoLevel, &spec),
            "the typed spec and the borrowed view must hash identically"
        );
        assert_eq!(cell.key(), fnv1a(cell.canonical().as_bytes()));
        // Any axis moving changes the key.
        let mut other = cell.clone();
        other.platform = Platform::Oracle;
        assert_ne!(cell.key(), other.key());
        let mut other = cell.clone();
        other.workload = spec.with_footprint(spec.footprint_bytes * 2);
        assert_ne!(cell.key(), other.key());
    }

    #[test]
    fn fsync_policy_parses_and_names() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("on-close"), Some(FsyncPolicy::OnClose));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        for p in [FsyncPolicy::Always, FsyncPolicy::OnClose] {
            assert_eq!(FsyncPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::OnClose);
    }

    #[test]
    fn fsync_always_syncs_every_append() {
        let path = tmp_path("fsync-always");
        let mut j = Journal::open_with(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(j.fsync_policy(), FsyncPolicy::Always);
        assert_eq!(j.syncs(), 0);
        j.append(1, &bare_report()).unwrap();
        assert_eq!(j.syncs(), 1, "Always must fsync per append");
        j.append(2, &full_report()).unwrap();
        assert_eq!(j.syncs(), 2);
        drop(j);
        // Everything is recoverable afterwards.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_on_close_syncs_once_at_drop() {
        let path = tmp_path("fsync-close");
        let mut j = Journal::open_with(&path, FsyncPolicy::OnClose).unwrap();
        j.append(1, &bare_report()).unwrap();
        j.append(2, &full_report()).unwrap();
        assert_eq!(j.syncs(), 0, "OnClose must not fsync per append");
        // An explicit sync is available to callers that need a barrier.
        j.sync().unwrap();
        assert_eq!(j.syncs(), 1);
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2, "records survive the close");
        let _ = std::fs::remove_file(&path);
    }

    fn small_report() -> SimReport {
        let cfg = SystemConfig::quick_test();
        let spec = ohm_workloads::workload_by_name("lud").unwrap();
        crate::runner::Run::new(&cfg).workload(&spec).execute()
    }

    #[test]
    fn claim_complete_serves_parked_tickets() {
        let path = tmp_path("park");
        let cache: ResultCache<&str> = ResultCache::open(&path, FsyncPolicy::OnClose).unwrap();
        // First claimant owns the key.
        assert!(matches!(cache.claim(7, "a"), Claim::Owner));
        // Concurrent claimants park instead of re-simulating.
        assert!(matches!(cache.claim(7, "b"), Claim::Parked));
        assert!(matches!(cache.claim(7, "c"), Claim::Parked));
        let report = small_report();
        let (parked, appended) = cache.complete(7, &report);
        appended.unwrap();
        assert_eq!(parked, vec!["b", "c"], "tickets come back for re-queue");
        // Re-claims (and any later claim) hit.
        match cache.claim(7, "b") {
            Claim::Hit(r) => assert_eq!(report_digest(&r), report_digest(&report)),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.coalesced, stats.hits), (1, 2, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn abandon_hands_ownership_to_a_parked_ticket() {
        let path = tmp_path("abandon");
        let cache: ResultCache<u32> = ResultCache::open(&path, FsyncPolicy::OnClose).unwrap();
        assert!(matches!(cache.claim(9, 1), Claim::Owner));
        assert!(matches!(cache.claim(9, 2), Claim::Parked));
        let parked = cache.abandon(9);
        assert_eq!(parked, vec![2]);
        // The returned ticket's re-claim becomes the new owner.
        assert!(matches!(cache.claim(9, 2), Claim::Owner));
        assert!(cache.is_empty(), "nothing was stored");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn results_survive_reopen() {
        let path = tmp_path("reopen");
        let report = small_report();
        {
            let cache: ResultCache<()> = ResultCache::open(&path, FsyncPolicy::Always).unwrap();
            assert!(matches!(cache.claim(3, ()), Claim::Owner));
            cache.complete(3, &report).1.unwrap();
        }
        let cache: ResultCache<()> = ResultCache::open(&path, FsyncPolicy::OnClose).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().recovered, 1);
        match cache.claim(3, ()) {
            Claim::Hit(r) => assert_eq!(
                report_digest(&r),
                report_digest(&report),
                "recovered result must be bit-identical"
            ),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn grid_digest_is_order_sensitive() {
        let (a, b) = (full_report(), bare_report());
        assert_ne!(grid_digest([&a, &b]), grid_digest([&b, &a]));
        assert_eq!(grid_digest([&a, &b]), grid_digest([&a, &b.clone()]));
    }
}
