//! The on-disk artifact cache behind [`crate::CompileSession`].
//!
//! SmartMem's thesis is that redundant layout-transformation work should
//! be eliminated once and never repaid; the in-memory compilation cache
//! applies that principle to compilation itself but forgets everything
//! at process exit. This module adds the next level of the hierarchy:
//! every cold compile is written through to
//! `<cache-dir>/art-<graph>-<device>-<sequence>-<bucket>.smem`, and a
//! later
//! session (same process or a restart) serves the same key by decoding
//! the artifact instead of re-running the pass sequence.
//!
//! # File format
//!
//! ```text
//! magic    b"SMEM"              4 bytes
//! version  u32 LE               bumped on any wire-format change
//! probe    u64 LE               DefaultHasher digest of a fixed
//!                               sentinel — detects a std hasher change
//!                               (fingerprints would no longer match)
//! length   u64 LE               payload byte count
//! checksum u64 LE               FNV-1a over the payload
//! payload  wire-encoded value   a CompileOutput or the refusal
//! ```
//!
//! Every safeguard fails *open*: a missing, truncated, corrupted,
//! wrong-version or wrong-probe file is treated as a cache miss and the
//! session falls back to a clean cold compile (then overwrites the bad
//! artifact on write-through). Writes go to a unique temp file in the
//! same directory followed by an atomic rename, so concurrent sessions
//! and crashed processes can never leave a half-written artifact under
//! a valid name.
//!
//! Artifacts are the only files the cache reads: anything else in the
//! directory, such as the per-kernel-group decision file older builds
//! wrote beside the artifacts, is never opened.

use crate::pass::CompileOutput;
use crate::pipeline::Unsupported;
use smartmem_ir::wire::{Decode, Encode, Reader, WireError, Writer};
use smartmem_sim::{FaultKind, FaultPlan};
use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::Hasher;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Artifact-file magic.
const MAGIC: [u8; 4] = *b"SMEM";
/// Current format version. Bump on any change to the wire encoding of
/// the persisted types. v3: symbolic-dim metadata on graphs and the
/// canonical map digest on `EdgeRead`. v4: `ExecConfig` drops the
/// unread reduction-loop tile.
const VERSION: u32 = 4;
/// Header length: magic + version + probe + length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Digest of a fixed sentinel under the std hasher, folded with the
/// optimizer's build fingerprint. Two invalidation triggers share this
/// header field:
///
/// * Cache keys are `DefaultHasher` digests, which the std library does
///   not guarantee stable across releases — hashing the sentinel turns
///   "the hasher changed under us" from silent key mismatches into an
///   explicit whole-file invalidation.
/// * `SMARTMEM_BUILD_FINGERPRINT` (emitted by this crate's build
///   script) digests every optimizer source file. Cache keys only
///   cover pass names + parameters, so without this a rebuilt binary
///   with *changed pass logic* would serve artifacts computed by the
///   old code; with it, any optimizer edit invalidates every artifact
///   and the cache recompiles cold.
fn hasher_probe() -> u64 {
    let mut h = DefaultHasher::new();
    h.write(b"smartmem-persist-probe");
    h.write(env!("SMARTMEM_BUILD_FINGERPRINT").as_bytes());
    h.finish()
}

/// FNV-1a over the payload (integrity check; not cryptographic).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// One persisted compilation result: tag 0 + artifact, or tag 1 + the
// deterministic `Unsupported` refusal this key always produces. The
// two functions below are the single definition of that layout — keep
// them adjacent.

fn encode_result(result: Result<&CompileOutput, &Unsupported>) -> Vec<u8> {
    let mut w = Writer::new();
    match result {
        Ok(output) => {
            w.put_u8(0);
            output.encode(&mut w);
        }
        Err(e) => {
            w.put_u8(1);
            e.encode(&mut w);
        }
    }
    w.into_bytes()
}

fn decode_result(payload: &[u8]) -> Result<Result<CompileOutput, Unsupported>, WireError> {
    let mut r = Reader::new(payload);
    let result = match r.get_u8()? {
        0 => Ok(CompileOutput::decode(&mut r)?),
        1 => Err(Unsupported::decode(&mut r)?),
        tag => return Err(WireError::BadTag { ty: "PersistedResult", tag }),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(result)
}

/// Key of one persisted artifact — mirrors the session's in-memory
/// cache key (graph/device fingerprints + pass-sequence id + shape
/// bucket). The bucket is derivable from the graph fingerprint but kept
/// explicit so per-bucket artifacts of one symbolic model are
/// first-class: visible in the filename, and a new bucket can never
/// alias an existing artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ArtifactKey {
    pub graph: u64,
    pub device: u64,
    pub sequence: u64,
    pub bucket: u64,
}

/// Handle on one cache directory.
#[derive(Debug)]
pub(crate) struct DiskCache {
    dir: PathBuf,
    /// Unique temp-file suffix counter (plus the pid) for atomic writes.
    tmp_seq: AtomicUsize,
    /// Optional chaos-test fault oracle: when set, payload reads and
    /// writes consult it and may error artificially. Reads that fault
    /// behave exactly like a corrupt file (cold compile); writes that
    /// fault behave exactly like a full disk (artifact lost, compile
    /// kept) — the injected failures exercise the same fail-open paths
    /// real I/O errors take.
    faults: OnceLock<Arc<FaultPlan>>,
    /// Injected I/O faults so far (surfaces as `CacheStats::disk_faults`).
    disk_faults: AtomicU64,
}

/// Site ids for the cache-I/O fault streams: reads and writes draw
/// from independent deterministic sequences.
const FAULT_SITE_READ: usize = 0;
const FAULT_SITE_WRITE: usize = 1;

impl DiskCache {
    /// Opens (creating if needed) a cache directory.
    pub(crate) fn open(dir: &Path) -> io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        Ok(DiskCache {
            dir: dir.to_path_buf(),
            tmp_seq: AtomicUsize::new(0),
            faults: OnceLock::new(),
            disk_faults: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Installs a fault oracle consulted by every payload read/write.
    /// First installation wins; later calls are ignored (the cache may
    /// be shared).
    pub(crate) fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        let _ = self.faults.set(plan);
    }

    /// Injected disk I/O faults so far.
    pub(crate) fn disk_fault_count(&self) -> u64 {
        self.disk_faults.load(Ordering::Relaxed)
    }

    /// Draws from the fault oracle for one I/O `site`; counts a fault
    /// when it fires.
    fn io_faulted(&self, site: usize) -> bool {
        let faulted = self.faults.get().is_some_and(|plan| plan.roll(FaultKind::CacheDirIo, site));
        if faulted {
            self.disk_faults.fetch_add(1, Ordering::Relaxed);
        }
        faulted
    }

    fn artifact_path(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(format!(
            "art-{:016x}-{:016x}-{:016x}-{:016x}.smem",
            key.graph, key.device, key.sequence, key.bucket
        ))
    }

    /// Number of artifact files currently on disk (diagnostics only).
    pub(crate) fn artifact_count(&self) -> usize {
        fs::read_dir(&self.dir).map_or(0, |entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| {
                    e.file_name().to_string_lossy().starts_with("art-")
                        && e.file_name().to_string_lossy().ends_with(".smem")
                })
                .count()
        })
    }

    /// Reads and verifies one file, returning its payload. `None` on
    /// any failure — missing file, bad magic/version/probe, truncation,
    /// checksum mismatch — because every failure means the same thing
    /// to the caller: not cached, compile cold.
    fn read_payload(&self, path: &Path) -> Option<Vec<u8>> {
        if self.io_faulted(FAULT_SITE_READ) {
            return None;
        }
        let bytes = fs::read(path).ok()?;
        if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC {
            return None;
        }
        let field = |at: usize| -> [u8; 8] { bytes[at..at + 8].try_into().expect("8 bytes") };
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return None;
        }
        if u64::from_le_bytes(field(8)) != hasher_probe() {
            return None;
        }
        let length = u64::from_le_bytes(field(16));
        let checksum = u64::from_le_bytes(field(24));
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != length || fnv1a(payload) != checksum {
            return None;
        }
        Some(payload.to_vec())
    }

    /// Atomically writes `payload` under a verified header. Best-effort:
    /// an I/O error (full disk, permissions) loses the artifact but
    /// never the compilation.
    fn write_payload(&self, path: &Path, payload: &[u8]) {
        if self.io_faulted(FAULT_SITE_WRITE) {
            return;
        }
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&MAGIC)?;
            f.write_all(&VERSION.to_le_bytes())?;
            f.write_all(&hasher_probe().to_le_bytes())?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(&fnv1a(payload).to_le_bytes())?;
            f.write_all(payload)?;
            f.sync_all()?;
            fs::rename(&tmp, path)
        };
        if write().is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Loads and decodes the artifact for `key`, or `None` when absent
    /// or unusable (any corruption falls back to a cold compile).
    ///
    /// `Some(Err(_))` is a persisted *negative* result: the pass
    /// sequence deterministically rejects this (graph, device,
    /// sequence) key, so rerunning it would only repay the refusal.
    pub(crate) fn load(&self, key: &ArtifactKey) -> Option<Result<CompileOutput, Unsupported>> {
        let payload = self.read_payload(&self.artifact_path(key))?;
        decode_result(&payload).ok()
    }

    /// Writes a compilation result (positive or negative) through to
    /// disk.
    pub(crate) fn store(&self, key: &ArtifactKey, result: Result<&CompileOutput, &Unsupported>) {
        self.write_payload(&self.artifact_path(key), &encode_result(result));
    }
}
