//! Crash-consistent checkpointing: durable runs that survive process death.
//!
//! PR 6's governance layer computes the exact `committed_iters` resume
//! point for every cancelled run — but that guarantee dies with the
//! process. This module persists it: a checkpoint directory holds the
//! workload (text format v1), a full **base** snapshot of the arena taken
//! at run start, and a sequence of incremental **deltas** captured at
//! chunk-commit boundaries from the analyzer's exact write sets (the PR 5
//! journaling machinery, [`RealKernel::journal_capture`], reused in the
//! forward direction: instead of pre-state for rollback, it captures
//! *post-state* for restore).
//!
//! # Crash consistency
//!
//! Every file is written with write-to-temp + `fsync` + atomic-rename +
//! directory `fsync`, and the `MANIFEST` — the only entry point — is
//! rewritten *after* the data files it references are durable. A crash at
//! any instant therefore leaves either the previous manifest (referencing
//! only fully-synced files) or the new one; a torn manifest write is
//! caught by its trailing self-checksum line and rejected with
//! [`CkptError::Corrupt`], never silently resumed. Orphaned data files
//! from a crash between the two renames are harmless: nothing references
//! them.
//!
//! # Restore
//!
//! [`load`] verifies the manifest self-checksum, every file's length and
//! FNV-1a 64 content checksum, and the workload hash (a checkpoint for a
//! different or edited workload is a [`CkptError::SpecMismatch`], not a
//! wrong answer). [`Checkpoint::into_program`] then rebuilds the program:
//! base bytes become the arena, and each delta is applied **in order** via
//! [`RealKernel::journal_rollback`] over the exact iteration range it was
//! captured from — the footprint layout is recomputed identically, and
//! ordered application makes the latest capture win on every overlapping
//! byte, reproducing the live arena at the last checkpoint bitwise. The
//! run then resumes from `committed_iters`.
//!
//! # Ordering invariant
//!
//! Checkpoint capture of chunk *k* happens-before the token handoff to
//! chunk *k+1* (the leader captures while still holding the claim), so no
//! checkpoint can ever observe an uncommitted write. The model checker
//! proves this — see `check.rs`, invariant 8.

use std::fmt;
use std::fs::{self, File};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cascade_trace::{from_text, Arena};

use crate::interp::SpecProgram;
use crate::kernel::RealKernel;
use crate::token::lock_recover;

/// File-format version tag, first line of every `MANIFEST`.
const MANIFEST_HEADER: &str = "cascade-ckpt v1";
/// Name of the manifest file inside a checkpoint directory.
const MANIFEST: &str = "MANIFEST";
/// Name of the persisted workload (text format v1).
const WORKLOAD: &str = "workload.txt";
/// Name of the full base arena snapshot.
const BASE: &str = "base.bin";

/// When a [`CkptSink`] captures a checkpoint. A run without a sink
/// checkpoints nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptPolicy {
    /// Checkpoint once every N committed chunks (N ≥ 1).
    EveryChunks(u64),
    /// Checkpoint when at least T milliseconds have elapsed since the
    /// last one and a new chunk has committed (T ≥ 1).
    EveryMillis(u64),
}

/// Why a checkpoint could not be written or loaded.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure (path and underlying error).
    Io(String),
    /// The manifest or a data file failed an integrity check: torn
    /// manifest, bad self-checksum, wrong length, flipped bits.
    Corrupt(String),
    /// The checkpoint belongs to a different workload (stale spec hash)
    /// or its geometry disagrees with the persisted workload.
    SpecMismatch(String),
    /// The persisted workload text failed to parse.
    Workload(String),
    /// The restored workload was rejected by the helper-safety analysis.
    Analysis(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(m) => write!(f, "checkpoint io error: {m}"),
            CkptError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CkptError::SpecMismatch(m) => write!(f, "checkpoint/spec mismatch: {m}"),
            CkptError::Workload(m) => write!(f, "checkpoint workload unreadable: {m}"),
            CkptError::Analysis(m) => write!(f, "checkpoint workload rejected by analysis: {m}"),
        }
    }
}

impl std::error::Error for CkptError {}

use cascade_core::fnv64;

/// Hash of a workload's canonical text form — the identity a checkpoint
/// is bound to. Resuming against an edited workload is refused.
pub fn spec_hash(workload_text: &str) -> u64 {
    fnv64(workload_text.as_bytes())
}

fn io_err(path: &Path, e: std::io::Error) -> CkptError {
    CkptError::Io(format!("{}: {e}", path.display()))
}

/// Durably write `bytes` as `dir/name`: temp file + fsync + rename +
/// directory fsync. After this returns, a crash cannot tear the file.
fn write_file_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let dst = dir.join(name);
    let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
    f.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(f);
    fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, e))?;
    sync_dir(dir)
}

/// Make a rename durable by fsyncing the directory (no-op best effort on
/// platforms where directories cannot be opened).
fn sync_dir(dir: &Path) -> Result<(), CkptError> {
    #[cfg(unix)]
    {
        let d = File::open(dir).map_err(|e| io_err(dir, e))?;
        d.sync_all().map_err(|e| io_err(dir, e))?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

fn read_file(dir: &Path, name: &str) -> Result<Vec<u8>, CkptError> {
    let path = dir.join(name);
    let mut f = File::open(&path).map_err(|e| io_err(&path, e))?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf).map_err(|e| io_err(&path, e))?;
    Ok(buf)
}

/// One referenced data file: name, length, FNV-1a 64 content checksum.
#[derive(Debug, Clone)]
struct FileRecord {
    name: String,
    len: u64,
    sum: u64,
}

impl FileRecord {
    fn of(name: &str, bytes: &[u8]) -> FileRecord {
        FileRecord {
            name: name.to_string(),
            len: bytes.len() as u64,
            sum: fnv64(bytes),
        }
    }

    /// Read the file and verify length and checksum.
    fn load(&self, dir: &Path) -> Result<Vec<u8>, CkptError> {
        let bytes = read_file(dir, &self.name)?;
        if bytes.len() as u64 != self.len {
            return Err(CkptError::Corrupt(format!(
                "{}: length {} != manifest length {}",
                self.name,
                bytes.len(),
                self.len
            )));
        }
        let sum = fnv64(&bytes);
        if sum != self.sum {
            return Err(CkptError::Corrupt(format!(
                "{}: checksum {sum:016x} != manifest checksum {:016x}",
                self.name, self.sum
            )));
        }
        Ok(bytes)
    }
}

/// One incremental delta: post-state write-set capture over an exact
/// chunk/iteration span.
#[derive(Debug, Clone)]
struct DeltaRecord {
    file: FileRecord,
    from_chunk: u64,
    to_chunk: u64,
    from_iter: u64,
    to_iter: u64,
}

/// Static geometry a checkpoint records about the run it snapshots.
#[derive(Debug, Clone, Copy)]
pub struct CkptMeta {
    /// Index of the loop being run within the workload.
    pub loop_index: usize,
    /// Total iteration count of that loop.
    pub iters: u64,
    /// Chunk size the run was configured with (informational).
    pub iters_per_chunk: u64,
}

/// Writer side: owns a checkpoint directory and appends deltas, keeping
/// the on-disk `MANIFEST` crash-consistent at every step.
#[derive(Debug)]
pub struct CkptWriter {
    dir: PathBuf,
    spec_hash: u64,
    meta: CkptMeta,
    workload: FileRecord,
    base: FileRecord,
    deltas: Vec<DeltaRecord>,
    committed_chunks: u64,
    committed_iters: u64,
}

impl CkptWriter {
    /// Create a checkpoint directory: persist the workload text and the
    /// full base arena snapshot, then publish the initial manifest
    /// (zero committed chunks). `dir` is created if missing; an existing
    /// manifest in it is overwritten.
    pub fn create(
        dir: &Path,
        workload_text: &str,
        meta: CkptMeta,
        base: &[u8],
    ) -> Result<CkptWriter, CkptError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        write_file_atomic(dir, WORKLOAD, workload_text.as_bytes())?;
        write_file_atomic(dir, BASE, base)?;
        let w = CkptWriter {
            dir: dir.to_path_buf(),
            spec_hash: spec_hash(workload_text),
            meta,
            workload: FileRecord::of(WORKLOAD, workload_text.as_bytes()),
            base: FileRecord::of(BASE, base),
            deltas: Vec::new(),
            committed_chunks: 0,
            committed_iters: 0,
        };
        w.publish_manifest()?;
        Ok(w)
    }

    /// Chunks covered by the published manifest.
    pub fn committed_chunks(&self) -> u64 {
        self.committed_chunks
    }

    /// Iterations covered by the published manifest.
    pub fn committed_iters(&self) -> u64 {
        self.committed_iters
    }

    /// The directory this writer publishes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append a delta covering chunks `from_chunk..to_chunk` (iterations
    /// `from_iter..to_iter`): the data file is made durable first, then
    /// the manifest atomically advances to reference it. `bytes` must be
    /// a post-state [`RealKernel::journal_capture`] over exactly
    /// `from_iter..to_iter`.
    pub fn append_delta(
        &mut self,
        from_chunk: u64,
        to_chunk: u64,
        from_iter: u64,
        to_iter: u64,
        bytes: &[u8],
    ) -> Result<(), CkptError> {
        debug_assert_eq!(from_chunk, self.committed_chunks, "deltas are contiguous");
        debug_assert_eq!(from_iter, self.committed_iters, "deltas are contiguous");
        let name = format!("delta-{:06}.bin", self.deltas.len());
        write_file_atomic(&self.dir, &name, bytes)?;
        self.deltas.push(DeltaRecord {
            file: FileRecord::of(&name, bytes),
            from_chunk,
            to_chunk,
            from_iter,
            to_iter,
        });
        self.committed_chunks = to_chunk;
        self.committed_iters = to_iter;
        self.publish_manifest()
    }

    fn publish_manifest(&self) -> Result<(), CkptError> {
        let mut m = String::new();
        m.push_str(MANIFEST_HEADER);
        m.push('\n');
        m.push_str(&format!(
            "workload {} {} {:016x}\n",
            self.workload.name, self.workload.len, self.workload.sum
        ));
        m.push_str(&format!("spec_hash {:016x}\n", self.spec_hash));
        m.push_str(&format!("loop {}\n", self.meta.loop_index));
        m.push_str(&format!("iters {}\n", self.meta.iters));
        m.push_str(&format!("iters_per_chunk {}\n", self.meta.iters_per_chunk));
        m.push_str(&format!("committed_chunks {}\n", self.committed_chunks));
        m.push_str(&format!("committed_iters {}\n", self.committed_iters));
        m.push_str(&format!(
            "base {} {} {:016x}\n",
            self.base.name, self.base.len, self.base.sum
        ));
        for d in &self.deltas {
            m.push_str(&format!(
                "delta {} {} {} {} {} {} {:016x}\n",
                d.file.name,
                d.from_chunk,
                d.to_chunk,
                d.from_iter,
                d.to_iter,
                d.file.len,
                d.file.sum
            ));
        }
        m.push_str(&format!("checksum {:016x}\n", fnv64(m.as_bytes())));
        write_file_atomic(&self.dir, MANIFEST, m.as_bytes())
    }
}

/// A loaded, integrity-verified checkpoint, ready to restore.
#[derive(Debug)]
pub struct Checkpoint {
    workload_text: String,
    meta: CkptMeta,
    committed_chunks: u64,
    committed_iters: u64,
    base: Vec<u8>,
    deltas: Vec<(Range<u64>, Vec<u8>)>,
}

impl Checkpoint {
    /// The run geometry the checkpoint was taken under.
    pub fn meta(&self) -> CkptMeta {
        self.meta
    }

    /// Chunks covered by the checkpoint.
    pub fn committed_chunks(&self) -> u64 {
        self.committed_chunks
    }

    /// Iterations covered by the checkpoint — resume from exactly here.
    pub fn committed_iters(&self) -> u64 {
        self.committed_iters
    }

    /// Number of deltas the restore will replay.
    pub fn num_deltas(&self) -> usize {
        self.deltas.len()
    }

    /// The persisted workload in text format v1.
    pub fn workload_text(&self) -> &str {
        &self.workload_text
    }

    /// The pristine base arena snapshot — the run-start state, before any
    /// delta. A verifier can replay the whole loop from here and compare
    /// bitwise against the restored-and-finished state.
    pub fn base_bytes(&self) -> &[u8] {
        &self.base
    }

    /// Rebuild the program at the checkpointed state: parse the persisted
    /// workload, adopt the base snapshot as the arena, and replay every
    /// delta in order over its exact iteration range. Returns the program
    /// plus `committed_iters`; the caller finishes `committed_iters..iters`
    /// (sequentially or cascaded). The restored arena is bitwise identical
    /// to the live arena at the instant the last delta was captured.
    pub fn into_program(self) -> Result<(SpecProgram, u64), CkptError> {
        let workload =
            from_text(&self.workload_text).map_err(|e| CkptError::Workload(e.to_string()))?;
        if self.meta.loop_index >= workload.loops.len() {
            return Err(CkptError::SpecMismatch(format!(
                "manifest loop index {} out of range ({} loops)",
                self.meta.loop_index,
                workload.loops.len()
            )));
        }
        let iters = workload.loops[self.meta.loop_index].iters;
        if iters != self.meta.iters {
            return Err(CkptError::SpecMismatch(format!(
                "manifest iters {} != workload loop iters {iters}",
                self.meta.iters
            )));
        }
        if self.committed_iters > iters {
            return Err(CkptError::Corrupt(format!(
                "committed_iters {} exceeds loop iters {iters}",
                self.committed_iters
            )));
        }
        let arena = Arena::try_from_bytes(&workload.space, self.base)
            .map_err(|e| CkptError::SpecMismatch(e.to_string()))?;
        let prog =
            SpecProgram::new(workload, arena).map_err(|e| CkptError::Analysis(e.to_string()))?;
        {
            let kernel = prog.kernel(self.meta.loop_index);
            let mut scratch = Vec::new();
            for (range, bytes) in &self.deltas {
                if range.start >= range.end || range.end > iters {
                    return Err(CkptError::Corrupt(format!(
                        "delta range {}..{} out of bounds (iters {iters})",
                        range.start, range.end
                    )));
                }
                // Recompute the capture layout over the same range: the
                // restore is only sound when the stored bytes match it
                // exactly, so a wrong-length delta (corruption the
                // checksum happened to miss, or a footprint drift) is a
                // typed rejection, not a partial restore.
                // SAFETY: single-threaded restore — trivially exclusive.
                if !unsafe { kernel.journal_capture(range.clone(), &mut scratch) } {
                    return Err(CkptError::SpecMismatch(format!(
                        "write set of iterations {}..{} is no longer journalable",
                        range.start, range.end
                    )));
                }
                if scratch.len() != bytes.len() {
                    return Err(CkptError::Corrupt(format!(
                        "delta over {}..{} holds {} bytes, footprint layout needs {}",
                        range.start,
                        range.end,
                        bytes.len(),
                        scratch.len()
                    )));
                }
                // SAFETY: exclusive access (no run in flight), and the
                // layout was just verified against a fresh capture over
                // the identical range.
                unsafe { kernel.journal_rollback(range.clone(), bytes) };
            }
        }
        Ok((prog, self.committed_iters))
    }
}

/// Load and integrity-check the checkpoint in `dir`. Every failure mode —
/// missing files, torn manifest, flipped bits, truncation, wrong
/// workload — is a typed [`CkptError`]; a checkpoint that loads is safe
/// to restore.
pub fn load(dir: &Path) -> Result<Checkpoint, CkptError> {
    let manifest = read_file(dir, MANIFEST)?;
    let text = String::from_utf8(manifest)
        .map_err(|_| CkptError::Corrupt("manifest is not valid UTF-8".into()))?;
    // Verify the trailing self-checksum before trusting anything else:
    // a torn manifest write fails here.
    let body_end = text
        .trim_end_matches('\n')
        .rfind('\n')
        .map(|i| i + 1)
        .ok_or_else(|| CkptError::Corrupt("manifest has no checksum line".into()))?;
    let (body, tail) = text.split_at(body_end);
    let tail = tail.trim_end();
    let declared = tail
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| CkptError::Corrupt(format!("bad manifest checksum line: {tail:?}")))?;
    let actual = fnv64(body.as_bytes());
    if actual != declared {
        return Err(CkptError::Corrupt(format!(
            "manifest self-checksum {actual:016x} != declared {declared:016x} (torn or edited)"
        )));
    }

    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(CkptError::Corrupt(format!(
            "manifest header is not {MANIFEST_HEADER:?}"
        )));
    }
    let mut workload_rec: Option<FileRecord> = None;
    let mut declared_hash: Option<u64> = None;
    let mut loop_index: Option<usize> = None;
    let mut iters: Option<u64> = None;
    let mut iters_per_chunk: Option<u64> = None;
    let mut committed_chunks: Option<u64> = None;
    let mut committed_iters: Option<u64> = None;
    let mut base_rec: Option<FileRecord> = None;
    let mut deltas: Vec<DeltaRecord> = Vec::new();
    let corrupt = |line: &str| CkptError::Corrupt(format!("bad manifest line: {line:?}"));
    for line in lines {
        let mut f = line.split_whitespace();
        match f.next() {
            Some("workload") => {
                let (name, len, sum) = (f.next(), f.next(), f.next());
                workload_rec = Some(FileRecord {
                    name: name.ok_or_else(|| corrupt(line))?.to_string(),
                    len: parse_u64(len).ok_or_else(|| corrupt(line))?,
                    sum: parse_hex(sum).ok_or_else(|| corrupt(line))?,
                });
            }
            Some("spec_hash") => {
                declared_hash = Some(parse_hex(f.next()).ok_or_else(|| corrupt(line))?)
            }
            Some("loop") => {
                loop_index = Some(parse_u64(f.next()).ok_or_else(|| corrupt(line))? as usize)
            }
            Some("iters") => iters = Some(parse_u64(f.next()).ok_or_else(|| corrupt(line))?),
            Some("iters_per_chunk") => {
                iters_per_chunk = Some(parse_u64(f.next()).ok_or_else(|| corrupt(line))?)
            }
            Some("committed_chunks") => {
                committed_chunks = Some(parse_u64(f.next()).ok_or_else(|| corrupt(line))?)
            }
            Some("committed_iters") => {
                committed_iters = Some(parse_u64(f.next()).ok_or_else(|| corrupt(line))?)
            }
            Some("base") => {
                let (name, len, sum) = (f.next(), f.next(), f.next());
                base_rec = Some(FileRecord {
                    name: name.ok_or_else(|| corrupt(line))?.to_string(),
                    len: parse_u64(len).ok_or_else(|| corrupt(line))?,
                    sum: parse_hex(sum).ok_or_else(|| corrupt(line))?,
                });
            }
            Some("delta") => {
                let name = f.next().ok_or_else(|| corrupt(line))?.to_string();
                let from_chunk = parse_u64(f.next()).ok_or_else(|| corrupt(line))?;
                let to_chunk = parse_u64(f.next()).ok_or_else(|| corrupt(line))?;
                let from_iter = parse_u64(f.next()).ok_or_else(|| corrupt(line))?;
                let to_iter = parse_u64(f.next()).ok_or_else(|| corrupt(line))?;
                let len = parse_u64(f.next()).ok_or_else(|| corrupt(line))?;
                let sum = parse_hex(f.next()).ok_or_else(|| corrupt(line))?;
                deltas.push(DeltaRecord {
                    file: FileRecord { name, len, sum },
                    from_chunk,
                    to_chunk,
                    from_iter,
                    to_iter,
                });
            }
            _ => return Err(corrupt(line)),
        }
    }
    let missing = |what: &str| CkptError::Corrupt(format!("manifest is missing {what}"));
    let workload_rec = workload_rec.ok_or_else(|| missing("the workload entry"))?;
    let declared_hash = declared_hash.ok_or_else(|| missing("spec_hash"))?;
    let meta = CkptMeta {
        loop_index: loop_index.ok_or_else(|| missing("loop"))?,
        iters: iters.ok_or_else(|| missing("iters"))?,
        iters_per_chunk: iters_per_chunk.ok_or_else(|| missing("iters_per_chunk"))?,
    };
    let committed_chunks = committed_chunks.ok_or_else(|| missing("committed_chunks"))?;
    let committed_iters = committed_iters.ok_or_else(|| missing("committed_iters"))?;
    let base_rec = base_rec.ok_or_else(|| missing("the base entry"))?;

    let workload_bytes = workload_rec.load(dir)?;
    let workload_text = String::from_utf8(workload_bytes)
        .map_err(|_| CkptError::Corrupt("workload text is not valid UTF-8".into()))?;
    let actual_hash = spec_hash(&workload_text);
    if actual_hash != declared_hash {
        return Err(CkptError::SpecMismatch(format!(
            "workload hash {actual_hash:016x} != manifest spec_hash {declared_hash:016x} \
             (checkpoint taken under a different workload)"
        )));
    }
    let base = base_rec.load(dir)?;
    let mut loaded = Vec::with_capacity(deltas.len());
    let (mut chunk_cursor, mut iter_cursor) = (0u64, 0u64);
    for d in &deltas {
        if d.from_chunk != chunk_cursor || d.from_iter != iter_cursor || d.from_iter >= d.to_iter {
            return Err(CkptError::Corrupt(format!(
                "delta {} is not contiguous (chunks {}..{}, iters {}..{})",
                d.file.name, d.from_chunk, d.to_chunk, d.from_iter, d.to_iter
            )));
        }
        chunk_cursor = d.to_chunk;
        iter_cursor = d.to_iter;
        loaded.push((d.from_iter..d.to_iter, d.file.load(dir)?));
    }
    if chunk_cursor != committed_chunks || iter_cursor != committed_iters {
        return Err(CkptError::Corrupt(format!(
            "deltas cover {chunk_cursor} chunks / {iter_cursor} iters but manifest commits \
             {committed_chunks} / {committed_iters}"
        )));
    }
    Ok(Checkpoint {
        workload_text,
        meta,
        committed_chunks,
        committed_iters,
        base,
        deltas: loaded,
    })
}

fn parse_u64(s: Option<&str>) -> Option<u64> {
    s?.parse().ok()
}

fn parse_hex(s: Option<&str>) -> Option<u64> {
    u64::from_str_radix(s?, 16).ok()
}

/// Shared handle the leader's commit path drives: decides when a
/// checkpoint is due, captures the delta, and appends it. The mutex is
/// uncontended in steady state — chunk commits are token-serialized, so
/// at most one worker is in [`CkptSink::on_commit`] at a time.
#[derive(Clone)]
pub struct CkptSink {
    state: Arc<Mutex<CkptState>>,
    policy: CkptPolicy,
}

struct CkptState {
    writer: CkptWriter,
    last_write: Instant,
    scratch: Vec<u8>,
    /// First write/capture failure: checkpointing disables itself (the
    /// run continues un-checkpointed) and the reason is reported here.
    error: Option<String>,
}

impl fmt::Debug for CkptSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = lock_recover(&self.state);
        f.debug_struct("CkptSink")
            .field("policy", &self.policy)
            .field("dir", &s.writer.dir)
            .field("committed_chunks", &s.writer.committed_chunks)
            .field("committed_iters", &s.writer.committed_iters)
            .field("error", &s.error)
            .finish()
    }
}

impl CkptSink {
    /// Wrap a freshly created writer that checkpoints under `policy`.
    pub fn new(writer: CkptWriter, policy: CkptPolicy) -> CkptSink {
        CkptSink {
            state: Arc::new(Mutex::new(CkptState {
                writer,
                last_write: Instant::now(),
                scratch: Vec::new(),
                error: None,
            })),
            policy,
        }
    }

    /// When this sink captures a checkpoint.
    pub(crate) fn policy(&self) -> CkptPolicy {
        self.policy
    }

    /// Leader commit hook. `committed_chunks`/`committed_iters` describe
    /// the run state *after* the just-committed chunk; `chunk_start`
    /// maps a chunk index to its first iteration; `capture` is the
    /// kernel's post-state write-set capture over an iteration range.
    /// Returns the delta bytes written when a checkpoint was taken,
    /// `None` when not due, disabled, or skipped. Never panics the run:
    /// an I/O or capture failure records itself and disables further
    /// checkpointing.
    pub fn on_commit(
        &self,
        committed_chunks: u64,
        committed_iters: u64,
        chunk_start: impl FnOnce(u64) -> u64,
        capture: impl FnOnce(Range<u64>, &mut Vec<u8>) -> bool,
    ) -> Option<u64> {
        let mut s = lock_recover(&self.state);
        if !self.due_in(&s, committed_chunks) {
            return None;
        }
        let from_chunk = s.writer.committed_chunks;
        let from_iter = chunk_start(from_chunk);
        debug_assert_eq!(from_iter, s.writer.committed_iters, "contiguous capture");
        let mut scratch = std::mem::take(&mut s.scratch);
        if !capture(from_iter..committed_iters, &mut scratch) {
            s.error = Some(format!(
                "write set of iterations {from_iter}..{committed_iters} is unjournalable; \
                 checkpointing disabled"
            ));
            s.scratch = scratch;
            return None;
        }
        let result = s.writer.append_delta(
            from_chunk,
            committed_chunks,
            from_iter,
            committed_iters,
            &scratch,
        );
        let bytes = scratch.len() as u64;
        s.scratch = scratch;
        s.last_write = Instant::now();
        match result {
            Ok(()) => Some(bytes),
            Err(e) => {
                s.error = Some(format!("{e}; checkpointing disabled"));
                None
            }
        }
    }

    /// Whether [`CkptSink::on_commit`] with `committed_chunks` would take
    /// a checkpoint now. The verified runner asks before it claims a
    /// prefix whose audits are still pending, so it audits them all
    /// first only when something will be published.
    pub(crate) fn due(&self, committed_chunks: u64) -> bool {
        self.due_in(&lock_recover(&self.state), committed_chunks)
    }

    /// Not disabled, past the published prefix, and due under the policy.
    fn due_in(&self, s: &CkptState, committed_chunks: u64) -> bool {
        s.error.is_none()
            && committed_chunks > s.writer.committed_chunks
            && match self.policy {
                CkptPolicy::EveryChunks(n) => committed_chunks - s.writer.committed_chunks >= n,
                CkptPolicy::EveryMillis(t) => s.last_write.elapsed() >= Duration::from_millis(t),
            }
    }

    /// The first failure that disabled checkpointing, if any.
    pub fn error(&self) -> Option<String> {
        lock_recover(&self.state).error.clone()
    }

    /// Chunks and iterations covered by the published manifest.
    pub fn committed(&self) -> (u64, u64) {
        let s = lock_recover(&self.state);
        (s.writer.committed_chunks, s.writer.committed_iters)
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> PathBuf {
        lock_recover(&self.state).writer.dir.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("cascade-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    const META: CkptMeta = CkptMeta {
        loop_index: 0,
        iters: 16,
        iters_per_chunk: 4,
    };

    #[test]
    fn manifest_roundtrip_with_deltas() {
        let dir = tmpdir("roundtrip");
        let mut w = CkptWriter::create(&dir, "fake workload", META, &[1, 2, 3, 4]).unwrap();
        w.append_delta(0, 1, 0, 4, &[9, 9]).unwrap();
        w.append_delta(1, 3, 4, 12, &[7; 5]).unwrap();
        // `load` verifies checksums but not the workload text format —
        // parsing happens in `into_program`, so a fake workload exercises
        // the manifest layer in isolation.
        let ck = load(&dir).unwrap();
        assert_eq!(ck.committed_chunks(), 3);
        assert_eq!(ck.committed_iters(), 12);
        assert_eq!(ck.num_deltas(), 2);
        assert_eq!(ck.workload_text(), "fake workload");
        assert_eq!(ck.base, vec![1, 2, 3, 4]);
        assert_eq!(ck.deltas[0], (0..4, vec![9, 9]));
        assert_eq!(ck.deltas[1], (4..12, vec![7; 5]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifest_is_rejected() {
        let dir = tmpdir("torn");
        let mut w = CkptWriter::create(&dir, "w", META, &[0; 8]).unwrap();
        w.append_delta(0, 1, 0, 4, &[1, 2, 3]).unwrap();
        let path = dir.join(MANIFEST);
        let text = fs::read_to_string(&path).unwrap();
        // Simulate a torn write: the tail (including the self-checksum
        // line) never hit the disk.
        fs::write(&path, &text[..text.len() - 10]).unwrap();
        match load(&dir) {
            Err(CkptError::Corrupt(_)) => {}
            other => panic!("torn manifest must be Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_in_data_file_is_rejected() {
        let dir = tmpdir("bitflip");
        let mut w = CkptWriter::create(&dir, "w", META, &[5; 32]).unwrap();
        w.append_delta(0, 1, 0, 4, &[1, 2, 3, 4]).unwrap();
        let path = dir.join("delta-000000.bin");
        let mut bytes = fs::read(&path).unwrap();
        bytes[2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match load(&dir) {
            Err(CkptError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("bit flip must be Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_base_is_rejected() {
        let dir = tmpdir("trunc");
        let _w = CkptWriter::create(&dir, "w", META, &[5; 32]).unwrap();
        let path = dir.join(BASE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..16]).unwrap();
        match load(&dir) {
            Err(CkptError::Corrupt(m)) => assert!(m.contains("length"), "{m}"),
            other => panic!("truncation must be Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_spec_hash_is_rejected() {
        let dir = tmpdir("stale");
        let _w = CkptWriter::create(&dir, "original workload", META, &[0; 8]).unwrap();
        // The workload file changes after the checkpoint was taken (same
        // length, so only the hash binding catches it).
        fs::write(dir.join(WORKLOAD), "tampered workload").unwrap();
        match load(&dir) {
            Err(CkptError::SpecMismatch(m)) => assert!(m.contains("spec_hash"), "{m}"),
            Err(CkptError::Corrupt(_)) => {} // length drift also acceptable
            other => panic!("stale workload must be rejected, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_io() {
        let dir = tmpdir("missing");
        fs::create_dir_all(&dir).unwrap();
        match load(&dir) {
            Err(CkptError::Io(_)) => {}
            other => panic!("missing manifest must be Io, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_honours_every_chunks_policy() {
        let dir = tmpdir("policy");
        let w = CkptWriter::create(&dir, "w", META, &[0; 8]).unwrap();
        let sink = CkptSink::new(w, CkptPolicy::EveryChunks(2));
        let cap = |_r: Range<u64>, buf: &mut Vec<u8>| {
            buf.clear();
            buf.extend_from_slice(&[1, 2]);
            true
        };
        // Not due after one chunk under EveryChunks(2).
        assert_eq!(sink.on_commit(1, 4, |_| 0, cap), None);
        // Due after the second.
        assert_eq!(sink.on_commit(2, 8, |_| 0, cap), Some(2));
        assert_eq!(sink.committed(), (2, 8));
        // Re-delivery of an already-covered commit is a no-op.
        assert_eq!(sink.on_commit(2, 8, |_| 8, cap), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_disables_itself_on_unjournalable_capture() {
        let dir = tmpdir("disable");
        let w = CkptWriter::create(&dir, "w", META, &[0; 8]).unwrap();
        let sink = CkptSink::new(w, CkptPolicy::EveryChunks(1));
        assert_eq!(sink.on_commit(1, 4, |_| 0, |_, _| false), None);
        assert!(sink.error().unwrap().contains("unjournalable"));
        // Permanently disabled, even for a journalable later capture.
        assert_eq!(
            sink.on_commit(
                2,
                8,
                |_| 0,
                |_r, b: &mut Vec<u8>| {
                    b.push(1);
                    true
                }
            ),
            None
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
