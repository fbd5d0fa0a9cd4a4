//! The trace store writer ([`TraceStore`]) and directory-level recovery
//! ([`read_trace_dir`]).
//!
//! ## One append-only file
//!
//! A [`TraceStore`] writes one file, `log.st`: a META record, then entry
//! and RECONFIG records in append order. Nothing rewrites, renames or
//! truncates it while the store lives. Its durable points are fsyncs:
//!
//! 1. [`TraceStore::create`] fsyncs the new log, then the trace directory,
//!    so the file's directory entry survives a crash too;
//! 2. [`TraceStore::sync`] fsyncs the log. The live writer
//!    ([`spawn_writer`](crate::spawn_writer)) calls it on a geometric
//!    cadence and once to seal; batch persistence calls it once.
//!
//! A crash leaves a prefix of that file, ending at worst in one torn
//! record, which the scan layer drops. Every record a completed fsync
//! covered survives.
//!
//! A store written by an earlier build may also hold `snapshot.st`, its
//! records up to the last compaction, with `log.st` holding the records
//! since. Recovery still reads it, and `create` removes it.
//!
//! ## Recovery invariants
//!
//! [`read_trace_dir`] concatenates the valid record prefixes of
//! `snapshot.st`, when one exists, and `log.st` (torn tails dropped by
//! the scan layer), then:
//!
//! 1. **dedup** — one record per `(process, pseq)` coordinate, first
//!    occurrence wins;
//! 2. **dense prefix** — each process keeps its longest gap-free `pseq`
//!    prefix (a gap means later records of that process are unanchored);
//! 3. **matched keys** — iteratively truncate each process's log at the
//!    first entry whose rendezvous partner record is missing, until
//!    stable.
//!
//! The result is the largest causally consistent prefix family of the
//! original run: local orders are prefixes, every kept send has its kept
//! receive, and [`reconstruct_from_logs`] rebuilds exactly the trace an
//! uninterrupted in-memory run would have produced from the same prefix.
//! A quiesced, fully flushed store recovers the *whole* run.
//!
//! [`reconstruct_from_logs`]: synctime_runtime::reconstruct_from_logs

use std::fs::{self, File};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use synctime_runtime::{LogEntry, PersistEvent};

use crate::record::{
    encode_entry, encode_meta, encode_reconfig, encode_record, scan_meta, scan_records, Meta,
    ReconfigRecord, StampRecord, FORMAT_VERSION,
};
use crate::StoreError;

/// File of an earlier build's store holding its records up to the last
/// compaction. Recovery reads it before the log; a new store has none.
pub const SNAPSHOT_FILE: &str = "snapshot.st";

/// File holding a store's META record and every record appended since.
pub const LOG_FILE: &str = "log.st";

/// Bound on a trace name in bytes (it becomes a directory name).
const MAX_TRACE_NAME: usize = 255;

/// Checks that `name` is safe to use as a store subdirectory: non-empty,
/// at most 255 bytes, no path separators or NUL, and no leading dot.
///
/// # Errors
///
/// [`StoreError::InvalidTraceName`] describing the violation.
pub fn validate_trace_name(name: &str) -> Result<(), StoreError> {
    if name.is_empty() {
        return Err(StoreError::InvalidTraceName(
            "trace name is empty".to_string(),
        ));
    }
    if name.len() > MAX_TRACE_NAME {
        return Err(StoreError::InvalidTraceName(format!(
            "trace name of {} bytes exceeds the {MAX_TRACE_NAME}-byte bound",
            name.len()
        )));
    }
    if name.starts_with('.') {
        return Err(StoreError::InvalidTraceName(format!(
            "trace name {name:?} starts with a dot"
        )));
    }
    if name.chars().any(|c| c == '/' || c == '\\' || c == '\0') {
        return Err(StoreError::InvalidTraceName(format!(
            "trace name {name:?} contains a path separator"
        )));
    }
    Ok(())
}

/// Lists the trace subdirectories of a store root as `(name, path)`
/// pairs, sorted by name. Entries that are not directories or whose names
/// would not validate are skipped, not errors — a store root may hold
/// unrelated files.
///
/// # Errors
///
/// [`StoreError::Io`] when the root itself cannot be read.
pub fn trace_dirs(root: &Path) -> Result<Vec<(String, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if validate_trace_name(name).is_ok() {
            out.push((name.to_string(), path));
        }
    }
    out.sort();
    Ok(out)
}

/// Flushes directory metadata (what makes a new file's entry durable on
/// POSIX).
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The append side of one trace's durable log. See the module docs for
/// its one file and its durable points.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    log: BufWriter<File>,
    generation: u64,
    records: usize,
    scratch: Vec<u8>,
}

impl TraceStore {
    /// Creates (or replaces) the store for `trace` under `root`: a new
    /// `log.st` holding one META record, fsynced, then the trace directory
    /// fsynced. Any previous contents of the trace directory are
    /// superseded, and the META's generation is one above the highest a
    /// readable META there carried (0 in a new directory), so a tailing
    /// reader re-reads a replaced store.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidTraceName`] for an unusable name,
    /// [`StoreError::Io`] on filesystem failures.
    pub fn create(root: &Path, trace: &str, process_count: usize) -> Result<Self, StoreError> {
        validate_trace_name(trace)?;
        let dir = root.join(trace);
        fs::create_dir_all(&dir)?;
        let generation = [LOG_FILE, SNAPSHOT_FILE]
            .into_iter()
            .filter_map(|name| File::open(dir.join(name)).ok())
            .filter_map(|mut file| read_meta(&mut file).ok().flatten())
            .map(|meta| meta.generation.saturating_add(1))
            .max()
            .unwrap_or(0);
        let snapshot = dir.join(SNAPSHOT_FILE);
        if snapshot.exists() {
            // Recovery would read it ahead of the new log.
            fs::remove_file(&snapshot)?;
        }
        let meta = Meta {
            version: FORMAT_VERSION,
            process_count: process_count as u64,
            generation,
        };
        let mut scratch = Vec::new();
        encode_meta(&mut scratch, &meta);
        let mut log = BufWriter::new(File::create(dir.join(LOG_FILE))?);
        log.write_all(&scratch)?;
        log.flush()?;
        log.get_ref().sync_all()?;
        sync_dir(&dir)?;
        Ok(TraceStore {
            dir,
            log,
            generation,
            records: 0,
            scratch,
        })
    }

    /// Appends one record to the log (buffered — call
    /// [`TraceStore::flush`] to make it visible to readers, or
    /// [`TraceStore::sync`] to make it durable).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failures.
    pub fn append(&mut self, rec: StampRecord) -> Result<(), StoreError> {
        self.scratch.clear();
        encode_record(&mut self.scratch, &rec);
        self.append_scratch()
    }

    /// Appends `entry` as the record at coordinate `(process, pseq)`
    /// (buffered, like [`TraceStore::append`]), encoding its stamp in
    /// place.
    pub(crate) fn append_entry(
        &mut self,
        process: u64,
        pseq: u64,
        entry: &LogEntry,
    ) -> Result<(), StoreError> {
        self.scratch.clear();
        encode_entry(&mut self.scratch, process, pseq, entry);
        self.append_scratch()
    }

    /// Writes the framed record staged in `scratch` — the tail shared by
    /// every append flavor.
    fn append_scratch(&mut self) -> Result<(), StoreError> {
        self.log.write_all(&self.scratch)?;
        self.records += 1;
        Ok(())
    }

    /// Appends one RECONFIG epoch-boundary record (buffered, like
    /// [`TraceStore::append`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failures.
    pub fn append_reconfig(&mut self, rec: &ReconfigRecord) -> Result<(), StoreError> {
        self.scratch.clear();
        encode_reconfig(&mut self.scratch, rec);
        self.append_scratch()
    }

    /// Pushes buffered appends to the OS (readers polling the file see
    /// them after this; durability additionally needs
    /// [`TraceStore::sync`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failures.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.log.flush()?;
        Ok(())
    }

    /// Flushes and fsyncs the log: everything appended so far survives a
    /// crash.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on flush or fsync failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.log.flush()?;
        self.log.get_ref().sync_all()?;
        Ok(())
    }

    /// How many records have been appended to this store.
    pub fn records(&self) -> usize {
        self.records
    }

    /// How many times this trace directory's store was replaced before
    /// this one (the generation its META carries; 0 in a new directory).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The trace's directory (`<root>/<trace>`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// What recovery reassembled from one trace directory.
#[derive(Debug, Clone)]
pub struct RecoveredTrace {
    /// The run's process count (from the META records).
    pub process_count: usize,
    /// The highest META generation seen: how many times the directory's
    /// store was replaced (earlier builds also counted compactions).
    pub generation: u64,
    /// The recovered per-process logs: the largest causally consistent
    /// prefix family of the persisted run, ready for
    /// [`reconstruct_from_logs`](synctime_runtime::reconstruct_from_logs).
    pub logs: Vec<Vec<LogEntry>>,
    /// Entry records surviving into `logs`.
    pub records: usize,
    /// Bytes refused by the torn-tail scan, across the store's files.
    pub torn_bytes: usize,
    /// Records parsed but trimmed by dedup, gap, or matching rules.
    pub dropped_records: usize,
    /// Epoch boundaries whose cuts are fully covered by the recovered
    /// logs, sorted by epoch (first record of a duplicated epoch wins). A
    /// boundary that names more processes than the run has, or whose cut
    /// lies beyond a recovered log's end (the boundary outran the torn
    /// tail), is dropped — replay can only segment what it holds.
    pub reconfigs: Vec<ReconfigRecord>,
}

/// Recovers one trace directory into per-process logs. See the module
/// docs for the recovery invariants; this function is the crash-recovery
/// entry point (`serve-query --store-dir` calls it per trace, and again
/// on every poll while a trace grows).
///
/// # Errors
///
/// [`StoreError::Io`] when the directory cannot be read,
/// [`StoreError::Corrupt`] when no readable META record exists, the
/// format version is unknown, or the files disagree on the process count.
/// Torn tails and partial records are *not* errors — they shorten the
/// recovered prefix instead.
pub fn read_trace_dir(dir: &Path) -> Result<RecoveredTrace, StoreError> {
    // One full read, as a tailing reader's first poll makes, but the
    // scanned records are moved into recovery rather than kept.
    let mut reader = TraceTailReader::new(dir);
    let log_torn = reader.full_read()?;
    assemble(
        dir,
        &reader.metas,
        reader.records,
        reader.reconfigs,
        reader.snap_torn + log_torn,
    )
}

/// The pure half of recovery: applies the dedup / dense-prefix /
/// matched-keys invariants (module docs) to scanned records, however they
/// were gathered — a full directory read ([`read_trace_dir`]) or a
/// tailing reader's accumulated head + tails ([`TraceTailReader`]). Both
/// paths feeding identical record sequences through this function is what
/// makes incremental tailing answer-equivalent to full re-reads.
fn assemble(
    dir: &Path,
    metas: &[Meta],
    records: Records,
    reconfigs: Vec<ReconfigRecord>,
    torn_bytes: usize,
) -> Result<RecoveredTrace, StoreError> {
    let Some(first) = metas.first().copied() else {
        return Err(StoreError::Corrupt(format!(
            "no readable store metadata in {}",
            dir.display()
        )));
    };
    if first.version != FORMAT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "store format version {} (this build reads {FORMAT_VERSION})",
            first.version
        )));
    }
    if metas.iter().any(|m| m.process_count != first.process_count) {
        return Err(StoreError::Corrupt(
            "snapshot and log disagree on the process count".to_string(),
        ));
    }
    let process_count = first.process_count as usize;
    let generation = metas.iter().map(|m| m.generation).max().unwrap_or(0);

    let Records { parsed, mut per } = records;
    per.resize_with(process_count, Default::default);
    let mut logs: Vec<Vec<LogEntry>> = per
        .into_iter()
        .map(|(pseqs, entries)| dense_prefix(&pseqs, entries))
        .collect();

    match_keys_fixpoint(&mut logs);

    // Epoch boundaries: sort by epoch (stable, so the first-written record
    // of a duplicated epoch wins after dedup), then keep only boundaries
    // the recovered logs fully cover.
    let mut boundaries = reconfigs;
    boundaries.sort_by_key(|r| r.epoch);
    boundaries.dedup_by_key(|r| r.epoch);
    boundaries.retain(|r| {
        r.cuts.len() == process_count
            && r.cuts
                .iter()
                .zip(&logs)
                .all(|(&cut, log)| cut as usize <= log.len())
    });

    let records = logs.iter().map(Vec::len).sum();
    Ok(RecoveredTrace {
        process_count,
        generation,
        logs,
        records,
        torn_bytes,
        dropped_records: parsed - records,
        reconfigs: boundaries,
    })
}

/// Scanned entry records, bucketed by process as they are scanned.
#[derive(Debug, Clone, Default)]
struct Records {
    /// Entry records scanned, those naming a process beyond the count
    /// included.
    parsed: usize,
    /// Per process below the count, the `pseq`s and entries of its
    /// records in file order.
    per: Vec<(Vec<u64>, Vec<LogEntry>)>,
}

impl Records {
    /// Files one scanned record; a record naming a process beyond
    /// `process_count` (the first META's) is counted but dropped.
    fn push(&mut self, process_count: usize, rec: PersistEvent) {
        self.parsed += 1;
        if rec.process >= process_count {
            return;
        }
        if self.per.len() <= rec.process {
            self.per.resize_with(rec.process + 1, Default::default);
        }
        let (pseqs, entries) = &mut self.per[rec.process];
        pseqs.push(rec.pseq);
        entries.push(rec.entry);
    }
}

/// Dedup and dense prefix for one process's records, given as their
/// `pseq`s and entries in file order: one entry per `pseq`, the first
/// occurrence winning (snapshot records precede log records, so a
/// stale-log overlap resolves to the snapshot's copy — which is
/// byte-identical anyway), then the longest gap-free prefix `0, 1, 2, …`
/// (a gap means later records of the process are unanchored). A store
/// written in order already holds exactly that prefix, and its entries
/// are returned as they are.
fn dense_prefix(pseqs: &[u64], entries: Vec<LogEntry>) -> Vec<LogEntry> {
    if pseqs.iter().zip(0u64..).all(|(&pseq, i)| pseq == i) {
        return entries;
    }
    // Stable, so each run of equal `pseq`s keeps file order.
    let mut order: Vec<usize> = (0..pseqs.len()).collect();
    order.sort_by_key(|&i| pseqs[i]);
    order.dedup_by_key(|i| pseqs[*i]);
    let mut entries: Vec<Option<LogEntry>> = entries.into_iter().map(Some).collect();
    order
        .iter()
        .zip(0u64..)
        .take_while(|&(&i, n)| pseqs[i] == n)
        .filter_map(|(&i, _)| entries[i].take())
        .collect()
}

/// A rendezvous entry's key and side (0 sent, 1 received).
fn endpoint(entry: &LogEntry) -> Option<(u64, usize)> {
    match entry {
        LogEntry::Sent { key, .. } => Some((*key, 0)),
        LogEntry::Received { key, .. } => Some((*key, 1)),
        LogEntry::Internal => None,
    }
}

/// Fixpoint: truncate each log at its first entry whose rendezvous
/// partner is missing, until no truncation happens — the greatest prefix
/// family in which every kept SENT or RECEIVED entry has a kept entry of
/// the same key on the other side. Terminates because every round that
/// changes anything strictly shrinks the total. Shared by whole-trace
/// recovery and per-epoch segment materialisation
/// ([`materialize_latest_epoch`](crate::materialize_latest_epoch)), which
/// must re-run it because message keys are only unique within an epoch.
///
/// Keys are mapped to dense ids with one sort, and each id's kept
/// `[sent, received]` counts are decremented as entries are cut, so a
/// round is one pass over plain arrays.
pub(crate) fn match_keys_fixpoint(logs: &mut [Vec<LogEntry>]) {
    // Log p's entries are numbered from `starts[p]`. Sorting the
    // endpoints by key makes each run of equal keys one dense id (the
    // sort is stable, and merges the runs of keys that already increase
    // along a log).
    let mut starts = Vec::with_capacity(logs.len());
    let mut ends: Vec<(u64, usize)> = Vec::new();
    let mut total = 0usize;
    for log in logs.iter() {
        starts.push(total);
        for (i, entry) in log.iter().enumerate() {
            if let Some((key, _)) = endpoint(entry) {
                ends.push((key, total + i));
            }
        }
        total += log.len();
    }
    ends.sort_by_key(|&(key, _)| key);
    let mut id_of = vec![0usize; total];
    let mut ids = 0usize;
    for (j, &(key, pos)) in ends.iter().enumerate() {
        ids += usize::from(j > 0 && ends[j - 1].0 != key);
        id_of[pos] = ids;
    }
    let mut live = vec![[0usize; 2]; ids + 1];
    for (log, &start) in logs.iter().zip(&starts) {
        for (entry, &id) in log.iter().zip(&id_of[start..]) {
            if let Some((_, side)) = endpoint(entry) {
                live[id][side] += 1;
            }
        }
    }
    loop {
        let mut changed = false;
        for (log, &start) in logs.iter_mut().zip(&starts) {
            let ids = &id_of[start..start + log.len()];
            let lonely = |(entry, &id): (&LogEntry, &usize)| {
                endpoint(entry).is_some_and(|(_, side)| live[id][1 - side] == 0)
            };
            let Some(cut) = log.iter().zip(ids).position(lonely) else {
                continue;
            };
            for (entry, &id) in log[cut..].iter().zip(&ids[cut..]) {
                if let Some((_, side)) = endpoint(entry) {
                    live[id][side] -= 1;
                }
            }
            log.truncate(cut);
            changed = true;
        }
        if !changed {
            return;
        }
    }
}

/// Upper bound on a META record's framed size: 8-byte frame, 1-byte tag,
/// three varints of at most 10 bytes each. Reading this much from a
/// file's head always captures the whole META.
const META_HEAD_BYTES: usize = 8 + 1 + 3 * 10;

/// An incremental reader for a growing trace directory.
///
/// [`read_trace_dir`] re-reads and re-scans the whole store on every
/// call — fine for one-shot recovery, quadratic for a tailer polling a
/// live trace. This reader remembers the log's scanned byte offset and,
/// while the generation is unchanged, reads and scans only the bytes
/// appended past it; a generation bump (the store was replaced) or a
/// shrunk log falls back to one full re-read. Either way the records
/// recovery assembles are exactly those a fresh [`read_trace_dir`] would
/// scan, in the same file order per process, so every poll's answer is
/// identical to a full re-read's (asserted by this crate's tests).
#[derive(Debug)]
pub struct TraceTailReader {
    dir: PathBuf,
    /// The log generation the accumulated state belongs to; `None` until
    /// the first successful read.
    generation: Option<u64>,
    /// Bytes of `log.st` scanned into the accumulated records (META
    /// included). A torn final record stays beyond this offset and is
    /// re-tried on the next poll, once its bytes complete.
    log_offset: usize,
    metas: Vec<Meta>,
    records: Records,
    reconfigs: Vec<ReconfigRecord>,
    /// Torn bytes of the snapshot file (the log's torn tail is recomputed
    /// per poll — it may still complete).
    snap_torn: usize,
}

impl TraceTailReader {
    /// A reader for `dir`, holding nothing yet; the first [`poll`]
    /// performs a full read.
    ///
    /// [`poll`]: TraceTailReader::poll
    pub fn new(dir: &Path) -> Self {
        TraceTailReader {
            dir: dir.to_path_buf(),
            generation: None,
            log_offset: 0,
            metas: Vec::new(),
            records: Records::default(),
            reconfigs: Vec::new(),
            snap_torn: 0,
        }
    }

    /// Drops all accumulated state so the next poll re-reads everything.
    fn reset(&mut self) {
        self.generation = None;
        self.log_offset = 0;
        self.metas.clear();
        self.records = Records::default();
        self.reconfigs.clear();
        self.snap_torn = 0;
    }

    /// Re-reads snapshot and log in full, replacing the accumulated
    /// state — the cold path (first poll, a replaced store, or a shrunk
    /// log).
    /// Returns the log's torn-tail byte count as of this read (transient:
    /// those bytes may complete by the next poll, so they are not cached).
    fn full_read(&mut self) -> Result<usize, StoreError> {
        self.reset();
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        if snap_path.exists() {
            // Each file's bytes are freed as soon as they are scanned.
            let bytes = fs::read(&snap_path)?;
            self.snap_torn = bytes.len() - self.scan(&bytes).map_or(0, |(_, valid)| valid);
        }
        let mut log_torn = 0usize;
        let log_path = self.dir.join(LOG_FILE);
        if log_path.exists() {
            let bytes = fs::read(&log_path)?;
            // A log without a readable META is torn as a whole.
            let valid = match self.scan(&bytes) {
                Some((meta, valid)) => {
                    self.generation = Some(meta.generation);
                    self.log_offset = valid;
                    valid
                }
                None => 0,
            };
            log_torn = bytes.len() - valid;
        }
        Ok(log_torn)
    }

    /// Scans one whole file into the accumulated state: its META, then
    /// its valid record prefix. Returns the META and how many bytes were
    /// valid, or `None` (taking nothing) when no META is readable.
    fn scan(&mut self, bytes: &[u8]) -> Option<(Meta, usize)> {
        let (meta, at) = scan_meta(bytes)?;
        self.metas.push(meta);
        let valid = at + self.accumulate(&bytes[at..]);
        Some((meta, valid))
    }

    /// Scans records that follow a META into the accumulated state,
    /// returning how many bytes formed valid records.
    fn accumulate(&mut self, bytes: &[u8]) -> usize {
        let process_count = self.metas.first().map_or(0, |m| m.process_count as usize);
        let records = &mut self.records;
        scan_records(
            bytes,
            |rec| records.push(process_count, rec),
            &mut self.reconfigs,
        )
    }

    /// Recovers the trace as of now: a full read on the first call or
    /// after the store was replaced, a read of the appended tail
    /// otherwise. The result is always identical to what
    /// [`read_trace_dir`] would return at this instant.
    ///
    /// # Errors
    ///
    /// Exactly [`read_trace_dir`]'s errors: [`StoreError::Io`] when a
    /// file cannot be read, [`StoreError::Corrupt`] when no META is
    /// readable or the files disagree. The accumulated state survives an
    /// error and the next poll retries.
    pub fn poll(&mut self) -> Result<RecoveredTrace, StoreError> {
        let log_path = self.dir.join(LOG_FILE);
        let log = if log_path.exists() {
            let mut file = File::open(&log_path)?;
            read_meta(&mut file)?.map(|meta| (meta, file))
        } else {
            None
        };
        let log_torn = match (log, self.generation) {
            // Warm path: same generation — only the appended tail is new.
            (Some((meta, mut file)), Some(generation)) if meta.generation == generation => {
                let len = file.metadata()?.len();
                if len < self.log_offset as u64 {
                    // Shrunk without a generation bump: not something a
                    // store does, but never serve stale state.
                    self.full_read()?
                } else {
                    let mut tail = Vec::with_capacity((len - self.log_offset as u64) as usize);
                    file.seek(SeekFrom::Start(self.log_offset as u64))?;
                    file.read_to_end(&mut tail)?;
                    let valid = self.accumulate(&tail);
                    self.log_offset += valid;
                    tail.len() - valid
                }
            }
            // Cold path: first poll, a replaced store's generation bump,
            // or a log whose META is unreadable (mid-create) — re-read all.
            _ => self.full_read()?,
        };
        self.assemble_current(log_torn)
    }

    /// Runs the shared recovery invariants over the accumulated records.
    fn assemble_current(&self, log_torn: usize) -> Result<RecoveredTrace, StoreError> {
        assemble(
            &self.dir,
            &self.metas,
            self.records.clone(),
            self.reconfigs.clone(),
            self.snap_torn + log_torn,
        )
    }
}

/// Reads the META record at the head of a newly opened `file`. `None`
/// when the head holds no readable META, as while a store is being
/// created.
fn read_meta(file: &mut File) -> Result<Option<Meta>, StoreError> {
    let mut head = Vec::with_capacity(META_HEAD_BYTES);
    file.take(META_HEAD_BYTES as u64).read_to_end(&mut head)?;
    Ok(scan_meta(&head).map(|(meta, _)| meta))
}
