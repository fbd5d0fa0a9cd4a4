//! Durable ingestion for stamped traces: one append-only, length-prefixed,
//! CRC-checked log of execution-log records per trace, and crash recovery
//! by replaying it.
//!
//! The paper's point is that timestamps are *small*; this crate's point is
//! that small timestamps are *cheap to keep*. What is persisted is not the
//! reconstructed trace (whose canonical message numbering is only stable
//! once the run has quiesced) but the raw material the runtime logs anyway:
//! one record per [`LogEntry`], keyed by `(process, pseq)` — which process
//! logged it and at which position of that process's log. Those
//! coordinates make replay **order-independent** (records may arrive
//! interleaved, duplicated, or truncated by a crash) and **idempotent**
//! (replay deduplicates by coordinate), and the replayed logs feed the
//! exact same
//! [`reconstruct_from_logs`](synctime_runtime::reconstruct_from_logs)
//! seam an in-memory run uses — so a recovered trace answers precedence
//! queries byte-identically to one that never touched disk.
//!
//! Layout on disk, per trace, under a store root directory:
//!
//! ```text
//! <root>/<trace>/log.st   a META record, then every record in append order
//! ```
//!
//! See [`record`] for the byte format, priced byte-for-byte by
//! `synctime_core::wire`'s `store_*_record_bytes` helpers. The log is
//! never rewritten: it is fsynced with its directory when created, then
//! only appended to and fsynced. A crash leaves a prefix of it with at
//! most a torn final record, and recovery always materialises the largest
//! causally consistent prefix of the run (see [`read_trace_dir`]). A store
//! written by an earlier build may also hold `snapshot.st`, its compacted
//! records, which recovery still reads.
//!
//! The same records carry one process's log between OS processes:
//! [`encode_log`] writes exactly the bytes [`persist_logs`] appends for
//! that process, and [`decode_log`] reads them back, strictly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod log;
pub mod record;
mod replay;

use std::fmt;

pub use crc::crc32;
pub use log::{
    read_trace_dir, trace_dirs, validate_trace_name, RecoveredTrace, TraceStore, TraceTailReader,
    LOG_FILE, SNAPSHOT_FILE,
};
pub use record::{FileScan, Meta, ReconfigRecord, StampRecord, TailScan, FORMAT_VERSION};
pub use replay::{
    decode_log, encode_log, materialize, materialize_latest_epoch, persist_logs,
    persist_logs_with_reconfigs, record_from_log_entry, spawn_writer, StoreWriter,
};

// Re-exported so store consumers can name the ingestion seam without
// depending on `synctime-runtime` directly.
pub use synctime_runtime::{LogEntry, PersistEvent};

/// Why a `synctime-store` operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// An OS-level filesystem failure (create, remove, read, write, fsync).
    Io(String),
    /// The store's bytes violate the record format beyond what torn-tail
    /// recovery tolerates: no readable META record, a format version this
    /// build does not speak, or files that disagree about the run's shape.
    Corrupt(String),
    /// The trace name cannot be a store directory (empty, path
    /// separators, leading dot, or over the length bound).
    InvalidTraceName(String),
    /// The recovered records do not reassemble into a synchronous
    /// computation (carries the reconstruction diagnostic).
    Replay(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(detail) => write!(f, "store i/o failure: {detail}"),
            StoreError::Corrupt(detail) => write!(f, "store corrupt: {detail}"),
            StoreError::InvalidTraceName(detail) => {
                write!(f, "invalid trace name: {detail}")
            }
            StoreError::Replay(detail) => write!(f, "store replay failed: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}
