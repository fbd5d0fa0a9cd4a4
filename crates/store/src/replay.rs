//! The bridges between the runtime's ingestion seam and the on-disk
//! store: converting [`LogEntry`]/[`PersistEvent`] values into records,
//! streaming a live run into a [`TraceStore`] on a background thread, and
//! materialising a recovered trace back into queryable timestamps.

use std::path::Path;
use std::sync::mpsc::{Receiver, Sender};
use std::thread::JoinHandle;

use synctime_core::wire;
use synctime_core::MessageTimestamps;
use synctime_runtime::{reconstruct_from_logs, LogEntry, PersistEvent};
use synctime_trace::SyncComputation;

use crate::log::TraceStore;
use crate::record::StampRecord;
use crate::StoreError;

/// Encodes one runtime log entry as a store record at coordinate
/// `(process, pseq)`. The stamp is serialised with the same
/// `synctime_core::wire::encode_full` codec every clock backend already
/// speaks, so any `--clock` choice round-trips through the store.
pub fn record_from_log_entry(process: u64, pseq: u64, entry: &LogEntry) -> StampRecord {
    match entry {
        LogEntry::Sent { to, key, stamp } => StampRecord::Sent {
            process,
            pseq,
            peer: *to as u64,
            key: *key,
            stamp: wire::encode_full(stamp),
        },
        LogEntry::Received { from, key, stamp } => StampRecord::Received {
            process,
            pseq,
            peer: *from as u64,
            key: *key,
            stamp: wire::encode_full(stamp),
        },
        LogEntry::Internal => StampRecord::Internal { process, pseq },
    }
}

/// Encodes a live-ingestion event (as emitted through
/// `Runtime::with_log_sink`) as a store record.
pub fn record_from_event(event: &PersistEvent) -> StampRecord {
    record_from_log_entry(event.process as u64, event.pseq, &event.entry)
}

/// Persists already-collected per-process logs (e.g. a finished
/// [`RuntimeRun`](synctime_runtime::RuntimeRun)'s logs, or logs merged
/// from distributed node reports) into `<root>/<trace>`, sealing the
/// result with one fsync of its log.
///
/// # Errors
///
/// [`StoreError::InvalidTraceName`] or [`StoreError::Io`] from the
/// underlying [`TraceStore`].
pub fn persist_logs(
    root: &Path,
    trace: &str,
    logs: &[Vec<LogEntry>],
) -> Result<TraceStore, StoreError> {
    persist_logs_with_reconfigs(root, trace, logs, &[])
}

/// [`persist_logs`] for a reconfigured (multi-epoch) run: the per-process
/// logs are each epoch's logs concatenated in epoch order (so `pseq`
/// stays dense per process across epochs), and `reconfigs` carries one
/// epoch-boundary record per committed reconfiguration, its cuts naming
/// where in each concatenated log the boundary falls.
/// [`materialize_latest_epoch`] uses those cuts to serve the post-churn
/// trace after recovery. The entries are appended process by process,
/// then the boundaries, and the store is sealed with one fsync of its
/// log.
///
/// # Errors
///
/// [`StoreError::InvalidTraceName`] or [`StoreError::Io`] from the
/// underlying [`TraceStore`].
pub fn persist_logs_with_reconfigs(
    root: &Path,
    trace: &str,
    logs: &[Vec<LogEntry>],
    reconfigs: &[crate::ReconfigRecord],
) -> Result<TraceStore, StoreError> {
    let mut store = TraceStore::create(root, trace, logs.len())?;
    for (process, log) in logs.iter().enumerate() {
        for (pseq, entry) in log.iter().enumerate() {
            store.append(record_from_log_entry(process as u64, pseq as u64, entry))?;
        }
    }
    for boundary in reconfigs {
        store.append_reconfig(boundary)?;
    }
    store.sync()?;
    Ok(store)
}

/// Rebuilds the queryable trace from a recovered prefix family via the
/// same [`reconstruct_from_logs`] seam an in-memory run uses, so stored
/// and never-stored runs answer queries identically.
///
/// # Errors
///
/// [`StoreError::Replay`] when the recovered logs do not reassemble into
/// a synchronous computation (recovery's trimming rules make this
/// unreachable for stores written by this crate, but adversarial bytes
/// surface here as a typed error rather than a panic).
pub fn materialize(
    logs: &[Vec<LogEntry>],
) -> Result<(SyncComputation, MessageTimestamps), StoreError> {
    reconstruct_from_logs(logs).map_err(|e| StoreError::Replay(e.to_string()))
}

/// Materialises the **latest epoch** of a recovered trace: the log
/// segment after the newest covered RECONFIG boundary (the whole trace
/// when no boundary was recorded). Returns that epoch's number alongside
/// the reconstruction.
///
/// A reconfigured trace cannot reconstruct whole: stamps before and after
/// a boundary live in different vector dimensions, and message keys are
/// only unique within one epoch's run. The durable cuts segment the logs
/// exactly; a segment-local matched-keys pass then trims any rendezvous
/// half-lost to a torn tail (whole-trace recovery cannot see those,
/// because a recycled key from an older epoch masks the missing partner).
///
/// # Errors
///
/// [`StoreError::Replay`] when the segment does not reassemble into a
/// synchronous computation.
pub fn materialize_latest_epoch(
    trace: &crate::RecoveredTrace,
) -> Result<(u64, SyncComputation, MessageTimestamps), StoreError> {
    let Some(last) = trace.reconfigs.last() else {
        let (comp, stamps) = materialize(&trace.logs)?;
        return Ok((0, comp, stamps));
    };
    // Recovery kept only fully-covered boundaries, so every cut is in
    // range.
    let mut segment: Vec<Vec<LogEntry>> = trace
        .logs
        .iter()
        .zip(&last.cuts)
        .map(|(log, &cut)| log.get(cut as usize..).unwrap_or(&[]).to_vec())
        .collect();
    crate::log::match_keys_fixpoint(&mut segment);
    let (comp, stamps) = materialize(&segment)?;
    Ok((last.epoch, comp, stamps))
}

/// The handle to a background ingestion writer spawned by
/// [`spawn_writer`]. Dropping the event sender (and every clone the
/// runtime holds) ends the stream; [`StoreWriter::finish`] then joins the
/// thread and returns the sealed store.
#[derive(Debug)]
pub struct StoreWriter {
    handle: JoinHandle<Result<TraceStore, StoreError>>,
}

impl StoreWriter {
    /// Waits for the ingestion thread to drain the channel, seal the
    /// store with one fsync of its log, and hand the store back.
    /// Callers must drop every [`Sender`] clone first (the runtime's
    /// `with_log_sink` clone included) or this blocks forever.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] the writer thread hit while appending or
    /// sealing.
    pub fn finish(self) -> Result<TraceStore, StoreError> {
        match self.handle.join() {
            Ok(result) => result,
            Err(_) => Err(StoreError::Io("store writer thread panicked".to_string())),
        }
    }
}

/// Records appended between writer-thread flushes before a flush is
/// forced even with the channel still busy. Bounds how far a polling
/// reader can lag a fast producer without costing one `write(2)` per
/// record when the writer outpaces the run (the common case).
const FLUSH_EVERY_RECORDS: usize = 1024;

/// How long the writer waits for the next event before flushing whatever
/// is buffered — the staleness bound a concurrently polling reader sees
/// during a quiet stretch.
const FLUSH_IDLE: std::time::Duration = std::time::Duration::from_millis(25);

/// Records appended since the writer's last fsync before it fsyncs the
/// log again, once they also number at least the records already
/// fsynced: durable points at 4096, 8192, 16384, … records, so a run pays
/// a logarithmic number of fsyncs and a crash loses at most the newer
/// half of its records (the channel's backlog aside).
const SYNC_EVERY_RECORDS: usize = 4096;

/// Spawns the ingestion thread: event bursts sent on the returned
/// channel's [`Sender`] (wire it via `Runtime::with_log_sink`, which
/// ships one `Vec` per per-process burst) are appended to
/// `<root>/<trace>` as they arrive. Flushes are batched — every
/// [`FLUSH_EVERY_RECORDS`] appends under load, or after [`FLUSH_IDLE`]
/// without a new burst — so a concurrently polling reader observes
/// growth promptly while a fast run never pays one syscall per record.
/// The log is fsynced whenever the records appended since its last fsync
/// number at least 4096 and at least those already fsynced, and once
/// more to seal the store when the channel closes.
///
/// # Errors
///
/// [`StoreError::InvalidTraceName`] or [`StoreError::Io`] when the store
/// cannot be created (before any thread is spawned).
pub fn spawn_writer(
    root: &Path,
    trace: &str,
    process_count: usize,
) -> Result<(Sender<Vec<PersistEvent>>, StoreWriter), StoreError> {
    use std::sync::mpsc::RecvTimeoutError;
    let mut store = TraceStore::create(root, trace, process_count)?;
    let (tx, rx): (Sender<Vec<PersistEvent>>, Receiver<Vec<PersistEvent>>) =
        std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || -> Result<TraceStore, StoreError> {
        let mut unflushed = 0usize;
        let mut synced = 0usize;
        loop {
            match rx.recv_timeout(FLUSH_IDLE) {
                Ok(burst) => {
                    // Drain whatever else is queued before considering a
                    // flush; under load this amortises the syscall over
                    // every pending burst.
                    for burst in std::iter::once(burst).chain(rx.try_iter()) {
                        for event in &burst {
                            store.append(record_from_event(event))?;
                            let unsynced = store.records() - synced;
                            if unsynced >= SYNC_EVERY_RECORDS && unsynced >= synced {
                                store.sync()?;
                                synced = store.records();
                            }
                        }
                        unflushed += burst.len();
                    }
                    if unflushed >= FLUSH_EVERY_RECORDS {
                        store.flush()?;
                        unflushed = 0;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if unflushed > 0 {
                        store.flush()?;
                        unflushed = 0;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        store.sync()?;
        Ok(store)
    });
    Ok((tx, StoreWriter { handle }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_trace_dir;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    /// Suffix that keeps every test's directory distinct within a process.
    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "synctime-store-test-{}-{}-{tag}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp root");
        dir
    }

    fn ping_pong_logs(rounds: u64) -> Vec<Vec<LogEntry>> {
        use synctime_graph::{decompose, topology};
        use synctime_runtime::{Behavior, Runtime};
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec);
        let a: Behavior = Box::new(move |ctx| {
            for i in 0..rounds {
                ctx.send(1, i)?;
                ctx.receive_from(1)?;
            }
            Ok(())
        });
        let b: Behavior = Box::new(move |ctx| {
            for _ in 0..rounds {
                let (x, _) = ctx.receive_from(0)?;
                ctx.internal();
                ctx.send(0, x)?;
            }
            Ok(())
        });
        let run = rt.run(vec![a, b]).expect("ping-pong run");
        run.logs().to_vec()
    }

    #[test]
    fn persist_then_recover_round_trips_the_run() {
        let root = temp_root("roundtrip");
        let logs = ping_pong_logs(5);
        let store = persist_logs(&root, "pp", &logs).expect("persist");
        assert_eq!(store.generation(), 0);
        assert!(!store.dir().join(crate::SNAPSHOT_FILE).exists());
        let rec = read_trace_dir(store.dir()).expect("recover");
        assert_eq!(rec.process_count, 2);
        assert_eq!(rec.logs, logs);
        assert_eq!(rec.dropped_records, 0);
        assert_eq!(rec.torn_bytes, 0);
        let (_, direct) = reconstruct_from_logs(&logs).expect("direct");
        let (_, via_store) = materialize(&rec.logs).expect("via store");
        assert_eq!(direct.len(), via_store.len());
        for i in 0..direct.len() {
            use synctime_trace::MessageId;
            assert_eq!(direct.row(MessageId(i)), via_store.row(MessageId(i)));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn streaming_writer_matches_batch_persistence() {
        let root = temp_root("stream");
        let logs = ping_pong_logs(4);
        let (tx, writer) = spawn_writer(&root, "live", logs.len()).expect("spawn");
        // Deliver in deliberately ragged bursts (1, 2, 3, ... events) to
        // exercise the batched channel the runtime's sink buffer feeds.
        let mut burst = Vec::new();
        let mut burst_len = 1;
        for (process, log) in logs.iter().enumerate() {
            for (pseq, entry) in log.iter().enumerate() {
                burst.push(PersistEvent {
                    process,
                    pseq: pseq as u64,
                    entry: entry.clone(),
                });
                if burst.len() >= burst_len {
                    tx.send(std::mem::take(&mut burst)).expect("send");
                    burst_len += 1;
                }
            }
        }
        if !burst.is_empty() {
            tx.send(burst).expect("send tail");
        }
        drop(tx);
        let store = writer.finish().expect("finish");
        let rec = read_trace_dir(store.dir()).expect("recover");
        assert_eq!(rec.logs, logs);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn mid_run_truncation_recovers_a_consistent_prefix() {
        let root = temp_root("torn");
        let logs = ping_pong_logs(6);
        let store = persist_logs(&root, "torn", &logs).expect("persist");
        let log = store.dir().join(crate::LOG_FILE);
        let bytes = std::fs::read(&log).expect("read log");
        // Cut the log at every byte length; recovery must never error
        // and must always reconstruct successfully.
        for cut in (0..bytes.len()).step_by(7) {
            std::fs::write(&log, &bytes[..cut]).expect("truncate");
            match read_trace_dir(store.dir()) {
                Ok(rec) => {
                    materialize(&rec.logs).expect("prefix reconstructs");
                }
                Err(StoreError::Corrupt(_)) => {
                    // Acceptable only while META itself is torn.
                }
                Err(other) => panic!("unexpected error at cut {cut}: {other}"),
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tail_reader_answers_identically_to_full_rereads() {
        use crate::{TraceStore, TraceTailReader};
        let root = temp_root("tailer");
        let logs = ping_pong_logs(8);
        // Write incrementally, replacing the store halfway so the poll
        // sequence crosses a generation bump, and check after every flush
        // that the tail reader's recovery equals a full re-read's.
        let mut store = TraceStore::create(&root, "live", logs.len()).expect("create");
        let mut reader = TraceTailReader::new(store.dir());
        let empty = reader.poll().expect("poll empty");
        assert_eq!(empty.records, 0);
        let mut flat: Vec<(u64, u64, LogEntry)> = Vec::new();
        for (process, log) in logs.iter().enumerate() {
            for (pseq, entry) in log.iter().enumerate() {
                flat.push((process as u64, pseq as u64, entry.clone()));
            }
        }
        let half = flat.len() / 2;
        for (i, (process, pseq, entry)) in flat[..half].iter().chain(&flat).enumerate() {
            if i == half {
                // Drained first, so the old writer cannot flush into the
                // new log when it drops.
                store.flush().expect("flush");
                store = TraceStore::create(&root, "live", logs.len()).expect("re-create");
            }
            store
                .append(record_from_log_entry(*process, *pseq, entry))
                .expect("append");
            if i % 3 == 0 {
                store.flush().expect("flush");
                let incremental = reader.poll().expect("incremental poll");
                let full = read_trace_dir(store.dir()).expect("full re-read");
                assert_eq!(incremental.logs, full.logs, "diverged after append {i}");
                assert_eq!(incremental.records, full.records);
                assert_eq!(incremental.generation, full.generation);
                assert_eq!(incremental.reconfigs, full.reconfigs);
            }
        }
        store.sync().expect("seal");
        let incremental = reader.poll().expect("final poll");
        let full = read_trace_dir(store.dir()).expect("final full read");
        assert_eq!(incremental.logs, full.logs);
        assert_eq!(incremental.logs, logs);
        assert_eq!(store.generation(), 1, "the store was replaced once");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tail_reader_follows_a_recreated_store() {
        use crate::TraceTailReader;
        // Persisting a trace name again replaces its store; a reader that
        // polled the old store must serve the new one.
        let root = temp_root("recreate");
        let store = persist_logs(&root, "t", &ping_pong_logs(3)).expect("persist");
        let mut reader = TraceTailReader::new(store.dir());
        let old = reader.poll().expect("poll the old store");
        assert_eq!(materialize(&old.logs).expect("old").0.message_count(), 6);
        let logs = ping_pong_logs(40);
        persist_logs(&root, "t", &logs).expect("persist again");
        let polled = reader.poll().expect("poll the new store");
        let full = read_trace_dir(store.dir()).expect("full read");
        assert_eq!(polled.logs, full.logs);
        assert_eq!(polled.records, full.records);
        assert_eq!(polled.generation, full.generation);
        assert_eq!(full.logs, logs);
        assert_eq!(
            materialize(&polled.logs).expect("new").0.message_count(),
            80
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tail_reader_recovers_a_torn_tail_once_it_completes() {
        use crate::TraceTailReader;
        let root = temp_root("tailer-torn");
        let logs = ping_pong_logs(3);
        let store = persist_logs(&root, "torn", &logs).expect("persist");
        // Rewrite the log with a record torn in half; the reader must park
        // its offset before the torn record and pick it up whole later.
        let log_path = store.dir().join(crate::LOG_FILE);
        let full_bytes = {
            let mut out = std::fs::read(&log_path).expect("read log");
            let extra = record_from_log_entry(0, 99, &LogEntry::Internal);
            let mut framed = Vec::new();
            crate::record::encode_record(&mut framed, &extra);
            out.extend_from_slice(&framed);
            out
        };
        std::fs::write(&log_path, &full_bytes[..full_bytes.len() - 3]).expect("tear");
        let mut reader = TraceTailReader::new(store.dir());
        let torn = reader.poll().expect("poll torn");
        assert!(torn.torn_bytes > 0);
        std::fs::write(&log_path, &full_bytes).expect("complete");
        let healed = reader.poll().expect("poll healed");
        assert_eq!(healed.torn_bytes, 0);
        let full = read_trace_dir(store.dir()).expect("full read");
        assert_eq!(healed.logs, full.logs);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn multi_epoch_persist_materializes_the_latest_epoch() {
        use crate::ReconfigRecord;
        // Two epochs of the same 2-process workload: keys repeat across
        // epochs (each epoch's run restarts its counters), which is
        // exactly what the boundary cuts disambiguate.
        let root = temp_root("epochs");
        let epoch0 = ping_pong_logs(2);
        let epoch1 = ping_pong_logs(5);
        let cuts: Vec<u64> = epoch0.iter().map(|log| log.len() as u64).collect();
        let merged: Vec<Vec<LogEntry>> = epoch0
            .iter()
            .zip(&epoch1)
            .map(|(a, b)| a.iter().chain(b).cloned().collect())
            .collect();
        let boundary = ReconfigRecord {
            epoch: 1,
            cuts,
            ops: vec![(0, 0, 1)],
        };
        let store =
            persist_logs_with_reconfigs(&root, "churned", &merged, std::slice::from_ref(&boundary))
                .expect("persist");
        let rec = read_trace_dir(store.dir()).expect("recover");
        assert_eq!(rec.reconfigs, vec![boundary]);
        let (epoch, comp, stamps) = materialize_latest_epoch(&rec).expect("latest epoch");
        assert_eq!(epoch, 1);
        // The served segment is exactly epoch 1's run.
        let (ref_comp, ref_stamps) = reconstruct_from_logs(&epoch1).expect("reference");
        assert_eq!(comp.message_count(), ref_comp.message_count());
        for i in 0..ref_stamps.len() {
            use synctime_trace::MessageId;
            assert_eq!(stamps.row(MessageId(i)), ref_stamps.row(MessageId(i)));
        }
        // A trace with no boundary serves whole, as epoch 0.
        let plain = persist_logs(&root, "plain", &epoch0).expect("persist plain");
        let rec = read_trace_dir(plain.dir()).expect("recover plain");
        let (epoch, comp, _) = materialize_latest_epoch(&rec).expect("whole trace");
        assert_eq!(epoch, 0);
        assert_eq!(comp.message_count(), 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn drained_channel_without_events_still_seals_the_store() {
        let root = temp_root("empty");
        let (tx, writer) = spawn_writer(&root, "empty", 3).expect("spawn");
        let (_unused_tx, _) = mpsc::channel::<Vec<PersistEvent>>();
        drop(tx);
        let store = writer.finish().expect("finish");
        let rec = read_trace_dir(store.dir()).expect("recover");
        assert_eq!(rec.process_count, 3);
        assert_eq!(rec.records, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
