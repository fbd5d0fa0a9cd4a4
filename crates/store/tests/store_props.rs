//! Property tests for the store's crash tolerance: arbitrary stamp
//! payloads (covering what any clock backend emits through
//! `wire::encode_full`) encoded into store files, then truncated or
//! corrupted at arbitrary byte positions — recovery must keep exactly a
//! valid record prefix, reconstruct it successfully, and never panic.
//!
//! Differential tests pin recovery to the implementation it replaced:
//! the bytewise CRC table, and the ordered-map dedup, dense prefix and
//! round-based matched-keys fixpoint below, run on randomly torn,
//! shuffled and duplicated record streams.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use synctime_core::{wire, MessageTimestamps, VectorTime};
use synctime_store::record::{
    encode_meta, encode_reconfig, encode_record, scan_file, Meta, FORMAT_VERSION,
};
use synctime_store::{
    crc32, materialize, materialize_latest_epoch, persist_logs, read_trace_dir,
    record_from_log_entry, LogEntry, PersistEvent, ReconfigRecord, RecoveredTrace, StampRecord,
    StoreError, TraceTailReader, LOG_FILE, SNAPSHOT_FILE,
};
use synctime_trace::{EventKind, MessageId, SyncComputation, TraceError};

/// Suffix that keeps every case's directory distinct within a process.
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "synctime-store-props-{}-{}-{tag}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp root");
    dir
}

// Arbitrary stamp bytes as any clock backend would produce them: every
// backend serialises through `wire::encode_full`, so an arbitrary
// component vector covers dense and tree-summarised clocks alike (they
// differ in how they *compute* components, not in the wire form).
prop_compose! {
    fn arb_stamp()(components in collection::vec(0u64..1_000_000, 0..9)) -> Vec<u8> {
        wire::encode_full(&synctime_core::VectorTime::from(components))
    }
}

prop_compose! {
    fn arb_record()(
        process in 0u64..4,
        pseq in 0u64..64,
        peer in 0u64..4,
        key in any::<u64>(),
        stamp in arb_stamp(),
        kind in 0u8..3,
    ) -> StampRecord {
        match kind {
            0 => StampRecord::Sent { process, pseq, peer, key, stamp },
            1 => StampRecord::Received { process, pseq, peer, key, stamp },
            _ => StampRecord::Internal { process, pseq },
        }
    }
}

fn encode_file(records: &[StampRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_meta(
        &mut bytes,
        &Meta {
            version: FORMAT_VERSION,
            process_count: 4,
            generation: 0,
        },
    );
    for rec in records {
        encode_record(&mut bytes, rec);
    }
    bytes
}

/// Deterministic two-process rendezvous logs: `rounds` ping-pongs built
/// by hand (no runtime needed), with stamps of the given dimension so
/// different clock widths flow through persistence.
fn synthetic_logs(rounds: u64, dim: usize) -> Vec<Vec<LogEntry>> {
    let stamp = |c: u64| {
        let mut v = vec![0u64; dim.max(1)];
        v[0] = c;
        synctime_core::VectorTime::from(v)
    };
    let mut a = Vec::new();
    let mut b = Vec::new();
    for r in 0..rounds {
        let k1 = r * 2;
        let k2 = r * 2 + 1;
        a.push(LogEntry::Sent {
            to: 1,
            key: k1,
            stamp: stamp(k1 + 1),
        });
        b.push(LogEntry::Received {
            from: 0,
            key: k1,
            stamp: stamp(k1 + 1),
        });
        b.push(LogEntry::Internal);
        b.push(LogEntry::Sent {
            to: 0,
            key: (1 << 32) | k2,
            stamp: stamp(k2 + 1),
        });
        a.push(LogEntry::Received {
            from: 1,
            key: (1 << 32) | k2,
            stamp: stamp(k2 + 1),
        });
    }
    vec![a, b]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Untruncated files scan back to exactly the records written, and
    /// any truncation keeps a (possibly shorter) prefix — never garbage,
    /// never a panic.
    #[test]
    fn truncated_files_scan_to_a_record_prefix(
        records in collection::vec(arb_record(), 0..24),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode_file(&records);
        let events: Vec<PersistEvent> = records.iter().map(event_of).collect();
        let whole = scan_file(&bytes);
        prop_assert_eq!(whole.records.as_slice(), events.as_slice());
        prop_assert_eq!(whole.torn_bytes, 0);

        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let scan = scan_file(&bytes[..cut]);
        prop_assert!(scan.records.len() <= records.len());
        prop_assert_eq!(scan.records.as_slice(), &events[..scan.records.len()]);
    }

    /// A single flipped byte anywhere in the file still yields a valid
    /// record prefix (the CRC refuses the damaged record and everything
    /// after it; records before the flip are untouched).
    #[test]
    fn corrupted_files_scan_to_a_record_prefix(
        records in collection::vec(arb_record(), 1..16),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_file(&records);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let scan = scan_file(&bytes);
        prop_assert!(scan.records.len() <= records.len());
        for (got, want) in scan.records.iter().zip(records.iter()) {
            prop_assert_eq!(got, &event_of(want));
        }
    }

    /// End-to-end crash recovery: persist a run, truncate the sealed
    /// log at an arbitrary byte, and recover — the result is always
    /// a reconstructible prefix of the original per-process logs (or a
    /// typed corruption error while META itself is torn; never a panic).
    #[test]
    fn torn_store_recovers_a_reconstructible_prefix(
        rounds in 1u64..6,
        dim in 1usize..5,
        cut_frac in 0.0f64..1.0,
    ) {
        let logs = synthetic_logs(rounds, dim);
        let root = temp_root(&format!("torn-{rounds}-{dim}"));
        let store = persist_logs(&root, "t", &logs).expect("persist");
        let log = store.dir().join(LOG_FILE);
        let bytes = std::fs::read(&log).expect("read log");

        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&log, &bytes[..cut]).expect("truncate");
        match read_trace_dir(store.dir()) {
            Ok(rec) => {
                prop_assert_eq!(rec.logs.len(), logs.len());
                for (got, want) in rec.logs.iter().zip(logs.iter()) {
                    prop_assert!(got.len() <= want.len());
                    prop_assert_eq!(got.as_slice(), &want[..got.len()]);
                }
                materialize(&rec.logs).expect("recovered prefix reconstructs");
            }
            Err(StoreError::Corrupt(_)) => {
                // Only legitimate while the META record itself is torn.
            }
            Err(other) => return Err(TestCaseError::Fail(format!("unexpected error: {other}"))),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Full round trip at arbitrary widths: what goes in comes back out,
    /// bit for bit, through persist → recover → materialize.
    #[test]
    fn persisted_runs_round_trip(rounds in 1u64..8, dim in 1usize..6) {
        let logs = synthetic_logs(rounds, dim);
        let root = temp_root(&format!("rt-{rounds}-{dim}"));
        let store = persist_logs(&root, "t", &logs).expect("persist");
        let rec = read_trace_dir(store.dir()).expect("recover");
        prop_assert_eq!(&rec.logs, &logs);
        prop_assert_eq!(rec.dropped_records, 0);
        materialize(&rec.logs).expect("reconstructs");
        let _ = std::fs::remove_dir_all(&root);
    }
}

// ---------------------------------------------------------------------
// Oracles: the implementations recovery replaced, kept as references.
// ---------------------------------------------------------------------

/// CRC-32 (IEEE) one table lookup per byte — the checksum the store
/// computed before slicing-by-8.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Decodes a record's stamp bytes into the entry replay consumes, as
/// recovery did after dedup.
fn oracle_entry(rec: &StampRecord) -> Result<LogEntry, StoreError> {
    let stamp_of = |bytes: &[u8]| {
        wire::decode_full(bytes).ok_or_else(|| {
            StoreError::Corrupt("stamp bytes failed to decode after a valid scan".to_string())
        })
    };
    Ok(match rec {
        StampRecord::Sent {
            peer, key, stamp, ..
        } => LogEntry::Sent {
            to: *peer as usize,
            key: *key,
            stamp: stamp_of(stamp)?,
        },
        StampRecord::Received {
            peer, key, stamp, ..
        } => LogEntry::Received {
            from: *peer as usize,
            key: *key,
            stamp: stamp_of(stamp)?,
        },
        StampRecord::Internal { .. } => LogEntry::Internal,
    })
}

/// The event a written record persists — what a scan must yield for it.
fn event_of(rec: &StampRecord) -> PersistEvent {
    PersistEvent {
        process: rec.process() as usize,
        pseq: rec.pseq(),
        entry: oracle_entry(rec).expect("written stamps decode"),
    }
}

/// Recovery's invariants as ordered maps: dedup by `(process, pseq)`
/// (first wins) into one `BTreeMap` per process, the dense prefix, the
/// round-based matched-keys fixpoint, then covered epoch boundaries.
fn oracle_assemble(
    dir: &Path,
    metas: &[Meta],
    all: Vec<StampRecord>,
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
    let parsed = all.len();
    let mut per: Vec<BTreeMap<u64, StampRecord>> =
        (0..process_count).map(|_| BTreeMap::new()).collect();
    for rec in all {
        let Some(map) = per.get_mut(rec.process() as usize) else {
            continue;
        };
        map.entry(rec.pseq()).or_insert(rec);
    }
    let mut logs: Vec<Vec<LogEntry>> = Vec::with_capacity(process_count);
    for map in &per {
        let mut log = Vec::with_capacity(map.len());
        for (i, (&pseq, rec)) in map.iter().enumerate() {
            if pseq != i as u64 {
                break;
            }
            log.push(oracle_entry(rec)?);
        }
        logs.push(log);
    }
    oracle_fixpoint(&mut logs);
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

/// The matched-keys fixpoint as rounds over two `BTreeMap` key counts,
/// rebuilt every round.
fn oracle_fixpoint(logs: &mut [Vec<LogEntry>]) {
    loop {
        let mut sent: BTreeMap<u64, usize> = BTreeMap::new();
        let mut received: BTreeMap<u64, usize> = BTreeMap::new();
        for log in logs.iter() {
            for entry in log {
                match entry {
                    LogEntry::Sent { key, .. } => *sent.entry(*key).or_default() += 1,
                    LogEntry::Received { key, .. } => *received.entry(*key).or_default() += 1,
                    LogEntry::Internal => {}
                }
            }
        }
        let mut changed = false;
        for log in logs.iter_mut() {
            let cut = log.iter().position(|entry| match entry {
                LogEntry::Sent { key, .. } => received.get(key).copied().unwrap_or(0) == 0,
                LogEntry::Received { key, .. } => sent.get(key).copied().unwrap_or(0) == 0,
                LogEntry::Internal => false,
            });
            if let Some(cut) = cut {
                log.truncate(cut);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Reconstruction with stamps gathered into per-message options, the
/// first endpoint in process order supplying each.
fn oracle_reconstruct(
    logs: &[Vec<LogEntry>],
) -> Result<(SyncComputation, MessageTimestamps), TraceError> {
    let sequences: Vec<Vec<EventKind>> = logs
        .iter()
        .map(|log| {
            log.iter()
                .map(|entry| match entry {
                    LogEntry::Sent { key, .. } => EventKind::Send(MessageId(*key as usize)),
                    LogEntry::Received { key, .. } => EventKind::Receive(MessageId(*key as usize)),
                    LogEntry::Internal => EventKind::Internal,
                })
                .collect()
        })
        .collect();
    let computation = SyncComputation::from_process_sequences(sequences)?;
    let mut stamps: Vec<Option<VectorTime>> = vec![None; computation.message_count()];
    for (p, log) in logs.iter().enumerate() {
        let local = computation.process_messages(p);
        let mut next = 0usize;
        for entry in log {
            let stamp = match entry {
                LogEntry::Sent { stamp, .. } | LogEntry::Received { stamp, .. } => stamp,
                LogEntry::Internal => continue,
            };
            let id = local[next];
            next += 1;
            if stamps[id.0].is_none() {
                stamps[id.0] = Some(stamp.clone());
            }
        }
    }
    let vectors: Vec<VectorTime> = stamps
        .into_iter()
        .enumerate()
        .map(|(id, s)| s.ok_or(TraceError::MalformedSequences { message: id }))
        .collect::<Result<_, _>>()?;
    Ok((computation, MessageTimestamps::new(vectors)))
}

/// The latest epoch's segment, trimmed by the oracle fixpoint and
/// reconstructed by the oracle.
fn oracle_materialize_latest_epoch(
    trace: &RecoveredTrace,
) -> Result<(u64, SyncComputation, MessageTimestamps), StoreError> {
    let (epoch, segment) = match trace.reconfigs.last() {
        None => (0, trace.logs.clone()),
        Some(last) => {
            let mut segment: Vec<Vec<LogEntry>> = trace
                .logs
                .iter()
                .zip(&last.cuts)
                .map(|(log, &cut)| log.get(cut as usize..).unwrap_or(&[]).to_vec())
                .collect();
            oracle_fixpoint(&mut segment);
            (last.epoch, segment)
        }
    };
    let (comp, stamps) =
        oracle_reconstruct(&segment).map_err(|e| StoreError::Replay(e.to_string()))?;
    Ok((epoch, comp, stamps))
}

// ---------------------------------------------------------------------
// Random stores: shuffled, duplicated, gapped, multi-epoch, torn.
// ---------------------------------------------------------------------

/// One framed record of a store file.
#[derive(Debug, Clone)]
enum Item {
    Entry(StampRecord),
    Boundary(ReconfigRecord),
}

impl Item {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Item::Entry(rec) => encode_record(out, rec),
            Item::Boundary(rec) => encode_reconfig(out, rec),
        }
    }
}

/// One store file as planted: its META, its records, and how many of
/// its bytes survived the crash.
#[derive(Debug)]
struct PlantedFile {
    meta: Meta,
    items: Vec<Item>,
    kept_bytes: usize,
}

impl PlantedFile {
    fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_meta(&mut out, &self.meta);
        for item in &self.items {
            item.encode(&mut out);
        }
        out.truncate(self.kept_bytes);
        out
    }

    /// What a scan of the torn file keeps — every record wholly inside
    /// the surviving bytes — without reading them: `(meta, entries,
    /// boundaries, torn bytes)`.
    fn oracle_scan(&self) -> (Option<Meta>, Vec<StampRecord>, Vec<ReconfigRecord>, usize) {
        let mut pos = {
            let mut meta = Vec::new();
            encode_meta(&mut meta, &self.meta);
            meta.len()
        };
        if pos > self.kept_bytes {
            return (None, Vec::new(), Vec::new(), self.kept_bytes);
        }
        let (mut entries, mut boundaries) = (Vec::new(), Vec::new());
        for item in &self.items {
            let mut framed = Vec::new();
            item.encode(&mut framed);
            if pos + framed.len() > self.kept_bytes {
                break;
            }
            pos += framed.len();
            match item {
                Item::Entry(rec) => entries.push(rec.clone()),
                Item::Boundary(rec) => boundaries.push(rec.clone()),
            }
        }
        (Some(self.meta), entries, boundaries, self.kept_bytes - pos)
    }
}

/// A stamp that depends on its message key alone, so that endpoints a
/// damaged store pairs up by key always agree.
fn stamp_for(key: u64, dim: usize) -> VectorTime {
    VectorTime::from(
        (0..dim as u64)
            .map(|i| key * (i + 1) + i)
            .collect::<Vec<u64>>(),
    )
}

/// Plants a store of a random multi-epoch run — message keys restart in
/// every epoch — damaged the ways crashes and compaction races damage
/// one: records lost (pseq gaps, half-lost rendezvous), duplicated with
/// conflicting content, reordered, split across a snapshot and a log that
/// overlap, and both files torn at a random byte.
fn plant(seed: u64) -> (Option<PlantedFile>, Option<PlantedFile>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let procs = rng.gen_range(2..6usize);
    let dim = rng.gen_range(1..4usize);
    let mut logs: Vec<Vec<LogEntry>> = vec![Vec::new(); procs];
    let mut boundaries = Vec::new();
    for epoch in 0..rng.gen_range(1..4u64) {
        if epoch > 0 {
            boundaries.push(ReconfigRecord {
                epoch,
                cuts: logs.iter().map(|l| l.len() as u64).collect(),
                ops: vec![(rng.gen_range(0..2u8), 0, 1)],
            });
        }
        for key in 0..rng.gen_range(0..14u64) {
            if rng.gen_range(0..4u32) == 0 {
                let p = rng.gen_range(0..procs);
                logs[p].push(LogEntry::Internal);
            }
            let sender = rng.gen_range(0..procs);
            let receiver = (sender + rng.gen_range(1..procs)) % procs;
            let stamp = stamp_for(key, dim);
            logs[sender].push(LogEntry::Sent {
                to: receiver,
                key,
                stamp: stamp.clone(),
            });
            logs[receiver].push(LogEntry::Received {
                from: sender,
                key,
                stamp,
            });
        }
    }
    let mut items: Vec<Item> = Vec::new();
    for (p, log) in logs.iter().enumerate() {
        for (pseq, entry) in log.iter().enumerate() {
            items.push(Item::Entry(record_from_log_entry(
                p as u64,
                pseq as u64,
                entry,
            )));
        }
    }
    // Boundaries land anywhere in the stream: recovery places them by
    // their cuts, not their file position.
    for boundary in boundaries {
        let at = rng.gen_range(0..=items.len());
        items.insert(at, Item::Boundary(boundary));
    }
    for _ in 0..rng.gen_range(0..3u32) {
        if !items.is_empty() {
            items.remove(rng.gen_range(0..items.len()));
        }
    }
    for _ in 0..rng.gen_range(0..3u32) {
        if items.is_empty() {
            break;
        }
        let Item::Entry(rec) = items[rng.gen_range(0..items.len())].clone() else {
            continue;
        };
        // Same coordinate, different message: only file order decides
        // which copy recovery keeps.
        let conflicting = match rec {
            StampRecord::Sent {
                process,
                pseq,
                peer,
                key,
                ..
            } => StampRecord::Sent {
                process,
                pseq,
                peer,
                key: key + 100,
                stamp: wire::encode_full(&stamp_for(key + 100, dim)),
            },
            other => StampRecord::Received {
                process: other.process(),
                pseq: other.pseq(),
                peer: 0,
                key: 200,
                stamp: wire::encode_full(&stamp_for(200, dim)),
            },
        };
        let at = rng.gen_range(0..=items.len());
        items.insert(at, Item::Entry(conflicting));
    }
    match rng.gen_range(0..3u32) {
        0 => items.shuffle(&mut rng),
        1 if items.len() > 1 => {
            let from = rng.gen_range(0..items.len());
            let to = rng.gen_range(from..=items.len());
            items[from..to].shuffle(&mut rng);
        }
        _ => {}
    }
    let process_count = if rng.gen_range(0..8u32) == 0 {
        procs as u64 - 1
    } else {
        procs as u64
    };
    let meta = |generation| Meta {
        version: FORMAT_VERSION,
        process_count,
        generation,
    };
    if rng.gen_range(0..4u32) == 0 {
        let log = PlantedFile {
            meta: meta(0),
            items,
            kept_bytes: usize::MAX,
        };
        return (None, Some(tear(log, &mut rng)));
    }
    // The snapshot holds a prefix of the stream; the log repeats part
    // of it (a crash between the snapshot's rename and the log's
    // truncation) and carries the rest.
    let in_snapshot = rng.gen_range(0..=items.len());
    let log_from = rng.gen_range(0..=in_snapshot);
    let generation = rng.gen_range(1..4u64);
    let mut log_meta = meta(generation - u64::from(log_from < in_snapshot));
    if rng.gen_range(0..16u32) == 0 {
        log_meta.process_count += 1;
    }
    let snapshot = PlantedFile {
        meta: meta(generation),
        items: items[..in_snapshot].to_vec(),
        kept_bytes: usize::MAX,
    };
    let log = PlantedFile {
        meta: log_meta,
        items: items[log_from..].to_vec(),
        kept_bytes: usize::MAX,
    };
    (Some(tear(snapshot, &mut rng)), Some(tear(log, &mut rng)))
}

/// Tears a file the way a crash does: intact, anywhere, or (most often)
/// within its last few records.
fn tear(file: PlantedFile, rng: &mut StdRng) -> PlantedFile {
    let len = file.bytes().len();
    let kept_bytes = match rng.gen_range(0..4u32) {
        0 => len,
        1 => rng.gen_range(0..=len),
        _ => len - rng.gen_range(0..=len.min(48)),
    };
    PlantedFile { kept_bytes, ..file }
}

/// Recovery of the planted files, computed by the oracles from what each
/// file was known to hold.
fn oracle_recover(
    dir: &Path,
    snapshot: Option<&PlantedFile>,
    log: Option<&PlantedFile>,
) -> Result<RecoveredTrace, StoreError> {
    let (mut metas, mut all, mut reconfigs, mut torn_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), 0usize);
    for file in [snapshot, log].into_iter().flatten() {
        let (meta, entries, boundaries, torn) = file.oracle_scan();
        torn_bytes += torn;
        if let Some(meta) = meta {
            metas.push(meta);
            all.extend(entries);
            reconfigs.extend(boundaries);
        }
    }
    oracle_assemble(dir, &metas, all, reconfigs, torn_bytes)
}

fn assert_same_recovery(
    got: &Result<RecoveredTrace, StoreError>,
    want: &Result<RecoveredTrace, StoreError>,
    what: &str,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(
                got.process_count,
                want.process_count,
                "{}: process_count",
                what
            );
            prop_assert_eq!(got.generation, want.generation, "{}: generation", what);
            prop_assert_eq!(&got.logs, &want.logs, "{}: logs", what);
            prop_assert_eq!(got.records, want.records, "{}: records", what);
            prop_assert_eq!(got.torn_bytes, want.torn_bytes, "{}: torn_bytes", what);
            prop_assert_eq!(
                got.dropped_records,
                want.dropped_records,
                "{}: dropped_records",
                what
            );
            prop_assert_eq!(&got.reconfigs, &want.reconfigs, "{}: reconfigs", what);
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want, "{}: error", what),
        _ => {
            return Err(TestCaseError::Fail(format!(
                "{what}: got {got:?}, oracle {want:?}"
            )))
        }
    }
    Ok(())
}

#[test]
fn crc32_matches_the_bytewise_table_at_every_length_and_alignment() {
    let buf: Vec<u8> = (0..80u32).map(|i| ((i * 151) ^ 0x5a) as u8).collect();
    for align in 0..8 {
        for len in 0..=64 {
            let bytes = &buf[align..align + len];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "length {len} at alignment {align}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn crc32_matches_the_bytewise_table_on_random_buffers(
        bytes in collection::vec(any::<u8>(), 0..2048),
        skip in 0usize..8,
    ) {
        let bytes = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
    }

    /// Damaged stores recover exactly as the ordered-map oracle recovers
    /// them — logs, counts, torn bytes, boundaries, or the same error —
    /// whether read whole or through a tailing reader, and their latest
    /// epoch materialises to the oracle's computation and stamps.
    #[test]
    fn damaged_stores_recover_as_the_oracle_does(seed in any::<u64>()) {
        let (snapshot, log) = plant(seed);
        let dir = temp_root("oracle");
        for (name, file) in [(SNAPSHOT_FILE, &snapshot), (LOG_FILE, &log)] {
            if let Some(file) = file {
                std::fs::write(dir.join(name), file.bytes()).expect("plant store file");
            }
        }
        let got = read_trace_dir(&dir);
        let want = oracle_recover(&dir, snapshot.as_ref(), log.as_ref());
        assert_same_recovery(&got, &want, "read_trace_dir")?;
        let tailed = TraceTailReader::new(&dir).poll();
        assert_same_recovery(&tailed, &want, "TraceTailReader")?;
        if let (Ok(got), Ok(want)) = (&got, &want) {
            prop_assert_eq!(
                materialize_latest_epoch(got),
                oracle_materialize_latest_epoch(want)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A store whose stamps disagree in dimension — key 0 stamped `[1]`, key
/// 1 stamped `[2, 1]` — recovers whole, and materializing it is a typed
/// replay error naming the message and both dimensions, not a panic.
#[test]
fn stamps_of_mixed_dimension_are_a_typed_replay_error() {
    let (narrow, wide) = (VectorTime::from(vec![1]), VectorTime::from(vec![2, 1]));
    let logs = vec![
        vec![
            LogEntry::Sent {
                to: 1,
                key: 0,
                stamp: narrow.clone(),
            },
            LogEntry::Received {
                from: 1,
                key: 1,
                stamp: wide.clone(),
            },
        ],
        vec![
            LogEntry::Received {
                from: 0,
                key: 0,
                stamp: narrow,
            },
            LogEntry::Sent {
                to: 0,
                key: 1,
                stamp: wide,
            },
        ],
    ];
    let root = temp_root("mixed-dims");
    let store = persist_logs(&root, "t", &logs).expect("persist");
    let rec = read_trace_dir(store.dir()).expect("recover");
    assert_eq!((rec.records, rec.torn_bytes), (4, 0));
    match materialize_latest_epoch(&rec) {
        Err(StoreError::Replay(detail)) => assert!(
            detail.contains("message 1 is stamped with 2 components") && detail.contains("with 1"),
            "{detail}"
        ),
        other => panic!("expected a typed replay error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}
