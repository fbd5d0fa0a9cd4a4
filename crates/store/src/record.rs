//! The on-disk record codec.
//!
//! A store file is a sequence of framed records:
//!
//! ```text
//! record := u32 le payload_len | u32 le crc32(payload) | payload
//! ```
//!
//! and a payload is a 1-byte tag followed by LEB128 varints (the same
//! varints `synctime_core::wire` uses on the network):
//!
//! | tag | name     | payload after the tag                                        |
//! |-----|----------|--------------------------------------------------------------|
//! | 0   | META     | varint version, varint process_count, varint generation      |
//! | 1   | SENT     | varint process, varint pseq, varint peer, varint key, stamp  |
//! | 2   | RECEIVED | varint process, varint pseq, varint peer, varint key, stamp  |
//! | 3   | INTERNAL | varint process, varint pseq                                  |
//! | 4   | RECONFIG | varint epoch, varint cut_count, cuts, varint op_count, ops   |
//!
//! The stamp is **last** and runs to the end of the payload: it is exactly
//! the bytes [`wire::encode_full`] produces from the stamp's dense
//! interchange vector, so every `--clock` backend round-trips
//! byte-identically. Scanning decodes it once, straight into the
//! [`LogEntry`] replay consumes, and [`wire::decode_full`]'s
//! exact-consumption check is what validates it. Record sizes are priced
//! byte-for-byte by `wire::store_meta_record_bytes` /
//! `store_stamp_record_bytes` / `store_internal_record_bytes` (asserted by
//! this module's tests).

use synctime_core::wire;
use synctime_runtime::{LogEntry, PersistEvent};
use synctime_trace::ProcessId;

use crate::crc::crc32;

/// The record-format version written into every META record. Readers
/// refuse other versions rather than guess.
pub const FORMAT_VERSION: u64 = 1;

/// Upper bound on one record's payload length: a larger length prefix is
/// a torn or hostile file, not a real record (the largest legitimate
/// payload is a stamp record whose vector is bounded by the decomposition
/// dimension).
pub const MAX_RECORD_PAYLOAD: u32 = 1 << 24;

const TAG_META: u8 = 0;
const TAG_SENT: u8 = 1;
const TAG_RECEIVED: u8 = 2;
const TAG_INTERNAL: u8 = 3;
const TAG_RECONFIG: u8 = 4;

/// A store file's leading record: what a reader must know before it can
/// interpret the entry records that follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// The record-format version (see [`FORMAT_VERSION`]).
    pub version: u64,
    /// The run's process count — the number of per-process logs replay
    /// reassembles.
    pub process_count: u64,
    /// How many times the trace directory's store was replaced before
    /// this file was written: [`TraceStore::create`](crate::TraceStore::create)
    /// writes one above the highest generation it finds, so a tailing
    /// reader notices a replaced store. Earlier builds also counted
    /// compactions.
    pub generation: u64,
}

/// One durable execution-log record, as appended: a [`LogEntry`] plus the
/// `(process, pseq)` coordinates that make replay order-independent, its
/// stamp already encoded. Scanning yields the decoded form, a
/// [`PersistEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StampRecord {
    /// The process sent a message (the OFFER side of a rendezvous).
    Sent {
        /// The logging (sending) process.
        process: u64,
        /// The entry's position in that process's log.
        pseq: u64,
        /// The receiving process.
        peer: u64,
        /// The message's reconstruction key.
        key: u64,
        /// The agreed timestamp, encoded by the clock wire seam
        /// ([`wire::encode_full`]).
        stamp: Vec<u8>,
    },
    /// The process received a message (the ACK side of a rendezvous).
    Received {
        /// The logging (receiving) process.
        process: u64,
        /// The entry's position in that process's log.
        pseq: u64,
        /// The sending process.
        peer: u64,
        /// The message's reconstruction key.
        key: u64,
        /// The agreed timestamp, encoded by the clock wire seam.
        stamp: Vec<u8>,
    },
    /// The process logged a local event.
    Internal {
        /// The logging process.
        process: u64,
        /// The entry's position in that process's log.
        pseq: u64,
    },
}

impl StampRecord {
    /// The logging process.
    pub fn process(&self) -> u64 {
        match self {
            StampRecord::Sent { process, .. }
            | StampRecord::Received { process, .. }
            | StampRecord::Internal { process, .. } => *process,
        }
    }

    /// The record's position in its process's log.
    pub fn pseq(&self) -> u64 {
        match self {
            StampRecord::Sent { pseq, .. }
            | StampRecord::Received { pseq, .. }
            | StampRecord::Internal { pseq, .. } => *pseq,
        }
    }

    /// The framed on-disk size of this record, via `core::wire`'s store
    /// pricing helpers — asserted byte-for-byte against [`encode_record`].
    pub fn encoded_len(&self) -> u64 {
        match self {
            StampRecord::Sent {
                process,
                pseq,
                peer,
                key,
                stamp,
            }
            | StampRecord::Received {
                process,
                pseq,
                peer,
                key,
                stamp,
            } => wire::store_stamp_record_bytes(*process, *pseq, *peer, *key, stamp.len()),
            StampRecord::Internal { process, pseq } => {
                wire::store_internal_record_bytes(*process, *pseq)
            }
        }
    }
}

/// An epoch boundary made durable: a committed reconfiguration's position
/// in every process's log, so replay can segment a trace into epochs and
/// materialize the latest one even after a crash mid-churn.
///
/// The remap itself is **not** stored — stamps are logged post-rebase, so
/// replay never needs to re-run a remap; the edge operations ride along as
/// provenance (what changed, auditable from the trace alone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigRecord {
    /// The epoch this boundary establishes (the first committed boundary
    /// writes epoch 1).
    pub epoch: u64,
    /// Per process, the length of its log when the boundary committed:
    /// entries `< cuts[p]` belong to earlier epochs, entries `>= cuts[p]`
    /// to this one. One cut per process of the run.
    pub cuts: Vec<u64>,
    /// The edit batch that produced the new topology, as
    /// `(kind, u, v)` triples — kind 0 inserts edge `(u, v)`, kind 1
    /// removes it (mirrors `synctime_graph::EdgeOp`).
    pub ops: Vec<(u8, u64, u64)>,
}

impl ReconfigRecord {
    /// The framed on-disk size of this record, priced byte-for-byte by
    /// `core::wire::store_reconfig_record_bytes`.
    pub fn encoded_len(&self) -> u64 {
        wire::store_reconfig_record_bytes(self.epoch, &self.cuts, &self.ops)
    }
}

/// Appends one framed record to `out`: an 8-byte header placeholder, the
/// payload `write_payload` writes straight after it, then the payload's
/// length and CRC patched into the header.
fn framed(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    write_payload(out);
    let payload = &out[start + 8..];
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + 8].copy_from_slice(&crc);
}

/// Writes a payload's tag and its leading varint fields.
fn push_head(out: &mut Vec<u8>, tag: u8, fields: &[u64]) {
    out.push(tag);
    for &field in fields {
        wire::push_varint(out, field);
    }
}

/// Appends a framed META record to `out`.
pub fn encode_meta(out: &mut Vec<u8>, meta: &Meta) {
    framed(out, |out| {
        push_head(
            out,
            TAG_META,
            &[meta.version, meta.process_count, meta.generation],
        );
    });
}

/// Appends a framed entry record to `out`.
pub fn encode_record(out: &mut Vec<u8>, rec: &StampRecord) {
    framed(out, |out| match rec {
        StampRecord::Sent {
            process,
            pseq,
            peer,
            key,
            stamp,
        } => {
            push_head(out, TAG_SENT, &[*process, *pseq, *peer, *key]);
            out.extend_from_slice(stamp);
        }
        StampRecord::Received {
            process,
            pseq,
            peer,
            key,
            stamp,
        } => {
            push_head(out, TAG_RECEIVED, &[*process, *pseq, *peer, *key]);
            out.extend_from_slice(stamp);
        }
        StampRecord::Internal { process, pseq } => {
            push_head(out, TAG_INTERNAL, &[*process, *pseq]);
        }
    });
}

/// Appends the framed record that
/// [`record_from_log_entry`](crate::record_from_log_entry)`(process, pseq,
/// entry)` encodes to, writing the stamp in place instead of through an
/// intermediate [`StampRecord`].
pub(crate) fn encode_entry(out: &mut Vec<u8>, process: u64, pseq: u64, entry: &LogEntry) {
    framed(out, |out| match entry {
        LogEntry::Sent { to, key, stamp } => {
            push_head(out, TAG_SENT, &[process, pseq, *to as u64, *key]);
            wire::push_full(out, stamp.as_slice());
        }
        LogEntry::Received { from, key, stamp } => {
            push_head(out, TAG_RECEIVED, &[process, pseq, *from as u64, *key]);
            wire::push_full(out, stamp.as_slice());
        }
        LogEntry::Internal => push_head(out, TAG_INTERNAL, &[process, pseq]),
    });
}

/// Appends a framed RECONFIG record to `out`.
pub fn encode_reconfig(out: &mut Vec<u8>, rec: &ReconfigRecord) {
    framed(out, |out| {
        push_head(out, TAG_RECONFIG, &[rec.epoch, rec.cuts.len() as u64]);
        for &cut in &rec.cuts {
            wire::push_varint(out, cut);
        }
        wire::push_varint(out, rec.ops.len() as u64);
        for &(kind, u, v) in &rec.ops {
            wire::push_varint(out, kind as u64);
            wire::push_varint(out, u);
            wire::push_varint(out, v);
        }
    });
}

/// What a scan of one store file's bytes yielded: the valid prefix, and
/// how many tail bytes it refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileScan {
    /// The file's META record, if its first record parsed as one.
    pub meta: Option<Meta>,
    /// Every entry record of the valid prefix, in file order, decoded
    /// into the event it persisted.
    pub records: Vec<PersistEvent>,
    /// Every RECONFIG epoch-boundary record of the valid prefix, in file
    /// order. Kept apart from `records`: a boundary's position in a
    /// process log is given by its `cuts`, not by its interleaving in the
    /// file.
    pub reconfigs: Vec<ReconfigRecord>,
    /// Bytes at the tail that did not form a valid record: a torn final
    /// write, a failed checksum, or garbage. Everything before them is
    /// kept; everything from the first invalid byte on is dropped.
    pub torn_bytes: usize,
}

/// One decoded non-META payload: an entry record or an epoch boundary.
enum Decoded {
    Entry(PersistEvent),
    Reconfig(ReconfigRecord),
}

/// Converts a stored process id. An id too large for `usize` becomes
/// `ProcessId::MAX`, which — like any id beyond the META's count — names
/// no process of the run.
fn process_id(stored: u64) -> ProcessId {
    ProcessId::try_from(stored).unwrap_or(ProcessId::MAX)
}

/// Decodes one record payload (tag + fields), or `None` for a malformed
/// payload. A stamp is decoded here, once, so replay never meets an
/// undecodable one.
fn decode_payload(payload: &[u8]) -> Option<Decoded> {
    let (&tag, rest) = payload.split_first()?;
    let mut pos = 0usize;
    match tag {
        TAG_SENT | TAG_RECEIVED => {
            let process = wire::read_varint(rest, &mut pos)?;
            let pseq = wire::read_varint(rest, &mut pos)?;
            let peer = process_id(wire::read_varint(rest, &mut pos)?);
            let key = wire::read_varint(rest, &mut pos)?;
            let stamp = wire::decode_full(&rest[pos..])?;
            let entry = if tag == TAG_SENT {
                LogEntry::Sent {
                    to: peer,
                    key,
                    stamp,
                }
            } else {
                LogEntry::Received {
                    from: peer,
                    key,
                    stamp,
                }
            };
            Some(Decoded::Entry(PersistEvent {
                process: process_id(process),
                pseq,
                entry,
            }))
        }
        TAG_INTERNAL => {
            let process = wire::read_varint(rest, &mut pos)?;
            let pseq = wire::read_varint(rest, &mut pos)?;
            (pos == rest.len()).then_some(Decoded::Entry(PersistEvent {
                process: process_id(process),
                pseq,
                entry: LogEntry::Internal,
            }))
        }
        TAG_RECONFIG => {
            let epoch = wire::read_varint(rest, &mut pos)?;
            let cut_count = wire::read_varint(rest, &mut pos)?;
            if cut_count > MAX_RECORD_PAYLOAD as u64 {
                return None;
            }
            let mut cuts = Vec::with_capacity(cut_count as usize);
            for _ in 0..cut_count {
                cuts.push(wire::read_varint(rest, &mut pos)?);
            }
            let op_count = wire::read_varint(rest, &mut pos)?;
            if op_count > MAX_RECORD_PAYLOAD as u64 {
                return None;
            }
            let mut ops = Vec::with_capacity(op_count as usize);
            for _ in 0..op_count {
                let kind = wire::read_varint(rest, &mut pos)?;
                if kind > 1 {
                    return None;
                }
                let u = wire::read_varint(rest, &mut pos)?;
                let v = wire::read_varint(rest, &mut pos)?;
                ops.push((kind as u8, u, v));
            }
            (pos == rest.len()).then_some(Decoded::Reconfig(ReconfigRecord { epoch, cuts, ops }))
        }
        _ => None,
    }
}

/// Decodes a META payload, or `None` if it is not one.
fn decode_meta_payload(payload: &[u8]) -> Option<Meta> {
    let (&tag, rest) = payload.split_first()?;
    if tag != TAG_META {
        return None;
    }
    let mut pos = 0usize;
    let version = wire::read_varint(rest, &mut pos)?;
    let process_count = wire::read_varint(rest, &mut pos)?;
    let generation = wire::read_varint(rest, &mut pos)?;
    (pos == rest.len()).then_some(Meta {
        version,
        process_count,
        generation,
    })
}

/// Splits the framed record at `bytes[*pos..]`, advancing the cursor past
/// it. Returns `None` (cursor untouched) when the bytes there do not form
/// a complete record with a matching checksum.
fn next_payload<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let rest = &bytes[*pos..];
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    if len == 0 || len > MAX_RECORD_PAYLOAD {
        return None;
    }
    let want = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    let payload = rest.get(8..8 + len as usize)?;
    if crc32(payload) != want {
        return None;
    }
    *pos += 8 + len as usize;
    Some(payload)
}

/// Scans one store file's bytes into its valid record prefix.
///
/// The first record must be a META record; without one the whole file is
/// treated as torn (a crash during file creation). After it, records are
/// taken in order until the first framing violation, checksum failure, or
/// malformed payload — the torn-tail rule: **keep the valid prefix, drop
/// the rest, never fail**. Scanning cannot error; corruption shows up as
/// `torn_bytes` and a shorter prefix, and it is the caller's dedup/trim
/// pass ([`read_trace_dir`](crate::read_trace_dir)) that decides what the
/// surviving records mean.
pub fn scan_file(bytes: &[u8]) -> FileScan {
    let Some((meta, at)) = scan_meta(bytes) else {
        return FileScan {
            meta: None,
            records: Vec::new(),
            reconfigs: Vec::new(),
            torn_bytes: bytes.len(),
        };
    };
    let mut records = Vec::new();
    let mut reconfigs = Vec::new();
    let valid = scan_records(&bytes[at..], |rec| records.push(rec), &mut reconfigs);
    FileScan {
        meta: Some(meta),
        records,
        reconfigs,
        torn_bytes: bytes.len() - at - valid,
    }
}

/// The store's one scanner: takes entry and RECONFIG records from the
/// start of `bytes`, handing each entry to `entry` and pushing each
/// boundary onto `reconfigs`, until the first framing violation, checksum
/// failure, or malformed payload. Returns how many bytes formed valid
/// records.
pub(crate) fn scan_records(
    bytes: &[u8],
    mut entry: impl FnMut(PersistEvent),
    reconfigs: &mut Vec<ReconfigRecord>,
) -> usize {
    let mut pos = 0usize;
    while let Some(payload) = next_payload(bytes, &mut pos) {
        match decode_payload(payload) {
            Some(Decoded::Entry(rec)) => entry(rec),
            Some(Decoded::Reconfig(rec)) => reconfigs.push(rec),
            None => {
                // A checksum-valid but malformed payload still ends the
                // prefix: trusting anything after an undecodable record
                // would re-order the stream.
                pos -= 8 + payload.len();
                break;
            }
        }
    }
    pos
}

/// Decodes only a file's leading META record, returning it together with
/// how many bytes it occupied — what a tailing reader needs to detect a
/// replaced store (generation bump) without re-reading the whole file.
pub fn scan_meta(bytes: &[u8]) -> Option<(Meta, usize)> {
    let mut pos = 0usize;
    let meta = next_payload(bytes, &mut pos).and_then(decode_meta_payload)?;
    Some((meta, pos))
}

/// The result of scanning a log **tail** — bytes starting mid-file, after
/// a known-good offset, with no META record in front of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailScan {
    /// Entry records of the tail's valid prefix, in file order, decoded
    /// into the events they persisted.
    pub records: Vec<PersistEvent>,
    /// RECONFIG records of the tail's valid prefix, in file order.
    pub reconfigs: Vec<ReconfigRecord>,
    /// How many of the given bytes formed valid records. The caller
    /// advances its offset by exactly this much; a torn final record is
    /// left behind and may complete on a later read.
    pub consumed: usize,
}

/// Scans record bytes that start **after** a file's META — the
/// incremental half of [`scan_file`], used by tailing readers that
/// remember a byte offset and only re-read what appended since. Same
/// torn-tail rule: keep the valid prefix, report how far it reached.
pub fn scan_tail(bytes: &[u8]) -> TailScan {
    let mut records = Vec::new();
    let mut reconfigs = Vec::new();
    let consumed = scan_records(bytes, |rec| records.push(rec), &mut reconfigs);
    TailScan {
        records,
        reconfigs,
        consumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synctime_core::VectorTime;

    /// The events the sample records persist, in order.
    fn sample_events() -> Vec<PersistEvent> {
        let event = |process, pseq, entry| PersistEvent {
            process,
            pseq,
            entry,
        };
        vec![
            event(
                0,
                0,
                LogEntry::Sent {
                    to: 1,
                    key: 0,
                    stamp: VectorTime::from(vec![1, 0]),
                },
            ),
            event(
                1,
                0,
                LogEntry::Received {
                    from: 0,
                    key: 0,
                    stamp: VectorTime::from(vec![1, 0]),
                },
            ),
            event(1, 1, LogEntry::Internal),
            event(
                1,
                2,
                LogEntry::Sent {
                    to: 0,
                    key: 1 << 32,
                    stamp: VectorTime::from(vec![1, 300]),
                },
            ),
        ]
    }

    fn sample_records() -> Vec<StampRecord> {
        sample_events()
            .iter()
            .map(|e| crate::record_from_log_entry(e.process as u64, e.pseq, &e.entry))
            .collect()
    }

    fn encode_file(meta: &Meta, records: &[StampRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_meta(&mut out, meta);
        for r in records {
            encode_record(&mut out, r);
        }
        out
    }

    #[test]
    fn records_roundtrip_and_match_wire_pricing() {
        let meta = Meta {
            version: FORMAT_VERSION,
            process_count: 2,
            generation: 3,
        };
        let records = sample_records();
        let bytes = encode_file(&meta, &records);
        // Every record's framed size is exactly what core::wire prices.
        let mut expected = wire::store_meta_record_bytes(FORMAT_VERSION, 2, 3);
        for r in &records {
            expected += r.encoded_len();
        }
        assert_eq!(bytes.len() as u64, expected);
        let scan = scan_file(&bytes);
        assert_eq!(scan.meta, Some(meta));
        assert_eq!(scan.records, sample_events());
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn entries_encode_in_place_as_their_records() {
        for (event, record) in sample_events().iter().zip(sample_records()) {
            let (mut in_place, mut via_record) = (vec![7], vec![7]);
            encode_entry(
                &mut in_place,
                event.process as u64,
                event.pseq,
                &event.entry,
            );
            encode_record(&mut via_record, &record);
            assert_eq!(in_place, via_record);
        }
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let meta = Meta {
            version: FORMAT_VERSION,
            process_count: 2,
            generation: 0,
        };
        let records = sample_records();
        let events = sample_events();
        let bytes = encode_file(&meta, &records);
        for cut in 0..bytes.len() {
            let scan = scan_file(&bytes[..cut]);
            assert!(scan.records.len() <= records.len());
            assert_eq!(
                scan.records,
                events[..scan.records.len()],
                "prefix property violated at cut {cut}"
            );
        }
        // The untruncated file scans whole.
        assert_eq!(scan_file(&bytes).records.len(), records.len());
    }

    #[test]
    fn corrupt_byte_ends_the_prefix() {
        let meta = Meta {
            version: FORMAT_VERSION,
            process_count: 2,
            generation: 0,
        };
        let records = sample_records();
        let clean = encode_file(&meta, &records);
        // Flip one byte inside the third record's payload: the first two
        // records survive, everything after the flip is dropped.
        let meta_len = wire::store_meta_record_bytes(FORMAT_VERSION, 2, 0) as usize;
        let off = meta_len + (records[0].encoded_len() + records[1].encoded_len()) as usize + 9; // inside record 2's payload
        let mut bytes = clean.clone();
        bytes[off] ^= 0xff;
        let scan = scan_file(&bytes);
        assert_eq!(scan.records, sample_events()[..2]);
        assert!(scan.torn_bytes > 0);
        // A file whose META itself is unreadable yields nothing.
        let scan = scan_file(&clean[3..]);
        assert_eq!(scan.meta, None);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn reconfig_records_roundtrip_and_match_wire_pricing() {
        let meta = Meta {
            version: FORMAT_VERSION,
            process_count: 3,
            generation: 0,
        };
        let records = sample_records();
        let boundary = ReconfigRecord {
            epoch: 1,
            cuts: vec![2, 2, 0],
            ops: vec![(0, 1, 2), (1, 0, 1)],
        };
        let mut bytes = Vec::new();
        encode_meta(&mut bytes, &meta);
        encode_record(&mut bytes, &records[0]);
        encode_record(&mut bytes, &records[1]);
        encode_reconfig(&mut bytes, &boundary);
        encode_record(&mut bytes, &records[2]);
        // The boundary's framed size is exactly what core::wire prices.
        assert_eq!(
            boundary.encoded_len(),
            wire::store_reconfig_record_bytes(1, &[2, 2, 0], &[(0, 1, 2), (1, 0, 1)])
        );
        let scan = scan_file(&bytes);
        assert_eq!(scan.meta, Some(meta));
        assert_eq!(scan.records, sample_events()[..3]);
        assert_eq!(scan.reconfigs, vec![boundary]);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn scan_tail_resumes_where_a_full_scan_left_off() {
        let meta = Meta {
            version: FORMAT_VERSION,
            process_count: 2,
            generation: 0,
        };
        let records = sample_records();
        let mut head = Vec::new();
        encode_meta(&mut head, &meta);
        encode_record(&mut head, &records[0]);
        encode_record(&mut head, &records[1]);
        // Tail: two more records plus an epoch boundary, appended later.
        let boundary = ReconfigRecord {
            epoch: 1,
            cuts: vec![1, 2],
            ops: vec![(1, 0, 1)],
        };
        let mut tail = Vec::new();
        encode_record(&mut tail, &records[2]);
        encode_reconfig(&mut tail, &boundary);
        encode_record(&mut tail, &records[3]);
        let tail_scan = scan_tail(&tail);
        assert_eq!(tail_scan.records, sample_events()[2..]);
        assert_eq!(tail_scan.reconfigs, vec![boundary.clone()]);
        assert_eq!(tail_scan.consumed, tail.len());
        // Head-scan + tail-scan agree with one scan of the whole file.
        let mut whole = head.clone();
        whole.extend_from_slice(&tail);
        let full = scan_file(&whole);
        let head_scan = scan_file(&head);
        let mut combined = head_scan.records.clone();
        combined.extend(tail_scan.records.clone());
        assert_eq!(full.records, combined);
        assert_eq!(full.reconfigs, tail_scan.reconfigs);
        // A torn tail consumes only up to the torn record; the rest waits
        // for the bytes to complete.
        for cut in 0..tail.len() {
            let partial = scan_tail(&tail[..cut]);
            assert!(partial.consumed <= cut);
            assert_eq!(partial.records, tail_scan.records[..partial.records.len()]);
        }
    }
}
