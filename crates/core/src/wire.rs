//! Wire encodings for piggybacked vectors, including the
//! Singhal–Kshemkalyani differential technique (Section 6).
//!
//! What actually rides on a message is bytes, so the paper's "smaller
//! vectors" claim ultimately cashes out here. Two encodings:
//!
//! * [`encode_full`] — every component as a LEB128 varint, prefixed by the
//!   dimension;
//! * [`DeltaEncoder`] — per channel-direction state implementing
//!   Singhal–Kshemkalyani: send only the `(index, value)` pairs that
//!   changed since the last transmission *to that destination*, at the
//!   cost of each process remembering what it last sent on each channel.
//!
//! The `table_wire_bytes` experiment combines these with the dimension
//! reductions: `d`-dimensional deltas are the smallest of all.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use synctime_trace::ProcessId;

use crate::VectorTime;

/// Appends `x` to `out` as an LEB128 varint — the integer encoding every
/// `synctime` byte format shares (vector components here, record fields in
/// the `synctime-store` log), so sizes priced by this module's helpers are
/// exact by construction.
pub fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one [`push_varint`]-encoded integer at `*pos`, advancing the
/// cursor past it. Returns `None` on truncation or a value overflowing 64
/// bits, leaving `*pos` wherever the scan stopped.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        x |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Encodes a whole vector: dimension, then each component, as varints.
pub fn encode_full(v: &VectorTime) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + v.dim());
    push_full(&mut out, v.as_slice());
    out
}

/// Appends [`encode_full`]'s bytes for the components `v` to `out`, for
/// a caller that frames the vector inside a larger buffer.
pub fn push_full(out: &mut Vec<u8>, v: &[u64]) {
    push_varint(out, v.len() as u64);
    for &c in v {
        push_varint(out, c);
    }
}

/// Decodes [`encode_full`]'s output. Returns `None` on malformed input.
pub fn decode_full(bytes: &[u8]) -> Option<VectorTime> {
    let mut pos = 0usize;
    let dim = read_varint(bytes, &mut pos)? as usize;
    // Each component takes at least one byte, which bounds any plausible
    // dimension; reject hostile values before allocating.
    if dim > bytes.len().saturating_sub(pos) {
        return None;
    }
    let mut components = Vec::with_capacity(dim);
    for _ in 0..dim {
        components.push(read_varint(bytes, &mut pos)?);
    }
    (pos == bytes.len()).then(|| VectorTime::from(components))
}

/// [`decode_full`] into `out`, replacing its contents — for a stream's
/// stored vector, which a malformed frame must not touch: the whole body
/// is parsed once to check it before a second pass writes `out`. Returns
/// `None`, with `out` as it was, on malformed input.
fn read_full_into(bytes: &[u8], out: &mut Vec<u64>) -> Option<()> {
    let mut pos = 0usize;
    let dim = read_varint(bytes, &mut pos)? as usize;
    if dim > bytes.len().saturating_sub(pos) {
        return None;
    }
    let body = pos;
    for _ in 0..dim {
        read_varint(bytes, &mut pos)?;
    }
    if pos != bytes.len() {
        return None;
    }
    out.clear();
    out.reserve(dim);
    pos = body;
    while pos < bytes.len() {
        out.push(read_varint(bytes, &mut pos)?);
    }
    Some(())
}

/// Encodes only the components of `current` that differ from `previous`,
/// as `count, (index, value)*` varints — the Singhal–Kshemkalyani payload.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn encode_delta(previous: &VectorTime, current: &VectorTime) -> Vec<u8> {
    assert_eq!(previous.dim(), current.dim(), "dimension mismatch");
    let mut out = Vec::new();
    push_delta(&mut out, previous.as_slice(), current.as_slice());
    out
}

/// Appends [`encode_delta`]'s bytes for `previous → current` to `out`
/// (equal lengths), counting the changed components first so no
/// intermediate change list is built.
fn push_delta(out: &mut Vec<u8>, previous: &[u64], current: &[u64]) {
    let changed = previous.iter().zip(current).filter(|(p, c)| p != c).count();
    push_varint(out, changed as u64);
    for (i, (p, &c)) in previous.iter().zip(current).enumerate() {
        if *p != c {
            push_varint(out, i as u64);
            push_varint(out, c);
        }
    }
}

/// Reads an [`encode_delta`] body into `changes` (replacing its contents)
/// as `(index, value)` pairs, checking every index against `dim`. Returns
/// `None` on malformed input or an out-of-range index.
fn read_delta_into(bytes: &[u8], dim: usize, changes: &mut Vec<(usize, u64)>) -> Option<()> {
    let mut pos = 0usize;
    let count = read_varint(bytes, &mut pos)? as usize;
    // Each pair takes at least two bytes; reject hostile counts.
    if count > bytes.len().saturating_sub(pos) {
        return None;
    }
    changes.clear();
    for _ in 0..count {
        let idx = read_varint(bytes, &mut pos)? as usize;
        let val = read_varint(bytes, &mut pos)?;
        if idx >= dim {
            return None;
        }
        changes.push((idx, val));
    }
    (pos == bytes.len()).then_some(())
}

/// Applies a delta produced by [`encode_delta`] on top of `previous`.
/// Returns `None` on malformed input or out-of-range indices.
pub fn apply_delta(previous: &VectorTime, bytes: &[u8]) -> Option<VectorTime> {
    let mut changes = Vec::new();
    read_delta_into(bytes, previous.dim(), &mut changes)?;
    let mut components = previous.as_slice().to_vec();
    for (idx, val) in changes {
        components[idx] = val;
    }
    Some(VectorTime::from(components))
}

/// Bytes of framing every transport frame pays before its body: a `u32`
/// length prefix plus a one-byte frame type (the `synctime-net` frame
/// layer; the in-process runtime prices its rendezvous with the same
/// framing so local and TCP stats are comparable).
pub const FRAME_HEADER_BYTES: u64 = 5;

/// On-wire cost of one OFFER frame carrying a `vector_bytes`-byte encoded
/// vector: frame header + 8-byte message key + 8-byte payload + the vector.
pub fn offer_frame_bytes(vector_bytes: usize) -> u64 {
    FRAME_HEADER_BYTES + 16 + vector_bytes as u64
}

/// On-wire cost of one ACK frame carrying an `ack_bytes`-byte encoded
/// acknowledgement vector: frame header + 8-byte message key + the vector.
pub fn ack_frame_bytes(ack_bytes: usize) -> u64 {
    FRAME_HEADER_BYTES + 8 + ack_bytes as u64
}

/// On-wire cost of one RESYNC request frame: frame header + 8-byte key of
/// the offer whose piggybacked vector could not be decoded.
pub fn resync_frame_bytes() -> u64 {
    FRAME_HEADER_BYTES + 8
}

/// On-wire cost of one QUERY3 frame naming a `trace_bytes`-byte trace id
/// and carrying `count` queries: frame header + 4-byte correlation id +
/// 2-byte trace-id length + the trace id + 4-byte query count + 9 bytes
/// (kind, m1, m2) per query. The framing, correlation id and trace id are
/// paid once per batch, so the marginal cost per query is 9 bytes.
pub fn batch_query3_frame_bytes(trace_bytes: usize, count: usize) -> u64 {
    FRAME_HEADER_BYTES + 4 + 2 + trace_bytes as u64 + 4 + 9 * count as u64
}

/// On-wire cost of one ANSWER3 frame whose `count` entries carry
/// `entry_body_bytes` answer bytes in total: frame header + 4-byte echoed
/// correlation id + 4-byte entry count + a 5-byte (status, length) prefix
/// per entry + the bodies.
pub fn batch_answer3_frame_bytes(entry_body_bytes: usize, count: usize) -> u64 {
    FRAME_HEADER_BYTES + 4 + 4 + 5 * count as u64 + entry_body_bytes as u64
}

/// Number of bytes [`push_varint`] emits for `x` (1 for values under 128,
/// up to 10 for the full `u64` range). The building block of the store
/// record pricing below.
pub fn varint_bytes(x: u64) -> u64 {
    (64 - x.leading_zeros()).max(1).div_ceil(7) as u64
}

/// Bytes of the fixed prefix every `synctime-store` log record pays before
/// its payload: a `u32` payload length plus a `u32` CRC-32 of the payload.
pub const STORE_RECORD_HEADER_BYTES: u64 = 8;

/// On-disk cost of a store META record (the first record of every store
/// file): record header + 1-byte tag + varints for the format version, the
/// run's process count, and the snapshot generation.
pub fn store_meta_record_bytes(version: u64, process_count: u64, generation: u64) -> u64 {
    STORE_RECORD_HEADER_BYTES
        + 1
        + varint_bytes(version)
        + varint_bytes(process_count)
        + varint_bytes(generation)
}

/// On-disk cost of a store SENT/RECEIVED record: record header + 1-byte
/// tag + varints for the logging process, its log position, the peer
/// process, and the message key — then the encoded stamp *last* (it is the
/// variable-width remainder of the payload, exactly the bytes
/// [`encode_full`] produces from the dense interchange vector, so any
/// clock backend round-trips byte-identically).
pub fn store_stamp_record_bytes(
    process: u64,
    pseq: u64,
    peer: u64,
    key: u64,
    stamp_bytes: usize,
) -> u64 {
    STORE_RECORD_HEADER_BYTES
        + 1
        + varint_bytes(process)
        + varint_bytes(pseq)
        + varint_bytes(peer)
        + varint_bytes(key)
        + stamp_bytes as u64
}

/// On-disk cost of a store INTERNAL record: record header + 1-byte tag +
/// varints for the logging process and its log position (internal events
/// carry no peer, key, or stamp).
pub fn store_internal_record_bytes(process: u64, pseq: u64) -> u64 {
    STORE_RECORD_HEADER_BYTES + 1 + varint_bytes(process) + varint_bytes(pseq)
}

/// On-wire cost of one RECONFIGURE *prepare* frame carrying `ops` edge
/// operations and an `old_len`-entry group remap: frame header + 1-byte
/// phase + 8-byte epoch + 8-byte post-reconfiguration topology hash +
/// 4-byte op count + 9 bytes (kind, u, v) per op + 4-byte old dimension +
/// 4-byte new dimension + a 4-byte destination slot per old component
/// (`u32::MAX` marks a dissolved component).
pub fn reconfigure_prepare_frame_bytes(ops: usize, old_len: usize) -> u64 {
    FRAME_HEADER_BYTES + 1 + 8 + 8 + 4 + 9 * ops as u64 + 4 + 4 + 4 * old_len as u64
}

/// On-wire cost of one RECONFIGURE *commit* frame carrying a
/// `baseline_bytes`-byte [`encode_full`] baseline vector every node
/// restarts the new epoch from: frame header + 1-byte phase + 8-byte
/// epoch + the vector.
pub fn reconfigure_commit_frame_bytes(baseline_bytes: usize) -> u64 {
    FRAME_HEADER_BYTES + 1 + 8 + baseline_bytes as u64
}

/// On-wire cost of one RECONFIG_ACK frame carrying a `clock_bytes`-byte
/// [`encode_full`] final clock (zero on an epoch-mismatch refusal): frame
/// header + 8-byte acked epoch + 4-byte process id + 1-byte status +
/// 8-byte current epoch + the vector.
pub fn reconfig_ack_frame_bytes(clock_bytes: usize) -> u64 {
    FRAME_HEADER_BYTES + 8 + 4 + 1 + 8 + clock_bytes as u64
}

/// On-disk cost of a store RECONFIG record marking an epoch boundary:
/// record header + 1-byte tag + varints for the epoch, the cut count, each
/// per-process log cut, the op count, and each edge operation's
/// (kind, u, v) triple.
pub fn store_reconfig_record_bytes(epoch: u64, cuts: &[u64], ops: &[(u8, u64, u64)]) -> u64 {
    let mut n =
        STORE_RECORD_HEADER_BYTES + 1 + varint_bytes(epoch) + varint_bytes(cuts.len() as u64);
    for &cut in cuts {
        n += varint_bytes(cut);
    }
    n += varint_bytes(ops.len() as u64);
    for &(kind, u, v) in ops {
        n += varint_bytes(kind as u64) + varint_bytes(u) + varint_bytes(v);
    }
    n
}

/// What one clean rendezvous costs with full fixed-width vectors (8 bytes
/// per component, both directions): an OFFER and an ACK frame, including
/// frame/ack overhead. The before-deltas baseline behind
/// `RunStats::total_wire_bytes_full`.
pub fn rendezvous_bytes_full(dim: usize) -> u64 {
    offer_frame_bytes(8 * dim) + ack_frame_bytes(8 * dim)
}

/// Per-sender Singhal–Kshemkalyani state: remembers the vector last sent to
/// each destination so subsequent transmissions carry only changes.
#[derive(Debug, Clone, Default)]
pub struct DeltaEncoder {
    last_sent: HashMap<ProcessId, VectorTime>,
}

impl DeltaEncoder {
    /// A fresh encoder (first transmission to each peer is a full vector).
    pub fn new() -> Self {
        DeltaEncoder::default()
    }

    /// Encodes `v` for transmission to `to`: a tagged full vector the first
    /// time, a tagged delta afterwards. Updates the remembered state.
    pub fn encode(&mut self, to: ProcessId, v: &VectorTime) -> Vec<u8> {
        let mut out = Vec::new();
        match self.last_sent.get(&to) {
            Some(prev) if prev.dim() == v.dim() => {
                out.push(1); // tag: delta
                push_delta(&mut out, prev.as_slice(), v.as_slice());
            }
            _ => {
                out.push(0); // tag: full
                push_full(&mut out, v.as_slice());
            }
        }
        self.last_sent.insert(to, v.clone());
        out
    }
}

/// Per-receiver state decoding [`DeltaEncoder`] streams.
#[derive(Debug, Clone, Default)]
pub struct DeltaDecoder {
    last_seen: HashMap<ProcessId, VectorTime>,
}

impl DeltaDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        DeltaDecoder::default()
    }

    /// Decodes a payload received from `from`. Returns `None` on malformed
    /// input or a delta arriving before any full vector.
    pub fn decode(&mut self, from: ProcessId, bytes: &[u8]) -> Option<VectorTime> {
        let (tag, rest) = bytes.split_first()?;
        let v = match tag {
            0 => decode_full(rest)?,
            1 => apply_delta(self.last_seen.get(&from)?, rest)?,
            _ => return None,
        };
        self.last_seen.insert(from, v.clone());
        Some(v)
    }
}

/// Why a [`StreamDecoder`] rejected a frame.
///
/// [`DeltaDecoder`] collapses every failure into `None`; the sequence-framed
/// streams distinguish *recoverable* losses (a [`StreamError::SeqGap`] — the
/// decoder missed a frame and a full-vector resync frame will re-anchor it)
/// from terminal ones (garbage bytes, or a delta arriving on a stream that
/// never saw a full vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The frame bytes could not be parsed at all.
    Malformed,
    /// A delta frame arrived with the wrong sequence number: at least one
    /// frame was lost or injected. Recoverable — the sender re-anchors the
    /// stream by transmitting a full frame (see [`StreamEncoder::force_full`]).
    SeqGap {
        /// The sequence number the decoder expected next.
        expected: u64,
        /// The sequence number the frame carried.
        got: u64,
    },
    /// A delta frame arrived before any full vector established stream
    /// state; there is nothing to apply the delta to.
    OrphanDelta,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Malformed => write!(f, "malformed stream frame"),
            StreamError::SeqGap { expected, got } => {
                write!(
                    f,
                    "stream sequence gap: expected frame {expected}, got {got}"
                )
            }
            StreamError::OrphanDelta => {
                write!(f, "delta frame arrived before any full vector")
            }
        }
    }
}

/// Per-peer state of a sequence-framed delta stream at the sender.
#[derive(Debug, Clone)]
struct StreamSendState {
    next_seq: u64,
    last_sent: Vec<u64>,
    force_full: bool,
}

impl StreamSendState {
    /// The state of a stream that has sent nothing yet: its first frame is
    /// a full vector at sequence number 0.
    const VIRGIN: StreamSendState = StreamSendState {
        next_seq: 0,
        last_sent: Vec::new(),
        force_full: true,
    };

    /// Appends the stream's next frame carrying `v` to `out`: a delta
    /// against the last frame when one of the same dimension exists and
    /// no resync is pending, a full vector otherwise.
    fn push_frame(&self, v: &[u64], out: &mut Vec<u8>) {
        push_varint(out, self.next_seq);
        if !self.force_full && self.last_sent.len() == v.len() {
            out.push(1);
            push_delta(out, &self.last_sent, v);
        } else {
            out.push(0);
            push_full(out, v);
        }
    }
}

/// A [`DeltaEncoder`] whose frames carry a per-peer sequence number, so the
/// receiving [`StreamDecoder`] can *detect* a desynchronised stream instead
/// of silently applying a delta to the wrong base.
///
/// Frame layout: `varint(seq)` then the [`DeltaEncoder`] tag+body (`0` =
/// full vector, `1` = delta against the previous frame). Delta frames are
/// only valid at exactly the expected sequence number; full frames
/// *re-anchor* the stream at any sequence number at or past the expected
/// one, which is what makes recovery possible — after a detected gap the
/// sender calls [`StreamEncoder::force_full`] and the next frame repairs
/// the stream no matter how many frames went missing.
///
/// Encoding writes into the caller's buffer from a borrowed slice and
/// updates the remembered vector in place, so a warmed-up stream encodes
/// without allocating.
#[derive(Debug, Clone, Default)]
pub struct StreamEncoder {
    peers: HashMap<ProcessId, StreamSendState>,
}

impl StreamEncoder {
    /// A fresh encoder (first frame to each peer is a full vector).
    pub fn new() -> Self {
        StreamEncoder::default()
    }

    /// Appends the next frame of the stream to `to`, carrying the vector
    /// with components `v`, to `out`, and advances the stream.
    pub fn encode(&mut self, to: ProcessId, v: &[u64], out: &mut Vec<u8>) {
        let state = self.peers.entry(to).or_insert(StreamSendState::VIRGIN);
        state.push_frame(v, out);
        state.next_seq += 1;
        state.force_full = false;
        state.last_sent.clear();
        state.last_sent.extend_from_slice(v);
    }

    /// Appends the frame [`StreamEncoder::encode`] would append next for
    /// `v`, without advancing the stream: the same bytes, byte for byte,
    /// as long as nothing else is encoded to `to` in between. A receiver
    /// posts its acknowledgement this way before the offer it answers has
    /// arrived, and commits the stream with `encode` once it takes it.
    pub fn encode_preview(&self, to: ProcessId, v: &[u64], out: &mut Vec<u8>) {
        self.peers
            .get(&to)
            .unwrap_or(&StreamSendState::VIRGIN)
            .push_frame(v, out);
    }

    /// Makes the next frame to `to` a full vector regardless of delta
    /// state — the resync path after a receiver reported a sequence gap.
    pub fn force_full(&mut self, to: ProcessId) {
        if let Some(state) = self.peers.get_mut(&to) {
            state.force_full = true;
        }
    }

    /// Advances the stream to `to` as if a frame had been sent and lost:
    /// the sequence number moves but no bytes are produced, so the peer's
    /// decoder will report a [`StreamError::SeqGap`] on the next delta
    /// frame. Returns `false` (and does nothing) when no frame has ever
    /// been sent to `to` — a fresh stream opens with a full frame, which
    /// re-anchors unconditionally, so there is no desync to simulate yet.
    pub fn skip(&mut self, to: ProcessId) -> bool {
        match self.peers.get_mut(&to) {
            Some(state) => {
                state.next_seq += 1;
                true
            }
            None => false,
        }
    }
}

/// Per-peer state of a sequence-framed delta stream at the receiver.
#[derive(Debug, Clone, Default)]
struct StreamRecvState {
    next_seq: u64,
    vector: Vec<u64>,
}

/// Per-peer state decoding [`StreamEncoder`] frames, rejecting anything
/// that does not line up with the expected sequence number.
///
/// Each stream's vector is stored once and updated in place: a delta
/// frame writes only its changed components, and the change-set lands in
/// a buffer the decoder reuses, so a warmed-up stream decodes without
/// allocating.
#[derive(Debug, Clone, Default)]
pub struct StreamDecoder {
    peers: HashMap<ProcessId, StreamRecvState>,
    /// The change-set of the last delta frame decoded.
    changes: Vec<(usize, u64)>,
}

impl StreamDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Decodes the next frame received from `from`, returning the stream's
    /// vector after it.
    ///
    /// # Errors
    ///
    /// As for [`StreamDecoder::decode_sparse`].
    pub fn decode(&mut self, from: ProcessId, bytes: &[u8]) -> Result<&[u64], StreamError> {
        self.decode_sparse(from, bytes).map(|(v, _)| v)
    }

    /// Decodes the next frame received from `from` in place: returns the
    /// stream's vector after the frame and, when the frame was a delta,
    /// the Singhal–Kshemkalyani change-set — the `(index, value)` pairs
    /// that moved since the previous frame of this stream. `None` means
    /// the frame carried a full vector (stream opening or resync) and no
    /// change-set exists. Sparse-merge clock backends feed the pairs
    /// straight into their delta path instead of re-scanning the vector.
    ///
    /// # Errors
    ///
    /// [`StreamError::SeqGap`] when a frame arrives out of sequence (a
    /// delta anywhere but the expected number, or a full frame *behind*
    /// it); [`StreamError::OrphanDelta`] for a delta on a virgin stream;
    /// [`StreamError::Malformed`] for unparseable bytes or an out-of-range
    /// index. Every check runs before the stream is touched: only a
    /// successfully decoded frame advances the stream state.
    #[allow(clippy::type_complexity)]
    pub fn decode_sparse(
        &mut self,
        from: ProcessId,
        bytes: &[u8],
    ) -> Result<(&[u64], Option<&[(usize, u64)]>), StreamError> {
        let mut pos = 0usize;
        let seq = read_varint(bytes, &mut pos).ok_or(StreamError::Malformed)?;
        let (tag, rest) = bytes[pos..].split_first().ok_or(StreamError::Malformed)?;
        let expected = self.peers.get(&from).map_or(0, |s| s.next_seq);
        match tag {
            0 => {
                // Full frames re-anchor: any sequence number at or past the
                // expected one is acceptable (frames between were lost, but
                // a full vector needs no prior state). A *stale* full frame
                // is still a protocol violation.
                if seq < expected {
                    return Err(StreamError::SeqGap { expected, got: seq });
                }
                // A malformed opening frame must leave the stream virgin, so
                // a new stream's vector is only inserted once it decoded.
                let state = match self.peers.entry(from) {
                    Entry::Occupied(e) => {
                        let state = e.into_mut();
                        read_full_into(rest, &mut state.vector).ok_or(StreamError::Malformed)?;
                        state
                    }
                    Entry::Vacant(e) => {
                        let mut vector = Vec::new();
                        read_full_into(rest, &mut vector).ok_or(StreamError::Malformed)?;
                        e.insert(StreamRecvState {
                            next_seq: 0,
                            vector,
                        })
                    }
                };
                state.next_seq = seq + 1;
                Ok((&state.vector, None))
            }
            1 => {
                let state = self.peers.get_mut(&from).ok_or(StreamError::OrphanDelta)?;
                if seq != expected {
                    return Err(StreamError::SeqGap { expected, got: seq });
                }
                read_delta_into(rest, state.vector.len(), &mut self.changes)
                    .ok_or(StreamError::Malformed)?;
                for &(idx, val) in &self.changes {
                    state.vector[idx] = val;
                }
                state.next_seq += 1;
                Ok((&state.vector, Some(&self.changes)))
            }
            _ => Err(StreamError::Malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_pricing_is_consistent() {
        // OFFER = header + key + payload + vector; ACK = header + key +
        // vector; RESYNC = header + key. The full baseline prices both
        // directions at 8 bytes per component.
        assert_eq!(offer_frame_bytes(0), 21);
        assert_eq!(ack_frame_bytes(0), 13);
        assert_eq!(resync_frame_bytes(), 13);
        for dim in [1usize, 2, 7] {
            assert_eq!(
                rendezvous_bytes_full(dim),
                offer_frame_bytes(8 * dim) + ack_frame_bytes(8 * dim)
            );
            assert_eq!(rendezvous_bytes_full(dim), 34 + 16 * dim as u64);
        }
    }

    #[test]
    fn query_frame_pricing_is_consistent() {
        // A lone query with an empty trace id: 24 bytes out, and a one-byte
        // boolean answer costs 19 bytes back.
        assert_eq!(batch_query3_frame_bytes(0, 1), 24);
        assert_eq!(batch_answer3_frame_bytes(1, 1), 19);
        // The batch amortises framing: per-query request cost tends to 9
        // bytes as the batch grows.
        assert_eq!(batch_query3_frame_bytes(0, 0), 15);
        for n in [1u64, 16, 256] {
            assert_eq!(batch_query3_frame_bytes(5, n as usize), 15 + 5 + 9 * n);
        }
        assert_eq!(
            batch_answer3_frame_bytes(256, 256),
            5 + 4 + 4 + 5 * 256 + 256
        );
    }

    #[test]
    fn varint_roundtrip() {
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(x));
            assert_eq!(pos, buf.len());
            assert_eq!(varint_bytes(x), buf.len() as u64, "pricing of {x}");
        }
    }

    #[test]
    fn store_record_pricing_is_consistent() {
        // META: header + tag + three small varints.
        assert_eq!(store_meta_record_bytes(1, 4, 0), 8 + 1 + 3);
        assert_eq!(store_meta_record_bytes(1, 300, 0), 8 + 1 + 1 + 2 + 1);
        // Stamp records put the encoded vector last; its size adds
        // straight through.
        let stamp = encode_full(&VectorTime::from(vec![1, 0, 300]));
        assert_eq!(
            store_stamp_record_bytes(2, 5, 3, 1 << 33, stamp.len()),
            8 + 1 + 1 + 1 + 1 + 5 + stamp.len() as u64
        );
        // INTERNAL carries only its coordinates.
        assert_eq!(store_internal_record_bytes(0, 0), 8 + 1 + 1 + 1);
        assert_eq!(store_internal_record_bytes(200, 200), 8 + 1 + 2 + 2);
    }

    #[test]
    fn full_roundtrip() {
        let v = VectorTime::from(vec![0, 1, 300, 70000]);
        assert_eq!(decode_full(&encode_full(&v)), Some(v));
        // Truncated input fails cleanly.
        let enc = encode_full(&VectorTime::from(vec![5, 6]));
        assert_eq!(decode_full(&enc[..enc.len() - 1]), None);
        assert_eq!(decode_full(&[]), None);
    }

    #[test]
    fn delta_roundtrip() {
        let a = VectorTime::from(vec![3, 4, 5]);
        let b = VectorTime::from(vec![3, 9, 5]);
        let d = encode_delta(&a, &b);
        assert_eq!(apply_delta(&a, &d), Some(b.clone()));
        // Unchanged vector encodes to a single zero byte.
        assert_eq!(encode_delta(&b, &b), vec![0]);
    }

    #[test]
    fn delta_smaller_than_full_for_sparse_changes() {
        let a = VectorTime::from(vec![100; 32]);
        let mut big = a.as_slice().to_vec();
        big[7] = 101;
        let b = VectorTime::from(big);
        assert!(encode_delta(&a, &b).len() < encode_full(&b).len());
    }

    #[test]
    fn encoder_decoder_stream() {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let steps = [
            VectorTime::from(vec![1, 0, 0]),
            VectorTime::from(vec![1, 2, 0]),
            VectorTime::from(vec![1, 2, 0]), // unchanged
            VectorTime::from(vec![4, 2, 9]),
        ];
        let mut sizes = Vec::new();
        for v in &steps {
            let bytes = enc.encode(5, v);
            sizes.push(bytes.len());
            assert_eq!(dec.decode(5, &bytes).as_ref(), Some(v));
        }
        // First is full; the unchanged third transmission is tiny.
        assert!(sizes[2] < sizes[0]);
    }

    #[test]
    fn decoder_rejects_garbage_and_orphan_deltas() {
        let mut dec = DeltaDecoder::new();
        assert_eq!(dec.decode(0, &[]), None);
        assert_eq!(dec.decode(0, &[9, 1, 2]), None);
        // A delta before any full vector cannot be applied.
        let mut enc = DeltaEncoder::new();
        enc.encode(0, &VectorTime::from(vec![1]));
        let delta = enc.encode(0, &VectorTime::from(vec![2]));
        assert_eq!(delta[0], 1, "second transmission is a delta");
        assert_eq!(dec.decode(0, &delta), None);
    }

    #[test]
    fn per_peer_state_is_independent() {
        let mut enc = DeltaEncoder::new();
        let v = VectorTime::from(vec![1, 1]);
        let first_to_a = enc.encode(0, &v);
        let first_to_b = enc.encode(1, &v);
        assert_eq!(first_to_a[0], 0);
        assert_eq!(first_to_b[0], 0, "fresh peer gets a full vector");
    }

    /// One frame of the stream to `to`, encoded into a fresh buffer.
    fn frame(enc: &mut StreamEncoder, to: ProcessId, v: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        enc.encode(to, v, &mut out);
        out
    }

    #[test]
    fn stream_roundtrip_in_sequence() {
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        let steps: [&[u64]; 3] = [&[1, 0, 0], &[1, 2, 0], &[4, 2, 9]];
        for v in steps {
            let frame = frame(&mut enc, 7, v);
            assert_eq!(dec.decode(7, &frame), Ok(v));
        }
    }

    #[test]
    fn stream_frames_match_the_delta_encoder_bodies() {
        // A stream frame is `varint(seq)` followed by exactly the
        // DeltaEncoder's tag + body for the same vectors.
        let mut enc = StreamEncoder::new();
        let mut plain = DeltaEncoder::new();
        let steps = [
            vec![1u64, 0, 300],
            vec![1, 2, 300],
            vec![1, 2, 300],
            vec![4, 2, 9],
        ];
        for (seq, v) in steps.iter().enumerate() {
            let mut expected = Vec::new();
            push_varint(&mut expected, seq as u64);
            expected.extend(plain.encode(0, &VectorTime::from(v.clone())));
            assert_eq!(frame(&mut enc, 0, v), expected, "frame {seq}");
        }
    }

    #[test]
    fn encode_preview_matches_encode_without_advancing() {
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        for v in [[1u64, 0], [1, 5], [1, 5], [7, 5]] {
            // Previewing twice yields the same bytes: nothing advanced.
            let mut preview = Vec::new();
            enc.encode_preview(2, &v, &mut preview);
            let mut again = Vec::new();
            enc.encode_preview(2, &v, &mut again);
            assert_eq!(preview, again);
            // The preview decodes like the committed frame, which is the
            // same bytes.
            assert_eq!(frame(&mut enc, 2, &v), preview);
            assert_eq!(dec.decode(2, &preview), Ok(&v[..]));
        }
        // A pending resync shows in the preview as a full frame.
        enc.force_full(2);
        let mut preview = Vec::new();
        enc.encode_preview(2, &[8, 5], &mut preview);
        assert_eq!(preview[1], 0, "forced frame previews as full");
        assert_eq!(frame(&mut enc, 2, &[8, 5]), preview);
    }

    #[test]
    fn skipped_frame_is_detected_and_full_frame_recovers() {
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        let (a, b, c): (&[u64], &[u64], &[u64]) = (&[1, 0], &[1, 2], &[3, 2]);
        assert_eq!(dec.decode(0, &frame(&mut enc, 0, a)), Ok(a));
        // A frame goes missing; the next delta must not silently apply.
        assert!(enc.skip(0), "established stream can skip");
        let desynced = frame(&mut enc, 0, b);
        assert_eq!(
            dec.decode(0, &desynced),
            Err(StreamError::SeqGap {
                expected: 1,
                got: 2
            })
        );
        // The failed frame must not have advanced decoder state: replaying
        // the same frame fails identically.
        assert!(dec.decode(0, &desynced).is_err());
        // Sender resyncs with a forced full frame carrying the same vector.
        enc.force_full(0);
        let resync = frame(&mut enc, 0, b);
        assert_eq!(dec.decode(0, &resync), Ok(b));
        // And the stream is back in delta lock-step afterwards.
        let next = frame(&mut enc, 0, c);
        assert_eq!(next[1], 1, "post-resync frame is a delta again");
        assert_eq!(dec.decode(0, &next), Ok(c));
    }

    #[test]
    fn decode_sparse_reports_the_change_set() {
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        let (a, b): (&[u64], &[u64]) = (&[1, 0, 7], &[1, 2, 9]);
        // Opening full frame: no change-set.
        let (v, changes) = dec.decode_sparse(0, &frame(&mut enc, 0, a)).unwrap();
        assert_eq!((v, changes), (a, None));
        // Delta frame: exactly the moved components, with their new values.
        let (v, changes) = dec.decode_sparse(0, &frame(&mut enc, 0, b)).unwrap();
        assert_eq!((v, changes), (b, Some(&[(1, 2), (2, 9)][..])));
        // An unchanged retransmission yields an empty change-set, not None.
        let (v, changes) = dec.decode_sparse(0, &frame(&mut enc, 0, b)).unwrap();
        assert_eq!((v, changes), (b, Some(&[][..])));
    }

    #[test]
    fn rejected_frames_leave_the_stream_untouched() {
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        let opening = frame(&mut enc, 0, &[4, 5]);
        assert_eq!(dec.decode(0, &opening), Ok(&[4u64, 5][..]));
        // A delta whose second pair names component 9 of a 2-vector: the
        // first pair is valid, but nothing may be applied.
        let mut bad = Vec::new();
        for x in [1u64, 1, 2, 0, 6, 9, 1] {
            push_varint(&mut bad, x);
        }
        assert_eq!(dec.decode(0, &bad), Err(StreamError::Malformed));
        // The stream still expects frame 1 against (4, 5).
        let next = frame(&mut enc, 0, &[6, 5]);
        assert_eq!(dec.decode(0, &next), Ok(&[6u64, 5][..]));
        // A malformed opening frame leaves a fresh stream virgin: a later
        // delta is an orphan, not a delta against an empty vector.
        assert_eq!(dec.decode(1, &[0, 0, 3, 1]), Err(StreamError::Malformed));
        assert_eq!(dec.decode(1, &[0, 1, 0]), Err(StreamError::OrphanDelta));
    }

    #[test]
    fn skip_on_virgin_stream_is_a_no_op() {
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        assert!(!enc.skip(3), "nothing sent yet: nothing to desynchronise");
        assert_eq!(dec.decode(3, &frame(&mut enc, 3, &[5])), Ok(&[5u64][..]));
    }

    #[test]
    fn stream_decoder_rejects_garbage_orphans_and_stale_fulls() {
        let mut dec = StreamDecoder::new();
        assert_eq!(dec.decode(0, &[]), Err(StreamError::Malformed));
        assert_eq!(dec.decode(0, &[0, 9, 1, 2]), Err(StreamError::Malformed));
        // A delta before any full vector cannot be applied.
        let mut enc = StreamEncoder::new();
        frame(&mut enc, 0, &[1]);
        let delta = frame(&mut enc, 0, &[2]);
        assert_eq!(dec.decode(0, &delta), Err(StreamError::OrphanDelta));
        // Establish state, then replay the opening full frame: stale.
        let mut enc2 = StreamEncoder::new();
        let opening = frame(&mut enc2, 0, &[1]);
        assert!(dec.decode(0, &opening).is_ok());
        assert_eq!(
            dec.decode(0, &opening),
            Err(StreamError::SeqGap {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn stream_per_peer_state_is_independent() {
        let mut enc = StreamEncoder::new();
        frame(&mut enc, 0, &[1, 1]);
        assert!(enc.skip(0));
        // Peer 1's stream is untouched by peer 0's desync.
        let mut dec = StreamDecoder::new();
        assert_eq!(
            dec.decode(1, &frame(&mut enc, 1, &[1, 1])),
            Ok(&[1u64, 1][..])
        );
    }
}
