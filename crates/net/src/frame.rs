//! The length-prefixed frame protocol every `synctime-net` socket speaks.
//!
//! A frame is `[u32 le length][u8 type][body]`, where `length` counts the
//! type byte plus the body. Nine frame types exist; four type bytes are
//! retired and stay unassigned:
//!
//! | type | name    | body (little-endian)                                              |
//! |------|---------|-------------------------------------------------------------------|
//! | 0    | HELLO   | `u16` version, `u64` topology hash, `u32` process                 |
//! | 1    | OFFER   | `u64` key, `u64` payload, delta-encoded vector                    |
//! | 2    | ACK     | `u64` key, delta-encoded acknowledgement vector                   |
//! | 3    | RESYNC  | `u64` key                                                         |
//! | 4    | —       | retired (v1 QUERY); decodes as an unknown frame type              |
//! | 5    | —       | retired (v1 ANSWER); decodes as an unknown frame type             |
//! | 6    | ERROR   | UTF-8 diagnostic                                                  |
//! | 7    | —       | retired (v2 QUERY2); decodes as an unknown frame type             |
//! | 8    | —       | retired (v2 ANSWER2); decodes as an unknown frame type            |
//! | 9    | QUERY3  | `u32` correlation id, `u16` trace len, trace id, `u32` count, count × (`u8` kind, `u32` m1, `u32` m2) |
//! | 10   | ANSWER3 | `u32` correlation id, `u32` count, count × (`u8` status, `u32` len, body) |
//! | 11   | RECONFIGURE | `u64` epoch, full-encoded merged final clock (ending epoch's dimension) |
//! | 12   | RECONFIG_ACK | `u64` epoch, `u32` process, `u64` post-edit topology hash, full-encoded final clock (ending epoch's dimension) |
//!
//! QUERY3/ANSWER3 are the only query frames. One QUERY3 carries up to
//! [`MAX_BATCH`] queries against one named trace of a multi-trace catalog,
//! tagged with a correlation id the server echoes verbatim, so a client
//! can keep a window of batches in flight on one connection and match
//! answers that complete out of order. A single query is a batch of one;
//! lock-step is a window of one. The trace id is UTF-8, at most
//! [`MAX_TRACE_NAME`] bytes (enforced on the encode and decode paths, so
//! the `u16` length prefix can never silently truncate it); the empty id
//! means "the catalog's default trace". Each ANSWER3 entry is either
//! status 0 followed by the kind-specific answer bytes, or status 1
//! followed by a UTF-8 diagnostic — one bad message id fails its entry,
//! not the batch.
//!
//! RECONFIG_ACK/RECONFIGURE are the **epoch boundary** frames (see
//! [`crate::reconfig`]): at each boundary every follower sends process 0
//! one RECONFIG_ACK with its final clock and the hash of the topology and
//! decomposition its own edits produced, and process 0 answers each with
//! one RECONFIGURE carrying the component-wise max of every final clock.
//!
//! OFFER/ACK/RESYNC body layouts match `synctime_core::wire`'s frame
//! pricing helpers (`offer_frame_bytes` and friends) byte for byte, and
//! QUERY3/ANSWER3 match `batch_query3_frame_bytes` /
//! `batch_answer3_frame_bytes` the same way, so the byte counts the
//! in-process runtime reports are exactly what a TCP run moves on the
//! wire — and bytes-per-query is a measured, not estimated, metric.
//!
//! Decoding is incremental: a [`FrameReader`] is fed arbitrary chunks as
//! they arrive from a socket and yields complete frames as soon as their
//! bytes are in. Malformed frames (unknown type, truncated body, oversized
//! length prefix) are rejected with a typed [`NetError::Protocol`] — a
//! desynchronised byte stream can never be silently misparsed.
//!
//! The serving hot path avoids the owned [`Frame`] representation
//! entirely: [`FrameReader::peek_frame`]/[`FrameReader::consume_frame`]
//! expose a complete frame's type and body as borrowed slices,
//! [`encode_query_batch_into`] and friends append frames to a caller-owned
//! buffer, and [`FrameScratch`] bundles the reusable buffers a connection
//! threads through encode/decode so steady state allocates nothing.

use synctime_core::wire::{decode_full, push_full};
use synctime_core::VectorTime;

use crate::error::NetError;

/// The protocol version carried in every HELLO. Bumped on any frame-layout
/// change; transport endpoints and query servers refuse to talk across
/// versions. Version 2 added the batched QUERY2/ANSWER2 frames, version 3
/// the pipelined QUERY3/ANSWER3 frames, and version 4 retired the v1
/// QUERY/ANSWER and v2 QUERY2/ANSWER2 frames, leaving QUERY3/ANSWER3 the
/// only query frames. Version 5 gave RECONFIGURE and RECONFIG_ACK the
/// bodies of the one-round epoch boundary (no prepare phase).
pub const PROTOCOL_VERSION: u16 = 5;

/// Upper bound on a frame's length prefix: 16 MiB. A prefix beyond this is
/// a desynchronised or hostile stream, not a real frame (the largest
/// legitimate frame is an OFFER whose vector is bounded by the topology's
/// decomposition dimension).
pub const MAX_FRAME_LEN: u32 = 1 << 24;

/// Bytes of the fixed frame prefix: the `u32` length plus the type byte.
pub const FRAME_HEADER_BYTES: usize = 5;

/// Upper bound on the queries one QUERY3 frame may carry (and on the
/// entries one ANSWER3 frame may carry). A larger declared count is a
/// protocol violation, rejected before any allocation; clients split
/// larger batches across frames transparently.
pub const MAX_BATCH: usize = 4096;

/// Upper bound on a QUERY3 trace id in bytes. Well under the
/// `u16` length prefix's 65535-byte ceiling, so an in-bounds name can
/// never be silently truncated by the cast into the prefix; longer names
/// are a typed [`NetError::Query`] at encode time on the client and a
/// [`NetError::Protocol`] at decode time on the server.
pub const MAX_TRACE_NAME: usize = 4096;

const TYPE_HELLO: u8 = 0;
const TYPE_OFFER: u8 = 1;
const TYPE_ACK: u8 = 2;
const TYPE_RESYNC: u8 = 3;
const TYPE_ERROR: u8 = 6;
/// Wire type byte of a QUERY3 frame — `pub(crate)` so the serving hot
/// path can dispatch on a peeked type without constructing a [`Frame`].
pub(crate) const TYPE_QUERY_PIPELINED: u8 = 9;
/// Wire type byte of an ANSWER3 frame.
pub(crate) const TYPE_ANSWER_PIPELINED: u8 = 10;
const TYPE_RECONFIGURE: u8 = 11;
const TYPE_RECONFIG_ACK: u8 = 12;

/// One question inside a QUERY3 batch frame: a `(kind, m1, m2)` triple
/// (see the `query::QUERY_*` kind constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchQuery {
    /// The question: see `query::QUERY_PRECEDES` and friends.
    pub kind: u8,
    /// First message number (0-based id).
    pub m1: u32,
    /// Second message number (ignored by single-message kinds).
    pub m2: u32,
}

/// One reply inside an ANSWER3 batch frame: positionally matched to the
/// batch's queries, each entry succeeds or fails independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchEntry {
    /// The query succeeded; the bytes are the kind-specific answer body
    /// (see `query::answer_query`).
    Answer(Vec<u8>),
    /// The query was rejected (out-of-range id, unknown kind); the batch's
    /// other entries are unaffected.
    Error(String),
}

/// One protocol frame (see the module docs for the wire layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: each endpoint sends one HELLO first and
    /// validates the peer's version and topology hash before any traffic.
    Hello {
        /// The speaker's [`PROTOCOL_VERSION`].
        version: u16,
        /// FNV-1a hash of the run's topology and decomposition (see
        /// [`topology_hash`]); `0` is the wildcard used by query clients.
        topology_hash: u64,
        /// The speaker's process id (`u32::MAX` for query clients).
        process: u32,
    },
    /// A rendezvous offer: program payload plus delta-encoded vector.
    Offer {
        /// The message's reconstruction key.
        key: u64,
        /// The program payload.
        payload: u64,
        /// The piggybacked vector, delta-encoded on the channel stream.
        vector: Vec<u8>,
    },
    /// The receiver's acknowledgement completing a rendezvous.
    Ack {
        /// The acknowledged offer's key.
        key: u64,
        /// The receiver's pre-update vector, delta-encoded.
        ack: Vec<u8>,
    },
    /// The receiver's request to re-offer `key` with a full vector.
    Resync {
        /// The bounced offer's key.
        key: u64,
    },
    /// A typed failure (bad query, out-of-range message, ...).
    Error {
        /// Human-readable diagnostic.
        message: String,
    },
    /// A QUERY3 batch of queries against one named trace of the catalog,
    /// carrying a correlation id the server echoes, so several batches can
    /// be in flight on one connection at once.
    QueryPipelined {
        /// Client-chosen correlation id, echoed verbatim in the answer.
        corr: u32,
        /// The trace id the batch targets; empty means the catalog's
        /// default trace.
        trace: String,
        /// The questions, answered positionally (at most [`MAX_BATCH`]).
        queries: Vec<BatchQuery>,
    },
    /// An ANSWER3 batch of replies, matched to its QUERY3 frame by
    /// correlation id rather than by position in the stream.
    AnswerPipelined {
        /// The correlation id of the QUERY3 frame being answered.
        corr: u32,
        /// One entry per query, in query order within the batch.
        entries: Vec<BatchEntry>,
    },
    /// Process 0's commit of an epoch boundary (see [`crate::reconfig`]).
    Reconfigure {
        /// The epoch the boundary establishes.
        epoch: u64,
        /// The component-wise max of every process's final clock, in the
        /// ending epoch's dimension.
        merged: VectorTime,
    },
    /// A follower's final clock at an epoch boundary.
    ReconfigAck {
        /// The epoch the boundary establishes.
        epoch: u64,
        /// The sending follower.
        process: u32,
        /// [`topology_hash_of`] the follower's topology and decomposition
        /// after it applied the boundary's edits.
        topology_hash: u64,
        /// The follower's final clock, in the ending epoch's dimension.
        clock: VectorTime,
    },
}

/// Starts a frame in `out`: reserves the length prefix and writes the type
/// byte. Returns the patch position to hand to [`end_frame`].
pub(crate) fn begin_frame(out: &mut Vec<u8>, ty: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(ty);
    start
}

/// Finishes a frame started by [`begin_frame`]: backpatches the length
/// prefix from whatever the caller appended in between.
pub(crate) fn end_frame(out: &mut [u8], start: usize) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends a QUERY3 frame with correlation id `corr` to `out` from
/// borrowed parts — the allocation-free form of encoding
/// [`Frame::QueryPipelined`], used by the client hot path (and reusable by
/// tests and benches to build request streams).
///
/// # Errors
///
/// [`NetError::Query`] when `corr` is `None` (every query frame carries a
/// correlation id), the trace id exceeds [`MAX_TRACE_NAME`] bytes (the
/// `u16` length prefix would otherwise truncate ids past 65535 bytes and
/// desynchronise the frame) or the batch exceeds [`MAX_BATCH`] queries.
/// Nothing is appended to `out` on error.
pub fn encode_query_batch_into(
    out: &mut Vec<u8>,
    corr: Option<u32>,
    trace: &str,
    queries: &[BatchQuery],
) -> Result<(), NetError> {
    let Some(corr) = corr else {
        return Err(NetError::Query(
            "a QUERY3 frame needs a correlation id".to_string(),
        ));
    };
    if trace.len() > MAX_TRACE_NAME {
        return Err(NetError::Query(format!(
            "trace id of {} bytes exceeds the {MAX_TRACE_NAME}-byte bound",
            trace.len()
        )));
    }
    if queries.len() > MAX_BATCH {
        return Err(NetError::Query(format!(
            "batch of {} queries exceeds the {MAX_BATCH}-query bound",
            queries.len()
        )));
    }
    let start = begin_frame(out, TYPE_QUERY_PIPELINED);
    out.extend_from_slice(&corr.to_le_bytes());
    out.extend_from_slice(&(trace.len() as u16).to_le_bytes());
    out.extend_from_slice(trace.as_bytes());
    out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
    for q in queries {
        out.push(q.kind);
        out.extend_from_slice(&q.m1.to_le_bytes());
        out.extend_from_slice(&q.m2.to_le_bytes());
    }
    end_frame(out, start);
    Ok(())
}

/// Appends a RESYNC frame to `out` (the transport's allocation-free form
/// of encoding [`Frame::Resync`]; infallible, unlike the batch encoders).
pub fn encode_resync_into(out: &mut Vec<u8>, key: u64) {
    let start = begin_frame(out, TYPE_RESYNC);
    out.extend_from_slice(&key.to_le_bytes());
    end_frame(out, start);
}

/// Appends an OFFER frame to `out` from borrowed parts (the transport's
/// allocation-free form of encoding [`Frame::Offer`]).
pub fn encode_offer_into(out: &mut Vec<u8>, key: u64, payload: u64, vector: &[u8]) {
    let start = begin_frame(out, TYPE_OFFER);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&payload.to_le_bytes());
    out.extend_from_slice(vector);
    end_frame(out, start);
}

/// Appends an ACK frame to `out` from borrowed parts (the transport's
/// allocation-free form of encoding [`Frame::Ack`]).
pub fn encode_ack_into(out: &mut Vec<u8>, key: u64, ack: &[u8]) {
    let start = begin_frame(out, TYPE_ACK);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(ack);
    end_frame(out, start);
}

/// Reusable per-connection encode/decode buffers for the serving and
/// pipelined-client hot paths.
///
/// Ownership rule: a `FrameScratch` belongs to exactly one connection at a
/// time (a pool worker hands its scratch to whichever connection it is
/// currently serving), and every use begins by `clear()`ing the buffer it
/// is about to fill — capacity persists across frames and connections, so
/// once the buffers have grown to a connection's working set the steady
/// state performs **zero heap allocations per query** (proven by the
/// counting-allocator test `crates/net/tests/zero_alloc.rs`).
#[derive(Debug, Default)]
pub struct FrameScratch {
    /// Encode buffer: outgoing frames accumulate here between flushes, so
    /// every answer decoded from one socket read leaves in one write.
    pub out: Vec<u8>,
    /// Decoded-query buffer reused across batches by the pipelined client.
    pub queries: Vec<BatchQuery>,
    /// Answer-body arena: one entry's kind-specific answer bytes are built
    /// here before being framed with their (status, length) prefix.
    pub body: Vec<u8>,
}

impl FrameScratch {
    /// Empty scratch; buffers grow to the connection's working set on
    /// first use and then stay warm.
    pub fn new() -> Self {
        FrameScratch::default()
    }
}

impl Frame {
    /// Serialises the frame, length prefix included.
    ///
    /// Convenience form of [`Frame::encode_into`] for cold paths and
    /// tests; allocates a fresh buffer per call.
    ///
    /// # Errors
    ///
    /// [`NetError::Query`] when a batch frame's trace id exceeds
    /// [`MAX_TRACE_NAME`] bytes or its query/entry list exceeds
    /// [`MAX_BATCH`].
    pub fn encode(&self) -> Result<Vec<u8>, NetError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the serialised frame (length prefix included) to `out`
    /// without intermediate allocation: the length prefix is reserved up
    /// front and backpatched once the body is in place.
    ///
    /// # Errors
    ///
    /// [`NetError::Query`] when a batch frame's trace id exceeds
    /// [`MAX_TRACE_NAME`] bytes or its query/entry list exceeds
    /// [`MAX_BATCH`]; `out` is left untouched on error. All other frame
    /// types encode infallibly.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), NetError> {
        match self {
            Frame::Hello {
                version,
                topology_hash,
                process,
            } => {
                let start = begin_frame(out, TYPE_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&topology_hash.to_le_bytes());
                out.extend_from_slice(&process.to_le_bytes());
                end_frame(out, start);
            }
            Frame::Offer {
                key,
                payload,
                vector,
            } => encode_offer_into(out, *key, *payload, vector),
            Frame::Ack { key, ack } => encode_ack_into(out, *key, ack),
            Frame::Resync { key } => encode_resync_into(out, *key),
            Frame::Error { message } => {
                let start = begin_frame(out, TYPE_ERROR);
                out.extend_from_slice(message.as_bytes());
                end_frame(out, start);
            }
            Frame::QueryPipelined {
                corr,
                trace,
                queries,
            } => encode_query_batch_into(out, Some(*corr), trace, queries)?,
            Frame::AnswerPipelined { corr, entries } => {
                Self::encode_answers(out, *corr, entries)?;
            }
            Frame::Reconfigure { epoch, merged } => {
                let start = begin_frame(out, TYPE_RECONFIGURE);
                out.extend_from_slice(&epoch.to_le_bytes());
                push_full(out, merged.as_slice());
                end_frame(out, start);
            }
            Frame::ReconfigAck {
                epoch,
                process,
                topology_hash,
                clock,
            } => {
                let start = begin_frame(out, TYPE_RECONFIG_ACK);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&process.to_le_bytes());
                out.extend_from_slice(&topology_hash.to_le_bytes());
                push_full(out, clock.as_slice());
                end_frame(out, start);
            }
        }
        Ok(())
    }

    fn encode_answers(
        out: &mut Vec<u8>,
        corr: u32,
        entries: &[BatchEntry],
    ) -> Result<(), NetError> {
        if entries.len() > MAX_BATCH {
            return Err(NetError::Query(format!(
                "answer batch of {} entries exceeds the {MAX_BATCH}-entry bound",
                entries.len()
            )));
        }
        let start = begin_frame(out, TYPE_ANSWER_PIPELINED);
        out.extend_from_slice(&corr.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in entries {
            let (status, bytes): (u8, &[u8]) = match e {
                BatchEntry::Answer(b) => (0, b),
                BatchEntry::Error(m) => (1, m.as_bytes()),
            };
            out.push(status);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        end_frame(out, start);
        Ok(())
    }

    /// Parses one frame body (`ty` byte already split off).
    fn decode_body(ty: u8, body: &[u8]) -> Result<Frame, NetError> {
        let exact = |want: usize| -> Result<(), NetError> {
            if body.len() == want {
                Ok(())
            } else {
                Err(NetError::Protocol(format!(
                    "frame type {ty} carries {} body bytes, expected {want}",
                    body.len()
                )))
            }
        };
        let at_least = |want: usize| -> Result<(), NetError> {
            if body.len() >= want {
                Ok(())
            } else {
                Err(NetError::Protocol(format!(
                    "frame type {ty} carries {} body bytes, expected at least {want}",
                    body.len()
                )))
            }
        };
        let u16_at = |i: usize| u16::from_le_bytes([body[i], body[i + 1]]);
        let u32_at =
            |i: usize| u32::from_le_bytes([body[i], body[i + 1], body[i + 2], body[i + 3]]);
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&body[i..i + 8]);
            u64::from_le_bytes(b)
        };
        let clock_at = |i: usize| {
            decode_full(&body[i..]).ok_or_else(|| {
                NetError::Protocol(format!("frame type {ty} carries an undecodable clock"))
            })
        };
        match ty {
            TYPE_HELLO => {
                exact(14)?;
                Ok(Frame::Hello {
                    version: u16_at(0),
                    topology_hash: u64_at(2),
                    process: u32_at(10),
                })
            }
            TYPE_OFFER => {
                at_least(16)?;
                Ok(Frame::Offer {
                    key: u64_at(0),
                    payload: u64_at(8),
                    vector: body[16..].to_vec(),
                })
            }
            TYPE_ACK => {
                at_least(8)?;
                Ok(Frame::Ack {
                    key: u64_at(0),
                    ack: body[8..].to_vec(),
                })
            }
            TYPE_RESYNC => {
                exact(8)?;
                Ok(Frame::Resync { key: u64_at(0) })
            }
            TYPE_ERROR => Ok(Frame::Error {
                message: String::from_utf8(body.to_vec())
                    .map_err(|_| NetError::Protocol("ERROR frame body is not UTF-8".to_string()))?,
            }),
            TYPE_QUERY_PIPELINED => {
                at_least(4)?;
                let (trace, queries) = Self::decode_query_batch(&body[4..])?;
                Ok(Frame::QueryPipelined {
                    corr: u32_at(0),
                    trace,
                    queries,
                })
            }
            TYPE_ANSWER_PIPELINED => {
                at_least(4)?;
                let entries = AnswerBatchView::parse(&body[4..])?.to_entries()?;
                Ok(Frame::AnswerPipelined {
                    corr: u32_at(0),
                    entries,
                })
            }
            TYPE_RECONFIGURE => {
                at_least(8)?;
                Ok(Frame::Reconfigure {
                    epoch: u64_at(0),
                    merged: clock_at(8)?,
                })
            }
            TYPE_RECONFIG_ACK => {
                at_least(20)?;
                Ok(Frame::ReconfigAck {
                    epoch: u64_at(0),
                    process: u32_at(8),
                    topology_hash: u64_at(12),
                    clock: clock_at(20)?,
                })
            }
            other => Err(NetError::Protocol(format!("unknown frame type {other}"))),
        }
    }

    /// Parses a QUERY3 batch body (correlation id already split off).
    fn decode_query_batch(body: &[u8]) -> Result<(String, Vec<BatchQuery>), NetError> {
        let view = QueryBatchView::parse(body)?;
        Ok((view.trace().to_string(), view.queries().collect()))
    }
}

/// A borrowed, validated view over a QUERY3 batch body — the
/// allocation-free decode the serving hot path uses instead of
/// materialising a [`Frame::QueryPipelined`].
#[derive(Debug, Clone, Copy)]
pub struct QueryBatchView<'a> {
    trace: &'a str,
    records: &'a [u8],
    count: usize,
}

impl<'a> QueryBatchView<'a> {
    /// Validates and wraps a batch body (the bytes after the type byte and
    /// the correlation id).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on truncation, trailing garbage, a non-UTF-8
    /// trace id, a trace id beyond [`MAX_TRACE_NAME`], or a count beyond
    /// [`MAX_BATCH`].
    pub fn parse(body: &'a [u8]) -> Result<Self, NetError> {
        if body.len() < 2 {
            return Err(NetError::Protocol(
                "QUERY3 body too short for trace length".to_string(),
            ));
        }
        let trace_len = u16::from_le_bytes([body[0], body[1]]) as usize;
        if trace_len > MAX_TRACE_NAME {
            return Err(NetError::Protocol(format!(
                "QUERY3 trace id of {trace_len} bytes exceeds the {MAX_TRACE_NAME}-byte bound"
            )));
        }
        if body.len() < 2 + trace_len + 4 {
            return Err(NetError::Protocol(
                "QUERY3 body too short for trace id and count".to_string(),
            ));
        }
        let trace = std::str::from_utf8(&body[2..2 + trace_len])
            .map_err(|_| NetError::Protocol("QUERY3 trace id is not UTF-8".to_string()))?;
        let at = 2 + trace_len;
        let count =
            u32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]) as usize;
        if count > MAX_BATCH {
            return Err(NetError::Protocol(format!(
                "QUERY3 batch of {count} queries exceeds the {MAX_BATCH}-query bound"
            )));
        }
        let records = &body[at + 4..];
        if records.len() != 9 * count {
            return Err(NetError::Protocol(format!(
                "QUERY3 batch of {count} queries carries {} record bytes, expected {}",
                records.len(),
                9 * count
            )));
        }
        Ok(QueryBatchView {
            trace,
            records,
            count,
        })
    }

    /// The batch's trace id (empty means the catalog's default trace).
    pub fn trace(&self) -> &'a str {
        self.trace
    }

    /// Number of queries in the batch.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The queries, decoded on the fly from the borrowed record bytes.
    pub fn queries(&self) -> impl Iterator<Item = BatchQuery> + 'a {
        self.records.chunks_exact(9).map(|r| BatchQuery {
            kind: r[0],
            m1: u32::from_le_bytes([r[1], r[2], r[3], r[4]]),
            m2: u32::from_le_bytes([r[5], r[6], r[7], r[8]]),
        })
    }
}

/// A borrowed, validated view over an ANSWER3 entry list — the
/// allocation-free decode the pipelined client uses instead of
/// materialising [`BatchEntry`] values.
#[derive(Debug, Clone, Copy)]
pub struct AnswerBatchView<'a> {
    entries: &'a [u8],
    count: usize,
}

impl<'a> AnswerBatchView<'a> {
    /// Validates and wraps an entry list (the bytes after the type byte
    /// and the correlation id). Walks every entry once
    /// so [`AnswerBatchView::entries`] can iterate infallibly.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on truncation, trailing garbage, or a count
    /// beyond [`MAX_BATCH`].
    pub fn parse(body: &'a [u8]) -> Result<Self, NetError> {
        if body.len() < 4 {
            return Err(NetError::Protocol(
                "ANSWER3 body too short for entry count".to_string(),
            ));
        }
        let count = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
        if count > MAX_BATCH {
            return Err(NetError::Protocol(format!(
                "ANSWER3 batch of {count} entries exceeds the {MAX_BATCH}-entry bound"
            )));
        }
        let entries = &body[4..];
        let mut at = 0usize;
        for _ in 0..count {
            if entries.len() < at + 5 {
                return Err(NetError::Protocol(
                    "ANSWER3 entry truncated at its prefix".to_string(),
                ));
            }
            let len = u32::from_le_bytes([
                entries[at + 1],
                entries[at + 2],
                entries[at + 3],
                entries[at + 4],
            ]) as usize;
            if entries.len() < at + 5 + len {
                return Err(NetError::Protocol(
                    "ANSWER3 entry truncated in its body".to_string(),
                ));
            }
            at += 5 + len;
        }
        if at != entries.len() {
            return Err(NetError::Protocol(format!(
                "ANSWER3 batch carries {} trailing bytes",
                entries.len() - at
            )));
        }
        Ok(AnswerBatchView { entries, count })
    }

    /// Number of entries.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The entries as owned [`BatchEntry`] values: the one owned decode
    /// of an ANSWER3 entry list, shared by [`Frame`] and the client.
    pub(crate) fn to_entries(self) -> Result<Vec<BatchEntry>, NetError> {
        let mut entries = Vec::with_capacity(self.count);
        for (i, (status, bytes)) in self.entries().enumerate() {
            entries.push(match status {
                0 => BatchEntry::Answer(bytes.to_vec()),
                1 => BatchEntry::Error(String::from_utf8(bytes.to_vec()).map_err(|_| {
                    NetError::Protocol(format!("ANSWER3 entry {i} error text is not UTF-8"))
                })?),
                other => {
                    return Err(NetError::Protocol(format!(
                        "ANSWER3 entry {i} has unknown status {other}"
                    )))
                }
            });
        }
        Ok(entries)
    }

    /// The `(status, body)` pairs in entry order, borrowed from the frame
    /// bytes. Status 0 is an answer, 1 an error diagnostic; any other
    /// value is surfaced to the caller to reject.
    pub fn entries(&self) -> impl Iterator<Item = (u8, &'a [u8])> + 'a {
        let entries = self.entries;
        let mut at = 0usize;
        (0..self.count).map(move |_| {
            let status = entries[at];
            let len = u32::from_le_bytes([
                entries[at + 1],
                entries[at + 2],
                entries[at + 3],
                entries[at + 4],
            ]) as usize;
            let bytes = &entries[at + 5..at + 5 + len];
            at += 5 + len;
            (status, bytes)
        })
    }
}

/// Incremental frame decoder: feed it socket chunks of any size, drain
/// complete frames as they materialise.
///
/// Consumed frames advance a cursor instead of shifting the buffer; the
/// buffer is compacted once per [`FrameReader::feed`] call (one `memmove`
/// per socket read, however many frames it carried) and its capacity is
/// kept, so steady-state reading allocates nothing.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends freshly received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Validates the length prefix of the frame at the cursor. Returns the
    /// frame's total on-wire size if it has fully arrived.
    fn complete_frame_len(&self) -> Result<Option<usize>, NetError> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len == 0 {
            return Err(NetError::Protocol("zero-length frame".to_string()));
        }
        if len > MAX_FRAME_LEN {
            return Err(NetError::Protocol(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"
            )));
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        Ok(Some(total))
    }

    /// Pops the next complete frame, if its bytes have all arrived.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on an oversized length prefix, an unknown
    /// frame type, or a malformed body. The stream is unrecoverable after
    /// an error: framing is lost.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, NetError> {
        let Some(total) = self.complete_frame_len()? else {
            return Ok(None);
        };
        let pending = &self.buf[self.start..self.start + total];
        let frame = Frame::decode_body(pending[4], &pending[5..])?;
        self.start += total;
        Ok(Some(frame))
    }

    /// Exposes the next complete frame as its type byte and borrowed body,
    /// without decoding it into an owned [`Frame`]. The frame stays at the
    /// cursor until [`FrameReader::consume_frame`] is called, so the hot
    /// path can answer straight out of the receive buffer.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on a zero or oversized length prefix (the
    /// body is *not* validated here — that is the caller's dispatch).
    pub fn peek_frame(&self) -> Result<Option<(u8, &[u8])>, NetError> {
        let Some(total) = self.complete_frame_len()? else {
            return Ok(None);
        };
        let pending = &self.buf[self.start..self.start + total];
        Ok(Some((pending[4], &pending[5..])))
    }

    /// Consumes the frame last exposed by [`FrameReader::peek_frame`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if no complete frame is at the cursor.
    pub fn consume_frame(&mut self) {
        let total = self.complete_frame_len().ok().flatten().unwrap_or_else(|| {
            debug_assert!(false, "consume_frame without a peeked frame");
            0
        });
        self.start += total;
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// FNV-1a hash of a run's shape: process count plus the decomposition's
/// edge groups. Two nodes whose HELLOs disagree on this hash would stamp
/// with incompatible vector spaces, so the handshake refuses the
/// connection — catching misconfigured launches before any message moves.
pub fn topology_hash(processes: usize, groups: &[Vec<(usize, usize)>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(processes as u64);
    eat(groups.len() as u64);
    for group in groups {
        eat(group.len() as u64);
        for &(u, v) in group {
            eat(u as u64);
            eat(v as u64);
        }
    }
    h
}

/// [`topology_hash`] over a run's actual [`EdgeDecomposition`] — the form
/// every launcher and node uses, so all of them agree byte-for-byte on
/// what they feed the hash.
///
/// [`EdgeDecomposition`]: synctime_graph::EdgeDecomposition
pub fn topology_hash_of(processes: usize, dec: &synctime_graph::EdgeDecomposition) -> u64 {
    let groups: Vec<Vec<(usize, usize)>> = dec
        .groups()
        .iter()
        .map(|g| g.edges().iter().map(|e| e.endpoints()).collect())
        .collect();
    topology_hash(processes, &groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_whole() {
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                topology_hash: 0xdead_beef,
                process: 3,
            },
            Frame::Offer {
                key: 7,
                payload: 42,
                vector: vec![1, 2, 3],
            },
            Frame::Ack {
                key: 7,
                ack: vec![9],
            },
            Frame::Resync { key: 7 },
            Frame::Error {
                message: "nope".to_string(),
            },
            Frame::QueryPipelined {
                corr: 0,
                trace: String::new(),
                queries: vec![],
            },
            Frame::QueryPipelined {
                corr: 0xfeed_beef,
                trace: "ring-a".to_string(),
                queries: vec![BatchQuery {
                    kind: 1,
                    m1: 4,
                    m2: 5,
                }],
            },
            Frame::AnswerPipelined {
                corr: u32::MAX,
                entries: vec![
                    BatchEntry::Answer(vec![0]),
                    BatchEntry::Error("no".to_string()),
                ],
            },
        ];
        let mut reader = FrameReader::new();
        for f in &frames {
            reader.feed(&f.encode().unwrap());
        }
        for f in &frames {
            assert_eq!(reader.next_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.pending_bytes(), 0);
    }

    #[test]
    fn oversized_and_unknown_frames_are_rejected() {
        let mut reader = FrameReader::new();
        reader.feed(&(MAX_FRAME_LEN + 1).to_le_bytes());
        reader.feed(&[1u8; 8]);
        assert!(matches!(reader.next_frame(), Err(NetError::Protocol(_))));

        let mut reader = FrameReader::new();
        reader.feed(&2u32.to_le_bytes());
        reader.feed(&[99, 0]); // unknown type 99
        assert!(matches!(reader.next_frame(), Err(NetError::Protocol(_))));

        // The retired v1/v2 query type bytes are unknown types now, whatever
        // body they carry.
        for ty in [4u8, 5, 7, 8] {
            for body_len in [0usize, 9, 64] {
                let mut reader = FrameReader::new();
                reader.feed(&(1 + body_len as u32).to_le_bytes());
                reader.feed(&[ty]);
                reader.feed(&vec![0u8; body_len]);
                match reader.next_frame() {
                    Err(NetError::Protocol(m)) => {
                        assert!(m.contains("unknown frame type"), "type {ty}: {m}");
                    }
                    other => panic!("type {ty} decoded as {other:?}"),
                }
            }
        }

        let mut reader = FrameReader::new();
        reader.feed(&0u32.to_le_bytes());
        assert!(matches!(reader.next_frame(), Err(NetError::Protocol(_))));
    }

    #[test]
    fn oversized_batches_are_rejected() {
        // A QUERY3 declaring more than MAX_BATCH queries is refused from
        // the count field alone, before any body is even present.
        let mut body = 7u32.to_le_bytes().to_vec(); // correlation id
        body.extend_from_slice(&[0u8, 0]); // empty trace id
        body.extend_from_slice(&((MAX_BATCH as u32) + 1).to_le_bytes());
        let mut framed = ((1 + body.len()) as u32).to_le_bytes().to_vec();
        framed.push(TYPE_QUERY_PIPELINED);
        framed.extend_from_slice(&body);
        let mut reader = FrameReader::new();
        reader.feed(&framed);
        let err = reader.next_frame().unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");

        // Same for an ANSWER3 entry count.
        let mut body = 7u32.to_le_bytes().to_vec(); // correlation id
        body.extend_from_slice(&((MAX_BATCH as u32) + 1).to_le_bytes());
        body.extend_from_slice(&[0; 16]);
        let mut framed = ((1 + body.len()) as u32).to_le_bytes().to_vec();
        framed.push(TYPE_ANSWER_PIPELINED);
        framed.extend_from_slice(&body);
        let mut reader = FrameReader::new();
        reader.feed(&framed);
        assert!(matches!(reader.next_frame(), Err(NetError::Protocol(_))));

        // Exactly MAX_BATCH round-trips.
        let max = Frame::QueryPipelined {
            corr: 1,
            trace: "t".to_string(),
            queries: vec![
                BatchQuery {
                    kind: 0,
                    m1: 0,
                    m2: 1,
                };
                MAX_BATCH
            ],
        };
        let mut reader = FrameReader::new();
        reader.feed(&max.encode().unwrap());
        assert_eq!(reader.next_frame().unwrap(), Some(max));
    }

    #[test]
    fn hash_separates_shapes() {
        let a = topology_hash(3, &[vec![(0, 1), (1, 2)]]);
        let b = topology_hash(3, &[vec![(0, 1)], vec![(1, 2)]]);
        let c = topology_hash(4, &[vec![(0, 1), (1, 2)]]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, topology_hash(3, &[vec![(0, 1), (1, 2)]]));
    }

    #[test]
    fn frame_sizes_match_core_wire_pricing() {
        use synctime_core::wire::{ack_frame_bytes, offer_frame_bytes, resync_frame_bytes};
        let offer = Frame::Offer {
            key: 1,
            payload: 2,
            vector: vec![0; 11],
        };
        assert_eq!(offer.encode().unwrap().len() as u64, offer_frame_bytes(11));
        let ack = Frame::Ack {
            key: 1,
            ack: vec![0; 5],
        };
        assert_eq!(ack.encode().unwrap().len() as u64, ack_frame_bytes(5));
        let resync = Frame::Resync { key: 1 };
        assert_eq!(resync.encode().unwrap().len() as u64, resync_frame_bytes());
    }

    #[test]
    fn pipelined_frame_sizes_match_core_wire_pricing() {
        use synctime_core::wire::{batch_answer3_frame_bytes, batch_query3_frame_bytes};
        for count in [0usize, 1, 16, 256] {
            let batch = Frame::QueryPipelined {
                corr: 7,
                trace: "alpha".to_string(),
                queries: vec![
                    BatchQuery {
                        kind: 0,
                        m1: 3,
                        m2: 4,
                    };
                    count
                ],
            };
            assert_eq!(
                batch.encode().unwrap().len() as u64,
                batch_query3_frame_bytes(5, count)
            );
            let answers = Frame::AnswerPipelined {
                corr: 7,
                entries: vec![BatchEntry::Answer(vec![1]); count],
            };
            assert_eq!(
                answers.encode().unwrap().len() as u64,
                batch_answer3_frame_bytes(count, count)
            );
        }
    }

    /// A RECONFIGURE and a RECONFIG_ACK frame around the clock `clock`.
    fn boundary_frames(clock: &[u64]) -> [Frame; 2] {
        [
            Frame::Reconfigure {
                epoch: 9,
                merged: VectorTime::from(clock.to_vec()),
            },
            Frame::ReconfigAck {
                epoch: 9,
                process: 2,
                topology_hash: 0xdead_beef,
                clock: VectorTime::from(clock.to_vec()),
            },
        ]
    }

    #[test]
    fn reconfigure_frame_sizes_match_core_wire_pricing() {
        use synctime_core::wire::{
            encode_full, reconfig_ack_frame_bytes, reconfigure_commit_frame_bytes,
        };
        for clock in [&[][..], &[3, 0, 700, u64::MAX][..]] {
            let clock_bytes = encode_full(&VectorTime::from(clock.to_vec())).len();
            let [commit, ack] = boundary_frames(clock);
            assert_eq!(
                commit.encode().unwrap().len() as u64,
                reconfigure_commit_frame_bytes(clock_bytes)
            );
            assert_eq!(
                ack.encode().unwrap().len() as u64,
                reconfig_ack_frame_bytes(clock_bytes)
            );
        }
    }

    #[test]
    fn reconfigure_frames_round_trip() {
        for clock in [&[][..], &[1, 2, 3][..], &[0, 300, u64::MAX][..]] {
            for frame in boundary_frames(clock) {
                let mut reader = FrameReader::new();
                reader.feed(&frame.encode().unwrap());
                assert_eq!(reader.next_frame().unwrap(), Some(frame));
            }
        }
    }

    #[test]
    fn truncated_reconfigure_bodies_are_typed_protocol_errors() {
        for good in boundary_frames(&[4, 300, 0]) {
            let good = good.encode().unwrap();
            // Rewrite the length prefix to each shorter body length: every
            // cut must surface as NetError::Protocol, never a panic or a
            // misparse.
            for cut in FRAME_HEADER_BYTES..good.len() {
                let mut bytes = good[..cut].to_vec();
                let len = (cut - FRAME_HEADER_BYTES + 1) as u32;
                bytes[..4].copy_from_slice(&len.to_le_bytes());
                let mut reader = FrameReader::new();
                reader.feed(&bytes);
                assert!(matches!(reader.next_frame(), Err(NetError::Protocol(_))));
            }
        }
    }

    #[test]
    fn peek_and_consume_walk_the_stream_without_decoding() {
        let query = Frame::QueryPipelined {
            corr: 5,
            trace: "t".to_string(),
            queries: vec![BatchQuery {
                kind: 0,
                m1: 1,
                m2: 2,
            }],
        };
        let error = Frame::Error {
            message: "x".to_string(),
        };
        let frames = [Frame::Resync { key: 3 }, query.clone(), error];
        let mut reader = FrameReader::new();
        for f in &frames {
            reader.feed(&f.encode().unwrap());
        }
        // Peeking is idempotent until the frame is consumed.
        let (ty, body) = reader.peek_frame().unwrap().unwrap();
        assert_eq!((ty, body.len()), (TYPE_RESYNC, 8));
        let (ty2, _) = reader.peek_frame().unwrap().unwrap();
        assert_eq!(ty2, TYPE_RESYNC);
        reader.consume_frame();
        // Peek and owned decode interleave on one stream.
        assert_eq!(reader.next_frame().unwrap(), Some(query));
        let (ty, body) = reader.peek_frame().unwrap().unwrap();
        assert_eq!((ty, body), (TYPE_ERROR, &b"x"[..]));
        reader.consume_frame();
        assert_eq!(reader.peek_frame().unwrap(), None);
        assert_eq!(reader.pending_bytes(), 0);
        // Feeding a partial frame keeps peek at None until it completes.
        let encoded = Frame::Resync { key: 9 }.encode().unwrap();
        reader.feed(&encoded[..6]);
        assert_eq!(reader.peek_frame().unwrap(), None);
        reader.feed(&encoded[6..]);
        assert_eq!(
            reader.peek_frame().unwrap(),
            Some((TYPE_RESYNC, &encoded[FRAME_HEADER_BYTES..]))
        );
    }

    #[test]
    fn borrowed_views_agree_with_owned_decode() {
        let queries = vec![
            BatchQuery {
                kind: 0,
                m1: 1,
                m2: 2,
            },
            BatchQuery {
                kind: 2,
                m1: 7,
                m2: 0,
            },
        ];
        let encoded = Frame::QueryPipelined {
            corr: 11,
            trace: "tr".to_string(),
            queries: queries.clone(),
        }
        .encode()
        .unwrap();
        let body = &encoded[FRAME_HEADER_BYTES + 4..]; // skip header + corr
        let view = QueryBatchView::parse(body).unwrap();
        assert_eq!(view.trace(), "tr");
        assert_eq!(view.count(), 2);
        assert_eq!(view.queries().collect::<Vec<_>>(), queries);

        let entries = vec![
            BatchEntry::Answer(vec![1]),
            BatchEntry::Error("m 9 out of range".to_string()),
            BatchEntry::Answer(vec![]),
        ];
        let encoded = Frame::AnswerPipelined {
            corr: 11,
            entries: entries.clone(),
        }
        .encode()
        .unwrap();
        let body = &encoded[FRAME_HEADER_BYTES + 4..];
        let view = AnswerBatchView::parse(body).unwrap();
        assert_eq!(view.count(), 3);
        let seen: Vec<(u8, Vec<u8>)> = view
            .entries()
            .map(|(status, bytes)| (status, bytes.to_vec()))
            .collect();
        assert_eq!(
            seen,
            vec![(0, vec![1]), (1, b"m 9 out of range".to_vec()), (0, vec![]),]
        );

        // Truncation and trailing garbage are rejected.
        assert!(AnswerBatchView::parse(&body[..body.len() - 1]).is_err());
        let mut garbage = body.to_vec();
        garbage.push(0);
        assert!(AnswerBatchView::parse(&garbage).is_err());
        assert!(QueryBatchView::parse(&[1, 0]).is_err());
    }
}
