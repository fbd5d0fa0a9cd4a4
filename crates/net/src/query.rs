//! The precedence-query server: Theorem 4 as a network service.
//!
//! The paper's punchline is that a d-dimensional vector per message
//! answers `m1 ↦ m2` with a constant-time comparison. This module serves
//! that comparison over the frame protocol against a [`QueryFabric`]
//! catalog of stamped traces, answering three query kinds —
//!
//! * **precedes** `m1 m2` — does `m1` synchronously precede `m2`?
//! * **concurrent** `m1 m2` — is neither ordered before the other?
//! * **chain-of** `m` — every message ordered with `m` (its causal past
//!   and future, `m` included), ascending by message id; the complement
//!   of `m`'s concurrency set.
//!
//! There is one query protocol. A client sends QUERY3 frames, each a
//! correlation-tagged batch of up to `MAX_BATCH` queries against one named
//! trace of the catalog, and the server answers each with one ANSWER3
//! frame of positionally matched entries — the round trip, the framing
//! and the trace lookup are paid once per batch. A single query is a batch
//! of one, and lock-step is a window of one: a [`Pipeline`] keeps up to W
//! batches in flight at once, the server answers frames *as they decode*
//! (every batch read off the socket in one `read` is answered in one
//! `write`), and answers complete out of order, matched by correlation id.
//! The serving hot path is allocation-free in steady state:
//! [`pump_frames`] decodes borrowed [`QueryBatchView`]s straight out of
//! the receive buffer and appends ANSWER3 frames to a per-connection
//! [`FrameScratch`], whose buffers are reused across frames and
//! connections (see `crates/net/tests/zero_alloc.rs` for the
//! counting-allocator proof). On a table well past the caches (16 MiB of
//! stamp lanes and up) the pump first walks each batch once, loading the
//! rows its `precedes`/`concurrent` queries name, so their misses overlap
//! instead of stalling one compare at a time; the answers are the same
//! either way.
//!
//! Every connection is served by the fixed worker pool in [`crate::pool`]
//! against a shared [`QueryFabric`] catalog.
//!
//! Query connections handshake like transport connections, but a client
//! is not a process of any computation: it identifies as process
//! `u32::MAX` with topology hash `0`, and the server validates the
//! protocol version only — accepting exactly [`PROTOCOL_VERSION`], so an
//! older client is refused with a typed version-mismatch ERROR at the
//! handshake instead of being dropped on its first query.
//!
//! [`QueryBatchView`]: crate::frame::QueryBatchView

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;

use synctime_core::MessageTimestamps;
use synctime_trace::MessageId;

use crate::catalog::QueryFabric;
use crate::error::NetError;
use crate::frame::{
    begin_frame, encode_query_batch_into, end_frame, AnswerBatchView, BatchEntry, BatchQuery,
    Frame, FrameReader, FrameScratch, QueryBatchView, MAX_BATCH, PROTOCOL_VERSION,
    TYPE_ANSWER_PIPELINED, TYPE_QUERY_PIPELINED,
};

/// Query kind byte: does `m1` precede `m2`?
pub const QUERY_PRECEDES: u8 = 0;
/// Query kind byte: are `m1` and `m2` concurrent?
pub const QUERY_CONCURRENT: u8 = 1;
/// Query kind byte: every message ordered with `m1`.
pub const QUERY_CHAIN_OF: u8 = 2;

/// The process id query clients identify with: not a process at all.
pub const QUERY_CLIENT_ID: u32 = u32::MAX;

/// The trace id a single-trace `serve-query --trace` registers its one
/// trace under.
pub const DEFAULT_TRACE_NAME: &str = "default";

/// Answers one query against a stamped trace, returning the bytes an
/// ANSWER3 entry carries:
///
/// * `precedes` / `concurrent` — a single `0`/`1` byte;
/// * `chain-of` — `u32` count, then the ordered message ids as `u32`s.
///
/// # Errors
///
/// [`NetError::Query`] on an unknown kind or out-of-range message id
/// (0-based).
pub fn answer_query(
    stamps: &MessageTimestamps,
    kind: u8,
    m1: u32,
    m2: u32,
) -> Result<Vec<u8>, NetError> {
    let mut body = Vec::new();
    answer_query_into(stamps, kind, m1, m2, &mut body)?;
    Ok(body)
}

/// [`answer_query`] appending into a caller-owned buffer — the
/// allocation-free form the serving hot path uses ([`FrameScratch::body`]
/// is the usual arena). On error nothing has been appended.
///
/// # Errors
///
/// [`NetError::Query`] on an unknown kind or out-of-range message id
/// (0-based).
pub fn answer_query_into(
    stamps: &MessageTimestamps,
    kind: u8,
    m1: u32,
    m2: u32,
    out: &mut Vec<u8>,
) -> Result<(), NetError> {
    let check = |m: u32| -> Result<MessageId, NetError> {
        let idx = m as usize;
        if idx >= stamps.len() {
            return Err(NetError::Query(format!(
                "message {m} out of range (trace has {} messages)",
                stamps.len()
            )));
        }
        Ok(MessageId(idx))
    };
    match kind {
        QUERY_PRECEDES => {
            let (a, b) = (check(m1)?, check(m2)?);
            out.push(u8::from(stamps.precedes(a, b)));
            Ok(())
        }
        QUERY_CONCURRENT => {
            let (a, b) = (check(m1)?, check(m2)?);
            out.push(u8::from(stamps.concurrent(a, b)));
            Ok(())
        }
        QUERY_CHAIN_OF => {
            let m = check(m1)?;
            // Count prefix backpatched once the ids are appended, so the
            // ordered set is never materialised separately.
            let count_at = out.len();
            out.extend_from_slice(&[0u8; 4]);
            let mut count = 0u32;
            for o in (0..stamps.len()).map(MessageId) {
                if o == m || stamps.precedes(o, m) || stamps.precedes(m, o) {
                    out.extend_from_slice(&(o.0 as u32).to_le_bytes());
                    count += 1;
                }
            }
            out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            Ok(())
        }
        other => Err(NetError::Query(format!("unknown query kind {other}"))),
    }
}

/// Table size, in bytes of stamp lanes, from which [`pump_frames`] runs
/// [`fetch_rows`] over a batch before answering it. In-process sweeps
/// (EXPERIMENTS.md R20) found the pass slower at every size up to 8 MiB,
/// at d = 2 and d = 32, and faster from 16 MiB on.
const FETCH_FLOOR_BYTES: usize = 16 << 20;

/// Lanes of each row [`fetch_rows`] loads: a whole row up to d = 32.
/// `compare_lanes` stops at the first 8-lane chunk where the rows differ
/// both ways, so on a wide table of mostly concurrent pairs most of a
/// row is never read and fetching it is pure cost: at d = 256 whole rows
/// made the pump 2.2× slower, and 64 lanes 9% slower (R20).
const FETCH_ROW_LANES: usize = 32;

/// The fetch pass: loads the cache lines of both rows of every in-range
/// `precedes`/`concurrent` query of a batch, so the answer pass that
/// follows finds them in L1/L2. The addresses depend only on the ids, so
/// the misses of different queries overlap instead of each compare's
/// waiting behind its own. Chain-of (a sequential scan the hardware
/// prefetcher already streams), unknown kinds and out-of-range ids are
/// left to the answer pass, which answers or refuses them as before.
fn fetch_rows(stamps: &MessageTimestamps, queries: impl Iterator<Item = BatchQuery>) {
    let len = stamps.len();
    let mut fold = 0u64;
    for q in queries {
        if !matches!(q.kind, QUERY_PRECEDES | QUERY_CONCURRENT)
            || q.m1 as usize >= len
            || q.m2 as usize >= len
        {
            continue;
        }
        for m in [q.m1, q.m2] {
            let row = stamps.row(MessageId(m as usize));
            let lanes = row.len().min(FETCH_ROW_LANES);
            // One lane per 64-byte line, then the last lane, for the line
            // a row not aligned to 64 bytes ends in. An index loop: the
            // same walk as `iter().step_by(8).chain(last())` measured no
            // faster than no fetch at all (EXPERIMENTS.md R20).
            let mut lane = 0;
            while lane < lanes {
                fold ^= row[lane];
                lane += 8;
            }
            if lanes > 0 {
                fold ^= row[lanes - 1];
            }
        }
    }
    // The fold is never used: `black_box` keeps the compiler from
    // deleting the loads that feed it.
    std::hint::black_box(fold);
}

/// Runs one client connection against the catalog: handshake, then a
/// QUERY3/ANSWER3 loop until the client disconnects.
///
/// The loop never lock-steps: every complete frame already buffered is
/// answered into `scratch.out` before the reply bytes leave in a single
/// `write`, so a pipelining client that lands W batches in one socket
/// read gets W answers in one socket write. `scratch` is the connection's
/// reusable buffer set — a pool worker passes the same scratch to every
/// connection it serves, which is what keeps the steady state
/// allocation-free.
///
/// Rejected queries — bad ids, unknown kinds, unresolvable trace ids —
/// answer with error entries and keep the connection alive; only
/// protocol violations and socket failures end it.
///
/// # Errors
///
/// [`NetError::Handshake`] when the client's HELLO is missing or speaks
/// any protocol version but [`PROTOCOL_VERSION`], [`NetError::Protocol`]
/// on frame violations, [`NetError::Io`] on socket failures.
pub fn serve_fabric_connection(
    mut stream: TcpStream,
    fabric: &QueryFabric,
    scratch: &mut FrameScratch,
) -> Result<(), NetError> {
    stream.set_nodelay(true)?;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 16384];
    let hello = read_frame(&mut stream, &mut reader, &mut buf)?;
    let Frame::Hello { version, .. } = hello else {
        return Err(NetError::Handshake(format!(
            "expected HELLO, got {hello:?}"
        )));
    };
    if version != PROTOCOL_VERSION {
        let refusal = Frame::Error {
            message: format!(
                "protocol version mismatch: client speaks {version}, server speaks \
                 {PROTOCOL_VERSION}"
            ),
        };
        stream.write_all(&refusal.encode()?)?;
        return Err(NetError::Handshake("client version mismatch".to_string()));
    }
    stream.write_all(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            topology_hash: 0,
            process: QUERY_CLIENT_ID,
        }
        .encode()?,
    )?;
    loop {
        scratch.out.clear();
        let open = pump_frames(&mut reader, fabric, scratch)?;
        if !scratch.out.is_empty() {
            stream.write_all(&scratch.out)?;
        }
        if !open {
            return Ok(());
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        reader.feed(&buf[..n]);
    }
}

/// Answers every complete frame buffered in `reader`, appending the reply
/// bytes to `scratch.out` (the caller flushes them in one write). Returns
/// `false` when the connection should close after the flush — a frame
/// other than QUERY3 was answered with a final ERROR frame.
///
/// This is the serving hot path: QUERY3 frames are decoded as borrowed
/// [`QueryBatchView`]s straight out of the receive buffer and answered
/// via [`answer_query_into`] into the scratch arena, so in steady state
/// (warm buffers, no rejected queries) the whole pump performs **zero
/// heap allocations per query** — `crates/net/tests/zero_alloc.rs` counts
/// them. A QUERY3 whose trace id does not resolve answers ANSWER3 with
/// every entry carrying the resolution error, keeping the correlation id
/// (a bare ERROR frame would not say *which* in-flight batch failed).
///
/// When the resolved table holds at least 16 MiB of stamp lanes, a fetch
/// pass walks the batch first and loads the first 32 lanes of both rows
/// of every in-range `precedes`/`concurrent` query, so the compares that
/// follow read them from L1/L2. It changes no answer, byte or allocation.
///
/// # Errors
///
/// [`NetError::Protocol`] on frame violations (framing is lost; the
/// caller should drop the connection without flushing further replies).
pub fn pump_frames(
    reader: &mut FrameReader,
    fabric: &QueryFabric,
    scratch: &mut FrameScratch,
) -> Result<bool, NetError> {
    loop {
        // Answer a QUERY3 batch without materialising a Frame; anything
        // else falls through to the owned decode below.
        if let Some((TYPE_QUERY_PIPELINED, body)) = reader.peek_frame()? {
            if body.len() < 4 {
                return Err(NetError::Protocol(
                    "QUERY3 body too short for correlation id".to_string(),
                ));
            }
            let corr = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
            let view = QueryBatchView::parse(&body[4..])?;
            let FrameScratch {
                out, body: arena, ..
            } = scratch;
            let start = begin_frame(out, TYPE_ANSWER_PIPELINED);
            out.extend_from_slice(&corr.to_le_bytes());
            out.extend_from_slice(&(view.count() as u32).to_le_bytes());
            match fabric.resolve(view.trace()) {
                Ok(stamps) => {
                    if stamps.len() * stamps.dim() * 8 >= FETCH_FLOOR_BYTES {
                        fetch_rows(&stamps, view.queries());
                    }
                    for q in view.queries() {
                        arena.clear();
                        let status = match answer_query_into(&stamps, q.kind, q.m1, q.m2, arena) {
                            Ok(()) => 0u8,
                            Err(e) => {
                                let detail = match e {
                                    NetError::Query(detail) => detail,
                                    other => other.to_string(),
                                };
                                arena.clear();
                                arena.extend_from_slice(detail.as_bytes());
                                1
                            }
                        };
                        out.push(status);
                        out.extend_from_slice(&(arena.len() as u32).to_le_bytes());
                        out.extend_from_slice(arena);
                    }
                }
                Err(e) => {
                    let detail = match e {
                        NetError::Query(detail) => detail,
                        other => other.to_string(),
                    };
                    for _ in 0..view.count() {
                        out.push(1);
                        out.extend_from_slice(&(detail.len() as u32).to_le_bytes());
                        out.extend_from_slice(detail.as_bytes());
                    }
                }
            }
            end_frame(out, start);
            reader.consume_frame();
            continue;
        }
        let frame = match reader.next_frame()? {
            Some(f) => f,
            None => return Ok(true),
        };
        // Anything but QUERY3 is a protocol violation: say so, then close.
        Frame::Error {
            message: format!("expected QUERY3, got {frame:?}"),
        }
        .encode_into(&mut scratch.out)?;
        return Ok(false);
    }
}

/// Reads from `stream` until `reader` holds a complete frame.
fn fill(stream: &mut TcpStream, reader: &mut FrameReader, buf: &mut [u8]) -> Result<(), NetError> {
    while reader.peek_frame()?.is_none() {
        let n = stream.read(buf)?;
        if n == 0 {
            return Err(NetError::Closed);
        }
        reader.feed(&buf[..n]);
    }
    Ok(())
}

fn read_frame(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    buf: &mut [u8],
) -> Result<Frame, NetError> {
    fill(stream, reader, buf)?;
    reader.next_frame()?.ok_or(NetError::Closed)
}

/// A blocking query connection: one handshake, then QUERY3 batches with
/// up to W in flight. Every request goes through one engine, a
/// [`Pipeline`]: [`QueryClient::pipeline`] hands it to the caller, and
/// [`QueryClient::precedes_many_pipelined`] and [`QueryClient::chain_of`]
/// are short loops over it.
#[derive(Debug)]
pub struct QueryClient {
    stream: TcpStream,
    reader: FrameReader,
    scratch: FrameScratch,
    /// Socket read buffer of every [`Pipeline`], allocated once at
    /// connect, so reading an answer frame fills no fresh buffer.
    recv: Vec<u8>,
}

/// Length of [`QueryClient`]'s socket read buffer.
const RECV_BUF_LEN: usize = 65536;

impl QueryClient {
    /// Connects and handshakes with a query server.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on connect failures, [`NetError::Handshake`] when
    /// the server refuses the protocol version.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                topology_hash: 0,
                process: QUERY_CLIENT_ID,
            }
            .encode()?,
        )?;
        let mut reader = FrameReader::new();
        let mut recv = vec![0u8; RECV_BUF_LEN];
        match read_frame(&mut stream, &mut reader, &mut recv)? {
            Frame::Hello { .. } => Ok(QueryClient {
                stream,
                reader,
                scratch: FrameScratch::new(),
                recv,
            }),
            Frame::Error { message } => Err(NetError::Handshake(message)),
            other => Err(NetError::Handshake(format!(
                "expected HELLO, got {other:?}"
            ))),
        }
    }

    /// Every message ordered with `m` (see the module docs), ascending,
    /// from one trace of the server's catalog; the empty trace id targets
    /// the catalog's default trace. Sent as a one-query QUERY3 batch.
    ///
    /// # Errors
    ///
    /// [`NetError::Query`] when the server rejects the trace id or `m`,
    /// [`NetError::Protocol`] on a malformed answer, transport errors
    /// otherwise.
    pub fn chain_of(&mut self, trace: &str, m: u32) -> Result<Vec<u32>, NetError> {
        let mut pipeline = self.pipeline(1);
        pipeline.submit(
            trace,
            &[BatchQuery {
                kind: QUERY_CHAIN_OF,
                m1: m,
                m2: 0,
            }],
        )?;
        let entry = pipeline
            .finish()?
            .pop()
            .and_then(|mut entries| entries.pop())
            .ok_or_else(|| NetError::Protocol("empty batch answer".to_string()))?;
        match entry {
            BatchEntry::Answer(body) => parse_chain_body(&body),
            BatchEntry::Error(message) => Err(NetError::Query(message)),
        }
    }

    /// Opens a pipelined session on this connection: up to `window`
    /// QUERY3 batches stay in flight at once, each tagged with a
    /// correlation id the server echoes, so the wire never idles for a
    /// round trip between batches. Answers complete out of order; the
    /// [`Pipeline`] reassembles them by submission slot.
    ///
    /// Dropping a [`Pipeline`] with batches still in flight leaves their
    /// answers unread in the stream — call [`Pipeline::finish`] (or
    /// [`Pipeline::drain`]) before using this client again, whether for
    /// another pipeline, [`QueryClient::precedes_many_pipelined`] or
    /// [`QueryClient::chain_of`].
    pub fn pipeline(&mut self, window: usize) -> Pipeline<'_> {
        self.pipeline_at(window, 0)
    }

    /// As [`QueryClient::pipeline`], but starting correlation ids at
    /// `first_corr` instead of 0. Correlation ids are a wrapping `u32`
    /// counter (skipping ids still in flight), so a session outliving
    /// 2^32 submissions keeps working; this seam lets tests start next to
    /// the wrap point instead of submitting 2^32 batches to reach it.
    pub fn pipeline_at(&mut self, window: usize, first_corr: u32) -> Pipeline<'_> {
        Pipeline::new(self, window, first_corr, Sink::Entries(Vec::new()))
    }

    /// Pipelined batched `precedes`: one boolean per `(m1, m2)` pair, in
    /// order, with the pairs split into `batch`-sized QUERY3 frames and up
    /// to `window` frames in flight at once. This is the fastest
    /// single-connection path: requests stream without waiting for
    /// answers, and each answer's borrowed view is read straight into the
    /// booleans, with no per-entry allocation. The frames are numbered
    /// 0, 1, 2, … in order.
    ///
    /// `batch` is clamped to `1..=`[`MAX_BATCH`]; `window` to at least 1
    /// (`window == 1` is lock-step: one frame, one answer, the next frame).
    ///
    /// A failed batch stops the submission of further batches, but the
    /// call still receives (and discards) the answer to every batch it
    /// already sent before it returns the first error. So unless the
    /// connection itself failed, the stream holds no answer to any frame
    /// this call sent, and the client stays usable.
    ///
    /// # Errors
    ///
    /// [`NetError::Query`] if the trace id or *any* pair is rejected,
    /// [`NetError::Correlation`] on an answer for no in-flight batch,
    /// [`NetError::Protocol`] on malformed replies, transport errors
    /// otherwise.
    pub fn precedes_many_pipelined(
        &mut self,
        trace: &str,
        pairs: &[(u32, u32)],
        batch: usize,
        window: usize,
    ) -> Result<Vec<bool>, NetError> {
        let batch = batch.clamp(1, MAX_BATCH);
        let mut verdicts = vec![false; pairs.len()];
        let mut queries = std::mem::take(&mut self.scratch.queries);
        let sink = Sink::Verdicts {
            batch,
            out: &mut verdicts,
        };
        let mut pipeline = Pipeline::new(self, window, 0, sink);
        let mut chunks = pairs.chunks(batch);
        // The first failed batch; once set, nothing more is submitted and
        // the loop only drains what is still in flight.
        let mut failure = None;
        loop {
            let room = failure.is_none() && pipeline.pending() < pipeline.window;
            let outcome = match room.then(|| chunks.next()).flatten() {
                Some(chunk) => {
                    queries.clear();
                    queries.extend(chunk.iter().map(|&(m1, m2)| BatchQuery {
                        kind: QUERY_PRECEDES,
                        m1,
                        m2,
                    }));
                    pipeline.send(trace, &queries)?.map(drop)
                }
                None if pipeline.pending() > 0 => pipeline.recv()?,
                None => break,
            };
            if let Err(e) = outcome {
                failure.get_or_insert(e);
            }
        }
        drop(pipeline);
        self.scratch.queries = queries;
        failure.map_or(Ok(verdicts), Err)
    }
}

/// Where a [`Pipeline`] files each answer it routes.
#[derive(Debug)]
enum Sink<'a> {
    /// Per slot, the entry count its answer must carry and, once it
    /// arrives, its owned entries: [`Pipeline::finish`] and
    /// [`QueryClient::chain_of`].
    Entries(Vec<(usize, Option<Vec<BatchEntry>>)>),
    /// One boolean per pair of [`QueryClient::precedes_many_pipelined`];
    /// slot `s` answers the pairs from `s * batch`.
    Verdicts { batch: usize, out: &'a mut [bool] },
}

impl Sink<'_> {
    /// Files the answer of `slot`, checking its entry count first.
    fn file(&mut self, slot: usize, view: AnswerBatchView<'_>) -> Result<(), NetError> {
        let want = match self {
            Sink::Entries(slots) => slots[slot].0,
            Sink::Verdicts { batch, out } => (*batch).min(out.len() - slot * *batch),
        };
        if view.count() != want {
            return Err(NetError::Protocol(format!(
                "batch of {want} queries answered with {} entries",
                view.count()
            )));
        }
        match self {
            Sink::Entries(slots) => slots[slot].1 = Some(view.to_entries()?),
            Sink::Verdicts { batch, out } => {
                for ((status, bytes), verdict) in view.entries().zip(&mut out[slot * *batch..]) {
                    *verdict = match (status, bytes) {
                        (0, [0]) => false,
                        (0, [1]) => true,
                        (0, _) => {
                            return Err(NetError::Protocol(
                                "boolean answer body is not a single 0/1 byte".to_string(),
                            ))
                        }
                        (1, message) => {
                            return Err(NetError::Query(
                                String::from_utf8_lossy(message).into_owned(),
                            ))
                        }
                        (status, _) => {
                            return Err(NetError::Protocol(format!(
                                "ANSWER3 entry has unknown status {status}"
                            )))
                        }
                    };
                }
            }
        }
        Ok(())
    }
}

/// A pipelined query session: keeps up to W QUERY3 batches in flight on
/// one connection, completing them out of order by correlation id.
/// Created by [`QueryClient::pipeline`]; it is the client's one engine,
/// which [`QueryClient::precedes_many_pipelined`] and
/// [`QueryClient::chain_of`] run too.
///
/// [`Pipeline::submit`] blocks only when the window is full (it receives
/// one answer to make room); [`Pipeline::drain`] /[`Pipeline::finish`]
/// receive whatever is still in flight. Each answer is decoded once, as
/// a borrowed [`AnswerBatchView`], and frees its slot whatever it holds:
/// an answer with the wrong entry count is an error, and that slot ends
/// the session as a hole ([`NetError::Incomplete`]), never as a batch
/// still awaited. Results are returned in *submission* order regardless
/// of the order answers arrived.
#[derive(Debug)]
pub struct Pipeline<'a> {
    client: &'a mut QueryClient,
    window: usize,
    sink: Sink<'a>,
    /// Batches sent so far; the next one's slot.
    sent: usize,
    /// Next correlation id to try; wraps around `u32::MAX` (ids are a
    /// cursor, not a slot index — slots keep growing past 2^32).
    next_corr: u32,
    /// Correlation id → submission slot, for every unanswered batch. The
    /// map both routes answers and keeps a wrapped id from being reissued
    /// while its first use is still in flight.
    inflight: HashMap<u32, usize>,
}

impl<'a> Pipeline<'a> {
    fn new(client: &'a mut QueryClient, window: usize, first_corr: u32, sink: Sink<'a>) -> Self {
        Pipeline {
            client,
            window: window.max(1),
            sink,
            sent: 0,
            next_corr: first_corr,
            inflight: HashMap::new(),
        }
    }

    /// Sends one batch (at most [`MAX_BATCH`] queries) against a named
    /// trace, returning its submission slot. Blocks receiving answers
    /// only while the window is full.
    ///
    /// # Errors
    ///
    /// [`NetError::Query`] on an oversized batch or trace id (or a
    /// server-rejected trace on the answer that made room),
    /// [`NetError::Correlation`] when an answer matches no in-flight
    /// batch, transport errors otherwise.
    pub fn submit(&mut self, trace: &str, queries: &[BatchQuery]) -> Result<usize, NetError> {
        while self.pending() >= self.window {
            self.recv()??;
        }
        self.send(trace, queries)?
    }

    /// Batches submitted but not yet answered.
    pub fn pending(&self) -> usize {
        self.inflight.len()
    }

    /// Receives answers until nothing is in flight. A
    /// [`NetError::Correlation`] return is recoverable: the stray frame
    /// has been consumed, and calling `drain` again resumes receiving the
    /// real answers. So is a [`NetError::Protocol`] for an answer whose
    /// entries do not fit its batch: that batch is no longer in flight.
    ///
    /// # Errors
    ///
    /// [`NetError::Correlation`] on an answer for no in-flight batch,
    /// [`NetError::Query`] when the server rejected a batch's trace,
    /// [`NetError::Protocol`] on malformed replies, transport errors
    /// otherwise.
    pub fn drain(&mut self) -> Result<(), NetError> {
        while self.pending() > 0 {
            self.recv()??;
        }
        Ok(())
    }

    /// Drains the window and returns every batch's entries in submission
    /// order.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::drain`], and [`NetError::Incomplete`] for the first
    /// slot whose answer was refused.
    pub fn finish(mut self) -> Result<Vec<Vec<BatchEntry>>, NetError> {
        self.drain()?;
        let Sink::Entries(slots) = self.sink else {
            unreachable!("only precedes_many_pipelined files verdicts, and it never finishes")
        };
        // A hole after a clean drain means no usable answer arrived for
        // that submission. Fabricating an empty entry list would let the
        // caller zip results against queries and silently misattribute
        // every answer past the hole — surface the missing slot instead.
        slots
            .into_iter()
            .enumerate()
            .map(|(slot, (_, entries))| entries.ok_or(NetError::Incomplete { slot }))
            .collect()
    }

    /// The send step: encodes one batch under the next free correlation
    /// id, writes it and opens its slot. The outer error is a failed
    /// write; the inner one refuses the batch before anything is sent.
    fn send(
        &mut self,
        trace: &str,
        queries: &[BatchQuery],
    ) -> Result<Result<usize, NetError>, NetError> {
        // The correlation id is a wrapping cursor, not the slot index: a
        // session past 2^32 submissions wraps around, and any id still in
        // flight (the window bounds these to a handful) is skipped so two
        // live batches can never share an id.
        let mut corr = self.next_corr;
        while self.inflight.contains_key(&corr) {
            corr = corr.wrapping_add(1);
        }
        let out = &mut self.client.scratch.out;
        out.clear();
        if let Err(e) = encode_query_batch_into(out, Some(corr), trace, queries) {
            return Ok(Err(e));
        }
        self.client.stream.write_all(out)?;
        self.next_corr = corr.wrapping_add(1);
        let slot = self.sent;
        self.sent += 1;
        self.inflight.insert(corr, slot);
        if let Sink::Entries(slots) = &mut self.sink {
            slots.push((queries.len(), None));
        }
        Ok(Ok(slot))
    }

    /// The receive step: reads one frame and routes an ANSWER3 by its
    /// correlation id to its slot, which it frees before the sink sees
    /// the entries. The outer error is a connection failure: the stream
    /// is unusable or out of step. The inner one is a consumed answer
    /// that failed — a rejected entry, entries that do not fit the batch,
    /// or a correlation id that matches no batch still in flight
    /// ([`NetError::Correlation`]); the stream stays in step either way.
    fn recv(&mut self) -> Result<Result<(), NetError>, NetError> {
        let client = &mut *self.client;
        fill(&mut client.stream, &mut client.reader, &mut client.recv)?;
        let Some((ty, body)) = client.reader.peek_frame()? else {
            return Err(NetError::Protocol("peeked frame vanished".to_string()));
        };
        if ty != TYPE_ANSWER_PIPELINED {
            // Cold path: owned decode for ERROR or stray frames.
            return Err(match client.reader.next_frame()? {
                Some(Frame::Error { message }) => NetError::Query(message),
                _ => NetError::Protocol(format!("expected ANSWER3, got frame type {ty}")),
            });
        }
        let Some(&[a, b, c, d]) = body.get(..4) else {
            return Err(NetError::Protocol(
                "ANSWER3 body too short for correlation id".to_string(),
            ));
        };
        let corr = u32::from_le_bytes([a, b, c, d]);
        let outcome = match self.inflight.remove(&corr) {
            Some(slot) => {
                AnswerBatchView::parse(&body[4..]).and_then(|view| self.sink.file(slot, view))
            }
            // Unknown or already-answered correlation id: the frame is
            // consumed, framing is intact, the session continues.
            None => Err(NetError::Correlation(corr)),
        };
        client.reader.consume_frame();
        Ok(outcome)
    }
}

/// Parses a chain-of answer body: `u32` count, then the ids.
fn parse_chain_body(body: &[u8]) -> Result<Vec<u32>, NetError> {
    if body.len() < 4 {
        return Err(NetError::Protocol("truncated chain answer".to_string()));
    }
    let count = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
    if body.len() != 4 + 4 * count {
        return Err(NetError::Protocol(format!(
            "chain answer declares {count} ids but carries {} bytes",
            body.len()
        )));
    }
    Ok(body[4..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;
    use synctime_core::VectorTime;

    fn diamond() -> MessageTimestamps {
        // m0 < m1, m0 < m2, m1 ∥ m2, m1 < m3, m2 < m3.
        MessageTimestamps::new(vec![
            VectorTime::from(vec![1, 0]),
            VectorTime::from(vec![2, 0]),
            VectorTime::from(vec![1, 1]),
            VectorTime::from(vec![2, 2]),
        ])
    }

    #[test]
    fn service_answers_all_kinds() {
        let stamps = diamond();
        let answer = |kind, m1, m2| answer_query(&stamps, kind, m1, m2);
        assert_eq!(answer(QUERY_PRECEDES, 0, 1).unwrap(), vec![1]);
        assert_eq!(answer(QUERY_PRECEDES, 1, 0).unwrap(), vec![0]);
        assert_eq!(answer(QUERY_CONCURRENT, 1, 2).unwrap(), vec![1]);
        assert_eq!(answer(QUERY_CONCURRENT, 0, 3).unwrap(), vec![0]);
        let chain = answer(QUERY_CHAIN_OF, 1, 0).unwrap();
        // m1's ordered set: m0 < m1 < m3 (m2 is concurrent with m1).
        assert_eq!(chain[..4], 3u32.to_le_bytes());
        assert!(answer(QUERY_PRECEDES, 0, 99).is_err());
        assert!(answer(77, 0, 1).is_err());
    }

    #[test]
    fn server_and_client_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fabric = Arc::new(QueryFabric::single(DEFAULT_TRACE_NAME, diamond()));
        std::thread::spawn(move || {
            let _ = crate::pool::serve_fabric(listener, fabric, 2);
        });
        let mut client = QueryClient::connect(&addr.to_string()).unwrap();
        // A single query is a batch of one; the empty trace id names the
        // catalog's only trace.
        let mut ask = |m1, m2| client.precedes_many_pipelined("", &[(m1, m2)], 1, 1);
        assert_eq!(ask(0, 3).unwrap(), vec![true]);
        assert_eq!(ask(3, 0).unwrap(), vec![false]);
        let err = ask(0, 99).unwrap_err();
        assert!(matches!(err, NetError::Query(_)), "{err}");
        // The connection survives a rejected query.
        assert_eq!(ask(0, 1).unwrap(), vec![true]);
        let mut pipeline = client.pipeline(1);
        pipeline
            .submit(
                DEFAULT_TRACE_NAME,
                &[BatchQuery {
                    kind: QUERY_CONCURRENT,
                    m1: 1,
                    m2: 2,
                }],
            )
            .unwrap();
        assert_eq!(
            pipeline.finish().unwrap(),
            vec![vec![BatchEntry::Answer(vec![1])]]
        );
        assert_eq!(client.chain_of("", 1).unwrap(), vec![0, 1, 3]);
        assert_eq!(
            client.chain_of(DEFAULT_TRACE_NAME, 2).unwrap(),
            vec![0, 2, 3]
        );
        let err = client.chain_of("", 9).unwrap_err();
        assert!(matches!(err, NetError::Query(_)), "{err}");

        // A client speaking the previous protocol version is refused at the
        // handshake with the typed mismatch ERROR.
        let mut old = TcpStream::connect(addr).unwrap();
        old.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION - 1,
                topology_hash: 0,
                process: QUERY_CLIENT_ID,
            }
            .encode()
            .unwrap(),
        )
        .unwrap();
        let mut reader = FrameReader::new();
        let mut buf = [0u8; 4096];
        match read_frame(&mut old, &mut reader, &mut buf).unwrap() {
            Frame::Error { message } => {
                assert!(message.contains("version mismatch"), "{message}");
            }
            other => panic!("expected a version-mismatch ERROR, got {other:?}"),
        }
    }

    /// A client whose stream nobody reads, for driving Pipeline
    /// bookkeeping without a server.
    fn inert_client() -> QueryClient {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let (sink, _) = listener.accept().unwrap();
        // Keep the accepted end alive so writes never see a reset.
        std::mem::forget(sink);
        QueryClient {
            stream,
            reader: FrameReader::new(),
            scratch: FrameScratch::new(),
            recv: vec![0; RECV_BUF_LEN],
        }
    }

    #[test]
    fn submit_skips_correlation_ids_still_in_flight() {
        let mut client = inert_client();
        let mut pipeline = client.pipeline_at(16, 7);
        // Pretend ids 7 and 8 are still unanswered from before a full
        // wrap of the counter.
        pipeline.inflight.insert(7, 1000);
        pipeline.inflight.insert(8, 1001);
        let slot = pipeline.submit("", &[]).unwrap();
        assert_eq!(slot, 0);
        // The fresh submission landed on the first free id, 9.
        assert_eq!(pipeline.inflight.get(&9), Some(&slot));
        assert_eq!(pipeline.next_corr, 10);
    }

    #[test]
    fn finish_reports_a_hole_as_incomplete() {
        let mut client = inert_client();
        let mut pipeline = client.pipeline(4);
        // A slot whose answer never arrived, with nothing outstanding —
        // the defensive hole check must refuse to fabricate results.
        pipeline.sink = Sink::Entries(vec![
            (1, Some(vec![BatchEntry::Answer(vec![1])])),
            (1, None),
        ]);
        match pipeline.finish() {
            Err(NetError::Incomplete { slot }) => assert_eq!(slot, 1),
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }
}
