//! Regression tests for four serving-path bugs:
//!
//! 1. pipelined correlation ids were the slot index cast to `u32`, so a
//!    session past 2^32 submissions wrapped onto a still-meaningful id —
//!    ids are now a wrapping counter that skips in-flight ids;
//! 2. `Pipeline::finish` papered over an unanswered slot with an empty
//!    entry list — it now returns a typed `NetError::Incomplete`;
//! 3. a QUERY3 trace id longer than 65535 bytes was silently truncated by
//!    the `u16` length cast — now a typed error on the encode path,
//!    mirrored by a decode-side cap;
//! 4. a failed `precedes_many_pipelined` call returned while its other
//!    batches were still in flight, so their answers stayed in the stream
//!    and the next call on the client took them for its own — a failed
//!    call now drains every answer it is owed before returning.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use synctime_core::{MessageTimestamps, VectorTime};
use synctime_net::query::QUERY_PRECEDES;
use synctime_net::{
    encode_query_batch_into, serve_fabric, BatchEntry, BatchQuery, Frame, FrameReader, NetError,
    QueryBatchView, QueryClient, QueryFabric, MAX_TRACE_NAME, PROTOCOL_VERSION,
};

/// m0 < m1, m0 < m2, m1 ∥ m2, m1 < m3, m2 < m3.
fn diamond() -> MessageTimestamps {
    MessageTimestamps::new(vec![
        VectorTime::from(vec![1, 0]),
        VectorTime::from(vec![2, 0]),
        VectorTime::from(vec![1, 1]),
        VectorTime::from(vec![2, 2]),
    ])
}

fn fabric_server(fabric: QueryFabric, workers: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let fabric = Arc::new(fabric);
    std::thread::spawn(move || {
        let _ = serve_fabric(listener, fabric, workers);
    });
    addr
}

/// Correlation ids survive crossing `u32::MAX`: a pipeline started three
/// ids shy of the wrap point submits well past it against a live server,
/// and every slot still reassembles to the right answer. Under the old
/// slot-index scheme the ids after the wrap would collide with slots 0..3
/// and the session would desynchronise.
#[test]
fn correlation_ids_survive_u32_wraparound() {
    let fabric = QueryFabric::new(2);
    fabric.publish("d", diamond());
    let addr = fabric_server(fabric, 2);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    let mut pipeline = client.pipeline_at(3, u32::MAX - 2);
    // Truth for (i, i+1 mod 4) precedes queries on the diamond.
    let pairs: [(u32, u32, bool); 4] = [(0, 1, true), (1, 2, false), (2, 3, true), (3, 0, false)];
    let mut slots = Vec::new();
    for _round in 0..2 {
        for &(m1, m2, _) in &pairs {
            let slot = pipeline
                .submit(
                    "d",
                    &[BatchQuery {
                        kind: QUERY_PRECEDES,
                        m1,
                        m2,
                    }],
                )
                .expect("submit across the wrap");
            // Slots keep counting past the id wrap.
            assert_eq!(slot, slots.len());
            slots.push(slot);
        }
    }
    let results = pipeline.finish().expect("finish");
    assert_eq!(results.len(), 8);
    for (i, slot) in slots.iter().enumerate() {
        let expect = pairs[i % 4].2;
        assert_eq!(
            results[*slot],
            vec![BatchEntry::Answer(vec![u8::from(expect)])],
            "slot {slot} answered wrong across the wrap"
        );
    }
}

/// A mock v3 server that answers every QUERY3 *except* the one whose
/// correlation id equals `withhold`, then closes the connection.
fn withholding_server(stamps: MessageTimestamps, withhold: u32, expect: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new();
        let mut buf = [0u8; 16384];
        // Handshake: wait for the client HELLO, answer with ours.
        loop {
            match reader.next_frame().expect("handshake frame") {
                Some(Frame::Hello { .. }) => break,
                Some(other) => panic!("expected HELLO, got {other:?}"),
                None => {
                    let n = stream.read(&mut buf).expect("read");
                    assert!(n > 0, "client closed during handshake");
                    reader.feed(&buf[..n]);
                }
            }
        }
        stream
            .write_all(
                &Frame::Hello {
                    version: PROTOCOL_VERSION,
                    topology_hash: 0,
                    process: u32::MAX,
                }
                .encode()
                .expect("HELLO encodes"),
            )
            .expect("handshake reply");
        let mut seen = 0usize;
        while seen < expect {
            match reader.next_frame().expect("query frame") {
                Some(Frame::QueryPipelined {
                    corr,
                    trace: _,
                    queries,
                }) => {
                    seen += 1;
                    if corr == withhold {
                        continue; // swallow this batch: no ANSWER3 ever
                    }
                    let entries = queries
                        .iter()
                        .map(|q| {
                            synctime_net::answer_query(&stamps, q.kind, q.m1, q.m2)
                                .map(BatchEntry::Answer)
                                .unwrap_or_else(|e| BatchEntry::Error(e.to_string()))
                        })
                        .collect();
                    stream
                        .write_all(
                            &Frame::AnswerPipelined { corr, entries }
                                .encode()
                                .expect("answer encodes"),
                        )
                        .expect("answer");
                }
                Some(other) => panic!("expected QUERY3, got {other:?}"),
                None => {
                    let n = stream.read(&mut buf).expect("read");
                    if n == 0 {
                        return;
                    }
                    reader.feed(&buf[..n]);
                }
            }
        }
        // Close without answering the withheld batch.
    });
    addr
}

/// A server that never answers one in-flight batch produces a typed
/// error from `finish`, never a fabricated empty entry list. (The old
/// code's `unwrap_or_default` would have returned `vec![]` for the hole
/// and misaligned every later slot against its queries.)
#[test]
fn withheld_answer_is_a_typed_error_not_an_empty_result() {
    let addr = withholding_server(diamond(), 1, 3);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    let mut pipeline = client.pipeline(8);
    let q = |m1, m2| BatchQuery {
        kind: QUERY_PRECEDES,
        m1,
        m2,
    };
    pipeline.submit("", &[q(0, 1)]).expect("submit 0");
    pipeline
        .submit("", &[q(1, 2)])
        .expect("submit 1 (withheld)");
    pipeline.submit("", &[q(2, 3)]).expect("submit 2");
    match pipeline.finish() {
        Ok(results) => panic!("finish fabricated {results:?} despite a withheld answer"),
        // The server hangs up after the answered batches, so the drain
        // hits the close while slot 1 is still unanswered.
        Err(NetError::Closed) | Err(NetError::Incomplete { slot: 1 }) => {}
        Err(other) => panic!("expected Closed or Incomplete {{ slot: 1 }}, got {other}"),
    }
}

/// Oversized trace ids are refused with a typed error everywhere they
/// could enter the wire — batch and pipelined clients, the owned frame
/// encoder, and the decode path — instead of being truncated by the
/// `u16` length cast (the original bug: a 65537-byte name encoded a
/// 1-byte length and desynchronised the frame).
#[test]
fn oversized_trace_ids_are_typed_errors_on_every_path() {
    let long = "t".repeat(MAX_TRACE_NAME + 1);

    // Encode helper: typed error, nothing appended.
    let mut out = Vec::new();
    match encode_query_batch_into(&mut out, Some(7), &long, &[]) {
        Err(NetError::Query(detail)) => assert!(detail.contains("bound"), "{detail}"),
        other => panic!("expected a typed Query error, got {other:?}"),
    }
    assert!(out.is_empty(), "error path appended bytes");
    // Every query frame carries a correlation id: none is a typed error.
    assert!(matches!(
        encode_query_batch_into(&mut out, None, "d", &[]),
        Err(NetError::Query(_))
    ));
    assert!(out.is_empty(), "error path appended bytes");

    // Owned frame encoder.
    assert!(matches!(
        Frame::QueryPipelined {
            corr: 7,
            trace: long.clone(),
            queries: vec![],
        }
        .encode(),
        Err(NetError::Query(_))
    ));

    // Client entry points.
    let fabric = QueryFabric::new(1);
    fabric.publish("d", diamond());
    let addr = fabric_server(fabric, 1);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    assert!(matches!(
        client.precedes_many_pipelined(&long, &[(0, 1)], 16, 4),
        Err(NetError::Query(_))
    ));
    assert!(matches!(client.chain_of(&long, 0), Err(NetError::Query(_))));
    let mut pipeline = client.pipeline(2);
    assert!(matches!(
        pipeline.submit(&long, &[]),
        Err(NetError::Query(_))
    ));
    drop(pipeline);

    // The connection survived every refusal: an in-bounds batch works.
    assert_eq!(
        client
            .precedes_many_pipelined("d", &[(0, 1)], 1, 1)
            .expect("in-bounds batch after refusals"),
        vec![true]
    );

    // Decode-side mirror: a hand-built body declaring an oversized trace
    // length is a protocol violation, not an allocation.
    let mut body = Vec::new();
    body.extend_from_slice(&(MAX_TRACE_NAME as u16 + 1).to_le_bytes());
    body.resize(2 + MAX_TRACE_NAME + 1 + 4, b't');
    assert!(matches!(
        QueryBatchView::parse(&body),
        Err(NetError::Protocol(_))
    ));
}

/// A long-but-in-bounds trace id round-trips unharmed — the cap is
/// exactly [`MAX_TRACE_NAME`], not an accidental tighter bound.
#[test]
fn max_length_trace_id_round_trips() {
    let name = "n".repeat(MAX_TRACE_NAME);
    let fabric = QueryFabric::new(1);
    fabric.publish(&name, diamond());
    let addr = fabric_server(fabric, 1);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    let verdicts = client
        .precedes_many_pipelined(&name, &[(0, 3)], 1, 1)
        .expect("max-length trace id");
    assert_eq!(verdicts, vec![true]);
}

/// A failed pipelined call leaves nothing behind for the next one. The
/// first call's batch 0 is rejected while batches 1–3 are still in
/// flight; the old code returned at once, and the second call — whose
/// correlation ids start at 0 again — took those three stray `true`
/// answers for its own and returned `[false, true, true, true]`.
#[test]
fn failed_pipelined_call_does_not_desync_the_next() {
    // An 8-message chain: m_i < m_j iff i < j.
    let chain = MessageTimestamps::new((1..=8).map(|i| VectorTime::from(vec![i])).collect());
    let addr = fabric_server(QueryFabric::single("c", chain), 1);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    match client.precedes_many_pipelined("c", &[(0, 99), (0, 7), (0, 7), (0, 7)], 1, 4) {
        Err(NetError::Query(detail)) => {
            assert!(detail.contains("message 99 out of range"), "{detail}");
        }
        other => panic!("expected the out-of-range rejection, got {other:?}"),
    }
    let verdicts = client
        .precedes_many_pipelined("c", &[(7, 0); 4], 1, 4)
        .expect("second call");
    assert_eq!(verdicts, vec![false; 4]);
}
