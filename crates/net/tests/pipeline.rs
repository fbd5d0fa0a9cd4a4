//! Integration and property tests for the pipelined query path:
//! out-of-order ANSWER3 frames with shuffled correlation ids reassemble
//! into exactly what lock-step QUERY3 batches return, an unknown
//! correlation id is a typed, recoverable error that leaves the
//! connection alive, an answer with the wrong entry count frees its slot,
//! and batch chunking at exact `MAX_BATCH` multiples sends no phantom
//! trailing frame.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use synctime_core::{MessageTimestamps, VectorTime};
use synctime_net::query::{QUERY_CHAIN_OF, QUERY_CONCURRENT, QUERY_PRECEDES};
use synctime_net::{
    answer_query, serve_fabric, BatchEntry, BatchQuery, Frame, FrameReader, NetError, QueryClient,
    QueryFabric, MAX_BATCH, PROTOCOL_VERSION,
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

/// An 8-message chain: m_i < m_j iff i < j.
fn chain() -> MessageTimestamps {
    MessageTimestamps::new((1..=8).map(|i| VectorTime::from(vec![i])).collect())
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

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic Fisher-Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Answers one HELLO and returns the reader (which may have buffered past
/// the handshake).
fn mock_handshake(stream: &mut TcpStream) -> FrameReader {
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 16384];
    loop {
        match reader.next_frame().expect("handshake frame") {
            Some(Frame::Hello { .. }) => break,
            Some(other) => panic!("expected HELLO, got {other:?}"),
            None => {
                let n = stream.read(&mut buf).expect("handshake read");
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
    reader
}

/// A mock query server that answers deliberately out of order. Each
/// entry of `rounds` is a count of QUERY3 frames to collect before
/// answering them all, in the order `permutation(count, seed)`. Before the *first*
/// round's answers, it injects one stray ANSWER3 per entry of
/// `stray_corrs` — correlation ids matching no request.
fn shuffled_answer_server(
    stamps: MessageTimestamps,
    rounds: Vec<usize>,
    seed: u64,
    stray_corrs: Vec<u32>,
) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = mock_handshake(&mut stream);
        let mut buf = [0u8; 16384];
        let mut strays = Some(stray_corrs);
        for expect in rounds {
            let mut batches: Vec<(u32, Vec<BatchEntry>)> = Vec::new();
            while batches.len() < expect {
                match reader.next_frame().expect("query frame") {
                    Some(Frame::QueryPipelined {
                        corr,
                        trace: _,
                        queries,
                    }) => {
                        let entries = queries
                            .iter()
                            .map(|q| match answer_query(&stamps, q.kind, q.m1, q.m2) {
                                Ok(body) => BatchEntry::Answer(body),
                                Err(NetError::Query(detail)) => BatchEntry::Error(detail),
                                Err(e) => BatchEntry::Error(e.to_string()),
                            })
                            .collect();
                        batches.push((corr, entries));
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
            for corr in strays.take().into_iter().flatten() {
                stream
                    .write_all(
                        &Frame::AnswerPipelined {
                            corr,
                            entries: vec![BatchEntry::Answer(vec![1])],
                        }
                        .encode()
                        .expect("stray encodes"),
                    )
                    .expect("stray answer");
            }
            for &slot in &permutation(batches.len(), seed) {
                let (corr, entries) = batches[slot].clone();
                stream
                    .write_all(
                        &Frame::AnswerPipelined { corr, entries }
                            .encode()
                            .expect("answer encodes"),
                    )
                    .expect("answer");
            }
        }
        // Keep the socket open until the client hangs up, so nothing the
        // client still wants to read is lost to a RST.
        let _ = stream.read(&mut buf);
    });
    addr
}

/// Pipelined answers against the *real* fabric server match the
/// lock-step path and the in-process answers, at every window width.
#[test]
fn pipelined_bools_match_v2_on_a_live_fabric() {
    let stamps = chain();
    let fabric = QueryFabric::new(4);
    fabric.publish("t", stamps.clone());
    let addr = fabric_server(fabric, 1);

    let mut pairs = Vec::new();
    for m1 in 0..stamps.len() as u32 {
        for m2 in 0..stamps.len() as u32 {
            pairs.push((m1, m2));
        }
    }
    let expected: Vec<bool> = pairs
        .iter()
        .map(|&(m1, m2)| answer_query(&stamps, QUERY_PRECEDES, m1, m2).expect("in range") == [1])
        .collect();
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    // Lock-step: the whole set in one frame.
    let lock_step = client
        .precedes_many_pipelined("t", &pairs, MAX_BATCH, 1)
        .expect("lock-step answers");
    assert_eq!(lock_step, expected);
    for window in [1, 4, 16] {
        let got = client
            .precedes_many_pipelined("t", &pairs, 5, window)
            .expect("pipelined answers");
        assert_eq!(got, expected, "window {window}");
    }
}

/// An unknown correlation id surfaces as the typed
/// [`NetError::Correlation`] and the connection stays alive: draining
/// again completes the real batches, and a *second* pipeline on the same
/// connection works.
#[test]
fn unknown_correlation_id_is_typed_and_recoverable() {
    let stamps = diamond();
    // Two submits per pipeline session, strays injected before the first
    // session's answers.
    let addr = shuffled_answer_server(stamps, vec![2, 2], 7, vec![999, 2]);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    let queries = [
        BatchQuery {
            kind: QUERY_PRECEDES,
            m1: 0,
            m2: 3,
        },
        BatchQuery {
            kind: QUERY_PRECEDES,
            m1: 3,
            m2: 0,
        },
    ];

    let mut pipeline = client.pipeline(8);
    assert_eq!(pipeline.submit("t", &queries[..1]).expect("submit"), 0);
    assert_eq!(pipeline.submit("t", &queries[1..]).expect("submit"), 1);
    // Stray corr 999: never issued. Stray corr 2: not in flight (only
    // slots 0 and 1 exist). Both are typed and each consumes one frame.
    assert!(matches!(pipeline.drain(), Err(NetError::Correlation(999))));
    assert!(matches!(pipeline.drain(), Err(NetError::Correlation(2))));
    let results = pipeline.finish().expect("recovered finish");
    assert_eq!(results[0], vec![BatchEntry::Answer(vec![1])]);
    assert_eq!(results[1], vec![BatchEntry::Answer(vec![0])]);

    // Same connection, fresh pipeline: still serviceable.
    let mut again = client.pipeline(2);
    again.submit("t", &queries[..1]).expect("submit again");
    again.submit("t", &queries[1..]).expect("submit again");
    let results = again.finish().expect("second session");
    assert_eq!(results[0], vec![BatchEntry::Answer(vec![1])]);
    assert_eq!(results[1], vec![BatchEntry::Answer(vec![0])]);
}

/// A mock server that answers its first QUERY3 with one entry more than
/// the batch asked, then holds the socket open for `hold` before closing.
fn wrong_count_server(hold: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = mock_handshake(&mut stream);
        let mut buf = [0u8; 16384];
        let (corr, queries) = loop {
            match reader.next_frame().expect("query frame") {
                Some(Frame::QueryPipelined { corr, queries, .. }) => break (corr, queries),
                Some(other) => panic!("expected QUERY3, got {other:?}"),
                None => {
                    let n = stream.read(&mut buf).expect("read");
                    assert!(n > 0, "client closed before its query");
                    reader.feed(&buf[..n]);
                }
            }
        };
        let entries = vec![BatchEntry::Answer(vec![1]); queries.len() + 1];
        stream
            .write_all(
                &Frame::AnswerPipelined { corr, entries }
                    .encode()
                    .expect("answer encodes"),
            )
            .expect("answer");
        std::thread::sleep(hold);
    });
    addr
}

/// An answer whose entry count does not fit its batch frees the batch's
/// slot: the drain that reads it fails with a protocol error, the next
/// drain has nothing left to wait for and returns at once, and `finish`
/// reports the slot as a hole. When the slot stayed counted as in flight,
/// the second drain blocked until the server hung up.
#[test]
fn wrong_entry_count_frees_its_slot() {
    let hold = Duration::from_secs(2);
    let addr = wrong_count_server(hold);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    let mut pipeline = client.pipeline(1);
    let query = BatchQuery {
        kind: QUERY_PRECEDES,
        m1: 0,
        m2: 1,
    };
    assert_eq!(pipeline.submit("t", &[query]).expect("submit"), 0);
    let err = pipeline.drain().unwrap_err();
    assert!(matches!(err, NetError::Protocol(_)), "{err}");
    let started = Instant::now();
    pipeline.drain().expect("nothing is left in flight");
    assert!(
        started.elapsed() < hold / 2,
        "the second drain waited {:?} for an answer it had already read",
        started.elapsed()
    );
    assert_eq!(pipeline.pending(), 0);
    match pipeline.finish() {
        Err(NetError::Incomplete { slot: 0 }) => {}
        other => panic!("expected Incomplete {{ slot: 0 }}, got {other:?}"),
    }
}

/// Chunking regression: batches of exactly `MAX_BATCH` and exactly
/// `2 * MAX_BATCH` queries round-trip with one entry per query (the seed
/// bug sent a phantom trailing frame at exact multiples, desynchronising
/// the stream). An empty batch still validates its trace id.
#[test]
fn batch_chunking_at_exact_max_batch_multiples() {
    let stamps = diamond();
    let fabric = QueryFabric::new(2);
    fabric.publish("t", stamps.clone());
    let addr = fabric_server(fabric, 1);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");

    for total in [MAX_BATCH, 2 * MAX_BATCH] {
        let pairs: Vec<(u32, u32)> = (0..total)
            .map(|i| ((i % 4) as u32, ((i / 4) % 4) as u32))
            .collect();
        let verdicts = client
            .precedes_many_pipelined("t", &pairs, MAX_BATCH, 1)
            .expect("exact-multiple batch");
        assert_eq!(verdicts.len(), total);
        for (&(m1, m2), verdict) in pairs.iter().zip(verdicts) {
            let expected = answer_query(&stamps, QUERY_PRECEDES, m1, m2).expect("in range");
            assert_eq!(expected, [u8::from(verdict)], "m{m1} -> m{m2}");
        }
        // The connection is still framed correctly after the exact
        // multiple: a follow-up single query answers.
        assert_eq!(
            client
                .precedes_many_pipelined("t", &[(0, 3)], 1, 1)
                .expect("still in sync"),
            vec![true]
        );
    }

    // No pairs, no frames: nothing to answer.
    assert_eq!(
        client
            .precedes_many_pipelined("t", &[], MAX_BATCH, 1)
            .expect("empty call"),
        Vec::<bool>::new()
    );
    // A bad trace id fails the call, and the connection stays in sync.
    let err = client
        .precedes_many_pipelined("missing", &[(0, 1)], MAX_BATCH, 1)
        .unwrap_err();
    assert!(
        matches!(&err, NetError::Query(m) if m.contains("unknown trace")),
        "{err}"
    );
    assert_eq!(
        client
            .precedes_many_pipelined("t", &[(0, 3)], 1, 1)
            .expect("still in sync"),
        vec![true]
    );
}

prop_compose! {
    /// A query over the 4-message diamond, with ids ranging past the
    /// trace (0..6) so some entries fail and carry error bodies.
    fn arb_query()(k in 0u8..4, m1 in 0u32..6, m2 in 0u32..6) -> BatchQuery {
        BatchQuery {
            kind: match k {
                0 => QUERY_PRECEDES,
                1 => QUERY_CONCURRENT,
                _ => QUERY_CHAIN_OF,
            },
            m1,
            m2,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Out-of-order ANSWER3 reassembly: batches answered in a shuffled
    /// order by a mock server produce exactly the entries sequential
    /// lock-step batches produce against the real fabric — including
    /// error entries for out-of-range ids.
    #[test]
    fn shuffled_answers_reassemble_like_sequential_v2(
        shuffle_seed in any::<u64>(),
        window in 1usize..10,
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_query(), 1..5),
            1..7,
        ),
    ) {
        let stamps = diamond();

        // Ground truth: sequential lock-step batches against the real
        // fabric, each checked against the in-process answers.
        let fabric = QueryFabric::new(2);
        fabric.publish("t", stamps.clone());
        let lock_step_addr = fabric_server(fabric, 1);
        let mut lock_step =
            QueryClient::connect(&lock_step_addr.to_string()).expect("connect lock-step");
        let mut expected: Vec<Vec<BatchEntry>> = Vec::new();
        for batch in &batches {
            let mut pipeline = lock_step.pipeline(1);
            pipeline.submit("t", batch).expect("lock-step submit");
            let entries = pipeline
                .finish()
                .expect("lock-step batch")
                .pop()
                .expect("one batch");
            for (q, entry) in batch.iter().zip(&entries) {
                match answer_query(&stamps, q.kind, q.m1, q.m2) {
                    Ok(body) => prop_assert_eq!(entry, &BatchEntry::Answer(body)),
                    Err(_) => prop_assert!(matches!(entry, BatchEntry::Error(_))),
                }
            }
            expected.push(entries);
        }

        // Pipelined against the shuffling mock. The window must admit
        // every batch before any answer is read, because the mock only
        // answers once it holds all of them.
        let window = window.max(batches.len());
        let addr = shuffled_answer_server(stamps, vec![batches.len()], shuffle_seed, vec![]);
        let mut client = QueryClient::connect(&addr.to_string()).expect("connect pipelined");
        let mut pipeline = client.pipeline(window);
        for (i, batch) in batches.iter().enumerate() {
            prop_assert_eq!(pipeline.submit("t", batch).expect("submit"), i);
        }
        let got = pipeline.finish().expect("finish");
        prop_assert_eq!(got, expected);
    }
}
