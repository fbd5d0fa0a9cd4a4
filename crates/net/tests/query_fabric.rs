//! Integration tests for the sharded multi-trace query fabric: lock-step
//! and pipelined QUERY3 clients against a catalog server answer
//! **identically** to the in-process `answer_query`, trace-id failures are
//! recoverable, copy-on-write republish is visible to live connections,
//! and a one-worker pool still serves every connection.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use synctime_core::{MessageTimestamps, VectorTime};
use synctime_net::query::{QUERY_CHAIN_OF, QUERY_CONCURRENT, QUERY_PRECEDES};
use synctime_net::{
    answer_query, serve_fabric, BatchEntry, BatchQuery, NetError, QueryClient, QueryFabric,
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

/// A 5-message chain: m0 < m1 < m2 < m3 < m4.
fn chain() -> MessageTimestamps {
    MessageTimestamps::new(vec![
        VectorTime::from(vec![1]),
        VectorTime::from(vec![2]),
        VectorTime::from(vec![3]),
        VectorTime::from(vec![4]),
        VectorTime::from(vec![5]),
    ])
}

/// Two antichains: m0 ∥ m1, m2 ∥ m3, first pair below second.
fn lattice() -> MessageTimestamps {
    MessageTimestamps::new(vec![
        VectorTime::from(vec![1, 0]),
        VectorTime::from(vec![0, 1]),
        VectorTime::from(vec![2, 1]),
        VectorTime::from(vec![1, 2]),
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

/// Sends `queries` against `trace` as one lock-step QUERY3 batch and
/// returns its entries.
fn ask(
    client: &mut QueryClient,
    trace: &str,
    queries: &[BatchQuery],
) -> Result<Vec<BatchEntry>, NetError> {
    let mut pipeline = client.pipeline(1);
    pipeline.submit(trace, queries)?;
    Ok(pipeline.finish()?.pop().unwrap_or_default())
}

/// The headline acceptance test: every query of every trace, asked (a) as
/// one lock-step QUERY3 batch against the sharded fabric, (b) one query per
/// frame with 16 frames in flight, and (c) locally via `answer_query`,
/// produces byte-identical answer bodies.
#[test]
fn batched_answers_match_sequential_v1_across_shards() {
    let traces: Vec<(&str, MessageTimestamps)> = vec![
        ("diamond", diamond()),
        ("chain", chain()),
        ("lattice", lattice()),
    ];
    let fabric = QueryFabric::new(4);
    for (name, stamps) in &traces {
        fabric.publish(name, stamps.clone());
    }
    // The three traces land on more than one shard (determinism makes this
    // a fixed fact of the placement, asserted so the test title stays honest).
    let shards: std::collections::HashSet<usize> = traces
        .iter()
        .map(|(name, _)| fabric.shard_of(name))
        .collect();
    assert!(shards.len() > 1, "traces all hashed to one shard");
    let fabric_addr = fabric_server(fabric, 2);
    let mut client = QueryClient::connect(&fabric_addr.to_string()).expect("connect");

    for (name, stamps) in &traces {
        // Every (kind, m1, m2) combination over the trace's messages.
        let mut queries = Vec::new();
        for kind in [QUERY_PRECEDES, QUERY_CONCURRENT, QUERY_CHAIN_OF] {
            for m1 in 0..stamps.len() as u32 {
                for m2 in 0..stamps.len() as u32 {
                    queries.push(BatchQuery { kind, m1, m2 });
                }
            }
        }
        // (c) local ground truth, byte for byte.
        let expected: Vec<BatchEntry> = queries
            .iter()
            .map(|q| {
                BatchEntry::Answer(answer_query(stamps, q.kind, q.m1, q.m2).expect("in range"))
            })
            .collect();

        // (a) W=1: the whole set as one lock-step batch.
        let entries = ask(&mut client, name, &queries).expect("lock-step answers");
        assert_eq!(entries, expected, "lock-step batch on {name}");

        // (b) W=16: one query per frame, 16 frames in flight.
        let mut pipeline = client.pipeline(16);
        for q in &queries {
            pipeline.submit(name, &[*q]).expect("submit");
        }
        let entries: Vec<BatchEntry> = pipeline
            .finish()
            .expect("pipelined answers")
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(entries, expected, "pipelined singles on {name}");
    }
}

/// A bad trace id fails every entry of its batch with a diagnostic and
/// leaves the connection usable; a bad message id fails only its own
/// entry.
#[test]
fn trace_and_entry_failures_are_recoverable() {
    let fabric = QueryFabric::new(4);
    fabric.publish("a", diamond());
    fabric.publish("b", chain());
    let addr = fabric_server(fabric, 2);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");

    let q = BatchQuery {
        kind: QUERY_PRECEDES,
        m1: 0,
        m2: 1,
    };
    let entries = ask(&mut client, "missing", &[q, q]).unwrap();
    assert_eq!(entries.len(), 2);
    for entry in &entries {
        assert!(
            matches!(entry, BatchEntry::Error(m) if m.contains("unknown trace")),
            "{entry:?}"
        );
    }
    let err = client
        .precedes_many_pipelined("missing", &[(0, 1)], 1, 1)
        .unwrap_err();
    assert!(
        matches!(&err, NetError::Query(m) if m.contains("unknown trace")),
        "{err}"
    );
    // Same connection, valid trace: still answered.
    assert_eq!(
        ask(&mut client, "a", &[q]).unwrap(),
        vec![BatchEntry::Answer(vec![1])]
    );

    // Entry-level failure: out-of-range id poisons one entry, not the batch.
    let entries = ask(
        &mut client,
        "b",
        &[
            q,
            BatchQuery {
                kind: QUERY_PRECEDES,
                m1: 0,
                m2: 999,
            },
        ],
    )
    .unwrap();
    assert_eq!(entries[0], BatchEntry::Answer(vec![1]));
    assert!(matches!(&entries[1], BatchEntry::Error(m) if m.contains("out of range")));

    // The client calls route through the same trace ids.
    let concurrent = BatchQuery {
        kind: QUERY_CONCURRENT,
        m1: 1,
        m2: 2,
    };
    assert_eq!(
        ask(&mut client, "a", &[concurrent]).unwrap(),
        vec![BatchEntry::Answer(vec![1])]
    );
    assert_eq!(client.chain_of("a", 1).unwrap(), vec![0, 1, 3]);
    assert_eq!(
        client
            .precedes_many_pipelined("b", &[(0, 1), (1, 0), (2, 4)], 2, 2)
            .unwrap(),
        vec![true, false, true]
    );
}

/// A query with the empty trace id is only answerable when the catalog
/// has exactly one trace; against a multi-trace catalog it is refused with
/// a diagnostic naming the trace count.
#[test]
fn v1_queries_need_an_unambiguous_default_trace() {
    let fabric = QueryFabric::new(4);
    fabric.publish("a", diamond());
    fabric.publish("b", chain());
    let addr = fabric_server(fabric, 2);
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    let err = client
        .precedes_many_pipelined("", &[(0, 1)], 1, 1)
        .unwrap_err();
    assert!(
        matches!(&err, NetError::Query(m) if m.contains("2 traces")),
        "{err}"
    );
    // Naming the trace works on the same connection.
    assert_eq!(
        client
            .precedes_many_pipelined("a", &[(0, 1)], 1, 1)
            .expect("named trace"),
        vec![true]
    );
}

/// Republishing a trace while the server is live (copy-on-write) changes
/// the answers new queries see, without restarting anything.
#[test]
fn republish_is_visible_to_live_connections() {
    let fabric = Arc::new(QueryFabric::new(2));
    fabric.publish("t", chain());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let serving = Arc::clone(&fabric);
    std::thread::spawn(move || {
        let _ = serve_fabric(listener, serving, 2);
    });
    let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
    // chain(): m0 < m1.
    assert_eq!(
        client
            .precedes_many_pipelined("t", &[(0, 1)], 1, 1)
            .unwrap(),
        vec![true]
    );
    // Republish with lattice(): m0 ∥ m1 now.
    fabric.publish("t", lattice());
    assert_eq!(
        client
            .precedes_many_pipelined("t", &[(0, 1)], 1, 1)
            .unwrap(),
        vec![false]
    );
    let concurrent = BatchQuery {
        kind: QUERY_CONCURRENT,
        m1: 0,
        m2: 1,
    };
    assert_eq!(
        ask(&mut client, "t", &[concurrent]).unwrap(),
        vec![BatchEntry::Answer(vec![1])]
    );
}

/// A one-worker pool serves connections to completion, one after another —
/// nothing deadlocks and nothing is dropped.
#[test]
fn single_worker_pool_serves_sequential_connections() {
    let fabric = QueryFabric::new(1);
    fabric.publish("t", diamond());
    let addr = fabric_server(fabric, 1);
    for _ in 0..3 {
        let mut client = QueryClient::connect(&addr.to_string()).expect("connect");
        assert_eq!(
            client
                .precedes_many_pipelined("t", &[(0, 3)], 1, 1)
                .unwrap(),
            vec![true]
        );
        // Dropping the client closes the socket and frees the worker.
    }
}
