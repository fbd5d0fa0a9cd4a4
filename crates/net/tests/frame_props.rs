//! Property tests for the frame protocol: whatever TCP does to packet
//! boundaries, an encoded frame sequence decodes back exactly; whatever a
//! desynchronised stream looks like, the decoder errors instead of
//! misparsing or panicking.

use proptest::prelude::*;
use synctime_net::{
    BatchEntry, BatchQuery, Frame, FrameReader, NetError, MAX_BATCH, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};

prop_compose! {
    fn arb_batch_query()(kind in any::<u8>(), m1 in any::<u32>(), m2 in any::<u32>())
        -> BatchQuery {
        BatchQuery { kind, m1, m2 }
    }
}

prop_compose! {
    fn arb_batch_entry()(
        is_error in any::<bool>(),
        bytes in collection::vec(any::<u8>(), 0..24),
    ) -> BatchEntry {
        if is_error {
            // Printable ASCII keeps the message valid UTF-8.
            BatchEntry::Error(bytes.iter().map(|b| char::from(b % 94 + 32)).collect())
        } else {
            BatchEntry::Answer(bytes)
        }
    }
}

prop_compose! {
    fn arb_frame()(
        tag in 0u8..7,
        key in any::<u64>(),
        payload in any::<u64>(),
        bytes in collection::vec(any::<u8>(), 0..80),
        version in any::<u16>(),
        hash in any::<u64>(),
        process in any::<u32>(),
        corr in any::<u32>(),
        queries in collection::vec(arb_batch_query(), 0..16),
        entries in collection::vec(arb_batch_entry(), 0..16),
    ) -> Frame {
        match tag {
            0 => Frame::Hello { version, topology_hash: hash, process },
            1 => Frame::Offer { key, payload, vector: bytes },
            2 => Frame::Ack { key, ack: bytes },
            3 => Frame::Resync { key },
            4 => Frame::QueryPipelined {
                corr,
                // Printable ASCII keeps the trace id valid UTF-8.
                trace: bytes.iter().take(24).map(|b| char::from(b % 94 + 32)).collect(),
                queries,
            },
            5 => Frame::AnswerPipelined { corr, entries },
            // Printable ASCII keeps the message valid UTF-8.
            _ => Frame::Error {
                message: bytes.iter().map(|b| char::from(b % 94 + 32)).collect(),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encode a frame sequence, re-chunk the byte stream at arbitrary
    /// boundaries (as TCP may), and decode: the exact sequence comes back.
    #[test]
    fn chunked_streams_decode_exactly(
        frames in collection::vec(arb_frame(), 1..12),
        cuts in collection::vec(1usize..64, 0..40),
    ) {
        let stream: Vec<u8> = frames
            .iter()
            .flat_map(|f| f.encode().expect("arbitrary frame encodes"))
            .collect();
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        let mut rest = stream.as_slice();
        // Feed in the arbitrary chunk sizes, draining after every feed to
        // exercise every partial-frame state.
        for cut in cuts {
            if rest.is_empty() {
                break;
            }
            let take = cut.min(rest.len());
            reader.feed(&rest[..take]);
            rest = &rest[take..];
            while let Some(f) = reader.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        reader.feed(rest);
        while let Some(f) = reader.next_frame().unwrap() {
            decoded.push(f);
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(reader.pending_bytes(), 0);
    }

    /// A frame re-decodes from its own encoding in one shot.
    #[test]
    fn single_frame_roundtrip(frame in arb_frame()) {
        let mut reader = FrameReader::new();
        reader.feed(&frame.encode().expect("arbitrary frame encodes"));
        prop_assert_eq!(reader.next_frame().unwrap(), Some(frame));
        prop_assert_eq!(reader.next_frame().unwrap(), None);
    }

    /// Arbitrary garbage either waits for more bytes or errors with a
    /// protocol diagnostic — it never panics and never yields errors of
    /// the wrong kind.
    #[test]
    fn garbage_never_panics(bytes in collection::vec(any::<u8>(), 0..200)) {
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        // Drain until quiescent; every outcome is acceptable except panic.
        for _ in 0..10 {
            match reader.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(NetError::Protocol(_)) => break,
                Err(other) => prop_assert!(false, "unexpected error variant: {other}"),
            }
        }
    }

    /// Truncated bodies for the fixed-size frame types are rejected, not
    /// zero-filled (HELLO needs 14 bytes, OFFER 16, ACK 8, RESYNC 8 — all
    /// more than 7).
    #[test]
    fn truncated_fixed_bodies_error(ty in 0u8..4, body_len in 0usize..7) {
        let mut raw = Vec::new();
        raw.extend_from_slice(&(1 + body_len as u32).to_le_bytes());
        raw.push(ty);
        raw.extend_from_slice(&vec![0u8; body_len]);
        let mut reader = FrameReader::new();
        reader.feed(&raw);
        prop_assert!(matches!(reader.next_frame(), Err(NetError::Protocol(_))));
    }

    /// Length prefixes beyond the bound are rejected before any body bytes
    /// arrive.
    #[test]
    fn oversized_prefix_rejected(extra in 1u32..1000) {
        let mut reader = FrameReader::new();
        reader.feed(&(MAX_FRAME_LEN + extra).to_le_bytes());
        prop_assert!(matches!(reader.next_frame(), Err(NetError::Protocol(_))));
    }

    /// Truncating a batch frame's body (with the length prefix rewritten to
    /// match, as a buggy or malicious peer would send it) is always a
    /// protocol error: the declared trace length and query/entry counts no
    /// longer fit the bytes present.
    #[test]
    fn truncated_batch_bodies_error(
        queries in collection::vec(arb_batch_query(), 1..8),
        entries in collection::vec(arb_batch_entry(), 1..8),
        cut in 1usize..200,
        which in any::<bool>(),
    ) {
        let full = if which {
            Frame::QueryPipelined { corr: 7, trace: "trace-a".to_string(), queries }
                .encode()
                .unwrap()
        } else {
            Frame::AnswerPipelined { corr: 7, entries }.encode().unwrap()
        };
        let body = &full[5..];
        let cut = cut.min(body.len() - 1).max(1);
        let kept = &body[..body.len() - cut];
        let mut raw = Vec::new();
        raw.extend_from_slice(&((kept.len() + 1) as u32).to_le_bytes());
        raw.push(full[4]);
        raw.extend_from_slice(kept);
        let mut reader = FrameReader::new();
        reader.feed(&raw);
        prop_assert!(matches!(reader.next_frame(), Err(NetError::Protocol(_))));
    }

    /// Any declared batch count beyond [`MAX_BATCH`] is rejected from the
    /// count field alone, before the decoder allocates for the entries.
    #[test]
    fn oversized_batch_counts_rejected(extra in 1u32..100_000, which in any::<bool>()) {
        let count = MAX_BATCH as u32 + extra;
        let mut body = 7u32.to_le_bytes().to_vec(); // correlation id
        let ty = if which {
            body.extend_from_slice(&0u16.to_le_bytes()); // empty trace id
            body.extend_from_slice(&count.to_le_bytes());
            9 // QUERY3
        } else {
            body.extend_from_slice(&count.to_le_bytes());
            10 // ANSWER3
        };
        let mut raw = Vec::new();
        raw.extend_from_slice(&((body.len() + 1) as u32).to_le_bytes());
        raw.push(ty);
        raw.extend_from_slice(&body);
        let mut reader = FrameReader::new();
        reader.feed(&raw);
        prop_assert!(matches!(reader.next_frame(), Err(NetError::Protocol(_))));
    }
}

prop_compose! {
    fn arb_raw_query()(kind in 0u8..4, m1 in any::<u32>(), m2 in any::<u32>())
        -> (u8, u32, u32) {
        (kind, m1, m2)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The wire answers are invariant under the clock backend that stamped
    /// the underlying trace: for any query batch (valid ids, out-of-range
    /// ids, and unknown kinds alike), the ANSWER3 frame of the whole batch
    /// and the one-entry ANSWER3 frame of each lone query, built from
    /// `TreeClock`-stamped vectors, are byte-identical to the dense ones.
    #[test]
    fn answer_bodies_invariant_under_clock_backend(
        n in 4usize..8,
        extra in 0usize..4,
        msgs in 2usize..30,
        seed in 0u64..5000,
        raw in collection::vec(arb_raw_query(), 1..16),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use synctime_core::clock::TreeClock;
        use synctime_core::online::{stamp_computation_as, OnlineStamper};
        use synctime_core::MessageTimestamps;
        use synctime_graph::{decompose, topology};
        use synctime_net::answer_query;
        use synctime_sim::workload::RandomWorkload;

        let mut rng = StdRng::seed_from_u64(seed);
        let topo = topology::random_connected(n, extra, &mut rng);
        let comp = RandomWorkload::messages(msgs).generate(&topo, &mut rng);
        let dec = decompose::best_known(&topo);

        // Mix of in-range and out-of-range ids: error entries must be
        // invariant too.
        let bound = comp.message_count() as u32 + 2;
        let queries: Vec<BatchQuery> = raw
            .iter()
            .map(|&(kind, m1, m2)| BatchQuery { kind, m1: m1 % bound, m2: m2 % bound })
            .collect();

        let wire_for = |stamps: &MessageTimestamps| -> (Vec<Vec<u8>>, Vec<u8>) {
            let entries: Vec<BatchEntry> = queries
                .iter()
                .map(|q| match answer_query(stamps, q.kind, q.m1, q.m2) {
                    Ok(body) => BatchEntry::Answer(body),
                    Err(e) => BatchEntry::Error(e.to_string()),
                })
                .collect();
            let singles: Vec<Vec<u8>> = entries
                .iter()
                .map(|e| {
                    Frame::AnswerPipelined { corr: 0, entries: vec![e.clone()] }
                        .encode()
                        .unwrap()
                })
                .collect();
            (singles, Frame::AnswerPipelined { corr: 0, entries }.encode().unwrap())
        };

        let dense = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        let (dense_answers, dense_batch) = wire_for(&dense);

        let tree = stamp_computation_as::<TreeClock>(&dec, &comp).unwrap();
        let (tree_answers, tree_batch) = wire_for(&tree);
        prop_assert_eq!(&tree_answers, &dense_answers, "lone ANSWER3 frames diverged under tree");
        prop_assert_eq!(&tree_batch, &dense_batch, "batch ANSWER3 frame diverged under tree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Served from the flat stamp table, in-range queries answer as the
    /// table's own tests do, and an out-of-range id is refused with the
    /// same error text as before, appending nothing — at every width,
    /// the zero-dimension table included.
    #[test]
    fn flat_table_answers_and_refuses_ids_as_before(
        dim in 0usize..=17,
        len in 0usize..=40,
        components in collection::vec(0u64..3, 17 * 40),
        kind in 0u8..3,
        picks in collection::vec(any::<u32>(), 2),
        beyond in 0u32..1000,
    ) {
        use synctime_core::MessageTimestamps;
        use synctime_net::answer_query_into;
        use synctime_net::query::{QUERY_CHAIN_OF, QUERY_CONCURRENT};
        use synctime_trace::MessageId;

        let table = MessageTimestamps::from_rows(dim, len, components[..dim * len].to_vec());
        let mut out = vec![7u8];
        if len > 0 {
            let (m1, m2) = (picks[0] % len as u32, picks[1] % len as u32);
            answer_query_into(&table, kind, m1, m2, &mut out).expect("in-range query");
            let (a, b) = (MessageId(m1 as usize), MessageId(m2 as usize));
            match kind {
                QUERY_CHAIN_OF => prop_assert!(out.len() >= 1 + 4 + 4),
                QUERY_CONCURRENT => prop_assert_eq!(&out[1..], &[u8::from(table.concurrent(a, b))]),
                _ => prop_assert_eq!(&out[1..], &[u8::from(table.precedes(a, b))]),
            }
            out.truncate(1);
        }
        let out_of_range = len as u32 + beyond;
        let expected = format!("message {out_of_range} out of range (trace has {len} messages)");
        let m1 = if len > 0 { 0 } else { out_of_range };
        let refused = if kind == QUERY_CHAIN_OF {
            answer_query_into(&table, kind, out_of_range, 0, &mut out)
        } else {
            answer_query_into(&table, kind, m1, out_of_range, &mut out)
        };
        match refused {
            Err(NetError::Query(text)) => prop_assert_eq!(text, expected),
            other => prop_assert!(false, "expected the out-of-range refusal, got {:?}", other),
        }
        prop_assert_eq!(out, vec![7u8]);
    }
}

/// Table size (bytes of stamp lanes) from which `pump_frames` loads a
/// batch's rows before answering it: the fetch floor in `query.rs`.
const FETCH_FLOOR_BYTES: usize = 16 << 20;

/// A `len`-message table of dimension `dim` whose stamps mix ordered and
/// concurrent pairs: each row is a recent row with one lane incremented.
fn branching_table(dim: usize, len: usize, seed: u64) -> synctime_core::MessageTimestamps {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut rows = vec![0u64; dim * len];
    for m in 1..len {
        let from = m - 1 - (next() as usize % m.min(8));
        rows.copy_within(from * dim..(from + 1) * dim, m * dim);
        if dim > 0 {
            rows[m * dim + next() as usize % dim] += 1;
        }
    }
    synctime_core::MessageTimestamps::from_rows(dim, len, rows)
}

/// Pumped QUERY3 batches answer byte for byte as ANSWER3 frames built
/// entry by entry from `answer_query_into` do, on tables just below the
/// fetch floor and at it — whether or not the pump loads the rows
/// first, and whatever the batch mixes: both compare kinds, chain-of, an
/// unknown kind, ids equal to the table's length and to `u32::MAX`, and
/// a message compared with itself. At d = 96 the fetch loads only part
/// of each row.
#[test]
fn fetch_pass_answers_byte_for_byte_as_answer_query() {
    use synctime_net::query::{QUERY_CHAIN_OF, QUERY_CONCURRENT, QUERY_PRECEDES};
    use synctime_net::{answer_query_into, encode_query_batch_into, pump_frames};
    use synctime_net::{FrameScratch, QueryFabric};

    let mut tables = vec![(0usize, 1000usize)];
    for dim in [2usize, 32, 96] {
        let at_floor = FETCH_FLOOR_BYTES.div_ceil(dim * 8);
        tables.push((dim, at_floor - 1));
        tables.push((dim, at_floor));
    }
    for (case, &(dim, len)) in tables.iter().enumerate() {
        let stamps = branching_table(dim, len, case as u64);
        let n = len as u32;
        let mut state = 0x5eed_u64 + case as u64;
        let mut pick = move |bound: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as u32) % bound
        };
        let mut batches: Vec<Vec<BatchQuery>> = Vec::new();
        for _ in 0..2 {
            let mut batch = Vec::new();
            for i in 0..256u32 {
                let m1 = pick(n);
                let near = (m1 + pick(512)).saturating_sub(256).min(n - 1);
                let far = pick(n);
                let kind = if i % 2 == 0 {
                    QUERY_PRECEDES
                } else {
                    QUERY_CONCURRENT
                };
                let (kind, m1, m2) = match i % 32 {
                    // One chain-of per batch: its answer lists up to
                    // every message of the table.
                    3 if i < 32 => (QUERY_CHAIN_OF, m1, 0),
                    5 => (QUERY_CHAIN_OF, n, 0),
                    7 => (3, m1, near),
                    9 => (255, n, u32::MAX),
                    11 => (kind, m1, n),
                    13 => (kind, u32::MAX, m1),
                    15 => (kind, n, u32::MAX),
                    17 => (kind, m1, m1),
                    19 => (kind, m1, far),
                    _ => (kind, m1, near),
                };
                batch.push(BatchQuery { kind, m1, m2 });
            }
            batches.push(batch);
        }

        let mut wire = Vec::new();
        let mut reference = Vec::new();
        for (corr, batch) in batches.iter().enumerate() {
            encode_query_batch_into(&mut wire, Some(corr as u32), "t", batch)
                .expect("in-bounds batch");
            let entries = batch
                .iter()
                .map(|q| {
                    let mut body = Vec::new();
                    match answer_query_into(&stamps, q.kind, q.m1, q.m2, &mut body) {
                        Ok(()) => BatchEntry::Answer(body),
                        Err(NetError::Query(detail)) => BatchEntry::Error(detail),
                        Err(other) => panic!("answer_query_into failed: {other}"),
                    }
                })
                .collect();
            let frame = Frame::AnswerPipelined {
                corr: corr as u32,
                entries,
            };
            reference.extend(frame.encode().expect("reference ANSWER3 encodes"));
        }

        let fabric = QueryFabric::new(2);
        fabric.publish("t", stamps);
        let mut reader = FrameReader::new();
        reader.feed(&wire);
        let mut scratch = FrameScratch::new();
        assert!(pump_frames(&mut reader, &fabric, &mut scratch).expect("pump"));
        assert!(
            scratch.out == reference,
            "d = {dim}, {len} messages ({} bytes of lanes, fetch floor {FETCH_FLOOR_BYTES}): \
             the pump's ANSWER3 frames differ from answer_query_into's",
            dim * len * 8
        );
    }
}

/// A HELLO from a future protocol version parses as a frame (the header
/// layout is version-independent) so the handshake can refuse it with a
/// diagnostic rather than a framing error.
#[test]
fn future_version_hello_is_parseable_but_refusable() {
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION + 1,
        topology_hash: 42,
        process: 0,
    };
    let mut reader = FrameReader::new();
    reader.feed(&hello.encode().expect("HELLO encodes"));
    match reader.next_frame().unwrap() {
        Some(Frame::Hello { version, .. }) => assert_eq!(version, PROTOCOL_VERSION + 1),
        other => panic!("expected HELLO, got {other:?}"),
    }
}
