//! Distributed-equals-local: the same `Behavior` programs, run as N
//! in-process threads over the mutex matcher and as N node instances over
//! real loopback TCP sockets, produce **bit-identical** timestamps — and
//! the TCP stamps independently satisfy the paper's Theorem 4 against the
//! order oracle of the reconstructed computation.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use synctime_graph::{decompose, topology, EdgeDecomposition, Graph};
use synctime_net::{topology_hash_of, NetError, TcpMesh, TcpMeshBuilder};
use synctime_runtime::{
    reconstruct_from_logs, Behavior, LogEntry, OfferAnswer, Polled, ProcessRun, Runtime,
    RuntimeError, SendAnswer, TransportError,
};
use synctime_trace::Oracle;

const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(20);

/// Binds every node, distributes the concrete addresses, then runs each
/// process of `topo` in its own thread over real TCP sockets.
fn run_over_tcp(
    topo: &Graph,
    dec: &EdgeDecomposition,
    behaviors: Vec<Behavior>,
) -> Vec<ProcessRun> {
    let n = topo.node_count();
    assert_eq!(behaviors.len(), n);
    let hash = topology_hash_of(n, dec);
    let builders: Vec<TcpMeshBuilder> = (0..n)
        .map(|_| TcpMeshBuilder::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = builders.iter().map(TcpMeshBuilder::local_addr).collect();
    let handles: Vec<_> = builders
        .into_iter()
        .zip(behaviors)
        .enumerate()
        .map(|(id, (builder, behavior))| {
            let topo = topo.clone();
            let dec = dec.clone();
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let neighbors: Vec<usize> = topo.neighbors(id).collect();
                let mesh = builder
                    .establish(id, &addrs, &neighbors, hash, ESTABLISH_TIMEOUT)
                    .expect("mesh establishment");
                let (tx, rx) = mesh.channels();
                Runtime::new(&topo, &dec).run_process(id, behavior, tx, rx)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("node thread"))
        .collect()
}

/// Token-ring behaviors: `laps` full laps of a token around `0 → 1 → ... →
/// n-1 → 0`, the payload incremented at each hop. Fully sequential, so the
/// computation — and therefore every stamp — is deterministic.
fn token_ring(n: usize, laps: u64) -> Vec<Behavior> {
    (0..n)
        .map(|i| -> Behavior {
            Box::new(move |ctx| {
                for lap in 0..laps {
                    if i == 0 {
                        ctx.send(1, lap * 1000)?;
                        ctx.receive_from(n - 1)?;
                    } else {
                        let (token, _) = ctx.receive_from(i - 1)?;
                        ctx.send((i + 1) % n, token + 1)?;
                    }
                }
                Ok(())
            })
        })
        .collect()
}

/// Deterministic all-pairs gossip on a complete graph: every unordered
/// pair `(a, b)` rendezvouses once per round, in lexicographic order.
/// Each process's local order agrees with the global order, so the
/// schedule is a valid synchronous computation and deterministic.
fn gossip_behaviors(n: usize, rounds: u64) -> Vec<Behavior> {
    (0..n)
        .map(|i| -> Behavior {
            Box::new(move |ctx| {
                for round in 0..rounds {
                    for a in 0..n {
                        for b in (a + 1)..n {
                            if i == a {
                                ctx.send(b, round)?;
                            } else if i == b {
                                ctx.receive_from(a)?;
                            }
                        }
                    }
                    ctx.internal();
                }
                Ok(())
            })
        })
        .collect()
}

/// Runs the same behaviors locally, reconstructs, and returns the stamps'
/// raw vectors for bit-level comparison.
fn local_stamp_vectors(
    topo: &Graph,
    dec: &EdgeDecomposition,
    behaviors: Vec<Behavior>,
) -> Vec<Vec<u64>> {
    let run = Runtime::new(topo, dec).run(behaviors).expect("local run");
    let (comp, stamps) = run.reconstruct().expect("local reconstruct");
    assert!(stamps.encodes(&Oracle::new(&comp)));
    stamps.rows().map(<[u64]>::to_vec).collect()
}

fn tcp_stamp_vectors(runs: Vec<ProcessRun>) -> Vec<Vec<u64>> {
    let mut logs: Vec<Vec<LogEntry>> = vec![Vec::new(); runs.len()];
    for run in runs {
        assert_eq!(run.outcome(), None, "process {} failed", run.process());
        let (process, log, _, _) = run.into_parts();
        logs[process] = log;
    }
    let (comp, stamps) = reconstruct_from_logs(&logs).expect("tcp reconstruct");
    // Theorem 4: the stamps encode synchronous order exactly.
    assert!(stamps.encodes(&Oracle::new(&comp)));
    stamps.rows().map(<[u64]>::to_vec).collect()
}

#[test]
fn ring_over_tcp_is_bit_identical_to_local() {
    let topo = topology::cycle(8);
    let dec = decompose::best_known(&topo);
    let local = local_stamp_vectors(&topo, &dec, token_ring(8, 3));
    let tcp = tcp_stamp_vectors(run_over_tcp(&topo, &dec, token_ring(8, 3)));
    assert_eq!(local.len(), 8 * 3);
    assert_eq!(local, tcp);
}

#[test]
fn gossip_over_tcp_is_bit_identical_to_local() {
    let topo = topology::complete(4);
    let dec = decompose::best_known(&topo);
    let local = local_stamp_vectors(&topo, &dec, gossip_behaviors(4, 2));
    let tcp = tcp_stamp_vectors(run_over_tcp(&topo, &dec, gossip_behaviors(4, 2)));
    assert_eq!(local.len(), 6 * 2);
    assert_eq!(local, tcp);
}

#[test]
fn tcp_run_survives_an_injected_crash() {
    // Ring of 4; one full lap completes, then process 2 crashes instead of
    // participating in lap two. Every survivor must terminate (no hang),
    // the crash must surface as PeerTerminated on 2's neighbors, and the
    // logs up to the crash must still reconstruct with valid stamps.
    let n = 4;
    let topo = topology::cycle(n);
    let dec = decompose::best_known(&topo);
    let behaviors: Vec<Behavior> = (0..n)
        .map(|i| -> Behavior {
            Box::new(move |ctx| {
                // Lap one: a full clean lap.
                if i == 0 {
                    ctx.send(1, 0)?;
                    ctx.receive_from(n - 1)?;
                } else {
                    let (token, _) = ctx.receive_from(i - 1)?;
                    ctx.send((i + 1) % n, token + 1)?;
                }
                // Lap two: process 2 dies before its receive.
                if i == 2 {
                    return Err(RuntimeError::FaultInjected {
                        process: 2,
                        at_op: 2,
                    });
                }
                if i == 0 {
                    ctx.send(1, 1000)?;
                    ctx.receive_from(n - 1)?;
                } else {
                    let (token, _) = ctx.receive_from(i - 1)?;
                    ctx.send((i + 1) % n, token + 1)?;
                }
                Ok(())
            })
        })
        .collect();
    let runs = run_over_tcp(&topo, &dec, behaviors);
    let mut logs: Vec<Vec<LogEntry>> = vec![Vec::new(); n];
    for run in runs {
        let process = run.process();
        match process {
            // The crasher reports its own injected fault.
            2 => assert!(
                matches!(run.outcome(), Some(RuntimeError::FaultInjected { .. })),
                "process 2: {:?}",
                run.outcome()
            ),
            // Processes blocked on the crashed peer (1 sends to 2, 3
            // receives from 2) observe its socket close as termination;
            // process 0 then loses its peers transitively. Nothing hangs.
            _ => assert!(
                matches!(
                    run.outcome(),
                    Some(RuntimeError::PeerTerminated { .. }) | None
                ),
                "process {process}: {:?}",
                run.outcome()
            ),
        }
        let (p, log, _, _) = run.into_parts();
        logs[p] = log;
    }
    // Completed rendezvous are logged at both endpoints, so the partial
    // run reconstructs: lap one's 4 messages plus lap two's 0→1 hop.
    let (comp, stamps) = reconstruct_from_logs(&logs).expect("partial logs reconstruct");
    assert_eq!(comp.message_count(), n + 1);
    assert!(stamps.encodes(&Oracle::new(&comp)));
}

#[test]
fn establish_refuses_topology_hash_mismatch() {
    // Node 0 (acceptor) and node 1 (dialer) disagree on the topology hash:
    // the acceptor must refuse the handshake; the dialer cannot complete.
    let b0 = TcpMeshBuilder::bind("127.0.0.1:0").unwrap();
    let b1 = TcpMeshBuilder::bind("127.0.0.1:0").unwrap();
    let addrs = vec![b0.local_addr(), b1.local_addr()];
    let addrs1 = addrs.clone();
    let t0 =
        std::thread::spawn(move || b0.establish(0, &addrs, &[1], 0xAAAA, Duration::from_secs(5)));
    let t1 =
        std::thread::spawn(move || b1.establish(1, &addrs1, &[0], 0xBBBB, Duration::from_secs(5)));
    let r0 = t0.join().unwrap();
    let r1 = t1.join().unwrap();
    assert!(
        matches!(r0, Err(NetError::Handshake(_))),
        "acceptor: {r0:?}"
    );
    assert!(r1.is_err(), "dialer must not complete: {r1:?}");
}

#[test]
fn establish_refuses_protocol_version_mismatch() {
    use std::io::Write;
    use synctime_net::{Frame, PROTOCOL_VERSION};

    // A raw client speaking a future protocol version dials an accepting
    // node; the handshake must be refused with a version diagnostic.
    let builder = TcpMeshBuilder::bind("127.0.0.1:0").unwrap();
    let addr = builder.local_addr();
    let t =
        std::thread::spawn(move || builder.establish(0, &[addr], &[1], 7, Duration::from_secs(5)));
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION + 1,
                topology_hash: 7,
                process: 1,
            }
            .encode()
            .unwrap(),
        )
        .unwrap();
    let result = t.join().unwrap();
    match result {
        Err(NetError::Handshake(detail)) => {
            assert!(detail.contains("version"), "diagnostic: {detail}")
        }
        other => panic!("expected version-mismatch refusal, got {other:?}"),
    }
}

/// Establishes a two-node loopback mesh: node 1 dials, node 0 accepts.
fn two_node_meshes(hash: u64) -> (TcpMesh, TcpMesh) {
    let b0 = TcpMeshBuilder::bind("127.0.0.1:0").expect("bind loopback");
    let b1 = TcpMeshBuilder::bind("127.0.0.1:0").expect("bind loopback");
    let addrs = [b0.local_addr(), b1.local_addr()];
    std::thread::scope(|s| {
        let node1 = s.spawn(|| b1.establish(1, &addrs, &[0], hash, ESTABLISH_TIMEOUT));
        let m0 = b0.establish(0, &addrs, &[1], hash, ESTABLISH_TIMEOUT);
        let m1 = node1.join().expect("node 1 thread");
        (m0.expect("node 0 mesh"), m1.expect("node 1 mesh"))
    })
}

/// Establishes node 0 of a two-process run against a raw socket that
/// completes the handshake as process 1 and never reads.
fn raw_peer() -> (TcpMesh, std::net::TcpStream) {
    use std::io::Write;
    use synctime_net::{Frame, PROTOCOL_VERSION};

    let builder = TcpMeshBuilder::bind("127.0.0.1:0").unwrap();
    let addr = builder.local_addr();
    let node =
        std::thread::spawn(move || builder.establish(0, &[addr], &[1], 7, ESTABLISH_TIMEOUT));
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        topology_hash: 7,
        process: 1,
    };
    raw.write_all(&hello.encode().unwrap()).unwrap();
    (node.join().unwrap().expect("handshake"), raw)
}

/// Polls until the poll is no longer pending (at most 10 s).
fn settle<T>(
    mut poll: impl FnMut() -> Result<Polled<T>, TransportError>,
) -> Result<T, TransportError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match poll()? {
            Polled::Ready(value) => return Ok(value),
            Polled::Pending => assert!(Instant::now() < deadline, "poll still pending"),
        }
    }
}

#[test]
fn frames_read_before_a_reset_are_delivered_before_the_close() {
    let (m0, m1) = two_node_meshes(7);
    let (tx0, rx0) = m0.channels();
    let (tx1, rx1) = m1.channels();
    let mut bytes = Vec::new();
    // Node 1 takes node 0's offer and acknowledges it, then offers one of
    // its own.
    tx0[&1].offer(1, 10, &[1, 2], false).unwrap();
    assert_eq!(
        settle(|| rx1[&0].poll_offer(None, None, &mut bytes))
            .unwrap()
            .key,
        1
    );
    rx1[&0].answer(OfferAnswer::Ack(&[3, 4])).unwrap();
    tx1[&0].offer(2, 20, &[5], false).unwrap();
    // Node 0 writes a frame that node 1 never reads, so node 1 dropping
    // its mesh sends a reset behind the FIN of its shutdown.
    tx0[&1].offer(3, 30, &[6], false).unwrap();
    drop((tx1, rx1));
    drop(m1);

    let mut ack = Vec::new();
    assert!(matches!(
        settle(|| tx0[&1].poll_answer(1, None, &mut ack)),
        Ok(SendAnswer::Acked { .. })
    ));
    assert_eq!(ack, [3, 4]);
    let offer = settle(|| rx0[&1].poll_offer(None, None, &mut bytes)).unwrap();
    assert_eq!((offer.key, offer.payload, &bytes[..]), (2, 20, &[5][..]));
    assert!(matches!(
        settle(|| rx0[&1].poll_offer(None, None, &mut bytes)),
        Err(TransportError::Closed)
    ));
    assert!(matches!(
        settle(|| tx0[&1].poll_answer(3, Some(Duration::ZERO), &mut ack)),
        Err(TransportError::Closed)
    ));
}

#[test]
fn frames_sent_before_a_bare_reset_are_delivered_before_the_close() {
    use std::io::Write;
    use synctime_net::Frame;

    // A peer that dies without shutting its socket down (a killed node)
    // resets the connection with no FIN ahead of the reset: it never read
    // this node's HELLO.
    let (mesh, mut raw) = raw_peer();
    let (tx, rx) = mesh.channels();
    tx[&1].offer(1, 10, &[1], false).unwrap();
    let ack = Frame::Ack {
        key: 1,
        ack: vec![3, 4],
    };
    let offer = Frame::Offer {
        key: 2,
        payload: 20,
        vector: vec![5],
    };
    // One write: a segment held back by Nagle would die with the socket.
    raw.write_all(&[ack.encode().unwrap(), offer.encode().unwrap()].concat())
        .unwrap();
    drop(raw);

    let mut bytes = Vec::new();
    assert!(matches!(
        settle(|| tx[&1].poll_answer(1, None, &mut bytes)),
        Ok(SendAnswer::Acked { .. })
    ));
    assert_eq!(bytes, [3, 4]);
    let offer = settle(|| rx[&1].poll_offer(None, None, &mut bytes)).unwrap();
    assert_eq!((offer.key, offer.payload, &bytes[..]), (2, 20, &[5][..]));
    assert!(matches!(
        settle(|| rx[&1].poll_offer(None, None, &mut bytes)),
        Err(TransportError::Closed)
    ));
}

#[test]
fn a_zero_cap_poll_never_waits_but_reads_what_has_arrived() {
    let (m0, m1) = two_node_meshes(7);
    let (tx0, rx0) = m0.channels();
    let (tx1, rx1) = m1.channels();
    let mut bytes = Vec::new();
    // Quiet connection: pending, without waiting out the 250 ms a poll
    // without a cap may wait.
    let probe = Instant::now();
    assert!(matches!(
        rx0[&1].poll_offer(Some(Duration::ZERO), None, &mut bytes),
        Ok(Polled::Pending)
    ));
    assert!(
        probe.elapsed() < Duration::from_millis(200),
        "{:?}",
        probe.elapsed()
    );

    // Node 1 writes an OFFER, then the ACK node 0 waits for. The read that
    // brings the ACK has brought the OFFER ahead of it, so the next
    // zero-cap poll takes the OFFER.
    tx0[&1].offer(1, 10, &[1], false).unwrap();
    settle(|| rx1[&0].poll_offer(None, None, &mut bytes)).unwrap();
    tx1[&0].offer(2, 20, &[2], false).unwrap();
    rx1[&0].answer(OfferAnswer::Ack(&[3])).unwrap();
    let mut ack = Vec::new();
    assert!(matches!(
        settle(|| tx0[&1].poll_answer(1, None, &mut ack)),
        Ok(SendAnswer::Acked { .. })
    ));
    match rx0[&1].poll_offer(Some(Duration::ZERO), None, &mut bytes) {
        Ok(Polled::Ready(offer)) => assert_eq!((offer.key, &bytes[..]), (2, &[2][..])),
        other => panic!("expected the queued offer, got {other:?}"),
    }
    assert!(matches!(
        rx0[&1].poll_offer(Some(Duration::ZERO), None, &mut bytes),
        Ok(Polled::Pending)
    ));

    // Nothing else reads node 0's socket: zero-cap polls alone must
    // pick up node 1's next offer.
    tx1[&0].offer(3, 30, &[4], false).unwrap();
    let offer = settle(|| rx0[&1].poll_offer(Some(Duration::ZERO), None, &mut bytes)).unwrap();
    assert_eq!((offer.key, &bytes[..]), (3, &[4][..]));
}

#[test]
fn an_unknown_frame_fails_the_connection_with_its_diagnostic() {
    use std::io::Write;

    let (mesh, mut raw) = raw_peer();
    // One frame of a type no protocol version defines.
    raw.write_all(&[1, 0, 0, 0, 0xEE]).unwrap();
    let (_tx, rx) = mesh.channels();
    match settle(|| rx[&1].poll_offer(None, None, &mut Vec::new())) {
        Err(TransportError::Io(detail)) => {
            assert!(
                detail.contains("unknown frame type"),
                "diagnostic: {detail}"
            )
        }
        other => panic!("expected an I/O failure, got {other:?}"),
    }
}

#[test]
fn a_capped_tcp_wait_ends_in_a_rendezvous_timeout() {
    // This test runs on real time: node 1 stays up for 300 ms without
    // receiving, far past node 0's 20 ms cap. Node 0 must give up on its
    // cap, before node 1's close could turn the wait into a
    // PeerTerminated.
    let topo = topology::path(2);
    let dec = decompose::best_known(&topo);
    let (m0, m1) = two_node_meshes(topology_hash_of(2, &dec));
    let (run0, waited, run1) = std::thread::scope(|s| {
        let node1 = s.spawn(|| {
            let (tx, rx) = m1.channels();
            let idle: Behavior = Box::new(|_| {
                std::thread::sleep(Duration::from_millis(300));
                Ok(())
            });
            Runtime::new(&topo, &dec).run_process(1, idle, tx, rx)
        });
        let (tx, rx) = m0.channels();
        let started = Instant::now();
        let run0 = Runtime::new(&topo, &dec)
            .with_rendezvous_timeout(Duration::from_millis(20))
            .with_rendezvous_retries(0)
            .run_process(0, Box::new(|ctx| ctx.send(1, 7).map(|_| ())), tx, rx);
        (
            run0,
            started.elapsed(),
            node1.join().expect("node 1 thread"),
        )
    });
    assert!(
        matches!(
            run0.outcome(),
            Some(RuntimeError::RendezvousTimeout { peer: 1, .. })
        ),
        "node 0: {:?}",
        run0.outcome()
    );
    assert!(
        waited < Duration::from_millis(300),
        "node 0 waited {waited:?}"
    );
    assert!(run0.log().is_empty());
    assert_eq!(run1.outcome(), None);
}
