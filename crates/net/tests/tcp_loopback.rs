//! Distributed-equals-local: the same `Behavior` programs, run as N
//! in-process threads over the mutex matcher and as N node instances over
//! real loopback TCP sockets, produce **bit-identical** timestamps — and
//! the TCP stamps independently satisfy the paper's Theorem 4 against the
//! order oracle of the reconstructed computation.

use std::net::SocketAddr;
use std::time::Duration;

use synctime_graph::{decompose, topology, EdgeDecomposition, Graph};
use synctime_net::{topology_hash_of, NetError, TcpMeshBuilder};
use synctime_runtime::{
    reconstruct_from_logs, Behavior, LogEntry, ProcessRun, Runtime, RuntimeError,
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
