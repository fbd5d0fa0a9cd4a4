//! The epoch boundary over TCP: one RECONFIG_ACK from each follower to
//! process 0, and one RECONFIGURE commit back.
//!
//! Every node holds the whole workload, so every node derives a
//! boundary's edge edits from its own copy of the plan and applies them
//! to its own [`IncrementalDecomposition`] replica — deterministic
//! patching, so replicas that apply the same edits land on the same
//! groups. What a node cannot derive is the other processes' final
//! clocks. The exchange trades exactly those, in the ending epoch's
//! dimension:
//!
//! 1. Each follower sends process 0 one RECONFIG_ACK: the epoch the
//!    boundary establishes, its process id, [`topology_hash_of`] its
//!    post-edit topology and decomposition, and its final clock.
//! 2. Process 0 checks each ack's epoch, hash and clock dimension against
//!    its own, max-merges the clocks with its own final clock, and sends
//!    each follower one RECONFIGURE commit: the epoch and the merged
//!    clock, which the follower checks the same way.
//!
//! Every node then rebases the one merged clock through its own remap
//! into the uniform baseline of the next epoch — `synctime-sim`'s
//! `cross_boundary`, the step the in-process engine takes with the merge
//! of its own processes' clocks. A replica whose hash differs is refused
//! with [`NetError::ReplicaDiverged`] before any commit is sent, so no
//! node applies the epoch.
//!
//! Frame bodies are priced byte for byte by `synctime_core::wire`
//! (`reconfig_ack_frame_bytes`, `reconfigure_commit_frame_bytes`), like
//! every other frame in the protocol.
//!
//! [`IncrementalDecomposition`]: synctime_graph::IncrementalDecomposition
//! [`topology_hash_of`]: crate::frame::topology_hash_of

use std::time::{Duration, Instant};

use synctime_core::VectorTime;

use crate::error::NetError;
use crate::frame::Frame;
use crate::tcp::TcpMesh;

/// Process 0's half of the epoch boundary that establishes `epoch`:
/// takes one RECONFIG_ACK from each of `followers`, checks its epoch,
/// sender, post-edit `topology_hash` and clock dimension against this
/// node's, max-merges every clock with `final_clock`, and sends each
/// follower the merge in one RECONFIGURE commit. Returns the merge, in
/// `final_clock`'s dimension.
///
/// # Errors
///
/// [`NetError::EpochMismatch`], [`NetError::ReplicaDiverged`] or
/// [`NetError::ClockDimension`] for an ack that disagrees, with no commit
/// sent; [`NetError::Protocol`] for another frame or sender on the control
/// channel; [`NetError::Io`]/[`NetError::Closed`] when a follower cannot
/// be reached within `timeout`.
pub fn coordinate_reconfigure(
    mesh: &TcpMesh,
    followers: &[usize],
    epoch: u64,
    topology_hash: u64,
    final_clock: &VectorTime,
    timeout: Duration,
) -> Result<VectorTime, NetError> {
    let deadline = Instant::now() + timeout;
    let mut merged = final_clock.clone();
    for &peer in followers {
        let Frame::ReconfigAck {
            epoch: got,
            process,
            topology_hash: theirs,
            clock,
        } = mesh.recv_control(peer, deadline)?
        else {
            return Err(unexpected("RECONFIG_ACK", peer));
        };
        check_epoch(epoch, got)?;
        if process as usize != peer {
            return Err(NetError::Protocol(format!(
                "process {peer} acked as process {process}"
            )));
        }
        if theirs != topology_hash {
            return Err(NetError::ReplicaDiverged {
                epoch,
                process,
                expected: topology_hash,
                got: theirs,
            });
        }
        merged
            .merge_max(&clock)
            .map_err(|_| NetError::ClockDimension {
                epoch,
                expected: final_clock.dim(),
                got: clock.dim(),
            })?;
    }
    for &peer in followers {
        mesh.send_control(
            peer,
            &Frame::Reconfigure {
                epoch,
                merged: merged.clone(),
            },
        )?;
    }
    Ok(merged)
}

/// A follower's half of the epoch boundary that establishes `epoch`:
/// sends process 0 one RECONFIG_ACK with this node's post-edit
/// `topology_hash` and `final_clock`, then takes its RECONFIGURE commit
/// and checks its epoch and clock dimension. Returns the merged final
/// clock, in `final_clock`'s dimension.
///
/// # Errors
///
/// [`NetError::EpochMismatch`] or [`NetError::ClockDimension`] for a
/// commit that disagrees; [`NetError::Protocol`] for another frame on the
/// control channel; [`NetError::Io`]/[`NetError::Closed`] when process 0
/// cannot be reached within `timeout` (it closes the channel instead of
/// committing a refused boundary).
pub fn follow_reconfigure(
    mesh: &TcpMesh,
    process: u32,
    epoch: u64,
    topology_hash: u64,
    final_clock: &VectorTime,
    timeout: Duration,
) -> Result<VectorTime, NetError> {
    let deadline = Instant::now() + timeout;
    mesh.send_control(
        0,
        &Frame::ReconfigAck {
            epoch,
            process,
            topology_hash,
            clock: final_clock.clone(),
        },
    )?;
    let Frame::Reconfigure { epoch: got, merged } = mesh.recv_control(0, deadline)? else {
        return Err(unexpected("RECONFIGURE", 0));
    };
    check_epoch(epoch, got)?;
    if merged.dim() != final_clock.dim() {
        return Err(NetError::ClockDimension {
            epoch,
            expected: final_clock.dim(),
            got: merged.dim(),
        });
    }
    Ok(merged)
}

fn check_epoch(expected: u64, got: u64) -> Result<(), NetError> {
    if got == expected {
        Ok(())
    } else {
        Err(NetError::EpochMismatch { expected, got })
    }
}

fn unexpected(want: &str, peer: usize) -> NetError {
    NetError::Protocol(format!(
        "expected {want} from process {peer} on the control channel"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::topology_hash_of;
    use crate::tcp::TcpMeshBuilder;
    use synctime_graph::{topology, EdgeOp, Graph, IncrementalDecomposition};
    use synctime_runtime::{Behavior, ProcessCtx, Runtime};
    use synctime_sim::cross_boundary;

    const TIMEOUT: Duration = Duration::from_secs(10);
    const HASH: u64 = 0x5eed;

    /// Establishes a control star: process 0 connected to every other
    /// process, each follower connected only to 0.
    fn star_meshes(n: usize) -> Vec<TcpMesh> {
        let builders: Vec<TcpMeshBuilder> = (0..n)
            .map(|_| TcpMeshBuilder::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<std::net::SocketAddr> =
            builders.iter().map(TcpMeshBuilder::local_addr).collect();
        let mut handles = Vec::new();
        for (p, b) in builders.into_iter().enumerate() {
            let addrs = addrs.clone();
            handles.push(std::thread::spawn(move || {
                let neighbors: Vec<usize> = if p == 0 { (1..n).collect() } else { vec![0] };
                b.establish(p, &addrs, &neighbors, HASH, TIMEOUT).unwrap()
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// One node of a boundary, as `serve-node` takes it: the shared step
    /// over the exchange's merge. Returns the node's runtime and the
    /// exchange's outcome (`Ok` once the runtime applied the epoch).
    fn node_boundary(
        mesh: &TcpMesh,
        process: usize,
        n: usize,
        graph: &Graph,
        ops: &[EdgeOp],
        final_clock: &VectorTime,
    ) -> (Runtime, Result<(), NetError>) {
        let mut inc = IncrementalDecomposition::new(graph);
        let mut rt = Runtime::new(graph, inc.decomposition());
        let outcome = cross_boundary(&mut rt, &mut inc, ops, |inc| {
            let hash = topology_hash_of(n, inc.decomposition());
            let merged = if process == 0 {
                let followers: Vec<usize> = (1..n).collect();
                coordinate_reconfigure(mesh, &followers, 1, hash, final_clock, TIMEOUT)
            } else {
                follow_reconfigure(mesh, process as u32, 1, hash, final_clock, TIMEOUT)
            };
            merged.map_err(|e| Box::new(e) as Box<dyn std::error::Error + Send + Sync>)
        });
        let outcome = outcome.map_err(|e| match e.downcast::<NetError>() {
            Ok(net) => *net,
            Err(other) => panic!("boundary failed off the wire: {other}"),
        });
        (rt, outcome)
    }

    /// Each process's final clock: its own components high, the others
    /// low, so the component-wise max is no single process's clock.
    fn final_clocks(n: usize, dim: usize) -> Vec<VectorTime> {
        (0..n)
            .map(|p| {
                let c = (0..dim).map(|c| if c % n == p { 10 + c } else { p });
                VectorTime::from(c.map(|x| x as u64).collect::<Vec<_>>())
            })
            .collect()
    }

    #[test]
    fn round_trips_a_reconfiguration_over_a_live_mesh() {
        let n = 4;
        let g = topology::path(n);
        let ops = [EdgeOp::Insert(0, 3)];
        let dim = IncrementalDecomposition::new(&g).decomposition().len();
        assert!(dim > 1, "the merge must be able to mix clocks");
        let clocks = final_clocks(n, dim);
        let handles: Vec<_> = star_meshes(n)
            .into_iter()
            .enumerate()
            .map(|(p, mesh)| {
                let (g, clock) = (g.clone(), clocks[p].clone());
                std::thread::spawn(move || node_boundary(&mesh, p, n, &g, &ops, &clock))
            })
            .collect();

        // Every node's baseline is `remap.apply` of the component-wise max
        // of all final clocks, over the decomposition every replica agrees
        // on.
        let mut reference = IncrementalDecomposition::new(&g);
        let remap = reference.apply_ops(&ops).unwrap();
        let mut max = VectorTime::zero(dim);
        for clock in &clocks {
            max.merge_max(clock).unwrap();
        }
        let baseline = remap.apply(max.as_slice());
        for handle in handles {
            let (rt, outcome) = handle.join().unwrap();
            outcome.unwrap();
            assert_eq!(rt.epoch(), 1);
            assert_eq!(rt.decomposition(), reference.decomposition());
            // An idle run starts, and ends, every process at the baseline.
            let idle = (0..n)
                .map(|_| Box::new(|_: &mut ProcessCtx| Ok(())) as Behavior)
                .collect();
            for clock in rt.run(idle).unwrap().final_clocks() {
                assert_eq!(clock.as_slice(), &baseline[..]);
            }
        }
    }

    #[test]
    fn a_diverged_replica_is_refused_before_any_commit() {
        let n = 4;
        let g = topology::path(n);
        let dim = IncrementalDecomposition::new(&g).decomposition().len();
        let clocks = final_clocks(n, dim);
        let handles: Vec<_> = star_meshes(n)
            .into_iter()
            .enumerate()
            .map(|(p, mesh)| {
                let (g, clock) = (g.clone(), clocks[p].clone());
                // Process 2 applies other edits than the plan's.
                let ops = if p == 2 {
                    vec![EdgeOp::Remove(1, 2)]
                } else {
                    vec![EdgeOp::Insert(0, 3)]
                };
                std::thread::spawn(move || {
                    let hash = {
                        let mut inc = IncrementalDecomposition::new(&g);
                        inc.apply_ops(&ops).unwrap();
                        topology_hash_of(n, inc.decomposition())
                    };
                    let (rt, outcome) = node_boundary(&mesh, p, n, &g, &ops, &clock);
                    // Process 0 refuses before it commits, then closes
                    // the control channel it would have committed on.
                    drop(mesh);
                    (hash, rt.epoch(), outcome)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let (expected, got) = (results[0].0, results[2].0);
        assert_ne!(expected, got);
        match &results[0].2 {
            Err(NetError::ReplicaDiverged {
                epoch: 1,
                process: 2,
                expected: e,
                got: g,
            }) if (*e, *g) == (expected, got) => {}
            other => panic!("expected a typed divergence, got {other:?}"),
        }
        let msg = results[0].2.as_ref().unwrap_err().to_string();
        assert!(msg.contains("epoch 1"), "{msg}");
        assert!(msg.contains(&format!("{expected:#x}")), "{msg}");
        assert!(msg.contains(&format!("{got:#x}")), "{msg}");
        // No commit reached a follower, and no node applied the epoch.
        for (_, epoch, outcome) in &results[1..] {
            assert!(
                matches!(outcome, Err(NetError::Closed | NetError::Io(_))),
                "{outcome:?}"
            );
            assert_eq!(*epoch, 0);
        }
        assert_eq!(results[0].1, 0);
    }

    #[test]
    fn wrong_epochs_and_dimensions_are_typed_errors() {
        let clock = VectorTime::from(vec![1, 2, 3]);
        let ack = |epoch, dim| Frame::ReconfigAck {
            epoch,
            process: 1,
            topology_hash: HASH,
            clock: VectorTime::zero(dim),
        };
        let commit = |epoch, dim| Frame::Reconfigure {
            epoch,
            merged: VectorTime::zero(dim),
        };
        // Process 0 facing a follower's bad ack.
        for (frame, want) in [
            (
                ack(2, 3),
                NetError::EpochMismatch {
                    expected: 1,
                    got: 2,
                },
            ),
            (
                ack(1, 4),
                NetError::ClockDimension {
                    epoch: 1,
                    expected: 3,
                    got: 4,
                },
            ),
        ] {
            let mut meshes = star_meshes(2).into_iter();
            let (coordinator, follower) = (meshes.next().unwrap(), meshes.next().unwrap());
            follower.send_control(0, &frame).unwrap();
            let got = coordinate_reconfigure(&coordinator, &[1], 1, HASH, &clock, TIMEOUT);
            assert_eq!(got, Err(want));
        }
        // A follower facing process 0's bad commit.
        for (frame, want) in [
            (
                commit(0, 3),
                NetError::EpochMismatch {
                    expected: 1,
                    got: 0,
                },
            ),
            (
                commit(1, 2),
                NetError::ClockDimension {
                    epoch: 1,
                    expected: 3,
                    got: 2,
                },
            ),
        ] {
            let mut meshes = star_meshes(2).into_iter();
            let (coordinator, follower) = (meshes.next().unwrap(), meshes.next().unwrap());
            coordinator.send_control(1, &frame).unwrap();
            let got = follow_reconfigure(&follower, 1, 1, HASH, &clock, TIMEOUT);
            assert_eq!(got, Err(want));
            // The follower's one ack reached process 0 before it failed.
            let deadline = Instant::now() + TIMEOUT;
            assert_eq!(
                coordinator.recv_control(1, deadline).unwrap(),
                Frame::ReconfigAck {
                    epoch: 1,
                    process: 1,
                    topology_hash: HASH,
                    clock: clock.clone(),
                }
            );
        }
    }
}
