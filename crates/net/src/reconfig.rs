//! The live reconfiguration control plane: RECONFIGURE/RECONFIG_ACK over
//! the wire (ROADMAP item 4).
//!
//! A running mesh changes topology without stopping: a coordinator (by
//! convention process 0) proposes an epoch-numbered batch of edge edits,
//! every node applies the same edits on its own
//! [`IncrementalDecomposition`] replica — deterministic patching, so all
//! replicas land on the same groups — and verifies the resulting
//! [`GroupRemap`] and topology hash against the coordinator's. The apply
//! is two-phase around the quiesce point (the natural rendezvous barrier
//! at the end of an epoch's workload):
//!
//! 1. **Prepare** — the coordinator ships a [`ReconfigPrepare`] (epoch,
//!    edge ops, expected remap, expected post-edit topology hash) to every
//!    node. Each node applies the ops, rebases its final clock through the
//!    remap, and answers a [`ReconfigAckFrame`] carrying that rebased
//!    clock. A node at the wrong epoch refuses with
//!    [`ReconfigStatus::EpochMismatch`] and its current epoch; the
//!    coordinator resyncs the straggler by replaying the missed prepares
//!    from its [`ReconfigSession`] history, in order.
//! 2. **Commit** — the coordinator max-merges every acked clock (its own
//!    included) into one **uniform baseline** and ships it in a
//!    [`ReconfigCommit`]. Every node restarts the next epoch from that
//!    same baseline vector.
//!
//! The uniform baseline is the correctness pivot: with every process
//! restarting from the identical vector `B`, each post-reconfiguration
//! stamp equals `B + s` where `s` is the corresponding stamp of an
//! uninterrupted reference run over the new topology started from zero
//! (`max(B+x, B+y) = B + max(x, y)` and a tick commutes with the uniform
//! shift). All pairwise comparisons — hence every Theorem 4 precedence
//! verdict — are therefore identical to the reference run's, which is
//! what the `churn-smoke` stage's byte-identical query diff checks end to
//! end. Dimension stays bounded across epochs because each replica's
//! decomposition maintains the paper's `d ≤ 2·α` invariant under every
//! edit.
//!
//! Frame bodies are priced byte-for-byte by `synctime_core::wire`
//! (`reconfigure_prepare_frame_bytes`, `reconfigure_commit_frame_bytes`,
//! `reconfig_ack_frame_bytes`), like every other frame in the protocol.

use std::time::{Duration, Instant};

use synctime_core::VectorTime;
use synctime_graph::{EdgeOp, Graph, GroupRemap, IncrementalDecomposition};

use crate::error::NetError;
use crate::frame::{begin_frame, end_frame, topology_hash_of, Frame};
use crate::tcp::TcpMesh;

/// The participant's verdict on a RECONFIGURE prepare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigStatus {
    /// The prepare was applied; the ack carries the rebased final clock.
    Prepared,
    /// The prepare named an epoch the node is not at; the ack carries the
    /// node's current epoch so the coordinator can resync it.
    EpochMismatch,
}

/// Phase 1 of a reconfiguration: the epoch-numbered edit batch every node
/// must apply, plus the remap and topology hash the coordinator computed
/// so replicas can verify they landed on the same decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigPrepare {
    /// The epoch this prepare establishes (current epoch + 1 on every
    /// in-sync node).
    pub epoch: u64,
    /// Hash of the post-edit topology and decomposition (see
    /// [`topology_hash_of`]); a replica whose local apply hashes
    /// differently refuses rather than diverge silently.
    pub topology_hash: u64,
    /// The edge edits, applied in order.
    pub ops: Vec<EdgeOp>,
    /// The composed remap the coordinator's apply produced; replicas must
    /// reproduce it exactly.
    pub remap: GroupRemap,
}

/// Phase 2 of a reconfiguration: the uniform baseline vector every node
/// restarts the new epoch from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigCommit {
    /// The epoch being committed.
    pub epoch: u64,
    /// The baseline, encoded with `synctime_core::wire::encode_full`.
    pub baseline: Vec<u8>,
}

/// The body of a RECONFIGURE frame (type 11): a prepare or a commit,
/// distinguished by the leading phase byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigFrame {
    /// Phase byte 0.
    Prepare(ReconfigPrepare),
    /// Phase byte 1.
    Commit(ReconfigCommit),
}

/// The body of a RECONFIG_ACK frame (type 12): one node's answer to a
/// prepare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigAckFrame {
    /// The epoch of the prepare being answered.
    pub epoch: u64,
    /// The answering process.
    pub process: u32,
    /// Applied, or refused with an epoch mismatch.
    pub status: ReconfigStatus,
    /// The answering node's epoch after processing the frame (equals
    /// `epoch` when `status` is [`ReconfigStatus::Prepared`]).
    pub current_epoch: u64,
    /// The node's final clock rebased into the new epoch's dimension
    /// (`encode_full` bytes); empty when the prepare was refused.
    pub clock: Vec<u8>,
}

/// Sentinel in a prepare's on-wire remap table for a dissolved component.
const REMAP_NONE: u32 = u32::MAX;

/// Appends a RECONFIGURE frame (type 11) to `out`. Infallible, like the
/// transport's other hot-path encoders.
pub(crate) fn encode_reconfigure_into(out: &mut Vec<u8>, ty: u8, frame: &ReconfigFrame) {
    let start = begin_frame(out, ty);
    match frame {
        ReconfigFrame::Prepare(p) => {
            out.push(0);
            out.extend_from_slice(&p.epoch.to_le_bytes());
            out.extend_from_slice(&p.topology_hash.to_le_bytes());
            out.extend_from_slice(&(p.ops.len() as u32).to_le_bytes());
            for op in &p.ops {
                let (kind, u, v) = match *op {
                    EdgeOp::Insert(u, v) => (0u8, u, v),
                    EdgeOp::Remove(u, v) => (1u8, u, v),
                };
                out.push(kind);
                out.extend_from_slice(&(u as u32).to_le_bytes());
                out.extend_from_slice(&(v as u32).to_le_bytes());
            }
            out.extend_from_slice(&(p.remap.old_to_new.len() as u32).to_le_bytes());
            out.extend_from_slice(&(p.remap.new_len as u32).to_le_bytes());
            for slot in &p.remap.old_to_new {
                let coded = slot.map_or(REMAP_NONE, |s| s as u32);
                out.extend_from_slice(&coded.to_le_bytes());
            }
        }
        ReconfigFrame::Commit(c) => {
            out.push(1);
            out.extend_from_slice(&c.epoch.to_le_bytes());
            out.extend_from_slice(&c.baseline);
        }
    }
    end_frame(out, start);
}

/// Appends a RECONFIG_ACK frame (type 12) to `out`.
pub(crate) fn encode_reconfig_ack_into(out: &mut Vec<u8>, ty: u8, ack: &ReconfigAckFrame) {
    let start = begin_frame(out, ty);
    out.extend_from_slice(&ack.epoch.to_le_bytes());
    out.extend_from_slice(&ack.process.to_le_bytes());
    out.push(match ack.status {
        ReconfigStatus::Prepared => 0,
        ReconfigStatus::EpochMismatch => 1,
    });
    out.extend_from_slice(&ack.current_epoch.to_le_bytes());
    out.extend_from_slice(&ack.clock);
    end_frame(out, start);
}

fn u32_at(body: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([body[i], body[i + 1], body[i + 2], body[i + 3]])
}

fn u64_at(body: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&body[i..i + 8]);
    u64::from_le_bytes(b)
}

/// Parses a RECONFIGURE frame body (type byte already split off).
pub(crate) fn decode_reconfigure(body: &[u8]) -> Result<ReconfigFrame, NetError> {
    let malformed = |detail: &str| NetError::Protocol(format!("RECONFIGURE frame: {detail}"));
    if body.len() < 9 {
        return Err(malformed("body shorter than phase + epoch"));
    }
    let epoch = u64_at(body, 1);
    match body[0] {
        0 => {
            if body.len() < 9 + 12 {
                return Err(malformed("prepare body shorter than its fixed fields"));
            }
            let topology_hash = u64_at(body, 9);
            let op_count = u32_at(body, 17) as usize;
            let mut pos = 21;
            if body.len() < pos + 9 * op_count + 8 {
                return Err(malformed("prepare body truncated inside the op list"));
            }
            let mut ops = Vec::with_capacity(op_count);
            for _ in 0..op_count {
                let u = u32_at(body, pos + 1) as usize;
                let v = u32_at(body, pos + 5) as usize;
                ops.push(match body[pos] {
                    0 => EdgeOp::Insert(u, v),
                    1 => EdgeOp::Remove(u, v),
                    other => return Err(malformed(&format!("unknown edge-op kind {other}"))),
                });
                pos += 9;
            }
            let old_len = u32_at(body, pos) as usize;
            let new_len = u32_at(body, pos + 4) as usize;
            pos += 8;
            if body.len() != pos + 4 * old_len {
                return Err(malformed(
                    "remap table length disagrees with the frame length",
                ));
            }
            let mut old_to_new = Vec::with_capacity(old_len);
            for _ in 0..old_len {
                let coded = u32_at(body, pos);
                pos += 4;
                if coded == REMAP_NONE {
                    old_to_new.push(None);
                } else if (coded as usize) < new_len {
                    old_to_new.push(Some(coded as usize));
                } else {
                    return Err(malformed("remap destination beyond the new dimension"));
                }
            }
            Ok(ReconfigFrame::Prepare(ReconfigPrepare {
                epoch,
                topology_hash,
                ops,
                remap: GroupRemap {
                    old_to_new,
                    new_len,
                },
            }))
        }
        1 => Ok(ReconfigFrame::Commit(ReconfigCommit {
            epoch,
            baseline: body[9..].to_vec(),
        })),
        other => Err(malformed(&format!("unknown phase byte {other}"))),
    }
}

/// Parses a RECONFIG_ACK frame body.
pub(crate) fn decode_reconfig_ack(body: &[u8]) -> Result<ReconfigAckFrame, NetError> {
    if body.len() < 21 {
        return Err(NetError::Protocol(format!(
            "RECONFIG_ACK frame carries {} body bytes, expected at least 21",
            body.len()
        )));
    }
    let status = match body[12] {
        0 => ReconfigStatus::Prepared,
        1 => ReconfigStatus::EpochMismatch,
        other => {
            return Err(NetError::Protocol(format!(
                "unknown RECONFIG_ACK status {other}"
            )))
        }
    };
    Ok(ReconfigAckFrame {
        epoch: u64_at(body, 0),
        process: u32_at(body, 8),
        status,
        current_epoch: u64_at(body, 13),
        clock: body[21..].to_vec(),
    })
}

/// One node's replica of the reconfiguration state machine: the current
/// epoch, the topology/decomposition replica every node patches in
/// lockstep, and (on the coordinator) the prepare history used to resync
/// stragglers.
#[derive(Debug, Clone)]
pub struct ReconfigSession {
    dec: IncrementalDecomposition,
    epoch: u64,
    history: Vec<ReconfigPrepare>,
}

impl ReconfigSession {
    /// Epoch 0 over the launch topology, seeded with the greedy
    /// decomposition — the same seed every node computes from the shared
    /// launch parameters, so all replicas agree before the first prepare.
    pub fn new(graph: &Graph) -> Self {
        ReconfigSession {
            dec: IncrementalDecomposition::new(graph),
            epoch: 0,
            history: Vec::new(),
        }
    }

    /// The current epoch (0 until the first commit-worthy prepare).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current topology replica.
    pub fn graph(&self) -> &Graph {
        self.dec.graph()
    }

    /// The current decomposition replica (dimension of the current
    /// epoch's stamps).
    pub fn decomposition(&self) -> &synctime_graph::EdgeDecomposition {
        self.dec.decomposition()
    }

    /// Coordinator side: applies `ops` locally, advances the epoch, and
    /// builds the [`ReconfigPrepare`] to ship — recording it in the
    /// resync history. Returns the prepare together with the remap (the
    /// coordinator rebases its own clock with it, like any participant).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when an op is inapplicable (unknown edge,
    /// duplicate edge, out-of-range node); the session is unchanged.
    pub fn propose(&mut self, ops: &[EdgeOp]) -> Result<ReconfigPrepare, NetError> {
        let remap = self
            .dec
            .apply_ops(ops)
            .map_err(|e| NetError::Protocol(format!("inapplicable reconfiguration: {e}")))?;
        self.epoch += 1;
        let prepare = ReconfigPrepare {
            epoch: self.epoch,
            topology_hash: topology_hash_of(
                self.dec.graph().node_count(),
                self.dec.decomposition(),
            ),
            ops: ops.to_vec(),
            remap,
        };
        self.history.push(prepare.clone());
        Ok(prepare)
    }

    /// Participant side: validates and applies one prepare. The replica
    /// must be exactly one epoch behind; it applies the ops, verifies its
    /// remap and topology hash against the coordinator's, and advances.
    /// On any divergence the session rolls back to its pre-call state.
    ///
    /// # Errors
    ///
    /// [`NetError::EpochMismatch`] when the prepare is not for the
    /// successor epoch (the caller answers with its current epoch so the
    /// coordinator can resync it); [`NetError::Protocol`] when the ops do
    /// not apply or the replica diverges from the coordinator's remap or
    /// hash.
    pub fn prepare(&mut self, msg: &ReconfigPrepare) -> Result<GroupRemap, NetError> {
        if msg.epoch != self.epoch + 1 {
            return Err(NetError::EpochMismatch {
                expected: self.epoch + 1,
                got: msg.epoch,
            });
        }
        let checkpoint = self.dec.clone();
        let remap = self
            .dec
            .apply_ops(&msg.ops)
            .map_err(|e| NetError::Protocol(format!("inapplicable reconfiguration: {e}")))?;
        let hash = topology_hash_of(self.dec.graph().node_count(), self.dec.decomposition());
        if remap != msg.remap || hash != msg.topology_hash {
            self.dec = checkpoint;
            return Err(NetError::Protocol(format!(
                "replica diverged applying epoch {}: hash {hash:#x} vs coordinator's {:#x}",
                msg.epoch, msg.topology_hash
            )));
        }
        self.epoch = msg.epoch;
        self.history.push(msg.clone());
        Ok(remap)
    }

    /// The recorded prepares for epochs in `(after, up_to]`, in order —
    /// what a straggler at epoch `after` needs to catch up to `up_to`.
    pub fn history_since(&self, after: u64, up_to: u64) -> Vec<ReconfigPrepare> {
        self.history
            .iter()
            .filter(|p| p.epoch > after && p.epoch <= up_to)
            .cloned()
            .collect()
    }
}

/// What a completed reconfiguration round hands back to the runtime: the
/// committed epoch, the composed remap from the pre-round dimension, and
/// the uniform baseline every process restarts from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigOutcome {
    /// The committed epoch.
    pub epoch: u64,
    /// The remap taking the pre-round dimension to the new one (composed
    /// across every prepare this round applied on this node).
    pub remap: GroupRemap,
    /// The max-merged, remapped baseline vector (new dimension).
    pub baseline: VectorTime,
}

/// Coordinator driver for one reconfiguration round over an established
/// mesh: proposes `ops`, ships the prepare to every peer, resyncs any
/// straggler from history, max-merges the acked clocks with its own
/// rebased `final_clock` into the uniform baseline, and commits it.
///
/// # Errors
///
/// [`NetError::Protocol`] on an inapplicable batch or a diverged ack,
/// [`NetError::Io`]/[`NetError::Closed`] when a peer cannot be reached
/// within `timeout`.
pub fn coordinate_reconfigure(
    mesh: &TcpMesh,
    session: &mut ReconfigSession,
    peers: &[usize],
    ops: &[EdgeOp],
    final_clock: &VectorTime,
    timeout: Duration,
) -> Result<ReconfigOutcome, NetError> {
    let deadline = Instant::now() + timeout;
    let prepare = session.propose(ops)?;
    let epoch = prepare.epoch;
    let mut baseline = VectorTime::from(prepare.remap.apply(final_clock.as_slice()));
    for &peer in peers {
        mesh.send_reconfigure(peer, &ReconfigFrame::Prepare(prepare.clone()))?;
    }
    for &peer in peers {
        let clock = loop {
            let ack = recv_ack(mesh, peer, deadline)?;
            match ack.status {
                ReconfigStatus::Prepared if ack.epoch == epoch => break ack.clock,
                // An ack for an intermediate catch-up epoch: keep waiting
                // for the target epoch's.
                ReconfigStatus::Prepared => continue,
                ReconfigStatus::EpochMismatch => {
                    // Straggler: replay the prepares it missed, in order,
                    // then keep waiting for its target-epoch ack.
                    for missed in session.history_since(ack.current_epoch, epoch) {
                        mesh.send_reconfigure(peer, &ReconfigFrame::Prepare(missed))?;
                    }
                }
            }
        };
        let theirs = synctime_core::wire::decode_full(&clock).ok_or_else(|| {
            NetError::Protocol(format!("process {peer} acked an undecodable clock"))
        })?;
        baseline.merge_max(&theirs).map_err(|_| {
            NetError::Protocol(format!(
                "process {peer} acked a clock of dimension {}, expected {}",
                theirs.dim(),
                baseline.dim()
            ))
        })?;
    }
    let commit = ReconfigCommit {
        epoch,
        baseline: synctime_core::wire::encode_full(&baseline),
    };
    for &peer in peers {
        mesh.send_reconfigure(peer, &ReconfigFrame::Commit(commit.clone()))?;
    }
    Ok(ReconfigOutcome {
        epoch,
        remap: prepare.remap,
        baseline,
    })
}

/// Participant driver for one reconfiguration round: applies the
/// coordinator's prepare(s) — acking each, refusing out-of-order epochs
/// with [`ReconfigStatus::EpochMismatch`] so the coordinator resyncs this
/// node — rebases `final_clock` through every applied remap, and waits
/// for the commit carrying the uniform baseline.
///
/// # Errors
///
/// [`NetError::Protocol`] when a prepare diverges from this replica or
/// the commit is malformed, [`NetError::Io`]/[`NetError::Closed`] on
/// transport failure or `timeout`.
pub fn follow_reconfigure(
    mesh: &TcpMesh,
    session: &mut ReconfigSession,
    coordinator: usize,
    process: u32,
    final_clock: &VectorTime,
    timeout: Duration,
) -> Result<ReconfigOutcome, NetError> {
    let deadline = Instant::now() + timeout;
    let mut clock = final_clock.clone();
    let mut composed = GroupRemap::identity(session.decomposition().len());
    loop {
        match recv_reconfigure(mesh, coordinator, deadline)? {
            ReconfigFrame::Prepare(msg) => {
                let epoch = msg.epoch;
                match session.prepare(&msg) {
                    Ok(remap) => {
                        clock = VectorTime::from(remap.apply(clock.as_slice()));
                        composed = composed.then(&remap);
                        mesh.send_reconfig_ack(
                            coordinator,
                            &ReconfigAckFrame {
                                epoch,
                                process,
                                status: ReconfigStatus::Prepared,
                                current_epoch: session.epoch(),
                                clock: synctime_core::wire::encode_full(&clock),
                            },
                        )?;
                    }
                    Err(NetError::EpochMismatch { .. }) => {
                        mesh.send_reconfig_ack(
                            coordinator,
                            &ReconfigAckFrame {
                                epoch,
                                process,
                                status: ReconfigStatus::EpochMismatch,
                                current_epoch: session.epoch(),
                                clock: Vec::new(),
                            },
                        )?;
                    }
                    Err(other) => return Err(other),
                }
            }
            ReconfigFrame::Commit(commit) => {
                if commit.epoch != session.epoch() {
                    return Err(NetError::EpochMismatch {
                        expected: session.epoch(),
                        got: commit.epoch,
                    });
                }
                let baseline = synctime_core::wire::decode_full(&commit.baseline)
                    .ok_or_else(|| NetError::Protocol("undecodable commit baseline".into()))?;
                if baseline.dim() != session.decomposition().len() {
                    return Err(NetError::Protocol(format!(
                        "commit baseline has dimension {}, decomposition has {}",
                        baseline.dim(),
                        session.decomposition().len()
                    )));
                }
                return Ok(ReconfigOutcome {
                    epoch: commit.epoch,
                    remap: composed,
                    baseline,
                });
            }
        }
    }
}

fn recv_reconfigure(
    mesh: &TcpMesh,
    peer: usize,
    deadline: Instant,
) -> Result<ReconfigFrame, NetError> {
    match mesh.recv_control(peer, deadline)? {
        Frame::Reconfigure(frame) => Ok(frame),
        other => Err(NetError::Protocol(format!(
            "expected RECONFIGURE on the control channel, got {other:?}"
        ))),
    }
}

fn recv_ack(mesh: &TcpMesh, peer: usize, deadline: Instant) -> Result<ReconfigAckFrame, NetError> {
    match mesh.recv_control(peer, deadline)? {
        Frame::ReconfigAck(ack) => Ok(ack),
        other => Err(NetError::Protocol(format!(
            "expected RECONFIG_ACK on the control channel, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpMeshBuilder;
    use synctime_graph::topology;

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

    #[test]
    fn replicas_agree_after_propose_and_prepare() {
        let g = topology::path(4);
        let mut coord = ReconfigSession::new(&g);
        let mut replica = ReconfigSession::new(&g);
        let prepare = coord
            .propose(&[EdgeOp::Insert(0, 3), EdgeOp::Remove(1, 2)])
            .unwrap();
        let remap = replica.prepare(&prepare).unwrap();
        assert_eq!(remap, prepare.remap);
        assert_eq!(replica.epoch(), 1);
        assert_eq!(replica.decomposition(), coord.decomposition());
        assert_eq!(replica.graph(), coord.graph());
    }

    #[test]
    fn out_of_order_prepare_is_an_epoch_mismatch() {
        let g = topology::path(3);
        let mut coord = ReconfigSession::new(&g);
        let mut replica = ReconfigSession::new(&g);
        let first = coord.propose(&[EdgeOp::Insert(0, 2)]).unwrap();
        let second = coord.propose(&[EdgeOp::Remove(0, 2)]).unwrap();
        assert!(matches!(
            replica.prepare(&second),
            Err(NetError::EpochMismatch {
                expected: 1,
                got: 2
            })
        ));
        // The refusal left the replica untouched: the missed prepare still
        // applies, then the retried one goes through.
        replica.prepare(&first).unwrap();
        replica.prepare(&second).unwrap();
        assert_eq!(replica.epoch(), 2);
        assert_eq!(replica.decomposition(), coord.decomposition());
    }

    #[test]
    fn round_trips_a_reconfiguration_over_a_live_mesh() {
        let n = 3;
        let g = topology::path(n);
        let meshes = star_meshes(n);
        let mut sessions: Vec<ReconfigSession> = (0..n).map(|_| ReconfigSession::new(&g)).collect();
        let dim = sessions[0].decomposition().len();
        let clocks: Vec<VectorTime> = (0..n)
            .map(|p| VectorTime::from((0..dim).map(|c| (p * 10 + c) as u64).collect::<Vec<_>>()))
            .collect();
        let ops = vec![EdgeOp::Insert(0, 2)];

        let mut handles = Vec::new();
        for (p, (mesh, mut session)) in meshes
            .into_iter()
            .zip(sessions.drain(..))
            .enumerate()
            .collect::<Vec<_>>()
        {
            let ops = ops.clone();
            let clock = clocks[p].clone();
            handles.push(std::thread::spawn(move || {
                let outcome = if p == 0 {
                    coordinate_reconfigure(&mesh, &mut session, &[1, 2], &ops, &clock, TIMEOUT)
                        .unwrap()
                } else {
                    follow_reconfigure(&mesh, &mut session, 0, p as u32, &clock, TIMEOUT).unwrap()
                };
                (outcome, session)
            }));
        }
        let results: Vec<(ReconfigOutcome, ReconfigSession)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Every node committed the same epoch and the same uniform
        // baseline, and every replica agrees on the new decomposition.
        let baseline = &results[0].0.baseline;
        for (outcome, session) in &results {
            assert_eq!(outcome.epoch, 1);
            assert_eq!(&outcome.baseline, baseline);
            assert_eq!(session.epoch(), 1);
            assert_eq!(session.decomposition(), results[0].1.decomposition());
        }
        // The baseline dominates every rebased input clock (it is their
        // component-wise max).
        for ((outcome, _), clock) in results.iter().zip(&clocks) {
            let rebased = outcome.remap.apply(clock.as_slice());
            for (b, r) in baseline.as_slice().iter().zip(&rebased) {
                assert!(b >= r);
            }
        }
    }

    #[test]
    fn straggler_is_resynced_from_history() {
        let n = 3;
        let g = topology::path(n);
        let meshes = star_meshes(n);
        let mut coord = ReconfigSession::new(&g);
        let mut insync = ReconfigSession::new(&g);
        let straggler = ReconfigSession::new(&g); // misses epoch 1

        // Epoch 1 happened while process 2 was partitioned: only the
        // coordinator and process 1 applied it.
        let missed = coord.propose(&[EdgeOp::Insert(0, 2)]).unwrap();
        insync.prepare(&missed).unwrap();

        let dims = [
            coord.decomposition().len(),
            insync.decomposition().len(),
            straggler.decomposition().len(),
        ];
        let mut iter = meshes.into_iter();
        let (m0, m1, m2) = (
            iter.next().unwrap(),
            iter.next().unwrap(),
            iter.next().unwrap(),
        );
        let ops = vec![EdgeOp::Remove(1, 2), EdgeOp::Insert(1, 2)];

        let c0 = VectorTime::from(vec![3u64; dims[0]]);
        let h0 = std::thread::spawn(move || {
            let out = coordinate_reconfigure(&m0, &mut coord, &[1, 2], &ops, &c0, TIMEOUT).unwrap();
            (out, coord)
        });
        let c1 = VectorTime::from(vec![5u64; dims[1]]);
        let h1 = std::thread::spawn(move || {
            let mut s = insync;
            let out = follow_reconfigure(&m1, &mut s, 0, 1, &c1, TIMEOUT).unwrap();
            (out, s)
        });
        let c2 = VectorTime::from(vec![7u64; dims[2]]);
        let h2 = std::thread::spawn(move || {
            let mut s = straggler;
            let out = follow_reconfigure(&m2, &mut s, 0, 2, &c2, TIMEOUT).unwrap();
            (out, s)
        });

        let (out0, coord) = h0.join().unwrap();
        let (out1, s1) = h1.join().unwrap();
        let (out2, s2) = h2.join().unwrap();
        assert_eq!(out0.epoch, 2);
        assert_eq!(out1.epoch, 2);
        assert_eq!(out2.epoch, 2);
        assert_eq!(out0.baseline, out1.baseline);
        assert_eq!(out0.baseline, out2.baseline);
        // The straggler caught up through the missed epoch: all replicas
        // agree on the final decomposition and epoch.
        assert_eq!(s2.epoch(), 2);
        assert_eq!(s2.decomposition(), coord.decomposition());
        assert_eq!(s1.decomposition(), coord.decomposition());
    }
}
