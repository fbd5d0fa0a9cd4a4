//! Per-peer TCP connections implementing the runtime's transport traits.
//!
//! A [`TcpMesh`] gives one OS process the channel endpoints for one
//! process of a synchronous computation: a socket per adjacent peer, each
//! carrying the frame protocol of [`crate::frame`]. Plugged into
//! `Runtime::run_process`, the very same `Behavior` programs that run
//! in-process over the mutex matcher run as `N` real OS processes — the
//! runtime's wait loops, timeout budgets, resync protocol, and fault
//! machinery are shared, only the medium changes.
//!
//! # Connection establishment
//!
//! Every node binds its listener first ([`TcpMeshBuilder::bind`]), then
//! ([`TcpMeshBuilder::establish`]) connects to each adjacent peer with a
//! *lower* process id and accepts from each with a *higher* one — a total
//! order that cannot deadlock. Each endpoint opens with a HELLO carrying
//! its protocol version, process id, and the run's topology hash; a
//! mismatch on any of them refuses the connection before a single
//! protocol frame moves.
//!
//! # Runtime mapping
//!
//! * A send's `offer` writes an OFFER frame; the answering ACK or RESYNC
//!   is routed back by the connection's reader thread. Over TCP the
//!   sender cannot observe the remote take, so the ack-latency sample
//!   starts at the offer write and measures the full round trip.
//! * A receive's `poll_offer` drains the peer's OFFER frames from the
//!   reader thread's mailbox; its `answer` writes the ACK/RESYNC back.
//! * A peer's socket closing maps to [`TransportError::Closed`], which
//!   the runtime reports as `PeerTerminated` — exactly how a local
//!   thread's exit surfaces. Mailboxes drain queued frames before
//!   reporting the close, so an acknowledgement that was written before
//!   the peer went away still completes the rendezvous on this side.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use synctime_runtime::{
    OfferAnswer, Polled, RawOffer, ReadySlot, RxChannel, SendAnswer, TransportError, TxChannel,
};

use crate::error::NetError;
use crate::frame::{
    encode_ack_into, encode_offer_into, encode_resync_into, Frame, FrameReader, PROTOCOL_VERSION,
};
use crate::mailbox::Mailbox;

/// How long `establish` keeps retrying a refused connect before giving
/// up: peers may not have bound their listeners yet.
const CONNECT_RETRY_STEP: Duration = Duration::from_millis(20);

/// An answer frame routed back to the sending endpoint.
#[derive(Debug)]
enum AnswerMsg {
    Ack { key: u64, ack: Vec<u8>, at: Instant },
    Resync { key: u64 },
}

/// The write half of a connection: the socket plus a reusable encode
/// buffer, both behind one lock so frames from the Tx and Rx endpoints
/// interleave whole. Reusing the buffer keeps the steady-state offer/ack
/// path free of per-frame allocation.
#[derive(Debug)]
struct WriteHalf {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One established peer connection: the write half (shared by the Tx and
/// Rx endpoints under a lock) plus the reader thread's demultiplexed
/// mailboxes.
#[derive(Debug)]
struct Conn {
    writer: Mutex<WriteHalf>,
    /// Offers from the peer, each with its vector's bytes.
    offers: Mailbox<(RawOffer, Vec<u8>)>,
    answers: Mailbox<AnswerMsg>,
    /// RECONFIGURE/RECONFIG_ACK control frames, kept out of the data
    /// mailboxes so an in-flight reconfiguration never reorders against
    /// pending offers or acks.
    controls: Mailbox<Frame>,
}

impl Conn {
    /// Encodes one frame into the shared write buffer (via `fill`) and
    /// writes it, mapping close-like failures to
    /// [`TransportError::Closed`].
    fn write_with(&self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), TransportError> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let WriteHalf { stream, buf } = &mut *writer;
        buf.clear();
        fill(buf);
        stream.write_all(buf).map_err(map_io)
    }

    fn shutdown(&self) {
        let writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writer.stream.shutdown(Shutdown::Both);
    }
}

fn transport_to_net(e: TransportError) -> NetError {
    match e {
        TransportError::Closed => NetError::Closed,
        TransportError::Io(detail) => NetError::Io(detail),
    }
}

fn map_io(e: std::io::Error) -> TransportError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::BrokenPipe
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::UnexpectedEof
        | ErrorKind::NotConnected => TransportError::Closed,
        _ => TransportError::Io(e.to_string()),
    }
}

/// Reads whole frames off `stream` forever, routing them into the
/// connection's mailboxes; on EOF or error, closes both mailboxes (queued
/// frames stay deliverable). `reader` is the handshake's FrameReader: a
/// peer may start protocol traffic the instant its own handshake is done,
/// so the handshake read can legitimately buffer past its HELLO — those
/// bytes are the head of the frame stream and must not be dropped.
fn reader_loop(mut stream: TcpStream, conn: Arc<Conn>, mut reader: FrameReader) {
    let mut buf = [0u8; 16 * 1024];
    let close = |detail: Option<String>| {
        conn.offers.close(detail.clone());
        conn.answers.close(detail.clone());
        conn.controls.close(detail);
    };
    loop {
        // Drain every complete frame already buffered (including any the
        // handshake read ahead) before blocking on the socket again.
        loop {
            match reader.next_frame() {
                Ok(Some(Frame::Offer {
                    key,
                    payload,
                    vector,
                })) => conn.offers.push((
                    RawOffer {
                        key,
                        payload,
                        offered_at: Instant::now(),
                        handed: false,
                    },
                    vector,
                )),
                Ok(Some(Frame::Ack { key, ack })) => conn.answers.push(AnswerMsg::Ack {
                    key,
                    ack,
                    at: Instant::now(),
                }),
                Ok(Some(Frame::Resync { key })) => conn.answers.push(AnswerMsg::Resync { key }),
                Ok(Some(control @ (Frame::Reconfigure(_) | Frame::ReconfigAck(_)))) => {
                    conn.controls.push(control);
                }
                Ok(Some(other)) => {
                    close(Some(format!(
                        "unexpected frame on a transport connection: {other:?}"
                    )));
                    return;
                }
                Ok(None) => break,
                Err(e) => {
                    close(Some(e.to_string()));
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                close(None);
                return;
            }
            Ok(n) => reader.feed(&buf[..n]),
            Err(e) => {
                match map_io(e) {
                    TransportError::Closed => close(None),
                    TransportError::Io(detail) => close(Some(detail)),
                }
                return;
            }
        }
    }
}

/// Reads exactly one frame during the handshake (bounded by the stream's
/// read timeout). Returns the frame together with the reader, which may
/// have buffered past it — the peer is free to start protocol traffic as
/// soon as its side of the handshake completes, and those read-ahead
/// bytes belong to the connection's frame stream.
fn read_one_frame(stream: &mut TcpStream) -> Result<(Frame, FrameReader), NetError> {
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 1024];
    loop {
        if let Some(frame) = reader.next_frame()? {
            return Ok((frame, reader));
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(NetError::Closed);
        }
        reader.feed(&buf[..n]);
    }
}

/// Validates a peer's HELLO against this run's version and topology hash.
fn check_hello(frame: &Frame, topology_hash: u64) -> Result<usize, NetError> {
    let Frame::Hello {
        version,
        topology_hash: theirs,
        process,
    } = frame
    else {
        return Err(NetError::Handshake(format!(
            "expected HELLO, got {frame:?}"
        )));
    };
    if *version != PROTOCOL_VERSION {
        return Err(NetError::Handshake(format!(
            "protocol version mismatch: peer speaks {version}, this node speaks {PROTOCOL_VERSION}"
        )));
    }
    if *theirs != topology_hash {
        return Err(NetError::Handshake(format!(
            "topology hash mismatch: peer launched with {theirs:#x}, this node with {topology_hash:#x}"
        )));
    }
    Ok(*process as usize)
}

/// A bound-but-unconnected node endpoint. Binding first and connecting
/// second lets a launcher distribute every node's concrete address before
/// any node starts dialing.
#[derive(Debug)]
pub struct TcpMeshBuilder {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpMeshBuilder {
    /// Binds this node's listening socket (use port 0 for an ephemeral
    /// port, then read it back with [`TcpMeshBuilder::local_addr`]).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the bind fails.
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpMeshBuilder { listener, addr })
    }

    /// The bound address, with any ephemeral port resolved.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Establishes the mesh: connects to every adjacent peer with a lower
    /// id, accepts from every one with a higher id, and handshakes each
    /// connection (version + topology hash + peer identity).
    ///
    /// `addrs[p]` is process `p`'s listening address; `neighbors` are the
    /// processes adjacent to `process` in the run's topology.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on socket failures or an exhausted connect
    /// deadline, [`NetError::Handshake`] when a peer speaks the wrong
    /// protocol version, disagrees on the topology hash, or identifies as
    /// a process this node did not expect.
    pub fn establish(
        self,
        process: usize,
        addrs: &[SocketAddr],
        neighbors: &[usize],
        topology_hash: u64,
        timeout: Duration,
    ) -> Result<TcpMesh, NetError> {
        let deadline = Instant::now() + timeout;
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            topology_hash,
            process: process as u32,
        };
        let mut streams: BTreeMap<usize, (TcpStream, FrameReader)> = BTreeMap::new();

        // Dial every lower-id neighbor (its listener is already bound; a
        // refused connect only means its OS process is still starting).
        for &peer in neighbors.iter().filter(|&&p| p < process) {
            let addr = addrs.get(peer).copied().ok_or_else(|| {
                NetError::Handshake(format!("no address for peer process {peer}"))
            })?;
            let mut stream = connect_retry(addr, deadline)?;
            stream.set_read_timeout(Some(remaining(deadline)?))?;
            stream.write_all(&hello.encode()?)?;
            let (frame, reader) = read_one_frame(&mut stream)?;
            let said = check_hello(&frame, topology_hash)?;
            if said != peer {
                return Err(NetError::Handshake(format!(
                    "dialed process {peer} at {addr} but it identifies as process {said}"
                )));
            }
            streams.insert(peer, (stream, reader));
        }

        // Accept every higher-id neighbor; inbound connections identify
        // themselves by their HELLO.
        let mut expected: Vec<usize> = neighbors.iter().copied().filter(|&p| p > process).collect();
        while !expected.is_empty() {
            self.listener.set_nonblocking(false)?;
            // Bound the accept wait so a vanished peer cannot hang us past
            // the deadline.
            let (mut stream, _) = accept_deadline(&self.listener, deadline)?;
            stream.set_read_timeout(Some(remaining(deadline)?))?;
            let (frame, reader) = read_one_frame(&mut stream)?;
            let said = check_hello(&frame, topology_hash)?;
            let Some(slot) = expected.iter().position(|&p| p == said) else {
                return Err(NetError::Handshake(format!(
                    "process {said} connected, but this node only expects {expected:?}"
                )));
            };
            stream.write_all(&hello.encode()?)?;
            expected.swap_remove(slot);
            streams.insert(said, (stream, reader));
        }

        // Promote each handshaken stream into a connection with a reader
        // thread.
        let mut conns = BTreeMap::new();
        for (peer, (stream, reader)) in streams {
            stream.set_read_timeout(None)?;
            stream.set_nodelay(true)?;
            let read_half = stream.try_clone()?;
            let conn = Arc::new(Conn {
                writer: Mutex::new(WriteHalf {
                    stream,
                    buf: Vec::new(),
                }),
                offers: Mailbox::new(),
                answers: Mailbox::new(),
                controls: Mailbox::new(),
            });
            let for_reader = Arc::clone(&conn);
            std::thread::Builder::new()
                .name(format!("synctime-net-rx-{process}-{peer}"))
                .spawn(move || reader_loop(read_half, for_reader, reader))?;
            conns.insert(peer, conn);
        }
        Ok(TcpMesh { conns })
    }
}

fn remaining(deadline: Instant) -> Result<Duration, NetError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(NetError::Io("mesh establishment timed out".to_string()));
    }
    Ok(left)
}

fn connect_retry(addr: SocketAddr, deadline: Instant) -> Result<TcpStream, NetError> {
    loop {
        match TcpStream::connect_timeout(&addr, remaining(deadline)?) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() + CONNECT_RETRY_STEP >= deadline {
                    return Err(NetError::Io(format!("connecting to {addr}: {e}")));
                }
                std::thread::sleep(CONNECT_RETRY_STEP);
            }
        }
    }
}

fn accept_deadline(
    listener: &TcpListener,
    deadline: Instant,
) -> Result<(TcpStream, SocketAddr), NetError> {
    // `TcpListener` has no native accept timeout; poll in non-blocking
    // mode at a coarse cadence instead.
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok(pair) => {
                pair.0.set_nonblocking(false)?;
                return Ok(pair);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                remaining(deadline)?;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// The per-peer transport endpoints `Runtime::run_process` takes.
type PeerChannels = (
    HashMap<usize, Arc<dyn TxChannel>>,
    HashMap<usize, Arc<dyn RxChannel>>,
);

/// One node's established connections to its adjacent peers, ready to be
/// split into the runtime's per-channel transport endpoints.
#[derive(Debug)]
pub struct TcpMesh {
    conns: BTreeMap<usize, Arc<Conn>>,
}

impl TcpMesh {
    /// The per-peer channel endpoints for `Runtime::run_process`: one
    /// [`TxChannel`] and one [`RxChannel`] per adjacent peer. Call once.
    pub fn channels(&self) -> PeerChannels {
        let mut tx: HashMap<usize, Arc<dyn TxChannel>> = HashMap::new();
        let mut rx: HashMap<usize, Arc<dyn RxChannel>> = HashMap::new();
        for (&peer, conn) in &self.conns {
            tx.insert(
                peer,
                Arc::new(TcpTx {
                    conn: Arc::clone(conn),
                    inflight: Mutex::new(None),
                }),
            );
            rx.insert(
                peer,
                Arc::new(TcpRx {
                    conn: Arc::clone(conn),
                    pending: Mutex::new(None),
                }),
            );
        }
        (tx, rx)
    }

    /// Sends a RECONFIGURE control frame (prepare or commit) to `peer`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when no connection to `peer` exists or the write
    /// fails, [`NetError::Closed`] when the peer has gone away.
    pub fn send_reconfigure(
        &self,
        peer: usize,
        frame: &crate::reconfig::ReconfigFrame,
    ) -> Result<(), NetError> {
        self.conn_to(peer)?
            .write_with(|out| {
                crate::reconfig::encode_reconfigure_into(
                    out,
                    crate::frame::TYPE_RECONFIGURE,
                    frame,
                );
            })
            .map_err(transport_to_net)
    }

    /// Sends a RECONFIG_ACK control frame to `peer`.
    ///
    /// # Errors
    ///
    /// Same as [`TcpMesh::send_reconfigure`].
    pub fn send_reconfig_ack(
        &self,
        peer: usize,
        ack: &crate::reconfig::ReconfigAckFrame,
    ) -> Result<(), NetError> {
        self.conn_to(peer)?
            .write_with(|out| {
                crate::reconfig::encode_reconfig_ack_into(
                    out,
                    crate::frame::TYPE_RECONFIG_ACK,
                    ack,
                );
            })
            .map_err(transport_to_net)
    }

    /// Waits (until `deadline`) for the next control frame from `peer` —
    /// a [`Frame::Reconfigure`] or [`Frame::ReconfigAck`] routed to the
    /// connection's control mailbox by its reader thread. Data traffic
    /// (offers, acks) is unaffected: it flows through its own mailboxes
    /// while a reconfiguration is in flight.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when no connection to `peer` exists or the
    /// deadline passes, [`NetError::Closed`] when the peer has gone away.
    pub fn recv_control(&self, peer: usize, deadline: Instant) -> Result<Frame, NetError> {
        let conn = self.conn_to(peer)?;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(NetError::Io(format!(
                    "timed out waiting for a control frame from process {peer}"
                )));
            }
            match conn.controls.pop(Some(left)).map_err(transport_to_net)? {
                Polled::Ready(frame) => return Ok(frame),
                Polled::Pending => continue,
            }
        }
    }

    fn conn_to(&self, peer: usize) -> Result<&Arc<Conn>, NetError> {
        self.conns
            .get(&peer)
            .ok_or_else(|| NetError::Io(format!("no connection to process {peer}")))
    }

    /// Closes every peer socket. Peers observe the close as this process
    /// terminating — the distributed analogue of a thread exiting. Also
    /// runs on drop, so a panicking node still unblocks its peers.
    pub fn shutdown(&self) {
        for conn in self.conns.values() {
            conn.shutdown();
        }
    }
}

impl Drop for TcpMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The sending endpoint of one TCP-backed channel.
#[derive(Debug)]
struct TcpTx {
    conn: Arc<Conn>,
    /// The in-flight offer's key and write instant: over TCP the remote
    /// take is unobservable, so the ack-latency sample starts at the
    /// offer write and measures the full round trip.
    inflight: Mutex<Option<(u64, Instant)>>,
}

impl TxChannel for TcpTx {
    fn poll_ready(&self, _cap: Option<Duration>) -> Result<Polled<ReadySlot>, TransportError> {
        // A socket has no slot occupancy: the peer's mailbox queues
        // offers, and resync debris surfaces as a RESYNC answer to the
        // next offer rather than as channel state.
        Ok(Polled::Ready(ReadySlot {
            resync_debris: false,
        }))
    }

    fn offer(
        &self,
        key: u64,
        payload: u64,
        vector: &[u8],
        _handoff: bool,
    ) -> Result<(), TransportError> {
        // Borrowed encode: the timestamp vector goes straight from the
        // caller's slice into the connection's write buffer. Offers are
        // never handed over a socket: the receiver's posted ack stays on
        // its machine.
        self.conn
            .write_with(|out| encode_offer_into(out, key, payload, vector))?;
        *self.inflight.lock().unwrap_or_else(PoisonError::into_inner) = Some((key, Instant::now()));
        Ok(())
    }

    fn poll_answer(
        &self,
        key: u64,
        cap: Option<Duration>,
        ack: &mut Vec<u8>,
    ) -> Result<Polled<SendAnswer>, TransportError> {
        loop {
            match self.conn.answers.pop(cap)? {
                Polled::Ready(AnswerMsg::Ack {
                    key: k,
                    ack: bytes,
                    at,
                }) if k == key => {
                    ack.clear();
                    ack.extend_from_slice(&bytes);
                    let taken = self
                        .inflight
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        .map_or_else(Instant::now, |(_, at)| at);
                    return Ok(Polled::Ready(SendAnswer::Acked { taken, acked: at }));
                }
                Polled::Ready(AnswerMsg::Resync { key: k }) if k == key => {
                    return Ok(Polled::Ready(SendAnswer::ResyncRequested));
                }
                // Stale debris answering an offer this send already gave
                // up on: discard and keep draining.
                Polled::Ready(_) => {}
                Polled::Pending => return Ok(Polled::Pending),
            }
        }
    }

    fn retract(&self, _key: u64) {
        // The offer already left the machine; nothing to unsend. A late
        // answer is discarded as stale by the next poll_answer.
        *self.inflight.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// The receiving endpoint of one TCP-backed channel.
#[derive(Debug)]
struct TcpRx {
    conn: Arc<Conn>,
    /// The taken-but-unanswered offer's key, consumed by `answer`.
    pending: Mutex<Option<u64>>,
}

impl RxChannel for TcpRx {
    fn poll_offer(
        &self,
        cap: Option<Duration>,
        _posted: Option<&[u8]>,
        vector: &mut Vec<u8>,
    ) -> Result<Polled<RawOffer>, TransportError> {
        // A posted ack is ignored: the sender is on another machine, so
        // the offer is always answered with an ACK frame.
        match self.conn.offers.pop(cap)? {
            Polled::Ready((offer, bytes)) => {
                *self.pending.lock().unwrap_or_else(PoisonError::into_inner) = Some(offer.key);
                vector.clear();
                vector.extend_from_slice(&bytes);
                Ok(Polled::Ready(offer))
            }
            Polled::Pending => Ok(Polled::Pending),
        }
    }

    fn answer(&self, answer: OfferAnswer<'_>) -> Result<(), TransportError> {
        let Some(key) = self
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        else {
            return Err(TransportError::Io(
                "answer without a taken offer".to_string(),
            ));
        };
        match answer {
            OfferAnswer::Ack(ack) => self.conn.write_with(|out| encode_ack_into(out, key, ack)),
            OfferAnswer::Resync => self.conn.write_with(|out| encode_resync_into(out, key)),
        }
    }
}
