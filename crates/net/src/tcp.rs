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
//! A connection has no thread of its own: the runtime only ever waits on
//! the one channel it names, so the thread that waits reads that
//! connection's socket itself. Every complete frame a read brings in is
//! filed in its queue (offers from the peer, answers to this end's
//! offers, reconfiguration controls), whichever poll asked, and a poll
//! whose queue is empty reads the socket once: without waiting for a zero
//! cap, otherwise for at most the cap (250 ms without one).
//!
//! * A send's `offer` writes an OFFER frame, and its `poll_answer` takes
//!   the answering ACK or RESYNC off the answer queue. Over TCP the
//!   sender cannot observe the remote take, so the ack-latency sample
//!   starts at the offer write and measures the full round trip.
//! * A receive's `poll_offer` takes the peer's OFFER frames off the offer
//!   queue; its `answer` writes the ACK/RESYNC back. An offer's
//!   `offered_at` is when the waiting thread read it.
//! * A peer's socket closing or resetting maps to
//!   [`TransportError::Closed`], which the runtime reports as
//!   `PeerTerminated` — exactly how a local thread's exit surfaces. Frames
//!   read before the close are delivered before it is reported, so an
//!   acknowledgement that was written before the peer went away still
//!   completes the rendezvous on this side.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
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

/// How long `establish` keeps retrying a refused connect before giving
/// up: peers may not have bound their listeners yet.
const CONNECT_RETRY_STEP: Duration = Duration::from_millis(20);

/// How long one read may wait when the caller gives no cap; the caller
/// re-runs its abort/liveness checks at least this often.
const READ_BACKSTOP: Duration = Duration::from_millis(250);

/// An answer frame routed back to the sending endpoint.
#[derive(Debug)]
enum AnswerMsg {
    Ack { key: u64, ack: Vec<u8>, at: Instant },
    Resync { key: u64 },
}

/// The read side of a connection: the frames read off the socket and not
/// yet taken, one queue per purpose. RECONFIGURE/RECONFIG_ACK controls
/// have their own queue, so an in-flight reconfiguration never reorders
/// against pending offers or acks.
#[derive(Debug)]
struct ReadHalf {
    /// Bytes read but not yet framed. It starts as the handshake's
    /// reader: a peer may start protocol traffic the instant its own
    /// handshake is done, so the handshake read can legitimately buffer
    /// past its HELLO.
    frames: FrameReader,
    chunk: Vec<u8>,
    /// Offers from the peer, each with its vector's bytes.
    offers: VecDeque<(RawOffer, Vec<u8>)>,
    answers: VecDeque<AnswerMsg>,
    controls: VecDeque<Frame>,
    /// How the connection ended, once a read met EOF (`Closed`), a reset
    /// (`Closed`) or a failure or bad frame (`Io`). Frames filed before
    /// stay poppable.
    ended: Option<TransportError>,
    /// The read timeout this end last set on the socket.
    timeout: Option<Duration>,
}

impl ReadHalf {
    fn new(frames: FrameReader) -> Self {
        let mut half = ReadHalf {
            frames,
            chunk: vec![0; 16 * 1024],
            offers: VecDeque::new(),
            answers: VecDeque::new(),
            controls: VecDeque::new(),
            ended: None,
            timeout: None,
        };
        half.file_frames();
        half
    }

    /// Moves every complete frame out of the reader into its queue. A
    /// frame that does not decode, or has no place on a transport
    /// connection, ends the connection: framing is lost.
    fn file_frames(&mut self) {
        loop {
            let frame = match self.frames.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(e) => {
                    self.ended = Some(TransportError::Io(e.to_string()));
                    return;
                }
            };
            match frame {
                Frame::Offer {
                    key,
                    payload,
                    vector,
                } => self.offers.push_back((
                    RawOffer {
                        key,
                        payload,
                        offered_at: Instant::now(),
                        handed: false,
                    },
                    vector,
                )),
                Frame::Ack { key, ack } => self.answers.push_back(AnswerMsg::Ack {
                    key,
                    ack,
                    at: Instant::now(),
                }),
                Frame::Resync { key } => self.answers.push_back(AnswerMsg::Resync { key }),
                control @ (Frame::Reconfigure(_) | Frame::ReconfigAck(_)) => {
                    self.controls.push_back(control);
                }
                other => {
                    self.ended = Some(TransportError::Io(format!(
                        "unexpected frame on a transport connection: {other:?}"
                    )));
                    return;
                }
            }
        }
    }
}

/// One established peer connection. The Tx and Rx endpoints share it:
/// writes go through the encode buffer's lock so frames interleave
/// whole, and whichever endpoint waits reads the socket under the read
/// lock. Reusing the buffer keeps the steady-state offer/ack path free of
/// per-frame allocation.
#[derive(Debug)]
struct Conn {
    /// The socket, in blocking mode outside a zero-cap read.
    stream: TcpStream,
    out: Mutex<Vec<u8>>,
    read: Mutex<ReadHalf>,
}

impl Conn {
    /// Encodes one frame into the shared write buffer (via `fill`) and
    /// writes it, mapping close-like failures to
    /// [`TransportError::Closed`].
    fn write_with(&self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), TransportError> {
        let mut buf = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        buf.clear();
        fill(&mut buf);
        (&self.stream).write_all(&buf).map_err(map_io)
    }

    /// One bounded poll of the queue `queue` picks: pops its next frame
    /// or, when it is empty, reads the socket once (see
    /// [`Conn::read_once`]) and pops again. Queued frames are always
    /// delivered before the connection's end is reported.
    fn poll<T>(
        &self,
        cap: Option<Duration>,
        queue: fn(&mut ReadHalf) -> &mut VecDeque<T>,
    ) -> Result<Polled<T>, TransportError> {
        let mut half = self.read.lock().unwrap_or_else(PoisonError::into_inner);
        if queue(&mut half).is_empty() && half.ended.is_none() {
            self.read_once(&mut half, cap);
        }
        if let Some(item) = queue(&mut half).pop_front() {
            return Ok(Polled::Ready(item));
        }
        match &half.ended {
            Some(e) => Err(e.clone()),
            None => Ok(Polled::Pending),
        }
    }

    /// Reads the socket once and files every complete frame. A zero cap
    /// takes only what the kernel already holds; any other cap waits at
    /// most that long, backstopped by [`READ_BACKSTOP`]. A read that would
    /// block, times out or is interrupted leaves the connection as it was.
    fn read_once(&self, half: &mut ReadHalf, cap: Option<Duration>) {
        let mut stream = &self.stream;
        let read = if cap == Some(Duration::ZERO) {
            // Non-blocking is a flag of the socket, not of this read: the
            // write lock keeps every write from seeing it.
            let _writes = self.out.lock().unwrap_or_else(PoisonError::into_inner);
            let read = stream
                .set_nonblocking(true)
                .and_then(|()| stream.read(&mut half.chunk));
            stream.set_nonblocking(false).and(read)
        } else {
            let wait = Some(cap.map_or(READ_BACKSTOP, |c| c.min(READ_BACKSTOP)));
            let set = if half.timeout == wait {
                Ok(())
            } else {
                half.timeout = wait;
                stream.set_read_timeout(wait)
            };
            set.and_then(|()| stream.read(&mut half.chunk))
        };
        match read {
            Ok(0) => half.ended = Some(TransportError::Closed),
            Ok(n) => {
                half.frames.feed(&half.chunk[..n]);
                half.file_frames();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => half.ended = Some(map_io(e)),
        }
    }

    /// Shuts the socket down, waking any read blocked on it. Takes no
    /// lock, so it never waits behind a read or a write.
    fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

fn transport_to_net(e: TransportError) -> NetError {
    match e {
        TransportError::Closed => NetError::Closed,
        TransportError::Io(detail) => NetError::Io(detail),
    }
}

fn map_io(e: std::io::Error) -> TransportError {
    match e.kind() {
        ErrorKind::BrokenPipe
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::UnexpectedEof
        | ErrorKind::NotConnected => TransportError::Closed,
        _ => TransportError::Io(e.to_string()),
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

        let mut conns = BTreeMap::new();
        for (peer, (stream, frames)) in streams {
            stream.set_nodelay(true)?;
            let conn = Conn {
                stream,
                out: Mutex::new(Vec::new()),
                read: Mutex::new(ReadHalf::new(frames)),
            };
            conns.insert(peer, Arc::new(conn));
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
    /// [`TxChannel`] and one [`RxChannel`] per adjacent peer. Every call
    /// returns endpoints over the same connections, sharing their queues,
    /// so a node that runs several epochs over one mesh calls it once per
    /// epoch.
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
    /// a [`Frame::Reconfigure`] or [`Frame::ReconfigAck`], read off the
    /// connection into its control queue. Data traffic (offers, acks) is
    /// unaffected: a read files it in its own queues while a
    /// reconfiguration is in flight.
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
            match conn
                .poll(Some(left), |r| &mut r.controls)
                .map_err(transport_to_net)?
            {
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

    /// Closes every peer socket, waking any read blocked on one. Peers
    /// observe the close as this process terminating — the distributed
    /// analogue of a thread exiting. Also runs on drop, so a panicking
    /// node still unblocks its peers.
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
        // A socket has no slot occupancy: the peer's socket queues
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
            match self.conn.poll(cap, |r| &mut r.answers)? {
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
        match self.conn.poll(cap, |r| &mut r.offers)? {
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
