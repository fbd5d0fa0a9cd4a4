use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use synctime_core::clock::{Clock, ClockBackend, DenseVec, TreeClock};
use synctime_core::online::GenericProcessClock;
use synctime_core::wire::{
    ack_frame_bytes, offer_frame_bytes, resync_frame_bytes, StreamDecoder, StreamEncoder,
    StreamError,
};
use synctime_core::{CoreError, MessageTimestamps, VectorTime};
use synctime_graph::{Edge, EdgeDecomposition, Graph, GroupRemap};
use synctime_obs::{DeadlockDiagnosis, Recorder, RunStats, WaitEdge, WaitOp};
use synctime_trace::{EventId, EventKind, MessageId, ProcessId, SyncComputation, TraceError};

use crate::fault::{FaultAction, FaultInjector};
use crate::matcher::{ChannelSlot, SlotState, FRAME_CAPACITY};
use crate::transport::{
    LocalRx, LocalTx, OfferAnswer, Polled, RawOffer, RxChannel, SendAnswer, TransportError,
    TxChannel,
};
use crate::RuntimeError;

/// Locks a mutex, recovering from poisoning instead of panicking: every
/// value behind these locks is written atomically from the holder's
/// perspective (whole-`Option` replacements), so a panic between lock and
/// unlock cannot leave a torn value — survivors may safely keep going.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Most consecutive resync round-trips one rendezvous tolerates before the
/// channel's data stream is declared desynchronised beyond recovery.
const MAX_RESYNC: u32 = 4;

/// Default number of backoff retries a rendezvous timeout allows before
/// [`RuntimeError::RendezvousTimeout`] surfaces (each retry doubles the
/// previous wait budget).
pub const DEFAULT_RENDEZVOUS_RETRIES: u32 = 3;

/// A process's registered wait while parked in a rendezvous operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockedOn {
    op: WaitOp,
    peer: ProcessId,
    since: Instant,
}

impl BlockedOn {
    /// The directed channel `(from, to)` this wait of process `p` is on.
    fn channel(&self, p: ProcessId) -> (ProcessId, ProcessId) {
        match self.op {
            WaitOp::ReceiveFrom => (self.peer, p),
            WaitOp::SendTo | WaitOp::AckFrom => (p, self.peer),
        }
    }

    /// Whether the channel's slot state confirms the wait (`None`: the
    /// channel has no in-process slot). A sender waits on its receiver
    /// only while an offer sits untaken, handed or not. A receiver waits
    /// on its sender only while it is parked with its acknowledgement
    /// posted (`Waiting`): a receiver that has taken its offer leaves the
    /// slot `Empty` (or `Acked`) yet stays registered until it runs
    /// again, and a receiver holding a handed offer is about to take it.
    /// Anything else is a rendezvous in progress — an offer about to be
    /// taken, or one already taken whose receiver or sender is not yet
    /// rescheduled.
    fn confirmed_by(&self, state: Option<SlotState>) -> bool {
        match self.op {
            WaitOp::ReceiveFrom => state.is_none_or(|s| s == SlotState::Waiting),
            WaitOp::SendTo | WaitOp::AckFrom => state.is_some_and(SlotState::holds_offer),
        }
    }
}

/// State shared between the process threads and the watchdog.
#[derive(Debug)]
struct RunShared {
    /// What each process is currently parked on, if anything.
    blocked: Vec<Mutex<Option<BlockedOn>>>,
    /// Whether each process's behavior is still running.
    live: Vec<AtomicBool>,
    /// Set by the watchdog to make every parked operation bail out.
    abort: AtomicBool,
    /// Set once every behavior has been joined; stops the watchdog.
    finished: AtomicBool,
    /// The diagnosis backing `abort`, filled in before the flag is set.
    diagnosis: Mutex<Option<DeadlockDiagnosis>>,
    /// Every channel slot of the run keyed by `(from, to)`: the watchdog
    /// reads them to confirm waits, and aborts and process exits wake
    /// parked threads through them promptly (the park backstop makes the
    /// wakeup best-effort redundancy, not a correctness requirement).
    slots: HashMap<(ProcessId, ProcessId), Arc<ChannelSlot>>,
}

impl RunShared {
    fn new(n: usize, slots: HashMap<(ProcessId, ProcessId), Arc<ChannelSlot>>) -> Self {
        RunShared {
            blocked: (0..n).map(|_| Mutex::new(None)).collect(),
            live: (0..n).map(|_| AtomicBool::new(true)).collect(),
            abort: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            diagnosis: Mutex::new(None),
            slots,
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Wakes every thread parked on any slot so it re-checks abort and
    /// peer-liveness conditions.
    fn wake_all(&self) {
        for slot in self.slots.values() {
            slot.wake();
        }
    }

    fn deadlock_error(&self) -> RuntimeError {
        let diagnosis = lock_recover(&self.diagnosis)
            .clone()
            .unwrap_or(DeadlockDiagnosis {
                waiting: Vec::new(),
                cycle: Vec::new(),
                terminated: Vec::new(),
            });
        RuntimeError::Deadlock { diagnosis }
    }
}

/// The watchdog body: periodically snapshots the parked-thread registry,
/// builds the wait-for graph over threads parked beyond `timeout`, and
/// aborts the run as soon as that graph contains a cycle.
///
/// Unlike PR 1's detector (which required *every* live process to be
/// blocked), cycle detection reports partial deadlocks — a wait-for cycle
/// among a subset of processes aborts the run even while unrelated
/// processes keep computing — and never flags slow-but-live runs: a chain
/// of parked threads whose head is merely napping has no cycle, no matter
/// how long the chain has been parked.
///
/// A registration alone does not make an edge: the thread registers when
/// its first poll comes back pending and clears the registration only
/// after it has been rescheduled, so a rendezvous in progress can look
/// like two peers waiting on each other. Each snapshot therefore reads
/// every candidate registration, then each candidate's channel slot once
/// (both endpoints of a channel see the same reading), then every
/// registration again, and keeps an edge only if the registration did not
/// change and the slot confirms the wait (see [`BlockedOn::confirmed_by`]).
/// Every kept edge then held over one common interval, and none of the
/// waits in a kept cycle can end before its successor's does: the cycle
/// is a deadlock, not a rendezvous caught mid-flight.
///
/// The thread parks between polls; [`Runtime::run_tolerant`] unparks it as
/// soon as the last behavior has been joined, so a run ends with its
/// behaviors rather than at the next poll boundary.
fn watchdog_loop(shared: &RunShared, timeout: Duration) {
    let poll = (timeout / 8).clamp(Duration::from_millis(1), Duration::from_millis(50));
    loop {
        std::thread::park_timeout(poll);
        if shared.finished.load(Ordering::Acquire) || shared.aborted() {
            return;
        }
        let mut candidates = Vec::new();
        let mut terminated = Vec::new();
        for (p, live) in shared.live.iter().enumerate() {
            if !live.load(Ordering::Acquire) {
                terminated.push(p);
                continue;
            }
            if let Some(b) = *lock_recover(&shared.blocked[p]) {
                if b.since.elapsed() >= timeout {
                    candidates.push((p, b));
                }
            }
        }
        if candidates.is_empty() {
            continue;
        }
        let mut states = HashMap::with_capacity(candidates.len());
        for (p, b) in &candidates {
            let channel = b.channel(*p);
            states
                .entry(channel)
                .or_insert_with(|| shared.slots.get(&channel).map(|s| s.state()));
        }
        let expired: Vec<WaitEdge> = candidates
            .into_iter()
            .filter(|(p, b)| {
                *lock_recover(&shared.blocked[*p]) == Some(*b)
                    && b.confirmed_by(states[&b.channel(*p)])
            })
            .map(|(p, b)| WaitEdge {
                process: p,
                op: b.op,
                peer: b.peer,
                blocked_ms: b.since.elapsed().as_millis() as u64,
            })
            .collect();
        if expired.is_empty() {
            continue;
        }
        // Waits on terminated peers resolve with `PeerTerminated` on their
        // own — excluding them from cycle extraction keeps an injected
        // crash from being misreported as a deadlock.
        let diagnosis = DeadlockDiagnosis::from_waiting_filtered(expired, terminated);
        if diagnosis.cycle.is_empty() {
            // Parked threads, but every wait chain dead-ends in a process
            // that is still making progress: slow, not deadlocked.
            continue;
        }
        *lock_recover(&shared.diagnosis) = Some(diagnosis);
        shared.abort.store(true, Ordering::Release);
        shared.wake_all();
        return;
    }
}

/// A live notification emitted to an observer as each rendezvous completes
/// (from the sender's side, once the acknowledgement confirmed the agreed
/// timestamp). This is what a monitoring service consumes — see
/// `synctime-detect`'s `monitor` module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveObservation {
    /// The message's globally unique key (sender id in the high bits).
    pub key: u64,
    /// The sending process.
    pub sender: ProcessId,
    /// The receiving process.
    pub receiver: ProcessId,
    /// The agreed timestamp.
    pub stamp: VectorTime,
}

/// Entries buffered per process before a burst is delivered to the log
/// sink. Bounds both the wakeup amortisation and how far a durable
/// writer can lag a live process (a crash loses at most this many
/// unflushed entries per process — recovery trims to a consistent
/// prefix regardless).
const SINK_BATCH: usize = 64;

/// One log entry on its way to a durable store: the entry itself plus the
/// coordinates that make replay order-independent — which process logged
/// it and at which position of that process's log. Emitted to the sink
/// installed by [`Runtime::with_log_sink`] in per-process bursts (a
/// small buffer, flushed when full and when the behavior exits), so an
/// external writer (the `synctime-store` ingest thread) sees exactly the
/// log the run keeps without the run paying a receiver wakeup per entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistEvent {
    /// The process whose log gained the entry.
    pub process: ProcessId,
    /// The entry's index in that process's log (0-based, dense): the
    /// replay key a store sorts and gap-checks on.
    pub pseq: u64,
    /// The entry, exactly as logged.
    pub entry: LogEntry,
}

/// One entry of a process's execution log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry {
    /// This process sent a message.
    Sent {
        /// The receiver.
        to: ProcessId,
        /// The message's reconstruction key.
        key: u64,
        /// The agreed timestamp.
        stamp: VectorTime,
    },
    /// This process received a message.
    Received {
        /// The sender.
        from: ProcessId,
        /// The message's reconstruction key.
        key: u64,
        /// The agreed timestamp.
        stamp: VectorTime,
    },
    /// A local event.
    Internal,
}

impl LogEntry {
    /// The agreed timestamp of a message entry; `None` for a local event.
    pub fn stamp(&self) -> Option<&VectorTime> {
        match self {
            LogEntry::Sent { stamp, .. } | LogEntry::Received { stamp, .. } => Some(stamp),
            LogEntry::Internal => None,
        }
    }
}

/// The runtime's process clock, dispatching the Figure 5 steps to the
/// selected [`ClockBackend`]. Both backends produce identical stamps —
/// the protocol is deterministic component arithmetic — so backend choice
/// changes merge cost, never a single logged byte.
#[derive(Debug, Clone)]
enum BackendClock {
    Dense(GenericProcessClock<DenseVec>),
    Tree(GenericProcessClock<TreeClock>),
}

impl BackendClock {
    /// Builds the clock `backend` calls for, starting from `initial` when
    /// given (the uniform baseline a reconfigured epoch resumes from) and
    /// from zero otherwise.
    fn new(backend: ClockBackend, dim: usize, initial: Option<&VectorTime>) -> Self {
        fn start<C: Clock>(dim: usize, initial: Option<&VectorTime>) -> GenericProcessClock<C> {
            match initial {
                Some(v) => C::from_vector(v).into(),
                None => GenericProcessClock::new(dim),
            }
        }
        match backend {
            ClockBackend::Dense => BackendClock::Dense(start(dim, initial)),
            ClockBackend::Tree => BackendClock::Tree(start(dim, initial)),
        }
    }

    /// The current local clock in dense interchange form.
    fn current_vector(&self) -> VectorTime {
        match self {
            BackendClock::Dense(c) => c.current_vector(),
            BackendClock::Tree(c) => c.current_vector(),
        }
    }

    /// The current components, borrowed: the vector to piggyback on an
    /// outgoing message (line 02), and the pre-update vector a receiver
    /// posts as its acknowledgement (line 04).
    fn as_slice(&self) -> &[u64] {
        match self {
            BackendClock::Dense(c) => c.current().as_slice(),
            BackendClock::Tree(c) => c.current().as_slice(),
        }
    }

    /// Receiver side of the rendezvous (lines 04–07): writes the
    /// pre-update vector into `ack` and returns the stamp. The tree
    /// backend merges through the Singhal–Kshemkalyani change-set when the
    /// stream decoder recovered one — its sublinear path; dense merges the
    /// full vector, its fastest path.
    fn on_receive(
        &mut self,
        vector: &[u64],
        changes: Option<&[(usize, u64)]>,
        group: usize,
        ack: &mut Vec<u64>,
    ) -> Result<VectorTime, CoreError> {
        match self {
            BackendClock::Dense(c) => c.on_receive_interchange(vector, None, group, ack),
            BackendClock::Tree(c) => c.on_receive_interchange(vector, changes, group, ack),
        }
    }

    /// Sender side of the rendezvous completion (lines 09–11).
    fn on_acknowledgement(
        &mut self,
        ack: &[u64],
        changes: Option<&[(usize, u64)]>,
        group: usize,
    ) -> Result<VectorTime, CoreError> {
        match self {
            BackendClock::Dense(c) => c.on_acknowledgement_interchange(ack, None, group),
            BackendClock::Tree(c) => c.on_acknowledgement_interchange(ack, changes, group),
        }
    }
}

/// The per-process API available to a [`Behavior`]: blocking rendezvous
/// sends and receives with automatic timestamp piggybacking, plus internal
/// events.
#[derive(Debug)]
pub struct ProcessCtx {
    id: ProcessId,
    clock: BackendClock,
    decomposition: EdgeDecomposition,
    observer: Option<std::sync::mpsc::Sender<LiveObservation>>,
    sink: Option<std::sync::mpsc::Sender<Vec<PersistEvent>>>,
    /// Entries awaiting delivery to `sink`, shipped as one `Vec` per
    /// burst of [`SINK_BATCH`] (and at behavior exit): one send — one
    /// allocation handoff, one receiver wakeup — per burst instead of
    /// one per entry keeps durable ingestion off the rendezvous fast
    /// path even on a single hardware thread.
    sink_buf: Vec<PersistEvent>,
    seq: u64,
    /// Sending endpoint of each outgoing channel, keyed by receiver. The
    /// medium behind the trait object is interchangeable: in-process slots
    /// for [`Runtime::run`], sockets for [`Runtime::run_process`].
    tx: HashMap<ProcessId, Arc<dyn TxChannel>>,
    /// Receiving endpoint of each incoming channel, keyed by sender.
    rx: HashMap<ProcessId, Arc<dyn RxChannel>>,
    log: Vec<LogEntry>,
    shared: Arc<RunShared>,
    recorder: Arc<Recorder>,
    /// What one rendezvous would cost with full fixed-width vectors: the
    /// data message (key + payload + `d`-component vector) plus the
    /// acknowledgement (another `d`-component vector). The before-deltas
    /// baseline reported as `wire_bytes_full`.
    rendezvous_bytes_full: u64,
    /// Delta encoder for vectors piggybacked on outgoing data messages,
    /// one sequence-framed Singhal–Kshemkalyani stream per receiver. The
    /// per-channel FIFO slot keeps each stream in lock-step with the
    /// receiver's `dec_data`; the sequence framing makes any slip
    /// detectable and the resync protocol repairs it with a full frame.
    enc_data: StreamEncoder,
    /// Delta decoder for vectors arriving on incoming data messages, one
    /// stream per sender.
    dec_data: StreamDecoder,
    /// Delta encoder for acknowledgement vectors sent back to senders.
    enc_ack: StreamEncoder,
    /// Delta decoder for acknowledgement vectors coming back from
    /// receivers.
    dec_ack: StreamDecoder,
    /// The offer frame: encoded by `send`, received by `receive_from`.
    /// This and the next three buffers are reused by every rendezvous, so
    /// a warmed-up process moves its frames without allocating.
    frame: Vec<u8>,
    /// The acknowledgement frame: received by `send`, encoded by
    /// `receive_from`.
    ack: Vec<u8>,
    /// The acknowledgement a parked `receive_from` posts before its offer
    /// arrives.
    post: Vec<u8>,
    /// The receive step's pre-update vector (line 04 of Figure 5).
    ack_vector: Vec<u64>,
    /// Receivers whose data stream may have a gap: a send to them failed
    /// after encoding a frame they may never have decoded. The next offer
    /// to each stays plain, so it can still be bounced for a resync.
    gapped: HashSet<ProcessId>,
    /// Fault source consulted at every operation boundary, if any.
    fault: Option<Arc<dyn FaultInjector>>,
    /// This process's rendezvous operations so far (`send` +
    /// `receive_from` calls, in program order) — the index fault plans
    /// schedule against.
    op_index: u64,
    /// An armed [`FaultAction::DesyncNext`] waiting for the next send on
    /// which it can actually fire (a virgin stream cannot desync — its
    /// opening full frame re-anchors unconditionally).
    pending_desync: bool,
    /// Per-operation rendezvous wait bound, if configured.
    rendezvous_timeout: Option<Duration>,
    /// Backoff retries granted before a timeout surfaces.
    rendezvous_retries: u32,
}

/// Per-operation bookkeeping for the optional rendezvous timeout: each
/// expiry either re-arms with a doubled budget (bounded retry backoff) or
/// reports the total time waited so the caller can surface
/// [`RuntimeError::RendezvousTimeout`].
#[derive(Debug, Clone, Copy)]
struct WaitBudget {
    started: Instant,
    deadline: Option<Instant>,
    step: Duration,
    retries_left: u32,
}

impl WaitBudget {
    fn new(timeout: Option<Duration>, retries: u32) -> Self {
        let now = Instant::now();
        WaitBudget {
            started: now,
            deadline: timeout.and_then(|t| now.checked_add(t)),
            step: timeout.map(|t| t * 2).unwrap_or_default(),
            retries_left: retries,
        }
    }

    /// Time left before the current deadline; `None` without a timeout.
    fn cap(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// `Err(waited_ms)` once the deadline has expired with no retries
    /// left; otherwise re-arms expired deadlines with exponential backoff.
    fn check(&mut self) -> Result<(), u64> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let now = Instant::now();
        if now < deadline {
            return Ok(());
        }
        if self.retries_left == 0 {
            return Err(self.started.elapsed().as_millis() as u64);
        }
        self.retries_left -= 1;
        self.deadline = now.checked_add(self.step);
        self.step = self.step.saturating_mul(2);
        Ok(())
    }
}

impl ProcessCtx {
    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// A snapshot of the current local vector (in dense interchange form,
    /// whichever clock backend the run uses).
    pub fn clock(&self) -> VectorTime {
        self.clock.current_vector()
    }

    fn enter_blocked(&self, op: WaitOp, peer: ProcessId) {
        *lock_recover(&self.shared.blocked[self.id]) = Some(BlockedOn {
            op,
            peer,
            since: Instant::now(),
        });
    }

    /// Clears this process's parked registration, returning how long it
    /// was held.
    fn exit_blocked(&self) -> Duration {
        lock_recover(&self.shared.blocked[self.id])
            .take()
            .map(|b| b.since.elapsed())
            .unwrap_or_default()
    }

    /// Bookkeeping between two bounded transport polls that came back
    /// [`Polled::Pending`]: checks abort, peer liveness, and the rendezvous
    /// timeout budget, and registers the wait with the watchdog on the
    /// first pending poll. Returns the wait cap for the next poll.
    ///
    /// On an error return the registration has already been cleared.
    fn pending_step(
        &self,
        op: WaitOp,
        peer: ProcessId,
        parked: &mut bool,
        budget: &mut WaitBudget,
    ) -> Result<Option<Duration>, RuntimeError> {
        if self.shared.aborted() {
            if *parked {
                self.exit_blocked();
            }
            return Err(self.shared.deadlock_error());
        }
        if !self.shared.live[peer].load(Ordering::Acquire) {
            if *parked {
                self.exit_blocked();
            }
            return Err(self.peer_gone(peer));
        }
        if let Err(waited_ms) = budget.check() {
            if *parked {
                self.exit_blocked();
            }
            return Err(RuntimeError::RendezvousTimeout { peer, waited_ms });
        }
        if !*parked {
            *parked = true;
            self.enter_blocked(op, peer);
        }
        Ok(budget.cap())
    }

    /// Maps a transport failure on the channel to `peer` into the runtime
    /// error the behavior sees: a clean close is the peer terminating (a
    /// TCP peer closing its socket is the distributed analogue of a thread
    /// exiting), anything else is a channel I/O failure.
    fn channel_error(&self, peer: ProcessId, e: TransportError) -> RuntimeError {
        match e {
            TransportError::Closed => self.peer_gone(peer),
            TransportError::Io(detail) => RuntimeError::ChannelIo { peer, detail },
        }
    }

    /// Finishes a parked phase: clears the registration and accumulates the
    /// blocked time, returning it.
    fn unpark(&self, parked: bool) -> Duration {
        if parked {
            self.exit_blocked()
        } else {
            Duration::ZERO
        }
    }

    /// The error for a vanished peer: a peer bailing out of a watchdog
    /// abort also stops being live, so during an abort the deadlock
    /// diagnosis is the real story, not the peer's termination.
    fn peer_gone(&self, peer: ProcessId) -> RuntimeError {
        if self.shared.aborted() {
            self.shared.deadlock_error()
        } else {
            RuntimeError::PeerTerminated { peer }
        }
    }

    /// Consults the fault injector at an operation boundary (the entry of
    /// every `send`/`receive_from`, before any channel slot is touched).
    /// Crashes surface as [`RuntimeError::FaultInjected`]; delays sleep
    /// inline; desyncs arm the sticky `pending_desync` flag consumed by
    /// the next send.
    fn fault_check(&mut self) -> Result<(), RuntimeError> {
        let at_op = self.op_index;
        self.op_index += 1;
        let Some(injector) = &self.fault else {
            return Ok(());
        };
        match injector.action(self.id, at_op) {
            FaultAction::None => Ok(()),
            FaultAction::Crash => {
                self.recorder.process(self.id).record_fault();
                Err(RuntimeError::FaultInjected {
                    process: self.id,
                    at_op,
                })
            }
            FaultAction::Delay(d) => {
                self.recorder.process(self.id).record_fault();
                std::thread::sleep(d);
                Ok(())
            }
            FaultAction::DesyncNext => {
                self.recorder.process(self.id).record_fault();
                self.pending_desync = true;
                Ok(())
            }
        }
    }

    fn group_for(&self, from: ProcessId, to: ProcessId) -> Result<usize, RuntimeError> {
        // Channel existence (a topology property) is diagnosed before the
        // decomposition lookup, so behaviors get the more actionable error.
        let peer = if from == self.id { to } else { from };
        if !self.tx.contains_key(&peer) {
            return Err(RuntimeError::NoChannel { from, to });
        }
        let edge = Edge::try_new(from, to).map_err(|_| RuntimeError::NoChannel { from, to })?;
        self.decomposition
            .group_of(edge)
            .ok_or(RuntimeError::ChannelNotInDecomposition { from, to })
    }

    /// Synchronously sends `payload` to `to`: blocks until the receiver
    /// takes the message *and* acknowledges it, then returns the message's
    /// timestamp (identical on both sides), borrowed from this process's
    /// log.
    ///
    /// The whole exchange rides one transport channel. When the receiver
    /// is already parked on it, it has posted its acknowledgement (Figure
    /// 5's line 04 does not depend on the offer) and this send completes
    /// at once: depositing the offer is its only wakeup. Otherwise
    /// depositing the offer wakes the receiver, and the receiver's
    /// acknowledgement wakes this process back. Whether the channel is an
    /// in-memory slot or a socket is the transport's business
    /// ([`crate::TxChannel`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoChannel`] if `to` is not a neighbor;
    /// [`RuntimeError::ChannelNotInDecomposition`] if the decomposition
    /// misses the edge; [`RuntimeError::PeerTerminated`] if the peer's
    /// thread exited (or its connection closed) mid-rendezvous;
    /// [`RuntimeError::Deadlock`] if the watchdog aborted the run while
    /// this process was blocked here; [`RuntimeError::ChannelIo`] on a
    /// socket-transport failure.
    pub fn send(&mut self, to: ProcessId, payload: u64) -> Result<&VectorTime, RuntimeError> {
        if self.shared.aborted() {
            return Err(self.shared.deadlock_error());
        }
        self.fault_check()?;
        let group = self.group_for(self.id, to)?;
        let key = ((self.id as u64) << 32) | self.seq;
        self.seq += 1;
        let tx = Arc::clone(
            self.tx
                .get(&to)
                .ok_or(RuntimeError::NoChannel { from: self.id, to })?,
        );
        // An armed desync fault fires here: the outgoing stream's sequence
        // number advances as if a frame were lost, which the receiver will
        // detect and repair through the resync protocol below.
        let desynced = self.pending_desync && self.enc_data.skip(to);
        if desynced {
            self.pending_desync = false;
        }
        // Only a frame the receiver can decode may be handed against its
        // posted acknowledgement: a handed send is complete, so its
        // receiver could no longer ask for a resync. A stream with a
        // possible gap makes a plain offer.
        let handoff = !desynced && !self.gapped.contains(&to);
        let mut budget = WaitBudget::new(self.rendezvous_timeout, self.rendezvous_retries);
        let mut blocked = Duration::ZERO;
        let mut parked = false;
        // The first poll of every wait is a zero-wait probe, so the
        // uncontended fast path never registers with the watchdog.
        let mut cap = Some(Duration::ZERO);
        let ready = loop {
            match tx.poll_ready(cap) {
                Ok(Polled::Ready(r)) => break r,
                Ok(Polled::Pending) => {
                    match self.pending_step(WaitOp::SendTo, to, &mut parked, &mut budget) {
                        Ok(next) => cap = next,
                        Err(e) => return Err(self.failed(blocked, e)),
                    }
                }
                Err(e) => {
                    blocked += self.unpark(parked);
                    let e = self.channel_error(to, e);
                    return Err(self.failed(blocked, e));
                }
            }
        };
        blocked += self.unpark(parked);
        if ready.resync_debris {
            // Debris from an earlier errored send on this channel: the
            // receiver asked for a resync nobody serviced. This fresh send
            // re-anchors the stream with a full frame.
            self.enc_data.force_full(to);
            self.recorder.process(self.id).record_resync();
        }
        // The clock does not move until the acknowledgement is merged, so
        // a resync retransmission re-encodes the very same vector.
        self.frame.clear();
        self.enc_data
            .encode(to, self.clock.as_slice(), &mut self.frame);
        // Offer/await-answer loop: a ResyncRequested answer re-offers the
        // same message as a full-vector frame (bounded by MAX_RESYNC).
        // While the offer sits unanswered the peer has not completed the
        // match, so the wait registers as `SendTo`. Wire accounting prices
        // whole frames (header + key + payload + body — `core::wire`'s
        // frame helpers), so local and TCP runs report identical byte
        // counts for identical executions. From here on, a failed send
        // leaves the receiver's stream with a possible gap.
        let mut msg_bytes_total = 0u64;
        let mut resyncs = 0u32;
        let (taken, acked, last_parked) = loop {
            msg_bytes_total += offer_frame_bytes(self.frame.len());
            if let Err(e) = tx.offer(key, payload, &self.frame, handoff) {
                let e = self.channel_error(to, e);
                return Err(self.send_failed(to, blocked, e));
            }
            let mut parked = false;
            let mut cap = Some(Duration::ZERO);
            let outcome = loop {
                match tx.poll_answer(key, cap, &mut self.ack) {
                    Ok(Polled::Ready(answer)) => break answer,
                    Ok(Polled::Pending) => {
                        match self.pending_step(WaitOp::SendTo, to, &mut parked, &mut budget) {
                            Ok(next) => cap = next,
                            Err(e) => {
                                // The receiver may have acknowledged in the
                                // instant between the pending poll and the
                                // liveness/abort/timeout check — and the ack
                                // deposit happens-before the peer's exit
                                // flag, so one final zero-wait poll settles
                                // it. Without this, a completed rendezvous
                                // could be reported failed on the sender's
                                // side only, leaving one-sided logs that no
                                // longer reconstruct.
                                if let Ok(Polled::Ready(answer @ SendAnswer::Acked { .. })) =
                                    tx.poll_answer(key, Some(Duration::ZERO), &mut self.ack)
                                {
                                    break answer;
                                }
                                // Retract our untaken offer so the channel
                                // is left clean for any survivor.
                                tx.retract(key);
                                return Err(self.send_failed(to, blocked, e));
                            }
                        }
                    }
                    Err(e) => {
                        tx.retract(key);
                        blocked += self.unpark(parked);
                        let e = self.channel_error(to, e);
                        return Err(self.send_failed(to, blocked, e));
                    }
                }
            };
            blocked += self.unpark(parked);
            match outcome {
                SendAnswer::Acked { taken, acked } => break (taken, acked, parked),
                SendAnswer::ResyncRequested => {
                    // The receiver's resync request crossed the channel
                    // too; count its frame alongside the bounced offer.
                    msg_bytes_total += resync_frame_bytes();
                    resyncs += 1;
                    if resyncs > MAX_RESYNC {
                        let e = RuntimeError::DeltaDesync { from: self.id, to };
                        return Err(self.send_failed(to, blocked, e));
                    }
                    self.enc_data.force_full(to);
                    self.frame.clear();
                    self.enc_data
                        .encode(to, self.clock.as_slice(), &mut self.frame);
                    self.recorder.process(self.id).record_resync();
                }
            }
        };
        // The receiver decoded our frame: the stream is in step again.
        if !self.gapped.is_empty() {
            self.gapped.remove(&to);
        }
        let ack_bytes = ack_frame_bytes(self.ack.len());
        // The acknowledgement stream has no resync path — the receiver has
        // already completed its side of the rendezvous — so a desynchronised
        // ack stream is terminal, and so is a decoded frame of the wrong
        // dimension (the peer runs a different decomposition). Terminal for
        // this channel only: other channels' streams are independent.
        let stamp = match self.dec_ack.decode_sparse(to, &self.ack) {
            Ok((ack, changes)) => self.clock.on_acknowledgement(ack, changes, group).ok(),
            Err(_) => None,
        };
        let Some(stamp) = stamp else {
            let e = RuntimeError::DeltaDesync {
                from: to,
                to: self.id,
            };
            return Err(self.failed(blocked, e));
        };
        let me = self.recorder.process(self.id);
        if last_parked {
            me.record_wakeup(acked.elapsed().as_nanos() as u64);
        }
        me.record_blocked(blocked.as_nanos() as u64);
        // A handed send's latency runs from its offer to here.
        me.record_send(
            to,
            msg_bytes_total + ack_bytes,
            self.rendezvous_bytes_full,
            taken.elapsed().as_nanos() as u64,
        );
        if let Some(tx) = &self.observer {
            // A lagging or dropped observer must never stall the protocol.
            let _ = tx.send(LiveObservation {
                key,
                sender: self.id,
                receiver: to,
                stamp: stamp.clone(),
            });
        }
        Ok(self.log_message(LogEntry::Sent { to, key, stamp }))
    }

    /// Blocks until `from` sends a message; acknowledges it (carrying this
    /// process's pre-update vector back, line 04 of Figure 5) and returns
    /// the payload and the message's timestamp, borrowed from this
    /// process's log.
    ///
    /// The acknowledgement never depends on the offer, so a receive about
    /// to park posts it on the channel first: a sender that finds it takes
    /// it and completes without waiting, and this process wakes once, to
    /// take the offer. When the offer is already there, the
    /// acknowledgement is deposited right after the take, so the sender's
    /// next wakeup carries it.
    ///
    /// # Errors
    ///
    /// Same classes as [`ProcessCtx::send`].
    pub fn receive_from(&mut self, from: ProcessId) -> Result<(u64, &VectorTime), RuntimeError> {
        if self.shared.aborted() {
            return Err(self.shared.deadlock_error());
        }
        self.fault_check()?;
        let group = self.group_for(from, self.id)?;
        let rx = Arc::clone(
            self.rx
                .get(&from)
                .ok_or(RuntimeError::NoChannel { from, to: self.id })?,
        );
        let mut budget = WaitBudget::new(self.rendezvous_timeout, self.rendezvous_retries);
        let mut parked = false;
        let mut blocked = Duration::ZERO;
        // Bytes of offers this receive bounced back for resync (plus the
        // resync request frames themselves) — they moved on the wire, so
        // they count toward the actual cost.
        let mut resync_bytes = 0u64;
        let mut resyncs = 0u32;
        // Whether `self.post` holds this receive's acknowledgement: the
        // pre-update vector encoded on the ack stream without advancing it.
        // Only a receive that is about to park posts one, so a receive
        // whose offer is already waiting pays nothing for the handoff.
        let mut posted = false;
        let mut cap = Some(Duration::ZERO);
        let (offer, stamp) = loop {
            let polled = rx.poll_offer(cap, posted.then_some(&self.post[..]), &mut self.frame);
            let offer = match polled {
                Ok(Polled::Ready(offer)) => offer,
                Ok(Polled::Pending) => {
                    match self.pending_step(WaitOp::ReceiveFrom, from, &mut parked, &mut budget) {
                        Ok(next) => {
                            cap = next;
                            if !posted {
                                self.post.clear();
                                self.enc_ack.encode_preview(
                                    from,
                                    self.clock.as_slice(),
                                    &mut self.post,
                                );
                                posted = true;
                            }
                            continue;
                        }
                        Err(e) => match self.withdraw(&*rx, posted) {
                            Some(offer) => offer,
                            None => return Err(self.failed(blocked, e)),
                        },
                    }
                }
                Err(e) => {
                    blocked += self.unpark(parked);
                    let e = self.channel_error(from, e);
                    match self.withdraw(&*rx, posted) {
                        Some(offer) => offer,
                        None => return Err(self.failed(blocked, e)),
                    }
                }
            };
            // A decoded frame of the wrong dimension means the sender runs
            // a different decomposition: the stream is beyond repair, as it
            // is for a malformed frame, an orphan delta, or a spent resync
            // budget. Other channels are unaffected.
            let stamp = match self.dec_data.decode_sparse(from, &self.frame) {
                Ok((vector, changes)) => self
                    .clock
                    .on_receive(vector, changes, group, &mut self.ack_vector)
                    .ok(),
                Err(StreamError::SeqGap { .. }) if !offer.handed && resyncs < MAX_RESYNC => {
                    // The stream skipped a frame. Recoverable: hand the
                    // sender a resync request and wait for the re-offered
                    // full-vector frame. The failed decode did not advance
                    // stream state, so the resync frame applies cleanly.
                    resyncs += 1;
                    resync_bytes += offer_frame_bytes(self.frame.len()) + resync_frame_bytes();
                    if let Err(e) = rx.answer(OfferAnswer::Resync) {
                        blocked += self.unpark(parked);
                        let e = self.channel_error(from, e);
                        return Err(self.failed(blocked, e));
                    }
                    cap = Some(Duration::ZERO);
                    continue;
                }
                Err(_) => None,
            };
            match stamp {
                Some(stamp) => break (offer, stamp),
                None => {
                    blocked += self.unpark(parked);
                    let e = RuntimeError::DeltaDesync { from, to: self.id };
                    return Err(self.failed(blocked, e));
                }
            }
        };
        let recv_wait = blocked + self.unpark(parked);
        self.ack.clear();
        self.enc_ack.encode(from, &self.ack_vector, &mut self.ack);
        let wire_actual =
            offer_frame_bytes(self.frame.len()) + resync_bytes + ack_frame_bytes(self.ack.len());
        if offer.handed {
            // The sender already took the posted acknowledgement; this
            // encode only commits the stream, to the same bytes.
            debug_assert_eq!(
                self.ack, self.post,
                "committed ack differs from the posted one"
            );
        } else if let Err(e) = rx.answer(OfferAnswer::Ack(&self.ack)) {
            let e = self.channel_error(from, e);
            return Err(self.failed(recv_wait, e));
        }
        let me = self.recorder.process(self.id);
        if parked {
            me.record_wakeup(offer.offered_at.elapsed().as_nanos() as u64);
        }
        me.record_receive(
            from,
            wire_actual,
            self.rendezvous_bytes_full,
            recv_wait.as_nanos() as u64,
        );
        let entry = LogEntry::Received {
            from,
            key: offer.key,
            stamp,
        };
        Ok((offer.payload, self.log_message(entry)))
    }

    /// Before a receive that posted its acknowledgement gives up, withdraws
    /// the post — and takes an offer already handed against it. That
    /// offer's sender has completed and logged its send, so the receive
    /// must complete too: a handed offer is always delivered. Mirrors the
    /// sender's final zero-wait poll for an acknowledgement.
    fn withdraw(&mut self, rx: &dyn RxChannel, posted: bool) -> Option<RawOffer> {
        if posted {
            rx.withdraw(&mut self.frame)
        } else {
            None
        }
    }

    /// Ends a failed operation: records its blocked time and hands back the
    /// error.
    fn failed(&self, blocked: Duration, e: RuntimeError) -> RuntimeError {
        self.recorder
            .process(self.id)
            .record_blocked(blocked.as_nanos() as u64);
        e
    }

    /// [`ProcessCtx::failed`] for a send that had already encoded a frame
    /// `to` may never decode: its next offer to `to` stays plain.
    fn send_failed(&mut self, to: ProcessId, blocked: Duration, e: RuntimeError) -> RuntimeError {
        self.gapped.insert(to);
        self.failed(blocked, e)
    }

    /// Logs a message endpoint (mirroring it to the sink, if any) and
    /// returns its stamp, borrowed from the log.
    fn log_message(&mut self, entry: LogEntry) -> &VectorTime {
        self.persist(&entry);
        self.log.push(entry);
        match self.log.last().and_then(LogEntry::stamp) {
            Some(stamp) => stamp,
            None => unreachable!("a message entry was just logged"),
        }
    }

    /// Records an internal event.
    pub fn internal(&mut self) {
        self.persist(&LogEntry::Internal);
        self.log.push(LogEntry::Internal);
    }

    /// Mirrors a log entry to the durable-store sink, if any, tagged with
    /// the process id and the entry's position in this process's log. A
    /// lagging or dropped sink must never stall the protocol — exactly the
    /// observer's contract. Entries are buffered and sent in bursts of
    /// [`SINK_BATCH`]: each send to an idle receiver costs a thread
    /// wakeup, and paying that per entry would tax every rendezvous.
    fn persist(&mut self, entry: &LogEntry) {
        if self.sink.is_none() {
            return;
        }
        self.sink_buf.push(PersistEvent {
            process: self.id,
            pseq: self.log.len() as u64,
            entry: entry.clone(),
        });
        if self.sink_buf.len() >= SINK_BATCH {
            self.flush_sink();
        }
    }

    /// Ships the buffered burst to the sink as a single send. Called when
    /// the buffer fills and — by the runtime — when the behavior exits,
    /// so a completed process's log always reaches the writer in full.
    fn flush_sink(&mut self) {
        if self.sink_buf.is_empty() {
            return;
        }
        if let Some(tx) = &self.sink {
            let _ = tx.send(std::mem::take(&mut self.sink_buf));
        }
    }
}

/// A process's code: runs on its own thread against a [`ProcessCtx`].
pub type Behavior = Box<dyn FnOnce(&mut ProcessCtx) -> Result<(), RuntimeError> + Send>;

/// One committed reconfiguration, ready to be applied to a [`Runtime`]
/// at an epoch boundary: the new topology and decomposition every replica
/// agreed on, the remap from the previous dimension, and the uniform
/// baseline vector all processes resume from (the max-merge of every
/// process's rebased final clock, distributed by the control plane's
/// commit — see `synctime-net`'s `reconfig` module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedReconfigure {
    /// The epoch this reconfiguration establishes (must be the runtime's
    /// current epoch + 1).
    pub epoch: u64,
    /// The post-change topology.
    pub topology: Graph,
    /// The post-change decomposition (dimension of the new epoch's
    /// stamps).
    pub decomposition: EdgeDecomposition,
    /// How group indices moved from the previous decomposition.
    pub remap: GroupRemap,
    /// The uniform baseline every process clock starts the new epoch
    /// from.
    pub baseline: VectorTime,
}

/// Configures and launches rendezvous executions over a topology and its
/// edge decomposition.
#[derive(Debug, Clone)]
pub struct Runtime {
    topology: Graph,
    decomposition: EdgeDecomposition,
    observer: Option<std::sync::mpsc::Sender<LiveObservation>>,
    sink: Option<std::sync::mpsc::Sender<Vec<PersistEvent>>>,
    watchdog: Option<Duration>,
    fault: Option<Arc<dyn FaultInjector>>,
    rendezvous_timeout: Option<Duration>,
    rendezvous_retries: u32,
    clock_backend: ClockBackend,
    /// The reconfiguration epoch this runtime executes (0 at creation,
    /// bumped by [`Runtime::apply_reconfigure`]).
    epoch: u64,
    /// The uniform baseline every process clock starts from (zero when
    /// absent — the launch epoch). Set by a reconfiguration's commit so
    /// post-change stamps stay order-isomorphic with a zero-started
    /// reference run over the new topology.
    initial_clock: Option<VectorTime>,
}

/// Default stall timeout before the watchdog declares a deadlock.
pub const DEFAULT_WATCHDOG_TIMEOUT: Duration = Duration::from_secs(10);

/// How many recent events each process retains for a run's latency
/// percentiles (counters are exact regardless).
pub const DEFAULT_EVENT_RING: usize = 4096;

impl Runtime {
    /// Creates a runtime over `topology`, timestamping with the components
    /// of `decomposition` (which should cover the topology's edges).
    ///
    /// The deadlock watchdog is on by default with
    /// [`DEFAULT_WATCHDOG_TIMEOUT`]; tune it with [`Runtime::with_watchdog`]
    /// or disable it with [`Runtime::without_watchdog`]. Blocked
    /// rendezvous endpoints park on their channel slot's condvar.
    pub fn new(topology: &Graph, decomposition: &EdgeDecomposition) -> Self {
        Runtime {
            topology: topology.clone(),
            decomposition: decomposition.clone(),
            observer: None,
            sink: None,
            watchdog: Some(DEFAULT_WATCHDOG_TIMEOUT),
            fault: None,
            rendezvous_timeout: None,
            rendezvous_retries: DEFAULT_RENDEZVOUS_RETRIES,
            clock_backend: ClockBackend::default(),
            epoch: 0,
            initial_clock: None,
        }
    }

    /// The reconfiguration epoch this runtime executes: 0 at creation,
    /// incremented by every [`Runtime::apply_reconfigure`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The topology the next run executes over (the current epoch's).
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// The decomposition the next run stamps with (the current epoch's).
    pub fn decomposition(&self) -> &EdgeDecomposition {
        &self.decomposition
    }

    /// Applies one committed reconfiguration: validates the epoch is the
    /// successor of the current one, swaps in the new topology and
    /// decomposition, and arms the uniform baseline every process clock of
    /// the next run starts from. Channels, watchdog, fault injectors, and
    /// every other setting carry over unchanged.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EpochMismatch`] when `r.epoch` is not
    /// `self.epoch() + 1`; [`RuntimeError::DimensionMismatch`] when the
    /// remap or the baseline disagrees with the decomposition on the new
    /// dimension.
    pub fn apply_reconfigure(&mut self, r: &AppliedReconfigure) -> Result<(), RuntimeError> {
        if r.epoch != self.epoch + 1 {
            return Err(RuntimeError::EpochMismatch {
                expected: self.epoch + 1,
                got: r.epoch,
            });
        }
        let expected = r.decomposition.len();
        for got in [r.remap.new_len, r.baseline.dim()] {
            if got != expected {
                return Err(RuntimeError::DimensionMismatch { expected, got });
            }
        }
        self.topology = r.topology.clone();
        self.decomposition = r.decomposition.clone();
        self.initial_clock = Some(r.baseline.clone());
        self.epoch = r.epoch;
        Ok(())
    }

    /// Selects the clock backend every process clock of this runtime uses
    /// (see [`ClockBackend`]; the default is the dense vector). Backend
    /// choice never changes a stamp — both backends compute identical
    /// vectors — only the cost of computing them: the tree merges the
    /// delta streams' change-sets in time sublinear in the dimension.
    pub fn with_clock(mut self, backend: ClockBackend) -> Self {
        self.clock_backend = backend;
        self
    }

    /// Aborts a run with [`RuntimeError::Deadlock`] once a wait-for cycle
    /// of processes has been parked in rendezvous operations for `timeout`.
    /// The watchdog looks every `timeout / 8` (clamped to 1–50 ms), and
    /// only at waits the channel confirms (see [`Runtime::run`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ZeroWatchdogTimeout`] when `timeout` is zero: every
    /// registered wait would be parked "long enough" the instant it began,
    /// leaving nothing but the channel confirmation between a live run and
    /// an abort. Use [`Runtime::without_watchdog`] to turn it off.
    pub fn with_watchdog(mut self, timeout: Duration) -> Result<Self, RuntimeError> {
        if timeout.is_zero() {
            return Err(RuntimeError::ZeroWatchdogTimeout);
        }
        self.watchdog = Some(timeout);
        Ok(self)
    }

    /// Disables the deadlock watchdog: mismatched behaviors block forever,
    /// exactly as real CSP programs do.
    #[must_use]
    pub fn without_watchdog(mut self) -> Self {
        self.watchdog = None;
        self
    }

    /// Threads a deterministic fault injector into the run: the runtime
    /// consults it at every rendezvous operation boundary (see
    /// [`FaultInjector`]). `synctime-sim`'s `FaultPlan` is the standard
    /// implementation — a seeded schedule of crashes, delays, and
    /// delta-stream desyncs.
    #[must_use]
    pub fn with_fault_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }

    /// Bounds every rendezvous wait: an operation that cannot match within
    /// `timeout` is granted [`DEFAULT_RENDEZVOUS_RETRIES`] exponentially
    /// backed-off extensions (doubling each time), then fails with
    /// [`RuntimeError::RendezvousTimeout`]. A timed-out send retracts its
    /// untaken offer, so the channel stays usable for survivors. Off by
    /// default — rendezvous semantics say a wait may legitimately be
    /// unbounded.
    #[must_use]
    pub fn with_rendezvous_timeout(mut self, timeout: Duration) -> Self {
        self.rendezvous_timeout = Some(timeout);
        self
    }

    /// Overrides the number of backoff retries a rendezvous timeout allows
    /// before surfacing (the total budget with `r` retries is roughly
    /// `timeout * (2^(r+1) - 1)`).
    #[must_use]
    pub fn with_rendezvous_retries(mut self, retries: u32) -> Self {
        self.rendezvous_retries = retries;
        self
    }

    /// Streams a [`LiveObservation`] per message to `tx` as the execution
    /// runs (sent from the sender's thread right after the rendezvous
    /// completes). Observer failures are ignored — monitoring must not
    /// perturb the system under observation.
    #[must_use]
    pub fn with_observer(mut self, tx: std::sync::mpsc::Sender<LiveObservation>) -> Self {
        self.observer = Some(tx);
        self
    }

    /// Streams a [`PersistEvent`] per log entry to `tx` as the execution
    /// runs, from the logging process's own thread in per-process bursts:
    /// each send carries a `Vec` of up to [`SINK_BATCH`] events (flushed
    /// when the buffer fills and when the behavior exits) — the
    /// durable-ingestion seam `synctime-store`'s writer thread consumes.
    /// Sink failures are ignored, like observer failures: durability lag
    /// must not perturb the protocol. Callers that need completeness join
    /// the consuming writer *after* the run returns (every event is sent
    /// before the run's threads exit).
    #[must_use]
    pub fn with_log_sink(mut self, tx: std::sync::mpsc::Sender<Vec<PersistEvent>>) -> Self {
        self.sink = Some(tx);
        self
    }

    /// Runs one behavior per process (there must be exactly
    /// `topology.node_count()` of them), each on its own OS thread, until
    /// all of them return.
    ///
    /// **Deadlock handling:** rendezvous semantics mean mismatched behaviors
    /// (everyone sending, nobody receiving) would block forever, exactly as
    /// real CSP programs do. A watchdog thread monitors the parked-thread
    /// registry and, once the wait-for graph contains a cycle whose members
    /// have all been parked beyond the configured timeout, aborts the run
    /// with [`RuntimeError::Deadlock`] carrying the diagnosis. A wait counts
    /// as an edge only while its channel confirms it: a sender's offer sits
    /// untaken, or a receiver's slot holds no offer. Slow-but-live runs —
    /// arbitrarily long parks whose wait chains end in a running process,
    /// and rendezvous caught mid-flight at any timeout — are never aborted.
    /// The watchdog is woken as soon as the last behavior returns, so it
    /// adds no tail to the run. The `synctime-sim` crate's scheduler
    /// detects the same deadlocks deterministically and instantly; the
    /// runtime's watchdog is the wall-clock analogue for real threads.
    ///
    /// # Errors
    ///
    /// The first behavior error, in process order; a panicking behavior
    /// surfaces as [`RuntimeError::BehaviorPanicked`].
    ///
    /// # Panics
    ///
    /// Panics if `behaviors.len()` differs from the process count.
    pub fn run(&self, behaviors: Vec<Behavior>) -> Result<RuntimeRun, RuntimeError> {
        let run = self.run_tolerant(behaviors);
        if let Some(err) = run.outcomes.iter().flatten().next() {
            return Err(err.clone());
        }
        Ok(run)
    }

    /// Runs like [`Runtime::run`] but survives per-process failures: every
    /// behavior's outcome (including injected crashes, peer terminations,
    /// and panics) is reported individually in [`RuntimeRun::outcomes`],
    /// and the logs of casualties and survivors alike are kept — so the
    /// surviving prefix of the computation still reconstructs and its
    /// timestamps can still be checked against the causal order.
    ///
    /// This is the entry point for fault-injected executions: a fault plan
    /// with `k < N` crashes takes down `k` processes (plus whoever then
    /// observes [`RuntimeError::PeerTerminated`]), while the run itself
    /// completes and reports what happened to each process.
    ///
    /// # Panics
    ///
    /// Panics if `behaviors.len()` differs from the process count.
    pub fn run_tolerant(&self, behaviors: Vec<Behavior>) -> RuntimeRun {
        let n = self.topology.node_count();
        assert_eq!(behaviors.len(), n, "need exactly one behavior per process");
        // One rendezvous slot per directed channel; both endpoints share it
        // through their [`LocalTx`]/[`LocalRx`] transport halves.
        let mut tx_maps: Vec<HashMap<ProcessId, Arc<dyn TxChannel>>> =
            (0..n).map(|_| HashMap::new()).collect();
        let mut rx_maps: Vec<HashMap<ProcessId, Arc<dyn RxChannel>>> =
            (0..n).map(|_| HashMap::new()).collect();
        let mut slots = HashMap::with_capacity(2 * self.topology.edge_count());
        for e in self.topology.edges() {
            for (u, v) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                let slot = Arc::new(ChannelSlot::new());
                tx_maps[u].insert(v, Arc::new(LocalTx::new(Arc::clone(&slot))) as _);
                rx_maps[v].insert(u, Arc::new(LocalRx::new(Arc::clone(&slot))) as _);
                slots.insert((u, v), slot);
            }
        }
        let shared = Arc::new(RunShared::new(n, slots));
        let recorder = Arc::new(Recorder::new(n, DEFAULT_EVENT_RING));
        let mut ctxs: Vec<ProcessCtx> = Vec::with_capacity(n);
        for (id, (tx, rx)) in tx_maps.into_iter().zip(rx_maps).enumerate() {
            ctxs.push(self.process_ctx(id, tx, rx, Arc::clone(&shared), Arc::clone(&recorder)));
        }

        let results: Vec<(Vec<LogEntry>, VectorTime, Option<RuntimeError>)> =
            std::thread::scope(|s| {
                let watchdog = self.watchdog.map(|timeout| {
                    let shared = Arc::clone(&shared);
                    s.spawn(move || watchdog_loop(&shared, timeout))
                });
                let handles: Vec<_> = behaviors
                    .into_iter()
                    .zip(ctxs)
                    .map(|(behavior, mut ctx)| {
                        let shared = Arc::clone(&shared);
                        s.spawn(move || {
                            let id = ctx.id;
                            // catch_unwind keeps a panicking behavior from
                            // unwinding through the runtime: the process's log
                            // survives for partial reconstruction, and no
                            // panic propagates before the liveness flag and
                            // peer wakeups below run — so survivors observe a
                            // clean PeerTerminated instead of a hang.
                            let outcome = catch_unwind(AssertUnwindSafe(|| behavior(&mut ctx)))
                                .unwrap_or(Err(RuntimeError::BehaviorPanicked { process: id }));
                            // The tail of the log (possibly short of a full
                            // burst) still belongs to the durable writer.
                            ctx.flush_sink();
                            // Finished processes are no longer candidates for a
                            // deadlock; tell the watchdog and wake parked peers
                            // so they observe the exit instead of waiting for
                            // the park backstop.
                            shared.live[id].store(false, Ordering::Release);
                            shared.wake_all();
                            let final_clock = ctx.clock.current_vector();
                            (ctx.log, final_clock, outcome.err())
                        })
                    })
                    .collect();
                let results = handles
                    .into_iter()
                    .enumerate()
                    .map(|(p, h)| {
                        h.join().unwrap_or_else(|_| {
                            (
                                Vec::new(),
                                VectorTime::zero(self.decomposition.len()),
                                Some(RuntimeError::BehaviorPanicked { process: p }),
                            )
                        })
                    })
                    .collect();
                shared.finished.store(true, Ordering::Release);
                // The scope joins the watchdog: wake it now rather than
                // letting the run wait out the rest of its poll.
                if let Some(watchdog) = &watchdog {
                    watchdog.thread().unpark();
                }
                results
            });

        let mut logs = Vec::with_capacity(n);
        let mut final_clocks = Vec::with_capacity(n);
        let mut outcomes = Vec::with_capacity(n);
        for (log, final_clock, outcome) in results {
            logs.push(log);
            final_clocks.push(final_clock);
            outcomes.push(outcome);
        }
        // Components only grow and every increment is captured in a logged
        // stamp, so the run-wide maximum component is the maximum over all
        // logged stamps.
        let max_component = logs
            .iter()
            .flatten()
            .filter_map(|entry| entry.stamp()?.as_slice().iter().copied().max())
            .max()
            .unwrap_or(0);
        RuntimeRun {
            process_count: n,
            logs,
            final_clocks,
            outcomes,
            stats: recorder.finish(max_component),
        }
    }

    /// Builds one process's execution context over the given channel
    /// endpoints — the piece shared by the all-in-process [`Runtime::run`]
    /// path and the distributed [`Runtime::run_process`] path.
    fn process_ctx(
        &self,
        id: ProcessId,
        tx: HashMap<ProcessId, Arc<dyn TxChannel>>,
        rx: HashMap<ProcessId, Arc<dyn RxChannel>>,
        shared: Arc<RunShared>,
        recorder: Arc<Recorder>,
    ) -> ProcessCtx {
        let dim = self.decomposition.len();
        let clock = BackendClock::new(self.clock_backend, dim, self.initial_clock.as_ref());
        ProcessCtx {
            id,
            clock,
            decomposition: self.decomposition.clone(),
            observer: self.observer.clone(),
            sink: self.sink.clone(),
            sink_buf: Vec::new(),
            seq: 0,
            tx,
            rx,
            log: Vec::new(),
            shared,
            recorder,
            // Full-width cost of one rendezvous: the offer and ack frames
            // with d-component fixed-width vectors (`core::wire`'s frame
            // pricing). The actual wire cost is measured per message from
            // the delta encoding.
            rendezvous_bytes_full: synctime_core::wire::rendezvous_bytes_full(dim),
            enc_data: StreamEncoder::new(),
            dec_data: StreamDecoder::new(),
            enc_ack: StreamEncoder::new(),
            dec_ack: StreamDecoder::new(),
            frame: Vec::with_capacity(FRAME_CAPACITY),
            ack: Vec::with_capacity(FRAME_CAPACITY),
            post: Vec::with_capacity(FRAME_CAPACITY),
            ack_vector: Vec::new(),
            gapped: HashSet::new(),
            fault: self.fault.clone(),
            op_index: 0,
            pending_desync: false,
            rendezvous_timeout: self.rendezvous_timeout,
            rendezvous_retries: self.rendezvous_retries,
        }
    }

    /// Runs **one** process of the topology — process `id` — against
    /// externally supplied channel endpoints, one per neighbor. This is
    /// the distributed entry point: `synctime-net` builds socket-backed
    /// endpoints and each OS process calls `run_process` with its own id,
    /// while [`Runtime::run`] is the special case where every endpoint of
    /// every process shares in-memory slots inside one OS process.
    ///
    /// No deadlock watchdog runs here — a single node cannot observe
    /// remote waits, so cycles spanning machines are caught by rendezvous
    /// timeouts ([`Runtime::with_rendezvous_timeout`]) instead. Peer
    /// liveness is learned from the transport: a closed connection
    /// surfaces as [`RuntimeError::PeerTerminated`].
    ///
    /// Like [`Runtime::run_tolerant`], a panicking or failing behavior is
    /// contained: its partial log and stats survive in the returned
    /// [`ProcessRun`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of the topology.
    pub fn run_process(
        &self,
        id: ProcessId,
        behavior: Behavior,
        tx: HashMap<ProcessId, Arc<dyn TxChannel>>,
        rx: HashMap<ProcessId, Arc<dyn RxChannel>>,
    ) -> ProcessRun {
        let n = self.topology.node_count();
        assert!(id < n, "process id {id} out of range for {n} processes");
        let shared = Arc::new(RunShared::new(n, HashMap::new()));
        let recorder = Arc::new(Recorder::new(n, DEFAULT_EVENT_RING));
        let mut ctx = self.process_ctx(id, tx, rx, Arc::clone(&shared), Arc::clone(&recorder));
        let outcome = catch_unwind(AssertUnwindSafe(|| behavior(&mut ctx)))
            .unwrap_or(Err(RuntimeError::BehaviorPanicked { process: id }));
        ctx.flush_sink();
        shared.live[id].store(false, Ordering::Release);
        let max_component = ctx
            .log
            .iter()
            .filter_map(|entry| entry.stamp()?.as_slice().iter().copied().max())
            .max()
            .unwrap_or(0);
        let final_clock = ctx.clock.current_vector();
        ProcessRun {
            process: id,
            log: ctx.log,
            final_clock,
            outcome: outcome.err(),
            stats: recorder.finish(max_component),
        }
    }
}

/// One process's slice of a distributed execution — what
/// [`Runtime::run_process`] returns on each node. A coordinator merges
/// the per-node logs with [`reconstruct_from_logs`] and the per-node
/// stats with [`RunStats::merged`](synctime_obs::RunStats::merged).
#[derive(Debug)]
pub struct ProcessRun {
    process: ProcessId,
    log: Vec<LogEntry>,
    final_clock: VectorTime,
    outcome: Option<RuntimeError>,
    stats: RunStats,
}

impl ProcessRun {
    /// The process this run executed.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// The process's execution log, in program order.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// The process's clock vector when its behavior ended — what the
    /// reconfiguration control plane acknowledges (after rebasing) so the
    /// coordinator can compute the next epoch's uniform baseline.
    pub fn final_clock(&self) -> &VectorTime {
        &self.final_clock
    }

    /// How the behavior ended: `None` for a clean return.
    pub fn outcome(&self) -> Option<&RuntimeError> {
        self.outcome.as_ref()
    }

    /// This node's slice of the run statistics (its own counters only;
    /// merge the slices with `RunStats::merged`).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Decomposes the run into its parts for serialisation.
    pub fn into_parts(self) -> (ProcessId, Vec<LogEntry>, Option<RuntimeError>, RunStats) {
        (self.process, self.log, self.outcome, self.stats)
    }
}

/// The logs of a completed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeRun {
    process_count: usize,
    logs: Vec<Vec<LogEntry>>,
    final_clocks: Vec<VectorTime>,
    outcomes: Vec<Option<RuntimeError>>,
    stats: RunStats,
}

impl RuntimeRun {
    /// The per-process execution logs.
    pub fn logs(&self) -> &[Vec<LogEntry>] {
        &self.logs
    }

    /// Each process's clock vector at the end of its behavior, in process
    /// order. An epoch boundary max-merges these into the next epoch's
    /// uniform baseline (see [`AppliedReconfigure`]); a process that
    /// panicked before producing a clock contributes the zero vector.
    pub fn final_clocks(&self) -> &[VectorTime] {
        &self.final_clocks
    }

    /// How each process's behavior ended: `None` for a clean return, the
    /// error otherwise (injected crashes, peer terminations, timeouts,
    /// panics). All `None` when obtained through [`Runtime::run`], which
    /// converts the first failure into its own error.
    pub fn outcomes(&self) -> &[Option<RuntimeError>] {
        &self.outcomes
    }

    /// Number of processes whose behavior completed without error.
    pub fn survivors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_none()).count()
    }

    /// Observability summary of the run: message counts, ack-latency and
    /// wakeup-latency percentiles, wire bytes, blocking time, and the
    /// largest vector component (see [`RunStats`]).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Rebuilds the [`SyncComputation`] the execution performed, together
    /// with the piggybacked per-message timestamps (re-indexed by the
    /// computation's message ids).
    ///
    /// That the rebuild succeeds at all is itself a check: it certifies the
    /// logged per-process orders are realizable by a synchronous execution
    /// — which they are, having just been executed by one.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceError`]s from sequence reconstruction (these would
    /// indicate a runtime bug, e.g. mismatched logs).
    pub fn reconstruct(&self) -> Result<(SyncComputation, MessageTimestamps), TraceError> {
        reconstruct_from_logs(&self.logs)
    }
}

/// Rebuilds a [`SyncComputation`] and its per-message timestamps from
/// per-process execution logs — one log per process, in process order.
///
/// This is [`RuntimeRun::reconstruct`] exposed as a free function so a
/// distributed coordinator can merge the logs gathered from `N` separate
/// [`Runtime::run_process`] nodes (e.g. `synctime launch --transport tcp`)
/// exactly as the in-process path merges its thread logs.
///
/// # Errors
///
/// Propagates [`TraceError`]s from sequence reconstruction (mismatched or
/// truncated logs, e.g. from a crashed node), and returns
/// [`TraceError::StampDimensionMismatch`] when the logged stamps differ
/// in dimension.
pub fn reconstruct_from_logs(
    logs: &[Vec<LogEntry>],
) -> Result<(SyncComputation, MessageTimestamps), TraceError> {
    let sequences: Vec<Vec<EventKind>> = logs
        .iter()
        .map(|log| {
            log.iter()
                .map(|entry| match entry {
                    LogEntry::Sent { key, .. } => EventKind::Send(MessageId(*key as usize)),
                    LogEntry::Received { key, .. } => EventKind::Receive(MessageId(*key as usize)),
                    LogEntry::Internal => EventKind::Internal,
                })
                .collect()
        })
        .collect();
    let computation = SyncComputation::from_process_sequences(sequences)?;
    // Re-associate stamps: a message's stamp is the one its endpoint on
    // the lower-numbered process logged (both endpoints log the same
    // one). The rebuilt histories index the logs slot for slot. Every
    // stamp must have message 0's dimension to fit the table, which
    // `concat` then sizes once and fills.
    let mut dim = None;
    let stamps: Vec<&[u64]> = (0..computation.message_count())
        .map(|id| {
            let (send, receive) = computation.message_endpoints(MessageId(id));
            let (first, other) = if send.process < receive.process {
                (send, receive)
            } else {
                (receive, send)
            };
            let stamp_at = |e: EventId| logs.get(e.process)?.get(e.index)?.stamp();
            debug_assert_eq!(
                stamp_at(first),
                stamp_at(other),
                "endpoint stamps disagree for {}",
                MessageId(id)
            );
            // `from_process_sequences` built the computation from these
            // very logs, so a missing stamp is unreachable — but surfaced
            // as a typed error, not a panic, to keep the runtime crate
            // panic-free.
            let stamp = stamp_at(first).ok_or(TraceError::MalformedSequences { message: id })?;
            let expected = *dim.get_or_insert(stamp.dim());
            if stamp.dim() != expected {
                return Err(TraceError::StampDimensionMismatch {
                    message: id,
                    expected,
                    got: stamp.dim(),
                });
            }
            Ok(stamp.as_slice())
        })
        .collect::<Result<_, _>>()?;
    let stamps = MessageTimestamps::from_rows(dim.unwrap_or(0), stamps.len(), stamps.concat());
    Ok((computation, stamps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use synctime_graph::{decompose, topology};
    use synctime_trace::Oracle;

    fn ping_pong(rounds: u64) -> (Runtime, Vec<Behavior>) {
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec);
        let a: Behavior = Box::new(move |ctx| {
            for i in 0..rounds {
                ctx.send(1, i)?;
                let (echo, _) = ctx.receive_from(1)?;
                assert_eq!(echo, i * 2);
            }
            Ok(())
        });
        let b: Behavior = Box::new(move |ctx| {
            for _ in 0..rounds {
                let (x, _) = ctx.receive_from(0)?;
                ctx.internal();
                ctx.send(0, x * 2)?;
            }
            Ok(())
        });
        (rt, vec![a, b])
    }

    #[test]
    fn ping_pong_reconstructs() {
        let (rt, behaviors) = ping_pong(5);
        let run = rt.run(behaviors).unwrap();
        let (comp, stamps) = run.reconstruct().unwrap();
        assert_eq!(comp.message_count(), 10);
        assert_eq!(stamps.dim(), 1);
        assert!(stamps.encodes(&Oracle::new(&comp)));
        // Scalar components strictly increase: the path is a star (Lemma 1).
        let vals: Vec<u64> = stamps.rows().map(|v| v[0]).collect();
        assert_eq!(vals, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn timestamps_match_simulator_on_same_computation() {
        let (rt, behaviors) = ping_pong(3);
        let run = rt.run(behaviors).unwrap();
        let (comp, live_stamps) = run.reconstruct().unwrap();
        let dec = decompose::best_known(&topology::path(2));
        let sim_stamps = synctime_core::online::OnlineStamper::new(&dec)
            .stamp_computation(&comp)
            .unwrap();
        assert_eq!(live_stamps, sim_stamps);
    }

    /// A fully sequential token relay over `path(4)` — every rendezvous is
    /// causally ordered, so repeated runs reconstruct the identical
    /// computation regardless of thread scheduling.
    fn relay_behaviors(rounds: u64) -> Vec<Behavior> {
        vec![
            Box::new(move |ctx| {
                for i in 0..rounds {
                    ctx.send(1, i)?;
                    ctx.receive_from(1)?;
                }
                Ok(())
            }),
            Box::new(move |ctx| {
                for _ in 0..rounds {
                    let (x, _) = ctx.receive_from(0)?;
                    ctx.send(2, x)?;
                    let (y, _) = ctx.receive_from(2)?;
                    ctx.send(0, y)?;
                }
                Ok(())
            }),
            Box::new(move |ctx| {
                for _ in 0..rounds {
                    let (x, _) = ctx.receive_from(1)?;
                    ctx.send(3, x)?;
                    let (y, _) = ctx.receive_from(3)?;
                    ctx.send(1, y)?;
                }
                Ok(())
            }),
            Box::new(move |ctx| {
                for _ in 0..rounds {
                    let (x, _) = ctx.receive_from(2)?;
                    ctx.send(2, x + 1)?;
                }
                Ok(())
            }),
        ]
    }

    #[test]
    fn clock_backends_produce_identical_traces() {
        let topo = topology::path(4);
        let dec = decompose::best_known(&topo);
        assert!(dec.len() >= 2, "relay should exercise multi-dim vectors");
        let mut reference = None;
        for backend in [ClockBackend::Dense, ClockBackend::Tree] {
            let rt = Runtime::new(&topo, &dec).with_clock(backend);
            let run = rt.run(relay_behaviors(4)).unwrap();
            let (comp, stamps) = run.reconstruct().unwrap();
            assert!(stamps.encodes(&Oracle::new(&comp)), "{backend}");
            match &reference {
                None => reference = Some((comp, stamps)),
                Some((ref_comp, ref_stamps)) => {
                    assert_eq!(&comp, ref_comp, "{backend} reconstructed differently");
                    assert_eq!(&stamps, ref_stamps, "{backend} stamped differently");
                }
            }
        }
    }

    #[test]
    fn no_channel_is_reported() {
        let topo = topology::path(3);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec);
        let result = rt.run(vec![
            Box::new(|ctx| match ctx.send(2, 1) {
                Err(RuntimeError::NoChannel { from: 0, to: 2 }) => Ok(()),
                other => panic!("expected NoChannel, got {other:?}"),
            }),
            Box::new(|_| Ok(())),
            Box::new(|_| Ok(())),
        ]);
        assert!(result.is_ok());
    }

    #[test]
    fn peer_termination_is_reported() {
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec);
        let err = rt
            .run(vec![
                Box::new(|ctx| {
                    // Peer exits immediately; this receive must fail, not hang.
                    match ctx.receive_from(1) {
                        Err(RuntimeError::PeerTerminated { peer: 1 }) => {
                            Err(RuntimeError::PeerTerminated { peer: 1 })
                        }
                        other => panic!("expected PeerTerminated, got {other:?}"),
                    }
                }),
                Box::new(|_| Ok(())),
            ])
            .unwrap_err();
        assert_eq!(err, RuntimeError::PeerTerminated { peer: 1 });
    }

    #[test]
    fn concurrent_branches_get_concurrent_stamps() {
        // A 5-node tree: two independent leaf pairs talk to their hubs
        // concurrently; the runtime's stamps must reflect the concurrency.
        let topo = topology::balanced_tree(2, 2); // 0 -> {1,2}, 1 -> {3,4}, 2 -> {5,6}
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec);
        let mk_leaf = |hub: ProcessId| -> Behavior {
            Box::new(move |ctx| {
                ctx.send(hub, ctx.id() as u64)?;
                Ok(())
            })
        };
        let mk_hub = |leaves: Vec<ProcessId>| -> Behavior {
            Box::new(move |ctx| {
                for leaf in leaves {
                    ctx.receive_from(leaf)?;
                }
                Ok(())
            })
        };
        let run = rt
            .run(vec![
                Box::new(|_| Ok(())), // root idles
                mk_hub(vec![3, 4]),
                mk_hub(vec![5, 6]),
                mk_leaf(1),
                mk_leaf(1),
                mk_leaf(2),
                mk_leaf(2),
            ])
            .unwrap();
        let (comp, stamps) = run.reconstruct().unwrap();
        assert_eq!(comp.message_count(), 4);
        let oracle = Oracle::new(&comp);
        assert!(stamps.encodes(&oracle));
        // Messages into hub 1 are concurrent with messages into hub 2.
        let (into1, into2): (Vec<&synctime_trace::Message>, Vec<&synctime_trace::Message>) =
            comp.messages().iter().partition(|m| m.receiver == 1);
        for a in &into1 {
            for b in &into2 {
                assert!(stamps.concurrent(a.id, b.id), "{} vs {}", a.id, b.id);
            }
        }
    }

    #[test]
    fn observer_streams_live_stamps() {
        let (rt, behaviors) = ping_pong(4);
        let (tx, rx) = std::sync::mpsc::channel();
        let rt = rt.with_observer(tx);
        let run = rt.run(behaviors).unwrap();
        let observations: Vec<LiveObservation> = rx.try_iter().collect();
        assert_eq!(observations.len(), 8, "one observation per message");
        // Every observation's stamp matches the reconstructed run's stamp
        // for the same key (keys appear in the logs).
        let (comp, stamps) = run.reconstruct().unwrap();
        assert!(stamps.encodes(&Oracle::new(&comp)));
        for obs in &observations {
            let logged = run
                .logs()
                .iter()
                .flatten()
                .find_map(|e| match e {
                    LogEntry::Sent { key, stamp, .. } if *key == obs.key => Some(stamp),
                    _ => None,
                })
                .expect("observed key was logged");
            assert_eq!(logged, &obs.stamp);
        }
        // Dropping the receiver must not break later runs.
        let (rt2, behaviors2) = ping_pong(2);
        let (tx2, rx2) = std::sync::mpsc::channel();
        drop(rx2);
        assert!(rt2.with_observer(tx2).run(behaviors2).is_ok());
    }

    #[test]
    fn panicking_behavior_surfaces() {
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec);
        let err = rt
            .run(vec![Box::new(|_| panic!("boom")), Box::new(|_| Ok(()))])
            .unwrap_err();
        assert_eq!(err, RuntimeError::BehaviorPanicked { process: 0 });
    }

    #[test]
    fn mutual_receive_deadlock_is_diagnosed() {
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec)
            .with_watchdog(Duration::from_millis(100))
            .unwrap();
        let started = Instant::now();
        let err = rt
            .run(vec![
                Box::new(|ctx| ctx.receive_from(1).map(|_| ())),
                Box::new(|ctx| ctx.receive_from(0).map(|_| ())),
            ])
            .unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "watchdog did not fire promptly"
        );
        match err {
            RuntimeError::Deadlock { diagnosis } => {
                assert_eq!(diagnosis.cycle, vec![0, 1], "wrong cycle: {diagnosis}");
                for e in &diagnosis.waiting {
                    assert_eq!(e.op, WaitOp::ReceiveFrom);
                    assert_eq!(e.peer, 1 - e.process);
                    assert!(e.blocked_ms >= 100);
                }
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn mutual_send_deadlock_is_diagnosed() {
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec)
            .with_watchdog(Duration::from_millis(100))
            .unwrap();
        let err = rt
            .run(vec![
                Box::new(|ctx| ctx.send(1, 0).map(|_| ())),
                Box::new(|ctx| ctx.send(0, 0).map(|_| ())),
            ])
            .unwrap_err();
        match err {
            RuntimeError::Deadlock { diagnosis } => {
                assert_eq!(diagnosis.cycle, vec![0, 1]);
                assert!(diagnosis.waiting.iter().all(|e| e.op == WaitOp::SendTo));
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn partial_deadlock_detected_while_others_run() {
        // P1 and P2 deadlock on each other while P0 keeps napping (live,
        // never parked). PR 1's all-blocked detector would have waited for
        // P0 forever; the cycle detector aborts on the {1, 2} cycle alone.
        let topo = topology::path(3);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec)
            .with_watchdog(Duration::from_millis(100))
            .unwrap();
        let err = rt
            .run(vec![
                Box::new(|_| {
                    std::thread::sleep(Duration::from_millis(800));
                    Ok(())
                }),
                Box::new(|ctx| ctx.receive_from(2).map(|_| ())),
                Box::new(|ctx| ctx.receive_from(1).map(|_| ())),
            ])
            .unwrap_err();
        match err {
            RuntimeError::Deadlock { diagnosis } => {
                assert_eq!(diagnosis.cycle, vec![1, 2], "wrong cycle: {diagnosis}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn clean_run_never_trips_the_watchdog() {
        // A tight watchdog over many rounds: every rendezvous completes well
        // inside the timeout, so the run must finish normally.
        let (rt, behaviors) = ping_pong(200);
        let rt = rt.with_watchdog(Duration::from_millis(250)).unwrap();
        let run = rt.run(behaviors).expect("clean run aborted by watchdog");
        assert_eq!(run.stats().messages, 400);
    }

    #[test]
    fn slow_but_live_processes_are_not_deadlocked() {
        // One process naps longer than the watchdog timeout while its peer
        // parks in receive. Not a deadlock: the parked peer's wait chain
        // ends at the napper, which is not parked — no cycle.
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec)
            .with_watchdog(Duration::from_millis(100))
            .unwrap();
        let run = rt
            .run(vec![
                Box::new(|ctx| {
                    std::thread::sleep(Duration::from_millis(300));
                    ctx.send(1, 7).map(|_| ())
                }),
                Box::new(|ctx| ctx.receive_from(0).map(|_| ())),
            ])
            .expect("slow sender misdiagnosed as deadlock");
        assert_eq!(run.stats().messages, 1);
    }

    /// Fires one scripted action at a single `(process, op_index)` pair.
    #[derive(Debug)]
    struct InjectAt {
        process: ProcessId,
        at_op: u64,
        action: FaultAction,
    }

    impl FaultInjector for InjectAt {
        fn action(&self, process: ProcessId, op_index: u64) -> FaultAction {
            if process == self.process && op_index == self.at_op {
                self.action
            } else {
                FaultAction::None
            }
        }
    }

    #[test]
    fn injected_crash_unblocks_peers_with_typed_errors() {
        // P1 crashes before its first operation; both neighbors are parked
        // on it. Even under a tight watchdog this must resolve as typed
        // PeerTerminated errors — never a panic, never a Deadlock report.
        let topo = topology::path(3);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec)
            .with_watchdog(Duration::from_millis(100))
            .unwrap()
            .with_fault_injector(Arc::new(InjectAt {
                process: 1,
                at_op: 0,
                action: FaultAction::Crash,
            }));
        let run = rt.run_tolerant(vec![
            Box::new(|ctx| ctx.send(1, 7).map(|_| ())),
            Box::new(|ctx| ctx.receive_from(0).map(|_| ())),
            Box::new(|ctx| ctx.receive_from(1).map(|_| ())),
        ]);
        assert_eq!(
            run.outcomes()[1],
            Some(RuntimeError::FaultInjected {
                process: 1,
                at_op: 0
            })
        );
        assert_eq!(
            run.outcomes()[0],
            Some(RuntimeError::PeerTerminated { peer: 1 })
        );
        assert_eq!(
            run.outcomes()[2],
            Some(RuntimeError::PeerTerminated { peer: 1 })
        );
        assert_eq!(run.survivors(), 0);
        assert_eq!(run.stats().faults_injected, 1);
    }

    #[test]
    fn forced_desync_recovers_via_resync_frames() {
        // Desync P0's outgoing data stream at its second send: the receiver
        // detects the sequence gap, requests a full-vector resync, and the
        // run completes with correct stamps — degradation, not failure.
        let (rt, behaviors) = ping_pong(5);
        let rt = rt.with_fault_injector(Arc::new(InjectAt {
            process: 0,
            at_op: 2,
            action: FaultAction::DesyncNext,
        }));
        let run = rt.run(behaviors).expect("desync must be recovered");
        let stats = run.stats();
        assert!(stats.resync_frames >= 1, "no resync recorded: {stats:?}");
        assert_eq!(stats.faults_injected, 1);
        let (comp, stamps) = run.reconstruct().unwrap();
        assert_eq!(comp.message_count(), 10);
        assert!(stamps.encodes(&Oracle::new(&comp)));
    }

    #[test]
    fn injected_delay_slows_but_completes() {
        let (rt, behaviors) = ping_pong(3);
        let rt = rt.with_fault_injector(Arc::new(InjectAt {
            process: 1,
            at_op: 0,
            action: FaultAction::Delay(Duration::from_millis(50)),
        }));
        let started = Instant::now();
        let run = rt.run(behaviors).expect("a delay is not a failure");
        assert!(started.elapsed() >= Duration::from_millis(50));
        assert_eq!(run.stats().faults_injected, 1);
        assert_eq!(run.stats().messages, 6);
    }

    #[test]
    fn rendezvous_timeout_fires_with_typed_error() {
        // P1 is alive but naps past the sender's rendezvous budget: the
        // send gives up with RendezvousTimeout instead of blocking forever,
        // and the napper itself finishes cleanly.
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec)
            .without_watchdog()
            .with_rendezvous_timeout(Duration::from_millis(50))
            .with_rendezvous_retries(0);
        let run = rt.run_tolerant(vec![
            Box::new(|ctx| ctx.send(1, 1).map(|_| ())),
            Box::new(|_| {
                std::thread::sleep(Duration::from_millis(400));
                Ok(())
            }),
        ]);
        match &run.outcomes()[0] {
            Some(RuntimeError::RendezvousTimeout { peer: 1, waited_ms }) => {
                assert!(*waited_ms >= 50, "gave up too early: {waited_ms}ms");
            }
            other => panic!("expected RendezvousTimeout, got {other:?}"),
        }
        assert_eq!(run.outcomes()[1], None);
        assert_eq!(run.survivors(), 1);
    }

    #[test]
    fn offer_after_a_timed_out_send_stays_plain() {
        // P0's second send times out while P1 naps: its frame is retracted
        // undecoded, so the stream to P1 has a gap. P1 then parks first and
        // posts its ack; P0's third send must not be handed against it —
        // P1 could not decode the frame and no longer ask for a resync.
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        // Every step has 300 ms of slack against the 400 ms timeout.
        let rt = Runtime::new(&topo, &dec)
            .with_rendezvous_timeout(Duration::from_millis(400))
            .with_rendezvous_retries(0);
        let run = rt.run_tolerant(vec![
            Box::new(|ctx| {
                ctx.send(1, 1)?;
                match ctx.send(1, 2) {
                    Err(RuntimeError::RendezvousTimeout { peer: 1, .. }) => {}
                    other => panic!("expected a timeout, got {other:?}"),
                }
                // P1 wakes at ~700 ms and parks: offer at ~800 ms.
                std::thread::sleep(Duration::from_millis(400));
                ctx.send(1, 3).map(|_| ())
            }),
            Box::new(|ctx| {
                ctx.receive_from(0)?;
                std::thread::sleep(Duration::from_millis(700));
                let (x, _) = ctx.receive_from(0)?;
                assert_eq!(x, 3);
                Ok(())
            }),
        ]);
        assert_eq!(run.outcomes(), &[None, None]);
        assert!(run.stats().resync_frames >= 1, "the gap was repaired");
        let (comp, stamps) = run.reconstruct().unwrap();
        assert_eq!(comp.message_count(), 2);
        assert!(stamps.encodes(&Oracle::new(&comp)));
    }

    #[test]
    fn panic_preserves_partial_logs_and_surviving_prefix() {
        // P1 completes one rendezvous, then panics. The casualty's log must
        // survive (it rode the panic boundary, not the thread teardown), and
        // the completed prefix must still reconstruct with correct stamps.
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let rt = Runtime::new(&topo, &dec);
        let run = rt.run_tolerant(vec![
            Box::new(|ctx| {
                ctx.send(1, 9)?;
                match ctx.receive_from(1) {
                    Err(RuntimeError::PeerTerminated { peer: 1 }) => Ok(()),
                    other => panic!("expected PeerTerminated, got {other:?}"),
                }
            }),
            Box::new(|ctx| {
                let (x, _) = ctx.receive_from(0)?;
                assert_eq!(x, 9);
                panic!("scripted crash after a completed rendezvous");
            }),
        ]);
        assert_eq!(
            run.outcomes()[1],
            Some(RuntimeError::BehaviorPanicked { process: 1 })
        );
        assert_eq!(run.survivors(), 1);
        assert!(!run.logs()[1].is_empty(), "casualty's log was lost");
        let (comp, stamps) = run.reconstruct().expect("surviving prefix reconstructs");
        assert_eq!(comp.message_count(), 1);
        assert!(stamps.encodes(&Oracle::new(&comp)));
    }

    #[test]
    fn run_stats_capture_counts_bytes_and_latency() {
        let (rt, behaviors) = ping_pong(5);
        let run = rt.run(behaviors).unwrap();
        let stats = run.stats();
        assert_eq!(stats.process_count, 2);
        assert_eq!(stats.messages, 10);
        assert_eq!(stats.receives, 10);
        // path(2) decomposes into one star: dim 1, so a full-width
        // rendezvous prices as one offer frame plus one ack frame with
        // 8-byte vectors (`core::wire::rendezvous_bytes_full`), counted at
        // both endpoints. The actual bytes ride the per-channel delta
        // streams, so they are positive and never exceed the full-width
        // baseline.
        assert_eq!(
            stats.total_wire_bytes_full,
            10 * 2 * synctime_core::wire::rendezvous_bytes_full(1)
        );
        assert!(stats.total_wire_bytes > 0);
        assert!(stats.total_wire_bytes <= stats.total_wire_bytes_full);
        assert!(stats.wire_savings_ratio <= 1.0);
        // Both directed channels of the ping-pong edge are reported.
        assert_eq!(stats.per_channel.len(), 2);
        assert!(stats
            .per_channel
            .iter()
            .all(|c| c.messages == 5 && c.wire_bytes > 0));
        // 10 messages through a single edge group: the component reaches 10.
        assert_eq!(stats.max_vector_component, 10);
        assert!(stats.ack_latency_p50_ns > 0);
        assert!(stats.ack_latency_p99_ns >= stats.ack_latency_p50_ns);
        assert!(stats.ack_latency_max_ns >= stats.ack_latency_p99_ns);
        assert_eq!(stats.latency_sample_dropped, 0);
        assert_eq!(stats.per_process[0].sends, 5);
        assert_eq!(stats.per_process[1].receives, 5);
        // Strict ping-pong alternation: at every rendezvous one side arrives
        // second and parks, so wakeup samples exist and are ordered.
        assert!(stats.wakeups > 0);
        assert!(stats.wakeup_p99_ns >= stats.wakeup_p50_ns);
        assert!(stats.wakeup_max_ns >= stats.wakeup_p99_ns);
        // The JSON rendering round-trips.
        let back = synctime_obs::RunStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(&back, stats);
    }

    /// Behaviors for one token-passing round trip on the path 0–1–2.
    fn three_path_behaviors() -> Vec<Behavior> {
        let p0: Behavior = Box::new(|ctx| {
            ctx.send(1, 7)?;
            let (x, _) = ctx.receive_from(1)?;
            assert_eq!(x, 9);
            Ok(())
        });
        let p1: Behavior = Box::new(|ctx| {
            let (x, _) = ctx.receive_from(0)?;
            ctx.send(2, x + 1)?;
            let (y, _) = ctx.receive_from(2)?;
            ctx.send(0, y)?;
            Ok(())
        });
        let p2: Behavior = Box::new(|ctx| {
            let (x, _) = ctx.receive_from(1)?;
            ctx.send(1, x + 1)?;
            Ok(())
        });
        vec![p0, p1, p2]
    }

    #[test]
    fn apply_reconfigure_resumes_order_isomorphic_to_reference() {
        use synctime_graph::{EdgeOp, IncrementalDecomposition};
        // Epoch 0: ping-pong on channel 0–1 of a fixed 3-process universe;
        // process 2 has not joined yet and idles (topology changes edit
        // edges, never the process universe).
        let topo0 = Graph::from_edges(3, [(0, 1)]).unwrap();
        let mut inc = IncrementalDecomposition::new(&topo0);
        let mut rt = Runtime::new(&topo0, inc.decomposition());
        let (rt0, mut behaviors0) = ping_pong(3);
        drop(rt0);
        behaviors0.push(Box::new(|_| Ok(())));
        let run0 = rt.run(behaviors0).unwrap();
        assert_eq!(run0.final_clocks().len(), 3);

        // Epoch boundary: max-merge every final clock into the baseline,
        // then rebase it through the remap of the committed edit batch
        // (grow 0–1 into the path 0–1–2).
        let mut old_baseline = VectorTime::zero(inc.decomposition().len());
        for clock in run0.final_clocks() {
            old_baseline.merge_max(clock).unwrap();
        }
        // The 2-path saw 6 messages through its single group.
        assert_eq!(old_baseline.component(0), 6);
        let remap = inc.apply_ops(&[EdgeOp::Insert(1, 2)]).unwrap();
        let new_dim = inc.decomposition().len();
        let mut slots = vec![0u64; new_dim];
        for (old, new) in remap.old_to_new.iter().enumerate() {
            if let Some(n) = new {
                slots[*n] = old_baseline.component(old);
            }
        }
        let baseline = VectorTime::from(slots);

        // Out-of-order epochs are refused before any state changes.
        let skipped = AppliedReconfigure {
            epoch: 2,
            topology: inc.graph().clone(),
            decomposition: inc.decomposition().clone(),
            remap: remap.clone(),
            baseline: baseline.clone(),
        };
        assert_eq!(
            rt.apply_reconfigure(&skipped),
            Err(RuntimeError::EpochMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(rt.epoch(), 0);

        // So are a baseline and a remap whose width is not the new
        // decomposition's, each reported with the width that disagrees.
        let mut wrong_width = AppliedReconfigure {
            epoch: 1,
            baseline: VectorTime::zero(new_dim + 2),
            ..skipped.clone()
        };
        let err = rt.apply_reconfigure(&wrong_width).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::DimensionMismatch {
                expected: new_dim,
                got: new_dim + 2
            }
        );
        // The message names the baseline and both widths, not a backend.
        let msg = err.to_string();
        assert!(msg.contains("baseline"), "{msg}");
        assert!(
            msg.contains(&format!("{} components", new_dim + 2)),
            "{msg}"
        );
        assert!(msg.contains(&format!("{new_dim} edge groups")), "{msg}");
        assert!(!msg.contains("backend"), "{msg}");
        wrong_width.baseline = baseline.clone();
        wrong_width.remap.new_len = new_dim + 1;
        assert_eq!(
            rt.apply_reconfigure(&wrong_width),
            Err(RuntimeError::DimensionMismatch {
                expected: new_dim,
                got: new_dim + 1
            })
        );
        assert_eq!(rt.epoch(), 0);

        rt.apply_reconfigure(&AppliedReconfigure {
            epoch: 1,
            ..skipped
        })
        .unwrap();
        assert_eq!(rt.epoch(), 1);

        // Epoch 1 on the reconfigured runtime vs an uninterrupted
        // zero-started reference over the same post-change topology.
        let run1 = rt.run(three_path_behaviors()).unwrap();
        let reference = Runtime::new(inc.graph(), inc.decomposition());
        let ref_run = reference.run(three_path_behaviors()).unwrap();

        // Every epoch-1 stamp is the reference stamp shifted by the
        // uniform baseline (`max(B+x, B+y) = B + max(x, y)`)...
        for (log, ref_log) in run1.logs().iter().zip(ref_run.logs()) {
            assert_eq!(log.len(), ref_log.len());
            for (entry, ref_entry) in log.iter().zip(ref_log) {
                let (stamp, ref_stamp) = match (entry, ref_entry) {
                    (
                        LogEntry::Sent { stamp, .. },
                        LogEntry::Sent {
                            stamp: ref_stamp, ..
                        },
                    )
                    | (
                        LogEntry::Received { stamp, .. },
                        LogEntry::Received {
                            stamp: ref_stamp, ..
                        },
                    ) => (stamp, ref_stamp),
                    (LogEntry::Internal, LogEntry::Internal) => continue,
                    other => panic!("log shapes diverged: {other:?}"),
                };
                let shifted: Vec<u64> = ref_stamp
                    .as_slice()
                    .iter()
                    .zip(baseline.as_slice())
                    .map(|(r, b)| r + b)
                    .collect();
                assert_eq!(stamp.as_slice(), &shifted[..]);
            }
        }
        // ...so every precedence verdict matches the reference run's.
        let (_, stamps) = run1.reconstruct().unwrap();
        let (ref_comp, ref_stamps) = ref_run.reconstruct().unwrap();
        assert!(ref_stamps.encodes(&Oracle::new(&ref_comp)));
        assert!(stamps.encodes(&Oracle::new(&ref_comp)));
    }

    /// A token ring of `n` processes: every process but 0 ends on a send
    /// and exits right after it.
    fn ring(n: usize, rounds: u64) -> (Runtime, Vec<Behavior>) {
        let topo = topology::cycle(n);
        let dec = decompose::best_known(&topo);
        let behaviors = (0..n)
            .map(|p| -> Behavior {
                Box::new(move |ctx| {
                    for i in 0..rounds {
                        if p == 0 {
                            ctx.send(1, i)?;
                            ctx.receive_from(n - 1)?;
                        } else {
                            let (token, _) = ctx.receive_from(p - 1)?;
                            ctx.send((p + 1) % n, token)?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        (Runtime::new(&topo, &dec), behaviors)
    }

    #[test]
    fn handed_last_sends_are_always_delivered() {
        // A send handed against a posted acknowledgement completes at once,
        // so a sender whose last operation it was exits before its receiver
        // has taken the offer — and exits wake every parked receiver, which
        // may then find its sender gone. The receive must still complete.
        for i in 0..200u64 {
            let (rt, behaviors) = match i % 3 {
                0 => ping_pong(1 + i % 4),
                1 => ring(3, 1 + i % 3),
                _ => ring(5, 2),
            };
            let run = rt.run_tolerant(behaviors);
            assert!(
                run.outcomes().iter().all(Option::is_none),
                "iteration {i}: {:?}",
                run.outcomes()
            );
            let (comp, stamps) = run.reconstruct().expect("every send was received");
            assert!(stamps.encodes(&Oracle::new(&comp)), "iteration {i}");
        }
    }
}
