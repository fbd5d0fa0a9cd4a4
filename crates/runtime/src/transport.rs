//! The transport abstraction under the rendezvous runtime.
//!
//! PR 2's matcher welded `ProcessCtx::send`/`receive_from` directly to the
//! in-process [`ChannelSlot`]. This module splits the rendezvous state
//! machine from the medium it runs over: the runtime's wait loops (timeout
//! budgets, watchdog registration, fault injection, resync protocol) drive
//! a pair of per-channel trait objects — [`TxChannel`] for the sending
//! endpoint, [`RxChannel`] for the receiving endpoint — and the medium
//! behind them is interchangeable:
//!
//! * [`LocalTx`]/[`LocalRx`] (this module) wrap the mutex+condvar
//!   [`ChannelSlot`], preserving the in-process matcher's exact semantics;
//! * `synctime-net` implements the same traits over per-peer TCP
//!   connections, so the same `Behavior` programs run unmodified as `N`
//!   real OS processes.
//!
//! Every method is a **bounded poll**: it either returns a result, or
//! waits at most `cap` (transport backstop when `cap` is `None`) and
//! reports [`Polled::Pending`]. The caller loops, interleaving its own
//! abort/liveness/timeout checks between polls — which is exactly what
//! keeps the deadlock watchdog, rendezvous timeouts, and fault machinery
//! shared between the local and TCP paths instead of forked per medium.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::matcher::{ChannelSlot, SlotState, Wire};

/// Outcome of one bounded poll: the awaited state change, or not yet.
#[derive(Debug)]
pub enum Polled<T> {
    /// The awaited state change happened; here is its value.
    Ready(T),
    /// Not yet — the caller should run its abort/timeout checks and poll
    /// again.
    Pending,
}

/// What [`TxChannel::poll_ready`] reports once the channel can carry a new
/// offer.
#[derive(Debug)]
pub struct ReadySlot {
    /// The channel held an unserviced resync request from an earlier,
    /// errored exchange. The sender must re-anchor its delta stream with a
    /// full-vector frame before encoding the new offer.
    pub resync_debris: bool,
}

/// A message offer as observed by the receiving endpoint.
#[derive(Debug)]
pub struct RawOffer {
    /// The message's globally unique reconstruction key.
    pub key: u64,
    /// The program payload.
    pub payload: u64,
    /// The piggybacked vector, delta-encoded on the channel's data stream.
    pub vector: Vec<u8>,
    /// When the offer became observable at this endpoint (slot deposit
    /// locally; frame arrival over TCP). Basis for wakeup-latency samples.
    pub offered_at: Instant,
}

/// The receiving endpoint's reply to a taken offer.
#[derive(Debug)]
pub enum OfferAnswer {
    /// Lines 04–06 of Figure 5 ran: here is the receiver's pre-update
    /// vector, delta-encoded on the channel's acknowledgement stream.
    Ack(Vec<u8>),
    /// The offer's piggybacked vector did not decode (delta-stream
    /// sequence gap): ask the sender to re-offer with a full vector.
    Resync,
}

/// What the sending endpoint observes in answer to its offer.
#[derive(Debug)]
pub enum SendAnswer {
    /// The receiver took the offer and acknowledged it.
    Acked {
        /// The acknowledgement payload (receiver's pre-update vector,
        /// delta-encoded on the reverse stream).
        ack: Vec<u8>,
        /// When the receiver took the offer (locally) or when the offer
        /// was written to the wire (TCP, where the sender cannot observe
        /// the remote take) — the ack-latency sample's starting point.
        taken: Instant,
        /// When the acknowledgement became observable at this endpoint.
        acked: Instant,
    },
    /// The receiver asked for a full-vector resync re-offer.
    ResyncRequested,
}

/// Why a transport operation failed. The runtime maps [`Closed`] to
/// `RuntimeError::PeerTerminated` (a TCP peer closing its socket is the
/// distributed analogue of a thread exiting) and [`Io`] to
/// `RuntimeError::ChannelIo`.
///
/// [`Closed`]: TransportError::Closed
/// [`Io`]: TransportError::Io
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer endpoint is gone for good (socket closed, connection
    /// reset). No more traffic will flow on this channel.
    Closed,
    /// The medium failed in a way that is not a clean close (OS error on
    /// read/write, oversized or malformed frame).
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "channel closed by peer"),
            TransportError::Io(detail) => write!(f, "channel I/O failure: {detail}"),
        }
    }
}

/// The sending endpoint of one directed rendezvous channel.
///
/// The runtime drives it through one offer cycle per `send`:
/// `poll_ready` until the channel accepts a new offer, `offer`, then
/// `poll_answer` until the receiver acks (or bounces a resync request, in
/// which case the runtime re-offers the same key with a full vector).
/// `retract` removes a still-untaken offer when the send errors out, so
/// survivors inherit a clean channel.
///
/// All waiting is bounded: a poll waits at most `cap` (or the transport's
/// own backstop when `cap` is `None`) before reporting
/// [`Polled::Pending`], so the caller re-checks abort, peer liveness, and
/// timeout budgets at a bounded cadence no matter the medium.
pub trait TxChannel: Send + Sync + fmt::Debug {
    /// Polls until the channel can carry a new offer. Reports leftover
    /// resync debris from an earlier errored exchange (see [`ReadySlot`]).
    fn poll_ready(&self, cap: Option<Duration>) -> Result<Polled<ReadySlot>, TransportError>;

    /// Deposits an offer (program payload plus delta-encoded vector) on
    /// the channel. Must only be called after `poll_ready` returned
    /// [`Polled::Ready`].
    fn offer(&self, key: u64, payload: u64, vector: &[u8]) -> Result<(), TransportError>;

    /// Polls for the receiver's answer to the offer with key `key`.
    /// Answers to any other key are stale debris and are discarded.
    fn poll_answer(
        &self,
        key: u64,
        cap: Option<Duration>,
    ) -> Result<Polled<SendAnswer>, TransportError>;

    /// Removes this endpoint's own offer with key `key` if it is still
    /// sitting untaken, so an errored send leaves no debris blocking the
    /// channel. Best-effort over media where the offer has already left
    /// the machine.
    fn retract(&self, key: u64);
}

/// The receiving endpoint of one directed rendezvous channel.
///
/// The runtime drives it through one take cycle per `receive_from`:
/// `poll_offer` until a message arrives, then exactly one `answer` — an
/// [`OfferAnswer::Ack`] completing the rendezvous, or an
/// [`OfferAnswer::Resync`] bouncing the offer back for a full-vector
/// re-offer (after which it polls again).
pub trait RxChannel: Send + Sync + fmt::Debug {
    /// Polls until the sender's offer is observable, and takes it.
    fn poll_offer(&self, cap: Option<Duration>) -> Result<Polled<RawOffer>, TransportError>;

    /// Replies to the most recently taken offer.
    fn answer(&self, answer: OfferAnswer) -> Result<(), TransportError>;
}

/// How many wait steps a local poll may take for this cap. A
/// `Some(Duration::ZERO)` cap is the runtime's fast-path probe: it must be
/// a pure state check under one uninterrupted lock hold. Even a zero
/// condvar wait is a syscall that releases the lock and can yield the CPU
/// to the peer (deterministically so on a single-core host), which would
/// let the whole exchange complete "instantly" inside the probe and starve
/// the caller's park/wakeup accounting of ever observing a wait.
fn waits(cap: Option<Duration>) -> usize {
    usize::from(cap != Some(Duration::ZERO))
}

/// [`TxChannel`] over the in-process [`ChannelSlot`]: the PR 2 matcher's
/// sender half, unchanged in semantics — one mutex+condvar slot carries
/// the whole exchange and a parked endpoint consumes no CPU.
#[derive(Debug)]
pub(crate) struct LocalTx {
    slot: Arc<ChannelSlot>,
}

impl LocalTx {
    pub(crate) fn new(slot: Arc<ChannelSlot>) -> Self {
        LocalTx { slot }
    }
}

impl TxChannel for LocalTx {
    fn poll_ready(&self, cap: Option<Duration>) -> Result<Polled<ReadySlot>, TransportError> {
        let mut st = self.slot.lock();
        // In a healthy run the slot is Empty here (each exchange on a
        // channel completes before the next), but an aborted rendezvous
        // can leave debris; waiting keeps the state machine
        // self-consistent and lets the caller's checks surface the real
        // error.
        for pass in 0..=waits(cap) {
            match &*st {
                SlotState::Empty => {
                    return Ok(Polled::Ready(ReadySlot {
                        resync_debris: false,
                    }))
                }
                SlotState::ResyncRequested => {
                    // Debris from an earlier errored send on this channel:
                    // the receiver asked for a resync nobody serviced.
                    *st = SlotState::Empty;
                    return Ok(Polled::Ready(ReadySlot {
                        resync_debris: true,
                    }));
                }
                _ if pass < waits(cap) => st = self.slot.wait_step(st, cap),
                _ => {}
            }
        }
        Ok(Polled::Pending)
    }

    fn offer(&self, key: u64, payload: u64, vector: &[u8]) -> Result<(), TransportError> {
        let mut st = self.slot.lock();
        *st = SlotState::Offered {
            wire: Wire {
                key,
                payload,
                vector: vector.to_vec(),
            },
            at: Instant::now(),
        };
        self.slot.notify();
        Ok(())
    }

    fn poll_answer(
        &self,
        key: u64,
        cap: Option<Duration>,
    ) -> Result<Polled<SendAnswer>, TransportError> {
        let _ = key; // one offer in flight per slot: every answer is ours
        let mut st = self.slot.lock();
        for pass in 0..=waits(cap) {
            match std::mem::replace(&mut *st, SlotState::Empty) {
                SlotState::Acked { ack, taken, acked } => {
                    self.slot.notify();
                    return Ok(Polled::Ready(SendAnswer::Acked { ack, taken, acked }));
                }
                SlotState::ResyncRequested => {
                    self.slot.notify();
                    return Ok(Polled::Ready(SendAnswer::ResyncRequested));
                }
                other => {
                    *st = other;
                    if pass < waits(cap) {
                        st = self.slot.wait_step(st, cap);
                    }
                }
            }
        }
        Ok(Polled::Pending)
    }

    fn retract(&self, key: u64) {
        let mut st = self.slot.lock();
        if matches!(&*st, SlotState::Offered { wire, .. } if wire.key == key) {
            *st = SlotState::Empty;
            self.slot.notify();
        }
    }
}

/// [`RxChannel`] over the in-process [`ChannelSlot`]: the PR 2 matcher's
/// receiver half. The take (in `poll_offer`) and the ack deposit (in
/// `answer`) are separate lock holds, which is safe: while the taken
/// offer is being processed the slot reads Empty, and the parked sender
/// simply keeps waiting for the answer deposit.
#[derive(Debug)]
pub(crate) struct LocalRx {
    slot: Arc<ChannelSlot>,
    /// When `poll_offer` took the in-flight offer — stamped into the
    /// `Acked` deposit so the sender's ack-latency sample starts at the
    /// take, exactly as the pre-trait matcher measured it.
    taken: Mutex<Option<Instant>>,
}

impl LocalRx {
    pub(crate) fn new(slot: Arc<ChannelSlot>) -> Self {
        LocalRx {
            slot,
            taken: Mutex::new(None),
        }
    }
}

impl RxChannel for LocalRx {
    fn poll_offer(&self, cap: Option<Duration>) -> Result<Polled<RawOffer>, TransportError> {
        let mut st = self.slot.lock();
        for pass in 0..=waits(cap) {
            match std::mem::replace(&mut *st, SlotState::Empty) {
                SlotState::Offered { wire, at } => {
                    *self.taken.lock().unwrap_or_else(PoisonError::into_inner) =
                        Some(Instant::now());
                    return Ok(Polled::Ready(RawOffer {
                        key: wire.key,
                        payload: wire.payload,
                        vector: wire.vector,
                        offered_at: at,
                    }));
                }
                other => {
                    *st = other;
                    if pass < waits(cap) {
                        st = self.slot.wait_step(st, cap);
                    }
                }
            }
        }
        Ok(Polled::Pending)
    }

    fn answer(&self, answer: OfferAnswer) -> Result<(), TransportError> {
        let taken = self
            .taken
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or_else(Instant::now);
        let mut st = self.slot.lock();
        *st = match answer {
            OfferAnswer::Ack(ack) => SlotState::Acked {
                ack,
                taken,
                acked: Instant::now(),
            },
            OfferAnswer::Resync => SlotState::ResyncRequested,
        };
        self.slot.notify();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (LocalTx, LocalRx) {
        let slot = Arc::new(ChannelSlot::new());
        (LocalTx::new(Arc::clone(&slot)), LocalRx::new(slot))
    }

    #[test]
    fn local_offer_ack_roundtrip() {
        let (tx, rx) = pair();
        assert!(matches!(
            tx.poll_ready(Some(Duration::ZERO)),
            Ok(Polled::Ready(ReadySlot {
                resync_debris: false
            }))
        ));
        tx.offer(7, 42, &[1, 2, 3]).unwrap();
        let offer = match rx.poll_offer(Some(Duration::ZERO)) {
            Ok(Polled::Ready(o)) => o,
            other => panic!("expected offer, got {other:?}"),
        };
        assert_eq!((offer.key, offer.payload), (7, 42));
        assert_eq!(offer.vector, vec![1, 2, 3]);
        rx.answer(OfferAnswer::Ack(vec![9])).unwrap();
        match tx.poll_answer(7, Some(Duration::ZERO)) {
            Ok(Polled::Ready(SendAnswer::Acked { ack, .. })) => assert_eq!(ack, vec![9]),
            other => panic!("expected ack, got {other:?}"),
        }
        // The channel is clean for the next exchange.
        assert!(matches!(
            tx.poll_ready(Some(Duration::ZERO)),
            Ok(Polled::Ready(_))
        ));
    }

    #[test]
    fn local_resync_bounce_and_debris() {
        let (tx, rx) = pair();
        tx.offer(1, 0, &[5]).unwrap();
        assert!(matches!(
            rx.poll_offer(Some(Duration::ZERO)),
            Ok(Polled::Ready(_))
        ));
        rx.answer(OfferAnswer::Resync).unwrap();
        assert!(matches!(
            tx.poll_answer(1, Some(Duration::ZERO)),
            Ok(Polled::Ready(SendAnswer::ResyncRequested))
        ));
        // An unserviced resync request surfaces as debris on the next send.
        rx.answer(OfferAnswer::Resync).unwrap();
        assert!(matches!(
            tx.poll_ready(Some(Duration::ZERO)),
            Ok(Polled::Ready(ReadySlot {
                resync_debris: true
            }))
        ));
    }

    #[test]
    fn local_pending_and_retract() {
        let (tx, rx) = pair();
        assert!(matches!(
            rx.poll_offer(Some(Duration::ZERO)),
            Ok(Polled::Pending)
        ));
        tx.offer(3, 1, &[]).unwrap();
        assert!(matches!(
            tx.poll_answer(3, Some(Duration::ZERO)),
            Ok(Polled::Pending)
        ));
        // Another offer occupies the slot: not ready.
        assert!(matches!(
            tx.poll_ready(Some(Duration::ZERO)),
            Ok(Polled::Pending)
        ));
        tx.retract(99); // wrong key: no-op
        assert!(matches!(
            rx.poll_offer(Some(Duration::ZERO)),
            Ok(Polled::Ready(_))
        ));
        tx.offer(4, 2, &[]).unwrap();
        tx.retract(4);
        assert!(matches!(
            rx.poll_offer(Some(Duration::ZERO)),
            Ok(Polled::Pending)
        ));
    }
}
