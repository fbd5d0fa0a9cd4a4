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
//!   [`ChannelSlot`], including its handoff: a receiver about to park
//!   posts its acknowledgement, and a sender that finds it posted
//!   completes without parking;
//! * `synctime-net` implements the same traits over per-peer TCP
//!   connections, so the same `Behavior` programs run unmodified as `N`
//!   real OS processes. It never hands an offer: a posted acknowledgement
//!   is ignored there.
//!
//! Every method is a **bounded poll**: it either returns a result, or
//! waits at most `cap` (transport backstop when `cap` is `None`) and
//! reports [`Polled::Pending`]. The caller loops, interleaving its own
//! abort/liveness/timeout checks between polls — which is exactly what
//! keeps the deadlock watchdog, rendezvous timeouts, and fault machinery
//! shared between the local and TCP paths instead of forked per medium.
//!
//! Frame bytes cross the traits borrowed: offers and answers are read
//! from the caller's slices, and received bytes are written into the
//! caller's buffers, so no frame needs an allocation of its own.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::matcher::{ChannelSlot, HandedAck, Slot, SlotState};

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

/// A message offer as observed by the receiving endpoint. The piggybacked
/// vector's bytes (delta-encoded on the channel's data stream) are written
/// into the buffer passed to [`RxChannel::poll_offer`].
#[derive(Debug)]
pub struct RawOffer {
    /// The message's globally unique reconstruction key.
    pub key: u64,
    /// The program payload.
    pub payload: u64,
    /// When the offer became observable at this endpoint: its slot
    /// deposit locally; over TCP, the waiting thread's read of the frame,
    /// so no thread handoff is counted. Basis for wakeup-latency samples.
    pub offered_at: Instant,
    /// The sender took this endpoint's posted acknowledgement and has
    /// completed its send: the offer is already answered. The receiver
    /// completes its side without calling [`RxChannel::answer`].
    pub handed: bool,
}

/// The receiving endpoint's reply to a taken offer.
#[derive(Debug)]
pub enum OfferAnswer<'a> {
    /// Lines 04–06 of Figure 5 ran: here is the receiver's pre-update
    /// vector, delta-encoded on the channel's acknowledgement stream.
    Ack(&'a [u8]),
    /// The offer's piggybacked vector did not decode (delta-stream
    /// sequence gap): ask the sender to re-offer with a full vector.
    Resync,
}

/// What the sending endpoint observes in answer to its offer.
#[derive(Debug)]
pub enum SendAnswer {
    /// The receiver acknowledged the offer; the acknowledgement payload
    /// (the receiver's pre-update vector, delta-encoded on the reverse
    /// stream) was written into the buffer passed to
    /// [`TxChannel::poll_answer`].
    Acked {
        /// When the receiver took the offer (locally), when the offer was
        /// handed against a posted acknowledgement, or when the offer was
        /// written to the wire (TCP, where the sender cannot observe the
        /// remote take) — the ack-latency sample's starting point.
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
    ///
    /// With `handoff`, a medium whose receiver has posted its
    /// acknowledgement may answer the offer with it on the spot, so the
    /// next `poll_answer` returns without waiting. A sender passes `false`
    /// when the receiver might fail to decode `vector` (a delta stream
    /// with a gap): only a plain offer can still be bounced for a resync.
    fn offer(
        &self,
        key: u64,
        payload: u64,
        vector: &[u8],
        handoff: bool,
    ) -> Result<(), TransportError>;

    /// Polls for the receiver's answer to the offer with key `key`. On an
    /// acknowledgement its bytes replace the contents of `ack`. Answers to
    /// any other key are stale debris and are discarded.
    fn poll_answer(
        &self,
        key: u64,
        cap: Option<Duration>,
        ack: &mut Vec<u8>,
    ) -> Result<Polled<SendAnswer>, TransportError>;

    /// Removes this endpoint's own offer with key `key` if it is still
    /// sitting untaken and unanswered, so an errored send leaves no debris
    /// blocking the channel. A handed offer is never removed: its sender
    /// has completed, so its receiver must take it. Best-effort over media
    /// where the offer has already left the machine.
    fn retract(&self, key: u64);
}

/// The receiving endpoint of one directed rendezvous channel.
///
/// The runtime drives it through one take cycle per `receive_from`:
/// `poll_offer` until a message arrives, then — unless the offer came
/// handed — exactly one `answer`: an [`OfferAnswer::Ack`] completing the
/// rendezvous, or an [`OfferAnswer::Resync`] bouncing the offer back for a
/// full-vector re-offer (after which it polls again).
pub trait RxChannel: Send + Sync + fmt::Debug {
    /// Polls until the sender's offer is observable, and takes it; its
    /// vector bytes replace the contents of `vector`.
    ///
    /// `posted` is the acknowledgement this endpoint would answer with
    /// (its pre-update vector, encoded without advancing its stream). A
    /// medium that supports the handoff posts it while the channel is
    /// empty, and a sender may then take it in place of an answer: the
    /// offer comes back [`RawOffer::handed`]. A posted acknowledgement
    /// stays up across `Pending` polls until an offer is taken or
    /// [`RxChannel::withdraw`] is called.
    fn poll_offer(
        &self,
        cap: Option<Duration>,
        posted: Option<&[u8]>,
        vector: &mut Vec<u8>,
    ) -> Result<Polled<RawOffer>, TransportError>;

    /// Replies to the most recently taken offer.
    fn answer(&self, answer: OfferAnswer<'_>) -> Result<(), TransportError>;

    /// Withdraws this endpoint's posted acknowledgement before a receive
    /// gives up, in one step with a last look at the channel: an offer
    /// already handed against the post has been completed by its sender,
    /// so it is taken (bytes into `vector`) and returned, and the receive
    /// must complete it instead of failing. A plain offer is left for its
    /// sender to retract. Media that never hand offers have nothing to
    /// withdraw.
    fn withdraw(&self, vector: &mut Vec<u8>) -> Option<RawOffer> {
        let _ = vector;
        None
    }
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

/// Takes the offer sitting in `slot` — only a handed one with
/// `handed_only` — copying its vector bytes into `vector`, and leaves the
/// slot `Empty`.
fn take_offer(slot: &mut Slot, vector: &mut Vec<u8>, handed_only: bool) -> Option<RawOffer> {
    let (key, payload, offered_at, handed) = match slot.state {
        SlotState::Handed { key, payload, at } => (key, payload, at, true),
        SlotState::Offered { key, payload, at } if !handed_only => (key, payload, at, false),
        _ => return None,
    };
    vector.clear();
    vector.extend_from_slice(&slot.offer);
    slot.state = SlotState::Empty;
    if !handed {
        slot.taken = Some(Instant::now());
    }
    Some(RawOffer {
        key,
        payload,
        offered_at,
        handed,
    })
}

/// [`TxChannel`] over the in-process [`ChannelSlot`]: one mutex+condvar
/// slot carries the whole exchange and a parked endpoint consumes no CPU.
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
        // In a healthy run the slot is Empty or Waiting here (each
        // exchange on a channel completes before the next), but an aborted
        // rendezvous can leave debris, and a handed offer sits until its
        // receiver takes it; waiting keeps the state machine
        // self-consistent and lets the caller's checks surface the real
        // error.
        for pass in 0..=waits(cap) {
            match st.state {
                SlotState::Empty | SlotState::Waiting => {
                    return Ok(Polled::Ready(ReadySlot {
                        resync_debris: false,
                    }))
                }
                SlotState::ResyncRequested => {
                    // Debris from an earlier errored send on this channel:
                    // the receiver asked for a resync nobody serviced.
                    st.state = SlotState::Empty;
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

    fn offer(
        &self,
        key: u64,
        payload: u64,
        vector: &[u8],
        handoff: bool,
    ) -> Result<(), TransportError> {
        let mut st = self.slot.lock();
        let slot = &mut *st;
        slot.offer.clear();
        slot.offer.extend_from_slice(vector);
        let at = Instant::now();
        slot.state = if handoff && slot.state == SlotState::Waiting {
            // The posted acknowledgement answers this offer: keep it for
            // our `poll_answer`, out of reach of the receiver's next post.
            std::mem::swap(&mut slot.ack, &mut slot.handed_ack);
            slot.handed = Some(HandedAck { key, at });
            SlotState::Handed { key, payload, at }
        } else {
            SlotState::Offered { key, payload, at }
        };
        self.slot.notify(&st);
        Ok(())
    }

    fn poll_answer(
        &self,
        key: u64,
        cap: Option<Duration>,
        ack: &mut Vec<u8>,
    ) -> Result<Polled<SendAnswer>, TransportError> {
        let mut st = self.slot.lock();
        for pass in 0..=waits(cap) {
            let slot = &mut *st;
            if let Some(handed) = slot.handed.filter(|h| h.key == key) {
                slot.handed = None;
                ack.clear();
                ack.extend_from_slice(&slot.handed_ack);
                return Ok(Polled::Ready(SendAnswer::Acked {
                    taken: handed.at,
                    acked: handed.at,
                }));
            }
            // One plain offer in flight per slot: every deposit is ours.
            match slot.state {
                SlotState::Acked { taken, acked } => {
                    ack.clear();
                    ack.extend_from_slice(&slot.ack);
                    slot.state = SlotState::Empty;
                    self.slot.notify(&st);
                    return Ok(Polled::Ready(SendAnswer::Acked { taken, acked }));
                }
                SlotState::ResyncRequested => {
                    slot.state = SlotState::Empty;
                    self.slot.notify(&st);
                    return Ok(Polled::Ready(SendAnswer::ResyncRequested));
                }
                _ if pass < waits(cap) => st = self.slot.wait_step(st, cap),
                _ => {}
            }
        }
        Ok(Polled::Pending)
    }

    fn retract(&self, key: u64) {
        let mut st = self.slot.lock();
        if matches!(st.state, SlotState::Offered { key: k, .. } if k == key) {
            st.state = SlotState::Empty;
            self.slot.notify(&st);
        }
    }
}

/// [`RxChannel`] over the in-process [`ChannelSlot`]. For a plain offer
/// the take (in `poll_offer`) and the ack deposit (in `answer`) are
/// separate lock holds, which is safe: while the taken offer is being
/// processed the slot reads Empty, and the parked sender simply keeps
/// waiting for the answer deposit. A handed offer needs no answer.
#[derive(Debug)]
pub(crate) struct LocalRx {
    slot: Arc<ChannelSlot>,
}

impl LocalRx {
    pub(crate) fn new(slot: Arc<ChannelSlot>) -> Self {
        LocalRx { slot }
    }
}

impl RxChannel for LocalRx {
    fn poll_offer(
        &self,
        cap: Option<Duration>,
        posted: Option<&[u8]>,
        vector: &mut Vec<u8>,
    ) -> Result<Polled<RawOffer>, TransportError> {
        let mut st = self.slot.lock();
        for pass in 0..=waits(cap) {
            if let Some(offer) = take_offer(&mut st, vector, false) {
                if offer.handed {
                    // The handed offer's sender may be parked for the
                    // slot to free up (its next send on this channel).
                    self.slot.notify(&st);
                }
                return Ok(Polled::Ready(offer));
            }
            if let (Some(ack), SlotState::Empty) = (posted, st.state) {
                st.ack.clear();
                st.ack.extend_from_slice(ack);
                st.state = SlotState::Waiting;
            }
            if pass < waits(cap) {
                st = self.slot.wait_step(st, cap);
            }
        }
        Ok(Polled::Pending)
    }

    fn answer(&self, answer: OfferAnswer<'_>) -> Result<(), TransportError> {
        let mut st = self.slot.lock();
        let slot = &mut *st;
        let taken = slot.taken.take().unwrap_or_else(Instant::now);
        slot.state = match answer {
            OfferAnswer::Ack(ack) => {
                slot.ack.clear();
                slot.ack.extend_from_slice(ack);
                SlotState::Acked {
                    taken,
                    acked: Instant::now(),
                }
            }
            OfferAnswer::Resync => SlotState::ResyncRequested,
        };
        self.slot.notify(&st);
        Ok(())
    }

    fn withdraw(&self, vector: &mut Vec<u8>) -> Option<RawOffer> {
        let mut st = self.slot.lock();
        if st.state == SlotState::Waiting {
            st.state = SlotState::Empty;
            return None;
        }
        let offer = take_offer(&mut st, vector, true)?;
        self.slot.notify(&st);
        Some(offer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZERO: Option<Duration> = Some(Duration::ZERO);

    fn pair() -> (LocalTx, LocalRx, Arc<ChannelSlot>) {
        let slot = Arc::new(ChannelSlot::new());
        (
            LocalTx::new(Arc::clone(&slot)),
            LocalRx::new(Arc::clone(&slot)),
            slot,
        )
    }

    fn state(slot: &ChannelSlot) -> SlotState {
        slot.lock().state
    }

    /// A zero-wait receive poll; `posted` is the acknowledgement to post.
    fn probe(rx: &LocalRx, posted: Option<&[u8]>) -> Option<(RawOffer, Vec<u8>)> {
        let mut vector = vec![0xee; 5]; // stale contents are replaced
        match rx.poll_offer(ZERO, posted, &mut vector) {
            Ok(Polled::Ready(offer)) => Some((offer, vector)),
            Ok(Polled::Pending) => None,
            Err(e) => panic!("local transport failed: {e}"),
        }
    }

    /// A zero-wait answer poll for `key`, with the acknowledgement bytes.
    fn answer_of(tx: &LocalTx, key: u64) -> Option<(SendAnswer, Vec<u8>)> {
        let mut ack = vec![0xee; 5];
        match tx.poll_answer(key, ZERO, &mut ack) {
            Ok(Polled::Ready(answer)) => Some((answer, ack)),
            Ok(Polled::Pending) => None,
            Err(e) => panic!("local transport failed: {e}"),
        }
    }

    #[test]
    fn local_offer_ack_roundtrip() {
        let (tx, rx, slot) = pair();
        assert!(matches!(
            tx.poll_ready(ZERO),
            Ok(Polled::Ready(ReadySlot {
                resync_debris: false
            }))
        ));
        tx.offer(7, 42, &[1, 2, 3], true).unwrap();
        let (offer, vector) = probe(&rx, None).expect("offer");
        assert_eq!((offer.key, offer.payload, offer.handed), (7, 42, false));
        assert_eq!(vector, [1, 2, 3]);
        rx.answer(OfferAnswer::Ack(&[9])).unwrap();
        match answer_of(&tx, 7) {
            Some((SendAnswer::Acked { .. }, ack)) => assert_eq!(ack, [9]),
            other => panic!("expected ack, got {other:?}"),
        }
        // The channel is clean for the next exchange.
        assert_eq!(state(&slot), SlotState::Empty);
        assert!(matches!(tx.poll_ready(ZERO), Ok(Polled::Ready(_))));
    }

    #[test]
    fn local_resync_bounce_and_debris() {
        let (tx, rx, _) = pair();
        tx.offer(1, 0, &[5], true).unwrap();
        assert!(probe(&rx, None).is_some());
        rx.answer(OfferAnswer::Resync).unwrap();
        assert!(matches!(
            answer_of(&tx, 1),
            Some((SendAnswer::ResyncRequested, _))
        ));
        // An unserviced resync request surfaces as debris on the next send.
        rx.answer(OfferAnswer::Resync).unwrap();
        assert!(matches!(
            tx.poll_ready(ZERO),
            Ok(Polled::Ready(ReadySlot {
                resync_debris: true
            }))
        ));
    }

    #[test]
    fn local_pending_and_retract() {
        let (tx, rx, _) = pair();
        assert!(probe(&rx, None).is_none());
        tx.offer(3, 1, &[], true).unwrap();
        assert!(answer_of(&tx, 3).is_none());
        // Another offer occupies the slot: not ready.
        assert!(matches!(tx.poll_ready(ZERO), Ok(Polled::Pending)));
        tx.retract(99); // wrong key: no-op
        assert!(probe(&rx, None).is_some());
        tx.offer(4, 2, &[], true).unwrap();
        tx.retract(4);
        assert!(probe(&rx, None).is_none());
    }

    #[test]
    fn posted_ack_hands_the_offer() {
        let (tx, rx, slot) = pair();
        // The receiver finds nothing and posts its acknowledgement.
        assert!(probe(&rx, Some(&[8, 1])).is_none());
        assert_eq!(state(&slot), SlotState::Waiting);
        // Re-polling keeps the one post up.
        assert!(probe(&rx, Some(&[8, 1])).is_none());
        assert_eq!(state(&slot), SlotState::Waiting);
        // A waiting receiver does not block the sender.
        assert!(matches!(
            tx.poll_ready(ZERO),
            Ok(Polled::Ready(ReadySlot {
                resync_debris: false
            }))
        ));
        tx.offer(5, 50, &[2, 3], true).unwrap();
        assert!(matches!(state(&slot), SlotState::Handed { key: 5, .. }));
        assert!(slot.state().holds_offer(), "a handed offer is still held");
        // The sender's zero-wait poll returns the posted bytes: it is done.
        match answer_of(&tx, 5) {
            Some((SendAnswer::Acked { taken, acked }, ack)) => {
                assert_eq!(ack, [8, 1]);
                assert_eq!(taken, acked, "a handed send is taken when it is handed");
            }
            other => panic!("expected the posted ack, got {other:?}"),
        }
        // The receiver's zero-wait poll takes the handed offer.
        let (offer, vector) = probe(&rx, Some(&[8, 1])).expect("handed offer");
        assert_eq!((offer.key, offer.payload, offer.handed), (5, 50, true));
        assert_eq!(vector, [2, 3]);
        assert_eq!(state(&slot), SlotState::Empty);
        // Nothing is left for the sender to read.
        assert!(answer_of(&tx, 5).is_none());
    }

    #[test]
    fn handed_ack_survives_the_receivers_next_post() {
        let (tx, rx, _) = pair();
        assert!(probe(&rx, Some(&[1])).is_none());
        tx.offer(1, 0, &[4], true).unwrap();
        // The receiver takes the offer and posts for its next receive
        // before the sender has read its answer.
        assert!(probe(&rx, Some(&[1])).is_some_and(|(o, _)| o.handed));
        assert!(probe(&rx, Some(&[2, 2])).is_none());
        match answer_of(&tx, 1) {
            Some((SendAnswer::Acked { .. }, ack)) => assert_eq!(ack, [1]),
            other => panic!("expected the first post, got {other:?}"),
        }
        // The second post hands the next offer.
        tx.offer(2, 0, &[5], true).unwrap();
        match answer_of(&tx, 2) {
            Some((SendAnswer::Acked { .. }, ack)) => assert_eq!(ack, [2, 2]),
            other => panic!("expected the second post, got {other:?}"),
        }
    }

    #[test]
    fn retract_leaves_a_handed_offer() {
        let (tx, rx, slot) = pair();
        assert!(probe(&rx, Some(&[7])).is_none());
        tx.offer(9, 3, &[6], true).unwrap();
        tx.retract(9);
        assert!(matches!(state(&slot), SlotState::Handed { key: 9, .. }));
        let (offer, vector) = probe(&rx, None).expect("the handed offer survives");
        assert!(offer.handed);
        assert_eq!(vector, [6]);
    }

    #[test]
    fn withdrawn_post_leaves_empty_and_the_next_offer_is_plain() {
        let (tx, rx, slot) = pair();
        assert!(probe(&rx, Some(&[7])).is_none());
        let mut vector = Vec::new();
        assert!(rx.withdraw(&mut vector).is_none());
        assert_eq!(state(&slot), SlotState::Empty);
        tx.offer(2, 0, &[1], true).unwrap();
        assert!(matches!(state(&slot), SlotState::Offered { key: 2, .. }));
        assert!(
            answer_of(&tx, 2).is_none(),
            "a plain offer waits for its ack"
        );
        // Withdrawing never takes a plain offer: its sender retracts it.
        assert!(rx.withdraw(&mut vector).is_none());
        assert!(matches!(state(&slot), SlotState::Offered { key: 2, .. }));
    }

    #[test]
    fn withdraw_delivers_a_handed_offer() {
        let (tx, rx, slot) = pair();
        assert!(probe(&rx, Some(&[7])).is_none());
        tx.offer(4, 44, &[3, 3], true).unwrap();
        let mut vector = Vec::new();
        let offer = rx.withdraw(&mut vector).expect("handed offer delivered");
        assert_eq!((offer.key, offer.payload, offer.handed), (4, 44, true));
        assert_eq!(vector, [3, 3]);
        assert_eq!(state(&slot), SlotState::Empty);
    }

    #[test]
    fn opt_out_offer_stays_plain_over_a_posted_ack() {
        let (tx, rx, slot) = pair();
        assert!(probe(&rx, Some(&[7])).is_none());
        tx.offer(6, 0, &[9], false).unwrap();
        assert!(matches!(state(&slot), SlotState::Offered { key: 6, .. }));
        assert!(answer_of(&tx, 6).is_none(), "nothing answered yet");
        // The receiver can still bounce it for a resync.
        let (offer, _) = probe(&rx, Some(&[7])).expect("plain offer");
        assert!(!offer.handed);
        rx.answer(OfferAnswer::Resync).unwrap();
        assert!(matches!(
            answer_of(&tx, 6),
            Some((SendAnswer::ResyncRequested, _))
        ));
    }
}
