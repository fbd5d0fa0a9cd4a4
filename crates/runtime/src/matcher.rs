//! The rendezvous matcher: one slot per directed channel.
//!
//! PR 1 implemented rendezvous as zero-capacity mpsc channels re-polled
//! every 200µs, with a second channel pair for the Figure 5
//! acknowledgement. This module replaces that with a single mutex+condvar
//! **slot** per directed channel carrying the whole exchange. A
//! rendezvous takes one of two paths through it:
//!
//! ```text
//!   receiver first:  Empty ──receiver parks, posts its ack──▶ Waiting
//!                    ──sender deposits, takes the ack──▶ Handed
//!                    ──receiver takes the offer──▶ Empty
//!
//!   sender first:    Empty ──sender deposits──▶ Offered
//!                    ──receiver takes──▶ Empty ──receiver acks──▶ Acked
//!                    ──sender takes the ack──▶ Empty
//! ```
//!
//! Figure 5's acknowledgement (line 04) is the receiver's clock *before*
//! its update, so it never depends on the offer: a receiver about to park
//! posts it, and a sender that finds it posted completes on the spot,
//! without parking. The receiver then wakes once, to take the offer, and
//! a rendezvous costs one wakeup instead of two.
//!
//! When the sender comes first, the receiver takes the offer and deposits
//! the acknowledgement in two lock holds: while the taken offer is
//! processed the slot reads `Empty`, and the parked sender keeps waiting
//! for the deposit. A blocked endpoint consumes zero CPU while parked.
//!
//! Frame bytes live in buffers the slot owns and reuses; endpoints copy
//! in and out of them under the lock, so a warmed-up channel moves
//! frames without allocating.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on one parked wait. Watchdog aborts and peer exits notify
/// the slot explicitly, so this is pure insurance against a lost wakeup,
/// not a progress mechanism.
const PARK_BACKSTOP: Duration = Duration::from_millis(250);

/// Initial capacity of every frame buffer, in the slots and in each
/// process: a full frame of 16 components, or a delta of 12, with values
/// under 2^21 (three varint bytes each). Frames rarely outgrow it, so a
/// channel's buffers are allocated once, when it is built, instead of
/// growing while the run's counters widen their varints.
pub(crate) const FRAME_CAPACITY: usize = 64;

/// One rendezvous slot's state. Timestamps record when the state became
/// observable so the other side can report wakeup latency.
///
/// What travels on a program message is the payload plus the piggybacked
/// vector (line 02 of Figure 5) and a globally unique key used only for
/// post-hoc trace reconstruction. The vector rides as its *encoded* bytes
/// — a per-channel Singhal–Kshemkalyani delta stream — in
/// [`Slot::offer`]; acknowledgements ride the reverse stream in
/// [`Slot::ack`]. So what the stats count as wire bytes is what is
/// actually carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// No rendezvous in flight.
    Empty,
    /// The receiver is parked and has posted its acknowledgement (its
    /// pre-update vector) in [`Slot::ack`].
    Waiting,
    /// The sender deposited a message at `at` and is waiting for the
    /// acknowledgement. The vector bytes are in [`Slot::offer`].
    Offered {
        /// The message's reconstruction key.
        key: u64,
        /// The program payload.
        payload: u64,
        /// When the offer was deposited (and the receiver notified).
        at: Instant,
    },
    /// The sender deposited a message at `at` against a posted
    /// acknowledgement, took that acknowledgement, and completed its send.
    /// The receiver must still take the message; nothing may remove it.
    Handed {
        /// The message's reconstruction key.
        key: u64,
        /// The program payload.
        payload: u64,
        /// When the offer was handed (and the receiver notified).
        at: Instant,
    },
    /// The receiver took the offer at `taken`, ran lines 04–06 of Figure 5,
    /// and deposited the pre-update vector in [`Slot::ack`] at `acked`.
    Acked {
        /// When the receiver took the matching offer.
        taken: Instant,
        /// When the acknowledgement was deposited (and the sender notified).
        acked: Instant,
    },
    /// The receiver took the offer but could not decode its piggybacked
    /// vector (a delta-stream sequence gap): it asks the sender to
    /// re-offer the same message as a full-vector resync frame. Deposited
    /// in place of `Acked`, consumed by the sender's resync loop.
    ResyncRequested,
}

/// A handed offer's acknowledgement, kept for its sender: the receiver may
/// take the offer and post again before the sender reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HandedAck {
    /// The handed offer's key.
    pub(crate) key: u64,
    /// When the offer was handed.
    pub(crate) at: Instant,
}

/// Everything behind a slot's lock: the state and the frame buffers it
/// refers to.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) state: SlotState,
    /// The offered vector's bytes (`Offered`, `Handed`).
    pub(crate) offer: Vec<u8>,
    /// The acknowledgement's bytes: posted (`Waiting`) or deposited
    /// (`Acked`).
    pub(crate) ack: Vec<u8>,
    /// When the receiver took the offer it is answering — stamped into
    /// the `Acked` deposit so the sender's ack-latency sample starts at
    /// the take.
    pub(crate) taken: Option<Instant>,
    /// The acknowledgement a handed offer took, until its sender reads it.
    pub(crate) handed: Option<HandedAck>,
    /// The bytes of `handed`: the posted buffer, swapped out of `ack`.
    pub(crate) handed_ack: Vec<u8>,
    /// Threads parked on the slot's condvar right now: a deposit pays for
    /// a wake-up syscall only when someone is waiting for it.
    waiters: usize,
}

impl SlotState {
    /// Whether the slot holds an offer its receiver has not taken yet,
    /// handed or not.
    pub(crate) fn holds_offer(self) -> bool {
        matches!(self, SlotState::Offered { .. } | SlotState::Handed { .. })
    }
}

/// A directed channel's rendezvous slot: both endpoints hold an `Arc` to it.
#[derive(Debug)]
pub(crate) struct ChannelSlot {
    slot: Mutex<Slot>,
    cond: Condvar,
}

impl ChannelSlot {
    pub(crate) fn new() -> Self {
        ChannelSlot {
            slot: Mutex::new(Slot {
                state: SlotState::Empty,
                offer: Vec::with_capacity(FRAME_CAPACITY),
                ack: Vec::with_capacity(FRAME_CAPACITY),
                taken: None,
                handed: None,
                handed_ack: Vec::with_capacity(FRAME_CAPACITY),
                waiters: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Locks the slot, recovering from poisoning: a panicking endpoint must
    /// not cascade into panics on every survivor that later touches the
    /// channel. Slot state transitions are individually consistent (each
    /// deposit writes a complete state), so the recovered guard is safe to
    /// use — at worst the survivor observes debris from the aborted
    /// exchange, which the wait loops already tolerate.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Notifies the slot's waiters, if any. Takes the locked slot, so the
    /// waiter count it reads is exact: a thread that has not registered
    /// yet re-checks the state under the lock before it parks.
    pub(crate) fn notify(&self, slot: &Slot) {
        if slot.waiters > 0 {
            self.cond.notify_all();
        }
    }

    /// The slot's state, read under one lock hold: what the watchdog
    /// confirms a wait on this channel by.
    pub(crate) fn state(&self) -> SlotState {
        self.lock().state
    }

    /// Wakes any thread parked on this slot without changing its state.
    /// Used by the watchdog (abort) and by exiting processes so parked
    /// peers re-check their abort/liveness conditions promptly.
    pub(crate) fn wake(&self) {
        // Taking the lock before notifying guarantees a thread that checked
        // its condition and is about to wait cannot miss this notification.
        let guard = self.lock();
        self.notify(&guard);
    }

    /// One blocked-wait step: parks on the condvar, with a backstop
    /// timeout.
    ///
    /// `cap` bounds this single step from above so a caller enforcing a
    /// rendezvous timeout is woken close to its deadline instead of a full
    /// park backstop past it.
    pub(crate) fn wait_step<'a>(
        &'a self,
        mut guard: MutexGuard<'a, Slot>,
        cap: Option<Duration>,
    ) -> MutexGuard<'a, Slot> {
        let step = cap.map_or(PARK_BACKSTOP, |c| c.min(PARK_BACKSTOP));
        guard.waiters += 1;
        let mut guard = self
            .cond
            .wait_timeout(guard, step)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        guard.waiters -= 1;
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn slot_roundtrip_carries_wire_and_ack() {
        let slot = Arc::new(ChannelSlot::new());
        let receiver = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let mut st = slot.lock();
                loop {
                    if let SlotState::Offered { payload, .. } = st.state {
                        assert_eq!(st.offer, [3, 4]);
                        let now = Instant::now();
                        st.ack.clear();
                        st.ack.extend_from_slice(&[9]);
                        st.state = SlotState::Acked {
                            taken: now,
                            acked: now,
                        };
                        slot.notify(&st);
                        return payload;
                    }
                    st = slot.wait_step(st, None);
                }
            })
        };
        let mut st = slot.lock();
        st.offer.extend_from_slice(&[3, 4]);
        st.state = SlotState::Offered {
            key: 1,
            payload: 42,
            at: Instant::now(),
        };
        assert!(st.state.holds_offer());
        slot.notify(&st);
        while !matches!(st.state, SlotState::Acked { .. }) {
            st = slot.wait_step(st, None);
        }
        assert_eq!(st.ack, [9]);
        assert!(!st.state.holds_offer());
        drop(st);
        assert_eq!(receiver.join().unwrap(), 42);
    }

    #[test]
    fn poisoned_slot_is_recovered_not_cascaded() {
        // A thread panicking while holding the slot lock must not make
        // every later lock() on the slot panic too.
        let slot = Arc::new(ChannelSlot::new());
        let poisoner = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let _guard = slot.lock();
                panic!("poison the slot");
            })
        };
        assert!(poisoner.join().is_err());
        let guard = slot.lock(); // must not panic
        assert_eq!(guard.state, SlotState::Empty);
        drop(guard);
        // wait_step's re-lock path recovers too.
        let guard = slot.lock();
        let _guard = slot.wait_step(guard, Some(Duration::from_millis(1)));
    }

    #[test]
    fn capped_parking_wait_returns_promptly() {
        let slot = ChannelSlot::new();
        let guard = slot.lock();
        let t0 = Instant::now();
        let _guard = slot.wait_step(guard, Some(Duration::from_millis(5)));
        assert!(t0.elapsed() < Duration::from_millis(200));
    }
}
