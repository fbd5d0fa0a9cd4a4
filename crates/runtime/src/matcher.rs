//! The rendezvous matcher: one slot per directed channel.
//!
//! PR 1 implemented rendezvous as zero-capacity mpsc channels re-polled
//! every 200µs, with a second channel pair for the Figure 5
//! acknowledgement. This module replaces that with a single mutex+condvar
//! **slot** per directed channel carrying the whole exchange:
//!
//! ```text
//!   Empty ──sender deposits──▶ Offered(wire) ──receiver takes, acks──▶
//!   Acked(vector) ──sender merges, resets──▶ Empty
//! ```
//!
//! The receiver takes the offer and deposits the acknowledgement under a
//! single lock hold, so the vector exchange piggybacks on the wakeup: one
//! `notify` delivers the program message, one `notify` delivers the ack,
//! and a blocked endpoint consumes zero CPU while parked.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on one parked wait. Watchdog aborts and peer exits notify
/// the slot explicitly, so this is pure insurance against a lost wakeup,
/// not a progress mechanism.
const PARK_BACKSTOP: Duration = Duration::from_millis(250);

/// What travels on a program message: the payload plus the piggybacked
/// vector (line 02 of Figure 5) and a globally unique key used only for
/// post-hoc trace reconstruction. The vector rides as its *encoded* bytes
/// — a per-channel Singhal–Kshemkalyani delta stream produced by the
/// sender's `DeltaEncoder` and consumed by the receiver's `DeltaDecoder` —
/// so what the stats count as wire bytes is what is actually carried.
#[derive(Debug)]
pub(crate) struct Wire {
    pub(crate) key: u64,
    pub(crate) payload: u64,
    /// Delta-encoded piggybacked vector (`synctime_core::wire` framing).
    pub(crate) vector: Vec<u8>,
}

/// One rendezvous slot's state. Timestamps record when the state became
/// observable so the other side can report wakeup latency.
#[derive(Debug)]
pub(crate) enum SlotState {
    /// No rendezvous in flight.
    Empty,
    /// The sender deposited a message at `at` and is waiting for the
    /// acknowledgement.
    Offered {
        /// The in-flight message.
        wire: Wire,
        /// When the offer was deposited (and the receiver notified).
        at: Instant,
    },
    /// The receiver took the offer at `taken`, ran lines 04–06 of Figure 5,
    /// and deposited the pre-update vector at `acked`.
    Acked {
        /// The acknowledgement payload (receiver's pre-update vector),
        /// delta-encoded like [`Wire::vector`] but on the reverse stream.
        ack: Vec<u8>,
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

/// A directed channel's rendezvous slot: both endpoints hold an `Arc` to it.
#[derive(Debug)]
pub(crate) struct ChannelSlot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

impl ChannelSlot {
    pub(crate) fn new() -> Self {
        ChannelSlot {
            state: Mutex::new(SlotState::Empty),
            cond: Condvar::new(),
        }
    }

    /// Locks the slot, recovering from poisoning: a panicking endpoint must
    /// not cascade into panics on every survivor that later touches the
    /// channel. Slot state transitions are individually consistent (each
    /// deposit writes a complete state), so the recovered guard is safe to
    /// use — at worst the survivor observes debris from the aborted
    /// exchange, which the wait loops already tolerate.
    pub(crate) fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Notifies the slot's waiters (call with the guard held or just
    /// released; deposits in this crate always notify under the lock).
    pub(crate) fn notify(&self) {
        self.cond.notify_all();
    }

    /// Whether the slot holds an offer its receiver has not taken yet —
    /// the watchdog's confirmation of a wait on this channel: the sender
    /// is still waiting on the receiver, and the receiver, if it waits
    /// here, is about to take the offer.
    pub(crate) fn holds_offer(&self) -> bool {
        matches!(*self.lock(), SlotState::Offered { .. })
    }

    /// Wakes any thread parked on this slot without changing its state.
    /// Used by the watchdog (abort) and by exiting processes so parked
    /// peers re-check their abort/liveness conditions promptly.
    pub(crate) fn wake(&self) {
        // Taking the lock before notifying guarantees a thread that checked
        // its condition and is about to wait cannot miss this notification.
        let _guard = self.lock();
        self.cond.notify_all();
    }

    /// One blocked-wait step: parks on the condvar, with a backstop
    /// timeout.
    ///
    /// `cap` bounds this single step from above so a caller enforcing a
    /// rendezvous timeout is woken close to its deadline instead of a full
    /// park backstop past it.
    pub(crate) fn wait_step<'a>(
        &'a self,
        guard: MutexGuard<'a, SlotState>,
        cap: Option<Duration>,
    ) -> MutexGuard<'a, SlotState> {
        let step = cap.map_or(PARK_BACKSTOP, |c| c.min(PARK_BACKSTOP));
        self.cond
            .wait_timeout(guard, step)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn slot_roundtrip_carries_wire_and_ack() {
        use synctime_core::wire::{DeltaDecoder, DeltaEncoder};
        use synctime_core::VectorTime;

        let slot = Arc::new(ChannelSlot::new());
        let receiver = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let mut st = slot.lock();
                loop {
                    match std::mem::replace(&mut *st, SlotState::Empty) {
                        SlotState::Offered { wire, .. } => {
                            let mut dec = DeltaDecoder::new();
                            let v = dec.decode(0, &wire.vector).expect("decodable vector");
                            let now = Instant::now();
                            *st = SlotState::Acked {
                                ack: DeltaEncoder::new().encode(0, &VectorTime::zero(v.dim())),
                                taken: now,
                                acked: now,
                            };
                            slot.notify();
                            return wire.payload;
                        }
                        other => {
                            *st = other;
                            st = slot.wait_step(st, None);
                        }
                    }
                }
            })
        };
        let mut st = slot.lock();
        *st = SlotState::Offered {
            wire: Wire {
                key: 1,
                payload: 42,
                vector: DeltaEncoder::new().encode(1, &VectorTime::from(vec![3, 4])),
            },
            at: Instant::now(),
        };
        slot.notify();
        loop {
            match std::mem::replace(&mut *st, SlotState::Empty) {
                SlotState::Acked { ack, .. } => {
                    let v = DeltaDecoder::new().decode(0, &ack).expect("decodable ack");
                    assert_eq!(v.dim(), 2);
                    break;
                }
                other => {
                    *st = other;
                    st = slot.wait_step(st, None);
                }
            }
        }
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
        assert!(matches!(*guard, SlotState::Empty));
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
