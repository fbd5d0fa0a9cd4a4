//! Timestamping internal events (Section 5 of the paper).
//!
//! Message timestamps order the *external* events for free (an external
//! event is an endpoint of its message). For internal events the paper
//! assigns the triple `(prev(e), succ(e), c(e))`:
//!
//! * `prev(e)` — the timestamp of the last message at-or-before `e` on its
//!   process, or ⊥ if none ([`PrevTime::Bottom`]; the paper writes the zero
//!   vector, see the note on [`PrevTime`]);
//! * `succ(e)` — the timestamp of the first message at-or-after `e`, or an
//!   all-∞ vector if none ([`SuccTime::Infinity`]);
//! * `c(e)` — a per-process counter reset at every external event and
//!   incremented at every internal event, disambiguating events that sit in
//!   the same inter-message segment.
//!
//! Theorem 9: for events on different processes,
//! `e → f ⟺ succ(e) ≤ prev(f)` (component-wise, equality allowed).
//!
//! **Deviation from the paper (documented in DESIGN.md):** the paper
//! suggests `c(e) < c(f)` resolves pairs with equal `(prev, succ)`, but two
//! events on *different* processes can share both bounding messages (their
//! processes exchanged two consecutive messages with each other) while
//! being truly concurrent. We therefore apply the counter rule only to
//! same-process pairs, which is exactly what makes the test match Lamport's
//! happened-before.

use std::fmt;

use serde::{Deserialize, Serialize};
use synctime_trace::{EventId, Oracle, ProcessId, SyncComputation};

use crate::{MessageTimestamps, VectorTime};

/// The `succ(e)` bound: the next message's timestamp, or ∞ in every
/// component when no message follows `e` on its process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuccTime {
    /// The timestamp of the first message at-or-after the event.
    At(VectorTime),
    /// No message follows; the paper writes this as the all-∞ vector.
    Infinity,
}

impl fmt::Display for SuccTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuccTime::At(v) => write!(f, "{v}"),
            SuccTime::Infinity => write!(f, "(∞)"),
        }
    }
}

/// The `prev(e)` bound: the last message's timestamp, or ⊥ when no message
/// precedes the event on its process.
///
/// The paper writes ⊥ as the all-zero vector, which is sound for the
/// *online* algorithm (every message timestamp has a positive component)
/// but not in general: the offline realizer stamps a globally minimal
/// message with the all-zero vector (position 0 in every extension), which
/// would collide with the sentinel. An explicit ⊥ keeps the construction
/// correct for every encoding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrevTime {
    /// The timestamp of the last message at-or-before the event.
    At(VectorTime),
    /// No message precedes the event on its process.
    Bottom,
}

impl fmt::Display for PrevTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrevTime::At(v) => write!(f, "{v}"),
            PrevTime::Bottom => write!(f, "(⊥)"),
        }
    }
}

/// The Theorem 9 comparison `succ(e) ≤ prev(f)`: both bounds must be
/// concrete message timestamps (an event with no following message can
/// reach nothing through a message; an event with no preceding message can
/// be reached by nothing).
fn succ_le_prev(succ: &SuccTime, prev: &PrevTime) -> bool {
    match (succ, prev) {
        (SuccTime::At(s), PrevTime::At(p)) => s.le(p),
        _ => false,
    }
}

/// The Section 5 timestamp of one event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventStamp {
    /// The process the event occurred on (needed only for the counter
    /// tie-break; see the module docs).
    pub process: ProcessId,
    /// `prev(e)`: last message timestamp at-or-before, or ⊥.
    pub prev: PrevTime,
    /// `succ(e)`: first message timestamp at-or-after, or ∞.
    pub succ: SuccTime,
    /// `c(e)`: position within the event's inter-message segment
    /// (0 for external events).
    pub counter: u64,
}

impl EventStamp {
    /// The Theorem 9 precedence test.
    pub fn precedes(&self, other: &EventStamp) -> bool {
        if succ_le_prev(&self.succ, &other.prev) {
            return true;
        }
        self.process == other.process
            && self.prev == other.prev
            && self.succ == other.succ
            && self.counter < other.counter
    }

    /// Whether two stamps are concurrent (neither precedes the other and
    /// they differ).
    pub fn concurrent(&self, other: &EventStamp) -> bool {
        self != other && !self.precedes(other) && !other.precedes(self)
    }
}

impl fmt::Display for EventStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, c={})", self.prev, self.succ, self.counter)
    }
}

/// The event stamps of a whole computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventTimestamps {
    stamps: Vec<Vec<EventStamp>>,
}

impl EventTimestamps {
    /// The stamp of one event.
    ///
    /// # Panics
    ///
    /// Panics if the event id is out of range.
    pub fn stamp(&self, e: EventId) -> &EventStamp {
        &self.stamps[e.process][e.index]
    }

    /// The happened-before test over event ids.
    pub fn happened_before(&self, e: EventId, f: EventId) -> bool {
        if e.process == f.process {
            // Within a process the local order is definitive (and the
            // stamps agree with it; this avoids comparing an event with
            // itself).
            return e.index < f.index;
        }
        self.stamp(e).precedes(self.stamp(f))
    }

    /// Whether the stamps agree with the ground-truth `oracle` on every
    /// ordered pair of events. `O(E²)`.
    pub fn encodes(&self, computation: &SyncComputation, oracle: &Oracle) -> bool {
        let events: Vec<EventId> = computation.events().collect();
        events.iter().all(|&e| {
            events.iter().all(|&f| {
                e == f || self.happened_before(e, f) == oracle.happened_before(computation, e, f)
            })
        })
    }
}

/// Assigns every event of `computation` its Section 5 triple, given the
/// message timestamps produced by any encoding algorithm (online, offline,
/// or Fidge–Mattern — the construction only needs the property of
/// Theorem 4).
///
/// Note that, as the paper observes, an internal event's stamp is only
/// known once the *next* message of its process has been stamped — this is
/// inherently a post-processing step.
pub fn stamp_events(
    computation: &SyncComputation,
    messages: &MessageTimestamps,
) -> EventTimestamps {
    let mut stamps = Vec::with_capacity(computation.process_count());
    for p in 0..computation.process_count() {
        let history = computation.history(p);
        let mut per_process = Vec::with_capacity(history.len());
        let mut counter = 0u64;
        for (i, ev) in history.iter().enumerate() {
            let counter_value = if ev.is_internal() {
                counter += 1;
                counter
            } else {
                counter = 0;
                0
            };
            let e = EventId::new(p, i);
            let prev = computation
                .message_at_or_before(e)
                .map(|m| PrevTime::At(messages.vector(m)))
                .unwrap_or(PrevTime::Bottom);
            let succ = computation
                .message_at_or_after(e)
                .map(|m| SuccTime::At(messages.vector(m)))
                .unwrap_or(SuccTime::Infinity);
            per_process.push(EventStamp {
                process: p,
                prev,
                succ,
                counter: counter_value,
            });
        }
        stamps.push(per_process);
    }
    EventTimestamps { stamps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineStamper;
    use synctime_graph::{decompose, topology};
    use synctime_trace::Builder;

    fn stamp_all(comp: &SyncComputation, topo: &synctime_graph::Graph) -> EventTimestamps {
        let dec = decompose::best_known(topo);
        let msgs = OnlineStamper::new(&dec).stamp_computation(comp).unwrap();
        stamp_events(comp, &msgs)
    }

    #[test]
    fn thm9_on_a_small_computation() {
        let topo = topology::complete(3);
        let mut b = Builder::with_topology(&topo);
        b.internal(0).unwrap();
        b.message(0, 1).unwrap();
        b.internal(1).unwrap();
        b.message(1, 2).unwrap();
        b.internal(2).unwrap();
        b.internal(0).unwrap();
        b.message(2, 0).unwrap();
        let comp = b.build();
        let ev = stamp_all(&comp, &topo);
        assert!(ev.encodes(&comp, &Oracle::new(&comp)));
    }

    #[test]
    fn counter_orders_same_segment_internals() {
        let topo = topology::path(2);
        let mut b = Builder::with_topology(&topo);
        b.message(0, 1).unwrap();
        let e1 = b.internal(0).unwrap();
        let e2 = b.internal(0).unwrap();
        let comp = b.build();
        let ev = stamp_all(&comp, &topo);
        let (s1, s2) = (ev.stamp(e1), ev.stamp(e2));
        assert_eq!(s1.prev, s2.prev);
        assert_eq!(s1.succ, s2.succ);
        assert_eq!((s1.counter, s2.counter), (1, 2));
        assert!(s1.precedes(s2));
        assert!(!s2.precedes(s1));
        assert!(ev.happened_before(e1, e2));
    }

    #[test]
    fn cross_process_equal_bounds_stay_concurrent() {
        // P0 and P1 exchange two consecutive messages with an internal
        // event in between on each side: those internals share (prev, succ)
        // but are concurrent. The paper's bare counter rule would order
        // them; our same-process restriction keeps them concurrent.
        let topo = topology::path(2);
        let mut b = Builder::with_topology(&topo);
        b.message(0, 1).unwrap();
        let e0 = b.internal(0).unwrap();
        let e1 = b.internal(1).unwrap();
        b.message(1, 0).unwrap();
        let comp = b.build();
        let ev = stamp_all(&comp, &topo);
        let oracle = Oracle::new(&comp);
        assert!(oracle.events_concurrent(&comp, e0, e1));
        assert_eq!(ev.stamp(e0).prev, ev.stamp(e1).prev);
        assert_eq!(ev.stamp(e0).succ, ev.stamp(e1).succ);
        assert!(ev.stamp(e0).concurrent(ev.stamp(e1)));
        assert!(ev.encodes(&comp, &oracle));
    }

    #[test]
    fn boundary_vectors() {
        let topo = topology::path(2);
        let mut b = Builder::with_topology(&topo);
        let early = b.internal(0).unwrap();
        b.message(0, 1).unwrap();
        let late = b.internal(1).unwrap();
        let comp = b.build();
        let ev = stamp_all(&comp, &topo);
        // Before any message: prev is bottom.
        assert_eq!(ev.stamp(early).prev, PrevTime::Bottom);
        // After the last message: succ is infinity.
        assert_eq!(ev.stamp(late).succ, SuccTime::Infinity);
        // And the early event still precedes the late one across processes.
        assert!(ev.happened_before(early, late));
        assert!(!ev.happened_before(late, early));
    }

    #[test]
    fn isolated_processes_concurrent() {
        let topo = topology::path(3);
        let mut b = Builder::with_topology(&topo);
        let a = b.internal(0).unwrap();
        let c = b.internal(2).unwrap();
        let comp = b.build();
        let ev = stamp_all(&comp, &topo);
        assert!(!ev.happened_before(a, c));
        assert!(!ev.happened_before(c, a));
        // Both have zero prev and infinite succ but different processes.
        assert!(ev.stamp(a).concurrent(ev.stamp(c)));
    }

    #[test]
    fn works_with_offline_and_fm_stamps_too() {
        let mut b = Builder::new(4);
        b.internal(0).unwrap();
        b.message(0, 1).unwrap();
        b.message(2, 3).unwrap();
        b.internal(2).unwrap();
        b.message(1, 2).unwrap();
        b.internal(3).unwrap();
        let comp = b.build();
        let oracle = Oracle::new(&comp);
        let offline = crate::offline::stamp_computation(&comp);
        assert!(stamp_events(&comp, &offline).encodes(&comp, &oracle));
        let fm = crate::fm::stamp_messages(&comp);
        assert!(stamp_events(&comp, &fm).encodes(&comp, &oracle));
    }

    #[test]
    fn display_forms() {
        let s = EventStamp {
            process: 0,
            prev: PrevTime::Bottom,
            succ: SuccTime::Infinity,
            counter: 3,
        };
        assert_eq!(s.to_string(), "((⊥), (∞), c=3)");
        let t = EventStamp {
            process: 0,
            prev: PrevTime::At(VectorTime::from(vec![1])),
            succ: SuccTime::At(VectorTime::from(vec![2])),
            counter: 0,
        };
        assert_eq!(t.to_string(), "((1), (2), c=0)");
    }
}
