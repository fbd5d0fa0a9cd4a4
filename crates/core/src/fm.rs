//! The Fidge–Mattern baseline: vector clocks with **one component per
//! process**, adapted to rendezvous semantics.
//!
//! This is the mechanism the paper improves on: it captures the same
//! order relation but its vectors have dimension `N` regardless of the
//! topology (and by Charron-Bost's lower bound, for *asynchronous*
//! computations nothing smaller can work in general).
//!
//! Adaptation to synchronous messages: a rendezvous between `P_i` and
//! `P_j` is a single joint event — both processes compute
//! `v := max(v_i, v_j)`, increment *both* participating components, and
//! adopt `v`, which is also the message's timestamp. (The increment of the
//! partner's component is justified because the send, receive, and
//! acknowledgement happen as one atomic exchange; each process's component
//! still only ever grows at events that process participates in.)

use synctime_trace::{EventId, EventKind, Oracle, SyncComputation};

use crate::{MessageTimestamps, VectorTime};

/// Stamps every message with an `N`-component Fidge–Mattern vector.
///
/// Satisfies the same encoding property as the paper's algorithms
/// (`m1 ↦ m2 ⟺ v(m1) < v(m2)`) at `N` components instead of `d`.
pub fn stamp_messages(computation: &SyncComputation) -> MessageTimestamps {
    let n = computation.process_count();
    let mut clocks: Vec<VectorTime> = vec![VectorTime::zero(n); n];
    let len = computation.message_count();
    let mut rows = Vec::with_capacity(len * n);
    for m in computation.messages() {
        let mut v = clocks[m.sender].clone();
        v.merge_max(&clocks[m.receiver])
            .expect("all Fidge–Mattern clocks share dimension N");
        v.increment(m.sender);
        v.increment(m.receiver);
        rows.extend_from_slice(v.as_slice());
        clocks[m.sender] = v.clone();
        clocks[m.receiver] = v;
    }
    MessageTimestamps::from_rows(n, len, rows)
}

/// Fidge–Mattern timestamps for **all events** (internal and external) of a
/// computation, with the rendezvous endpoints sharing one vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventClocks {
    dim: usize,
    stamps: Vec<Vec<VectorTime>>, // per process, per event index
}

impl EventClocks {
    /// The vector of one event.
    ///
    /// # Panics
    ///
    /// Panics if the event id is out of range.
    pub fn vector(&self, e: EventId) -> &VectorTime {
        &self.stamps[e.process][e.index]
    }

    /// The dimension (= process count).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The happened-before test: `e → f ⟺ v(e) ≤ v(f)` for distinct
    /// events. (The only distinct events with *equal* vectors are the two
    /// endpoints of one rendezvous, which are mutually ordered — one
    /// synchronization point — matching [`Oracle::happened_before`].)
    pub fn happened_before(&self, e: EventId, f: EventId) -> bool {
        e != f && self.vector(e).le(self.vector(f))
    }

    /// Whether two events are concurrent under these clocks.
    pub fn concurrent(&self, e: EventId, f: EventId) -> bool {
        e != f && !self.happened_before(e, f) && !self.happened_before(f, e)
    }

    /// Whether these clocks agree with the ground-truth `oracle` on every
    /// pair of events of `computation`. `O(E²)`.
    pub fn encodes(&self, computation: &SyncComputation, oracle: &Oracle) -> bool {
        let events: Vec<EventId> = computation.events().collect();
        events.iter().all(|&e| {
            events.iter().all(|&f| {
                e == f || self.happened_before(e, f) == oracle.happened_before(computation, e, f)
            })
        })
    }
}

/// Stamps every event of the computation with Fidge–Mattern vectors:
/// internal events increment their process's component; rendezvous events
/// merge both participants and increment both components (both endpoints
/// receive the same vector).
pub fn stamp_events(computation: &SyncComputation) -> EventClocks {
    let n = computation.process_count();
    let mut clocks: Vec<VectorTime> = vec![VectorTime::zero(n); n];
    let mut stamps: Vec<Vec<VectorTime>> = (0..n)
        .map(|p| Vec::with_capacity(computation.history(p).len()))
        .collect();
    // Walk events in a rendezvous-consistent global order: internal events
    // can be emitted as soon as reached; rendezvous events must be emitted
    // once for both endpoints, in message order. We iterate messages in
    // rendezvous order, first flushing each participant's pending internal
    // events.
    let mut cursor = vec![0usize; n];
    let flush_internals = |p: usize,
                           upto: usize,
                           clocks: &mut Vec<VectorTime>,
                           stamps: &mut Vec<Vec<VectorTime>>,
                           cursor: &mut Vec<usize>| {
        while cursor[p] < upto {
            let ev = computation.history(p)[cursor[p]];
            debug_assert!(ev.is_internal(), "externals are handled at rendezvous");
            clocks[p].increment(p);
            stamps[p].push(clocks[p].clone());
            cursor[p] += 1;
        }
    };
    for m in computation.messages() {
        let (se, re) = computation.message_endpoints(m.id);
        flush_internals(m.sender, se.index, &mut clocks, &mut stamps, &mut cursor);
        flush_internals(m.receiver, re.index, &mut clocks, &mut stamps, &mut cursor);
        let mut v = clocks[m.sender].clone();
        v.merge_max(&clocks[m.receiver])
            .expect("all Fidge–Mattern clocks share dimension N");
        v.increment(m.sender);
        v.increment(m.receiver);
        clocks[m.sender] = v.clone();
        clocks[m.receiver] = v.clone();
        stamps[m.sender].push(v.clone());
        stamps[m.receiver].push(v);
        cursor[m.sender] += 1;
        cursor[m.receiver] += 1;
    }
    // Trailing internal events after each process's last message.
    for p in 0..n {
        let len = computation.history(p).len();
        flush_internals(p, len, &mut clocks, &mut stamps, &mut cursor);
    }
    debug_assert!((0..n).all(|p| stamps[p].len() == computation.history(p).len()));
    // Sanity: external slots carry the message stamp.
    debug_assert!((0..n).all(|p| {
        computation
            .history(p)
            .iter()
            .enumerate()
            .all(|(i, ev)| match ev {
                EventKind::Internal => true,
                _ => stamps[p][i].component(p) > 0,
            })
    }));
    EventClocks { dim: n, stamps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synctime_trace::examples::{figure1, figure6};
    use synctime_trace::Builder;

    #[test]
    fn message_stamps_encode_fig1_and_fig6() {
        for comp in [figure1(), figure6()] {
            let stamps = stamp_messages(&comp);
            assert_eq!(stamps.dim(), comp.process_count());
            assert!(stamps.encodes(&Oracle::new(&comp)));
        }
    }

    #[test]
    fn event_clocks_encode_happened_before() {
        let mut b = Builder::new(3);
        b.internal(0).unwrap();
        b.message(0, 1).unwrap();
        b.internal(1).unwrap();
        b.message(1, 2).unwrap();
        b.internal(2).unwrap();
        b.internal(0).unwrap();
        let comp = b.build();
        let clocks = stamp_events(&comp);
        assert!(clocks.encodes(&comp, &Oracle::new(&comp)));
    }

    #[test]
    fn rendezvous_endpoints_share_vector() {
        let mut b = Builder::new(2);
        let m = b.message(0, 1).unwrap();
        let comp = b.build();
        let clocks = stamp_events(&comp);
        let (s, r) = comp.message_endpoints(m);
        assert_eq!(clocks.vector(s), clocks.vector(r));
        assert!(clocks.happened_before(s, r));
        assert!(clocks.happened_before(r, s));
        assert!(!clocks.concurrent(s, r));
    }

    #[test]
    fn internal_events_on_distinct_processes_concurrent() {
        let mut b = Builder::new(2);
        let e0 = b.internal(0).unwrap();
        let e1 = b.internal(1).unwrap();
        let comp = b.build();
        let clocks = stamp_events(&comp);
        assert!(clocks.concurrent(e0, e1));
    }

    #[test]
    fn message_stamp_values() {
        // Two disjoint messages then a joining one.
        let mut b = Builder::new(4);
        b.message(0, 1).unwrap(); // (1,1,0,0)
        b.message(2, 3).unwrap(); // (0,0,1,1)
        b.message(1, 2).unwrap(); // (1,2,2,1)
        let comp = b.build();
        let st = stamp_messages(&comp);
        assert_eq!(st.row(synctime_trace::MessageId(0)), &[1, 1, 0, 0]);
        assert_eq!(st.row(synctime_trace::MessageId(1)), &[0, 0, 1, 1]);
        assert_eq!(st.row(synctime_trace::MessageId(2)), &[1, 2, 2, 1]);
    }
}
