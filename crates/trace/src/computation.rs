use std::fmt;

use serde::{Deserialize, Serialize};
use synctime_graph::Graph;

use crate::TraceError;

/// Identifier of a process, `0..process_count`. The paper writes
/// `P_1..P_N`; we use zero-based ids.
pub type ProcessId = usize;

/// Identifier of a message within a computation, in *rendezvous order*:
/// `MessageId(k)` is the `k`-th message of the vertical-arrow drawing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub usize);

impl MessageId {
    /// The message's index in rendezvous order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One-based, matching the paper's m1, m2, ... naming.
        write!(f, "m{}", self.0 + 1)
    }
}

/// Tag bit marking a receive endpoint in
/// [`SyncComputation::from_process_sequences`]'s sorted endpoint list.
const RECEIVE: usize = 1 << (usize::BITS - 1);

/// An empty successor slot in
/// [`SyncComputation::from_process_sequences`]'s constraint graph.
const NO_MESSAGE: usize = usize::MAX;

/// A synchronous message: a rendezvous between `sender` and `receiver`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Message {
    /// The message id (its rendezvous-order index).
    pub id: MessageId,
    /// The sending process.
    pub sender: ProcessId,
    /// The receiving process.
    pub receiver: ProcessId,
}

impl Message {
    /// Whether `p` participates in the message (as sender or receiver).
    pub fn involves(&self, p: ProcessId) -> bool {
        self.sender == p || self.receiver == p
    }

    /// The two participants `(sender, receiver)`.
    pub fn participants(&self) -> (ProcessId, ProcessId) {
        (self.sender, self.receiver)
    }
}

/// What a single slot of a process's local history holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// An internal (local) event.
    Internal,
    /// The send endpoint of a message.
    Send(MessageId),
    /// The receive endpoint of a message.
    Receive(MessageId),
}

impl EventKind {
    /// The message this event is an endpoint of, if it is external.
    pub fn message(self) -> Option<MessageId> {
        match self {
            EventKind::Internal => None,
            EventKind::Send(m) | EventKind::Receive(m) => Some(m),
        }
    }

    /// Whether this is an internal event.
    pub fn is_internal(self) -> bool {
        matches!(self, EventKind::Internal)
    }
}

/// Addresses one event: the `index`-th slot of `process`'s local history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId {
    /// The process the event occurs on.
    pub process: ProcessId,
    /// The position within that process's history, from 0.
    pub index: usize,
}

impl EventId {
    /// Creates an event id.
    pub fn new(process: ProcessId, index: usize) -> Self {
        EventId { process, index }
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}[{}]", self.process + 1, self.index)
    }
}

/// A completed synchronous computation: for each process an ordered local
/// history of internal/send/receive events, plus the global rendezvous
/// order of the messages.
///
/// The type maintains two invariants:
///
/// 1. every message appears exactly once as a `Send` (at its sender) and
///    once as a `Receive` (at its receiver);
/// 2. message ids appear in increasing order within every local history —
///    i.e. the rendezvous order is a *vertical drawing* of the computation
///    (the integer-timestamp criterion of Section 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncComputation {
    process_count: usize,
    messages: Vec<Message>,
    histories: Vec<Vec<EventKind>>,
    /// For each message, the event indices of its (send, receive) endpoints.
    endpoints: Vec<(usize, usize)>,
    /// For each process, its messages in local order.
    process_messages: Vec<Vec<MessageId>>,
}

impl SyncComputation {
    /// Number of processes `N`.
    pub fn process_count(&self) -> usize {
        self.process_count
    }

    /// Number of messages `|M|`.
    pub fn message_count(&self) -> usize {
        self.messages.len()
    }

    /// All messages in rendezvous order.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// A message by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn message(&self, id: MessageId) -> Message {
        self.messages[id.0]
    }

    /// The local history of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn history(&self, p: ProcessId) -> &[EventKind] {
        &self.histories[p]
    }

    /// The kind of the event at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn event(&self, id: EventId) -> EventKind {
        self.histories[id.process][id.index]
    }

    /// Iterates over all events of all processes.
    pub fn events(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.process_count)
            .flat_map(move |p| (0..self.histories[p].len()).map(move |i| EventId::new(p, i)))
    }

    /// The send and receive event ids of a message.
    pub fn message_endpoints(&self, id: MessageId) -> (EventId, EventId) {
        let m = self.messages[id.0];
        let (si, ri) = self.endpoints[id.0];
        (EventId::new(m.sender, si), EventId::new(m.receiver, ri))
    }

    /// The messages of process `p`, in local order.
    pub fn process_messages(&self, p: ProcessId) -> &[MessageId] {
        &self.process_messages[p]
    }

    /// The latest external event at or before `e` on `e`'s process, as its
    /// message: for an external `e` this is `e`'s own message; for an
    /// internal `e` it is the previous external event's message, if any.
    /// This is the `prev(e)` direction of Section 5.
    pub fn message_at_or_before(&self, e: EventId) -> Option<MessageId> {
        let h = &self.histories[e.process];
        (0..=e.index).rev().find_map(|i| h[i].message())
    }

    /// The earliest external event at or after `e` on `e`'s process, as its
    /// message (the `succ(e)` direction of Section 5).
    pub fn message_at_or_after(&self, e: EventId) -> Option<MessageId> {
        let h = &self.histories[e.process];
        (e.index..h.len()).find_map(|i| h[i].message())
    }

    /// Integer timestamps witnessing synchrony (Section 2): message `k` gets
    /// timestamp `k`, which increases along every local history and is equal
    /// at the two endpoints of each message. The existence of such an
    /// assignment is Charron-Bost et al.'s characterization of synchronous
    /// computations; this type's construction guarantees it.
    pub fn synchrony_witness(&self) -> Vec<usize> {
        (0..self.messages.len()).collect()
    }

    /// Builds a computation from per-process local histories, determining
    /// whether they are realizable by a synchronous execution and, if so,
    /// renumbering the messages into rendezvous order.
    ///
    /// `sequences[p]` lists the slots of process `p`: `Internal`, or
    /// `Send(m)`/`Receive(m)` with caller-chosen message keys `m`
    /// (arbitrary `usize`s; they are renumbered).
    ///
    /// # Errors
    ///
    /// * [`TraceError::MalformedSequences`] if a message key does not occur
    ///   exactly once as a send and once as a receive, or a process sends to
    ///   itself;
    /// * [`TraceError::NotSynchronous`] if the local orders force a cycle —
    ///   e.g. the classic *crossing* pair where each process sends before it
    ///   receives; no rendezvous schedule realizes that.
    pub fn from_process_sequences(
        mut sequences: Vec<Vec<EventKind>>,
    ) -> Result<SyncComputation, TraceError> {
        let process_count = sequences.len();
        // Number the external events in scan order (process by process,
        // slot by slot); process p's are numbered from `starts[p]`. Tag each
        // with its key and sort by key: equal keys become adjacent, still
        // in scan order (the sort is stable, and merges the runs of keys
        // that already increase along a history).
        let mut starts = Vec::with_capacity(process_count + 1);
        let mut ends: Vec<(usize, usize)> = Vec::new();
        for seq in &sequences {
            starts.push(ends.len());
            for ev in seq {
                match *ev {
                    EventKind::Internal => {}
                    EventKind::Send(MessageId(k)) => ends.push((k, ends.len())),
                    EventKind::Receive(MessageId(k)) => ends.push((k, RECEIVE | ends.len())),
                }
            }
        }
        starts.push(ends.len());
        ends.sort_by_key(|&(key, _)| key);
        let process_of = |event: usize| starts.partition_point(|&s| s <= event) - 1;

        // One dense id per key, in key order. Errors are collected during
        // the walk and reported in a fixed precedence: the earliest
        // repeated endpoint in scan order; then, when the numbers of sent
        // and received keys differ, the smallest unmatched key; then the
        // smallest sent key that is unmatched or a self-message.
        let mut keys = Vec::new();
        let mut participants: Vec<(ProcessId, ProcessId)> = Vec::new();
        let mut id_of = vec![0usize; ends.len()];
        let mut repeat: Option<(usize, usize)> = None; // (event, key)
        let (mut sent_keys, mut received_keys) = (0usize, 0usize);
        let (mut lonely_send, mut lonely_receive) = (None, None);
        let mut bad_send: Option<TraceError> = None;
        for group in ends.chunk_by(|a, b| a.0 == b.0) {
            let key = group[0].0;
            // The first send and the first receive, as event numbers; a
            // later endpoint on the same side repeats the key.
            let (mut send, mut receive) = (None, None);
            for &(_, tag) in group {
                let (first, event) = if tag & RECEIVE == 0 {
                    (&mut send, tag)
                } else {
                    (&mut receive, tag & !RECEIVE)
                };
                if first.is_none() {
                    *first = Some(event);
                } else if repeat.is_none_or(|(earliest, _)| event < earliest) {
                    repeat = Some((event, key));
                }
            }
            sent_keys += usize::from(send.is_some());
            received_keys += usize::from(receive.is_some());
            match (send, receive) {
                (Some(_), None) => {
                    lonely_send.get_or_insert(key);
                    bad_send.get_or_insert(TraceError::MalformedSequences { message: key });
                }
                (None, Some(_)) => {
                    lonely_receive.get_or_insert(key);
                }
                (Some(send), Some(receive)) => {
                    let (sender, receiver) = (process_of(send), process_of(receive));
                    if sender == receiver {
                        bad_send.get_or_insert(TraceError::SelfMessage(sender));
                    }
                    id_of[send] = keys.len();
                    id_of[receive] = keys.len();
                    keys.push(key);
                    participants.push((sender, receiver));
                }
                (None, None) => unreachable!("a key group holds at least one endpoint"),
            }
        }
        if let Some((_, key)) = repeat {
            return Err(TraceError::MalformedSequences { message: key });
        }
        if sent_keys != received_keys {
            let lonely = lonely_send.or(lonely_receive).unwrap_or(0);
            return Err(TraceError::MalformedSequences { message: lonely });
        }
        if let Some(err) = bad_send {
            return Err(err);
        }

        // "Must rendezvous earlier" constraints: each message has one
        // successor slot per endpoint — the next message in its sender's
        // order and the next in its receiver's. Kahn's algorithm with a
        // min-heap takes the smallest-keyed ready message first.
        let m = keys.len();
        let mut next = vec![[NO_MESSAGE; 2]; m];
        let mut indegree = vec![0usize; m];
        for (p, range) in starts.windows(2).enumerate() {
            for pair in id_of[range[0]..range[1]].windows(2) {
                let slot = usize::from(participants[pair[0]].0 != p);
                next[pair[0]][slot] = pair[1];
                indegree[pair[1]] += 1;
            }
        }
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..m)
            .filter(|&v| indegree[v] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut rank = vec![0usize; m];
        let mut placed = 0usize;
        while let Some(std::cmp::Reverse(v)) = ready.pop() {
            rank[v] = placed;
            placed += 1;
            for w in next[v] {
                if w != NO_MESSAGE {
                    indegree[w] -= 1;
                    if indegree[w] == 0 {
                        ready.push(std::cmp::Reverse(w));
                    }
                }
            }
        }
        if placed != m {
            let culprit = (0..m)
                .find(|&v| indegree[v] > 0)
                .expect("a cycle leaves positive indegree");
            return Err(TraceError::NotSynchronous {
                message: keys[culprit],
            });
        }
        // Renumber messages into rendezvous order, in place.
        let mut message_meta = vec![(0usize, 0usize); m]; // (sender, receiver) by rank
        for (id, &pair) in participants.iter().enumerate() {
            message_meta[rank[id]] = pair;
        }
        let mut event = 0usize;
        for seq in &mut sequences {
            for ev in seq.iter_mut() {
                if let EventKind::Send(id) | EventKind::Receive(id) = ev {
                    *id = MessageId(rank[id_of[event]]);
                    event += 1;
                }
            }
        }
        Ok(Self::assemble(process_count, message_meta, sequences))
    }

    fn assemble(
        process_count: usize,
        message_meta: Vec<(ProcessId, ProcessId)>,
        histories: Vec<Vec<EventKind>>,
    ) -> SyncComputation {
        let messages: Vec<Message> = message_meta
            .iter()
            .enumerate()
            .map(|(i, &(sender, receiver))| Message {
                id: MessageId(i),
                sender,
                receiver,
            })
            .collect();
        let mut endpoints = vec![(usize::MAX, usize::MAX); messages.len()];
        let mut process_messages: Vec<Vec<MessageId>> = vec![Vec::new(); process_count];
        for (p, h) in histories.iter().enumerate() {
            for (i, ev) in h.iter().enumerate() {
                match ev {
                    EventKind::Internal => {}
                    EventKind::Send(m) => {
                        endpoints[m.0].0 = i;
                        process_messages[p].push(*m);
                    }
                    EventKind::Receive(m) => {
                        endpoints[m.0].1 = i;
                        process_messages[p].push(*m);
                    }
                }
            }
        }
        SyncComputation {
            process_count,
            messages,
            histories,
            endpoints,
            process_messages,
        }
    }
}

impl fmt::Display for SyncComputation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SyncComputation(N={}, |M|={})",
            self.process_count,
            self.messages.len()
        )
    }
}

/// Incrementally builds a [`SyncComputation`] in rendezvous order: each
/// [`Builder::message`] call appends a vertical arrow, each
/// [`Builder::internal`] call appends a local event.
///
/// Optionally validates messages against a communication topology
/// ([`Builder::with_topology`]); without one, any pair of distinct
/// processes may communicate.
#[derive(Debug, Clone)]
pub struct Builder {
    process_count: usize,
    topology: Option<Graph>,
    message_meta: Vec<(ProcessId, ProcessId)>,
    histories: Vec<Vec<EventKind>>,
}

impl Builder {
    /// Starts a computation on `process_count` processes.
    pub fn new(process_count: usize) -> Self {
        Builder {
            process_count,
            topology: None,
            message_meta: Vec::new(),
            histories: vec![Vec::new(); process_count],
        }
    }

    /// Starts a computation restricted to the channels of `topology` (whose
    /// node count becomes the process count).
    pub fn with_topology(topology: &Graph) -> Self {
        Builder {
            process_count: topology.node_count(),
            topology: Some(topology.clone()),
            message_meta: Vec::new(),
            histories: vec![Vec::new(); topology.node_count()],
        }
    }

    /// Number of messages appended so far.
    pub fn message_count(&self) -> usize {
        self.message_meta.len()
    }

    /// Appends a synchronous message from `sender` to `receiver` and returns
    /// its id.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ProcessOutOfRange`], [`TraceError::SelfMessage`],
    /// or — when a topology was declared — [`TraceError::NotAChannel`].
    pub fn message(
        &mut self,
        sender: ProcessId,
        receiver: ProcessId,
    ) -> Result<MessageId, TraceError> {
        for &p in &[sender, receiver] {
            if p >= self.process_count {
                return Err(TraceError::ProcessOutOfRange {
                    process: p,
                    process_count: self.process_count,
                });
            }
        }
        if sender == receiver {
            return Err(TraceError::SelfMessage(sender));
        }
        if let Some(topo) = &self.topology {
            if !topo.has_edge(sender, receiver) {
                return Err(TraceError::NotAChannel { sender, receiver });
            }
        }
        let id = MessageId(self.message_meta.len());
        self.message_meta.push((sender, receiver));
        self.histories[sender].push(EventKind::Send(id));
        self.histories[receiver].push(EventKind::Receive(id));
        Ok(id)
    }

    /// Appends an internal event on `process` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ProcessOutOfRange`] for a bad process id.
    pub fn internal(&mut self, process: ProcessId) -> Result<EventId, TraceError> {
        if process >= self.process_count {
            return Err(TraceError::ProcessOutOfRange {
                process,
                process_count: self.process_count,
            });
        }
        self.histories[process].push(EventKind::Internal);
        Ok(EventId::new(process, self.histories[process].len() - 1))
    }

    /// Finishes the computation.
    pub fn build(self) -> SyncComputation {
        SyncComputation::assemble(self.process_count, self.message_meta, self.histories)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basic() {
        let mut b = Builder::new(3);
        let m1 = b.message(0, 1).unwrap();
        let e = b.internal(1).unwrap();
        let m2 = b.message(1, 2).unwrap();
        let c = b.build();
        assert_eq!(c.process_count(), 3);
        assert_eq!(c.message_count(), 2);
        assert_eq!(c.message(m1).participants(), (0, 1));
        assert_eq!(c.history(1).len(), 3);
        assert_eq!(c.event(e), EventKind::Internal);
        assert_eq!(c.process_messages(1), &[m1, m2]);
        let (s, r) = c.message_endpoints(m2);
        assert_eq!(s, EventId::new(1, 2));
        assert_eq!(r, EventId::new(2, 0));
    }

    #[test]
    fn builder_rejects_bad_messages() {
        let mut b = Builder::new(2);
        assert_eq!(b.message(0, 0), Err(TraceError::SelfMessage(0)));
        assert_eq!(
            b.message(0, 7),
            Err(TraceError::ProcessOutOfRange {
                process: 7,
                process_count: 2
            })
        );
        assert_eq!(
            b.internal(5),
            Err(TraceError::ProcessOutOfRange {
                process: 5,
                process_count: 2
            })
        );
    }

    #[test]
    fn builder_respects_topology() {
        let topo = synctime_graph::topology::path(3); // 0-1-2
        let mut b = Builder::with_topology(&topo);
        assert!(b.message(0, 1).is_ok());
        assert_eq!(
            b.message(0, 2),
            Err(TraceError::NotAChannel {
                sender: 0,
                receiver: 2
            })
        );
    }

    #[test]
    fn prev_next_external() {
        let mut b = Builder::new(2);
        let e0 = b.internal(0).unwrap();
        let m1 = b.message(0, 1).unwrap();
        let e1 = b.internal(0).unwrap();
        let m2 = b.message(0, 1).unwrap();
        let e2 = b.internal(0).unwrap();
        let c = b.build();
        assert_eq!(c.message_at_or_before(e0), None);
        assert_eq!(c.message_at_or_after(e0), Some(m1));
        assert_eq!(c.message_at_or_before(e1), Some(m1));
        assert_eq!(c.message_at_or_after(e1), Some(m2));
        assert_eq!(c.message_at_or_before(e2), Some(m2));
        assert_eq!(c.message_at_or_after(e2), None);
        // External events report their own message in both directions.
        let (s1, _) = c.message_endpoints(m1);
        assert_eq!(c.message_at_or_before(s1), Some(m1));
        assert_eq!(c.message_at_or_after(s1), Some(m1));
    }

    #[test]
    fn synchrony_witness_increases_per_process() {
        let mut b = Builder::new(3);
        b.message(0, 1).unwrap();
        b.message(1, 2).unwrap();
        b.message(0, 2).unwrap();
        let c = b.build();
        let w = c.synchrony_witness();
        for p in 0..3 {
            let stamps: Vec<usize> = c.process_messages(p).iter().map(|m| w[m.0]).collect();
            assert!(stamps.windows(2).all(|s| s[0] < s[1]), "P{p}: {stamps:?}");
        }
    }

    #[test]
    fn from_sequences_accepts_realizable() {
        // P0: send a, recv b ; P1: recv a, send b — sequential, fine.
        let seqs = vec![
            vec![
                EventKind::Send(MessageId(10)),
                EventKind::Receive(MessageId(20)),
            ],
            vec![
                EventKind::Receive(MessageId(10)),
                EventKind::Send(MessageId(20)),
            ],
        ];
        let c = SyncComputation::from_process_sequences(seqs).unwrap();
        assert_eq!(c.message_count(), 2);
        // Renumbered into rendezvous order: message 0 is the one sent first.
        assert_eq!(c.message(MessageId(0)).sender, 0);
        assert_eq!(c.message(MessageId(1)).sender, 1);
    }

    #[test]
    fn from_sequences_rejects_crossing() {
        // The classic crown: both processes send before they receive.
        // No rendezvous schedule realizes it.
        let seqs = vec![
            vec![
                EventKind::Send(MessageId(1)),
                EventKind::Receive(MessageId(2)),
            ],
            vec![
                EventKind::Send(MessageId(2)),
                EventKind::Receive(MessageId(1)),
            ],
        ];
        let err = SyncComputation::from_process_sequences(seqs).unwrap_err();
        assert!(matches!(err, TraceError::NotSynchronous { .. }));
    }

    #[test]
    fn from_sequences_rejects_malformed() {
        // Message 5 sent twice.
        let seqs = vec![
            vec![EventKind::Send(MessageId(5))],
            vec![
                EventKind::Send(MessageId(5)),
                EventKind::Receive(MessageId(5)),
            ],
        ];
        assert!(matches!(
            SyncComputation::from_process_sequences(seqs),
            Err(TraceError::MalformedSequences { message: 5 })
        ));
        // Message never received.
        let seqs = vec![vec![EventKind::Send(MessageId(9))], vec![]];
        assert!(matches!(
            SyncComputation::from_process_sequences(seqs),
            Err(TraceError::MalformedSequences { message: 9 })
        ));
        // Self-message within one history.
        let seqs = vec![vec![
            EventKind::Send(MessageId(3)),
            EventKind::Receive(MessageId(3)),
        ]];
        assert!(matches!(
            SyncComputation::from_process_sequences(seqs),
            Err(TraceError::SelfMessage(0))
        ));
    }

    #[test]
    fn from_sequences_preserves_internal_events() {
        let seqs = vec![
            vec![
                EventKind::Internal,
                EventKind::Send(MessageId(0)),
                EventKind::Internal,
            ],
            vec![EventKind::Receive(MessageId(0))],
        ];
        let c = SyncComputation::from_process_sequences(seqs).unwrap();
        assert_eq!(c.history(0).len(), 3);
        assert!(c.history(0)[0].is_internal());
        assert_eq!(c.events().count(), 4);
    }

    #[test]
    fn empty_computation() {
        let c = Builder::new(0).build();
        assert_eq!(c.process_count(), 0);
        assert_eq!(c.message_count(), 0);
        assert_eq!(c.events().count(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(MessageId(0).to_string(), "m1");
        assert_eq!(EventId::new(1, 3).to_string(), "P2[3]");
        let c = Builder::new(2).build();
        assert_eq!(c.to_string(), "SyncComputation(N=2, |M|=0)");
    }
}
