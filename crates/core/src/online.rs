//! The paper's online timestamping algorithm (Section 3, Figure 5).
//!
//! Each process keeps a vector of dimension `d = |edge decomposition|`. To
//! stamp a message over a channel in edge group `E_g`:
//!
//! 1. the sender piggybacks its vector `v_i` on the message (line 02);
//! 2. the receiver sends its pre-update vector `v_j` back on the
//!    acknowledgement (line 04), then sets `v_j := max(v_j, v_i)` and
//!    increments `v_j[g]` (lines 05–06);
//! 3. the sender, on the acknowledgement, performs the same max and
//!    increment (lines 09–10).
//!
//! Both sides end with the identical vector, which *is* the message's
//! timestamp. Theorem 4 shows `m1 ↦ m2 ⟺ v(m1) < v(m2)`.
//!
//! The protocol is generic over the clock representation (the
//! [`Clock`] trait): [`GenericProcessClock`] and [`GenericOnlineSession`]
//! run the very same Figure 5 steps on any backend, and the aliases
//! [`ProcessClock`] / [`OnlineSession`] pin the default dense vector.
//!
//! Two entry points:
//!
//! * [`ProcessClock`] — one endpoint of the protocol, message by message;
//!   this is what a real runtime (see `synctime-runtime`) embeds, with the
//!   vectors physically piggybacked on program messages and acks.
//! * [`OnlineStamper`] — stamps a whole recorded [`SyncComputation`] in
//!   rendezvous order. [`stamp_computation_as`] is the backend-generic
//!   equivalent.

use synctime_graph::{Edge, EdgeDecomposition, GroupRemap};
use synctime_trace::SyncComputation;

use crate::clock::{Clock, DenseVec};
use crate::{CoreError, MessageTimestamps, VectorTime};

/// One process's local clock and its half of the Figure 5 protocol,
/// generic over the [`Clock`] backend.
///
/// ```
/// use synctime_core::online::ProcessClock;
///
/// let mut sender = ProcessClock::new(2);
/// let mut receiver = ProcessClock::new(2);
/// // Sender piggybacks its vector; channel lies in edge group 1.
/// let payload = sender.send_payload();
/// let (ack, t_recv) = receiver.on_receive(&payload, 1)?;
/// let t_send = sender.on_acknowledgement(&ack, 1)?;
/// assert_eq!(t_send, t_recv); // both sides agree on the timestamp
/// # Ok::<(), synctime_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenericProcessClock<C: Clock> {
    vector: C,
}

/// The default dense-vector process clock (see [`GenericProcessClock`]).
pub type ProcessClock = GenericProcessClock<DenseVec>;

impl<C: Clock> From<C> for GenericProcessClock<C> {
    /// Wraps an existing clock value as a process clock — how the runtime
    /// resumes a reconfigured epoch from its baseline.
    fn from(vector: C) -> Self {
        GenericProcessClock { vector }
    }
}

impl<C: Clock> GenericProcessClock<C> {
    /// A fresh clock of dimension `dim`, initially all zeros.
    pub fn new(dim: usize) -> Self {
        GenericProcessClock {
            vector: C::zero(dim),
        }
    }

    /// The current local clock.
    pub fn current(&self) -> &C {
        &self.vector
    }

    /// The current local clock in dense interchange form.
    pub fn current_vector(&self) -> VectorTime {
        self.vector.to_vector()
    }

    /// The clock to piggyback on an outgoing message (line 02).
    pub fn send_payload(&self) -> C {
        self.vector.clone()
    }

    /// Handles an incoming message whose channel lies in edge group
    /// `group`: returns the acknowledgement payload (the *pre-update*
    /// local clock, line 04) and the message's timestamp (lines 05–07).
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if the payload dimension differs
    /// from this clock's; the clock is left unchanged.
    pub fn on_receive(&mut self, payload: &C, group: usize) -> Result<(C, C), CoreError> {
        let ack = self.vector.clone();
        self.vector.try_merge_max(payload)?;
        self.vector.increment(group);
        Ok((ack, self.vector.clone()))
    }

    /// Handles the acknowledgement of a message this process sent over a
    /// channel in edge group `group`: returns the message's timestamp
    /// (lines 09–11).
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if the acknowledgement dimension
    /// differs from this clock's; the clock is left unchanged.
    pub fn on_acknowledgement(&mut self, ack: &C, group: usize) -> Result<C, CoreError> {
        self.vector.try_merge_max(ack)?;
        self.vector.increment(group);
        Ok(self.vector.clone())
    }

    /// Wire-facing [`GenericProcessClock::on_receive`]: the payload
    /// arrives as borrowed dense components, optionally accompanied by the
    /// Singhal–Kshemkalyani change-set the stream decoder recovered. With
    /// a change-set the merge is delta-driven — sublinear for backends
    /// like [`crate::clock::TreeClock`] — sound because every earlier
    /// frame of a FIFO stream was already merged into this clock.
    ///
    /// Writes the acknowledgement payload (the *pre-update* clock, line
    /// 04) into `ack`, replacing its contents, and returns the message's
    /// timestamp (lines 05–07). The stamp is the only allocation.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] as for
    /// [`GenericProcessClock::on_receive`].
    pub fn on_receive_interchange(
        &mut self,
        payload: &[u64],
        changes: Option<&[(usize, u64)]>,
        group: usize,
        ack: &mut Vec<u64>,
    ) -> Result<VectorTime, CoreError> {
        ack.clear();
        ack.extend_from_slice(self.vector.as_slice());
        match changes {
            Some(changes) => self.vector.merge_delta(changes)?,
            None => self.vector.merge_from_slice(payload)?,
        }
        self.vector.increment(group);
        Ok(self.vector.to_vector())
    }

    /// Wire-facing [`GenericProcessClock::on_acknowledgement`], on borrowed
    /// components; see [`GenericProcessClock::on_receive_interchange`] for
    /// the change-set contract.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] as for
    /// [`GenericProcessClock::on_acknowledgement`].
    pub fn on_acknowledgement_interchange(
        &mut self,
        ack: &[u64],
        changes: Option<&[(usize, u64)]>,
        group: usize,
    ) -> Result<VectorTime, CoreError> {
        match changes {
            Some(changes) => self.vector.merge_delta(changes)?,
            None => self.vector.merge_from_slice(ack)?,
        }
        self.vector.increment(group);
        Ok(self.vector.to_vector())
    }

    /// Rebases this clock after the edge decomposition was edited in place
    /// (see [`synctime_graph::IncrementalDecomposition`]): a surviving
    /// group's count moves to its new position, dissolved groups' counts
    /// are dropped, and fresh groups start at zero.
    ///
    /// Sound because every component of a stamp counts the group's
    /// rendezvous chain (any two messages of a star or triangle group share
    /// a process, so they are totally ordered): groups the remap preserves
    /// keep their chain and their count; fresh groups begin a new chain at
    /// zero *uniformly across processes*. Theorem 4 therefore continues to
    /// hold among messages stamped after the remap. Stamps issued *before*
    /// it live in the old coordinate space and must not be compared with
    /// newer ones unless the remap [is the
    /// identity](synctime_graph::GroupRemap::is_identity).
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if the remap's domain differs from
    /// this clock's dimension.
    pub fn remap(&mut self, remap: &GroupRemap) -> Result<(), CoreError> {
        if remap.old_to_new.len() != self.vector.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.vector.dim(),
                got: remap.old_to_new.len(),
            });
        }
        let fresh = remap.apply(self.vector.as_slice());
        self.vector = C::from_vector(&VectorTime::from(fresh));
        Ok(())
    }
}

/// Stamps whole computations against a fixed edge decomposition.
#[derive(Debug, Clone)]
pub struct OnlineStamper {
    decomposition: EdgeDecomposition,
}

impl OnlineStamper {
    /// Creates a stamper for the given decomposition (assumed, as in the
    /// paper, to be known to all processes).
    pub fn new(decomposition: &EdgeDecomposition) -> Self {
        OnlineStamper {
            decomposition: decomposition.clone(),
        }
    }

    /// The timestamp dimension `d`.
    pub fn dim(&self) -> usize {
        self.decomposition.len()
    }

    /// The decomposition in use.
    pub fn decomposition(&self) -> &EdgeDecomposition {
        &self.decomposition
    }

    /// Runs the Figure 5 protocol over every message of `computation` in
    /// rendezvous order and returns the per-message timestamps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ChannelNotInDecomposition`] if a message uses a
    /// channel outside the decomposition.
    pub fn stamp_computation(
        &self,
        computation: &SyncComputation,
    ) -> Result<MessageTimestamps, CoreError> {
        stamp_computation_as::<DenseVec>(&self.decomposition, computation)
    }
}

/// Runs the Figure 5 protocol over `computation` with clock backend `C`
/// and returns the per-message timestamps in dense interchange form.
///
/// Every backend produces the same stamps — the protocol is deterministic
/// component arithmetic — which is what the cross-backend differential
/// battery checks end to end.
///
/// # Errors
///
/// [`CoreError::ChannelNotInDecomposition`] if a message uses a channel
/// outside the decomposition.
pub fn stamp_computation_as<C: Clock>(
    decomposition: &EdgeDecomposition,
    computation: &SyncComputation,
) -> Result<MessageTimestamps, CoreError> {
    let mut session = GenericOnlineSession::<C>::new(decomposition, computation.process_count());
    let (dim, len) = (decomposition.len(), computation.message_count());
    let mut rows = Vec::with_capacity(dim * len);
    for m in computation.messages() {
        rows.extend_from_slice(session.rendezvous(m.sender, m.receiver)?.as_slice());
    }
    Ok(MessageTimestamps::from_rows(dim, len, rows))
}

/// An incremental stamping session: the clocks of all `n` processes, fed
/// one rendezvous at a time, generic over the [`Clock`] backend.
/// [`OnlineStamper::stamp_computation`] is a convenience wrapper around
/// the dense alias [`OnlineSession`].
///
/// ```
/// use synctime_core::online::OnlineSession;
/// use synctime_graph::{decompose, topology};
///
/// let topo = topology::star(3);
/// let dec = decompose::best_known(&topo);
/// let mut session = OnlineSession::new(&dec, topo.node_count());
/// let t1 = session.stamp(1, 0)?; // leaf 1 -> hub
/// let t2 = session.stamp(0, 2)?; // hub -> leaf 2
/// assert!(t1 < t2); // stars are totally ordered (Lemma 1)
/// # Ok::<(), synctime_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GenericOnlineSession<C: Clock> {
    decomposition: EdgeDecomposition,
    clocks: Vec<GenericProcessClock<C>>,
    stamped: usize,
    /// The piggybacked clock (line 02) and the acknowledgement (line 04)
    /// of the rendezvous in flight, reused so a rendezvous allocates
    /// nothing.
    payload: Vec<u64>,
    ack: Vec<u64>,
}

/// The default dense-vector session (see [`GenericOnlineSession`]).
pub type OnlineSession = GenericOnlineSession<DenseVec>;

impl<C: Clock> GenericOnlineSession<C> {
    /// Starts a session for `process_count` processes.
    pub fn new(decomposition: &EdgeDecomposition, process_count: usize) -> Self {
        GenericOnlineSession {
            decomposition: decomposition.clone(),
            clocks: vec![GenericProcessClock::new(decomposition.len()); process_count],
            stamped: 0,
            payload: Vec::with_capacity(decomposition.len()),
            ack: Vec::with_capacity(decomposition.len()),
        }
    }

    /// Number of messages stamped so far.
    pub fn stamped(&self) -> usize {
        self.stamped
    }

    /// The current clock of a process.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProcessOutOfRange`] for a bad id.
    pub fn clock(&self, process: usize) -> Result<&GenericProcessClock<C>, CoreError> {
        self.clocks
            .get(process)
            .ok_or(CoreError::ProcessOutOfRange {
                process,
                process_count: self.clocks.len(),
            })
    }

    /// Adds a fresh process (all-zero clock) to a running session and
    /// returns its id — the dynamic-join case: together with
    /// [`EdgeDecomposition::extend_star`] a new client can enter an
    /// existing star without changing the timestamp dimension or
    /// invalidating any issued timestamp.
    ///
    /// [`EdgeDecomposition::extend_star`]: synctime_graph::EdgeDecomposition::extend_star
    pub fn add_process(&mut self) -> usize {
        self.clocks
            .push(GenericProcessClock::new(self.decomposition.len()));
        self.clocks.len() - 1
    }

    /// Extends star group `group` of the session's decomposition with a new
    /// channel (see [`EdgeDecomposition::extend_star`]).
    ///
    /// # Errors
    ///
    /// Propagates the decomposition's validation errors.
    ///
    /// [`EdgeDecomposition::extend_star`]: synctime_graph::EdgeDecomposition::extend_star
    pub fn extend_star(
        &mut self,
        group: usize,
        edge: Edge,
    ) -> Result<(), synctime_graph::GraphError> {
        self.decomposition.extend_star(group, edge)
    }

    /// Switches the session to a reconfigured decomposition whose group ids
    /// shifted per `remap` (as reported by
    /// [`synctime_graph::IncrementalDecomposition`]'s edits), rebasing every
    /// process clock with [`GenericProcessClock::remap`].
    ///
    /// After this call the session stamps against `decomposition`;
    /// timestamps issued before the call are comparable with later ones only
    /// if the remap [is the identity](GroupRemap::is_identity) (see
    /// [`GenericProcessClock::remap`] for why later stamps remain mutually
    /// sound).
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if the remap's domain is not the
    /// session's current dimension or its codomain is not the new
    /// decomposition's size.
    pub fn reconfigure(
        &mut self,
        decomposition: &EdgeDecomposition,
        remap: &GroupRemap,
    ) -> Result<(), CoreError> {
        if remap.old_to_new.len() != self.decomposition.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.decomposition.len(),
                got: remap.old_to_new.len(),
            });
        }
        if remap.new_len != decomposition.len() {
            return Err(CoreError::DimensionMismatch {
                expected: decomposition.len(),
                got: remap.new_len,
            });
        }
        for clock in &mut self.clocks {
            clock.remap(remap)?;
        }
        self.decomposition = decomposition.clone();
        Ok(())
    }

    /// Performs one rendezvous (message + acknowledgement) between
    /// `sender` and `receiver` and returns the message's timestamp in
    /// dense interchange form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ChannelNotInDecomposition`] if the channel's
    /// edge is in no group, or [`CoreError::ProcessOutOfRange`] for bad
    /// process ids.
    pub fn stamp(&mut self, sender: usize, receiver: usize) -> Result<VectorTime, CoreError> {
        self.rendezvous(sender, receiver).map(Clock::to_vector)
    }

    /// [`GenericOnlineSession::stamp`] without the copy: performs the
    /// rendezvous and returns the sender's clock, which after Figure 5
    /// equals the receiver's and is the message's timestamp.
    fn rendezvous(&mut self, sender: usize, receiver: usize) -> Result<&C, CoreError> {
        for &p in &[sender, receiver] {
            if p >= self.clocks.len() {
                return Err(CoreError::ProcessOutOfRange {
                    process: p,
                    process_count: self.clocks.len(),
                });
            }
        }
        let edge = Edge::new(sender, receiver);
        let group = self
            .decomposition
            .group_of(edge)
            .ok_or(CoreError::ChannelNotInDecomposition { edge })?;
        // Line 02: the sender piggybacks its clock.
        self.payload.clear();
        self.payload
            .extend_from_slice(self.clocks[sender].vector.as_slice());
        // Lines 04–07: the receiver acknowledges with its pre-update
        // clock, then merges the payload and counts the channel's group.
        let t_recv = &mut self.clocks[receiver].vector;
        self.ack.clear();
        self.ack.extend_from_slice(t_recv.as_slice());
        t_recv.merge_from_slice(&self.payload)?;
        t_recv.increment(group);
        // Lines 09–11: the sender merges the acknowledgement.
        let t_send = &mut self.clocks[sender].vector;
        t_send.merge_from_slice(&self.ack)?;
        t_send.increment(group);
        debug_assert_eq!(
            self.clocks[sender], self.clocks[receiver],
            "protocol endpoints must agree"
        );
        self.stamped += 1;
        Ok(&self.clocks[sender].vector)
    }
}

/// Stamps a computation using the smallest decomposition the fast
/// constructions find for the given topology ([`synctime_graph::decompose::best_known`]).
///
/// # Errors
///
/// Returns [`CoreError::ChannelNotInDecomposition`] if the computation uses
/// a channel outside `topology`.
pub fn stamp_with_topology(
    computation: &SyncComputation,
    topology: &synctime_graph::Graph,
) -> Result<MessageTimestamps, CoreError> {
    let dec = synctime_graph::decompose::best_known(topology);
    OnlineStamper::new(&dec).stamp_computation(computation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TreeClock;
    use synctime_graph::{decompose, topology};
    use synctime_trace::examples::{figure6, figure6_decomposition};
    use synctime_trace::{Builder, MessageId, Oracle};

    #[test]
    fn fig6_exact_timestamps() {
        // Figure 6 of the paper: K5, decomposition {star@P1, star@P2,
        // triangle(P3,P4,P5)}, eight messages. The paper's walkthrough:
        // m3 = P2 -> P3 is stamped (1,1,1) from locals (1,0,0) and (0,0,1).
        let comp = figure6();
        let dec = figure6_decomposition();
        let stamps = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        let expected: Vec<Vec<u64>> = vec![
            vec![1, 0, 0], // m1: P1 -> P2 (E1)
            vec![0, 0, 1], // m2: P3 -> P4 (E3)
            vec![1, 1, 1], // m3: P2 -> P3 (E2)  <- the paper's example
            vec![0, 0, 2], // m4: P4 -> P5 (E3)
            vec![2, 0, 2], // m5: P1 -> P4 (E1)
            vec![1, 2, 2], // m6: P2 -> P5 (E2)
            vec![1, 2, 3], // m7: P5 -> P3 (E3)
            vec![3, 2, 2], // m8: P1 -> P2 (E1)
        ];
        for (i, exp) in expected.iter().enumerate() {
            assert_eq!(stamps.row(MessageId(i)), exp.as_slice(), "m{}", i + 1);
        }
        // And the timestamps encode the poset (Theorem 4).
        assert!(stamps.encodes(&Oracle::new(&comp)));
        // The tree backend reproduces the walkthrough bit for bit.
        let tree = stamp_computation_as::<TreeClock>(&dec, &comp).unwrap();
        for (i, exp) in expected.iter().enumerate() {
            assert_eq!(tree.row(MessageId(i)), exp.as_slice());
        }
    }

    #[test]
    fn protocol_sides_agree() {
        let mut a = ProcessClock::new(3);
        let mut b = ProcessClock::new(3);
        let payload = a.send_payload();
        let (ack, tr) = b.on_receive(&payload, 2).unwrap();
        let ts = a.on_acknowledgement(&ack, 2).unwrap();
        assert_eq!(tr, ts);
        assert_eq!(a.current(), b.current());
        assert_eq!(ts.as_slice(), &[0, 0, 1]);
    }

    #[test]
    fn protocol_rejects_mismatched_payloads() {
        let mut clock = ProcessClock::new(2);
        let before = clock.current().clone();
        assert!(clock.on_receive(&VectorTime::zero(3), 0).is_err());
        assert!(clock.on_acknowledgement(&VectorTime::zero(5), 0).is_err());
        // A refused merge leaves the clock untouched.
        assert_eq!(clock.current(), &before);
    }

    #[test]
    fn interchange_paths_match_native_protocol() {
        // The wire-facing delta path and the native path produce the same
        // stamps on every backend.
        let mut native = GenericProcessClock::<TreeClock>::new(4);
        let mut wire = GenericProcessClock::<TreeClock>::new(4);
        let payload = VectorTime::from(vec![2, 0, 1, 0]);
        let (ack_n, stamp_n) = native
            .on_receive(&TreeClock::from_vector(&payload), 1)
            .unwrap();
        // The change-set names exactly the nonzero components.
        let mut ack_w = vec![9; 7]; // stale contents are replaced
        let stamp_w = wire
            .on_receive_interchange(payload.as_slice(), Some(&[(0, 2), (2, 1)]), 1, &mut ack_w)
            .unwrap();
        assert_eq!(ack_n.as_slice(), &ack_w[..]);
        assert_eq!(stamp_n.to_vector(), stamp_w);
        let t_n = native
            .on_acknowledgement(&TreeClock::from_vector(&payload), 0)
            .unwrap();
        let t_w = wire
            .on_acknowledgement_interchange(payload.as_slice(), None, 0)
            .unwrap();
        assert_eq!(t_n.to_vector(), t_w);
        // The dense backend takes the full-vector path to the same stamps.
        let mut dense = ProcessClock::new(4);
        let stamp_d = dense
            .on_receive_interchange(payload.as_slice(), None, 1, &mut ack_w)
            .unwrap();
        assert_eq!((&ack_w[..], stamp_d), (&[0u64; 4][..], stamp_w));
        // A payload of the wrong width is refused, the clock unchanged.
        let before = dense.current_vector();
        assert!(dense
            .on_acknowledgement_interchange(&[1, 2], None, 0)
            .is_err());
        assert_eq!(dense.current_vector(), before);
    }

    #[test]
    fn ack_carries_pre_update_vector() {
        // Line 04 of Figure 5: the ack is the receiver's vector *before*
        // the max/increment. If it carried the post-update vector the
        // sender would double-increment.
        let mut receiver = ProcessClock::new(1);
        let (ack, stamp) = receiver.on_receive(&VectorTime::zero(1), 0).unwrap();
        assert_eq!(ack.as_slice(), &[0]);
        assert_eq!(stamp.as_slice(), &[1]);
    }

    #[test]
    fn star_topology_single_integer() {
        // Lemma 1: on a star every pair of messages is ordered; a single
        // component suffices and the stamps are strictly increasing.
        let topo = topology::star(4);
        let dec = decompose::best_known(&topo);
        assert_eq!(dec.len(), 1);
        let mut b = Builder::with_topology(&topo);
        for leaf in 1..=4 {
            b.message(0, leaf).unwrap();
            b.message(leaf, 0).unwrap();
        }
        let comp = b.build();
        let stamps = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        let values: Vec<u64> = stamps.rows().map(|v| v[0]).collect();
        assert_eq!(values, (1..=8).collect::<Vec<u64>>());
        assert!(stamps.encodes(&Oracle::new(&comp)));
    }

    #[test]
    fn unknown_channel_rejected() {
        let dec = decompose::best_known(&topology::path(3)); // covers 0-1, 1-2
        let mut b = Builder::new(3);
        b.message(0, 2).unwrap(); // not a channel of the path
        let comp = b.build();
        let err = OnlineStamper::new(&dec)
            .stamp_computation(&comp)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::ChannelNotInDecomposition {
                edge: Edge::new(0, 2)
            }
        );
    }

    #[test]
    fn session_rejects_bad_process() {
        let dec = decompose::best_known(&topology::path(3));
        let mut s = OnlineSession::new(&dec, 3);
        assert!(matches!(
            s.stamp(0, 9),
            Err(CoreError::ProcessOutOfRange { process: 9, .. })
        ));
        assert!(s.clock(5).is_err());
        assert!(s.clock(2).is_ok());
    }

    #[test]
    fn incremental_session_matches_batch() {
        let topo = topology::complete(4);
        let dec = decompose::best_known(&topo);
        let mut b = Builder::with_topology(&topo);
        let pairs = [(0, 1), (2, 3), (1, 2), (3, 0), (1, 3)];
        for (s, r) in pairs {
            b.message(s, r).unwrap();
        }
        let comp = b.build();
        let batch = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        let mut session = OnlineSession::new(&dec, 4);
        let mut tree = GenericOnlineSession::<TreeClock>::new(&dec, 4);
        for (i, (s, r)) in pairs.iter().enumerate() {
            let t = session.stamp(*s, *r).unwrap();
            assert_eq!(t.as_slice(), batch.row(MessageId(i)));
            assert_eq!(tree.stamp(*s, *r).unwrap(), t);
        }
        assert_eq!(session.stamped(), pairs.len());
    }

    #[test]
    fn clock_remap_moves_surviving_counts() {
        let mut clock = ProcessClock::new(3);
        // Drive the clock to (2, 1, 3).
        for (group, times) in [(0usize, 2usize), (1, 1), (2, 3)] {
            for _ in 0..times {
                clock
                    .on_acknowledgement(&VectorTime::zero(3), group)
                    .unwrap();
            }
        }
        assert_eq!(clock.current().as_slice(), &[2, 1, 3]);
        // Group 1 dissolves, groups 0 and 2 swap, one fresh group appears.
        clock
            .remap(&GroupRemap {
                old_to_new: vec![Some(2), None, Some(0)],
                new_len: 4,
            })
            .unwrap();
        assert_eq!(clock.current().as_slice(), &[3, 0, 2, 0]);
    }

    #[test]
    fn session_reconfigure_follows_topology_edits() {
        use synctime_graph::IncrementalDecomposition;

        // A hub with two clients; a third client joins mid-session, then a
        // disconnected pair appears (fresh group), then the pair is cut.
        let mut g = synctime_graph::Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let mut cache = IncrementalDecomposition::new(&g);
        let mut session = OnlineSession::new(cache.decomposition(), 6);
        let t1 = session.stamp(1, 0).unwrap();

        // Join absorbed by the hub star: identity remap, old stamps stay
        // comparable and the session keeps its counts.
        let remap = cache.insert_edge(0, 3).unwrap();
        assert!(remap.is_identity());
        session.reconfigure(cache.decomposition(), &remap).unwrap();
        let t2 = session.stamp(3, 0).unwrap();
        assert!(t1 < t2);

        // A disconnected pair: dimension grows; surviving counts carry over.
        let remap = cache.insert_edge(4, 5).unwrap();
        session.reconfigure(cache.decomposition(), &remap).unwrap();
        let t3 = session.stamp(4, 5).unwrap();
        let t4 = session.stamp(0, 2).unwrap();
        assert!(t3 < t4 || t4.partial_cmp(&t3).is_none());
        assert_eq!(t4.dim(), cache.decomposition().len());

        // Cutting the pair dissolves its singleton group.
        let remap = cache.remove_edge(4, 5).unwrap();
        session.reconfigure(cache.decomposition(), &remap).unwrap();
        let t5 = session.stamp(2, 0).unwrap();
        assert_eq!(t5.dim(), cache.decomposition().len());
        // The hub group's chain kept counting across every reconfiguration.
        assert!(t4.as_slice().iter().max() < t5.as_slice().iter().max());
    }

    #[test]
    fn reconfigure_rejects_mismatched_remaps() {
        let dec = decompose::best_known(&topology::path(3)); // d = 1
        let mut session = OnlineSession::new(&dec, 3);
        let bad_domain = GroupRemap {
            old_to_new: vec![Some(0), Some(1)],
            new_len: dec.len(),
        };
        assert!(matches!(
            session.reconfigure(&dec, &bad_domain),
            Err(CoreError::DimensionMismatch { .. })
        ));
        let bad_codomain = GroupRemap {
            old_to_new: (0..dec.len()).map(Some).collect(),
            new_len: dec.len() + 2,
        };
        assert!(matches!(
            session.reconfigure(&dec, &bad_codomain),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn stamp_with_topology_convenience() {
        let topo = topology::client_server(2, 3);
        let mut b = Builder::with_topology(&topo);
        b.message(2, 0).unwrap();
        b.message(3, 1).unwrap();
        let comp = b.build();
        let stamps = stamp_with_topology(&comp, &topo).unwrap();
        assert_eq!(stamps.dim(), 2);
        assert!(stamps.encodes(&Oracle::new(&comp)));
    }

    #[test]
    fn empty_computation_stamps_nothing() {
        let topo = topology::path(2);
        let dec = decompose::best_known(&topo);
        let comp = Builder::with_topology(&topo).build();
        let stamps = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        assert!(stamps.is_empty());
    }
}
