//! Low-overhead per-process event recording.
//!
//! Hot-path operations touch only atomics plus one mutex-guarded ring-buffer
//! push; nothing allocates after construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use std::collections::BTreeMap;

use crate::stats::{nearest_rank_percentile, savings_ratio, ChannelStats, ProcessStats, RunStats};

/// What a recorded event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEventKind {
    /// A completed rendezvous send, including its acknowledgement round-trip.
    Send {
        /// Receiving process.
        to: usize,
        /// Bytes put on the wire (payload framing plus piggybacked vector).
        wire_bytes: u64,
        /// Nanoseconds from initiating the send until the ack was merged.
        ack_latency_ns: u64,
    },
    /// A completed receive.
    Receive {
        /// Sending process.
        from: usize,
        /// Bytes taken off the wire.
        wire_bytes: u64,
        /// Nanoseconds this process spent blocked waiting for the message.
        blocked_ns: u64,
    },
    /// A parked thread resumed after its rendezvous condition became true.
    Wakeup {
        /// Nanoseconds between the peer making the condition true (and
        /// notifying) and this process observing it.
        latency_ns: u64,
    },
}

/// One timestamped entry in a process's event ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Nanoseconds since the [`Recorder`] was created.
    pub at_ns: u64,
    /// What happened.
    pub kind: ObsEventKind,
}

/// Fixed-capacity ring that keeps the most recent entries.
#[derive(Debug)]
struct Ring {
    slots: Vec<ObsEvent>,
    capacity: usize,
    /// Total number of pushes ever; `next % capacity` is the write slot.
    next: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    fn push(&mut self, event: ObsEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.next % self.capacity] = event;
        }
        self.next += 1;
    }

    /// Entries in arrival order, oldest retained first.
    fn in_order(&self) -> Vec<ObsEvent> {
        if self.slots.len() < self.capacity || self.capacity == 0 {
            return self.slots.clone();
        }
        let pivot = self.next % self.capacity;
        let mut out = Vec::with_capacity(self.capacity);
        out.extend_from_slice(&self.slots[pivot..]);
        out.extend_from_slice(&self.slots[..pivot]);
        out
    }

    fn dropped(&self) -> usize {
        self.next.saturating_sub(self.slots.len())
    }
}

/// Per-directed-channel accumulation, keyed `(from, to)`:
/// `(messages, wire_bytes, wire_bytes_full)`.
type ChannelTotals = BTreeMap<(usize, usize), (u64, u64, u64)>;

/// Per-process instrumentation sink.
///
/// Handed by reference to the thread driving one process; all methods take
/// `&self` and are cheap enough to call on every message.
#[derive(Debug)]
pub struct ProcessRecorder {
    /// This process's id — the channel key half this recorder contributes.
    id: usize,
    sends: AtomicU64,
    receives: AtomicU64,
    wire_bytes: AtomicU64,
    wire_bytes_full: AtomicU64,
    blocked_ns: AtomicU64,
    wakeups: AtomicU64,
    resyncs: AtomicU64,
    faults: AtomicU64,
    /// Uncontended in practice — only this process's thread writes it.
    channels: Mutex<ChannelTotals>,
    events: Mutex<Ring>,
    epoch: Instant,
}

impl ProcessRecorder {
    fn new(id: usize, ring_capacity: usize, epoch: Instant) -> Self {
        ProcessRecorder {
            id,
            sends: AtomicU64::new(0),
            receives: AtomicU64::new(0),
            wire_bytes: AtomicU64::new(0),
            wire_bytes_full: AtomicU64::new(0),
            blocked_ns: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            channels: Mutex::new(BTreeMap::new()),
            events: Mutex::new(Ring::new(ring_capacity)),
            epoch,
        }
    }

    /// Adds one channel observation: `messages` is 1 only on the send side
    /// so channel message counts stay counted-once while bytes are counted
    /// at both endpoints (the aggregate convention).
    fn record_channel(&self, key: (usize, usize), messages: u64, bytes: u64, bytes_full: u64) {
        let mut map = self.channels.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = map.entry(key).or_insert((0, 0, 0));
        entry.0 += messages;
        entry.1 += bytes;
        entry.2 += bytes_full;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, kind: ObsEventKind) {
        let event = ObsEvent {
            at_ns: self.now_ns(),
            kind,
        };
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    /// Records a completed send and its acknowledgement round-trip.
    /// `wire_bytes` is what actually moved (delta-encoded where the caller
    /// uses deltas); `wire_bytes_full` is the full-fixed-width-vector price
    /// of the same rendezvous, accumulated as the savings baseline.
    pub fn record_send(
        &self,
        to: usize,
        wire_bytes: u64,
        wire_bytes_full: u64,
        ack_latency_ns: u64,
    ) {
        self.sends.fetch_add(1, Ordering::Relaxed);
        self.wire_bytes.fetch_add(wire_bytes, Ordering::Relaxed);
        self.wire_bytes_full
            .fetch_add(wire_bytes_full, Ordering::Relaxed);
        self.record_channel((self.id, to), 1, wire_bytes, wire_bytes_full);
        self.push(ObsEventKind::Send {
            to,
            wire_bytes,
            ack_latency_ns,
        });
    }

    /// Records a completed receive and how long the process blocked for it
    /// (`wire_bytes` / `wire_bytes_full` as for
    /// [`ProcessRecorder::record_send`]).
    pub fn record_receive(
        &self,
        from: usize,
        wire_bytes: u64,
        wire_bytes_full: u64,
        blocked_ns: u64,
    ) {
        self.receives.fetch_add(1, Ordering::Relaxed);
        self.wire_bytes.fetch_add(wire_bytes, Ordering::Relaxed);
        self.wire_bytes_full
            .fetch_add(wire_bytes_full, Ordering::Relaxed);
        self.record_channel((from, self.id), 0, wire_bytes, wire_bytes_full);
        self.blocked_ns.fetch_add(blocked_ns, Ordering::Relaxed);
        self.push(ObsEventKind::Receive {
            from,
            wire_bytes,
            blocked_ns,
        });
    }

    /// Adds time spent blocked outside a completed receive (e.g. waiting for
    /// an ack, or blocked on a send that was aborted).
    pub fn record_blocked(&self, blocked_ns: u64) {
        self.blocked_ns.fetch_add(blocked_ns, Ordering::Relaxed);
    }

    /// Records how long a parked rendezvous wait took to resume after its
    /// condition became true (the matcher's wakeup latency). Only sampled
    /// when the thread actually parked; an already-satisfied condition does
    /// not produce a sample.
    pub fn record_wakeup(&self, latency_ns: u64) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        self.push(ObsEventKind::Wakeup { latency_ns });
    }

    /// Records one full-vector resync frame retransmitted after a detected
    /// delta-stream desynchronisation (counted at the sender, where the
    /// frame is actually re-encoded).
    pub fn record_resync(&self) {
        self.resyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fault-injector action firing on this process (a crash,
    /// delay, or armed desync).
    pub fn record_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Messages sent so far.
    pub fn sends(&self) -> u64 {
        self.sends.load(Ordering::Relaxed)
    }

    /// Messages received so far.
    pub fn receives(&self) -> u64 {
        self.receives.load(Ordering::Relaxed)
    }

    /// Recent events, oldest retained first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_order()
    }
}

/// Event recorder for one run: one [`ProcessRecorder`] per process.
///
/// Create it before spawning process threads, hand each thread
/// [`Recorder::process`] for its own id, and call [`Recorder::finish`] after
/// the run to aggregate a [`RunStats`].
#[derive(Debug)]
pub struct Recorder {
    processes: Vec<ProcessRecorder>,
}

impl Recorder {
    /// A recorder for `process_count` processes, each keeping at most
    /// `ring_capacity` recent events.
    pub fn new(process_count: usize, ring_capacity: usize) -> Self {
        let epoch = Instant::now();
        Recorder {
            processes: (0..process_count)
                .map(|id| ProcessRecorder::new(id, ring_capacity, epoch))
                .collect(),
        }
    }

    /// Number of processes being recorded.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// The sink for one process.
    ///
    /// # Panics
    /// If `id` is out of range.
    pub fn process(&self, id: usize) -> &ProcessRecorder {
        &self.processes[id]
    }

    /// Aggregates everything recorded so far into a [`RunStats`].
    ///
    /// `max_vector_component` is supplied by the caller because vector
    /// contents live in the runtime's clocks, not in this crate.
    ///
    /// Ack-latency percentiles are computed over the send events still held
    /// in the ring buffers; if rings overflowed, the sample is the most
    /// recent events and [`RunStats::latency_sample_dropped`] is nonzero.
    pub fn finish(&self, max_vector_component: u64) -> RunStats {
        let mut per_process = Vec::with_capacity(self.processes.len());
        let mut latencies: Vec<u64> = Vec::new();
        let mut wakeup_latencies: Vec<u64> = Vec::new();
        let mut wakeups = 0u64;
        let mut resync_frames = 0u64;
        let mut faults_injected = 0u64;
        let mut dropped = 0usize;
        let mut channels = ChannelTotals::new();
        for (id, p) in self.processes.iter().enumerate() {
            per_process.push(ProcessStats {
                process: id,
                sends: p.sends.load(Ordering::Relaxed),
                receives: p.receives.load(Ordering::Relaxed),
                wire_bytes: p.wire_bytes.load(Ordering::Relaxed),
                wire_bytes_full: p.wire_bytes_full.load(Ordering::Relaxed),
                blocked_ns: p.blocked_ns.load(Ordering::Relaxed),
            });
            wakeups += p.wakeups.load(Ordering::Relaxed);
            resync_frames += p.resyncs.load(Ordering::Relaxed);
            faults_injected += p.faults.load(Ordering::Relaxed);
            for (key, (msgs, bytes, bytes_full)) in p
                .channels
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                let entry = channels.entry(*key).or_insert((0, 0, 0));
                entry.0 += msgs;
                entry.1 += bytes;
                entry.2 += bytes_full;
            }
            let ring = p.events.lock().unwrap_or_else(PoisonError::into_inner);
            dropped += ring.dropped();
            for event in ring.in_order() {
                match event.kind {
                    ObsEventKind::Send { ack_latency_ns, .. } => latencies.push(ack_latency_ns),
                    ObsEventKind::Wakeup { latency_ns } => wakeup_latencies.push(latency_ns),
                    ObsEventKind::Receive { .. } => {}
                }
            }
        }
        latencies.sort_unstable();
        wakeup_latencies.sort_unstable();
        let per_channel: Vec<ChannelStats> = channels
            .into_iter()
            .map(
                |((from, to), (messages, wire_bytes, wire_bytes_full))| ChannelStats {
                    from,
                    to,
                    messages,
                    wire_bytes,
                    wire_bytes_full,
                    wire_savings_ratio: savings_ratio(wire_bytes, wire_bytes_full),
                },
            )
            .collect();
        let total_wire_bytes: u64 = per_process.iter().map(|p| p.wire_bytes).sum();
        let total_wire_bytes_full: u64 = per_process.iter().map(|p| p.wire_bytes_full).sum();
        // Nearest-rank percentile; total on empty samples (returns 0), so a
        // run with zero rendezvous aggregates cleanly.
        let pick = nearest_rank_percentile;
        RunStats {
            process_count: self.processes.len(),
            messages: per_process.iter().map(|p| p.sends).sum(),
            receives: per_process.iter().map(|p| p.receives).sum(),
            total_wire_bytes,
            total_wire_bytes_full,
            wire_savings_ratio: savings_ratio(total_wire_bytes, total_wire_bytes_full),
            total_blocked_ns: per_process.iter().map(|p| p.blocked_ns).sum(),
            ack_latency_p50_ns: pick(&latencies, 50, 100),
            ack_latency_p99_ns: pick(&latencies, 99, 100),
            ack_latency_max_ns: latencies.last().copied().unwrap_or(0),
            wakeups,
            wakeup_p50_ns: pick(&wakeup_latencies, 50, 100),
            wakeup_p99_ns: pick(&wakeup_latencies, 99, 100),
            wakeup_max_ns: wakeup_latencies.last().copied().unwrap_or(0),
            latency_sample_dropped: dropped as u64,
            max_vector_component,
            resync_frames,
            faults_injected,
            per_process,
            per_channel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_percentiles_aggregate() {
        let rec = Recorder::new(2, 16);
        for i in 0..10u64 {
            rec.process(0).record_send(1, 24, 32, (i + 1) * 100);
            rec.process(1).record_receive(0, 24, 32, 50);
        }
        let stats = rec.finish(7);
        assert_eq!(stats.messages, 10);
        assert_eq!(stats.receives, 10);
        assert_eq!(stats.total_wire_bytes, 24 * 20);
        assert_eq!(stats.total_wire_bytes_full, 32 * 20);
        assert_eq!(stats.per_channel.len(), 1);
        let ch = &stats.per_channel[0];
        assert_eq!((ch.from, ch.to), (0, 1));
        assert_eq!(ch.messages, 10);
        assert_eq!(ch.wire_bytes, 24 * 20);
        assert_eq!(ch.wire_bytes_full, 32 * 20);
        assert!((ch.wire_savings_ratio - 0.75).abs() < 1e-12);
        assert!((stats.wire_savings_ratio - 0.75).abs() < 1e-12);
        assert_eq!(stats.ack_latency_p50_ns, 500);
        assert_eq!(stats.ack_latency_p99_ns, 1000);
        assert_eq!(stats.ack_latency_max_ns, 1000);
        assert_eq!(stats.max_vector_component, 7);
        assert_eq!(stats.total_blocked_ns, 10 * 50);
        assert_eq!(stats.latency_sample_dropped, 0);
        assert_eq!(stats.per_process[0].sends, 10);
        assert_eq!(stats.per_process[1].receives, 10);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let rec = Recorder::new(1, 4);
        for i in 0..10u64 {
            rec.process(0).record_send(0, 8, 8, i);
        }
        let events = rec.process(0).events();
        assert_eq!(events.len(), 4);
        let latencies: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                ObsEventKind::Send { ack_latency_ns, .. } => ack_latency_ns,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(latencies, vec![6, 7, 8, 9]);
        let stats = rec.finish(0);
        assert_eq!(stats.latency_sample_dropped, 6);
        assert_eq!(stats.messages, 10); // counters are exact even when the ring drops
    }

    #[test]
    fn zero_capacity_ring_still_counts() {
        let rec = Recorder::new(1, 0);
        rec.process(0).record_send(0, 8, 8, 42);
        assert!(rec.process(0).events().is_empty());
        let stats = rec.finish(1);
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.ack_latency_p50_ns, 0); // no sample retained
    }

    #[test]
    fn empty_run_is_all_zeroes() {
        let stats = Recorder::new(3, 8).finish(0);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.ack_latency_p99_ns, 0);
        assert_eq!(stats.per_process.len(), 3);
        assert_eq!(stats.resync_frames, 0);
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn resync_and_fault_counters_aggregate() {
        let rec = Recorder::new(2, 8);
        rec.process(0).record_resync();
        rec.process(0).record_resync();
        rec.process(1).record_fault();
        let stats = rec.finish(0);
        assert_eq!(stats.resync_frames, 2);
        assert_eq!(stats.faults_injected, 1);
    }
}
