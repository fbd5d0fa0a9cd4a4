//! Aggregated run summaries, exportable as JSON.

use serde::{Deserialize, Serialize};

/// Counters for a single process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessStats {
    /// Process id.
    pub process: usize,
    /// Messages this process sent.
    pub sends: u64,
    /// Messages this process received.
    pub receives: u64,
    /// Wire bytes this process put on or took off its channels (actual
    /// encoded bytes — per-channel deltas where the runtime uses them).
    pub wire_bytes: u64,
    /// What the same traffic would have cost with full fixed-width vectors
    /// on every message and acknowledgement — the before-deltas baseline.
    pub wire_bytes_full: u64,
    /// Total nanoseconds spent blocked in rendezvous operations.
    pub blocked_ns: u64,
}

/// Wire accounting for one directed channel.
///
/// Bytes follow the same convention as the aggregate counters: each
/// endpoint adds what it observed on the channel, so a channel both of
/// whose endpoints ran in this recorder counts every frame twice (once per
/// endpoint), exactly like [`RunStats::total_wire_bytes`]. `messages` is
/// counted once, at the sender.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Sending endpoint of the directed channel.
    pub from: usize,
    /// Receiving endpoint of the directed channel.
    pub to: usize,
    /// Messages sent on this channel (counted at the sender only).
    pub messages: u64,
    /// Actual frame bytes observed on this channel (offer + ack + resync
    /// frames, including frame headers), summed over both endpoints'
    /// observations.
    pub wire_bytes: u64,
    /// The same traffic priced at full fixed-width vectors.
    pub wire_bytes_full: u64,
    /// `wire_bytes / wire_bytes_full` for this channel (`1.0` when no
    /// bytes moved) — the per-channel delta-encoding savings.
    pub wire_savings_ratio: f64,
}

/// `actual / full`, reporting "no savings" (`1.0`) instead of dividing by
/// zero when nothing moved.
pub(crate) fn savings_ratio(actual: u64, full: u64) -> f64 {
    if full == 0 {
        return 1.0;
    }
    actual as f64 / full as f64
}

/// Summary of one timestamped run.
///
/// Produced by [`Recorder::finish`](crate::Recorder::finish); serialised to
/// JSON by `synctime run --stats` and the bench tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of processes in the run.
    pub process_count: usize,
    /// Total messages exchanged (counted once, at the sender).
    pub messages: u64,
    /// Total receives completed (equals `messages` in a clean run).
    pub receives: u64,
    /// Total bytes on the wire, counted at both endpoints: payload framing
    /// plus the piggybacked vector encoding on every message and its
    /// acknowledgement (the *actual* encoding — per-channel
    /// Singhal–Kshemkalyani deltas where the runtime uses them).
    pub total_wire_bytes: u64,
    /// The same traffic priced at full fixed-width vectors (8 bytes per
    /// component, both directions): the before-deltas baseline, so
    /// `total_wire_bytes / total_wire_bytes_full` is the on-wire savings of
    /// delta encoding.
    pub total_wire_bytes_full: u64,
    /// Total nanoseconds processes spent blocked in rendezvous operations.
    pub total_blocked_ns: u64,
    /// Median acknowledgement round-trip latency, in nanoseconds: from
    /// the receiver's take of the offer to the sender's completion (over
    /// TCP, from the offer's write). A send handed against the receiver's
    /// posted acknowledgement never waits for a take: its sample runs
    /// from its offer to its completion.
    pub ack_latency_p50_ns: u64,
    /// 99th-percentile acknowledgement round-trip latency, in nanoseconds.
    pub ack_latency_p99_ns: u64,
    /// Worst observed acknowledgement round-trip latency, in nanoseconds.
    pub ack_latency_max_ns: u64,
    /// Times a parked rendezvous wait actually resumed after a peer's
    /// notification. A handed send never parks, so a rendezvous whose
    /// receiver was parked first costs one wakeup, not two.
    pub wakeups: u64,
    /// Median rendezvous wakeup latency — nanoseconds between a peer making
    /// a parked thread's condition true and the thread observing it. Over
    /// TCP the parked thread reads the frame itself, so the sample starts
    /// at that read and counts no thread handoff.
    pub wakeup_p50_ns: u64,
    /// 99th-percentile rendezvous wakeup latency, in nanoseconds.
    pub wakeup_p99_ns: u64,
    /// Worst observed rendezvous wakeup latency, in nanoseconds.
    pub wakeup_max_ns: u64,
    /// Send events that fell out of the bounded rings before aggregation;
    /// when nonzero, percentiles cover only the most recent sends (counters
    /// remain exact).
    pub latency_sample_dropped: u64,
    /// Largest component in any process's final vector — the paper's claim
    /// is that components track edge-group activity, so this bounds the
    /// per-component growth for the run.
    pub max_vector_component: u64,
    /// Full-vector resync frames retransmitted after a detected
    /// delta-stream desynchronisation (zero in a fault-free run: the
    /// per-channel FIFO slots keep the streams in lock-step).
    pub resync_frames: u64,
    /// Fault-injector actions that actually fired during the run (crashes,
    /// delays, armed desyncs). Zero when no injector is configured.
    pub faults_injected: u64,
    /// `total_wire_bytes / total_wire_bytes_full` (`1.0` when no bytes
    /// moved): the aggregate on-wire savings of delta encoding.
    pub wire_savings_ratio: f64,
    /// Per-process breakdown.
    pub per_process: Vec<ProcessStats>,
    /// Per-directed-channel wire accounting, sorted by `(from, to)`.
    pub per_channel: Vec<ChannelStats>,
}

impl RunStats {
    /// Pretty-printed JSON rendering of the summary.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunStats serialises infallibly")
    }

    /// Parses a summary previously produced by [`RunStats::to_json`].
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Merges per-node summaries of one distributed run into a run-wide
    /// summary (the `synctime launch` path: each OS process records only
    /// its own side of every rendezvous and reports a [`RunStats`] sized
    /// for the whole run).
    ///
    /// Counters, per-process rows, and per-channel rows sum exactly; the
    /// savings ratios are recomputed from the summed byte counts;
    /// `max_vector_component` is the maximum over the parts. Latency
    /// *percentiles* cannot be merged from summaries alone, so each
    /// percentile field conservatively takes the maximum across the parts
    /// — an upper bound, not a true run-wide percentile.
    pub fn merged(parts: &[RunStats]) -> RunStats {
        let process_count = parts.iter().map(|p| p.process_count).max().unwrap_or(0);
        let mut per_process: Vec<ProcessStats> = (0..process_count)
            .map(|process| ProcessStats {
                process,
                sends: 0,
                receives: 0,
                wire_bytes: 0,
                wire_bytes_full: 0,
                blocked_ns: 0,
            })
            .collect();
        let mut channels: std::collections::BTreeMap<(usize, usize), ChannelStats> =
            std::collections::BTreeMap::new();
        for part in parts {
            for row in &part.per_process {
                if let Some(agg) = per_process.get_mut(row.process) {
                    agg.sends += row.sends;
                    agg.receives += row.receives;
                    agg.wire_bytes += row.wire_bytes;
                    agg.wire_bytes_full += row.wire_bytes_full;
                    agg.blocked_ns += row.blocked_ns;
                }
            }
            for row in &part.per_channel {
                let agg = channels
                    .entry((row.from, row.to))
                    .or_insert_with(|| ChannelStats {
                        from: row.from,
                        to: row.to,
                        messages: 0,
                        wire_bytes: 0,
                        wire_bytes_full: 0,
                        wire_savings_ratio: 1.0,
                    });
                agg.messages += row.messages;
                agg.wire_bytes += row.wire_bytes;
                agg.wire_bytes_full += row.wire_bytes_full;
            }
        }
        let mut per_channel: Vec<ChannelStats> = channels.into_values().collect();
        for row in &mut per_channel {
            row.wire_savings_ratio = savings_ratio(row.wire_bytes, row.wire_bytes_full);
        }
        let sum = |f: fn(&RunStats) -> u64| parts.iter().map(f).sum::<u64>();
        let max = |f: fn(&RunStats) -> u64| parts.iter().map(f).max().unwrap_or(0);
        let total_wire_bytes = sum(|p| p.total_wire_bytes);
        let total_wire_bytes_full = sum(|p| p.total_wire_bytes_full);
        RunStats {
            process_count,
            messages: sum(|p| p.messages),
            receives: sum(|p| p.receives),
            total_wire_bytes,
            total_wire_bytes_full,
            total_blocked_ns: sum(|p| p.total_blocked_ns),
            ack_latency_p50_ns: max(|p| p.ack_latency_p50_ns),
            ack_latency_p99_ns: max(|p| p.ack_latency_p99_ns),
            ack_latency_max_ns: max(|p| p.ack_latency_max_ns),
            wakeups: sum(|p| p.wakeups),
            wakeup_p50_ns: max(|p| p.wakeup_p50_ns),
            wakeup_p99_ns: max(|p| p.wakeup_p99_ns),
            wakeup_max_ns: max(|p| p.wakeup_max_ns),
            latency_sample_dropped: sum(|p| p.latency_sample_dropped),
            max_vector_component: max(|p| p.max_vector_component),
            resync_frames: sum(|p| p.resync_frames),
            faults_injected: sum(|p| p.faults_injected),
            wire_savings_ratio: savings_ratio(total_wire_bytes, total_wire_bytes_full),
            per_process,
            per_channel,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted sample: the smallest
/// element whose rank is at least `q_num / q_den` of the sample size.
///
/// A run with zero rendezvous produces an empty sample; the answer is then
/// `0`, not a panic or an out-of-bounds read — every percentile field of
/// [`RunStats`] goes through this helper, so stats of empty runs are all
/// zeroes.
///
/// # Panics
///
/// Panics if `q_den` is zero.
pub fn nearest_rank_percentile(sorted: &[u64], q_num: usize, q_den: usize) -> u64 {
    assert!(q_den > 0, "percentile denominator must be positive");
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * q_num)
        .div_ceil(q_den)
        .max(1)
        .min(sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            process_count: 2,
            messages: 5,
            receives: 5,
            total_wire_bytes: 240,
            total_wire_bytes_full: 320,
            total_blocked_ns: 9000,
            ack_latency_p50_ns: 400,
            ack_latency_p99_ns: 900,
            ack_latency_max_ns: 950,
            wakeups: 4,
            wakeup_p50_ns: 1200,
            wakeup_p99_ns: 2500,
            wakeup_max_ns: 2600,
            latency_sample_dropped: 0,
            max_vector_component: 5,
            resync_frames: 0,
            faults_injected: 0,
            wire_savings_ratio: 0.75,
            per_process: vec![
                ProcessStats {
                    process: 0,
                    sends: 5,
                    receives: 0,
                    wire_bytes: 120,
                    wire_bytes_full: 160,
                    blocked_ns: 4000,
                },
                ProcessStats {
                    process: 1,
                    sends: 0,
                    receives: 5,
                    wire_bytes: 120,
                    wire_bytes_full: 160,
                    blocked_ns: 5000,
                },
            ],
            per_channel: vec![ChannelStats {
                from: 0,
                to: 1,
                messages: 5,
                wire_bytes: 240,
                wire_bytes_full: 320,
                wire_savings_ratio: 0.75,
            }],
        }
    }

    #[test]
    fn json_roundtrip() {
        let stats = sample();
        let json = stats.to_json();
        assert!(json.contains("\"ack_latency_p99_ns\": 900"));
        assert!(json.contains("\"total_wire_bytes_full\": 320"));
        assert!(json.contains("\"per_channel\""));
        assert!(json.contains("\"wire_savings_ratio\": 0.75"));
        let back = RunStats::from_json(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn savings_ratio_handles_empty_runs() {
        assert!((savings_ratio(240, 320) - 0.75).abs() < 1e-9);
        assert_eq!(savings_ratio(0, 0), 1.0);
    }

    #[test]
    fn merged_sums_counters_and_recomputes_ratios() {
        // Two nodes of one distributed run: node 0 saw the send side of
        // channel (0, 1), node 1 the receive side.
        let mut a = sample();
        a.per_process[1] = ProcessStats {
            process: 1,
            sends: 0,
            receives: 0,
            wire_bytes: 0,
            wire_bytes_full: 0,
            blocked_ns: 0,
        };
        let mut b = sample();
        b.messages = 0;
        b.per_process[0] = ProcessStats {
            process: 0,
            sends: 0,
            receives: 0,
            wire_bytes: 0,
            wire_bytes_full: 0,
            blocked_ns: 0,
        };
        b.per_channel[0].messages = 0; // messages count at the sender only
        let merged = RunStats::merged(&[a.clone(), b]);
        assert_eq!(merged.process_count, 2);
        assert_eq!(merged.messages, 5);
        assert_eq!(merged.receives, 10);
        assert_eq!(merged.total_wire_bytes, 480);
        assert_eq!(merged.total_wire_bytes_full, 640);
        assert!((merged.wire_savings_ratio - 0.75).abs() < 1e-9);
        assert_eq!(merged.per_channel.len(), 1);
        assert_eq!(merged.per_channel[0].messages, 5);
        assert_eq!(merged.per_channel[0].wire_bytes, 480);
        // Percentiles merge as maxima (documented upper bound).
        assert_eq!(merged.ack_latency_p99_ns, 900);
        // Empty merge is all zeroes, ratio 1.0.
        let empty = RunStats::merged(&[]);
        assert_eq!(empty.messages, 0);
        assert_eq!(empty.wire_savings_ratio, 1.0);
    }

    #[test]
    fn percentiles_of_zero_rendezvous_runs_are_zero() {
        // A run that exchanged no messages has an empty latency sample;
        // every percentile must come back 0 rather than panicking or
        // reading out of bounds.
        for (q_num, q_den) in [(0, 100), (50, 100), (99, 100), (100, 100)] {
            assert_eq!(nearest_rank_percentile(&[], q_num, q_den), 0);
        }
    }

    #[test]
    fn nearest_rank_picks_expected_elements() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank_percentile(&sorted, 50, 100), 50);
        assert_eq!(nearest_rank_percentile(&sorted, 99, 100), 99);
        assert_eq!(nearest_rank_percentile(&sorted, 100, 100), 100);
        // Tiny samples: the max(1) clamp keeps the 0th percentile total.
        assert_eq!(nearest_rank_percentile(&[7], 0, 100), 7);
        assert_eq!(nearest_rank_percentile(&[7, 9], 50, 100), 7);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn percentile_rejects_zero_denominator() {
        nearest_rank_percentile(&[1], 50, 0);
    }
}
