//! An online monitoring service — the "distributed monitoring systems"
//! application of the paper's introduction (POET, XPVM, Object-Level
//! Trace).
//!
//! A [`Monitor`] ingests timestamped message notifications from the system
//! under observation, **in any arrival order** (observation channels are
//! not causally ordered), and answers order queries incrementally:
//! precedence, concurrency, the current frontier (maximal messages so
//! far), causal history sizes, and a running count of concurrent pairs.
//! Everything is derived purely from the vector timestamps — the monitor
//! never sees the topology or the schedule, which is exactly the point of
//! encoding timestamps (Theorem 4).

use std::collections::BTreeMap;

use synctime_core::{VectorOrder, VectorTime};
use synctime_trace::MessageId;

/// One observed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// The message's id in the observed computation.
    pub message: MessageId,
    /// Its vector timestamp (any Theorem 4 encoding; one fixed dimension
    /// per monitor).
    pub stamp: VectorTime,
}

/// Errors from feeding a monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MonitorError {
    /// A stamp's dimension differs from the monitor's.
    DimensionMismatch {
        /// The monitor's dimension.
        expected: usize,
        /// The observation's dimension.
        got: usize,
    },
    /// The same message id was observed twice with different stamps.
    ConflictingObservation {
        /// The offending message.
        message: MessageId,
    },
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "stamp dimension {got} differs from monitor dimension {expected}"
                )
            }
            MonitorError::ConflictingObservation { message } => {
                write!(f, "message {message} observed twice with different stamps")
            }
        }
    }
}

impl std::error::Error for MonitorError {}

/// The incremental observation store. All queries are timestamp
/// comparisons of the monitor's dimension `d`.
///
/// ```
/// use synctime_core::VectorTime;
/// use synctime_detect::monitor::{Monitor, Observation};
/// use synctime_trace::MessageId;
///
/// let mut mon = Monitor::new(2);
/// // Observations may arrive in any order.
/// mon.observe(Observation { message: MessageId(1), stamp: VectorTime::from(vec![2, 0]) })?;
/// mon.observe(Observation { message: MessageId(0), stamp: VectorTime::from(vec![1, 0]) })?;
/// assert_eq!(mon.precedes(MessageId(0), MessageId(1)), Some(true));
/// assert_eq!(mon.frontier(), vec![MessageId(1)]);
/// # Ok::<(), synctime_detect::monitor::MonitorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Monitor {
    dim: usize,
    stamps: BTreeMap<MessageId, VectorTime>,
    /// Current maximal (frontier) messages, kept incrementally.
    frontier: Vec<MessageId>,
    concurrent_pairs: u64,
}

impl Monitor {
    /// A monitor for stamps of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Monitor {
            dim,
            stamps: BTreeMap::new(),
            frontier: Vec::new(),
            concurrent_pairs: 0,
        }
    }

    /// The stamp dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of messages observed so far.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Ingests one observation. Duplicate deliveries of the same
    /// observation are idempotent.
    ///
    /// # Errors
    ///
    /// [`MonitorError::DimensionMismatch`] or
    /// [`MonitorError::ConflictingObservation`].
    pub fn observe(&mut self, obs: Observation) -> Result<(), MonitorError> {
        if obs.stamp.dim() != self.dim {
            return Err(MonitorError::DimensionMismatch {
                expected: self.dim,
                got: obs.stamp.dim(),
            });
        }
        if let Some(existing) = self.stamps.get(&obs.message) {
            if *existing != obs.stamp {
                return Err(MonitorError::ConflictingObservation {
                    message: obs.message,
                });
            }
            return Ok(()); // duplicate delivery
        }
        // Maintain the frontier and the concurrent-pair counter.
        let mut dominated = false;
        for (_, s) in self.stamps.iter() {
            if matches!(
                obs.stamp.compare(s),
                VectorOrder::Concurrent | VectorOrder::Equal
            ) {
                self.concurrent_pairs += 1;
            }
        }
        self.frontier.retain(|m| {
            let cmp = self.stamps[m].compare(&obs.stamp);
            if cmp == VectorOrder::Greater {
                dominated = true;
            }
            cmp != VectorOrder::Less
        });
        if !dominated {
            self.frontier.push(obs.message);
        }
        self.stamps.insert(obs.message, obs.stamp);
        Ok(())
    }

    /// The stamp of an observed message.
    pub fn stamp(&self, m: MessageId) -> Option<&VectorTime> {
        self.stamps.get(&m)
    }

    /// Whether `a` synchronously precedes `b` (both must be observed).
    pub fn precedes(&self, a: MessageId, b: MessageId) -> Option<bool> {
        Some(self.stamps.get(&a)?.compare(self.stamps.get(&b)?) == VectorOrder::Less)
    }

    /// Whether `a` and `b` are concurrent (both must be observed).
    pub fn concurrent(&self, a: MessageId, b: MessageId) -> Option<bool> {
        if a == b {
            return Some(false);
        }
        let cmp = self.stamps.get(&a)?.compare(self.stamps.get(&b)?);
        Some(matches!(cmp, VectorOrder::Concurrent | VectorOrder::Equal))
    }

    /// The currently maximal messages, in id order. With complete
    /// observation this is the set of messages no other message follows —
    /// a consistent "latest state" of the computation.
    pub fn frontier(&self) -> Vec<MessageId> {
        let mut f = self.frontier.clone();
        f.sort_unstable();
        f
    }

    /// The observed causal history of `m`: all observed messages strictly
    /// below it, in id order.
    pub fn history_of(&self, m: MessageId) -> Option<Vec<MessageId>> {
        let target = self.stamps.get(&m)?;
        Some(
            self.stamps
                .iter()
                .filter(|(id, s)| **id != m && s.compare(target) == VectorOrder::Less)
                .map(|(id, _)| *id)
                .collect(),
        )
    }

    /// Running count of unordered pairs among the observations — a
    /// parallelism metric a profiler would chart over time.
    pub fn concurrent_pairs(&self) -> u64 {
        self.concurrent_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use synctime_core::online::OnlineStamper;
    use synctime_graph::{decompose, topology};
    use synctime_sim::workload::random_computation;
    use synctime_trace::Oracle;

    fn observed(seed: u64) -> (Monitor, synctime_trace::SyncComputation) {
        let topo = topology::client_server(2, 4);
        let dec = decompose::best_known(&topo);
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = random_computation(&topo, 40, &mut rng);
        let stamps = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        // Deliver observations to the monitor in a SHUFFLED order.
        let mut order: Vec<usize> = (0..comp.message_count()).collect();
        order.shuffle(&mut rng);
        let mut mon = Monitor::new(dec.len());
        for i in order {
            mon.observe(Observation {
                message: MessageId(i),
                stamp: stamps.vector(MessageId(i)),
            })
            .unwrap();
        }
        (mon, comp)
    }

    #[test]
    fn queries_match_oracle_despite_out_of_order_delivery() {
        let (mon, comp) = observed(1);
        let oracle = Oracle::new(&comp);
        for i in 0..comp.message_count() {
            for j in 0..comp.message_count() {
                assert_eq!(
                    mon.precedes(MessageId(i), MessageId(j)).unwrap(),
                    oracle.synchronously_precedes(MessageId(i), MessageId(j))
                );
            }
        }
    }

    #[test]
    fn frontier_is_the_maximal_set() {
        let (mon, comp) = observed(2);
        let oracle = Oracle::new(&comp);
        let expected: Vec<MessageId> = (0..comp.message_count())
            .map(MessageId)
            .filter(|&m| {
                (0..comp.message_count()).all(|j| !oracle.synchronously_precedes(m, MessageId(j)))
            })
            .collect();
        assert_eq!(mon.frontier(), expected);
    }

    #[test]
    fn history_matches_oracle_downsets() {
        let (mon, comp) = observed(3);
        let oracle = Oracle::new(&comp);
        for i in 0..comp.message_count() {
            let hist = mon.history_of(MessageId(i)).unwrap();
            let expected: Vec<MessageId> = (0..comp.message_count())
                .map(MessageId)
                .filter(|&j| oracle.synchronously_precedes(j, MessageId(i)))
                .collect();
            assert_eq!(hist, expected, "history of m{}", i + 1);
        }
    }

    #[test]
    fn concurrent_pair_count_matches_oracle() {
        let (mon, comp) = observed(4);
        let oracle = Oracle::new(&comp);
        let mut expected = 0u64;
        for i in 0..comp.message_count() {
            for j in (i + 1)..comp.message_count() {
                expected += u64::from(oracle.concurrent(MessageId(i), MessageId(j)));
            }
        }
        assert_eq!(mon.concurrent_pairs(), expected);
    }

    #[test]
    fn duplicates_idempotent_conflicts_rejected() {
        let mut mon = Monitor::new(2);
        let obs = Observation {
            message: MessageId(0),
            stamp: VectorTime::from(vec![1, 0]),
        };
        mon.observe(obs.clone()).unwrap();
        mon.observe(obs).unwrap(); // duplicate ok
        assert_eq!(mon.len(), 1);
        let err = mon
            .observe(Observation {
                message: MessageId(0),
                stamp: VectorTime::from(vec![2, 0]),
            })
            .unwrap_err();
        assert!(matches!(err, MonitorError::ConflictingObservation { .. }));
        let err = mon
            .observe(Observation {
                message: MessageId(1),
                stamp: VectorTime::from(vec![1]),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            MonitorError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn unknown_messages_yield_none() {
        let mon = Monitor::new(1);
        assert!(mon.is_empty());
        assert_eq!(mon.precedes(MessageId(0), MessageId(1)), None);
        assert_eq!(mon.concurrent(MessageId(0), MessageId(1)), None);
        assert_eq!(mon.history_of(MessageId(0)), None);
        assert_eq!(mon.stamp(MessageId(0)), None);
    }
}
