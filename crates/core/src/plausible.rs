//! Plausible clocks (Torres-Rojas & Ahamad), the fixed-size baseline the
//! paper's related-work section contrasts against.
//!
//! A plausible clock keeps a **constant number of entries** `R` regardless
//! of the process count, mapping process `p` to entry `p mod R` (the
//! "R-entries vector" scheme). It is *consistent* — `m1 ↦ m2 ⇒ v(m1) <
//! v(m2)` — but not *characterizing*: when distinct processes share an
//! entry, concurrent messages can appear ordered. Its accuracy degrades as
//! `N/R` grows, whereas the paper's edge-decomposition clocks are exact at
//! dimension `d` (often constant too). The `table_plausible` experiment
//! quantifies that trade.

use synctime_trace::{MessageId, Oracle, SyncComputation};

use crate::{MessageTimestamps, VectorOrder, VectorTime};

/// Stamps every message with an `R`-entry plausible clock.
///
/// On a rendezvous of `P_i` and `P_j`, both adopt the component-wise max
/// and the entries `i mod R` and `j mod R` are incremented (once if they
/// coincide).
///
/// # Panics
///
/// Panics if `entries == 0`.
pub fn stamp_messages(computation: &SyncComputation, entries: usize) -> MessageTimestamps {
    assert!(entries > 0, "a plausible clock needs at least one entry");
    let mapping: Vec<usize> = (0..computation.process_count())
        .map(|p| p % entries)
        .collect();
    stamp_messages_with_mapping(computation, entries, &mapping)
}

/// Plausible clocks with an arbitrary process→entry `mapping` — the
/// general form behind both the mod-`R` scheme ([`stamp_messages`]) and
/// *cluster clocks* in the spirit of Ward & Taylor's hierarchical
/// timestamps: map each process to its cluster and events inside a cluster
/// share an entry. Topology-aware mappings (e.g. one cluster per server
/// star) lose far less concurrency than blind mod-`R` at the same size,
/// which the `table_plausible` experiment quantifies.
///
/// Consistency (`m1 ↦ m2 ⇒ v(m1) < v(m2)`) holds for every mapping; only
/// concurrency detection degrades.
///
/// # Panics
///
/// Panics if `entries == 0`, `mapping.len()` differs from the process
/// count, or a mapping entry is out of range.
pub fn stamp_messages_with_mapping(
    computation: &SyncComputation,
    entries: usize,
    mapping: &[usize],
) -> MessageTimestamps {
    assert!(entries > 0, "a plausible clock needs at least one entry");
    assert_eq!(
        mapping.len(),
        computation.process_count(),
        "one mapping entry per process"
    );
    assert!(
        mapping.iter().all(|&e| e < entries),
        "mapping entries must be below the clock size"
    );
    let n = computation.process_count();
    let mut clocks: Vec<VectorTime> = vec![VectorTime::zero(entries); n];
    let len = computation.message_count();
    let mut rows = Vec::with_capacity(len * entries);
    for m in computation.messages() {
        let mut v = clocks[m.sender].clone();
        v.merge_max(&clocks[m.receiver])
            .expect("all plausible clocks share one entry count");
        let (ei, ej) = (mapping[m.sender], mapping[m.receiver]);
        v.increment(ei);
        if ej != ei {
            v.increment(ej);
        }
        rows.extend_from_slice(v.as_slice());
        clocks[m.sender] = v.clone();
        clocks[m.receiver] = v;
    }
    MessageTimestamps::from_rows(entries, len, rows)
}

/// Accuracy of a plausible-clock stamping against the ground truth: the
/// rates of correct verdicts over ordered and concurrent pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Ordered pairs (either direction) whose order the clock reported
    /// correctly, over all ordered pairs. Consistency predicts 1.0.
    pub ordered_recall: f64,
    /// Concurrent pairs the clock correctly left unordered, over all
    /// concurrent pairs. This is what shrinking `R` sacrifices.
    pub concurrency_recall: f64,
    /// Number of ordered pairs examined.
    pub ordered_pairs: usize,
    /// Number of concurrent pairs examined.
    pub concurrent_pairs: usize,
}

/// Measures [`Accuracy`] of `stamps` against `oracle` over every unordered
/// message pair. `O(|M|²)`.
pub fn accuracy(stamps: &MessageTimestamps, oracle: &Oracle) -> Accuracy {
    let n = stamps.len();
    let mut ordered_pairs = 0usize;
    let mut ordered_ok = 0usize;
    let mut concurrent_pairs = 0usize;
    let mut concurrent_ok = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (MessageId(i), MessageId(j));
            let cmp = stamps.order(a, b);
            if oracle.synchronously_precedes(a, b) {
                ordered_pairs += 1;
                ordered_ok += usize::from(cmp == VectorOrder::Less);
            } else if oracle.synchronously_precedes(b, a) {
                ordered_pairs += 1;
                ordered_ok += usize::from(cmp == VectorOrder::Greater);
            } else {
                concurrent_pairs += 1;
                concurrent_ok +=
                    usize::from(matches!(cmp, VectorOrder::Concurrent | VectorOrder::Equal));
            }
        }
    }
    Accuracy {
        ordered_recall: if ordered_pairs == 0 {
            1.0
        } else {
            ordered_ok as f64 / ordered_pairs as f64
        },
        concurrency_recall: if concurrent_pairs == 0 {
            1.0
        } else {
            concurrent_ok as f64 / concurrent_pairs as f64
        },
        ordered_pairs,
        concurrent_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use synctime_trace::Builder;

    fn random_comp(n: usize, msgs: usize, seed: u64) -> SyncComputation {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Builder::new(n);
        for _ in 0..msgs {
            let s = rng.gen_range(0..n);
            let mut r = rng.gen_range(0..n);
            while r == s {
                r = rng.gen_range(0..n);
            }
            b.message(s, r).unwrap();
        }
        b.build()
    }

    #[test]
    fn full_size_plausible_is_exact() {
        // R = N degenerates to the FM construction: exact.
        let comp = random_comp(6, 40, 1);
        let stamps = stamp_messages(&comp, 6);
        let oracle = Oracle::new(&comp);
        assert!(stamps.encodes(&oracle));
        let acc = accuracy(&stamps, &oracle);
        assert_eq!(acc.ordered_recall, 1.0);
        assert_eq!(acc.concurrency_recall, 1.0);
    }

    #[test]
    fn consistency_holds_at_any_size() {
        // Ordered pairs are always reported ordered, even at R = 1.
        let comp = random_comp(8, 60, 2);
        let oracle = Oracle::new(&comp);
        for r in [1, 2, 3, 5] {
            let acc = accuracy(&stamp_messages(&comp, r), &oracle);
            assert_eq!(acc.ordered_recall, 1.0, "R={r}");
        }
    }

    #[test]
    fn small_clocks_lose_concurrency() {
        // With many processes folded into R = 1 entry, every pair looks
        // ordered: concurrency recall collapses (yet consistency holds).
        let comp = random_comp(10, 80, 3);
        let oracle = Oracle::new(&comp);
        let tiny = accuracy(&stamp_messages(&comp, 1), &oracle);
        let full = accuracy(&stamp_messages(&comp, 10), &oracle);
        assert!(tiny.concurrency_recall < full.concurrency_recall);
        assert_eq!(full.concurrency_recall, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        stamp_messages(&Builder::new(2).build(), 0);
    }

    #[test]
    fn cluster_mapping_beats_blind_mod_r() {
        // A 2-server client-server workload: cluster each client with the
        // server it mostly talks to. At size 2, the cluster mapping keeps
        // far more concurrency than p mod 2.
        let mut b = Builder::new(6); // servers 0,1; clients 2,3 (-> 0), 4,5 (-> 1)
        for round in 0..8 {
            let c0 = 2 + (round % 2);
            let c1 = 4 + (round % 2);
            b.message(c0, 0).unwrap();
            b.message(0, c0).unwrap();
            b.message(c1, 1).unwrap();
            b.message(1, c1).unwrap();
        }
        let comp = b.build();
        let oracle = Oracle::new(&comp);
        // Cluster mapping: {0,2,3} -> 0, {1,4,5} -> 1.
        let clustered = stamp_messages_with_mapping(&comp, 2, &[0, 1, 0, 0, 1, 1]);
        let blind = stamp_messages(&comp, 2);
        let acc_c = accuracy(&clustered, &oracle);
        let acc_b = accuracy(&blind, &oracle);
        assert_eq!(acc_c.ordered_recall, 1.0);
        assert_eq!(acc_b.ordered_recall, 1.0);
        assert!(
            acc_c.concurrency_recall > acc_b.concurrency_recall,
            "clustered {} <= blind {}",
            acc_c.concurrency_recall,
            acc_b.concurrency_recall
        );
        // In fact, clustering by the two independent halves is exact here.
        assert_eq!(acc_c.concurrency_recall, 1.0);
    }

    #[test]
    #[should_panic(expected = "one mapping entry per process")]
    fn mapping_arity_checked() {
        stamp_messages_with_mapping(&Builder::new(3).build(), 2, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "below the clock size")]
    fn mapping_range_checked() {
        stamp_messages_with_mapping(&Builder::new(2).build(), 2, &[0, 5]);
    }
}
