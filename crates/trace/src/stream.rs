//! The *sparse* message poset of a computation, built in one pass over
//! its messages without a closure.
//!
//! [`SparsePosetAccumulator`] folds messages one at a time, keeping only
//! O(N) live state (the last message seen per process) while emitting the
//! generating edges and per-sender chains that [`SparsePoset`] consumes;
//! [`sparse_message_poset`] runs it over [`SyncComputation::messages`].

use synctime_poset::{PosetError, SparsePoset};

use crate::computation::{ProcessId, SyncComputation};
use crate::TraceError;

/// Folds messages, in rendezvous order, into the inputs of
/// [`SparsePoset::from_edges_and_chains`]: generating edges (per-process
/// consecutive message pairs) and the per-sender chain partition.
///
/// Live state is O(N) — the id of the last message seen at each process —
/// plus the O(M) output being accumulated; no event history, no endpoint
/// table, no closure.
#[derive(Debug, Clone)]
pub struct SparsePosetAccumulator {
    processes: usize,
    /// Last message id that touched each process, if any.
    last: Vec<Option<usize>>,
    /// Per-sender chains: message ids sent by each process, ascending.
    chains: Vec<Vec<usize>>,
    /// Per-process consecutive message pairs.
    edges: Vec<(usize, usize)>,
    count: usize,
}

impl SparsePosetAccumulator {
    /// An empty accumulator for `processes` processes.
    pub fn new(processes: usize) -> Self {
        SparsePosetAccumulator {
            processes,
            last: vec![None; processes],
            chains: vec![Vec::new(); processes],
            edges: Vec::new(),
            count: 0,
        }
    }

    /// Messages folded so far.
    pub fn message_count(&self) -> usize {
        self.count
    }

    /// Folds one message; internal events need not be reported at all.
    ///
    /// # Errors
    ///
    /// [`TraceError::ProcessOutOfRange`] / [`TraceError::SelfMessage`].
    pub fn message(&mut self, sender: ProcessId, receiver: ProcessId) -> Result<(), TraceError> {
        for p in [sender, receiver] {
            if p >= self.processes {
                return Err(TraceError::ProcessOutOfRange {
                    process: p,
                    process_count: self.processes,
                });
            }
        }
        if sender == receiver {
            return Err(TraceError::SelfMessage(sender));
        }
        let id = self.count;
        self.count += 1;
        for p in [sender, receiver] {
            if let Some(prev) = self.last[p].replace(id) {
                self.edges.push((prev, id));
            }
        }
        self.chains[sender].push(id);
        Ok(())
    }

    /// Finishes the fold into a [`SparsePoset`] over the messages seen.
    ///
    /// # Errors
    ///
    /// Propagates [`PosetError`] — unreachable for a stream of validated
    /// messages, whose rendezvous order is a topological witness.
    pub fn finish(self) -> Result<SparsePoset, PosetError> {
        SparsePoset::from_edges_and_chains(self.count, &self.edges, self.chains)
    }
}

/// Builds the sparse message poset of an in-memory computation via the
/// per-sender chain partition — the streaming accumulator run over
/// [`SyncComputation::messages`].
///
/// ```
/// use synctime_trace::{stream, Builder};
///
/// let mut b = Builder::new(3);
/// b.message(0, 1)?;
/// b.message(1, 2)?;
/// let comp = b.build();
/// let p = stream::sparse_message_poset(&comp);
/// assert!(p.lt(0, 1)); // they share process 1
/// # Ok::<(), synctime_trace::TraceError>(())
/// ```
pub fn sparse_message_poset(computation: &SyncComputation) -> SparsePoset {
    let mut acc = SparsePosetAccumulator::new(computation.process_count());
    for m in computation.messages() {
        acc.message(m.sender, m.receiver)
            .expect("a built computation contains only valid messages");
    }
    acc.finish()
        .expect("rendezvous order is a topological witness, so no cycle exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::computation::Builder;
    use crate::Oracle;

    fn sample() -> SyncComputation {
        let mut b = Builder::new(4);
        b.message(0, 1).unwrap();
        b.message(2, 3).unwrap();
        b.internal(1).unwrap();
        b.message(1, 2).unwrap();
        b.message(2, 3).unwrap();
        b.internal(0).unwrap();
        b.build()
    }

    #[test]
    fn accumulator_matches_dense_oracle() {
        let comp = sample();
        let oracle = Oracle::new(&comp);
        let sparse = sparse_message_poset(&comp);
        assert_eq!(sparse.len(), comp.message_count());
        for a in 0..sparse.len() {
            for b in 0..sparse.len() {
                assert_eq!(
                    oracle.message_poset().lt(a, b),
                    sparse.lt(a, b),
                    "lt({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn accumulator_rejects_invalid_messages() {
        let mut acc = SparsePosetAccumulator::new(2);
        assert!(matches!(acc.message(0, 0), Err(TraceError::SelfMessage(0))));
        assert!(matches!(
            acc.message(0, 7),
            Err(TraceError::ProcessOutOfRange { process: 7, .. })
        ));
        acc.message(1, 0).unwrap();
        assert_eq!(acc.message_count(), 1);
    }
}
