//! The paper's offline timestamping algorithm (Section 4, Figure 9).
//!
//! Given a *completed* computation, build the message poset `(M, ↦)`,
//! compute a minimum chain cover (whose size — the width — is at most
//! `⌊N/2⌋` by Theorem 8, since each message occupies two of the `N`
//! processes), derive a chain realizer `L_1..L_w` with
//! `∩ L_i = (M, ↦)`, and stamp each message `m` with
//! `V_m[i] = |{x : x <_{L_i} m}|`, i.e. `m`'s position in `L_i`.
//!
//! Because each `L_i` is a total order, `V(m1) < V(m2)` in vector order iff
//! `m1` precedes `m2` in *every* extension, which by the realizer property
//! is exactly `m1 ↦ m2`.

use std::sync::Mutex;

use synctime_par::ThreadPool;
use synctime_poset::{realizer, Poset, SparsePoset};
use synctime_trace::{stream, Oracle, SyncComputation};

use crate::MessageTimestamps;

/// Offline-stamps all messages of a completed computation.
///
/// The resulting dimension equals the width of the message poset
/// (≤ `⌊N/2⌋` by Theorem 8); for totally ordered message sets (e.g. any
/// computation on a star or triangle topology, Lemma 1) it is 1.
///
/// ```
/// use synctime_core::offline;
/// use synctime_trace::Builder;
///
/// let mut b = Builder::new(4);
/// let a = b.message(0, 1)?;
/// let c = b.message(2, 3)?; // concurrent with a
/// let comp = b.build();
/// let stamps = offline::stamp_computation(&comp);
/// assert_eq!(stamps.dim(), 2); // the poset's width
/// assert!(stamps.concurrent(a, c));
/// # Ok::<(), synctime_trace::TraceError>(())
/// ```
pub fn stamp_computation(computation: &SyncComputation) -> MessageTimestamps {
    stamp_poset(Oracle::new(computation).message_poset())
}

/// Offline-stamps the elements of an arbitrary message poset (step (2) and
/// (3) of Figure 9). Exposed separately so callers who already built the
/// poset — or who study posets directly — can reuse it.
pub fn stamp_poset(poset: &Poset) -> MessageTimestamps {
    let extensions = realizer::chain_realizer(poset);
    debug_assert!(realizer::verify(poset, &extensions));
    let table = realizer::position_table(poset, &extensions);
    let rows = (0..poset.len())
        .flat_map(|m| table.iter().map(move |positions| positions[m] as u64))
        .collect();
    MessageTimestamps::from_rows(table.len(), poset.len(), rows)
}

/// Sparse-engine offline stamping: per-sender chain partition, chain-merge
/// reachability, and a heap-based deferring realizer — `O(M·k)` memory and
/// `O(k·(M + E) log M)` time for `k` non-empty sender chains, against the
/// dense engine's `O(M²)` closure.
///
/// The tradeoff is dimension: the sparse vectors have one component per
/// *sending process* (≤ `N`), while the dense engine pays the `O(M²)`
/// minimum-chain-cover matching to reach `width(P) ≤ ⌊N/2⌋` components.
/// Both encode exactly the same order (they are order-isomorphic and both
/// encode `↦`), so pick by scale: `dense` for the tightest vectors on
/// small traces, `sparse` past tens of thousands of messages.
///
/// ```
/// use synctime_core::offline;
/// use synctime_trace::Builder;
///
/// let mut b = Builder::new(4);
/// let a = b.message(0, 1)?;
/// let c = b.message(2, 3)?; // concurrent with a
/// let comp = b.build();
/// let stamps = offline::stamp_computation_sparse(&comp);
/// assert!(stamps.concurrent(a, c));
/// # Ok::<(), synctime_trace::TraceError>(())
/// ```
pub fn stamp_computation_sparse(computation: &SyncComputation) -> MessageTimestamps {
    stamp_sparse_poset(&stream::sparse_message_poset(computation))
}

/// Parallel [`stamp_computation_sparse`]: realizer extensions and
/// per-message vectors fan out over `pool`, merged deterministically so
/// the output is **bit-identical** to the sequential engine.
pub fn stamp_computation_sparse_parallel(
    computation: &SyncComputation,
    pool: &ThreadPool,
) -> MessageTimestamps {
    stamp_sparse_poset_with(&stream::sparse_message_poset(computation), Some(pool))
}

/// Stamps an arbitrary [`SparsePoset`] sequentially (steps (2) and (3) of
/// Figure 9 over the sparse representation).
pub fn stamp_sparse_poset(poset: &SparsePoset) -> MessageTimestamps {
    stamp_sparse_poset_with(poset, None)
}

/// Stamps an arbitrary [`SparsePoset`], fanning out across `pool` when one
/// is supplied. Results are merged by chain / message index, never by
/// completion order, so every pool size yields the same bytes.
pub fn stamp_sparse_poset_with(
    poset: &SparsePoset,
    pool: Option<&ThreadPool>,
) -> MessageTimestamps {
    let (_, extensions) = match pool {
        Some(pool) => realizer::sparse_chain_realizer_parallel(poset, pool),
        None => realizer::sparse_chain_realizer(poset),
    };
    // Full pairwise verification is quadratic; keep the debug assertion to
    // sizes where it is instant (every unit/property test qualifies).
    debug_assert!(poset.len() > 2048 || realizer::sparse_verify(poset, &extensions));
    let invert = |ext: &Vec<usize>| -> Vec<u32> {
        let mut pos = vec![0u32; poset.len()];
        for (i, &v) in ext.iter().enumerate() {
            pos[v] = i as u32;
        }
        pos
    };
    let positions: Vec<Vec<u32>> = match pool {
        Some(pool) => pool.map_indexed(extensions.len(), |i| invert(&extensions[i])),
        None => extensions.iter().map(invert).collect(),
    };
    // Row `m` holds `m`'s position in every extension.
    let (dim, len) = (positions.len(), poset.len());
    let fill = |first: usize, block: &mut [u64]| {
        for (row, m) in block.chunks_exact_mut(dim).zip(first..) {
            for (c, pos) in row.iter_mut().zip(&positions) {
                *c = u64::from(pos[m]);
            }
        }
    };
    let mut rows = vec![0u64; dim * len];
    match pool {
        _ if rows.is_empty() => {}
        // Workers fill whole row blocks in place. A block's rows depend
        // only on its message ids, so every pool size writes one table.
        Some(pool) => {
            let per_block = len.div_ceil(pool.workers() * 4);
            let blocks: Vec<Mutex<&mut [u64]>> =
                rows.chunks_mut(per_block * dim).map(Mutex::new).collect();
            pool.map_indexed(blocks.len(), |b| {
                fill(
                    b * per_block,
                    &mut blocks[b].lock().expect("row block poisoned"),
                );
            });
        }
        None => fill(0, &mut rows),
    }
    MessageTimestamps::from_rows(dim, len, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synctime_graph::topology;
    use synctime_poset::chains;
    use synctime_trace::examples::figure6;
    use synctime_trace::{Builder, MessageId};

    #[test]
    fn fig9_offline_2d() {
        // Section 4: applying the offline algorithm to the Figure 6
        // computation needs only 2-dimensional vectors.
        let comp = figure6();
        let oracle = Oracle::new(&comp);
        assert_eq!(chains::width(oracle.message_poset()), 2);
        let stamps = stamp_computation(&comp);
        assert_eq!(stamps.dim(), 2);
        assert!(stamps.encodes(&oracle));
    }

    #[test]
    fn width_bounded_by_half_n() {
        // Theorem 8 on a dense computation over K6.
        let topo = topology::complete(6);
        let mut b = Builder::with_topology(&topo);
        for (s, r) in [
            (0, 1),
            (2, 3),
            (4, 5),
            (1, 2),
            (3, 4),
            (5, 0),
            (0, 2),
            (1, 4),
        ] {
            b.message(s, r).unwrap();
        }
        let comp = b.build();
        let stamps = stamp_computation(&comp);
        assert!(stamps.dim() <= 3, "width {} > N/2", stamps.dim());
        assert!(stamps.encodes(&Oracle::new(&comp)));
    }

    #[test]
    fn chain_computation_dimension_one() {
        // All messages share process 0: totally ordered, width 1.
        let mut b = Builder::new(4);
        for r in [1, 2, 3, 1, 2] {
            b.message(0, r).unwrap();
        }
        let comp = b.build();
        let stamps = stamp_computation(&comp);
        assert_eq!(stamps.dim(), 1);
        // Positions are 0..m in rendezvous order.
        for i in 0..comp.message_count() {
            assert_eq!(stamps.row(MessageId(i))[0], i as u64);
        }
    }

    #[test]
    fn empty_computation() {
        let comp = Builder::new(3).build();
        let stamps = stamp_computation(&comp);
        assert!(stamps.is_empty());
        assert_eq!(stamps.dim(), 0);
        let sparse = stamp_computation_sparse(&comp);
        assert!(sparse.is_empty());
        assert_eq!(sparse.dim(), 0);
    }

    #[test]
    fn sparse_engine_encodes_figure6() {
        let comp = figure6();
        let oracle = Oracle::new(&comp);
        let stamps = stamp_computation_sparse(&comp);
        assert!(stamps.encodes(&oracle));
        // Dimension: one component per sending process, not per chain of a
        // minimum cover.
        let senders: std::collections::BTreeSet<usize> =
            comp.messages().iter().map(|m| m.sender).collect();
        assert_eq!(stamps.dim(), senders.len());
    }

    #[test]
    fn sparse_parallel_is_bit_identical_to_sequential() {
        let comp = figure6();
        let seq = stamp_computation_sparse(&comp);
        for workers in [1, 2, 8] {
            let pool = ThreadPool::new(workers);
            let par = stamp_computation_sparse_parallel(&comp, &pool);
            assert_eq!(seq.len(), par.len());
            for m in 0..seq.len() {
                assert_eq!(
                    seq.row(MessageId(m)),
                    par.row(MessageId(m)),
                    "workers = {workers}, message {m}"
                );
            }
        }
    }

    #[test]
    fn sparse_and_dense_engines_are_order_isomorphic() {
        let comp = figure6();
        let dense = stamp_computation(&comp);
        let sparse = stamp_computation_sparse(&comp);
        for a in 0..comp.message_count() {
            for b in 0..comp.message_count() {
                if a != b {
                    assert_eq!(
                        dense.precedes(MessageId(a), MessageId(b)),
                        sparse.precedes(MessageId(a), MessageId(b)),
                        "pair ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn stamp_poset_directly() {
        use synctime_poset::Poset;
        let p = Poset::from_cover_edges(4, &[(0, 2), (1, 2), (1, 3)]).unwrap();
        let stamps = stamp_poset(&p);
        assert_eq!(stamps.dim(), chains::width(&p));
        // Encodes the poset: check every pair by hand.
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(
                        stamps.precedes(MessageId(a), MessageId(b)),
                        p.lt(a, b),
                        "pair ({a}, {b})"
                    );
                }
            }
        }
    }
}
