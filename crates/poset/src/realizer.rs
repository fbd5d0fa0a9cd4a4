//! Chain realizers: families of linear extensions whose intersection is the
//! poset (step (2) of the paper's Figure 9 offline algorithm).
//!
//! Dilworth's bound `dim(P) ≤ width(P)` is made constructive here: given a
//! minimum chain cover `C_1, ..., C_w`, the extension `L_i` is built by
//! repeatedly emitting minimal elements while *deferring* the elements of
//! `C_i` as long as any other minimal element exists. In `L_i`, every
//! element incomparable to some `y ∈ C_i` precedes `y` (when `y` is emitted,
//! it is the unique minimal element left, so anything still unplaced is
//! above it). Hence for every incomparable pair `(x, y)` with `y ∈ C_i`,
//! `x <_{L_i} y` — and symmetrically some other extension puts `y` before
//! `x`, so the intersection of the family is exactly the poset.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use synctime_par::ThreadPool;

use crate::chains::min_chain_cover;
use crate::{Poset, SparsePoset};

/// Builds a linear extension of `p` that defers the elements of `chain` as
/// long as possible: at every step the smallest minimal element outside
/// `chain` is emitted; a chain element is emitted only when it is the sole
/// minimal element remaining.
///
/// For every `y ∈ chain` and every `x` incomparable to `y`, the result puts
/// `x` before `y`.
///
/// # Panics
///
/// Panics if `chain` contains an out-of-range element.
pub fn extension_deferring(p: &Poset, chain: &[usize]) -> Vec<usize> {
    let n = p.len();
    let mut in_chain = vec![false; n];
    for &v in chain {
        assert!(v < n, "chain element {v} out of range");
        in_chain[v] = true;
    }
    let mut placed = vec![false; n];
    let mut remaining_below: Vec<usize> = (0..n).map(|v| p.downset_len(v)).collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let pick = (0..n)
            .filter(|&v| !placed[v] && remaining_below[v] == 0)
            .min_by_key(|&v| (in_chain[v], v))
            .expect("a finite poset always has a minimal unplaced element");
        placed[pick] = true;
        out.push(pick);
        for w in p.above(pick) {
            remaining_below[w] -= 1;
        }
    }
    out
}

/// A chain realizer of size `width(p)`: one deferring extension per chain of
/// a minimum chain cover. The intersection of the returned extensions is
/// exactly `p` (checkable with [`verify`]).
///
/// Degenerate case: a poset with at most one element has an empty
/// or singleton realizer of size `width` (0 or 1).
///
/// ```
/// use synctime_poset::{realizer, Poset};
///
/// let p = Poset::from_cover_edges(4, &[(0, 2), (1, 2), (1, 3)])?;
/// let r = realizer::chain_realizer(&p);
/// assert!(realizer::verify(&p, &r));
/// # Ok::<(), synctime_poset::PosetError>(())
/// ```
pub fn chain_realizer(p: &Poset) -> Vec<Vec<usize>> {
    min_chain_cover(p)
        .iter()
        .map(|chain| extension_deferring(p, chain))
        .collect()
}

/// Whether the intersection of `extensions` is exactly `p`: every extension
/// is a linear extension of `p`, and every incomparable pair is ordered both
/// ways across the family.
pub fn verify(p: &Poset, extensions: &[Vec<usize>]) -> bool {
    if p.len() <= 1 {
        // A single element (or none) is realized by any family, including
        // the empty one produced for the empty poset.
        return extensions.iter().all(|e| p.is_linear_extension(e));
    }
    if extensions.is_empty() {
        return false;
    }
    let positions: Vec<Vec<usize>> = extensions
        .iter()
        .map(|ext| {
            let mut pos = vec![usize::MAX; p.len()];
            for (i, &v) in ext.iter().enumerate() {
                if v >= p.len() || pos[v] != usize::MAX {
                    return Vec::new(); // malformed; caught below
                }
                pos[v] = i;
            }
            pos
        })
        .collect();
    if positions.iter().any(|pos| pos.len() != p.len()) {
        return false;
    }
    for ext in extensions {
        if !p.is_linear_extension(ext) {
            return false;
        }
    }
    for a in 0..p.len() {
        for b in (a + 1)..p.len() {
            if p.concurrent(a, b) {
                let a_before_b = positions.iter().any(|pos| pos[a] < pos[b]);
                let b_before_a = positions.iter().any(|pos| pos[b] < pos[a]);
                if !(a_before_b && b_before_a) {
                    return false;
                }
            }
        }
    }
    true
}

/// The positions of each element in each extension:
/// `result[i][v]` = index of `v` in `extensions[i]`. This is the vector
/// timestamp table of the offline algorithm (`V_m[i]` = number of elements
/// before `m` in `L_i`).
///
/// # Panics
///
/// Panics if an extension is not a permutation of `0..p.len()`.
pub fn position_table(p: &Poset, extensions: &[Vec<usize>]) -> Vec<Vec<usize>> {
    extensions
        .iter()
        .map(|ext| {
            assert_eq!(ext.len(), p.len(), "extension has wrong length");
            let mut pos = vec![usize::MAX; p.len()];
            for (i, &v) in ext.iter().enumerate() {
                assert!(pos[v] == usize::MAX, "element {v} repeated in extension");
                pos[v] = i;
            }
            pos
        })
        .collect()
}

/// Sparse counterpart of [`extension_deferring`]: builds the linear
/// extension of `p` that defers the elements of chain `chain_index` for as
/// long as any other minimal element exists, in
/// `O((M + E) log M)` instead of the dense `O(M²)` scan.
///
/// Uses a two-heap Kahn sweep over the generating edges: an element becomes
/// *available* when its last unplaced predecessor is placed (for a
/// generating relation this coincides with being minimal among the unplaced
/// elements of the order), and at every step the smallest available
/// non-chain element is emitted; a chain element only when no non-chain
/// element is available. This is exactly the dense
/// `min_by_key((in_chain, id))` pick, so the two implementations produce
/// identical extensions given identical chains.
///
/// # Panics
///
/// Panics if `chain_index` is out of range.
pub fn sparse_extension_deferring(p: &SparsePoset, chain_index: usize) -> Vec<usize> {
    assert!(chain_index < p.chain_count(), "chain index out of range");
    let n = p.len();
    let mut pending: Vec<u32> = (0..n).map(|v| p.predecessors(v).len() as u32).collect();
    // Two min-heaps of available elements, split by chain membership: the
    // deferred chain only supplies an element when `others` runs dry.
    let mut others: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut deferred: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let offer = |v: usize, others: &mut BinaryHeap<_>, deferred: &mut BinaryHeap<_>| {
        if p.chain_of(v) == chain_index {
            deferred.push(Reverse(v));
        } else {
            others.push(Reverse(v));
        }
    };
    for (v, &count) in pending.iter().enumerate() {
        if count == 0 {
            offer(v, &mut others, &mut deferred);
        }
    }
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let Reverse(v) = others
            .pop()
            .or_else(|| deferred.pop())
            .expect("a finite poset always has a minimal unplaced element");
        out.push(v);
        for &w in p.successors(v) {
            let w = w as usize;
            pending[w] -= 1;
            if pending[w] == 0 {
                offer(w, &mut others, &mut deferred);
            }
        }
    }
    out
}

/// A chain realizer of a [`SparsePoset`]: one deferring extension per
/// **non-empty** chain of its covering partition.
///
/// The family realizes `p` for *any* chain partition, minimum or not: for
/// an incomparable pair `(x, y)` with `y` in chain `C_i`, the deferring
/// extension `L_i` emits `y` only when it is the sole minimal unplaced
/// element (a valid chain has at most one minimal element), so `x` — not
/// above `y` — must already be placed, i.e. `x <_{L_i} y`; the chain
/// holding `x` orders them the other way. The price of skipping the
/// minimum-cover matching is dimension: the realizer has one extension per
/// non-empty chain (≤ `N` for the per-sender partition) instead of
/// `width(p)` (≤ `⌊N/2⌋`).
///
/// Returns `(chain_indices, extensions)` where `chain_indices[i]` is the
/// partition index the `i`-th extension defers.
pub fn sparse_chain_realizer(p: &SparsePoset) -> (Vec<usize>, Vec<Vec<usize>>) {
    let nonempty: Vec<usize> = (0..p.chain_count())
        .filter(|&c| !p.chains()[c].is_empty())
        .collect();
    let extensions = nonempty
        .iter()
        .map(|&c| sparse_extension_deferring(p, c))
        .collect();
    (nonempty, extensions)
}

/// Parallel [`sparse_chain_realizer`]: the per-chain extensions are
/// independent, so they fan out across `pool` and are merged back **in
/// chain order** — the result is bit-identical to the sequential one
/// regardless of scheduling.
pub fn sparse_chain_realizer_parallel(
    p: &SparsePoset,
    pool: &ThreadPool,
) -> (Vec<usize>, Vec<Vec<usize>>) {
    let nonempty: Vec<usize> = (0..p.chain_count())
        .filter(|&c| !p.chains()[c].is_empty())
        .collect();
    let extensions = pool.map_indexed(nonempty.len(), |i| {
        sparse_extension_deferring(p, nonempty[i])
    });
    (nonempty, extensions)
}

/// Sparse analog of [`verify`]: every extension is a permutation that
/// respects the generating edges, and every incomparable pair is ordered
/// both ways across the family. `O(dim · (M + E) + M² · dim)` — intended
/// for tests and debug assertions on small posets, not for the hot path.
pub fn sparse_verify(p: &SparsePoset, extensions: &[Vec<usize>]) -> bool {
    let n = p.len();
    if n <= 1 {
        return true;
    }
    if extensions.is_empty() {
        return false;
    }
    let mut positions = Vec::with_capacity(extensions.len());
    for ext in extensions {
        if ext.len() != n {
            return false;
        }
        let mut pos = vec![usize::MAX; n];
        for (i, &v) in ext.iter().enumerate() {
            if v >= n || pos[v] != usize::MAX {
                return false;
            }
            pos[v] = i;
        }
        // Linear extension: every generating edge points forward.
        for v in 0..n {
            for &w in p.successors(v) {
                if pos[v] >= pos[w as usize] {
                    return false;
                }
            }
        }
        positions.push(pos);
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if p.concurrent(a, b) {
                let a_first = positions.iter().any(|pos| pos[a] < pos[b]);
                let b_first = positions.iter().any(|pos| pos[b] < pos[a]);
                if !(a_first && b_first) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chains::width;

    fn assert_realized(p: &Poset) {
        let r = chain_realizer(p);
        assert_eq!(r.len(), width(p));
        assert!(verify(p, &r), "realizer does not realize the poset");
    }

    #[test]
    fn diamond_realizer() {
        let p = Poset::from_cover_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_realized(&p);
    }

    #[test]
    fn chain_needs_one_extension() {
        let p = Poset::from_cover_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = chain_realizer(&p);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0], vec![0, 1, 2, 3]);
        assert!(verify(&p, &r));
    }

    #[test]
    fn antichain_needs_n() {
        let p = Poset::antichain(4);
        assert_realized(&p);
    }

    #[test]
    fn standard_example_realizer() {
        // S_3 has dimension 3 = width 3; chain realizer of size 3 works.
        let mut pairs = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    pairs.push((i, 3 + j));
                }
            }
        }
        let p = Poset::from_cover_edges(6, &pairs).unwrap();
        assert_realized(&p);
    }

    #[test]
    fn deferring_extension_defers() {
        // 0 < 1; chain {0, 1}; element 2 incomparable to both must precede
        // both in the deferring extension.
        let p = Poset::from_cover_edges(3, &[(0, 1)]).unwrap();
        let ext = extension_deferring(&p, &[0, 1]);
        assert_eq!(ext, vec![2, 0, 1]);
        assert!(p.is_linear_extension(&ext));
    }

    #[test]
    fn verify_rejects_one_sided_families() {
        let p = Poset::antichain(2);
        // Both extensions order 0 before 1: fails to realize incomparability.
        assert!(!verify(&p, &[vec![0, 1], vec![0, 1]]));
        assert!(verify(&p, &[vec![0, 1], vec![1, 0]]));
        // Non-extensions are rejected.
        let q = Poset::from_cover_edges(2, &[(0, 1)]).unwrap();
        assert!(!verify(&q, &[vec![1, 0]]));
        // Empty family realizes nothing (for n > 1).
        assert!(!verify(&p, &[]));
    }

    #[test]
    fn position_table_matches_extensions() {
        let p = Poset::antichain(3);
        let table = position_table(&p, &[vec![2, 0, 1]]);
        assert_eq!(table, vec![vec![1, 2, 0]]);
    }

    /// Shared fixture: a two-process ladder plus a loner, with its
    /// per-"sender" chain partition.
    fn ladder() -> (usize, Vec<(usize, usize)>, Vec<Vec<usize>>) {
        let edges = vec![(0, 2), (2, 4), (1, 3), (3, 5), (0, 3), (3, 4)];
        let chains = vec![vec![0, 2, 4], vec![1, 3, 5], vec![6]];
        (7, edges, chains)
    }

    #[test]
    fn sparse_matches_dense_extension_on_same_chain() {
        let (n, edges, chains) = ladder();
        let dense = Poset::from_cover_edges(n, &edges).unwrap();
        let sparse = SparsePoset::from_edges_and_chains(n, &edges, chains.clone()).unwrap();
        for (c, chain) in chains.iter().enumerate() {
            assert_eq!(
                extension_deferring(&dense, chain),
                sparse_extension_deferring(&sparse, c),
                "chain {c}"
            );
        }
    }

    #[test]
    fn sparse_realizer_realizes() {
        let (n, edges, chains) = ladder();
        let sparse = SparsePoset::from_edges_and_chains(n, &edges, chains).unwrap();
        let (which, exts) = sparse_chain_realizer(&sparse);
        assert_eq!(which, vec![0, 1, 2]);
        assert_eq!(exts.len(), 3);
        assert!(sparse_verify(&sparse, &exts));
        // And against the dense closure's notion of incomparability too.
        let dense = Poset::from_cover_edges(n, &edges).unwrap();
        assert!(verify(&dense, &exts));
    }

    #[test]
    fn sparse_parallel_is_bit_identical_to_sequential() {
        let (n, edges, chains) = ladder();
        let sparse = SparsePoset::from_edges_and_chains(n, &edges, chains).unwrap();
        let seq = sparse_chain_realizer(&sparse);
        for workers in [1, 2, 8] {
            let par = sparse_chain_realizer_parallel(&sparse, &ThreadPool::new(workers));
            assert_eq!(seq, par, "workers = {workers}");
        }
    }

    #[test]
    fn sparse_realizer_skips_empty_chains() {
        let p = SparsePoset::from_edges_and_chains(2, &[(0, 1)], vec![vec![], vec![0, 1], vec![]])
            .unwrap();
        let (which, exts) = sparse_chain_realizer(&p);
        assert_eq!(which, vec![1]);
        assert_eq!(exts, vec![vec![0, 1]]);
        assert!(sparse_verify(&p, &exts));
    }

    #[test]
    fn sparse_verify_rejects_one_sided_families() {
        let p = SparsePoset::from_edges_and_chains(2, &[], vec![vec![0], vec![1]]).unwrap();
        assert!(!sparse_verify(&p, &[vec![0, 1], vec![0, 1]]));
        assert!(sparse_verify(&p, &[vec![0, 1], vec![1, 0]]));
        assert!(!sparse_verify(&p, &[]));
        let q = SparsePoset::from_edges_and_chains(2, &[(0, 1)], vec![vec![0, 1]]).unwrap();
        assert!(!sparse_verify(&q, &[vec![1, 0]]));
    }

    #[test]
    fn empty_and_singleton_posets() {
        let empty = Poset::antichain(0);
        assert!(verify(&empty, &chain_realizer(&empty)));
        let single = Poset::antichain(1);
        let r = chain_realizer(&single);
        assert_eq!(r, vec![vec![0]]);
        assert!(verify(&single, &r));
    }
}
