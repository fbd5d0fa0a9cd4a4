//! Pluggable clock backends behind one [`Clock`] trait.
//!
//! Every timestamping algorithm in this crate bottoms out in the same four
//! operations on a vector of counters: component-wise max-merge, increment
//! of one component, vector-order comparison, and conversion to and from
//! the dense interchange form. The
//! [`Clock`] trait abstracts that seam so the representation can be chosen
//! per run without touching the protocol logic:
//!
//! * [`DenseVec`] — the plain `Vec<u64>` the paper describes
//!   ([`VectorTime`] itself); every merge walks all `N` components.
//! * [`TreeClock`] — a segment tree over the components with per-node
//!   `(min, max)` summaries. Merges driven by Singhal–Kshemkalyani delta
//!   change-sets touch `O(k log N)` nodes for `k` changed components, and
//!   full merges skip every subtree the incoming clock does not dominate —
//!   the sublinear-join idea of the *Tree Clock* paper (arXiv 2201.06325)
//!   specialised to our delta streams.
//!
//! Both produce **identical** stamps for the same computation — the
//! differential battery in `tests/differential_timestamps.rs` proves the
//! pair equal on random, faulted, and reconfigured traces. Dense is the
//! default everywhere; the tree is selectable only where its sublinear
//! merge can pay off, the runtime's delta path, via
//! `synctime run|launch|serve-node --clock tree` ([`ClockBackend`]).

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use crate::{kernel, CoreError, VectorOrder, VectorTime};

/// The operations a vector-clock representation must provide to run the
/// paper's protocols (merge / increment / compare / dims / serialize).
///
/// Implementations must behave exactly like a `dim()`-component vector of
/// `u64` counters under component-wise max and vector order; the protocol
/// layers rely on that to keep every backend's stamps interchangeable.
pub trait Clock: Clone + PartialEq + Eq + fmt::Debug + Send + Sync + 'static {
    /// Short backend name (`"dense"`, `"tree"`), used by CLI selection
    /// and bench labels.
    const NAME: &'static str;

    /// The all-zero clock of the given dimension.
    fn zero(dim: usize) -> Self;

    /// The number of components.
    fn dim(&self) -> usize;

    /// One component's value.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= dim()`.
    fn component(&self, idx: usize) -> u64;

    /// Increments component `idx` (lines 6 and 10 of Figure 5).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= dim()`.
    fn increment(&mut self, idx: usize);

    /// Component-wise maximum with `other` (lines 5 and 9 of Figure 5).
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] when the dimensions differ; the
    /// clock is left unchanged. No backend may silently truncate.
    fn try_merge_max(&mut self, other: &Self) -> Result<(), CoreError>;

    /// Merges a Singhal–Kshemkalyani change-set: for every `(idx, value)`
    /// pair, `self[idx] := max(self[idx], value)`. Sound as a substitute
    /// for a full merge whenever the unchanged components of the sending
    /// clock were already merged on an earlier message of the same stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] when any index is out of range;
    /// entries before the offending one may already be applied (callers
    /// treat the error as terminal for the stream, exactly like a failed
    /// full merge).
    fn merge_delta(&mut self, changes: &[(usize, u64)]) -> Result<(), CoreError>;

    /// Merges a dense vector, borrowed as its components, into this clock
    /// — the interchange path used when the other side of the wire sent a
    /// full vector.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] when the dimensions differ; the
    /// clock is left unchanged.
    fn merge_from_slice(&mut self, v: &[u64]) -> Result<(), CoreError>;

    /// Full vector-order comparison (Equation 2).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (comparisons across dimensions are a
    /// caller bug, exactly as for [`VectorTime::compare`]).
    fn compare(&self, other: &Self) -> VectorOrder;

    /// The dense interchange form. Stamps leave every backend as
    /// [`VectorTime`]s, which is what keeps cross-backend outputs directly
    /// comparable (and [`crate::MessageTimestamps`] backend-agnostic).
    fn to_vector(&self) -> VectorTime;

    /// The components, borrowed in dense order — what the runtime encodes
    /// onto the wire without copying the clock first. Both backends keep
    /// their components contiguous.
    fn as_slice(&self) -> &[u64];

    /// Builds a clock from its dense interchange form.
    fn from_vector(v: &VectorTime) -> Self;
}

/// The paper's plain dense vector — [`VectorTime`] itself, byte-identical
/// to the pre-trait behavior.
pub type DenseVec = VectorTime;

impl Clock for VectorTime {
    const NAME: &'static str = "dense";

    fn zero(dim: usize) -> Self {
        VectorTime::zero(dim)
    }

    fn dim(&self) -> usize {
        VectorTime::dim(self)
    }

    fn component(&self, idx: usize) -> u64 {
        VectorTime::component(self, idx)
    }

    fn increment(&mut self, idx: usize) {
        VectorTime::increment(self, idx);
    }

    fn try_merge_max(&mut self, other: &Self) -> Result<(), CoreError> {
        VectorTime::merge_max(self, other)
    }

    fn merge_delta(&mut self, changes: &[(usize, u64)]) -> Result<(), CoreError> {
        let dim = VectorTime::dim(self);
        let slice = self.as_mut_slice();
        for &(idx, value) in changes {
            match slice.get_mut(idx) {
                Some(c) => *c = (*c).max(value),
                None => {
                    return Err(CoreError::DimensionMismatch {
                        expected: dim,
                        got: idx + 1,
                    })
                }
            }
        }
        Ok(())
    }

    fn merge_from_slice(&mut self, v: &[u64]) -> Result<(), CoreError> {
        let dim = VectorTime::dim(self);
        if v.len() != dim {
            return Err(CoreError::DimensionMismatch {
                expected: dim,
                got: v.len(),
            });
        }
        kernel::merge_max_lanes(self.as_mut_slice(), v);
        Ok(())
    }

    fn compare(&self, other: &Self) -> VectorOrder {
        VectorTime::compare(self, other)
    }

    fn to_vector(&self) -> VectorTime {
        self.clone()
    }

    fn as_slice(&self) -> &[u64] {
        VectorTime::as_slice(self)
    }

    fn from_vector(v: &VectorTime) -> Self {
        v.clone()
    }
}

/// A clock stored as a segment tree over its components, with `(min, max)`
/// summaries per node.
///
/// The summaries buy two things:
///
/// * **Delta merges are `O(k log N)`** — [`Clock::merge_delta`] touches
///   only the root-to-leaf paths of the `k` changed components, never the
///   other `N − k`. SK delta streams hand the runtime exactly that
///   change-set, so the rendezvous hot path becomes sublinear in `N`.
/// * **Full merges skip dominated subtrees** — a subtree where the
///   incoming clock's `max` is at most this clock's `min` cannot change
///   anything and is pruned in one comparison; comparisons prune the same
///   way and exit as soon as both order flags are set.
///
/// Layout: a 1-indexed implicit binary tree with `base =
/// dim.next_power_of_two()` leaves. Padding leaves hold the inverted pair
/// `(min, max) = (u64::MAX, 0)`, which is neutral under summary combine
/// and lets fully-padded subtrees be recognised (`min > max`) without
/// span bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeClock {
    dim: usize,
    /// First leaf index; nodes `base..base + dim` are the components.
    base: usize,
    mins: Vec<u64>,
    maxs: Vec<u64>,
}

impl TreeClock {
    fn empty(dim: usize) -> Self {
        let base = dim.next_power_of_two().max(1);
        let mut clock = TreeClock {
            dim,
            base,
            mins: vec![u64::MAX; 2 * base],
            maxs: vec![0; 2 * base],
        };
        for leaf in 0..dim {
            clock.mins[clock.base + leaf] = 0;
        }
        clock.rebuild();
        clock
    }

    /// Recomputes every internal summary from the leaves.
    fn rebuild(&mut self) {
        for n in (1..self.base).rev() {
            self.mins[n] = self.mins[2 * n].min(self.mins[2 * n + 1]);
            self.maxs[n] = self.maxs[2 * n].max(self.maxs[2 * n + 1]);
        }
    }

    /// Refreshes the summaries on the path from leaf `n` to the root.
    fn update_path(&mut self, mut n: usize) {
        n /= 2;
        while n >= 1 {
            self.mins[n] = self.mins[2 * n].min(self.mins[2 * n + 1]);
            self.maxs[n] = self.maxs[2 * n].max(self.maxs[2 * n + 1]);
            n /= 2;
        }
    }

    /// `self[idx] := max(self[idx], value)`, updating summaries only when
    /// the leaf actually moved.
    ///
    /// The ancestor walk exploits that only this one leaf changed: the new
    /// parent `max` is `max(old, value)` directly (one compare, no child
    /// loads), only `min` needs the sibling, and the walk stops at the
    /// first ancestor whose summary is unchanged — every ancestor above it
    /// is unchanged too. This is the hot path of `merge_delta`, the
    /// sublinear merge the runtime feeds with SK change-sets; it is
    /// inlined there so the walk runs in the delta loop itself, not
    /// behind one call per changed component.
    #[inline(always)]
    fn raise(&mut self, idx: usize, value: u64) {
        let mut n = self.base + idx;
        if value <= self.maxs[n] {
            return;
        }
        self.maxs[n] = value;
        self.mins[n] = value;
        // Walk up carrying this child's (already final) min, so each level
        // loads only the sibling's — the raised leaf is the sole change
        // below, which also makes `max(old, value)` the exact new summary.
        let mut child_min = value;
        while n > 1 {
            let sibling_min = self.mins[n ^ 1];
            n /= 2;
            let min = child_min.min(sibling_min);
            let max_moved = value > self.maxs[n];
            if max_moved {
                self.maxs[n] = value;
            }
            let min_moved = min != self.mins[n];
            if min_moved {
                self.mins[n] = min;
            }
            if !max_moved && !min_moved {
                // An unchanged summary here means every ancestor's is
                // unchanged too.
                break;
            }
            child_min = min;
        }
    }

    /// Merges `other`'s subtree rooted at `n` into this clock's, pruning
    /// dominated and padded subtrees. Returns whether anything changed, so
    /// parents only recompute summaries on a mutated path.
    fn merge_node(&mut self, other: &TreeClock, n: usize) -> bool {
        // A fully-padded subtree (inverted summary) has no real leaves.
        if other.mins[n] > other.maxs[n] {
            return false;
        }
        // Nothing in `other`'s span exceeds anything in ours: a no-op.
        if other.maxs[n] <= self.mins[n] {
            return false;
        }
        if n >= self.base {
            let v = other.maxs[n];
            if v > self.maxs[n] {
                self.maxs[n] = v;
                self.mins[n] = v;
                return true;
            }
            return false;
        }
        let left = self.merge_node(other, 2 * n);
        let right = self.merge_node(other, 2 * n + 1);
        if left || right {
            self.mins[n] = self.mins[2 * n].min(self.mins[2 * n + 1]);
            self.maxs[n] = self.maxs[2 * n].max(self.maxs[2 * n + 1]);
        }
        left || right
    }

    /// Accumulates the vector-order flags over the subtree at `n`,
    /// short-circuiting once both are set (the pair is concurrent).
    fn compare_node(&self, other: &TreeClock, n: usize, less: &mut bool, greater: &mut bool) {
        if (*less && *greater) || self.mins[n] > self.maxs[n] {
            return;
        }
        if self.maxs[n] < other.mins[n] {
            // Every component here is strictly below its counterpart.
            *less = true;
            return;
        }
        if self.mins[n] > other.maxs[n] {
            *greater = true;
            return;
        }
        if self.mins[n] == self.maxs[n] && other.mins[n] == other.maxs[n] {
            // Both subtrees are uniform: one scalar comparison settles
            // every leaf below (equal values settle to "no flag").
            match self.mins[n].cmp(&other.mins[n]) {
                Ordering::Less => *less = true,
                Ordering::Greater => *greater = true,
                Ordering::Equal => {}
            }
            return;
        }
        if n >= self.base {
            match self.maxs[n].cmp(&other.maxs[n]) {
                Ordering::Less => *less = true,
                Ordering::Greater => *greater = true,
                Ordering::Equal => {}
            }
            return;
        }
        self.compare_node(other, 2 * n, less, greater);
        self.compare_node(other, 2 * n + 1, less, greater);
    }
}

impl Clock for TreeClock {
    const NAME: &'static str = "tree";

    fn zero(dim: usize) -> Self {
        TreeClock::empty(dim)
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn component(&self, idx: usize) -> u64 {
        assert!(
            idx < self.dim,
            "component {idx} out of range ({})",
            self.dim
        );
        self.maxs[self.base + idx]
    }

    fn increment(&mut self, idx: usize) {
        assert!(
            idx < self.dim,
            "component {idx} out of range ({})",
            self.dim
        );
        let leaf = self.base + idx;
        self.maxs[leaf] += 1;
        self.mins[leaf] = self.maxs[leaf];
        self.update_path(leaf);
    }

    fn try_merge_max(&mut self, other: &Self) -> Result<(), CoreError> {
        if self.dim != other.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                got: other.dim,
            });
        }
        self.merge_node(other, 1);
        Ok(())
    }

    fn merge_delta(&mut self, changes: &[(usize, u64)]) -> Result<(), CoreError> {
        for &(idx, value) in changes {
            if idx >= self.dim {
                return Err(CoreError::DimensionMismatch {
                    expected: self.dim,
                    got: idx + 1,
                });
            }
            self.raise(idx, value);
        }
        Ok(())
    }

    fn merge_from_slice(&mut self, v: &[u64]) -> Result<(), CoreError> {
        if self.dim != v.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                got: v.len(),
            });
        }
        for (idx, &value) in v.iter().enumerate() {
            self.raise(idx, value);
        }
        Ok(())
    }

    fn compare(&self, other: &Self) -> VectorOrder {
        assert_eq!(
            self.dim, other.dim,
            "cannot compare clocks of dimensions {} and {}",
            self.dim, other.dim
        );
        let (mut less, mut greater) = (false, false);
        self.compare_node(other, 1, &mut less, &mut greater);
        match (less, greater) {
            (false, false) => VectorOrder::Equal,
            (true, false) => VectorOrder::Less,
            (false, true) => VectorOrder::Greater,
            (true, true) => VectorOrder::Concurrent,
        }
    }

    fn to_vector(&self) -> VectorTime {
        VectorTime::from(Clock::as_slice(self).to_vec())
    }

    fn as_slice(&self) -> &[u64] {
        &self.maxs[self.base..self.base + self.dim]
    }

    fn from_vector(v: &VectorTime) -> Self {
        let mut clock = TreeClock::empty(v.dim());
        for (idx, &value) in v.as_slice().iter().enumerate() {
            let leaf = clock.base + idx;
            clock.maxs[leaf] = value;
            clock.mins[leaf] = value;
        }
        clock.rebuild();
        clock
    }
}

/// A runtime-selectable clock backend, as named on the command line
/// (`--clock dense|tree` on `run`, `launch` and `serve-node`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockBackend {
    /// [`DenseVec`] — the plain vector. The default.
    #[default]
    Dense,
    /// [`TreeClock`] — sublinear delta merges.
    Tree,
}

impl ClockBackend {
    /// The backend used at dimension `dim`: always `self`, since both
    /// backends hold every dimension. It remains only because the
    /// end-to-end benchmark (`perfbench/`) labels its inputs with it.
    pub fn resolve(self, _dim: usize) -> Result<ClockBackend, std::convert::Infallible> {
        Ok(self)
    }
}

impl FromStr for ClockBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(ClockBackend::Dense),
            "tree" => Ok(ClockBackend::Tree),
            other => Err(format!("unknown clock backend `{other}` (dense|tree)")),
        }
    }
}

impl fmt::Display for ClockBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClockBackend::Dense => DenseVec::NAME,
            ClockBackend::Tree => TreeClock::NAME,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives one backend through a deterministic op mix and checks it
    /// against the dense reference after every operation.
    fn differential_ops<C: Clock>(dim: usize) {
        let mut reference = VectorTime::zero(dim);
        let mut clock = C::zero(dim);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..400 {
            match rng() % 4 {
                0 => {
                    let idx = (rng() % dim as u64) as usize;
                    reference.increment(idx);
                    clock.increment(idx);
                }
                1 => {
                    // Full merge with a random same-dimension vector.
                    let other: Vec<u64> = (0..dim).map(|_| rng() % 50).collect();
                    let other = VectorTime::from(other);
                    reference.merge_max(&other).unwrap();
                    clock.merge_from_slice(other.as_slice()).unwrap();
                }
                2 => {
                    // Sparse delta change-set.
                    let k = (rng() % 4) as usize;
                    let changes: Vec<(usize, u64)> = (0..k)
                        .map(|_| ((rng() % dim as u64) as usize, rng() % 60))
                        .collect();
                    <VectorTime as Clock>::merge_delta(&mut reference, &changes).unwrap();
                    clock.merge_delta(&changes).unwrap();
                }
                _ => {
                    // Backend-native merge of a random clock.
                    let other: Vec<u64> = (0..dim).map(|_| rng() % 50).collect();
                    let other = VectorTime::from(other);
                    let backend_other = C::from_vector(&other);
                    let expected = {
                        let mut r = reference.clone();
                        r.merge_max(&other).unwrap();
                        r
                    };
                    reference = expected;
                    clock.try_merge_max(&backend_other).unwrap();
                }
            }
            assert_eq!(clock.to_vector(), reference, "step {step} diverged");
            assert_eq!(clock.dim(), dim);
            // Compare against a perturbed copy in both directions.
            let perturbed = {
                let mut p = reference.clone();
                if dim > 0 {
                    p.increment((rng() % dim as u64) as usize);
                }
                p
            };
            let backend_perturbed = C::from_vector(&perturbed);
            assert_eq!(
                clock.compare(&backend_perturbed),
                reference.compare(&perturbed)
            );
            assert_eq!(
                backend_perturbed.compare(&clock),
                perturbed.compare(&reference)
            );
        }
    }

    #[test]
    fn tree_matches_dense_reference() {
        for dim in [1, 2, 3, 7, 16, 33] {
            differential_ops::<TreeClock>(dim);
        }
    }

    #[test]
    fn dense_trait_impl_matches_inherent() {
        differential_ops::<DenseVec>(5);
    }

    #[test]
    fn zero_dimension_clocks_work() {
        let mut t = TreeClock::zero(0);
        assert_eq!(t.to_vector(), VectorTime::zero(0));
        assert_eq!(t.compare(&t.clone()), VectorOrder::Equal);
        t.merge_delta(&[]).unwrap();
    }

    #[test]
    fn merges_reject_dimension_mismatch_typed() {
        let mut t = TreeClock::zero(3);
        let other = TreeClock::zero(4);
        assert_eq!(
            t.try_merge_max(&other),
            Err(CoreError::DimensionMismatch {
                expected: 3,
                got: 4
            })
        );
        assert!(t.merge_from_slice(&[0; 4]).is_err());
        assert!(t.merge_delta(&[(3, 1)]).is_err());
    }

    #[test]
    fn tree_prunes_but_stays_exact_on_adversarial_shapes() {
        // A spiky vector (one huge component) against a flat one exercises
        // the dominated-subtree prune in both directions.
        let mut spiky = vec![0u64; 33];
        spiky[17] = 1_000;
        let flat = vec![3u64; 33];
        let mut a = TreeClock::from_vector(&VectorTime::from(spiky.clone()));
        let b = TreeClock::from_vector(&VectorTime::from(flat.clone()));
        assert_eq!(a.compare(&b), VectorOrder::Concurrent);
        a.try_merge_max(&b).unwrap();
        let mut expected = VectorTime::from(spiky);
        expected.merge_max(&VectorTime::from(flat)).unwrap();
        assert_eq!(a.to_vector(), expected);
    }

    #[test]
    fn wire_encoding_is_backend_invariant() {
        let v = VectorTime::from(vec![4, 0, 700, 2]);
        assert_eq!(
            crate::wire::encode_full(&TreeClock::from_vector(&v).to_vector()),
            crate::wire::encode_full(&v)
        );
    }

    #[test]
    fn backend_selection_resolves() {
        assert_eq!(ClockBackend::default(), ClockBackend::Dense);
        assert_eq!(ClockBackend::default().resolve(8), Ok(ClockBackend::Dense));
        assert_eq!(ClockBackend::Tree.resolve(1_000), Ok(ClockBackend::Tree));
        assert_eq!("tree".parse::<ClockBackend>().unwrap(), ClockBackend::Tree);
        for unknown in ["vector", "fixed", "auto"] {
            assert!(unknown.parse::<ClockBackend>().is_err(), "{unknown}");
        }
        assert_eq!(ClockBackend::Tree.to_string(), "tree");
    }
}
