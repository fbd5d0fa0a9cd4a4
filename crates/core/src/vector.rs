use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};
use synctime_trace::MessageId;

use crate::kernel;
use crate::CoreError;

/// The outcome of comparing two vector timestamps under *vector order*
/// (Equation 2 of the paper): `u < v` iff `u[k] ≤ v[k]` for all `k` and
/// `u[j] < v[j]` for some `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorOrder {
    /// All components equal.
    Equal,
    /// Strictly less in vector order.
    Less,
    /// Strictly greater in vector order.
    Greater,
    /// Incomparable: some component smaller, some larger.
    Concurrent,
}

/// Vector order of two equal-length component slices.
#[inline]
fn order_of(a: &[u64], b: &[u64]) -> VectorOrder {
    match kernel::compare_lanes(a, b) {
        (false, false) => VectorOrder::Equal,
        (true, false) => VectorOrder::Less,
        (false, true) => VectorOrder::Greater,
        (true, true) => VectorOrder::Concurrent,
    }
}

/// A vector timestamp of fixed dimension.
///
/// For message timestamps produced by this crate, the dimension is the
/// edge-decomposition size (online), the poset width (offline), or the
/// process count (Fidge–Mattern) — never one-per-process unless you asked
/// for the baseline.
///
/// `PartialOrd` implements vector order:
///
/// ```
/// use synctime_core::VectorTime;
///
/// let a = VectorTime::from(vec![1, 0, 2]);
/// let b = VectorTime::from(vec![1, 1, 2]);
/// let c = VectorTime::from(vec![0, 3, 0]);
/// assert!(a < b);
/// assert!(!(a < c) && !(c < a)); // concurrent
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorTime {
    components: Vec<u64>,
}

impl VectorTime {
    /// The zero vector of the given dimension.
    pub fn zero(dim: usize) -> Self {
        VectorTime {
            components: vec![0; dim],
        }
    }

    /// The number of components.
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// The components as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.components
    }

    /// The components as a mutable slice — for the in-crate [`Clock`]
    /// backend implementation only.
    ///
    /// [`Clock`]: crate::clock::Clock
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.components
    }

    /// One component.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= dim()`.
    pub fn component(&self, idx: usize) -> u64 {
        self.components[idx]
    }

    /// Component-wise maximum with `other` (lines 5 and 9 of Figure 5).
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] on a dimension mismatch, with the
    /// vector left unchanged — merging differently-sized vectors would
    /// silently truncate causal history, so every call site must handle
    /// (or consciously rule out) the mismatch.
    pub fn merge_max(&mut self, other: &VectorTime) -> Result<(), CoreError> {
        if self.dim() != other.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                got: other.dim(),
            });
        }
        kernel::merge_max_lanes(&mut self.components, &other.components);
        Ok(())
    }

    /// Increments component `idx` (lines 6 and 10 of Figure 5).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= dim()`.
    pub fn increment(&mut self, idx: usize) {
        self.components[idx] += 1;
    }

    /// Full vector-order comparison.
    pub fn compare(&self, other: &VectorTime) -> VectorOrder {
        assert_eq!(
            self.dim(),
            other.dim(),
            "cannot compare vectors of dimensions {} and {}",
            self.dim(),
            other.dim()
        );
        order_of(&self.components, &other.components)
    }

    /// Component-wise `≤` (used by the Theorem 9 event test, where equality
    /// is allowed).
    pub fn le(&self, other: &VectorTime) -> bool {
        matches!(self.compare(other), VectorOrder::Less | VectorOrder::Equal)
    }
}

impl From<Vec<u64>> for VectorTime {
    fn from(components: Vec<u64>) -> Self {
        VectorTime { components }
    }
}

impl PartialOrd for VectorTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match self.compare(other) {
            VectorOrder::Equal => Some(Ordering::Equal),
            VectorOrder::Less => Some(Ordering::Less),
            VectorOrder::Greater => Some(Ordering::Greater),
            VectorOrder::Concurrent => None,
        }
    }
}

impl fmt::Display for VectorTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// The per-message timestamps produced by one run of a timestamping
/// algorithm, with the paper's precedence test as methods.
///
/// The stamps live in one row-major table of stride [`dim`](Self::dim):
/// message `m`'s stamp is the row `rows[m·d .. (m+1)·d]`. A precedence
/// test therefore compares two rows whose addresses are computed from the
/// ids, with no per-stamp header to load first. [`row`](Self::row) is the
/// serving accessor; [`vector`](Self::vector) copies a row out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageTimestamps {
    rows: Vec<u64>,
    dim: usize,
    /// Stored, not derived from `rows`, so a zero-dimension table keeps
    /// its message count.
    len: usize,
}

impl MessageTimestamps {
    /// Wraps a per-message vector table (indexed by message id).
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not all share one dimension.
    pub fn new(vectors: Vec<VectorTime>) -> Self {
        let dim = vectors.first().map_or(0, VectorTime::dim);
        assert!(
            vectors.iter().all(|v| v.dim() == dim),
            "all timestamps must share one dimension"
        );
        let mut rows = Vec::with_capacity(vectors.len() * dim);
        for v in &vectors {
            rows.extend_from_slice(v.as_slice());
        }
        MessageTimestamps::from_rows(dim, vectors.len(), rows)
    }

    /// Wraps `len` stamps of `dim` components each, laid out row after
    /// row in message-id order — how the producers hand over their output.
    /// A table without stamps has dimension 0, as [`new`](Self::new) gives
    /// it, so every producer's empty table compares equal.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not hold exactly `len × dim` components.
    pub fn from_rows(dim: usize, len: usize, rows: Vec<u64>) -> Self {
        assert!(
            dim.checked_mul(len) == Some(rows.len()),
            "a table of {len} stamps of dimension {dim} needs {} components, got {}",
            dim.saturating_mul(len),
            rows.len()
        );
        let dim = if len == 0 { 0 } else { dim };
        MessageTimestamps { rows, dim, len }
    }

    /// The timestamp dimension (number of vector components).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stamped messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no messages were stamped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The timestamp of a message, borrowed from the table.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn row(&self, m: MessageId) -> &[u64] {
        assert!(
            m.0 < self.len,
            "message {} out of range (the table has {} messages)",
            m.0,
            self.len
        );
        let start = m.0 * self.dim;
        &self.rows[start..start + self.dim]
    }

    /// All timestamps, in message-id order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        (0..self.len).map(move |m| self.row(MessageId(m)))
    }

    /// An owned copy of a message's timestamp, for display and export.
    /// It allocates: serving paths read [`row`](Self::row) instead.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn vector(&self, m: MessageId) -> VectorTime {
        VectorTime::from(self.row(m).to_vec())
    }

    /// Vector-order comparison of two messages' stamps.
    #[inline]
    pub(crate) fn order(&self, m1: MessageId, m2: MessageId) -> VectorOrder {
        order_of(self.row(m1), self.row(m2))
    }

    /// The precedence test: `m1 ↦ m2` iff `v(m1) < v(m2)`.
    #[inline]
    pub fn precedes(&self, m1: MessageId, m2: MessageId) -> bool {
        self.order(m1, m2) == VectorOrder::Less
    }

    /// The concurrency test: neither vector is below the other and the
    /// messages are distinct.
    #[inline]
    pub fn concurrent(&self, m1: MessageId, m2: MessageId) -> bool {
        m1 != m2
            && matches!(
                self.order(m1, m2),
                VectorOrder::Concurrent | VectorOrder::Equal
            )
    }

    /// Whether these timestamps encode the poset exactly: for every ordered
    /// pair, `precedes(m1, m2) ⟺ m1 ↦ m2` per the ground-truth `oracle`
    /// (the central property, Theorem 4 / Figure 9). `O(|M|²)`.
    pub fn encodes(&self, oracle: &synctime_trace::Oracle) -> bool {
        let n = self.len;
        if oracle.message_poset().len() != n {
            return false;
        }
        (0..n).all(|i| {
            (0..n).all(|j| {
                i == j
                    || self.precedes(MessageId(i), MessageId(j))
                        == oracle.synchronously_precedes(MessageId(i), MessageId(j))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_accessors() {
        let v = VectorTime::zero(3);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.as_slice(), &[0, 0, 0]);
        assert_eq!(v.component(1), 0);
    }

    #[test]
    fn merge_and_increment() {
        let mut a = VectorTime::from(vec![3, 0, 5]);
        a.merge_max(&VectorTime::from(vec![1, 4, 5])).unwrap();
        assert_eq!(a.as_slice(), &[3, 4, 5]);
        a.increment(1);
        assert_eq!(a.as_slice(), &[3, 5, 5]);
    }

    #[test]
    fn merge_rejects_dimension_mismatch() {
        let mut a = VectorTime::from(vec![7, 7]);
        assert_eq!(
            a.merge_max(&VectorTime::zero(3)),
            Err(CoreError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
        // The failed merge left the vector untouched.
        assert_eq!(a.as_slice(), &[7, 7]);
    }

    #[test]
    fn vector_order_cases() {
        let a = VectorTime::from(vec![1, 2]);
        let b = VectorTime::from(vec![1, 3]);
        let c = VectorTime::from(vec![2, 1]);
        assert_eq!(a.compare(&b), VectorOrder::Less);
        assert_eq!(b.compare(&a), VectorOrder::Greater);
        assert_eq!(a.compare(&a.clone()), VectorOrder::Equal);
        assert_eq!(a.compare(&c), VectorOrder::Concurrent);
        assert!(a < b);
        assert!(a.le(&a.clone()));
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert_eq!(a.partial_cmp(&c), None);
    }

    #[test]
    fn display_form() {
        assert_eq!(VectorTime::from(vec![1, 1, 1]).to_string(), "(1,1,1)");
        assert_eq!(VectorTime::zero(0).to_string(), "()");
    }

    #[test]
    fn message_timestamps_tests() {
        let ts = MessageTimestamps::new(vec![
            VectorTime::from(vec![1, 0]),
            VectorTime::from(vec![1, 1]),
            VectorTime::from(vec![0, 1]),
        ]);
        assert_eq!(ts.dim(), 2);
        assert_eq!(ts.len(), 3);
        assert!(ts.precedes(MessageId(0), MessageId(1)));
        assert!(!ts.precedes(MessageId(1), MessageId(0)));
        assert!(ts.concurrent(MessageId(0), MessageId(2)));
        assert!(!ts.concurrent(MessageId(0), MessageId(0)));
    }

    #[test]
    #[should_panic(expected = "one dimension")]
    fn message_timestamps_reject_mixed_dims() {
        MessageTimestamps::new(vec![VectorTime::zero(1), VectorTime::zero(2)]);
    }
}
